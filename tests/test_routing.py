import random
from dataclasses import replace

import pytest

from dtnsim.contacts import MAX_WEIGHT
from dtnsim.routing import (
    Action,
    Buffer,
    ForwardAction,
    Message,
    Protocol,
    RelayContext,
    decide,
)
from dtnsim.social import PeerRecord


def msg(mid=0, src=0, dst=5, created=0.0, ttl=100.0):
    return Message(id=mid, src=src, dst=dst, created_at=created, ttl=ttl)


def make_buffer(*messages):
    buf = Buffer()
    for m in messages:
        buf.insert(m)
    return buf


def heard(sender, cb=0, ceb=0, weights=None):
    """What a node cached from ``sender``'s last hello."""
    return sender, PeerRecord(cb, ceb), weights or {}


def ctx(buffer, own_weights=None, cb=0, ceb=0, members=(), peer_weights=None):
    return RelayContext(
        node=0,
        buffer=buffer,
        own_weights=own_weights or {},
        own_cb=cb,
        own_ceb=ceb,
        members=members,
        peer_weights=peer_weights or {},
        threshold=0.01,
    )


# -- message and buffer basics ----------------------------------------------------


def test_message_validation():
    with pytest.raises(ValueError):
        Message(id=0, src=1, dst=1, created_at=0, ttl=10)
    with pytest.raises(ValueError):
        Message(id=0, src=0, dst=1, created_at=0, ttl=0)


def test_ttl_boundary_inclusive():
    m = msg(ttl=60)
    assert m.is_live(60)
    assert not m.is_live(60.5)


def test_buffer_accept_relay_increments_hops():
    buf = Buffer()
    delivered = buf.accept(msg(), receiver=3)
    assert not delivered
    assert buf.get(0).hops == 1


def test_buffer_accept_destination_consumes():
    buf = Buffer()
    delivered = buf.accept(msg(dst=3), receiver=3)
    assert delivered
    assert len(buf) == 0


def test_buffer_dedupes_by_id():
    buf = Buffer()
    buf.accept(msg(), receiver=3)
    buf.accept(msg(), receiver=3)
    assert len(buf) == 1
    assert buf.get(0).hops == 1  # second copy ignored


# -- decide: a table of traced cases ------------------------------------------------

COPY = Action.COPY
FAD = Action.FORWARD_AND_DELETE
DLV = Action.DELIVER


def actions_of(protocol, context, peer, advert=None, peer_has=frozenset(), now=10.0):
    """``decide`` on ``context`` extended by ``advert``, a :func:`heard` cache entry."""
    if advert is not None:
        sender, record, weights = advert
        context = replace(
            context,
            peer_weights={**context.peer_weights, sender: weights},
            peer_centrality={**context.peer_centrality, sender: record},
        )
    return decide(protocol, context, peer, context.buffer.ids() - peer_has, now)


def test_sentinel_weight_orders_above_everything():
    buf = make_buffer(msg(dst=5))
    got = actions_of(
        Protocol.FRIENDSHIP, ctx(buf, {5: 1e308}), 9, heard(9, weights={5: MAX_WEIGHT})
    )
    assert got == [ForwardAction(0, COPY)]


def test_deliver_to_destination_for_every_protocol():
    for proto in Protocol:
        buf = make_buffer(msg(dst=5))
        got = actions_of(proto, ctx(buf), 5, heard(5))
        assert got == [ForwardAction(0, DLV)]


def test_epidemic_floods_and_respects_summary_vector():
    buf = make_buffer(msg(0, dst=5), msg(1, dst=6))
    got = actions_of(Protocol.EPIDEMIC, ctx(buf), 9, heard(9))
    assert got == [ForwardAction(0, COPY), ForwardAction(1, COPY)]
    got = actions_of(Protocol.EPIDEMIC, ctx(buf), 9, heard(9), peer_has={0, 1})
    assert got == []


def test_expired_message_generates_no_action():
    buf = make_buffer(msg(created=0, ttl=5))
    got = actions_of(Protocol.EPIDEMIC, ctx(buf), 9, heard(9), now=6.0)
    assert got == []


def test_friendship_requires_destination_friendship_and_improvement():
    buf = make_buffer(msg(dst=5))
    # peer is a friend of the destination and better than us
    got = actions_of(
        Protocol.FRIENDSHIP, ctx(buf, {5: 0.1}), 9, heard(9, weights={5: 0.5})
    )
    assert got == [ForwardAction(0, COPY)]
    # peer better than us but not above the threshold floor
    got = actions_of(
        Protocol.FRIENDSHIP, ctx(buf, {5: 0.0}), 9, heard(9, weights={5: 0.005})
    )
    assert got == []
    # peer above threshold but not better than us
    got = actions_of(
        Protocol.FRIENDSHIP, ctx(buf, {5: 0.9}), 9, heard(9, weights={5: 0.5})
    )
    assert got == []


def test_better_relay_upgraded_to_delete_when_it_beats_whole_network():
    buf = make_buffer(msg(dst=5))
    context = ctx(
        buf,
        {5: 0.2},
        members={0, 3, 4},
        peer_weights={3: {5: 0.3}, 4: {5: 0.1}},
    )
    got = actions_of(Protocol.PROPOSED_I, context, 9, heard(9, weights={5: 0.5}))
    assert got == [ForwardAction(0, FAD)]


def test_better_relay_only_copied_when_a_member_matches_it():
    buf = make_buffer(msg(dst=5))
    context = ctx(
        buf,
        {5: 0.2},
        members={0, 3},
        peer_weights={3: {5: 0.5}},  # ties block the strict-max deletion
    )
    got = actions_of(Protocol.PROPOSED_I, context, 9, heard(9, weights={5: 0.5}))
    assert got == [ForwardAction(0, COPY)]


def test_delete_check_is_vacuous_with_empty_network():
    buf = make_buffer(msg(dst=5))
    context = ctx(buf, {5: 0.0}, members={0})
    got = actions_of(Protocol.PROPOSED_I, context, 9, heard(9, weights={5: 0.5}))
    assert got == [ForwardAction(0, FAD)]


def test_contacted_peer_is_excluded_from_the_deletion_maximum():
    buf = make_buffer(msg(dst=5))
    # peer 9 is itself a view member; its own cached weight must not block
    context = ctx(
        buf,
        {5: 0.2},
        members={0, 9},
        peer_weights={9: {5: 0.5}},
    )
    got = actions_of(Protocol.PROPOSED_I, context, 9, heard(9, weights={5: 0.5}))
    assert got == [ForwardAction(0, FAD)]


def test_centrality_fallback_uses_plain_betweenness():
    buf = make_buffer(msg(dst=5))
    context = ctx(buf, {5: 0.5}, cb=1, ceb=9)
    got = actions_of(
        Protocol.PROPOSED_I, context, 9, heard(9, cb=4, ceb=2, weights={5: 0.2})
    )
    assert got == [ForwardAction(0, COPY)]


def test_centrality_fallback_uses_endpoint_betweenness():
    buf = make_buffer(msg(dst=5))
    context = ctx(buf, {5: 0.5}, cb=9, ceb=1)
    got = actions_of(
        Protocol.PROPOSED_II, context, 9, heard(9, cb=2, ceb=4, weights={5: 0.2})
    )
    assert got == [ForwardAction(0, COPY)]


def test_divergence_between_proposed_variants():
    buf = make_buffer(msg(dst=5))
    context = ctx(buf, {5: 0.5}, cb=3, ceb=5)
    h = heard(9, cb=2, ceb=6, weights={5: 0.2})
    assert actions_of(Protocol.PROPOSED_I, context, 9, h) == []
    assert actions_of(Protocol.PROPOSED_II, context, 9, h) == [ForwardAction(0, COPY)]


def test_all_ties_produce_no_action():
    buf = make_buffer(msg(dst=5))
    context = ctx(buf, {5: 0.5}, cb=3, ceb=3)
    h = heard(9, cb=3, ceb=3, weights={5: 0.5})
    for proto in (Protocol.FRIENDSHIP, Protocol.PROPOSED_I, Protocol.PROPOSED_II):
        assert actions_of(proto, context, 9, h) == []


def test_zero_weights_and_no_hello_block_proposed_forwarding():
    buf = make_buffer(msg(dst=5))
    context = ctx(buf, {}, cb=0, ceb=0)
    assert actions_of(Protocol.PROPOSED_I, context, 9, None) == []
    assert actions_of(Protocol.PROPOSED_I, context, 9, heard(9)) == []


def test_sentinel_advertisement_beats_every_finite_weight():
    buf = make_buffer(msg(dst=5))
    context = ctx(buf, {5: 0.99}, members={0, 3}, peer_weights={3: {5: 123.0}})
    got = actions_of(
        Protocol.PROPOSED_I, context, 9, heard(9, weights={5: MAX_WEIGHT})
    )
    assert got == [ForwardAction(0, FAD)]


def test_actions_are_ordered_by_message_id():
    buf = Buffer()
    for mid in (4, 1, 3):
        buf.insert(msg(mid, dst=5))
    got = actions_of(Protocol.EPIDEMIC, ctx(buf), 9, heard(9))
    assert [a.message_id for a in got] == [1, 3, 4]


def test_variants_agree_when_centrality_signs_agree():
    rng = random.Random(31)
    for _ in range(200):
        buf = make_buffer(msg(dst=5))
        w_own = rng.choice([0.0, 0.2, 0.5])
        w_peer = rng.choice([0.0, 0.2, 0.5])
        sign = rng.choice([-1, 0, 1])
        cb_i, ceb_i = 2, 4
        cb_j, ceb_j = cb_i + sign, ceb_i + sign
        context = ctx(buf, {5: w_own}, cb=cb_i, ceb=ceb_i)
        h = heard(9, cb=cb_j, ceb=ceb_j, weights={5: w_peer} if w_peer else {})
        first = actions_of(Protocol.PROPOSED_I, context, 9, h)
        second = actions_of(Protocol.PROPOSED_II, context, 9, h)
        assert first == second
