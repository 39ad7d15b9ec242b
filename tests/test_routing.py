import random
from dataclasses import replace

import pytest

from dtnsim.contacts import MAX_WEIGHT
from dtnsim.routing import (
    Action,
    ForwardAction,
    Message,
    Protocol,
    RelayContext,
    bits,
    decide,
)
from dtnsim.social import PeerRecord


def msg(mid=0, src=0, dst=5, created=0.0, ttl=100.0):
    return Message(id=mid, src=src, dst=dst, created_at=created, ttl=ttl)


#: node ids 0..NODES-1 may appear as endpoints, peers and advertised destinations
NODES = 10


def rank_masks(workload, buffered=None, peer_has=(), now=None):
    """``(messages, toward, missing)`` as :func:`decide` reads them.

    ``messages`` is ``workload`` by rank (ascending id), ``toward[d]`` the
    mask of its messages addressed to ``d``, and ``missing`` the mask of
    the ``buffered`` ids (default: the whole workload) not in ``peer_has``
    and, given ``now``, live then: the engine passes :func:`decide` no
    message past its TTL.
    """
    messages = sorted(workload, key=lambda m: m.id)
    toward = [0] * NODES
    missing = 0
    for rank, m in enumerate(messages):
        toward[m.dst] |= 1 << rank
        if (
            (buffered is None or m.id in buffered)
            and m.id not in peer_has
            and (now is None or m.is_live(now))
        ):
            missing |= 1 << rank
    return messages, toward, missing


def heard(sender, cb=0, ceb=0, weights=None):
    """What a node cached from ``sender``'s last hello."""
    return sender, PeerRecord(cb, ceb), weights or {}


def ctx(buffer, own_weights=None, cb=0, ceb=0, members=(), peer_weights=None):
    """A context for node 0 holding the messages ``buffer``."""
    messages, toward, _ = rank_masks(buffer)
    return RelayContext(
        node=0,
        messages=messages,
        toward=toward,
        own_weights=own_weights or {},
        own_cb=cb,
        own_ceb=ceb,
        members=members,
        peer_weights=peer_weights or {},
        threshold=0.01,
    )


# -- message basics ----------------------------------------------------------------


def test_message_validation():
    with pytest.raises(ValueError):
        Message(id=0, src=1, dst=1, created_at=0, ttl=10)
    with pytest.raises(ValueError):
        Message(id=0, src=0, dst=1, created_at=0, ttl=0)


def test_ttl_boundary_inclusive():
    m = msg(ttl=60)
    assert m.is_live(60)
    assert not m.is_live(60.5)


def test_bits_lists_set_positions_ascending():
    assert bits(0) == []
    assert bits(0b101001) == [0, 3, 5]
    assert bits(1 << 600 | 1 << 64 | 1) == [0, 64, 600]


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
    _, _, missing = rank_masks(context.messages, peer_has=peer_has, now=now)
    return decide(protocol, context, peer, missing)


def test_sentinel_weight_orders_above_everything():
    buf = [msg(dst=5)]
    got = actions_of(
        Protocol.FRIENDSHIP, ctx(buf, {5: 1e308}), 9, heard(9, weights={5: MAX_WEIGHT})
    )
    assert got == [ForwardAction(0, COPY)]


def test_deliver_to_destination_for_every_protocol():
    for proto in Protocol:
        buf = [msg(dst=5)]
        got = actions_of(proto, ctx(buf), 5, heard(5))
        assert got == [ForwardAction(0, DLV)]


def test_epidemic_floods_and_respects_summary_vector():
    buf = [msg(0, dst=5), msg(1, dst=6)]
    got = actions_of(Protocol.EPIDEMIC, ctx(buf), 9, heard(9))
    assert got == [ForwardAction(0, COPY), ForwardAction(1, COPY)]
    got = actions_of(Protocol.EPIDEMIC, ctx(buf), 9, heard(9), peer_has={0, 1})
    assert got == []


def test_expired_message_generates_no_action():
    buf = [msg(created=0, ttl=5)]
    got = actions_of(Protocol.EPIDEMIC, ctx(buf), 9, heard(9), now=6.0)
    assert got == []


def test_friendship_requires_destination_friendship_and_improvement():
    buf = [msg(dst=5)]
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
    buf = [msg(dst=5)]
    context = ctx(
        buf,
        {5: 0.2},
        members={0, 3, 4},
        peer_weights={3: {5: 0.3}, 4: {5: 0.1}},
    )
    got = actions_of(Protocol.PROPOSED_I, context, 9, heard(9, weights={5: 0.5}))
    assert got == [ForwardAction(0, FAD)]


def test_better_relay_only_copied_when_a_member_matches_it():
    buf = [msg(dst=5)]
    context = ctx(
        buf,
        {5: 0.2},
        members={0, 3},
        peer_weights={3: {5: 0.5}},  # ties block the strict-max deletion
    )
    got = actions_of(Protocol.PROPOSED_I, context, 9, heard(9, weights={5: 0.5}))
    assert got == [ForwardAction(0, COPY)]


def test_delete_check_is_vacuous_with_empty_network():
    buf = [msg(dst=5)]
    context = ctx(buf, {5: 0.0}, members={0})
    got = actions_of(Protocol.PROPOSED_I, context, 9, heard(9, weights={5: 0.5}))
    assert got == [ForwardAction(0, FAD)]


def test_contacted_peer_is_excluded_from_the_deletion_maximum():
    buf = [msg(dst=5)]
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
    buf = [msg(dst=5)]
    context = ctx(buf, {5: 0.5}, cb=1, ceb=9)
    got = actions_of(
        Protocol.PROPOSED_I, context, 9, heard(9, cb=4, ceb=2, weights={5: 0.2})
    )
    assert got == [ForwardAction(0, COPY)]


def test_centrality_fallback_uses_endpoint_betweenness():
    buf = [msg(dst=5)]
    context = ctx(buf, {5: 0.5}, cb=9, ceb=1)
    got = actions_of(
        Protocol.PROPOSED_II, context, 9, heard(9, cb=2, ceb=4, weights={5: 0.2})
    )
    assert got == [ForwardAction(0, COPY)]


def test_divergence_between_proposed_variants():
    buf = [msg(dst=5)]
    context = ctx(buf, {5: 0.5}, cb=3, ceb=5)
    h = heard(9, cb=2, ceb=6, weights={5: 0.2})
    assert actions_of(Protocol.PROPOSED_I, context, 9, h) == []
    assert actions_of(Protocol.PROPOSED_II, context, 9, h) == [ForwardAction(0, COPY)]


def test_all_ties_produce_no_action():
    buf = [msg(dst=5)]
    context = ctx(buf, {5: 0.5}, cb=3, ceb=3)
    h = heard(9, cb=3, ceb=3, weights={5: 0.5})
    for proto in (Protocol.FRIENDSHIP, Protocol.PROPOSED_I, Protocol.PROPOSED_II):
        assert actions_of(proto, context, 9, h) == []


def test_zero_weights_and_no_hello_block_proposed_forwarding():
    buf = [msg(dst=5)]
    context = ctx(buf, {}, cb=0, ceb=0)
    assert actions_of(Protocol.PROPOSED_I, context, 9, None) == []
    assert actions_of(Protocol.PROPOSED_I, context, 9, heard(9)) == []


def test_sentinel_advertisement_beats_every_finite_weight():
    buf = [msg(dst=5)]
    context = ctx(buf, {5: 0.99}, members={0, 3}, peer_weights={3: {5: 123.0}})
    got = actions_of(
        Protocol.PROPOSED_I, context, 9, heard(9, weights={5: MAX_WEIGHT})
    )
    assert got == [ForwardAction(0, FAD)]


def test_actions_are_ordered_by_message_id():
    buf = [msg(mid, dst=5) for mid in (4, 1, 3)]
    got = actions_of(Protocol.EPIDEMIC, ctx(buf), 9, heard(9))
    assert [a.message_id for a in got] == [1, 3, 4]


def test_variants_agree_when_centrality_signs_agree():
    rng = random.Random(31)
    for _ in range(200):
        buf = [msg(dst=5)]
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
