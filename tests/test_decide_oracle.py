"""Differential test: ``routing.decide`` against a per-message reference.

``reference_decide`` is the forwarding decision written message by message:
it walks the whole buffer in id order and evaluates every condition for each
message.  ``routing.decide`` reaches one verdict per destination over the
mask of the live messages the peer lacks (the engine leaves dead ones out
of that mask, and so does each call here), and visits only the destinations
that can act; both must return the same list for every protocol on every
input, given non-negative weights.  Both read the peer's advertised weights
and centralities from the context's caches.
"""

import math
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from dtnsim.contacts import MAX_WEIGHT
from dtnsim.routing import (
    Action,
    ForwardAction,
    Message,
    Protocol,
    RelayContext,
    _exceeds,
    decide,
)
from dtnsim.social import PeerRecord
from test_routing import NODES as NODE_COUNT, rank_masks

NODES = range(NODE_COUNT)
NOW = 100.0
THRESHOLD = 0.01


def _reference_beats_whole_network(ctx, peer, dest, w_peer):
    for member in ctx.members:
        if member == ctx.node or member == peer:
            continue
        cached = ctx.peer_weights.get(member, {}).get(dest, 0.0)
        if not w_peer > cached:
            return False
    return True


def reference_decide(protocol, ctx, peer, buffered, peer_has, now):
    """Per-message forwarding decision, every condition for every message
    of ``ctx.messages`` whose id is ``buffered``."""
    # a peer never heard from has no weights and centralities 0
    record = ctx.peer_centrality.get(peer, PeerRecord(0, 0))
    more_central = False
    if protocol is Protocol.PROPOSED_I:
        more_central = record.cb > ctx.own_cb
    elif protocol is Protocol.PROPOSED_II:
        more_central = record.ceb > ctx.own_ceb
    actions = []
    for m in sorted(ctx.messages, key=lambda m: m.id):
        if m.id not in buffered or not m.is_live(now) or m.id in peer_has:
            continue
        dest = m.dst
        if dest == peer:
            actions.append(ForwardAction(m.id, Action.DELIVER))
            continue
        if protocol is Protocol.EPIDEMIC:
            actions.append(ForwardAction(m.id, Action.COPY))
            continue
        w_peer = ctx.peer_weights.get(peer, {}).get(dest, 0.0)
        w_own = ctx.own_weights.get(dest, 0.0)
        if protocol is Protocol.FRIENDSHIP:
            if w_peer > ctx.threshold and w_peer > w_own:
                actions.append(ForwardAction(m.id, Action.COPY))
            continue
        if w_peer > w_own:
            if _reference_beats_whole_network(ctx, peer, dest, w_peer):
                actions.append(ForwardAction(m.id, Action.FORWARD_AND_DELETE))
            else:
                actions.append(ForwardAction(m.id, Action.COPY))
        elif more_central:
            actions.append(ForwardAction(m.id, Action.COPY))
    return actions


centralities = st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1), Fraction(7, 3)])
random_weight = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def weight_toward(dest, own):
    """A non-negative weight: 0, the threshold, a tie with ``own``, the
    sentinel or a random value."""
    return st.one_of(
        st.just(0.0),
        st.just(THRESHOLD),
        st.just(own.get(dest, 0.0)),
        st.just(MAX_WEIGHT),
        random_weight,
    )


@st.composite
def weight_map(draw, own):
    dests = draw(st.sets(st.sampled_from(NODES)))
    return {d: draw(weight_toward(d, own)) for d in sorted(dests)}


@st.composite
def contacts(draw):
    """One directed contact: the node's context, the peer, the ids the node
    buffers and the ids the peer holds."""
    node, peer = draw(st.lists(st.sampled_from(NODES), min_size=2, max_size=2, unique=True))
    # the workload: the node buffers some of it; destinations lean toward the peer
    workload = []
    for mid in draw(st.lists(st.integers(0, 59), max_size=30, unique=True)):
        dst = draw(st.one_of(st.just(peer), st.sampled_from(NODES)))
        src = draw(st.sampled_from([n for n in NODES if n != dst]))
        ttl = draw(st.sampled_from([30.0, 60.0]))
        # ages straddle ``now - created == ttl``
        created = NOW - ttl + draw(st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0, -ttl]))
        workload.append(Message(id=mid, src=src, dst=dst, created_at=created, ttl=ttl))
    buffered = draw(st.sets(st.sampled_from([m.id for m in workload]))) if workload else set()
    # ids held by the peer, some buffered here and some not
    peer_has = draw(st.sets(st.integers(0, 69)))
    own = {d: draw(st.one_of(st.just(0.0), st.just(THRESHOLD), random_weight)) for d in NODES}
    members = draw(st.sets(st.sampled_from(NODES)))
    # peers whose hello the node cached; at times not the contacted one
    heard = members | {peer} if draw(st.booleans()) else members - {peer}
    messages, toward, _ = rank_masks(workload)
    ctx = RelayContext(
        node=node,
        messages=messages,
        toward=toward,
        own_weights=own,
        own_cb=draw(centralities),
        own_ceb=draw(centralities),
        members=members,
        peer_weights={x: draw(weight_map(own)) for x in sorted(heard)},
        peer_centrality={
            x: PeerRecord(draw(centralities), draw(centralities)) for x in sorted(heard)
        },
        threshold=THRESHOLD,
    )
    return ctx, peer, buffered, peer_has


def message(mid, dst, created=NOW - 10.0, ttl=30.0):
    return Message(id=mid, src=0 if dst else 1, dst=dst, created_at=created, ttl=ttl)


def written_contact(workload, buffered, peer_weights, peer_record, peer=9):
    """A hand-written contact of node 0 with ``peer`` (see :func:`contacts`)."""
    messages, toward, _ = rank_masks(workload)
    ctx = RelayContext(
        node=0,
        messages=messages,
        toward=toward,
        own_weights={5: 0.2},
        own_cb=Fraction(1),
        own_ceb=Fraction(1),
        members={0, 3},
        peer_weights={peer: peer_weights, 3: {5: 0.1}},
        peer_centrality={peer: peer_record},
        threshold=THRESHOLD,
    )
    return ctx, peer, buffered, set()


WORKLOAD = [
    message(0, 5),
    message(1, 9),  # toward the peer itself
    message(2, 5, created=NOW - 40.0),  # dead at NOW
    message(3, 6),
    message(4, 7),  # not buffered, though the peer advertises 7
]
#: the peer advertises destinations the node holds nothing for (7, 8) and a
#: weight of exactly 0.0 (6); with the peer less central the fallback is off
ADVERT = {5: 0.5, 6: 0.0, 7: 0.9, 8: 0.4}


@settings(max_examples=200)
@example(written_contact(WORKLOAD, {0, 1, 2, 3}, ADVERT, PeerRecord(Fraction(0), Fraction(0))))
@example(written_contact(WORKLOAD, {0, 1, 2, 3}, ADVERT, PeerRecord(Fraction(2), Fraction(2))))
@example(written_contact(WORKLOAD, {0, 1, 2, 3}, {}, PeerRecord(Fraction(0), Fraction(0))))
@example(written_contact(WORKLOAD, set(), ADVERT, PeerRecord(Fraction(2), Fraction(2))))
@given(contacts())
def test_decide_matches_the_per_message_reference(contact):
    ctx, peer, buffered, peer_has = contact
    _, _, missing = rank_masks(ctx.messages, buffered, peer_has, NOW)
    for protocol in Protocol:
        expected = reference_decide(protocol, ctx, peer, buffered, peer_has, NOW)
        assert decide(protocol, ctx, peer, missing) == expected


@settings(max_examples=50)
@given(st.lists(contacts(), min_size=2, max_size=4))
def test_consecutive_calls_share_no_verdicts(contacts_in_turn):
    # the same buffer seen by several peers in a row, as in one tick
    first, _, buffered, _ = contacts_in_turn[0]
    for ctx, peer, _, peer_has in contacts_in_turn:
        ctx.messages, ctx.toward = first.messages, first.toward
        _, _, missing = rank_masks(ctx.messages, buffered, peer_has, NOW)
        for protocol in Protocol:
            expected = reference_decide(protocol, ctx, peer, buffered, peer_has, NOW)
            assert decide(protocol, ctx, peer, missing) == expected


rationals = st.builds(Fraction, st.integers(0, 10**40), st.integers(1, 10**40))


@given(
    value=st.floats(min_value=0.0, max_value=1e300),
    other=rationals,
    nudge=st.integers(1, 2**64),
)
@example(value=0.0, other=Fraction(0), nudge=1)
@example(value=1.0, other=Fraction(1), nudge=1)
def test_exceeds_is_the_exact_fraction_comparison(value, other, nudge):
    # the centrality fallback's comparison: ties, zeros, and distinct
    # rationals that round to the same float all compare as Fraction does
    exact = Fraction(value)
    # less than half an ulp above an exact float still rounds to it
    close = exact + Fraction(math.ulp(value)) / (2 * nudge + 1)
    assert close != exact and float(close) == value
    for a in (exact, close, other, Fraction(0), 0):
        for b in (exact, close, other, Fraction(0), 0):
            assert _exceeds(a, b) == (a > b), (a, b)
    # a float on either side compares as it is
    for a, b in ((value, close), (close, value), (value, exact), (exact, value)):
        assert _exceeds(a, b) == (a > b), (a, b)
