"""The skipping ``SocialNetworkView.maintain`` against a full pass on every call,
and the hello payload cache.

``maintain`` skips a pass that cannot change the view (see its docstring).
Over random interleavings of hellos from friends and non-friends, re-staged
advertisements, weights crossing the threshold, new peers, edits of the
graph made outside ``maintain`` and repeated calls with unchanged inputs,
it must leave what ``reference_maintain`` (a copy-and-compare pass run on
every call) leaves: the same graph (vertex order included), return value,
revision and staged advertisements.
"""

import contextlib
import io
from collections.abc import Mapping

import pytest
from hypothesis import given, settings, strategies as st

from dtnsim.engine import SimConfig, Simulation, Timeline
from dtnsim.routing import Protocol
from dtnsim.social import HelloPayload, PeerRecord, SocialNetworkView

from checked import CheckedView, checking
from test_engine import dense_config
from test_maintain_oracle import reference_maintain

OWNER = 0
NODES = range(6)
TH = 0.01

weight = st.sampled_from([0.0, TH, 0.02, 0.5])
peer = st.sampled_from(NODES)


@st.composite
def rounds(draw):
    """Hellos heard, weight changes, maybe an outside edit, then 1-3 calls.

    A hello's neighbour list of None re-sends the sender's last one, which
    re-stages it if a pass dropped it.  Most rounds change no weight and
    edit nothing, so most calls after the first see unchanged inputs.
    """
    hellos = draw(
        st.lists(st.tuples(peer, st.none() | st.frozensets(peer, max_size=3)), max_size=4)
    )
    changes = draw(st.dictionaries(peer, weight, max_size=2) | st.just({}))
    edit = draw(st.just(None) | st.just(None) | st.just(None) | st.tuples(peer, peer))
    return hellos, changes, edit, draw(st.integers(1, 3))


class CountingWeights(Mapping):
    """A read-only mapping that counts how often it is read."""

    def __init__(self, weights):
        self._weights = weights
        self.reads = 0

    def __getitem__(self, j):
        self.reads += 1
        return self._weights[j]

    def __iter__(self):
        self.reads += 1
        return iter(self._weights)

    def __len__(self):
        self.reads += 1
        return len(self._weights)


def count_passes(view):
    """Wrap ``view._pass`` so the full passes it runs are counted."""
    calls = []
    full = view._pass

    def counted(*args):
        calls.append(args)
        return full(*args)

    view._pass = counted
    return calls


@settings(max_examples=300)
@given(
    initial=st.dictionaries(peer, weight),
    sequence=st.lists(rounds(), min_size=1, max_size=12),
    caller_basis=st.booleans(),
)
def test_skipping_maintain_matches_a_full_pass_on_every_call(initial, sequence, caller_basis):
    fast, slow = SocialNetworkView(OWNER), SocialNetworkView(OWNER)
    weights = dict(initial)
    sent: dict[int, frozenset] = {}
    now = 0.0
    for hellos, changes, edit, calls in sequence:
        for sender, neighbors in hellos:
            if sender == OWNER or (neighbors is None and sender not in sent):
                continue
            if neighbors is not None:
                sent[sender] = neighbors - {sender}
            payload = HelloPayload(sender=sender, neighbor_list=sent[sender])
            assert fast.apply_hello(payload) == slow.apply_hello(payload)
        weights.update(changes)
        if edit is not None:
            u, v = edit
            for view in (fast, slow):
                if u != v:
                    view.graph.add_edge(u, v)
                elif v != OWNER:
                    view.graph.remove_vertex(v)
        for _ in range(calls):
            now += 1.0
            basis = None
            if caller_basis:
                friends = frozenset(j for j, w in weights.items() if w > TH)
                basis = (frozenset(weights), friends)
            reads = CountingWeights(dict(weights))
            passes = count_passes(fast)
            got = fast.maintain(now, threshold=TH, weights=reads, basis=basis)
            want = reference_maintain(slow, now, threshold=TH, weights=dict(weights))
            assert got == want
            assert list(fast.graph._adj.items()) == list(slow.graph._adj.items())
            assert fast.revision == slow.revision
            assert fast._advertised == slow._advertised
            if caller_basis and not passes:
                assert reads.reads == 0  # a skipped pass reads no weight
            del fast._pass


def test_repeated_call_skips_and_drops_a_restaged_non_friend_advertisement():
    view = SocialNetworkView(OWNER)
    view.apply_hello(HelloPayload(sender=1, neighbor_list=frozenset({2})))
    view.apply_hello(HelloPayload(sender=3, neighbor_list=frozenset({1})))
    weights = {1: 0.5, 3: 0.5}
    assert view.maintain(0, threshold=TH, weights=weights)
    # 3 stops being a friend: evicted, its advertisement dropped
    weights = {1: 0.5, 3: 0.0}
    assert view.maintain(1, threshold=TH, weights=weights)
    assert not view.maintain(2, threshold=TH, weights=weights)
    passes = count_passes(view)
    assert not view.maintain(3, threshold=TH, weights=dict(weights))
    assert passes == []  # nothing changed: skipped
    # hellos from a non-friend outside the graph (3) and from a vertex that
    # is no peer (2) stage advertisements that the full pass would keep
    view.apply_hello(HelloPayload(sender=3, neighbor_list=frozenset({1})))
    view.apply_hello(HelloPayload(sender=2, neighbor_list=frozenset({4})))
    assert not view.maintain(4, threshold=TH, weights=weights)
    assert passes == []
    assert view._advertised == {1: frozenset({2}), 3: frozenset({1}), 2: frozenset({4})}
    # a friend's changed advertisement runs the pass
    view.apply_hello(HelloPayload(sender=1, neighbor_list=frozenset({2, 5})))
    assert view.maintain(5, threshold=TH, weights=weights)
    assert len(passes) == 1


def test_skip_pops_the_advertisement_of_an_evicted_two_hop_non_friend():
    # 2 is a peer below the threshold that friend 1 advertises, so every
    # pass adds it as 1's neighbour and then evicts it (in id order 1 < 2),
    # dropping its staged advertisement; the skip must drop it too
    view = SocialNetworkView(OWNER)
    view.apply_hello(HelloPayload(sender=1, neighbor_list=frozenset({2})))
    weights = {1: 0.5, 2: 0.0}
    assert view.maintain(0, threshold=TH, weights=weights)
    assert not view.maintain(1, threshold=TH, weights=weights)
    passes = count_passes(view)
    view.apply_hello(HelloPayload(sender=2, neighbor_list=frozenset({3})))
    assert 2 in view._advertised
    assert not view.maintain(2, threshold=TH, weights=weights)
    assert passes == [] and 2 not in view._advertised


def test_skip_never_follows_an_edit_made_outside_maintain():
    view = SocialNetworkView(OWNER)
    weights = {1: 0.5}
    assert view.maintain(0, threshold=TH, weights=weights)
    assert not view.maintain(1, threshold=TH, weights=weights)
    view.graph.add_edge(1, 6)  # 6 is vouched for by no advertisement
    passes = count_passes(view)
    assert not view.maintain(2, threshold=TH, weights=weights)
    assert len(passes) == 1
    view.graph = view.graph.copy()
    assert not view.maintain(3, threshold=TH, weights=weights)
    assert len(passes) == 2
    view.revision += 1
    assert not view.maintain(4, threshold=TH, weights=weights)
    assert len(passes) == 3
    assert not view.maintain(5, threshold=TH / 2, weights=weights)
    assert len(passes) == 4
    assert not view.maintain(6, threshold=TH / 2, weights=weights)
    assert len(passes) == 4


def test_checked_view_skips_as_shipped_and_catches_a_wrong_basis():
    view = CheckedView(OWNER)
    passes = count_passes(view)
    weights = {1: 0.5, 2: 0.0}
    assert view.maintain(0, threshold=TH, weights=weights, basis="b")
    assert not view.maintain(1, threshold=TH, weights=weights, basis="b")
    assert not view.maintain(2, threshold=TH, weights=weights, basis="b")
    assert len(passes) == 2  # the check ran the reference, not the pass, at t=2
    # a caller whose basis stays put although a friend appeared: the view
    # skips, and the reference pass it is checked against adds the friend
    with pytest.raises(AssertionError, match="returned False; a full pass returns True"):
        view.maintain(3, threshold=TH, weights={1: 0.5, 2: 0.5}, basis="b")


# -- the engine: skipped passes, the checked run, shared payload maps ---------------


#: 25 nodes in 200 x 200 m with 20 m range: friend graphs form, and views
#: see both new peers and unchanged inputs, so some passes skip and some run
SOCIAL = dict(
    node_count=25,
    arena_width=200.0,
    arena_height=200.0,
    comm_range=20.0,
    message_count=500,
    ttl=300.0,
    protocol=Protocol.PROPOSED_II,
    seed=1,
)


def social_run(checked, monkeypatch):
    """One social proposed2 run, on ``CheckedTimeline`` if ``checked``: its
    event log and the full passes per maintain."""
    counts = {"maintain": 0, "pass": 0}
    maintain, full = SocialNetworkView.maintain, SocialNetworkView._pass

    def counted_maintain(view, *args, **kwargs):
        counts["maintain"] += 1
        return maintain(view, *args, **kwargs)

    def counted_pass(view, *args):
        counts["pass"] += 1
        return full(view, *args)

    monkeypatch.setattr(SocialNetworkView, "maintain", counted_maintain)
    monkeypatch.setattr(SocialNetworkView, "_pass", counted_pass)
    log = io.StringIO()
    with checking() if checked else contextlib.nullcontext():
        Simulation(SimConfig(**SOCIAL), event_log=log).run()
    monkeypatch.undo()
    return log.getvalue(), counts


def test_engine_skips_passes_and_the_checked_run_skips_the_same(monkeypatch):
    # the checked run observes the path that ships: every call and every
    # skip are those of the unchecked run, and each is checked
    fast_log, fast = social_run(False, monkeypatch)
    checked_log, checked = social_run(True, monkeypatch)
    assert fast_log == checked_log and ",FWD," in fast_log
    assert 0 < fast["pass"] < fast["maintain"]
    assert checked == fast


def test_payload_follows_the_revision_and_stored_maps_never_change():
    view, receiver = SocialNetworkView(OWNER), SocialNetworkView(9)
    first = view.make_hello({})
    view.maintain(0, threshold=TH, weights={1: 1.0, 2: 1.0})
    before = view.make_hello({1: 1.0, 2: 1.0})
    assert before.neighbor_list == {1, 2} and before.record == PeerRecord(1, 3)
    receiver.apply_hello(before)
    stored, record = receiver.peer_weights[OWNER], receiver.peer_centrality[OWNER]
    assert record is before.record
    # same revision: the neighbour list and record are shared, the map is new
    again = view.make_hello({1: 0.5, 2: 0.7})
    assert again.neighbor_list is before.neighbor_list and again.record is before.record
    assert again.link_weights is not before.link_weights
    # a new revision: a new neighbour list and new centralities
    view.maintain(1, threshold=TH, weights={1: 1.0, 2: 1.0, 3: 1.0})
    after = view.make_hello({1: 1.0, 2: 1.0, 3: 1.0})
    assert after.neighbor_list == {1, 2, 3}
    assert view.my_centrality() == (3, 6)
    assert after.record == PeerRecord(3, 6)
    receiver.apply_hello(again)
    receiver.apply_hello(after)
    assert receiver.peer_centrality[OWNER] is after.record
    assert stored == {1: 1.0, 2: 1.0} and record == PeerRecord(1, 3)
    assert first.neighbor_list == frozenset() and first.record == PeerRecord(0, 0)
    # an edit made outside maintain reaches the next payload
    view.graph.add_edge(1, 2)
    view.graph.add_edge(OWNER, 4)
    edited = view.make_hello({})
    assert edited.neighbor_list == {1, 2, 3, 4}
    assert edited.record == PeerRecord(*view.my_centrality()) == PeerRecord(5, 9)


def test_engine_peer_weights_are_standing_handles_in_range_and_frozen_after(monkeypatch):
    # after each hello phase a receiver holds an in-range sender's standing
    # handle itself, and any other sender's weights as a copy that never
    # changes again
    frozen = []
    phase = Timeline._hello_and_maintain

    def observed(timeline, pairs, now):
        phase(timeline, pairs, now)
        in_range = set(pairs)
        for node in timeline.nodes:
            for x, weights in node.view.peer_weights.items():
                handle = timeline.nodes[x].standing
                if (min(x, node.id), max(x, node.id)) in in_range:
                    assert weights is handle, f"node {node.id} holds a copy of {x}'s at t={now}"
                else:
                    assert weights is not handle, f"node {node.id} holds {x}'s handle at t={now}"
                    frozen.append((weights, dict(weights)))

    monkeypatch.setattr(Timeline, "_hello_and_maintain", observed)
    for hello_period in (1.0, 2.0):
        Simulation(dense_config(hello_period=hello_period), event_log=io.StringIO()).run()
    assert frozen and any(copy for _, copy in frozen)
    for stored, copy in frozen:
        assert stored == copy
