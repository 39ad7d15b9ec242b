from collections import deque

import pytest

from dtnsim.contacts import ContactWindow
from dtnsim.graph import SocialGraph, betweenness, endpoint_betweenness
from dtnsim.social import HelloPayload, PeerRecord, SocialNetworkView

TH = 0.01


def strong_window(peer, start=0, end=550):
    """A 600 s window whose weight is far above the 0.01 threshold."""
    w = ContactWindow(peer, 600)
    w.record_encounter(start)
    if end is not None:
        w.record_departure(end)
    return w


def weak_window(peer):
    """No recorded contact survives the window: weight 1/300 < threshold."""
    return ContactWindow(peer, 600)


def weights_at(now, windows):
    """Each window's link weight at ``now``: what ``maintain`` reads."""
    return {j: w.link_weight(now) for j, w in windows.items()}


def hello(sender, neighbors=(), cb=0, ceb=0, weights=None):
    return HelloPayload(
        sender=sender,
        neighbor_list=frozenset(neighbors),
        record=PeerRecord(cb, ceb),
        link_weights=weights or {},
    )


def hop_distance(graph: SocialGraph, src, dst):
    seen = {src: 0}
    queue = deque([src])
    while queue:
        v = queue.popleft()
        if v == dst:
            return seen[v]
        for w in graph.neighbors(v):
            if w not in seen:
                seen[w] = seen[v] + 1
                queue.append(w)
    return None


# -- payload invariants ---------------------------------------------------------


def test_payload_rejects_self_in_neighbor_list():
    with pytest.raises(ValueError):
        HelloPayload(sender=1, neighbor_list=frozenset({1, 2}))


# -- apply_hello -----------------------------------------------------------------


def test_apply_hello_reports_a_changed_advertisement():
    view = SocialNetworkView(0)
    assert view.apply_hello(hello(1, neighbors={2}))  # new sender
    # same neighbor list: centralities and weights refresh, nothing to maintain
    assert not view.apply_hello(hello(1, neighbors={2}, cb=5, weights={2: 0.5}))
    assert view.peer_centrality[1].cb == 5
    assert view.apply_hello(hello(1, neighbors={2, 3}))
    # an evicted friend's advertisement is dropped, so its next hello is new
    view.maintain(3, threshold=TH, weights={1: 1.0})
    view.maintain(4, threshold=TH, weights={1: 0.0})
    assert view.apply_hello(hello(1, neighbors={2, 3}))


def test_apply_hello_caches_centralities_and_weights():
    view = SocialNetworkView(0)
    view.apply_hello(hello(1, cb=2.5, ceb=4.0, weights={7: 0.3}))
    record = view.peer_centrality[1]
    assert (record.cb, record.ceb) == (2.5, 4.0)
    assert view.peer_weights[1] == {7: 0.3}
    # does not touch the graph
    assert set(view.graph.vertices) == {0}


def test_apply_hello_last_writer_wins():
    view = SocialNetworkView(0)
    view.apply_hello(hello(1, cb=1))
    view.apply_hello(hello(1, cb=9))
    assert view.peer_centrality[1].cb == 9


def test_apply_hello_from_unknown_node_is_cached():
    view = SocialNetworkView(0)
    view.apply_hello(hello(42, neighbors={3}))
    view.maintain(600, threshold=TH, weights=weights_at(600, {42: strong_window(42)}))
    assert 42 in view.graph.vertices
    assert 3 in view.graph.vertices


# -- maintain --------------------------------------------------------------------


def test_add_friend_and_merge_advertised_neighbors():
    view = SocialNetworkView(0)
    win = ContactWindow(1, 10)
    win.record_encounter(4)
    win.record_departure(6)
    view.apply_hello(hello(1, neighbors={2}))
    view.maintain(10, threshold=TH, weights=weights_at(10, {1: win}))
    assert set(view.graph.vertices) == {0, 1, 2}
    assert sorted(view.graph.edges()) == [(0, 1), (1, 2)]


def test_losing_friend_removes_learned_neighborhood():
    view = SocialNetworkView(0)
    view.apply_hello(hello(1, neighbors={2}))
    view.maintain(600, threshold=TH, weights=weights_at(600, {1: strong_window(1)}))
    assert set(view.graph.vertices) == {0, 1, 2}
    view.maintain(1600, threshold=TH, weights=weights_at(1600, {1: weak_window(1)}))
    assert set(view.graph.vertices) == {0}
    assert view.graph.edge_count() == 0


def test_threshold_boundary_does_not_create_edge():
    view = SocialNetworkView(0)
    win = ContactWindow(1, 600)
    for t in (200, 400):
        win.record_encounter(t)
        win.record_departure(t)
    assert win.link_weight(600) == TH
    view.maintain(600, threshold=TH, weights=weights_at(600, {1: win}))
    assert set(view.graph.vertices) == {0}


def test_shared_two_hop_vertex_survives_single_removal():
    view = SocialNetworkView(0)
    view.apply_hello(hello(1, neighbors={9}))
    view.apply_hello(hello(2, neighbors={9}))
    windows = {1: strong_window(1), 2: strong_window(2)}
    view.maintain(600, threshold=TH, weights=weights_at(600, windows))
    assert set(view.graph.vertices) == {0, 1, 2, 9}
    # friend 1 decays; 9 is still vouched for by friend 2
    view.maintain(
        1600,
        threshold=TH,
        weights=weights_at(1600, {1: weak_window(1), 2: strong_window(2, 1000, 1550)}),
    )
    assert set(view.graph.vertices) == {0, 2, 9}
    assert sorted(view.graph.edges()) == [(0, 2), (2, 9)]


def test_two_hop_vertex_that_is_own_friend_survives():
    view = SocialNetworkView(0)
    view.apply_hello(hello(1, neighbors={2}))
    windows = {1: strong_window(1), 2: strong_window(2)}
    view.maintain(600, threshold=TH, weights=weights_at(600, windows))
    assert sorted(view.graph.edges()) == [(0, 1), (0, 2), (1, 2)]
    view.maintain(
        1600,
        threshold=TH,
        weights=weights_at(1600, {1: weak_window(1), 2: strong_window(2, 1000, 1550)}),
    )
    assert set(view.graph.vertices) == {0, 2}
    assert sorted(view.graph.edges()) == [(0, 2)]


def test_maintain_is_idempotent():
    view = SocialNetworkView(0)
    view.apply_hello(hello(1, neighbors={2, 3}))
    view.apply_hello(hello(4, neighbors={3}))
    windows = {1: strong_window(1), 4: strong_window(4), 5: weak_window(5)}
    changed = view.maintain(600, threshold=TH, weights=weights_at(600, windows))
    assert changed
    snapshot = view.graph.copy()
    changed = view.maintain(600, threshold=TH, weights=weights_at(600, windows))
    assert not changed
    assert view.graph == snapshot


def test_add_then_remove_restores_single_vertex_view():
    view = SocialNetworkView(0)
    view.apply_hello(hello(3, neighbors={8, 9}))
    view.maintain(600, threshold=TH, weights=weights_at(600, {3: strong_window(3)}))
    assert len(view.graph.vertices) == 4
    view.maintain(1600, threshold=TH, weights=weights_at(1600, {3: weak_window(3)}))
    assert set(view.graph.vertices) == {0}


def test_every_vertex_within_two_hops_after_maintain():
    view = SocialNetworkView(0)
    view.apply_hello(hello(1, neighbors={2, 3}))
    view.apply_hello(hello(2, neighbors={4}))
    view.apply_hello(hello(9, neighbors={1}))
    windows = {1: strong_window(1), 2: strong_window(2), 9: weak_window(9)}
    view.maintain(600, threshold=TH, weights=weights_at(600, windows))
    for v in view.graph.vertices:
        dist = hop_distance(view.graph, 0, v)
        assert dist is not None and dist <= 2


def test_threshold_consistency_of_one_hop_set():
    view = SocialNetworkView(0)
    windows = {
        1: strong_window(1),
        2: weak_window(2),
        3: strong_window(3),
    }
    view.maintain(600, threshold=TH, weights=weights_at(600, windows))
    friends = {
        j for j, w in windows.items() if w.link_weight(600) > TH
    }
    assert view.graph.neighbors(0) == friends


def test_maintain_accepts_precomputed_weights():
    view = SocialNetworkView(0)
    view.apply_hello(hello(5, neighbors={6}))
    view.maintain(7, threshold=TH, weights={5: 0.62})
    assert sorted(view.graph.edges()) == [(0, 5), (5, 6)]
    with pytest.raises(TypeError):  # weights are required
        SocialNetworkView(1).maintain(0, threshold=TH)


# -- self centrality and hello building -------------------------------------------


def test_my_centrality_isolated_and_interior():
    view = SocialNetworkView(0)
    assert view.my_centrality() == (0, 0)
    # owner interior on path 1-0-2
    view.maintain(0, threshold=TH, weights={1: 1.0, 2: 1.0})
    assert view.my_centrality() == (1, 3)


def test_my_centrality_star_owner():
    view = SocialNetworkView(0)
    view.maintain(0, threshold=TH, weights={1: 1.0, 2: 1.0, 3: 1.0})
    assert view.my_centrality() == (3, 6)


def test_make_hello_reports_friends_and_centrality():
    view = SocialNetworkView(0)
    empty = view.make_hello()
    assert empty.neighbor_list == frozenset()
    assert empty.record == PeerRecord(0, 0)
    view.maintain(0, threshold=TH, weights={1: 1.0, 2: 1.0, 3: 1.0})
    weights = {1: 1.0, 2: 1.0, 3: 1.0}
    payload = view.make_hello(link_weights=weights)
    assert payload.sender == 0
    assert payload.neighbor_list == frozenset({1, 2, 3})
    assert payload.record == PeerRecord(3, 6)
    # held as it is, not copied: a sender may refresh it as a standing handle
    assert payload.link_weights is weights
    assert view.make_hello({}).link_weights == {}


def test_centrality_cache_tracks_graph_changes():
    view = SocialNetworkView(0)
    view.maintain(0, threshold=TH, weights={1: 1.0, 2: 1.0})
    assert view.my_centrality() == (1, 3)
    view.maintain(10, threshold=TH, weights={1: 1.0, 2: 0.0})
    assert view.my_centrality() == (0, 1)


def test_my_centrality_endpoint_value_matches_brandes():
    # ceb is derived from cb plus the owner's reach; check it against the
    # endpoint-biased Brandes pass on views of several shapes
    view = SocialNetworkView(0)
    advertised = {1: {4, 5}, 2: {5}, 3: set()}
    for peer, neighbors in advertised.items():
        view.apply_hello(hello(peer, neighbors=neighbors))
    for weights in ({1: 1.0}, {1: 1.0, 2: 1.0}, {1: 1.0, 2: 1.0, 3: 1.0}, {2: 1.0, 3: 1.0}):
        view.maintain(0, threshold=TH, weights={1: 0.0, 2: 0.0, 3: 0.0, **weights})
        cb, ceb = view.my_centrality()
        assert cb == betweenness(view.graph)[0]
        assert ceb == endpoint_betweenness(view.graph)[0]
