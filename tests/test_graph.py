import random
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import example, given, settings, strategies as st

from dtnsim.graph import (
    NodeId,
    SocialGraph,
    UnknownVertexError,
    _path_counts,
    betweenness,
    ego_centrality,
    endpoint_betweenness,
    expanded_ego_betweenness,
    extract_expanded_ego,
)


def betweenness_by_enumeration(
    g: SocialGraph, include_endpoints: bool = False
) -> dict[NodeId, Fraction]:
    """Brute-force oracle: explicitly enumerate every shortest path.

    Exponential in the worst case; intended for validating the accumulation
    implementation on small graphs.
    """
    score: dict[NodeId, Fraction] = {v: Fraction(0) for v in g.vertices}
    verts = sorted(g.vertices)
    for i, s in enumerate(verts):
        dist, _ = _path_counts(g._adj, s)
        for t in verts[i + 1 :]:
            if t not in dist:
                continue
            paths: list[list[NodeId]] = []

            def _back(v: NodeId, tail: list[NodeId]) -> None:
                if v == s:
                    paths.append([s] + tail)
                    return
                # v's predecessors: its neighbours one level nearer s
                for p in g.neighbors(v):
                    if dist[p] == dist[v] - 1:
                        _back(p, [v] + tail)

            _back(t, [])
            share = Fraction(1, len(paths))
            for path in paths:
                members = path if include_endpoints else path[1:-1]
                for v in members:
                    score[v] += share
    return score


def complete_graph(n):
    return SocialGraph(edges=[(i, j) for i in range(n) for j in range(i + 1, n)])


def random_graph(rng, n, p):
    g = SocialGraph(vertices=range(n))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                g.add_edge(i, j)
    return g


def all_connected_graphs(n):
    """Every labeled connected graph on n vertices."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for mask in range(2 ** len(pairs)):
        edges = [e for bit, e in enumerate(pairs) if mask >> bit & 1]
        g = SocialGraph(vertices=range(n), edges=edges)
        if n == 1 or len(g.reachable_from(0)) == n - 1:
            yield g


# -- graph type ----------------------------------------------------------------


def test_neighbors_basic():
    g = SocialGraph(edges=[(0, 1), (1, 2)])
    assert g.neighbors(1) == {0, 2}
    g.add_vertex(9)
    assert g.neighbors(9) == set()
    k4 = complete_graph(4)
    assert k4.neighbors(0) == {1, 2, 3}


def test_unknown_vertex_errors():
    g = SocialGraph(edges=[(0, 1)])
    with pytest.raises(UnknownVertexError):
        g.neighbors(7)
    with pytest.raises(UnknownVertexError):
        extract_expanded_ego(g, 7)
    with pytest.raises(UnknownVertexError):
        g.reachable_from(7)


def test_no_self_loops_or_duplicates():
    g = SocialGraph()
    with pytest.raises(ValueError):
        g.add_edge(3, 3)
    assert g.add_edge(0, 1)
    assert not g.add_edge(1, 0)
    assert g.edge_count() == 1


def test_remove_vertex_drops_incident_edges():
    g = SocialGraph(edges=[(0, 1), (1, 2), (2, 0)])
    g.remove_vertex(1)
    assert sorted(g.edges()) == [(0, 2)]
    assert 1 not in g.vertices


# -- betweenness ----------------------------------------------------------------


def test_path_graph_values():
    g = SocialGraph(edges=[(0, 1), (1, 2)])
    cb = betweenness(g)
    assert cb == {0: 0, 1: 1, 2: 0}
    ceb = endpoint_betweenness(g)
    assert ceb == {0: 2, 1: 3, 2: 2}


def test_star_and_cycle_values():
    star = SocialGraph(edges=[(0, 1), (0, 2), (0, 3)])
    cb = betweenness(star)
    assert cb[0] == 3 and cb[1] == cb[2] == cb[3] == 0
    cycle = SocialGraph(edges=[(0, 1), (1, 2), (2, 3), (3, 0)])
    assert betweenness(cycle) == {i: Fraction(1, 2) for i in range(4)}


def test_complete_graph_endpoint_scores():
    k4 = complete_graph(4)
    assert betweenness(k4) == {i: 0 for i in range(4)}
    assert endpoint_betweenness(k4) == {i: 3 for i in range(4)}


def test_disconnected_pairs_contribute_nothing():
    g = SocialGraph(edges=[(0, 1), (1, 2), (3, 4)])
    cb = betweenness(g)
    assert cb[1] == 1 and cb[3] == cb[4] == 0
    ceb = endpoint_betweenness(g)
    assert ceb[3] == 1 and ceb[4] == 1  # only each other reachable


def test_matches_enumeration_oracle_exhaustive_small():
    for n in range(1, 5):
        for g in all_connected_graphs(n):
            assert betweenness(g) == betweenness_by_enumeration(g)
            assert endpoint_betweenness(g) == betweenness_by_enumeration(
                g, include_endpoints=True
            )


def test_matches_enumeration_oracle_random():
    rng = random.Random(1234)
    for _ in range(50):
        n = rng.randint(1, 6)
        g = random_graph(rng, n, rng.uniform(0.1, 0.9))
        assert betweenness(g) == betweenness_by_enumeration(g)
        assert endpoint_betweenness(g) == betweenness_by_enumeration(
            g, include_endpoints=True
        )


def test_matches_networkx_oracle_random():
    rng = random.Random(2024)
    for _ in range(60):
        n = rng.randint(1, 15)
        g = random_graph(rng, n, rng.uniform(0.05, 0.7))
        G = nx.Graph()
        G.add_nodes_from(g.vertices)
        G.add_edges_from(g.edges())
        for ours, endpoints in ((betweenness(g), False), (endpoint_betweenness(g), True)):
            theirs = nx.betweenness_centrality(G, normalized=False, endpoints=endpoints)
            assert set(ours) == set(theirs)
            for v, score in ours.items():
                assert abs(float(score) - theirs[v]) <= 1e-9, (v, endpoints)


def test_endpoint_relation_is_exact():
    rng = random.Random(99)
    for _ in range(40):
        n = rng.randint(2, 25)
        g = random_graph(rng, n, rng.uniform(0.05, 0.5))
        cb = betweenness(g)
        ceb = endpoint_betweenness(g)
        for v in g.vertices:
            assert ceb[v] - cb[v] == len(g.reachable_from(v))


def test_vertex_transitive_symmetry():
    for n in (3, 5, 8):
        cycle = SocialGraph(edges=[(i, (i + 1) % n) for i in range(n)])
        assert len(set(betweenness(cycle).values())) == 1
        assert len(set(endpoint_betweenness(cycle).values())) == 1
        kn = complete_graph(n)
        assert len(set(betweenness(kn).values())) == 1


def test_scores_nonnegative_and_isolated_vertex_invariance():
    rng = random.Random(5)
    for _ in range(20):
        g = random_graph(rng, rng.randint(2, 12), 0.3)
        cb = betweenness(g)
        assert all(v >= 0 for v in cb.values())
        extended = g.copy()
        extended.add_vertex(999)
        cb2 = betweenness(extended)
        assert all(cb2[v] == cb[v] for v in g.vertices)
        assert cb2[999] == 0


# -- owner-only centrality -------------------------------------------------------


@st.composite
def graphs_with_owner(draw):
    """A graph of 1-25 vertices, often disconnected, and one of its vertices."""
    n = draw(st.integers(1, 25))
    p = draw(st.sampled_from([0.0, 0.05, 0.1, 0.2, 0.4, 0.8, 1.0]))
    g = random_graph(random.Random(draw(st.integers(0, 2**32 - 1))), n, p)
    return g, draw(st.integers(0, n - 1))


@settings(max_examples=200)
@given(graphs_with_owner())
@example((SocialGraph(vertices=[0]), 0))
@example((SocialGraph(vertices=range(4), edges=[(0, 1), (2, 3)]), 1))
def test_ego_centrality_matches_brandes_and_networkx(case):
    g, o = case
    cb, ceb = ego_centrality(g, o)
    assert type(cb) is Fraction and type(ceb) is Fraction
    assert (cb, ceb) == (betweenness(g)[o], endpoint_betweenness(g)[o])
    G = nx.Graph()
    G.add_nodes_from(g.vertices)
    G.add_edges_from(g.edges())
    plain = nx.betweenness_centrality(G, normalized=False)[o]
    endpoint = nx.betweenness_centrality(G, normalized=False, endpoints=True)[o]
    assert abs(float(cb) - plain) <= 1e-9
    assert abs(float(ceb) - endpoint) <= 1e-9


def test_ego_centrality_unknown_vertex():
    with pytest.raises(UnknownVertexError):
        ego_centrality(SocialGraph(edges=[(0, 1)]), 7)


# -- expanded ego networks -------------------------------------------------------


def test_extract_ego_on_path_covers_two_hops():
    g = SocialGraph(edges=[(0, 1), (1, 2), (2, 3), (3, 4)])
    ego = extract_expanded_ego(g, 2)
    assert ego == g  # whole path is within two hops and learnable


def test_extract_ego_isolated():
    g = SocialGraph(vertices=[5])
    ego = extract_expanded_ego(g, 5)
    assert set(ego.vertices) == {5}
    assert ego.edge_count() == 0


def test_extract_ego_includes_one_to_two_hop_edges():
    g = SocialGraph(edges=[(0, 1), (0, 2), (1, 2), (2, 3)])
    ego = extract_expanded_ego(g, 0)
    assert set(ego.vertices) == {0, 1, 2, 3}
    assert sorted(ego.edges()) == [(0, 1), (0, 2), (1, 2), (2, 3)]


def test_extract_ego_excludes_two_hop_to_two_hop_edges():
    # 0-1, 1-2, 1-3, 2-3: from ego 0, vertices 2 and 3 are both 2-hop;
    # their mutual edge is not learnable from 1's neighbor list alone.
    g = SocialGraph(edges=[(0, 1), (1, 2), (1, 3), (2, 3)])
    ego = extract_expanded_ego(g, 0)
    assert set(ego.vertices) == {0, 1, 2, 3}
    assert sorted(ego.edges()) == [(0, 1), (1, 2), (1, 3)]


def test_expanded_ego_betweenness_star():
    star = SocialGraph(edges=[(0, 1), (0, 2), (0, 3)])
    assert expanded_ego_betweenness(star, 0) == 3
    assert expanded_ego_betweenness(star, 0, endpoint_biased=True) == 6
    isolated = SocialGraph(vertices=[9])
    assert expanded_ego_betweenness(isolated, 9) == 0
    assert expanded_ego_betweenness(isolated, 9, endpoint_biased=True) == 0


def test_ego_betweenness_never_exceeds_local_information():
    # the ego network drops remote structure, so ego scores are computed
    # on the subgraph and remain finite/nonnegative
    rng = random.Random(7)
    for _ in range(10):
        g = random_graph(rng, 12, 0.25)
        for v in g.vertices:
            assert expanded_ego_betweenness(g, v) >= 0

