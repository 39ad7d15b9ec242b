"""Undirected social graphs and the betweenness measures used for relay ranking.

Centrality scores are exact rationals (``fractions.Fraction``), so identities
like "endpoint-included minus plain betweenness equals the reachable-vertex
count" hold without floating-point slack.  A single vertex's score
(:func:`ego_centrality`) sums integer path counts and builds one
``Fraction`` at the end, so exactness costs no rational arithmetic per pair;
the all-vertex passes (:func:`betweenness`, :func:`endpoint_betweenness`)
accumulate in ``Fraction`` and serve as its oracle.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from math import lcm
from typing import Iterable, Iterator

NodeId = int


class UnknownVertexError(KeyError):
    """An operation named a vertex that is not in the graph."""


class SocialGraph:
    """Simple undirected graph: no self loops, no parallel edges.

    ``_edits`` counts the changes made through this class's methods, so a
    cache can tell whether the graph was edited since it last looked.
    """

    __slots__ = ("_adj", "_edits")

    def __init__(
        self,
        vertices: Iterable[NodeId] = (),
        edges: Iterable[tuple[NodeId, NodeId]] = (),
    ) -> None:
        self._adj: dict[NodeId, set[NodeId]] = {}
        self._edits = 0
        for v in vertices:
            self.add_vertex(v)
        for u, v in edges:
            self.add_edge(u, v)

    # -- construction ------------------------------------------------------

    def add_vertex(self, v: NodeId) -> bool:
        """Insert ``v``; returns True if it was not already present."""
        if v in self._adj:
            return False
        self._adj[v] = set()
        self._edits += 1
        return True

    def add_edge(self, u: NodeId, v: NodeId) -> bool:
        """Insert the undirected edge (u, v), adding missing endpoints.

        Returns True if the edge was new.  Self loops are rejected.
        """
        if u == v:
            raise ValueError(f"self loop at vertex {u}")
        self.add_vertex(u)
        self.add_vertex(v)
        if v in self._adj[u]:
            return False
        self._adj[u].add(v)
        self._adj[v].add(u)
        self._edits += 1
        return True

    def remove_edge(self, u: NodeId, v: NodeId) -> bool:
        """Drop the edge if present; vertices stay.  Returns True if dropped."""
        if u in self._adj and v in self._adj[u]:
            self._adj[u].discard(v)
            self._adj[v].discard(u)
            self._edits += 1
            return True
        return False

    def remove_vertex(self, v: NodeId) -> bool:
        """Drop ``v`` and every incident edge.  Returns True if dropped."""
        if v not in self._adj:
            return False
        for w in self._adj.pop(v):
            self._adj[w].discard(v)
        self._edits += 1
        return True

    # -- queries -----------------------------------------------------------

    @property
    def vertices(self):
        """Set-like view of the vertex set."""
        return self._adj.keys()

    def neighbors(self, u: NodeId) -> set[NodeId]:
        if u not in self._adj:
            raise UnknownVertexError(u)
        return set(self._adj[u])

    def degree(self, u: NodeId) -> int:
        if u not in self._adj:
            raise UnknownVertexError(u)
        return len(self._adj[u])

    def edges(self) -> Iterator[tuple[NodeId, NodeId]]:
        """Each undirected edge once, as (min, max)."""
        for u, nbrs in self._adj.items():
            for v in nbrs:
                if u < v:
                    yield (u, v)

    def edge_count(self) -> int:
        return sum(len(n) for n in self._adj.values()) // 2

    def reachable_from(self, u: NodeId) -> set[NodeId]:
        """Vertices reachable from ``u``, excluding ``u`` itself."""
        if u not in self._adj:
            raise UnknownVertexError(u)
        seen = {u}
        queue = deque([u])
        while queue:
            v = queue.popleft()
            for w in self._adj[v]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        seen.discard(u)
        return seen

    def copy(self) -> "SocialGraph":
        g = SocialGraph()
        g._adj = {v: set(nbrs) for v, nbrs in self._adj.items()}
        return g

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SocialGraph):
            return NotImplemented
        return self._adj == other._adj

    def __repr__(self) -> str:
        return (
            f"SocialGraph(vertices={sorted(self._adj)}, "
            f"edges={sorted(self.edges())})"
        )


# -- shortest-path machinery ------------------------------------------------


def _path_counts(adj: dict[NodeId, set[NodeId]], s: NodeId):
    """Level-by-level BFS from ``s``: distances and shortest-path counts.

    Both dicts list the vertices ``s`` reaches in BFS order, ``s`` first.
    """
    dist: dict[NodeId, int] = {s: 0}
    sigma: dict[NodeId, int] = {s: 1}
    frontier = [s]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for v in frontier:
            sv = sigma[v]
            for w in adj[v]:
                if w not in dist:
                    dist[w] = d
                    sigma[w] = sv
                    nxt.append(w)
                elif dist[w] == d:
                    sigma[w] += sv
        frontier = nxt
    return dist, sigma


def _brandes(g: SocialGraph, include_endpoints: bool) -> dict[NodeId, Fraction]:
    """Dependency accumulation over all sources; unordered pairs (halved).

    Walks each source's BFS order backwards; the predecessors of ``w`` are
    its neighbours one level nearer the source.
    """
    adj = g._adj
    score: dict[NodeId, Fraction] = {v: Fraction(0) for v in adj}
    for s in adj:
        dist, sigma = _path_counts(adj, s)
        delta: dict[NodeId, Fraction] = {v: Fraction(0) for v in dist}
        if include_endpoints:
            score[s] += len(dist) - 1
        for w in reversed(dist):
            d = dist[w] - 1
            for v in adj[w]:
                if dist[v] == d:
                    delta[v] += Fraction(sigma[v], sigma[w]) * (1 + delta[w])
            if w != s:
                score[w] += delta[w] + 1 if include_endpoints else delta[w]
    return {v: val / 2 for v, val in score.items()}


def betweenness(g: SocialGraph) -> dict[NodeId, Fraction]:
    """Shortest-path betweenness over unordered pairs, endpoints excluded.

    Unweighted (hop-count) paths; vertex pairs in different components
    contribute nothing.
    """
    return _brandes(g, include_endpoints=False)


def endpoint_betweenness(g: SocialGraph) -> dict[NodeId, Fraction]:
    """Betweenness variant that also credits a vertex for pairs it belongs to.

    Every shortest path trivially includes its own endpoints, so each
    mutually-reachable pair {s, t} adds exactly 1 to both s and t on top of
    the interior contributions.
    """
    return _brandes(g, include_endpoints=True)


def ego_centrality(g: SocialGraph, o: NodeId) -> tuple[Fraction, Fraction]:
    """``(betweenness(g)[o], endpoint_betweenness(g)[o])`` without scoring
    any other vertex.

    Pair-dependency form of Brandes (2001): ``o`` lies on
    ``sigma_so * sigma_ot`` of the ``sigma_st`` shortest s-t paths exactly
    when ``d(s, o) + d(o, t) == d(s, t)``.  One BFS from ``o`` and one from
    each other vertex it reaches give every distance and path count; the
    integer numerators are summed per denominator ``sigma_st``, and one
    ``Fraction`` is built at the end.  The endpoint-biased value adds one
    per vertex ``o`` reaches.
    """
    adj = g._adj
    if o not in adj:
        raise UnknownVertexError(o)
    dist_o, sigma_o = _path_counts(adj, o)
    others = list(dist_o)[1:]
    # denominator sigma_st -> summed numerators sigma_so * sigma_ot
    sums: dict[int, int] = {}
    for i, s in enumerate(others[:-1]):
        d_so, sigma_so = dist_o[s], sigma_o[s]
        dist_s, sigma_s = _path_counts(adj, s)
        for t in others[i + 1 :]:
            if d_so + dist_o[t] == dist_s[t]:
                k = sigma_s[t]
                sums[k] = sums.get(k, 0) + sigma_so * sigma_o[t]
    common = lcm(*sums)
    cb = Fraction(sum(n * (common // k) for k, n in sums.items()), common)
    return cb, cb + len(others)


# -- expanded ego networks ---------------------------------------------------


def extract_expanded_ego(g: SocialGraph, ego: NodeId) -> SocialGraph:
    """The ego, its 1-hop and 2-hop neighbours, and the edges the ego can learn.

    Included edges are those incident to a 1-hop neighbour (ego-to-friend and
    friend-to-anything).  Edges joining two 2-hop vertices are excluded: they
    never appear in any direct neighbour's advertised adjacency.
    """
    if ego not in g.vertices:
        raise UnknownVertexError(ego)
    out = SocialGraph(vertices=[ego])
    for j in g.neighbors(ego):
        out.add_edge(ego, j)
        for k in g.neighbors(j):
            if k != ego:
                out.add_edge(j, k)
    return out


def expanded_ego_betweenness(
    g: SocialGraph, ego: NodeId, endpoint_biased: bool = False
) -> Fraction:
    """The ego's betweenness computed on its own expanded ego network."""
    cb, ceb = ego_centrality(extract_expanded_ego(g, ego), ego)
    return ceb if endpoint_biased else cb
