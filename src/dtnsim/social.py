"""Per-node distributed social-network views built from hello exchange.

Each node keeps a local graph of its friends (peers whose link weight clears
the threshold) plus whatever adjacency those friends advertised in their
hello messages.  That local graph is, by construction, the node's expanded
ego network, so self-centrality is computed on it directly.

Hello payloads also piggyback the sender's self-computed centralities and
its above-threshold link weights; the routing conditions need both and the
hello is the only channel a DTN node has.

A view redoes only what its inputs changed: the neighbour list and
centralities of its payloads are built once per revision, and a maintain
pass that cannot change the graph is skipped (see ``maintain``).

Hellos stand while a pair stays in range.  A payload's weight map is stored
as it is, so a sender may pass a standing handle: one map of its own that
it refreshes in place once per hello tick, which every in-range receiver
holds as ``peer_weights[sender]``.  The engine (see
:mod:`dtnsim.engine`) calls :meth:`~SocialNetworkView.apply_hello` only
when a pair starts, when the sender's payload changes, or when ``maintain``
dropped the receiver's staged advertisement of a sender still in range;
every other hello would change nothing.  When the pair leaves range the
receiver's handle is replaced by a copy, frozen at the sender's last hello.
So ``peer_weights`` values may be live handles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, NamedTuple

from dtnsim.graph import NodeId, SocialGraph, ego_centrality


@dataclass(frozen=True)
class PeerRecord:
    """Last centrality values heard from a peer."""

    cb: Fraction | float
    ceb: Fraction | float


@dataclass(slots=True)
class HelloPayload:
    """What a node broadcasts: who it is friends with and how central it is.

    Every receiver stores ``link_weights`` and ``record`` as they are, so
    both are shared by the payload and the views that heard it.  Only their
    sender may change ``link_weights``: a standing handle is refreshed in
    place (see the module docstring); a record is never changed.
    """

    sender: NodeId
    neighbor_list: frozenset[NodeId]
    #: the sender's self-computed centralities
    record: PeerRecord = PeerRecord(0, 0)
    #: sender's link weights, restricted to peers above the friend threshold
    link_weights: Mapping[NodeId, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.sender in self.neighbor_list:
            raise ValueError("sender must not appear in its own neighbor list")


class _Pass(NamedTuple):
    """What a ``maintain`` pass that changed nothing saw: a later call that
    sees the same may skip its pass."""

    threshold: float
    basis: object
    revision: int
    graph: SocialGraph
    edits: int
    friends: set[NodeId]
    #: non-friends it evicted, whose staged advertisements it popped
    evicted: list[NodeId]


class SocialNetworkView:
    """A node's locally maintained social network and peer caches."""

    def __init__(self, owner: NodeId) -> None:
        self.owner = owner
        self.graph = SocialGraph(vertices=[owner])
        self.peer_centrality: dict[NodeId, PeerRecord] = {}
        #: each peer's last advertised weights: the hello payload's own map,
        #: shared with every view that heard it; while the peer is in range
        #: it may be the peer's standing handle (see the module docstring)
        self.peer_weights: dict[NodeId, Mapping[NodeId, float]] = {}
        # last advertised neighbor list per peer; staged for the next maintain
        self._advertised: dict[NodeId, frozenset[NodeId]] = {}
        # senders whose staged advertisement changed since the last maintain
        self._restaged: set[NodeId] = set()
        self.revision = 0
        # (stamp, (cb, ceb)) and (stamp, neighbor list, record) as last built
        self._centrality_cache: tuple[tuple, tuple[Fraction, Fraction]] | None = None
        self._hello: tuple[tuple, frozenset[NodeId], PeerRecord] | None = None
        self._last_pass: _Pass | None = None

    # -- hello handling ------------------------------------------------------

    def apply_hello(self, payload: HelloPayload) -> bool:
        """Cache a received hello.  Does not touch the graph; maintain does.

        Stores the payload's ``record`` and ``link_weights`` as they are.
        Returns True when the advertisement staged for the next maintain
        changed: a sender with none staged, or a different neighbor list.
        """
        sender = payload.sender
        self.peer_centrality[sender] = payload.record
        self.peer_weights[sender] = payload.link_weights
        advertised = frozenset(payload.neighbor_list)
        staged = self._advertised.get(sender)
        if staged is advertised or staged == advertised:
            return False
        self._advertised[sender] = advertised
        self._restaged.add(sender)
        return True

    def make_hello(
        self, link_weights: Mapping[NodeId, float] | None = None
    ) -> HelloPayload:
        """Build this node's broadcast payload.

        ``link_weights`` is supplied by the owner of the contact windows
        (this view has no access to them) and should already be filtered to
        above-threshold peers.  The payload holds it as it is, not a copy,
        so the caller may refresh it in place as a standing handle.  The
        neighbor list and centralities are built once per view revision
        (and graph edit) and shared by every payload until it changes, with
        one :class:`PeerRecord` that receivers store as it is.
        """
        stamp = self.stamp()
        if self._hello is None or self._hello[0] != stamp:
            cb, ceb = self.my_centrality()
            neighbors = frozenset(self.graph._adj[self.owner])
            self._hello = (stamp, neighbors, PeerRecord(cb, ceb))
        _, neighbors, record = self._hello
        if link_weights is None:
            link_weights = {}
        return HelloPayload(self.owner, neighbors, record, link_weights)

    # -- centrality ------------------------------------------------------------

    def my_centrality(self) -> tuple[Fraction, Fraction]:
        """(plain, endpoint-biased) betweenness of the owner on its own view.

        The view graph is already the owner's expanded ego network, so no
        further extraction is needed.  :func:`~dtnsim.graph.ego_centrality`
        scores the owner alone, in integer path counts, and gives both; the
        result is cached until the view's revision changes or its graph is
        edited.
        """
        stamp = self.stamp()
        if self._centrality_cache and self._centrality_cache[0] == stamp:
            return self._centrality_cache[1]
        cb, ceb = ego_centrality(self.graph, self.owner)
        self._centrality_cache = (stamp, (cb, ceb))
        return cb, ceb

    def stamp(self) -> tuple:
        """Changes whenever the graph may have: ``maintain`` bumps the
        revision when it changes the graph, and every other edit goes
        through the graph's methods, which count it.  Whatever is derived
        from the graph (payloads, centralities, a routing context) may be
        kept while the stamp compares equal."""
        graph = self.graph
        return (self.revision, graph, graph._edits)

    # -- maintenance -----------------------------------------------------------

    def maintain(
        self,
        now: float,
        *,
        threshold: float,
        weights: Mapping[NodeId, float],
        basis: object = None,
    ) -> bool:
        """Re-derive the view from current link weights and staged hellos.

        For every peer in ``weights``: above-threshold peers become (or
        stay) friends and their advertised adjacency is merged; everyone
        else is evicted along with the adjacency only they vouched for, and
        its staged advertisement is dropped.  Peers are processed in
        ascending id order.  Returns True if the graph changed.

        A pass that cannot change the graph is skipped: when the previous
        pass returned False, the revision, the graph (not edited since),
        the threshold, the peers and the friends are what that pass saw, and
        no friend's staged advertisement changed since, this pass would
        repeat the same operations.  The skip only drops again the staged
        advertisements of the non-friends that pass evicted.  The view
        compares the peers and friends itself, reading every weight; a
        caller that tracks them passes ``basis`` instead, any value that
        compares unequal to the last one whenever the peers or friends of
        ``weights`` may have changed.  ``weights`` is then read only by a
        pass that runs, so it may be a lazy mapping.
        """
        if basis is None:
            basis = (
                frozenset(weights),
                frozenset(j for j, w in weights.items() if w > threshold),
            )
        graph = self.graph
        last = self._last_pass
        skip = (
            last is not None
            and last.basis == basis
            and last.threshold == threshold
            and last.revision == self.revision
            and last.graph is graph
            and last.edits == graph._edits
            and self._restaged.isdisjoint(last.friends)
        )
        self._restaged.clear()
        if skip:
            for j in last.evicted:
                self._advertised.pop(j, None)
            return False
        changed, friends, evicted = self._pass(weights, threshold)
        if changed:
            self.revision += 1
            self._last_pass = None
        else:
            self._last_pass = _Pass(
                threshold, basis, self.revision, graph, graph._edits, friends, evicted
            )
        return changed

    def _pass(
        self, weights: Mapping[NodeId, float], threshold: float
    ) -> tuple[bool, set[NodeId], list[NodeId]]:
        """The full maintain pass: (changed, friends, evicted non-friends)."""
        # Edit the adjacency in place, toggling each edge actually added or
        # dropped in ``flips`` (one toggled twice is back as it was).  A lost
        # vertex changes the graph beyond its edges only if it began isolated.
        adj, owner, advertised = self.graph._adj, self.owner, self._advertised
        mine = adj[owner]
        flips: set[tuple[NodeId, NodeId]] = set()
        isolated = [v for v, nbrs in adj.items() if not nbrs and v != owner]
        friends: set[NodeId] = set()
        evicted: list[NodeId] = []

        def toggle(u: NodeId, v: NodeId) -> None:
            edge = (u, v) if u < v else (v, u)
            if edge in flips:
                flips.remove(edge)
            else:
                flips.add(edge)

        for j, w in sorted(weights.items()):
            if j == owner:
                continue
            if w > threshold:
                friends.add(j)
                if j not in mine:
                    mine.add(j)
                    adj.setdefault(j, set()).add(owner)
                    toggle(owner, j)
                theirs = adj[j]
                for k in advertised.get(j, ()):
                    if k != j and k not in theirs:
                        theirs.add(k)
                        adj.setdefault(k, set()).add(j)
                        toggle(j, k)
            elif j in adj:
                # evicted with all its edges, so also those only it vouched for
                evicted.append(j)
                advertised.pop(j, None)
                for k in adj.pop(j):
                    adj[k].discard(j)
                    toggle(j, k)
        for v in [v for v, nbrs in adj.items() if not nbrs and v != owner]:
            del adj[v]  # no surviving friend vouches for it
        changed = bool(flips) or any(v not in adj for v in isolated)
        return changed, friends, evicted

    def __repr__(self) -> str:
        return f"SocialNetworkView(owner={self.owner}, graph={self.graph!r})"
