"""Per-node distributed social-network views built from hello exchange.

Each node keeps a local graph of its friends (peers whose link weight clears
the threshold) plus whatever adjacency those friends advertised in their
hello messages.  That local graph is, by construction, the node's expanded
ego network, so self-centrality is computed on it directly.

Hello payloads also piggyback the sender's self-computed centralities and
its above-threshold link weights; the routing conditions need both and the
hello is the only channel a DTN node has.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from dtnsim.contacts import ContactWindow
from dtnsim.graph import NodeId, SocialGraph, ego_centrality


@dataclass(frozen=True)
class HelloPayload:
    """What a node broadcasts: who it is friends with and how central it is.

    Every receiver stores ``link_weights`` as it is, so the map is shared by
    the payload and the views that heard it, and must not be mutated.
    """

    sender: NodeId
    neighbor_list: frozenset[NodeId]
    sender_cb: Fraction | float = 0
    sender_ceb: Fraction | float = 0
    #: sender's link weights, restricted to peers above the friend threshold
    link_weights: Mapping[NodeId, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.sender in self.neighbor_list:
            raise ValueError("sender must not appear in its own neighbor list")


@dataclass(frozen=True)
class PeerRecord:
    """Last centrality values heard from a peer."""

    cb: Fraction | float
    ceb: Fraction | float


class SocialNetworkView:
    """A node's locally maintained social network and peer caches."""

    def __init__(self, owner: NodeId) -> None:
        self.owner = owner
        self.graph = SocialGraph(vertices=[owner])
        self.peer_centrality: dict[NodeId, PeerRecord] = {}
        #: each peer's last advertised weights: the hello payload's own map,
        #: shared with every view that heard it, so never mutated
        self.peer_weights: dict[NodeId, Mapping[NodeId, float]] = {}
        # last advertised neighbor list per peer; staged for the next maintain
        self._advertised: dict[NodeId, frozenset[NodeId]] = {}
        self.revision = 0
        self._centrality_cache: tuple[int, tuple[Fraction, Fraction]] | None = None

    # -- hello handling ------------------------------------------------------

    def apply_hello(self, payload: HelloPayload) -> bool:
        """Cache a received hello.  Does not touch the graph; maintain does.

        Returns True when the advertisement staged for the next maintain
        changed: a sender with none staged, or a different neighbor list.
        """
        sender = payload.sender
        self.peer_centrality[sender] = PeerRecord(payload.sender_cb, payload.sender_ceb)
        self.peer_weights[sender] = payload.link_weights
        advertised = frozenset(payload.neighbor_list)
        changed = self._advertised.get(sender) != advertised
        self._advertised[sender] = advertised
        return changed

    def make_hello(
        self, link_weights: Mapping[NodeId, float] | None = None
    ) -> HelloPayload:
        """Build this node's broadcast payload.

        ``link_weights`` is supplied by the owner of the contact windows
        (this view has no access to them) and should already be filtered to
        above-threshold peers.  The payload keeps a copy, so a later edit
        of the caller's map does not reach the receivers.
        """
        cb, ceb = self.my_centrality()
        return HelloPayload(
            sender=self.owner,
            neighbor_list=frozenset(self.graph.neighbors(self.owner)),
            sender_cb=cb,
            sender_ceb=ceb,
            link_weights=dict(link_weights or {}),
        )

    # -- centrality ------------------------------------------------------------

    def my_centrality(self) -> tuple[Fraction, Fraction]:
        """(plain, endpoint-biased) betweenness of the owner on its own view.

        The view graph is already the owner's expanded ego network, so no
        further extraction is needed.  :func:`~dtnsim.graph.ego_centrality`
        scores the owner alone, in integer path counts, and gives both; the
        result is cached until the view's revision changes.
        """
        if self._centrality_cache and self._centrality_cache[0] == self.revision:
            return self._centrality_cache[1]
        cb, ceb = ego_centrality(self.graph, self.owner)
        self._centrality_cache = (self.revision, (cb, ceb))
        return cb, ceb

    # -- maintenance -----------------------------------------------------------

    def maintain(
        self,
        now: float,
        *,
        threshold: float,
        windows: Mapping[NodeId, ContactWindow] | None = None,
        weights: Mapping[NodeId, float] | None = None,
    ) -> bool:
        """Re-derive the view from current link weights and staged hellos.

        For every peer with recorded contact history: above-threshold peers
        become (or stay) friends and their advertised adjacency is merged;
        everyone else is evicted along with the adjacency only they vouched
        for.  Peers are processed in ascending id order.  Returns True if
        the graph changed.
        """
        if weights is None:
            if windows is None:
                raise ValueError("maintain needs either windows or weights")
            weights = {j: w.link_weight(now) for j, w in windows.items()}
        # Edit the adjacency in place, toggling each edge actually added or
        # dropped in ``flips`` (one toggled twice is back as it was).  A lost
        # vertex changes the graph beyond its edges only if it began isolated.
        adj, owner = self.graph._adj, self.owner
        flips: set[tuple[NodeId, NodeId]] = set()
        isolated = [v for v, nbrs in adj.items() if not nbrs and v != owner]
        for j in sorted(weights):
            if j == owner:
                continue
            if weights[j] > threshold:
                advertised = self._advertised.get(j, ())
                for u, v in ((owner, j), *((j, k) for k in advertised if k != j)):
                    if v not in adj[u]:  # u is the owner or a friend: present
                        adj[u].add(v)
                        adj.setdefault(v, set()).add(u)
                        flips ^= {(u, v) if u < v else (v, u)}
            elif j in adj:
                # evicted with all its edges, so also those only it vouched for
                self._advertised.pop(j, None)
                for k in adj.pop(j):
                    adj[k].discard(j)
                    flips ^= {(j, k) if j < k else (k, j)}
        for v in [v for v, nbrs in adj.items() if not nbrs and v != owner]:
            del adj[v]  # no surviving friend vouches for it
        changed = bool(flips) or any(v not in adj for v in isolated)
        if changed:
            self.revision += 1
        return changed

    def __repr__(self) -> str:
        return f"SocialNetworkView(owner={self.owner}, graph={self.graph!r})"
