"""Forwarding decisions for the four protocols.

Protocols:

* ``epidemic``: copy every missing message to every encountered node.
* ``friendship``: simplified friendship baseline: copy when the peer is a
  friend of the destination (advertised weight above the threshold) and a
  better one than us.
* ``proposed1``: copy when the peer's link weight to the destination beats
  ours; if it also beats everything else in our social network, hand the
  message over entirely (forward-and-delete).  Otherwise fall back to a
  plain-betweenness comparison.
* ``proposed2``: identical, with the endpoint-biased betweenness in the
  fallback comparison.

All comparisons are strict: ties never trigger a transfer.

Every input of a forwarding choice (the two link weights toward the
destination, the peer's standing against our social network, the centrality
comparison) depends on the destination alone, so :func:`decide` reaches one
verdict per destination per contact and applies it to each live message
toward it that the peer lacks (a bitmask, see :class:`RelayContext`); the
caller passes only the messages within their TTL.  Link
weights are never negative; a destination the peer does not advertise
(weight 0) therefore never wins on weight, so unless the centrality fallback
fires only the peer and the destinations it advertises can get a verdict.

What a node knows of its peer (advertised weights and centralities) is what
its social view cached from the peer's hellos; :class:`RelayContext` carries
that cache, so routing does not see the hello format.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Collection, Mapping, Sequence

from dtnsim.graph import NodeId
from dtnsim.social import PeerRecord


class Protocol(enum.Enum):
    EPIDEMIC = "epidemic"
    FRIENDSHIP = "friendship"
    PROPOSED_I = "proposed1"
    PROPOSED_II = "proposed2"

    @classmethod
    def parse(cls, name: str) -> "Protocol":
        for proto in cls:
            if proto.value == name:
                return proto
        raise ValueError(
            f"unknown protocol {name!r}; expected one of "
            f"{', '.join(p.value for p in cls)}"
        )


class Action(enum.Enum):
    COPY = "copy"
    FORWARD_AND_DELETE = "forward_and_delete"
    DELIVER = "deliver"


@dataclass(frozen=True)
class ForwardAction:
    message_id: int
    action: Action


@dataclass(frozen=True, slots=True)
class Message:
    id: int
    src: NodeId
    dst: NodeId
    created_at: float
    ttl: float

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ValueError("message source and destination must differ")
        if self.ttl <= 0:
            raise ValueError("ttl must be positive")

    def is_live(self, now: float) -> bool:
        return now - self.created_at <= self.ttl


def bits(mask: int) -> list[int]:
    """Positions of the set bits of ``mask`` (non-negative), ascending."""
    ranks = []
    while mask:
        low = mask & -mask
        ranks.append(low.bit_length() - 1)
        mask ^= low
    return ranks


@dataclass
class RelayContext:
    """The slice of a node's state the forwarding decision needs.

    Messages are named by rank: bit ``r`` of a mask stands for
    ``messages[r]``, the r-th message of the workload in ascending id order,
    and ``toward[d]`` has the bits of the messages addressed to ``d``.
    :func:`decide` reads each message's id and destination alone, never its
    TTL, so one rank table serves a workload at every TTL.
    ``peer_weights`` and ``peer_centrality`` are the node's caches of what
    its peers last advertised; :func:`decide` reads the contacted peer's
    entries there (absent: no weights, centralities 0).  Every weight here
    is non-negative: :func:`decide` relies on it to rule out a weight win
    for a destination the peer does not advertise without reading
    ``own_weights``.

    :func:`decide` reads every container on each call, so a context may
    hold live ones (the engine's are the node's view caches and a view of
    its weight slots, and a peer's advertised weights may be a handle the
    peer refreshes) and be kept while its scalars hold.
    """

    node: NodeId
    #: the workload's messages in ascending id order (the rank table)
    messages: Sequence[Message]
    #: destination -> mask of the messages addressed to it
    toward: Sequence[int]
    #: this node's own current link weights (absent peer reads as 0)
    own_weights: Mapping[NodeId, float]
    own_cb: Fraction | float = 0
    own_ceb: Fraction | float = 0
    #: vertices of this node's social network view
    members: Collection[NodeId] = ()
    #: advertised weights per peer heard from (view members and contacts)
    peer_weights: Mapping[NodeId, Mapping[NodeId, float]] = field(default_factory=dict)
    #: advertised centralities per peer heard from
    peer_centrality: Mapping[NodeId, PeerRecord] = field(default_factory=dict)
    threshold: float = 0.01


def _exceeds(a: Fraction | float, b: Fraction | float) -> bool:
    """``a > b``, exactly.  Rationals (ints and Fractions, whose denominators
    are positive) compare by cross-multiplying their integer parts, which
    costs a third of :class:`~fractions.Fraction`'s own comparison; a float
    on either side compares as it is."""
    try:
        return a.numerator * b.denominator > b.numerator * a.denominator
    except AttributeError:  # a float has no numerator
        return a > b


def _beats_whole_network(ctx: RelayContext, peer: NodeId, dest: NodeId, w_peer: float) -> bool:
    """True when ``w_peer`` strictly beats every cached weight toward ``dest``
    across the view membership (the contacted peer itself excluded, else the
    strict comparison could never hold)."""
    for member in ctx.members:
        if member == ctx.node or member == peer:
            continue
        cached = ctx.peer_weights.get(member, {}).get(dest, 0.0)
        if not w_peer > cached:
            return False
    return True


def _verdict(
    protocol: Protocol,
    ctx: RelayContext,
    peer: NodeId,
    peer_weights: Mapping[NodeId, float],
    dest: NodeId,
    more_central: bool,
) -> Action | None:
    """The action for every live message toward ``dest`` (None: keep it)."""
    if dest == peer:
        return Action.DELIVER
    if protocol is Protocol.EPIDEMIC:
        return Action.COPY
    w_peer = peer_weights.get(dest, 0.0)
    if w_peer == 0.0:
        # weights are non-negative, so an unadvertised destination never
        # wins on weight (and friendship never holds for it)
        return Action.COPY if more_central else None
    w_own = ctx.own_weights.get(dest, 0.0)
    if protocol is Protocol.FRIENDSHIP:
        if w_peer > ctx.threshold and w_peer > w_own:
            return Action.COPY
        return None
    # proposed1 / proposed2
    if w_peer > w_own:
        if _beats_whole_network(ctx, peer, dest, w_peer):
            return Action.FORWARD_AND_DELETE
        return Action.COPY
    return Action.COPY if more_central else None


def decide(
    protocol: Protocol,
    ctx: RelayContext,
    peer: NodeId,
    missing: int,
) -> list[ForwardAction]:
    """Forwarding actions for one contact, in ascending message-id order.

    ``missing`` is the mask (see :class:`RelayContext`) of the node's live
    buffered messages (within their TTL) that the peer lacks (neither
    buffers nor has been delivered); the caller leaves out the rest, so
    each one is considered.  Direct delivery always wins; otherwise the
    protocol's conditions apply.
    The peer's advertised weights and centralities come from ``ctx``'s
    caches.  The conditions depend on the destination only, so each
    destination's verdict is reached once per call and shared by its
    messages.  Unless every message moves (epidemic, or the proposed
    schemes' centrality fallback), only the peer itself and the
    destinations it advertises can get a verdict (weights are non-negative,
    see :class:`RelayContext`), so only their messages are visited.
    """
    # the proposed schemes' fallback: is the peer more central than us?
    # Neither side depends on the message.
    more_central = False
    record = ctx.peer_centrality.get(peer)
    if protocol is Protocol.PROPOSED_I:
        more_central = _exceeds(record.cb if record else 0, ctx.own_cb)
    elif protocol is Protocol.PROPOSED_II:
        more_central = _exceeds(record.ceb if record else 0, ctx.own_ceb)
    peer_weights = ctx.peer_weights.get(peer, {})
    verdicts: dict[NodeId, Action | None] = {}
    if protocol is Protocol.EPIDEMIC or more_central:
        # every destination gets a verdict other than None
        moving = missing
    else:
        moving = 0
        toward = ctx.toward
        for dest in (peer, *peer_weights):
            selected = missing & toward[dest]
            if selected:
                verdict = _verdict(protocol, ctx, peer, peer_weights, dest, more_central)
                if verdict is not None:
                    verdicts[dest] = verdict
                    moving |= selected
    if not moving:
        return []
    messages = ctx.messages
    actions: list[ForwardAction] = []
    for rank in bits(moving):
        m = messages[rank]
        verdict = verdicts.get(m.dst)
        if verdict is None:
            verdict = verdicts[m.dst] = _verdict(
                protocol, ctx, peer, peer_weights, m.dst, more_central
            )
        actions.append(ForwardAction(m.id, verdict))
    return actions
