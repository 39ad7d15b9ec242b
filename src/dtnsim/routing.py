"""Forwarding decisions for the four protocols, plus buffer bookkeeping.

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
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Collection, Iterator, KeysView, Mapping

from dtnsim.graph import NodeId
from dtnsim.social import HelloPayload


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
    hops: int = 0

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ValueError("message source and destination must differ")
        if self.ttl <= 0:
            raise ValueError("ttl must be positive")

    def is_live(self, now: float) -> bool:
        return now - self.created_at <= self.ttl


class Buffer:
    """One node's message store; at most one copy per message id."""

    __slots__ = ("_messages",)

    def __init__(self) -> None:
        self._messages: dict[int, Message] = {}

    def __len__(self) -> int:
        return len(self._messages)

    def __contains__(self, message_id: int) -> bool:
        return message_id in self._messages

    def __iter__(self) -> Iterator[Message]:
        """Messages in ascending id order (deterministic)."""
        return iter(sorted(self._messages.values(), key=lambda m: m.id))

    def ids(self) -> KeysView[int]:
        """Buffered message ids, as a live set-like view."""
        return self._messages.keys()

    def get(self, message_id: int) -> Message:
        return self._messages[message_id]

    def insert(self, m: Message) -> bool:
        """Store a copy as-is (no hop increment); used at message creation."""
        if m.id in self._messages:
            return False
        self._messages[m.id] = m
        return True

    def accept(self, m: Message, receiver: NodeId) -> bool:
        """Take delivery of a transferred copy.

        Returns True when ``receiver`` is the destination (the message is
        consumed, not buffered).  Relays store the copy with an incremented
        hop count; re-received ids are ignored.
        """
        if receiver == m.dst:
            return True
        if m.id not in self._messages:
            self._messages[m.id] = replace(m, hops=m.hops + 1)
        return False

    def remove(self, message_id: int) -> Message | None:
        return self._messages.pop(message_id, None)

    def expire(self, now: float) -> list[Message]:
        """Drop every message older than its TTL; returns the casualties."""
        dead = [m for m in self._messages.values() if not m.is_live(now)]
        for m in dead:
            del self._messages[m.id]
        return sorted(dead, key=lambda m: m.id)


@dataclass
class RelayContext:
    """The slice of a node's state the forwarding decision needs."""

    node: NodeId
    buffer: Buffer
    #: this node's own current link weights (absent peer reads as 0)
    own_weights: Mapping[NodeId, float]
    own_cb: Fraction | float = 0
    own_ceb: Fraction | float = 0
    #: vertices of this node's social network view
    members: Collection[NodeId] = ()
    #: cached advertised weights per view member
    peer_weights: Mapping[NodeId, Mapping[NodeId, float]] = field(default_factory=dict)
    threshold: float = 0.01


def advertised_weight(hello: HelloPayload | None, dest: NodeId) -> float:
    """The sender's advertised link weight toward ``dest`` (0 if unknown)."""
    if hello is None:
        return 0.0
    return hello.link_weights.get(dest, 0.0)


def weight_exchange(buffer: Buffer, hello: HelloPayload | None) -> dict[NodeId, float]:
    """Peer weights toward the destinations of our buffered messages."""
    return {m.dst: advertised_weight(hello, m.dst) for m in buffer}


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


def decide(
    protocol: Protocol,
    ctx: RelayContext,
    peer: NodeId,
    peer_hello: HelloPayload | None,
    peer_has: Collection[int],
    now: float,
) -> list[ForwardAction]:
    """Forwarding actions for one contact, in ascending message-id order.

    Considers every live buffered message the peer does not already hold.
    Direct delivery always wins; otherwise the protocol's conditions apply.
    """
    # the proposed schemes' fallback: is the peer more central than us?
    # Neither side depends on the message.
    more_central = False
    if peer_hello is not None:
        if protocol is Protocol.PROPOSED_I:
            more_central = peer_hello.sender_cb > ctx.own_cb
        elif protocol is Protocol.PROPOSED_II:
            more_central = peer_hello.sender_ceb > ctx.own_ceb
    actions: list[ForwardAction] = []
    for m in ctx.buffer:
        if not m.is_live(now) or m.id in peer_has:
            continue
        dest = m.dst
        if dest == peer:
            actions.append(ForwardAction(m.id, Action.DELIVER))
            continue
        if protocol is Protocol.EPIDEMIC:
            actions.append(ForwardAction(m.id, Action.COPY))
            continue
        w_peer = advertised_weight(peer_hello, dest)
        w_own = ctx.own_weights.get(dest, 0.0)
        if protocol is Protocol.FRIENDSHIP:
            if w_peer > ctx.threshold and w_peer > w_own:
                actions.append(ForwardAction(m.id, Action.COPY))
            continue
        # proposed1 / proposed2
        if w_peer > w_own:
            if _beats_whole_network(ctx, peer, dest, w_peer):
                actions.append(ForwardAction(m.id, Action.FORWARD_AND_DELETE))
            else:
                actions.append(ForwardAction(m.id, Action.COPY))
        elif more_central:
            actions.append(ForwardAction(m.id, Action.COPY))
    return actions
