"""Deterministic tick-stepped simulation of store-carry-forward routing.

A run has two parts.  A :class:`Timeline` holds what depends on neither the
routing protocol nor the TTL: the trace, contact detection, the contact
windows, the link-weight cache, and the per-node social views with the
hello/maintain pass.  A :class:`Simulation` holds one configuration's
routing state: message masks (see below), injection, expiry, metrics and
the event log.  Routing never feeds back into the timeline, so
the sweep cells that differ only in ``protocol`` and ``ttl`` share one
timeline and run in lockstep: each tick the timeline advances once, then
steps every attached simulation that has not finished and has work on the
tick: in-range pairs to route, an injection or expiry due, or its last
trace tick.  On any other tick a step would change nothing, so it is
skipped.  No per-tick state is stored.  A Simulation built without a
timeline gets one of its own, which is the same code path.

Each tick: advance positions, detect contacts (first-hello encounter,
missed-hello departure) and update contact windows; where needed (see
below) compute the link weights, exchange hellos and maintain the per-node
social views; then, for each attached simulation with work on the tick,
inject new messages, run the forwarding protocol over every in-range pair
in ascending pair order, and expire TTLs.  A simulation ends when every
generated message has been delivered or has no live copy anywhere; it fails
when its own trace (for a generated trace, the length its TTL needs) ends
first.

The social layer (contact windows, weight cache, hello/maintain) runs only
while an unfinished attached simulation's protocol reads it.  Epidemic
reads none of it, so a timeline whose active simulations are all epidemic
only detects contacts and routes.  Nothing attaches once a timeline has
started, so the layer, once off, stays off.

Contact detection never looks at all n^2 pairs: a sort and sweep on x
yields the candidate pairs whose x gap is within range (a conservative
superset), and only those get the exact squared-distance test.  It runs
over a block of consecutive ticks of the trace at a time, in a fixed number
of array operations per block; the encounter/departure state machine
advances tick by tick and keeps state for open contacts only, so a tick
with neither pairs nor open contacts costs it nothing.

Routing state is Python-int bitmasks, bit ``r`` standing for the r-th
message in ascending id order: per node the messages it buffers (``held``)
and those delivered to it (``got``), per destination those addressed to it
(``toward``, built once per drawn workload), and per message the nodes
holding it (the transpose of ``held``).  A contact of ``i`` with ``j`` may
move ``held[i] & ~(held[j] | got[j])``.

Link weights live in one place, a cache with one slot per unordered pair
that has met: contacts are symmetric, so both ends see the same weight, and
``nodes[u].slots[v]`` and ``nodes[v].slots[u]`` name the same slot and its
one contact window.  One vectorized pass evaluates every slot, on the
ticks where a weight is read (a tick with pairs, for hellos and routing; a
hello tick with dirty nodes, for maintain), where a contact event changes a
slot, and where a slot may cross the threshold.  For the last, a pass on a
pair-free tick bounds the tick of the next crossing: between contact
events a slot's gap integral moves by at most W a second.  A hello tick
with neither pairs nor dirty nodes has nothing to exchange or maintain.
Each node keeps its friend slots (weight above the threshold), updated
only where a slot crosses it, and its hello payload's weight map is read
from those alone.  Every other reader (routing, a maintain pass that
runs) sees a node's ``{peer: weight}`` through a read-only view of its
slots that copies nothing; nothing is sized n x n.  The cache shares its
arithmetic with :meth:`dtnsim.contacts.ContactWindow.link_weight`, so both
paths produce bit-identical values.  Each hello tick maintains only the
nodes marked dirty: a new peer, a slot crossing the threshold, a changed
advertisement heard, or a view changed by its last pass.
"""

from __future__ import annotations

import enum
import math
import numbers
from collections.abc import Mapping
from dataclasses import dataclass, fields, replace
from typing import IO, Iterator, Sequence

import numpy as np

from dtnsim.contacts import MAX_WEIGHT, ContactWindow
from dtnsim.graph import NodeId
from dtnsim.mobility import (
    Arena,
    Trace,
    WaypointParams,
    check_finite,
    generate_trace,
    load_trace,
    sample_count,
)
from dtnsim.routing import (
    Action,
    ForwardAction,
    Message,
    Protocol,
    RelayContext,
    bits,
    decide,
)
from dtnsim.social import HelloPayload, SocialNetworkView

_MESSAGE_STREAM_SALT = 0x6D5A


class TraceExhaustedError(RuntimeError):
    """The trace ended while messages were still undecided."""


class ContactEventKind(enum.Enum):
    ENCOUNTER = "encounter"
    DEPART = "depart"


@dataclass(frozen=True)
class ContactEvent:
    kind: ContactEventKind
    pair: tuple[NodeId, NodeId]
    time: float


@dataclass
class SimConfig:
    node_count: int = 25
    arena_width: float = 1000.0
    arena_height: float = 1500.0
    speed: float = 1.0
    pause: float = 0.0
    comm_range: float = 3.0
    window_size: float = 600.0
    threshold: float = 0.01
    ttl: float = 300.0
    message_count: int = 1000
    generation_span: float = 1000.0
    hello_period: float = 1.0
    missed_hello_limit: int = 3
    tick: float = 1.0
    protocol: Protocol = Protocol.EPIDEMIC
    seed: int = 1
    trace_path: str | None = None

    def check(self) -> None:
        """Raise ValueError naming the first bad field."""
        for name in ("node_count", "message_count", "missed_hello_limit", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer (got {value!r})")
        if not isinstance(self.protocol, Protocol):
            raise ValueError(f"protocol must be a Protocol member (got {self.protocol!r})")
        positive = [
            ("node_count", self.node_count),
            ("arena_width", self.arena_width),
            ("arena_height", self.arena_height),
            ("speed", self.speed),
            ("comm_range", self.comm_range),
            ("window_size", self.window_size),
            ("ttl", self.ttl),
            ("message_count", self.message_count),
            ("generation_span", self.generation_span),
            ("hello_period", self.hello_period),
            ("missed_hello_limit", self.missed_hello_limit),
            ("tick", self.tick),
        ]
        finite = positive + [("pause", self.pause), ("threshold", self.threshold)]
        for name, value in finite:
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite (got {value})")
        for name, value in positive:
            if value <= 0:
                raise ValueError(f"{name} must be positive (got {value})")
        if self.node_count < 2:
            raise ValueError("node_count must be at least 2")
        if self.pause < 0:
            raise ValueError("pause must be non-negative")
        if self.threshold < 0:
            raise ValueError("threshold must be non-negative")
        ratio = self.hello_period / self.tick
        if abs(ratio - round(ratio)) > 1e-9:
            raise ValueError("hello_period must be a multiple of tick")
        if self.window_size <= self.missed_hello_limit * self.tick:
            raise ValueError(
                "window_size must exceed missed_hello_limit * tick "
                "(departures are stamped at the first missed hello)"
            )


@dataclass(frozen=True)
class MetricsReport:
    generated: int
    delivered: int
    total_forwards: int
    delivery_ratio: float
    delivery_cost: float
    delivery_efficiency: float
    #: False when delivery_cost is zero and the efficiency ratio is undefined
    efficiency_defined: bool


@dataclass(frozen=True)
class ReplicateReport:
    """Arithmetic means over independent runs, plus the per-run reports."""

    runs: tuple[MetricsReport, ...]
    delivery_ratio: float
    delivery_cost: float
    delivery_efficiency: float
    efficiency_defined: bool


#: node-samples of trace per contact-detection block: a block spans
#: ``BLOCK_SAMPLES // node_count`` ticks (at least one)
BLOCK_SAMPLES = 2**13


class ContactTracker:
    """Pairwise encounter/departure state machine over a position trace.

    A pair enters contact at the first tick within range (the first hello)
    and leaves it after ``missed_hello_limit`` consecutive ticks out of
    range, with the departure stamped at the first missed tick.

    Only open contacts are stored.  The in-range pairs are found a block of
    consecutive ticks at a time (see :data:`BLOCK_SAMPLES`): one stable sort
    of every tick's x coordinates, then a sweep over growing sorted-order
    offsets that keeps the pairs whose x gap is within range (a conservative
    superset), and the exact squared-distance test on those candidates only.
    A block costs O(n log n + candidates) per tick rather than n^2, in a
    fixed number of array operations per offset instead of per tick.
    """

    def __init__(
        self, positions: np.ndarray, comm_range: float, missed_hello_limit: int
    ) -> None:
        """``positions[tick, node] -> (x, y)``, finite: the sweep orders nodes by x."""
        self.positions = positions
        self.range_sq = comm_range * comm_range
        self.limit = missed_hello_limit
        # Sweep reach on x.  A pair passing the exact test in _detect has
        # fl(dx*dx) <= range_sq, so its true x gap is at most sqrt(range_sq)
        # times (1 + a few ulps), plus under 1e-161 where dx*dx underflows.
        # The padding covers both: the sweep may admit extra candidates but
        # never drops an in-range pair.
        self.reach = math.sqrt(self.range_sq) * (1.0 + 1e-9) + 1e-150
        #: ticks per detection block
        self.block_ticks = max(1, BLOCK_SAMPLES // positions.shape[1])
        #: in-range pairs of ticks block_start, block_start + 1, ...
        self._block: list[list[tuple[NodeId, NodeId]]] = []
        self._block_start = 0
        #: open contacts: (u, v) with u < v -> [consecutive misses, first miss]
        self.open: dict[tuple[NodeId, NodeId], list] = {}

    def _detect(self, start: int) -> None:
        """In-range pairs, ascending ``(u, v)`` with ``u < v``, of each tick
        of the block starting at ``start``."""
        block = self.positions[start : start + self.block_ticks]
        ticks = len(block)
        xs = block[:, :, 0]
        order = np.argsort(xs, axis=1, kind="stable")
        xs = np.take_along_axis(xs, order, axis=1)
        reach = xs + self.reach
        # Sorted position p pairs with q = p + k when xs[q] <= xs[p] + reach.
        # Rows are sorted, so once no row has a candidate at offset k none
        # has one at a larger offset.
        none = np.empty(0, dtype=np.intp)
        rows, firsts, seconds = [none], [none], [none]
        for k in range(1, xs.shape[1]):
            row, p = np.nonzero(xs[:, k:] <= reach[:, :-k])
            if not len(row):
                break
            a, b = order[row, p], order[row, p + k]
            # squares are exact under negation, so the orientation of d is moot
            d = block[row, a] - block[row, b]
            hit = (d * d).sum(axis=1) <= self.range_sq
            rows.append(row[hit])
            firsts.append(a[hit])
            seconds.append(b[hit])
        row = np.concatenate(rows)
        a = np.concatenate(firsts)
        b = np.concatenate(seconds)
        u, v = np.minimum(a, b), np.maximum(a, b)
        ranked = np.lexsort((v, u, row))
        pairs = list(zip(u[ranked].tolist(), v[ranked].tolist()))
        ends = np.cumsum(np.bincount(row, minlength=ticks)).tolist()
        self._block = [pairs[s:e] for s, e in zip([0] + ends, ends)]
        self._block_start = start

    def update(self, tick_index: int, now: float):
        """Returns (events, in-range pairs) for tick ``tick_index`` at ``now``.

        Departures come first, then encounters, each in ascending pair order.
        """
        offset = tick_index - self._block_start
        if not 0 <= offset < len(self._block):
            self._detect(tick_index)
            offset = 0
        pairs = self._block[offset]
        if not pairs and not self.open:
            return [], pairs
        events: list[ContactEvent] = []
        current = set(pairs)
        departed = []
        for pair, state in self.open.items():
            if pair in current:
                state[0] = 0
                continue
            if state[0] == 0:
                state[1] = now
            state[0] += 1
            if state[0] >= self.limit:
                departed.append(pair)
        for pair in sorted(departed):
            events.append(
                ContactEvent(ContactEventKind.DEPART, pair, self.open.pop(pair)[1])
            )
        for pair in pairs:
            if pair not in self.open:
                self.open[pair] = [0, now]
                events.append(ContactEvent(ContactEventKind.ENCOUNTER, pair, now))
        return events, pairs


def schedule_messages(config: SimConfig, seed: int | None = None) -> list[Message]:
    """The run's message workload, fully determined by the seed.

    Creation times are drawn on the tick grid, uniform over
    [window_size, window_size + generation_span) so the contact windows are
    warm before traffic starts.  Sources are uniform; destinations uniform
    over the other nodes.
    """
    config.check()
    rng = np.random.Generator(
        np.random.PCG64(
            np.random.SeedSequence([seed if seed is not None else config.seed, _MESSAGE_STREAM_SALT])
        )
    )
    n = config.node_count
    slots = max(1, int(round(config.generation_span / config.tick)))
    messages = []
    for mid in range(config.message_count):
        created = config.window_size + float(rng.integers(0, slots)) * config.tick
        src = int(rng.integers(0, n))
        dst = (src + 1 + int(rng.integers(0, n - 1))) % n
        messages.append(
            Message(id=mid, src=src, dst=dst, created_at=created, ttl=config.ttl)
        )
    return messages


def trace_duration(config: SimConfig) -> float:
    """Seconds of generated trace a run needs: warm-up, traffic, TTL, two ticks."""
    return config.window_size + config.generation_span + config.ttl + 2 * config.tick


def default_trace(config: SimConfig) -> Trace:
    """The trace a run of ``config`` replays: ``trace_path`` or random waypoint."""
    if config.trace_path:
        return load_trace(config.trace_path)
    params = WaypointParams(
        arena=Arena(config.arena_width, config.arena_height),
        speed_min=config.speed,
        speed_max=config.speed,
        pause=config.pause,
        seed=config.seed,
    )
    return generate_trace(params, config.node_count, trace_duration(config), config.tick)


#: config fields in which simulations sharing one timeline may differ
_ROUTING_FIELDS = ("protocol", "ttl")


def _check_joinable(base: SimConfig, config: SimConfig) -> None:
    for f in fields(SimConfig):
        if f.name in _ROUTING_FIELDS:
            continue
        mine, theirs = getattr(config, f.name), getattr(base, f.name)
        if mine != theirs:
            raise ValueError(
                f"{f.name} differs within a shared timeline ({mine!r} vs {theirs!r}); "
                f"only {' and '.join(_ROUTING_FIELDS)} may differ"
            )


def _check_messages(messages: Sequence[Message], node_count: int) -> None:
    """Raise ValueError naming the first message with a bad field."""
    nodes = f"a node id below {node_count}"
    seen: set[int] = set()
    for m in messages:
        for name, ok, rule in (
            ("id", m.id not in seen, "must be unique"),
            ("src", m.src in range(node_count), f"must be {nodes}"),
            ("dst", m.dst in range(node_count), f"must be {nodes}"),
            ("created_at", math.isfinite(m.created_at), "must be finite"),
            ("ttl", math.isfinite(m.ttl), "must be finite"),
        ):
            if not ok:
                raise ValueError(f"message {m.id}: {name} {rule} (got {getattr(m, name)!r})")
        seen.add(m.id)


@dataclass(frozen=True)
class _Schedule:
    """A message workload in injection order and by rank (ascending id);
    ``rank`` maps an id to its rank and ``toward[d]`` masks the ranks of the
    messages addressed to node ``d``.

    The lanes are flat lists in injection order (``inject_*``) and in expiry
    order (``expire_*``).  ``inject_at`` and ``expire_at`` hold the times
    ``_inject`` and ``_expire`` compare with ``now``, then an ``inf``
    sentinel; the others hold each message's rank and source.
    """

    messages: list[Message]
    ranked: list[Message]
    rank: dict[int, int]
    toward: list[int]
    inject_at: list[float]
    inject_rank: list[int]
    inject_src: list[int]
    expire_at: list[float]
    expire_rank: list[int]

    @classmethod
    def of(
        cls,
        messages: Sequence[Message],
        tick: float,
        node_count: int,
        like: "_Schedule | None" = None,
    ) -> "_Schedule":
        """``like``, the same draw at another TTL, lends what the TTL does not
        change: ``rank``, ``toward`` and the injection lanes."""
        ordered = sorted(messages, key=lambda m: (m.created_at, m.id))
        ranked = sorted(ordered, key=lambda m: m.id)
        if like is None:
            rank = {m.id: r for r, m in enumerate(ranked)}
            toward = [0] * node_count
            for r, m in enumerate(ranked):
                toward[m.dst] |= 1 << r
            injects = (
                [m.created_at for m in ordered] + [math.inf],
                [rank[m.id] for m in ordered],
                [m.src for m in ordered],
            )
        else:
            rank, toward = like.rank, like.toward
            injects = (like.inject_at, like.inject_rank, like.inject_src)
        expiries = sorted((m.created_at + m.ttl + tick, m.id) for m in ordered)
        return cls(
            ordered,
            ranked,
            rank,
            toward,
            *injects,
            [at for at, _ in expiries] + [math.inf],
            [rank[mid] for _, mid in expiries],
        )


#: weight-cache arrays, indexed by slot: attribute -> (dtype, fill for
#: unused capacity); ``_row`` holds each slot's two ends
_SLOT_ARRAYS = {
    "_refresh_at": (float, math.inf),
    "_was_friend": (bool, False),
    "_row": ((np.intp, 2), 0),
    "_fs": (float, 0.0),
    "_le": (float, 0.0),
    "_mid": (float, 0.0),
    "_open": (bool, False),
    "_empty": (bool, False),
}

_NO_WEIGHTS: dict[NodeId, float] = {}


class _Node:
    __slots__ = ("id", "view", "slots", "friends")

    def __init__(self, node_id: NodeId) -> None:
        self.id = node_id
        self.view = SocialNetworkView(node_id)
        #: peer -> weight-cache slot, shared with the peer's entry for this node
        self.slots: dict[NodeId, int] = {}
        #: the entries of ``slots`` whose weight is above the threshold, in
        #: slot order; replaced, never edited, when the friends change
        self.friends: dict[NodeId, int] = {}


class _SlotWeights(Mapping):
    """A node's ``{peer: weight}``, read from the slot cache on access.

    Valid only within the tick it was made in; nothing may store one.
    """

    __slots__ = ("_timeline", "_slots")

    def __init__(self, timeline: "Timeline", slots: dict[NodeId, int]) -> None:
        self._timeline, self._slots = timeline, slots

    def __getitem__(self, j: NodeId) -> float:
        return self._timeline._weights()[self._slots[j]]

    def get(self, j: NodeId, default=None):
        slot = self._slots.get(j)
        return default if slot is None else self._timeline._weights()[slot]

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self._slots)

    def __len__(self) -> int:
        return len(self._slots)

    def items(self):
        weight = self._timeline._weights()
        return [(j, weight[slot]) for j, slot in self._slots.items()]


class Timeline:
    """The protocol- and TTL-independent part of a run, shared by simulations.

    Holds the trace, the contact tracker, the weight cache (one slot and
    one contact window per pair that has met, named by both ends'
    ``nodes[i].slots``), and the node views with the hello/maintain pass.
    Simulations attach to it before it starts; each :meth:`Simulation.run`
    then advances it tick by tick, stepping every attached simulation that
    has not finished and has work on the tick, until that simulation's own
    run ends.  Build one for a group of configs with :func:`shared_timeline`.

    The windows, weights and views are kept only while an unfinished
    simulation's protocol reads them (any protocol but epidemic); from the
    tick the last such simulation finishes they are left as they were.  On
    a timeline of epidemic simulations alone every view stays its owner
    alone and every node's ``slots`` stays empty.
    """

    def __init__(self, config: SimConfig, trace: Trace | None = None) -> None:
        config.check()
        self.cfg = config
        if trace is not None:
            check_finite(trace)
        # A trace generated here covers config.ttl; a simulation with a
        # shorter TTL ends where its own generated trace would have.
        self._generated = trace is None and not config.trace_path
        self.trace = trace if trace is not None else default_trace(config)
        if self.trace.node_count != config.node_count:
            raise ValueError(
                f"trace holds {self.trace.node_count} nodes, config wants "
                f"{config.node_count}"
            )
        if self.trace.tick != config.tick:
            raise ValueError(
                f"trace has tick {self.trace.tick!r}, config wants tick {config.tick!r}"
            )
        if self.trace.tick_count == 0:
            raise ValueError("trace holds no ticks")
        self.nodes = [_Node(i) for i in range(config.node_count)]
        self.tracker = ContactTracker(
            self.trace.positions, config.comm_range, config.missed_hello_limit
        )

        self._dirty = np.zeros(config.node_count, dtype=bool)
        # Weight cache: one slot per unordered pair (u, v) that has met, in
        # creation order; nodes[u].slots[v] and nodes[v].slots[u] both name
        # it.  Slot arrays have spare capacity beyond len(self._slot_win);
        # see _new_slot.
        self._slot_win: list[ContactWindow] = []
        for name, (dtype, fill) in _SLOT_ARRAYS.items():
            setattr(self, name, np.full(0, fill, dtype=dtype))
        #: every slot's weight at the last _compute_weights
        self._slot_weight = np.zeros(0)
        #: ``_slot_weight`` as a list, built on first read (None: not yet)
        self._weight_list: list[float] | None = None
        self._next_refresh = float("inf")
        w, threshold = config.window_size, config.threshold
        #: a slot is a friend while its gap integral is below this (the
        #: largest float stands in for threshold 0, or an overflowing W / threshold)
        self._friend_below = min(w / threshold, MAX_WEIGHT) if threshold > 0 else MAX_WEIGHT
        #: no slot crosses the threshold on a tick before this, unless a
        #: contact event changes a slot first (see _compute_weights)
        self._weigh_by = -math.inf

        # index of the next tick to simulate
        self._next_tick = 0
        self._hello_every = int(round(config.hello_period / config.tick))
        self._active: list[Simulation] = []
        #: whether the social layer runs; set when the timeline starts
        self._social = True
        self._schedules: dict[float, _Schedule] = {}

    def _trace_end(self, config: SimConfig) -> int:
        """Ticks of the trace a simulation of ``config`` may replay here.

        Raises unless such a simulation can still join this timeline.
        """
        if self._next_tick:
            raise RuntimeError("cannot attach a simulation to a timeline that has started")
        _check_joinable(self.cfg, config)
        end = self.trace.tick_count
        if self._generated:
            own = sample_count(trace_duration(config), config.tick)
            if own > end:
                raise ValueError(
                    f"ttl {config.ttl!r} needs {own} trace ticks; the timeline "
                    f"holds {end}"
                )
            end = own
        return end

    def _schedule(self, config: SimConfig) -> _Schedule:
        """The seeded workload at ``config.ttl``, drawn once per timeline."""
        schedule = self._schedules.get(config.ttl)
        if schedule is None:
            like = None
            if self._schedules:
                # the same draw at another TTL: same ids, endpoints and order
                like = next(iter(self._schedules.values()))
                messages = [replace(m, ttl=config.ttl) for m in like.messages]
            else:
                messages = schedule_messages(config)
            schedule = _Schedule.of(messages, config.tick, config.node_count, like)
            self._schedules[config.ttl] = schedule
        return schedule

    # -- weight cache ------------------------------------------------------------

    def _new_slot(self, u: NodeId, v: NodeId) -> int:
        slot = len(self._slot_win)
        if slot == len(self._row):
            size = max(16, 2 * slot)
            for name, (dtype, fill) in _SLOT_ARRAYS.items():
                grown = np.full(size, fill, dtype=dtype)
                grown[:slot] = getattr(self, name)
                setattr(self, name, grown)
        self.nodes[u].slots[v] = self.nodes[v].slots[u] = slot
        self._slot_win.append(ContactWindow(v, self.cfg.window_size))
        self._row[slot] = (u, v)
        return slot

    def _refresh_slot(self, slot: int, now: float) -> None:
        win = self._slot_win[slot]
        win.slide(now)
        state = win.weight_state(now)
        self._fs[slot] = state.first_start
        self._le[slot] = state.last_end
        self._mid[slot] = state.mid_sum
        self._open[slot] = state.open
        self._empty[slot] = state.empty
        self._refresh_at[slot] = state.next_refresh
        if state.next_refresh < self._next_refresh:
            self._next_refresh = state.next_refresh

    def _compute_weights(self, now: float, bound: bool) -> None:
        """Every slot's weight at ``now``, marking the slots that cross the
        threshold; with ``bound``, also the tick the next pass is due by."""
        k = len(self._slot_win)
        if not k:
            # only an event makes a slot, and an event brings a pass
            self._weigh_by = math.inf
            return
        w = self.cfg.window_size
        w0 = now - w
        empty = self._empty[:k]
        lead = np.where(empty, w, np.maximum(self._fs[:k] - w0, 0.0))
        trail = np.where(self._open[:k] | empty, 0.0, now - self._le[:k])
        integral = (0.5 * lead * lead + self._mid[:k]) + 0.5 * trail * trail
        weights = np.full_like(integral, MAX_WEIGHT)
        np.divide(w, integral, out=weights, where=integral > 0.0)
        self._slot_weight = weights
        self._weight_list = None
        if bound:
            # Until a slot's next contact event its gap integral is
            # continuous in time (a refresh only rewrites its decomposition)
            # and, as lead and trail stay in [0, W] with slopes -1 and +1
            # (or 0), moves by at most W a second: it cannot reach
            # _friend_below sooner than its distance over W.  The slack
            # covers rounding near the threshold; the tick of margin,
            # rounding in the time arithmetic.
            below = self._friend_below
            gap = float(np.abs(np.minimum(integral, MAX_WEIGHT) - below).min())
            self._weigh_by = now + (gap - 1e-9 * below) / w - self.cfg.tick
        else:
            # unbounded: the next tick's pass is due
            self._weigh_by = -math.inf
        friends = weights > self.cfg.threshold
        flipped = (friends != self._was_friend[:k]).nonzero()[0]
        if len(flipped):
            self._was_friend[flipped] = friends[flipped]
            # both ends' friend-slot maps change; mark them dirty and rebuild
            rows = self._row[flipped].ravel()
            self._dirty[rows] = True
            was_friend = self._was_friend
            for i in set(rows.tolist()):
                node = self.nodes[i]
                node.friends = {j: s for j, s in node.slots.items() if was_friend[s]}

    def _weights(self) -> list[float]:
        """Every slot's link weight at the last :meth:`_compute_weights`."""
        if self._weight_list is None:
            self._weight_list = self._slot_weight.tolist()
        return self._weight_list

    # -- tick phases -----------------------------------------------------------

    def _apply_contact_events(self, events: list[ContactEvent], now: float) -> None:
        for ev in events:
            u, v = ev.pair
            slot = self.nodes[u].slots.get(v)
            if slot is None:
                slot = self._new_slot(u, v)
                # a new peer changes both ends' maintain iteration sets even
                # without a threshold flip
                self._dirty[u] = self._dirty[v] = True
            win = self._slot_win[slot]
            if ev.kind is ContactEventKind.ENCOUNTER:
                win.record_encounter(ev.time)
            else:
                win.record_departure(ev.time)
            self._refresh_slot(slot, now)

    def _due_refreshes(self, now: float) -> None:
        if now <= self._next_refresh:
            return
        refresh_at = self._refresh_at[: len(self._slot_win)]
        for slot in np.flatnonzero(refresh_at < now).tolist():
            self._refresh_slot(slot, now)
        self._next_refresh = float(refresh_at.min())

    def _hello_and_maintain(
        self, pairs: list[tuple[NodeId, NodeId]], now: float
    ) -> None:
        nodes, dirty = self.nodes, self._dirty
        threshold = self.cfg.threshold
        # one payload per node per tick; its weight map holds the friends only
        payloads: dict[NodeId, HelloPayload] = {}
        # maintain reads the friend flags, the window key set and the staged
        # advertisements; the first two mark nodes dirty where they change,
        # and apply_hello reports a changed advertisement
        for u, v in pairs:
            for x, y in ((u, v), (v, u)):
                payload = payloads.get(x)
                if payload is None:
                    sender, weight = nodes[x], self._weights()
                    payload = payloads[x] = sender.view.make_hello(
                        {j: weight[s] for j, s in sender.friends.items()}
                    )
                if nodes[y].view.apply_hello(payload):
                    dirty[y] = True

        for i in np.flatnonzero(dirty).tolist():
            node = nodes[i]
            # slots are never retired, so their count tells a new peer, and
            # node.friends is replaced whenever the friends change
            dirty[i] = node.view.maintain(
                now,
                threshold=threshold,
                weights=_SlotWeights(self, node.slots),
                basis=(len(node.slots), node.friends),
            )

    # -- main loop -------------------------------------------------------------

    def _reads_social(self) -> bool:
        """Whether an active simulation's protocol reads weights or views."""
        return any(sim.cfg.protocol is not Protocol.EPIDEMIC for sim in self._active)

    def _run_until(self, target: "Simulation") -> None:
        """Advance in lockstep until ``target`` has finished."""
        if not self._next_tick:
            self._social = self._reads_social()
        while target._outcome is None:
            self._tick(self._next_tick)

    def _tick(self, idx: int) -> None:
        """Advance tick ``idx``: the shared phases, then every active
        simulation with work on it."""
        now = idx * self.cfg.tick
        try:
            events, pairs = self.tracker.update(idx, now)
            if self._social:
                self._social_phases(idx, now, events, pairs)
        except Exception as exc:
            # the shared state is now inconsistent for every simulation
            for sim in self._active:
                sim._finish(exc)
            self._active = []
            raise
        self._next_tick = idx + 1
        finished = False
        for sim in self._active:
            # a simulation's step on any other tick would change nothing: no
            # pair to route, no injection or expiry due, not its last tick
            if not (pairs or now >= sim._due or idx + 1 >= sim._end):
                continue
            try:
                finished |= sim._step(idx, now, pairs)
            except Exception as exc:
                sim._finish(exc)
                finished = True
        if finished:
            self._active = [sim for sim in self._active if sim._outcome is None]
            self._social = self._reads_social()

    def _social_phases(
        self,
        idx: int,
        now: float,
        events: list[ContactEvent],
        pairs: list[tuple[NodeId, NodeId]],
    ) -> None:
        """Windows, weights, hellos and maintain, each only where it can
        change something or is read.

        The weight pass runs on a tick with pairs (hellos and routing read
        the weights), a contact event (it changes a slot at once), a dirty
        node at a hello tick (maintain reads the weights) or a due skip
        bound (a slot may cross the threshold).  Hellos and maintain run on
        a hello tick with pairs or dirty nodes; on any other they do nothing.
        """
        hello = idx % self._hello_every == 0
        self._apply_contact_events(events, now)
        self._due_refreshes(now)
        dirty = self._dirty
        if pairs or events or now >= self._weigh_by or (hello and dirty.any()):
            # a pass on a tick with pairs leaves the next tick's pass due,
            # so only a pair-free tick pays for the bound
            self._compute_weights(now, bound=not pairs)
        if hello and (pairs or dirty.any()):
            self._hello_and_maintain(pairs, now)


def shared_timeline(configs: Sequence[SimConfig]) -> Timeline:
    """One timeline for simulations of ``configs``, which may differ only in
    ``protocol`` and ``ttl``; a generated trace covers the longest TTL."""
    if not configs:
        raise ValueError("need at least one config")
    for config in configs[1:]:
        _check_joinable(configs[0], config)
    return Timeline(max(configs, key=trace_duration))


class Simulation:
    """One seeded run.  Build it, call :meth:`run` once.

    ``held[i]`` and ``got[i]`` mask the messages node ``i`` buffers and has
    had delivered (see the module docstring).
    Without ``timeline`` the simulation gets a timeline of its own; with one
    (see :func:`shared_timeline`) it joins that timeline's lockstep pass, and
    ``trace`` must be left out.  ``nodes`` (views and weight slots) belong
    to the timeline, so after a grouped run they show the timeline's latest
    tick, which is this run's last tick when it finished last.  The timeline
    keeps them only while a protocol that reads them is running, so after
    an epidemic run alone each ``nodes[i].view`` holds only its owner and
    each ``nodes[i].slots`` is empty.  No contact log is kept: a fresh
    :class:`ContactTracker` over ``trace`` replays the run's contact events.
    """

    def __init__(
        self,
        config: SimConfig,
        trace: Trace | None = None,
        messages: Sequence[Message] | None = None,
        event_log: str | IO[str] | None = None,
        *,
        timeline: Timeline | None = None,
    ) -> None:
        config.check()
        if messages is not None:
            _check_messages(messages, config.node_count)
        self.cfg = config
        if timeline is None:
            timeline = Timeline(config, trace)
        elif trace is not None:
            raise ValueError("a simulation joining a timeline replays the timeline's trace")
        self._end = timeline._trace_end(config)
        schedule = (
            timeline._schedule(config)
            if messages is None
            else _Schedule.of(messages, config.tick, config.node_count)
        )
        self.timeline = timeline
        self.trace = timeline.trace
        self.nodes = timeline.nodes
        self.messages = schedule.messages
        self._schedule = schedule

        n = config.node_count
        # Masks, not sets: a sweep keeps every cell's simulation alive at
        # once, and a set (or a dict entry) per message would dominate its
        # memory.  _holders is held's transpose, per message rank.
        self.held = [0] * n
        self.got = [0] * n
        self.delivered: set[int] = set()
        self._holders = [0] * len(self.messages)
        self.total_forwards = 0
        self._unresolved = len(self.messages)
        self._next_inject = 0
        self._next_expiry = 0
        #: the earliest time an injection or an expiry is due
        self._due = min(schedule.inject_at[0], schedule.expire_at[0])
        self.now = 0.0
        self._ran = False
        #: the MetricsReport, or the exception the run ended with
        self._outcome: MetricsReport | Exception | None = None

        self._log_fh: IO[str] | None = None
        self._own_log = False
        if event_log is not None:
            if isinstance(event_log, str):
                self._log_fh = open(event_log, "w", encoding="ascii")
                self._own_log = True
            else:
                self._log_fh = event_log
            self._log_fh.write("time,event,msg_id,from,to\n")
        timeline._active.append(self)

    @property
    def holders(self) -> dict[int, set[NodeId]]:
        """Message id -> nodes buffering a copy, for every message injected."""
        return {
            m.id: set(bits(self._holders[self._schedule.rank[m.id]]))
            for m in self.messages[: self._next_inject]
        }

    # -- logging ---------------------------------------------------------------

    def _log(self, now: float, kind: str, msg_id: int, frm: int, to: int) -> None:
        if self._log_fh is not None:
            self._log_fh.write(f"{now!r},{kind},{msg_id},{frm},{to}\n")

    # -- routing phases ----------------------------------------------------------

    def _inject(self, now: float) -> None:
        schedule, k = self._schedule, self._next_inject
        while schedule.inject_at[k] <= now:
            r, src = schedule.inject_rank[k], schedule.inject_src[k]
            self._holders[r] = 1 << src
            self.held[src] |= 1 << r
            if self._log_fh is not None:
                m = self.messages[k]
                self._log(now, "GEN", m.id, src, m.dst)
            k += 1
        self._next_inject = k

    def _route(self, pairs: list[tuple[NodeId, NodeId]], now: float) -> None:
        protocol, held, got = self.cfg.protocol, self.held, self.got
        # routing never changes a node's weights or view, so one context per
        # node serves all of this tick's pairs
        contexts: dict[NodeId, RelayContext] = {}
        for u, v in pairs:
            for i, j in ((u, v), (v, u)):
                mine = held[i]
                if not mine:
                    continue
                missing = mine & ~(held[j] | got[j])
                if not missing:
                    continue
                ctx = contexts.get(i)
                if ctx is None:
                    ctx = contexts[i] = self._context(i)
                actions = decide(protocol, ctx, j, missing, now)
                self._apply_actions(i, j, actions, now)

    def _context(self, i: NodeId) -> RelayContext:
        """Node ``i``'s state as :func:`decide` reads it this tick."""
        ranked, toward = self._schedule.ranked, self._schedule.toward
        if self.cfg.protocol is Protocol.EPIDEMIC:
            # epidemic reads no weight or view
            return RelayContext(i, ranked, toward, _NO_WEIGHTS)
        view = self.nodes[i].view
        cb, ceb = view.my_centrality()
        return RelayContext(
            node=i,
            messages=ranked,
            toward=toward,
            own_weights=_SlotWeights(self.timeline, self.nodes[i].slots),
            own_cb=cb,
            own_ceb=ceb,
            members=view.graph.vertices,
            peer_weights=view.peer_weights,
            peer_centrality=view.peer_centrality,
            threshold=self.cfg.threshold,
        )

    def _apply_actions(
        self, i: NodeId, j: NodeId, actions: list[ForwardAction], now: float
    ) -> None:
        held, rank = self.held, self._schedule.rank
        for act in actions:
            mid = act.message_id
            r = rank[mid]
            self.total_forwards += 1
            if act.action is Action.DELIVER:
                self._log(now, "DLV", mid, i, j)
                # once only: no later contact's missing mask has it (got)
                self.got[j] |= 1 << r
                self.delivered.add(mid)
                # resolved: a delivered message is never counted at expiry
                self._unresolved -= 1
            else:
                # never the destination: decide delivers to it instead
                self._log(now, "FWD", mid, i, j)
                held[j] |= 1 << r
                self._holders[r] |= 1 << j
                if act.action is Action.FORWARD_AND_DELETE:
                    held[i] &= ~(1 << r)
                    self._holders[r] &= ~(1 << i)

    def _expire(self, now: float) -> None:
        schedule, k = self._schedule, self._next_expiry
        while schedule.expire_at[k] <= now:
            r = schedule.expire_rank[k]
            mid = schedule.ranked[r].id
            keep = ~(1 << r)
            for holder in bits(self._holders[r]):  # ascending node id
                self.held[holder] &= keep
                if self._log_fh is not None:
                    self._log(now, "EXP", mid, holder, -1)
            self._holders[r] = 0
            # resolved: no copy is left, so it can never be delivered now
            if mid not in self.delivered:
                self._unresolved -= 1
            k += 1
        self._next_expiry = k

    def _step(self, idx: int, now: float, pairs: list[tuple[NodeId, NodeId]]) -> bool:
        """Route one tick of the timeline; True once this run has ended."""
        self.now = now
        self._inject(now)
        if pairs:
            self._route(pairs, now)
        self._expire(now)
        schedule = self._schedule
        self._due = min(
            schedule.inject_at[self._next_inject], schedule.expire_at[self._next_expiry]
        )
        if self._unresolved == 0:
            self._finish(self._metrics())
        elif idx + 1 >= self._end:
            self._finish(
                TraceExhaustedError(
                    f"trace ended with {self._unresolved} undecided messages"
                )
            )
        return self._outcome is not None

    def _finish(self, outcome: MetricsReport | Exception) -> None:
        self._outcome = outcome
        if self._log_fh is not None:
            self._log_fh.flush()
            if self._own_log:
                self._log_fh.close()

    def run(self) -> MetricsReport:
        """Advance the timeline until this run ends; its report.

        Raises :class:`TraceExhaustedError` when the trace ends first, and
        RuntimeError when called a second time.
        """
        if self._ran:
            raise RuntimeError("Simulation.run() may be called only once")
        self._ran = True
        if self._outcome is None:
            self.timeline._run_until(self)
        if isinstance(self._outcome, Exception):
            raise self._outcome
        return self._outcome

    def _metrics(self) -> MetricsReport:
        generated = len(self.messages)
        delivered = len(self.delivered)
        ratio = delivered / generated
        cost = self.total_forwards / generated
        defined = cost > 0
        efficiency = ratio / cost if defined else 0.0
        return MetricsReport(
            generated=generated,
            delivered=delivered,
            total_forwards=self.total_forwards,
            delivery_ratio=ratio,
            delivery_cost=cost,
            delivery_efficiency=efficiency,
            efficiency_defined=defined,
        )


def run(
    config: SimConfig,
    trace: Trace | None = None,
    messages: Sequence[Message] | None = None,
    event_log: str | IO[str] | None = None,
) -> MetricsReport:
    """Run one simulation to completion."""
    return Simulation(config, trace=trace, messages=messages, event_log=event_log).run()


def summarize(reports: Sequence[MetricsReport]) -> ReplicateReport:
    """Arithmetic means of the three metrics over per-run reports."""
    if not reports:
        raise ValueError("need at least one report")
    def mean(values):
        return sum(values) / len(values)
    return ReplicateReport(
        runs=tuple(reports),
        delivery_ratio=mean([r.delivery_ratio for r in reports]),
        delivery_cost=mean([r.delivery_cost for r in reports]),
        delivery_efficiency=mean([r.delivery_efficiency for r in reports]),
        efficiency_defined=all(r.efficiency_defined for r in reports),
    )


def replicate(config: SimConfig, runs: int) -> ReplicateReport:
    """Average ``runs`` independent runs seeded seed+0 .. seed+runs-1."""
    if runs < 1:
        raise ValueError("runs must be at least 1")
    return summarize([run(replace(config, seed=config.seed + k)) for k in range(runs)])
