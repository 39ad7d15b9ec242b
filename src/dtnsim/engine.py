"""Deterministic tick-stepped simulation of store-carry-forward routing.

A run has two parts.  A :class:`Timeline` holds what depends on neither the
routing protocol nor the TTL: the trace, contact detection, the contact
windows, the link-weight cache, and the per-node social views with the
hello/maintain pass.  A :class:`Simulation` holds one configuration's
routing state: message masks (see below), injection, expiry, metrics and
the event log.  Routing never feeds back into the timeline, so
the sweep cells that differ only in ``protocol`` and ``ttl`` share one
timeline and run in lockstep: each tick the timeline advances once, then
steps every attached simulation that has not finished and routes or may end
on the tick: a tick with in-range pairs, its settle tick (the expiry tick
of its last message not delivered, where it resolves its last message
unless a delivery did first) or its last trace tick.  A step reads what
every tick up to now injected, expired and turned stale from the
workload's lanes (see below), so it needs no catch-up of the ticks it
skipped; a logged step writes the GEN and EXP lines of each skipped tick,
oldest first, at that tick's time.  No message moves between steps and a
message expires on a later tick than it is injected, so each step routes
on the masks that a run stepped on every tick would route on, and each run
ends on the same tick.
No per-tick state is stored.  A Simulation built without a timeline gets
one of its own, which is the same code path.

Each tick: advance positions, detect contacts (first-hello encounter,
missed-hello departure) and update contact windows; where needed (see
below) compute the link weights, exchange hellos and maintain the per-node
social views; then, for each attached simulation that steps on the tick,
run the forwarding protocol over every in-range pair in ascending pair
order on the live messages, and expire TTLs.  A simulation ends
when every generated message has been delivered or has no live copy
anywhere; it fails when its own trace (for a generated trace, the length
its TTL needs) ends first.

The social layer (contact windows, weight cache, hello/maintain) runs only
while an unfinished attached simulation's protocol reads it.  Epidemic
reads none of it, so a timeline whose active simulations are all epidemic
only detects contacts and routes.  Nothing attaches once a timeline has
started, so the layer, once off, stays off.

Contact detection never looks at all n^2 pairs of a tick.  It runs over a
block of consecutive ticks of the trace at a time, and starts with a broad
phase: each node's bounding box over the block, padded by the range, and
the pairs whose boxes overlap on x and on y (one sort and one search over
the box minima).  A block with at most as many such pairs as nodes, as in
a sparse arena, gets the exact squared-distance test on those pairs alone,
at every tick of the block.  Any other block, where nodes crowd or roam,
takes a sort on x at every tick and a sweep over the x neighbours within
range, keeping the pairs whose x gap and y gap are both within range, and
the exact test on those, in a fixed number of array operations per sweep
offset.  Both candidate sets are conservative supersets.  Both paths stay
because each is the faster one on some input: the box path where boxes
rarely overlap, the sweep where they overlap widely.  The
encounter/departure state machine advances tick by tick and keeps state
for open contacts only, so a tick with neither pairs nor open contacts
costs it nothing.

Routing state is Python-int bitmasks, bit ``r`` standing for the r-th
message in ascending id order: per node the messages it buffers (``held``)
and those delivered to it (``got``), and per destination those addressed
to it (``toward``).  A timeline draws its workload once and every TTL
shares the draw: the ranks, ``toward``, the injection lane (each message's
injection tick, in injection order) and the table ``born[k]`` of the ranks
of the first k injections.  A TTL adds two lanes of tick indices, expiry
and the first stale tick, which at one TTL keep the injection order and
so index the same table.  A bisect on a lane and a table read give the
messages injected, expired or stale by any tick, and a step routes on
``held[i] & live``, with ``live = born & ~(stale | expired)``.  Each node's
``held`` mask starts with the messages it creates and is never cleared of
a message that expires, since nothing moves a message that is not live.
A contact of ``i`` with ``j`` may move the live messages of ``held[i] &
~(held[j] | got[j])``.  A run has resolved every message when ``delivered
| expired`` holds them all.

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

Hellos stand while a pair stays in range, so a hello phase pays per change,
not per in-range pair.  Each node that has peers in range refreshes one
standing handle, its friends' weights, in place once per hello phase, and
every in-range receiver holds that handle as its ``peer_weights`` entry; a
receiver hears ``apply_hello`` only when its pair starts (it was not in
range at the last hello phase), when the sender's payload changes (its
view's stamp moved) or when its last maintain dropped the staged
advertisement of a sender still in range.  At the first hello phase after a
pair leaves range, before any handle is refreshed, each end's handle is
replaced by a copy: the weights of the pair's last hello.  The views then
hold what a hello from every in-range pair on every hello tick would leave.
Each simulation builds a node's routing context once per view stamp: every
container in it is live, and only its centralities follow the stamp.
"""

from __future__ import annotations

import enum
import math
import numbers
from bisect import bisect_right
from collections.abc import Mapping
from dataclasses import dataclass, fields, replace
from typing import IO, Iterator, Sequence

import numpy as np

from dtnsim.contacts import MAX_WEIGHT, ContactWindow
from dtnsim.graph import NodeId
from dtnsim.mobility import (
    BLOCK_SAMPLES,
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
        # a ratio that rounds to 0 would make hellos due every 0 ticks
        ratio = self.hello_period / self.tick
        if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
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


class ContactTracker:
    """Pairwise encounter/departure state machine over a position trace.

    A pair enters contact at the first tick within range (the first hello)
    and leaves it after ``missed_hello_limit`` consecutive ticks out of
    range, with the departure stamped at the first missed tick.

    Only open contacts are stored.  The in-range pairs are found a block of
    consecutive ticks at a time (see :data:`BLOCK_SAMPLES`), by one of two
    paths, each of which finds a conservative superset of the in-range
    pairs and applies the exact squared-distance test to it alone:

    * Box path: each node's bounding box over the block, padded by the
      sweep's reach, and the pairs whose boxes overlap on x and on y, from
      one sort of the box minima on x and one search for each node's run
      of x overlaps.  The exact test runs on those pairs at every tick.
    * Sweep: one sort of every tick's nodes by x, then a sweep over growing
      sorted-order offsets that keeps the pairs whose x gap and y gap are
      both within range.  It stops at the first offset where no tick has a
      pair within range on x, and each offset is a fixed number of array
      operations over the whole block.

    A block takes the box path when its boxes overlap in at most as many
    pairs as there are nodes (a sparse block: the paper's 200 nodes with a
    3 m range in 1000x1500 m), and the sweep otherwise (crowded or roaming
    nodes, whose boxes overlap in nearly every pair).  Each path is the
    faster on its own side of that rule, so both stay, and the rule reads
    the block alone.  A block whose boxes overlap on x alone in more pairs
    than it has node samples also takes the sweep, so that no array of the
    box path outgrows the block.
    """

    def __init__(
        self, positions: np.ndarray, comm_range: float, missed_hello_limit: int
    ) -> None:
        """``positions[tick, node] -> (x, y)``, finite: the sweep orders nodes by x."""
        self.positions = positions
        self.range_sq = comm_range * comm_range
        self.limit = missed_hello_limit
        # Reach on x and y of the sweep and of the boxes.  A pair passing the
        # exact test has fl(dx*dx) <= range_sq and fl(dy*dy) <= range_sq (a
        # sum of two non-negative terms rounds to no less than either), so
        # each gap is at most sqrt(range_sq) times (1 + a few ulps), plus
        # under 1e-161 where its square underflows.  The padding covers both:
        # either path may admit extra candidates but never drops an in-range
        # pair.
        self.reach = math.sqrt(self.range_sq) * (1.0 + 1e-9) + 1e-150
        #: ticks per detection block
        self.block_ticks = max(1, BLOCK_SAMPLES // max(1, positions.shape[1]))
        #: in-range pairs of ticks block_start, block_start + 1, ...
        self._block: list[list[tuple[NodeId, NodeId]]] = []
        self._block_start = 0
        #: open contacts: (u, v) with u < v -> [consecutive misses, first miss]
        self.open: dict[tuple[NodeId, NodeId], list] = {}

    def _detect(self, start: int) -> None:
        """In-range pairs, ascending ``(u, v)`` with ``u < v``, of each tick
        of the block starting at ``start``."""
        block = self.positions[start : start + self.block_ticks]
        candidates = self._box_candidates(block)
        if candidates is None:
            row, u, v = self._sweep_pairs(block)
        else:
            row, u, v = self._box_pairs(block, *candidates)
        pairs = list(zip(u.tolist(), v.tolist()))
        ends = np.cumsum(np.bincount(row, minlength=len(block))).tolist()
        self._block = [pairs[s:e] for s, e in zip([0] + ends, ends)]
        self._block_start = start

    def _box_candidates(self, block: np.ndarray):
        """Pairs ``(u, v)``, ``u < v``, ascending, whose bounding boxes over
        the block, each padded by ``reach``, overlap on both x and y; None
        (take the sweep) when there are more of them than nodes, or more
        overlaps on x alone than the block has node samples.

        Conservative, with ``lo`` and ``hi`` a box's corners before padding:
        if a pair passes the exact test at tick t, then ``lo_b <= x_b(t) <=
        fl(x_a(t) + reach)`` (the reach argument in ``__init__``) ``<=
        fl(hi_a + reach)`` (rounding is monotonic); the same holds with a
        and b swapped, and on y.
        """
        ticks, n = block.shape[:2]
        (lo_x, lo_y), (top_x, top_y) = block.min(axis=0).T, (block.max(axis=0) + self.reach).T
        # With nodes ranked by box minimum on x, the boxes of p < q overlap
        # on x iff lo_x[q] <= top_x[p] (lo_x[p] <= lo_x[q] <= top_x[q]
        # holds anyway), so p's x overlaps form the run p + 1 ... end[p] - 1.
        order = np.argsort(lo_x)
        end = np.searchsorted(lo_x[order], top_x[order], side="right")
        runs = end - np.arange(1, n + 1)
        total = int(runs.sum())
        # no array here may outgrow the block, as the sweep's do not
        if total > ticks * n:
            return None
        p = np.repeat(np.arange(n), runs)
        q = np.arange(total) + np.repeat(end - np.cumsum(runs), runs)
        a, b = order[p], order[q]
        keep = (lo_y[b] <= top_y[a]) & (lo_y[a] <= top_y[b])
        if np.count_nonzero(keep) > n:
            return None
        a, b = a[keep], b[keep]
        u, v = np.minimum(a, b), np.maximum(a, b)
        ranked = np.lexsort((v, u))
        return u[ranked], v[ranked]

    def _box_pairs(self, block: np.ndarray, u: np.ndarray, v: np.ndarray):
        """``(tick, u, v)`` of the candidates within range at each tick of
        the block, by the exact test; in that order, as the candidates are
        ascending."""
        d = np.take(block, u, axis=1) - np.take(block, v, axis=1)
        d *= d
        # the two squares added x then y, as the sweep adds them: the bits
        # of (d * d).sum(axis=1), which costs several times more over a
        # length-2 axis
        near = d[..., 0] + d[..., 1] <= self.range_sq
        row, c = np.divmod(np.flatnonzero(near), len(u))
        return row, u[c], v[c]

    def _sweep_pairs(self, block: np.ndarray):
        """``(tick, u, v)`` of the block's in-range pairs, ascending, by a
        sort on x and a sweep over growing sorted-order offsets."""
        ticks, n = block.shape[:2]
        # Ties in x may sort either way: each unordered pair still sits at
        # exactly one offset, and the pairs are ranked below.
        order = np.argsort(block[:, :, 0], axis=1)
        # each tick's positions in x order
        by_x = np.take(block.reshape(-1, 2), order + np.arange(0, ticks * n, n)[:, None], axis=0)
        xs, ys = by_x[:, :, 0], by_x[:, :, 1]
        # flat views, gathered from by np.take, which costs less than fancy
        # indexing on (row, p)
        flat, flat_order = by_x.reshape(-1, 2), order.ravel()
        reach = xs + self.reach
        # Sorted position p pairs with q = p + k when xs[q] <= xs[p] + reach
        # and |ys[q] - ys[p]| <= reach, the magnitude of the exact test's y
        # difference.  Rows are sorted on x, so once no row has an x
        # candidate at offset k none has one at a larger offset.
        none = np.empty(0, dtype=np.intp)
        rows, firsts, seconds = [none], [none], [none]
        for k in range(1, n):
            near = xs[:, k:] <= reach[:, :-k]
            if not near.any():
                break
            near &= np.abs(ys[:, k:] - ys[:, :-k]) <= self.reach
            # np.nonzero of a 2-d mask costs several times more
            row, p = np.divmod(np.flatnonzero(near), n - k)
            at = row * n + p
            # squares are exact under negation, so the orientation of d is
            # moot; the squares added x then y, as in _box_pairs
            d = np.take(flat, at, axis=0) - np.take(flat, at + k, axis=0)
            d *= d
            hit = d[:, 0] + d[:, 1] <= self.range_sq
            at = at[hit]
            rows.append(row[hit])
            firsts.append(np.take(flat_order, at))
            seconds.append(np.take(flat_order, at + k))
        row = np.concatenate(rows)
        a = np.concatenate(firsts)
        b = np.concatenate(seconds)
        u, v = np.minimum(a, b), np.maximum(a, b)
        ranked = np.lexsort((v, u, row))
        return row[ranked], u[ranked], v[ranked]

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
    """Raise ValueError on an empty workload or naming the first message
    with a bad field."""
    if not messages:
        raise ValueError("the message workload is empty: a run needs at least one message")
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


#: a lane tick index no trace reaches; every product ``i * tick`` up to it is
#: a float computed exactly from ``i``
_NEVER = 2**53


def _first_ticks(reached, start: np.ndarray, tick: float) -> np.ndarray:
    """Per element, the least tick index ``i >= 0`` (at most :data:`_NEVER`)
    at which ``reached(i * tick)`` holds, for a ``reached`` that, once it
    holds, holds at every later time; searched from the estimate ``start``.

    ``i * tick`` is computed as :meth:`Timeline._tick` computes ``now``, and
    the search steps one tick at a time, so each index is the one that
    scanning the tick grid finds."""
    with np.errstate(over="ignore", invalid="ignore"):
        i = np.clip(np.ceil(start / tick), 0, _NEVER).astype(np.int64)
        while True:
            back = (i > 0) & reached((i - 1) * tick)
            if not back.any():
                break
            i -= back
        while True:
            ahead = (i < _NEVER) & ~reached(i * tick)
            if not ahead.any():
                return i
            i += ahead


def _prefix_masks(ranks: Sequence[int]) -> list[int]:
    """``masks[k]``: the mask of ``ranks[:k]``, for ``k = 0 .. len(ranks)``."""
    masks, acc = [0], 0
    for r in ranks:
        acc |= 1 << r
        masks.append(acc)
    return masks


@dataclass(frozen=True)
class _Lane:
    """Messages in the order they fall due.

    The k-th falls due at tick index ``at[k]`` (ascending, then an ``inf``
    sentinel) and has rank ``rank[k]``; ``due[k]`` masks the ranks of the
    first k.  So ``bisect_right(at, i)`` messages fall due by tick ``i``,
    and ``due`` at that index masks them: a bisect and a table read.
    """

    at: list
    rank: list[int]
    due: list[int]


@dataclass(frozen=True)
class _Schedule:
    """One drawn message workload, shared by every TTL it runs at.

    ``messages`` holds it in injection order (creation time, then id) and
    ``ranked`` by rank (ascending id); ``rank`` maps an id to its rank,
    ``toward[d]`` masks the ranks of the messages addressed to node ``d``
    and ``sources[s]`` those that node ``s`` creates.  The ``inject`` lane
    takes the messages in injection order, each due at the first tick
    ``i >= 0`` with ``created_at <= i * tick``; its ``due`` table, the
    ranks of the first k injections, is the table that every lane in the
    same order shares.  A TTL adds only the two lanes of :meth:`lanes`.
    """

    messages: list[Message]
    ranked: list[Message]
    rank: dict[int, int]
    toward: list[int]
    sources: list[int]
    inject: _Lane
    tick: float
    #: each message's creation time, in injection order
    created: np.ndarray

    @classmethod
    def of(cls, messages: Sequence[Message], tick: float, node_count: int) -> "_Schedule":
        ordered = sorted(messages, key=lambda m: (m.created_at, m.id))
        ranked = sorted(ordered, key=lambda m: m.id)
        rank = {m.id: r for r, m in enumerate(ranked)}
        toward, sources = [0] * node_count, [0] * node_count
        for r, m in enumerate(ranked):
            toward[m.dst] |= 1 << r
            sources[m.src] |= 1 << r
        created = np.array([m.created_at for m in ordered], dtype=float)
        at = _first_ticks(lambda now: created <= now, created, tick)
        ranks = [rank[m.id] for m in ordered]
        inject = _Lane(at.tolist() + [math.inf], ranks, _prefix_masks(ranks))
        return cls(ordered, ranked, rank, toward, sources, inject, tick, created)

    def _lane(self, at: np.ndarray, order: np.ndarray) -> _Lane:
        """The messages due at tick ``at`` (injection order), in ``order``;
        it shares the injection lane's table where ``order`` keeps theirs."""
        at = at[order].tolist() + [math.inf]
        if np.array_equal(order, np.arange(len(order))):
            return _Lane(at, self.inject.rank, self.inject.due)
        ranks = [self.inject.rank[k] for k in order.tolist()]
        return _Lane(at, ranks, _prefix_masks(ranks))

    def lanes(self, ttl: float | np.ndarray) -> tuple[_Lane, _Lane]:
        """The expiry and stale lanes at ``ttl``, one TTL or each message's
        (in injection order).

        A message expires on the first tick ``i`` with ``created_at + ttl +
        tick <= i * tick``; expiries due together are taken, as their EXP
        lines are written, by that time and then by id.  It turns stale,
        and routing stops moving it, on the first tick with ``i * tick -
        created_at > ttl`` (where :meth:`Message.is_live` turns False).
        At one TTL both lanes keep the injection order, so both share its
        table, unless two expiry times that differ before rounding are
        equal after it.
        """
        created, tick = self.created, self.tick
        with np.errstate(over="ignore", invalid="ignore"):
            expire_at = created + ttl + tick
            stale_at = created + ttl
        expiry = self._lane(
            _first_ticks(lambda now: expire_at <= now, expire_at, tick),
            # ranks ascend with ids
            np.lexsort((self.inject.rank, expire_at)),
        )
        stale = _first_ticks(lambda now: now - created > ttl, stale_at, tick)
        return expiry, self._lane(stale, np.argsort(stale, kind="stable"))


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
    __slots__ = ("id", "view", "slots", "friends", "hearers", "standing", "payload", "stamp")

    def __init__(self, node_id: NodeId) -> None:
        self.id = node_id
        self.view = SocialNetworkView(node_id)
        #: peer -> weight-cache slot, shared with the peer's entry for this node
        self.slots: dict[NodeId, int] = {}
        #: the entries of ``slots`` whose weight is above the threshold, in
        #: slot order; replaced, never edited, when the friends change
        self.friends: dict[NodeId, int] = {}
        #: the peers in range at the last hello phase
        self.hearers: set[NodeId] = set()
        #: the standing handle: the friends' weights at the last hello phase
        #: with hearers, refreshed in place; the hearers' views hold it
        self.standing: dict[NodeId, float] = {}
        #: the payload its hearers last heard, and the view stamp it was built at
        self.payload: HelloPayload | None = None
        self.stamp: tuple | None = None


class _SlotWeights(Mapping):
    """A node's ``{peer: weight}``, read from the slot cache on access.

    Every access reads the weights of the timeline's last weight pass and
    the node's current slots, so one may be kept across ticks.
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
    has not finished on the ticks with pairs, its settle tick and its last
    tick, until that simulation's own run ends.  Build one for a group of
    configs with :func:`shared_timeline`.

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

        #: the nodes the next hello phase maintains
        self._dirty: set[NodeId] = set()
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
        #: the seeded workload, drawn once, and its lanes per TTL
        self._draw: _Schedule | None = None
        self._lanes: dict[float, tuple[_Lane, _Lane]] = {}
        #: the pairs in range at the last hello phase, the nodes among them,
        #: and the (sender, receiver) pairs whose staged advertisement the
        #: last maintain dropped while they were in range
        self._heard: set[tuple[NodeId, NodeId]] = set()
        self._speakers: set[NodeId] = set()
        self._restage: list[tuple[NodeId, NodeId]] = []
        #: no active simulation steps on a pair-free tick before the earliest
        #: settle tick or last tick among them (see _tick)
        self._wake_at = self._wake_end = -math.inf

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

    def _schedule(self, config: SimConfig) -> tuple[_Schedule, tuple[_Lane, _Lane]]:
        """The seeded workload, drawn once per timeline, and its lanes at
        ``config.ttl``."""
        if self._draw is None:
            self._draw = _Schedule.of(schedule_messages(config), config.tick, config.node_count)
        lanes = self._lanes.get(config.ttl)
        if lanes is None:
            lanes = self._lanes[config.ttl] = self._draw.lanes(config.ttl)
        return self._draw, lanes

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
            rows = set(self._row[flipped].ravel().tolist())
            self._dirty |= rows
            was_friend = self._was_friend
            for i in rows:
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
                self._dirty.update((u, v))
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
        """Standing hellos, then maintain the dirty nodes.

        A hello reaches a receiver only where it can change the receiver's
        view caches: a pair that starts (it was not in range at the last
        hello phase), a sender whose payload changed (its view's stamp), and
        a sender still in range whose staged advertisement the receiver's
        last maintain dropped.  Every other in-range pair would store the
        same record and advertisement again, and the same weights, which
        the receiver already holds as the sender's standing handle: each
        speaking node refreshes it in place once per hello phase.  First,
        though, a pair that left range freezes the handle its ends hold,
        at its last refresh: the weights of the pair's last hello.
        """
        nodes, dirty = self.nodes, self._dirty
        current, heard = set(pairs), self._heard
        # (sender, receiver) pairs that hear the sender's payload this phase
        sends: list[tuple[NodeId, NodeId]] = []
        if current != heard:
            speakers = self._speakers
            for u, v in heard - current:
                for x, y in ((u, v), (v, u)):
                    hearers = nodes[x].hearers
                    hearers.discard(y)
                    if not hearers:
                        speakers.discard(x)
                    cache = nodes[y].view.peer_weights
                    cache[x] = dict(cache[x])
            for u, v in current - heard:
                nodes[u].hearers.add(v)
                nodes[v].hearers.add(u)
                speakers.add(u)
                speakers.add(v)
                sends.append((u, v))
                sends.append((v, u))
            self._heard = current
        # what the last maintain dropped is staged again if still in range
        dropped, self._restage = self._restage, []
        for x, y in dropped:
            if y in nodes[x].hearers:
                sends.append((x, y))
        if current:
            weight = self._weights()
            for x in self._speakers:
                node = nodes[x]
                standing = node.standing
                standing.clear()
                for j, s in node.friends.items():
                    standing[j] = weight[s]
                stamp = node.view.stamp()
                if stamp != node.stamp:
                    node.payload = node.view.make_hello(standing)
                    node.stamp = stamp
                    sends.extend((x, y) for y in node.hearers)
            for x, y in sends:
                if nodes[y].view.apply_hello(nodes[x].payload):
                    dirty.add(y)

        threshold = self.cfg.threshold
        restage = self._restage
        for i in sorted(dirty):
            node = nodes[i]
            view = node.view
            # slots are never retired, so their count tells a new peer, and
            # node.friends is replaced whenever the friends change
            if not view.maintain(
                now,
                threshold=threshold,
                weights=_SlotWeights(self, node.slots),
                basis=(len(node.slots), node.friends),
            ):
                dirty.discard(i)
            staged = view._advertised
            for x in node.hearers:
                if x not in staged:
                    restage.append((x, i))

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
        # a pair-free tick steps no simulation before the earliest settle
        # tick or last tick among them
        if not (pairs or idx >= self._wake_at or idx + 1 >= self._wake_end):
            return
        finished, wake_at, wake_end = False, math.inf, math.inf
        for sim in self._active:
            # a simulation steps only where it routes or may end: a tick with
            # pairs, its settle tick or its last tick; the step reads the
            # injections and expiries of the ticks it skipped from its lanes
            if pairs or idx >= sim._settle or idx + 1 >= sim._end:
                try:
                    finished |= sim._step(idx, now, pairs)
                except Exception as exc:
                    sim._finish(exc)
                    finished = True
            # a step moves a settle tick only where it delivers; one that
            # finished only makes the next pair-free tick check again
            if sim._settle < wake_at:
                wake_at = sim._settle
            if sim._end < wake_end:
                wake_end = sim._end
        self._wake_at, self._wake_end = wake_at, wake_end
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
        if pairs or events or now >= self._weigh_by or (hello and dirty):
            # a pass on a tick with pairs leaves the next tick's pass due,
            # so only a pair-free tick pays for the bound
            self._compute_weights(now, bound=not pairs)
        if hello and (pairs or dirty):
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

    :attr:`held` and ``got[i]`` mask the messages node ``i`` buffers and has
    had delivered (see the module docstring).  A simulation steps only on
    some ticks and reads what the rest did on its next step, so mid-run
    :attr:`held`, ``got``, :attr:`holders`, :attr:`delivered` and ``now``
    show its last step; after :meth:`run` they are what they would be had it
    stepped on every tick.  :attr:`messages` is the workload in injection
    order: the messages given, or the timeline's draw at this run's TTL.
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
        if messages is None:
            schedule, (self._expiry, self._stale) = timeline._schedule(config)
            # the drawn messages carry the TTL of the config that drew them
            own = schedule.messages[0].ttl == config.ttl
        else:
            schedule = _Schedule.of(messages, config.tick, config.node_count)
            self._expiry, self._stale = schedule.lanes(
                np.array([m.ttl for m in schedule.messages], dtype=float)
            )
            own = True
        self.timeline = timeline
        self.trace = timeline.trace
        self.nodes = timeline.nodes
        self._schedule = schedule
        #: ``messages``, or None until it is first read
        self._messages = schedule.messages if own else None

        n = config.node_count
        # Masks, not sets: a sweep keeps every cell's simulation alive at
        # once, and a set (or a dict entry) per message would dominate its
        # memory.  Each node's mask starts with the messages it creates; a
        # step reads only the live ones (see _step).
        self._held = list(schedule.sources)
        self.got = [0] * n
        #: the delivered messages, as a mask of ranks
        self._delivered = 0
        #: per node, (view stamp, RelayContext) as last built (see _relay_context)
        self._contexts: list[tuple[tuple | None, RelayContext] | None] = [None] * n
        self.total_forwards = 0
        #: messages injected, expired and stale by the last step, as counts
        #: of their lanes, and the messages logged so far by GEN and EXP lines
        self._injected = self._expired = self._staled = 0
        self._gens = self._exps = 0
        #: the expiry-lane index of the last message not delivered
        self._last_live = len(schedule.ranked) - 1
        #: its expiry tick: unless deliveries resolve every message first,
        #: the run resolves its last one on this tick
        self._settle = self._expiry.at[self._last_live]
        self.now = 0.0
        #: the index of the last tick stepped
        self._stepped = -1
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
    def messages(self) -> list[Message]:
        """The workload in injection order (creation time, then id)."""
        if self._messages is None:
            ttl = self.cfg.ttl
            self._messages = [
                Message(m.id, m.src, m.dst, m.created_at, ttl) for m in self._schedule.messages
            ]
        return self._messages

    @property
    def held(self) -> list[int]:
        """Per node, the mask of the messages it buffers, as of the last step."""
        present = self._schedule.inject.due[self._injected] & ~self._expiry.due[self._expired]
        return [mask & present for mask in self._held]

    @property
    def holders(self) -> dict[int, set[NodeId]]:
        """Message id -> nodes buffering a copy, for every message injected,
        as of the last step (see the class docstring)."""
        held, ranked = self.held, self._schedule.ranked
        return {
            ranked[r].id: {i for i, mask in enumerate(held) if mask >> r & 1}
            for r in bits(self._schedule.inject.due[self._injected])
        }

    @property
    def delivered(self) -> set[int]:
        """The ids of the messages delivered, as of the last step."""
        ranked = self._schedule.ranked
        return {ranked[r].id for r in bits(self._delivered)}

    @property
    def _unresolved(self) -> int:
        """Messages neither delivered nor expired, as of the last step."""
        resolved = self._delivered | self._expiry.due[self._expired]
        return len(self._schedule.ranked) - resolved.bit_count()

    # -- logging ---------------------------------------------------------------

    def _log(self, now: float, kind: str, msg_id: int, frm: int, to: int) -> None:
        if self._log_fh is not None:
            self._log_fh.write(f"{now!r},{kind},{msg_id},{frm},{to}\n")

    def _log_injections(self, idx: int) -> None:
        """The GEN line of each message injected on tick ``idx``."""
        k = self._gens
        end = bisect_right(self._schedule.inject.at, idx, k)
        if end > k:
            now, write = idx * self.cfg.tick, self._log_fh.write
            for m in self._schedule.messages[k:end]:
                write(f"{now!r},GEN,{m.id},{m.src},{m.dst}\n")
            self._gens = end

    def _log_expiries(self, idx: int) -> None:
        """The EXP lines of each message expiring on tick ``idx``, one per
        node holding it, ascending."""
        k, lane = self._exps, self._expiry
        end = bisect_right(lane.at, idx, k)
        if end > k:
            by, write = idx * self.cfg.tick, self._log_fh.write
            held, ranked = self._held, self._schedule.ranked
            for r in lane.rank[k:end]:
                mid = ranked[r].id
                for i, mask in enumerate(held):
                    if mask >> r & 1:
                        write(f"{by!r},EXP,{mid},{i},-1\n")
            self._exps = end

    # -- routing phases ----------------------------------------------------------

    def _route(self, pairs: list[tuple[NodeId, NodeId]], now: float, live: int) -> None:
        protocol, held, got = self.cfg.protocol, self._held, self.got
        for u, v in pairs:
            for i, j in ((u, v), (v, u)):
                mine = held[i] & live
                if not mine:
                    continue
                missing = mine & ~(held[j] | got[j])
                if not missing:
                    continue
                actions = decide(protocol, self._relay_context(i), j, missing)
                self._apply_actions(i, j, actions, now)

    def _relay_context(self, i: NodeId) -> RelayContext:
        """Node ``i``'s context, built once per view stamp.

        Every container a context holds is live (the view's caches and
        vertex set, a view of the node's weight slots), so only its
        centralities can go stale, and they change only with the stamp.
        Routing never changes a node's weights or view, so one context
        serves every pair of a tick, and every tick up to the stamp's next
        change.
        """
        # epidemic's context reads no view, so it never goes stale
        epidemic = self.cfg.protocol is Protocol.EPIDEMIC
        stamp = None if epidemic else self.nodes[i].view.stamp()
        cached = self._contexts[i]
        if cached is None or cached[0] != stamp:
            cached = self._contexts[i] = (stamp, self._context(i))
        return cached[1]

    def _context(self, i: NodeId) -> RelayContext:
        """Node ``i``'s state as :func:`decide` reads it, built afresh."""
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
        held, rank = self._held, self._schedule.rank
        for act in actions:
            mid = act.message_id
            r = rank[mid]
            self.total_forwards += 1
            if act.action is Action.DELIVER:
                self._log(now, "DLV", mid, i, j)
                # once only: no later contact's missing mask has it (got)
                self.got[j] |= 1 << r
                self._delivered |= 1 << r
            else:
                # never the destination: decide delivers to it instead
                self._log(now, "FWD", mid, i, j)
                held[j] |= 1 << r
                if act.action is Action.FORWARD_AND_DELETE:
                    held[i] &= ~(1 << r)

    def _step(self, idx: int, now: float, pairs: list[tuple[NodeId, NodeId]]) -> bool:
        """Route one tick of the timeline; True once this run has ended.

        The lanes tell what every tick up to this one injected, expired and
        turned stale, so a step reads its masks by table lookup, however
        many ticks it skipped.  A logged step first writes the GEN and EXP
        lines of each skipped tick, oldest first, at that tick's time, then
        this tick's GEN lines.  Routing moves only live messages: injected
        by now, not stale now and not expired by the previous tick.  No
        message moves between steps, and a message expires on a later tick
        than it is injected, so the masks routed on equal those of a run
        stepped on every tick.  Then the messages due by now expire, and
        the step checks for the end.
        """
        self.now = now
        logged = self._log_fh is not None
        if logged:
            for t in range(self._stepped + 1, idx):
                self._log_injections(t)
                self._log_expiries(t)
            self._log_injections(idx)
        self._stepped = idx
        inject, expiry, stale = self._schedule.inject, self._expiry, self._stale
        self._injected = bisect_right(inject.at, idx, self._injected)
        if pairs:
            # no lane holds a tick before tick 0
            self._expired = bisect_right(expiry.at, idx - 1, self._expired)
            self._staled = bisect_right(stale.at, idx, self._staled)
            gone = stale.due[self._staled] | expiry.due[self._expired]
            live = inject.due[self._injected] & ~gone
            delivered = self._delivered
            if live:
                self._route(pairs, now, live)
            if self._delivered != delivered:
                # the last message not delivered may now expire earlier; with
                # none left (j == -1) every message is delivered, and this
                # step ends the run
                j = self._last_live
                while j >= 0 and self._delivered >> expiry.rank[j] & 1:
                    j -= 1
                self._last_live = j
                self._settle = expiry.at[j]
        self._expired = bisect_right(expiry.at, idx, self._expired)
        if logged:
            self._log_expiries(idx)
        unresolved = self._unresolved
        if unresolved == 0:
            self._finish(self._metrics())
        elif idx + 1 >= self._end:
            self._finish(
                TraceExhaustedError(f"trace ended with {unresolved} undecided messages")
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
        generated = len(self._schedule.ranked)
        delivered = self._delivered.bit_count()
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
