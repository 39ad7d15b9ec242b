"""Random-waypoint trace generation and the on-disk trace format.

A trace is one (x, y) sample per node per tick, read a block of ticks at a
time (:meth:`Trace.block`): contact detection (``dtnsim.engine``) and
:func:`save_trace` read nothing else.  A loaded or hand-built trace holds
the whole array and slices it.  A generated trace holds only each node's
walk, as a table of legs and pauses, and samples a block from it when the
block is read, so its memory follows legs plus one block, not ticks times
nodes; ``positions`` is built only for a caller that reads it.

Generation is fully determined by the seed; per-node RNG streams are
spawned from a single ``numpy.random.SeedSequence`` over PCG64, so traces
reproduce bit-for-bit for a fixed numpy generation scheme.  A node's leg
table is built in plain Python, from doubles its stream draws in batches
(``rng.random``; each is the double one ``rng.uniform`` call would use).

File format: a header line ``nodes=<n> duration=<s> tick=<s>`` followed by
CSV rows ``t,node,x,y`` (t in tick multiples, coordinates in meters with at
least three fractional digits).  Saving and loading round-trips exactly.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from decimal import Decimal
from functools import cached_property

import numpy as np


class TraceError(ValueError):
    pass


class TraceFormatError(TraceError):
    """A trace file row or header could not be parsed."""


class IncompleteTraceError(TraceError):
    """A (tick, node) sample is missing from a trace file."""


@dataclass(frozen=True)
class Arena:
    width: float
    height: float

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError("arena dimensions must be positive")


@dataclass(frozen=True)
class WaypointParams:
    arena: Arena
    speed_min: float
    speed_max: float
    pause: float
    seed: int

    def __post_init__(self) -> None:
        if not 0 < self.speed_min <= self.speed_max:
            raise ValueError("need 0 < speed_min <= speed_max")
        if self.pause < 0:
            raise ValueError("pause must be non-negative")


@dataclass(frozen=True)
class Trace:
    """Positions indexed as positions[tick_index, node] -> (x, y).

    Readers take a block of ticks at a time with :meth:`block`.  This class
    holds the whole array; :func:`generate_trace` returns a trace that
    samples its blocks from each node's walk instead.
    """

    node_count: int
    duration: float
    tick: float
    positions: np.ndarray = field(repr=False)

    @property
    def tick_count(self) -> int:
        return self.positions.shape[0]

    def block(self, start: int, stop: int) -> np.ndarray:
        """``positions[start:stop]``, for ``0 <= start <= stop``."""
        return self.positions[start:stop]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return (
            self.node_count == other.node_count
            and self.duration == other.duration
            and self.tick == other.tick
            and np.array_equal(self.positions, other.positions)
        )


def check_finite(trace: Trace) -> None:
    """Raise TraceError naming ``positions``' shape unless it is (ticks,
    node_count, 2), or else the first (tick, node) with a non-finite
    coordinate.  A generated trace is sampled from waypoints in its arena,
    in that shape, so it is not read here."""
    if isinstance(trace, _Walks):
        return
    shape = np.shape(trace.positions)
    if len(shape) != 3 or shape[1:] != (trace.node_count, 2):
        raise TraceError(
            f"positions has shape {shape}, expected (ticks, {trace.node_count}, 2)"
        )
    bad = ~np.isfinite(trace.positions).all(axis=-1)
    if bad.any():
        idx, node = map(int, np.argwhere(bad)[0])
        raise TraceError(f"non-finite coordinate at tick {idx}, node {node}")


def sample_count(duration: float, tick: float) -> int:
    """Samples in a trace of ``duration`` seconds at ``tick`` spacing, both ends included."""
    return int(math.floor(duration / tick + 1e-9)) + 1


def _sample_times(duration: float, tick: float) -> np.ndarray:
    times = np.arange(sample_count(duration, tick), dtype=float)
    times *= tick
    return times


#: node-samples per block of work: contact detection (``dtnsim.engine``) and
#: :func:`save_trace` read blocks of ``BLOCK_SAMPLES // node_count`` ticks
#: (at least one)
BLOCK_SAMPLES = 2**13


def block_ticks(node_count: int) -> int:
    """Ticks per block of a trace of ``node_count`` nodes."""
    return max(1, BLOCK_SAMPLES // max(1, node_count))


#: doubles drawn from a node's stream per ``rng.random`` call
_DRAW_BATCH = 64


def _draws(rng: np.random.Generator) -> Iterator[float]:
    """The stream's doubles, one per ``rng.uniform`` draw, in batches."""
    while True:
        yield from rng.random(_DRAW_BATCH).tolist()


def _legs(rng: np.random.Generator, params: WaypointParams, t_last: float, table: list) -> None:
    """Append one node's walk to ``table``, as segments, until ``t_last``.

    A segment ``(start, travel, from_x, from_y, to_x, to_y, end)`` covers the
    times after the previous segment's end up to its own.  A leg travels to
    the next waypoint; a pause is a segment with travel ``inf`` that stays
    at its waypoint.  ``rng.uniform(lo, hi)`` is ``lo + (hi - lo) * u`` of
    one double ``u``, so the walk draws and computes exactly what per-draw
    ``uniform`` calls would.  The walk has at least one leg, which covers
    the sample at time 0, and ends with the first leg (and its pause) that
    ends at or after ``t_last``.
    """
    width, height = params.arena.width, params.arena.height
    slow, spread, pause = params.speed_min, params.speed_max - params.speed_min, params.pause
    draw = _draws(rng).__next__
    x, y = width * draw(), height * draw()
    t = 0.0
    while True:
        to_x, to_y = width * draw(), height * draw()
        dist = math.hypot(to_x - x, to_y - y)
        while dist == 0.0:
            to_x, to_y = width * draw(), height * draw()
            dist = math.hypot(to_x - x, to_y - y)
        travel = dist / (slow + spread * draw())
        arrive = t + travel
        table.append((t, travel, x, y, to_x, to_y, arrive))
        x, y, t = to_x, to_y, arrive
        if pause > 0:
            until = t + pause
            table.append((t, math.inf, x, y, x, y, until))
            t = until
        if t >= t_last:
            return


class _Walks(Trace):
    """A generated trace: the random-waypoint walk of each stream of
    ``rngs`` as a segment table (see :func:`_legs`), sampled a block at a
    time, and ``positions`` built on first read."""

    def __init__(
        self, rngs: Sequence[np.random.Generator], params: WaypointParams, duration: float, tick: float
    ) -> None:
        # frozen fields, set as the dataclass's own __init__ sets them
        for name, value in (("node_count", len(rngs)), ("duration", duration), ("tick", tick)):
            object.__setattr__(self, name, value)
        self._ticks = sample_count(duration, tick)
        table: list = []
        heads = []
        for rng in rngs:
            heads.append(len(table))
            _legs(rng, params, (self._ticks - 1) * tick, table)
        heads.append(len(table))
        segments = np.array(table, dtype=float).reshape(-1, 7).T
        del table  # the largest allocation here: free it before the tick grid
        #: start, travel, from_x, from_y, to_x, to_y of every segment
        self._segments = np.ascontiguousarray(segments[:6])
        # A segment covers the samples up to its end that no earlier one
        # covers, and a node's last segment ends at or after the last
        # sample.  Key each segment by its node and the samples up to its
        # end, so one search finds each node's segment covering a tick.
        owner = np.repeat(np.arange(len(rngs)), np.diff(heads))
        self._base = np.arange(len(rngs)) * (self._ticks + 1)
        self._stop = np.searchsorted(_sample_times(duration, tick), segments[6], side="right")
        self._key = self._base[owner] + self._stop

    @property
    def tick_count(self) -> int:
        return self._ticks

    @cached_property
    def positions(self) -> np.ndarray:
        return self.block(0, self._ticks)

    def block(self, start: int, stop: int) -> np.ndarray:
        """``positions[start:stop]``, sampled from the segments.

        Each sample lies on the segment that covers its time, at
        ``from * (1 - f) + to * f`` with ``f = (t - start) / travel``:
        exact endpoints at f = 0 and f = 1, and a pause's waypoint at
        f = 0.  Each node's covering segments are found once per block.
        """
        stop = min(stop, self._ticks)
        ticks, n = max(0, stop - start), self.node_count
        out = np.empty((ticks, n, 2))
        if not ticks:
            return out
        # each node's segments covering ticks start ... stop - 1, in turn
        lo = np.searchsorted(self._key, self._base + start, side="right")
        runs = np.searchsorted(self._key, self._base + (stop - 1), side="right") + 1 - lo
        heads = np.cumsum(runs) - runs
        seg = np.arange(int(runs.sum())) + np.repeat(lo - heads, runs)
        # the ticks of the block each covers; a node's last one reaches stop
        cover = np.diff(np.minimum(self._stop.take(seg), stop), prepend=start)
        cover[heads[1:]] += ticks
        begin, travel, from_x, from_y, to_x, to_y = np.take(self._segments, seg, axis=1)
        shape = (n, ticks)
        f = np.arange(start, stop) * self.tick - begin.repeat(cover).reshape(shape)
        f /= travel.repeat(cover).reshape(shape)
        g = 1.0 - f
        by_node = out.transpose(1, 0, 2)
        for axis, (origin, target) in enumerate(((from_x, to_x), (from_y, to_y))):
            a = origin.repeat(cover).reshape(shape)
            a *= g
            b = target.repeat(cover).reshape(shape)
            b *= f
            np.add(a, b, out=by_node[:, :, axis])
        return out


def generate_trace(
    params: WaypointParams, node_count: int, duration: float, tick: float
) -> Trace:
    """Deterministic random-waypoint trace for ``node_count`` nodes.

    Each node walks on its own PCG64 stream, spawned from
    ``SeedSequence(params.seed)``: its start and each next waypoint are
    uniform in the arena, each leg's speed uniform in [speed_min,
    speed_max], and each arrival is followed by ``pause`` seconds at the
    waypoint.  The walk becomes a leg table (see :func:`_legs`), and the
    trace samples a block of ticks from the tables when it is read.  A
    node's path depends on neither the node count nor the duration, so a
    shorter trace is a prefix of a longer one.  ``dataclasses.replace``
    does not apply to the trace returned; ``Trace(trace.node_count,
    trace.duration, trace.tick, trace.positions)`` is a copy that holds
    the array.
    """
    if node_count < 0:
        raise ValueError("node_count must be non-negative")
    if duration <= 0 or tick <= 0:
        raise ValueError("duration and tick must be positive")
    streams = np.random.SeedSequence(params.seed).spawn(node_count)
    rngs = [np.random.Generator(np.random.PCG64(stream)) for stream in streams]
    return _Walks(rngs, params, float(duration), float(tick))


# -- file format ---------------------------------------------------------------


def _fmt(x: float) -> str:
    """Shortest exact decimal for ``x`` with at least 3 fractional digits."""
    s = repr(float(x))
    if "e" in s or "E" in s:
        s = format(Decimal(float(x)), "f")
    if "." not in s:
        s += ".000"
    else:
        frac = len(s) - s.index(".") - 1
        if frac < 3:
            s += "0" * (3 - frac)
    return s


def save_trace(trace: Trace, path: str) -> None:
    """Write ``trace`` to ``path``, reading it a block of ticks at a time.

    Raises TraceError, before writing, unless the trace holds the ticks its
    duration and tick give, as :func:`load_trace` requires."""
    ticks, step = sample_count(trace.duration, trace.tick), block_ticks(trace.node_count)
    if trace.tick_count != ticks:
        raise TraceError(
            f"trace holds {trace.tick_count} ticks, but duration {trace.duration!r} "
            f"at tick {trace.tick!r} gives {ticks}"
        )
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"nodes={trace.node_count} duration={trace.duration!r} tick={trace.tick!r}\n")
        for first in range(0, ticks, step):
            for idx, frame in enumerate(trace.block(first, first + step).tolist(), first):
                t_label = repr(float(idx * trace.tick))
                for node, (x, y) in enumerate(frame):
                    fh.write(f"{t_label},{node},{_fmt(x)},{_fmt(y)}\n")


def load_trace(path: str) -> Trace:
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline()
        fields = header.split()
        try:
            if len(fields) != 3:
                raise ValueError
            node_count = int(fields[0].removeprefix("nodes="))
            duration = float(fields[1].removeprefix("duration="))
            tick = float(fields[2].removeprefix("tick="))
            if fields[0][:6] != "nodes=" or fields[1][:9] != "duration=" or fields[2][:5] != "tick=":
                raise ValueError
        except ValueError:
            raise TraceFormatError(f"line 1: bad header {header.strip()!r}") from None
        if node_count < 0 or duration <= 0 or tick <= 0:
            raise TraceFormatError("line 1: header values out of range")
        times = _sample_times(duration, tick)
        n_ticks = len(times)
        positions = np.full((n_ticks, node_count, 2), np.nan)
        for lineno, raw in enumerate(fh, start=2):
            line = raw.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 4:
                raise TraceFormatError(f"line {lineno}: expected 't,node,x,y'")
            try:
                t = float(parts[0])
                node = int(parts[1])
                x = float(parts[2])
                y = float(parts[3])
            except ValueError:
                raise TraceFormatError(f"line {lineno}: non-numeric field") from None
            idx = int(round(t / tick))
            if not (0 <= idx < n_ticks) or times[idx] != t:
                raise TraceFormatError(f"line {lineno}: time {t} not on the tick grid")
            if not 0 <= node < node_count:
                raise TraceFormatError(f"line {lineno}: node {node} out of range")
            if not (math.isfinite(x) and math.isfinite(y)):
                raise TraceFormatError(
                    f"line {lineno}: non-finite coordinate for tick {idx}, node {node}"
                )
            if not math.isnan(positions[idx, node, 0]):
                raise TraceFormatError(f"line {lineno}: duplicate sample for tick {idx}, node {node}")
            positions[idx, node] = (x, y)
    if node_count and np.isnan(positions).any():
        idx, node = map(int, np.argwhere(np.isnan(positions[:, :, 0]))[0])
        raise IncompleteTraceError(f"missing sample for tick {idx}, node {node}")
    return Trace(node_count=node_count, duration=duration, tick=tick, positions=positions)
