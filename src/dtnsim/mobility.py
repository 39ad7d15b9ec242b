"""Random-waypoint trace generation and the on-disk trace format.

Traces are dense: one (x, y) sample per node per tick.  Generation is fully
determined by the seed; per-node RNG streams are spawned from a single
``numpy.random.SeedSequence`` over PCG64, so traces reproduce bit-for-bit
for a fixed numpy generation scheme.

A node's walk is built as a table of legs and pauses in plain Python, from
doubles its stream draws in batches (``rng.random``; each is the double one
``rng.uniform`` call would use).  The samples are then filled in with array
operations, a group of nodes of about :data:`BLOCK_SAMPLES` samples at a
time, so the work follows legs plus samples and the temporary arrays stay
small.

File format: a header line ``nodes=<n> duration=<s> tick=<s>`` followed by
CSV rows ``t,node,x,y`` (t in tick multiples, coordinates in meters with at
least three fractional digits).  Saving and loading round-trips exactly.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from decimal import Decimal

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
    """Positions indexed as positions[tick_index, node] -> (x, y)."""

    node_count: int
    duration: float
    tick: float
    positions: np.ndarray

    @property
    def tick_count(self) -> int:
        return self.positions.shape[0]

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
    """Raise TraceError naming the first (tick, node) with a non-finite coordinate."""
    bad = ~np.isfinite(trace.positions).all(axis=-1)
    if bad.any():
        idx, node = map(int, np.argwhere(bad)[0])
        raise TraceError(f"non-finite coordinate at tick {idx}, node {node}")


def sample_count(duration: float, tick: float) -> int:
    """Samples in a trace of ``duration`` seconds at ``tick`` spacing, both ends included."""
    return int(math.floor(duration / tick + 1e-9)) + 1


def _sample_times(duration: float, tick: float) -> np.ndarray:
    return np.arange(sample_count(duration, tick)) * tick


#: node-samples per block of work: trace generation samples groups of nodes
#: of about this many samples, and contact detection (``dtnsim.engine``)
#: takes blocks of ``BLOCK_SAMPLES // node_count`` ticks (at least one)
BLOCK_SAMPLES = 2**13

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


def _sample_walks(
    rngs: Sequence[np.random.Generator], params: WaypointParams, times: np.ndarray
) -> np.ndarray:
    """``positions[tick, node]`` of one random-waypoint walk per stream of ``rngs``.

    Each sample lies on the segment that covers its time, at
    ``from * (1 - f) + to * f`` with ``f = (t - start) / travel``: exact
    endpoints at f = 0 and f = 1, and a pause's waypoint at f = 0.  Nodes are
    sampled in groups of about :data:`BLOCK_SAMPLES` samples, so the
    per-sample arrays stay small however long the trace.
    """
    ticks = len(times)
    t_last = float(times[-1])
    positions = np.empty((ticks, len(rngs), 2))
    group = max(1, BLOCK_SAMPLES // ticks)
    for first in range(0, len(rngs), group):
        table: list = []
        heads = []
        for rng in rngs[first : first + group]:
            heads.append(len(table))
            _legs(rng, params, t_last, table)
        start, travel, from_x, from_y, to_x, to_y, end = np.array(table).T
        # a segment covers the samples up to its end that no earlier one
        # covers; a node's last segment covers the trace's last sample
        cover = np.diff(np.searchsorted(times, end, side="right"), prepend=0)
        cover[heads[1:]] += ticks
        shape = (len(heads), ticks)
        f = times - start.repeat(cover).reshape(shape)
        f /= travel.repeat(cover).reshape(shape)
        g = 1.0 - f
        out = positions[:, first : first + len(heads)].transpose(1, 0, 2)
        for axis, ends in enumerate(((from_x, to_x), (from_y, to_y))):
            a = ends[0].repeat(cover).reshape(shape)
            a *= g
            b = ends[1].repeat(cover).reshape(shape)
            b *= f
            np.add(a, b, out=out[:, :, axis])
    return positions


def generate_trace(
    params: WaypointParams, node_count: int, duration: float, tick: float
) -> Trace:
    """Deterministic random-waypoint trace for ``node_count`` nodes.

    Each node walks on its own PCG64 stream, spawned from
    ``SeedSequence(params.seed)``: its start and each next waypoint are
    uniform in the arena, each leg's speed uniform in [speed_min,
    speed_max], and each arrival is followed by ``pause`` seconds at the
    waypoint.  The walk becomes a leg table (see :func:`_legs`), and the
    samples are filled in a group of nodes at a time (see
    :func:`_sample_walks`).  A node's path depends on neither the node
    count nor the duration, so a shorter trace is a prefix of a longer one.
    """
    if node_count < 0:
        raise ValueError("node_count must be non-negative")
    if duration <= 0 or tick <= 0:
        raise ValueError("duration and tick must be positive")
    streams = np.random.SeedSequence(params.seed).spawn(node_count)
    rngs = [np.random.Generator(np.random.PCG64(stream)) for stream in streams]
    positions = _sample_walks(rngs, params, _sample_times(duration, tick))
    return Trace(node_count=node_count, duration=float(duration), tick=float(tick), positions=positions)


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
    times = _sample_times(trace.duration, trace.tick)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"nodes={trace.node_count} duration={trace.duration!r} tick={trace.tick!r}\n")
        for idx, t in enumerate(times):
            t_label = repr(float(t))
            for node in range(trace.node_count):
                x, y = trace.positions[idx, node]
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
