"""Random-waypoint trace generation and the on-disk trace format.

Traces are dense: one (x, y) sample per node per tick.  Generation is fully
determined by the seed; per-node RNG streams are spawned from a single
``numpy.random.SeedSequence`` over PCG64, so traces reproduce bit-for-bit
for a fixed numpy generation scheme.

File format: a header line ``nodes=<n> duration=<s> tick=<s>`` followed by
CSV rows ``t,node,x,y`` (t in tick multiples, coordinates in meters with at
least three fractional digits).  Saving and loading round-trips exactly.
"""

from __future__ import annotations

import math
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


def _walk(rng: np.random.Generator, params: WaypointParams, times: np.ndarray) -> np.ndarray:
    """Sample one node's random-waypoint path at the given times."""
    arena = params.arena
    out = np.empty((len(times), 2))
    pos = np.array([rng.uniform(0.0, arena.width), rng.uniform(0.0, arena.height)])
    t = 0.0
    i = 0
    n = len(times)
    while i < n:
        target = np.array(
            [rng.uniform(0.0, arena.width), rng.uniform(0.0, arena.height)]
        )
        dist = math.hypot(target[0] - pos[0], target[1] - pos[1])
        while dist == 0.0:
            target = np.array(
                [rng.uniform(0.0, arena.width), rng.uniform(0.0, arena.height)]
            )
            dist = math.hypot(target[0] - pos[0], target[1] - pos[1])
        speed = rng.uniform(params.speed_min, params.speed_max)
        travel = dist / speed
        arrive = t + travel
        stop = int(np.searchsorted(times, arrive, side="right"))
        if stop > i:
            # convex blend: exact endpoints at f = 0 and f = 1
            f = ((times[i:stop] - t) / travel)[:, None]
            out[i:stop] = pos * (1.0 - f) + target * f
            i = stop
        pos = target
        t = arrive
        if params.pause > 0:
            until = t + params.pause
            stop = int(np.searchsorted(times, until, side="right"))
            if stop > i:
                out[i:stop] = pos
                i = stop
            t = until
    return out


def generate_trace(
    params: WaypointParams, node_count: int, duration: float, tick: float
) -> Trace:
    """Deterministic random-waypoint trace for ``node_count`` nodes."""
    if node_count < 0:
        raise ValueError("node_count must be non-negative")
    if duration <= 0 or tick <= 0:
        raise ValueError("duration and tick must be positive")
    times = _sample_times(duration, tick)
    positions = np.empty((len(times), node_count, 2))
    streams = np.random.SeedSequence(params.seed).spawn(node_count)
    for node, stream in enumerate(streams):
        rng = np.random.Generator(np.random.PCG64(stream))
        positions[:, node, :] = _walk(rng, params, times)
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
