"""Sliding per-peer contact windows and the encounter-history link weight.

The link weight for a window of size W holding contact intervals is

    weight = W / integral of f over the window,

where f(t) is zero inside a contact and otherwise counts down to the next
contact start; after the last contact the window end acts as a virtual next
encounter, so the metric stays causal.  Each contact-free gap of length g
contributes g*g/2, which is what this module evaluates in closed form.

The weight is a comparable score, not a physical quantity.  A window fully
covered by contact yields :data:`MAX_WEIGHT`, which orders above every
finite score.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

NodeId = int

#: Stand-in for an unbounded score when the gap integral is zero.
MAX_WEIGHT = sys.float_info.max


class ContactError(ValueError):
    """Contact bookkeeping was driven out of order."""


class OverlappingContactError(ContactError):
    """An encounter was recorded while a contact was already open."""


class NoOpenContactError(ContactError):
    """A departure was recorded with no contact open."""


@dataclass(frozen=True)
class WeightState:
    """Gap decomposition of a window at a fixed observation time.

    ``first_start``/``last_end`` are absolute times of the surviving contact
    span; ``mid_sum`` is the precomputed contribution of the gaps strictly
    between contacts.  ``next_refresh`` is the observation time after which
    the decomposition goes stale (the oldest contact leaves the window).
    """

    first_start: float
    last_end: float
    mid_sum: float
    open: bool
    empty: bool
    next_refresh: float


def weight_from_state(state: WeightState, now: float, window_size: float) -> float:
    """Evaluate the link weight from a gap decomposition.

    The single formula: :meth:`ContactWindow.link_weight` evaluates it, and
    the simulation engine's vectorized weight cache repeats its arithmetic
    operation for operation, so both produce bit-identical values.
    """
    w0 = now - window_size
    if state.empty:
        lead = window_size
    else:
        lead = max(state.first_start - w0, 0.0)
    trail = 0.0 if (state.open or state.empty) else now - state.last_end
    integral = (0.5 * lead * lead + state.mid_sum) + 0.5 * trail * trail
    if integral <= 0.0:
        return MAX_WEIGHT
    return window_size / integral


class ContactWindow:
    """Recent contact intervals with one peer, clipped to the last W seconds.

    Single-writer: exactly one owner (the engine's weight cache, for the
    pair of nodes it belongs to) mutates a window.
    """

    __slots__ = ("peer", "window_size", "_intervals", "_slid_to")

    def __init__(self, peer: NodeId, window_size: float) -> None:
        if window_size <= 0:
            raise ValueError("window_size must be positive")
        self.peer = peer
        self.window_size = float(window_size)
        # (start, end); end is None while the contact is ongoing
        self._intervals: list[tuple[float, float | None]] = []
        self._slid_to = float("-inf")

    @property
    def intervals(self) -> tuple[tuple[float, float | None], ...]:
        return tuple(self._intervals)

    def has_open_contact(self) -> bool:
        return bool(self._intervals) and self._intervals[-1][1] is None

    def record_encounter(self, t: float) -> None:
        """Open a new contact interval at time ``t``."""
        if self._intervals:
            last_start, last_end = self._intervals[-1]
            if last_end is None:
                raise OverlappingContactError(
                    f"contact with {self.peer} already open since {last_start}"
                )
            if t < last_end:
                raise OverlappingContactError(
                    f"encounter at {t} precedes last departure at {last_end}"
                )
        self._intervals.append((t, None))

    def record_departure(self, t: float) -> None:
        """Close the open contact interval at time ``t``."""
        if not self.has_open_contact():
            raise NoOpenContactError(f"no open contact with {self.peer}")
        start, _ = self._intervals[-1]
        if t < start:
            raise ContactError(f"departure at {t} precedes encounter at {start}")
        self._intervals[-1] = (start, t)

    def slide(self, now: float) -> None:
        """Clip every interval to [now - W, now]; drop the fully expired ones.

        Idempotent for a fixed ``now``; ``now`` must not move backwards.
        """
        if now < self._slid_to:
            raise ContactError(f"slide to {now} moves backwards from {self._slid_to}")
        self._slid_to = now
        w0 = now - self.window_size
        kept: list[tuple[float, float | None]] = []
        for start, end in self._intervals:
            if end is not None and end < w0:
                continue
            kept.append((max(start, w0), end))
        self._intervals = kept

    def weight_state(self, now: float) -> WeightState:
        """Gap decomposition at ``now``; pure (ignores slide state)."""
        w0 = now - self.window_size
        alive = [
            (s, e) for s, e in self._intervals if e is None or e >= w0
        ]
        if not alive:
            return WeightState(0.0, 0.0, 0.0, False, True, float("inf"))
        mid = 0.0
        for (_, prev_end), (next_start, _) in zip(alive, alive[1:]):
            gap = next_start - prev_end
            mid += 0.5 * gap * gap
        first_start = alive[0][0]
        last_end = alive[-1][1]
        is_open = last_end is None
        first_end = alive[0][1]
        next_refresh = (
            float("inf") if first_end is None else first_end + self.window_size
        )
        return WeightState(
            first_start=first_start,
            last_end=now if is_open else last_end,
            mid_sum=mid,
            open=is_open,
            empty=False,
            next_refresh=next_refresh,
        )

    def link_weight(self, now: float) -> float:
        """The contact-history link weight observed at ``now``."""
        return weight_from_state(self.weight_state(now), now, self.window_size)

    def __repr__(self) -> str:
        return (
            f"ContactWindow(peer={self.peer}, W={self.window_size}, "
            f"intervals={self._intervals})"
        )
