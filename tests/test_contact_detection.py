"""Differential test: the sweep-based ContactTracker against a dense reference.

``DenseTracker`` is the original n x n algorithm: every pair's squared
distance every tick, with the encounter/departure state held in n x n
arrays.  Both trackers are driven through the same coordinate sequences and
must report identical events and in-range pairs on every tick, whatever
the number of ticks the sweep-based tracker detects per block.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from dtnsim.engine import BLOCK_SAMPLES, ContactEvent, ContactEventKind, ContactTracker


class DenseTracker:
    def __init__(self, node_count, comm_range, missed_hello_limit):
        self.range_sq = comm_range * comm_range
        self.limit = missed_hello_limit
        self.in_contact = np.zeros((node_count, node_count), dtype=bool)
        self.miss = np.zeros((node_count, node_count), dtype=np.int64)
        self.first_miss = np.zeros((node_count, node_count))
        self.upper = np.triu(np.ones((node_count, node_count), dtype=bool), k=1)

    def update(self, coords, now):
        diff = coords[:, None, :] - coords[None, :, :]
        in_range = (diff * diff).sum(axis=2) <= self.range_sq
        np.fill_diagonal(in_range, False)
        events = []
        missing = self.in_contact & ~in_range
        fresh_miss = missing & (self.miss == 0)
        self.first_miss[fresh_miss] = now
        self.miss[missing] += 1
        self.miss[self.in_contact & in_range] = 0
        departed = missing & (self.miss >= self.limit)
        for u, v in np.argwhere(departed & self.upper):
            events.append(
                ContactEvent(
                    ContactEventKind.DEPART, (int(u), int(v)), float(self.first_miss[u, v])
                )
            )
        self.in_contact[departed] = False
        self.miss[departed] = 0
        encountered = in_range & ~self.in_contact
        for u, v in np.argwhere(encountered & self.upper):
            events.append(ContactEvent(ContactEventKind.ENCOUNTER, (int(u), int(v)), now))
        self.in_contact[encountered] = True
        pairs = [(int(u), int(v)) for u, v in np.argwhere(in_range & self.upper)]
        return events, pairs


RANGES = [3.0, 1.0, 0.1, 5.0, 7.3, 2.0**-30, 1e3]
SHIFTS = [0.0, -123.456, 1e6, 2.0**30]
#: offsets of length exactly 1 (scaled by the range below), in both axes
UNIT_OFFSETS = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.6, 0.8), (-0.8, 0.6)]


def nudge(value, steps):
    """``value`` moved ``steps`` ulps (negative steps move down)."""
    toward = np.inf if steps > 0 else -np.inf
    for _ in range(abs(steps)):
        value = float(np.nextafter(value, toward))
    return value


@st.composite
def frame(draw, n, r, shift, y_shift):
    """n points built to sit on, just inside and just outside range edges."""
    points = []
    for _ in range(n):
        kind = draw(st.sampled_from(["lattice", "offset", "free"]))
        if kind == "offset" and points:
            bx, by = draw(st.sampled_from(points))
            ux, uy = draw(st.sampled_from(UNIT_OFFSETS))
            x, y = bx + ux * r, by + uy * r
        elif kind == "free":
            x = shift + draw(st.floats(-3.0, 3.0)) * r
            y = y_shift + draw(st.floats(-3.0, 3.0)) * r
        else:
            x = shift + draw(st.integers(-3, 3)) * r
            y = y_shift + draw(st.integers(-3, 3)) * r
        x = nudge(x, draw(st.integers(-2, 2)))
        y = nudge(y, draw(st.integers(-1, 1)))
        points.append((x, y))
    return points


@st.composite
def scenario(draw):
    r = draw(st.sampled_from(RANGES))
    shift, y_shift = draw(st.sampled_from(SHIFTS)), draw(st.sampled_from(SHIFTS))
    n = draw(st.integers(2, 9))
    limit = draw(st.integers(1, 4))
    pool = draw(st.lists(frame(n, r, shift, y_shift), min_size=1, max_size=4))
    # replaying a few frames in a drawn order makes pairs leave and rejoin
    order = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=14))
    return r, limit, [np.array(pool[i]) for i in order]


def replay(frames, r, limit, block_ticks=None):
    """``(events, pairs)`` of every tick of ``frames``, detected
    ``block_ticks`` ticks at a time (default: the tracker's own)."""
    tracker = ContactTracker(np.array(frames), r, limit)
    if block_ticks is not None:
        tracker.block_ticks = block_ticks
    return [tracker.update(idx, float(idx)) for idx in range(len(frames))]


def dense_replay(frames, r, limit):
    dense = DenseTracker(len(frames[0]), r, limit)
    return [dense.update(np.array(coords), float(idx)) for idx, coords in enumerate(frames)]


@given(scenario())
def test_sweep_tracker_matches_dense_reference(case):
    r, limit, frames = case
    n = len(frames[0])
    sparse = ContactTracker(np.array(frames), r, limit)
    dense = DenseTracker(n, r, limit)
    for idx, coords in enumerate(frames):
        now = float(idx)
        assert sparse.update(idx, now) == dense.update(coords, now), f"tick {idx}"


def apart(n, r, shift, y_shift):
    """n points on one x, 3r apart in y: no pair in range, every x tied."""
    return [(shift, y_shift + 3.0 * k * r) for k in range(n)]


@st.composite
def block_scenario(draw):
    r = draw(st.sampled_from(RANGES))
    shift, y_shift = draw(st.sampled_from(SHIFTS)), draw(st.sampled_from(SHIFTS))
    n = draw(st.integers(2, 9))
    limit = draw(st.integers(1, 4))
    pool = draw(st.lists(frame(n, r, shift, y_shift), min_size=1, max_size=4))
    pool.append(apart(n, r, shift, y_shift))
    order = draw(st.lists(st.integers(0, len(pool) - 1), min_size=2, max_size=30))
    block = draw(st.integers(2, len(order)))
    return r, limit, [np.array(pool[i]) for i in order], block


@given(block_scenario())
def test_every_block_length_matches_dense_reference(case):
    r, limit, frames, block = case
    expected = dense_replay(frames, r, limit)
    for ticks in (1, block, None):
        got = replay(frames, r, limit, ticks)
        for idx, (mine, theirs) in enumerate(zip(got, expected)):
            assert mine == theirs, f"tick {idx}, {ticks} ticks per block"


def test_block_boundaries_inside_contacts_and_miss_streaks():
    # two nodes on one x: in range exactly at r, out of range an ulp beyond
    for r in RANGES:
        for shift in SHIFTS:
            near = [(shift, 0.0), (shift, r)]
            far = [(shift, 0.0), (shift, nudge(r, 1))]
            frames = [near, near, far, far, near, far, far, far, far, near, near]
            expected = dense_replay(frames, r, 3)
            kinds = [e.kind for events, _ in expected for e in events]
            assert kinds == [
                ContactEventKind.ENCOUNTER,
                ContactEventKind.DEPART,
                ContactEventKind.ENCOUNTER,
            ]
            assert [pairs for _, pairs in expected].count([]) == 6
            # lengths 1 to 12 put block boundaries inside the contacts and
            # inside both miss streaks
            for ticks in range(1, len(frames) + 2):
                assert replay(frames, r, 3, ticks) == expected, (r, shift, ticks)


def test_block_length_follows_node_samples():
    for n, ticks in [(2, BLOCK_SAMPLES // 2), (200, BLOCK_SAMPLES // 200), (BLOCK_SAMPLES + 1, 1)]:
        tracker = ContactTracker(np.zeros((3, n, 2)), 3.0, 3)
        assert tracker.block_ticks == ticks
    # a block never runs past the trace's end
    frames = [[(0.0, 0.0), (1.0, 0.0)]] * 3
    assert replay(frames, 3.0, 3) == dense_replay(frames, 3.0, 3)


def test_each_block_is_detected_once():
    tracker = ContactTracker(np.zeros((10, 2, 2)), 3.0, 3)
    tracker.block_ticks = 4
    starts = []
    detect = tracker._detect
    tracker._detect = lambda start: (starts.append(start), detect(start))
    for idx in range(10):
        tracker.update(idx, float(idx))
    assert starts == [0, 4, 8]


def test_exact_range_and_ulp_beyond_on_a_large_offset():
    x0 = 1e6
    r = 3.0
    coords = np.array(
        [[x0, 0.0], [x0 + r, 0.0], [nudge(x0 + 2 * r, 1), 0.0], [x0 + 0.6 * r, 0.8 * r]]
    )
    sparse = ContactTracker(coords[None], r, 3)
    dense = DenseTracker(4, r, 3)
    got = sparse.update(0, 0.0)
    assert got == dense.update(coords, 0.0)
    assert (0, 1) in got[1]


def test_pairs_whose_x_gap_exceeds_the_rounded_range_are_kept():
    # fl(dx*dx) <= fl(r*r) although x1 > fl(x0 + sqrt(fl(r*r))): a sweep
    # reaching exactly sqrt(range_sq) would drop these in-range pairs.
    for r, x0, x1 in [
        (7.3, -9.13688896803194, -1.8368889680319398),
        (0.7, -0.4183224088383213, 0.28167759116167873),
    ]:
        coords = np.array([[x0, 0.0], [x1, 0.0]])
        assert x1 > x0 + np.sqrt(r * r)
        events, pairs = ContactTracker(coords[None], r, 3).update(0, 0.0)
        assert pairs == [(0, 1)]
        assert (events, pairs) == DenseTracker(2, r, 3).update(coords, 0.0)


def test_pairs_whose_y_gap_exceeds_the_rounded_range_are_kept():
    # the y twin: fl(dy*dy) <= fl(r*r) although y1 > fl(y0 + sqrt(fl(r*r))),
    # with every x tied so that only the y prune can drop the pair; both
    # node orders, since tied x may sort either way.  In the last case r*r
    # underflows, so even |dy| exceeds sqrt(fl(r*r)).
    for r, y0, y1 in [
        (7.3, -9.13688896803194, -1.8368889680319398),
        (0.7, -0.4183224088383213, 0.28167759116167873),
        (1e-160, 0.0, 1e-160),
    ]:
        assert y1 > y0 + np.sqrt(r * r)
        for x in (0.0, 1e6):
            for coords in ([[x, y0], [x, y1]], [[x, y1], [x, y0]]):
                coords = np.array(coords)
                events, pairs = ContactTracker(coords[None], r, 3).update(0, 0.0)
                assert pairs == [(0, 1)]
                assert (events, pairs) == DenseTracker(2, r, 3).update(coords, 0.0)


@st.composite
def tied_scenario(draw):
    """Frames whose nodes all share one x: every pair is an x candidate at
    every sorted-order offset, and the y gap alone decides."""
    r = draw(st.sampled_from(RANGES))
    x, y_shift = draw(st.sampled_from(SHIFTS)), draw(st.sampled_from(SHIFTS))
    n = draw(st.integers(2, 12))
    limit = draw(st.integers(1, 4))
    pool = []
    for _ in range(draw(st.integers(1, 4))):
        ys = []
        for _ in range(n):
            if ys and draw(st.booleans()):
                y = draw(st.sampled_from(ys)) + draw(st.sampled_from([-r, r, 0.0]))
            else:
                y = y_shift + draw(st.integers(-4, 4)) * r
            ys.append(nudge(y, draw(st.integers(-1, 1))))
        pool.append([(x, y) for y in ys])
    order = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=8))
    block = draw(st.integers(1, len(order)))
    return r, limit, [np.array(pool[i]) for i in order], block


@given(tied_scenario())
def test_every_x_tied_matches_dense_reference(case):
    r, limit, frames, block = case
    expected = dense_replay(frames, r, limit)
    for ticks in (1, block, None):
        assert replay(frames, r, limit, ticks) == expected, f"{ticks} ticks per block"
