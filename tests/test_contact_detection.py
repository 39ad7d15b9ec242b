"""Differential test: ContactTracker against a dense reference.

``DenseTracker`` is the original n x n algorithm: every pair's squared
distance every tick, with the encounter/departure state held in n x n
arrays.  Both trackers are driven through the same coordinate sequences and
must report identical events and in-range pairs on every tick, whatever
the number of ticks ContactTracker detects per block.

ContactTracker has two paths for a block, and both stay because each is
the faster one on some input: a block whose padded per-node bounding boxes
overlap in at most as many pairs as there are nodes (sparse: few nodes
near each other) takes the exact test on those pairs only; any other block
takes the sort-and-sweep on x.  The frames below are built to sit on range
edges, either crowded (mostly the sweep) or with a few close pairs among
nodes many ranges apart (the box path); tests spy on the two paths to
check which one they reach, and replay with the sweep forced to keep its
rounding edges covered too.
"""

from collections import Counter
from contextlib import contextmanager

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


def replay(frames, r, limit, block_ticks=None, sweep=False):
    """``(events, pairs)`` of every tick of ``frames``, detected
    ``block_ticks`` ticks at a time (default: the tracker's own), every
    block by the sweep when ``sweep``."""
    tracker = ContactTracker(np.array(frames), r, limit)
    if block_ticks is not None:
        tracker.block_ticks = block_ticks
    if sweep:
        tracker._box_candidates = lambda block: None
    return [tracker.update(idx, float(idx)) for idx in range(len(frames))]


@contextmanager
def paths():
    """Counts the blocks each of ContactTracker's two paths detects."""
    seen = Counter()
    saved = {name: getattr(ContactTracker, name) for name in ("_box_pairs", "_sweep_pairs")}

    def spy(name):
        def method(self, *args):
            seen[name] += 1
            return saved[name](self, *args)

        return method

    for name in saved:
        setattr(ContactTracker, name, spy(name))
    try:
        yield seen
    finally:
        for name, method in saved.items():
            setattr(ContactTracker, name, method)


def dense_replay(frames, r, limit):
    dense = DenseTracker(len(frames[0]), r, limit)
    return [dense.update(np.array(coords), float(idx)) for idx, coords in enumerate(frames)]


def check_both_paths(frames, r, limit, block_ticks=None):
    """The dense reference's ``(events, pairs)`` of every tick of
    ``frames``, after checking that ``replay`` matches them both on its
    own, where every block must take the box path, and with the sweep
    forced."""
    expected = dense_replay(frames, r, limit)
    with paths() as seen:
        assert replay(frames, r, limit, block_ticks) == expected, block_ticks
    assert seen["_box_pairs"] > 0 and seen["_sweep_pairs"] == 0
    assert replay(frames, r, limit, block_ticks, sweep=True) == expected, block_ticks
    return expected


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


@st.composite
def sparse_scenario(draw):
    """Frames where every node stays near a home of its own or shares one
    with a single partner, and homes sit many ranges apart on x and on y:
    however the frames are cut into blocks, at most n/2 pairs have
    overlapping padded boxes, so every block takes the box path."""
    r = draw(st.sampled_from(RANGES))
    shift, y_shift = draw(st.sampled_from(SHIFTS)), draw(st.sampled_from(SHIFTS))
    n = draw(st.integers(2, 9))
    limit = draw(st.integers(1, 4))
    # apart by many ranges, and by many ulps where an ulp exceeds the range
    far = 16.0 * max(r, 16.0 * float(np.spacing(max(abs(shift), abs(y_shift)))))
    home = draw(st.permutations(range(n)))
    partner: list = []
    for i in range(n):
        alone = [j for j in range(i) if partner[j] is None and j not in partner]
        partner.append(draw(st.sampled_from(alone)) if alone and draw(st.booleans()) else None)
    pool = []
    for _ in range(draw(st.integers(1, 4))):
        points = []
        for i in range(n):
            if partner[i] is None:
                x, y = shift + home[i] * far, y_shift + home[i] * far
            else:
                bx, by = points[partner[i]]
                ux, uy = draw(st.sampled_from(UNIT_OFFSETS + [(2.0, 0.0), (0.0, 0.0)]))
                x, y = bx + ux * r, by + uy * r
            points.append((nudge(x, draw(st.integers(-2, 2))), nudge(y, draw(st.integers(-1, 1)))))
        pool.append(points)
    order = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=30))
    block = draw(st.integers(1, len(order)))
    return r, limit, [np.array(pool[i]) for i in order], block


@given(sparse_scenario())
def test_sparse_blocks_take_the_box_path_and_match_dense_reference(case):
    r, limit, frames, block = case
    for ticks in (1, block, None):
        check_both_paths(frames, r, limit, ticks)


def test_selection_follows_the_box_candidate_count():
    # Six nodes.  k of them within range of each other make k(k-1)/2 box
    # pairs, the rest standing many ranges apart: a clump of 4 gives 6
    # (box path), a clump of 5 gives 10 (the sweep).  On one x, 100 apart
    # in y, no boxes overlap, but the 15 overlaps on x alone outnumber a
    # one-tick block's 6 node samples (the sweep).
    def clump(k):
        return [(0.1 * i, 0.2 * i) if i < k else (100.0 * i, -100.0 * i) for i in range(6)]

    column = [(0.0, 100.0 * i) for i in range(6)]
    for frames, path in [
        ([clump(0)] * 3, "_box_pairs"),
        ([clump(4)] * 3, "_box_pairs"),
        ([clump(5)] * 3, "_sweep_pairs"),
        ([column], "_sweep_pairs"),
    ]:
        with paths() as seen:
            assert replay(frames, 3.0, 3) == dense_replay(frames, 3.0, 3)
        assert seen == {path: 1}, frames[0]


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
                check_both_paths(frames, r, 3, ticks)


def test_block_length_follows_node_samples():
    for n, ticks in [
        (0, BLOCK_SAMPLES),
        (2, BLOCK_SAMPLES // 2),
        (200, BLOCK_SAMPLES // 200),
        (BLOCK_SAMPLES + 1, 1),
    ]:
        tracker = ContactTracker(np.zeros((3, n, 2)), 3.0, 3)
        assert tracker.block_ticks == ticks
    # a trace without nodes has no pairs and no events on any tick
    tracker = ContactTracker(np.zeros((5, 0, 2)), 3.0, 3)
    assert [tracker.update(idx, float(idx)) for idx in range(5)] == [([], [])] * 5
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
    # On every range and offset, a pair sits at range and an ulp beyond it
    # on x, on y and diagonally, a tick each, while two more nodes stand
    # many ranges (and ulps) apart: the padded boxes admit the pair.
    for r in RANGES:
        for shift in SHIFTS:
            far = 16.0 * max(r, 16.0 * float(np.spacing(abs(shift))))
            others = [(shift - far, shift + far), (shift - 2 * far, shift + 2 * far)]
            frames = []
            for ux, uy in [(1.0, 0.0), (0.0, 1.0), (0.6, 0.8)]:
                for steps in (0, 1):
                    x = nudge(shift + ux * r, steps if ux else 0)
                    y = nudge(shift + uy * r, steps if uy else 0)
                    frames.append([(shift, shift), (x, y)] + others)
            for ticks in (1, None):
                got = check_both_paths(frames, r, 3, ticks)
                if shift + r - shift == r:
                    assert got[0][1] == got[2][1] == [(0, 1)], (r, shift)


def test_pairs_whose_x_gap_exceeds_the_rounded_range_are_kept():
    # fl(dx*dx) <= fl(r*r) although x1 > fl(x0 + sqrt(fl(r*r))): a box or a
    # sweep reaching exactly sqrt(range_sq) would drop these in-range pairs.
    for r, x0, x1 in [
        (7.3, -9.13688896803194, -1.8368889680319398),
        (0.7, -0.4183224088383213, 0.28167759116167873),
    ]:
        assert x1 > x0 + np.sqrt(r * r)
        assert check_both_paths([[(x0, 0.0), (x1, 0.0)]], r, 3)[0][1] == [(0, 1)]


def test_pairs_whose_y_gap_exceeds_the_rounded_range_are_kept():
    # the y twin: fl(dy*dy) <= fl(r*r) although y1 > fl(y0 + sqrt(fl(r*r))),
    # with every x tied so that only the y prune or box test can drop the
    # pair; both node orders, since tied x may sort either way.  In the
    # last case r*r underflows, so even |dy| exceeds sqrt(fl(r*r)).
    for r, y0, y1 in [
        (7.3, -9.13688896803194, -1.8368889680319398),
        (0.7, -0.4183224088383213, 0.28167759116167873),
        (1e-160, 0.0, 1e-160),
    ]:
        assert y1 > y0 + np.sqrt(r * r)
        for x in (0.0, 1e6):
            for coords in ([(x, y0), (x, y1)], [(x, y1), (x, y0)]):
                assert check_both_paths([coords], r, 3)[0][1] == [(0, 1)]


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
