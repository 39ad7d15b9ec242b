
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dtnsim.mobility import (
    Arena,
    IncompleteTraceError,
    Trace,
    TraceError,
    TraceFormatError,
    WaypointParams,
    _sample_times,
    _Walks,
    generate_trace,
    load_trace,
    sample_count,
    save_trace,
)


def _walk(rng, params, times):
    """Reference: one node's random-waypoint path, one leg at a time.

    The generator's oracle: every coordinate, arrival and pause end is drawn
    and computed here by per-draw ``rng.uniform`` calls and per-leg array
    slices, and ``generate_trace`` must match it bit for bit.
    """
    arena = params.arena
    out = np.empty((len(times), 2))
    pos = np.array([rng.uniform(0.0, arena.width), rng.uniform(0.0, arena.height)])
    t = 0.0
    i = 0
    n = len(times)
    while i < n:
        target = np.array([rng.uniform(0.0, arena.width), rng.uniform(0.0, arena.height)])
        dist = math.hypot(target[0] - pos[0], target[1] - pos[1])
        while dist == 0.0:
            target = np.array([rng.uniform(0.0, arena.width), rng.uniform(0.0, arena.height)])
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


def reference_trace(params, node_count, duration, tick):
    times = _sample_times(duration, tick)
    positions = np.empty((len(times), node_count, 2))
    for node, stream in enumerate(np.random.SeedSequence(params.seed).spawn(node_count)):
        positions[:, node] = _walk(np.random.Generator(np.random.PCG64(stream)), params, times)
    return positions


def params(seed=1, speed=1.0, pause=0.0, arena=None):
    return WaypointParams(
        arena=arena or Arena(300, 450),
        speed_min=speed,
        speed_max=speed,
        pause=pause,
        seed=seed,
    )


def test_param_validation():
    with pytest.raises(ValueError):
        Arena(0, 10)
    with pytest.raises(ValueError):
        WaypointParams(Arena(10, 10), 0.0, 1.0, 0.0, 1)
    with pytest.raises(ValueError):
        WaypointParams(Arena(10, 10), 2.0, 1.0, 0.0, 1)
    with pytest.raises(ValueError):
        generate_trace(params(), -1, 10, 1)
    with pytest.raises(ValueError):
        generate_trace(params(), 3, 0, 1)


def test_same_seed_gives_identical_traces():
    a = generate_trace(params(seed=9), 6, 120, 1.0)
    b = generate_trace(params(seed=9), 6, 120, 1.0)
    assert a == b
    c = generate_trace(params(seed=10), 6, 120, 1.0)
    assert a != c


def test_zero_nodes_is_a_valid_trace():
    t = generate_trace(params(), 0, 10, 1.0)
    assert t.positions.shape == (11, 0, 2)


def test_a_generated_trace_builds_positions_only_when_read():
    t = generate_trace(params(seed=9), 6, 120, 1.0)
    assert repr(t) == "_Walks(node_count=6, duration=120.0, tick=1.0)"
    assert "positions" not in vars(t)
    assert t.positions.shape == (121, 6, 2)
    assert "positions" in vars(t)


def test_positions_stay_inside_the_arena():
    t = generate_trace(params(seed=3), 8, 400, 1.0)
    xs, ys = t.positions[:, :, 0], t.positions[:, :, 1]
    assert (xs >= 0).all() and (xs <= 300).all()
    assert (ys >= 0).all() and (ys <= 450).all()


def test_displacement_bounded_by_speed():
    for speed in (0.5, 1.5):
        t = generate_trace(params(seed=4, speed=speed, pause=2.0), 6, 300, 1.0)
        step = np.linalg.norm(np.diff(t.positions, axis=0), axis=2)
        assert step.max() <= speed * 1.0 + 1e-9


class ScriptedRng:
    """Scripted doubles in [0, 1), then 0.5 for every further draw, behind
    both draw interfaces: ``random(size)`` batches and ``uniform``."""

    def __init__(self, draws):
        self.draws = list(draws)

    def random(self, size):
        batch, self.draws = self.draws[:size], self.draws[size:]
        return np.array(batch + [0.5] * (size - len(batch)))

    def uniform(self, low, high):
        return low + (high - low) * (self.draws.pop(0) if self.draws else 0.5)


def test_straight_segment_kinematics():
    # 10 m at 1 m/s: arrival exactly 10 ticks after departure
    # 26 ticks of 1 s; in a 20 x 40 arena: start (0, 0); leg to (10, 0) at
    # speed 1; then to (10, 5) at speed 1; then towards (10, 20)
    rng = ScriptedRng([0.0, 0.0, 0.5, 0.0, 0.5, 0.5, 0.125, 0.5, 0.5, 0.5, 0.5])
    out = _Walks([rng], params(arena=Arena(20, 40)), 25.0, 1.0).positions[:, 0]
    for k in range(11):
        assert out[k, 0] == pytest.approx(float(k), abs=1e-12)
        assert out[k, 1] == 0.0
    assert tuple(out[10]) == (10.0, 0.0)  # exact arrival on tick 10
    assert tuple(out[15]) == (10.0, 5.0)  # second leg: 5 m, 5 ticks


def test_a_waypoint_on_the_current_position_is_drawn_again():
    # start (5, 10); the next waypoint twice repeats it before (15, 10);
    # then (15, 30) repeats once; speeds from [0.5, 2.5)
    script = [0.25, 0.25, 0.25, 0.25, 0.25, 0.25, 0.75, 0.25, 0.5]
    script += [0.75, 0.25, 0.75, 0.75, 0.1]
    p = WaypointParams(Arena(20, 40), 0.5, 2.5, 1.5, seed=0)
    got = _Walks([ScriptedRng(script)], p, 20.0, 0.5).positions[:, 0]
    expected = _walk(ScriptedRng(script), p, np.arange(41) * 0.5)
    assert got.tobytes() == expected.tobytes()
    assert tuple(got[0]) == (5.0, 10.0)
    assert got[1, 0] > 5.0 and got[1, 1] == pytest.approx(10.0)  # heading for (15, 10)


@st.composite
def walk_case(draw):
    width = draw(st.one_of(st.integers(1, 2000), st.floats(0.5, 2000.0)))
    height = draw(st.one_of(st.integers(1, 2000), st.floats(0.5, 2000.0)))
    speed_min = draw(st.floats(0.1, 5.0))
    speed_max = draw(st.one_of(st.just(speed_min), st.floats(speed_min, 10.0)))
    pause = draw(st.one_of(st.just(0.0), st.floats(0.01, 60.0)))
    tick = draw(st.sampled_from([0.3, 0.5, 1.0, 2.0]))
    nodes = draw(st.sampled_from([0, 1, 2, 7, 30]))
    # a duration shorter than one tick leaves the single sample at t = 0
    duration = draw(st.one_of(st.floats(0.01, tick), st.floats(tick, 400.0)))
    seed = draw(st.integers(0, 2**32 - 1))
    return WaypointParams(Arena(width, height), speed_min, speed_max, pause, seed), nodes, duration, tick


@given(walk_case())
def test_trace_matches_the_leg_by_leg_reference(case):
    p, nodes, duration, tick = case
    got = generate_trace(p, nodes, duration, tick).positions
    assert got.tobytes() == reference_trace(p, nodes, duration, tick).tobytes()


@st.composite
def block_case(draw):
    """A walk, and reads of its ticks: blocks ``[a, b)`` in a drawn order,
    of drawn lengths, some running past the last tick; then the whole trace
    in consecutive blocks of a drawn length."""
    if draw(st.booleans()):
        p, nodes, duration, tick = draw(walk_case())
    else:
        # fast nodes in a small arena: a block holds many legs and pauses
        arena = Arena(draw(st.floats(0.5, 5.0)), draw(st.floats(0.5, 5.0)))
        speed_min = draw(st.floats(2.0, 20.0))
        speed_max = draw(st.one_of(st.just(speed_min), st.floats(speed_min, 40.0)))
        pause = draw(st.one_of(st.just(0.0), st.floats(0.01, 2.0)))
        p = WaypointParams(arena, speed_min, speed_max, pause, draw(st.integers(0, 2**32 - 1)))
        nodes = draw(st.sampled_from([1, 2, 7, 30]))
        tick = draw(st.sampled_from([0.3, 0.5, 1.0, 2.0]))
        duration = draw(st.floats(tick, 120.0))
    ticks = sample_count(duration, tick)
    reads = draw(
        st.lists(st.tuples(st.integers(0, ticks + 1), st.integers(0, 80)), min_size=1, max_size=6)
    )
    return p, nodes, duration, tick, [(a, a + length) for a, length in reads], draw(st.integers(1, 80))


@given(block_case())
def test_a_block_matches_the_reference_slice(case):
    p, nodes, duration, tick, reads, length = case
    trace = generate_trace(p, nodes, duration, tick)
    expected = reference_trace(p, nodes, duration, tick)
    for a, b in reads:
        assert trace.block(a, b).tobytes() == expected[a:b].tobytes(), (a, b)
    ticks = trace.tick_count
    assert ticks == len(expected)
    for a in range(0, ticks, length):
        assert trace.block(a, a + length).tobytes() == expected[a : a + length].tobytes(), a


def test_many_nodes_across_sample_groups_match_the_reference():
    # 2,000 samples per node, sampled as one block when positions is read
    for pause in (0.0, 3.0):
        p = params(seed=5, pause=pause, arena=Arena(40.0, 25))
        got = generate_trace(p, 11, 999.5, 0.5).positions
        assert got.tobytes() == reference_trace(p, 11, 999.5, 0.5).tobytes()


def test_a_shorter_trace_is_a_prefix_of_a_longer_one():
    for pause in (0.0, 2.0):
        p = params(seed=12, pause=pause, arena=Arena(60, 40))
        long = generate_trace(p, 9, 900, 1.0).positions
        for duration in (0.5, 1, 37, 450.5, 899):
            short = generate_trace(p, 9, duration, 1.0).positions
            assert short.tobytes() == long[: len(short)].tobytes(), duration


def test_mean_position_has_center_bias():
    t = generate_trace(params(seed=11), 10, 3000, 1.0)
    mean = t.positions.reshape(-1, 2).mean(axis=0)
    assert 300 * 0.25 <= mean[0] <= 300 * 0.75
    assert 450 * 0.25 <= mean[1] <= 450 * 0.75


# -- file format -------------------------------------------------------------------


def test_save_load_round_trip_is_exact(tmp_path):
    t = generate_trace(params(seed=8), 3, 5, 1.0)
    path = tmp_path / "trace.csv"
    save_trace(t, str(path))
    assert load_trace(str(path)) == t


def test_coordinates_have_at_least_three_fraction_digits(tmp_path):
    t = Trace(
        node_count=1,
        duration=1.0,
        tick=1.0,
        positions=np.array([[[1.5, 2.0]], [[0.125, 3.25]]]),
    )
    path = tmp_path / "trace.csv"
    save_trace(t, str(path))
    rows = path.read_text().splitlines()[1:]
    assert rows[0] == "0.0,0,1.500,2.000"
    assert rows[1] == "1.0,0,0.125,3.250"
    assert load_trace(str(path)) == t


@pytest.mark.parametrize("ticks", [2, 4])
def test_save_rejects_a_trace_its_duration_does_not_fit(tmp_path, ticks):
    # 2 s at 1 s ticks is three samples
    t = Trace(node_count=1, duration=2.0, tick=1.0, positions=np.zeros((ticks, 1, 2)))
    path = tmp_path / "trace.csv"
    with pytest.raises(TraceError, match=f"trace holds {ticks} ticks, but duration 2.0 at tick 1.0 gives 3"):
        save_trace(t, str(path))
    assert not path.exists()


def test_malformed_row_names_the_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("nodes=1 duration=1.0 tick=1.0\n0.0,0,1.000,2.000\noops\n")
    with pytest.raises(TraceFormatError, match="line 3"):
        load_trace(str(path))


def test_bad_header_is_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("nodecount=1\n")
    with pytest.raises(TraceFormatError, match="line 1"):
        load_trace(str(path))


def test_missing_sample_is_reported(tmp_path):
    t = generate_trace(params(seed=8), 3, 5, 1.0)
    path = tmp_path / "trace.csv"
    save_trace(t, str(path))
    lines = path.read_text().splitlines()
    # drop node 2 at tick 4
    victim = "4.0,2,"
    kept = [line for line in lines if not line.startswith(victim)]
    assert len(kept) == len(lines) - 1
    path.write_text("\n".join(kept) + "\n")
    with pytest.raises(IncompleteTraceError, match="tick 4, node 2"):
        load_trace(str(path))


def test_duplicate_sample_is_rejected(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text(
        "nodes=1 duration=1.0 tick=1.0\n"
        "0.0,0,1.000,2.000\n"
        "0.0,0,1.000,2.000\n"
        "1.0,0,1.000,2.000\n"
    )
    with pytest.raises(TraceFormatError, match="line 3"):
        load_trace(str(path))


def test_off_grid_time_is_rejected(tmp_path):
    path = tmp_path / "grid.csv"
    path.write_text("nodes=1 duration=2.0 tick=1.0\n0.5,0,1.000,2.000\n")
    with pytest.raises(TraceFormatError, match="line 2"):
        load_trace(str(path))


@pytest.mark.parametrize("x, y", [("inf", "2.000"), ("1.000", "-inf"), ("nan", "2.000")])
def test_non_finite_coordinate_is_rejected(tmp_path, x, y):
    path = tmp_path / "nonfinite.csv"
    path.write_text(
        "nodes=2 duration=1.0 tick=1.0\n"
        "0.0,0,1.000,2.000\n"
        "0.0,1,1.000,2.000\n"
        f"1.0,1,{x},{y}\n"
        "1.0,0,1.000,2.000\n"
    )
    with pytest.raises(TraceFormatError, match="line 4: .*tick 1, node 1"):
        load_trace(str(path))


def test_nan_then_duplicate_row_is_rejected(tmp_path):
    # NaN is also the parser's "missing" marker; a NaN row must not leave
    # its slot open for a second row of the same (tick, node).
    path = tmp_path / "nan_dup.csv"
    path.write_text(
        "nodes=1 duration=1.0 tick=1.0\n"
        "0.0,0,nan,nan\n"
        "0.0,0,1.000,2.000\n"
        "1.0,0,1.000,2.000\n"
    )
    with pytest.raises(TraceFormatError, match="line 2: .*tick 0, node 0"):
        load_trace(str(path))
