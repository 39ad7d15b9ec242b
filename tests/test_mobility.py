
import numpy as np
import pytest

from dtnsim.mobility import (
    Arena,
    IncompleteTraceError,
    Trace,
    TraceFormatError,
    WaypointParams,
    _walk,
    generate_trace,
    load_trace,
    save_trace,
)


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


def test_straight_segment_kinematics():
    # 10 m at 1 m/s: arrival exactly 10 ticks after departure
    class _LegRng:
        def __init__(self, draws):
            self.draws = list(draws)

        def uniform(self, low, high):
            return self.draws.pop(0)

    times = np.arange(26) * 1.0
    # start (0, 0); leg to (10, 0) at speed 1; then to (10, 5) at speed 1
    rng = _LegRng([0.0, 0.0, 10.0, 0.0, 1.0, 10.0, 5.0, 1.0, 10.0, 20.0, 1.0])
    out = _walk(rng, params(), times)
    for k in range(11):
        assert out[k, 0] == pytest.approx(float(k), abs=1e-12)
        assert out[k, 1] == 0.0
    assert tuple(out[10]) == (10.0, 0.0)  # exact arrival on tick 10
    assert tuple(out[15]) == (10.0, 5.0)  # second leg: 5 m, 5 ticks


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
