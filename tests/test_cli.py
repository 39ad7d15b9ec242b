import io

import pytest

from dtnsim.cli import ConfigError, main, parse_config, run_experiment
from dtnsim.engine import SimConfig, replicate
from dtnsim.mobility import load_trace
from dtnsim.routing import Protocol


def desk_overrides(**extra):
    values = {
        "protocol": "epidemic,proposed1",
        "nodes": "6",
        "speed": "1.5",
        "ttl": "30,60",
        "runs": "2",
        "seed": "3",
        "area_width": "60",
        "area_height": "60",
        "window_size": "120",
        "message_count": "20",
        "generation_span": "40",
    }
    values.update(extra)
    return values


def test_defaults_follow_the_evaluation_table():
    spec = parse_config()
    assert [p.value for p in spec.protocols] == [
        "epidemic",
        "friendship",
        "proposed1",
        "proposed2",
    ]
    assert spec.node_counts == [25, 75]
    assert spec.speeds == [0.5, 1.0, 1.25, 1.5]
    assert spec.ttls == [60.0, 120.0, 180.0, 240.0, 300.0, 360.0]
    assert spec.runs == 10
    base = spec.base
    assert (base.arena_width, base.arena_height) == (1000.0, 1500.0)
    assert base.comm_range == 3.0
    assert base.window_size == 600.0
    assert base.threshold == 0.01
    assert base.message_count == 1000
    assert base == SimConfig()  # every other SimConfig-backed key, too


def test_file_values_and_flag_precedence(tmp_path):
    config = tmp_path / "exp.conf"
    config.write_text("ttl=60,120\nseed=9\n# comment\n\nnodes=4\n")
    spec = parse_config(str(config))
    assert spec.ttls == [60.0, 120.0]
    assert spec.base.seed == 9
    spec = parse_config(str(config), overrides={"ttl": "180"})
    assert spec.ttls == [180.0]


def test_env_overrides_file_but_not_flags(tmp_path, monkeypatch):
    config = tmp_path / "exp.conf"
    config.write_text("ttl=60\n")
    monkeypatch.setenv("DTNSIM_TTL", "120")
    assert parse_config(str(config)).ttls == [120.0]
    assert parse_config(str(config), overrides={"ttl": "240"}).ttls == [240.0]


def test_unknown_keys_are_rejected(tmp_path):
    config = tmp_path / "exp.conf"
    config.write_text("frobnicate=1\n")
    with pytest.raises(ConfigError, match="frobnicate"):
        parse_config(str(config))
    with pytest.raises(ConfigError, match="bogus"):
        parse_config(None, overrides={"bogus": "1"})


def test_validation_errors_name_the_key():
    with pytest.raises(ConfigError, match="comm_range"):
        parse_config(None, overrides=desk_overrides(comm_range="-1"))
    with pytest.raises(ConfigError, match="ttl"):
        parse_config(None, overrides=desk_overrides(ttl="6x"))
    with pytest.raises(ConfigError, match="unknown protocol"):
        parse_config(None, overrides=desk_overrides(protocol="gossip"))
    with pytest.raises(ConfigError, match="runs"):
        parse_config(None, overrides=desk_overrides(runs="0"))
    with pytest.raises(ConfigError, match="empty sweep"):
        parse_config(None, overrides=desk_overrides(ttl=","))


def test_every_nodes_value_is_checked():
    with pytest.raises(ConfigError, match="nodes: node_count must be at least 2"):
        parse_config(None, overrides=desk_overrides(nodes="25,1"))


def test_every_speed_value_is_checked():
    with pytest.raises(ConfigError, match="speed: speed must be finite"):
        parse_config(None, overrides=desk_overrides(speed="1,nan"))


def test_every_ttl_value_is_checked():
    with pytest.raises(ConfigError, match="ttl: ttl must be finite"):
        parse_config(None, overrides=desk_overrides(ttl="60,inf"))


def test_sweep_produces_one_row_per_cell(tmp_path):
    out = tmp_path / "results.csv"
    spec = parse_config(None, overrides=desk_overrides(out=str(out)))
    status = run_experiment(spec, progress=io.StringIO())
    assert status == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 2 * 2  # header + protocols x ttls
    header = lines[0].split(",")
    assert header[:9] == [
        "protocol",
        "nodes",
        "speed",
        "ttl",
        "runs",
        "status",
        "delivery_ratio",
        "delivery_cost",
        "delivery_efficiency",
    ]
    assert len(header) == 9 + 3 * spec.runs
    assert all(line.split(",")[5] == "ok" for line in lines[1:])


def test_rerun_is_byte_identical(tmp_path):
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out_a, out_b):
        spec = parse_config(None, overrides=desk_overrides(out=str(out)))
        run_experiment(spec, progress=io.StringIO())
    assert out_a.read_bytes() == out_b.read_bytes()


def test_cell_metrics_match_replicate(tmp_path):
    out = tmp_path / "results.csv"
    spec = parse_config(
        None, overrides=desk_overrides(protocol="proposed2", ttl="30", out=str(out))
    )
    run_experiment(spec, progress=io.StringIO())
    row = out.read_text().splitlines()[1].split(",")
    from dataclasses import replace

    config = replace(
        spec.base,
        protocol=Protocol.PROPOSED_II,
        node_count=6,
        speed=1.5,
        ttl=30.0,
    )
    rep = replicate(config, spec.runs)
    assert float(row[6]) == rep.delivery_ratio
    assert float(row[7]) == rep.delivery_cost
    assert float(row[8]) == rep.delivery_efficiency


def test_failed_cell_is_marked_and_exit_status_nonzero(tmp_path):
    out = tmp_path / "results.csv"
    trace = tmp_path / "tiny.csv"
    # a 2-node trace cannot serve a 6-node sweep cell
    spec = parse_config(
        None,
        overrides=desk_overrides(nodes="2,6", protocol="epidemic", ttl="30"),
    )
    from dtnsim.cli import _dump_trace

    spec2 = parse_config(
        None, overrides=desk_overrides(nodes="2", protocol="epidemic", ttl="30")
    )
    _dump_trace(spec2, str(trace))
    spec = parse_config(
        None,
        overrides=desk_overrides(
            nodes="2,6",
            protocol="epidemic",
            ttl="30",
            trace=str(trace),
            out=str(out),
        ),
    )
    status = run_experiment(spec, progress=io.StringIO())
    assert status == 1
    lines = out.read_text().splitlines()
    statuses = [line.split(",")[5] for line in lines[1:]]
    assert statuses[0] == "ok"
    assert statuses[1].startswith("error:")


def test_main_dump_trace_and_ingest(tmp_path, capsys):
    trace_path = tmp_path / "trace.csv"
    out_path = tmp_path / "results.csv"
    args = [
        "--nodes", "4", "--speed", "1.5", "--ttl", "30", "--runs", "1",
        "--seed", "3", "--protocol", "epidemic",
    ]
    assert main(args + ["--dump-trace", str(trace_path)]) == 0
    trace = load_trace(str(trace_path))
    assert trace.node_count == 4
    status = main(args + ["--trace", str(trace_path), "--out", str(out_path)])
    capsys.readouterr()
    assert status == 0
    assert out_path.read_text().splitlines()[1].split(",")[5] == "ok"


def test_main_marks_cells_of_a_trace_with_another_tick(tmp_path, capsys):
    trace_path = tmp_path / "trace.csv"
    out_path = tmp_path / "results.csv"
    rows = [f"{t!r},{node},{node}.0,0.0" for t in (0.0, 2.0, 4.0) for node in range(4)]
    trace_path.write_text("nodes=4 duration=4.0 tick=2.0\n" + "\n".join(rows) + "\n")
    status = main(
        [
            "--nodes", "4", "--speed", "1.5", "--ttl", "30", "--runs", "1",
            "--protocol", "epidemic,proposed2",
            "--trace", str(trace_path), "--out", str(out_path),
        ]
    )
    capsys.readouterr()
    assert status == 1
    statuses = [line.split(",")[5] for line in out_path.read_text().splitlines()[1:]]
    assert statuses == ["error:ValueError", "error:ValueError"]


def test_main_runs_sweep_to_stdout(tmp_path, capsys):
    status = main(
        [
            "--nodes", "4", "--speed", "1.5", "--ttl", "30", "--runs", "1",
            "--seed", "3", "--protocol", "epidemic",
        ]
    )
    captured = capsys.readouterr()
    assert status == 0
    assert captured.out.splitlines()[0].startswith("protocol,nodes,speed,ttl")


def test_main_reports_config_errors(capsys):
    status = main(["--ttl", "nope"])
    assert status == 2
    assert "dtnsim:" in capsys.readouterr().err


def test_event_log_paths_for_multi_run_sweeps(tmp_path):
    out = tmp_path / "results.csv"
    log_base = tmp_path / "events.csv"
    spec = parse_config(
        None,
        overrides=desk_overrides(
            protocol="epidemic", ttl="30", runs="2", out=str(out),
            event_log=str(log_base),
        ),
    )
    run_experiment(spec, progress=io.StringIO())
    assert (tmp_path / "events.csv.c0.r0").exists()
    assert (tmp_path / "events.csv.c0.r1").exists()
