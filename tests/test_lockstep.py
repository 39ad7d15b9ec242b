"""Simulations sharing one timeline must match independent simulations.

A shared timeline runs the contact and social pipeline once and steps every
attached simulation in lockstep.  Each test here runs the same cells both
ways, or checks that a group is rejected or fails per cell.
"""

import hashlib
import io
from dataclasses import replace

import numpy as np
import pytest

from dtnsim.cli import parse_config, run_experiment
from dtnsim.engine import (
    SimConfig,
    Simulation,
    Timeline,
    TraceExhaustedError,
    run,
    shared_timeline,
)
from dtnsim.mobility import Trace, save_trace
from dtnsim.routing import Protocol

TTLS = (30.0, 80.0)


def relay_config(**overrides):
    """10 nodes in 80x80 m with 12 m range: every protocol relays (FWD events)."""
    base = dict(
        node_count=10,
        arena_width=80.0,
        arena_height=80.0,
        speed=1.5,
        comm_range=12.0,
        window_size=100.0,
        message_count=30,
        generation_span=50.0,
        seed=2,
    )
    base.update(overrides)
    return SimConfig(**base)


def cells(base):
    return [replace(base, protocol=p, ttl=ttl) for p in Protocol for ttl in TTLS]


def attach(configs):
    """Simulations of ``configs`` on one shared timeline, with their logs."""
    timeline = shared_timeline(configs)
    logs = [io.StringIO() for _ in configs]
    sims = [
        Simulation(config, event_log=log, timeline=timeline)
        for config, log in zip(configs, logs)
    ]
    return timeline, sims, logs


def grouped(configs, order=None):
    """Reports and event logs of ``configs`` run on one shared timeline."""
    _, sims, logs = attach(configs)
    reports = [None] * len(configs)
    for k in order if order is not None else range(len(configs)):
        reports[k] = sims[k].run()
    return reports, [log.getvalue() for log in logs]


def independent(configs):
    logs = [io.StringIO() for _ in configs]
    reports = [run(config, event_log=log) for config, log in zip(configs, logs)]
    return reports, [log.getvalue() for log in logs]


@pytest.mark.parametrize("checked", [False, True], indirect=True)
def test_grouped_runs_match_independent_runs(checked):
    configs = cells(relay_config())
    reports, logs = grouped(configs)
    assert (reports, logs) == independent(configs)
    # the scenario exercises relaying, not only direct delivery
    for config, log in zip(configs, logs):
        assert ",FWD," in log, config.protocol


def test_run_order_does_not_change_reports():
    configs = cells(relay_config())
    longest_first = sorted(range(len(configs)), key=lambda k: -configs[k].ttl)
    assert grouped(configs, order=longest_first) == grouped(configs)


def test_grouped_state_keeps_its_own_tick_count():
    configs = cells(relay_config())
    timeline = shared_timeline(configs)
    sims = [Simulation(config, timeline=timeline) for config in configs]
    for sim in reversed(sims):
        sim.run()
    for sim, config in zip(sims, configs):
        alone = Simulation(config)
        alone.run()
        assert sim.now == alone.now
        assert sim.holders == alone.holders
        assert sim.delivered == alone.delivered


def test_short_trace_fails_only_the_long_ttl_state(tmp_path):
    frames = np.tile(np.array([[0.0, 0.0], [100.0, 0.0]]), (30, 1, 1))
    path = tmp_path / "short.csv"
    save_trace(Trace(node_count=2, duration=29.0, tick=1.0, positions=frames), str(path))
    base = SimConfig(
        node_count=2, message_count=3, window_size=10.0, generation_span=1.0,
        trace_path=str(path),
    )
    short, long = replace(base, ttl=5.0), replace(base, ttl=50.0)
    timeline = shared_timeline([short, long])
    sims = [Simulation(config, timeline=timeline) for config in (long, short)]
    with pytest.raises(TraceExhaustedError):
        sims[0].run()
    assert sims[1].run() == run(short)
    with pytest.raises(TraceExhaustedError):
        run(long)


@pytest.mark.parametrize(
    "field, value",
    [("seed", 3), ("node_count", 11), ("comm_range", 5.0)],
)
def test_group_rejects_configs_differing_beyond_protocol_and_ttl(field, value):
    base = relay_config()
    other = replace(base, **{field: value})
    with pytest.raises(ValueError, match=f"^{field} differs"):
        shared_timeline([base, other])
    with pytest.raises(ValueError, match=f"^{field} differs"):
        Simulation(other, timeline=Timeline(base))


def test_state_needing_a_longer_trace_is_rejected():
    timeline = Timeline(relay_config(ttl=30.0))
    with pytest.raises(ValueError, match="ttl 80.0 needs"):
        Simulation(relay_config(ttl=80.0), timeline=timeline)


def test_second_run_raises():
    sim = Simulation(relay_config(ttl=30.0))
    sim.run()
    with pytest.raises(RuntimeError, match="once"):
        sim.run()


def test_started_timeline_takes_no_new_state():
    configs = cells(relay_config())[:2]
    timeline = shared_timeline(configs)
    Simulation(configs[0], timeline=timeline).run()
    with pytest.raises(RuntimeError, match="started"):
        Simulation(configs[1], timeline=timeline)


def test_run_experiment_rows_equal_per_cell_runs(tmp_path):
    out = tmp_path / "results.csv"
    spec = parse_config(
        None,
        overrides={
            "protocol": "epidemic,proposed2",
            "nodes": "10",
            "speed": "1.5",
            "ttl": "30,80",
            "runs": "2",
            "seed": "2",
            "area_width": "80",
            "area_height": "80",
            "comm_range": "12",
            "window_size": "100",
            "message_count": "30",
            "generation_span": "50",
            "out": str(out),
        },
    )
    assert run_experiment(spec, progress=io.StringIO()) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 4
    for row, (proto, nodes, speed, ttl) in zip(rows, spec.cells()):
        config = replace(spec.base, protocol=proto, node_count=nodes, speed=speed, ttl=ttl)
        assert row[:6] == [proto.value, "10", "1.5", repr(ttl), "2", "ok"]
        for k in range(spec.runs):
            report = run(replace(config, seed=config.seed + k))
            got = row[9 + 3 * k : 12 + 3 * k]
            assert got == [
                repr(report.delivery_ratio),
                repr(report.delivery_cost),
                repr(report.delivery_efficiency),
            ]


def test_failing_cell_does_not_stop_its_group(tmp_path):
    frames = np.tile(np.array([[0.0, 0.0], [100.0, 0.0]]), (30, 1, 1))
    trace = tmp_path / "short.csv"
    save_trace(Trace(node_count=2, duration=29.0, tick=1.0, positions=frames), str(trace))
    out = tmp_path / "results.csv"
    spec = parse_config(
        None,
        overrides={
            "protocol": "epidemic,proposed1",
            "nodes": "2",
            "speed": "1.0",
            "ttl": "5,50",
            "runs": "2",
            "window_size": "10",
            "generation_span": "1",
            "message_count": "3",
            "trace": str(trace),
            "out": str(out),
        },
    )
    progress = io.StringIO()
    assert run_experiment(spec, progress=progress) == 1
    statuses = [line.split(",")[5] for line in out.read_text().splitlines()[1:]]
    assert statuses == ["ok", "error:TraceExhaustedError"] * 2
    lines = progress.getvalue().splitlines()
    assert [line.split("]")[0] for line in lines] == ["[1/4", "[2/4", "[3/4", "[4/4"]
    assert "FAILED: trace ended with" in lines[1]


def test_trace_without_ticks_is_rejected():
    empty = Trace(node_count=2, duration=1.0, tick=1.0, positions=np.empty((0, 2, 2)))
    with pytest.raises(ValueError, match="no ticks"):
        Simulation(SimConfig(node_count=2), trace=empty)


# -- the social layer runs only for protocols that read it ----------------------


def logged_run(config):
    """Report, event-log text and the Simulation of one standalone run."""
    log = io.StringIO()
    sim = Simulation(config, event_log=log)
    return sim.run(), log.getvalue(), sim


@pytest.mark.parametrize("checked", [False, True], indirect=True)
def test_epidemic_alone_matches_epidemic_grouped_with_proposed2(checked):
    epidemic = relay_config(ttl=80.0)
    proposed = replace(epidemic, protocol=Protocol.PROPOSED_II)
    _, (sim, _), (log, _) = attach([epidemic, proposed])
    report = sim.run()
    alone_report, alone_log, _ = logged_run(epidemic)
    assert (report, log.getvalue()) == (alone_report, alone_log)
    assert ",FWD," in alone_log


def test_standalone_epidemic_run_skips_hello_and_maintain(monkeypatch):
    from dtnsim.social import SocialNetworkView

    calls = {"maintain": 0, "make_hello": 0}
    for name in calls:
        original = getattr(SocialNetworkView, name)

        def counted(view, *args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(view, *args, **kwargs)

        monkeypatch.setattr(SocialNetworkView, name, counted)
    report, log, sim = logged_run(relay_config(ttl=80.0))
    assert ",FWD," in log and report.delivered > 0
    assert calls == {"maintain": 0, "make_hello": 0}
    for node in sim.nodes:
        assert node.view.graph.vertices == {node.id}
        assert node.slots == {}

    # the same counters do see a protocol that reads the social layer
    logged_run(relay_config(ttl=80.0, protocol=Protocol.PROPOSED_II))
    assert calls["maintain"] > 0 and calls["make_hello"] > 0


def test_epidemic_keeps_matching_after_proposed_cell_finishes_first():
    # epidemic delivers every message at t=176; proposed2 at TTL 20 ends
    # when its last message expires, at t=168
    proposed = relay_config(ttl=20.0, protocol=Protocol.PROPOSED_II)
    epidemic = relay_config(ttl=80.0)
    timeline, sims, logs = attach([proposed, epidemic])
    reports = [sims[0].run(), sims[1].run()]
    # the proposed cell ended first, so the social layer stopped mid-run
    assert sims[0].now < sims[1].now
    assert not timeline._social
    for config, sim, report, log in zip((proposed, epidemic), sims, reports, logs):
        alone_report, alone_log, alone = logged_run(config)
        assert (report, log.getvalue()) == (alone_report, alone_log)
        assert ",FWD," in alone_log
        assert sim.now == alone.now and sim.holders == alone.holders


#: sha256 of each cell's event log at hello_period = 2 * tick, recorded at
#: the commit before hellos stood (every in-range pair heard a hello on
#: every hello tick)
EVERY_OTHER_TICK_LOG_DIGESTS = {
    ("epidemic", 30.0): "1077a8d81a9e719b51aeb03f0859ac74c868221174d1badb282d4b3338dbd60a",
    ("epidemic", 80.0): "dd8181b948fb8377fa8c92c852d9ec72861802db37dd1f9ab461131a01781a05",
    ("friendship", 30.0): "6c7b28d60c09d0aa037920a6e2291cfdebec5ae06551d87650f1000a58786da1",
    ("friendship", 80.0): "cb00117d3423e3a1b0732f2613a2bd6caade91069a9623d00a12ee5fca685571",
    ("proposed1", 30.0): "007a93983e73da24a5fc309e09603a1496c8c4683685c44bd1c3fd89f07e8e82",
    ("proposed1", 80.0): "38edf3d1db7ea4a7d562635875009dd7fa263da6a6d9c24ca77a349bf165916a",
    ("proposed2", 30.0): "3f77c43eaf3d5b5aaecc50517c65994acd85b8a3d9424d41cfe463df35e8abfc",
    ("proposed2", 80.0): "d806f9d10260612b7c9552cb6b72a43e54f5a8532cc69dfa81f35cb5c857f1f7",
}


@pytest.mark.parametrize("checked", [False, True], indirect=True)
def test_hellos_every_other_tick_keep_their_event_logs(checked):
    # pairs leave range between hello ticks, so their receivers' standing
    # handles are frozen at the next hello phase; routing reads both the
    # handles (on the tick between) and the frozen copies
    configs = cells(relay_config(hello_period=2.0))
    timeline, sims, logs = attach(configs)
    for sim in sims:
        sim.run()
    digests = {
        (config.protocol.value, config.ttl): hashlib.sha256(log.getvalue().encode()).hexdigest()
        for config, log in zip(configs, logs)
    }
    assert digests == EVERY_OTHER_TICK_LOG_DIGESTS
    frozen = [
        weights
        for node in timeline.nodes
        for x, weights in node.view.peer_weights.items()
        if weights is not timeline.nodes[x].standing
    ]
    assert any(frozen)
