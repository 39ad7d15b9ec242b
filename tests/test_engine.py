import io
import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from dtnsim.contacts import ContactWindow
from dtnsim.engine import (
    ContactEventKind,
    ContactTracker,
    SimConfig,
    Simulation,
    Timeline,
    TraceExhaustedError,
    default_trace,
    replicate,
    run,
    schedule_messages,
    summarize,
)
from dtnsim.mobility import Trace, TraceError, save_trace
from dtnsim.routing import Message, Protocol

from checked import CheckedTimeline, checking


def still_trace(coords, ticks):
    pos = np.tile(np.asarray(coords, dtype=float)[None, :, :], (ticks, 1, 1))
    return Trace(
        node_count=len(coords), duration=float(ticks - 1), tick=1.0, positions=pos
    )


def path_trace(frames):
    pos = np.asarray(frames, dtype=float)
    return Trace(
        node_count=pos.shape[1],
        duration=float(pos.shape[0] - 1),
        tick=1.0,
        positions=pos,
    )


def dense_config(**overrides):
    """Small arena with frequent contacts; finishes in well under a second."""
    base = dict(
        node_count=8,
        arena_width=60.0,
        arena_height=60.0,
        speed=1.5,
        comm_range=3.0,
        window_size=120.0,
        threshold=0.01,
        ttl=40.0,
        message_count=30,
        generation_span=60.0,
        seed=2,
        protocol=Protocol.PROPOSED_II,
    )
    base.update(overrides)
    return SimConfig(**base)


# -- config validation --------------------------------------------------------------


def test_config_check_names_offending_field():
    with pytest.raises(ValueError, match="comm_range"):
        SimConfig(comm_range=-1).check()
    with pytest.raises(ValueError, match="node_count"):
        SimConfig(node_count=1).check()
    with pytest.raises(ValueError, match="hello_period"):
        SimConfig(hello_period=0.7).check()
    # within the multiple-of-tick slack of 0 ticks
    with pytest.raises(ValueError, match="hello_period"):
        SimConfig(hello_period=1e-10, tick=1.0).check()


@pytest.mark.parametrize(
    "name, value",
    [
        ("node_count", 25.0),
        ("node_count", True),
        ("message_count", 100.5),
        ("message_count", True),
        ("missed_hello_limit", 2.5),
        ("missed_hello_limit", True),
        ("seed", 1.5),
        ("seed", False),
        ("seed", "1"),
    ],
)
def test_config_check_requires_integer_fields(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        replace(SimConfig(), **{name: value}).check()


def test_config_check_accepts_numpy_integers():
    SimConfig(node_count=np.int64(5), seed=np.uint32(3)).check()


@pytest.mark.parametrize("value", ["epidemic", "proposed2", None, 0])
def test_config_check_requires_protocol_member(value):
    with pytest.raises(ValueError, match="^protocol must be a Protocol member"):
        SimConfig(protocol=value).check()
    with pytest.raises(ValueError, match="^protocol"):
        Simulation(SimConfig(protocol=value, node_count=5, message_count=3))


FLOAT_FIELDS = (
    "arena_width",
    "arena_height",
    "speed",
    "pause",
    "comm_range",
    "window_size",
    "threshold",
    "ttl",
    "generation_span",
    "hello_period",
    "tick",
)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("name", FLOAT_FIELDS)
def test_config_check_requires_finite_values(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        replace(SimConfig(), **{name: value}).check()


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_simulation_rejects_non_finite_trace(value):
    trace = still_trace([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)], ticks=4)
    trace.positions[2, 1, 1] = value
    cfg = SimConfig(node_count=3, message_count=1, window_size=10.0, generation_span=1.0)
    with pytest.raises(ValueError, match="tick 2, node 1"):
        Simulation(cfg, trace=trace)


@pytest.mark.parametrize("shape", [(20, 2, 3), (20, 2), (20, 3, 2)])
def test_simulation_rejects_trace_positions_of_another_shape(shape):
    # two nodes: (x, y, z) rows, no coordinate axis, and a third node
    trace = Trace(node_count=2, duration=19.0, tick=1.0, positions=np.zeros(shape))
    cfg = SimConfig(node_count=2, message_count=1, window_size=10.0, generation_span=1.0)
    expected = re.escape(f"positions has shape {shape}, expected (ticks, 2, 2)")
    with pytest.raises(TraceError, match=expected):
        Simulation(cfg, trace=trace)


def test_simulation_rejects_trace_with_another_tick(tmp_path):
    # a 2 s trace replayed on a 1 s grid would move every node twice as fast
    trace = replace(still_trace([(0.0, 0.0), (1.0, 0.0)], ticks=4), tick=2.0, duration=6.0)
    cfg = SimConfig(node_count=2, message_count=1, window_size=10.0, generation_span=1.0)
    message = r"trace has tick 2\.0, config wants tick 1\.0"
    with pytest.raises(ValueError, match=message):
        Simulation(cfg, trace=trace)
    path = tmp_path / "trace.csv"
    save_trace(trace, str(path))
    with pytest.raises(ValueError, match=message):
        Simulation(replace(cfg, trace_path=str(path)))


# -- contact tracking ----------------------------------------------------------------


def tracker_over(frames, comm_range=3.0, missed_hello_limit=3):
    """A tracker replaying ``frames``, one (x, y) row per node each tick."""
    return ContactTracker(path_trace(frames), comm_range, missed_hello_limit)


def contact_events(sim):
    """Contact events of ``sim``'s ticks, from a fresh tracker over its trace."""
    cfg = sim.cfg
    tracker = ContactTracker(sim.trace, cfg.comm_range, cfg.missed_hello_limit)
    events = []
    for idx in range(round(sim.now / cfg.tick) + 1):
        events += tracker.update(idx, idx * cfg.tick)[0]
    return events


def test_encounter_at_boundary_distance():
    tracker = tracker_over([[[0.0, 0.0], [2.9, 0.0]]], comm_range=3.0, missed_hello_limit=3)
    events, pairs = tracker.update(0, 0.0)
    assert [e.kind for e in events] == [ContactEventKind.ENCOUNTER]
    assert events[0].pair == (0, 1) and events[0].time == 0.0
    assert (0, 1) in pairs
    # exactly at range: still within (boundary inclusive)
    tracker2 = tracker_over([[[0.0, 0.0], [3.0, 0.0]]])
    events, _ = tracker2.update(0, 0.0)
    assert len(events) == 1


def test_departure_stamped_at_first_missed_tick():
    apart = [[0.0, 0.0], [3.5, 0.0]]
    tracker = tracker_over([[[0.0, 0.0], [1.0, 0.0]], apart, apart, apart])
    tracker.update(0, 0.0)
    assert tracker.update(1, 1.0)[0] == []
    assert tracker.update(2, 2.0)[0] == []
    events, _ = tracker.update(3, 3.0)
    assert [e.kind for e in events] == [ContactEventKind.DEPART]
    assert events[0].time == 1.0


def test_miss_counter_resets_on_reentry():
    near = [[0.0, 0.0], [2.0, 0.0]]
    far = [[0.0, 0.0], [3.5, 0.0]]
    tracker = tracker_over([near, far, near, far, far, far])
    tracker.update(0, 0.0)
    assert tracker.update(1, 1.0)[0] == []
    assert tracker.update(2, 2.0)[0] == []  # back in range, counter resets
    assert tracker.update(3, 3.0)[0] == []
    assert tracker.update(4, 4.0)[0] == []
    events, _ = tracker.update(5, 5.0)
    assert [e.kind for e in events] == [ContactEventKind.DEPART]
    assert events[0].time == 3.0


@pytest.mark.usefixtures("checked")
def test_encounter_depart_alternate_per_pair():
    cfg = dense_config()
    sim = Simulation(cfg)
    sim.run()
    state: dict[tuple[int, int], ContactEventKind] = {}
    for ev in contact_events(sim):
        previous = state.get(ev.pair)
        if ev.kind is ContactEventKind.ENCOUNTER:
            assert previous in (None, ContactEventKind.DEPART)
        else:
            assert previous is ContactEventKind.ENCOUNTER
        state[ev.pair] = ev.kind


# -- message scheduling ----------------------------------------------------------------


def test_schedule_respects_warmup_and_src_dst():
    cfg = SimConfig(node_count=10, message_count=200, seed=5)
    messages = schedule_messages(cfg)
    assert len(messages) == 200
    assert min(m.created_at for m in messages) >= cfg.window_size
    assert max(m.created_at for m in messages) < cfg.window_size + cfg.generation_span
    assert all(m.src != m.dst for m in messages)
    assert all(0 <= m.src < 10 and 0 <= m.dst < 10 for m in messages)


def test_schedule_is_deterministic_per_seed():
    cfg = SimConfig(node_count=10, message_count=50, seed=5)
    assert schedule_messages(cfg) == schedule_messages(cfg)
    assert schedule_messages(cfg) != schedule_messages(replace(cfg, seed=6))


# -- single-run scenarios ----------------------------------------------------------------


@pytest.mark.usefixtures("checked")
def test_permanent_contact_direct_delivery():
    cfg = SimConfig(node_count=2, ttl=60, message_count=1)
    trace = still_trace([(0, 0), (2, 0)], 700)
    messages = [Message(id=0, src=0, dst=1, created_at=600.0, ttl=60.0)]
    report = run(cfg, trace=trace, messages=messages)
    assert report.delivery_ratio == 1.0
    assert report.delivery_cost == 1.0
    assert report.delivery_efficiency == 1.0
    assert report.efficiency_defined


@pytest.mark.usefixtures("checked")
def test_never_in_range_reports_undefined_efficiency():
    cfg = SimConfig(node_count=2, ttl=60, message_count=1)
    trace = still_trace([(0, 0), (100, 0)], 700)
    messages = [Message(id=0, src=0, dst=1, created_at=600.0, ttl=60.0)]
    report = run(cfg, trace=trace, messages=messages)
    assert report.delivery_ratio == 0.0
    assert report.delivery_cost == 0.0
    assert report.delivery_efficiency == 0.0
    assert not report.efficiency_defined


def relay_chain_trace(ticks=60):
    frames = []
    for t in range(ticks):
        if t <= 5:
            b = (2.0, 0.0)
        elif t <= 10:
            b = (50.0, 0.0)
        else:
            b = (98.0, 0.0)
        frames.append([(0.0, 0.0), b, (100.0, 0.0)])
    return path_trace(frames)


@pytest.mark.usefixtures("checked")
def test_two_hop_relay_chain_under_epidemic():
    cfg = SimConfig(node_count=3, ttl=40, message_count=1)
    messages = [Message(id=0, src=0, dst=2, created_at=1.0, ttl=40.0)]
    report = run(cfg, trace=relay_chain_trace(), messages=messages)
    assert report.delivery_ratio == 1.0
    assert report.delivery_cost == 2.0  # one copy to the relay, one delivery


def test_trace_exhausted_raises():
    cfg = SimConfig(node_count=2, ttl=60, message_count=1)
    trace = still_trace([(0, 0), (100, 0)], 20)
    messages = [Message(id=0, src=0, dst=1, created_at=5.0, ttl=60.0)]
    with pytest.raises(TraceExhaustedError):
        run(cfg, trace=trace, messages=messages)


def message(**fields):
    base = dict(id=3, src=0, dst=1, created_at=5.0, ttl=60.0)
    base.update(fields)
    return Message(**base)


@pytest.mark.parametrize(
    "messages, field",
    [
        ([message(dst=9)], "dst"),
        ([message(src=-1)], "src"),
        ([message(created_at=math.nan)], "created_at"),
        ([message(ttl=math.inf)], "ttl"),
        ([message(), message(dst=2)], "id"),
    ],
)
def test_malformed_messages_are_rejected(messages, field):
    cfg = SimConfig(node_count=5, message_count=len(messages))
    trace = still_trace([(2.0 * k, 0.0) for k in range(5)], 20)
    with pytest.raises(ValueError, match=rf"^message 3: {field} "):
        Simulation(cfg, trace=trace, messages=messages)


def test_an_empty_workload_is_rejected():
    # before any run: its metrics would divide by the zero messages generated
    cfg = SimConfig(node_count=5)
    trace = still_trace([(2.0 * k, 0.0) for k in range(5)], 20)
    with pytest.raises(ValueError, match="message workload is empty"):
        Simulation(cfg, trace=trace, messages=[])


def test_timeline_memory_grows_with_nodes_not_pairs():
    # one 2,000 x 2,000 float matrix alone would be 32 MB
    n = 2000
    trace = Trace(node_count=n, duration=0.0, tick=1.0, positions=np.zeros((1, n, 2)))
    tracemalloc.start()
    try:
        Timeline(SimConfig(node_count=n), trace)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000


def test_building_a_long_run_holds_no_positions_array():
    # 25 nodes over 1,001,603 ticks: a positions array would take 382 MiB;
    # the leg tables and one sampled block take about 13 MiB at their peak
    tracemalloc.start()
    try:
        sim = Simulation(SimConfig(ttl=1e6, message_count=5))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sim.trace.tick_count == 1_001_603
    assert peak < 64 * 2**20


# -- whole-run invariants ----------------------------------------------------------------


def test_determinism_bitwise_reports_and_event_logs():
    cfg = dense_config()
    log_a, log_b = io.StringIO(), io.StringIO()
    report_a = run(cfg, event_log=log_a)
    report_b = run(cfg, event_log=log_b)
    assert report_a == report_b
    assert log_a.getvalue() == log_b.getvalue()
    assert log_a.getvalue().splitlines()[0] == "time,event,msg_id,from,to"


@pytest.mark.usefixtures("checked")
def test_conservation_delivered_plus_expired_equals_generated():
    cfg = dense_config()
    sim = Simulation(cfg)
    report = sim.run()
    assert report.generated == cfg.message_count
    undelivered = {m.id for m in sim.messages} - sim.delivered
    assert len(sim.delivered) + len(undelivered) == report.generated
    for mid in undelivered:
        assert not sim.holders[mid]  # no copy anywhere: expired everywhere


def test_event_log_gen_count_matches_messages(tmp_path):
    cfg = dense_config()
    path = tmp_path / "events.csv"
    run(cfg, event_log=str(path))
    lines = path.read_text().splitlines()[1:]
    kinds = [line.split(",")[1] for line in lines]
    assert kinds.count("GEN") == cfg.message_count
    assert set(kinds) <= {"GEN", "FWD", "DLV", "EXP"}


@pytest.mark.usefixtures("checked")
def test_windows_match_ground_truth_contact_events():
    cfg = dense_config()
    sim = Simulation(cfg)
    sim.run()
    rebuilt: dict[tuple[int, int], ContactWindow] = {}
    for ev in contact_events(sim):
        win = rebuilt.get(ev.pair)
        if win is None:
            win = rebuilt[ev.pair] = ContactWindow(ev.pair[1], cfg.window_size)
        if ev.kind is ContactEventKind.ENCOUNTER:
            win.record_encounter(ev.time)
        else:
            win.record_departure(ev.time)
    now = sim.now
    seen = set()
    for a, node in enumerate(sim.nodes):
        for b, slot in node.slots.items():
            pair = (min(a, b), max(a, b))
            win = sim.timeline._slot_win[slot]
            win.slide(now)
            reference = rebuilt[pair]
            reference.slide(now)
            assert win.intervals == reference.intervals
            seen.add(pair)
    assert seen == set(rebuilt)


@pytest.mark.usefixtures("checked")
def test_each_contact_pair_has_one_slot_named_by_both_ends():
    sim = Simulation(dense_config())
    sim.run()
    slots = set()
    for i, node in enumerate(sim.nodes):
        for j, slot in node.slots.items():
            assert sim.nodes[j].slots[i] == slot
            slots.add(slot)
    assert len(slots) == len({ev.pair for ev in contact_events(sim)})


def test_incremental_maintain_equals_full_maintain():
    # the checked run asserts, at every hello tick, that a full maintain
    # pass changes no view the engine left clean; and checking changes nothing
    variants = [
        dense_config(seed=1),
        dense_config(seed=2, protocol=Protocol.PROPOSED_I),
        dense_config(seed=3, hello_period=5.0),
        dense_config(seed=7, missed_hello_limit=1),
    ]
    for cfg in variants:
        fast_log, checked_log = io.StringIO(), io.StringIO()
        fast = run(cfg, event_log=fast_log)
        with checking():
            checked = run(cfg, event_log=checked_log)
        assert fast == checked
        assert fast_log.getvalue() == checked_log.getvalue()


def shared_workload(ttl=40.0):
    cfg = dense_config()
    trace = default_trace(cfg)
    messages = schedule_messages(cfg)
    return cfg, trace, messages


def test_epidemic_dominates_every_protocol_on_a_fixed_trace():
    cfg, trace, messages = shared_workload()
    results = {}
    for proto in Protocol:
        sim = Simulation(replace(cfg, protocol=proto), trace=trace, messages=messages)
        report = sim.run()
        results[proto] = (sim.delivered, report)
    epidemic_delivered, epidemic_report = results[Protocol.EPIDEMIC]
    for proto, (delivered, report) in results.items():
        assert delivered <= epidemic_delivered
        assert report.delivery_cost <= epidemic_report.delivery_cost
        assert report.delivery_ratio <= epidemic_report.delivery_ratio


def test_destination_never_relays():
    cfg, trace, messages = shared_workload()
    sim = Simulation(replace(cfg, protocol=Protocol.EPIDEMIC), trace=trace, messages=messages)
    sim.run()
    for m in sim.messages:
        assert m.dst not in sim.holders.get(m.id, set())


def social_pipeline_trace(ticks=910):
    """A(0) and B(1) share a long contact; so do C(2) and D(3).  C then visits
    A briefly (hello exchange only) and returns to D.  Friendships form around
    t=254, giving C an advertised weight toward D when it meets A."""
    frames = []
    for t in range(ticks):
        a = (0.0, 0.0)
        b = (2.0, 0.0) if t <= 300 else (50.0, 50.0)
        if t <= 300:
            c = (100.0, 0.0)
        elif t < 310:
            c = (60.0, 60.0)
        elif t <= 320:
            c = (2.0, 0.0)
        elif t < 340:
            c = (60.0, 60.0)
        else:
            c = (100.0, 0.0)
        d = (102.0, 0.0)
        frames.append([a, b, c, d])
    return path_trace(frames)


def pipeline_messages():
    return [
        Message(id=0, src=0, dst=3, created_at=305.0, ttl=400.0),
        Message(id=1, src=3, dst=0, created_at=400.0, ttl=500.0),
    ]


@pytest.mark.usefixtures("checked")
@pytest.mark.parametrize("protocol", [Protocol.PROPOSED_I, Protocol.PROPOSED_II])
def test_weight_based_relay_pipeline(protocol):
    # A holds a message for D and meets C, a friend of D: the weight rule fires
    # and, with nothing in A's social network advertising D, upgrades to
    # forward-and-delete.  C later hands the message to D directly.
    cfg = SimConfig(node_count=4, ttl=500, message_count=2, protocol=protocol)
    log = io.StringIO()
    report = run(cfg, trace=social_pipeline_trace(), messages=pipeline_messages(), event_log=log)
    assert report.delivered == 1
    assert report.total_forwards == 2
    assert report.delivery_ratio == 0.5
    assert report.delivery_cost == 1.0
    events = [line.split(",") for line in log.getvalue().splitlines()[1:]]
    fwd = [e for e in events if e[1] == "FWD"]
    dlv = [e for e in events if e[1] == "DLV"]
    assert fwd == [["310.0", "FWD", "0", "0", "2"]]
    assert dlv == [["340.0", "DLV", "0", "2", "3"]]
    # forward-and-delete: only C carried the copy to expiry
    exp0 = [e for e in events if e[1] == "EXP" and e[2] == "0"]
    assert exp0 == [["706.0", "EXP", "0", "2", "-1"]]


@pytest.mark.usefixtures("checked")
def test_relay_pipeline_friendship_copies_without_delete():
    cfg = SimConfig(node_count=4, ttl=500, message_count=2, protocol=Protocol.FRIENDSHIP)
    log = io.StringIO()
    report = run(cfg, trace=social_pipeline_trace(), messages=pipeline_messages(), event_log=log)
    assert report.delivered == 1
    events = [line.split(",") for line in log.getvalue().splitlines()[1:]]
    exp0 = [e for e in events if e[1] == "EXP" and e[2] == "0"]
    # plain copy: both the source and the relay carried the message
    assert exp0 == [
        ["706.0", "EXP", "0", "0", "-1"],
        ["706.0", "EXP", "0", "2", "-1"],
    ]


def test_peer_met_between_hellos_is_maintained_at_the_next_hello():
    # A(0) and B(1) are friends, and so are B and C(2), so A's view holds C
    # through B's advertisement.  C steps next to A at t=302 only, between
    # the hellos at 300 and 305: a new peer below the threshold, whose slot
    # must mark A dirty so that the hello at 305 evicts C from A's view.
    frames = []
    for t in range(340):
        c = (1.0, 1.0) if t == 302 else (4.0, 0.0)
        frames.append([(0.0, 0.0), (2.0, 0.0), c, (100.0, 100.0)])
    cfg = SimConfig(node_count=4, ttl=330, message_count=1, hello_period=5.0,
                    protocol=Protocol.PROPOSED_II)
    messages = [Message(id=0, src=3, dst=0, created_at=1.0, ttl=330.0)]
    sim = Simulation(cfg, trace=path_trace(frames), messages=messages)
    sim.run()
    assert 2 in sim.nodes[0].slots
    assert set(sim.nodes[0].view.graph.vertices) == {0, 1}


@pytest.mark.usefixtures("checked")
def test_relay_pipeline_views_dissolve_after_separation():
    cfg = SimConfig(node_count=4, ttl=500, message_count=2, protocol=Protocol.PROPOSED_I)
    sim = Simulation(cfg, trace=social_pipeline_trace(), messages=pipeline_messages())
    sim.run()
    # A-B separated at t=301; their tie crosses back under the threshold
    # near t=648 and the maintenance pass evicts it.  C-D are still in contact.
    assert set(sim.nodes[0].view.graph.vertices) == {0}
    assert set(sim.nodes[1].view.graph.vertices) == {1}
    assert set(sim.nodes[2].view.graph.vertices) == {2, 3}
    assert set(sim.nodes[3].view.graph.vertices) == {2, 3}
    assert sim.now == 901.0


# -- replication ---------------------------------------------------------------------


def test_replicate_single_run_matches_run():
    cfg = dense_config()
    assert replicate(cfg, 1).runs[0] == run(cfg)


def test_replicate_means_and_determinism():
    cfg = dense_config()
    rep = replicate(cfg, 3)
    assert rep == replicate(cfg, 3)
    assert rep.delivery_ratio == pytest.approx(
        sum(r.delivery_ratio for r in rep.runs) / 3, abs=1e-12
    )
    assert rep.delivery_cost == pytest.approx(
        sum(r.delivery_cost for r in rep.runs) / 3, abs=1e-12
    )
    seeds_differ = {r.delivery_ratio for r in rep.runs}
    assert len(rep.runs) == 3 and len(seeds_differ) >= 1


def test_summarize_requires_reports():
    with pytest.raises(ValueError):
        summarize([])


def test_incremental_maintain_equals_full_maintain_with_two_hop_views():
    # friend graphs with two-hop neighbourhoods form here, so a view goes
    # stale unless a changed hello advertisement schedules its maintain
    cfg = SimConfig(
        node_count=10, arena_width=80.0, arena_height=80.0, speed=1.5,
        comm_range=12.0, window_size=150.0, message_count=30,
        generation_span=50.0, ttl=80.0, seed=2, protocol=Protocol.PROPOSED_II,
    )
    fast_log, checked_log = io.StringIO(), io.StringIO()
    fast = Simulation(cfg, event_log=fast_log)
    with checking():
        checked = Simulation(cfg, event_log=checked_log)
    assert isinstance(checked.timeline, CheckedTimeline)
    assert fast.run() == checked.run()
    assert fast_log.getvalue() == checked_log.getvalue()
    for a, b in zip(fast.nodes, checked.nodes):
        assert a.view.graph == b.view.graph
    assert any(len(node.view.graph.vertices) > 2 for node in fast.nodes)
