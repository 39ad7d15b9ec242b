"""Quiet ticks cost nothing, and skipping them changes nothing.

A timeline runs its weight pass only on a tick with pairs, a contact event,
a due refresh, a dirty node at a hello tick, or a due skip bound; a
simulation is stepped only on a tick with pairs, its settle tick (where its
last message not delivered expires) or its last tick, and each step catches
up the injections and expiries of the ticks it skipped.  The bound
(``Timeline._weigh_by``) must never fall after the first tick at which a
slot's ``link_weight > threshold`` changes, evaluated from scratch tick by
tick, across the slot's refreshes.  And whole runs that skip must match
runs that pass and step on every tick, byte for byte, with or without an
event log, and an event log of a sparse sweep must keep its recorded bytes.
"""

import contextlib
import hashlib
import io
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dtnsim.cli import parse_config, run_experiment
from dtnsim.contacts import ContactWindow
from dtnsim.engine import (
    ContactTracker,
    SimConfig,
    Simulation,
    Timeline,
    shared_timeline,
    trace_duration,
)
from dtnsim.mobility import Trace
from dtnsim.routing import Message, Protocol

from checked import checking

NODES = 6
PAIRS = list(itertools.combinations(range(NODES), 2))


def idle_timeline(window_size, threshold, tick):
    """A timeline whose slots a test fills by hand; its trace is never replayed."""
    config = SimConfig(
        node_count=NODES,
        window_size=window_size,
        threshold=threshold,
        tick=tick,
        hello_period=tick,
    )
    trace = Trace(NODES, 0.0, tick, np.zeros((1, NODES, 2)))
    return Timeline(config, trace)


@st.composite
def slot_histories(draw):
    """Contact intervals, in ticks, of one slot: alternating gaps and contacts
    from tick 0, the last contact possibly still open."""
    history, at = [], 0
    for _ in range(draw(st.integers(0, 4))):
        start = at + draw(st.integers(0, 30))
        end = start + draw(st.integers(0, 20))
        history.append((start, end))
        at = end
    if history and draw(st.booleans()):
        history[-1] = (history[-1][0], None)
    return history


@st.composite
def weight_scenes(draw):
    """Slot histories, the tick of the pass, and a threshold: a fixed one, or
    the weight of one slot ``k`` ticks after the pass, so that this slot's
    crossing, if it has one there, lands exactly on a tick."""
    tick = draw(st.sampled_from([0.5, 1.0, 2.0]))
    window_size = float(draw(st.integers(4, 60))) * tick
    histories = draw(st.lists(slot_histories(), min_size=1, max_size=6))
    ends = [end if end is not None else start for h in histories for start, end in h]
    now_idx = max(ends, default=0) + draw(st.integers(0, 10))
    threshold = draw(
        st.one_of(
            st.sampled_from([0.0, 0.01, 0.05, 0.2]),
            st.tuples(st.integers(0, len(histories) - 1), st.integers(1, 20)),
        )
    )
    return tick, window_size, threshold, histories, now_idx


def window_of(history, window_size, tick):
    window = ContactWindow(0, window_size)
    for start, end in history:
        window.record_encounter(start * tick)
        if end is not None:
            window.record_departure(end * tick)
    return window


@settings(max_examples=300)
@given(scene=weight_scenes())
# a contact [0, 10] in a 8 s window: from t=10 lead is 0 and the integral is
# 0.5 * (t - 10)**2, which meets W / threshold = 8 exactly at t=14
@example(scene=(1.0, 8.0, 1.0, [[(0, 10)]], 10))
# threshold 0: every finite integral is below the largest float
@example(scene=(1.0, 8.0, 0.0, [[(0, 10)], [(2, None)], []], 10))
def test_skip_bound_never_passes_a_flip(scene):
    tick, window_size, threshold, histories, now_idx = scene
    now = now_idx * tick
    if isinstance(threshold, tuple):
        at, k = threshold
        window = window_of(histories[at], window_size, tick)
        threshold = window.link_weight((now_idx + k) * tick)
    timeline = idle_timeline(window_size, threshold, tick)
    slots = []
    for (u, v), history in zip(PAIRS, histories):
        slot = timeline._new_slot(u, v)
        timeline._slot_win[slot] = window_of(history, window_size, tick)
        timeline._refresh_slot(slot, now)
        slots.append(slot)
    timeline._compute_weights(now, bound=True)
    bound = timeline._weigh_by
    assert not math.isnan(bound)

    # every tick's weights from scratch, refreshes included
    windows = [window_of(history, window_size, tick) for history in histories]
    friends = [window.link_weight(now) > threshold for window in windows]
    assert timeline._was_friend[: len(slots)].tolist() == friends
    last = now_idx + int(2 * window_size / tick) + 2
    for idx in range(now_idx + 1, last + 1):
        t = idx * tick
        flags = [window.link_weight(t) > threshold for window in windows]
        if flags != friends:
            assert bound <= t, f"a slot crosses at t={t}, the bound is {bound}"
            break


def test_an_exact_crossing_is_caught_on_its_tick():
    # the @example above, spelled out: the pass sees the crossing at t=14
    timeline = idle_timeline(8.0, 1.0, 1.0)
    slot = timeline._new_slot(0, 1)
    timeline._slot_win[slot].record_encounter(0.0)
    timeline._slot_win[slot].record_departure(10.0)
    flips = []
    for idx in range(10, 18):
        now = float(idx)
        timeline._refresh_slot(slot, now)
        if now >= timeline._weigh_by:
            was = bool(timeline._was_friend[slot])
            timeline._compute_weights(now, bound=True)
            if bool(timeline._was_friend[slot]) != was:
                flips.append(now)
    assert flips == [10.0, 14.0]


@pytest.mark.usefixtures("checked")
def test_a_late_departure_brings_a_pass():
    # Nodes 0 and 1 meet for ticks 0-20, then part.  With 8 missed hellos
    # the departure is seen at t=28, stamped t=21: the gap integral jumps
    # from 0 to 0.5 * 7**2 = 24.5, past W / threshold = 20.  The skip bound
    # from the open contact lets the pass skip every other tick, t=28 among
    # them; the departure itself must bring the pass that unfriends them,
    # or the checked timeline finds a stale friend-slot map at t=28.
    ticks = 70
    frames = np.zeros((ticks, 2, 2))
    frames[21:, 1] = (100.0, 0.0)
    config = SimConfig(
        node_count=2,
        window_size=8.5,
        threshold=8.5 / 20,
        missed_hello_limit=8,
        message_count=1,
        protocol=Protocol.FRIENDSHIP,
    )
    trace = Trace(2, float(ticks - 1), 1.0, frames)
    sim = Simulation(config, trace=trace, messages=[Message(0, 0, 1, 50.0, 10.0)])
    sim.run()
    assert sim.nodes[0].friends == {}


class EveryTickTimeline(Timeline):
    """Runs the weight pass on every tick the social layer runs."""

    def _social_phases(self, idx, now, events, pairs):
        self._weigh_by = -math.inf
        super()._social_phases(idx, now, events, pairs)


class EveryTickSimulation(Simulation):
    """A simulation stepped on every tick until it ends, so that no step has
    a skipped tick to catch up."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._settle = -math.inf

    def _step(self, idx, now, pairs):
        done = super()._step(idx, now, pairs)
        self._settle = -math.inf
        return done


def run_cells(cells, timeline, simulation, logged):
    logs = [io.StringIO() if logged else None for _ in cells]
    sims = [simulation(c, event_log=log, timeline=timeline) for c, log in zip(cells, logs)]
    reports = [sim.run() for sim in sims]
    views = [list(node.view.graph._adj.items()) for node in timeline.nodes]
    texts = [log.getvalue() if logged else None for log in logs]
    masks = [(s.held, s.got, s.holders) for s in sims]
    return reports, texts, [s.now for s in sims], views, masks


configs = st.builds(
    SimConfig,
    node_count=st.integers(2, 8),
    arena_width=st.floats(10.0, 60.0),
    arena_height=st.floats(10.0, 60.0),
    speed=st.floats(0.5, 4.0),
    comm_range=st.floats(3.0, 25.0),
    window_size=st.floats(4.0, 40.0),
    threshold=st.sampled_from([0.0, 0.01, 0.05, 0.2]),
    message_count=st.integers(1, 20),
    generation_span=st.floats(1.0, 30.0),
    hello_period=st.sampled_from([1.0, 2.0]),
    # 0.1 is not a binary fraction: i * tick rounds, so entry times fall
    # just before or after their ticks
    tick=st.sampled_from([1.0, 0.1]),
    seed=st.integers(0, 10**6),
)


@settings(max_examples=40)
@given(
    base=configs,
    ttls=st.lists(st.floats(2.0, 40.0), min_size=4, max_size=4),
    checked=st.booleans(),
    logged=st.booleans(),
)
# a sparse logged run on a 0.1 s tick, where at / tick rounded to the
# nearest tick, or up, stamps some caught-up GEN or EXP line a tick off
@example(
    base=SimConfig(
        node_count=6,
        arena_width=60.0,
        arena_height=60.0,
        comm_range=3.0,
        window_size=10.0,
        message_count=20,
        generation_span=20.0,
        tick=0.1,
        seed=4,
    ),
    ttls=[7.33, 12.1, 3.7, 20.9],
    checked=False,
    logged=True,
)
def test_skipping_matches_passing_and_stepping_every_tick(base, ttls, checked, logged):
    cells = [
        SimConfig(**{**vars(base), "protocol": protocol, "ttl": ttl})
        for protocol, ttl in zip(Protocol, ttls)
    ]
    with checking() if checked else contextlib.nullcontext():
        skipping = run_cells(cells, shared_timeline(cells), Simulation, logged)
    every = EveryTickTimeline(max(cells, key=trace_duration))
    assert skipping == run_cells(cells, every, EveryTickSimulation, logged)


def test_an_expiry_before_tick_zero_is_logged_after_routing():
    # message 0 expires at -8 s, before the first tick; like every expiry
    # due on a stepped tick, its EXP line follows that tick's routing
    config = SimConfig(node_count=2)
    trace = Trace(2, 4.0, 1.0, np.tile([[0.0, 0.0], [1.0, 0.0]], (5, 1, 1)))
    log = io.StringIO()
    messages = [Message(0, 0, 1, -10.0, 1.0), Message(1, 0, 1, 0.0, 5.0)]
    Simulation(config, trace=trace, messages=messages, event_log=log).run()
    assert log.getvalue().splitlines()[1:] == [
        "0.0,GEN,0,0,1",
        "0.0,GEN,1,0,1",
        "0.0,DLV,1,0,1",
        "0.0,EXP,0,0,-1",
    ]


def test_quiet_ticks_are_skipped():
    # 25 nodes at 1 m/s in 300x450 m: most ticks have no pair in range
    config = SimConfig(
        arena_width=300.0,
        arena_height=450.0,
        message_count=100,
        ttl=60.0,
        protocol=Protocol.PROPOSED_II,
    )
    timeline = Timeline(config)
    calls = {"pass": 0, "step": 0}
    compute, step = timeline._compute_weights, Simulation._step

    def counted_pass(now, bound):
        calls["pass"] += 1
        compute(now, bound)

    class Counted(Simulation):
        def _step(self, idx, now, pairs):
            calls["step"] += 1
            return step(self, idx, now, pairs)

    timeline._compute_weights = counted_pass
    sim = Counted(config, timeline=timeline)
    sim.run()
    ticks = timeline._next_tick
    assert calls["pass"] < ticks / 3
    # the pair ticks before the finish, then the finish: the settle or last tick
    finish = round(sim.now / config.tick)
    assert finish == ticks - 1
    tracker = ContactTracker(timeline.trace.positions, config.comm_range, config.missed_hello_limit)
    pair_ticks = sum(1 for idx in range(finish) if tracker.update(idx, idx * config.tick)[1])
    assert calls["step"] == pair_ticks + 1 < ticks / 10


#: sha256 of each event log of the sweep below, recorded at the commit
#: before simulations caught up skipped ticks, when a simulation stepped on
#: every tick with an injection or expiry due
SPARSE_LOG_DIGESTS = {
    "events.csv.c0.r0": "37c8e472b4a90b66ce0dffb329437f19906c770b24eab4cdf4ac5f6e9983c6fa",
    "events.csv.c1.r0": "c1b161e17e94aad0ee38be12eba5334a861934b16df72f7af9bfecfab137ac89",
    "events.csv.c2.r0": "7f4cbe713fb4833667d5c2e559db35d1fbd7fbf6e1f0add5aa1777d585bf5e03",
    "events.csv.c3.r0": "5523f8aec2f70ee6a28644243f9b6f0d94b521c85b1858bef12232779d7f000b",
    "events.csv.c4.r0": "7f4cbe713fb4833667d5c2e559db35d1fbd7fbf6e1f0add5aa1777d585bf5e03",
    "events.csv.c5.r0": "5523f8aec2f70ee6a28644243f9b6f0d94b521c85b1858bef12232779d7f000b",
    "events.csv.c6.r0": "7f4cbe713fb4833667d5c2e559db35d1fbd7fbf6e1f0add5aa1777d585bf5e03",
    "events.csv.c7.r0": "5523f8aec2f70ee6a28644243f9b6f0d94b521c85b1858bef12232779d7f000b",
}


def test_sparse_sweep_event_logs_keep_their_bytes(tmp_path):
    # the desk config (25 nodes, 300x450 m), where pairs are rare: most GEN
    # and EXP lines are written by a step catching up ticks it skipped
    spec = parse_config(
        None,
        overrides={
            "protocol": "epidemic,friendship,proposed1,proposed2",
            "nodes": "25",
            "speed": "1.0",
            "ttl": "60,300",
            "runs": "1",
            "seed": "1",
            "area_width": "300",
            "area_height": "450",
            "message_count": "200",
            "out": str(tmp_path / "out.csv"),
            "event_log": str(tmp_path / "events.csv"),
        },
    )
    assert run_experiment(spec, progress=io.StringIO()) == 0
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in tmp_path.glob("events.csv.*")
    }
    assert digests == SPARSE_LOG_DIGESTS
