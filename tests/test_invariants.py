"""Property tests for the routing bookkeeping invariants.

Small random configs run all four protocols, each at its own TTL, on one
shared timeline.  A simulation is stepped on exactly the ticks with in-range
pairs up to its finish, and on its finish: the first tick by which every
message is delivered or expired, or else its last trace tick.  A step
catches up the injections and expiries of the ticks it skipped, so the
masks lag between steps by design and are checked after each step and at
the end of the run.  There each running simulation's per-message holder
masks must be the exact transpose of its per-node ``held`` masks, no node
may buffer a message addressed to itself, each node's ``got`` mask must
name exactly the messages delivered to it, and the count of unresolved
messages must equal the messages neither delivered nor expired.  A run must
end with every message resolved exactly once, never deliver more than it
generated, and log no forward or delivery of a message after its expiry.
Every GEN and EXP line must carry its message's own tick, found by scanning
the tick grid, on a grid of whole, tenth and third seconds.
"""

import contextlib
import io

from hypothesis import given, settings, strategies as st

from dtnsim.engine import ContactTracker, SimConfig, Simulation, shared_timeline
from dtnsim.routing import Protocol, bits

from checked import checking


class CheckedSimulation(Simulation):
    """A simulation that records the ticks it is stepped on."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.steps = []

    def _step(self, idx, now, pairs):
        self.steps.append(idx)
        return super()._step(idx, now, pairs)


def check_every_step(timeline, sims):
    """After every tick ``timeline`` advances, check each of ``sims`` that
    the tick stepped."""
    advance = timeline._tick

    def tick(idx):
        steps = {sim: len(sim.steps) for sim in sims if sim._outcome is None}
        advance(idx)
        for sim, before in steps.items():
            if len(sim.steps) > before:
                check_state(sim, idx * timeline.cfg.tick)

    timeline._tick = tick


def check_state(sim, now):
    check_holders(sim, now)
    assert sim._unresolved == len(sim.messages) - len(sim.delivered) - len(
        expired_undelivered(sim, now)
    )


def first_tick(at, tick):
    """The first tick index ``i >= 0`` with ``at <= i * tick``, by scanning."""
    i = 0
    while at > i * tick:
        i += 1
    return i


def expected_steps(sim, timeline, log):
    """The ticks with pairs before ``sim``'s finish, then its finish: the
    first tick by which every message is delivered (the tick of its DLV
    line) or expired, or else its last trace tick."""
    tick, cfg = sim.cfg.tick, sim.cfg
    delivered = {
        int(mid): round(float(at) / tick)
        for at, kind, mid, _, _ in (line.split(",") for line in log.splitlines()[1:])
        if kind == "DLV"
    }
    resolved = [
        delivered[m.id] if m.id in delivered else first_tick(m.created_at + m.ttl + tick, tick)
        for m in sim.messages
    ]
    finish = min(max(resolved), sim._end - 1)
    tracker = ContactTracker(timeline.trace.positions, cfg.comm_range, cfg.missed_hello_limit)
    steps = [idx for idx in range(finish) if tracker.update(idx, idx * tick)[1]]
    return steps + [finish]


def check_holders(sim, now):
    holders = sim.holders
    injected = {m.id for m in sim.messages if m.created_at <= now}
    assert set(holders) == injected
    ids = [m.id for m in sim._schedule.ranked]
    assert ids == sorted(m.id for m in sim.messages)
    buffers = [{ids[r] for r in bits(mask)} for mask in sim.held]
    for mid, nodes in holders.items():
        assert nodes == {i for i, buffer in enumerate(buffers) if mid in buffer}
    assert set().union(*buffers) <= injected
    toward = [0] * sim.cfg.node_count
    for r, m in enumerate(sim._schedule.ranked):
        toward[m.dst] |= 1 << r
    assert sim._schedule.toward == toward
    for d, mask in enumerate(sim.held):
        assert mask & toward[d] == 0
    dst = {m.id: m.dst for m in sim.messages}
    for j, mask in enumerate(sim.got):
        assert {ids[r] for r in bits(mask)} == {mid for mid in sim.delivered if dst[mid] == j}


def expired_undelivered(sim, now):
    tick = sim.cfg.tick
    return {
        m.id
        for m in sim.messages
        if m.created_at + m.ttl + tick <= now and m.id not in sim.delivered
    }


def check_log(sim, text):
    lines = text.splitlines()
    assert lines[0] == "time,event,msg_id,from,to"
    tick = sim.cfg.tick
    message = {m.id: m for m in sim.messages}
    seen, expired = set(), set()
    for line in lines[1:]:
        at, kind, mid, _, _ = line.split(",")
        mid = int(mid)
        m = message[mid]
        if kind == "GEN":
            assert mid not in seen
            seen.add(mid)
            assert float(at) == first_tick(m.created_at, tick) * tick, line
        elif kind == "EXP":
            expired.add(mid)
            assert float(at) == first_tick(m.created_at + m.ttl + tick, tick) * tick, line
        else:
            assert kind in ("FWD", "DLV")
            assert mid in seen and mid not in expired, line
    assert seen == set(message)


def checked_config(checked, **fields):
    """A config and whether its cells run on ``CheckedTimeline``."""
    return SimConfig(**fields), checked


configs = st.builds(
    checked_config,
    node_count=st.integers(2, 8),
    arena_width=st.floats(10.0, 60.0),
    arena_height=st.floats(10.0, 60.0),
    speed=st.floats(0.5, 4.0),
    pause=st.sampled_from([0.0, 2.0]),
    comm_range=st.floats(3.0, 25.0),
    window_size=st.floats(4.0, 40.0),
    threshold=st.sampled_from([0.0, 0.01, 0.05]),
    message_count=st.integers(1, 20),
    generation_span=st.floats(1.0, 30.0),
    seed=st.integers(0, 10**6),
    tick=st.sampled_from([1.0, 0.1, 1 / 3]),
    checked=st.booleans(),
)


@settings(max_examples=60)
@given(drawn=configs, ttls=st.lists(st.floats(2.0, 40.0), min_size=4, max_size=4))
def test_bookkeeping_invariants_hold_for_every_protocol(drawn, ttls):
    base, checked = drawn
    cells = [
        SimConfig(**{**vars(base), "protocol": protocol, "ttl": ttl})
        for protocol, ttl in zip(Protocol, ttls)
    ]
    with checking() if checked else contextlib.nullcontext():
        timeline = shared_timeline(cells)
    logs = [io.StringIO() for _ in cells]
    sims = [
        CheckedSimulation(config, event_log=log, timeline=timeline)
        for config, log in zip(cells, logs)
    ]
    check_every_step(timeline, sims)
    for sim, log in zip(sims, logs):
        report = sim.run()
        generated = {m.id for m in sim.messages}
        assert sim.steps == expected_steps(sim, timeline, log.getvalue())
        assert sim.now == sim.steps[-1] * sim.cfg.tick
        assert report.generated == len(generated)
        assert report.delivered == len(sim.delivered) <= report.generated
        assert sim.delivered <= generated
        # resolved exactly once: delivered, or expired while undelivered
        expired = expired_undelivered(sim, sim.now)
        assert not sim.delivered & expired
        assert sim.delivered | expired == generated
        holders = sim.holders
        assert all(not holders[mid] for mid in expired)
        check_log(sim, log.getvalue())
    # a finished run's state stays as its last step left it
    for sim in sims:
        check_state(sim, sim.now)
