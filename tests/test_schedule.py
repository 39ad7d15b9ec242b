"""The message schedule's lanes against the tick grid, scanned.

A ``_Schedule`` turns each message's creation time and TTL into the tick
indices on which it is injected, turns stale (``Message.is_live`` is False)
and expires, and a step reads the messages due by a tick as one table entry.
Each lane must give the tick that scanning the grid ``i * tick`` finds with
the comparison the engine makes, on whole, tenth and third-second ticks,
with creation times and TTLs at, and one ulp either side of, the grid and
its boundaries.  Every lane's mask must equal the brute-force mask at every
tick, also where per-message TTLs or a rounding tie of two expiry times
take a lane out of injection order.
"""

import math
from bisect import bisect_right

import numpy as np
from hypothesis import given, settings, strategies as st

from dtnsim.engine import SimConfig, Simulation, _Schedule, shared_timeline
from dtnsim.routing import Message, Protocol

NODES = 4
TICKS = [1.0, 0.1, 1 / 3]


def first_tick(holds, tick):
    """The first tick index ``i >= 0`` with ``holds(i * tick)``, by scanning."""
    i = 0
    while not holds(i * tick):
        i += 1
    return i


def near(value):
    """``value`` or a float one ulp either side of it."""
    return st.sampled_from(
        [value, math.nextafter(value, -math.inf), math.nextafter(value, math.inf)]
    )


@st.composite
def workloads(draw, ttls=None):
    """``(tick, messages)``: creation times on, or an ulp off, the grid (or
    anywhere in [-5, 30)), and TTLs that are whole ticks, an ulp off, or
    anywhere in (0, 20]; one TTL for all, or one per message."""
    tick = draw(st.sampled_from(TICKS))
    shared = draw(st.booleans()) if ttls is None else ttls
    count = draw(st.integers(1, 12))

    def ttl():
        return draw(
            st.one_of(
                st.integers(1, 60).flatmap(lambda k: near(k * tick)),
                st.floats(1e-3, 20.0),
            )
        )

    one = ttl()
    messages = []
    for mid in draw(st.permutations(range(count))):
        created = draw(
            st.one_of(
                st.integers(0, 60).flatmap(lambda k: near(k * tick)),
                st.floats(-5.0, 30.0),
            )
        )
        src = draw(st.integers(0, NODES - 1))
        dst = (src + draw(st.integers(1, NODES - 1))) % NODES
        messages.append(Message(mid, src, dst, created, one if shared else ttl()))
    return tick, messages


def lanes_of(tick, messages):
    schedule = _Schedule.of(messages, tick, NODES)
    ttls = np.array([m.ttl for m in schedule.messages])
    return schedule, schedule.lanes(ttls)


def check_masks(schedule, lanes, tick, messages):
    """Every lane's mask equals brute force at every tick, up to past the
    last message's expiry."""
    rank = schedule.rank
    inject, (expiry, stale) = schedule.inject, lanes
    last = max(first_tick(lambda now: m.created_at + m.ttl + tick <= now, tick) for m in messages)
    for i in range(last + 2):
        now = i * tick
        for lane, due in (
            (inject, lambda m: m.created_at <= now),
            (expiry, lambda m: m.created_at + m.ttl + tick <= now),
            (stale, lambda m: not m.is_live(now)),
        ):
            want = sum(1 << rank[m.id] for m in messages if due(m))
            assert lane.due[bisect_right(lane.at, i)] == want, (i, lane)


@settings(max_examples=100)
@given(workloads())
def test_each_lane_gives_the_tick_the_grid_scan_finds(drawn):
    tick, messages = drawn
    schedule, (expiry, stale) = lanes_of(tick, messages)
    ranked = schedule.ranked
    for lane, reached in (
        (schedule.inject, lambda m: lambda now: m.created_at <= now),
        (expiry, lambda m: lambda now: m.created_at + m.ttl + tick <= now),
        (stale, lambda m: lambda now: not m.is_live(now)),
    ):
        assert lane.at[-1] == math.inf
        assert lane.at[:-1] == [first_tick(reached(ranked[r]), tick) for r in lane.rank]
        assert lane.at == sorted(lane.at)
        assert sorted(lane.rank) == list(range(len(messages)))
        for k in range(len(lane.due)):
            assert lane.due[k] == sum(1 << r for r in lane.rank[:k])
    # expiries due together are taken as their EXP lines are written
    order = sorted(messages, key=lambda m: (m.created_at + m.ttl + tick, m.id))
    assert [ranked[r].id for r in expiry.rank] == [m.id for m in order]
    check_masks(schedule, (expiry, stale), tick, messages)


@given(workloads(ttls=True))
def test_one_ttl_shares_the_injection_table(drawn):
    tick, messages = drawn
    schedule, (expiry, stale) = lanes_of(tick, messages)
    assert stale.due is schedule.inject.due
    # only a rounding tie of two expiry times can reorder the expiry lane
    expire_at = [m.created_at + m.ttl + tick for m in schedule.messages]
    if len(set(expire_at)) == len(set(m.created_at for m in messages)):
        assert expiry.due is schedule.inject.due


def test_mixed_ttls_and_an_expiry_tie_read_true_masks_at_every_tick():
    tick = 0.1
    a = 0.30000000000000004  # 3 * 0.1
    b = math.nextafter(a, math.inf)
    assert a + 100.0 + tick == b + 100.0 + tick
    messages = [
        # created first, expires with message 2 in one float: by id, after it
        Message(5, 0, 1, a, 100.0),
        Message(2, 1, 2, b, 100.0),
        # created later, expires first
        Message(7, 2, 3, 4.0, 0.5),
        Message(1, 3, 0, 0.0, 1e-9),
        Message(3, 0, 2, 2.0, 60 * tick),
    ]
    schedule, (expiry, stale) = lanes_of(tick, messages)
    assert expiry.due is not schedule.inject.due
    assert stale.due is not schedule.inject.due
    assert [schedule.ranked[r].id for r in expiry.rank] == [1, 7, 3, 2, 5]
    check_masks(schedule, (expiry, stale), tick, messages)


def test_per_ttl_messages_are_built_only_when_read():
    cells = [
        SimConfig(node_count=6, message_count=20, ttl=ttl, protocol=Protocol.EPIDEMIC)
        for ttl in (30.0, 60.0)
    ]
    timeline = shared_timeline(cells)
    first, second = (Simulation(c, timeline=timeline) for c in cells)
    assert first._schedule is second._schedule
    assert first._messages is first._schedule.messages
    assert second._messages is None
    assert [m.ttl for m in second.messages] == [60.0] * 20
    assert [(m.id, m.created_at) for m in second.messages] == [
        (m.id, m.created_at) for m in first.messages
    ]
