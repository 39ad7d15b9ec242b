"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
are produced.  Criteria 6-8 share one desk-scale experiment sweep (a module
fixture); criterion 8 executes the sweep a second time and compares bytes.
"""

import io
import random
import time

import pytest
from scipy.stats import kendalltau

from dtnsim.cli import parse_config, run_experiment
from dtnsim.contacts import MAX_WEIGHT, ContactWindow
from dtnsim.graph import (
    SocialGraph,
    betweenness,
    endpoint_betweenness,
    expanded_ego_betweenness,
)
from dtnsim.routing import (
    Action,
    ForwardAction,
    Message,
    Protocol,
    RelayContext,
    decide,
)
from dtnsim.social import HelloPayload, PeerRecord, SocialNetworkView

from test_contacts import build_window, quadrature_weight
from test_graph import betweenness_by_enumeration
from test_routing import rank_masks
from test_social import weights_at


def report(number, name, ok):
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def random_graph(rng, n, p):
    g = SocialGraph(vertices=range(n))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                g.add_edge(i, j)
    return g


def connected_graphs(n):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for mask in range(2 ** len(pairs)):
        edges = [e for bit, e in enumerate(pairs) if mask >> bit & 1]
        g = SocialGraph(vertices=range(n), edges=edges)
        if n == 1 or len(g.reachable_from(0)) == n - 1:
            yield g


# -- criterion 1: centrality oracle equivalence -------------------------------------


def test_criterion_1_centrality_oracle_equivalence():
    started = time.perf_counter()
    tolerance = 1e-9
    ok = True
    checked = 0
    for n in range(1, 6):
        for g in connected_graphs(n):
            checked += 1
            plain, endpoint = betweenness(g), endpoint_betweenness(g)
            oracle_plain = betweenness_by_enumeration(g)
            oracle_endpoint = betweenness_by_enumeration(g, include_endpoints=True)
            ok &= all(abs(plain[v] - oracle_plain[v]) <= tolerance for v in g.vertices)
            ok &= all(
                abs(endpoint[v] - oracle_endpoint[v]) <= tolerance for v in g.vertices
            )
    rng = random.Random(20260809)
    for _ in range(200):
        n = rng.randint(1, 7)
        g = random_graph(rng, n, rng.uniform(0.1, 0.9))
        checked += 1
        plain, endpoint = betweenness(g), endpoint_betweenness(g)
        oracle_plain = betweenness_by_enumeration(g)
        oracle_endpoint = betweenness_by_enumeration(g, include_endpoints=True)
        ok &= all(abs(plain[v] - oracle_plain[v]) <= tolerance for v in g.vertices)
        ok &= all(
            abs(endpoint[v] - oracle_endpoint[v]) <= tolerance for v in g.vertices
        )
    elapsed = time.perf_counter() - started
    ok &= checked == 772 + 200
    ok &= elapsed < 10.0
    report(1, f"centrality oracle equivalence ({checked} graphs, {elapsed:.1f}s)", ok)


# -- criterion 2: endpoint relation ---------------------------------------------------


def test_criterion_2_endpoint_relation_exact():
    rng = random.Random(77)
    ok = True
    for _ in range(500):
        n = rng.randint(1, 30)
        g = random_graph(rng, n, rng.uniform(0.05, 0.6))
        plain = betweenness(g)
        endpoint = endpoint_betweenness(g)
        for v in g.vertices:
            ok &= endpoint[v] - plain[v] == len(g.reachable_from(v))
    report(2, "endpoint relation exact on 500 random graphs", ok)


# -- criterion 3: link-weight closed form ----------------------------------------------


def test_criterion_3_link_weight_closed_form():
    worked = build_window(10, [(4, 6)])
    ok = worked.link_weight(10) == 0.625
    rng = random.Random(5150)
    window_size = 600
    for _ in range(100):
        k = rng.randint(0, 5)
        bounds = sorted(rng.sample(range(0, window_size + 1), 2 * k)) if k else []
        intervals = [(bounds[2 * i], bounds[2 * i + 1]) for i in range(k)]
        w = build_window(window_size, intervals)
        closed = w.link_weight(window_size)
        numeric = quadrature_weight(window_size, intervals)
        if closed == MAX_WEIGHT or numeric == MAX_WEIGHT:
            ok &= closed == numeric
        else:
            ok &= abs(closed - numeric) / closed < 1e-6
    report(3, "link weight matches 0.01 s quadrature and worked example", ok)


# -- criterion 4: social-network construction conformance --------------------------------


def test_criterion_4_network_construction_conformance():
    threshold = 0.01
    ok = True

    # add-friend with 2-hop merge: the traced weight example (w = 0.625)
    view = SocialNetworkView(0)
    win = ContactWindow(1, 10)
    win.record_encounter(4)
    win.record_departure(6)
    view.apply_hello(HelloPayload(sender=1, neighbor_list=frozenset({2})))
    view.maintain(10, threshold=threshold, weights=weights_at(10, {1: win}))
    ok &= set(view.graph.vertices) == {0, 1, 2}
    ok &= sorted(view.graph.edges()) == [(0, 1), (1, 2)]

    # lose-friend: empty 600 s window weighs 1/300 < 0.01; peer and its
    # advertised neighbourhood are evicted
    view.maintain(
        1000, threshold=threshold, weights=weights_at(1000, {1: ContactWindow(1, 600)})
    )
    ok &= set(view.graph.vertices) == {0}
    ok &= view.graph.edge_count() == 0

    # pruning keeps a two-hop vertex another friend still vouches for
    def strong(peer):
        w = ContactWindow(peer, 600)
        w.record_encounter(0)
        w.record_departure(550)
        return w

    view = SocialNetworkView(0)
    view.apply_hello(HelloPayload(1, frozenset({9})))
    view.apply_hello(HelloPayload(2, frozenset({9})))
    view.maintain(
        600, threshold=threshold, weights=weights_at(600, {1: strong(1), 2: strong(2)})
    )
    ok &= set(view.graph.vertices) == {0, 1, 2, 9}
    fresh = ContactWindow(2, 600)
    fresh.record_encounter(1000)
    fresh.record_departure(1550)
    view.maintain(
        1600,
        threshold=threshold,
        weights=weights_at(1600, {1: ContactWindow(1, 600), 2: fresh}),
    )
    ok &= set(view.graph.vertices) == {0, 2, 9}
    ok &= sorted(view.graph.edges()) == [(0, 2), (2, 9)]

    # threshold boundary: weight exactly 0.01 creates no edge
    view = SocialNetworkView(0)
    boundary = ContactWindow(1, 600)
    for t in (200, 400):
        boundary.record_encounter(t)
        boundary.record_departure(t)
    ok &= boundary.link_weight(600) == 0.01
    view.maintain(600, threshold=threshold, weights=weights_at(600, {1: boundary}))
    ok &= set(view.graph.vertices) == {0}

    report(4, "social-network construction conformance", ok)


# -- criterion 5: forwarding-rule conformance ---------------------------------------------


def test_criterion_5_forwarding_rule_conformance():
    COPY, FAD, DLV = Action.COPY, Action.FORWARD_AND_DELETE, Action.DELIVER

    def case(protocol, *, own_w=0.0, peer_w=None, own_cb=0, own_ceb=0, peer_cb=0,
             peer_ceb=0, members=(0,), peer_weights=None, dst=5, peer=9,
             peer_has=frozenset(), now=10.0, expect=None):
        messages, toward, missing = rank_masks(
            [Message(id=0, src=0, dst=dst, created_at=0.0, ttl=100.0)],
            peer_has=peer_has,
            now=now,
        )
        ctx = RelayContext(
            node=0,
            messages=messages,
            toward=toward,
            own_weights={dst: own_w},
            own_cb=own_cb,
            own_ceb=own_ceb,
            members=members,
            # the peer's last hello, as the node's view caches it
            peer_weights={
                **(peer_weights or {}),
                peer: {} if peer_w is None else {dst: peer_w},
            },
            peer_centrality={peer: PeerRecord(peer_cb, peer_ceb)},
            threshold=0.01,
        )
        got = decide(protocol, ctx, peer, missing)
        want = [] if expect is None else [ForwardAction(0, expect)]
        return got == want

    P1, P2, EPI, FRI = (
        Protocol.PROPOSED_I,
        Protocol.PROPOSED_II,
        Protocol.EPIDEMIC,
        Protocol.FRIENDSHIP,
    )
    cases = [
        # delivery dominates everything, for every protocol
        case(EPI, dst=9, expect=DLV),
        case(P1, dst=9, own_w=0.9, expect=DLV),
        # epidemic floods; summary vector suppresses the copy
        case(EPI, expect=COPY),
        case(EPI, peer_has={0}, expect=None),
        # TTL expiry silences the message
        case(EPI, now=101.0, expect=None),
        # weight rule: a better relay gets a copy; a strict max upgrades to delete
        case(P1, own_w=0.2, peer_w=0.5, members=(0, 3),
             peer_weights={3: {5: 0.6}}, expect=COPY),
        case(P1, own_w=0.2, peer_w=0.5, members=(0, 3),
             peer_weights={3: {5: 0.3}}, expect=FAD),
        case(P1, own_w=0.2, peer_w=0.5, members=(0,), expect=FAD),
        # the deletion maximum ignores the contacted peer itself
        case(P1, own_w=0.2, peer_w=0.5, members=(0, 9),
             peer_weights={9: {5: 0.5}}, expect=FAD),
        # weight ties never trigger the weight rule
        case(P1, own_w=0.5, peer_w=0.5, expect=None),
        # proposed1 fallback compares plain betweenness
        case(P1, own_w=0.5, peer_w=0.2, own_cb=1, peer_cb=4, expect=COPY),
        case(P1, own_w=0.5, peer_w=0.2, own_cb=4, peer_cb=4, expect=None),
        # proposed2 fallback compares endpoint-biased betweenness
        case(P2, own_w=0.5, peer_w=0.2, own_ceb=1, peer_ceb=4, expect=COPY),
        case(P2, own_w=0.5, peer_w=0.2, own_ceb=4, peer_ceb=4, expect=None),
        # the two variants read different centralities
        case(P1, own_w=0.5, peer_w=0.2, own_cb=3, peer_cb=2, own_ceb=1,
             peer_ceb=6, expect=None),
        case(P2, own_w=0.5, peer_w=0.2, own_cb=3, peer_cb=2, own_ceb=1,
             peer_ceb=6, expect=COPY),
        # friendship baseline: needs friendship with the destination and
        # a strictly better weight
        case(FRI, own_w=0.1, peer_w=0.5, expect=COPY),
        case(FRI, own_w=0.0, peer_w=0.005, expect=None),
        case(FRI, own_w=0.9, peer_w=0.5, expect=None),
        # sentinel weight outranks every finite advertisement
        case(P1, own_w=0.99, peer_w=MAX_WEIGHT, members=(0, 3),
             peer_weights={3: {5: 1e6}}, expect=FAD),
    ]
    ok = all(cases) and len(cases) >= 12
    report(5, f"forwarding-rule conformance ({len(cases)} traced cases)", ok)


# -- criteria 6-8: desk-scale sweep ------------------------------------------------------

DESK_OVERRIDES = {
    "protocol": "epidemic,friendship,proposed1,proposed2",
    "nodes": "25",
    "speed": "1.0",
    "ttl": "60,120,180,240,300,360",
    "runs": "10",
    "seed": "1",
    "area_width": "300",
    "area_height": "450",
    "message_count": "1000",
}


def run_desk_sweep(out_path):
    spec = parse_config(None, overrides={**DESK_OVERRIDES, "out": str(out_path)})
    started = time.perf_counter()
    status = run_experiment(spec, progress=io.StringIO())
    elapsed = time.perf_counter() - started
    assert status == 0
    return elapsed


def parse_sweep(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = {}
    for line in lines[1:]:
        cells = line.split(",")
        row = dict(zip(header, cells))
        key = (row["protocol"], float(row["ttl"]))
        rows[key] = (
            float(row["delivery_ratio"]),
            float(row["delivery_cost"]),
            float(row["delivery_efficiency"]),
        )
    return rows


@pytest.fixture(scope="module")
def desk_sweep(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep") / "results.csv"
    elapsed = run_desk_sweep(out)
    return out, elapsed


def test_criterion_6_delivery_ratio_and_cost_orderings(desk_sweep):
    out, elapsed = desk_sweep
    rows = parse_sweep(out)
    ttls = [60.0, 120.0, 180.0, 240.0, 300.0, 360.0]
    others = ("friendship", "proposed1", "proposed2")
    ok = elapsed < 120.0
    for ttl in ttls:
        epidemic_ratio, epidemic_cost, _ = rows[("epidemic", ttl)]
        for proto in others:
            ratio, cost, _ = rows[(proto, ttl)]
            ok &= epidemic_ratio >= ratio
            ok &= epidemic_cost >= cost
        proposed_mean_cost = (
            rows[("proposed1", ttl)][1] + rows[("proposed2", ttl)][1]
        ) / 2
        ok &= proposed_mean_cost <= rows[("friendship", ttl)][1]
    report(6, f"delivery ratio/cost orderings at every TTL (sweep {elapsed:.0f}s)", ok)


def test_criterion_7_efficiency_ordering(desk_sweep):
    out, _ = desk_sweep
    rows = parse_sweep(out)
    ttls = [60.0, 120.0, 180.0, 240.0, 300.0, 360.0]

    def mean_eff(proto):
        return sum(rows[(proto, ttl)][2] for ttl in ttls) / len(ttls)

    ok = True
    for proposed in ("proposed1", "proposed2"):
        ok &= mean_eff(proposed) >= mean_eff("epidemic")
        ok &= mean_eff(proposed) >= mean_eff("friendship")
    report(7, "proposed schemes lead on delivery efficiency", ok)


def test_criterion_8_sweep_determinism(desk_sweep, tmp_path):
    out_first, _ = desk_sweep
    out_second = tmp_path / "rerun.csv"
    run_desk_sweep(out_second)
    ok = out_first.read_bytes() == out_second.read_bytes()
    report(8, "byte-identical CSV on rerun", ok)


# -- criterion 9: rank correlation ---------------------------------------------------------


def test_criterion_9_local_estimate_tracks_global_betweenness():
    rng = random.Random(424242)
    taus = []
    for _ in range(50):
        while True:
            g = random_graph(rng, 20, 0.2)
            if len(g.reachable_from(0)) == 19:
                break
        full = betweenness(g)
        order = sorted(g.vertices)
        local = [float(expanded_ego_betweenness(g, v)) for v in order]
        global_ = [float(full[v]) for v in order]
        taus.append(kendalltau(local, global_).statistic)
    average = sum(taus) / len(taus)
    ok = average >= 0.7
    report(9, f"expanded-ego rank correlation (mean tau {average:.3f})", ok)
