"""The benchmark's workloads, driven only through dtnsim's public entry points.

Each workload is a pure function of the seed.  ``execute`` is the timed part
and returns raw outputs; ``digests`` and ``check`` run after the clock stops.
Nothing here imports dtnsim at module level, so the set-up probe can start
its clock before the package import.

* ``desk_sweep``: the acceptance desk sweep through ``cli.run_experiment``
  (4 protocols x 6 TTLs, 25 nodes, 300x450 m, one replicate per cell).  Its
  24 cells replay one timeline, so mobility, contacts and weights are
  repeated work; sharing that timeline across cells should show here.
* ``large_sparse``: one epidemic run, 200 nodes in the paper's 1000x1500 m
  arena.  The dense n x n contact check and weight cache dominate; social
  and routing work is small and there is a single cell, so cross-cell
  sharing cannot help it, while sparse contact detection should.
* ``social_dense``: ``epidemic`` then ``proposed2`` on one seed, 25 nodes in
  200x200 m with 20 m range.  Friend graphs form, so the social protocols
  copy, hand over and fall back to centrality; Brandes, hello, maintain and
  routing dominate.
"""

from __future__ import annotations

import contextlib
import hashlib
import io

PROTOCOLS = "epidemic,friendship,proposed1,proposed2"
TTLS = "60,120,180,240,300,360"
DESK = {"nodes": 25, "width": 300.0, "height": 450.0, "messages": 1000}
LARGE = {"node_count": 200, "message_count": 200}
SOCIAL = {
    "node_count": 25,
    "arena_width": 200.0,
    "arena_height": 200.0,
    "comm_range": 20.0,
    "message_count": 500,
    "ttl": 300.0,
}
REPORT_FIELDS = (
    "generated",
    "delivered",
    "total_forwards",
    "delivery_ratio",
    "delivery_cost",
    "delivery_efficiency",
    "efficiency_defined",
)


class CheckFailed(Exception):
    """An output of the program is wrong."""


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _report_text(report) -> str:
    return ",".join(f"{name}={getattr(report, name)!r}" for name in REPORT_FIELDS)


def _check_report(label: str, report) -> None:
    if not 0 <= report.delivered <= report.generated or report.generated < 1:
        raise CheckFailed(f"{label}: delivered {report.delivered} of {report.generated}")
    if report.delivery_ratio != report.delivered / report.generated:
        raise CheckFailed(f"{label}: delivery_ratio disagrees with its counts")


# -- desk_sweep ------------------------------------------------------------------


def desk_execute(seed: int):
    from dtnsim import cli

    spec = cli.parse_config(
        None,
        overrides={
            "protocol": PROTOCOLS,
            "nodes": str(DESK["nodes"]),
            "speed": "1.0",
            "ttl": TTLS,
            "runs": "1",
            "seed": str(seed),
            "area_width": str(DESK["width"]),
            "area_height": str(DESK["height"]),
            "message_count": str(DESK["messages"]),
        },
    )
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.run_experiment(spec, progress=io.StringIO())
    return status, out.getvalue()


def desk_first(seed: int):
    from dtnsim.engine import SimConfig, Simulation

    return Simulation(
        SimConfig(
            node_count=DESK["nodes"],
            arena_width=DESK["width"],
            arena_height=DESK["height"],
            message_count=DESK["messages"],
            ttl=float(TTLS.split(",")[0]),
            seed=seed,
        )
    )


def desk_digests(outputs) -> dict[str, str]:
    return {"csv": _sha(outputs[1])}


def desk_check(outputs) -> None:
    status, csv = outputs
    rows = csv.splitlines()[1:]
    if status != 0 or len(rows) != 24:
        raise CheckFailed(f"desk_sweep: status {status}, {len(rows)} of 24 rows")
    bad = [row for row in rows if row.split(",")[5] != "ok"]
    if bad:
        raise CheckFailed(f"desk_sweep: failed cells {bad}")


# -- large_sparse ------------------------------------------------------------------


def large_first(seed: int):
    from dtnsim.engine import SimConfig, Simulation

    return Simulation(SimConfig(seed=seed, **LARGE))


def large_execute(seed: int):
    return large_first(seed).run()


def large_digests(report) -> dict[str, str]:
    return {"report": _sha(_report_text(report))}


def large_check(report) -> None:
    _check_report("large_sparse", report)


# -- social_dense ------------------------------------------------------------------


def social_first(seed: int, protocol: str = "epidemic", log=None):
    from dtnsim.engine import SimConfig, Simulation
    from dtnsim.routing import Protocol

    config = SimConfig(seed=seed, protocol=Protocol.parse(protocol), **SOCIAL)
    return Simulation(config, event_log=log if log is not None else io.StringIO())


def social_execute(seed: int):
    outputs = {}
    for protocol in ("epidemic", "proposed2"):
        log = io.StringIO()
        report = social_first(seed, protocol, log).run()
        outputs[protocol] = (report, log.getvalue())
    return outputs


def social_digests(outputs) -> dict[str, str]:
    digests = {}
    for protocol, (report, log) in outputs.items():
        digests[protocol + ".log"] = _sha(log)
        digests[protocol + ".report"] = _sha(_report_text(report))
    return digests


def proven_handovers(log: str) -> int:
    """Messages that some node dropped before expiry, seen in the event log.

    Only a hand-over (forward-and-delete) and expiry remove a buffered copy,
    and expiry logs one EXP per holder left.  A node that held a message and
    is missing from its EXP lines therefore handed it over.
    """
    held: dict[str, set[str]] = {}
    expired: set[str] = set()
    for line in log.splitlines()[1:]:
        _, event, msg, frm, to = line.split(",")
        if event == "GEN":
            held[msg] = {frm}
        elif event == "FWD":
            held[msg].add(to)
        elif event == "EXP":
            held[msg].discard(frm)
            expired.add(msg)
    return sum(1 for msg in expired if held[msg])


def social_check(outputs) -> None:
    for protocol, (report, log) in outputs.items():
        _check_report(f"social_dense {protocol}", report)
        if log.count("\n") < 1 + report.generated:
            raise CheckFailed(f"social_dense {protocol}: event log too short")
    report, log = outputs["proposed2"]
    # the social protocols must relay, or their layers go idle unnoticed
    if ",FWD," not in log:
        raise CheckFailed("social_dense: proposed2 logged no FWD event")
    if proven_handovers(log) < 1:
        raise CheckFailed("social_dense: proposed2 logged no hand-over")
    if _report_text(report) == _report_text(outputs["epidemic"][0]):
        raise CheckFailed("social_dense: proposed2 metrics equal epidemic's")


WORKLOADS = {
    "desk_sweep": (desk_first, desk_execute, desk_digests, desk_check),
    "large_sparse": (large_first, large_execute, large_digests, large_check),
    "social_dense": (social_first, social_execute, social_digests, social_check),
}
