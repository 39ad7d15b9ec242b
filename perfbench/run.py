"""dtnsim benchmark: end-to-end metrics per workload, or per-layer metrics traced.

    python3 perfbench/run.py --workload desk_sweep [--seed 1] [--seconds 40] [--trace 0]

    # every workload, end to end
    for w in desk_sweep large_sparse social_dense; do python3 perfbench/run.py --workload $w; done

Closed loop: one process and one thread run the workload again and again,
each repetition starting after the previous one finished, until the next
would overrun ``--seconds``.  The package is imported from ``src/`` of the
checkout this file sits in.

``--trace 0`` prints the end-to-end metrics named in BENCHMARK.json:
``wall_s`` (median seconds of one repetition), ``node_ticks_per_s``
(simulated ticks x nodes of one repetition over ``wall_s``), ``setup_s``
(median over fresh interpreters of the package import plus building the
workload's first ``Simulation``) and ``peak_rss_mb`` (this process's peak
resident memory).  The speed of a shared host drifts by a quarter within
minutes, and every workload drifts with it, so ``wall_s`` and ``setup_s``
are given in reference seconds: host seconds times ``REFERENCE_S`` over the
median host time of a fixed reference loop timed between repetitions of the
same run.  The host seconds are printed beside them and kept in the record.  ``--trace 1`` alternates untraced and traced repetitions
and prints the per-layer metrics, whose spans wrap dtnsim's public functions
from outside (see tracer.py), plus the tracing overhead.

Every repetition's outputs are checked (workloads.py) and digested.  The
digests must repeat across repetitions, traced or not, and must equal the
ones in golden.json when that file holds the seed; for any other seed they
are printed so two commits can be compared.  A repetition that raises or
fails a check counts as failed: the result then says ``"correct": false``
and the exit status is 1.  Status 2 means the package could not be loaded,
and no result is printed.  The last line of standard output is the result
as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from tracer import SPANS, Patches, TickCounter, Tracer
from workloads import WORKLOADS, CheckFailed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 7
#: host seconds of ``reference_loop`` that one reference second stands for
REFERENCE_S = 0.25
MIN_TRACED_PAIRS = 2


class LoadError(Exception):
    """The dtnsim package of this checkout cannot be imported."""


def load_dtnsim():
    import importlib
    import pkgutil

    package_dir = ROOT / "src" / "dtnsim"
    if not (package_dir / "__init__.py").is_file():
        raise LoadError(f"no dtnsim package at {package_dir}")
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import dtnsim
    except ImportError as exc:
        raise LoadError(f"cannot import dtnsim: {exc}") from exc
    if Path(dtnsim.__file__).resolve().parent != package_dir.resolve():
        raise LoadError(f"imported dtnsim from {dtnsim.__file__}, not {package_dir}")
    for info in pkgutil.walk_packages(dtnsim.__path__, "dtnsim."):
        importlib.import_module(info.name)
    return dtnsim


def provenance() -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent), GIT_OPTIONAL_LOCKS="0")

    def git(*args: str) -> str | None:
        try:
            done = subprocess.run(
                ["git", *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no") if sha else None
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    import numpy

    return {
        "git_sha": sha or "unknown",
        "git_dirty": None if status is None else bool(status),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "loadavg_1m": os.getloadavg()[0],
    }


def setup_sample(name: str, seed: int) -> float:
    """Import plus first-Simulation seconds, measured in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", name, "--seed", str(seed)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
    return float(done.stdout.split()[-1])


def reference_loop() -> float:
    """Host seconds of a fixed mix of interpreter and small-array work."""
    import numpy

    start = perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for i in range(150_000):
        table[i % 997] = table.get(i % 997, 0) + i
        acc += i * i % 7
    points = numpy.random.default_rng(0).random((60, 2))
    for _ in range(1500):
        diff = points[:, None, :] - points[None, :, :]
        ((diff * diff).sum(axis=2) <= 0.01).any()
    return perf_counter() - start


class Session:
    """Repetitions of one workload at one seed, with their checks."""

    def __init__(self, name: str, seed: int, golden: dict | None) -> None:
        self.name, self.seed, self.golden = name, seed, golden
        self.attempted = 0
        self.errors: list[str] = []
        self.digests: dict[str, str] | None = None
        self.node_ticks: int | None = None

    def repeat(self, counter: TickCounter) -> float | None:
        """One repetition; its wall seconds, or None if it failed."""
        _, execute, digest, check = WORKLOADS[self.name]
        self.attempted += 1
        counter.node_ticks = counter.ticks = 0
        start = perf_counter()
        try:
            outputs = execute(self.seed)
            wall = perf_counter() - start
            check(outputs)
        except CheckFailed as exc:
            return self.fail(str(exc))
        except Exception:  # any crash of the program is a failed repetition
            return self.fail(traceback.format_exc().strip())
        digests = digest(outputs)
        if self.digests is None:
            self.digests, self.node_ticks = digests, counter.node_ticks
            if self.golden is not None and digests != self.golden:
                return self.fail(f"digests differ from golden.json: {digests}")
        elif digests != self.digests:
            return self.fail(f"digests differ between repetitions: {digests}")
        elif counter.node_ticks != self.node_ticks:
            return self.fail("simulated ticks differ between repetitions")
        return wall

    def fail(self, message: str) -> None:
        self.errors.append(message)
        print(f"FAILED repetition {self.attempted}: {message}", file=sys.stderr)
        return None


def layer_metrics(tracer: Tracer, counter: TickCounter) -> dict:
    out: dict = {}
    for layer, _ in SPANS:
        gone = layer in tracer.missing
        out[layer + ".calls"] = None if gone else tracer.calls[layer]
        out[layer + ".self_s"] = None if gone else tracer.self_s[layer]

    def count(layer: str, key: str):
        return None if layer in tracer.missing else tracer.counts[key]

    def ratio(layer: str, key: str):
        if layer in tracer.missing:
            return None
        calls = tracer.calls[layer]
        return tracer.counts[key] / calls if calls else 0.0

    out["contacts.encounters"] = count("engine.tracker", "contacts.encounters")
    out["contacts.departures"] = count("engine.tracker", "contacts.departures")
    out["engine.ticks"] = counter.ticks
    out["graph.brandes.vertices"] = count("graph.brandes", "graph.brandes.vertices")
    out["social.centrality.cache_hit_ratio"] = ratio("social.centrality", "social.centrality.hits")
    out["social.maintain.changed_ratio"] = ratio("social.maintain", "social.maintain.changed")
    out["routing.decide.hit_ratio"] = ratio("routing.decide", "routing.decide.hits")
    for action in ("copy", "forward_and_delete", "deliver"):
        out["routing.actions." + action] = count("routing.decide", "routing.actions." + action)
    return out


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)}, quartiles {q1:.4f}..{q3:.4f}"


def measure(session: Session, counter: TickCounter, seconds: float, started: float, record: dict) -> dict:
    setup: list[float] = []
    refs: list[float] = []
    walls: list[float] = []
    deadline = started + seconds
    while True:
        begun = perf_counter()
        # interleaved, so that a slow spell of the host does not hit every sample
        refs.append(reference_loop())
        setup.append(setup_sample(session.name, session.seed))
        wall = session.repeat(counter)
        if wall is not None:
            walls.append(wall)
        if perf_counter() + (perf_counter() - begun) > deadline:
            break
    while len(setup) < SETUP_SAMPLES:
        refs.append(reference_loop())
        setup.append(setup_sample(session.name, session.seed))
    record.update(wall_samples_s=walls, setup_samples_s=setup, reference_samples_s=refs)
    if not walls:
        return {}
    scale = REFERENCE_S / statistics.median(refs)
    wall = statistics.median(walls) * scale
    setup_s = statistics.median(setup) * scale
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"wall_s           {wall:.4f} s        (host {statistics.median(walls):.4f} s, {quartiles(walls)})")
    print(f"node_ticks_per_s {session.node_ticks / wall:.1f} 1/s    ({session.node_ticks} node-ticks per repetition)")
    print(f"setup_s          {setup_s:.4f} s        (host {statistics.median(setup):.4f} s, {quartiles(setup)}, fresh interpreters)")
    print(f"peak_rss_mb      {rss:.1f} MB")
    print(f"reference loop   {statistics.median(refs):.4f} s host for {REFERENCE_S} s  ({quartiles(refs)})")
    return {
        "wall_s": wall,
        "node_ticks_per_s": session.node_ticks / wall,
        "setup_s": setup_s,
        "peak_rss_mb": rss,
    }


def measure_traced(
    session: Session, counter: TickCounter, seconds: float, started: float, units: dict, record: dict
) -> dict:
    plain: list[float] = []
    traced: list[float] = []
    layers: list[dict] = []
    missing: list[str] = []
    deadline = started + seconds
    while True:
        begun = perf_counter()
        wall = session.repeat(counter)
        if wall is not None:
            plain.append(wall)
        tracer = Tracer()
        with Patches() as patches:
            tracer.install(patches)
            wall = session.repeat(counter)
        missing = tracer.missing
        if wall is not None:
            traced.append(wall)
            layers.append(layer_metrics(tracer, counter))
        pairs = session.attempted // 2
        if pairs >= MIN_TRACED_PAIRS and perf_counter() + (perf_counter() - begun) > deadline:
            break
    record["wall_samples_s"], record["traced_wall_samples_s"] = plain, traced
    if missing:
        print(f"missing entry points (layer renamed or removed): {', '.join(missing)}")
    if not (plain and traced):
        return {}
    out: dict = {}
    unsteady = []
    for name in layers[0]:
        values = [sample[name] for sample in layers]
        if units.get(name) == "s" and None not in values:
            out[name] = statistics.median(values)
        else:
            out[name] = values[0]
            if any(v != values[0] for v in values):
                unsteady.append(f"{name} {values}")
    if unsteady:
        session.fail(f"counts differ between traced repetitions: {'; '.join(unsteady)}")
    out["trace.wall_s"] = statistics.median(traced)
    out["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    for name, value in out.items():
        kind = "exact count" if units.get(name) == "count" else units.get(name, "")
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"{name:36s} {shown:>12s}  {kind}")
    print(f"tracing overhead: traced {quartiles(traced)}; untraced {quartiles(plain)}")
    return out


def main(argv: list[str] | None = None) -> int:
    started = perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # the configuration must come from this file alone
    for key in [k for k in os.environ if k.startswith("DTNSIM_")]:
        del os.environ[key]

    try:
        load_dtnsim()
    except LoadError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        WORKLOADS[args.workload][0](args.seed)
        print(repr(perf_counter() - started))
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    golden = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))
    session = Session(args.workload, args.seed, golden.get(str(args.seed), {}).get(args.workload))
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "provenance": provenance()}
    print(f"workload {args.workload}, seed {args.seed}, {'traced' if args.trace else 'untraced'}; "
          "closed loop, 1 process, 1 thread")

    counter = TickCounter()
    with Patches() as patches:
        counter.install(patches)
        if args.trace:
            values = measure_traced(session, counter, args.seconds, started, units, record)
        else:
            values = measure(session, counter, args.seconds, started, record)

    failed = len(session.errors)
    print(f"error_rate       {failed / session.attempted:.4f}    ({failed} of {session.attempted} repetitions failed)")
    if session.digests is not None:
        for part, digest in sorted(session.digests.items()):
            print(f"digest {part} {digest}")
    if session.golden is None:
        print(f"golden: none recorded for seed {args.seed}; compare the digests above across commits")
    elif session.digests == session.golden:
        print("golden: digests match golden.json")
    if values and set(values) != set(units):
        raise SystemExit(f"perfbench: metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json")
    metrics = {}
    for name, value in values.items():
        metrics[name] = {"value": value, "unit": units[name]}
        if value is None:
            metrics[name]["missing"] = True
    record.update(digests=session.digests, golden=session.golden is not None, errors=session.errors)
    print(json.dumps({"record": record}))
    correct = failed == 0 and bool(values)
    print(json.dumps({"correct": correct, "attempted": session.attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
