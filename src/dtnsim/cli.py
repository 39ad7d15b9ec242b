"""Experiment runner: sweep protocol x nodes x speed x TTL, emit CSV.

Configuration comes from a flat ``key=value`` file, ``DTNSIM_``-prefixed
environment variables, and command-line flags, in increasing precedence.
Every cell of the sweep runs ``runs`` replicated simulations with derived
seeds; one CSV row per cell carries the metric means plus per-run values.
Output is deterministic for a fixed base seed: rerunning an experiment
produces a byte-identical file.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, fields, replace
from typing import IO, Sequence

from dtnsim.engine import (
    MetricsReport,
    SimConfig,
    Simulation,
    default_trace,
    shared_timeline,
    summarize,
)
from dtnsim.mobility import save_trace
from dtnsim.routing import Protocol

ENV_PREFIX = "DTNSIM_"

#: config keys that set a ``SimConfig`` field -> that field, whose default
#: and type give the key's default and converter
_CONFIG_FIELDS: dict[str, str] = {
    "area_width": "arena_width",
    "area_height": "arena_height",
    "comm_range": "comm_range",
    "window_size": "window_size",
    "threshold": "threshold",
    "message_count": "message_count",
    "generation_span": "generation_span",
    "hello_period": "hello_period",
    "missed_hello_limit": "missed_hello_limit",
    "pause": "pause",
    "seed": "seed",
}
_FIELD_DEFAULTS = {f.name: f.default for f in fields(SimConfig)}

_TABLE_DEFAULTS: dict[str, str] = {
    "protocol": "epidemic,friendship,proposed1,proposed2",
    "nodes": "25,75",
    "speed": "0.5,1.0,1.25,1.5",
    "ttl": "60,120,180,240,300,360",
    "runs": "10",
    **{key: str(_FIELD_DEFAULTS[name]) for key, name in _CONFIG_FIELDS.items()},
    "out": "",
    "trace": "",
    "event_log": "",
}


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentSpec:
    base: SimConfig
    protocols: list[Protocol]
    node_counts: list[int]
    speeds: list[float]
    ttls: list[float]
    runs: int = 10
    out: str | None = None
    trace: str | None = None
    event_log: str | None = None

    def cells(self) -> list[tuple[Protocol, int, float, float]]:
        return [
            (proto, nodes, speed, ttl)
            for proto in self.protocols
            for nodes in self.node_counts
            for speed in self.speeds
            for ttl in self.ttls
        ]


def _parse_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = line.split("=", 1)
            key = key.strip()
            if key not in _TABLE_DEFAULTS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = value.strip()
    return values


def _env_overrides() -> dict[str, str]:
    values = {}
    for key in _TABLE_DEFAULTS:
        env_value = os.environ.get(ENV_PREFIX + key.upper())
        if env_value is not None:
            values[key] = env_value
    return values


def _to_float(key: str, value: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"{key}: not a number: {value!r}") from None


def _to_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{key}: not an integer: {value!r}") from None


def _to_list(key: str, value: str, conv) -> list:
    items = [item.strip() for item in value.split(",") if item.strip()]
    if not items:
        raise ConfigError(f"{key}: empty sweep list")
    return [conv(key, item) for item in items]


def parse_config(
    path: str | None = None, overrides: dict[str, str] | None = None
) -> ExperimentSpec:
    """Merge defaults, config file, environment, and flag overrides."""
    values = dict(_TABLE_DEFAULTS)
    if path is not None:
        values.update(_parse_file(path))
    values.update(_env_overrides())
    for key, value in (overrides or {}).items():
        if key not in _TABLE_DEFAULTS:
            raise ConfigError(f"unknown key {key!r}")
        values[key] = value

    try:
        protocols = [
            Protocol.parse(name)
            for name in _to_list("protocol", values["protocol"], lambda _k, v: v)
        ]
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    base = {}
    for key, name in _CONFIG_FIELDS.items():
        conv = _to_int if isinstance(_FIELD_DEFAULTS[name], int) else _to_float
        base[name] = conv(key, values[key])
    spec = ExperimentSpec(
        base=SimConfig(**base),
        protocols=protocols,
        node_counts=_to_list("nodes", values["nodes"], _to_int),
        speeds=_to_list("speed", values["speed"], _to_float),
        ttls=_to_list("ttl", values["ttl"], _to_float),
        runs=_to_int("runs", values["runs"]),
        out=values["out"] or None,
        trace=values["trace"] or None,
        event_log=values["event_log"] or None,
    )
    if spec.runs < 1:
        raise ConfigError("runs: must be at least 1")
    probe = replace(
        spec.base,
        protocol=spec.protocols[0],
        node_count=spec.node_counts[0],
        speed=spec.speeds[0],
        ttl=spec.ttls[0],
    )
    try:
        probe.check()
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    # every sweep value, each in the otherwise valid probe
    sweeps = (
        ("nodes", "node_count", spec.node_counts),
        ("speed", "speed", spec.speeds),
        ("ttl", "ttl", spec.ttls),
    )
    for key, name, values in sweeps:
        for value in values[1:]:
            try:
                replace(probe, **{name: value}).check()
            except ValueError as exc:
                raise ConfigError(f"{key}: {exc}") from None
    return spec


# -- sweep execution -----------------------------------------------------------


def _fmt_cell(value: float | int) -> str:
    return repr(float(value)) if isinstance(value, float) else str(value)


def _header(runs: int) -> str:
    cols = [
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
    for k in range(1, runs + 1):
        cols += [f"run{k}_ratio", f"run{k}_cost", f"run{k}_efficiency"]
    return ",".join(cols)


def _event_log_path(spec: ExperimentSpec, cell_index: int, run_index: int) -> str | None:
    if spec.event_log is None:
        return None
    if len(spec.cells()) * spec.runs == 1:
        return spec.event_log
    return f"{spec.event_log}.c{cell_index}.r{run_index}"


def _run_group(
    spec: ExperimentSpec,
    members: list[tuple[int, SimConfig]],
    k: int,
    results: dict[int, list[MetricsReport] | Exception],
) -> None:
    """Run replicate ``k`` of ``members`` (cell index, config) on one timeline.

    Each cell's report is appended to ``results``; a cell that fails records
    its exception there instead, and the other cells carry on.
    """
    configs: list[tuple[int, SimConfig]] = []
    for index, config in members:
        config = replace(config, seed=config.seed + k)
        try:
            config.check()
        except ValueError as exc:
            results[index] = exc
            continue
        configs.append((index, config))
    if not configs:
        return
    try:
        timeline = shared_timeline([config for _, config in configs])
    except Exception as exc:
        for index, _ in configs:
            results[index] = exc
        return
    sims: list[tuple[int, Simulation]] = []
    for index, config in configs:
        try:
            sim = Simulation(
                config, event_log=_event_log_path(spec, index, k), timeline=timeline
            )
        except Exception as exc:
            results[index] = exc
            continue
        sims.append((index, sim))
    for index, sim in sims:
        try:
            results[index].append(sim.run())
        except Exception as exc:
            results[index] = exc


def run_experiment(spec: ExperimentSpec, progress: IO[str] | None = None) -> int:
    """Run every sweep cell; returns a nonzero exit status if any cell failed.

    The cells of one (nodes, speed) pair differ only in protocol and TTL, so
    each replicate of them runs on one shared timeline; rows and progress
    lines still follow cell order.
    """
    progress = progress if progress is not None else sys.stderr
    cells = spec.cells()
    groups: dict[tuple[int, float], list[tuple[int, SimConfig]]] = {}
    for index, (proto, nodes, speed, ttl) in enumerate(cells):
        config = replace(
            spec.base,
            protocol=proto,
            node_count=nodes,
            speed=speed,
            ttl=ttl,
            trace_path=spec.trace,
        )
        groups.setdefault((nodes, speed), []).append((index, config))
    results: dict[int, list[MetricsReport] | Exception] = {
        index: [] for index in range(len(cells))
    }
    for members in groups.values():
        for k in range(spec.runs):
            # a cell stops at its first failing replicate
            live = [m for m in members if not isinstance(results[m[0]], Exception)]
            _run_group(spec, live, k, results)

    lines = [_header(spec.runs)]
    failures = 0
    for index, (proto, nodes, speed, ttl) in enumerate(cells):
        prefix = [proto.value, str(nodes), _fmt_cell(speed), _fmt_cell(ttl), str(spec.runs)]
        outcome = results[index]
        if isinstance(outcome, Exception):  # keep sweeping; mark the cell
            failures += 1
            row = prefix + [f"error:{type(outcome).__name__}"] + [""] * (3 + 3 * spec.runs)
            lines.append(",".join(row))
            print(
                f"[{index + 1}/{len(cells)}] {' '.join(prefix[:4])} FAILED: {outcome}",
                file=progress,
            )
            continue
        summary = summarize(outcome)
        row = prefix + [
            "ok",
            repr(summary.delivery_ratio),
            repr(summary.delivery_cost),
            repr(summary.delivery_efficiency),
        ]
        for report in summary.runs:
            row += [
                repr(report.delivery_ratio),
                repr(report.delivery_cost),
                repr(report.delivery_efficiency),
            ]
        lines.append(",".join(row))
        print(
            f"[{index + 1}/{len(cells)}] {' '.join(prefix[:4])} "
            f"ratio={summary.delivery_ratio:.4f} cost={summary.delivery_cost:.4f} "
            f"efficiency={summary.delivery_efficiency:.4f}",
            file=progress,
        )
    text = "\n".join(lines) + "\n"
    if spec.out:
        with open(spec.out, "w", encoding="ascii", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 1 if failures else 0


def _dump_trace(spec: ExperimentSpec, path: str) -> None:
    config = replace(
        spec.base,
        node_count=spec.node_counts[0],
        speed=spec.speeds[0],
        ttl=max(spec.ttls),
    )
    save_trace(default_trace(config), path)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="dtnsim",
        description=(
            "Sweep DTN routing experiments (protocol x nodes x speed x TTL) "
            "and write one CSV row of delivery metrics per cell."
        ),
    )
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--protocol", help="comma list: epidemic,friendship,proposed1,proposed2")
    parser.add_argument("--ttl", help="comma list of TTL seconds")
    parser.add_argument("--nodes", help="comma list of node counts")
    parser.add_argument("--speed", help="comma list of speeds (m/s)")
    parser.add_argument("--runs", help="replicated runs per cell")
    parser.add_argument("--seed", help="base seed")
    parser.add_argument("--trace", help="ingest a trace file instead of generating")
    parser.add_argument("--dump-trace", metavar="PATH", help="write the generated trace and exit")
    parser.add_argument("--out", help="output CSV path (default: stdout)")
    parser.add_argument("--event-log", help="per-run message event log path")
    args = parser.parse_args(argv)

    overrides = {
        key: value
        for key, value in vars(args).items()
        if key in _TABLE_DEFAULTS and value is not None
    }
    try:
        spec = parse_config(args.config, overrides)
        if args.dump_trace:
            _dump_trace(spec, args.dump_trace)
            return 0
        return run_experiment(spec)
    except (ConfigError, OSError) as exc:
        print(f"dtnsim: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
