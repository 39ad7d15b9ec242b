"""Spans and counters around dtnsim's public functions, from outside the program.

Every wrapper is installed on the live objects and removed again afterwards:
a function is rebound, by identity, in every ``dtnsim.*`` module that holds
it, and a method is replaced on its class.  Entry points are looked up by
name in whichever ``dtnsim`` module defines them, so a span survives a
function moving between modules; one that no longer exists anywhere is
reported as missing instead of as zero.
"""

from __future__ import annotations

import sys
from collections import Counter
from types import FunctionType
from time import perf_counter
from typing import Callable

#: (layer, entry points).  ``Class.method`` names a method, ``Class.*`` every
#: public method defined on the class, and a bare name a module-level function.
SPANS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("cli.run_experiment", ("run_experiment",)),
    ("mobility.generate_trace", ("generate_trace",)),
    ("engine.setup", ("Simulation.__init__",)),
    ("engine.run", ("Simulation.run",)),
    ("engine.tracker", ("ContactTracker.update",)),
    ("contacts.window", ("ContactWindow.*",)),
    ("graph.brandes", ("betweenness", "endpoint_betweenness")),
    ("social.centrality", ("SocialNetworkView.my_centrality",)),
    ("social.hello", ("SocialNetworkView.make_hello", "SocialNetworkView.apply_hello")),
    ("social.maintain", ("SocialNetworkView.maintain",)),
    ("routing.decide", ("decide",)),
)


def dtnsim_modules() -> list:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "dtnsim" or name.startswith("dtnsim."))
    ]


def _find(top: str):
    """The object named ``top``, preferring the module that defines it."""
    found = [vars(mod)[top] for mod in dtnsim_modules() if top in vars(mod)]
    for obj in found:
        if str(getattr(obj, "__module__", "")).startswith("dtnsim"):
            return obj
    return None


def resolve(entry: str) -> list[tuple[object, str]] | None:
    """``[(owner, attribute)]`` for an entry point, or None if it is gone.

    ``owner`` is a class for methods and the function itself otherwise.
    """
    top, _, method = entry.partition(".")
    obj = _find(top)
    if obj is None:
        return None
    if not method:
        return [(obj, "")] if callable(obj) else None
    if not isinstance(obj, type):
        return None
    if method == "*":
        names = [
            n for n, v in vars(obj).items() if not n.startswith("_") and isinstance(v, FunctionType)
        ]
        return [(obj, n) for n in sorted(names)] or None
    return [(obj, method)] if isinstance(vars(obj).get(method), FunctionType) else None


class Patches:
    """Installed wrappers, undone in reverse order by :meth:`undo`."""

    def __init__(self) -> None:
        self._undo: list[Callable[[], None]] = []

    def method(self, cls: type, name: str, wrap: Callable) -> None:
        original = vars(cls)[name]
        setattr(cls, name, wrap(original))
        self._undo.append(lambda: setattr(cls, name, original))

    def function(self, fn: Callable, wrap: Callable) -> None:
        wrapper = wrap(fn)
        for mod in dtnsim_modules():
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapper)
                    self._undo.append(lambda m=mod, a=attr: setattr(m, a, fn))

    def undo(self) -> None:
        while self._undo:
            self._undo.pop()()

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        self.undo()


class TickCounter:
    """Sums simulated ticks x nodes over every finished ``Simulation.run``.

    This single wrapper stays on in untraced runs: it is entered once per
    simulation, not once per tick.
    """

    def __init__(self) -> None:
        self.node_ticks = 0
        self.ticks = 0

    def install(self, patches: Patches) -> None:
        targets = resolve("Simulation.run")
        if targets is None:
            raise LookupError("Simulation.run is gone, so ticks cannot be counted")
        (cls, name), = targets

        def wrap(run):
            def counted(sim, *args, **kwargs):
                report = run(sim, *args, **kwargs)
                ticks = int(round(sim.now / sim.cfg.tick)) + 1
                self.ticks += ticks
                self.node_ticks += ticks * sim.cfg.node_count
                return report

            return counted

        patches.method(cls, name, wrap)


def _decide(tr: "Tracer", args, result, children: int) -> None:
    if result:
        tr.counts["routing.decide.hits"] += 1
    for act in result:
        tr.counts["routing.actions." + act.action.value] += 1


def _tracker(tr: "Tracer", args, result, children: int) -> None:
    events, _ = result
    for ev in events:
        tr.counts["contacts.encounters" if ev.kind.name == "ENCOUNTER" else "contacts.departures"] += 1


def _brandes(tr: "Tracer", args, result, children: int) -> None:
    tr.counts["graph.brandes.vertices"] += len(args[0].vertices)


def _centrality(tr: "Tracer", args, result, children: int) -> None:
    # a cached answer runs no Brandes pass, so it opens no child span
    if children == 0:
        tr.counts["social.centrality.hits"] += 1


def _maintain(tr: "Tracer", args, result, children: int) -> None:
    if result:
        tr.counts["social.maintain.changed"] += 1


OBSERVERS = {
    "routing.decide": _decide,
    "engine.tracker": _tracker,
    "graph.brandes": _brandes,
    "social.centrality": _centrality,
    "social.maintain": _maintain,
}


class Tracer:
    """Self time and call counts per layer, plus layer-specific counters.

    Self time is a span's duration minus the durations of the spans it
    directly encloses.
    """

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.self_s: dict[str, float] = {}
        self.counts: Counter[str] = Counter()
        self.missing: list[str] = []
        self._stack: list[list] = []  # [child seconds, child spans] per open span

    def _wrap(self, layer: str, fn: Callable) -> Callable:
        observe = OBSERVERS.get(layer)
        stack = self._stack
        calls, self_s = self.calls, self.self_s
        self_s.setdefault(layer, 0.0)

        def span(*args, **kwargs):
            frame = [0.0, 0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                self_s[layer] += elapsed - frame[0]
                calls[layer] += 1
                if stack:
                    stack[-1][0] += elapsed
                    stack[-1][1] += 1
            if observe is not None:
                observe(self, args, result, frame[1])
            return result

        return span

    def install(self, patches: Patches) -> None:
        for layer, entries in SPANS:
            targets = [resolve(entry) for entry in entries]
            if any(t is None for t in targets):
                self.missing.append(layer)
                continue
            for owner, attr in (pair for t in targets for pair in t):
                wrap = lambda fn, layer=layer: self._wrap(layer, fn)
                if attr:
                    patches.method(owner, attr, wrap)
                else:
                    patches.function(owner, wrap)
