"""Per-layer spans recorded from outside grassvar.

The tracer replaces public functions and methods of grassvar with
wrappers that open a span around each call.  A name bound by
``from ... import`` is looked up in the importing module, so every
binding of a wrapped function in any ``grassvar`` module is replaced, not
only the defining one.  Spans are aggregated in memory per (name, parent):
calls, inclusive time and self time (duration minus the time covered by
child spans).  A target that no longer exists is not installed, and the
metrics that need it are left out instead of failing the run.
"""
from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

import numpy as np

# span name -> [(module, attribute path, rebind aliases in other grassvar modules)]
TARGETS = {
    "scenarios.load": [("grassvar.scenarios", "load_scenario", True)],
    "scenarios.run": [("grassvar.scenarios", "run_scenario", True)],
    "functional.curve_length": [("grassvar.functional", "curve_length", True)],
    # only the binding inside functional: the homogeneity probe, not the check
    "functional.probe": [("grassvar.functional", "check_homogeneity", False)],
    "functional.areal_value": [("grassvar.functional", "areal_value", True)],
    "forms.quadrature": [("grassvar.forms", "integrate_scalar_over_box", True)],
    "forms.integrate": [("grassvar.forms", "integrate", True)],
    "forms.pullback": [("grassvar.forms", "pullback", True)],
    "forms.exterior_derivative": [("grassvar.forms", "exterior_derivative", True)],
    "forms.partition": [("grassvar.forms", "integrate_with_partition", True)],
    "maps.eval": [("grassvar.maps", "DifferentiableMap.__call__", False)],
    "maps.jacobian": [("grassvar.maps", "DifferentiableMap.jacobian", False)],
    "kvector.lift": [
        ("grassvar.kvector", name, True)
        for name in ("canonical_lift", "lift_kvector", "compound_matrix", "wedge")
    ],
    "finsler.eval": [("grassvar.finsler", "FinslerFunction.__call__", False)],
    "finsler.gradient": [("grassvar.finsler", "FinslerFunction.fiber_gradient", False)],
    "expressions.eval": [("grassvar.expressions", "ExprCoeff.__call__", False)],
    "expressions.compile": [
        ("grassvar.expressions", "ExprCoeff.__init__", False),
        ("sympy", "lambdify", False),
    ],
    "grassmann": [
        ("grassvar.grassmann", name, True)
        for name in (
            "to_grassmann",
            "grassmann_transition",
            "equivalent",
            "grassmann_canonical_lift",
            "project_kappa",
            "points_close",
        )
    ],
}

# per-layer metric -> (kind, span names).  A metric is reported only when
# every span it names is installed.  Kinds: "calls", "incl" (inclusive
# seconds of the outermost spans) and "self" (self seconds) sum over the
# spans; "edge" is the inclusive seconds of the first span called directly
# from the second; "nodes" and "useful" are the integrand nodes counted by
# the quadrature wrapper and the share of them in accepted levels.
METRICS = {
    "scenarios.load_calls": ("calls", "scenarios.load"),
    "scenarios.load_s": ("incl", "scenarios.load"),
    "scenarios.run_calls": ("calls", "scenarios.run"),
    "scenarios.run_s": ("incl", "scenarios.run"),
    "functional.curve_length_calls": ("calls", "functional.curve_length"),
    "functional.curve_length_s": ("incl", "functional.curve_length"),
    "functional.probe_calls": ("calls", "functional.probe"),
    "functional.probe_s": ("incl", "functional.probe"),
    "functional.cross_check_s": ("edge", "forms.integrate", "functional.curve_length"),
    "functional.areal_value_calls": ("calls", "functional.areal_value"),
    "functional.areal_value_s": ("incl", "functional.areal_value"),
    "forms.quadrature_calls": ("calls", "forms.quadrature"),
    "forms.nodes": ("nodes", "forms.quadrature"),
    "forms.quadrature_self_s": ("self", "forms.quadrature"),
    "forms.adaptive_useful_share": ("useful", "forms.quadrature"),
    "forms.integrate_calls": ("calls", "forms.integrate"),
    "forms.integrate_s": ("incl", "forms.integrate"),
    "forms.pullback_calls": ("calls", "forms.pullback"),
    "forms.exterior_derivative_s": ("incl", "forms.exterior_derivative"),
    "forms.partition_s": ("incl", "forms.partition"),
    "maps.eval_calls": ("calls", "maps.eval"),
    "maps.jacobian_calls": ("calls", "maps.jacobian"),
    "maps.self_s": ("self", "maps.eval", "maps.jacobian"),
    "kvector.lift_calls": ("calls", "kvector.lift"),
    "kvector.self_s": ("self", "kvector.lift"),
    "finsler.eval_calls": ("calls", "finsler.eval"),
    "finsler.gradient_calls": ("calls", "finsler.gradient"),
    "finsler.self_s": ("self", "finsler.eval", "finsler.gradient"),
    "expressions.eval_calls": ("calls", "expressions.eval"),
    "expressions.self_s": ("self", "expressions.eval"),
    "expressions.compile_s": ("incl", "expressions.compile"),
    "grassmann.calls": ("calls", "grassmann"),
    "grassmann.self_s": ("self", "grassmann"),
}
UNITS = {"calls": "count", "nodes": "count", "incl": "s", "self": "s", "edge": "s", "useful": "ratio"}


def _resolve(module: str, path: str):
    """(owner, attribute, current value) or None when the target is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    value = getattr(owner, attr, None)
    return None if value is None else (owner, attr, value)


def _node_count(t) -> int:
    """Nodes in one integrand call: 1 for a point, N for an (N, d) batch."""
    return int(np.shape(t)[0]) if np.ndim(t) == 2 else 1


def _accepted_level_nodes(total: int, box, q) -> int:
    """Nodes of the last level of global-doubling refinement that sums to
    ``total``; ``total`` itself when the count fits no such sequence."""
    if not getattr(q, "adaptive", False):
        return total
    cells, seen, level = q.cells_per_axis, 0, 0
    while seen < total:
        level = (cells * q.gauss_order) ** len(box)
        seen += level
        cells *= 2
    return level if seen == total else total


class Tracer:
    """Installs span wrappers and aggregates spans per (name, parent)."""

    def __init__(self):
        self.present: set[str] = set()
        self._patches: list = []
        self.reset()

    def reset(self) -> None:
        self._stack: list[list] = []  # [name, time covered by children]
        self._depth = defaultdict(int)
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)  # outermost span of each name only
        self.edges = defaultdict(lambda: [0, 0.0, 0.0])  # (name, parent) -> calls, incl, self
        self.nodes = 0
        self.useful_nodes = 0

    def _span(self, name, fn, args, kwargs):
        parent = self._stack[-1][0] if self._stack else None
        frame = [name, 0.0]
        self._stack.append(frame)
        self._depth[name] += 1
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - t0
            self._stack.pop()
            self._depth[name] -= 1
            own = dur - frame[1]
            self.calls[name] += 1
            self.self_s[name] += own
            if self._depth[name] == 0:
                self.incl_s[name] += dur
            edge = self.edges[(name, parent)]
            edge[0] += 1
            edge[1] += dur
            edge[2] += own
            if self._stack:
                self._stack[-1][1] += dur

    def _wrapper(self, name, fn):
        if name == "forms.quadrature":
            def quadrature(g, box, q, *args, **kwargs):
                count = [0]

                def counted(t):
                    count[0] += _node_count(t)
                    return g(t)

                try:
                    return self._span(name, fn, (counted, box, q) + args, kwargs)
                finally:
                    self.nodes += count[0]
                    self.useful_nodes += _accepted_level_nodes(count[0], box, q)

            return quadrature

        def wrapper(*args, **kwargs):
            return self._span(name, fn, args, kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "grassvar"]
        for name, targets in TARGETS.items():
            for module, path, aliases in targets:
                found = _resolve(module, path)
                if found is None:
                    continue
                owner, attr, original = found
                self.present.add(name)
                wrapped = self._wrapper(name, original)
                sites = [(owner, attr)]
                if aliases:
                    sites += [
                        (mod, key)
                        for mod in modules
                        for key, value in list(vars(mod).items())
                        if value is original and not (mod is owner and key == attr)
                    ]
                for site, key in sites:
                    self._patches.append((site, key, original))
                    setattr(site, key, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            site, key, original = self._patches.pop()
            setattr(site, key, original)

    def absent(self) -> list[str]:
        """Metrics left out because a span they name is not installed."""
        return sorted(
            m for m, (_, *spans) in METRICS.items() if not self.present.issuperset(spans)
        )

    def metrics(self) -> dict:
        """Per-layer metrics of everything recorded since the last reset.

        Absent metrics are left out, and so is the useful share when no
        quadrature node was evaluated."""
        sums = {"calls": self.calls, "incl": self.incl_s, "self": self.self_s}
        out = {}
        for metric, (kind, *spans) in METRICS.items():
            if not self.present.issuperset(spans):
                continue
            if kind in sums:
                out[metric] = sum(sums[kind][s] for s in spans)
            elif kind == "edge":
                out[metric] = self.edges.get(tuple(spans), (0, 0.0, 0.0))[1]
            elif kind == "nodes":
                out[metric] = self.nodes
            elif self.nodes:  # "useful"
                out[metric] = self.useful_nodes / self.nodes
        return out

    def span_table(self) -> list[dict]:
        """The aggregated spans, for the trace file written at the end of a run."""
        return [
            {"name": n, "parent": p, "calls": e[0], "incl_s": e[1], "self_s": e[2]}
            for (n, p), e in sorted(self.edges.items(), key=lambda kv: (kv[0][0], str(kv[0][1])))
        ]
