"""Scenario files: schema, loading, and the row loop of every subcommand.

A scenario is a JSON document (``"version": "1"``) declaring a metric, a
geometry from the map catalog, quadrature settings, and either quantities
to compute (length/area/variation subcommands) or a list of named checks.
``SCENARIO_SCHEMA`` is a JSON Schema; one walk, :func:`_violation`, checks the
keywords it uses: ``type enum minimum maximum exclusiveMinimum required
properties additionalProperties propertyNames.pattern items minItems
maxItems``.  The caps on sample counts, scalings, the Grassmann dimension,
the Gauss order, the cells per axis, the variation modes, the partition
covers and the form dimension bound the samples a check draws, the nodes
of a quadrature cell, the cells of a fixed grid, the fields of a variation
row, the boxes of a partition of unity and the coefficients of a form; a
sampled check evaluates its scaled samples in chunks of at most
``quadrature.CHUNK_NODES`` rows.  :func:`run_scenario` turns it into rows
through one table, ``SUBCOMMANDS``: subcommand -> (the list it reads,
``compute`` or ``checks``; its row functions by name; the expected value of
a row whose entry gives none).  The check rows are
:data:`grassvar.checks.CHECKS`, loaded by the ``check`` subcommand alone;
likewise :mod:`grassvar.forms` and :mod:`grassvar.variation` are loaded
only by the rows that read a form or vary a curve.
Each row function is ``fn(run, **params) -> float``: its keyword arguments
are the parameters an entry may give, and the :class:`Run` builds each input
once, on first use; equal metric and map blocks share one object per
process (:func:`_interned`), which a later run neither rebuilds nor probes
again.  The curve rows hand ``run.curve``, a 1-piece, to the functionals
as it is, and the area and form rows ``run.piece``; every row integrates on
its quadrature ``run.q``, so ``--gauss-order`` and ``--cells`` apply to
every subcommand, checks included.
The CLI front end in :mod:`grassvar.cli` turns the rows into a text report
and a CSV file.
"""
from __future__ import annotations

import inspect
import json
import math
import re
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from . import functional
from .errors import GrassvarError, ScenarioError
from .finsler import FinslerFunction, METRIC_KINDS
from .kvector import canonical_lift
from .maps import DifferentiableMap, from_catalog
from .quadrature import MAX_CELLS_PER_AXIS, MAX_COVERS, MAX_GAUSS_ORDER, Piece, QuadratureSpec

SCHEMA_VERSION = "1"

_number = {"type": "number"}
_positive = {"type": "number", "exclusiveMinimum": 0}
_sample_count = {"type": "integer", "minimum": 1, "maximum": 100000}
_tolerance = {"type": "number", "minimum": 0}
MAX_FORM_DIM = 16  # chart dimension of a form block: at most C(16, 8) = 12870 coefficients
_catalog_ref = {
    "type": "object",
    "properties": {"catalog": {"type": "string"}, "params": {"type": "object"}},
    "required": ["catalog"],
    "additionalProperties": False,
}
_form = {
    "type": "object",
    "properties": {
        "degree": {"type": "integer", "minimum": 0},
        "dim": {"type": "integer", "minimum": 1, "maximum": MAX_FORM_DIM},
        "coefficients": {
            "description": (
                "Map from an increasing index list such as '1,3' ('' for degree 0) "
                "to a number or an expression in y1..ym built from numbers, pi, "
                "+ - * / **, unary + and -, parentheses and the one-argument "
                "functions sin cos tan exp sqrt log; see grassvar.expressions."
            ),
            "type": "object",
            "propertyNames": {"pattern": r"^(\d+(,\d+)*)?$"},
            "additionalProperties": {"type": ["string", "number"]},
        },
    },
    "required": ["degree", "dim", "coefficients"],
    "additionalProperties": False,
}

SCENARIO_SCHEMA = {
    "type": "object",
    "properties": {
        "version": {"type": "string"},
        "metric": {
            "type": "object",
            "properties": {"kind": {"type": "string"}},
            "required": ["kind"],
        },
        "geometry": {
            "type": "object",
            "properties": {
                "catalog": {"type": "string"},
                "params": {"type": "object"},
                "interval": {
                    "type": "array",
                    "items": _number,
                    "minItems": 2,
                    "maxItems": 2,
                },
                "box": {
                    "type": "array",
                    "items": {
                        "type": "array",
                        "items": _number,
                        "minItems": 2,
                        "maxItems": 2,
                    },
                },
                "orientation": {"enum": [1, -1]},
            },
            "required": ["catalog"],
            "additionalProperties": False,
        },
        "quadrature": {
            "type": "object",
            "properties": {
                "gauss_order": {"type": "integer", "minimum": 1, "maximum": MAX_GAUSS_ORDER},
                "cells_per_axis": {
                    "type": "integer", "minimum": 1, "maximum": MAX_CELLS_PER_AXIS
                },
                "adaptive": {"type": "boolean"},
                "target": _number,
            },
            "additionalProperties": False,
        },
        "compute": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "name": {"type": "string"},
                    "expected": _number,
                    "tolerance": _tolerance,
                },
                "required": ["name"],
                "additionalProperties": False,
            },
        },
        "checks": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "name": {"type": "string"},
                    "tolerance": _tolerance,
                    "samples": _sample_count,
                    "count": _sample_count,
                    "lambdas": {"type": "array", "items": _positive, "minItems": 1, "maxItems": 16},
                    "k": {"type": "integer", "minimum": 1},
                    "m": {"type": "integer", "minimum": 2, "maximum": 8},
                    "form": _form,
                },
                "required": ["name", "tolerance"],
                "additionalProperties": False,
            },
        },
        "form": _form,
        "alpha": _catalog_ref,
        "reparam": _catalog_ref,
        "family": {
            "type": "object",
            "properties": {
                "profile": {"enum": ["constant", "linear", "sin"]},  # checks.PROFILE_FAMILIES
                "t0": _number,
                "dt_step": _positive,
            },
            "required": ["profile", "t0"],
            "additionalProperties": False,
        },
        "partition": {
            "type": "object",
            "properties": {
                "covers": {
                    "type": "array",
                    "items": {"type": "integer", "minimum": 1, "maximum": MAX_COVERS},
                    "minItems": 2,
                    "maxItems": 8,
                },
                "overlap": _positive,
            },
            "additionalProperties": False,
        },
        "variation": {
            "type": "object",
            "properties": {
                "epsilon": _positive,
                "modes": {"type": "integer", "minimum": 1, "maximum": functional.MAX_MODES},
            },
            "additionalProperties": False,
        },
    },
    "required": ["version"],
    "additionalProperties": False,
}

_JSON_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool,
               "integer": int, "number": (int, float)}


def _is(node, name: str) -> bool:
    """JSON type test: a bool is only a boolean, and an integer only a JSON integer (not 8.0)."""
    return isinstance(node, _JSON_TYPES[name]) and isinstance(node, bool) == (name == "boolean")


def _violation(schema: dict, node, where: tuple = ()) -> tuple[str, tuple] | None:
    """The first violation of ``schema`` in ``node``, in document order, as
    (message, path); None if there is none.  Every float must be finite, in
    unconstrained subtrees too: JSON parses NaN, Infinity and 1e400 as floats."""
    if isinstance(node, float) and not math.isfinite(node):
        return "number must be finite", where
    types = schema.get("type", [])
    types = [types] if isinstance(types, str) else types
    if types and not any(_is(node, t) for t in types):
        return f"{node!r} is not of type {', '.join(map(repr, types))}", where
    if "enum" in schema and not any(
            v == node and isinstance(v, bool) == isinstance(node, bool) for v in schema["enum"]):
        return f"{node!r} is not one of {schema['enum']!r}", where
    if _is(node, "number") and node < schema.get("minimum", -math.inf):
        return f"{node!r} is less than the minimum of {schema['minimum']!r}", where
    if _is(node, "number") and node > schema.get("maximum", math.inf):
        return f"{node!r} is greater than the maximum of {schema['maximum']!r}", where
    low = schema.get("exclusiveMinimum", -math.inf)
    if _is(node, "number") and node <= low:
        return f"{node!r} is less than or equal to the minimum of {low!r}", where
    if isinstance(node, dict):
        for key in schema.get("required", ()):
            if key not in node:
                return f"{key!r} is a required property", where
        props, extra = schema.get("properties", {}), schema.get("additionalProperties", {})
        pattern = schema.get("propertyNames", {}).get("pattern", "")
        for key, value in node.items():
            if not re.search(pattern, key):
                return f"{key!r} does not match {pattern!r}", where
            if extra is False and key not in props:
                return f"Additional properties are not allowed ({key!r} was unexpected)", where
            found = _violation(props.get(key, extra), value, (*where, key))
            if found is not None:
                return found
    if isinstance(node, list):
        if len(node) < schema.get("minItems", 0):
            return f"{node!r} is too short", where
        if len(node) > schema.get("maxItems", len(node)):
            return f"{node!r} is too long", where
        for i, value in enumerate(node):
            found = _violation(schema.get("items", {}), value, (*where, i))
            if found is not None:
                return found
    return None


def load_scenario(path: str) -> dict:
    """Parse and validate a scenario file; ScenarioError carries diagnostics."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario: {exc}", path) from exc
    try:
        data = json.loads(raw)
        error = _violation(SCENARIO_SCHEMA, data)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"invalid JSON: {exc.msg}", f"{path}:{exc.lineno}:{exc.colno}") from exc
    except (RecursionError, ValueError) as exc:  # nested past the stack; an int over 4300 digits
        raise ScenarioError(f"cannot load scenario: {exc}", path) from exc
    if error is not None:
        raise ScenarioError(error[0], f"{path}#{'/'.join(map(str, error[1])) or '<root>'}")
    if data["version"] != SCHEMA_VERSION:
        raise ScenarioError(
            f"unsupported scenario version {data['version']!r} (supported: {SCHEMA_VERSION})",
            f"{path}#version",
        )
    return data


@dataclass
class Row:
    """One computed quantity of a scenario run."""

    name: str
    value: float
    expected: float | None
    tolerance: float | None
    seconds: float

    @property
    def residual(self) -> float | None:
        if self.expected is None:
            return None
        return abs(self.value - self.expected)

    @property
    def status(self) -> str:
        if self.tolerance is None or self.residual is None:
            return "PASS"
        return "PASS" if self.residual <= self.tolerance else "FAIL"


def build_map(spec: dict, where: str) -> DifferentiableMap:
    try:
        return from_catalog(spec["catalog"], spec.get("params"))
    except GrassvarError as exc:
        raise ScenarioError(str(exc), where) from exc


def build_metric(spec: dict, where: str) -> FinslerFunction:
    kind = spec.get("kind")
    if kind not in METRIC_KINDS:
        raise ScenarioError(f"unknown metric kind {kind!r}", f"{where}/kind")
    args = {k: v for k, v in spec.items() if k != "kind"}
    try:
        return METRIC_KINDS[kind](**args)
    except (TypeError, GrassvarError) as exc:
        raise ScenarioError(f"bad metric parameters for {kind!r}: {exc}", where) from exc


CACHE_SIZE = 256  # interned blocks kept per process, as expressions.CACHE_SIZE
_INTERNED: OrderedDict = OrderedDict()  # (builder, canonical JSON of a block) -> its object


def _interned(build, spec, where: str):
    """``build(spec, where)``, one immutable object per process for equal blocks.

    The key is the builder and the block's canonical JSON, which keeps -0.0
    apart from 0.0, 1 from 1.0 and true from 1; the ``CACHE_SIZE`` most
    recently used are kept.  An error stores nothing, so it is raised on
    every run, and a block that is not JSON is built on every run.
    """
    try:
        key = (build, json.dumps(spec, sort_keys=True))
    except (TypeError, ValueError, RecursionError):
        return build(spec, where)
    if key in _INTERNED:
        _INTERNED.move_to_end(key)
        return _INTERNED[key]
    _INTERNED[key] = built = build(spec, where)
    if len(_INTERNED) > CACHE_SIZE:
        _INTERNED.popitem(last=False)
    return built


def build_quadrature(scenario: dict, overrides: dict | None = None) -> QuadratureSpec:
    spec = dict(scenario.get("quadrature", {}))
    spec.update({k: v for k, v in (overrides or {}).items() if v is not None})
    try:
        return QuadratureSpec(**spec)
    except ValueError as exc:
        raise ScenarioError(str(exc), "quadrature") from exc


def build_form(spec: dict) -> KForm:
    """Resolve a form block: the scenario's, or a check entry's own ``form``."""
    from .forms import KForm  # loaded only where a form is built

    error = _violation(_form, spec)  # run_scenario also takes dicts load_scenario never saw
    if error is not None:
        raise ScenarioError(error[0], "form")
    try:
        entries = {}
        for key, expr in spec["coefficients"].items():
            index = tuple(int(s) for s in key.split(",")) if key else ()
            spelled = ",".join(map(str, index))
            if key != spelled:  # "01,02", "1,2\n" and "١,٢" would all alias (1, 2)
                raise ValueError(f"coefficient key {key!r} is not spelled {spelled!r}")
            entries[index] = expr
        return KForm.from_dict(spec["degree"], spec["dim"], entries)
    except (GrassvarError, ValueError, OverflowError) as exc:  # overflow: an int past 1.8e308
        raise ScenarioError(f"bad form: {exc}", "form") from exc


@dataclass
class Run:
    """One scenario run: the scenario, the seed and the quadrature ``q``.
    Each input the rows read is built on its first use and then kept for the
    run, so a block no row reads is never built, and a missing or malformed
    one raises its ScenarioError in the first row that reads it, on every
    run.  The metric and the maps of the ``geometry``, ``reparam`` and
    ``alpha`` blocks are kept per process too, by :func:`_interned`; a form
    holds a mutable coefficient list and is built per run.  So are the two
    results the reparametrization rows share: ``moved``, the curve
    reparametrized by the ``reparam`` block, and ``direct``, the metric's
    value on the curve itself."""

    scenario: dict
    seed: int
    q: QuadratureSpec

    @cached_property
    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)

    def block(self, name: str) -> dict:
        """The scenario's ``name`` block; a missing one is an error at ``name``."""
        if self.scenario.get(name) is None:
            raise ScenarioError(f"scenario has no {name} block", name)
        return self.scenario[name]

    metric = cached_property(lambda self: _interned(build_metric, self.block("metric"), "metric"))
    curve = cached_property(lambda self: self._geometry("interval"))
    piece = cached_property(lambda self: self._geometry("box"))

    def _geometry(self, need: str) -> Piece:
        """The geometry's map over its ``need``: over the ``interval`` a 1-piece
        of orientation 1, over the ``box`` a piece with the block's orientation.
        A curve is oriented by its interval, so it takes no orientation key."""
        geo = self.block("geometry")
        mp, box, where = _interned(build_map, geo, "geometry"), geo.get(need), f"geometry/{need}"
        if box is None:
            raise ScenarioError(f"geometry block has no {need}", where)
        if need == "interval":
            if "orientation" in geo:
                raise ScenarioError(
                    "a curve runs along its interval; orientation applies to a box",
                    "geometry/orientation",
                )
            if mp.domain_dim != 1:
                raise ScenarioError(
                    f"catalog map {geo['catalog']!r} is not a curve", "geometry/catalog"
                )
            box = [box]
        elif mp.domain_dim != len(box):
            raise ScenarioError(
                f"box dimension {len(box)} does not match map domain {mp.domain_dim}", where
            )
        if any(a > b for a, b in box):
            raise ScenarioError(f"{need} {geo[need]} is reversed: an axis runs high to low", where)
        return Piece(box, mp, geo.get("orientation", 1))

    form = cached_property(lambda self: build_form(self.block("form")))
    reparam = cached_property(lambda self: _interned(build_map, self.block("reparam"), "reparam"))
    alpha = cached_property(lambda self: _interned(build_map, self.block("alpha"), "alpha"))
    direct = cached_property(lambda self: functional.areal_value(self.metric, self.curve, self.q))

    @cached_property
    def moved(self) -> Piece:
        from .checks import reparametrized  # read by check rows alone, so already loaded

        return reparametrized(self.curve, self.reparam)

    def form_or(self, override: dict | None) -> KForm:
        """A check entry's own form, or else the scenario's."""
        return self.form if override is None else build_form(override)


# ---------------------------------------------------------------------------
# row functions: fn(run, **params) -> the value of one row
# ---------------------------------------------------------------------------

def _length(run):
    return functional.curve_length(run.metric, run.curve, run.q)


def _area(run):
    return functional.areal_value(run.metric, run.piece, run.q)


def _extremality(run):
    """Max |first variation| of the length over the scenario's sine-bump fields."""
    from . import variation  # only this row varies a curve, so no other run loads it

    F, curve, var = run.metric, run.curve, run.scenario.get("variation", {})
    basis = variation.default_variation_basis(curve, var.get("modes", 4))
    return variation.extremal_residual(F, curve, basis, var.get("epsilon", 1e-4), run.q)


# subcommand -> (the scenario list it reads, its row functions by name,
#                the expected value of a row whose entry gives none); the
#                check rows are checks.CHECKS, imported by the check subcommand only
SUBCOMMANDS = {
    "length": ("compute", {"length": _length}, None),
    "area": ("compute", {"area": _area}, None),
    "variation": ("compute", {"extremal_residual": _extremality}, 0.0),
    "check": ("checks", None, 0.0),
}


# ---------------------------------------------------------------------------
# subcommand execution
# ---------------------------------------------------------------------------

@dataclass
class RunResult:
    rows: list[Row] = field(default_factory=list)
    samples: list[tuple[float, ...]] = field(default_factory=list)  # integrand dumps


# subcommand -> (the run's piece, samples per axis) of the --dump-integrand grid
DUMP_GRIDS = {"length": ("curve", 257), "area": ("piece", 17)}


def _dump_lift(run: Run, geometry: str, per_axis: int) -> list[tuple[float, ...]]:
    """Samples (t..., L on the canonical lift at t) on an even grid of the piece."""
    piece = getattr(run, geometry)
    T = piece.grid(per_axis)
    lift = canonical_lift(piece.map, T)
    values = run.metric(lift.base, lift.comps)
    return [(*t, value) for t, value in zip(T, values)]


_signature = lru_cache(maxsize=None)(inspect.signature)  # of the fixed row functions


def run_scenario(
    subcommand: str,
    scenario: dict,
    seed: int,
    q_overrides: dict | None = None,
    dump: bool = False,
) -> RunResult:
    """One row per entry of the subcommand's list: its row function's value
    against the entry's expected value and tolerance."""
    key, quantities, default_expected = SUBCOMMANDS[subcommand]
    if quantities is None:
        from .checks import CHECKS as quantities
    if seed < 0:
        raise ScenarioError(f"seed must be a non-negative integer, got {seed}", "seed")
    run = Run(scenario, seed, build_quadrature(scenario, q_overrides))
    default_name = next(iter(quantities))
    entries = scenario.get(key)
    if key == "checks" and not entries:
        raise ScenarioError("check subcommand needs a checks list", "checks")
    entries = entries or [{"name": default_name}]
    calls = []
    for i, entry in enumerate(entries):
        name = entry["name"]
        if name not in quantities:
            raise ScenarioError(
                f"unknown check {name!r}" if key == "checks"
                else f"unsupported quantity {name!r} here (expected {default_name!r})",
                key,
            )
        params = {k: v for k, v in entry.items() if k not in ("name", "expected", "tolerance")}
        try:  # a parameter the row function does not take is an error, not ignored
            calls.append(_signature(quantities[name]).bind(run, **params))
        except TypeError as exc:
            raise ScenarioError(f"{name!r} {exc}", f"{key}/{i}") from exc
    result = RunResult()
    for entry, call in zip(entries, calls):
        t0 = time.perf_counter()
        value = quantities[entry["name"]](*call.args, **call.kwargs)
        seconds = time.perf_counter() - t0
        expected = entry.get("expected", default_expected)
        result.rows.append(Row(entry["name"], value, expected, entry.get("tolerance"), seconds))
    if dump and subcommand in DUMP_GRIDS:
        result.samples = _dump_lift(run, *DUMP_GRIDS[subcommand])
    return result
