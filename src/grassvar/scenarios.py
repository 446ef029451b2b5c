"""Scenario files: schema, loading, and the named check registry.

A scenario is a JSON document (``"version": "1"``) declaring a metric, a
geometry from the map catalog, quadrature settings, and either quantities
to compute (length/area/variation subcommands) or a list of named checks.
The CLI front end in :mod:`grassvar.cli` turns the rows produced here into
a text report and a CSV file.
"""
from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

import jsonschema
import numpy as np

from . import finsler, functional, grassmann
from .errors import GrassvarError, ScenarioError
from .finsler import FinslerFunction, METRIC_KINDS
from .forms import (
    KForm,
    ParametricFormFamily,
    PartitionOfUnity,
    Piece,
    PROFILE_FAMILIES,
    QuadratureSpec,
    integrate_with_partition,
    verify_domain_transform,
    verify_leibniz,
    verify_stokes,
)
from .kvector import KVector, canonical_lift, lift_kvector
from .maps import DifferentiableMap, affine_map, compose, from_catalog

SCHEMA_VERSION = "1"

_number = {"type": "number"}
_catalog_ref = {
    "type": "object",
    "properties": {"catalog": {"type": "string"}, "params": {"type": "object"}},
    "required": ["catalog"],
    "additionalProperties": False,
}

SCENARIO_SCHEMA = {
    "type": "object",
    "properties": {
        "version": {"type": "string"},
        "seed": {"type": "integer", "minimum": 0},
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
                "gauss_order": {"type": "integer", "minimum": 1},
                "cells_per_axis": {"type": "integer", "minimum": 1},
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
                    "tolerance": _number,
                },
                "required": ["name"],
                "additionalProperties": False,
            },
        },
        "checks": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {"name": {"type": "string"}, "tolerance": _number},
                "required": ["name", "tolerance"],
                "additionalProperties": True,
            },
        },
        "form": {
            "type": "object",
            "properties": {
                "degree": {"type": "integer", "minimum": 0},
                "dim": {"type": "integer", "minimum": 1},
                "coefficients": {"type": "object"},
            },
            "required": ["degree", "dim", "coefficients"],
            "additionalProperties": False,
        },
        "alpha": _catalog_ref,
        "reparam": _catalog_ref,
        "family": {
            "type": "object",
            "properties": {
                "profile": {"enum": sorted(PROFILE_FAMILIES)},
                "t0": _number,
                "dt_step": _number,
            },
            "required": ["profile", "t0"],
            "additionalProperties": False,
        },
        "partition": {
            "type": "object",
            "properties": {
                "covers": {"type": "array", "items": {"type": "integer", "minimum": 1}},
                "overlap": _number,
            },
            "additionalProperties": False,
        },
        "variation": {
            "type": "object",
            "properties": {"epsilon": _number, "modes": {"type": "integer", "minimum": 1}},
            "additionalProperties": False,
        },
        "output": {
            "type": "object",
            "properties": {"csv": {"type": "string"}, "report": {"type": "string"}},
            "additionalProperties": False,
        },
    },
    "required": ["version"],
    "additionalProperties": False,
}

# Built once: jsonschema.validate would re-check the schema on every call.
_VALIDATOR_CLASS = jsonschema.validators.validator_for(SCENARIO_SCHEMA)
_SCENARIO_VALIDATOR = _VALIDATOR_CLASS(SCENARIO_SCHEMA)
_FORM_VALIDATOR = _VALIDATOR_CLASS(SCENARIO_SCHEMA["properties"]["form"])


def load_scenario(path: str) -> dict:
    """Parse and validate a scenario file; ScenarioError carries diagnostics."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario: {exc}", path) from exc
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"invalid JSON: {exc.msg}", f"{path}:{exc.lineno}:{exc.colno}"
        ) from exc
    error = jsonschema.exceptions.best_match(_SCENARIO_VALIDATOR.iter_errors(data))
    if error is not None:
        where = "/".join(str(p) for p in error.absolute_path) or "<root>"
        raise ScenarioError(error.message, f"{path}#{where}")
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


def build_metric(spec: dict) -> FinslerFunction:
    kind = spec.get("kind")
    if kind not in METRIC_KINDS:
        raise ScenarioError(f"unknown metric kind {kind!r}", "metric/kind")
    args = {k: v for k, v in spec.items() if k != "kind"}
    try:
        return METRIC_KINDS[kind](**args)
    except (TypeError, GrassvarError) as exc:
        raise ScenarioError(f"bad metric parameters for {kind!r}: {exc}", "metric") from exc


def build_map(spec: dict, where: str) -> DifferentiableMap:
    try:
        return from_catalog(spec["catalog"], spec.get("params"))
    except GrassvarError as exc:
        raise ScenarioError(str(exc), where) from exc


def build_geometry(scenario: dict, need: str) -> tuple[DifferentiableMap, tuple]:
    """Resolve the geometry block; ``need`` is 'interval' or 'box'."""
    geo = scenario.get("geometry")
    if geo is None:
        raise ScenarioError("scenario has no geometry block", "geometry")
    mp = build_map(geo, "geometry")
    if need == "interval":
        iv = geo.get("interval")
        if iv is None:
            raise ScenarioError("geometry needs an interval", "geometry/interval")
        if mp.domain_dim != 1:
            raise ScenarioError(
                f"catalog map {geo['catalog']!r} is not a curve", "geometry/catalog"
            )
        return mp, ((float(iv[0]), float(iv[1])),)
    box = geo.get("box")
    if box is None:
        raise ScenarioError("geometry needs a box", "geometry/box")
    box = tuple((float(a), float(b)) for a, b in box)
    if mp.domain_dim != len(box):
        raise ScenarioError(
            f"box dimension {len(box)} does not match map domain {mp.domain_dim}",
            "geometry/box",
        )
    return mp, box


def build_piece(scenario: dict) -> Piece:
    mp, box = build_geometry(scenario, "box")
    orientation = scenario.get("geometry", {}).get("orientation", 1)
    return Piece(box, mp, orientation)


def build_quadrature(scenario: dict, overrides: dict | None = None) -> QuadratureSpec:
    spec = dict(scenario.get("quadrature", {}))
    spec.update({k: v for k, v in (overrides or {}).items() if v is not None})
    return QuadratureSpec(**spec)


def build_form(scenario: dict, params: dict | None = None) -> KForm:
    """Resolve a form block; a check entry may carry its own ``form`` override."""
    spec = (params or {}).get("form") or scenario.get("form")
    if spec is None:
        raise ScenarioError("scenario has no form block", "form")
    error = jsonschema.exceptions.best_match(_FORM_VALIDATOR.iter_errors(spec))
    if error is not None:
        raise ScenarioError(error.message, "form")
    entries = {}
    for key, expr in spec["coefficients"].items():
        idx = tuple(int(s) for s in key.split(",")) if key else ()
        entries[idx] = expr
    try:
        return KForm.from_dict(spec["degree"], spec["dim"], entries)
    except (GrassvarError, ValueError) as exc:
        raise ScenarioError(f"bad form: {exc}", "form") from exc


def _interval(scenario: dict):
    iv = scenario.get("geometry", {}).get("interval")
    if iv is None:
        raise ScenarioError("this check needs geometry.interval", "geometry/interval")
    return float(iv[0]), float(iv[1])


# ---------------------------------------------------------------------------
# named checks: each returns the residual value to compare with the tolerance
# ---------------------------------------------------------------------------

def _check_homogeneity(scenario, rng, params):
    F = build_metric(scenario["metric"])
    return finsler.check_homogeneity(
        F, rng, params.get("samples", 100), tuple(params.get("lambdas", (0.5, 2.0, 10.0)))
    )


def _check_projectability(scenario, rng, params):
    F = build_metric(scenario["metric"])
    return finsler.check_projectability(
        F, rng, params.get("samples", 100), tuple(params.get("lambdas", (0.5, 2.0, 10.0)))
    )


def _check_euler_identity(scenario, rng, params):
    F = build_metric(scenario["metric"])
    curve, ((a, b),) = build_geometry(scenario, "interval")
    ts = rng.uniform(a, b, size=params.get("samples", 25))
    return finsler.pullback_identity_residual(F, curve, ts)


def _check_dual_route(scenario, rng, params):
    F = build_metric(scenario["metric"])
    curve, ((a, b),) = build_geometry(scenario, "interval")
    q = build_quadrature(scenario)
    direct = functional.curve_length(F, curve, (a, b), q, cross_check=False)
    via = functional.hilbert_route_length(F, curve, (a, b), q)
    return abs(direct - via)


def _check_reparam_invariance(scenario, rng, params):
    F = build_metric(scenario["metric"])
    curve, ((a, b),) = build_geometry(scenario, "interval")
    rho_spec = scenario.get("reparam")
    if rho_spec is None:
        raise ScenarioError("reparam_invariance needs a reparam block", "reparam")
    rho = build_map(rho_spec, "reparam")
    return functional.reparam_invariance_residual(
        F, curve, (a, b), rho, build_quadrature(scenario)
    )


def _check_extremality(scenario, rng, params):
    F = build_metric(scenario["metric"])
    curve, ((a, b),) = build_geometry(scenario, "interval")
    var = scenario.get("variation", {})
    fields = functional.default_variation_basis(
        (a, b), curve.codomain_dim, var.get("modes", 4)
    )
    return functional.extremal_residual(
        F, curve, (a, b), fields, var.get("epsilon", 1e-4), build_quadrature(scenario)
    )


def _check_stokes(scenario, rng, params):
    eta = build_form(scenario, params)
    piece = build_piece(scenario)
    return verify_stokes(eta, piece, build_quadrature(scenario))


def _check_domain_transform(scenario, rng, params):
    eta = build_form(scenario, params)
    piece = build_piece(scenario)
    alpha_spec = scenario.get("alpha")
    if alpha_spec is None:
        raise ScenarioError("domain_transform needs an alpha block", "alpha")
    alpha = build_map(alpha_spec, "alpha")
    return verify_domain_transform(eta, alpha, piece, build_quadrature(scenario))


def _check_leibniz(scenario, rng, params):
    eta = build_form(scenario, params)
    piece = build_piece(scenario)
    fam_spec = scenario.get("family")
    if fam_spec is None:
        raise ScenarioError("leibniz needs a family block", "family")
    profile, profile_dot = PROFILE_FAMILIES[fam_spec["profile"]]
    family = ParametricFormFamily(eta, profile, profile_dot)
    return verify_leibniz(
        family,
        piece,
        fam_spec["t0"],
        fam_spec.get("dt_step", 1e-4),
        build_quadrature(scenario),
    )


def _check_partition_independence(scenario, rng, params):
    eta = build_form(scenario, params)
    piece = build_piece(scenario)
    q = build_quadrature(scenario)
    part = scenario.get("partition", {})
    covers = part.get("covers", [2, 3])
    overlap = part.get("overlap", 0.6)
    values = [
        integrate_with_partition(
            eta, piece, PartitionOfUnity.uniform_cover(piece.param_box, n, overlap), q
        )
        for n in covers
    ]
    return max(abs(v - values[0]) for v in values[1:])


def _check_grassmann_roundtrip(scenario, rng, params):
    k = params.get("k", 2)
    m = params.get("m", 4)
    count = params.get("count", 200)
    from .multiindex import enumerate_multiindices, rank

    worst = 0.0
    done = 0
    while done < count:
        comps = rng.standard_normal(math.comb(m, k))
        xi = KVector(rng.standard_normal(m), comps, k, m)
        p = grassmann.to_grassmann(xi)
        others = [mi for mi in enumerate_multiindices(k, m) if mi != p.pivot]
        nu2 = others[int(rng.integers(0, len(others)))]
        if abs(p.representative().comps[rank(nu2)]) < 1e-3:
            continue
        back = grassmann.grassmann_transition(grassmann.grassmann_transition(p, nu2), p.pivot)
        worst = max(worst, float(np.max(np.abs(back.w - p.w))))
        done += 1
    return worst


def _check_lift_functoriality(scenario, rng, params):
    count = params.get("count", 50)
    worst = 0.0
    for _ in range(count):
        n1, n2, n3 = (int(rng.integers(2, 5)) for _ in range(3))
        k = int(rng.integers(1, min(n1, n2, n3) + 1))
        f = affine_map(rng.standard_normal((n2, n1)), rng.standard_normal(n2))
        g = affine_map(rng.standard_normal((n3, n2)), rng.standard_normal(n3))
        x = rng.standard_normal(n1)
        xi = KVector(x, rng.standard_normal(math.comb(n1, k)), k, n1)
        direct = lift_kvector(compose(g, f), x, xi)
        staged = lift_kvector(g, f(x), lift_kvector(f, x, xi))
        scale = max(1.0, direct.norm)
        worst = max(worst, float(np.max(np.abs(direct.comps - staged.comps))) / scale)
    return worst


CHECKS = {
    "homogeneity": _check_homogeneity,
    "projectability": _check_projectability,
    "euler_identity": _check_euler_identity,
    "dual_route": _check_dual_route,
    "reparam_invariance": _check_reparam_invariance,
    "extremality": _check_extremality,
    "stokes": _check_stokes,
    "domain_transform": _check_domain_transform,
    "leibniz": _check_leibniz,
    "partition_independence": _check_partition_independence,
    "grassmann_roundtrip": _check_grassmann_roundtrip,
    "lift_functoriality": _check_lift_functoriality,
}


# ---------------------------------------------------------------------------
# subcommand execution
# ---------------------------------------------------------------------------

@dataclass
class RunResult:
    rows: list[Row] = field(default_factory=list)
    samples: list[tuple[float, ...]] = field(default_factory=list)  # integrand dumps


def _timed(fn) -> tuple[float, float]:
    t0 = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - t0


def _compute_entries(scenario: dict, default_name: str) -> list[dict]:
    entries = scenario.get("compute") or [{"name": default_name}]
    for e in entries:
        if e["name"] != default_name:
            raise ScenarioError(
                f"unsupported quantity {e['name']!r} here (expected {default_name!r})",
                "compute",
            )
    return entries


def run_length(scenario: dict, rng, q: QuadratureSpec, result: RunResult, dump: bool):
    F = build_metric(scenario["metric"])
    curve, ((a, b),) = build_geometry(scenario, "interval")
    for entry in _compute_entries(scenario, "length"):
        value, secs = _timed(lambda: functional.curve_length(F, curve, (a, b), q))
        result.rows.append(
            Row("length", value, entry.get("expected"), entry.get("tolerance"), secs)
        )
    if dump:
        _dump_lift(F, Piece(((a, b),), curve), 257, result)


def run_area(scenario: dict, rng, q: QuadratureSpec, result: RunResult, dump: bool):
    L = build_metric(scenario["metric"])
    piece = build_piece(scenario)
    for entry in _compute_entries(scenario, "area"):
        value, secs = _timed(lambda: functional.areal_value(L, piece, q))
        result.rows.append(
            Row("area", value, entry.get("expected"), entry.get("tolerance"), secs)
        )
    if dump:
        _dump_lift(L, piece, 17, result)


def _dump_lift(L: FinslerFunction, piece: Piece, per_axis: int, result: RunResult) -> None:
    """Samples (t..., L on the canonical lift at t) on an even grid of the piece."""
    T = piece.grid(per_axis)
    lift = canonical_lift(piece.map, T)
    result.samples.extend((*t, value) for t, value in zip(T, L(lift.base, lift.comps)))


def run_checks(scenario: dict, rng, q: QuadratureSpec, result: RunResult, dump: bool):
    checks = scenario.get("checks")
    if not checks:
        raise ScenarioError("check subcommand needs a checks list", "checks")
    for entry in checks:
        name = entry["name"]
        if name not in CHECKS:
            raise ScenarioError(f"unknown check {name!r}", "checks")
        params = {k: v for k, v in entry.items() if k not in ("name", "tolerance")}
        value, secs = _timed(lambda: CHECKS[name](scenario, rng, params))
        result.rows.append(Row(name, value, 0.0, entry["tolerance"], secs))


def run_variation(scenario: dict, rng, q: QuadratureSpec, result: RunResult, dump: bool):
    F = build_metric(scenario["metric"])
    curve, ((a, b),) = build_geometry(scenario, "interval")
    var = scenario.get("variation", {})
    fields = functional.default_variation_basis((a, b), curve.codomain_dim, var.get("modes", 4))
    eps = var.get("epsilon", 1e-4)
    for entry in _compute_entries(scenario, "extremal_residual"):
        value, secs = _timed(
            lambda: functional.extremal_residual(F, curve, (a, b), fields, eps, q)
        )
        result.rows.append(
            Row(
                "extremal_residual",
                value,
                entry.get("expected", 0.0),
                entry.get("tolerance"),
                secs,
            )
        )


SUBCOMMANDS = {
    "length": run_length,
    "area": run_area,
    "check": run_checks,
    "variation": run_variation,
}


def run_scenario(
    subcommand: str,
    scenario: dict,
    seed: int,
    q_overrides: dict | None = None,
    dump: bool = False,
) -> RunResult:
    rng = np.random.default_rng(seed)
    q = build_quadrature(scenario, q_overrides)
    result = RunResult()
    SUBCOMMANDS[subcommand](scenario, rng, q, result, dump)
    return result
