"""Seeded scenario generators for the three benchmark workloads.

Each generator writes scenario JSON files that validate against
``grassvar.scenarios.SCENARIO_SCHEMA`` and returns the list of operations
(scenario file plus subcommand) that make up one pass of the workload.
The seed only moves continuous parameters inside ranges that keep the
control flow fixed: every seed gives the same node counts, the same
number of adaptive refinement levels and the same checks, so the work per
pass does not depend on the seed.  The expected results are not stored
here; :mod:`oracles` recomputes them from the scenario files themselves.
"""
from __future__ import annotations

import json
import math
import os

import numpy as np

TWO_PI = 2.0 * math.pi

# Shipped scenarios that each workload runs as-is, with their subcommand.
SHIPPED = {
    "areal": [("area_sphere_zone.json", "area")],
    "forms": [
        ("check_forms_square.json", "check"),
        ("check_partition_circle.json", "check"),
    ],
    "curves": [
        ("length_circle.json", "length"),
        ("length_randers_segment.json", "length"),
        ("variation_line.json", "variation"),
        ("check_suite_randers.json", "check"),
        ("check_homogeneity_energy.json", "check"),
    ],
}

# Files launched through the CLI for ``cli_s``: a fixed subset, by name.
CLI_SUBSET = {
    "areal": ["gen_sphere_zone.json", "gen_torus_patch.json"],
    "forms": ["check_partition_circle.json", "gen_stokes_square.json"],
    "curves": ["length_circle.json", "check_suite_randers.json"],
}


def _u(rng, lo, hi) -> float:
    return float(rng.uniform(lo, hi))


def _spd(rng, n: int, spread: float = 0.3) -> list:
    """A symmetric positive definite matrix near the identity."""
    a = rng.uniform(-spread, spread, size=(n, n))
    g = np.eye(n) + 0.5 * (a + a.T)
    g += (abs(min(np.linalg.eigvalsh(g).min(), 0.0)) + 0.5) * np.eye(n)
    return g.tolist()


def _small_covector(rng, g: list, norm: float) -> list:
    """A covector b with |b|_g equal to ``norm`` (< 1 keeps Randers positive)."""
    g = np.asarray(g)
    b = rng.standard_normal(len(g))
    return (b * norm / math.sqrt(float(b @ np.linalg.solve(g, b)))).tolist()


def _poly_terms(rng, n_terms: int, max_deg: int, scale: float) -> list:
    """Random terms ``[coeff, [eu, ev]]`` of a polynomial in (u, v)."""
    exps = [(i, j) for i in range(max_deg + 1) for j in range(max_deg + 1 - i) if i + j >= 1]
    picks = rng.choice(len(exps), size=n_terms, replace=False)
    return [[_u(rng, -scale, scale), list(exps[p])] for p in sorted(picks)]


def _fourier(rng, dim: int, radius: float, harmonics: int, amp: float) -> dict:
    """A closed Fourier curve: a circle of ``radius`` in the first two axes
    plus small higher harmonics, so |zeta'| >= radius - sum j |coef| > 0."""
    A = np.zeros((dim, harmonics))
    B = np.zeros((dim, harmonics))
    A[0, 0], B[1, 0] = radius, radius
    for j in range(1, harmonics):
        A[:, j] = rng.uniform(-amp, amp, size=dim) / (j + 1)
        B[:, j] = rng.uniform(-amp, amp, size=dim) / (j + 1)
    if dim > 2:
        B[2:, 0] = rng.uniform(-amp, amp, size=dim - 2)
    return {
        "constant": rng.uniform(-1.0, 1.0, size=dim).tolist(),
        "cos_coeffs": A.tolist(),
        "sin_coeffs": B.tolist(),
    }


def _curve_scenario(metric, catalog, params, interval, quad=None, **extra) -> dict:
    sc = {
        "version": "1",
        "metric": metric,
        "geometry": {"catalog": catalog, "params": params, "interval": list(interval)},
        "quadrature": quad or {"gauss_order": 8, "cells_per_axis": 16},
    }
    sc.update(extra)
    return sc


def _box_scenario(catalog, params, box, quad, **extra) -> dict:
    sc = {
        "version": "1",
        "geometry": {"catalog": catalog, "params": params, "box": [list(iv) for iv in box]},
        "quadrature": quad,
    }
    sc.update(extra)
    return sc


# ---------------------------------------------------------------------------
# areal: k-area of 2-pieces, 4096 nodes per generated input
# ---------------------------------------------------------------------------

def areal(rng) -> dict:
    quad = {"gauss_order": 8, "cells_per_axis": 8}
    gram = lambda m: {"kind": "areal_gram", "k": 2, "m": m}
    out = {}
    th0, th1 = _u(rng, 0.2, 0.6), _u(rng, 2.5, 2.9)
    out["gen_sphere_zone.json"] = _box_scenario(
        "sphere_patch", {"radius": _u(rng, 0.5, 2.0)},
        [(th0, th1), (0.0, _u(rng, math.pi, TWO_PI))], quad, metric=gram(3),
        compute=[{"name": "area"}],
    )
    R, r = _u(rng, 2.0, 3.0), _u(rng, 0.5, 1.0)
    out["gen_torus_patch.json"] = _box_scenario(
        "torus_patch", {"major_radius": R, "minor_radius": r},
        [(0.0, _u(rng, math.pi, TWO_PI)), (_u(rng, -1.0, 0.0), _u(rng, 1.5, 3.0))],
        quad, metric=gram(3), compute=[{"name": "area"}],
    )
    out["gen_graph_surface.json"] = _box_scenario(
        "graph_surface", {"terms": _poly_terms(rng, 4, 3, 0.6)},
        [(_u(rng, -1.0, -0.5), _u(rng, 0.5, 1.0)), (_u(rng, -1.0, -0.5), _u(rng, 0.5, 1.0))],
        quad, metric=gram(3), compute=[{"name": "area"}],
    )
    for m in (4, 5):
        # (u, v, p_3, ..., p_m): an immersion for any polynomial tail
        terms = [[[1.0, [1, 0]]], [[1.0, [0, 1]]]]
        terms += [_poly_terms(rng, 2, 2, 0.8) for _ in range(m - 2)]
        out[f"gen_poly_r{m}.json"] = _box_scenario(
            "polynomial", {"domain_dim": 2, "terms": terms},
            [(_u(rng, -1.0, 0.0), _u(rng, 0.5, 1.5)), (_u(rng, -1.0, 0.0), _u(rng, 0.5, 1.5))],
            quad, metric=gram(m), compute=[{"name": "area"}],
        )
    return {name: (sc, "area") for name, sc in out.items()}


# ---------------------------------------------------------------------------
# forms: integral identities with expression-string coefficients
# ---------------------------------------------------------------------------

def _expr_poly(rng, n_terms: int, trig: bool) -> str:
    """A random expression string in y1, y2 (sympy syntax)."""
    monos = ["y1", "y2", "y1*y2", "y1**2", "y2**2", "y1**2*y2", "y1*y2**2", "y1**3", "y2**3"]
    picks = rng.choice(len(monos), size=n_terms, replace=False)
    parts = [f"{_u(rng, -1.5, 1.5):.6f}*{monos[p]}" for p in sorted(picks)]
    if trig:
        parts.append(f"{_u(rng, -1.0, 1.0):.6f}*cos({_u(rng, 0.5, 1.5):.6f}*y2)")
        parts.append(f"{_u(rng, -1.0, 1.0):.6f}*sin({_u(rng, 0.5, 1.5):.6f}*y1)")
    return " + ".join(parts).replace("+ -", "- ")


def _square(rng) -> list:
    x0, y0 = _u(rng, -1.0, 0.0), _u(rng, -1.0, 0.0)
    return [(x0, x0 + _u(rng, 0.8, 1.5)), (y0, y0 + _u(rng, 0.8, 1.5))]


def _circle_params(rng) -> dict:
    return {
        "radius": _u(rng, 0.5, 1.5),
        "center": [_u(rng, -0.5, 0.5), _u(rng, -0.5, 0.5)],
        "phase": _u(rng, 0.0, TWO_PI),
    }


def forms(rng) -> dict:
    quad = {"gauss_order": 8, "cells_per_axis": 4}
    ident = {"dim": 2}
    two_form = lambda: {"degree": 2, "dim": 2, "coefficients": {"1,2": _expr_poly(rng, 3, True)}}
    out = {}
    out["gen_stokes_square.json"] = _box_scenario(
        "identity", ident, _square(rng), quad,
        form={"degree": 1, "dim": 2, "coefficients": {
            "1": _expr_poly(rng, 3, False), "2": _expr_poly(rng, 2, True)}},
        checks=[{"name": "stokes", "tolerance": 1e-9}],
    )
    out["gen_transform_shear.json"] = _box_scenario(
        "identity", ident, _square(rng), quad, form=two_form(),
        alpha={"catalog": "trig_shear", "params": {"amplitude": _u(rng, 0.1, 0.5)}},
        checks=[{"name": "domain_transform", "tolerance": 1e-8}],
    )
    out["gen_transform_scale.json"] = _box_scenario(
        "identity", ident, _square(rng), quad, form=two_form(),
        alpha={"catalog": "positive_scale",
               "params": {"factors": [_u(rng, 0.5, 2.0), _u(rng, 0.5, 2.0)]}},
        checks=[{"name": "domain_transform", "tolerance": 1e-8}],
    )
    out["gen_leibniz_square.json"] = _box_scenario(
        "identity", ident, _square(rng), quad, form=two_form(),
        family={"profile": "sin", "t0": _u(rng, -1.0, 1.0), "dt_step": 1e-4},
        checks=[{"name": "leibniz", "tolerance": 1e-7}],
    )
    t0 = _u(rng, 0.0, 1.0)
    out["gen_stokes_arc.json"] = _box_scenario(
        "circle", _circle_params(rng), [(t0, t0 + _u(rng, 2.0, 5.0))],
        {"gauss_order": 8, "cells_per_axis": 16},
        form={"degree": 0, "dim": 2, "coefficients": {"": _expr_poly(rng, 3, True)}},
        checks=[{"name": "stokes", "tolerance": 1e-9}],
    )
    for i in (1, 2):
        out[f"gen_partition_circle{i}.json"] = _box_scenario(
            "circle", _circle_params(rng), [(0.0, TWO_PI)],
            {"gauss_order": 8, "cells_per_axis": 32},
            form={"degree": 1, "dim": 2, "coefficients": {
                "1": _expr_poly(rng, 2, False), "2": _expr_poly(rng, 2, False)}},
            partition={"covers": [2, 3], "overlap": _u(rng, 0.5, 0.7)},
            checks=[{"name": "partition_independence", "tolerance": 1e-8}],
        )
    return {name: (sc, "check") for name, sc in out.items()}


# ---------------------------------------------------------------------------
# curves: many small 1-D integrals, probes and cross-checks
# ---------------------------------------------------------------------------

def curves(rng) -> dict:
    out = {}
    euc2, euc3 = {"kind": "euclidean", "dim": 2}, {"kind": "euclidean", "dim": 3}
    # enough base cells that one refinement meets the target for every seed
    adaptive = {"gauss_order": 8, "cells_per_axis": 8, "adaptive": True, "target": 1e-9}

    def helix():
        return {"radius": _u(rng, 0.5, 1.5), "pitch": _u(rng, 0.2, 1.0)}

    def segment(dim):
        return {"start": rng.uniform(-1, 1, dim).tolist(), "end": rng.uniform(1, 2, dim).tolist()}

    length = lambda: [{"name": "length"}]
    out["gen_len_circle.json"] = (_curve_scenario(
        euc2, "circle", _circle_params(rng), (0.0, _u(rng, math.pi, TWO_PI)),
        compute=length()), "length")
    out["gen_len_helix.json"] = (_curve_scenario(
        euc3, "helix", helix(), (0.0, _u(rng, math.pi, 3 * math.pi)), compute=length()), "length")
    s, c = _u(rng, 0.5, 2.0), _u(rng, 0.1, 1.0)
    out["gen_len_conformal_circle.json"] = (_curve_scenario(
        {"kind": "riemannian", "dim": 2,
         "g": {"field": "conformal", "matrix": (s * np.eye(2)).tolist(), "coefficient": c}},
        "circle", {"radius": _u(rng, 0.5, 1.5), "center": [0.0, 0.0], "phase": _u(rng, 0, 1)},
        (0.0, TWO_PI), compute=length()), "length")
    out["gen_len_riemannian_segment.json"] = (_curve_scenario(
        {"kind": "riemannian", "dim": 3, "g": {"field": "constant", "matrix": _spd(rng, 3)}},
        "segment", segment(3), (0.0, 1.0), compute=length()), "length")
    out["gen_len_randers_helix.json"] = (_curve_scenario(
        {"kind": "randers", "dim": 3, "b": _small_covector(rng, np.eye(3).tolist(), 0.4)},
        "helix", helix(), (0.0, _u(rng, math.pi, 3 * math.pi)), compute=length()), "length")
    g3 = _spd(rng, 3)
    out["gen_len_randers_segment.json"] = (_curve_scenario(
        {"kind": "randers", "dim": 3, "b": _small_covector(rng, g3, 0.5),
         "g": {"field": "constant", "matrix": g3}},
        "segment", segment(3), (0.0, 1.0), compute=length()), "length")
    out["gen_len_mth_root_segment.json"] = (_curve_scenario(
        {"kind": "mth_root", "weights": rng.uniform(0.5, 2.0, 3).tolist()},
        "segment", segment(3), (0.0, 1.0), compute=length()), "length")
    out["gen_len_mth_root_circle.json"] = (_curve_scenario(
        {"kind": "mth_root", "weights": rng.uniform(0.5, 2.0, 2).tolist()},
        "circle", _circle_params(rng), (0.0, TWO_PI), compute=length()), "length")
    out["gen_len_fourier.json"] = (_curve_scenario(
        euc3, "fourier_curve", _fourier(rng, 3, _u(rng, 1.0, 2.0), 3, 0.3), (0.0, TWO_PI),
        compute=length()), "length")
    out["gen_len_fourier_adaptive.json"] = (_curve_scenario(
        euc2, "fourier_curve", _fourier(rng, 2, _u(rng, 1.5, 2.0), 3, 0.15), (0.0, TWO_PI),
        adaptive, compute=length()), "length")
    out["gen_len_conformal_adaptive.json"] = (_curve_scenario(
        {"kind": "riemannian", "dim": 2,
         "g": {"field": "conformal", "matrix": np.eye(2).tolist(),
               "coefficient": _u(rng, 0.1, 0.5)}},
        "circle", _circle_params(rng), (0.0, TWO_PI), adaptive, compute=length()), "length")
    out["gen_len_randers_fourier_adaptive.json"] = (_curve_scenario(
        {"kind": "randers", "dim": 2, "b": _small_covector(rng, np.eye(2).tolist(), 0.4)},
        "fourier_curve", _fourier(rng, 2, _u(rng, 1.5, 2.0), 2, 0.15),
        (0.0, _u(rng, math.pi, TWO_PI)), adaptive, compute=length()), "length")

    var = {"epsilon": 1e-4, "modes": 4}
    residual = lambda: [{"name": "extremal_residual", "tolerance": 1e-6}]
    out["gen_variation_circle.json"] = (_curve_scenario(
        euc2, "circle", _circle_params(rng), (0.0, _u(rng, 2.0, 4.0)),
        {"gauss_order": 8, "cells_per_axis": 8}, variation=var,
        compute=[{"name": "extremal_residual"}]), "variation")
    out["gen_variation_fourier.json"] = (_curve_scenario(
        euc2, "fourier_curve", _fourier(rng, 2, _u(rng, 1.0, 2.0), 2, 0.3), (0.0, TWO_PI),
        {"gauss_order": 8, "cells_per_axis": 8}, variation=var,
        compute=[{"name": "extremal_residual"}]), "variation")
    g2 = _spd(rng, 2)
    out["gen_variation_randers_line.json"] = (_curve_scenario(
        {"kind": "randers", "dim": 2, "b": _small_covector(rng, g2, 0.5),
         "g": {"field": "constant", "matrix": g2}},
        "segment", segment(2), (0.0, 1.0), {"gauss_order": 8, "cells_per_axis": 8},
        variation=var, compute=residual()), "variation")

    metric_checks = [
        {"name": "homogeneity", "tolerance": 1e-11, "samples": 50},
        {"name": "projectability", "tolerance": 1e-11, "samples": 50},
        {"name": "euler_identity", "tolerance": 1e-11, "samples": 25},
        {"name": "dual_route", "tolerance": 1e-10},
        {"name": "reparam_invariance", "tolerance": 1e-8},
    ]
    out["gen_check_randers_helix.json"] = (_curve_scenario(
        {"kind": "randers", "dim": 3, "b": _small_covector(rng, np.eye(3).tolist(), 0.4)},
        "helix", helix(), (0.0, TWO_PI),
        reparam={"catalog": "sine_shift", "params": {"amplitude": _u(rng, 0.1, 0.5)}},
        checks=metric_checks), "check")
    out["gen_check_mth_root_fourier.json"] = (_curve_scenario(
        {"kind": "mth_root", "weights": rng.uniform(0.5, 2.0, 2).tolist()},
        "fourier_curve", _fourier(rng, 2, _u(rng, 1.0, 2.0), 2, 0.3), (0.0, _u(rng, 2.0, 4.0)),
        # increasing polynomial with no catalog inverse: preimages go through brentq
        reparam={"catalog": "polynomial", "params": {"domain_dim": 1, "terms": [
            [[1.0, [1]], [_u(rng, 0.05, 0.3), [3]]]]}},
        checks=metric_checks), "check")
    g3 = _spd(rng, 3)
    out["gen_check_randers_line.json"] = (_curve_scenario(
        {"kind": "randers", "dim": 3, "b": _small_covector(rng, g3, 0.5),
         "g": {"field": "constant", "matrix": g3}},
        "segment", segment(3), (0.0, 1.0), {"gauss_order": 8, "cells_per_axis": 8},
        variation=var, checks=[{"name": "extremality", "tolerance": 1e-6}]), "check")
    return out


GENERATORS = {"areal": areal, "forms": forms, "curves": curves}


def generate(workload: str, seed: int, out_dir: str, shipped_dir: str) -> list[dict]:
    """Write the workload's scenario files for ``seed``; return its operations.

    Each operation is ``{"name", "path", "sub"}``; shipped scenarios are
    copied next to the generated ones so that every input lives in one
    directory.
    """
    rng = np.random.default_rng([seed, sorted(GENERATORS).index(workload)])
    os.makedirs(out_dir, exist_ok=True)
    ops = []
    for name, sub in SHIPPED[workload]:
        with open(os.path.join(shipped_dir, name), encoding="utf-8") as fh:
            text = fh.read()
        path = os.path.join(out_dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        ops.append({"name": name, "path": path, "sub": sub})
    for name, (scenario, sub) in GENERATORS[workload](rng).items():
        path = os.path.join(out_dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(scenario, fh, indent=1)
            fh.write("\n")
        ops.append({"name": name, "path": path, "sub": sub})
    return ops
