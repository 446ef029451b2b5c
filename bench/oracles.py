"""Expected results for every benchmark operation, computed apart from grassvar.

The oracles read the scenario files the program receives and recompute
each row by an independent route: closed forms where they exist, and
otherwise vectorized numpy quadrature with a finer Gauss-Legendre rule
than any scenario uses (Gram determinants instead of minors for areas,
the analytic first variation instead of finite differences).  Identity
checks are held to their scenario tolerance.  Tolerances reflect the
accuracy of the quadrature, not bit-equality with any earlier output.
"""
from __future__ import annotations

import math

import numpy as np

# Accuracy of a fixed composite Gauss-Legendre rule (order >= 8, >= 4 cells)
# on the smooth integrands the generators produce: measured errors stay
# below 3e-11 relative over 40 seeds, so 1e-9 leaves a margin of 30.
QUAD_RTOL = 1e-9
# Central differences with eps = 1e-4 in first_variation: the truncation
# error is eps^2/6 |L'''|, a few 1e-8 on these curves.
VARIATION_ATOL = 1e-6


def _rule(lo: float, hi: float, order: int = 12, cells: int = 48):
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(lo, hi, cells + 1)
    h = np.diff(edges)[:, None]
    nodes = (edges[:-1, None] + 0.5 * h * (x + 1.0)).ravel()
    return nodes, (0.5 * h * w).ravel()


# -- curves: position and velocity, vectorized over t -----------------------

def _curve(geo: dict, t: np.ndarray):
    p, cat = geo.get("params", {}), geo["catalog"]
    if cat == "circle":
        r, c, ph = p.get("radius", 1.0), np.asarray(p.get("center", (0.0, 0.0))), p.get("phase", 0.0)
        s = t + ph
        return c + r * np.stack([np.cos(s), np.sin(s)], 1), r * np.stack([-np.sin(s), np.cos(s)], 1)
    if cat == "helix":
        r, h = p.get("radius", 1.0), p.get("pitch", 1.0)
        pos = np.stack([r * np.cos(t), r * np.sin(t), h * t], 1)
        vel = np.stack([-r * np.sin(t), r * np.cos(t), np.full_like(t, h)], 1)
        return pos, vel
    if cat == "segment":
        a, b = np.asarray(p["start"]), np.asarray(p["end"])
        return a + t[:, None] * (b - a), np.broadcast_to(b - a, (len(t), len(a)))
    if cat == "fourier_curve":
        c = np.asarray(p["constant"])
        A = np.asarray(p["cos_coeffs"]).reshape(len(c), -1)
        B = np.asarray(p["sin_coeffs"]).reshape(len(c), -1)
        j = np.arange(1, A.shape[1] + 1)
        cos, sin = np.cos(np.outer(t, j)), np.sin(np.outer(t, j))
        return c + cos @ A.T + sin @ B.T, (-sin * j) @ A.T + (cos * j) @ B.T
    raise KeyError(f"no oracle for curve {cat!r}")


def _metric_field(spec: dict | None, dim: int):
    """(g0, phi) with g(y) = phi(y) g0, mirroring the scenario's metric block."""
    if spec is None:
        return np.eye(dim), lambda y: np.ones(len(y))
    g0 = np.asarray(spec.get("matrix", np.eye(dim)), dtype=float)
    if spec.get("field", "constant") == "conformal":
        c = float(spec.get("coefficient", 0.0))
        return g0, lambda y: 1.0 + c * np.einsum("ij,ij->i", y, y)
    return g0, lambda y: np.ones(len(y))


def _lagrangian(metric: dict, y: np.ndarray, v: np.ndarray) -> np.ndarray:
    kind = metric["kind"]
    if kind == "euclidean":
        return np.linalg.norm(v, axis=1)
    if kind == "mth_root":
        return np.sum(np.asarray(metric["weights"]) * v**4, axis=1) ** 0.25
    g0, phi = _metric_field(metric.get("g"), v.shape[1])
    F = np.sqrt(phi(y) * np.einsum("ij,jk,ik->i", v, g0, v))
    if kind == "randers":
        F = F + v @ np.asarray(metric["b"])
    return F


def curve_length(sc: dict) -> float:
    """Length: closed forms for the cases that have one, quadrature otherwise."""
    metric, geo = sc["metric"], sc["geometry"]
    (a, b), p = geo["interval"], geo.get("params", {})
    kind, cat = metric["kind"], geo["catalog"]
    g = metric.get("g") or {}
    constant_g = g.get("field", "constant") == "constant"
    if kind in ("euclidean", "randers", "riemannian") and constant_g and cat != "fourier_curve":
        dim = {"circle": 2, "helix": 3}.get(cat) or len(p["start"])
        g0 = np.asarray(g.get("matrix", np.eye(dim)))
        if cat == "segment":
            d = np.asarray(p["end"]) - np.asarray(p["start"])
            speed = math.sqrt(float(d @ g0 @ d))
        elif cat == "circle" and np.allclose(g0, g0[0, 0] * np.eye(2)):
            speed = math.sqrt(g0[0, 0]) * p.get("radius", 1.0)
        elif cat == "helix" and np.allclose(g0, np.eye(3)):
            speed = math.hypot(p.get("radius", 1.0), p.get("pitch", 1.0))
        else:
            speed = None
        if speed is not None:
            # the Randers drift b . v integrates to b . (zeta(b) - zeta(a))
            drift = 0.0
            if kind == "randers":
                ends = _curve(geo, np.array([a, b], dtype=float))[0]
                drift = float(np.asarray(metric["b"]) @ (ends[1] - ends[0]))
            return speed * (b - a) + drift
    if kind == "riemannian" and cat == "circle" and not constant_g:
        c = np.asarray(p.get("center", (0.0, 0.0)))
        g0 = np.asarray(g.get("matrix", np.eye(2)))
        if not c.any() and np.allclose(g0, g0[0, 0] * np.eye(2)):
            r = p.get("radius", 1.0)
            phi = 1.0 + g.get("coefficient", 0.0) * r * r
            return math.sqrt(g0[0, 0] * phi) * r * (b - a)
    if kind == "mth_root" and cat == "segment":
        d = np.asarray(p["end"]) - np.asarray(p["start"])
        return float(np.sum(np.asarray(metric["weights"]) * d**4)) ** 0.25 * (b - a)
    t, w = _rule(a, b)
    y, v = _curve(geo, t)
    return float(w @ _lagrangian(metric, y, v))


def euclidean_first_variation(sc: dict) -> float:
    """max |dL[V]| over the sine-bump basis, dL[V] = int zeta'.V'/|zeta'| dt."""
    geo = sc["geometry"]
    a, b = geo["interval"]
    modes = sc.get("variation", {}).get("modes", 4)
    t, w = _rule(a, b)
    _, v = _curve(geo, t)
    unit = v / np.linalg.norm(v, axis=1)[:, None]
    worst = 0.0
    for j in range(1, modes + 1):
        mu = math.pi * j / (b - a)
        dV = mu * np.cos(mu * (t - a))
        for coord in range(v.shape[1]):
            worst = max(worst, abs(float(w @ (unit[:, coord] * dV))))
    return worst


# -- areas ------------------------------------------------------------------

def _poly_jacobian_col(terms: list, t: np.ndarray, axis: int) -> np.ndarray:
    """d/dt_axis of sum c prod t_l^e_l, vectorized over the rows of t."""
    out = np.zeros(len(t))
    for c, exps in terms:
        e = exps[axis]
        if e == 0:
            continue
        term = c * e * t[:, axis] ** (e - 1)
        for l, el in enumerate(exps):
            if l != axis:
                term = term * t[:, l] ** el
        out += term
    return out


def _gram_area(sc: dict) -> float:
    """Area as the quadrature of sqrt(det(J^T J)) on a fine tensor rule."""
    geo = sc["geometry"]
    p = geo["params"]
    (u0, u1), (v0, v1) = geo["box"]
    tu, wu = _rule(u0, u1, 12, 24)
    tv, wv = _rule(v0, v1, 12, 24)
    U, V = np.meshgrid(tu, tv, indexing="ij")
    t = np.stack([U.ravel(), V.ravel()], 1)
    if geo["catalog"] == "graph_surface":
        comps = [[[1.0, [1, 0]]], [[1.0, [0, 1]]], p["terms"]]
    else:
        comps = p["terms"]
    J = np.stack(
        [np.stack([_poly_jacobian_col(c, t, ax) for ax in (0, 1)], 1) for c in comps], 1
    )  # (N, m, 2)
    G = np.einsum("nia,nib->nab", J, J)
    dens = np.sqrt(G[:, 0, 0] * G[:, 1, 1] - G[:, 0, 1] ** 2)
    return float(np.outer(wu, wv).ravel() @ dens)


def area(sc: dict) -> float:
    geo = sc["geometry"]
    p, cat = geo.get("params", {}), geo["catalog"]
    (u0, u1), (v0, v1) = geo["box"]
    sign = geo.get("orientation", 1)
    if cat == "sphere_patch":
        r = p.get("radius", 1.0)
        return sign * r * r * (math.cos(u0) - math.cos(u1)) * (v1 - v0)
    if cat == "torus_patch":
        R, r = p.get("major_radius", 2.0), p.get("minor_radius", 1.0)
        return sign * r * (u1 - u0) * (R * (v1 - v0) + r * (math.sin(v1) - math.sin(v0)))
    return sign * _gram_area(sc)


# -- expectations per operation ---------------------------------------------

def _value(row, x, rtol=QUAD_RTOL, atol=0.0):
    return {"row": row, "value": x, "tol": atol + rtol * abs(x), "status": "PASS"}


def expectations(sc: dict, sub: str) -> list[dict]:
    """The rows an operation must produce, in order.

    Each entry gives the row name, the reference value, the allowed
    deviation and the status the row must carry.  ``value`` None means a
    residual row that must lie in [0, tol].
    """
    if sub == "area":
        return [_value("area", area(sc)) for _ in sc.get("compute") or [{}]]
    if sub == "length":
        q = sc.get("quadrature", {})
        atol = 10.0 * q.get("target", 1e-9) if q.get("adaptive") else 0.0
        return [_value("length", curve_length(sc), atol=atol) for _ in sc.get("compute") or [{}]]
    if sub == "variation":
        metric, geo = sc["metric"], sc["geometry"]
        conformal = (metric.get("g") or {}).get("field") == "conformal"
        if geo["catalog"] == "segment" and not conformal:
            # metrics that do not depend on the base point have straight extremals
            x = 0.0
        elif metric["kind"] == "euclidean":
            x = euclidean_first_variation(sc)
        else:
            raise KeyError("no first-variation oracle for this scenario")
        return [_value("extremal_residual", x, rtol=0.0, atol=VARIATION_ATOL)
                for _ in sc.get("compute") or [{}]]
    if sub == "check":
        out = []
        for entry in sc["checks"]:
            if entry["name"] == "homogeneity" and sc["metric"]["kind"] == "energy":
                # |F(lam v) - lam F(v)| / (lam F(v)) = |lam - 1| for F = |v|^2
                lams = entry.get("lambdas", (0.5, 2.0, 10.0))
                x = max(abs(lam - 1.0) for lam in lams)
                out.append({"row": "homogeneity", "value": x, "tol": 1e-12 * x,
                            "status": "FAIL"})
            else:
                out.append({"row": entry["name"], "value": None, "tol": entry["tolerance"],
                            "status": "PASS"})
        return out
    raise KeyError(f"unknown subcommand {sub!r}")


def check_rows(rows: list, expected: list[dict]) -> list[str]:
    """Compare produced rows ``[name, value, status]`` with the expectations;
    return one message per mismatch."""
    errors = []
    if [r[0] for r in rows] != [e["row"] for e in expected]:
        return [f"rows {[r[0] for r in rows]} != expected {[e['row'] for e in expected]}"]
    for (name, value, status), exp in zip(rows, expected):
        if not math.isfinite(value):
            errors.append(f"{name}: non-finite value {value!r}")
        elif exp["value"] is None:
            if not 0.0 <= value <= exp["tol"]:
                errors.append(f"{name}: residual {value!r} outside [0, {exp['tol']!r}]")
        elif abs(value - exp["value"]) > exp["tol"]:
            errors.append(f"{name}: {value!r} != {exp['value']!r} (tol {exp['tol']:.3g})")
        if status != exp["status"]:
            errors.append(f"{name}: status {status} != {exp['status']}")
    return errors
