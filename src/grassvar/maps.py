"""Differentiable maps between chart domains, with a named catalog.

Scenario files cannot serialize arbitrary functions, so every map used by
the CLI comes from a named family with a fixed parameter schema and an
analytic Jacobian:

    identity, linear, affine, polynomial, segment, circle, helix,
    torus_patch, sphere_patch, graph_surface, fourier_curve,
    sine_shift, trig_shear, positive_scale

Python callers may additionally combine maps with :func:`compose`,
:func:`add_scaled` and :func:`tangent_lift`.  A central finite-difference
Jacobian (step 1e-6 * max(1, |x|_inf)) backs any map constructed without
an analytic one.  A map carries a value, a Jacobian and optionally an
inverse, nothing else: no map has second derivatives.

Shape contract: every map evaluates a stack of N points at once.  The
callables handed to :class:`DifferentiableMap` receive ``T`` of shape
``(N, n)`` and return values ``(N, m)`` and Jacobians ``(N, m, n)``; a
constant result (a fixed matrix, say) is broadcast to the stack.  Calling
a map on a single point ``(n,)`` evaluates the stack N = 1 and returns
``(m,)`` and ``(m, n)``.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import DimensionMismatchError, MapEvaluationError

FD_JACOBIAN_SCALE = 1e-6


def _as_batch(t, dim: int) -> tuple[np.ndarray, bool]:
    """``(T, single)``: a stack ``(N, dim)`` and whether ``t`` was one point."""
    t = np.asarray(t, dtype=float)
    if t.ndim == 2 and t.shape[1] == dim:
        return t, False
    t = np.atleast_1d(t)
    if t.shape != (dim,):
        raise DimensionMismatchError(f"expected point of dimension {dim}, got shape {t.shape}")
    return t.reshape(1, dim), True


def _finite(name: str, what: str, T: np.ndarray, out: np.ndarray) -> None:
    bad = ~np.isfinite(out).reshape(len(T), -1).all(axis=1)
    if np.any(bad):
        raise MapEvaluationError(f"{name}: non-finite {what} at t={T[bad][0]}")


class DifferentiableMap:
    """A map R^n -> R^m given by evaluation and Jacobian callables.

    Immutable after construction.  ``inverse`` is optional and analytic
    where the catalog provides it; the constructor links it back to this
    map, so ``f.inverted().inverted() is f``.  Both callables follow the
    stacked shape contract of the module docstring.
    """

    def __init__(
        self,
        name: str,
        domain_dim: int,
        codomain_dim: int,
        func: Callable[[np.ndarray], np.ndarray],
        jacobian: Callable[[np.ndarray], np.ndarray] | None = None,
        inverse: "DifferentiableMap | None" = None,
    ):
        self.name = name
        self.domain_dim = int(domain_dim)
        self.codomain_dim = int(codomain_dim)
        self._func = func
        self._jacobian = jacobian
        self._inverse = inverse
        if inverse is not None:
            inverse._inverse = self

    def __call__(self, t) -> np.ndarray:
        T, single = _as_batch(t, self.domain_dim)
        Y = np.broadcast_to(np.asarray(self._func(T), dtype=float), (len(T), self.codomain_dim))
        _finite(self.name, "value", T, Y)
        return Y[0] if single else Y

    def jacobian(self, t) -> np.ndarray:
        T, single = _as_batch(t, self.domain_dim)
        if self._jacobian is not None:
            J = np.broadcast_to(
                np.asarray(self._jacobian(T), dtype=float),
                (len(T), self.codomain_dim, self.domain_dim),
            )
        else:
            J = self._fd_jacobian(T)
        _finite(self.name, "Jacobian", T, J)
        return J[0] if single else J

    def _fd_jacobian(self, T: np.ndarray) -> np.ndarray:
        h = FD_JACOBIAN_SCALE * np.maximum(1.0, np.max(np.abs(T), axis=1, initial=0.0))
        cols = []
        for j in range(self.domain_dim):
            step = np.zeros_like(T)
            step[:, j] = h
            cols.append((self(T + step) - self(T - step)) / (2.0 * h[:, None]))
        return np.stack(cols, axis=-1)

    def inverted(self) -> "DifferentiableMap":
        if self._inverse is None:
            raise MapEvaluationError(f"{self.name}: no inverse available")
        return self._inverse

    @property
    def has_inverse(self) -> bool:
        return self._inverse is not None

    def __repr__(self) -> str:
        return (
            f"DifferentiableMap({self.name!r}, {self.domain_dim}->{self.codomain_dim})"
        )


def verify_jacobian(f: DifferentiableMap, points, tol: float = 1e-6) -> float:
    """Max abs deviation between the map's Jacobian and central differences."""
    T = np.asarray(points, dtype=float).reshape(-1, f.domain_dim)
    worst = float(np.max(np.abs(f.jacobian(T) - f._fd_jacobian(T))))
    if worst > tol:
        raise MapEvaluationError(f"{f.name}: Jacobian off by {worst:g} (> {tol:g})")
    return worst


# ---------------------------------------------------------------------------
# catalog families
# ---------------------------------------------------------------------------

def _affine(name: str, A: np.ndarray, b: np.ndarray | None = None) -> DifferentiableMap:
    """y = A t + b, with inverse t = A^{-1}(y - b) when A is square and invertible."""
    m, n = A.shape
    b = np.zeros(m) if b is None else b
    if b.shape != (m,):
        raise DimensionMismatchError("offset length must match matrix rows")
    inverse = None
    if m == n and abs(np.linalg.det(A)) > 1e-300:
        Ainv = np.linalg.inv(A)
        inverse = DifferentiableMap(
            f"{name}_inverse", m, n, lambda Y: (Y - b) @ Ainv.T, lambda Y: Ainv
        )
    return DifferentiableMap(name, n, m, lambda T: T @ A.T + b, lambda T: A, inverse)


def identity_map(dim: int) -> DifferentiableMap:
    return _affine("identity", np.eye(int(dim)))


def linear_map(matrix) -> DifferentiableMap:
    """y = A t.  An inverse is attached when A is square and invertible."""
    return _affine("linear", np.asarray(matrix, dtype=float))


def affine_map(matrix, offset) -> DifferentiableMap:
    """y = A t + b, with inverse t = A^{-1}(y - b) for invertible square A."""
    return _affine("affine", np.asarray(matrix, dtype=float), np.asarray(offset, dtype=float))


def segment(start, end) -> DifferentiableMap:
    """Straight segment t -> p + t (q - p), t in [0, 1] by convention."""
    p = np.asarray(start, dtype=float)
    q = np.asarray(end, dtype=float)
    d = q - p
    m = len(p)
    return DifferentiableMap(
        "segment",
        1,
        m,
        lambda T: p + T * d,
        lambda T: d.reshape(m, 1),
    )


def polynomial_map(domain_dim: int, terms) -> DifferentiableMap:
    """Componentwise multivariate polynomials.

    ``terms`` is one list per output component of ``[coeff, exponents]``
    pairs, exponents being a length-``domain_dim`` tuple of nonnegative
    integers.
    """
    n = int(domain_dim)
    parsed = []
    for comp in terms:
        parsed.append([(float(c), np.array([int(e) for e in exps])) for c, exps in comp])
        for _, exps in parsed[-1]:
            if len(exps) != n:
                raise DimensionMismatchError("exponent tuple length must equal domain_dim")
    m = len(parsed)

    def ev(T):
        out = np.zeros((len(T), m))
        for i, comp in enumerate(parsed):
            for c, exps in comp:
                out[:, i] += c * np.prod(T**exps, axis=1)
        return out

    def jac(T):
        J = np.zeros((len(T), m, n))
        for i, comp in enumerate(parsed):
            for c, exps in comp:
                for j, e in enumerate(exps):
                    if e == 0:
                        continue
                    lowered = exps.copy()
                    lowered[j] -= 1
                    J[:, i, j] += c * e * np.prod(T**lowered, axis=1)
        return J

    return DifferentiableMap("polynomial", n, m, ev, jac)


def _columns(*entries) -> np.ndarray:
    """(N,) arrays or scalars -> an (N, len(entries)) stack; Jacobians are
    built row-major from it and reshaped to (N, m, n)."""
    return np.stack(np.broadcast_arrays(*entries), axis=1)


def circle(radius: float = 1.0, center=(0.0, 0.0), phase: float = 0.0) -> DifferentiableMap:
    """t -> center + radius (cos(t + phase), sin(t + phase))."""
    r = float(radius)
    c = np.asarray(center, dtype=float)
    ph = float(phase)
    return DifferentiableMap(
        "circle",
        1,
        2,
        lambda T: c + r * _columns(np.cos(T[:, 0] + ph), np.sin(T[:, 0] + ph)),
        lambda T: r * _columns(-np.sin(T[:, 0] + ph), np.cos(T[:, 0] + ph))[:, :, None],
    )


def helix(radius: float = 1.0, pitch: float = 1.0) -> DifferentiableMap:
    """t -> (r cos t, r sin t, pitch t)."""
    r, p = float(radius), float(pitch)
    return DifferentiableMap(
        "helix",
        1,
        3,
        lambda T: _columns(r * np.cos(T[:, 0]), r * np.sin(T[:, 0]), p * T[:, 0]),
        lambda T: _columns(-r * np.sin(T[:, 0]), r * np.cos(T[:, 0]), p)[:, :, None],
    )


def torus_patch(major_radius: float = 2.0, minor_radius: float = 1.0) -> DifferentiableMap:
    """(u, v) -> torus point with tube angle v, axial angle u."""
    R, r = float(major_radius), float(minor_radius)

    def ev(T):
        u, v = T[:, 0], T[:, 1]
        w = R + r * np.cos(v)
        return _columns(w * np.cos(u), w * np.sin(u), r * np.sin(v))

    def jac(T):
        u, v = T[:, 0], T[:, 1]
        w = R + r * np.cos(v)
        return _columns(
            -w * np.sin(u), -r * np.sin(v) * np.cos(u),
            w * np.cos(u), -r * np.sin(v) * np.sin(u),
            0.0, r * np.cos(v),
        ).reshape(-1, 3, 2)

    return DifferentiableMap("torus_patch", 2, 3, ev, jac)


def sphere_patch(radius: float = 1.0) -> DifferentiableMap:
    """(theta, phi) -> r (sin th cos ph, sin th sin ph, cos th); degenerate at poles."""
    r = float(radius)

    def ev(T):
        th, ph = T[:, 0], T[:, 1]
        return r * _columns(np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th))

    def jac(T):
        th, ph = T[:, 0], T[:, 1]
        return r * _columns(
            np.cos(th) * np.cos(ph), -np.sin(th) * np.sin(ph),
            np.cos(th) * np.sin(ph), np.sin(th) * np.cos(ph),
            -np.sin(th), 0.0,
        ).reshape(-1, 3, 2)

    return DifferentiableMap("sphere_patch", 2, 3, ev, jac)


def graph_surface(terms) -> DifferentiableMap:
    """(u, v) -> (u, v, h(u, v)) with h a polynomial given by [coeff, (eu, ev)]."""
    h = polynomial_map(2, [terms])

    def jac(T):
        Jh = h.jacobian(T)[:, 0]
        return _columns(1.0, 0.0, 0.0, 1.0, Jh[:, 0], Jh[:, 1]).reshape(-1, 3, 2)

    return DifferentiableMap(
        "graph_surface", 2, 3, lambda T: np.concatenate([T, h(T)], axis=1), jac
    )


def fourier_curve(constant, cos_coeffs, sin_coeffs) -> DifferentiableMap:
    """t -> c + sum_j (A[:, j-1] cos(j t) + B[:, j-1] sin(j t)), j = 1..J."""
    c = np.asarray(constant, dtype=float)
    A = np.asarray(cos_coeffs, dtype=float).reshape(len(c), -1)
    B = np.asarray(sin_coeffs, dtype=float).reshape(len(c), -1)
    if A.shape != B.shape:
        raise DimensionMismatchError("cos/sin coefficient arrays must have equal shape")
    m, J = A.shape
    js = np.arange(1, J + 1, dtype=float)

    def ev(T):
        return c + np.cos(T * js) @ A.T + np.sin(T * js) @ B.T

    def jac(T):
        d = -(js * np.sin(T * js)) @ A.T + (js * np.cos(T * js)) @ B.T
        return d[:, :, None]

    return DifferentiableMap("fourier_curve", 1, m, ev, jac)


def sine_shift(amplitude: float = 0.3) -> DifferentiableMap:
    """Reparametrization s -> s + a sin s; a diffeomorphism of R for |a| < 1."""
    a = float(amplitude)
    if abs(a) >= 1.0:
        raise MapEvaluationError("sine_shift requires |amplitude| < 1 to stay monotone")

    def inv_ev(Y):
        # Newton on s + a sin s = y; monotone with derivative >= 1 - |a|.
        s = Y.copy()
        for _ in range(60):
            step = (s + a * np.sin(s) - Y) / (1.0 + a * np.cos(s))
            s = s - step
            if np.all(np.abs(step) < 1e-15 * np.maximum(1.0, np.abs(s))):
                break
        return s

    inv = DifferentiableMap(
        "sine_shift_inverse",
        1,
        1,
        inv_ev,
        lambda Y: (1.0 / (1.0 + a * np.cos(inv_ev(Y))))[:, :, None],
    )
    return DifferentiableMap(
        "sine_shift",
        1,
        1,
        lambda T: T + a * np.sin(T),
        lambda T: (1.0 + a * np.cos(T))[:, :, None],
        inv,
    )


def trig_shear(amplitude: float = 0.3) -> DifferentiableMap:
    """(x, y) -> (x + a sin y, y); unit Jacobian determinant, exact inverse."""
    a = float(amplitude)
    inv = DifferentiableMap(
        "trig_shear_inverse",
        2,
        2,
        lambda T: _columns(T[:, 0] - a * np.sin(T[:, 1]), T[:, 1]),
        lambda T: _columns(1.0, -a * np.cos(T[:, 1]), 0.0, 1.0).reshape(-1, 2, 2),
    )
    return DifferentiableMap(
        "trig_shear",
        2,
        2,
        lambda T: _columns(T[:, 0] + a * np.sin(T[:, 1]), T[:, 1]),
        lambda T: _columns(1.0, a * np.cos(T[:, 1]), 0.0, 1.0).reshape(-1, 2, 2),
        inv,
    )


def positive_scale(factors) -> DifferentiableMap:
    """Diagonal scaling with strictly positive factors."""
    f = np.asarray(factors, dtype=float)
    if np.any(f <= 0):
        raise MapEvaluationError("positive_scale requires positive factors")
    D = np.diag(f)
    Dinv = np.diag(1.0 / f)
    n = len(f)
    inv = DifferentiableMap("positive_scale_inverse", n, n, lambda Y: Y / f, lambda Y: Dinv)
    return DifferentiableMap("positive_scale", n, n, lambda T: f * T, lambda T: D, inv)


# ---------------------------------------------------------------------------
# combinators
# ---------------------------------------------------------------------------

def _bare_compose(
    outer: DifferentiableMap, inner: DifferentiableMap, inverse: DifferentiableMap | None = None
) -> DifferentiableMap:
    return DifferentiableMap(
        f"{outer.name}({inner.name})",
        inner.domain_dim,
        outer.codomain_dim,
        lambda T: outer(inner(T)),
        lambda T: outer.jacobian(inner(T)) @ inner.jacobian(T),
        inverse,
    )


def compose(outer: DifferentiableMap, inner: DifferentiableMap) -> DifferentiableMap:
    """outer o inner, with the chain-rule Jacobian."""
    if inner.codomain_dim != outer.domain_dim:
        raise DimensionMismatchError(
            f"cannot compose {outer.name} o {inner.name}: "
            f"{inner.codomain_dim} != {outer.domain_dim}"
        )
    inverse = None
    if outer.has_inverse and inner.has_inverse:
        inverse = _bare_compose(inner.inverted(), outer.inverted())
    return _bare_compose(outer, inner, inverse)


def add_scaled(f: DifferentiableMap, g: DifferentiableMap, coeff: float) -> DifferentiableMap:
    """t -> f(t) + coeff * g(t) for maps with identical dimensions."""
    if (f.domain_dim, f.codomain_dim) != (g.domain_dim, g.codomain_dim):
        raise DimensionMismatchError("add_scaled requires identical dimensions")
    c = float(coeff)
    return DifferentiableMap(
        f"{f.name}+{c:g}·{g.name}",
        f.domain_dim,
        f.codomain_dim,
        lambda T: f(T) + c * g(T),
        lambda T: f.jacobian(T) + c * g.jacobian(T),
    )


def tangent_lift(curve: DifferentiableMap) -> DifferentiableMap:
    """t -> (zeta(t), zeta'(t)) into the doubled chart of the tangent bundle.

    The zeta'' column of the Jacobian is a central difference of
    ``curve.jacobian``; the Hilbert form, its one consumer here, has zero
    coefficients on that block.
    """
    if curve.domain_dim != 1:
        raise DimensionMismatchError("tangent_lift is defined for curves only")

    def ev(T):
        return np.concatenate([curve(T), curve.jacobian(T)[:, :, 0]], axis=1)

    def jac(T):
        h = FD_JACOBIAN_SCALE * np.maximum(1.0, np.abs(T))
        second = (curve.jacobian(T + h)[:, :, 0] - curve.jacobian(T - h)[:, :, 0]) / (2.0 * h)
        return np.concatenate([curve.jacobian(T)[:, :, 0], second], axis=1)[:, :, None]

    return DifferentiableMap(f"T{curve.name}", 1, 2 * curve.codomain_dim, ev, jac)


def insert_axis_map(k: int, axis: int, value: float) -> DifferentiableMap:
    """Affine inclusion R^{k-1} -> R^k fixing coordinate ``axis`` (1-based) to ``value``."""
    A = np.zeros((k, k - 1))
    rows = [i for i in range(k) if i != axis - 1]
    for col, row in enumerate(rows):
        A[row, col] = 1.0
    b = np.zeros(k)
    b[axis - 1] = float(value)
    return affine_map(A, b)


class CanonicalInclusion:
    """The inclusion i_{k,m}: (t^1..t^k) -> (t^1..t^k, 0,...,0) and its left
    inverse pr_{m,k}; pr o i is the identity on R^k."""

    def __init__(self, k: int, m: int):
        if not 1 <= k <= m:
            raise DimensionMismatchError(f"need 1 <= k <= m, got k={k}, m={m}")
        self.k = int(k)
        self.m = int(m)
        A = np.eye(m, k)
        self.inclusion = _affine(f"iota_{k}_{m}", A)
        self.projection = _affine(f"pr_{m}_{k}", A.T)


# name -> builder; the scenario loader resolves geometry through this table.
CATALOG: dict[str, Callable[..., DifferentiableMap]] = {
    "identity": identity_map,
    "linear": linear_map,
    "affine": affine_map,
    "polynomial": polynomial_map,
    "segment": segment,
    "circle": circle,
    "helix": helix,
    "torus_patch": torus_patch,
    "sphere_patch": sphere_patch,
    "graph_surface": graph_surface,
    "fourier_curve": fourier_curve,
    "sine_shift": sine_shift,
    "trig_shear": trig_shear,
    "positive_scale": positive_scale,
}


def from_catalog(name: str, params: dict | None = None) -> DifferentiableMap:
    """Build a catalog map by name, validating the parameter schema."""
    if name not in CATALOG:
        raise MapEvaluationError(f"unknown catalog map {name!r}")
    try:
        return CATALOG[name](**(params or {}))
    except TypeError as exc:
        raise MapEvaluationError(f"bad parameters for catalog map {name!r}: {exc}") from exc
