"""Finsler fundamental functions, areal Lagrangians, and the Hilbert form.

A fundamental function F(y, v) is positive for nonzero fiber argument and
positively 1-homogeneous in v; its fiber gradient dF/dv is then
0-homogeneous, which is exactly what lets the 1-form (dF/dv_nu) dy^nu
descend from the tangent chart to the space of rays.  The catalog:

    euclidean    F = |v|
    riemannian   F = sqrt(v^T g(y) v),   g constant or conformally scaled
    randers      F = sqrt(v^T g v) + b . v,  |b|_g < 1
    mth_root     F = (sum_i c_i v_i^4)^(1/4)  (quartic, diagonal)
    areal_gram   L(y, Xi) = |Xi|  on k-vector components (k-area integrand)
    energy       F = |v|^2  -- deliberately NOT 1-homogeneous; kept in the
                 catalog as the standard negative example for the
                 homogeneity and projectability checks

All gradients are analytic.  Evaluation on the slit |v| ~ 0 raises
SlitDomainError instead of propagating NaNs.

Shape contract: a :class:`FinslerFunction` evaluates stacks of base points
``(N, m)`` and fiber arguments ``(N, fiber_dim)`` to values ``(N,)`` and
fiber gradients ``(N, fiber_dim)``; the slit check runs on the whole stack
before any division or square root.  One point ``(m,)``, ``(fiber_dim,)``
gives a float and a ``(fiber_dim,)`` gradient.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    DimensionMismatchError,
    ImmersionError,
    InvalidMetricError,
    SlitDomainError,
)
from .forms import KForm
from .kvector import canonical_lift
from .maps import DifferentiableMap

SLIT_TOL = 1e-13
EPS_DEN = 1e-300  # guards homogeneity-residual denominators


@dataclass(frozen=True)
class FinslerFunction:
    """A fiber-wise Lagrangian with analytic fiber gradient.

    ``degree`` is the exterior degree of the fiber argument: 1 for tangent
    vectors (fiber_dim = m), k for areal Lagrangians on k-vector components
    (fiber_dim = C(m, k)).  ``_eval`` and ``_grad`` map stacks ``(N, m)``,
    ``(N, fiber_dim)`` to ``(N,)`` and ``(N, fiber_dim)``.
    """

    kind: str
    m: int
    degree: int
    fiber_dim: int
    _eval: Callable[[np.ndarray, np.ndarray], np.ndarray]
    _grad: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def _check_args(self, y, v):
        y = np.asarray(y, dtype=float)
        v = np.asarray(v, dtype=float)
        single = v.ndim < 2
        Y, V = (y.reshape(1, -1), v.reshape(1, -1)) if single else (y, v)
        if Y.shape[1:] != (self.m,):
            raise DimensionMismatchError(f"base point must have length {self.m}")
        if V.shape[1:] != (self.fiber_dim,):
            raise DimensionMismatchError(f"fiber argument must have length {self.fiber_dim}")
        if len(Y) != len(V):
            raise DimensionMismatchError("base points and fiber arguments differ in number")
        slit = np.max(np.abs(V), axis=1) <= SLIT_TOL * np.maximum(1.0, np.max(np.abs(Y), axis=1))
        if np.any(slit):
            raise SlitDomainError(
                f"fiber argument is numerically zero (slit domain) at y={Y[slit][0]}"
            )
        return Y, V, single

    def __call__(self, y, v):
        Y, V, single = self._check_args(y, v)
        out = np.asarray(self._eval(Y, V), dtype=float).reshape(len(Y))
        return float(out[0]) if single else out

    def fiber_gradient(self, y, v) -> np.ndarray:
        Y, V, single = self._check_args(y, v)
        out = np.asarray(self._grad(Y, V), dtype=float).reshape(len(Y), self.fiber_dim)
        return out[0] if single else out


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (N, d) stacks."""
    return np.einsum("ni,ni->n", a, b)


def _norm(v: np.ndarray) -> np.ndarray:
    return np.linalg.norm(v, axis=1)


# -- metric fields -----------------------------------------------------------

def _build_metric_field(m: int, spec) -> Callable[[np.ndarray], np.ndarray]:
    """y -> g(y) as a stack ``(N, m, m)``: a constant matrix, or one scaled by
    phi(y) = 1 + coeff |y|^2 (coeff >= 0 keeps g positive definite)."""
    spec = spec or {}
    kind = spec.get("field", "constant")
    g0 = np.asarray(spec.get("matrix", np.eye(m)), dtype=float)
    if g0.shape != (m, m):
        raise InvalidMetricError(f"metric matrix must be {m}x{m}")
    if np.max(np.abs(g0 - g0.T)) > 1e-12:
        raise InvalidMetricError("metric matrix must be symmetric")
    if np.any(np.linalg.eigvalsh(g0) <= 0.0):
        raise InvalidMetricError("metric matrix must be positive definite")
    if kind == "constant":
        return lambda Y: np.broadcast_to(g0, (len(Y), m, m))
    if kind == "conformal":
        coeff = float(spec.get("coefficient", 0.0))
        if coeff < 0.0:
            raise InvalidMetricError("conformal coefficient must be >= 0")
        return lambda Y: (1.0 + coeff * _dot(Y, Y))[:, None, None] * g0
    raise InvalidMetricError(f"unknown metric field kind {kind!r}")


# -- catalog builders --------------------------------------------------------

def euclidean_metric(dim: int) -> FinslerFunction:
    """F(y, v) = |v|; the fiber gradient is the unit vector v/|v|."""
    return FinslerFunction(
        "euclidean", dim, 1, dim, lambda Y, V: _norm(V), lambda Y, V: V / _norm(V)[:, None]
    )


def riemannian_metric(dim: int, g: dict | None = None) -> FinslerFunction:
    """F(y, v) = sqrt(v^T g(y) v) with gradient g(y) v / F."""
    return _randers_family("riemannian", dim, np.zeros(dim), g)


def randers_metric(dim: int, b, g: dict | None = None) -> FinslerFunction:
    """F(y, v) = sqrt(v^T g v) + b . v.

    Positivity of F on nonzero v is equivalent to |b|_g < 1 (norm taken
    with the inverse metric); the constructor rejects anything else.
    """
    b = np.asarray(b, dtype=float).reshape(-1)
    if b.shape != (dim,):
        raise InvalidMetricError(f"drift covector must have length {dim}")
    return _randers_family("randers", dim, b, g)


def _randers_family(kind: str, dim: int, b: np.ndarray, g) -> FinslerFunction:
    """sqrt(v^T g(y) v) + b . v with gradient g(y) v / sqrt(v^T g(y) v) + b."""
    gfun = _build_metric_field(dim, g)
    g0 = gfun(np.zeros((1, dim)))[0]
    b_norm = math.sqrt(float(b @ np.linalg.solve(g0, b)))
    if b_norm >= 1.0:
        raise InvalidMetricError(f"|b|_g = {b_norm:g} >= 1 makes F non-positive")

    def parts(Y, V):
        gv = np.einsum("nij,nj->ni", gfun(Y), V)
        return np.sqrt(_dot(V, gv)), gv

    def ev(Y, V):
        return parts(Y, V)[0] + V @ b

    def grad(Y, V):
        root, gv = parts(Y, V)
        return gv / root[:, None] + b

    return FinslerFunction(kind, dim, 1, dim, ev, grad)


def quartic_root_metric(weights) -> FinslerFunction:
    """F(y, v) = (sum_i c_i v_i^4)^(1/4) with positive diagonal weights."""
    c = np.asarray(weights, dtype=float).reshape(-1)
    if np.any(c <= 0.0):
        raise InvalidMetricError("quartic weights must be positive")
    dim = len(c)

    def ev(Y, V):
        return np.sum(c * V**4, axis=1) ** 0.25

    def grad(Y, V):
        return c * V**3 / ev(Y, V)[:, None] ** 3

    return FinslerFunction("mth_root", dim, 1, dim, ev, grad)


def areal_gram(k: int, m: int) -> FinslerFunction:
    """L(y, Xi) = |Xi| on k-vector components.

    On canonical lifts of a parametrization this is the square root of the
    Gram determinant of the Jacobian columns, i.e. the classical k-area
    integrand.
    """
    fiber_dim = math.comb(m, k)
    return FinslerFunction(
        "areal_gram",
        m,
        k,
        fiber_dim,
        lambda Y, V: _norm(V),
        lambda Y, V: V / _norm(V)[:, None],
    )


def energy_metric(dim: int) -> FinslerFunction:
    """F(y, v) = |v|^2; 2-homogeneous, so every homogeneity check must fail."""
    return FinslerFunction(
        "energy", dim, 1, dim, lambda Y, V: _dot(V, V), lambda Y, V: 2.0 * V
    )


METRIC_KINDS = {
    "euclidean": euclidean_metric,
    "riemannian": riemannian_metric,
    "randers": randers_metric,
    "mth_root": quartic_root_metric,
    "areal_gram": areal_gram,
    "energy": energy_metric,
}


# -- checks ------------------------------------------------------------------

def _sample_fibers(F: FinslerFunction, rng: np.random.Generator, count: int, box):
    """Stacks ``(count, m)`` and ``(count, fiber_dim)`` of random samples."""
    lo, hi = box
    ys, vs = [], []
    while len(ys) < count:
        y = rng.uniform(lo, hi, size=F.m)
        v = rng.standard_normal(F.fiber_dim)
        if np.max(np.abs(v)) <= 1e-6:
            continue  # resample near-zero fibers
        ys.append(y)
        vs.append(v)
    return np.array(ys).reshape(count, F.m), np.array(vs).reshape(count, F.fiber_dim)


def check_homogeneity(
    F: FinslerFunction,
    rng: np.random.Generator,
    sample_count: int = 100,
    lambdas=(0.5, 2.0, 10.0),
    box=(-1.0, 1.0),
) -> float:
    """Max relative residual of F(y, lambda v) = lambda F(y, v) over random
    samples and the given positive scalings."""
    if any(lam <= 0 for lam in lambdas):
        raise ValueError("lambdas must be positive")
    Y, V = _sample_fibers(F, rng, sample_count, box)
    base = F(Y, V)
    worst = 0.0
    for lam in lambdas:
        r = np.abs(F(Y, lam * V) - lam * base) / (np.abs(lam * base) + EPS_DEN)
        worst = max(worst, float(np.max(r, initial=0.0)))
    return worst


def check_projectability(
    F: FinslerFunction,
    rng: np.random.Generator,
    sample_count: int = 100,
    lambdas=(0.5, 2.0, 10.0),
    box=(-1.0, 1.0),
) -> float:
    """Max residual of scale invariance of the fiber gradient.

    0-homogeneity of dF/dv is the coordinate content of the Hilbert form
    descending to the ray space."""
    if any(lam <= 0 for lam in lambdas):
        raise ValueError("lambdas must be positive")
    Y, V = _sample_fibers(F, rng, sample_count, box)
    base = F.fiber_gradient(Y, V)
    worst = 0.0
    for lam in lambdas:
        r = np.abs(F.fiber_gradient(Y, lam * V) - base)
        worst = max(worst, float(np.max(r, initial=0.0)))
    return worst


def hilbert_form(F: FinslerFunction) -> KForm:
    """The 1-form (dF/dv_nu) dy^nu on the doubled chart (y, v) of TY.

    Coefficients of the dy block are the fiber-gradient entries evaluated
    at the chart point; coefficients of the dv block vanish.  Pulling this
    form back through the tangent lift of a curve and integrating
    reproduces the length functional of a homogeneous F.
    """
    if F.degree != 1:
        raise DimensionMismatchError("the Hilbert form construction is degree-1 only")
    m = F.m
    coeffs = [lambda Z, _nu=nu: F.fiber_gradient(Z[:, :m], Z[:, m:])[:, _nu] for nu in range(m)]
    coeffs += [lambda Z: np.zeros(len(Z))] * m
    return KForm(1, 2 * m, coeffs)


def pullback_identity_residual(F: FinslerFunction, curve: DifferentiableMap, t_samples) -> float:
    """Max residual of the Euler identity sum_nu dF/dv_nu(z, z') z'^nu = F(z, z')
    along a curve; this is the coordinate content of the pullback statement
    for the Hilbert form."""
    if F.degree != 1 or curve.codomain_dim != F.m or curve.domain_dim != 1:
        raise DimensionMismatchError("need a degree-1 metric and a curve into its chart")
    lift = canonical_lift(curve, np.asarray(t_samples, dtype=float).reshape(-1, 1))
    Y, V = lift.base, lift.comps
    try:
        residual = _dot(F.fiber_gradient(Y, V), V) - F(Y, V)
    except SlitDomainError as exc:
        raise ImmersionError(f"{curve.name}: zero velocity ({exc})") from exc
    return float(np.max(np.abs(residual), initial=0.0))


def fiber_gradient_fd_residual(
    F: FinslerFunction, rng: np.random.Generator, sample_count: int = 50, h: float = 1e-6
) -> float:
    """Max deviation of the analytic fiber gradient from central differences."""
    Y, V = _sample_fibers(F, rng, sample_count, (-1.0, 1.0))
    G = F.fiber_gradient(Y, V)
    worst = 0.0
    for j in range(F.fiber_dim):
        step = np.zeros_like(V)
        step[:, j] = h
        fd = (F(Y, V + step) - F(Y, V - step)) / (2.0 * h)
        worst = max(worst, float(np.max(np.abs(G[:, j] - fd), initial=0.0)))
    return worst
