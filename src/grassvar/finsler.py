"""Finsler fundamental functions, areal Lagrangians and their fiber gradients.

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
fiber gradients ``(N, fiber_dim)``; the slit check runs column by column
(:func:`maps.row_max_abs`) on the whole stack before any division or square
root.  One point ``(m,)``, ``(fiber_dim,)`` gives a float and a
``(fiber_dim,)`` gradient.
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
from .kvector import Lift, canonical_lift
from .maps import DifferentiableMap, checked_dimension, checked_reals, row_max_abs
from .quadrature import CHUNK_NODES

SLIT_TOL = 1e-13
EPS_DEN = 1e-300  # guards homogeneity-residual denominators
SAMPLE_BOX = (-1.0, 1.0)  # range of each base-point coordinate in the sampled checks


@dataclass(frozen=True)
class FinslerFunction:
    """A fiber-wise Lagrangian with analytic fiber gradient.

    ``degree`` is the exterior degree of the fiber argument: 1 for tangent
    vectors (fiber_dim = m), k for areal Lagrangians on k-vector components
    (fiber_dim = C(m, k)).  ``_eval`` and ``_grad`` map stacks ``(N, m)``,
    ``(N, fiber_dim)`` to ``(N,)`` and ``(N, fiber_dim)``.

    The public calls, ``F(y, v)`` and :meth:`fiber_gradient`, check the
    shapes and run the slit test on every call.  The quadrature's densities
    call :meth:`_on_lift` instead, on a :class:`kvector.Lift` whose values,
    Jacobians and components :func:`kvector.checked_lift` has checked once
    and whose fit to F the functional has tested: it makes only the slit
    test, from the lift's own row maxima.
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
        _slit_test(Y, row_max_abs(V))
        return Y, V, single

    def __call__(self, y, v):
        Y, V, single = self._check_args(y, v)
        out = np.asarray(self._eval(Y, V), dtype=float).reshape(len(Y))
        return float(out[0]) if single else out

    def fiber_gradient(self, y, v) -> np.ndarray:
        Y, V, single = self._check_args(y, v)
        out = np.asarray(self._grad(Y, V), dtype=float).reshape(len(Y), self.fiber_dim)
        return out[0] if single else out

    def _on_lift(self, lift: Lift, gradient: bool = False) -> np.ndarray:
        """F, or its fiber gradient, at the rows of a lift that fits F."""
        _slit_test(lift.base, lift.scale)
        if gradient:
            return np.asarray(self._grad(lift.base, lift.comps), dtype=float).reshape(
                len(lift.base), self.fiber_dim
            )
        return np.asarray(self._eval(lift.base, lift.comps), dtype=float).reshape(len(lift.base))


def _slit_test(Y: np.ndarray, scale: np.ndarray) -> None:
    """Raise SlitDomainError at the first row whose fiber argument is
    numerically zero: row maximum ``scale`` of |v| at most SLIT_TOL times
    max(1, max |y|).  A NaN in a row never flags it."""
    slit = scale <= SLIT_TOL * np.maximum(1.0, row_max_abs(Y))
    if np.any(slit):
        raise SlitDomainError(
            f"fiber argument is numerically zero (slit domain) at y={Y[slit][0]}"
        )


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (N, d) stacks."""
    return np.einsum("ni,ni->n", a, b)


def _norm(v: np.ndarray) -> np.ndarray:
    """Row norms, bit for bit ``np.linalg.norm(v, axis=1)``, from column
    squares, so no temporary is wider than a column.  numpy adds a row of
    fewer than 8 squares in order, and a row of 8 to 128 contiguous squares
    pairwise: eight running sums of every 8th square, combined as
    ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then the rest in
    order.  Other rows go to numpy."""
    c = v.shape[1]
    if c > 128 or (c >= 8 and v.strides[1] != v.itemsize):
        return np.linalg.norm(v, axis=1)
    square = lambda j: v[:, j] * v[:, j]
    head, lanes = (c - c % 8, 8) if c >= 8 else (c, 1)
    r = [square(j) for j in range(lanes)]
    for j in range(lanes, head):
        r[j % lanes] += square(j)
    s = r[0] if lanes == 1 else ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for j in range(head, c):
        s += square(j)
    return np.sqrt(s)


# -- metric fields -----------------------------------------------------------

def _build_metric_field(m: int, spec) -> Callable[[np.ndarray], np.ndarray]:
    """y -> g(y) as a stack ``(N, m, m)``: a constant matrix, or one scaled by
    phi(y) = 1 + coeff |y|^2 (coeff >= 0 keeps g positive definite)."""
    spec = {} if spec is None else spec
    if not isinstance(spec, dict):
        raise InvalidMetricError(f"metric field must be an object, got {spec!r:.80}")
    kind = spec.get("field", "constant")
    g0 = checked_reals(spec.get("matrix", np.eye(m)), "metric matrix", (m, m), InvalidMetricError)
    if np.max(np.abs(g0 - g0.T)) > 1e-12:
        raise InvalidMetricError("metric matrix must be symmetric")
    if np.any(np.linalg.eigvalsh(g0) <= 0.0):
        raise InvalidMetricError("metric matrix must be positive definite")
    if kind == "constant":
        return lambda Y: np.broadcast_to(g0, (len(Y), m, m))
    if kind == "conformal":
        coeff = checked_reals(spec.get("coefficient", 0.0), "conformal coefficient", (),
                              InvalidMetricError)
        if coeff < 0.0:
            raise InvalidMetricError("conformal coefficient must be >= 0")
        return lambda Y: (1.0 + coeff * _dot(Y, Y))[:, None, None] * g0
    raise InvalidMetricError(f"unknown metric field kind {kind!r}")


# -- catalog builders --------------------------------------------------------

def euclidean_metric(dim: int) -> FinslerFunction:
    """F(y, v) = |v|; the fiber gradient is the unit vector v/|v|."""
    dim = checked_dimension(dim, "dim", InvalidMetricError)
    return FinslerFunction(
        "euclidean", dim, 1, dim, lambda Y, V: _norm(V), lambda Y, V: V / _norm(V)[:, None]
    )


def riemannian_metric(dim: int, g: dict | None = None) -> FinslerFunction:
    """F(y, v) = sqrt(v^T g(y) v) with gradient g(y) v / F."""
    dim = checked_dimension(dim, "dim", InvalidMetricError)
    return _randers_family("riemannian", dim, np.zeros(dim), g)


def randers_metric(dim: int, b, g: dict | None = None) -> FinslerFunction:
    """F(y, v) = sqrt(v^T g v) + b . v.

    Positivity of F on nonzero v is equivalent to |b|_g < 1 (norm taken
    with the inverse metric); the constructor rejects anything else.
    """
    dim = checked_dimension(dim, "dim", InvalidMetricError)
    b = checked_reals(b, "drift covector", (dim,), InvalidMetricError)
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
    c = checked_reals(weights, "quartic weights", (None,), InvalidMetricError)
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
    k = checked_dimension(k, "k", InvalidMetricError)
    m = checked_dimension(m, "m", InvalidMetricError)
    if k > m:
        raise InvalidMetricError(f"no {k}-vectors in dimension {m}")
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
    dim = checked_dimension(dim, "dim", InvalidMetricError)
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

def _sample_fibers(m: int, fiber_dim: int, rng: np.random.Generator, count: int):
    """Stacks ``(count, m)`` and ``(count, fiber_dim)`` of random samples:
    base points uniform in the cube SAMPLE_BOX^m, fibers standard normal,
    each stack drawn in one call.  Rows whose fiber has max |v| <= 1e-6
    are drawn again, base point and fiber, until none is left."""
    Y = rng.uniform(*SAMPLE_BOX, size=(count, m))
    V = rng.standard_normal((count, fiber_dim))
    while True:
        near_zero = np.flatnonzero(row_max_abs(V) <= 1e-6)
        if not len(near_zero):
            return Y, V
        Y[near_zero] = rng.uniform(*SAMPLE_BOX, size=(len(near_zero), m))
        V[near_zero] = rng.standard_normal((len(near_zero), fiber_dim))


def _scaled_samples(Y: np.ndarray, V: np.ndarray, lambdas):
    """The scalings ``(1, *lambdas)`` as ``(1 + L, 1)`` and the samples
    ``Y``, ``V`` stacked for each, yielded in chunks of at most
    ``CHUNK_NODES`` rows (one sample at least): ``(1 + L) * n`` base points
    and fibers for n consecutive samples, the ones for scaling j in rows
    j * n ... (j + 1) * n."""
    if any(lam <= 0 for lam in lambdas):
        raise ValueError("lambdas must be positive")
    lam = np.array([1.0, *lambdas])[:, None]
    step = max(1, CHUNK_NODES // len(lam))
    for start in range(0, len(Y), step):
        y, v = Y[start:start + step], V[start:start + step]
        yield lam, np.tile(y, (len(lam), 1)), (lam[:, :, None] * v).reshape(-1, V.shape[1])


def check_homogeneity(F: FinslerFunction, Y: np.ndarray, V: np.ndarray, lambdas) -> float:
    """Max relative residual of F(y, lambda v) = lambda F(y, v) over the
    samples ``Y`` ``(n, m)``, ``V`` ``(n, fiber_dim)``, such as
    :func:`_sample_fibers` draws, and the given positive scalings, from one
    evaluation of F per chunk of :func:`_scaled_samples`.  A NaN residual
    at any sample makes the result NaN, which fails every tolerance."""
    worst = 0.0
    for lam, Ys, Vs in _scaled_samples(Y, V, lambdas):
        values = F(Ys, Vs).reshape(len(lam), -1)
        base = lam[1:] * values[0]
        residual = np.abs(values[1:] - base) / (np.abs(base) + EPS_DEN)
        worst = np.maximum(worst, np.max(residual, initial=0.0))
    return float(worst)


def check_projectability(F: FinslerFunction, Y: np.ndarray, V: np.ndarray, lambdas) -> float:
    """Max residual of scale invariance of the fiber gradient over the
    samples ``Y``, ``V`` and the given positive scalings, from one
    evaluation of it per chunk of :func:`_scaled_samples`; NaN as in
    :func:`check_homogeneity`.

    0-homogeneity of dF/dv is the coordinate content of the Hilbert form
    descending to the ray space."""
    worst = 0.0
    for lam, Ys, Vs in _scaled_samples(Y, V, lambdas):
        grads = F.fiber_gradient(Ys, Vs).reshape(len(lam), -1, F.fiber_dim)
        worst = np.maximum(worst, np.max(np.abs(grads[1:] - grads[0]), initial=0.0))
    return float(worst)


def require_fit(L: FinslerFunction, k: int, m: int) -> None:
    """Raise DimensionMismatchError unless L is a degree-k Lagrangian on the
    C(m, k) lift components of a k-piece in dimension m; a curve is k = 1."""
    if (L.m, L.degree, L.fiber_dim) != (m, k, math.comb(m, k)):
        raise DimensionMismatchError(
            f"metric of degree {L.degree} on {L.fiber_dim} fiber components in metric dimension "
            f"{L.m} does not fit a {k}-piece in codomain dimension {m}"
        )


def pullback_identity_residual(L: FinslerFunction, f: DifferentiableMap, T) -> float:
    """Max residual of the Euler identity sum_I dL/dxi_I xi_I = L on the
    canonical lift (y, xi) of the k-parametrization f at the nodes ``T``,
    read as ``(N, k)``; this is the coordinate content of the pullback
    statement for the Hilbert form."""
    require_fit(L, f.domain_dim, f.codomain_dim)
    lift = canonical_lift(f, np.asarray(T, dtype=float).reshape(-1, f.domain_dim))
    Y, Xi = lift.base, lift.comps
    try:
        residual = _dot(L.fiber_gradient(Y, Xi), Xi) - L(Y, Xi)
    except SlitDomainError as exc:
        raise ImmersionError(f"{f.name}: degenerate lift ({exc})") from exc
    return float(np.max(np.abs(residual), initial=0.0))
