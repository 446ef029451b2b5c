"""k-vectors in chart coordinates: wedges, lifts, and canonical sections.

A k-vector at a point y of an m-dimensional chart is stored as the array of
its components over strictly increasing multi-indices.  The lift of a
differentiable map acts on these components through the k-th compound
matrix of the Jacobian (the matrix of all k x k minors), which is the
coordinate form of pushing a wedge of tangent vectors forward::

    (lift Xi)^I = sum_J det(Jac[I rows, J cols]) Xi^J

Compound matrices are multiplicative in the Jacobian (Cauchy-Binet), which
makes the lift functorial under composition.

Shape contract: :func:`minors` is the one place where minors are
computed.  It takes a stack of Jacobians ``(..., m, n)`` and returns
``(..., C(m,k), C(n,k))``.  :func:`canonical_lift` at nodes ``(N, k)``
returns a :class:`KVector` stack with ``base`` ``(N, m)`` and ``comps``
``(N, C(m,k))``; at a single point ``(k,)`` it returns one k-vector.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    EvaluationError,
    InvalidDegreeError,
    OffSubmanifoldError,
    UnsupportedDegreeError,
)
from .maps import CanonicalInclusion, DifferentiableMap
from .multiindex import enumerate_multiindices, normalize_tuple, rank


@lru_cache(maxsize=None)
def _index_table(k: int, m: int) -> np.ndarray:
    """Zero-based rows of the increasing k-subsets of 0..m-1, in rank order;
    read-only, since every caller shares the cached array."""
    table = np.array(list(itertools.combinations(range(m), k)), dtype=np.intp)
    table.flags.writeable = False
    return table


def minors(J, k: int) -> np.ndarray:
    """All k x k minors of a stack of matrices, from one stacked determinant.

    ``J`` has shape ``(..., m, n)``; entry ``(..., r, c)`` of the result is
    det(J[..., I_r rows, K_c cols]) over the increasing multi-indices I_r
    of size k in 1..m and K_c in 1..n, both in rank order.
    """
    J = np.asarray(J, dtype=float)
    m, n = J.shape[-2:]
    if not 1 <= k <= min(m, n):
        raise InvalidDegreeError(f"degree {k} not in 1..min({m}, {n})")
    rows, cols = _index_table(k, m), _index_table(k, n)
    sub = J[..., rows[:, None, :, None], cols[None, :, None, :]]
    # C order at k = 1 as well: reductions over the strided fancy-index view
    # would sum in another order and move results in the last bit
    return np.ascontiguousarray(sub[..., 0, 0]) if k == 1 else np.linalg.det(sub)


@dataclass(frozen=True, eq=False)
class KVector:
    """An element of the k-th exterior power of the tangent space at ``base``,
    or a stack of N of them.

    ``comps[..., r]`` is the component at the multi-index of rank ``r`` in
    the lexicographic layout of ``enumerate_multiindices(k, m)``.  A single
    k-vector has ``base`` ``(m,)`` and ``comps`` ``(C(m,k),)``; a stack has
    ``base`` ``(N, m)`` and ``comps`` ``(N, C(m,k))``.
    """

    base: np.ndarray
    comps: np.ndarray
    k: int
    m: int

    def __post_init__(self):
        base = np.asarray(self.base, dtype=float)
        lead = base.shape[:1] if base.ndim == 2 else ()
        base = base.reshape(lead + (-1,))
        comps = np.asarray(self.comps, dtype=float).reshape(lead + (-1,))
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "comps", comps)
        if not 1 <= self.k <= self.m:
            raise InvalidDegreeError(f"degree {self.k} not in 1..{self.m}")
        if base.shape != lead + (self.m,):
            raise DimensionMismatchError(f"base must have length {self.m}")
        if comps.shape != lead + (math.comb(self.m, self.k),):
            raise DimensionMismatchError(
                f"expected {math.comb(self.m, self.k)} components, got {comps.shape[-1]}"
            )
        if not (np.all(np.isfinite(base)) and np.all(np.isfinite(comps))):
            raise EvaluationError("non-finite k-vector data")

    def scaled(self, factor: float) -> "KVector":
        return KVector(self.base, factor * self.comps, self.k, self.m)

    @property
    def norm(self):
        """Euclidean norm of the components; one per k-vector of a stack."""
        return np.linalg.norm(self.comps, axis=-1)

    def __repr__(self) -> str:
        return f"KVector(k={self.k}, m={self.m}, base={self.base}, comps={self.comps})"


def wedge(vectors: Sequence, base) -> KVector:
    """Wedge product of k tangent vectors at a common base point.

    The component at multi-index I is the minor of the m x k column matrix
    [v_1 ... v_k] with rows selected by I; the result is decomposable by
    construction.
    """
    cols = [np.asarray(v, dtype=float).reshape(-1) for v in vectors]
    k = len(cols)
    if k == 0:
        raise InvalidDegreeError("wedge needs at least one vector")
    m = cols[0].shape[0]
    for v in cols:
        if v.shape != (m,):
            raise DimensionMismatchError("all wedge factors must have equal dimension")
    if k > m:
        raise InvalidDegreeError(f"cannot wedge {k} vectors in dimension {m}")
    return KVector(np.asarray(base, dtype=float), minors(np.column_stack(cols), k)[:, 0], k, m)


def compound_matrix(J: np.ndarray, k: int) -> np.ndarray:
    """k-th compound of J: entry (I, K) = det(J[I rows, K cols]); J may be a
    stack ``(..., m, n)``."""
    return minors(J, k)


def lift_kvector(f: DifferentiableMap, x, xi: KVector) -> KVector:
    """Push the k-vector ``xi`` at ``x`` forward through ``f``.

    Returns the k-vector at f(x) whose components are the compound matrix
    of the Jacobian applied to ``xi.comps``.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    if xi.m != f.domain_dim:
        raise DimensionMismatchError(
            f"k-vector lives in dimension {xi.m}, map domain is {f.domain_dim}"
        )
    if not np.allclose(x, xi.base, rtol=1e-9, atol=1e-12):
        raise DimensionMismatchError("k-vector is not based at the given point")
    if xi.k > min(f.domain_dim, f.codomain_dim):
        raise InvalidDegreeError(
            f"degree {xi.k} exceeds min({f.domain_dim}, {f.codomain_dim})"
        )
    comps = compound_matrix(f.jacobian(x), xi.k) @ xi.comps
    return KVector(f(x), comps, xi.k, f.codomain_dim)


def canonical_field(t, k: int) -> KVector:
    """The basis k-vector d/dt^1 ^ ... ^ d/dt^k at the point t of R^n."""
    t = np.asarray(t, dtype=float).reshape(-1)
    n = t.shape[0]
    if not 1 <= k <= n:
        raise InvalidDegreeError(f"degree {k} not in 1..{n}")
    comps = np.zeros(math.comb(n, k))
    comps[0] = 1.0  # (1,...,k) is first in lexicographic order
    return KVector(t, comps, k, n)


def canonical_lift(f: DifferentiableMap, t) -> KVector:
    """Lift a parametrization f: R^k -> chart through the canonical field.

    Equals the wedge of the k Jacobian columns of f at t, based at f(t).
    ``t`` is one point ``(k,)`` or a stack of nodes ``(N, k)``.
    """
    k = f.domain_dim
    if k > f.codomain_dim:
        raise InvalidDegreeError(
            f"parametrization domain {k} exceeds chart dimension {f.codomain_dim}"
        )
    return KVector(f(t), minors(f.jacobian(t), k)[..., 0], k, f.codomain_dim)


@dataclass(frozen=True)
class AdaptedChart:
    """An explicit chart adapted to a k-dimensional submanifold: the
    submanifold is cut out by y^{k+1} = ... = y^m = 0."""

    k: int
    m: int
    surface_tol: float = 1e-10

    def __post_init__(self):
        if not 1 <= self.k <= self.m:
            raise InvalidDegreeError(f"degree {self.k} not in 1..{self.m}")

    def parametrization(self) -> DifferentiableMap:
        return CanonicalInclusion(self.k, self.m).inclusion

    def projection(self) -> DifferentiableMap:
        return CanonicalInclusion(self.k, self.m).projection


def canonical_section_along_s(chart: AdaptedChart, y) -> KVector:
    """Value of the canonical section at a point of the adapted submanifold.

    The section assigns to y = (y^1..y^k, 0..0) the k-vector with component
    1 at (1,...,k) and 0 elsewhere; it equals the canonical lift of the
    chart's parametrization composed with its projection.
    """
    y = np.asarray(y, dtype=float).reshape(-1)
    if y.shape != (chart.m,):
        raise DimensionMismatchError(f"point must have length {chart.m}")
    tail = y[chart.k :]
    scale = max(1.0, float(np.max(np.abs(y))))
    if np.any(np.abs(tail) > chart.surface_tol * scale):
        raise OffSubmanifoldError(
            f"trailing coordinates {tail} exceed tolerance {chart.surface_tol:g}"
        )
    base = y.copy()
    base[chart.k :] = 0.0
    comps = np.zeros(math.comb(chart.m, chart.k))
    comps[0] = 1.0
    return KVector(base, comps, chart.k, chart.m)


def exterior_product_comps(
    a: np.ndarray, ka: int, b: np.ndarray, kb: int, m: int
) -> np.ndarray:
    """Components of the wedge of two antisymmetric component arrays."""
    kc = ka + kb
    if kc > m:
        return np.zeros(0)
    out = np.zeros(math.comb(m, kc))
    idx_a = enumerate_multiindices(ka, m)
    idx_b = enumerate_multiindices(kb, m)
    for ra, I in enumerate(idx_a):
        if a[ra] == 0.0:
            continue
        for rb, Jx in enumerate(idx_b):
            if b[rb] == 0.0 or set(I.indices) & set(Jx.indices):
                continue
            K, sign = normalize_tuple(I.indices + Jx.indices, m)
            out[rank(K)] += sign * a[ra] * b[rb]
    return out


def plucker_residual(xi: KVector) -> float:
    """Euclidean norm of Xi ^ Xi; zero iff a 2-vector is decomposable.

    Only degree 2 is supported: for k >= 3 decomposability is governed by
    quadratic relation systems that this package does not implement.
    """
    if xi.k != 2:
        raise UnsupportedDegreeError("plucker_residual supports degree 2 only")
    square = exterior_product_comps(xi.comps, 2, xi.comps, 2, xi.m)
    if square.size == 0:  # m < 4: every 2-vector is decomposable
        return 0.0
    return float(np.linalg.norm(square))
