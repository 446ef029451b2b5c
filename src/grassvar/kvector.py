"""k-vectors in chart coordinates: the multi-index layout, minors and lifts.

A k-vector at a point y of an m-dimensional chart is stored as the array of
its components over strictly increasing multi-indices.  This module owns
that layout: :func:`enumerate_multiindices` lists the increasing k-tuples
in 1..m in lexicographic order, the position in that list is a tuple's
rank, and every component array, minor table and form coefficient list in
the package is laid out in rank order.  The lift of a differentiable map
acts on the components through the k-th compound matrix of the Jacobian
(the matrix of all k x k minors), which is the coordinate form of pushing
a wedge of tangent vectors forward::

    (lift Xi)^I = sum_J det(Jac[I rows, J cols]) Xi^J

Compound matrices are multiplicative in the Jacobian (Cauchy-Binet), which
makes the lift functorial under composition.

Shape contract: the one minors kernel, :func:`_lift_minors`, takes a stack
of k-column matrices ``(..., m, k)`` and returns their minors
``(..., C(m,k))``, the components of the wedge of the columns; the
canonical lift, the pullback and the orientation test call it on their
k-column Jacobians.  For k >= 2 a node stack of minors ``(N, C(m,k))`` is
component-major, the transpose of a ``(C(m,k), N)`` buffer, like the
maps' values and Jacobians (:mod:`grassvar.maps`), so each minor is one
contiguous node column; for k = 1 the minors are the entries, copied in C
order, which the curve Lagrangians' row reductions read.  :func:`minors`
stacks it over the increasing column sets of ``(..., m, n)`` into the
compound matrices ``(..., C(m,k), C(n,k))``.  :func:`canonical_lift` at
nodes ``(N, k)`` returns a :class:`KVector` stack with ``base`` ``(N, m)``
and ``comps`` ``(N, C(m,k))``; at a single point ``(k,)`` it returns one
k-vector.  :func:`checked_lift` is the quadrature's form of it: a
:class:`Lift` of the same arrays with their row maxima.
:func:`lift_kvector` takes points ``(N, n)`` and a k-vector stack based
there and returns the N lifts; one point ``(n,)`` is the N = 1 case.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatchError, EvaluationError, InvalidDegreeError
from .maps import DifferentiableMap, row_max_abs


@lru_cache(maxsize=None)
def enumerate_multiindices(k: int, m: int) -> tuple[tuple[int, ...], ...]:
    """All C(m, k) increasing k-tuples in 1..m, in lexicographic (rank) order."""
    if not 1 <= k <= m:
        raise InvalidDegreeError(f"degree {k} not in 1..{m}")
    return tuple(itertools.combinations(range(1, m + 1), k))


@lru_cache(maxsize=None)
def multiindex_ranks(k: int, m: int) -> dict[tuple[int, ...], int]:
    """Rank of each increasing k-tuple in 1..m; any other tuple is not a key.
    The cached dict is shared, so callers only read it."""
    return {index: r for r, index in enumerate(enumerate_multiindices(k, m))}


def minors(J, k: int) -> np.ndarray:
    """All k x k minors of a stack of matrices: their k-th compound matrices.

    ``J`` has shape ``(..., m, n)``; entry ``(..., r, c)`` of the result is
    det(J[..., I_r rows, K_c cols]) over the increasing multi-indices I_r
    of size k in 1..m and K_c in 1..n, both in rank order.  Column c is
    :func:`_lift_minors` of the k columns K_c: one kernel call on the stack
    ``(..., C(n,k), m, k)`` of all column sets, with the bits of a call per
    set, as the kernel is elementwise per matrix.  The result is C-contiguous.
    """
    J = np.asarray(J, dtype=float)
    m, n = J.shape[-2:]
    if not 1 <= k <= min(m, n):
        raise InvalidDegreeError(f"degree {k} not in 1..min({m}, {n})")
    cols = np.array(enumerate_multiindices(k, n)) - 1
    stacked = np.moveaxis(J[..., cols], -3, -2)  # (..., m, C(n,k), k) -> (..., C(n,k), m, k)
    return np.ascontiguousarray(np.swapaxes(_lift_minors(stacked), -1, -2))


@lru_cache(maxsize=None)
def _lift_terms(k: int, m: int) -> tuple:
    """The Leibniz terms of the minors of an ``(m, k)`` matrix, k >= 2: per
    increasing row set in rank order, the ``((row, col), ...)`` factors of
    each permutation of the k columns with its oddness (by its inversion
    count), the permutations in lexicographic order, the identity first."""
    perms = [
        (p, sum(p[i] > p[j] for i in range(k) for j in range(i + 1, k)) % 2 == 1)
        for p in itertools.permutations(range(k))
    ]
    return tuple(
        tuple((tuple(zip(rows, perm)), odd) for perm, odd in perms)
        for rows in itertools.combinations(range(m), k)
    )


def _lift_minors(J: np.ndarray) -> np.ndarray:
    """The k x k minors of matrices ``(..., m, k)``, k <= m, by the Leibniz
    sum, in one ``(..., C(m,k))`` array.

    Column r is det(J[..., I_r rows, :]) over the increasing row sets I_r in
    rank order, the sum over permutations s of sign(s) prod_i
    J[..., I_r[i], s(i)], written into its column from column views of J
    with the terms added in permutation order.  Every minor is elementwise
    arithmetic on its own matrix, so a stack gives the same bits as each of
    its matrices alone, in any layout, and no temporary is wider than a
    node column.  For k >= 2 the columns are the rows of one ``(C(m,k),
    N)`` buffer, so a node stack ``(N, C(m,k))`` comes back component-major;
    for k = 1 the entries are copied in C order.
    """
    m, k = J.shape[-2:]
    if k == 1:  # the minors are the entries
        return J[..., 0].copy()
    stack = J.reshape((-1, m, k))
    out = np.empty((math.comb(m, k), len(stack)))
    term = np.empty(len(stack))
    for col, terms in zip(out, _lift_terms(k, m)):
        for j, (factors, odd) in enumerate(terms):
            into = col if j == 0 else term
            (a, b), (c, d), *rest = factors
            np.multiply(stack[:, a, b], stack[:, c, d], out=into)
            for a, b in rest:
                np.multiply(into, stack[:, a, b], out=into)
            if j:
                (np.subtract if odd else np.add)(col, term, out=col)
    return out.T.reshape(J.shape[:-2] + out.shape[:1])


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise sums of a * b for two stacks ``(N, c)``, such as a form's
    coefficients and the lift they pair with, bit for bit
    ``np.sum(a * b, axis=1)`` on the stacks in C order, on any layout, from
    column products, so no temporary is wider than a column; each column of
    a component-major stack is contiguous.  numpy sums a C-order row of
    fewer than 8 numbers in order, and one of 8 to 128 pairwise: eight
    running sums of every 8th number, combined as ((r0 + r1) + (r2 + r3)) +
    ((r4 + r5) + (r6 + r7)), then the rest in order; it adds the row's sum
    to +0.0, so a sum of -0.0 reads +0.0.  Wider rows go to numpy in C
    order."""
    c = a.shape[1]
    if c > 128:
        return np.sum(np.multiply(a, b, order="C"), axis=1)
    term = lambda j: a[:, j] * b[:, j]
    head, lanes = (c - c % 8, 8) if c >= 8 else (c, 1)
    r = [term(j) for j in range(lanes)]
    for j in range(lanes, head):
        r[j % lanes] += term(j)
    s = r[0] if lanes == 1 else ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for j in range(head, c):
        s += term(j)
    s += 0.0
    return s


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

    @property
    def norm(self):
        """Euclidean norm of the components; one per k-vector of a stack,
        summed from a C-order copy of a component-major one, as numpy's
        order of summation follows the strides."""
        return np.linalg.norm(np.ascontiguousarray(self.comps), axis=-1)

    def __repr__(self) -> str:
        return f"KVector(k={self.k}, m={self.m}, base={self.base}, comps={self.comps})"


def lift_kvector(f: DifferentiableMap, x, xi: KVector) -> KVector:
    """Push the k-vector ``xi`` at ``x`` forward through ``f``.

    Returns the k-vector at f(x) whose components are the compound matrix
    of the Jacobian (its k x k minors) applied to ``xi.comps``.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if xi.m != f.domain_dim:
        raise DimensionMismatchError(
            f"k-vector lives in dimension {xi.m}, map domain is {f.domain_dim}"
        )
    if x.shape != xi.base.shape or not np.allclose(x, xi.base, rtol=1e-9, atol=1e-12):
        raise DimensionMismatchError(f"k-vectors at {xi.base.shape} not based at points {x.shape}")
    # minors raises InvalidDegreeError for k > m; a row-wise sum, since a
    # stacked matmul rounds a row apart from the same row alone
    Y, J = f.value_and_jacobian(x)
    comps = np.sum(minors(J, xi.k) * xi.comps[..., None, :], axis=-1)
    return KVector(Y, comps, xi.k, f.codomain_dim)


def _canonical_minors(f: DifferentiableMap, t) -> tuple[np.ndarray, np.ndarray]:
    """``(f(t), the k x k minors of its Jacobian columns)`` at ``t``, from one
    checked fused call of f."""
    if f.domain_dim > f.codomain_dim:
        raise InvalidDegreeError(
            f"parametrization domain {f.domain_dim} exceeds chart dimension {f.codomain_dim}"
        )
    Y, J = f.value_and_jacobian(t)
    return Y, _lift_minors(J)


def canonical_lift(f: DifferentiableMap, t) -> KVector:
    """Lift a parametrization f: R^k -> chart through the canonical field.

    Equals the wedge of the k Jacobian columns of f at t, based at f(t).
    ``t`` is one point ``(k,)`` or a stack of nodes ``(N, k)``.  The
    k-vector makes every check of :class:`KVector`.
    """
    return KVector(*_canonical_minors(f, t), f.domain_dim, f.codomain_dim)


class Lift(NamedTuple):
    """The canonical lift at a stack of nodes, as :func:`checked_lift` makes
    it: ``base`` ``(N, m)`` and ``comps`` ``(N, C(m,k))`` as in a
    :class:`KVector` stack, and ``scale``, the row maxima of |comps|
    (:func:`maps.row_max_abs`), which the degenerate-node screen and the
    slit test share.  ``base`` is stored as the piece's map returns it,
    component-major for the catalog's trig and polynomial maps, and
    ``comps`` for k >= 2 is component-major (:func:`_lift_minors`), so
    their columns are contiguous."""

    base: np.ndarray
    comps: np.ndarray
    scale: np.ndarray


def checked_lift(f: DifferentiableMap, T: np.ndarray) -> Lift:
    """The canonical lift of f at nodes ``(N, k)``, each array checked once.

    f's ``value_and_jacobian`` checks the values and the Jacobians, and the
    minors are built from them in their shapes, so no :class:`KVector` is
    made to check them again.  The minors can overflow from a finite
    Jacobian; the row maxima are finite exactly when every component is
    (max propagates NaN), so testing them is the one finiteness test of the
    components, with the error :class:`KVector` raises.
    """
    Y, comps = _canonical_minors(f, T)
    scale = row_max_abs(comps)
    if not np.isfinite(scale).all():
        raise EvaluationError("non-finite k-vector data")
    return Lift(Y, comps, scale)
