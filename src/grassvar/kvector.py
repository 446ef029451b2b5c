"""k-vectors in chart coordinates: the multi-index layout, minors and lifts.

A k-vector at a point y of an m-dimensional chart is stored as the array of
its components over strictly increasing multi-indices.  This module owns
that layout: :func:`enumerate_multiindices` lists the increasing k-tuples
in 1..m in lexicographic order, the position in that list is a tuple's
rank, and every component array, minor table and form coefficient list in
the package is laid out in rank order.  The canonical lift of a
parametrization f: R^k -> chart at t is the wedge of the k Jacobian
columns of f at t, whose components are the k x k minors of that
Jacobian::

    (lift f)^I(t) = det(Jac f(t)[I rows, :])

Shape contract: the one minors kernel, :func:`_lift_minors`, takes a stack
of k-column matrices ``(..., m, k)`` and returns their minors
``(..., C(m,k))``, the components of the wedge of the columns, by Laplace
expansion along the last column from the (k-1)-minors of the first k - 1
columns; the canonical lift and the pullback call it on their k-column
Jacobians.  For k >= 2 a node stack of minors ``(N, C(m,k))`` is
component-major, the transpose of a ``(C(m,k), N)`` buffer, like the maps'
values and Jacobians (:mod:`grassvar.maps`), so each minor is one
contiguous node column; for k = 1 the minors are the entries, copied in C
order, which the curve Lagrangians' row reductions read.
:func:`canonical_lift` is the one builder of the lift: at nodes ``(N, k)``
it returns a :class:`Lift` with ``base`` ``(N, m)``, ``comps`` ``(N,
C(m,k))`` and their row maxima ``scale`` ``(N,)``; at a single point
``(k,)`` the shapes are ``(m,)``, ``(C(m,k),)`` and a 0-d ``scale``.
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


@lru_cache(maxsize=None)
def _laplace_terms(j: int, m: int) -> tuple:
    """The Laplace expansion along the last column of the j x j minors of an
    ``(m, j)`` matrix, j >= 2: per increasing row set in rank order, one
    ``(row, rank, plus)`` per row of the set, the last row first.  The
    row's entry in the last column multiplies the minor of the first j - 1
    columns on the other rows, the (j-1)-row set of rank ``rank``; the
    product is added if ``plus``, else subtracted, and the first is added."""
    ranks = multiindex_ranks(j - 1, m)
    return tuple(
        tuple((rows[p] - 1, ranks[rows[:p] + rows[p + 1:]], (j - 1 - p) % 2 == 0)
              for p in reversed(range(j)))
        for rows in enumerate_multiindices(j, m)
    )


def _lift_minors(J: np.ndarray) -> np.ndarray:
    """The k x k minors of matrices ``(..., m, k)``, k <= m, in one
    ``(..., C(m,k))`` array.

    Column r is det(J[..., I_r rows, :]) over the increasing row sets I_r in
    rank order.  For j = 2..k the j x j minors of the first j columns are
    expanded along their j-th column from the (j-1)-minors, on column views
    of J, with the terms added in the order of :func:`_laplace_terms`:
    sum_j C(m,j) j products in all.  For k = 2 that is J[a,0] J[b,1] -
    J[b,0] J[a,1], each product and the difference rounded once.  Every
    minor is elementwise arithmetic on its own matrix, so a stack gives the
    same bits as each of its matrices alone, in any layout; besides the
    ``(C(m,j), N)`` buffers of two consecutive degrees, the one temporary
    is a node column.  For k >= 2 the columns are the rows of one
    ``(C(m,k), N)`` buffer, so a node stack ``(N, C(m,k))`` comes back
    component-major; for k = 1 the entries are copied in C order.
    """
    m, k = J.shape[-2:]
    if k == 1:  # the minors are the entries
        return J[..., 0].copy()
    stack = J.reshape((-1, m, k))
    lower = [stack[:, i, 0] for i in range(m)]  # the minors of the first column
    term = np.empty(len(stack))
    for j in range(2, k + 1):
        out = np.empty((math.comb(m, j), len(stack)))
        for col, terms in zip(out, _laplace_terms(j, m)):
            for n, (row, rank, plus) in enumerate(terms):
                into = col if n == 0 else term
                np.multiply(lower[rank], stack[:, row, j - 1], out=into)
                if n:
                    (np.add if plus else np.subtract)(col, term, out=col)
        lower = out
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
    """A k-vector given from outside, read by the ray charts: an element of
    the k-th exterior power of the tangent space at ``base``, or a stack of
    N of them, every array checked.

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

    def __repr__(self) -> str:
        return f"KVector(k={self.k}, m={self.m}, base={self.base}, comps={self.comps})"


class Lift(NamedTuple):
    """The canonical lift of a parametrization, as :func:`canonical_lift`
    makes it: ``base`` and ``comps`` laid out as in a :class:`KVector`, and
    ``scale``, the row maxima of |comps| (:func:`maps.row_max_abs`), which
    the degenerate-node screen and the slit test share.  ``base`` is stored
    as the map returns it, component-major for the catalog's trig and
    polynomial maps, and ``comps`` of a stack for k >= 2 is component-major
    (:func:`_lift_minors`), so their columns are contiguous."""

    base: np.ndarray
    comps: np.ndarray
    scale: np.ndarray


def canonical_lift(f: DifferentiableMap, t) -> Lift:
    """Lift a parametrization f: R^k -> chart through the canonical field.

    Equals the wedge of the k Jacobian columns of f at t, based at f(t).
    ``t`` is one point ``(k,)`` or a stack of nodes ``(N, k)``.  Each array
    is checked once: f's ``value_and_jacobian`` checks the values and the
    Jacobians, and the minors are built from them in their shapes.  The
    minors can overflow from a finite Jacobian; the row maxima are finite
    exactly when every component is (max propagates NaN), so testing them
    is the one finiteness test of the components.
    """
    if f.domain_dim > f.codomain_dim:
        raise InvalidDegreeError(
            f"parametrization domain {f.domain_dim} exceeds chart dimension {f.codomain_dim}"
        )
    Y, J = f.value_and_jacobian(t)
    comps = _lift_minors(J)
    scale = row_max_abs(comps) if comps.ndim == 2 else row_max_abs(comps[None])[0]
    if not np.isfinite(scale).all():
        raise EvaluationError("non-finite k-vector data")
    return Lift(Y, comps, scale)
