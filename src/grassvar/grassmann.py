"""Rays of nonzero k-vectors under positive scaling, in pivot charts.

Two nonzero k-vectors are equivalent when one is a positive multiple of the
other.  A ray is represented in the chart of a pivot multi-index nu by the
ratios w^I = Xi^I / Xi^nu (signed division, so the ratios are genuinely
scale-invariant) together with the sign of the pivot component.  The w
array keeps a slot for every multi-index; the pivot slot stores the sign
label, which is +-1, so |w[nu]| = 1 exactly.  The sign distinguishes the
two half-charts over each pivot: rays with Xi^nu > 0 and rays with
Xi^nu < 0 (the ray of -Xi is a different point).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    ImmersionError,
    NotInChartError,
    PivotDegenerateError,
    ZeroKVectorError,
)
from .kvector import KVector, canonical_lift
from .maps import DifferentiableMap
from .multiindex import MultiIndex, enumerate_multiindices, rank

PIVOT_TOL = 1e-12  # relative degeneracy threshold for pivot components


@dataclass(frozen=True, eq=False)
class GrassmannPoint:
    """A ray of k-vectors at ``base`` in the chart of ``pivot``."""

    base: np.ndarray
    pivot: MultiIndex
    pivot_sign: int
    w: np.ndarray
    k: int
    m: int

    def __post_init__(self):
        object.__setattr__(self, "base", np.asarray(self.base, dtype=float).reshape(-1))
        object.__setattr__(self, "w", np.asarray(self.w, dtype=float).reshape(-1))
        if self.pivot_sign not in (-1, 1):
            raise ValueError("pivot_sign must be +1 or -1")
        if abs(self.w[rank(self.pivot)]) != 1.0:
            raise ValueError("pivot slot of w must hold the sign label (+-1)")

    def representative(self) -> KVector:
        """The scale-canonical k-vector of the ray (pivot component = sign)."""
        comps = self.pivot_sign * self.w
        comps[rank(self.pivot)] = float(self.pivot_sign)
        return KVector(self.base, comps, self.k, self.m)

    def __repr__(self) -> str:
        return (
            f"GrassmannPoint(pivot={self.pivot}, sign={self.pivot_sign:+d}, "
            f"base={self.base}, w={self.w})"
        )


def equivalent(xi1: KVector, xi2: KVector, tol: float = 1e-9) -> bool:
    """True iff xi1 = lambda xi2 for some lambda > 0 (same base point).

    lambda is fixed from the largest-magnitude component and verified on
    all others within relative ``tol``.
    """
    if (xi1.k, xi1.m) != (xi2.k, xi2.m):
        raise DimensionMismatchError("degree/dimension mismatch")
    n1, n2 = np.max(np.abs(xi1.comps)), np.max(np.abs(xi2.comps))
    if n1 == 0.0 or n2 == 0.0:
        raise ZeroKVectorError("equivalence is defined for nonzero k-vectors")
    if not np.allclose(xi1.base, xi2.base, rtol=tol, atol=tol):
        raise DimensionMismatchError("k-vectors based at different points")
    i = int(np.argmax(np.abs(xi2.comps)))
    lam = xi1.comps[i] / xi2.comps[i]
    if lam <= 0.0:
        return False
    return bool(np.max(np.abs(xi1.comps - lam * xi2.comps)) <= tol * n1)


def to_grassmann(xi: KVector, pivot: MultiIndex | None = None) -> GrassmannPoint:
    """Chart representative of the ray of ``xi``.

    Without an explicit pivot, the multi-index with the largest absolute
    component is chosen (ties broken by lowest rank), which keeps the
    divisions well conditioned.
    """
    amax = float(np.max(np.abs(xi.comps)))
    if amax == 0.0:
        raise ZeroKVectorError("zero k-vector has no ray")
    if pivot is None:
        r = int(np.argmax(np.abs(xi.comps)))  # argmax returns the lowest rank on ties
        pivot = enumerate_multiindices(xi.k, xi.m)[r]
    else:
        if (pivot.k, pivot.m) != (xi.k, xi.m):
            raise DimensionMismatchError("pivot degree/dimension mismatch")
        r = rank(pivot)
    c = float(xi.comps[r])
    if abs(c) <= PIVOT_TOL * amax:
        raise PivotDegenerateError(f"component at pivot {pivot} vanishes")
    sign = 1 if c > 0 else -1
    w = xi.comps / c
    w[r] = float(sign)
    return GrassmannPoint(xi.base.copy(), pivot, sign, w, xi.k, xi.m)


def grassmann_transition(p: GrassmannPoint, new_pivot: MultiIndex) -> GrassmannPoint:
    """Re-express a ray in the chart of ``new_pivot``."""
    rep = p.representative()
    r = rank(new_pivot)
    if abs(rep.comps[r]) <= PIVOT_TOL * float(np.max(np.abs(rep.comps))):
        raise NotInChartError(f"ray not in the chart of pivot {new_pivot}")
    return to_grassmann(rep, new_pivot)


def grassmann_canonical_lift(f: DifferentiableMap, t) -> GrassmannPoint:
    """Ray of the canonical lift of a parametrization at t."""
    kv = canonical_lift(f, t)
    if float(np.max(np.abs(kv.comps))) == 0.0:
        raise ImmersionError(f"{f.name}: parametrization not immersed at t={t}")
    return to_grassmann(kv)


def points_close(
    p: GrassmannPoint, q: GrassmannPoint, tol: float = 1e-12, base_tol: float | None = None
) -> bool:
    """Field-wise comparison after transporting q into p's chart."""
    if (p.k, p.m) != (q.k, q.m):
        return False
    q = grassmann_transition(q, p.pivot)
    if q.pivot_sign != p.pivot_sign:
        return False
    if base_tol is None:
        base_tol = tol
    return bool(
        np.allclose(p.base, q.base, rtol=base_tol, atol=base_tol)
        and np.max(np.abs(p.w - q.w)) <= tol
    )
