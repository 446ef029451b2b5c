"""Rays of nonzero k-vectors under positive scaling, in pivot charts.

Two nonzero k-vectors are equivalent when one is a positive multiple of the
other.  A ray is represented in the chart of a pivot multi-index nu by the
ratios w^I = Xi^I / Xi^nu (signed division, so the ratios are genuinely
scale-invariant) together with the sign of the pivot component.  The w
array keeps a slot for every multi-index; the pivot slot stores the sign
label, which is +-1, so |w[nu]| = 1 exactly.  The sign distinguishes the
two half-charts over each pivot: rays with Xi^nu > 0 and rays with
Xi^nu < 0 (the ray of -Xi is a different point).

Shape contract: a pivot is the rank of its multi-index, its slot in ``w``.
A :class:`GrassmannPoint` is one ray (``base`` ``(m,)``, ``w`` ``(C(m,k),)``,
int ``pivot`` and ``pivot_sign``) or N rays (``(N, m)``, ``(N, C(m,k))``,
``(N,)``); every function works row-wise, and a stack raises if any row fails.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    NotInChartError,
    PivotDegenerateError,
    ZeroKVectorError,
)
from .kvector import KVector, enumerate_multiindices

PIVOT_TOL = 1e-12  # relative degeneracy threshold for pivot components


def _at(a: np.ndarray, r) -> np.ndarray:
    """``a[..., r]`` row by row, for one rank or one rank per row."""
    return np.take_along_axis(a, np.asarray(r)[..., None], axis=-1)[..., 0]


def _row(bad) -> str:
    """' (row i)' naming the first flagged row of a stack; '' for one point."""
    return f" (row {int(np.argmax(bad))})" if np.ndim(bad) else ""


@dataclass(frozen=True, eq=False)
class GrassmannPoint:
    """A ray of k-vectors at ``base`` in the chart of rank ``pivot``, or a stack of rays."""

    base: np.ndarray
    pivot: int | np.ndarray
    pivot_sign: int | np.ndarray
    w: np.ndarray
    k: int
    m: int

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float)
        lead = w.shape[:-1]
        pivot, sign = np.asarray(self.pivot), np.asarray(self.pivot_sign).astype(int)
        if not np.all(np.abs(sign) == 1):
            raise ValueError("pivot_sign must be +1 or -1")
        if not np.all(np.abs(_at(w, pivot)) == 1.0):
            raise ValueError("pivot slot of w must hold the sign label (+-1)")
        object.__setattr__(self, "base", np.asarray(self.base, dtype=float).reshape(lead + (-1,)))
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "pivot", pivot if lead else int(pivot))
        object.__setattr__(self, "pivot_sign", sign if lead else int(sign))

    def representative(self) -> KVector:
        """The scale-canonical k-vector of the ray (pivot component = sign)."""
        sign = np.asarray(self.pivot_sign)[..., None]
        comps = sign * self.w
        np.put_along_axis(comps, np.asarray(self.pivot)[..., None], sign, axis=-1)
        return KVector(self.base, comps, self.k, self.m)

    def __repr__(self) -> str:
        chart = f"pivot={self.pivot}, sign={self.pivot_sign}, base={self.base}, w={self.w}"
        return f"GrassmannPoint(k={self.k}, m={self.m}, {chart})"


def to_grassmann(xi: KVector, pivot=None) -> GrassmannPoint:
    """Chart representative of the ray of ``xi`` at ``pivot``, a rank or one per row.

    Without an explicit pivot, the multi-index with the largest absolute
    component is chosen (ties broken by lowest rank), which keeps the
    divisions well conditioned.
    """
    lead = xi.comps.shape[:-1]
    amax = np.max(np.abs(xi.comps), axis=-1)
    if np.any(amax == 0.0):
        raise ZeroKVectorError(f"zero k-vector has no ray{_row(amax == 0.0)}")
    if pivot is None:
        pivot = np.asarray(np.argmax(np.abs(xi.comps), axis=-1))  # the lowest rank on ties
    else:
        pivot, size = np.asarray(pivot), xi.comps.shape[-1]
        bad = pivot.dtype.kind not in "iu" or pivot.shape not in ((), lead)
        if bad or np.any((pivot < 0) | (pivot >= size)):
            raise DimensionMismatchError(f"pivot must be one rank in 0..{size - 1} per row")
        pivot = np.broadcast_to(pivot, lead)
    c = _at(xi.comps, pivot)
    degenerate = np.abs(c) <= PIVOT_TOL * amax
    if np.any(degenerate):
        nu = enumerate_multiindices(xi.k, xi.m)[pivot.flat[np.argmax(degenerate)]]
        raise PivotDegenerateError(
            f"component at pivot ({','.join(map(str, nu))}){_row(degenerate)} vanishes"
        )
    sign = np.where(c > 0, 1, -1)
    w = xi.comps / c[..., None]
    np.put_along_axis(w, pivot[..., None], sign[..., None], axis=-1)
    return GrassmannPoint(xi.base.copy(), pivot, sign, w, xi.k, xi.m)


def grassmann_transition(p: GrassmannPoint, new_pivot) -> GrassmannPoint:
    """Re-express each ray in the chart of ``new_pivot``, a rank or one per row."""
    try:
        return to_grassmann(p.representative(), new_pivot)
    except PivotDegenerateError as err:
        raise NotInChartError(f"ray not in the chart: {err}") from None
