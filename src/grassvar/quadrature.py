"""Tensor-product Gauss-Legendre quadrature over parametrized box pieces.

The one quadrature core that every functional, form integral and check
goes through: :class:`Piece` (a parameter box mapped into a chart),
:class:`QuadratureSpec`, the grid walk :func:`integrate_scalar_over_box`
and :func:`lift_integral`, the integral of a density on a piece's
canonical lift.  The work caps (Gauss order, cells, refinements, windows
of a partition of unity) live here too, so that the scenario schema reads
them without loading the form code.

Shape contract: integrands handed to :func:`integrate_scalar_over_box`
receive quadrature nodes ``(N, k)``, also for k = 1, and return ``(N,)``,
or ``(p, N)`` for p integrals on one walk; the integral is a float, or
``(p,)``.  Densities handed to :func:`lift_integral` receive the nodes
``(N, k)`` and the canonical lift at them, a :class:`kvector.Lift` with
``base`` ``(N, m)``, ``comps`` ``(N, C(m,k))`` and their row maxima
``scale`` ``(N,)``, and return ``(N,)`` or ``(p, N)`` likewise.  For
k >= 2 the nodes are stored component-major, the transpose of a
``(k, N)`` buffer, as the catalog maps store their values and Jacobians
and the lift its components (:mod:`grassvar.kvector`), so every axis and
component is one contiguous node column; a 1-D walk hands out ``(N, 1)``
slices of its axis.  A form is the density <eta(y), xi>, a Lagrangian the
density L(y, xi), on the lift xi of the oriented piece: reversing the
piece replaces xi by -xi.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import (
    DegeneratePieceWarning,
    DimensionMismatchError,
    EvaluationError,
    OrientationError,
    QuadratureTargetWarning,
)
from .kvector import Lift, canonical_lift
from .maps import DifferentiableMap

DEGENERACY_TOL = 1e-13
CHUNK_NODES = 4096  # quadrature nodes evaluated per integrand call
MAX_GAUSS_ORDER = 64  # nodes per cell and axis; the shipped scenarios use 8
MAX_CELLS_PER_AXIS = 4096  # before refinement; the shipped scenarios use at most 64
MAX_REFINEMENTS = 6  # doublings of the cells per axis in adaptive mode
MAX_COVERS = 16  # windows per axis of a uniform partition of unity; shipped inputs use 2 and 3


@dataclass(frozen=True)
class Piece:
    """A compact parameter box mapped into a chart; the orientation is the sign of its lift."""

    param_box: tuple
    map: DifferentiableMap
    orientation: int = 1

    def __post_init__(self):
        box = tuple((float(a), float(b)) for a, b in self.param_box)
        object.__setattr__(self, "param_box", box)
        if self.orientation not in (-1, 1):
            raise OrientationError("orientation must be +1 or -1")
        if self.map.domain_dim != len(box):
            raise DimensionMismatchError(
                f"map domain {self.map.domain_dim} != box dimension {len(box)}"
            )
        for a, b in box:
            if not a <= b:
                raise DimensionMismatchError(f"empty interval ({a}, {b})")

    @property
    def k(self) -> int:
        return len(self.param_box)

    def grid(self, per_axis: int = 3) -> np.ndarray:
        """Evenly spaced sample points of the box, ``(per_axis**k, k)``."""
        axes = [np.linspace(a, b, per_axis) for a, b in self.param_box]
        return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, self.k)


@dataclass(frozen=True)
class QuadratureSpec:
    """Tensor-product Gauss-Legendre settings; the order is at most
    ``MAX_GAUSS_ORDER``, the cells per axis at most ``MAX_CELLS_PER_AXIS``,
    and adaptive mode doubles the cells at most ``MAX_REFINEMENTS`` times."""

    gauss_order: int = 8
    cells_per_axis: int = 16
    adaptive: bool = False
    target: float = 1e-9

    def __post_init__(self):
        if not (
            1 <= self.gauss_order <= MAX_GAUSS_ORDER
            and 1 <= self.cells_per_axis <= MAX_CELLS_PER_AXIS
            and self.target > 0
        ):
            raise ValueError(
                f"gauss_order in 1..{MAX_GAUSS_ORDER}, cells_per_axis in 1..{MAX_CELLS_PER_AXIS}"
                ", target > 0 required"
            )


def _legval(x: np.ndarray, c: list) -> np.ndarray:
    """The Legendre series sum_j c[j] P_j at x by Clenshaw's recurrence, in
    the operation order of numpy's ``legval``."""
    if len(c) == 1:
        return c[0] + 0.0 * x
    c0, c1 = c[-2], c[-1]
    for nd in range(len(c) - 1, 1, -1):
        c0, c1 = c[nd - 2] - c1 * ((nd - 1) / nd), c0 + c1 * x * ((2 * nd - 1) / nd)
    return c0 + c1 * x


@lru_cache(maxsize=None)
def _gauss_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1]; read-only, since every
    walk shares the cached arrays.

    The nodes are the eigenvalues of the symmetric Jacobi matrix of the
    Legendre recurrence (G. H. Golub and J. H. Welsch, Math. Comp. 23,
    1969), refined by one Newton step on P_n; the weights are 1/(P_{n-1}
    P_n') at the nodes, symmetrized with the nodes and scaled to sum to 2.
    Every step is numpy's ``leggauss`` in its operation order, so the rule
    has the same bits without loading ``numpy.polynomial``.
    """
    n = order
    scale = 1.0 / np.sqrt(2 * np.arange(n) + 1)
    jacobi = np.zeros((n, n))
    jacobi.flat[1::n + 1] = jacobi.flat[n::n + 1] = np.arange(1, n) * scale[:-1] * scale[1:]
    x = np.linalg.eigvalsh(jacobi)
    p_n = [0.0] * n + [1.0]
    # P_n' = sum of (2j + 1) P_j over j = n-1, n-3, ...
    dy, df = _legval(x, p_n), _legval(x, [float(2 * j + 1) * ((n - j) % 2) for j in range(n)])
    x -= dy / df
    fm = _legval(x, p_n[1:])
    fm /= np.abs(fm).max()
    df /= np.abs(df).max()
    w = 1 / (fm * df)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= 2.0 / w.sum()
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _axis_nodes(a: float, b: float, q: QuadratureSpec, cells: int):
    """Nodes and weights on [a, b] subdivided into ``cells`` equal cells."""
    x, w = _gauss_rule(q.gauss_order)
    h = (b - a) / cells
    lo = a + np.arange(cells) * h
    weights = np.empty((cells, len(w)))
    weights[:] = 0.5 * h * w
    return (lo[:, None] + 0.5 * h * (x + 1.0)).ravel(), weights.ravel()


def _chunks(nodes, weights):
    """The tensor grid of the per-axis ``nodes`` and ``weights`` in row-major
    order, as ``(T, W)`` chunks of ``CHUNK_NODES`` nodes ``(N, k)`` and
    weights ``(N,)``; for k >= 2, ``T`` is the transpose of a ``(k, N)``
    block, one contiguous node column per axis.

    A row is a run of the last axis at fixed leading axes.  Each chunk is
    built from pieces that are either whole rows or a part of one row: the
    leading axes are gathered once per row and broadcast along it, the last
    axis is laid in as a slice, and a weight is the product of its node's
    per-axis weights in axis order (the order ``np.prod`` takes).  So the
    work per chunk is O(chunk) for any row length.  A 1-D grid is one row,
    and its chunks are slices.
    """
    *lead_nodes, last = nodes
    *lead_weights, last_w = weights
    lead_shape, row, k = tuple(map(len, lead_nodes)), len(last), len(nodes)
    size = row * math.prod(lead_shape)
    for start in range(0, size, CHUNK_NODES):
        stop = min(start + CHUNK_NODES, size)
        if k == 1:
            yield last[start:stop, None], last_w[start:stop]
            continue
        first = start // row
        lead = np.unravel_index(np.arange(first, (stop - 1) // row + 1), lead_shape)
        row_T = [n[i] for n, i in zip(lead_nodes, lead)]
        row_W = lead_weights[0][lead[0]]
        for w, i in zip(lead_weights[1:], lead[1:]):
            row_W *= w[i]
        T, W = np.empty((k, stop - start)), np.empty(stop - start)
        # [start, a) ends the first row, [a, b) is whole rows, [b, stop) begins the last
        a = min(-(-start // row) * row, stop)
        b = max(a, stop // row * row)
        for lo, hi in ((start, a), (a, b), (b, stop)):
            if lo == hi:
                continue
            rows = (hi - 1) // row - lo // row + 1
            col, cols = lo % row, (hi - lo) // rows
            r = slice(lo // row - first, lo // row - first + rows)
            block = T[:, lo - start:hi - start].reshape(k, rows, cols)
            for d, values in enumerate(row_T):
                block[d] = values[r, None]
            block[-1] = last[col:col + cols]
            np.multiply(row_W[r, None], last_w[col:col + cols],
                        out=W[lo - start:hi - start].reshape(rows, cols))
        yield T.T, W


def integrate_scalar_over_box(g: Callable[[np.ndarray], np.ndarray], box, q: QuadratureSpec):
    """Quadrature of a function over a product of intervals.

    ``g`` maps nodes ``(N, k)`` to values ``(N,)``, giving a float, or to p
    components ``(p, N)``, giving ``(p,)``; a zero-width box gives 0.0.  The
    tensor grid is walked in row-major order in chunks of ``CHUNK_NODES`` nodes
    and never built whole, so memory stays bounded at any refinement level.
    Each component's chunk sums are added in a fixed order, so results are
    deterministic and equal to walking that component alone.  In adaptive
    mode each component is accepted at the first level where its own
    estimate meets the target, with one QuadratureTargetWarning for each
    component that never does.
    """
    box = [(float(a), float(b)) for a, b in box]
    if any(b == a for a, b in box):
        return 0.0

    def fixed(cells: int) -> np.ndarray:
        nodes, weights = zip(*[_axis_nodes(a, b, q, cells) for a, b in box])
        total = 0.0
        for T, W in _chunks(nodes, weights):
            total = total + (W * np.asarray(g(T), dtype=float)).sum(axis=-1)
        return np.asarray(total)

    cells = q.cells_per_axis
    result = coarse = fixed(cells)
    if not q.adaptive:
        return float(result) if result.ndim == 0 else result
    pending = np.ones(result.shape, dtype=bool)  # components not yet accepted
    estimate = np.zeros(result.shape)
    for _ in range(MAX_REFINEMENTS):
        if not pending.any():
            break
        cells *= 2
        fine = fixed(cells)
        result = np.where(pending, fine, result)
        estimate = np.abs(fine - coarse)
        pending &= ~(estimate <= q.target)
        coarse = fine
    for missed in estimate[pending]:
        warnings.warn(
            f"adaptive refinement stopped at {cells} cells/axis with estimate "
            f"{missed:.3e} > {q.target:.3e}",
            QuadratureTargetWarning,
            stacklevel=2,
        )
    return float(result) if result.ndim == 0 else result


def lift_integral(
    piece: Piece, density: Callable[[np.ndarray, Lift], np.ndarray], q: QuadratureSpec
) -> float:
    """Integral over a piece of a density on the lift of the oriented piece.

    The one quadrature over canonical lifts, shared by the form integrals
    and the functionals.  ``density(T, lift)`` follows the density contract
    of the module docstring.  Nodes where the lift vanishes are counted and
    reported by one DegeneratePieceWarning; a non-finite density raises
    EvaluationError.

    Each chunk is checked once: :func:`kvector.canonical_lift` checks the
    map's values and Jacobians and, by their row maxima, the lift's
    components; the degenerate screen here and the slit test of a
    Lagrangian density (``FinslerFunction._on_lift``) reuse those maxima.
    """
    degenerate = 0

    def g(T):
        nonlocal degenerate
        lift = canonical_lift(piece.map, T)
        if piece.orientation == -1:  # fresh components, negated in place
            np.negative(lift.comps, out=lift.comps)
        # |xi| >= max |xi_I| in floating point: only rows under the max screen can count
        small = lift.comps[lift.scale <= DEGENERACY_TOL]
        degenerate += int(np.count_nonzero(np.linalg.norm(small, axis=1) <= DEGENERACY_TOL))
        vals = density(T, lift)
        if not np.isfinite(vals).all():  # one flat test; nodes are searched only on failure
            bad = ~np.isfinite(vals).reshape(-1, len(T)).all(axis=0)
            raise EvaluationError(f"non-finite integrand at t={T[bad][0]}")
        return vals

    result = integrate_scalar_over_box(g, piece.param_box, q)
    if degenerate:
        warnings.warn(
            f"{piece.map.name}: canonical lift vanished at {degenerate} quadrature node(s)",
            DegeneratePieceWarning,
            stacklevel=3,
        )
    return result
