"""Differential forms on chart domains and their quadrature over pieces.

This module provides degree-k forms with per-multi-index coefficient
functions, pullback along differentiable maps, the exterior derivative,
tensor-product Gauss-Legendre integration over parametrized box pieces,
partition-of-unity splitting, and numerical verifiers for the three
integral identities the variational theory rests on: invariance under
orientation-preserving change of the integration domain, differentiation
under the integral sign, and the Stokes formula.

Shape contract: form coefficients receive a stack of chart points
``(N, m)`` and return ``(N,)``; :meth:`KForm.values` returns ``(N, C(m,k))``
(or ``(C(m,k),)`` for one point ``(m,)``).  Integrands handed to
:func:`integrate_scalar_over_box` receive quadrature nodes ``(N, k)``, also
for k = 1, and return ``(N,)``, or ``(p, N)`` for p integrals on one walk;
the integral is a float, or ``(p,)``.  Densities handed to
:func:`lift_integral` receive the nodes ``(N, k)`` and the canonical lift
at them, a :class:`kvector.Lift` with ``base`` ``(N, m)``, ``comps``
``(N, C(m,k))`` and their row maxima ``scale`` ``(N,)``, and return
``(N,)`` or ``(p, N)`` likewise.  Every
integral over a canonical lift goes through :func:`lift_integral`: a form
is the density <eta(y), xi>, a Lagrangian the density L(y, xi).
"""
from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DegeneratePieceWarning,
    DimensionMismatchError,
    EvaluationError,
    InvalidDegreeError,
    InvalidPartitionError,
    OrientationError,
    QuadratureTargetWarning,
)
from .kvector import Lift, _lift_minors, checked_lift, enumerate_multiindices, multiindex_ranks
from .maps import DifferentiableMap, compose, insert_axis_map

DEGENERACY_TOL = 1e-13
CHUNK_NODES = 4096  # quadrature nodes evaluated per integrand call
MAX_GAUSS_ORDER = 64  # nodes per cell and axis; the shipped scenarios use 8
MAX_CELLS_PER_AXIS = 4096  # before refinement; the shipped scenarios use at most 64
MAX_REFINEMENTS = 6  # doublings of the cells per axis in adaptive mode
COVER_OVERHANG = 0.35  # end windows of a uniform cover reach past the box by this many cells


class KForm:
    """A degree-k differential form on an m-dimensional chart domain.

    Parameters
    ----------
    k : int
        Degree.  Degree 0 (a scalar function) is admitted so that the
        bottom of the Stokes recursion is expressible.
    m : int
        Chart dimension.
    coeffs : sequence of callables
        One coefficient function per increasing multi-index, in rank order
        (a single entry for k = 0), each mapping ``(N, m)`` to ``(N,)``.
        Entries may be plain callables or :class:`ExprCoeff`; only the
        latter have partials, so :func:`exterior_derivative` takes only
        forms whose coefficients are all ExprCoeff.
    """

    def __init__(self, k: int, m: int, coeffs: Sequence[Callable]):
        self.k = int(k)
        self.m = int(m)
        if self.k < 0 or self.k > self.m:
            raise InvalidDegreeError(f"degree {self.k} not in 0..{self.m}")
        n_comp = 1 if self.k == 0 else math.comb(self.m, self.k)
        coeffs = list(coeffs)
        if len(coeffs) != n_comp:
            raise DimensionMismatchError(f"expected {n_comp} coefficients, got {len(coeffs)}")
        self.coeffs = coeffs

    @classmethod
    def from_dict(cls, k: int, m: int, entries: dict) -> "KForm":
        """Build from a {index tuple: coefficient} mapping; missing entries are 0.

        Each key is a strictly increasing k-tuple of indices in 1..m (the
        empty tuple for k = 0); any other key raises DimensionMismatchError.
        Coefficient values may be callables, ExprCoeff, expression strings,
        or numbers.  Strings and numbers are interned per process
        (:func:`grassvar.expressions.coefficient`): equal ones share one
        read-only ExprCoeff, in this form and in every other.
        """
        from .expressions import coefficient  # loaded only where a coefficient is built

        ranks = multiindex_ranks(k, m) if k else {(): 0}
        coeffs = [coefficient(0.0, m)] * len(ranks)
        for key, v in entries.items():
            key = tuple(key)
            if key not in ranks:
                raise DimensionMismatchError(
                    f"coefficient key {key} is not an increasing {k}-tuple in 1..{m}"
                )
            coeffs[ranks[key]] = coefficient(v, m)
        return cls(k, m, coeffs)

    def values(self, y) -> np.ndarray:
        """Coefficients at chart points ``(N, m)`` as ``(N, C(m,k))``."""
        y = np.asarray(y, dtype=float)
        Y = np.atleast_2d(y)
        out = np.empty((len(Y), len(self.coeffs)))
        for col, c in enumerate(self.coeffs):
            out[:, col] = c(Y)  # a constant is broadcast down its column
        if not np.isfinite(out).all():  # one flat test; rows are searched only on failure
            bad = ~np.isfinite(out).all(axis=1)
            raise EvaluationError(f"non-finite form coefficient at y={Y[bad][0]}")
        return out[0] if y.ndim < 2 else out


@dataclass(frozen=True)
class Piece:
    """A compact parameter box mapped into a chart, with an orientation flag."""

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


@lru_cache(maxsize=None)
def _gauss_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1]; read-only, since every
    walk shares the cached arrays."""
    x, w = np.polynomial.legendre.leggauss(order)
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
    weights ``(N,)``.

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
        T, W = np.empty((stop - start, k)), np.empty(stop - start)
        # [start, a) ends the first row, [a, b) is whole rows, [b, stop) begins the last
        a = min(-(-start // row) * row, stop)
        b = max(a, stop // row * row)
        for lo, hi in ((start, a), (a, b), (b, stop)):
            if lo == hi:
                continue
            rows = (hi - 1) // row - lo // row + 1
            col, cols = lo % row, (hi - lo) // rows
            r = slice(lo // row - first, lo // row - first + rows)
            block = T[lo - start:hi - start].reshape(rows, cols, k)
            for d, values in enumerate(row_T):
                block[:, :, d] = values[r, None]
            block[:, :, -1] = last[col:col + cols]
            np.multiply(row_W[r, None], last_w[col:col + cols],
                        out=W[lo - start:hi - start].reshape(rows, cols))
        yield T, W


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


def pullback(eta: KForm, f: DifferentiableMap) -> KForm:
    """Pull a degree-k form (k >= 1) on the codomain of f back to its domain.

    The coefficient at a target multi-index J is the minor expansion
    sum_I eta_I(f(t)) det(Jac(t)[I rows, J cols]).
    """
    if eta.m != f.codomain_dim:
        raise DimensionMismatchError(
            f"form lives in dimension {eta.m}, map codomain is {f.codomain_dim}"
        )
    n = f.domain_dim
    if eta.k > n:
        raise InvalidDegreeError(f"cannot pull a degree-{eta.k} form back to dimension {n}")

    def coeff(cols):
        def pulled(T):
            Y, J = f.value_and_jacobian(T)
            # the whole Jacobian is freed before the minors, and the columns
            # before the coefficients, so a chunk holds no more than apart
            J = J[:, :, cols]
            M = _lift_minors(J)
            del J
            return np.sum(eta.values(Y) * M, axis=1)

        return pulled

    return KForm(eta.k, n, [coeff([j - 1 for j in J]) for J in enumerate_multiindices(eta.k, n)])


def lift_integral(
    piece: Piece, density: Callable[[np.ndarray, Lift], np.ndarray], q: QuadratureSpec
) -> float:
    """Oriented integral over a piece of a density on its canonical lift.

    The one quadrature over canonical lifts, shared by :func:`integrate`,
    :func:`integrate_with_partition` and the functionals.  ``density(T,
    lift)`` follows the density contract of the module docstring.  Nodes
    where the lift vanishes are counted and reported by one
    DegeneratePieceWarning; a non-finite density raises EvaluationError.

    Each chunk is checked once: :func:`kvector.checked_lift` checks the
    map's values and Jacobians and, by their row maxima, the lift's
    components; the degenerate screen here and the slit test of a
    Lagrangian density (``FinslerFunction._on_lift``) reuse those maxima.
    The public :func:`kvector.canonical_lift` and ``FinslerFunction``
    calls keep every check of their own.
    """
    degenerate = 0

    def g(T):
        nonlocal degenerate
        lift = checked_lift(piece.map, T)
        # |xi| >= max |xi_I| in floating point: only rows under the max screen can count
        small = lift.comps[lift.scale <= DEGENERACY_TOL]
        degenerate += int(np.count_nonzero(np.linalg.norm(small, axis=1) <= DEGENERACY_TOL))
        vals = density(T, lift)
        if not np.isfinite(vals).all():  # one flat test; nodes are searched only on failure
            bad = ~np.isfinite(vals).reshape(-1, len(T)).all(axis=0)
            raise EvaluationError(f"non-finite integrand at t={T[bad][0]}")
        return vals

    result = piece.orientation * integrate_scalar_over_box(g, piece.param_box, q)
    if degenerate:
        warnings.warn(
            f"{piece.map.name}: canonical lift vanished at {degenerate} quadrature node(s)",
            DegeneratePieceWarning,
            stacklevel=3,
        )
    return result


def _paired(eta: KForm) -> Callable[[np.ndarray, Lift], np.ndarray]:
    """The density <eta(y), xi>: the form's coefficients paired with the lift."""
    return lambda T, lift: np.sum(eta.values(lift.base) * lift.comps, axis=1)


def integrate(eta: KForm, piece: Piece, q: QuadratureSpec = QuadratureSpec()) -> float:
    """Integral of a degree-k form over a k-piece.

    The form's coefficients are paired with the canonical lift of the
    piece's parametrization (the single top-degree coefficient of the
    pullback) and integrated by :func:`lift_integral`.  Nodes where the
    parametrization degenerates (zero canonical lift) raise a
    DegeneratePieceWarning but do not abort.
    """
    if eta.k != piece.k:
        raise InvalidDegreeError(f"form degree {eta.k} != piece dimension {piece.k}")
    if eta.k == 0:
        v = float(eta.values(piece.map(np.zeros(0)))[0])
        return piece.orientation * v
    if eta.m != piece.map.codomain_dim:
        raise DimensionMismatchError("form and piece live in different chart dimensions")
    return lift_integral(piece, _paired(eta), q)


# ---------------------------------------------------------------------------
# partition of unity
# ---------------------------------------------------------------------------

def _bump(u: np.ndarray) -> np.ndarray:
    # exp(-1/(1-u^2)) on (-1, 1); flat zero outside, masked before dividing
    inside = np.abs(u) < 1.0
    out = np.zeros_like(u)
    out[inside] = np.exp(-1.0 / (1.0 - u[inside] * u[inside]))
    return out


@dataclass(frozen=True)
class PartitionOfUnity:
    """Normalized product bumps subordinate to an overlapping subbox cover.

    Each cover member carries the product of one-dimensional mollifiers
    exp(-1/(1-u^2)) over its axes; the family is normalized pointwise by
    its sum, so it sums to 1 wherever the cover has no gap.  Cover boxes
    may overhang the ends of the integration box so that boundary points
    stay strictly inside some member's support.
    """

    cover: tuple

    def __post_init__(self):
        boxes = tuple(tuple((float(a), float(b)) for a, b in box) for box in self.cover)
        object.__setattr__(self, "cover", boxes)
        if not boxes:
            raise InvalidPartitionError("empty cover")

    def weights(self, t) -> np.ndarray:
        """All normalized partition functions at points ``(N, k)``: ``(len(cover), N)``."""
        T = np.atleast_2d(np.asarray(t, dtype=float))
        raw = np.array(
            [
                np.prod([_bump((2.0 * x - a - b) / (b - a)) for (a, b), x in zip(box, T.T)], 0)
                for box in self.cover
            ]
        )
        total = np.sum(raw, axis=0)
        gap = total <= 1e-300
        if np.any(gap):
            raise InvalidPartitionError(
                f"cover does not sum to 1 at t={T[gap][0]} (gap in cover)"
            )
        return raw / total

    @classmethod
    def uniform_cover(cls, box, pieces: int, overlap: float = 0.6) -> "PartitionOfUnity":
        """Overlapping windows, ``pieces`` per axis, as a product cover.

        ``overlap`` widens every window relative to the plain subdivision;
        the two end windows of each axis also reach ``COVER_OVERHANG`` cells
        beyond the box, so that the endpoints are interior to their support.
        """
        per_axis_windows = []
        for a, b in box:
            h = (b - a) / pieces
            wins = []
            for i in range(pieces):
                lo = a + i * h - overlap * h
                hi = a + (i + 1) * h + overlap * h
                if i == 0:
                    lo -= COVER_OVERHANG * h
                if i == pieces - 1:
                    hi += COVER_OVERHANG * h
                wins.append((lo, hi))
            per_axis_windows.append(wins)
        cover = tuple(tuple(combo) for combo in itertools.product(*per_axis_windows))
        return cls(cover)


def integrate_with_partition(
    eta: KForm, piece: Piece, pou: PartitionOfUnity, q: QuadratureSpec = QuadratureSpec()
) -> float:
    """Integral computed as the sum of bump-weighted integrals over the cover.

    Each term is integrated over the intersection of its cover box with the
    parameter box; the result must agree with :func:`integrate` up to
    quadrature error for any valid partition.
    """
    if eta.k != piece.k or eta.k == 0:
        raise InvalidDegreeError("partition integration expects matching positive degree")
    if eta.m != piece.map.codomain_dim:
        raise DimensionMismatchError("form and piece live in different chart dimensions")
    pairing = _paired(eta)
    parts = []
    for j, cover_box in enumerate(pou.cover):
        sub = [(max(a, lo), min(b, hi)) for (a, b), (lo, hi) in zip(piece.param_box, cover_box)]
        if any(a >= b for a, b in sub):
            continue

        def density(T, lift, _j=j):
            return pou.weights(T)[_j] * pairing(T, lift)

        parts.append(lift_integral(Piece(sub, piece.map, piece.orientation), density, q))
    return float(np.sum(np.asarray(parts)))


# ---------------------------------------------------------------------------
# exterior derivative and boundaries
# ---------------------------------------------------------------------------

def exterior_derivative(eta: KForm) -> KForm:
    """The degree-(k+1) form with coefficients
    (d eta)_J = sum_a (-1)^a d(eta_{J minus j_a}) / dy^{j_a}.

    Every coefficient must be an :class:`ExprCoeff`, whose partials are
    analytic; any other coefficient raises EvaluationError.  Each (d eta)_J
    is built once as an ExprCoeff from the signed partials, so a second
    application stays analytic; the sums are memoized, so a form with
    interned coefficients gets the same (d eta)_J objects every time.
    """
    from .expressions import ExprCoeff, signed_sum  # loaded only where a form is differentiated

    k, m = eta.k, eta.m
    if k + 1 > m:
        raise InvalidDegreeError(f"no degree-{k + 1} forms in dimension {m}")
    if not all(isinstance(c, ExprCoeff) for c in eta.coeffs):
        raise EvaluationError("exterior derivative needs ExprCoeff coefficients")
    coeffs = []
    for J in enumerate_multiindices(k + 1, m):
        signed = []  # (sign, source component, partial axis) per term of (d eta)_J
        for a, j in enumerate(J):
            rest = J[:a] + J[a + 1:]  # increasing, since J is
            signed.append(((-1) ** a, 0 if k == 0 else multiindex_ranks(k, m)[rest], j - 1))
        coeffs.append(signed_sum(tuple((s, eta.coeffs[c].partial(j)) for s, c, j in signed), m))
    return KForm(k + 1, m, coeffs)


def boundary_faces(piece: Piece) -> list[Piece]:
    """The 2k oriented faces of a k-piece's parameter box.

    The induced orientation is outward-normal-first: the face at the upper
    end of axis i carries the sign (-1)^(i-1) relative to the piece, the
    lower face the opposite sign.  For k = 1 the faces are 0-pieces (signed
    points).
    """
    k = piece.k
    if k == 0:
        return []
    faces = []
    for axis in range(1, k + 1):
        lo, hi = piece.param_box[axis - 1]
        rest = tuple(iv for d, iv in enumerate(piece.param_box) if d != axis - 1)
        for value, upper in ((hi, True), (lo, False)):
            sign = (-1) ** (axis - 1) if upper else (-1) ** axis
            inclusion = insert_axis_map(k, axis, value)
            faces.append(
                Piece(rest, compose(piece.map, inclusion), piece.orientation * sign)
            )
    return faces


# ---------------------------------------------------------------------------
# lemma verifiers
# ---------------------------------------------------------------------------

def verify_stokes(eta: KForm, piece: Piece, q: QuadratureSpec = QuadratureSpec()) -> float:
    """| integral of eta over the boundary - integral of d(eta) over the piece |."""
    if eta.k != piece.k - 1:
        raise InvalidDegreeError("Stokes check needs a form of degree k-1 on a k-piece")
    boundary = float(
        np.sum(np.asarray([integrate(eta, face, q) for face in boundary_faces(piece)]))
    )
    interior = integrate(exterior_derivative(eta), piece, q)
    return abs(boundary - interior)


def _check_orientation_preserving(alpha: DifferentiableMap, points: np.ndarray) -> None:
    det = _lift_minors(alpha.jacobian(points))[:, 0]
    bad = det <= 0.0
    if np.any(bad):
        raise OrientationError(
            f"{alpha.name}: Jacobian determinant {det[bad][0]:g} <= 0 at {points[bad][0]}"
        )


def verify_domain_transform(
    eta: KForm,
    alpha: DifferentiableMap,
    piece: Piece,
    q: QuadratureSpec = QuadratureSpec(),
) -> float:
    """Residual of the change-of-domain identity
    | integral_Omega eta  -  integral_{alpha^{-1}(Omega)} alpha^* eta |.

    ``alpha`` must be an orientation-preserving diffeomorphism of the chart
    with a catalog inverse; alpha^{-1}(Omega) is realized by precomposing
    the piece's parametrization with the inverse.
    """
    if alpha.domain_dim != alpha.codomain_dim or alpha.codomain_dim != eta.m:
        raise DimensionMismatchError("alpha must be a diffeomorphism of the form's chart")
    _check_orientation_preserving(alpha, alpha.inverted()(piece.map(piece.grid(3))))
    lhs = integrate(eta, piece, q)
    preimage = Piece(piece.param_box, compose(alpha.inverted(), piece.map), piece.orientation)
    rhs = integrate(pullback(eta, alpha), preimage, q)
    return abs(lhs - rhs)


def _scale_form(eta: KForm, factor: float) -> KForm:
    return KForm(
        eta.k,
        eta.m,
        [lambda Y, _c=c: factor * np.asarray(_c(Y), dtype=float) for c in eta.coeffs],
    )


PROFILE_FAMILIES = {
    "sin": (math.sin, math.cos),
    "linear": (lambda t: t, lambda t: 1.0),
    "constant": (lambda t: 1.0, lambda t: 0.0),
}


def verify_leibniz(
    eta: KForm,
    g: Callable[[float], float],
    g_dot: Callable[[float], float],
    piece: Piece,
    t0: float,
    dt_step: float = 1e-4,
    q: QuadratureSpec = QuadratureSpec(),
) -> float:
    """Residual of differentiation under the integral sign at t0 for the
    family eta_t = g(t) eta with analytic dg/dt = g_dot:
    | d/dt integral(eta_t) (central difference) - integral(g_dot(t0) eta) |."""
    plus = integrate(_scale_form(eta, float(g(t0 + dt_step))), piece, q)
    minus = integrate(_scale_form(eta, float(g(t0 - dt_step))), piece, q)
    lhs = (plus - minus) / (2.0 * dt_step)
    rhs = integrate(_scale_form(eta, float(g_dot(t0))), piece, q)
    return abs(lhs - rhs)
