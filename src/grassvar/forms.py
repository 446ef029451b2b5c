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
for k = 1, and return ``(N,)``.
"""
from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
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
from .expressions import ExprCoeff
from .kvector import canonical_lift, minors
from .maps import DifferentiableMap, compose, insert_axis_map
from .multiindex import enumerate_multiindices, normalize_tuple, rank

DEGENERACY_TOL = 1e-13
CHUNK_NODES = 4096  # quadrature nodes evaluated per integrand call


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
        latter contribute analytic partials.
    fd_step : float
        Central-difference step used for partials of non-symbolic
        coefficients.
    """

    def __init__(self, k: int, m: int, coeffs: Sequence[Callable], fd_step: float = 1e-5):
        self.k = int(k)
        self.m = int(m)
        if self.k < 0 or self.k > self.m:
            raise InvalidDegreeError(f"degree {self.k} not in 0..{self.m}")
        n_comp = 1 if self.k == 0 else math.comb(self.m, self.k)
        coeffs = list(coeffs)
        if len(coeffs) != n_comp:
            raise DimensionMismatchError(f"expected {n_comp} coefficients, got {len(coeffs)}")
        self.coeffs = coeffs
        self.fd_step = float(fd_step)

    @classmethod
    def from_dict(cls, k: int, m: int, entries: dict, fd_step: float = 1e-5) -> "KForm":
        """Build from a {index tuple: coefficient} mapping; missing entries are 0.

        Coefficient values may be callables, ExprCoeff, expression strings,
        or numbers.
        """
        def lift(v):
            if callable(v):
                return v
            if isinstance(v, str):
                return ExprCoeff(v, m)
            return ExprCoeff(float(v), m)

        if k == 0:
            return cls(0, m, [lift(entries.get((), 0.0))], fd_step)
        coeffs = [lift(0.0)] * math.comb(m, k)
        for key, v in entries.items():
            idx, sign = normalize_tuple(tuple(key), m)
            if sign == 0:
                raise DimensionMismatchError(f"repeated index in {key}")
            if sign < 0:
                raise DimensionMismatchError(f"use increasing index order in {key}")
            coeffs[rank(idx)] = lift(v)
        return cls(k, m, coeffs, fd_step)

    @property
    def is_symbolic(self) -> bool:
        return all(isinstance(c, ExprCoeff) for c in self.coeffs)

    def values(self, y) -> np.ndarray:
        """Coefficients at chart points ``(N, m)`` as ``(N, C(m,k))``."""
        y = np.asarray(y, dtype=float)
        Y = np.atleast_2d(y)
        out = np.stack(
            [np.broadcast_to(np.asarray(c(Y), dtype=float), Y.shape[:1]) for c in self.coeffs],
            axis=-1,
        )
        bad = ~np.isfinite(out).all(axis=1)
        if np.any(bad):
            raise EvaluationError(f"non-finite form coefficient at y={Y[bad][0]}")
        return out[0] if y.ndim < 2 else out

    def partial(self, comp: int, j: int, Y: np.ndarray) -> np.ndarray:
        """d(coeffs[comp])/dy^{j+1} at chart points ``(N, m)``, analytic when available."""
        c = self.coeffs[comp]
        if isinstance(c, ExprCoeff):
            return c.partial(j)(Y)
        step = np.zeros_like(Y)
        step[:, j] = self.fd_step
        return (c(Y + step) - c(Y - step)) / (2.0 * self.fd_step)


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
        return _grid(self.param_box, per_axis)


def _grid(box, per_axis: int) -> np.ndarray:
    axes = np.meshgrid(*[np.linspace(a, b, per_axis) for a, b in box], indexing="ij")
    return np.stack(axes, axis=-1).reshape(-1, len(box))


@dataclass(frozen=True)
class QuadratureSpec:
    """Tensor-product Gauss-Legendre settings."""

    gauss_order: int = 8
    cells_per_axis: int = 16
    adaptive: bool = False
    target: float = 1e-9
    max_refinements: int = 6

    def __post_init__(self):
        if self.gauss_order < 1 or self.cells_per_axis < 1:
            raise ValueError("gauss_order and cells_per_axis must be >= 1")


def _axis_nodes(a: float, b: float, q: QuadratureSpec, cells: int):
    """Nodes and weights on [a, b] subdivided into ``cells`` equal cells."""
    x, w = np.polynomial.legendre.leggauss(q.gauss_order)
    h = (b - a) / cells
    lo = a + np.arange(cells) * h
    return (lo[:, None] + 0.5 * h * (x + 1.0)).ravel(), np.tile(0.5 * h * w, cells)


def integrate_scalar_over_box(
    g: Callable[[np.ndarray], np.ndarray], box, q: QuadratureSpec
) -> float:
    """Quadrature of a scalar function over a product of intervals.

    ``g`` maps nodes ``(N, k)`` to values ``(N,)``.  The tensor grid is
    walked by flat index in chunks of ``CHUNK_NODES`` nodes and never built
    whole, so memory stays bounded at any refinement level.  Each chunk's
    weighted sum is added in a fixed order, so results are deterministic.
    """
    box = [(float(a), float(b)) for a, b in box]
    if any(b == a for a, b in box):
        return 0.0

    def fixed(cells: int) -> float:
        nodes, weights = zip(*[_axis_nodes(a, b, q, cells) for a, b in box])
        shape = tuple(len(n) for n in nodes)
        size = math.prod(shape)
        total = 0.0
        for start in range(0, size, CHUNK_NODES):
            idx = np.unravel_index(np.arange(start, min(start + CHUNK_NODES, size)), shape)
            T = np.stack([n[i] for n, i in zip(nodes, idx)], axis=1)
            W = np.prod(np.stack([w[i] for w, i in zip(weights, idx)], axis=1), axis=1)
            total += float(np.sum(W * np.asarray(g(T), dtype=float).reshape(len(T))))
        return total

    if not q.adaptive:
        return fixed(q.cells_per_axis)

    cells = q.cells_per_axis
    coarse = fixed(cells)
    for _ in range(q.max_refinements):
        cells *= 2
        fine = fixed(cells)
        estimate = abs(fine - coarse)
        if estimate <= q.target:
            return fine
        coarse = fine
    warnings.warn(
        f"adaptive refinement stopped at {cells} cells/axis with estimate "
        f"{estimate:.3e} > {q.target:.3e}",
        QuadratureTargetWarning,
        stacklevel=2,
    )
    return fine


def pullback(eta: KForm, f: DifferentiableMap) -> KForm:
    """Pull a degree-k form on the codomain of f back to its domain.

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
    if eta.k == 0:
        return KForm(0, n, [lambda T: eta.values(f(T))[:, 0]], eta.fd_step)

    def coeff(cols):
        def pulled(T):
            M = minors(f.jacobian(T)[:, :, cols], eta.k)[:, :, 0]
            return np.sum(eta.values(f(T)) * M, axis=1)

        return pulled

    return KForm(
        eta.k, n, [coeff([j - 1 for j in J]) for J in enumerate_multiindices(eta.k, n)], eta.fd_step
    )


def _on_lift(eta: KForm, f: DifferentiableMap, T: np.ndarray):
    """(eta paired with the canonical lift of f, lift norm) at nodes ``(N, k)``."""
    lift = canonical_lift(f, T)
    return np.sum(eta.values(lift.base) * lift.comps, axis=1), lift.norm


def integrate(eta: KForm, piece: Piece, q: QuadratureSpec = QuadratureSpec()) -> float:
    """Integral of a degree-k form over a k-piece.

    The form's coefficients are paired with the canonical lift of the
    piece's parametrization (the single top-degree coefficient of the
    pullback), integrated over the parameter box with tensor-product
    Gauss-Legendre quadrature and weighted by the orientation flag.  Nodes
    where the parametrization degenerates (zero canonical lift) raise a
    DegeneratePieceWarning but do not abort.
    """
    if eta.k != piece.k:
        raise InvalidDegreeError(f"form degree {eta.k} != piece dimension {piece.k}")
    if eta.k == 0:
        v = float(eta.values(piece.map(np.zeros(0)))[0])
        return piece.orientation * v
    if eta.m != piece.map.codomain_dim:
        raise DimensionMismatchError("form and piece live in different chart dimensions")

    degenerate = 0

    def g(T):
        nonlocal degenerate
        vals, wnorm = _on_lift(eta, piece.map, T)
        degenerate += int(np.count_nonzero(wnorm <= DEGENERACY_TOL))
        bad = ~np.isfinite(vals)
        if np.any(bad):
            raise EvaluationError(f"non-finite integrand at t={T[bad][0]}")
        return vals

    result = piece.orientation * integrate_scalar_over_box(g, piece.param_box, q)
    if degenerate:
        warnings.warn(
            f"{piece.map.name}: canonical lift vanished at {degenerate} quadrature node(s)",
            DegeneratePieceWarning,
            stacklevel=2,
        )
    return result


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

    @property
    def size(self) -> int:
        return len(self.cover)

    def weights(self, t) -> np.ndarray:
        """All normalized partition functions at points ``(N, k)``: ``(size, N)``."""
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

    def chi(self, j: int, t):
        """The j-th normalized partition function at a point ``(k,)`` or points ``(N, k)``."""
        w = self.weights(t)[j]
        return float(w[0]) if np.ndim(t) < 2 else w

    def check_sums_to_one(self, box, per_axis: int = 9, tol: float = 1e-10) -> float:
        """Max |sum_j chi_j - 1| over a sample grid of ``box``."""
        worst = float(np.max(np.abs(np.sum(self.weights(_grid(box, per_axis)), axis=0) - 1.0)))
        if worst > tol:
            raise InvalidPartitionError(f"partition sums deviate from 1 by {worst:g}")
        return worst

    @classmethod
    def uniform_cover(
        cls, box, pieces_per_axis, overlap: float = 0.6, overhang: float = 0.35
    ) -> "PartitionOfUnity":
        """Overlapping windows, ``pieces_per_axis[d]`` per axis, as a product cover.

        ``overlap`` widens every window relative to the plain subdivision;
        ``overhang`` additionally extends the two end windows of each axis
        beyond the box so that the endpoints are interior to their support.
        """
        if isinstance(pieces_per_axis, int):
            pieces_per_axis = [pieces_per_axis] * len(box)
        per_axis_windows = []
        for (a, b), n in zip(box, pieces_per_axis):
            h = (b - a) / n
            wins = []
            for i in range(n):
                lo = a + i * h - overlap * h
                hi = a + (i + 1) * h + overlap * h
                if i == 0:
                    lo -= overhang * h
                if i == n - 1:
                    hi += overhang * h
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
    total_parts = []
    for j in range(pou.size):
        sub = []
        for (a, b), (lo, hi) in zip(piece.param_box, pou.cover[j]):
            ca, cb = max(a, lo), min(b, hi)
            if ca >= cb:
                sub = None
                break
            sub.append((ca, cb))
        if sub is None:
            continue

        def g(T, _j=j):
            return pou.chi(_j, T) * _on_lift(eta, piece.map, T)[0]

        total_parts.append(integrate_scalar_over_box(g, sub, q))
    return piece.orientation * float(np.sum(np.asarray(total_parts)))


# ---------------------------------------------------------------------------
# exterior derivative and boundaries
# ---------------------------------------------------------------------------

def exterior_derivative(eta: KForm) -> KForm:
    """The degree-(k+1) form with coefficients
    (d eta)_J = sum_a (-1)^a d(eta_{J minus j_a}) / dy^{j_a}.

    Partials are analytic (symbolic coefficients) or central differences
    with the form's fd_step; symbolic input yields symbolic output, so a
    second application stays analytic.
    """
    k, m = eta.k, eta.m
    if k + 1 > m:
        raise InvalidDegreeError(f"no degree-{k + 1} forms in dimension {m}")
    tgt_idx = enumerate_multiindices(k + 1, m)

    if eta.is_symbolic:
        import sympy as sp

        coeffs = []
        for J in tgt_idx:
            total = sp.S.Zero
            for a, j in enumerate(J.indices):
                rest = tuple(i for i in J.indices if i != j)
                src = eta.coeffs[0] if k == 0 else eta.coeffs[rank(normalize_tuple(rest, m)[0])]
                total += (-1) ** a * sp.diff(src.expr, src.vars[j - 1])
            coeffs.append(ExprCoeff(total, m))
        return KForm(k + 1, m, coeffs, eta.fd_step)

    def make_coeff(J):
        def coeff(y):
            total = 0.0
            for a, j in enumerate(J.indices):
                rest = tuple(i for i in J.indices if i != j)
                comp = 0 if k == 0 else rank(normalize_tuple(rest, m)[0])
                total += (-1.0) ** a * eta.partial(comp, j - 1, y)
            return total

        return coeff

    return KForm(k + 1, m, [make_coeff(J) for J in tgt_idx], eta.fd_step)


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
    det = minors(alpha.jacobian(points), alpha.domain_dim)[:, 0, 0]
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


@dataclass(frozen=True)
class ParametricFormFamily:
    """A one-parameter family t -> g(t) * eta0 with analytic dg/dt."""

    base: KForm
    profile: Callable[[float], float]
    profile_dot: Callable[[float], float]

    def form_at(self, t: float) -> KForm:
        g = float(self.profile(t))
        return _scale_form(self.base, g)

    def dform_at(self, t: float) -> KForm:
        g = float(self.profile_dot(t))
        return _scale_form(self.base, g)


def _scale_form(eta: KForm, factor: float) -> KForm:
    return KForm(
        eta.k,
        eta.m,
        [lambda Y, _c=c: factor * np.asarray(_c(Y), dtype=float) for c in eta.coeffs],
        eta.fd_step,
    )


PROFILE_FAMILIES = {
    "sin": (math.sin, math.cos),
    "linear": (lambda t: t, lambda t: 1.0),
    "constant": (lambda t: 1.0, lambda t: 0.0),
}


def verify_leibniz(
    family: ParametricFormFamily,
    piece: Piece,
    t0: float,
    dt_step: float = 1e-4,
    q: QuadratureSpec = QuadratureSpec(),
) -> float:
    """Residual of differentiation under the integral sign at t0:
    | d/dt integral(eta_t) (central difference) - integral(d eta_t / dt) |."""
    plus = integrate(family.form_at(t0 + dt_step), piece, q)
    minus = integrate(family.form_at(t0 - dt_step), piece, q)
    lhs = (plus - minus) / (2.0 * dt_step)
    rhs = integrate(family.dform_at(t0), piece, q)
    return abs(lhs - rhs)
