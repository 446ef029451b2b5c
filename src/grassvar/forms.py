"""Differential forms on chart domains and the integral identities.

This module provides degree-k forms with per-multi-index coefficient
functions, pullback along differentiable maps, the integral of a form over
a piece, partition-of-unity splitting, the exterior derivative, the
oriented boundary faces of a piece, and numerical verifiers for the three
integral identities the variational theory rests on: invariance under
orientation-preserving change of the integration domain, differentiation
under the integral sign, and the Stokes formula.  Every integral here is a
:func:`quadrature.lift_integral` of the density <eta(y), xi>.

Shape contract: form coefficients receive a stack of chart points
``(N, m)`` and return ``(N,)``; :meth:`KForm.values` returns ``(N, C(m,k))``
(or ``(C(m,k),)`` for one point ``(m,)``).

Only a run that reads a form loads this module; the functionals need
:mod:`grassvar.quadrature` alone.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    EvaluationError,
    InvalidDegreeError,
    InvalidPartitionError,
    OrientationError,
)
from .kvector import Lift, _lift_minors, enumerate_multiindices, multiindex_ranks
from .maps import DifferentiableMap, compose, insert_axis_map
from .quadrature import MAX_COVERS, Piece, QuadratureSpec, lift_integral
# unused here: bench/tracing.py finds the quadrature walk as forms.integrate_scalar_over_box
from .quadrature import integrate_scalar_over_box  # noqa: F401

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
        ``pieces`` is at most ``MAX_COVERS``, which bounds the cover at
        MAX_COVERS**k boxes.
        """
        if not 1 <= pieces <= MAX_COVERS:
            raise InvalidPartitionError(
                f"cover pieces per axis must be in 1..{MAX_COVERS}, got {pieces!r}"
            )
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
