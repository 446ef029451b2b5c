"""Parameter-invariant functionals: curve length, k-area, first variation.

The value of the functional on a parametrized piece is the quadrature of
the fiber Lagrangian evaluated on the canonical lift of the
parametrization, by :func:`forms.lift_integral`.  Length is the k = 1
case: one lift integral serves length, area, reparametrization and first
variation.  For degree-1 metrics the length is recomputed through the
Hilbert form, as the integral of its value sum_nu dF/dv_nu(zeta, zeta')
zeta'^nu on the lift (zeta, zeta') of the curve, and the two routes must
agree whenever the metric is positively homogeneous; that cross-check
runs by default.

The homogeneity probe runs once per public call.  Every public call walks
the quadrature grid once: the cross-checked length integrates both routes
as two components of one density, and a first-variation call stacks all
its perturbed lengths on one node stack per quadrature chunk.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    CrossCheckError,
    DimensionMismatchError,
    ImmersionError,
    MapEvaluationError,
    NonHomogeneousWarning,
    OrientationError,
    SlitDomainError,
    VariationConsistencyWarning,
)
from .finsler import FinslerFunction, check_homogeneity
from .forms import Piece, QuadratureSpec, lift_integral
from .maps import DifferentiableMap, compose

DUAL_ROUTE_TOL = 1e-10
_PROBE_SEED = 12345  # fixed: the probe must not perturb caller-visible RNG state


def _homogeneity_probe(F: FinslerFunction, tol: float = 1e-8) -> bool:
    rng = np.random.default_rng(_PROBE_SEED)
    try:
        residual = check_homogeneity(F, rng, sample_count=8, lambdas=(0.5, 2.0))
    except SlitDomainError:
        return False
    if residual > tol:
        warnings.warn(
            f"{F.kind}: homogeneity residual {residual:.3g}; the functional value "
            "is parametrization-dependent",
            NonHomogeneousWarning,
            stacklevel=3,
        )
        return False
    return True


def curve_length(
    F: FinslerFunction,
    curve: DifferentiableMap,
    interval,
    q: QuadratureSpec = QuadratureSpec(),
    cross_check: bool = True,
) -> float:
    """Length of a curve under a degree-1 fundamental function.

    The areal value of F on the curve as a 1-piece, i.e. the integral of
    t -> F(zeta(t), zeta'(t)).  When the homogeneity probe passes and
    ``cross_check`` is on, the same grid walk also integrates the Hilbert
    route of :func:`hilbert_route_length`: the density is the stack
    [F(zeta, zeta'), sum_nu dF/dv_nu(zeta, zeta') zeta'^nu], whose first
    component the quadrature sums exactly as it would alone, adaptive
    levels included.  Disagreement beyond 1e-10 raises CrossCheckError.
    """
    piece = _curve_piece(F, curve, interval)
    homogeneous = _homogeneity_probe(F)
    if not (cross_check and homogeneous):
        return _lift_value(F, piece, q)

    def both_routes(T, lift):
        return np.stack([F(lift.base, lift.comps), _hilbert_value(F, lift)])

    # a zero-width interval integrates to the scalar 0.0
    direct, via_hilbert = map(float, np.broadcast_to(_lift_value(F, piece, q, both_routes), (2,)))
    if abs(direct - via_hilbert) > DUAL_ROUTE_TOL * max(1.0, abs(direct)):
        raise CrossCheckError(
            f"direct length {direct!r} and Hilbert-form length {via_hilbert!r} disagree"
        )
    return direct


def hilbert_route_length(
    F: FinslerFunction,
    curve: DifferentiableMap,
    interval,
    q: QuadratureSpec = QuadratureSpec(),
) -> float:
    """Length computed solely through the Hilbert form: the integral of the
    form's value sum_nu dF/dv_nu(zeta, zeta') zeta'^nu on the lift
    (zeta, zeta').  This is the integral of :func:`finsler.hilbert_form`
    over the map t -> (zeta, zeta'), whose dv block has zero coefficients."""
    return lift_integral(
        _curve_piece(F, curve, interval), lambda T, lift: _hilbert_value(F, lift), q
    )


def _hilbert_value(F: FinslerFunction, lift) -> np.ndarray:
    """The Hilbert form's value sum_nu dF/dv_nu(zeta, zeta') zeta'^nu on a lift."""
    return np.sum(F.fiber_gradient(lift.base, lift.comps) * lift.comps, axis=1)


def areal_value(
    L: FinslerFunction,
    piece: Piece,
    q: QuadratureSpec = QuadratureSpec(),
) -> float:
    """Value of a k-homogeneous areal Lagrangian on a k-piece.

    The integrand is L evaluated on the components of the canonical lift
    of the piece's parametrization; for the ``areal_gram`` kind this is
    the classical k-area (square root of the Gram determinant).
    """
    k, m = piece.k, piece.map.codomain_dim
    if (L.m, L.degree, L.fiber_dim) != (m, k, math.comb(m, k)):
        raise DimensionMismatchError(
            f"Lagrangian of degree {L.degree} on {L.fiber_dim} fiber components in dimension "
            f"{L.m} does not fit a {k}-piece in dimension {m}"
        )
    _homogeneity_probe(L)
    return _lift_value(L, piece, q)


def _lift_value(L: FinslerFunction, piece: Piece, q: QuadratureSpec, density=None):
    """Oriented quadrature of L on the canonical lift of the piece, or of a
    ``density`` that evaluates L."""
    try:
        return lift_integral(piece, density or (lambda T, lift: L(lift.base, lift.comps)), q)
    except SlitDomainError as exc:
        raise ImmersionError(f"{piece.map.name}: degenerate lift ({exc})") from exc


def _curve_piece(F: FinslerFunction, curve: DifferentiableMap, interval) -> Piece:
    """The curve over ``interval`` as a 1-piece, after checking it fits F."""
    if F.degree != 1:
        raise DimensionMismatchError(f"curve_length needs a degree-1 metric, not degree {F.degree}")
    if curve.domain_dim != 1:
        raise DimensionMismatchError(f"curve_length needs a 1-D domain, got {curve.domain_dim}-D")
    if curve.codomain_dim != F.m:
        raise DimensionMismatchError(
            f"metric dimension {F.m} differs from curve codomain dimension {curve.codomain_dim}"
        )
    return Piece((tuple(interval),), curve)


def reparam_invariance_residual(
    F: FinslerFunction,
    curve: DifferentiableMap,
    interval,
    rho: DifferentiableMap,
    q: QuadratureSpec = QuadratureSpec(),
) -> float:
    """| length(zeta over [a,b]) - length(zeta o rho over rho^{-1}([a,b])) |.

    ``rho`` is checked and inverted by :func:`reparametrized`.
    """
    piece = _curve_piece(F, curve, interval)
    composed, preimage = reparametrized(curve, piece.param_box[0], rho)
    _homogeneity_probe(F)
    L1 = _lift_value(F, piece, q)
    L2 = _lift_value(F, Piece((preimage,), composed), q)
    return abs(L1 - L2)


def reparametrized(
    curve: DifferentiableMap, interval, rho: DifferentiableMap
) -> tuple[DifferentiableMap, tuple[float, float]]:
    """The curve zeta o rho and the interval rho^{-1}([a, b]) it runs over.

    ``rho`` must be a strictly increasing reparametrization (checked at the
    quadrature resolution); its endpoint preimages come from
    :func:`_preimages`.
    """
    if rho.domain_dim != 1 or rho.codomain_dim != 1:
        raise DimensionMismatchError("reparametrization must map an interval to an interval")
    sa, sb = _preimages(rho, interval)
    S = np.linspace(sa, sb, 64).reshape(-1, 1)
    bad = rho.jacobian(S)[:, 0, 0] <= 0.0
    if np.any(bad):
        raise OrientationError(f"{rho.name}: derivative not positive at s={S[bad][0, 0]}")
    return compose(curve, rho), (sa, sb)


def _preimages(rho: DifferentiableMap, values) -> tuple[float, ...]:
    """s with rho(s) = value for each of ``values``, for a strictly increasing rho.

    A catalog inverse is called once per value.  Without one, every value's
    bracket [value - j, value + j] is widened (j = 1, 2, 4, ... 2^79) until
    it holds a sign change of rho - value, then bisected until its midpoint
    no longer lies strictly inside it, i.e. to floating-point resolution.
    A value still unbracketed after the last widening, or when rho stops
    being finite at the widened ends, raises OrientationError.  The values
    are solved as one stack: one call of rho per step.
    """
    if rho.has_inverse:
        return tuple(float(rho.inverted()(np.array([v]))[0]) for v in values)
    values = np.array(values, dtype=float)
    n = len(values)
    lo, hi = values - 1.0, values + 1.0
    found = np.zeros(n, dtype=bool)
    for widening in range(80):
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                f = rho(np.concatenate([lo, hi])[:, None])[:, 0] - np.concatenate([values, values])
        except MapEvaluationError:
            if not widening:
                raise
            break  # rho is no longer finite at the widened ends
        flo, fhi = f[:n], f[n:]
        found = (flo == 0.0) | (fhi == 0.0) | ((flo < 0.0) & (0.0 < fhi))
        if found.all():
            break
        # a bracketed value stays bracketed, so every value still open has
        # half-width 2**widening; doubling it moves each end by as much
        lo[~found] -= 2.0**widening
        hi[~found] += 2.0**widening
    if not found.all():
        raise OrientationError(
            f"{rho.name}: could not bracket a preimage of {values[~found][0]}"
        )
    s = np.where(flo == 0.0, lo, hi)  # the bisected values are overwritten below
    todo = np.flatnonzero((flo != 0.0) & (fhi != 0.0))
    while True:
        mid = 0.5 * (lo[todo] + hi[todo])
        s[todo] = mid
        inside = (lo[todo] < mid) & (mid < hi[todo])
        todo, mid = todo[inside], mid[inside]
        if not len(todo):
            return tuple(map(float, s))
        fmid = rho(mid[:, None])[:, 0] - values[todo]
        lo[todo] = np.where(fmid < 0.0, mid, lo[todo])
        hi[todo] = np.where(fmid > 0.0, mid, hi[todo])
        todo = todo[fmid != 0.0]


@dataclass(frozen=True)
class VariationField:
    """A compactly supported deformation direction along a curve.

    The field vanishes at both interval endpoints (checked to 1e-14), so
    curve endpoints stay fixed under the perturbed family zeta + eps V.
    """

    map: DifferentiableMap
    interval: tuple

    def __post_init__(self):
        a, b = float(self.interval[0]), float(self.interval[1])
        object.__setattr__(self, "interval", (a, b))
        for end in (a, b):
            v = self.map(np.array([end]))
            if float(np.max(np.abs(v))) > 1e-14:
                raise DimensionMismatchError(
                    f"variation field does not vanish at endpoint {end}"
                )

    @classmethod
    def sine_bump(cls, interval, mode: int, coord: int, dim: int) -> "VariationField":
        """sin(pi * mode * (t-a)/(b-a)) along coordinate ``coord`` (0-based)."""
        a, b = float(interval[0]), float(interval[1])
        mu = math.pi * mode / (b - a)
        e = np.zeros(dim)
        e[coord] = 1.0

        def ev(T):
            # clamp exact endpoint values to 0 (sin of a multiple of pi)
            s = T - a
            return np.where((s == 0.0) | (T == b), 0.0, np.sin(mu * s)) * e

        def jac(T):
            return (mu * np.cos(mu * (T - a)) * e)[:, :, None]

        return cls(DifferentiableMap(f"sine_bump_{mode}_{coord}", 1, dim, ev, jac), (a, b))

    @classmethod
    def radial_sine_bump(cls, interval, mode: int) -> "VariationField":
        """Bump-weighted radial direction (cos t, sin t) for planar circle arcs."""
        a, b = float(interval[0]), float(interval[1])
        mu = math.pi * mode / (b - a)

        def radial(T):
            return np.concatenate([np.cos(T), np.sin(T)], axis=1)

        def ev(T):
            return np.where((T == a) | (T == b), 0.0, np.sin(mu * (T - a))) * radial(T)

        def jac(T):
            s = T - a
            d = mu * np.cos(mu * s) * radial(T)
            d += np.sin(mu * s) * np.concatenate([-np.sin(T), np.cos(T)], axis=1)
            return d[:, :, None]

        return cls(DifferentiableMap(f"radial_sine_bump_{mode}", 1, 2, ev, jac), (a, b))


def first_variation(
    F: FinslerFunction,
    curve: DifferentiableMap,
    interval,
    field: VariationField,
    eps: float = 1e-4,
    q: QuadratureSpec = QuadratureSpec(),
) -> float:
    """Central-difference derivative of the length along a variation field:
    (length(zeta + eps V) - length(zeta - eps V)) / (2 eps), for eps > 0.

    A second evaluation at eps/2 cross-checks the differencing; a
    VariationConsistencyWarning flags disagreement beyond 1e-5.
    """
    piece = _curve_piece(F, curve, interval)
    _homogeneity_probe(F)
    return float(_variations(F, piece, [field], eps, q)[0])


def _variations(F: FinslerFunction, piece: Piece, fields, eps: float, q) -> np.ndarray:
    """:func:`first_variation` of every field on a curve piece, without the
    probe, from one grid walk: per chunk the perturbed lifts
    (zeta + c V, zeta' + c V') for c = +-eps, +-eps/2 of all fields are
    stacked into one evaluation of F."""
    if not 0.0 < eps < math.inf:
        raise ValueError(f"variation epsilon must be positive and finite, got {eps!r}")
    m = piece.map.codomain_dim
    if any(field.map.codomain_dim != m for field in fields):
        raise DimensionMismatchError("variation field dimension does not match the curve")
    coeffs = np.array([eps, -eps, eps / 2.0, -eps / 2.0])[:, None, None]

    def perturbed(T, lift):
        V = np.stack([field.map(T) for field in fields])[:, None]
        dV = np.stack([field.map.jacobian(T)[:, :, 0] for field in fields])[:, None]
        base, comps = lift.base + coeffs * V, lift.comps + coeffs * dV
        return F(base.reshape(-1, m), comps.reshape(-1, m)).reshape(-1, len(T))

    # a zero-width interval integrates to the scalar 0.0
    lengths = np.broadcast_to(_lift_value(F, piece, q, perturbed), (4 * len(fields),))
    values = (lengths[0::4] - lengths[1::4]) / (2.0 * eps)
    refined = (lengths[2::4] - lengths[3::4]) / (2.0 * (eps / 2.0))
    for value, fine in zip(values, refined):
        if abs(value - fine) > 1e-5 * max(1.0, abs(value)):
            warnings.warn(
                f"first variation differs between eps={eps:g} ({value:.6g}) and "
                f"eps/2 ({fine:.6g})",
                VariationConsistencyWarning,
                stacklevel=3,
            )
    return values


def default_variation_basis(interval, dim: int, modes: int = 4) -> list[VariationField]:
    """Sine bumps of modes 1..modes along every coordinate direction."""
    return [
        VariationField.sine_bump(interval, j, c, dim)
        for c in range(dim)
        for j in range(1, modes + 1)
    ]


def extremal_residual(
    F: FinslerFunction,
    curve: DifferentiableMap,
    interval,
    fields: list[VariationField] | None = None,
    eps: float = 1e-4,
    q: QuadratureSpec = QuadratureSpec(),
) -> float:
    """Max |first variation| over a basis of variation fields; near zero on
    extremal curves."""
    if fields is None:
        fields = default_variation_basis(interval, curve.codomain_dim)
    piece = _curve_piece(F, curve, interval)
    _homogeneity_probe(F)
    return float(np.max(np.abs(_variations(F, piece, fields, eps, q))))
