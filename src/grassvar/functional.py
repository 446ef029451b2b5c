"""Parameter-invariant functionals: curve length, k-area, first variation.

The value of the functional on a parametrized piece is the quadrature of
the fiber Lagrangian evaluated on the canonical lift of the
parametrization.  For degree-1 metrics the same number is recomputed by
pulling the Hilbert form back through the tangent lift of the curve, and
the two routes must agree whenever the metric is positively homogeneous;
that cross-check runs by default.
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
    NonHomogeneousWarning,
    OrientationError,
    SlitDomainError,
    VariationConsistencyWarning,
)
from .finsler import FinslerFunction, check_homogeneity, hilbert_form
from .forms import Piece, QuadratureSpec, integrate, integrate_scalar_over_box
from .kvector import canonical_lift
from .maps import DifferentiableMap, add_scaled, compose, tangent_lift

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

    Integrates t -> F(zeta(t), zeta'(t)) over the interval.  When the
    homogeneity probe passes and ``cross_check`` is on, the value is also
    computed by :func:`hilbert_route_length`; disagreement beyond 1e-10
    raises CrossCheckError.
    """
    if F.degree != 1 or curve.codomain_dim != F.m or curve.domain_dim != 1:
        raise DimensionMismatchError("curve_length needs a degree-1 metric and a curve")
    a, b = float(interval[0]), float(interval[1])
    if a == b:
        return 0.0
    homogeneous = _homogeneity_probe(F)

    def g(T):
        try:
            return F(curve(T), curve.jacobian(T)[:, :, 0])
        except SlitDomainError as exc:
            raise ImmersionError(f"{curve.name}: zero velocity ({exc})") from exc

    direct = integrate_scalar_over_box(g, [(a, b)], q)

    if cross_check and homogeneous:
        via_hilbert = hilbert_route_length(F, curve, (a, b), q)
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
    """Length computed solely through the Hilbert-form pullback route: the
    Hilbert form integrated over the tangent lift of the curve."""
    a, b = float(interval[0]), float(interval[1])
    piece = Piece(((a, b),), tangent_lift(curve))
    return integrate(hilbert_form(F), piece, q)


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
    k = piece.k
    fiber_dim = math.comb(piece.map.codomain_dim, k)
    if L.m != piece.map.codomain_dim or L.fiber_dim != fiber_dim:
        raise DimensionMismatchError(
            f"Lagrangian fiber dimension {L.fiber_dim} does not match C({piece.map.codomain_dim},{k})"
        )
    _homogeneity_probe(L)

    def g(T):
        lift = canonical_lift(piece.map, T)
        try:
            return L(lift.base, lift.comps)
        except SlitDomainError as exc:
            raise ImmersionError(f"{piece.map.name}: degenerate lift ({exc})") from exc

    return piece.orientation * integrate_scalar_over_box(g, piece.param_box, q)


def reparam_invariance_residual(
    F: FinslerFunction,
    curve: DifferentiableMap,
    interval,
    rho: DifferentiableMap,
    q: QuadratureSpec = QuadratureSpec(),
) -> float:
    """| length(zeta over [a,b]) - length(zeta o rho over rho^{-1}([a,b])) |.

    ``rho`` must be a strictly increasing reparametrization (checked at the
    quadrature resolution); its endpoint preimages are found by root
    bracketing when no catalog inverse is attached.
    """
    if rho.domain_dim != 1 or rho.codomain_dim != 1:
        raise DimensionMismatchError("reparametrization must map an interval to an interval")
    a, b = float(interval[0]), float(interval[1])
    sa, sb = _preimage(rho, a), _preimage(rho, b)
    S = np.linspace(sa, sb, 64).reshape(-1, 1)
    bad = rho.jacobian(S)[:, 0, 0] <= 0.0
    if np.any(bad):
        raise OrientationError(f"{rho.name}: derivative not positive at s={S[bad][0, 0]}")
    L1 = curve_length(F, curve, (a, b), q, cross_check=False)
    L2 = curve_length(F, compose(curve, rho), (sa, sb), q, cross_check=False)
    return abs(L1 - L2)


def _preimage(rho: DifferentiableMap, value: float) -> float:
    """s with rho(s) = value, for a strictly increasing rho.

    Without a catalog inverse the bracket [value - j, value + j] is widened
    until it holds a sign change, then bisected until its midpoint no
    longer lies strictly inside it, i.e. to floating-point resolution.
    """
    if rho.has_inverse:
        return float(rho.inverted()(np.array([value]))[0])

    def f(s: float) -> float:
        return float(rho(np.array([s]))[0]) - value

    lo, hi = value - 1.0, value + 1.0
    for _ in range(80):
        flo, fhi = f(lo), f(hi)
        if flo == 0.0:
            return lo
        if fhi == 0.0:
            return hi
        if flo < 0.0 < fhi:
            while True:
                mid = 0.5 * (lo + hi)
                if not lo < mid < hi:
                    return mid
                fmid = f(mid)
                if fmid == 0.0:
                    return mid
                lo, hi = (mid, hi) if fmid < 0.0 else (lo, mid)
        lo -= 1.0
        hi += 1.0
    raise OrientationError(f"{rho.name}: could not bracket a preimage of {value}")


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

        def second(T):
            return -mu * mu * np.sin(mu * (T - a)) * e

        field = DifferentiableMap(
            f"sine_bump_{mode}_{coord}", 1, dim, ev, jac, second_derivative=second
        )
        return cls(field, (a, b))

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

        def second(T):
            s = T - a
            r = radial(T)
            dr = np.concatenate([-np.sin(T), np.cos(T)], axis=1)
            return (
                -mu * mu * np.sin(mu * s) * r
                + 2.0 * mu * np.cos(mu * s) * dr
                - np.sin(mu * s) * r
            )

        field = DifferentiableMap(
            f"radial_sine_bump_{mode}", 1, 2, ev, jac, second_derivative=second
        )
        return cls(field, (a, b))


def first_variation(
    F: FinslerFunction,
    curve: DifferentiableMap,
    interval,
    field: VariationField,
    eps: float = 1e-4,
    q: QuadratureSpec = QuadratureSpec(),
) -> float:
    """Central-difference derivative of the length along a variation field:
    (length(zeta + eps V) - length(zeta - eps V)) / (2 eps).

    A second evaluation at eps/2 cross-checks the differencing; a
    VariationConsistencyWarning flags disagreement beyond 1e-5.
    """
    if field.map.codomain_dim != curve.codomain_dim:
        raise DimensionMismatchError("variation field dimension does not match the curve")

    def delta(e):
        plus = curve_length(F, add_scaled(curve, field.map, e), interval, q, cross_check=False)
        minus = curve_length(F, add_scaled(curve, field.map, -e), interval, q, cross_check=False)
        return (plus - minus) / (2.0 * e)

    value = delta(eps)
    refined = delta(eps / 2.0)
    if abs(value - refined) > 1e-5 * max(1.0, abs(value)):
        warnings.warn(
            f"first variation differs between eps={eps:g} ({value:.6g}) and "
            f"eps/2 ({refined:.6g})",
            VariationConsistencyWarning,
            stacklevel=2,
        )
    return value


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
    return max(abs(first_variation(F, curve, interval, f, eps, q)) for f in fields)
