"""Parameter-invariant functionals: curve length, k-area, first variation.

Every functional takes a :class:`forms.Piece`, and a curve is a 1-piece.
The value on a piece is the quadrature of the fiber Lagrangian on the
canonical lift of its parametrization, by :func:`forms.lift_integral`,
after one test that the metric fits the piece (:func:`finsler.require_fit`);
the curve functionals also ask for a 1-piece.  For degree-1 metrics the
length is recomputed through the Hilbert form, as the integral of its value
sum_nu dF/dv_nu(zeta, zeta') zeta'^nu on the lift (zeta, zeta'), and the
two routes must agree whenever the metric is positively homogeneous; every
length of a metric that passes the homogeneity probe runs that cross-check.

The homogeneity probe runs once per metric object, so a metric that fails
it warns once; a NaN residual fails it too.  A scenario's metric is one
object per process for equal metric blocks (``scenarios._interned``), so
there the probe runs, and warns, on the block's first run in a process.
Its 8 samples depend only on the fiber shape (m, fiber_dim): a closed-form
Kronecker table with the same bits on every platform, built once per shape
in a process and kept read-only, so the probe makes no RNG.  The sine bumps
of :func:`default_variation_basis` are likewise built once per interval,
dimension and mode count in a process.  Every public call walks the
quadrature grid once: the cross-checked length integrates both routes as
two components of one density, and :func:`extremal_residual` stacks all
its perturbed lengths on one node stack per quadrature chunk.
"""
from __future__ import annotations

import math
import warnings
import weakref
from dataclasses import dataclass
from functools import lru_cache

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
from .finsler import SAMPLE_BOX, FinslerFunction, check_homogeneity, require_fit
from .forms import Piece, QuadratureSpec, lift_integral
from .maps import DifferentiableMap, compose

DUAL_ROUTE_TOL = 1e-10
MAX_MODES = 64  # sine-bump modes per coordinate of a variation basis
BASIS_CACHE_SIZE = 256  # variation bases kept per process
_VERDICTS = weakref.WeakKeyDictionary()  # metric -> its probe's verdict; keeps no metric alive


def _primes(count: int) -> list[int]:
    """The first ``count`` primes, by trial division."""
    primes, n = [], 2
    while len(primes) < count:
        if all(n % p for p in primes if p * p <= n):
            primes.append(n)
        n += 1
    return primes


@lru_cache(maxsize=None)
def _probe_samples(m: int, fiber_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The probe's 8 read-only samples of the fiber shape (m, fiber_dim).

    Row i = 1..8 is the Kronecker point frac(i sqrt(p_j)) over the first
    m + fiber_dim primes p_j, a well-spread set for any count (H. Weyl,
    Math. Ann. 77, 1916): its first m coordinates mapped into the open cube
    SAMPLE_BOX^m are the base point, the rest mapped into [-1, 1) the fiber.
    Every step (sqrt, multiplication, floor, subtraction) is correctly
    rounded in IEEE 754, so the table has the same bits on every platform.
    Up to m = 8 and fiber_dim = 70 every fiber row has max |v| above 0.01.
    """
    steps = np.sqrt(np.array(_primes(m + fiber_dim), dtype=float))
    points = np.arange(1.0, 9.0)[:, None] * steps
    points -= np.floor(points)
    lo, hi = SAMPLE_BOX
    samples = lo + (hi - lo) * points[:, :m], 2.0 * points[:, m:] - 1.0
    for a in samples:
        a.setflags(write=False)
    return samples


def _homogeneity_probe(F: FinslerFunction, stacklevel: int = 3, tol: float = 1e-8) -> bool:
    """Whether F passes the homogeneity probe, which runs once per metric
    object and warns only then; a NaN residual fails it.  The verdict is
    kept as long as F lives: for a scenario's metric, interned per process,
    that is the process, so a metric block is probed on its first run."""
    if F in _VERDICTS:
        return _VERDICTS[F]
    try:
        residual = check_homogeneity(F, *_probe_samples(F.m, F.fiber_dim), (0.5, 2.0))
    except SlitDomainError:
        _VERDICTS[F] = False
        return False
    _VERDICTS[F] = passed = residual <= tol
    if not passed:
        warnings.warn(
            f"{F.kind}: homogeneity residual {residual:.3g}; the functional value "
            "is parametrization-dependent",
            NonHomogeneousWarning,
            stacklevel=stacklevel,
        )
    return passed


def curve_length(
    F: FinslerFunction, piece: Piece, q: QuadratureSpec = QuadratureSpec()
) -> float:
    """Length of a curve, a 1-piece, under a degree-1 fundamental function.

    The areal value of F on the piece, i.e. the integral of
    t -> F(zeta(t), zeta'(t)).  When the homogeneity probe passes, the
    same grid walk also integrates the Hilbert route of
    :func:`hilbert_route_length`: the density is the stack [F(zeta, zeta'),
    sum_nu dF/dv_nu(zeta, zeta') zeta'^nu], whose first component the
    quadrature sums exactly as it would alone, adaptive levels included.
    Disagreement beyond 1e-10 raises CrossCheckError.
    """
    _curve_interval(piece)

    def routes(T, lift):  # _lift_value probes F before the walk and keeps the verdict
        values = F._on_lift(lift)
        return np.stack([values, _hilbert_value(F, lift)]) if _homogeneity_probe(F) else values

    value = _lift_value(F, piece, q, routes)
    if not _homogeneity_probe(F):
        return value
    # a zero-width interval integrates to the scalar 0.0
    direct, via_hilbert = map(float, np.broadcast_to(value, (2,)))
    if abs(direct - via_hilbert) > DUAL_ROUTE_TOL * max(1.0, abs(direct)):
        raise CrossCheckError(
            f"direct length {direct!r} and Hilbert-form length {via_hilbert!r} disagree"
        )
    return direct


def hilbert_route_length(
    F: FinslerFunction, piece: Piece, q: QuadratureSpec = QuadratureSpec()
) -> float:
    """Length of a 1-piece computed solely through the Hilbert form: the
    integral of the form's value sum_nu dF/dv_nu(zeta, zeta') zeta'^nu on
    the lift (zeta, zeta').  This is the integral of the Hilbert 1-form
    (dF/dv_nu) dy^nu of the doubled chart (y, v) over the map
    t -> (zeta, zeta'), whose dv block has zero coefficients (Krupka,
    Introduction to Global Variational Geometry, 2015)."""
    _curve_interval(piece)
    return _lift_value(F, piece, q, lambda T, lift: _hilbert_value(F, lift))


def _hilbert_value(F: FinslerFunction, lift) -> np.ndarray:
    """The Hilbert form's value sum_nu dF/dv_nu(zeta, zeta') zeta'^nu on a lift."""
    return np.sum(F._on_lift(lift, gradient=True) * lift.comps, axis=1)


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
    return _lift_value(L, piece, q)


def _lift_value(L: FinslerFunction, piece: Piece, q: QuadratureSpec, density=None):
    """Oriented quadrature of L on the canonical lift of the piece, or of a
    ``density`` that evaluates L.  Every functional passes here, so this is
    where L's fit to the piece is checked, before the homogeneity probe;
    the densities then evaluate L on the lift by ``L._on_lift``, which
    relies on that fit."""
    require_fit(L, piece.k, piece.map.codomain_dim)
    _homogeneity_probe(L, stacklevel=4)
    try:
        return lift_integral(piece, density or (lambda T, lift: L._on_lift(lift)), q)
    except SlitDomainError as exc:
        raise ImmersionError(f"{piece.map.name}: degenerate lift ({exc})") from exc


def _curve_interval(piece: Piece) -> tuple[float, float]:
    """The interval of a 1-piece: the curve functionals' test, which with the
    fit of :func:`_lift_value` asks for a degree-1 metric on a 1-piece."""
    if piece.k != 1:
        raise DimensionMismatchError(f"a curve functional needs a 1-piece, not a {piece.k}-piece")
    return piece.param_box[0]


def reparametrized(piece: Piece, rho: DifferentiableMap) -> Piece:
    """The 1-piece zeta o rho over rho^{-1}([a, b]), with the piece's orientation.

    ``rho`` must be a strictly increasing reparametrization (checked at the
    quadrature resolution); its endpoint preimages come from
    :func:`_preimages`.
    """
    interval = _curve_interval(piece)
    if rho.domain_dim != 1 or rho.codomain_dim != 1:
        raise DimensionMismatchError("reparametrization must map an interval to an interval")
    sa, sb = _preimages(rho, interval)
    S = np.linspace(sa, sb, 64).reshape(-1, 1)
    bad = rho.jacobian(S)[:, 0, 0] <= 0.0
    if np.any(bad):
        raise OrientationError(f"{rho.name}: derivative not positive at s={S[bad][0, 0]}")
    return Piece(((sa, sb),), compose(piece.map, rho), piece.orientation)


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
        mu = math.pi * mode / (b - a) if b > a else 0.0  # zero width: the zero field
        e = np.zeros(dim)
        e[coord] = 1.0

        def ev(T):
            # clamp exact endpoint values to 0 (sin of a multiple of pi)
            s = T - a
            return np.where((s == 0.0) | (T == b), 0.0, np.sin(mu * s)) * e

        def value_and_jacobian(T):
            return ev(T), (mu * np.cos(mu * (T - a)) * e)[:, :, None]

        return cls(
            DifferentiableMap(f"sine_bump_{mode}_{coord}", 1, dim, ev, value_and_jacobian), (a, b)
        )


def _variations(F: FinslerFunction, piece: Piece, fields, eps: float, q) -> np.ndarray:
    """The first variation of the length of a 1-piece along every field,
    by central differences (length(zeta + eps V) - length(zeta - eps V)) /
    (2 eps), eps > 0, from one grid walk: per chunk the perturbed lifts
    (zeta + c V, zeta' + c V') for c = +-eps, +-eps/2 of all fields are
    stacked into one evaluation of F.  The eps/2 quotient cross-checks the
    differencing; a VariationConsistencyWarning flags a field where the two
    disagree beyond 1e-5."""
    _curve_interval(piece)
    if not 0.0 < eps < math.inf:
        raise ValueError(f"variation epsilon must be positive and finite, got {eps!r}")
    m = piece.map.codomain_dim
    if any(field.map.codomain_dim != m for field in fields):
        raise DimensionMismatchError("variation field dimension does not match the curve")
    coeffs = np.array([eps, -eps, eps / 2.0, -eps / 2.0])[:, None, None]

    def perturbed(T, lift):
        V, dV = np.empty((2, len(fields), 1) + lift.base.shape)
        for i, field in enumerate(fields):
            Y, J = field.map.value_and_jacobian(T)
            V[i, 0], dV[i, 0] = Y, J[:, :, 0]
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


def default_variation_basis(piece: Piece, modes: int = 4) -> list[VariationField]:
    """Sine bumps of modes 1..modes, at most MAX_MODES, over a 1-piece's
    interval, along every coordinate direction of its codomain.

    The fields are built once per (interval, dimension, modes) in a process
    and then kept, at most BASIS_CACHE_SIZE such bases; each call returns
    a new list of them."""
    interval, dim = _curve_interval(piece), piece.map.codomain_dim
    if not 1 <= modes <= MAX_MODES:
        raise ValueError(f"variation modes must be in 1..{MAX_MODES}, got {modes!r}")
    # keyed by the bits of the ends: -0.0 == 0.0, but a field keeps its interval as given
    return list(_sine_bumps(tuple(a.hex() for a in interval), dim, modes))


@lru_cache(maxsize=BASIS_CACHE_SIZE, typed=True)
def _sine_bumps(ends: tuple[str, str], dim: int, modes: int) -> tuple[VariationField, ...]:
    """The fields of :func:`default_variation_basis` over the interval with
    ends spelled by ``float.hex``."""
    interval = tuple(map(float.fromhex, ends))
    return tuple(
        VariationField.sine_bump(interval, j, c, dim)
        for c in range(dim)
        for j in range(1, modes + 1)
    )


def extremal_residual(
    F: FinslerFunction,
    piece: Piece,
    fields: list[VariationField],
    eps: float = 1e-4,
    q: QuadratureSpec = QuadratureSpec(),
) -> float:
    """Max |first variation| over a basis of variation fields, such as
    :func:`default_variation_basis`; near zero on extremal curves."""
    return float(np.max(np.abs(_variations(F, piece, fields, eps, q))))
