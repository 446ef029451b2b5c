"""Parameter-invariant functionals: curve length and k-area.

Every functional takes a :class:`quadrature.Piece`, and a curve is a
1-piece.  The value on a piece is the quadrature of the fiber Lagrangian on
the canonical lift of its parametrization, by
:func:`quadrature.lift_integral`, after one test that the metric fits the
piece (:func:`finsler.require_fit`); the curve functionals also ask for a
1-piece.  For degree-1 metrics the length is recomputed through the Hilbert
form, as the integral of its value sum_nu dF/dv_nu(zeta, zeta') zeta'^nu on
the lift (zeta, zeta'), and the two routes must agree whenever the metric
is positively homogeneous; every length of a metric that passes the
homogeneity probe runs that cross-check.  The first variation is in
:mod:`grassvar.variation`, loaded only by the runs that vary a curve.

The homogeneity probe runs once per metric object, so a metric that fails
it warns once; a NaN residual fails it too.  A scenario's metric is one
object per process for equal metric blocks (``scenarios._interned``), so
there the probe runs, and warns, on the block's first run in a process.
Its 8 samples depend only on the fiber shape (m, fiber_dim): a closed-form
Kronecker table with the same bits on every platform, built once per shape
in a process and kept read-only, so the probe makes no RNG.  Every public
call walks the quadrature grid once: the cross-checked length integrates
both routes as two components of one density.
"""
from __future__ import annotations

import itertools
import warnings
import weakref
from functools import lru_cache

import numpy as np

from .errors import (
    CrossCheckError,
    DimensionMismatchError,
    ImmersionError,
    NonHomogeneousWarning,
    SlitDomainError,
)
from .finsler import SAMPLE_BOX, FinslerFunction, check_homogeneity, require_fit
from .kvector import row_dot
from .quadrature import Piece, QuadratureSpec, lift_integral

DUAL_ROUTE_TOL = 1e-10
# sine-bump modes per coordinate of a variation basis (grassvar.variation),
# kept here so that the scenario schema reads it without loading that module
MAX_MODES = 64
_VERDICTS = weakref.WeakKeyDictionary()  # metric -> its probe's verdict; keeps no metric alive


def _primes(count: int) -> list[int]:
    """The first ``count`` primes, by trial division up to the square root."""
    primes, n = [], 2
    while len(primes) < count:
        if all(n % p for p in itertools.takewhile(lambda p: p * p <= n, primes)):
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
    return row_dot(F._on_lift(lift, gradient=True), lift.comps)


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
