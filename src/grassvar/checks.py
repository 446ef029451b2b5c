"""The check rows of the ``check`` subcommand: the table ``CHECKS``.

Each row is ``fn(run, **params) -> float``, a residual that should read
about 0 on a :class:`scenarios.Run`: sampled checks of the metric on its
fibers (homogeneity, projectability, the Euler identity), the
parametrization checks of a curve's length (the Hilbert-form route and
reparametrization invariance, on the curve moved by :func:`reparametrized`),
the extremality of a curve, the integral identities of a form on the
run's piece (Stokes, change of domain, differentiation under the integral
sign, independence of the partition of unity), the Grassmann chart
round trip and the functoriality of the canonical lift.

:func:`scenarios.run_scenario` imports this module only for the ``check``
subcommand, and a row loads :mod:`grassvar.forms`, :mod:`grassvar.variation`
or :mod:`grassvar.grassmann` only when it runs.
"""
from __future__ import annotations

import math

import numpy as np

from . import finsler, functional
from .errors import DimensionMismatchError, MapEvaluationError, OrientationError, ScenarioError
from .functional import _curve_interval
from .kvector import KVector, lift_kvector
from .maps import DifferentiableMap, affine_map, compose
from .quadrature import Piece
from .scenarios import _extremality

# g and dg/dt of each profile of a Leibniz family eta_t = g(t) eta
PROFILE_FAMILIES = {
    "sin": (math.sin, math.cos),
    "linear": (lambda t: t, lambda t: 1.0),
    "constant": (lambda t: 1.0, lambda t: 0.0),
}


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


def _fiber_check(check):
    """Row function of a sampled check of the metric on its fibers."""
    def row(run, samples=100, lambdas=(0.5, 2.0, 10.0)):
        F = run.metric
        return check(F, *finsler._sample_fibers(F.m, F.fiber_dim, run.rng, samples), tuple(lambdas))

    return row


def _check_euler_identity(run, samples=25):
    F, curve = run.metric, run.curve
    ((a, b),) = curve.param_box
    return finsler.pullback_identity_residual(F, curve.map, run.rng.uniform(a, b, size=samples))


def _check_dual_route(run):
    """|direct length of zeta - Hilbert-route length of zeta o rho|: the two
    sides share no node.  On one node set the two are the Euler identity
    at each node, which would read 0 by construction."""
    F, _, _ = run.metric, run.curve, run.reparam  # a bad block reports before a walk fails
    return abs(run.direct - functional.hilbert_route_length(F, run.moved, run.q))


def _check_reparam_invariance(run):
    """|length of zeta - length of zeta o rho over rho^{-1}([a, b])|."""
    F, moved = run.metric, run.moved
    return abs(run.direct - functional.areal_value(F, moved, run.q))


def _check_stokes(run, form=None):
    from .forms import verify_stokes  # the form rows alone load the form layer

    return verify_stokes(run.form_or(form), run.piece, run.q)


def _check_domain_transform(run, form=None):
    from .forms import verify_domain_transform

    eta, piece = run.form_or(form), run.piece
    return verify_domain_transform(eta, run.alpha, piece, run.q)


def _check_leibniz(run, form=None):
    from .forms import verify_leibniz

    eta, piece = run.form_or(form), run.piece
    fam = run.block("family")
    g, g_dot = PROFILE_FAMILIES[fam["profile"]]
    return verify_leibniz(eta, g, g_dot, piece, fam["t0"], fam.get("dt_step", 1e-4), run.q)


def _check_partition_independence(run, form=None):
    from .forms import PartitionOfUnity, integrate_with_partition

    eta, piece = run.form_or(form), run.piece
    part = run.scenario.get("partition", {})
    covers = [PartitionOfUnity.uniform_cover(piece.param_box, n, part.get("overlap", 0.6))
              for n in part.get("covers", [2, 3])]
    values = [integrate_with_partition(eta, piece, cover, run.q) for cover in covers]
    return max(abs(v - values[0]) for v in values[1:])


def _check_grassmann_roundtrip(run, k=2, m=4, count=200):
    from . import grassmann  # only this check reads ray charts, so no other run loads them

    if not 1 <= k < m:
        raise ScenarioError(f"grassmann_roundtrip needs 1 <= k < m, got k={k}, m={m}", "checks")
    rng, n = run.rng, math.comb(m, k)
    comps, base = rng.standard_normal((count, n)), rng.standard_normal((count, m))
    off = rng.integers(0, n - 1, size=count)
    while True:
        pivot = np.argmax(np.abs(comps), axis=1)  # the chart's own pivot, as to_grassmann picks it
        other = off + (off >= pivot)
        pair = np.take_along_axis(comps, np.stack([other, pivot], axis=1), axis=1)
        inside = np.abs(pair[:, 0] / pair[:, 1]) >= 1e-3  # safely inside both charts
        rejected = np.flatnonzero(~inside)
        if not len(rejected):
            break
        comps[rejected] = rng.standard_normal((len(rejected), n))
        base[rejected] = rng.standard_normal((len(rejected), m))
        off[rejected] = rng.integers(0, n - 1, size=len(rejected))
    p = grassmann.to_grassmann(KVector(base, comps, k, m))
    back = grassmann.grassmann_transition(grassmann.grassmann_transition(p, other), p.pivot)
    # each chart point must also be the ray it came from: xi / |xi^pivot|
    pivot_size = np.abs(np.take_along_axis(comps, p.pivot[:, None], axis=1))
    source = np.max(np.abs(p.representative().comps - comps / pivot_size))
    return float(max(np.max(np.abs(back.w - p.w)), source))


def _check_lift_functoriality(run, count=50):
    rng, worst = run.rng, 0.0
    for k in range(1, 5):
        # n2 > k where possible: at n2 = k Cauchy-Binet has one term and misses a |det|
        n1, n2, n3 = (int(rng.integers(low, 5)) for low in (k, min(k + 1, 4), k))
        f = affine_map(rng.standard_normal((n2, n1)), rng.standard_normal(n2))
        g = affine_map(rng.standard_normal((n3, n2)), rng.standard_normal(n3))
        x = rng.standard_normal((count, n1))
        xi = KVector(x, rng.standard_normal((count, math.comb(n1, k))), k, n1)
        direct = lift_kvector(compose(g, f), x, xi)
        staged = lift_kvector(g, f(x), lift_kvector(f, x, xi))
        scale = np.maximum(1.0, direct.norm)[:, None]
        worst = max(worst, float(np.max(np.abs(direct.comps - staged.comps) / scale)))
    return worst


CHECKS = {
    "homogeneity": _fiber_check(finsler.check_homogeneity),
    "projectability": _fiber_check(finsler.check_projectability),
    "euler_identity": _check_euler_identity,
    "dual_route": _check_dual_route,
    "reparam_invariance": _check_reparam_invariance,
    "extremality": _extremality,
    "stokes": _check_stokes,
    "domain_transform": _check_domain_transform,
    "leibniz": _check_leibniz,
    "partition_independence": _check_partition_independence,
    "grassmann_roundtrip": _check_grassmann_roundtrip,
    "lift_functoriality": _check_lift_functoriality,
}
