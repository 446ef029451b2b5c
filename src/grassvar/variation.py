"""The first variation of curve length along compactly supported fields.

A :class:`VariationField` is a deformation direction that vanishes at both
ends of a curve's interval; :func:`default_variation_basis` gives the sine
bumps of modes 1..modes along every coordinate, built once per interval,
dimension and mode count in a process.  :func:`extremal_residual` is the
largest first variation over such a basis, near zero on extremal curves:
all its perturbed lengths are stacked on one node stack per quadrature
chunk, so one call walks the grid once.

Only the ``variation`` subcommand and the ``extremality`` check load this
module.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatchError, VariationConsistencyWarning
from .finsler import FinslerFunction
from .functional import MAX_MODES, _curve_interval, _lift_value
from .maps import DifferentiableMap
from .quadrature import Piece, QuadratureSpec

BASIS_CACHE_SIZE = 256  # variation bases kept per process


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
