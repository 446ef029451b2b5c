"""Differentiable maps between chart domains, with a named catalog.

Scenario files cannot serialize arbitrary functions, so every map used by
the CLI comes from a named family with a fixed parameter schema and an
analytic Jacobian:

    identity, linear, affine, polynomial, segment, circle, helix,
    torus_patch, sphere_patch, graph_surface, fourier_curve,
    sine_shift, trig_shear, positive_scale

Python callers may additionally combine maps with :func:`compose`.  A map
carries its first jet, the value and an analytic Jacobian, and optionally
an inverse, nothing else: no map has second derivatives.

Every map is one evaluation callable, ``value_and_jacobian``: one pass that
returns the value and the Jacobian from shared intermediates (the trig of a
patch, the powers of a polynomial, the inner map of a composition), the
value built first.  Calling the map returns the value half of that pass.

Shape contract: every map evaluates a stack of N points at once.  The
callable handed to :class:`DifferentiableMap` receives ``T`` of shape
``(N, n)`` and returns the pair of values ``(N, m)`` and Jacobians
``(N, m, n)``; a constant result (a fixed matrix, say) is broadcast to the
stack.  Calling a map on a single point ``(n,)`` evaluates the stack N = 1
and returns ``(m,)`` and ``(m, n)``.

Storage: the catalog's node stacks are component-major.  A value stack
``(N, m)`` is the transpose of an ``(m, N)`` buffer and a Jacobian stack
``(N, m, n)`` a transposed view of an ``(m, n, N)`` buffer
(:func:`_columns`, :func:`_jacobians`), so every component is one
contiguous node column.  The exceptions keep numpy's own layout: a
matrix product (the affine maps, ``fourier_curve``, the chain rule of
:func:`compose`) and a broadcast constant.  Only the strides differ; every
value has the bits it has in any other layout.
"""
from __future__ import annotations

import numbers
import sys
from typing import Callable

import numpy as np

from .errors import DimensionMismatchError, MapEvaluationError

MAX_EXPONENT = 64  # a polynomial map holds the powers 0..deg of every axis at every node
MAX_HARMONICS = 64  # a Fourier curve holds (N, J) sin and cos tables; inputs use at most 3


def _as_batch(t, dim: int) -> tuple[np.ndarray, bool]:
    """``(T, single)``: a stack ``(N, dim)`` and whether ``t`` was one point."""
    t = np.asarray(t, dtype=float)
    if t.ndim == 2 and t.shape[1] == dim:
        return t, False
    t = np.atleast_1d(t)
    if t.shape != (dim,):
        raise DimensionMismatchError(f"expected point of dimension {dim}, got shape {t.shape}")
    return t.reshape(1, dim), True


def _finite(name: str, what: str, T: np.ndarray, out: np.ndarray) -> None:
    if not np.isfinite(out).all():  # one flat test; rows are searched only on failure
        bad = ~np.isfinite(out).reshape(len(T), -1).all(axis=1)
        raise MapEvaluationError(f"{name}: non-finite {what} at t={T[bad][0]}")


def row_max_abs(A: np.ndarray) -> np.ndarray:
    """Row maxima of |A| for a stack ``(N, c)``, taken column by column, as
    numpy reduces a short trailing axis slowly; each column of a
    component-major stack is contiguous.  max is exact, so this equals
    ``np.max(np.abs(A), axis=1, initial=0.0)`` bit for bit on any layout,
    NaN included."""
    out = np.zeros(len(A))
    for j in range(A.shape[1]):
        np.maximum(out, np.abs(A[:, j]), out=out)
    return out


def checked_reals(value, what: str, shape: tuple = (), error=MapEvaluationError):
    """``value`` as finite floats of ``shape``: a float for ``()``, else an
    array whose ``None`` axes take any positive length.  Anything else (a
    string, a bool, a ragged or misshapen list, a non-finite or overflowing
    number) raises ``error`` naming ``what``; catalog maps and metrics read
    every numeric parameter through this."""
    try:
        if isinstance(value, np.ndarray) and value.dtype.kind in "iuf":
            out = value.astype(float)
        else:
            items = np.asarray(value, dtype=object)
            numeric = all(isinstance(x, numbers.Real) and not isinstance(x, (bool, np.bool_))
                          for x in items.flat)
            out = items.astype(float) if numeric else None
    except (TypeError, ValueError, OverflowError):  # ragged lists, ints past the float range
        out = None
    if out is None or out.ndim != len(shape) or not np.isfinite(out).all() or not all(
        n >= 1 if want is None else n == want for n, want in zip(out.shape, shape)
    ):
        want = "x".join("n" if n is None else str(n) for n in shape)
        kind = f"finite numbers of shape {want}" if shape else "a finite number"
        raise error(f"{what} must be {kind}, got {value!r:.80}")
    return float(out) if not shape else out


def checked_dimension(value, what: str, error=MapEvaluationError) -> int:
    """``value`` as a positive int; a bool, a float or anything else raises
    ``error`` naming ``what``."""
    if isinstance(value, numbers.Integral) and not isinstance(value, (bool, np.bool_)):
        if value >= 1:
            return int(value)
    raise error(f"{what} must be a positive integer, got {value!r:.80}")


def _stacked(out, shape: tuple) -> np.ndarray:
    """``out`` as floats of ``shape``, broadcast only when a callable
    returned a constant (a fixed matrix, say)."""
    out = np.asarray(out, dtype=float)
    return out if out.shape == shape else np.broadcast_to(out, shape)


class DifferentiableMap:
    """A map R^n -> R^m given by one callable ``value_and_jacobian(T)``
    that returns the pair ``(values, Jacobians)`` in one pass, following the
    stacked shape contract of the module docstring.

    ``f(t)`` is the value half of that pass, and checks the value alone.
    Immutable after construction.  ``inverse`` is optional and analytic
    where the catalog provides it; the constructor links it back to this
    map, so ``f.inverted().inverted() is f``.
    """

    def __init__(
        self,
        name: str,
        domain_dim: int,
        codomain_dim: int,
        value_and_jacobian: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
        inverse: "DifferentiableMap | None" = None,
    ):
        self.name = name
        self.domain_dim = int(domain_dim)
        self.codomain_dim = int(codomain_dim)
        self._value_and_jacobian = value_and_jacobian
        self._inverse = inverse
        if inverse is not None:
            inverse._inverse = self

    def __call__(self, t) -> np.ndarray:
        T, single = _as_batch(t, self.domain_dim)
        Y = _stacked(self._value_and_jacobian(T)[0], (len(T), self.codomain_dim))
        _finite(self.name, "value", T, Y)
        return Y[0] if single else Y

    def value_and_jacobian(self, t) -> tuple[np.ndarray, np.ndarray]:
        """``(f(t), Jacobian at t)`` from one pass, checked as each alone is."""
        T, single = _as_batch(t, self.domain_dim)
        Y, J = self._value_and_jacobian(T)
        Y = _stacked(Y, (len(T), self.codomain_dim))
        J = _stacked(J, (len(T), self.codomain_dim, self.domain_dim))
        _finite(self.name, "value", T, Y)
        _finite(self.name, "Jacobian", T, J)
        return (Y[0], J[0]) if single else (Y, J)

    def jacobian(self, t) -> np.ndarray:
        """The Jacobian half of :meth:`value_and_jacobian`: the value is
        computed and checked too, so a non-finite value raises here."""
        return self.value_and_jacobian(t)[1]

    def inverted(self) -> "DifferentiableMap":
        if self._inverse is None:
            raise MapEvaluationError(f"{self.name}: no inverse available")
        return self._inverse

    @property
    def has_inverse(self) -> bool:
        return self._inverse is not None

    def __repr__(self) -> str:
        return (
            f"DifferentiableMap({self.name!r}, {self.domain_dim}->{self.codomain_dim})"
        )


# ---------------------------------------------------------------------------
# catalog families
# ---------------------------------------------------------------------------

def _affine(name: str, A: np.ndarray, b: np.ndarray | None = None) -> DifferentiableMap:
    """y = A t + b, with inverse t = A^{-1}(y - b) when A is square and invertible."""
    m, n = A.shape
    b = np.zeros(m) if b is None else b
    if b.shape != (m,):
        raise DimensionMismatchError("offset length must match matrix rows")
    inverse = None
    if m == n and abs(np.linalg.det(A)) > 1e-300:
        Ainv = np.linalg.inv(A)
        inverse = DifferentiableMap(f"{name}_inverse", m, n, lambda Y: ((Y - b) @ Ainv.T, Ainv))
    return DifferentiableMap(name, n, m, lambda T: (T @ A.T + b, A), inverse)


def identity_map(dim: int) -> DifferentiableMap:
    return _affine("identity", np.eye(checked_dimension(dim, "dim")))


def linear_map(matrix) -> DifferentiableMap:
    """y = A t.  An inverse is attached when A is square and invertible."""
    return _affine("linear", checked_reals(matrix, "matrix", (None, None)))


def affine_map(matrix, offset) -> DifferentiableMap:
    """y = A t + b, with inverse t = A^{-1}(y - b) for invertible square A."""
    A = checked_reals(matrix, "matrix", (None, None))
    return _affine("affine", A, checked_reals(offset, "offset", (len(A),)))


def segment(start, end) -> DifferentiableMap:
    """Straight segment t -> p + t (q - p), t in [0, 1] by convention."""
    p = checked_reals(start, "start", (None,))
    q = checked_reals(end, "end", p.shape)
    return _affine("segment", (q - p)[:, None], p)


def _polynomial_term(term, n: int) -> tuple[float, tuple[int, ...]]:
    """``(coeff, exponents)`` of one ``[coeff, exponents]`` pair, checked."""
    try:
        c, exps = term
        exps = tuple(exps)
    except (TypeError, ValueError):
        raise MapEvaluationError(
            f"polynomial term {term!r} is not a [coeff, exponents] pair"
        ) from None
    # an int beyond the float range compares exactly, where float() would overflow
    if isinstance(c, bool) or not isinstance(c, numbers.Real) or not abs(c) <= sys.float_info.max:
        raise MapEvaluationError(f"polynomial coefficient {c!r} is not a finite number")
    if len(exps) != n:
        raise DimensionMismatchError("exponent tuple length must equal domain_dim")
    for e in exps:
        if isinstance(e, bool) or not isinstance(e, numbers.Integral) or not 0 <= e <= MAX_EXPONENT:
            raise MapEvaluationError(
                f"polynomial exponent {e!r} is not an integer in 0..{MAX_EXPONENT}"
            )
    return float(c), tuple(int(e) for e in exps)


def _powers(T: np.ndarray, degree: int) -> np.ndarray:
    """``(degree + 1, n, N)`` table with [p, a] = t_a^p, by repeated multiplication."""
    powers = np.empty((degree + 1, T.shape[1], len(T)))
    powers[0] = 1.0
    for p in range(1, degree + 1):
        np.multiply(powers[p - 1], T.T, out=powers[p])
    return powers


def _monomial_sum(rows, n: int, size: int) -> Callable[[np.ndarray], np.ndarray]:
    """powers ``(deg + 1, n, N)`` from :func:`_powers` -> a component-major
    ``(N, size)``: each slot's sum of coeff * prod_a t_a^e_a over the table
    ``rows`` of ``(slot, coeff, exponents)``, ordered by slot.  Monomials are
    made one row at a time from views of the powers and added into their
    slot's contiguous column, so no temporary is larger than a node column
    and the result is not copied."""
    def evaluate(powers):
        out = np.zeros((size, powers.shape[2]))
        for slot, c, e in rows:  # in table order; a reduction would pair rows up
            mono = powers[e[0], 0]
            for a in range(1, n):
                mono = mono * powers[e[a], a]
            out[slot] += mono * c
        return out.T

    return evaluate


def polynomial_map(domain_dim: int, terms) -> DifferentiableMap:
    """Componentwise multivariate polynomials, evaluated from monomial tables.

    ``terms`` is one list per output component of ``[coeff, exponents]``
    pairs: a finite real coefficient and ``domain_dim`` integer exponents in
    0..``MAX_EXPONENT``; anything else raises :class:`MapEvaluationError`.
    Construction flattens the terms into a value table, whose slots are the
    components, and a Jacobian table, whose slots are component * domain_dim
    + axis.  A call builds the powers t_a^0..t_a^deg of each axis by repeated
    multiplication, once for both tables, multiplies each monomial's factors
    axis by axis, and adds the monomials of each slot in table order, so a
    node's value depends on that node alone.
    """
    n = checked_dimension(domain_dim, "polynomial domain_dim")
    parsed = [[_polynomial_term(term, n) for term in comp] for comp in terms]
    m = len(parsed)
    # the Jacobian's exponents are the value's lowered by one, so this degree covers both
    degree = max((max(e) for comp in parsed for _, e in comp), default=0)
    value = _monomial_sum([(i, c, e) for i, comp in enumerate(parsed) for c, e in comp], n, m)
    jacobian = _monomial_sum(
        [
            (i * n + j, c * e[j], e[:j] + (e[j] - 1,) + e[j + 1:])
            for i, comp in enumerate(parsed)
            for j in range(n)
            for c, e in comp
            if e[j] > 0
        ],
        n,
        m * n,
    )

    def value_and_jacobian(T):
        powers = _powers(T, degree)
        return value(powers), _jacobians(jacobian(powers), m, n)

    return DifferentiableMap("polynomial", n, m, value_and_jacobian)


def _columns(*entries) -> np.ndarray:
    """(N,) arrays or scalars -> a component-major (N, len(entries)) stack:
    the transpose of a (len(entries), N) buffer whose rows are filled in
    place, so each entry is one contiguous column."""
    out = np.empty((len(entries),) + np.broadcast(*entries).shape)
    for row, entry in zip(out, entries):
        row[...] = entry
    return out.T


def _jacobians(A: np.ndarray, m: int, n: int) -> np.ndarray:
    """A component-major (N, m * n) stack of row-major m x n entries as the
    Jacobians (N, m, n): a view of its (m, n, N) buffer, not a copy."""
    return A.T.reshape(m, n, len(A)).transpose(2, 0, 1)


def circle(radius: float = 1.0, center=(0.0, 0.0), phase: float = 0.0) -> DifferentiableMap:
    """t -> center + radius (cos(t + phase), sin(t + phase))."""
    r = checked_reals(radius, "radius")
    c = checked_reals(center, "center", (2,))
    ph = checked_reals(phase, "phase")

    def value_and_jacobian(T):
        cos, sin = np.cos(T[:, 0] + ph), np.sin(T[:, 0] + ph)
        return c + r * _columns(cos, sin), r * _columns(-sin, cos)[:, :, None]

    return DifferentiableMap("circle", 1, 2, value_and_jacobian)


def helix(radius: float = 1.0, pitch: float = 1.0) -> DifferentiableMap:
    """t -> (r cos t, r sin t, pitch t)."""
    r, p = checked_reals(radius, "radius"), checked_reals(pitch, "pitch")

    def value_and_jacobian(T):
        cos, sin = np.cos(T[:, 0]), np.sin(T[:, 0])
        return _columns(r * cos, r * sin, p * T[:, 0]), _columns(-r * sin, r * cos, p)[:, :, None]

    return DifferentiableMap("helix", 1, 3, value_and_jacobian)


def _sin_cos(T: np.ndarray) -> tuple[np.ndarray, ...]:
    """(sin t0, cos t0, sin t1, cos t1) at a stack of angle pairs ``(N, 2)``."""
    return np.sin(T[:, 0]), np.cos(T[:, 0]), np.sin(T[:, 1]), np.cos(T[:, 1])


def torus_patch(major_radius: float = 2.0, minor_radius: float = 1.0) -> DifferentiableMap:
    """(u, v) -> torus point with tube angle v, axial angle u."""
    R, r = checked_reals(major_radius, "major_radius"), checked_reals(minor_radius, "minor_radius")

    def value_and_jacobian(T):
        su, cu, sv, cv = _sin_cos(T)
        w = R + r * cv
        Y = _columns(w * cu, w * su, r * sv)
        rs = -r * sv
        return Y, _jacobians(_columns(-w * su, rs * cu, w * cu, rs * su, 0.0, r * cv), 3, 2)

    return DifferentiableMap("torus_patch", 2, 3, value_and_jacobian)


def sphere_patch(radius: float = 1.0) -> DifferentiableMap:
    """(theta, phi) -> r (sin th cos ph, sin th sin ph, cos th); degenerate at poles."""
    r = checked_reals(radius, "radius")

    def value_and_jacobian(T):
        sth, cth, sph, cph = _sin_cos(T)
        Y = r * _columns(sth * cph, sth * sph, cth)
        entries = cth * cph, -sth * sph, cth * sph, sth * cph, -sth, 0.0
        return Y, r * _jacobians(_columns(*entries), 3, 2)

    return DifferentiableMap("sphere_patch", 2, 3, value_and_jacobian)


def graph_surface(terms) -> DifferentiableMap:
    """(u, v) -> (u, v, h(u, v)) with h a polynomial given by [coeff, (eu, ev)].

    h's raw callable is called, unchecked: the graph's own checks cover its
    height and the height's Jacobian, and name the node."""
    h = polynomial_map(2, [terms])

    def value_and_jacobian(T):
        Yh, Jh = h._value_and_jacobian(T)
        Jh = Jh[:, 0]
        Y = _columns(T[:, 0], T[:, 1], Yh[:, 0])
        return Y, _jacobians(_columns(1.0, 0.0, 0.0, 1.0, Jh[:, 0], Jh[:, 1]), 3, 2)

    return DifferentiableMap("graph_surface", 2, 3, value_and_jacobian)


def fourier_curve(constant, cos_coeffs, sin_coeffs) -> DifferentiableMap:
    """t -> c + sum_j (A[:, j-1] cos(j t) + B[:, j-1] sin(j t)), j = 1..J,
    with J at most ``MAX_HARMONICS``."""
    c = checked_reals(constant, "constant", (None,))
    A = checked_reals(cos_coeffs, "cos_coeffs", (len(c), None))
    B = checked_reals(sin_coeffs, "sin_coeffs", A.shape)
    m, J = A.shape
    if J > MAX_HARMONICS:
        raise MapEvaluationError(f"fourier_curve takes at most {MAX_HARMONICS} harmonics, got {J}")
    js = np.arange(1, J + 1, dtype=float)

    def value_and_jacobian(T):
        cos, sin = np.cos(T * js), np.sin(T * js)
        return c + cos @ A.T + sin @ B.T, (-(js * sin) @ A.T + (js * cos) @ B.T)[:, :, None]

    return DifferentiableMap("fourier_curve", 1, m, value_and_jacobian)


def sine_shift(amplitude: float = 0.3) -> DifferentiableMap:
    """Reparametrization s -> s + a sin s; a diffeomorphism of R for |a| < 1."""
    a = checked_reals(amplitude, "amplitude")
    if abs(a) >= 1.0:
        raise MapEvaluationError("sine_shift requires |amplitude| < 1 to stay monotone")

    def inverse(Y):
        # Newton on s + a sin s = y; monotone with derivative >= 1 - |a|.
        s = Y.copy()
        for _ in range(60):
            step = (s + a * np.sin(s) - Y) / (1.0 + a * np.cos(s))
            s = s - step
            if np.all(np.abs(step) < 1e-15 * np.maximum(1.0, np.abs(s))):
                break
        return s, (1.0 / (1.0 + a * np.cos(s)))[:, :, None]

    inv = DifferentiableMap("sine_shift_inverse", 1, 1, inverse)
    return DifferentiableMap(
        "sine_shift", 1, 1, lambda T: (T + a * np.sin(T), (1.0 + a * np.cos(T))[:, :, None]), inv
    )


def trig_shear(amplitude: float = 0.3) -> DifferentiableMap:
    """(x, y) -> (x + a sin y, y); unit Jacobian determinant, exact inverse."""
    a = checked_reals(amplitude, "amplitude")

    def shear(sign):
        """(x, y) -> (x + sign a sin y, y) and its Jacobian."""
        def value_and_jacobian(T):
            Y = _columns(T[:, 0] + sign * a * np.sin(T[:, 1]), T[:, 1])
            return Y, _jacobians(_columns(1.0, sign * a * np.cos(T[:, 1]), 0.0, 1.0), 2, 2)

        return value_and_jacobian

    inv = DifferentiableMap("trig_shear_inverse", 2, 2, shear(-1.0))
    return DifferentiableMap("trig_shear", 2, 2, shear(1.0), inv)


def positive_scale(factors) -> DifferentiableMap:
    """Diagonal scaling with strictly positive factors."""
    f = checked_reals(factors, "factors", (None,))
    if np.any(f <= 0):
        raise MapEvaluationError("positive_scale requires positive factors")
    D = np.diag(f)
    Dinv = np.diag(1.0 / f)
    n = len(f)
    inv = DifferentiableMap("positive_scale_inverse", n, n, lambda Y: (Y / f, Dinv))
    return DifferentiableMap("positive_scale", n, n, lambda T: (f * T, D), inv)


# ---------------------------------------------------------------------------
# combinators
# ---------------------------------------------------------------------------

def _row_major(J: np.ndarray) -> np.ndarray:
    """A Jacobian stack with C-order matrices, as numpy's stacked matmul
    rounds a product by the strides of its factors: a component-major
    stack is copied, a broadcast constant is left as it is."""
    return J if J.strides[0] == 0 else np.ascontiguousarray(J)


def _bare_compose(
    outer: DifferentiableMap, inner: DifferentiableMap, inverse: DifferentiableMap | None = None
) -> DifferentiableMap:
    def value_and_jacobian(T):
        Y, J_inner = inner.value_and_jacobian(T)
        Z, J_outer = outer.value_and_jacobian(Y)
        return Z, _row_major(J_outer) @ _row_major(J_inner)

    return DifferentiableMap(
        f"{outer.name}({inner.name})",
        inner.domain_dim,
        outer.codomain_dim,
        value_and_jacobian,
        inverse,
    )


def compose(outer: DifferentiableMap, inner: DifferentiableMap) -> DifferentiableMap:
    """outer o inner, with the chain-rule Jacobian."""
    if inner.codomain_dim != outer.domain_dim:
        raise DimensionMismatchError(
            f"cannot compose {outer.name} o {inner.name}: "
            f"{inner.codomain_dim} != {outer.domain_dim}"
        )
    inverse = None
    if outer.has_inverse and inner.has_inverse:
        inverse = _bare_compose(inner.inverted(), outer.inverted())
    return _bare_compose(outer, inner, inverse)


def insert_axis_map(k: int, axis: int, value: float) -> DifferentiableMap:
    """Affine inclusion R^{k-1} -> R^k fixing coordinate ``axis`` (1-based) to ``value``."""
    A = np.zeros((k, k - 1))
    rows = [i for i in range(k) if i != axis - 1]
    for col, row in enumerate(rows):
        A[row, col] = 1.0
    b = np.zeros(k)
    b[axis - 1] = float(value)
    return _affine("affine", A, b)


# name -> builder; the scenario loader resolves geometry through this table.
CATALOG: dict[str, Callable[..., DifferentiableMap]] = {
    "identity": identity_map,
    "linear": linear_map,
    "affine": affine_map,
    "polynomial": polynomial_map,
    "segment": segment,
    "circle": circle,
    "helix": helix,
    "torus_patch": torus_patch,
    "sphere_patch": sphere_patch,
    "graph_surface": graph_surface,
    "fourier_curve": fourier_curve,
    "sine_shift": sine_shift,
    "trig_shear": trig_shear,
    "positive_scale": positive_scale,
}


def from_catalog(name: str, params: dict | None = None) -> DifferentiableMap:
    """Build a catalog map by name, validating the parameter schema."""
    if name not in CATALOG:
        raise MapEvaluationError(f"unknown catalog map {name!r}")
    try:
        return CATALOG[name](**(params or {}))
    except TypeError as exc:
        raise MapEvaluationError(f"bad parameters for catalog map {name!r}: {exc}") from exc
