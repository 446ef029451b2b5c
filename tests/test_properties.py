"""Property tests on generated inputs.

Expressions are drawn from the coefficient grammar of
:mod:`grassvar.expressions`; the smooth building blocks keep every
generated coefficient finite on the sample box [-1, 1]^3.  Runs are
derandomized, so the suite sees the same examples every time.
"""
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from grassvar.errors import NotInChartError, PivotDegenerateError
from grassvar.expressions import ExprCoeff
from grassvar.finsler import _dot, _norm
from grassvar.forms import KForm, exterior_derivative
from grassvar.grassmann import grassmann_transition, to_grassmann
from grassvar.kvector import KVector, _lift_minors, lift_kvector, minors, row_dot
from grassvar.maps import affine_map, compose, row_max_abs

from .oracles import equivalent, same_bits, wedge_square_brute
from .test_grassmann import TRANSITION_TOL

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)

_variables = st.sampled_from(["y1", "y2", "y3"])
_leaves = st.one_of(_variables, _variables, st.just("pi"), st.floats(-2.0, 2.0).map("({:.3f})".format))
# every rule of the grammar, on arguments {0} and {1}; each stays smooth and
# bounded for any real arguments
TEMPLATES = [
    "({0} + {1})", "({0} - {1})", "({0} * {1})", "({0}) / (2 + sin({1}))",
    "(1.5 + sin({0}))**cos({1})", "({0})**2", "({0})**3", "-({0})", "+({0})", "sin({0})",
    "cos({0})", "exp(sin({0}))", "tan(0.5*sin({0}))", "sqrt(1.5 + sin({0}))",
    "log(1.5 + cos({0}))",
]
EXPRESSIONS = st.recursive(
    _leaves,
    lambda inner: st.tuples(st.sampled_from(TEMPLATES), inner, inner).map(
        lambda t: t[0].format(t[1], t[2])
    ),
    max_leaves=6,
)
POINTS = arrays(np.float64, (4, 3), elements=st.floats(-1.0, 1.0))
ENTRIES = st.floats(-2.0, 2.0)


@pytest.mark.parametrize("template", TEMPLATES)
@settings(SETTINGS, max_examples=15)
@given(EXPRESSIONS, EXPRESSIONS, POINTS)
def test_values_and_partials_on_generated_expressions(template, a, b, Y):
    text = template.format(a, b)
    c = ExprCoeff(text, 3)
    with np.errstate(all="ignore"):
        values = c(Y)
    assume(np.all(np.abs(values) < 1e3))
    # the generated text is trusted here, so Python may evaluate it directly
    env = {name: getattr(np, name) for name in ("sin", "cos", "tan", "exp", "sqrt", "log", "pi")}
    env.update(y1=Y[:, 0], y2=Y[:, 1], y3=Y[:, 2])
    assert np.allclose(values, eval(text, {"__builtins__": {}}, env), rtol=1e-12, atol=1e-12)
    h = 1e-5
    for j in range(3):
        step = np.zeros(3)
        step[j] = h
        fd = (c(Y + step) - c(Y - step)) / (2.0 * h)
        exact = c.partial(j)(Y)
        assert np.all(np.abs(exact - fd) <= 1e-5 * (1.0 + np.abs(values) + np.abs(exact))), text


@SETTINGS
@given(st.tuples(EXPRESSIONS, EXPRESSIONS, EXPRESSIONS), POINTS)
def test_d_squared_zero_on_generated_one_forms(texts, Y):
    # the common factor couples all three variables, so the mixed second
    # partials that d(d eta) cancels are non-zero
    mixed = {(j + 1,): f"({t}) * sin(y1 - 2*y2 + 3*y3)" for j, t in enumerate(texts)}
    eta = KForm.from_dict(1, 3, mixed)
    with np.errstate(all="ignore"):
        assume(np.all(np.abs(eta.values(Y)) < 1e3))
    d_eta = exterior_derivative(eta)
    dd = exterior_derivative(d_eta)
    assert all(isinstance(c, ExprCoeff) for c in dd.coeffs)
    # the three signed second partials of d_eta cancel up to rounding
    scale = sum(np.abs(d_eta.coeffs[c].partial(j)(Y)) for c in range(3) for j in range(3))
    assert np.all(np.abs(dd.values(Y)[:, 0]) <= 1e-12 * (1.0 + scale)), texts


@st.composite
def _composable(draw):
    n1, n2, n3 = (draw(st.integers(1, 4)) for _ in range(3))
    k = draw(st.integers(1, min(n1, n2, n3)))
    A = draw(arrays(np.float64, (n2, n1), elements=ENTRIES))
    B = draw(arrays(np.float64, (n3, n2), elements=ENTRIES))
    x = draw(arrays(np.float64, (n1,), elements=ENTRIES))
    comps = draw(arrays(np.float64, (math.comb(n1, k),), elements=ENTRIES))
    return A, B, KVector(x, comps, k, n1)


@SETTINGS
@given(_composable())
def test_cauchy_binet_for_lift_of_composition(maps):
    A, B, xi = maps
    f, g = affine_map(A, np.ones(len(A))), affine_map(B, -np.ones(len(B)))
    direct = lift_kvector(compose(g, f), xi.base, xi)
    staged = lift_kvector(g, f(xi.base), lift_kvector(f, xi.base, xi))
    k = xi.k
    scale = np.linalg.norm(minors(B, k)) * np.linalg.norm(minors(A, k)) * np.linalg.norm(xi.comps)
    assert np.allclose(direct.base, staged.base)
    assert np.max(np.abs(direct.comps - staged.comps)) <= 1e-13 * (1.0 + scale)


def _component_major(A):
    """A copy of the stack ``A`` ``(N, ...)`` stored with the node axis last."""
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(A, 0, -1)), -1, 0)


# dimensions up to the metric cap 8 and degrees up to 4: C(m, k) up to 70 minors
DEGREES = [(k, m) for m in range(1, 9) for k in range(1, min(m, 4) + 1)]
ANY_FLOAT = st.floats(width=64)  # NaN, infinities and subnormals too


@SETTINGS
@given(st.data())
def test_row_reductions_and_minors_keep_their_bits_in_either_layout(data):
    rows = data.draw(st.integers(1, 5))
    V = data.draw(arrays(np.float64, (rows, data.draw(st.integers(1, 70))), elements=ANY_FLOAT))
    k, m = data.draw(st.sampled_from(DEGREES))
    J = data.draw(arrays(np.float64, (rows, m, k), elements=ANY_FLOAT))
    W = data.draw(arrays(np.float64, V.shape, elements=ANY_FLOAT))
    with np.errstate(all="ignore"):
        for f, stack in ((row_max_abs, V), (_norm, V), (_lift_minors, J)):
            assert same_bits(f(stack), f(_component_major(stack)))
        # the row sums of products: the Lagrangians' einsum and the pairings
        for f in (_dot, row_dot):
            assert same_bits(f(V, W), f(_component_major(V), _component_major(W)))


@SETTINGS
@given(st.integers(2, 6).flatmap(lambda m: arrays(np.float64, (2, m), elements=ENTRIES)))
def test_wedge_of_two_vectors_satisfies_plucker(uv):
    u, v = uv
    residual = np.linalg.norm(wedge_square_brute(minors(np.column_stack([u, v]), 2)[:, 0], len(u)))
    assert residual <= 1e-13 * (1.0 + (np.linalg.norm(u) * np.linalg.norm(v)) ** 2)


@st.composite
def _charted_stacks(draw):
    """A stack of k-vectors, 1 <= k < m <= 5, whose components all have
    magnitude in [0.5, 2], so every pivot is admissible; a target pivot per
    row other than the row's own (largest-component) pivot; one row."""
    m = draw(st.integers(2, 5))
    k = draw(st.integers(1, m - 1))
    n, size = draw(st.integers(1, 6)), math.comb(m, k)
    magnitudes = draw(arrays(np.float64, (n, size), elements=st.floats(0.5, 2.0)))
    signs = draw(arrays(np.bool_, (n, size)))
    base = draw(arrays(np.float64, (n, m), elements=ENTRIES))
    off = np.array(draw(st.lists(st.integers(0, size - 2), min_size=n, max_size=n)))
    xi = KVector(base, np.where(signs, -magnitudes, magnitudes), k, m)
    pivot = np.argmax(np.abs(xi.comps), axis=1)
    return xi, off + (off >= pivot), draw(st.integers(0, n - 1))


def _assert_same_point(one, p, i):
    assert (one.pivot, one.pivot_sign) == (p.pivot[i], p.pivot_sign[i])
    assert np.array_equal(one.w, p.w[i]) and np.array_equal(one.base, p.base[i])


@SETTINGS
@given(_charted_stacks())
def test_stacked_pivot_charts_match_single_points(case):
    xi, target, _ = case
    p = to_grassmann(xi)
    there = grassmann_transition(p, target)
    back = grassmann_transition(there, p.pivot)
    rep = p.representative()
    at_target = to_grassmann(xi, target)
    for i in range(len(target)):
        row = KVector(xi.base[i], xi.comps[i], xi.k, xi.m)
        one = to_grassmann(row)
        _assert_same_point(one, p, i)
        _assert_same_point(to_grassmann(row, int(target[i])), at_target, i)
        _assert_same_point(grassmann_transition(one, int(target[i])), there, i)
        assert np.array_equal(one.representative().comps, rep.comps[i])
    assert np.all(back.pivot_sign == p.pivot_sign)
    scale = np.maximum(1.0, np.max(np.abs(p.w), axis=1))
    assert np.all(np.max(np.abs(back.w - p.w), axis=1) <= TRANSITION_TOL * scale)
    assert np.all(equivalent(there.representative(), rep, tol=1e-12))


@SETTINGS
@given(_charted_stacks())
def test_one_bad_row_makes_the_whole_stack_raise(case):
    xi, target, row = case
    comps = xi.comps.copy()
    comps[row, target[row]] = 0.0  # not the row's own pivot, which stays put
    bad = KVector(xi.base, comps, xi.k, xi.m)
    with pytest.raises(PivotDegenerateError, match=rf"\(row {row}\) vanishes"):
        to_grassmann(bad, target)
    with pytest.raises(NotInChartError, match=rf"\(row {row}\) vanishes"):
        grassmann_transition(to_grassmann(bad), target)
