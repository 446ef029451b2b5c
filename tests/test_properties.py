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

from grassvar.expressions import ExprCoeff
from grassvar.forms import KForm, exterior_derivative
from grassvar.kvector import KVector, lift_kvector, minors, plucker_residual, wedge
from grassvar.maps import affine_map, compose

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
    scale = sum(np.abs(d_eta.partial(c, j, Y)) for c in range(3) for j in range(3))
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


@SETTINGS
@given(st.integers(2, 6).flatmap(lambda m: arrays(np.float64, (2, m), elements=ENTRIES)))
def test_wedge_of_two_vectors_satisfies_plucker(uv):
    u, v = uv
    residual = plucker_residual(wedge([u, v], np.zeros(len(u))))
    assert residual <= 1e-13 * (1.0 + (np.linalg.norm(u) * np.linalg.norm(v)) ** 2)
