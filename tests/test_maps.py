import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from grassvar import maps
from grassvar.errors import DimensionMismatchError, MapEvaluationError
from grassvar.variation import VariationField
from grassvar.maps import (
    CATALOG,
    MAX_EXPONENT,
    DifferentiableMap,
    affine_map,
    checked_reals,
    circle,
    compose,
    fourier_curve,
    from_catalog,
    graph_surface,
    helix,
    identity_map,
    insert_axis_map,
    linear_map,
    polynomial_map,
    positive_scale,
    row_max_abs,
    segment,
    sine_shift,
    sphere_patch,
    torus_patch,
    trig_shear,
)

from .oracles import (
    polynomial_by_terms,
    radial_sine_bump,
    row_max_by_reduction,
    same_bits,
    sphere_patch_by_entries,
    torus_patch_by_entries,
    verify_jacobian,
)

JAC_TOL = 1e-6


def catalog_samples(rng):
    yield circle(radius=1.5, center=(0.2, -0.3), phase=0.4), [[0.3], [1.1], [-2.0]]
    yield helix(radius=0.8, pitch=0.5), [[0.0], [2.2]]
    yield torus_patch(2.0, 0.7), [[0.3, 1.0], [2.0, -0.5]]
    yield sphere_patch(1.3), [[0.7, 0.2], [1.9, 4.0]]
    yield graph_surface([[1.0, (2, 0)], [1.0, (0, 2)]]), [[0.5, -0.4], [1.0, 1.0]]
    yield polynomial_map(2, [[(1.0, (2, 1))], [(0.5, (0, 3)), (-2.0, (1, 0))]]), [[0.4, 0.9]]
    yield fourier_curve([0.1, 0.0], rng.normal(size=(2, 3)), rng.normal(size=(2, 3))), [[0.6]]
    yield sine_shift(0.3), [[0.0], [1.7]]
    yield trig_shear(0.25), [[0.3, 0.8]]
    yield positive_scale([2.0, 0.5, 1.5]), [[1.0, -1.0, 0.2]]
    yield affine_map(rng.normal(size=(3, 3)), rng.normal(size=3)), [[0.1, 0.2, 0.3]]
    yield segment([0.0, 0.0], [1.0, 2.0]), [[0.3]]


def test_catalog_jacobians_match_finite_differences(rng):
    for f, points in catalog_samples(rng):
        assert verify_jacobian(f, points) <= JAC_TOL, f.name


def test_stack_matches_single_points(rng):
    for f, points in catalog_samples(rng):
        T = np.asarray(points, dtype=float)
        assert f(T).shape == (len(T), f.codomain_dim)
        assert f.jacobian(T).shape == (len(T), f.codomain_dim, f.domain_dim)
        for i, t in enumerate(T):  # a stack may reach BLAS kernels a point does not
            assert np.allclose(f(T)[i], f(t), rtol=1e-14, atol=1e-15)
            assert np.allclose(f.jacobian(T)[i], f.jacobian(t), rtol=1e-14, atol=1e-15)


# parameters of every catalog name; a name missing here fails the test below
CATALOG_PARAMS = {
    "identity": {"dim": 3},
    "linear": {"matrix": [[2.0, 1.0], [0.5, 3.0]]},
    "affine": {"matrix": [[2.0, 1.0, 0.0], [0.5, 3.0, 1.0], [0.0, -1.0, 1.5]],
               "offset": [0.3, -0.2, 0.1]},
    "polynomial": {"domain_dim": 2,
                   "terms": [[[1.0, [2, 1]]], [[0.5, [0, 3]], [-2.0, [1, 0]]], []]},
    "segment": {"start": [0.5], "end": [2.5]},
    "circle": {"radius": 1.5, "center": [0.2, -0.3], "phase": 0.4},
    "helix": {"radius": 0.8, "pitch": 0.5},
    "torus_patch": {"major_radius": 2.0, "minor_radius": 0.7},
    "sphere_patch": {"radius": 1.3},
    "graph_surface": {"terms": [[1.0, [2, 0]], [-0.5, [1, 3]]]},
    "fourier_curve": {"constant": [0.1, 0.0], "cos_coeffs": [[0.5, -0.2], [0.1, 0.3]],
                      "sin_coeffs": [[0.2, 0.1], [-0.4, 0.6]]},
    "sine_shift": {"amplitude": 0.3},
    "trig_shear": {"amplitude": 0.25},
    "positive_scale": {"factors": [2.0, 0.5, 1.5]},
}


def _fused_cases():
    """(id, builder) for every catalog name, each catalog inverse, a composition
    and the variation fields."""
    for name in sorted(CATALOG):
        build = lambda name=name: from_catalog(name, CATALOG_PARAMS[name])
        yield name, build
        if name in CATALOG_PARAMS and build().has_inverse:
            yield f"{name}_inverse", lambda build=build: build().inverted()
    composed = lambda: compose(positive_scale([2.0, 0.5]), trig_shear(0.25))
    yield "compose", composed
    yield "compose_inverse", lambda: composed().inverted()
    yield "sine_bump", lambda: VariationField.sine_bump((-2.0, 1.5), 2, 1, 3).map
    yield "radial_sine_bump", lambda: radial_sine_bump((-2.0, 1.5), 3).map


FUSED_CASES = list(_fused_cases())


@pytest.mark.parametrize("build", [b for _, b in FUSED_CASES], ids=[i for i, _ in FUSED_CASES])
def test_every_map_keeps_the_shape_contract(build, rng):
    f = build()
    m, n = f.codomain_dim, f.domain_dim
    T = rng.uniform(-2.0, 2.0, size=(33, n))
    for t, lead in ((T, (33,)), (T[0], ())):  # a stack and one point
        Y, J = f.value_and_jacobian(t)
        values = (f(t), Y, f.jacobian(t), J)
        assert [v.shape for v in values] == [lead + (m,)] * 2 + [lead + (m, n)] * 2
        assert all(np.isfinite(v).all() for v in values)


def test_non_finite_value_names_the_node():
    f = DifferentiableMap("log", 1, 1, lambda T: (np.log(T), 1.0 / T[:, :, None]))
    with np.errstate(divide="ignore"):
        with pytest.raises(MapEvaluationError, match=r"t=\[0\.\]"):
            f(np.array([[1.0], [0.0]]))


def test_graph_surface_checks_its_stack_once(monkeypatch):
    checked = []
    finite = maps._finite

    def counted(name, *args):
        checked.append(name)
        return finite(name, *args)

    monkeypatch.setattr(maps, "_finite", counted)
    f = graph_surface([[1.0, (2, 0)], [1.0, (0, 2)]])
    T = np.array([[0.5, -0.4], [1.0, 1.0]])
    f.value_and_jacobian(T)
    f(T)
    assert checked == ["graph_surface"] * 3  # the value and the Jacobian, then the value


def test_non_finite_graph_height_names_the_node():
    # h = 6e307 u^2: the height overflows at u = 2, its Jacobian 1.2e308 u already at u = 1.6
    f = graph_surface([[6e307, (2, 0)]])
    with np.errstate(over="ignore"):
        for call in (f, f.value_and_jacobian):
            with pytest.raises(MapEvaluationError, match=r"graph_surface: .* value at t=\[2\. 0\.\]"):
                call(np.array([[0.5, 0.0], [2.0, 0.0]]))
        # calling the map checks its value only: the heights are finite here
        T = np.array([[0.5, 0.0], [1.6, 0.0]])
        assert np.isfinite(f(T)).all()
        jacobian = r"graph_surface: non-finite Jacobian at t=\[1\.6 0\. \]"
        with pytest.raises(MapEvaluationError, match=jacobian):
            f.value_and_jacobian(T)


def test_inverses_roundtrip(rng):
    for f in [
        affine_map([[2.0, 1.0], [0.0, 1.0]], [0.3, -0.2]),
        positive_scale([2.0, 3.0]),
        trig_shear(0.4),
        sine_shift(0.3),
    ]:
        t = rng.uniform(-1.0, 1.0, size=f.domain_dim)
        back = f.inverted()(f(t))
        assert np.allclose(back, t, atol=1e-12)


def test_compose_chain_rule():
    f = trig_shear(0.3)
    g = affine_map([[1.0, 2.0], [0.0, 1.0]], [0.1, 0.2])
    h = compose(g, f)
    t = np.array([0.4, -0.7])
    assert np.allclose(h(t), g(f(t)))
    assert np.allclose(h.jacobian(t), g.jacobian(f(t)) @ f.jacobian(t))
    assert np.allclose(h.inverted()(h(t)), t, atol=1e-12)


def test_composed_jacobians_have_the_bits_of_c_order_factors(rng):
    # the catalog stores a stack's Jacobians component-major; numpy's stacked
    # matmul rounds a product by the strides of its factors, so the chain
    # rule multiplies C-order copies, as it did when the catalog stored them so
    cubic = polynomial_map(3, [[(1.0, (1, 0, 0)), (0.3, (0, 1, 1))],
                               [(1.0, (0, 1, 0)), (0.2, (2, 0, 0))], [(1.0, (0, 0, 1))]])
    for outer, inner, T in [
        (cubic, helix(1.1, 0.3), rng.uniform(0.0, 5.0, size=(257, 1))),
        (trig_shear(0.3), circle(0.8, (0.1, 0.2), 0.3), rng.uniform(0.0, 6.0, size=(257, 1))),
        (cubic, torus_patch(2.0, 0.7), rng.uniform(-1.0, 1.0, size=(257, 2))),
    ]:
        J_inner = inner.jacobian(T)
        J_outer = outer.jacobian(inner(T))
        assert not J_inner.flags.c_contiguous and not J_outer.flags.c_contiguous
        expected = np.ascontiguousarray(J_outer) @ np.ascontiguousarray(J_inner)
        assert same_bits(compose(outer, inner).jacobian(T), expected)


def test_compose_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        compose(trig_shear(0.1), helix())


def test_canonical_inclusion_left_inverse():
    inclusion, projection = linear_map(np.eye(5, 2)), linear_map(np.eye(2, 5))
    t = np.array([0.3, -1.2])
    y = inclusion(t)
    assert np.allclose(y, [0.3, -1.2, 0.0, 0.0, 0.0])
    assert np.allclose(projection(y), t)


def test_insert_axis_map():
    inc = insert_axis_map(3, 2, 0.5)
    assert np.allclose(inc(np.array([1.0, 2.0])), [1.0, 0.5, 2.0])


def test_sine_shift_monotonicity_guard():
    with pytest.raises(MapEvaluationError):
        sine_shift(1.2)


def test_from_catalog_dispatch():
    f = from_catalog("circle", {"radius": 2.0})
    assert f.codomain_dim == 2
    with pytest.raises(MapEvaluationError):
        from_catalog("nope", {})
    with pytest.raises(MapEvaluationError):
        from_catalog("circle", {"bogus": 1})


def test_segment_is_its_closed_form_bit_for_bit(rng):
    for m in (1, 2, 3):
        p, q = rng.normal(size=m), rng.normal(size=m)
        f = segment(p, q)
        T = rng.uniform(-0.5, 1.5, size=(9, 1))
        assert same_bits(f(T), p + T * (q - p))
        assert same_bits(f.jacobian(T), np.broadcast_to((q - p)[:, None], (9, m, 1)))


def test_only_a_one_dimensional_segment_has_an_exact_inverse():
    f = segment([0.5], [2.5])
    y = np.array([[0.5], [1.0], [2.5]])
    assert np.array_equal(f.inverted()(y), [[0.0], [0.25], [1.0]])
    assert np.array_equal(f.inverted().jacobian(y), np.full((3, 1, 1), 0.5))
    assert not segment([0.0, 0.0], [1.0, 2.0]).has_inverse


def test_a_map_needs_its_jacobian():
    with pytest.raises(TypeError, match="jacobian"):
        DifferentiableMap("raw", 1, 1)


def test_constructor_links_the_inverse():
    for f in [
        identity_map(2),
        linear_map([[2.0, 1.0], [0.0, 1.0]]),
        affine_map([[2.0]], [0.5]),
        positive_scale([2.0, 3.0]),
        sine_shift(0.3),
        trig_shear(0.4),
        compose(trig_shear(0.4), positive_scale([2.0, 3.0])),
    ]:
        assert f.inverted().inverted() is f
    assert not linear_map([[1.0, 2.0]]).has_inverse
    inv = DifferentiableMap("half", 1, 1, lambda Y: (0.5 * Y, [[0.5]]))
    f = DifferentiableMap("double", 1, 1, lambda T: (2.0 * T, [[2.0]]), inv)
    assert f.inverted() is inv and inv.inverted() is f


def test_positive_scale_inverse_divides_exactly():
    f = positive_scale([3.0, 7.0])
    y = np.array([1.0, 1.0])
    assert f.inverted()(y).tolist() == [1.0 / 3.0, 1.0 / 7.0]


# -- polynomial maps ---------------------------------------------------------

def _polynomials(n):
    """Componentwise polynomials in n variables: up to 3 components of up to
    4 terms each, a component may have none."""
    term = st.tuples(st.floats(-2.0, 2.0), st.tuples(*[st.integers(0, 4)] * n))
    return st.lists(st.lists(term, max_size=4), min_size=1, max_size=3)


def _agrees_with_the_oracles(terms, T):
    f = polynomial_map(T.shape[1], terms)
    values, jac = polynomial_by_terms(terms, T)
    assert np.allclose(f(T), values, rtol=1e-12, atol=1e-12)
    assert np.allclose(f.jacobian(T), jac, rtol=1e-12, atol=1e-12)
    for i, t in enumerate(T):  # a node's value depends on that node alone
        assert np.array_equal(f(t), f(T)[i]) and np.array_equal(f.jacobian(t), f.jacobian(T)[i])
    assert verify_jacobian(f, T) <= JAC_TOL


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_polynomial_map_matches_the_per_term_oracle(data):
    n = data.draw(st.integers(1, 3))
    terms = data.draw(_polynomials(n))
    T = np.array(data.draw(st.lists(st.tuples(*[st.floats(-1.5, 1.5)] * n), min_size=1, max_size=4)))
    _agrees_with_the_oracles(terms, T)


@pytest.mark.parametrize(
    "terms",
    [
        [[(1.0, (2, 1))], [], [(0.5, (0, 3))]],  # a component with no terms
        [[(2.5, (0, 0)), (1.0, (1, 0))], [(-1.0, (0, 0))]],  # constant terms
        [[(1.0, (0, 0))], [(3.0, (0, 0)), (-0.5, (0, 0))]],  # degree 0 everywhere
        [[(1.0, (MAX_EXPONENT, 0)), (1.0, (1, 1))]],
    ],
    ids=["empty-component", "constant-term", "degree-0", "largest-exponent"],
)
def test_polynomial_map_edge_cases(terms, rng):
    _agrees_with_the_oracles(terms, rng.uniform(-1.0, 1.0, size=(5, 2)))


# (id, domain_dim, one [coeff, exponents] term of the second component)
BAD_POLYNOMIALS = [
    ("exponent-float", 2, (1.0, (1.5, 0))),
    ("exponent-integral-float", 2, (1.0, (2.0, 0))),
    ("exponent-string", 2, (1.0, ("a", 0))),
    ("exponent-negative", 2, (1.0, (-1, 0))),
    ("exponent-bool", 2, (1.0, (True, 0))),
    ("exponent-too-large", 2, (1.0, (MAX_EXPONENT + 1, 0))),
    ("coefficient-string", 2, ("x", (1, 0))),
    ("coefficient-bool", 2, (True, (1, 0))),
    ("coefficient-nan", 2, (float("nan"), (1, 0))),
    ("coefficient-huge", 2, (10**400, (1, 0))),
    ("term-string", 2, "ab"),
    ("term-number", 2, 1.0),
    ("domain-float", 1.5, (1.0, (1, 0))),
    ("domain-string", "a", (1.0, (1, 0))),
    ("domain-0", 0, (1.0, (1, 0))),
]


@pytest.mark.parametrize(
    "domain_dim, term", [case[1:] for case in BAD_POLYNOMIALS], ids=[c[0] for c in BAD_POLYNOMIALS]
)
def test_polynomial_map_rejects_bad_terms(domain_dim, term):
    with pytest.raises(MapEvaluationError):
        polynomial_map(domain_dim, [[(1.0, (1, 0))], [term]])


def test_polynomial_exponent_tuple_length():
    with pytest.raises(DimensionMismatchError):
        polynomial_map(2, [[(1.0, (1, 0, 0))]])


@pytest.mark.parametrize("value, shape", [
    ("1.5", ()), (True, ()), (None, ()), ([1.0], ()), (10**400, ()), (math.inf, ()),
    ([0.0], (2,)), ([0.0, "x"], (2,)), ([0.0, np.bool_(True)], (2,)), ([], (None,)),
    ([[1.0, 2.0], [3.0]], (None, None)), ([1.0, 2.0], (None, None)), ([[math.nan]], (1, 1)),
])
def test_checked_reals_rejects_non_numbers_and_wrong_shapes(value, shape):
    with pytest.raises(MapEvaluationError, match="radius must be"):
        checked_reals(value, "radius", shape)


def test_checked_reals_reads_numbers_of_the_shape():
    assert checked_reals(2, "radius") == 2.0 and isinstance(checked_reals(2, "radius"), float)
    assert checked_reals(np.float64(0.5), "radius") == 0.5
    assert np.array_equal(checked_reals((1, 2.5), "center", (2,)), [1.0, 2.5])
    M = checked_reals([[1, 0, 2]], "matrix", (None, 3))
    assert M.dtype == float and M.shape == (1, 3)


SPECIAL_FLOATS = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -2.5e-310,
                  1e-13, -1e-13]


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(arrays(
    np.float64,
    st.tuples(st.integers(0, 9), st.integers(1, 35)),
    elements=st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(allow_subnormal=True)),
))
def test_row_max_abs_equals_the_row_reduction_bit_for_bit(A):
    assert same_bits(row_max_abs(A), row_max_by_reduction(A))


def test_row_max_abs_of_no_columns_is_zero():
    assert same_bits(row_max_abs(np.zeros((3, 0))), np.zeros(3))


@pytest.mark.parametrize("radius", [1.3, -0.7])
def test_sphere_patch_equals_its_entry_expressions_bit_for_bit(radius, rng):
    T = rng.uniform(-4.0, 4.0, size=(257, 2))
    values, jac = sphere_patch_by_entries(radius, T)
    f = sphere_patch(radius)
    assert same_bits(f(T), values) and same_bits(f.jacobian(T), jac)


@pytest.mark.parametrize("radii", [(2.0, 0.7), (-1.5, 0.4), (1.0, -2.0)])
def test_torus_patch_equals_its_entry_expressions_bit_for_bit(radii, rng):
    T = rng.uniform(-4.0, 4.0, size=(257, 2))
    values, jac = torus_patch_by_entries(*radii, T)
    f = torus_patch(*radii)
    assert same_bits(f(T), values) and same_bits(f.jacobian(T), jac)
