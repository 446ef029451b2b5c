import math

import numpy as np
import pytest

from grassvar.errors import DimensionMismatchError, MapEvaluationError
from grassvar.maps import (
    CanonicalInclusion,
    DifferentiableMap,
    add_scaled,
    affine_map,
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
    segment,
    sine_shift,
    sphere_patch,
    tangent_lift,
    torus_patch,
    trig_shear,
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
        verify_jacobian(f, points, tol=JAC_TOL)


def test_stack_matches_single_points(rng):
    for f, points in catalog_samples(rng):
        T = np.asarray(points, dtype=float)
        assert f(T).shape == (len(T), f.codomain_dim)
        assert f.jacobian(T).shape == (len(T), f.codomain_dim, f.domain_dim)
        for i, t in enumerate(T):  # a stack may reach BLAS kernels a point does not
            assert np.allclose(f(T)[i], f(t), rtol=1e-14, atol=1e-15)
            assert np.allclose(f.jacobian(T)[i], f.jacobian(t), rtol=1e-14, atol=1e-15)


def test_non_finite_value_names_the_node():
    f = DifferentiableMap("log", 1, 1, lambda T: np.log(T))
    with np.errstate(divide="ignore"):
        with pytest.raises(MapEvaluationError, match=r"t=\[0\.\]"):
            f(np.array([[1.0], [0.0]]))


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


def test_compose_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        compose(trig_shear(0.1), helix())


def test_add_scaled():
    f = segment([0.0, 0.0], [1.0, 0.0])
    g = segment([0.0, 0.0], [0.0, 2.0])
    # both vanish at t=0, so the combination is (t, -2... ) -- check pointwise
    h = add_scaled(f, g, -0.5)
    t = np.array([0.7])
    assert np.allclose(h(t), f(t) - 0.5 * g(t))
    assert np.allclose(h.jacobian(t), f.jacobian(t) - 0.5 * g.jacobian(t))


def test_tangent_lift_values_and_jacobian():
    z = circle(radius=2.0)
    T = tangent_lift(z)
    t = np.array([0.9])
    v = T(t)
    assert np.allclose(v[:2], z(t))
    assert np.allclose(v[2:], z.jacobian(t)[:, 0])
    verify_jacobian(T, [[0.9], [2.4]], tol=1e-5)


def test_canonical_inclusion_left_inverse():
    ci = CanonicalInclusion(2, 5)
    t = np.array([0.3, -1.2])
    y = ci.inclusion(t)
    assert np.allclose(y, [0.3, -1.2, 0.0, 0.0, 0.0])
    assert np.allclose(ci.projection(y), t)


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


def test_fd_fallback_jacobian():
    f = compose(identity_map(2), trig_shear(0.2))
    g = linear_map([[1.0, 0.0], [0.0, 1.0]])
    raw = type(f)("raw", 2, 2, lambda T: np.stack([T[:, 0] ** 2, np.sin(T[:, 1])], axis=1))
    J = raw.jacobian(np.array([0.5, 0.3]))
    assert np.allclose(J, [[1.0, 0.0], [0.0, math.cos(0.3)]], atol=1e-8)
    assert np.allclose(g.jacobian(np.zeros(2)), np.eye(2))


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
    inv = DifferentiableMap("half", 1, 1, lambda Y: 0.5 * Y, lambda Y: np.array([[0.5]]))
    f = DifferentiableMap("double", 1, 1, lambda T: 2.0 * T, lambda T: np.array([[2.0]]), inv)
    assert f.inverted() is inv and inv.inverted() is f


def test_positive_scale_inverse_divides_exactly():
    f = positive_scale([3.0, 7.0])
    y = np.array([1.0, 1.0])
    assert f.inverted()(y).tolist() == [1.0 / 3.0, 1.0 / 7.0]
