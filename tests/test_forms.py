import math
import warnings

import numpy as np
import pytest

from grassvar.errors import (
    DegeneratePieceWarning,
    EvaluationError,
    InvalidDegreeError,
    InvalidPartitionError,
    OrientationError,
)
from grassvar.expressions import ExprCoeff
from grassvar.forms import (
    CHUNK_NODES,
    KForm,
    ParametricFormFamily,
    PartitionOfUnity,
    Piece,
    QuadratureSpec,
    boundary_faces,
    exterior_derivative,
    integrate,
    integrate_scalar_over_box,
    integrate_with_partition,
    pullback,
    verify_domain_transform,
    verify_leibniz,
    verify_stokes,
)
from grassvar.maps import (
    CanonicalInclusion,
    affine_map,
    circle,
    compose,
    identity_map,
    linear_map,
    polynomial_map,
    sine_shift,
    sphere_patch,
    trig_shear,
)

from .oracles import gauss_reference_1d

Q = QuadratureSpec()
Q_FAST = QuadratureSpec(gauss_order=8, cells_per_axis=4)


def area_form_2d():
    return KForm.from_dict(2, 2, {(1, 2): 1.0})


def test_quadrature_polynomial_exactness():
    val = integrate_scalar_over_box(lambda T: T[:, 0] ** 7 - 3 * T[:, 0] ** 2, [(0.0, 2.0)], Q_FAST)
    assert val == pytest.approx(2.0**8 / 8 - 2.0**3, rel=1e-14)


def test_quadrature_empty_interval():
    assert integrate_scalar_over_box(lambda t: 1.0, [(1.0, 1.0)], Q) == 0.0


def test_adaptive_quadrature_meets_target():
    q = QuadratureSpec(gauss_order=4, cells_per_axis=1, adaptive=True, target=1e-11)
    val = integrate_scalar_over_box(lambda T: np.exp(np.sin(3 * T[:, 0])), [(0.0, 2.0)], q)
    ref = gauss_reference_1d(lambda t: math.exp(math.sin(3 * t)), 0.0, 2.0)
    assert val == pytest.approx(ref, abs=5e-11)


def test_quadrature_walks_the_grid_in_bounded_chunks():
    calls = []

    def g(T):
        calls.append(T.shape)
        return T[:, 0] ** 3 * T[:, 1]

    q = QuadratureSpec(gauss_order=8, cells_per_axis=16)  # 128 x 128 nodes
    val = integrate_scalar_over_box(g, [(0.0, 1.0), (0.0, 2.0)], q)
    assert val == pytest.approx(0.25 * 2.0, rel=1e-14)
    assert sum(n for n, _ in calls) == 128 * 128
    assert all(n <= CHUNK_NODES and k == 2 for n, k in calls)
    assert len(calls) == -(-128 * 128 // CHUNK_NODES)


def test_quadrature_one_dimensional_nodes_are_columns():
    shapes = []

    def g(T):
        shapes.append(T.shape)
        return np.ones(len(T))

    assert integrate_scalar_over_box(g, [(0.0, 3.0)], Q_FAST) == pytest.approx(3.0, rel=1e-14)
    assert shapes == [(32, 1)]


# -- pullback ----------------------------------------------------------------

def test_pullback_identity_keeps_coefficients(rng):
    eta = KForm.from_dict(2, 3, {(1, 2): "y1*y3", (2, 3): "sin(y2)"})
    back = pullback(eta, identity_map(3))
    y = rng.normal(size=3)
    assert np.allclose(back.values(y), eta.values(y))


def test_pullback_scaled_plane():
    eta = KForm.from_dict(2, 3, {(1, 2): 1.0})
    f = linear_map([[2.0, 0.0], [0.0, 3.0], [0.0, 0.0]])  # (u,v) -> (2u, 3v, 0)
    back = pullback(eta, f)
    assert back.values(np.array([0.4, 0.7]))[0] == pytest.approx(6.0, rel=1e-14)


def test_pullback_functoriality(rng):
    eta = KForm.from_dict(2, 3, {(1, 2): "y1", (1, 3): "y2*y3", (2, 3): "cos(y1)"})
    g = affine_map(rng.normal(size=(3, 3)), rng.normal(size=3))
    f = polynomial_map(2, [[(1.0, (1, 0))], [(1.0, (0, 1))], [(1.0, (2, 0)), (-0.5, (0, 2))]])
    gf = compose(g, f)
    direct = pullback(eta, gf)
    staged = pullback(pullback(eta, g), f)
    for _ in range(5):
        t = rng.normal(size=2)
        assert np.max(np.abs(direct.values(t) - staged.values(t))) <= 1e-10


def test_pullback_degree_error():
    eta = KForm.from_dict(2, 2, {(1, 2): 1.0})
    with pytest.raises(InvalidDegreeError):
        pullback(eta, circle())  # cannot pull a 2-form back to a 1-dim domain


# -- integrate ---------------------------------------------------------------

def test_integrate_unit_square_area():
    piece = Piece(((0.0, 1.0), (0.0, 1.0)), identity_map(2))
    assert integrate(area_form_2d(), piece, Q_FAST) == pytest.approx(1.0, abs=1e-14)


def test_integrate_circle_green():
    eta = KForm.from_dict(1, 2, {(1,): 0.0, (2,): "y1"})  # y1 dy2
    piece = Piece(((0.0, 2.0 * math.pi),), circle())
    assert integrate(eta, piece, Q) == pytest.approx(math.pi, abs=1e-10)


def test_integrate_orientation_flip():
    eta = area_form_2d()
    pos = Piece(((0.0, 1.0), (0.0, 1.0)), identity_map(2), 1)
    neg = Piece(((0.0, 1.0), (0.0, 1.0)), identity_map(2), -1)
    assert integrate(eta, pos, Q_FAST) == -integrate(eta, neg, Q_FAST)


def test_integrate_linear_in_form(rng):
    piece = Piece(((0.0, 1.0), (0.0, 1.0)), identity_map(2))
    a = KForm.from_dict(2, 2, {(1, 2): "y1"})
    b = KForm.from_dict(2, 2, {(1, 2): "y2*y2"})
    comb = KForm.from_dict(2, 2, {(1, 2): "2*y1 + y2*y2"})
    va, vb, vc = (integrate(f, piece, Q_FAST) for f in (a, b, comb))
    assert vc == pytest.approx(2 * va + vb, rel=1e-13)


def test_integrate_degenerate_node_warns():
    pinch = polynomial_map(1, [[(1.0, (3,))], [(0.0, (0,))]])  # t -> (t^3, 0), zero velocity at 0
    eta = KForm.from_dict(1, 2, {(1,): 1.0})
    piece = Piece(((-1.0, 1.0),), pinch)
    q = QuadratureSpec(gauss_order=3, cells_per_axis=3)  # midpoint cell straddles t=0
    with pytest.warns(DegeneratePieceWarning):
        integrate(eta, piece, q)


def test_piece_immersion_validation():
    # an immersed piece has no degenerate quadrature node
    good = Piece(((0.1, 1.0),), circle())
    eta = KForm.from_dict(1, 2, {(1,): 1.0})
    with warnings.catch_warnings():
        warnings.simplefilter("error", DegeneratePieceWarning)
        integrate(eta, good, Q)


# -- partition of unity ------------------------------------------------------

def test_partition_sums_to_one():
    box = ((0.0, 2.0 * math.pi),)
    pou = PartitionOfUnity.uniform_cover(box, 3)
    assert pou.check_sums_to_one(box, per_axis=33, tol=1e-12) <= 1e-12


def test_partition_gap_raises():
    pou = PartitionOfUnity((((0.0, 0.4),), ((0.6, 1.0),)))  # hole in (0.4, 0.6)
    with pytest.raises(InvalidPartitionError):
        pou.chi(0, np.array([0.5]))


def test_partition_integral_matches_direct_interval():
    eta = KForm.from_dict(1, 1, {(1,): 1.0})  # dt
    piece = Piece(((0.0, 1.0),), identity_map(1))
    pou = PartitionOfUnity.uniform_cover(piece.param_box, 2)
    val = integrate_with_partition(eta, piece, pou, Q)
    assert val == pytest.approx(1.0, abs=1e-10)


def test_partition_integral_matches_direct_circle():
    eta = KForm.from_dict(1, 2, {(2,): "y1"})
    piece = Piece(((0.0, 2.0 * math.pi),), circle())
    pou = PartitionOfUnity.uniform_cover(piece.param_box, 3)
    val = integrate_with_partition(eta, piece, pou, Q)
    assert val == pytest.approx(math.pi, abs=1e-8)


def test_partition_two_covers_agree():
    eta = KForm.from_dict(1, 2, {(2,): "y1"})
    piece = Piece(((0.0, 2.0 * math.pi),), circle())
    v1 = integrate_with_partition(eta, piece, PartitionOfUnity.uniform_cover(piece.param_box, 2), Q)
    v2 = integrate_with_partition(eta, piece, PartitionOfUnity.uniform_cover(piece.param_box, 4), Q)
    assert abs(v1 - v2) <= 1e-8


# -- exterior derivative -----------------------------------------------------

def test_exterior_derivative_constant_coefficient():
    eta = KForm.from_dict(1, 2, {(2,): "y1"})
    deta = exterior_derivative(eta)
    assert deta.values(np.array([0.3, 0.8]))[0] == pytest.approx(1.0, abs=1e-14)


def test_exterior_derivative_closed_form():
    eta = KForm.from_dict(1, 2, {(1,): "y1"})  # y1 dy1
    deta = exterior_derivative(eta)
    assert abs(deta.values(np.array([0.5, 0.2]))[0]) <= 1e-14


def test_exterior_derivative_sign_convention():
    eta = KForm.from_dict(2, 3, {(1, 3): "y2"})  # y2 dy1^dy3
    deta = exterior_derivative(eta)
    assert deta.values(np.array([0.1, 0.2, 0.3]))[0] == pytest.approx(-1.0, abs=1e-14)


def test_d_squared_zero_symbolic(rng):
    eta = KForm.from_dict(1, 3, {(1,): "y2*y3", (2,): "sin(y1)*y3", (3,): "exp(y1)"})
    dd = exterior_derivative(exterior_derivative(eta))
    for _ in range(5):
        y = rng.normal(size=3)
        assert np.max(np.abs(dd.values(y))) <= 1e-12


def test_d_squared_zero_finite_difference(rng):
    coeffs = {(1,): lambda y: y[:, 1] * y[:, 2], (2,): lambda y: np.sin(y[:, 0]) * y[:, 2]}
    eta = KForm.from_dict(1, 3, coeffs)
    dd = exterior_derivative(exterior_derivative(eta))
    for _ in range(3):
        y = rng.normal(size=3)
        assert np.max(np.abs(dd.values(y))) <= 1e-6


def test_zero_form_gradient():
    f = KForm.from_dict(0, 2, {(): "y1*y2"})
    df = exterior_derivative(f)
    assert np.allclose(df.values(np.array([2.0, 3.0])), [3.0, 2.0])


# -- boundary and Stokes -----------------------------------------------------

def test_square_boundary_orientations():
    piece = Piece(((0.0, 1.0), (0.0, 1.0)), identity_map(2))
    faces = boundary_faces(piece)
    assert len(faces) == 4
    eta = KForm.from_dict(1, 2, {(2,): "y1"})  # integrates to 1 around ccw loop
    total = sum(integrate(eta, f, Q_FAST) for f in faces)
    assert total == pytest.approx(1.0, abs=1e-12)


def test_interval_boundary_signs():
    piece = Piece(((2.0, 5.0),), identity_map(1))
    faces = boundary_faces(piece)
    f = KForm.from_dict(0, 1, {(): "y1*y1"})
    total = sum(integrate(f, face, Q) for face in faces)
    assert total == pytest.approx(25.0 - 4.0, abs=1e-12)


def test_stokes_square_polynomial():
    eta = KForm.from_dict(1, 2, {(1,): "y2*y2", (2,): "y1*y1*y1"})
    piece = Piece(((0.0, 1.0), (0.0, 1.0)), identity_map(2))
    assert verify_stokes(eta, piece, Q_FAST) <= 1e-10


def test_stokes_cube_polynomial():
    eta = KForm.from_dict(
        2, 3, {(1, 2): "y3*y3", (1, 3): "y1*y2", (2, 3): "y1 + y2*y3"}
    )
    piece = Piece(((0.0, 1.0),) * 3, identity_map(3))
    q = QuadratureSpec(gauss_order=6, cells_per_axis=2)
    assert verify_stokes(eta, piece, q) <= 1e-10


def test_stokes_exact_form_on_curve():
    # eta = d(phi) for phi = y1^2 y2: boundary evaluation vs integral of d(eta) = 0
    phi = KForm.from_dict(0, 2, {(): "y1*y1*y2"})
    eta = exterior_derivative(phi)
    piece = Piece(((0.0, 1.5),), polynomial_map(1, [[(1.0, (1,))], [(1.0, (2,))]]))
    assert verify_stokes(phi, piece, Q) <= 1e-10


def test_stokes_zero_form():
    eta = KForm.from_dict(1, 2, {})
    piece = Piece(((0.0, 1.0), (0.0, 1.0)), identity_map(2))
    assert verify_stokes(eta, piece, Q_FAST) == 0.0


def test_stokes_with_finite_difference_partials():
    eta = KForm.from_dict(1, 2, {(1,): lambda y: y[:, 1] ** 2, (2,): lambda y: y[:, 0] ** 3})
    piece = Piece(((0.0, 1.0), (0.0, 1.0)), identity_map(2))
    assert verify_stokes(eta, piece, Q_FAST) <= 1e-6


# -- domain transformation ---------------------------------------------------

def test_domain_transform_identity():
    eta = area_form_2d()
    piece = Piece(((0.0, 1.0), (0.0, 1.0)), identity_map(2))
    assert verify_domain_transform(eta, identity_map(2), piece, Q_FAST) <= 1e-14


def test_domain_transform_positive_scale():
    eta = area_form_2d()
    piece = Piece(((0.0, 1.0), (0.0, 1.0)), identity_map(2))
    alpha = compose(affine_map([[1.5, 0.2], [0.0, 0.8]], [0.1, -0.3]), identity_map(2))
    assert verify_domain_transform(eta, alpha, piece, Q_FAST) <= 1e-10


def test_domain_transform_trig_case():
    eta = KForm.from_dict(2, 2, {(1, 2): "y1 + cos(y2)"})
    piece = Piece(((0.0, 1.0), (0.0, 1.0)), trig_shear(0.2))
    assert verify_domain_transform(eta, trig_shear(0.35), piece, Q) <= 1e-8


def test_domain_transform_orientation_violation():
    eta = area_form_2d()
    piece = Piece(((0.0, 1.0), (0.0, 1.0)), identity_map(2))
    reflect = linear_map([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(OrientationError):
        verify_domain_transform(eta, reflect, piece, Q_FAST)


# -- Leibniz rule ------------------------------------------------------------

def test_leibniz_linear_family():
    family = ParametricFormFamily(area_form_2d(), lambda t: t, lambda t: 1.0)
    piece = Piece(((0.0, 1.0), (0.0, 1.0)), identity_map(2))
    assert verify_leibniz(family, piece, t0=0.7, dt_step=1e-4, q=Q_FAST) <= 1e-9


def test_leibniz_sin_family_matches_cos():
    family = ParametricFormFamily(area_form_2d(), math.sin, math.cos)
    piece = Piece(((0.0, 1.0), (0.0, 1.0)), identity_map(2))
    t0 = 0.9
    assert verify_leibniz(family, piece, t0=t0, dt_step=1e-4, q=Q_FAST) <= 1e-7
    assert integrate(family.dform_at(t0), piece, Q_FAST) == pytest.approx(math.cos(t0), abs=1e-12)


def test_leibniz_constant_family():
    family = ParametricFormFamily(area_form_2d(), lambda t: 1.0, lambda t: 0.0)
    piece = Piece(((0.0, 1.0), (0.0, 1.0)), identity_map(2))
    assert verify_leibniz(family, piece, t0=0.3, dt_step=1e-4, q=Q_FAST) <= 1e-14


# -- misc --------------------------------------------------------------------

def test_sphere_zone_area_via_areal_route_equivalences():
    # integral of the pulled-back area 2-form through a unit-sphere patch differs
    # from the true zone area; this checks instead that the pullback machinery
    # applied to dy1^dy2 reproduces the z-projected (signed) area factor
    eta = KForm.from_dict(2, 3, {(1, 2): 1.0})
    piece = Piece(((0.1, math.pi / 2), (0.0, 2 * math.pi)), sphere_patch())
    val = integrate(eta, piece, Q_FAST)
    # projected area of the spherical cap band onto the plane: pi (sin^2 th1 - sin^2 th0)
    expected = math.pi * (1.0 - math.sin(0.1) ** 2)
    assert val == pytest.approx(expected, abs=1e-7)


def test_expr_coeff_rejects_unknown_symbols():
    with pytest.raises(ValueError):
        ExprCoeff("y1 + q", 2)


def test_canonical_inclusion_pullback_restricts_forms(rng):
    # dy^nu for nu > k pulls back to zero through the inclusion
    eta = KForm.from_dict(1, 4, {(3,): 1.0})
    back = pullback(eta, CanonicalInclusion(2, 4).inclusion)
    assert np.allclose(back.values(rng.normal(size=2)), 0.0)


def test_nan_coefficient_raises_evaluation_error():
    eta = KForm(1, 2, [lambda Y: np.where(Y[:, 0] > 0.5, np.nan, 1.0), lambda Y: Y[:, 1]])
    assert eta.values(np.array([0.25, 2.0])).tolist() == [1.0, 2.0]
    with pytest.raises(EvaluationError, match="non-finite form coefficient"):
        integrate(eta, Piece(((0.0, 1.0),), circle()), Q_FAST)


def test_overflowing_integrand_raises_evaluation_error():
    eta = KForm.from_dict(1, 2, {(1,): 1e308})
    piece = Piece(((0.0, 1.0),), affine_map([[4.0], [0.0]], [0.0, 0.0]))  # lift (4, 0)
    # numpy reports the overflow first; silenced here, the integrand check must still fire
    with np.errstate(over="ignore"), pytest.raises(EvaluationError, match="non-finite integrand"):
        integrate(eta, piece, Q_FAST)
