import math

import numpy as np
import pytest
from scipy.integrate import dblquad

from grassvar import functional
from grassvar.errors import (
    QuadratureTargetWarning,
    CrossCheckError,
    DimensionMismatchError,
    ImmersionError,
    NonHomogeneousWarning,
    OrientationError,
    VariationConsistencyWarning,
)
from grassvar.finsler import (
    FinslerFunction,
    areal_gram,
    energy_metric,
    euclidean_metric,
    randers_metric,
)
from grassvar.forms import Piece, QuadratureSpec
from grassvar.functional import (
    VariationField,
    _preimage,
    areal_value,
    curve_length,
    default_variation_basis,
    extremal_residual,
    first_variation,
    hilbert_route_length,
    reparam_invariance_residual,
)
from grassvar.maps import (
    DifferentiableMap,
    affine_map,
    circle,
    graph_surface,
    polynomial_map,
    segment,
    sine_shift,
    sphere_patch,
)

Q = QuadratureSpec(gauss_order=8, cells_per_axis=16)
Q64 = QuadratureSpec(gauss_order=8, cells_per_axis=64)
TWO_PI = 2.0 * math.pi


# -- curve length ------------------------------------------------------------

def test_circle_length_is_two_pi():
    val = curve_length(euclidean_metric(2), circle(), (0.0, TWO_PI), Q64)
    assert val == pytest.approx(TWO_PI, abs=1e-8)


def test_randers_segment_closed_form():
    p, q = np.array([0.0, 0.0, 0.0]), np.array([1.0, 2.0, 2.0])
    b = np.array([0.3, 0.0, 0.0])
    val = curve_length(randers_metric(3, b), segment(p, q), (0.0, 1.0), Q)
    assert val == pytest.approx(np.linalg.norm(q - p) + b @ (q - p), abs=1e-12)


def test_zero_width_interval():
    assert curve_length(euclidean_metric(2), circle(), (1.0, 1.0), Q) == 0.0


def test_dual_route_agreement():
    F = randers_metric(2, [0.2, -0.1])
    direct = curve_length(F, circle(1.7), (0.2, 4.0), Q, cross_check=True)
    via = hilbert_route_length(F, circle(1.7), (0.2, 4.0), Q)
    assert abs(direct - via) <= 1e-10 * max(1.0, abs(direct))


def test_nonhomogeneous_warns_and_skips_cross_check():
    with pytest.warns(NonHomogeneousWarning):
        val = curve_length(energy_metric(2), circle(), (0.0, TWO_PI), Q)
    assert val == pytest.approx(TWO_PI, abs=1e-9)  # |zeta'| = 1 so energy = length here


def test_immersion_error_on_stationary_curve():
    frozen = segment([0.0, 0.0], [0.0, 0.0])
    with pytest.raises(ImmersionError):
        curve_length(euclidean_metric(2), frozen, (0.0, 1.0), Q)


def test_curve_length_additive_under_splitting():
    F = randers_metric(2, [0.2, 0.1])
    z = circle(1.3)
    whole = curve_length(F, z, (0.0, 5.0), Q, cross_check=False)
    c = 1.37  # arbitrary interior split point
    parts = curve_length(F, z, (0.0, c), Q, cross_check=False) + curve_length(
        F, z, (c, 5.0), Q, cross_check=False
    )
    assert abs(whole - parts) <= 1e-11 * max(1.0, abs(whole))


# -- areal values ------------------------------------------------------------

def test_flat_rectangle_area():
    # (u, v) -> (2u, 3v, 0) over the unit square: area 6
    patch = affine_map([[2.0, 0.0], [0.0, 3.0], [0.0, 0.0]], [0.0, 0.0, 0.0])
    piece = Piece(((0.0, 1.0), (0.0, 1.0)), patch)
    val = areal_value(areal_gram(2, 3), piece, QuadratureSpec(8, 4))
    assert val == pytest.approx(6.0, abs=1e-12)


def test_spherical_zone_area():
    piece = Piece(((0.1, math.pi - 0.1), (0.0, TWO_PI)), sphere_patch(1.0))
    val = areal_value(areal_gram(2, 3), piece, Q)
    expected = TWO_PI * (math.cos(0.1) - math.cos(math.pi - 0.1))
    assert val == pytest.approx(expected, abs=1e-8)


def test_graph_patch_matches_independent_quadrature():
    patch = graph_surface([[1.0, (2, 0)], [1.0, (0, 2)]])  # z = u^2 + v^2
    piece = Piece(((0.0, 1.0), (0.0, 1.0)), patch)
    val = areal_value(areal_gram(2, 3), piece, Q)
    ref, err = dblquad(
        lambda v, u: math.sqrt(1.0 + 4.0 * u * u + 4.0 * v * v), 0.0, 1.0, 0.0, 1.0,
        epsabs=1e-12, epsrel=1e-12,
    )
    assert err < 1e-9
    assert val == pytest.approx(ref, abs=1e-9)


def test_areal_additive_under_box_split():
    patch = graph_surface([[0.5, (2, 0)], [1.0, (1, 1)]])
    L = areal_gram(2, 3)
    whole = areal_value(L, Piece(((0.0, 1.0), (0.0, 1.0)), patch), Q)
    c = 0.41
    left = areal_value(L, Piece(((0.0, c), (0.0, 1.0)), patch), Q)
    right = areal_value(L, Piece(((c, 1.0), (0.0, 1.0)), patch), Q)
    assert abs(whole - (left + right)) <= 1e-11 * max(1.0, abs(whole))


def test_quadrature_target_warning_reports_the_estimate():
    piece = Piece(((0.1, 3.0), (0.0, 6.0)), sphere_patch())
    q = QuadratureSpec(gauss_order=2, cells_per_axis=1, adaptive=True, target=1e-15)
    with pytest.warns(QuadratureTargetWarning) as record:
        areal_value(areal_gram(2, 3), piece, q)
    message = str(record[0].message)
    assert "stopped at 64 cells/axis" in message
    estimate = float(message.split("estimate ")[1].split(" >")[0])
    assert estimate > 0.0


def test_areal_dimension_check():
    piece = Piece(((0.0, 1.0), (0.0, 1.0)), sphere_patch())
    with pytest.raises(DimensionMismatchError):
        areal_value(areal_gram(3, 4), piece, Q)


# -- reparametrization invariance --------------------------------------------

def test_reparam_affine():
    rho = affine_map([[2.0]], [-0.5])
    res = reparam_invariance_residual(euclidean_metric(2), circle(), (0.0, TWO_PI), rho, Q)
    assert res <= 1e-10


def test_reparam_sine_shift_circle():
    rho = sine_shift(0.3)
    res = reparam_invariance_residual(euclidean_metric(2), circle(), (0.0, TWO_PI), rho, Q)
    assert res <= 1e-8
    # both routes should individually hit the closed form
    assert curve_length(euclidean_metric(2), circle(), (0.0, TWO_PI), Q) == pytest.approx(
        TWO_PI, abs=1e-10
    )


def test_reparam_without_inverse_uses_the_bracketed_preimage():
    rho = polynomial_map(1, [[(1.0, (1,)), (1.0, (3,))]])  # s + s^3, strictly increasing
    assert not rho.has_inverse
    assert _preimage(rho, 0.625) == pytest.approx(0.5, abs=1e-15)  # bisected in [-0.375, 1.625]
    assert _preimage(rho, 10.0) == pytest.approx(2.0, abs=1e-15)  # after widening the bracket
    res = reparam_invariance_residual(euclidean_metric(2), circle(), (0.625, 10.0), rho, Q)
    assert res <= 1e-10


def test_reparam_orientation_violation():
    rho = affine_map([[-1.0]], [0.0])
    with pytest.raises(OrientationError):
        reparam_invariance_residual(euclidean_metric(2), circle(), (0.0, TWO_PI), rho, Q)


def test_reparam_energy_depends_on_parametrization():
    rho = affine_map([[2.0]], [0.0])  # double speed halves the interval
    with pytest.warns(NonHomogeneousWarning):
        res = reparam_invariance_residual(energy_metric(2), circle(), (0.0, TWO_PI), rho, Q)
    assert res > 1.0  # energy of the sped-up circle doubles


# -- first variation and extremality -----------------------------------------

def test_variation_field_endpoints_enforced():
    with pytest.raises(DimensionMismatchError):
        VariationField(segment([0.0, 0.0], [1.0, 0.0]), (0.0, 1.0))


def test_first_variation_zero_field_is_zero():
    zero_map = DifferentiableMap(
        "zero", 1, 2, lambda T: np.zeros((len(T), 2)), lambda T: np.zeros((len(T), 2, 1))
    )
    zero = VariationField(zero_map, (0.0, 1.0))
    line = segment([0.0, 0.0], [1.0, 1.0])
    assert first_variation(euclidean_metric(2), line, (0.0, 1.0), zero, q=Q) == 0.0


def test_straight_line_extremal_euclidean():
    line = segment([0.0, 0.0], [2.0, 1.0])
    res = extremal_residual(euclidean_metric(2), line, (0.0, 1.0), q=QuadratureSpec(8, 8))
    assert res <= 1e-6


def test_straight_line_extremal_randers():
    line = segment([0.0, 0.0], [2.0, 1.0])
    F = randers_metric(2, [0.25, -0.1])
    res = extremal_residual(F, line, (0.0, 1.0), q=QuadratureSpec(8, 8))
    assert res <= 1e-6


def test_circular_arc_not_extremal():
    arc = circle()  # quarter circle from (1,0) to (0,1) is not the chord
    res = extremal_residual(
        euclidean_metric(2), arc, (0.0, math.pi / 2), q=QuadratureSpec(8, 8)
    )
    assert res >= 1e-3


def test_radial_variation_increases_circle_length():
    field = VariationField.radial_sine_bump((0.0, math.pi / 2), 1)
    val = first_variation(euclidean_metric(2), circle(), (0.0, math.pi / 2), field, q=Q)
    # d/deps integral |zeta' + eps V'| = integral of the bump profile > 0
    assert val > 0.1


def test_variation_basis_shape():
    basis = default_variation_basis((0.0, 1.0), 3)
    assert len(basis) == 12  # 4 modes per coordinate direction


# -- cross-checks and the homogeneity probe ----------------------------------

def test_cross_check_rejects_a_gradient_that_disagrees_with_the_value():
    norm = lambda V: np.linalg.norm(V, axis=1)
    F = FinslerFunction(
        "bad_gradient", 2, 1, 2, lambda Y, V: norm(V), lambda Y, V: 2.0 * V / norm(V)[:, None]
    )
    with pytest.raises(CrossCheckError):
        curve_length(F, circle(), (0.0, math.pi), Q)
    assert curve_length(F, circle(), (0.0, math.pi), Q, cross_check=False) == pytest.approx(
        math.pi, abs=1e-12
    )


def test_coarse_eps_warns_variation_inconsistency():
    field = VariationField.radial_sine_bump((0.0, math.pi / 2), 1)
    with pytest.warns(VariationConsistencyWarning, match="eps=0.2"):
        first_variation(euclidean_metric(2), circle(), (0.0, math.pi / 2), field, 0.2, Q)


def test_reversed_interval_is_rejected():
    with pytest.raises(DimensionMismatchError, match="empty interval"):
        curve_length(euclidean_metric(2), circle(), (1.0, 0.0), Q)


def _count_probes(monkeypatch):
    calls = []
    probe = functional.check_homogeneity

    def counted(*args, **kwargs):
        calls.append(1)
        return probe(*args, **kwargs)

    monkeypatch.setattr(functional, "check_homogeneity", counted)
    return calls


def test_homogeneity_probe_runs_once_per_public_call(monkeypatch):
    calls = _count_probes(monkeypatch)
    line = segment([0.0, 0.0], [2.0, 1.0])
    fields = default_variation_basis((0.0, 1.0), 2)
    assert len(fields) == 8
    extremal_residual(euclidean_metric(2), line, (0.0, 1.0), fields, q=QuadratureSpec(8, 4))
    assert len(calls) == 1
    first_variation(euclidean_metric(2), line, (0.0, 1.0), fields[0], q=QuadratureSpec(8, 4))
    assert len(calls) == 2
    reparam_invariance_residual(
        euclidean_metric(2), circle(), (0.0, 1.0), sine_shift(0.3), QuadratureSpec(8, 4)
    )
    assert len(calls) == 3
    curve_length(euclidean_metric(2), circle(), (0.0, 1.0), QuadratureSpec(8, 4))
    assert len(calls) == 4
