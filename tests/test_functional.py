import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad

from grassvar import forms, functional
from grassvar.errors import (
    QuadratureTargetWarning,
    CrossCheckError,
    DimensionMismatchError,
    ImmersionError,
    MapEvaluationError,
    NonHomogeneousWarning,
    OrientationError,
    VariationConsistencyWarning,
)
from grassvar.finsler import (
    FinslerFunction,
    areal_gram,
    energy_metric,
    euclidean_metric,
    hilbert_form,
    quartic_root_metric,
    randers_metric,
    riemannian_metric,
)
from grassvar.forms import Piece, QuadratureSpec, integrate
from grassvar.functional import (
    VariationField,
    _preimages,
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
    fourier_curve,
    graph_surface,
    helix,
    polynomial_map,
    segment,
    sine_shift,
    sphere_patch,
)

from .oracles import bisected_preimage

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


def test_hilbert_form_pullback_matches_hilbert_route():
    # the paper's statement: the Hilbert form integrated over t -> (zeta, zeta')
    # gives the length; here through forms.integrate on a map whose Jacobian
    # (with its zeta'' column) is the finite-difference fallback
    conformal = riemannian_metric(3, {"field": "conformal", "coefficient": 0.3})
    for F, curve, interval in [
        (randers_metric(2, [0.2, -0.1]), circle(1.7), (0.2, 4.0)),
        (conformal, helix(0.8, 0.5), (0.0, 5.0)),
    ]:
        lifted = DifferentiableMap(
            "tangent", 1, 2 * F.m,
            lambda T, c=curve: np.concatenate([c(T), c.jacobian(T)[:, :, 0]], axis=1),
        )
        pulled = integrate(hilbert_form(F), Piece((interval,), lifted), Q)
        assert abs(pulled - hilbert_route_length(F, curve, interval, Q)) <= 1e-9


def test_cross_checked_length_evaluates_each_layer_once(monkeypatch):
    z = circle()
    jacobian_calls, gradient_calls = [], []
    jacobian = z.jacobian
    gradient = FinslerFunction.fiber_gradient

    def counted_jacobian(t):
        jacobian_calls.append(1)
        return jacobian(t)

    def counted_gradient(self, y, v):
        gradient_calls.append(1)
        return gradient(self, y, v)

    monkeypatch.setattr(z, "jacobian", counted_jacobian)
    monkeypatch.setattr(FinslerFunction, "fiber_gradient", counted_gradient)
    val = curve_length(euclidean_metric(2), z, (0.0, TWO_PI), Q64)
    assert val == pytest.approx(TWO_PI, abs=1e-8)
    assert (len(jacobian_calls), len(gradient_calls)) == (1, 1)


@pytest.mark.parametrize("q", [
    Q, QuadratureSpec(gauss_order=3, cells_per_axis=1, adaptive=True, target=1e-9),
    QuadratureSpec(gauss_order=2, cells_per_axis=1, adaptive=True, target=1e-14,
                   max_refinements=3),
], ids=["fixed", "adaptive", "adaptive-missed"])
def test_cross_checked_length_equals_the_direct_walk_bit_for_bit(q):
    conformal = riemannian_metric(3, {"field": "conformal", "coefficient": 0.3})
    for F, curve, interval in [
        (randers_metric(2, [0.2, -0.1]), circle(1.7), (0.2, 4.0)),
        (conformal, helix(0.8, 0.5), (0.0, 5.0)),
        (quartic_root_metric([1.0, 2.0]), circle(1.1), (0.0, 2.0)),
    ]:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            direct = functional._lift_value(F, Piece((interval,), curve), q)
            checked = curve_length(F, curve, interval, q)
        assert checked == direct
        missed = [w for w in caught if w.category is QuadratureTargetWarning]
        # one for the direct walk, then one for each route of the checked walk
        assert len(missed) == (3 if q.target == 1e-14 else 0)


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
    # C(3, 1) = C(3, 2): the fiber dimensions agree, the degrees do not
    zone = Piece(((0.1, 3.0), (0.0, 6.0)), sphere_patch(1.0))
    with pytest.raises(DimensionMismatchError, match="degree 1"):
        areal_value(randers_metric(3, [0.5, 0.0, 0.0]), zone, QuadratureSpec(8, 8))


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
    # 0.625 is solved in [-0.375, 1.625], 10.0 after widening its bracket to [7, 13]
    assert _preimages(rho, (0.625, 10.0)) == pytest.approx((0.5, 2.0), abs=1e-15)
    res = reparam_invariance_residual(euclidean_metric(2), circle(), (0.625, 10.0), rho, Q)
    assert res <= 1e-10


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    st.floats(0.0, 1.0, exclude_min=True),
    st.floats(-4.0, 4.0),
    st.floats(-4.0, 4.0),
)
@example(1.0, 2.0, -2.0)  # rho(s) = 10: the bracket is widened to [7, 13]
@example(1.0, 4.0, 1e-300)  # 68, and a target whose preimage is subnormal-sized
@example(0.5, 0.0, 3.0)  # a target rho hits exactly
@example(1.0, 4.9, -21.5)  # 122.5 and -9959.9: preimages beyond [v - 80, v + 80]
def test_stacked_preimages_equal_the_scalar_bisection(c, s1, s2):
    rho = polynomial_map(1, [[(1.0, (1,)), (c, (3,))]])  # s + c s^3: no catalog inverse
    targets = [float(rho(np.array([s]))[0]) for s in (s1, s2)]
    assert _preimages(rho, targets) == tuple(bisected_preimage(rho, t) for t in targets)


@pytest.mark.parametrize("metric, curve, named", [
    (areal_gram(2, 3), circle(), "degree 2"),
    (euclidean_metric(3), sphere_patch(), "needs a 1-D domain, got 2-D"),
    (euclidean_metric(3), circle(), "metric dimension 3 differs from curve codomain dimension 2"),
])
def test_curve_mismatch_names_the_condition_that_failed(metric, curve, named):
    with pytest.raises(DimensionMismatchError, match=named):
        curve_length(metric, curve, (0.0, 1.0), Q)


@pytest.mark.parametrize("target", [125.0, -125.0, 1e4, -1e4])
def test_preimages_far_from_their_target_are_bracketed(target):
    rho = polynomial_map(1, [[(1.0, (1,)), (1.0, (3,))]])  # s + s^3: 125 at s ~ 4.9
    (s,) = _preimages(rho, (target,))
    assert float(rho(np.array([s]))[0]) == pytest.approx(target, rel=1e-15)
    assert _preimages(rho, (target, -target)) == (s, bisected_preimage(rho, -target))
    assert s == bisected_preimage(rho, target)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_bracket_widening_stops_where_rho_stops_being_finite():
    # -s^15 decreases, so no bracket of -3 holds a sign change, and s^15
    # overflows near s = 2^68, before the 80th widening
    rho = polynomial_map(1, [[(-1.0, (15,))]])
    with pytest.raises(OrientationError, match="could not bracket a preimage of -3.0"):
        _preimages(rho, (-3.0,))
    # a first bracket where rho is already non-finite is a map error
    with pytest.raises(MapEvaluationError, match="non-finite value"):
        _preimages(rho, (1e300,))


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


def _shifted(curve, field, c):
    """t -> curve(t) + c field(t), with the Jacobian likewise."""
    return DifferentiableMap(
        "shifted",
        1,
        curve.codomain_dim,
        lambda T: curve(T) + c * field.map(T),
        lambda T: curve.jacobian(T) + c * field.map.jacobian(T),
    )


def _difference_quotients(F, curve, interval, fields, eps, q):
    """(length(zeta + eps V) - length(zeta - eps V)) / (2 eps) per field, each
    length its own walk, with the quadrature warnings those walks raise."""
    def length(field, c):
        return curve_length(F, _shifted(curve, field, c), interval, q, cross_check=False)

    values = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for field in fields:
            values.append((length(field, eps) - length(field, -eps)) / (2.0 * eps))
            for e in (eps / 2.0, -eps / 2.0):
                length(field, e)
    return values, [str(w.message) for w in caught if w.category is QuadratureTargetWarning]


VARIATION_CASES = {
    "euclidean_arc_radial": (
        euclidean_metric(2), circle(1.3), (0.2, 1.9),
        [VariationField.radial_sine_bump((0.2, 1.9), j) for j in (1, 2, 3)], Q,
    ),
    "randers_segment": (
        randers_metric(3, [0.2, -0.1, 0.15]), segment([0.0, 1.0, 0.0], [2.0, -1.0, 0.5]),
        (0.0, 1.0), default_variation_basis((0.0, 1.0), 3), QuadratureSpec(8, 8),
    ),
    "quartic_fourier": (
        quartic_root_metric([1.0, 2.0]),
        fourier_curve([0.1, 0.0], [[1.0, 0.2], [0.0, 0.1]], [[0.0, 0.1], [0.8, 0.0]]),
        (0.3, 2.5), default_variation_basis((0.3, 2.5), 2), Q,
    ),
    "conformal_circle": (
        riemannian_metric(2, {"field": "conformal", "coefficient": 0.4}), circle(0.9),
        (0.0, TWO_PI), default_variation_basis((0.0, TWO_PI), 2, modes=3), QuadratureSpec(8, 8),
    ),
    "adaptive": (
        randers_metric(2, [0.3, 0.1]), circle(1.1), (0.0, 2.0),
        [VariationField.radial_sine_bump((0.0, 2.0), j) for j in (1, 3)]
        + default_variation_basis((0.0, 2.0), 2, modes=2),
        QuadratureSpec(gauss_order=3, cells_per_axis=1, adaptive=True, target=1e-9),
    ),
}


@pytest.mark.parametrize("case", sorted(VARIATION_CASES))
def test_batched_variation_equals_the_difference_quotient_of_lengths(case):
    F, curve, interval, fields, q = VARIATION_CASES[case]
    expected, _ = _difference_quotients(F, curve, interval, fields, 1e-4, q)
    assert first_variation(F, curve, interval, fields[1], 1e-4, q) == expected[1]
    assert extremal_residual(F, curve, interval, fields, 1e-4, q) == max(map(abs, expected))


def test_batched_variation_warns_per_length_that_misses_the_target():
    F, curve, interval, fields, _ = VARIATION_CASES["adaptive"]
    q = QuadratureSpec(gauss_order=2, cells_per_axis=1, adaptive=True, target=1e-12,
                       max_refinements=3)
    expected, missed = _difference_quotients(F, curve, interval, fields, 1e-4, q)
    assert len(missed) == 4 * len(fields)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = extremal_residual(F, curve, interval, fields, 1e-4, q)
    assert value == max(map(abs, expected))
    assert [str(w.message) for w in caught if w.category is QuadratureTargetWarning] == missed


def test_every_variation_call_is_one_grid_walk(monkeypatch):
    walks = []
    walk = forms.integrate_scalar_over_box
    monkeypatch.setattr(forms, "integrate_scalar_over_box", lambda *a: walks.append(1) or walk(*a))
    line = segment([0.0, 0.0], [2.0, 1.0])
    fields = default_variation_basis((0.0, 1.0), 2)
    assert len(fields) == 8
    extremal_residual(euclidean_metric(2), line, (0.0, 1.0), fields, q=Q)
    assert len(walks) == 1
    first_variation(euclidean_metric(2), line, (0.0, 1.0), fields[3], q=Q)
    assert len(walks) == 2


def test_perturbed_lift_on_the_slit_raises_immersion_error():
    line = segment([0.0, 0.0], [1.0, 0.0])  # zeta' = (1, 0)
    # V' = (-2, 0) everywhere, so zeta' + 0.5 V' vanishes at every node
    pinch = DifferentiableMap(
        "pinch", 1, 2, lambda T: np.zeros((len(T), 2)), lambda T: np.array([[-2.0], [0.0]])
    )
    fields = default_variation_basis((0.0, 1.0), 2, modes=1) + [VariationField(pinch, (0.0, 1.0))]
    with pytest.raises(ImmersionError, match="degenerate lift"):
        extremal_residual(euclidean_metric(2), line, (0.0, 1.0), fields, 0.5, Q)


def test_batched_variation_warns_once_per_inconsistent_field():
    arc = (0.0, math.pi / 2)
    fields = [VariationField.radial_sine_bump(arc, 1), VariationField.sine_bump(arc, 1, 0, 2),
              VariationField.radial_sine_bump(arc, 2)]
    expected, _ = _difference_quotients(euclidean_metric(2), circle(), arc, fields, 0.2, Q)
    with pytest.warns(VariationConsistencyWarning) as record:
        extremal_residual(euclidean_metric(2), circle(), arc, fields, 0.2, Q)
    messages = [str(w.message) for w in record if w.category is VariationConsistencyWarning]
    # the mode-2 radial bump has zero first variation at every eps; the others do not
    assert [text.split(" (")[1].split(")")[0] for text in messages] == [
        f"{expected[0]:.6g}", f"{expected[1]:.6g}"
    ]


@pytest.mark.parametrize("eps", [0.0, -1e-4, math.nan, math.inf])
def test_variation_epsilon_must_be_positive_and_finite(eps):
    line = segment([0.0, 0.0], [2.0, 1.0])
    field = VariationField.sine_bump((0.0, 1.0), 1, 0, 2)
    with pytest.raises(ValueError, match="epsilon"):
        first_variation(euclidean_metric(2), line, (0.0, 1.0), field, eps, Q)
    with pytest.raises(ValueError, match="epsilon"):
        extremal_residual(euclidean_metric(2), line, (0.0, 1.0), [field], eps, Q)


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
