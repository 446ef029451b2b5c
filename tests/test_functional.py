import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad

from grassvar import checks, functional, quadrature, variation
from grassvar.checks import _preimages
from grassvar.errors import (
    QuadratureTargetWarning,
    CrossCheckError,
    DimensionMismatchError,
    EvaluationError,
    ImmersionError,
    MapEvaluationError,
    NonHomogeneousWarning,
    OrientationError,
    SlitDomainError,
    VariationConsistencyWarning,
)
from grassvar.finsler import (
    SAMPLE_BOX,
    FinslerFunction,
    areal_gram,
    energy_metric,
    euclidean_metric,
    quartic_root_metric,
    randers_metric,
    riemannian_metric,
)
from grassvar.forms import KForm, Piece, QuadratureSpec, integrate
from grassvar.kvector import canonical_lift
from grassvar.functional import areal_value, curve_length, hilbert_route_length
from grassvar.maps import (
    DifferentiableMap,
    affine_map,
    circle,
    fourier_curve,
    graph_surface,
    helix,
    linear_map,
    polynomial_map,
    row_max_abs,
    segment,
    sine_shift,
    sphere_patch,
)
from grassvar.quadrature import lift_integral
from grassvar.variation import VariationField, default_variation_basis, extremal_residual

from .oracles import NAN_ROWS, bisected_preimage, nan_where, radial_sine_bump, same_bits

Q = QuadratureSpec(gauss_order=8, cells_per_axis=16)
Q64 = QuadratureSpec(gauss_order=8, cells_per_axis=64)
TWO_PI = 2.0 * math.pi
CIRCLE = Piece(((0.0, TWO_PI),), circle())  # the unit circle, once around
QUARTER = Piece(((0.0, math.pi / 2),), circle())
LINE = Piece(((0.0, 1.0),), segment([0.0, 0.0], [2.0, 1.0]))
UNIT_ARC = Piece(((0.0, 1.0),), circle())
ZONE = Piece(((0.1, 3.0), (0.0, 6.0)), sphere_patch())


# -- curve length ------------------------------------------------------------

def test_circle_length_is_two_pi():
    val = curve_length(euclidean_metric(2), CIRCLE, Q64)
    assert val == pytest.approx(TWO_PI, abs=1e-8)


def test_randers_segment_closed_form():
    p, q = np.array([0.0, 0.0, 0.0]), np.array([1.0, 2.0, 2.0])
    b = np.array([0.3, 0.0, 0.0])
    val = curve_length(randers_metric(3, b), Piece(((0.0, 1.0),), segment(p, q)), Q)
    assert val == pytest.approx(np.linalg.norm(q - p) + b @ (q - p), abs=1e-12)


def test_zero_width_interval():
    assert curve_length(euclidean_metric(2), Piece(((1.0, 1.0),), circle()), Q) == 0.0


def test_dual_route_agreement():
    F = randers_metric(2, [0.2, -0.1])
    direct = curve_length(F, Piece(((0.2, 4.0),), circle(1.7)), Q)
    via = hilbert_route_length(F, Piece(((0.2, 4.0),), circle(1.7)), Q)
    assert abs(direct - via) <= 1e-10 * max(1.0, abs(direct))


def test_hilbert_form_pullback_matches_hilbert_route():
    # the paper's statement: the Hilbert form integrated over t -> (zeta, zeta')
    # gives the length; here through forms.integrate on the map t -> (zeta, zeta').
    # Its Jacobian's zeta'' block is left 0: the form's dv coefficients vanish
    conformal = riemannian_metric(3, {"field": "conformal", "coefficient": 0.3})
    for F, curve, interval in [
        (randers_metric(2, [0.2, -0.1]), circle(1.7), (0.2, 4.0)),
        (conformal, helix(0.8, 0.5), (0.0, 5.0)),
    ]:
        def tangent(T, c=curve):
            Y, J = c.value_and_jacobian(T)
            zeros = np.zeros((len(T), c.codomain_dim, 1))
            return np.concatenate([Y, J[:, :, 0]], axis=1), np.concatenate([J, zeros], axis=1)

        lifted = DifferentiableMap("tangent", 1, 2 * F.m, tangent)
        # (dF/dv_nu) dy^nu on the doubled chart (y, v): its dv block vanishes
        hilbert = KForm(1, 2 * F.m, [
            lambda Z, F=F, nu=nu: F.fiber_gradient(Z[:, :F.m], Z[:, F.m:])[:, nu]
            for nu in range(F.m)
        ] + [lambda Z: np.zeros(len(Z))] * F.m)
        pulled = integrate(hilbert, Piece((interval,), lifted), Q)
        assert abs(pulled - hilbert_route_length(F, Piece((interval,), curve), Q)) <= 1e-9


def test_cross_checked_length_evaluates_each_layer_once(monkeypatch):
    z = circle()
    map_calls, gradient_calls = [], []
    evaluate = z._value_and_jacobian
    F = euclidean_metric(2)
    gradient = F._grad

    def counted_map(T):  # the map's one callable, whichever call reaches it
        map_calls.append(1)
        return evaluate(T)

    def counted_gradient(Y, V):  # the gradient layer itself, whichever call reaches it
        gradient_calls.append(1)
        return gradient(Y, V)

    monkeypatch.setattr(z, "_value_and_jacobian", counted_map)
    F = dataclasses.replace(F, _grad=counted_gradient)
    val = curve_length(F, Piece(((0.0, TWO_PI),), z), Q64)
    assert val == pytest.approx(TWO_PI, abs=1e-8)
    assert (len(map_calls), len(gradient_calls)) == (1, 1)


def test_areal_value_makes_one_fused_map_call_per_chunk(monkeypatch):
    f = sphere_patch(1.2)
    calls, evaluate = [], f._value_and_jacobian

    def counted(T):
        calls.append(len(T))
        return evaluate(T)

    monkeypatch.setattr(f, "_value_and_jacobian", counted)
    piece = Piece(((0.3, 2.8), (0.0, 5.0)), f)
    areal_value(areal_gram(2, 3), piece, QuadratureSpec(gauss_order=8, cells_per_axis=16))
    assert calls == [4096] * 4  # 128 x 128 nodes in chunks of 4096


@pytest.mark.parametrize("q", [
    Q, QuadratureSpec(gauss_order=3, cells_per_axis=1, adaptive=True, target=1e-9),
    QuadratureSpec(gauss_order=2, cells_per_axis=1, adaptive=True, target=1e-14),
], ids=["fixed", "adaptive", "adaptive-missed"])
def test_cross_checked_length_equals_the_direct_walk_bit_for_bit(q, monkeypatch):
    if q.target == 1e-14:
        monkeypatch.setattr(quadrature, "MAX_REFINEMENTS", 3)
    conformal = riemannian_metric(3, {"field": "conformal", "coefficient": 0.3})
    for F, curve, interval in [
        (randers_metric(2, [0.2, -0.1]), circle(1.7), (0.2, 4.0)),
        (conformal, helix(0.8, 0.5), (0.0, 5.0)),
        (quartic_root_metric([1.0, 2.0]), circle(1.1), (0.0, 2.0)),
    ]:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            direct = functional._lift_value(F, Piece((interval,), curve), q)
            checked = curve_length(F, Piece((interval,), curve), q)
        assert checked == direct
        missed = [w for w in caught if w.category is QuadratureTargetWarning]
        # one for the direct walk, then one for each route of the checked walk
        assert len(missed) == (3 if q.target == 1e-14 else 0)


def test_nonhomogeneous_warns_and_skips_cross_check():
    with pytest.warns(NonHomogeneousWarning):
        val = curve_length(energy_metric(2), CIRCLE, Q)
    assert val == pytest.approx(TWO_PI, abs=1e-9)  # |zeta'| = 1 so energy = length here


def test_immersion_error_on_stationary_curve():
    frozen = segment([0.0, 0.0], [0.0, 0.0])
    with pytest.raises(ImmersionError):
        curve_length(euclidean_metric(2), Piece(((0.0, 1.0),), frozen), Q)


def test_hilbert_route_on_a_stationary_curve_raises_immersion_error():
    # the fiber gradient meets the slit as F does in curve_length
    frozen = segment([0.0, 0.0], [0.0, 0.0])
    with pytest.raises(ImmersionError, match="degenerate lift"):
        hilbert_route_length(euclidean_metric(2), Piece(((0.0, 1.0),), frozen), Q)


def test_curve_length_additive_under_splitting():
    F = randers_metric(2, [0.2, 0.1])
    z = circle(1.3)
    whole = areal_value(F, Piece(((0.0, 5.0),), z), Q)
    c = 1.37  # arbitrary interior split point
    parts = areal_value(F, Piece(((0.0, c),), z), Q) + areal_value(F, Piece(((c, 5.0),), z), Q)
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


# -- the one-check chunk path -------------------------------------------------

OVERFLOWING = linear_map([[1e200, 0.0], [0.0, 1e200], [0.0, 0.0]])  # finite J, minors inf
UNIT_SQUARE = ((0.0, 1.0), (0.0, 1.0))


def test_minors_overflowing_from_a_finite_jacobian_raise_evaluation_error():
    # numpy reports the overflow first; silenced here, the one check must still fire
    with np.errstate(over="ignore"), pytest.raises(EvaluationError, match="non-finite k-vector"):
        areal_value(areal_gram(2, 3), Piece(UNIT_SQUARE, OVERFLOWING), Q)


def test_a_zero_lift_raises_immersion_error():
    flat = linear_map(np.zeros((3, 2)))
    with pytest.raises(ImmersionError, match="degenerate lift"):
        areal_value(areal_gram(2, 3), Piece(UNIT_SQUARE, flat), Q)


def test_a_lift_vanishing_at_some_nodes_raises_at_the_first_of_them():
    # (u, v) -> (u, u v, u^2 v): the lift vanishes on u = 0, the middle node column,
    # whose Gauss node is -5.55e-17 in floating point
    f = polynomial_map(2, [[(1.0, (1, 0))], [(1.0, (1, 1))], [(1.0, (2, 1))]])
    with pytest.raises(ImmersionError, match=r"slit domain\) at y=\[-5\.55111512e-17 "):
        areal_value(areal_gram(2, 3), Piece(((-1.0, 1.0), (0.0, 1.0)), f), QuadratureSpec(3, 3))


def test_public_lift_and_metric_calls_keep_their_checks():
    T = np.array([[0.2, 0.3], [0.5, 0.5]])
    with np.errstate(over="ignore"):
        with pytest.raises(EvaluationError, match="non-finite k-vector data"):
            canonical_lift(OVERFLOWING, T)
    L = areal_gram(2, 3)
    with pytest.raises(SlitDomainError):
        L(np.zeros((2, 3)), np.zeros((2, 3)))
    with pytest.raises(SlitDomainError):
        L.fiber_gradient(np.zeros(3), np.zeros(3))
    with pytest.raises(DimensionMismatchError):
        L(np.zeros((2, 3)), np.ones((2, 2)))
    with pytest.raises(DimensionMismatchError):
        L(np.zeros((3, 3)), np.ones((2, 3)))
    # the quadrature's path makes the slit test too, from the lift's row maxima
    with pytest.raises(SlitDomainError):
        L._on_lift(canonical_lift(linear_map(np.zeros((3, 2))), T))


# an R^5 polynomial 2-piece: 64 x 64 nodes, one chunk of CHUNK_NODES
R5_PIECE = Piece(((-0.7, 1.2), (-0.4, 0.9)), polynomial_map(2, [
    [[1.0, [1, 0]]], [[1.0, [0, 1]]],
    [[0.7, [2, 0]], [-0.4, [1, 1]], [0.3, [0, 2]], [0.25, [2, 2]]],
    [[-0.6, [1, 2]], [0.5, [0, 1]], [0.2, [3, 0]]],
    [[0.45, [2, 1]], [-0.35, [0, 3]], [0.15, [1, 0]], [1.1, [0, 0]]],
]))
R5_Q = QuadratureSpec(gauss_order=8, cells_per_axis=8)


def test_r5_polynomial_area_keeps_its_bits():
    # the value before the lift path wrote its minors column by column
    assert areal_value(areal_gram(2, 5), R5_PIECE, R5_Q).hex() == "0x1.04586f802e2a4p+2"


def test_one_areal_chunk_makes_no_whole_chunk_copy():
    """Traced peak growth of one areal_value over one 4096-node chunk of the
    R^5 piece.  About 1000 KiB: the nodes and weights, the powers table, the
    values (N, 5), the Jacobian table (N, 10) and the minors (N, 10).  The
    count is deterministic; the same call made 1548 KiB when the monomial
    table was transposed by a copy and the minors were gathered and copied,
    and any further (N, 10) copy (320 KiB) crosses the bound."""
    L = areal_gram(2, 5)
    areal_value(L, R5_PIECE, R5_Q)  # the probe and the caches, once
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        areal_value(L, R5_PIECE, R5_Q)
        growth = (tracemalloc.get_traced_memory()[1] - base) / 1024
    finally:
        tracemalloc.stop()
    assert growth <= 1100


@pytest.mark.parametrize("piece", [ZONE, R5_PIECE], ids=["sphere-zone", "r5-polynomial"])
def test_an_areal_chunk_reaches_its_density_in_contiguous_columns(piece):
    # one chunk of CHUNK_NODES: the nodes, the lift's base and its components
    # are stored component-major from the quadrature walk to the density
    seen = []
    density = lambda T, lift: (seen.append((T, lift)), np.ones(len(T)))[1]
    lift_integral(piece, density, R5_Q)
    [(T, lift)] = seen
    assert len(T) == quadrature.CHUNK_NODES
    for stack in (T, lift.base, lift.comps):
        assert all(stack[:, j].flags.contiguous for j in range(stack.shape[1]))


def test_areal_dimension_check():
    piece = Piece(((0.0, 1.0), (0.0, 1.0)), sphere_patch())
    with pytest.raises(DimensionMismatchError):
        areal_value(areal_gram(3, 4), piece, Q)
    # C(3, 1) = C(3, 2): the fiber dimensions agree, the degrees do not
    zone = Piece(((0.1, 3.0), (0.0, 6.0)), sphere_patch(1.0))
    with pytest.raises(DimensionMismatchError, match="degree 1"):
        areal_value(randers_metric(3, [0.5, 0.0, 0.0]), zone, QuadratureSpec(8, 8))


# -- reparametrization invariance --------------------------------------------

def reparam_residual(F, piece, rho, q):
    """|length of the piece - length of the piece reparametrized by rho|."""
    moved = checks.reparametrized(piece, rho)
    return abs(areal_value(F, piece, q) - areal_value(F, moved, q))


def test_reparam_affine():
    rho = affine_map([[2.0]], [-0.5])
    res = reparam_residual(euclidean_metric(2), CIRCLE, rho, Q)
    assert res <= 1e-10


def test_reparam_sine_shift_circle():
    rho = sine_shift(0.3)
    res = reparam_residual(euclidean_metric(2), CIRCLE, rho, Q)
    assert res <= 1e-8
    # both routes should individually hit the closed form
    length = curve_length(euclidean_metric(2), CIRCLE, Q)
    assert length == pytest.approx(TWO_PI, abs=1e-10)


def test_reparam_without_inverse_uses_the_bracketed_preimage():
    rho = polynomial_map(1, [[(1.0, (1,)), (1.0, (3,))]])  # s + s^3, strictly increasing
    assert not rho.has_inverse
    # 0.625 is solved in [-0.375, 1.625], 10.0 after widening its bracket to [7, 13]
    assert _preimages(rho, (0.625, 10.0)) == pytest.approx((0.5, 2.0), abs=1e-15)
    arc = Piece(((0.625, 10.0),), circle())
    res = reparam_residual(euclidean_metric(2), arc, rho, Q)
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


PLANE_BUMP = VariationField.sine_bump((0.0, 1.0), 1, 0, 2)
FUNCTIONALS = {
    "curve_length": lambda F, piece: curve_length(F, piece, Q),
    "hilbert_route_length": lambda F, piece: hilbert_route_length(F, piece, Q),
    "reparam_invariance": lambda F, piece: reparam_residual(F, piece, sine_shift(0.3), Q),
    "first_variation": lambda F, piece: variation._variations(F, piece, [PLANE_BUMP], 1e-4, Q)[0],
    "extremal_residual": lambda F, piece: extremal_residual(F, piece, [PLANE_BUMP], q=Q),
    "areal_value": lambda F, piece: areal_value(F, piece, Q),
}
MISFITS = {  # a new metric per case, so no earlier probe verdict hides a warning
    "degree": (lambda: areal_gram(2, 2), UNIT_ARC, "metric of degree 2 .* a 1-piece"),
    "surface": (lambda: energy_metric(3), ZONE, "2-piece"),
    "codomain": (lambda: energy_metric(3), UNIT_ARC, "metric dimension 3 .* codomain dimension 2"),
}


@pytest.mark.parametrize("misfit", sorted(MISFITS))
@pytest.mark.parametrize("functional_name", sorted(FUNCTIONALS))
def test_fit_is_checked_before_the_probe(functional_name, misfit, monkeypatch):
    calls = _count_probes(monkeypatch)
    metric, piece, named = MISFITS[misfit]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(DimensionMismatchError, match=named):
            FUNCTIONALS[functional_name](metric(), piece)
    assert calls == []
    assert not [w for w in caught if w.category is NonHomogeneousWarning]


def test_a_reversed_curve_evaluates_the_metric_on_the_negated_lift():
    # Randers with drift b on -v is Randers with drift -b on v, so the
    # reversed curve under b is the forward curve under -b, bit for bit: its
    # length, Hilbert route and first variations
    b = [0.2, 0.1, -0.3]
    F, G = randers_metric(3, b), randers_metric(3, [-x for x in b])
    forward, backward = (Piece(((0.0, 5.0),), helix(1.0, 0.5), sign) for sign in (1, -1))
    length = curve_length(F, backward, Q)
    assert same_bits(length, curve_length(G, forward, Q))
    assert same_bits(hilbert_route_length(F, backward, Q), hilbert_route_length(G, forward, Q))
    assert abs(length - curve_length(F, forward, Q)) > 1.0  # not the forward length
    basis = default_variation_basis(forward, 2)
    varied = variation._variations(F, backward, basis, 1e-4, Q)
    assert same_bits(varied, variation._variations(G, forward, basis, 1e-4, Q))
    assert np.abs(varied).max() > 0.1
    # a reversible Lagrangian reads the same on either orientation
    zone = [Piece(((0.1, 3.0), (0.0, 6.0)), sphere_patch(1.0), sign) for sign in (1, -1)]
    assert same_bits(*(areal_value(areal_gram(2, 3), piece, Q) for piece in zone))


def test_reparametrized_is_a_piece_over_the_preimage_with_the_orientation():
    rho = sine_shift(0.3)
    for orientation in (1, -1):
        piece = Piece(((0.2, 4.0),), circle(1.7), orientation)
        moved = checks.reparametrized(piece, rho)
        assert moved.param_box == (_preimages(rho, (0.2, 4.0)),)
        assert moved.orientation == orientation
        T = moved.grid(9)
        assert np.array_equal(moved.map(T), piece.map(rho(T)))


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
        reparam_residual(euclidean_metric(2), CIRCLE, rho, Q)


def test_reparam_energy_depends_on_parametrization():
    rho = affine_map([[2.0]], [0.0])  # double speed halves the interval
    with pytest.warns(NonHomogeneousWarning):
        res = reparam_residual(energy_metric(2), CIRCLE, rho, Q)
    assert res > 1.0  # energy of the sped-up circle doubles


# -- first variation and extremality -----------------------------------------

def test_variation_field_endpoints_enforced():
    with pytest.raises(DimensionMismatchError):
        VariationField(segment([0.0, 0.0], [1.0, 0.0]), (0.0, 1.0))


def test_first_variation_zero_field_is_zero():
    zero_map = DifferentiableMap(
        "zero", 1, 2, lambda T: (np.zeros((len(T), 2)), np.zeros((len(T), 2, 1)))
    )
    zero = VariationField(zero_map, (0.0, 1.0))
    line = Piece(((0.0, 1.0),), segment([0.0, 0.0], [1.0, 1.0]))
    assert variation._variations(euclidean_metric(2), line, [zero], 1e-4, Q)[0] == 0.0


def test_straight_line_extremal_euclidean():
    fields = default_variation_basis(LINE)
    res = extremal_residual(euclidean_metric(2), LINE, fields, q=QuadratureSpec(8, 8))
    assert res <= 1e-6


def test_straight_line_extremal_randers():
    F = randers_metric(2, [0.25, -0.1])
    res = extremal_residual(F, LINE, default_variation_basis(LINE), q=QuadratureSpec(8, 8))
    assert res <= 1e-6


def test_circular_arc_not_extremal():
    # quarter circle from (1,0) to (0,1) is not the chord
    res = extremal_residual(
        euclidean_metric(2), QUARTER, default_variation_basis(QUARTER), q=QuadratureSpec(8, 8)
    )
    assert res >= 1e-3


def test_radial_variation_increases_circle_length():
    field = radial_sine_bump((0.0, math.pi / 2), 1)
    val = variation._variations(euclidean_metric(2), QUARTER, [field], 1e-4, Q)[0]
    # d/deps integral |zeta' + eps V'| = integral of the bump profile > 0
    assert val > 0.1


@pytest.mark.parametrize("field", [
    VariationField.sine_bump((0.5, 0.5), 1, 0, 2), radial_sine_bump((0.5, 0.5), 1),
], ids=["sine_bump", "radial_sine_bump"])
def test_a_bump_on_a_zero_width_interval_is_the_zero_field(field):
    Y, J = field.map.value_and_jacobian(np.array([[0.5]]))
    assert not Y.any() and not J.any()
    point = Piece(((0.5, 0.5),), circle())
    assert variation._variations(euclidean_metric(2), point, [field], 1e-4, Q)[0] == 0.0


def test_variation_basis_shape():
    basis = default_variation_basis(Piece(((0.0, 1.0),), segment([0.0] * 3, [1.0] * 3)))
    assert len(basis) == 12  # 4 modes per coordinate direction


def test_a_variation_basis_is_built_once_and_each_call_returns_a_new_list():
    variation._sine_bumps.cache_clear()
    first = default_variation_basis(LINE, modes=2)
    kept = list(first)
    first.pop()
    first.append(first[0])
    first[0] = None
    again = default_variation_basis(LINE, modes=2)
    assert again is not first and len(again) == 4
    assert [a is b for a, b in zip(again, kept)] == [True] * 4
    assert variation._sine_bumps.cache_info().misses == 1


def test_a_variation_basis_keeps_the_sign_of_a_zero_end():
    signed = default_variation_basis(Piece(((-0.0, 1.0),), segment([0.0, 0.0], [1.0, 1.0])))
    unsigned = default_variation_basis(Piece(((0.0, 1.0),), segment([0.0, 0.0], [1.0, 1.0])))
    assert [math.copysign(1.0, f.interval[0]) for f in (signed[0], unsigned[0])] == [-1.0, 1.0]


@pytest.mark.parametrize("modes", [0, functional.MAX_MODES + 1, 10**20])
def test_variation_modes_outside_1_to_the_cap_raise(modes):
    with pytest.raises(ValueError, match=f"variation modes must be in 1..{functional.MAX_MODES}"):
        default_variation_basis(LINE, modes=modes)
    assert len(default_variation_basis(LINE, modes=functional.MAX_MODES)) == 2 * 64


def _shifted(curve, field, c):
    """t -> curve(t) + c field(t), with the Jacobian likewise."""
    return DifferentiableMap(
        "shifted",
        1,
        curve.codomain_dim,
        lambda T: tuple(
            a + c * b for a, b in zip(curve.value_and_jacobian(T), field.map.value_and_jacobian(T))
        ),
    )


def _difference_quotients(F, piece, fields, eps, q):
    """(length(zeta + eps V) - length(zeta - eps V)) / (2 eps) per field, each
    length its own walk, with the quadrature warnings those walks raise."""
    def length(field, c):
        return areal_value(F, Piece(piece.param_box, _shifted(piece.map, field, c)), q)

    values = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for field in fields:
            values.append((length(field, eps) - length(field, -eps)) / (2.0 * eps))
            for e in (eps / 2.0, -eps / 2.0):
                length(field, e)
    return values, [str(w.message) for w in caught if w.category is QuadratureTargetWarning]


RANDERS_SEGMENT = Piece(((0.0, 1.0),), segment([0.0, 1.0, 0.0], [2.0, -1.0, 0.5]))
QUARTIC_FOURIER = Piece(
    ((0.3, 2.5),), fourier_curve([0.1, 0.0], [[1.0, 0.2], [0.0, 0.1]], [[0.0, 0.1], [0.8, 0.0]])
)
CONFORMAL_CIRCLE = Piece(((0.0, TWO_PI),), circle(0.9))
ADAPTIVE_CIRCLE = Piece(((0.0, 2.0),), circle(1.1))
VARIATION_CASES = {
    "euclidean_arc_radial": (
        euclidean_metric(2), Piece(((0.2, 1.9),), circle(1.3)),
        [radial_sine_bump((0.2, 1.9), j) for j in (1, 2, 3)], Q,
    ),
    "randers_segment": (
        randers_metric(3, [0.2, -0.1, 0.15]), RANDERS_SEGMENT,
        default_variation_basis(RANDERS_SEGMENT), QuadratureSpec(8, 8),
    ),
    "quartic_fourier": (
        quartic_root_metric([1.0, 2.0]), QUARTIC_FOURIER,
        default_variation_basis(QUARTIC_FOURIER), Q,
    ),
    "conformal_circle": (
        riemannian_metric(2, {"field": "conformal", "coefficient": 0.4}), CONFORMAL_CIRCLE,
        default_variation_basis(CONFORMAL_CIRCLE, modes=3), QuadratureSpec(8, 8),
    ),
    "adaptive": (
        randers_metric(2, [0.3, 0.1]), ADAPTIVE_CIRCLE,
        [radial_sine_bump((0.0, 2.0), j) for j in (1, 3)]
        + default_variation_basis(ADAPTIVE_CIRCLE, modes=2),
        QuadratureSpec(gauss_order=3, cells_per_axis=1, adaptive=True, target=1e-9),
    ),
}


@pytest.mark.parametrize("case", sorted(VARIATION_CASES))
def test_batched_variation_equals_the_difference_quotient_of_lengths(case):
    F, piece, fields, q = VARIATION_CASES[case]
    expected, _ = _difference_quotients(F, piece, fields, 1e-4, q)
    assert variation._variations(F, piece, [fields[1]], 1e-4, q)[0] == expected[1]
    assert extremal_residual(F, piece, fields, 1e-4, q) == max(map(abs, expected))


def test_batched_variation_warns_per_length_that_misses_the_target(monkeypatch):
    monkeypatch.setattr(quadrature, "MAX_REFINEMENTS", 3)
    F, piece, fields, _ = VARIATION_CASES["adaptive"]
    q = QuadratureSpec(gauss_order=2, cells_per_axis=1, adaptive=True, target=1e-12)
    expected, missed = _difference_quotients(F, piece, fields, 1e-4, q)
    assert len(missed) == 4 * len(fields)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = extremal_residual(F, piece, fields, 1e-4, q)
    assert value == max(map(abs, expected))
    assert [str(w.message) for w in caught if w.category is QuadratureTargetWarning] == missed


def test_every_variation_call_is_one_grid_walk(monkeypatch):
    walks = []
    walk = quadrature.integrate_scalar_over_box
    monkeypatch.setattr(quadrature, "integrate_scalar_over_box", lambda *a: walks.append(1) or walk(*a))
    fields = default_variation_basis(LINE)
    assert len(fields) == 8
    extremal_residual(euclidean_metric(2), LINE, fields, q=Q)
    assert len(walks) == 1
    variation._variations(euclidean_metric(2), LINE, [fields[3]], 1e-4, Q)
    assert len(walks) == 2


def test_perturbed_lift_on_the_slit_raises_immersion_error():
    line = Piece(((0.0, 1.0),), segment([0.0, 0.0], [1.0, 0.0]))  # zeta' = (1, 0)
    # V' = (-2, 0) everywhere, so zeta' + 0.5 V' vanishes at every node
    pinch = DifferentiableMap(
        "pinch", 1, 2, lambda T: (np.zeros((len(T), 2)), np.array([[-2.0], [0.0]]))
    )
    fields = default_variation_basis(line, modes=1) + [VariationField(pinch, (0.0, 1.0))]
    with pytest.raises(ImmersionError, match="degenerate lift"):
        extremal_residual(euclidean_metric(2), line, fields, 0.5, Q)


def test_batched_variation_warns_once_per_inconsistent_field():
    arc = (0.0, math.pi / 2)
    fields = [radial_sine_bump(arc, 1), VariationField.sine_bump(arc, 1, 0, 2),
              radial_sine_bump(arc, 2)]
    expected, _ = _difference_quotients(euclidean_metric(2), QUARTER, fields, 0.2, Q)
    with pytest.warns(VariationConsistencyWarning) as record:
        extremal_residual(euclidean_metric(2), QUARTER, fields, 0.2, Q)
    messages = [str(w.message) for w in record if w.category is VariationConsistencyWarning]
    # the mode-2 radial bump has zero first variation at every eps; the others do not
    assert [text.split(" (")[1].split(")")[0] for text in messages] == [
        f"{expected[0]:.6g}", f"{expected[1]:.6g}"
    ]


@pytest.mark.parametrize("eps", [0.0, -1e-4, math.nan, math.inf])
def test_variation_epsilon_must_be_positive_and_finite(eps):
    field = VariationField.sine_bump((0.0, 1.0), 1, 0, 2)
    with pytest.raises(ValueError, match="epsilon"):
        variation._variations(euclidean_metric(2), LINE, [field], eps, Q)
    with pytest.raises(ValueError, match="epsilon"):
        extremal_residual(euclidean_metric(2), LINE, [field], eps, Q)


# -- cross-checks and the homogeneity probe ----------------------------------

def test_cross_check_rejects_a_gradient_that_disagrees_with_the_value():
    norm = lambda V: np.linalg.norm(V, axis=1)
    F = FinslerFunction(
        "bad_gradient", 2, 1, 2, lambda Y, V: norm(V), lambda Y, V: 2.0 * V / norm(V)[:, None]
    )
    with pytest.raises(CrossCheckError):
        curve_length(F, Piece(((0.0, math.pi),), circle()), Q)
    assert areal_value(F, Piece(((0.0, math.pi),), circle()), Q) == pytest.approx(
        math.pi, abs=1e-12
    )


def test_coarse_eps_warns_variation_inconsistency():
    field = radial_sine_bump((0.0, math.pi / 2), 1)
    with pytest.warns(VariationConsistencyWarning, match="eps=0.2"):
        variation._variations(euclidean_metric(2), QUARTER, [field], 0.2, Q)


def test_reversed_interval_is_rejected():
    # the Piece itself refuses the reversed interval, before any functional runs
    with pytest.raises(DimensionMismatchError, match="empty interval"):
        curve_length(euclidean_metric(2), Piece(((1.0, 0.0),), circle()), Q)


def _count_probes(monkeypatch):
    calls = []
    probe = functional.check_homogeneity

    def counted(*args, **kwargs):
        calls.append(1)
        return probe(*args, **kwargs)

    monkeypatch.setattr(functional, "check_homogeneity", counted)
    return calls


def _count_rngs(monkeypatch):
    """The seeds of the numpy Generators made from now on, with the probe's
    sample cache emptied, so the first probe of each shape builds its table."""
    seeds, make = [], np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda *a: (seeds.append(a), make(*a))[1])
    functional._probe_samples.cache_clear()
    return seeds


def test_homogeneity_probe_runs_once_per_public_call(monkeypatch):
    calls, seeds = _count_probes(monkeypatch), _count_rngs(monkeypatch)
    fields = default_variation_basis(LINE)
    assert len(fields) == 8
    q = QuadratureSpec(8, 4)
    for run in range(2):  # only the first run builds the (2, 2) shape's probe table
        calls.clear()
        extremal_residual(euclidean_metric(2), LINE, fields, q=q)
        assert len(calls) == 1
        variation._variations(euclidean_metric(2), LINE, [fields[0]], 1e-4, q)
        assert len(calls) == 2
        areal_value(euclidean_metric(2), checks.reparametrized(UNIT_ARC, sine_shift(0.3)), q)
        assert len(calls) == 3
        curve_length(euclidean_metric(2), UNIT_ARC, q)
        assert len(calls) == 4
        assert seeds == [], run  # the probe makes no Generator, on the first run either


def test_one_metric_is_probed_and_warns_once_across_functionals(monkeypatch):
    calls, seeds = _count_probes(monkeypatch), _count_rngs(monkeypatch)
    q = QuadratureSpec(8, 4)
    fields = default_variation_basis(UNIT_ARC, modes=1)
    for run in range(2):
        calls.clear()
        F = energy_metric(2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            curve_length(F, UNIT_ARC, q)
            areal_value(F, UNIT_ARC, q)
            reparam_residual(F, UNIT_ARC, sine_shift(0.3), q)
            extremal_residual(F, UNIT_ARC, fields, q=q)
        assert len(calls) == 1
        warned = [w for w in caught if w.category is NonHomogeneousWarning]
        assert [str(w.message) for w in warned] == [
            "energy: homogeneity residual 1; the functional value is parametrization-dependent"
        ]
        assert seeds == [], run


PROBE_FLOOR = 0.01  # each probe fiber row's max |v|, 1e4 times the 1e-6 of the sampled checks


def test_probe_samples_are_a_fixed_table_in_the_open_cube_and_read_only(monkeypatch):
    monkeypatch.setattr(np.random, "default_rng", None)  # a probe table makes no Generator
    functional._probe_samples.cache_clear()
    lo, hi = SAMPLE_BOX
    for m in range(1, 9):
        for fiber_dim in range(1, 71):
            Y, V = functional._probe_samples(m, fiber_dim)
            assert Y.shape == (8, m) and V.shape == (8, fiber_dim)
            assert np.all((lo < Y) & (Y < hi)) and np.all((-1.0 <= V) & (V < 1.0))
            assert np.all(row_max_abs(V) > PROBE_FLOOR)
            assert len(set(np.linalg.norm(V, axis=1))) > 1  # the norms vary
            assert functional._probe_samples(m, fiber_dim)[0] is Y  # shared per shape
            for a in (Y, V):
                with pytest.raises(ValueError, match="read-only"):
                    a[0, 0] = 1.0


def test_probe_samples_are_the_closed_form_kronecker_points():
    # row i, column j: frac(i sqrt(p_j)) over the primes 2, 3, 5, 7, in scalar float math
    frac = [[i * math.sqrt(p) - math.floor(i * math.sqrt(p)) for p in (2, 3, 5, 7)]
            for i in range(1, 9)]
    Y, V = functional._probe_samples(2, 2)
    assert same_bits(Y, np.array([[-1.0 + 2.0 * u for u in row[:2]] for row in frac]))
    assert same_bits(V, np.array([[2.0 * u - 1.0 for u in row[2:]] for row in frac]))


@pytest.mark.parametrize("rows", sorted(NAN_ROWS))
def test_a_nan_metric_fails_the_probe(rows):
    nan_rows = NAN_ROWS[rows](functional._probe_samples(2, 2)[1])
    assert np.all(nan_rows) if rows == "everywhere" else 0 < np.sum(nan_rows) < len(nan_rows)
    F = nan_where(euclidean_metric(2), NAN_ROWS[rows])
    with pytest.warns(NonHomogeneousWarning, match="^nan: homogeneity residual nan;"):
        assert functional._homogeneity_probe(F) is False


def test_a_metric_nan_off_the_curve_skips_the_cross_check(monkeypatch):
    # on the unit arc over [0, 1] the velocity has first coordinate -sin t <= 0,
    # so the partly NaN metric is |v| there and only the probe's samples see NaN
    F = nan_where(euclidean_metric(2), NAN_ROWS["partly"])
    hilbert, real = [], functional._hilbert_value
    monkeypatch.setattr(
        functional, "_hilbert_value", lambda F, lift: (hilbert.append(1), real(F, lift))[1]
    )
    with pytest.warns(NonHomogeneousWarning, match="residual nan"):
        assert curve_length(F, UNIT_ARC, Q) == pytest.approx(1.0, abs=1e-14)
    assert hilbert == []


def test_probe_primes_are_those_of_a_sieve():
    sieve = np.ones(17390, dtype=bool)  # the 2000th prime is 17389
    sieve[:2] = False
    for p in range(2, math.isqrt(len(sieve)) + 1):
        if sieve[p]:
            sieve[p * p::p] = False
    assert functional._primes(2000) == np.flatnonzero(sieve).tolist()
