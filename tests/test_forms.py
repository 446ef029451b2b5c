import ast
import math
import re
import warnings

import numpy as np
import pytest

from grassvar import expressions, quadrature
from grassvar.errors import (
    QuadratureTargetWarning,
    DegeneratePieceWarning,
    DimensionMismatchError,
    EvaluationError,
    InvalidDegreeError,
    InvalidPartitionError,
    OrientationError,
)
from grassvar.expressions import MAX_DEPTH, ExprCoeff
from grassvar.forms import (
    KForm,
    PartitionOfUnity,
    boundary_faces,
    exterior_derivative,
    integrate,
    integrate_with_partition,
    pullback,
    verify_domain_transform,
    verify_leibniz,
    verify_stokes,
)
from grassvar.maps import (
    affine_map,
    circle,
    compose,
    identity_map,
    linear_map,
    polynomial_map,
    segment,
    sphere_patch,
    trig_shear,
)
from grassvar.quadrature import (
    CHUNK_NODES,
    DEGENERACY_TOL,
    MAX_GAUSS_ORDER,
    Piece,
    QuadratureSpec,
    integrate_scalar_over_box,
)

from .oracles import (
    degenerate_node_count,
    gauss_reference_1d,
    gauss_tensor_grid,
    minors_by_cofactors,
    row_max_by_reduction,
    same_bits,
)

Q = QuadratureSpec()
Q_FAST = QuadratureSpec(gauss_order=8, cells_per_axis=4)


def area_form_2d():
    return KForm.from_dict(2, 2, {(1, 2): 1.0})


@pytest.mark.parametrize("box, order, cells", [
    ([(0.0, 3.0)], 5, 7),
    ([(0.0, 1.0), (-1.0, 2.0)], 4, 3),
    ([(0.0, 1.0), (0.0, 2.0), (-1.0, 1.5)], 3, 2),
    ([(0.0, 1.0), (-1.0, 2.0)], 7, 10),  # 4900 nodes: a full chunk and a short one
    # 9261 nodes in 3 chunks; rows of 21 do not divide a chunk, so chunks split rows
    ([(0.0, 1.0), (0.0, 2.0), (-1.0, 1.5)], 7, 3),
])
def test_node_weights_are_the_product_of_the_axis_weights(box, order, cells):
    _check_walk(box, order, cells, CHUNK_NODES)


@pytest.mark.parametrize("box, order, cells", [
    ([(0.0, 3.0)], 5, 3),
    ([(0.0, 1.0), (-1.0, 2.0)], 4, 3),
    ([(0.0, 1.0), (0.0, 2.0), (-1.0, 1.5)], 3, 3),
])
@pytest.mark.parametrize("chunk", [1, 5, 7, 25])
def test_chunks_that_split_rows_keep_the_nodes_and_weights(box, order, cells, chunk, monkeypatch):
    # rows of 12 or 9 nodes: chunks within one row, across two, and of whole rows
    monkeypatch.setattr(quadrature, "CHUNK_NODES", chunk)
    _check_walk(box, order, cells, chunk)


def _check_walk(box, order, cells, chunk):
    # g sees the grid chunk by chunk, and its component j is the indicator of
    # node picked[j], so that component's integral is that node's weight alone
    nodes, weights = gauss_tensor_grid(box, order, cells)
    n = len(nodes)
    # every node of a one-chunk grid, else the ends of the grid and of its first chunk
    ends = np.r_[:64, chunk - 64:chunk + 64, n - 64:n]
    picked = np.arange(n) if n <= CHUNK_NODES else ends
    seen = []

    def g(T):
        start = sum(map(len, seen))
        seen.append(T.copy())
        return (picked[:, None] == np.arange(start, start + len(T))).astype(float)

    q = QuadratureSpec(gauss_order=order, cells_per_axis=cells)
    picked_weights = integrate_scalar_over_box(g, box, q)
    assert [len(T) for T in seen] == [min(chunk, n - s) for s in range(0, n, chunk)]
    assert same_bits(np.concatenate(seen), nodes)
    assert same_bits(picked_weights, weights[picked])


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


COMPONENTS = [
    lambda T: T[:, 0] ** 3 * T[:, 1],  # exact at the first level
    lambda T: np.exp(np.sin(3 * T[:, 0])) * T[:, 1],  # accepted after refining
    lambda T: np.sin(40 * T[:, 0] * T[:, 1]),  # misses the target
]


@pytest.mark.parametrize("adaptive", [False, True])
def test_stacked_components_equal_separate_walks(adaptive, monkeypatch):
    monkeypatch.setattr(quadrature, "MAX_REFINEMENTS", 4)
    q = QuadratureSpec(gauss_order=4, cells_per_axis=2, adaptive=adaptive, target=1e-10)
    box = [(0.0, 1.0), (0.5, 2.0)]

    def walk(g):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            value = integrate_scalar_over_box(g, box, q)
        return value, [str(w.message) for w in caught if w.category is QuadratureTargetWarning]

    separate = [walk(c) for c in COMPONENTS]
    stacked, missed = walk(lambda T: np.stack([c(T) for c in COMPONENTS]))
    assert stacked.shape == (3,)
    assert list(stacked) == [value for value, _ in separate]
    assert missed == [text for _, texts in separate for text in texts]
    assert len(missed) == adaptive


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


def test_pullback_of_a_zero_form_raises_invalid_degree():
    eta = KForm.from_dict(0, 2, {(): "y1*y2"})
    with pytest.raises(InvalidDegreeError, match="degree 0"):
        pullback(eta, trig_shear(0.3))


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
    # a reversed piece has the negated lift, and IEEE negation is exact: the
    # integral is negated bit for bit, on curved pieces and adaptive levels too
    cases = [
        (KForm.from_dict(2, 3, {(1, 2): "y3*y3 + sin(y1)", (1, 3): "y2", (2, 3): 0.5}),
         ((0.1, 3.0), (0.0, 6.0)), sphere_patch(1.3)),
        (KForm.from_dict(1, 2, {(1,): "y2", (2,): "y1*y1"}), ((0.2, 5.0),), circle()),
    ]
    for q in (Q_FAST, QuadratureSpec(4, 2, adaptive=True, target=1e-7)):
        for form, box, f in cases:
            fwd, rev = (integrate(form, Piece(box, f, sign), q) for sign in (1, -1))
            assert fwd != 0.0 and same_bits(rev, -fwd)


def test_integrate_linear_in_form(rng):
    piece = Piece(((0.0, 1.0), (0.0, 1.0)), identity_map(2))
    a = KForm.from_dict(2, 2, {(1, 2): "y1"})
    b = KForm.from_dict(2, 2, {(1, 2): "y2*y2"})
    comb = KForm.from_dict(2, 2, {(1, 2): "2*y1 + y2*y2"})
    va, vb, vc = (integrate(f, piece, Q_FAST) for f in (a, b, comb))
    assert vc == pytest.approx(2 * va + vb, rel=1e-13)


def test_form_on_another_chart_is_rejected():
    eta = KForm.from_dict(1, 3, {(1,): "y3"})
    piece = Piece(((0.0, 1.0),), circle())
    pou = PartitionOfUnity.uniform_cover(piece.param_box, 2)
    with pytest.raises(DimensionMismatchError, match="different chart dimensions"):
        integrate(eta, piece, Q_FAST)
    with pytest.raises(DimensionMismatchError, match="different chart dimensions"):
        integrate_with_partition(eta, piece, pou, Q_FAST)


def test_integrate_degenerate_node_warns():
    pinch = polynomial_map(1, [[(1.0, (3,))], [(0.0, (0,))]])  # t -> (t^3, 0), zero velocity at 0
    eta = KForm.from_dict(1, 2, {(1,): 1.0})
    piece = Piece(((-1.0, 1.0),), pinch)
    q = QuadratureSpec(gauss_order=3, cells_per_axis=3)  # midpoint cell straddles t=0
    with pytest.warns(DegeneratePieceWarning):
        integrate(eta, piece, q)
    stationary = Piece(((0.0, 1.0),), segment([0.5, 0.5], [0.5, 0.5]))
    pou = PartitionOfUnity.uniform_cover(stationary.param_box, 2)
    with pytest.warns(DegeneratePieceWarning):
        assert integrate_with_partition(eta, stationary, pou, q) == 0.0


def _pinch_jacobians(T):
    return np.stack([3.0 * T[:, 0] ** 2, np.zeros(len(T))], axis=1)[:, :, None]


def _line_jacobians(T):  # (u, uv, uv^2, u^2 v, u^3 + uv): d/dv vanishes on u = 0
    u, v, z = T[:, 0], T[:, 1], np.zeros(len(T))
    du = np.stack([z + 1.0, v, v * v, 2.0 * u * v, 3.0 * u * u + v], axis=1)
    dv = np.stack([z, u, 2.0 * u * v, u * u, u], axis=1)
    return np.stack([du, dv], axis=2)


TINY = 1.6e-7  # lift components of order TINY^2: some nodes pass the max screen but not the norm


def _tiny_jacobians(T):  # TINY * (u, v, uv, u^2, v^2)
    u, v, z = T[:, 0], T[:, 1], np.zeros(len(T))
    du = np.stack([z + TINY, z, TINY * v, (2.0 * TINY) * u, z], axis=1)
    dv = np.stack([z, z + TINY, TINY * u, z, (2.0 * TINY) * v], axis=1)
    return np.stack([du, dv], axis=2)


DEGENERATE_PIECES = {
    "pinch": (polynomial_map(1, [[(1.0, (3,))], [(0.0, (0,))]]), [(-1.0, 1.0)],
              _pinch_jacobians),
    "line-in-R5": (polynomial_map(2, [
        [(1.0, (1, 0))], [(1.0, (1, 1))], [(1.0, (1, 2))], [(1.0, (2, 1))],
        [(1.0, (3, 0)), (1.0, (1, 1))],
    ]), [(-1.0, 1.0), (0.0, 1.0)], _line_jacobians),
    "tiny-in-R5": (polynomial_map(2, [
        [(TINY, (1, 0))], [(TINY, (0, 1))], [(TINY, (1, 1))], [(TINY, (2, 0))], [(TINY, (0, 2))],
    ]), [(0.5, 1.0), (0.5, 1.0)], _tiny_jacobians),
}


@pytest.mark.parametrize("name", sorted(DEGENERATE_PIECES))
def test_degenerate_node_count_is_the_norm_count(name):
    f, box, jacobians = DEGENERATE_PIECES[name]
    k = len(box)
    q = QuadratureSpec(gauss_order=3, cells_per_axis=3)
    nodes, _ = gauss_tensor_grid(box, 3, 3)
    expected = degenerate_node_count(jacobians(nodes), k, DEGENERACY_TOL)
    assert expected > 0
    eta = KForm.from_dict(k, f.codomain_dim, {tuple(range(1, k + 1)): 1.0})
    with pytest.warns(DegeneratePieceWarning) as caught:
        integrate(eta, Piece(box, f), q)
    counts = [re.search(r"at (\d+) quadrature", str(w.message)) for w in caught]
    assert [int(c.group(1)) for c in counts if c] == [expected]


def test_tiny_piece_separates_the_norm_count_from_the_max_screen():
    _, box, jacobians = DEGENERATE_PIECES["tiny-in-R5"]
    J = jacobians(gauss_tensor_grid(box, 3, 3)[0])
    comps = np.array([minors_by_cofactors(j, 2)[:, 0] for j in J])
    screened = np.count_nonzero(row_max_by_reduction(comps) <= DEGENERACY_TOL)
    assert degenerate_node_count(J, 2, DEGENERACY_TOL) < screened


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
    t = np.linspace(*box[0], 33)[:, None]
    assert np.max(np.abs(np.sum(pou.weights(t), axis=0) - 1.0)) <= 1e-12


def test_partition_gap_raises():
    pou = PartitionOfUnity((((0.0, 0.4),), ((0.6, 1.0),)))  # hole in (0.4, 0.6)
    with pytest.raises(InvalidPartitionError):
        pou.weights(np.array([0.5]))


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


def test_exterior_derivative_of_a_plain_callable_coefficient_raises():
    # only ExprCoeff coefficients have partials; a plain callable is not differentiated
    eta = KForm.from_dict(1, 2, {(1,): lambda y: y[:, 1] ** 2, (2,): "y1**3"})
    assert eta.values(np.array([0.5, 2.0])).tolist() == [4.0, 0.125]
    with pytest.raises(EvaluationError, match="ExprCoeff"):
        exterior_derivative(eta)
    piece = Piece(((0.0, 1.0), (0.0, 1.0)), identity_map(2))
    with pytest.raises(EvaluationError, match="ExprCoeff"):
        verify_stokes(eta, piece, Q_FAST)


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
    piece = Piece(((0.0, 1.0), (0.0, 1.0)), identity_map(2))
    residual = verify_leibniz(area_form_2d(), lambda t: t, lambda t: 1.0, piece, t0=0.7,
                              dt_step=1e-4, q=Q_FAST)
    assert residual <= 1e-9


def test_leibniz_sin_family_matches_cos():
    piece = Piece(((0.0, 1.0), (0.0, 1.0)), identity_map(2))
    t0 = 0.9
    residual = verify_leibniz(area_form_2d(), math.sin, math.cos, piece, t0=t0, dt_step=1e-4,
                              q=Q_FAST)
    assert residual <= 1e-7
    # the analytic side is cos(t0) times the integral of the base form
    assert integrate(area_form_2d(), piece, Q_FAST) == pytest.approx(1.0, abs=1e-12)


def test_leibniz_constant_family():
    piece = Piece(((0.0, 1.0), (0.0, 1.0)), identity_map(2))
    residual = verify_leibniz(area_form_2d(), lambda t: 1.0, lambda t: 0.0, piece, t0=0.3,
                              dt_step=1e-4, q=Q_FAST)
    assert residual <= 1e-14


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


def test_expr_coeff_partials_fold_zeros_and_ones():
    c = ExprCoeff("y1*y1*y2 + 3", 2)
    assert repr(c.partial(1)) == "ExprCoeff('y1 * y1', dim=2)"
    assert repr(c.partial(0).partial(0)) == "ExprCoeff('2.0 * y2', dim=2)"
    assert repr(c.partial(0).partial(0).partial(0)) == "ExprCoeff('0.0', dim=2)"


def test_forms_from_equal_strings_share_their_exterior_derivative():
    entries = {(1,): "y2*y2", (2,): "y1*y1*y1"}
    a, b = KForm.from_dict(1, 2, entries), KForm.from_dict(1, 2, dict(entries))
    assert all(x is y for x, y in zip(a.coeffs, b.coeffs))
    assert all(x is y for x, y in zip(exterior_derivative(a).coeffs, exterior_derivative(b).coeffs))


def test_interned_coefficients_stay_within_the_cache_size():
    for i in range(expressions.CACHE_SIZE + 10):
        expressions.coefficient(f"y1 + {i}", 2)
    assert expressions._interned.cache_info().currsize <= expressions.CACHE_SIZE


def test_equal_text_in_another_dim_is_another_coefficient():
    Y = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    c2, c3 = expressions.coefficient("y2", 2), expressions.coefficient("y2", 3)
    assert c2 is not c3 and (c2.dim, c3.dim) == (2, 3)
    assert same_bits(c2(Y[:, :2]), Y[:, 1]) and same_bits(c3(Y), Y[:, 1])
    assert same_bits(expressions.coefficient("y3", 3)(Y), Y[:, 2])
    with pytest.raises(ValueError, match="not allowed"):
        expressions.coefficient("y3", 2)


def test_equal_numbers_share_a_coefficient_but_zeros_keep_their_sign():
    zero, negative_zero = expressions.coefficient(0.0, 2), expressions.coefficient(-0.0, 2)
    assert expressions.coefficient(0, 2) is zero and negative_zero is not zero
    assert math.copysign(1.0, negative_zero(np.zeros(2))) == -1.0


def test_callables_and_unhashable_coefficients_are_not_interned():
    c = ExprCoeff("y1", 2)
    assert expressions.coefficient(c, 2) is c
    a, b = (KForm.from_dict(2, 2, {(1, 2): np.array(2.5)}) for _ in range(2))  # a 0-d array
    assert a.coeffs[0] is not b.coeffs[0]
    assert same_bits(a.coeffs[0](np.zeros((3, 2))), [2.5, 2.5, 2.5])


def test_repr_of_a_partial_too_deep_to_print_names_its_dim():
    # the partial of a ** chain at the depth limit is about three levels per
    # ** deep, past what ast.unparse can print on the interpreter's stack
    c = ExprCoeff("**".join(["y1"] * (MAX_DEPTH + 1)), 2).partial(0)
    assert repr(c) == "ExprCoeff(<tree too deep to print>, dim=2)"
    assert repr(ExprCoeff("y1 + 1", 3)) == "ExprCoeff('y1 + 1.0', dim=3)"


# coefficients n levels deep, in each way the grammar nests: calls,
# parenthesized right operands and a ** chain
NESTINGS = {
    "calls": lambda n: "sin(" * n + "y1" + ")" * n,
    "products": lambda n: "y1*(" * n + "y1" + ")" * n,
    "powers": lambda n: "**".join(["y1"] * (n + 1)),
}


def _nested_by_chain_rule(kind, n, y):
    """Value and d/dy1 of ``NESTINGS[kind](n)`` at y1 = y, one level at a time."""
    value, slope = y, np.ones_like(y)
    for _ in range(n):
        if kind == "calls":
            value, slope = np.sin(value), np.cos(value) * slope
        elif kind == "products":
            value, slope = y * value, value + y * slope
        else:
            value, slope = y**value, y**value * (slope * np.log(y) + value / y)
    return value, slope


@pytest.mark.parametrize("kind", sorted(NESTINGS))
def test_coefficient_at_the_depth_limit_has_its_value_and_partial(kind):
    Y = np.array([[0.6, 0.3], [0.999, -0.2], [1.2, 0.1]])
    c = ExprCoeff(NESTINGS[kind](MAX_DEPTH), 2)
    value, slope = _nested_by_chain_rule(kind, MAX_DEPTH, Y[:, 0])
    assert c(Y) == pytest.approx(value, rel=1e-12)
    assert c.partial(0)(Y) == pytest.approx(slope, rel=1e-10)
    assert np.all(c.partial(1)(Y) == 0.0)
    with pytest.raises(ValueError):
        ExprCoeff(NESTINGS[kind](MAX_DEPTH + 1), 2)


@pytest.mark.parametrize("kind", sorted(NESTINGS))
@pytest.mark.parametrize("n", [25, 100])
def test_a_partial_evaluates_each_shared_subtree_once_per_call(kind, n, monkeypatch):
    # the partial of a**b reuses a**b itself, so a chain of n powers shares
    # subtrees n levels deep; each distinct operation or call runs once per call
    calls = []

    def counted(f):
        return lambda *args: calls.append(1) or f(*args)

    for table in (expressions._OPERATORS, expressions._FUNCS):
        for key, f in list(table.items()):
            monkeypatch.setitem(table, key, counted(f))
    partial = ExprCoeff(NESTINGS[kind](n), 2).partial(0)
    Y = np.full((16, 2), 0.9)
    for _ in range(2):  # the first call also builds the closures
        calls.clear()
        partial(Y)
        assert len(calls) == _operation_count(partial.tree)


def _operation_count(tree):
    """Distinct BinOp and Call nodes of a tree whose subtrees may be shared."""
    seen, stack, count = set(), [tree], 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        count += isinstance(node, (ast.BinOp, ast.Call))
        if isinstance(node, ast.BinOp):
            stack += (node.left, node.right)
        elif isinstance(node, ast.Call):
            stack.append(node.args[0])
    return count


def test_long_sums_and_products_are_not_nesting():
    # left operands are evaluated in a loop: the partial of a product of 600
    # factors is a tree about 1200 levels deep, more than the interpreter's
    # default recursion limit, yet its evaluation nests only as deep as its
    # right operands
    y = np.array([[0.999, 0.5]])
    terms = 600
    assert ExprCoeff(" + ".join(["y1*y2"] * terms), 2)(y) == pytest.approx(terms * 0.4995)
    c = ExprCoeff("*".join(["y1"] * terms), 2)
    assert c(y) == pytest.approx(0.999**terms, rel=1e-12)
    assert c.partial(0)(y) == pytest.approx(terms * 0.999 ** (terms - 1), rel=1e-12)


@pytest.mark.parametrize("wrap, expected", [
    # every prefix of the product is shared by the product and its partial;
    # here the partial's first operation needs the whole product at once
    ("sin({})", lambda n, x: math.cos(x**n) * n * x ** (n - 1)),
    ("y1*({})", lambda n, x: (n + 1) * x**n),
], ids=["sin", "times"])
def test_partial_of_an_operation_on_a_long_product_is_not_nesting(wrap, expected):
    terms, x = 600, 0.999
    c = ExprCoeff(wrap.format("*".join(["y1"] * terms)), 2)
    assert c.partial(0)(np.array([[x, 0.5]])) == pytest.approx(expected(terms, x), rel=1e-12)


@pytest.mark.parametrize("text", ["y1 + 1/0", "y1 * 9**9**9**9"])
def test_non_finite_constant_is_folded_and_caught_at_evaluation(text):
    # folded in numpy arithmetic: no ZeroDivisionError, no huge Python integer
    eta = KForm.from_dict(1, 2, {(1,): text})
    with pytest.raises(EvaluationError, match="non-finite form coefficient"):
        eta.values(np.array([0.5, 0.5]))


def test_canonical_inclusion_pullback_restricts_forms(rng):
    # dy^nu for nu > k pulls back to zero through the inclusion
    eta = KForm.from_dict(1, 4, {(3,): 1.0})
    back = pullback(eta, linear_map(np.eye(4, 2)))
    assert np.allclose(back.values(rng.normal(size=2)), 0.0)


def test_nan_coefficient_raises_evaluation_error():
    eta = KForm(1, 2, [lambda Y: np.where(Y[:, 0] > 0.5, np.nan, 1.0), lambda Y: Y[:, 1]])
    assert eta.values(np.array([0.25, 2.0])).tolist() == [1.0, 2.0]
    with pytest.raises(EvaluationError, match="non-finite form coefficient"):
        integrate(eta, Piece(((0.0, 1.0),), circle()), Q_FAST)


def test_overflowing_integrand_raises_evaluation_error():
    eta = KForm.from_dict(1, 2, {(1,): 1e308})
    piece = Piece(((0.0, 1.0),), affine_map([[4.0], [0.0]], [0.0, 0.0]))  # lift (4, 0)
    pou = PartitionOfUnity.uniform_cover(piece.param_box, 2)
    # numpy reports the overflow first; silenced here, the integrand check must still fire
    with np.errstate(over="ignore"):
        with pytest.raises(EvaluationError, match="non-finite integrand"):
            integrate(eta, piece, Q_FAST)
        with pytest.raises(EvaluationError, match="non-finite integrand"):
            integrate_with_partition(eta, piece, pou, Q_FAST)


def test_gauss_rule_has_the_bits_of_numpy_leggauss():
    from numpy.polynomial.legendre import leggauss

    for order in range(1, MAX_GAUSS_ORDER + 1):
        (x, w), (x_np, w_np) = quadrature._gauss_rule(order), leggauss(order)
        assert same_bits(x, x_np) and same_bits(w, w_np), order
        assert not (x.flags.writeable or w.flags.writeable)
