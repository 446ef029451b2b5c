import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from grassvar.errors import EvaluationError, InvalidDegreeError
from grassvar.kvector import KVector, _lift_minors, canonical_lift, row_dot
from grassvar.maps import circle, compose, graph_surface, identity_map, linear_map, trig_shear

from .oracles import lift_full_tensor_sum, minors_by_cofactors, same_bits, wedge_square_brute
from .test_maps import SPECIAL_FLOATS

ORACLE_TOL = 1e-12


def random_kvector(rng, k, m):
    return KVector(np.zeros(m), rng.normal(size=math.comb(m, k)), k, m)


# -- wedge -------------------------------------------------------------------

def wedge(*vectors):
    """The components of v_1 ^ ... ^ v_k: the minors of the column matrix
    [v_1 ... v_k], from the kernel the lifts run."""
    return _lift_minors(np.column_stack(vectors))


def test_wedge_basis_bivector():
    assert np.allclose(wedge(np.array([1.0, 0, 0]), np.array([0, 1.0, 0])), [1.0, 0.0, 0.0])


def test_minors_with_a_subnormal_pivot_do_not_warn():
    # an LU factorization would divide by the subnormal pivot
    assert abs(_lift_minors(np.array([[0.0, 1.0], [5e-324, 0.0]]))[0]) <= 5e-324


def test_wedge_parallel_vectors_vanish():
    v = np.array([0.3, -1.0, 2.0])
    assert np.allclose(wedge(v, v), 0.0)


def test_wedge_minors_match_cross_product():
    v1, v2 = np.array([1.0, 2.0, 0.0]), np.array([0.0, 1.0, 3.0])
    cross = np.cross(v1, v2)  # (6, -3, 1)
    assert np.allclose(cross, [6.0, -3.0, 1.0])
    # reindex: comps = ((1,2), (1,3), (2,3)) = (cross_3, -cross_2, cross_1)
    assert np.allclose(wedge(v1, v2), [cross[2], -cross[1], cross[0]])


def test_wedge_alternating(rng):
    vs = [rng.normal(size=4) for _ in range(3)]
    assert np.allclose(wedge(*vs), -wedge(vs[1], vs[0], vs[2]))


def test_wedge_multilinear(rng):
    u, v, w = rng.normal(size=3), rng.normal(size=3), rng.normal(size=3)
    assert np.allclose(wedge(2.0 * u + w, v), 2.0 * wedge(u, v) + wedge(w, v))


# -- minors ------------------------------------------------------------------

def test_minors_of_a_stack_match_each_matrix(rng):
    for k, m in [(1, 3), (2, 3), (2, 4), (3, 5)]:
        J = rng.normal(size=(6, m, k))
        M = _lift_minors(J)
        assert M.shape == (6, math.comb(m, k))
        for i in range(6):
            assert np.array_equal(M[i], _lift_minors(J[i]))
            slow = lift_full_tensor_sum(J[i], np.ones(1), k)
            assert np.max(np.abs(M[i] - slow)) <= ORACLE_TOL * max(1.0, np.max(np.abs(slow)))


@pytest.mark.parametrize("k, m", [(k, m) for m in range(1, 9) for k in range(1, m + 1)])
def test_lift_minors_are_the_stacked_minors_bit_for_bit(k, m, rng):
    # a stack gives the bits of each of its matrices alone; k = 2 is the
    # two-term Leibniz difference
    J = rng.normal(size=(9, m, k)) * np.exp(rng.normal(size=(9, m, k)) * 3.0)
    J[0, 0, 0], J[1] = np.nan, np.inf  # non-finite entries keep their positions too
    with np.errstate(invalid="ignore", over="ignore"):
        lifted = _lift_minors(J)
        assert lifted.shape == (9, math.comb(m, k))
        if k == 1:  # the entries, copied in C order
            assert lifted.flags.c_contiguous and same_bits(lifted, J[..., 0])
        else:  # each minor is one contiguous node column
            assert all(lifted[:, r].flags.contiguous for r in range(math.comb(m, k)))
        if k == 2:
            leibniz = [J[:, a, 0] * J[:, b, 1] - J[:, b, 0] * J[:, a, 1]
                       for a, b in itertools.combinations(range(m), 2)]
            assert same_bits(lifted, np.stack(leibniz, axis=1))
        for i in range(9):
            assert same_bits(lifted[i], _lift_minors(J[i]))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_minors_match_cofactor_expansion(data):
    # the degree first, so each of k = 1..4 gets about a quarter of the draws
    k = data.draw(st.integers(1, 4))
    m, n = data.draw(st.integers(k, 5)), data.draw(st.integers(k, 5))
    J = data.draw(arrays(np.float64, (data.draw(st.integers(1, 4)), m, n),
                         elements=st.floats(-2.0, 2.0)))
    oracle = [minors_by_cofactors(one, k) for one in J]
    for c, cols in enumerate(itertools.combinations(range(n), k)):
        M = _lift_minors(J[..., list(cols)])
        assert M.shape == (len(J), math.comb(m, k))
        for i in range(len(J)):
            assert np.allclose(M[i], oracle[i][:, c], rtol=1e-12, atol=1e-12)


def test_minors_up_to_the_metric_cap_are_the_lu_determinants(rng):
    # every degree up to the metric cap, k <= m <= 8, against numpy's LU
    # determinant of each row set
    for m in range(1, 9):
        for k in range(1, m + 1):
            J = rng.normal(size=(3, m, k))
            rows = list(itertools.combinations(range(m), k))
            lu = np.stack([np.linalg.det(J[:, list(I), :]) for I in rows], axis=1)
            assert np.allclose(_lift_minors(J), lu, rtol=1e-11, atol=1e-12)


def test_first_minors_are_the_entries_in_c_order(rng):
    J = rng.normal(size=(5, 4, 3))
    for stack in (J, J.transpose(0, 2, 1)):
        for c in range(stack.shape[-1]):
            M = _lift_minors(stack[..., c:c + 1])
            assert M.flags.c_contiguous
            assert np.array_equal(M, stack[..., c])


def test_canonical_lift_of_a_stack(rng):
    f = graph_surface([[1.0, (2, 0)], [1.0, (0, 2)]])
    T = rng.normal(size=(5, 2))
    lift = canonical_lift(f, T)
    assert lift.base.shape == (5, 3) and lift.comps.shape == (5, 3)
    for i, t in enumerate(T):
        one = canonical_lift(f, t)
        assert np.allclose(lift.base[i], one.base, rtol=1e-14, atol=1e-15)
        assert np.allclose(lift.comps[i], one.comps, rtol=1e-14, atol=1e-15)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_row_dot_equals_numpys_row_sum_bit_for_bit(data):
    # every branch: in order below 8 columns, eight lanes up to 128, numpy
    # past it; signed zeros, so a sum of -0.0 must read +0.0 as numpy's does
    shape = data.draw(st.tuples(st.integers(0, 9), st.sampled_from([1, 2, 3, 7, 8, 9, 17, 70,
                                                                    128, 129, 140])))
    entries = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(allow_subnormal=True))
    A, B = (data.draw(arrays(np.float64, shape, elements=entries)) for _ in range(2))
    with np.errstate(all="ignore"):
        assert same_bits(row_dot(A, B), np.sum(A * B, axis=1))


# -- lift --------------------------------------------------------------------

def test_lift_top_degree_is_determinant(rng):
    A = rng.normal(size=(3, 3))
    out = canonical_lift(linear_map(A), rng.normal(size=3))
    assert out.comps[0] == pytest.approx(np.linalg.det(A), rel=1e-12)


def test_lift_matches_full_tensor_sum(rng):
    for _ in range(100):
        k = int(rng.integers(1, 4))
        n = int(rng.integers(k, 6))
        m = int(rng.integers(k, 6))
        J = rng.normal(size=(m, n))
        comps = rng.normal(size=math.comb(n, k))
        fast = sum(c * _lift_minors(J[:, list(cols)])
                   for c, cols in zip(comps, itertools.combinations(range(n), k)))
        slow = lift_full_tensor_sum(J, comps, k)
        scale = max(1.0, float(np.max(np.abs(slow))))
        assert np.max(np.abs(fast - slow)) <= ORACLE_TOL * scale


def test_lift_degree_errors():
    to_line = linear_map(np.ones((1, 3)))
    with pytest.raises(InvalidDegreeError, match="exceeds chart dimension"):
        canonical_lift(to_line, np.zeros(3))


# -- canonical objects -------------------------------------------------------

def test_canonical_field_components():
    # the canonical field d/dt^1 ^ ... ^ d/dt^k is the lift of the identity,
    # and of the inclusion of R^k into R^n
    kv = canonical_lift(linear_map(np.eye(3, 2)), np.array([0.1, 0.2]))
    assert np.allclose(kv.comps, [1.0, 0.0, 0.0])
    kv1 = canonical_lift(linear_map(np.eye(3, 1)), np.zeros(1))
    assert np.allclose(kv1.comps, [1.0, 0.0, 0.0])
    top = canonical_lift(identity_map(2), np.array([0.3, -0.4]))
    assert np.allclose(top.comps, [1.0]) and np.allclose(top.base, [0.3, -0.4])


def test_canonical_lift_circle_velocity():
    kv = canonical_lift(circle(), np.array([0.0]))
    assert np.allclose(kv.base, [1.0, 0.0])
    assert np.allclose(kv.comps, [0.0, 1.0])


def test_canonical_lift_inclusion_is_basis_vector():
    inc = linear_map(np.eye(4, 2))
    kv = canonical_lift(inc, np.array([0.7, -0.1]))
    expected = np.zeros(math.comb(4, 2))
    expected[0] = 1.0
    assert np.allclose(kv.comps, expected)
    assert np.allclose(kv.base, [0.7, -0.1, 0.0, 0.0])


def test_canonical_lift_graph_patch():
    f = graph_surface([[1.0, (2, 0)], [1.0, (0, 2)]])  # z = u^2 + v^2
    kv = canonical_lift(f, np.array([1.0, 1.0]))
    # columns (1,0,2) and (0,1,2): minors (1,2)->1, (1,3)->2, (2,3)->-2
    assert np.allclose(kv.comps, [1.0, 2.0, -2.0])


def test_canonical_section_matches_composed_lift():
    # the canonical section at y on {y^3 = y^4 = 0}, the basis 2-vector at y,
    # is the canonical lift of the inclusion at the projection of y
    inclusion, projection = linear_map(np.eye(4, 2)), linear_map(np.eye(2, 4))
    y = np.array([0.4, 1.1, 0.0, 0.0])
    lifted = canonical_lift(inclusion, projection(y))
    assert np.allclose(lifted.base, y)
    assert np.allclose(lifted.comps, [1, 0, 0, 0, 0, 0])


# -- Pluecker relation -------------------------------------------------------

def test_plucker_zero_for_wedges(rng):
    for _ in range(10):
        comps = wedge(rng.normal(size=5), rng.normal(size=5))
        scale = max(1.0, np.linalg.norm(comps) ** 2)
        assert np.linalg.norm(wedge_square_brute(comps, 5)) <= 1e-12 * scale
        assert np.linalg.norm(wedge_square_brute(3.7 * comps, 5)) <= 1e-11 * scale


def test_plucker_nondecomposable_example():
    # the oracle sees a square that does not vanish, so the Pluecker
    # properties of the wedges cannot pass by construction
    comps = np.zeros(math.comb(4, 2))
    comps[0] = 1.0  # e1^e2
    comps[-1] = 1.0  # e3^e4
    assert np.linalg.norm(wedge_square_brute(comps, 4)) == pytest.approx(2.0, abs=1e-14)


def test_plucker_matches_brute_force(rng):
    # (Xi ^ Xi)^{abcd} = 2 (Xi^ab Xi^cd - Xi^ac Xi^bd + Xi^ad Xi^bc), the Pluecker quadrics
    for m in (4, 5):
        comps = rng.normal(size=math.comb(m, 2))
        x = {pair: c for pair, c in zip(itertools.combinations(range(m), 2), comps)}
        quadrics = [
            2.0 * (x[a, b] * x[c, d] - x[a, c] * x[b, d] + x[a, d] * x[b, c])
            for a, b, c, d in itertools.combinations(range(m), 4)
        ]
        assert np.allclose(wedge_square_brute(comps, m), quadrics, rtol=1e-12, atol=1e-14)


def test_wedge_square_in_low_dimension_is_zero(rng):
    # below dimension 4 there is no 4-vector, so every 2-vector is decomposable
    kv = random_kvector(rng, 2, 3)
    assert np.linalg.norm(wedge_square_brute(kv.comps, 3)) == 0.0


def test_compound_of_nonlinear_map_via_trig(rng):
    f = compose(trig_shear(0.4), trig_shear(0.2))
    x = rng.normal(size=2)
    out = canonical_lift(f, x)
    assert out.comps[0] == pytest.approx(np.linalg.det(f.jacobian(x)), rel=1e-12)


def test_non_finite_kvector_raises_evaluation_error():
    with pytest.raises(EvaluationError, match="non-finite"):
        KVector(np.zeros(3), [1.0, np.nan, 0.0], 2, 3)
    with pytest.raises(EvaluationError, match="non-finite"):
        KVector(np.array([np.inf, 0.0]), [1.0], 2, 2)
