import math

import numpy as np
import pytest

from grassvar.errors import (
    EvaluationError,
    InvalidDegreeError,
    OffSubmanifoldError,
    UnsupportedDegreeError,
)
from grassvar.kvector import (
    AdaptedChart,
    KVector,
    canonical_field,
    canonical_lift,
    canonical_section_along_s,
    compound_matrix,
    lift_kvector,
    minors,
    plucker_residual,
    wedge,
)
from grassvar.maps import (
    CanonicalInclusion,
    affine_map,
    circle,
    compose,
    graph_surface,
    identity_map,
    linear_map,
    polynomial_map,
    trig_shear,
)

from .oracles import lift_full_tensor_sum, wedge_square_brute

ORACLE_TOL = 1e-12
FUNCTORIALITY_TOL = 1e-10


def random_kvector(rng, k, m, base=None):
    base = np.zeros(m) if base is None else base
    return KVector(base, rng.normal(size=math.comb(m, k)), k, m)


# -- wedge -------------------------------------------------------------------

def test_wedge_basis_bivector():
    kv = wedge([np.array([1.0, 0, 0]), np.array([0, 1.0, 0])], base=np.zeros(3))
    assert np.allclose(kv.comps, [1.0, 0.0, 0.0])


def test_wedge_parallel_vectors_vanish():
    v = np.array([0.3, -1.0, 2.0])
    kv = wedge([v, v], base=np.zeros(3))
    assert np.allclose(kv.comps, 0.0)


def test_wedge_minors_match_cross_product():
    v1, v2 = np.array([1.0, 2.0, 0.0]), np.array([0.0, 1.0, 3.0])
    kv = wedge([v1, v2], base=np.zeros(3))
    cross = np.cross(v1, v2)  # (6, -3, 1)
    assert np.allclose(cross, [6.0, -3.0, 1.0])
    # reindex: comps = ((1,2), (1,3), (2,3)) = (cross_3, -cross_2, cross_1)
    assert np.allclose(kv.comps, [cross[2], -cross[1], cross[0]])


def test_wedge_alternating(rng):
    vs = [rng.normal(size=4) for _ in range(3)]
    a = wedge(vs, base=np.zeros(4))
    b = wedge([vs[1], vs[0], vs[2]], base=np.zeros(4))
    assert np.allclose(a.comps, -b.comps)


def test_wedge_multilinear(rng):
    u, v, w = rng.normal(size=3), rng.normal(size=3), rng.normal(size=3)
    left = wedge([2.0 * u + w, v], base=np.zeros(3)).comps
    right = 2.0 * wedge([u, v], base=np.zeros(3)).comps + wedge([w, v], base=np.zeros(3)).comps
    assert np.allclose(left, right)


# -- minors ------------------------------------------------------------------

def test_minors_of_a_stack_match_each_matrix(rng):
    for k, m, n in [(1, 3, 2), (2, 3, 2), (2, 4, 3), (3, 5, 4)]:
        J = rng.normal(size=(6, m, n))
        M = minors(J, k)
        assert M.shape == (6, math.comb(m, k), math.comb(n, k))
        for i in range(6):
            assert np.array_equal(M[i], minors(J[i], k))
            slow = lift_full_tensor_sum(J[i], np.eye(math.comb(n, k))[0], k)
            assert np.max(np.abs(M[i][:, 0] - slow)) <= ORACLE_TOL * max(1.0, np.max(np.abs(slow)))


def test_minors_degree_error():
    with pytest.raises(InvalidDegreeError):
        minors(np.zeros((3, 2)), 3)
    with pytest.raises(InvalidDegreeError):
        minors(np.zeros((3, 2)), 0)


def test_canonical_lift_of_a_stack(rng):
    f = graph_surface([[1.0, (2, 0)], [1.0, (0, 2)]])
    T = rng.normal(size=(5, 2))
    lift = canonical_lift(f, T)
    assert lift.base.shape == (5, 3) and lift.comps.shape == (5, 3)
    for i, t in enumerate(T):
        one = canonical_lift(f, t)
        assert np.allclose(lift.base[i], one.base, rtol=1e-14, atol=1e-15)
        assert np.allclose(lift.comps[i], one.comps, rtol=1e-14, atol=1e-15)
        assert lift.norm[i] == pytest.approx(one.norm, rel=1e-14)


# -- lift --------------------------------------------------------------------

def test_lift_identity(rng):
    xi = random_kvector(rng, 2, 4, base=rng.normal(size=4))
    out = lift_kvector(identity_map(4), xi.base, xi)
    assert np.allclose(out.comps, xi.comps)
    assert np.allclose(out.base, xi.base)


def test_lift_top_degree_is_determinant(rng):
    A = rng.normal(size=(3, 3))
    xi = KVector(np.zeros(3), np.array([2.5]), 3, 3)
    out = lift_kvector(linear_map(A), np.zeros(3), xi)
    assert out.comps[0] == pytest.approx(np.linalg.det(A) * 2.5, rel=1e-12)


def test_lift_matches_full_tensor_sum(rng):
    for _ in range(100):
        k = int(rng.integers(1, 4))
        n = int(rng.integers(k, 6))
        m = int(rng.integers(k, 6))
        J = rng.normal(size=(m, n))
        comps = rng.normal(size=math.comb(n, k))
        fast = compound_matrix(J, k) @ comps
        slow = lift_full_tensor_sum(J, comps, k)
        scale = max(1.0, float(np.max(np.abs(slow))))
        assert np.max(np.abs(fast - slow)) <= ORACLE_TOL * scale


def test_lift_linear_in_components(rng):
    f = polynomial_map(3, [[(1.0, (2, 0, 0))], [(1.0, (0, 1, 1))], [(0.5, (1, 1, 0))]])
    x = rng.normal(size=3)
    a = random_kvector(rng, 2, 3, base=x)
    b = random_kvector(rng, 2, 3, base=x)
    lhs = lift_kvector(f, x, KVector(x, 2.0 * a.comps + b.comps, 2, 3)).comps
    rhs = 2.0 * lift_kvector(f, x, a).comps + lift_kvector(f, x, b).comps
    assert np.allclose(lhs, rhs, rtol=1e-13, atol=1e-13)


def test_lift_functoriality_cauchy_binet(rng):
    for _ in range(50):
        n1 = int(rng.integers(2, 5))
        n2 = int(rng.integers(2, 5))
        n3 = int(rng.integers(2, 5))
        f = affine_map(rng.normal(size=(n2, n1)), rng.normal(size=n2))
        g = affine_map(rng.normal(size=(n3, n2)), rng.normal(size=n3))
        k = int(rng.integers(1, min(n1, n2, n3) + 1))
        x = rng.normal(size=n1)
        xi = random_kvector(rng, k, n1, base=x)
        direct = lift_kvector(compose(g, f), x, xi)
        staged = lift_kvector(g, f(x), lift_kvector(f, x, xi))
        scale = max(1.0, direct.norm)
        assert np.max(np.abs(direct.comps - staged.comps)) <= FUNCTORIALITY_TOL * scale
        assert np.allclose(direct.base, staged.base)


def test_lift_degree_errors():
    xi = KVector(np.zeros(3), np.ones(3), 2, 3)
    to_line = linear_map(np.ones((1, 3)))
    with pytest.raises(InvalidDegreeError):
        lift_kvector(to_line, np.zeros(3), xi)


# -- canonical objects -------------------------------------------------------

def test_canonical_field_components():
    kv = canonical_field(np.array([0.1, 0.2, 0.3]), 2)
    assert np.allclose(kv.comps, [1.0, 0.0, 0.0])
    kv1 = canonical_field(np.zeros(3), 1)
    assert np.allclose(kv1.comps, [1.0, 0.0, 0.0])
    top = canonical_field(np.zeros(2), 2)
    assert np.allclose(top.comps, [1.0])


def test_canonical_lift_circle_velocity():
    kv = canonical_lift(circle(), np.array([0.0]))
    assert np.allclose(kv.base, [1.0, 0.0])
    assert np.allclose(kv.comps, [0.0, 1.0])


def test_canonical_lift_inclusion_is_basis_vector():
    inc = CanonicalInclusion(2, 4).inclusion
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


def test_canonical_lift_equals_lift_of_canonical_field(rng):
    f = polynomial_map(2, [[(1.0, (1, 0))], [(1.0, (0, 1))], [(1.0, (2, 0)), (1.0, (0, 2))]])
    t = rng.normal(size=2)
    via_field = lift_kvector(f, t, canonical_field(t, 2))
    direct = canonical_lift(f, t)
    assert np.allclose(via_field.comps, direct.comps, rtol=1e-13, atol=1e-14)


def test_canonical_section_values_and_errors():
    chart = AdaptedChart(2, 4)
    kv = canonical_section_along_s(chart, np.array([0.5, -0.2, 0.0, 0.0]))
    assert np.allclose(kv.base, [0.5, -0.2, 0.0, 0.0])
    assert np.allclose(kv.comps, [1, 0, 0, 0, 0, 0])
    with pytest.raises(OffSubmanifoldError):
        canonical_section_along_s(chart, np.array([0.5, -0.2, 0.5, 0.0]))


def test_canonical_section_matches_composed_lift():
    # section = canonical lift of (iota o pr) evaluated through the chart
    chart = AdaptedChart(2, 4)
    ci = CanonicalInclusion(2, 4)
    y = np.array([0.4, 1.1, 0.0, 0.0])
    section = canonical_section_along_s(chart, y)
    lifted = canonical_lift(ci.inclusion, ci.projection(y))
    assert np.allclose(section.base, lifted.base)
    assert np.allclose(section.comps, lifted.comps)


# -- Pluecker residual -------------------------------------------------------

def test_plucker_zero_for_wedges(rng):
    for _ in range(10):
        v1, v2 = rng.normal(size=5), rng.normal(size=5)
        kv = wedge([v1, v2], base=np.zeros(5))
        assert plucker_residual(kv) <= 1e-12 * max(1.0, kv.norm**2)
        assert plucker_residual(kv.scaled(3.7)) <= 1e-11 * max(1.0, kv.norm**2)


def test_plucker_nondecomposable_example():
    comps = np.zeros(math.comb(4, 2))
    comps[0] = 1.0  # e1^e2
    comps[-1] = 1.0  # e3^e4
    kv = KVector(np.zeros(4), comps, 2, 4)
    assert plucker_residual(kv) == pytest.approx(2.0, abs=1e-14)


def test_plucker_matches_brute_force(rng):
    for m in (4, 5):
        comps = rng.normal(size=math.comb(m, 2))
        kv = KVector(np.zeros(m), comps, 2, m)
        brute = wedge_square_brute(comps, m)
        assert plucker_residual(kv) == pytest.approx(np.linalg.norm(brute), rel=1e-12)


def test_plucker_requires_degree_two():
    kv = KVector(np.zeros(4), np.ones(4), 1, 4)
    with pytest.raises(UnsupportedDegreeError):
        plucker_residual(kv)


def test_wedge_square_in_low_dimension_is_zero(rng):
    kv = random_kvector(rng, 2, 3)
    assert plucker_residual(kv) == 0.0


def test_compound_of_nonlinear_map_via_trig(rng):
    f = compose(trig_shear(0.4), trig_shear(0.2))
    x = rng.normal(size=2)
    xi = random_kvector(rng, 2, 2, base=x)
    out = lift_kvector(f, x, xi)
    det = np.linalg.det(f.jacobian(x))
    assert out.comps[0] == pytest.approx(det * xi.comps[0], rel=1e-12)


def test_non_finite_kvector_raises_evaluation_error():
    with pytest.raises(EvaluationError, match="non-finite"):
        KVector(np.zeros(3), [1.0, np.nan, 0.0], 2, 3)
    with pytest.raises(EvaluationError, match="non-finite"):
        KVector(np.array([np.inf, 0.0]), [1.0], 2, 2)
