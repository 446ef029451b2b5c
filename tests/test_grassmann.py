import math

import numpy as np
import pytest

from grassvar.errors import (
    DimensionMismatchError,
    ImmersionError,
    NotInChartError,
    PivotDegenerateError,
    ZeroKVectorError,
)
from grassvar.finsler import areal_gram, pullback_identity_residual
from grassvar.grassmann import GrassmannPoint, grassmann_transition, to_grassmann
from grassvar.kvector import KVector, canonical_lift, enumerate_multiindices, multiindex_ranks
from grassvar.maps import (
    affine_map,
    compose,
    graph_surface,
    linear_map,
    polynomial_map,
    torus_patch,
    trig_shear,
)

from .oracles import equivalent, points_close

TRANSITION_TOL = 1e-13
LIFT_INVARIANCE_TOL = 1e-9
SECTION_SCALE_TOL = 1e-10


def random_kvector(rng, k, m):
    return KVector(rng.normal(size=m), rng.normal(size=math.comb(m, k)), k, m)


def scaled(xi, factor):
    return KVector(xi.base, factor * xi.comps, xi.k, xi.m)


# -- equivalence -------------------------------------------------------------

def test_equivalent_positive_scaling(rng):
    xi = random_kvector(rng, 2, 4)
    assert equivalent(xi, scaled(xi, 2.0))
    assert not equivalent(xi, scaled(xi, -1.0))


def test_equivalent_non_proportional():
    e12 = KVector(np.zeros(3), np.array([1.0, 0.0, 0.0]), 2, 3)
    e13 = KVector(np.zeros(3), np.array([0.0, 1.0, 0.0]), 2, 3)
    assert not equivalent(e12, e13)


def test_equivalent_zero_rejected():
    z = KVector(np.zeros(3), np.zeros(3), 2, 3)
    xi = KVector(np.zeros(3), np.array([1.0, 0.0, 0.0]), 2, 3)
    with pytest.raises(ZeroKVectorError):
        equivalent(z, xi)


# -- chart normalization -----------------------------------------------------

def test_to_grassmann_worked_example():
    xi = KVector(np.zeros(3), np.array([2.0, 4.0, -6.0]), 2, 3)
    p = to_grassmann(xi)
    assert enumerate_multiindices(2, 3)[p.pivot] == (2, 3)
    assert p.pivot_sign == -1
    assert np.allclose(p.w, [-1.0 / 3.0, -2.0 / 3.0, -1.0])


def test_to_grassmann_ray_invariance_bitwise(rng):
    xi = random_kvector(rng, 2, 4)
    p = to_grassmann(xi)
    q = to_grassmann(scaled(xi, 0.5))  # power-of-two scaling: exact
    assert p.pivot == q.pivot and p.pivot_sign == q.pivot_sign
    assert np.array_equal(p.w, q.w)
    r = to_grassmann(scaled(xi, 3.0))
    assert r.pivot == p.pivot and r.pivot_sign == p.pivot_sign
    assert np.max(np.abs(r.w - p.w)) <= 4e-16 * max(1.0, float(np.max(np.abs(p.w))))


def test_to_grassmann_canonical_section_value():
    comps = np.zeros(math.comb(4, 2))
    comps[0] = 1.0
    p = to_grassmann(KVector(np.zeros(4), comps, 2, 4))
    assert enumerate_multiindices(2, 4)[p.pivot] == (1, 2) and p.pivot_sign == 1
    expected = np.zeros_like(comps)
    expected[0] = 1.0
    assert np.allclose(p.w, expected)


def test_to_grassmann_errors():
    with pytest.raises(ZeroKVectorError):
        to_grassmann(KVector(np.zeros(3), np.zeros(3), 2, 3))
    xi = KVector(np.zeros(3), np.array([1.0, 0.0, 2.0]), 2, 3)
    with pytest.raises(PivotDegenerateError, match=r"pivot \(1,3\) vanishes"):
        to_grassmann(xi, multiindex_ranks(2, 3)[(1, 3)])
    for bad in (3, -1, 1.0, [0, 1]):  # ranks run 0..2, one per row of a single k-vector
        with pytest.raises(DimensionMismatchError):
            to_grassmann(xi, bad)


def test_representative_idempotence(rng):
    for _ in range(20):
        xi = random_kvector(rng, 2, 4)
        p = to_grassmann(xi)
        rep = p.representative()
        assert equivalent(rep, xi, tol=1e-12)
        q = to_grassmann(rep)
        assert q.pivot == p.pivot and q.pivot_sign == p.pivot_sign
        assert np.max(np.abs(q.w - p.w)) <= 1e-15


# -- transitions -------------------------------------------------------------

def test_transition_worked_example():
    w = np.array([1.0, 0.5, -0.25])
    p = GrassmannPoint(np.zeros(3), multiindex_ranks(2, 3)[(1, 2)], 1, w, 2, 3)
    q = grassmann_transition(p, multiindex_ranks(2, 3)[(1, 3)])
    assert q.pivot_sign == 1
    assert np.allclose(q.w, [2.0, 1.0, -0.5])
    ident = grassmann_transition(p, p.pivot)
    assert np.allclose(ident.w, p.w)


def test_transition_roundtrip_many(rng):
    done = 0
    while done < 200:
        k = int(rng.integers(1, 4))
        m = int(rng.integers(max(k, 2), 6))
        xi = random_kvector(rng, k, m)
        p = to_grassmann(xi)
        others = [r for r in range(math.comb(m, k)) if r != p.pivot]
        if not others:
            continue
        nu2 = others[int(rng.integers(0, len(others)))]
        if abs(p.representative().comps[nu2]) < 1e-3:
            continue  # stay safely inside both charts
        q = grassmann_transition(p, nu2)
        back = grassmann_transition(q, p.pivot)
        assert back.pivot_sign == p.pivot_sign
        assert np.max(np.abs(back.w - p.w)) <= TRANSITION_TOL * max(1.0, np.max(np.abs(p.w)))
        assert equivalent(q.representative(), p.representative(), tol=1e-12)
        done += 1


def test_transition_not_in_chart():
    w = np.array([1.0, 0.0, 0.5])
    p = GrassmannPoint(np.zeros(3), multiindex_ranks(2, 3)[(1, 2)], 1, w, 2, 3)
    with pytest.raises(NotInChartError):
        grassmann_transition(p, multiindex_ranks(2, 3)[(1, 3)])


# -- canonical lifts into the ray space --------------------------------------

def test_lift_of_inclusion_hits_base_chart():
    inc = linear_map(np.eye(4, 2))
    p = to_grassmann(canonical_lift(inc, np.array([0.2, 0.4])))
    assert enumerate_multiindices(2, 4)[p.pivot] == (1, 2) and p.pivot_sign == 1
    expected = np.zeros(math.comb(4, 2))
    expected[0] = 1.0
    assert np.allclose(p.w, expected)


@pytest.mark.parametrize(
    "reparam",
    [
        affine_map([[0.7, 0.1], [-0.2, 0.9]], [0.05, -0.1]),
        trig_shear(0.3),
    ],
)
def test_lift_invariant_under_positive_reparametrization(rng, reparam):
    patch = torus_patch(2.0, 0.7)
    for _ in range(10):
        s = rng.uniform(0.2, 1.0, size=2)
        direct = to_grassmann(canonical_lift(patch, reparam(s)))
        composed = to_grassmann(canonical_lift(compose(patch, reparam), s))
        assert points_close(direct, composed, tol=LIFT_INVARIANCE_TOL, base_tol=1e-9)


def test_orientation_reversal_flips_sign(rng):
    patch = graph_surface([[1.0, (2, 0)], [0.5, (1, 1)]])
    flip = linear_map([[0.0, 1.0], [1.0, 0.0]])  # determinant -1
    s = np.array([0.4, 0.8])
    direct = to_grassmann(canonical_lift(patch, flip(s)))
    composed = to_grassmann(canonical_lift(compose(patch, flip), s))
    assert composed.pivot == direct.pivot
    assert composed.pivot_sign == -direct.pivot_sign
    # non-pivot ratios are insensitive to overall sign; the pivot slot holds the flipped label
    mask = np.ones(len(direct.w), dtype=bool)
    mask[direct.pivot] = False
    assert np.allclose(composed.w[mask], direct.w[mask], atol=1e-12)


def test_lift_immersion_failure():
    # the lift of a non-immersed map has no ray, and its Euler check reports the immersion
    collapse = linear_map([[1.0, 1.0], [2.0, 2.0], [0.0, 0.0]])
    t = np.array([0.3, 0.3])
    with pytest.raises(ZeroKVectorError, match="zero k-vector has no ray$"):
        to_grassmann(canonical_lift(collapse, t))
    with pytest.raises(ImmersionError, match="degenerate lift"):
        pullback_identity_residual(areal_gram(2, 3), collapse, t)


def test_lift_of_a_node_stack_is_a_stacked_point():
    patch = torus_patch(2.0, 0.7)
    T = np.array([[0.2, 0.3], [0.4, 0.5], [1.1, -0.6]])
    p = to_grassmann(canonical_lift(patch, T))
    assert p.base.shape == (3, 3) and p.w.shape == (3, 3)
    assert p.pivot.shape == p.pivot_sign.shape == (3,)
    for i, t in enumerate(T):
        one = to_grassmann(canonical_lift(patch, t))
        assert (one.pivot, one.pivot_sign) == (p.pivot[i], p.pivot_sign[i])
        assert np.array_equal(one.w, p.w[i]) and np.array_equal(one.base, p.base[i])


def test_lift_immersion_failure_names_the_first_collapsed_node():
    # (u^2, v^2, uv) is immersed away from the origin only, nodes 1 and 3 here
    cone = polynomial_map(2, [[(1.0, (2, 0))], [(1.0, (0, 2))], [(1.0, (1, 1))]])
    T = np.array([[0.3, 0.1], [0.0, 0.0], [0.25, 0.5], [0.0, 0.0]])
    with pytest.raises(ZeroKVectorError, match=r"\(row 1\)$"):
        to_grassmann(canonical_lift(cone, T))
    with pytest.raises(ImmersionError, match=r"at y=\[0\. 0\. 0\.\]\)$"):
        pullback_identity_residual(areal_gram(2, 3), cone, T)


def test_repr_of_a_stack():
    xi = KVector(np.zeros((2, 3)), np.array([[2.0, 4.0, -6.0], [1.0, 0.0, 0.0]]), 2, 3)
    text = repr(to_grassmann(xi))
    assert text.startswith("GrassmannPoint(k=2, m=3, pivot=[2 0], sign=[-1  1]")


# -- adapted-chart change laws ----------------------------------------------

def block_triangular_chart_change(rng, k, m):
    """Linear adapted-chart change: preserves {y^{k+1..m} = 0}."""
    while True:
        A = rng.normal(size=(k, k))
        C = rng.normal(size=(m - k, m - k))
        if abs(np.linalg.det(A)) > 0.3 and abs(np.linalg.det(C)) > 0.3:
            break
    B = rng.normal(size=(k, m - k))
    L = np.zeros((m, m))
    L[:k, :k] = A
    L[:k, k:] = B
    L[k:, k:] = C
    return L


def test_canonical_sections_scale_by_jacobian_determinant(rng):
    # the section of the second chart, expressed in the first chart's
    # coordinates, is det(d y / d ybar)|_{k-block} times the first section
    k, m = 2, 4
    for _ in range(20):
        L = block_triangular_chart_change(rng, k, m)
        Linv = np.linalg.inv(L)
        y = np.zeros(m)
        y[:k] = rng.normal(size=k)
        ybar = L @ y
        other_section = canonical_lift(
            compose(linear_map(Linv), linear_map(np.eye(m, k))), ybar[:k]
        )
        det_factor = np.linalg.det(Linv[:k, :k])
        expected = np.zeros(math.comb(m, k))
        expected[0] = det_factor
        assert np.allclose(other_section.base, y, atol=1e-12)
        assert np.max(np.abs(other_section.comps - expected)) <= SECTION_SCALE_TOL * max(
            1.0, abs(det_factor)
        )


def test_section_rays_coincide_for_positive_determinant(rng):
    k, m = 2, 4
    found = 0
    while found < 10:
        L = block_triangular_chart_change(rng, k, m)
        Linv = np.linalg.inv(L)
        if np.linalg.det(Linv[:k, :k]) <= 0:
            continue
        found += 1
        y = np.zeros(m)
        y[:k] = rng.normal(size=k)
        section_one = canonical_lift(linear_map(np.eye(m, k)), y[:k])
        section_two = canonical_lift(
            compose(linear_map(Linv), linear_map(np.eye(m, k))), (L @ y)[:k]
        )
        assert points_close(
            to_grassmann(section_one), to_grassmann(section_two), tol=1e-10, base_tol=1e-10
        )


# -- submanifold structure (sampled) ----------------------------------------

def test_lift_injective_and_continuous_on_grid():
    patch = torus_patch(2.0, 0.7)
    grid = [np.array([u, v]) for u in np.linspace(0.1, 1.2, 5) for v in np.linspace(0.2, 1.5, 5)]
    points = [to_grassmann(canonical_lift(patch, t)) for t in grid]
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            distinct = (
                not np.allclose(points[i].base, points[j].base, atol=1e-10)
                or points[i].pivot != points[j].pivot
                or np.max(np.abs(points[i].w - points[j].w)) > 1e-10
            )
            assert distinct
    # finite-difference continuity: halving the step roughly halves the jump
    t0 = np.array([0.5, 0.7])
    jumps = []
    for h in (1e-3, 5e-4):
        p0 = to_grassmann(canonical_lift(patch, t0))
        p1 = to_grassmann(canonical_lift(patch, t0 + np.array([h, 0.0])))
        p1 = grassmann_transition(p1, p0.pivot)
        jumps.append(float(np.max(np.abs(p1.w - p0.w))))
    assert jumps[1] <= 0.6 * jumps[0]
