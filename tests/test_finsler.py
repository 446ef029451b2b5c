import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from grassvar import finsler
from grassvar.errors import DimensionMismatchError, InvalidMetricError, SlitDomainError
from grassvar.finsler import (
    _sample_fibers,
    areal_gram,
    check_homogeneity,
    check_projectability,
    energy_metric,
    euclidean_metric,
    pullback_identity_residual,
    quartic_root_metric,
    randers_metric,
    require_fit,
    riemannian_metric,
)
from grassvar.forms import Piece
from grassvar.maps import circle, fourier_curve, helix, sphere_patch

from .oracles import (
    NAN_ROWS,
    FirstRowRejected,
    fiber_gradient_fd_residual,
    homogeneity_by_lambda,
    nan_where,
    projectability_by_lambda,
    same_bits,
    slit_rows,
)

HOMOGENEITY_TOL = 1e-11
EULER_TOL = 1e-11
GRAD_FD_TOL = 1e-6
LAMBDAS = (0.5, 2.0, 10.0)


def _samples(F, rng, count):
    """Samples of F's fiber shape, as the sampled check rows draw them."""
    return _sample_fibers(F.m, F.fiber_dim, rng, count)


def catalog_metrics(rng):
    g = rng.normal(size=(3, 3))
    spd = g @ g.T + 3.0 * np.eye(3)
    yield euclidean_metric(3)
    yield riemannian_metric(3, {"field": "constant", "matrix": spd.tolist()})
    yield riemannian_metric(3, {"field": "conformal", "matrix": np.eye(3).tolist(), "coefficient": 0.4})
    yield randers_metric(3, [0.3, 0.0, 0.0])
    yield randers_metric(3, [0.2, -0.1, 0.15], {"field": "constant", "matrix": spd.tolist()})
    yield quartic_root_metric([1.0, 2.0, 0.5])
    yield areal_gram(2, 3)


def test_catalog_homogeneity_and_projectability(rng):
    for F in catalog_metrics(rng):
        for check in (check_homogeneity, check_projectability):
            assert check(F, *_samples(F, rng, 100), LAMBDAS) <= HOMOGENEITY_TOL


def test_energy_fails_homogeneity(rng):
    F = energy_metric(3)
    res = check_homogeneity(F, *_samples(F, rng, 20), (2.0,))
    assert res >= 0.5  # |lambda - 1| = 1 for the squared norm at lambda = 2
    proj = check_projectability(F, *_samples(F, rng, 20), (2.0,))
    assert proj > 1e-2


def test_euclidean_examples(rng):
    F = euclidean_metric(3)
    assert check_homogeneity(F, *_samples(F, rng, 30), LAMBDAS) <= 1e-15
    y, v = np.zeros(3), np.array([3.0, 4.0, 0.0])
    assert F(y, v) == 5.0
    assert np.allclose(F.fiber_gradient(y, v), v / 5.0)


def test_randers_closed_form(rng):
    b = np.array([0.3, 0.0, 0.0])
    F = randers_metric(3, b)
    y, v = np.zeros(3), rng.normal(size=3)
    assert F(y, v) == pytest.approx(np.linalg.norm(v) + b @ v, rel=1e-15)
    assert np.allclose(F.fiber_gradient(y, v), v / np.linalg.norm(v) + b)
    assert check_homogeneity(F, *_samples(F, rng, 50), LAMBDAS) <= 1e-12


def test_randers_positivity_guard():
    with pytest.raises(InvalidMetricError):
        randers_metric(2, [1.0, 0.0])
    with pytest.raises(InvalidMetricError):
        # |b|_g with g = diag(0.25, 1): |(0.6, 0)|_g = 1.2
        randers_metric(2, [0.6, 0.0], {"field": "constant", "matrix": [[0.25, 0.0], [0.0, 1.0]]})


def test_metric_validation():
    with pytest.raises(InvalidMetricError):
        riemannian_metric(2, {"field": "constant", "matrix": [[1.0, 0.0], [0.0, -1.0]]})
    with pytest.raises(InvalidMetricError):
        riemannian_metric(2, {"field": "constant", "matrix": [[1.0, 0.5], [0.0, 1.0]]})
    with pytest.raises(InvalidMetricError):
        quartic_root_metric([1.0, -1.0])


def test_fiber_gradient_matches_finite_differences(rng):
    for F in catalog_metrics(rng):
        assert fiber_gradient_fd_residual(F, rng, 30) <= GRAD_FD_TOL


def test_stacked_evaluation_matches_single_points(rng):
    for F in catalog_metrics(rng):
        Y = rng.uniform(-1.0, 1.0, size=(6, F.m))
        V = rng.normal(size=(6, F.fiber_dim))
        values, grads = F(Y, V), F.fiber_gradient(Y, V)
        assert values.shape == (6,) and grads.shape == (6, F.fiber_dim)
        for i in range(6):
            assert values[i] == pytest.approx(F(Y[i], V[i]), rel=1e-14)
            assert np.allclose(grads[i], F.fiber_gradient(Y[i], V[i]), rtol=1e-14, atol=1e-15)


def test_slit_row_in_a_stack_raises_before_dividing():
    F = euclidean_metric(2)
    V = np.array([[1.0, 0.0], [0.0, 0.0]])
    with np.errstate(all="raise"):
        with pytest.raises(SlitDomainError):
            F(np.zeros((2, 2)), V)
        with pytest.raises(SlitDomainError):
            F.fiber_gradient(np.zeros((2, 2)), V)


SLIT_ENTRIES = [0.0, -0.0, 1e-14, -1e-13, 1e-13, 1.0000000000000002e-13, 2e-13, -9e-13,
                1e-12, 5e-324, 1.0, -3.0, math.nan, math.inf]
BASE_ENTRIES = [0.0, 0.5, -1.0, 1.0000000000000002, 2.0, -9.0, 10.0, 1e3, math.nan, -math.inf]


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_slit_test_flags_exactly_the_rows_of_the_reduction_formula(data):
    m = data.draw(st.integers(1, 5))
    k = data.draw(st.integers(1, m))
    F = areal_gram(k, m)
    rows = data.draw(st.integers(1, 6))
    Y = data.draw(arrays(np.float64, (rows, m), elements=st.sampled_from(BASE_ENTRIES)))
    V = data.draw(arrays(np.float64, (rows, F.fiber_dim), elements=st.sampled_from(SLIT_ENTRIES)))
    flagged = slit_rows(Y, V, finsler.SLIT_TOL)
    if flagged.any():
        with pytest.raises(SlitDomainError) as info:
            F._check_args(Y, V)
        assert f"y={Y[flagged][0]}" in str(info.value)
    else:
        F._check_args(Y, V)


@pytest.mark.parametrize("width", [1, 2, 3, 5, 7, 8, 9, 10, 15, 16, 17, 35, 70, 126, 128, 129])
def test_row_norms_are_numpys_bit_for_bit(width, rng):
    # every layout gives numpy's bits for C order (its pairwise order from 8
    # columns on): C order, a column slice of a wider stack, Fortran order,
    # which numpy itself sums in sequence, and a transpose
    A = rng.normal(size=(257, width)) * np.exp(5.0 * rng.normal(size=(257, width)))
    A[3, 0], A[4, -1] = np.nan, np.inf
    wide = np.concatenate([A, A], axis=1)[:, :width]
    for V in (A, A[:1], wide, np.asfortranarray(A), rng.normal(size=(width, 33)).T):
        assert same_bits(finsler._norm(V), np.linalg.norm(np.ascontiguousarray(V), axis=1))


def test_slit_domain_guard():
    F = euclidean_metric(2)
    with pytest.raises(SlitDomainError):
        F(np.zeros(2), np.zeros(2))
    with pytest.raises(SlitDomainError):
        F.fiber_gradient(np.zeros(2), np.array([0.0, 1e-15]))


# -- fiber gradients: the Hilbert form's coefficients ------------------------

def test_fiber_gradient_euclidean_closed_form():
    v = np.array([3.0, 4.0])
    assert np.allclose(euclidean_metric(2).fiber_gradient(np.array([0.3, -0.1]), v), [0.6, 0.8])


def test_fiber_gradient_randers_closed_form(rng):
    b = np.array([0.3, -0.2])
    v = rng.normal(size=2)
    grad = randers_metric(2, b).fiber_gradient(rng.normal(size=2), v)
    assert np.allclose(grad, v / np.linalg.norm(v) + b)


def test_fiber_gradient_riemannian_closed_form(rng):
    g = np.array([[2.0, 0.3], [0.3, 1.0]])
    F = riemannian_metric(2, {"field": "constant", "matrix": g.tolist()})
    v = rng.normal(size=2)
    assert np.allclose(F.fiber_gradient(np.zeros(2), v), g @ v / math.sqrt(v @ g @ v))


def test_fiber_gradient_at_the_zero_fiber_raises_slit_error():
    with pytest.raises(SlitDomainError):
        euclidean_metric(2).fiber_gradient(np.zeros(2), np.zeros(2))


def test_an_areal_metric_does_not_fit_a_curve():
    with pytest.raises(DimensionMismatchError, match="degree 2 .* a 1-piece"):
        require_fit(areal_gram(2, 3), 1, 3)


@pytest.mark.parametrize("kind, params", [
    ("euclidean", lambda n: {"dim": n}),
    ("riemannian", lambda n: {"dim": n}),
    ("randers", lambda n: {"dim": n, "b": [0.0] * n}),
    ("energy", lambda n: {"dim": n}),
    ("areal_gram", lambda n: {"k": 1, "m": n}),
    ("mth_root", lambda n: {"weights": [1.0] * n}),
])
def test_every_metric_kind_caps_its_dimension(kind, params):
    # the probe's sample table is verified up to m = 8 (functional._probe_samples)
    assert finsler.MAX_DIM == 8
    assert finsler.METRIC_KINDS[kind](**params(finsler.MAX_DIM)).m == finsler.MAX_DIM
    with pytest.raises(InvalidMetricError, match=f"at most {finsler.MAX_DIM}, got 9"):
        finsler.METRIC_KINDS[kind](**params(9))


# -- Euler identity ----------------------------------------------------------

def test_euler_identity_on_curves(rng):
    curves = [
        circle(radius=1.3),
        helix(0.8, 0.4),
        fourier_curve(rng.normal(size=3), rng.normal(size=(3, 2)), rng.normal(size=(3, 2))),
    ]
    metrics2 = [euclidean_metric(2)]
    metrics3 = [
        euclidean_metric(3),
        randers_metric(3, [0.2, 0.1, -0.1]),
        riemannian_metric(3, {"field": "constant", "matrix": (2 * np.eye(3)).tolist()}),
    ]
    ts = rng.uniform(0.0, 2 * math.pi, size=12)
    for z in curves:
        for F in metrics2 if z.codomain_dim == 2 else metrics3:
            assert pullback_identity_residual(F, z, ts) <= EULER_TOL


def test_euler_identity_fails_for_energy():
    F = energy_metric(2)
    z = circle()
    # gradient . v = 2|v|^2 while F = |v|^2: residual equals F itself
    res = pullback_identity_residual(F, z, [0.4])
    assert res == pytest.approx(1.0, rel=1e-12)


def test_euler_identity_on_a_k_piece():
    # sum_I dL/dxi_I xi_I = L on the canonical lift of a 2-parametrization
    zone = Piece(((0.1, math.pi - 0.1), (0.0, 2 * math.pi)), sphere_patch())
    assert pullback_identity_residual(areal_gram(2, 3), zone.map, zone.grid(7)) <= 1e-12


@pytest.mark.parametrize("L, f, named", [
    (areal_gram(2, 3), helix(0.8, 0.4), "degree 2 .* a 1-piece"),
    (euclidean_metric(3), sphere_patch(), "degree 1 .* a 2-piece"),
    (euclidean_metric(2), helix(0.8, 0.4), "metric dimension 2 .* codomain dimension 3"),
])
def test_euler_identity_needs_a_metric_that_fits_the_parametrization(L, f, named):
    with pytest.raises(DimensionMismatchError, match=named):
        pullback_identity_residual(L, f, np.zeros((3, f.domain_dim)))


@pytest.mark.parametrize("lambdas", [(0.5, 2.0, 10.0), (3.0,), tuple(np.linspace(0.1, 9.0, 16))])
def test_stacked_fiber_checks_equal_the_per_lambda_loop(lambdas, rng):
    metrics = [*catalog_metrics(rng), energy_metric(3), areal_gram(2, 4)]
    for F in metrics:
        for check, oracle in [(check_homogeneity, homogeneity_by_lambda),
                              (check_projectability, projectability_by_lambda)]:
            samples = _samples(F, np.random.default_rng(7), 40)
            expected = oracle(F, *samples, lambdas)
            assert check(F, *samples, lambdas) == expected, (F.kind, check)


def test_sample_fibers_draws_a_rejected_row_again():
    F = randers_metric(3, [0.2, 0.1, -0.1])
    stub = FirstRowRejected(3)
    Y, V = _samples(F, stub, 5)
    assert stub.sizes == [("uniform", (5, 3)), ("standard_normal", (5, 3)),
                          ("uniform", (1, 3)), ("standard_normal", (1, 3))]
    first = np.random.default_rng(3)
    Y0, V0 = first.uniform(-1.0, 1.0, size=(5, 3)), first.standard_normal((5, 3))
    assert np.array_equal(Y[1:], Y0[1:]) and np.array_equal(V[1:], V0[1:])
    assert np.array_equal(Y[0], first.uniform(-1.0, 1.0, size=(1, 3))[0])
    assert np.array_equal(V[0], first.standard_normal((1, 3))[0])
    assert np.max(np.abs(V), axis=1).min() > 1e-6


def test_fiber_checks_evaluate_chunks_equal_to_the_loop(monkeypatch):
    monkeypatch.setattr(finsler, "CHUNK_NODES", 10)  # 4 scalings: 2 samples, 8 rows a call
    F0 = randers_metric(3, [0.2, 0.1, -0.1])
    rows = []
    F = dataclasses.replace(
        F0,
        _eval=lambda Y, V: (rows.append(len(Y)), F0._eval(Y, V))[1],
        _grad=lambda Y, V: (rows.append(len(Y)), F0._grad(Y, V))[1],
    )
    lambdas = (0.5, 2.0, 10.0)
    for check, oracle in [(check_homogeneity, homogeneity_by_lambda),
                          (check_projectability, projectability_by_lambda)]:
        rows.clear()
        samples = _samples(F0, np.random.default_rng(7), 41)
        expected = oracle(F0, *samples, lambdas)
        assert check(F, *samples, lambdas) == expected
        assert rows == [8] * 20 + [4]


@pytest.mark.parametrize("rows", sorted(NAN_ROWS))
def test_fiber_checks_of_a_nan_metric_read_nan(rows, rng):
    F = nan_where(euclidean_metric(3), NAN_ROWS[rows])
    samples = _samples(F, rng, 40)
    assert 0 < np.count_nonzero(NAN_ROWS[rows](samples[1]))
    for check in (check_homogeneity, check_projectability):
        assert math.isnan(check(F, *samples, LAMBDAS)), check
