"""Independent reference implementations used as test oracles.

Everything here recomputes quantities by brute force, structured so that
it shares no code path with the production implementations it checks: the
multi-index layout and permutation parity are enumerated here afresh, and
the finite-difference residuals take their own steps.  It also holds the
helpers that several test modules share: the ray test :func:`equivalent`,
the radial variation field :func:`radial_sine_bump` and the NaN metric
:func:`nan_where`.
"""
import dataclasses
import itertools
import math

import numpy as np

from grassvar.errors import DimensionMismatchError, ZeroKVectorError
from grassvar.variation import VariationField
from grassvar.grassmann import grassmann_transition
from grassvar.maps import DifferentiableMap


def increasing_tuples(k, m):
    """The increasing k-tuples in 1..m, lexicographically ordered."""
    return [t for t in itertools.product(range(1, m + 1), repeat=k) if list(t) == sorted(set(t))]


def permutation_sign(t):
    """Parity of the permutation sorting the distinct entries of ``t``, by
    counting the transpositions of a selection sort."""
    t, sign = list(t), 1
    for i in range(len(t)):
        j = t.index(min(t[i:]), i)
        if j != i:
            t[i], t[j] = t[j], t[i]
            sign = -sign
    return sign


def reconstruct_full_tensor(comps, k, m):
    """Spread increasing-index components over all k-tuples by sign."""
    T = np.zeros((m,) * k)
    for r, I in enumerate(increasing_tuples(k, m)):
        for perm in itertools.permutations(I):
            T[tuple(p - 1 for p in perm)] = permutation_sign(perm) * comps[r]
    return T


def cofactor_det(A):
    """Determinant of a square nested list by cofactor expansion along the
    first row."""
    if len(A) == 1:
        return A[0][0]
    return sum(
        (-1) ** j * A[0][j] * cofactor_det([row[:j] + row[j + 1:] for row in A[1:]])
        for j in range(len(A))
    )


def minors_by_cofactors(J, k):
    """The C(m,k) x C(n,k) table of k x k minors of one m x n matrix, each
    by cofactor expansion, rows and columns over increasing k-tuples."""
    J = np.asarray(J, dtype=float).tolist()
    m, n = len(J), len(J[0])
    return np.array([
        [cofactor_det([[J[i - 1][j - 1] for j in K] for i in I]) for K in increasing_tuples(k, n)]
        for I in increasing_tuples(k, m)
    ])


def polynomial_by_terms(terms, T):
    """Values ``(N, m)`` and Jacobians ``(N, m, n)`` of componentwise
    polynomials ``[[coeff, exponents], ...]`` per component at the points
    ``T`` ``(N, n)``, one term at a time with numpy powers."""
    T = np.asarray(T, dtype=float)
    n = T.shape[1]
    values = np.zeros((len(T), len(terms)))
    jac = np.zeros((len(T), len(terms), n))
    for i, comp in enumerate(terms):
        for c, exps in comp:
            exps = np.array(exps, dtype=int)
            values[:, i] += c * np.prod(T**exps, axis=1)
            for j in range(n):
                if exps[j] > 0:
                    lowered = exps.copy()
                    lowered[j] -= 1
                    jac[:, i, j] += c * exps[j] * np.prod(T**lowered, axis=1)
    return values, jac


def lift_full_tensor_sum(J, comps, k):
    """Lift of a k-vector via the full sum over all index tuples.

    The input components are sign-reconstructed over every k-tuple, the
    Jacobian product is summed over all domain and codomain tuples, and the
    increasing-index output is read off by antisymmetrizing the redundant
    codomain sum (one 1/k! compensates its k!-fold multiplicity; the
    reconstruction sum over domain tuples is absorbed by forming
    determinants, so it carries no extra factor).
    """
    m, n = J.shape
    full_in = reconstruct_full_tensor(comps, k, n)
    T = np.zeros((m,) * k)
    for sigma in itertools.product(range(m), repeat=k):
        acc = 0.0
        for i in itertools.product(range(n), repeat=k):
            prod = 1.0
            for a in range(k):
                prod *= J[sigma[a], i[a]]
            acc += prod * full_in[i]
        T[sigma] = acc

    idx_out = increasing_tuples(k, m)
    out = np.zeros(len(idx_out))
    for r, I in enumerate(idx_out):
        acc = 0.0
        for perm in itertools.permutations(I):
            acc += permutation_sign(perm) * T[tuple(p - 1 for p in perm)]
        out[r] = acc / math.factorial(k)
    return out


def wedge_square_brute(comps, m):
    """Full-tensor expansion of Xi ^ Xi for a 2-vector; 4-tensor components
    antisymmetrized into increasing 4-tuples."""
    T = reconstruct_full_tensor(comps, 2, m)
    if m < 4:
        return np.zeros(0)
    idx_out = increasing_tuples(4, m)
    out = np.zeros(len(idx_out))
    for r, I in enumerate(idx_out):
        acc = 0.0
        for perm in itertools.permutations(I):
            a = (perm[0] - 1, perm[1] - 1)
            b = (perm[2] - 1, perm[3] - 1)
            acc += permutation_sign(perm) * T[a] * T[b]
        out[r] = acc / (math.factorial(2) * math.factorial(2))
    return out


def same_bits(a, b):
    """Equal shapes and equal bit patterns, except that a NaN matches any
    NaN at the same position (a maximum may pick either of two payloads)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return False
    nan = np.isnan(a)
    return bool(
        np.array_equal(nan, np.isnan(b))
        and np.array_equal(a[~nan].view(np.uint64), b[~nan].view(np.uint64))
    )


def row_max_by_reduction(A):
    """max |A[i, j]| over j for each row, by numpy's reduction over axis 1."""
    return np.max(np.abs(A), axis=1)


def slit_rows(Y, V, tol):
    """Rows whose fiber is numerically zero: max |v| <= tol * max(1, max |y|),
    by row reductions."""
    return row_max_by_reduction(V) <= tol * np.maximum(1.0, row_max_by_reduction(Y))


def gauss_tensor_grid(box, order, cells):
    """Nodes ``(N, k)`` and weights ``(N,)`` of the tensor Gauss-Legendre
    rule with ``cells`` equal cells per axis, in row-major order of the
    per-axis node lists; each weight is ``np.prod`` of its node's per-axis
    weights."""
    x, w = np.polynomial.legendre.leggauss(order)
    axis_nodes, axis_weights = [], []
    for a, b in box:
        h = (b - a) / cells
        axis_nodes.append(np.concatenate([a + c * h + 0.5 * h * (x + 1.0) for c in range(cells)]))
        axis_weights.append(np.concatenate([0.5 * h * w] * cells))
    k = len(box)
    nodes = np.stack(np.meshgrid(*axis_nodes, indexing="ij"), axis=-1).reshape(-1, k)
    weights = np.stack(np.meshgrid(*axis_weights, indexing="ij"), axis=-1).reshape(-1, k)
    return nodes, np.prod(weights, axis=1)


def degenerate_node_count(jacobians, k, tol):
    """Number of Jacobians whose k x k minors (the canonical lift, by
    cofactors) have Euclidean norm <= tol."""
    comps = np.array([minors_by_cofactors(J, k)[:, 0] for J in jacobians])
    return int(np.count_nonzero(np.linalg.norm(comps, axis=1) <= tol))


def sphere_patch_by_entries(r, T):
    """Values and Jacobians of (th, ph) -> r (sin th cos ph, sin th sin ph,
    cos th), each entry its own expression."""
    th, ph = T[:, 0], T[:, 1]
    values = np.stack(
        [r * (np.sin(th) * np.cos(ph)), r * (np.sin(th) * np.sin(ph)), r * np.cos(th)], axis=1
    )
    jac = np.empty((len(T), 3, 2))
    jac[:, 0, 0] = r * (np.cos(th) * np.cos(ph))
    jac[:, 0, 1] = r * (-np.sin(th) * np.sin(ph))
    jac[:, 1, 0] = r * (np.cos(th) * np.sin(ph))
    jac[:, 1, 1] = r * (np.sin(th) * np.cos(ph))
    jac[:, 2, 0] = r * -np.sin(th)
    jac[:, 2, 1] = r * 0.0
    return values, jac


def torus_patch_by_entries(R, r, T):
    """Values and Jacobians of (u, v) -> ((R + r cos v) cos u,
    (R + r cos v) sin u, r sin v), each entry its own expression."""
    u, v = T[:, 0], T[:, 1]
    values = np.stack(
        [(R + r * np.cos(v)) * np.cos(u), (R + r * np.cos(v)) * np.sin(u), r * np.sin(v)], axis=1
    )
    jac = np.empty((len(T), 3, 2))
    jac[:, 0, 0] = -(R + r * np.cos(v)) * np.sin(u)
    jac[:, 0, 1] = -r * np.sin(v) * np.cos(u)
    jac[:, 1, 0] = (R + r * np.cos(v)) * np.cos(u)
    jac[:, 1, 1] = -r * np.sin(v) * np.sin(u)
    jac[:, 2, 0] = 0.0
    jac[:, 2, 1] = r * np.cos(v)
    return values, jac


def gauss_reference_1d(g, a, b, order=40, cells=64):
    """High-order reference quadrature, independent of the package engine."""
    x, w = np.polynomial.legendre.leggauss(order)
    total = 0.0
    h = (b - a) / cells
    for c in range(cells):
        lo = a + c * h
        nodes = lo + 0.5 * h * (x + 1.0)
        total += 0.5 * h * sum(wi * g(t) for wi, t in zip(w, nodes))
    return total


def verify_jacobian(f, points):
    """Max abs deviation of the map's Jacobian from central differences."""
    worst = 0.0
    for t in np.asarray(points, dtype=float).reshape(-1, f.domain_dim):
        h = 1e-6 * max(1.0, float(np.max(np.abs(t))))
        for j in range(f.domain_dim):
            e = np.zeros_like(t)
            e[j] = h
            fd = (f(t + e) - f(t - e)) / (2.0 * h)
            worst = max(worst, float(np.max(np.abs(f.jacobian(t)[:, j] - fd))))
    return worst


def fiber_gradient_fd_residual(F, rng, sample_count=50, h=1e-6):
    """Max deviation of the analytic fiber gradient from central differences
    at base points uniform in [-1, 1]^m and normal fiber velocities."""
    Y = rng.uniform(-1.0, 1.0, size=(sample_count, F.m))
    V = rng.standard_normal((sample_count, F.fiber_dim))
    G = F.fiber_gradient(Y, V)
    worst = 0.0
    for j in range(F.fiber_dim):
        step = np.zeros_like(V)
        step[:, j] = h
        fd = (F(Y, V + step) - F(Y, V - step)) / (2.0 * h)
        worst = max(worst, float(np.max(np.abs(G[:, j] - fd))))
    return worst


def points_close(p, q, tol=1e-12, base_tol=None):
    """Field-wise comparison of Grassmann points, of every row, after
    transporting q into p's chart."""
    if (p.k, p.m) != (q.k, q.m):
        return False
    q = grassmann_transition(q, p.pivot)
    if np.any(q.pivot_sign != p.pivot_sign):
        return False
    base_tol = tol if base_tol is None else base_tol
    return bool(
        np.allclose(p.base, q.base, rtol=base_tol, atol=base_tol)
        and np.max(np.abs(p.w - q.w)) <= tol
    )


def equivalent(xi1, xi2, tol=1e-9):
    """Whether xi1 = lambda xi2 for some lambda > 0 at the same base point,
    row by row: lambda is fixed from the largest-magnitude component of xi2
    and checked on all the others within relative ``tol``."""
    if (xi1.k, xi1.m) != (xi2.k, xi2.m) or xi1.comps.shape != xi2.comps.shape:
        raise DimensionMismatchError("degree/dimension mismatch")
    n1 = np.max(np.abs(xi1.comps), axis=-1)
    if np.any(n1 == 0.0) or np.any(np.max(np.abs(xi2.comps), axis=-1) == 0.0):
        raise ZeroKVectorError("equivalence is defined for nonzero k-vectors")
    if not np.allclose(xi1.base, xi2.base, rtol=tol, atol=tol):
        raise DimensionMismatchError("k-vectors based at different points")
    i = np.argmax(np.abs(xi2.comps), axis=-1)[..., None]
    lam = np.take_along_axis(xi1.comps, i, axis=-1) / np.take_along_axis(xi2.comps, i, axis=-1)
    same = (lam[..., 0] > 0.0) & (np.max(np.abs(xi1.comps - lam * xi2.comps), axis=-1) <= tol * n1)
    return same if same.ndim else bool(same)


def radial_sine_bump(interval, mode):
    """The variation field sin(mu (t - a)) (cos t, sin t), mu = pi mode / (b - a),
    of planar circle arcs over ``interval`` (a, b), clamped to 0 at both
    ends; the zero field on a zero-width interval."""
    a, b = float(interval[0]), float(interval[1])
    mu = math.pi * mode / (b - a) if b > a else 0.0

    def parts(T):
        """cos t, sin t, the bump sin(mu (t - a)) and the radial direction."""
        cos, sin = np.cos(T), np.sin(T)
        return cos, sin, np.sin(mu * (T - a)), np.concatenate([cos, sin], axis=1)

    def value(T, bump, radial):
        return np.where((T == a) | (T == b), 0.0, bump) * radial

    def value_and_jacobian(T):
        cos, sin, bump, radial = parts(T)
        d = mu * np.cos(mu * (T - a)) * radial
        d += bump * np.concatenate([-sin, cos], axis=1)
        return value(T, bump, radial), d[:, :, None]

    return VariationField(DifferentiableMap(
        f"radial_sine_bump_{mode}", 1, 2, lambda T: value(T, *parts(T)[2:]), value_and_jacobian
    ), (a, b))


def homogeneity_by_lambda(F, Y, V, lambdas):
    """Max relative residual of F(y, lambda v) = lambda F(y, v) on the
    samples ``Y``, ``V``, one evaluation of F per scaling."""
    base = F(Y, V)
    worst = 0.0
    for lam in lambdas:
        r = np.abs(F(Y, lam * V) - lam * base) / (np.abs(lam * base) + 1e-300)
        worst = max(worst, float(np.max(r, initial=0.0)))
    return worst


def projectability_by_lambda(F, Y, V, lambdas):
    """Max |dF/dv(y, lambda v) - dF/dv(y, v)| on the samples ``Y``, ``V``,
    one evaluation of the fiber gradient per scaling."""
    base = F.fiber_gradient(Y, V)
    return max(
        float(np.max(np.abs(F.fiber_gradient(Y, lam * V) - base), initial=0.0)) for lam in lambdas
    )


def bisected_preimage(rho, value):
    """s with rho(s) = value for an increasing scalar map, one scalar call
    at a time: the bracket [value - j, value + j] is widened, doubling j
    from 1 up to 2^79, until it holds a sign change, then bisected until its
    midpoint no longer lies strictly inside it."""
    def f(s):
        return float(rho(np.array([s]))[0]) - value

    lo, hi, width = value - 1.0, value + 1.0, 1.0
    for _ in range(80):
        flo, fhi = f(lo), f(hi)
        if flo == 0.0:
            return lo
        if fhi == 0.0:
            return hi
        if flo < 0.0 < fhi:
            while True:
                mid = 0.5 * (lo + hi)
                if not lo < mid < hi:
                    return mid
                fmid = f(mid)
                if fmid == 0.0:
                    return mid
                lo, hi = (mid, hi) if fmid < 0.0 else (lo, mid)
        lo, hi, width = lo - width, hi + width, 2.0 * width
    raise ValueError(f"no bracket for {value}")


class FirstRowRejected:
    """A numpy Generator whose first ``standard_normal`` draw has the first
    row 1e-7 e_last: a fiber of max |v| <= 1e-6, and a k-vector lying on
    its pivot axis, outside every other chart.  A sampler that rejects such
    rows must draw that row again; ``sizes`` records every draw."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.sizes = []
        self._spoiled = False

    def _draw(self, method, *args, size=None):
        self.sizes.append((method, size))
        return getattr(self._rng, method)(*args, size=size)

    def standard_normal(self, size=None):
        out = self._draw("standard_normal", size=size)
        if not self._spoiled:
            self._spoiled = True
            out[0] = 0.0
            out[0, -1] = 1e-7
        return out

    def uniform(self, low, high, size=None):
        return self._draw("uniform", low, high, size=size)

    def integers(self, low, high, size=None):
        return self._draw("integers", low, high, size=size)


# fiber rows on which :func:`nan_where` makes a metric NaN; both selections
# are invariant under positive scaling of the fiber
NAN_ROWS = {
    "everywhere": lambda V: np.ones(len(V), dtype=bool),
    "partly": lambda V: V[:, 0] > 0.0,
}


def nan_where(F, rows):
    """F of kind ``nan`` whose value and fiber gradient are NaN on the
    fiber rows that ``rows(V)`` selects."""
    def nan_rows(out, V):
        return np.where(rows(V).reshape((-1,) + (1,) * (out.ndim - 1)), np.nan, out)

    return dataclasses.replace(
        F,
        kind="nan",
        _eval=lambda Y, V: nan_rows(F._eval(Y, V), V),
        _grad=lambda Y, V: nan_rows(F._grad(Y, V), V),
    )
