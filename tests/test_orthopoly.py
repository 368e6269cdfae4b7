import warnings

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly
from numpy.polynomial.legendre import leggauss

from rmtlab import (
    InvalidParameterError,
    Potential,
    WeightedValue,
    build_recurrence,
    eval_weighted,
    kernel,
    kernel_matrix,
    make_scaling,
    quadrature_support,
)
from rmtlab.experiments import recurrence_for
from rmtlab.orthopoly import dump_recurrence_csv, gram_residual, kernel_diagonal


@pytest.fixture(scope="module")
def hermite_table(quadratic):
    return build_recurrence(quadratic, 10, 1.0, 12)


@pytest.fixture(scope="module")
def eynard_table(eynard3_pot):
    return build_recurrence(eynard3_pot, 40, 1.0, 40)


def test_support_sublevel(quadratic):
    rule = quadrature_support(quadratic, 10, 1.0)
    target = np.sqrt(80.5)
    assert abs(rule.hi - target) / target < 0.15
    assert abs(rule.lo + rule.hi) < 1e-8


def test_support_tightens_with_n(quadratic):
    hi10 = quadrature_support(quadratic, 10, 1.0).hi
    hi40 = quadrature_support(quadratic, 40, 1.0).hi
    assert hi40 < hi10


def test_support_tail_negligible(quadratic):
    rule = quadrature_support(quadratic, 10, 1.0)
    log_w = -10.0 * (quadratic.eval(rule.hi) - rule.vt_min)
    assert log_w < -745.0


def test_hermite_recurrence_oracle(hermite_table):
    # p_k(x) = n^{1/4} H_k(sqrt(n) x) for the weight exp(-n x^2) gives
    # alpha_j = 0 and beta_j = j / (2n)
    beta_exact = np.arange(1, 13) / 20.0
    assert np.max(np.abs(hermite_table.beta[1:13] - beta_exact)) < 1e-10
    assert np.max(np.abs(hermite_table.alpha)) < 1e-12
    assert abs(np.sqrt(hermite_table.beta[10]) - np.sqrt(0.5)) < 1e-10


def test_gram_orthonormality(hermite_table, eynard_table):
    assert gram_residual(hermite_table, 11) < 1e-9
    assert gram_residual(eynard_table, 40) < 1e-9


def test_eval_weighted_odd_vanishes(hermite_table):
    # exact zero up to the roundoff in alpha_0
    assert abs(eval_weighted(hermite_table, 1, 0.0).value) < 1e-12


def test_eval_weighted_constant(hermite_table):
    val = eval_weighted(hermite_table, 0, 0.0)
    assert abs(val.value - (10.0 / np.pi) ** 0.25) < 1e-10


@pytest.mark.parametrize("k", [0, 5, 10])
def test_weighted_norms(hermite_table, k):
    # scalar evaluation path checked against the rule directly
    x = hermite_table.rule.nodes
    w = hermite_table.rule.weights
    full = np.array([eval_weighted(hermite_table, k, xi).value for xi in x])
    assert abs(np.sum(w * full * full) - 1.0) < 1e-8


def test_kernel_trace(hermite_table, eynard_table):
    for table in (hermite_table, eynard_table):
        diag = kernel_matrix(table, table.rule.nodes).diagonal()
        trace = np.sum(table.rule.weights * diag)
        assert abs(trace - table.n) < 1e-6


def test_kernel_reproducing(hermite_table):
    x = hermite_table.rule.nodes
    w = hermite_table.rule.weights
    rows = kernel_matrix(hermite_table, x)
    pairs = [(0.1, 0.3), (-0.5, 0.2), (0.0, 0.0), (0.7, -0.7), (1.1, 0.9)]
    for xa, ya in pairs:
        kx = np.array([kernel(hermite_table, xa, z) for z in x[::1]])
        ky = np.array([kernel(hermite_table, z, ya) for z in x[::1]])
        lhs = np.sum(w * kx * ky)
        assert abs(lhs - kernel(hermite_table, xa, ya)) < 1e-6


def test_kernel_cd_vs_sum(hermite_table):
    from rmtlab.orthopoly import _kernel_confluent

    cd = kernel(hermite_table, 0.1, 0.3)
    direct = _kernel_confluent(hermite_table, 0.1, 0.3)
    assert abs(cd - direct) < 1e-8


@pytest.mark.parametrize("table_name", ["hermite", "eynard"])
def test_cd_sum_equivalence_grid(table_name, hermite_table, eynard_table):
    from rmtlab.orthopoly import _kernel_confluent

    table = hermite_table if table_name == "hermite" else eynard_table
    lo = table.rule.lo / 3.0
    pts = np.linspace(lo, -lo, 10)
    for x in pts:
        for y in pts:
            if abs(x - y) < 1e-8:
                continue
            cd = kernel(table, x, y)
            direct = _kernel_confluent(table, x, y)
            assert abs(cd - direct) <= 1e-8 * (1.0 + abs(cd))


def test_kernel_symmetry_and_continuity(eynard_table):
    assert kernel(eynard_table, 0.4, 1.1) == kernel(eynard_table, 1.1, 0.4)
    near = kernel(eynard_table, 0.5, 0.5 + 1e-9)
    at = kernel(eynard_table, 0.5, 0.5)
    assert abs(near - at) <= 1e-6 * (1.0 + abs(at))


def test_kernel_positive_semidefinite(eynard_table):
    pts = np.linspace(-2.2, 3.2, 20)
    gram = kernel_matrix(eynard_table, pts)
    eigs = np.linalg.eigvalsh(gram)
    assert eigs.min() >= -1e-8 * eigs.max()


def test_constant_rescale_invariance(quadratic):
    shifted = Potential((0.7, 0.0, 1.0))
    base = build_recurrence(quadratic, 10, 1.0, 10)
    other = build_recurrence(shifted, 10, 1.0, 10)
    for x, y in [(0.1, 0.3), (0.0, 0.0), (-1.0, 0.5)]:
        a = kernel(base, x, y)
        b = kernel(other, x, y)
        assert abs(a - b) <= 1e-10 * (1.0 + abs(a))


def test_node_doubling_stability(quadratic, eynard3_pot):
    for pot, n in ((quadratic, 10), (eynard3_pot, 40)):
        t1 = build_recurrence(pot, n, 1.0, n)
        t2 = build_recurrence(pot, n, 1.0, n, total_nodes=8000)
        pts = np.linspace(-1.0, 1.0, 7)
        k1 = kernel_matrix(t1, pts)
        k2 = kernel_matrix(t2, pts)
        assert np.max(np.abs(k1 - k2) / (1.0 + np.abs(k1))) < 1e-7


def test_hermite_oracle_large_n(quadratic):
    # no cap on n: beta_j = j t / (2n) at n = 2560, and at t != 1 for
    # n = 800; at t = 0.1, n = 500 the first window cuts the band of V_t
    # and the build must widen it
    for n, t in ((2560, 1.0), (800, 0.5), (800, 2.0), (500, 0.1)):
        table = build_recurrence(quadratic, n, t, n)
        beta_exact = np.arange(n + 1) * t / (2.0 * n)
        assert np.max(np.abs(table.beta - beta_exact)) < 1e-12
        assert np.max(np.abs(table.alpha)) < 1e-12


def _longdouble_stieltjes(coeffs, n, t, N):
    """Monic discretized Stieltjes in long double on a rule of its own.

    The window is where n (V_t - min V_t) <= 2000, found by sampling; long
    double still resolves exp(-2000), so the weight needs no log scaling.
    """
    vt = np.asarray(coeffs) / t
    probe = np.linspace(-8.0, 8.0, 160001)
    level = npoly.polyval(probe, vt)
    inside = probe[n * (level - level.min()) <= 2000.0]
    lo, hi = inside[0] - 0.01, inside[-1] + 0.01
    xs, ws = leggauss(100)
    edges = np.linspace(lo, hi, 41)
    half = 0.5 * np.diff(edges)
    mids = 0.5 * (edges[1:] + edges[:-1])
    x = (mids[:, None] + half[:, None] * xs).ravel().astype(np.longdouble)
    g = (half[:, None] * ws).ravel().astype(np.longdouble)
    vx = npoly.polyval(x, vt.astype(np.longdouble))
    w = g * np.exp(-n * (vx - vx.min()))
    alpha = np.zeros(N + 1, dtype=np.longdouble)
    beta = np.zeros(N + 1, dtype=np.longdouble)
    prev, cur = np.zeros_like(x), np.ones_like(x)
    norm_prev, norm = np.longdouble(1.0), np.sum(w)
    for j in range(N + 1):
        alpha[j] = np.sum(w * x * cur * cur) / norm
        if j > 0:
            beta[j] = norm / norm_prev
        # p_{j+1} = (x - alpha_j) p_j - beta_j p_{j-1}, then both rescaled
        # by one factor so the ratios above are unchanged
        nxt = (x - alpha[j]) * cur - beta[j] * prev
        scale = np.sqrt(norm)
        prev, cur = cur / scale, nxt / scale
        norm_prev, norm = norm / scale**2, np.sum(w * cur * cur)
    return alpha.astype(float), beta.astype(float)


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(float).eps,
    reason="long double is plain double on this platform",
)
def test_longdouble_stieltjes_oracle(eynard3_pot):
    n = 400
    table = _ladder_table(eynard3_pot, n)
    alpha, beta = _longdouble_stieltjes(eynard3_pot.coeffs, n, table.t, n)
    assert np.max(np.abs(table.alpha - alpha)) < 1e-12
    assert np.max(np.abs(table.beta[1:] - beta[1:]) / beta[1:]) < 1e-12


def _ladder_table(pot, n):
    """Table at s = 1, shared with the experiments layer through its cache."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="reduced-mass band")
        t = make_scaling(pot, n, 1.0).t
    return recurrence_for(pot, n, t)


@pytest.mark.parametrize("n", [160, 800, 2560])
def test_oracles_along_n_ladder(eynard3_pot, n):
    from rmtlab.orthopoly import _kernel_confluent

    table = _ladder_table(eynard3_pot, n)
    diag = kernel_diagonal(table, table.rule.nodes)
    assert abs(np.sum(table.rule.weights * diag) - n) < 1e-8 * n
    assert gram_residual(table, 40) < 1e-9
    for x, y in ((3.0, 3.0 + 0.7 / np.sqrt(n)), (0.4, 1.1), (-1.5, 2.9)):
        cd = kernel(table, x, y)
        direct = _kernel_confluent(table, x, y)
        assert abs(cd - direct) <= 1e-8 * (1.0 + abs(cd))


def test_gram_residual_at_degree_n(eynard3_pot):
    # the weight at x* underflows at degree 0; the values there must regrow
    table = _ladder_table(eynard3_pot, 400)
    assert gram_residual(table, 400) < 1e-9


@pytest.mark.parametrize("n", [800, 2560])
def test_node_doubling_large_n(eynard3_pot, n):
    table = _ladder_table(eynard3_pot, n)
    finer = build_recurrence(
        eynard3_pot, n, table.t, n, total_nodes=2 * len(table.rule.nodes)
    )
    assert np.max(np.abs(finer.beta - table.beta)) < 1e-12
    assert np.max(np.abs(finer.alpha - table.alpha)) < 1e-12


def test_table_size_bound(quadratic):
    with pytest.raises(InvalidParameterError):
        build_recurrence(quadratic, 10, 1.0, 30)


def test_eval_weighted_degree_bound(hermite_table):
    with pytest.raises(InvalidParameterError):
        eval_weighted(hermite_table, 13, 0.0)


def test_weighted_value_sentinel():
    wv = WeightedValue(log_mag=-np.inf, sign=0)
    assert wv.value == 0.0


def test_recurrence_csv(hermite_table):
    text = dump_recurrence_csv(hermite_table)
    lines = text.strip().split("\n")
    assert lines[0] == "j,alpha,beta"
    assert len(lines) == hermite_table.N + 2
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[2]) == 0.0
