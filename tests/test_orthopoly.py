import math

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly
from numpy.polynomial.hermite import hermval
from numpy.polynomial.legendre import leggauss

from rmtlab import (
    InvalidParameterError,
    Potential,
    PrecisionLimitError,
    build_recurrence,
    kernel,
    kernel_matrix,
    make_scaling,
    quadrature_support,
    string_residual,
)
from rmtlab import make_eynard, orthopoly
from rmtlab.critical import detect_singular, unit_equilibrium
from rmtlab.equilibrium import density, log_potential
from rmtlab.experiments import recurrence_for
from rmtlab.orthopoly import (
    _GL,
    _growth,
    _log_potential_samples,
    _log_weight_half,
    _recur,
    gram_residual,
    kernel_diagonal,
    weighted_sweep,
)


def _psi(table, k, pts):
    """psi_k = p_k exp(-n V_t / 2) at the points: the last row of _recur's last block."""
    for _, rows, L in _recur(table, np.asarray(pts, dtype=float), k):
        pass
    return rows[-1] * np.exp(L)


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
    assert abs(_psi(hermite_table, 1, [0.0])[0]) < 1e-12


def test_eval_weighted_constant(hermite_table):
    # for exp(-n x^2), p_k(x) = n^{1/4} H_k(sqrt(n) x) / sqrt(2^k k! sqrt(pi))
    assert abs(_psi(hermite_table, 0, [0.0])[0] - (10.0 / np.pi) ** 0.25) < 1e-10
    x = np.array([-1.3, -0.4, 0.0, 0.25, 0.9, 2.1])
    for k in range(13):
        unit = np.zeros(k + 1)
        unit[k] = 1.0 / np.sqrt(2.0**k * math.factorial(k) * np.sqrt(np.pi))
        exact = 10.0**0.25 * hermval(np.sqrt(10.0) * x, unit) * np.exp(-5.0 * x * x)
        assert np.max(np.abs(_psi(hermite_table, k, x) - exact)) < 1e-10


@pytest.mark.parametrize("k", [0, 5, 10])
def test_weighted_norms(hermite_table, k):
    # one point at a time, checked against the rule directly
    x = hermite_table.rule.nodes
    w = hermite_table.rule.weights
    full = np.array([_psi(hermite_table, k, [xi])[0] for xi in x])
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


def test_node_doubling_stability(quadratic, eynard3_pot, monkeypatch):
    for pot, n in ((quadratic, 10), (eynard3_pot, 40)):
        t1 = build_recurrence(pot, n, 1.0, n)
        with monkeypatch.context() as m:
            m.setattr(orthopoly, "_MIN_NODES", 8000)
            t2 = build_recurrence(pot, n, 1.0, n)
        assert t2.rule.nodes.size >= 8000 > t1.rule.nodes.size
        pts = np.linspace(-1.0, 1.0, 7)
        k1 = kernel_matrix(t1, pts)
        k2 = kernel_matrix(t2, pts)
        assert np.max(np.abs(k1 - k2) / (1.0 + np.abs(k1))) < 1e-7


def test_hermite_oracle_large_n(quadratic):
    # no cap on n: beta_j = j t / (2n) at n = 2560, and at t != 1 for
    # n = 800; at t = 0.1, n = 500 the first window cuts the band of V_t
    # and the build must widen it; at n = 2560 the density-adapted panels
    # take fewer nodes than the uniform rule (V = x^2 has no x*: off the
    # band they are (b - a) / sqrt(n) wide)
    for n, t in ((2560, 1.0), (800, 0.5), (800, 2.0), (500, 0.1)):
        table = build_recurrence(quadratic, n, t, n)
        beta_exact = np.arange(n + 1) * t / (2.0 * n)
        assert np.max(np.abs(table.beta - beta_exact)) < 1e-12
        assert np.max(np.abs(table.alpha)) < 1e-12
        if n == 2560:
            assert table.rule.nodes.size < _uniform_size(quadratic, table.rule, n)


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
        # the scalar and the vectorized paths run one sweep
        assert cd == pytest.approx(kernel_matrix(table, [x, y])[0, 1], rel=1e-13)
        psi_n = weighted_sweep(table, [x, y])[1][0]
        assert _psi(table, n, [x])[0] == pytest.approx(psi_n, rel=1e-13)
    with pytest.raises(PrecisionLimitError):
        kernel_matrix(table, [table.rule.lo - 1.0, 0.0])
    with pytest.raises(PrecisionLimitError):
        kernel_matrix(table, [0.0, table.rule.hi + 1.0])
    # the scalar kernel refuses them too, off the diagonal and on it
    for x, y in ((table.rule.hi + 1.0, 0.0), (50.0, 0.1), (table.rule.lo - 1.0,) * 2):
        with pytest.raises(PrecisionLimitError):
            kernel(table, x, y)


def test_gram_residual_at_degree_n(eynard3_pot):
    # the weight at x* underflows at degree 0; the values there must regrow
    table = _ladder_table(eynard3_pot, 400)
    assert gram_residual(table, 400) < 1e-9


def _split_build(pot, n, t, monkeypatch):
    """The first rule of build_recurrence, and its table when the first
    table is reported to miss the string equations."""
    rules = []

    def missed_once(table):
        rules.append(table.rule)
        return (np.inf, np.inf) if len(rules) == 1 else string_residual(table)

    with monkeypatch.context() as m:
        m.setattr(orthopoly, "string_residual", missed_once)
        table = build_recurrence(pot, n, t, n)
    return rules[0], table


def _uniform_size(pot, rule, n):
    """Nodes of the uniform rule on the rule's window: 5 n / (b - a) per unit length."""
    eq = unit_equilibrium(pot)
    count = max(2000, int(np.ceil(5 * n * (rule.hi - rule.lo) / (eq.b - eq.a))))
    return 63 * -(-count // 63)


def _assert_tables_agree(table, other, tol):
    assert np.max(np.abs(other.alpha - table.alpha)) < tol
    assert np.max(np.abs(other.beta[1:] - table.beta[1:]) / table.beta[1:]) < tol


def _assert_composite(rule, edges):
    """The rule is 63 leggauss nodes on each panel between the edges, bit for bit."""
    xs, ws = leggauss(63)
    mids = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    assert np.array_equal(rule.edges, edges)
    assert np.array_equal(rule.nodes, (mids[:, None] + half[:, None] * xs).ravel())
    assert np.array_equal(rule.weights, (half[:, None] * ws).ravel())


def _assert_split(first, rule):
    """The rule is the first rule with every panel split at its midpoint."""
    edges = np.empty(2 * first.edges.size - 1)
    edges[::2] = first.edges
    edges[1::2] = 0.5 * (first.edges[:-1] + first.edges[1:])
    _assert_composite(rule, edges)
    assert rule.vt_min == first.vt_min


@pytest.mark.parametrize("n", [800, 2560])
def test_node_doubling_large_n(eynard3_pot, n, monkeypatch):
    # the default table against one on its rule with every panel split in
    # two: a retry splits the density-adapted rule it has, not a fresh
    # uniform one
    table = _ladder_table(eynard3_pot, n)
    first, finer = _split_build(eynard3_pot, n, table.t, monkeypatch)
    assert first.nodes.size == table.rule.nodes.size < _uniform_size(eynard3_pot, first, n)
    _assert_split(first, finer.rule)
    _assert_tables_agree(table, finer, 1e-12)


def test_retry_splits_the_rule_it_has(quadratic, monkeypatch):
    # the split of V = x^2's density-adapted rule keeps beta_j = j / (2n)
    n = 2560
    first, table = _split_build(quadratic, n, 1.0, monkeypatch)
    assert first.nodes.size < _uniform_size(quadratic, first, n)
    _assert_split(first, table.rule)
    assert np.max(np.abs(table.beta - np.arange(n + 1) / (2.0 * n))) < 1e-12


@pytest.mark.parametrize("e", [3.0, 4.0, 6.0])
@pytest.mark.parametrize("s", [0.5, 2.5])
def test_adapted_rule_matches_uniform_rule(e, s, monkeypatch):
    # panels laid by the equilibrium density give the uniform rule's tables;
    # from n = 1280 on they take fewer nodes for every e (at e = 6, n = 640
    # the uniform rule is the smaller)
    pot = make_eynard(e)[0]
    for n in (1280, 2560):
        t = make_scaling(pot, n, s).t
        table = build_recurrence(pot, n, t, n)
        with monkeypatch.context() as m:
            m.setattr(orthopoly, "_REGIME", -1.0)  # no n passes the regime gate
            uniform = build_recurrence(pot, n, t, n)
        assert uniform.rule.nodes.size == _uniform_size(pot, uniform.rule, n)
        assert table.rule.nodes.size < uniform.rule.nodes.size
        _assert_tables_agree(uniform, table, 1e-12)


@pytest.mark.parametrize("t", [0.7, 1.2])
def test_uniform_rule_outside_scaling_regime(eynard3_pot, t):
    # rho_1 fits n |t - 1| <= 16 log n; farther out the panels are uniform
    n = 2560
    rule = quadrature_support(eynard3_pot, n, t)
    assert np.array_equal(rule.edges, np.linspace(rule.lo, rule.hi, rule.edges.size))
    assert rule.nodes.size == _uniform_size(eynard3_pot, rule, n)


@pytest.mark.parametrize(
    "e, n, panels, adapted",
    [
        (3.0, 160, 32, False),
        (3.0, 180, 34, False),
        (3.0, 200, 37, True),
        (3.0, 240, 40, True),
        (3.0, 320, 46, True),
        (4.0, 320, 63, False),
        (4.0, 420, 77, True),
        (4.0, 640, 94, True),
        (6.0, 640, 143, False),
    ],
)
def test_layout_at_its_crossover(e, n, panels, adapted):
    # at s = 1 the layout that takes fewer panels wins: the adapted one
    # from n of about 200 at e = 3, 400 at e = 4 and 670 at e = 6. The
    # g_off bound alone keeps the uniform layout at e = 3, n = 160 and 180;
    # at n = 200 (e = 3) and 420 (e = 4) the trapezoid sum decides
    pot = make_eynard(e)[0]
    rule = quadrature_support(pot, n, make_scaling(pot, n, 1.0).t)
    assert rule.edges.size - 1 == panels
    even = np.array_equal(rule.edges, np.linspace(rule.lo, rule.hi, panels + 1))
    assert even is not adapted
    if adapted:
        assert panels < _uniform_size(pot, rule, n) // 63


def test_rule_when_x_star_is_refused():
    # near e = 2 the geometry refuses x*; the rule is then laid as for a
    # potential without one, and the table passes the string equations
    pot = make_eynard(2.00001)[0]
    with pytest.raises(PrecisionLimitError):
        detect_singular(pot)
    rule = quadrature_support(pot, 1280, 1.0)
    assert rule.nodes.size < _uniform_size(pot, rule, 1280)
    table = build_recurrence(pot, 1280, 1.0, 1280)
    assert table.rule.nodes.size == rule.nodes.size


def test_table_size_bound(quadratic):
    with pytest.raises(InvalidParameterError):
        build_recurrence(quadratic, 10, 1.0, 30)


def test_gauss_legendre_rule_cached(eynard3_pot):
    # panels of 63 leggauss nodes; at n = 40 the 2000-node floor rules and
    # the panels are uniform over the window, the former 32 x 63 rule; at
    # n = 2560 the density-adapted panels take at most 0.66 of the uniform
    # count; the panel rule is a read-only module constant
    rule = quadrature_support(eynard3_pot, 40, 1.0)
    assert _uniform_size(eynard3_pot, rule, 40) == 32 * 63
    _assert_composite(rule, np.linspace(rule.lo, rule.hi, 33))
    rule = quadrature_support(eynard3_pot, 2560, 1.0)
    assert np.all(np.diff(rule.edges) > 0) and rule.nodes.size == 63 * (rule.edges.size - 1)
    assert rule.weights.sum() == pytest.approx(rule.hi - rule.lo, rel=1e-13)
    assert rule.nodes.size <= 0.66 * _uniform_size(eynard3_pot, rule, 2560)
    xs, ws = leggauss(63)
    assert np.array_equal(_GL[0], xs) and np.array_equal(_GL[1], ws)
    assert not _GL[0].flags.writeable and not _GL[1].flags.writeable


def _uncached_window(pot, n, t, level=805.0):
    """The window of quadrature_support with the log potential sampled afresh."""
    vt = np.asarray(pot.coeffs) / t
    eq = unit_equilibrium(pot)
    reach = eq.radius
    while True:
        reach *= 2.0
        x = np.linspace(eq.midpoint - reach, eq.midpoint + reach, 4001)
        excess = n * (npoly.polyval(x, vt) - 2.0 * log_potential(eq, x) + eq.ell)
        top = level + max(float(excess.min()), 0.0)
        if excess[0] > top and excess[-1] > top:
            break
    inside = np.flatnonzero(excess <= top)
    step = x[1] - x[0]
    lo, hi = x[inside[0]] - step, x[inside[-1]] + step
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


@pytest.mark.parametrize("n", [40, 160, 2560])
def test_log_potential_samples_cached(eynard3_pot, n):
    t = make_scaling(eynard3_pot, n, 1.0).t
    rule = quadrature_support(eynard3_pot, n, t)
    assert (rule.lo, rule.hi) == _uncached_window(eynard3_pot, n, t)
    x, two_u, rho = _log_potential_samples(eynard3_pot, 1)
    assert not (x.flags.writeable or two_u.flags.writeable or rho.flags.writeable)
    assert _log_potential_samples(eynard3_pot, 1)[1] is two_u
    assert np.array_equal(rho, density(unit_equilibrium(eynard3_pot), x))


@pytest.mark.parametrize("n", [160, 800, 2560])
def test_string_residual_ladder(eynard3_pot, n):
    # the default rule passes the string equations with no refinement
    table = _ladder_table(eynard3_pot, n)
    diag, off = string_residual(table)
    assert diag <= 1e-12 * n and off <= 1e-12
    assert table.rule.nodes.size == quadrature_support(eynard3_pot, n, table.t).nodes.size


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
def test_string_residual_hermite(quadratic, t):
    # for V = x^2 the off-diagonal equation is beta_j = j t / (2n)
    n = 800
    table = build_recurrence(quadratic, n, t, n)
    diag, off = string_residual(table)
    assert diag <= 1e-12 * n and off <= 1e-12
    assert table.rule.nodes.size == quadrature_support(quadratic, n, t).nodes.size
    j = np.arange(1, n)
    assert off == pytest.approx(np.abs(2.0 * n * table.beta[j] / (t * j) - 1.0).max(), abs=1e-14)


def test_string_residual_flags_coarse_rule(eynard3_pot, monkeypatch):
    # 4 n nodes give a table off by O(1), and the residual says so
    n = 640
    t = make_scaling(eynard3_pot, n, 1.0).t
    monkeypatch.setattr(orthopoly, "_NODES_PER_BAND", 2)
    monkeypatch.setattr(orthopoly, "_STRING_TOL", np.inf)
    coarse = build_recurrence(eynard3_pot, n, t, n)
    monkeypatch.undo()
    assert coarse.rule.nodes.size < 5 * n
    diag, off = string_residual(coarse)
    assert diag > 1.0 and off > 1e-3


def test_coarse_rule_refined(eynard3_pot, monkeypatch):
    n = 640
    table = _ladder_table(eynard3_pot, n)
    monkeypatch.setattr(orthopoly, "_NODES_PER_BAND", 2)
    coarse = quadrature_support(eynard3_pot, n, table.t)
    refined = build_recurrence(eynard3_pot, n, table.t, n)
    # two rebuilds, each on the same window with every panel split in two
    rule = refined.rule
    assert (rule.lo, rule.hi, rule.vt_min) == (coarse.lo, coarse.hi, coarse.vt_min)
    assert rule.nodes.size == 4 * coarse.nodes.size
    assert np.max(np.abs(refined.alpha - table.alpha)) < 1e-12
    assert np.max(np.abs(refined.beta - table.beta)) < 1e-12


def test_coarse_rule_out_of_attempts(eynard3_pot, monkeypatch):
    # the coarse rule needs two splits (test_coarse_rule_refined)
    n = 640
    t = make_scaling(eynard3_pot, n, 1.0).t
    monkeypatch.setattr(orthopoly, "_NODES_PER_BAND", 2)
    monkeypatch.setattr(orthopoly, "_SPLITS", 1)
    with pytest.raises(PrecisionLimitError, match="string equations"):
        build_recurrence(eynard3_pot, n, t, n)


def test_widenings_and_splits_have_budgets_of_their_own(quadratic):
    # V = x^2 at t = 0.1 widens its window three times, to 5292 nodes, then
    # splits its rule once; one shared budget of four builds ran out
    n, t = 2560, 0.1
    table = build_recurrence(quadratic, n, t, n)
    assert table.rule.nodes.size == 10584
    j = np.arange(n + 1)
    assert np.max(np.abs(table.beta - j * t / (2.0 * n))) < 1e-12


@pytest.mark.parametrize(
    "budget, size, message",
    [("_WIDENINGS", 2, "carry weight"), ("_SPLITS", 0, "misses the string equations")],
)
def test_each_budget_runs_out_alone(quadratic, monkeypatch, budget, size, message):
    # the same build as above with one remedy's budget cut below its need
    monkeypatch.setattr(orthopoly, budget, size)
    with pytest.raises(PrecisionLimitError, match=message):
        build_recurrence(quadratic, 2560, 0.1, 2560)


def test_string_residual_short_table(quadratic, eynard3_pot):
    # with N below deg V_t' no degree is checked; N = deg V_t' checks j = 0
    assert string_residual(build_recurrence(eynard3_pot, 10, 1.0, 2)) == (0.0, 0.0)
    diag, off = string_residual(build_recurrence(quadratic, 10, 1.0, 1))
    assert diag < 1e-12 and off == 0.0


@pytest.mark.parametrize("t", [0.0, -0.44, np.nan, np.inf])
def test_invalid_t(quadratic, t):
    with pytest.raises(InvalidParameterError):
        quadrature_support(quadratic, 10, t)
    with pytest.raises(InvalidParameterError):
        build_recurrence(quadratic, 10, t, 10)


def test_negative_degree(quadratic):
    with pytest.raises(InvalidParameterError):
        build_recurrence(quadratic, 10, 1.0, -1)


def test_gram_residual_degree_bound(hermite_table):
    for upto in (-1, 13):
        with pytest.raises(InvalidParameterError):
            gram_residual(hermite_table, upto)


def test_short_table_refused(quadratic):
    # a table through degree 5 cannot give the rank-10 kernel
    from rmtlab.orthopoly import _kernel_confluent

    short = build_recurrence(quadratic, 10, 1.0, 5)
    pts = np.array([0.1, 0.3])
    for evaluate in (
        lambda: kernel_matrix(short, pts),
        lambda: kernel_diagonal(short, pts),
        lambda: kernel(short, 0.1, 0.3),
        lambda: kernel(short, 0.1, 0.1),
        lambda: _kernel_confluent(short, 0.1, 0.3),
    ):
        with pytest.raises(InvalidParameterError, match="degree"):
            evaluate()


def test_weighted_sweep_nan(hermite_table):
    with pytest.raises(InvalidParameterError):
        weighted_sweep(hermite_table, [0.0, np.nan])
    with pytest.raises(InvalidParameterError):
        kernel_matrix(hermite_table, [np.nan])


@pytest.mark.parametrize("evaluate", [kernel_matrix, kernel_diagonal, weighted_sweep])
@pytest.mark.parametrize("pts", [[[1.0, 2.0]], 1.0], ids=["2-d", "0-d"])
def test_points_must_be_1d(hermite_table, evaluate, pts):
    with pytest.raises(InvalidParameterError, match="1-d"):
        evaluate(hermite_table, np.array(pts))


def test_kernel_matrix_at_repeated_and_close_points():
    # the diagonal sum at a repeated point (the Christoffel-Darboux quotient
    # is NaN there) and the confluent sum at close points (at e = 3 and
    # n = 160 the quotient is off by up to 7e-4 relative at 1e-12 apart, on
    # x* - 1.5 to x* + 0.5); kernel() takes its entry of the matrix
    from rmtlab.orthopoly import _kernel_confluent

    table = _scaled_table(3.0, 160, 1.0)
    x = detect_singular(table.potential) + 0.05
    pts = np.array([x, 0.5, x, x + 1e-12, x + 1e-10])
    K = kernel_matrix(table, pts)
    diag = kernel_diagonal(table, pts)
    assert np.all(np.isfinite(K))
    assert K[0, 2] == K[2, 0] == K[0, 0] == K[2, 2] == diag[0] == kernel(table, x, x)
    for i, j in ((0, 3), (3, 0), (0, 4), (4, 3)):
        want = _kernel_confluent(table, pts[i], pts[j])
        assert abs(K[i, j] - want) <= 1e-12 * abs(want)
        assert kernel(table, pts[i], pts[j]) == K[i, j]
    assert K[0, 1] == kernel(table, x, 0.5)  # far pairs keep the quotient


@pytest.mark.parametrize("x, y", [(np.nan, 0.1), (0.1, np.nan), (np.nan, np.nan)])
def test_scalar_kernel_nan(hermite_table, x, y):
    from rmtlab.orthopoly import _kernel_confluent

    # the sweep refuses NaN points, in the matrix and in the confluent sum
    with pytest.raises(InvalidParameterError):
        kernel(hermite_table, x, y)
    with pytest.raises(InvalidParameterError):
        _kernel_confluent(hermite_table, x, y)


@pytest.mark.parametrize("k", [0, 3])
def test_eval_weighted_nan(hermite_table, k):
    with pytest.raises(InvalidParameterError):
        _psi(hermite_table, k, [np.nan])


def _stieltjes_every_node(rule, log_half, N):
    """The Stieltjes sweep that sums over every node at every degree and
    scans every node for mantissas above 1e100 at every degree: the
    reference for the sweep that sums over the active hull only."""
    x = rule.nodes
    log_g = np.log(rule.weights)
    log_w = log_g + 2.0 * log_half
    peak = float(log_w.max())
    log_mass = peak + float(np.log(np.sum(np.exp(log_w - peak))))
    log_gamma0 = -0.5 * log_mass
    S = log_half + log_gamma0
    E = np.exp(2.0 * S + log_g)
    prev = np.zeros_like(x)
    cur = np.ones_like(x)
    alpha = np.zeros(N + 1)
    beta = np.zeros(N + 1)
    for j in range(N + 1):
        xc = x * cur
        alpha[j] = (E * cur) @ xc
        if j == N:
            break
        xc -= alpha[j] * cur
        if j > 0:
            xc -= np.sqrt(beta[j]) * prev
        b = float((E * xc) @ xc)
        beta[j + 1] = b
        xc /= np.sqrt(b)
        prev, cur = cur, xc
        big = np.flatnonzero(np.abs(cur) > 1e100)
        if big.size:
            mag = np.abs(cur[big])
            cur[big] /= mag
            prev[big] /= mag
            S[big] += np.log(mag)
            E[big] = np.exp(2.0 * S[big] + log_g[big])
    return alpha, beta, log_gamma0


def _scaled_table(e, n, s):
    """Table of make_eynard(e) at (n, s), shared through the experiments cache."""
    pot = make_eynard(e)[0]
    t = make_scaling(pot, n, s).t
    return recurrence_for(pot, n, t)


@pytest.mark.parametrize(
    "e, n, s",
    [(3.0, 160, 1.0), (3.0, 2560, 1.0), (4.0, 2560, 1.5), (6.0, 1280, 1.0), (None, 500, 0.1)],
    ids=["e3-n160", "e3-n2560", "e4-n2560-gap", "e6-n1280-gap", "x2-t0.1"],
)
def test_hull_sweep_matches_every_node_sweep(quadratic, e, n, s):
    # for V = x^2, s is t, and the first window cuts the band of V_t
    table = build_recurrence(quadratic, n, s, n) if e is None else _scaled_table(e, n, s)
    rule = table.rule
    log_half = _log_weight_half(rule.nodes, table.vt_coeffs(), n, rule.vt_min)
    alpha, beta, log_gamma0 = _stieltjes_every_node(rule, log_half, n)
    assert np.max(np.abs(table.alpha - alpha)) < 1e-12
    assert np.max(np.abs(table.beta[1:] - beta[1:]) / beta[1:]) < 1e-12
    assert table.log_gamma0 == log_gamma0
    if e in (4.0, 6.0):
        # the nodes that carry weight at degree n leave a gap between the
        # band and x*, so only a full scan finds the hull's right end
        psi_prev, psi_n, _ = weighted_sweep(table, rule.nodes)
        live = np.flatnonzero(rule.weights * np.maximum(psi_prev**2, psi_n**2) >= 1e-34)
        assert np.max(np.diff(rule.nodes[live])) > 1.0
        assert rule.nodes[live[0]] < 0.0 < detect_singular(table.potential) < rule.nodes[live[-1]]


@pytest.mark.parametrize("e, n, s", [(3.0, 640, 1.0), (6.0, 1280, 1.0)], ids=["e3", "e6"])
def test_growth_bound_holds_along_build(e, n, s):
    # G_j bounds max(|p_{j+1}|, |p_j|) / max(|p_j|, |p_{j-1}|) at every node
    # and at both window ends; at degree 0 the far end attains it
    table = _scaled_table(e, n, s)
    lo, hi = table.rule.lo, table.rule.hi
    sb = np.sqrt(table.beta)
    bound = np.log(_growth(lo, hi, table.alpha[:n], sb[:n], sb[1:]))
    pts = np.concatenate([[lo], table.rule.nodes, [hi]])
    # consecutive rows of a block are (p_{j-1}, p_j) for each of its own degrees j
    log_m = np.concatenate(
        [
            np.log(np.maximum(np.abs(rows[:-1]), np.abs(rows[1:]))) + L
            for _, rows, L in _recur(table, pts, n)
        ]
    )
    observed = np.diff(log_m, axis=0).max(axis=1)
    assert np.all(bound >= 0.0)
    assert np.all(observed <= bound + 1e-12)
    assert observed[0] == pytest.approx(bound[0], abs=1e-12)


def _recur_per_degree(table, pts, upto):
    """The evaluation sweep one degree at a time, with about ten numpy calls
    per degree: the reference for the block sweep. Yields (prev, cur, L) for
    j = 0..upto, psi_{j-1} = prev exp(L) and psi_j = cur exp(L), and folds on
    _growth's schedule with the module's evaluation budget, as the block
    sweep does."""
    lo, hi = table.rule.lo, table.rule.hi
    sb = np.sqrt(table.beta)
    L = table.log_gamma0 + _log_weight_half(pts, table.vt_coeffs(), table.n, table.rule.vt_min)
    growth = _growth(lo, hi, table.alpha[:upto], sb[:upto], sb[1 : upto + 1]).tolist()
    growth.append(0.0)
    bound = 1.0
    prev = np.zeros_like(pts)
    cur = np.ones_like(pts)
    for j in range(upto + 1):
        yield prev, cur, L
        if j == upto:
            return
        nxt = ((pts - table.alpha[j]) * cur - (sb[j] * prev if j > 0 else 0.0)) / sb[j + 1]
        prev, cur = cur, nxt
        bound *= growth[j]
        if bound * growth[j + 1] > orthopoly._EVAL_GROWTH:
            m = np.maximum(np.abs(prev), np.abs(cur))
            mask = m > orthopoly._EVAL_FOLD
            if mask.any():
                f = np.where(mask, m, 1.0)
                L = L + np.log(f)
                prev = prev / f
                cur = cur / f
            bound = 1.0


def _psi_per_degree(table, pts, upto):
    """psi_0..psi_upto at the points from the reference sweep, one row each."""
    return np.array([cur * np.exp(L) for _, cur, L in _recur_per_degree(table, pts, upto)])


def _psi_blocks(table, pts, upto):
    """psi_0..psi_upto from the block sweep, and the blocks as yielded."""
    blocks = list(_recur(table, pts, upto))
    psi = np.concatenate([rows[1:] * np.exp(L) for _, rows, L in blocks])
    return psi, blocks


def _sweep_per_degree(table, pts):
    """(psi_{n-1}, psi_n, kernel diagonal) from the reference sweep, one
    degree at a time, never holding more than two degrees."""
    diag = np.zeros_like(pts)
    for j, (_, cur, L) in enumerate(_recur_per_degree(table, pts, table.n)):
        psi = cur * np.exp(L)
        if j == table.n:
            return last, psi, diag
        diag += psi * psi
        last = psi


def _kernel_matrix_per_degree(table, pts):
    psi1, psi0, diag = _sweep_per_degree(table, pts)
    outer = np.outer(psi0, psi1)
    dx = np.subtract.outer(pts, pts)
    with np.errstate(divide="ignore", invalid="ignore"):
        K = np.sqrt(table.beta[table.n]) * (outer - outer.T) / dx
    np.fill_diagonal(K, diag)
    return K


def _block_sweep_case(e, n, s):
    """A table, a kernel grid and count nodes for one reference case."""
    if e is None:
        table = build_recurrence(Potential((0.0, 0.0, 1.0)), n, s, n)
        return table, np.linspace(-1.6, 1.6, 25), np.linspace(-1.0, 1.0, 200)
    table = _scaled_table(e, n, s)
    params = make_scaling(table.potential, n, s)
    grid = params.x_star + np.arange(-3.0, 3.125, 0.25) / np.sqrt(params.c * n)
    b = unit_equilibrium(table.potential).b
    delta = 0.25 * (params.x_star - b)
    return table, grid, params.x_star + delta * leggauss(200)[0]


@pytest.mark.parametrize(
    "e, n, s",
    [
        (3.0, 40, 1.0),
        (3.0, 160, 1.0),
        (3.0, 2560, 1.0),
        (4.0, 2560, 1.5),
        (6.0, 1280, 1.0),
        (None, 800, 1.0),
    ],
    ids=["e3-n40", "e3-n160", "e3-n2560", "e4-n2560-gap", "e6-n1280-gap", "x2-n800"],
)
def test_block_sweep_matches_per_degree_sweep(e, n, s):
    # kernel entries to 1e-12 of max |K|, diagonals to 1e-12 of their largest
    # entry; on the table's nodes each block holds at most _BLOCK values
    from rmtlab.orthopoly import _BLOCK, _kernel_confluent

    table, grid, nodes = _block_sweep_case(e, n, s)
    K = kernel_matrix(table, grid)
    ref = _kernel_matrix_per_degree(table, grid)
    scale = np.abs(ref).max()
    assert np.abs(K - ref).max() <= 1e-12 * scale
    for pts in (nodes, table.rule.nodes):
        diag = kernel_diagonal(table, pts)
        ref_diag = _sweep_per_degree(table, pts)[2]
        assert np.abs(diag - ref_diag).max() <= 1e-12 * np.abs(ref_diag).max()
    for x, y in ((grid[12], grid[12]), (grid[0], grid[13]), (grid[3], grid[-1])):
        pair = np.array([x, y])
        ref_pair = _psi_per_degree(table, pair, n - 1)
        direct = float(np.sum(ref_pair[:, 0] * ref_pair[:, 1]))
        assert abs(_kernel_confluent(table, x, y) - direct) <= 1e-12 * scale
    upto = min(n, 40)
    ref_vals = _psi_per_degree(table, table.rule.nodes, upto)
    ref_gram = (ref_vals * table.rule.weights) @ ref_vals.T
    ref_residual = float(np.abs(ref_gram - np.eye(upto + 1)).max())
    assert abs(gram_residual(table, upto) - ref_residual) <= 1e-12
    width = table.rule.nodes.size
    for _, rows, _ in _recur(table, table.rule.nodes, n):
        assert rows.size <= max(_BLOCK, 3 * width)


@pytest.mark.parametrize("upto", [0, 1])
def test_block_sweep_lowest_degrees(eynard_table, upto):
    pts = np.linspace(-2.0, 3.0, 7)
    blocks = list(_recur(eynard_table, pts, upto))
    assert len(blocks) == 1
    j, rows, L = blocks[0]
    assert j == upto and rows.shape == (upto + 2, pts.size)
    assert np.all(rows[0] == 0.0)  # psi_{-1}
    ref = _psi_per_degree(eynard_table, pts, upto)
    assert np.abs(rows[1:] * np.exp(L) - ref).max() <= 1e-14 * np.abs(ref).max()


@pytest.mark.parametrize("width", [1, 4, 5, 1000], ids=["one", "divides-n", "five", "past-n"])
def test_block_sweep_block_ends(eynard_table, monkeypatch, width):
    # n = 40 in blocks of one degree (every fold check on a block's last
    # degree, and the last block holds degree n alone), of 4 (40 an exact
    # multiple), of 5 and of more than n (blocks end at fold checks only);
    # n = 40 needs no fold check on the evaluation's own budget, so the
    # build's smaller one stands in for it
    pts = np.linspace(-2.0, 3.0, 7)
    monkeypatch.setattr(orthopoly, "_BLOCK", (width + 2) * pts.size)
    monkeypatch.setattr(orthopoly, "_EVAL_GROWTH", orthopoly._GROWTH)
    n = eynard_table.n
    psi, blocks = _psi_blocks(eynard_table, pts, n)
    ref = _psi_per_degree(eynard_table, pts, n)
    assert np.abs(psi - ref).max(axis=1).max() <= 1e-13 * np.abs(ref).max()
    ends = [j for j, _, _ in blocks]
    assert ends[-1] == n and ends == sorted(set(ends))
    assert all(rows.shape[0] - 1 <= max(width, 1) for _, rows, _ in blocks[1:])
    if width == 1:
        assert ends == list(range(1, n + 1))  # the first block also holds degree 0
    elif width == 1000:
        assert 1 < len(blocks) < n // 4  # one block per fold check, and the last
    # no yielded block is written to after it is yielded
    kept = [(rows, L, rows.copy(), L.copy()) for _, rows, L in _recur(eynard_table, pts, n)]
    for rows, L, rows0, L0 in kept:
        assert np.array_equal(rows, rows0) and np.array_equal(L, L0)
    psi1, psi0, diag = weighted_sweep(eynard_table, pts)
    ref1, ref0, ref_diag = _sweep_per_degree(eynard_table, pts)
    for got, want in ((psi1, ref1), (psi0, ref0), (diag, ref_diag)):
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_block_sweep_short_table_one_block(hermite_table):
    # n = 10 needs no fold check: the whole sweep is one block
    pts = np.linspace(-1.0, 1.0, 5)
    psi, blocks = _psi_blocks(hermite_table, pts, hermite_table.N)
    assert [j for j, _, _ in blocks] == [hermite_table.N]
    assert np.abs(psi - _psi_per_degree(hermite_table, pts, hermite_table.N)).max() < 1e-13
