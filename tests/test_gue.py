import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from rmtlab import (
    InvalidParameterError,
    OffAxisRequiredError,
    PrecisionLimitError,
    gue_kernel,
    gue_kernel_grid,
    gue_kernel_sum,
    hermite,
    hermite_cauchy,
    psi_matrix,
)

_XS, _WS = leggauss(120)


def gauss_line(fn, lo, hi, panels=8):
    total = 0.0
    edges = np.linspace(lo, hi, panels + 1)
    for a, b in zip(edges[:-1], edges[1:]):
        u = 0.5 * (a + b) + 0.5 * (b - a) * _XS
        total += 0.5 * (b - a) * np.sum(_WS * fn(u))
    return total


def test_hermite_h0_constant():
    for x in (-2.0, 0.0, 1.7):
        assert abs(hermite(0, x) - np.pi**-0.25) < 1e-15


def test_hermite_h1_odd():
    assert hermite(1, 0.0) == 0.0


def test_hermite_minus_one_zero():
    assert hermite(-1, 0.4) == 0.0


@pytest.mark.parametrize("k", range(0, 21))
def test_hermite_orthonormal(k):
    norm = gauss_line(lambda u: hermite(k, u) ** 2 * np.exp(-u * u), -12, 12)
    assert abs(norm - 1.0) < 1e-12


def test_hermite_leading_coefficient():
    # value at large argument is dominated by the leading term
    k, x = 5, 60.0
    lead = 2 ** (k / 2.0) / (np.pi**0.25 * math.sqrt(math.factorial(k)))
    assert abs(hermite(k, x) / (lead * x**k) - 1.0) < 1e-2


def test_kernel_at_origin():
    assert abs(gue_kernel(1, 0.0, 0.0) - 1.0 / np.sqrt(np.pi)) < 1e-12


def test_kernel_size_zero():
    assert gue_kernel(0, 0.3, -1.2) == 0.0
    assert gue_kernel_sum(0, 0.3, -1.2) == 0.0


@pytest.mark.parametrize("k", range(1, 7))
def test_kernel_trace(k):
    trace = gauss_line(lambda u: np.array([gue_kernel(k, ui, ui) for ui in u]), -12, 12)
    assert abs(trace - k) < 1e-10


def test_sum_form_origin():
    assert abs(gue_kernel_sum(1, 0.0, 0.0) - 1.0 / np.sqrt(np.pi)) < 1e-14


def test_sum_matches_cd_pointwise():
    assert abs(gue_kernel(5, 0.7, -1.2) - gue_kernel_sum(5, 0.7, -1.2)) < 1e-10


def _hermite_restarted(j, x):
    """H_j(x) by its own run of the recurrence from degree 0."""
    prev, cur = np.zeros(1), np.full(1, np.pi**-0.25)
    for i in range(j):
        prev, cur = cur, (x * cur - np.sqrt(i / 2.0) * prev) / np.sqrt((i + 1) / 2.0)
    return cur[0]


def test_one_pass_sums_exact():
    # one recurrence pass gives exactly the per-degree sum, term by term, and
    # the Christoffel-Darboux form off the diagonal of the grid
    grid = np.arange(-3.0, 3.0001, 0.25)
    table = np.array([[_hermite_restarted(j, x) for x in grid] for j in range(9)])
    off = ~np.eye(len(grid), dtype=bool)
    for k in range(9):
        rows = table[:k]
        for i, u in enumerate(grid):
            for l, v in enumerate(grid):
                acc = sum(rows[j, i] * rows[j, l] for j in range(k))
                assert gue_kernel_sum(k, u, v) == float(np.exp(-(u * u + v * v) / 2.0) * acc)
        if k:
            diag = sum(rows[j] ** 2 for j in range(k))
            gauss = np.exp(-grid * grid)
            assert np.array_equal(np.diag(gue_kernel_grid(k, grid)), diag * gauss)
            outer = np.outer(table[k], table[k - 1])
            with np.errstate(divide="ignore", invalid="ignore"):
                cd = np.sqrt(k / 2.0) * (outer - outer.T) / np.subtract.outer(grid, grid)
            cd *= np.exp(-0.5 * np.add.outer(grid * grid, grid * grid))
            assert np.array_equal(gue_kernel_grid(k, grid)[off], cd[off])


def test_hermite_integer_argument():
    assert hermite(2, 1) == hermite(2, 1.0) != 0.0
    assert gue_kernel_sum(2, 1, 1) == gue_kernel_sum(2, 1.0, 1.0)


@pytest.mark.parametrize("k", range(1, 9))
def test_cd_sum_identity_on_grid(k):
    grid = np.arange(-3.0, 3.0001, 0.25)
    for u in grid:
        for v in grid:
            assert abs(gue_kernel(k, u, v) - gue_kernel_sum(k, u, v)) < 1e-10


@pytest.mark.parametrize("k", [1, 3])
def test_projection_property(k):
    pairs = [(0.0, 0.0), (0.5, -0.3), (1.2, 1.1), (-2.0, 0.7), (0.3, 2.1)]
    for u, v in pairs:
        val = gauss_line(
            lambda w: np.array([gue_kernel(k, u, wi) * gue_kernel(k, wi, v) for wi in w]),
            -12,
            12,
        )
        assert abs(val - gue_kernel(k, u, v)) < 1e-8


def test_grid_helper_matches_scalar():
    grid = np.array([-1.0, 0.0, 0.5, 2.0])
    mat = gue_kernel_grid(3, grid)
    for i, u in enumerate(grid):
        for j, v in enumerate(grid):
            assert abs(mat[i, j] - gue_kernel(3, u, v)) < 1e-12


@pytest.mark.parametrize(
    "k, grid",
    [(2, [0.5, 0.5]), (3, [0.3, 0.3 + 1e-12]), (3, [0.3, 0.3 + 1e-14])],
    ids=["repeat", "1e-12", "1e-14"],
)
def test_grid_at_repeated_and_close_points(k, grid):
    # the Christoffel-Darboux quotient is NaN at a repeated point and cancels
    # at close ones: 8.3e-6 relative at 1e-12 apart and 5.7e-3 at 1e-14 (k = 3)
    mat = gue_kernel_grid(k, grid)
    want = gue_kernel_sum(k, *grid)
    assert mat[0, 1] == mat[1, 0]
    assert abs(mat[0, 1] - want) <= 1e-12 * abs(want)


def test_cauchy_against_brute_force():
    z = 1j
    u = np.linspace(-12.0, 12.0, 100001)
    f = hermite(0, u) * np.exp(-u * u) / (u - z)
    oracle = np.trapezoid(f, u)
    val = hermite_cauchy(0, z)
    assert abs(val - oracle) < 1e-8
    assert val.imag > 0


def test_cauchy_conjugation_symmetry():
    for k in (0, 1, 4):
        z = 1.3 + 0.6j
        assert abs(np.conj(hermite_cauchy(k, z)) - hermite_cauchy(k, np.conj(z))) < 1e-12


def test_cauchy_far_field_orthogonality():
    # zeta * transform tends to the zeroth weighted moment: pi^{1/4} for
    # k = 0, zero for k >= 1. The residual at finite zeta is the first
    # nonvanishing moment over zeta^k, so the decay sharpens with k.
    z = 50j
    assert abs(50j * hermite_cauchy(0, z) + np.pi**0.25) < 1e-3
    assert abs(z * hermite_cauchy(1, z)) < 0.02
    assert abs(z * hermite_cauchy(2, z)) < 1e-3
    assert abs(z * hermite_cauchy(5, z)) < 1e-6
    # at 20i the series' last term is 2.6e-2 of the sum for H_60: it raises
    with pytest.raises(PrecisionLimitError, match="degree-60"):
        hermite_cauchy(60, 20j)


# perfbench's zeta beyond the far-field radius
_FAR_FIELD = [20j, 25j, 29j, 3 + 22j, 15 + 15j, 31j, 35j, -32j, 5 + 33j, 40j]


def _moment_series(k, zeta):
    # the moments int u^m H_k e^{-u^2} du, m = 0..k+24, by the Hermite recurrence
    width = k + 26
    prev = np.zeros(width + 2)
    prev[0] = np.pi**0.25
    mu = [prev[k]]
    for _ in range(k + 24):
        cur = np.zeros(width + 2)
        j = np.arange(width)
        cur[:width] = np.sqrt((j + 1) / 2.0) * prev[1 : width + 1]
        cur[1:width] += np.sqrt(j[1:] / 2.0) * prev[: width - 1]
        prev = cur
        mu.append(cur[k])
    return complex(-(np.array(mu) @ zeta ** -(np.arange(k + 25) + 1.0)))


def test_cauchy_far_route_closed_form_moments():
    # the closed-form moments give the recurrence's series to rounding
    from rmtlab.gue import _cauchy_series

    for zeta in _FAR_FIELD:
        for k in range(30):
            pair, _ = _cauchy_series(k, zeta)
            for j, value in zip((k - 1, k), pair):
                want = _moment_series(j, zeta) if j >= 0 else 0.0
                assert abs(value - want) <= 1e-14 * abs(want)
                if j >= 0:
                    assert hermite_cauchy(j, zeta) == value


def test_cauchy_route_consistency():
    # quadrature route and far-field series agree where both are valid
    from rmtlab.gue import _cauchy_quadrature

    for k in (0, 1, 3):
        z = 31j
        series = hermite_cauchy(k, z)
        direct = _cauchy_quadrature(k, z)[0][1]
        assert abs(series - direct) < 1e-9


def test_cauchy_route_consistency_at_switch():
    # just beyond the far-field radius the series and the quadrature agree
    from rmtlab.gue import _cauchy_quadrature

    for angle in (0.05, 0.8, np.pi / 2, 2.5, -1.2):
        z = 10.5 * np.exp(1j * angle)
        for k in range(6):
            series = hermite_cauchy(k, z)
            direct = _cauchy_quadrature(k, z)[0][1]
            assert abs(series - direct) <= 1e-9 * abs(direct)


_NEAR_FIELD = [2j, -1.5j, 1 + 1j, -2 + 0.5j, 0.3 + 0.2j, 3 - 1j, 0.05j, 5 + 5j, -4 - 2j, 0.7 + 3j]


def test_cauchy_panels_summed_in_order():
    # one Hermite pass over all panels gives both transforms with the bits of
    # one pass per panel and degree
    from rmtlab.gue import _GL, _cauchy_quadrature

    xs, ws = _GL
    for zeta in _NEAR_FIELD + [0.7 + 1e-3j, 0.7 - 1e-4j, 9.9j]:
        T = 12.0 + abs(zeta) / 2.0
        x0 = float(np.clip(zeta.real, -T, T))
        span, cuts = max(abs(zeta.imag), 1e-2), {-T, T, x0}
        while span < 2 * T:
            cuts.update(c for c in (x0 - span, x0 + span) if -T < c < T)
            span *= 2
        edges = np.array(sorted(cuts))
        for k in range(6):
            pair, _ = _cauchy_quadrature(k, zeta)
            for j, value in zip((k - 1, k), pair):
                total = 0.0 + 0.0j
                for lo, hi in zip(edges[:-1], edges[1:]):
                    u = 0.5 * (lo + hi) + 0.5 * (hi - lo) * xs
                    f = hermite(j, u) * np.exp(-u * u) / (u - zeta)
                    total += 0.5 * (hi - lo) * np.sum(ws * f)
                assert value == complex(total)


def test_psi_matrix_one_quadrature(monkeypatch):
    # both transforms of a near-field model matrix come from one quadrature
    from rmtlab import gue

    calls = []
    route = gue._cauchy_quadrature
    monkeypatch.setattr(gue, "_cauchy_quadrature", lambda k, z: calls.append(k) or route(k, z))
    psi_matrix(2j, 3)
    assert calls == [3]


def test_cauchy_requires_off_axis():
    for k in (1, -1):
        with pytest.raises(OffAxisRequiredError):
            hermite_cauchy(k, 2.0)
    # the degree and the finiteness of zeta are checked on both routes
    for k, zeta in ((-2, 20j), (-2, 2j), (1, complex(math.nan, 1.0)), (1, complex(1.0, math.inf))):
        with pytest.raises(InvalidParameterError):
            hermite_cauchy(k, zeta)


def test_cauchy_degree_minus_one_is_zero():
    # C_{-1} = 0 off the axis, near (2i) and beyond the far-field switch (20i)
    for zeta in (2j, 20j):
        assert hermite_cauchy(-1, zeta) == 0.0


def test_psi_unimodular():
    samples = _NEAR_FIELD + [20j, 25j, 29j, 3 + 22j]  # the last four beyond the far-field switch
    for k in (1, 2, 3, 4):
        for z in samples:
            assert abs(psi_matrix(z, k).det - 1.0) < 1e-8
    # k! passes the int64 range from k = 21 on
    assert abs(psi_matrix(0.05j, 21).det - 1.0) < 1e-12
    # at 5+5i the quadrature keeps 1e-8 through k = 12 and raises from k = 13
    assert abs(psi_matrix(5 + 5j, 12).det - 1.0) < 1e-7
    with pytest.raises(PrecisionLimitError, match="degree-13"):
        psi_matrix(5 + 5j, 13)


def test_psi_out_of_exponent_range():
    # |Re zeta^2| / 2 = 800 at 40i: exp(zeta^2 / 2) has no double value
    with pytest.raises(PrecisionLimitError):
        psi_matrix(40j, 1)
    assert abs(psi_matrix(37j, 1).det - 1.0) < 1e-8
    # 171! has no double value, so neither has the normalization
    with pytest.raises(PrecisionLimitError, match="normalization"):
        psi_matrix(2j, 171)
    # inside the exponent range, the monic H_10 times exp(-zeta^2/2) still overflows
    with pytest.raises(PrecisionLimitError, match="entry"), np.errstate(over="ignore"):
        psi_matrix(37j, 10)


def test_psi_entry_11_odd():
    m = psi_matrix(1e-8j, 1).entries
    assert abs(m[0, 0]) < 1e-7


@pytest.mark.parametrize("k", [1, 2, 3])
def test_psi_asymptotic_coefficients(k):
    z = 20j
    m = psi_matrix(z, k).entries
    c12 = z * (m[0, 1] * np.exp(-z * z / 2.0) * z**k)
    c21 = z * (m[1, 0] * np.exp(z * z / 2.0) * z ** (-k))
    t12 = 1j * math.factorial(k) / (2 ** (k + 1) * np.sqrt(np.pi))
    t21 = -1j * 2**k * np.sqrt(np.pi) / math.factorial(k - 1)
    assert abs(c12 - t12) / abs(t12) < 0.02
    assert abs(c21 - t21) / abs(t21) < 0.02


@pytest.mark.parametrize("k", [1, 2])
def test_psi_jump_relation(k):
    x = 0.7
    jump = np.array([[1.0, 1.0], [0.0, 1.0]])
    residuals = []
    for eps in (1e-3, 1e-4):
        plus = psi_matrix(x + 1j * eps, k).entries
        minus = psi_matrix(x - 1j * eps, k).entries
        residuals.append(np.abs(np.linalg.solve(minus, plus) - jump).max())
    assert residuals[0] < 1e-2
    assert residuals[1] < residuals[0]  # refinement shrinks the defect


def test_psi_rejects_k_zero():
    with pytest.raises(InvalidParameterError):
        psi_matrix(2j, 0)


def test_psi_rejects_real_zeta():
    with pytest.raises(OffAxisRequiredError):
        psi_matrix(1.0, 1)
    with pytest.raises(InvalidParameterError, match="finite"):
        psi_matrix(complex(math.nan, 1.0), 1)


def test_kernel_grid_rejects_negative_k():
    # the same message as the summed form, naming the k the caller gave
    with pytest.raises(InvalidParameterError, match=r"^k must be nonnegative, got -1$"):
        gue_kernel_grid(-1, np.array([0.0, 0.5]))
    with pytest.raises(InvalidParameterError, match=r"^k must be nonnegative, got -1$"):
        gue_kernel_sum(-1, 0.0, 0.5)
