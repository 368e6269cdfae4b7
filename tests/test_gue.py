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


def test_cauchy_route_consistency():
    # quadrature route and far-field series agree where both are valid
    from rmtlab.gue import _cauchy_quadrature

    for k in (0, 1, 3):
        z = 31j
        series = hermite_cauchy(k, z)
        direct = _cauchy_quadrature(k, z)
        assert abs(series - direct) < 1e-9


def test_cauchy_route_consistency_at_switch():
    # just beyond the far-field radius the series and the quadrature agree
    from rmtlab.gue import _cauchy_quadrature

    for angle in (0.05, 0.8, np.pi / 2, 2.5, -1.2):
        z = 10.5 * np.exp(1j * angle)
        for k in range(6):
            series = hermite_cauchy(k, z)
            direct = _cauchy_quadrature(k, z)
            assert abs(series - direct) <= 1e-9 * abs(direct)


def test_cauchy_requires_off_axis():
    with pytest.raises(OffAxisRequiredError):
        hermite_cauchy(1, 2.0)


def test_psi_unimodular():
    samples = [2j, -1.5j, 1 + 1j, -2 + 0.5j, 0.3 + 0.2j, 3 - 1j, 0.05j, 5 + 5j, -4 - 2j, 0.7 + 3j]
    samples += [20j, 25j, 29j, 3 + 22j]  # beyond the far-field switch
    for k in (1, 2, 3, 4):
        for z in samples:
            assert abs(psi_matrix(z, k).det - 1.0) < 1e-8


def test_psi_out_of_exponent_range():
    # |Re zeta^2| / 2 = 800 at 40i: exp(zeta^2 / 2) has no double value
    with pytest.raises(PrecisionLimitError):
        psi_matrix(40j, 1)
    assert abs(psi_matrix(37j, 1).det - 1.0) < 1e-8


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
