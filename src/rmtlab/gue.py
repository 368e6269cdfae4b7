"""Finite-size GUE reference kernels and the local 2x2 model matrix.

Hermite polynomials here are orthonormal for the weight exp(-x^2), with
leading coefficient 2^{k/2} / (pi^{1/4} sqrt(k!)), evaluated through the
orthonormal recurrence (stable far past the degrees used here).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import InvalidParameterError, OffAxisRequiredError, PrecisionLimitError

_DIAG_SWITCH = 1e-8


def hermite(k: int, x):
    """Orthonormal Hermite value H_k(x); H_{-1} is zero by convention.

    Works for real or complex scalars and arrays via
    x H_k = sqrt((k+1)/2) H_{k+1} + sqrt(k/2) H_{k-1}.
    """
    if k < -1:
        raise InvalidParameterError(f"k must be >= -1, got {k}")
    x = np.asarray(x)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    if k == -1:
        out = np.zeros_like(x)
    else:
        prev = np.zeros_like(x)
        cur = np.full_like(x, np.pi**-0.25)
        for j in range(k):
            prev, cur = cur, (x * cur - np.sqrt(j / 2.0) * prev) / np.sqrt((j + 1) / 2.0)
        out = cur
    return out[0] if scalar else out


def gue_kernel(k: int, u: float, v: float) -> float:
    """Correlation kernel of the k x k GUE; k = 0 is identically zero.

    sqrt(k/2) e^{-(u^2+v^2)/2} (H_k(u)H_{k-1}(v) - H_k(v)H_{k-1}(u)) / (u - v),
    switching to the summed form near the diagonal.
    """
    if k < 0:
        raise InvalidParameterError(f"k must be nonnegative, got {k}")
    if k == 0:
        return 0.0
    if abs(u - v) < _DIAG_SWITCH:
        return gue_kernel_sum(k, u, v)
    num = hermite(k, u) * hermite(k - 1, v) - hermite(k, v) * hermite(k - 1, u)
    return float(np.sqrt(k / 2.0) * np.exp(-(u * u + v * v) / 2.0) * num / (u - v))


def gue_kernel_sum(k: int, u: float, v: float) -> float:
    """Summed form e^{-(u^2+v^2)/2} sum_{j<k} H_j(u) H_j(v); empty sum for k = 0."""
    if k < 0:
        raise InvalidParameterError(f"k must be nonnegative, got {k}")
    acc = sum(hermite(j, u) * hermite(j, v) for j in range(k))
    return float(np.exp(-(u * u + v * v) / 2.0) * acc)


def gue_kernel_grid(k: int, grid: np.ndarray) -> np.ndarray:
    """Kernel matrix on a 1-d grid, diagonal filled with the summed form."""
    grid = np.asarray(grid, dtype=float)
    if k == 0:
        return np.zeros((len(grid), len(grid)))
    hk = hermite(k, grid)
    hk1 = hermite(k - 1, grid)
    outer = np.outer(hk, hk1)
    du = np.subtract.outer(grid, grid)
    with np.errstate(divide="ignore", invalid="ignore"):
        kk = np.sqrt(k / 2.0) * (outer - outer.T) / du
    diag = sum(hermite(j, grid) ** 2 for j in range(k))
    np.fill_diagonal(kk, diag)
    gauss = np.exp(-0.5 * np.add.outer(grid * grid, grid * grid))
    return kk * gauss


_FAR_FIELD_RADIUS = 10.0
_EXP_MAX = float(np.log(np.finfo(float).max))
_GL = leggauss(40)


def _cauchy_quadrature(k: int, zeta: complex) -> complex:
    """Composite panels over [-T, T], refined geometrically around Re zeta."""
    T = 12.0 + abs(zeta) / 2.0
    x0 = float(np.clip(zeta.real, -T, T))
    w0 = max(abs(zeta.imag), 1e-2)
    cuts = {-T, T}
    span = w0
    while span < 2 * T:
        for s in (-span, span):
            c = x0 + s
            if -T < c < T:
                cuts.add(c)
        span *= 2
    cuts.add(x0)
    edges = np.array(sorted(cuts))
    xs, ws = _GL
    total = 0.0 + 0.0j
    for lo, hi in zip(edges[:-1], edges[1:]):
        u = 0.5 * (lo + hi) + 0.5 * (hi - lo) * xs
        f = hermite(k, u) * np.exp(-u * u) / (u - zeta)
        total += 0.5 * (hi - lo) * np.sum(ws * f)
    return complex(total)


def _hermite_gaussian_moments(k: int, m_max: int) -> np.ndarray:
    """mu_m = int u^m H_k(u) e^{-u^2} du for m = 0..m_max, by recursion."""
    width = k + m_max + 2
    prev = np.zeros(width + 2)
    prev[0] = np.pi**0.25
    out = np.zeros(m_max + 1)
    out[0] = prev[k]
    for m in range(1, m_max + 1):
        cur = np.zeros(width + 2)
        j = np.arange(width)
        cur[:width] = np.sqrt((j + 1) / 2.0) * prev[1 : width + 1]
        cur[1:width] += np.sqrt(j[1:] / 2.0) * prev[: width - 1]
        prev = cur
        out[m] = cur[k]
    return out


def hermite_cauchy(k: int, zeta: complex) -> complex:
    """int H_k(u) e^{-u^2} / (u - zeta) du for zeta off the real axis."""
    zeta = complex(zeta)
    if zeta.imag == 0.0:
        raise OffAxisRequiredError("the transform needs Im(zeta) != 0")
    if abs(zeta) > _FAR_FIELD_RADIUS:
        mu = _hermite_gaussian_moments(k, k + 24)
        powers = zeta ** -(np.arange(len(mu)) + 1.0)
        return complex(-(mu @ powers))
    return _cauchy_quadrature(k, zeta)


@dataclass(frozen=True)
class PsiMatrix:
    """2x2 local model matrix; unimodular by construction."""

    entries: np.ndarray

    @property
    def det(self) -> complex:
        e = self.entries
        return complex(e[0, 0] * e[1, 1] - e[0, 1] * e[1, 0])


def psi_matrix(zeta: complex, k: int) -> PsiMatrix:
    """Model matrix built from degree k and k-1 Hermite data.

    Row one holds the monic H_k and its scaled Cauchy transform, row two
    the weighted H_{k-1} pair; the columns carry exp(-zeta^2/2) and
    exp(+zeta^2/2) respectively. Where |Re zeta^2| / 2 exceeds the double
    exponent range (about 709.78) one of them overflows, and the matrix
    raises PrecisionLimitError.
    """
    if k < 1:
        raise InvalidParameterError(f"k must be a positive integer, got {k}")
    zeta = complex(zeta)
    if zeta.imag == 0.0:
        raise OffAxisRequiredError("the model matrix needs Im(zeta) != 0")
    if abs((zeta * zeta).real) / 2.0 > _EXP_MAX:
        raise PrecisionLimitError(
            f"exp(+-zeta^2/2) leaves the double range at zeta = {zeta}"
        )
    inv_kappa_k = np.pi**0.25 * np.sqrt(factorial(k)) / 2 ** (k / 2.0)
    kappa_km1 = 2 ** ((k - 1) / 2.0) / (np.pi**0.25 * np.sqrt(factorial(k - 1)))
    e_minus = np.exp(-zeta * zeta / 2.0)
    e_plus = np.exp(zeta * zeta / 2.0)
    entries = np.array(
        [
            [
                inv_kappa_k * hermite(k, zeta) * e_minus,
                inv_kappa_k / (2j * np.pi) * hermite_cauchy(k, zeta) * e_plus,
            ],
            [
                -2j * np.pi * kappa_km1 * hermite(k - 1, zeta) * e_minus,
                -kappa_km1 * hermite_cauchy(k - 1, zeta) * e_plus,
            ],
        ],
        dtype=complex,
    )
    return PsiMatrix(entries=entries)
