"""Finite-size GUE reference kernels and the local 2x2 model matrix.

Hermite polynomials here are orthonormal for the weight exp(-x^2), with
leading coefficient 2^{k/2} / (pi^{1/4} sqrt(k!)), evaluated through the
orthonormal recurrence (stable far past the degrees used here); one run gives
a grid kernel or psi_matrix's H_{k-1}, H_k at zeta. Each model matrix takes
both Cauchy transforms, of H_{k-1} and H_k, from one call of one engine: one
Hermite pass over the quadrature nodes near the axis, one closed-form moment
series beyond |zeta| = 10. Each route bounds its own error and raises rather
than return a transform with fewer digits than _CAUCHY_TOL asks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from math import factorial

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import InvalidParameterError, OffAxisRequiredError, PrecisionLimitError
from .orthopoly import _DIAG_SWITCH, near_pairs


def _hermite_values(x: np.ndarray, count: int):
    """Yield (H_{j-1}(x), H_j(x)) for j = 0..count-1 from one pass of the recurrence."""
    prev = np.zeros_like(x)
    cur = np.full_like(x, np.pi**-0.25)
    for j in range(count):
        if j:
            prev, cur = cur, (x * cur - np.sqrt((j - 1) / 2.0) * prev) / np.sqrt(j / 2.0)
        yield prev, cur


def hermite(k: int, x):
    """Orthonormal Hermite value H_k(x); H_{-1} is zero by convention.

    Works for real or complex scalars and arrays via
    x H_k = sqrt((k+1)/2) H_{k+1} + sqrt(k/2) H_{k-1}.
    """
    if k < -1:
        raise InvalidParameterError(f"k must be >= -1, got {k}")
    x = np.asarray(x)
    scalar = x.ndim == 0
    x = np.atleast_1d(x).astype(np.result_type(x, 1.0), copy=False)
    out = np.zeros_like(x)
    for _, out in _hermite_values(x, k + 1):
        pass
    return out[0] if scalar else out


def gue_kernel(k: int, u: float, v: float) -> float:
    """Correlation kernel of the k x k GUE; k = 0 is identically zero.

    sqrt(k/2) e^{-(u^2+v^2)/2} (H_k(u)H_{k-1}(v) - H_k(v)H_{k-1}(u)) / (u - v),
    with the summed form at pairs that orthopoly.near_pairs counts as close.
    """
    if k < 0:
        raise InvalidParameterError(f"k must be nonnegative, got {k}")
    if k == 0:
        return 0.0
    if abs(u - v) < _DIAG_SWITCH * (1.0 + max(abs(u), abs(v))):
        return gue_kernel_sum(k, u, v)
    num = hermite(k, u) * hermite(k - 1, v) - hermite(k, v) * hermite(k - 1, u)
    return float(np.sqrt(k / 2.0) * np.exp(-(u * u + v * v) / 2.0) * num / (u - v))


def gue_kernel_sum(k: int, u: float, v: float) -> float:
    """Summed form e^{-(u^2+v^2)/2} sum_{j<k} H_j(u) H_j(v); empty sum for k = 0."""
    if k < 0:
        raise InvalidParameterError(f"k must be nonnegative, got {k}")
    acc = sum(h[0] * h[1] for _, h in _hermite_values(np.array([u, v], dtype=float), k))
    return float(np.exp(-(u * u + v * v) / 2.0) * acc)


def gue_kernel_grid(k: int, grid: np.ndarray) -> np.ndarray:
    """Kernel matrix on a 1-d grid: Christoffel-Darboux off the diagonal, the
    summed form on it, and orthopoly.near_pairs's rule with gue_kernel_sum."""
    if k < 0:
        raise InvalidParameterError(f"k must be nonnegative, got {k}")
    grid = np.asarray(grid, dtype=float)
    if k == 0:
        return np.zeros((len(grid), len(grid)))
    diag = 0  # H_{-1}^2 + ... + H_{k-1}^2, added in order
    for hk1, hk in _hermite_values(grid, k + 1):
        diag = diag + hk1**2
    outer = np.outer(hk, hk1)
    du = np.subtract.outer(grid, grid)
    with np.errstate(divide="ignore", invalid="ignore"):
        kk = np.sqrt(k / 2.0) * (outer - outer.T) / du
    np.fill_diagonal(kk, diag)
    K = kk * np.exp(-0.5 * np.add.outer(grid * grid, grid * grid))
    return near_pairs(K, grid, partial(gue_kernel_sum, k))


_FAR_FIELD_RADIUS = 10.0
_CAUCHY_TOL = 1e-8  # largest estimated relative error a Cauchy transform may carry
_EXP_MAX = float(np.log(np.finfo(float).max))
_GL = leggauss(40)


def _inv_kappa(k: int) -> float:
    """1 / kappa_k = pi^{1/4} sqrt(k!) / 2^{k/2}, the monic H_k over the orthonormal one."""
    try:
        return np.pi**0.25 * np.sqrt(float(factorial(k))) / 2 ** (k / 2.0)
    except OverflowError:
        raise PrecisionLimitError(f"the degree-{k} normalization leaves the double range") from None


def _cauchy_quadrature(k: int, zeta: complex) -> tuple[np.ndarray, np.ndarray]:
    """Near route: (C_{k-1}, C_k) from one Hermite pass over composite panels on [-T, T],
    refined geometrically around Re zeta; error bounds eps sum |w f| per integrand."""
    T = 12.0 + abs(zeta) / 2.0
    x0 = float(np.clip(zeta.real, -T, T))
    span, cuts = max(abs(zeta.imag), 1e-2), {-T, T, x0}
    while span < 2 * T:
        cuts.update(c for c in (x0 - span, x0 + span) if -T < c < T)
        span *= 2
    edges = np.array(sorted(cuts))
    half = 0.5 * (edges[1:] - edges[:-1])
    xs, ws = _GL
    u = (0.5 * (edges[:-1] + edges[1:]))[:, None] + half[:, None] * xs
    *_, (h_prev, h_k) = _hermite_values(u, k + 1)
    wf = ws * (np.stack((h_prev, h_k)) * np.exp(-u * u) / (u - zeta))
    total = np.zeros(2, dtype=complex)
    for h, panels in zip(half, np.sum(wf, axis=2).T):
        total += h * panels
    return total, np.finfo(float).eps * (np.sum(np.abs(wf), axis=2) @ half)


def _cauchy_series(k: int, zeta: complex) -> tuple[np.ndarray, np.ndarray]:
    """Far route: C_j = -sum_{i<13} mu_{j+2i} zeta^{-j-2i-1} for j = k-1, k, with the
    moments mu_m = int u^m H_j e^{-u^2} du in closed form: zero for m < j or odd m - j,
    mu_j = 1/kappa_j and mu_{j+2i+2} / mu_{j+2i} = (j+2i+1)(j+2i+2) / (4(i+1)).
    Error bounds: the last terms."""
    j = np.array([[k - 1], [k]])
    i = np.arange(12)
    lead = [[-_inv_kappa(d) * zeta ** -(d + 1.0) if d >= 0 else 0.0] for d in (k - 1, k)]
    ratio = (j + 2 * i + 1) * (j + 2 * i + 2) / (4.0 * (i + 1) * zeta * zeta)
    terms = np.cumprod(np.hstack((lead, ratio)), axis=1)
    return terms.sum(axis=1), np.abs(terms[:, -1])


def _cauchy_transforms(k: int, zeta) -> np.ndarray:
    """(C_{k-1}, C_k), C_j = int H_j(u) e^{-u^2} / (u - zeta) du, C_{-1} = 0; raises
    PrecisionLimitError where an error bound exceeds _CAUCHY_TOL relative."""
    zeta = complex(zeta)
    if k < -1:
        raise InvalidParameterError(f"k must be >= -1, got {k}")
    if not np.isfinite(zeta):
        raise InvalidParameterError(f"zeta must be finite, got {zeta}")
    if zeta.imag == 0.0:
        raise OffAxisRequiredError(f"the transform needs Im(zeta) != 0, got {zeta}")
    if k == -1:
        return np.zeros(2, dtype=complex)
    route = _cauchy_series if abs(zeta) > _FAR_FIELD_RADIUS else _cauchy_quadrature
    values, bounds = route(k, zeta)
    lost = [j for j, v, b in zip((k - 1, k), values, bounds) if b > _CAUCHY_TOL * abs(v)]
    if lost:
        raise PrecisionLimitError(
            f"the degree-{lost[-1]} Cauchy transform at zeta = {zeta} is not accurate "
            f"to {_CAUCHY_TOL:g}"
        )
    return values


def hermite_cauchy(k: int, zeta: complex) -> complex:
    """int H_k(u) e^{-u^2} / (u - zeta) du for zeta off the real axis."""
    return complex(_cauchy_transforms(k, zeta)[1])


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
    exponent range (about 709.78) one of them overflows; there, from k = 171
    on, where a Cauchy transform loses its digits and wherever an entry
    overflows, the matrix raises PrecisionLimitError.
    """
    if k < 1:
        raise InvalidParameterError(f"k must be a positive integer, got {k}")
    inv_kappa_k = _inv_kappa(k)
    c_km1, c_k = _cauchy_transforms(k, zeta)
    zeta = complex(zeta)
    if abs((zeta * zeta).real) / 2.0 > _EXP_MAX:
        raise PrecisionLimitError(
            f"exp(+-zeta^2/2) leaves the double range at zeta = {zeta}"
        )
    kappa_km1 = 2 ** ((k - 1) / 2.0) / (np.pi**0.25 * np.sqrt(float(factorial(k - 1))))
    *_, (h_km1, h_k) = _hermite_values(np.array([zeta]), k + 1)
    e_minus = np.exp(-zeta * zeta / 2.0)
    e_plus = np.exp(zeta * zeta / 2.0)
    entries = np.array(
        [
            [
                inv_kappa_k * h_k[0] * e_minus,
                inv_kappa_k / (2j * np.pi) * c_k * e_plus,
            ],
            [
                -2j * np.pi * kappa_km1 * h_km1[0] * e_minus,
                -kappa_km1 * c_km1 * e_plus,
            ],
        ],
        dtype=complex,
    )
    if not np.isfinite(entries).all():
        raise PrecisionLimitError(f"an entry leaves the double range at zeta = {zeta}, k = {k}")
    return PsiMatrix(entries=entries)
