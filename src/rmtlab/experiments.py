"""Rescaled-kernel grids, GUE comparisons, interpolation fits, and sweeps."""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import critical, gue, orthopoly
from .critical import ScalingParams
from .errors import InvalidParameterError, RmtlabError
from .potential import Potential

_SINGLE_FIT_RANGE = 5  # candidate GUE sizes 0..4 for best-single selection


@dataclass(frozen=True)
class GridSpec:
    """Uniform symmetric grid u_min, u_min+step, ..., u_max."""

    u_min: float
    u_max: float
    step: float

    def __post_init__(self):
        finite = np.isfinite((self.u_min, self.u_max, self.step)).all()
        if not finite or self.step <= 0 or self.u_max <= self.u_min:
            raise InvalidParameterError(f"bad grid spec {self}")
        if not np.isfinite((self.u_max - self.u_min) / self.step):
            raise InvalidParameterError(f"grid spec {self} has too many points to count")

    def points(self) -> np.ndarray:
        count = int(round((self.u_max - self.u_min) / self.step)) + 1
        return self.u_min + self.step * np.arange(count)

    @classmethod
    def from_string(cls, text: str) -> "GridSpec":
        parts = text.split(",")
        if len(parts) != 3:
            raise InvalidParameterError(f"grid must be MIN,MAX,STEP, got {text!r}")
        return cls(float(parts[0]), float(parts[1]), float(parts[2]))


@dataclass(frozen=True)
class ComparisonReport:
    k: int
    sup_error: float
    l2_error: float


@dataclass(frozen=True)
class LambdaFit:
    """Convex-combination weights fitted between adjacent GUE sizes."""

    lambda_plus: float
    lambda_minus: float
    residual: float
    clamped: bool


@lru_cache(maxsize=16)
def recurrence_for(potential: Potential, n: int, t: float):
    """Recurrence table of V/t through degree n, cached per potential, n and t."""
    return orthopoly.build_recurrence(potential, n, t, n)


def rescaled_kernel(
    potential: Potential,
    n: int,
    s: float,
    grid: GridSpec,
) -> np.ndarray:
    """(cn)^{-1/2} K_{n,t}(x* + u (cn)^{-1/2}, x* + v (cn)^{-1/2}) on the grid,
    centred at the fixed gap-closing point x*."""
    params = critical.make_scaling(potential, n, s)
    scale = np.sqrt(params.c * n)
    pts = params.x_star + grid.points() / scale
    table = recurrence_for(potential, n, params.t)
    return orthopoly.kernel_matrix(table, pts) / scale


@lru_cache(maxsize=32)
def _gue_grid(k: int, grid: GridSpec) -> np.ndarray:
    """The size-k GUE kernel on the grid, computed once per k and grid; read-only."""
    values = gue.gue_kernel_grid(k, grid.points())
    values.flags.writeable = False
    return values


def _gue_diff(values: np.ndarray, grid: GridSpec, k: int) -> np.ndarray:
    """values minus the size-k GUE kernel on the grid, once the shapes match."""
    size = len(grid.points())
    if np.shape(values) != (size, size):
        raise InvalidParameterError("values matrix does not match the grid")
    return values - _gue_grid(k, grid)


def compare_to_gue(values: np.ndarray, grid: GridSpec, k: int) -> ComparisonReport:
    """Sup and scaled-l2 distance of a kernel grid from the size-k GUE kernel."""
    diff = _gue_diff(values, grid, k)
    return ComparisonReport(
        k=k,
        sup_error=float(np.abs(diff).max()),
        l2_error=float(grid.step * np.sqrt(np.sum(diff * diff))),
    )


def best_single_index(values: np.ndarray, grid: GridSpec) -> tuple[int, float]:
    """GUE size in 0..4 with the smallest sup distance to the given grid."""
    sups = [float(np.abs(_gue_diff(values, grid, j)).max()) for j in range(_SINGLE_FIT_RANGE)]
    j = int(np.argmin(sups))
    return j, sups[j]


def lambda_fit(values: np.ndarray, grid: GridSpec, k: int) -> LambdaFit:
    """Least-squares weight of K^GUE(k+1) against K^GUE(k) for the grid values.

    One-dimensional projection: values ~ (1-lambda) K_k + lambda K_{k+1};
    the weight is clamped to [0, 1] and the clamping is reported.
    """
    if k < 0:
        raise InvalidParameterError(f"k must be nonnegative, got {k}")
    offset = _gue_diff(values, grid, k)
    direction = _gue_grid(k + 1, grid) - _gue_grid(k, grid)
    denom = float(np.sum(direction * direction))
    lam = float(np.sum(offset * direction) / denom) if denom > 0 else 0.0
    clamped = not 0.0 <= lam <= 1.0
    lam = min(max(lam, 0.0), 1.0)
    resid = offset - lam * direction
    return LambdaFit(
        lambda_plus=lam,
        lambda_minus=1.0 - lam,
        residual=float(grid.step * np.sqrt(np.sum(resid * resid))),
        clamped=clamped,
    )


_COUNT_GL = leggauss(200)


def count_delta(params: ScalingParams) -> float:
    """Default half-width of the count window: a quarter of the gap between
    the unit band's edge b and x*."""
    return (params.x_star - critical.unit_equilibrium(params.potential).b) / 4.0


def expected_count(
    potential: Potential,
    n: int,
    s: float,
    delta: float | None = None,
) -> float:
    """Integral of the kernel diagonal over [x*-delta, x*+delta].

    Counts the eigenvalues sitting in the nucleating band; the default
    window is count_delta's.
    """
    if delta is not None and not np.isfinite(delta):
        raise InvalidParameterError(f"delta must be finite, got {delta}")
    params = critical.make_scaling(potential, n, s)
    eq = critical.unit_equilibrium(potential)
    if delta is None:
        delta = count_delta(params)
    if delta <= 0 or params.x_star - delta <= eq.b:
        raise InvalidParameterError(
            f"window half-width {delta} overlaps the band [a, b]"
        )
    table = recurrence_for(potential, n, params.t)
    xs, ws = _COUNT_GL
    x = params.x_star + delta * xs
    diag = orthopoly.kernel_diagonal(table, x)
    return float(delta * np.sum(ws * diag))


@dataclass(frozen=True)
class SweepRow:
    n: int
    s: float
    k: int
    delta: float
    sup_error: float
    l2_error: float
    lambda_plus: float
    expected_count: float
    decay_exponent: float


def convergence_sweep(
    potential: Potential, n_list, s_list, grid: GridSpec
) -> list[SweepRow]:
    """One row per (n, s): best-single-kernel errors, interpolation weight,
    eigenvalue count, and a per-s log-log decay exponent of the sup error.

    Rows whose computation fails carry NaNs; the sweep continues. Raises
    InvalidParameterError when an n or an s repeats: a repeated row adds
    nothing, and a decay exponent fitted over one distinct n means nothing.
    """
    n_list, s_list = list(n_list), list(s_list)
    for name, values in (("n", n_list), ("s", s_list)):
        for i, v in enumerate(values):
            if any(u == v for u in values[:i]):
                raise InvalidParameterError(f"{name} values must not repeat, got {v!r} twice")
    rows: list[SweepRow] = []
    for s in s_list:
        partial = []
        for n in n_list:
            try:
                params = critical.make_scaling(potential, n, s)
                values = rescaled_kernel(potential, n, s, grid)
                j, sup = best_single_index(values, grid)
                row = SweepRow(
                    n=n,
                    s=float(s),
                    k=params.k,
                    delta=params.delta,
                    sup_error=sup,
                    l2_error=compare_to_gue(values, grid, j).l2_error,
                    lambda_plus=lambda_fit(values, grid, params.k).lambda_plus,
                    expected_count=expected_count(potential, n, s),
                    decay_exponent=float("nan"),
                )
            except RmtlabError:
                row = SweepRow(n, float(s), -1, *[float("nan")] * 6)
            partial.append(row)
        good = [r for r in partial if np.isfinite(r.sup_error)]
        if len(good) >= 2:
            logn = np.log([r.n for r in good])
            loge = np.log([r.sup_error for r in good])
            slope = float(np.polyfit(logn, loge, 1)[0])
        else:
            slope = float("nan")
        rows += [replace(r, decay_exponent=slope) for r in partial]
    return rows


def pipeline_report(
    potential: Potential, n: int, s: float, grid: GridSpec
) -> tuple[ScalingParams, ComparisonReport]:
    """Rescaled kernel compared against the GUE size chosen by the k-rule."""
    params = critical.make_scaling(potential, n, s)
    values = rescaled_kernel(potential, n, s, grid)
    return params, compare_to_gue(values, grid, params.k)
