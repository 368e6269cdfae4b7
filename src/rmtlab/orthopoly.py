"""Orthonormal polynomials for exp(-n V_t) and the Christoffel-Darboux kernel.

Recurrence coefficients come from the discretized Stieltjes procedure
(Gautschi 1982) on a composite Gauss-Legendre rule (moment determinants are
hopelessly conditioned for these weights). It costs O(M N) time and O(M)
memory for M nodes and degree N, and carries every node's values with a log
scale of its own, so the weight may span far more than the double range
across the window: no cap on n is needed. The window comes from the
effective potential of the unit equilibrium measure, so it holds the
gap-closing point x* at every n. The weight is rescaled by exp(+n min V_t)
internally; the rescaling cancels in every kernel value.

Weighted polynomial values psi_k = p_k exp(-n V_t / 2) are generated by the
three-term recurrence seeded with the weighted p_0, carrying a running
log-magnitude so intermediate values neither overflow nor are lost to
underflow while they still matter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from io import StringIO

import numpy as np
from numpy.polynomial import polynomial as npoly
from numpy.polynomial.legendre import leggauss

from . import critical, equilibrium
from .errors import (
    InvalidParameterError,
    NumericalBreakdownError,
    PrecisionLimitError,
)
from .potential import Potential

_LEVEL = 745.0 + 60.0  # double underflow at exp(-745), plus a margin
_SAMPLES = 4001
_MAX_DOUBLINGS = 60
_PANELS = 32
_MIN_NODES = 2000
_NODES_PER_DEGREE = 12
_RENORM = 1e100
_EDGE_TOL = 1e-30
_WIDENINGS = 4
_DIAG_SWITCH = 1e-8


@dataclass(frozen=True)
class QuadratureRule:
    lo: float
    hi: float
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    vt_min: float


@dataclass(frozen=True)
class WeightedValue:
    """sign * exp(log_mag); sign 0 forces the -inf sentinel."""

    log_mag: float
    sign: int

    @property
    def value(self) -> float:
        if self.sign == 0:
            return 0.0
        return self.sign * float(np.exp(self.log_mag))


@dataclass(frozen=True)
class RecurrenceTable:
    """Three-term recurrence data: x p_j = sqrt(b_{j+1}) p_{j+1} + a_j p_j + sqrt(b_j) p_{j-1}.

    alpha[j] for j = 0..N; beta[j] for j = 1..N (squared off-diagonals,
    beta[0] is a zero sentinel). log_gamma0 is the log of the weighted
    normalization of the constant polynomial.
    """

    potential: Potential
    n: int
    t: float
    N: int
    alpha: np.ndarray = field(repr=False)
    beta: np.ndarray = field(repr=False)
    log_gamma0: float
    rule: QuadratureRule = field(repr=False)

    def vt_coeffs(self) -> np.ndarray:
        return np.asarray(self.potential.coeffs) / self.t

    def log_weight_half(self, x):
        """log of exp(-n (V_t - min V_t) / 2) at x."""
        return -0.5 * self.n * (
            npoly.polyval(x, self.vt_coeffs()) - self.rule.vt_min
        )


def quadrature_support(
    potential: Potential,
    n: int,
    t: float,
    total_nodes: int | None = None,
    level: float = _LEVEL,
) -> QuadratureRule:
    """Composite Gauss-Legendre rule on the window where the weighted
    polynomials of degree up to about n are above double underflow.

    The window is the sublevel set n (V_t - 2 U_1 + ell_1) <= level (805
    by default) of the effective potential of the t = 1 unit equilibrium
    measure, with U_1 its log potential and ell_1 = 2 U_1 - V its Lagrange
    constant. At t = 1 this excess vanishes on the band and at a
    gap-closing point and is positive elsewhere; |p_k|^2 exp(-n V_t) for k
    near n decays like exp(-excess), so the window holds x* at every n.
    The excess is sampled on a bracket that doubles outward from the band
    until both ends exceed the level, and the window runs between the
    outermost samples below it, so a barrier between the band and x*
    cannot split it. The level is raised by the smallest excess when that
    is positive: a constant added to V then moves no window at t != 1.
    The window is expanded by five percent of its width on each side.

    The rule has max(2000, 12 n) nodes unless total_nodes is given. Raises
    the typed error of the unit solve when V has no one-cut regular unit
    measure.
    """
    if n < 1:
        raise InvalidParameterError(f"n must be positive, got {n}")
    vt = np.asarray(potential.coeffs) / t
    dvt = npoly.polyder(vt)
    crit = np.roots(dvt[::-1])
    crit = crit[np.abs(crit.imag) < 1e-9].real
    vt_min = float(np.min(npoly.polyval(crit, vt)))
    eq = critical.unit_equilibrium(potential)
    reach = eq.radius
    for _ in range(_MAX_DOUBLINGS):
        reach *= 2.0
        x = np.linspace(eq.midpoint - reach, eq.midpoint + reach, _SAMPLES)
        excess = n * (
            npoly.polyval(x, vt) - 2.0 * equilibrium.log_potential(eq, x) + eq.ell
        )
        top = level + max(float(excess.min()), 0.0)
        if excess[0] > top and excess[-1] > top:
            break
    else:
        raise NumericalBreakdownError("effective potential never leaves the window level")
    inside = np.flatnonzero(excess <= top)
    step = x[1] - x[0]
    lo, hi = x[inside[0]] - step, x[inside[-1]] + step
    pad = 0.05 * (hi - lo)
    lo, hi = lo - pad, hi + pad
    total = total_nodes if total_nodes else max(_MIN_NODES, _NODES_PER_DEGREE * n)
    per_panel = int(np.ceil(total / _PANELS))
    xs, ws = leggauss(per_panel)
    edges = np.linspace(lo, hi, _PANELS + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mids[:, None] + half[:, None] * xs[None, :]).ravel()
    weights = (half[:, None] * ws[None, :]).ravel()
    return QuadratureRule(lo=lo, hi=hi, nodes=nodes, weights=weights, vt_min=vt_min)


def build_recurrence(
    potential: Potential,
    n: int,
    t: float,
    N: int,
    total_nodes: int | None = None,
) -> RecurrenceTable:
    """Recurrence coefficients for degrees 0..N of the weight exp(-n V_t).

    Discretized Stieltjes procedure (Gautschi 1982) on the rule of
    quadrature_support, in O(M N) time and O(M) memory for M nodes. If
    p_N or p_{N-1} still carries weight at an end of the window (t far
    from 1, where the t = 1 effective potential misjudges the window), the
    window level doubles and the build repeats. Raises the unit solve's
    typed error when V has no one-cut regular unit measure.
    """
    if N > 1.2 * n + 10:
        raise InvalidParameterError(f"N = {N} too large for n = {n}")
    vt = np.asarray(potential.coeffs) / t
    level = _LEVEL
    for _ in range(_WIDENINGS):
        rule = quadrature_support(potential, n, t, total_nodes, level=level)
        log_half = -0.5 * n * (npoly.polyval(rule.nodes, vt) - rule.vt_min)
        alpha, beta, log_gamma0, edge = _stieltjes(rule, log_half, N)
        if edge <= _EDGE_TOL:
            return RecurrenceTable(
                potential=potential,
                n=n,
                t=t,
                N=N,
                alpha=alpha,
                beta=beta,
                log_gamma0=log_gamma0,
                rule=rule,
            )
        level *= 2.0
    raise PrecisionLimitError(
        f"degree-{N} polynomials still carry weight {edge:.1e} at the window ends"
    )


def _stieltjes(rule: QuadratureRule, log_half: np.ndarray, N: int):
    """alpha_0..N, beta_0..N, log_gamma0, and the larger share of the norms
    of p_N and p_{N-1} held by the two outermost nodes.

    Each node carries p_{j-1} and p_j times exp(log_half) as mantissas
    times exp(S_i), starting from S_i = log_half_i + log_gamma0.
    alpha_j and beta_{j+1} are dot products with g_i exp(2 S_i), g_i the
    quadrature weights. A term that underflows there is negligible, and it
    regrows as the degree rises, because a mantissa above 1e100 is folded
    into its S_i.
    """
    x = rule.nodes
    log_g = np.log(rule.weights)
    log_w = log_g + 2.0 * log_half
    peak = float(log_w.max())
    log_mass = peak + float(np.log(np.sum(np.exp(log_w - peak))))
    if not np.isfinite(log_mass):
        raise NumericalBreakdownError("discretized weight has no usable mass")
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
        if not np.isfinite(b) or b <= 1e-28:
            raise NumericalBreakdownError(
                f"off-diagonal collapsed at degree {j + 1}; "
                "increase quadrature nodes or reduce n"
            )
        beta[j + 1] = b
        xc /= np.sqrt(b)
        prev, cur = cur, xc
        big = np.flatnonzero(np.abs(cur) > _RENORM)
        if big.size:
            mag = np.abs(cur[big])
            cur[big] /= mag
            prev[big] /= mag
            S[big] += np.log(mag)
            E[big] = np.exp(2.0 * S[big] + log_g[big])
    ends = [0, -1]
    edge = float(np.max(E[ends] * np.maximum(cur[ends] ** 2, prev[ends] ** 2)))
    return alpha, beta, log_gamma0, edge


def _step(alpha, sb, j: int, x: float, prev: float, cur: float, L: float):
    """One recurrence step of the weighted pair (prev, cur) * exp(L) at x,
    renormalized up or down so the mantissas stay inside double range."""
    nxt = ((x - alpha[j]) * cur - (sb[j] * prev if j > 0 else 0.0)) / sb[j + 1]
    prev, cur = cur, nxt
    mag = max(abs(prev), abs(cur))
    if mag > 1e100 or (0.0 < mag < 1e-100):
        L += np.log(mag)
        prev /= mag
        cur /= mag
    return prev, cur, L


def _sweep_scalar(table: RecurrenceTable, k: int, x: float):
    """Return (psi_{k-1}, psi_k) as (mantissa pair, shared log scale)."""
    sb = np.sqrt(table.beta)
    L = table.log_gamma0 + float(table.log_weight_half(x))
    prev, cur = 0.0, 1.0
    for j in range(k):
        prev, cur, L = _step(table.alpha, sb, j, x, prev, cur, L)
    return prev, cur, L


def eval_weighted(table: RecurrenceTable, k: int, x: float) -> WeightedValue:
    """psi_k(x) = p_k(x) exp(-n V_t(x)/2) in overflow-safe form."""
    if k > table.N:
        raise InvalidParameterError(f"k = {k} exceeds table size N = {table.N}")
    _, cur, L = _sweep_scalar(table, k, x)
    if cur == 0.0:
        return WeightedValue(log_mag=-np.inf, sign=0)
    return WeightedValue(log_mag=L + np.log(abs(cur)), sign=1 if cur > 0 else -1)


def kernel(table: RecurrenceTable, x: float, y: float) -> float:
    """Rank-n projection kernel K_n(x, y), symmetric and continuous across x = y."""
    n = table.n
    if table.N < n:
        raise InvalidParameterError("table must hold degrees through n")
    if abs(x - y) < _DIAG_SWITCH * (1.0 + abs(x)):
        return _kernel_confluent(table, x, y)
    px1, px, Lx = _sweep_scalar(table, n, x)
    py1, py, Ly = _sweep_scalar(table, n, y)
    num = px * py1 - py * px1
    if num == 0.0:
        return 0.0
    mag = np.exp(Lx + Ly + np.log(abs(num)))
    return float(np.sqrt(table.beta[n]) * np.sign(num) * mag / (x - y))


def _kernel_confluent(table: RecurrenceTable, x: float, y: float) -> float:
    """Sum form over degrees below n, stable at and near the diagonal.

    x and y carry log scales of their own: far apart, their weights differ
    by more than the double range.
    """
    sb = np.sqrt(table.beta)
    Lx = table.log_gamma0 + float(table.log_weight_half(x))
    Ly = table.log_gamma0 + float(table.log_weight_half(y))
    ppx, pcx = 0.0, 1.0
    ppy, pcy = 0.0, 1.0
    acc = 0.0
    for j in range(table.n):
        acc += pcx * pcy * np.exp(Lx + Ly)
        ppx, pcx, Lx = _step(table.alpha, sb, j, x, ppx, pcx, Lx)
        ppy, pcy, Ly = _step(table.alpha, sb, j, y, ppy, pcy, Ly)
    return float(acc)


def _weighted_values(table: RecurrenceTable, pts: np.ndarray, upto: int):
    """Yield psi_0..psi_upto at real points, one degree at a time, in
    absolute scale.

    Each point carries a running log scale, folded in when a mantissa
    passes 1e80. In the window's far tails a low-degree value can underflow
    to zero; it is then below double resolution next to the values of
    higher degree, which regrow from the mantissa.
    """
    sb = np.sqrt(table.beta)
    L = table.log_gamma0 + table.log_weight_half(pts)
    prev = np.zeros_like(pts)
    cur = np.ones_like(pts)
    for j in range(upto + 1):
        yield cur * np.exp(L)
        if j == upto:
            return
        nxt = ((pts - table.alpha[j]) * cur - (sb[j] * prev if j > 0 else 0.0)) / sb[j + 1]
        prev, cur = cur, nxt
        mask = np.abs(cur) > 1e80
        if mask.any():
            f = np.where(mask, np.abs(cur), 1.0)
            L += np.log(f)
            prev /= f
            cur /= f


def weighted_sweep(table: RecurrenceTable, pts: np.ndarray):
    """Vectorized psi values at real points inside the quadrature window.

    Returns (psi_{n-1}, psi_n, diag) in absolute scale, where diag is the
    kernel diagonal sum over degrees below n. Values below double
    resolution, as in the window's far tails, come out as zero.
    """
    pts = np.asarray(pts, dtype=float)
    diag = np.zeros_like(pts)
    last = np.zeros_like(pts)
    for j, psi in enumerate(_weighted_values(table, pts, table.n)):
        if j == table.n:
            return last, psi, diag
        diag += psi * psi
        last = psi


def kernel_matrix(table: RecurrenceTable, pts: np.ndarray) -> np.ndarray:
    """Kernel on a point grid; Christoffel-Darboux off the diagonal, sum on it."""
    psi1, psi0, diag = weighted_sweep(table, pts)
    outer = np.outer(psi0, psi1)
    dx = np.subtract.outer(pts, pts)
    with np.errstate(divide="ignore", invalid="ignore"):
        K = np.sqrt(table.beta[table.n]) * (outer - outer.T) / dx
    np.fill_diagonal(K, diag)
    return K


def kernel_diagonal(table: RecurrenceTable, pts: np.ndarray) -> np.ndarray:
    return weighted_sweep(table, pts)[2]


def gram_residual(table: RecurrenceTable, upto: int) -> float:
    """Max deviation from identity of the Gram matrix of p_0..p_upto.

    Holds the (upto + 1) x M weighted values on the table's nodes.
    """
    vals = np.array(list(_weighted_values(table, table.rule.nodes, upto)))
    gram = (vals * table.rule.weights) @ vals.T
    return float(np.abs(gram - np.eye(upto + 1)).max())


def dump_recurrence_csv(table: RecurrenceTable) -> str:
    """CSV of the coefficients, beta_0 written as zero by convention."""
    out = StringIO()
    out.write("j,alpha,beta\n")
    for j in range(table.N + 1):
        out.write(f"{j},{table.alpha[j]:.17g},{table.beta[j]:.17g}\n")
    return out.getvalue()
