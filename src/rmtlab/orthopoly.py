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

The rule has panels of 63 Gauss-Legendre nodes, uniform or laid by the
unit equilibrium density: quadrature_support states the layout policy.
Too few nodes give a wrong table without any other sign, so every table
is checked against the Freud string equations (Freud 1976), which hold
exactly and need no quadrature: string_residual. build_recurrence rebuilds
a table that fails them on a finer rule.

Every weighted polynomial value psi_k = p_k exp(-n V_t / 2) this module
evaluates comes from one vectorized sweep, _recur: the three-term recurrence
seeded with the weighted p_0, carrying a log scale per point so intermediate
values neither overflow nor are lost to underflow while they still matter.
It yields blocks of consecutive degrees that share one log scale per point,
each in a fresh buffer of at most _BLOCK values, and spends three numpy
calls per degree. weighted_sweep (behind kernel_matrix, kernel_diagonal and
scalar kernel) runs it on a grid, the confluent sum on two points,
gram_residual on the nodes; each reads a block at a time. The Stieltjes
build keeps a loop of its own, since it forms alpha and beta as it goes.
This module alone chooses the quadrature window and the node count:
quadrature_support gives the default rule, and only build_recurrence's
refinement departs from it. _recur is the one gate of every evaluation.

Both sweeps fold mantissas into the log scales by one rule, each on a
budget of its own. On the window [lo, hi], G_j = (max(|lo - alpha_j|,
|hi - alpha_j|) + sqrt(beta_j)) / sqrt(beta_{j+1}) bounds max(|p_{j+1}|,
|p_j|) / max(|p_j|, |p_{j-1}|) at every point (_growth). A fold check is due
when the product of G_j since the last check would pass the budget's growth
bound, and it folds every mantissa pair above the budget's fold level. The
Stieltjes build checks at _GROWTH = 1e20 and folds above _FOLD = 1e80, so no
mantissa passes _RENORM = 1e100. The evaluation sweep checks at _EVAL_GROWTH
= 1e120 and folds above _EVAL_FOLD = 1e20, so no mantissa passes 1e140 and a
block's sum of squares stays inside the double range; it ends a block at
every check, 24 of them at e = 3, n = 2560. One scan of the points per
check replaces a scan at every degree. The Stieltjes build also takes its
active hull at each check: the span from the first to the last node whose
weight E max(p_j^2, p_{j-1}^2) times _GROWTH^2 reaches _NEGLIGIBLE =
1e-34. No node outside it can reach that weight before the next check, so
the two dot products per degree run over the hull alone and drop less than
M 1e-34 of the unit norm of p_{j+1}; the recurrence runs on every node. A
larger growth bound would widen that hull.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np
from numpy.polynomial import polynomial as npoly
from numpy.polynomial.legendre import leggauss

from . import critical, equilibrium
from .errors import (
    InvalidParameterError,
    NoSingularPointError,
    NumericalBreakdownError,
    PrecisionLimitError,
    WrongOrderError,
)
from .potential import Potential

_LEVEL = 745.0 + 60.0  # double underflow at exp(-745), plus a margin
_SAMPLES = 4001
_MAX_DOUBLINGS = 60
_ORDER = 63  # Gauss-Legendre nodes per panel
_MIN_NODES = 2000
_NODES_PER_BAND = 5  # nodes per degree, per band width of window, in the uniform rule
_NODES_PER_ZERO = 3  # nodes per zero of p_n, in the density-adapted rule
_REGIME = 16.0  # n |t - 1| / log n up to which the panels follow rho_1
_STRING_TOL = 1e-12
_RENORM = 1e100  # no mantissa of the Stieltjes build passes this
_GROWTH = 1e20  # growth bound between the build's fold checks
_FOLD = _RENORM / _GROWTH  # a build fold check folds mantissas above this
_EVAL_GROWTH = 1e120  # growth bound between the evaluation sweep's fold checks
_EVAL_FOLD = 1e20  # an evaluation fold check folds mantissas above this
_BLOCK = 2**18  # values per block of the evaluation sweep
_NEGLIGIBLE = 1e-34  # a node weight the Stieltjes sums may drop
_EDGE_TOL = 1e-30
_WIDENINGS = 4  # window widenings per table
_SPLITS = 3  # panel splits per table
_DIAG_SWITCH = 1e-8


@dataclass(frozen=True)
class QuadratureRule:
    """Composite Gauss-Legendre rule: _ORDER nodes on each panel between edges."""

    edges: np.ndarray = field(repr=False)
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    vt_min: float

    @property
    def lo(self) -> float:
        return float(self.edges[0])

    @property
    def hi(self) -> float:
        return float(self.edges[-1])


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


_GL = leggauss(_ORDER)  # every panel's nodes and weights, read-only
_GL[0].flags.writeable = _GL[1].flags.writeable = False


def _log_weight_half(x, vt: np.ndarray, n: int, vt_min: float):
    """log of exp(-n (V_t - min V_t) / 2) at x, for V_t's coefficients vt."""
    return -0.5 * n * (npoly.polyval(x, vt) - vt_min)


@lru_cache(maxsize=128)
def _log_potential_samples(potential: Potential, doubling: int) -> tuple[np.ndarray, ...]:
    """The points x of one bracket of the window search, 2 U_1(x) and rho_1(x).

    The bracket is the unit band's midpoint plus or minus its radius times
    2**doubling, sampled at _SAMPLES points; U_1 is the log potential and
    rho_1 the density of the unit equilibrium measure. Computed once per
    potential and doubling, and read-only.
    """
    eq = critical.unit_equilibrium(potential)
    reach = eq.radius * 2.0**doubling
    x = np.linspace(eq.midpoint - reach, eq.midpoint + reach, _SAMPLES)
    samples = (x, 2.0 * equilibrium.log_potential(eq, x), equilibrium.density(eq, x))
    for arr in samples:
        arr.flags.writeable = False
    return samples


def _check_nt(n, t) -> None:
    if not n >= 1:
        raise InvalidParameterError(f"n must be positive, got {n}")
    if not (np.isfinite(t) and t > 0):
        raise InvalidParameterError(f"t must be positive and finite, got {t}")


def quadrature_support(
    potential: Potential,
    n: int,
    t: float,
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
    until both ends exceed the level and the right end is past x* (from
    detect_singular, when V has one), and the window runs between the
    outermost samples below it, so a barrier between the band and x*
    can neither split it nor end it short of x*. The samples of 2 U_1 are
    computed once per potential and bracket; each call adds only V_t. The
    level is raised by the smallest excess when that is positive: a
    constant added to V then moves no window at t != 1. The window is
    expanded by five percent of its width on each side.

    The rule has panels of 63 Gauss-Legendre nodes each, and every panel
    must resolve its share of the oscillations of p_n; fewer nodes would
    corrupt the table without any other sign. The panels follow one of two
    layouts, the one that takes fewer of them (uniform on a tie):

    - uniform: max(2000, 5 n (hi - lo) / (b - a)) nodes spread evenly over
      the window, [a, b] the unit band, across which a degree-n polynomial
      oscillates about n times;
    - density-adapted: edges at equal steps of the integral over the window
      of g = max(rho_1, g_off), 3 n / 63 panels per unit of it and at least
      32. rho_1, the unit equilibrium density, gives the band about 3 nodes
      per zero of p_n (at 2, tables from n = 2560 on miss the string
      equations); g_off makes an off-band panel one outpost width
      wide, min(b - a, 1 / sqrt(c)) / sqrt(n) with c the curvature at x*,
      or (b - a) / sqrt(n) when V has no x* that detect_singular can give.
      The integral is the trapezoid sum on the bracket's samples of rho_1,
      taken beside those of U_1. g_off (hi - lo) bounds it below, and the
      sum is skipped when that bound already loses to the uniform layout.

    The adapted layout is tried only when n |t - 1| <= 16 log n: rho_1
    describes the weight in the scaling regime |t - 1| = O(log n / n), not
    far from it. Raises InvalidParameterError unless n >= 1 and t is
    positive and finite, and the typed error of the unit solve when V has
    no one-cut regular unit measure.
    """
    _check_nt(n, t)
    vt = np.asarray(potential.coeffs) / t
    dvt = npoly.polyder(vt)
    crit = np.roots(dvt[::-1])
    crit = crit[np.abs(crit.imag) < 1e-9].real
    vt_min = float(np.min(npoly.polyval(crit, vt)))
    eq = critical.unit_equilibrium(potential)
    try:
        x_star, _, c = critical._geometry(potential)
        width = min(eq.b - eq.a, 1.0 / math.sqrt(c))  # outpost width times sqrt(n)
    except (NoSingularPointError, PrecisionLimitError, WrongOrderError):
        x_star, width = -np.inf, eq.b - eq.a
    for doubling in range(1, _MAX_DOUBLINGS + 1):
        x, two_u, rho = _log_potential_samples(potential, doubling)
        excess = n * (npoly.polyval(x, vt) - two_u + eq.ell)
        top = level + max(float(excess.min()), 0.0)
        if excess[0] > top and excess[-1] > top and x[-1] > x_star:
            break
    else:
        raise NumericalBreakdownError("effective potential never leaves the window level")
    inside = np.flatnonzero(excess <= top)
    step = x[1] - x[0]
    lo, hi = x[inside[0]] - step, x[inside[-1]] + step
    pad = 0.05 * (hi - lo)
    lo, hi = lo - pad, hi + pad
    total = max(_MIN_NODES, int(np.ceil(_NODES_PER_BAND * n * (hi - lo) / (eq.b - eq.a))))
    panels = -(-total // _ORDER)
    edges = np.linspace(lo, hi, panels + 1)
    g_off = _ORDER / (_NODES_PER_ZERO * width * math.sqrt(n))
    if (
        n * abs(t - 1.0) <= _REGIME * math.log(n)
        and _NODES_PER_ZERO * n * g_off * (hi - lo) < panels * _ORDER
    ):
        first, last = np.searchsorted(x, lo, "right"), np.searchsorted(x, hi, "left")
        pts = np.concatenate(([lo], x[first:last], [hi]))
        g = np.concatenate((np.interp([lo], x, rho), rho[first:last], np.interp([hi], x, rho)))
        np.maximum(g, g_off, out=g)
        G = np.zeros_like(pts)
        np.cumsum(0.5 * (g[1:] + g[:-1]) * np.diff(pts), out=G[1:])
        adapted = max(-(-_MIN_NODES // _ORDER), math.ceil(_NODES_PER_ZERO * n * G[-1] / _ORDER))
        if adapted < panels:
            edges = np.interp(np.linspace(0.0, G[-1], adapted + 1), G, pts)
    return _panel_rule(edges, vt_min)


def _panel_rule(edges: np.ndarray, vt_min: float) -> QuadratureRule:
    """Composite rule of _ORDER Gauss-Legendre nodes on each panel between the edges."""
    xs, ws = _GL
    mids = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mids[:, None] + half[:, None] * xs[None, :]).ravel()
    weights = (half[:, None] * ws[None, :]).ravel()
    return QuadratureRule(edges=edges, nodes=nodes, weights=weights, vt_min=vt_min)


def build_recurrence(
    potential: Potential,
    n: int,
    t: float,
    N: int,
) -> RecurrenceTable:
    """Recurrence coefficients for degrees 0..N of the weight exp(-n V_t).

    Discretized Stieltjes procedure (Gautschi 1982) on the rule of
    quadrature_support, in O(M N) time and O(M) memory for M nodes. Two
    checks guard each table, and each has a budget of its own:

    - If p_N or p_{N-1} still carries weight at an end of the window (t far
      from 1, where the t = 1 effective potential misjudges the window),
      the window level doubles and the wider window sizes its rule afresh,
      at most four times.
    - If the table misses the string equations (string_residual: the
      diagonal residual above 1e-12 n or the off-diagonal one above 1e-12),
      the rule was too coarse, and the build repeats on the same window
      with every panel of the rule split in two at its midpoint, at most
      three times.

    So a table takes at most eight builds, the largest on at most eight
    times the nodes of quadrature_support's rule at 16 times the default
    level. Raises PrecisionLimitError when either budget runs out,
    InvalidParameterError unless n >= 1, t is positive and finite and
    0 <= N <= 1.2 n + 10, and the unit solve's typed error when V has no
    one-cut regular unit measure.
    """
    _check_nt(n, t)
    if not 0 <= N <= 1.2 * n + 10:
        raise InvalidParameterError(f"N = {N} outside 0..1.2 n + 10 for n = {n}")
    vt = np.asarray(potential.coeffs) / t
    level = _LEVEL
    rule = quadrature_support(potential, n, t, level=level)
    widenings = splits = 0
    while True:
        log_half = _log_weight_half(rule.nodes, vt, n, rule.vt_min)
        alpha, beta, log_gamma0, edge = _stieltjes(rule, log_half, N)
        if edge > _EDGE_TOL:
            if widenings == _WIDENINGS:
                raise PrecisionLimitError(
                    f"degree-{N} polynomials still carry weight {edge:.1e} at the window ends"
                )
            widenings += 1
            level *= 2.0
            rule = quadrature_support(potential, n, t, level=level)
            continue
        table = RecurrenceTable(
            potential=potential,
            n=n,
            t=t,
            N=N,
            alpha=alpha,
            beta=beta,
            log_gamma0=log_gamma0,
            rule=rule,
        )
        diag, off = string_residual(table)
        if diag <= _STRING_TOL * n and off <= _STRING_TOL:
            return table
        if splits == _SPLITS:
            raise PrecisionLimitError(
                f"the table on {rule.nodes.size} nodes misses the string equations "
                f"by {diag:.1e} (diagonal) and {off:.1e} (off-diagonal)"
            )
        splits += 1
        split = np.empty(2 * rule.edges.size - 1)
        split[::2] = rule.edges
        split[1::2] = 0.5 * (rule.edges[:-1] + rule.edges[1:])
        rule = _panel_rule(split, rule.vt_min)


def string_residual(table: RecurrenceTable) -> tuple[float, float]:
    """How far the table misses the Freud string equations.

    For the weight exp(-n V_t), integration by parts gives, for the Jacobi
    matrix J of the recurrence, V_t'(J)_{jj} = 0 and
    n V_t'(J)_{j,j-1} sqrt(beta_j) = j, exactly and with no quadrature.
    Returns max |n V_t'(J)_{jj}| and max |n V_t'(J)_{j,j-1} sqrt(beta_j) / j - 1|
    over the degrees j <= N - deg V_t', where the truncated J gives
    V_t'(J) exactly. V_t'(J) is formed on the diagonals of J, in O(N deg V)
    work. (For V = x^2 the second is beta_j = j t / (2n).)
    """
    dv = npoly.polyder(table.vt_coeffs())
    deg = len(dv) - 1
    top = table.N - deg
    if top < 0:
        return 0.0, 0.0
    P = _band_polyval(dv, table.alpha, np.sqrt(table.beta))
    diag = table.n * np.abs(P[deg][: top + 1])
    j = np.arange(1, top + 1)
    sub = table.n * P[deg - 1][1 : top + 1] * np.sqrt(table.beta[1 : top + 1]) / j
    return float(diag.max()), float(np.abs(sub - 1.0).max(initial=0.0))


def _band_polyval(coeffs: np.ndarray, alpha: np.ndarray, sb: np.ndarray) -> np.ndarray:
    """The diagonals of P(J) for the Jacobi matrix J with diagonal alpha and
    off-diagonals J[k-1, k] = sb[k] (sb[0] unused), by Horner's rule.

    Row deg + d of the result holds P(J)[i, i + d] at column i, zero where
    i + d leaves 0..N; deg is the degree of P.
    """
    deg = len(coeffs) - 1
    size = len(alpha)
    pad = np.zeros(deg + 1)
    # the entries of J at column i + d, for every offset d, read off by slicing
    a_pad = np.concatenate([pad, alpha, pad])
    s_pad = np.concatenate([pad, [0.0], sb[1:], pad, [0.0]])
    P = np.zeros((2 * deg + 3, size))  # one zero row either side of the band
    P[deg + 1] = coeffs[-1]
    for c in coeffs[-2::-1]:
        prod = np.zeros_like(P)
        for d in range(-deg, deg + 1):
            at = deg + 1 + d
            a_d = a_pad[at : at + size]
            s_d = s_pad[at : at + size]
            s_next = s_pad[at + 1 : at + 1 + size]
            # (P J)[i, k] = P[i, k-1] J[k-1, k] + P[i, k] J[k, k] + P[i, k+1] J[k+1, k]
            prod[at] = P[at - 1] * s_d + P[at] * a_d + P[at + 1] * s_next
        prod[deg + 1] += c
        P = prod
    return P[1:-1]


def _growth(lo: float, hi: float, alpha, sb, sb_next):
    """G_j = (max(|lo - alpha_j|, |hi - alpha_j|) + sqrt(beta_j)) / sqrt(beta_{j+1}).

    By the recurrence |p_{j+1}| <= G_j max(|p_j|, |p_{j-1}|) at every point
    of [lo, hi], and G_j >= 1, since the norm of (x - alpha_j) p_j -
    sqrt(beta_j) p_{j-1}, which is sqrt(beta_{j+1}), is at most the
    numerator. So G_j bounds max(|p_{j+1}|, |p_j|) / max(|p_j|, |p_{j-1}|)
    on the whole window, whatever log scale each point carries. Takes
    floats or arrays of degrees alike.
    """
    reach = 0.5 * (hi - lo) + abs(alpha - 0.5 * (lo + hi))
    return (reach + sb) / sb_next


def _stieltjes(rule: QuadratureRule, log_half: np.ndarray, N: int):
    """alpha_0..N, beta_0..N, log_gamma0, and the larger share of the norms
    of p_N and p_{N-1} held by the two outermost nodes.

    Each node carries p_{j-1} and p_j times exp(log_half) as mantissas
    times exp(S_i), starting from S_i = log_half_i + log_gamma0, and
    E_i = g_i exp(2 S_i), g_i the quadrature weights. Each degree forms
    q = (x - alpha_j) p_j - sqrt(beta_j) p_{j-1} on every node and takes
    beta_{j+1} = sum E q^2 and alpha_{j+1} = sum E x q^2 / beta_{j+1}.

    Fold checks follow the product of _growth since the last check: one is
    due once the product passes _GROWTH. A check scans every node once. It
    folds each pair of mantissas whose larger entry m exceeds _FOLD into
    S_i, so no mantissa passes _RENORM between checks, and it takes the
    hull [first, last] of the nodes where E m^2 _GROWTH^2 reaches
    _NEGLIGIBLE. The two sums run over that hull: outside it no weight
    E p_{j+1}^2 can reach _NEGLIGIBLE before the next check. The hull is
    one span from a full scan, since the nodes that carry weight can leave
    a gap between the band and x*. The hull's slices of E, E x and the
    square buffer are taken once per check. G_j needs beta_{j+1}, so the
    step whose G_j takes the product past _GROWTH checks, sums and bounds
    again.

    q, its square and E x live in three buffers allocated once: fresh
    M-length temporaries at every degree page-fault from about 30k nodes
    on (227526 minor faults in one sweep at M = 42273, 260 at M = 22239).
    """
    x = rule.nodes
    # the log of g_i exp(2 log_half_i) first, turned into E in place below
    E = np.log(rule.weights) + 2.0 * log_half
    peak = float(E.max())
    log_mass = peak + float(np.log(np.sum(np.exp(E - peak))))
    if not np.isfinite(log_mass):
        raise NumericalBreakdownError("discretized weight has no usable mass")
    log_gamma0 = -0.5 * log_mass
    S = log_half + log_gamma0
    E -= log_mass
    np.exp(E, out=E)
    Ex = E * x
    prev = np.zeros_like(x)
    cur = np.ones_like(x)
    q = np.zeros_like(x)
    sq = np.empty_like(x)

    def check():
        m = np.abs(prev)
        np.maximum(m, np.abs(cur, out=sq), out=m)
        big = np.flatnonzero(m > _FOLD)
        if big.size:
            mag = m[big]
            for arr in (prev, cur, q):
                arr[big] /= mag
            S[big] += np.log(mag)
            E[big] = np.exp(2.0 * S[big] + np.log(rule.weights[big]))
            Ex[big] = E[big] * x[big]
            m[big] = 1.0
        m *= m
        m *= E
        live = m >= _NEGLIGIBLE / _GROWTH**2
        first, last = int(live.argmax()), x.size - int(live[::-1].argmax())
        return first, last, E[first:last], Ex[first:last], sq[first:last]

    # _growth's scalar arithmetic, inlined: G_j = (half + |a - mid| + sb) / sqrt(b)
    half, mid = 0.5 * (rule.hi - rule.lo), 0.5 * (rule.lo + rule.hi)
    a, sb = float(E @ x), 0.0
    alpha, beta = [a], [0.0]
    first, last, E_hull, Ex_hull, sq_hull = check()
    growth = 1.0
    for j in range(N):
        np.subtract(x, a, out=q)
        q *= cur
        np.multiply(prev, sb, out=sq)
        q -= sq
        for rescan in (False, True):
            if rescan:
                # the hull was taken for less growth: scan again, sum again
                first, last, E_hull, Ex_hull, sq_hull = check()
                growth = 1.0
            np.square(q[first:last], out=sq_hull)
            b = float(E_hull @ sq_hull)
            if not 1e-28 < b < math.inf:
                raise NumericalBreakdownError(
                    f"off-diagonal collapsed at degree {j + 1}; "
                    "increase quadrature nodes or reduce n"
                )
            sb_next = math.sqrt(b)
            g = (half + abs(a - mid) + sb) / sb_next
            if growth * g <= _GROWTH:
                break
        growth *= g
        a = float(Ex_hull @ sq_hull) / b
        alpha.append(a)
        beta.append(b)
        sb = sb_next
        q *= 1.0 / sb
        prev, cur, q = cur, q, prev
    ends = [0, -1]
    edge = float(np.max(E[ends] * np.maximum(cur[ends] ** 2, prev[ends] ** 2)))
    return np.array(alpha), np.array(beta), log_gamma0, edge


def _recur(table: RecurrenceTable, pts: np.ndarray, upto: int):
    """Yield (j, rows, L) for blocks of consecutive degrees at real points
    (a 1-d array), where rows[i] exp(L) = psi_{j - len(rows) + 1 + i}.

    rows[0] is the degree just before the block (psi_{-1} = 0 for the first
    block) and rows[1:] the block's own degrees, which end at j; the blocks'
    own degrees run through 0..upto in order, and the last block ends at
    upto. The one evaluation sweep of the weighted three-term recurrence,
    seeded with the weighted p_0. Each point carries a log scale of its
    own. Fold checks follow the Stieltjes build's rule on a budget of their
    own: one is due before the product of _growth since the last check can
    pass _EVAL_GROWTH, and it folds each pair of mantissas whose larger
    entry exceeds _EVAL_FOLD into the scale, so no mantissa passes 1e140.
    The checks fall where the table puts them and each point folds on its
    own values, so no value depends on the other points. p_j at a fixed
    point does not decay with j, so no fold downward is needed. In the
    window's far tails a low-degree value can underflow to zero; it is then
    below double resolution next to the values of higher degree, which
    regrow from the mantissa.

    A block ends at every fold check, after which the next block starts
    from the folded pair, and holds at most _BLOCK values (three rows when
    the points alone need more). It forms D_j = (pts - alpha_j) /
    sqrt(beta_{j+1}) for all its degrees in one step, then row_{j+1} =
    D_j row_j - c_j row_{j-1}, c_j = sqrt(beta_j) / sqrt(beta_{j+1}), in
    place: three numpy calls per degree. Every block has a fresh buffer,
    so no yielded array is written to later and callers may keep them. The
    one gate of every evaluation, on the first step: raises
    InvalidParameterError for points that are not a 1-d array, NaN points
    or upto outside 0..table.N, and PrecisionLimitError for points outside
    the quadrature window.
    """
    if pts.ndim != 1:
        raise InvalidParameterError(f"points must be a 1-d array, got shape {pts.shape}")
    if np.isnan(pts).any():
        raise InvalidParameterError("points must not be NaN")
    if not 0 <= upto <= table.N:
        raise InvalidParameterError(f"degree {upto} outside the table's degrees 0..{table.N}")
    lo, hi = table.rule.lo, table.rule.hi
    if np.any((pts < lo) | (pts > hi)):
        raise PrecisionLimitError(
            f"points [{pts.min():.4f}, {pts.max():.4f}] leave the quadrature window "
            f"[{lo:.4f}, {hi:.4f}]; the weight there is below double-precision resolution"
        )
    alpha, sb = table.alpha, np.sqrt(table.beta)
    L = table.log_gamma0 + _log_weight_half(
        pts, table.vt_coeffs(), table.n, table.rule.vt_min
    )
    growth = _growth(lo, hi, alpha[:upto], sb[:upto], sb[1 : upto + 1]).tolist()
    growth.append(0.0)  # no step after the last degree
    width = max(1, _BLOCK // max(pts.size, 1) - 2)
    blocks, bound, start = [], 1.0, 1  # (last degree, fold check after it)
    for j in range(1, upto + 1):
        bound *= growth[j - 1]
        fold = bound * growth[j] > _EVAL_GROWTH
        if fold:
            bound = 1.0
        if fold or j == upto or j - start + 1 == width:
            blocks.append((j, fold))
            start = j + 1
    seed = np.zeros((2, pts.size))  # p_{top-2} and p_{top-1}
    seed[1] = 1.0
    tmp = np.empty_like(pts)
    top = 1
    for end, fold in blocks or [(0, False)]:
        rows = np.empty((end - top + 3, pts.size))
        rows[:2] = seed
        D = (pts - alpha[top - 1 : end, None]) / sb[top : end + 1, None]
        # c_j as a row of stride 0: a ufunc takes it faster than a float
        C = np.broadcast_to((sb[top - 1 : end] / sb[top : end + 1])[:, None], D.shape)
        for d, c, before, cur, out in zip(D, C, rows, rows[1:], rows[2:]):
            np.multiply(d, cur, out=out)
            np.multiply(before, c, out=tmp)
            np.subtract(out, tmp, out=out)
        yield end, (rows if top == 1 else rows[1:]), L
        seed = rows[-2:]
        if fold:
            m = np.maximum(np.abs(seed[0]), np.abs(seed[1]))
            mask = m > _EVAL_FOLD
            if mask.any():
                f = np.where(mask, m, 1.0)
                L = L + np.log(f)
                seed = seed / f
        top = end + 1


def near_pairs(K: np.ndarray, pts: np.ndarray, pair) -> np.ndarray:
    """K, a Christoffel-Darboux kernel on the grid pts with its diagonal set,
    with the sum form at each pair closer than _DIAG_SWITCH (1 + max(|x|, |y|)).

    Closer than that, the quotient loses digits to cancellation. A repeated
    point takes K's diagonal and two distinct points pair(x, y); NaN is
    never near. Used by kernel_matrix and gue.gue_kernel_grid; the scalar
    gue.gue_kernel applies the same test to its one pair.
    """
    reach = _DIAG_SWITCH * (1.0 + np.maximum.outer(np.abs(pts), np.abs(pts)))
    close = np.abs(np.subtract.outer(pts, pts)) < reach
    for i, j in zip(*np.nonzero(np.triu(close, 1))):
        K[i, j] = K[j, i] = K[i, i] if pts[i] == pts[j] else pair(pts[i], pts[j])
    return K


def kernel(table: RecurrenceTable, x: float, y: float) -> float:
    """Rank-n projection kernel K_n(x, y): kernel_matrix's entry."""
    return float(kernel_matrix(table, np.array([x, y], dtype=float))[0, 1])


def _kernel_confluent(table: RecurrenceTable, x: float, y: float) -> float:
    """Sum form over degrees below n, stable at and near the diagonal.

    x and y carry log scales of their own: far apart, their weights differ
    by more than the double range. Each block is scaled as weighted_sweep
    scales it, twice by exp((L_x + L_y) / 2), since exp(L_x + L_y)
    underflows first; swapped arguments give the same bits.
    """
    acc = 0.0
    for _, rows, L in _recur(table, np.array([x, y], dtype=float), table.n - 1):
        scale = np.exp(0.5 * (L[0] + L[1]))
        acc += float(rows[1:, 0] @ rows[1:, 1]) * scale * scale
    return float(acc)


def weighted_sweep(table: RecurrenceTable, pts: np.ndarray):
    """Vectorized psi values at real points inside the quadrature window.

    Returns (psi_{n-1}, psi_n, diag) in absolute scale, where diag is the
    kernel diagonal sum over degrees below n. Values below the normal
    double range, as in the window's far tails, come out as zero or as
    subnormals that hold a few digits only (down to 5e-324 on the count
    nodes at e = 6, n = 5120). Raises _recur's errors.
    """
    pts = np.asarray(pts, dtype=float)
    diag = np.zeros_like(pts)
    for j, rows, L in _recur(table, pts, table.n):
        scale = np.exp(L)
        own = rows[1:-1] if j == table.n else rows[1:]
        block = np.einsum("ij,ij->j", own, own)
        block *= scale
        block *= scale  # not exp(2 L), which underflows first
        diag += block
    return rows[-2] * scale, rows[-1] * scale, diag


def kernel_matrix(table: RecurrenceTable, pts: np.ndarray) -> np.ndarray:
    """Kernel on a point grid; kernel() takes one entry of it.

    Christoffel-Darboux off the diagonal, the diagonal sum on it, and
    near_pairs's rule with the confluent sum, one two-point sweep per pair.
    """
    pts = np.asarray(pts, dtype=float)
    psi1, psi0, diag = weighted_sweep(table, pts)
    outer = np.outer(psi0, psi1)
    dx = np.subtract.outer(pts, pts)
    with np.errstate(divide="ignore", invalid="ignore"):
        K = np.sqrt(table.beta[table.n]) * (outer - outer.T) / dx
    np.fill_diagonal(K, diag)
    return near_pairs(K, pts, partial(_kernel_confluent, table))


def kernel_diagonal(table: RecurrenceTable, pts: np.ndarray) -> np.ndarray:
    return weighted_sweep(table, pts)[2]


def gram_residual(table: RecurrenceTable, upto: int) -> float:
    """Max deviation from identity of the Gram matrix of p_0..p_upto.

    Holds the (upto + 1) x M weighted values on the table's nodes.
    """
    vals = np.concatenate(
        [rows[1:] * np.exp(L) for _, rows, L in _recur(table, table.rule.nodes, upto)]
    )
    gram = (vals * table.rule.weights) @ vals.T
    return float(np.abs(gram - np.eye(upto + 1)).max())
