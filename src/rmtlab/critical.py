"""Gap-closing point detection and the double-scaling parameter bundle."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import polynomial as npoly
from numpy.polynomial.legendre import leggauss

from . import equilibrium
from .equilibrium import EquilibriumData
from .errors import (
    InvalidParameterError,
    NoConvergenceError,
    NoSingularPointError,
    RmtlabError,
    WrongOrderError,
)
from .potential import Potential

_PHI_TOL = 1e-6
_MAX_ABS_S = 8.0
_GAP_FRACTION = 0.1  # required clearance b'_{n,t} < x* - this


@dataclass(frozen=True)
class ScalingParams:
    """All parameters of the double-scaling family at one (n, s).

    nu = max(s, 0) = n * m; k is the nearest nonnegative integer to nu
    (exact half-integers round up) and delta = nu - k. c is the local
    curvature scale and J the edge-to-gap-point arcsine integral entering
    the s <-> t conversion.
    """

    n: int
    t: float
    s: float
    nu: float
    k: int
    delta: float
    m: float
    x_star: float
    x_star_nt: float
    c: float
    J: float

    def json_dict(self) -> dict:
        return {
            "n": self.n,
            "t": self.t,
            "s": self.s,
            "nu": self.nu,
            "k": self.k,
            "delta": self.delta,
            "m": self.m,
            "x_star": self.x_star,
            "x_star_nt": self.x_star_nt,
            "c": self.c,
            "J": self.J,
        }


@lru_cache(maxsize=64)
def _unit_eq_cached(coeffs: tuple) -> EquilibriumData:
    return equilibrium.solve(Potential(coeffs), 1.0, 1.0)


def unit_equilibrium(potential: Potential) -> EquilibriumData:
    """Unit-mass equilibrium data at t = 1, cached per potential."""
    return _unit_eq_cached(potential.coeffs)


@lru_cache(maxsize=256)
def _solve_cached(coeffs: tuple, t: float, mass: float) -> EquilibriumData:
    return equilibrium.solve(Potential(coeffs), t, mass)


def solve_cached(potential: Potential, t: float, mass: float) -> EquilibriumData:
    return _solve_cached(potential.coeffs, float(t), float(mass))


def _polish_root(h: np.ndarray, dh: np.ndarray, x0: float) -> float:
    x = x0
    for _ in range(60):
        fx = npoly.polyval(x, h)
        dfx = npoly.polyval(x, dh)
        if dfx == 0:
            break
        step = fx / dfx
        x -= step
        if abs(step) < 1e-15 * (1.0 + abs(x)):
            break
    return x


def detect_singular(potential: Potential) -> float:
    """Locate the exterior point beyond b where q has a double zero and the
    effective-potential equality holds.

    Candidates are the real zeros of h in (b, b + 10(b-a)]; the signed
    integral phi separates the genuine gap-closing point (phi = 0) from
    the intermediate double zero where the square-root branch flips sign.
    """
    eq = unit_equilibrium(potential)
    h = np.asarray(eq.h_coeffs)
    if len(h) < 2:
        raise NoSingularPointError("h is constant; q has only simple zeros")
    dh = npoly.polyder(h)
    window_hi = eq.b + 10.0 * (eq.b - eq.a)
    roots = np.roots(h[::-1])
    real = sorted(
        {
            _polish_root(h, dh, r.real)
            for r in roots
            if abs(r.imag) < 1e-8 and eq.b < r.real <= window_hi
        }
    )
    candidates = [x for x in real if abs(equilibrium.phi(eq, x)) < _PHI_TOL]
    if not candidates:
        raise NoSingularPointError(
            "no exterior double zero of q with vanishing effective potential"
        )
    if len(candidates) > 1:
        raise NoSingularPointError(
            f"multiple candidate points {candidates}; not a single-point geometry"
        )
    x_star = candidates[0]
    if abs(npoly.polyval(x_star, dh)) < 1e-8:
        raise WrongOrderError(
            "q vanishes to higher order; only double zeros are supported"
        )
    qdd = _q_second_derivative(eq, x_star)
    if qdd <= 0:
        raise WrongOrderError(f"q''({x_star}) = {qdd} is not positive")
    return x_star


def _q_second_derivative(eq: EquilibriumData, x: float) -> float:
    """Central second difference of q with one Richardson step."""
    step = 1e-4 * (eq.b - eq.a)

    def second(hh: float) -> float:
        return (
            equilibrium.q_eval(eq, x + hh)
            - 2.0 * equilibrium.q_eval(eq, x)
            + equilibrium.q_eval(eq, x - hh)
        ) / (hh * hh)

    d1 = second(step)
    d2 = second(step / 2.0)
    return (4.0 * d2 - d1) / 3.0


def curvature_c(potential: Potential, x_star: float) -> float:
    """Rescaling curvature c = sqrt(q''(x_star)) / sqrt(2)."""
    eq = unit_equilibrium(potential)
    qdd = _q_second_derivative(eq, x_star)
    if qdd <= 0:
        raise WrongOrderError(f"q''({x_star}) = {qdd} is not positive")
    return float(np.sqrt(qdd) / np.sqrt(2.0))


_J_NODES = leggauss(64)


def scaling_J(a: float, b: float, x_star: float) -> float:
    """J = int_b^{x_star} dx / sqrt((x-a)(x-b)), via x = b + u^2."""
    if not a < b < x_star:
        raise InvalidParameterError(f"need a < b < x_star, got {a}, {b}, {x_star}")
    xs, ws = _J_NODES

    def fixed(panels: int) -> float:
        span = np.sqrt(x_star - b)
        edges = np.linspace(0.0, span, panels + 1)
        total = 0.0
        for lo, hi in zip(edges[:-1], edges[1:]):
            u = 0.5 * (lo + hi) + 0.5 * (hi - lo) * xs
            total += 0.5 * (hi - lo) * np.sum(ws * 2.0 / np.sqrt(u * u + (b - a)))
        return total

    val = fixed(2)
    for panels in (4, 8, 16):
        nxt = fixed(panels)
        if abs(nxt - val) < 1e-13 * (1.0 + abs(nxt)):
            return nxt
        val = nxt
    return val


def t_to_s(t: float, n: int, J: float) -> float:
    """s = 2 (t-1) (n / log n) J."""
    return 2.0 * (t - 1.0) * n / np.log(n) * J


def s_to_t(s: float, n: int, J: float) -> float:
    """Inverse of t_to_s: t = 1 + s log(n) / (2 n J)."""
    if n < 2:
        raise InvalidParameterError(f"n must be at least 2, got {n}")
    if J <= 0:
        raise InvalidParameterError(f"J must be positive, got {J}")
    return 1.0 + s * np.log(n) / (2.0 * n * J)


def find_xstar_nt(
    potential: Potential,
    n: int,
    t: float,
    m: float,
    strict: bool = True,
) -> float:
    """Zero of the reduced-mass band's h nearest the gap-closing point.

    For t <= 1 (no mass deficit) this is the unit-mass point itself. For
    t > 1 the deficient band must stay clear of x*; if it does not (the
    reduced-mass one-cut realization breaks down, which happens whenever
    the deficit undershoots the nucleating mass), strict mode raises
    NoConvergenceError and non-strict mode falls back to x* with a warning;
    any RmtlabError of the reduced-mass solve counts as such a breakdown.
    """
    x_star = detect_singular(potential)
    if t <= 1.0 or m <= 0.0:
        return x_star
    try:
        eq = solve_cached(potential, t, 1.0 - m)
    except RmtlabError as exc:
        msg = (
            f"reduced-mass band at t={t:.6f} has no one-cut solve ({exc}); "
            "the deficit undershoots the nucleating mass at this scale"
        )
        if strict:
            raise NoConvergenceError(msg) from exc
        warnings.warn(msg, stacklevel=2)
        return x_star
    gap = x_star - unit_equilibrium(potential).b
    if eq.b >= x_star - _GAP_FRACTION * max(gap, 1.0):
        msg = (
            f"reduced-mass band edge b'={eq.b:.6f} reaches the gap point "
            f"x*={x_star:.6f}; the one-cut deficit realization is invalid here"
        )
        if strict:
            raise NoConvergenceError(msg)
        warnings.warn(msg, stacklevel=2)
        return x_star
    h = np.asarray(eq.h_coeffs)
    dh = npoly.polyder(h)
    roots = np.roots(h[::-1]) if len(h) > 1 else np.array([])
    real = [r.real for r in roots if abs(r.imag) < 1e-8]
    if not real:
        msg = f"h of the reduced-mass band has no real zero near x*={x_star}"
        if strict:
            raise NoConvergenceError(msg)
        warnings.warn(msg, stacklevel=2)
        return x_star
    x_nt = _polish_root(h, dh, min(real, key=lambda r: abs(r - x_star)))
    if abs(npoly.polyval(x_nt, h)) > 1e-12:
        raise NoConvergenceError(f"root polish stalled at h({x_nt}) != 0")
    return x_nt


def make_scaling(potential: Potential, n: int, s: float) -> ScalingParams:
    """Assemble the full double-scaling bundle at (n, s)."""
    if abs(s) > _MAX_ABS_S:
        raise InvalidParameterError(f"|s| <= {_MAX_ABS_S} required, got {s}")
    x_star = detect_singular(potential)
    eq = unit_equilibrium(potential)
    J = scaling_J(eq.a, eq.b, x_star)
    t = s_to_t(s, n, J)
    m = max(s / n, 0.0)
    nu = n * m
    k = int(np.floor(nu + 0.5))
    delta = nu - k
    x_star_nt = find_xstar_nt(potential, n, t, m, strict=False)
    c = curvature_c(potential, x_star)
    return ScalingParams(
        n=n,
        t=float(t),
        s=float(s),
        nu=float(nu),
        k=k,
        delta=float(delta),
        m=float(m),
        x_star=float(x_star),
        x_star_nt=float(x_star_nt),
        c=float(c),
        J=float(J),
    )


def phix_growth_check(potential: Potential, s: float, n_list) -> list[float]:
    """Residuals d_n = n phi_{n,t}(x*_{n,t}) - (nu/2) log n along n_list.

    phi comes from the reduced-mass band at t(n); boundedness of d_n is the
    finite-size form of the matching growth law. Requires the reduced-mass
    realization to be valid at every n (strict mode of find_xstar_nt).
    """
    if s <= 0:
        raise InvalidParameterError(f"s must be positive, got {s}")
    x_star = detect_singular(potential)
    eq1 = unit_equilibrium(potential)
    J = scaling_J(eq1.a, eq1.b, x_star)
    nu = max(s, 0.0)
    out = []
    for n in n_list:
        t = s_to_t(s, n, J)
        m = s / n
        x_nt = find_xstar_nt(potential, n, t, m, strict=True)
        eq = solve_cached(potential, t, 1.0 - m)
        out.append(float(n * equilibrium.phi(eq, x_nt) - 0.5 * nu * np.log(n)))
    return out
