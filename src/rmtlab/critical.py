"""Gap-closing point detection and the double-scaling parameter bundle."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import lru_cache

import numpy as np
from numpy.polynomial import polynomial as npoly

from . import equilibrium
from .equilibrium import EquilibriumData
from .errors import (
    InvalidParameterError,
    NoConvergenceError,
    NoSingularPointError,
    PrecisionLimitError,
    RmtlabError,
    WrongOrderError,
)
from .potential import Potential

_PHI_TOL = 1e-6
_SLOPE_TOL = 1e-8  # |h'| below this at x* is a higher-order zero
_MAX_ABS_S = 8.0
_GAP_FRACTION = 0.1  # required clearance b'_{n,t} < x* - this


@dataclass(frozen=True)
class ScalingParams:
    """All parameters of the double-scaling family at one (n, s).

    nu = max(s, 0) = n * m; k is the nearest nonnegative integer to nu
    (exact half-integers round up) and delta = nu - k. c is the local
    curvature scale and J the edge-to-gap-point arcsine integral entering
    the s <-> t conversion. The reduced-mass point is not part of the
    bundle: find_xstar_nt gives it, or the typed reason it does not exist.
    """

    n: int
    t: float
    s: float
    nu: float
    k: int
    delta: float
    m: float
    x_star: float
    c: float
    J: float
    potential: Potential = field(repr=False, compare=False)

    def json_dict(self) -> dict:
        """Every field but the potential, and x_star_nt.

        x_star_nt is find_xstar_nt's point, computed on each call, or x*
        where find_xstar_nt raises NoConvergenceError.
        """
        try:
            x_nt = float(find_xstar_nt(self.potential, self.t, self.m))
        except NoConvergenceError:
            x_nt = self.x_star
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "potential"}
        return out | {"x_star_nt": x_nt}


@lru_cache(maxsize=64)
def unit_equilibrium(potential: Potential) -> EquilibriumData:
    """Unit-mass equilibrium data at t = 1, cached per potential."""
    return equilibrium.solve(potential, 1.0, 1.0)


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


@lru_cache(maxsize=64)
def _geometry(potential: Potential) -> tuple[float, float, float]:
    """x*, J and c of one potential (see detect_singular)."""
    eq = unit_equilibrium(potential)
    h = np.asarray(eq.h_coeffs)
    if len(h) < 2:
        raise NoSingularPointError("h is constant; q has only simple zeros")
    roots = np.roots(h[::-1])
    gap = float(np.min(np.abs(roots - eq.b)))
    error = equilibrium._b_error(eq)
    if error > 0.1 * gap:
        raise PrecisionLimitError(
            f"the unit band edge b = {eq.b:.12g} is known only to about {error:.1e}, "
            f"more than a tenth of its gap {gap:.1e} to the nearest zero of h"
        )
    dh = npoly.polyder(h)
    window_hi = eq.b + 10.0 * (eq.b - eq.a)
    real = sorted(
        {
            _polish_root(h, dh, r.real)
            for r in roots
            if abs(r.imag) < 1e-8 and eq.b < r.real <= window_hi
        }
    )
    # phi' = -sqrt((x-a)(x-b)) h(x): where h falls through zero, phi has a
    # local minimum below zero, never an equality point
    rising = [x for x in real if npoly.polyval(x, dh) >= -_SLOPE_TOL]
    candidates = [x for x in rising if abs(equilibrium.phi(eq, x)) < _PHI_TOL]
    if not candidates:
        raise NoSingularPointError(
            "no exterior double zero of q with vanishing effective potential"
        )
    if len(candidates) > 1:
        raise NoSingularPointError(
            f"multiple candidate points {candidates}; not a single-point geometry"
        )
    x_star = candidates[0]
    if abs(npoly.polyval(x_star, dh)) < _SLOPE_TOL:
        raise WrongOrderError(
            "q vanishes to higher order; only double zeros are supported"
        )
    return x_star, scaling_J(eq.a, eq.b, x_star), curvature_c(potential, x_star)


def detect_singular(potential: Potential) -> float:
    """Locate the exterior point beyond b where q has a double zero and the
    effective-potential equality holds.

    Candidates are the real zeros of h in (b, b + 10(b-a)] where h does
    not fall (h' >= -1e-8): since phi' = -sqrt((x-a)(x-b)) h, a zero where
    h falls is a local minimum of phi below zero, the intermediate double
    zero where the square-root branch flips sign, however close to zero
    phi is there. Of the rest, the one with |phi| < 1e-6 is the
    gap-closing point; it must be a simple zero of h (|h'| >= 1e-8).
    The point, with J and c, is computed once per potential; a potential
    without a valid point raises its typed error on every call.

    The unit solve places b only to within a rounding floor, est(b) of
    equilibrium._b_error, which grows as the density vanishes faster
    at b. When est(b) exceeds a tenth of the gap from b to the nearest zero
    of h, the zeros cannot be told from b and this raises
    PrecisionLimitError. A returned x* is a zero of h, so b is then known
    to a tenth of x* - b; on the eynard family, where x* = e, it lies
    within est(b) of e, and e - 2 from about 5e-5 down is refused.
    """
    return _geometry(potential)[0]


def curvature_c(potential: Potential, x_star: float) -> float:
    """Rescaling curvature c = sqrt(q''(x_star)) / sqrt(2).

    q'' is exact: the product rule on q = P h^2 with P = (z-a)(z-b) from
    the unit measure, h and its derivatives by Horner's rule. At a simple
    zero of h it is 2 P(x_star) h'(x_star)^2.
    """
    eq = unit_equilibrium(potential)
    h = np.asarray(eq.h_coeffs)
    P, dP = (x_star - eq.a) * (x_star - eq.b), 2.0 * x_star - eq.a - eq.b
    H, dH, ddH = (npoly.polyval(x_star, npoly.polyder(h, k)) for k in range(3))
    qdd = 2.0 * H * H + 4.0 * dP * H * dH + 2.0 * P * (dH * dH + H * ddH)
    if qdd <= 0:
        raise WrongOrderError(f"q''({x_star}) = {qdd} is not positive")
    return float(np.sqrt(qdd) / np.sqrt(2.0))


def scaling_J(a: float, b: float, x_star: float) -> float:
    """J = int_b^{x_star} dx / sqrt((x-a)(x-b)) = 2 asinh(sqrt((x_star-b)/(b-a))).

    x = b + (b-a) sinh^2(u) makes the integrand 2 du. The asinh form keeps
    full relative precision as x_star approaches b, where arccosh of a
    number near 1 would not.
    """
    if not a < b < x_star:
        raise InvalidParameterError(f"need a < b < x_star, got {a}, {b}, {x_star}")
    return 2.0 * math.asinh(math.sqrt((x_star - b) / (b - a)))


def s_to_t(s: float, n: int, J: float) -> float:
    """t = 1 + s log(n) / (2 n J); the inverse is s = 2 (t-1) (n / log n) J."""
    if n < 2:
        raise InvalidParameterError(f"n must be at least 2, got {n}")
    if J <= 0:
        raise InvalidParameterError(f"J must be positive, got {J}")
    return 1.0 + s * np.log(n) / (2.0 * n * J)


def find_xstar_nt(potential: Potential, t: float, m: float) -> float:
    """Zero of the reduced-mass band's h nearest the gap-closing point.

    For t <= 1 (no mass deficit) this is the unit-mass point itself. For
    t > 1 the deficient band must stay clear of x*; if it does not (the
    reduced-mass one-cut realization breaks down, which happens whenever
    the deficit undershoots the nucleating mass), this raises
    NoConvergenceError. Any RmtlabError of the reduced-mass solve, and a
    root polish that stalls, count as such a breakdown and raise it too.
    """
    x_star = detect_singular(potential)
    if t <= 1.0 or m <= 0.0:
        return x_star
    try:
        eq = equilibrium.solve(potential, t, 1.0 - m)
    except RmtlabError as exc:
        raise NoConvergenceError(
            f"reduced-mass band at t={t:.6f} has no one-cut solve ({exc}); "
            "the deficit undershoots the nucleating mass at this scale"
        ) from exc
    gap = x_star - unit_equilibrium(potential).b
    if eq.b >= x_star - _GAP_FRACTION * max(gap, 1.0):
        raise NoConvergenceError(
            f"reduced-mass band edge b'={eq.b:.6f} reaches the gap point "
            f"x*={x_star:.6f}; the one-cut deficit realization is invalid here"
        )
    h = np.asarray(eq.h_coeffs)
    dh = npoly.polyder(h)
    roots = np.roots(h[::-1])
    real = [r.real for r in roots if abs(r.imag) < 1e-8]
    if not real:
        raise NoConvergenceError(
            f"h of the reduced-mass band has no real zero near x*={x_star}"
        )
    x_nt = _polish_root(h, dh, min(real, key=lambda r: abs(r - x_star)))
    if abs(npoly.polyval(x_nt, h)) > 1e-12:
        raise NoConvergenceError(f"root polish stalled at h({x_nt}) != 0")
    return x_nt


def make_scaling(potential: Potential, n: int, s: float) -> ScalingParams:
    """Assemble the double-scaling bundle at (n, s).

    After the first call for a potential this is arithmetic: x*, J and c
    are cached per potential.
    Raises InvalidParameterError unless |s| <= 8, n >= 2 and t > 0, and
    the geometry's typed error when V has no valid gap-closing point.
    """
    if not abs(s) <= _MAX_ABS_S:  # NaN fails this too
        raise InvalidParameterError(f"|s| <= {_MAX_ABS_S} required, got {s}")
    x_star, J, c = _geometry(potential)
    t = s_to_t(s, n, J)
    if not t > 0:
        raise InvalidParameterError(
            f"s = {s} is too negative at n = {n}: t = 1 + s log(n) / (2 n J) must be "
            f"positive, so s must exceed {-2.0 * n * J / np.log(n):.6g}"
        )
    m = max(s / n, 0.0)
    nu = n * m
    k = int(np.floor(nu + 0.5))
    delta = nu - k
    return ScalingParams(
        n=n,
        t=float(t),
        s=float(s),
        nu=float(nu),
        k=k,
        delta=float(delta),
        m=float(m),
        x_star=float(x_star),
        c=float(c),
        J=float(J),
        potential=potential,
    )


def phix_growth_check(potential: Potential, s: float, n_list) -> list[float]:
    """Residuals d_n = n phi_{n,t}(x*_{n,t}) - (nu/2) log n along n_list.

    t and m come from make_scaling at each n, and phi from the reduced-mass
    band there; boundedness of d_n is the finite-size form of the matching
    growth law. Requires 0 < s <= 8 (make_scaling's range, with a mass
    deficit), else InvalidParameterError, and the reduced-mass realization
    to be valid at every n: find_xstar_nt's NoConvergenceError otherwise.
    """
    if not 0 < s <= _MAX_ABS_S:  # NaN fails this too
        raise InvalidParameterError(f"0 < s <= {_MAX_ABS_S} required, got {s}")
    out = []
    for n in n_list:
        params = make_scaling(potential, n, s)
        x_nt = find_xstar_nt(potential, params.t, params.m)
        eq = equilibrium.solve(potential, params.t, 1.0 - params.m)
        out.append(float(n * equilibrium.phi(eq, x_nt) - 0.5 * s * np.log(n)))
    return out
