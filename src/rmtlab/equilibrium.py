"""One-cut equilibrium measures with prescribed mass in a polynomial field.

The measure solved for here has density (1/pi) sqrt((b-x)(x-a)) h(x) on a
single interval [a, b], where h is a polynomial of degree d-2. Endpoints
come from a damped Newton iteration on the two moment conditions

    int_a^b V_t'(y) / sqrt((y-a)(b-y)) dy = 0,
    (1/2pi) int_a^b y V_t'(y) / sqrt((y-a)(b-y)) dy = mass,

both evaluated by Gauss-Chebyshev quadrature, which is exact for
polynomial integrands. The 64 nodes, their derivatives in a and b and the
weight are module constants, and V_t', V_t'' are evaluated by Horner's
rule with npoly.polyval's operations. Each Newton step is damped by
backtracking: lambda = 1 is tried first, and when it does not lower the
residual norm the halvings 2^-1 ... 2^-39 are evaluated in one batched,
residual-only pass (no Jacobian) and the first that keeps a < b and lowers
the norm is taken, which is the one sequential halving would reach; 2^-40
when none does. So every solve, failures included, has the bits of the
plain sequential search (tests/test_equilibrium.py keeps it as reference).
h is the polynomial part of the expansion of
V_t'(z) ((z-a)(z-b))^{-1/2} at infinity, divided by two; the expansion
coefficients are exact binomial convolutions, so h carries no quadrature
error.

Logarithmic potentials are evaluated through the finite Chebyshev
expansion of G(y) = (b-y)(y-a) h(y): against the arcsine measure of
[a, b] the log kernel acts diagonally on Chebyshev polynomials, which
turns int log|x-y| dmu(y) into a short exact sum for every real x. The
effective potential phi beyond b is half the variational residual there,
so it comes from the same exact sum.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from math import comb

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import (
    InvalidParameterError,
    NoConvergenceError,
    NotOneCutRegularError,
)
from .potential import Potential

_MOMENT_NODES = 64
_NEWTON_TOL = 1e-13
_NEWTON_MAXIT = 100
_POLISH_MAXIT = 8

# Gauss-Chebyshev nodes on [-1, 1], the node derivatives dy/da and dy/db of
# y = mid + rad * cos_t, and the common weight
_COS_T = np.cos((2 * np.arange(1, _MOMENT_NODES + 1) - 1) * np.pi / (2 * _MOMENT_NODES))
_DY_DA = 0.5 * (1 - _COS_T)
_DY_DB = 0.5 * (1 + _COS_T)
_WEIGHT = np.pi / _MOMENT_NODES
# line-search damping factors: 1 alone, then 2^-1 ... 2^-39, then the fallback
_FULL_STEP = np.array([1.0])
_HALVINGS = 0.5 ** np.arange(1, 40)
_LAST_STEP = 0.5**40


@dataclass(frozen=True)
class EquilibriumData:
    """One-cut measure of total `mass` for the field V/t, plus derived data.

    h_coeffs are the coefficients of h (degree d-2); ell is the Lagrange
    constant of the variational equality. The Chebyshev expansion of
    (b-y)(y-a) h(y) is precomputed for the log-potential machinery.
    Immutable after solve; evaluation methods are pure.
    """

    potential: Potential
    mass: float
    t: float
    a: float
    b: float
    h_coeffs: tuple[float, ...]
    ell: float
    cheb: tuple[float, ...] = field(repr=False, default=())

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.a + self.b)

    @property
    def radius(self) -> float:
        return 0.5 * (self.b - self.a)

    def vt(self, x):
        return self.potential.eval(x) / self.t

    def h(self, x):
        return npoly.polyval(x, np.asarray(self.h_coeffs))

    def json_dict(self) -> dict:
        """Every field but the potential and the Chebyshev expansion."""
        skip = ("potential", "cheb")
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name not in skip}


def _horner(c: np.ndarray, y: np.ndarray) -> np.ndarray:
    """npoly.polyval(y, c) for 1-d c and array y, with the same operations."""
    acc = c[-1] + y * 0
    for ci in c[-2::-1]:
        acc = ci + acc * y
    return acc


def _moment_system(dv1: np.ndarray, dv2: np.ndarray, a: float, b: float):
    """Moment conditions and their Jacobian in (a, b), exact for polynomials."""
    mid, rad = 0.5 * (a + b), 0.5 * (b - a)
    y = mid + rad * _COS_T
    vp = _horner(dv1, y)
    vpp = _horner(dv2, y)
    w = _WEIGHT
    f1 = w * vp.sum()
    f2 = w * (y * vp).sum() / (2 * np.pi)
    dyvp = vp + y * vpp
    jac = np.array(
        [
            [w * (vpp * _DY_DA).sum(), w * (vpp * _DY_DB).sum()],
            [
                w * (dyvp * _DY_DA).sum() / (2 * np.pi),
                w * (dyvp * _DY_DB).sum() / (2 * np.pi),
            ],
        ]
    )
    return np.array([f1, f2]), jac


def _residuals(dv1: np.ndarray, a: np.ndarray, b: np.ndarray, mass: float):
    """Both endpoint residuals at each pair (a[i], b[i]), without the Jacobian.

    Row i carries the same operations as _moment_system at one pair, so
    each residual equals the one _moment_system gives there.
    """
    mid, rad = 0.5 * (a + b), 0.5 * (b - a)
    y = mid[:, None] + rad[:, None] * _COS_T
    vp = _horner(dv1, y)
    f1 = _WEIGHT * vp.sum(axis=1)
    f2 = _WEIGHT * (y * vp).sum(axis=1) / (2 * np.pi) - mass
    return f1, f2


def _step_length(
    dv1: np.ndarray, mass: float, a: float, b: float, step: np.ndarray, norm0: float
) -> float:
    """Damping factor of the backtracking line search from (a, b) along step.

    The first of 1, 1/2, ..., 2^-39 whose trial keeps a < b and has a
    residual norm below norm0, else 2^-40: what halving from 1 while
    lambda > 1e-12 picks. 1 is tried alone, the other 39 in one pass.
    """
    for lams in (_FULL_STEP, _HALVINGS):
        na, nb = a + lams * step[0], b + lams * step[1]
        valid = np.flatnonzero(na < nb)
        f1, f2 = _residuals(dv1, na[valid], nb[valid], mass)
        # norm0 comes from np.linalg.norm, a BLAS dot that may fuse a
        # multiply-add; hypot is within a few ulps of it, so it only screens
        # the trials and each survivor gets the exact norm, in order.
        near = np.flatnonzero(np.hypot(f1, f2) < norm0 * (1.0 + 1e-12))
        for i in near:
            if np.linalg.norm(np.array([f1[i], f2[i]])) < norm0:
                return lams[valid[i]]
    return _LAST_STEP


def _h_from_expansion(dv1: np.ndarray, a: float, b: float) -> np.ndarray:
    """Polynomial part of V_t'(z) ((z-a)(z-b))^{-1/2} at infinity, over two."""
    deg = len(dv1) - 1  # degree of V_t'
    ca = np.array([comb(2 * j, j) * (a / 4.0) ** j for j in range(deg + 1)])
    cb = np.array([comb(2 * j, j) * (b / 4.0) ** j for j in range(deg + 1)])
    s = np.convolve(ca, cb)[: deg + 1]
    h = np.zeros(deg)
    for p in range(deg):
        h[p] = 0.5 * sum(dv1[i] * s[i - 1 - p] for i in range(p + 1, deg + 1))
    return h


def _initial_guess(potential: Potential, t: float, mass: float) -> tuple[float, float]:
    """Semicircle of matching mass at the global minimum of V_t."""
    dv1 = potential.deriv_coeffs(1) / t
    crit = np.roots(dv1[::-1])
    crit = crit[np.abs(crit.imag) < 1e-9].real
    vals = potential.eval(crit) / t
    x0 = float(crit[np.argmin(vals)])
    curv = float(potential.eval(x0, 2)) / t
    gamma = max(0.5 * curv, 1e-3)
    r = np.sqrt(2.0 * mass / gamma)
    return x0 - r, x0 + r


def _cheb_of_band_density(h: np.ndarray, a: float, b: float) -> np.ndarray:
    """Chebyshev coefficients of (b-y)(y-a) h(y) in the scaled variable.

    h(mid + rad y) by Horner's rule in convolutions, times rad^2 (1 - y^2),
    then converted to the Chebyshev basis by Horner's rule in chebmulx and
    chebadd steps: the arithmetic of Polynomial composition, polymul and
    poly2cheb, on plain arrays.
    """
    mid, rad = 0.5 * (a + b), 0.5 * (b - a)
    line = np.array([mid, rad])
    hy = h[-1:]
    for c in h[-2::-1]:
        hy = np.convolve(hy, line)
        hy[0] += c
    g = np.convolve(np.array([rad * rad, 0.0, -rad * rad]), hy)
    cheb = g[-1:]
    for c in g[-2::-1]:
        prd = np.empty(len(cheb) + 1)
        prd[0] = cheb[0] * 0
        prd[1] = cheb[0]
        if len(cheb) > 1:
            tmp = cheb[1:] / 2
            prd[2:] = tmp
            prd[0:-2] += tmp
        prd[0] += c
        cheb = prd
    return cheb


def solve(potential: Potential, t: float, mass: float) -> EquilibriumData:
    """Solve the one-cut problem for V/t with the requested total mass."""
    if not 0.0 < mass <= 1.0:
        raise InvalidParameterError(f"mass must lie in (0, 1], got {mass}")
    if not 0.5 <= t <= 2.0:
        raise InvalidParameterError(f"t must lie in [0.5, 2], got {t}")
    dv1 = potential.deriv_coeffs(1) / t
    dv2 = potential.deriv_coeffs(2) / t
    a, b = _initial_guess(potential, t, mass)
    converged = False
    for _ in range(_NEWTON_MAXIT):
        f, jac = _moment_system(dv1, dv2, a, b)
        f[1] -= mass
        if np.max(np.abs(f)) < _NEWTON_TOL:
            converged = True
            break
        try:
            step = np.linalg.solve(jac, -f)
        except np.linalg.LinAlgError as exc:
            raise NoConvergenceError("singular Jacobian in endpoint iteration") from exc
        lam = _step_length(dv1, mass, a, b, step, np.linalg.norm(f))
        a, b = a + lam * step[0], b + lam * step[1]
    if not converged:
        raise NoConvergenceError(
            f"endpoint Newton failed after {_NEWTON_MAXIT} iterations"
        )
    # Where the density vanishes fast at an edge the Jacobian is tiny, and a
    # residual below the tolerance still leaves that edge off (b by 1.4e-7
    # for eynard e = 2.002): polish with full Newton steps while they shrink,
    # until one is at rounding level.
    last = np.inf
    for _ in range(_POLISH_MAXIT):
        try:
            step = np.linalg.solve(jac, -f)
        except np.linalg.LinAlgError:
            break
        size = np.max(np.abs(step))
        if not (size < last and a + step[0] < b + step[1]):
            break
        a, b, last = a + step[0], b + step[1], size
        if size <= 1e-15 * (abs(a) + abs(b)):
            break
        f, jac = _moment_system(dv1, dv2, a, b)
        f[1] -= mass
    h = _h_from_expansion(dv1, a, b)
    hroots = np.roots(h[::-1]) if len(h) > 1 else np.array([])
    inside = [
        r.real
        for r in hroots
        if abs(r.imag) < 1e-9 and a - 1e-12 <= r.real <= b + 1e-12
    ]
    mid_val = npoly.polyval(0.5 * (a + b), h)
    if inside or mid_val <= 0:
        raise NotOneCutRegularError(
            f"density factor h changes sign on [{a}, {b}]"
        )
    cheb = _cheb_of_band_density(h, a, b)
    eq = EquilibriumData(
        potential=potential,
        mass=mass,
        t=t,
        a=float(a),
        b=float(b),
        h_coeffs=tuple(h),
        ell=0.0,
        cheb=tuple(cheb),
    )
    return replace(eq, ell=lagrange_ell(eq))


def density(eq: EquilibriumData, x):
    """Measure density: (1/pi) sqrt((b-x)(x-a)) h(x) on [a,b], zero outside."""
    x = np.asarray(x, dtype=float)
    band = np.maximum((eq.b - x) * (x - eq.a), 0.0)
    out = np.sqrt(band) * eq.h(x) / np.pi
    out = np.where((x >= eq.a) & (x <= eq.b), out, 0.0)
    return out if out.ndim else float(out)


def q_eval(eq: EquilibriumData, z):
    """q(z) = (z-a)(z-b) h(z)^2, the analytic square of pi * density."""
    z = np.asarray(z)
    out = (z - eq.a) * (z - eq.b) * eq.h(z) ** 2
    return out if out.ndim else complex(out) if np.iscomplexobj(out) else float(out)


def q_eval_resolvent(eq: EquilibriumData, z):
    """Second route to q: (V_t'/2)^2 minus the field-difference moment polynomial.

    q(z) = (V_t'(z)/2)^2 - int (V_t'(z)-V_t'(y))/(z-y) dmu(y); the integral
    is a polynomial in z whose coefficients are moments of the measure.
    Kept as an independent cross-check of q_eval.
    """
    dv1 = eq.potential.deriv_coeffs(1) / eq.t
    deg = len(dv1) - 1
    nq = 128
    j = np.arange(1, nq + 1)
    theta = (2 * j - 1) * np.pi / (2 * nq)
    y = eq.midpoint + eq.radius * np.cos(theta)
    wdens = (eq.radius**2 / nq) * np.sin(theta) ** 2 * eq.h(y)
    moments = np.array([np.sum(wdens * y**m) for m in range(deg)])
    poly = np.zeros(deg)
    for p in range(deg):
        poly[p] = sum(dv1[i] * moments[i - 1 - p] for i in range(p + 1, deg + 1))
    z = np.asarray(z)
    out = (npoly.polyval(z, dv1) / 2.0) ** 2 - npoly.polyval(z, poly)
    return out if out.ndim else complex(out) if np.iscomplexobj(out) else float(out)


def log_potential(eq: EquilibriumData, x):
    """int log|x - y| dmu(y), exact through the Chebyshev log-kernel expansion."""
    c = np.asarray(eq.cheb)
    k = np.arange(1, len(c))
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    yb = (x - eq.midpoint) / eq.radius
    out = np.empty_like(x)
    inside = np.abs(yb) <= 1.0
    if inside.any():
        theta = np.arccos(np.clip(yb[inside], -1.0, 1.0))
        out[inside] = c[0] * np.log(eq.radius / 2.0) - np.cos(
            np.outer(theta, k)
        ) @ (c[1:] / k)
    if (~inside).any():
        yo = yb[~inside]
        w = yo + np.sign(yo) * np.sqrt(yo * yo - 1.0)
        out[~inside] = c[0] * (np.log(eq.radius) + np.log(np.abs(w) / 2.0)) - (
            np.power.outer(w, -k) @ (c[1:] / k)
        )
    return float(out[0]) if scalar else out


def lagrange_ell(eq: EquilibriumData) -> float:
    """Lagrange constant: 2 * log_potential - V_t at the band's midpoint."""
    return 2.0 * log_potential(eq, eq.midpoint) - float(eq.vt(eq.midpoint))


def variational_residual(eq: EquilibriumData, x):
    """r(x) = 2 int log|x-y| dmu - V_t(x) - ell.

    Vanishes on the band, is strictly negative off it except where the
    inequality degenerates (a gap-closing point), where it vanishes too.
    """
    return 2.0 * log_potential(eq, x) - eq.vt(x) - eq.ell


def phi(eq: EquilibriumData, x: float) -> float:
    """phi(x) = -int_b^x q^{1/2}(s) ds for x >= b, with the signed branch.

    phi(b) = 0 and phi < 0 just beyond b; the sign of q^{1/2} follows h,
    so phi climbs back to zero exactly at a gap-closing point. Beyond b the
    variational residual r = 2 U - V_t - ell has r' = 2 U' - V_t' =
    -2 sqrt((x-a)(x-b)) h(x) and r(b) = 0, so phi = r / 2 exactly, through
    any zeros of h; r comes from the exact Chebyshev log-kernel sum.
    """
    if x < eq.b - 1e-12 * (1.0 + abs(eq.b)):
        raise InvalidParameterError(f"phi requires x >= b = {eq.b}, got {x}")
    if x <= eq.b:
        return 0.0
    return 0.5 * float(variational_residual(eq, x))
