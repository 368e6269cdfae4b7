"""Polynomial external fields V and the quartic example with a closing gap."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.polynomial import polynomial as npoly
from numpy.polynomial.legendre import leggauss

from .errors import InvalidParameterError

MAX_DEGREE = 20


@dataclass(frozen=True)
class Potential:
    """Real polynomial field V(x) = sum_j coeffs[j] x^j.

    The degree must be even with positive leading coefficient so that
    exp(-n V) is integrable and V grows faster than log(x^2+1).
    Immutable; all operations are pure.
    """

    coeffs: tuple[float, ...]

    def __post_init__(self):
        c = tuple(float(v) for v in self.coeffs)
        # trim trailing zeros before validating the degree
        while len(c) > 1 and c[-1] == 0.0:
            c = c[:-1]
        object.__setattr__(self, "coeffs", c)
        d = self.degree
        if d < 2 or d % 2 != 0:
            raise InvalidParameterError(f"degree must be even and >= 2, got {d}")
        if c[-1] <= 0.0:
            raise InvalidParameterError("leading coefficient must be positive")
        if d > MAX_DEGREE:
            raise InvalidParameterError(f"degree {d} exceeds supported maximum {MAX_DEGREE}")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @cached_property
    def _derivs(self) -> tuple[np.ndarray, ...]:
        c = np.asarray(self.coeffs, dtype=float)
        out = [c]
        for _ in range(self.degree + 1):
            c = npoly.polyder(c)
            out.append(c)
        for arr in out:
            arr.flags.writeable = False
        return tuple(out)

    def deriv_coeffs(self, order: int = 1) -> np.ndarray:
        """Coefficients of the order-th derivative of V, cached read-only.

        Orders above degree + 1 give the zero polynomial [0.] like that one.
        """
        derivs = self._derivs
        return derivs[min(max(order, 0), len(derivs) - 1)]

    def eval(self, x, order: int = 0):
        """Evaluate the order-th derivative of V at x (order 0 is V itself).

        Horner evaluation of the differentiated coefficient list; exact
        polynomial arithmetic, vectorized over array input.
        """
        if order < 0 or order > self.degree + 1:
            raise InvalidParameterError(f"order must be in [0, {self.degree + 1}]")
        return npoly.polyval(x, self.deriv_coeffs(order))


_GL_NODES, _GL_WEIGHTS = leggauss(120)


def _edge_moment(e: float, m: int) -> float:
    """Integral of x^m sqrt(x^2-4) over [2, e], via x = 2 + u^2."""
    span = np.sqrt(e - 2.0)
    u = span * (_GL_NODES + 1.0) / 2.0
    x = 2.0 + u * u
    w = _GL_WEIGHTS * span * u  # du * 2u, halved panel jacobian folded in
    return float(np.sum(w * x**m * np.sqrt(x * x - 4.0)))


def make_eynard(e: float) -> tuple[Potential, float]:
    """Quartic field whose equilibrium measure fills [-2,2] and degenerates at x = e.

    V(x) = (x^4/4 - (e+ee)/3 x^3 + (e*ee-2)/2 x^2 + 2(e+ee) x) / (1+e*ee)
    with ee chosen so that the signed area int_2^e (x-e)(x-ee) sqrt(x^2-4) dx
    vanishes. The defining integral is linear in ee, so ee = I2/I1 with
    I1 = int (x-e) sqrt(x^2-4), I2 = int x(x-e) sqrt(x^2-4) over [2, e].
    """
    if e <= 2.0:
        raise InvalidParameterError(f"e must exceed 2, got {e}")
    a0 = _edge_moment(e, 0)
    a1 = _edge_moment(e, 1)
    a2 = _edge_moment(e, 2)
    i1 = a1 - e * a0
    i2 = a2 - e * a1
    ee = i2 / i1
    if not (2.0 < ee < e):
        warnings.warn(
            f"intermediate zero ee={ee} fell outside (2, e={e}); "
            "gap structure may differ from the one-interval picture",
            stacklevel=2,
        )
    pref = 1.0 / (1.0 + e * ee)
    coeffs = (
        0.0,
        pref * 2.0 * (e + ee),
        pref * (e * ee - 2.0) / 2.0,
        -pref * (e + ee) / 3.0,
        pref / 4.0,
    )
    return Potential(coeffs), ee


def from_config(cfg: dict) -> Potential:
    """Build a Potential from its JSON config form.

    {"type": "poly", "coeffs": [c0, ..., cd]} or {"type": "eynard", "e": 3.0}.
    """
    kind = cfg.get("type")
    if kind == "poly":
        coeffs = cfg.get("coeffs")
        if not isinstance(coeffs, (list, tuple)) or not coeffs:
            raise InvalidParameterError("poly config needs a nonempty coeffs list")
        return Potential(tuple(float(c) for c in coeffs))
    if kind == "eynard":
        if "e" not in cfg:
            raise InvalidParameterError("eynard config needs field e")
        return make_eynard(float(cfg["e"]))[0]
    raise InvalidParameterError(f"unknown potential type {kind!r}")
