import re

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly
from numpy.polynomial.legendre import leggauss

from rmtlab import InvalidParameterError, Potential, from_config, make_eynard


def antideriv_sqrt_moment(x, m):
    """Closed-form antiderivative of x^m sqrt(x^2 - 4) for m = 0, 1, 2."""
    root = np.sqrt(x * x - 4.0)
    if m == 0:
        return x * root / 2.0 - 2.0 * np.log(x + root)
    if m == 1:
        return (x * x - 4.0) ** 1.5 / 3.0
    if m == 2:
        return x * (x * x - 4.0) ** 1.5 / 4.0 + x * root / 2.0 - 2.0 * np.log(x + root)
    raise ValueError(m)


def ee_closed_form(e):
    a0 = antideriv_sqrt_moment(e, 0) - antideriv_sqrt_moment(2.0, 0)
    a1 = antideriv_sqrt_moment(e, 1) - antideriv_sqrt_moment(2.0, 1)
    a2 = antideriv_sqrt_moment(e, 2) - antideriv_sqrt_moment(2.0, 2)
    return (a2 - e * a1) / (a1 - e * a0)


def test_eval_value():
    v = Potential((0.0, 0.0, 1.0))
    assert v.eval(3.0, 0) == 9.0


def test_eval_first_derivative():
    v = Potential((0.0, 0.0, 1.0))
    assert v.eval(3.0, 1) == 6.0


def test_eval_second_derivative():
    v = Potential((0.0, 0.0, 0.0, 0.0, 0.25))
    assert v.eval(2.0, 2) == 12.0


def test_eval_order_bound():
    v = Potential((0.0, 0.0, 1.0))
    with pytest.raises(InvalidParameterError):
        v.eval(1.0, 4)


@pytest.mark.parametrize(
    "coeffs",
    [(0.0, 0.0, 1.0), (0.0, 1.0, -0.5, 0.0, 0.25), (1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5)],
)
@pytest.mark.parametrize("x", [-1.0, 0.3, 2.7])
def test_derivative_matches_finite_difference(coeffs, x):
    v = Potential(coeffs)
    h = 1e-6 * (1.0 + abs(x))
    fd = (v.eval(x + h) - v.eval(x - h)) / (2.0 * h)
    exact = v.eval(x, 1)
    assert abs(fd - exact) <= 1e-6 * (1.0 + abs(exact))


def test_degree_validation():
    with pytest.raises(InvalidParameterError):
        Potential((0.0, 1.0, 0.0, 2.0))  # odd degree
    with pytest.raises(InvalidParameterError):
        Potential((0.0, 0.0, -1.0))  # negative leading coefficient
    with pytest.raises(InvalidParameterError):
        Potential((0.0,) * 22 + (1.0,))  # degree above the supported cap
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(InvalidParameterError, match="finite"):
            Potential((bad, 0.0, 1.0))


def test_trailing_zeros_trimmed():
    v = Potential((0.0, 0.0, 1.0, 0.0, 0.0))
    assert v.degree == 2


def test_eynard_ee_against_closed_form():
    _, ee = make_eynard(3.0)
    assert abs(ee - ee_closed_form(3.0)) < 1e-12
    assert abs(ee - 2.4347044110853) < 1e-6


def test_eynard_defining_residual():
    _, ee = make_eynard(3.0)
    xs, ws = leggauss(400)
    u = (xs + 1.0) / 2.0  # x = 2 + u^2 over [2, 3]
    x = 2.0 + u * u
    w = ws * u  # includes the half-panel jacobian times 2u
    residual = np.sum(w * (x - 3.0) * (x - ee) * np.sqrt(x * x - 4.0))
    assert abs(residual) < 1e-10


def test_eynard_rejects_small_e():
    for e in (2.0, np.nan, np.inf):
        with pytest.raises(InvalidParameterError):
            make_eynard(e)
    # near 2 the moments cancel: no quotient at 2 + 1e-15 (i1 is zero), and
    # ee = 1.99999985 at 2 + 1e-8; at 1e100 they overflow to NaN
    for e in (2.000000000000001, 2.00000001, 1e100):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(InvalidParameterError, match=re.escape(f"e = {e} puts")):
                make_eynard(e)


@pytest.mark.parametrize("e", [2.1, 2.5, 3.0, 4.0, 5.0])
def test_eynard_intermediate_zero_location(e):
    _, ee = make_eynard(e)
    assert 2.0 < ee < e


def test_config_poly():
    v = from_config({"type": "poly", "coeffs": [0.0, 0.0, 1.0, 0.0]})
    assert v.coeffs == (0.0, 0.0, 1.0)


def test_config_eynard():
    v = from_config({"type": "eynard", "e": 3.0})
    assert v.degree == 4


def test_config_rejects_unknown():
    for cfg in (
        {"type": "spline"},
        [1, 2],
        {"type": "poly", "coeffs": ["a", 1]},
        {"type": "poly", "coeffs": [0, 0, [1]]},
        {"type": "eynard", "e": None},
        {"type": "eynard", "e": "three"},
    ):
        with pytest.raises(InvalidParameterError):
            from_config(cfg)


def test_deriv_coeffs_shared_read_only():
    pot = Potential((0.5, -1.0, 2.0, 0.3, 1.5))
    c = np.asarray(pot.coeffs)
    for order in range(pot.degree + 3):
        got = pot.deriv_coeffs(order)
        assert got is pot.deriv_coeffs(order)
        assert not got.flags.writeable
        want = npoly.polyder(c, order) if order <= pot.degree else np.zeros(1)
        assert np.array_equal(got, want)
        with pytest.raises(ValueError):
            got[0] = 1.0
