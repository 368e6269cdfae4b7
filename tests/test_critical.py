import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from rmtlab import (
    InvalidParameterError,
    NoConvergenceError,
    NoSingularPointError,
    Potential,
    curvature_c,
    detect_singular,
    find_xstar_nt,
    make_eynard,
    make_scaling,
    phi,
    phix_growth_check,
    s_to_t,
    scaling_J,
    solve,
    t_to_s,
    unit_equilibrium,
)
from rmtlab.critical import _q_second_derivative
from rmtlab.equilibrium import _phi_fixed

# the reduced-mass realization warnings are expected behavior at these sizes
pytestmark = pytest.mark.filterwarnings("ignore:reduced-mass band")


def exact_q_second(eq, x):
    """Oracle: q'' from explicit polynomial differentiation of (z-a)(z-b)h^2."""
    h = np.asarray(eq.h_coeffs)
    q = npoly.polymul(npoly.polymul([-eq.a, 1.0], [-eq.b, 1.0]), npoly.polymul(h, h))
    return npoly.polyval(x, npoly.polyder(q, 2))


def test_detect_eynard(eynard3_pot):
    assert abs(detect_singular(eynard3_pot) - 3.0) < 1e-6


def test_detect_quadratic_has_none(quadratic):
    with pytest.raises(NoSingularPointError):
        detect_singular(quadratic)


def test_detect_rejects_intermediate_zero(eynard3):
    pot, ee = eynard3
    x_star = detect_singular(pot)
    assert abs(x_star - ee) > 0.5
    eq = unit_equilibrium(pot)
    assert abs(phi(eq, ee)) > 1e-4  # sign-flip point, not an equality point


def test_detect_stable_under_quadrature_refinement(eynard3):
    pot, ee = eynard3
    eq = unit_equilibrium(pot)
    for x in (ee, 3.0):
        coarse = _phi_fixed(eq, x, 8)
        fine = _phi_fixed(eq, x, 16)
        assert abs(coarse - fine) < 1e-10


def test_curvature_cross_check(eynard3_pot):
    x_star = detect_singular(eynard3_pot)
    c = curvature_c(eynard3_pot, x_star)
    eq = unit_equilibrium(eynard3_pot)
    f_prime = exact_q_second(eq, x_star) ** 0.25 / 2.0**0.25
    assert abs(c - f_prime**2) / c < 1e-4


def test_curvature_fd_matches_exact(eynard3_pot):
    eq = unit_equilibrium(eynard3_pot)
    x_star = detect_singular(eynard3_pot)
    assert abs(_q_second_derivative(eq, x_star) - exact_q_second(eq, x_star)) < 1e-9


def test_curvature_dilation_scaling(eynard3_pot):
    # W(x) = V(2x) halves the geometry: q'' picks up 2^4, c picks up 2^2
    w = Potential(tuple(c * 2.0**j for j, c in enumerate(eynard3_pot.coeffs)))
    x_star_w = detect_singular(w)
    assert abs(x_star_w - 1.5) < 1e-6
    c_ratio = curvature_c(w, x_star_w) / curvature_c(eynard3_pot, 3.0)
    assert abs(c_ratio - 4.0) < 1e-6
    eq_w = unit_equilibrium(w)
    eq_v = unit_equilibrium(eynard3_pot)
    qdd_ratio = exact_q_second(eq_w, x_star_w) / exact_q_second(eq_v, 3.0)
    assert abs(qdd_ratio - 16.0) < 1e-6


@pytest.mark.parametrize("e", [2.5, 3.0, 4.0])
def test_curvature_positive(e):
    pot, _ = make_eynard(e)
    x_star = detect_singular(pot)
    assert curvature_c(pot, x_star) > 0.0


def test_scaling_J_closed_form():
    oracle = 2.0 * np.log((1.0 + np.sqrt(5.0)) / 2.0)
    assert abs(scaling_J(-2.0, 2.0, 3.0) - oracle) < 1e-10


def test_scaling_J_shrinking_window():
    assert scaling_J(-2.0, 2.0, 2.0 + 1e-10) < 1e-4


def test_scaling_J_validates_order():
    with pytest.raises(InvalidParameterError):
        scaling_J(2.0, -2.0, 3.0)


def test_s_to_t_value():
    val = s_to_t(1.0, 100, 0.9624237)
    assert abs(val - (1.0 + np.log(100.0) / (200.0 * 0.9624237))) < 1e-15
    assert abs(val - 1.0239249) < 1e-6


def test_s_to_t_fixed_point():
    assert s_to_t(0.0, 50, 0.7) == 1.0


def test_round_trip():
    J = 0.9624236501192069
    assert abs(t_to_s(s_to_t(1.7, 80, J), 80, J) - 1.7) < 1e-14


def test_make_scaling_integer_s(eynard3_pot):
    p = make_scaling(eynard3_pot, 100, 1.0)
    assert p.m == 0.01 and p.nu == 1.0 and p.k == 1 and p.delta == 0.0


def test_make_scaling_negative_s(eynard3_pot):
    p = make_scaling(eynard3_pot, 100, -0.5)
    assert p.m == 0.0 and p.nu == 0.0 and p.k == 0 and p.delta == 0.0
    assert p.t < 1.0
    assert p.x_star_nt == p.x_star


def test_make_scaling_half_integer_tie(eynard3_pot):
    p = make_scaling(eynard3_pot, 100, 1.5)
    assert p.nu == 1.5 and p.k == 2 and p.delta == -0.5


@pytest.mark.parametrize("s", [-2.0, 0.3, 0.8, 1.5, 2.7, 4.25])
def test_nu_decomposition_exact(eynard3_pot, s):
    p = make_scaling(eynard3_pot, 160, s)
    assert p.nu == p.k + p.delta
    assert abs(p.delta) <= 0.5
    assert p.k >= 0


def test_make_scaling_rejects_large_s(eynard3_pot):
    with pytest.raises(InvalidParameterError):
        make_scaling(eynard3_pot, 100, 9.0)


def test_find_xstar_nt_unit_branch(eynard3_pot):
    x = find_xstar_nt(eynard3_pot, 100, 0.99, 0.0)
    assert abs(x - 3.0) < 1e-6


def test_find_xstar_nt_desk_scale_breakdown(eynard3_pot):
    # the reduced-mass one-cut band reaches x* at these parameters, so the
    # strict mode must refuse rather than return a point inside the band
    J = scaling_J(-2.0, 2.0, 3.0)
    t = s_to_t(1.0, 160, J)
    with pytest.raises(NoConvergenceError):
        find_xstar_nt(eynard3_pot, 160, t, 1.0 / 160.0, strict=True)
    with pytest.warns(UserWarning):
        x = find_xstar_nt(eynard3_pot, 160, t, 1.0 / 160.0, strict=False)
    assert abs(x - 3.0) < 1e-6


def test_nonpositive_s_reuses_unit_mass_solve(eynard3_pot):
    p = make_scaling(eynard3_pot, 120, -1.0)
    eq_direct = solve(eynard3_pot, p.t, 1.0)
    eq_again = solve(eynard3_pot, p.t, 1.0)
    assert eq_direct.a == eq_again.a and eq_direct.b == eq_again.b
    assert eq_direct.h_coeffs == eq_again.h_coeffs


@pytest.mark.parametrize("n", [240, 300])
def test_make_scaling_survives_reduced_mass_no_convergence(eynard3_pot, n):
    # the reduced-mass endpoint Newton does not converge here; the kernel
    # does not need x_star_nt, so non-strict mode falls back to x*
    with pytest.warns(UserWarning):
        params = make_scaling(eynard3_pot, n, 1.0)
    assert params.x_star_nt == params.x_star
    with pytest.raises(NoConvergenceError):
        find_xstar_nt(eynard3_pot, n, params.t, params.m, strict=True)


def test_phix_growth_check_rejects_nonpositive_s(eynard3_pot):
    with pytest.raises(InvalidParameterError):
        phix_growth_check(eynard3_pot, 0.0, [40])


def test_phix_growth_check_desk_scale(eynard3_pot):
    # the reduced-mass realization underlying the growth residuals is
    # invalid at desk scale for this potential; the check must fail loudly
    with pytest.raises(NoConvergenceError):
        phix_growth_check(eynard3_pot, 1.0, [40, 80])


def test_scaling_json_fields(eynard3_pot):
    d = make_scaling(eynard3_pot, 100, 1.0).json_dict()
    assert set(d) == {
        "n", "t", "s", "nu", "k", "delta", "m", "x_star", "x_star_nt", "c", "J",
    }


def test_scaling_json_emission(eynard3_pot):
    import json as stdjson

    from rmtlab.serialize import json_dumps

    params = make_scaling(eynard3_pot, 100, 1.0)
    text = json_dumps(params.json_dict())
    parsed = stdjson.loads(text)
    assert parsed["n"] == 100
    assert parsed["t"] == params.t  # 17 significant digits round-trip exactly
    keys = list(stdjson.loads(text, object_pairs_hook=lambda p: [k for k, _ in p]))
    assert keys == sorted(keys)
