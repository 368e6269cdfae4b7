from dataclasses import replace

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from rmtlab import (
    critical,
    equilibrium,
    InvalidParameterError,
    NoConvergenceError,
    NoSingularPointError,
    Potential,
    PrecisionLimitError,
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
    unit_equilibrium,
)


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


@pytest.mark.parametrize("e", [2.02, 2.05])
def test_detect_near_band_edge(e):
    # the intermediate zero ee sits so close to b that |phi(ee)| < 1e-6;
    # h falls through zero there, so it is no candidate
    pot, ee = make_eynard(e)
    eq = unit_equilibrium(pot)
    assert abs(phi(eq, ee)) < 1e-6
    assert abs(detect_singular(pot) - e) < 1e-10


def test_band_edge_pinned_near_birth():
    # the density vanishes fast at b and the endpoint Jacobian is 1.7e-7, so
    # a moment residual below the Newton tolerance alone leaves b off by 1.4e-7
    pot, _ = make_eynard(2.002)
    assert abs(unit_equilibrium(pot).b - 2.0) <= 1e-9
    assert abs(detect_singular(pot) - 2.002) <= 1e-9


@pytest.mark.parametrize("d", [1.0, 5e-2, 1e-2, 1e-3, 1e-4])
def test_detect_within_the_edge_floor(d):
    # the floor estimate bounds the error of b; a returned x* has b known to
    # a tenth of x* - b, and lies within the floor of e
    pot, _ = make_eynard(2.0 + d)
    eq = unit_equilibrium(pot)
    floor = equilibrium._b_error(eq)
    assert abs(eq.b - 2.0) <= floor
    x_star = detect_singular(pot)
    assert floor <= 0.1 * (x_star - eq.b)
    assert abs(x_star - (2.0 + d)) <= floor


@pytest.mark.parametrize("d", [3e-5, 1e-5, 3e-6, 1e-6, 3e-7])
def test_detect_refuses_below_the_edge_floor(d):
    # b is known no better than a tenth of its gap to the nearest zero of h:
    # a typed refusal naming b, the floor and the gap, where detect gave a
    # wrong x* (3e-5) or no-singular-point
    pot, _ = make_eynard(2.0 + d)
    eq = unit_equilibrium(pot)
    floor = equilibrium._b_error(eq)
    assert abs(eq.b - 2.0) <= floor
    gap = np.min(np.abs(np.roots(np.asarray(eq.h_coeffs)[::-1]) - eq.b))
    assert floor > 0.1 * gap
    with pytest.raises(PrecisionLimitError) as info:
        detect_singular(pot)
    assert f"b = {eq.b:.12g}" in str(info.value)
    assert f"{floor:.1e}" in str(info.value) and f"gap {gap:.1e}" in str(info.value)
    with pytest.raises(PrecisionLimitError):
        make_scaling(pot, 160, 1.0)


def test_curvature_cross_check(eynard3_pot):
    x_star = detect_singular(eynard3_pot)
    c = curvature_c(eynard3_pot, x_star)
    eq = unit_equilibrium(eynard3_pot)
    f_prime = exact_q_second(eq, x_star) ** 0.25 / 2.0**0.25
    assert abs(c - f_prime**2) / c < 1e-4


@pytest.mark.parametrize("e", [2.5, 3.0, 4.0])
def test_curvature_eynard_closed_form(e):
    # q = (x^2 - 4) (x - e)^2 (x - ee)^2 / (1 + e ee)^2 for the eynard field
    pot, ee = make_eynard(e)
    closed = np.sqrt(e * e - 4.0) * abs(e - ee) / (2.0 * (1.0 + e * ee))
    assert abs(curvature_c(pot, detect_singular(pot)) - closed) < 1e-12 * closed


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
    # near the edge J = 2 sqrt((x - b) / (b - a)) (1 - (x - b) / (6 (b - a)) + ...)
    x = 2.0 + 1e-10
    gap = x - 2.0  # exact
    oracle = 2.0 * np.sqrt(gap / 4.0) * (1.0 - gap / 24.0)
    assert abs(scaling_J(-2.0, 2.0, x) - oracle) < 1e-14 * oracle


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
    # s_to_t's inverse, s = 2 (t-1) (n / log n) J
    J = 0.9624236501192069
    t = s_to_t(1.7, 80, J)
    assert abs(2.0 * (t - 1.0) * 80 / np.log(80) * J - 1.7) < 1e-14


def test_make_scaling_integer_s(eynard3_pot):
    p = make_scaling(eynard3_pot, 100, 1.0)
    assert p.m == 0.01 and p.nu == 1.0 and p.k == 1 and p.delta == 0.0


def test_make_scaling_negative_s(eynard3_pot):
    p = make_scaling(eynard3_pot, 100, -0.5)
    assert p.m == 0.0 and p.nu == 0.0 and p.k == 0 and p.delta == 0.0
    assert p.t < 1.0
    assert p.json_dict()["x_star_nt"] == p.x_star


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


@pytest.mark.parametrize("s", [float("nan"), float("inf"), -float("inf")])
def test_make_scaling_rejects_non_finite_s(eynard3_pot, s):
    with pytest.raises(InvalidParameterError, match=r"\|s\| <= 8.0 required"):
        make_scaling(eynard3_pot, 100, s)


def test_find_xstar_nt_unit_branch(eynard3_pot):
    x = find_xstar_nt(eynard3_pot, 0.99, 0.0)
    assert abs(x - 3.0) < 1e-6


def test_find_xstar_nt_desk_scale_breakdown(eynard3_pot):
    # the reduced-mass one-cut band reaches x* at these parameters, so
    # find_xstar_nt must refuse rather than return a point inside the band;
    # the bundle's JSON record falls back to x*
    J = scaling_J(-2.0, 2.0, 3.0)
    t = s_to_t(1.0, 160, J)
    with pytest.raises(NoConvergenceError):
        find_xstar_nt(eynard3_pot, t, 1.0 / 160.0)
    params = replace(make_scaling(eynard3_pot, 160, 1.0), t=t, m=1.0 / 160.0)
    assert abs(params.json_dict()["x_star_nt"] - 3.0) < 1e-6


def test_nonpositive_s_reuses_unit_mass_solve(eynard3_pot):
    p = make_scaling(eynard3_pot, 120, -1.0)
    eq_direct = solve(eynard3_pot, p.t, 1.0)
    eq_again = solve(eynard3_pot, p.t, 1.0)
    assert eq_direct.a == eq_again.a and eq_direct.b == eq_again.b
    assert eq_direct.h_coeffs == eq_again.h_coeffs


@pytest.mark.parametrize("n", [240, 300])
def test_make_scaling_survives_reduced_mass_no_convergence(eynard3_pot, n):
    # the reduced-mass endpoint Newton does not converge here; the bundle
    # does not need the reduced-mass point, and its JSON record falls back to x*
    params = make_scaling(eynard3_pot, n, 1.0)
    assert params.json_dict()["x_star_nt"] == params.x_star
    with pytest.raises(NoConvergenceError):
        find_xstar_nt(eynard3_pot, params.t, params.m)


def test_make_scaling_never_computes_x_star_nt(eynard3_pot, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("x_star_nt computed")

    monkeypatch.setattr(critical, "find_xstar_nt", refuse)
    params = make_scaling(eynard3_pot, 160, 1.0)
    assert params.k == 1
    with pytest.raises(AssertionError):
        params.json_dict()


def test_x_star_nt_one_find_per_json_dict(eynard3_pot, monkeypatch):
    # the bundle caches nothing: each JSON record calls find_xstar_nt once
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return 2.5

    monkeypatch.setattr(critical, "find_xstar_nt", counting)
    params = make_scaling(eynard3_pot, 160, 1.0)
    for reads in (1, 2):
        assert params.json_dict()["x_star_nt"] == 2.5
        assert len(calls) == reads
    assert calls[0] == (eynard3_pot, params.t, params.m)


@pytest.mark.parametrize("s", [-1.0, 0.0, 1.0, 2.0])
def test_json_x_star_nt_is_nonstrict_find(eynard3_pot, s):
    # find_xstar_nt's point, or x* where it raises
    params = make_scaling(eynard3_pot, 120, s)
    try:
        expected = find_xstar_nt(eynard3_pot, params.t, params.m)
    except NoConvergenceError:
        expected = params.x_star
    assert params.json_dict()["x_star_nt"] == expected


def test_geometry_errors_raised_on_every_call(quadratic):
    for _ in range(2):
        with pytest.raises(NoSingularPointError):
            make_scaling(quadratic, 100, 1.0)
        with pytest.raises(NoSingularPointError):
            detect_singular(quadratic)


_TOTALITY_N = [2, 3, 5, 17, 40, 119, 160, 240, 300, 641, 1280, 3200]
_TOTALITY_S = [-8.0, -2.5, -0.3, 0.0, 0.4, 1.0, 1.5, 2.7, 5.0, 8.0]


# the (n, s) whose t = 1 + s log(n) / (2 n J) is not positive
_NONPOSITIVE_T = {3.0: [(2, -8.0), (3, -8.0), (5, -8.0)], 4.0: [(2, -8.0), (3, -8.0)]}


@pytest.mark.parametrize("e", [3.0, 4.0])
def test_make_scaling_total(e):
    # a finite bundle, or a refusal exactly where t would not be positive
    pot, _ = make_eynard(e)
    refused = []
    for n in _TOTALITY_N:
        for s in _TOTALITY_S:
            try:
                d = make_scaling(pot, n, s).json_dict()
            except InvalidParameterError:
                refused.append((n, s))
                continue
            assert all(np.isfinite(v) for v in d.values()), (n, s, d)
    assert refused == _NONPOSITIVE_T[e]


@pytest.mark.parametrize(
    "e, n", [(e, n) for e, pairs in _NONPOSITIVE_T.items() for n, _ in pairs]
)
def test_make_scaling_refusal_names_n_and_s(e, n):
    pot, _ = make_eynard(e)
    J = scaling_J(-2.0, 2.0, e)
    assert s_to_t(-8.0, n, J) <= 0.0
    with pytest.raises(InvalidParameterError, match=f"s = -8.0 is too negative at n = {n}"):
        make_scaling(pot, n, -8.0)


def test_nonstrict_polish_stall_falls_back(eynard3_pot, monkeypatch):
    # t = 1.05, m = 0.05 has a valid reduced-mass band clear of x*
    x_star = detect_singular(eynard3_pot)
    assert abs(find_xstar_nt(eynard3_pot, 1.05, 0.05) - x_star) < 0.1
    params = replace(make_scaling(eynard3_pot, 120, 1.0), t=1.05, m=0.05)
    monkeypatch.setattr(critical, "_polish_root", lambda h, dh, x0: x0 + 1.0)
    with pytest.raises(NoConvergenceError, match="root polish stalled"):
        find_xstar_nt(eynard3_pot, 1.05, 0.05)
    assert params.json_dict()["x_star_nt"] == x_star


def test_phix_growth_check_rejects_nonpositive_s(eynard3_pot):
    with pytest.raises(InvalidParameterError):
        phix_growth_check(eynard3_pot, 0.0, [40])


@pytest.mark.parametrize("s", [float("nan"), 8.5])
def test_phix_growth_check_rejects_s_outside_make_scaling_range(eynard3_pot, s):
    # t and m come from make_scaling, which refuses NaN and |s| > 8
    with pytest.raises(InvalidParameterError, match=r"0 < s <= 8.0 required"):
        phix_growth_check(eynard3_pot, s, [40])


def test_phix_growth_check_quartic_e4():
    # the reduced-mass realization holds at e = 4, s = 1 from n = 40 on;
    # d_n measured -1.3838, -1.3685, -1.3541, -1.3424, pinned to 1e-3,
    # and both bounds of acceptance criterion 12 hold
    pot, _ = make_eynard(4.0)
    d = phix_growth_check(pot, 1.0, [40, 80, 160, 320])
    assert d == pytest.approx([-1.3838, -1.3685, -1.3541, -1.3424], abs=1e-3)
    assert max(abs(x) for x in d) < 10.0 * abs(d[0])
    assert abs(d[3]) < 3.0 * abs(d[0])


@pytest.mark.parametrize(
    "e, n_list", [(4.0, [320, 1280, 5120]), (3.0, [640, 2560])], ids=["e4", "e3"]
)
def test_phix_growth_check_tends_to_minus_s_J(e, n_list):
    # the growth law's limit: d_n -> -s J with |d_n + s J| <= (log n)^2 / n;
    # measured ratios 0.244, 0.265, 0.280 at e = 4 and 0.897, 0.913 at e = 3,
    # where the margin is only about 9%
    pot, _ = make_eynard(e)
    d = phix_growth_check(pot, 1.0, n_list)
    for n, d_n in zip(n_list, d):
        J = make_scaling(pot, n, 1.0).J
        assert abs(d_n + J) <= np.log(n) ** 2 / n, (n, d_n, J)


def test_phix_growth_check_desk_scale(eynard3_pot):
    # the reduced-mass realization underlying the growth residuals is
    # invalid at desk scale for this potential; the check must fail loudly
    with pytest.raises(NoConvergenceError):
        phix_growth_check(eynard3_pot, 1.0, [40, 80])


def test_scaling_json_fields(eynard3_pot):
    # the keys come from the fields: a new field must show up here
    d = make_scaling(eynard3_pot, 100, 1.0).json_dict()
    assert len(d) == 11
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
