from dataclasses import replace

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from rmtlab import (
    BranchCutError,
    NoConvergenceError,
    NotOneCutRegularError,
    Potential,
    RmtlabError,
    density,
    g_function,
    lagrange_ell,
    log_potential,
    make_eynard,
    make_scaling,
    phi,
    q_eval,
    q_eval_resolvent,
    solve,
    variational_residual,
)
from rmtlab.equilibrium import (
    EquilibriumData,
    _h_from_expansion,
    _initial_guess,
    moment_residuals,
)

from conftest import brute_log_potential


@pytest.fixture(scope="module")
def semicircle(quadratic):
    return solve(quadratic, 1.0, 1.0)


@pytest.fixture(scope="module")
def eynard_eq(eynard3_pot):
    return solve(eynard3_pot, 1.0, 1.0)


def semicircle_phi_closed_form(x):
    """-(int_sqrt2^x sqrt(s^2-2) ds) from the explicit antiderivative."""

    def F(s):
        return s * np.sqrt(s * s - 2.0) / 2.0 - np.log(s + np.sqrt(s * s - 2.0))

    return -(F(x) - F(np.sqrt(2.0)))


def test_semicircle_endpoints(semicircle):
    assert abs(semicircle.a + np.sqrt(2.0)) < 1e-10
    assert abs(semicircle.b - np.sqrt(2.0)) < 1e-10


def test_semicircle_h_is_one(semicircle):
    assert len(semicircle.h_coeffs) == 1
    assert abs(semicircle.h_coeffs[0] - 1.0) < 1e-10


def test_semicircle_ell(semicircle):
    assert abs(semicircle.ell + 1.0 + np.log(2.0)) < 1e-8


def test_reduced_mass_semicircle_endpoint(quadratic):
    eq = solve(quadratic, 1.0, 0.99)
    assert abs(eq.b - np.sqrt(1.98)) < 1e-8


def test_eynard_endpoints(eynard_eq):
    assert abs(eynard_eq.a + 2.0) < 1e-8
    assert abs(eynard_eq.b - 2.0) < 1e-8


@pytest.mark.parametrize("mass", [1.0, 0.99, 0.9])
def test_moment_residuals_small(quadratic, eynard3_pot, mass):
    for pot in (quadratic, eynard3_pot):
        eq = solve(pot, 1.0, mass)
        r1, r2 = moment_residuals(pot, 1.0, eq.a, eq.b, mass)
        assert abs(r1) < 1e-12
        assert abs(r2) < 1e-12


@pytest.mark.parametrize("mass", [1.0, 0.99, 0.9])
def test_mass_normalization(eynard3_pot, mass):
    eq = solve(eynard3_pot, 1.0, mass)
    # periodic trapezoid in the angle variable, independent of the solver
    theta = np.linspace(0.0, np.pi, 20001)
    y = eq.midpoint + eq.radius * np.cos(theta)
    integrand = eq.radius**2 / np.pi * np.sin(theta) ** 2 * eq.h(y)
    total = np.trapezoid(integrand, theta)
    assert abs(total - mass) < 1e-10


def test_density_values(semicircle):
    assert abs(density(semicircle, 0.0) - np.sqrt(2.0) / np.pi) < 1e-12
    assert density(semicircle, semicircle.b) == 0.0
    assert density(semicircle, semicircle.b + 1.0) == 0.0


def test_q_semicircle(semicircle):
    assert abs(q_eval(semicircle, 2.0) - 2.0) < 1e-12
    assert abs(q_eval(semicircle, semicircle.b)) < 1e-14
    assert abs(q_eval_resolvent(semicircle, 2.0) - 2.0) < 1e-12


def test_q_eynard_double_zero(eynard_eq):
    assert abs(q_eval(eynard_eq, 3.0)) < 1e-8


@pytest.mark.parametrize("pot_name", ["quadratic", "eynard"])
def test_q_route_equivalence(pot_name, quadratic, eynard3_pot):
    pot = quadratic if pot_name == "quadratic" else eynard3_pot
    eq = solve(pot, 1.0, 1.0)
    grid = np.linspace(eq.a - 1.0, eq.b + 2.0, 50)
    q1 = np.array([q_eval(eq, z) for z in grid])
    q2 = np.array([q_eval_resolvent(eq, z) for z in grid])
    scale = np.abs(q1) + 1e-2
    assert np.max(np.abs(q1 - q2) / scale) < 1e-8
    assert np.max(np.abs(q1 - q2)[np.abs(q1) < 1e-6]) < 1e-10 if (np.abs(q1) < 1e-6).any() else True


def test_log_potential_semicircle_center(semicircle):
    assert abs(log_potential(semicircle, 0.0) - (0.5 * np.log(0.5) - 0.5)) < 1e-9


@pytest.mark.parametrize("x", [0.0, 0.9, 2.5, -3.0])
def test_log_potential_against_brute_force(eynard_eq, x):
    # trapezoid with 2e5 nodes resolves the log kernel to ~1e-7
    assert abs(log_potential(eynard_eq, x) - brute_log_potential(eynard_eq, x)) < 1e-6


def test_log_potential_far_field(semicircle):
    r = 1e6
    assert abs(log_potential(semicircle, r) - semicircle.mass * np.log(r)) < 1e-5


def test_log_potential_symmetry(semicircle):
    for x in (0.3, 1.1, 2.4):
        assert abs(log_potential(semicircle, x) - log_potential(semicircle, -x)) < 1e-12


def test_lagrange_ell_invariance(semicircle, quadratic):
    # 2 U - V_t is the same constant at every point of the band
    x0 = semicircle.a + 0.3 * (semicircle.b - semicircle.a)
    assert abs(2.0 * log_potential(semicircle, x0) - semicircle.vt(x0) - semicircle.ell) < 1e-8
    eq = solve(quadratic, 1.0, 0.99)
    x1 = eq.a + 0.7 * (eq.b - eq.a)
    assert abs(2.0 * log_potential(eq, x1) - eq.vt(x1) - lagrange_ell(eq)) < 1e-8


def test_variational_residual_on_support(semicircle, eynard_eq):
    assert abs(variational_residual(semicircle, 0.7)) < 1e-8
    for eq in (semicircle, eynard_eq):
        pts = eq.a + (eq.b - eq.a) * (np.arange(1, 21) / 21.0)
        assert np.max(np.abs([variational_residual(eq, x) for x in pts])) < 1e-8


def test_variational_residual_off_support(semicircle):
    r = variational_residual(semicircle, 3.0)
    assert r < -0.1
    oracle = 2.0 * semicircle_phi_closed_form(3.0)
    assert abs(r - oracle) < 1e-6


def test_variational_equality_at_gap_point(eynard_eq):
    assert abs(variational_residual(eynard_eq, 3.0)) < 1e-6


def test_variational_strict_in_gap(eynard_eq):
    x = eynard_eq.b + 0.5 * (3.0 - eynard_eq.b)
    assert variational_residual(eynard_eq, x) < -1e-6


def test_phi_semicircle_value(semicircle):
    val = phi(semicircle, 2.0)
    assert abs(val - semicircle_phi_closed_form(2.0)) < 1e-9
    assert abs(val - (-0.5328399753535522)) < 1e-9


def test_phi_at_edge(semicircle):
    assert phi(semicircle, semicircle.b) == 0.0


def test_phi_strictly_decreasing_where_q_positive(semicircle):
    xs = [1.5, 1.8, 2.3, 3.0]
    vals = [phi(semicircle, x) for x in xs]
    assert all(v1 > v2 for v1, v2 in zip(vals, vals[1:]))


def test_phi_vanishes_at_gap_point(eynard_eq):
    assert abs(phi(eynard_eq, 3.0)) < 1e-6


def phi_quadrature(eq, x):
    """-int_b^x sqrt((s-a)(s-b)) h(s) ds by Gauss-Legendre in s = b + u^2."""
    u, w = np.polynomial.legendre.leggauss(200)
    span = np.sqrt(x - eq.b)
    u = 0.5 * span * (u + 1.0)
    s = eq.b + u * u
    integrand = 2.0 * u * u * np.sqrt(s - eq.a) * eq.h(s)
    return -0.5 * span * np.sum(w * integrand)


@pytest.mark.parametrize("x", [2.2, 2.7, 3.5, 4.0])
def test_phi_residual_bridge(eynard_eq, x):
    # effective-potential identity: phi = r / 2 beyond the band edge equals
    # the integral that defines phi, through the zeros of h at ee and 3
    assert abs(phi(eynard_eq, x) - phi_quadrature(eynard_eq, x)) < 1e-12


def test_g_far_field(semicircle):
    z = 1e6
    g = g_function(semicircle, 0.0, semicircle.b, z)
    assert abs(g - semicircle.mass * np.log(z)) < 1e-5


def test_g_matches_log_potential_on_real_axis(semicircle):
    g = g_function(semicircle, 0.0, semicircle.b, 3.0)
    assert abs(g.imag) < 1e-12
    assert abs(g.real - log_potential(semicircle, 3.0)) < 1e-12


def test_g_phi_identity_with_point_mass(eynard3_pot):
    eq = solve(eynard3_pot, 1.0, 0.99)
    m, x_nt, z = 0.01, 3.0, 4.0
    lhs = 2.0 * phi(eq, z) + 2.0 * m * np.log(z - x_nt)
    rhs = 2.0 * g_function(eq, m, x_nt, z).real - eq.vt(z) - eq.ell
    assert abs(lhs - rhs) < 1e-7


def test_g_branch_cut_rejected(semicircle):
    with pytest.raises(BranchCutError):
        g_function(semicircle, 0.01, 3.0, 2.5)


def test_monotone_deficit(eynard3_pot):
    bs = [solve(eynard3_pot, 1.0, m).b for m in (0.95, 0.99, 1.0)]
    assert bs[0] < bs[1] < bs[2]


def test_two_cut_input_fails_loudly():
    with pytest.raises(NotOneCutRegularError):
        solve(Potential((0.0, 0.0, -3.0, 0.0, 1.0)), 1.0, 1.0)


def test_json_dict_fields(semicircle):
    # the keys come from the fields: a new field must show up here
    d = semicircle.json_dict()
    assert len(d) == 6
    assert set(d) == {"mass", "t", "a", "b", "h_coeffs", "ell"}


# --- the endpoint Newton as it was before the fixed nodes, the batched line
# search and the plain-array Chebyshev conversion; solve must match it bit
# for bit, failures included


def _ref_moment_system(dv1, dv2, a, b):
    j = np.arange(1, 65)
    cos_t = np.cos((2 * j - 1) * np.pi / (2 * 64))
    mid, rad = 0.5 * (a + b), 0.5 * (b - a)
    y = mid + rad * cos_t
    w = np.pi / 64
    vp = npoly.polyval(y, dv1)
    vpp = npoly.polyval(y, dv2)
    f1 = w * np.sum(vp)
    f2 = w * np.sum(y * vp) / (2 * np.pi)
    dy_da = 0.5 * (1 - cos_t)
    dy_db = 0.5 * (1 + cos_t)
    jac = np.array(
        [
            [w * np.sum(vpp * dy_da), w * np.sum(vpp * dy_db)],
            [
                w * np.sum((vp + y * vpp) * dy_da) / (2 * np.pi),
                w * np.sum((vp + y * vpp) * dy_db) / (2 * np.pi),
            ],
        ]
    )
    return np.array([f1, f2]), jac


def _ref_solve(potential, t, mass):
    coeffs = np.asarray(potential.coeffs, dtype=float)
    dv1 = npoly.polyder(coeffs) / t
    dv2 = npoly.polyder(npoly.polyder(coeffs)) / t
    a, b = _initial_guess(potential, t, mass)
    converged = False
    for _ in range(100):
        f, jac = _ref_moment_system(dv1, dv2, a, b)
        f[1] -= mass
        if np.max(np.abs(f)) < 1e-13:
            converged = True
            break
        try:
            step = np.linalg.solve(jac, -f)
        except np.linalg.LinAlgError as exc:
            raise NoConvergenceError("singular Jacobian in endpoint iteration") from exc
        lam, norm0 = 1.0, np.linalg.norm(f)
        while lam > 1e-12:
            na, nb = a + lam * step[0], b + lam * step[1]
            if na < nb:
                fn, _ = _ref_moment_system(dv1, dv2, na, nb)
                fn[1] -= mass
                if np.linalg.norm(fn) < norm0:
                    break
            lam /= 2
        a, b = a + lam * step[0], b + lam * step[1]
    if not converged:
        raise NoConvergenceError("endpoint Newton failed after 100 iterations")
    last = np.inf
    for _ in range(8):
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
        f, jac = _ref_moment_system(dv1, dv2, a, b)
        f[1] -= mass
    h = _h_from_expansion(dv1, a, b)
    hroots = np.roots(h[::-1]) if len(h) > 1 else np.array([])
    inside = [
        r.real for r in hroots if abs(r.imag) < 1e-9 and a - 1e-12 <= r.real <= b + 1e-12
    ]
    if inside or npoly.polyval(0.5 * (a + b), h) <= 0:
        raise NotOneCutRegularError(f"density factor h changes sign on [{a}, {b}]")
    mid, rad = 0.5 * (a + b), 0.5 * (b - a)
    hy = npoly.Polynomial(h)(npoly.Polynomial([mid, rad])).coef
    g = npoly.polymul([rad * rad, 0.0, -rad * rad], hy)
    cheb = np.polynomial.chebyshev.poly2cheb(g)
    eq = EquilibriumData(potential, mass, t, float(a), float(b), tuple(h), 0.0, tuple(cheb))
    return replace(eq, ell=lagrange_ell(eq))


def _outcome(fn, *args):
    try:
        eq = fn(*args)
    except RmtlabError as exc:
        return type(exc), str(exc)
    return eq.a, eq.b, eq.h_coeffs, eq.ell, eq.cheb


def _bits(value):
    """Exact bit patterns of every float in a nested outcome."""
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    if isinstance(value, float):
        return np.float64(value).tobytes()
    return value


_IDENTITY_POINTS = [
    (t, mass) for t in (0.5, 0.8, 1.0, 1.3, 1.7, 2.0) for mass in (0.05, 0.3, 0.6, 0.9, 0.99, 1.0)
]
_IDENTITY_CASES = {
    "eynard-2.002": ((0, "eynard", 2.002), {"ok"}),
    # with the reduced-mass solves of the double-scaling bundle at s = 1 and
    # n = 160, 240, 300: the first fails the one-cut check, the others run
    # out of Newton iterations (each about a thousand residual evaluations)
    "eynard-3": ((3, "eynard", 3.0), {"ok", NotOneCutRegularError, NoConvergenceError}),
    "eynard-4": ((0, "eynard", 4.0), {"ok"}),
    "x2": ((0, "poly", (0.0, 0.0, 1.0)), {"ok"}),
    "tilted-well": ((0, "poly", (0.0, 0.3, -1.0, 0.0, 1.0)), {"ok", NotOneCutRegularError}),
    "double-well": (
        (0, "poly", (0.0, 0.0, -3.0, 0.0, 1.0)),
        {"ok", NotOneCutRegularError, NoConvergenceError},
    ),
}


@pytest.mark.parametrize("case", list(_IDENTITY_CASES))
def test_solve_bit_identical_to_reference_newton(case):
    (scaling_points, kind, arg), expected_kinds = _IDENTITY_CASES[case]
    potential = make_eynard(arg)[0] if kind == "eynard" else Potential(arg)
    points = list(_IDENTITY_POINTS)
    for n in (160, 240, 300)[:scaling_points]:
        p = make_scaling(potential, n, 1.0)
        points.append((p.t, 1.0 - p.m))
    kinds = set()
    for t, mass in points:
        got = _outcome(solve, potential, t, mass)
        assert _bits(got) == _bits(_outcome(_ref_solve, potential, t, mass)), (t, mass, got)
        kinds.add(got[0] if isinstance(got[0], type) else "ok")
    assert kinds == expected_kinds
