import warnings

import numpy as np
import pytest

from rmtlab import (
    GridSpec,
    critical,
    InvalidParameterError,
    PrecisionLimitError,
    compare_to_gue,
    convergence_sweep,
    expected_count,
    gue_kernel_grid,
    lambda_fit,
    make_eynard,
    rescaled_kernel,
)
from rmtlab.experiments import best_single_index, pipeline_report, recurrence_for

GRID = GridSpec(-3.0, 3.0, 0.25)

# Calibrated desk-scale fixtures, measured once from pipeline runs at the
# committed quadrature settings and frozen; regression bands, not theory.
SUP_160_S1 = (0.18, 0.26)  # measured 0.2163
CENTER_ERR_80_S1 = 0.30  # measured 0.2394
LAMBDA_18 = (0.10, 0.25)  # measured 0.1617
COUNT_160_S1 = (0.40, 0.60)  # measured 0.5003
COUNT_160_S2 = (0.78, 0.98)  # measured 0.8763
DECAY_S1 = (-1.6, -1.05)  # measured -1.335
DECAY_S13 = (-2.0, -1.30)  # measured -1.682


@pytest.fixture(autouse=True)
def _quiet_realization_warnings():
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="reduced-mass band")
        yield


def test_grid_points():
    assert np.allclose(GRID.points()[:3], [-3.0, -2.75, -2.5])
    assert len(GRID.points()) == 25
    assert GridSpec.from_string("-3,3,0.25") == GRID


def test_grid_validation():
    # NaN passes step <= 0 and u_max <= u_min, so finiteness is checked apart
    for bounds in (
        (1.0, -1.0, 0.25),
        (np.nan, 1.0, 0.5),
        (0.0, 1.0, np.nan),
        (0.0, np.inf, 0.5),
        (-np.inf, 0.0, 0.5),
        (0.0, 1e300, 1e-300),  # finite bounds, but the point count overflows
        (-1e308, 1e308, 1.0),
    ):
        with pytest.raises(InvalidParameterError):
            GridSpec(*bounds)


def test_compare_self_is_zero():
    values = gue_kernel_grid(2, GRID.points())
    rep = compare_to_gue(values, GRID, 2)
    assert rep.sup_error == 0.0
    assert rep.l2_error == 0.0


def test_compare_constant_offset():
    values = gue_kernel_grid(2, GRID.points()) + 0.01
    rep = compare_to_gue(values, GRID, 2)
    assert abs(rep.sup_error - 0.01) < 1e-14


@pytest.mark.parametrize("shape", [(24, 24), (25, 24), (25,), (1, 25)])
def test_gue_comparisons_check_shape(shape):
    # every comparison refuses values that do not match the 25-point grid,
    # also shapes that numpy would broadcast against the 25 x 25 GUE grid
    values = np.zeros(shape)
    for compare in (
        lambda: compare_to_gue(values, GRID, 1),
        lambda: best_single_index(values, GRID),
        lambda: lambda_fit(values, GRID, 1),
    ):
        with pytest.raises(InvalidParameterError, match="does not match the grid"):
            compare()


def test_lambda_fit_exact_mixture():
    pts = GRID.points()
    values = 0.3 * gue_kernel_grid(1, pts) + 0.7 * gue_kernel_grid(2, pts)
    fit = lambda_fit(values, GRID, 1)
    assert abs(fit.lambda_plus - 0.7) < 1e-10
    assert fit.lambda_plus + fit.lambda_minus == 1.0
    assert not fit.clamped


def test_lambda_fit_pure_endpoint():
    fit = lambda_fit(gue_kernel_grid(1, GRID.points()), GRID, 1)
    assert abs(fit.lambda_plus) < 1e-12


def test_lambda_fit_residual_bound():
    pts = GRID.points()
    noisy_mix = 0.4 * gue_kernel_grid(1, pts) + 0.6 * gue_kernel_grid(2, pts) + 0.01
    fit = lambda_fit(noisy_mix, GRID, 1)
    single = [
        compare_to_gue(noisy_mix, GRID, j).l2_error for j in (1, 2)
    ]
    assert fit.residual <= min(single) + 1e-12


def test_lambda_fit_clamps_out_of_range():
    pts = GRID.points()
    values = -0.2 * gue_kernel_grid(1, pts) + 1.2 * gue_kernel_grid(2, pts)
    fit = lambda_fit(values, GRID, 1)
    assert fit.clamped
    assert fit.lambda_plus == 1.0


def test_rescaled_kernel_symmetry(eynard3_pot):
    values = rescaled_kernel(eynard3_pot, 40, 1.0, GRID)
    assert np.abs(values - values.T).max() < 1e-8
    assert np.isfinite(values).all()


def test_rescaled_kernel_psd(eynard3_pot):
    values = rescaled_kernel(eynard3_pot, 80, 1.0, GRID)
    eigs = np.linalg.eigvalsh(values)
    assert eigs.min() >= -1e-6 * eigs.max()


def test_trivial_branch_envelope(eynard3_pot):
    v80 = rescaled_kernel(eynard3_pot, 80, -1.0, GRID)
    v160 = rescaled_kernel(eynard3_pot, 160, -1.0, GRID)
    assert np.abs(v160).max() < np.abs(v80).max()
    assert np.abs(v80).max() < 0.2


def test_center_entry_calibrated(eynard3_pot):
    values = rescaled_kernel(eynard3_pot, 80, 1.0, GRID)
    i0 = len(GRID.points()) // 2
    assert abs(values[i0, i0] - 1.0 / np.sqrt(np.pi)) < CENTER_ERR_80_S1


def test_headline_decrease_and_level(eynard3_pot):
    sups = [pipeline_report(eynard3_pot, n, 1.0, GRID)[1].sup_error for n in (40, 80, 160)]
    assert sups[0] > sups[1] > sups[2]
    assert SUP_160_S1[0] < sups[2] < SUP_160_S1[1]


def test_selection_at_low_delta(eynard3_pot):
    values = rescaled_kernel(eynard3_pot, 160, 1.2, GRID)
    j, _ = best_single_index(values, GRID)
    assert j == 1


def test_lambda_monotone_in_s(eynard3_pot):
    lams = [
        lambda_fit(rescaled_kernel(eynard3_pot, 160, s, GRID), GRID, 1).lambda_plus
        for s in (1.2, 1.5, 1.8)
    ]
    assert lams[0] <= lams[1] <= lams[2]
    assert LAMBDA_18[0] < lams[2] < LAMBDA_18[1]


def test_expected_count_regression(eynard3_pot):
    assert expected_count(eynard3_pot, 160, -1.0) < 0.1
    c1 = expected_count(eynard3_pot, 160, 1.0)
    assert COUNT_160_S1[0] < c1 < COUNT_160_S1[1]
    c2 = expected_count(eynard3_pot, 160, 2.0)
    assert COUNT_160_S2[0] < c2 < COUNT_160_S2[1]


def test_expected_count_window_validation(eynard3_pot):
    with pytest.raises(InvalidParameterError):
        expected_count(eynard3_pot, 80, 1.0, delta=2.0)


def test_empty_sweep(eynard3_pot):
    assert convergence_sweep(eynard3_pot, [40, 80], [], GRID) == []


def test_sweep_decay_exponents(eynard3_pot):
    rows = convergence_sweep(eynard3_pot, [40, 80, 160], [1.0, 1.3], GRID)
    assert len(rows) == 6
    expo_s1 = {r.decay_exponent for r in rows if r.s == 1.0}.pop()
    expo_s13 = {r.decay_exponent for r in rows if r.s == 1.3}.pop()
    assert DECAY_S1[0] < expo_s1 < DECAY_S1[1]
    assert DECAY_S13[0] < expo_s13 < DECAY_S13[1]
    for r in rows:
        assert 0.0 <= r.lambda_plus <= 1.0


@pytest.mark.parametrize("n_list, s_list", [([160, 160], [1.0]), ([40, 80], [1.0, 2.0, 1.0])])
def test_sweep_refuses_repeated_values(eynard3_pot, n_list, s_list):
    # a decay exponent fitted over one distinct n would mean nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParameterError, match="must not repeat"):
            convergence_sweep(eynard3_pot, n_list, s_list, GRID)


def test_sweep_survives_row_failure(eynard3_pot):
    # n = 1 has no s <-> t map (log n = 0), so that row fails on purpose
    rows = convergence_sweep(eynard3_pot, [40, 1], [1.0], GRID)
    assert len(rows) == 2
    good, bad = rows
    assert np.isfinite(good.sup_error)
    assert np.isnan(bad.sup_error) and bad.n == 1 and bad.k == -1


def test_hot_path_never_reads_x_star_nt(eynard3_pot, monkeypatch):
    # the sweep, the kernel grid and the count do not need the reduced-mass
    # diagnostic: neither its computation nor any warning may reach them
    def refuse(*args, **kwargs):
        raise AssertionError("x_star_nt computed")

    monkeypatch.setattr(critical, "find_xstar_nt", refuse)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = convergence_sweep(eynard3_pot, [40, 80], [1.0, 1.5], GRID)
        values = rescaled_kernel(eynard3_pot, 120, 1.0, GRID)
        count = expected_count(eynard3_pot, 120, 1.0)
    assert all(np.isfinite(r.sup_error) and np.isfinite(r.expected_count) for r in rows)
    assert np.isfinite(values).all() and np.isfinite(count)


def test_large_n_grids_inside_window(eynard3_pot):
    for n in (320, 2560):
        values = rescaled_kernel(eynard3_pot, n, 1.0, GRID)
        assert np.isfinite(values).all()
        assert np.abs(values - values.T).max() <= 1e-10 * np.abs(values).max()
        eigs = np.linalg.eigvalsh(values)
        assert eigs.min() >= -1e-9 * eigs.max()
    # a grid far outside the window still meets the precision limit
    with pytest.raises(PrecisionLimitError):
        rescaled_kernel(eynard3_pot, 40, 1.0, GridSpec(-400.0, 400.0, 20.0))


def test_window_reaches_x_star_beyond_first_bracket():
    # eynard e = 6 puts x* = 6 past the first bracket, [-4, 4]; at n = 2560 the
    # barrier n eta_max is far above the window level, so a bracket stopped
    # at its ends would end the window at the barrier, short of x*
    pot, _ = make_eynard(6.0)
    n = 2560
    count = expected_count(pot, n, 1.0)
    assert np.isfinite(count) and 0.0 < count < 1.0
    table = recurrence_for(pot, n, critical.make_scaling(pot, n, 1.0).t)
    assert table.rule.hi > critical.detect_singular(pot)


def test_grid_adequacy(eynard3_pot):
    fine = GridSpec(-3.0, 3.0, 0.125)
    _, sup_coarse = best_single_index(rescaled_kernel(eynard3_pot, 80, 1.0, GRID), GRID)
    _, sup_fine = best_single_index(rescaled_kernel(eynard3_pot, 80, 1.0, fine), fine)
    assert abs(sup_fine - sup_coarse) / sup_coarse < 0.05


def test_center_nt_diagnostic_flag(eynard3_pot):
    # centering at the n,t-dependent point is a diagnostic variant; for
    # s < 0 both centers coincide, so the grids must match exactly
    a = rescaled_kernel(eynard3_pot, 40, -0.5, GRID)
    b = rescaled_kernel(eynard3_pot, 40, -0.5, GRID, center_nt=True)
    assert np.array_equal(a, b)
    c = rescaled_kernel(eynard3_pot, 40, 1.0, GRID, center_nt=True)
    assert np.isfinite(c).all()


def test_two_kernel_beats_single(eynard3_pot):
    values = rescaled_kernel(eynard3_pot, 160, 1.5, GRID)
    fit = lambda_fit(values, GRID, 1)
    singles = [compare_to_gue(values, GRID, j).l2_error for j in (1, 2)]
    assert fit.lambda_plus + fit.lambda_minus == 1.0
    assert fit.residual <= min(singles) + 1e-12
