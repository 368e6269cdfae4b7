"""Onset of the large-n criteria: each check of test_acceptance that fails at
its pinned size, run at the sizes where it passes.

Criteria 7, 9, 11 and 12 measure large-n limits that the e = 3 quartic has
not reached at n = 160 (criterion 12: at n from 40 to 320). Each test here
makes the same library calls on the same grid, with the same tolerances and
the same check logic, as its criterion; only n changes. A change that moves
an onset fails here, with the measured values in the message. Criterion
10's lambda check passes only near n = 20480, too large for this suite.
"""

import time

import numpy as np
import pytest

import rmtlab as R
from rmtlab.experiments import best_single_index, pipeline_report

GRID = R.GridSpec(-3.0, 3.0, 0.25)


@pytest.fixture(scope="module")
def eynard():
    return R.make_eynard(3.0)[0]


def _report(num, name, checks):
    failed = [f"{label} ({detail})" for label, ok, detail in checks if not ok]
    print(f"criterion {num:02d} {name} onset: " + "; ".join(detail for _, _, detail in checks))
    assert not failed, f"criterion {num} {name} onset failed: " + "; ".join(failed)


def test_criterion_07_onset(eynard):
    t0 = time.time()
    ns = (160, 320, 640)
    sups = [pipeline_report(eynard, n, 1.0, GRID)[1].sup_error for n in ns]
    checks = [
        ("sup strictly decreasing over n", sups[0] > sups[1] > sups[2],
         "sups " + ", ".join(f"{s:.4f}" for s in sups)),
        (f"sup at n={ns[-1]} below 0.15", sups[2] < 0.15, f"measured {sups[2]:.4f}"),
        ("runtime < 300 s", time.time() - t0 < 300.0, f"{time.time() - t0:.1f}s"),
    ]
    _report(7, "size-k limit trend", checks)


def test_criterion_09_onset(eynard):
    t0 = time.time()
    checks = []
    for s in (0.8, 1.2, 2.0):
        expected = int(np.floor(s + 0.5))
        values = R.rescaled_kernel(eynard, 1280, s, GRID)
        j, sup = best_single_index(values, GRID)
        checks.append(
            (f"argmin at s={s} equals k={expected}", j == expected,
             f"argmin j={j}, sup {sup:.4f}")
        )
    checks.append(("runtime < 300 s", time.time() - t0 < 300.0, f"{time.time() - t0:.1f}s"))
    _report(9, "single-size selection", checks)


def test_criterion_11_onset(eynard):
    t0 = time.time()
    n = 10240
    c1 = R.expected_count(eynard, n, 1.0)
    c2 = R.expected_count(eynard, n, 2.0)
    c_neg = R.expected_count(eynard, n, -1.0)
    checks = [
        ("count(s=1) in [0.7, 1.3]", 0.7 <= c1 <= 1.3, f"measured {c1:.4f}"),
        ("count(s=2) in [1.7, 2.3]", 1.7 <= c2 <= 2.3, f"measured {c2:.4f}"),
        ("count(s=-1) < 0.1", c_neg < 0.1, f"measured {c_neg:.2e}"),
        ("runtime < 120 s", time.time() - t0 < 120.0, f"{time.time() - t0:.1f}s"),
    ]
    _report(11, "expected counts", checks)


def test_criterion_12_onset(eynard):
    t0 = time.time()
    ns = [320, 640, 1280, 2560]
    d = R.phix_growth_check(eynard, 1.0, ns)
    checks = [
        (f"max |d_n| < 10 |d_{ns[0]}|", max(abs(x) for x in d) < 10.0 * abs(d[0]),
         "d " + ", ".join(f"{x:.4f}" for x in d)),
        (f"|d_{ns[-1]}| < 3 |d_{ns[0]}|", abs(d[-1]) < 3.0 * abs(d[0]),
         f"|d_{ns[-1]}|={abs(d[-1]):.4f} |d_{ns[0]}|={abs(d[0]):.4f}"),
        ("runtime < 60 s", time.time() - t0 < 60.0, f"{time.time() - t0:.1f}s"),
    ]
    _report(12, "matching growth law", checks)
