"""Each checker rejects a deliberately corrupted output.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import json
import math
import sys
import unittest
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402


def gue_grid(k: int, pts) -> np.ndarray:
    """Size-k GUE kernel on a grid from numpy's Hermite series (PSD, rank k)."""
    h = np.array([checks.hermite_orthonormal(j, pts) for j in range(k)])
    g = np.exp(-0.5 * pts * pts)
    return (h * g).T @ (h * g)


class KernelGridTest(unittest.TestCase):
    def setUp(self):
        self.K = gue_grid(3, np.arange(-3.0, 3.0001, 0.25))

    def test_accepts_projection_kernel(self):
        self.assertIsNone(checks.check_kernel_grid(self.K))

    def test_rejects_one_sign_flipped_off_diagonal(self):
        bad = self.K.copy()
        bad[2, 5] = -bad[2, 5]
        self.assertIn("symmetric", checks.check_kernel_grid(bad))

    def test_rejects_one_sign_flipped_on_diagonal(self):
        bad = self.K.copy()
        bad[12, 12] = -bad[12, 12]
        self.assertIn("semidefinite", checks.check_kernel_grid(bad))

    def test_rejects_nan(self):
        bad = self.K.copy()
        bad[0, 0] = math.nan
        self.assertIsNotNone(checks.check_kernel_grid(bad))

    def test_trace_and_counts(self):
        self.assertIsNone(checks.check_trace([0.5, 0.5], [2.0, 2.0], 2))
        self.assertIsNotNone(checks.check_trace([0.5, 0.5], [2.0, 2.001], 2))
        self.assertIsNone(checks.check_counts({-1.0: 0.0, 1.0: 0.5, 2.0: 0.9}, 160))
        self.assertIsNotNone(checks.check_counts({-1.0: 0.0, 1.0: 0.9, 2.0: 0.5}, 160))
        self.assertIsNotNone(checks.check_counts({1.0: -0.1}, 160))


class RecurrenceTest(unittest.TestCase):
    def test_stieltjes_reproduces_hermite(self):
        alpha, beta = checks.stieltjes_reference((0.0, 0.0, 1.0), 40, 1.0, 40)
        ref = checks.hermite_recurrence(40, 40)
        self.assertIsNone(checks.check_recurrence(alpha, beta, *ref, tol=1e-14))

    def test_rejects_perturbed_beta(self):
        alpha, beta = checks.hermite_recurrence(40, 40)
        bad = beta.copy()
        bad[17] *= 1.0 + 1e-6
        self.assertIn("worst j = 17", checks.check_recurrence(alpha, bad, alpha, beta))

    def test_program_table_against_stieltjes(self):
        from rmtlab import orthopoly, potential

        pot, _ = potential.make_eynard(3.0)
        table = orthopoly.build_recurrence(pot, 40, 1.01, 40)
        ref = checks.stieltjes_reference(pot.coeffs, 40, 1.01, 40)
        self.assertIsNone(checks.check_recurrence(table.alpha, table.beta, *ref))
        bad = table.beta.copy()
        bad[30] *= 1.0 + 1e-6
        self.assertIsNotNone(checks.check_recurrence(table.alpha, bad, *ref))


class ClosedFormTest(unittest.TestCase):
    def test_ee_solves_its_defining_integral(self):
        x, w = np.polynomial.legendre.leggauss(200)
        for e in (2.5, 3.0, 4.0):
            ee = checks.eynard_ee(e)
            u = np.sqrt(e - 2.0) * (x + 1.0) / 2.0
            s = 2.0 + u * u
            f = (s - e) * (s - ee) * np.sqrt(s * s - 4.0) * 2.0 * u
            self.assertLess(abs(np.sum(w * f) * np.sqrt(e - 2.0) / 2.0), 1e-12)

    def test_rejects_perturbed_scaling(self):
        ref = checks.eynard_closed_forms(3.0)
        params = {
            "n": 160, "s": 1.0, "nu": 1.0, "k": 1, "delta": 0.0, "m": 1.0 / 160,
            "x_star": 3.0, "x_star_nt": 3.0, "c": ref["c"], "J": ref["J"],
            "t": 1.0 + math.log(160) / (320 * ref["J"]),
        }  # fmt: skip
        self.assertIsNone(checks.check_scaling(params, 3.0, 160, 1.0))
        for name, value in (("c", ref["c"] * (1 + 1e-8)), ("k", 2), ("x_star", 3.001)):
            self.assertIsNotNone(checks.check_scaling({**params, name: value}, 3.0, 160, 1.0))

    def test_quadratic_endpoints(self):
        r = math.sqrt(2.0 * 1.3 * 0.7)
        self.assertIsNone(checks.check_quadratic_endpoints(-r, r, 1.3, 0.7))
        self.assertIsNotNone(checks.check_quadratic_endpoints(-r, r * (1 + 1e-8), 1.3, 0.7))


class GueTest(unittest.TestCase):
    def test_rejects_det_off_by_1e_6(self):
        from rmtlab import gue

        zeta, k = 2j, 2
        entries = gue.psi_matrix(zeta, k).entries.copy()
        self.assertEqual(checks.classify_psi(entries, zeta, k), (None, None))
        entries[1, 1] += 1e-6 / entries[0, 0]
        self.assertEqual(checks.classify_psi(entries, zeta, k)[0], "det-defect")

    def test_rejects_wrong_entry_with_unit_det(self):
        from rmtlab import gue

        zeta, k = 1 + 1j, 3
        entries = gue.psi_matrix(zeta, k).entries.copy()
        entries[0, 0] *= 2.0
        entries[1, 1] /= 2.0
        entries[0, 1] = entries[1, 0] = 0.0
        entries[1, 1] = 1.0 / entries[0, 0]
        defect, problem = checks.classify_psi(entries, zeta, k)
        self.assertIsNone(defect)
        self.assertIn("Hermite reference", problem)

    def test_rejects_broken_cauchy_recurrence(self):
        from rmtlab import gue

        zeta = 1 + 1j
        values = [gue.hermite_cauchy(k, zeta) for k in range(6)]
        conj = [gue.hermite_cauchy(k, zeta.conjugate()) for k in range(6)]
        self.assertIsNone(checks.check_cauchy(values, zeta, conj))
        values[2] *= 1.0 + 1e-6
        self.assertIsNotNone(checks.check_cauchy(values, zeta, conj))

    def test_kernel_pair_and_trace(self):
        self.assertIsNone(checks.check_kernel_pair(0.25, 0.25 + 1e-12))
        self.assertIsNotNone(checks.check_kernel_pair(0.25, 0.25 + 1e-9))
        u, w = checks.gue_trace_nodes()
        diag = [checks.gue_sum_reference(4, x, x) for x in u]
        self.assertIsNone(checks.check_gue_trace(4, diag, w))
        self.assertIsNotNone(checks.check_gue_trace(4, np.array(diag) * (1 + 1e-8), w))


class SweepTest(unittest.TestCase):
    def setUp(self):
        path = BENCH_DIR / "reference" / "sweep_e3.csv"
        self.text = path.read_text(encoding="utf-8")
        self.lines = self.text.splitlines(keepends=True)

    def check(self, text):
        return checks.check_sweep(text, worker.SWEEP_N, worker.SWEEP_S, self.text)

    def test_accepts_reference(self):
        self.assertIsNone(self.check(self.text))

    def test_rejects_reordered_row(self):
        lines = list(self.lines)
        lines[2], lines[3] = lines[3], lines[2]
        self.assertIn("order", self.check("".join(lines)))

    def test_rejects_changed_value(self):
        rows = [line.split(",") for line in self.lines]
        rows[5][4] = repr(float(rows[5][4]) * (1 + 1e-6))
        self.assertIsNotNone(self.check("".join(",".join(r) for r in rows)))

    def test_rejects_wrong_decay_exponent(self):
        rows = [line.rstrip("\n").split(",") for line in self.lines]
        rows[1][8] = repr(float(rows[1][8]) + 1e-6)
        text = "\n".join(",".join(r) for r in rows) + "\n"
        self.assertIn("decay exponent", checks.check_sweep(text, worker.SWEEP_N, worker.SWEEP_S))


class BenchmarkJsonTest(unittest.TestCase):
    def test_metric_names_match_the_driver(self):
        spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END
        )
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.per_layer_units())
        self.assertEqual(tuple(w["name"] for w in spec["workloads"]), run.WORKLOADS)


if __name__ == "__main__":
    unittest.main()
