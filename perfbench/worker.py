"""One round of one workload, in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --round I --trace 0|1

A round times set-up (importing numpy and rmtlab, then the first gap-point
detection), runs every operation of the workload once in an order drawn from
the seed and the round index, reads the peak RSS, and only then checks every
output against the references in checks.py. It prints one JSON object on its
last stdout line.
A fresh process per round makes every round pay the program's in-process
caches, as each CLI command does.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"

GRID_ARGS = (-3.0, 3.0, 0.25)
SWEEP_N = (40, 80, 120, 160)
SWEEP_S = (0.8, 1.0, 1.2, 1.5, 2.0)
KERNEL_N160_S = (-1.0, 0.8, 1.0, 1.5, 2.0)
KERNEL_LADDER_N = (180, 240, 320, 640, 1280, 2560)
HERMITE_N = (160, 180, 240, 320, 640, 1280, 2560)
SCALING_E = (3.0, 4.0)
SCALING_N = (40, 80, 160, 240, 300, 640, 2560)
SCALING_S = (-1.0, 0.8, 1.0, 1.5, 2.0, 4.0)
QUADRATIC_SOLVES = ((1.0, 1.0), (0.5, 0.3), (2.0, 1.0), (1.3, 0.7))
QUADRATIC_DRAWS = 4  # extra (t, mass) per round, t in [0.5, 2], mass in [0.05, 1]
EYNARD_SOLVES = ((1.0, 1.0), (0.9, 1.0), (0.8, 0.5), (0.95, 0.6), (1.01, 0.995))
PSI_ZETAS = (
    # near field, the quadrature route
    2j, -1.5j, 1 + 1j, -2 + 0.5j, 0.3 + 0.2j, 3 - 1j, 0.05j, 5 + 5j, -4 - 2j, 0.7 + 3j,
    # 20 <= |zeta| < 30, still the quadrature route
    20j, 25j, 29j, 3 + 22j, 15 + 15j,
    # far field, the moment series
    31j, 35j, -32j, 5 + 33j, 40j,
)  # fmt: skip
PSI_K = (1, 2, 3, 4)
CAUCHY_K = 5
GUE_K = tuple(range(1, 9))
GUE_GRID = tuple(-3.0 + 0.25 * i for i in range(25))
GUE_DRAWS = 200  # extra (k, u, v) per round on the 1/8 lattice of [-3, 3]


def _op(kind, label, seconds, error=None, work=1, latency=False, rate=True):
    return {
        "kind": kind,
        "label": label,
        "seconds": seconds,
        "ok": error is None,
        "error": error,
        "work": work if error is None else 0,
        "latency": latency and error is None,
        "rate": rate,
    }


class Round:
    """State of one round: the imported package, the ops run and the problems found."""

    def __init__(self, rm, seed: int, round_index: int, tracer):
        self.rm = rm
        self.rng = random.Random(f"{seed}:{round_index}")
        self.tracer = tracer
        self.ops: list[dict] = []
        self.problems: list[str] = []
        self.extra: dict = {}
        self.scaling_calls: list[int] = []

    def timed(self, kind, label, fn, work=1, latency=False, rate=True):
        """Run fn once as an operation; return its value or None if it raised."""
        before = self.tracer.calls["critical.make_scaling"] if self.tracer else 0
        if self.tracer:
            self.tracer.active = True
        start = time.perf_counter()
        try:
            value = fn()
            error = None
        except self.rm.errors.RmtlabError as exc:
            value, error = None, exc.kind
        seconds = time.perf_counter() - start
        if self.tracer:
            self.tracer.active = False
            if latency and error is None:
                self.scaling_calls.append(self.tracer.calls["critical.make_scaling"] - before)
        self.ops.append(_op(kind, label, seconds, error, work, latency, rate))
        return value

    def problem(self, label, message):
        if message is not None:
            self.problems.append(f"{label}: {message}")

    def shuffled(self, items):
        items = list(items)
        self.rng.shuffle(items)
        return items


# --- workloads ---------------------------------------------------------------
# Each has an operation phase and a check phase; run_round reads the peak
# RSS between them so the checks' own memory does not count.


def sweep_ops(r: Round, pot):
    SCRATCH.mkdir(exist_ok=True)
    out = SCRATCH / f"sweep-{os.getpid()}.csv"
    argv = [
        "sweep",
        "--potential", str(BENCH_DIR / "inputs" / "eynard3.json"),
        "--n-list", ",".join(map(str, SWEEP_N)),
        "--s-list", ",".join(map(str, SWEEP_S)),
        "--out", str(out),
    ]  # fmt: skip

    def command():
        code = r.rm.cli.main(argv)
        if code != 0:
            raise r.rm.errors.RmtlabError(f"rmtlab sweep exited with {code}")
        return out.read_text(encoding="utf-8")

    text = r.timed("sweep", "rmtlab sweep", command, work=len(SWEEP_N) * len(SWEEP_S), latency=True)
    out.unlink(missing_ok=True)
    return text


def sweep_checks(r: Round, pot, text, checks):
    if text is None:
        return
    reference = (BENCH_DIR / "reference" / "sweep_e3.csv").read_text(encoding="utf-8")
    r.problem("sweep", checks.check_sweep(text, SWEEP_N, SWEEP_S, reference))
    r.extra["sweep_sha256"] = hashlib.sha256(text.encode()).hexdigest()
    r.extra["sweep_rows"] = len(SWEEP_N) * len(SWEEP_S)


def kernel_ops(r: Round, pot):
    rm = r.rm
    grid = rm.experiments.GridSpec(*GRID_ARGS)
    ops = [(160, s) for s in KERNEL_N160_S] + [(n, 1.0) for n in KERNEL_LADDER_N]
    results = {}
    for n, s in r.shuffled(ops):

        def op(n=n, s=s):
            values = rm.experiments.rescaled_kernel(pot, n, s, grid)
            return values, rm.experiments.expected_count(pot, n, s)

        value = r.timed("kernel", f"n={n} s={s:g}", op, work=n, latency=n == 160)
        results[(n, s)] = (value, len(r.ops) - 1)
    quadratic = rm.potential.Potential((0.0, 0.0, 1.0))
    tables = {}
    for n in r.shuffled(HERMITE_N):
        table = r.timed(
            "hermite",
            f"V=x^2 n={n}",
            lambda n=n: rm.orthopoly.build_recurrence(quadratic, n, 1.0, n),
            work=n,
            rate=False,
        )
        tables[n] = None if table is None else (table.alpha, table.beta)
    return results, tables


def kernel_checks(r: Round, pot, state, checks):
    rm = r.rm
    results, tables = state
    eq = rm.critical.unit_equilibrium(pot)
    J = rm.critical.scaling_J(eq.a, eq.b, rm.critical.detect_singular(pot))
    counts = {}
    for (n, s), (result, index) in sorted(results.items()):
        if result is None:
            continue
        label = f"kernel n={n} s={s:g}"
        values, count = result
        r.problem(label, checks.check_kernel_grid(values))
        if n == 160:
            counts[s] = count
        elif not 0.0 <= count <= n:
            r.problem(label, f"count {count!r} outside [0, {n}]")
        t = rm.critical.s_to_t(s, n, J)
        table = rm.experiments.recurrence_for(pot, n, t)
        diag = rm.orthopoly.kernel_diagonal(table, table.rule.nodes)
        if checks.check_trace(table.rule.weights, diag, n) is not None:
            _fail_op(r, index, "trace-defect")
        if n <= 160:
            ref_alpha, ref_beta = checks.stieltjes_reference(pot.coeffs, n, t, table.N)
            r.problem(label, checks.check_recurrence(table.alpha, table.beta, ref_alpha, ref_beta))
    if len(counts) == len(KERNEL_N160_S):
        r.problem("kernel n=160", checks.check_counts(counts, 160))
    for n, table in sorted(tables.items()):
        if table is not None:
            ref_alpha, ref_beta = checks.hermite_recurrence(n, n)
            r.problem(f"V=x^2 n={n}", checks.check_recurrence(*table, ref_alpha, ref_beta, 1e-12))


def scaling_ops(r: Round, pot3):
    rm = r.rm
    pots = {3.0: pot3, 4.0: rm.potential.from_config({"type": "eynard", "e": 4.0})}
    quadratic = rm.potential.Potential((0.0, 0.0, 1.0))
    draws = [
        (round(r.rng.uniform(0.5, 2.0), 6), round(r.rng.uniform(0.05, 1.0), 6))
        for _ in range(QUADRATIC_DRAWS)
    ]
    ops = [("scaling", e, n, s) for e in SCALING_E for n in SCALING_N for s in SCALING_S]
    ops += [("quadratic", t, m) for t, m in QUADRATIC_SOLVES + tuple(draws)]
    ops += [("eynard3", t, m) for t, m in EYNARD_SOLVES]
    results = []
    for op in r.shuffled(ops):
        if op[0] == "scaling":
            _, e, n, s = op
            value = r.timed(
                "make_scaling",
                f"e={e:g} n={n} s={s:g}",
                lambda e=e, n=n, s=s: rm.critical.make_scaling(pots[e], n, s).json_dict(),
                latency=True,
            )
        else:
            name, t, m = op
            p = quadratic if name == "quadratic" else pot3
            value = r.timed(
                "solve",
                f"{name} t={t:g} mass={m:g}",
                lambda p=p, t=t, m=m: rm.equilibrium.solve(p, t, m),
            )
            if value is not None:
                value = (p.coeffs, value.a, value.b, value.h_coeffs)
        results.append((op, value))
    return results


def scaling_checks(r: Round, pot, results, checks):
    for op, value in results:
        if value is None:
            continue
        if op[0] == "scaling":
            _, e, n, s = op
            r.problem(f"make_scaling e={e:g} n={n} s={s:g}", checks.check_scaling(value, e, n, s))
            continue
        name, t, m = op
        coeffs, a, b, h = value
        label = f"solve {name} t={t:g} mass={m:g}"
        r.problem(label, checks.check_band_measure(coeffs, t, m, a, b, h))
        if name == "quadratic":
            r.problem(label, checks.check_quadratic_endpoints(a, b, t, m))
        elif (t, m) == (1.0, 1.0) and max(abs(a + 2.0), abs(b - 2.0)) > 1e-10:
            r.problem(label, f"unit band ({a!r}, {b!r}) != (-2, 2)")


def gue_ops(r: Round, pot):
    gue = r.rm.gue
    psi = []
    for zeta, k in r.shuffled([(z, k) for z in PSI_ZETAS for k in PSI_K]):
        entries = r.timed(
            "psi",
            f"zeta={zeta} k={k}",
            lambda z=zeta, k=k: gue.psi_matrix(z, k).entries,
            rate=False,
        )
        psi.append((zeta, k, entries, len(r.ops) - 1))
    cauchy = {}
    for zeta in r.shuffled(PSI_ZETAS):
        cauchy[zeta] = (
            r.timed(
                "cauchy",
                f"zeta={zeta}",
                lambda z=zeta: [gue.hermite_cauchy(k, z) for k in range(CAUCHY_K + 1)],
                rate=False,
            ),
            len(r.ops) - 1,
        )
    lattice = [-3.0 + 0.125 * i for i in range(49)]
    pairs = [(k, u, v) for k in GUE_K for u in GUE_GRID for v in GUE_GRID]
    drawn = [
        (r.rng.choice(GUE_K), r.rng.choice(lattice), r.rng.choice(lattice))
        for _ in range(GUE_DRAWS)
    ]
    kernel = []
    for k, u, v in r.shuffled(pairs + drawn):
        value = r.timed(
            "gue_pair",
            f"k={k} u={u:g} v={v:g}",
            lambda k=k, u=u, v=v: (gue.gue_kernel(k, u, v), gue.gue_kernel_sum(k, u, v)),
            work=2,
            latency=True,
        )
        kernel.append(((k, u, v), value))
    return psi, cauchy, kernel, drawn


def _fail_op(r: Round, index: int, kind: str):
    """Count an operation whose value is a known defect as failed."""
    op = r.ops[index]
    op.update(ok=False, error=kind, work=0, latency=False)


def gue_checks(r: Round, pot, state, checks):
    gue = r.rm.gue
    psi, cauchy, kernel, drawn = state
    for zeta, k, entries, index in psi:
        if entries is None:
            continue
        defect, problem = checks.classify_psi(entries, zeta, k)
        if defect:
            _fail_op(r, index, defect)
        r.problem(f"psi zeta={zeta} k={k}", problem)
    for zeta, (values, index) in cauchy.items():
        if values is None:
            continue
        conj = [gue.hermite_cauchy(k, zeta.conjugate()) for k in range(CAUCHY_K + 1)]
        if checks.check_cauchy(values, zeta, conj) is not None:
            _fail_op(r, index, "cauchy-recurrence")
    drawn_set = set(drawn)
    for (k, u, v), value in kernel:
        if value is None:
            continue
        label = f"gue pair k={k} u={u:g} v={v:g}"
        r.problem(label, checks.check_kernel_pair(*value))
        if (k, u, v) in drawn_set:
            ref = checks.gue_sum_reference(k, u, v)
            if abs(value[1] - ref) > 1e-12:
                r.problem(label, f"sum form {value[1]!r} != Hermite reference {ref!r}")
    nodes, weights = checks.gue_trace_nodes()
    for k in GUE_K:
        diag = [gue.gue_kernel(k, u, u) for u in nodes]
        r.problem(f"gue trace k={k}", checks.check_gue_trace(k, diag, weights))
        r.problem(f"hermite k={k}", checks.check_hermite(k, GUE_GRID, gue.hermite(k, GUE_GRID)))


WORKLOADS = {
    "sweep": (sweep_ops, sweep_checks),
    "kernel": (kernel_ops, kernel_checks),
    "scaling": (scaling_ops, scaling_checks),
    "gue": (gue_ops, gue_checks),
}


def run_round(workload: str, seed: int, round_index: int, trace: bool) -> dict:
    t_start = time.perf_counter()
    import numpy  # noqa: F401  (timed on its own)

    t_numpy = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import rmtlab
    import rmtlab.cli

    t_rmtlab = time.perf_counter()
    if Path(rmtlab.__file__).resolve().parent != SRC / "rmtlab":
        raise SystemExit(f"imported rmtlab from {rmtlab.__file__}, not from {SRC}")
    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer(rmtlab.errors.RmtlabError)
        tracer.install(rmtlab)
        tracer.active = True
    t_detect0 = time.perf_counter()
    pot = rmtlab.potential.from_config(
        json.loads((BENCH_DIR / "inputs" / "eynard3.json").read_text(encoding="utf-8"))
    )
    rmtlab.critical.detect_singular(pot)
    t_detect = time.perf_counter()
    if tracer:
        tracer.active = False
    setup = {
        "import_numpy_s": t_numpy - t_start,
        "import_rmtlab_s": t_rmtlab - t_numpy,
        "detect_s": t_detect - t_detect0,
        "setup_s": (t_detect - t_start) - (t_detect0 - t_rmtlab),
    }

    import checks

    r = Round(rmtlab, seed, round_index, tracer)
    run_ops, run_checks = WORKLOADS[workload]
    state = run_ops(r, pot)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run_checks(r, pot, state, checks)
    result = {
        "setup": setup,
        "rss_mb": rss_mb,
        "ops": r.ops,
        "problems": r.problems,
        "extra": r.extra,
    }
    if tracer:
        stats = tracer.stats()
        stats["make_scaling_per_op"] = (
            sum(r.scaling_calls) / len(r.scaling_calls) if r.scaling_calls else 0.0
        )
        result["trace"] = stats
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--round", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    result = run_round(args.workload, args.seed, args.round, bool(args.trace))
    sys.stdout.write(json.dumps(result, default=_json_default) + "\n")
    return 0


def _json_default(value):
    if isinstance(value, complex):
        return [value.real, value.imag]
    return float(value)


if __name__ == "__main__":
    sys.exit(main())
