"""rmtlab benchmark: whole rounds of one workload for a fixed time.

    python3 perfbench/run.py --workload sweep|kernel|scaling|gue|all \\
        [--seed N] [--seconds S] [--trace 0|1]

Each round runs in a fresh process (worker.py) that times set-up and every
operation, then checks every output. With --trace 0 the last stdout line is
the JSON result with the end-to-end metrics; with --trace 1 rounds alternate
between untraced and traced, and the metrics are the per-layer ones taken
from spans around each module's public functions. Lines above the JSON give
the same figures by name and unit, and the failures by kind.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("sweep", "kernel", "scaling", "gue")
ROUND_TIMEOUT_S = 150.0
RUN_BUDGET_S = 165.0  # no round starts that could end past this

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_p50_s": "s",
    "work_per_s": "1/s",
}

# The same figures under the names of each workload's own quantities.
NAMED = {
    "sweep": {"sweep_s": ("op_p50_s", "s"), "sweep_rows_per_s": ("work_per_s", "rows/s")},
    "kernel": {"kernel_n160_s": ("op_p50_s", "s"), "kernel_rank_per_s": ("work_per_s", "rank/s")},
    "scaling": {"scaling_p50_s": ("op_p50_s", "s"), "scaling_ops_per_s": ("work_per_s", "ops/s")},
    "gue": {"gue_pair_p50_s": ("op_p50_s", "s"), "gue_kernel_evals_per_s": ("work_per_s", "evals/s")},
}

# (operation kind, failure kind) -> the program fault it comes from
FAULTS = {
    ("kernel", "no-convergence"): "A",
    ("make_scaling", "no-convergence"): "A",
    ("kernel", "precision-limit"): "B",
    ("hermite", "precision-limit"): "B",
    ("psi", "det-defect"): "C",
    ("cauchy", "cauchy-recurrence"): "C",
    ("psi", "non-finite"): "D",
    ("kernel", "trace-defect"): "E",
}

SPAN_CALLS = (
    "potential.make_eynard",
    "equilibrium.solve",
    "equilibrium.phi",
    "critical.make_scaling",
    "critical.detect_singular",
    "orthopoly.build_recurrence",
    "experiments.recurrence_for",
    "gue.gue_kernel_grid",
    "gue.hermite_cauchy",
    "gue.hermite",
)
SPAN_SELF = (
    "potential.make_eynard",
    "equilibrium.solve",
    "equilibrium.phi",
    "critical.make_scaling",
    "critical.find_xstar_nt",
    "critical.detect_singular",
    "orthopoly.build_recurrence",
    "orthopoly.quadrature_support",
    "orthopoly.kernel_matrix",
    "orthopoly.kernel_diagonal",
    "experiments.rescaled_kernel",
    "experiments.expected_count",
    "experiments.convergence_sweep",
    "experiments.best_single_index",
    "experiments.lambda_fit",
    "gue.gue_kernel_grid",
    "gue.psi_matrix",
    "gue.hermite_cauchy",
    "gue.gue_kernel",
    "gue.gue_kernel_sum",
    "cli.run",
    "serialize.csv_text",
)
SPAN_FAILED = (
    "equilibrium.solve",
    "critical.find_xstar_nt",
    "orthopoly.build_recurrence",
)


def per_layer_units() -> dict:
    """Per-layer metric name -> unit, in report order."""
    units = {f"setup.{part}_s": "s" for part in ("import_numpy", "import_rmtlab", "detect")}
    units.update({f"{span}.calls": "count" for span in SPAN_CALLS})
    units.update({f"{span}.self_s": "s" for span in SPAN_SELF})
    units.update({f"{span}.failed": "count" for span in SPAN_FAILED})
    units.update(
        {
            "equilibrium.solve.useful_ratio": "ratio",
            "critical.make_scaling.calls_per_row": "calls/row",
            "critical.make_scaling.calls_per_op": "calls/op",
            "orthopoly.build_recurrence.nodes": "count",
            "orthopoly.build_recurrence.degrees": "count",
            "experiments.table_reuse": "ratio",
            "trace.overhead_s": "s",
        }
    )
    return units


class BenchError(RuntimeError):
    pass


# One BLAS thread: on two cores a second OpenBLAS thread spin-waits for a
# core that other work holds, and one sweep then took 13 s instead of 1.8 s.
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def run_worker(workload: str, seed: int, round_index: int, trace: bool) -> dict:
    cmd = [
        sys.executable,
        str(BENCH_DIR / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--round", str(round_index),
        "--trace", str(int(trace)),
    ]  # fmt: skip
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env={**os.environ, **WORKER_ENV},
            capture_output=True,
            text=True,
            timeout=ROUND_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} round exceeded {ROUND_TIMEOUT_S:.0f} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise BenchError(f"{workload} round exited with {proc.returncode}:\n{tail}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_rounds(workload: str, seed: int, seconds: float, trace: bool) -> list[tuple[bool, dict]]:
    """Whole rounds until `seconds` have passed; traced rounds alternate with
    untraced ones when tracing, so both are present."""
    rounds = []
    start = time.monotonic()
    longest = 0.0
    while True:
        traced = trace and len(rounds) % 2 == 1
        t0 = time.monotonic()
        rounds.append((traced, run_worker(workload, seed, len(rounds), traced)))
        longest = max(longest, time.monotonic() - t0)
        elapsed = time.monotonic() - start
        if elapsed >= seconds and (not trace or len(rounds) >= 2):
            break
        if elapsed + longest > RUN_BUDGET_S:
            if trace and len(rounds) < 2:
                raise BenchError("no time left for a traced round")
            break
    return rounds


def _round_op_seconds(result: dict) -> float:
    return sum(op["seconds"] for op in result["ops"])


def _throughput(result: dict) -> float:
    rated = [op for op in result["ops"] if op["rate"]]
    return sum(op["work"] for op in rated) / sum(op["seconds"] for op in rated)


def end_to_end(rounds: list[dict]) -> dict:
    latencies = [op["seconds"] for r in rounds for op in r["ops"] if op["latency"]]
    throughputs = [_throughput(r) for r in rounds]
    if not latencies or not any(throughputs):
        raise BenchError("no operation completed, so no time can be reported")
    return {
        "setup_s": statistics.median(r["setup"]["setup_s"] for r in rounds),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in rounds),
        "op_p50_s": statistics.median(latencies),
        "work_per_s": statistics.median(throughputs),
    }


def _layer_values(result: dict) -> dict:
    stats = result["trace"]
    calls, self_s = stats["calls"], stats["self_s"]
    failed = {name: sum(kinds.values()) for name, kinds in stats["failed"].items()}
    out = {}
    out.update({f"{span}.calls": calls.get(span, 0) for span in SPAN_CALLS})
    out.update({f"{span}.self_s": self_s.get(span, 0.0) for span in SPAN_SELF})
    out.update({f"{span}.failed": failed.get(span, 0) for span in SPAN_FAILED})
    solves = calls.get("equilibrium.solve", 0)
    out["equilibrium.solve.useful_ratio"] = (
        (solves - failed.get("equilibrium.solve", 0)) / solves if solves else 0.0
    )
    per_op = stats["make_scaling_per_op"]
    rows = result["extra"].get("sweep_rows")
    out["critical.make_scaling.calls_per_row"] = per_op / rows if rows else 0.0
    out["critical.make_scaling.calls_per_op"] = per_op
    out["orthopoly.build_recurrence.nodes"] = stats["nodes"]
    out["orthopoly.build_recurrence.degrees"] = stats["degrees"]
    lookups = calls.get("experiments.recurrence_for", 0)
    builds = stats["nested"].get("experiments.recurrence_for>orthopoly.build_recurrence", 0)
    out["experiments.table_reuse"] = 1.0 - builds / lookups if lookups else 0.0
    return out


def per_layer(rounds: list[tuple[bool, dict]]) -> dict:
    plain = [r for traced, r in rounds if not traced]
    traced = [r for is_traced, r in rounds if is_traced]
    out = {
        f"setup.{part}_s": statistics.median(r["setup"][f"{part}_s"] for r in plain)
        for part in ("import_numpy", "import_rmtlab", "detect")
    }
    values = [_layer_values(r) for r in traced]
    for name in values[0]:
        out[name] = statistics.median(v[name] for v in values)
    out["trace.overhead_s"] = statistics.median(map(_round_op_seconds, traced)) - statistics.median(
        map(_round_op_seconds, plain)
    )
    return {name: out[name] for name in per_layer_units()}


def failure_table(rounds: list[dict]) -> list[str]:
    """Per operation kind: attempted, failed, and each failure with its kind and fault."""
    attempted, failed = Counter(), Counter()
    causes: dict[str, Counter] = {}
    for r in rounds:
        for op in r["ops"]:
            attempted[op["kind"]] += 1
            if not op["ok"]:
                failed[op["kind"]] += 1
                fault = FAULTS.get((op["kind"], op["error"]), "unexpected")
                causes.setdefault(op["kind"], Counter())[(op["label"], op["error"], fault)] += 1
    lines = [f"  {'operation':<14}{'attempted':>10}{'failed':>8}"]
    for kind in attempted:
        lines.append(f"  {kind:<14}{attempted[kind]:>10}{failed[kind]:>8}")
        for (label, error, fault), count in sorted(causes.get(kind, {}).items()):
            lines.append(f"      {count} x {label}: {error} (fault {fault})")
    return lines


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.monotonic()
    rounds = run_rounds(workload, seed, seconds, trace)
    results = [r for _, r in rounds]
    problems = [p for r in results for p in r["problems"]]
    digests = {r["extra"]["sweep_sha256"] for r in results if "sweep_sha256" in r["extra"]}
    if len(digests) > 1:
        problems.append("sweep CSV differs between rounds of one run")
    ops = [op for r in results for op in r["ops"]]
    plain = [r for traced, r in rounds if not traced]
    if trace:
        metrics = per_layer(rounds)
        units = per_layer_units()
    else:
        metrics = end_to_end(plain)
        units = END_TO_END

    print(
        f"workload {workload}: seed {seed}, {len(rounds)} rounds "
        f"({sum(traced for traced, _ in rounds)} traced) in {time.monotonic() - started:.1f} s"
    )
    if not trace:
        for name, (source, unit) in NAMED[workload].items():
            print(f"  {name:<40}{metrics[source]:>14.6g} {unit}")
        if workload == "gue":
            psi = [op for r in plain for op in r["ops"] if op["kind"] == "psi"]
            rate = sum(op["ok"] for op in psi) / sum(op["seconds"] for op in psi)
            print(f"  {'gue_psi_per_s':<40}{rate:>14.6g} evals/s")
    for name, value in metrics.items():
        print(f"  {name:<40}{value:>14.6g} {units[name]}")
    print("\n".join(failure_table(results)))
    for p in sorted(set(problems)):
        print(f"  CHECK FAILED {p}")
    return {
        "correct": not problems,
        "attempted": len(ops),
        "failed": sum(not op["ok"] for op in ops),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "rmtlab" / "__init__.py").is_file():
        print(f"no rmtlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names}
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        scratch = ROOT / ".perfbench_tmp"
        if scratch.is_dir() and not any(scratch.iterdir()):
            scratch.rmdir()
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}.{name}": m for w, r in results.items() for name, m in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
