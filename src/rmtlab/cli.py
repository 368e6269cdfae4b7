"""Command-line front door: JSON in, JSON/CSV out, exit codes 0/1/2."""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass

import numpy as np

from . import critical, equilibrium, experiments, gue, potential as potmod
from .errors import RmtlabError
from .experiments import GridSpec
from .serialize import csv_text, json_dumps


@dataclass(frozen=True)
class RunConfig:
    command: str
    potential_path: str | None = None
    mass: float = 1.0
    t: float = 1.0
    n: int | None = None
    s: float | None = None
    k: int | None = None
    delta: float | None = None
    grid: GridSpec | None = None
    n_list: tuple[int, ...] | None = None
    s_list: tuple[float, ...] | None = None
    out: str | None = None


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(","))


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rmtlab",
        description=(
            "Finite-n eigenvalue correlation kernels of unitary-invariant "
            "ensembles near a nucleating spectral band"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # let values like "-3,3,0.25" pass as arguments, not option strings
    numberish = re.compile(r"^-[\d.][\d.,eE+-]*$")
    parser._negative_number_matcher = numberish

    def add(name, help_text, *flags):
        p = sub.add_parser(name, help=help_text)
        p._negative_number_matcher = numberish
        if "potential" in flags:
            p.add_argument("--potential", required=True, help="potential config JSON path")
        if "mass" in flags:
            p.add_argument("--mass", type=float, default=1.0)
        if "t" in flags:
            p.add_argument("--t", type=float, default=1.0)
        if "n" in flags:
            p.add_argument("--n", type=int, required=True)
        if "s" in flags:
            p.add_argument("--s", type=float, required=True)
        if "k" in flags:
            p.add_argument("--k", type=int, default=None)
        if "k_req" in flags:
            p.add_argument("--k", type=int, required=True)
        if "delta" in flags:
            p.add_argument("--delta", type=float, default=None)
        if "grid" in flags:
            p.add_argument("--grid", type=GridSpec.from_string, default=GridSpec(-3.0, 3.0, 0.25))
        if "lists" in flags:
            p.add_argument("--n-list", type=_int_list, required=True)
            p.add_argument("--s-list", type=_float_list, required=True)
        p.add_argument("--out", default=None)
        return p

    add("eqm", "solve the one-cut measure and print its data", "potential", "mass", "t")
    add("detect", "locate the gap-closing point and scaling constants", "potential")
    add("kernel", "rescaled kernel grid as CSV", "potential", "n", "s", "grid")
    add("gue", "finite-size GUE kernel grid as CSV", "k_req", "grid")
    add("psi", "local model matrix diagnostics", "k_req")
    add("compare", "rescaled kernel vs GUE kernel report", "potential", "n", "s", "k", "grid")
    add("sweep", "convergence sweep over n and s as CSV", "potential", "lists", "grid")
    add("lambda-fit", "two-kernel interpolation weights", "potential", "n", "s", "k", "grid")
    add("count", "expected eigenvalues near the gap point", "potential", "n", "s", "delta")
    return parser


def parse_args(argv: list[str]) -> RunConfig:
    ns = _build_parser().parse_args(argv)
    return RunConfig(
        command=ns.command,
        potential_path=getattr(ns, "potential", None),
        mass=getattr(ns, "mass", 1.0),
        t=getattr(ns, "t", 1.0),
        n=getattr(ns, "n", None),
        s=getattr(ns, "s", None),
        k=getattr(ns, "k", None),
        delta=getattr(ns, "delta", None),
        grid=getattr(ns, "grid", None),
        n_list=getattr(ns, "n_list", None),
        s_list=getattr(ns, "s_list", None),
        out=ns.out,
    )


def _load_potential(path: str):
    with open(path, encoding="utf-8") as fh:
        return potmod.from_config(json.load(fh))


def _grid_csv(grid: GridSpec, values: np.ndarray) -> str:
    pts = grid.points()
    rows = [
        (pts[i], pts[j], values[i, j])
        for i in range(len(pts))
        for j in range(len(pts))
    ]
    return csv_text(["u", "v", "value"], rows)


def _run_eqm(cfg: RunConfig) -> str:
    eq = equilibrium.solve(_load_potential(cfg.potential_path), cfg.t, cfg.mass)
    return json_dumps(eq.json_dict()) + "\n"


def _run_detect(cfg: RunConfig) -> str:
    pot = _load_potential(cfg.potential_path)
    x_star = critical.detect_singular(pot)
    eq = critical.unit_equilibrium(pot)
    out = {
        "a": eq.a,
        "b": eq.b,
        "c": critical.curvature_c(pot, x_star),
        "J": critical.scaling_J(eq.a, eq.b, x_star),
        "x_star": x_star,
    }
    return json_dumps(out) + "\n"


def _run_kernel(cfg: RunConfig) -> str:
    pot = _load_potential(cfg.potential_path)
    values = experiments.rescaled_kernel(pot, cfg.n, cfg.s, cfg.grid)
    return _grid_csv(cfg.grid, values)


def _run_gue(cfg: RunConfig) -> str:
    return _grid_csv(cfg.grid, gue.gue_kernel_grid(cfg.k, cfg.grid.points()))


def _run_psi(cfg: RunConfig) -> str:
    k = cfg.k
    samples = [2j, -1.5j, 1 + 1j, -2 + 0.5j, 0.3 + 0.2j, 3 - 1j, 0.05j, 5 + 5j, -4 - 2j, 0.7 + 3j]
    det_err = max(abs(gue.psi_matrix(z, k).det - 1.0) for z in samples)
    zeta = 20j
    m = gue.psi_matrix(zeta, k).entries
    import math

    c12 = zeta * (m[0, 1] * np.exp(-zeta * zeta / 2.0) * zeta**k)
    c21 = zeta * (m[1, 0] * np.exp(zeta * zeta / 2.0) * zeta ** (-k))
    t12 = 1j * math.factorial(k) / (2 ** (k + 1) * np.sqrt(np.pi))
    t21 = -1j * 2**k * np.sqrt(np.pi) / math.factorial(k - 1)
    out = {
        "c12_rel_err": abs(c12 - t12) / abs(t12),
        "c21_rel_err": abs(c21 - t21) / abs(t21),
        "det_err_max": det_err,
        "k": k,
    }
    return json_dumps(out) + "\n"


def _run_compare(cfg: RunConfig) -> str:
    pot = _load_potential(cfg.potential_path)
    params = critical.make_scaling(pot, cfg.n, cfg.s)
    values = experiments.rescaled_kernel(pot, cfg.n, cfg.s, cfg.grid)
    k = cfg.k if cfg.k is not None else params.k
    report = experiments.compare_to_gue(values, cfg.grid, k, n=cfg.n, s=cfg.s)
    out = {
        "grid_max": cfg.grid.u_max,
        "grid_min": cfg.grid.u_min,
        "grid_step": cfg.grid.step,
        "k": report.k,
        "l2_error": report.l2_error,
        "n": report.n,
        "s": report.s,
        "sup_error": report.sup_error,
    }
    return json_dumps(out) + "\n"


def _run_sweep(cfg: RunConfig) -> str:
    pot = _load_potential(cfg.potential_path)
    rows = experiments.convergence_sweep(pot, cfg.n_list, cfg.s_list, cfg.grid)
    return csv_text(
        [
            "n",
            "s",
            "k",
            "delta",
            "sup_error",
            "l2_error",
            "lambda_plus",
            "expected_count",
            "decay_exponent",
        ],
        [
            (
                r.n,
                r.s,
                r.k,
                r.delta,
                r.sup_error,
                r.l2_error,
                r.lambda_plus,
                r.expected_count,
                r.decay_exponent,
            )
            for r in rows
        ],
    )


def _run_lambda_fit(cfg: RunConfig) -> str:
    pot = _load_potential(cfg.potential_path)
    params = critical.make_scaling(pot, cfg.n, cfg.s)
    values = experiments.rescaled_kernel(pot, cfg.n, cfg.s, cfg.grid)
    k = cfg.k if cfg.k is not None else params.k
    fit = experiments.lambda_fit(values, cfg.grid, k)
    out = fit.json_dict()
    out.update({"k": k, "n": cfg.n, "s": cfg.s})
    return json_dumps(out) + "\n"


def _run_count(cfg: RunConfig) -> str:
    pot = _load_potential(cfg.potential_path)
    params = critical.make_scaling(pot, cfg.n, cfg.s)
    eq = critical.unit_equilibrium(pot)
    delta = cfg.delta if cfg.delta is not None else (params.x_star - eq.b) / 4.0
    count = experiments.expected_count(pot, cfg.n, cfg.s, delta)
    out = {"count": count, "delta": delta, "n": cfg.n, "s": cfg.s}
    return json_dumps(out) + "\n"


_DISPATCH = {
    "eqm": _run_eqm,
    "detect": _run_detect,
    "kernel": _run_kernel,
    "gue": _run_gue,
    "psi": _run_psi,
    "compare": _run_compare,
    "sweep": _run_sweep,
    "lambda-fit": _run_lambda_fit,
    "count": _run_count,
}


def run(cfg: RunConfig) -> int:
    try:
        text = _DISPATCH[cfg.command](cfg)
    except RmtlabError as exc:
        sys.stderr.write(json_dumps({"error": str(exc), "kind": exc.kind}) + "\n")
        return 1
    except FileNotFoundError as exc:
        sys.stderr.write(json_dumps({"error": str(exc), "kind": "io"}) + "\n")
        return 1
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def main(argv: list[str] | None = None) -> int:
    cfg = parse_args(sys.argv[1:] if argv is None else argv)
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
