"""Command-line front door: JSON in, JSON/CSV out, exit codes 0/1/2."""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import re
import stat
import sys
from dataclasses import asdict, astuple, fields

import numpy as np

from . import critical, equilibrium, experiments, gue, potential as potmod
from .errors import InvalidParameterError, RmtlabError
from .experiments import GridSpec, SweepRow
from .serialize import csv_text, json_dumps


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(","))


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


def _load_potential(path: str):
    with open(path, encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise InvalidParameterError(f"potential file {path} is not JSON: {exc}") from None
    return potmod.from_config(cfg)


def _grid_csv(grid: GridSpec, values: np.ndarray) -> str:
    pts = grid.points()
    rows = [
        (pts[i], pts[j], values[i, j])
        for i in range(len(pts))
        for j in range(len(pts))
    ]
    return csv_text(["u", "v", "value"], rows)


def _run_eqm(args: argparse.Namespace) -> str:
    eq = equilibrium.solve(_load_potential(args.potential), args.t, args.mass)
    return json_dumps(eq.json_dict()) + "\n"


def _run_detect(args: argparse.Namespace) -> str:
    pot = _load_potential(args.potential)
    x_star, J, c = critical._geometry(pot)
    eq = critical.unit_equilibrium(pot)
    out = {"a": eq.a, "b": eq.b, "c": c, "J": J, "x_star": x_star}
    return json_dumps(out) + "\n"


def _run_kernel(args: argparse.Namespace) -> str:
    pot = _load_potential(args.potential)
    return _grid_csv(args.grid, experiments.rescaled_kernel(pot, args.n, args.s, args.grid))


def _run_gue(args: argparse.Namespace) -> str:
    return _grid_csv(args.grid, gue.gue_kernel_grid(args.k, args.grid.points()))


def _run_psi(args: argparse.Namespace) -> str:
    k = args.k
    samples = [2j, -1.5j, 1 + 1j, -2 + 0.5j, 0.3 + 0.2j, 3 - 1j, 0.05j, 5 + 5j, -4 - 2j, 0.7 + 3j]
    det_err = max(abs(gue.psi_matrix(z, k).det - 1.0) for z in samples)
    zeta = 20j
    m = gue.psi_matrix(zeta, k).entries
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


def _kernel_and_k(args: argparse.Namespace) -> tuple[np.ndarray, int]:
    """The rescaled kernel grid and the GUE size: --k, else the k-rule."""
    pot = _load_potential(args.potential)
    params = critical.make_scaling(pot, args.n, args.s)
    values = experiments.rescaled_kernel(pot, args.n, args.s, args.grid)
    return values, params.k if args.k is None else args.k


def _run_compare(args: argparse.Namespace) -> str:
    values, k = _kernel_and_k(args)
    report = experiments.compare_to_gue(values, args.grid, k)
    grid = {"grid_max": args.grid.u_max, "grid_min": args.grid.u_min, "grid_step": args.grid.step}
    return json_dumps(asdict(report) | grid | {"n": args.n, "s": args.s}) + "\n"


def _run_sweep(args: argparse.Namespace) -> str:
    pot = _load_potential(args.potential)
    rows = experiments.convergence_sweep(pot, args.n_list, args.s_list, args.grid)
    return csv_text([f.name for f in fields(SweepRow)], [astuple(r) for r in rows])


def _run_lambda_fit(args: argparse.Namespace) -> str:
    values, k = _kernel_and_k(args)
    fit = experiments.lambda_fit(values, args.grid, k)
    return json_dumps(asdict(fit) | {"k": k, "n": args.n, "s": args.s}) + "\n"


def _run_count(args: argparse.Namespace) -> str:
    pot = _load_potential(args.potential)
    delta = args.delta
    if delta is None:
        delta = experiments.count_delta(critical.make_scaling(pot, args.n, args.s))
    count = experiments.expected_count(pot, args.n, args.s, delta)
    out = {"count": count, "delta": delta, "n": args.n, "s": args.s}
    return json_dumps(out) + "\n"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rmtlab",
        description=(
            "Finite-n eigenvalue correlation kernels of unitary-invariant "
            "ensembles near a nucleating spectral band"
        ),
    )
    # option groups shared by several subcommands; argparse copies a
    # subparser's parents, in order, ahead of its own options, and the
    # options keep that order in usage and help
    potential = argparse.ArgumentParser(add_help=False)
    potential.add_argument("--potential", required=True, help="potential config JSON path")
    n_s = argparse.ArgumentParser(add_help=False)
    n_s.add_argument("--n", type=int, required=True)
    n_s.add_argument("--s", type=float, required=True)
    k_required = argparse.ArgumentParser(add_help=False)
    k_required.add_argument("--k", type=int, required=True)
    k_rule = argparse.ArgumentParser(add_help=False)
    k_rule.add_argument("--k", type=int, default=None)
    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--grid", type=GridSpec.from_string, default=GridSpec(-3.0, 3.0, 0.25))

    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help_text, handler, *parents):
        p = sub.add_parser(name, help=help_text, parents=parents)
        p.set_defaults(handler=handler)
        return p

    eqm = command("eqm", "solve the one-cut measure and print its data", _run_eqm, potential)
    eqm.add_argument("--mass", type=float, default=1.0)
    eqm.add_argument("--t", type=float, default=1.0)
    command("detect", "locate the gap-closing point and scaling constants", _run_detect, potential)
    command("kernel", "rescaled kernel grid as CSV", _run_kernel, potential, n_s, grid)
    command("gue", "finite-size GUE kernel grid as CSV", _run_gue, k_required, grid)
    command("psi", "local model matrix diagnostics", _run_psi, k_required)
    command("compare", "rescaled kernel vs GUE kernel report", _run_compare,
            potential, n_s, k_rule, grid)
    sweep = command("sweep", "convergence sweep over n and s as CSV", _run_sweep, potential, grid)
    sweep.add_argument("--n-list", type=_int_list, required=True)
    sweep.add_argument("--s-list", type=_float_list, required=True)
    command("lambda-fit", "two-kernel interpolation weights", _run_lambda_fit,
            potential, n_s, k_rule, grid)
    count = command("count", "expected eigenvalues near the gap point", _run_count, potential, n_s)
    count.add_argument("--delta", type=float, default=None)

    # let values like "-3,3,0.25" pass as arguments, not option strings;
    # --out comes last on every subcommand
    numberish = re.compile(r"^-[\d.][\d.,eE+-]*$")
    parser._negative_number_matcher = numberish
    for p in sub.choices.values():
        p._negative_number_matcher = numberish
        p.add_argument("--out", default=None)
    return parser


def _check_out_dir(path: str) -> None:
    """Raise the OSError open(path, "w") would raise when path's directory
    is missing, is not a directory or cannot be written to; create nothing."""
    parent = os.path.dirname(path) or "."
    try:
        mode = os.stat(parent).st_mode
    except OSError as exc:
        code = exc.errno
    else:
        if not stat.S_ISDIR(mode):
            code = errno.ENOTDIR
        elif not os.access(parent, os.W_OK | os.X_OK):
            code = errno.EACCES
        else:
            return
    raise OSError(code, os.strerror(code), path)


def run(args: argparse.Namespace) -> int:
    try:
        if args.out:
            # refuse an unwritable --out before the computation, not after it
            _check_out_dir(args.out)
        text = args.handler(args)
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
    except RmtlabError as exc:
        sys.stderr.write(json_dumps({"error": str(exc), "kind": exc.kind}) + "\n")
        return 1
    except OSError as exc:
        sys.stderr.write(json_dumps({"error": str(exc), "kind": "io"}) + "\n")
        return 1
    if not args.out:
        sys.stdout.write(text)
    return 0


def main(argv: list[str] | None = None) -> int:
    return run(_build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
