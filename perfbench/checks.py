"""Independent references and property checks for the benchmark.

Every reference here is computed with numpy alone, apart from the program:
a long-double discretized Stieltjes procedure, the Hermite recurrence of
V = x^2, closed forms of the eynard quartic, semicircle endpoints and
numpy's own Hermite series. Each checker returns None when the output is
right and a one-line description of the problem otherwise, so the tests can
show that a corrupted output is rejected.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import hermite as nherm
from numpy.polynomial.legendre import leggauss

PSI_DET_TOL = 1e-8
CAUCHY_REL_TOL = 1e-8
GUE_CD_SUM_TOL = 1e-10
GUE_TRACE_TOL = 1e-10


# --- eynard quartic, closed forms --------------------------------------------


def eynard_ee(e: float) -> float:
    """Zero ee of the defining integral int_2^e (x-e)(x-ee) sqrt(x^2-4) dx = 0.

    The three moments A_m = int_2^e x^m sqrt(x^2-4) dx have elementary
    antiderivatives; the integral is linear in ee.
    """
    r = math.sqrt(e * e - 4.0)
    log_term = math.log((e + r) / 2.0)
    a0 = e * r / 2.0 - 2.0 * log_term
    a1 = r**3 / 3.0
    a2 = e * (2.0 * e * e - 4.0) * r / 8.0 - 2.0 * log_term
    return (a2 - e * a1) / (a1 - e * a0)


def eynard_closed_forms(e: float) -> dict:
    """x* = e, J = arccosh(e/2), c = sqrt(e^2-4)|e-ee| / (2(1+e ee))."""
    ee = eynard_ee(e)
    return {
        "ee": ee,
        "x_star": e,
        "J": math.acosh(e / 2.0),
        "c": math.sqrt(e * e - 4.0) * abs(e - ee) / (2.0 * (1.0 + e * ee)),
    }


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def check_scaling(params: dict, e: float, n: int, s: float) -> str | None:
    """A ScalingParams json_dict against the closed forms and the s <-> t map."""
    ref = eynard_closed_forms(e)
    if abs(params["x_star"] - e) > 1e-10:
        return f"x_star {params['x_star']!r} != e = {e}"
    if _rel(params["J"], ref["J"]) > 1e-12:
        return f"J {params['J']!r} != arccosh(e/2) = {ref['J']!r}"
    if _rel(params["c"], ref["c"]) > 1e-10:
        return f"c {params['c']!r} != closed form {ref['c']!r}"
    t_ref = 1.0 + s * math.log(n) / (2.0 * n * ref["J"])
    if _rel(params["t"], t_ref) > 1e-12:
        return f"t {params['t']!r} != 1 + s log n / (2 n J) = {t_ref!r}"
    nu = max(s, 0.0)
    k = math.floor(nu + 0.5)
    if params["n"] != n or params["k"] != k:
        return f"n, k = {params['n']}, {params['k']} != {n}, {k}"
    if abs(params["nu"] - nu) > 1e-12 or abs(params["delta"] - (nu - k)) > 1e-12:
        return f"nu, delta = {params['nu']!r}, {params['delta']!r}"
    if abs(params["m"] - nu / n) > 1e-15:
        return f"m {params['m']!r} != max(s, 0) / n"
    if not math.isfinite(params["x_star_nt"]):
        return "x_star_nt is not finite"
    if s <= 0 and params["x_star_nt"] != params["x_star"]:
        return "x_star_nt differs from x_star without a mass deficit"
    return None


# --- equilibrium measures ----------------------------------------------------


def check_quadratic_endpoints(a: float, b: float, t: float, mass: float) -> str | None:
    """V = x^2 in the field V/t: the semicircle on [-R, R] with R^2 = 2 t mass."""
    r = math.sqrt(2.0 * t * mass)
    if abs(a + r) > 1e-10 * r or abs(b - r) > 1e-10 * r:
        return f"endpoints ({a!r}, {b!r}) != (-{r!r}, {r!r})"
    return None


def check_band_measure(
    coeffs, t: float, mass: float, a: float, b: float, h_coeffs
) -> str | None:
    """Total mass and the balance condition of a one-cut measure.

    mass = (1/pi) int_a^b sqrt((b-x)(x-a)) h(x) dx and
    int_a^b V_t'(y) / sqrt((y-a)(b-y)) dy = 0, both by Gauss-Chebyshev rules
    of a size the program does not use.
    """
    if not a < b:
        return f"band [{a!r}, {b!r}] is empty"
    m = 200
    theta = (np.arange(1, m + 1) - 0.5) * np.pi / m
    y = 0.5 * (a + b) + 0.5 * (b - a) * np.cos(theta)
    h = np.polynomial.polynomial.polyval(y, np.asarray(h_coeffs))
    total = (0.5 * (b - a)) ** 2 / m * np.sum(np.sin(theta) ** 2 * h)
    if abs(total - mass) > 1e-10:
        return f"band mass {total!r} != {mass!r}"
    dv = np.polynomial.polynomial.polyder(np.asarray(coeffs, dtype=float)) / t
    balance = np.pi / m * np.sum(np.polynomial.polynomial.polyval(y, dv))
    if abs(balance) > 1e-10:
        return f"balance integral {balance!r} != 0"
    return None


# --- recurrence coefficients -------------------------------------------------


def _horner(coeffs, x):
    out = np.zeros_like(x)
    for c in reversed(coeffs):
        out = out * x + c
    return out


STIELTJES_LEVEL = 2000.0


def stieltjes_reference(coeffs, n: int, t: float, N: int):
    """alpha_0..N and beta_0..N of exp(-n V/t) by the discretized Stieltjes
    procedure in long double, on a composite Gauss-Legendre rule of its own.

    The window is where n (V/t - min V/t) <= STIELTJES_LEVEL, found by
    sampling; the weight beyond it is below exp(-2000) relative to its peak,
    which long double still resolves.
    """
    vt = np.asarray(coeffs, dtype=float) / t
    probe = np.linspace(-12.0, 12.0, 240001)
    v = _horner(vt, probe)
    excess = n * (v - v.min())
    inside = probe[excess <= STIELTJES_LEVEL]
    step = probe[1] - probe[0]
    lo, hi = inside.min() - step, inside.max() + step
    panels, per_panel = 48, 80
    xs, ws = leggauss(per_panel)
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mids = 0.5 * (edges[1:] + edges[:-1])
    x = (mids[:, None] + half[:, None] * xs[None, :]).ravel().astype(np.longdouble)
    wq = (half[:, None] * ws[None, :]).ravel().astype(np.longdouble)
    vx = _horner([np.longdouble(c) for c in vt], x)
    w = wq * np.exp(-n * (vx - vx.min()))
    alpha = np.zeros(N + 1, dtype=np.longdouble)
    beta = np.zeros(N + 1, dtype=np.longdouble)
    prev = np.zeros_like(x)
    cur = np.ones_like(x)
    norm = np.sum(w)
    for j in range(N + 1):
        alpha[j] = np.sum(w * x * cur * cur) / norm
        if j == N:
            break
        nxt = (x - alpha[j]) * cur - beta[j] * prev
        nxt_norm = np.sum(w * nxt * nxt)
        beta[j + 1] = nxt_norm / norm
        # scale the pair by one factor: the ratios above are unchanged
        scale = np.sqrt(nxt_norm)
        prev, cur, norm = cur / scale, nxt / scale, np.longdouble(1.0)
    return alpha.astype(float), beta.astype(float)


def check_recurrence(alpha, beta, ref_alpha, ref_beta, tol: float = 1e-9) -> str | None:
    """Program alpha/beta against reference coefficients, degree by degree."""
    alpha, beta = np.asarray(alpha), np.asarray(beta)
    if alpha.shape != ref_alpha.shape or beta.shape != ref_beta.shape:
        return f"table sizes {alpha.shape}, {beta.shape} != {ref_alpha.shape}"
    if not (np.all(np.isfinite(alpha)) and np.all(np.isfinite(beta))):
        return "non-finite recurrence coefficient"
    scale = float(np.max(np.sqrt(ref_beta[1:])))
    da = float(np.max(np.abs(alpha - ref_alpha))) / scale
    db = float(np.max(np.abs(beta[1:] - ref_beta[1:]) / ref_beta[1:]))
    if da > tol or db > tol:
        j = int(np.argmax(np.abs(beta[1:] - ref_beta[1:]) / ref_beta[1:])) + 1
        return f"recurrence off the reference: alpha {da:.2e}, beta {db:.2e} (worst j = {j})"
    return None


def hermite_recurrence(n: int, N: int):
    """V = x^2, weight exp(-n x^2): alpha_j = 0 and beta_j = j / (2n)."""
    beta = np.arange(N + 1) / (2.0 * n)
    return np.zeros(N + 1), beta


# --- kernel grids and counts -------------------------------------------------


def check_kernel_grid(K) -> str | None:
    """Finite, symmetric and positive semidefinite (a projection kernel)."""
    K = np.asarray(K)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        return f"kernel grid has shape {K.shape}"
    if not np.all(np.isfinite(K)):
        return "kernel grid has non-finite values"
    scale = max(float(np.abs(K).max()), 1e-300)
    asym = float(np.abs(K - K.T).max()) / scale
    if asym > 1e-10:
        return f"kernel grid is not symmetric (relative {asym:.2e})"
    low = float(np.linalg.eigvalsh(0.5 * (K + K.T)).min()) / scale
    if low < -1e-9:
        return f"kernel grid is not positive semidefinite (eigenvalue {low:.2e})"
    return None


def check_trace(weights, diag, n: int) -> str | None:
    """sum_i w_i K(x_i, x_i) = n on the table's own quadrature nodes."""
    total = float(np.sum(np.asarray(weights) * np.asarray(diag)))
    if abs(total - n) > 1e-8 * n:
        return f"kernel trace {total!r} != n = {n}"
    return None


def check_counts(counts_by_s: dict, n: int) -> str | None:
    """0 <= count <= n, and counts increase with s at fixed n."""
    ordered = [counts_by_s[s] for s in sorted(counts_by_s)]
    for s in sorted(counts_by_s):
        c = counts_by_s[s]
        if not (math.isfinite(c) and 0.0 <= c <= n):
            return f"count {c!r} at s = {s} outside [0, {n}]"
    if any(b <= a for a, b in zip(ordered[:-1], ordered[1:])):
        return f"counts {ordered} do not increase with s"
    return None


# --- GUE references ----------------------------------------------------------


def hermite_orthonormal(k: int, x):
    """Orthonormal Hermite H_k for exp(-x^2) from numpy's physicists' series."""
    coef = np.zeros(k + 1)
    coef[k] = 1.0
    norm = math.sqrt(2.0**k * math.factorial(k) * math.sqrt(math.pi))
    return nherm.hermval(x, coef) / norm


def check_hermite(k: int, x, values) -> str | None:
    ref = hermite_orthonormal(k, np.asarray(x))
    worst = float(np.max(np.abs(np.asarray(values) - ref)))
    if worst > 1e-12:
        return f"H_{k} differs from numpy's Hermite series by {worst:.2e}"
    return None


def classify_psi(entries, zeta: complex, k: int) -> tuple[str | None, str | None]:
    """(defect, problem) for a psi_matrix value.

    A defect is a known way for the model matrix to fail, counted as a failed
    operation: non-finite entries or a determinant off 1. A problem is any
    other wrong value: the first-column entries against numpy's Hermite series.
    """
    e = np.asarray(entries, dtype=complex)
    if not np.all(np.isfinite(e)):
        return "non-finite", None
    det = e[0, 0] * e[1, 1] - e[0, 1] * e[1, 0]
    if abs(det - 1.0) >= PSI_DET_TOL:
        return "det-defect", None
    weight = np.exp(-zeta * zeta / 2.0)
    monic = hermite_orthonormal(k, zeta) * math.sqrt(
        math.factorial(k) * math.sqrt(math.pi)
    ) / 2.0 ** (k / 2.0)
    kappa_km1 = 2.0 ** ((k - 1) / 2.0) / (math.pi**0.25 * math.sqrt(math.factorial(k - 1)))
    ref = (monic * weight, -2j * math.pi * kappa_km1 * hermite_orthonormal(k - 1, zeta) * weight)
    for got, want, where in ((e[0, 0], ref[0], "11"), (e[1, 0], ref[1], "21")):
        if abs(got - want) > 1e-10 * max(abs(want), 1e-300):
            return None, f"psi entry {where} {got!r} != Hermite reference {want!r}"
    return None, None


def check_cauchy(values, zeta: complex, conj_values) -> str | None:
    """Cauchy transforms C_0..C_K of H_k e^{-u^2} at zeta.

    They obey the Hermite recurrence with a source term:
    sqrt((k+1)/2) C_{k+1} + sqrt(k/2) C_{k-1} = zeta C_k + pi^{1/4} [k = 0],
    and C_k(conj zeta) = conj C_k(zeta).
    """
    c = np.asarray(values, dtype=complex)
    if not np.all(np.isfinite(c)):
        return "non-finite Cauchy transform"
    for k in range(len(c) - 1):
        lhs = math.sqrt((k + 1) / 2.0) * c[k + 1] + (math.sqrt(k / 2.0) * c[k - 1] if k else 0.0)
        rhs = zeta * c[k] + (math.pi**0.25 if k == 0 else 0.0)
        scale = max(abs(lhs), abs(zeta * c[k]), abs(c[k + 1]))
        if abs(lhs - rhs) > CAUCHY_REL_TOL * scale:
            return f"Cauchy recurrence off at k = {k}: {abs(lhs - rhs) / scale:.2e} relative"
    if np.max(np.abs(np.asarray(conj_values) - np.conj(c))) > 1e-14 * np.max(np.abs(c)):
        return "Cauchy transform breaks conjugation symmetry"
    return None


def check_kernel_pair(cd: float, summed: float) -> str | None:
    """The Christoffel-Darboux form of the GUE kernel equals the summed form."""
    if not (math.isfinite(cd) and math.isfinite(summed)):
        return "non-finite GUE kernel value"
    if abs(cd - summed) >= GUE_CD_SUM_TOL:
        return f"CD form {cd!r} != sum form {summed!r}"
    return None


def gue_sum_reference(k: int, u: float, v: float) -> float:
    """e^{-(u^2+v^2)/2} sum_{j<k} H_j(u) H_j(v) from numpy's Hermite series."""
    acc = sum(hermite_orthonormal(j, u) * hermite_orthonormal(j, v) for j in range(k))
    return float(math.exp(-(u * u + v * v) / 2.0) * acc)


def gue_trace_nodes(points: int = 24):
    """Gauss-Hermite nodes and weights times e^{u^2}: int f = sum w e^{u^2} f(u)."""
    u, w = nherm.hermgauss(points)
    return u, w * np.exp(u * u)


def check_gue_trace(k: int, diag_values, weights) -> str | None:
    total = float(np.sum(np.asarray(weights) * np.asarray(diag_values)))
    if abs(total - k) > GUE_TRACE_TOL * max(k, 1):
        return f"GUE kernel trace {total!r} != k = {k}"
    return None


# --- the sweep CSV -----------------------------------------------------------

SWEEP_HEADER = [
    "n",
    "s",
    "k",
    "delta",
    "sup_error",
    "l2_error",
    "lambda_plus",
    "expected_count",
    "decay_exponent",
]


def parse_sweep_csv(text: str) -> list[dict]:
    lines = text.rstrip("\n").split("\n")
    if lines[0].split(",") != SWEEP_HEADER:
        raise ValueError(f"unexpected sweep header {lines[0]!r}")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        row = {name: float(cell) for name, cell in zip(SWEEP_HEADER, cells)}
        row["n"], row["k"] = int(cells[0]), int(cells[2])
        rows.append(row)
    return rows


def check_sweep(text: str, n_list, s_list, reference_text: str | None = None) -> str | None:
    """Row order, the k rule, lambda range, the refitted decay exponent, and
    agreement with a stored reference CSV of the same command."""
    try:
        rows = parse_sweep_csv(text)
    except (ValueError, IndexError) as exc:
        return f"sweep CSV does not parse: {exc}"
    expected = [(n, float(s)) for s in s_list for n in n_list]
    if [(r["n"], r["s"]) for r in rows] != expected:
        return "sweep rows are not in (s, n) order of the command"
    for r in rows:
        if r["k"] != math.floor(r["s"] + 0.5):
            return f"k = {r['k']} at s = {r['s']} != floor(s + 1/2)"
        if not 0.0 <= r["lambda_plus"] <= 1.0:
            return f"lambda_plus {r['lambda_plus']!r} outside [0, 1]"
        if not 0.0 <= r["expected_count"] <= r["n"]:
            return f"expected_count {r['expected_count']!r} outside [0, n]"
    for s in s_list:
        group = [r for r in rows if r["s"] == float(s)]
        x = np.log([r["n"] for r in group])
        y = np.log([r["sup_error"] for r in group])
        xc = x - x.mean()
        slope = float(np.sum(xc * (y - y.mean())) / np.sum(xc * xc))
        if any(abs(r["decay_exponent"] - slope) > 1e-9 * max(1.0, abs(slope)) for r in group):
            return f"decay exponent at s = {s} != least-squares slope {slope!r}"
    if reference_text is not None:
        ref = parse_sweep_csv(reference_text)
        if len(ref) != len(rows):
            return "sweep has a different row count from the stored reference"
        for got, want in zip(rows, ref):
            if got["n"] != want["n"] or got["k"] != want["k"]:
                return f"row n={got['n']} s={got['s']} differs from the stored reference"
            for name in SWEEP_HEADER[3:]:
                if abs(got[name] - want[name]) > 1e-7 * max(1.0, abs(want[name])):
                    return (
                        f"{name} at n={got['n']} s={got['s']}: {got[name]!r} != "
                        f"stored reference {want[name]!r}"
                    )
    return None
