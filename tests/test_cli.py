import json
import subprocess
import sys

import numpy as np
import pytest


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "rmtlab.cli", *args], capture_output=True, text=True
    )


COMMANDS = ["eqm", "detect", "kernel", "gue", "psi", "compare", "sweep", "lambda-fit", "count"]


def test_help():
    cp = run_cli("--help")
    assert cp.returncode == 0
    assert "rmtlab" in cp.stdout
    for cmd in COMMANDS:
        assert cmd in cp.stdout


def test_unknown_command_exits_2():
    cp = run_cli("frobnicate")
    assert cp.returncode == 2
    assert cp.stderr


def test_unknown_flag_exits_2(eynard_config):
    cp = run_cli("detect", "--potential", eynard_config, "--frob", "1")
    assert cp.returncode == 2


def test_detect_eynard(eynard_config):
    cp = run_cli("detect", "--potential", eynard_config)
    assert cp.returncode == 0, cp.stderr
    out = json.loads(cp.stdout)
    assert abs(out["x_star"] - 3.0) < 1e-6
    assert abs(out["J"] - 0.9624236501192069) < 1e-7
    assert out["c"] > 0
    assert list(out) == sorted(out)


def test_detect_quadratic_fails_cleanly(quadratic_config):
    cp = run_cli("detect", "--potential", quadratic_config)
    assert cp.returncode == 1
    assert cp.stdout == ""
    err = json.loads(cp.stderr)
    assert err["kind"] == "no-singular-point"
    assert cp.stderr.count("\n") == 1


def test_eqm_semicircle(quadratic_config):
    cp = run_cli("eqm", "--potential", quadratic_config, "--mass", "1.0")
    assert cp.returncode == 0, cp.stderr
    out = json.loads(cp.stdout)
    assert abs(out["a"] + 1.4142136) < 1e-6
    assert out["h_coeffs"] == [1.0]


def test_eqm_bad_mass_exits_1(quadratic_config):
    cp = run_cli("eqm", "--potential", quadratic_config, "--mass", "1.5")
    assert cp.returncode == 1
    assert json.loads(cp.stderr)["kind"] == "invalid-parameter"


def test_gue_csv_golden():
    cp = run_cli("gue", "--k", "1", "--grid", "0,1,0.5")
    assert cp.returncode == 0
    lines = cp.stdout.strip().split("\n")
    assert lines[0] == "u,v,value"
    assert len(lines) == 10
    first = lines[1].split(",")
    assert first[:2] == ["0", "0"]
    assert abs(float(first[2]) - 1.0 / np.sqrt(np.pi)) < 1e-15


def test_determinism_detect(eynard_config):
    a = run_cli("detect", "--potential", eynard_config)
    b = run_cli("detect", "--potential", eynard_config)
    assert a.stdout == b.stdout and a.returncode == b.returncode == 0


def test_determinism_kernel_csv(eynard_config):
    args = ("kernel", "--potential", eynard_config, "--n", "40", "--s", "1.0",
            "--grid", "-1,1,0.5")
    a = run_cli(*args)
    b = run_cli(*args)
    assert a.returncode == 0, a.stderr
    assert a.stdout == b.stdout


def test_compare_parses_grid(eynard_config):
    cp = run_cli(
        "compare", "--n", "40", "--s", "1.0", "--potential", eynard_config,
        "--grid", "-3,3,0.25",
    )
    assert cp.returncode == 0, cp.stderr
    out = json.loads(cp.stdout)
    assert out["k"] == 1
    assert out["grid_step"] == 0.25
    assert out["sup_error"] > 0


def test_count_command(eynard_config):
    cp = run_cli("count", "--potential", eynard_config, "--n", "80", "--s", "-1.0")
    assert cp.returncode == 0, cp.stderr
    out = json.loads(cp.stdout)
    assert out["count"] < 0.1
    assert out["delta"] == pytest.approx(0.25, abs=1e-12)


def test_count_nonpositive_t_is_invalid(eynard_config):
    # n = 2, s = -8 maps to t = -0.44, where exp(-n V / t) is no weight
    cp = run_cli("count", "--potential", eynard_config, "--n", "2", "--s", "-8")
    assert cp.returncode == 1
    assert cp.stdout == ""
    assert json.loads(cp.stderr)["kind"] == "invalid-parameter"


def test_count_refusal_names_the_given_s(eynard_config):
    # the message names the s and n the user gave, not the t they map to
    cp = run_cli("count", "--potential", eynard_config, "--n", "3", "--s", "-8")
    assert cp.returncode == 1
    assert cp.stdout == ""
    err = json.loads(cp.stderr)
    assert err["kind"] == "invalid-parameter"
    assert err["error"].startswith("s = -8.0 is too negative at n = 3")


def test_lambda_fit_command(eynard_config):
    cp = run_cli(
        "lambda-fit", "--potential", eynard_config, "--n", "80", "--s", "1.2",
        "--grid", "-3,3,0.5",
    )
    assert cp.returncode == 0, cp.stderr
    out = json.loads(cp.stdout)
    assert abs(out["lambda_plus"] + out["lambda_minus"] - 1.0) < 1e-15


def test_psi_command():
    cp = run_cli("psi", "--k", "1")
    assert cp.returncode == 0, cp.stderr
    out = json.loads(cp.stdout)
    assert out["det_err_max"] < 1e-8
    assert out["c12_rel_err"] < 0.02
    assert out["c21_rel_err"] < 0.02
    # at 5+5i the Cauchy transforms lose their digits from k = 13 on
    cp = run_cli("psi", "--k", "21")
    assert cp.returncode == 1
    assert json.loads(cp.stderr)["kind"] == "precision-limit"


def test_sweep_command(eynard_config):
    cp = run_cli(
        "sweep", "--potential", eynard_config, "--n-list", "40,80",
        "--s-list", "1.0", "--grid", "-2,2,0.5",
    )
    assert cp.returncode == 0, cp.stderr
    lines = cp.stdout.strip().split("\n")
    assert lines[0] == "n,s,k,delta,sup_error,l2_error,lambda_plus,expected_count,decay_exponent"
    assert len(lines) == 3


def test_out_redirects(tmp_path, eynard_config):
    target = tmp_path / "out.json"
    cp = run_cli("detect", "--potential", eynard_config, "--out", str(target))
    assert cp.returncode == 0
    assert cp.stdout == ""
    assert json.loads(target.read_text())["x_star"] == pytest.approx(3.0, abs=1e-6)


def test_kernel_requires_n(eynard_config):
    cp = run_cli("kernel", "--potential", eynard_config, "--s", "1.0")
    assert cp.returncode == 2


@pytest.mark.parametrize("cmd", COMMANDS)
def test_command_help(cmd):
    cp = run_cli(cmd, "--help")
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout.startswith(f"usage: rmtlab {cmd} ")
    assert "--out" in cp.stdout


@pytest.mark.parametrize(
    "args",
    [
        ("kernel", "--n", "40", "--s", "1.0"),
        ("gue", "--k", "1"),
        ("compare", "--n", "40", "--s", "1.0"),
        ("lambda-fit", "--n", "40", "--s", "1.0"),
        ("sweep", "--n-list", "40", "--s-list", "1.0"),
    ],
    ids=lambda args: args[0],
)
def test_leading_minus_grid_parses(args, eynard_config):
    potential = () if args[0] == "gue" else ("--potential", eynard_config)
    cp = run_cli(*args, *potential, "--grid", "-1,1,0.5")
    assert cp.returncode == 0, cp.stderr
    if args[0] in ("kernel", "gue"):
        rows = [line.split(",") for line in cp.stdout.strip().split("\n")[1:]]
        assert len(rows) == 25 and rows[0][:2] == ["-1", "-1"]
    elif args[0] == "compare":
        assert json.loads(cp.stdout)["grid_min"] == -1.0
    else:
        assert cp.stdout


@pytest.mark.parametrize("cmd", ["gue", "psi"])
def test_k_required(cmd):
    cp = run_cli(cmd)
    assert cp.returncode == 2
    assert "--k" in cp.stderr
    assert cp.stdout == ""


@pytest.mark.parametrize("cmd", ["compare", "lambda-fit"])
def test_explicit_k_echoed(cmd, eynard_config):
    # the k-rule gives k = 1 at s = 1; --k overrides it
    cp = run_cli(cmd, "--potential", eynard_config, "--n", "40", "--s", "1.0", "--k", "2")
    assert cp.returncode == 0, cp.stderr
    assert json.loads(cp.stdout)["k"] == 2


def test_count_explicit_delta(eynard_config):
    cp = run_cli(
        "count", "--potential", eynard_config, "--n", "40", "--s", "1.0", "--delta", "0.1"
    )
    assert cp.returncode == 0, cp.stderr
    out = json.loads(cp.stdout)
    assert out["delta"] == 0.1
    assert 0.0 < out["count"] < 40
    # a NaN half-width is refused by its own name
    cp = run_cli("count", "--potential", eynard_config, "--n", "40", "--s", "1.0", "--delta", "nan")
    assert cp.returncode == 1
    assert cp.stdout == ""
    err = json.loads(cp.stderr)
    assert err == {"error": "delta must be finite, got nan", "kind": "invalid-parameter"}


def test_out_writes_csv(tmp_path):
    target = tmp_path / "gue.csv"
    cp = run_cli("gue", "--k", "1", "--grid", "0,1,0.5", "--out", str(target))
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout == ""
    assert target.read_text() == run_cli("gue", "--k", "1", "--grid", "0,1,0.5").stdout


@pytest.mark.parametrize(
    "grid", ["nan,1,0.5", "0,1,nan", "0,inf,0.5", "0,1e300,1e-300", "-1e308,1e308,1"]
)
@pytest.mark.parametrize("cmd", ["gue", "kernel"])
def test_non_finite_grid_is_a_usage_error(cmd, grid, eynard_config):
    # rejected while the arguments are parsed, like any other bad grid
    if cmd == "gue":
        args = ("--k", "1")
    else:
        args = ("--potential", eynard_config, "--n", "40", "--s", "1")
    cp = run_cli(cmd, *args, "--grid", grid)
    assert cp.returncode == 2
    assert cp.stdout == ""
    assert cp.stderr.endswith(f"error: argument --grid: invalid from_string value: '{grid}'\n")


@pytest.mark.parametrize("cmd", ["kernel", "count", "compare", "lambda-fit"])
def test_nan_s_is_invalid(cmd, eynard_config):
    cp = run_cli(cmd, "--potential", eynard_config, "--n", "40", "--s", "nan")
    assert cp.returncode == 1
    assert cp.stdout == ""
    err = json.loads(cp.stderr)
    assert err == {"error": "|s| <= 8.0 required, got nan", "kind": "invalid-parameter"}


def test_sweep_repeated_n_is_invalid(eynard_config):
    cp = run_cli("sweep", "--potential", eynard_config, "--n-list", "160,160", "--s-list", "1")
    assert cp.returncode == 1
    assert cp.stdout == ""
    err = json.loads(cp.stderr)
    assert err == {"error": "n values must not repeat, got 160 twice", "kind": "invalid-parameter"}


def test_sweep_nan_s_is_a_failure_row(eynard_config):
    cp = run_cli(
        "sweep", "--potential", eynard_config, "--n-list", "40",
        "--s-list", "nan,1.0", "--grid", "-1,1,0.5",
    )
    assert cp.returncode == 0, cp.stderr
    assert cp.stderr == ""
    rows = [line.split(",") for line in cp.stdout.strip().split("\n")[1:]]
    assert rows[0][:3] == ["40", "NaN", "-1"]
    assert rows[1][:3] == ["40", "1", "1"]


@pytest.mark.parametrize(
    "args",
    [("gue", "--k", "-1"), ("compare", "--n", "40", "--s", "1.0", "--k", "-1")],
    ids=lambda args: args[0],
)
def test_negative_k_is_invalid(args, eynard_config):
    potential = () if args[0] == "gue" else ("--potential", eynard_config)
    cp = run_cli(*args, *potential, "--grid", "-1,1,0.5")
    assert cp.returncode == 1
    assert cp.stdout == ""
    err = json.loads(cp.stderr)
    assert err == {"error": "k must be nonnegative, got -1", "kind": "invalid-parameter"}


@pytest.mark.parametrize(
    "content, message",
    [
        ("{bad", "is not JSON"),
        ("[1, 2]", "potential config must be an object, got list"),
        ('{"type": "poly", "coeffs": ["a", 1]}', "coeffs: 'a' is not a number"),
        ('{"type": "eynard", "e": null}', "e: None is not a number"),
        ('{"type": "eynard", "e": NaN}', "e must be finite"),
        ('{"type": "poly", "coeffs": [0, 0, Infinity]}', "coefficients must be finite"),
        ('{"type": "eynard", "e": 2.000000000000001}', "e = 2.000000000000001 puts"),
    ],
    ids=["not-json", "not-object", "coeffs", "e-null", "e-nan", "coeffs-inf", "e-near-2"],
)
def test_bad_config_is_invalid(tmp_path, content, message):
    path = tmp_path / "bad.json"
    path.write_text(content)
    cp = run_cli("eqm", "--potential", str(path))
    assert cp.returncode == 1
    assert cp.stdout == ""
    err = json.loads(cp.stderr)
    assert err["kind"] == "invalid-parameter"
    assert message in err["error"]


def test_potential_directory_is_io(tmp_path):
    cp = run_cli("eqm", "--potential", str(tmp_path))
    assert cp.returncode == 1
    assert cp.stdout == ""
    assert json.loads(cp.stderr)["kind"] == "io"


def test_out_into_missing_directory_is_io(tmp_path):
    target = tmp_path / "missing" / "gue.csv"
    cp = run_cli("gue", "--k", "1", "--grid", "0,1,0.5", "--out", str(target))
    assert cp.returncode == 1
    assert cp.stdout == ""
    assert json.loads(cp.stderr)["kind"] == "io"
    assert not target.parent.exists()


@pytest.mark.parametrize("where", ["missing/x.json", "file/x.json", "missing/deeper/x.json"])
def test_unwritable_out_refused_before_the_computation(tmp_path, monkeypatch, capsys, where):
    # the --out directory is checked before the handler runs, with the
    # error open() gives, and no file is created
    from rmtlab import cli
    from rmtlab.serialize import json_dumps

    (tmp_path / "file").write_text("")
    monkeypatch.chdir(tmp_path)
    with pytest.raises(OSError) as opened:
        open(where, "w")
    args = cli._build_parser().parse_args(["gue", "--k", "1", "--out", where])

    def handler(_args):
        raise AssertionError("the handler ran before --out was checked")

    args.handler = handler
    before = sorted(p.name for p in tmp_path.rglob("*"))
    assert cli.run(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == json_dumps({"error": str(opened.value), "kind": "io"}) + "\n"
    assert sorted(p.name for p in tmp_path.rglob("*")) == before
