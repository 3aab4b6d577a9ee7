"""Command line behavior: artifacts, determinism, tokens, exit codes."""
import hashlib
import json
import math
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import numpy as np
import pytest

from pspinlab import ModelParams, RegimeLabel, sigma_tot_projected
from pspinlab import cli, core
from pspinlab.cli import fmt_float, main, to_json


def run_cli(args):
    return main(list(args))


def test_fmt_float_round_trip():
    for v in (1.0 / 3.0, 0.1, 2.0, 1e-300, 123456.789012345):
        assert float(fmt_float(v)) == v
    assert fmt_float(float("inf")) == "+inf"
    assert fmt_float(float("-inf")) == "-inf"
    with pytest.raises(ValueError):
        fmt_float(float("nan"))


def test_to_json_tokens_and_order():
    doc = {"b": float("inf"), "a": float("nan"), "c": [1.5, "x"]}
    text = to_json(doc)
    assert '"a": null' in text
    assert '"b": "+inf"' in text
    assert text.index('"a"') < text.index('"b"') < text.index('"c"')


def test_grid_csv_round_trip(tmp_path):
    out = tmp_path / "g.csv"
    rc = run_cli(
        [
            "grid",
            "--p", "3", "--r", "1", "--lam", "2.0",
            "--quantity", "sigma_tot",
            "--axis", "0:1:41",
            "--out", str(out),
        ]
    )
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "m1,value"
    assert len(lines) == 42
    for line in lines[1:]:
        cells = line.split(",")
        for cell in cells:
            if cell in ("+inf", "-inf"):
                continue
            float(cell)  # parses as a number
    # endpoints leave the admissible overlap region
    assert lines[1].endswith("-inf")
    assert lines[-1].endswith("-inf")
    sidecar = json.loads((tmp_path / "g.csv.json").read_text())
    assert sidecar["params"]["p"] == 3
    assert sidecar["version"]


def test_grid_reruns_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = [
        "grid", "--p", "3", "--r", "2", "--lam", "0.9,0.5",
        "--quantity", "regime", "--axis", "0:1:21", "--axis", "0:1:21",
    ]
    assert run_cli(args + ["--out", str(a)]) == 0
    assert run_cli(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_regime_column_is_integer_code(tmp_path):
    out = tmp_path / "r.csv"
    run_cli(
        [
            "grid", "--p", "3", "--r", "1", "--lam", "0.5",
            "--quantity", "regime", "--axis", "0:1:11", "--out", str(out),
        ]
    )
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "m1,value,regime"
    codes = {line.split(",")[-1] for line in lines[1:]}
    assert codes <= {"0", "1", "2", "3", "4"}


def test_rate_csv(tmp_path):
    out = tmp_path / "rate.csv"
    rc = run_cli(
        ["rate", "--gamma", "2.0", "--t", "2.5", "--t", "1.5", "--out", str(out)]
    )
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,i_max,L,L_left"
    assert lines[1] == "2.5,0,0,0"
    assert lines[2] == "1.5,+inf,+inf,+inf"


def test_rate_requires_sorted_gamma(capsys):
    rc = run_cli(["rate", "--gamma", "0.5,1.5", "--t", "2.5"])
    assert rc == 2


def test_classify_json(tmp_path):
    out = tmp_path / "c.json"
    rc = run_cli(
        ["classify", "--p", "3", "--r", "1", "--lam", "0.5", "--m", "0.5",
         "--out", str(out)]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["label"] == "POSITIVE"
    assert doc["code"] == 1
    assert math.isclose(doc["sigma_tot"], 0.1792950541, abs_tol=1e-9)
    assert math.isclose(doc["aux"]["eta"], 4.0, abs_tol=1e-12)


def test_zeros_json(tmp_path):
    out = tmp_path / "z.json"
    rc = run_cli(
        ["zeros", "--p", "3", "--r", "1", "--lam", "2.0", "--out", str(out)]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert len(doc["solutions"]) == 2
    assert math.isclose(doc["solutions"][0][0], 0.2087211906, abs_tol=1e-8)
    assert math.isclose(doc["solutions"][1][0], 0.9779751861, abs_tol=1e-8)


def test_tiny_spike_zeros_empty(tmp_path):
    # the slope scan at lam = 1e-120 overflows m^k; far below lambda_critical
    # there is no zero locus
    out = tmp_path / "z.json"
    assert run_cli(["zeros", "--p", "3", "--r", "1", "--lam", "1e-120", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["solutions"] == []


def test_tiny_spike_classify_eta_infinite(tmp_path):
    # eta sums lam^(-2/(k-2)), which overflows to +inf at lam = 1e-300
    out = tmp_path / "c.json"
    rc = run_cli(["classify", "--p", "3", "--r", "1", "--lam", "1e-300", "--m", "0.5",
                  "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["aux"]["eta"] == "+inf"
    assert doc["label"] == "POSITIVE"


def test_huge_spike_classify_exit_code():
    # tau^2 overflows at lam = 1e300 and sigma_tot comes out NaN
    argv = ["classify", "--p", "3", "--r", "1", "--lam", "1e300", "--m", "0.5"]
    assert run_cli(argv) == 2
    # the usage error is all a user sees, with no numpy warnings before it
    proc = subprocess.run([sys.executable, "-m", "pspinlab.cli", *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [
        "usage error: sigma_tot at m = [0.5] leaves the float range (NaN)"
    ]


def test_experiment_requires_seed(capsys):
    rc = run_cli(["experiment", "--experiment", "mc-det", "--n", "10",
                  "--trials", "5"])
    assert rc == 2
    assert "seed" in capsys.readouterr().err


def test_experiment_json_shape(tmp_path):
    out = tmp_path / "e.json"
    rc = run_cli(
        ["experiment", "--experiment", "mc-det", "--n", "20", "--trials", "32",
         "--seed", "5", "--out", str(out)]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    for key in ("experiment", "inputs", "estimate", "std_error", "trials",
                "seed", "wall_time", "theory_value", "discrepancy"):
        assert key in doc
    assert doc["seed"] == 5
    assert doc["trials"] == 32
    assert doc["theory_value"] == -0.5


_COUNT = ("--experiment", "kacrice-count", "--p", "3", "--r", "1", "--lam", "1", "--n", "2")
# (argv, config file, inputs): the inputs object of each artifact as recorded
# before it was read from the flags' resolved values
EXPERIMENT_INPUTS = {
    "mc-det": (
        ("--experiment", "mc-det", "--n", "4", "--gamma", "1.5", "--shift", "0.5",
         "--trials", "3", "--seed", "0"),
        "",
        {"gamma": [1.5], "n": 4, "seed": 0, "shift": 0.5, "trials": 3},
    ),
    "mc-lmax": (
        ("--experiment", "mc-lmax", "--n", "4", "--gamma", "2.0,0.5", "--t", "2.5",
         "--trials", "3", "--seed", "1"),
        "",
        {"gamma": [2, 0.5], "n": 4, "seed": 1, "shift": 0, "t": 2.5, "trials": 3},
    ),
    "mc-restricted": (
        ("--experiment", "mc-restricted", "--n", "4", "--gamma", "1.5", "--shift", "2.5",
         "--trials", "3", "--seed", "0"),
        "",
        {"gamma": [1.5], "n": 4, "seed": 0, "shift": 2.5, "trials": 3},
    ),
    "esd": (
        ("--experiment", "esd", "--n", "6", "--seed", "0"),
        "",
        {"gamma": [], "n": 6, "seed": 0, "shift": 0, "trials": 1},
    ),
    "esd-spiked": (
        ("--experiment", "esd", "--n", "6", "--gamma", "2.0,1.5", "--shift", "0.5",
         "--seed", "2"),
        "",
        {"gamma": [2, 1.5], "n": 6, "seed": 2, "shift": 0.5, "trials": 1},
    ),
    "spherical": (
        ("--experiment", "spherical", "--n", "3", "--gamma", "0.5", "--diag=-1,0,2",
         "--trials", "4", "--seed", "0"),
        "",
        {"diag": [-1, 0, 2], "gamma": [0.5], "n": 3, "seed": 0, "trials": 4},
    ),
    "kacrice-count": (
        (*_COUNT, "--trials", "2", "--seed", "0"),
        "",
        {"budget": 200, "k": [3], "lam": [1], "n": 2, "overlap_windows": None, "p": 3,
         "r": 1, "seed": 0, "trials": 2, "value_window": None, "which": "total"},
    ),
    "kacrice-count-k": (
        ("--experiment", "kacrice-count", "--p", "3", "--r", "2", "--k", "3,4",
         "--lam", "1,0.5", "--n", "3", "--trials", "1", "--budget", "4", "--seed", "0"),
        "",
        {"budget": 4, "k": [3, 4], "lam": [1, 0.5], "n": 3, "overlap_windows": None, "p": 3,
         "r": 2, "seed": 0, "trials": 1, "value_window": None, "which": "total"},
    ),
    "kacrice-count-max": (
        (*_COUNT, "--trials", "2", "--which", "max", "--seed", "0"),
        "",
        {"budget": 200, "k": [3], "lam": [1], "n": 2, "overlap_windows": None, "p": 3,
         "r": 1, "seed": 0, "trials": 2, "value_window": None, "which": "max"},
    ),
    "kacrice-count-windows": (
        (*_COUNT, "--trials", "2", "--which", "1", "--overlap-window", "0:1",
         "--value-window=-2:2", "--seed", "0"),
        "",
        {"budget": 200, "k": [3], "lam": [1], "n": 2, "overlap_windows": [[0, 1]], "p": 3,
         "r": 1, "seed": 0, "trials": 2, "value_window": [-2, 2], "which": "1"},
    ),
    "kacrice-count-config": (
        (*_COUNT, "--seed", "3"),
        "trials=2\nwhich=max\noverlap_window=0:1\n",
        {"budget": 200, "k": [3], "lam": [1], "n": 2, "overlap_windows": [[0, 1]], "p": 3,
         "r": 1, "seed": 3, "trials": 2, "value_window": None, "which": "max"},
    ),
    "kacrice-formula": (
        ("--experiment", "kacrice-formula", "--p", "3", "--r", "1", "--lam", "1", "--n", "2",
         "--inner-trials", "8", "--batches", "2", "--seed", "0"),
        "",
        {"batches": 2, "inner_trials": 8, "k": [3], "lam": [1], "n": 2,
         "overlap_windows": None, "p": 3, "r": 1, "seed": 0, "value_window": None,
         "which": "total"},
    ),
}


@pytest.mark.parametrize("name", sorted(EXPERIMENT_INPUTS))
def test_experiment_inputs_record_what_ran(tmp_path, name):
    argv, config, inputs = EXPERIMENT_INPUTS[name]
    cfg, out = tmp_path / "run.cfg", tmp_path / "e.json"
    cfg.write_text(config)
    assert run_cli(["experiment", *argv, "--config", str(cfg), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    given = {tok[2:].partition("=")[0].replace("-", "_") for tok in argv if tok.startswith("--")}
    given |= {line.partition("=")[0] for line in config.splitlines()}
    for flag in given - {"experiment"}:
        assert ("overlap_windows" if flag == "overlap_window" else flag) in doc["inputs"]
    assert doc["inputs"] == inputs
    trials = inputs.get("trials", inputs.get("inner_trials"))
    assert (doc["seed"], doc["trials"]) == (inputs["seed"], trials)


def test_experiment_reruns_identical_but_wall_time(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["experiment", "--experiment", "mc-lmax", "--n", "30",
            "--gamma", "2.0", "--t", "2.0", "--trials", "200", "--seed", "3"]
    assert run_cli(args + ["--out", str(a)]) == 0
    assert run_cli(args + ["--out", str(b)]) == 0
    da = json.loads(a.read_text())
    db = json.loads(b.read_text())
    da.pop("wall_time"), db.pop("wall_time")
    assert da == db


def test_config_file_fills_missing_flags(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p=3\nr=1\nlam=0.5\nquantity=sigma_tot\naxis=0:1:5\n")
    out = tmp_path / "from_cfg.csv"
    rc = run_cli(["grid", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    assert out.read_text().startswith("m1,value")


def test_flags_beat_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p=3\nr=1\nlam=0.5\nm=0.9\n")
    out = tmp_path / "c.json"
    rc = run_cli(["classify", "--config", str(cfg), "--m", "0.5",
                  "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["label"] == "POSITIVE"


def test_io_error_exit_code(tmp_path):
    rc = run_cli(
        ["classify", "--p", "3", "--r", "1", "--lam", "0.5", "--m", "0.5",
         "--out", str(tmp_path / "missing_dir" / "x.json")]
    )
    assert rc == 4


def test_bad_quantity_exit_code():
    rc = run_cli(["grid", "--p", "3", "--r", "1", "--lam", "0.5",
                  "--quantity", "nope", "--axis", "0:1:5"])
    assert rc == 2


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "pspinlab.cli", "rate", "--gamma", "1.5",
         "--t", "3.0"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("t,i_max,L,L_left")


def test_rate_huge_t_is_infinite():
    # t * t overflows at t = 1e200, where i_max is +inf and both L are 0
    proc = subprocess.run(
        [sys.executable, "-m", "pspinlab.cli", "rate", "--gamma", "1.5",
         "--t", "1e200", "--t", "3"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout.split("\n") == [
        "t,i_max,L,L_left",
        "9.9999999999999997e+199,+inf,0,0",
        "3,0.2475462205568999,0,0",
        "",
    ]


@pytest.mark.parametrize("float_cells", [cli._FLOAT_CELLS, 0])
@pytest.mark.parametrize("gamma, t, want", [
    ("1.5e154", "2.5", 5.625e307),
    ("1.5e154", "1e154", 6.25e306),
    ("1e200", "2.5", math.inf),
])
def test_rate_huge_spike_row(tmp_path, monkeypatch, float_cells, gamma, t, want):
    # gamma * gamma overflows, yet the row holds the rate (checked against
    # mpmath in test_rates), on floats and on the stack alike
    monkeypatch.setattr(cli, "_FLOAT_CELLS", float_cells)
    out = tmp_path / "rate.csv"
    assert run_cli(["rate", "--gamma", gamma, "--t", t, "--out", str(out)]) == 0
    _, row = out.read_text().splitlines()
    assert [float(v) for v in row.split(",")[1:]] == pytest.approx([want] * 3, rel=1e-12)


@pytest.mark.parametrize("gamma", ["1.5", "0.5", ""])
def test_rate_infinite_t_is_the_limit_row(gamma):
    # supercritical, subcritical and no spike: the t -> +inf row, as at t = 1e200
    proc = subprocess.run(
        [sys.executable, "-m", "pspinlab.cli", "rate", f"--gamma={gamma}",
         "--t", "inf", "--t", "2.1", "--t=-inf"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    rows = proc.stdout.split("\n")
    assert rows[1] == "+inf,+inf,0,0"
    assert rows[3] == "-inf,+inf,+inf,+inf"


@pytest.mark.parametrize("t_args", [
    ["--t", "nan"],
    ["--t", "2.5", "--t", "NaN"],
    ["--t-range", "nan:3:1"],
    ["--t-range", "2:nan:5"],
    ["--t-range", "2:inf:3"],
    ["--t-range=-1.7e308:1.7e308:3"],
])
def test_rate_nan_t_or_unbounded_range_exit_code(t_args):
    proc = subprocess.run(
        [sys.executable, "-m", "pspinlab.cli", "rate", "--gamma", "1.5", *t_args],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("usage error: ")
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["--experiment", "mc-det", "--n", "20", "--gamma", "1.5", "--trials", "64"],
    ["--experiment", "mc-restricted", "--n", "20", "--gamma", "1.5", "--shift", "2.5",
     "--trials", "64"],
    ["--experiment", "spherical", "--n", "8", "--gamma", "0.8", "--diag=-1,-0.5,0,0.5,1,1,1,1",
     "--trials", "64"],
])
def test_log_mean_exp_experiments_report_ess(tmp_path, argv):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(["experiment", *argv, "--seed", "2", "--out", str(a)]) == 0
    assert run_cli(["experiment", *argv, "--seed", "2", "--out", str(b)]) == 0
    extras = json.loads(a.read_text())["extras"]
    assert 1.0 <= extras["ess"] <= 64.0
    assert 1.0 / 64.0 <= extras["max_weight_share"] <= 1.0
    assert extras["low_ess"] is (extras["ess"] < 6.4)
    strip = lambda path: [ln for ln in path.read_text().splitlines() if '"wall_time"' not in ln]
    assert strip(a) == strip(b)


def test_kacrice_formula_rank_two_converges(tmp_path):
    out = tmp_path / "formula.json"
    rc = run_cli(["experiment", "--experiment", "kacrice-formula", "--p", "3", "--r", "2",
                  "--lam", "1,0.5", "--n", "3", "--inner-trials", "8", "--batches", "2",
                  "--seed", "1", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["extras"]["quadrature_rel_gap"] <= 1e-4
    assert doc["estimate"] > 0.0


def test_cli_import_leaves_scipy_unloaded():
    import pspinlab

    src = str(Path(pspinlab.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.path.insert(0, sys.argv[1]); import pspinlab.cli; "
         "print(sorted(k for k in sys.modules if k == 'scipy' or k.startswith('scipy.')))",
         src],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _fresh_interpreter(code, *argv):
    """Runs code in a new interpreter that imports pspinlab from this checkout,
    with sys.argv[1:] = argv; returns what it printed, parsed as JSON."""
    import pspinlab

    src = str(Path(pspinlab.__file__).resolve().parents[1])
    prelude = "import json, sys\nsys.path.insert(0, sys.argv.pop(1))\n"
    proc = subprocess.run(
        [sys.executable, "-c", prelude + textwrap.dedent(code), src, *map(str, argv)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


_LOADED = """
    def loaded(names=("pspinlab.kacrice", "pspinlab.rmt")):
        return [k for k in names if k in sys.modules]
"""


def test_closed_form_commands_leave_stochastic_layer_unloaded(tmp_path):
    seen = _fresh_interpreter(_LOADED + """
    import pspinlab.cli
    seen = [loaded()]
    grid = ["grid", "--p", "3", "--r", "2", "--lam", "2.0,1.5", "--quantity", "regime",
            "--axis", "0:0.9:5", "--axis", "0:0.9:5", "--out", sys.argv[1] + "/g.csv"]
    zeros = ["zeros", "--p", "3", "--r", "1", "--lam", "2.0", "--out", sys.argv[1] + "/z.json"]
    for argv in (grid, zeros):
        assert pspinlab.cli.main(argv) == 0
        seen.append(loaded())
    print(json.dumps(seen))
    """, tmp_path)
    assert seen == [[], [], []]


def test_mc_det_leaves_kacrice_unloaded(tmp_path):
    seen = _fresh_interpreter(_LOADED + """
    import pspinlab.cli
    argv = ["experiment", "--experiment", "mc-det", "--n", "20", "--trials", "5",
            "--seed", "0", "--out", sys.argv[1] + "/d.json"]
    assert pspinlab.cli.main(argv) == 0
    print(json.dumps(loaded()))
    """, tmp_path)
    assert seen == ["pspinlab.rmt"]


def test_help_and_bad_flag_load_no_command_module():
    # argparse alone answers them: no core, numpy, dataclasses or datetime
    seen = _fresh_interpreter(_LOADED + """
    import contextlib, io
    import pspinlab.cli
    names = ("pspinlab.core", "numpy", "dataclasses", "datetime")
    seen = {"import": loaded(names)}
    for argv in (["--help"], ["grid", "--no-such-flag"]):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            seen[argv[-1]] = [pspinlab.cli.main(argv), loaded(names)]
    print(json.dumps(seen))
    """)
    assert seen == {"import": [], "--help": [0, []], "--no-such-flag": [2, []]}


def test_commands_load_no_rate_or_spike_module_they_do_not_run(tmp_path):
    # a sigma_tot grid runs core alone, mc-det needs core's phi_star only,
    # and the rates of rate and mc-lmax need no spike spectrum
    seen = _fresh_interpreter(_LOADED + """
    import pspinlab.cli
    names = ("pspinlab.rates", "pspinlab.spikes")
    runs = {
        "grid": ["grid", "--p", "3", "--r", "2", "--lam", "2.0,1.5", "--quantity", "sigma_tot",
                 "--axis", "0:0.9:5", "--axis", "0:0.9:5"],
        "mc-det": ["experiment", "--experiment", "mc-det", "--n", "20", "--trials", "5",
                   "--seed", "0"],
        "rate": ["rate", "--gamma", "1.5,0.5", "--t-range", "2:4:9"],
        "mc-lmax": ["experiment", "--experiment", "mc-lmax", "--n", "20", "--gamma", "1.5",
                    "--t", "2.5", "--trials", "5", "--seed", "0"],
    }
    seen = {}
    for name, argv in runs.items():
        seen[name] = [pspinlab.cli.main([*argv, "--out", f"{sys.argv[1]}/{name}"]), loaded(names)]
    print(json.dumps(seen))
    """, tmp_path)
    assert seen == {
        "grid": [0, []],
        "mc-det": [0, []],
        "rate": [0, ["pspinlab.rates"]],
        "mc-lmax": [0, ["pspinlab.rates"]],
    }


_NUMPY_LOADED = """
    import contextlib, io
    import pspinlab.cli

    def loaded():
        # numpy imports inspect itself; core imports neither, nor dataclasses
        return [name for name in ("numpy", "inspect", "dataclasses") if name in sys.modules]

    seen = {"import": loaded()}
    with contextlib.redirect_stdout(io.StringIO()):
        seen["help"] = [pspinlab.cli.main(["--help"]), loaded()]
    for name, argv in json.loads(sys.argv[2]).items():
        seen[name] = [pspinlab.cli.main([*argv, "--out", f"{sys.argv[1]}/{name}"]), loaded()]
    print(json.dumps(seen))
"""


def test_one_point_commands_leave_numpy_unloaded(tmp_path):
    # classify, zeros, rate and a core grid of at most _FLOAT_CELLS cells run
    # on Python floats and load neither numpy nor inspect nor dataclasses; a
    # grid that builds arrays loads numpy, each in its own interpreter
    regime = ["grid", "--p", "3", "--r", "1", "--lam", "2.0", "--quantity", "regime"]
    floats = {
        "classify": ["classify", "--p", "3", "--r", "2", "--lam", "2.0,1.5", "--m", "0.5,0.2"],
        "zeros": ["zeros", "--p", "3", "--r", "2", "--lam", "2.0,1.5", "--pattern", "0,1"],
        "rate": ["rate", "--gamma", "1.5,0.5", "--t-range", "2:4:81"],
        "small-grid": [*regime, "--axis", f"0:0.9:{cli._FLOAT_CELLS}"],
    }
    arrays = {
        "grid": [*regime, "--axis", f"0:0.9:{cli._FLOAT_CELLS + 1}"],
        "sigma_max-grid": ["grid", "--p", "3", "--r", "1", "--lam", "2.0",
                           "--quantity", "sigma_max", "--axis", "0:0.9:5"],
        "gamma1-grid": ["grid", "--p", "3", "--r", "1", "--lam", "2.0",
                        "--quantity", "gamma1", "--axis", "0:0.9:5"],
    }
    seen = _fresh_interpreter(_NUMPY_LOADED, tmp_path, json.dumps(floats))
    assert seen == {
        "import": [],
        "help": [0, []],
        "classify": [0, []],
        "zeros": [0, []],
        "rate": [0, []],
        "small-grid": [0, []],
    }
    for name, argv in arrays.items():
        seen = _fresh_interpreter(_NUMPY_LOADED, tmp_path, json.dumps({name: argv}))
        code, modules = seen.pop(name)
        assert seen == {"import": [], "help": [0, []]}
        assert code == 0 and "numpy" in modules, name


def test_every_exported_name_resolves_on_first_use():
    doc = _fresh_interpreter("""
    import pspinlab
    # a submodule resolves before any of its names has loaded it
    submodule = pspinlab.core.__name__
    resolved = [name for name in pspinlab.__all__ if getattr(pspinlab, name, None) is not None]
    star = {}
    exec("from pspinlab import *", star)
    try:
        pspinlab.no_such_name
        unknown = "resolved"
    except AttributeError:
        unknown = "AttributeError"
    print(json.dumps({
        "all": pspinlab.__all__,
        "resolved": resolved,
        "star": sorted(star),
        "undirected": sorted(set(pspinlab.__all__) - set(dir(pspinlab))),
        "stored": sorted({"GOESpec", "kac_rice_eval"} & set(vars(pspinlab))),
        "unknown": unknown,
        "submodule": submodule,
    }))
    """)
    assert doc["resolved"] == doc["all"]
    assert set(doc["all"]) <= set(doc["star"])
    assert doc["undirected"] == []
    # resolved objects stay out of the package namespace, so patching a
    # submodule's global is seen by every later lookup
    assert doc["stored"] == []
    assert doc["unknown"] == "AttributeError"
    assert doc["submodule"] == "pspinlab.core"


def _kacrice(tmp_path, name, *extra):
    out = tmp_path / f"{name}.json"
    rc = run_cli(["experiment", "--experiment", name, "--p", "3", "--r", "1",
                  "--lam", "0.0", "--n", "2", "--seed", "1", "--out", str(out),
                  *extra])
    return rc, (json.loads(out.read_text()) if rc == 0 else None)


def test_kacrice_count_which_max(tmp_path):
    rc, top = _kacrice(tmp_path, "kacrice-count", "--trials", "20", "--which", "max")
    assert rc == 0
    rc, by_index = _kacrice(tmp_path, "kacrice-count", "--trials", "20", "--which", "1")
    assert rc == 0
    assert top["estimate"] == by_index["estimate"] > 0.0
    assert top["extras"]["ill_conditioned_roots"] == 0


def test_kacrice_count_bad_which_exit_code(tmp_path):
    rc, _ = _kacrice(tmp_path, "kacrice-count", "--trials", "5", "--which", "min")
    assert rc == 2


@pytest.mark.parametrize("budget", ["0", "-3"])
def test_kacrice_count_bad_budget_exit_code(tmp_path, budget):
    # no smooth function on the sphere has zero critical points
    out = tmp_path / "count.json"
    rc = run_cli(["experiment", "--experiment", "kacrice-count", "--p", "3", "--r", "1",
                  "--lam", "0.0", "--n", "3", "--trials", "2", f"--budget={budget}",
                  "--seed", "1", "--out", str(out)])
    assert rc == 2
    assert not out.exists()


def test_kacrice_formula_node_cap_exit_code(tmp_path, monkeypatch):
    from pspinlab import kacrice

    monkeypatch.setattr(kacrice, "_FIRST_NODES", 2)
    monkeypatch.setattr(kacrice, "_MAX_TENSOR_NODES", 16)
    rc, _ = _kacrice(tmp_path, "kacrice-formula", "--inner-trials", "64", "--batches", "2")
    assert rc == 3
    monkeypatch.undo()
    rc, doc = _kacrice(tmp_path, "kacrice-formula", "--inner-trials", "64", "--batches", "2")
    assert rc == 0
    assert doc["extras"]["quadrature_rel_gap"] <= 1e-4


@pytest.mark.parametrize("argv", [
    ["grid", "--p", "3", "--r", "1", "--lam", "0.5", "--quantity", "sigma_tot", "--axis", "0:1"],
    ["grid", "--p", "3", "--r", "1", "--lam", "0.5", "--quantity", "sigma_tot", "--axis", "0:1:1"],
    ["grid", "--p", "3", "--r", "1", "--lam", "0.5", "--quantity", "sigma_tot", "--axis", "0:2:5"],
    ["grid", "--p", "3", "--r", "1", "--lam", "0.5", "--quantity", "sigma_tot", "--axis", "0:x:5"],
    ["grid", "--p", "3", "--r", "2", "--lam", "0.5,0.2", "--quantity", "sigma_tot",
     "--axis", "0:1:5", "--fix", "1:abc"],
    ["grid", "--p", "3", "--r", "2", "--lam", "0.5,0.2", "--quantity", "sigma_tot",
     "--axis", "0:1:5", "--axis", "0:1:5", "--fix", "2:0.5"],
    ["rate", "--gamma", "1.5", "--t-range", "3:2:5"],
    ["rate", "--gamma", "1.5", "--t", "abc"],
    ["rate", "--gamma", "1.5", "--t-range", "2:3:0"],
    ["classify", "--p", "3", "--r", "2", "--lam", "1,1", "--m", "0.5"],
    # a negative or NaN tol would hide the zero-locus label of this point
    ["classify", "--p", "3", "--r", "1", "--lam", "2", "--m", "0.9779751860797076",
     "--tol=-1e-6"],
    ["classify", "--p", "3", "--r", "1", "--lam", "2", "--m", "0.9779751860797076",
     "--tol=nan"],
    ["zeros", "--p", "3", "--r", "1", "--lam", "2", "--pattern", "3"],
    # the artifact would repeat the raw list beside the solutions of its set
    ["zeros", "--p", "3", "--r", "2", "--lam", "2,1.5", "--pattern", "0,0"],
    ["zeros", "--p", "3", "--r", "2", "--lam", "2,1.5", "--pattern", "0,1,1"],
    ["experiment", "--experiment", "kacrice-formula", "--p", "3", "--r", "2", "--lam", "1,1",
     "--n", "2", "--seed", "0"],
    ["experiment", "--experiment", "kacrice-formula", "--p", "3", "--r", "1", "--lam", "1",
     "--n", "2", "--inner-trials", "4", "--batches", "8", "--seed", "0"],
    ["experiment", "--experiment", "mc-det", "--n", "0", "--trials", "2", "--seed", "0"],
    ["experiment", "--experiment", "spherical", "--n", "3", "--gamma", "0.5", "--diag", "1,2",
     "--trials", "2", "--seed", "0"],
    # one window at r = 2 would leave m2 unwindowed
    ["experiment", "--experiment", "kacrice-count", "--p", "3", "--r", "2", "--lam", "1,0.5",
     "--n", "2", "--trials", "2", "--overlap-window", "0:1", "--seed", "0"],
    # non-finite spike inputs: NaN passes every ordering test, inf the sign test
    ["grid", "--p", "3", "--r", "2", "--lam", "inf,1", "--quantity", "sigma_max",
     "--axis", "0:0.5:3", "--axis", "0:0.5:3"],
    ["experiment", "--experiment", "kacrice-count", "--p", "3", "--r", "1", "--lam", "nan",
     "--n", "2", "--trials", "3", "--seed", "0"],
    ["zeros", "--p", "3", "--r", "1", "--lam", "nan"],
    ["zeros", "--p", "3", "--r", "1", "--lam", "inf"],
    ["rate", "--gamma", "nan", "--t", "2.5"],
    ["experiment", "--experiment", "mc-lmax", "--n", "5", "--shift", "nan", "--t", "1",
     "--trials", "3", "--seed", "0"],
    ["experiment", "--experiment", "mc-det", "--n", "5", "--gamma", "inf", "--trials", "3",
     "--seed", "0"],
    # flags the command never reads
    ["experiment", "--experiment", "esd", "--n", "50", "--trials", "100", "--seed", "0"],
    ["experiment", "--experiment", "kacrice-formula", "--p", "3", "--r", "1", "--lam", "1",
     "--n", "2", "--inner-trials", "64", "--batches", "2", "--budget", "7", "--seed", "0"],
    ["experiment", "--experiment", "mc-det", "--n", "5", "--trials", "3", "--t", "3",
     "--p", "3", "--seed", "0"],
    ["grid", "--p", "3", "--r", "1", "--lam", "0.5", "--quantity", "sigma_tot",
     "--axis", "0:1:5", "--seed", "9"],
    # NaN window ends, t and overlaps: NaN passes every ordering test
    ["experiment", "--experiment", "kacrice-count", "--p", "3", "--r", "1", "--lam", "1",
     "--n", "2", "--trials", "3", "--value-window", "nan:1", "--seed", "0"],
    ["experiment", "--experiment", "kacrice-count", "--p", "3", "--r", "1", "--lam", "1",
     "--n", "2", "--trials", "3", "--overlap-window", "nan:1", "--seed", "0"],
    ["experiment", "--experiment", "mc-lmax", "--n", "5", "--t", "nan", "--trials", "3",
     "--seed", "0"],
    ["classify", "--p", "3", "--r", "1", "--lam", "1", "--m", "nan"],
    # a NaN fixed coordinate, which eta and gamma1 would otherwise tabulate
    ["grid", "--p", "3", "--r", "2", "--lam", "2,1.5", "--quantity", "eta", "--fix", "1:nan",
     "--axis", "0:0.5:3"],
    ["grid", "--p", "3", "--r", "2", "--lam", "2,1.5", "--quantity", "gamma1", "--fix", "1:nan",
     "--axis", "0:0.5:3"],
    ["experiment", "--experiment", "spherical", "--n", "3", "--gamma", "0.5",
     "--diag", "nan,2,3", "--trials", "5", "--seed", "0"],
    # zero batches would divide the inner trials by zero, and one dimension
    # leaves no circle to count on
    ["experiment", "--experiment", "kacrice-formula", "--p", "3", "--r", "1", "--lam", "1",
     "--n", "2", "--batches", "0", "--seed", "0"],
    ["experiment", "--experiment", "kacrice-count", "--p", "3", "--r", "1", "--lam", "1",
     "--n", "1", "--trials", "2", "--seed", "0"],
    # a table too large to hold is refused before any of it is built
    ["grid", "--p", "3", "--r", "1", "--lam", "0.5", "--quantity", "sigma_tot",
     "--axis", "0:1:100000000000"],
    ["rate", "--gamma", "1.5", "--t-range", "2:3:100000000000"],
])
def test_bad_range_and_value_exit_code(argv, capsys):
    assert run_cli(argv) == 2
    # one error line (ours, or argparse's for an unknown flag) and no artifact
    out, err = capsys.readouterr()
    assert out == ""
    assert sum("error: " in line for line in err.splitlines()) == 1


def test_grid_overflow_exit_code():
    # tau^2 overflows at lam = 1e300 and the sigma_tot column comes out NaN
    argv = ["grid", "--p", "3", "--r", "1", "--lam", "1e300", "--quantity", "sigma_tot",
            "--axis", "0:1:5"]
    proc = subprocess.run([sys.executable, "-m", "pspinlab.cli", *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "usage error: sigma_tot on this grid leaves the float range (NaN)"
    ]


@pytest.mark.parametrize("quantity, axis", [
    ("gamma1", "--axis=-0.5:1.0:6"), ("sigma_max", "--axis=0:1.0:6"),
])
def test_grid_overflowing_perturbation_exit_code(quantity, axis):
    # at r = 2 a spike of 1.7e308 overflows the perturbation matrix, which
    # is a usage error, not a LinAlgError traceback from its eigensolve
    argv = ["grid", "--p", "3", "--r", "2", "--lam", "1.7e308,1.2", "--quantity", quantity,
            axis, "--axis=0.1:0.5:4"]
    proc = subprocess.run([sys.executable, "-m", "pspinlab.cli", *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "usage error: the spike perturbation overflows the float range at lam = (1.7e+308, 1.2)"
    ]


def test_signed_axis_regime_mirrors(tmp_path):
    # at odd k the signed half flips tau, which enters only through |tau|
    out = tmp_path / "regime.csv"
    rc = run_cli(["grid", "--p", "3", "--r", "1", "--lam", "2.0", "--quantity", "regime",
                  "--axis=-1:1:41", "--out", str(out)])
    assert rc == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 41
    ticks = [float(row[0]) for row in rows]
    codes = [int(row[2]) for row in rows]
    assert codes == codes[::-1]
    assert codes[0] == codes[20] == RegimeLabel.OUT_OF_DOMAIN
    assert {RegimeLabel.POSITIVE, RegimeLabel.NEGATIVE} <= set(codes[:20])
    # -1 + 2 j / 40 rounds differently from its mirror (-0.9 against
    # 0.8999999999999999), so each value is held against the exact mirror
    # of its own tick
    params = ModelParams(p=3, r=1, k=(3,), lam=(2.0,))
    mirrored = sigma_tot_projected(params, -np.array(ticks)[:, None])
    assert [row[1] for row in rows] == [fmt_float(v) for v in mirrored.tolist()]
    for j in range(41):
        if ticks[j] == -ticks[40 - j]:
            assert rows[j][1] == rows[40 - j][1]


def test_classify_negative_overlap(tmp_path):
    out = tmp_path / "c.json"
    rc = run_cli(["classify", "--p", "3", "--r", "1", "--lam", "2.0", "--m=-0.9",
                  "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["label"] == "NEGATIVE"
    assert doc["code"] == 3
    assert doc["sigma_tot"] == -0.51685433208997389
    assert doc["aux"]["tau"] == -1.4580000000000002


def test_huge_rank_exit_code():
    # the default k holds one degree per --lam entry, so a huge --r is a
    # usage error, not a tuple of r entries; the child's address space is
    # capped at 1 GiB, which a default built from r would exceed
    import resource

    cap = lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
    proc = subprocess.run(
        [sys.executable, "-m", "pspinlab.cli", "classify", "--p", "3", "--r", "300000000",
         "--lam", "1", "--m", "0.5"],
        capture_output=True, text=True, preexec_fn=cap,
    )
    assert proc.returncode == 2
    assert proc.stderr == "usage error: k and lam must each have length r\n"


def test_grid_with_every_coordinate_fixed_exit_code(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("axis=\n")
    rc = run_cli(["grid", "--p", "3", "--r", "1", "--lam", "0.5", "--quantity", "sigma_tot",
                  "--fix", "0:0.5", "--config", str(cfg)])
    assert rc == 2


def test_rate_single_step_range(tmp_path):
    out = tmp_path / "one.csv"
    assert run_cli(["rate", "--gamma", "1.5", "--t-range", "2.5:2.5:1", "--out", str(out)]) == 0
    rows = out.read_text().splitlines()
    assert len(rows) == 2
    assert rows[1].startswith("2.5,")


@pytest.mark.parametrize("line", ["quantiy=regime", "threads=4", "m=0.5"])
def test_config_unknown_key_exit_code(tmp_path, capsys, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p=3\nr=1\nlam=0.5\nquantity=sigma_tot\naxis=0:1:5\n" + line + "\n")
    out = tmp_path / "g.csv"
    assert run_cli(["grid", "--config", str(cfg), "--out", str(out)]) == 2
    assert line.partition("=")[0] in capsys.readouterr().err
    assert not out.exists()


def test_unread_config_key_exit_code(tmp_path, capsys):
    # esd draws one matrix: a trial count is a key the command never reads
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n=50\ntrials=100\n")
    out = tmp_path / "esd.json"
    argv = ["experiment", "--experiment", "esd", "--seed", "0", "--config", str(cfg),
            "--out", str(out)]
    assert run_cli(argv) == 2
    assert "--trials" in capsys.readouterr().err
    assert not out.exists()
    cfg.write_text("n=50\n")
    assert run_cli(argv) == 0


def test_export_lists_agree():
    # _LAZY is the one list of public names; each module reads its __all__
    # from it, so this checks that reading and the package's __all__
    import pspinlab
    from pspinlab import core, kacrice, rates, rmt, spikes

    assert pspinlab._LAZY == {
        **dict.fromkeys(core.__all__, "core"),
        **dict.fromkeys(rates.__all__, "rates"),
        **dict.fromkeys(spikes.__all__, "spikes"),
        **dict.fromkeys(kacrice.__all__, "kacrice"),
        **dict.fromkeys(rmt.__all__, "rmt"),
    }
    modules = (core, rates, spikes, rmt, kacrice)
    assert set(pspinlab.__all__) == {"__version__"}.union(*(m.__all__ for m in modules))
    assert len(pspinlab.__all__) == len(set(pspinlab.__all__))


def test_lazy_table_names_every_public_definition():
    # every public function or class a module defines is in _LAZY under that
    # module, and every _LAZY name is defined there
    import pspinlab
    from pspinlab import core, kacrice, rates, rmt, spikes

    for module in (core, rates, spikes, rmt, kacrice):
        home = module.__name__.rpartition(".")[2]
        defined = {
            name
            for name, obj in vars(module).items()
            if not name.startswith("_")
            and isinstance(obj, (type, types.FunctionType))
            and obj.__module__ == module.__name__
        }
        assert defined == {name for name, m in pspinlab._LAZY.items() if m == home}, home


def _grid_child_peak_kb(tmp_path, quantity, steps):
    """Exit status and max-RSS (KB) of a child writing a quantity's grid at
    r = 4 over two axes of steps ticks.  The child starts from a fresh
    interpreter, since its max-RSS counts the memory of the process that
    started it."""
    return _fresh_interpreter("""
    import os, subprocess
    quantity, axis = sys.argv[2], "0:0.5:" + sys.argv[3]
    argv = [sys.executable, "-m", "pspinlab.cli", "grid", "--p", "3", "--r", "4",
            "--lam", "2.0,1.5,1.2,1.0", "--quantity", quantity,
            "--axis", axis, "--axis", axis, "--fix", "2:0.1", "--fix", "3:0.1",
            "--out", sys.argv[1] + "/g.csv"]
    child = subprocess.Popen(argv, env=dict(os.environ, PYTHONPATH=sys.path[0]))
    _, status, usage = os.wait4(child.pid, 0)
    print(json.dumps([status, usage.ru_maxrss]))
    """, tmp_path, quantity, steps)


def test_sigma_max_grid_memory_is_bounded(tmp_path):
    # taken in one pass, this 90,000-row stack at r = 4 peaked at 232 MB; in
    # slices of 4,096 rows the child peaks near 60 MB
    status, peak_kb = _grid_child_peak_kb(tmp_path, "sigma_max", 300)
    assert status == 0
    assert peak_kb < 120 * 1024


def test_gamma1_grid_memory_is_bounded(tmp_path):
    # diagonalized in one batch, these 360,000 rows peaked at 193 MB; in
    # slices of 4,096 rows the child peaks near 140 MB, as a regime grid of
    # the same size does (136 MB)
    status, peak_kb = _grid_child_peak_kb(tmp_path, "gamma1", 600)
    assert status == 0
    assert peak_kb < 165 * 1024


# sha256 of grid CSVs written by the point-by-point evaluator that the array
# path replaced; every quantity, every regime label, mixed spike degrees, a
# negative fixed overlap with odd k - 2 (mixed-sign curvature, the eigvals
# branch), m^2 in the r = 1 curvature, a zero strength, and sigma_max at r = 1
# and at r = 3 with mixed degrees
_R2 = ("--p", "3", "--r", "2", "--lam", "2.0,1.5", "--axis", "0:1:15", "--axis", "0:1:15")
GRID_GOLDEN = {
    "sigma_tot": (
        ("--quantity", "sigma_tot", *_R2),
        "3aebd48bf068e5bd0663380c7db93cfe10bda675d8b2e69b8c2afa77b4e8b791",
    ),
    "sigma_max": (
        ("--quantity", "sigma_max", *_R2),
        "1739e2e93552c4cb11d7954660358b7098e03f96a3f45c7735088d95b690b7e9",
    ),
    "regime": (
        ("--quantity", "regime", *_R2),
        "09625fb9b84034c04044d8b0aef52c80de795a794f7b7eb24bab4bfdf568d468",
    ),
    "gamma1": (
        ("--quantity", "gamma1", *_R2),
        "4a460498621d5f7b906b773bb0966f980998d83f137662c7cfa9ead195a6cf2b",
    ),
    "tau": (
        ("--quantity", "tau", *_R2),
        "0725f8a07cca8ab343638b52060bee69ed49ea25a6f0b05b0926156a10ad90ae",
    ),
    "eta": (
        ("--quantity", "eta", *_R2),
        "d73513c466174f3c1e6c927e61c4c4389261e2acc61fe5962336c6820c2c627d",
    ),
    "sigma_max-r1": (
        ("--quantity", "sigma_max", "--p", "3", "--r", "1", "--lam", "2", "--axis", "0:1:50"),
        "58a797bbf9e4e8c5fbf7fedd6e094cdaeef8ddf396b8ea6ddb8497fcf49b49e8",
    ),
    "sigma_max-r3-mixed": (
        ("--quantity", "sigma_max", "--p", "4", "--r", "3", "--k", "4,3,5", "--lam", "2.5,1.0,0.7",
         "--fix", "2:0.3", "--axis", "0:0.95:15", "--axis", "0.05:1:15"),
        "383404af7e03d2e896b787cd6d86f9d252a77a3870678cee4b11b8eb89fd2775",
    ),
    "regime-r3-mixed": (
        ("--quantity", "regime", "--p", "4", "--r", "3", "--k", "4,3,5", "--lam", "2.5,1.0,0.7",
         "--fix", "2:0.3", "--axis", "0:0.95:15", "--axis", "0.05:1:15"),
        "cb7d089f1611fb7fca81f2b6b1113c8923734fe8110b216f4677b91c1e779832",
    ),
    "gamma1-negative-fix": (
        ("--quantity", "gamma1", "--p", "3", "--r", "2", "--k", "4,3", "--lam", "2.0,1.5",
         "--fix", "1:-0.4", "--axis", "0:1:15"),
        "50d23860d6727ebef7fea6856b9bcf6f13a4528a4784e38982f2426a6ee22b9a",
    ),
    "gamma1-r1-k4": (
        ("--quantity", "gamma1", "--p", "4", "--r", "1", "--lam", "1.3", "--axis", "0:1:50"),
        "5fd3e78936f0e8c88e75597f934477105cba24defbe72175c7a153421c001cca",
    ),
    "eta-zero-lam": (
        ("--quantity", "eta", "--p", "3", "--r", "2", "--lam", "1.0,0.0",
         "--axis", "0:1:15", "--axis", "0:1:15"),
        "c5f1072ece7199b7d10e825c99908592a9ec3bb014dc6d2cbea65955a5fd2761",
    ),
    "tau-r1": (
        ("--quantity", "tau", "--p", "5", "--r", "1", "--k", "4", "--lam", "1.3",
         "--axis", "0:1:15"),
        "dd021e973e374239121b5e7e979312867b12a26b33e04af0a54cce1a86c35e69",
    ),
    "regime-r1": (
        ("--quantity", "regime", "--p", "3", "--r", "1", "--lam", "2.0", "--axis", "0:1:15"),
        "6e1b07890d38a3fb8bcb488af5ae661075a81cf057c769513bb69b7aa19b650e",
    ),
    # label 4 at m2 = 0: m1 is the large zero-locus root at lambda = 2
    "regime-zero-locus": (
        ("--quantity", "regime", "--p", "3", "--r", "2", "--lam", "2.0,0.0",
         "--fix", "0:0.9779751860797075", "--axis", "0:1:15"),
        "b2d3a87f8d05b099b8f024595ce89cb0fffea922076f2746b29ed83478e1f6ab",
    ),
    # label 2 at m2 = 0: m1 is the zero crossing of the surface at lambda = 0.5
    "regime-zero-boundary": (
        ("--quantity", "regime", "--p", "3", "--r", "2", "--lam", "0.5,0.0",
         "--fix", "0:0.7071067811865475", "--axis", "0:1:15"),
        "a096e48c01d9e7730843ee8c9da86f04a7c9b27616148cf1ced0a76aedee3a6a",
    ),
}


@pytest.mark.parametrize("name", sorted(GRID_GOLDEN))
def test_grid_artifact_matches_recorded_digest(tmp_path, name):
    argv, digest = GRID_GOLDEN[name]
    out = tmp_path / "g.csv"
    assert run_cli(["grid", *argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# sha256 of rate CSVs written by the point-by-point evaluator that the
# one-call-per-column path replaced: supercritical leads with and without
# subcritical followers, a purely subcritical spectrum, a lead at exactly
# gamma = 1, a negative entry, an empty spectrum, and repeated single values
_T = ("--t-range", "1.5:6:91")
RATE_GOLDEN = {
    "sup-sub": (
        ("--gamma", "1.5,0.5", *_T),
        "018eb3078bde5d6cc568385d0a24b98ca4027611702a61eb27301b5ac0774670",
    ),
    "sub": (
        ("--gamma", "0.5", *_T),
        "5f17b1fb0205691eebe9a91f91cb01e09cb7a65481c21a09e3373ef0ff58412d",
    ),
    "sup-sup-sub": (
        ("--gamma", "2.0,1.2,0.3", *_T),
        "f560bd74a18b1959ea611b2e48431cea3e8bdb4d89460eb5eee9adbfdf5f36bd",
    ),
    "edge-zero": (
        ("--gamma", "1.0,0.0", *_T),
        "c704406ddff591e8f906f62dc0617cbd26af94f2f928d7e62df5a9d47f77e6c8",
    ),
    "sub-negative": (
        ("--gamma", "0.7,-0.2", *_T),
        "44eccfc799c2d84692a76b3f2d99dd1050d2d3f3cdd93bbf58566e3ca70cc749",
    ),
    "empty": (
        ("--gamma=", *_T),
        "577197b108613eb85d965a0cc1fdd2f3a1ad742f755dcc56194e5d8e4be690fb",
    ),
    "repeated-t": (
        ("--gamma", "1.5,0.5", "--t", "2", "--t", "2.5", "--t", "2", "--t", "2.5"),
        "d71d93b6aa56c103104463a7eacf8b890f6a257a41b8d4556235dd28e6aa72c0",
    ),
}


@pytest.mark.parametrize("name", sorted(RATE_GOLDEN))
def test_rate_artifact_matches_recorded_digest(tmp_path, name):
    argv, digest = RATE_GOLDEN[name]
    out = tmp_path / "rate.csv"
    assert run_cli(["rate", *argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("name", sorted(GRID_GOLDEN))
def test_grid_stack_path_matches_recorded_digest(tmp_path, monkeypatch, name):
    # the golden tables run cell by cell on floats by default; a cap of 0
    # sends them to the numpy stack
    monkeypatch.setattr(cli, "_FLOAT_CELLS", 0)
    test_grid_artifact_matches_recorded_digest(tmp_path, name)


@pytest.mark.parametrize("name", sorted(RATE_GOLDEN))
def test_rate_stack_path_matches_recorded_digest(tmp_path, monkeypatch, name):
    monkeypatch.setattr(cli, "_FLOAT_CELLS", 0)
    test_rate_artifact_matches_recorded_digest(tmp_path, name)


@pytest.mark.parametrize("float_cells", [cli._FLOAT_CELLS, 0])
def test_regime_grid_builds_one_profile_per_cell_or_stack(tmp_path, monkeypatch, float_cells):
    # the value and the code of a regime cell come from one profile: one per
    # cell on floats, one for the whole stack
    calls = []
    build = core._profile_parts

    def counting_parts(params, m):
        calls.append(len(np.atleast_2d(m)))
        return build(params, m)

    monkeypatch.setattr(core, "_profile_parts", counting_parts)
    monkeypatch.setattr(cli, "_FLOAT_CELLS", float_cells)
    argv, digest = GRID_GOLDEN["regime"]
    out = tmp_path / "g.csv"
    assert run_cli(["grid", *argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    assert calls == ([1] * 15 * 15 if float_cells else [15 * 15])
