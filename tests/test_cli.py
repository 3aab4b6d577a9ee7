"""Command line behavior: artifacts, determinism, tokens, exit codes."""
import hashlib
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

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
    assert run_cli(["classify", "--p", "3", "--r", "1", "--lam", "1e300", "--m", "0.5"]) == 2


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
])
def test_bad_range_and_value_exit_code(argv):
    assert run_cli(argv) == 2


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
