"""Tests of the benchmark itself: span arithmetic, instrumentation, failure
accounting and a tiny-size smoke run of every workload.

    python3 -m pytest bench/test_bench.py -q
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

# Every metric the benchmark promises per workload, in its report line.
E2E = ["setup_s", "wall_s", "cpu_s", "wall_norm_s", "cpu_norm_s", "host.slowdown", "peak_rss_mb", "error_rate"]
LAYERS = {
    "closed-form": [
        "core.sigma_tot_projected.calls", "core.sigma_tot_projected.us_per_call",
        "core.classify_regime.us_per_call", "core.zero_locus_solve.ms_per_call",
        "rates.sigma_max_projected.ms_per_call_r2", "rates.sigma_max_projected.ms_per_call_r1",
        "rates.sigma_max_joint.calls", "rates.joint_evals_per_cell", "rates.i_max.us_per_call",
        "rates.big_l.calls", "cli.fmt_float.calls", "cli.fmt_float.us_per_call",
    ],
    "stochastic": [
        "rmt.mc_log_abs_det.ms_per_trial", "rmt.mc_lambda_max_tail.ms_per_trial",
        "rmt.mc_restricted_det.ms_per_trial", "rmt.spherical_integral_mc.ms_per_trial",
        "rmt.eigvalsh.calls", "rmt.eigvalsh.self_s", "rmt.esd_distance.self_s",
        "rmt.restricted_acceptance",
        "core.s_func.calls", "core.s_func.us_per_call", "core.t_func.us_per_call",
        "spikes.spike_eigenvalues.calls", "spikes.spike_eigenvalues.us_per_call",
        "kacrice.build_polynomial.us_per_call", "kacrice.find_critical_points.ms_per_call_n2",
        "kacrice.find_critical_points.ms_per_call_n3", "kacrice.points_per_landscape_n2",
        "kacrice.points_per_landscape_n3", "kacrice.multistart_yield",
        "kacrice.kac_rice_eval.self_s", "kacrice.nquad.self_s", "kacrice.det.calls",
        "kacrice.formula_underflow_trials",
    ],
}
EVERY_LAYER = [f"{layer}.{m}" for layer in tracing.LAYERS for m in ("self_s", "calls")] + [
    "cli.bytes_out", "setup.import_s", "trace.overhead_s"]


def test_self_time_is_duration_minus_direct_children():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 7.0, 10.0])
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    a, b, c = (tracer.label_id(x) for x in ("core.a", "spikes.b", "rates.c"))
    ia = tracer.enter(a)     # a: 0 .. 10
    ib = tracer.enter(b)     # b: 1 .. 4
    ic = tracer.enter(c)     # c: 2 .. 3
    tracer.exit(ic)
    tracer.exit(ib)
    ib = tracer.enter(b)     # b: 5 .. 7
    tracer.exit(ib)
    tracer.exit(ia)
    stats = tracing.summarize(tracer.labels, tracer.arrays())
    assert stats["core.a"] == {"calls": 1, "incl_s": 10.0, "self_s": 5.0}
    assert stats["spikes.b"] == {"calls": 2, "incl_s": 5.0, "self_s": 4.0}
    assert stats["rates.c"] == {"calls": 1, "incl_s": 1.0, "self_s": 1.0}
    only_first = tracing.per_command(tracer.labels, tracer.arrays(), -1)
    assert only_first["core.a"]["self_s"] == 5.0


def test_instrument_wraps_imported_references_and_restores(tmp_path):
    import numpy
    import pspinlab
    import pspinlab.cli
    import pspinlab.core

    original, eigvalsh = pspinlab.core.sigma_tot_projected, numpy.linalg.eigvalsh
    tracer = tracing.Tracer()
    restore = tracing.instrument(tracer, pspinlab)
    try:
        assert pspinlab.cli.sigma_tot_projected is pspinlab.core.sigma_tot_projected is not original
        assert pspinlab.cli._DISPATCH["grid"] is pspinlab.cli.cmd_grid
        argv = ["grid", "--p", "3", "--r", "2", "--lam", "2.0,1.5", "--quantity", "gamma1",
                "--axis", "0:1:3", "--axis", "0:1:3", "--out", str(tmp_path / "g.csv")]
        assert pspinlab.cli.main(argv) == 0
    finally:
        restore()
    assert pspinlab.core.sigma_tot_projected is original
    assert numpy.linalg.eigvalsh is eigvalsh
    spans = tracer.arrays()
    labels = [tracer.labels[i] for i in spans["name"]]
    parents = [labels[p] if p >= 0 else None for p in spans["parent"]]
    assert labels[0] == "cli.main" and parents[0] is None
    assert ("spikes.eigvalsh", "spikes.spike_eigenvalues") in set(zip(labels, parents))
    assert ("cli.cmd_grid", "cli.main") in set(zip(labels, parents))


def test_corrupted_artifact_counts_in_error_rate(tmp_path, monkeypatch):
    from pspinlab.cli import main

    cmds = [c for c in workloads.commands("closed-form", 0) if c.label in ("rate", "classify")]

    def fake_run(self, argv, capture=False):
        rc = 0 if argv == ["--help"] else main(argv)
        if "rate" in argv:
            out = Path(argv[argv.index("--out") + 1])
            out.write_text(out.read_text().replace("\n2,", "\n2.5,", 1))
        return {"rc": rc, "wall_s": 0.01, "cpu_s": 0.01, "probe_s": run.PROBE_REF_S,
                "stdout": b"usage: pspinlab", "stderr": b""}

    monkeypatch.setattr(run.Child, "run", fake_run)
    monkeypatch.setattr(run, "WORK", tmp_path)
    args = SimpleNamespace(workload="closed-form", seed=0, seconds=0.0, scale="full")
    metrics, report, attempted, failed = run.untraced(args, cmds)
    assert attempted == run.SETUP_PROBES + len(cmds)
    assert failed == 1 and list(report["failures"][0]) == ["rate"]
    assert metrics["error_rate"] == 1 / attempted


def test_commands_go_round_robin_within_seconds_and_average(tmp_path, monkeypatch):
    """One whole pass, then commands only while they fit in --seconds; a
    command's time is its mean over the passes that ran it, and its
    normalized time scales by the probe's speed."""
    from pspinlab.cli import main

    cmds = [c for c in workloads.commands("closed-form", 0) if c.label in ("rate", "classify")]
    clock = [0.0]
    walls = {"rate": iter([2.0, 4.0]), "classify": iter([1.0])}

    def fake_run(self, argv, capture=False):
        if argv == ["--help"]:
            return {"rc": 0, "wall_s": 0.5, "cpu_s": 0.5, "probe_s": run.PROBE_REF_S,
                    "stdout": b"usage: pspinlab", "stderr": b""}
        rc = main(argv)
        wall = next(walls["rate" if "rate" in argv else "classify"])
        clock[0] += wall
        # the core ran at half the reference speed during classify
        probe = run.PROBE_REF_S * (2 if "classify" in argv else 1)
        return {"rc": rc, "wall_s": wall, "cpu_s": wall / 2, "probe_s": probe, "stdout": b"", "stderr": b""}

    monkeypatch.setattr(run.Child, "run", fake_run)
    monkeypatch.setattr(run, "WORK", tmp_path)
    monkeypatch.setattr(run.time, "perf_counter", lambda: clock[0])
    args = SimpleNamespace(workload="closed-form", seed=0, seconds=5.0, scale="full")
    metrics, report, attempted, failed = run.untraced(args, cmds)
    # pass 1: rate 2 + classify 1; pass 2: rate (expected 2, fits) takes 4,
    # then classify no longer fits
    assert [c["runs"] for c in report["commands"]] == [2, 1]
    assert metrics["wall_s"] == 3.0 + 1.0 and metrics["cpu_s"] == 2.0
    assert metrics["wall_norm_s"] == 3.0 + 0.5 and metrics["cpu_norm_s"] == 1.75
    assert attempted == run.SETUP_PROBES + 3 and failed == 0


def test_closed_form_checks_catch_value_and_token_changes(tmp_path):
    from pspinlab.cli import main

    cmds = [c for c in workloads.commands("closed-form", 0) if c.label in ("rate", "zeros-r1")]
    for cmd in cmds:
        assert main(cmd.full_argv(tmp_path)) == 0
    assert not any(workloads.check("closed-form", cmds, tmp_path, 0, True).values())
    rate = tmp_path / "rate.csv"
    rate.write_text(rate.read_text().replace("+inf", "-inf", 1))
    zeros = tmp_path / "zeros-r1.json"
    zeros.write_text(zeros.read_text().replace("0.2087", "0.2088", 1))
    failures = workloads.check("closed-form", cmds, tmp_path, 0, True)
    assert failures["rate"] and failures["zeros-r1"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_smoke_prints_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    *_, report_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    report = json.loads(report_line)["report"]
    expected = EVERY_LAYER + LAYERS[workload] if trace else E2E + list(workloads.STAGES[workload])
    missing = [name for name in expected if name not in report["metrics"]]
    assert not missing
    assert all(report["metrics"][name]["unit"] for name in expected)
    assert {"nproc", "cpu_model", "python", "numpy", "scipy", "blas"} <= set(report["host"])


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "closed-form", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
