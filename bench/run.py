"""pspinlab benchmark: runs one workload of real `pspinlab` CLI invocations and
prints its metrics.

    python3 bench/run.py --workload closed-form --seed 0 --seconds 45 --trace 0

One client, closed loop: each command runs as a fresh process, the way a user
runs it, and starts only after the previous one ended.  One whole pass over
the workload runs first; then the commands go on round-robin while each next
one is expected to end within --seconds of measuring.  With
--trace 1 the same argument lists run in-process through pspinlab.cli.main,
once untraced and once traced, and the per-layer metrics are printed instead.

Every artifact is checked (see workloads.py).  The line before the last is a
report with host facts and every metric; the last line is the result:
{"correct", "attempted", "failed", "metrics"}.  Run from the repository root
(or any checkout of it); the program is imported from its src/ directory.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

# One BLAS thread for every process the benchmark runs, set before numpy loads.
# A two-thread BLAS call waits for the slower of two shared vCPUs, which made
# spectral-mc wall times spread three to four times wider; the thread count
# also changes the bits of n >= 400 eigensolves, which the rerun check compares.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
INHERITED_BLAS_ENV = {name: os.environ.get(name, "unset") for name in BLAS_ENV}
if __name__ == "__main__":
    os.environ.update(BLAS_ENV)

import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SPEC = ROOT / "BENCHMARK.json"

SETUP_PROBES = 5         # `pspinlab --help` invocations per run; setup_s is their median
IMPORT_PROBES = 3        # fresh-interpreter imports per traced run
DEADLINE_S = 170.0       # no child is allowed to run past this point of the run
ENTRY = (
    "import sys; sys.path.insert(0, sys.argv.pop(1)); "
    "from pspinlab.cli import main; sys.exit(main())"
)
IMPORT_ENTRY = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import pspinlab.cli; print(repr(time.perf_counter() - t), pspinlab.cli.__file__)"
)

UNITS = {"peak_rss_mb": "MB", "error_rate": "ratio", "host.slowdown": "ratio"}

# The vCPUs of a shared host switch between a fast and a ~1.5x slower speed
# for a second to a minute at a time.  While a command runs, a thread on the
# same vCPU times a fixed loop every PROBE_PERIOD_S; the command's normalized
# time is its time x PROBE_REF_S / (mean loop time), i.e. its time on a core
# where the loop takes PROBE_REF_S.  The loop time predicted command times
# with correlation 0.87-0.97.
PROBE_PERIOD_S = 0.05
PROBE_REF_S = 200e-6


def _probe_loop() -> float:
    s = 0.0
    for i in range(2000):
        s += math.sin(i)
    return s


class SpeedProbe:
    """Times _probe_loop every PROBE_PERIOD_S on the calling thread's vCPUs
    until the `with` block ends."""

    def __init__(self):
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while not self._stop.wait(PROBE_PERIOD_S):
            t0 = time.perf_counter()
            _probe_loop()
            self.samples.append(time.perf_counter() - t0)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def mean_s(self) -> float:
        return statistics.fmean(self.samples) if self.samples else PROBE_REF_S


@contextmanager
def pinned_to_one_cpu():
    """Pin this thread, and so every child and probe thread it starts, to one
    vCPU, so the probe times the core the command runs on."""
    previous = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(previous)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, previous)


def host_facts() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_env_inherited": INHERITED_BLAS_ENV,
        "blas_env_used": BLAS_ENV,
    }


def loadavg() -> str:
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().strip()
    except OSError:
        return "unavailable"


def source_key(cmds) -> str:
    """Identifies program sources plus argument lists, for the rerun check."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "pspinlab").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    digest.update(json.dumps([c.argv for c in cmds]).encode())
    return digest.hexdigest()


def artifact_digests(cmds, outdir: Path) -> dict[str, str]:
    out = {}
    for cmd in cmds:
        for path in workloads.artifact_files(cmd, outdir):
            if path.exists():
                out[path.name] = hashlib.sha256(workloads.normalized_bytes(path)).hexdigest()
    return out


def compare_digests(cmds, got: dict, want: dict, failures: dict, other: str) -> int:
    """Mark commands whose artifacts differ from `other`; return how many
    artifacts were compared."""
    compared = 0
    for cmd in cmds:
        for path in workloads.artifact_files(cmd, Path(".")):
            if path.name in got and path.name in want:
                compared += 1
                if got[path.name] != want[path.name]:
                    failures[cmd.label].append(f"{path.name} differs from {other}")
    return compared


def rerun_check(workload, seed, scale, cmds, digests, failures) -> int:
    """Compare with the digests a previous run of this seed left behind, if any,
    then record this run's digests."""
    store = WORK / "digests" / f"{workload}-{seed}-{scale}.json"
    key = source_key(cmds)
    compared = 0
    try:
        previous = json.loads(store.read_text())
    except (OSError, ValueError):
        previous = {}
    if previous.get("key") == key:
        compared = compare_digests(cmds, digests, previous["digests"], failures,
                                   "an earlier run of the same seed")
    store.parent.mkdir(parents=True, exist_ok=True)
    store.write_text(json.dumps({"key": key, "digests": digests}))
    return compared


# ---------------------------------------------------------------------------
# untraced runs: one fresh process per command

class Child:
    """Runs pspinlab commands as child processes and accounts their resources."""

    def __init__(self, started: float):
        self.deadline = started + DEADLINE_S
        self.env = dict(os.environ, PYTHONPATH=str(SRC), **BLAS_ENV)

    def run(self, argv: list[str], capture: bool = False) -> dict:
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        try:
            with SpeedProbe() as probe:
                proc = subprocess.run(
                    [sys.executable, "-c", ENTRY, str(SRC), *argv],
                    stdin=subprocess.DEVNULL,
                    stdout=subprocess.PIPE if capture else subprocess.DEVNULL,
                    stderr=subprocess.PIPE,
                    env=self.env,
                    cwd=ROOT,
                    timeout=max(1.0, self.deadline - time.perf_counter()),
                )
            rc, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
        except subprocess.TimeoutExpired:
            rc, stdout, stderr = None, b"", b"killed at the run deadline"
        wall = time.perf_counter() - t0
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        return {"rc": rc, "wall_s": wall, "cpu_s": cpu, "probe_s": probe.mean_s(),
                "stdout": stdout, "stderr": stderr}


def run_pass(child: Child, cmds, outdir: Path, expected=None, until=None):
    """Run cmds in order.  With `until`, stop before the first command that
    would, at its `expected` time, end after it."""
    outdir.mkdir(parents=True, exist_ok=True)
    records, failures = [], {}
    for cmd in cmds:
        if until is not None and time.perf_counter() + expected[cmd.label] > until:
            break
        res = child.run(cmd.full_argv(outdir))
        records.append({"label": cmd.label, "stage": cmd.stage, "rc": res["rc"],
                        "wall_s": res["wall_s"], "cpu_s": res["cpu_s"], "probe_s": res["probe_s"]})
        failures[cmd.label] = []
        if res["rc"] != 0:
            tail = res["stderr"].decode(errors="replace").strip().splitlines()[-1:]
            failures[cmd.label].append(f"exit code {res['rc']}: {' '.join(tail)}")
    return records, failures


def untraced(args, cmds) -> tuple[dict, dict, int, int]:
    """Set-up probes, then the commands round-robin: the first pass runs
    whole, later (possibly partial) passes only while each next command is
    expected to end within --seconds of measuring."""
    started = time.perf_counter()
    child = Child(started)
    attempted = failed = 0
    setup, setup_cpu = [], []

    def probe():
        nonlocal attempted, failed
        res = child.run(["--help"], capture=True)
        attempted += 1
        if res["rc"] != 0 or not res["stdout"].startswith(b"usage: pspinlab"):
            failed += 1
        setup.append(res["wall_s"])
        setup_cpu.append(res["cpu_s"])

    passes = []
    measured = 0.0
    expected = until = None
    while True:
        if len(setup) < SETUP_PROBES:   # probes are spread over the run
            probe()
        outdir = WORK / "artifacts" / args.workload / f"pass{len(passes)}"
        shutil.rmtree(outdir, ignore_errors=True)
        t0 = time.perf_counter()
        if passes:
            until = min(t0 + args.seconds - measured, started + DEADLINE_S / 2)
        records, failures = run_pass(child, cmds, outdir, expected, until)
        measured += time.perf_counter() - t0
        if not records:
            break
        ran = [c for c in cmds if c.label in failures]
        for label, msgs in workloads.check(args.workload, ran, outdir, args.seed, args.scale == "full").items():
            failures[label] += msgs
        digests = artifact_digests(ran, outdir)
        if passes:
            compare_digests(ran, digests, passes[0]["digests"], failures, "the first pass")
        else:
            expected = {r["label"]: r["wall_s"] for r in records}
        passes.append({"records": records, "digests": digests, "failures": failures})
    while len(setup) < SETUP_PROBES:
        probe()
    rerun_compared = rerun_check(args.workload, args.seed, args.scale, cmds,
                                 passes[0]["digests"], passes[0]["failures"])
    for p in passes:
        attempted += len(p["records"])
        failed += sum(1 for msgs in p["failures"].values() if msgs)

    # A command's time is its mean over the run.  With the cores' speed
    # spells lasting up to a minute, per-command medians or minima over a
    # few passes spread no less than the mean.
    samples = {c.label: [r for p in passes for r in p["records"] if r["label"] == c.label] for c in cmds}
    mean = {
        label: {
            "wall_s": statistics.fmean(r["wall_s"] for r in recs),
            "cpu_s": statistics.fmean(r["cpu_s"] for r in recs),
            "wall_norm_s": statistics.fmean(r["wall_s"] * PROBE_REF_S / r["probe_s"] for r in recs),
            "cpu_norm_s": statistics.fmean(r["cpu_s"] * PROBE_REF_S / r["probe_s"] for r in recs),
        }
        for label, recs in samples.items()
    }
    metrics = {"setup_s": statistics.median(setup)}
    for key in ("wall_s", "cpu_s", "wall_norm_s", "cpu_norm_s"):
        metrics[key] = sum(m[key] for m in mean.values())
    metrics["host.slowdown"] = metrics["wall_s"] / metrics["wall_norm_s"]
    for stage in workloads.STAGES[args.workload]:
        metrics[stage] = sum(mean[c.label]["wall_norm_s"] for c in cmds if c.stage == stage)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    metrics["error_rate"] = failed / attempted
    report = {
        "passes": len(passes),
        "measured_s": measured,
        "setup_samples_s": setup,
        "setup_cpu_samples_s": setup_cpu,
        "rerun_artifacts_compared": rerun_compared,
        "commands": [{"label": c.label, "stage": c.stage, "runs": len(samples[c.label]), **mean[c.label],
                      "samples_wall_s": [r["wall_s"] for r in samples[c.label]],
                      "samples_probe_s": [r["probe_s"] for r in samples[c.label]]} for c in cmds],
        "failures": [{k: v for k, v in p["failures"].items() if v} for p in passes],
    }
    return metrics, report, attempted, failed


# ---------------------------------------------------------------------------
# traced runs: the same argument lists in-process

def import_probe() -> float:
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_ENTRY, str(SRC)],
        stdin=subprocess.DEVNULL, capture_output=True, cwd=ROOT, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(SRC), **BLAS_ENV),
    )
    seconds, path = proc.stdout.decode().split()
    if Path(path).resolve().parent.parent != SRC.resolve():
        raise RuntimeError(f"pspinlab imported from {path}, not from {SRC}")
    return float(seconds)


def in_process_pass(main, cmds, outdir: Path, tracer=None) -> tuple[float, dict[str, list[str]]]:
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    failures = {c.label: [] for c in cmds}
    root = tracer.label_id("bench.command") if tracer else None
    t0 = time.perf_counter()
    for index, cmd in enumerate(cmds):
        if tracer:
            tracer.current_command = index
            span = tracer.enter(root)
        try:
            rc = main(cmd.full_argv(outdir))
        except Exception:  # a crash is a failed operation; keep measuring the rest
            rc = "exception: " + traceback.format_exc().strip().splitlines()[-1]
        finally:
            if tracer:
                tracer.exit(span)
        if rc != 0:
            failures[cmd.label].append(f"exit code {rc}")
    return time.perf_counter() - t0, failures


def traced(args, cmds) -> tuple[dict, dict, int, int]:
    import_s = statistics.median(import_probe() for _ in range(IMPORT_PROBES))
    sys.path.insert(0, str(SRC))
    import pspinlab
    import pspinlab.cli

    plain_dir = WORK / "artifacts" / args.workload / "in-process"
    traced_dir = WORK / "artifacts" / args.workload / "traced"
    untraced_s, failures = in_process_pass(pspinlab.cli.main, cmds, plain_dir)

    tracer = tracing.Tracer()
    restore = tracing.instrument(tracer, pspinlab)
    try:
        traced_s, traced_failures = in_process_pass(pspinlab.cli.main, cmds, traced_dir, tracer)
    finally:
        restore()

    for label, msgs in traced_failures.items():
        failures[label] += msgs
    for label, msgs in workloads.check(args.workload, cmds, traced_dir, args.seed, args.scale == "full").items():
        failures[label] += msgs
    with_trace = artifact_digests(cmds, traced_dir)
    compare_digests(cmds, with_trace, artifact_digests(cmds, plain_dir), failures, "the untraced pass")
    rerun_compared = rerun_check(args.workload, args.seed, args.scale, cmds, with_trace, failures)

    WORK.mkdir(exist_ok=True)
    tracer.save(WORK / f"spans-{args.workload}.npz")
    metrics = layer_metrics(tracer, cmds, traced_dir)
    metrics["setup.import_s"] = import_s
    metrics["trace.overhead_s"] = traced_s - untraced_s
    failed = sum(1 for c in cmds if failures[c.label])
    report = {
        "untraced_in_process_s": untraced_s,
        "traced_s": traced_s,
        "spans": len(tracer.start),
        "rerun_artifacts_compared": rerun_compared,
        "failures": {k: v for k, v in failures.items() if v},
    }
    return metrics, report, len(cmds), failed


def layer_metrics(tracer, cmds, outdir: Path) -> dict:
    """Per-layer numbers from the spans plus a few ratios read from artifacts."""
    spans = tracer.arrays()
    stats = tracing.summarize(tracer.labels, spans)
    zero = {"calls": 0, "incl_s": 0.0, "self_s": 0.0}

    def get(label):
        return stats.get(label, zero)

    def per_call(label, scale):
        s = get(label)
        return s["incl_s"] * scale / s["calls"] if s["calls"] else None

    out = {}
    for layer in tracing.LAYERS:
        rows = [s for label, s in stats.items() if label.split(".")[0] == layer]
        out[f"{layer}.self_s"] = sum(s["self_s"] for s in rows)
        out[f"{layer}.calls"] = sum(s["calls"] for s in rows)
    for label in ("core.sigma_tot_projected", "core.s_func", "spikes.spike_eigenvalues",
                  "rates.sigma_max_joint", "rates.big_l", "rmt.eigvalsh", "kacrice.det",
                  "kacrice.nquad", "kacrice.build_polynomial", "kacrice.find_critical_points",
                  "cli.fmt_float"):
        out[f"{label}.calls"] = get(label)["calls"]
    for label in ("rmt.eigvalsh", "rmt.esd_distance", "kacrice.kac_rice_eval", "kacrice.nquad"):
        out[f"{label}.self_s"] = get(label)["self_s"]
    for label in ("core.sigma_tot_projected", "core.classify_regime", "core.s_func", "core.t_func",
                  "spikes.spike_eigenvalues", "rates.i_max", "kacrice.build_polynomial", "cli.fmt_float"):
        out[f"{label}.us_per_call"] = per_call(label, 1e6)
    out["core.zero_locus_solve.ms_per_call"] = per_call("core.zero_locus_solve", 1e3)
    smax = get("rates.sigma_max_projected")["calls"]
    out["rates.joint_evals_per_cell"] = get("rates.sigma_max_joint")["calls"] / smax if smax else 0.0

    docs = {}
    estimator_time = {}  # rmt estimator -> [inclusive seconds, trials]
    for index, cmd in enumerate(cmds):
        one = tracing.per_command(tracer.labels, spans, index)
        if cmd.label.startswith("sigma_max-r"):
            s = one.get("rates.sigma_max_projected", zero)
            out[f"rates.sigma_max_projected.ms_per_call_{cmd.label[-2:]}"] = (
                s["incl_s"] * 1e3 / s["calls"] if s["calls"] else None)
        if cmd.argv[0] != "experiment":
            continue
        try:
            docs[cmd.label] = doc = workloads.read_json(cmd.artifact(outdir))
        except (OSError, ValueError):
            continue
        for fn in ("mc_log_abs_det", "mc_lambda_max_tail", "mc_restricted_det", "spherical_integral_mc"):
            s = one.get(f"rmt.{fn}", zero)
            if s["calls"]:
                acc = estimator_time.setdefault(fn, [0.0, 0])
                acc[0] += s["incl_s"]
                acc[1] += doc["trials"]
        if cmd.label in ("count-n2", "count-n3"):
            s = one.get("kacrice.find_critical_points", zero)
            dim = cmd.label[-2:]
            out[f"kacrice.find_critical_points.ms_per_call_{dim}"] = (
                s["incl_s"] * 1e3 / s["calls"] if s["calls"] else None)
            out[f"kacrice.points_per_landscape_{dim}"] = float(doc["estimate"])
    for fn in ("mc_log_abs_det", "mc_lambda_max_tail", "mc_restricted_det", "spherical_integral_mc"):
        seconds, trials = estimator_time.get(fn, (0.0, 0))
        out[f"rmt.{fn}.ms_per_trial"] = seconds * 1e3 / trials if trials else None
    if "mc-restricted" in docs:
        out["rmt.restricted_acceptance"] = docs["mc-restricted"]["extras"]["acceptance_fraction"]
    if "count-n3" in docs:
        budget = int(docs["count-n3"]["inputs"]["budget"])
        out["kacrice.multistart_yield"] = float(docs["count-n3"]["estimate"]) / budget
    if "formula-n2" in docs:
        out["kacrice.formula_underflow_trials"] = docs["formula-n2"]["extras"]["underflow_trials"]
    # bytes without the timestamp and wall_time lines, whose length varies
    out["cli.bytes_out"] = sum(
        len(workloads.normalized_bytes(p)) for c in cmds for p in workloads.artifact_files(c, outdir) if p.exists())
    return out


# ---------------------------------------------------------------------------

def declared_metrics(trace: bool) -> list[dict]:
    spec = json.loads(SPEC.read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: small sizes for testing the benchmark itself")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "pspinlab" / "cli.py").is_file():
        print(f"bench: no pspinlab sources under {SRC}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    cmds = workloads.commands(args.workload, args.seed, args.scale)
    load_start = loadavg()
    if args.trace:
        metrics, report, attempted, failed = traced(args, cmds)
    else:
        with pinned_to_one_cpu():
            metrics, report, attempted, failed = untraced(args, cmds)
    report.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale, "host": host_facts(),
        "loadavg_start": load_start, "loadavg_end": loadavg(),
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(metrics.items())},
    })
    (WORK / f"report-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, default=str))
    print(json.dumps({"report": report}, default=str))

    result = {}
    for spec in declared_metrics(bool(args.trace)):
        value = metrics.get(spec["name"])
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            print(f"bench: metric {spec['name']} was not measured", file=sys.stderr)
            failed, value = failed + 1, 0.0
        result[spec["name"]] = {"value": value, "unit": spec["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": result}))
    return 0


def unit_of(name: str) -> str:
    """Units follow from the metric-name suffixes used in this file."""
    if name in UNITS:
        return UNITS[name]
    for suffix, unit in (("_s", "s"), (".calls", "count"), (".us_per_call", "us"),
                         (".bytes_out", "B"), ("ms_per_trial", "ms"), ("_trials", "count")):
        if name.endswith(suffix):
            return unit
    if ".ms_per_call" in name:
        return "ms"
    return "count" if ".points_per_landscape" in name else "ratio"


if __name__ == "__main__":
    sys.exit(main())
