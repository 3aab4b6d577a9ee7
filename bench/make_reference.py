"""Record the closed-form reference that workloads.check_closed_form compares
against.  Run it once, on the commit whose closed forms define "correct":

    python3 bench/make_reference.py

Grids keep every token class (finite, +inf, -inf), every regime code, the sum
of their finite values and a strided sample of the values themselves; small
grids and tables keep every value.  sigma_max grids also keep sigma_tot on
the same cells, the ceiling of the one-sided sigma_max check.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import workloads

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from pspinlab.cli import main as cli_main
    from pspinlab.core import ModelParams, sigma_tot_projected

    outdir = ROOT / ".bench_work" / "reference-build"
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    arrays = {}
    for cmd in workloads.commands("closed-form", seed=0):
        if cli_main(cmd.full_argv(outdir)) != 0:
            raise SystemExit(f"{cmd.label} failed")
        got = workloads.closed_form_arrays(cmd, outdir)
        key = cmd.label + "/"
        if "doc" in got:
            arrays[key + "doc"] = got["doc"]
            continue
        values = got["values"]
        _, sample = workloads.subsample(values)
        arrays[key + "cls"] = got["cls"]
        arrays[key + "values"] = sample
        arrays[key + "sum"] = np.array(math.fsum(values[np.isfinite(values)]))
        for extra in ("codes", "sidecar"):
            if extra in got:
                arrays[key + extra] = got[extra]
        if "sigma_max" in cmd.label:
            argv = list(cmd.argv)
            r = int(argv[argv.index("--r") + 1])
            lam = tuple(float(v) for v in argv[argv.index("--lam") + 1].split(","))
            params = ModelParams(p=3, r=r, k=(3,) * r, lam=lam)
            header, rows = workloads.read_csv(cmd.artifact(outdir))
            cells = [[float(t) for t in row[:r]] for row in rows]
            ceiling = np.array([sigma_tot_projected(params, m) for m in cells])
            arrays[key + "sigma_tot"] = ceiling
            if np.any(values > ceiling + workloads.SIGMA_MAX_TOL):
                raise SystemExit(f"{cmd.label}: sigma_max above sigma_tot at the reference")
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    arrays["meta"] = np.array(json.dumps({"recorded_at_commit": commit}))
    workloads.REFERENCE.parent.mkdir(exist_ok=True)
    np.savez_compressed(workloads.REFERENCE, **arrays)
    failures = workloads.check("closed-form", workloads.commands("closed-form", 0), outdir, 0, True)
    bad = {k: v for k, v in failures.items() if v}
    print(f"wrote {workloads.REFERENCE} ({workloads.REFERENCE.stat().st_size} bytes); self-check {bad or 'passed'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
