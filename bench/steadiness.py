"""Run the benchmark once per seed on each workload and summarise the spread of
every metric: median, quartiles and (q3 - q1) / median, the figure the
benchmark's bounds are judged against.

    python3 bench/steadiness.py --seeds 0-9 --out .bench_work/steadiness.json
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None,
            "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--seeds", default="0-9", type=seeds)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in SPEC["end_to_end"]}
    doc = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(SPEC["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, cwd=BENCH.parent, timeout=900,
            )
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            runs.append(result)
            status = "ok" if result and result["correct"] else f"FAILED rc={proc.returncode}"
            print(f"{workload} seed {seed}: {status}", file=sys.stderr, flush=True)
        good = [r for r in runs if r and r["correct"]]
        names = list(good[0]["metrics"]) if good else []
        doc[workload] = {
            "seeds": args.seeds,
            "failed_runs": len(runs) - len(good),
            "metrics": {n: summary([r["metrics"][n]["value"] for r in good]) for n in names},
        }
        for name, s in doc[workload]["metrics"].items():
            bound = bounds.get(name)
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.3f}"
            print(f"{workload:12s} {name:24s} median {s['median']:.4g}  q1 {s['q1']:.4g}  "
                  f"q3 {s['q3']:.4g}  spread {spread}  bound {bound}")
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(doc, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
