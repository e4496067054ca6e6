"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --seeds 10 [--trace 0] [--out bench/trajectory/BENCH_<n>.json]

Runs ``bench/run.py`` once per workload of BENCHMARK.json and seed (seeds
1..N), with its ``run_seconds``, and reports for every metric the median,
the quartiles and the spread: the distance between the first and third
quartile as a share of the median.  An end-to-end metric is steady when
its spread is below a third of its bound.  With ``--out`` it writes
the figures, stamped with git sha, Python version and core count, as a
point of the benchmark trajectory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

from run import BENCH, ROOT, git_sha


def summarize(values: list[float]) -> dict:
    q1, _, q3 = quantiles(values, n=4)
    mid = median(values)
    return {"median": mid, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / mid if mid else 0.0, "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    report: dict = {
        "stamp": {"git_sha": git_sha(), "python": platform.python_version(),
                  "nproc": os.cpu_count(), "seeds": list(range(1, args.seeds + 1)),
                  "run_seconds": spec["run_seconds"], "trace": args.trace},
        "workloads": {},
    }
    steady = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in range(1, args.seeds + 1):
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.splitlines()[-1])
            if not result["correct"]:
                steady = False
                print(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} outputs failed")
            runs.append(result)
        metrics = {}
        for name, entry in runs[0]["metrics"].items():
            stats = summarize([r["metrics"][name]["value"] for r in runs])
            stats["unit"] = entry["unit"]
            bound = bounds.get(name)
            flag = ""
            if bound is not None and stats["spread"] >= bound / 3:
                steady = False
                flag = f"  NOT STEADY (bound {bound})"
            print(f"{workload:16s} {name:42s} median {stats['median']:<14.6g} "
                  f"spread {stats['spread']:.4f}{flag}  {[round(v, 4) for v in stats['values']]}", flush=True)
            metrics[name] = stats
        report["workloads"][workload] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": metrics,
        }
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
