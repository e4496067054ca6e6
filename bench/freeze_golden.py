"""Freeze the benchmark's task lists and expected outputs into golden.json.

    python3 bench/freeze_golden.py

This defines the workloads: each workload has a full size (what the
benchmark measures) and a tiny size (for the benchmark's own tests).  It
runs one serial cold pass per workload and size with the current sources
and records every output.  The golden is frozen once, from the commit that
introduced the benchmark, and every later commit is checked against it: do
not re-freeze it to make a changed program pass.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from partlab import acceptance, families, identities  # noqa: E402

from run import run_one_pass  # noqa: E402

# Workload sizes, as (full, tiny).
VERIFY_N_MAX = (None, 10)          # None: each identity's default n_max
SERIES_ORDER = (600, 60)           # gf_family order for the closed-form cells
SERIES_VERIFY_N_MAX = (2000, 120)  # series-engine n_max for I5, I6 and I14
BIJECTION_N_MAX = (27, 8)          # exhaustive checks for n = 0..N


def workload_tasks(workload: str, size: int) -> list:
    ids = list(identities.identity_ids())
    if workload == "verify-all":
        return [["verify_cells", ids, VERIFY_N_MAX[size], None, 1]]
    if workload == "verify-parallel":
        return [["verify_cells", ids, VERIFY_N_MAX[size], None, 2]]
    if workload == "series-deep":
        tasks = [["gf", fid, params, SERIES_ORDER[size]] for fid, params in families.closed_form_cells()]
        tasks += [["verify_cells", [i], SERIES_VERIFY_N_MAX[size], "series", 1] for i in ("I5", "I6", "I14")]
        return tasks
    if workload == "bijection-sweep":
        return [["bij", name, params, n]
                for name, params in acceptance._bijection_cells()
                for n in range(BIJECTION_N_MAX[size] + 1)]
    raise ValueError(workload)


def main() -> None:
    golden: dict = {}
    for workload in ("verify-all", "verify-parallel", "series-deep", "bijection-sweep"):
        for size, label in enumerate(("full", "tiny")):
            tasks = workload_tasks(workload, size)
            result = run_one_pass(tasks, False)
            if result["errors"]:
                raise SystemExit(f"{workload} {label}: {result['errors']}")
            broken = [key for key, value in result["outputs"].items() if key.startswith("bij|") and value]
            if broken:
                raise SystemExit(f"{workload} {label}: bijection failures at {broken}")
            golden.setdefault(workload, {})[label] = {"tasks": tasks, "expected": result["outputs"]}
            print(f"{workload} {label}: {len(result['outputs'])} outputs in {result['wall_s']:.2f} s")
    (BENCH / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
