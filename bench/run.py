"""partlab benchmark: cold passes over one workload, checked against a golden.

Usage, from the root of a checkout:

    python3 bench/run.py --workload verify-all --seed 1 --seconds 30 --trace 0

Each pass runs in a fresh interpreter (``bench/one_pass.py``), so every pass
pays the memo fill, as a fresh ``partlab`` command does.  The seed fixes the
task order of every pass: a ``random.Random(seed)`` stream shuffles the
frozen task list once per pass.  Passes repeat until the next one would end
after ``--seconds``; there is always at least one.

With ``--trace 0`` the last line carries the end-to-end metrics of
``BENCHMARK.json``: median wall and CPU time of the passes, the highest
peak resident memory of any pass, and ``setup_s``, the median time of
fresh interpreters that import partlab and answer ``count_enum("s", 0)``,
a batch of them before each pass and one after the last.  With
``--trace 1`` untraced and traced passes alternate, the last line carries
the per-layer metrics (medians over the traced passes) and
``trace.overhead_s`` (median traced minus median untraced wall time), and
each traced pass writes its spans to ``bench/out/``.

Every output of every pass is compared with ``bench/golden.json``, frozen
by ``bench/freeze_golden.py``; ``failed`` counts outputs that differ, are
missing or are unexpected.  A pass that dies, or is still running 170 s
after the run's start, has all of its outputs missing.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from tracer import median_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# Fresh interpreters timed before each round of passes and after the last.
SETUP_BATCH = 12
SETUP_CODE = ("import partlab; n = partlab.count_enum('s', 0); "
              "import time; print(n, time.perf_counter())")
# A pass or setup interpreter still running this long after the run's
# start is treated as hung, and none starts later, so a run ends within 180 s.
RUN_DEADLINE_S = 170


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def _children_cpu_s() -> float:
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return kids.ru_utime + kids.ru_stime


def measure_setup(repeats: int, deadline: float) -> tuple[list[float], int]:
    """Time fresh interpreters from launch until they have imported partlab
    and answered the first trivial request; interpreter teardown is not
    counted.  Returns the seconds of each that answered correctly, and how
    many did not (died, answered wrongly, or would start after
    ``deadline``).  The child's ``perf_counter`` reading is comparable with
    the parent's, as both read the system-wide monotonic clock."""
    env = _env()
    times = []
    bad = 0
    for _ in range(repeats):
        t0 = time.perf_counter()
        if t0 >= deadline:
            bad += 1
            continue
        try:
            proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                                  capture_output=True, text=True, timeout=deadline - t0)
        except subprocess.TimeoutExpired:
            bad += 1
            continue
        answer = proc.stdout.split()
        if proc.returncode != 0 or len(answer) != 2 or answer[0] != "1":
            bad += 1
            continue
        times.append(float(answer[1]) - t0)
    return times, bad


def shuffled(tasks: list, rng: random.Random) -> list:
    """The tasks in a random order; the identity list of a verify_cells
    task is shuffled too."""
    out = []
    for task in tasks:
        if task[0] == "verify_cells":
            ids = list(task[1])
            rng.shuffle(ids)
            task = [task[0], ids, *task[2:]]
        out.append(task)
    rng.shuffle(out)
    return out


def run_one_pass(tasks: list, trace: bool, deadline: float, trace_out: Path | None = None) -> dict:
    """Run one pass in a fresh interpreter.  A pass that is still running at
    ``deadline`` (a ``time.perf_counter()`` reading) or whose interpreter
    dies gives no outputs, so every expected output of it counts as failed;
    its times are then measured from outside and its layers are None."""
    job = {"tasks": tasks, "trace": trace, "trace_out": str(trace_out) if trace_out else None}
    started = time.perf_counter()
    cpu0 = _children_cpu_s()
    try:
        if deadline <= started:
            raise subprocess.TimeoutExpired("one_pass.py", 0)
        proc = subprocess.run(
            [sys.executable, str(BENCH / "one_pass.py")],
            input=json.dumps(job), capture_output=True, text=True,
            env=_env(), cwd=ROOT, timeout=deadline - started,
        )
        if proc.returncode == 0:
            return json.loads(proc.stdout.splitlines()[-1])
        error = f"pass exited with {proc.returncode}: {proc.stderr.strip()[-500:]}"
    except subprocess.TimeoutExpired:
        error = f"pass did not end within {RUN_DEADLINE_S} s of the run's start"
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {
        "wall_s": time.perf_counter() - started,
        "cpu_s": _children_cpu_s() - cpu0,
        "peak_rss_mb": children.ru_maxrss / 1024.0,
        "outputs": {},
        "errors": [error],
        "layers": None,
    }


def check(outputs: dict, expected: dict) -> tuple[int, int]:
    """(checked, failed): every expected output must be present and equal,
    and no output may lack an expected value."""
    keys = expected.keys() | outputs.keys()
    failed = sum(1 for key in keys
                 if key not in expected or key not in outputs or outputs[key] != expected[key])
    return len(keys), failed


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run(workload: str, seed: int, seconds: float, trace: bool, golden: dict,
        size: str = "full") -> dict:
    """Run the benchmark and return the result object of the last line."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    frozen = golden[workload][size]
    tasks, expected = frozen["tasks"], frozen["expected"]
    rng = random.Random(seed)

    setup_times: list[float] = []
    plain: list[dict] = []
    traced: list[dict] = []
    attempted = failed = 0
    errors: list[str] = []
    start = time.perf_counter()
    deadline = start + RUN_DEADLINE_S
    longest = 0.0

    def setup_round() -> None:
        nonlocal attempted, failed
        times, bad = measure_setup(SETUP_BATCH, deadline)
        setup_times.extend(times)
        attempted += SETUP_BATCH
        failed += bad
        if bad:
            errors.append(f"{bad} of {SETUP_BATCH} setup interpreters failed")

    while True:
        round_start = time.perf_counter()
        if not trace:
            setup_round()
        order = shuffled(tasks, rng)
        results = [run_one_pass(order, False, deadline)]
        plain.append(results[0])
        if trace:
            (BENCH / "out").mkdir(exist_ok=True)
            out = BENCH / "out" / f"trace-{workload}-seed{seed}-pass{len(traced)}.json"
            results.append(run_one_pass(order, True, deadline, out))
            traced.append(results[-1])
        for result in results:
            checked, bad = check(result["outputs"], expected)
            attempted += checked
            failed += bad
            errors += result["errors"]
        now = time.perf_counter()
        longest = max(longest, now - round_start)
        if now - start + longest > seconds:
            break

    if trace:
        layers = [r["layers"] for r in traced if r["layers"] is not None]
        # If no traced pass ended, the run has failed outputs and no layer
        # figures; it still reports every metric, as 0.
        values = (median_metrics(layers) if layers
                  else {m["name"]: 0.0 for m in spec["per_layer"]})
        values["trace.overhead_s"] = (median(r["wall_s"] for r in traced)
                                      - median(r["wall_s"] for r in plain))
        wanted = spec["per_layer"]
    else:
        # Setup is sampled between the passes too, so that a slow minute
        # of the machine weighs on it no more than on the passes.
        setup_round()
        values = {name: median(r[name] for r in plain) for name in ("wall_s", "cpu_s")}
        # With a pool, which worker runs which cells (and fills which memo)
        # varies from pass to pass, so one pass's peak is not steady; the
        # run reports the highest peak of its passes.
        values["peak_rss_mb"] = max(r["peak_rss_mb"] for r in plain)
        values["setup_s"] = median(setup_times) if setup_times else 0.0
        wanted = spec["end_to_end"]

    for line in errors[:10]:
        print(f"error: {line}")
    print(f"workload {workload} size {size} seed {seed} passes {len(plain)}"
          f"{' traced ' + str(len(traced)) if trace else ''}")
    for metric in wanted:
        print(f"{metric['name']} {values[metric['name']]!r} {metric['unit']}")
    print(f"fail_share {failed / attempted!r} ratio ({failed} of {attempted} outputs)")
    print("stamp " + json.dumps({
        "git_sha": git_sha(), "python": platform.python_version(),
        "nproc": os.cpu_count(), "seed": seed, "workload": workload, "size": size,
    }))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny is a seconds-long version for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "partlab" / "__init__.py").is_file():
        print(f"error: no partlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    golden = json.loads((BENCH / "golden.json").read_text())
    if args.workload not in golden:
        print(f"error: unknown workload {args.workload!r}; expected one of {sorted(golden)}",
              file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), golden, args.size)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
