"""One cold pass over a task list, in a fresh interpreter.

Reads a job from standard input as JSON: ``{"tasks": [...], "trace": bool,
"trace_out": path or null}``.  Task forms:

- ``["verify_cells", ids, n_max, engine, jobs]``: one call to
  ``identities.verify_cells``; every report is an output;
- ``["gf", family, params, order]``: one ``qseries.gf_family`` build; the
  output is a digest of its coefficients;
- ``["bij", name, params, n]``: one ``bijections.exhaustive_cell_check``;
  the output is its failure list.

Prints one JSON object: wall and CPU seconds of the pass (pool workers
included), peak resident memory in MB, the outputs by key, any errors, and
with tracing on the per-layer metrics.  The pass is timed from the first
call into partlab after import; digests and report conversion happen after
the clock stops.  Run by ``bench/run.py``, which sets ``PYTHONPATH``.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time


def params_text(params: dict) -> str:
    return ",".join(f"{k}={v}" for k, v in sorted(params.items()))


def series_digest(coeffs) -> str:
    return hashlib.sha256(",".join(map(str, coeffs)).encode()).hexdigest()[:16]


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_pass(tasks: list, trace: bool, trace_out: str | None) -> dict:
    from partlab import bijections, identities, qseries

    tracer = None
    if trace:
        from tracer import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()

    results: list[tuple[list, object]] = []
    errors: list[str] = []
    verify_wall = 0.0
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    for task in tasks:
        try:
            if task[0] == "verify_cells":
                _, ids, n_max, engine, jobs = task
                started = time.perf_counter()
                results.append((task, identities.verify_cells(ids, n_max=n_max, engine=engine, jobs=jobs)))
                verify_wall += time.perf_counter() - started
            elif task[0] == "gf":
                _, family, params, order = task
                results.append((task, qseries.gf_family(family, params, order)))
            elif task[0] == "bij":
                _, name, params, n = task
                results.append((task, bijections.exhaustive_cell_check(name, params, n)))
            else:
                raise ValueError(f"unknown task kind {task[0]!r}")
        except Exception as exc:  # every failure is counted, the pass goes on
            errors.append(f"{task!r}: {exc!r}")
    wall = time.perf_counter() - t0
    cpu = _cpu_seconds() - cpu0
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    outputs: dict[str, object] = {}
    reports_ms: list[int] = []
    workers = 1
    for task, value in results:
        if task[0] == "verify_cells":
            workers = max(workers, task[4])
            for r in value:
                ce = r.counterexample
                outputs[f"verify|{r.id}|{params_text(dict(r.params))}"] = [
                    r.n_max, r.engine, r.status, None if ce is None else [ce.n, ce.lhs, ce.rhs]]
                reports_ms.append(r.ms)
        elif task[0] == "gf":
            outputs[f"gf|{task[1]}|{params_text(task[2])}|{task[3]}"] = series_digest(value.coeffs)
        else:
            outputs[f"bij|{task[1]}|{params_text(task[2])}|{task[3]}"] = value

    layers = None
    if tracer is not None:
        tracer.uninstall()
        layers = layer_metrics(tracer, reports_ms, verify_wall, workers)
        if trace_out:
            with open(trace_out, "w") as fh:
                json.dump({"t0": t0, "wall_s": wall, "tasks": tracer.tasks}, fh)
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": max(own_kb, kids_kb) / 1024.0,
        "outputs": outputs,
        "errors": errors,
        "layers": layers,
    }


def main() -> None:
    job = json.load(sys.stdin)
    print(json.dumps(run_pass(job["tasks"], job["trace"], job.get("trace_out"))))


if __name__ == "__main__":
    main()
