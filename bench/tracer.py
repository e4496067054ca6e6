"""Outside-in layer tracing for the partlab benchmark.

The tracer replaces public functions of the partlab modules (and
``Partition.__init__``) with timing wrappers.  The program calls these
through module globals, so no change to the program is needed.  Tracing is
for a separate, traced pass only: end-to-end numbers come from untraced
passes.

Every wrapped call is a span.  A span opened with no other span open is a
task (one identity cell, one series build or one bijection cell).  Spans are
folded as they close into per-task aggregates keyed by (parent, name):
calls, inclusive seconds and self seconds, where self time is the span's
duration minus the time its child spans cover.  Folding keeps memory flat:
the bijection sweep closes about two million spans per pass.

Pool workers forked while tracing run the original functions, so worker
time never enters the trace.
"""

from __future__ import annotations

import os
import time
from statistics import median

_ENUM = "enumeration.pair_sequences"
_PARTITION_INIT = "partition.Partition.__init__"
_COUNT_ENUM = "families.count_enum"

# Attribute name in each module -> span name.  The pochhammer products of
# both signs share one span name, as do the seven bijection maps.
WRAPPED = {
    "enumeration": {"pair_sequences": _ENUM},
    "families": {
        "count_enum": _COUNT_ENUM,
        "recurrence_d_e": "families.recurrence_d_e",
        "series_for": "families.series_for",
        "enumerate_class": "families.enumerate_class",
        "membership": "families.membership",
        "normalize_params": "families.normalize_params",
    },
    "qseries": {
        "gf_family": "qseries.gf_family",
        "mul": "qseries.mul",
        "inverse": "qseries.inverse",
        "pochhammer": "qseries.pochhammer",
        "pochhammer_plus": "qseries.pochhammer",
        "lambert": "qseries.lambert",
    },
    "identities": {"verify": "identities.verify"},
    "bijections": {
        "exhaustive_cell_check": "bijections.exhaustive_cell_check",
        **{name: "bijections.maps" for name in (
            "glaisher", "glaisher_inv", "genr_f_to_d", "genr_d_to_f",
            "dpk_to_dp", "dp_to_dpk", "var0_map")},
    },
}


class Tracer:
    """Span stack plus per-task aggregates for one traced pass."""

    def __init__(self) -> None:
        # Open spans as [name, start, child_seconds].
        self.stack: list[list] = []
        # Closed tasks as dicts: name, args, start, end, spans.
        self.tasks: list[dict] = []
        self._task_spans: dict[tuple[str, str], list] = {}
        self.items = 0
        self.misses = 0
        self._seen_keys: set = set()
        self._saved: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every function in WRAPPED, in place."""
        from partlab import bijections, enumeration, families, identities, qseries
        from partlab.partition import Partition

        modules = {"enumeration": enumeration, "families": families, "qseries": qseries,
                   "identities": identities, "bijections": bijections}
        for mod_name, attrs in WRAPPED.items():
            module = modules[mod_name]
            for attr, span in attrs.items():
                original = getattr(module, attr)
                if span == _ENUM:
                    wrapper = self._wrap_enumeration(original)
                elif span == _COUNT_ENUM:
                    wrapper = self._wrap(span, original, self._note_count_enum)
                else:
                    wrapper = self._wrap(span, original)
                self._saved.append((module, attr, original))
                setattr(module, attr, wrapper)
        self._saved.append((Partition, "__init__", Partition.__init__))
        Partition.__init__ = self._wrap(_PARTITION_INIT, Partition.__init__)
        os.register_at_fork(after_in_child=self.uninstall)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- span bookkeeping -------------------------------------------------

    def _close(self, frame: list, end: float, args: tuple) -> None:
        stack = self.stack
        name, start, child = frame
        duration = end - start
        if stack:
            parent = stack[-1]
            parent[2] += duration
            self._add(parent[0], name, 1, duration, duration - child)
        else:
            self._add("", name, 1, duration, duration - child)
            self.tasks.append({
                "name": name,
                "args": repr(args)[:120],
                "start": start,
                "end": end,
                "spans": [[p, n, *agg] for (p, n), agg in self._task_spans.items()],
            })
            self._task_spans = {}

    def _add(self, parent: str, name: str, calls: int, total: float, own: float) -> None:
        agg = self._task_spans.get((parent, name))
        if agg is None:
            self._task_spans[(parent, name)] = [calls, total, own]
        else:
            agg[0] += calls
            agg[1] += total
            agg[2] += own

    def _wrap(self, name, fn, note=None):
        stack = self.stack
        clock = time.perf_counter
        close = self._close

        def traced(*args, **kwargs):
            if note is not None:
                note(args, kwargs)
            frame = [name, 0.0, 0.0]
            stack.append(frame)
            frame[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                close(frame, end, args)

        return traced

    def _note_count_enum(self, args: tuple, kwargs: dict) -> None:
        family, n = args[0], args[1]
        params = args[2] if len(args) > 2 else kwargs.get("params")
        key = (family, tuple(sorted(params.items())) if params else (), n)
        if key not in self._seen_keys:
            self._seen_keys.add(key)
            self.misses += 1

    def _wrap_enumeration(self, fn):
        """Time the call and every ``next()`` on the returned iterable.

        Iteration happens in the caller's frame, so the iteration time is
        charged to the enumeration layer and counted as child time of the
        caller.  Every caller in the program consumes the iterable once.
        """
        traced_call = self._wrap(_ENUM, fn)
        tracer = self

        def pair_sequences(*args, **kwargs):
            items = traced_call(*args, **kwargs)
            owner = tracer.stack[-1] if tracer.stack else None
            return tracer._timed_iter(items, owner)

        return pair_sequences

    def _timed_iter(self, items, owner):
        clock = time.perf_counter
        it = iter(items)
        spent = 0.0
        count = 0
        try:
            while True:
                t0 = clock()
                try:
                    item = next(it)
                except StopIteration:
                    spent += clock() - t0
                    return
                spent += clock() - t0
                count += 1
                yield item
        finally:
            self.items += count
            if owner is not None:
                owner[2] += spent
                self._add(owner[0], _ENUM, 0, spent, spent)
            else:
                self._add("", _ENUM, 0, spent, spent)

    # -- results ----------------------------------------------------------

    def totals(self) -> dict[str, list]:
        """Per span name: [calls, inclusive seconds, self seconds], summed
        over tasks.  Inclusive time counts only outermost spans of a name."""
        out: dict[str, list] = {}
        for task in self.tasks:
            for parent, name, calls, total, own in task["spans"]:
                agg = out.setdefault(name, [0, 0.0, 0.0])
                agg[0] += calls
                if parent != name:
                    agg[1] += total
                agg[2] += own
        return out

    def child_calls(self, parent: str, name: str) -> int:
        return sum(calls for task in self.tasks
                   for p, n, calls, _, _ in task["spans"] if p == parent and n == name)


def layer_metrics(tracer: Tracer, reports_ms: list[int], verify_wall: float, workers: int) -> dict[str, float]:
    """The per-layer metrics of one traced pass.

    ``reports_ms`` are the ``ms`` fields of the identity reports,
    ``verify_wall`` the wall seconds spent in ``verify_cells`` calls and
    ``workers`` their pool size (1 when serial); the identities pool
    figures come from these, not from spans.
    """
    totals = tracer.totals()

    def calls(name):
        return totals.get(name, [0, 0.0, 0.0])[0]

    def incl(name):
        return totals.get(name, [0, 0.0, 0.0])[1]

    def own(name):
        return totals.get(name, [0, 0.0, 0.0])[2]

    def ratio(num, den):
        return num / den if den else 0.0

    items, misses = tracer.items, tracer.misses
    builds = tracer.child_calls("families.series_for", "qseries.gf_family")
    cell_sum = float(sum(reports_ms))
    busy = verify_wall * workers
    return {
        "enumeration.pair_sequences.calls": calls(_ENUM),
        "enumeration.pair_sequences.items": items,
        "enumeration.pair_sequences.self_s": own(_ENUM),
        "enumeration.items_per_s": ratio(items, own(_ENUM)),
        "families.count_enum.calls": calls(_COUNT_ENUM),
        "families.count_enum.misses": misses,
        "families.count_enum.hit_ratio": ratio(calls(_COUNT_ENUM) - misses, calls(_COUNT_ENUM)),
        "families.count_enum.self_s": own(_COUNT_ENUM),
        "families.recurrence_d_e.s": incl("families.recurrence_d_e"),
        "families.series_for.calls": calls("families.series_for"),
        "families.series_for.builds": builds,
        "families.enumerate_class.calls": calls("families.enumerate_class"),
        "families.enumerate_class.self_s": own("families.enumerate_class"),
        "families.membership.calls": calls("families.membership"),
        "families.normalize_params.calls": calls("families.normalize_params"),
        "partition.Partition.init_calls": calls(_PARTITION_INIT),
        "partition.Partition.init_s": incl(_PARTITION_INIT),
        "qseries.gf_family.calls": calls("qseries.gf_family"),
        "qseries.gf_family.s": incl("qseries.gf_family"),
        "qseries.mul.calls": calls("qseries.mul"),
        "qseries.mul.self_s": own("qseries.mul"),
        "qseries.inverse.calls": calls("qseries.inverse"),
        "qseries.inverse.self_s": own("qseries.inverse"),
        "qseries.pochhammer.self_s": own("qseries.pochhammer"),
        "qseries.lambert.self_s": own("qseries.lambert"),
        "identities.verify.calls": calls("identities.verify"),
        "identities.verify.self_s": own("identities.verify"),
        "identities.cell_ms_max": float(max(reports_ms, default=0)),
        "identities.cell_ms_sum": cell_sum,
        "identities.pool_efficiency": ratio(cell_sum / 1000.0, busy),
        "identities.pool_idle_s": busy - cell_sum / 1000.0,
        "bijections.exhaustive_cell_check.calls": calls("bijections.exhaustive_cell_check"),
        "bijections.exhaustive_cell_check.self_s": own("bijections.exhaustive_cell_check"),
        "bijections.maps.calls": calls("bijections.maps"),
        "bijections.maps.self_s": own("bijections.maps"),
        "bijections.maps_per_s": ratio(calls("bijections.maps"), own("bijections.maps")),
    }


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    """Metric-wise median over several traced passes."""
    return {name: median(s[name] for s in samples) for name in samples[0]}
