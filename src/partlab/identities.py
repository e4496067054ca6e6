"""Registry of the verifiable claims and the engine that checks them.

Every claim is registered as an IdentitySpec with a default parameter grid
and the engines (enumeration, series, or both) that can evaluate it.  A
verification run produces IdentityReport records that serialize to JSON and
CSV with stable field names.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from io import StringIO
from typing import Callable, Iterable, Mapping

from . import enumeration, families, numtheory, qseries
from .errors import DomainError, ResourceLimitError, UnknownIdentityError

Params = dict[str, int]

_PARAM_ORDER = ("t", "p", "k", "r", "i", "alpha", "offset")


@dataclass(frozen=True)
class Counterexample:
    n: int
    lhs: int
    rhs: int


Side = tuple[str, Params | None]


@dataclass(frozen=True)
class IdentitySpec:
    """One registered claim.

    Registry entries give ``sides``: for a grid cell, the groups of
    (family, params) sides that the relation named by ``kind`` must hold
    within.  Checked on n = n_lo..n_max, group by group:

    - ``equality``: every side equals side 0;
    - ``signed-equality``: side 0 equals (-1)^n times side 1;
    - ``divisibility``: ``modulus`` divides side 0 minus side 1;
    - ``congruence``: ``modulus`` divides side 0 at n = offset + modulus*m,
      with offset from the cell.

    ``modulus`` None takes the cell's p.  Specs without ``sides`` (I9, I10
    and I14) have their own checkers.
    """

    id: str
    description: str
    kind: str  # the relations above | recurrence | parity | series-equality
    grid: tuple[tuple[tuple[str, int], ...], ...]
    engines: tuple[str, ...]
    enum_n_max: int
    series_n_max: int = 200
    sides: Callable[[Params], tuple[tuple[Side, ...], ...]] | None = None
    n_lo: int = 0
    modulus: int | None = None

    def cells(self) -> tuple[Params, ...]:
        return tuple(dict(cell) for cell in self.grid)

    @property
    def default_engine(self) -> str:
        return self.engines[0]


@dataclass(frozen=True)
class IdentityReport:
    id: str
    params: tuple[tuple[str, int], ...]
    n_max: int
    engine: str
    status: str  # "holds" | "fails"
    counterexample: Counterexample | None
    ms: int

    @property
    def holds(self) -> bool:
        return self.status == "holds"


def format_params(params: Mapping[str, int], sep: str = ",") -> str:
    keys = sorted(params, key=lambda k: (_PARAM_ORDER.index(k) if k in _PARAM_ORDER else 99, k))
    return sep.join(f"{k}={params[k]}" for k in keys)


# ---------------------------------------------------------------------------
# The relation runner and the bespoke checkers
# ---------------------------------------------------------------------------

Evaluator = Callable[[int], int]


def _eval(fid: str, params: Mapping[str, int] | None, engine: str, n_max: int) -> Evaluator:
    if engine == "enum":
        return families.enum_values(fid, n_max, params).__getitem__
    if engine == "series":
        series = families.series_for(fid, params, n_max)
        return lambda n: series.coeffs[n]
    raise DomainError(f"engine must be 'enum' or 'series', got {engine!r}")


def _run_relation(spec: IdentitySpec, cell: Params, n_max: int, engine: str) -> Counterexample | None:
    """First counterexample to a registry entry, or None.

    Equality reports side 0 against the first side that differs,
    signed equality the signed side 1, divisibility both raw values and
    congruence (index, value, 0).
    """
    kind = spec.kind
    modulus = spec.modulus or cell.get("p")
    for group in spec.sides(cell):
        first, *others = [_eval(fid, fparams, engine, n_max) for fid, fparams in group]
        if kind == "congruence":
            for n in range(cell["offset"], n_max + 1, modulus):
                value = first(n)
                if value % modulus != 0:
                    return Counterexample(n, value, 0)
            continue
        for n in range(spec.n_lo, n_max + 1):
            lhs = first(n)
            for other in others:
                rhs = other(n)
                if kind == "signed-equality" and n % 2:
                    rhs = -rhs
                differs = (lhs - rhs) % modulus if kind == "divisibility" else lhs != rhs
                if differs:
                    return Counterexample(n, lhs, rhs)
    return None


def _check_i9(params: Params, n_max: int, engine: str) -> Counterexample | None:
    d_e = families.enum_values("d_e", n_max)
    for n in range(1, n_max + 1):
        lhs = families.recurrence_d_e(n)
        rhs = d_e[n]
        if lhs != rhs:
            return Counterexample(n, lhs, rhs)
    return None


def _check_i10(params: Params, n_max: int, engine: str) -> Counterexample | None:
    d_o = _eval("d_o", None, engine, n_max)
    for n in range(1, n_max + 1):
        lhs = families.triangular_parity(d_o, n)
        if n % 2 == 1:
            rhs = 0
        else:
            rhs = numtheory.sigma0(n >> numtheory.v2(n)) % 2
        if lhs != rhs:
            return Counterexample(n, lhs, rhs)
    return None


def _check_i14(params: Params, n_max: int, engine: str) -> Counterexample | None:
    cell = {"alpha": params["alpha"], "k": params["k"], "p": params["p"]}
    if engine == "series":
        # Two independently built series: the parity-split sum over the
        # tracked repeated part versus the folded alternating-sign form.
        lhs = qseries.add(
            qseries.gf_family("g_alpha_odd", cell, n_max),
            qseries.negate(qseries.gf_family("g_alpha_even", cell, n_max)),
        )
        rhs = qseries.gf_family("g_alpha", cell, n_max)
        for n in range(n_max + 1):
            if lhs.coeffs[n] != rhs.coeffs[n]:
                return Counterexample(n, lhs.coeffs[n], rhs.coeffs[n])
        return None
    # Enumeration engine: the unsigned pieces against their series.
    for fid in ("g_alpha_odd", "g_alpha_even"):
        series = families.series_for(fid, cell)
        values = families.enum_values(fid, n_max, cell)
        for n in range(0, n_max + 1):
            lhs = values[n]
            rhs = series.coeffs[n]
            if lhs != rhs:
                return Counterexample(n, lhs, rhs)
    return None


_BESPOKE: dict[str, Callable[[Params, int, str], Counterexample | None]] = {
    "I9": _check_i9, "I10": _check_i10, "I14": _check_i14,
}


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


def _grid(*cells: Mapping[str, int]) -> tuple[tuple[tuple[str, int], ...], ...]:
    return tuple(tuple(sorted(cell.items())) for cell in cells)


_EMPTY = _grid({})


def _heavy_parity_pieces(swapped: bool) -> Callable[[Params], tuple[tuple[Side, ...], ...]]:
    """Sides of the proposition on g_alpha_odd/even(p,p,p), as printed or swapped."""
    def sides(cell: Params) -> tuple[tuple[Side, ...], ...]:
        p = cell["p"]
        g_cell = {"alpha": p, "k": p, "p": p}
        odd_i, even_i = (p, 0) if swapped else (0, p)
        return ((("g_alpha_odd", g_cell), ("h", {"p": p, "i": odd_i})),
                (("g_alpha_even", g_cell), ("h", {"p": p, "i": even_i})))
    return sides


_REGISTRY: dict[str, IdentitySpec] = {spec.id: spec for spec in (
    IdentitySpec(
        "I1", "a(n) = c(n): even parts over distinct partitions vs the signed "
        "single-repeated-part count", "equality", _EMPTY, ("enum",), 40,
        sides=lambda c: ((("a", None), ("c", None)),), n_lo=1),
    IdentitySpec(
        "I2", "c(n) = (-1)^n b(n) as signed integers", "signed-equality", _EMPTY, ("enum",), 40,
        sides=lambda c: ((("c", None), ("b", None)),), n_lo=1),
    IdentitySpec(
        "I3", "2 divides a(n) - b_prime(n)", "divisibility", _EMPTY, ("enum",), 40,
        sides=lambda c: ((("a", None), ("b_prime", None)),), n_lo=1, modulus=2),
    IdentitySpec(
        "I4", "a_r(n;p,r) = g_r(n;p,r) for the signed repeated-part count", "equality",
        _grid(*({"p": p, "r": r} for p in (2, 3, 4, 5) for r in range(p - 1))), ("enum",), 30,
        sides=lambda c: ((("a_r", c), ("g_r", c)),), n_lo=1),
    IdentitySpec(
        "I5", "p divides a_np(n;p) - o_p(n;p)", "divisibility",
        _grid(*({"p": p} for p in (2, 3, 5))), ("series", "enum"), 30,
        sides=lambda c: ((("a_np", c), ("o_p", c)),)),
    IdentitySpec(
        "I6", "a_np(p*m + offset; p) is divisible by p along the stated "
        "arithmetic progressions", "congruence",
        _grid({"p": 5, "offset": 4}, {"p": 7, "offset": 5}, {"p": 11, "offset": 6}),
        ("series", "enum"), 30,
        sides=lambda c: ((("a_np", {"p": c["p"]}),),)),
    IdentitySpec(
        "I7", "o_p_odd = h(i=p) and o_p_even = h(i=0)", "equality",
        _grid(*({"p": p} for p in (2, 3, 4))), ("enum",), 30,
        sides=lambda c: ((("o_p_odd", c), ("h", {"p": c["p"], "i": c["p"]})),
                         (("o_p_even", c), ("h", {"p": c["p"], "i": 0})))),
    IdentitySpec(
        "I8", "d_e = f0 and d_o = f2", "equality", _EMPTY, ("enum", "series"), 40,
        sides=lambda c: ((("d_e", None), ("f0", None)), (("d_o", None), ("f2", None))), n_lo=1),
    IdentitySpec(
        "I9", "pentagonal recurrence with the gamma correction reproduces d_e",
        "recurrence", _EMPTY, ("enum",), 60),
    IdentitySpec(
        "I10", "triangular parity sum of d_o matches the divisor-count parity",
        "parity", _EMPTY, ("enum", "series"), 60),
    IdentitySpec(
        "I11", "f_pkr = d_pkr", "equality",
        _grid(*({"p": p, "k": k, "r": r} for p in (2, 3) for k in (2, 3, 4) for r in range(p))),
        ("enum", "series"), 30,
        sides=lambda c: ((("f_pkr", c), ("d_pkr", c)),), n_lo=1),
    IdentitySpec(
        "I12", "o_p(.;k) = d_k and, at k=4, d_k = d_e", "equality",
        _grid(*({"k": k} for k in (2, 3, 4, 5))), ("enum",), 40,
        sides=lambda c: ((("o_p", {"p": c["k"]}), ("d_k", c),
                          *((("d_e", None),) if c["k"] == 4 else ())),)),
    IdentitySpec(
        "I13", "d_k with k = p*k' equals d_pkr with r = 0", "equality",
        _grid({"p": 2, "k": 2}, {"p": 2, "k": 3}, {"p": 3, "k": 2}, {"p": 3, "k": 4}),
        ("enum",), 30,
        sides=lambda c: ((("d_k", {"k": c["p"] * c["k"]}), ("d_pkr", {**c, "r": 0})),)),
    IdentitySpec(
        "I14", "signed heavy-part generating function: parity-split build equals "
        "the folded alternating form; unsigned pieces match enumeration",
        "series-equality",
        _grid(*({"p": p, "k": k, "alpha": a} for p in (2, 3) for k in range(2, p + 1) for a in (k, k + 1))),
        ("series", "enum"), 30),
    IdentitySpec(
        "I15", "as printed: g_alpha_odd(p,p,p) = h(i=0) and g_alpha_even = h(i=p)",
        "equality", _grid({"p": 2}, {"p": 3}), ("enum",), 30,
        sides=_heavy_parity_pieces(swapped=False)),
    IdentitySpec(
        "I15-swapped", "swapped orientation: g_alpha_odd(p,p,p) = h(i=p) and "
        "g_alpha_even = h(i=0)", "equality", _grid({"p": 2}, {"p": 3}), ("enum",), 30,
        sides=_heavy_parity_pieces(swapped=True)),
    IdentitySpec(
        "I16", "multiplicity bound t-1 and no-part-divisible-by-t classes are "
        "equinumerous", "equality",
        _grid(*({"t": t} for t in (2, 3, 4, 5))), ("enum",), 40,
        sides=lambda c: ((("glaisher_left", c), ("glaisher_right", c)),)),
)}

I15_PAIR = ("I15", "I15-swapped")


# ---------------------------------------------------------------------------
# Verification API
# ---------------------------------------------------------------------------


def identity_ids() -> tuple[str, ...]:
    return tuple(_REGISTRY)


def get_identity(identity_id: str) -> IdentitySpec:
    spec = _REGISTRY.get(identity_id)
    if spec is None:
        raise UnknownIdentityError(f"unknown identity {identity_id!r}")
    return spec


def list_identities() -> tuple[IdentitySpec, ...]:
    return tuple(_REGISTRY.values())


def _resolve_n_max(spec: IdentitySpec, engine: str, n_max: int | None) -> int:
    if n_max is not None:
        if n_max < 1:
            raise DomainError(f"n_max must be >= 1, got {n_max}")
        return n_max
    return spec.series_n_max if engine == "series" else spec.enum_n_max


def _match_cell(spec: IdentitySpec, params: Mapping[str, int] | None) -> list[Params]:
    cells = spec.cells()
    if not params:
        return list(cells)
    matched = [cell for cell in cells if all(cell.get(k) == v for k, v in params.items())]
    if not matched:
        raise DomainError(
            f"{spec.id} has no grid cell matching {dict(params)!r}; "
            f"valid cells: {[format_params(c) or '-' for c in cells]}"
        )
    return matched


def verify(identity_id: str, params: Mapping[str, int] | None = None,
           n_max: int | None = None, engine: str | None = None) -> IdentityReport:
    """Check one identity cell and report the outcome.

    ``params`` must pin down exactly one grid cell for gridded identities.
    ``engine`` is one of the identity's allowed engines or "both".
    """
    spec = get_identity(identity_id)
    matched = _match_cell(spec, params)
    if len(matched) > 1:
        raise DomainError(
            f"{identity_id} needs parameters to select one of its "
            f"{len(matched)} grid cells; use verify_cells for sweeps"
        )
    cell = matched[0]
    chosen = engine or spec.default_engine
    if chosen == "both":
        engines = spec.engines
    elif chosen in spec.engines:
        engines = (chosen,)
    else:
        raise DomainError(
            f"{identity_id} supports engines {spec.engines}, got {chosen!r}"
        )
    start = time.perf_counter()
    counterexample = None
    used_n_max = 0
    for eng in engines:
        resolved = _resolve_n_max(spec, eng, n_max)
        if eng == "enum":
            # Fail fast instead of enumerating up to the cap first.
            cap = enumeration.resolve_cap(None)
            if resolved > cap:
                raise ResourceLimitError(
                    f"n_max={resolved} exceeds the enumeration cap {cap} "
                    f"for the enum engine of {identity_id}"
                )
        used_n_max = max(used_n_max, resolved)
        if spec.sides is None:
            counterexample = _BESPOKE[identity_id](cell, resolved, eng)
        else:
            counterexample = _run_relation(spec, cell, resolved, eng)
        if counterexample is not None:
            break
    ms = int(round((time.perf_counter() - start) * 1000))
    return IdentityReport(
        id=identity_id,
        params=tuple(sorted(cell.items())),
        n_max=used_n_max,
        engine=chosen,
        status="fails" if counterexample else "holds",
        counterexample=counterexample,
        ms=ms,
    )


def _verify_job(args: tuple[str, tuple[tuple[str, int], ...], int | None, str | None]) -> IdentityReport:
    identity_id, cell, n_max, engine = args
    return verify(identity_id, dict(cell), n_max, engine)


def verify_cells(ids: Iterable[str] | None = None,
                 params: Mapping[str, int] | None = None,
                 n_max: int | None = None,
                 engine: str | None = None,
                 jobs: int = 1) -> list[IdentityReport]:
    """Verify every matching grid cell of the requested identities.

    Requesting either orientation of the adjudicated pair pulls in the other
    so the exactly-one-holds rule can be applied.  Output order is by
    (identity, parameters) regardless of completion order.  ``jobs`` (>= 1)
    caps the worker processes, which are also capped by the CPU count and
    the number of cells.
    """
    if jobs < 1:
        raise DomainError(f"jobs must be >= 1, got {jobs}")
    sweep_all = ids is None
    wanted = list(ids) if ids is not None else list(_REGISTRY)
    for identity_id in wanted:
        get_identity(identity_id)
    if any(i in I15_PAIR for i in wanted):
        for twin in I15_PAIR:
            if twin not in wanted:
                wanted.append(twin)
    order = {identity_id: pos for pos, identity_id in enumerate(_REGISTRY)}
    tasks = []
    for identity_id in wanted:
        spec = get_identity(identity_id)
        if (sweep_all and engine is not None and engine != "both"
                and engine not in spec.engines):
            # A blanket engine request skips identities that cannot run it;
            # explicitly requested ids still error.
            continue
        for cell in _match_cell(spec, params):
            tasks.append((identity_id, tuple(sorted(cell.items())), n_max, engine))
    workers = min(jobs, os.cpu_count() or 1, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(_verify_job, tasks))
    else:
        reports = [_verify_job(task) for task in tasks]
    reports.sort(key=lambda r: (order[r.id], r.params))
    return reports


def _paired_outcomes(reports: Iterable[IdentityReport]) -> dict[tuple[tuple[str, int], ...], dict[str, bool]]:
    """Per parameter cell, whether each orientation of the adjudicated pair holds."""
    paired: dict[tuple[tuple[str, int], ...], dict[str, bool]] = {}
    for report in reports:
        if report.id in I15_PAIR:
            paired.setdefault(report.params, {})[report.id] = report.holds
    return paired


def overall_ok(reports: Iterable[IdentityReport]) -> bool:
    """True when every report holds, with the adjudicated pair counting as
    holding when exactly one orientation holds per parameter cell."""
    reports = list(reports)
    if not all(r.holds for r in reports if r.id not in I15_PAIR):
        return False
    for outcomes in _paired_outcomes(reports).values():
        if len(outcomes) == 2:
            if sum(outcomes.values()) != 1:
                return False
        elif not all(outcomes.values()):
            return False
    return True


_VERDICTS = {(True, True): "both", (True, False): "printed",
             (False, True): "swapped", (False, False): "neither"}


def orientation_verdicts(reports: Iterable[IdentityReport]) -> dict[int, str]:
    """Which orientation of the proposition about the heavy-part parity
    pieces holds, per p with reports for both: 'printed', 'swapped', 'both'
    or 'neither'.  Sorted by p."""
    verdicts = {}
    for params, outcomes in sorted(_paired_outcomes(reports).items()):
        if len(outcomes) == 2:
            verdicts[dict(params)["p"]] = _VERDICTS[outcomes["I15"], outcomes["I15-swapped"]]
    return verdicts


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def report_to_dict(report: IdentityReport) -> dict:
    ce = report.counterexample
    return {
        "id": report.id,
        "params": dict(report.params),
        "n_max": report.n_max,
        "engine": report.engine,
        "status": report.status,
        "counterexample": None if ce is None else {"n": ce.n, "lhs": ce.lhs, "rhs": ce.rhs},
        "ms": report.ms,
    }


def reports_to_json(reports: Iterable[IdentityReport]) -> str:
    return json.dumps([report_to_dict(r) for r in reports], indent=2, sort_keys=True)


CSV_FIELDS = ("id", "params", "n_max", "engine", "status",
              "counterexample_n", "counterexample_lhs", "counterexample_rhs", "ms")


def reports_to_csv(reports: Iterable[IdentityReport]) -> str:
    out = StringIO()
    out.write(",".join(CSV_FIELDS) + "\n")
    for report in reports:
        ce = report.counterexample
        row = (
            report.id,
            format_params(dict(report.params), sep=";"),
            str(report.n_max),
            report.engine,
            report.status,
            "" if ce is None else str(ce.n),
            "" if ce is None else str(ce.lhs),
            "" if ce is None else str(ce.rhs),
            str(report.ms),
        )
        out.write(",".join(row) + "\n")
    return out.getvalue()
