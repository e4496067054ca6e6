"""Registry of the verifiable claims and the engine that checks them.

Every claim is registered as an IdentitySpec with a default parameter grid
and the engines (enumeration, series, or both) that can evaluate it.  A
verification run produces IdentityReport records that serialize to JSON and
CSV with stable field names.
"""

from __future__ import annotations

import json
import operator
import os
import time
from concurrent.futures import ProcessPoolExecutor
from io import StringIO
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from . import enumeration, families, numtheory, qseries
from .errors import DomainError, UnknownIdentityError

Params = dict[str, int]


class Counterexample(NamedTuple):
    n: int
    lhs: int
    rhs: int


# A side's values at 0..n_max: a family id evaluated by the run's engine, or a
# sequence function of (params, engine, n_max) for a derived sequence.
SequenceFn = Callable[[Params | None, str, int], Sequence[int]]
Side = tuple[str | SequenceFn, Params | None]


class IdentitySpec(NamedTuple):
    """One registered claim.

    ``sides`` gives, for a grid cell and an engine, the groups of sides
    that the relation named by ``kind`` must hold within.  Checked on
    n = n_lo..n_max, group by group:

    - ``equality``: every side equals side 0;
    - ``signed-equality``: side 0 equals (-1)^n times side 1;
    - ``divisibility``: ``modulus`` divides side 0 minus side 1;
    - ``congruence``: ``modulus`` divides side 0 at n = offset + modulus*m,
      with offset from the cell.

    ``modulus`` None takes the cell's p.  Every claim is such an entry.
    """

    id: str
    description: str
    kind: str  # one of the relations above
    grid: tuple[tuple[tuple[str, int], ...], ...]
    engines: tuple[str, ...]
    enum_n_max: int
    sides: Callable[[Params, str], tuple[tuple[Side, ...], ...]]
    n_lo: int = 0
    modulus: int | None = None

    def cells(self) -> tuple[Params, ...]:
        return tuple(dict(cell) for cell in self.grid)

    @property
    def default_engine(self) -> str:
        return self.engines[0]


class IdentityReport(NamedTuple):
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
    names = families.PARAM_NAMES
    keys = sorted(params, key=lambda k: (names.index(k) if k in names else 99, k))
    return sep.join(f"{k}={params[k]}" for k in keys)


# ---------------------------------------------------------------------------
# The relation runner and the derived sequences
# ---------------------------------------------------------------------------

def _run_relation(spec: IdentitySpec, cell: Params, n_max: int, engine: str) -> Counterexample | None:
    """First counterexample to a registry entry, or None.

    Equality reports side 0 against the first side that differs,
    signed equality the signed side 1, divisibility both raw values and
    congruence (index, value, 0).
    """
    kind = spec.kind
    modulus = spec.modulus or cell.get("p")
    for group in spec.sides(cell, engine):
        first, *others = [source(params, engine, n_max) if callable(source)
                          else families.values(source, n_max, params, engine)
                          for source, params in group]
        if kind == "congruence":
            for n in range(cell["offset"], n_max + 1, modulus):
                value = first[n]
                if value % modulus != 0:
                    return Counterexample(n, value, 0)
            continue
        for n in range(spec.n_lo, n_max + 1):
            lhs = first[n]
            for other in others:
                rhs = other[n]
                if kind == "signed-equality" and n % 2:
                    rhs = -rhs
                differs = (lhs - rhs) % modulus if kind == "divisibility" else lhs != rhs
                if differs:
                    return Counterexample(n, lhs, rhs)
    return None


# The recurrence and the divisor parity start at n = 1; they hold 0 at n = 0,
# which I9 and I10 (n_lo = 1) skip.

def _d_e_recurrence(params: Params | None, engine: str, n_max: int) -> tuple[int, ...]:
    """d_e by the pentagonal recurrence with the gamma correction."""
    return (0, *map(families.recurrence_d_e, range(1, n_max + 1)))


def _d_o_triangular_parity(params: Params | None, engine: str, n_max: int) -> tuple[int, ...]:
    """Triangular-shifted parity sum of d_o, read by the run's engine."""
    d_o = families.values("d_o", n_max, None, engine).__getitem__
    return tuple(families.triangular_parity(d_o, n) for n in range(n_max + 1))


def _divisor_parity(params: Params | None, engine: str, n_max: int) -> tuple[int, ...]:
    """0 at odd n, else the parity of sigma0 of n's odd part."""
    return (0, *(0 if n % 2 else numtheory.sigma0(n >> numtheory.v2(n)) % 2
                 for n in range(1, n_max + 1)))


def _heavy_parity_difference(params: Params, engine: str, n_max: int) -> tuple[int, ...]:
    """g_alpha_odd - g_alpha_even, both by series; neither outlives the call."""
    odd, even = (families.values(fid, n_max, params, "series")
                 for fid in ("g_alpha_odd", "g_alpha_even"))
    return tuple(map(operator.sub, odd, even))


def _by_series(fid: str) -> SequenceFn:
    """A side that reads the family by series whatever the run's engine."""
    return lambda params, engine, n_max: families.values(fid, n_max, params, "series")


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


def _grid(*cells: Mapping[str, int]) -> tuple[tuple[tuple[str, int], ...], ...]:
    return tuple(tuple(sorted(cell.items())) for cell in cells)


_EMPTY = _grid({})


def _heavy_parity_pieces(swapped: bool) -> Callable[[Params, str], tuple[tuple[Side, ...], ...]]:
    """Sides of the proposition on g_alpha_odd/even(p,p,p), as printed or swapped."""
    def sides(cell: Params, engine: str) -> tuple[tuple[Side, ...], ...]:
        p = cell["p"]
        g_cell = {"alpha": p, "k": p, "p": p}
        odd_i, even_i = (p, 0) if swapped else (0, p)
        return ((("g_alpha_odd", g_cell), ("h", {"p": p, "i": odd_i})),
                (("g_alpha_even", g_cell), ("h", {"p": p, "i": even_i})))
    return sides


def _heavy_part_sides(cell: Params, engine: str) -> tuple[tuple[Side, ...], ...]:
    """I14 by series: the parity-split build (odd - even) against the folded
    alternating form.  By enumeration: each unsigned piece against its series."""
    if engine == "series":
        return (((_heavy_parity_difference, cell), ("g_alpha", cell)),)
    return tuple(((fid, cell), (_by_series(fid), cell)) for fid in ("g_alpha_odd", "g_alpha_even"))


_REGISTRY: dict[str, IdentitySpec] = {spec.id: spec for spec in (
    IdentitySpec(
        "I1", "a(n) = c(n): even parts over distinct partitions vs the signed "
        "single-repeated-part count", "equality", _EMPTY, ("enum",), 40,
        sides=lambda c, e: ((("a", None), ("c", None)),), n_lo=1),
    IdentitySpec(
        "I2", "c(n) = (-1)^n b(n) as signed integers", "signed-equality", _EMPTY, ("enum",), 40,
        sides=lambda c, e: ((("c", None), ("b", None)),), n_lo=1),
    IdentitySpec(
        "I3", "2 divides a(n) - b_prime(n)", "divisibility", _EMPTY, ("enum",), 40,
        sides=lambda c, e: ((("a", None), ("b_prime", None)),), n_lo=1, modulus=2),
    IdentitySpec(
        "I4", "a_r(n;p,r) = g_r(n;p,r) for the signed repeated-part count", "equality",
        _grid(*({"p": p, "r": r} for p in (2, 3, 4, 5) for r in range(p - 1))), ("enum",), 30,
        sides=lambda c, e: ((("a_r", c), ("g_r", c)),), n_lo=1),
    IdentitySpec(
        "I5", "p divides a_np(n;p) - o_p(n;p)", "divisibility",
        _grid(*({"p": p} for p in (2, 3, 5))), ("series", "enum"), 30,
        sides=lambda c, e: ((("a_np", c), ("o_p", c)),)),
    IdentitySpec(
        "I6", "a_np(p*m + offset; p) is divisible by p along the stated "
        "arithmetic progressions", "congruence",
        _grid({"p": 5, "offset": 4}, {"p": 7, "offset": 5}, {"p": 11, "offset": 6}),
        ("series", "enum"), 30,
        sides=lambda c, e: ((("a_np", {"p": c["p"]}),),)),
    IdentitySpec(
        "I7", "o_p_odd = h(i=p) and o_p_even = h(i=0)", "equality",
        _grid(*({"p": p} for p in (2, 3, 4))), ("enum",), 30,
        sides=lambda c, e: ((("o_p_odd", c), ("h", {"p": c["p"], "i": c["p"]})),
                            (("o_p_even", c), ("h", {"p": c["p"], "i": 0})))),
    IdentitySpec(
        "I8", "d_e = f0 and d_o = f2", "equality", _EMPTY, ("enum", "series"), 40,
        sides=lambda c, e: ((("d_e", None), ("f0", None)), (("d_o", None), ("f2", None))), n_lo=1),
    IdentitySpec(
        "I9", "pentagonal recurrence with the gamma correction reproduces d_e",
        "equality", _EMPTY, ("enum",), 60,
        sides=lambda c, e: (((_d_e_recurrence, None), ("d_e", None)),), n_lo=1),
    IdentitySpec(
        "I10", "triangular parity sum of d_o matches the divisor-count parity",
        "equality", _EMPTY, ("enum", "series"), 60,
        sides=lambda c, e: (((_d_o_triangular_parity, None), (_divisor_parity, None)),), n_lo=1),
    IdentitySpec(
        "I11", "f_pkr = d_pkr", "equality",
        _grid(*({"p": p, "k": k, "r": r} for p in (2, 3) for k in (2, 3, 4) for r in range(p))),
        ("enum", "series"), 30,
        sides=lambda c, e: ((("f_pkr", c), ("d_pkr", c)),), n_lo=1),
    IdentitySpec(
        "I12", "o_p(.;k) = d_k and, at k=4, d_k = d_e", "equality",
        _grid(*({"k": k} for k in (2, 3, 4, 5))), ("enum",), 40,
        sides=lambda c, e: ((("o_p", {"p": c["k"]}), ("d_k", c),
                             *((("d_e", None),) if c["k"] == 4 else ())),)),
    IdentitySpec(
        "I13", "d_k with k = p*k' equals d_pkr with r = 0", "equality",
        _grid({"p": 2, "k": 2}, {"p": 2, "k": 3}, {"p": 3, "k": 2}, {"p": 3, "k": 4}),
        ("enum",), 30,
        sides=lambda c, e: ((("d_k", {"k": c["p"] * c["k"]}), ("d_pkr", {**c, "r": 0})),)),
    IdentitySpec(
        "I14", "signed heavy-part generating function: parity-split build equals "
        "the folded alternating form; unsigned pieces match enumeration",
        "equality",
        _grid(*({"p": p, "k": k, "alpha": a} for p in (2, 3) for k in range(2, p + 1) for a in (k, k + 1))),
        ("series", "enum"), 30,
        sides=_heavy_part_sides),
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
        sides=lambda c, e: ((("glaisher_left", c), ("glaisher_right", c)),)),
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


def _check_count(name: str, value: int) -> None:
    """A count argument (n_max, jobs) must be an int >= 1; a bool is not one."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise DomainError(f"{name} must be >= 1, got {value}")


def _match_cell(spec: IdentitySpec, params: Mapping[str, int] | None,
                n_max: int | None) -> list[Params]:
    """The grid cells matching ``params``, less the congruence cells whose
    first checked n, the offset, is past ``n_max``; an error if none is
    left.  The default n_max (None) reaches every offset."""
    cells = spec.cells()
    matched = [cell for cell in cells if all(cell.get(k) == v for k, v in (params or {}).items())]
    if not matched:
        raise DomainError(
            f"{spec.id} has no grid cell matching {dict(params)!r}; "
            f"valid cells: {[format_params(c) or '-' for c in cells]}"
        )
    reached = [cell for cell in matched
               if spec.kind != "congruence" or n_max is None or cell["offset"] <= n_max]
    if not reached:
        raise DomainError(f"{spec.id} {format_params(matched[0])} checks no n up to n_max={n_max}: "
                          f"its first checked index is {matched[0]['offset']}")
    return reached


def _engines(spec: IdentitySpec, engine: str | None) -> tuple[str, ...]:
    """The engines a run uses: the default for None, every allowed engine
    for "both", else ``engine`` if the identity allows it."""
    chosen = engine or spec.default_engine
    if chosen == "both":
        return spec.engines
    if chosen not in spec.engines:
        raise DomainError(f"{spec.id} supports engines {spec.engines}, got {chosen!r}")
    return (chosen,)


def verify(identity_id: str, params: Mapping[str, int] | None = None,
           n_max: int | None = None, engine: str | None = None) -> IdentityReport:
    """Check one identity cell and report the outcome.

    ``params`` must pin down exactly one grid cell for gridded identities.
    ``engine`` is one of the identity's allowed engines or "both".
    """
    spec = get_identity(identity_id)
    if n_max is not None:
        _check_count("n_max", n_max)
    matched = _match_cell(spec, params, n_max)
    if len(matched) > 1:
        raise DomainError(
            f"{identity_id} needs parameters to select one of its "
            f"{len(matched)} grid cells; use verify_cells for sweeps"
        )
    cell = matched[0]
    engines = _engines(spec, engine)
    start = time.perf_counter()
    counterexample = None
    used_n_max = 0
    for eng in engines:
        resolved = n_max or (qseries.DEFAULT_ORDER if eng == "series" else spec.enum_n_max)
        if eng == "enum":
            # Every enum run reads a family to n_max; check the cap before a
            # derived sequence (I9's recurrence) does work for nothing.
            enumeration._check_request(resolved)
        used_n_max = max(used_n_max, resolved)
        counterexample = _run_relation(spec, cell, resolved, eng)
        if counterexample is not None:
            break
    ms = int(round((time.perf_counter() - start) * 1000))
    return IdentityReport(
        id=identity_id,
        params=tuple(sorted(cell.items())),
        n_max=used_n_max,
        engine=engine or spec.default_engine,
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

    Either orientation of the adjudicated pair pulls in the other, so the
    exactly-one-holds rule can be applied; a repeated id runs once.  Output
    is in (identity, parameters) order.  A sweep of every identity (``ids``
    None) skips the identities that cannot run the engine or have no
    matching cell that n_max reaches, and fails only when none is left.
    ``jobs`` (>= 1) caps the worker processes, which are also capped by the
    CPU count and the number of cells.
    """
    _check_count("jobs", jobs)
    if n_max is not None:
        _check_count("n_max", n_max)
    wanted = set(_REGISTRY) if ids is None else {get_identity(i).id for i in ids}
    if not wanted.isdisjoint(I15_PAIR):
        wanted.update(I15_PAIR)
    tasks = []
    for spec in _REGISTRY.values():
        if spec.id not in wanted:
            continue
        try:
            cells = _match_cell(spec, params, n_max)
            _engines(spec, engine)
        except DomainError:
            if ids is not None:
                raise
            continue
        tasks += [(spec.id, cell, n_max, engine)
                  for cell in sorted(tuple(sorted(c.items())) for c in cells)]
    if not tasks and ids is None:
        runs = f" that runs engine {engine!r}" if engine not in (None, "both") else ""
        reach = f" with a checked index up to n_max={n_max}" if n_max is not None else ""
        raise DomainError(f"no identity{runs} has a grid cell matching {dict(params or {})!r}{reach}")
    workers = min(jobs, os.cpu_count() or 1, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_verify_job, tasks))
    return [_verify_job(task) for task in tasks]


def _orientations(reports: Iterable[IdentityReport]) -> dict[int, dict[str, bool]]:
    """Whether each reported orientation of the adjudicated pair holds, by p."""
    paired: dict[int, dict[str, bool]] = {}
    for r in reports:
        if r.id in I15_PAIR:
            paired.setdefault(dict(r.params)["p"], {})[r.id] = r.holds
    return dict(sorted(paired.items()))


def failures(reports: Iterable[IdentityReport]) -> list[str]:
    """One line per failure: each failing report outside the adjudicated
    pair, with its first counterexample, then each p at which not exactly
    one orientation of the pair holds (so a lone orientation must hold)."""
    reports = list(reports)
    lines = [f"{r.id} {dict(r.params)} fails at n={r.counterexample.n}: "
             f"lhs={r.counterexample.lhs} rhs={r.counterexample.rhs}"
             for r in reports if not r.holds and r.id not in I15_PAIR]
    return lines + [f"expected exactly one orientation to hold for p={p}"
                    for p, holds in _orientations(reports).items() if sum(holds.values()) != 1]


_VERDICTS = {(True, True): "both", (True, False): "printed",
             (False, True): "swapped", (False, False): "neither"}


def orientation_verdicts(reports: Iterable[IdentityReport]) -> dict[int, str]:
    """Which orientation of the proposition about the heavy-part parity
    pieces holds, per p with reports for both: 'printed', 'swapped', 'both'
    or 'neither'.  Sorted by p."""
    return {p: _VERDICTS[holds["I15"], holds["I15-swapped"]]
            for p, holds in _orientations(reports).items() if len(holds) == 2}


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def report_to_dict(report: IdentityReport) -> dict:
    ce = report.counterexample
    return {**report._asdict(), "params": dict(report.params),
            "counterexample": None if ce is None else ce._asdict()}


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
