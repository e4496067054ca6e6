"""Named counting families, each evaluable by exhaustive enumeration and,
where a closed form exists, by coefficient extraction from a series.

Family identifiers are stable strings used by the CLI and reports.  Every
family is one fold.  A "class" family counts partitions satisfying a
structural predicate, a "stat" family totals a statistic over a constrained
enumeration, and a signed count (c, b, g_r, g_alpha) is a stat valued +-1.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Mapping, NamedTuple

from . import enumeration, numtheory, qseries
from .enumeration import ALL, DISTINCT, EnumKind, Fold, multiplicity_at_most
from .errors import DomainError, UnknownFamilyError
from .partition import Pair, Partition

Params = Mapping[str, int]
PairSeq = tuple[Pair, ...]

# Every family, identity and bijection parameter name, in report order; the
# CLI takes one flag per name.
PARAM_NAMES = ("t", "p", "k", "r", "i", "alpha", "offset")


# ---------------------------------------------------------------------------
# One fold per family over (part, mult) pairs in decreasing part order
# ---------------------------------------------------------------------------
#
# A fold is (init, step, value), see enumeration.Fold.  A class fold's value
# is 1 or 0, and its step returns None for a pair that rules the partition
# out; most class states are the heavy part value's weight, 0 until it is
# seen.  A statistic's state is its running total, and it never dies.  The
# parity-split folds take (odd, even) weights: (1, 0) or (0, 1) for a piece,
# (1, -1) for a signed count, (1, 1) for all of o_p; a zero weight rules out.


def _identity(state: int) -> int:
    return state


def _fold_all() -> Fold:
    return 1, lambda state, part, mult: 1, _identity


def _fold_singleton_even_set(odd: int, even: int) -> Fold:
    # The set of even part values is a singleton, weighed by the parity of
    # the number of parts counted with multiplicity.  State: 2 per even
    # value seen plus the parity of the part count so far.
    def step(state: int, part: int, mult: int) -> int | None:
        if part % 2 == 0:
            if state >= 2:
                return None
            state += 2
        return state ^ (mult & 1)

    return 0, step, lambda state: (0, 0, even, odd)[state]


def _fold_one_heavy_in_residue(p: int, k: int, r: int,
                               weight: Callable[[int, int], int] = lambda part, mult: 1) -> Fold:
    # Exactly one part value in residue class r mod p has multiplicity >= k;
    # the other values in that class stay below k; everything else is free.
    # At k = 1 the class's set of part values is a singleton.  The state is
    # weight(part, mult) of the heavy value, and a zero weight rules out.
    def step(seen: int, part: int, mult: int) -> int | None:
        if mult < k or part % p != r:
            return seen
        return None if seen else weight(part, mult) or None

    return 0, step, _identity


def _fold_g_alpha(alpha: int, k: int, p: int, odd: int, even: int) -> Fold:
    # Exactly one part value appears >= alpha times and its multiplicity m
    # satisfies (m - alpha) mod p < k; all other values appear at most k-1
    # times; the weight is that of the heavy value's parity.  A multiplicity
    # in [k, alpha) dies although a larger one may qualify.  The
    # repeated-part counts are the k = 2 cases: c at alpha = 2, p = 1, and g_r
    # at alpha = p - r, where (m - alpha) mod p < 2 puts m in {-r, -r+1} mod p.
    return _fold_one_heavy_in_residue(1, k, 0, lambda part, mult: (
        (odd if part % 2 else even) if mult >= alpha and (mult - alpha) % p < k else 0))


def _fold_no_part_divisible(t: int) -> Fold:
    return 1, lambda state, part, mult: None if part % t == 0 else 1, _identity


def _fold_parts_in_residue(p: int, r: int) -> Fold:
    # Statistic: the number of parts, with multiplicity, in class -r mod p.
    target = (-r) % p

    def step(total: int, part: int, mult: int) -> int:
        return total + mult if part % p == target else total

    return 0, step, _identity


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


class FamilySpec(NamedTuple):
    id: str
    kind: str  # "class" (value 0/1) | "stat" (any int; a signed count is +-1)
    param_names: tuple[str, ...]
    description: str
    make_fold: Callable[..., Fold]
    validate: Callable[[dict], None] | None = None
    enum_kind: Callable[[dict], EnumKind] | None = None


def _check(cond: bool, msg: str) -> None:
    if not cond:
        raise DomainError(msg)


def _validate_a_r(p: dict) -> None:
    _check(p["r"] >= 0, f"r must be nonnegative, got {p['r']}")
    _check(p["p"] >= p["r"] + 2, f"need p >= r + 2, got p={p['p']}, r={p['r']}")


def _validate_p2(p: dict) -> None:
    _check(p["p"] >= 2, f"need p >= 2, got {p['p']}")


def _validate_h(p: dict) -> None:
    _validate_p2(p)
    _check(p["i"] in (0, p["p"]), f"i must be 0 or p={p['p']}, got {p['i']}")


def _validate_pkr(p: dict) -> None:
    _check(p["p"] >= 2, f"need p >= 2, got {p['p']}")
    _check(p["k"] >= 2, f"need k >= 2, got {p['k']}")
    _check(0 <= p["r"] < p["p"], f"need 0 <= r < p, got r={p['r']}, p={p['p']}")


def _validate_k2(p: dict) -> None:
    _check(p["k"] >= 2, f"need k >= 2, got {p['k']}")


def _validate_g_alpha(p: dict) -> None:
    _check(p["k"] >= 1, f"need k >= 1, got {p['k']}")
    _check(p["p"] >= 1, f"need p >= 1, got {p['p']}")
    _check(p["alpha"] >= p["k"], f"need alpha >= k, got alpha={p['alpha']}, k={p['k']}")


def _validate_t(p: dict) -> None:
    _check(p["t"] >= 2, f"need t >= 2, got {p['t']}")


_REGISTRY: dict[str, FamilySpec] = {}


def _register(spec: FamilySpec) -> None:
    _REGISTRY[spec.id] = spec


def _register_line(members: tuple[tuple[str, tuple[int, int], str], ...],
                   param_names: tuple[str, ...], validate: Callable[[dict], None] | None,
                   fold: Callable[..., Fold]) -> None:
    """Register a parity line of (id, (odd, even) weights, description)
    members, each folding by ``fold(**params, odd=odd, even=even)``.  A
    negative weight makes a member a signed count, kind "stat", else "class"."""
    for family, (odd, even), description in members:
        _register(FamilySpec(
            family, "stat" if min(odd, even) < 0 else "class", param_names, description,
            make_fold=partial(fold, odd=odd, even=even), validate=validate))


def _register_heavy(rows: tuple[tuple[str, tuple[str, ...], Callable[[dict], None] | None,
                                      Callable[..., tuple], str], ...]) -> None:
    """Register heavy-value classes from (id, param names, validate, mkr,
    description) rows: ``mkr(**cell)`` gives the (m, k, r[, weight]) of
    ``_fold_one_heavy_in_residue``, exactly one part value in class r mod m
    with multiplicity >= k and a nonzero weight (1 when omitted)."""
    for family, param_names, validate, mkr, description in rows:
        _register(FamilySpec(
            family, "class", param_names, description,
            make_fold=partial(lambda mkr, **cell: _fold_one_heavy_in_residue(*mkr(**cell)), mkr),
            validate=validate))


_register(FamilySpec(
    "s", "class", (),
    "number of unrestricted partitions",
    make_fold=_fold_all,
))
_register(FamilySpec(
    "a", "stat", (),
    "total number of even parts over partitions into distinct parts",
    enum_kind=lambda p: DISTINCT,
    make_fold=lambda: _fold_parts_in_residue(2, 0),
))
_register(FamilySpec(
    "a_r", "stat", ("p", "r"),
    "total number of parts in residue class -r mod p over distinct partitions",
    validate=_validate_a_r,
    enum_kind=lambda p: DISTINCT,
    make_fold=_fold_parts_in_residue,
))
_register(FamilySpec(
    "a_np", "stat", ("p",),
    "total number of parts divisible by p over partitions with every "
    "multiplicity at most p-1",
    validate=_validate_p2,
    enum_kind=lambda p: multiplicity_at_most(p["p"] - 1),
    make_fold=lambda p: _fold_parts_in_residue(p, 0),
))
_register_line((
    ("c_o", (1, 0), "exactly one part repeated, that part odd, all other parts distinct"),
    ("c_e", (0, 1), "exactly one part repeated, that part even, all other parts distinct"),
    ("c", (1, -1), "signed count: one odd repeated part minus one even repeated part"),
), (), None, lambda odd, even: _fold_g_alpha(2, 2, 1, odd, even))
_register_line((
    ("b_o", (1, 0), "odd number of parts, the set of even part values is a singleton"),
    ("b_e", (0, 1), "even number of parts, the set of even part values is a singleton"),
    ("b", (1, -1), "signed count: odd-length minus even-length singleton-even-set partitions"),
), (), None, _fold_singleton_even_set)
_register_heavy((
    ("b_prime", (), None, lambda: (2, 1, 0),
     "partitions whose set of even part values is a singleton"),
))
_register_line((
    ("g_r_odd", (1, 0),
     "exactly one repeated part, odd, with multiplicity >= p-r and congruent "
     "to -r or -r+1 mod p; other parts distinct"),
    ("g_r_even", (0, 1),
     "exactly one repeated part, even, with multiplicity >= p-r and congruent "
     "to -r or -r+1 mod p; other parts distinct"),
    ("g_r", (1, -1), "signed repeated-part count: odd piece minus even piece"),
), ("p", "r"), _validate_a_r, lambda odd, even, p, r: _fold_g_alpha(p - r, 2, p, odd, even))
# The weights split o_p by the parity of the divisible value's multiplicity.
_register_line((
    ("o_p", (1, 1), "the set of part values divisible by p is a singleton"),
    ("o_p_odd", (1, 0), "singleton divisible-value set with an odd number of divisible parts"),
    ("o_p_even", (0, 1), "singleton divisible-value set with an even number of divisible parts"),
), ("p",), _validate_p2, lambda odd, even, p: _fold_one_heavy_in_residue(
    p, 1, 0, lambda part, mult: odd if mult % 2 else even))
_register_heavy((
    # An int weight, not a bool: fold states stay ints.
    ("h", ("p", "i"), _validate_h,
     lambda p, i: (p, 1, 0, lambda part, mult: int(part % (2 * p) == i)),
     "parts not divisible by p are free, parts in class i mod 2p form a "
     "singleton set, all other multiples of p are forbidden"),
    ("d_e", (), None, lambda: (2, 2, 0),
     "exactly one even part repeated, other even parts distinct, odd parts free"),
    ("d_o", (), None, lambda: (2, 2, 1),
     "exactly one odd part repeated, other odd parts distinct, even parts free"),
    ("f0", (), None, lambda: (4, 1, 0),
     "the set of part values divisible by 4 is a singleton"),
    ("f2", (), None, lambda: (4, 1, 2),
     "the set of part values congruent to 2 mod 4 is a singleton"),
    ("d_pkr", ("p", "k", "r"), _validate_pkr, lambda p, k, r: (p, k, r),
     "exactly one part in class r mod p appears at least k times, other parts "
     "in that class fewer, parts outside the class free"),
    ("f_pkr", ("p", "k", "r"), _validate_pkr, lambda p, k, r: (p * k, 1, (k * r) % (p * k)),
     "the set of part values in class k*r mod p*k is a singleton"),
    ("d_k", ("k",), _validate_k2, lambda k: (1, k, 0),
     "exactly one part value appears at least k times, all others fewer"),
))
_register_line((
    ("g_alpha_odd", (1, 0),
     "one odd part value appears >= alpha times with multiplicity residue "
     "(m - alpha) mod p below k; all other values appear at most k-1 times"),
    ("g_alpha_even", (0, 1),
     "one even part value appears >= alpha times with multiplicity residue "
     "(m - alpha) mod p below k; all other values appear at most k-1 times"),
    ("g_alpha", (1, -1), "signed heavy-part count: odd piece minus even piece"),
), ("alpha", "k", "p"), _validate_g_alpha, _fold_g_alpha)
_register(FamilySpec(
    "glaisher_left", "class", ("t",),
    "partitions with every multiplicity at most t-1",
    validate=_validate_t,
    enum_kind=lambda p: multiplicity_at_most(p["t"] - 1),
    make_fold=lambda t: _fold_all(),
))
_register(FamilySpec(
    "glaisher_right", "class", ("t",),
    "partitions with no part divisible by t",
    validate=_validate_t,
    make_fold=_fold_no_part_divisible,
))


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

_enum_memo: dict[tuple[str, tuple[tuple[str, int], ...]], tuple[int, ...]] = {}


def family_ids() -> tuple[str, ...]:
    return tuple(_REGISTRY)


def get_spec(family: str) -> FamilySpec:
    spec = _REGISTRY.get(family)
    if spec is None:
        raise UnknownFamilyError(f"unknown family {family!r}")
    return spec


def normalize_params(family: str, params: Params | None) -> dict[str, int]:
    """Validate and canonicalize the parameter mapping for a family."""
    spec = get_spec(family)
    given = dict(params or {})
    missing = [name for name in spec.param_names if name not in given]
    extra = [name for name in given if name not in spec.param_names]
    if missing:
        raise DomainError(f"family {family!r} needs parameter(s) {missing}")
    if extra:
        raise DomainError(f"family {family!r} does not take parameter(s) {extra}")
    for name, value in given.items():
        if not isinstance(value, int) or isinstance(value, bool):
            raise DomainError(f"parameter {name}={value!r} must be an integer")
    if spec.validate is not None:
        spec.validate(given)
    return given


def _params_key(params: dict[str, int]) -> tuple[tuple[str, int], ...]:
    return tuple(sorted(params.items()))


def _enum_kind(spec: FamilySpec, params: dict[str, int]) -> EnumKind:
    return spec.enum_kind(params) if spec.enum_kind is not None else ALL


def _enum_table(spec: FamilySpec, params: dict[str, int], n: int) -> tuple[int, ...]:
    """The family's values at 0..m for some m >= n, memoized per (family,
    params).  A first request counts 0..n in one call; a request past the
    memoized top counts to at least twice that top (within the enumeration
    cap), so an ascending sweep recounts a table only logarithmically often."""
    key = (spec.id, _params_key(params))
    table = _enum_memo.get(key)
    if table is not None and len(table) <= n:
        n = max(n, min(2 * (len(table) - 1), enumeration.resolve_cap()))
    if table is None or len(table) <= n:
        fold = spec.make_fold(**params)
        table = tuple(enumeration.pair_sequences(n, _enum_kind(spec, params), fold=fold))
        _enum_memo[key] = table
    return table


def count_enum(family: str, n: int, params: Params | None = None) -> int:
    """Exact value of the family at n by exhaustive enumeration."""
    spec = get_spec(family)
    norm = normalize_params(family, params)
    # The cap applies to the request even when the value is already memoized.
    enumeration._check_request(n)
    return _enum_table(spec, norm, n)[n]


def enum_values(family: str, n_max: int, params: Params | None = None) -> tuple[int, ...]:
    """Exact values of the family at n = 0..n_max, all read off the table
    that ``count_enum(family, n_max)`` checks the request for and fills."""
    count_enum(family, n_max, params)
    # count_enum accepted the params, so they are already in normal form.
    return _enum_table(get_spec(family), dict(params or {}), n_max)[:n_max + 1]


def series_for(family: str, params: Params | None = None, order: int | None = None) -> qseries.Series:
    """Closed-form series for the family, built at the requested order (the
    default order when None) on every call, after its params are checked:
    UnknownFamilyError for an unregistered family, DomainError for a cell
    outside its family's domain.  Exported as ``partlab.gf_family``."""
    norm = normalize_params(family, params)
    return qseries.gf_family(family, norm, qseries.DEFAULT_ORDER if order is None else order)


def values(family: str, n_max: int, params: Params | None, engine: str) -> tuple[int, ...]:
    """The family's values at n = 0..n_max by ``engine``: "enum" reads
    ``enum_values``, "series" the coefficients of ``series_for``."""
    if engine == "enum":
        return enum_values(family, n_max, params)
    return series_for(family, params, n_max).coeffs


def count_series(family: str, n: int, params: Params | None = None) -> int:
    """Value of the family at n read off its closed-form series."""
    return series_for(family, params, n).coeffs[n]


def _class_acceptor(family: str, params: Params | None) -> tuple[Callable[[PairSeq], bool], EnumKind]:
    """The class's fold run over one canonical pair tuple, and its kind."""
    spec = get_spec(family)
    norm = normalize_params(family, params)
    if spec.kind != "class":
        raise DomainError(f"family {family!r} is not a partition class")
    init, step, value = spec.make_fold(**norm)
    kind = _enum_kind(spec, norm)
    bound = kind.bound

    def accepts(pairs: PairSeq) -> bool:
        state = init
        for part, mult in pairs:
            if bound is not None and mult > bound:
                return False
            state = step(state, part, mult)
            if state is None:
                return False
        return value(state) == 1

    return accepts, kind


def membership(family: str, params: Params | None = None) -> Callable[[Partition], bool]:
    """Class-membership predicate over Partition values, built (and its
    params validated) afresh on every call."""
    accepts, _ = _class_acceptor(family, params)
    return lambda partition: accepts(partition.pairs)


def enumerate_class(family: str, n: int, params: Params | None = None) -> tuple[Partition, ...]:
    """All weight-n members of a class family, in enumeration order."""
    accepts, kind = _class_acceptor(family, params)
    raw = Partition._raw
    return tuple(raw(pairs, n) for pairs in enumeration.pair_sequences(n, kind) if accepts(pairs))


# ---------------------------------------------------------------------------
# Recurrence and parity operators
# ---------------------------------------------------------------------------

_recurrence_memo: dict[int, int] = {0: 0}


def recurrence_d_e(n: int) -> int:
    """Value of the even-repeated-part count via the pentagonal recurrence:

        sum over j >= 1 of (-1)^(j+1) (f(n - j(3j+1)/2) + f(n - j(3j-1)/2))

    iterated while j(3j-1)/2 <= n, plus gamma(n) when 4 divides n; values at
    nonpositive arguments are 0.
    """
    if n < 1:
        raise DomainError(f"recurrence is defined for n >= 1, got {n}")
    memo = _recurrence_memo
    terms = numtheory.pentagonal_terms(n)
    for m in range(len(memo), n + 1):
        total = 0
        for term in terms:
            if term.exponent_minus > m:
                break
            for e in (term.exponent_plus, term.exponent_minus):
                arg = m - e
                if arg > 0:
                    total -= term.sign * memo[arg]
        if m % 4 == 0:
            total += numtheory.gamma(m)
        memo[m] = total
    return memo[n]


def triangular_parity(values: Callable[[int], int], n: int) -> int:
    """Triangular-shifted sum of a sequence at n, reduced mod 2:

        sum over j >= 0 with j(j+1)/2 < n of values(n - j(j+1)/2)  (mod 2)
    """
    total = 0
    j = 0
    while j * (j + 1) // 2 < n:
        total += values(n - j * (j + 1) // 2)
        j += 1
    return total % 2


# ---------------------------------------------------------------------------
# Default closed-form grid (the oracle/series agreement sweep)
# ---------------------------------------------------------------------------


def closed_form_cells() -> tuple[tuple[str, dict[str, int]], ...]:
    """Every family with a closed form, over its default parameter grid."""
    cells: list[tuple[str, dict[str, int]]] = [
        ("s", {}), ("a", {}), ("c", {}),
        ("d_e", {}), ("d_o", {}), ("f0", {}), ("f2", {}),
    ]
    for p in (2, 3, 4, 5):
        for r in range(p - 1):
            cells.append(("a_r", {"p": p, "r": r}))
            cells.append(("g_r", {"p": p, "r": r}))
    for p in (2, 3, 4, 5):
        cells.append(("a_np", {"p": p}))
        cells.append(("o_p", {"p": p}))
    for p in (2, 3, 4):
        cells.append(("o_p_odd", {"p": p}))
        cells.append(("o_p_even", {"p": p}))
        cells.append(("h", {"p": p, "i": 0}))
        cells.append(("h", {"p": p, "i": p}))
    for p in (2, 3, 4, 5):
        for k in (2, 3, 4):
            for r in range(p):
                cells.append(("f_pkr", {"p": p, "k": k, "r": r}))
                cells.append(("d_pkr", {"p": p, "k": k, "r": r}))
    # The g_alpha series hold for k > p too, but the grid stays at k <= p:
    # bench/golden.json and the bench contract tests pin these 212 cells.
    for p in (2, 3, 4, 5):
        for k in (2, 3, 4):
            if k > p:
                continue
            for alpha in (k, k + 1, k + 2):
                cells.append(("g_alpha", {"alpha": alpha, "k": k, "p": p}))
                cells.append(("g_alpha_odd", {"alpha": alpha, "k": k, "p": p}))
                cells.append(("g_alpha_even", {"alpha": alpha, "k": k, "p": p}))
    return tuple(cells)
