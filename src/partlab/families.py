"""Named counting families, each evaluable by exhaustive enumeration and,
where a closed form exists, by coefficient extraction from a series.

Family identifiers are stable strings used by the CLI and reports.  A "class"
family counts partitions satisfying a structural predicate, a "stat" family
totals a statistic over a constrained enumeration, and a "signed"/derived
family is an integer combination of other families.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

from . import enumeration, numtheory, qseries
from .enumeration import ALL, DISTINCT, EnumKind, multiplicity_at_most
from .errors import DomainError, UnknownFamilyError, UnsupportedFamilyError
from .partition import Pair, Partition

Params = Mapping[str, int]
PairSeq = tuple[Pair, ...]
Predicate = Callable[[PairSeq], bool]
Statistic = Callable[[PairSeq], int]


# ---------------------------------------------------------------------------
# Predicates and statistics over canonical pair tuples
# ---------------------------------------------------------------------------


def _pred_true() -> Predicate:
    return lambda pairs: True


def _pred_exactly_one_repeated_parity(parity: int) -> Predicate:
    # Exactly one part value has multiplicity >= 2, all others appear once;
    # the repeated value has the requested parity (1 odd, 0 even).
    def pred(pairs: PairSeq) -> bool:
        repeated = 0
        for part, mult in pairs:
            if mult >= 2:
                if repeated:
                    return False
                repeated = part
        return repeated != 0 and repeated % 2 == parity

    return pred


def _pred_singleton_even_set_parity(parity: int | None) -> Predicate:
    # The set of even part values is a singleton; parity (if given) applies
    # to the number of parts counted with multiplicity.
    def pred(pairs: PairSeq) -> bool:
        evens = 0
        total = 0
        for part, mult in pairs:
            total += mult
            if part % 2 == 0:
                evens += 1
                if evens > 1:
                    return False
        if evens != 1:
            return False
        return parity is None or total % 2 == parity

    return pred


def _pred_g_r(p: int, r: int, parity: int) -> Predicate:
    # Exactly one repeated part (others distinct); its multiplicity m is
    # >= p - r with m mod p in {-r, -r+1}; the repeated value has the given
    # parity.
    min_mult = p - r
    res_a = (-r) % p
    res_b = (1 - r) % p

    def pred(pairs: PairSeq) -> bool:
        rep_part = 0
        rep_mult = 0
        for part, mult in pairs:
            if mult >= 2:
                if rep_part:
                    return False
                rep_part, rep_mult = part, mult
        if not rep_part or rep_part % 2 != parity:
            return False
        if rep_mult < min_mult:
            return False
        rm = rep_mult % p
        return rm == res_a or rm == res_b

    return pred


def _pred_o_p(p: int, mult_parity: int | None = None) -> Predicate:
    # The set of part values divisible by p is a singleton; mult_parity (if
    # given) applies to the number of divisible parts counted with
    # multiplicity.
    def pred(pairs: PairSeq) -> bool:
        hits = 0
        hit_mult = 0
        for part, mult in pairs:
            if part % p == 0:
                hits += 1
                if hits > 1:
                    return False
                hit_mult = mult
        if hits != 1:
            return False
        return mult_parity is None or hit_mult % 2 == mult_parity

    return pred


def _pred_h(p: int, i: int) -> Predicate:
    # Parts are either not divisible by p, or lie in the residue class
    # i mod 2p; the set of parts in that class is a singleton.
    two_p = 2 * p

    def pred(pairs: PairSeq) -> bool:
        hits = 0
        for part, mult in pairs:
            if part % p == 0:
                if part % two_p != i:
                    return False
                hits += 1
                if hits > 1:
                    return False
        return hits == 1

    return pred


def _pred_one_heavy_in_residue(p: int, k: int, r: int) -> Predicate:
    # Exactly one part value in residue class r mod p has multiplicity >= k;
    # the other values in that class stay below k; everything else is free.
    def pred(pairs: PairSeq) -> bool:
        heavy = 0
        for part, mult in pairs:
            if part % p == r and mult >= k:
                heavy += 1
                if heavy > 1:
                    return False
        return heavy == 1

    return pred


def _pred_singleton_residue(modulus: int, residue: int) -> Predicate:
    # The set of part values in the residue class is a singleton.
    def pred(pairs: PairSeq) -> bool:
        hits = 0
        for part, _ in pairs:
            if part % modulus == residue:
                hits += 1
                if hits > 1:
                    return False
        return hits == 1

    return pred


def _pred_d_k(k: int) -> Predicate:
    # Exactly one part value appears at least k times, all others fewer.
    def pred(pairs: PairSeq) -> bool:
        heavy = 0
        for _, mult in pairs:
            if mult >= k:
                heavy += 1
                if heavy > 1:
                    return False
        return heavy == 1

    return pred


def _pred_g_alpha(alpha: int, k: int, p: int, parity: int) -> Predicate:
    # Exactly one part value appears >= alpha times and its multiplicity m
    # satisfies (m - alpha) mod p < k; all other values appear at most k-1
    # times; the heavy value has the given parity.
    def pred(pairs: PairSeq) -> bool:
        heavy_part = 0
        heavy_mult = 0
        for part, mult in pairs:
            if mult >= alpha:
                if heavy_part:
                    return False
                heavy_part, heavy_mult = part, mult
            elif mult >= k:
                return False
        if not heavy_part or heavy_part % 2 != parity:
            return False
        return (heavy_mult - alpha) % p < k

    return pred


def _pred_no_part_divisible(t: int) -> Predicate:
    def pred(pairs: PairSeq) -> bool:
        for part, _ in pairs:
            if part % t == 0:
                return False
        return True

    return pred


def _stat_parts_in_residue(p: int, r: int) -> Statistic:
    target = (-r) % p

    def stat(pairs: PairSeq) -> int:
        return sum(mult for part, mult in pairs if part % p == target)

    return stat


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FamilySpec:
    id: str
    kind: str  # "class" | "stat" | "derived"
    param_names: tuple[str, ...]
    description: str
    validate: Callable[[dict], None] | None = None
    enum_kind: Callable[[dict], EnumKind] | None = None
    make_pred: Callable[..., Predicate] | None = None
    make_stat: Callable[..., Statistic] | None = None
    combine: tuple[tuple[int, str], ...] = field(default_factory=tuple)

    @property
    def has_series(self) -> bool:
        return qseries.has_closed_form(self.id)


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


_register(FamilySpec(
    "s", "class", (),
    "number of unrestricted partitions",
    make_pred=_pred_true,
))
_register(FamilySpec(
    "a", "stat", (),
    "total number of even parts over partitions into distinct parts",
    enum_kind=lambda p: DISTINCT,
    make_stat=lambda: _stat_parts_in_residue(2, 0),
))
_register(FamilySpec(
    "a_r", "stat", ("p", "r"),
    "total number of parts in residue class -r mod p over distinct partitions",
    validate=_validate_a_r,
    enum_kind=lambda p: DISTINCT,
    make_stat=_stat_parts_in_residue,
))
_register(FamilySpec(
    "a_np", "stat", ("p",),
    "total number of parts divisible by p over partitions with every "
    "multiplicity at most p-1",
    validate=_validate_p2,
    enum_kind=lambda p: multiplicity_at_most(p["p"] - 1),
    make_stat=lambda p: _stat_parts_in_residue(p, 0),
))
_register(FamilySpec(
    "c_o", "class", (),
    "exactly one part repeated, that part odd, all other parts distinct",
    make_pred=lambda: _pred_exactly_one_repeated_parity(1),
))
_register(FamilySpec(
    "c_e", "class", (),
    "exactly one part repeated, that part even, all other parts distinct",
    make_pred=lambda: _pred_exactly_one_repeated_parity(0),
))
_register(FamilySpec(
    "c", "derived", (),
    "signed count: one odd repeated part minus one even repeated part",
    combine=((1, "c_o"), (-1, "c_e")),
))
_register(FamilySpec(
    "b_o", "class", (),
    "odd number of parts, the set of even part values is a singleton",
    make_pred=lambda: _pred_singleton_even_set_parity(1),
))
_register(FamilySpec(
    "b_e", "class", (),
    "even number of parts, the set of even part values is a singleton",
    make_pred=lambda: _pred_singleton_even_set_parity(0),
))
_register(FamilySpec(
    "b", "derived", (),
    "signed count: odd-length minus even-length singleton-even-set partitions",
    combine=((1, "b_o"), (-1, "b_e")),
))
_register(FamilySpec(
    "b_prime", "derived", (),
    "partitions whose set of even part values is a singleton",
    combine=((1, "b_o"), (1, "b_e")),
))
_register(FamilySpec(
    "g_r_odd", "class", ("p", "r"),
    "exactly one repeated part, odd, with multiplicity >= p-r and congruent "
    "to -r or -r+1 mod p; other parts distinct",
    validate=_validate_a_r,
    make_pred=lambda p, r: _pred_g_r(p, r, 1),
))
_register(FamilySpec(
    "g_r_even", "class", ("p", "r"),
    "exactly one repeated part, even, with multiplicity >= p-r and congruent "
    "to -r or -r+1 mod p; other parts distinct",
    validate=_validate_a_r,
    make_pred=lambda p, r: _pred_g_r(p, r, 0),
))
_register(FamilySpec(
    "g_r", "derived", ("p", "r"),
    "signed repeated-part count: odd piece minus even piece",
    validate=_validate_a_r,
    combine=((1, "g_r_odd"), (-1, "g_r_even")),
))
_register(FamilySpec(
    "o_p", "class", ("p",),
    "the set of part values divisible by p is a singleton",
    validate=_validate_p2,
    make_pred=lambda p: _pred_o_p(p),
))
_register(FamilySpec(
    "o_p_odd", "class", ("p",),
    "singleton divisible-value set with an odd number of divisible parts",
    validate=_validate_p2,
    make_pred=lambda p: _pred_o_p(p, 1),
))
_register(FamilySpec(
    "o_p_even", "class", ("p",),
    "singleton divisible-value set with an even number of divisible parts",
    validate=_validate_p2,
    make_pred=lambda p: _pred_o_p(p, 0),
))
_register(FamilySpec(
    "h", "class", ("p", "i"),
    "parts not divisible by p are free, parts in class i mod 2p form a "
    "singleton set, all other multiples of p are forbidden",
    validate=_validate_h,
    make_pred=_pred_h,
))
_register(FamilySpec(
    "d_e", "class", (),
    "exactly one even part repeated, other even parts distinct, odd parts free",
    make_pred=lambda: _pred_one_heavy_in_residue(2, 2, 0),
))
_register(FamilySpec(
    "d_o", "class", (),
    "exactly one odd part repeated, other odd parts distinct, even parts free",
    make_pred=lambda: _pred_one_heavy_in_residue(2, 2, 1),
))
_register(FamilySpec(
    "f0", "class", (),
    "the set of part values divisible by 4 is a singleton",
    make_pred=lambda: _pred_singleton_residue(4, 0),
))
_register(FamilySpec(
    "f2", "class", (),
    "the set of part values congruent to 2 mod 4 is a singleton",
    make_pred=lambda: _pred_singleton_residue(4, 2),
))
_register(FamilySpec(
    "d_pkr", "class", ("p", "k", "r"),
    "exactly one part in class r mod p appears at least k times, other parts "
    "in that class fewer, parts outside the class free",
    validate=_validate_pkr,
    make_pred=_pred_one_heavy_in_residue,
))
_register(FamilySpec(
    "f_pkr", "class", ("p", "k", "r"),
    "the set of part values in class k*r mod p*k is a singleton",
    validate=_validate_pkr,
    make_pred=lambda p, k, r: _pred_singleton_residue(p * k, (k * r) % (p * k)),
))
_register(FamilySpec(
    "d_k", "class", ("k",),
    "exactly one part value appears at least k times, all others fewer",
    validate=_validate_k2,
    make_pred=_pred_d_k,
))
_register(FamilySpec(
    "g_alpha_odd", "class", ("alpha", "k", "p"),
    "one odd part value appears >= alpha times with multiplicity residue "
    "(m - alpha) mod p below k; all other values appear at most k-1 times",
    validate=_validate_g_alpha,
    make_pred=lambda alpha, k, p: _pred_g_alpha(alpha, k, p, 1),
))
_register(FamilySpec(
    "g_alpha_even", "class", ("alpha", "k", "p"),
    "one even part value appears >= alpha times with multiplicity residue "
    "(m - alpha) mod p below k; all other values appear at most k-1 times",
    validate=_validate_g_alpha,
    make_pred=lambda alpha, k, p: _pred_g_alpha(alpha, k, p, 0),
))
_register(FamilySpec(
    "g_alpha", "derived", ("alpha", "k", "p"),
    "signed heavy-part count: odd piece minus even piece",
    validate=_validate_g_alpha,
    combine=((1, "g_alpha_odd"), (-1, "g_alpha_even")),
))
_register(FamilySpec(
    "glaisher_left", "class", ("t",),
    "partitions with every multiplicity at most t-1",
    validate=_validate_t,
    enum_kind=lambda p: multiplicity_at_most(p["t"] - 1),
    make_pred=lambda t: _pred_true(),
))
_register(FamilySpec(
    "glaisher_right", "class", ("t",),
    "partitions with no part divisible by t",
    validate=_validate_t,
    make_pred=_pred_no_part_divisible,
))


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

_enum_memo: dict[tuple[str, tuple[tuple[str, int], ...], int], int] = {}
_series_cache: dict[tuple[str, tuple[tuple[str, int], ...]], qseries.Series] = {}


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


def _spec_args(spec: FamilySpec, params: dict[str, int]) -> list[int]:
    return [params[name] for name in spec.param_names]


def count_enum(family: str, n: int, params: Params | None = None, cap: int | None = None) -> int:
    """Exact value of the family at n by exhaustive enumeration."""
    spec = get_spec(family)
    norm = normalize_params(family, params)
    # The cap applies to the request even when the value is already memoized.
    enumeration._check_request(n, cap)
    key = (family, _params_key(norm), n)
    got = _enum_memo.get(key)
    if got is not None:
        return got
    if spec.kind == "derived":
        value = sum(coef * count_enum(sub, n, norm if get_spec(sub).param_names else None, cap)
                    for coef, sub in spec.combine)
    else:
        kind = spec.enum_kind(norm) if spec.enum_kind is not None else ALL
        # A class predicate's True counts as 1; a statistic adds its value.
        fold = (spec.make_pred if spec.kind == "class" else spec.make_stat)(*_spec_args(spec, norm))
        value = sum(map(fold, enumeration.pair_sequences(n, kind, cap)))
    _enum_memo[key] = value
    return value


def series_for(family: str, params: Params | None = None, order: int | None = None) -> qseries.Series:
    """Cached closed-form series for the family, built at the requested order
    (at least the default order)."""
    spec = get_spec(family)
    norm = normalize_params(family, params)
    if not spec.has_series:
        raise UnsupportedFamilyError(f"family {family!r} has no closed-form generating function")
    want = max(order if order is not None else 0, qseries.DEFAULT_ORDER)
    key = (family, _params_key(norm))
    cached = _series_cache.get(key)
    if cached is None or cached.order < want:
        cached = qseries.gf_family(family, norm, want)
        _series_cache[key] = cached
    return cached


def count_series(family: str, n: int, params: Params | None = None, order: int | None = None) -> int:
    """Value of the family at n read off its closed-form series, built to
    ``order`` when given (which must be at least n)."""
    if n < 0:
        raise DomainError(f"index must be nonnegative, got {n}")
    if order is not None and order < n:
        raise DomainError(f"series order {order} is below the requested index {n}")
    return series_for(family, params, n if order is None else order).coeffs[n]


def membership(family: str, params: Params | None = None) -> Callable[[Partition], bool]:
    """Class-membership predicate over Partition values."""
    spec = get_spec(family)
    norm = normalize_params(family, params)
    if spec.kind != "class":
        raise DomainError(f"family {family!r} is not a partition class")
    pred = spec.make_pred(*_spec_args(spec, norm))
    bound = spec.enum_kind(norm).bound if spec.enum_kind is not None else None
    if bound is None:
        return lambda partition: pred(partition.pairs)

    def member(partition: Partition) -> bool:
        for _, mult in partition.pairs:
            if mult > bound:
                return False
        return pred(partition.pairs)

    return member


def enumerate_class(family: str, n: int, params: Params | None = None,
                    cap: int | None = None) -> tuple[Partition, ...]:
    """All weight-n members of a class family, in enumeration order."""
    spec = get_spec(family)
    norm = normalize_params(family, params)
    if spec.kind != "class":
        raise DomainError(f"family {family!r} is not a partition class")
    kind = spec.enum_kind(norm) if spec.enum_kind is not None else ALL
    pred = spec.make_pred(*_spec_args(spec, norm))
    raw = Partition._raw
    return tuple(raw(pairs, n) for pairs in enumeration.pair_sequences(n, kind, cap) if pred(pairs))


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


def d_o_parity_lhs(n: int, engine: str = "enum", cap: int | None = None,
                   order: int | None = None) -> int:
    """Triangular-shifted sum of the odd-repeated-part count, reduced mod 2:

        sum over j >= 0 with j(j+1)/2 <= n of d_o(n - j(j+1)/2)  (mod 2)
    """
    if n < 1:
        raise DomainError(f"parity sum is defined for n >= 1, got {n}")
    if engine not in ("enum", "series"):
        raise DomainError(f"engine must be 'enum' or 'series', got {engine!r}")
    total = 0
    j = 0
    while j * (j + 1) // 2 <= n:
        m = n - j * (j + 1) // 2
        if m > 0:
            if engine == "enum":
                total += count_enum("d_o", m, cap=cap)
            else:
                total += count_series("d_o", m, order=order)
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
    # The signed heavy-part series counts weighted representations when
    # k > p (multiplicity residues overlap), so the grid stays at k <= p.
    for p in (2, 3, 4, 5):
        for k in (2, 3, 4):
            if k > p:
                continue
            for alpha in (k, k + 1, k + 2):
                cells.append(("g_alpha", {"alpha": alpha, "k": k, "p": p}))
                cells.append(("g_alpha_odd", {"alpha": alpha, "k": k, "p": p}))
                cells.append(("g_alpha_even", {"alpha": alpha, "k": k, "p": p}))
    return tuple(cells)
