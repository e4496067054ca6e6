"""Constructive weight-preserving bijections between partition classes.

Every map is written once, as a core: a function of its cell values and a
partition that returns the image as a ``{part: multiplicity}`` dict.  A
core computes on plain (part, multiplicity) pairs and dicts; all
splitting arithmetic lives in two helpers, ``_split`` and ``_unsplit``,
that add an image into a dict.  No core builds a ``Partition``: ``trace``
and the sweep build the one validating ``Partition(...)`` they need from
the dict, and that build is the structural check on the image.  Only
when its caller passes a ``steps`` list does a core wrap its
intermediates, sorted, as ``TraceStep`` values.  Cores check no class.
The public splitting maps ``glaisher`` and ``glaisher_inv`` are their
input checks plus one helper call; the glaisher entry of ``BIJECTIONS``
calls them, so they check each input untraced too.

``BIJECTIONS`` declares every map once, keyed by the name that
``partlab map`` and the exhaustive sweep use (glaisher, genr, dpk, var0).
An entry holds the parameter names of its cell, the (domain, codomain)
class pair of a cell and its two cores, as functions of (cell, partition,
steps).  ``trace`` is the only code that checks a map's classes and frames
a ``BijectionTrace``; ``partlab map`` and the public maps (``genr_f_to_d``,
``dpk_to_dp``, ...) call it.  ``exhaustive_cell_check`` sweeps one (map,
cell, weight) untraced: it enumerates only the domain class, checks the
codomain by its membership predicate and its count, and compares each
inverse image with its source's multiplicities.
"""

from __future__ import annotations

from typing import Callable, Iterable, NamedTuple

from . import families
from .errors import DomainError, InvalidPartitionError, PartlabError
from .partition import Pair, Partition, format_partition


class LemmaViolation(PartlabError, RuntimeError):
    """Internal divisibility guarantee failed; signals a defect, not bad input."""


class TraceStep(NamedTuple):
    label: str
    value: Partition


class BijectionTrace(NamedTuple):
    input: Partition
    output: Partition
    steps: tuple[TraceStep, ...]


Steps = list[TraceStep] | None
Image = dict[int, int]


def _canonical(pairs: Iterable[Pair]) -> Partition:
    """Wrap pairs with distinct parts and positive multiplicities, sorted."""
    canon = tuple(sorted(pairs, reverse=True))
    return Partition._raw(canon, sum(part * mult for part, mult in canon))


def _split(t: int, pairs: Iterable[Pair], out: dict[int, int]) -> dict[int, int]:
    """Add the splitting image of ``pairs`` into ``out`` and return it: a
    part t^a*b (t not dividing b) with multiplicity m adds t^a*m to b."""
    for part, mult in pairs:
        while part % t == 0:
            part //= t
            mult *= t
        out[part] = out.get(part, 0) + mult
    return out


def _unsplit(t: int, pairs: Iterable[Pair], out: dict[int, int]) -> dict[int, int]:
    """Add the inverse splitting image of ``pairs`` into ``out`` and return
    it: a part b with multiplicity m = sum of m_i t^i in base t adds m_i to
    t^i*b."""
    for part, mult in pairs:
        while mult:
            mult, digit = divmod(mult, t)
            if digit:
                out[part] = out.get(part, 0) + digit
            part *= t
    return out


def glaisher(t: int, partition: Partition) -> Partition:
    """Split every part divisible by t: a part t^a*b with multiplicity m
    contributes t^a*m to the multiplicity of b.  Requires every multiplicity
    <= t-1; the image has no part divisible by t."""
    if t < 2:
        raise DomainError(f"glaisher map needs t >= 2, got {t}")
    for part, mult in partition.pairs:
        if mult > t - 1:
            raise DomainError(f"part {part} has multiplicity {mult} > {t - 1}")
    image = _split(t, partition.pairs, {})
    return Partition._raw(tuple(sorted(image.items(), reverse=True)), partition.weight)


def glaisher_inv(t: int, partition: Partition) -> Partition:
    """Inverse splitting: a part b with multiplicity m = sum of m_i t^i in
    base t yields parts t^i*b with multiplicity m_i.  Requires no part
    divisible by t; the image has every multiplicity <= t-1."""
    if t < 2:
        raise DomainError(f"glaisher map needs t >= 2, got {t}")
    for part, _ in partition.pairs:
        if part % t == 0:
            raise DomainError(f"part {part} is divisible by {t}")
    image = _unsplit(t, partition.pairs, {})
    return Partition._raw(tuple(sorted(image.items(), reverse=True)), partition.weight)


# ---------------------------------------------------------------------------
# Cores: partition -> image on plain pairs; trace steps only on request
# ---------------------------------------------------------------------------


def _genr_f_to_d_core(k: int, partition: Partition, steps: Steps = None) -> Image:
    """Parts divisible by k become (part/k)^(k*mult); the remaining parts
    pass through the inverse splitting map jointly."""
    scaled: list[Pair] = []
    rest: list[Pair] = []
    for part, mult in partition.pairs:
        if part % k:
            rest.append((part, mult))
        else:
            scaled.append((part // k, k * mult))
    if steps is not None:
        if scaled:
            steps.append(TraceStep("divide parts divisible by "
                                   f"{k} and multiply their multiplicities by {k}", _canonical(scaled)))
        if rest:
            steps.append(TraceStep(f"apply inverse splitting (base {k}) to the rest",
                                   _canonical(_unsplit(k, rest, {}).items())))
    return _unsplit(k, rest, dict(scaled))


def _genr_d_to_f_core(k: int, partition: Partition, steps: Steps = None) -> Image:
    """A part x with multiplicity s becomes (k*x)^(s // k) together with the
    split image of x^(s mod k)."""
    scaled: list[Pair] = []
    rest: list[Pair] = []
    for part, mult in partition.pairs:
        q, rem = divmod(mult, k)
        if q:
            scaled.append((k * part, q))
        if rem:
            rest.append((part, rem))
    if steps is not None:
        if scaled:
            steps.append(TraceStep(f"multiply parts by {k}, dividing their multiplicities",
                                   _canonical(scaled)))
        if rest:
            steps.append(TraceStep(f"apply the splitting map (base {k}) to leftover multiplicities",
                                   _canonical(_split(k, rest, {}).items())))
    return _split(k, rest, dict(scaled))


def _dpk_to_dp_core(p: int, k: int, partition: Partition, steps: Steps = None) -> Image:
    """See ``dpk_to_dp``; requires exactly one part repeated at least p*k
    times (or the empty partition)."""
    if not partition.pairs:
        return {}
    pk = p * k
    j, m = next((part, mult) for part, mult in partition.pairs if mult >= pk)
    q, i = divmod(m, pk)
    converted = (p * j, k * q)
    rest = [(part, i if part == j else mult) for part, mult in partition.pairs if part != j or i]
    image = _split(pk, rest, {})
    keep: list[Pair] = []
    divisible: list[Pair] = []
    for part, mult in image.items():
        if part % p:
            keep.append((part, mult))
        elif part // p % k == 0:
            raise LemmaViolation(
                f"part {part} divided by {p} is divisible by {k}; "
                "input was outside the domain or the pipeline is broken"
            )
        else:
            divisible.append((part, mult))
    if steps is not None:
        beta = _unsplit(k, divisible, {})
        steps += [
            TraceStep(f"split {j}^{m} = {j}^{pk * q} + {j}^{i}", _canonical([(j, pk * q)])),
            TraceStep(f"convert {j}^{pk * q} into {p * j}^{k * q}", _canonical([converted])),
            TraceStep(f"apply the splitting map (base {pk}) to the rest", _canonical(image.items())),
            TraceStep(f"parts of the image not divisible by {p}", _canonical(keep)),
            TraceStep(f"divide the rest by {p}, apply inverse splitting "
                      f"(base {k}), multiply back by {p}", _canonical(beta.items())),
        ]
    # Unsplitting p*y in base k gives p times the unsplit image of y.  Kept
    # parts are not multiples of p and the others are, so none is shared.
    out = _unsplit(k, divisible, dict([converted]))
    out.update(keep)
    return out


def _dp_to_dpk_core(p: int, k: int, partition: Partition, steps: Steps = None) -> Image:
    """See ``dp_to_dpk``; requires exactly one multiple of p repeated at
    least k times (or the empty partition)."""
    if not partition.pairs:
        return {}
    pk = p * k
    s, m = next((part, mult) for part, mult in partition.pairs if part % p == 0 and mult >= k)
    t, f = divmod(m, k)
    converted = (s // p, pk * t)
    light: list[Pair] = []
    plain: list[Pair] = []
    for part, mult in partition.pairs:
        if part % p:
            plain.append((part, mult))
        elif part != s:
            light.append((part // p, mult))
        elif f:
            light.append((part // p, f))
    mu_prime = [(p * part, mult) for part, mult in _split(k, light, {}).items()]
    # Parts in plain are not multiples of p and parts in mu_prime are, so
    # the two never share a part.
    if steps is not None:
        steps += [
            TraceStep(f"split {s}^{m} = {s}^{k * t} + {s}^{f}", _canonical([(s, k * t)])),
            TraceStep(f"convert {s}^{k * t} into {s // p}^{pk * t}", _canonical([converted])),
            TraceStep(f"divide light multiples of {p} by {p}, apply the "
                      f"splitting map (base {k}), multiply back by {p}", _canonical(mu_prime)),
            TraceStep(f"apply inverse splitting (base {pk}) to the rest",
                      _canonical(_unsplit(pk, plain + mu_prime, {}).items())),
        ]
    return _unsplit(pk, plain + mu_prime, dict([converted]))


# ---------------------------------------------------------------------------
# The traced runner and the public maps
# ---------------------------------------------------------------------------


def _require(member: Callable[[Partition], bool], ref: ClassRef, partition: Partition) -> None:
    family, params = ref
    if not partition.is_empty() and not member(partition):
        raise DomainError(f"partition {format_partition(partition)} is not in the "
                          f"{family}{params} class")


def trace(name: str, cell: Cell, partition: Partition, inverse: bool = False) -> BijectionTrace:
    """Run one direction of the map ``name`` on ``partition`` and trace it.

    Building both class predicates validates the cell before the core runs.
    A nonempty input must lie in the source class and a nonempty image in
    the target class.  Unless the map is bare, ``input`` and ``output``
    steps frame the core's steps."""
    entry = get_bijection(name, cell)
    source, target = entry.classes(cell)
    core = entry.forward
    if inverse:
        source, target, core = target, source, entry.inverse
    in_source, in_target = families.membership(*source), families.membership(*target)
    _require(in_source, source, partition)
    steps: list[TraceStep] = []
    output = Partition(core(cell, partition, steps).items())
    _require(in_target, target, output)
    framed = (TraceStep("input", partition), *steps, TraceStep("output", output))
    return BijectionTrace(partition, output, () if entry.bare else framed)


def genr_f_to_d(p: int, k: int, r: int, partition: Partition) -> BijectionTrace:
    """Map a singleton-residue-class partition (f side) to a heavy-part
    partition (d side): parts divisible by k become (part/k)^(k*mult); the
    remaining parts pass through the inverse splitting map jointly."""
    return trace("genr", {"p": p, "k": k, "r": r}, partition)


def genr_d_to_f(p: int, k: int, r: int, partition: Partition) -> BijectionTrace:
    """Inverse of genr_f_to_d: a part x with multiplicity s becomes
    (k*x)^(s // k) together with the split image of x^(s mod k)."""
    return trace("genr", {"p": p, "k": k, "r": r}, partition, inverse=True)


def var0_map(direction: str, r: int, partition: Partition) -> BijectionTrace:
    """Specialization of the general map with p = k = 2: r = 0 pairs the
    singleton-multiples-of-4 class with the repeated-even-part class, r = 1
    the 2-mod-4 class with the repeated-odd-part class."""
    if direction not in ("forward", "inverse"):
        raise DomainError(f"direction must be 'forward' or 'inverse', got {direction!r}")
    return trace("var0", {"r": r}, partition, inverse=direction == "inverse")


def dpk_to_dp(p: int, k: int, partition: Partition) -> BijectionTrace:
    """Map a partition with one part repeated at least p*k times to one with
    a single heavy part divisible by p.

    Pipeline: split the heavy part j^m as j^(pkq) with remainder, convert
    j^(pkq) to (pj)^(kq), push the remainder through the splitting map in
    base pk, peel off the image parts divisible by p, divide them by p (the
    results are never divisible by k), apply the inverse splitting map in
    base k, scale back by p, and take the union.
    """
    return trace("dpk", {"p": p, "k": k}, partition)


def dp_to_dpk(p: int, k: int, partition: Partition) -> BijectionTrace:
    """Inverse of dpk_to_dp: unconvert the heavy multiple of p, merge the
    light multiples of p through the splitting map in base k, then apply the
    inverse splitting map in base p*k to everything else."""
    return trace("dpk", {"p": p, "k": k}, partition, inverse=True)


# ---------------------------------------------------------------------------
# The bijection table: one entry per map, read by trace and the sweep
# ---------------------------------------------------------------------------

Cell = dict[str, int]
ClassRef = tuple[str, Cell]


class Bijection(NamedTuple):
    """One map: its cell's parameter names, a cell's (domain, codomain)
    classes and both directions as cores of (cell, partition, steps=None)
    that return the image as a ``{part: multiplicity}`` dict.  A bare
    map's trace holds no steps at all."""

    params: tuple[str, ...]
    classes: Callable[[Cell], tuple[ClassRef, ClassRef]]
    forward: Callable[..., Image]
    inverse: Callable[..., Image]
    bare: bool = False


def _var0_sides(r: int) -> tuple[str, str]:
    """The (f side, d side) classes that var0 pairs for r."""
    if r not in (0, 1):
        raise DomainError(f"r must be 0 or 1, got {r}")
    return ("f0", "d_e") if r == 0 else ("f2", "d_o")


# The entries look the cores up as module globals on every call, so a
# replaced module attribute (a test's fault, a tracer's wrapper) is seen.
BIJECTIONS: dict[str, Bijection] = {
    "glaisher": Bijection(
        ("t",), lambda c: (("glaisher_left", c), ("glaisher_right", c)),
        lambda c, x, steps=None: dict(glaisher(c["t"], x).pairs),
        lambda c, y, steps=None: dict(glaisher_inv(c["t"], y).pairs), bare=True),
    "genr": Bijection(
        ("p", "k", "r"), lambda c: (("f_pkr", c), ("d_pkr", c)),
        lambda c, x, steps=None: _genr_f_to_d_core(c["k"], x, steps),
        lambda c, y, steps=None: _genr_d_to_f_core(c["k"], y, steps)),
    "dpk": Bijection(
        ("p", "k"), lambda c: (("d_k", {"k": c["p"] * c["k"]}), ("d_pkr", {**c, "r": 0})),
        lambda c, x, steps=None: _dpk_to_dp_core(c["p"], c["k"], x, steps),
        lambda c, y, steps=None: _dp_to_dpk_core(c["p"], c["k"], y, steps)),
    "var0": Bijection(
        ("r",), lambda c: tuple((side, {}) for side in _var0_sides(c["r"])),
        lambda c, x, steps=None: _genr_f_to_d_core(2, x, steps),
        lambda c, y, steps=None: _genr_d_to_f_core(2, y, steps)),
}


def get_bijection(name: str, params: Cell) -> Bijection:
    """The table entry for ``name``; raises DomainError for an unknown name
    or when ``params`` does not carry exactly the entry's parameter names.
    Parameter values are left to the maps and class predicates."""
    entry = BIJECTIONS.get(name)
    if entry is None:
        raise DomainError(f"unknown bijection {name!r}; expected one of {tuple(BIJECTIONS)}")
    missing = [key for key in entry.params if key not in params]
    extra = [key for key in params if key not in entry.params]
    if missing or extra:
        raise DomainError(f"bijection {name!r} takes parameters {entry.params}"
                          + (f"; missing {missing}" if missing else "")
                          + (f"; unexpected {extra}" if extra else ""))
    return entry


def exhaustive_cell_check(name: str, params: Cell, n: int) -> list[str]:
    """Check that the map is a bijection between its cell's classes at
    weight n, with one pass over the domain class D.  Returns failure
    descriptions (empty list means the cell passed).

    The codomain class C is never enumerated, and the maps run untraced:
    the genr, dpk and var0 cores check no class, and the glaisher entry's
    ``glaisher``/``glaisher_inv`` check only their input.  Each forward
    image is built by one validating ``Partition(...)``, which raises on a
    malformed image; its weight must be n, it must satisfy C's membership
    predicate, and no image may repeat.  Then ``forward`` maps D_n
    injectively into C_n, and |image| = |C_n|, read off C's counting table,
    makes it onto.  ``inverse(forward(x))`` must hold exactly the
    multiplicities of x, so ``inverse`` is its inverse on C_n.
    """
    entry = get_bijection(name, params)
    (domain_family, domain_params), (codomain_family, codomain_params) = entry.classes(params)
    in_codomain = families.membership(codomain_family, codomain_params)
    size = families.count_enum(codomain_family, n, codomain_params)

    failures: list[str] = []
    seen: set[tuple[Pair, ...]] = set()
    for source in families.enumerate_class(domain_family, n, domain_params):
        image = Partition(entry.forward(params, source).items())
        if image.weight != n:
            failures.append(f"weight changed: {source} -> {image}")
            continue
        if not in_codomain(image):
            failures.append(f"image outside the target class: {source} -> {image}")
            continue
        if image.pairs in seen:
            failures.append(f"not injective at {source} -> {image}")
            continue
        seen.add(image.pairs)
        back = entry.inverse(params, image)
        if back != dict(source.pairs):
            failures.append(f"round trip failed: {source} -> {image} -> {_show(back)}")
    if len(seen) != size:
        failures.append(f"not surjective at n={n}: |image|={len(seen)} vs |class|={size}")
    return failures


def _show(image: Image) -> str:
    """The text form of a core's image, or the dict itself when it is not
    a multiset of positive parts with positive multiplicities."""
    try:
        shown = Partition(image.items())
    except InvalidPartitionError:
        return repr(image)
    return str(shown) if len(shown) == len(image) else repr(image)
