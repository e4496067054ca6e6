import pytest
from hypothesis import given, settings, strategies as st

from partlab import acceptance, cli, families
from partlab import bijections as bj
from partlab.errors import DomainError, InvalidPartitionError
from partlab.partition import Partition, parse_partition


def P(text):
    return parse_partition(text)


# --- the splitting map and its inverse -------------------------------------


def test_glaisher_splits_powers():
    assert bj.glaisher(2, P("4,2")) == P("1^6")
    assert bj.glaisher(4, P("4")) == P("1^4")


def test_glaisher_fixed_points():
    for text in ("7,5,1^3", "13^3,5"):
        assert bj.glaisher(4, P(text)) == P(text)


def test_glaisher_domain():
    with pytest.raises(DomainError):
        bj.glaisher(2, P("3^2"))
    with pytest.raises(DomainError):
        bj.glaisher(1, P("3"))
    with pytest.raises(DomainError):
        bj.glaisher_inv(1, P("3"))


def test_glaisher_inv_base_digits():
    assert bj.glaisher_inv(2, P("1^6")) == P("4,2")
    assert bj.glaisher_inv(4, P("1^9")) == P("4^2,1")


def test_glaisher_inv_domain():
    with pytest.raises(DomainError):
        bj.glaisher_inv(4, P("8,1"))


@pytest.mark.parametrize("t", [2, 3, 4, 5])
def test_glaisher_round_trips(t):
    for n in range(19):
        for p in families.enumerate_class("glaisher_right", n, {"t": t}):
            assert bj.glaisher(t, bj.glaisher_inv(t, p)) == p
        for p in families.enumerate_class("glaisher_left", n, {"t": t}):
            assert bj.glaisher_inv(t, bj.glaisher(t, p)) == p


parts_strategy = st.lists(
    st.tuples(st.integers(min_value=1, max_value=24), st.integers(min_value=1, max_value=8)),
    max_size=6,
)


@settings(deadline=None)
@given(parts_strategy, st.integers(min_value=2, max_value=5))
def test_glaisher_weight_preserved(pairs, t):
    merged = Partition(pairs)
    source = Partition((part, min(mult, t - 1)) for part, mult in merged.pairs)
    image = bj.glaisher(t, source)
    assert image.weight == source.weight
    assert all(part % t for part, _ in image.pairs)
    assert bj.glaisher_inv(t, image) == source


def assert_canonical(partition):
    """Parts positive and strictly decreasing, multiplicities >= 1, and the
    cached weight equal to the sum of part * multiplicity."""
    parts = [part for part, _ in partition.pairs]
    assert all(part >= 1 for part in parts)
    assert all(a > b for a, b in zip(parts, parts[1:]))
    assert all(mult >= 1 for _, mult in partition.pairs)
    assert partition.weight == sum(part * mult for part, mult in partition.pairs)


@settings(deadline=None)
@given(st.lists(st.tuples(st.integers(1, 60), st.integers(1, 200)), max_size=8),
       st.integers(min_value=2, max_value=6))
def test_splitting_images_are_canonical(pairs, t):
    # Both maps build their image from a dict, so check the wrapped pairs.
    merged = Partition(pairs)
    bounded = Partition((part, (mult - 1) % (t - 1) + 1) for part, mult in merged.pairs)
    image = bj.glaisher(t, bounded)
    assert_canonical(image)
    assert image.weight == bounded.weight
    coprime = Partition((part, mult) for part, mult in merged.pairs if part % t)
    image = bj.glaisher_inv(t, coprime)
    assert_canonical(image)
    assert image.weight == coprime.weight


# --- the singleton-class / heavy-part map -----------------------------------


def test_genr_forward_worked_pairs():
    assert bj.genr_f_to_d(3, 4, 1, P("5,4")).output == P("5,1^4")
    assert bj.genr_f_to_d(3, 4, 1, P("4,3,2")).output == P("3,2,1^4")
    assert bj.genr_f_to_d(2, 2, 0, P("4")).output == P("2^2")


def test_genr_inverse_worked_pairs():
    for source, image in [("1^9", "4^2,1"), ("2,1^7", "4,2,1^3"), ("2^2,1^5", "4,2^2,1")]:
        assert bj.genr_d_to_f(3, 4, 1, P(source)).output == P(image)


def test_genr_domain_checked():
    with pytest.raises(DomainError):
        bj.genr_f_to_d(3, 4, 1, P("3,3"))
    with pytest.raises(DomainError):
        bj.genr_d_to_f(3, 4, 1, P("5,4"))


def test_var0_examples():
    assert bj.var0_map("forward", 0, P("4^2")).output == P("2^4")
    assert bj.var0_map("forward", 1, P("2")).output == P("1^2")
    empty = Partition()
    assert bj.var0_map("forward", 0, empty).output == empty
    assert bj.var0_map("inverse", 1, empty).output == empty
    with pytest.raises(DomainError):
        bj.var0_map("forward", 2, P("4"))
    with pytest.raises(DomainError):
        bj.var0_map("sideways", 0, P("4"))


def test_var0_agrees_with_general_map():
    for n in range(16):
        for p in families.enumerate_class("f0", n):
            assert bj.var0_map("forward", 0, p).output == bj.genr_f_to_d(2, 2, 0, p).output
        for p in families.enumerate_class("d_o", n):
            assert bj.var0_map("inverse", 1, p).output == bj.genr_d_to_f(2, 2, 1, p).output


# --- the heavy-multiplicity conversion --------------------------------------


def test_dpk_worked_example():
    source = P("13^10,10^5,7^30,6^2,4^5,1^11")
    trace = bj.dpk_to_dp(3, 4, source)
    assert trace.output == P("21^8,13^10,10^5,7^6,6^2,4^5,1^11")
    values = [s.value for s in trace.steps]
    assert P("21^8") in values
    assert P("6^2") in values
    back = bj.dp_to_dpk(3, 4, trace.output)
    assert back.output == source


def test_dpk_small_example():
    assert bj.dpk_to_dp(2, 2, P("1^4")).output == P("2^2")
    assert bj.dp_to_dpk(2, 2, P("2^2")).output == P("1^4")


def test_dpk_domain_checked():
    with pytest.raises(DomainError):
        bj.dpk_to_dp(3, 4, P("5,4"))
    with pytest.raises(DomainError):
        bj.dp_to_dpk(3, 4, P("5,4"))
    with pytest.raises(DomainError):
        bj.dpk_to_dp(1, 4, P("1^4"))


@pytest.mark.parametrize("p,k,message", [(1, 2, "need p >= 2, got 1"), (2, 1, "need k >= 2, got 1")],
                         ids=["p=1", "k=1"])
def test_dpk_cell_checked_before_a_core_runs(p, k, message, monkeypatch, capsys):
    # d_k(p*k) accepts p = 1 or k = 1; only d_pkr(p, k, 0) rejects the
    # cell, so the runner must build both predicates before a core runs.
    def no_core(*args):
        raise AssertionError("a core ran on a malformed cell")

    monkeypatch.setattr(bj, "_dpk_to_dp_core", no_core)
    monkeypatch.setattr(bj, "_dp_to_dpk_core", no_core)
    for source in (P("1^4"), Partition()):
        for forward_or_back in (bj.dpk_to_dp, bj.dp_to_dpk):
            with pytest.raises(DomainError, match=message):
                forward_or_back(p, k, source)
    for inverse in ([], ["--inverse"]):
        assert cli.main(["map", "dpk", "--p", str(p), "--k", str(k), *inverse, "1^4"]) == 4
        assert capsys.readouterr().err == f"domain error: {message}\n"


def test_lemma_divisibility():
    # x not divisible by p*k but divisible by p implies x/p not divisible by k.
    for p in range(1, 13):
        for k in range(1, 13):
            if p * k < 2:
                continue
            for x in range(p, 500, p):
                if x % (p * k):
                    assert (x // p) % k != 0, (p, k, x)


def test_lemma_violation_guard_fires_when_the_split_is_broken(monkeypatch, capsys):
    # With every factor of p*k split off, the guard cannot fire; a split that
    # leaves the rest unsplit hands the core 4 = 2*2 from 5^4,4.
    def no_split(t, pairs, out):
        for part, mult in pairs:
            out[part] = out.get(part, 0) + mult
        return out

    monkeypatch.setattr(bj, "_split", no_split)
    with pytest.raises(bj.LemmaViolation, match="part 4 divided by 2 is divisible by 2"):
        bj.dpk_to_dp(2, 2, P("5^4,4"))
    assert cli.main(["map", "dpk", "--p", "2", "--k", "2", "5^4,4"]) == 4
    assert capsys.readouterr().err.startswith("internal defect:")


def test_trace_shape():
    source = P("2,1^7")
    trace = bj.genr_d_to_f(3, 4, 1, source)
    assert trace.steps[0].label == "input" and trace.steps[0].value == source
    assert trace.steps[-1].label == "output" and trace.steps[-1].value == trace.output
    assert trace.input.weight == trace.output.weight


@pytest.mark.parametrize("name,params", [
    ("genr", {"p": 2, "k": 2, "r": 1}),
    ("genr", {"p": 3, "k": 2, "r": 2}),
    ("dpk", {"p": 2, "k": 2}),
    ("var0", {"r": 0}),
    ("glaisher", {"t": 3}),
])
def test_exhaustive_cells_small(name, params):
    for n in range(0, 19):
        assert bj.exhaustive_cell_check(name, params, n) == []


def test_exhaustive_cell_check_unknown():
    with pytest.raises(DomainError):
        bj.exhaustive_cell_check("nope", {}, 5)


@pytest.mark.parametrize("name,params,n", [
    ("var0", {"r": 5}, 0),
    ("var0", {"r": 5}, 1),
    ("var0", {"r": 2}, 6),
    ("genr", {"p": 2}, 3),
    ("genr", {"p": 2, "k": 2, "r": 0, "t": 2}, 3),
    ("glaisher", {}, 3),
    ("dpk", {"p": 2, "k": 2, "r": 0}, 4),
    ("glaisher", {"t": 1}, 4),
    ("genr", {"p": 2, "k": 2, "r": 2}, 4),
    ("genr", {"p": 1, "k": 2, "r": 0}, 4),
    ("dpk", {"p": 1, "k": 4}, 4),
])
def test_exhaustive_cell_check_rejects_cell_before_enumerating(name, params, n, monkeypatch):
    def no_enumeration(*args, **kwargs):
        raise AssertionError("enumerated a class for a malformed cell")

    monkeypatch.setattr(families, "enumerate_class", no_enumeration)
    with pytest.raises(DomainError):
        bj.exhaustive_cell_check(name, params, n)


@pytest.mark.parametrize("name,params", [
    ("glaisher", {"t": 1}),
    ("genr", {"p": 2, "k": 2, "r": 2}),
    ("genr", {"p": 1, "k": 2, "r": 0}),
    ("dpk", {"p": 1, "k": 4}),
])
def test_exhaustive_cell_check_rejects_bad_values(name, params):
    for n in (0, 1, 4):
        with pytest.raises(DomainError):
            bj.exhaustive_cell_check(name, params, n)


@pytest.mark.parametrize("name,params", [
    ("glaisher", {"t": 3}),
    ("genr", {"p": 3, "k": 2, "r": 1}),
    ("dpk", {"p": 2, "k": 3}),
    ("var0", {"r": 1}),
])
def test_sweep_enumerates_only_the_domain(name, params, monkeypatch):
    calls = []
    original = families.enumerate_class

    def recording(family, n, family_params=None):
        calls.append((family, n, family_params))
        return original(family, n, family_params)

    monkeypatch.setattr(families, "enumerate_class", recording)
    assert bj.exhaustive_cell_check(name, params, 12) == []
    (family, family_params), _ = bj.BIJECTIONS[name].classes(params)
    assert calls == [(family, 12, family_params)]


@pytest.mark.parametrize("inverse", [False, True], ids=["forward", "inverse"])
@pytest.mark.parametrize("name,params", acceptance._bijection_cells(),
                         ids=lambda value: value if isinstance(value, str) else
                         ",".join(f"{k}={v}" for k, v in value.items()))
def test_traced_run_agrees_with_the_untraced_core(name, params, inverse):
    # A core wraps its intermediates for trace steps only when it is traced,
    # so the traced output must be the partition of the table core's image
    # and every step a canonical partition.
    entry = bj.BIJECTIONS[name]
    source_class = entry.classes(params)[1 if inverse else 0]
    core = entry.inverse if inverse else entry.forward
    for n in range(13):
        for source in families.enumerate_class(source_class[0], n, source_class[1]):
            trace = bj.trace(name, params, source, inverse)
            assert trace.output == Partition(core(params, source).items())
            for step in trace.steps:
                assert_canonical(step.value)


# --- the sweep reports injected faults instead of raising --------------------


def _inject(monkeypatch, attr, fault):
    """Replace the splitting map ``attr`` by one whose result passes
    through ``fault(partition, result)``."""
    original = getattr(bj, attr)
    monkeypatch.setattr(bj, attr, lambda t, x: fault(x, original(t, x)))


def test_sweep_reports_image_outside_codomain(monkeypatch):
    # glaisher checks no output class, so the sweep is the only guard.
    _inject(monkeypatch, "glaisher", lambda x, y: P("2^2") if x == P("3,1") else y)
    failures = bj.exhaustive_cell_check("glaisher", {"t": 2}, 4)
    assert any("outside the target class" in f for f in failures)
    assert any("not surjective" in f for f in failures)


def test_sweep_reports_two_sources_on_one_image(monkeypatch):
    _inject(monkeypatch, "glaisher", lambda x, y: P("1^4") if x == P("3,1") else y)
    failures = bj.exhaustive_cell_check("glaisher", {"t": 2}, 4)
    assert any("not injective" in f for f in failures)
    assert any("not surjective" in f for f in failures)


def test_sweep_reports_weight_the_image_only_declares(monkeypatch):
    # The faulty image 1^3 declares the source's weight 4, and membership
    # predicates ignore weight, so only a weight read off the pairs sees it.
    _inject(monkeypatch, "glaisher",
            lambda x, y: Partition._raw(((1, 3),), x.weight) if x == P("4") else y)
    _inject(monkeypatch, "glaisher_inv", lambda x, y: P("4") if x == P("1^3") else y)
    failures = bj.exhaustive_cell_check("glaisher", {"t": 2}, 4)
    assert failures == ["weight changed: 4 -> 1^3", "not surjective at n=4: |image|=1 vs |class|=2"]


def test_sweep_reports_wrong_inverse(monkeypatch):
    # 4,2 maps to 1^6.  The faulty inverse sends 1^6 to itself, which the
    # forward map rejects (multiplicity 6 > 1), so a sweep that fed the
    # inverse's output back to the forward map would raise here.
    _inject(monkeypatch, "glaisher_inv", lambda x, y: x if x == P("1^6") else y)
    failures = bj.exhaustive_cell_check("glaisher", {"t": 2}, 6)
    assert failures == ["round trip failed: 4,2 -> 1^6 -> 1^6"]


def test_sweep_reports_wrong_genr_inverse(monkeypatch):
    original = bj._genr_d_to_f_core

    def faulty(k, partition, steps=None):
        image = original(k, partition, steps)
        return {3: 1, 1: 1} if partition == P("1^4") else image

    monkeypatch.setattr(bj, "_genr_d_to_f_core", faulty)
    failures = bj.exhaustive_cell_check("genr", {"p": 2, "k": 2, "r": 1}, 4)
    assert len(failures) == 1 and failures[0].startswith("round trip failed")


def test_sweep_raises_on_a_malformed_forward_image(monkeypatch):
    # The sweep's validating build of the forward image is its structural
    # check: a core image that is no partition raises.
    original = bj._genr_f_to_d_core
    monkeypatch.setattr(bj, "_genr_f_to_d_core", lambda k, partition, steps=None:
                        {0: 1} if partition == P("2^2") else original(k, partition, steps))
    with pytest.raises(InvalidPartitionError, match="part must be a positive integer, got 0"):
        bj.exhaustive_cell_check("genr", {"p": 2, "k": 2, "r": 1}, 4)


@pytest.mark.parametrize("bad,shown", [
    ({2: 1, 1: 2}, "2,1^2"),
    ({0: 1}, "{0: 1}"),
    ({4: -1, 8: 1}, "{4: -1, 8: 1}"),
    ({2: 2, 1: 0}, "{2: 2, 1: 0}"),
])
def test_sweep_reports_wrong_or_malformed_inverse_image(bad, shown, monkeypatch):
    # The inverse image is only compared with its source's multiplicities,
    # so a wrong or malformed one is a failed round trip, not an error.
    original = bj._genr_d_to_f_core
    monkeypatch.setattr(bj, "_genr_d_to_f_core", lambda k, partition, steps=None:
                        dict(bad) if partition == P("1^4") else original(k, partition, steps))
    failures = bj.exhaustive_cell_check("genr", {"p": 2, "k": 2, "r": 1}, 4)
    assert failures == [f"round trip failed: 2^2 -> 1^4 -> {shown}"]


@pytest.mark.parametrize("name,params,core,source", [
    ("genr", {"p": 2, "k": 2, "r": 1}, "_genr_f_to_d_core", "2^2"),
    ("dpk", {"p": 2, "k": 2}, "_dpk_to_dp_core", "1^4"),
])
def test_sweep_reports_core_image_outside_codomain(name, params, core, source, monkeypatch):
    # The sweep runs the cores, which check no class, so a faulty image
    # reaches the sweep's own codomain check instead of raising DomainError.
    # The table passes (..., partition, steps) positionally.
    original = getattr(bj, core)
    monkeypatch.setattr(bj, core, lambda *args: dict(args[-2].pairs) if args[-2] == P(source)
                        else original(*args))
    failures = bj.exhaustive_cell_check(name, params, 4)
    assert f"image outside the target class: {source} -> {source}" in failures
    assert failures[-1].startswith("not surjective at n=4")


# --- the bijection table ------------------------------------------------------


def test_table_matches_acceptance_cells():
    cells = acceptance._bijection_cells()
    assert {name for name, _ in cells} == set(bj.BIJECTIONS)
    for name, params in cells:
        entry = bj.BIJECTIONS[name]
        assert sorted(params) == sorted(entry.params), (name, params)
        for family, family_params in entry.classes(params):
            assert families.get_spec(family).kind == "class", family
            families.normalize_params(family, family_params)


# Members of weight 10^3..10^5 with few distinct parts and, where the class
# allows, large multiplicities (the shape of the n = 433 example).  Each
# class is built from its definition, independently of the family folds.
LOW, HIGH = 10**3, 10**5
_values = st.integers(min_value=1, max_value=400)


def _avoiding(modulus, residue):
    """Part values not congruent to residue mod modulus."""
    return _values.map(lambda v: v + 1 if v % modulus == residue else v)


def _in_class(modulus, residue):
    return st.integers(0, 400 // modulus).map(lambda a: modulus * a + residue).filter(bool)


def _weight(pairs):
    return sum(part * mult for part, mult in pairs.items())


@st.composite
def _anchored(draw, values, cap, anchor_values, min_mult):
    """Up to four parts from ``values`` with multiplicity at most cap(part),
    plus one new anchor part whose multiplicity, at least min_mult, puts the
    weight in LOW..HIGH."""
    rest = draw(st.dictionaries(values, st.integers(1, 50), max_size=4))
    rest = {v: min(m, cap(v)) for v, m in rest.items()}
    anchor = draw(anchor_values.filter(lambda v: v not in rest))
    weight = _weight(rest)
    lo = max(min_mult, -(-(LOW - weight) // anchor))
    mult = draw(st.integers(lo, max(lo, (HIGH - weight) // anchor)))
    return Partition([*rest.items(), (anchor, mult)])


@st.composite
def _bounded_mults(draw, bound):
    """Every multiplicity at most bound: a few small parts plus one large one."""
    rest = draw(st.dictionaries(_values, st.integers(1, bound), max_size=4))
    weight = _weight(rest)
    anchor = draw(st.integers(max(LOW - weight, max(rest, default=0) + 1), HIGH - weight))
    return Partition([*rest.items(), (anchor, 1)])


def _one_heavy(modulus, residue, k):
    # Exactly one part in the residue class appears at least k times.
    return _anchored(_values, lambda v: k - 1 if v % modulus == residue else 50,
                     _in_class(modulus, residue), k)


def _singleton_residue(modulus, residue):
    # Exactly one part value lies in the residue class.
    return _anchored(_avoiding(modulus, residue), lambda v: 50, _in_class(modulus, residue), 1)


MEMBERS = {
    "glaisher_left": lambda c: _bounded_mults(c["t"] - 1),
    "glaisher_right": lambda c: _anchored(_avoiding(c["t"], 0), lambda v: 50, _avoiding(c["t"], 0), 1),
    "f_pkr": lambda c: _singleton_residue(c["p"] * c["k"], c["k"] * c["r"]),
    "d_pkr": lambda c: _one_heavy(c["p"], c["r"], c["k"]),
    "d_k": lambda c: _one_heavy(1, 0, c["k"]),
    "f0": lambda c: _singleton_residue(4, 0),
    "f2": lambda c: _singleton_residue(4, 2),
    "d_e": lambda c: _one_heavy(2, 0, 2),
    "d_o": lambda c: _one_heavy(2, 1, 2),
}


@pytest.mark.parametrize("direction", ["forward", "inverse"])
@pytest.mark.parametrize("name", list(bj.BIJECTIONS))
@settings(deadline=None, max_examples=10)
@given(data=st.data())
def test_large_members_round_trip(name, direction, data):
    entry = bj.BIJECTIONS[name]
    cell = data.draw(st.sampled_from([c for n, c in acceptance._bijection_cells() if n == name]))
    source_class, target_class = entry.classes(cell)
    inverse = direction == "inverse"
    if inverse:
        source_class, target_class = target_class, source_class
    source = data.draw(MEMBERS[source_class[0]](source_class[1]))
    assert LOW <= source.weight <= HIGH
    assert families.membership(*source_class)(source)
    image = bj.trace(name, cell, source, inverse).output
    assert image.weight == source.weight
    assert families.membership(*target_class)(image)
    assert bj.trace(name, cell, image, not inverse).output == source
