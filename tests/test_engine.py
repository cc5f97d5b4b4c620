"""Verification engine: claim runs, closure sweeps, counterexample hunts."""

import json
import random
from types import SimpleNamespace

import pytest

from neutrolab.engine import (
    Claim,
    Report,
    STATUS_COUNTEREXAMPLE,
    STATUS_HOLDS,
    STATUS_SKIPPED_BUDGET,
    STATUS_SKIPPED_RESOURCE,
    claim_matches,
    emit,
    result_predicate,
    run_claim,
    run_closure_prop,
    run_remark_hunt,
    run_suite,
)
from neutrolab.io import load_soft
from neutrolab.ncollect import Component, NCollection
from neutrolab import claims, engine, softsets, subsets
from neutrolab import symbolic as sym
from neutrolab.structures import ResourceCap, mult_magma, neutro_ring, param_groupoid

SUBS = [frozenset({"0"}), frozenset({"0", "2I"}), frozenset({"0", "2+2I"}),
        frozenset({"0", "2", "2I", "2+2I"})]


def carrier():
    return SimpleNamespace(name="u")


def claim_of(cid, runner=None):
    runner = runner or (lambda u, rng: (STATUS_HOLDS, None, 1))
    return Claim(cid, "ClosureProposition", carrier, "g", STATUS_HOLDS, runner)


# the hand-kept map that result_predicate derives from the predicate tables
LOOSE_FORMS = {name: "loose-" + name for name in (
    "subgroupoid", "ideal", "subring", "ring-ideal", "gr-subring", "gr-ideal",
    "gr-subneutro", "n-sub", "n-ideal")}


def test_result_predicate():
    names = [*subsets.PREDICATES, *softsets.N_PREDICATES, "loose-strong-n-sub", "mystery"]
    for name in names:
        assert result_predicate(name) == LOOSE_FORMS.get(name, name), name
    assert set(LOOSE_FORMS) < set(names)


def test_claim_matches():
    c = claim_of("prop-2.1.1")
    assert claim_matches(None, c) and claim_matches("", c)
    assert claim_matches("ch2", c)
    assert not claim_matches("ch3", c)
    assert claim_matches("prop-2.1.1", c)
    assert claim_matches("prop-*", c)
    assert not claim_matches("remark-*", c)
    assert claim_matches("ch3", claim_of("example-3.1.4"))


def test_report_dict_field_order():
    r = Report("x", STATUS_HOLDS, None, "u", 5, 1)
    assert list(r.to_dict()) == ["claim_id", "status", "witness", "universe",
                                 "trials", "elapsed_ms"]


def test_run_claim_seed_isolation_and_determinism():
    def runner(u, rng):
        return STATUS_HOLDS, {"draw": rng.random()}, 1

    a = run_claim(Claim("idA", "k", carrier, "g", STATUS_HOLDS, runner), seed=0)
    a2 = run_claim(Claim("idA", "k", carrier, "g", STATUS_HOLDS, runner), seed=0)
    b = run_claim(Claim("idB", "k", carrier, "g", STATUS_HOLDS, runner), seed=0)
    other = run_claim(Claim("idA", "k", carrier, "g", STATUS_HOLDS, runner), seed=1)
    assert a.witness == a2.witness
    assert a.witness != b.witness       # stream is keyed by claim id
    assert a.witness != other.witness   # and by seed


def test_run_claim_resource_cap_becomes_skip():
    def runner(u, rng):
        raise ResourceCap("too big")

    r = run_claim(Claim("idC", "k", carrier, "g", STATUS_HOLDS, runner))
    assert r.status == STATUS_SKIPPED_RESOURCE
    assert r.witness == {"cap": "too big"}


def test_run_closure_prop_holds_and_trial_count():
    g = param_groupoid(4, 2, 1)
    rng = random.Random(0)
    status, witness, trials = run_closure_prop(g, SUBS, "loose-subgroupoid",
                                               rng, spot=40)
    assert status == STATUS_HOLDS and witness is None
    assert trials == 89     # 4 members, 16 pair meets, then 69 spot values


def test_run_closure_prop_rejects_bad_population():
    g = param_groupoid(4, 2, 1)
    with pytest.raises(RuntimeError):
        run_closure_prop(g, [frozenset({"0", "1"})], "loose-subgroupoid",
                         random.Random(0))


def test_run_closure_prop_rejects_an_unknown_predicate():
    g = param_groupoid(4, 2, 1)
    with pytest.raises(ValueError, match="loose-subgroupoidd"):
        run_closure_prop(g, SUBS, "loose-subgroupoidd", random.Random(0))


def test_run_closure_prop_rejects_an_unknown_collection_label():
    pair = NCollection([Component(mult_magma(3), "semigroup", True),
                        Component(mult_magma(4), "semigroup", True)])
    with pytest.raises(ValueError, match="unknown element 'zz'"):
        run_closure_prop(pair, [(frozenset({"0", "zz"}), frozenset({"0"}))], "loose-n-sub",
                         random.Random(0))


def test_spot_sweep_witness_loads_and_fails_again():
    """No registered claim reaches the spot sweep's witness; unions of the
    ring(Z6+I) subrings fail at the first spot trial. Status, witness and
    trials are those of the sweep over SoftSet operands."""
    ring = neutro_ring(6)
    population = subsets.enumerate_subs(ring, "subring", "generate")
    status, witness, trials = run_closure_prop(ring, population, "loose-subring",
                                               random.Random(0), ops=("extended-union",))
    assert (status, trials) == (STATUS_COUNTEREXAMPLE, 463)
    assert witness == {
        "kind": "soft-op", "reason": "not closed under add",
        "witness": ["2I", "1+5I", "add", "1+I"], "op": "extended-union", "param": "p1",
        "lhs": {"params": ["p1"],
                "assign": {"p1": ["0", "1+5I", "2+4I", "3+3I", "4+2I", "5+I"]}},
        "rhs": {"params": ["p1", "p3"],
                "assign": {"p1": ["0", "2", "2+2I", "2+4I", "2I", "4", "4+2I", "4+4I", "4I"],
                           "p3": ["0", "1+2I", "1+5I", "2+4I", "2+I", "3", "3+3I", "3I",
                                  "4+2I", "4+5I", "5+4I", "5+I"]}}}
    f = load_soft(witness["lhs"], universe=ring)
    k = load_soft(witness["rhs"], universe=ring)
    value = softsets.OPS[witness["op"]](f, k).value(witness["param"])
    assert not subsets.check_predicate(ring, value, "loose-subring").ok


@pytest.fixture
def formed(monkeypatch):
    """Records the meets and joins the engine's value kinds form, as
    operand pairs in the order they are formed."""
    merges = {"meet": [], "join": []}
    value_kind = engine.value_kind

    def counting(universe):
        kind = value_kind(universe)

        def counted(name):
            def merge(a, b):
                merges[name].append((a, b))
                return getattr(kind, name)(a, b)
            return merge
        return kind._replace(meet=counted("meet"), join=counted("join"))

    monkeypatch.setattr(engine, "value_kind", counting)
    return merges


def test_an_intersection_spot_sweep_forms_no_value(formed):
    """An intersection forms only members and pair meets, so a Holds run
    forms each ordered pair's meet once, in the pair sweep, and no value
    after it."""
    g = param_groupoid(4, 2, 1)
    population = claims.subgroupoids_421()
    size = len(population)
    status, _, trials = run_closure_prop(g, population, "loose-subgroupoid",
                                         random.Random(0), spot=400)
    assert status == STATUS_HOLDS and trials > size + size * size + 400
    assert formed["meet"] == [(a, b) for a in population for b in population]
    assert formed["join"] == []


def test_a_union_spot_sweep_forms_each_join_once(formed):
    """A union's spot trials decide the join of each ordered pair of
    population members at most once."""
    g = param_groupoid(4, 2, 1)
    index = {v: i for i, v in enumerate(SUBS)}
    status, _, _ = run_closure_prop(g, SUBS, lambda u, v: subsets.Verdict(True),
                                    random.Random(0),
                                    ("extended-union", "restricted-union", "or"), spot=400)
    assert status == STATUS_HOLDS
    assert formed["meet"] == [(a, b) for a in SUBS for b in SUBS]
    joins = [(index[a], index[b]) for a, b in formed["join"]]
    assert joins and len(joins) == len(set(joins))


def test_a_population_hunt_forms_each_value_once(formed):
    """A hunt forms one join per ordered pair of members and decides it
    there: a Holds hunt forms every pair's join once and no meet, and a
    found witness's value is not formed again."""
    universe = mult_magma(4)
    population = subsets.enumerate_subs(universe, "ideal")
    index = {v: i for i, v in enumerate(population)}
    out = run_remark_hunt(universe, "extended-union", result_predicate("ideal"),
                          population=population, exhaustive=True)
    assert out == (STATUS_HOLDS, None, 18 * 18)
    assert sorted((index[a], index[b]) for a, b in formed["join"]) == \
        [(i, j) for i in range(18) for j in range(18)]
    assert formed["meet"] == []
    formed["join"].clear()
    status, _, trials = run_remark_hunt(
        universe, "extended-union", result_predicate("subgroupoid"),
        population=subsets.enumerate_subs(universe, "subgroupoid"), exhaustive=True)
    assert (status, trials) == (STATUS_COUNTEREXAMPLE, 2)
    assert len(formed["join"]) == 2 and formed["meet"] == []


@pytest.fixture
def built(monkeypatch):
    """Counts the soft sets built, through either constructor."""
    count = {"softsets": 0}
    init, of_frozen = softsets.SoftSet.__init__, softsets.SoftSet._of_frozen.__func__

    def counted_init(self, universe, assign):
        count["softsets"] += 1
        init(self, universe, assign)

    def counted_of_frozen(cls, universe, assign):
        count["softsets"] += 1
        return of_frozen(cls, universe, assign)

    monkeypatch.setattr(softsets.SoftSet, "__init__", counted_init)
    monkeypatch.setattr(softsets.SoftSet, "_of_frozen", classmethod(counted_of_frozen))
    return count


def test_passing_trials_build_no_soft_set(built):
    claim = next(c for c in claims.registry() if c.id == "prop-2.3.2")
    claim.runner(claim.carrier(), random.Random(0))     # fills the cached pool
    built["softsets"] = 0
    report = run_claim(claim, seed=0)
    assert report.status == STATUS_HOLDS and report.trials > 10_000
    assert built["softsets"] == 0
    ring = neutro_ring(6)
    population = subsets.enumerate_subs(ring, "subring", "generate")
    whole = frozenset(ring.elements)
    out = run_remark_hunt(ring, "and", "loose-subring", population=population,
                          exhaustive=True)
    assert out == (STATUS_HOLDS, None, 441) and built["softsets"] == 0
    # the pinned pair is frozen through SoftSet; the sweep after it is not
    out = run_remark_hunt(ring, "and", "loose-subring", pinned=({"a": whole}, {"b": whole}),
                          population=population, exhaustive=True)
    assert out == (STATUS_HOLDS, None, 442) and built["softsets"] == 2


def test_hunt_finds_replayable_counterexample():
    g = param_groupoid(4, 2, 1)
    pop = [frozenset({"0", "2I"}), frozenset({"0", "1", "3"})]
    status, witness, trials = run_remark_hunt(
        g, "extended-union", "loose-subgroupoid", random.Random(0),
        population=pop, budget=100)
    assert status == STATUS_COUNTEREXAMPLE
    assert witness["kind"] == "union-violation"
    assert witness["op"] == "extended-union"
    assert "lhs" in witness and "rhs" in witness
    assert trials >= 1


def test_a_symbolic_hunt_reports_a_counterexample_that_replays():
    """A symbolic universe's witness is written as text and read back from
    it: 2Z u 3Z is no subring of <Z u I>, and the replay says so again."""
    zi, z2, z3 = sym.NamedRing("Z", 1, True), sym.NamedRing("Z", 2), sym.NamedRing("Z", 3)
    status, witness, trials = run_remark_hunt(zi, "extended-union", "loose-subring",
                                              population=[z2, z3], budget=20)
    assert status == STATUS_COUNTEREXAMPLE and trials == 2
    assert (witness["lhs"]["assign"], witness["rhs"]["assign"]) == ({"p1": "2Z"}, {"p1": "3Z"})
    assert witness["result"] == "2Z u 3Z"
    f, k = (load_soft(witness[side], universe=zi) for side in ("lhs", "rhs"))
    assert f.value("p1") == z2 and k.value("p1") == z3
    assert engine._replay_witness(zi, "extended-union", "loose-subring", witness)


def test_hunt_rejects_an_unknown_predicate():
    g = param_groupoid(4, 2, 1)
    pop = [frozenset({"0", "2I"}), frozenset({"0", "1", "3"})]
    with pytest.raises(ValueError, match="loose-subgroupoidd"):
        run_remark_hunt(g, "extended-union", "loose-subgroupoidd", random.Random(0),
                        population=pop, budget=100)
    pair = NCollection([Component(mult_magma(3), "semigroup", True),
                        Component(mult_magma(4), "semigroup", True)])
    with pytest.raises(ValueError, match="loose-n-subb"):
        run_remark_hunt(pair, "extended-union", "loose-n-subb", random.Random(0),
                        population=[(frozenset({"0"}), frozenset({"0"}))], budget=100)
    # strong-n-sub parts are all indeterminate, so it has no loose form
    with pytest.raises(ValueError, match="unknown collection predicate 'loose-strong-n-sub'"):
        run_remark_hunt(pair, "extended-union", "loose-strong-n-sub", random.Random(0),
                        population=[(frozenset({"0"}), frozenset({"0"}))], budget=100)


def test_hunt_raises_on_a_value_naming_no_member():
    """Only a pair the operation cannot combine is passed over; a value that
    names no member of the carrier raises, pinned or in the population, as
    it does in run_closure_prop."""
    g = param_groupoid(4, 2, 1)
    bad = {"0", "zz"}
    with pytest.raises(ValueError, match="unknown element 'zz'"):
        run_remark_hunt(g, "extended-union", "loose-subgroupoid",
                        pinned=({"p1": bad}, {"p1": {"0"}}), population=[], budget=10)
    with pytest.raises(ValueError, match="unknown element 'zz'"):
        run_remark_hunt(g, "extended-union", "loose-subgroupoid", population=[bad], budget=10)
    # a restricted operation on a pinned pair with no shared parameter makes
    # no trial, and the sweep goes on
    out = run_remark_hunt(g, "restricted-intersection", "loose-subgroupoid",
                          pinned=({"a": {"0"}}, {"b": {"0"}}), population=[{"0"}],
                          exhaustive=True)
    assert out == (STATUS_HOLDS, None, 1)
    # so does a crossed pair whose names clash, before it forms a value that
    # cannot be formed: x&y with z, and x with y&z, both name x&y&z, and
    # 2Z u 3Z meets 2Z in no value
    z1, z2, z3 = sym.NamedRing("Z", 1, True), sym.NamedRing("Z", 2), sym.NamedRing("Z", 3)
    with pytest.raises(ValueError, match="no intersection"):
        softsets.value_kind(z1).meet(sym.SymUnion((z2, z3)), z2)
    out = run_remark_hunt(z1, "and", "loose-subring",
                          pinned=({"x&y": sym.SymUnion((z2, z3)), "x": z2}, {"z": z2, "y&z": z3}),
                          population=[z2], exhaustive=True)
    assert out == (STATUS_HOLDS, None, 1)


def test_hunt_exhaustive_holds():
    g = param_groupoid(4, 2, 1)
    pop = [frozenset({"0"}), frozenset({"0", "2I"})]
    rng = random.Random(0)
    before = rng.getstate()
    status, witness, trials = run_remark_hunt(
        g, "extended-union", "loose-subgroupoid", rng,
        population=pop, budget=1000, exhaustive=True)
    assert status == STATUS_HOLDS and witness is None
    assert trials == len(pop) ** 2
    assert rng.getstate() == before     # the sweep draws nothing


def test_hunt_budget_starvation_is_a_skip():
    g = param_groupoid(4, 2, 1)
    pop = [frozenset({"0"}), frozenset({"0", "2I"})]
    status, witness, trials = run_remark_hunt(
        g, "extended-union", "loose-subgroupoid", random.Random(0),
        population=pop, budget=2, exhaustive=True)
    assert status == STATUS_SKIPPED_BUDGET
    assert witness == {"budget": 2}
    assert trials <= 3


def test_hunt_pinned_pair_and_pin_check():
    g = param_groupoid(4, 2, 1)

    def pin(universe, value):
        return {"escapes": "3"}

    status, witness, trials = run_remark_hunt(
        g, "extended-union", "loose-subgroupoid", random.Random(0),
        pinned=({"p1": frozenset({"0", "2I"})}, {"p1": frozenset({"0", "1"})}),
        pin_check=pin, budget=50)
    assert status == STATUS_COUNTEREXAMPLE
    assert witness["escapes"] == "3"
    assert trials == 1


def test_hunt_reports_the_kinds_empty_part_verdict():
    """A result value with an empty part fails as the collection kind decides
    it (flagged `empty-part`, as soft_is reports it), and replays so."""
    pair = NCollection([Component(mult_magma(3), "semigroup", True),
                        Component(mult_magma(4), "semigroup", True)])
    pinned = ({"p1": (frozenset({"0"}), frozenset({"1"}))},
              {"p1": (frozenset({"0"}), frozenset({"2"}))})
    status, witness, trials = run_remark_hunt(pair, "restricted-intersection",
                                              "loose-n-sub", pinned=pinned)
    assert (status, trials) == (STATUS_COUNTEREXAMPLE, 1)
    assert (witness["flags"], witness["reason"]) == (["empty-part"], "empty part")
    assert witness["result"] == [["0"], []]


def test_hunt_unreplayable_witness_is_an_error():
    g = param_groupoid(4, 2, 1)
    flaky = {"calls": 0}

    def predicate(universe, value):
        flaky["calls"] += 1
        from neutrolab.subsets import Verdict
        if flaky["calls"] == 1:
            return Verdict(False, note="first call only")
        return Verdict(True)

    with pytest.raises(RuntimeError):
        run_remark_hunt(g, "extended-union", predicate, random.Random(0),
                        population=[frozenset({"0"})], budget=10)


def test_hunt_decides_each_value_once(monkeypatch):
    ring = neutro_ring(6)
    population = subsets.enumerate_subs(ring, "subring", "generate")
    assert len(population) == 21
    decided = []
    verdict = softsets.check_predicate

    def counted(universe, value, predicate):
        decided.append(value)
        return verdict(universe, value, predicate)

    monkeypatch.setattr(softsets, "check_predicate", counted)
    out = run_remark_hunt(ring, "and", "loose-subring", random.Random(0),
                          population=population, exhaustive=True)
    assert out == (STATUS_HOLDS, None, 441)
    assert decided and len(decided) == len(set(decided))
    # a witness's value is decided again when it is replayed
    g = param_groupoid(4, 2, 1)
    pinned = ({"p1": frozenset({"0", "2I"})}, {"p1": frozenset({"0", "1"})})
    decided.clear()
    status, witness, _ = run_remark_hunt(g, "extended-union", "loose-subgroupoid",
                                         random.Random(0), pinned=pinned)
    assert status == STATUS_COUNTEREXAMPLE
    assert decided == [frozenset(witness["result"])] * 2


def test_run_suite_filter_and_no_match():
    reg = [claim_of("prop-2.1.1"), claim_of("remark-2.1.1"),
           claim_of("example-3.1.4")]
    reports, ok = run_suite(reg, "ch2")
    assert ok and [r.claim_id for r in reports] == ["prop-2.1.1", "remark-2.1.1"]
    with pytest.raises(ValueError):
        run_suite(reg, "ch9")


def test_run_suite_flags_unexpected_status():
    bad = Claim("prop-9.9.9", "ClosureProposition", carrier, "g",
                STATUS_COUNTEREXAMPLE, lambda u, rng: (STATUS_HOLDS, None, 1))
    reports, ok = run_suite([bad])
    assert not ok


def test_emit_formats():
    reg = [claim_of("prop-2.1.1")]
    reports, ok = run_suite(reg)
    text = emit(reports, registry=reg)
    assert "prop-2.1.1" in text and "ok" in text
    assert text.strip().endswith("Holds=1")
    data = json.loads(emit(reports, fmt="json"))
    assert data[0]["claim_id"] == "prop-2.1.1"
    assert set(data[0]) == {"claim_id", "status", "witness", "universe",
                            "trials", "elapsed_ms"}
