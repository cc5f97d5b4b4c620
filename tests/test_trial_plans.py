"""Operation plans and the sweeps that run on them, against a reference
oracle: the closure sweep and the hunt as they were written before plans,
with one `softsets.op_items` call per trial and `Random.choice` draws.
Status, witness and trials must agree on every input, seed and operation."""

import random
from functools import cache
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neutrolab import claims, engine
from neutrolab import symbolic as sym
from neutrolab.engine import (
    STATUS_COUNTEREXAMPLE,
    STATUS_HOLDS,
    STATUS_SKIPPED_BUDGET,
    _closure_failure,
    _fail_witness,
    _op_plan,
    _remark_violation,
    _replay_witness,
    run_closure_prop,
    run_remark_hunt,
)
from neutrolab.io import json_plain, soft_to_dict
from neutrolab.ncollect import Component, NCollection
from neutrolab.softsets import OPS, SoftSet, Uncombinable, op_items, value_kind
from neutrolab.structures import mult_magma
from neutrolab.subsets import Verdict, enumerate_subs

# ---------------------------------------------------------------------------
# the reference oracle: one op_items call per trial


def _items_trial(op_name, f, k, fails, kind):
    items = op_items(op_name, f, k, kind)
    for n, (p, value) in enumerate(items, 1):
        v = fails(value)
        if v is not None:
            return n, (p, value, v)
    return len(items), None


def _dump(universe, assign):
    return soft_to_dict(SoftSet._of_frozen(universe, assign))


def oracle_closure_prop(universe, population, predicate, rng, ops, spot):
    kind = value_kind(universe)
    population = [kind.freeze(universe, v) for v in population]
    fails = cache(_closure_failure(universe, predicate))
    for val in population:
        v = fails(val)
        if v is not None:
            raise RuntimeError(
                "population member fails its own predicate (%s): %s"
                % (predicate, v.note))
    trials = len(population)
    for a in population:
        for b in population:
            trials += 1
            v = fails(kind.meet(a, b))
            if v is not None:
                return (STATUS_COUNTEREXAMPLE,
                        _fail_witness("pair-intersection", v,
                                      lhs=kind.dump(universe, a),
                                      rhs=kind.dump(universe, b)),
                        trials)
    checked = 0
    for _ in range(spot if population else 0):
        f = {"p1": rng.choice(population)}
        if rng.random() < 0.5:
            f["p2"] = rng.choice(population)
        k = {"p1": rng.choice(population)}
        if rng.random() < 0.5:
            k["p3"] = rng.choice(population)
        op_name = ops[checked % len(ops)]
        n, failure = _items_trial(op_name, f, k, fails, kind)
        checked += n
        if failure is not None:
            p, _, v = failure
            return (STATUS_COUNTEREXAMPLE,
                    _fail_witness("soft-op", v, op=op_name, param=p,
                                  lhs=_dump(universe, f), rhs=_dump(universe, k)),
                    trials + checked)
    return STATUS_HOLDS, None, trials + checked


def oracle_remark_hunt(universe, op_name, predicate, rng=None, pinned=None,
                       population=None, budget=engine.DEFAULT_BUDGET, exhaustive=False,
                       pin_check=None):
    kind = value_kind(universe)
    fails = cache(_remark_violation(universe, predicate))
    trials = 0

    def hunt(f, k, check=None):
        nonlocal trials
        try:
            n, failure = _items_trial(op_name, f, k, fails, kind)
        except Uncombinable:
            return None
        trials += n
        if failure is None:
            return None
        p, value, v = failure
        witness = _fail_witness("union-violation", v, op=op_name, param=p,
                                lhs=_dump(universe, f), rhs=_dump(universe, k),
                                result=kind.dump(universe, value))
        gap = check(universe, value) if check is not None else None
        if gap:
            witness.update(json_plain(gap))
        if not _replay_witness(universe, op_name, predicate, witness):
            raise RuntimeError("hunt witness failed to replay")
        return witness

    if pinned is not None:
        witness = hunt(SoftSet(universe, pinned[0]).assign,
                       SoftSet(universe, pinned[1]).assign, pin_check)
        if witness is not None:
            return STATUS_COUNTEREXAMPLE, witness, trials

    ordered = sorted((kind.freeze(universe, v) for v in population or ()),
                     key=lambda v: (kind.size(v), repr(kind.dump(universe, v))))
    for a, b in product(ordered, repeat=2):
        if trials >= budget:
            return STATUS_SKIPPED_BUDGET, {"budget": budget}, trials
        witness = hunt({"p1": a}, {"p1": b})
        if witness is not None:
            return STATUS_COUNTEREXAMPLE, witness, trials
    if exhaustive and ordered:
        return STATUS_HOLDS, None, trials
    return STATUS_SKIPPED_BUDGET, {"budget": budget}, trials


def outcome(fn, *args, **kwargs):
    """What a call returns, or the type and text of what it raises."""
    try:
        return "returned", fn(*args, **kwargs)
    except Exception as exc:     # compared, never swallowed: both sides must agree
        return "raised", type(exc).__name__, str(exc)


# ---------------------------------------------------------------------------
# populations of the three finite value kinds

PAIR = NCollection([Component(mult_magma(3), "semigroup", True),
                    Component(mult_magma(4), "semigroup", True)])


@cache
def _parts():
    """Part tuples over PAIR: closed parts of each component, combined."""
    rng = random.Random("trial-plans:parts")
    lists = [sorted(enumerate_subs(c.structure, "loose-subgroupoid"), key=sorted)
             for c in PAIR.components]
    return tuple(tuple(rng.choice(parts) for parts in lists) for _ in range(24))


def _named_rings():
    """nZ and <nZ u I>: their meets are named rings, their unions may fail."""
    return tuple(sym.NamedRing("Z", m, neutro) for m in (1, 2, 3, 6) for neutro in (False, True))


def _spans():
    """Spans over cyclic(6)+I, some written as their coefficient ring: two
    different spans have no symbolic meet, so a pair sweep meeting them raises."""
    return (sym.NamedRing("Z"), sym.NamedRing("Z", 2, True),
            claims._sym6(sym.NamedRing("Z", 1, True)),
            claims._sym6(sym.NamedRing("Z"), {"1", "g^3"}),
            claims._sym6(sym.NamedRing("Z", 3), {"1", "g^3", "I", "g^3I"}))


# name -> (universe, members, predicates its members satisfy)
KINDS = {
    "labels": (lambda: claims.carrier("ring(Z6+I)"), claims.subrings_6,
               ("loose-subring", "subring")),
    "groupoid": (lambda: claims.carrier("groupoid(4;2,1)"), claims.subgroupoids_421,
                 ("loose-subgroupoid", "subgroupoid")),
    "parts": (lambda: PAIR, _parts, ("loose-n-sub", "n-sub")),
    "sums": (lambda: claims.carrier("Z2<cyclic(4)+I>"),
             lambda: claims.span_population("z2c4"),
             ("loose-gr-subring", "gr-subneutro")),
    "named": (lambda: sym.NamedRing("Z", 1, True), _named_rings, ("loose-subring",)),
    "spans": (lambda: claims._sym6(sym.NamedRing("Z", 1, True)), _spans,
              ("loose-gr-subring",)),
}


@st.composite
def populations(draw):
    """(universe, members, sample, predicate): a kind's universe and
    members, a sample of the members with repeats, and a predicate they may
    or may not all satisfy."""
    make, members, predicates = KINDS[draw(st.sampled_from(sorted(KINDS)))]
    pool = members()
    sample = draw(st.lists(st.sampled_from(pool), max_size=8))
    return make(), pool, sample, draw(st.sampled_from(predicates))


ops_lists = st.lists(st.sampled_from(sorted(OPS)), min_size=1, max_size=3).map(tuple)


@settings(max_examples=150, deadline=None)
@given(populations(), ops_lists, st.integers(0, 60), st.integers(0, 2**32))
def test_closure_sweep_matches_the_oracle(drawn, ops, spot, seed):
    universe, _, population, predicate = drawn
    rng, ref_rng = random.Random(seed), random.Random(seed)
    got = outcome(run_closure_prop, universe, population, predicate, rng, ops, spot)
    want = outcome(oracle_closure_prop, universe, population, predicate, ref_rng, ops, spot)
    assert got == want
    assert rng.getstate() == ref_rng.getstate()


# keys that two crossed pairs can share: x&y with z, and x with y&z
KEYS = ("p1", "p2", "x", "y", "z", "x&y", "y&z", "x|y", "y|z")


@st.composite
def assignment_pairs(draw):
    """(universe, (f, k), population, predicate): two assignment maps of a
    kind's members, and a population of that kind."""
    universe, pool, population, predicate = draw(populations())
    maps = tuple(draw(st.dictionaries(st.sampled_from(KEYS), st.sampled_from(pool),
                                      min_size=1, max_size=3)) for _ in "fk")
    return universe, maps, population, predicate


@settings(max_examples=150, deadline=None)
@given(assignment_pairs(), st.sampled_from(sorted(OPS)), st.booleans(),
       st.integers(1, 120), st.booleans())
def test_hunt_matches_the_oracle(drawn, op_name, pin, budget, exhaustive):
    universe, pinned, population, predicate = drawn
    args = (universe, op_name, predicate, random.Random(0))
    kwargs = dict(pinned=pinned if pin else None, population=population, budget=budget,
                  exhaustive=exhaustive)
    assert outcome(run_remark_hunt, *args, **kwargs) == \
        outcome(oracle_remark_hunt, *args, **kwargs)


def test_pinned_multi_parameter_pairs_match_the_oracle():
    """Pinned pairs of several parameters, under every operation, including
    a crossed-name clash that makes no trial."""
    ring = claims.carrier("ring(Z6+I)")
    subs = claims.subrings_6()
    pins = [({"a": subs[3], "b": subs[7]}, {"b": subs[9], "c": subs[12]}),
            ({"x&y": subs[4], "x": subs[10]}, {"z": subs[8], "y&z": subs[15]}),
            ({"x|y": subs[4], "x": subs[10]}, {"z": subs[8], "y|z": subs[15]}),
            ({"a": subs[2]}, {"b": subs[5]})]
    seen = set()
    for (f, k), op_name in product(pins, sorted(OPS)):
        args = (ring, op_name, "loose-subring")
        kwargs = dict(pinned=(f, k), population=subs[:6], budget=30)
        got = outcome(run_remark_hunt, *args, **kwargs)
        assert got == outcome(oracle_remark_hunt, *args, **kwargs)
        seen.add(got[1][0])
    assert seen == {STATUS_COUNTEREXAMPLE, STATUS_SKIPPED_BUDGET}


def test_every_registered_claim_matches_the_oracle(monkeypatch):
    """Every row, seeds 0-19, with the sweeps swapped for the oracle."""
    registry = claims.registry()
    got = [engine.run_claim(c, seed) for seed in range(20) for c in registry]
    monkeypatch.setattr(claims, "run_closure_prop", oracle_closure_prop)
    monkeypatch.setattr(claims, "run_remark_hunt", oracle_remark_hunt)
    want = [engine.run_claim(c, seed) for seed in range(20) for c in registry]
    assert [(r.claim_id, r.status, r.witness, r.trials) for r in got] == \
        [(r.claim_id, r.status, r.witness, r.trials) for r in want]


# ---------------------------------------------------------------------------
# the plan itself


@settings(max_examples=300, deadline=None)
@given(assignment_pairs(), st.sampled_from(sorted(OPS)))
def test_a_plan_replayed_on_values_is_op_items(pair, op_name):
    universe, (f, k), _, _ = pair
    kind = value_kind(universe)
    want = outcome(op_items, op_name, f, k, kind)
    got = outcome(_op_plan, op_name, tuple(f), tuple(k))
    if got[0] == "raised":
        assert got[1] == "Uncombinable" and got == want
        return
    # a symbolic meet that refuses its pair raises when the plan is replayed
    pool = [*f.values(), *k.values()]
    assert outcome(lambda: [(p, pool[i] if merge is None
                             else getattr(kind, merge)(pool[i], pool[j]))
                            for p, merge, i, j in got[1]]) == want


def test_a_crossed_name_clash_raises_the_operations_uncombinable():
    f, k = {"x&y": 0, "x": 1}, {"z": 2, "y&z": 3}
    with pytest.raises(Uncombinable, match="'x&y&z' names two pairs"):
        _op_plan("and", tuple(f), tuple(k))
    with pytest.raises(Uncombinable, match="shared parameter"):
        _op_plan("restricted-union", ("a",), ("b",))
    assert _op_plan("or", tuple(f), tuple(k))     # "|" names do not clash here


class Recording(random.Random):
    """A Random that logs what it draws; it draws through getrandbits, as
    random.Random does."""

    def __init__(self, seed):
        self.log = []
        super().__init__(seed)

    def getrandbits(self, k):
        r = super().getrandbits(k)
        self.log.append(("bits", k, r))
        return r

    def random(self):
        r = super().random()
        self.log.append(("coin", r))
        return r


def test_spot_draws_are_random_choice():
    """The spot sweep draws its pairs as Random.choice draws from the
    population: the same indices and coins, and the same state after, on
    populations of 1 to 70 members."""
    g = claims.carrier("groupoid(4;2,1)")
    spot = 25
    for size, seed in product(range(1, 71), (0, 1)):
        rng = Recording(seed)
        out = run_closure_prop(g, [frozenset({"0"})] * size, "loose-subgroupoid", rng,
                               ("restricted-intersection",), spot)
        assert out == (STATUS_HOLDS, None, size + size * size + spot)
        ref, picks = Recording(seed), []
        for _ in range(spot):
            for _side in "fk":
                picks.append(ref.choice(range(size)))
                if ref.random() < 0.5:
                    picks.append(ref.choice(range(size)))
        assert rng.log == ref.log
        assert [r for tag, *_, r in rng.log if tag == "bits" and r < size] == picks
        assert rng.getstate() == ref.getstate()


# ---------------------------------------------------------------------------
# refusals up front


def counting_predicate():
    calls = []

    def predicate(universe, value):
        calls.append(value)
        return Verdict(True)
    return predicate, calls


def test_an_unknown_operation_is_refused_before_any_trial():
    g = claims.carrier("groupoid(4;2,1)")
    population = claims.subgroupoids_421()
    predicate, calls = counting_predicate()
    message = r"unknown operation 'extended-unoin'; choices: restricted-intersection, "
    with pytest.raises(ValueError, match=message):
        run_closure_prop(g, population, predicate, random.Random(0), ("extended-unoin",))
    with pytest.raises(ValueError, match=message):
        run_closure_prop(g, population, predicate, random.Random(0),
                         ("and", "extended-unoin"), spot=0)
    with pytest.raises(ValueError, match=message):
        run_remark_hunt(g, "extended-unoin", predicate, pinned=({"a": {"0"}}, {"a": {"0"}}),
                        population=population)
    assert calls == []


def test_an_empty_ops_and_a_negative_spot_are_refused():
    g = claims.carrier("groupoid(4;2,1)")
    population = claims.subgroupoids_421()
    predicate, calls = counting_predicate()
    with pytest.raises(ValueError, match="at least one operation"):
        run_closure_prop(g, population, predicate, random.Random(0), (), spot=5)
    with pytest.raises(ValueError, match="spot must be at least 0, got -3"):
        run_closure_prop(g, population, predicate, random.Random(0), spot=-3)
    assert calls == []
    # no spot sweep needs no operation
    out = run_closure_prop(g, population, "loose-subgroupoid", random.Random(0), (), spot=0)
    assert out == (STATUS_HOLDS, None, 54 + 54 * 54)
