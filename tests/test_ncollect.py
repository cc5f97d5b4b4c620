"""Multi-component carriers: validation, part-wise subs, mixed classification."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neutrolab import claims, engine, ncollect
from neutrolab.claims import carrier
from neutrolab.ncollect import (
    MIXED_DUAL,
    WEAK_MIXED,
    WEAK_MIXED_DUAL,
    Component,
    NCollection,
    classify_mixed,
    is_deficit_sub,
    is_n_ideal,
    is_n_sub,
    lagrange_mixed,
)
from neutrolab.softsets import N_PREDICATES, value_kind
from neutrolab.structures import mult_magma, neutro_ring, param_groupoid, sym_group
from neutrolab.subsets import Verdict, enumerate_subs


@pytest.fixture(scope="module")
def bi():
    return NCollection(
        [Component(mult_magma(3), "semigroup", True),
         Component(mult_magma(6), "semigroup", True)],
        name="bi(3,6)",
    )


def test_mixed_universe_order():
    assert carrier("mixed5(order 68)").order() == 68
    assert len(carrier("mixed5(order 68)")) == 5


def test_component_name_and_tuple_coercion():
    coll = NCollection([(mult_magma(3), "semigroup", True),
                        (sym_group(3), "group", False)])
    assert coll.components[0].name == "mult(Z3+I)"
    assert coll.name == "collection(2)"


def test_classify_mixed_family():
    assert classify_mixed(carrier("mixed5(order 68)")) == WEAK_MIXED
    assert classify_mixed(carrier("dual5")) == MIXED_DUAL
    wmd = NCollection([
        Component(sym_group(3), "group", False),
        Component(mult_magma(10, neutro=False), "semigroup", False),
        Component(mult_magma(3), "semigroup", True),
    ])
    assert classify_mixed(wmd) == WEAK_MIXED_DUAL


def test_is_n_sub_positive(bi):
    v = is_n_sub(bi, ({"0", "1", "I"}, {"0", "1"}))
    assert v.ok
    v = is_n_sub(bi, ({"0", "1"}, {"0", "1"}))
    assert not v.ok and "no-indeterminate" in v.flags
    assert is_n_sub(bi, ({"0", "1"}, {"0", "1"}), require_neutro=False).ok


def test_is_n_sub_failure_names_the_part(bi):
    v = is_n_sub(bi, ({"0", "1", "I"}, {"2", "I"}))
    assert not v.ok
    assert v.witness[0] == 1 and v.witness[1] == "mult(Z6+I)"
    assert v.note.startswith("part 1:")


def test_strong_needs_pure_parts(bi):
    assert is_n_sub(bi, ({"0", "I", "2I"}, {"0", "3I"}), strong=True).ok
    v = is_n_sub(bi, ({"0", "1", "I"}, {"0", "3I"}), strong=True)
    assert not v.ok and "1" in v.witness


def test_empty_part_raises(bi):
    with pytest.raises(ValueError):
        is_n_sub(bi, (set(), {"0"}))
    with pytest.raises(ValueError):
        is_n_ideal(bi, ({"0"}, ()))
    with pytest.raises(ValueError):
        bi.resolve_parts(({"0"},))


def test_is_n_ideal(bi):
    v = is_n_ideal(bi, ({"0", "I", "2I"}, {"0"}))
    assert v.ok
    v = is_n_ideal(bi, ({"0", "1", "I"}, {"0"}))
    assert not v.ok and v.note.startswith("part 0:")
    v = is_n_ideal(bi, ({"0"}, {"0"}))
    assert not v.ok and "no-indeterminate" in v.flags
    assert is_n_ideal(bi, ({"0"}, {"0"}), require_neutro=False).ok


def test_deficit_sub():
    tri = NCollection([
        Component(mult_magma(3), "semigroup", True),
        Component(mult_magma(6), "semigroup", True),
        Component(sym_group(3), "group", False),
    ])
    v = is_deficit_sub(tri, ({"0", "I"}, {"0", "3I"}, ()))
    assert v.ok and "deficit-2-of-3" in v.flags
    assert not is_deficit_sub(tri, ({"0", "I"}, {"0"}, {"e"})).ok
    assert not is_deficit_sub(tri, ({"0", "I"}, (), ())).ok


def test_lagrange_mixed(bi):
    # order 45; the 3+? part sizes decide divisibility
    assert bi.order() == 45
    v = lagrange_mixed(bi, ({"0", "I", "2I"}, {"0", "3", "3I"}))
    assert not v.ok and v.witness == (6, 45)
    assert lagrange_mixed(bi, ({"0", "I", "2I"}, {"0", "2", "4", "3I", "2I", "4I"})).ok
    with pytest.raises(ValueError):
        lagrange_mixed(bi, ({"0", "1"}, {"2"}))


def test_loop_parts_need_an_inner_identity():
    dual = carrier("dual5")
    parts = ({"e", "3"}, {"e"}, {"0", "1"}, {"0"}, {"eI", "3I"})
    assert is_n_sub(dual, parts).ok


def test_validation_rejects_bad_components():
    with pytest.raises(ValueError):
        NCollection([Component(mult_magma(3), "semigroup", True)])
    with pytest.raises(ValueError):
        NCollection([Component(mult_magma(3), "flock", True),
                     Component(mult_magma(6), "semigroup", True)])
    with pytest.raises(ValueError):   # plain tag but I-labelled carrier
        NCollection([Component(mult_magma(3), "semigroup", False),
                     Component(mult_magma(6), "semigroup", True)])
    with pytest.raises(ValueError):   # indeterminate tag but no I labels
        NCollection([Component(sym_group(3), "group", True),
                     Component(mult_magma(6), "semigroup", True)])
    with pytest.raises(ValueError):   # ring tag needs a ring carrier
        NCollection([Component(mult_magma(3), "ring", True),
                     Component(mult_magma(6), "semigroup", True)])
    with pytest.raises(ValueError):   # ring carrier needs the ring tag
        NCollection([Component(neutro_ring(2), "semigroup", True),
                     Component(mult_magma(6), "semigroup", True)])
    with pytest.raises(ValueError):   # plain component failing its axioms
        NCollection([Component(mult_magma(10, neutro=False), "group", False),
                     Component(mult_magma(6), "semigroup", True)])
    with pytest.raises(ValueError):   # must contain an indeterminate member
        NCollection([Component(sym_group(3), "group", False),
                     Component(mult_magma(10, neutro=False), "semigroup", False)])


def test_neutro_component_skips_kind_axioms():
    # an I-carrying component keeps its declared tag even when the axioms
    # fail on the doubled carrier: declared kinds are bookkeeping there
    coll = NCollection([Component(param_groupoid(4, 2, 1), "group", True),
                        Component(mult_magma(6), "semigroup", True)])
    assert coll.components[0].alg == "group"


def test_ring_components_join_collections():
    coll = NCollection([Component(neutro_ring(2), "ring", True),
                        Component(mult_magma(6), "semigroup", True)])
    assert coll.order() == 4 + 36
    assert is_n_sub(coll, ({"0", "I"}, {"0", "1"})).ok


def test_a_bare_string_is_not_a_part(bi):
    for parts in (("2I", "1"), "2I", ({"2I"}, "1")):
        with pytest.raises(ValueError, match="sequence of label sets"):
            is_n_sub(bi, parts)
    assert is_n_sub(bi, ({"0", "I"}, {"0", "1"})).ok


def test_a_pair_sweep_decides_each_distinct_part_once(monkeypatch):
    """The sampled N-collection row's pair sweep meets every ordered pair of
    its pool, and each distinct (component, part) of the values it forms is
    decided once."""
    decided = Counter()
    part_verdict = ncollect._part_verdict

    def counted(comp, labels, strong):
        decided[id(comp), labels] += 1
        return part_verdict(comp, labels, strong)

    monkeypatch.setattr(ncollect, "_part_verdict", counted)
    pool = claims.mixed_sub_pool()
    status, _, trials = engine.run_closure_prop(carrier("mixed5(order 68)"), pool,
                                                "loose-n-sub", random.Random(0), spot=0)
    assert (status, trials) == (engine.STATUS_HOLDS, len(pool) + len(pool) ** 2)
    assert decided and set(decided.values()) == {1}
    # the values share parts: without the memo they would be decided again
    assert len(decided) < sum(map(len, pool))


MEMO_COLLECTION = NCollection([Component(mult_magma(3), "semigroup", True),
                               Component(mult_magma(4), "loop", True),
                               Component(neutro_ring(2), "ring", True),
                               Component(sym_group(3), "group", False)])


def _palette(comp):
    """A few parts of a component: its closed ones, which the check passes
    or fails on its extra tests, and some sets that are not closed."""
    s = comp.structure
    closed = enumerate_subs(s, "loose-subring" if comp.alg == "ring" else "loose-subgroupoid")
    rng = random.Random(s.name)
    loose = [frozenset(rng.sample(s.elements, k)) for k in (2, 3, 3, 4)]
    return closed[:6] + closed[-3:] + loose + [frozenset()]


MEMO_PALETTES = [_palette(c) for c in MEMO_COLLECTION.components]


def _reference(name, parts):
    """A fresh ncollect check of `parts`, as softsets' deciders read them."""
    if not all(parts):
        return Verdict(False, flags=("empty-part",), note="empty part")
    options = N_PREDICATES[name]
    if options.get("ideal"):
        return is_n_ideal(MEMO_COLLECTION, parts, options.get("require_neutro", True))
    return is_n_sub(MEMO_COLLECTION, parts, strong=options.get("strong", False),
                    require_neutro=options.get("require_neutro", True))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(*(st.sampled_from(p) for p in MEMO_PALETTES)), min_size=1,
                max_size=12))
def test_the_memoised_decider_matches_a_fresh_check(values):
    """One decider per predicate decides the values in turn, with parts
    shared between them, and each verdict (status, witness, flags, note) is
    what a fresh is_n_sub / is_n_ideal call returns; an empty part fails
    flagged."""
    decide = value_kind(MEMO_COLLECTION).decide
    for name in N_PREDICATES:
        decider = decide(MEMO_COLLECTION, name)
        for parts in values + values[::-1]:
            assert decider(parts) == _reference(name, parts), (name, parts)
