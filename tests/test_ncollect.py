"""Multi-component carriers: validation, part-wise subs, mixed classification."""

import pytest

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
from neutrolab.structures import mult_magma, neutro_ring, param_groupoid, sym_group


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
