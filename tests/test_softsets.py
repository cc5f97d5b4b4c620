"""Parameterised families of subsets and their six binary operations."""

from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neutrolab import symbolic as sym
from neutrolab.claims import carrier
from neutrolab.groupring import GroupRing
from neutrolab.ncollect import Component, NCollection
from neutrolab.softsets import (
    OPS,
    SoftSet,
    and_op,
    disjoint_union,
    extended_intersection,
    extended_union,
    is_absolute,
    op_items,
    or_op,
    restricted_intersection,
    restricted_union,
    same_param_intersection,
    soft_ideal_of,
    soft_is,
    soft_lagrange_class,
    soft_neutro_params,
    soft_sub_of,
    value_kind,
)
from neutrolab.structures import (
    cyclic_neutro_group,
    mult_magma,
    neutro_ring,
    param_groupoid,
    sym_group,
)

P4 = frozenset({"0", "2", "2I", "2+2I"})
P3 = frozenset({"0", "2I", "2+2I"})
P2 = frozenset({"0", "2I"})


@pytest.fixture(scope="module")
def g421():
    return param_groupoid(4, 2, 1)


def test_softset_normalises(g421):
    f = SoftSet(g421, {"b": ["0", "2I"], "a": P4})
    assert f.params == ("a", "b")
    assert isinstance(f.value("b"), frozenset)
    with pytest.raises(ValueError):
        SoftSet(g421, {})


def test_ops_table_names():
    assert set(OPS) == {"restricted-intersection", "extended-intersection",
                        "restricted-union", "extended-union", "and", "or"}


def test_restricted_ops_need_shared_params(g421):
    f = SoftSet(g421, {"a1": P4})
    k = SoftSet(g421, {"a2": P3})
    for op in (restricted_intersection, restricted_union):
        with pytest.raises(ValueError):
            op(f, k)


def test_restricted_vs_extended(g421):
    f = SoftSet(g421, {"a1": P4, "a2": P2})
    k = SoftSet(g421, {"a2": P3, "a3": P2})
    ri = restricted_intersection(f, k)
    assert ri.params == ("a2",)
    assert ri.value("a2") == P2 & P3
    ei = extended_intersection(f, k)
    assert ei.params == ("a1", "a2", "a3")
    assert ei.value("a1") == P4 and ei.value("a3") == P2
    ru = restricted_union(f, k)
    assert ru.params == ("a2",)
    assert ru.value("a2") == P2 | P3
    eu = extended_union(f, k)
    assert eu.params == ("a1", "a2", "a3")
    assert eu.value("a2") == P2 | P3


def test_and_or_cross_products(g421):
    f = SoftSet(g421, {"a1": P4})
    k = SoftSet(g421, {"b1": P3, "b2": P2})
    a = and_op(f, k)
    assert a.params == ("a1&b1", "a1&b2")
    assert a.value("a1&b2") == P4 & P2
    o = or_op(f, k)
    assert o.params == ("a1|b1", "a1|b2")
    assert o.value("a1|b1") == P4 | P3


@pytest.mark.parametrize("op, sep", [(and_op, "&"), (or_op, "|")])
def test_crossed_name_collision_raises(g421, op, sep):
    # (x&y, z) and (x, y&z) would both be named x&y&z; one value was dropped
    f = SoftSet(g421, {"x" + sep + "y": P4, "x": P2})
    k = SoftSet(g421, {"z": P2, "y" + sep + "z": P4})
    with pytest.raises(ValueError, match=r"'x\%sy\%sz'" % (sep, sep)):
        op(f, k)


def test_strict_param_preconditions(g421):
    f = SoftSet(g421, {"a1": P4})
    k = SoftSet(g421, {"a1": P3, "a2": P2})
    with pytest.raises(ValueError):
        same_param_intersection(f, k)
    with pytest.raises(ValueError):
        disjoint_union(f, k)
    assert disjoint_union(f, SoftSet(g421, {"a9": P2})).params == ("a1", "a9")


def test_universe_identity_is_required():
    f = SoftSet(param_groupoid(4, 2, 1), {"a1": P4})
    k = SoftSet(param_groupoid(4, 2, 1), {"a1": P3})
    with pytest.raises(ValueError):
        restricted_intersection(f, k)


def test_soft_is_reports_failures(g421):
    good = SoftSet(g421, {"a1": P4, "a2": P2})
    assert soft_is(good, "subgroupoid").ok
    bad = SoftSet(g421, {"a1": P4, "a2": {"0", "1"}})
    rep = soft_is(bad, "subgroupoid")
    assert not rep.ok
    assert [p for p, _ in rep.failures] == ["a2"]
    empty = soft_is(SoftSet(g421, {"a1": []}), "subgroupoid")
    assert not empty.ok
    assert "empty-assignment" in empty.failures[0][1].flags


def test_soft_is_fails_the_assignments_a_predicate_refuses(g421):
    """`lagrange` refuses {0}, which has no indeterminate member: that
    assignment fails with the refusal as its note, as in a hunt, while a
    misspelled predicate still raises before any assignment is decided."""
    rep = soft_is(SoftSet(g421, {"a1": P4, "a2": {"0"}}), "lagrange")
    assert [(p, v.ok, v.note) for p, v in rep.failures] == [
        ("a2", False, "not a strict subgroupoid: closed but has no indeterminate member")]
    with pytest.raises(ValueError, match="lagrnage"):
        soft_is(SoftSet(g421, {"a1": {"0"}}), "lagrnage")


def test_soft_lagrange_classes(g421):
    assert soft_lagrange_class(SoftSet(g421, {"a1": P4, "a2": P2})) == "Lagrange"
    assert soft_lagrange_class(SoftSet(g421, {"a1": P4, "a2": P3})) == "WeaklyLagrange"
    assert soft_lagrange_class(SoftSet(g421, {"a1": P3})) == "LagrangeFree"
    with pytest.raises(ValueError, match="assignment 'a1' is not a strict subgroupoid"):
        soft_lagrange_class(SoftSet(g421, {"a1": {"0", "2"}}))
    # only a refusal reads as "not a strict subgroupoid"; an unknown label
    # is named as itself
    with pytest.raises(ValueError, match="unknown element 'zz'"):
        soft_lagrange_class(SoftSet(g421, {"a1": {"0", "zz"}}))


def test_soft_sub_of(g421):
    f = SoftSet(g421, {"a1": P4, "a2": P3})
    h = SoftSet(g421, {"a1": P2})
    assert soft_sub_of(h, f).ok
    not_inside = SoftSet(g421, {"a1": {"0", "3I"}})
    rep = soft_sub_of(not_inside, f)
    assert not rep.ok and "not inside parent" in rep.failures[0][1].note
    stray = SoftSet(g421, {"zz": P2})
    rep = soft_sub_of(stray, f)
    assert not rep.ok and rep.note == "parameters are not a subset"


def test_soft_ideal_of_absorbs_against_parent():
    g = param_groupoid(12, 8, 4)
    e4 = frozenset({"0", "4", "8", "4I", "8I", "4+4I", "4+8I", "8+4I", "8+8I"})
    full = frozenset(g.elements)
    f = SoftSet(g, {"a1": full, "a2": full})
    h = SoftSet(g, {"a1": e4})
    assert soft_ideal_of(h, f).ok
    rep = soft_ideal_of(SoftSet(g, {"a1": {"0"}}), f)
    assert not rep.ok and "absorbing" in rep.failures[0][1].note


def test_soft_ideal_of_rejects_an_empty_part():
    for u in (param_groupoid(4, 2, 1), neutro_ring(4)):
        full = SoftSet(u, {"a": frozenset(u.elements)})
        rep = soft_ideal_of(SoftSet(u, {"a": set()}), full)
        assert not rep.ok
        v = rep.failures[0][1]
        assert (v.flags, v.note) == (("empty",), "empty subset")


def test_value_algebra(g421):
    gr = GroupRing(2, cyclic_neutro_group(2))
    labels, sums = value_kind(g421), value_kind(gr)
    assert labels.join(frozenset("ab"), frozenset("bc")) == frozenset("abc")
    assert labels.meet(frozenset("ab"), frozenset("bc")) == frozenset("b")
    assert labels.contains(frozenset("a"), frozenset("ab"))
    assert not labels.contains(frozenset("ac"), frozenset("ab"))
    # formal-sum sets meet, join and nest as label sets do
    assert (sums.meet, sums.join, sums.contains) == (labels.meet, labels.join, labels.contains)
    parts = value_kind(NCollection([Component(g421, "groupoid", True),
                                    Component(sym_group(3), "group", False)]))
    parts_a = (frozenset({"0"}), frozenset({"e"}))
    parts_b = (frozenset({"1"}), frozenset({"e", "x"}))
    assert parts.join(parts_a, parts_b) == (frozenset({"0", "1"}),
                                            frozenset({"e", "x"}))
    assert parts.meet(parts_a, parts_b) == (frozenset(), frozenset({"e"}))
    assert parts.contains(parts_a, parts.join(parts_a, parts_b))
    assert not parts.contains(parts_b, parts_a)
    z2, z3 = sym.NamedRing("Z", 2), sym.NamedRing("Z", 3)
    rings = value_kind(z2)
    assert rings.contains(sym.NamedRing("Z", 6), z2) and not rings.contains(z2, z3)
    assert rings.join(z2, rings.join(z3, z2)) == sym.SymUnion((z2, z3))
    with pytest.raises(ValueError, match="no containment"):
        rings.contains(sym.SymUnion((z2, z3)), z2)
    span = sym.SymGroupRing(sym.NamedRing("Z", 1), cyclic_neutro_group(3))
    assert value_kind(span).contains(span, span)


def test_absolute_and_neutro_params(g421):
    full = frozenset(g421.elements)
    assert is_absolute(SoftSet(g421, {"a1": full, "a2": full}))
    assert not is_absolute(SoftSet(g421, {"a1": full, "a2": P4}))
    f = SoftSet(g421, {"a1": P4, "a2": frozenset({"0", "2"})})
    assert soft_neutro_params(f) == ("a1",)


def test_collection_values_with_unknown_labels_or_part_counts_raise():
    pair = NCollection([Component(mult_magma(3), "semigroup", True),
                        Component(mult_magma(4), "semigroup", True)])
    for predicate in ("loose-n-sub", "strong-n-sub", "n-ideal"):
        with pytest.raises(ValueError, match="unknown element 'zz'"):
            soft_is(SoftSet(pair, {"a": (frozenset({"0", "zz"}), frozenset({"0"}))}), predicate)
        with pytest.raises(ValueError, match="expected 2 parts, got 1"):
            soft_is(SoftSet(pair, {"a": (frozenset({"0"}),)}), predicate)
        # only a part that is really empty is the vacuous empty-part case,
        # whether the value comes as a list or as a frozen tuple
        for value in ([{"0"}, ()], (frozenset({"0"}), frozenset())):
            v = soft_is(SoftSet(pair, {"a": value}), predicate).failures[0][1]
            assert not v.ok and v.flags == ("empty-part",)


def test_a_label_set_over_a_collection_raises():
    big = carrier("bi(Z10;2,3 | Z4;2,1)+I")
    # not read one character at a time as the parts "0" and "5I"
    with pytest.raises(ValueError, match="tuple of label sets"):
        SoftSet(big, {"a": {"0", "5I"}})
    with pytest.raises(ValueError, match="set of str members"):
        SoftSet(big, {"a": ["0", "5I"]})


def test_a_part_tuple_over_a_groupoid_raises(g421):
    with pytest.raises(ValueError, match="set of str members"):
        SoftSet(g421, {"a": (P2, P3)})
    with pytest.raises(ValueError, match="set of tuple members"):
        SoftSet(GroupRing(2, cyclic_neutro_group(2)), {"a": {"0", "I"}})
    with pytest.raises(ValueError, match="expected a NamedRing value"):
        SoftSet(sym.NamedRing("Z", 1, True), {"a": P2})


def test_mixed_value_shapes_raise(g421):
    # the extended union of such a soft set would join a label set and a
    # part tuple into a symbolic union
    with pytest.raises(ValueError, match="set of str members"):
        SoftSet(g421, {"a": P4, "b": (P2, P3)})
    with pytest.raises(ValueError, match="tuple of label sets"):
        SoftSet(carrier("bi(Z10;2,3 | Z4;2,1)+I"),
                {"a": (frozenset({"0"}), frozenset({"0"})), "b": P2})


def test_formal_sum_values_with_indeterminate_support():
    gr = GroupRing(2, cyclic_neutro_group(4))
    f = SoftSet(gr, {"a": {gr.zero, gr.parse("I")}, "b": {gr.zero, gr.parse("1+g")}})
    assert soft_neutro_params(f) == ("a",)


def test_absolute_formal_sums_compare_sizes_first(monkeypatch):
    small = GroupRing(2, cyclic_neutro_group(2))
    assert is_absolute(SoftSet(small, {"a": frozenset(small.elements())}))
    big = GroupRing(6, cyclic_neutro_group(4))      # 6^8 formal sums

    def listed(self):
        raise AssertionError("every formal sum listed")

    monkeypatch.setattr(GroupRing, "elements", listed)
    assert not is_absolute(SoftSet(big, {"a": {big.zero, big.parse("I")}}))


def test_symbolic_universes_decide_only_their_union_check():
    zi = sym.NamedRing("Z", 1, True)
    f = SoftSet(zi, {"a": sym.NamedRing("Z", 2, True)})
    assert soft_is(f, "loose-subring").ok
    for name in ("no-such-predicate", "subring", "loose-gr-subring"):
        with pytest.raises(ValueError, match="unknown symbolic predicate"):
            soft_is(f, name)
    span = sym.SymGroupRing(sym.NamedRing("Q"), cyclic_neutro_group(3))
    g = SoftSet(span, {"a": span})
    assert soft_is(g, "loose-gr-subring").ok
    with pytest.raises(ValueError, match="unknown symbolic predicate"):
        soft_is(g, "loose-subring")


# ---------------------------------------------------------------------------
# the operations against a reference over mutable copies

G421 = param_groupoid(4, 2, 1)
LABELS = sorted(G421.elements)
# part tuples live over a collection of two copies of G421
PAIR421 = NCollection([Component(G421, "groupoid", True), Component(G421, "groupoid", True)])
# values drawn from these pools reach the operations as the same objects
SHARED_SETS = [frozenset(), P2, P3, P4, frozenset(LABELS)]
SHARED_PARTS = [(P2, P3), (P4, P4), (frozenset(), P2), (P3, frozenset(LABELS))]


def _label_sets():
    return st.one_of(st.sampled_from(SHARED_SETS), st.frozensets(st.sampled_from(LABELS)))


@st.composite
def soft_pairs(draw):
    if draw(st.booleans()):
        universe, values = G421, _label_sets()
    else:
        universe, values = PAIR421, st.one_of(st.sampled_from(SHARED_PARTS),
                                              st.tuples(_label_sets(), _label_sets()))
    shared = draw(st.lists(values, min_size=1, max_size=3))
    names = st.sets(st.sampled_from(("a1", "a2", "a3", "a4")), min_size=1)
    # operands may repeat one value object, within and across soft sets
    f = {p: draw(st.sampled_from(shared) | values) for p in draw(names)}
    k = {p: draw(st.sampled_from(shared) | values) for p in draw(names)}
    return universe, f, k


def _mutable(value):
    return [set(p) for p in value] if isinstance(value, tuple) else set(value)


def _meet(a, b):
    return [p & q for p, q in zip(a, b)] if isinstance(a, list) else a & b


def _join(a, b):
    return [p | q for p, q in zip(a, b)] if isinstance(a, list) else a | b


def _reference(op_name, f, k):
    """The operation on mutable copies of the operands' values, or None when
    it needs a shared parameter the operands lack."""
    f = {p: _mutable(v) for p, v in f.items()}
    k = {p: _mutable(v) for p, v in k.items()}
    merge = _join if "union" in op_name or op_name == "or" else _meet
    if op_name in ("and", "or"):
        sep = "&" if op_name == "and" else "|"
        return {a + sep + b: merge(f[a], k[b]) for a in f for b in k}
    shared = f.keys() & k.keys()
    if op_name.startswith("restricted"):
        return {p: merge(f[p], k[p]) for p in shared} or None
    return {**k, **f, **{p: merge(f[p], k[p]) for p in shared}}


def _frozen(value):
    return tuple(map(frozenset, value)) if isinstance(value, list) else frozenset(value)


@settings(max_examples=200, deadline=None)
@given(soft_pairs(), st.sampled_from(sorted(OPS)))
def test_ops_match_a_reference_on_mutable_copies(pair, op_name):
    universe, f_assign, k_assign = pair
    f, k = SoftSet(universe, f_assign), SoftSet(universe, k_assign)
    before = (dict(f.assign), dict(k.assign))
    want = _reference(op_name, f_assign, k_assign)
    if want is None:
        with pytest.raises(ValueError, match="shared parameter"):
            OPS[op_name](f, k)
        return
    res = OPS[op_name](f, k)
    assert res.params == tuple(sorted(want))
    # each value is an operand value, or the meet or join of two of them, so
    # a hunt over every pair of population members decides all it can form
    pool = [*f_assign.values(), *k_assign.values()]
    formed = {_frozen(merge(_mutable(a), _mutable(b)))
              for a in pool for b in pool for merge in (_meet, _join)}
    for p in res.params:
        value = res.value(p)
        assert value == _frozen(want[p]), p
        parts = value if isinstance(value, tuple) else (value,)
        assert all(type(part) is frozenset for part in parts)
        assert value in pool or value in formed, p
    assert (f.assign, k.assign) == before


@settings(max_examples=200, deadline=None)
@given(soft_pairs(), st.sampled_from(sorted(OPS)))
def test_op_items_are_the_public_operations(pair, op_name):
    """op_items on the assignment maps gives the public result's pairs in
    order, with the own merge and with a memoised one; every value is an
    operand's object or one the merge returned."""
    universe, f_assign, k_assign = pair
    f, k = SoftSet(universe, f_assign), SoftSet(universe, k_assign)
    own = "join" if "union" in op_name or op_name == "or" else "meet"
    kind = value_kind(universe)
    memo = kind._replace(meet=cache(kind.meet), join=cache(kind.join))
    for merging in (kind, memo):
        made, used = [], set()

        def recorded(name):
            def merge(a, b):
                used.add(name)
                made.append(getattr(merging, name)(a, b))
                return made[-1]
            return merge

        recording = merging._replace(meet=recorded("meet"), join=recorded("join"))
        try:
            want = list(OPS[op_name](f, k).assign.items())
        except ValueError:
            with pytest.raises(ValueError, match="shared parameter"):
                op_items(op_name, f.assign, k.assign, recording)
            continue
        items = op_items(op_name, f.assign, k.assign, recording)
        assert items == want and used <= {own}
        operands = [*f.assign.values(), *k.assign.values(), *made]
        assert all(any(v is o for o in operands) for _, v in items)
        if merging is kind:
            assert items == op_items(op_name, f.assign, k.assign, kind)
            # the public result holds an operand's object where op_items does
            assert all(v is w for (_, v), (_, w) in zip(items, want)
                       if any(w is o for o in (*f.assign.values(), *k.assign.values())))
    if f.params == k.params:
        assert same_param_intersection(f, k).assign == restricted_intersection(f, k).assign
    else:
        with pytest.raises(ValueError, match="equal parameter sets"):
            same_param_intersection(f, k)
    if set(f.params) & set(k.params):
        with pytest.raises(ValueError, match="disjoint parameter sets"):
            disjoint_union(f, k)
    else:
        assert disjoint_union(f, k).assign == extended_union(f, k).assign
    twin = param_groupoid(4, 2, 1) if universe is G421 else NCollection(PAIR421.components)
    other = SoftSet(twin, f.assign)
    for op in (*OPS.values(), same_param_intersection, disjoint_union):
        with pytest.raises(ValueError, match="different universes"):
            op(f, other)


def test_softset_freezes_mutable_inputs_once():
    labels, tup = ["0", "2I"], (["0"], ["0", "2"])
    f = SoftSet(G421, {"a": labels, "b": {"0", "2"}})
    c = SoftSet(PAIR421, {"c": tup})
    labels.append("2")
    tup[0].append("2I")
    assert f.value("a") == frozenset({"0", "2I"}) and type(f.value("a")) is frozenset
    assert f.value("b") == frozenset({"0", "2"}) and type(f.value("b")) is frozenset
    assert c.value("c") == (frozenset({"0"}), frozenset({"0", "2"}))
    assert all(type(p) is frozenset for p in c.value("c"))
    # frozen values are kept as they are, and the operations share them
    parts = (P3, P2)
    g = SoftSet(G421, {"a": P4})
    h = SoftSet(PAIR421, {"c": parts})
    assert g.value("a") is P4 and h.value("c") is parts
    assert extended_union(g, SoftSet(G421, {"z": P2})).value("a") is P4
    assert extended_union(h, SoftSet(PAIR421, {"z": (P2, P2)})).value("c") is parts


def test_value_intersect_with_itself():
    labels, pairs = value_kind(G421), value_kind(PAIR421)
    parts = (P4, P2)
    assert labels.meet(P4, P4) is P4
    assert pairs.meet(parts, parts) is parts
    met = pairs.meet(parts, (P4, P3))
    assert met[0] is P4 and met[1] == P2 & P3
    whole = sym.SymGroupRing(sym.NamedRing("Z", 1, True), cyclic_neutro_group(3))
    assert value_kind(whole).meet(whole, whole) is whole


def test_a_symbolic_span_with_itself_is_that_span():
    """The union and the intersection of a symbolic span with itself are
    the span, not a refusal or a one-member union."""
    span = sym.SymGroupRing(sym.NamedRing("Z"), carrier("cyclic(6)+I"))
    f = SoftSet(span, {"a": span})
    assert extended_union(f, f).assign == {"a": span}
    assert restricted_intersection(f, f).assign == {"a": span}
    kind = value_kind(span)
    assert kind.join(span, sym.SymUnion((span,))) is span
    two = sym.SymGroupRing(sym.NamedRing("Z", 2), span.basis)
    assert kind.join(span, two) == sym.SymUnion((span, two))
    with pytest.raises(ValueError, match="no intersection"):
        kind.meet(span, two)


def test_named_ring_values_meet_through_sym_intersect(monkeypatch):
    calls = []

    def recording(a, b):
        calls.append((a, b))
        return sym.NamedRing("Z", 6)

    monkeypatch.setattr(sym, "sym_intersect", recording)
    z2 = sym.NamedRing("Z", 2, True)
    assert value_kind(z2).meet(z2, z2) == sym.NamedRing("Z", 6)
    assert calls == [(z2, z2)]
