"""Named infinite carriers (nZ, Q, R, C, their I-extensions) and their unions."""

import itertools

import pytest

from neutrolab.structures import cyclic_neutro_group
from neutrolab.symbolic import (
    NamedRing,
    SymGroupRing,
    SymUnion,
    rep_outside,
    sym_contains,
    sym_gr_contains,
    sym_gr_ideal_of,
    sym_gr_subring_of,
    sym_ideal_of,
    sym_intersect,
    sym_is_field,
    sym_is_neutro_field,
    sym_subring_of,
    sym_union_substructure,
)

Z = NamedRing()
Q = NamedRing("Q")
R = NamedRing("R")
ZI = NamedRing("Z", 1, True)
Z2 = NamedRing("Z", 2)
Z3 = NamedRing("Z", 3)
Z4 = NamedRing("Z", 4)
Z5 = NamedRing("Z", 5)
Z2I = NamedRing("Z", 2, True)


def test_names():
    assert Z.name == "Z"
    assert Z2.name == "2Z"
    assert Z2I.name == "<2Z u I>"
    assert Q.name == "Q"
    assert str(SymUnion((Z2, Z3))) == "2Z u 3Z"


def test_constructor_validation():
    with pytest.raises(ValueError):
        NamedRing("F")
    with pytest.raises(ValueError):
        NamedRing("Z", 0)
    with pytest.raises(ValueError):
        NamedRing("Q", 2)


def test_containment_table():
    assert sym_contains(Z2, Z)
    assert not sym_contains(Z, Z2)
    assert sym_contains(Z4, Z2)
    assert not sym_contains(Z2, Z4)
    assert sym_contains(Z, Q) and sym_contains(Q, R)
    assert not sym_contains(Q, Z)
    assert not sym_contains(ZI, Z)       # indeterminate part escapes
    assert sym_contains(Z, ZI)
    assert sym_contains(Z2I, ZI)


def test_intersections():
    assert sym_intersect(Z2, Z3) == NamedRing("Z", 6)
    assert sym_intersect(Z4, NamedRing("Z", 6)) == NamedRing("Z", 12)
    assert sym_intersect(Z, Q) == Z
    assert sym_intersect(Q, R) == Q
    assert sym_intersect(Z2I, NamedRing("Z", 3, True)) == NamedRing("Z", 6, True)
    assert sym_intersect(Z2I, Z3) == NamedRing("Z", 6)   # I only survives on both sides


def test_field_flags():
    assert sym_is_field(Q) and sym_is_field(R)
    assert not sym_is_field(Z)
    assert not sym_is_field(NamedRing("Q", neutro=True))
    assert sym_is_neutro_field(NamedRing("Q", neutro=True))
    assert not sym_is_neutro_field(ZI)


def test_rep_outside():
    assert rep_outside(Z2, Z4) == "2"
    assert rep_outside(Q, Z) == "1/2"
    assert rep_outside(ZI, Z) == "I"
    assert rep_outside(Z2I, Z2) == "2I"
    with pytest.raises(ValueError):
        rep_outside(Z4, Z2)


def test_subring_and_ideal_verdicts():
    assert sym_subring_of(Z2, Z).ok
    assert sym_ideal_of(Z2, Z).ok                      # nZ absorbs Z
    v = sym_subring_of(ZI, Z)
    assert not v.ok and v.witness == ("I",)
    v = sym_ideal_of(Z, Q)
    assert not v.ok and v.witness == ("1/2", "absorb")
    assert sym_ideal_of(Q, Q).ok


def test_sym_group_ring_names_and_validation():
    basis = cyclic_neutro_group(4)
    full = SymGroupRing(Z, basis)
    assert full.name == "Z<%s>" % basis.name
    part = SymGroupRing(Z, basis, {"1", "g^2"})
    assert part.name == "Z<{1,g^2}>"
    with pytest.raises(ValueError):
        SymGroupRing(Z, basis, {"nope"})
    with pytest.raises(ValueError):
        SymGroupRing(Z, basis, frozenset())


def test_sym_gr_containment_and_subring():
    basis = cyclic_neutro_group(4)
    full = SymGroupRing(Z, basis)
    closed = SymGroupRing(Z, basis, {"1", "g^2"})
    assert sym_gr_contains(closed, full)
    assert not sym_gr_contains(full, closed)
    assert sym_gr_subring_of(closed, full).ok
    open_sub = SymGroupRing(Z, basis, {"1", "g"})
    v = sym_gr_subring_of(open_sub, full)
    assert not v.ok and "not closed" in v.note
    q_inner = SymGroupRing(Q, basis, {"1", "g^2"})
    v = sym_gr_subring_of(q_inner, full)
    assert not v.ok and "coefficient escapes" in v.note


def test_sym_gr_ideal():
    basis = cyclic_neutro_group(4)
    full = SymGroupRing(Z, basis)
    pure = SymGroupRing(Z, basis, {"I", "gI", "g^2I", "g^3I"})
    assert sym_gr_ideal_of(pure, full).ok
    reals = SymGroupRing(Z, basis, {"1", "g", "g^2", "g^3"})
    v = sym_gr_ideal_of(reals, full)
    assert not v.ok and "absorbing" in v.note
    coarse = SymGroupRing(NamedRing("Z", 8), basis)
    fine = SymGroupRing(Z2, basis)
    assert sym_gr_ideal_of(coarse, fine).ok            # 8Z spans sit inside 2Z spans


def test_union_collapse_vs_cross_sum():
    v = sym_union_substructure(SymUnion((Z2, Z)))
    assert v.ok and v.witness == ("Z",)
    v = sym_union_substructure(SymUnion((Z2, Z3)))
    assert not v.ok
    assert v.witness == ("3", "2", "add", "3+2")
    assert sym_union_substructure(SymUnion(())).flags == ("empty",)


def test_union_verdict_does_not_depend_on_member_order():
    verdicts = {(v.ok, v.witness) for v in
                (sym_union_substructure(SymUnion(order))
                 for order in itertools.permutations((Z2, Z3, Z)))}
    assert verdicts == {(True, ("Z",))}
    for order in itertools.permutations((Z2, Z3, Z4)):
        assert not sym_union_substructure(SymUnion(order)).ok


def test_three_member_escape_lies_in_no_member():
    v = sym_union_substructure(SymUnion((Z2, Z3, Z5)))
    assert not v.ok and v.note == "cross sum lies outside every member"
    a, b, op, total = v.witness
    assert op == "add" and total == "%s+%s" % (a, b)
    escape = int(a) + int(b)
    assert all(escape % m for m in (2, 3, 5))


def test_union_of_spans():
    basis = cyclic_neutro_group(4)
    a = SymGroupRing(Z, basis, {"1", "g^2"})
    b = SymGroupRing(Z, basis, {"1", "g", "g^2", "g^3"})
    v = sym_union_substructure(SymUnion((a, b)))
    assert v.ok and v.witness == (b.name,)
    c = SymGroupRing(Z, basis, {"I", "g^2I"})
    v = sym_union_substructure(SymUnion((a, c)))
    assert not v.ok and v.witness[2] == "add"


QI = NamedRing("Q", 1, True)


def test_irrational_and_indeterminate_cross_sum_escapes_both():
    # sqrt(2) lies in R but not in <Q u I>, I the other way round; their sum
    # has an irrational real part and an I part, so neither member holds it
    v = sym_union_substructure(SymUnion((R, QI)))
    assert not v.ok
    assert v.witness == ("I", "sqrt(2)", "add", "I+sqrt(2)")
    assert v.note == "cross sum lies outside every member"


def test_span_escapes_by_coefficient_or_by_basis_term():
    basis = cyclic_neutro_group(4)
    v = sym_gr_subring_of(SymGroupRing(Q, basis, {"1", "g^2"}), SymGroupRing(Z, basis))
    assert (v.ok, v.witness, v.note) == (False, ("1/2",), "coefficient escapes")
    v = sym_gr_subring_of(SymGroupRing(Z, basis, {"1", "g^2"}),
                          SymGroupRing(Z, basis, {"1", "g"}))
    assert (v.ok, v.witness, v.note) == (False, ("g^2",), "basis term escapes")


def test_ideal_verdicts_that_fail_by_absorption_or_by_containment():
    v = sym_ideal_of(Z2, Q)                            # 2Z sits in Q but 1/2 * 2 = 1
    assert not v.ok and v.witness == ("1/2", "absorb") and v.flags == ()
    v = sym_ideal_of(QI, Q)
    assert not v.ok and v.witness == ("I",) and v.flags == ("not-substructure",)
    basis = cyclic_neutro_group(4)
    v = sym_gr_ideal_of(SymGroupRing(Z, basis), SymGroupRing(Q, basis))
    assert not v.ok and v.witness == ("1/2", "absorb")
    assert v.note == "coefficient multiples leave the inner span"
