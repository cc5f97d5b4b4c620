"""Convolution algebra over a finite magma basis, coefficients mod r.

The 256-element algebra with coefficients mod 2 over the order-8 cyclic
neutro semigroup is the main fixture: its additive side is checked
exhaustively against the coefficient-vector XOR oracle, its multiplicative
laws on seeded random triples.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neutrolab.groupring import GroupRing, group_ring
from neutrolab.structures import ResourceCap, cyclic_neutro_group, sym_group


def gr256():
    return GroupRing(2, cyclic_neutro_group(4))


def to_mask(x):
    """Coefficient vector of an element packed into an int (r=2 only)."""
    m = 0
    for i, c in x:
        m |= c << i
    return m


def test_element_count_and_canonical_forms():
    gr = gr256()
    els = list(gr.elements())
    assert len(els) == 256 == len(gr)
    assert len(set(els)) == 256
    assert gr.zero in els
    for x in els:
        assert all(c == 1 for _, c in x)
        assert list(x) == sorted(x)


def test_additive_group_exhaustive_via_xor_oracle():
    """add agrees with coefficient XOR on all 2^16 pairs; XOR is an abelian
    group on bit vectors, so identity/inverse/assoc/commutativity transfer."""
    gr = gr256()
    els = list(gr.elements())
    by_mask = {to_mask(x): x for x in els}
    for x in els:
        mx = to_mask(x)
        assert gr.add(gr.zero, x) == x
        assert gr.add(x, gr.neg(x)) == gr.zero
        for y in els:
            assert gr.add(x, y) == by_mask[mx ^ to_mask(y)]


def test_mul_assoc_and_distrib_seeded_sample():
    gr = gr256()
    els = list(gr.elements())
    rng = random.Random(0)
    for _ in range(20_000):
        x, y, z = rng.choice(els), rng.choice(els), rng.choice(els)
        assert gr.mul(gr.mul(x, y), z) == gr.mul(x, gr.mul(y, z))
        assert gr.mul(x, gr.add(y, z)) == gr.add(gr.mul(x, y), gr.mul(x, z))
        assert gr.mul(gr.add(x, y), z) == gr.add(gr.mul(x, z), gr.mul(y, z))


def test_convolution_oracles():
    gr = gr256()
    g = gr.monomial("g")
    w = gr.parse("I+gI+g^2I+g^3I")
    assert gr.mul(w, g) == w                       # basis rotation fixes the sum
    assert gr.mul(gr.monomial("g^2"), gr.monomial("g^3")) == gr.monomial("g")
    assert gr.mul(gr.monomial("gI"), gr.monomial("g^3I")) == gr.monomial("I")
    v = gr.parse("1+g+g^2+g^3")
    assert gr.mul(v, gr.monomial("I")) == w        # I soaks the real part
    assert gr.mul(v, v) == gr.zero                 # 4 copies of each power, mod 2


def test_generated_ideals():
    gr = gr256()
    v = gr.parse("1+g+g^2+g^3")
    w = gr.parse("I+gI+g^2I+g^3I")
    vw = gr.add(v, w)
    assert frozenset(gr.generated_ideal([v])) == frozenset({gr.zero, v, w, vw})
    assert frozenset(gr.generated_ideal([w])) == frozenset({gr.zero, w})
    assert frozenset(gr.generated_ideal([vw])) == frozenset({gr.zero, vw})
    full = gr.generated_ideal([gr.monomial("1")])
    assert len(full) == 256


# the last basis does not commute, so a one-sided ideal would differ
IDEAL_RINGS = [GroupRing(2, cyclic_neutro_group(2)), GroupRing(3, cyclic_neutro_group(2)),
               GroupRing(2, cyclic_neutro_group(3, semigroup=True)), GroupRing(2, sym_group(3))]
IDEAL_ELEMENTS = [list(gr.elements()) for gr in IDEAL_RINGS]


def brute_ideal(gr, everything, gens):
    """Fixpoint of {0} and `gens` under +, negation and multiplication by
    every element on both sides."""
    ideal = {gr.zero, *gens}
    while True:
        grown = set(ideal)
        grown.update(gr.neg(a) for a in ideal)
        grown.update(gr.add(a, b) for a in ideal for b in ideal)
        grown.update(p for a in ideal for e in everything
                     for p in (gr.mul(e, a), gr.mul(a, e)))
        if grown == ideal:
            return frozenset(ideal)
        ideal = grown


@settings(max_examples=40, deadline=None)
@given(st.integers(0, len(IDEAL_RINGS) - 1), st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=2))
def test_generated_ideal_matches_brute_force(which, picks):
    gr, everything = IDEAL_RINGS[which], IDEAL_ELEMENTS[which]
    gens = [everything[k % len(everything)] for k in picks]
    assert gr.generated_ideal(gens) == brute_ideal(gr, everything, gens)


def test_generated_ideal_over_the_cap_names_it():
    gr = GroupRing(6, cyclic_neutro_group(4))
    with pytest.raises(ResourceCap, match="4096"):
        gr.generated_ideal([gr.monomial("1")])


def test_generated_ideal_cap_names_its_setting():
    gr = GroupRing(6, cyclic_neutro_group(4))
    with pytest.raises(ResourceCap, match=r"closure reached 4097 members, "
                                          r"over subsets\.IDEAL_CAP = 4096"):
        gr.generated_ideal([gr.monomial("1")])


def test_parse_format_oracles():
    gr = gr256()
    assert gr.format(gr.zero) == "0"
    assert gr.parse("0") == gr.zero
    assert gr.format(gr.parse("g^2I + 1")) == "1+g^2I"
    with pytest.raises(ValueError):
        gr.parse("1+q")


@given(st.integers(0, 255))
def test_parse_format_roundtrip(mask):
    gr = gr256()
    x = tuple((i, 1) for i in range(8) if mask >> i & 1)
    assert gr.parse(gr.format(x)) == x


def test_commutative_when_basis_commutes():
    gr = GroupRing(2, cyclic_neutro_group(2))
    els = list(gr.elements())
    assert len(els) == 16
    for x in els:
        for y in els:
            assert gr.mul(x, y) == gr.mul(y, x)


def test_noncommutative_over_sym3():
    gr = GroupRing(2, sym_group(3))
    a, b = gr.monomial("(12)"), gr.monomial("(13)")
    assert gr.mul(a, b) != gr.mul(b, a)


def test_scale_and_support():
    gr = GroupRing(6, cyclic_neutro_group(4))
    x = gr.parse("2g+3I")
    assert gr.scale(2, x) == gr.parse("4g")        # 6I = 0 (mod 6)
    assert gr.support_labels(x) == ("g", "I")
    assert gr.has_neutro_support(x)
    assert not gr.is_pure_neutro(x)
    assert gr.is_pure_neutro(gr.parse("3I+gI"))
    assert not gr.is_pure_neutro(gr.zero)


def test_constructor_validation():
    with pytest.raises(ValueError):
        GroupRing(1, cyclic_neutro_group(2))
    with pytest.raises(ValueError):
        GroupRing(2, "not a magma")
    named = group_ring(2, cyclic_neutro_group(4))
    assert named.name == "Z2<cyclic-group(4)+I>" or "Z2<" in named.name
