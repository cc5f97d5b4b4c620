"""Convolution algebra over a finite magma basis, coefficients mod r.

The 256-element algebra with coefficients mod 2 over the order-8 cyclic
neutro semigroup is the main fixture: its additive side is checked
exhaustively against the coefficient-vector XOR oracle, its multiplicative
laws on seeded random triples.
"""

import itertools
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from neutrolab import subsets
from neutrolab.groupring import GroupRing
from neutrolab.structures import (
    FiniteMagma,
    ResourceCap,
    cyclic_neutro_group,
    neutro_double,
    param_groupoid,
    sym_group,
)
from neutrolab.subsets import _howell, _span_members, _terms, _view, gr_is_ideal, gr_is_subring


def gr256():
    return GroupRing(2, cyclic_neutro_group(4))


def to_mask(x):
    """Coefficient vector of an element packed into an int (r=2 only)."""
    m = 0
    for i, c in enumerate(x):
        m |= c << i
    return m


def test_element_count_and_canonical_forms():
    gr = gr256()
    els = list(gr.elements())
    assert len(els) == 256 == len(gr)
    assert len(set(els)) == 256
    assert gr.zero in els
    for x in els:
        assert len(x) == 8
        assert all(c in (0, 1) for c in x)


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


C2 = FiniteMagma(["1", "g"], [[0, 1], [1, 0]])
LEFT_ZERO = FiniteMagma(["a", "b"], [[0, 0], [1, 1]])
# the S3 and left-zero bases do not commute, so a one-sided ideal would
# differ; Z4 and Z9 are not squarefree, so an echelon form over each prime
# field would miss their spans
IDEAL_RINGS = [GroupRing(2, cyclic_neutro_group(2)), GroupRing(3, cyclic_neutro_group(2)),
               GroupRing(2, cyclic_neutro_group(3, semigroup=True)), GroupRing(2, sym_group(3)),
               GroupRing(4, C2), GroupRing(9, C2), GroupRing(4, LEFT_ZERO)]
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


def identity_rows(n):
    """The Howell form of the whole module (Z_r)^n."""
    return [tuple(int(i == j) for j in range(n)) for i in range(n)]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, len(IDEAL_RINGS) - 1), st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=2))
# ideals that fill their ring: the unit monomial 1 of Z2<C2+I> (member 8 is
# (1, 0, 0, 0)), the unit 1+2g of Z4<C2> (member 6), and e of Z2<S3> with a
# second generator after it
@example(0, [8])
@example(4, [6])
@example(3, [32, 5])
def test_generated_ideal_matches_brute_force(which, picks):
    gr, everything = IDEAL_RINGS[which], IDEAL_ELEMENTS[which]
    gens = [everything[k % len(everything)] for k in picks]
    ideal = gr.generated_ideal(gens)
    assert ideal == brute_ideal(gr, everything, gens)
    if len(ideal) == len(gr):
        assert _howell(gr, gens, ideal=True) == (identity_rows(len(gr.basis)), len(gr))


def test_generated_ideal_over_the_cap_names_it():
    gr = GroupRing(6, cyclic_neutro_group(4))
    with pytest.raises(ResourceCap, match="4096"):
        gr.generated_ideal([gr.monomial("1")])


# rings whose ideals outgrow the cap, a unit monomial generating each, and
# the size of that whole ring
OVER_CAP = [(GroupRing(6, cyclic_neutro_group(4)), "1", 6 ** 8),
            (GroupRing(3, neutro_double(sym_group(3))), "e", 3 ** 12)]


def test_generated_ideal_cap_names_its_setting():
    for gr, label, size in OVER_CAP:
        with pytest.raises(ResourceCap, match=r"generated ideal has %d members, "
                                              r"over subsets\.IDEAL_CAP = 4096" % size):
            gr.generated_ideal([gr.monomial(label)])


class CountingGroupRing(GroupRing):
    """Counts additions, subtractions and products made through the ring's
    methods."""

    def __init__(self, r, basis):
        super().__init__(r, basis)
        self.calls = 0

    def add(self, x, y):
        self.calls += 1
        return super().add(x, y)

    def sub(self, x, y):
        self.calls += 1
        return super().sub(x, y)

    def mul(self, x, y):
        self.calls += 1
        return super().mul(x, y)


def test_generated_ideal_over_the_cap_raises_before_listing():
    """The closure under + made 5676 and 5143 additions and products before
    it stopped at the 4097th member; the size comes first now."""
    for gr, label, _ in OVER_CAP:
        counted = CountingGroupRing(gr.r, gr.basis)
        with pytest.raises(ResourceCap):
            counted.generated_ideal([counted.monomial(label)])
        assert counted.calls <= 200


def test_a_whole_ring_ideal_is_rechecked_by_its_count():
    """An ideal with as many members as its ring is the ring, so its recheck
    forms no product; an ideal short of the ring is still rechecked by the
    absorption walk."""
    gr = CountingGroupRing(2, sym_group(3))
    assert len(gr.generated_ideal([gr.monomial("e")])) == len(gr)
    assert gr.calls == 0
    assert len(gr.generated_ideal([gr.parse("e+(12)")])) < len(gr)
    assert gr.calls > 0


# over the C2 basis Z4+I has 256 members, Z8 64 and Z12 144
SIZED_RINGS = [GroupRing(4, cyclic_neutro_group(2)), GroupRing(8, C2), GroupRing(12, C2)]
SIZED_ELEMENTS = [list(gr.elements()) for gr in SIZED_RINGS]


def test_generated_ideal_size_is_predicted():
    """Every generated ideal lists exactly as many members as the Howell
    form of its generators predicts."""
    rng = random.Random(7)
    for gr, everything in zip(IDEAL_RINGS + SIZED_RINGS, IDEAL_ELEMENTS + SIZED_ELEMENTS):
        for _ in range(30):
            gens = rng.sample(everything, rng.randint(1, 2))
            assert len(gr.generated_ideal(gens)) == _howell(gr, gens, ideal=True)[1]


def additive_closure(r, vectors, n):
    """Every vector reached from 0 by adding members of `vectors` mod r."""
    reached, frontier = {(0,) * n}, [(0,) * n]
    while frontier:
        fresh = []
        for u in frontier:
            for v in vectors:
                w = tuple((x + y) % r for x, y in zip(u, v))
                if w not in reached:
                    reached.add(w)
                    fresh.append(w)
        frontier = fresh
    return reached


@st.composite
def span_cases(draw):
    """(r, n, up to four vectors in (Z_r)^n)."""
    r, n = draw(st.sampled_from([2, 4, 6, 8, 9, 12])), draw(st.integers(1, 3))
    return r, n, draw(st.lists(st.tuples(*[st.integers(0, r - 1)] * n), max_size=4))


@settings(max_examples=150, deadline=None)
@given(span_cases())
# spans of the whole module: unit vectors, with one more sum after them; and
# two sums whose determinant 2*2 - 3*3 is a unit mod 6 but neither of which
# has a unit entry
@example((12, 3, [(0, 0, 1), (0, 1, 0), (1, 0, 0), (5, 7, 11)]))
@example((6, 2, [(2, 3), (3, 2)]))
def test_howell_span_matches_additive_closure(case):
    """The span listed from the Howell form is the additive closure of the
    sums, its size is predicted, its pivots divide r, and the form is the
    same from every generating set of the span; a span of every vector is
    read as the identity rows."""
    r, n, vectors = case
    # a span does not read the basis table
    gr = GroupRing(r, FiniteMagma([str(i) for i in range(n)], [[i] * n for i in range(n)]))
    rows, size = _howell(gr, vectors)
    closed = additive_closure(r, vectors, n)
    members = _span_members(gr, rows)
    assert members == closed
    assert size == len(closed)
    assert all(r % next(c for c in row if c) == 0 for row in rows)
    assert _howell(gr, members) == (rows, size)
    assert (rows == identity_rows(n)) == (size == r ** n)


Z2C2 = GroupRing(2, cyclic_neutro_group(2))
# none of these is a canonical element of Z2<C2+I>, whose basis has four
# elements: one coefficient too few, one too many, a coefficient equal to r,
# a negative coefficient, a fractional coefficient, a float and bools equal
# to residues, a list instead of a tuple, and two members of another type
# that cannot be sorted among formal sums: a formal sum's text and an
# integer; nor is a sum written as (basis index, coefficient) pairs, however
# the pairs are chosen
NOT_CANONICAL = [(0, 1, 0), (0, 1, 0, 0, 0), (0, 2, 0, 0), (0, -1, 0, 0), (0, 0.5, 0, 0),
                 (1.0, 0, 0, 0), (True, False, False, False),
                 [0, 1, 0, 0], "1+g", 3,
                 ((0, 2),), ((0, 3),), ((1, 1), (0, 1)), ((0, 1), (0, 1)), ((4, 1),),
                 ((0, 0),), ((0, 0.5),), [(0, 1)]]


@pytest.mark.parametrize("bad", NOT_CANONICAL, ids=str)
def test_generated_ideal_rejects_non_canonical_generators(bad):
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        Z2C2.generated_ideal([Z2C2.monomial("g"), bad])


@pytest.mark.parametrize("bad", NOT_CANONICAL, ids=str)
def test_formal_sum_predicates_reject_non_canonical_members(bad):
    for predicate in (gr_is_subring, gr_is_ideal):
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            predicate(Z2C2, [Z2C2.zero, bad])


# members equal to a canonical one but not canonical themselves: a set used
# to merge them with their canonical twin before they were validated, so
# each was accepted or refused by its position
EQUAL_TO_CANONICAL = [([Z2C2.zero, (False,) * 4], (False,) * 4),
                      ([Z2C2.zero, (1, 0, 0, 0), (1.0, 0, 0, 0)], (1.0, 0, 0, 0)),
                      ([(False,) * 4, Z2C2.zero], (False,) * 4)]


@pytest.mark.parametrize("members,bad", EQUAL_TO_CANONICAL, ids=str)
def test_a_member_equal_to_a_canonical_one_is_refused_wherever_it_stands(members, bad):
    for order in itertools.permutations(members):
        for predicate in (gr_is_subring, gr_is_ideal):
            with pytest.raises(ValueError, match=re.escape(repr(bad))):
                predicate(Z2C2, list(order))


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
    x = tuple(mask >> i & 1 for i in range(8))
    assert gr.parse(gr.format(x)) == x


def test_parse_pinned_sums():
    gr, z6 = gr256(), GroupRing(6, cyclic_neutro_group(2))
    assert gr.parse("g+g") == gr.zero
    assert gr.parse("3g") == gr.monomial("g")
    assert z6.parse("5") == z6.monomial("1", 5) == (5, 0, 0, 0)
    # the unknown label comes first, so it is the error, not the empty term
    with pytest.raises(ValueError, match=re.escape("unknown basis element 'q' in '1+q+'")):
        gr.parse("1+q+")


def test_parse_rejects_empty_terms():
    """An empty term was read as the basis element "1": over Z2<C4+I>, "+"
    gave 0, "1++g" gave g and "g+" gave 1+g; over Z6<C2+I>, "+" gave 2."""
    for gr, text in [(gr256(), "+"), (gr256(), "1++g"), (gr256(), "g+"),
                     (GroupRing(6, cyclic_neutro_group(2)), "+")]:
        with pytest.raises(ValueError, match=re.escape(repr(text))):
            gr.parse(text)


def test_sorted_sums_follow_their_terms():
    """Members are walked in the order of their nonzero (index, coefficient)
    terms, which the recorded witnesses depend on; the plain tuple order
    would put g+g^3 before 1+g."""
    gr = gr256()
    view = _view(gr)
    members = view.members(map(gr.parse, ["g+g^3", "1+g^3", "0", "1+g", "1+g"]))
    assert [gr.format(x) for x in sorted(members, key=view.key)] == ["0", "1+g", "1+g^3", "g+g^3"]


def test_a_span_the_basis_rows_accept_is_never_sorted(monkeypatch):
    """The witness order is read only by a walk that reports a gap: an ideal
    that its Howell rows accept is decided without sorting its members,
    and a set that is not closed still reports its first gap in term order."""
    gr = gr256()
    view = _view(gr)
    ideal = _span_members(gr, _howell(gr, [gr.parse("1+g")], ideal=True)[0])
    sorts = []
    def key(x):
        sorts.append(x)
        return _terms(x)

    monkeypatch.setattr(subsets, "_terms", key)
    monkeypatch.setattr(view, "key", key)
    assert gr_is_subring(gr, ideal).ok and gr_is_ideal(gr, ideal).ok
    assert sorts == []
    v = gr_is_subring(gr, [gr.zero, gr.parse("1+g")])
    assert not v.ok and v.witness == ("1+g", "1+g", "mul", "1+g^2") and sorts


class SparseReference:
    """Formal-sum arithmetic on sparse sums: tuples of (basis index,
    coefficient) pairs with increasing indices and nonzero coefficients,
    accumulated in dicts.  The dense GroupRing must agree with it."""

    def __init__(self, r, basis):
        self.r, self.n, self.table = r, len(basis), basis.table

    def elements(self):
        for coeffs in itertools.product(range(self.r), repeat=self.n):
            yield tuple((i, c) for i, c in enumerate(coeffs) if c)

    def _canonical(self, acc):
        return tuple(sorted((i, c % self.r) for i, c in acc.items() if c % self.r))

    def add(self, x, y):
        acc = dict(x)
        for i, c in y:
            acc[i] = acc.get(i, 0) + c
        return self._canonical(acc)

    def neg(self, x):
        return self._canonical({i: -c for i, c in x})

    def sub(self, x, y):
        return self.add(x, self.neg(y))

    def scale(self, c, x):
        return self._canonical({i: c * v for i, v in x})

    def mul(self, x, y):
        acc = {}
        for i, c in x:
            for j, d in y:
                k = self.table[i][j]
                acc[k] = acc.get(k, 0) + c * d
        return self._canonical(acc)


def dense(gr, x):
    """The GroupRing element of sparse sum `x`."""
    vec = [0] * len(gr.basis)
    for i, c in x:
        vec[i] = c
    return tuple(vec)


# (basis, whether its labels survive format and parse); groupoid(2;1,1) is
# not associative, and its label 1+I reads back as a sum of two terms
REFERENCE_BASES = [(cyclic_neutro_group(3), True), (cyclic_neutro_group(3, semigroup=True), True),
                   (sym_group(3), True), (neutro_double(sym_group(3)), True),
                   (param_groupoid(2, 1, 1), False)]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(REFERENCE_BASES), st.sampled_from([2, 3, 4, 6]), st.data())
def test_dense_arithmetic_matches_the_sparse_reference(case, r, data):
    basis, codec = case
    gr, ref = GroupRing(r, basis), SparseReference(r, basis)
    sparse_sum = st.lists(st.integers(0, r - 1), min_size=len(basis), max_size=len(basis)).map(
        lambda coeffs: tuple((i, c) for i, c in enumerate(coeffs) if c))
    x, y = data.draw(sparse_sum), data.draw(sparse_sum)
    c = data.draw(st.integers(-r, 2 * r))
    assert gr.add(dense(gr, x), dense(gr, y)) == dense(gr, ref.add(x, y))
    assert gr.sub(dense(gr, x), dense(gr, y)) == dense(gr, ref.sub(x, y))
    assert gr.neg(dense(gr, x)) == dense(gr, ref.neg(x))
    assert gr.scale(c, dense(gr, x)) == dense(gr, ref.scale(c, x))
    assert gr.mul(dense(gr, x), dense(gr, y)) == dense(gr, ref.mul(x, y))
    # zero and single-term operands on either side, which drawn sums rarely
    # are: mul lists the nonzero terms of its operands
    d = data.draw(st.integers(1, r - 1))
    for s in [()] + [((j, d),) for j in range(len(basis))]:
        for u, v in ((s, x), (x, s), (s, s)):
            assert gr.mul(dense(gr, u), dense(gr, v)) == dense(gr, ref.mul(u, v))
    if codec:
        assert gr.parse(gr.format(dense(gr, x))) == dense(gr, x)
    # the sums in the order the sparse sums were listed (the first 4096 of a
    # larger ring), and their count
    head = min(len(gr), 4096)
    assert list(itertools.islice(gr.elements(), head)) == [
        dense(gr, s) for s in itertools.islice(ref.elements(), head)]
    assert len(gr) == r ** len(basis)


def write_terms(terms):
    """`terms`, (coefficient or None, label) pairs, as the text parse reads;
    a multiple of the basis element "1" is a bare number."""
    return "+".join(label if c is None else str(c) if label == "1" else "%d%s" % (c, label)
                    for c, label in terms)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([basis for basis, codec in REFERENCE_BASES if codec]),
       st.sampled_from([2, 3, 4, 6]), st.data())
def test_parse_sums_its_terms(basis, r, data):
    """A sum's text is the sum of its terms' monomials, repeated labels and
    coefficients of r or more included."""
    gr = GroupRing(r, basis)
    terms = data.draw(st.lists(st.tuples(st.none() | st.integers(0, 3 * r),
                                         st.sampled_from(basis.elements)), max_size=8))
    expected = gr.zero
    for c, label in terms:
        expected = gr.add(expected, gr.monomial(label, 1 if c is None else c))
    assert gr.parse(write_terms(terms)) == expected


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
    named = GroupRing(2, cyclic_neutro_group(4))
    assert named.name == "Z2<cyclic-group(4)+I>" or "Z2<" in named.name


@pytest.mark.parametrize("op", ["add", "sub", "mul"])
def test_arithmetic_rejects_an_operand_of_the_wrong_length(op):
    # zip would stop at the shorter operand and return a wrong sum
    gr = gr256()
    g = gr.monomial("g")
    for x, y, bad in (((1,), g, (1,)), (g, (1, 0), (1, 0)), (g, g + (0,), g + (0,))):
        message = "%r is not an element of %s: %d coefficients for 8 basis elements" % (
            bad, gr.name, len(bad))
        with pytest.raises(ValueError, match=re.escape(message)):
            getattr(gr, op)(x, y)
    assert getattr(gr, op)(g, g) == {"add": gr.zero, "sub": gr.zero,
                                     "mul": gr.monomial("g^2")}[op]


@pytest.mark.parametrize("method", ["neg", "scale", "format", "support_labels",
                                    "has_neutro_support", "is_pure_neutro"])
def test_one_operand_methods_reject_an_operand_of_the_wrong_length(method):
    gr = gr256()
    call = (lambda x: gr.scale(1, x)) if method == "scale" else getattr(gr, method)
    for bad in ((1,), (0,), gr.monomial("gI") + (0,)):
        message = "%r is not an element of %s: %d coefficients for 8 basis elements" % (
            bad, gr.name, len(bad))
        with pytest.raises(ValueError, match=re.escape(message)):
            call(bad)
    gi = gr.monomial("gI")
    assert call(gi) == {"neg": gi, "scale": gi, "format": "gI", "support_labels": ("gI",),
                        "has_neutro_support": True, "is_pure_neutro": True}[method]
