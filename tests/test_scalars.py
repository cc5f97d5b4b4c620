"""Arithmetic of the a+bI residues: hand oracles, ring laws, text grammar."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from neutrolab.scalars import (
    CLASS_MIXED,
    CLASS_PURE,
    CLASS_REAL,
    CLASS_ZERO,
    I,
    ONE,
    ZERO,
    ns_add,
    ns_classify,
    ns_elements,
    ns_format,
    ns_is_unit,
    ns_mul,
    ns_neg,
    ns_parse,
    ns_scale,
    ns_sub,
    ring_axiom_violations,
    ring_laws_hold,
    triple_law_violations,
)
from neutrolab.structures import neutro_ring

def test_mul_oracles():
    # hand-expanded products (a+bI)(c+dI) = ac + (ad+bc+bd)I, reduced mod n
    assert ns_mul(10, (2, 3), (4, 5)) == (8, 7)
    assert ns_mul(10, I, I) == I
    assert ns_mul(10, I, (5, 0)) == (0, 5)
    assert ns_mul(4, (2, 2), (2, 2)) == (0, 0)
    assert ns_mul(12, (6, 2), (6, 4)) == (0, 8)


def test_product_with_i_kills_real_part():
    for n in (2, 3, 10):
        for x in ns_elements(n):
            assert ns_classify(ns_mul(n, I, x)) in (CLASS_ZERO, CLASS_PURE)


def test_zero_times_i_is_zero():
    for n in (2, 5, 12):
        assert ns_mul(n, ZERO, I) == ZERO
        assert ns_mul(n, I, ZERO) == ZERO


def test_ring_axioms_exhaustive_small_moduli():
    for n in range(2, 7):
        assert ring_axiom_violations(n) == []


def _broken_laws(add, mul):
    """The per-triple reference: the laws that some pair or triple breaks."""
    n = len(add)
    broken = {law for law, _ in triple_law_violations(add, mul)}
    if any(add[i][j] != add[j][i] for i in range(n) for j in range(n)):
        broken.add("add-commutative")
    return broken


def _cyclic(n, zero_product=False):
    return ([[(i + j) % n for j in range(n)] for i in range(n)],
            [[0 if zero_product else i * j % n for j in range(n)] for i in range(n)])


def _upper_triangular_z2():
    """The 8-element ring of upper triangular 2x2 matrices over Z2 (not
    commutative); (a, b, c) stands for [[a, b], [0, c]]."""
    elems = [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
    pos = {x: i for i, x in enumerate(elems)}
    add = [[pos[tuple((u + v) % 2 for u, v in zip(x, y))] for y in elems] for x in elems]
    mul = [[pos[(x[0] * y[0] % 2, (x[0] * y[1] + x[1] * y[2]) % 2, x[2] * y[2] % 2)]
            for y in elems] for x in elems]
    return add, mul


RINGS = ([_cyclic(n) for n in range(1, 9)] + [_cyclic(6, zero_product=True)]
         + [_upper_triangular_z2(), (neutro_ring(2).add_table, neutro_ring(2).mul_table)])


@st.composite
def perturbed_ring(draw):
    """A ring of at most 8 elements, relabelled, with up to two entries of
    its tables rewritten."""
    add, mul = draw(st.sampled_from(RINGS))
    n = len(add)
    perm = draw(st.permutations(range(n)))
    inv = sorted(range(n), key=perm.__getitem__)
    tables = [[[perm[t[inv[i]][inv[j]]] for j in range(n)] for i in range(n)]
              for t in (add, mul)]
    for _ in range(draw(st.integers(0, 2))):
        t = draw(st.sampled_from(tables))
        t[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(st.integers(0, n - 1))
    return tables


@st.composite
def random_tables(draw):
    n = draw(st.integers(1, 8))
    entry = st.integers(0, n - 1)
    add = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    if draw(st.booleans()):
        add = [[add[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    mul = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    return add, mul


@given(st.one_of(perturbed_ring(), random_tables()))
def test_law_decision_agrees_with_the_triple_sweep(tables):
    add, mul = tables
    assert ring_laws_hold(add, mul) == (not _broken_laws(add, mul))


def _s3_under_zero_product():
    perms = sorted(itertools.permutations(range(3)))
    add = [[perms.index(tuple(p[q[i]] for i in range(3))) for q in perms] for p in perms]
    return add, [[0] * 6 for _ in perms]


def _bilinear_z2_squared():
    """Z2 x Z2 with the bilinear product e1e1 = e2, e2e1 = e1 and e1e2 =
    e2e2 = 0; a e1 + b e2 has index 2a + b.  (e1e1)e1 = e1 but e1(e1e1) = 0,
    while (xy)e2 = 0 = x(ye2): of the generators e2, e1 (in the order they
    are taken), only the second shows the failure."""
    basis = {(0, 0): (0, 1), (0, 1): (0, 0), (1, 0): (1, 0), (1, 1): (0, 0)}
    elems = [(a, b) for a in (0, 1) for b in (0, 1)]

    def prod(x, y):
        out = [0, 0]
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    out[k] += x[i] * y[j] * basis[i, j][k]
        return 2 * (out[0] % 2) + out[1] % 2

    add = [[2 * ((x[0] + y[0]) % 2) + (x[1] + y[1]) % 2 for y in elems] for x in elems]
    return add, [[prod(x, y) for y in elems] for x in elems]


# each table pair breaks one law only, so only the row that checks that law
# can reject it
ONE_LAW_BROKEN = [
    ("add-commutative", _s3_under_zero_product()),
    ("add-associative", ([[0, 1, 2], [1, 0, 0], [2, 0, 0]], [[0] * 3] * 3)),
    ("mul-associative", _bilinear_z2_squared()),
    ("left-distributive", (_cyclic(3)[0], [[x * y * y % 3 for y in range(3)] for x in range(3)])),
    ("right-distributive", (_cyclic(3)[0], [[x * x * y % 3 for y in range(3)] for x in range(3)])),
]


@pytest.mark.parametrize("law,tables", ONE_LAW_BROKEN, ids=[law for law, _ in ONE_LAW_BROKEN])
def test_law_decision_rejects_each_law_alone(law, tables):
    add, mul = tables
    assert _broken_laws(add, mul) == {law}
    assert not ring_laws_hold(add, mul)


def test_law_decision_on_small_rings_and_non_groups():
    for add, mul in RINGS:
        assert ring_laws_hold(add, mul) and not _broken_laws(add, mul)
    # + has no inverses: the closure of {1} is {1}, so 0 must be a generator
    # too, and only g = 0 shows (0*0)*0 = 0 against 0*(0*0) = 1
    add, mul = [[0, 1], [1, 1]], [[1, 1], [0, 1]]
    assert not ring_laws_hold(add, mul) and _broken_laws(add, mul)


def test_classify():
    assert ns_classify((0, 0)) == CLASS_ZERO
    assert ns_classify((3, 0)) == CLASS_REAL
    assert ns_classify((0, 3)) == CLASS_PURE
    assert ns_classify((3, 3)) == CLASS_MIXED


def test_format_grammar():
    assert ns_format((0, 0)) == "0"
    assert ns_format((7, 0)) == "7"
    assert ns_format((0, 1)) == "I"
    assert ns_format((0, 5)) == "5I"
    assert ns_format((5, 1)) == "5+I"
    assert ns_format((6, 5)) == "6+5I"


def test_parse_accepts_every_grammar_form():
    assert ns_parse("0") == (0, 0)
    assert ns_parse("7") == (7, 0)
    assert ns_parse("I") == (0, 1)
    assert ns_parse("5I") == (0, 5)
    assert ns_parse("5+I") == (5, 1)
    assert ns_parse("6+5I") == (6, 5)
    assert ns_parse("13", n=10) == (3, 0)


def test_parse_rejects_garbage():
    for bad in ("", "x", "1+", "+I", "I+1", "1+2", "2I+1"):
        try:
            ns_parse(bad)
        except ValueError:
            continue
        raise AssertionError("parsed %r" % bad)


@given(st.integers(2, 30), st.integers(0, 400), st.integers(0, 400))
def test_parse_format_roundtrip(n, a, b):
    x = (a % n, b % n)
    assert ns_parse(ns_format(x), n=n) == x


@given(st.integers(2, 12), st.integers(-50, 50), st.integers(-50, 50),
       st.integers(-50, 50), st.integers(-50, 50))
def test_mul_matches_expansion(n, a, b, c, d):
    x, y = (a % n, b % n), (c % n, d % n)
    expanded = ((a * c) % n, (a * d + b * c + b * d) % n)
    assert ns_mul(n, x, y) == expanded


@given(st.integers(2, 9), st.integers(0, 80), st.integers(0, 80))
def test_sub_is_add_neg(n, a, b):
    x = (a % n, (a * 7 + 1) % n)
    y = (b % n, (b * 3 + 2) % n)
    assert ns_sub(n, x, y) == ns_add(n, x, ns_neg(n, y))


def test_scale_matches_repeated_addition():
    n = 7
    x = (3, 5)
    total = ZERO
    for k in range(1, 6):
        total = ns_add(n, total, x)
        assert ns_scale(n, k, x) == total


def test_elements_order_and_count():
    assert ns_elements(3)[:4] == [(0, 0), (0, 1), (0, 2), (1, 0)]
    assert len(ns_elements(5)) == 25


def test_units():
    assert ns_is_unit(5, ONE)
    assert not ns_is_unit(5, I)          # I has no inverse: I*x is pure or zero
    assert ns_is_unit(5, (2, 4))         # inverse 3+3I: (2+4I)(3+3I) = 6+30I = 1
    assert ns_mul(5, (2, 4), (3, 3)) == ONE
