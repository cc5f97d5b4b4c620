"""Carrier builders: parametric groupoids, neutro doubles, loops, symmetric groups."""

import itertools
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neutrolab import scalars
from neutrolab.scalars import ns_add, ns_elements, ns_format, ns_mul, ns_scale
from neutrolab.structures import (
    FiniteMagma,
    FiniteRing,
    alternating_labels,
    build_from_table,
    cyclic_neutro_group,
    label_is_neutro,
    label_is_zero,
    mult_magma,
    neutro_double,
    neutro_ring,
    param_groupoid,
    sym_group,
    verify_kind,
)


def test_param_groupoid_oracle():
    g = param_groupoid(4, 2, 1)          # x*y = 2x + y (mod 4) over Z4 + Z4 I
    assert g.name == "groupoid(4;2,1)"
    assert len(g) == 16
    assert g.op("1", "1") == "3"
    assert g.op("I", "I") == "3I"
    assert g.op("2I", "2") == "2"            # 4I + 2 = 2 (mod 4)
    assert g.op(g.op("1", "1"), "2") == "0"
    assert g.op("1", g.op("1", "2")) == "2"   # non-associative witness


def test_param_groupoid_kind():
    rep = verify_kind(param_groupoid(4, 2, 1))
    assert rep.best() == "Groupoid"
    assert not rep.semigroup
    assert "not-associative" in rep.witnesses


def test_loop_table_is_a_loop_not_a_semigroup():
    elems = ["e"] + [str(i) for i in range(1, 8)]

    def prod(a, b):
        if a == "e":
            return b
        if b == "e":
            return a
        i, j = int(a), int(b)
        if i == j:
            return "e"
        r = (4 * j - 3 * i) % 7
        return str(r or 7)

    table = [[prod(a, b) for b in elems] for a in elems]
    l7 = build_from_table(elems, table, name="loop7(4)")
    assert l7.op("1", "2") == "5"
    assert l7.op("2", "1") == "5"            # this member of the family commutes
    assert l7.op("3", "6") == "1"
    rep = verify_kind(l7)
    assert rep.loop and not rep.semigroup
    assert rep.identity == "e"
    assert rep.best() == "Loop"
    # non-associativity: (1*2)*3 = 5*3 = 4 but 1*(2*3) = 1*6 = 7
    assert l7.op(l7.op("1", "2"), "3") == "4"
    assert l7.op("1", l7.op("2", "3")) == "7"


def test_sym_group():
    s3 = sym_group(3)
    assert len(s3) == 6
    rep = verify_kind(s3)
    assert rep.group and rep.best() == "Group"
    assert rep.identity == "e"
    assert s3.op("(12)", "(12)") == "e"
    assert alternating_labels(3) == frozenset({"e", "(123)", "(132)"})
    assert alternating_labels(4) <= frozenset(sym_group(4).elements)
    assert len(alternating_labels(4)) == 12


def test_cyclic_neutro_group_is_semigroup_not_group():
    m = cyclic_neutro_group(4)
    assert len(m) == 8
    assert set(m.elements) == {"1", "g", "g^2", "g^3", "I", "gI", "g^2I", "g^3I"}
    assert m.op("g^3", "g") == "1"
    assert m.op("g", "gI") == "g^2I"
    assert m.op("I", "I") == "I"
    assert m.op("gI", "g^3I") == "I"
    rep = verify_kind(m)
    assert rep.semigroup and not rep.group and not rep.loop
    assert rep.identity == "1"
    assert rep.best() == "Semigroup"


def test_mult_magma_carriers():
    full = mult_magma(3)                     # all of Z3 + Z3 I
    assert len(full) == 9
    assert full.op("2", "2I") == "I"         # 4I = I (mod 3)
    union = mult_magma(4, pure_union=True)   # Z4 u Z4 I, zero shared
    assert len(union) == 7
    assert set(union.elements) == {"0", "1", "2", "3", "I", "2I", "3I"}
    assert union.op("3", "2I") == "2I"       # 6I = 2I (mod 4)
    plain = mult_magma(10, neutro=False)
    assert len(plain) == 10
    assert plain.op("7", "3") == "1"
    assert verify_kind(plain).best() == "Semigroup"


def test_neutro_double():
    s3 = sym_group(3)
    d = neutro_double(s3)
    assert len(d) == 12
    assert "eI" in d.elements and "(123)I" in d.elements
    assert d.op("(12)", "(12)I") == "eI"
    assert d.op("(12)I", "(12)I") == "eI"
    rep = verify_kind(d)
    assert rep.semigroup and not rep.group


def test_neutro_ring_tables():
    r = neutro_ring(4)
    assert r.name == "ring(Z4+I)"
    assert len(r) == 16
    assert r.add("2", "2") == "0"
    assert r.add("3+2I", "1+2I") == "0"
    assert r.mul("2I", "2I") == "0"          # (2I)^2 = 4I = 0 (mod 4)
    assert r.mul("I", "3") == "3I"
    assert r.sub("1", "2I") == "1+2I"
    assert list(scalars._ring_law_violations(r.add_table, r.mul_table)) == []
    assert r.add_gens == [r.idx("I"), r.idx("1")]


def scalar_table(elems, op):
    """The index table of `op` over `elems`, from the scalar ops."""
    pos = {x: i for i, x in enumerate(elems)}
    return [[pos[op(x, y)] for y in elems] for x in elems]


@pytest.mark.parametrize("n", range(1, 13))
def test_neutro_ring_tables_match_the_scalar_ops(n):
    # every stock table over the a+bI scalars is computed from indices; the
    # scalar ops are the reference: neutro_ring, every mult_magma form and
    # param_groupoid(n, t, u) for n <= 8 and every t, u in 0..n
    elems = ns_elements(n)
    mul = scalar_table(elems, lambda x, y: ns_mul(n, x, y))
    r = neutro_ring(n)
    assert r.elements == [ns_format(x) for x in elems]
    assert r.add_table == scalar_table(elems, lambda x, y: ns_add(n, x, y))
    assert r.mul_table == mul
    full = mult_magma(n)
    assert (full.elements, full.table) == (r.elements, mul)
    pure = [(a, 0) for a in range(n)] + [(0, b) for b in range(1, n)]
    union = mult_magma(n, pure_union=True)
    assert union.elements == [ns_format(x) for x in pure]
    assert union.table == scalar_table(pure, lambda x, y: ns_mul(n, x, y))
    plain = mult_magma(n, neutro=False)
    assert (plain.elements, plain.table) == (
        [str(i) for i in range(n)], [[i * j % n for j in range(n)] for i in range(n)])
    if n > 8:
        return
    for t, u in itertools.product(range(n + 1), repeat=2):
        g = param_groupoid(n, t, u)
        assert g.elements == r.elements
        assert g.table == scalar_table(
            elems, lambda x, y: ns_add(n, ns_scale(n, t, x), ns_scale(n, u, y))), (t, u)


def _perturbed(n, table, row, column, value):
    r = neutro_ring(n)
    add, mul = [list(t) for t in r.add_table], [list(t) for t in r.mul_table]
    (add if table == "add" else mul)[r.idx(row)][r.idx(column)] = r.idx(value)
    return r, add, mul


PERTURBED = json.loads((Path(__file__).parent / "data" / "perturbed_rings.json").read_text())


@pytest.mark.parametrize("case", PERTURBED,
                         ids=lambda c: "Z%d+I:%s[%s][%s]" % (c["n"], c["table"], c["row"], c["column"]))
def test_perturbed_ring_lists_every_violation(case):
    # the lists are the per-triple sweep's, written before the laws were
    # decided from generators
    r, add, mul = _perturbed(*(case[k] for k in ("n", "table", "row", "column", "value")))
    assert [[law, [r.elements[i] for i in w]]
            for law, w in scalars._ring_law_violations(add, mul)] == case["violations"]
    law, labels = case["violations"][0]
    with pytest.raises(ValueError) as err:
        FiniteRing(r.elements, add, mul, name="perturbed")
    assert str(err.value) == "perturbed violates %s at %r" % (law, tuple(labels))


def test_validation_stops_at_the_first_violation(monkeypatch):
    # validation reads scalars._ring_law_violations, which looks the
    # per-triple sweep up in scalars
    pulled, sweep = [], scalars.triple_law_violations

    def counted(add, mul):
        for bad in sweep(add, mul):
            pulled.append(bad)
            yield bad

    monkeypatch.setattr(scalars, "triple_law_violations", counted)
    r, add, mul = _perturbed(12, "mul", "1+7I", "5+6I", "5+4I")
    with pytest.raises(ValueError) as err:
        FiniteRing(r.elements, add, mul, name=r.name)
    assert str(err.value) == "ring(Z12+I) violates right-distributive at ('I', '1+6I', '5+6I')"
    assert len(pulled) == 1


def test_large_ring_is_proven_not_sampled():
    # one product of 4096 changed: a sample of 3000 triples missed it
    r, add, mul = _perturbed(8, "mul", "1+7I", "5+6I", "5+4I")
    with pytest.raises(ValueError, match="violates right-distributive"):
        FiniteRing(r.elements, add, mul, name="z8")
    r = neutro_ring(12)
    assert list(scalars._ring_law_violations(r.add_table, r.mul_table)) == []


def test_build_from_table_accepts_indices_and_rejects_junk():
    by_index = build_from_table(["a", "b"], [[0, 1], [1, 0]], name="z2")
    assert by_index.op("b", "b") == "a"
    with pytest.raises(ValueError):
        build_from_table(["a", "b"], [["a", "c"], ["b", "a"]])
    with pytest.raises(ValueError):
        build_from_table(["a", "b"], [["a"], ["b", "a"]])


def test_label_predicates():
    assert label_is_neutro("2I") and label_is_neutro("1+3I") and label_is_neutro("I")
    assert not label_is_neutro("2") and not label_is_neutro("0")
    assert label_is_zero("0") and not label_is_zero("2I")


def test_cyclic_neutro_group_labels_and_table():
    g2 = cyclic_neutro_group(2)
    assert g2.elements == ["1", "g", "I", "gI"]
    assert g2.table == [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 2, 3], [3, 2, 3, 2]]
    g4 = cyclic_neutro_group(4)
    assert g4.elements == ["1", "g", "g^2", "g^3", "I", "gI", "g^2I", "g^3I"]
    assert g4.table == [
        [0, 1, 2, 3, 4, 5, 6, 7], [1, 2, 3, 0, 5, 6, 7, 4],
        [2, 3, 0, 1, 6, 7, 4, 5], [3, 0, 1, 2, 7, 4, 5, 6],
        [4, 5, 6, 7, 4, 5, 6, 7], [5, 6, 7, 4, 5, 6, 7, 4],
        [6, 7, 4, 5, 6, 7, 4, 5], [7, 4, 5, 6, 7, 4, 5, 6],
    ]
    assert g4.name == "cyclic(4)+I"
    s3 = cyclic_neutro_group(3, semigroup=True)
    assert s3.name == "cyclic-semigroup(3)+I"


# the tables of {0, 1}: under max, 0 is the identity and 1 has no inverse;
# under "left operand wins" no element is a two-sided identity
MAX = [[0, 1], [1, 1]]
LEFT = [[0, 0], [1, 1]]


def test_ring_without_additive_identity_or_inverse_raises():
    with pytest.raises(ValueError) as err:
        FiniteRing(["0", "1"], LEFT, MAX)
    assert str(err.value) == "ring(2) has no additive identity"
    with pytest.raises(ValueError) as err:
        FiniteRing(["0", "1"], MAX, MAX, name="max")
    assert str(err.value) == "max: '1' has no additive inverse"
    # the identity and inverse searches come before the ring laws
    with pytest.raises(ValueError, match="no additive inverse"):
        FiniteRing(["0", "1"], MAX, LEFT)


def test_magma_rejects_duplicate_labels_and_out_of_range_entries():
    with pytest.raises(ValueError) as err:
        FiniteMagma(["a", "a"], [[0, 0], [0, 0]])
    assert str(err.value) == "duplicate element labels"
    for bad in (2, -1):
        with pytest.raises(ValueError) as err:
            FiniteMagma(["a", "b"], [[0, 1], [bad, 0]])
        assert str(err.value) == "table entry %r out of range" % bad
    with pytest.raises(ValueError) as err:
        FiniteRing(["a", "b"], [[0, 1], [1, 0]], [[0, 0], [0, 3]])
    assert str(err.value) == "table entry 3 out of range"


def test_latin_rows_with_a_repeated_column_are_not_a_loop():
    # e is the identity and every row is a permutation, but column a reads
    # a, b, a
    m = build_from_table(["e", "a", "b"], [["e", "a", "b"],
                                           ["a", "b", "e"],
                                           ["b", "a", "e"]])
    rep = verify_kind(m)
    assert rep.identity == "e"
    assert not rep.loop
    assert rep.witnesses["not-latin"] == ("column", "a")


def test_param_groupoid_kinds_follow_closed_forms():
    """x*y = tx + uy is associative iff t and u are idempotent mod n,
    commutative iff t = u, and makes every element idempotent iff t + u = 1."""
    carriers = 0
    for n in range(2, 8):
        for t in range(n):
            for u in range(n):
                g = param_groupoid(n, t, u)
                table, size = g.table, len(g)
                carriers += 1
                assert verify_kind(g).semigroup == (t * t % n == t and u * u % n == u), g.name
                assert all(table[i][j] == table[j][i] for i in range(size)
                           for j in range(i)) == (t == u), g.name
                assert all(table[i][i] == i for i in range(size)) == ((t + u) % n == 1), g.name
    assert carriers == 139


def _semigroups(n):
    """Associative index tables on n elements: Z_n under + and x, a chain
    under min, left- and right-zero bands, a null semigroup, and for even n
    the rectangular band 2 x n/2."""
    tables = [lambda i, j: (i + j) % n, lambda i, j: i * j % n, min,
              lambda i, j: i, lambda i, j: j, lambda i, j: 0]
    if n % 2 == 0:
        half = n // 2
        tables.append(lambda i, j: i // half * half + j % half)
    return [[[f(i, j) for j in range(n)] for i in range(n)] for f in tables]


@st.composite
def nearly_associative(draw):
    """A semigroup of at most 6 elements, relabelled, with up to two entries
    of its table rewritten, or a random table."""
    n = draw(st.integers(1, 6))
    if draw(st.booleans()):
        entry = st.integers(0, n - 1)
        return draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    table = draw(st.sampled_from(_semigroups(n)))
    perm = draw(st.permutations(range(n)))
    inv = sorted(range(n), key=perm.__getitem__)
    table = [[perm[table[inv[i]][inv[j]]] for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 2))):
        table[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(st.integers(0, n - 1))
    return table


@settings(deadline=None)
@given(nearly_associative())
def test_associativity_on_generators_matches_the_triple_scan(table):
    """verify_kind decides associativity by Light's test on a generating set
    and names the first failing triple in index order, as the n^3 scan
    does."""
    n = len(table)
    labels = ["e%d" % i for i in range(n)]
    first = next(((labels[i], labels[j], labels[k])
                  for i in range(n) for j in range(n) for k in range(n)
                  if table[table[i][j]][k] != table[i][table[j][k]]), None)
    rep = verify_kind(FiniteMagma(labels, table))
    assert rep.semigroup == (first is None)
    assert rep.witnesses.get("not-associative") == first
    inside = set(scalars._generators(table))
    while True:
        grown = inside | {table[x][y] for x in inside for y in inside}
        if grown == inside:
            break
        inside = grown
    assert inside == set(range(n))


def test_the_symmetric_group_on_six_points_is_decided_on_its_generators():
    # the triple scan reads 720^3 triples here, about 19 s
    rep = verify_kind(sym_group(6))
    assert rep.semigroup and rep.group and rep.best() == "Group"
