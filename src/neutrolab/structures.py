"""Finite carriers with explicit operation tables, plus the stock builders.

Every structure keeps an ordered list of string labels and dense index
tables, so predicates and enumeration can work positionally.  An element is
"neutrosophic" exactly when its label mentions I.
"""

import itertools
from dataclasses import dataclass, field

from .scalars import (
    ns_add,
    ns_elements,
    ns_format,
    ns_mul,
    ns_scale,
    ring_laws_hold,
    triple_law_violations,
)


class ResourceCap(Exception):
    """Raised when a search or sweep exceeds its configured budget."""


def label_is_neutro(label):
    return "I" in label


def label_is_zero(label):
    return label == "0"


class FiniteMagma:
    """A finite set with one total binary operation, given by an index table."""

    def __init__(self, elements, table, name="", meta=None):
        n = len(elements)
        if len(set(elements)) != n:
            raise ValueError("duplicate element labels")
        if len(table) != n or any(len(row) != n for row in table):
            raise ValueError("table must be %d x %d" % (n, n))
        for row in table:
            for v in row:
                if not 0 <= v < n:
                    raise ValueError("table entry %r out of range" % (v,))
        self.elements = list(elements)
        self.table = [list(row) for row in table]
        self.name = name or "magma(%d)" % n
        self.meta = dict(meta or {})
        self._index = {lab: i for i, lab in enumerate(self.elements)}

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def idx(self, label):
        try:
            return self._index[label]
        except KeyError:
            raise ValueError("unknown element %r in %s" % (label, self.name))

    def op(self, x, y):
        return self.elements[self.table[self.idx(x)][self.idx(y)]]


class FiniteRing:
    """A finite set with addition and multiplication tables.

    Addition is expected to form an abelian group and multiplication to be
    associative and to distribute over it; `validate` proves those laws on
    every triple, at every size (see scalars.ring_laws_hold), and raises
    ValueError naming the first violation.
    """

    def __init__(self, elements, add_table, mul_table, name="", meta=None, validate=True):
        self.add_magma = FiniteMagma(elements, add_table, name=name + "+")
        self.mul_magma = FiniteMagma(elements, mul_table, name=name + "*")
        self.elements = self.add_magma.elements
        self.name = name or "ring(%d)" % len(elements)
        self.meta = dict(meta or {})
        self._index = self.add_magma._index
        self.add_table = self.add_magma.table
        self.mul_table = self.mul_magma.table
        zero = self._find_add_identity()
        if zero is None:
            raise ValueError("%s has no additive identity" % self.name)
        self.zero = zero
        self._neg = self._build_negation()
        self.neg_map = [self.idx(self._neg[lab]) for lab in self.elements]
        if validate:
            bad = next(self._violations(), None)
            if bad is not None:
                raise ValueError("%s violates %s at %r" % (self.name, bad[0], bad[1]))

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def idx(self, label):
        try:
            return self._index[label]
        except KeyError:
            raise ValueError("unknown element %r in %s" % (label, self.name))

    def add(self, x, y):
        return self.add_magma.op(x, y)

    def mul(self, x, y):
        return self.mul_magma.op(x, y)

    def neg(self, x):
        return self._neg[x]

    def sub(self, x, y):
        return self.add(x, self.neg(y))

    def _find_add_identity(self):
        n = len(self.elements)
        t = self.add_magma.table
        for e in range(n):
            if all(t[e][x] == x and t[x][e] == x for x in range(n)):
                return self.elements[e]
        return None

    def _build_negation(self):
        n = len(self.elements)
        t = self.add_magma.table
        z = self.idx(self.zero)
        neg = {}
        for i in range(n):
            for j in range(n):
                if t[i][j] == z and t[j][i] == z:
                    neg[self.elements[i]] = self.elements[j]
                    break
            else:
                raise ValueError(
                    "%s: %r has no additive inverse" % (self.name, self.elements[i])
                )
        return neg

    def axiom_violations(self):
        """(law, labels) for every failing pair or triple; empty when
        ring_laws_hold proves the laws, else listed pair by pair and triple
        by triple."""
        return list(self._violations())

    def _violations(self):
        """axiom_violations, one at a time, so a caller that needs only the
        first stops the sweep there."""
        add, mul, labels = self.add_table, self.mul_table, self.elements
        if ring_laws_hold(add, mul):
            return
        n = len(labels)
        yield from (("add-commutative", (labels[i], labels[j]))
                    for i in range(n) for j in range(n) if add[i][j] != add[j][i])
        for law, w in triple_law_violations(add, mul):
            yield law, tuple(labels[i] for i in w)


def param_groupoid(n, t, u):
    """Carrier of all a+bI mod n with x*y = t.x + u.y."""
    elems = ns_elements(n)
    labels = [ns_format(x) for x in elems]
    pos = {x: i for i, x in enumerate(elems)}
    table = [
        [pos[ns_add(n, ns_scale(n, t, x), ns_scale(n, u, y))] for y in elems]
        for x in elems
    ]
    return FiniteMagma(
        labels,
        table,
        name="groupoid(%d;%d,%d)" % (n, t, u),
        meta={"kind": "param_groupoid", "n": n, "t": t, "u": u},
    )


def cyclic_neutro_group(m, semigroup=False):
    """Cyclic group of order m doubled by I: {g^i} and {g^i I}, I absorbing.

    The table is the same either way; `semigroup` only records how the
    structure is meant to be used (as a multiplicative semigroup).
    """
    labels = ["1" if i == 0 else "g" if i == 1 else "g^%d" % i for i in range(m)]
    double = neutro_double(FiniteMagma(labels, [[(i + j) % m for j in range(m)]
                                                for i in range(m)]))
    return FiniteMagma(
        ["I" if lab == "1I" else lab for lab in double.elements],
        double.table,
        name="cyclic%s(%d)+I" % ("-semigroup" if semigroup else "", m),
        meta={"kind": "cyclic_neutro_group", "m": m, "semigroup": bool(semigroup)},
    )


def neutro_double(magma, name=""):
    """Double any finite magma by I: pairs {x} and {xI} with I absorbing."""
    m = len(magma)
    labels = list(magma.elements) + [lab + "I" for lab in magma.elements]
    table = []
    for s in (0, 1):
        for i in range(m):
            row = []
            for st in (0, 1):
                for j in range(m):
                    k = magma.table[i][j]
                    row.append(k + m if (s or st) else k)
            table.append(row)
    return FiniteMagma(
        labels,
        table,
        name=name or magma.name + "+I",
        meta={"kind": "neutro_double", "base": magma.meta or magma.name},
    )


def neutro_ring(n):
    """The ring of a+bI scalars mod n, with both tables materialized.  The
    element a+bI has index a*n + b (the order of ns_elements), so the entry
    for a+bI and c+dI is computed from the indices: the sum is
    (a+c) + (b+d)I and the product ac + (ad + bc + bd)I, as in ns_add and
    ns_mul."""
    labels = [ns_format(x) for x in ns_elements(n)]
    r = range(n)
    add_table = [[(a + c) % n * n + (b + d) % n for c in r for d in r]
                 for a in r for b in r]
    mul_table = [[a * c % n * n + (a * d + b * (c + d)) % n for c in r for d in r]
                 for a in r for b in r]
    return FiniteRing(
        labels,
        add_table,
        mul_table,
        name="ring(Z%d+I)" % n,
        meta={"kind": "neutro_ring", "n": n},
    )


def mult_magma(n, neutro=True, pure_union=False):
    """Multiplication mod n over a+bI scalars, plain residues, or the pure
    union {a} with {bI} (products of pure elements stay pure)."""
    if neutro:
        if pure_union:
            elems = [(a, 0) for a in range(n)] + [(0, b) for b in range(1, n)]
            name = "mult(Z%d u Z%dI)" % (n, n)
        else:
            elems = ns_elements(n)
            name = "mult(Z%d+I)" % n
        labels = [ns_format(x) for x in elems]
        pos = {x: i for i, x in enumerate(elems)}
        table = [[pos[ns_mul(n, x, y)] for y in elems] for x in elems]
    else:
        labels = [str(i) for i in range(n)]
        table = [[(i * j) % n for j in range(n)] for i in range(n)]
        name = "mult(Z%d)" % n
    return FiniteMagma(labels, table, name=name,
                       meta={"kind": "mult_magma", "n": n, "neutro": bool(neutro),
                             "pure_union": bool(pure_union)})


def _perm_label(p):
    seen = [False] * len(p)
    cycles = []
    for start in range(len(p)):
        if seen[start] or p[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        nxt = p[start]
        while nxt != start:
            cyc.append(nxt)
            seen[nxt] = True
            nxt = p[nxt]
        cycles.append(cyc)
    if not cycles:
        return "e"
    return "".join("(" + "".join(str(i + 1) for i in cyc) + ")" for cyc in cycles)


def _perm_is_even(p):
    seen = [False] * len(p)
    parity = 0
    for start in range(len(p)):
        if seen[start]:
            continue
        length = 0
        nxt = start
        while not seen[nxt]:
            seen[nxt] = True
            nxt = p[nxt]
            length += 1
        parity ^= (length - 1) & 1
    return parity == 0


def sym_group(k):
    """Symmetric group on {1..k} in cycle notation, composing right-to-left."""
    perms = sorted(itertools.permutations(range(k)))
    pos = {p: i for i, p in enumerate(perms)}
    labels = [_perm_label(p) for p in perms]
    table = [
        [pos[tuple(p[q[i]] for i in range(k))] for q in perms]
        for p in perms
    ]
    return FiniteMagma(labels, table, name="S%d" % k,
                       meta={"kind": "sym_group", "k": k})


def alternating_labels(k):
    """Labels of the even permutations inside sym_group(k)."""
    return frozenset(
        _perm_label(p)
        for p in itertools.permutations(range(k))
        if _perm_is_even(p)
    )


def build_from_table(elements, table, name=""):
    """User-supplied Cayley table; entries may be labels or indices."""
    index = {lab: i for i, lab in enumerate(elements)}
    norm = []
    for row in table:
        out = []
        for v in row:
            if isinstance(v, str):
                if v not in index:
                    raise ValueError("table entry %r is not an element" % v)
                out.append(index[v])
            else:
                out.append(int(v))
        norm.append(out)
    return FiniteMagma(elements, norm, name=name or "cayley(%d)" % len(elements),
                       meta={"kind": "cayley"})


@dataclass
class KindReport:
    groupoid: bool = True
    semigroup: bool = False
    group: bool = False
    loop: bool = False
    identity: str | None = None
    witnesses: dict = field(default_factory=dict)

    def best(self):
        if self.group:
            return "Group"
        if self.loop:
            return "Loop"
        if self.semigroup:
            return "Semigroup"
        return "Groupoid"


def verify_kind(magma):
    """Classify a finite magma as groupoid/semigroup/group/loop, with witnesses."""
    n = len(magma)
    t = magma.table
    labs = magma.elements
    rep = KindReport()

    assoc_witness = None
    for i in range(n):
        for j in range(n):
            tij = t[i][j]
            for k in range(n):
                if t[tij][k] != t[i][t[j][k]]:
                    assoc_witness = (labs[i], labs[j], labs[k])
                    break
            if assoc_witness:
                break
        if assoc_witness:
            break
    rep.semigroup = assoc_witness is None
    if assoc_witness:
        rep.witnesses["not-associative"] = assoc_witness

    identity = None
    for e in range(n):
        if all(t[e][x] == x and t[x][e] == x for x in range(n)):
            identity = e
            break
    rep.identity = labs[identity] if identity is not None else None
    if identity is None:
        rep.witnesses["no-identity"] = ()

    if rep.semigroup and identity is not None:
        missing = None
        for x in range(n):
            if not any(t[x][y] == identity and t[y][x] == identity for y in range(n)):
                missing = labs[x]
                break
        rep.group = missing is None
        if missing is not None:
            rep.witnesses["no-inverse"] = (missing,)
    else:
        rep.group = False

    if identity is not None:
        latin_witness = None
        for i in range(n):
            if len(set(t[i])) != n:
                latin_witness = ("row", labs[i])
                break
            if len({t[j][i] for j in range(n)}) != n:
                latin_witness = ("column", labs[i])
                break
        rep.loop = latin_witness is None
        if latin_witness:
            rep.witnesses["not-latin"] = latin_witness
    else:
        rep.loop = False

    return rep


__all__ = [
    "FiniteMagma",
    "FiniteRing",
    "KindReport",
    "ResourceCap",
    "alternating_labels",
    "build_from_table",
    "cyclic_neutro_group",
    "label_is_neutro",
    "label_is_zero",
    "mult_magma",
    "neutro_double",
    "neutro_ring",
    "param_groupoid",
    "sym_group",
    "verify_kind",
]
