"""Finite carriers with explicit operation tables, plus the stock builders.

Every structure keeps an ordered list of string labels and dense index
tables, so predicates and enumeration can work positionally.  An element is
"neutrosophic" exactly when its label mentions I.
"""

import itertools

from .scalars import _additive_generators, _generators, _ring_law_violations, ns_elements, ns_format


class ResourceCap(Exception):
    """Raised when a search or sweep exceeds its configured budget."""


def label_is_neutro(label):
    return "I" in label


def label_is_zero(label):
    return label == "0"


class _Positions(dict):
    """Each label's position in the carrier `name`; looking up a label it
    does not have raises ValueError."""

    __slots__ = ("name",)

    def __init__(self, labels, name):
        super().__init__((lab, i) for i, lab in enumerate(labels))
        self.name = name

    def __missing__(self, label):
        raise ValueError("unknown element %r in %s" % (label, self.name))


class _Labelled:
    """Ordered string labels and their positions, which the operation tables
    of a finite carrier hold."""

    def __init__(self, elements, name):
        if not elements:
            raise ValueError("a carrier needs at least one element")
        bad = next((x for x in elements if not isinstance(x, str)), None)
        if bad is not None:
            raise ValueError("element label %r is not a string" % (bad,))
        if len(set(elements)) != len(elements):
            raise ValueError("duplicate element labels")
        self.elements = list(elements)
        self.name = name
        self._index = _Positions(self.elements, name)

    def _table(self, table):
        """A copy of `table`, which must be a square table of positions."""
        n = len(self.elements)
        if len(table) != n or any(len(row) != n for row in table):
            raise ValueError("table must be %d x %d" % (n, n))
        for row in table:
            for v in row:
                if not 0 <= v < n:
                    raise ValueError("table entry %r out of range" % (v,))
        return [list(row) for row in table]

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def idx(self, label):
        return self._index[label]

    def _apply(self, table, x, y):
        return self.elements[table[self.idx(x)][self.idx(y)]]


def _identity(table, pool=None):
    """The first position e of `pool` (default: every position) with
    table[e][x] == x == table[x][e] for each x of `pool`, or None."""
    pool = range(len(table)) if pool is None else pool
    return next((e for e in pool
                 if all(table[e][x] == x and table[x][e] == x for x in pool)), None)


def _inverse(table, e, x):
    """The first position y with table[x][y] == e == table[y][x], or None."""
    return next((y for y in range(len(table)) if table[x][y] == e and table[y][x] == e), None)


class FiniteMagma(_Labelled):
    """A finite set with one total binary operation, given by an index table."""

    def __init__(self, elements, table, name=""):
        super().__init__(elements, name or "magma(%d)" % len(elements))
        self.table = self._table(table)

    def op(self, x, y):
        return self._apply(self.table, x, y)


class FiniteRing(_Labelled):
    """A finite ring, proven one when it is built: + an abelian group, x
    associative and distributive on both sides, on every triple (see
    scalars._additive_generators); ValueError names the first violation.
    `add_gens` keeps the additive generating set the proof derives."""

    def __init__(self, elements, add_table, mul_table, name=""):
        super().__init__(elements, name or "ring(%d)" % len(elements))
        self.add_table = self._table(add_table)
        self.mul_table = self._table(mul_table)
        zero = _identity(self.add_table)
        if zero is None:
            raise ValueError("%s has no additive identity" % self.name)
        self.zero = self.elements[zero]
        self.neg_map = [_inverse(self.add_table, zero, x) for x in range(len(self))]
        if None in self.neg_map:
            raise ValueError("%s: %r has no additive inverse"
                             % (self.name, self.elements[self.neg_map.index(None)]))
        self.add_gens = _additive_generators(self.add_table, self.mul_table)
        if self.add_gens is None:
            law, w = next(_ring_law_violations(self.add_table, self.mul_table))
            raise ValueError("%s violates %s at %r"
                             % (self.name, law, tuple(self.elements[i] for i in w)))

    def add(self, x, y):
        return self._apply(self.add_table, x, y)

    def mul(self, x, y):
        return self._apply(self.mul_table, x, y)

    def neg(self, x):
        return self.elements[self.neg_map[self.idx(x)]]

    def sub(self, x, y):
        return self.add(x, self.neg(y))


# The stock builders over the a+bI scalars mod n put a+bI at index a*n + b
# (the order of ns_elements) and compute each table entry from the indices.


def _ns_labels(n):
    return [ns_format(x) for x in ns_elements(n)]


def _ns_products(n):
    """The index table of (a+bI)(c+dI) = ac + (ad + bc + bd)I mod n, as in
    ns_mul."""
    r = range(n)
    return [[a * c % n * n + (a * d + b * (c + d)) % n for c in r for d in r]
            for a in r for b in r]


def param_groupoid(n, t, u):
    """Carrier of all a+bI mod n with x*y = t.x + u.y: the entry for a+bI
    and c+dI is (ta + uc) + (tb + ud)I."""
    r = range(n)
    return FiniteMagma(
        _ns_labels(n),
        [[(t * a + u * c) % n * n + (t * b + u * d) % n for c in r for d in r]
         for a in r for b in r],
        name="groupoid(%d;%d,%d)" % (n, t, u),
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
    return FiniteMagma(labels, table, name=name or magma.name + "+I")


def neutro_ring(n):
    """The ring of a+bI scalars mod n, with both tables materialized: the sum
    of a+bI and c+dI is (a+c) + (b+d)I, as in ns_add."""
    r = range(n)
    return FiniteRing(
        _ns_labels(n),
        [[(a + c) % n * n + (b + d) % n for c in r for d in r] for a in r for b in r],
        _ns_products(n),
        name="ring(Z%d+I)" % n,
    )


def mult_magma(n, neutro=True, pure_union=False):
    """Multiplication mod n over a+bI scalars, plain residues, or the pure
    union {a} with {bI} (products of pure elements stay pure)."""
    if neutro and pure_union:
        # the indices of a and of bI in the full layout, and their positions
        full, keep = _ns_products(n), [a * n for a in range(n)] + list(range(1, n))
        pos = {k: i for i, k in enumerate(keep)}
        labels = [ns_format(divmod(k, n)) for k in keep]
        table = [[pos[full[x][y]] for y in keep] for x in keep]
        name = "mult(Z%d u Z%dI)" % (n, n)
    elif neutro:
        labels, table, name = _ns_labels(n), _ns_products(n), "mult(Z%d+I)" % n
    else:
        labels = [str(i) for i in range(n)]
        table = [[(i * j) % n for j in range(n)] for i in range(n)]
        name = "mult(Z%d)" % n
    return FiniteMagma(labels, table, name=name)


def _cycles(p):
    """The cycles of the permutation `p` that move a point, each listed from
    its least point, in the order of those points."""
    seen, cycles = set(), []
    for start in range(len(p)):
        if start in seen or p[start] == start:
            continue
        cyc = [start]
        while p[cyc[-1]] != start:
            cyc.append(p[cyc[-1]])
        seen.update(cyc)
        cycles.append(cyc)
    return cycles


def _perm_label(p):
    return "".join("(" + "".join(str(i + 1) for i in cyc) + ")" for cyc in _cycles(p)) or "e"


def sym_group(k):
    """Symmetric group on {1..k} in cycle notation, composing right-to-left."""
    perms = sorted(itertools.permutations(range(k)))
    pos = {p: i for i, p in enumerate(perms)}
    labels = [_perm_label(p) for p in perms]
    table = [
        [pos[tuple(p[q[i]] for i in range(k))] for q in perms]
        for p in perms
    ]
    return FiniteMagma(labels, table, name="S%d" % k)


def alternating_labels(k):
    """Labels of the even permutations inside sym_group(k)."""
    return frozenset(
        _perm_label(p)
        for p in itertools.permutations(range(k))
        if sum(len(cyc) - 1 for cyc in _cycles(p)) % 2 == 0
    )


def _cayley_indices(elements, table):
    """The rows of a user-supplied Cayley table as tuples of positions: a
    label entry becomes its position in `elements`, an int entry stays as it
    is, and anything else (a bool included) is rejected."""
    index = {lab: i for i, lab in enumerate(elements)}
    norm = []
    for row in table:
        if not isinstance(row, (list, tuple)):
            raise ValueError("table row %.60r is not a list" % (row,))
        out = []
        for v in row:
            if isinstance(v, str) and v in index:
                out.append(index[v])
            elif isinstance(v, int) and not isinstance(v, bool):
                out.append(v)
            else:
                raise ValueError("table entry %r is neither an element nor an index" % (v,))
        norm.append(tuple(out))
    return tuple(norm)


def build_from_table(elements, table, name=""):
    """User-supplied Cayley table; entries may be labels or indices."""
    return FiniteMagma(elements, _cayley_indices(elements, table),
                       name=name or "cayley(%d)" % len(elements))


class _Record:
    """A plain record of the fields its `__slots__` name: equal to a record
    of its own class with equal fields, shown as its constructor call, and
    unhashable, as its fields may change.  Unlike a generated record
    class, it costs a cold command no import beyond this module."""

    __slots__ = ()
    __hash__ = None

    def _values(self):
        return tuple([getattr(self, f) for f in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__,
                           ", ".join("%s=%r" % (f, getattr(self, f)) for f in self.__slots__))


class KindReport(_Record):
    __slots__ = ("groupoid", "semigroup", "group", "loop", "identity", "witnesses")

    def __init__(self, groupoid=True, semigroup=False, group=False, loop=False, identity=None,
                 witnesses=None):
        self.groupoid = groupoid
        self.semigroup = semigroup
        self.group = group
        self.loop = loop
        self.identity = identity
        self.witnesses = {} if witnesses is None else witnesses

    def best(self):
        if self.group:
            return "Group"
        if self.loop:
            return "Loop"
        if self.semigroup:
            return "Semigroup"
        return "Groupoid"


def _associative(t):
    """Whether the index table `t` is associative, by Light's test over a
    generating set G (Clifford and Preston 1961, section 1.2): the g with
    (xg)y = x(gy) for all x, y are closed under the operation, so every
    triple associates when each g in G passes.  O(N^2 |G|) reads, whole
    rows at a time."""
    for g in _generators(t):
        tg = t[g]
        for row in t:
            if t[row[g]] != [row[z] for z in tg]:
                return False
    return True


def verify_kind(magma):
    """Classify a finite magma as groupoid/semigroup/group/loop, with
    witnesses; a non-associative magma's is its first failing triple in
    index order."""
    n = len(magma)
    t = magma.table
    labs = magma.elements
    rep = KindReport()

    assoc_witness = None
    if not _associative(t):
        # the first failing triple in index order is the witness
        assoc_witness = next((labs[i], labs[j], labs[k])
                             for i in range(n) for j in range(n) for k in range(n)
                             if t[t[i][j]][k] != t[i][t[j][k]])
    rep.semigroup = assoc_witness is None
    if assoc_witness:
        rep.witnesses["not-associative"] = assoc_witness

    identity = _identity(t)
    if identity is None:
        rep.witnesses["no-identity"] = ()
        return rep
    rep.identity = labs[identity]

    if rep.semigroup:
        missing = next((x for x in range(n) if _inverse(t, identity, x) is None), None)
        rep.group = missing is None
        if missing is not None:
            rep.witnesses["no-inverse"] = (labs[missing],)

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
    return rep

