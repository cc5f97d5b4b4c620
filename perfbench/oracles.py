"""Brute-force references the benchmark checks outputs against.

They work on a structure's public label lists and operations only
(`elements`, `op`, `add`, `mul`, `neg`, `basis.op`), so they do not share
code with the predicates and encodings they check.
"""

from neutrolab.structures import FiniteRing, label_is_neutro


class Memo:
    """Reference answers, computed once per distinct input."""

    def __init__(self):
        self._known = {}

    def __call__(self, key, compute):
        if key not in self._known:
            self._known[key] = compute()
        return self._known[key]


def _ring_products(ring, x, y):
    return (ring.add(x, y), ring.mul(x, y), ring.mul(y, x), ring.neg(x))


def _magma_products(magma, x, y):
    return (magma.op(x, y), magma.op(y, x))


def products(universe, x, y):
    if isinstance(universe, FiniteRing):
        return _ring_products(universe, x, y)
    return _magma_products(universe, x, y)


def closure(universe, labels):
    """Smallest superset closed under every operation of the carrier."""
    current = set(labels)
    while True:
        fresh = {z for x in current for y in current
                 for z in products(universe, x, y)} - current
        if not fresh:
            return frozenset(current)
        current |= fresh


def closed(universe, labels):
    s = set(labels)
    return all(z in s for x in s for y in s for z in products(universe, x, y))


def absorbs(universe, labels):
    """Two-sided absorption of the whole carrier (ring: multiplication)."""
    mul = universe.mul if isinstance(universe, FiniteRing) else universe.op
    s = set(labels)
    return all(mul(x, y) in s and mul(y, x) in s
               for x in s for y in universe.elements)


def has_neutro(labels):
    return any(label_is_neutro(x) for x in labels)


def holds(universe, labels, predicate):
    """The subset predicates the benchmark asks for, by name."""
    if not labels:
        return False
    loose = predicate.startswith("loose-")
    core = predicate[6:] if loose else predicate
    if core in ("subgroupoid", "subring"):
        ok = closed(universe, labels)
    elif core in ("ideal", "ring-ideal"):
        ok = closed(universe, labels) and absorbs(universe, labels)
    else:
        raise ValueError("no reference for %r" % predicate)
    return ok and (loose or has_neutro(labels))


def soft_op(op_name, f, k):
    """Reference for the six soft-set operations on {param: frozenset}."""
    shared = sorted(set(f) & set(k))
    if op_name == "restricted-intersection":
        return {p: f[p] & k[p] for p in shared}
    if op_name == "restricted-union":
        return {p: f[p] | k[p] for p in shared}
    if op_name in ("extended-intersection", "extended-union"):
        join = (lambda a, b: a & b) if op_name.endswith("intersection") \
            else (lambda a, b: a | b)
        out = dict(f)
        out.update(k)
        for p in shared:
            out[p] = join(f[p], k[p])
        return out
    if op_name == "and":
        return {"%s&%s" % (a, b): f[a] & k[b] for a in f for b in k}
    if op_name == "or":
        return {"%s|%s" % (a, b): f[a] | k[b] for a in f for b in k}
    raise ValueError("unknown soft operation %r" % op_name)


def magma_kind(magma):
    """(semigroup, group, loop, identity label) by exhaustive search."""
    els = magma.elements
    op = magma.op
    semigroup = all(op(op(x, y), z) == op(x, op(y, z))
                    for x in els for y in els for z in els)
    identity = next((e for e in els
                     if all(op(e, x) == x and op(x, e) == x for x in els)), None)
    group = loop = False
    if identity is not None:
        inverses = all(any(op(x, y) == identity and op(y, x) == identity
                           for y in els) for x in els)
        group = semigroup and inverses
        loop = all(len({op(x, y) for y in els}) == len(els)
                   and len({op(y, x) for y in els}) == len(els) for x in els)
    return semigroup, group, loop, identity


class Dense:
    """Formal sums as coefficient lists over a basis, multiplied through
    the basis operation: the reference for GroupRing arithmetic."""

    def __init__(self, gr):
        self.gr = gr
        self.r = gr.r
        self.labels = list(gr.basis.elements)
        pos = {lab: i for i, lab in enumerate(self.labels)}
        self.table = [[pos[gr.basis.op(x, y)] for y in self.labels]
                      for x in self.labels]

    def add(self, a, b):
        return tuple((x + y) % self.r for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple((x - y) % self.r for x, y in zip(a, b))

    def mul(self, a, b):
        out = [0] * len(a)
        for i, x in enumerate(a):
            if x:
                row = self.table[i]
                for j, y in enumerate(b):
                    if y:
                        out[row[j]] = (out[row[j]] + x * y) % self.r
        return tuple(out)

    def monomial(self, i):
        return tuple(1 if j == i else 0 for j in range(len(self.labels)))

    def element(self, vec):
        """The GroupRing element with these coefficients, via public API."""
        gr = self.gr
        acc = gr.zero
        for lab, c in zip(self.labels, vec):
            if c:
                acc = gr.add(acc, gr.monomial(lab, c))
        return acc

    def subring(self, vecs):
        s = set(vecs)
        return bool(s) and all(self.sub(a, b) in s and self.mul(a, b) in s
                               for a in s for b in s)

    def ideal(self, vecs):
        s = set(vecs)
        monos = [self.monomial(i) for i in range(len(self.labels))]
        return self.subring(s) and all(self.mul(a, m) in s and self.mul(m, a) in s
                                       for a in s for m in monos)
