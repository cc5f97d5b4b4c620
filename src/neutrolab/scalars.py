"""Modular arithmetic for indeterminacy-extended residues a + bI, where I*I = I.

Elements are pairs (a, b) of ints taken mod n, standing for a + bI.  The
indeterminate I is idempotent and absorbs into products: the product rule
comes from expanding (a+bI)(c+dI) with I*I = I, so 0*I collapses to 0.
"""

import re
from operator import itemgetter

ZERO = (0, 0)
ONE = (1, 0)
I = (0, 1)

CLASS_ZERO = "Zero"
CLASS_REAL = "Real"
CLASS_PURE = "PureNeutrosophic"
CLASS_MIXED = "Mixed"


def ns_reduce(n, x):
    return (x[0] % n, x[1] % n)


def ns_add(n, x, y):
    return ((x[0] + y[0]) % n, (x[1] + y[1]) % n)


def ns_neg(n, x):
    return (-x[0] % n, -x[1] % n)


def ns_sub(n, x, y):
    return ((x[0] - y[0]) % n, (x[1] - y[1]) % n)


def ns_scale(n, t, x):
    return (t * x[0] % n, t * x[1] % n)


def ns_mul(n, x, y):
    a, b = x
    c, d = y
    return (a * c % n, (a * d + b * c + b * d) % n)


def ns_classify(x):
    a, b = x
    if a == 0 and b == 0:
        return CLASS_ZERO
    if b == 0:
        return CLASS_REAL
    if a == 0:
        return CLASS_PURE
    return CLASS_MIXED


def ns_elements(n):
    """All n*n elements, ordered by real part then I part."""
    return [(a, b) for a in range(n) for b in range(n)]


def ns_format(x):
    a, b = x
    if a == 0 and b == 0:
        return "0"
    if b == 0:
        return str(a)
    ipart = "I" if b == 1 else "%dI" % b
    if a == 0:
        return ipart
    return "%d+%s" % (a, ipart)


_NS_RE = re.compile(r"^(?:(-?\d+)|(-?\d+)?I|(-?\d+)\+(-?\d+)?I)$")


def ns_parse(s, n=None):
    """Parse 'a', 'bI', 'I', 'a+bI', 'a+I' into a pair; reduce mod n if given."""
    t = s.replace(" ", "")
    m = _NS_RE.match(t)
    if m is None:
        raise ValueError("cannot parse scalar %r" % s)
    real, pure_b, mixed_a, mixed_b = m.groups()
    if real is not None:
        x = (int(real), 0)
    elif mixed_a is not None:
        x = (int(mixed_a), int(mixed_b) if mixed_b is not None else 1)
    else:
        x = (0, int(pure_b) if pure_b is not None else 1)
    if n is not None:
        x = ns_reduce(n, x)
    return x


def ns_is_unit(n, x):
    return any(ns_mul(n, x, y) == ONE for y in ns_elements(n))


def ring_axiom_violations(n):
    """Check the commutative unital ring laws for the a+bI scalars mod n.

    Returns a list of (law, witness) pairs; empty means every law holds.  The
    unary laws and *-commutativity are checked element by element; the laws
    of ring_laws_hold are read off the index tables of ns_add and ns_mul by
    _ring_law_violations.
    """
    elems = ns_elements(n)
    bad = []
    for x in elems:
        if ns_add(n, ZERO, x) != x:
            bad.append(("add-identity", (x,)))
        if ns_add(n, x, ns_neg(n, x)) != ZERO:
            bad.append(("add-inverse", (x,)))
        if ns_mul(n, ONE, x) != x or ns_mul(n, x, ONE) != x:
            bad.append(("mul-identity", (x,)))
    bad += [("mul-commutative", (x, y)) for x in elems for y in elems
            if ns_mul(n, x, y) != ns_mul(n, y, x)]
    pos = {x: i for i, x in enumerate(elems)}
    add = [[pos[ns_add(n, x, y)] for y in elems] for x in elems]
    mul = [[pos[ns_mul(n, x, y)] for y in elems] for x in elems]
    return bad + [(law, tuple(elems[i] for i in w)) for law, w in _ring_law_violations(add, mul)]


def _generators(table):
    """A greedy generating set of (range(len(table)), *) for the index table
    `table`: each element not yet in the closure of those before it under
    both a*b and b*a.  Idempotents (the zero of an additive group, the
    identity of a group) come last, so a group's identity is reached from
    the others and never taken."""
    inside, members, gens = [False] * len(table), [], []
    for g in sorted(range(len(table)), key=lambda x: table[x][x] == x):
        if inside[g]:
            continue
        gens.append(g)
        inside[g] = True
        todo = [g]
        while todo:
            a = todo.pop()
            members.append(a)
            row = table[a]
            for m in members:
                for c in (row[m], table[m][a]):
                    if not inside[c]:
                        inside[c] = True
                        todo.append(c)
    return gens


def _additive_generators(add, mul):
    """The greedy generating set G of (R, +) (see _generators) when the index
    tables `add` and `mul` over range(len(add)) make + commutative and
    associative, and * associative and distributive over + on both sides,
    for every triple; None when a law fails.  Decided from O(N^2 |G|) table
    reads, whole rows at a time.  The g passing Light's test (x+g)+y =
    x+(g+y) for all x, y are closed under + (Clifford and Preston 1961,
    section 1.2), so + is associative when every g in G passes.  Given that,
    the g with x(y+g) = xy+xg for all x, y are closed under +; given left
    distributivity, so are the g with (xy)g = x(yg), and, + being
    commutative, the g with (x+y)g = xg+yg.  The closure of G is the whole
    carrier, so every law holds on every triple when every row below
    matches.  triple_law_violations is the per-triple reference."""
    add = list(map(tuple, add))
    if list(zip(*add)) != add:
        return None
    gens = _generators(add)
    if len(add) < 2:
        # itemgetter of one index gives the entry, not a 1-tuple; one element
        # satisfies every law
        return gens
    mul_cols = list(zip(*mul))
    # whole rows over y: at(row) is (row[t[0]], row[t[1]], ...) for a row t
    rows = [(g, itemgetter(*add[g]), mul_cols[g], itemgetter(*mul_cols[g])) for g in gens]
    for add_x, mul_x in zip(add, mul):
        at_add_x, at_mul_x = itemgetter(*add_x), itemgetter(*mul_x)
        for g, at_add_g, mul_g, at_mul_g in rows:
            add_xg = add[mul_x[g]]
            if (add[add_x[g]] != at_add_g(add_x)          # (x+g)+y = x+(g+y)
                    or at_add_g(mul_x) != at_mul_x(add_xg)  # x(g+y) = xg+xy
                    or at_add_x(mul_g) != at_mul_g(add_xg)  # (x+y)g = xg+yg
                    or at_mul_x(mul_g) != at_mul_g(mul_x)):  # (xy)g = x(yg)
                return None
    return gens


def ring_laws_hold(add, mul):
    """Whether `add` and `mul` satisfy the laws _additive_generators decides."""
    return _additive_generators(add, mul) is not None


def triple_law_violations(add, mul):
    """Yield every (law, (i, j, k)) at which the index tables `add` and `mul`
    break an associative or distributive law, triple by triple in index
    order."""
    n = len(add)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if add[add[i][j]][k] != add[i][add[j][k]]:
                    yield "add-associative", (i, j, k)
                if mul[mul[i][j]][k] != mul[i][mul[j][k]]:
                    yield "mul-associative", (i, j, k)
                if mul[i][add[j][k]] != add[mul[i][j]][mul[i][k]]:
                    yield "left-distributive", (i, j, k)
                if mul[add[i][j]][k] != add[mul[i][k]][mul[j][k]]:
                    yield "right-distributive", (i, j, k)


def _ring_law_violations(add, mul):
    """Yield every (law, positions) at which the index tables `add` and `mul`
    break a law of ring_laws_hold: nothing when it proves them all, else the
    pairs (i, j) at which + does not commute, then triple_law_violations.  A
    caller that needs only the first stops the sweep there."""
    if ring_laws_hold(add, mul):
        return
    n = len(add)
    yield from (("add-commutative", (i, j))
                for i in range(n) for j in range(n) if add[i][j] != add[j][i])
    yield from triple_law_violations(add, mul)
