"""Subset predicates over finite magmas, rings, and formal-sum rings.

Every carrier is read through one algebra view (`_view`): the binary
operations a subset must be closed under, the unary maps, the absorption
product with its generators, the indeterminacy and zero tests, and the
label formatter used in witnesses.  Finite carriers are viewed by element
index through their tables; formal sums by value through GroupRing
arithmetic.  The closed-gap, absorption-gap, strict/pure, Lagrange and
closure routines are written once over that view, and one table
(`PREDICATES`) maps every predicate name to its carrier, kind, strict and
pure settings.

Every predicate returns a Verdict carrying a replayable witness on failure.
Formal sums are coefficient vectors in (Z_r)^|B|, and a set of them is read
through the Howell form of its Z_r-span (`_howell`): the set is an additive
subgroup exactly when it holds 0 and its span is no larger, and then the
span's basis rows stand in for its members in the product and absorption
checks.  Whenever that check does not accept, the walk over every pair of
members runs and its first gap is the witness.  A generated ideal is the
span of its generators saturated under basis monomials, so its size is
known before any member is listed.  A set as large as its carrier is the
carrier (`_whole`), closed and absorbing, and no product is formed for it;
the elimination likewise stops once the span is all of (Z_r)^|B|.
Enumeration lists the closed sets by two independent strategies (a pruned
depth-first scan of member masks, and Close-by-One over the closure loop) so
results can be cross-checked, then decides each on its indices with only the
tests closure leaves open.
"""

import itertools
import math

from .groupring import GroupRing
from .structures import (
    FiniteMagma,
    FiniteRing,
    ResourceCap,
    _Record,
    label_is_neutro,
    label_is_zero,
)

LAGRANGE = "Lagrange"
WEAKLY_LAGRANGE = "WeaklyLagrange"
LAGRANGE_FREE = "LagrangeFree"

SCAN_LIMIT = 16
GENERATE_COUNT_LIMIT = 4096
IDEAL_CAP = 4096


class Verdict(_Record):
    __slots__ = ("ok", "witness", "flags", "note")

    def __init__(self, ok, witness=None, flags=(), note=""):
        self.ok = ok
        self.witness = witness
        self.flags = flags
        self.note = note

    def __bool__(self):
        return self.ok


class Refusal(ValueError):
    """A predicate refuses a well-formed value it is not defined on: the
    Lagrange checks take only strict substructures."""


# ---------------------------------------------------------------------------
# the algebra view


class _OpTable:
    """An operation table computed on demand: table[x][y] == op(x, y)."""

    def __init__(self, op):
        self.op = op

    def __getitem__(self, x):
        return _OpRow(self.op, x)


class _OpRow:
    __slots__ = ("op", "x")

    def __init__(self, op, x):
        self.op, self.x = op, x

    def __getitem__(self, y):
        return self.op(self.x, y)


class _View:
    """A carrier read as named operations over its members: element indices
    through the tables of a finite carrier, formal sums through GroupRing
    arithmetic.  `binary` and `unary` are (name, table) pairs a subset must
    be closed under (the name is None for a magma), `spread` the tables a
    closure grows by (a ring's +, then the product, a ring's x or a magma's
    operation, with its transpose unless the two are equal, so a commutative
    product is read once), `absorb` the absorption product and its transpose,
    `gens` what an ideal absorbs (a magma's every element; a ring's additive
    generating set, as its product is bilinear), `ring` the formal-sum ring
    itself (None for a finite carrier), `key` the sort key of members in
    witness order (None: their natural order), and `notes` the wording of a
    missing indeterminate and of an impure member."""

    def __init__(self, u):
        self.size = len(u)
        if isinstance(u, GroupRing):
            mul = _OpTable(u.mul)
            self.binary, self.unary, self.spread = (("sub", _OpTable(u.sub)), ("mul", mul)), (), None
            self.absorb = (mul, _OpTable(lambda a, b: u.mul(b, a)))
            self.gens = [u.monomial(x) for x in u.basis.elements]
            self.neutro, self.label, self.zero, self.ring = u.has_neutro_support, u.format, u.zero, u
            self.impure = lambda a: not all(map(label_is_neutro, u.support_labels(a)))
            self.key = _terms
            # each member is validated before equal ones merge; the set is
            # sorted by `key` only where a walk reports a witness
            self.members = lambda subset: {_vector(u, x) for x in _not_text(subset)}
            self.notes = ("closed but has no indeterminate-supported member",
                          "nonzero member has a plain basis term")
            return
        if isinstance(u, FiniteRing):
            self.binary = (("add", u.add_table), ("mul", u.mul_table))
            self.unary = (("neg", u.neg_map),)
            added, table, self.gens = (u.add_table,), u.mul_table, u.add_gens
        else:
            self.binary, self.unary = ((None, u.table),), ()
            added, table, self.gens = (), u.table, range(self.size)
        self.absorb = (table, [list(col) for col in zip(*table)])
        self.spread = added + ((table,) if self.absorb[1] == table else self.absorb)
        neutro = [label_is_neutro(x) for x in u.elements]
        impure = [not (i or label_is_zero(x)) for x, i in zip(u.elements, neutro)]
        self.zero, self.ring, self.key = None, None, None
        self.neutro, self.impure, self.label = neutro.__getitem__, impure.__getitem__, u.elements.__getitem__
        # the gap search walks a set built from the sorted indices; its order
        # decides which witness is reported.  It reads the carrier's
        # positions, not the carrier, so the view stored on it makes no cycle
        position = u._index.__getitem__
        self.members = lambda labels: set(sorted({position(x) for x in _not_text(labels)}))
        self.notes = ("closed but has no indeterminate member",
                      "member is neither indeterminate nor zero")


def _not_text(labels):
    """`labels`, unless it is a string, which is not a set of labels."""
    if isinstance(labels, str):
        raise ValueError("a subset is a collection of members, not the string %r" % labels)
    return labels


def _view(universe):
    """The algebra view of a carrier, built once per carrier object."""
    view = getattr(universe, "_algebra_view", None)
    if view is None:
        if not isinstance(universe, (GroupRing, FiniteMagma, FiniteRing)):
            raise ValueError("unsupported universe type %r" % type(universe).__name__)
        view = universe._algebra_view = _View(universe)
    return view


# ---------------------------------------------------------------------------
# the kernel


def _closed_gap(order, pool, binary, unary=()):
    """The first gap walking `order` for x, then y, then the operations:
    (x, y, op, z) with z = x op y outside `pool`, (x, None, op, z) for a
    unary map, (x, y, z) for an unnamed magma op.  None when `pool` is
    closed."""
    for x in order:
        for name, table in unary:
            z = table[x]
            if z not in pool:
                return x, None, name, z
        gap, span = None, order
        for name, table in binary:
            # a later operation only scans the members before the gap found
            # so far, so the first gap in (y, op) order wins and no product
            # is computed twice
            row = table[x]
            for y in span:
                z = row[y]
                if z not in pool:
                    gap = (x, y, z) if name is None else (x, y, name, z)
                    span = list(span)
                    span = span[:span.index(y)]
                    break
        if gap is not None:
            return gap
    return None


def _absorb_gap(view, xs, pool, ys):
    """First (x, y, side, z) with z = x*y ("right") or y*x ("left") outside
    `pool`; None when every such product stays inside."""
    right, left = view.absorb
    for x in xs:
        row, col = right[x], left[x]
        for y in ys:
            z = row[y]
            if z not in pool:
                return x, y, "right", z
            z = col[y]
            if z not in pool:
                return x, y, "left", z
    return None


def _labelled(view, gap):
    """A gap with every member replaced by its label."""
    return tuple([m if m is None or isinstance(m, str) else view.label(m) for m in gap])


def _absorb_verdict(view, gap, flags=(), where=""):
    if gap is None:
        return Verdict(True, flags=flags)
    return Verdict(False, witness=_labelled(view, gap), flags=flags,
                   note="not %s-absorbing%s" % (gap[2], where))


def _close(view, seed, base=(), floor=None):
    """Smallest superset of `seed` and of `base` closed under the view's
    tables, where every product of two members of `base` lies in `base` or
    `seed` (a closed `base` is the common case).  A worklist: `order` lists
    the members, those of `base` first, and each member after them is
    multiplied, under every table of `spread`, by every member listed up to
    it, itself included.  So each pair meets once, on the turn of the one
    listed later, and no product of two members of `base` is formed.  The
    walk stops once the set holds the whole carrier, so a closure needs no
    member cap.  With a `floor`, the walk gives up as soon as it adds a
    member below `floor` and returns that member instead of a set."""
    current, order = set(base), list(base)
    i = len(order)
    for x in seed:
        if x not in current:
            current.add(x)
            order.append(x)
    while i < len(order):
        x = order[i]
        i += 1
        for table in view.spread:
            row = table[x]
            for y in itertools.islice(order, i):
                z = row[y]
                if z not in current:
                    if floor is not None and z < floor:
                        return z
                    current.add(z)
                    order.append(z)
                    if len(current) == view.size:
                        return current
    return current


# ---------------------------------------------------------------------------
# formal sums as Z_r-modules


def _vector(gr, x):
    """`x`, unless it is not a canonical element: a tuple of one coefficient
    in 0..r-1 for each basis element, each an int that is not a bool; then
    ValueError names it."""
    # type() of a bool is bool, so {int} refuses True as it refuses 1.0
    if (isinstance(x, tuple) and len(x) == len(gr.basis)
            and set(map(type, x)) == {int} and frozenset(range(gr.r)).issuperset(x)):
        return x
    raise ValueError("%r is not a canonical element of %s" % (x, gr.name))


def _terms(x):
    """The nonzero (index, coefficient) terms of formal sum `x`.  Members are
    walked in the order of their terms, and the walk's first gap is the
    witness, so the recorded witnesses depend on this order."""
    return tuple([(i, c) for i, c in enumerate(x) if c])


def _xgcd(a, b):
    """(g, s, t) with g = gcd(a, b) = s*a + t*b."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, rem = divmod(a, b)
        a, b = b, rem
        s0, s1, t0, t1 = s1, s0 - q * s1, t1, t0 - q * t1
    return a, s0, t0


def _howell(gr, sums, ideal=False, most=None):
    """The Howell form of the Z_r-span of the formal sums `sums` (Howell
    1986; Storjohann and Mulders 1998) and the span's size.  The rows are
    coefficient vectors in order of their pivot, the first nonzero entry,
    which divides r; entries above a pivot are reduced below it.  Every
    (r / pivot)-multiple of a row is a combination of the rows after it, so
    the span is the sums c_1 row_1 + ... with 0 <= c_i < r / pivot_i, one
    member for each choice.  With `ideal` the span also absorbs every basis
    monomial from both sides: it is the two-sided ideal `sums` generate.
    With `most`, gives up and returns None as soon as the span has more than
    `most` members.  Once the span has r^n members it is all of (Z_r)^n,
    whose Howell form is the identity, so the elimination stops there and
    returns the identity rows: nothing left to eliminate could change them.
    Every member of `sums` must be a canonical element."""
    r, table = gr.r, gr.basis.table
    n = len(table)
    rows, todo, size, whole = [None] * n, list(sums), 1, r ** n
    while todo:
        v = todo.pop()
        for col in range(n):
            b = v[col]
            if not b:
                continue
            row = rows[col]
            if row is not None and b % row[col] == 0:
                q = b // row[col]
                v = [(x - q * y) % r for x, y in zip(v, row)]
                continue
            # a unimodular step on (row, v): the new row leads with gcd(a, b),
            # the other combination leads with zero; an empty slot counts as
            # a row with pivot r, which is zero mod r
            a, row = (r, [0] * n) if row is None else (row[col], row)
            g, s, t = _xgcd(a, b)
            # distinct combinations of echelon rows with pivots dividing r
            # are distinct members, so the span is at least this large
            size = size // (r // a) * (r // g)
            if most is not None and size > most:
                return None
            if size == whole:
                return [tuple([int(i == j) for j in range(n)]) for i in range(n)], size
            new = rows[col] = [(s * y + t * x) % r for x, y in zip(v, row)]
            todo.append([(b // g * y - a // g * x) % r for x, y in zip(v, row)])
            todo.append([r // g * x % r for x in new])
            for m in range(n) if ideal else ():
                left, right = [0] * n, [0] * n
                for j, c in enumerate(new):
                    if c:
                        left[table[m][j]] += c
                        right[table[j][m]] += c
                todo.append([c % r for c in left])
                todo.append([c % r for c in right])
            break
    rows = [row for row in rows if row is not None]
    for i, p in enumerate(rows):
        col = next(c for c, x in enumerate(p) if x)
        for above in rows[:i]:
            q = above[col] // p[col]
            if q:
                above[:] = [(x - q * y) % r for x, y in zip(above, p)]
    return [tuple(row) for row in rows], size


def _span_members(gr, rows):
    """Every member of the span of Howell-form `rows`, once each."""
    r, vecs = gr.r, [gr.zero]
    for row in rows:
        pivot = next(c for c in row if c)
        vecs = [tuple([(x + k * y) % r for x, y in zip(u, row)])
                for u in vecs for k in range(r // pivot)]
    return frozenset(vecs)


def _additive_basis(view, pool):
    """The Howell-form rows of formal sums `pool` when it is an additive
    subgroup: it holds 0 and its span is no larger.  None when it is not
    one, or the carrier is finite: the Howell form needs coordinates over
    Z_r, and a finite ring's additive group is given only by its table, so
    its closure is walked pair by pair.  Convolution is bilinear, so a
    product or absorption check over the rows decides it for every member."""
    if view.ring is None:
        return None
    # the span holds `pool`, so it is `pool` unless it has more members
    span = _howell(view.ring, pool, most=len(pool))
    if span is None or view.zero not in pool:
        return None
    return span[0]


def _absorbing_gap(view, pool, ys, rows):
    """The first absorption gap walking `pool` in sorted order, or None
    without the walk when the basis `rows` of additive subgroup `pool`
    absorb every `ys`."""
    if rows is not None and _absorb_gap(view, rows, pool, ys) is None:
        return None
    return _absorb_gap(view, sorted(pool, key=view.key), pool, ys)


def _additive_ideal_verdict(view, pool, gens, where=""):
    """`pool` closed under the view's first operation (+ of a ring, - of
    formal sums) and absorbing every member of `gens` from both sides; a
    walk runs over `pool` in sorted order.  The whole carrier passes on its
    count."""
    if _whole(view, pool):
        return Verdict(True)
    rows = _additive_basis(view, pool)
    gap = _closed_gap(sorted(pool, key=view.key), pool, view.binary[:1]) if rows is None else None
    if gap is not None:
        return Verdict(False, witness=_labelled(view, gap), note="not additively closed")
    return _absorb_verdict(view, _absorbing_gap(view, pool, gens, rows), where=where)


def generated_ideal(gr, gens):
    """Two-sided ideal of a formal-sum ring generated by `gens`: the Howell
    form of their span, saturated under basis monomials on both sides, gives
    the ideal's size before any member is listed; over subsets.IDEAL_CAP
    members raises ResourceCap naming the size.  The listing is rechecked by
    the gap searches, unless it is as large as the ring, which it then is.
    ValueError names a generator that is not a canonical element."""
    rows, size = _howell(gr, [_vector(gr, x) for x in gens], ideal=True)
    if size > IDEAL_CAP:
        raise ResourceCap("generated ideal has %d members, over subsets.IDEAL_CAP = %d"
                          % (size, IDEAL_CAP))
    pool, view = _span_members(gr, rows), _view(gr)
    v = _additive_ideal_verdict(view, pool, view.gens)
    if not v.ok:
        raise RuntimeError("generated ideal failed its recheck: %s at %r" % (v.note, v.witness))
    return pool


def sub_verdict(universe, labels, strict=False, pure=False):
    """Nonempty subset closed under the carrier's operations; strict requires
    an indeterminate member, pure (implying strict) that every member is
    indeterminate or zero."""
    return _substructure(_view(universe), labels, strict, pure)[2]


def _substructure(view, labels, strict, pure):
    """The members of `labels` as a set, their additive basis rows (see
    _additive_basis; None for the whole carrier, which needs none) and
    sub_verdict's verdict on them."""
    pool = view.members(labels)
    rows = None if _whole(view, pool) else _additive_basis(view, pool)
    return pool, rows, _sub_check(view, pool, rows, strict, pure)


def _whole(view, pool):
    """Whether `pool` is the carrier's every member: it holds as many as the
    carrier has, and they are distinct member indices of a finite carrier or
    distinct canonical formal sums.  The whole carrier is closed and absorbs
    every element, so the count is the whole check and no product is
    formed."""
    return len(pool) == view.size


def _sub_check(view, pool, rows, strict, pure):
    """sub_verdict's verdict on the set of members `pool`, with additive
    basis `rows`.  The gap walk runs over a finite carrier's index set as it
    iterates, and over formal sums sorted by `view.key`."""
    if not pool:
        return Verdict(False, flags=("empty",), note="empty subset")
    # the whole carrier has no gap; an additive subgroup is closed under x
    # when its basis rows' products are
    if _whole(view, pool) or rows is not None and _closed_gap(rows, pool, view.binary[1:]) is None:
        gap = None
    else:
        order = pool if view.key is None else sorted(pool, key=view.key)
        gap = _closed_gap(order, pool, view.binary, view.unary)
    if gap is not None:
        return Verdict(False, witness=_labelled(view, gap),
                       note="not closed" if len(gap) == 3 else "not closed under %s" % gap[2])
    flags = ("improper",) if len(pool) == view.size else ()
    if len(pool) == 1 and view.zero in pool:
        flags += ("trivial",)
    if (strict or pure) and not any(map(view.neutro, pool)):
        return Verdict(False, flags=flags + ("no-indeterminate",), note=view.notes[0])
    # the witness is the first impure member in sorted order
    impure = min(filter(view.impure, pool), key=view.key, default=None) if pure else None
    if impure is not None:
        return Verdict(False, witness=(view.label(impure),), flags=flags, note=view.notes[1])
    return Verdict(True, flags=flags)


def ideal_verdict(universe, labels, strict=False, pure=False):
    """Substructure absorbing every generator of the carrier from both sides."""
    view = _view(universe)
    pool, rows, base = _substructure(view, labels, strict, pure)
    if not base.ok:
        return Verdict(False, witness=base.witness,
                       flags=base.flags + ("not-substructure",), note=base.note)
    gap = None if _whole(view, pool) else _absorbing_gap(view, pool, view.gens, rows)
    return _absorb_verdict(view, gap, base.flags)


def ideal_in_parent(universe, part, parent):
    """Absorption of `part` against the members of `parent` only; a part must
    be nonempty, a ring part additively closed, a magma part closed."""
    if not isinstance(universe, (FiniteMagma, FiniteRing)):
        raise ValueError("ideal-of needs a finite magma or ring universe")
    view = _view(universe)
    order = sorted(view.members(part))
    if not order:
        return Verdict(False, flags=("empty",), note="empty subset")
    pool, parent_order = set(order), sorted(view.members(parent))
    if isinstance(universe, FiniteRing):
        return _additive_ideal_verdict(view, pool, parent_order, " in parent")
    v = sub_verdict(universe, part)
    if not v.ok:
        return v
    return _absorb_verdict(view, _absorb_gap(view, order, pool, parent_order), where=" in parent")


def order_verdict(k, total, flags=()):
    """Whether a substructure's order k divides the carrier's order."""
    if total % k == 0:
        return Verdict(True, flags=flags)
    return Verdict(False, witness=(k, total), flags=flags,
                   note="order %d does not divide %d" % (k, total))


def lagrange_class(divides):
    """Lagrange when every order divides, LagrangeFree when none does."""
    if not any(divides):
        return LAGRANGE_FREE
    return LAGRANGE if all(divides) else WEAKLY_LAGRANGE


# ---------------------------------------------------------------------------
# public predicates


def is_subgroupoid(magma, labels, strict=False):
    """Nonempty subset closed under the operation; strict also needs an indeterminate member."""
    return sub_verdict(magma, labels, strict)


def is_strong_subgroupoid(magma, labels):
    """Strict subgroupoid whose members are all indeterminate (zero exempt)."""
    return sub_verdict(magma, labels, True, True)


def is_ideal(magma, labels, strict=False):
    """Subgroupoid absorbing the whole carrier from both sides."""
    return ideal_verdict(magma, labels, strict)


def is_lagrange_sub(magma, labels):
    """Whether a strict subgroupoid's order divides the carrier order."""
    v = is_subgroupoid(magma, labels, strict=True)
    if not v.ok:
        raise Refusal("not a strict subgroupoid: %s" % (v.note,))
    return order_verdict(len(set(labels)), len(magma), v.flags)


def closure(magma, labels):
    """Smallest closed superset, as a frozenset of labels: closed under the
    operation of a magma, under addition and multiplication of a ring."""
    view = _view(magma)
    if view.spread is None:
        raise ValueError("closure needs a finite magma or ring")
    current = _close(view, view.members(labels))
    return frozenset(map(view.label, current))


def is_subring(ring, labels, strict=False):
    """Nonempty subset closed under +, - and x; strict also needs an indeterminate member."""
    return sub_verdict(ring, labels, strict)


def is_ring_ideal(ring, labels, strict=False, pseudo=False):
    """Additive subgroup absorbing ring multiplication from both sides."""
    return ideal_verdict(ring, labels, strict, pseudo)


def gr_is_subring(gr, subset, strict=False):
    """Formal sums closed under - and x; strict also needs an indeterminate-supported member."""
    return sub_verdict(gr, subset, strict)


def gr_is_pseudo_subring(gr, subset):
    """Subring whose nonzero members are supported on indeterminate basis elements only."""
    return sub_verdict(gr, subset, True, True)


def gr_is_ideal(gr, subset, strict=False, pseudo=False):
    """Subring absorbing every basis monomial from both sides."""
    return ideal_verdict(gr, subset, strict, pseudo)


def _grid(gr, pool):
    """(d, basis labels) when `pool`, which holds a nonzero sum, is the
    coefficient grid of the subring dZ_r, which holds its own identity, over
    a closed basis subset; else None.  A grid holds d.h for each of its
    labels h, so its labels are the members' support and d is the gcd of r
    and every coefficient."""
    r, basis = gr.r, gr.basis
    idxs = [i for i, cs in enumerate(zip(*pool)) if any(cs)]
    d = math.gcd(r, *itertools.chain.from_iterable(pool))
    coeffs = range(0, r, d)
    if ((r // d) ** len(idxs) == len(pool)
            and any(all(e * x % r == x for x in coeffs) for e in coeffs)
            and _closed_gap(idxs, set(idxs), _view(basis).binary) is None):
        return d, tuple(basis.elements[i] for i in idxs)
    return None


def gr_is_subneutro(gr, subset, strict=True):
    """Whether `subset` is a coefficient-grid substructure S^H with S a unital
    subring of Z_r and H a closed basis subset (indeterminate member required
    when strict)."""
    pool = frozenset(subset)
    if pool == {gr.zero}:
        return Verdict(True, flags=("trivial",), note="zero subring")
    base = gr_is_subring(gr, pool, strict=False)
    if not base.ok:
        return base
    grid = _grid(gr, pool)
    if grid is None:
        return Verdict(False, flags=base.flags,
                       note="no coefficient-grid decomposition")
    if strict and not any(map(gr.has_neutro_support, pool)):
        return Verdict(False, flags=base.flags + ("no-indeterminate",),
                       note="grid but has no indeterminate-supported member")
    return Verdict(True, witness=grid, flags=base.flags)


# name -> (carrier, kind, strict, pure)
PREDICATES = {
    "subgroupoid": (FiniteMagma, "sub", True, False),
    "loose-subgroupoid": (FiniteMagma, "sub", False, False),
    "strong": (FiniteMagma, "sub", True, True),
    "ideal": (FiniteMagma, "ideal", True, False),
    "loose-ideal": (FiniteMagma, "ideal", False, False),
    "lagrange": (FiniteMagma, "lagrange", True, False),
    "subring": (FiniteRing, "sub", True, False),
    "loose-subring": (FiniteRing, "sub", False, False),
    "pseudo": (FiniteRing, "sub", True, True),
    "ring-ideal": (FiniteRing, "ideal", True, False),
    "loose-ring-ideal": (FiniteRing, "ideal", False, False),
    "pseudo-ideal": (FiniteRing, "ideal", True, True),
    "gr-subring": (GroupRing, "sub", True, False),
    "loose-gr-subring": (GroupRing, "sub", False, False),
    "gr-pseudo": (GroupRing, "sub", True, True),
    "gr-ideal": (GroupRing, "ideal", True, False),
    "loose-gr-ideal": (GroupRing, "ideal", False, False),
    "gr-pseudo-ideal": (GroupRing, "ideal", True, True),
    "gr-subneutro": (GroupRing, "subneutro", True, False),
    "loose-gr-subneutro": (GroupRing, "subneutro", False, False),
}

_FAMILIES = ((GroupRing, "formal-sum"), (FiniteRing, "ring"), (FiniteMagma, "magma"))


def _predicate_row(universe, predicate):
    row = PREDICATES.get(predicate)
    if row is None or not isinstance(universe, row[0]):
        family = next((name for c, name in _FAMILIES if isinstance(universe, c)), None)
        if family is None:
            raise ValueError("unsupported universe type %r" % type(universe).__name__)
        raise ValueError("unknown %s predicate %r" % (family, predicate))
    return row


def check_predicate(universe, labels, predicate):
    """Run a named predicate against a labelled subset."""
    carrier, kind, strict, pure = _predicate_row(universe, predicate)
    if carrier is GroupRing:
        labels = [universe.parse(s) if isinstance(s, str) else s for s in _not_text(labels)]
    if kind == "lagrange":
        return is_lagrange_sub(universe, labels)
    if kind == "subneutro":
        return gr_is_subneutro(universe, labels, strict)
    return (ideal_verdict if kind == "ideal" else sub_verdict)(universe, labels, strict, pure)


# ---------------------------------------------------------------------------
# enumeration


def _scan_closed_sets(spread, n, name):
    """Every nonempty set closed under the tables `spread`, once each.  The
    lowest undecided member is decided in turn: taking it forces in its
    products with the members taken, and a branch dies at a product naming
    a member left out, so only prefixes of closed sets are walked (closed
    sets are a Moore family, Ganter and Wille 1999).  A mask splits into its
    low byte and its high bits (one byte while n <= 16); lo[x][b] is the
    mask of x*y and y*x under every table over the members y in low byte b,
    hi[x][h] over those in high bits h, so the products of x with a mask's
    members are one OR of two lookups."""
    if n > SCAN_LIMIT:
        raise ResourceCap("%s has %d elements, over subsets.SCAN_LIMIT = %d"
                          % (name, n, SCAN_LIMIT))
    # a sum of distinct bits is their OR
    pair = [[sum({1 << t[a][b] for t in spread for a, b in ((x, y), (y, x))})
             for y in range(n)] for x in range(n)]

    def images(x, shift, width):
        t = [0] * (1 << width)
        for b in range(1, len(t)):
            low = b & -b
            t[b] = t[b ^ low] | pair[x][shift + low.bit_length() - 1]
        return t

    lo = [images(x, 0, min(n, 8)) for x in range(n)]
    hi = [images(x, 8, max(n - 8, 0)) for x in range(n)]
    closed, stack = [], [(0, 0)]   # (members taken, members left out)
    while stack:
        inside, out = stack.pop()
        free = (1 << n) - 1 & ~(inside | out)
        if not free:
            if inside:
                closed.append(frozenset(x for x in range(n) if inside >> x & 1))
            continue
        fresh = free & -free
        stack.append((inside, out | fresh))
        inside |= fresh
        while fresh:
            low = fresh & -fresh
            x = low.bit_length() - 1
            product = lo[x][inside & 255] | hi[x][inside >> 8]
            if product & out:
                break
            fresh = (fresh ^ low) | product & ~inside
            inside |= product
        else:
            stack.append((inside, out))
    return closed


def _fresh_products(spread, s, x):
    """The products of x with the closed set `s` that lie outside `s | {x}`,
    formed in the order `_close` forms them (table by table, the members of
    `s`, then x) and read against `s` itself; the first one below x instead
    of the list, where `_close(view, (x,), base=s, floor=x)` stops too."""
    new = []
    for table in spread:
        row = table[x]
        for y in s:
            z = row[y]
            if z not in s and z != x:
                if z < x:
                    return z
                new.append(z)
        z = row[x]
        if z not in s and z != x:
            if z < x:
                return z
            new.append(z)
    return new


def _generate_closed_sets(view, n, name):
    """Every nonempty closed set, once each, by Close-by-One (Kuznetsov
    1999): a closed set `s` reached by adding `y` is extended by each x > y
    outside it.  The extension is kept only when its closure adds no member
    below x (the canonicity test of FCbO, Krajca, Outrata and Vychodil
    2010), so every closed set has one parent and is closed out once.

    Each x is first decided from its products with `s` alone, in the order
    `_close` forms them (table by table, the members of `s`, then x), read
    against `s` itself: the first one outside `s` and below x fails the test
    at once, as `_close` would, and with none outside `s | {x}` that set is
    the closure.  Only otherwise does `_close` run, from the base `s | {x}`
    with those products as the seed, so none is formed twice; it stops at
    the first member below x.  Testing canonicity on a partial closure is
    the idea of In-Close2 (Andrews 2011).

    As in FCbO, a failed test is inherited: `s` records x -> z, and each
    closed set B grown from `s` skips x while z is not in B, since the
    closure of B | {x} contains the closure of s | {x}, so z, and would fail
    the same way.  A child is popped only after its parent's loop ends, so it
    reads the parent's whole map; it writes to its own copy, so a failure
    found under one sibling never reaches another."""
    closed, stack, spread = [], [(frozenset(), -1, {})], view.spread
    while stack:
        s, y, inherited = stack.pop()
        failed = dict(inherited)
        for x in range(y + 1, n):
            if x in s or x in failed and failed[x] not in s:
                continue
            c = _fresh_products(spread, s, x)
            if not isinstance(c, int):
                c = _close(view, c, base=s | {x}, floor=x) if c else s | {x}
            if isinstance(c, int):
                failed[x] = c
                continue
            c = frozenset(c)
            closed.append(c)
            if len(closed) > GENERATE_COUNT_LIMIT:
                raise ResourceCap("enumerating %s reached %d closed sets, over "
                                  "subsets.GENERATE_COUNT_LIMIT = %d"
                                  % (name, len(closed), GENERATE_COUNT_LIMIT))
            stack.append((c, x, failed))
    return closed


def enumerate_subs(universe, predicate="subgroupoid", strategy="auto"):
    """All subsets satisfying a named predicate, sorted by (size, indices).

    strategy 'generate' lists the closed sets by Close-by-One and stops with
    ResourceCap past subsets.GENERATE_COUNT_LIMIT of them, at any carrier
    size; 'scan' decides members depth first, pruning at the first product
    left out (carrier <= subsets.SCAN_LIMIT); 'auto' runs 'generate' and
    falls back to 'scan' only when 'generate' runs out of its count on a
    carrier the scan can take.  Both list the sets closed under every table,
    so each is decided by its predicate's remaining tests alone.  Any other
    strategy raises ValueError, as does an unknown predicate, before
    anything is listed.
    """
    if strategy not in ("scan", "generate", "auto"):
        raise ValueError("unknown strategy %r: expected 'scan', 'generate' or 'auto'"
                         % (strategy,))
    if not isinstance(universe, (FiniteMagma, FiniteRing)):
        raise ValueError("unsupported universe type %r" % type(universe).__name__)
    _, kind, strict, pure = _predicate_row(universe, predicate)
    n, view, candidates = len(universe), _view(universe), None
    if strategy != "scan":
        try:
            candidates = _generate_closed_sets(view, n, universe.name)
        except ResourceCap:
            if strategy == "generate" or n > SCAN_LIMIT:
                raise
    if candidates is None:
        candidates = _scan_closed_sets(view.spread, n, universe.name)
    # every candidate is nonempty and closed, so only the row's residual
    # tests are left; the whole carrier absorbs everything
    kept = sorted((s for s in candidates
                   if (not strict or any(map(view.neutro, s)))
                   and not (pure and any(map(view.impure, s)))
                   and (kind != "ideal" or len(s) == n
                        or _absorb_gap(view, s, s, view.gens) is None)
                   and (kind != "lagrange" or n % len(s) == 0)),
                  key=lambda s: (len(s), sorted(s)))
    return [frozenset(map(view.label, s)) for s in kept]


class LagrangeReport(_Record):
    __slots__ = ("verdict", "dividing", "non_dividing")

    def __init__(self, verdict, dividing=None, non_dividing=None):
        self.verdict = verdict
        self.dividing = [] if dividing is None else dividing
        self.non_dividing = [] if non_dividing is None else non_dividing


def classify_lagrange(magma):
    """Partition the proper strict subgroupoids by order divisibility."""
    total = len(magma)
    proper = [s for s in enumerate_subs(magma, "subgroupoid") if len(s) != total]
    divides = [total % len(s) == 0 for s in proper]
    return LagrangeReport(lagrange_class(divides),
                          [s for s, d in zip(proper, divides) if d],
                          [s for s, d in zip(proper, divides) if not d])
