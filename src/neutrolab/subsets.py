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
A set of formal sums is accepted from an additive generating set
(`_generators`); whenever that check does not accept, the walk over every
pair of members runs and its first gap is the witness.
Enumeration offers two independent strategies (bitmask scan and
Close-by-One over the closure loop) so results can be cross-checked.
"""

from dataclasses import dataclass, field

from .groupring import GroupRing
from .structures import (
    FiniteMagma,
    FiniteRing,
    ResourceCap,
    label_is_neutro,
    label_is_zero,
)

LAGRANGE = "Lagrange"
WEAKLY_LAGRANGE = "WeaklyLagrange"
LAGRANGE_FREE = "LagrangeFree"

SCAN_LIMIT = 16
GENERATE_COUNT_LIMIT = 4096
IDEAL_CAP = 4096


@dataclass
class Verdict:
    ok: bool
    witness: tuple = None
    flags: tuple = ()
    note: str = ""

    def __bool__(self):
        return self.ok


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
    closure grows by, `absorb` the absorption product and its transpose,
    `add` the addition of formal sums (None for a finite carrier), and
    `notes` the wording of a missing indeterminate and of an impure member."""

    def __init__(self, u):
        self.size = len(u)
        if isinstance(u, GroupRing):
            mul = _OpTable(u.mul)
            self.binary, self.unary, self.spread = (("sub", _OpTable(u.sub)), ("mul", mul)), (), None
            self.absorb = (mul, _OpTable(lambda a, b: u.mul(b, a)))
            self.gens = [((i, 1),) for i in range(len(u.basis))]
            self.neutro, self.label, self.zero, self.add = u.has_neutro_support, u.format, u.zero, u.add
            self.impure = lambda a: bool(a) and not u.is_pure_neutro(a)
            self.members = lambda subset: sorted(set(subset))
            self.notes = ("closed but has no indeterminate-supported member",
                          "nonzero member has a plain basis term")
            return
        if isinstance(u, FiniteRing):
            mul_t = [list(col) for col in zip(*u.mul_table)]
            self.binary = (("add", u.add_table), ("mul", u.mul_table))
            self.unary = (("neg", u.neg_map),)
            self.spread, self.absorb = (u.add_table, u.mul_table, mul_t), (u.mul_table, mul_t)
        else:
            self.binary, self.unary = ((None, u.table),), ()
            self.spread = self.absorb = (u.table, [list(col) for col in zip(*u.table)])
        neutro = [label_is_neutro(x) for x in u.elements]
        impure = [not (i or label_is_zero(x)) for x, i in zip(u.elements, neutro)]
        self.gens, self.zero, self.add = range(self.size), None, None
        self.neutro, self.impure, self.label = neutro.__getitem__, impure.__getitem__, u.elements.__getitem__
        # the gap search walks a set built from the sorted indices; its order
        # decides which witness is reported
        self.members = lambda labels: set(sorted({u.idx(x) for x in labels}))
        self.notes = ("closed but has no indeterminate member",
                      "member is neither indeterminate nor zero")


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


def _close(view, seed, cap, spread=None, absorb=(), setting="cap", base=(), floor=None):
    """Smallest superset of `seed` and of the closed set `base` closed under
    the tables of `spread` (the view's by default) and absorbing every member
    of `absorb` from both sides; more than `cap` members raises ResourceCap
    naming `setting`.  Products inside `base` stay inside it, so only members
    outside it are multiplied out, and the walk stops once the set holds the
    whole carrier.  With a `floor`, the walk gives up and returns None as
    soon as it adds a member below `floor`."""
    spread = view.spread if spread is None else spread
    current = set(base)
    frontier = [x for x in set(seed) if x not in current]
    current.update(frontier)
    while frontier:
        fresh = []
        for x in frontier:
            members = list(current)
            rows = [(table[x], members) for table in spread]
            if absorb:
                rows += [(table[x], absorb) for table in view.absorb]
            for row, ys in rows:
                for y in ys:
                    z = row[y]
                    if z not in current:
                        if floor is not None and z < floor:
                            return None
                        current.add(z)
                        fresh.append(z)
                        if len(current) > cap:
                            raise ResourceCap("closure reached %d members, over %s = %d"
                                              % (len(current), setting, cap))
                        if len(current) == view.size:
                            return current
        frontier = fresh
    return current


def _generators(view, order, pool):
    """An additive generating set of formal sums `pool`, or None when `pool`
    is not an additive subgroup or the carrier is finite (a finite ring's
    distributivity is only sampled above 58 elements).  Walking `order`, a
    member outside the span is kept and the span grows by its cosets; the
    walk gives up as soon as the span leaves `pool`.  Convolution is
    bilinear, so a product or absorption check over the generators decides
    it for every member."""
    add = view.add
    if add is None or view.zero not in pool:
        return None
    span, gens = {view.zero}, []
    for x in order:
        if x in span:
            continue
        gens.append(x)
        base, step = list(span), x
        while step not in span:
            for h in base:
                z = add(h, step)
                if z not in pool:
                    return None
                span.add(z)
            step = add(step, x)
    return gens


def _absorbing_gap(view, order, pool, ys, span):
    """The first absorption gap walking `order`, or None without the walk
    when the additive generators `span` of `pool` absorb every `ys`."""
    if span is not None and _absorb_gap(view, span, pool, ys) is None:
        return None
    return _absorb_gap(view, order, pool, ys)


def _additive_ideal_verdict(view, order, pool, gens, where=""):
    """`pool` closed under the view's first operation (+ of a ring, - of
    formal sums) and absorbing every member of `gens` from both sides."""
    span = _generators(view, order, pool)
    gap = _closed_gap(order, pool, view.binary[:1]) if span is None else None
    if gap is not None:
        return Verdict(False, witness=_labelled(view, gap), note="not additively closed")
    return _absorb_verdict(view, _absorbing_gap(view, order, pool, gens, span), where=where)


def generated_ideal(gr, gens):
    """Two-sided ideal of a formal-sum ring generated by `gens`: {0} and
    `gens` closed under + while absorbing the basis monomials (a nonempty
    finite set closed under + is a subgroup), then rechecked by the gap
    searches."""
    view = _view(gr)
    pool = _close(view, [gr.zero, *gens], IDEAL_CAP, (_OpTable(gr.add),), view.gens,
                  "subsets.IDEAL_CAP")
    v = _additive_ideal_verdict(view, sorted(pool), pool, view.gens)
    if not v.ok:
        raise RuntimeError("generated ideal failed its recheck: %s at %r" % (v.note, v.witness))
    return frozenset(pool)


def sub_verdict(universe, labels, strict=False, pure=False):
    """Nonempty subset closed under the carrier's operations; strict requires
    an indeterminate member, pure (implying strict) that every member is
    indeterminate or zero."""
    view = _view(universe)
    order = view.members(labels)
    if not order:
        return Verdict(False, flags=("empty",), note="empty subset")
    pool = order if isinstance(order, set) else set(order)
    span = _generators(view, order, pool)
    # an additive subgroup is closed under x when its generators' products are
    if span is not None and _closed_gap(span, pool, view.binary[1:]) is None:
        gap = None
    else:
        gap = _closed_gap(order, pool, view.binary, view.unary)
    if gap is not None:
        return Verdict(False, witness=_labelled(view, gap),
                       note="not closed" if len(gap) == 3 else "not closed under %s" % gap[2])
    flags = ("improper",) if len(pool) == view.size else ()
    if len(pool) == 1 and view.zero in pool:
        flags += ("trivial",)
    if (strict or pure) and not any(map(view.neutro, order)):
        return Verdict(False, flags=flags + ("no-indeterminate",), note=view.notes[0])
    for x in sorted(pool) if pure else ():
        if view.impure(x):
            return Verdict(False, witness=(view.label(x),), flags=flags, note=view.notes[1])
    return Verdict(True, flags=flags)


def ideal_verdict(universe, labels, strict=False, pure=False):
    """Substructure absorbing every generator of the carrier from both sides."""
    base = sub_verdict(universe, labels, strict, pure)
    if not base.ok:
        return Verdict(False, witness=base.witness,
                       flags=base.flags + ("not-substructure",), note=base.note)
    view = _view(universe)
    pool = set(view.members(labels))
    order = sorted(pool)
    gap = _absorbing_gap(view, order, pool, view.gens, _generators(view, order, pool))
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
        return _additive_ideal_verdict(view, order, pool, parent_order, " in parent")
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
        raise ValueError("not a strict subgroupoid: %s" % (v.note,))
    return order_verdict(len(set(labels)), len(magma), v.flags)


def closure(magma, labels, cap=None):
    """Smallest closed superset, as a frozenset of labels: closed under the
    operation of a magma, under addition and multiplication of a ring."""
    view = _view(magma)
    if view.spread is None:
        raise ValueError("closure needs a finite magma or ring")
    current = _close(view, view.members(labels), len(magma) if cap is None else cap)
    return frozenset(map(view.label, current))


def is_subring(ring, labels, strict=False):
    """Nonempty subset closed under +, - and x; strict also needs an indeterminate member."""
    return sub_verdict(ring, labels, strict)


def is_pseudo_subring(ring, labels):
    """Subring whose nonzero members are all indeterminate."""
    return sub_verdict(ring, labels, True, True)


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


def _grids(gr, pool):
    """Each (d, basis labels) whose coefficient grid equals `pool`: the
    subring dZ_r holds its own identity, the basis subset is closed."""
    basis, r = gr.basis, gr.r
    ops = _view(basis).binary
    for d in range(1, r + 1):
        coeffs = frozenset(range(0, r, d))
        if r % d or not any(all(e * x % r == x for x in coeffs) for e in coeffs):
            continue
        for mask in range(1, 1 << len(basis)):
            idxs = [i for i in range(len(basis)) if mask >> i & 1]
            if (len(coeffs) ** len(idxs) == len(pool)
                    and _closed_gap(idxs, set(idxs), ops) is None
                    and all(i in idxs and c in coeffs for x in pool for i, c in x)):
                yield d, tuple(basis.elements[i] for i in idxs)


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
    grid = next(_grids(gr, pool), None)
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
        labels = [universe.parse(s) if isinstance(s, str) else s for s in labels]
    if kind == "lagrange":
        return is_lagrange_sub(universe, labels)
    if kind == "subneutro":
        return gr_is_subneutro(universe, labels, strict)
    return (ideal_verdict if kind == "ideal" else sub_verdict)(universe, labels, strict, pure)


# ---------------------------------------------------------------------------
# enumeration


def _scan_closed_sets(table, n, name):
    """Every nonempty mask closed under `table`.  A mask splits into its low
    byte and its high bits (one byte while n <= 16); lo[x][b] is the mask of
    x*y over the members y in low byte b, hi[x][h] over those in high bits h,
    so the products of x with a mask's members are one OR of two lookups."""
    if n > SCAN_LIMIT:
        raise ResourceCap("%s has %d elements, over subsets.SCAN_LIMIT = %d"
                          % (name, n, SCAN_LIMIT))

    def images(x, shift, width):
        t = [0] * (1 << width)
        for b in range(1, len(t)):
            low = b & -b
            t[b] = t[b ^ low] | 1 << table[x][shift + low.bit_length() - 1]
        return t

    lo = [images(x, 0, min(n, 8)) for x in range(n)]
    hi = [images(x, 8, max(n - 8, 0)) for x in range(n)]
    closed = []
    for mask in range(1, 1 << n):
        b, h, out = mask & 255, mask >> 8, ~mask
        rest = mask
        while rest:
            low = rest & -rest
            x = low.bit_length() - 1
            if (lo[x][b] | hi[x][h]) & out:
                break
            rest ^= low
        else:
            closed.append(frozenset(x for x in range(n) if mask >> x & 1))
    return closed


def _generate_closed_sets(view, n, name):
    """Every nonempty closed set, once each, by Close-by-One (Kuznetsov
    1999): a closed set `s` reached by adding `y` is extended by each x > y
    outside it and closed from itself as the base.  The closure is kept only
    when it adds no member below x (the canonicity test of FCbO, Krajca,
    Outrata and Vychodil 2010), and `_close` stops at the first such member,
    so every closed set has one parent and is closed out once."""
    closed, stack = [], [(frozenset(), -1)]
    while stack:
        s, y = stack.pop()
        for x in range(y + 1, n):
            if x in s:
                continue
            c = _close(view, (x,), n, base=s, floor=x)
            if c is not None:
                c = frozenset(c)
                closed.append(c)
                if len(closed) > GENERATE_COUNT_LIMIT:
                    raise ResourceCap("enumerating %s reached %d closed sets, over "
                                      "subsets.GENERATE_COUNT_LIMIT = %d"
                                      % (name, len(closed), GENERATE_COUNT_LIMIT))
                stack.append((c, x))
    return closed


def enumerate_subs(universe, predicate="subgroupoid", strategy="auto"):
    """All subsets satisfying a named predicate, sorted by (size, indices).

    strategy 'generate' lists the closed sets by Close-by-One and stops with
    ResourceCap past subsets.GENERATE_COUNT_LIMIT of them, at any carrier
    size; 'scan' walks every bitmask (carrier <= subsets.SCAN_LIMIT); 'auto'
    runs 'generate' and falls back to 'scan' only when 'generate' runs out
    of its count on a carrier the scan can take.  The two agree because
    every satisfying subset is closed.  Any other strategy raises
    ValueError, as does an unknown predicate, before anything is listed.
    """
    if strategy not in ("scan", "generate", "auto"):
        raise ValueError("unknown strategy %r: expected 'scan', 'generate' or 'auto'"
                         % (strategy,))
    if not isinstance(universe, (FiniteMagma, FiniteRing)):
        raise ValueError("unsupported universe type %r" % type(universe).__name__)
    _predicate_row(universe, predicate)
    n, view, candidates = len(universe), _view(universe), None
    if strategy != "scan":
        try:
            candidates = _generate_closed_sets(view, n, universe.name)
        except ResourceCap:
            if strategy == "generate" or n > SCAN_LIMIT:
                raise
    if candidates is None:
        # a ring subset must be closed under both tables: scan the masks
        # closed under the first, then filter
        candidates = _scan_closed_sets(view.binary[0][1], n, universe.name)
    out = []
    for idx_set in candidates:
        labels = frozenset(universe.elements[i] for i in idx_set)
        try:
            v = check_predicate(universe, labels, predicate)
        except ValueError:   # a lagrange candidate that is not a strict subgroupoid
            continue
        if v.ok:
            out.append(labels)
    out.sort(key=lambda s: (len(s), tuple(sorted(universe.idx(x) for x in s))))
    return out


@dataclass
class LagrangeReport:
    verdict: str
    dividing: list = field(default_factory=list)
    non_dividing: list = field(default_factory=list)


def classify_lagrange(magma):
    """Partition the proper strict subgroupoids by order divisibility."""
    total = len(magma)
    proper = [s for s in enumerate_subs(magma, "subgroupoid") if len(s) != total]
    divides = [total % len(s) == 0 for s in proper]
    return LagrangeReport(lagrange_class(divides),
                          [s for s, d in zip(proper, divides) if d],
                          [s for s, d in zip(proper, divides) if not d])
