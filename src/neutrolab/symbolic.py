"""Symbolic carriers for the infinite cases: named coefficient rings (nZ, Z,
Q, R, C, optionally extended by I), formal-sum rings over a finite basis with
such coefficients, and unions of either kind.

Containment, intersection, and ideal tests are decided from the names; union
carriers are substructures exactly when one member contains every other, and
otherwise a cross-sum escape witness is produced (for additive groups A and
B, any a in A\\B plus b in B\\A lands outside both).
"""

import json
import math
from dataclasses import dataclass
from fractions import Fraction

from .subsets import Verdict, _absorb_gap, _view, is_subgroupoid

_RANK = {"Z": 0, "Q": 1, "R": 2, "C": 3}


@dataclass(frozen=True)
class NamedRing:
    base: str = "Z"
    mult: int = 1
    neutro: bool = False

    def __post_init__(self):
        if self.base not in _RANK:
            raise ValueError("base must be one of Z, Q, R, C")
        if self.mult < 1:
            raise ValueError("multiplier must be positive")
        if self.mult != 1 and self.base != "Z":
            raise ValueError("only Z takes a multiplier")

    @property
    def core_name(self):
        return self.base if self.mult == 1 else "%dZ" % self.mult

    @property
    def name(self):
        return "<%s u I>" % self.core_name if self.neutro else self.core_name

    def __str__(self):
        return self.name


def _core_contains(inner, outer):
    if inner.base == "Z" and outer.base == "Z":
        return inner.mult % outer.mult == 0
    if inner.base == "Z":
        return True
    if outer.base == "Z":
        return False
    return _RANK[inner.base] <= _RANK[outer.base]


def sym_contains(inner, outer):
    """Whether every member of `inner` lies in `outer`."""
    if inner.neutro and not outer.neutro:
        return False
    return _core_contains(inner, outer)


def sym_is_field(r):
    return not r.neutro and r.base in ("Q", "R", "C")


def sym_is_neutro_field(r):
    """An indeterminacy extension of a field (the usual I-extended fields)."""
    return r.neutro and r.base in ("Q", "R", "C")


def sym_intersect(a, b):
    neutro = a.neutro and b.neutro
    if a.base == "Z" and b.base == "Z":
        return NamedRing("Z", math.lcm(a.mult, b.mult), neutro)
    if a.base == "Z":
        return NamedRing("Z", a.mult, neutro)
    if b.base == "Z":
        return NamedRing("Z", b.mult, neutro)
    low = a if _RANK[a.base] <= _RANK[b.base] else b
    return NamedRing(low.base, 1, neutro)


def _outside(a, b):
    """A canonical member of `a` that is not a member of `b`, as its text and
    its (part, number) value: part "1" or "I", number rational (an int or
    Fraction), or "R" / "C" for an irrational real / a non-real number."""
    if sym_contains(a, b):
        raise ValueError("%s lies inside %s" % (a.name, b.name))
    if a.neutro and not b.neutro:
        mul = a.mult if a.base == "Z" else 1
        return ("%dI" % mul if mul != 1 else "I"), ("I", mul)
    if a.base == "Z" and b.base == "Z":
        return str(a.mult), ("1", a.mult)
    if b.base == "Z":
        return "1/2", ("1", Fraction(1, 2))
    return {"R": "sqrt(2)", "C": "sqrt(-1)"}[a.base], ("1", a.base)


def rep_outside(a, b):
    """A canonical member of `a` that is not a member of `b`."""
    return _outside(a, b)[0]


def sym_subring_of(inner, outer):
    if sym_contains(inner, outer):
        return Verdict(True)
    if inner.neutro and not outer.neutro:
        return Verdict(False, witness=(rep_outside(inner, outer),),
                       note="indeterminate member escapes %s" % outer.name)
    return Verdict(False, witness=(rep_outside(inner, outer),),
                   note="member of %s outside %s" % (inner.name, outer.name))


def sym_ideal_of(inner, outer):
    """nZ-style ideals: containment plus coefficient absorption."""
    v = sym_subring_of(inner, outer)
    if not v.ok:
        return Verdict(False, witness=v.witness,
                       flags=("not-substructure",), note=v.note)
    if outer.base == "Z" or inner.core_name == outer.core_name:
        return Verdict(True)
    return Verdict(False, witness=(rep_outside(outer, inner), "absorb"),
                   note="%s-multiples leave %s" % (outer.name, inner.name))


# ---------------------------------------------------------------------------
# symbolic formal-sum rings over a finite basis


@dataclass(frozen=True)
class SymGroupRing:
    coeff: NamedRing
    basis: object                       # FiniteMagma
    subset: frozenset = None            # basis labels; None means all

    def __post_init__(self):
        labels = self.subset
        if labels is None:
            labels = frozenset(self.basis.elements)
        else:
            labels = frozenset(labels)
            for x in labels:
                self.basis.idx(x)
            if not labels:
                raise ValueError("basis subset must be nonempty")
        object.__setattr__(self, "subset", labels)

    @property
    def name(self):
        if self.subset == frozenset(self.basis.elements):
            span = self.basis.name
        else:
            span = "{%s}" % _span_labels(sorted(self.subset, key=self.basis.idx))
        return "%s<%s>" % (self.coeff.name, span)

    def __str__(self):
        return self.name


def _span_labels(labels):
    """A span's basis labels as its name writes them: joined by ",", each as
    it is unless one holds a character that would end a label or the span
    early; then each as a JSON string with its angle brackets escaped, which
    softsets reads back by the leading quote."""
    if all(map(frozenset(',<>"').isdisjoint, labels)):
        return ",".join(labels)
    return ",".join(json.dumps(x).replace("<", "\\u003c").replace(">", "\\u003e")
                    for x in labels)


def _coeff_monomial(coeff, label):
    c = coeff.mult if coeff.base == "Z" else 1
    return label if c == 1 else "%d%s" % (c, label)


def sym_gr_contains(inner, outer):
    if inner.basis is not outer.basis and inner.basis.elements != outer.basis.elements:
        return False
    return sym_contains(inner.coeff, outer.coeff) and inner.subset <= outer.subset


def sym_gr_subring_of(inner, outer):
    """Span containment plus closure of the inner basis subset."""
    if not sym_gr_contains(inner, outer):
        if inner.subset <= outer.subset:
            return Verdict(False, witness=(rep_outside(inner.coeff, outer.coeff),),
                           note="coefficient escapes")
        lab = sorted(inner.subset - outer.subset, key=inner.basis.idx)[0]
        return Verdict(False, witness=(_coeff_monomial(inner.coeff, lab),),
                       note="basis term escapes")
    v = is_subgroupoid(inner.basis, inner.subset)
    if not v.ok:
        return Verdict(False, witness=v.witness, note="basis subset not closed")
    return Verdict(True)


def sym_gr_ideal_of(inner, outer):
    v = sym_gr_subring_of(inner, outer)
    if not v.ok:
        return Verdict(False, witness=v.witness,
                       flags=("not-substructure",), note=v.note)
    if outer.coeff.base != "Z" and inner.coeff.core_name != outer.coeff.core_name:
        return Verdict(False, witness=(rep_outside(outer.coeff, inner.coeff), "absorb"),
                       note="coefficient multiples leave the inner span")
    basis = inner.basis
    pool = {basis.idx(x) for x in inner.subset}
    # both products g*h and h*g of an outer g with an inner h stay inside
    gap = _absorb_gap(_view(basis), sorted(basis.idx(x) for x in outer.subset),
                      pool, sorted(pool))
    if gap is not None:
        g, h, _, z = gap
        return Verdict(False, witness=(basis.elements[g], basis.elements[h], basis.elements[z]),
                       note="basis subset not absorbing")
    return Verdict(True)


# ---------------------------------------------------------------------------
# unions


@dataclass(frozen=True)
class SymUnion:
    members: tuple

    @property
    def name(self):
        return " u ".join(m.name for m in self.members)

    def __str__(self):
        return self.name


def sym_union_substructure(union):
    """A union of named carriers is a substructure exactly when one member
    contains every other.  Otherwise a cross sum of two members escapes both;
    the note says it escapes every member only when the other members were
    checked too, since three subgroups can cover a group (Scorza 1926)."""
    members = union.members
    if not members:
        return Verdict(False, flags=("empty",), note="empty union")
    contains = sym_gr_contains if isinstance(members[0], SymGroupRing) else sym_contains
    for top in members:
        if all(contains(m, top) for m in members):
            return Verdict(True, witness=(top.name,), note="collapses to one member")
    landed = None
    for i, b in enumerate(members):
        for a in members[i + 1:]:
            if contains(a, b) or contains(b, a):
                continue
            (ra, va), (rb, vb) = _member_rep(a, b), _member_rep(b, a)
            witness = (ra, rb, "add", "%s+%s" % (ra, rb))
            total = {k: _plus(va.get(k, 0), vb.get(k, 0)) for k in va.keys() | vb.keys()}
            if not any(_holds(m, total) for m in members):
                return Verdict(False, witness=witness, note="cross sum lies outside every member")
            landed = landed or witness
    return Verdict(False, witness=landed,
                   note="no member contains every other; the cross sum lands in a third member")


def _member_rep(a, b):
    """A member of `a` outside `b`: its text and its value, a map from
    (basis label or None, part) to a number."""
    if isinstance(a, SymGroupRing):
        extra = sorted(a.subset - b.subset, key=a.basis.idx)
        if extra:
            c = a.coeff.mult if a.coeff.base == "Z" else 1
            return _coeff_monomial(a.coeff, extra[0]), {(extra[0], "1"): c}
        text, (part, c) = _outside(a.coeff, b.coeff)
        return text, {(min(a.subset, key=a.basis.idx), part): c}
    text, (part, c) = _outside(a, b)
    return text, {(None, part): c}


def _plus(x, y):
    if isinstance(x, str) or isinstance(y, str):
        # an irrational summand keeps the sum irrational: the reps never cancel
        return max((x, y), key=lambda v: _RANK[v] if isinstance(v, str) else -1)
    return x + y


def _holds(member, value):
    """Whether the element `value` (as built by _member_rep) lies in `member`."""
    ring, subset = ((member.coeff, member.subset) if isinstance(member, SymGroupRing)
                    else (member, None))
    for (label, part), c in value.items():
        if c == 0:
            continue
        if (subset is not None and label not in subset) or (part == "I" and not ring.neutro):
            return False
        if isinstance(c, str):
            if _RANK[ring.base] < _RANK[c]:
                return False
        elif ring.base == "Z" and (c.denominator != 1 or c.numerator % ring.mult):
            return False
    return True
