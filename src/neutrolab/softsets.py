"""Parameterized families of carrier subsets, and the six standard pairwise
operations on them.

A soft set is a map from parameter names to assignment values over one shared
universe, all of the kind `value_kind` picks for it: label sets, formal-sum
sets, tuples of label sets (one part per component), or symbolic carriers.
A value of another shape raises ValueError when the soft set is built.  The
kind also meets, joins and compares two values: each operation merges the
values of two assignment maps with its kind's meet or join (`op_items`).  The
restricted union follows the worked usage (merge only on the shared
parameters); the union over every parameter is the extended union.  The
kind decides a value the same way for every caller: an empty value fails
flagged `empty-assignment` or `empty-part`, and a value the predicate
refuses (a `lagrange` value that is not a strict subgroupoid) fails with
the refusal's text as its note.

Values are frozen once, when a soft set is built, and the operations share
them: a result holds its operands' frozensets, and a part intersected with
itself is that same object.
"""

import json
import re
from collections import namedtuple
from functools import partial
from itertools import repeat
from operator import is_, le, not_, or_

from .groupring import GroupRing
from .ncollect import NCollection, n_decider
from .structures import FiniteMagma, FiniteRing, _Record, label_is_neutro
from .subsets import (
    LAGRANGE,
    LAGRANGE_FREE,
    WEAKLY_LAGRANGE,
    Refusal,
    Verdict,
    _predicate_row,
    check_predicate,
    ideal_in_parent,
    is_lagrange_sub,
    lagrange_class,
)

# the symbolic carriers' module, which value_kind imports for the first
# universe of no finite kind (and with it `fractions` and `decimal`); the
# symbolic value functions below are reached only through that kind
sym = None


class SoftSet(_Record):
    __slots__ = ("universe", "assign")

    def __init__(self, universe, assign):
        if not assign:
            raise ValueError("a soft set needs at least one parameter")
        freeze = value_kind(universe).freeze
        self.universe = universe
        self.assign = {p: freeze(universe, v) for p, v in sorted(assign.items())}

    @classmethod
    def _of_frozen(cls, universe, assign):
        """A soft set over values that are already frozen: `assign` is a
        map or (param, value) pairs, already in parameter order."""
        soft = cls.__new__(cls)
        soft.universe, soft.assign = universe, dict(assign)
        return soft

    @property
    def params(self):
        return tuple(self.assign)

    def value(self, p):
        return self.assign[p]


# ---------------------------------------------------------------------------
# one table of value functions per universe kind
#
# freeze(u, raw): the value, frozen; a wrong shape raises ValueError
# empty(v): no member (a label set) or an empty part (a collection value)
# neutro(u, v): some member carries the indeterminacy I
# size(v): the number of members, which orders a hunt's population
# decide(u, predicate): the Verdict of a value as a function of the value; a
#     predicate is a name or a callable (u, value) -> Verdict, and a name the
#     kind does not decide raises ValueError here; an empty value and one the
#     predicate refuses get a failing Verdict
# whole(u, v): v is the whole carrier
# load(u, raw), dump(u, v): the value read from and written as JSON
# meet(a, b), join(a, b): the intersection and the union of two values; a
#     value met with itself is returned as it is
# contains(small, big): every member of `small` lies in `big`

ValueKind = namedtuple("ValueKind", "freeze empty neutro size decide whole load dump "
                                    "meet join contains")


def value_kind(universe):
    """The value functions of the universe's kind."""
    global sym
    if isinstance(universe, (FiniteMagma, FiniteRing)):
        return _LABELS
    if isinstance(universe, GroupRing):
        return _SUMS
    if isinstance(universe, NCollection):
        return _PARTS
    if sym is None:
        from . import symbolic as sym
    if isinstance(universe, (sym.NamedRing, sym.SymGroupRing)):
        return _SYMBOLIC
    raise ValueError("no soft-set values over a %s" % type(universe).__name__)


def _label_set(raw, member=str):
    """`raw`, a collection of `member`s, as a frozenset; an exact frozenset
    is returned as it is."""
    if not (isinstance(raw, (list, tuple, set, frozenset))
            and all(map(isinstance, raw, repeat(member)))):
        raise ValueError("expected a set of %s members, got %.60r" % (member.__name__, raw))
    return raw if type(raw) is frozenset else frozenset(raw)


def _set_meet(a, b):
    return a if a is b else a & b


def _freeze_parts(u, raw):
    """One label set per component; an exact tuple of exact frozensets is
    returned as it is."""
    if not isinstance(raw, (list, tuple)):
        raise ValueError("a collection value is a tuple of label sets, got %.60r" % (raw,))
    if len(raw) != len(u.components):
        raise ValueError("expected %d parts, got %d" % (len(u.components), len(raw)))
    parts = tuple(map(_label_set, raw))
    return raw if type(raw) is tuple and all(map(is_, parts, raw)) else parts


def _members(v):
    return v.members if isinstance(v, sym.SymUnion) else (v,)


def _freeze_symbolic(u, raw):
    """A carrier of the universe's own type, or a union of them; over a
    symbolic group ring, a coefficient ring, alone or as a union's member,
    stands for its span."""
    if isinstance(u, sym.SymGroupRing) and any(isinstance(m, sym.NamedRing)
                                               for m in _members(raw)):
        spans = tuple(sym.SymGroupRing(m, u.basis) if isinstance(m, sym.NamedRing) else m
                      for m in _members(raw))
        raw = sym.SymUnion(spans) if isinstance(raw, sym.SymUnion) else spans[0]
    if not all(isinstance(m, type(u)) for m in _members(raw)):
        raise ValueError("expected a %s value, got %.60r" % (type(u).__name__, raw))
    return raw


# a symbolic value as `dump` writes it: members joined by " u " outside the
# angle brackets; a member is a named ring (Z, Q, R, C, nZ or <nZ u I>) and,
# over a symbolic group ring, its span: <basis name> or <{label,...}>, whose
# labels are JSON strings when the first is (symbolic._span_labels)
_SYM_UNION = re.compile(r" u (?![^<>]*>)")
_SYM_MEMBER = re.compile(r"(<)?(\d*)([ZQRC])(?(1) u I>)(?:<([^<>]*)>)?")


def _load_symbolic(u, raw):
    """A value as `_freeze_symbolic` takes it, or the text `dump` writes
    for one."""
    if isinstance(raw, str):
        members = tuple(_symbolic_member(u, text) for text in _SYM_UNION.split(raw))
        raw = members[0] if len(members) == 1 else sym.SymUnion(members)
    return _freeze_symbolic(u, raw)


def _symbolic_member(u, text):
    m = _SYM_MEMBER.fullmatch(text)
    if m is None:
        raise ValueError("not a symbolic value: %.60r" % text)
    ring = sym.NamedRing(m[3], int(m[2] or 1), m[1] is not None)
    span = m[4]
    if span is None:
        return ring
    if not isinstance(u, sym.SymGroupRing):
        raise ValueError("expected a %s value, got %.60r" % (type(u).__name__, text))
    if span == u.basis.name:
        return sym.SymGroupRing(ring, u.basis)
    if span[:1] != "{" or span[-1:] != "}":
        raise ValueError("a span is %s or a set of its labels, got %.60r" % (u.basis.name, span))
    text = span[1:-1]
    if text[:1] != '"':
        labels = text.split(",")
    else:
        try:
            labels = json.loads("[%s]" % text)
        except ValueError:
            labels = None
        if labels is None or not all(isinstance(x, str) for x in labels):
            raise ValueError("quoted span labels are JSON strings, got %.60r" % span)
    return sym.SymGroupRing(ring, u.basis, labels)


def _sym_meet(a, b):
    if isinstance(a, sym.NamedRing) and isinstance(b, sym.NamedRing):
        return sym.sym_intersect(a, b)
    if a == b:
        return a
    raise ValueError("no intersection for these symbolic values")


def _sym_join(a, b):
    """The union of two values; a union of one member is that member."""
    members = tuple(dict.fromkeys((*_members(a), *_members(b))))
    return members[0] if len(members) == 1 else sym.SymUnion(members)


def _sym_contains(small, big):
    if isinstance(small, sym.NamedRing) and isinstance(big, sym.NamedRing):
        return sym.sym_contains(small, big)
    if isinstance(small, sym.SymGroupRing) and isinstance(big, sym.SymGroupRing):
        return sym.sym_gr_contains(small, big)
    raise ValueError("no containment for these values")


def _deciding(test, nonempty, flag):
    """test(v); a Verdict flagged `flag` when `nonempty(v)` is false, and a
    failing one with the refusal's text as its note when `test` refuses v."""
    def decide(v):
        if not nonempty(v):
            return Verdict(False, flags=(flag,), note=flag.replace("-", " "))
        try:
            return test(v)
        except Refusal as exc:
            return Verdict(False, note=str(exc))
    return decide


def _decide_set(u, predicate):
    if callable(predicate):
        return _deciding(partial(predicate, u), bool, "empty-assignment")
    _predicate_row(u, predicate)
    return _deciding(lambda v: check_predicate(u, v, predicate), bool, "empty-assignment")


# collection predicate name -> the n_decider options it names; strong-n-sub,
# whose every part holds an indeterminate member, has no loose form
N_PREDICATES = {
    "n-sub": {},
    "loose-n-sub": {"require_neutro": False},
    "strong-n-sub": {"strong": True},
    "n-ideal": {"ideal": True},
    "loose-n-ideal": {"ideal": True, "require_neutro": False},
}


def _decide_parts(u, predicate):
    """The value's verdict, each distinct (component, part) decided once by
    the returned function (ncollect.n_decider)."""
    if callable(predicate):
        return _deciding(partial(predicate, u), all, "empty-part")
    if predicate not in N_PREDICATES:
        raise ValueError("unknown collection predicate %r" % predicate)
    return _deciding(n_decider(u, **N_PREDICATES[predicate]), all, "empty-part")


def _decide_symbolic(u, predicate):
    """Only the union check is decided: loose-subring over a named ring,
    loose-gr-subring over a symbolic group ring."""
    if callable(predicate):
        return partial(predicate, u)
    if predicate != ("loose-gr-subring" if isinstance(u, sym.SymGroupRing) else "loose-subring"):
        raise ValueError("unknown symbolic predicate %r" % predicate)
    return lambda v: sym.sym_union_substructure(sym.SymUnion(_members(v)))


def _not_finite(u, v):
    raise ValueError("absolute check needs a finite universe")


_LABELS = ValueKind(
    freeze=lambda u, raw: _label_set(raw), empty=not_,
    neutro=lambda u, v: any(map(label_is_neutro, v)), size=len, decide=_decide_set,
    whole=lambda u, v: len(v) == len(u) and v == frozenset(u.elements),
    load=lambda u, raw: _label_set(raw), dump=lambda u, v: sorted(v),
    meet=_set_meet, join=or_, contains=le)
_SUMS = _LABELS._replace(
    freeze=lambda u, raw: _label_set(raw, tuple),
    neutro=lambda u, v: any(map(u.has_neutro_support, v)),
    # sizes first: a group ring can hold millions of sums
    whole=lambda u, v: len(v) == len(u) and v == frozenset(u.elements()),
    load=lambda u, raw: frozenset(map(u.parse, _label_set(raw))),
    dump=lambda u, v: sorted(map(u.format, v)))
_PARTS = ValueKind(
    freeze=_freeze_parts, empty=lambda v: not all(v),
    neutro=lambda u, v: any(label_is_neutro(x) for p in v for x in p),
    size=lambda v: sum(map(len, v)), decide=_decide_parts,
    whole=lambda u, v: v == tuple(frozenset(c.structure.elements) for c in u.components),
    load=_freeze_parts, dump=lambda u, v: [sorted(p) for p in v],
    meet=lambda a, b: a if a is b else tuple(map(_set_meet, a, b)),
    join=lambda a, b: tuple(map(or_, a, b)), contains=lambda a, b: all(map(le, a, b)))
_SYMBOLIC = ValueKind(
    freeze=_freeze_symbolic, empty=lambda v: False,
    neutro=lambda u, v: any(m.neutro if isinstance(m, sym.NamedRing)
                            else any(map(label_is_neutro, m.subset)) for m in _members(v)),
    size=lambda v: 1, decide=_decide_symbolic, whole=_not_finite,
    load=_load_symbolic, dump=lambda u, v: str(v), meet=_sym_meet, join=_sym_join,
    contains=_sym_contains)


# ---------------------------------------------------------------------------
# the six operations: one of three shapes over two assignment maps, with
# the kind's meet or join as the merge of two values


class Uncombinable(ValueError):
    """An operation refuses two assignment maps it cannot combine: a
    restricted operation on two with no shared parameter, or a crossed one
    whose pairs would share a name."""


def _check_same_universe(f, k):
    if f.universe is not k.universe:
        raise ValueError("soft sets live over different universes")


def _restricted(f, k, merge):
    shared = sorted(f.keys() & k.keys())
    if not shared:
        raise Uncombinable("restricted operations need a shared parameter")
    return [(p, merge(f[p], k[p])) for p in shared]


def _extended(f, k, merge):
    out = {**k, **f}
    for p in f.keys() & k.keys():
        out[p] = merge(f[p], k[p])
    return sorted(out.items())


def _crossed(f, k, merge, sep):
    """One parameter `a<sep>b` per pair; two pairs that would share a name
    (say x&y with z, and x with y&z) raise Uncombinable naming it before
    any value is formed."""
    names = ["%s%s%s" % (a, sep, b) for a in f for b in k]
    if len(set(names)) < len(names):
        raise Uncombinable("crossed parameter %r names two pairs"
                           % next(p for p in names if names.count(p) > 1))
    return sorted(zip(names, (merge(fa, kb) for fa in f.values() for kb in k.values())))


_OP_SHAPES = {
    "restricted-intersection": (_restricted, "meet"),
    "extended-intersection": (_extended, "meet"),
    "restricted-union": (_restricted, "join"),
    "extended-union": (_extended, "join"),
    "and": (partial(_crossed, sep="&"), "meet"),
    "or": (partial(_crossed, sep="|"), "join"),
}


def op_items(name, f_assign, k_assign, kind):
    """The (param, value) pairs of operation `name` on two assignment maps
    of frozen values, merged by `kind`'s meet or join, in parameter order;
    the public operations build their soft set from them."""
    shape, merge = _OP_SHAPES[name]
    return shape(f_assign, k_assign, getattr(kind, merge))


def _op(name, f, k):
    _check_same_universe(f, k)
    return SoftSet._of_frozen(f.universe, op_items(name, f.assign, k.assign,
                                                   value_kind(f.universe)))


def restricted_intersection(f, k):
    return _op("restricted-intersection", f, k)


def extended_intersection(f, k):
    return _op("extended-intersection", f, k)


def extended_union(f, k):
    return _op("extended-union", f, k)


def restricted_union(f, k):
    """Merge on the shared parameters (the usage in the worked cases)."""
    return _op("restricted-union", f, k)


def and_op(f, k):
    return _op("and", f, k)


def or_op(f, k):
    return _op("or", f, k)


def same_param_intersection(f, k):
    _check_same_universe(f, k)
    if set(f.params) != set(k.params):
        raise ValueError("same-parameter intersection needs equal parameter sets")
    return restricted_intersection(f, k)


def disjoint_union(f, k):
    _check_same_universe(f, k)
    if set(f.params) & set(k.params):
        raise ValueError("disjoint union needs disjoint parameter sets")
    return extended_union(f, k)


OPS = {
    "restricted-intersection": restricted_intersection,
    "extended-intersection": extended_intersection,
    "restricted-union": restricted_union,
    "extended-union": extended_union,
    "and": and_op,
    "or": or_op,
}


# ---------------------------------------------------------------------------
# per-assignment checks


class SoftReport(_Record):
    __slots__ = ("ok", "failures", "flags", "note")

    def __init__(self, ok, failures=(), flags=(), note=""):
        self.ok = ok
        self.failures = failures
        self.flags = flags
        self.note = note

    def __bool__(self):
        return self.ok


def _report(params, verdict_of):
    failures = tuple((p, v) for p in params for v in (verdict_of(p),) if not v.ok)
    if failures:
        return SoftReport(False, failures, note="%d of %d assignments fail"
                                                % (len(failures), len(params)))
    return SoftReport(True)


def soft_is(soft, predicate):
    """Whether every assignment satisfies the named per-value predicate; an
    empty assignment and one the predicate refuses fail (see _deciding).  An
    unknown predicate name raises ValueError before any assignment is
    decided, and a malformed value (an unknown label) raises ValueError too."""
    decide = value_kind(soft.universe).decide(soft.universe, predicate)
    return _report(soft.params, lambda p: decide(soft.value(p)))


def soft_neutro_params(soft):
    """Parameters whose assignment carries an indeterminate member."""
    neutro = value_kind(soft.universe).neutro
    return tuple(p for p in soft.params if neutro(soft.universe, soft.value(p)))


def soft_lagrange_class(soft):
    """Lagrange / WeaklyLagrange / LagrangeFree over the assignments."""
    divides = []
    for p in soft.params:
        value = soft.value(p)
        if not isinstance(value, frozenset):
            raise ValueError("Lagrange classes need finite label assignments")
        try:
            v = is_lagrange_sub(soft.universe, value)
        except Refusal:
            raise ValueError("assignment %r is not a strict subgroupoid" % (p,))
        divides.append(v.ok)
    return lagrange_class(divides)


def is_absolute(soft):
    """Every assignment equals the whole carrier."""
    whole = value_kind(soft.universe).whole
    return all(whole(soft.universe, soft.value(p)) for p in soft.params)


def _nested_report(h, f, verdict_of):
    """Parameters of H nest in those of F; then verdict_of(H(b), F(b)) for
    every parameter b of H."""
    _check_same_universe(h, f)
    extra = sorted(set(h.params) - set(f.params))
    if extra:
        return SoftReport(False, ((extra[0], Verdict(False, note="parameter not in parent")),),
                          note="parameters are not a subset")
    return _report(h.params, lambda b: verdict_of(h.value(b), f.value(b)))


def soft_sub_of(h, f, predicate="loose-subgroupoid"):
    """(H, B) inside (F, A): parameters nest, assignments nest, and each H(b)
    is itself a substructure (closure is inherited by the parent)."""
    kind = value_kind(h.universe)
    decide = kind.decide(h.universe, predicate)
    return _nested_report(h, f, lambda hv, fv: (
        decide(hv) if kind.contains(hv, fv)
        else Verdict(False, note="assignment not inside parent")))


def soft_ideal_of(h, f):
    """(H, B) an ideal of (F, A): nested parameters and assignments, each
    H(b) absorbing products with members of F(b)."""
    kind = value_kind(h.universe)

    def verdict(hv, fv):
        if kind is _SYMBOLIC and isinstance(hv, sym.SymGroupRing):
            return sym.sym_gr_ideal_of(hv, fv)
        if kind is _SYMBOLIC and isinstance(hv, sym.NamedRing):
            return sym.sym_ideal_of(hv, fv)
        if not kind.contains(hv, fv):
            return Verdict(False, note="assignment not inside parent")
        return ideal_in_parent(h.universe, hv, fv)

    return _nested_report(h, f, verdict)
