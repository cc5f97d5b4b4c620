"""Parameterized families of carrier subsets, and the six standard pairwise
operations on them.

A soft set is a map from parameter names to assignment values over one shared
universe.  Values are frozensets of labels (finite carriers), tuples of
frozensets (collection carriers, one part per component), or symbolic
carriers.  The restricted union follows the worked usage (merge only on the
shared parameters); the literal flag switches to the written-down version,
which coincides with the extended union.

Values are frozen once, when a soft set is built, and the operations share
them: a result holds its operands' frozensets, and a part intersected with
itself is that same object.
"""

from dataclasses import dataclass

from .groupring import GroupRing
from .ncollect import NCollection, is_n_ideal, is_n_sub
from .structures import FiniteMagma, FiniteRing, label_is_neutro
from .subsets import (
    LAGRANGE,
    LAGRANGE_FREE,
    WEAKLY_LAGRANGE,
    Verdict,
    _predicate_row,
    check_predicate,
    ideal_in_parent,
    is_lagrange_sub,
    lagrange_class,
)
from . import symbolic as sym


@dataclass
class SoftSet:
    universe: object
    assign: dict

    def __post_init__(self):
        if not self.assign:
            raise ValueError("a soft set needs at least one parameter")
        self.assign = {p: _freeze_value(v) for p, v in sorted(self.assign.items())}

    @classmethod
    def _of_frozen(cls, universe, assign):
        """An operation's result: `assign` holds values that are already
        frozen, so only the parameters are sorted."""
        soft = cls.__new__(cls)
        soft.universe, soft.assign = universe, dict(sorted(assign.items()))
        return soft

    @property
    def params(self):
        return tuple(self.assign)

    def value(self, p):
        return self.assign[p]


def _freeze_value(v):
    """`v` with its label sets frozen; an exact frozenset, or a tuple of
    them, is returned as it is."""
    if type(v) is frozenset:
        return v
    if isinstance(v, (list, set, frozenset)):
        return frozenset(v)
    if isinstance(v, tuple) and v and isinstance(v[0], (list, set, frozenset)):
        if all(type(p) is frozenset for p in v):
            return v
        return tuple(frozenset(p) for p in v)
    return v


# ---------------------------------------------------------------------------
# value algebra (dispatch on assignment shape)


def value_is_empty(value):
    if isinstance(value, frozenset):
        return not value
    if isinstance(value, tuple):
        return any(not p for p in value)
    return False


def value_union(value_a, value_b):
    if isinstance(value_a, frozenset) and isinstance(value_b, frozenset):
        return value_a | value_b
    if isinstance(value_a, tuple) and isinstance(value_b, tuple):
        if len(value_a) != len(value_b):
            raise ValueError("part counts differ")
        return tuple(p | q for p, q in zip(value_a, value_b))
    members = []
    for v in (value_a, value_b):
        members.extend(v.members if isinstance(v, sym.SymUnion) else (v,))
    return sym.SymUnion(tuple(dict.fromkeys(members)))


def value_intersect(value_a, value_b):
    """The meet of two values; a label set or tuple met with itself is
    returned as the same object."""
    if isinstance(value_a, frozenset) and isinstance(value_b, frozenset):
        return value_a if value_a is value_b else value_a & value_b
    if isinstance(value_a, tuple) and isinstance(value_b, tuple):
        if value_a is value_b:
            return value_a
        if len(value_a) != len(value_b):
            raise ValueError("part counts differ")
        return tuple(p if p is q else p & q for p, q in zip(value_a, value_b))
    if isinstance(value_a, sym.NamedRing) and isinstance(value_b, sym.NamedRing):
        return sym.sym_intersect(value_a, value_b)
    raise ValueError("no intersection for these symbolic values")


def value_contains(small, big):
    if isinstance(small, frozenset) and isinstance(big, frozenset):
        return small <= big
    if isinstance(small, tuple) and isinstance(big, tuple):
        return len(small) == len(big) and all(p <= q for p, q in zip(small, big))
    if isinstance(small, sym.NamedRing) and isinstance(big, sym.NamedRing):
        return sym.sym_contains(small, big)
    if isinstance(small, sym.SymGroupRing) and isinstance(big, sym.SymGroupRing):
        return sym.sym_gr_contains(small, big)
    raise ValueError("no containment for these values")


# ---------------------------------------------------------------------------
# the six operations


def _check_same_universe(f, k):
    if f.universe is not k.universe:
        raise ValueError("soft sets live over different universes")


def _restricted(f, k, merge):
    _check_same_universe(f, k)
    shared = sorted(set(f.params) & set(k.params))
    if not shared:
        raise ValueError("restricted operations need a shared parameter")
    return SoftSet._of_frozen(f.universe, {p: merge(f.value(p), k.value(p)) for p in shared})


def _extended(f, k, merge):
    _check_same_universe(f, k)
    out = {**k.assign, **f.assign}
    for p in sorted(set(f.params) & set(k.params)):
        out[p] = merge(f.value(p), k.value(p))
    return SoftSet._of_frozen(f.universe, out)


def _crossed(f, k, merge, sep):
    _check_same_universe(f, k)
    return SoftSet._of_frozen(f.universe, {"%s%s%s" % (a, sep, b): merge(f.value(a), k.value(b))
                                           for a in f.params for b in k.params})


def restricted_intersection(f, k):
    return _restricted(f, k, value_intersect)


def extended_intersection(f, k):
    return _extended(f, k, value_intersect)


def extended_union(f, k):
    return _extended(f, k, value_union)


def restricted_union(f, k, literal=False):
    """Merge on the shared parameters (the usage in the worked cases); with
    literal=True keep every parameter, which makes it the extended union."""
    return (_extended if literal else _restricted)(f, k, value_union)


def and_op(f, k):
    return _crossed(f, k, value_intersect, "&")


def or_op(f, k):
    return _crossed(f, k, value_union, "|")


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


@dataclass
class SoftReport:
    ok: bool
    failures: tuple = ()
    flags: tuple = ()
    note: str = ""

    def __bool__(self):
        return self.ok


# collection predicate names; each is also taken with a "loose-" prefix
N_PREDICATES = ("n-sub", "strong-n-sub", "n-ideal")


def check_predicate_name(universe, predicate):
    """Raise ValueError when a named predicate does not exist for the
    universe's carrier family; a callable, or a symbolic universe whose
    values decide their own check, passes."""
    if callable(predicate):
        return
    if isinstance(universe, NCollection):
        if predicate.removeprefix("loose-") not in N_PREDICATES:
            raise ValueError("unknown collection predicate %r" % predicate)
    elif isinstance(universe, (FiniteMagma, FiniteRing, GroupRing)):
        _predicate_row(universe, predicate)


def _value_verdict(universe, value, predicate):
    if value_is_empty(value):
        return Verdict(False, flags=("empty-assignment",), note="empty assignment")
    if callable(predicate):
        return predicate(universe, value)
    if isinstance(universe, NCollection):
        check_predicate_name(universe, predicate)
        loose = predicate.startswith("loose-")
        core = predicate[6:] if loose else predicate
        # a wrong part count raises here, an unknown label in the part checks
        if not all(universe.resolve_parts(value)):
            return Verdict(False, flags=("empty-part",), note="empty part")
        if core == "n-sub":
            return is_n_sub(universe, value, require_neutro=not loose)
        if core == "strong-n-sub":
            return is_n_sub(universe, value, strong=True)
        return is_n_ideal(universe, value, require_neutro=not loose)
    if isinstance(value, (sym.NamedRing, sym.SymGroupRing, sym.SymUnion)):
        union = value if isinstance(value, sym.SymUnion) else sym.SymUnion((value,))
        return sym.sym_union_substructure(union)
    return check_predicate(universe, value, predicate)


def _report(params, verdict_of):
    failures = tuple((p, v) for p in params for v in (verdict_of(p),) if not v.ok)
    if failures:
        return SoftReport(False, failures, note="%d of %d assignments fail"
                                                % (len(failures), len(params)))
    return SoftReport(True)


def soft_is(soft, predicate):
    """Whether every assignment satisfies the named per-value predicate."""
    return _report(soft.params,
                   lambda p: _value_verdict(soft.universe, soft.value(p), predicate))


def value_has_neutro(value):
    if isinstance(value, frozenset):
        return any(label_is_neutro(x) for x in value)
    if isinstance(value, tuple):
        return any(any(label_is_neutro(x) for x in p) for p in value)
    members = value.members if isinstance(value, sym.SymUnion) else (value,)
    return any(getattr(m, "neutro", False) or
               (isinstance(m, sym.SymGroupRing) and
                any(label_is_neutro(x) for x in m.subset))
               for m in members)


def soft_neutro_params(soft):
    """Parameters whose assignment carries an indeterminate member."""
    return tuple(p for p in soft.params if value_has_neutro(soft.value(p)))


def soft_lagrange_class(soft):
    """Lagrange / WeaklyLagrange / LagrangeFree over the assignments."""
    divides = []
    for p in soft.params:
        value = soft.value(p)
        if not isinstance(value, frozenset):
            raise ValueError("Lagrange classes need finite label assignments")
        try:
            v = is_lagrange_sub(soft.universe, value)
        except ValueError:
            raise ValueError("assignment %r is not a strict subgroupoid" % (p,))
        divides.append(v.ok)
    return lagrange_class(divides)


def is_absolute(soft):
    """Every assignment equals the whole carrier."""
    u = soft.universe
    if isinstance(u, NCollection):
        full = tuple(frozenset(c.structure.elements) for c in u.components)
    elif isinstance(u, (FiniteMagma, FiniteRing)):
        full = frozenset(u.elements)
    elif isinstance(u, GroupRing):
        full = frozenset(u.elements())
    else:
        raise ValueError("absolute check needs a finite universe")
    return all(soft.value(p) == full for p in soft.params)


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
    return _nested_report(h, f, lambda hv, fv: (
        _value_verdict(h.universe, hv, predicate) if value_contains(hv, fv)
        else Verdict(False, note="assignment not inside parent")))


def soft_ideal_of(h, f):
    """(H, B) an ideal of (F, A): nested parameters and assignments, each
    H(b) absorbing products with members of F(b)."""
    def verdict(hv, fv):
        if isinstance(hv, sym.SymGroupRing):
            return sym.sym_gr_ideal_of(hv, fv)
        if isinstance(hv, sym.NamedRing):
            return sym.sym_ideal_of(hv, fv)
        if not value_contains(hv, fv):
            return Verdict(False, note="assignment not inside parent")
        return ideal_in_parent(h.universe, hv, fv)

    return _nested_report(h, f, verdict)
