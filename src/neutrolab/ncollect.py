"""Unions of finitely many tagged components sharing one indeterminacy I.

A collection holds N components, each a finite magma or ring carrying a
declared kind tag (group / semigroup / groupoid / loop / ring) and a flag
saying whether the component is an indeterminacy extension.  Plain tags are
checked against the axioms; indeterminate tags only require the carrier to
mention I, because several stock carriers fail the stronger axioms their
tag advertises.  Subset checks work part-by-part.
"""

from .structures import FiniteRing, _Record, _identity, label_is_neutro, verify_kind
from .subsets import Refusal, Verdict, ideal_verdict, order_verdict, sub_verdict

MAGMA_TAGS = ("group", "semigroup", "groupoid", "loop")
ALL_TAGS = MAGMA_TAGS + ("ring",)

MIXED = "Mixed"
MIXED_DUAL = "MixedDual"
WEAK_MIXED = "WeakMixed"
WEAK_MIXED_DUAL = "WeakMixedDual"


class Component(_Record):
    __slots__ = ("structure", "alg", "neutro")

    def __init__(self, structure, alg, neutro):
        self.structure = structure
        self.alg = alg
        self.neutro = neutro

    @property
    def name(self):
        return self.structure.name


class NCollection:
    def __init__(self, components, name=""):
        if len(components) < 2:
            raise ValueError("a collection needs at least two components")
        comps = []
        for c in components:
            comp = c if isinstance(c, Component) else Component(*c)
            if comp.alg not in ALL_TAGS:
                raise ValueError("unknown kind tag %r" % comp.alg)
            self._validate(comp)
            comps.append(comp)
        if not any(c.neutro for c in comps):
            raise ValueError("a collection needs an indeterminate component")
        self.components = comps
        self.name = name or "collection(%d)" % len(comps)

    @staticmethod
    def _validate(comp):
        want_ring = comp.alg == "ring"
        if want_ring != isinstance(comp.structure, FiniteRing):
            raise ValueError("component %s does not match tag %r"
                             % (comp.structure.name, comp.alg))
        has_i = any(label_is_neutro(x) for x in comp.structure.elements)
        if comp.neutro:
            if not has_i:
                raise ValueError("component %s declared indeterminate but has "
                                 "no I-labelled element" % comp.structure.name)
            return
        if has_i:
            raise ValueError("component %s declared plain but carries "
                             "I-labelled elements" % comp.structure.name)
        if want_ring:
            return
        rep = verify_kind(comp.structure)
        holds = {"group": rep.group, "semigroup": rep.semigroup,
                 "loop": rep.loop, "groupoid": True}[comp.alg]
        if not holds:
            raise ValueError("component %s fails its %r axioms: %r"
                             % (comp.structure.name, comp.alg, rep.witnesses))

    def __len__(self):
        return len(self.components)

    def order(self):
        return sum(len(c.structure) for c in self.components)

    def resolve_parts(self, parts):
        if isinstance(parts, str) or any(isinstance(p, str) for p in parts):
            raise ValueError("a collection value is a sequence of label sets, got %.60r" % (parts,))
        parts = [frozenset(p or ()) for p in parts]
        if len(parts) != len(self.components):
            raise ValueError("expected %d parts, got %d"
                             % (len(self.components), len(parts)))
        return parts


def _part_verdict(comp, labels, strong):
    s = comp.structure
    v = sub_verdict(s, labels, strong, strong)
    if v.ok and comp.alg == "loop":
        if _identity(s.table, sorted(map(s.idx, labels))) is None:
            return Verdict(False, flags=v.flags + ("no-part-identity",),
                           note="closed but has no two-sided identity inside")
    return v


def _nonempty_parts(ncol, parts):
    parts = ncol.resolve_parts(parts)
    if any(not p for p in parts):
        raise ValueError("empty part: use the deficit check for partial subs")
    return parts


def _partwise(ncol, parts, check, require_neutro, flags=()):
    """Run `check(component, part)` on every nonempty part; the first failing
    part decides, and require_neutro asks for an indeterminate member."""
    for i, (comp, labels) in enumerate(zip(ncol.components, parts)):
        if not labels:
            continue
        v = check(comp, labels)
        if not v.ok:
            return Verdict(False, witness=(i, comp.name) + tuple(v.witness or ()),
                           flags=v.flags, note="part %d: %s" % (i, v.note))
    if require_neutro:
        if not any(any(label_is_neutro(x) for x in p) for p in parts):
            return Verdict(False, flags=("no-indeterminate",),
                           note="no part carries an indeterminate member")
    return Verdict(True, flags=flags)


def is_n_sub(ncol, parts, strong=False, require_neutro=True):
    """Part-by-part substructure check; strong demands purely indeterminate
    parts, plain only that some part carries I (unless require_neutro=False)."""
    return _partwise(ncol, _nonempty_parts(ncol, parts),
                     lambda comp, labels: _part_verdict(comp, labels, strong),
                     require_neutro and not strong)


def is_n_ideal(ncol, parts, require_neutro=True):
    """Every part a two-sided ideal of its component."""
    return _partwise(ncol, _nonempty_parts(ncol, parts),
                     lambda comp, labels: ideal_verdict(comp.structure, labels),
                     require_neutro)


def is_deficit_sub(ncol, parts, require_neutro=True):
    """Substructure on strictly between one and N of the components."""
    parts = ncol.resolve_parts(parts)
    t = sum(1 for p in parts if p)
    if not 1 < t < len(parts):
        return Verdict(False, witness=(t, len(parts)),
                       note="needs strictly between 1 and N nonempty parts")
    return _partwise(ncol, parts,
                     lambda comp, labels: _part_verdict(comp, labels, False),
                     require_neutro, ("deficit-%d-of-%d" % (t, len(parts)),))


def classify_mixed(ncol):
    """Mixed-kind verdict from the declared component tags."""
    four = set(MAGMA_TAGS)
    neutro_kinds = {c.alg for c in ncol.components if c.neutro and c.alg != "ring"}
    plain_kinds = {c.alg for c in ncol.components if not c.neutro and c.alg != "ring"}
    has_neutro = any(c.neutro for c in ncol.components)
    n = len(ncol.components)
    if n >= 5 and four <= neutro_kinds:
        return MIXED
    if n >= 5 and four <= plain_kinds and has_neutro:
        return MIXED_DUAL
    if 2 <= len(neutro_kinds) <= 3:
        return WEAK_MIXED
    if 2 <= len(plain_kinds) <= 3 and has_neutro:
        return WEAK_MIXED_DUAL
    return None


def lagrange_mixed(ncol, parts, require_neutro=True):
    """Whether a sub-collection's total order divides the collection's."""
    v = is_n_sub(ncol, parts, require_neutro=require_neutro)
    if not v.ok:
        raise Refusal("not a sub-collection: %s" % (v.note,))
    return order_verdict(sum(len(frozenset(p)) for p in parts), ncol.order())
