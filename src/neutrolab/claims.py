"""The registered claim rows: closure propositions, non-closure remark
hunts, worked-example checks, and classification pins, at desk scale.

Every row is an engine.Claim that records the status it is expected to
report.  Propositions, remarks and soft-set examples are rows of data
(carrier and population builders, predicate, operation, pinned pair and gap,
assignments and check): `_prop`, `_remark` and `_soft_example` bind them as
keywords to one runner per row shape, which reads them when the claim runs;
rows whose logic differs keep a runner of their own.  Runners recompute statuses from scratch
each run; rows whose recorded statement disagrees with its own arithmetic
are pre-registered as ExampleContradictsText and carry the recomputed
witness.

Each row names its carrier once, as a spec: the report's universe is the
carrier's name, the key of its spec in CARRIER_SPECS, and engine.run_claim
loads the carrier before it starts timing and hands it to the runner.  Each
carrier is loaded through io on its first use, once per process, so it keeps
its spec and every witness soft set names its universe; the symbolic
carriers, which io does not describe, are built in place.  Populations come
from cached builders, and pools used by randomized sweeps are built from
fixed string seeds, so a row's outcome never depends on which other rows
ran.
"""

import random
from functools import lru_cache, partial

from . import symbolic as sym
from .engine import (
    Claim,
    INTERSECTION_OPS,
    KIND_CLASSIFICATION,
    KIND_EXAMPLE,
    KIND_PROP,
    KIND_REMARK,
    SPOT_PAIRS,
    STATUS_CONTRADICTS,
    STATUS_COUNTEREXAMPLE,
    STATUS_HOLDS,
    STATUS_VERIFIED,
    run_closure_prop,
    run_remark_hunt,
)
from .groupring import GroupRing
from .io import load_structure
from .ncollect import MIXED, MIXED_DUAL, WEAK_MIXED, classify_mixed, is_n_sub
from .scalars import ns_format
from .softsets import (
    LAGRANGE,
    LAGRANGE_FREE,
    WEAKLY_LAGRANGE,
    SoftSet,
    extended_union,
    restricted_union,
    soft_ideal_of,
    soft_is,
    soft_lagrange_class,
    soft_neutro_params,
    soft_sub_of,
    value_kind,
)
from .structures import alternating_labels, label_is_neutro
from .subsets import (
    _span_members,
    classify_lagrange,
    closure,
    enumerate_subs,
    is_subgroupoid,
    is_subring,
)

# ---------------------------------------------------------------------------
# carriers: the finite carriers the rows name, as structure specs under the
# name the report prints (see io.load_structure)


def _loop_7_4():
    """Order-8 loop on e, 1..7 (positions 0..7): e is the identity, every
    element an involution, and i*j = 4j - 3i (mod 7) off the diagonal with
    representatives 1..7."""
    def prod(i, j):
        if not i or not j:
            return i + j
        return 0 if i == j else (4 * j - 3 * i) % 7 or 7

    return {"kind": "cayley", "elements": ["e"] + [str(i) for i in range(1, 8)],
            "table": [[prod(i, j) for j in range(8)] for i in range(8)],
            "name": "loop7(4)"}


def _collection(name, *parts):
    """An ncollection spec from (spec, alg, indeterminate) parts."""
    return {"kind": "ncollection", "name": name,
            "components": [{"spec": s, "kind_tag": {"alg": alg, "neutrosophic": n}}
                           for s, alg, n in parts]}


def _carrier_specs():
    g1032, g1023, g421, g1284 = ({"kind": "param_groupoid", "n": n, "t": t, "u": u}
                                 for n, t, u in ((10, 3, 2), (10, 2, 3), (4, 2, 1), (12, 8, 4)))
    c4, loop = {"kind": "cyclic_neutro_group", "m": 4}, _loop_7_4()
    mult10 = {"kind": "mult_magma", "n": 10, "neutro": False}
    return {
        "groupoid(10;3,2)": g1032,
        "groupoid(10;2,3)": g1023,
        "groupoid(4;2,1)": g421,
        "groupoid(12;8,4)": g1284,
        "ring(Z6+I)": {"kind": "neutro_ring", "n": 6},
        "ring(Z10+I)": {"kind": "neutro_ring", "n": 10},
        "ring(Z12+I)": {"kind": "neutro_ring", "n": 12},
        "bi(Z10;2,3 | Z4;2,1)+I": _collection(
            "bi(Z10;2,3 | Z4;2,1)+I", (g1023, "groupoid", True), (g421, "groupoid", True)),
        "tri(Z10;3,2 | Z4;2,1 | Z12;8,4)+I": _collection(
            "tri(Z10;3,2 | Z4;2,1 | Z12;8,4)+I", (g1032, "groupoid", True),
            (g421, "groupoid", True), (g1284, "groupoid", True)),
        "Z2<cyclic(4)+I>": {"kind": "group_ring", "r": 2, "basis": c4},
        "Z6<cyclic(4)+I>": {"kind": "group_ring", "r": 6, "basis": c4},
        "Z2<cyclic-semigroup(3)+I>": {
            "kind": "group_ring", "r": 2,
            "basis": {"kind": "cyclic_neutro_group", "m": 3, "semigroup": True}},
        "cyclic(6)+I": {"kind": "cyclic_neutro_group", "m": 6},
        # five tagged components, three indeterminate; total order 68
        "mixed5(order 68)": _collection(
            "mixed5(order 68)",
            ({"kind": "mult_magma", "n": 3}, "group", True),
            ({"kind": "mult_magma", "n": 6}, "semigroup", True),
            ({"kind": "mult_magma", "n": 4, "pure_union": True}, "groupoid", True),
            ({"kind": "sym_group", "k": 3}, "group", False),
            (mult10, "semigroup", False)),
        "loop7(4)": loop,
        # five plain-tagged kinds plus one indeterminate loop double
        "dual5": _collection(
            "dual5", (loop, "loop", False), ({"kind": "sym_group", "k": 4}, "group", False),
            (mult10, "semigroup", False),
            ({"kind": "mult_magma", "n": 4, "neutro": False}, "groupoid", False),
            ({"kind": "neutro_double", "base": loop}, "loop", True)),
    }


CARRIER_SPECS = _carrier_specs()


@lru_cache(maxsize=None)
def carrier(name):
    """The carrier CARRIER_SPECS names, loaded once per process: a row loads
    only its own."""
    loaded = load_structure(CARRIER_SPECS[name])
    if name == "mixed5(order 68)":
        _require(loaded.order() == 68, "collection order 68")
    return loaded


@lru_cache(maxsize=None)
def carriers():
    """Every carrier in CARRIER_SPECS, by name."""
    return {name: carrier(name) for name in CARRIER_SPECS}


# ---------------------------------------------------------------------------
# label-set helpers


def _grid(n, reals, ims):
    return frozenset(ns_format((a % n, b % n)) for a in reals for b in ims)


def _reals(n):
    return frozenset(ns_format((a, 0)) for a in range(n))


P_1032 = frozenset({"0", "5", "5I", "5+5I"})
P_421 = frozenset({"0", "2", "2I", "2+2I"})
S_421_3 = frozenset({"0", "2", "2+2I"})
S_421_2 = frozenset({"0", "2+2I"})
S_421_3I = frozenset({"0", "2I", "2+2I"})

A3 = frozenset(alternating_labels(3))
S3_IN_S4 = frozenset({"e", "(12)", "(13)", "(23)", "(123)", "(132)"})
EVENS_10 = frozenset({"0", "2", "4", "6", "8"})


def _mixed_row_a1():
    return tuple(frozenset(x) for x in
                 (("1", "I"), ("0", "3", "3I"), ("0", "2", "2I"), A3,
                  EVENS_10))


def _mixed_row_k2():
    return tuple(frozenset(x) for x in
                 (("1", "2"), ("0", "3I"), ("0", "2I"), A3, ("0", "5")))


_IDEAL_12 = frozenset({"0", "6", "2I", "4I", "6I", "8I", "10I",
                       "6+2I", "6+4I", "6+6I", "6+8I", "6+10I"})


@lru_cache(maxsize=None)
def grid_12_ideal():
    grid = _grid(12, (0, 6), tuple(range(0, 12, 2)))
    _require(grid == _IDEAL_12, "the 12-member ideal grid")
    return grid


@lru_cache(maxsize=None)
def e4_grid():
    return _grid(12, (0, 4, 8), (0, 4, 8))


def _span(gr, basis_labels):
    """All formal sums supported on the given basis labels: the span of their
    monomials, which are already in Howell form."""
    return _span_members(gr, [gr.monomial(x) for x in basis_labels])


# ---------------------------------------------------------------------------
# populations and pools


@lru_cache(maxsize=None)
def subgroupoids_421():
    return tuple(enumerate_subs(carrier("groupoid(4;2,1)"), "subgroupoid"))


@lru_cache(maxsize=None)
def subrings_6():
    return tuple(enumerate_subs(carrier("ring(Z6+I)"), "subring"))


@lru_cache(maxsize=None)
def ring_ideals_6():
    return tuple(enumerate_subs(carrier("ring(Z6+I)"), "loose-ring-ideal"))


@lru_cache(maxsize=None)
def span_population(which):
    gr = carrier({"z2c4": "Z2<cyclic(4)+I>", "z2c3s": "Z2<cyclic-semigroup(3)+I>"}[which])
    basis_subs = enumerate_subs(gr.basis, "subgroupoid")
    return tuple(_span(gr, s) for s in basis_subs)


@lru_cache(maxsize=None)
def bi_ideal_population():
    big = carrier("bi(Z10;2,3 | Z4;2,1)+I")
    return (
        tuple(frozenset(c.structure.elements) for c in big.components),
    )


@lru_cache(maxsize=None)
def tri_ideal_pool():
    """Ideal triples: both small components are improper-only, the third
    admits exactly the supersets of the 3x3 residue grid."""
    tri = carrier("tri(Z10;3,2 | Z4;2,1 | Z12;8,4)+I")
    g1, g2, g3 = (c.structure for c in tri.components)
    full1, full2 = frozenset(g1.elements), frozenset(g2.elements)
    e4 = e4_grid()
    rest = sorted(set(g3.elements) - e4, key=g3.idx)
    rng = random.Random("neutrolab:pool:prop-2.3.2")
    thirds = [e4, frozenset(g3.elements)]
    for k in (2, 4, 6, 9, 12, 15, 18, 21):
        thirds.append(e4 | frozenset(rng.sample(rest, k)))
    return tuple((full1, full2, t) for t in thirds)


@lru_cache(maxsize=None)
def mixed_sub_pool():
    """Per-component closed parts combined into whole-collection tuples."""
    m = carrier("mixed5(order 68)")
    m2 = m.components[1].structure
    rng = random.Random("neutrolab:pool:prop-6.1.1")

    by_comp = []
    for i, comp in enumerate(m.components):
        s = comp.structure
        if i == 1:
            parts = {frozenset(s.elements)}
            for seed in (("3",), ("2",), ("5",), ("2I",), ("3I",),
                         ("2", "3"), ("4I",), ("1",)):
                parts.add(closure(m2, frozenset(seed)))
        else:
            parts = set(enumerate_subs(s, "loose-subgroupoid"))
        by_comp.append(sorted(parts, key=lambda p: (len(p), sorted(p))))

    pool = [_mixed_row_a1(), _mixed_row_k2()]
    while len(pool) < 26:
        cand = tuple(rng.choice(parts) for parts in by_comp)
        if cand not in pool:
            pool.append(cand)
    return tuple(pool)


# ---------------------------------------------------------------------------
# row values and pinned gaps


def _value(universe, value):
    """A row's assignment value over `universe`, read by its kind: formal
    sums are written as text."""
    return value_kind(universe).load(universe, value)


def _pin_gap(gap, universe, value):
    """A hunt's pinned-pair check, gap = (op, x, y) or (op, x, y, part): x and
    y lie in the value (or in its part) but x op y does not, recomputed
    through the carrier's public operation `op` ("op" or "add"); formal sums
    are named by their text."""
    op, x, y, *part = gap
    out = {}
    if part:
        universe, value = universe.components[part[0]].structure, value[part[0]]
        out["component"] = universe.name
    sums = isinstance(universe, GroupRing)
    a, b = (universe.parse(x), universe.parse(y)) if sums else (x, y)
    z = getattr(universe, op)(a, b)
    if a in value and b in value and z not in value:
        out["pinned-pair"], out["escapes"] = [x, y], universe.format(z) if sums else z
        return out
    return None


# ---------------------------------------------------------------------------
# results


def _require(condition, what):
    if not condition:
        raise RuntimeError("reconstruction mismatch: %s" % what)


def _verdict_plain(v):
    out = {"note": v.note}
    if v.witness:
        out["witness"] = v.witness
    if v.flags:
        out["flags"] = v.flags
    return out


def _report_failures(rep):
    return {"failures": [{"param": p, **_verdict_plain(v)}
                         for p, v in rep.failures]}


def _positive(ok, witness, trials):
    return (STATUS_VERIFIED if ok else STATUS_CONTRADICTS), witness, trials


def _negative(failed, witness, trials):
    """The recorded statement asserts failure; verifying means failing."""
    if failed:
        return STATUS_VERIFIED, witness, trials
    return STATUS_CONTRADICTS, {"reason": "recorded as failing but computed "
                                          "to hold"}, trials


# ---------------------------------------------------------------------------
# row shapes: each row's data are the keywords of its shape's runner, which
# reads them when the claim runs


def _run_prop(u, rng, population, predicate, ops, spot):
    return run_closure_prop(u, population(), predicate, rng, ops, spot)


def _prop(cid, carrier, population, predicate, ops=INTERSECTION_OPS, spot=SPOT_PAIRS,
          generator="exhaustive-pairs", note=""):
    """A closure proposition: `predicate` holds on every member of the
    population, on their pairwise intersections, and on the soft operations
    `ops` over `spot` seeded pairs (engine.run_closure_prop)."""
    return Claim(cid, KIND_PROP, carrier, generator, STATUS_HOLDS,
                 partial(_run_prop, population=population, predicate=predicate, ops=ops,
                         spot=spot), note)


def _run_remark(u, rng, op, predicate, pin, gap):
    f, k = ({"a1": _value(u, v)} for v in pin)
    check = None if gap is None else partial(_pin_gap, gap)
    return run_remark_hunt(u, op, predicate, rng, pinned=(f, k), pin_check=check)


def _remark(cid, carrier, op, predicate, pin, gap=None, note=""):
    """A non-closure remark: `op` breaks `predicate` on the pinned pair of
    soft sets whose parameter a1 holds the two `pin` values
    (engine.run_remark_hunt); a `gap` (see _pin_gap) names the escaping
    pair in the witness."""
    return Claim(cid, KIND_REMARK, carrier, "pinned-hunt", STATUS_COUNTEREXAMPLE,
                 partial(_run_remark, op=op, predicate=predicate, pin=pin, gap=gap), note)


def _run_soft_example(u, rng, check, softs):
    f, *parent = [SoftSet(u, {p: _value(u, v) for p, v in a.items()}) for a in softs]
    test, arg = check
    trials = len(f.params)
    if test == "lagrange":
        cls = soft_lagrange_class(f)
        return _positive(cls == arg, {"class": cls}, trials)
    if test == "ideal-of":
        rep = soft_ideal_of(f, *parent)
    elif test == "sub-of":
        rep = soft_sub_of(f, *parent, arg)
    else:
        rep = soft_is(f, "n-sub" if test == "profile" else arg)
    witness = None if rep.ok else _report_failures(rep)
    if test == "is-not":
        return _negative(not rep.ok, witness, trials)
    if test == "profile":
        cls = classify_mixed(u)
        return _positive(rep.ok and cls == arg,
                         {"classification": cls, **(witness or {})}, trials)
    return _positive(rep.ok and (test != "is-neutro" or soft_neutro_params(f)),
                     witness, trials)


def _soft_example(cid, carrier, check, softs, expected=STATUS_VERIFIED, note=""):
    """A worked example on the soft set F built from the first assignment in
    `softs` (a second assignment is F's parent), tested as
    check = (test, argument):

    - ("is", predicate): every assignment of F satisfies the predicate;
    - ("is-not", predicate): as recorded, some assignment fails it;
    - ("is-neutro", predicate): "is", and some assignment carries I;
    - ("sub-of", predicate) or ("ideal-of", None): F lies in its parent;
    - ("lagrange", class): F has that Lagrange class;
    - ("profile", class): every assignment is an n-substructure of a
      collection of that classification.

    The witness is the failures (None when there are none), the class for
    "lagrange", and the classification with any failures for "profile";
    trials counts F's parameters."""
    return Claim(cid, KIND_EXAMPLE, carrier, "recorded-sets", expected,
                 partial(_run_soft_example, check=check, softs=softs), note)


# ---------------------------------------------------------------------------
# examples with their own logic


def _run_example_1_1_3(g, rng):
    p = _grid(10, (0, 5), (0, 5))
    _require(p == P_1032, "the order-4 indeterminate subgroupoid")
    q = _reals(10)
    vp = is_subgroupoid(g, p, strict=True)
    vq = is_subgroupoid(g, q)
    plain = not any(label_is_neutro(x) for x in q)
    ok = vp.ok and vq.ok and plain
    witness = {"indeterminate-subgroupoid": sorted(p),
               "plain-subgroupoid-size": len(q)}
    return _positive(ok, witness, 2)


def _run_classify_lagrange_2_1(g, rng):
    rep = classify_lagrange(g)
    ok = (rep.verdict == WEAKLY_LAGRANGE
          and P_421 in rep.dividing
          and S_421_3I in rep.non_dividing)
    witness = {"verdict": rep.verdict,
               "dividing": len(rep.dividing),
               "non-dividing": len(rep.non_dividing),
               "dividing-example": sorted(P_421),
               "non-dividing-example": sorted(S_421_3I)}
    status = STATUS_HOLDS if ok else STATUS_COUNTEREXAMPLE
    return status, witness, len(rep.dividing) + len(rep.non_dividing)


def _zi(m=1):
    return sym.NamedRing("Z", m, True)


def _sym6(coeff, subset=None):
    return sym.SymGroupRing(coeff, carrier("cyclic(6)+I"), subset)


def _symbolic_rows(outer, check, *rows):
    """A soft structure recorded as symbolic rows a1, a2, ... over `outer`:
    every row passes check(row, outer) and at least one carries I."""
    rows = {"a%d" % i: v for i, v in enumerate(rows, start=1)}
    bad = {p: str(v) for p, v in rows.items() if not check(v, outer).ok}
    witness = {"rows": sorted(str(v) for v in rows.values())}
    if bad:
        witness["failing"] = bad
    ok = not bad and any(value_kind(outer).neutro(outer, v) for v in rows.values())
    return _positive(ok, witness, len(rows))


def _run_example_3_1_1(outer, rng):
    return _symbolic_rows(outer, sym.sym_subring_of, *map(_zi, (2, 3, 5, 6)))


def _run_example_3_1_2(outer, rng):
    return _symbolic_rows(outer, sym.sym_subring_of,
                          sym.NamedRing("R", 1, True), sym.NamedRing("Q", 1, True),
                          _zi(), _zi(2))


def _run_example_3_1_3(outer, rng):
    f = SoftSet(outer, {"a1": _zi(2), "a2": _zi(3), "a3": _zi(4)})
    k = SoftSet(outer, {"a1": _zi(5), "a3": _zi(7)})
    h = extended_union(f, k)
    rep = soft_is(h, "loose-subring")
    failing = {p for p, _ in rep.failures}
    ok = failing == {"a1", "a3"}
    witness = _report_failures(rep)
    witness["union-params"] = sorted(h.params)
    return _positive(ok, witness, len(h.params))


def _run_example_3_1_7(r12, rng):
    f = SoftSet(r12, {
        "a1": grid_12_ideal(),
        "a2": frozenset({"0", "2", "4", "6", "8", "2I", "4I", "6I", "8I"}),
    })
    h = SoftSet(r12, {
        "a1": frozenset({"0", "6", "6+6I"}),
        "a2": EVENS_10,
    })
    parent = soft_is(f, "subring")
    rep = soft_ideal_of(h, f)
    ok = parent.ok and rep.ok
    witness = {}
    if not parent.ok:
        witness["parent-defect"] = _report_failures(parent)
    if not rep.ok:
        witness["ideal-defect"] = _report_failures(rep)
    return _positive(ok, witness or None, 4)


def _run_theorem_3_1_3(r, rng):
    ideals = ring_ideals_6()
    for s in ideals:
        v = is_subring(r, s)
        if not v.ok:
            return STATUS_COUNTEREXAMPLE, {"ideal": sorted(s),
                                           "witness": v.witness}, len(ideals)
    return STATUS_HOLDS, {"ideals-checked": len(ideals)}, len(ideals)


def _run_example_4_1_1(outer, rng):
    spans = ({"1", "g^3"}, {"1", "g^3", "I", "g^3I"}, {"1", "g^2", "g^4"},
             {"1", "g^2", "g^4", "I", "g^2I", "g^4I"})
    return _symbolic_rows(outer, sym.sym_gr_subring_of,
                          *(_sym6(outer.coeff, s) for s in spans))


def _run_example_4_1_2(outer, rng):
    q = outer.coeff
    f = SoftSet(outer, {
        "a1": _sym6(q, {"1", "g^3"}),
        "a2": _sym6(q, {"1", "g^3", "I", "g^3I"}),
    })
    h = SoftSet(outer, {"a1": _sym6(q, {"1", "g^2", "g^4", "I", "g^2I", "g^4I"})})
    k = restricted_union(f, h)
    rep = soft_is(k, "loose-gr-subring")
    failed = {p for p, _ in rep.failures} == {"a1"}
    return _negative(failed, _report_failures(rep) if rep.failures else None,
                     len(k.params))


def _run_example_4_1_10(outer, rng):
    return _symbolic_rows(outer, sym.sym_gr_ideal_of,
                          *(_sym6(sym.NamedRing("Z", m)) for m in (2, 4, 6)))


def _run_example_4_1_11(gr, rng):
    v = gr.parse("1+g+g^2+g^3")
    w = gr.parse("I+gI+g^2I+g^3I")
    vw = gr.add(v, w)
    gen_v = frozenset(gr.generated_ideal([v]))
    gen_w = frozenset(gr.generated_ideal([w]))
    gen_vw = frozenset(gr.generated_ideal([vw]))
    _require(gen_v == frozenset({gr.zero, v, w, vw}), "the ideal of v")
    _require(gen_w == frozenset({gr.zero, w}), "the ideal of w")
    _require(gen_vw == frozenset({gr.zero, vw}), "the ideal of v+w")
    f = SoftSet(gr, {"a1": gen_v, "a2": gen_w, "a3": gen_vw})
    rep = soft_is(f, "gr-pseudo-ideal")
    witness = {
        "generated": {"a1": sorted(gr.format(x) for x in gen_v),
                      "a2": sorted(gr.format(x) for x in gen_w),
                      "a3": sorted(gr.format(x) for x in gen_vw)},
    }
    if not rep.ok:
        witness["failures"] = [{"param": p, "note": v2.note, "witness": v2.witness}
                               for p, v2 in rep.failures]
    return _positive(rep.ok, witness, 3)


def _run_example_6_1_2(m, rng):
    printed = tuple(frozenset(x) for x in
                    (("1", "I", "2"), ("0", "3I"), ("0", "2", "2I"), A3,
                     ("0", "2", "4", "5", "6", "8")))
    union = tuple(p | q for p, q in zip(_mixed_row_a1(), _mixed_row_k2()))
    v = is_n_sub(m, printed, require_neutro=False)
    witness = None
    if not v.ok:
        witness = _verdict_plain(v)
        if union != printed:
            witness["recorded-union-defect"] = [
                {"part": i, "missing": sorted(u - p), "extra": sorted(p - u)}
                for i, (u, p) in enumerate(zip(union, printed)) if u != p]
        closed_fifth = is_subgroupoid(m.components[4].structure, printed[4])
        witness["fifth-part-closed"] = bool(closed_fifth.ok)
    return _negative(not v.ok, witness, 1)


def _run_classify_mixed_6_1_1(m, rng):
    cls = classify_mixed(m)
    ok = cls == WEAK_MIXED
    return (STATUS_HOLDS if ok else STATUS_COUNTEREXAMPLE,
            {"classification": cls, "order": m.order()}, 1)


def _run_classify_mixed_6_1_3(dual, rng):
    cls = classify_mixed(dual)
    ok = cls == MIXED_DUAL
    return (STATUS_HOLDS if ok else STATUS_COUNTEREXAMPLE,
            {"classification": cls}, 1)


# ---------------------------------------------------------------------------
# the registry


@lru_cache(maxsize=None)
def registry():
    """The claim rows in order, built once per process; building them loads
    no carrier."""
    (g1032, g421, bi_groupoid, tri_groupoid, ring_6, ring_10, ring_12, gr_z2_c4,
     gr_z6_c4, gr_z2_c3s, mixed_universe, dual_universe) = (
        partial(carrier, name) for name in (
            "groupoid(10;3,2)", "groupoid(4;2,1)", "bi(Z10;2,3 | Z4;2,1)+I",
            "tri(Z10;3,2 | Z4;2,1 | Z12;8,4)+I", "ring(Z6+I)", "ring(Z10+I)",
            "ring(Z12+I)", "Z2<cyclic(4)+I>", "Z6<cyclic(4)+I>",
            "Z2<cyclic-semigroup(3)+I>", "mixed5(order 68)", "dual5"))
    c_i = partial(sym.NamedRing, "C", 1, True)
    sym_q, sym_z = partial(_sym6, sym.NamedRing("Q")), partial(_sym6, sym.NamedRing("Z"))

    pin_1032 = (P_1032, _reals(10))
    pin_ring12 = (_grid(12, (0, 2, 4, 6, 8, 10), (0, 2, 4, 6, 8, 10)),
                  _grid(12, (0, 3, 6, 9), (0, 3, 6, 9)))
    pin_gr_c4 = ({"0", "1", "I", "1+I"}, {"0", "I", "g^2I", "I+g^2I"})
    lagrange_ops = ("extended-intersection", "restricted-intersection",
                    "and", "extended-union", "restricted-union", "or")

    return (
        Claim("example-1.1.3", KIND_EXAMPLE, g1032, "recorded-sets", STATUS_VERIFIED,
              _run_example_1_1_3,
              note="one indeterminate and one purely real subgroupoid"),

        _prop("prop-2.1.1", g421, subgroupoids_421, "loose-subgroupoid",
              ("extended-intersection",),
              note="extended intersections stay closed"),
        _prop("prop-2.1.2", g421, subgroupoids_421, "loose-subgroupoid",
              ("restricted-intersection",),
              note="restricted intersections stay closed"),
        _prop("prop-2.1.3", g421, subgroupoids_421, "loose-subgroupoid",
              ("and",), note="AND combinations stay closed"),

        _remark("remark-2.1.1", g1032, "extended-union", "loose-subgroupoid",
                pin_1032, ("op", "5I", "3"),
                note="3*(5I)+2*3 escapes the union"),
        _remark("remark-2.1.2", g1032, "restricted-union", "loose-subgroupoid",
                pin_1032, ("op", "5I", "3"),
                note="same escape under the shared-parameter union"),
        _remark("remark-2.1.3", g1032, "or", "loose-subgroupoid",
                pin_1032, ("op", "5I", "3"), note="same escape under OR"),

        _soft_example("example-2.1.1", g1032, ("is-neutro", "loose-subgroupoid"),
                      ({"a1": P_1032, "a2": _reals(10)},),
                      note="second assignment is purely real; the soft structure "
                           "is read as closed rows with at least one carrying I"),
        _soft_example("example-2.1.2", g421, ("is", "subgroupoid"),
                      ({"a1": P_421, "a2": S_421_3, "a3": S_421_2},)),
        _soft_example("example-2.1.3", g421, ("sub-of", "subgroupoid"),
                      ({"a1": S_421_2, "a2": S_421_2},
                       {"a1": P_421, "a2": S_421_3, "a3": S_421_2})),
        _soft_example("example-2.1.4", g421, ("lagrange", LAGRANGE),
                      ({"a1": P_421, "a2": S_421_2},)),
        _soft_example("example-2.1.5", g421, ("lagrange", WEAKLY_LAGRANGE),
                      ({"a1": P_421, "a2": S_421_3, "a3": S_421_2},)),
        _soft_example("example-2.1.6", g421, ("lagrange", LAGRANGE_FREE),
                      ({"a1": S_421_3I, "a2": S_421_3},),
                      note="three parameter labels declared, two assignments "
                           "recorded"),
        _soft_example("example-2.1.7", g421, ("is", "strong"),
                      ({"a1": S_421_3I, "a2": S_421_2},),
                      note="three parameter labels declared, two assignments "
                           "recorded"),

        *(_remark("remark-2.1.4-i%d" % i, g421, op, "lagrange",
                  ({"0", "2I"}, S_421_2),
                  note="order-2 pieces meet in a bare zero or join into an "
                       "order-3 subgroupoid of a 16-element carrier")
          for i, op in enumerate(lagrange_ops, start=1)),

        Claim("classify-lagrange-2.1", KIND_CLASSIFICATION, g421,
              "exhaustive-subs", STATUS_HOLDS, _run_classify_lagrange_2_1,
              note="both dividing and non-dividing proper subgroupoids "
                   "exist"),

        _remark("remark-2.1.8", g421, "extended-union", "strong",
                ({"0", "I", "2I", "3I"}, S_421_2), ("op", "I", "2+2I"),
                note="the recorded items assert closure for the strong "
                     "unions; the computed counterexample supports the "
                     "negated reading used by the sibling union remarks"),

        _soft_example("example-2.2.1", bi_groupoid, ("is", "n-sub"),
                      ({"a1": (P_1032, P_421), "a2": (_reals(10), S_421_2)},)),
        _prop("prop-2.2.2", bi_groupoid, bi_ideal_population, "loose-n-ideal",
              generator="exhaustive-pairs(improper-only)",
              note="both components admit only the improper ideal"),
        _soft_example("example-2.2.3", bi_groupoid, ("is", "strong-n-sub"),
                      ({"a1": ({"0", "5+5I"}, S_421_2),
                        "a2": ({"0", "5I"}, S_421_2)},)),
        _remark("remark-2.2.6", bi_groupoid, "extended-union", "strong-n-sub",
                (({"0", "2I", "4I", "6I", "8I"}, {"0", "2I"}), ({"0", "5I"}, S_421_2)),
                ("op", "2I", "5I", 0),
                note="2*(2I)+3*(5I) = 9I escapes the first part"),

        _soft_example("example-2.3.1", tri_groupoid, ("is", "n-sub"),
                      ({"a1": (P_1032, P_421, {"0", "2"}),
                        "a2": (_reals(10), S_421_2, {"0", "2I"})},),
                      expected=STATUS_CONTRADICTS,
                      note="third parts are not closed: 0*2 = 8 and 0*(2I) = 8I "
                           "under 8a+4b (mod 12)"),
        _prop("prop-2.3.2", tri_groupoid, tri_ideal_pool, "loose-n-ideal",
              spot=6200, generator="pooled-supersets+randomized-spot",
              note="third-component ideals are exactly the supersets of the "
                   "3x3 residue grid"),
        _soft_example("example-2.3.3", tri_groupoid, ("is", "strong-n-sub"),
                      ({"a1": ({"0", "5I"}, {"0", "2I"}, {"0", "2I"}),
                        "a2": ({"0", "5+5I"}, S_421_2, S_421_2)},),
                      expected=STATUS_CONTRADICTS,
                      note="third parts are not closed: 0*(2I) = 8I and "
                           "0*(2+2I) = 8+8I under 8a+4b (mod 12)"),

        _prop("prop-3.1.1", ring_6, subrings_6, "loose-subring",
              ("extended-intersection",)),
        _prop("prop-3.1.2", ring_6, subrings_6, "loose-subring",
              ("restricted-intersection",)),
        _prop("prop-3.1.3", ring_6, subrings_6, "loose-subring", ("and",)),
        Claim("theorem-3.1.3", KIND_PROP, ring_6, "exhaustive-ideals",
              STATUS_HOLDS, _run_theorem_3_1_3,
              note="every two-sided ideal is in particular a subring"),
        _prop("prop-3.1.4", ring_6, ring_ideals_6, "loose-ring-ideal"),

        _remark("remark-3.1.1", ring_12, "extended-union", "loose-subring",
                pin_ring12, ("add", "2", "3"),
                note="2 + 3 = 5 escapes the union of the even and the "
                     "multiples-of-three grids"),
        _remark("remark-3.1.2", ring_12, "restricted-union", "loose-subring",
                pin_ring12, ("add", "2", "3"),
                note="same escape under the shared-parameter union"),
        _remark("remark-3.1.3", ring_12, "or", "loose-subring",
                pin_ring12, ("add", "2", "3"), note="same escape under OR"),
        _remark("remark-3.1.4", ring_12, "extended-union", "loose-ring-ideal",
                (_grid(12, (0, 6), (0, 6)), _grid(12, (0, 4, 8), (0, 4, 8))),
                ("add", "6", "4"),
                note="6 + 4 = 10 escapes the union of the <6> and <4> "
                     "ideal grids"),

        Claim("example-3.1.1", KIND_EXAMPLE, _zi, "recorded-sets",
              STATUS_VERIFIED, _run_example_3_1_1),
        Claim("example-3.1.2", KIND_EXAMPLE, c_i, "recorded-sets",
              STATUS_VERIFIED, _run_example_3_1_2),
        Claim("example-3.1.3", KIND_EXAMPLE, _zi, "recorded-sets",
              STATUS_VERIFIED, _run_example_3_1_3,
              note="the recorded union rows fail exactly where stated: "
                   "a cross sum such as 2 + 5 = 7 lands outside"),
        _soft_example("example-3.1.4", ring_12, ("is", "ring-ideal"),
                      ({"a1": _IDEAL_12, "a2": _grid(12, (0, 6), (0, 6))},)),
        _soft_example("example-3.1.5", ring_10, ("is-not", "ring-ideal"),
                      ({"a1": {"0", "2", "4", "6", "8", "2I", "4I", "6I", "8I"},
                        "a2": {"0", "2I", "4I", "6I", "8I"}},),
                      note="the negative ideal statement verifies; the first "
                           "assignment is not even additively closed, so the "
                           "positive framing already fails"),
        _soft_example("example-3.1.6", c_i, ("sub-of", "loose-subring"),
                      ({"a2": _zi(), "a3": sym.NamedRing("Q", 1, True)},
                       {"a1": _zi(), "a2": sym.NamedRing("Q", 1, True),
                        "a3": sym.NamedRing("R", 1, True)})),
        Claim("example-3.1.7", KIND_EXAMPLE, ring_12, "recorded-sets",
              STATUS_CONTRADICTS, _run_example_3_1_7,
              note="8+2 = 10 escapes two assignments and 6+(6+6I) = 6I "
                   "escapes the inner row, against the recorded ideal "
                   "statement"),

        _prop("prop-4.1.1", gr_z2_c4, partial(span_population, "z2c4"),
              "loose-gr-subneutro", generator="exhaustive-basis-spans",
              note="spans of closed basis subsets intersect in the span of "
                   "the intersected basis"),
        _remark("remark-4.1.1-i1", gr_z2_c4, "restricted-union",
                "loose-gr-subneutro", pin_gr_c4, ("add", "1", "g^2I"),
                note="1 + g^2I escapes the union of two basis spans"),
        _remark("remark-4.1.1-i2", gr_z2_c4, "extended-union",
                "loose-gr-subneutro", pin_gr_c4, ("add", "1", "g^2I"),
                note="same escape under the extended union"),
        _remark("remark-4.1.1-i3", gr_z2_c4, "or", "loose-gr-subneutro",
                pin_gr_c4, ("add", "1", "g^2I"), note="same escape under OR"),

        Claim("example-4.1.1", KIND_EXAMPLE, sym_q, "recorded-sets",
              STATUS_VERIFIED, _run_example_4_1_1,
              note="two rows are purely real spans; the soft structure "
                   "is read as subring rows with at least one carrying I"),
        Claim("example-4.1.2", KIND_EXAMPLE, sym_q, "recorded-sets",
              STATUS_VERIFIED, _run_example_4_1_2,
              note="the union row fails as recorded: g^3 + g^2 has "
                   "support in neither span"),
        _soft_example("example-4.1.6", gr_z6_c4, ("is", "gr-pseudo"),
                      ({"a1": {"0", "3I"}, "a2": {"0", "2I", "4I"}},)),
        _soft_example("example-4.1.8", gr_z2_c4, ("is", "loose-gr-subring"),
                      ({"a1": {"0", "1+g^2"}, "a2": {"0", "1+g", "g+g^3", "1+g^3"}},),
                      expected=STATUS_CONTRADICTS,
                      note="(1+g)*(1+g) = 1+g^2 escapes the second assignment"),
        Claim("example-4.1.10", KIND_EXAMPLE, sym_z, "recorded-sets",
              STATUS_VERIFIED, _run_example_4_1_10),
        Claim("example-4.1.11", KIND_EXAMPLE, gr_z2_c4, "recorded-sets",
              STATUS_CONTRADICTS, _run_example_4_1_11,
              note="the ideals of v and v+w contain members with real "
                   "support, so the pseudo reading fails; generated "
                   "ideals are recomputed by brute force"),
        _soft_example("example-4.1.12", sym_z, ("ideal-of", None),
                      ({"a1": sym.NamedRing("Z", 8), "a2": sym.NamedRing("Z", 12)},
                       {"a1": sym.NamedRing("Z", 2), "a2": sym.NamedRing("Z", 4),
                        "a3": sym.NamedRing("Z", 6)})),

        _prop("prop-5.1.1", gr_z2_c3s, partial(span_population, "z2c3s"),
              "loose-gr-subneutro", generator="exhaustive-basis-spans"),
        _remark("remark-5.1.1", gr_z2_c3s, "restricted-union", "loose-gr-subneutro",
                ({"0", "1", "I", "1+I"},
                 {"0", "I", "gI", "g^2I", "I+gI", "I+g^2I", "gI+g^2I", "I+gI+g^2I"}),
                ("add", "1", "gI"),
                note="1 + gI escapes the union of two basis spans"),

        _prop("prop-6.1.1", mixed_universe, mixed_sub_pool, "loose-n-sub",
              spot=6200, generator="pooled-parts+randomized-spot"),
        _remark("remark-6.1.1", mixed_universe, "restricted-union", "loose-n-sub",
                (_mixed_row_a1(), _mixed_row_k2()), ("op", "2", "I", 0),
                note="2*I = 2I escapes the first part of the union row"),

        _soft_example("example-6.1.1", mixed_universe, ("profile", MIXED),
                      ({"a1": _mixed_row_a1(),
                        "a2": ({"2", "I"}, {"0", "2", "4", "2I", "4I"},
                               {"0", "2", "2I"}, A3, {"0", "5"}),
                        "a3": ({"1", "2"}, {"0", "3"}, {"0", "2"}, A3, EVENS_10)},),
                      expected=STATUS_CONTRADICTS,
                      note="the computed profile is WeakMixed, one assignment "
                           "has a non-closed first part (2*2 = 1), and another "
                           "carries no indeterminate member"),
        Claim("example-6.1.2", KIND_EXAMPLE, mixed_universe, "recorded-sets",
              STATUS_VERIFIED, _run_example_6_1_2,
              note="the recorded union row fails closure in its first "
                   "part (2*I escapes), as stated; the row also drops a "
                   "member the recomputed union keeps, its fifth part is "
                   "multiplicatively closed despite the recorded aside, "
                   "and the second parameter set is recorded "
                   "inconsistently"),
        _soft_example("example-6.1.3", dual_universe, ("profile", MIXED_DUAL),
                      ({"a1": ({"e", "2"}, frozenset(alternating_labels(4)), EVENS_10,
                               {"0", "2"}, {"e", "eI", "2", "2I"}),
                        "a2": ({"e", "3"}, S3_IN_S4, {"0", "5"}, {"0", "2"},
                               {"e", "eI", "3", "3I"})},)),

        Claim("classify-mixed-6.1.1", KIND_CLASSIFICATION, mixed_universe,
              "declared-tags", STATUS_HOLDS, _run_classify_mixed_6_1_1,
              note="three indeterminate kinds without a loop give the weak "
                   "profile"),
        Claim("classify-mixed-6.1.3", KIND_CLASSIFICATION, dual_universe,
              "declared-tags", STATUS_HOLDS, _run_classify_mixed_6_1_3,
              note="all four kinds appear plainly beside one indeterminate "
                   "loop"),
    )


def claim_by_id(cid):
    for c in registry():
        if c.id == cid:
            return c
    raise KeyError(cid)
