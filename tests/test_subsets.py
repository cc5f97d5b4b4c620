"""Subset predicates and brute-force enumeration over small finite carriers."""

import gc
import math
import weakref

import pytest

from neutrolab import scalars, subsets
from neutrolab.groupring import GroupRing
from neutrolab.io import load_structure
from neutrolab.softsets import SoftSet, soft_is
from neutrolab.structures import (
    FiniteMagma,
    FiniteRing,
    ResourceCap,
    build_from_table,
    cyclic_neutro_group,
    mult_magma,
    neutro_double,
    neutro_ring,
    param_groupoid,
    sym_group,
)
from neutrolab.subsets import (
    WEAKLY_LAGRANGE,
    _view,
    check_predicate,
    classify_lagrange,
    closure,
    enumerate_subs,
    gr_is_ideal,
    gr_is_subneutro,
    gr_is_subring,
    ideal_verdict,
    is_ideal,
    is_lagrange_sub,
    is_strong_subgroupoid,
    is_subgroupoid,
    is_subring,
    sub_verdict,
)
from test_groupring import C2, LEFT_ZERO, CountingGroupRing
from test_scalars import _upper_triangular_z2

P4 = frozenset({"0", "2", "2I", "2+2I"})
P3 = frozenset({"0", "2I", "2+2I"})


def test_scan_and_generate_agree_on_groupoid_16():
    g = param_groupoid(4, 2, 1)
    for predicate in ("subgroupoid", "loose-subgroupoid", "ideal"):
        scan = enumerate_subs(g, predicate, strategy="scan")
        gen = enumerate_subs(g, predicate, strategy="generate")
        assert scan == gen, predicate


def test_scan_and_generate_agree_on_ring_16():
    r = neutro_ring(4)
    for predicate in ("subring", "loose-subring", "loose-ring-ideal"):
        scan = enumerate_subs(r, predicate, strategy="scan")
        gen = enumerate_subs(r, predicate, strategy="generate")
        assert scan == gen, predicate


def test_ring6_ideal_count_matches_product_ring_oracle():
    # a+bI <-> (a, a+b) splits the carrier into a product of two Z6 copies,
    # so its ideals are the 4 x 4 products of Z6's ideals: 16 in all.
    ideals = enumerate_subs(neutro_ring(6), "loose-ring-ideal")
    assert len(ideals) == 16
    sizes = sorted(len(s) for s in ideals)
    assert sizes == sorted((a * b) for a in (1, 2, 3, 6) for b in (1, 2, 3, 6))


def test_every_product_lands_in_the_4_grid():
    # x*y = 8x + 4y (mod 12): both halves of every product are multiples of 4,
    # so a subset is an ideal exactly when it contains the whole 3x3 grid.
    g = param_groupoid(12, 8, 4)
    e4 = frozenset({"0", "4", "8", "4I", "8I",
                    "4+4I", "4+8I", "8+4I", "8+8I"})
    assert is_ideal(g, e4).ok
    assert is_ideal(g, e4 | {"1", "7+2I"}, strict=True).ok
    missing_4 = (e4 - {"4"}) | {"1"}
    assert not is_ideal(g, missing_4).ok
    assert not is_ideal(g, frozenset({"0"})).ok     # 1*0 = 8 escapes


def test_unit_translations_force_improper_ideals():
    # x*y = 3x + 2y (mod 10): 3 is a unit, so absorbing any p drags in 3m + 2p
    # for every m, i.e. the whole carrier.
    g = param_groupoid(10, 3, 2)
    full = frozenset(g.elements)
    v = is_ideal(g, full)
    assert v.ok and "improper" in v.flags
    assert not is_ideal(g, closure(g, {"0"})).ok


def test_subgroupoid_verdicts():
    g = param_groupoid(4, 2, 1)
    assert is_subgroupoid(g, P4, strict=True).ok
    v = is_subgroupoid(g, {"0", "2"}, strict=True)
    assert not v.ok and "no-indeterminate" in v.flags
    assert is_subgroupoid(g, {"0", "2"}).ok
    v = is_subgroupoid(g, {"0", "1"})
    assert not v.ok and v.witness is not None
    assert not is_subgroupoid(g, ()).ok


def test_strong_subgroupoid():
    g = param_groupoid(4, 2, 1)
    assert is_strong_subgroupoid(g, {"0", "2I"}).ok
    v = is_strong_subgroupoid(g, P4)
    assert not v.ok and v.witness == ("2",)


def test_lagrange_verdicts_and_classification():
    g = param_groupoid(4, 2, 1)
    assert is_lagrange_sub(g, P4).ok
    assert not is_lagrange_sub(g, P3).ok
    with pytest.raises(ValueError):
        is_lagrange_sub(g, {"0", "2"})      # strict only
    rep = classify_lagrange(g)
    assert rep.verdict == WEAKLY_LAGRANGE
    assert P4 in rep.dividing
    assert P3 in rep.non_dividing


def test_classify_lagrange_group_case():
    rep = classify_lagrange(sym_group(3))
    # plain groups carry no indeterminate member, so no strict subgroupoids
    assert rep.verdict == "LagrangeFree"
    assert not rep.dividing and not rep.non_dividing


def test_closure():
    g = param_groupoid(4, 2, 1)
    assert closure(g, {"1"}) == frozenset({"1", "3"})
    assert closure(g, {"0"}) == frozenset({"0"})
    assert is_subgroupoid(g, closure(g, {"1", "I"})).ok


def test_scan_cap_names_it():
    with pytest.raises(ResourceCap, match=r"groupoid\(10;3,2\) has 100 elements, "
                                          r"over subsets\.SCAN_LIMIT = 16"):
        enumerate_subs(param_groupoid(10, 3, 2), strategy="scan")


def test_generate_lists_carriers_past_64_elements_and_stops_at_the_count():
    for u, predicate, count in ((param_groupoid(10, 3, 2), "loose-subgroupoid", 120),
                                (neutro_ring(12), "loose-subring", 60)):
        listed = enumerate_subs(u, predicate)
        assert len(listed) == count, u.name
        assert all(check_predicate(u, s, predicate).ok for s in listed)
    with pytest.raises(ResourceCap, match=r"groupoid\(12;8,4\) reached 4097 closed sets, "
                                          r"over subsets\.GENERATE_COUNT_LIMIT = 4096"):
        enumerate_subs(param_groupoid(12, 8, 4), "loose-subgroupoid")


def test_generate_count_cap_names_it():
    with pytest.raises(ResourceCap, match=r"reached 4097 closed sets, "
                                          r"over subsets\.GENERATE_COUNT_LIMIT = 4096"):
        enumerate_subs(mult_magma(6))


def test_auto_falls_back_to_the_scan_past_the_count():
    # x*y = x: every nonempty subset of the 13-element left-zero band is
    # closed, 8,191 in all, over the generate count but within the scan
    band = FiniteMagma(["e%d" % i for i in range(13)], [[i] * 13 for i in range(13)])
    auto = enumerate_subs(band, "loose-subgroupoid", "auto")
    assert len(auto) == 8191
    assert auto == enumerate_subs(band, "loose-subgroupoid", "scan")
    with pytest.raises(ResourceCap, match=r"over subsets\.GENERATE_COUNT_LIMIT = 4096"):
        enumerate_subs(band, "loose-subgroupoid", "generate")


def _ring_fixpoint(ring, seed):
    current = set(seed)
    while True:
        grown = current | {f(x, y) for x in current for y in current
                           for f in (ring.add, ring.mul)}
        if grown == current:
            return frozenset(current)
        current = grown


@pytest.mark.parametrize("n", [4, 6])
def test_ring_closure_matches_brute_force_fixpoint(n):
    r = neutro_ring(n)
    seeds = [{x} for x in r.elements] + [{"2", "I"}, {"1", "2I"}, {"3I", "2+I"}]
    for seed in seeds:
        c = closure(r, seed)
        assert c == _ring_fixpoint(r, seed), seed
        assert is_subring(r, c).ok


def test_subring_verdicts():
    r = neutro_ring(4)
    assert is_subring(r, {"0", "2", "2I", "2+2I"}, strict=True).ok
    assert is_subring(r, {"0", "2"}).ok
    v = is_subring(r, {"0", "2"}, strict=True)
    assert not v.ok
    v = is_subring(r, {"0", "1"})
    assert not v.ok and v.witness[2] in ("add", "mul", "neg")


def test_check_predicate_dispatch_and_errors():
    g = param_groupoid(4, 2, 1)
    assert check_predicate(g, P4, "subgroupoid").ok
    assert check_predicate(g, P4, "lagrange").ok
    with pytest.raises(ValueError):
        check_predicate(g, P4, "no-such-predicate")
    with pytest.raises(ValueError):
        check_predicate(neutro_ring(4), {"0"}, "subgroupoid")
    with pytest.raises(ValueError):
        check_predicate("not a universe", {"0"}, "subgroupoid")
    with pytest.raises(ValueError):
        enumerate_subs(neutro_ring(3), "lagrange")


def test_every_strong_sub_is_strict():
    g = param_groupoid(4, 2, 1)
    strong = enumerate_subs(g, "strong")
    strict = enumerate_subs(g, "subgroupoid")
    assert strong and set(strong) <= set(strict)


def test_enumerate_checks_the_predicate_name_before_enumerating(monkeypatch):
    # a 100-element carrier: the misspelled name is reported before listing
    with pytest.raises(ValueError, match="subgroupoidd"):
        enumerate_subs(param_groupoid(10, 3, 2), "subgroupoidd")

    def enumerated(*args):
        raise AssertionError("enumerated before checking the predicate name")

    monkeypatch.setattr(subsets, "_scan_closed_sets", enumerated)
    monkeypatch.setattr(subsets, "_generate_closed_sets", enumerated)
    for strategy in ("scan", "generate"):
        with pytest.raises(ValueError, match="subgroupoidd"):
            enumerate_subs(param_groupoid(6, 2, 3), "subgroupoidd", strategy)


def test_enumerate_rejects_an_unknown_strategy_before_enumerating(monkeypatch):
    def enumerated(*args):
        raise AssertionError("enumerated before checking the strategy")

    monkeypatch.setattr(subsets, "_scan_closed_sets", enumerated)
    monkeypatch.setattr(subsets, "_generate_closed_sets", enumerated)
    for strategy in ("sacn", "Generate", "", None):
        with pytest.raises(ValueError, match="unknown strategy"):
            enumerate_subs(param_groupoid(4, 2, 1), "subgroupoid", strategy)


def _count_spread_reads(monkeypatch, view):
    """A counter of the reads the closure makes from `view`'s spread tables
    from now on."""
    reads = [0]

    class CountingRow(list):
        def __getitem__(self, y):
            reads[0] += 1
            return list.__getitem__(self, y)

    monkeypatch.setattr(view, "spread", tuple([CountingRow(row) for row in table]
                                              for table in view.spread))
    return reads


@pytest.mark.parametrize("params, closed_sets, limit", [
    ((6, 2, 3), 465, 3_000_000),   # closing every s | {x} from scratch: 5,914,484
    ((7, 1, 1), 10, 200_000),      # from scratch: 1,386,688
    ((8, 3, 2), 391, 200_000),     # breadth first with a seen set: 21,495,042
    ((10, 3, 2), 120, 200_000),
])
def test_generate_grows_each_closed_set_from_itself(monkeypatch, params, closed_sets, limit):
    """`generate` extends a closed set by one element without recomputing the
    products inside it, and gives up on a closure as soon as it reaches a
    member below the added element: the closure tables' reads stay under
    `limit`."""
    g = param_groupoid(*params)
    reads = _count_spread_reads(monkeypatch, _view(g))
    assert len(enumerate_subs(g, "loose-subgroupoid", "generate")) == closed_sets
    assert reads[0] <= limit


@pytest.mark.parametrize("build, predicate, listed, limit", [
    # rounds of a frontier reading both a product and its equal transpose:
    # 123,406 and 92,669
    (lambda: mult_magma(6), "loose-subgroupoid", None, 80_000),
    (lambda: neutro_ring(12), "loose-subring", 60, 75_000),
], ids=["mult(Z6+I)", "ring(Z12+I)"])
def test_generate_meets_each_pair_once_and_reads_a_commutative_table_once(
        monkeypatch, build, predicate, listed, limit):
    """The closure loop multiplies each new member by the members listed
    before it, and spreads a commutative product without its transpose:
    mult(Z6+I) reaches GENERATE_COUNT_LIMIT and ring(Z12+I) lists its 60
    closed sets within `limit` table reads."""
    u = build()
    reads = _count_spread_reads(monkeypatch, _view(u))
    if listed is None:
        with pytest.raises(ResourceCap, match="subsets.GENERATE_COUNT_LIMIT = %d"
                           % subsets.GENERATE_COUNT_LIMIT):
            enumerate_subs(u, predicate, "generate")
    else:
        assert len(enumerate_subs(u, predicate, "generate")) == listed
    assert reads[0] <= limit


def test_a_view_spreads_a_commutative_table_once():
    """A closure multiplies by a product's transpose only where it differs
    from the product: one table for each commutative operation, two for a
    non-commutative one; the absorption product keeps both."""
    for u in (mult_magma(6), cyclic_neutro_group(4), param_groupoid(4, 1, 1)):
        view = _view(u)
        assert view.spread == (u.table,) and view.absorb == (u.table, u.table), u.name
    g = param_groupoid(4, 2, 1)
    view = _view(g)
    assert view.spread == view.absorb and view.spread[1] != g.table
    assert view.spread[1] == [list(col) for col in zip(*g.table)]
    ring = neutro_ring(6)
    assert _view(ring).spread == (ring.add_table, ring.mul_table)
    add, mul = _upper_triangular_z2()
    matrices = FiniteRing([str(i) for i in range(8)], add, mul)
    view = _view(matrices)
    assert view.spread == (matrices.add_table,) + view.absorb
    assert view.absorb[1] == [list(col) for col in zip(*mul)] != mul


def _cyclic_cayley(k):
    labels = ["e"] + ["a%d" % i for i in range(1, k)]
    return build_from_table(labels, [[(i + j) % k for j in range(k)] for i in range(k)])


def _deck_carriers():
    """Fresh builds of the carriers of the structure-queries benchmark
    decks, collection components included."""
    return (
        [param_groupoid(*p) for p in [
            (2, 1, 1), (3, 1, 1), (3, 2, 1), (3, 1, 2), (4, 1, 1), (4, 2, 1), (4, 1, 2),
            (4, 2, 3), (4, 3, 2), (5, 1, 1), (5, 2, 1), (5, 1, 2), (5, 2, 3), (5, 3, 2),
            (6, 2, 1), (6, 1, 2), (6, 2, 3), (6, 3, 2), (7, 1, 1), (7, 2, 1), (7, 1, 2),
            (7, 2, 3), (7, 3, 2), (10, 3, 2)]]
        + [cyclic_neutro_group(m) for m in (2, 3, 4, 5, 6, 8, 12, 16, 24)]
        + [cyclic_neutro_group(m, True) for m in (3, 5)]
        + [mult_magma(n) for n in (2, 3, 4, 5, 6)]
        + [mult_magma(n, pure_union=True) for n in (3, 5, 8)]
        + [mult_magma(n, neutro=False) for n in (4, 6, 8, 10, 12, 16)]
        + [sym_group(3), sym_group(4), _cyclic_cayley(6)]
        + [neutro_double(m) for m in (sym_group(3), mult_magma(6, neutro=False),
                                      _cyclic_cayley(4), _cyclic_cayley(12))]
        + [neutro_ring(n) for n in range(2, 9)] + [neutro_ring(12)]
    )


DECK_CARRIERS = _deck_carriers()


def test_whole_carrier_verdicts_match_the_gap_walk_with_no_table_read(monkeypatch):
    """A finite carrier's tables name only its members, and a formal-sum
    ring's every member is all of (Z_r)^n, so the whole carrier is closed
    and absorbing: its verdicts, flags included, and a generated ideal that
    fills a formal-sum ring, are the gap walk's, read from no table and
    formed by no difference or product."""
    reads = [0]

    class CountingRow(list):
        def __getitem__(self, y):
            reads[0] += 1
            return list.__getitem__(self, y)

    def checks(u):
        labels = list(u.elements)
        return ([sub_verdict(u, labels, strict, pure)
                 for strict, pure in ((False, False), (True, False), (True, True))]
                + [ideal_verdict(u, labels, strict) for strict in (False, True)])

    for u in DECK_CARRIERS:
        view = _view(u)
        with monkeypatch.context() as m:
            m.setattr(view, "binary", tuple((name, [CountingRow(row) for row in table])
                                            for name, table in view.binary))
            m.setattr(view, "unary", tuple((name, CountingRow(table))
                                           for name, table in view.unary))
            m.setattr(view, "absorb", tuple([CountingRow(row) for row in table]
                                            for table in view.absorb))
            with monkeypatch.context() as walk:
                walk.setattr(subsets, "_whole", lambda view, pool: False)
                walked = checks(u)
            assert reads[0] > 0, u.name
            reads[0] = 0
            assert checks(u) == walked, u.name
            assert reads[0] == 0, u.name
        assert walked[0].ok and "improper" in walked[0].flags

    def gr_checks(gr):
        everything = list(gr.elements())
        ideal = gr.generated_ideal([gr.monomial(gr.basis.elements[0])])
        assert len(ideal) == len(gr), gr.name
        return ([check(gr, everything, strict) for strict in (False, True)
                 for check in (gr_is_subring, gr_is_ideal, gr_is_subneutro)] + [ideal])

    # bases: commutative with and without I, a left-zero band, and S3
    for r, basis in ((2, C2), (3, C2), (4, LEFT_ZERO), (2, cyclic_neutro_group(2)),
                     (2, sym_group(3))):
        gr = CountingGroupRing(r, basis)
        with monkeypatch.context() as walk:
            walk.setattr(subsets, "_whole", lambda view, pool: False)
            walked = gr_checks(gr)
        assert gr.calls > 0, gr.name
        gr.calls = 0
        assert gr_checks(gr) == walked, gr.name
        assert gr.calls == 0, gr.name
        assert walked[0].ok and "improper" in walked[0].flags


def _plain_close_by_one(view, n, name):
    """Close-by-One without FCbO's inherited failures: every x > y outside a
    closed set is closed out, up to the floor exit."""
    closed, stack = [], [(frozenset(), -1)]
    while stack:
        s, y = stack.pop()
        for x in range(y + 1, n):
            if x in s:
                continue
            c = subsets._close(view, (x,), base=s, floor=x)
            if not isinstance(c, int):
                c = frozenset(c)
                closed.append(c)
                if len(closed) > subsets.GENERATE_COUNT_LIMIT:
                    raise ResourceCap("enumerating %s reached %d closed sets, over "
                                      "subsets.GENERATE_COUNT_LIMIT = %d"
                                      % (name, len(closed), subsets.GENERATE_COUNT_LIMIT))
                stack.append((c, x))
    return closed


def _listed_or_capped(generate, u):
    try:
        return generate(_view(u), len(u), u.name)
    except ResourceCap as exc:
        return "ResourceCap: %s" % exc


def test_inherited_failures_list_what_plain_close_by_one_lists():
    """Skipping the closures a parent proved non-canonical changes neither
    the closed sets, nor their order, nor where the count cap stops."""
    capped = 0
    for u in DECK_CARRIERS:
        plain = _listed_or_capped(_plain_close_by_one, u)
        assert _listed_or_capped(subsets._generate_closed_sets, u) == plain, u.name
        capped += isinstance(plain, str)
    assert capped == 1      # mult(Z6+I) is over the count


def _accepted(u, closed, predicate):
    """The closed index sets whose labels the full check accepts, in
    (size, indices) order, as label sets."""
    def ok(labels):
        try:
            return check_predicate(u, labels, predicate).ok
        except ValueError:   # a lagrange candidate that is not a strict subgroupoid
            return False

    ordered = sorted(closed, key=lambda s: (len(s), sorted(s)))
    return [labels for labels in (frozenset(u.elements[i] for i in s) for s in ordered)
            if ok(labels)]


def _listing(u, predicate, strategy):
    try:
        return enumerate_subs(u, predicate, strategy)
    except ResourceCap as exc:
        return "ResourceCap: %s" % exc


def test_enumeration_lists_what_the_full_check_accepts(monkeypatch):
    """Every deck carrier, predicate and strategy: the listing equals the
    plain Close-by-One closed sets the full check accepts, in order, and
    mult(Z6+I) stops at the same count cap; the listing decides on index
    sets without calling the full check."""
    cases = []
    for u in DECK_CARRIERS:
        closed = _listed_or_capped(_plain_close_by_one, u)
        for predicate in [p for p, row in subsets.PREDICATES.items() if isinstance(u, row[0])]:
            want = closed if isinstance(closed, str) else _accepted(u, closed, predicate)
            for strategy in ("scan", "generate", "auto") if len(u) <= 16 else ("generate", "auto"):
                cases.append((u, predicate, strategy, want))

    def full_check(*args, **kwargs):
        raise AssertionError("enumeration ran the full check")

    for name in ("check_predicate", "sub_verdict", "ideal_verdict"):
        monkeypatch.setattr(subsets, name, full_check)
    capped = set()
    for u, predicate, strategy, want in cases:
        assert _listing(u, predicate, strategy) == want, (u.name, predicate, strategy)
        if isinstance(want, str):
            capped.add(u.name)
    assert len(cases) == 990 and capped == {"mult(Z6+I)"}


def _spec(u):
    """A `load_structure` spec for a deck carrier: a magma's own Cayley
    table, or the stock spec of a ring(Z_n+I), which has n^2 elements."""
    if isinstance(u, FiniteRing):
        return {"kind": "neutro_ring", "n": math.isqrt(len(u))}
    return {"kind": "cayley", "elements": u.elements, "table": u.table, "name": u.name}


def _classified(u):
    try:
        return classify_lagrange(u)
    except ResourceCap as exc:
        return "ResourceCap: %s" % exc


def test_a_carrier_served_again_answers_as_a_fresh_build():
    """A carrier `io.load_structure` serves again keeps the algebra view an
    earlier query built; enumeration under each strategy and the Lagrange
    classification over it equal those over a fresh build."""
    for fresh in _deck_carriers():
        u = load_structure(_spec(fresh))
        predicate = "subring" if isinstance(u, FiniteRing) else "subgroupoid"
        closure(u, [u.elements[-1]])
        check_predicate(u, u.elements[:2], predicate)
        view = _view(u)
        served = load_structure(_spec(fresh))
        assert served is u and _view(served) is view, fresh.name
        for strategy in ("scan", "generate", "auto") if len(u) <= 16 else ("generate", "auto"):
            assert (_listing(served, predicate, strategy)
                    == _listing(fresh, predicate, strategy)), (fresh.name, strategy)
        if isinstance(u, FiniteMagma):
            assert _classified(served) == _classified(fresh), fresh.name


def _freed(spec, query):
    """For the carrier loaded from `spec` and each of its components, whether
    it is gone once `query(carrier)` has run and the carrier is let go."""
    u = load_structure(spec)
    query(u)
    parts = [c.structure for c in getattr(u, "components", ())]
    refs = [weakref.ref(x) for x in (u, *parts)]
    del u, parts
    return [r() is None for r in refs]


def test_a_finite_carrier_is_freed_when_its_last_holder_lets_go():
    """The algebra view a query stores on a finite carrier reads its tables
    and positions, not the carrier, so no reference cycle keeps a queried
    magma, ring or collection component alive: each is freed on its last
    release without the cyclic collector."""
    def query(u):
        predicate = "subring" if isinstance(u, FiniteRing) else "subgroupoid"
        closure(u, [u.elements[-1]])
        enumerate_subs(u, predicate)
        check_predicate(u, u.elements[:2], predicate)
        with pytest.raises(ValueError, match="unknown element 'zz' in "):
            check_predicate(u, ["zz"], predicate)

    magma = {"kind": "param_groupoid", "n": 4, "t": 3, "u": 2}
    collection = {"kind": "ncollection", "name": "pair", "components": [
        {"spec": magma, "kind_tag": {"alg": "groupoid", "neutrosophic": True}},
        {"spec": {"kind": "param_groupoid", "n": 3, "t": 2, "u": 2},
         "kind_tag": {"alg": "groupoid", "neutrosophic": True}}]}
    soft = {"a1": (["0", "I"], ["1"]), "a2": (["0"], ["I"])}
    gc.disable()
    try:
        assert _freed(magma, query) == [True]
        assert _freed({"kind": "neutro_ring", "n": 4}, query) == [True]
        assert _freed(collection, lambda u: soft_is(SoftSet(u, soft), "loose-n-sub")) == [True] * 3
    finally:
        gc.enable()


@pytest.mark.parametrize("params", [(6, 2, 3), (8, 3, 2)])
def test_generate_skips_closures_a_parent_proved_non_canonical(monkeypatch, params):
    """Every candidate that passes the inherited-failure skip has its
    products with the parent set walked, whether or not a closure follows:
    1,056 and 1,765 walks here, where plain Close-by-One walks 7,514 and
    13,065 candidates."""
    walks = [0]
    walk = subsets._fresh_products

    def counting(*args):
        walks[0] += 1
        return walk(*args)

    monkeypatch.setattr(subsets, "_fresh_products", counting)
    enumerate_subs(param_groupoid(*params), "loose-subgroupoid", "generate")
    assert 0 < walks[0] < 2000


def _divisor_count(n):
    return sum(n % d == 0 for d in range(1, n + 1))


@pytest.mark.parametrize("strategy", ["generate", "auto"])
def test_ring_ideals_of_every_neutro_ring_match_the_product_ring_oracle(strategy):
    """a+bI -> (a, a+b) makes Z_n+I the ring Z_n x Z_n, whose ideals are the
    d(n)^2 products of two ideals of Z_n; the strict predicate drops {0}."""
    for n in range(2, 13):
        ideals = enumerate_subs(neutro_ring(n), "ring-ideal", strategy)
        assert len(ideals) == _divisor_count(n) ** 2 - 1, n


def test_a_ring_derives_its_additive_generators_once(monkeypatch):
    """Building ring(Z12+I) proves its laws from a greedy additive generating
    set, {I, 1}; listing its ring ideals and deciding one reuse that set."""
    calls, generators = [], scalars._generators

    def counted(table):
        calls.append(len(table))
        return generators(table)

    monkeypatch.setattr(scalars, "_generators", counted)
    ring = neutro_ring(12)
    assert [ring.elements[g] for g in ring.add_gens] == ["I", "1"]
    ideals = enumerate_subs(ring, "ring-ideal")
    assert len(ideals) == 35
    assert ideal_verdict(ring, ideals[0]).ok
    assert not ideal_verdict(ring, ["0", "6"]).ok
    assert calls == [144]


def test_a_bare_string_is_not_a_label_set():
    m = mult_magma(3)
    for check in (lambda s: check_predicate(m, s, "subgroupoid"),
                  lambda s: is_subgroupoid(m, s), lambda s: ideal_verdict(m, s)):
        with pytest.raises(ValueError, match="not the string '2I'"):
            check("2I")
    assert not check_predicate(m, ["2I"], "subgroupoid").ok
    gr = GroupRing(2, cyclic_neutro_group(2))
    with pytest.raises(ValueError, match="not the string '1\\+g'"):
        check_predicate(gr, "1+g", "gr-subring")
    assert check_predicate(gr, ["0", "1+g"], "loose-gr-subring").ok
