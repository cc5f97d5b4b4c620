"""Every named predicate against a brute-force check written here, on random
Cayley tables, subsets of ring(Z4+I) and subsets of Z2<cyclic(2)+I>, and the
formal-sum predicates on additive spans, generated subrings, right ideals and
ideals of five formal-sum rings; every failing verdict's witness must
replay.  Both enumeration strategies against a brute-force listing of the
subsets each predicate accepts, the pruned scan against every mask closed
under random tables, the closure loop grown from a base (closed, or with
its products seeded) against the closure from scratch, and Close-by-One's
walk of a candidate's products with a closed set against its closure.
The closed-gap and absorption-gap kernels, which accept by row containment,
against the plain walks they replace on a rejected pool.  Ring ideals, which are decided on an additive generating set, against
every (member, element) pair and against the sums of principal ideals, on
rings that are not commutative or have no identity too."""

import functools
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neutrolab import subsets
from neutrolab.groupring import GroupRing
from neutrolab.structures import (
    FiniteMagma,
    FiniteRing,
    cyclic_neutro_group,
    mult_magma,
    neutro_double,
    neutro_ring,
    param_groupoid,
    sym_group,
)
from neutrolab.subsets import (
    PREDICATES,
    _absorb_gap,
    _close,
    _closed_gap,
    _fresh_products,
    _generate_closed_sets,
    _grid,
    _scan_closed_sets,
    _view,
    check_predicate,
    closure,
    enumerate_subs,
    ideal_verdict,
    is_ring_ideal,
)
from test_scalars import _upper_triangular_z2

LABELS = ["0", "I", "1", "2I", "2", "3I"]
RING = neutro_ring(4)
GR = GroupRing(2, cyclic_neutro_group(2))
GR_ELEMENTS = list(GR.elements())


def names(carrier):
    return sorted(n for n, row in PREDICATES.items() if row[0] is carrier)


def neutro(label):
    return "I" in label


def fixpoint(subset, products):
    current = set(subset)
    while True:
        grown = current | {f(x, y) for x in current for y in current for f in products}
        if grown == current:
            return current
        current = grown


def expected(name, subset, carrier, products, absorb, is_neutro, is_pure, universe=None):
    """Brute-force answer for a named predicate: True, False, or ValueError."""
    loose = name.startswith("loose-")
    pure = name in ("strong", "pseudo", "pseudo-ideal", "gr-pseudo", "gr-pseudo-ideal")
    closed = bool(subset) and all(f(x, y) in subset for x in subset for y in subset
                                  for f in products)
    has_neutro = any(is_neutro(x) for x in subset)
    sub = closed and (loose or has_neutro) and (not pure or all(map(is_pure, subset)))
    if name == "lagrange":
        if not sub:
            return ValueError
        return len(carrier) % len(subset) == 0
    if name.endswith("subneutro"):
        return subneutro(universe, subset, closed, loose)
    if "ideal" in name:
        return sub and all(absorb(x, g) in subset and absorb(g, x) in subset
                           for x in subset for g in carrier)
    return sub


def unital_subrings(r):
    """Subsets of Z_r closed under - and x that hold an identity of their own."""
    for k in range(1, r + 1):
        for coeffs in itertools.combinations(range(r), k):
            if (all((a - b) % r in coeffs and a * b % r in coeffs
                    for a in coeffs for b in coeffs)
                    and any(all(e * x % r == x for x in coeffs) for e in coeffs)):
                yield coeffs


def subneutro(gr, subset, closed, loose):
    """A coefficient grid C^H: C a unital subring of Z_r, H a closed basis subset."""
    if subset == {gr.zero}:
        return True
    if not closed:
        return False
    basis = gr.basis
    grids = []
    for coeffs in unital_subrings(gr.r):
        for k in range(1, len(basis) + 1):
            for h in itertools.combinations(range(len(basis)), k):
                if all(basis.table[i][j] in h for i in h for j in h):
                    grids.append({tuple(dict(zip(h, cs)).get(i, 0) for i in range(len(basis)))
                                  for cs in itertools.product(coeffs, repeat=k)})
    if subset not in grids:
        return False
    return loose or any(gr.has_neutro_support(a) for a in subset)


def replay(subset, witness, products, parse=lambda x: x):
    """A gap witness (x, y, z) or (x, y, op, z) names a product that leaves
    the subset; other witnesses are a single member or an order pair."""
    if witness is None or len(witness) < 3:
        return
    if len(witness) == 3:
        x, y, z = witness
        op = "op"
    else:
        x, y, op, z = witness
    if op == "neg":
        assert products["neg"](parse(x)) == parse(z)
    elif op in ("right", "left"):
        a, b = (x, y) if op == "right" else (y, x)
        assert products["absorb"](parse(a), parse(b)) == parse(z)
    else:
        assert products[op](parse(x), parse(y)) == parse(z)
    assert parse(z) not in {parse(m) for m in subset}


def check_all(universe, labels, carrier_type, carrier, products, is_neutro, is_pure,
              parse=lambda x: x):
    closure_ops = [f for op, f in products.items() if op in ("op", "add", "mul", "sub")]
    subset = set(map(parse, labels))
    for name in names(carrier_type):
        want = expected(name, subset, carrier, closure_ops, products["absorb"],
                        is_neutro, is_pure, universe)
        if want is ValueError:
            with pytest.raises(ValueError):
                check_predicate(universe, labels, name)
            continue
        v = check_predicate(universe, labels, name)
        assert v.ok == want, (name, sorted(labels))
        if not v.ok:
            replay(labels, v.witness, products, parse)


def pure_labels(labels):
    return [x for x in labels if neutro(x) or x == "0"]


@st.composite
def magma_and_subset(draw, max_n=5):
    """A random table, biased so that a chosen core absorbs from the right or
    from both sides; the subset is the core, a random set, or a closure."""
    n = draw(st.integers(1, max_n))
    labels = LABELS[:n]
    palette = draw(st.sampled_from([labels, pure_labels(labels)]))
    core = sorted(labels.index(x) for x in draw(st.sets(st.sampled_from(palette), min_size=1)))
    sides = draw(st.sampled_from(["none", "right", "both"]))
    table = [[draw(st.sampled_from(core if (sides != "none" and i in core)
                                   or (sides == "both" and j in core) else range(n)))
              for j in range(n)] for i in range(n)]
    magma = FiniteMagma(labels, table)
    subset = draw(st.one_of(st.just({labels[i] for i in core}),
                            st.sets(st.sampled_from(palette))))
    if draw(st.booleans()):
        subset = fixpoint(subset, [magma.op])
    return magma, subset


@settings(max_examples=150, deadline=None)
@given(magma_and_subset())
def test_magma_predicates_match_brute_force(case):
    magma, subset = case
    check_all(magma, frozenset(subset), FiniteMagma, magma.elements,
              {"op": magma.op, "absorb": magma.op},
              neutro, lambda x: neutro(x) or x == "0")


@st.composite
def ring_subset(draw):
    palette = draw(st.sampled_from([RING.elements, pure_labels(RING.elements)]))
    subset = draw(st.sets(st.sampled_from(palette), max_size=8))
    if draw(st.booleans()):
        subset = fixpoint(subset, [RING.add, RING.mul])
    return subset


@settings(max_examples=150, deadline=None)
@given(ring_subset())
def test_ring_predicates_match_brute_force(subset):
    check_all(RING, frozenset(subset), type(RING), RING.elements,
              {"add": RING.add, "mul": RING.mul, "neg": RING.neg, "absorb": RING.mul},
              neutro, lambda x: neutro(x) or x == "0")


@st.composite
def sum_subset(draw):
    palette = draw(st.sampled_from([GR_ELEMENTS, [a for a in GR_ELEMENTS
                                                  if not any(a) or GR.is_pure_neutro(a)]]))
    subset = draw(st.sets(st.sampled_from(palette), max_size=6))
    if draw(st.booleans()):
        subset = fixpoint(subset | {GR.zero}, [GR.sub, GR.mul])
    return subset


@settings(max_examples=150, deadline=None)
@given(sum_subset())
def test_formal_sum_predicates_match_brute_force(subset):
    labels = [GR.format(a) for a in subset]
    check_all(GR, labels, GroupRing, GR_ELEMENTS,
              {"sub": GR.sub, "mul": GR.mul, "absorb": GR.mul},
              GR.has_neutro_support, lambda a: not any(a) or GR.is_pure_neutro(a),
              parse=GR.parse)


# formal-sum rings whose spans and generated ideals reach the basis-row
# path: r prime and composite (additive orders 2 and 4 in Z4), with and
# without indeterminates, commutative and not; the last, over the doubled
# left-zero semigroup x*y = x, has one-sided ideals with indeterminate
# members, so the strict ideal predicates reach their absorption check
SUM_RINGS = [GR, GroupRing(3, cyclic_neutro_group(2)),
             GroupRing(4, FiniteMagma(["1", "g"], [[0, 1], [1, 0]])),
             GroupRing(2, sym_group(3)),
             GroupRing(2, neutro_double(FiniteMagma(["a", "b"], [[0, 0], [1, 1]])))]


@functools.lru_cache(maxsize=None)
def sum_ops(gr):
    """Cached +, - and x of a formal-sum ring, its elements, and a parser of
    its formatted witnesses."""
    elements = list(gr.elements())
    by_label = {gr.format(a): a for a in elements}
    assert len(by_label) == len(elements)
    ops = {name: functools.lru_cache(maxsize=None)(getattr(gr, name))
           for name in ("add", "sub", "mul")}
    return ops, elements, by_label.__getitem__


def right_ideal(gr, ops, picks):
    """The subring generated by `picks` and closed under multiplication by
    every basis monomial on the right (one-sided when gr is not commutative)."""
    monomials = [tuple(int(i == j) for j in range(len(gr.basis))) for i in range(len(gr.basis))]
    current = {gr.zero, *picks}
    while True:
        grown = fixpoint(current, [ops["sub"], ops["mul"]])
        grown |= {ops["mul"](a, m) for a in grown for m in monomials}
        if grown == current:
            return current
        current = grown


@st.composite
def generated_sums(draw):
    """An additive span of 1-3 random elements, the subring they generate,
    the right ideal they generate, or the ideal that 1-2 of them generate."""
    gr = draw(st.sampled_from(SUM_RINGS))
    ops, elements, _ = sum_ops(gr)
    picks = draw(st.lists(st.sampled_from(elements), min_size=1, max_size=3))
    kind = draw(st.sampled_from(["span", "subring", "right-ideal", "ideal"]))
    if kind == "ideal":
        return gr, set(gr.generated_ideal(picks[:2]))
    if kind == "right-ideal":
        return gr, right_ideal(gr, ops, picks)
    subset = fixpoint({gr.zero, *picks}, [ops["add"]])
    if kind == "subring":
        subset = fixpoint(subset, [ops["sub"], ops["mul"]])
    return gr, subset


@settings(max_examples=200, deadline=None)
@given(generated_sums())
def test_formal_sum_predicates_on_generated_sets_match_brute_force(case):
    gr, subset = case
    ops, elements, parse = sum_ops(gr)
    labels = sorted(map(gr.format, subset))
    products = {"sub": ops["sub"], "mul": ops["mul"], "absorb": ops["mul"]}
    for name in names(GroupRing):
        want = expected(name, subset, elements, [ops["sub"], ops["mul"]], ops["mul"],
                        gr.has_neutro_support, lambda a: not any(a) or gr.is_pure_neutro(a), gr)
        v = check_predicate(gr, sorted(subset), name)
        assert v.ok == want, (name, gr.name, labels)
        if not v.ok:
            replay(labels, v.witness, products, parse)


def grids(gr, pool):
    """Each (d, basis labels) whose coefficient grid equals `pool`, searched
    over every divisor d of r and every basis mask: the subring dZ_r holds
    its own identity, the basis subset is closed."""
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
                    and all(c in coeffs and (not c or mask >> i & 1)
                            for x in pool for i, c in enumerate(x))):
                yield d, tuple(basis.elements[i] for i in idxs)


# bases of 2-3 elements with closed and unclosed subsets, with and without I
GRID_BASES = [FiniteMagma(["1", "g"], [[0, 1], [1, 0]]), mult_magma(3, neutro=False),
              neutro_double(FiniteMagma(["1"], [[0]]))]


@st.composite
def grid_candidates(draw):
    """A formal-sum ring with r in {2, 3, 4, 6, 8, 9, 12} and a set holding a
    nonzero sum: a coefficient grid dZ_r over some basis labels, that grid
    with one member dropped or one sum added, or a random set."""
    gr = GroupRing(draw(st.sampled_from([2, 3, 4, 6, 8, 9, 12])), draw(st.sampled_from(GRID_BASES)))
    r, width = gr.r, len(gr.basis)
    d = draw(st.sampled_from([d for d in range(1, r) if r % d == 0]))
    labels = draw(st.sets(st.integers(0, width - 1), min_size=1))
    sums = st.tuples(*[st.integers(0, r - 1)] * width)
    pool = {tuple(dict(zip(labels, cs)).get(i, 0) for i in range(width))
            for cs in itertools.product(range(0, r, d), repeat=len(labels))}
    change = draw(st.sampled_from(["grid", "drop", "add", "random"]))
    if change == "drop":
        pool.discard(draw(st.sampled_from(sorted(pool - {gr.zero}))))
    elif change == "add":
        pool.add(draw(sums))
    elif change == "random":
        pool = draw(st.sets(sums, min_size=1, max_size=8))
    if not any(map(any, pool)):
        pool.add(gr.monomial(gr.basis.elements[0]))
    return gr, frozenset(pool)


@settings(max_examples=300, deadline=None)
@given(grid_candidates())
def test_the_grid_read_off_a_set_is_the_one_the_search_finds(case):
    gr, pool = case
    assert _grid(gr, pool) == next(grids(gr, pool), None)


def closed_subsets(universe, products):
    """Every nonempty subset of element indices closed under `products`, from
    itertools.combinations over the carrier."""
    labels = universe.elements
    return {frozenset(map(universe.idx, combo))
            for k in range(1, len(labels) + 1)
            for combo in itertools.combinations(labels, k)
            if all(f(x, y) in combo for x in combo for y in combo for f in products)}


def assert_three_way(universe, carrier_type, products):
    """The raw candidates of both strategies (the sets closed under every
    operation, each listed once) equal the brute-force closed sets, and each
    predicate's listing by either strategy equals the closed sets the
    brute-force check accepts; no predicate holds on a set that is not
    closed."""
    view, n = _view(universe), len(universe)
    closed = closed_subsets(universe, products)
    for listed in (_scan_closed_sets(view.spread, n, universe.name),
                   _generate_closed_sets(view, n, universe.name)):
        assert len(listed) == len(set(listed)) and set(listed) == closed
    ordered = [frozenset(universe.elements[i] for i in s)
               for s in sorted(closed, key=lambda s: (len(s), sorted(s)))]
    for name in names(carrier_type):
        want = [s for s in ordered
                if expected(name, set(s), universe.elements, products, products[-1], neutro,
                            lambda x: neutro(x) or x == "0") is True]
        assert enumerate_subs(universe, name, "scan") == want, (name, universe.name)
        assert enumerate_subs(universe, name, "generate") == want, (name, universe.name)


@settings(max_examples=100, deadline=None)
@given(magma_and_subset(6))
def test_scan_generate_and_brute_force_list_the_same_magma_subsets(case):
    magma, _ = case
    assert_three_way(magma, FiniteMagma, [magma.op])


def test_scan_generate_and_brute_force_list_the_same_16_element_magma_subsets():
    # 16 elements: the scan's masks use both image bytes
    magma = param_groupoid(4, 2, 1)
    assert_three_way(magma, FiniteMagma, [magma.op])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_scan_generate_and_brute_force_list_the_same_ring_subsets(n):
    ring = neutro_ring(n)
    assert_three_way(ring, type(ring), [ring.add, ring.mul])


@st.composite
def tables(draw):
    """One to three random operation tables on at most 6 elements."""
    n = draw(st.integers(1, 6))
    cell = st.integers(0, n - 1)
    table = st.lists(st.lists(cell, min_size=n, max_size=n), min_size=n, max_size=n)
    return n, draw(st.lists(table, min_size=1, max_size=3))


def masks_closed_under(n, spread):
    return {frozenset(i for i in range(n) if mask >> i & 1) for mask in range(1, 1 << n)
            if all(mask >> t[x][y] & 1 for t in spread
                   for x in range(n) if mask >> x & 1 for y in range(n) if mask >> y & 1)}


@settings(max_examples=200, deadline=None)
@given(tables())
def test_the_scan_lists_each_set_closed_under_every_table_once(case):
    # the tables are random, so neither commutative nor given with their
    # transposes: the scan must take products both ways round itself (the
    # view's own tables, rings included, are the three-way tests' case)
    n, spread = case
    listed = _scan_closed_sets(spread, n, "carrier")
    assert len(listed) == len(set(listed))
    assert set(listed) == masks_closed_under(n, spread)


def indices(view, labels):
    return frozenset(view.members(labels))


@st.composite
def carrier_base_and_seed(draw):
    """A random magma (n <= 6) or ring(Z4+I) / ring(Z6+I), a closed base (the
    closure of a random subset, possibly empty) and a random seed."""
    if draw(st.booleans()):
        universe, _ = draw(magma_and_subset(6))
        products = [universe.op]
    else:
        universe = neutro_ring(draw(st.sampled_from([4, 6])))
        products = [universe.add, universe.mul]
    picks = st.sets(st.sampled_from(universe.elements), max_size=3)
    base = fixpoint(draw(picks), products)
    return universe, products, base, draw(picks)


@settings(max_examples=150, deadline=None)
@given(carrier_base_and_seed())
def test_closing_from_a_closed_base_matches_closing_from_scratch(case):
    universe, products, base, seed = case
    view = _view(universe)
    grown = _close(view, indices(view, seed), base=indices(view, base))
    assert grown == _close(view, indices(view, base | seed))
    assert {universe.elements[i] for i in grown} == fixpoint(base | seed, products)


@settings(max_examples=150, deadline=None)
@given(carrier_base_and_seed(), st.integers(0, 36))
def test_closing_with_a_floor_returns_the_fixpoint_or_a_member_below_it(case, floor):
    """With a `floor` no new seed member is below (as in Close-by-One, which
    seeds the floor itself), `_close` returns the fixpoint when it adds no
    member below the floor, and otherwise one such member."""
    universe, products, base, seed = case
    view = _view(universe)
    closed, seeds = indices(view, base), indices(view, seed)
    floor = min([floor, *(seeds - closed)])
    fresh = indices(view, fixpoint(base | seed, products)) - closed
    grown = _close(view, seeds, base=closed, floor=floor)
    if isinstance(grown, int):
        assert grown < floor and grown in fresh
    else:
        assert grown == closed | fresh and min(fresh, default=floor) >= floor


@pytest.mark.parametrize("universe, base, seed", [
    (neutro_ring(6), {"2", "3I"}, {"1", "I"}),
    (neutro_ring(4), {"0", "2"}, {"I", "1"}),
    (cyclic_neutro_group(4), {"g"}, {"I"}),
])
def test_closing_to_the_whole_carrier_stops_there(universe, base, seed):
    view = _view(universe)
    closed = indices(view, closure(universe, base))
    grown = _close(view, indices(view, seed), base=closed)
    assert grown == set(range(len(universe)))
    assert closure(universe, base | seed) == frozenset(universe.elements)


# a ring, a groupoid whose product has a transpose in its spread, and a
# multiplicative magma
WALKED = [neutro_ring(4), neutro_ring(6), param_groupoid(4, 2, 1), mult_magma(4)]


def operations(universe):
    return [universe.add, universe.mul] if isinstance(universe, FiniteRing) else [universe.op]


@st.composite
def closed_set_and_candidate(draw):
    """A carrier of WALKED, a closed set (the closure of a random subset,
    possibly empty) as indices, and an index outside it."""
    universe = draw(st.sampled_from(WALKED))
    view = _view(universe)
    picks = draw(st.sets(st.sampled_from(universe.elements), max_size=3))
    s = indices(view, fixpoint(picks, operations(universe)))
    outside = [x for x in range(len(universe)) if x not in s]
    if not outside:
        s = frozenset()
        outside = range(len(universe))
    return universe, s, draw(st.sampled_from(outside))


@settings(max_examples=200, deadline=None)
@given(closed_set_and_candidate())
def test_the_walk_over_a_closed_set_decides_what_its_closure_decides(case):
    """Close-by-One's walk of x's products with a closed `s` fails with the
    member the closure from `s` stops at, finds nothing new exactly when
    s | {x} is closed, and otherwise seeds a closure from s | {x} that ends
    in the same set, or fails below x too."""
    universe, s, x = case
    view = _view(universe)
    closed = _close(view, (x,), base=s, floor=x)
    walked = _fresh_products(view.spread, s, x)
    if isinstance(walked, int):
        assert walked == closed
    elif not walked:
        assert closed == s | {x}
    else:
        grown = _close(view, walked, base=s | {x}, floor=x)
        if isinstance(closed, int):
            fresh = indices(view, fixpoint({universe.elements[i] for i in s | {x}},
                                           operations(universe)))
            assert isinstance(grown, int) and grown < x and grown in fresh - s
        else:
            assert grown == closed != s | {x}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(WALKED), st.data())
def test_closing_from_a_base_whose_products_are_seeded_matches_closing_from_scratch(
        universe, data):
    """A base need not be closed: seeded with every product of two of its
    members that falls outside it, and any other members, `_close` ends
    where the closure from scratch does."""
    view = _view(universe)
    members = st.sampled_from(universe.elements)
    base = data.draw(st.sets(members, max_size=4))
    seed = {f(a, b) for f in operations(universe) for a in base for b in base} - base
    seed |= data.draw(st.sets(members, max_size=2))
    grown = _close(view, indices(view, seed), base=indices(view, base))
    assert grown == _close(view, indices(view, base | seed))
    assert {universe.elements[i] for i in grown} == fixpoint(base | seed, operations(universe))


# the upper-triangular 2x2 matrices over Z2, [[a, b], [0, c]] labelled "abc":
# a ring with identity that is not commutative; and 2Z8 = {0, 2, 4, 6} mod 8,
# a ring without identity
UPPER_Z2 = FiniteRing([format(i, "03b") for i in range(8)], *_upper_triangular_z2(),
                      name="UT2(Z2)")
EVEN_Z8 = FiniteRing(["0", "2", "4", "6"], [[(x + y) % 4 for y in range(4)] for x in range(4)],
                     [[2 * x * y % 4 for y in range(4)] for x in range(4)], name="2Z8")
IDEAL_RINGS = [neutro_ring(n) for n in range(2, 9)] + [UPPER_Z2, EVEN_Z8]
IDEAL_ROWS = {name: PREDICATES[name][2:] for name in ("ring-ideal", "loose-ring-ideal",
                                                     "pseudo-ideal")}


def grow(ring, members, absorb):
    """The additive subgroup `members` generate (the zero for none), and with
    `absorb` the two-sided ideal, by a fixpoint over every pair of members
    and, with `absorb`, every (member, element) pair."""
    current = {ring.idx(x) for x in members} or {ring.idx(ring.zero)}
    add, mul, every = ring.add_table, ring.mul_table, range(len(ring))
    while True:
        grown = current | {add[x][y] for x in current for y in current}
        if absorb:
            grown |= {z for x in current for y in every for z in (mul[x][y], mul[y][x])}
        if grown == current:
            return frozenset(ring.elements[x] for x in current)
        current = grown


@st.composite
def ring_and_subset(draw):
    """One of IDEAL_RINGS and a random subset of it: as drawn, the additive
    subgroup or the ideal it generates, or that ideal with one element added
    or taken away."""
    ring = draw(st.sampled_from(IDEAL_RINGS))
    # the matrices have no indeterminate or "0" label, so no pure one
    palette = draw(st.sampled_from([ring.elements, pure_labels(ring.elements) or ring.elements]))
    subset = draw(st.sets(st.sampled_from(palette), max_size=4))
    mode = draw(st.sampled_from(["raw", "subgroup", "ideal", "ideal+1", "ideal-1"]))
    if mode != "raw":
        subset = set(grow(ring, subset, mode != "subgroup"))
    if mode == "ideal+1":
        subset.add(draw(st.sampled_from(ring.elements)))
    if mode == "ideal-1":
        subset.discard(draw(st.sampled_from(sorted(subset))))
    return ring, frozenset(subset)


@settings(max_examples=150, deadline=None)
@given(ring_and_subset())
def test_ring_ideals_decided_on_additive_generators_match_every_pair(case):
    """A ring's ideal verdicts absorb only its additive generating set, and
    agree with the walk over every (member, element) pair, both sides, on
    commutative and non-commutative rings and a ring without identity."""
    ring, subset = case
    products = {"add": ring.add, "mul": ring.mul, "neg": ring.neg, "absorb": ring.mul}
    assert _view(ring).gens == ring.add_gens
    for name, (strict, pure) in IDEAL_ROWS.items():
        want = expected(name, set(subset), ring.elements, [ring.add, ring.mul], ring.mul,
                        neutro, lambda x: neutro(x) or x == "0")
        for v in (is_ring_ideal(ring, subset, strict, pure),
                  ideal_verdict(ring, subset, strict, pure)):
            assert v.ok == want, (name, ring.name, sorted(subset))
            if not v.ok:
                replay(subset, v.witness, products)


@pytest.mark.parametrize("ring", IDEAL_RINGS, ids=lambda r: r.name)
def test_ring_ideal_listing_matches_the_sums_of_principal_ideals(ring):
    """Every ideal is the sum of the principal ideals of its members, so the
    principal ideals closed under sums are every ideal."""
    ideals = {grow(ring, [x], True) for x in ring.elements}
    while True:
        sums = ideals | {grow(ring, a | b, True) for a in ideals for b in ideals}
        if sums == ideals:
            break
        ideals = sums
    want = sorted(ideals, key=lambda s: (len(s), sorted(map(ring.idx, s))))
    assert enumerate_subs(ring, "loose-ring-ideal") == want


# ---------------------------------------------------------------------------
# the gap kernels against the plain walks: row containment only accepts, and
# a pool it rejects is walked for the same first gap


def walked_closed_gap(order, pool, binary, unary=()):
    """The closed-gap walk alone, as the kernel ran it before containment
    tests: x, then its unary images, then y under each operation in turn."""
    for x in order:
        for name, table in unary:
            z = table[x]
            if z not in pool:
                return x, None, name, z
        gap, span = None, order
        for name, table in binary:
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


def walked_absorb_gap(view, xs, pool, ys):
    """The absorption walk alone: x, then y, right product before left."""
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


@st.composite
def finite_pool(draw):
    """A random magma table biased to absorb, or a ring of IDEAL_RINGS, with
    a subset's index pool walked as the set iterates or sorted, and columns
    to absorb: every element, the view's generators, or a parent list."""
    universe, labels = draw(st.one_of(magma_and_subset(), ring_and_subset()))
    view, n = _view(universe), len(universe)
    pool = {universe.idx(x) for x in labels}
    order = draw(st.sampled_from([pool, sorted(pool)]))
    parent = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1)))
    return view, order, pool, draw(st.sampled_from([view.gens, range(n), parent]))


@settings(max_examples=300, deadline=None)
@given(finite_pool(), st.sampled_from([2, subsets._ROW_TEST_MEMBERS]))
def test_gap_kernels_return_what_the_plain_walks_return(case, row_test_members):
    """`_closed_gap` under every nonempty run of the view's operations, with
    and without its unary maps, and `_absorb_gap` against whole rows,
    generators and parent lists: None, or the walk's first gap.  The small
    pools drawn here take the row containment test when its floor is 2."""
    view, order, pool, ys = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(subsets, "_ROW_TEST_MEMBERS", row_test_members)
        for ops in filter(None, (view.binary, view.binary[:1], view.binary[1:])):
            for unary in ((), view.unary):
                assert (_closed_gap(order, pool, ops, unary)
                        == walked_closed_gap(order, pool, ops, unary)), (ops, unary)
        assert _absorb_gap(view, order, pool, ys) == walked_absorb_gap(view, order, pool, ys)
