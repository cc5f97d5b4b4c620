"""structure-queries: a seeded stream of the queries the CLI answers, each
starting from `io.load_structure(spec)`.

One round is a deck of 68 queries with a fixed mix: 13 enumerations, 3
classifications, 5 kind checks, 5 closures, 16 predicate checks, 4 hunts,
12 soft-set operations, 8 collection checks and 2 scalar ring-law sweeps.
The seed picks subsets, predicates, operations, the order of the deck, and
carriers within classes of like cost. The three enumerations on carriers
the program cannot handle today (`groupoid(10;3,2)` and `ring(Z12+I)`
exceed the 64-element cap, `mult(Z6+I)` passes 4096 closed sets) are in
every deck and raise ResourceCap, so the failed share stays at 3 in 68.
"""

import json
import os
import random

from neutrolab import engine, io, ncollect, scalars, softsets, structures, subsets
from neutrolab.structures import FiniteRing

import oracles
from ops import Op


def G(n, t, u):
    return {"kind": "param_groupoid", "n": n, "t": t, "u": u}


def C(m, semigroup=False):
    return {"kind": "cyclic_neutro_group", "m": m, "semigroup": semigroup}


def R(n):
    return {"kind": "neutro_ring", "n": n}


def M(n, neutro=True, pure_union=False):
    return {"kind": "mult_magma", "n": n, "neutro": neutro, "pure_union": pure_union}


def S(k):
    return {"kind": "sym_group", "k": k}


def D(base):
    return {"kind": "neutro_double", "base": base}


def cyclic_cayley(k):
    labels = ["e"] + ["a%d" % i for i in range(1, k)]
    return {"kind": "cayley", "elements": labels,
            "table": [[labels[(i + j) % k] for j in range(k)] for i in range(k)]}


# Carriers by cost class. Enumeration slots draw from a class of like cost;
# the cheap queries visit a fixed list of carriers in every deck, so decks
# differ only in subsets, predicates and operations, and their cost
# distributions match from seed to seed.
SCAN16 = [G(4, 2, 1), G(4, 1, 2), G(4, 2, 3), G(4, 3, 2), G(4, 1, 1), C(8),
          M(4), M(16, neutro=False), R(4)]
SMALL = [G(2, 1, 1), G(3, 1, 1), G(3, 2, 1), G(3, 1, 2), C(2), C(3), C(5),
         C(6), C(3, True), C(5, True), M(2), M(3), M(3, pure_union=True),
         M(5, pure_union=True), M(4, neutro=False), M(8, neutro=False),
         M(12, neutro=False), S(3), D(S(3)), D(M(6, neutro=False)),
         D(cyclic_cayley(4)), cyclic_cayley(6), R(2), R(3)]
MANY_CLOSED = [G(6, 2, 3), G(6, 3, 2)]
FEW_CLOSED = [G(7, 1, 1), G(7, 2, 1), G(7, 1, 2), G(7, 2, 3), G(7, 3, 2)]
MEDIUM = [G(6, 2, 1), G(6, 1, 2), C(24), M(5), R(6), R(7)]
LIGHT = [G(5, 1, 1), G(5, 2, 1), G(5, 1, 2), G(5, 2, 3), G(5, 3, 2), C(12),
         C(16), S(4), R(5), D(cyclic_cayley(12))]
OVER_CAP = [G(10, 3, 2), R(12), M(6)]
MAGMAS = [G(4, 2, 1), G(7, 3, 2), C(8), C(5, True), M(4),
          M(8, pure_union=True), M(12, neutro=False), S(4), D(S(3)),
          cyclic_cayley(6)]
RINGS = [R(2), R(3), R(4), R(5), R(6), R(7), R(8), R(4)]
CLASSIFY = ([G(4, 2, 1), G(4, 1, 2)], FEW_CLOSED,
            [C(12), D(cyclic_cayley(12))])
SOFT_UNIVERSES = [G(4, 2, 1), C(6), M(3), D(S(3)), R(4), R(6)]
UNIONS = ("extended-union", "restricted-union", "or")
INTERSECTIONS = ("extended-intersection", "restricted-intersection", "and")
# (carrier, operations): union hunts find a witness at once, intersection
# hunts over ring(Z6+I) sweep the whole population to Holds
HUNTS = [(G(4, 2, 1), UNIONS), (G(4, 2, 1), UNIONS), (R(6), INTERSECTIONS),
         (C(8), UNIONS)]
RING_LAWS = (4, 6)

MAGMA_PREDICATES = ("subgroupoid", "loose-subgroupoid", "loose-ideal")
RING_PREDICATES = ("subring", "loose-subring", "loose-ring-ideal")

# collections: (components as (spec, alg tag, indeterminate)), tags match the
# component's verified kind for the plain ones
COLLECTIONS = [
    [(G(4, 2, 1), "groupoid", True), (S(3), "group", False)],
    [(C(4), "group", True), (M(6, neutro=False), "semigroup", False),
     (R(3), "ring", True)],
    [(M(3), "semigroup", True), (G(3, 1, 2), "groupoid", True),
     (S(4), "group", False)],
    [(R(4), "ring", True), (D(S(3)), "group", True),
     (M(10, neutro=False), "semigroup", False)],
]


def collection_spec(comps):
    return {"kind": "ncollection", "components": [
        {"spec": spec, "kind_tag": {"alg": alg, "neutrosophic": neutro}}
        for spec, alg, neutro in comps]}


def key(spec):
    return json.dumps(spec, sort_keys=True)


def default_predicate(universe):
    return "subring" if isinstance(universe, FiniteRing) else "subgroupoid"


class Workload:
    def __init__(self, seed):
        self.seed = seed
        self.cached = oracles.Memo()

    # -- set-up: carriers the generator draws labels from, and populations
    def setup(self, tracer):
        """Set-up spans are recorded by the verify-suite workload only."""
        specs = (SCAN16 + SMALL + MANY_CLOSED + FEW_CLOSED + MEDIUM + LIGHT
                 + OVER_CAP + MAGMAS + RINGS + [spec for comps in COLLECTIONS
                               for spec, _, _ in comps])
        self.carriers = {key(spec): io.load_structure(spec) for spec in specs}
        self.populations = {}
        for spec in SOFT_UNIVERSES:
            u = self.carrier(spec)
            self.populations[key(spec)] = subsets.enumerate_subs(
                u, default_predicate(u), "generate")

    def carrier(self, spec):
        return self.carriers[key(spec)]

    # -- one deck
    def deck(self, rnd):
        rng = random.Random("structure-queries:%d:%d" % (self.seed, rnd))
        pick = rng.choice
        ops = []
        for pool, strategy in ((SCAN16, "scan"), (SCAN16, "scan"),
                               (SMALL, "scan"), (SMALL, "scan"),
                               (SMALL, "generate"), (MANY_CLOSED, "generate"),
                               (FEW_CLOSED, "generate"), (MEDIUM, "generate"),
                               (LIGHT, "generate"), (LIGHT, "generate")):
            ops.append(self.enumerate_op(pick(pool), strategy, rng))
        for spec in OVER_CAP:
            ops.append(self.enumerate_op(spec, "auto", rng, defect="ResourceCap"))
        ops += [self.classify_op(pick(pool)) for pool in CLASSIFY]
        ops += [self.kind_op(spec) for spec in MAGMAS[::2]]
        ops += [self.closure_op(spec, rng) for spec in MAGMAS[1::2]]
        ops += [self.predicate_op(spec, rng) for spec in MAGMAS[:8] + RINGS]
        ops += [self.hunt_op(spec, pick(names)) for spec, names in HUNTS]
        ops += [self.soft_op(spec, rng) for spec in SOFT_UNIVERSES * 2]
        ops += [self.collection_op(comps, rng) for comps in COLLECTIONS * 2]
        ops += [self.ring_law_op(n) for n in RING_LAWS]
        rng.shuffle(ops)
        return ops

    # -- enumeration
    def enumerate_op(self, spec, strategy, rng, defect=None):
        u = self.carrier(spec)
        predicate = default_predicate(u) if rng.random() < 0.5 else \
            "loose-" + default_predicate(u)

        def run(tr):
            with tr.span("io.load_structure"):
                universe = io.load_structure(spec)
            return enumerate_traced(tr, universe, predicate, strategy)

        def check(result):
            if len(u) <= subsets.SCAN_LIMIT:
                other = "generate" if strategy == "scan" else "scan"
                want = self.cached(("enum", key(spec), predicate, other),
                                   lambda: subsets.enumerate_subs(u, predicate, other))
                if sorted(map(sorted, result)) != sorted(map(sorted, want)):
                    return "%s %s on %s disagrees with %s" % (
                        strategy, predicate, u.name, other)
            for s in result:
                if not subsets.check_predicate(u, s, predicate).ok:
                    return "%s returned %s failing %s" % (u.name, sorted(s),
                                                         predicate)
            return None

        return Op("enumerate", run, check, defect)

    # -- classification and kind
    def classify_op(self, spec):
        u = self.carrier(spec)

        def run(tr):
            with tr.span("io.load_structure"):
                universe = io.load_structure(spec)
            with tr.span("subsets.classify_lagrange"):
                return subsets.classify_lagrange(universe)

        def check(rep):
            want = self.cached(("proper", key(spec)), lambda: [
                s for s in subsets.enumerate_subs(u, "subgroupoid", "generate")
                if len(s) < len(u)])
            got = rep.dividing + rep.non_dividing
            if sorted(map(sorted, got)) != sorted(map(sorted, want)):
                return "classify %s lists other subgroupoids" % u.name
            if any(len(u) % len(s) for s in rep.dividing) or \
                    any(len(u) % len(s) == 0 for s in rep.non_dividing):
                return "classify %s misplaces a subgroupoid" % u.name
            verdict = (subsets.WEAKLY_LAGRANGE if rep.dividing and rep.non_dividing
                       else subsets.LAGRANGE if rep.dividing
                       else subsets.LAGRANGE_FREE)
            if rep.verdict != verdict:
                return "classify %s says %s" % (u.name, rep.verdict)
            return None

        return Op("classify", run, check)

    def kind_op(self, spec):
        u = self.carrier(spec)

        def run(tr):
            with tr.span("io.load_structure"):
                universe = io.load_structure(spec)
            with tr.span("structures.verify_kind"):
                return structures.verify_kind(universe)

        def check(rep):
            want = self.cached(("kind", key(spec)), lambda: oracles.magma_kind(u))
            got = (rep.semigroup, rep.group, rep.loop, rep.identity)
            return None if got == want else "kind of %s: %r, want %r" % (
                u.name, got, want)

        return Op("verify_kind", run, check)

    # -- closure and single-subset predicates
    def closure_op(self, spec, rng):
        u = self.carrier(spec)
        seed_labels = frozenset(rng.sample(u.elements, rng.randint(1, 3)))

        def run(tr):
            with tr.span("io.load_structure"):
                universe = io.load_structure(spec)
            with tr.span("subsets.closure"):
                return subsets.closure(universe, seed_labels)

        def check(result):
            want = oracles.closure(u, seed_labels)
            return None if result == want else "closure in %s of %s" % (
                u.name, sorted(seed_labels))

        return Op("closure", run, check)

    def predicate_op(self, spec, rng):
        u = self.carrier(spec)
        ring = isinstance(u, FiniteRing)
        predicate = rng.choice(RING_PREDICATES if ring else MAGMA_PREDICATES)
        labels = frozenset(rng.sample(u.elements, rng.randint(1, min(4, len(u)))))
        if rng.random() < 0.5:
            labels = oracles.closure(u, labels)
        span = "subsets.check_predicate." + ("ring" if ring else "magma")

        def run(tr):
            with tr.span("io.load_structure"):
                universe = io.load_structure(spec)
            with tr.span(span):
                return subsets.check_predicate(universe, labels, predicate).ok

        def check(ok):
            want = oracles.holds(u, labels, predicate)
            return None if ok == want else "%s on %s: %s, want %s" % (
                predicate, u.name, ok, want)

        return Op("check_predicate", run, check)

    # -- hunts, the CLI's `hunt`: enumerate a population, then search it
    def hunt_op(self, spec, op_name):
        u = self.carrier(spec)
        predicate = default_predicate(u)
        loose = engine.result_predicate(predicate)

        def run(tr):
            with tr.span("io.load_structure"):
                universe = io.load_structure(spec)
            population = enumerate_traced(tr, universe, predicate, "auto")
            rng = random.Random("hunt:%s:%s" % (op_name, predicate))
            with tr.span("engine.run_remark_hunt") as sp:
                out = engine.run_remark_hunt(universe, op_name, loose, rng,
                                             population=population,
                                             exhaustive=True)
                sp.set(trials=out[2])
            return out

        def check(out):
            status, witness, _ = out
            want = self.cached(("hunt", key(spec), op_name),
                               lambda: self.hunt_expectation(spec, op_name))
            if status != want:
                return "hunt %s on %s: %s, want %s" % (op_name, u.name, status, want)
            if status == engine.STATUS_COUNTEREXAMPLE:
                value = frozenset(witness["result"])
                if value and oracles.holds(u, value, loose):
                    return "hunt witness %s on %s holds" % (sorted(value), u.name)
            return None

        return Op("hunt", run, check)

    def hunt_expectation(self, spec, op_name):
        u = self.carrier(spec)
        population = subsets.enumerate_subs(u, default_predicate(u), "generate")
        loose = engine.result_predicate(default_predicate(u))
        for a in population:
            for b in population:
                for value in oracles.soft_op(op_name, {"p1": a}, {"p1": b}).values():
                    if not oracles.holds(u, value, loose):
                        return engine.STATUS_COUNTEREXAMPLE
        return engine.STATUS_HOLDS

    # -- soft sets
    def soft_op(self, spec, rng):
        u = self.carrier(spec)
        population = self.populations[key(spec)]
        op_name = rng.choice(sorted(softsets.OPS))
        f = {"p1": rng.choice(population)}
        k = {"p1": rng.choice(population)}
        for extra, target in (("p2", f), ("p3", k), ("p2", k)):
            if rng.random() < 0.5:
                target[extra] = rng.choice(population)
        predicate = "loose-" + default_predicate(u)

        def run(tr):
            with tr.span("io.load_structure"):
                universe = io.load_structure(spec)
            with tr.span("softsets.op"):
                res = softsets.OPS[op_name](softsets.SoftSet(universe, f),
                                            softsets.SoftSet(universe, k))
            with tr.span("softsets.soft_is"):
                rep = softsets.soft_is(res, predicate)
            return dict(res.assign), rep.ok

        def check(out):
            values, ok = out
            want = oracles.soft_op(op_name, f, k)
            if values != want:
                return "%s on %s gives other assignments" % (op_name, u.name)
            want_ok = all(oracles.holds(u, v, predicate) for v in want.values())
            return None if ok == want_ok else "soft_is %s after %s on %s: %s" % (
                predicate, op_name, u.name, ok)

        return Op("soft", run, check)

    # -- collections
    def collection_op(self, comps, rng):
        spec = collection_spec(comps)
        parts = []
        for comp_spec, _, _ in comps:
            c = self.carrier(comp_spec)
            seed_labels = rng.sample(c.elements, rng.randint(1, 2))
            parts.append(oracles.closure(c, seed_labels) if rng.random() < 0.8
                         else frozenset(seed_labels))
        parts = tuple(parts)
        ideal = rng.random() < 0.5

        def run(tr):
            with tr.span("io.load_structure"):
                col = io.load_structure(spec)
            with tr.span("ncollect.check"):
                if ideal:
                    return ncollect.is_n_ideal(col, parts).ok
                return ncollect.is_n_sub(col, parts).ok

        def check(ok):
            want = oracles.has_neutro(set().union(*parts))
            for (comp_spec, _, _), part in zip(comps, parts):
                c = self.carrier(comp_spec)
                want = want and oracles.closed(c, part) and (
                    not ideal or oracles.absorbs(c, part))
            return None if ok == want else "collection %s: %s, want %s" % (
                "ideal" if ideal else "sub", ok, want)

        return Op("ncollect", run, check)

    def ring_law_op(self, n):
        def run(tr):
            with tr.span("scalars.ring_axiom_violations"):
                return scalars.ring_axiom_violations(n)

        def check(bad):
            return None if bad == [] else "Z%d+I ring laws: %r" % (n, bad[:3])

        return Op("ring_axioms", run, check)

    # -- the CLI command of this kind, on a seeded carrier
    def cli(self, workdir):
        spec = random.Random("structure-queries:cli:%d" % self.seed).choice(FEW_CLOSED)
        path = os.path.join(workdir, "structure.json")
        with open(path, "w") as fh:
            json.dump(spec, fh)
        count = len(subsets.enumerate_subs(self.carrier(spec), "subgroupoid"))
        return {"argv": ["enumerate", "--structure", path, "--predicate",
                         "subgroupoid"],
                "returncode": 0,
                "last_line": "-- %d subsets satisfy subgroupoid" % count}


def enumerate_traced(tr, universe, predicate, strategy):
    """enumerate_subs in a span named by its strategy; "auto" is left to the
    library and named by the carrier's size class."""
    variant = strategy
    if strategy == "auto":
        variant = "scan" if len(universe) <= subsets.SCAN_LIMIT else "generate"
    with tr.span("subsets.enumerate_subs." + variant) as sp:
        try:
            result = subsets.enumerate_subs(universe, predicate, strategy)
        except structures.ResourceCap:
            sp.set(failed=1, subsets=0)
            raise
        sp.set(failed=0, subsets=len(result))
    return result
