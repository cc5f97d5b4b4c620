"""formal-sums: GroupRing tasks over bases of every kind, no enumeration.

One round is a deck of 62 tasks: 8 arithmetic batches, 6 ring-law triple
batches, 10 span and subset predicates, 14 generated ideals and 24 codec
round trips, so conversions and ideal construction outnumber predicate
sweeps. Every deck holds the known defects: two generated ideals that pass
the 4096-element cap (over Z6<C4+I> and Z3<S3+I>) and two format/parse
round trips over Z2<groupoid(3;1,1)>, whose labels contain digits and `+`.
Inputs are built through `monomial` and `add`, so they do not depend on how
an element is encoded.
"""

import json
import math
import os
import random

from neutrolab import io, subsets
from neutrolab.softsets import SoftSet

import oracles
from ops import Op

C2, C3, C4 = ({"kind": "cyclic_neutro_group", "m": m} for m in (2, 3, 4))
C3S = {"kind": "cyclic_neutro_group", "m": 3, "semigroup": True}
S3 = {"kind": "sym_group", "k": 3}
S3I = {"kind": "neutro_double", "base": S3}
M3D = {"kind": "neutro_double", "base": {"kind": "mult_magma", "n": 3,
                                         "neutro": False}}
G211 = {"kind": "param_groupoid", "n": 2, "t": 1, "u": 1}
G311 = {"kind": "param_groupoid", "n": 3, "t": 1, "u": 1}


def GR(r, basis):
    return {"kind": "group_ring", "r": r, "basis": basis}


ARITH = [GR(2, C4), GR(3, C3), GR(6, C2), GR(2, S3), GR(3, S3I), GR(2, C3S),
         GR(6, G211), GR(2, G311), GR(5, C4), GR(2, M3D)]
# rings whose ideals stay at 81 elements or fewer
IDEAL = [GR(2, C2), GR(2, C3), GR(2, C3S), GR(2, S3), GR(3, C2), GR(2, G211),
         GR(3, G211), GR(2, M3D)]
OVER_CAP_IDEAL = [GR(6, C4), GR(3, S3I)]
# bases whose labels survive format/parse
CODEC = [GR(2, C4), GR(3, C3), GR(6, C2), GR(2, S3), GR(3, S3I), GR(2, C3S),
         GR(5, C4)]
CODEC_DEFECT = GR(2, G311)
SPAN = [GR(2, C4), GR(2, S3I), GR(3, C3), GR(6, C2), GR(2, C3S), GR(3, S3)]
SPAN_LIMIT = 64

ARITH_BATCH = 40
TRIPLE_BATCH = 15
CODEC_BATCH = 30


def key(spec):
    return json.dumps(spec, sort_keys=True)


class Ring:
    """A GroupRing with its dense reference and basis facts."""

    def __init__(self, spec, gr):
        self.spec = spec
        self.gr = gr
        self.dense = oracles.Dense(gr)
        self.associative = oracles.magma_kind(gr.basis)[0]

    def vector(self, rng, density=0.5):
        return tuple(rng.randrange(1, self.gr.r) if rng.random() < density else 0
                     for _ in self.dense.labels)

    def sample(self, rng, density=0.5):
        vec = self.vector(rng, density)
        return vec, self.dense.element(vec)

    def span(self, labels):
        """Every vector supported on the given basis labels."""
        out = [tuple(0 for _ in self.dense.labels)]
        for lab in labels:
            i = self.dense.labels.index(lab)
            out = [v[:i] + (c,) + v[i + 1:] for v in out for c in range(self.gr.r)]
        return out


class Workload:
    def __init__(self, seed):
        self.seed = seed
        self.cached = oracles.Memo()

    def setup(self, tracer):
        specs = ARITH + IDEAL + CODEC + SPAN + OVER_CAP_IDEAL
        self.rings = {}
        for spec in specs:
            if key(spec) not in self.rings:
                self.rings[key(spec)] = Ring(spec, io.load_structure(spec))

    def ring(self, spec):
        return self.rings[key(spec)]

    def deck(self, rnd):
        rng = random.Random("formal-sums:%d:%d" % (self.seed, rnd))
        pick = rng.choice
        ops = [self.arith_op(self.ring(pick(ARITH)), rng) for _ in range(8)]
        ops += [self.triple_op(self.ring(pick(ARITH)), rng) for _ in range(6)]
        ops += [self.span_op(self.ring(spec), rng) for spec in SPAN]
        ops += [self.subset_op(self.ring(pick(ARITH)), rng) for _ in range(4)]
        ops += [self.ideal_op(self.ring(spec), rng) for spec in IDEAL + IDEAL[:4]]
        ops += [self.capped_ideal_op(self.ring(spec), rng)
                for spec in OVER_CAP_IDEAL]
        ops += [self.codec_op(self.ring(pick(CODEC)), rng) for _ in range(14)]
        ops += [self.codec_op(self.ring(CODEC_DEFECT), rng, defect="wrong-answer")
                for _ in range(2)]
        ops += [self.soft_op(self.ring(pick(CODEC)), rng) for _ in range(8)]
        rng.shuffle(ops)
        return ops

    # -- arithmetic and ring laws
    def arith_op(self, ring, rng):
        pairs = [(ring.sample(rng), ring.sample(rng)) for _ in range(ARITH_BATCH)]
        gr, dense = ring.gr, ring.dense

        def run(tr):
            with tr.span("groupring.mul") as sp:
                muls = [gr.mul(a, b) for (_, a), (_, b) in pairs]
                sp.set(calls=len(pairs))
            with tr.span("groupring.add") as sp:
                adds = [gr.add(a, b) for (_, a), (_, b) in pairs]
                sp.set(calls=len(pairs))
            with tr.span("groupring.sub") as sp:
                subs = [gr.sub(a, b) for (_, a), (_, b) in pairs]
                sp.set(calls=len(pairs))
            return muls, adds, subs

        def check(out):
            for name, got in zip(("mul", "add", "sub"), out):
                ref = getattr(dense, name)
                for ((va, _), (vb, _)), g in zip(pairs, got):
                    if g != dense.element(ref(va, vb)):
                        return "%s over %s differs from the reference" % (name, gr.name)
            return None

        return Op("arith", run, check)

    def triple_op(self, ring, rng):
        triples = [tuple(ring.sample(rng)[1] for _ in range(3))
                   for _ in range(TRIPLE_BATCH)]
        gr = ring.gr

        def run(tr):
            out = []
            with tr.span("groupring.triples") as sp:
                for a, b, c in triples:
                    out.append((gr.mul(gr.mul(a, b), c), gr.mul(a, gr.mul(b, c)),
                                gr.mul(a, gr.add(b, c)),
                                gr.add(gr.mul(a, b), gr.mul(a, c)),
                                gr.mul(gr.add(a, b), c),
                                gr.add(gr.mul(a, c), gr.mul(b, c))))
                sp.set(calls=len(triples))
            return out

        def check(out):
            for ab_c, a_bc, left, left2, right, right2 in out:
                if left != left2 or right != right2:
                    return "distributivity fails over %s" % gr.name
                if ring.associative and ab_c != a_bc:
                    return "associativity fails over %s" % gr.name
            return None

        return Op("triples", run, check)

    # -- predicates on spans of basis subsets and on seeded subsets
    def span_op(self, ring, rng):
        gr, dense = ring.gr, ring.dense
        most = 1
        while gr.r ** (most + 1) <= SPAN_LIMIT and most < len(dense.labels):
            most += 1
        labels = rng.sample(dense.labels, rng.randint(1, most))
        if rng.random() < 0.5:
            labels = sorted(oracles.closure(gr.basis, labels), key=gr.basis.idx)
            labels = labels[:most]
        vecs = ring.span(labels)
        subset = [dense.element(v) for v in vecs]
        predicate = rng.choice(("subring", "ideal", "subneutro", "loose-subneutro"))
        return self.gr_predicate_op(ring, predicate, subset, vecs, labels)

    def subset_op(self, ring, rng):
        vecs = [tuple(0 for _ in ring.dense.labels)]
        vecs += [ring.vector(rng) for _ in range(rng.randint(5, 9))]
        subset = [ring.dense.element(v) for v in vecs]
        predicate = rng.choice(("subring", "ideal"))
        return self.gr_predicate_op(ring, predicate, subset, vecs, None)

    def gr_predicate_op(self, ring, predicate, subset, vecs, span_labels):
        gr = ring.gr

        def run(tr):
            with tr.span("subsets.gr_predicate"):
                if predicate == "subring":
                    return subsets.gr_is_subring(gr, subset).ok
                if predicate == "ideal":
                    return subsets.gr_is_ideal(gr, subset).ok
                return subsets.gr_is_subneutro(
                    gr, subset, strict=predicate == "subneutro").ok

        def expected():
            if predicate == "subring":
                return ring.dense.subring(vecs)
            if predicate == "ideal":
                return ring.dense.ideal(vecs)
            # a full-coefficient span is a grid substructure exactly when its
            # basis labels are closed
            return oracles.closed(gr.basis, span_labels) and (
                predicate == "loose-subneutro" or oracles.has_neutro(span_labels))

        def check(ok):
            # spans recur across decks, seeded subsets do not
            want = expected() if span_labels is None else self.cached(
                (key(ring.spec), predicate, tuple(span_labels)), expected)
            return None if ok == want else "gr %s over %s: %s, want %s" % (
                predicate, gr.name, ok, want)

        return Op("gr_predicate", run, check)

    # -- generated ideals
    def ideal_op(self, ring, rng, gens=None, defect=None):
        gr = ring.gr
        if gens is None:
            gens = [ring.sample(rng, density=0.4)[1]
                    for _ in range(rng.randint(1, 2))]

        def run(tr):
            with tr.span("groupring.generated_ideal") as sp:
                try:
                    return gr.generated_ideal(gens)
                except Exception:
                    sp.set(failed=1)
                    raise

        def check(ideal):
            if any(g not in ideal for g in gens):
                return "ideal over %s misses a generator" % gr.name
            ok = self.cached((key(ring.spec), ideal),
                             lambda: subsets.gr_is_ideal(gr, ideal).ok)
            return None if ok else "generated ideal over %s is not an ideal" % gr.name

        return Op("generated_ideal", run, check, defect)

    def capped_ideal_op(self, ring, rng):
        """A generator with a unit coefficient on a plain basis element
        generates the whole ring, which is larger than the 4096 cap."""
        gr = ring.gr
        plain = [x for x in gr.basis.elements if not oracles.has_neutro([x])]
        gen = gr.monomial(rng.choice(plain), rng.choice(
            [c for c in range(1, gr.r) if math.gcd(c, gr.r) == 1]))
        return self.ideal_op(ring, rng, gens=[gen], defect="ResourceCap")

    # -- codec
    def codec_op(self, ring, rng, defect=None):
        gr = ring.gr
        xs = [ring.sample(rng)[1] for _ in range(CODEC_BATCH)]

        def run(tr):
            back = []
            with tr.span("groupring.codec") as sp:
                for x in xs:
                    try:
                        back.append(gr.parse(gr.format(x)))
                    except ValueError:
                        back.append(None)
                sp.set(calls=len(xs), failed=sum(1 for x, y in zip(xs, back)
                                                 if x != y))
            return back

        def check(back):
            bad = sum(1 for x, y in zip(xs, back) if x != y)
            return None if not bad else "%d of %d format/parse round trips over " \
                "%s differ" % (bad, len(xs), gr.name)

        return Op("codec", run, check, defect)

    def soft_op(self, ring, rng):
        gr = ring.gr
        assign = {"p%d" % i: frozenset(ring.sample(rng)[1]
                                       for _ in range(rng.randint(2, 6)))
                  for i in range(1, rng.randint(2, 4))}

        def run(tr):
            with tr.span("io.soft_roundtrip"):
                soft = SoftSet(gr, assign)
                return io.load_soft(io.soft_to_dict(soft), universe=gr).assign

        def check(back):
            return None if back == assign else "soft-set round trip over %s " \
                "changes assignments" % gr.name

        return Op("codec", run, check)

    # -- the CLI command of this kind: soft-check on spans of closed bases
    def cli(self, workdir):
        rng = random.Random("formal-sums:cli:%d" % self.seed)
        ring = self.ring(GR(2, C4))
        gr = ring.gr
        closed = [s for s in subsets.enumerate_subs(gr.basis, "loose-subgroupoid")
                  if len(s) <= 6]
        assign = {}
        for i in range(3):
            labels = sorted(rng.choice(closed), key=gr.basis.idx)
            assign["a%d" % (i + 1)] = sorted(
                gr.format(ring.dense.element(v)) for v in ring.span(labels))
        path = os.path.join(workdir, "soft.json")
        with open(path, "w") as fh:
            json.dump({"universe": ring.spec, "assign": assign}, fh)
        return {"argv": ["soft-check", "--file", path, "--predicate",
                         "loose-gr-subring"],
                "returncode": 0,
                "last_line": "holds: every assignment satisfies loose-gr-subring"}

