"""Acceptance suite: the eight gate criteria, one pass/fail line each.

Each criterion prints `criterion-N: PASS/FAIL — detail` and then asserts,
so a verbose run shows one line per criterion and a quiet run still fails
loudly on any regression.
"""

import json
import random

import pytest

from neutrolab.claims import registry
from neutrolab.cli import main
from neutrolab.engine import (
    STATUS_CONTRADICTS,
    STATUS_COUNTEREXAMPLE,
    STATUS_HOLDS,
    STATUS_VERIFIED,
    run_suite,
)
from neutrolab.groupring import GroupRing
from neutrolab.ncollect import MIXED_DUAL, classify_mixed
from neutrolab.scalars import ring_axiom_violations
from neutrolab.structures import cyclic_neutro_group, neutro_ring, param_groupoid
from neutrolab.subsets import WEAKLY_LAGRANGE, classify_lagrange, enumerate_subs

EXAMPLE_ROWS = [
    "example-1.1.3", "example-2.1.1", "example-2.1.2", "example-2.1.3",
    "example-2.1.4", "example-2.1.6", "example-2.1.7", "example-2.2.1",
    "example-2.3.1", "example-2.3.3", "example-3.1.4", "example-3.1.5",
    "example-3.1.7", "example-4.1.6", "example-4.1.8",
]
# rows whose recorded text is contradicted by computation; their
# pre-registered status is ExampleContradictsText (see each row's note)
PREREGISTERED_CONTRADICTIONS = {
    "example-2.3.1", "example-2.3.3", "example-3.1.7", "example-4.1.8",
    "example-4.1.11", "example-6.1.1",
}
PROP_ROWS = [
    "prop-2.1.1", "prop-2.1.2", "prop-2.1.3", "prop-2.2.2", "prop-2.3.2",
    "prop-3.1.1", "prop-3.1.2", "prop-3.1.3", "prop-3.1.4",
    "prop-4.1.1", "prop-5.1.1", "prop-6.1.1",
]
SAMPLED_PROP_ROWS = ["prop-2.3.2", "prop-6.1.1"]
HUNT_ROWS = [
    "remark-2.1.1", "remark-2.1.2", "remark-2.1.3",
    "remark-3.1.1", "remark-3.1.2", "remark-3.1.3",
    "remark-4.1.1-i1", "remark-6.1.1",
]


def _line(num, ok, detail):
    print("criterion-%d: %s — %s" % (num, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion-%d: %s" % (num, detail)


@pytest.fixture(scope="module")
def reg():
    return registry()


@pytest.fixture(scope="module")
def reports(reg):
    out, ok = run_suite(reg, None, seed=0)
    return {r.claim_id: r for r in out}


def test_criterion_1_example_reconstruction(reg, reports):
    expected = {c.id: c.expected for c in reg}
    bad = []
    for cid in EXAMPLE_ROWS + ["example-4.1.11", "example-6.1.1"]:
        r = reports[cid]
        want = (STATUS_CONTRADICTS if cid in PREREGISTERED_CONTRADICTIONS
                else STATUS_VERIFIED)
        if r.status != want or r.status != expected[cid]:
            bad.append("%s=%s" % (cid, r.status))
        if r.elapsed_ms >= 1000:
            bad.append("%s took %dms" % (cid, r.elapsed_ms))
    detail = ("17 example rows: %d verified, %d pre-registered contradictions, "
              "all < 1s" % (len(EXAMPLE_ROWS) - 4, 6))
    _line(1, not bad, detail if not bad else "; ".join(bad))


def test_criterion_2_scalar_ring_axioms():
    bad = {n: ring_axiom_violations(n) for n in range(2, 7)}
    bad = {n: v for n, v in bad.items() if v}
    _line(2, not bad,
          "0 axiom violations over all triples, moduli 2-6" if not bad
          else "violations: %r" % bad)


def test_criterion_3_group_ring_laws():
    gr = GroupRing(2, cyclic_neutro_group(4))
    els = list(gr.elements())
    problems = []
    if len(els) != 256:
        problems.append("expected 256 elements, saw %d" % len(els))

    def mask(x):
        m = 0
        for i, c in enumerate(x):
            m |= c << i
        return m

    by_mask = {mask(x): x for x in els}
    for x in els:
        if gr.add(gr.zero, x) != x or gr.add(x, gr.neg(x)) != gr.zero:
            problems.append("identity/inverse fails at %s" % gr.format(x))
            break
        mx = mask(x)
        for y in els:
            if gr.add(x, y) != by_mask[mx ^ mask(y)]:
                problems.append("add deviates at (%s, %s)"
                                % (gr.format(x), gr.format(y)))
                break
        else:
            continue
        break

    rng = random.Random(0)
    law_violations = 0
    for _ in range(100_000):
        x, y, z = rng.choice(els), rng.choice(els), rng.choice(els)
        if gr.mul(gr.mul(x, y), z) != gr.mul(x, gr.mul(y, z)):
            law_violations += 1
        if gr.mul(x, gr.add(y, z)) != gr.add(gr.mul(x, y), gr.mul(x, z)):
            law_violations += 1
        if gr.mul(gr.add(x, y), z) != gr.add(gr.mul(x, z), gr.mul(y, z)):
            law_violations += 1
    if law_violations:
        problems.append("%d associativity/distributivity violations"
                        % law_violations)
    _line(3, not problems,
          "additive group exhaustive on 256 elements; associativity and both "
          "distributive laws exact on 100000 seeded triples"
          if not problems else "; ".join(problems))


def test_criterion_4_closure_propositions(reports):
    bad = []
    for cid in PROP_ROWS:
        r = reports[cid]
        if r.status != STATUS_HOLDS:
            bad.append("%s=%s" % (cid, r.status))
    for cid in SAMPLED_PROP_ROWS:
        if reports[cid].trials < 10_000:
            bad.append("%s only %d trials" % (cid, reports[cid].trials))
    _line(4, not bad,
          "12 closure propositions hold with zero violations "
          "(sampled rows at >= 10000 trials)" if not bad else "; ".join(bad))


def test_criterion_5_counterexample_hunts(reports):
    bad = []
    for cid in HUNT_ROWS:
        r = reports[cid]
        if r.status != STATUS_COUNTEREXAMPLE:
            bad.append("%s=%s" % (cid, r.status))
            continue
        if r.trials > 10_000:
            bad.append("%s used %d trials" % (cid, r.trials))
        if r.elapsed_ms >= 5000:
            bad.append("%s took %dms" % (cid, r.elapsed_ms))
        if not r.witness:
            bad.append("%s has no replayable witness" % cid)
    w = reports["remark-2.1.1"].witness or {}
    if w.get("escapes") != "6+5I":
        bad.append("remark-2.1.1 escape is %r, wanted 6+5I" % w.get("escapes"))
    _line(5, not bad,
          "8 hunts found replayable counterexamples within budget 10000, "
          "< 5s each; the modulus-10 union escape is 6+5I"
          if not bad else "; ".join(bad))


def test_criterion_6_enumeration_oracle_equivalence():
    g = param_groupoid(4, 2, 1)
    r = neutro_ring(4)
    g_scan = enumerate_subs(g, "subgroupoid", strategy="scan")
    g_gen = enumerate_subs(g, "subgroupoid", strategy="generate")
    r_scan = enumerate_subs(r, "subring", strategy="scan")
    r_gen = enumerate_subs(r, "subring", strategy="generate")
    ok = g_scan == g_gen and r_scan == r_gen
    _line(6, ok,
          "scan and generate agree: %d subgroupoids on the 16-element "
          "groupoid, %d subrings on the 16-element ring"
          % (len(g_scan), len(r_scan)) if ok
          else "scan/generate disagree (groupoid %d vs %d, ring %d vs %d)"
          % (len(g_scan), len(g_gen), len(r_scan), len(r_gen)))


def test_criterion_7_classification():
    lag = classify_lagrange(param_groupoid(4, 2, 1))
    p4 = frozenset({"0", "2", "2I", "2+2I"})
    p3 = frozenset({"0", "2I", "2+2I"})
    bad = []
    if lag.verdict != WEAKLY_LAGRANGE:
        bad.append("divisibility verdict %s" % lag.verdict)
    if p4 not in lag.dividing:
        bad.append("order-4 evidence subset missing from the dividing list")
    if p3 not in lag.non_dividing:
        bad.append("order-3 evidence subset missing from the non-dividing list")
    from neutrolab.claims import carrier
    if classify_mixed(carrier("dual5")) != MIXED_DUAL:
        bad.append("dual 5-structure classed %r" % classify_mixed(carrier("dual5")))
    _line(7, not bad,
          "WeaklyLagrange with both evidence subsets; dual 5-structure is "
          "MixedDual" if not bad else "; ".join(bad))


def test_criterion_8_determinism(capsys):
    runs = []
    for _ in range(2):
        assert main(["verify", "--seed", "0", "--format", "json"]) == 0
        runs.append(json.loads(capsys.readouterr().out))

    def strip(run):
        return [{k: v for k, v in row.items() if k != "elapsed_ms"}
                for row in run]

    ok = strip(runs[0]) == strip(runs[1])
    _line(8, ok,
          "two seed-0 json runs agree on every field except elapsed_ms"
          if ok else "seed-0 runs differ beyond elapsed_ms")
