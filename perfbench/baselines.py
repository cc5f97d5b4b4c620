"""Fixed probes for the six baseline rows of ROADMAP.md, run after the
traced rounds of every workload so each traced run reports them:

| ROADMAP row                              | span (metric prefix)                       |
|------------------------------------------|--------------------------------------------|
| GroupRing Z2<C4+I> mul, add (6.9, 3.6 us)| groupring.{mul,add}.z2c4 (.us_per_call)    |
| enumerate g421 scan / generate (228/17ms)| subsets.enumerate_subs.g421-{scan,generate}|
| enumerate groupoid(8;3,2) generate (3.8s)| subsets.enumerate_subs.g832-generate       |
| neutro_ring(6) build + validate (24 ms)  | structures.neutro_ring.z6                  |
| prop-4.1.1 (about 0.8 s)                 | engine.run_claim.prop-4.1.1                |
"""

import random

from neutrolab import claims, engine, groupring, structures, subsets

import oracles

PAIRS = 200
REPEATS = 10


def run(tracer):
    gr = groupring.GroupRing(2, structures.cyclic_neutro_group(4))
    dense = oracles.Dense(gr)
    rng = random.Random("baseline:z2c4")
    pairs = [tuple(dense.element(tuple(rng.randrange(2) for _ in dense.labels))
                   for _ in range(2)) for _ in range(PAIRS)]
    for name in ("mul", "add"):
        fn = getattr(gr, name)
        for _ in range(REPEATS):
            with tracer.span("groupring.%s.z2c4" % name) as sp:
                for a, b in pairs:
                    fn(a, b)
                sp.set(calls=len(pairs))

    g421 = structures.param_groupoid(4, 2, 1)
    for strategy in ("scan", "generate"):
        with tracer.span("subsets.enumerate_subs.g421-" + strategy):
            subsets.enumerate_subs(g421, "subgroupoid", strategy)
    g832 = structures.param_groupoid(8, 3, 2)
    with tracer.span("subsets.enumerate_subs.g832-generate"):
        subsets.enumerate_subs(g832, "subgroupoid", "generate")

    with tracer.span("structures.neutro_ring.z6"):
        structures.neutro_ring(6)

    claim = claims.claim_by_id("prop-4.1.1")
    claims.span_population("z2c4")
    with tracer.span("engine.run_claim.prop-4.1.1"):
        engine.run_claim(claim)
