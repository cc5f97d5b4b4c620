"""verify-suite: every registered claim through `engine.run_claim`, one
suite pass per round, round r using claim seed `seed + r`.

Set-up calls every cached carrier and population builder in `claims`, so
a claim's latency does not depend on which claim ran first; that cost is
reported as set-up time and as the `claims.setup` span.
"""

from functools import partial

from neutrolab import claims, engine

from ops import Op

KIND = {
    engine.KIND_PROP: "prop",
    engine.KIND_REMARK: "remark",
    engine.KIND_EXAMPLE: "example",
    engine.KIND_CLASSIFICATION: "classification",
}

# the arguments the basis-span propositions pass to claims.span_population
SPAN_POPULATIONS = ("z2c4", "z2c3s")


def build_claim_inputs():
    """Fill every lru_cache'd builder in `claims`; returns the registry."""
    for fn in list(vars(claims).values()):
        if (hasattr(fn, "cache_info") and fn.__module__ == claims.__name__
                and fn.__wrapped__.__code__.co_argcount == 0):
            fn()
    for which in SPAN_POPULATIONS:
        claims.span_population(which)
    return claims.registry()


def _run(claim, seed, tracer):
    with tracer.span("engine.run_claim." + KIND[claim.kind]) as sp:
        report = engine.run_claim(claim, seed=seed)
        sp.set(trials=report.trials)
    return report


def _check(claim, report):
    if report.status != claim.expected:
        return "%s reported %s, registered %s" % (claim.id, report.status,
                                                 claim.expected)
    return None


class Workload:
    def __init__(self, seed):
        self.seed = seed

    def setup(self, tracer):
        with tracer.span("claims.setup"):
            self.registry = build_claim_inputs()

    def deck(self, rnd):
        seed = self.seed + rnd
        return [Op(KIND[c.kind], partial(_run, c, seed), partial(_check, c))
                for c in self.registry]

    def cli(self, workdir):
        return {"argv": ["verify", "--seed", str(self.seed), "--format", "json"],
                "returncode": 0, "json_reports": len(self.registry)}
