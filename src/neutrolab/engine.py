"""Deterministic claim harness.

A Claim names its carrier builder, a generator, and an expected status;
run_claim builds the carrier, then times the runner over it with a
per-claim seeded RNG so a whole suite is reproducible.
Closure rows succeed by finding no violation across the generated
population; non-closure rows succeed by finding (and replaying) a witness.
"""

import fnmatch
import json
import random
import re
import time
from functools import cache
from itertools import product

from .io import json_plain, load_soft, soft_to_dict
from .softsets import N_PREDICATES, OPS, SoftSet, Uncombinable, op_items, value_kind
from .structures import ResourceCap, _Record
from .subsets import PREDICATES

STATUS_HOLDS = "Holds"
STATUS_COUNTEREXAMPLE = "CounterexampleFound"
STATUS_VERIFIED = "ExampleVerified"
STATUS_CONTRADICTS = "ExampleContradictsText"
STATUS_SKIPPED_RESOURCE = "Skipped(resource)"
STATUS_SKIPPED_BUDGET = "Skipped(budget)"

KIND_PROP = "ClosureProposition"
KIND_REMARK = "NonClosureRemark"
KIND_EXAMPLE = "ExampleCheck"
KIND_CLASSIFICATION = "Classification"

DEFAULT_BUDGET = 10_000
SPOT_PAIRS = 400

INTERSECTION_OPS = ("extended-intersection", "restricted-intersection", "and")


def result_predicate(name):
    """The closure-only form of a predicate, where one is defined: population
    members satisfy the strict form, and the values a soft operation forms
    from them only need the closure-only one."""
    loose = "loose-" + name
    return loose if loose in PREDICATES or loose in N_PREDICATES else name


class Claim(_Record):
    """A registered claim: `carrier()` builds the structure it is about, and
    `runner(carrier, rng)` returns (status, witness, trials)."""
    __slots__ = ("id", "kind", "carrier", "generator", "expected", "runner", "note")

    def __init__(self, id, kind, carrier, generator, expected, runner, note=""):
        self.id = id
        self.kind = kind
        self.carrier = carrier
        self.generator = generator
        self.expected = expected
        self.runner = runner
        self.note = note

    @property
    def universe(self):
        return self.carrier().name


class Report(_Record):
    __slots__ = ("claim_id", "status", "witness", "universe", "trials", "elapsed_ms")

    def __init__(self, claim_id, status, witness, universe, trials, elapsed_ms):
        self.claim_id = claim_id
        self.status = status
        self.witness = witness
        self.universe = universe
        self.trials = trials
        self.elapsed_ms = elapsed_ms

    def to_dict(self):
        """The fields by name, in order; run_claim stores a plain witness."""
        return {f: getattr(self, f) for f in self.__slots__}


def run_claim(claim, seed=0):
    """The claim's report; the carrier is built before the clock starts, so
    `elapsed_ms` is the runner's own work."""
    rng = random.Random("%s:%s" % (seed, claim.id))
    universe = claim.carrier()
    t0 = time.perf_counter()
    try:
        status, witness, trials = claim.runner(universe, rng)
    except ResourceCap as cap:
        status, witness, trials = STATUS_SKIPPED_RESOURCE, {"cap": str(cap)}, 0
    elapsed_ms = int((time.perf_counter() - t0) * 1000)
    return Report(claim.id, status, json_plain(witness), universe.name, trials, elapsed_ms)


# ---------------------------------------------------------------------------
# assignment-level evaluation shared by closure and non-closure rows


def _remark_violation(universe, predicate):
    """For a hunt, any failure counts: the failing verdict of a value, or
    None, as a function of the value.  The kind decides it, so an empty
    value fails flagged (`empty-assignment`, `empty-part`) and a value the
    predicate refuses fails with the refusal as its note (as in soft_is)."""
    decide = value_kind(universe).decide(universe, predicate)

    def violation(value):
        v = decide(value)
        return None if v.ok else v
    return violation


def _closure_failure(universe, predicate):
    """_remark_violation, with an empty value (an empty assignment, or an
    empty part of a collection assignment) vacuous rather than failing: it
    has no members to witness anything."""
    empty = value_kind(universe).empty
    violation = _remark_violation(universe, predicate)
    return lambda value: None if empty(value) else violation(value)


def _op_trial(op_name, f, k, fails, kind):
    """Run the operation on two assignment maps of frozen values of `kind`
    and decide each result value as one trial. Returns the trial count and
    the first failure, (param, value, verdict), or None."""
    items = op_items(op_name, f, k, kind)
    for n, (p, value) in enumerate(items, 1):
        v = fails(value)
        if v is not None:
            return n, (p, value, v)
    return len(items), None


def _soft_dump(universe, assign):
    """An operand of a trial, as a soft-set file's dict."""
    return soft_to_dict(SoftSet._of_frozen(universe, assign))


def _fail_witness(witness_kind, v, **extra):
    out = {"kind": witness_kind, "reason": v.note or "predicate failed"}
    if v.witness is not None:
        out["witness"] = json_plain(v.witness)
    if v.flags:
        out["flags"] = list(v.flags)
    for key, val in extra.items():
        out[key] = json_plain(val)
    return out


# ---------------------------------------------------------------------------
# closure propositions


def run_closure_prop(universe, population, predicate, rng, ops=INTERSECTION_OPS,
                     spot=SPOT_PAIRS):
    """Exhaustive pairwise sweep over a population of assignment values,
    then a seeded spot-check of `spot` pairs of soft sets that routes their
    values through the real soft-set operations `ops`, in turn. Returns
    (status, witness, trials).

    The spot sweep memoises the kind's meet and join, which is sound because
    values are frozen and both are pure: a pair of members shares one
    result object, which `fails` finds in its cache by identity."""
    kind = value_kind(universe)
    population = [kind.freeze(universe, v) for v in population]
    fails = cache(_closure_failure(universe, predicate))
    for val in population:
        v = fails(val)
        if v is not None:
            raise RuntimeError(
                "population member fails its own predicate (%s): %s"
                % (predicate, v.note))
    trials = len(population)
    for a in population:
        for b in population:
            trials += 1
            v = fails(kind.meet(a, b))
            if v is not None:
                return (STATUS_COUNTEREXAMPLE,
                        _fail_witness("pair-intersection", v,
                                      lhs=kind.dump(universe, a),
                                      rhs=kind.dump(universe, b)),
                        trials)
    memo = kind._replace(meet=cache(kind.meet), join=cache(kind.join))
    choice, coin = rng.choice, rng.random
    checked = 0
    for _ in range(spot if population else 0):
        f = {"p1": choice(population)}
        if coin() < 0.5:
            f["p2"] = choice(population)
        k = {"p1": choice(population)}
        if coin() < 0.5:
            k["p3"] = choice(population)
        op_name = ops[checked % len(ops)] if ops else "restricted-intersection"
        n, failure = _op_trial(op_name, f, k, fails, memo)
        checked += n
        if failure is not None:
            p, _, v = failure
            return (STATUS_COUNTEREXAMPLE,
                    _fail_witness("soft-op", v, op=op_name, param=p,
                                  lhs=_soft_dump(universe, f),
                                  rhs=_soft_dump(universe, k)),
                    trials + checked)
    return STATUS_HOLDS, None, trials + checked


# ---------------------------------------------------------------------------
# non-closure remarks (counterexample hunts)


def _replay_witness(universe, op_name, predicate, witness):
    """Round-trip the serialized soft sets and re-run the violated predicate
    over the universe they name (`universe` when they name none); the same
    assignment must fail again."""
    f = load_soft(witness["lhs"], universe=universe)
    k = load_soft(witness["rhs"], universe=universe)
    res = OPS[op_name](f, k)
    param = witness["param"]
    if param not in res.params:
        return False
    return _remark_violation(res.universe, predicate)(res.value(param)) is not None


def run_remark_hunt(universe, op_name, predicate, rng=None, pinned=None,
                    population=None, budget=DEFAULT_BUDGET, exhaustive=False,
                    pin_check=None):
    """Two-phase hunt: the pinned pair of assignment maps, then every
    ordered pair of population members, smallest first, until `budget`
    trials are spent. A trial decides one value of op(f, k). A found
    witness is replayed from its serialization before being reported.
    A spent budget is an honest skip; a complete sweep reports Holds only
    when `exhaustive` says the population is every candidate.

    The soft operations act parameter by parameter through the meet or
    join of two values, so every value they form from the population is a
    member, or the meet or join of two members: the sweep decides all of
    them, and no random pairs are drawn (`rng` is accepted and unused).

    Each distinct value is decided once per hunt; the replay decides the
    witness's value again, from its serialization.

    pin_check(universe, value) may decorate the pinned phase's witness with
    an independently recomputed gap (a specific escaping element); it never
    decides the status by itself — the predicate must genuinely fail.

    A misspelled predicate name raises ValueError up front: inside the hunt
    a value the predicate refuses counts as a violation (a `lagrange` value
    that is not a strict subgroupoid).  A pair the operation cannot combine
    (softsets.Uncombinable: no shared parameter, a crossed-name clash)
    makes no trial; any other ValueError, such as a value naming no member,
    propagates as it does from run_closure_prop."""
    kind = value_kind(universe)
    fails = cache(_remark_violation(universe, predicate))
    trials = 0

    def hunt(f, k, check=None):
        """Trial op(f, k): its replayed witness, or None."""
        nonlocal trials
        try:
            n, failure = _op_trial(op_name, f, k, fails, kind)
        except Uncombinable:
            return None
        trials += n
        if failure is None:
            return None
        p, value, v = failure
        witness = _fail_witness("union-violation", v, op=op_name, param=p,
                                lhs=_soft_dump(universe, f),
                                rhs=_soft_dump(universe, k),
                                result=kind.dump(universe, value))
        gap = check(universe, value) if check is not None else None
        if gap:
            witness.update(json_plain(gap))
        if not _replay_witness(universe, op_name, predicate, witness):
            raise RuntimeError("hunt witness failed to replay")
        return witness

    if pinned is not None:
        witness = hunt(SoftSet(universe, pinned[0]).assign,
                       SoftSet(universe, pinned[1]).assign, pin_check)
        if witness is not None:
            return STATUS_COUNTEREXAMPLE, witness, trials

    ordered = sorted((kind.freeze(universe, v) for v in population or ()),
                     key=lambda v: (kind.size(v), repr(kind.dump(universe, v))))
    for a, b in product(ordered, repeat=2):
        if trials >= budget:
            return STATUS_SKIPPED_BUDGET, {"budget": budget}, trials
        witness = hunt({"p1": a}, {"p1": b})
        if witness is not None:
            return STATUS_COUNTEREXAMPLE, witness, trials
    if exhaustive and ordered:
        return STATUS_HOLDS, None, trials
    return STATUS_SKIPPED_BUDGET, {"budget": budget}, trials


# ---------------------------------------------------------------------------
# suite orchestration


def _claim_chapter(claim_id):
    m = re.search(r"(\d+)", claim_id)
    return int(m.group(1)) if m else -1


def claim_matches(pattern, claim):
    if pattern is None or pattern == "":
        return True
    m = re.fullmatch(r"ch(\d+)", pattern)
    if m:
        return _claim_chapter(claim.id) == int(m.group(1))
    if pattern == claim.id:
        return True
    return fnmatch.fnmatchcase(claim.id, pattern)


def run_suite(registry, filter_pat=None, seed=0):
    """Run matching claims in registry order.

    Returns (reports, ok) where ok is True iff every claim reported its
    expected status."""
    selected = [c for c in registry if claim_matches(filter_pat, c)]
    if not selected:
        raise ValueError("filter %r matches no registered claim" % filter_pat)
    reports, ok = [], True
    for claim in selected:
        report = run_claim(claim, seed=seed)
        reports.append(report)
        if report.status != claim.expected:
            ok = False
    return reports, ok


def emit(reports, fmt="text", registry=None):
    if fmt == "json":
        return json.dumps([r.to_dict() for r in reports], indent=2)
    expected = {c.id: c.expected for c in registry or []}
    lines = []
    counts = {}
    for r in reports:
        counts[r.status] = counts.get(r.status, 0) + 1
        marker = ""
        if r.claim_id in expected:
            marker = "ok" if r.status == expected[r.claim_id] else "UNEXPECTED"
        lines.append("%-22s %-26s %-10s trials=%-7d %dms"
                     % (r.claim_id, r.status, marker, r.trials, r.elapsed_ms))
    summary = ", ".join("%s=%d" % (k, v) for k, v in sorted(counts.items()))
    lines.append("-- %d claims: %s" % (len(reports), summary))
    return "\n".join(lines)
