"""Deterministic claim harness.

A Claim names a structure, a generator, and an expected status; run_claim
executes it with a per-claim seeded RNG so a whole suite is reproducible.
Closure rows succeed by finding no violation across the generated
population; non-closure rows succeed by finding (and replaying) a witness.
"""

import fnmatch
import json
import random
import re
import time
from dataclasses import dataclass

from .io import _dump_value, json_plain, load_soft, soft_to_dict
from .softsets import (
    OPS,
    SoftSet,
    _value_verdict,
    check_predicate_name,
    value_intersect,
    value_is_empty,
)
from .structures import ResourceCap
from .subsets import Verdict

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

# assignment verdicts carrying these flags are vacuous rather than failing:
# an empty assignment (or an empty part of a collection assignment) has no
# members to witness anything, so closure rows skip it.
DEGENERATE_FLAGS = ("empty-assignment", "empty-part")

INTERSECTION_OPS = ("extended-intersection", "restricted-intersection", "and")

# Population members satisfy the strict form of a predicate; combined values
# produced by a soft operation only need the closure-only form.
LOOSE_RESULT = {
    "subgroupoid": "loose-subgroupoid",
    "ideal": "loose-ideal",
    "subring": "loose-subring",
    "ring-ideal": "loose-ring-ideal",
    "gr-subring": "loose-gr-subring",
    "gr-subneutro": "loose-gr-subneutro",
    "n-sub": "loose-n-sub",
    "n-ideal": "loose-n-ideal",
}


def result_predicate(name):
    return LOOSE_RESULT.get(name, name)


@dataclass
class Claim:
    id: str
    kind: str
    universe: str
    generator: str
    expected: str
    runner: object  # rng -> (status, witness, trials)
    note: str = ""


@dataclass
class Report:
    claim_id: str
    status: str
    witness: object
    universe: str
    trials: int
    elapsed_ms: int

    def to_dict(self):
        return {
            "claim_id": self.claim_id,
            "status": self.status,
            "witness": json_plain(self.witness),
            "universe": self.universe,
            "trials": self.trials,
            "elapsed_ms": self.elapsed_ms,
        }


def run_claim(claim, seed=0):
    rng = random.Random("%s:%s" % (seed, claim.id))
    t0 = time.perf_counter()
    try:
        status, witness, trials = claim.runner(rng)
    except ResourceCap as cap:
        status, witness, trials = STATUS_SKIPPED_RESOURCE, {"cap": str(cap)}, 0
    elapsed_ms = int((time.perf_counter() - t0) * 1000)
    return Report(claim.id, status, json_plain(witness), claim.universe, trials, elapsed_ms)


# ---------------------------------------------------------------------------
# assignment-level evaluation shared by closure and non-closure rows


def _assignment_state(universe, value, predicate):
    """('ok'|'skip'|'fail', Verdict) for one assignment value."""
    v = _value_verdict(universe, value, predicate)
    if not v.ok and any(f in v.flags for f in DEGENERATE_FLAGS):
        return "skip", v
    return ("ok" if v.ok else "fail"), v


def _value_plain(universe, value):
    try:
        return _dump_value(universe, value)
    except Exception:
        return json_plain(value)


def _fail_witness(universe, kind, v, **extra):
    out = {"kind": kind, "reason": v.note or "predicate failed"}
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
    then a seeded spot-check that routes pairs through the real soft-set
    operations. Returns (status, witness, trials)."""
    population = list(population)
    trials = 0
    cache = {}

    def state_of(value):
        if value not in cache:
            cache[value] = _assignment_state(universe, value, predicate)
        return cache[value]

    for val in population:
        trials += 1
        state, v = state_of(val)
        if state == "fail":
            raise RuntimeError(
                "population member fails its own predicate (%s): %s"
                % (predicate, v.note))
    for a in population:
        for b in population:
            trials += 1
            state, v = state_of(value_intersect(a, b))
            if state == "fail":
                return (STATUS_COUNTEREXAMPLE,
                        _fail_witness(universe, "pair-intersection", v,
                                      lhs=_value_plain(universe, a),
                                      rhs=_value_plain(universe, b)),
                        trials)
    checked, witness = _soft_spot_sweep(universe, population, predicate, ops,
                                        rng, spot, state_of)
    trials += checked
    if witness is not None:
        return STATUS_COUNTEREXAMPLE, witness, trials
    return STATUS_HOLDS, None, trials


def _soft_spot_sweep(universe, population, predicate, ops, rng, pairs, state_of):
    if not population:
        return 0, None
    checked = 0
    for _ in range(pairs):
        f_assign = {"p1": rng.choice(population)}
        if rng.random() < 0.5:
            f_assign["p2"] = rng.choice(population)
        k_assign = {"p1": rng.choice(population)}
        if rng.random() < 0.5:
            k_assign["p3"] = rng.choice(population)
        f, k = SoftSet(universe, f_assign), SoftSet(universe, k_assign)
        op_name = ops[checked % len(ops)] if ops else "restricted-intersection"
        res = OPS[op_name](f, k)
        for p in res.params:
            checked += 1
            state, v = state_of(res.value(p))
            if state == "fail":
                return checked, _fail_witness(
                    universe, "soft-op", v, op=op_name, param=p,
                    lhs=soft_to_dict(f), rhs=soft_to_dict(k))
    return checked, None


# ---------------------------------------------------------------------------
# non-closure remarks (counterexample hunts)


def _remark_violation(universe, value, predicate):
    """For a hunt, any failure counts — including degenerate collapses,
    which are flagged so reports show how the witness fails."""
    if value_is_empty(value):
        return Verdict(False, flags=("empty-assignment",),
                       note="operation produced an empty assignment")
    try:
        v = _value_verdict(universe, value, predicate)
    except ValueError as exc:
        return Verdict(False, note=str(exc))
    return None if v.ok else v


def _hunt_pair(universe, op_name, verdicts, f_assign, k_assign, counter,
               pin_check=None):
    """Trial each assignment of op(f, k); `verdicts(value)` is the hunt's
    _remark_violation for a value."""
    f = SoftSet(universe, f_assign)
    k = SoftSet(universe, k_assign)
    try:
        res = OPS[op_name](f, k)
    except ValueError:
        return None
    for p in res.params:
        counter[0] += 1
        value = res.value(p)
        v = verdicts(value)
        if v is not None:
            witness = _fail_witness(universe, "union-violation", v,
                                    op=op_name, param=p,
                                    lhs=soft_to_dict(f), rhs=soft_to_dict(k),
                                    result=_value_plain(universe, value))
            if pin_check is not None:
                pinned = pin_check(universe, value)
                if pinned:
                    witness.update(json_plain(pinned))
            return witness
    return None


def _replay_witness(universe, op_name, predicate, witness):
    """Round-trip the serialized soft sets and re-run the violated predicate;
    the same assignment must fail again."""
    f = load_soft(witness["lhs"], universe=universe)
    k = load_soft(witness["rhs"], universe=universe)
    res = OPS[op_name](f, k)
    param = witness["param"]
    if param not in res.params:
        return False
    return _remark_violation(universe, res.value(param), predicate) is not None


def run_remark_hunt(universe, op_name, predicate, rng, pinned=None,
                    population=None, budget=DEFAULT_BUDGET, exhaustive=False,
                    pin_check=None):
    """Three-phase hunt: pinned seed pair, structured small-first pairs,
    randomized pairs. A found witness is replayed from its serialization
    before being reported. Exhausted budget is an honest skip — only a
    fully-exhausted exhaustive population may report Holds.

    Each distinct value is decided once per hunt; the replay decides the
    witness's value again, from its serialization.

    pin_check(universe, value) may decorate the pinned phase's witness with
    an independently recomputed gap (a specific escaping element); it never
    decides the status by itself — the predicate must genuinely fail.

    A misspelled predicate name raises ValueError up front: inside the hunt
    a ValueError from the predicate counts as a violation (a `lagrange`
    value that is not a strict subgroupoid)."""
    check_predicate_name(universe, predicate)
    counter = [0]
    cache = {}

    def verdicts(value):
        if value not in cache:
            cache[value] = _remark_violation(universe, value, predicate)
        return cache[value]

    def finish(witness):
        if not _replay_witness(universe, op_name, predicate, witness):
            raise RuntimeError("hunt witness failed to replay")
        return STATUS_COUNTEREXAMPLE, witness, counter[0]

    if pinned is not None:
        witness = _hunt_pair(universe, op_name, verdicts, pinned[0], pinned[1],
                             counter, pin_check=pin_check)
        if witness is not None:
            return finish(witness)

    population = list(population or [])
    swept_all = False
    if population:
        ordered = sorted(population, key=lambda v: (_value_size(v), _value_plain(universe, v).__repr__()))
        done = True
        for a in ordered:
            for b in ordered:
                if counter[0] >= budget:
                    done = False
                    break
                witness = _hunt_pair(universe, op_name, verdicts,
                                     {"p1": a}, {"p1": b}, counter)
                if witness is not None:
                    return finish(witness)
            if not done:
                break
        swept_all = done

        while counter[0] < budget:
            f_assign = {"p1": rng.choice(population)}
            if rng.random() < 0.5:
                f_assign["p2"] = rng.choice(population)
            k_assign = {"p1": rng.choice(population)}
            witness = _hunt_pair(universe, op_name, verdicts, f_assign,
                                 k_assign, counter)
            if witness is not None:
                return finish(witness)

    if exhaustive and swept_all:
        return STATUS_HOLDS, None, counter[0]
    return STATUS_SKIPPED_BUDGET, {"budget": budget}, counter[0]


def _value_size(value):
    if isinstance(value, tuple):
        return sum(len(p) for p in value)
    try:
        return len(value)
    except TypeError:
        return 1


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
