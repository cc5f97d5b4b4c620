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
from types import SimpleNamespace

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


# a stand-in kind for op_items whose meet and join form no value: they
# record which merge takes which two operand slots
_SLOTS = SimpleNamespace(meet=lambda a, b: ("meet", a, b), join=lambda a, b: ("join", a, b))


@cache
def _op_plan(op_name, f_keys, k_keys):
    """The plan of op(f, k) for operands with these keys, in this order: one
    (param, merge, i, j) per value the operation forms, in parameter order.
    The value is the kind's `merge` ("meet" or "join") of operand slots i
    and j, or slot i itself where `merge` is None (and j is i); the slots
    number f's values, then k's.  op_items forms the plan on the slots, so
    it has the operation's parameters and raises its Uncombinable on a key
    clash; an unknown operation name raises ValueError."""
    if op_name not in OPS:
        raise ValueError("unknown operation %r; choices: %s" % (op_name, ", ".join(OPS)))
    n = len(f_keys)
    f, k = dict(zip(f_keys, range(n))), dict(zip(k_keys, range(n, n + len(k_keys))))
    return tuple((p, *s) if type(s) is tuple else (p, None, s, s)
                 for p, s in op_items(op_name, f, k, _SLOTS))


def _formed(kind, merge, i, j, pool):
    """The value a plan step forms from pool members i and j."""
    return pool[i] if merge is None else getattr(kind, merge)(pool[i], pool[j])


_UNDECIDED = object()


def _op_trial(plan, slots, pool, kind, fails, verdicts):
    """A hunt trial: decide, as one trial each and in plan order, the values
    an operation forms from the operand values pool[s] for s in `slots` (see
    _op_plan).  `verdicts` holds the `fails` result of each value formed so
    far, by (merge, i, j) over pool indices, so it serves one pool.  Returns
    the trial count, which is the 1-based position of the first failure,
    and that failure, (param, value, verdict), or None."""
    for n, (p, merge, a, b) in enumerate(plan, 1):
        key = merge, slots[a], slots[b]
        v = verdicts.get(key, _UNDECIDED)
        if v is _UNDECIDED:
            v = verdicts[key] = fails(_formed(kind, *key, pool))
        if v is not None:
            return n, (p, _formed(kind, *key, pool), v)
    return len(plan), None


def _soft_dumps(universe, keys, values):
    """The operands f and k of a trial, as soft-set files' dicts: `keys` are
    their keys, in order, and `values` f's values, then k's."""
    f_keys, k_keys = keys
    return (soft_to_dict(SoftSet._of_frozen(universe, zip(f_keys, values))),
            soft_to_dict(SoftSet._of_frozen(universe, zip(k_keys, values[len(f_keys):]))))


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


# the operand keys of a spot trial: f has p1 and, on a coin, p2; k has p1
# and, on a coin, p3
_SPOT_SHAPES = tuple((fk, kk) for fk in (("p1",), ("p1", "p2"))
                     for kk in (("p1",), ("p1", "p3")))
_PAIR = ("p1",), ("p1",)


def run_closure_prop(universe, population, predicate, rng, ops=INTERSECTION_OPS,
                     spot=SPOT_PAIRS):
    """Exhaustive pairwise sweep over a population of assignment values,
    then a seeded spot-check of `spot` pairs of soft sets that routes their
    values through the real soft-set operations `ops`, in turn. Returns
    (status, witness, trials).

    The pair sweep decides every member and the meet of every ordered pair
    of members.  Every value a soft operation forms is a member or the meet
    or join of two (_op_plan), so after it a spot trial decides only its
    plan's joins, in plan order and once per pair of population indices (a
    symbolic meet that refuses its pair raises in the pair sweep).  A spot
    pair draws its members as `rng.choice(population)` would, index by
    index (`rng` is a random.Random, or a subclass that draws through
    getrandbits), so status, witness and trials are those of the
    operations on the drawn soft sets.  An unknown operation name, a
    negative `spot` and an empty `ops` with a positive `spot` raise
    ValueError before any trial."""
    if spot < 0:
        raise ValueError("spot must be at least 0, got %d" % spot)
    if spot and not ops:
        raise ValueError("a spot sweep needs at least one operation")
    # per op and operand shape: the plan's length, and its joins with their
    # 1-based places in it
    plans = {op: [(len(plan), [(n, p, a, b) for n, (p, m, a, b) in enumerate(plan, 1)
                               if m == "join"])
                  for plan in (_op_plan(op, *shape) for shape in _SPOT_SHAPES)] for op in ops}
    kind = value_kind(universe)
    population = [kind.freeze(universe, v) for v in population]
    fails = cache(_closure_failure(universe, predicate))
    for val in population:
        v = fails(val)
        if v is not None:
            raise RuntimeError(
                "population member fails its own predicate (%s): %s"
                % (predicate, v.note))
    size = len(population)
    for i, a in enumerate(population):
        for j, b in enumerate(population):
            v = fails(kind.meet(a, b))
            if v is not None:
                return (STATUS_COUNTEREXAMPLE,
                        _fail_witness("pair-intersection", v, lhs=kind.dump(universe, a),
                                      rhs=kind.dump(universe, b)),
                        size + i * size + j + 1)
    trials = size + size * size
    joins = {}
    bits = size.bit_length()
    getrandbits, coin = rng.getrandbits, rng.random
    checked = 0
    for _ in range(spot if population else 0):
        # each member is drawn as rng.choice(population) draws it
        i = getrandbits(bits)
        while i >= size:
            i = getrandbits(bits)
        slots = [i]
        shape = 0
        if coin() < 0.5:
            i = getrandbits(bits)
            while i >= size:
                i = getrandbits(bits)
            slots.append(i)
            shape = 2
        i = getrandbits(bits)
        while i >= size:
            i = getrandbits(bits)
        slots.append(i)
        if coin() < 0.5:
            i = getrandbits(bits)
            while i >= size:
                i = getrandbits(bits)
            slots.append(i)
            shape += 1
        op_name = ops[checked % len(ops)]
        length, steps = plans[op_name][shape]
        for n, p, a, b in steps:
            key = slots[a], slots[b]
            v = joins.get(key, _UNDECIDED)
            if v is _UNDECIDED:
                v = joins[key] = fails(kind.join(population[slots[a]], population[slots[b]]))
            if v is not None:
                lhs, rhs = _soft_dumps(universe, _SPOT_SHAPES[shape],
                                       [population[s] for s in slots])
                return (STATUS_COUNTEREXAMPLE,
                        _fail_witness("soft-op", v, op=op_name, param=p, lhs=lhs, rhs=rhs),
                        trials + checked + n)
        checked += length
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
    trials are spent. A trial decides one value of op(f, k), through the
    operation's plan for the operands' keys, as in run_closure_prop. A
    found witness is replayed from its serialization before being reported.
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

    An unknown operation name and a misspelled predicate name raise
    ValueError up front: inside the hunt a value the predicate refuses
    counts as a violation (a `lagrange` value that is not a strict
    subgroupoid).  A pinned pair the operation cannot combine
    (softsets.Uncombinable: no shared parameter, a crossed-name clash)
    makes no trial; any other ValueError, such as a value naming no member,
    propagates as it does from run_closure_prop."""
    pair_plan = _op_plan(op_name, *_PAIR)
    kind = value_kind(universe)
    fails = cache(_remark_violation(universe, predicate))
    trials = 0

    def hunt(keys, plan, pool, slots, verdicts, check=None):
        """Trial op(f, k) on operands with these keys and the values
        pool[s] for s in `slots`: its replayed witness, or None."""
        nonlocal trials
        n, failure = _op_trial(plan, slots, pool, kind, fails, verdicts)
        trials += n
        if failure is None:
            return None
        p, value, v = failure
        lhs, rhs = _soft_dumps(universe, keys, [pool[s] for s in slots])
        witness = _fail_witness("union-violation", v, op=op_name, param=p, lhs=lhs,
                                rhs=rhs, result=kind.dump(universe, value))
        gap = check(universe, value) if check is not None else None
        if gap:
            witness.update(json_plain(gap))
        if not _replay_witness(universe, op_name, predicate, witness):
            raise RuntimeError("hunt witness failed to replay")
        return witness

    if pinned is not None:
        f, k = (SoftSet(universe, assign).assign for assign in pinned)
        keys = tuple(f), tuple(k)
        try:
            plan = _op_plan(op_name, *keys)
        except Uncombinable:
            plan = ()
        pool = [*f.values(), *k.values()]
        witness = hunt(keys, plan, pool, range(len(pool)), {}, pin_check)
        if witness is not None:
            return STATUS_COUNTEREXAMPLE, witness, trials

    ordered = sorted((kind.freeze(universe, v) for v in population or ()),
                     key=lambda v: (kind.size(v), repr(kind.dump(universe, v))))
    verdicts = {}
    for pair in product(range(len(ordered)), repeat=2):
        if trials >= budget:
            return STATUS_SKIPPED_BUDGET, {"budget": budget}, trials
        witness = hunt(_PAIR, pair_plan, ordered, pair, verdicts)
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
