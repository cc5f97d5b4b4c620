"""The registered claim suite: every row reports its registered status."""

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from neutrolab import claims
from neutrolab.claims import _span, carrier, registry
from neutrolab.engine import (
    Claim,
    KIND_CLASSIFICATION,
    KIND_EXAMPLE,
    KIND_PROP,
    KIND_REMARK,
    STATUS_CONTRADICTS,
    STATUS_COUNTEREXAMPLE,
    STATUS_HOLDS,
    STATUS_VERIFIED,
    _replay_witness,
    run_claim,
    run_closure_prop,
    run_remark_hunt,
    run_suite,
)
from neutrolab.groupring import GroupRing
from neutrolab.io import load_structure
from neutrolab.ncollect import NCollection
from neutrolab.structures import _Labelled, cyclic_neutro_group, param_groupoid
from neutrolab.subsets import enumerate_subs

GOLDEN = Path(__file__).parent / "data" / "verify_seed0.json"
REGISTRY_GOLDEN = Path(__file__).parent / "data" / "registry.json"

CONTRADICTING_ROWS = {
    "example-2.3.1", "example-2.3.3", "example-3.1.7",
    "example-4.1.8", "example-4.1.11", "example-6.1.1",
}


@pytest.fixture(scope="module")
def reg():
    return registry()


@pytest.fixture(scope="module")
def reports(reg):
    out, ok = run_suite(reg, None, seed=0)
    return {r.claim_id: r for r in out}


def test_registry_shape(reg):
    ids = [c.id for c in reg]
    assert len(ids) == len(set(ids)) == 65
    kinds = {KIND_PROP, KIND_REMARK, KIND_EXAMPLE, KIND_CLASSIFICATION}
    assert {c.kind for c in reg} <= kinds
    assert all(c.universe and c.generator for c in reg)


def test_registry_rows_match_the_recorded_metadata(reg):
    """Each row's id, kind, universe, generator, expected status and note, in
    registry order, are pinned byte for byte; generators and notes appear in
    no `verify` output."""
    rows = [{"id": c.id, "kind": c.kind, "universe": c.universe,
             "generator": c.generator, "expected": c.expected, "note": c.note}
            for c in reg]
    assert json.dumps(rows, indent=2) + "\n" == REGISTRY_GOLDEN.read_text()


def _cached_in_claims():
    return [fn for fn in vars(claims).values()
            if hasattr(fn, "cache_info") and fn.__module__ == claims.__name__]


@pytest.fixture
def builds(monkeypatch):
    """The names of the carriers constructed while the test runs, in order:
    every finite magma and ring, group ring and collection, whether a load
    through `io` or a builder made it.  A load that reuses a carrier builds
    nothing."""
    made = []
    for cls in (_Labelled, GroupRing, NCollection):
        def init(self, *args, _init=cls.__init__, **kwargs):
            _init(self, *args, **kwargs)
            made.append(self.name)
        monkeypatch.setattr(cls, "__init__", init)
    param_groupoid(3, 1, 1)
    assert made == ["groupoid(3;1,1)"]
    made.clear()
    return made


def test_a_warmed_suite_builds_no_carrier(builds):
    """Once every zero-argument cached function in `claims` (the carrier
    table among them) and both span populations are filled, as the
    verify-suite benchmark does in its set-up, a seed-0 suite run misses no
    cache and constructs no carrier, so no carrier or population build lands
    in a claim's timed run; witness replays reload their universe without
    building it."""
    cached = _cached_in_claims()
    assert claims.carriers in cached
    for fn in cached:
        if fn.__wrapped__.__code__.co_argcount == 0:
            fn()
    for which in ("z2c4", "z2c3s"):
        claims.span_population(which)
    misses = {fn.__name__: fn.cache_info().misses for fn in cached}
    builds.clear()
    run_suite(claims.registry(), None, seed=0)
    assert builds == []
    assert {fn.__name__: fn.cache_info().misses for fn in cached} == misses


def test_no_carrier_is_built_inside_a_claims_timed_section(reg, builds):
    """Each row, run from empty `claims` caches, has its carrier loaded before
    its runner starts: no carrier or part of one is constructed while a
    runner runs, witness replays included.  Populations may still be built
    there.  A count, not a timing."""
    cached = _cached_in_claims()
    built = {}
    for claim in reg:
        for fn in cached:
            fn.cache_clear()

        def runner(u, rng, claim=claim):
            before = len(builds)
            out = claim.runner(u, rng)
            built[claim.id] = builds[before:]
            return out
        run_claim(Claim(claim.id, claim.kind, claim.carrier, claim.generator,
                        claim.expected, runner, claim.note), seed=0)
    assert built == {claim.id: [] for claim in reg}


# the collections in the carrier table and the entries among their parts
NESTED_PARTS = {
    "bi(Z10;2,3 | Z4;2,1)+I": ["groupoid(10;2,3)", "groupoid(4;2,1)"],
    "tri(Z10;3,2 | Z4;2,1 | Z12;8,4)+I": ["groupoid(10;3,2)", "groupoid(4;2,1)",
                                          "groupoid(12;8,4)"],
    "mixed5(order 68)": [],
    "dual5": ["loop7(4)"],
}


def test_each_carrier_spec_loads_to_the_carrier_it_names():
    """Every entry of the carrier table loads to a carrier named by its key
    that keeps the entry as its spec; the spec survives a JSON round trip
    and loads again to that carrier's name and size.  The parts of the
    collections that have entries of their own (the groupoids in bi and tri,
    the loop in dual5 and under its double) load from those entries' specs."""
    loaded = claims.carriers()
    assert list(loaded) == list(claims.CARRIER_SPECS) and len(loaded) == 16
    for name, u in loaded.items():
        assert u.name == name
        text = json.dumps(u.spec)
        assert json.loads(text) == u.spec == claims.CARRIER_SPECS[name]
        again = load_structure(json.loads(text))
        assert (again.name, len(again)) == (name, len(u))
    for name, parts in NESTED_PARTS.items():
        comps = [c.structure for c in loaded[name].components]
        assert [s.name for s in comps if s.name in loaded] == parts
        for s in comps:
            if s.name in loaded:
                assert s.spec == loaded[s.name].spec
    double = loaded["dual5"].components[-1].structure
    assert double.spec["base"] == loaded["loop7(4)"].spec


def test_every_claim_reports_its_registered_status(reg, reports):
    mismatched = [(c.id, c.expected, reports[c.id].status)
                  for c in reg if reports[c.id].status != c.expected]
    assert mismatched == []


def test_contradiction_rows_are_exactly_the_preregistered_ones(reg):
    ect = {c.id for c in reg if c.expected == STATUS_CONTRADICTS}
    assert ect == CONTRADICTING_ROWS
    noted = [c for c in reg if c.id in CONTRADICTING_ROWS]
    assert all(c.note for c in noted)     # each carries its analysis


def test_remarks_find_counterexamples(reg, reports):
    for c in reg:
        if c.kind == KIND_REMARK and c.expected == STATUS_COUNTEREXAMPLE:
            r = reports[c.id]
            assert r.witness["kind"] == "union-violation", c.id
            assert r.trials <= 10_000, c.id


# the remarks on carriers past 64 elements: (carrier, operation, predicate)
LARGE_CARRIER_REMARKS = {
    "remark-2.1.1": ("groupoid(10;3,2)", "extended-union", "loose-subgroupoid"),
    "remark-2.1.2": ("groupoid(10;3,2)", "restricted-union", "loose-subgroupoid"),
    "remark-2.1.3": ("groupoid(10;3,2)", "or", "loose-subgroupoid"),
    "remark-3.1.1": ("ring(Z12+I)", "extended-union", "loose-subring"),
    "remark-3.1.2": ("ring(Z12+I)", "restricted-union", "loose-subring"),
    "remark-3.1.3": ("ring(Z12+I)", "or", "loose-subring"),
    "remark-3.1.4": ("ring(Z12+I)", "extended-union", "loose-ring-ideal"),
}


@pytest.mark.parametrize("cid", sorted(LARGE_CARRIER_REMARKS))
def test_large_carrier_remarks_hunt_without_their_pinned_pair(cid):
    """Without the pinned pair, the sweep over ordered pairs of every
    substructure of the carrier finds a witness, and it replays."""
    name, op, predicate = LARGE_CARRIER_REMARKS[cid]
    u = carrier(name)
    status, witness, trials = run_remark_hunt(
        u, op, predicate, random.Random(0), pinned=None,
        population=enumerate_subs(u, predicate, "generate"), budget=10_000)
    assert status == STATUS_COUNTEREXAMPLE, cid
    assert _replay_witness(u, op, predicate, witness), cid


def test_pinned_escape_witness(reports):
    w = reports["remark-2.1.1"].witness
    assert w["pinned-pair"] == ["5I", "3"]
    assert w["escapes"] == "6+5I"


def test_sampled_props_meet_the_trial_floor(reports):
    assert reports["prop-2.3.2"].trials >= 10_000
    assert reports["prop-6.1.1"].trials >= 10_000


def test_props_hold_without_violations(reg, reports):
    for c in reg:
        if c.kind == KIND_PROP:
            r = reports[c.id]
            assert r.status == STATUS_HOLDS, c.id
            # a holding proposition may carry bookkeeping, never a violation
            assert r.witness is None or "reason" not in r.witness, c.id


class CountingGroupRing(GroupRing):
    """Counts additions and products; the algebra view binds the instance's
    methods, so every call the predicates make is counted."""

    def __init__(self, r, basis):
        super().__init__(r, basis)
        self.calls = 0

    def add(self, x, y):
        self.calls += 1
        return super().add(x, y)

    def mul(self, x, y):
        self.calls += 1
        return super().mul(x, y)


def test_prop_4_1_1_decides_spans_from_their_generators():
    """prop-4.1.1's sweep of Z2<C4+I> basis spans stays within 2000
    additions and products (the pair walk over every member made 142536)."""
    gr = CountingGroupRing(2, cyclic_neutro_group(4))
    population = [_span(gr, s) for s in enumerate_subs(gr.basis, "subgroupoid")]
    status, witness, trials = run_closure_prop(gr, population, "loose-gr-subneutro",
                                               random.Random("0:prop-4.1.1"))
    assert (status, witness, trials) == (STATUS_HOLDS, None, 813)
    assert gr.calls <= 2000


def test_example_rows_run_under_a_second(reg, reports):
    for c in reg:
        if c.kind == KIND_EXAMPLE:
            assert reports[c.id].elapsed_ms < 1000, c.id


def test_verified_examples(reg, reports):
    for c in reg:
        if c.kind == KIND_EXAMPLE and c.id not in CONTRADICTING_ROWS:
            assert reports[c.id].status == STATUS_VERIFIED, c.id


def test_classifications(reports):
    assert reports["classify-lagrange-2.1"].status == STATUS_HOLDS
    assert reports["classify-mixed-6.1.1"].status == STATUS_HOLDS
    assert reports["classify-mixed-6.1.3"].status == STATUS_HOLDS
    w = reports["classify-lagrange-2.1"].witness
    assert w["verdict"] == "WeaklyLagrange"


def test_rerun_is_deterministic(reg, reports):
    for cid in ("remark-2.1.1", "prop-2.1.1", "example-2.1.1", "prop-2.3.2"):
        claim = next(c for c in reg if c.id == cid)
        again = run_claim(claim, seed=0)
        before = reports[cid]
        assert (again.status, again.witness, again.trials) == \
               (before.status, before.witness, before.trials)


def test_seed0_rows_match_the_recorded_output(reports):
    """The seed-0 `verify --format json` rows, minus timings, are pinned byte
    for byte: statuses, witnesses, notes, flags and trial counts."""
    rows = []
    for r in reports.values():
        row = r.to_dict()
        del row["elapsed_ms"]
        rows.append(row)
    text = json.dumps(rows, indent=2) + "\n"
    recorded = GOLDEN.read_text()
    assert json.loads(text) == json.loads(recorded)
    assert text == recorded


def test_seed0_rows_differ_from_their_earlier_pin_only_by_witness_universes():
    """The recorded seed-0 rows, with the `universe` of every witness's
    `lhs` and `rhs` taken out, hash to the rows pinned before witnesses
    named their universe; the registry pin is unchanged."""
    rows = json.loads(GOLDEN.read_text())
    named = 0
    for row in rows:
        witness = row["witness"]
        for side in ("lhs", "rhs"):
            if isinstance(witness, dict) and "universe" in witness.get(side, {}):
                del witness[side]["universe"]
                named += 1
    assert named == 40      # both operands of the 20 counterexample rows
    text = json.dumps(rows, indent=2) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "91f3bb138ff9dff3b35fa5731a4a89f68170c4f5a66059505679a71bceac93b7")
    assert hashlib.sha256(REGISTRY_GOLDEN.read_bytes()).hexdigest() == (
        "b74c0d4084bb6f596359ac7a3231f69344b839f8b499cabc6accacb68274db25")


def test_seed0_rows_do_not_depend_on_the_hash_seed():
    """A fresh `verify` process under PYTHONHASHSEED=1 prints the recorded
    rows: no witness, note or count may follow set or dict iteration order."""
    src = str(Path(__file__).parent.parent / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONHASHSEED="1", PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-m", "neutrolab.cli", "verify", "--seed", "0", "--format", "json"],
        env=env, capture_output=True, text=True, check=True).stdout
    rows = json.loads(out)
    for row in rows:
        del row["elapsed_ms"]
    assert json.dumps(rows, indent=2) + "\n" == GOLDEN.read_text()


def _run_fresh(code):
    """Run `code` in a fresh interpreter that imports neutrolab from this
    checkout; an assertion there fails the call."""
    src = str(Path(__file__).parent.parent / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                   check=True)


def test_package_loads_the_claim_engine_on_first_use():
    """`import neutrolab` loads none of its modules, and `import
    neutrolab.cli` not the registry; every name the package exports still
    resolves, and listing the registry fills no cached builder but its own."""
    _run_fresh("import sys, neutrolab\n"
               "assert [m for m in sys.modules if m.startswith('neutrolab.')] == []\n"
               "import neutrolab.cli; assert 'neutrolab.claims' not in sys.modules\n"
               "from neutrolab import *\n"
               "assert len(registry()) == 65 and run_suite is neutrolab.engine.run_suite\n"
               "assert neutrolab.claims.registry is registry\n"
               "assert not any(f.cache_info().currsize for f in vars(neutrolab.claims).values()\n"
               "               if hasattr(f, 'cache_info') and f is not registry)\n")


def test_each_export_is_the_object_its_home_module_defines():
    """Every name in `__all__` resolves, through the one lazy map, to the
    object of that name in its home module, which defines it there when it
    names a module at all; `dir` lists every export."""
    import importlib

    import neutrolab

    for name in neutrolab.__all__:
        home = importlib.import_module("neutrolab." + neutrolab._HOME[name])
        value = getattr(neutrolab, name)
        assert value is getattr(home, name), name
        assert getattr(value, "__module__", home.__name__) == home.__name__, name
    assert set(neutrolab.__all__) <= set(dir(neutrolab))
    assert len(set(neutrolab.__all__)) == len(neutrolab.__all__)


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    """A cold `enumerate` over a groupoid file loads neither `dataclasses`
    nor the soft sets, collections, symbolic carriers, engine or claims; a
    `soft-check` over a formal-sum file loads no symbolic carrier or engine,
    nor `dataclasses` and the `inspect` it imports; a `check-sub` and a
    `hunt` over the groupoid file, which run the engine, load neither
    `dataclasses` nor `inspect`, nor the claims and symbolic carriers."""
    structure = tmp_path / "g.json"
    structure.write_text(json.dumps({"kind": "param_groupoid", "n": 7, "t": 3, "u": 2}))
    soft = tmp_path / "s.json"
    soft.write_text(json.dumps({
        "universe": {"kind": "group_ring", "r": 2,
                     "basis": {"kind": "cyclic_neutro_group", "m": 4}},
        "assign": {"a1": ["0", "1+g^2"], "a2": ["0"]}}))
    _run_fresh("import sys\n"
               "from neutrolab.cli import main\n"
               "assert main(['enumerate', '--structure', %r, '--predicate', 'subgroupoid']) == 0\n"
               "loaded = {'dataclasses', 'neutrolab.softsets', 'neutrolab.symbolic',\n"
               "          'neutrolab.ncollect', 'neutrolab.engine', 'neutrolab.claims'}\n"
               "assert not loaded & set(sys.modules), loaded & set(sys.modules)\n"
               % str(structure))
    _run_fresh("import sys\n"
               "from neutrolab.cli import main\n"
               "assert main(['soft-check', '--file', %r, '--predicate', 'loose-gr-subring']) == 0\n"
               "loaded = {'neutrolab.symbolic', 'neutrolab.engine', 'fractions', 'decimal',\n"
               "          'dataclasses', 'inspect'}\n"
               "assert not loaded & set(sys.modules), loaded & set(sys.modules)\n"
               % str(soft))
    for argv in (["check-sub", "--structure", str(structure), "--subset", "0,I",
                  "--predicate", "subgroupoid"],
                 ["hunt", "--template", "extended-union:subgroupoid",
                  "--universe", str(structure), "--budget", "50"]):
        _run_fresh("import sys\n"
                   "from neutrolab.cli import main\n"
                   "assert main(%r) != 2\n"
                   "assert 'neutrolab.engine' in sys.modules\n"
                   "loaded = {'dataclasses', 'inspect', 'neutrolab.claims', 'neutrolab.symbolic'}\n"
                   "assert not loaded & set(sys.modules), loaded & set(sys.modules)\n"
                   % argv)


def test_a_row_loads_only_its_own_carrier():
    """In a fresh process, the carrier of one row (example-1.1.3) is the only
    carrier constructed: the claims load each carrier on its first use."""
    _run_fresh("from neutrolab import claims\n"
               "from neutrolab.groupring import GroupRing\n"
               "from neutrolab.ncollect import NCollection\n"
               "from neutrolab.structures import _Labelled\n"
               "made = []\n"
               "for cls in (_Labelled, GroupRing, NCollection):\n"
               "    def init(self, *args, _init=cls.__init__, **kwargs):\n"
               "        _init(self, *args, **kwargs)\n"
               "        made.append(self.name)\n"
               "    cls.__init__ = init\n"
               "u = claims.claim_by_id('example-1.1.3').carrier()\n"
               "assert made == ['groupoid(10;3,2)'] == [u.name], made\n"
               "assert claims.carrier.cache_info().currsize == 1\n")
