"""JSON specs for structures and soft sets, and their round trips."""

import gc
import json
import re
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neutrolab import claims, io
from neutrolab import symbolic as sym
from neutrolab.groupring import GroupRing
from neutrolab.io import (
    json_plain,
    load_soft,
    load_soft_file,
    load_structure,
    load_structure_file,
    soft_to_dict,
)
from neutrolab.ncollect import NCollection
from neutrolab.softsets import OPS, SoftSet
from neutrolab.structures import FiniteMagma, FiniteRing, neutro_ring, param_groupoid

STRUCTURE_SPECS = [
    {"kind": "param_groupoid", "n": 4, "t": 2, "u": 1},
    {"kind": "cyclic_neutro_group", "m": 4},
    {"kind": "cyclic_neutro_group", "m": 3, "semigroup": True},
    {"kind": "neutro_ring", "n": 4},
    {"kind": "mult_magma", "n": 6},
    {"kind": "mult_magma", "n": 4, "pure_union": True},
    {"kind": "mult_magma", "n": 10, "neutro": False},
    {"kind": "sym_group", "k": 3},
    {"kind": "cayley", "elements": ["a", "b"], "table": [["a", "b"], ["b", "a"]],
     "name": "z2"},
    {"kind": "neutro_double", "base": {"kind": "sym_group", "k": 3}},
    {"kind": "group_ring", "r": 2, "basis": {"kind": "cyclic_neutro_group", "m": 4}},
    {"kind": "ncollection", "components": [
        {"spec": {"kind": "mult_magma", "n": 3},
         "kind_tag": {"alg": "semigroup", "neutrosophic": True}},
        {"spec": {"kind": "sym_group", "k": 3},
         "kind_tag": {"alg": "group", "neutrosophic": False}},
    ]},
]


def test_every_structure_kind_loads():
    for spec in STRUCTURE_SPECS:
        s = load_structure(spec)
        assert isinstance(s, (FiniteMagma, FiniteRing, GroupRing, NCollection))


def test_structure_sizes():
    assert len(load_structure(STRUCTURE_SPECS[0])) == 16
    assert len(load_structure(STRUCTURE_SPECS[3])) == 16
    assert len(load_structure({"kind": "group_ring", "r": 2,
                               "basis": {"kind": "cyclic_neutro_group", "m": 4}})) == 256
    coll = load_structure(STRUCTURE_SPECS[-1])
    assert coll.order() == 9 + 6


def test_load_errors():
    with pytest.raises(ValueError):
        load_structure({"kind": "dodecahedron"})
    with pytest.raises(ValueError):
        load_structure(["not", "a", "dict"])
    with pytest.raises((KeyError, ValueError)):
        load_structure({"kind": "param_groupoid", "n": 4})


def test_soft_roundtrip_magma(tmp_path):
    uspec = {"kind": "param_groupoid", "n": 4, "t": 2, "u": 1}
    doc = {"universe": uspec,
           "assign": {"a1": ["0", "2", "2I", "2+2I"], "a2": ["0", "2I"]}}
    path = tmp_path / "soft.json"
    path.write_text(json.dumps(doc))
    f = load_soft_file(str(path))
    assert f.params == ("a1", "a2")
    assert f.value("a2") == frozenset({"0", "2I"})
    dumped = soft_to_dict(f)
    again = load_soft(json.loads(json.dumps(dumped)))
    assert again.params == f.params
    assert all(again.value(p) == f.value(p) for p in f.params)


def test_soft_roundtrip_collection():
    uspec = STRUCTURE_SPECS[-1]
    doc = {"universe": uspec,
           "assign": {"a1": [["0", "I"], ["e"]]}}
    f = load_soft(doc)
    assert f.value("a1") == (frozenset({"0", "I"}), frozenset({"e"}))
    dumped = soft_to_dict(f)
    assert dumped["assign"]["a1"] == [["0", "I"], ["e"]]
    again = load_soft(dumped)
    assert again.value("a1") == f.value("a1")
    with pytest.raises(ValueError):
        load_soft({"universe": uspec, "assign": {"a1": ["0", "I"]}})


def test_soft_roundtrip_group_ring():
    uspec = {"kind": "group_ring", "r": 2,
             "basis": {"kind": "cyclic_neutro_group", "m": 4}}
    doc = {"universe": uspec, "assign": {"a1": ["0", "1+g", "I"]}}
    f = load_soft(doc)
    gr = f.universe
    assert gr.parse("1+g") in f.value("a1")
    dumped = soft_to_dict(f)
    assert dumped["assign"]["a1"] == ["0", "1+g", "I"]
    again = load_soft(dumped)
    assert again.value("a1") == f.value("a1")


SPAN_BASIS = claims.carrier("cyclic(6)+I")


@st.composite
def named_rings(draw):
    base = draw(st.sampled_from("ZQRC"))
    mult = draw(st.integers(1, 12)) if base == "Z" else 1
    return sym.NamedRing(base, mult, draw(st.booleans()))


@st.composite
def spans(draw):
    """A span over SPAN_BASIS: of the whole basis or of a set of its labels."""
    subset = draw(st.one_of(st.none(), st.sets(st.sampled_from(SPAN_BASIS.elements),
                                               min_size=1)))
    return sym.SymGroupRing(draw(named_rings()), SPAN_BASIS, subset)


@st.composite
def symbolic_soft_sets(draw):
    """A soft set over a named ring or a symbolic group ring whose values are
    members of the universe's type or unions of them; over a group ring, a
    lone coefficient ring stands for its span."""
    if draw(st.booleans()):
        universe, members, lone = draw(named_rings()), named_rings(), named_rings()
    else:
        universe, members = sym.SymGroupRing(draw(named_rings()), SPAN_BASIS), spans()
        lone = st.one_of(spans(), named_rings())
    union = st.lists(members, min_size=2, max_size=3).map(lambda ms: sym.SymUnion(tuple(ms)))
    assign = draw(st.dictionaries(st.sampled_from(["a1", "a2", "a3"]), st.one_of(lone, union),
                                  min_size=1))
    return SoftSet(universe, assign)


@settings(max_examples=150, deadline=None)
@given(symbolic_soft_sets())
def test_a_symbolic_soft_set_reads_back_what_it_writes(f):
    """Symbolic values are written as their names ("<2Z u I>",
    "Q<{1,g^3}>", "2Z u R"), and read back to the same values."""
    dumped = soft_to_dict(f)
    assert all(isinstance(v, str) for v in dumped["assign"].values())
    assert load_soft(json.loads(json.dumps(dumped)), universe=f.universe) == f


def test_load_soft_with_shared_universe():
    g = load_structure({"kind": "param_groupoid", "n": 4, "t": 2, "u": 1})
    f = load_soft({"assign": {"a1": ["0", "2I"]}}, universe=g)
    k = load_soft({"assign": {"a1": ["0", "2"]}}, universe=g)
    assert f.universe is k.universe
    assert isinstance(f, SoftSet)
    # with no universe given, a spec without one names the missing field
    with pytest.raises(ValueError, match="'universe'"):
        load_soft({"assign": {"a1": ["0", "2I"]}})


def test_a_soft_spec_with_a_universe_is_read_over_it():
    ring = load_structure({"kind": "neutro_ring", "n": 6})
    f = load_soft({"universe": STRUCTURE_SPECS[0], "assign": {"a1": ["0", "2I"]}},
                  universe=ring)
    assert f.universe is load_structure(STRUCTURE_SPECS[0]) and f.universe is not ring


def test_json_plain_handles_every_witness_shape():
    blob = {"pair": ("5I", "3"), "set": frozenset({"b", "a"}),
            "n": 3, "none": None, "flag": True,
            "obj": load_structure({"kind": "sym_group", "k": 3})}
    plain = json_plain(blob)
    json.dumps(plain)
    assert plain["pair"] == ["5I", "3"]
    assert plain["set"] == ["a", "b"]
    assert isinstance(plain["obj"], str)


def test_structure_file_roundtrip(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"kind": "mult_magma", "n": 5}))
    s = load_structure_file(str(path))
    assert len(s) == 25


def _copy(spec):
    """An equal spec that shares no object with `spec`."""
    return json.loads(json.dumps(spec))


def test_a_repeat_load_returns_the_same_carrier():
    for spec in STRUCTURE_SPECS:
        s = load_structure(spec)
        assert load_structure(_copy(spec)) is s, spec
    double, gr, coll = (load_structure(spec) for spec in STRUCTURE_SPECS[-3:])
    assert double is load_structure({"kind": "neutro_double",
                                     "base": load_structure(STRUCTURE_SPECS[7]).spec})
    assert gr.basis is load_structure(STRUCTURE_SPECS[-2]["basis"])
    assert [c.structure for c in coll.components] == [
        load_structure(c["spec"]) for c in STRUCTURE_SPECS[-1]["components"]]
    assert all(c.structure is load_structure(c.structure.spec) for c in coll.components)


def test_specs_equal_after_their_checks_share_a_carrier():
    ring = load_structure({"kind": "neutro_ring", "n": 4})
    assert load_structure({"kind": "neutro_ring", "n": "4"}) is ring
    z2 = load_structure(STRUCTURE_SPECS[8])
    assert load_structure(dict(STRUCTURE_SPECS[8], table=[[0, 1], [1, 0]])) is z2
    assert load_structure(dict(STRUCTURE_SPECS[8], name="other")) is not z2


@pytest.mark.parametrize("good, bad, message", [
    ({"kind": "cayley", "elements": ["a", "b"], "table": [[0, 1], [1, 0]]},
     {"kind": "cayley", "elements": ["a", "b"], "table": [[0, 1.0], [1, 0]]},
     "table entry 1.0 is neither an element nor an index"),
    ({"kind": "cayley", "elements": ["a", "b"], "table": [[0, 1], [1, 0]]},
     {"kind": "cayley", "elements": ["a", "b"], "table": [[False, True], [True, False]]},
     "table entry False is neither an element nor an index"),
    ({"kind": "cayley", "elements": ["a", "b"], "table": [[0, 1], [1, 0]]},
     {"kind": "cayley", "elements": ["a", "b"], "table": ((0, 1), (1, 0))},
     "field 'table' must be a list, got ((0, 1), (1, 0))"),
    ({"kind": "cayley", "elements": ["a", "b"], "table": [[0, 1], [1, 0]]},
     {"kind": "cayley", "elements": ("a", "b"), "table": [[0, 1], [1, 0]]},
     "field 'elements' must be a list, got ('a', 'b')"),
    ({"kind": "param_groupoid", "n": 4, "t": 2, "u": 1},
     {"kind": "param_groupoid", "n": "4.0", "t": 2, "u": 1},
     "field 'n' must be an integer, got '4.0'"),
    (STRUCTURE_SPECS[-1],
     dict(STRUCTURE_SPECS[-1], components=[
         dict(STRUCTURE_SPECS[-1]["components"][0], kind_tag={"alg": ["semigroup"],
                                                              "neutrosophic": True}),
         STRUCTURE_SPECS[-1]["components"][1]]),
     "field 'alg' must be a str, got ['semigroup']"),
    ({"kind": "param_groupoid", "n": 4, "t": 2, "u": 1},
     {"kind": "param_groupoid", "n": 4.5, "t": 2, "u": 1.9},
     "field 'n' must be an integer, got 4.5"),
    ({"kind": "param_groupoid", "n": 1, "t": 2, "u": 1},
     {"kind": "param_groupoid", "n": True, "t": 2, "u": 1},
     "field 'n' must be an integer, got True"),
    (STRUCTURE_SPECS[2], dict(STRUCTURE_SPECS[2], semigroup="false"),
     "field 'semigroup' must be a bool, got 'false'"),
    ({"kind": "mult_magma", "n": 4}, {"kind": "mult_magma", "n": 4, "neutro": "no"},
     "field 'neutro' must be a bool, got 'no'"),
    (STRUCTURE_SPECS[5], dict(STRUCTURE_SPECS[5], pure_union=1),
     "field 'pure_union' must be a bool, got 1"),
    ({"kind": "cayley", "elements": ["a", "b"], "table": [[0, 1], [1, 0]]},
     {"kind": "cayley", "elements": [["a"], "b"], "table": [[0, 1], [1, 0]]},
     "field 'elements' must hold string labels, got [['a'], 'b']"),
    (STRUCTURE_SPECS[9], {"kind": "neutro_double", "base": {"kind": "neutro_ring", "n": 2}},
     "field 'base' must describe a magma, got ring(Z2+I)"),
    (STRUCTURE_SPECS[-1],
     dict(STRUCTURE_SPECS[-1], components=[
         dict(STRUCTURE_SPECS[-1]["components"][0], kind_tag={"alg": "semigroup",
                                                              "neutrosophic": 1}),
         STRUCTURE_SPECS[-1]["components"][1]]),
     "field 'neutrosophic' must be a bool, got 1"),
    (STRUCTURE_SPECS[8], dict(STRUCTURE_SPECS[8], name=["a"]),
     "field 'name' must be a str, got ['a']"),
    (STRUCTURE_SPECS[9], dict(STRUCTURE_SPECS[9], name=5),
     "field 'name' must be a str, got 5"),
    (STRUCTURE_SPECS[-1], dict(STRUCTURE_SPECS[-1], name=None),
     "field 'name' must be a str, got None"),
    (STRUCTURE_SPECS[9], {"kind": "neutro_double"}, "missing field 'base'"),
    (STRUCTURE_SPECS[0], {"kind": "param_groupoid", "n": 4, "u": 1}, "missing field 't'"),
    (STRUCTURE_SPECS[-1],
     dict(STRUCTURE_SPECS[-1], components=[
         {"kind_tag": {"alg": "semigroup", "neutrosophic": True}},
         STRUCTURE_SPECS[-1]["components"][1]]),
     "missing field 'spec'"),
    (STRUCTURE_SPECS[-1],
     dict(STRUCTURE_SPECS[-1], components=[
         dict(STRUCTURE_SPECS[-1]["components"][0], kind_tag={"neutrosophic": True}),
         STRUCTURE_SPECS[-1]["components"][1]]),
     "missing field 'alg'"),
    (STRUCTURE_SPECS[8], {"kind": "cayley", "elements": ["a", "b"]}, "missing field 'table'"),
    (STRUCTURE_SPECS[10], {"kind": "group_ring", "r": 2}, "missing field 'basis'"),
])
def test_a_failing_spec_still_fails_after_a_look_alike_loads(good, bad, message):
    load_structure(good)
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        load_structure(bad)


def test_a_carrier_no_caller_holds_is_not_kept():
    spec = {"kind": "neutro_ring", "n": 9}
    held = weakref.ref(load_structure(spec))
    gc.collect()
    assert held() is None
    assert len(load_structure(spec)) == 81


def test_a_failed_build_is_not_stored(monkeypatch):
    builds = []

    def flaky(n, t, u):
        builds.append((n, t, u))
        if len(builds) == 1:
            raise ValueError("first build fails")
        return param_groupoid(n, t, u)

    monkeypatch.setattr(io, "param_groupoid", flaky)
    spec = {"kind": "param_groupoid", "n": 3, "t": 1, "u": 2}
    with pytest.raises(ValueError, match="first build fails"):
        load_structure(spec)
    s = load_structure(spec)
    assert load_structure(spec) is s
    assert builds == [(3, 1, 2), (3, 1, 2)]


@pytest.mark.parametrize("uspec, values", [
    (STRUCTURE_SPECS[0], (["0", "2I"], ["0", "2", "2I", "2+2I"])),
    (STRUCTURE_SPECS[10], (["0", "1+g"], ["I"])),
    (STRUCTURE_SPECS[-1], ([["0", "I"], ["e"]], [["0"], []])),
])
def test_soft_files_over_one_universe_spec_combine_under_every_op(uspec, values):
    v, w = values
    f = load_soft({"universe": _copy(uspec), "assign": {"a1": v, "a2": w}})
    k = load_soft({"universe": _copy(uspec), "assign": {"a1": w, "a3": v}})
    assert f.universe is k.universe
    for name, op in sorted(OPS.items()):
        assert op(f, k).universe is f.universe, name


def _shape(c):
    """What a rebuild of `c` must give back: the name, labels and tables of
    `c` and of the carriers it holds."""
    if isinstance(c, GroupRing):
        return c.name, c.r, _shape(c.basis)
    if isinstance(c, NCollection):
        return c.name, [(_shape(p.structure), p.alg, p.neutro) for p in c.components]
    if isinstance(c, FiniteRing):
        return c.name, c.elements, c.add_table, c.mul_table
    return c.name, c.elements, c.table


def _nested(spec):
    """The specs inside `spec`, at every depth: a double's base, a group
    ring's basis and a collection's component specs."""
    inner = [spec[k] for k in ("base", "basis") if k in spec]
    inner += [c["spec"] for c in spec.get("components", ())]
    return inner + [s for x in inner for s in _nested(x)]


def _wipe(doc):
    """Empty every dict and list in `doc`, in place."""
    for v in list(doc.values() if isinstance(doc, dict) else doc):
        if isinstance(v, (dict, list)):
            _wipe(v)
    doc.clear()


def _check_spec(spec):
    """A carrier loaded from `spec` keeps a JSON copy of it as its `spec`,
    which loads to it while it is in use and rebuilds it once it is not.
    The claim carriers, which the `claims` cache holds for the process and
    some of which equal these specs' carriers, are let go first."""
    claims.carriers.cache_clear()
    claims.carrier.cache_clear()
    gc.collect()
    given = _copy(spec)
    c = load_structure(given)
    shape = _shape(c)
    _wipe(given)
    assert c.spec == spec
    assert json.loads(json.dumps(c.spec)) == c.spec
    # a double keeps no reference to its base, so hold every nested carrier
    held = [load_structure(s) for s in _nested(c.spec)]
    assert load_structure(_copy(c.spec)) is c
    again, gone = c.spec, weakref.ref(c)
    del c, held
    gc.collect()
    assert gone() is None
    assert _shape(load_structure(again)) == shape


@pytest.mark.parametrize("spec", STRUCTURE_SPECS)
def test_a_stock_carrier_keeps_the_spec_it_was_loaded_from(spec):
    _check_spec(spec)


@st.composite
def cayley_specs(draw):
    n = draw(st.integers(1, 4))
    row = st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
    return {"kind": "cayley", "elements": ["e%d" % i for i in range(n)],
            "table": draw(st.lists(row, min_size=n, max_size=n))}


@settings(max_examples=25, deadline=None)
@given(cayley_specs())
def test_a_cayley_carrier_keeps_its_spec_alone_doubled_as_a_basis_and_as_a_part(base):
    double = {"kind": "neutro_double", "base": base}
    for spec in (base, double, {"kind": "group_ring", "r": 2, "basis": base},
                 {"kind": "ncollection", "components": [
                     {"spec": base, "kind_tag": {"alg": "groupoid", "neutrosophic": False}},
                     {"spec": double, "kind_tag": {"alg": "groupoid", "neutrosophic": True}}]}):
        _check_spec(spec)


def test_a_soft_set_names_its_universe_only_when_it_was_loaded():
    built = SoftSet(neutro_ring(4), {"a1": ["0", "2I"]})
    assert soft_to_dict(built) == {"params": ["a1"], "assign": {"a1": ["0", "2I"]}}
    ring = load_structure(STRUCTURE_SPECS[3])
    assert soft_to_dict(SoftSet(ring, {"a1": ["0", "2I"]})) == {
        "universe": STRUCTURE_SPECS[3], "params": ["a1"], "assign": {"a1": ["0", "2I"]}}
