"""Command-line surface: every subcommand, every exit code."""

import argparse
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neutrolab import claims
from neutrolab.cli import OP_NAMES, _build_parser, main
from neutrolab.softsets import OPS
from test_io import STRUCTURE_SPECS

G421 = {"kind": "param_groupoid", "n": 4, "t": 2, "u": 1}
G1284 = {"kind": "param_groupoid", "n": 12, "t": 8, "u": 4}
RING4 = {"kind": "neutro_ring", "n": 4}
GR256 = {"kind": "group_ring", "r": 2, "basis": {"kind": "cyclic_neutro_group", "m": 4}}
COLL = {"kind": "ncollection", "components": [
    {"spec": {"kind": "mult_magma", "n": 3},
     "kind_tag": {"alg": "semigroup", "neutrosophic": True}},
    {"spec": {"kind": "sym_group", "k": 3},
     "kind_tag": {"alg": "group", "neutrosophic": False}},
]}


def write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def test_build_each_universe_shape(tmp_path, capsys):
    for doc, needle in [(G421, "strongest verified kind"),
                        (RING4, "tables validated"),
                        (GR256, "formal sums"),
                        (COLL, "collection of 2 components")]:
        assert main(["build", write(tmp_path, "s.json", doc)]) == 0
        assert needle in capsys.readouterr().out


def test_build_missing_file_is_usage_error(tmp_path, capsys):
    assert main(["build", str(tmp_path / "absent.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_build_rejects_empty_carriers_and_non_string_labels(tmp_path, capsys):
    for doc in [{"kind": "param_groupoid", "n": 0, "t": 0, "u": 0},
                {"kind": "mult_magma", "n": -3},
                {"kind": "cayley", "elements": [1, 2], "table": [[0, 1], [1, 0]]}]:
        assert main(["build", write(tmp_path, "s.json", doc)]) == 2
        assert "error" in capsys.readouterr().err


def test_no_command_is_usage_error(capsys):
    assert main([]) == 2
    assert main(["not-a-command"]) == 2
    capsys.readouterr()


def test_check_sub_loose_strict_and_unknown(tmp_path, capsys):
    spec = write(tmp_path, "g.json", G421)
    base = ["check-sub", "--structure", spec, "--subset", "0,2",
            "--predicate", "subgroupoid"]
    assert main(base) == 0
    assert "holds: loose-subgroupoid" in capsys.readouterr().out
    assert main(base + ["--strict"]) == 1
    assert "fails:" in capsys.readouterr().out
    assert main(["check-sub", "--structure", spec, "--subset", "0",
                 "--predicate", "mystery"]) == 2
    capsys.readouterr()


def test_check_sub_fails_a_value_the_predicate_refuses_as_soft_check_does(tmp_path, capsys):
    """`lagrange` refuses {0}, which has no indeterminate member: both
    commands report that value as a failure with the refusal (exit 1)."""
    spec = write(tmp_path, "g.json", G421)
    refusal = "not a strict subgroupoid: closed but has no indeterminate member"
    assert main(["check-sub", "--structure", spec, "--subset", "0",
                 "--predicate", "lagrange"]) == 1
    assert capsys.readouterr().out == "fails: %s\n" % refusal
    soft = write(tmp_path, "f.json", {"universe": G421, "assign": {"a1": ["0"]}})
    assert main(["soft-check", "--file", soft, "--predicate", "lagrange"]) == 1
    assert "  a1: %s\n" % refusal in capsys.readouterr().out


def test_check_sub_collection_parts(tmp_path, capsys):
    spec = write(tmp_path, "c.json", COLL)
    assert main(["check-sub", "--structure", spec, "--subset", "0,I ; e",
                 "--predicate", "n-sub", "--strict"]) == 0
    capsys.readouterr()


def test_check_sub_formal_sums(tmp_path, capsys):
    spec = write(tmp_path, "gr.json", {"kind": "group_ring", "r": 2,
                                       "basis": {"kind": "cyclic_neutro_group", "m": 2}})
    base = ["check-sub", "--structure", spec, "--predicate", "gr-subring", "--subset"]
    assert main(base + ["0,I"]) == 0
    assert capsys.readouterr().out == "holds: loose-gr-subring on {0,I}\n"
    assert main(base + ["0,g"]) == 1
    assert 'witness: ["g", "g", "mul", "1"]' in capsys.readouterr().out


def test_check_sub_formal_sum_ideal_has_a_loose_twin(tmp_path, capsys):
    spec = write(tmp_path, "gr.json", {"kind": "group_ring", "r": 2,
                                       "basis": {"kind": "cyclic_neutro_group", "m": 2}})
    base = ["check-sub", "--structure", spec, "--predicate", "gr-ideal", "--subset", "0"]
    assert main(base) == 0
    assert capsys.readouterr().out == "holds: loose-gr-ideal on {0}\n"
    assert main(base + ["--strict"]) == 1
    assert capsys.readouterr().out == "fails: closed but has no indeterminate-supported member\n"


def test_enumerate_matches_library_count(tmp_path, capsys):
    from neutrolab.io import load_structure
    from neutrolab.subsets import enumerate_subs
    spec = write(tmp_path, "g.json", G421)
    assert main(["enumerate", "--structure", spec,
                 "--predicate", "subgroupoid"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    want = enumerate_subs(load_structure(G421), "subgroupoid")
    assert out[-1] == "-- %d subsets satisfy subgroupoid" % len(want)
    assert len(out) == len(want) + 1


def test_classify_magma_and_collection(tmp_path, capsys):
    assert main(["classify", "--structure", write(tmp_path, "g.json", G421)]) == 0
    out = capsys.readouterr().out
    assert "divisibility class: WeaklyLagrange" in out
    assert main(["classify", "--structure", write(tmp_path, "c.json", COLL)]) == 0
    assert "mixed profile:" in capsys.readouterr().out


def test_classify_ring(tmp_path, capsys):
    assert main(["classify", "--structure", write(tmp_path, "r.json", RING4)]) == 0
    assert capsys.readouterr().out == "ring with 16 elements\n"


def test_soft_op_writes_result(tmp_path, capsys):
    lhs = write(tmp_path, "f.json",
                {"universe": G421, "assign": {"a1": ["0", "2I"], "a2": ["0"]}})
    rhs = write(tmp_path, "k.json",
                {"universe": G421, "assign": {"a1": ["0", "2+2I"], "a3": ["0"]}})
    out = str(tmp_path / "u.json")
    assert main(["soft-op", "--op", "restricted-union",
                 "--lhs", lhs, "--rhs", rhs, "-o", out]) == 0
    doc = json.loads((tmp_path / "u.json").read_text())
    assert doc["params"] == ["a1"]
    assert doc["assign"]["a1"] == ["0", "2+2I", "2I"]
    capsys.readouterr()


def test_soft_op_crossed_and(tmp_path, capsys):
    lhs = write(tmp_path, "f.json",
                {"universe": G421, "assign": {"a": ["0", "2I"], "b": ["0", "2"]}})
    rhs = write(tmp_path, "k.json",
                {"universe": G421, "assign": {"a": ["0", "2I", "2+2I"]}})
    out = str(tmp_path / "and.json")
    assert main(["soft-op", "--op", "and", "--lhs", lhs, "--rhs", rhs, "-o", out]) == 0
    assert capsys.readouterr().out == "wrote %s with parameters: a&a, b&a\n" % out
    doc = json.loads((tmp_path / "and.json").read_text())
    assert doc["universe"] == G421
    assert doc["assign"] == {"a&a": ["0", "2I"], "b&a": ["0"]}


def test_soft_op_reads_the_rhs_over_its_own_universe(tmp_path, capsys):
    lhs = write(tmp_path, "f.json",
                {"universe": {"kind": "neutro_ring", "n": 6}, "assign": {"a1": ["0"]}})
    out = tmp_path / "r.json"
    cmd = ["soft-op", "--op", "restricted-intersection", "--lhs", lhs, "-o", str(out)]
    same = write(tmp_path, "same.json",
                 {"universe": {"kind": "neutro_ring", "n": "6"}, "assign": {"a1": ["0", "3"]}})
    assert main(cmd + ["--rhs", same]) == 0
    assert json.loads(out.read_text())["assign"] == {"a1": ["0"]}
    out.unlink()
    other = write(tmp_path, "other.json", {"universe": G421, "assign": {"a1": ["0"]}})
    assert main(cmd + ["--rhs", other]) == 2
    assert "soft sets live over different universes" in capsys.readouterr().err
    assert not out.exists()


def test_soft_op_reads_an_rhs_without_a_universe_over_the_lhs_one(tmp_path, capsys):
    lhs = write(tmp_path, "f.json",
                {"universe": {"kind": "neutro_ring", "n": 6}, "assign": {"a1": ["0", "3I"]}})
    rhs = write(tmp_path, "k.json", {"assign": {"a1": ["3I", "5+3I"]}})
    out = tmp_path / "r.json"
    assert main(["soft-op", "--op", "restricted-intersection",
                 "--lhs", lhs, "--rhs", rhs, "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["universe"] == {"kind": "neutro_ring", "n": 6}
    assert doc["assign"] == {"a1": ["3I"]}
    capsys.readouterr()


def test_soft_op_flag_misuse_and_missing_share(tmp_path, capsys):
    lhs = write(tmp_path, "f.json", {"universe": G421, "assign": {"a1": ["0"]}})
    rhs = write(tmp_path, "k.json", {"universe": G421, "assign": {"a2": ["0"]}})
    out = str(tmp_path / "u.json")
    assert main(["soft-op", "--op", "restricted-union",
                 "--lhs", lhs, "--rhs", rhs, "-o", out]) == 2
    # the union over every parameter is `--op extended-union`, under one name
    assert main(["soft-op", "--op", "restricted-union", "--union-all-params",
                 "--lhs", lhs, "--rhs", rhs, "-o", out]) == 2
    assert main(["soft-op", "--op", "nonsense",
                 "--lhs", lhs, "--rhs", rhs, "-o", out]) == 2
    capsys.readouterr()


def test_soft_op_offers_exactly_the_soft_set_operations(capsys):
    """The parser names the operations without importing the soft sets; its
    choices stay those of softsets.OPS, in order."""
    assert OP_NAMES == tuple(sorted(OPS))
    assert main(["soft-op", "--help"]) == 0
    assert "{%s}" % ",".join(sorted(OPS)) in capsys.readouterr().out


def test_readme_command_line_names_exactly_the_parsers_commands_and_options():
    """A subcommand or `--option` the parser drops cannot stay documented,
    and one it gains must be."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    parser = _build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    options = {s for p in commands.values() for a in p._actions
               for s in a.option_strings if s.startswith("--")} - {"--help"}
    assert set(re.findall(r"^neutrolab ([a-z-]+)", section, re.M)) == set(commands)
    assert set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section)) == options


def test_soft_check(tmp_path, capsys):
    good = write(tmp_path, "f.json",
                 {"universe": G421,
                  "assign": {"a1": ["0", "2", "2I", "2+2I"], "a2": ["0", "2I"]}})
    assert main(["soft-check", "--file", good, "--predicate", "subgroupoid"]) == 0
    bad = write(tmp_path, "b.json",
                {"universe": G421, "assign": {"a1": ["0", "1"]}})
    assert main(["soft-check", "--file", bad, "--predicate", "subgroupoid"]) == 1
    out = capsys.readouterr().out
    assert "fails:" in out and "a1" in out


def test_verify_filter_text_and_json(capsys):
    assert main(["verify", "--filter", "ch1", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "example-1.1.3" in out and "ok" in out
    assert main(["verify", "--filter", "prop-2.1.*", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert {d["claim_id"] for d in data} == {"prop-2.1.1", "prop-2.1.2",
                                             "prop-2.1.3"}
    assert all(d["status"] == "Holds" for d in data)


def test_verify_bad_filter(capsys):
    assert main(["verify", "--filter", "ch9"]) == 2
    assert "error:" in capsys.readouterr().err


def test_hunt_counterexample(tmp_path, capsys):
    spec = write(tmp_path, "g.json", G421)
    assert main(["hunt", "--template", "extended-union:subgroupoid",
                 "--universe", spec]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "CounterexampleFound"
    assert doc["witness"]["kind"] == "union-violation"


def test_hunt_holds_after_sweeping_every_pair(tmp_path, capsys):
    spec = write(tmp_path, "r.json", {"kind": "neutro_ring", "n": 6})
    assert main(["hunt", "--template", "and:subring", "--universe", spec]) == 0
    doc = json.loads(capsys.readouterr().out)
    # 21 subrings, 21 * 21 ordered pairs, one value each
    assert (doc["status"], doc["trials"]) == ("Holds", 441)


def test_hunt_budget_starvation(tmp_path, capsys):
    spec = write(tmp_path, "g.json", G421)
    assert main(["hunt", "--template", "extended-union:subgroupoid",
                 "--universe", spec, "--budget", "1"]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "Skipped(budget)"


@pytest.mark.parametrize("budget", ["0", "-3"])
def test_hunt_budget_below_one_is_a_usage_error(tmp_path, capsys, budget):
    spec = write(tmp_path, "g.json", G421)
    assert main(["hunt", "--template", "extended-union:subgroupoid",
                 "--universe", spec, "--budget", budget]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "--budget must be at least 1, got %s" % budget in err


def test_hunt_resource_cap(tmp_path, capsys):
    # more than subsets.GENERATE_COUNT_LIMIT closed sets to hunt over
    spec = write(tmp_path, "g.json", G1284)
    assert main(["hunt", "--template", "extended-union:subgroupoid",
                 "--universe", spec]) == 3
    assert "resource cap" in capsys.readouterr().err


def test_hunt_usage_errors(tmp_path, capsys):
    spec = write(tmp_path, "g.json", G421)
    assert main(["hunt", "--template", "no-colon", "--universe", spec]) == 2
    assert main(["hunt", "--template", "sideways-union:subgroupoid",
                 "--universe", spec]) == 2
    capsys.readouterr()


def test_hunt_witness_replays_through_soft_op(tmp_path, capsys):
    """The operands a hunt prints name their universe, so `soft-op` rebuilds
    the failing result from them and `soft-check` refuses it at the witness
    parameter."""
    spec = write(tmp_path, "r.json", {"kind": "neutro_ring", "n": 6})
    assert main(["hunt", "--template", "extended-union:subring", "--universe", spec]) == 0
    witness = json.loads(capsys.readouterr().out)["witness"]
    lhs, rhs = (write(tmp_path, side + ".json", witness[side]) for side in ("lhs", "rhs"))
    out = str(tmp_path / "out.json")
    assert main(["soft-op", "--op", "extended-union", "--lhs", lhs, "--rhs", rhs, "-o", out]) == 0
    capsys.readouterr()
    assert main(["soft-check", "--file", out, "--predicate", "loose-subring"]) == 1
    assert "  %s: %s" % (witness["param"], witness["reason"]) in capsys.readouterr().out
    assert main(["soft-check", "--file", write(tmp_path, "bare.json", {"assign": {}}),
                 "--predicate", "loose-subring"]) == 2
    assert "'universe'" in capsys.readouterr().err


def test_every_verify_counterexample_replays_through_soft_op(tmp_path, capsys):
    """Each counterexample `verify --seed 0` reports names its universe in
    both operands, so `soft-op` rebuilds the failing result from the two
    files and `soft-check` with the row's predicate refuses it at the
    witness parameter, with the witness's reason; `lagrange` rows included,
    whose value {0} the predicate refuses outright."""
    assert main(["verify", "--seed", "0", "--format", "json"]) == 0
    rows = [r for r in json.loads(capsys.readouterr().out)
            if r["status"] == "CounterexampleFound"]
    assert len(rows) == 20
    for row in rows:
        witness = row["witness"]
        predicate = claims.claim_by_id(row["claim_id"]).runner.keywords["predicate"]
        lhs, rhs = (write(tmp_path, side + ".json", witness[side]) for side in ("lhs", "rhs"))
        out = str(tmp_path / "out.json")
        assert main(["soft-op", "--op", witness["op"], "--lhs", lhs, "--rhs", rhs,
                     "-o", out]) == 0, row["claim_id"]
        capsys.readouterr()
        assert main(["soft-check", "--file", out, "--predicate", predicate]) == 1, row["claim_id"]
        assert "\n  %s: %s" % (witness["param"], witness["reason"]) in capsys.readouterr().out
    assert main(["soft-check", "--file", out, "--predicate", "lagrnage"]) == 2
    assert "lagrnage" in capsys.readouterr().err


# the Klein four-group doubled by I: {e, aI} and {e, bI} are subgroupoids
# whose union is not closed
V4_DOUBLE = {"kind": "neutro_double", "name": "V4+I", "base": {
    "kind": "cayley", "elements": ["e", "a", "b", "c"],
    "table": [["e", "a", "b", "c"], ["a", "e", "c", "b"],
              ["b", "c", "e", "a"], ["c", "b", "a", "e"]]}}


def test_hunt_over_a_cayley_double_names_its_file_in_both_operands(tmp_path, capsys):
    spec = write(tmp_path, "v4.json", V4_DOUBLE)
    assert main(["hunt", "--template", "extended-union:subgroupoid", "--universe", spec]) == 0
    witness = json.loads(capsys.readouterr().out)["witness"]
    assert witness["lhs"]["universe"] == witness["rhs"]["universe"] == V4_DOUBLE
    lhs, rhs = (write(tmp_path, side + ".json", witness[side]) for side in ("lhs", "rhs"))
    out = str(tmp_path / "out.json")
    assert main(["soft-op", "--op", "extended-union", "--lhs", lhs, "--rhs", rhs, "-o", out]) == 0
    capsys.readouterr()
    assert json.loads(Path(out).read_text())["universe"] == V4_DOUBLE
    assert main(["soft-check", "--file", out, "--predicate", "loose-subgroupoid"]) == 1
    assert "  %s: %s" % (witness["param"], witness["reason"]) in capsys.readouterr().out


def test_soft_op_over_a_collection_writes_the_lhs_universe(tmp_path, capsys):
    lhs = write(tmp_path, "f.json", {"universe": COLL, "assign": {"a1": [["0", "I"], ["e"]]}})
    rhs = write(tmp_path, "k.json", {"assign": {"a1": [["0"], ["e", "(12)"]]}})
    out = tmp_path / "and.json"
    assert main(["soft-op", "--op", "and", "--lhs", lhs, "--rhs", rhs, "-o", str(out)]) == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    assert doc["universe"] == COLL
    assert doc["assign"] == {"a1&a1": [["0"], ["e"]]}


MALFORMED = [
    (["build"], {"kind": "ncollection", "components": 5}, "'components'"),
    (["build"], {"kind": "cayley", "elements": ["a"], "table": 7}, "'table'"),
    (["build"], {"kind": "cayley", "elements": ["a"], "table": [[None]]}, "table entry None"),
    (["build"], {"kind": "param_groupoid", "n": [4], "t": 2, "u": 1}, "'n'"),
    (["soft-check", "--predicate", "subgroupoid", "--file"],
     {"universe": G421, "assign": 5}, "'assign'"),
    (["soft-op", "--op", "and", "-o", "OUT", "--rhs", "GOOD", "--lhs"],
     {"universe": G421, "assign": 5}, "'assign'"),
    (["build"], {"kind": "cayley", "elements": ["a"], "table": [[0]], "name": ["a"]}, "'name'"),
]


@pytest.mark.parametrize("command, doc, field", MALFORMED)
def test_malformed_input_is_an_input_error(tmp_path, capsys, command, doc, field):
    """A file of the wrong shape exits 2 with the bad field named, not 1
    with a traceback."""
    paths = {"GOOD": write(tmp_path, "good.json", {"universe": G421, "assign": {"a": ["0"]}}),
             "OUT": str(tmp_path / "out.json")}
    assert main([paths.get(a, a) for a in command] + [write(tmp_path, "bad.json", doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err


def _fields(doc, path=()):
    """The key path of every field and list item in a spec, nested ones too."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _fields(value, path + (key,))


SPEC_FIELDS = [(i, path) for i, spec in enumerate(STRUCTURE_SPECS) for path in _fields(spec)]
# small integers only: sym_group(6) alone has 720 elements
FIELD_VALUES = [None, True, False, *range(-1, 6), 4.5, "x", [], {}, ["a"],
                {"kind": "neutro_ring", "n": 2}, {"kind": "sym_group", "k": 2}]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(SPEC_FIELDS), st.sampled_from(FIELD_VALUES))
def test_a_spec_with_one_field_replaced_builds_or_is_an_input_error(field, value):
    """`build` on a stock spec with one field replaced exits 0 or 2, never 1
    with a traceback."""
    i, (*outer, last) = field
    doc = json.loads(json.dumps(STRUCTURE_SPECS[i]))
    parent = doc
    for key in outer:
        parent = parent[key]
    parent[last] = value
    with tempfile.TemporaryDirectory() as tmp:
        spec = Path(tmp) / "s.json"
        spec.write_text(json.dumps(doc))
        assert main(["build", str(spec)]) in (0, 2)
