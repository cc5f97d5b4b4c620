"""Command-line interface.

Exit codes: 0 success, 1 a checked claim or predicate failed, 2 usage or
input error, 3 resource cap reached (including exhausted hunt budgets).
"""

import argparse
import json
import sys

from .io import json_plain, load_soft_file, load_structure_file, soft_to_dict
from .structures import ResourceCap

# Each command imports the modules it runs, so a cold `enumerate` loads no
# soft sets, collections, symbolic carriers or claim engine.  The choices of
# `soft-op --op` are the names of softsets.OPS, written out so that building
# the parser imports no soft sets; a test keeps the two equal.
OP_NAMES = ("and", "extended-intersection", "extended-union", "or",
            "restricted-intersection", "restricted-union")


def _parse_subset(text):
    """Labels separated by ',', and collection parts by ';'."""
    def labels(part):
        return [x.strip() for x in part.split(",") if x.strip()]

    return [labels(p) for p in text.split(";")] if ";" in text else labels(text)


def _format_subset(plain):
    """A dumped value in the syntax `_parse_subset` reads."""
    if all(isinstance(x, str) for x in plain):
        return ",".join(plain)
    return "; ".join(map(_format_subset, plain))


def _cmd_build(args):
    from .groupring import GroupRing
    from .structures import FiniteMagma, FiniteRing, verify_kind

    s = load_structure_file(args.spec)
    if isinstance(s, FiniteMagma):
        rep = verify_kind(s)
        print("%s: magma with %d elements; strongest verified kind: %s"
              % (s.name, len(s), rep.best()))
        if rep.identity is not None:
            print("identity: %s" % rep.identity)
    elif isinstance(s, FiniteRing):
        print("%s: ring with %d elements (tables validated)" % (s.name, len(s)))
    elif isinstance(s, GroupRing):
        print("%s: formal sums over %d basis elements, %d in total"
              % (s.name, len(s.basis), len(s)))
    else:  # a collection, the one other kind io loads
        print("%s: collection of %d components, total order %d"
              % (s.name, len(s), s.order()))
        for c in s.components:
            print("  %s: %s%s, %d elements"
                  % (c.name, c.alg, " (indeterminate)" if c.neutro else "",
                     len(c.structure)))
    return 0


def _cmd_check_sub(args):
    from .engine import result_predicate
    from .softsets import value_kind

    universe = load_structure_file(args.structure)
    kind = value_kind(universe)
    value = kind.load(universe, _parse_subset(args.subset))
    name = args.predicate if args.strict else result_predicate(args.predicate)
    v = kind.decide(universe, name)(value)
    if v.ok:
        print("holds: %s on {%s}" % (name, _format_subset(kind.dump(universe, value))))
        return 0
    print("fails: %s" % (v.note or "predicate failed"))
    if v.witness:
        print("witness: %s" % (json.dumps(json_plain(v.witness)),))
    return 1


def _cmd_enumerate(args):
    from .subsets import enumerate_subs

    universe = load_structure_file(args.structure)
    subs = enumerate_subs(universe, args.predicate)
    for s in subs:
        print(",".join(sorted(s, key=universe.idx)))
    print("-- %d subsets satisfy %s" % (len(subs), args.predicate))
    return 0


def _cmd_classify(args):
    from .ncollect import NCollection, classify_mixed
    from .structures import FiniteMagma, FiniteRing, verify_kind
    from .subsets import classify_lagrange

    universe = load_structure_file(args.structure)
    if isinstance(universe, NCollection):
        print("mixed profile: %s (order %d)"
              % (classify_mixed(universe), universe.order()))
        return 0
    if isinstance(universe, FiniteMagma):
        rep = verify_kind(universe)
        lag = classify_lagrange(universe)
        print("kind: %s" % rep.best())
        print("divisibility class: %s (%d dividing, %d non-dividing)"
              % (lag.verdict, len(lag.dividing), len(lag.non_dividing)))
        return 0
    if isinstance(universe, FiniteRing):
        print("ring with %d elements" % len(universe))
        return 0
    raise ValueError("nothing to classify for this universe")


def _cmd_soft_op(args):
    from .softsets import OPS

    f = load_soft_file(args.lhs)
    k = load_soft_file(args.rhs, universe=f.universe)
    res = OPS[args.op](f, k)
    out = soft_to_dict(res)
    with open(args.output, "w") as fh:
        json.dump(out, fh, indent=2)
        fh.write("\n")
    print("wrote %s with parameters: %s" % (args.output, ", ".join(res.params)))
    return 0


def _cmd_soft_check(args):
    from .softsets import soft_is

    rep = soft_is(load_soft_file(args.file), args.predicate)
    if rep.ok:
        print("holds: every assignment satisfies %s" % args.predicate)
        return 0
    print("fails: %s" % rep.note)
    for p, v in rep.failures:
        line = "  %s: %s" % (p, v.note or "predicate failed")
        if v.witness:
            line += "  witness %s" % (json.dumps(json_plain(v.witness)),)
        print(line)
    return 1


def _cmd_verify(args):
    from .claims import registry
    from .engine import emit, run_suite

    reg = registry()
    reports, ok = run_suite(reg, filter_pat=args.filter, seed=args.seed)
    print(emit(reports, fmt=args.format, registry=reg))
    return 0 if ok else 1


def _cmd_hunt(args):
    from .engine import STATUS_COUNTEREXAMPLE, STATUS_HOLDS, result_predicate, run_remark_hunt
    from .subsets import enumerate_subs

    if args.budget < 1:
        raise ValueError("--budget must be at least 1, got %d" % args.budget)
    if ":" not in args.template:
        raise ValueError("template must look like <operation>:<predicate>")
    op_name, predicate = args.template.split(":", 1)
    if op_name not in OP_NAMES:
        raise ValueError("unknown operation %r; choices: %s" % (op_name, ", ".join(OP_NAMES)))
    universe = load_structure_file(args.universe)
    population = enumerate_subs(universe, predicate)
    status, witness, trials = run_remark_hunt(
        universe, op_name, result_predicate(predicate),
        population=population, budget=args.budget, exhaustive=True)
    print(json.dumps({"status": status, "witness": json_plain(witness),
                      "trials": trials}, indent=2))
    if status in (STATUS_COUNTEREXAMPLE, STATUS_HOLDS):
        return 0
    return 3


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="neutrolab",
        description="Finite computational toolkit for soft neutrosophic "
                    "algebra: build structures, decide predicates, verify "
                    "the registered claims, and hunt counterexamples.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="construct a structure from a JSON spec")
    p.add_argument("spec")
    p.set_defaults(fn=_cmd_build)

    p = sub.add_parser("check-sub", help="test a subset predicate")
    p.add_argument("--structure", required=True)
    p.add_argument("--subset", required=True,
                   help="comma-separated labels; ';' separates collection parts")
    p.add_argument("--predicate", required=True)
    p.add_argument("--strict", action="store_true",
                   help="require an indeterminate member where applicable")
    p.set_defaults(fn=_cmd_check_sub)

    p = sub.add_parser("enumerate", help="list all subsets with a predicate")
    p.add_argument("--structure", required=True)
    p.add_argument("--predicate", required=True)
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("classify", help="classification report for a structure")
    p.add_argument("--structure", required=True)
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("soft-op", help="combine two soft-set files")
    p.add_argument("--op", required=True, choices=OP_NAMES)
    p.add_argument("--lhs", required=True)
    p.add_argument("--rhs", required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=_cmd_soft_op)

    p = sub.add_parser("soft-check", help="test a predicate on a soft-set file")
    p.add_argument("--file", required=True)
    p.add_argument("--predicate", required=True)
    p.set_defaults(fn=_cmd_soft_check)

    p = sub.add_parser("verify", help="run the registered claim suite")
    p.add_argument("--filter", default=None,
                   help="claim id, glob pattern, or chN for one chapter")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("hunt", help="search for a closure counterexample")
    p.add_argument("--template", required=True,
                   help="<operation>:<predicate>, e.g. extended-union:subgroupoid")
    p.add_argument("--universe", required=True)
    p.add_argument("--budget", type=int, default=10_000)
    p.set_defaults(fn=_cmd_hunt)

    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return args.fn(args)
    except ResourceCap as cap:
        print("resource cap: %s" % cap, file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
