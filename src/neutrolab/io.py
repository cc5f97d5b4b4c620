"""JSON loading and dumping for structures and soft sets.

A structure spec is a dict with a "kind" key; soft-set files carry
{"universe": <spec>, "assign": {param: value, ...}} where each value is a
list of element labels, of formal sums as text for group rings, or of label
lists for collection universes (see softsets.value_kind).
"""

import json

from .groupring import GroupRing
from .ncollect import Component, NCollection
from .softsets import SoftSet, value_kind
from .structures import (
    build_from_table,
    cyclic_neutro_group,
    mult_magma,
    neutro_double,
    neutro_ring,
    param_groupoid,
    sym_group,
)


def load_structure(spec):
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError("a structure spec is a dict with a 'kind' key")
    kind = spec["kind"]
    if kind == "param_groupoid":
        return param_groupoid(int(spec["n"]), int(spec["t"]), int(spec["u"]))
    if kind == "cyclic_neutro_group":
        return cyclic_neutro_group(int(spec["m"]), bool(spec.get("semigroup", False)))
    if kind == "neutro_ring":
        return neutro_ring(int(spec["n"]))
    if kind == "mult_magma":
        return mult_magma(int(spec["n"]), bool(spec.get("neutro", True)),
                          bool(spec.get("pure_union", False)))
    if kind == "sym_group":
        return sym_group(int(spec["k"]))
    if kind == "cayley":
        return build_from_table(list(spec["elements"]), spec["table"],
                                name=spec.get("name", ""))
    if kind == "neutro_double":
        return neutro_double(load_structure(spec["base"]), name=spec.get("name", ""))
    if kind == "group_ring":
        return GroupRing(int(spec["r"]), load_structure(spec["basis"]),
                         name=spec.get("name", ""))
    if kind == "ncollection":
        comps = []
        for c in spec["components"]:
            tag = c["kind_tag"]
            comps.append(Component(load_structure(c["spec"]), tag["alg"],
                                   bool(tag["neutrosophic"])))
        return NCollection(comps, name=spec.get("name", ""))
    raise ValueError("unknown structure kind %r" % kind)


def load_structure_file(path):
    with open(path) as fh:
        return load_structure(json.load(fh))


def load_soft(spec, universe=None):
    if universe is None:
        universe = load_structure(spec["universe"])
    load = value_kind(universe).load
    return SoftSet(universe, {p: load(universe, v) for p, v in spec["assign"].items()})


def load_soft_file(path, universe=None):
    with open(path) as fh:
        return load_soft(json.load(fh), universe=universe)


def soft_to_dict(soft, universe_spec=None):
    out = {}
    if universe_spec is not None:
        out["universe"] = universe_spec
    out["params"] = list(soft.params)
    dump = value_kind(soft.universe).dump
    out["assign"] = {p: dump(soft.universe, soft.value(p)) for p in soft.params}
    return out


def json_plain(x):
    """Recursively convert tuples/frozensets so json.dumps accepts the value."""
    if isinstance(x, dict):
        return {str(k): json_plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [json_plain(v) for v in x]
    if isinstance(x, (set, frozenset)):
        return sorted(json_plain(v) for v in x)
    if x is None or isinstance(x, (bool, int, float, str)):
        return x
    return str(x)
