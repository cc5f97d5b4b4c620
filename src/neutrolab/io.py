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


def _field(spec, key, cls):
    """spec[key], which must be a `cls`; another value raises ValueError
    naming the field."""
    value = spec[key]
    if not isinstance(value, cls):
        raise ValueError("field %r must be a %s, got %.60r" % (key, cls.__name__, value))
    return value


def _int(spec, key):
    try:
        return int(spec[key])
    except (TypeError, ValueError):
        raise ValueError("field %r must be an integer, got %.60r" % (key, spec[key])) from None


def load_structure(spec):
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError("a structure spec is a dict with a 'kind' key")
    kind = spec["kind"]
    if kind == "param_groupoid":
        return param_groupoid(_int(spec, "n"), _int(spec, "t"), _int(spec, "u"))
    if kind == "cyclic_neutro_group":
        return cyclic_neutro_group(_int(spec, "m"), bool(spec.get("semigroup", False)))
    if kind == "neutro_ring":
        return neutro_ring(_int(spec, "n"))
    if kind == "mult_magma":
        return mult_magma(_int(spec, "n"), bool(spec.get("neutro", True)),
                          bool(spec.get("pure_union", False)))
    if kind == "sym_group":
        return sym_group(_int(spec, "k"))
    if kind == "cayley":
        return build_from_table(_field(spec, "elements", list), _field(spec, "table", list),
                                name=spec.get("name", ""))
    if kind == "neutro_double":
        return neutro_double(load_structure(spec["base"]), name=spec.get("name", ""))
    if kind == "group_ring":
        return GroupRing(_int(spec, "r"), load_structure(spec["basis"]),
                         name=spec.get("name", ""))
    if kind == "ncollection":
        comps = []
        for c in _field(spec, "components", list):
            if not isinstance(c, dict):
                raise ValueError("a component is a dict with 'spec' and 'kind_tag', got %.60r" % (c,))
            tag = _field(c, "kind_tag", dict)
            comps.append(Component(load_structure(c["spec"]), tag["alg"],
                                   bool(tag["neutrosophic"])))
        return NCollection(comps, name=spec.get("name", ""))
    raise ValueError("unknown structure kind %r" % kind)


def load_structure_file(path):
    with open(path) as fh:
        return load_structure(json.load(fh))


def load_soft(spec, universe=None):
    if not isinstance(spec, dict):
        raise ValueError("a soft-set spec is a dict with 'universe' and 'assign' keys")
    if universe is None:
        universe = load_structure(spec["universe"])
    load = value_kind(universe).load
    return SoftSet(universe, {p: load(universe, v)
                              for p, v in _field(spec, "assign", dict).items()})


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
