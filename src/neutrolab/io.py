"""JSON loading and dumping for structures and soft sets.

A structure spec is a dict with a "kind" key; soft-set files carry
{"universe": <spec>, "assign": {param: value, ...}} where each value is a
list of element labels, of formal sums as text for group rings, or of label
lists for collection universes (see softsets.value_kind).

Loading is memoised: while a carrier loaded from a spec is in use, every
load of an equal spec, nested specs included, returns that same carrier
instead of building and validating another.  A loaded carrier keeps the
spec that first loaded it as its `spec`, and a soft set over it dumps with
that spec as its universe; carriers the builders make have none.

The soft sets and the collections are imported where a soft set or an
"ncollection" spec is loaded or dumped, so loading a magma, a ring or a
group ring loads neither.
"""

import copy
import json
import weakref

from .groupring import GroupRing
from .structures import (
    FiniteMagma,
    _cayley_indices,
    build_from_table,
    cyclic_neutro_group,
    mult_magma,
    neutro_double,
    neutro_ring,
    param_groupoid,
    sym_group,
)


def _get(spec, key):
    """spec[key]; a missing field raises ValueError naming it."""
    try:
        return spec[key]
    except KeyError:
        raise ValueError("missing field %r" % (key,)) from None


def _field(spec, key, cls):
    """spec[key], which must be a `cls`; another value raises ValueError
    naming the field."""
    value = _get(spec, key)
    if not isinstance(value, cls):
        raise ValueError("field %r must be a %s, got %.60r" % (key, cls.__name__, value))
    return value


def _int(spec, key):
    """spec[key], which must be an int (not a bool) or a string of decimal
    digits; another value raises ValueError naming the field."""
    value = _get(spec, key)
    if isinstance(value, str) and value.isascii() and value.isdigit():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError("field %r must be an integer, got %.60r" % (key, value))


def _flag(spec, key, default):
    """spec[key], which must be a JSON boolean, or `default` when absent."""
    return _field(spec, key, bool) if key in spec else default


# The carriers `load_structure` built that are still in use, under their
# builder and its checked arguments.  Carriers are never mutated after
# construction (the algebra view that subsets attaches depends only on the
# tables), so one object serves every load of an equal spec.  An entry goes
# once no caller holds its carrier, and no caller can then tell a fresh
# build from it.
_LOADED = weakref.WeakValueDictionary()


def _memo(spec, build, args):
    """build(*args), or the carrier an earlier load of an equal spec built
    if it is still in use.  `args` are the checked, hashable arguments, with
    nested carriers, themselves loaded through here, as the objects.  A new
    carrier keeps a copy of `spec` as its `spec`; a build that raises
    stores nothing."""
    carrier = _LOADED.get((build, args))
    if carrier is None:
        carrier = build(*args)
        carrier.spec = copy.deepcopy(spec)
        _LOADED[build, args] = carrier
    return carrier


def load_structure(spec):
    """The carrier `spec` describes.  While it is in use, a later load of an
    equal spec returns the same object, so callers share it and must not
    mutate it."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError("a structure spec is a dict with a 'kind' key")
    kind, name = spec["kind"], _field(spec, "name", str) if "name" in spec else ""
    if kind == "param_groupoid":
        return _memo(spec, param_groupoid, (_int(spec, "n"), _int(spec, "t"), _int(spec, "u")))
    if kind == "cyclic_neutro_group":
        return _memo(spec, cyclic_neutro_group, (_int(spec, "m"), _flag(spec, "semigroup", False)))
    if kind == "neutro_ring":
        return _memo(spec, neutro_ring, (_int(spec, "n"),))
    if kind == "mult_magma":
        return _memo(spec, mult_magma, (_int(spec, "n"), _flag(spec, "neutro", True),
                                        _flag(spec, "pure_union", False)))
    if kind == "sym_group":
        return _memo(spec, sym_group, (_int(spec, "k"),))
    if kind == "cayley":
        elements = _field(spec, "elements", list)
        if not all(isinstance(x, str) for x in elements):
            raise ValueError("field 'elements' must hold string labels, got %.60r" % (elements,))
        rows = _cayley_indices(elements, _field(spec, "table", list))
        return _memo(spec, build_from_table, (tuple(elements), rows, name))
    if kind == "neutro_double":
        base = load_structure(_get(spec, "base"))
        if not isinstance(base, FiniteMagma):
            raise ValueError("field 'base' must describe a magma, got %s" % base.name)
        return _memo(spec, neutro_double, (base, name))
    if kind == "group_ring":
        return _memo(spec, GroupRing, (_int(spec, "r"), load_structure(_get(spec, "basis")), name))
    if kind == "ncollection":
        from .ncollect import NCollection

        parts = []
        for c in _field(spec, "components", list):
            if not isinstance(c, dict):
                raise ValueError("a component is a dict with 'spec' and 'kind_tag', got %.60r" % (c,))
            tag = _field(c, "kind_tag", dict)
            parts.append((load_structure(_get(c, "spec")), _field(tag, "alg", str),
                          _field(tag, "neutrosophic", bool)))
        return _memo(spec, NCollection, (tuple(parts), name))
    raise ValueError("unknown structure kind %r" % kind)


def load_structure_file(path):
    with open(path) as fh:
        return load_structure(json.load(fh))


def load_soft(spec, universe=None):
    """The soft set `spec` describes, over the carrier its "universe" spec
    loads to (shared as in `load_structure`), or over `universe` when the
    spec names none."""
    from .softsets import SoftSet, value_kind

    if not isinstance(spec, dict):
        raise ValueError("a soft-set spec is a dict with 'universe' and 'assign' keys")
    if "universe" in spec:
        universe = load_structure(spec["universe"])
    elif universe is None:
        raise ValueError("a soft-set spec needs a 'universe' field")
    load = value_kind(universe).load
    return SoftSet(universe, {p: load(universe, v)
                              for p, v in _field(spec, "assign", dict).items()})


def load_soft_file(path, universe=None):
    with open(path) as fh:
        return load_soft(json.load(fh), universe=universe)


def soft_to_dict(soft):
    """The soft-set dict `load_soft` reads back: the universe's `spec` when
    it was loaded from one, the parameters and each assignment."""
    from .softsets import value_kind

    out = {}
    if getattr(soft.universe, "spec", None) is not None:
        out["universe"] = soft.universe.spec
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
