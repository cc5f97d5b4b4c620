"""Finite computational algebra for indeterminacy-extended structures.

Scalars a+bI with I^2 = I over Z_n; finite groupoids, rings, group rings,
and multi-component collections built from them; soft sets over any of
those carriers; decision procedures for every substructure predicate; and
a claim registry with an exhaustive/randomized verification harness and
counterexample hunter.
"""

import importlib

from .scalars import (
    ns_add,
    ns_classify,
    ns_elements,
    ns_format,
    ns_mul,
    ns_neg,
    ns_parse,
    ns_scale,
    ns_sub,
)
from .structures import (
    FiniteMagma,
    FiniteRing,
    ResourceCap,
    alternating_labels,
    build_from_table,
    cyclic_neutro_group,
    label_is_neutro,
    label_is_zero,
    mult_magma,
    neutro_double,
    neutro_ring,
    param_groupoid,
    sym_group,
    verify_kind,
)
from .groupring import GroupRing, group_ring
from .subsets import (
    LagrangeReport,
    Verdict,
    check_predicate,
    classify_lagrange,
    closure,
    enumerate_subs,
    gr_is_ideal,
    gr_is_pseudo_subring,
    gr_is_subneutro,
    gr_is_subring,
    is_ideal,
    is_lagrange_sub,
    is_ring_ideal,
    is_strong_subgroupoid,
    is_subgroupoid,
    is_subring,
)
from .softsets import (
    LAGRANGE,
    LAGRANGE_FREE,
    WEAKLY_LAGRANGE,
    OPS,
    SoftReport,
    SoftSet,
    and_op,
    extended_intersection,
    extended_union,
    is_absolute,
    or_op,
    restricted_intersection,
    restricted_union,
    soft_ideal_of,
    soft_is,
    soft_lagrange_class,
    soft_neutro_params,
    soft_sub_of,
)
from .ncollect import (
    MIXED,
    MIXED_DUAL,
    WEAK_MIXED,
    WEAK_MIXED_DUAL,
    Component,
    NCollection,
    classify_mixed,
    is_deficit_sub,
    is_n_ideal,
    is_n_sub,
    lagrange_mixed,
)
from .symbolic import (
    NamedRing,
    SymGroupRing,
    SymUnion,
    sym_contains,
    sym_gr_contains,
    sym_gr_ideal_of,
    sym_gr_subring_of,
    sym_ideal_of,
    sym_intersect,
    sym_is_field,
    sym_is_neutro_field,
    sym_subring_of,
    sym_union_substructure,
)
from .io import (
    load_soft,
    load_soft_file,
    load_structure,
    load_structure_file,
    soft_to_dict,
)

# the claim engine and registry load on first use: computing with structures
# does not need them, and importing them holds about 1 MB more
_LAZY = {name: "engine" for name in ("Claim", "Report", "claim_matches", "emit", "run_claim",
                                     "run_closure_prop", "run_remark_hunt", "run_suite")}
_LAZY.update(claim_by_id="claims", registry="claims")


def __getattr__(name):
    if name in ("engine", "claims"):
        return importlib.import_module("." + name, __name__)
    if name in _LAZY:
        return getattr(importlib.import_module("." + _LAZY[name], __name__), name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))

__version__ = "0.1.0"

__all__ = [
    "ns_add", "ns_classify", "ns_elements", "ns_format", "ns_mul", "ns_neg",
    "ns_parse", "ns_scale", "ns_sub",
    "FiniteMagma", "FiniteRing", "ResourceCap", "alternating_labels",
    "build_from_table", "cyclic_neutro_group", "label_is_neutro",
    "label_is_zero", "mult_magma", "neutro_double", "neutro_ring",
    "param_groupoid", "sym_group", "verify_kind",
    "GroupRing", "group_ring",
    "LagrangeReport", "Verdict", "check_predicate", "classify_lagrange",
    "closure", "enumerate_subs", "gr_is_ideal", "gr_is_pseudo_subring",
    "gr_is_subneutro", "gr_is_subring", "is_ideal", "is_lagrange_sub",
    "is_ring_ideal", "is_strong_subgroupoid", "is_subgroupoid", "is_subring",
    "LAGRANGE", "LAGRANGE_FREE", "WEAKLY_LAGRANGE", "OPS", "SoftReport",
    "SoftSet", "and_op", "extended_intersection", "extended_union",
    "is_absolute", "or_op", "restricted_intersection", "restricted_union",
    "soft_ideal_of", "soft_is", "soft_lagrange_class", "soft_neutro_params",
    "soft_sub_of",
    "MIXED", "MIXED_DUAL", "WEAK_MIXED", "WEAK_MIXED_DUAL", "Component",
    "NCollection", "classify_mixed", "is_deficit_sub", "is_n_ideal",
    "is_n_sub", "lagrange_mixed",
    "NamedRing", "SymGroupRing", "SymUnion", "sym_contains",
    "sym_gr_contains", "sym_gr_ideal_of", "sym_gr_subring_of", "sym_ideal_of",
    "sym_intersect", "sym_is_field", "sym_is_neutro_field", "sym_subring_of",
    "sym_union_substructure",
    "load_soft", "load_soft_file", "load_structure", "load_structure_file",
    "soft_to_dict",
    "Claim", "Report", "claim_matches", "emit", "run_claim",
    "run_closure_prop", "run_remark_hunt",
    "run_suite",
    "claim_by_id", "registry",
]
