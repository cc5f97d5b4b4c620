"""Finite computational algebra for indeterminacy-extended structures.

Scalars a+bI with I^2 = I over Z_n; finite groupoids, rings, group rings,
and multi-component collections built from them; soft sets over any of
those carriers; decision procedures for every substructure predicate; and
a claim registry with an exhaustive/randomized verification harness and
counterexample hunter.

Importing the package loads none of its modules.  `_HOMES` names each
module and the names the package exports from it; `__all__` lists those
names, and the first use of one (or of a module, as `neutrolab.subsets`)
imports its home module through the module `__getattr__` (PEP 562).  So a
command pays only for the modules it runs: `enumerate` never loads the soft
sets, the symbolic carriers or the claim engine.
"""

import importlib

__version__ = "0.1.0"

# module -> the names the package exports from it
_HOMES = {
    "scalars": ("ns_add", "ns_classify", "ns_elements", "ns_format", "ns_mul", "ns_neg",
                "ns_parse", "ns_scale", "ns_sub"),
    "structures": ("FiniteMagma", "FiniteRing", "ResourceCap", "alternating_labels",
                   "build_from_table", "cyclic_neutro_group", "label_is_neutro",
                   "label_is_zero", "mult_magma", "neutro_double", "neutro_ring",
                   "param_groupoid", "sym_group", "verify_kind"),
    "groupring": ("GroupRing",),
    "subsets": ("LagrangeReport", "Verdict", "check_predicate", "classify_lagrange",
                "closure", "enumerate_subs", "gr_is_ideal", "gr_is_pseudo_subring",
                "gr_is_subneutro", "gr_is_subring", "is_ideal", "is_lagrange_sub",
                "is_ring_ideal", "is_strong_subgroupoid", "is_subgroupoid", "is_subring"),
    "softsets": ("LAGRANGE", "LAGRANGE_FREE", "WEAKLY_LAGRANGE", "OPS", "SoftReport",
                 "SoftSet", "and_op", "extended_intersection", "extended_union",
                 "is_absolute", "or_op", "restricted_intersection", "restricted_union",
                 "soft_ideal_of", "soft_is", "soft_lagrange_class", "soft_neutro_params",
                 "soft_sub_of"),
    "ncollect": ("MIXED", "MIXED_DUAL", "WEAK_MIXED", "WEAK_MIXED_DUAL", "Component",
                 "NCollection", "classify_mixed", "is_deficit_sub", "is_n_ideal",
                 "is_n_sub", "lagrange_mixed"),
    "symbolic": ("NamedRing", "SymGroupRing", "SymUnion", "sym_contains", "sym_gr_contains",
                 "sym_gr_ideal_of", "sym_gr_subring_of", "sym_ideal_of", "sym_intersect",
                 "sym_is_field", "sym_is_neutro_field", "sym_subring_of",
                 "sym_union_substructure"),
    "io": ("load_soft", "load_soft_file", "load_structure", "load_structure_file",
           "soft_to_dict"),
    "engine": ("Claim", "Report", "claim_matches", "emit", "run_claim", "run_closure_prop",
               "run_remark_hunt", "run_suite"),
    "claims": ("claim_by_id", "registry"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    if name in _HOMES:
        return importlib.import_module("." + name, __name__)
    if name not in _HOME:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = globals()[name] = getattr(importlib.import_module("." + _HOME[name], __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
