"""Toric surface lab: exact classification tools for smooth complete toric
surfaces carrying a finite symmetry group of fan automorphisms.

The pipeline: validate a fan, compute its symmetry, contract equivariant
(-1)-curve orbits to a minimal model, build and certify a permutation basis
of line-bundle classes in K0, assemble the full exceptional collection, and
emit the symbolic motivic decomposition into separable-algebra factors.

Importing the package loads no submodule.  Each public name below imports
the submodule that defines it on first access (PEP 562), so a CLI command
loads only the stages it runs: `validate` loads lattice_fan and intlinalg;
`aut` and `classify-group` add symmetry; `k0-verify` adds grothendieck alone;
`minimalize` and `classify` add symmetry and minimal_model; `basis` adds
grothendieck to those; `decompose` adds motivic; `collection` adds
cohomology and derived; `report` loads them all.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name and the submodule that defines it, in the order of __all__.
_MODULE = {
    name: module
    for module, names in {
        "lattice_fan": "Fan validate_fan self_intersections blow_up blow_down "
                       "fans_isomorphic p2_fan hirzebruch_fan square_fan dp6_fan",
        "symmetry": "SymmetryGroup compute_aut classify_subgroup enumerate_subgroups "
                    "trivial_group",
        "minimal_model": "ContractionTrace MinimalLabel contractible_orbits is_g_minimal "
                         "minimalize classify_minimal classify_pair pullback",
        "grothendieck": "PicardLattice K0Class PermutationBasis picard structure_class "
                        "line_bundle_class k0_multiply verify_klyachko fa_recurrence_check "
                        "standard_permutation_basis verify_permutation_basis "
                        "search_line_bundle_basis",
        "cohomology": "CohomologyVector line_bundle_cohomology ext_line_bundles",
        "derived": "ExceptionalCollection build_collection verify_collection",
        "motivic": "MotivicDecomposition decompose decomposition_string",
    }.items()
    for name in names.split()
}

__all__ = ["__version__", *_MODULE]


def __getattr__(name: str):
    if name not in _MODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_MODULE[name]}"), name)
    globals()[name] = value  # later lookups find it without this hook
    return value
