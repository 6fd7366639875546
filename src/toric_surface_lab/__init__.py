"""Toric surface lab: exact classification tools for smooth complete toric
surfaces carrying a finite symmetry group of fan automorphisms.

The pipeline: validate a fan, compute its symmetry, contract equivariant
(-1)-curve orbits to a minimal model, build and certify a permutation basis
of line-bundle classes in K0, assemble the full exceptional collection, and
emit the symbolic motivic decomposition into separable-algebra factors.
"""

__version__ = "0.1.0"

from .cohomology import CohomologyVector, ext_line_bundles, line_bundle_cohomology
from .derived import ExceptionalCollection, build_collection, verify_collection
from .grothendieck import (
    K0Class,
    PermutationBasis,
    PicardLattice,
    fa_recurrence_check,
    k0_multiply,
    line_bundle_class,
    picard,
    search_line_bundle_basis,
    standard_permutation_basis,
    verify_klyachko,
    verify_permutation_basis,
)
from .lattice_fan import (
    Fan,
    blow_down,
    blow_up,
    dp6_fan,
    fans_isomorphic,
    hirzebruch_fan,
    p2_fan,
    self_intersections,
    square_fan,
    validate_fan,
)
from .minimal_model import (
    ContractionTrace,
    MinimalLabel,
    classify_minimal,
    classify_pair,
    contractible_orbits,
    is_g_minimal,
    minimalize,
    pullback,
)
from .motivic import (
    MotivicDecomposition,
    decompose,
    decomposition_string,
)
from .symmetry import (
    SymmetryGroup,
    classify_subgroup,
    compute_aut,
    enumerate_subgroups,
    trivial_group,
)

__all__ = [
    "__version__",
    "Fan",
    "validate_fan",
    "self_intersections",
    "blow_up",
    "blow_down",
    "fans_isomorphic",
    "p2_fan",
    "hirzebruch_fan",
    "square_fan",
    "dp6_fan",
    "SymmetryGroup",
    "compute_aut",
    "classify_subgroup",
    "enumerate_subgroups",
    "trivial_group",
    "ContractionTrace",
    "MinimalLabel",
    "contractible_orbits",
    "is_g_minimal",
    "minimalize",
    "classify_minimal",
    "classify_pair",
    "pullback",
    "PicardLattice",
    "K0Class",
    "PermutationBasis",
    "picard",
    "line_bundle_class",
    "k0_multiply",
    "verify_klyachko",
    "fa_recurrence_check",
    "standard_permutation_basis",
    "verify_permutation_basis",
    "search_line_bundle_basis",
    "CohomologyVector",
    "line_bundle_cohomology",
    "ext_line_bundles",
    "ExceptionalCollection",
    "build_collection",
    "verify_collection",
    "MotivicDecomposition",
    "decompose",
    "decomposition_string",
]
