"""Exact homology invariants of torus spaces over Buchsbaum simplicial posets."""

from .field import QQ, PrimeField, Rationals, field_from_name
from .poset import (SimplicialPoset, PosetError, build_from_facets,
                    build_from_cover_table, preset, validate, incidence_number,
                    face_counts)
from .complexes import (cellular_chain_complex, homology, classify, reduced_betti,
                        betti, InvariantViolation)
from .sheaves import (CellularSheaf, CellularCosheaf, tensor, sheaf_cohomology,
                      constancy_check)
from .torusalg import (ExteriorAlgebra, CharacteristicMap, validate_charmap,
                       TorusSheafKit, keylemma_check, duality_check, les_duality_check)
from .facevec import face_vectors, ft_consistency_check, dehn_sommerville_check
from .specseq import (ManifoldProfile, cone_profile, validate_profile, pages,
                      bigraded_betti, theorem_checks, e2_border_sheaf_crosscheck)
from .facering import relation_system, graded_quotient_rank, kernel_generators

__all__ = [
    "QQ", "PrimeField", "Rationals", "field_from_name",
    "SimplicialPoset", "PosetError", "build_from_facets",
    "build_from_cover_table", "preset", "validate", "incidence_number",
    "face_counts",
    "cellular_chain_complex", "homology", "classify", "reduced_betti", "betti",
    "InvariantViolation",
    "CellularSheaf", "CellularCosheaf", "tensor", "sheaf_cohomology",
    "constancy_check",
    "ExteriorAlgebra", "CharacteristicMap", "validate_charmap", "TorusSheafKit",
    "keylemma_check", "duality_check", "les_duality_check",
    "face_vectors", "ft_consistency_check", "dehn_sommerville_check",
    "ManifoldProfile", "cone_profile", "validate_profile", "pages",
    "bigraded_betti", "theorem_checks", "e2_border_sheaf_crosscheck",
    "relation_system", "graded_quotient_rank", "kernel_generators",
]
__version__ = "0.1.0"
