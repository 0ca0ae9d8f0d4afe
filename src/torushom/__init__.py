"""Exact homology invariants of torus spaces over Buchsbaum simplicial posets.

Each public name loads its layer on first access (PEP 562), so `import
torushom` compiles no layer."""
from importlib import import_module

# layer -> the public names it defines or re-exports
_LAYERS = {
    "errors": ("InputError", "InvariantViolation"),
    "field": ("QQ", "PrimeField", "Rationals", "field_from_name"),
    "poset": ("SimplicialPoset", "build_from_facets", "build_from_cover_table",
              "preset", "validate", "incidence_number", "face_counts"),
    "complexes": ("cellular_chain_complex", "homology", "classify", "reduced_betti", "betti"),
    "sheaves": ("CellularSheaf", "CellularCosheaf", "tensor", "sheaf_cohomology",
                "constancy_check"),
    "formats": ("CharacteristicMap", "ManifoldProfile"),
    "torusalg": ("ExteriorAlgebra", "validate_charmap", "TorusSheafKit", "keylemma_check",
                 "duality_check", "les_duality_check"),
    "facevec": ("face_vectors", "ft_consistency_check", "dehn_sommerville_check"),
    "specseq": ("cone_profile", "validate_profile", "pages", "bigraded_betti",
                "theorem_checks", "e2_border_sheaf_crosscheck"),
    "facering": ("relation_system", "graded_quotient_rank", "kernel_generators"),
}
_HOME = {name: layer for layer, names in _LAYERS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
