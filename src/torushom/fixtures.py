"""Canonical characteristic maps and profiles for the preset posets.

The torus_7 map has face determinants in {1, 2} up to sign, so it is
valid over the rationals and over F_p for every odd p; no map over F_2
exists for that triangulation (every vertex labeling by the seven nonzero
vectors of F_2^3 puts some triangle on a dependent triple), hence none
over Z either.
"""
from __future__ import annotations

from .errors import InputError
from .formats import CharacteristicMap, ManifoldProfile

CHARMAPS = {
    "boundary_of_simplex(2)": {1: (1, 0), 2: (0, 1), 3: (1, 1)},
    "boundary_of_simplex(3)": {1: (1, 0, 0), 2: (0, 1, 0), 3: (0, 0, 1),
                               4: (-1, -1, -1)},
    "cross_polytope_boundary(3)": {1: (1, 0, 0), 2: (0, 1, 0), 3: (0, 0, 1),
                                   4: (-1, 0, 0), 5: (0, -1, 0), 6: (0, 0, -1)},
    "digon_cycle(1)": {1: (1, 0), 2: (0, 1)},
    "digon_cycle(2)": {1: (1, 0), 2: (0, 1), 3: (1, 0), 4: (0, 1)},
    "torus_7": {1: (1, 0, 0), 2: (0, 1, 0), 3: (-1, -1, -1), 4: (0, 0, 1),
                5: (-1, -1, 0), 6: (-1, 0, -1), 7: (0, -1, 1)},
}


def preset_charmap(name: str) -> CharacteristicMap:
    try:
        rows = CHARMAPS[name]
    except KeyError:
        raise InputError(f"no canonical characteristic map for preset {name!r}") from None
    n = len(next(iter(rows.values())))
    return CharacteristicMap(n, dict(rows))


def origami_annulus_profile() -> ManifoldProfile:
    """Orbit space an annulus: genus-zero surface with two boundary circles."""
    return ManifoldProfile(n=2, bQ=(1, 1, 0), bQrel=(0, 1, 1), rank_delta=(1, 1),
                           source="user")
