"""Full pipeline over F2 on the 6-vertex projective plane.

Over the rationals this poset is Buchsbaum but not a homology manifold
(top local homology vanishes at some stalks' orientation cycle), while
over F2 it is a closed homology manifold with top reduced homology of
rank one.  Running every layer over F2 therefore exercises the genuine
field-dependence of the whole chain: classification, constancy, pages,
duality, and the face-ring ranks.
"""
import pytest

from torushom.field import QQ, PrimeField
from torushom.poset import build_from_facets
from torushom.complexes import classify, reduced_betti
from torushom.sheaves import constancy_check
from torushom.facevec import face_vectors
from torushom.torusalg import (CharacteristicMap, validate_charmap,
                               keylemma_check, duality_check, les_duality_check)
from torushom.specseq import cone_profile, pages, bigraded_betti, theorem_checks, \
    e2_border_sheaf_crosscheck
from torushom.facering import relation_system, graded_quotient_rank, kernel_generators

RP2_FACETS = [(1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
              (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6)]

F2 = PrimeField(2)

CHARMAP = CharacteristicMap(3, {1: (0, 0, 1), 2: (0, 1, 0), 3: (1, 0, 0),
                                4: (1, 0, 1), 5: (0, 1, 1), 6: (1, 1, 1)})


@pytest.fixture(scope="module")
def S():
    return build_from_facets(RP2_FACETS)


def test_field_dependence_of_manifoldness(S):
    assert classify(S, QQ).buchsbaum
    assert classify(S, F2).buchsbaum
    assert reduced_betti(S, QQ) == {-1: 0, 0: 0, 1: 0, 2: 0}
    assert reduced_betti(S, F2) == {-1: 0, 0: 0, 1: 1, 2: 1}
    assert not constancy_check(S.job(QQ).structure_sheaf()).is_constant
    assert constancy_check(S.job(F2).structure_sheaf()).is_constant


def test_charmap_valid_over_f2(S):
    assert validate_charmap(S, CHARMAP, F2).ok_field


def test_face_vectors_over_f2(S):
    fv = face_vectors(S, F2)
    assert fv.f == (1, 6, 15, 10)
    assert fv.h == (1, 3, 6, 0)
    assert fv.h_prime == (1, 3, 6, 1)
    assert fv.h_double_prime == (1, 3, 3, 1)
    assert fv.f_tilde == fv.f[1:]        # homology manifold over F2


def test_pages_over_f2(S):
    P = cone_profile(S, F2)
    assert P.bQrel == (0, 0, 1, 1)
    e1p, e2, einf = pages(S, P, F2)
    assert e1p.border() == [1, 6, 6, 1]
    assert e2.border() == [1, 6, 3, 1]
    assert einf.border() == [1, 3, 3, 1]
    table = bigraded_betti(S, P, F2)
    assert table.totals() == [1, 0, 3, 0, 6, 1, 1]
    rep = theorem_checks(S, P, F2)
    assert rep.passed, rep.checks


def test_sheaf_checks_over_f2(S):
    assert keylemma_check(S, CHARMAP, F2).passed
    assert duality_check(S, CHARMAP, F2).passed
    assert les_duality_check(S, CHARMAP, F2).passed
    assert e2_border_sheaf_crosscheck(S, CHARMAP, F2).passed


def test_facering_over_f2(S):
    R = relation_system(S, CHARMAP, F2)
    assert graded_quotient_rank(R, include_type2=False) == {0: 1, 1: 6, 2: 3, 3: 1}
    assert graded_quotient_rank(R, include_type2=True) == {0: 1, 1: 3, 2: 3, 3: 1}
    kg = kernel_generators(R)
    assert kg.count() == 3
    assert kg.independent and kg.representative_stable


def test_facering_rejected_over_q(S):
    from torushom.errors import InputError
    # over Q the structure sheaf is not constant, so the module refuses
    cm_q = CharacteristicMap(3, {1: (1, 0, 0), 2: (0, 1, 0), 3: (0, 0, 1),
                                 4: (-2, -2, -2), 5: (-2, -1, -1), 6: (-2, -1, -2)})
    assert validate_charmap(S, cm_q, QQ).ok_field
    with pytest.raises(InputError, match="not constant"):
        relation_system(S, cm_q, QQ)
