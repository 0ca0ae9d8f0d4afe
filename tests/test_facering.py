import contextlib

import pytest

from torushom.field import QQ, PrimeField
from torushom.errors import InputError
from torushom.poset import preset, incidence_number
from torushom.facevec import face_vectors, binom
from torushom.fixtures import CHARMAPS, preset_charmap, origami_annulus_profile
from torushom.formats import parse_profile, write_profile
from torushom.specseq import cone_profile, pages
from torushom.facering import relation_system, graded_quotient_rank, kernel_generators
from torushom.torusalg import TorusSheafKit

from oracles import coefficient_CAI, int_det, relation_dump

MANIFOLD_FIXTURES = ["boundary_of_simplex(2)", "boundary_of_simplex(3)",
                     "cross_polytope_boundary(3)", "torus_7", "digon_cycle(1)",
                     "digon_cycle(2)"]


@contextlib.contextmanager
def flipped_signs(flips):
    """Within the block, the relation rows read the determinant coefficient
    of every subset in `flips` negated."""
    coefficients = TorusSheafKit.coefficients

    def flipped(kit, elem):
        return {A: kit.field(-c) if A in flips else c
                for A, c in coefficients(kit, elem).items()}

    with pytest.MonkeyPatch.context() as m:
        m.setattr(TorusSheafKit, "coefficients", flipped)
        yield


def flip_orientation(S, field):
    """Negate every trivialization unit of the structure sheaf, in the
    constancy result the job keeps."""
    job = S.job(field)
    cons = job.constancy
    job.constancy = cons._replace(
        orientation={k: field(-v) for k, v in cons.orientation.items()})


def test_generator_counts():
    S = preset("torus_7")
    R = relation_system(S, preset_charmap("torus_7"), QQ)
    assert [len(R.generators[q]) for q in range(4)] == [14, 21, 7, 1]


def test_type2_row_counts_torus7():
    S = preset("torus_7")
    R = relation_system(S, preset_charmap("torus_7"), QQ)
    # connecting classes exist exactly in degree one: two classes, three subsets
    assert set(R.type2) == {1}
    assert len(R.type2[1]) == 6


def test_type2_empty_for_spheres():
    for name in ["boundary_of_simplex(3)", "cross_polytope_boundary(3)"]:
        R = relation_system(preset(name), preset_charmap(name), QQ)
        assert R.type2 == {}


def test_schenzel_identity():
    # first-kind quotient ranks equal the corrected vector reversed in degree
    for name in ["torus_7", "boundary_of_simplex(2)", "boundary_of_simplex(3)",
                 "cross_polytope_boundary(3)"]:
        S = preset(name)
        fv = face_vectors(S, QQ)
        R = relation_system(S, preset_charmap(name), QQ)
        ranks = graded_quotient_rank(R, include_type2=False)
        assert ranks == {q: fv.h_prime[S.n - q] for q in range(S.n + 1)}, name


def test_full_quotient_equals_limit_border():
    for name in MANIFOLD_FIXTURES:
        S = preset(name)
        P = cone_profile(S, QQ)
        _, e2, einf = pages(S, P, QQ)
        R = relation_system(S, preset_charmap(name), QQ)
        t1 = graded_quotient_rank(R, include_type2=False)
        both = graded_quotient_rank(R, include_type2=True)
        assert t1 == {q: e2.entry(q, q) for q in range(S.n + 1)}, name
        assert both == {q: einf.entry(q, q) for q in range(S.n + 1)}, name
        fv = face_vectors(S, QQ)
        assert both == {q: fv.h_double_prime[q] for q in range(S.n + 1)}, name


def test_kernel_generators_torus7():
    S = preset("torus_7")
    fv = face_vectors(S, QQ)
    R = relation_system(S, preset_charmap("torus_7"), QQ)
    kg = kernel_generators(R)
    assert kg.count() == fv.b_tilde[1] * binom(3, 1) == 6
    assert kg.independent
    assert kg.representative_stable
    # the drop from the first-kind quotient to the full quotient equals 6
    t1 = graded_quotient_rank(R, include_type2=False)
    both = graded_quotient_rank(R, include_type2=True)
    assert t1[1] - both[1] == 6


def test_kernel_generators_empty_for_spheres():
    for name in ["boundary_of_simplex(3)", "cross_polytope_boundary(3)"]:
        R = relation_system(preset(name), preset_charmap(name), QQ)
        kg = kernel_generators(R)
        assert kg.count() == 0 and kg.independent and kg.representative_stable


def test_kernel_generators_digon():
    R = relation_system(preset("digon_cycle(2)"), preset_charmap("digon_cycle(2)"), QQ)
    kg = kernel_generators(R)
    assert kg.count() == 1
    assert kg.independent and kg.representative_stable


def test_top_cocycles_are_the_unit_cochains():
    # the second-kind rows of degree 0 take the kernel of the orientation
    # row as their cocycles, which holds because no differential leaves the
    # top degree of the truncated complex: the representatives and the
    # coboundaries span every cochain, and each unit cochain has class
    # coordinates
    for name in CHARMAPS:
        S = preset(name)
        for F in (QQ, PrimeField(3), PrimeField(5)):
            R = relation_system(S, preset_charmap(name), F)
            cohomology, k = R.trivialized, S.n - 1
            top = cohomology.complex.dim(k)
            assert cohomology.complex.d(k) is None
            assert len(cohomology.representatives(k)) + len(cohomology.boundaries(k)) == top
            for i in range(top):
                cohomology.coords(k, [F.one if j == i else F.zero for j in range(top)])


def test_rank_invariance_under_sgn_flips():
    S = preset("torus_7")
    cm = preset_charmap("torus_7")
    base_t1 = graded_quotient_rank(relation_system(S, cm, QQ), include_type2=False)
    base_both = graded_quotient_rank(relation_system(S, cm, QQ), include_type2=True)
    for flips in [ {(1,)}, {(2,), (1, 3)}, {(1, 2, 3)} ]:
        with flipped_signs(flips):
            R = relation_system(S, cm, QQ)
            assert graded_quotient_rank(R, include_type2=False) == base_t1
            assert graded_quotient_rank(R, include_type2=True) == base_both
            kg = kernel_generators(R)
            assert kg.count() == 6 and kg.independent


def test_rank_invariance_under_orientation_flip():
    for name in ["torus_7", "digon_cycle(2)"]:
        S = preset(name)
        cm = preset_charmap(name)
        base_t1 = graded_quotient_rank(relation_system(S, cm, QQ), include_type2=False)
        base_both = graded_quotient_rank(relation_system(S, cm, QQ), include_type2=True)
        flip_orientation(S, QQ)
        R = relation_system(S, cm, QQ)
        assert graded_quotient_rank(R, include_type2=False) == base_t1
        assert graded_quotient_rank(R, include_type2=True) == base_both
        assert kernel_generators(R).independent


def test_over_prime_field():
    S = preset("torus_7")
    cm = preset_charmap("torus_7")
    F = PrimeField(3)
    fv = face_vectors(S, F)
    R = relation_system(S, cm, F)
    assert graded_quotient_rank(R, include_type2=True) == \
        {q: fv.h_double_prime[q] for q in range(4)}


def test_user_profile_disables_type2():
    S = preset("digon_cycle(2)")
    R = relation_system(S, preset_charmap("digon_cycle(2)"), QQ,
                        profile=origami_annulus_profile())
    t1 = graded_quotient_rank(R, include_type2=False)
    assert t1 == {0: 2, 1: 0, 2: 2}
    with pytest.raises(InputError):
        graded_quotient_rank(R, include_type2=True)
    with pytest.raises(InputError):
        kernel_generators(R)


def test_cone_tag_must_name_the_cone_profile():
    # with the annulus numbers tagged "cone", the second-kind rows would
    # look for connecting classes the poset does not have
    S = preset("digon_cycle(2)")
    cm = preset_charmap("digon_cycle(2)")
    tagged = origami_annulus_profile()._replace(source="cone")
    with pytest.raises(InputError, match="not the cone profile"):
        relation_system(S, cm, QQ, profile=tagged)
    # the cone profile, written and read back, is accepted
    cone = parse_profile(write_profile(cone_profile(S, QQ)))
    R = relation_system(S, cm, QQ, profile=cone)
    assert R.type2 is not None


RP2_FACETS = [(1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
              (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6)]


def test_rejects_non_manifold():
    # the projective plane is Buchsbaum but not orientable over Q
    from torushom.poset import build_from_facets
    from torushom.torusalg import CharacteristicMap, validate_charmap
    S = build_from_facets(RP2_FACETS)
    cm = CharacteristicMap(3, {1: (1, 0, 0), 2: (0, 1, 0), 3: (0, 0, 1),
                               4: (-2, -2, -2), 5: (-2, -1, -1), 6: (-2, -1, -2)})
    assert validate_charmap(S, cm, QQ).ok_field
    with pytest.raises(InputError, match="not constant"):
        relation_system(S, cm, QQ)


def test_cofactor_witness_type1_rows():
    # each first-kind row with nonempty lower face is reproduced, up to one
    # global sign, by the cofactor combination of parameter columns
    for name in ["boundary_of_simplex(2)", "torus_7", "digon_cycle(2)"]:
        S = preset(name)
        cm = preset_charmap(name)
        n = S.n
        from itertools import combinations
        for j in range(1, S.size):
            s = S.ranks[j]
            q = n - s - 1
            if q < 0:
                continue
            for A in combinations(range(1, n + 1), q):
                alphas = [c for c in range(1, n + 1) if c not in set(A)]
                jverts = S.vertex_sets[j]
                D = [[cm.row(lab)[a - 1] for a in alphas] for lab in jverts]
                cof = []
                for l in range(s + 1):
                    minor = [row[:l] + row[l + 1:] for row in D]
                    cof.append((-1) ** l * int_det(minor))
                # lhs per cover: incidence * determinant coefficient
                lhs = {}
                rhs = {}
                for i in S.covered_by[j]:
                    added = (set(S.vertex_sets[i]) - set(jverts)).pop()
                    lhs[i] = QQ(incidence_number(S, i, j)) * \
                        coefficient_CAI(cm, QQ, S.vertex_sets[i], A)
                    rhs[i] = sum(QQ(cof[l]) * QQ(cm.row(added)[alphas[l] - 1])
                                 for l in range(s + 1))
                    # vertices below j contribute nothing
                for lab in jverts:
                    total = sum(QQ(cof[l]) * QQ(cm.row(lab)[alphas[l] - 1])
                                for l in range(s + 1))
                    assert total == 0, (name, j, A, lab)
                signs = set()
                for i in lhs:
                    if lhs[i] == 0 and rhs[i] == 0:
                        continue
                    assert lhs[i] != 0 and rhs[i] != 0, (name, j, A, i)
                    signs.add(lhs[i] * QQ.inv(rhs[i]))
                assert len(signs) <= 1, (name, j, A, signs)
                assert signs <= {QQ(1), QQ(-1)}, (name, j, A, signs)


def test_relation_dump_json():
    import json
    R = relation_system(preset("boundary_of_simplex(2)"),
                        preset_charmap("boundary_of_simplex(2)"), QQ)
    dump = relation_dump(R)
    assert json.dumps(dump, sort_keys=True)
    assert set(dump["type1"]) == {"0", "1", "2"}
