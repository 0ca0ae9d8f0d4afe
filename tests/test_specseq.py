import pytest

from torushom.field import QQ, PrimeField
from torushom.errors import InputError
from torushom.poset import preset
from torushom.facevec import face_vectors, binom
from torushom.fixtures import preset_charmap, origami_annulus_profile
from torushom.formats import parse_profile, write_profile
from torushom.specseq import (
    ManifoldProfile, cone_profile, validate_profile, pages, bigraded_betti,
    theorem_checks, e2_border_sheaf_crosscheck, euler_characteristic_from_e1,
)


def test_cone_profiles():
    S = preset("torus_7")
    P = cone_profile(S, QQ)
    assert P.bQ == (1, 0, 0, 0)
    assert P.bQrel == (0, 0, 2, 1)
    assert P.rank_delta == (0, 2, 1)
    P2 = cone_profile(preset("boundary_of_simplex(3)"), QQ)
    assert P2.bQrel == (0, 0, 0, 1) and P2.rank_delta == (0, 0, 1)
    P3 = cone_profile(preset("digon_cycle(2)"), QQ)
    assert P3.bQrel == (0, 1, 2) and P3.rank_delta == (1, 2)


def test_cone_profile_always_validates():
    for name in ["torus_7", "boundary_of_simplex(2)", "boundary_of_simplex(3)",
                 "digon_cycle(1)", "digon_cycle(2)", "cross_polytope_boundary(3)"]:
        S = preset(name)
        assert validate_profile(S, cone_profile(S, QQ), QQ).ok, name


def test_validate_profile_annulus():
    S = preset("digon_cycle(2)")
    assert validate_profile(S, origami_annulus_profile(), QQ).ok


def test_validate_profile_rejects_corruption():
    S = preset("digon_cycle(2)")
    P = origami_annulus_profile()
    bad = ManifoldProfile(P.n, P.bQ, P.bQrel,
                          (P.rank_delta[0], P.rank_delta[1] + 1), "user")
    diag = validate_profile(S, bad, QQ)
    assert not diag.ok
    with pytest.raises(InputError):
        pages(S, bad, QQ)


def test_pages_torus7_borders():
    S = preset("torus_7")
    P = cone_profile(S, QQ)
    e1p, e2, einf = pages(S, P, QQ)
    assert e1p.border() == [1, 10, 7, 1]
    assert e2.border() == [1, 10, 4, 1]
    assert einf.border() == [1, 4, 4, 1]
    fv = face_vectors(S, QQ)
    assert einf.border() == list(fv.h_double_prime)
    # second-page border matches the corrected vector reversed in degree
    assert e2.border() == [fv.h_prime[3 - q] for q in range(4)]


def test_pages_above_diagonal_vanish():
    for name in ["torus_7", "digon_cycle(2)", "boundary_of_simplex(3)"]:
        S = preset(name)
        P = cone_profile(S, QQ)
        for page in pages(S, P, QQ):
            for (p, q), d in page.entries.items():
                if q > p:
                    assert d == 0, (name, page.page, p, q)


def test_pages_column_components_bookkeeping():
    # per q1 the column-n components sum binomially to 2^n
    S = preset("torus_7")
    P = cone_profile(S, QQ)
    e1p, _, _ = pages(S, P, QQ)
    n = S.n
    for q1 in range(n + 1):
        total = sum(d for (a, q2), d in e1p.column_components.items() if a == q1)
        assert total == P.bQrel[q1] * (2 ** n)


def test_pages_offborder_entries():
    S = preset("torus_7")
    P = cone_profile(S, QQ)
    e1p, _, _ = pages(S, P, QQ)
    from torushom.complexes import betti
    b = betti(S, QQ)
    for p in range(S.n):
        for q in range(p):
            assert e1p.entry(p, q) == b.get(p, 0) * binom(S.n, q)


def test_quasitoric_spheres_collapse():
    # spheres: second page equals limit page, border equals the h-vector
    for name in ["boundary_of_simplex(3)", "cross_polytope_boundary(3)"]:
        S = preset(name)
        fv = face_vectors(S, QQ)
        P = cone_profile(S, QQ)
        e1p, e2, einf = pages(S, P, QQ)
        assert e2.border() == einf.border() == list(fv.h)
        table = bigraded_betti(S, P, QQ)
        for i in range(S.n + 1):
            for j in range(S.n + 1):
                want = fv.h[i] if i == j else 0
                assert table.entry(i, j) == want
        totals = table.totals()
        assert totals[::2] == list(fv.h)
        assert all(v == 0 for v in totals[1::2])


def test_bigraded_torus7():
    S = preset("torus_7")
    P = cone_profile(S, QQ)
    table = bigraded_betti(S, P, QQ)
    assert table.totals() == [1, 0, 4, 0, 10, 2, 1]
    assert table.entry(2, 2) == 10
    assert table.entry(2, 3) == 2


def test_annulus_origami_totals_and_duality():
    S = preset("digon_cycle(2)")
    P = origami_annulus_profile()
    e1p, e2, einf = pages(S, P, QQ)
    assert e1p.entry(1, 1) == 4
    assert einf.entry(1, 1) == 2
    table = bigraded_betti(S, P, QQ)
    assert table.totals() == [1, 1, 4, 1, 1]
    assert table.entry(1, 1) == 4
    for i in range(3):
        for j in range(3):
            assert table.entry(i, j) == table.entry(2 - i, 2 - j)


def test_sheaf_crosscheck_cone_fixtures():
    for name in ["boundary_of_simplex(2)", "boundary_of_simplex(3)", "torus_7",
                 "digon_cycle(2)", "cross_polytope_boundary(3)"]:
        S = preset(name)
        cm = preset_charmap(name)
        rep = e2_border_sheaf_crosscheck(S, cm, QQ)
        assert rep.passed, (name, rep.truncated_mismatches, rep.full_mismatches)


def test_sheaf_crosscheck_torus7_border_values():
    S = preset("torus_7")
    rep = e2_border_sheaf_crosscheck(S, preset_charmap("torus_7"), QQ)
    assert [rep.sheaf_truncated[(q, q)] for q in range(3)] == [1, 10, 7]
    assert [rep.sheaf_full[(q, q)] for q in range(3)] == [1, 10, 4]


def test_sheaf_crosscheck_triangle_second_page_is_h():
    S = preset("boundary_of_simplex(2)")
    rep = e2_border_sheaf_crosscheck(S, preset_charmap("boundary_of_simplex(2)"), QQ)
    assert [rep.sheaf_full[(q, q)] for q in range(2)] == [1, 1]


def test_sheaf_crosscheck_is_charmap_independent():
    # a different valid map must reproduce the same page ranks
    from torushom.torusalg import CharacteristicMap, validate_charmap
    S = preset("torus_7")
    alt = CharacteristicMap(3, {1: (1, 0, 0), 2: (0, 1, 0), 3: (-1, -1, -1),
                                4: (0, 0, 1), 5: (-1, -1, 0), 6: (-1, 0, 1),
                                7: (0, -1, 1)})
    assert validate_charmap(S, alt, QQ).ok_field
    base = e2_border_sheaf_crosscheck(S, preset_charmap("torus_7"), QQ)
    other = e2_border_sheaf_crosscheck(S, alt, QQ)
    assert base.passed and other.passed
    assert base.sheaf_truncated == other.sheaf_truncated
    assert base.sheaf_full == other.sheaf_full


def test_theorem_checks_cone_fixtures():
    for name in ["torus_7", "boundary_of_simplex(3)", "digon_cycle(2)",
                 "cross_polytope_boundary(3)"]:
        S = preset(name)
        P = cone_profile(S, QQ)
        rep = theorem_checks(S, P, QQ)
        assert rep.passed, (name, rep.checks)


def test_theorem_checks_annulus():
    S = preset("digon_cycle(2)")
    rep = theorem_checks(S, origami_annulus_profile(), QQ)
    assert rep.passed
    assert rep.checks["bigraded_duality"]["applicable"]
    assert rep.checks["bigraded_duality"]["passed"]


def test_cone_tag_must_name_the_cone_profile():
    # the annulus numbers tagged "cone" would turn on `border_limit_cone`,
    # which fails on numbers that are not the cone's
    S = preset("digon_cycle(2)")
    user = origami_annulus_profile()
    assert theorem_checks(S, user, QQ).passed      # the same numbers, pages cached
    tagged = user._replace(source="cone")
    diag = validate_profile(S, tagged, QQ)
    assert not diag.ok and "not the cone profile" in diag.messages[-1]
    for call in (theorem_checks, pages, bigraded_betti):
        with pytest.raises(InputError, match="not the cone profile"):
            call(S, tagged, QQ)
    # the cone profile, written and read back, is accepted
    cone = parse_profile(write_profile(cone_profile(S, QQ)))
    assert cone.source == "cone" and theorem_checks(S, cone, QQ).passed


def test_origami_n3_profile_over_torus():
    # orbit space homotopy equivalent to one circle, all proper faces
    # acyclic, boundary a torus: totals follow the closed origami form
    # (1, b, h'_2 - 3b, 0, h'_1 + 3b, b, 1) with b = 1
    S = preset("torus_7")
    P = ManifoldProfile(3, (1, 1, 0, 0), (0, 0, 1, 1), (0, 1, 1), "user")
    assert validate_profile(S, P, QQ).ok
    fv = face_vectors(S, QQ)
    table = bigraded_betti(S, P, QQ)
    want = [1, 1, fv.h_prime[2] - 3, 0, fv.h_prime[1] + 3, 1, 1]
    assert table.totals() == want == [1, 1, 7, 0, 7, 1, 1]
    # the drop happens exactly at (2,2): one second-page differential
    e1p, e2, einf = pages(S, P, QQ)
    assert e2.border() == [1, 10, 4, 1]
    assert einf.border() == [1, 7, 4, 1]
    rep = theorem_checks(S, P, QQ)
    assert rep.checks["bigraded_duality"]["applicable"]
    assert rep.passed, rep.checks
    for i in range(4):
        for j in range(4):
            assert table.entry(i, j) == table.entry(3 - i, 3 - j)


def test_euler_characteristic_page_invariance():
    for name, P in [("torus_7", None), ("digon_cycle(2)", origami_annulus_profile()),
                    ("boundary_of_simplex(3)", None)]:
        S = preset(name)
        prof = P or cone_profile(S, QQ)
        chi1 = euler_characteristic_from_e1(S, prof, QQ)
        table = bigraded_betti(S, prof, QQ)
        chih = sum((-1) ** k * v for k, v in enumerate(table.totals()))
        assert chi1 == chih, name


def test_pages_over_prime_fields():
    S = preset("torus_7")
    for p in (3, 5):
        F = PrimeField(p)
        P = cone_profile(S, F)
        e1p, e2, einf = pages(S, P, F)
        fv = face_vectors(S, F)
        assert einf.border() == list(fv.h_double_prime)


def test_totals_match_limit_page_antidiagonals():
    cases = [("torus_7", None), ("digon_cycle(2)", origami_annulus_profile()),
             ("digon_cycle(2)", None), ("boundary_of_simplex(3)", None),
             ("cross_polytope_boundary(3)", None), ("boundary_of_simplex(2)", None)]
    for name, P in cases:
        S = preset(name)
        prof = P or cone_profile(S, QQ)
        _, _, einf = pages(S, prof, QQ)
        totals = bigraded_betti(S, prof, QQ).totals()
        n = S.n
        for k in range(2 * n + 1):
            anti = sum(einf.entry(p, k - p) for p in range(n + 1))
            assert anti == totals[k], (name, k)


def test_rank_one_pipeline():
    # two points, torus rank one: the torus space is a two-sphere
    S = preset("boundary_of_simplex(1)")
    fv = face_vectors(S, QQ)
    assert fv.h == (1, 1) and fv.h_double_prime == (1, 1)
    P = cone_profile(S, QQ)
    e1p, e2, einf = pages(S, P, QQ)
    assert e1p.border() == [2, 1]
    assert einf.border() == [1, 1]
    assert bigraded_betti(S, P, QQ).totals() == [1, 0, 1]


def test_profile_json_roundtrip():
    P = origami_annulus_profile()
    d = P.as_dict()
    assert ManifoldProfile.from_dict(d) == P
