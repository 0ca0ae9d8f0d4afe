import random

import pytest

from torushom.field import QQ, PrimeField
from torushom.errors import InputError
from torushom.poset import preset, build_from_facets
from torushom.facevec import (
    face_vectors, ft_consistency_check, dehn_sommerville_check,
    h_from_f, binom,
)

from oracles import f_from_h


def test_h_examples():
    S = preset("boundary_of_simplex(2)")
    fv = face_vectors(S, QQ)
    assert fv.f == (1, 3, 3)
    assert fv.h == (1, 1, 1)
    assert fv.h_prime == (1, 1, 1)
    assert fv.h_double_prime == (1, 1, 1)


def test_h_torus7():
    fv = face_vectors(preset("torus_7"), QQ)
    assert fv.h == (1, 4, 10, -1)
    assert fv.h_prime == (1, 4, 10, 1)
    assert fv.h_double_prime == (1, 4, 4, 1)
    assert fv.b_tilde == (0, 2, 1)
    assert fv.chi == 0 and fv.chi_tilde == -1


def test_h_digon_cycle():
    fv = face_vectors(preset("digon_cycle(2)"), QQ)
    assert fv.f == (1, 4, 4)
    assert fv.h == (1, 2, 1)
    assert fv.h_prime == (1, 2, 2)
    assert fv.h_double_prime == (1, 0, 2)


def test_h_simplex_boundary_and_octahedron():
    assert face_vectors(preset("boundary_of_simplex(3)"), QQ).h == (1, 1, 1, 1)
    assert face_vectors(preset("cross_polytope_boundary(3)"), QQ).h == (1, 3, 3, 1)


def test_h_prime_top_is_top_reduced_betti():
    for name in ["torus_7", "boundary_of_simplex(3)", "digon_cycle(2)",
                 "cross_polytope_boundary(3)"]:
        fv = face_vectors(preset(name), QQ)
        assert fv.h_prime[fv.n] == fv.b_tilde[fv.n - 1]
        assert fv.h_double_prime[fv.n] == fv.h_prime[fv.n]


def test_h_top_is_signed_reduced_euler():
    for name in ["torus_7", "boundary_of_simplex(3)", "digon_cycle(2)"]:
        fv = face_vectors(preset(name), QQ)
        assert fv.h[fv.n] == (-1) ** (fv.n - 1) * fv.chi_tilde


def test_ft_consistency_fixtures():
    for name in ["torus_7", "boundary_of_simplex(3)", "digon_cycle(2)",
                 "cross_polytope_boundary(3)"]:
        rep = ft_consistency_check(preset(name), QQ)
        assert rep.passed, name


def test_ft_homology_manifold_has_ftilde_equal_f():
    fv = face_vectors(preset("torus_7"), QQ)
    assert fv.f_tilde == fv.f[1:]


def test_dehn_sommerville_torus():
    rep = dehn_sommerville_check(preset("torus_7"), QQ)
    assert rep.passed
    # spot check the stated instance: h_0 = h_3 + (1 + (-1)^3 * chi~)
    fv = face_vectors(preset("torus_7"), QQ)
    assert fv.h[0] == fv.h[3] + (1 + (-1) ** 3 * fv.chi_tilde)


def test_dehn_sommerville_spheres():
    for name in ["boundary_of_simplex(2)", "boundary_of_simplex(3)",
                 "cross_polytope_boundary(3)"]:
        rep = dehn_sommerville_check(preset(name), QQ)
        assert rep.passed
        fv = face_vectors(preset(name), QQ)
        assert tuple(reversed(fv.h)) == fv.h  # spheres: palindromic


def test_round_trip_and_random_pure_posets():
    rng = random.Random(20)
    built = 0
    while built < 50:
        n = rng.choice([2, 3])
        verts = list(range(1, rng.randint(n + 1, 6) + 1))
        pool = []
        for _ in range(rng.randint(1, 5)):
            pool.append(tuple(sorted(rng.sample(verts, n))))
        facets = sorted(set(pool))
        S = build_from_facets(facets)
        if not S.is_pure():
            continue
        built += 1
        fv = face_vectors(S, QQ)
        assert f_from_h(fv.h, fv.n) == fv.f
        assert h_from_f(fv.f, fv.n) == fv.h
        assert fv.h[fv.n] == (-1) ** (fv.n - 1) * fv.chi_tilde
    assert built == 50


def test_h_double_prime_nonnegative_on_buchsbaum_fixtures():
    from torushom.complexes import classify
    for name in ["boundary_of_simplex(2)", "boundary_of_simplex(3)", "torus_7",
                 "digon_cycle(1)", "digon_cycle(2)", "cross_polytope_boundary(2)",
                 "cross_polytope_boundary(3)"]:
        S = preset(name)
        for F in (QQ, PrimeField(2), PrimeField(3), PrimeField(5)):
            if not classify(S, F).buchsbaum:
                continue
            fv = face_vectors(S, F)
            assert all(v >= 0 for v in fv.h_double_prime), (name, F)


def test_face_vectors_rejects_non_pure():
    S = build_from_facets([(1, 2, 3), (4, 5)])
    with pytest.raises(InputError):
        face_vectors(S, QQ)
