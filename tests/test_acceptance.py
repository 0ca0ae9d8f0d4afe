"""Acceptance criteria, one test per criterion, exact equality throughout.

Each test prints one PASS/FAIL line (visible with pytest -s or in the
captured report).  The torus_7 / F2 cell of criteria 3 and 4 is vacuous:
that triangulation admits no valid characteristic map over F2 at all,
which the suite proves by exhaustion instead of skipping silently.
"""
import itertools
import time

import pytest

from torushom.field import QQ, PrimeField
from torushom.poset import preset, build_from_facets, torus_7_facets
from torushom.complexes import classify, reduced_betti, cellular_chain_complex
from torushom.facevec import face_vectors, h_from_f, binom
from torushom.fixtures import preset_charmap, origami_annulus_profile
from torushom.torusalg import (TorusSheafKit, validate_charmap, keylemma_check,
                               duality_check)
from torushom.specseq import (cone_profile, pages, bigraded_betti, theorem_checks,
                              e2_border_sheaf_crosscheck)
from torushom.facering import relation_system, graded_quotient_rank, kernel_generators

from oracles import (check_sheaf_functoriality, f_from_h, ideal_sheaf, lambda_mod_pi_cosheaf,
                     order_complex_homology, pi_cosheaf, quotient_sheaf)
from test_facering import flip_orientation, flipped_signs


SUITE = ["boundary_of_simplex(2)", "boundary_of_simplex(3)",
         "cross_polytope_boundary(3)", "torus_7", "digon_cycle(2)"]
FIELDS = {"Q": QQ, "F2": PrimeField(2), "F3": PrimeField(3)}


def _report(criterion, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {tag} {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_quasitoric():
    t0 = time.time()
    for name in ["boundary_of_simplex(3)", "cross_polytope_boundary(3)"]:
        S = preset(name)
        cm = preset_charmap(name)
        rep = validate_charmap(S, cm, QQ)
        assert rep.ok_integral, f"{name}: fixture map must be valid over Z"
        fv = face_vectors(S, QQ)
        P = cone_profile(S, QQ)
        totals = bigraded_betti(S, P, QQ).totals()
        assert totals[::2] == list(fv.h), name
        assert all(v == 0 for v in totals[1::2]), name
    dt = time.time() - t0
    _report("criterion-1 quasitoric Betti = h", dt < 1.0, f"({dt:.2f}s)")


def test_criterion_2_origami_annulus():
    t0 = time.time()
    S = preset("digon_cycle(2)")
    P = origami_annulus_profile()
    table = bigraded_betti(S, P, QQ)
    totals_ok = table.totals() == [1, 1, 4, 1, 1]
    duality_ok = all(table.entry(i, j) == table.entry(2 - i, 2 - j)
                     for i in range(3) for j in range(3))
    dt = time.time() - t0
    _report("criterion-2 origami annulus", totals_ok and duality_ok and dt < 1.0,
            f"totals={table.totals()} ({dt:.2f}s)")


def _no_f2_charmap_for_torus7() -> bool:
    tris = torus_7_facets()
    pts = [v for v in itertools.product((0, 1), repeat=3) if any(v)]
    for perm in itertools.permutations(pts):
        om = {i + 1: perm[i] for i in range(7)}
        if all(tuple(a ^ b for a, b in zip(om[t[0]], om[t[1]])) != om[t[2]]
               for t in tris):
            return False
    return True


def test_criterion_3_keylemma_suite():
    lines = []
    ok = True
    for name in SUITE:
        S = preset(name)
        cm = preset_charmap(name)
        for fname, F in FIELDS.items():
            t0 = time.time()
            if not validate_charmap(S, cm, F).ok_field:
                if name == "torus_7" and fname == "F2":
                    vac = _no_f2_charmap_for_torus7()
                    ok = ok and vac
                    lines.append(f"{name}/{fname}: vacuous, no valid map exists "
                                 f"(proved exhaustively: {vac})")
                    continue
                ok = False
                lines.append(f"{name}/{fname}: fixture map unexpectedly invalid")
                continue
            rep = keylemma_check(S, cm, F)
            dt = time.time() - t0
            ok = ok and rep.passed and dt < 5.0
            lines.append(f"{name}/{fname}: vanishing={rep.passed} ({dt:.2f}s)")
    _report("criterion-3 key-lemma vanishing", ok, "; ".join(lines))


def test_criterion_4_duality_suite():
    ok = True
    lines = []
    for name in SUITE:
        S = preset(name)
        cm = preset_charmap(name)
        for fname, F in FIELDS.items():
            if not validate_charmap(S, cm, F).ok_field:
                if name == "torus_7" and fname == "F2":
                    lines.append(f"{name}/{fname}: vacuous (no valid map)")
                    continue
                ok = False
                continue
            rep = duality_check(S, cm, F)
            ok = ok and rep.passed
            lines.append(f"{name}/{fname}: {rep.passed}")
    _report("criterion-4 sheaf/cosheaf duality", ok, "; ".join(lines))


def test_criterion_5_border_three_paths():
    S = preset("torus_7")
    cm = preset_charmap("torus_7")
    fv = face_vectors(S, QQ)
    P = cone_profile(S, QQ)
    e1p, e2, einf = pages(S, P, QQ)
    closed_ok = (e1p.border() == [1, 10, 7, 1] and einf.border() == [1, 4, 4, 1]
                 and einf.border() == list(fv.h_double_prime)
                 and e1p.border()[:2] == [fv.h_prime[3], fv.h_prime[2]]
                 and e1p.border()[2] == fv.h_prime[1] + 3)
    cc = e2_border_sheaf_crosscheck(S, cm, QQ)
    sheaf_ok = cc.passed and \
        [cc.sheaf_truncated[(q, q)] for q in range(3)] == [1, 10, 7]
    R = relation_system(S, cm, QQ)
    t1 = graded_quotient_rank(R, include_type2=False)
    t2 = graded_quotient_rank(R, include_type2=True)
    ring_ok = (t1 == {q: e2.entry(q, q) for q in range(4)}
               and t2 == {q: einf.entry(q, q) for q in range(4)}
               and list(t2.values()) == [1, 4, 4, 1])
    _report("criterion-5 border via three paths", closed_ok and sheaf_ok and ring_ok,
            f"E1+={e1p.border()} Einf={einf.border()} ring={sorted(t2.items())}")


def test_criterion_6_schenzel():
    ok = True
    lines = []
    for name in ["torus_7", "boundary_of_simplex(2)", "boundary_of_simplex(3)",
                 "cross_polytope_boundary(3)"]:
        S = preset(name)
        fv = face_vectors(S, QQ)
        R = relation_system(S, preset_charmap(name), QQ)
        ranks = graded_quotient_rank(R, include_type2=False)
        want = {q: fv.h_prime[S.n - q] for q in range(S.n + 1)}
        ok = ok and ranks == want
        lines.append(f"{name}: {sorted(ranks.items())}")
    _report("criterion-6 parameter-quotient ranks", ok, "; ".join(lines))


def test_criterion_7_kernel_generators():
    S = preset("torus_7")
    fv = face_vectors(S, QQ)
    R = relation_system(S, preset_charmap("torus_7"), QQ)
    kg = kernel_generators(R)
    want = fv.b_tilde[1] * binom(3, 1)
    ok = kg.count() == want == 6 and kg.independent and kg.representative_stable
    _report("criterion-7 kernel generators", ok,
            f"count={kg.count()} independent={kg.independent} "
            f"stable={kg.representative_stable}")


def test_criterion_8a_differentials_and_functoriality():
    # build every object with internal assertions live; any failure raises.
    # The structure sheaf and the kit's (co)sheaves are certified by the d∘d
    # check of the complexes the job and the kit build; the diamond check
    # runs on them here as an oracle
    ok = True
    for name in SUITE:
        S = preset(name)
        cellular_chain_complex(S, QQ).check_square_zero()
        job = S.job(QQ)
        check_sheaf_functoriality(job.structure_sheaf())
        job.structure_profile.complex.check_square_zero()
        kit = TorusSheafKit(S, preset_charmap(name), QQ)
        for q in range(kit.n + 1):
            for build in (ideal_sheaf, quotient_sheaf, pi_cosheaf, lambda_mod_pi_cosheaf):
                check_sheaf_functoriality(build(kit, q))
    _report("criterion-8a d^2 = 0 and functoriality", ok, f"{len(SUITE)} fixtures")


def test_criterion_8b_subdivision_oracle():
    ok = True
    for name in SUITE:
        S = preset(name)
        oracle = order_complex_homology(S, QQ)
        cellular = reduced_betti(S, QQ)
        for d in range(-1, S.n):
            ok = ok and oracle.dims.get(d, 0) == cellular.get(d, 0)
    _report("criterion-8b subdivision oracle", ok, f"{len(SUITE)} fixtures")


def test_criterion_8c_fh_roundtrip_random():
    import random
    rng = random.Random(77)
    built = 0
    ok = True
    while built < 50:
        n = rng.choice([2, 3])
        verts = list(range(1, rng.randint(n + 1, 6) + 1))
        facets = sorted({tuple(sorted(rng.sample(verts, n)))
                         for _ in range(rng.randint(1, 5))})
        S = build_from_facets(facets)
        if not S.is_pure():
            continue
        built += 1
        fv = face_vectors(S, QQ)
        ok = ok and f_from_h(fv.h, fv.n) == fv.f and h_from_f(fv.f, fv.n) == fv.h
        ok = ok and fv.h[fv.n] == (-1) ** (fv.n - 1) * fv.chi_tilde
    _report("criterion-8c f/h round trip on 50 random posets", ok and built == 50,
            f"built={built}")


def test_criterion_8d_h_double_prime_nonnegative():
    ok = True
    seen = 0
    for name in SUITE + ["digon_cycle(1)", "cross_polytope_boundary(2)"]:
        S = preset(name)
        for F in (QQ, PrimeField(2), PrimeField(3), PrimeField(5)):
            if not classify(S, F).buchsbaum:
                continue
            seen += 1
            fv = face_vectors(S, F)
            ok = ok and all(v >= 0 for v in fv.h_double_prime)
    _report("criterion-8d corrected vector nonnegative", ok and seen > 0,
            f"{seen} Buchsbaum instances")


def test_criterion_8e_rank_invariance():
    S = preset("torus_7")
    cm = preset_charmap("torus_7")
    base1 = graded_quotient_rank(relation_system(S, cm, QQ), include_type2=False)
    base2 = graded_quotient_rank(relation_system(S, cm, QQ), include_type2=True)
    ok = True
    for flips in [{(1,)}, {(2,)}, {(3,)}, {(1, 2)}, {(1, 2, 3)}]:
        with flipped_signs(flips):
            R = relation_system(S, cm, QQ)
            ok = ok and graded_quotient_rank(R, include_type2=False) == base1
            ok = ok and graded_quotient_rank(R, include_type2=True) == base2
    flip_orientation(S, QQ)
    R = relation_system(S, cm, QQ)
    ok = ok and graded_quotient_rank(R, include_type2=False) == base1
    ok = ok and graded_quotient_rank(R, include_type2=True) == base2
    D = preset("digon_cycle(2)")
    dcm = preset_charmap("digon_cycle(2)")
    dbase = graded_quotient_rank(relation_system(D, dcm, QQ), include_type2=True)
    flip_orientation(D, QQ)
    Rd = relation_system(D, dcm, QQ)
    ok = ok and graded_quotient_rank(Rd, include_type2=True) == dbase
    _report("criterion-8e sign and orientation invariance", ok, "")
