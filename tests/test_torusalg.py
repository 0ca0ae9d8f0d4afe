import contextlib
import gc
import hashlib
import io
import itertools
import random
import types

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from torushom.field import QQ, PrimeField
from torushom.errors import InputError, InvariantViolation
from torushom.poset import preset, build_from_facets
from torushom.fixtures import CHARMAPS, preset_charmap
from torushom.torusalg import (
    ExteriorAlgebra, CharacteristicMap, validate_charmap,
    TorusSheafKit, keylemma_check, duality_check, les_duality_check,
)
from torushom.sheaves import (
    CellularSheaf, CellularCosheaf, sheaf_cohomology, tensor, _covers,
)
from torushom.facevec import binom
from torushom.complexes import GradedComplex, HomologyProfile
from torushom.exactlin import Echelon, Matrix
from torushom.cli import main
from torushom.formats import write_charmap

from oracles import (RefSpan, coefficient_CAI, dense, ideal_sheaf, inclusions, is_chain_map,
                     kit_tables, lambda_mod_pi_cosheaf, pi_cosheaf, quotient_class, quotient_sheaf,
                     ref_wedge, span_tables, sparse, structure_tensor_ideal,
                     structure_tensor_quotient, without_empty_stalk)

FIXTURES = ["boundary_of_simplex(2)", "boundary_of_simplex(3)",
            "cross_polytope_boundary(3)", "torus_7", "digon_cycle(2)"]


def fields_for(name):
    # torus_7 admits no map over F2 (proved in test_no_f2_charmap_for_torus_7)
    if name == "torus_7":
        return [QQ, PrimeField(3)]
    return [QQ, PrimeField(2), PrimeField(3)]


def test_exterior_dims_and_signs():
    ext = ExteriorAlgebra(4, QQ)
    assert [ext.dim(q) for q in range(5)] == [1, 4, 6, 4, 1]
    assert ext.shuffle_sign((1,), (2,)) == 1
    assert ext.shuffle_sign((2,), (1,)) == -1
    assert ext.shuffle_sign((1,), (1,)) == 0
    assert ext.shuffle_sign((1, 3), (2,)) == -1


def test_exterior_wedge_anticommutes():
    ext = ExteriorAlgebra(3, QQ)
    e1, e2 = {(1,): QQ.one}, {(2,): QQ.one}
    assert ext.wedge(e1, e2) == {(1, 2): 1}
    assert ext.wedge(e2, e1) == {(1, 2): -1}
    assert ext.wedge(e1, e1) == {}


def _wedge_of_vectors(ext, qa, va, qb, vb):
    """The library's wedge of the forms of two dense vectors, read densely."""
    return dense(ext, qa + qb, ext.wedge(sparse(ext, qa, va), sparse(ext, qb, vb)))


@pytest.mark.parametrize("F", [QQ, PrimeField(2), PrimeField(3), PrimeField(1000003)], ids=str)
def test_wedge_matches_per_element_reference(F):
    rng = random.Random(5)
    ext = ExteriorAlgebra(4, F)
    p = F.char
    # over F_p also entries given as p, -1 or 2p + 1
    pool = [-2, -1, 0, 0, 1, 3] + ([p, 2 * p + 1, -p] if p else [])
    for _ in range(40):
        qa, qb = rng.randint(0, 4), rng.randint(0, 4)
        va = [F(rng.choice(pool)) if not p else rng.choice(pool) for _ in range(ext.dim(qa))]
        vb = [F(rng.choice(pool)) if not p else rng.choice(pool) for _ in range(ext.dim(qb))]
        assert _wedge_of_vectors(ext, qa, va, qb, vb) == ref_wedge(ext, qa, va, qb, vb)
    # the products the ideal and principal-ideal spans are built from:
    # va ^ e_B for every basis vector e_B
    for qa in range(5):
        for qb in range(5):
            va = [F(rng.randint(-2, 2)) for _ in range(ext.dim(qa))]
            for k in range(ext.dim(qb)):
                unit = [F.one if i == k else F.zero for i in range(ext.dim(qb))]
                assert _wedge_of_vectors(ext, qa, va, qb, unit) == \
                    ref_wedge(ext, qa, va, qb, unit)


WEDGE_FIELDS = [QQ, PrimeField(2), PrimeField(1000003)]


@st.composite
def _forms(draw, count):
    """(ext, [(q, form)] * count): homogeneous forms of random degrees on
    n <= 5 generators, with random nonzero coefficients."""
    F = draw(st.sampled_from(WEDGE_FIELDS))
    ext = ExteriorAlgebra(draw(st.integers(0, 5)), F)
    values = (st.fractions(-3, 3, max_denominator=4) if F is QQ
              else st.integers(-2 * F.char, 2 * F.char))
    forms = []
    for _ in range(count):
        q = draw(st.integers(0, ext.n))
        coords = draw(st.dictionaries(st.sampled_from(ext.subsets(q)), values))
        forms.append((q, {A: F(x) for A, x in coords.items() if F(x)}))
    return ext, forms


def _assert_stored_coefficients_nonzero(F, form):
    assert all(x and (not F.char or 0 < x < F.char) for x in form.values()), form


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_forms(2))
def test_wedge_of_random_forms_matches_the_per_term_reference(case):
    ext, [(qa, u), (qb, v)] = case
    w = ext.wedge(u, v)
    _assert_stored_coefficients_nonzero(ext.field, w)
    assert set(w) <= set(ext.subsets(qa + qb))
    assert dense(ext, qa + qb, w) == ref_wedge(ext, qa, dense(ext, qa, u), qb, dense(ext, qb, v))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_forms(3))
def test_wedge_is_associative_and_graded_commutative(case):
    ext, [(qa, u), (qb, v), (_, w)] = case
    F = ext.field
    left, right = ext.wedge(ext.wedge(u, v), w), ext.wedge(u, ext.wedge(v, w))
    assert left == right
    uv, vu = ext.wedge(u, v), ext.wedge(v, u)
    assert uv == {C: F((-1) ** (qa * qb) * x) for C, x in vu.items()}
    for form in (left, uv, vu):
        _assert_stored_coefficients_nonzero(F, form)


def test_validate_charmap_triangle():
    S = preset("boundary_of_simplex(2)")
    rep = validate_charmap(S, preset_charmap("boundary_of_simplex(2)"), QQ)
    assert rep.ok_field and rep.ok_integral


def test_validate_charmap_edge_fails_over_z():
    S = build_from_facets([(1, 2)])
    cm = CharacteristicMap(2, {1: (1, 0), 2: (1, 2)})
    rep = validate_charmap(S, cm, QQ)
    assert rep.ok_field and not rep.ok_integral
    (elem, inv), = rep.integral_failures
    assert list(inv) == [1, 2]
    rep2 = validate_charmap(S, cm, PrimeField(2))
    assert not rep2.ok_field


def test_validate_charmap_digon_over_z():
    S = preset("digon_cycle(2)")
    rep = validate_charmap(S, preset_charmap("digon_cycle(2)"), QQ)
    assert rep.ok_field and rep.ok_integral


def test_torus7_charmap_fields():
    S = preset("torus_7")
    cm = preset_charmap("torus_7")
    assert validate_charmap(S, cm, QQ).ok_field
    assert validate_charmap(S, cm, PrimeField(3)).ok_field
    assert validate_charmap(S, cm, PrimeField(5)).ok_field
    assert not validate_charmap(S, cm, PrimeField(2)).ok_field
    assert not validate_charmap(S, cm, QQ).ok_integral


def test_no_f2_charmap_for_torus_7():
    # over F2 a valid map must label the 7 vertices bijectively by the
    # nonzero vectors of F2^3 (all vertex pairs are edges), avoiding
    # dependent triples on all 14 triangles; exhaustive search: impossible
    from torushom.poset import torus_7_facets
    tris = torus_7_facets()
    pts = [v for v in itertools.product((0, 1), repeat=3) if any(v)]
    found = False
    for perm in itertools.permutations(pts):
        om = {i + 1: perm[i] for i in range(7)}
        if all(tuple(a ^ b for a, b in zip(om[t[0]], om[t[1]])) != om[t[2]]
               for t in tris):
            found = True
            break
    assert not found


def test_charmap_missing_vertex_rejected():
    S = preset("boundary_of_simplex(2)")
    with pytest.raises(InputError):
        validate_charmap(S, CharacteristicMap(2, {1: (1, 0), 2: (0, 1)}), QQ)


def test_ideal_sheaf_dimensions():
    # quotient stalk dimensions are C(n - |I|, q) for every face
    for name in ["boundary_of_simplex(2)", "torus_7", "digon_cycle(2)"]:
        S = preset(name)
        kit = TorusSheafKit(S, preset_charmap(name), QQ)
        n = kit.n
        from torushom.facevec import binom
        for q in range(n + 1):
            ideal = ideal_sheaf(kit, q)
            quot = quotient_sheaf(kit, q)
            for e in range(S.size):
                k = S.ranks[e]
                assert quot.stalk_dims[e] == binom(n - k, q), (name, e, q)
                assert ideal.stalk_dims[e] == binom(n, q) - binom(n - k, q)
        assert ideal_sheaf(kit, 1).stalk_dims[0] == 0
        assert quotient_sheaf(kit, 1).stalk_dims[0] == n


def test_ideal_sheaf_vertex_example():
    # one vertex with direction e1 in rank 2: ideal dims (0,1,1), quotient (1,1,0)
    S = build_from_facets([(1,)])
    kit = TorusSheafKit(S, CharacteristicMap(2, {1: (1, 0)}), QQ)
    v = S.vertices()[0]
    assert [ideal_sheaf(kit, q).stalk_dims[v] for q in range(3)] == [0, 1, 1]
    assert [quotient_sheaf(kit, q).stalk_dims[v] for q in range(3)] == [1, 1, 0]


def test_pi_cosheaf_dimensions():
    for name in ["boundary_of_simplex(2)", "torus_7"]:
        S = preset(name)
        kit = TorusSheafKit(S, preset_charmap(name), QQ)
        from torushom.facevec import binom
        for q in range(kit.n + 1):
            pi = pi_cosheaf(kit, q)
            for e in range(1, S.size):
                k = S.ranks[e]
                want = binom(kit.n - k, q - k) if q >= k else 0
                assert pi.stalk_dims[e] == want
                # vanishing at and below the face dimension
                if q <= k - 1:
                    assert pi.stalk_dims[e] == 0


@pytest.mark.parametrize("cls", [CellularSheaf, CellularCosheaf], ids=["sheaf", "cosheaf"])
def test_inclusions_refuse_spans_that_are_not_nested(cls):
    # vertices span e1 and edges span e2 in degree 1, so no cover map exists
    S = preset("boundary_of_simplex(2)")
    kit = TorusSheafKit(S, preset_charmap("boundary_of_simplex(2)"), QQ)
    spans = {0: [], 1: [[QQ(1), QQ(0)]], 2: [[QQ(0), QQ(1)]]}

    def spanned(vecs):
        span = RefSpan(QQ, 2)
        return [v for v in vecs if span.add(v)], span

    with pytest.raises(InvariantViolation, match="not nested along a cover"):
        inclusions(kit, cls, [spanned(spans[r]) for r in S.ranks], "crossed")
    nested = inclusions(kit, cls, [spanned(spans[min(r, 1)]) for r in S.ranks], "same")
    assert all(m.rows == [[1]] for m in nested.rest.values()) and nested.rest


def test_inclusions_make_no_rref(monkeypatch):
    # every inclusion is read off the target's span, with no fresh elimination
    S = preset("torus_7")
    kit = TorusSheafKit(S, preset_charmap("torus_7"), QQ)
    calls = []
    rref = Matrix.rref
    monkeypatch.setattr(Matrix, "rref", lambda self: calls.append(self) or rref(self))
    for q in range(kit.n + 1):
        ideal_sheaf(kit, q)
        pi_cosheaf(kit, q)
    assert calls == []


def test_pi_form_nonzero_everywhere():
    for name in FIXTURES:
        S = preset(name)
        kit = TorusSheafKit(S, preset_charmap(name), QQ)
        for e in range(1, S.size):
            form = kit.pi_form(e)
            assert form and all(form.values())


def test_coefficient_cai_examples():
    cm = CharacteristicMap(2, {1: (1, 0)})
    assert coefficient_CAI(cm, QQ, (1,), (1,)) == 0
    assert coefficient_CAI(cm, QQ, (1,), (2,)) in (QQ(1), QQ(-1))
    cm2 = CharacteristicMap(2, {1: (1, 0), 2: (0, 1)})
    assert coefficient_CAI(cm2, QQ, (1, 2), ()) in (QQ(1), QQ(-1))
    with pytest.raises(ValueError):
        coefficient_CAI(cm2, QQ, (1,), ())


def _cross4_coordinate_map():
    rows = {}
    for i in range(1, 5):
        rows[i] = tuple(int(k == i - 1) for k in range(4))
        rows[i + 4] = tuple(-x for x in rows[i])
    return CharacteristicMap(4, rows)


def test_kit_coefficient_matches_integer_minor():
    # the kit reads C_{A,I} off the face's top form; the oracle takes the
    # Bareiss determinant of the integer minor.  A face's table holds the
    # nonzero coefficients only, so every subset it leaves out has a zero
    # minor.  Every map here is valid over its field (the kit refuses one
    # that is not)
    cases = [(name, preset_charmap(name), F) for name in CHARMAPS
             for F in (QQ, PrimeField(3), PrimeField(5))]
    cases.append(("cross_polytope_boundary(4)", _cross4_coordinate_map(), PrimeField(1000003)))
    for name, cm, F in cases:
        S = preset(name)
        kit = TorusSheafKit(S, cm, F)
        for e in range(1, S.size):
            table = kit.coefficients(e)
            subsets = kit.ext.subsets(cm.n - len(S.vertex_sets[e]))
            assert set(table) <= set(subsets) and all(table.values()), (name, F, e)
            for A in subsets:
                assert table.get(A, F.zero) == \
                    coefficient_CAI(cm, F, S.vertex_sets[e], A), (name, F, e, A)


def test_cai_matches_quotient_class_up_to_unit():
    # on faces of corank q the determinant coefficients are one consistent
    # unit away from the quotient-basis coordinates
    for name in ["boundary_of_simplex(2)", "torus_7"]:
        S = preset(name)
        kit = TorusSheafKit(S, preset_charmap(name), QQ)
        n = kit.n
        for e in range(1, S.size):
            q = n - S.ranks[e]
            if quotient_sheaf(kit, q).stalk_dims[e] != 1:
                continue
            unit = None
            for k, A in enumerate(kit.ext.subsets(q)):
                vec = [QQ.zero] * kit.ext.dim(q)
                vec[k] = QQ.one
                cls = quotient_class(kit, e, q, vec)[0]
                cai = coefficient_CAI(kit.cmap, QQ, S.vertex_sets[e], A)
                if cai == 0:
                    assert cls == 0
                    continue
                ratio = cls * QQ.inv(cai)
                if unit is None:
                    unit = ratio
                assert ratio == unit, (name, e, A)


def test_keylemma_all_fixtures_all_fields():
    for name in FIXTURES:
        S = preset(name)
        cm = preset_charmap(name)
        for F in fields_for(name):
            rep = keylemma_check(S, cm, F)
            assert rep.passed, (name, F, rep.violations)
            n = cm.n
            assert all(rep.table[(i, 0)] == 0 for i in range(S.n))


def test_keylemma_triangle_values():
    S = preset("boundary_of_simplex(2)")
    rep = keylemma_check(S, preset_charmap("boundary_of_simplex(2)"), QQ)
    assert rep.table[(1, 1)] == 3
    assert rep.table[(0, 1)] == 0


def test_duality_all_fixtures_all_fields():
    for name in FIXTURES:
        S = preset(name)
        cm = preset_charmap(name)
        for F in fields_for(name):
            rep = duality_check(S, cm, F)
            assert rep.passed, (name, F)


def test_duality_vanishes_beyond_top_grading():
    S = preset("boundary_of_simplex(2)")
    kit = TorusSheafKit(S, preset_charmap("boundary_of_simplex(2)"), QQ)
    # degree above the torus rank: both sides identically zero
    q = kit.n
    coh = sheaf_cohomology(structure_tensor_ideal(kit, q))
    hom = sheaf_cohomology(pi_cosheaf(kit, q))
    assert coh.dims.get(0, 0) == hom.dims.get(S.n - 1, 0)


def test_torus_rank_larger_than_poset_rank():
    # a 3-torus over the circle: vanishing range still uses the poset rank
    S = preset("boundary_of_simplex(2)")
    cm = CharacteristicMap(3, {1: (1, 0, 0), 2: (0, 1, 0), 3: (1, 1, 1)})
    assert validate_charmap(S, cm, QQ).ok_field
    rep = keylemma_check(S, cm, QQ)
    assert rep.passed, rep.violations
    assert max(q for (_, q) in rep.table) == 3
    assert duality_check(S, cm, QQ).passed
    assert les_duality_check(S, cm, QQ).passed
    from torushom.specseq import e2_border_sheaf_crosscheck
    with pytest.raises(InputError):
        e2_border_sheaf_crosscheck(S, cm, QQ)
    from torushom.facering import relation_system
    with pytest.raises(InputError):
        relation_system(S, cm, QQ)


def test_charmap_rank_below_poset_rank_rejected():
    S = preset("boundary_of_simplex(3)")
    with pytest.raises(InputError):
        validate_charmap(S, CharacteristicMap(2, {1: (1, 0), 2: (0, 1),
                                                  3: (1, 1), 4: (1, 2)}), QQ)


def test_les_duality_all_fixtures():
    for name in FIXTURES:
        S = preset(name)
        cm = preset_charmap(name)
        for F in fields_for(name):
            rep = les_duality_check(S, cm, F)
            assert rep.passed, (name, F)
            assert rep.sheaf_rows == rep.cosheaf_rows


def _lambda_sheaf(S, F, dim):
    """structure (x) Λ^q, dim = C(n, q), as a tensor complex of its own."""
    return tensor(S.job(F).structure_sheaf(),
                  CellularSheaf.constant(S, F, dim))


def _lambda_cosheaf(S, F, dim):
    """The constant cosheaf Λ^q, dim = C(n, q), as a complex of its own."""
    return CellularCosheaf.constant(S, F, dim, "lambda")


@pytest.mark.parametrize("name", FIXTURES)
@pytest.mark.parametrize("F", [QQ, PrimeField(2), PrimeField(3)], ids=str)
def test_constant_terms_match_tensor_route(name, F):
    # oracle: the tensor complexes give the same dimensions as C(n, q)
    # times the job's structure-sheaf cohomology and Betti numbers
    S = preset(name)
    job = S.job(F)
    cm = preset_charmap(name)
    rep = les_duality_check(S, cm, F) if F in fields_for(name) else None
    for q in range(cm.n + 1):
        copies = binom(cm.n, q)
        coh = sheaf_cohomology(_lambda_sheaf(S, F, copies)).dims
        hom = sheaf_cohomology(_lambda_cosheaf(S, F, copies)).dims
        assert coh == {k: copies * d for k, d in job.structure_cohomology.items()}, q
        assert hom == {k: copies * d for k, d in job.betti.items()}, q
        if rep is not None:
            # and so does the duality check's middle column
            assert rep.sheaf_rows[q][1::3] == [coh[k] for k in range(S.n)]
            assert rep.cosheaf_rows[q][1::3] == [hom[S.n - 1 - k] for k in range(S.n)]


@pytest.mark.parametrize("invariant", ["betti", "structure_cohomology"])
def test_les_duality_fails_when_a_constant_term_is_off(invariant):
    # the middle column compares two independent routes, so one wrong
    # Betti number or structure-sheaf dimension makes the check fail
    name = "boundary_of_simplex(3)"
    for degree in range(preset(name).n):
        S = preset(name)
        job = S.job(QQ)
        wrong = dict(getattr(job, invariant))
        wrong[degree] += 1
        setattr(job, invariant, wrong)
        assert not les_duality_check(S, preset_charmap(name), QQ).passed, degree


# sha256 of (1) the stalk dimensions and cover matrices of the ideal and
# quotient sheaves and of the pi, lambda and lambda/pi cosheaves in every
# degree, and (2) the differentials of their (co)chain complexes, recorded
# before the sheaf and cosheaf builders were merged
KIT_GOLDEN = {
    ("torus_7", "Q"):
        ("79642acfd004802e6eec01f0804992f1b1e3fd06a96fe404c09b6d6aaa64b040",
         "b08d7be8e2d45a14ee0110d0eb02da81560d32cd20f17aca1232b6acdb08c4b6"),
    ("cross_polytope_boundary(3)", "F3"):
        ("77061106a87c4947f8d485c9146a3307179db1e728f0452d6120c24d8a9e7675",
         "5fd43e0b0eb86e0b590c6ac5bd5459a878aa0abde2e3bab17f9a06d85d1180da"),
}


def _hash_matrix(h, m):
    h.update(repr((m.nrows, m.ncols, [[str(v) for v in r] for r in m.rows])).encode())


def _kit_digests(kit):
    S, field = kit.S, kit.field
    maps, diffs = hashlib.sha256(), hashlib.sha256()
    covers = [(i, j) for i in range(S.size) for j in S.covered_by[i]]
    for q in range(kit.n + 1):
        for sheaf in (ideal_sheaf(kit, q), quotient_sheaf(kit, q)):
            maps.update(repr(list(sheaf.stalk_dims)).encode())
            for i, j in covers:
                _hash_matrix(maps, sheaf._cover_matrix(i, j))
        cosheaves = (pi_cosheaf(kit, q), _lambda_cosheaf(S, field, kit.ext.dim(q)),
                     lambda_mod_pi_cosheaf(kit, q))
        for cosheaf in cosheaves:
            maps.update(repr(list(cosheaf.stalk_dims)).encode())
            for i, j in covers:
                _hash_matrix(maps, cosheaf._cover_matrix(j, i))
        tensors = (structure_tensor_ideal(kit, q), _lambda_sheaf(S, field, kit.ext.dim(q)),
                   structure_tensor_quotient(kit, q))
        complexes = [sheaf_cohomology(u).complex
                     for t in tensors for u in (without_empty_stalk(t), t)]
        complexes += [sheaf_cohomology(c).complex for c in cosheaves]
        for cx in complexes:
            diffs.update(repr(sorted(cx.labels.items())).encode())
            for d in sorted(cx.diff):
                diffs.update(repr(d).encode())
                _hash_matrix(diffs, cx.diff[d])
    return maps.hexdigest(), diffs.hexdigest()


def _golden_kit(key):
    name, field = key
    return TorusSheafKit(preset(name), preset_charmap(name), {"Q": QQ, "F3": PrimeField(3)}[field])


def _run_every_degree(kit):
    """The degree passes an `all` job makes: every table of every degree."""
    for q in range(kit.n + 1):
        for kind in ("ideal", "quotient"):
            kit.sheaf_dims(kind, q, True)
        kit.sheaf_dims("quotient", q, False)
        for kind in ("pi", "lambda/pi"):
            kit.cosheaf_dims(kind, q)


@pytest.mark.parametrize("key", sorted(KIT_GOLDEN), ids=lambda k: f"{k[0]}-{k[1]}")
def test_kit_matrices_match_golden(key):
    assert _kit_digests(_golden_kit(key)) == KIT_GOLDEN[key]


@pytest.mark.parametrize("key", sorted(KIT_GOLDEN), ids=lambda k: f"{k[0]}-{k[1]}")
def test_sheaves_asked_after_the_degree_passes_rebuild_to_golden(key):
    # the degree passes keep no sheaf, so one asked for afterwards is built
    # again, entry for entry
    kit = _golden_kit(key)
    _run_every_degree(kit)
    assert _kit_digests(kit) == KIT_GOLDEN[key]


KEPT_TYPES = (Echelon, Matrix, CellularSheaf, GradedComplex, HomologyProfile)


def _reachable(root, stop):
    """Every object reachable from root through instances, containers and
    their contents, not passing through `stop` or any type, function or
    module."""
    seen, found, todo = set(), [], [root]
    while todo:
        obj = todo.pop()
        if id(obj) in seen or any(obj is s for s in stop) or \
                isinstance(obj, (type, types.FunctionType, types.ModuleType)):
            continue
        seen.add(id(obj))
        found.append(obj)
        todo.extend(gc.get_referents(obj))
    return found


def test_kit_keeps_only_dimension_tables_after_an_all_job(tmp_path, monkeypatch):
    kits = []
    init = TorusSheafKit.__init__
    monkeypatch.setattr(TorusSheafKit, "__init__",
                        lambda kit, *args: kits.append(kit) or init(kit, *args))
    path = tmp_path / "map.lam"
    path.write_text(write_charmap(preset_charmap("torus_7")))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["all", "--preset", "torus_7", "--charmap", str(path), "--field", "Q"]) == 0
    kit, = kits
    # the poset holds the job, whose structure sheaf the kit reads
    kept = [type(o).__name__ for o in _reachable(kit, stop=[kit.S]) if isinstance(o, KEPT_TYPES)]
    assert kept == []
    assert sorted(kit._dims) == list(range(kit.n + 1))
    # and the top form of every nonempty face
    assert sorted(kit._forms) == list(range(1, kit.S.size))
    for tables in kit._dims.values():
        assert sorted(map(str, tables)) == sorted(map(str, [
            ("ideal", True), ("quotient", True), ("quotient", False), "pi", "lambda/pi",
            "ranks"]))
        assert all(type(k) is int and type(d) is int
                   for dims in tables.values() for k, d in dims.items())


def _stored_entries_are_nonzero(m):
    p = m.field.char
    rows = m.nonzeros()
    return len(rows) == m.nrows and all(
        0 <= j < m.ncols and a and (not p or 0 < a < p) for r in rows for j, a in r.items())


@pytest.mark.parametrize("name", FIXTURES)
@pytest.mark.parametrize("F", [QQ, PrimeField(2), PrimeField(3), PrimeField(1000003)], ids=str)
def test_kit_matrices_store_no_zero_entry(name, F):
    # the cover builders (the kit's and the span route's), `tensor` (kron),
    # the projections and the block-complex builder write nonzero entries
    # only, over F_p in [1, p)
    S = preset(name)
    if F == PrimeField(2) and name == "torus_7":
        return
    kit = TorusSheafKit(S, preset_charmap(name), F)
    matrices = []
    for q in range(kit.n + 1):
        sheaves = [ideal_sheaf(kit, q), quotient_sheaf(kit, q), pi_cosheaf(kit, q),
                   lambda_mod_pi_cosheaf(kit, q)]
        tensors = [tensor(S.job(F).structure_sheaf(), sheaf) for sheaf in sheaves[:2]]
        complexes = [sheaf_cohomology(u).complex
                     for t in tensors for u in (without_empty_stalk(t), t)]
        complexes += [sheaf_cohomology(c).complex for c in sheaves[2:]]
        matrices += [m for sheaf in sheaves + tensors for m in sheaf.rest.values()]
        matrices += [m for cx in complexes for m in cx.diff.values()]
        quotient = kit._quotient_sheaf(q)
        matrices += [*quotient.rest.values(), *kit._pi_cosheaf(q).rest.values(),
                     *kit.projections(quotient).values()]
    assert matrices and all(_stored_entries_are_nonzero(m) for m in matrices)


# ---------------------------------------------------------------------------
# the kit's adapted-basis route against the span route

def _assert_kit_matches_span_route(S, cm, F):
    kit = TorusSheafKit(S, cm, F)
    for q in range(kit.n + 1):
        assert kit_tables(kit, q) == span_tables(kit, q), q


@pytest.mark.parametrize("name", sorted(CHARMAPS))
@pytest.mark.parametrize("F", [QQ, PrimeField(2), PrimeField(3), PrimeField(1000003)], ids=str)
def test_kit_tables_match_the_span_route(name, F):
    # every table, and the ranks of the projection, equal the span route's:
    # all four (co)sheaves ranked, the ranks forced by exactness
    S, cm = preset(name), preset_charmap(name)
    if not validate_charmap(S, cm, F).ok_field:
        return
    _assert_kit_matches_span_route(S, cm, F)


RANDOM_MAP_POSETS = ["boundary_of_simplex(2)", "boundary_of_simplex(3)",
                     "cross_polytope_boundary(3)", "digon_cycle(2)"]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(st.data())
def test_kit_tables_match_the_span_route_on_random_maps(data):
    # random integer maps with entries -2..2, torus rank up to the poset
    # rank + 2, kept when valid over the field
    S = preset(data.draw(st.sampled_from(RANDOM_MAP_POSETS)))
    F = data.draw(st.sampled_from([QQ, PrimeField(2), PrimeField(3), PrimeField(7)]))
    n = S.n + data.draw(st.integers(0, 2))
    rows = {lab: tuple(data.draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)))
            for lab in S.vertex_labels()}
    cm = CharacteristicMap(n, rows)
    assume(validate_charmap(S, cm, F).ok_field)
    _assert_kit_matches_span_route(S, cm, F)


def _lambda_with_empty_face(S, F, dim):
    """The constant sheaf Λ^q (dim = C(n, q)) on every face, the empty one too."""
    ident = Matrix.identity(F, dim)
    return CellularSheaf(S, F, [dim] * S.size,
                         {cover: ident for cover in _covers(S, CellularSheaf)},
                         include_empty=True, name="lambda")


@pytest.mark.parametrize("name", sorted(CHARMAPS))
@pytest.mark.parametrize("F", [QQ, PrimeField(3)], ids=str)
def test_projection_is_a_cochain_map(name, F):
    # the face-by-face projection structure (x) Λ^q -> structure (x)
    # quotient, the quotient sheaf's maps from the empty face, commutes with
    # the differentials of the untruncated complexes
    S, cm = preset(name), preset_charmap(name)
    if not validate_charmap(S, cm, F).ok_field:
        return
    kit = TorusSheafKit(S, cm, F)
    structure = S.job(F).structure_sheaf()
    for q in range(kit.n + 1):
        quotient = kit._quotient_sheaf(q)
        projections = kit.projections(quotient)
        src = sheaf_cohomology(tensor(structure,
                                      _lambda_with_empty_face(S, F, binom(kit.n, q)))).complex
        dst = sheaf_cohomology(tensor(structure, quotient)).complex
        f = {}
        for k in dst.degrees():
            rows = [[F.zero] * src.dim(k) for _ in range(dst.dim(k))]
            r = c = 0
            cols = dict(zip(src.labels[k], itertools.accumulate(
                [structure.stalk_dims[e] * binom(kit.n, q) for e in src.labels[k]], initial=0)))
            for e in dst.labels[k]:
                block = Matrix.identity(F, structure.stalk_dims[e]).kron(projections[e])
                c = cols[e]
                for i, row in enumerate(block.rows):
                    rows[r + i][c:c + len(row)] = row
                r += block.nrows
            f[k] = Matrix(F, rows, src.dim(k))
        assert is_chain_map(f, src, dst), (q, k)


@pytest.mark.parametrize("name", ["torus_7", "cross_polytope_boundary(3)"])
def test_adapted_bases_complete_each_face_greedily(name):
    # the completion is greedy, and P kills the face's directions and fixes
    # the completing standard vectors
    S = preset(name)
    kit = TorusSheafKit(S, preset_charmap(name), QQ)
    n = kit.n
    for elem, (C, P) in enumerate(kit.frames()):
        span = RefSpan(QQ, n)
        for lab in S.vertex_sets[elem]:
            span.add(kit.frows[lab])
        units = [[QQ(int(i == j)) for i in range(n)] for j in range(n)]
        assert C == tuple(j + 1 for j in range(n) if span.add(units[j]))
        for lab in S.vertex_sets[elem]:
            image = [sum(x * col[c] for x, col in zip(kit.frows[lab], P)) for c in range(len(C))]
            assert not any(image)
        assert [P[j - 1] for j in C] == [units[c][:len(C)] for c in range(len(C))]
        assert all(len(col) == len(C) for col in P)
