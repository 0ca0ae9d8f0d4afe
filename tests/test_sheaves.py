import functools
import hashlib
import itertools
import json

import pytest
from hypothesis import given, settings, strategies as st

from torushom.exactlin import Matrix
from torushom.field import QQ, PrimeField
from torushom.fixtures import CHARMAPS
from torushom.poset import preset, build_from_facets
from torushom.complexes import classify, reduced_betti, betti
from torushom.errors import InvariantViolation
from torushom.sheaves import (
    CellularSheaf, CellularCosheaf, sheaf_cohomology, tensor, constancy_check,
    LocalHomologyData, _covers, truncated_dims,
)

from oracles import (check_sheaf_functoriality, leq, link_reduced_betti, restrict_to_link,
                     sheaf_dump, sheaf_restriction, upper_set_sheaf, without_empty_stalk)

RP2_FACETS = [(1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
              (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6)]


def test_constant_sheaf_circle():
    S = preset("boundary_of_simplex(2)")
    coh = sheaf_cohomology(CellularSheaf.constant(S, QQ, 1))
    assert coh.dims == {0: 1, 1: 1}


def test_constant_sheaf_torus(any_field):
    S = preset("torus_7")
    coh = sheaf_cohomology(CellularSheaf.constant(S, any_field, 1))
    assert coh.dims == {0: 1, 1: 2, 2: 1}


def test_constant_sheaf_tensor_dims():
    S = preset("boundary_of_simplex(2)")
    A = CellularSheaf.constant(S, QQ, 2)
    B = CellularSheaf.constant(S, QQ, 3)
    T = tensor(A, B)
    assert all(T.stalk_dims[i] == 6 for i in range(1, S.size))
    coh = sheaf_cohomology(T)
    assert coh.dims == {0: 6, 1: 6}


def test_tensor_with_unit_is_identity_dims():
    S = preset("torus_7")
    A = without_empty_stalk(S.job(QQ).structure_sheaf())
    U = CellularSheaf.constant(S, QQ, 1)
    T = tensor(A, U)
    assert T.stalk_dims == A.stalk_dims
    for key, m in A.rest.items():
        if key[0] != 0:
            assert T.rest[key].rows == m.rows


def test_upper_set_shifts_link_cohomology():
    # H^k(S; ups_I) has the dimensions of reduced link (co)homology shifted by |I|
    for name in ["boundary_of_simplex(2)", "boundary_of_simplex(3)", "torus_7",
                 "digon_cycle(2)"]:
        S = preset(name)
        for i in range(S.size):
            coh = sheaf_cohomology(upper_set_sheaf(S, QQ, i, 1))
            lk_b = link_reduced_betti(S, QQ, i) if i != 0 else reduced_betti(S, QQ)
            k0 = S.ranks[i]
            for k, d in coh.dims.items():
                assert d == lk_b.get(k - k0, 0), (name, i, k)


def test_upper_set_tensors_with_value_dimension():
    # the value dimension multiplies through: dims of H*(ups_I with value W)
    # are W times the one-dimensional case
    S = preset("boundary_of_simplex(3)")
    for i in [S.vertices()[0], S.elements_of_rank(2)[0]]:
        one = sheaf_cohomology(upper_set_sheaf(S, QQ, i, 1))
        two = sheaf_cohomology(upper_set_sheaf(S, QQ, i, 3))
        for k in one.dims:
            assert two.dims[k] == 3 * one.dims[k]


def test_upper_set_vertex_of_circle():
    S = preset("boundary_of_simplex(2)")
    v = S.vertices()[0]
    coh = sheaf_cohomology(upper_set_sheaf(S, QQ, v, 1))
    # link is two points; reduced gives one class, shifted to degree 1
    assert coh.dims == {0: 0, 1: 1}


def test_structure_sheaf_torus_stalks():
    S = preset("torus_7")
    sheaf = S.job(QQ).structure_sheaf()
    assert all(sheaf.stalk_dims[i] == 1 for i in range(1, S.size))
    assert sheaf.stalk_dims[0] == 1  # top reduced homology of the torus


def test_structure_sheaf_cohomology_is_poset_homology():
    # truncated cochain cohomology in degree n-1-p has the dimension of H_p(|S|)
    for name in ["torus_7", "boundary_of_simplex(3)", "digon_cycle(2)",
                 "cross_polytope_boundary(3)"]:
        S = preset(name)
        sheaf = S.job(QQ).structure_sheaf()
        dims = truncated_dims(sheaf_cohomology(sheaf))
        b = betti(S, QQ)
        n = S.n
        for p in range(n):
            assert dims.get(n - 1 - p, 0) == b.get(p, 0), (name, p)
    # the torus values in one line: degrees (0,1,2) carry (1,2,1)
    S = preset("torus_7")
    assert truncated_dims(sheaf_cohomology(S.job(QQ).structure_sheaf())) == {0: 1, 1: 2, 2: 1}


def test_buchsbaum_iff_local_homology_vanishes():
    for name, expect in [("torus_7", True), ("boundary_of_simplex(3)", True),
                         ("digon_cycle(2)", True)]:
        S = preset(name)
        rep = classify(S, QQ)
        data = LocalHomologyData(S, QQ)
        vanish = all(data.profile(j).dims[i] == 0
                     for j in range(1, S.size) for i in range(0, S.n - 1))
        assert rep.buchsbaum == vanish == expect
    # a non-Buchsbaum example: two triangles glued along an edge, plus a dangling
    # triangle fan making a vertex link disconnected
    S = build_from_facets([(1, 2, 3), (1, 2, 4), (1, 5, 6)])
    rep = classify(S, QQ)
    assert not rep.buchsbaum
    data = LocalHomologyData(S, QQ)
    vanish = all(data.profile(j).dims[i] == 0
                 for j in range(1, S.size) for i in range(0, S.n - 1))
    assert not vanish


def test_cone_collapse_on_cm_links():
    # on Buchsbaum posets the structure sheaf restricted to any nonempty
    # face's link has one-dimensional cohomology in top degree, zero elsewhere
    for name in ["torus_7", "boundary_of_simplex(3)", "digon_cycle(2)"]:
        S = preset(name)
        sheaf = S.job(QQ).structure_sheaf()
        for i in list(S.vertices())[:2] + list(S.maximal_elements())[:2]:
            restricted = restrict_to_link(sheaf, i)
            coh = sheaf_cohomology(restricted)
            top = restricted.poset.n - 1
            for k, d in coh.dims.items():
                assert d == (1 if k == top else 0), (name, i, k)


def test_upper_set_tensor_matches_link_restriction():
    # cohomology of (upper-set sheaf) (x) A equals the cohomology of A
    # restricted to the link, shifted by the face rank
    S = preset("torus_7")
    A = S.job(QQ).structure_sheaf()
    for i in list(S.vertices())[:2] + list(S.elements_of_rank(2))[:2]:
        ups = upper_set_sheaf(S, QQ, i, 1)
        left = sheaf_cohomology(tensor(ups, A))
        right = sheaf_cohomology(restrict_to_link(A, i))
        k0 = S.ranks[i]
        for k, d in left.dims.items():
            assert d == right.dims.get(k - k0, 0), (i, k)


def test_constancy_torus_and_spheres():
    for name in ["torus_7", "boundary_of_simplex(3)", "digon_cycle(2)",
                 "cross_polytope_boundary(3)"]:
        S = preset(name)
        sheaf = S.job(QQ).structure_sheaf()
        res = constancy_check(sheaf)
        assert res.is_constant, (name, res.witness)


def test_constancy_fails_on_stalk_dimension():
    # an interval: endpoints have zero top local homology
    S = build_from_facets([(1, 2), (2, 3)])
    sheaf = S.job(QQ).structure_sheaf()
    res = constancy_check(sheaf)
    assert not res.is_constant
    assert "dimension" in res.witness


def test_constancy_projective_plane_detects_orientability():
    S = build_from_facets(RP2_FACETS)
    assert classify(S, QQ).buchsbaum
    over_q = constancy_check(S.job(QQ).structure_sheaf())
    assert not over_q.is_constant and "cycle" in over_q.witness
    over_f2 = constancy_check(S.job(PrimeField(2)).structure_sheaf())
    assert over_f2.is_constant


def test_restriction_composition_is_chain_independent():
    # composing cover restrictions along any saturated chain gives the same
    # matrix as sheaf_restriction(); checked on every vertex-under-facet interval
    S = preset("torus_7")
    sheaf = S.job(QQ).structure_sheaf()
    for j in range(S.size):
        if S.ranks[j] != 3:
            continue
        for i in S.below[j]:
            if S.ranks[i] != 1:
                continue
            via = sheaf_restriction(sheaf, i, j)
            mids = [t for t in S.below[j] if S.ranks[t] == 2 and leq(S, i, t)]
            assert len(mids) == 2
            for t in mids:
                comp = sheaf._cover_matrix(t, j).mul(sheaf._cover_matrix(i, t))
                assert comp.rows == via.rows


def test_zero_cosheaf_has_zero_homology():
    S = preset("boundary_of_simplex(2)")
    z = CellularCosheaf(S, QQ, [0] * S.size, {}, name="zero")
    hom = sheaf_cohomology(z)
    assert all(v == 0 for v in hom.dims.values())


def test_constant_cosheaf_is_cellular_homology():
    S = preset("boundary_of_simplex(2)")
    ident = Matrix.identity(QQ, 1)
    corest = {(j, i): ident for j in range(1, S.size) for i in S.covers[j] if i != 0}
    c = CellularCosheaf(S, QQ, [0] + [1] * (S.size - 1), corest, name="k")
    hom = sheaf_cohomology(c)
    assert {d: v for d, v in hom.dims.items()} == {0: 1, 1: 1}
    # the tensor square keeps the direction of the maps
    square = tensor(c, c)
    assert isinstance(square, CellularCosheaf) and square.rest.keys() == corest.keys()
    assert sheaf_cohomology(square).dims == hom.dims
    with pytest.raises(InvariantViolation, match="sheaf with a cosheaf"):
        tensor(CellularSheaf.constant(S, QQ, 1), c)


def test_sheaf_dump_roundtrip_golden():
    S = preset("boundary_of_simplex(2)")
    sheaf = CellularSheaf.constant(S, QQ, 1)
    dump = sheaf_dump(sheaf)
    assert dump["stalk_dims"] == [0, 1, 1, 1, 1, 1, 1]
    assert all(rows == [["1"]] for rows in dump["covers"].values())
    assert json.dumps(dump, sort_keys=True) == json.dumps(dump, sort_keys=True)


# sha256 of the JSON dumps of the structure sheaf without and with its
# empty-face stalk, recorded while the local homology complexes were still
# built as quotients by subposet masks; pins every restriction matrix.  The
# job builds only the sheaf with that stalk; the one without is formed
# from it by the oracle `without_empty_stalk`
STRUCTURE_GOLDEN = {
    ("boundary_of_simplex(2)", "Q"):
        "e8a27368dbf17bae801590db4cd520530bd779f112fbac1edda089fbf6ec0b57",
    ("boundary_of_simplex(2)", "F2"):
        "fbc530756cc1a239ddf4e7291d2d6be1790c4057b8ad4963963abf8ef7fd59ce",
    ("boundary_of_simplex(2)", "F3"):
        "d52aac564591e6e5401323d904cb38fd7ac3912172594d72713a9f642adcf27f",
    ("boundary_of_simplex(3)", "Q"):
        "d10005e3166ddd4f1f6a44131bf393422592f434b69945692c3e0cc0689a8e63",
    ("boundary_of_simplex(3)", "F2"):
        "fa88787dce700284cfd161c0360510f554a072a502a65ccbc90ec8475de20f86",
    ("boundary_of_simplex(3)", "F3"):
        "9071474d395269d1141737c2d7216548d22ed265b3e1e90285e3a5d5d4be2494",
    ("cross_polytope_boundary(3)", "Q"):
        "f399fcef6f91afe0278ab91877483f6795d2d842294ca1e642bd427b5a16c7d1",
    ("cross_polytope_boundary(3)", "F2"):
        "c4fe3a899b36dc6e8e161ac4edb14b892bacaf47ec7cc21dcc790c7cb270a451",
    ("cross_polytope_boundary(3)", "F3"):
        "45ddcf1ea5adef5d716f9a75c4717900f064a14734d6d4a8c59212186b26eaa9",
    ("digon_cycle(1)", "Q"):
        "f83d779564280221c15081535cb3c255d58b79416539dd1dfe5becca611cf999",
    ("digon_cycle(1)", "F2"):
        "c3efa6abed2f515e3847972fc00d05de6d19bab8c82a3b0c3b8942fb6a228c6a",
    ("digon_cycle(1)", "F3"):
        "f94b1f6a828e19c8009de3f041ff6aa96c6ed0430a1817314b55fdff9c4d2d11",
    ("digon_cycle(2)", "Q"):
        "e46aa4ecbedc884793cee5c60ed3a05f62f1cbca9233fac3c38473a4f76ea6e2",
    ("digon_cycle(2)", "F2"):
        "2cf5ffb7483d50cd05c2965bac84c2e24ce2495c3cc9ea3f68052b4f5eeeebbb",
    ("digon_cycle(2)", "F3"):
        "2c173b06f57e3ebbbae17bbe952777137fbaae97b63b66d9bb7ecbed03df83bc",
    ("torus_7", "Q"):
        "1cd72068417199087581d80ece8ae42651df97eb28b13355d87cb37191216e77",
    ("torus_7", "F2"):
        "c2d435fea226469482bce25146ff09d841f6b9c43b9d04c49acd1b7ea2459079",
    ("torus_7", "F3"):
        "c61dadfe1588f8be207bd367d9ed8853a00447983eb48e3c9426f99b714e3a41",
}


@pytest.mark.parametrize("key", sorted(STRUCTURE_GOLDEN), ids=lambda k: f"{k[0]}-{k[1]}")
def test_structure_sheaf_matches_golden(key):
    name, field = key
    job = preset(name).job(QQ if field == "Q" else PrimeField(int(field[1:])))
    sheaf = job.structure_sheaf()
    dumps = [sheaf_dump(without_empty_stalk(sheaf)), sheaf_dump(sheaf)]
    digest = hashlib.sha256(json.dumps(dumps, sort_keys=True).encode()).hexdigest()
    assert digest == STRUCTURE_GOLDEN[key]


def test_functoriality_check_fails_on_a_broken_square():
    # one cover map of the constant sheaf and of the constant cosheaf is
    # doubled; the square through it no longer commutes in either direction
    S = preset("boundary_of_simplex(3)")
    edge = S.elements_of_rank(2)[0]
    vertex = S.covers[edge][0]
    sheaf = CellularSheaf.constant(S, QQ, 1)
    cosheaf = CellularCosheaf(S, QQ, sheaf.stalk_dims,
                              {(j, i): m for (i, j), m in sheaf.rest.items()})
    check_sheaf_functoriality(cosheaf)
    facet = S.covered_by[edge][0]
    assert sheaf_restriction(cosheaf, vertex, facet).rows == Matrix.identity(QQ, 1).rows
    two = Matrix(QQ, [[QQ(2)]])
    sheaf.rest[(vertex, edge)] = two
    cosheaf.rest[(edge, vertex)] = two
    with pytest.raises(InvariantViolation, match="^sheaf functoriality fails"):
        check_sheaf_functoriality(sheaf)
    with pytest.raises(InvariantViolation, match="^cosheaf functoriality fails"):
        check_sheaf_functoriality(cosheaf)


@pytest.mark.parametrize("p", [3, 1000003])
def test_functoriality_check_reads_entries_mod_p(p):
    # every cover map of a rank-two constant sheaf and cosheaf is diag(1, -1)
    # mod p, written with the entries p, -1 and 2p + 1, so every composite
    # is the identity; a map that is the identity breaks the squares through it
    F = PrimeField(p)
    S = preset("boundary_of_simplex(3)")
    forms = [[[2 * p + 1, p], [p, -1]], [[1, 0], [0, p - 1]],
             [[1 - p, 2 * p], [-p, 2 * p - 1]]]
    sheaf = CellularSheaf.constant(S, F, 2)
    for t, key in enumerate(sorted(sheaf.rest)):
        sheaf.rest[key] = Matrix(F, forms[t % 3])
    cosheaf = CellularCosheaf(S, F, sheaf.stalk_dims,
                              {(j, i): m for (i, j), m in sheaf.rest.items()})
    check_sheaf_functoriality(sheaf)
    check_sheaf_functoriality(cosheaf)
    edge = S.elements_of_rank(2)[0]
    vertex = S.covers[edge][0]
    identity = Matrix(F, [[2 * p + 1, p], [-p, 1]])
    sheaf.rest[(vertex, edge)] = identity
    cosheaf.rest[(edge, vertex)] = identity
    with pytest.raises(InvariantViolation, match="^sheaf functoriality fails on 1 < 5,6 < 11$"):
        check_sheaf_functoriality(sheaf)
    with pytest.raises(InvariantViolation, match="^cosheaf functoriality fails on 1 < 5,6 < 11$"):
        check_sheaf_functoriality(cosheaf)


@pytest.mark.parametrize("rows", [[[1, 0]], [[1], [0]]], ids=["wider", "taller"])
@pytest.mark.parametrize("cover", ["upper", "lower"])
def test_functoriality_check_refuses_a_map_that_does_not_fit_its_stalks(rows, cover):
    # one cover map of a constant sheaf with stalks QQ^1 is replaced by a
    # 1x2 or 2x1 matrix; its composites would be products of factors that do
    # not compose ("upper", the left factor) or of the wrong shape ("lower")
    S = preset("boundary_of_simplex(3)")
    edge = S.elements_of_rank(2)[0]
    vertex, facet = S.covers[edge][0], S.covered_by[edge][0]
    src, dst = (edge, facet) if cover == "upper" else (vertex, edge)
    sheaf = CellularSheaf.constant(S, QQ, 1)
    check_sheaf_functoriality(sheaf)
    sheaf.rest[(src, dst)] = Matrix(QQ, rows)
    with pytest.raises(InvariantViolation,
                       match=f"^sheaf map {src} -> {dst} does not fit its stalks$"):
        check_sheaf_functoriality(sheaf)
    # the complex's assembler refuses it too, before d∘d is formed
    with pytest.raises(InvariantViolation,
                       match=f"^sheaf map {src} -> {dst} does not fit its stalks$"):
        sheaf_cohomology(sheaf)


@pytest.mark.parametrize("check", [constancy_check, lambda c: restrict_to_link(c, 1)],
                         ids=["constancy_check", "restrict_to_link"])
def test_sheaf_only_operations_refuse_a_cosheaf(check):
    # both read every cover map as running up; on the constant cosheaf that
    # reads as zero maps, so they refuse it instead of answering
    S = preset("boundary_of_simplex(2)")
    cosheaf = CellularCosheaf.constant(S, QQ, 1, "k")
    with pytest.raises(TypeError, match="takes a sheaf, not the cosheaf 'k'"):
        check(cosheaf)


@pytest.mark.parametrize("name", sorted(CHARMAPS))
def test_identity_kinds_are_functorial(name):
    # the constant and upper-set sheaves are built unchecked, since their
    # cover maps are identities; the check passes on them everywhere
    S = preset(name)
    for F in (QQ, PrimeField(2)):
        for dim in (1, 3):
            check_sheaf_functoriality(CellularSheaf.constant(S, F, dim))
        for i in range(S.size):
            sheaf = upper_set_sheaf(S, F, i, 2)
            assert sheaf.include_empty == (i == 0)
            check_sheaf_functoriality(sheaf)


# Gauge-transformed constant (co)sheaves: the map of a cover a -> b is
# g_b g_a^-1 for an invertible g per face, so every composite from a to c is
# g_c g_a^-1 and the (co)sheaf is functorial until one entry of one map is
# changed.  A changed map breaks exactly the diamonds through its cover,
# since every other map is invertible.
GAUGE_POSETS = {name: preset(name) for name in ("boundary_of_simplex(3)", "digon_cycle(2)")}


@functools.cache
def _invertible_pairs(F, dim, entries=range(-2, 3)):
    """Every invertible dim x dim matrix with entries in `entries`, read in
    F, with its inverse."""
    pairs = {}
    for flat in itertools.product(entries, repeat=dim * dim):
        rows = [[F(v) for v in flat[k:k + dim]] for k in range(0, dim * dim, dim)]
        det = F(rows[0][0] if dim == 1 else rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0])
        if det:
            inv = F.inv(det)
            inverse = ([[inv]] if dim == 1 else
                       [[F(inv * rows[1][1]), F(-inv * rows[0][1])],
                        [F(-inv * rows[1][0]), F(inv * rows[0][0])]])
            pairs[str(rows)] = (Matrix(F, rows, dim), Matrix(F, inverse, dim))
    return [pairs[key] for key in sorted(pairs)]


@st.composite
def gauge_sheaves(draw):
    """A gauge-transformed constant sheaf or cosheaf, with one entry of one
    cover map changed in about half the draws; returns (sheaf, faulted
    cover or None)."""
    S = GAUGE_POSETS[draw(st.sampled_from(sorted(GAUGE_POSETS)))]
    F = draw(st.sampled_from([QQ, PrimeField(3)]))
    cls = draw(st.sampled_from([CellularSheaf, CellularCosheaf]))
    dim = draw(st.integers(1, 2))
    include_empty = draw(st.booleans())
    dims = [dim] * S.size
    if not include_empty:
        dims[0] = 0
    gauge = st.sampled_from(_invertible_pairs(F, dim))
    gauge = {e: draw(gauge) for e in range(S.size) if dims[e]}
    rest = {(a, b): gauge[b][0].mul(gauge[a][1])
            for a, b in _covers(S, cls) if dims[a] and dims[b]}
    faulted = None
    if draw(st.booleans()):
        faulted = draw(st.sampled_from(sorted(rest)))
        rows = [list(r) for r in rest[faulted].rows]
        r, c = draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))
        rows[r][c] = F(rows[r][c] + draw(st.integers(1, 2)))
        rest[faulted] = Matrix(F, rows, dim)
    return cls(S, F, dims, rest, include_empty=include_empty), faulted


def _raises(check, sheaf):
    try:
        check(sheaf)
    except InvariantViolation as e:
        return str(e)
    return None


@settings(max_examples=200, deadline=None)
@given(gauge_sheaves())
def test_diamond_check_fails_exactly_when_d_squared_is_not_zero(drawn):
    # the premise of certifying a (co)sheaf by the d∘d check of its
    # untruncated complex alone: the two checks refuse the same maps
    sheaf, faulted = drawn
    diamond = _raises(check_sheaf_functoriality, sheaf)
    square = _raises(sheaf_cohomology, sheaf)
    assert (diamond is None) == (square is None), (diamond, square)
    assert square is None or square.startswith("d^2 != 0 at degree ")
    # and both refuse a changed map exactly when its cover lies on a
    # diamond they read: one whose bottom is nonempty or carries a stalk
    on_a_diamond = False
    if faulted is not None:
        low, high = faulted if sheaf._step > 0 else faulted[::-1]
        on_a_diamond = any((i == low and high in mids or j == high and low in mids)
                           and (i != 0 or sheaf.include_empty)
                           for i, mids, j in sheaf.poset.diamonds)
    assert (diamond is not None) == on_a_diamond
