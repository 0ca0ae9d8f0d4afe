import pytest

from torushom.errors import InputError
from torushom.poset import (
    build_from_facets, build_from_cover_table, preset, validate,
    incidence_number, face_counts, MAX_ELEMENTS,
)

from oracles import leq, link, link_ids


def test_build_triangle_boundary():
    S = build_from_facets([(1, 2), (1, 3), (2, 3)])
    assert face_counts(S) == (1, 3, 3)
    d = validate(S)
    assert d.ok and d.pure and d.dim == 1


def test_presets_basic_counts():
    assert face_counts(preset("boundary_of_simplex(1)")) == (1, 2)
    assert face_counts(preset("boundary_of_simplex(2)")) == (1, 3, 3)
    assert face_counts(preset("boundary_of_simplex(3)")) == (1, 4, 6, 4)
    assert face_counts(preset("cross_polytope_boundary(3)")) == (1, 6, 12, 8)
    assert face_counts(preset("torus_7")) == (1, 7, 21, 14)
    assert face_counts(preset("digon_cycle(2)")) == (1, 4, 4)


def test_preset_without_parameter_refuses_an_argument():
    for name in ["torus_7(3)", " torus_7 (0) "]:
        with pytest.raises(InputError, match="takes no argument"):
            preset(name)


def test_size_bound_before_faces_are_built():
    # each of these would enumerate far more faces than fit in memory
    for name in ["boundary_of_simplex(30)", "cross_polytope_boundary(30)",
                 "digon_cycle(1000000000)", "boundary_of_simplex(9)"]:
        with pytest.raises(InputError, match="more than"):
            preset(name)
    with pytest.raises(InputError, match="more than"):
        build_from_facets([tuple(range(1, 41))])
    # the count is of distinct faces: shared faces count once
    big = preset("cross_polytope_boundary(5)")
    assert big.size == 243 <= MAX_ELEMENTS
    assert build_from_facets([big.vertex_sets[e] for e in big.maximal_elements()]).size == 243
    assert preset("cross_polytope_boundary(6)").size == 729
    with pytest.raises(InputError, match="more than"):
        build_from_facets([(v, v + 1) for v in range(1, 400)] + [tuple(range(1, 10))])


def test_digon_cycle_structure():
    S = preset("digon_cycle(2)")
    assert S.size == 9
    # two parallel edges per component share their vertex set
    edges = S.elements_of_rank(2)
    vsets = sorted(S.vertex_sets[e] for e in edges)
    assert vsets == [(1, 2), (1, 2), (3, 4), (3, 4)]


def test_validate_torus7():
    S = preset("torus_7")
    d = validate(S)
    assert d.ok and d.pure and d.dim == 2
    assert len(S.maximal_elements()) == 14


def test_validate_rejects_non_boolean():
    # a rank-2 element with a single rank-1 face
    entries = [
        (0, 0, (), ()),
        (1, 1, (1,), (0,)),
        (2, 2, (1, 2), (1,)),
    ]
    with pytest.raises(InputError):
        build_from_cover_table(entries)


def test_validate_rejects_nongraded_cover():
    entries = [
        (0, 0, (), ()),
        (1, 2, (1, 2), (0,)),
    ]
    with pytest.raises(InputError):
        build_from_cover_table(entries)


def test_incidence_examples():
    S = build_from_facets([(1, 2, 3)])
    by_vs = {S.vertex_sets[i]: i for i in range(S.size)}
    assert incidence_number(S, by_vs[(1, 2)], by_vs[(1,)]) == -1
    assert incidence_number(S, by_vs[(1, 2)], by_vs[(2,)]) == 1
    with pytest.raises(InputError):
        incidence_number(S, by_vs[(1, 2, 3)], by_vs[(1,)])


def test_incidence_square_identity_everywhere():
    for name in ["boundary_of_simplex(3)", "torus_7", "digon_cycle(2)",
                 "cross_polytope_boundary(3)"]:
        S = preset(name)
        for j in range(S.size):
            if S.ranks[j] < 2:
                continue
            for i in S.below[j]:
                if S.ranks[i] != S.ranks[j] - 2:
                    continue
                mids = [t for t in S.below[j]
                        if S.ranks[t] == S.ranks[j] - 1 and leq(S, i, t)]
                assert len(mids) == 2
                t1, t2 = mids
                total = (incidence_number(S, j, t1) * incidence_number(S, t1, i)
                         + incidence_number(S, j, t2) * incidence_number(S, t2, i))
                assert total == 0


@pytest.mark.parametrize("name", ["boundary_of_simplex(3)", "torus_7", "digon_cycle(2)",
                                  "cross_polytope_boundary(3)"])
def test_poset_tables_match_a_scan(name):
    # the rank-2 intervals and incidence signs, built once per poset, against
    # a scan of the lower sets and the vertex-set formula
    S = preset(name)
    scan = []
    for j in range(S.size):
        for i in S.below[j]:
            if S.ranks[j] >= 2 and S.ranks[i] == S.ranks[j] - 2:
                mids = [t for t in S.below[j] if S.ranks[t] == S.ranks[j] - 1 and leq(S, i, t)]
                scan.append((i, tuple(mids), j))
    assert list(S.diamonds) == scan
    signs = {}
    for j in range(S.size):
        for i in S.covers[j]:
            v, = set(S.vertex_sets[j]) - set(S.vertex_sets[i])
            signs[(j, i)] = (-1) ** sum(1 for w in S.vertex_sets[j] if w < v)
    assert S.cover_signs == signs
    assert S.diamonds is S.diamonds and S._stars == {}


@pytest.mark.parametrize("name", ["boundary_of_simplex(1)", "boundary_of_simplex(4)",
                                  "cross_polytope_boundary(1)", "cross_polytope_boundary(4)",
                                  "digon_cycle(1)", "digon_cycle(3)", "torus_7"])
def test_upper_set_matches_a_scan(name):
    # the up-closure over `covered_by` against a scan of every element
    S = preset(name)
    for i in range(S.size):
        assert S.upper_set(i) == [j for j in range(S.size) if leq(S, i, j)]


def test_parallel_edges_same_sign():
    S = preset("digon_cycle(1)")
    v1 = next(i for i in S.vertices() if S.vertex_sets[i] == (1,))
    e1, e2 = S.elements_of_rank(2)
    assert incidence_number(S, e1, v1) == incidence_number(S, e2, v1)


def test_link_of_empty_is_whole_poset():
    S = preset("torus_7")
    L = link(S, 0)
    assert L.size == S.size
    assert face_counts(L) == face_counts(S)


def test_link_of_vertex():
    S = preset("boundary_of_simplex(2)")
    v = S.vertices()[0]
    L = link(S, v)
    assert face_counts(L) == (1, 2)          # two points
    T = preset("torus_7")
    for v in T.vertices():
        LV = link(T, v)
        assert face_counts(LV) == (1, 6, 6)  # a 6-cycle


def _graded_isomorphic(A, B):
    """Backtracking isomorphism of graded posets (covers + ranks only)."""
    if A.size != B.size:
        return False
    if sorted(A.ranks) != sorted(B.ranks):
        return False
    a_by_rank = {}
    for i in range(A.size):
        a_by_rank.setdefault(A.ranks[i], []).append(i)
    b_by_rank = {}
    for i in range(B.size):
        b_by_rank.setdefault(B.ranks[i], []).append(i)

    assign = {}

    def extend(rank):
        if rank > A.n:
            return True
        import itertools
        a_elems = a_by_rank.get(rank, [])
        b_elems = b_by_rank.get(rank, [])
        for perm in itertools.permutations(b_elems):
            ok = True
            for a, b in zip(a_elems, perm):
                if sorted(assign[c] for c in A.covers[a]) != sorted(B.covers[b]):
                    ok = False
                    break
            if ok:
                for a, b in zip(a_elems, perm):
                    assign[a] = b
                if extend(rank + 1):
                    return True
                for a in a_elems:
                    del assign[a]
        return False

    assign[0] = 0
    return extend(1)


def test_link_of_link_is_link_of_join():
    S = preset("boundary_of_simplex(3)")
    v = S.vertices()[0]
    L = link(S, v)
    w = L.vertices()[0]
    LL = link(L, w)
    join = link_ids(S, v)[w]
    LJ = link(S, join)
    assert _graded_isomorphic(LL, LJ)


def test_face_counts_rejects_non_pure():
    S = build_from_facets([(1, 2, 3), (4, 5)])
    with pytest.raises(InputError):
        face_counts(S)
