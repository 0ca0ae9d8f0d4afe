import pytest

from torushom.field import QQ, PrimeField
from torushom.exactlin import Matrix
from torushom.fixtures import CHARMAPS
from torushom.errors import InputError, InvariantViolation
from torushom.poset import preset, build_from_facets
from torushom.complexes import (
    GradedComplex, cellular_chain_complex, homology, reduced_betti,
    betti, classify,
)

from oracles import RefSpan, order_complex_homology, link_reduced_betti, induced_map, is_chain_map

from test_exactlin import ref_solve_matrix


def test_point_homology():
    S = build_from_facets([(1,)])
    assert betti(S, QQ) == {0: 1}
    assert reduced_betti(S, QQ) == {-1: 0, 0: 0}


def test_circle_homology_reduced():
    S = preset("boundary_of_simplex(2)")
    cx = cellular_chain_complex(S, QQ)
    assert {d: cx.dim(d) for d in cx.degrees()} == {-1: 1, 0: 3, 1: 3}
    prof = homology(cx)
    assert prof.dims.get(0, 0) == 0
    assert prof.dims.get(1, 0) == 1


def test_sphere_homology():
    S = preset("boundary_of_simplex(3)")
    rb = reduced_betti(S, QQ)
    assert rb == {-1: 0, 0: 0, 1: 0, 2: 1}


def test_torus_homology(any_field):
    S = preset("torus_7")
    rb = reduced_betti(S, any_field)
    assert rb == {-1: 0, 0: 0, 1: 2, 2: 1}
    b = betti(S, any_field)
    assert b == {0: 1, 1: 2, 2: 1}


def test_digon_cycle_homology():
    S = preset("digon_cycle(2)")
    rb = reduced_betti(S, QQ)
    assert rb == {-1: 0, 0: 1, 1: 2}


def test_euler_characteristic_matches_f_vector():
    from torushom.poset import face_counts
    for name in ["boundary_of_simplex(2)", "boundary_of_simplex(3)", "torus_7",
                 "digon_cycle(2)", "cross_polytope_boundary(3)"]:
        S = preset(name)
        f = face_counts(S)
        chi = sum((-1) ** i * f[i + 1] for i in range(len(f) - 1))
        b = betti(S, QQ)
        assert chi == sum((-1) ** d * v for d, v in b.items())


def test_order_complex_oracle_agreement(any_field):
    for name in ["boundary_of_simplex(2)", "boundary_of_simplex(3)", "torus_7",
                 "digon_cycle(1)", "digon_cycle(2)", "cross_polytope_boundary(2)"]:
        S = preset(name)
        oracle = order_complex_homology(S, any_field)
        cellular = reduced_betti(S, any_field)
        for d in range(-1, S.n):
            assert oracle.dims.get(d, 0) == cellular.get(d, 0), (name, d)


def test_order_complex_digon_is_4_cycle():
    S = preset("digon_cycle(1)")
    prof = order_complex_homology(S, QQ)
    assert prof.dims.get(1, 0) == 1
    assert prof.dims.get(0, 0) == 0


def test_relative_complex_matches_link_homology():
    # H_d(S, S \ lk j) == reduced H_{d-|j|}(lk j) rank by rank
    for name in ["boundary_of_simplex(3)", "torus_7", "digon_cycle(2)"]:
        S = preset(name)
        for j in list(S.vertices())[:3] + list(S.maximal_elements())[:2]:
            rel = S.job(QQ).link_dims[j]
            lk_betti = link_reduced_betti(S, QQ, j)
            for d in range(-1, S.n):
                assert rel.get(d + S.ranks[j], 0) == lk_betti.get(d, 0), (name, j, d)


def test_relative_example_triangle_edge():
    # H_*(S, S \ lk e) for an edge of the triangle boundary: k in degree 1
    S = preset("boundary_of_simplex(2)")
    e = S.elements_of_rank(2)[0]
    dims = S.job(QQ).link_dims[e]
    assert dims.get(1, 0) == 1
    assert all(v == 0 for d, v in dims.items() if d != 1)


@pytest.mark.parametrize("name", sorted(CHARMAPS))
def test_star_of_the_empty_face_is_the_whole_complex(name, any_field):
    # the star of the empty face is every face, with the empty face in
    # degree -1 mapped to by every vertex: the augmented complex of S
    S = preset(name)
    cx = cellular_chain_complex(S, any_field)
    assert sorted(j for ids in cx.labels.values() for j in ids) == list(range(S.size))
    assert cx.labels[-1] == [0] and cx.dims[-1] == 1
    assert cx.d(0).rows == [[any_field.one] * len(S.vertices())]
    # without the augmentation it is the cellular complex of S, whose
    # homology has one class more than the reduced one, in degree 0
    plain = GradedComplex(any_field, {d: k for d, k in cx.dims.items() if d >= 0},
                          {d: m for d, m in cx.diff.items() if d >= 1}, shift=-1)
    rb = reduced_betti(S, any_field)
    assert rb[-1] == 0
    assert homology(plain).dims == betti(S, any_field) == {d: rb[d] + (d == 0)
                                                            for d in range(S.n)}


def test_star_of_a_maximal_face_is_one_generator():
    S = preset("torus_7")
    for top in S.maximal_elements():
        cx = cellular_chain_complex(S, QQ, star=top)
        assert cx.labels[2] == [top]
        assert {d: cx.dim(d) for d in cx.degrees()} == {-1: 0, 0: 0, 1: 0, 2: 1}
        assert homology(cx).dims == {-1: 0, 0: 0, 1: 0, 2: 1}


def test_star_of_a_parallel_edge_excludes_the_other():
    S = preset("digon_cycle(1)")
    e1, e2 = S.elements_of_rank(2)
    assert S.vertex_sets[e1] == S.vertex_sets[e2]
    cx = cellular_chain_complex(S, QQ, star=e1)
    assert cx.labels == {-1: [], 0: [], 1: [e1]}
    # the star of a vertex holds both parallel edges
    v = S.vertices()[0]
    assert cellular_chain_complex(S, QQ, star=v).labels == {-1: [], 0: [v], 1: [e1, e2]}


def test_star_outside_the_poset_is_refused():
    S = preset("boundary_of_simplex(2)")
    for star in (S.size, -1):
        with pytest.raises(InputError, match="no element"):
            cellular_chain_complex(S, QQ, star=star)


def test_classification():
    assert classify(preset("boundary_of_simplex(3)", ), QQ).cohen_macaulay
    rep = classify(preset("torus_7"), QQ)
    assert rep.buchsbaum and not rep.cohen_macaulay
    rep2 = classify(preset("digon_cycle(2)"), QQ)
    assert rep2.buchsbaum and not rep2.cohen_macaulay
    assert classify(preset("cross_polytope_boundary(3)"), QQ).cohen_macaulay


def test_classify_torus7_mod_p():
    for p in (2, 3, 5):
        rep = classify(preset("torus_7"), PrimeField(p))
        assert rep.buchsbaum and not rep.cohen_macaulay


def test_induced_map_identity_and_projection():
    S = preset("boundary_of_simplex(2)")
    cx = cellular_chain_complex(S, QQ)
    prof = homology(cx)
    ident = {d: Matrix.identity(QQ, cx.dim(d)) for d in cx.degrees()}
    assert is_chain_map(ident, cx, cx)
    ind = induced_map(ident, prof, prof)
    assert ind[1].rows[0][0] == 1

    # projection onto the star of an edge: keep the coordinates of its faces
    e = S.elements_of_rank(2)[0]
    rel = cellular_chain_complex(S, QQ, star=e)
    proj = {}
    for d, ids in rel.labels.items():
        rows = [[QQ.zero] * cx.dim(d) for _ in ids]
        for row, face in enumerate(ids):
            rows[row][cx.labels[d].index(face)] = QQ.one
        proj[d] = Matrix(QQ, rows, cx.dim(d))
    relprof = homology(rel)
    ind2 = induced_map(proj, prof, relprof)
    # the circle class maps isomorphically onto the relative degree-1 class
    assert ind2[1].rank() == 1


def test_induced_map_rejects_non_chain_map():
    S = preset("boundary_of_simplex(2)")
    cx = cellular_chain_complex(S, QQ)
    prof = homology(cx)
    bad = {d: Matrix.zero(QQ, cx.dim(d), cx.dim(d)) for d in cx.degrees()}
    bad[1] = Matrix.identity(QQ, cx.dim(1))
    with pytest.raises(ValueError):
        induced_map(bad, prof, prof)


@pytest.mark.parametrize("p", [3, 1000003])
def test_square_zero_check_reads_entries_mod_p(p):
    # d_1 holds p, -1 and 2p + 1: d_0 d_1 = 7p is zero over F_p though not
    # over Z, and each other d_0 leaves a nonzero entry of d∘d
    F = PrimeField(p)
    d1 = Matrix(F, [[2 * p + 1], [-1], [p]])
    for d0, vanishes in [([1, 1, 5], True), ([p - 1, p - 1, 2 * p + 1], True),
                         ([1, 2, 5], False), ([p, 2 * p + 1, -1], False)]:
        assert (sum(a * b[0] for a, b in zip(d0, d1.rows)) % p == 0) == vanishes
        cx = GradedComplex(F, {-1: 1, 0: 3, 1: 1}, {0: Matrix(F, [d0]), 1: d1}, shift=-1)
        if vanishes:
            cx.check_square_zero()
        else:
            with pytest.raises(InvariantViolation, match="^d\\^2 != 0 at degree 1$"):
                cx.check_square_zero()


@pytest.mark.parametrize("d0", [[[1, 1, 0]], [[1]]], ids=["wider", "narrower"])
def test_square_zero_check_refuses_differentials_that_do_not_compose(d0):
    # d_0 has one column more or one fewer than d_1 has rows; either way
    # the composite does not exist, whatever its entries
    d1 = Matrix(QQ, [[1], [-1]])
    cx = GradedComplex(QQ, {-1: 1, 0: 2, 1: 1}, {0: Matrix(QQ, d0), 1: d1}, shift=-1)
    with pytest.raises(InvariantViolation,
                       match="^d at degree 0 does not compose with d at degree 1$"):
        cx.check_square_zero()


# ---------------------------------------------------------------------------
# the lazy profile against the eager construction it replaced

class EagerProfile:
    """Every degree at once: kernel basis of d_k, pivot columns of
    d_{k-shift} as boundaries, and the cycles that enlarge their span as
    representatives; the dimension is the number of representatives.
    Class coordinates solve [representatives | boundaries] x = vec with
    the reference elimination."""

    def __init__(self, cx):
        F = cx.field
        self.field = F
        self.dims, self.representatives, self._solvers = {}, {}, {}
        for k in cx.degrees():
            nk = cx.dim(k)
            dk = cx.d(k)
            if dk is None:
                cycles = [[F.one if i == j else F.zero for j in range(nk)] for i in range(nk)]
            else:
                cycles = dk.kernel_basis()
            dprev = cx.d(k - cx.shift)
            boundaries = []
            if dprev is not None:
                _, pivots = dprev.rref()
                boundaries = [dprev.column(j) for j in pivots]
            reps = []
            span = RefSpan(F, nk)
            for b in boundaries:
                span.add(b)
            for z in cycles:
                if span.add(z):
                    reps.append(z)
            self.dims[k] = len(reps)
            self.representatives[k] = reps
            self._solvers[k] = [list(r) for r in zip(*(reps + boundaries))]

    def coords(self, k, vec):
        solver = self._solvers[k]
        if not solver:
            return []
        x = ref_solve_matrix(self.field, solver, [[a] for a in vec], len(solver[0]))
        return [self.field(r[0]) for r in x[:self.dims[k]]]


def _fixture_complexes(field):
    for name in sorted(CHARMAPS):
        S = preset(name)
        yield name, "reduced", cellular_chain_complex(S, field)
        for j in range(1, S.size):
            yield name, f"star {j}", cellular_chain_complex(S, field, star=j)


def _differences(field):
    """(fixture, complex, degree, what) wherever the lazy profile and the
    eager construction disagree on a fixture complex."""
    out = []
    for name, which, cx in _fixture_complexes(field):
        lazy, eager = homology(cx), EagerProfile(cx)
        for k in cx.degrees():
            if lazy.dims[k] != eager.dims[k]:
                out.append((name, which, k, "dims"))
                continue
            if lazy.representatives(k) != eager.representatives[k]:
                out.append((name, which, k, "representatives"))
            # every cycle of the kernel basis, boundaries included
            cycles = cx.d(k).kernel_basis() if cx.d(k) is not None else \
                Matrix.identity(field, cx.dim(k)).rows
            if any(lazy.coords(k, z) != eager.coords(k, z) for z in cycles):
                out.append((name, which, k, "coords"))
    return out


def test_lazy_profile_matches_eager_construction(any_field):
    assert _differences(any_field) == []


@pytest.mark.parametrize("delta", [1, -1])
def test_eager_comparison_catches_a_wrong_rank(monkeypatch, delta):
    rank = Matrix.rank
    monkeypatch.setattr(Matrix, "rank", lambda self: rank(self) + delta)
    assert any(what == "dims" for *_, what in _differences(PrimeField(3)))


def test_profile_builds_no_representatives_until_asked(monkeypatch):
    S = preset("torus_7")
    cx = cellular_chain_complex(S, QQ)
    calls = []
    kernel = Matrix.kernel_basis
    monkeypatch.setattr(Matrix, "kernel_basis", lambda self: calls.append(self) or kernel(self))
    prof = homology(cx)
    assert prof.dims == {-1: 0, 0: 0, 1: 2, 2: 1} and calls == []
    assert len(prof.representatives(1)) == 2 and calls == [cx.d(1)]
    prof.coords(1, prof.representatives(1)[0])
    assert calls == [cx.d(1)]
    assert prof.representatives(5) == [] and prof.coords(5, []) == []
