import contextlib
import hashlib
import io
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from torushom.cli import main
from torushom.errors import InvariantViolation
from torushom.field import QQ, PrimeField, field_from_name
from torushom.exactlin import Echelon, Matrix, product_nonzeros, smith_invariants
from torushom.fixtures import preset_charmap
from torushom.formats import write_charmap

from oracles import RefSpan, apply, int_det, minors_gcd, transpose


def test_field_parsing():
    assert field_from_name("Q") is not None
    assert field_from_name("Fp:5").p == 5
    assert field_from_name("F7").p == 7


def test_prime_field_arithmetic():
    F = PrimeField(7)
    assert F(3 * 5) == 1
    assert F.inv(3) == 5
    assert F(Fraction(1, 3)) == 5
    assert F(-1) == 6


def test_rank_identity_and_zero():
    M = Matrix(QQ, [[1, 0], [0, 1]])
    assert M.rank() == 2 and M.kernel_basis() == [] and M.rref()[1] == [0, 1]

    Z = Matrix.zero(QQ, 3, 4)
    assert Z.rank() == 0 and len(Z.kernel_basis()) == 4 and Z.rref()[1] == []


def test_rank_kernel_example():
    # [[1,2],[2,4]] has rank 1; kernel spanned by (2,-1)
    M = Matrix(QQ, [[1, 2], [2, 4]])
    assert M.rank() == 1
    assert M.rref()[1] == [0]
    ker = M.kernel_basis()
    assert len(ker) == 1
    v = ker[0]
    # proportional to (2,-1): 1*v0 + 2*v1 == 0
    assert v[0] + 2 * v[1] == 0 and any(x != 0 for x in v)
    assert all(x == 0 for x in apply(M, v))


def test_rank_equals_transpose_rank(any_field):
    rng = random.Random(11)
    for _ in range(25):
        m = rng.randint(0, 5)
        n = rng.randint(1, 5)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        M = Matrix(any_field, rows, ncols=n)
        assert M.rank() == transpose(M).rank()
        assert len(M.rref()[1]) == M.rank()
        assert M.rank() + len(M.kernel_basis()) == n


def test_kron():
    A = Matrix(QQ, [[1, 2]])
    B = Matrix(QQ, [[0, 1], [1, 0]])
    K = A.kron(B)
    assert K.nrows == 2 and K.ncols == 4
    assert [[int(v) for v in r] for r in K.rows] == [[0, 1, 0, 2], [1, 0, 2, 0]]


def test_smith_examples():
    assert smith_invariants([[1, 0], [0, 1]]) == [1, 1]
    assert smith_invariants([[1, 0], [1, 2]]) == [1, 2]
    assert smith_invariants([[2, 4]]) == [2]
    assert smith_invariants([[0, 0], [0, 0]]) == [0, 0]


def test_smith_against_minor_gcds():
    rng = random.Random(5)
    for _ in range(40):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        inv = smith_invariants(rows)
        assert len(inv) == min(m, n)
        # divisibility chain
        for a, b in zip(inv, inv[1:]):
            assert (a == 0 and b == 0) or (a != 0 and (b == 0 or b % a == 0))
        # product of first k invariants equals gcd of k x k minors
        prod = 1
        for k, d in enumerate(inv, start=1):
            prod *= d
            assert prod == minors_gcd(rows, k), (rows, inv, k)


def test_int_det():
    assert int_det([[2, 0], [0, 3]]) == 6
    assert int_det([[0, 1], [1, 0]]) == -1
    assert int_det([[1, 2], [2, 4]]) == 0


# ---------------------------------------------------------------------------
# the field-specialised kernels against per-element Gauss-Jordan

F2, F3, F_BIG = PrimeField(2), PrimeField(3), PrimeField(1000003)
FIELDS = [QQ, F2, F3, F_BIG]


def ref_rref(F, rows, ncols):
    """Gauss-Jordan one entry at a time, each entry normalised by the field."""
    m = [list(r) for r in rows]
    pivots = []
    pr = 0
    for pc in range(ncols):
        pivot_row = next((i for i in range(pr, len(m)) if F(m[i][pc]) != 0), None)
        if pivot_row is None:
            continue
        m[pr], m[pivot_row] = m[pivot_row], m[pr]
        inv = F.inv(m[pr][pc])
        m[pr] = [F(inv * a) for a in m[pr]]
        for i in range(len(m)):
            if i != pr and F(m[i][pc]) != 0:
                c = m[i][pc]
                m[i] = [F(a - c * b) for a, b in zip(m[i], m[pr])]
        pivots.append(pc)
        pr += 1
        if pr == len(m):
            break
    return m, pivots


def ref_kernel(F, rows, ncols):
    R, pivots = ref_rref(F, rows, ncols)
    basis = []
    for fj in (j for j in range(ncols) if j not in pivots):
        v = [F.zero] * ncols
        v[fj] = F.one
        for r, pc in enumerate(pivots):
            v[pc] = F(-R[r][fj])
        basis.append(v)
    return basis


def ref_solve_matrix(F, A, B, ncols):
    R, pivots = ref_rref(F, [a + b for a, b in zip(A, B)], ncols + len(B[0]))
    if any(p >= ncols for p in pivots):
        return None
    X = [[F.zero] * len(B[0]) for _ in range(ncols)]
    for r, pc in enumerate(pivots):
        X[pc] = R[r][ncols:]
    return X


def ref_mul(F, A, B, ncols):
    return [[sum_(F, [F(a[k] * B[k][j]) for k in range(len(B))]) for j in range(ncols)]
            for a in A]


def sum_(F, terms):
    total = F.zero
    for t in terms:
        total = F(total + t)
    return total


def canon(F, rows):
    """Entries as canonical field elements: the kernels return these, while
    the reference keeps the representatives it was given where it does
    not compute."""
    return [[F(a) for a in r] for r in rows]


def _entry(F):
    if F is QQ:
        # raw Fractions, and the normalised elements the library builds
        # (ints when integral), so rows mix both
        raw = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 1, 2, 3]))
        return st.one_of(raw, raw.map(QQ))
    p = F.p
    return st.one_of(st.integers(-3, 3), st.integers(-3, 3),
                     st.sampled_from([p, -1, 2 * p + 1, -p, p - 1, 3 * p + 2]))


@st.composite
def matrices(draw, field=None, nrows=None, ncols=None):
    F = draw(st.sampled_from(FIELDS)) if field is None else field
    m = draw(st.integers(0, 5)) if nrows is None else nrows
    n = draw(st.integers(1, 6)) if ncols is None else ncols
    rows = draw(st.lists(st.lists(_entry(F), min_size=n, max_size=n),
                         min_size=m, max_size=m))
    return F, rows, n


@st.composite
def sparse_matrices(draw, field=None, ncols=None):
    """Wide rows with at most four nonzero entries, the shape of the sheaf
    kit's exterior vectors at torus rank 6."""
    F = draw(st.sampled_from(FIELDS)) if field is None else field
    m = draw(st.integers(0, 8))
    n = draw(st.integers(7, 24)) if ncols is None else ncols
    rows = draw(st.lists(st.dictionaries(st.integers(0, n - 1), _entry(F), max_size=4),
                         min_size=m, max_size=m))
    return F, [[r.get(j, 0) for j in range(n)] for r in rows], n


def span_inputs(data):
    """Inputs of a span and probes of the same width: small dense ones, or
    wide sparse ones."""
    F, vecs, n = data.draw(st.one_of(matrices(), sparse_matrices()))
    probes = data.draw(sparse_matrices(F, n) if n > 6 else matrices(field=F, ncols=n))[1]
    return F, vecs, n, probes


ORACLE = settings(max_examples=150, deadline=None)
# the span tests split their examples between the dense and the sparse draws
SPAN_ORACLE = settings(max_examples=300, deadline=None)


@ORACLE
@given(matrices())
def test_rref_and_kernel_match_reference(case):
    F, rows, n = case
    M = Matrix(F, rows, n)
    R, pivots = M.rref()
    ref, ref_pivots = ref_rref(F, rows, n)
    assert pivots == ref_pivots and M.rank() == len(ref_pivots)
    assert R.rows == canon(F, ref)
    assert M.kernel_basis() == canon(F, ref_kernel(F, rows, n))


def as_row(F, vec):
    """A dense vector as the `{column: entry}` row of its nonzero field elements."""
    return {j: F(a) for j, a in enumerate(vec) if F(a) != 0}


def tagged(F, n, vecs):
    """An `Echelon` of the vectors that enlarge the span of the ones before
    them (the reference decides), the k-th of them tagged at column n + k."""
    span, ref = Echelon(F), RefSpan(F, n)
    for v in vecs:
        if ref.add(v):
            span.add({**as_row(F, v), n + len(span): F.one})
    return span


def tagged_coords(F, n, span, vec):
    """Minus the tags of vec's residual, or None when it has an entry below n."""
    r = span.reduce(as_row(F, vec))
    if any(j < n for j in r):
        return None
    x = [F.zero] * len(span)
    for j, a in r.items():
        x[j - n] = F(-a)
    return x


@SPAN_ORACLE
@given(st.data())
def test_span_coords_match_reference(data):
    # probes: random vectors (mostly outside a small span), the inputs, and
    # random combinations of the inputs; an empty span comes with no inputs.
    # The coordinates are read off tag columns appended by the test
    F, vecs, n, probes = span_inputs(data)
    weights = data.draw(st.lists(st.lists(_entry(F), min_size=len(vecs), max_size=len(vecs)),
                                 max_size=3))
    combos = [[sum_(F, [F(c * v[j]) for c, v in zip(w, vecs)]) for j in range(n)]
              for w in weights]
    span, ref = tagged(F, n, vecs), RefSpan(F, n)
    basis = [v for v in vecs if ref.add(v)]
    columns = [list(r) for r in zip(*basis)] if basis else [[] for _ in range(n)]
    for v in probes + vecs + combos:
        x = tagged_coords(F, n, span, v)
        assert x == ref.coords(v)
        solved = ref_solve_matrix(F, columns, [[a] for a in v], len(basis))
        assert (x is None) == (solved is None)
        if x is not None:
            assert x == [F(r[0]) for r in solved]


@SPAN_ORACLE
@given(st.data())
def test_incremental_span_matches_reference(data):
    # the add verdicts, the pivots, the rank and every residual; the stored
    # rows are the echelon's own business
    F, vecs, n, probes = span_inputs(data)
    span, ref = Echelon(F), RefSpan(F, n)
    for v in vecs:
        assert span.add(as_row(F, v)) == ref.add(v)
        assert span.pivots == sorted(ref.pivots) and len(span) == len(ref.pivots)
    assert len(span) == Matrix(F, vecs, n).rank()
    for v in probes + vecs:
        assert span.reduce(as_row(F, v)) == as_row(F, ref.reduce(v))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_echelon_pivots_and_residuals_ignore_the_row_order(data):
    # the pivots of a span and the residuals modulo it are unique, so every
    # insertion order gives the same ones, and tagged coordinates over the
    # enlarging rows of that order agree with the reference's
    F = data.draw(st.sampled_from([QQ, F2, F_BIG]), label="field")
    _, vecs, n = data.draw(st.one_of(matrices(field=F), sparse_matrices(field=F)))
    probes = data.draw(sparse_matrices(F, n) if n > 6 else matrices(field=F, ncols=n))[1]
    order = data.draw(st.permutations(range(len(vecs))))
    shuffled = [vecs[i] for i in order]
    ref = RefSpan(F, n)
    for v in vecs:
        ref.add(v)
    spans = [Echelon(F, [as_row(F, v) for v in rows]) for rows in (vecs, shuffled)]
    for span in spans:
        assert span.pivots == sorted(ref.pivots) and len(span) == len(ref.pivots)
    tags = tagged(F, n, shuffled)
    in_order = RefSpan(F, n)
    for v in shuffled:
        in_order.add(v)
    for v in probes + vecs:
        residual = as_row(F, ref.reduce(v))
        assert all(span.reduce(as_row(F, v)) == residual for span in spans)
        assert tagged_coords(F, n, tags, v) == in_order.coords(v)
    assert not any(span.reduce(as_row(F, v)) for v in vecs for span in spans)


@ORACLE
@given(st.data())
def test_mul_equal_and_zero_test_match_reference(data):
    # `mul`, and the nonzero entries of a product, which the invariant
    # checks compare (an equality test) and look for (a zero test)
    F, A, n = data.draw(matrices())
    _, B, k = data.draw(matrices(field=F, nrows=n))
    p = F.char
    ref = canon(F, ref_mul(F, A, B, k))
    assert Matrix(F, A, n).mul(Matrix(F, B, k)).rows == ref
    assert product_nonzeros(Matrix(F, A, n).nonzeros(), Matrix(F, B, k).nonzeros(), p) == \
        [{j: a for j, a in enumerate(r) if a} for r in ref]
    # a second representative of the same matrix, and a matrix one entry off
    ident = Matrix.identity(F, n).nonzeros()

    def entries(rows):
        return product_nonzeros(ident, Matrix(F, rows, k).nonzeros(), p)

    assert entries([[a + p for a in r] for r in B]) == entries(B)
    if B:
        off = [list(r) for r in B]
        off[0][0] += 1
        assert entries(off) != entries(B)
    multiples = Matrix(F, [[p * a for a in r] for r in A], n)     # zero over F_p
    assert (not any(product_nonzeros(multiples.nonzeros(), ident, p))) == \
        all(F(a) == 0 for r in multiples.rows for a in r)


def stores_only_nonzero_field_elements(M):
    p = M.field.char
    rows = M.nonzeros()
    return len(rows) == M.nrows and all(
        0 <= j < M.ncols and a and (not p or 0 < a < p) for r in rows for j, a in r.items())


def ref_kron(F, A, B):
    return [[F(a * b) for a in ra for b in rb] for ra in A for rb in B]


@ORACLE
@given(st.data())
def test_sparse_rows_hold_the_nonzero_entries_only(data):
    # every constructor and kernel result stores no zero, and its dense view
    # holds the canonical elements, for entries given as p, -1 or 2p + 1 too
    F, A, n = data.draw(matrices())
    _, B, k = data.draw(matrices(field=F))
    M = Matrix(F, A, n)
    assert stores_only_nonzero_field_elements(M) and M.rows == canon(F, A)
    K = M.kron(Matrix(F, B, k))
    assert stores_only_nonzero_field_elements(K) and K.rows == ref_kron(F, canon(F, A), B)
    columns = Matrix.from_columns(F, canon(F, [list(c) for c in zip(*A)]) if A else
                                  [[] for _ in range(n)], len(A))
    assert stores_only_nonzero_field_elements(columns) and columns.rows == M.rows
    R, _ = M.rref()
    assert stores_only_nonzero_field_elements(R)
    ints = [[int(a) for a in r] for r in A] if F is not QQ else []
    if ints:
        mapped = Matrix(QQ, ints, n).in_field(F)
        assert stores_only_nonzero_field_elements(mapped) and mapped.rows == M.rows


def test_mul_refuses_factors_that_do_not_compose():
    with pytest.raises(InvariantViolation, match="^shape mismatch in mul$"):
        Matrix(QQ, [[1, 2]]).mul(Matrix(QQ, [[1]]))


@ORACLE
@given(matrices())
def test_rank_matches_rref_pivots(case):
    F, rows, n = case
    M = Matrix(F, rows, n)
    assert M.rank() == len(M.rref()[1])


@ORACLE
@given(st.data())
def test_rank_of_a_product_matches_rref_pivots(data):
    # B C has rank at most the inner dimension, so most of these are deficient
    F, B, r = data.draw(matrices(nrows=data.draw(st.integers(1, 7))))
    _, C, n = data.draw(matrices(field=F, nrows=r))
    M = Matrix(F, B, r).mul(Matrix(F, C, n))
    assert M.rank() == len(M.rref()[1]) <= r
    assert transpose(M).rank() == M.rank()


@pytest.mark.parametrize("F", [F2, F3, F_BIG], ids=str)
def test_unnormalised_prime_field_entries(F):
    p = F.p
    # rows (0, 1, -1), (-1, 0, 1) and their sum, written with other representatives
    rows = [[p, 2 * p + 1, -1], [-1, 0, 2 * p + 1], [-1, 2 * p + 1, p]]
    M = Matrix(F, rows)
    R, pivots = M.rref()
    ref, ref_pivots = ref_rref(F, rows, 3)
    assert M.rank() == len(ref_pivots) == 2 and pivots == ref_pivots
    assert R.rows == canon(F, ref)
    assert M.kernel_basis() == canon(F, ref_kernel(F, rows, 3))
    assert Matrix(PrimeField(3), [[3, 0], [0, -1]]).rank() == 1


def test_all_report_over_large_prime_matches_golden(tmp_path):
    # recorded before the kernels were specialised to the field; the
    # other report goldens use F3 only
    path = tmp_path / "map.lam"
    path.write_text(write_charmap(preset_charmap("cross_polytope_boundary(3)")))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main(["all", "--preset", "cross_polytope_boundary(3)", "--charmap", str(path),
                       "--field", "Fp:1000003", "--out", "json"])
    assert status == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == \
        "16894fe13bbfdef85dd45828cab3eb81cbc95a0abea2cc39b56bcb58eb65970d"
