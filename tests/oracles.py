"""Second routes that only the tests read.

Each function here recomputes something the library computes another way,
or reads a library object in a form no report needs: links as posets of
their own, the upper-set and local homology sheaves, the structure sheaf
without its empty-face stalk, sheaves restricted to links, sheaf maps
composed along a chain, the per-diamond functoriality check, induced maps
in homology, the order-complex homology, integer determinants by Bareiss
elimination, minors gcds for the Smith form, the determinant coefficients
of the face ring from those determinants (the library reads them off the
sheaf kit's top forms), exterior forms read as dense vectors with a
per-term wedge of its own, and sheaf dumps for golden digests.
"""
from __future__ import annotations

from itertools import combinations
from math import gcd

from torushom.complexes import GradedComplex, HomologyProfile, homology, reduced_betti
from torushom.errors import InputError, InvariantViolation
from torushom.exactlin import IncrementalSpan, Matrix, product_nonzeros
from torushom.facevec import binom, poly_add, poly_mul, poly_pow, poly_scale
from torushom.poset import SimplicialPoset
from torushom.sheaves import (CellularCosheaf, CellularSheaf, LocalHomologyData, _covers,
                              _require_sheaf, sheaf_cohomology, tensor, truncated_dims)


# ---------------------------------------------------------------------------
# matrices

def apply(M: Matrix, vec):
    if len(vec) != M.ncols:
        raise ValueError("vector length mismatch")
    F = M.field
    p, z = F.char, F.zero
    support = [j for j, v in enumerate(vec) if v]
    out = []
    for ri in M.rows:
        s = z
        for j in support:
            a = ri[j]
            if a:
                s += a * vec[j]
        out.append(s % p if p else s)
    return out


def transpose(M: Matrix) -> Matrix:
    return Matrix(M.field, [M.column(j) for j in range(M.ncols)], M.nrows)


def int_det(a) -> int:
    """Integer determinant by fraction-free (Bareiss) elimination."""
    n = len(a)
    if n == 0:
        return 1
    m = [[int(v) for v in row] for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def minors_gcd(rows, k: int) -> int:
    """gcd of all k x k minors of an integer matrix (brute force oracle)."""
    A = [[int(v) for v in r] for r in rows]
    m, n = len(A), len(A[0]) if A else 0
    if k == 0:
        return 1
    if k > m or k > n:
        return 0
    g = 0
    for ris in combinations(range(m), k):
        for cjs in combinations(range(n), k):
            g = gcd(g, int_det([[A[i][j] for j in cjs] for i in ris]))
    return abs(g)


# ---------------------------------------------------------------------------
# face vectors

def f_from_h(h, n: int):
    """Inverse transform: coefficients of sum_i h_i t^i (1+t)^(n-i)."""
    acc = [0] * (n + 1)
    for i in range(n + 1):
        term = poly_scale(h[i], poly_mul([0] * i + [1], poly_pow([1, 1], n - i)))
        acc = poly_add(acc, term)
    acc = acc + [0] * (n + 1 - len(acc))
    return tuple(acc[: n + 1])


# ---------------------------------------------------------------------------
# links

def leq(S: SimplicialPoset, i: int, j: int) -> bool:
    """i <= j in the poset."""
    return i in S.below[j]


def link_ids(S: SimplicialPoset, i: int) -> list:
    """The ids of S in the link of i, listed in the order of the link's ids."""
    return sorted(S.upper_set(i), key=lambda j: (S.ranks[j], S.vertex_sets[j], j))


def link(S: SimplicialPoset, i: int) -> SimplicialPoset:
    """The upper set {J >= I} regraded with I as its empty face.

    Vertices of the link are the atoms (covers of I); each J >= I is
    relabeled by the set of atoms below it.  `link_ids` maps link ids back
    to ids of S.
    """
    members = link_ids(S, i)
    newid = {j: k for k, j in enumerate(members)}
    atoms = [j for j in members if S.ranks[j] == S.ranks[i] + 1]
    atom_label = {a: t + 1 for t, a in enumerate(atoms)}
    base = S.ranks[i]
    ranks = [S.ranks[j] - base for j in members]
    vsets = []
    for j in members:
        labels = sorted(atom_label[a] for a in atoms if leq(S, a, j))
        vsets.append(tuple(labels))
    covers = []
    for j in members:
        cs = [newid[c] for c in S.covers[j] if leq(S, i, c)]
        covers.append(tuple(sorted(cs)))
    return SimplicialPoset(ranks, vsets, covers, name=f"lk({S.name or 'S'},{i})")


def link_reduced_betti(S: SimplicialPoset, field, i: int) -> dict:
    """Reduced Betti numbers of lk_S(i) computed on the link poset itself."""
    return reduced_betti(link(S, i), field)


def upper_set_sheaf(S: SimplicialPoset, field, element: int, dim: int = 1) -> CellularSheaf:
    """The sheaf of value field^dim on the faces above `element`, with
    identity maps; its cohomology is the reduced link (co)homology of the
    element shifted by its rank."""
    up = set(S.upper_set(element))
    ident = Matrix.identity(field, dim)
    rest = {(i, j): ident for i in up for j in S.covered_by[i] if j in up}
    return CellularSheaf(S, field, [dim if i in up else 0 for i in range(S.size)], rest,
                         include_empty=element == 0, name=f"ups({element},{dim})")


def local_homology_sheaf(data: LocalHomologyData, degree: int, name: str) -> CellularSheaf:
    """The local homology sheaf in `degree` on the nonempty faces, read off
    the star profiles.  The library builds the top degree alone, with an
    empty-face stalk, as the structure sheaf."""
    S = data.poset
    dims = [data.dims(j).get(degree, 0) if j else 0 for j in range(S.size)]
    rest = {(i, j): data.restriction(i, j, degree)
            for i, j in _covers(S, CellularSheaf) if dims[i] and dims[j]}
    return CellularSheaf(S, data.field, dims, rest, name=name)


def without_empty_stalk(sheaf: CellularSheaf) -> CellularSheaf:
    """The sheaf with the stalk at the empty face and the maps out of it
    dropped: the structure sheaf as the job built it apart from the one
    with its empty-face stalk, which `STRUCTURE_GOLDEN` still pins."""
    rest = {(i, j): m for (i, j), m in sheaf.rest.items() if i != 0}
    return CellularSheaf(sheaf.poset, sheaf.field, [0] + sheaf.stalk_dims[1:], rest,
                         name=sheaf.name)


def restrict_to_link(sheaf: CellularSheaf, i: int) -> CellularSheaf:
    """Restriction of a sheaf to lk(i), with i playing the empty face.

    This is the structure sheaf of the dual face when applied to the
    structure sheaf of the whole poset.
    """
    _require_sheaf(sheaf, "restrict_to_link")
    S = sheaf.poset
    L = link(S, i)
    src = link_ids(S, i)
    dims = [sheaf.stalk_dims[src[k]] for k in range(L.size)]
    rest = {}
    for a in range(L.size):
        for b in L.covered_by[a]:
            if dims[a] and dims[b]:
                rest[(a, b)] = sheaf._cover_matrix(src[a], src[b])
    return CellularSheaf(L, sheaf.field, dims, rest, include_empty=dims[0] > 0,
                         name=f"{sheaf.name}|lk({i})")


# ---------------------------------------------------------------------------
# homology

def is_chain_map(f: dict, src: GradedComplex, dst: GradedComplex) -> bool:
    for k, fk in f.items():
        ds = src.d(k)
        dd = dst.d(k)
        if ds is None or dd is None:
            continue
        fprev = f.get(k + src.shift)
        if fprev is None:
            continue
        if dd.mul(fk).rows != fprev.mul(ds).rows:
            return False
    return True


def induced_map(f: dict, src_h: HomologyProfile, dst_h: HomologyProfile) -> dict:
    """Matrices of H(f) in the representative bases; rejects non-chain-maps."""
    if not is_chain_map(f, src_h.complex, dst_h.complex):
        raise ValueError("not a chain map (does not commute with differentials)")
    out = {}
    for k in src_h.complex.degrees():
        reps = src_h.representatives(k)
        fk = f.get(k)
        cols = []
        for z in reps:
            img = apply(fk, z) if fk is not None else []
            cols.append(dst_h.coords(k, img))
        out[k] = Matrix.from_columns(src_h.complex.field, cols, dst_h.dims.get(k, 0)) \
            if cols or dst_h.dims.get(k, 0) else Matrix.zero(src_h.complex.field, 0, 0)
    return out


def order_complex_homology(S: SimplicialPoset, field) -> HomologyProfile:
    """Reduced homology of the order complex of S minus the empty face.

    Independent oracle for the cellular path: simplices are the chains of
    poset elements, with the standard alternating-sign boundary.
    """
    elems = [i for i in range(S.size) if i != 0]
    chains = {0: [(e,) for e in elems]}
    d = 0
    while chains.get(d):
        nxt = []
        for ch in chains[d]:
            top = ch[-1]
            for e in elems:
                if S.ranks[e] > S.ranks[top] and leq(S, top, e):
                    nxt.append(ch + (e,))
        d += 1
        if nxt:
            chains[d] = nxt
    dims = {-1: 1}
    labels = {-1: [()]}
    for k, cs in chains.items():
        cs_sorted = sorted(cs)
        labels[k] = cs_sorted
        dims[k] = len(cs_sorted)
    index = {k: {c: p for p, c in enumerate(cs)} for k, cs in labels.items()}
    diff = {}
    for k in sorted(chains):
        rows = [[field.zero] * dims[k] for _ in range(dims.get(k - 1, 0))]
        for col, ch in enumerate(labels[k]):
            if k == 0:
                rows[0][col] = field.one
                continue
            sign = 1
            for drop in range(len(ch)):
                face = ch[:drop] + ch[drop + 1:]
                row = index[k - 1][face]
                rows[row][col] = field(sign)
                sign = -sign
        diff[k] = Matrix(field, rows, dims[k])
    cx = GradedComplex(field, dims, diff, shift=-1, labels=labels)
    cx.check_square_zero()
    return homology(cx)


# ---------------------------------------------------------------------------
# sheaves and the kit

def sheaf_restriction(sheaf: CellularSheaf, i: int, j: int) -> Matrix:
    """The map between the stalks of i <= j (from i to j for a sheaf,
    from j to i for a cosheaf), composed along one saturated chain."""
    S = sheaf.poset
    if i == j:
        return Matrix.identity(sheaf.field, sheaf.stalk_dims[i])
    if not leq(S, i, j):
        raise InputError(f"{i} is not below {j}")
    chain = [j]
    cur = j
    while cur != i:
        cur = next(c for c in S.covers[cur] if leq(S, i, c))
        chain.append(cur)
    if sheaf._step > 0:
        chain.reverse()
    mat = sheaf._cover_matrix(chain[0], chain[1])
    for a, b in zip(chain[1:], chain[2:]):
        mat = sheaf._cover_matrix(a, b).mul(mat)
    return mat


def check_sheaf_functoriality(sheaf: CellularSheaf):
    """Two-path equality through every length-two interval; raises on failure.

    Compares the nonzero entries of the two composites; each cover map's
    shape is checked against the stalks and its nonzero entries are read
    once per check.  Serves cosheaves too, composing the maps downward.
    The library certifies a (co)sheaf by the d∘d check of its complex
    instead; this is the reference that check is compared against.
    """
    S = sheaf.poset
    p = sheaf.field.char
    kind = "sheaf" if sheaf._step > 0 else "cosheaf"
    nonzeros = {}

    def cover(src, dst):
        if (src, dst) not in nonzeros:
            m = sheaf._cover_matrix(src, dst)
            if (m.nrows, m.ncols) != (sheaf.stalk_dims[dst], sheaf.stalk_dims[src]):
                raise InvariantViolation(f"{kind} map {src} -> {dst} does not fit its stalks")
            nonzeros[(src, dst)] = m.nonzeros()
        return nonzeros[(src, dst)]

    for i, (m1, m2), j in S.diamonds:
        if i == 0 and not sheaf.include_empty:
            continue
        src, dst = (i, j) if sheaf._step > 0 else (j, i)
        a = product_nonzeros(cover(m1, dst), cover(src, m1), p)
        b = product_nonzeros(cover(m2, dst), cover(src, m2), p)
        if a != b:
            raise InvariantViolation(f"{kind} functoriality fails on {i} < {m1},{m2} < {j}")


def sheaf_dump(sheaf: CellularSheaf) -> dict:
    """JSON-able dump (stalk dimensions and cover matrices) for golden tests."""
    def num(x):
        return str(x)
    return {
        "name": sheaf.name,
        "include_empty": sheaf.include_empty,
        "stalk_dims": list(sheaf.stalk_dims),
        "covers": {
            f"{i}<{j}": [[num(v) for v in row] for row in m.rows]
            for (i, j), m in sorted(sheaf.rest.items())
        },
    }


def relation_dump(R) -> dict:
    """A face ring's generators and relation rows, dense, as JSON-ready strings."""
    def rows_out(q, rows):
        return [[str(r.get(j, 0)) for j in range(len(R.generators[q]))] for r in rows]
    out = {"n": R.n,
           "generators": {str(q): [list(map(str, g)) for g in gs]
                          for q, gs in sorted(R.generators.items())},
           "type1": {str(q): rows_out(q, rs) for q, rs in sorted(R.type1.items())}}
    if R.type2 is not None:
        out["type2"] = {str(q): rows_out(q, [r for (_, _, r) in rs])
                        for q, rs in sorted(R.type2.items())}
    return out


def coefficient_CAI(cmap, field, vertices, A):
    """The determinant coefficient attached to a face and a subset A, from
    the integer minor, zero where the minor vanishes
    (`TorusSheafKit.coefficients` reads the face's top form instead, and
    keeps the nonzero coefficients only).

    `vertices` are the labels of the face in ascending order; A is a
    subset of column indices 1..n with |A| = n - |vertices|.  The sign
    depends only on A; flipping it never changes downstream ranks.
    """
    n = cmap.n
    q = len(A)
    if len(vertices) + q != n:
        raise ValueError("need |A| + |I| = n")
    cols = [j for j in range(1, n + 1) if j not in set(A)]
    det = int_det([[cmap.row(lab)[j - 1] for j in cols] for lab in sorted(vertices)])
    exp = sum(range(1, n - q + 1)) + sum(j for j in range(1, n + 1) if j not in set(A))
    return field(-det if exp % 2 else det)


# ---------------------------------------------------------------------------
# exterior forms as dense coordinate vectors over `ExteriorAlgebra.subsets`
# (the library keeps them as sparse {subset: coefficient} dicts)

def dense(ext, q: int, form: dict) -> list:
    """The degree-q form's coordinates, one per q-subset in order."""
    return [form.get(A, ext.field.zero) for A in ext.subsets(q)]


def sparse(ext, q: int, vec) -> dict:
    """The form with the nonzero coordinates of a degree-q vector."""
    return {A: x for A, x in zip(ext.subsets(q), vec) if x}


def _merge_sign(A, B) -> int:
    """The sign of the permutation sorting A + B, by counting its
    inversions; 0 when A and B meet."""
    C = A + B
    if len(set(C)) < len(C):
        return 0
    inversions = sum(1 for i, x in enumerate(C) for y in C[i + 1:] if x > y)
    return (-1) ** inversions


def ref_wedge(ext, qa: int, va, qb: int, vb) -> list:
    """Wedge of dense vectors in degrees qa, qb, one term at a time, each
    sum normalised by the field; independent of `ExteriorAlgebra.wedge`."""
    F = ext.field
    position = {C: k for k, C in enumerate(ext.subsets(qa + qb))}
    out = [F.zero] * len(position)
    for A, a in zip(ext.subsets(qa), va):
        for B, b in zip(ext.subsets(qb), vb):
            s = _merge_sign(A, B) if a and b else 0
            if s:
                k = position[tuple(sorted(A + B))]
                out[k] = F(out[k] + F(s) * F(a) * F(b))
    return out


# The span route to the sheaf kit's (co)sheaves: each face's exterior ideal
# and principal ideal as the echelonized span of its generators, with
# inclusions read off the target's span and quotients in free-column
# coordinates.  The kit builds its two (co)sheaves in adapted bases instead
# and reads the other two tables off the long exact sequences.

def span_vectors(span):
    """The echelonized vectors of an `IncrementalSpan`, dense, in the order
    they were stored."""
    z, amb = span.field.zero, span.ambient_dim
    return [[row.get(j, z) for j in range(amb)] for row in span._rows]


def free_columns(span):
    """The positions that are no pivot of an `IncrementalSpan`: a basis of
    its quotient."""
    pivots = set(span.pivots)
    return [c for c in range(span.ambient_dim) if c not in pivots]


def quotient_coords(span, vec):
    """Coordinates of vec modulo the span, over `free_columns`."""
    red = span.reduce(vec)
    return [red[c] for c in free_columns(span)]


def _times_basis(kit, qa: int, va, qb: int) -> list:
    """va ^ e_B for every qb-subset B, in order, by the per-term `ref_wedge`."""
    F, ext = kit.field, kit.ext
    dim = ext.dim(qb)
    return [ref_wedge(ext, qa, va, qb, [F.one if i == k else F.zero for i in range(dim)])
            for k in range(dim)]


def _span(kit, vecs, q: int):
    """(basis, span) of the degree-q vectors `vecs`, the basis being the
    vectors that enlarged the span."""
    span = IncrementalSpan(kit.field, kit.ext.dim(q))
    return [v for v in vecs if span.add(v)], span


def ideal_spans(kit, q: int) -> list:
    """(basis, span) of the degree-q part of every face's exterior ideal,
    spanned by omega(v) ^ e_B over its vertices v and the (q - 1)-subsets B."""
    products = {lab: _times_basis(kit, 1, kit.frows[lab], q - 1)
                for lab in kit.frows} if 0 < q <= kit.n else {}
    spans = []
    for elem, labels in enumerate(kit.S.vertex_sets):
        vecs = [v for lab in labels for v in products[lab]] if products else []
        basis, span = _span(kit, vecs, q)
        if len(basis) != kit.ext.dim(q) - binom(kit.n - len(labels), q):
            raise InvariantViolation(f"ideal dimension off at face {elem}, degree {q}")
        spans.append((basis, span))
    return spans


def pi_spans(kit, q: int) -> list:
    """(basis, span) of the degree-q part of every face's principal ideal,
    generated by its top form."""
    spans = []
    for elem, labels in enumerate(kit.S.vertex_sets):
        k = len(labels)
        if elem == 0 or not k <= q <= kit.n:
            spans.append(_span(kit, [], q))
            continue
        top = dense(kit.ext, k, kit.pi_form(elem))
        basis, span = _span(kit, _times_basis(kit, k, top, q - k), q)
        if len(basis) != binom(kit.n - k, q - k):
            raise InvariantViolation(f"principal ideal dimension off at face {elem}")
        spans.append((basis, span))
    return spans


def inclusions(kit, cls, spans, name: str):
    """The sheaf or cosheaf (`cls`) of the spans, one (basis, span) per
    face; column i of a cover map holds the coordinates of the source's
    i-th basis vector in the target's basis, read off the target's span."""
    S, F = kit.S, kit.field
    dims = [len(basis) for basis, _ in spans]
    rest = {}
    for src, dst in _covers(S, cls):
        if dims[src] and dims[dst]:
            cols = [spans[dst][1].coords(v) for v in spans[src][0]]
            if any(c is None for c in cols):
                raise InvariantViolation(f"{name} not nested along a cover")
            rest[(src, dst)] = Matrix.from_columns(F, cols, dims[dst])
    return cls(S, F, dims, rest, name=name)


def quotients(kit, cls, spans, name: str):
    """The sheaf or cosheaf (`cls`) of the exterior component modulo the
    spans, in free-column coordinates.  Only the sheaf keeps the empty
    face, carrying the whole component."""
    S, F = kit.S, kit.field
    spans = [span for _, span in spans]
    amb = spans[0].ambient_dim
    free = [free_columns(span) for span in spans]
    dims = [len(cols) for cols in free]
    if cls is CellularCosheaf:
        dims[0] = 0
    rest = {}
    for src, dst in _covers(S, cls):
        if dims[src] and dims[dst]:
            cols = [quotient_coords(spans[dst], [F.one if i == c else F.zero for i in range(amb)])
                    for c in free[src]]
            rest[(src, dst)] = Matrix.from_columns(F, cols, dims[dst])
    return cls(S, F, dims, rest, include_empty=dims[0] > 0, name=name)


def quotient_class(kit, elem: int, q: int, vec):
    """Coordinates of a degree-q form in the span route's quotient basis at a face."""
    return quotient_coords(ideal_spans(kit, q)[elem][1], vec)


# The torus sheaf kit keeps dimension tables only; these build one degree's
# four (co)sheaves by the span route.

def ideal_sheaf(kit, q: int) -> CellularSheaf:
    """Degree-q ideal sheaf: stalk the ideal part, restrictions the
    coordinate form of the inclusions."""
    return inclusions(kit, CellularSheaf, ideal_spans(kit, q), f"ideal^({q})")


def quotient_sheaf(kit, q: int) -> CellularSheaf:
    """Degree-q part of the quotient of the full exterior algebra by the
    ideal sheaf; the empty face carries the whole degree-q component."""
    return quotients(kit, CellularSheaf, ideal_spans(kit, q), f"lambda/ideal^({q})")


def pi_cosheaf(kit, q: int) -> CellularCosheaf:
    """Degree-q principal-ideal cosheaf; corestrictions are the coordinate
    forms of the inclusions."""
    return inclusions(kit, CellularCosheaf, pi_spans(kit, q), f"pi^({q})")


def lambda_mod_pi_cosheaf(kit, q: int) -> CellularCosheaf:
    """Quotient cosheaf of the constant cosheaf by the principal ideals."""
    return quotients(kit, CellularCosheaf, pi_spans(kit, q), f"lambda/pi^({q})")


def structure_tensor_ideal(kit, q: int) -> CellularSheaf:
    return tensor(kit.S.job(kit.field).structure_sheaf(), ideal_sheaf(kit, q))


def structure_tensor_quotient(kit, q: int) -> CellularSheaf:
    return tensor(kit.S.job(kit.field).structure_sheaf(), quotient_sheaf(kit, q))


def kit_tables(kit, q: int) -> dict:
    """Every table the kit keeps for degree q, keyed as in `span_tables`."""
    tables = {key: kit.sheaf_dims(key[0], q, key[1])
              for key in [("ideal", True), ("quotient", True), ("quotient", False)]}
    tables.update({kind: kit.cosheaf_dims(kind, q) for kind in ("pi", "lambda/pi")})
    tables["ranks"] = kit.projection_ranks(q)
    return tables


def span_tables(kit, q: int) -> dict:
    """The kit's degree-q tables by the span route: all four (co)sheaves
    ranked, and the ranks of H^k(structure (x) Λ^q) -> H^k(structure (x)
    quotient) in the truncated sequence forced by exactness from its
    dimensions, anchored at its left end."""
    S = kit.S
    quotient = sheaf_cohomology(structure_tensor_quotient(kit, q))
    tables = {("ideal", True): sheaf_cohomology(structure_tensor_ideal(kit, q)).dims,
              ("quotient", False): quotient.dims,
              ("quotient", True): truncated_dims(quotient),
              "pi": sheaf_cohomology(pi_cosheaf(kit, q)).dims,
              "lambda/pi": sheaf_cohomology(lambda_mod_pi_cosheaf(kit, q)).dims}
    middle = S.job(kit.field).structure_cohomology
    ranks, prev = {}, 0
    for k in range(S.n):
        into = tables[("ideal", True)].get(k, 0) - prev
        ranks[k] = binom(kit.n, q) * middle.get(k, 0) - into
        prev = tables[("quotient", True)].get(k, 0) - ranks[k]
    tables["ranks"] = ranks
    return tables
