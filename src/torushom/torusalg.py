"""Exterior algebra, characteristic maps, and the torus-space sheaf kit.

A characteristic map assigns an integer direction vector to each vertex;
validity means the vectors over every face are independent (over the
active field) or span a direct summand (over Z, checked by Smith
invariants).  From a valid map the module builds, stalk by stalk, the
exterior ideal sheaf, its quotient, and the principal-ideal cosheaf, and
runs the vanishing and duality checks that tie them together.  The top
form of each face, which generates its principal ideal, also gives the
face ring's determinant coefficients as its coordinates.
"""
from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .exactlin import InvariantViolation, Matrix, IncrementalSpan, smith_invariants
from .poset import SimplicialPoset, PosetError
from .sheaves import (
    CellularSheaf, CellularCosheaf, sheaf_cohomology, tensor, _covers,
)
from .facevec import binom


class ExteriorAlgebra:
    """Exterior algebra on n generators with subset-indexed basis.

    Degree-q component has basis e_A over q-subsets A of {1..n}, listed in
    lexicographic order; wedge uses the shuffle sign, read off a product
    table per pair of degrees that is built on first use.
    """

    def __init__(self, n: int, field):
        self.n = n
        self.field = field
        self._subsets = {q: [tuple(c) for c in combinations(range(1, n + 1), q)]
                         for q in range(n + 1)}
        self._index = {q: {s: k for k, s in enumerate(subs)}
                       for q, subs in self._subsets.items()}
        self._tables = {}

    def subsets(self, q):
        return self._subsets.get(q, [])

    def dim(self, q):
        return len(self.subsets(q))

    def index(self, subset):
        return self._index[len(subset)][tuple(subset)]

    @staticmethod
    def shuffle_sign(A, B):
        """Sign of merging two disjoint sorted tuples, or 0 when they meet."""
        if set(A) & set(B):
            return 0
        inversions = sum(1 for a in A for b in B if a > b)
        return -1 if inversions % 2 else 1

    def wedge_basis(self, A, B):
        s = self.shuffle_sign(A, B)
        if s == 0:
            return 0, ()
        return s, tuple(sorted(set(A) | set(B)))

    def _table(self, qa, qb):
        """For each qb-subset B, in order, the triples (ia, k, s) with
        e_A ^ e_B = s e_C, over the qa-subsets A (index ia) that miss B;
        k is the index of C.  Distinct A give distinct C."""
        table = self._tables.get((qa, qb))
        if table is None:
            table = self._tables[(qa, qb)] = [
                [(ia, self.index(C), s) for ia, A in enumerate(self.subsets(qa))
                 for s, C in [self.wedge_basis(A, B)] if s]
                for B in self.subsets(qb)]
        return table

    def wedge(self, qa, va, qb, vb):
        """Wedge of coordinate vectors in degrees qa, qb."""
        F = self.field
        p = F.char
        out = [F.zero] * self.dim(qa + qb)
        for entries, b in zip(self._table(qa, qb), vb):
            if not b:
                continue
            for ia, k, s in entries:
                a = va[ia]
                if a:
                    out[k] += s * a * b
        return [x % p for x in out] if p else out

    def one_form(self, coeffs):
        """Degree-1 vector from n coefficients."""
        if len(coeffs) != self.n:
            raise InvariantViolation("one_form needs n coefficients")
        return list(coeffs)


class CharacteristicMap(NamedTuple):
    """Integer direction vectors, one row per vertex label."""

    n: int
    rows: dict                    # vertex label -> tuple of n ints

    def row(self, label):
        try:
            return self.rows[label]
        except KeyError:
            raise PosetError(f"characteristic map has no row for vertex {label}") from None

    def field_rows(self, field):
        return {lab: [field(v) for v in row] for lab, row in self.rows.items()}

    def key(self):
        """Hashable content of the map: equal maps give equal keys."""
        return self.n, tuple(sorted((lab, tuple(row)) for lab, row in self.rows.items()))


class CharmapReport(NamedTuple):
    ok_field: bool
    ok_integral: bool
    field_failures: list        # element ids
    integral_failures: list     # (element id, invariant factors)

    def as_dict(self):
        return {"ok_field": self.ok_field, "ok_integral": self.ok_integral,
                "field_failures": list(self.field_failures),
                "integral_failures": [[e, list(inv)] for e, inv in self.integral_failures]}


def validate_charmap(S: SimplicialPoset, cmap: CharacteristicMap, field) -> CharmapReport:
    """Independence over the field and unimodularity over Z, face by face."""
    return S.job(field).charmap_report(cmap)


def charmap_report_of(S: SimplicialPoset, cmap: CharacteristicMap, field) -> CharmapReport:
    """The uncached work of `validate_charmap`."""
    if cmap.n < S.n:
        raise PosetError(f"torus rank {cmap.n} smaller than poset rank {S.n}")
    missing = [lab for lab in S.vertex_labels() if lab not in cmap.rows]
    if missing:
        raise PosetError(f"characteristic map misses vertices {missing}")
    frows = cmap.field_rows(field)
    field_failures = []
    integral_failures = []
    for e in range(1, S.size):
        labs = S.vertex_sets[e]
        m = Matrix(field, [frows[lab] for lab in labs], cmap.n)
        if m.rank() != len(labs):
            field_failures.append(e)
        inv = smith_invariants([cmap.row(lab) for lab in labs])
        if any(d != 1 for d in inv):
            integral_failures.append((e, inv))
    return CharmapReport(not field_failures, not integral_failures,
                         field_failures, integral_failures)


class TorusSheafKit:
    """The graded sheaves and cosheaves attached to (S, characteristic map),
    one exterior degree at a time.

    The first request for the (co)homology of degree q (`sheaf_dims`,
    `cosheaf_dims`) builds that degree's spans (the exterior ideal and the
    principal ideal of every face), the ideal and quotient sheaves, the
    principal-ideal cosheaf and its quotient of the constant cosheaf, the
    tensors of the two sheaves with the structure sheaf, and four
    complexes: structure (x) ideal truncated, structure (x) quotient
    untruncated, and the two cosheaves, whose d∘d checks certify them.  It
    keeps the five dimension tables a check reads, the truncated quotient
    one read off the untruncated complex, and drops the rest.  Besides these
    it keeps each face's top form (`pi_form`), formed once: the form
    generates the face's principal ideal in every degree, and its
    coordinates are the determinant coefficients of the face ring's
    relations (`coefficient`), so the kit is their one source.  The sheaf and
    cosheaf sides share one builder per construction: spans of forms
    (`ideal_spans`, `pi_spans`), inclusions of spans (`_inclusions`) and
    quotients by spans (`_quotients`).
    The constant terms Λ^q need no complex of their own: structure (x) Λ^q
    is C(n, q) copies of the structure sheaf and the constant cosheaf Λ^q
    is C(n, q) copies of the cellular chains, so `les_duality_check`
    scales the job's structure-sheaf cohomology and Betti numbers instead.
    The structure sheaf itself is the poset's, shared through its job;
    `Job.kit` keeps one kit per characteristic map.
    """

    def __init__(self, S: SimplicialPoset, cmap: CharacteristicMap, field):
        rep = S.job(field).charmap_report(cmap)
        if not rep.ok_field:
            raise PosetError(f"characteristic map invalid over {field!r} "
                             f"on faces {rep.field_failures}")
        self.S = S
        self.cmap = cmap
        self.field = field
        self.n = cmap.n
        self.ext = ExteriorAlgebra(cmap.n, field)
        self.frows = cmap.field_rows(field)
        self._dims = {}         # exterior degree -> its dimension tables
        self._forms = {}        # face -> its top form

    # -- exterior spans per degree ---------------------------------------

    def omega(self, label):
        return self.ext.one_form(self.frows[label])

    def _times_basis(self, qa: int, va, qb: int) -> list:
        """va ^ e_B for every qb-subset B, in order."""
        F, ext = self.field, self.ext
        dim = ext.dim(qb)
        return [ext.wedge(qa, va, qb, [F.one if i == k else F.zero for i in range(dim)])
                for k in range(dim)]

    def _span(self, vecs, q: int):
        """Echelonized span of the degree-q vectors `vecs`; returns
        (basis, span), the basis being the vectors that enlarged it."""
        span = IncrementalSpan(self.field, self.ext.dim(q))
        return [v for v in vecs if span.add(v)], span

    def ideal_spans(self, q: int) -> list:
        """(basis, span) of the degree-q part of every face's exterior
        ideal, in id order.  The ideal of a face is spanned by omega(v) ^ e_B
        over its vertices v and the (q - 1)-subsets B, and each of these
        products is formed once for all faces."""
        ext = self.ext
        products = {lab: self._times_basis(1, self.omega(lab), q - 1)
                    for lab in self.frows} if 0 < q <= self.n else {}
        spans = []
        for elem, labels in enumerate(self.S.vertex_sets):
            vecs = [v for lab in labels for v in products[lab]] if products else []
            basis, span = self._span(vecs, q)
            if len(basis) != ext.dim(q) - binom(self.n - len(labels), q):
                raise InvariantViolation(f"ideal dimension off at face {elem}, degree {q}")
            spans.append((basis, span))
        return spans

    def pi_form(self, elem: int):
        """Top wedge of the face's direction vectors, in ascending vertex
        order; formed once per kit, nonzero by validity."""
        vec = self._forms.get(elem)
        if vec is None:
            ext = self.ext
            vec = [self.field.one]
            for deg, lab in enumerate(self.S.vertex_sets[elem]):
                vec = ext.wedge(deg, vec, 1, self.omega(lab))
            if not any(vec):
                raise InvariantViolation(f"zero top form at face {elem}")
            self._forms[elem] = vec
        return vec

    def coefficient(self, elem: int, A):
        """The determinant coefficient C_{A,I} of the face I = `elem` and a
        subset A of the columns 1..n with |A| + |I| = n.

        The minor of the face's rows on the columns outside A is the top
        form's coordinate there, signed by the parity of
        1 + ... + (n - |A|) plus those columns.  The sign depends only on A,
        so flipping it never changes downstream ranks.
        """
        n = self.n
        cols = tuple(j for j in range(1, n + 1) if j not in A)
        if len(cols) != len(self.S.vertex_sets[elem]):
            raise InvariantViolation("need |A| + |I| = n")
        det = self.pi_form(elem)[self.ext.index(cols)]
        exp = sum(range(1, len(cols) + 1)) + sum(cols)
        return self.field(-det if exp % 2 else det)

    def pi_spans(self, q: int) -> list:
        """(basis, span) of the degree-q part of every face's principal
        ideal, generated by its top form, in id order."""
        spans = []
        for elem, labels in enumerate(self.S.vertex_sets):
            k = len(labels)
            if elem == 0 or not k <= q <= self.n:
                spans.append(self._span([], q))
                continue
            basis, span = self._span(self._times_basis(k, self.pi_form(elem), q - k), q)
            if len(basis) != binom(self.n - k, q - k):
                raise InvariantViolation(f"principal ideal dimension off at face {elem}")
            spans.append((basis, span))
        return spans

    # -- sheaves and cosheaves per exterior degree --------------------------

    def _inclusions(self, cls, spans, name: str):
        """The sheaf or cosheaf (`cls`) of the spans, one (basis, span) per
        face; its maps are the coordinate forms of the inclusions along the
        covers.

        Column i of a map X holds the coordinates of the source's i-th basis
        vector in the target's basis, read off the target's span, so
        B_dst X = B_src.  Hence X is injective with no check: X v = 0 gives
        B_src v = 0, and B_src is a basis, so v = 0.  Every column is read
        this way, a target basis vector giving its unit column."""
        S, F = self.S, self.field
        dims = [len(basis) for basis, _ in spans]
        rest = {}
        for src, dst in _covers(S, cls):
            if dims[src] and dims[dst]:
                cols = [spans[dst][1].coords(v) for v in spans[src][0]]
                if any(c is None for c in cols):
                    raise InvariantViolation(f"{name} not nested along a cover")
                rest[(src, dst)] = Matrix.from_columns(F, cols, dims[dst])
        return cls(S, F, dims, rest, name=name)

    def _quotients(self, cls, spans, name: str):
        """The sheaf or cosheaf (`cls`) of the exterior component modulo the
        spans, one (basis, span) per face, in free-column coordinates.  Only
        the sheaf keeps the empty face, carrying the whole component."""
        S, F = self.S, self.field
        spans = [span for _, span in spans]
        amb = spans[0].ambient_dim
        free = [span.free_columns() for span in spans]
        dims = [len(cols) for cols in free]
        if cls is CellularCosheaf:
            dims[0] = 0
        classes = {}                    # (face, position) -> class of the unit vector

        def unit_class(e, c):
            if (e, c) not in classes:
                unit = [F.zero] * amb
                unit[c] = F.one
                classes[(e, c)] = spans[e].quotient_coords(unit)
            return classes[(e, c)]

        rest = {}
        for src, dst in _covers(S, cls):
            if dims[src] and dims[dst]:
                cols = [unit_class(dst, c) for c in free[src]]
                rest[(src, dst)] = Matrix.from_columns(F, cols, dims[dst])
        return cls(S, F, dims, rest, include_empty=dims[0] > 0, name=name)

    # -- structure sheaf, tensors and their (co)homology -------------------

    def structure_sheaf(self, include_empty: bool = True) -> CellularSheaf:
        return self.S.job(self.field).structure_sheaf(include_empty)

    def _degree(self, q: int) -> dict:
        """The dimension tables of degree q, from one pass over its spans,
        sheaves and complexes, none of which is kept."""
        tables = self._dims.get(q)
        if tables is None:
            structure = self.structure_sheaf()
            spans = self.ideal_spans(q)
            ideal = tensor(structure, self._inclusions(CellularSheaf, spans, f"ideal^({q})"))
            tables = {("ideal", True): sheaf_cohomology(ideal, truncated=True).dims}
            quotient = tensor(structure,
                              self._quotients(CellularSheaf, spans, f"lambda/ideal^({q})"))
            del ideal, spans
            # the truncated complex is this one without degree -1, so its H^0
            # is ker d^0 = H^0 + rank d^-1 = H^0 + dim C^-1 - H^-1
            quotient = sheaf_cohomology(quotient, truncated=False)
            dims = tables[("quotient", False)] = quotient.dims
            head = {k: d for k, d in dims.items() if k >= 0}
            head[0] += quotient.complex.dim(-1) - dims.get(-1, 0)
            tables[("quotient", True)] = head
            del quotient
            spans = self.pi_spans(q)
            tables["pi"] = sheaf_cohomology(
                self._inclusions(CellularCosheaf, spans, f"pi^({q})")).dims
            tables["lambda/pi"] = sheaf_cohomology(
                self._quotients(CellularCosheaf, spans, f"lambda/pi^({q})")).dims
            self._dims[q] = tables
        return tables

    def sheaf_dims(self, kind: str, q: int, truncated: bool) -> dict:
        """Cohomology dimensions of structure (x) `kind`^(q).

        `kind` is "ideal" (truncated only) or "quotient"; `truncated` is as
        in `sheaf_cohomology`.
        """
        return self._degree(q)[(kind, truncated)]

    def cosheaf_dims(self, kind: str, q: int) -> dict:
        """Homology dimensions of the cosheaf `kind`^(q), "pi" or "lambda/pi"."""
        return self._degree(q)[kind]


# ---------------------------------------------------------------------------
# verification operations

class KeyLemmaReport(NamedTuple):
    n: int
    table: dict                  # (i, q) -> dim
    passed: bool
    violations: list

    def as_dict(self):
        return {"passed": self.passed,
                "table": {f"{i},{q}": d for (i, q), d in sorted(self.table.items())},
                "violations": [list(v) for v in self.violations]}


def keylemma_check(S: SimplicialPoset, cmap: CharacteristicMap, field) -> KeyLemmaReport:
    """Cohomology of structure (x) ideal in every bidegree.

    The vanishing range is i <= n - 1 - q with n the poset rank (the
    orbit-space dimension), whatever the torus rank is.
    """
    kit = S.job(field).kit(cmap)
    n = S.n
    table = {}
    violations = []
    for q in range(kit.n + 1):
        dims = kit.sheaf_dims("ideal", q, True)
        for i in range(S.n):
            d = dims.get(i, 0)
            table[(i, q)] = d
            if i <= n - 1 - q and d != 0:
                violations.append((i, q, d))
    return KeyLemmaReport(kit.n, table, not violations, violations)


class DualityReport(NamedTuple):
    n: int
    sheaf_side: dict             # (k, q) -> dim H^k(structure (x) ideal^(q))
    cosheaf_side: dict           # (k, q) -> dim H_{n-1-k}(pi^(q))
    passed: bool

    def as_dict(self):
        return {"passed": self.passed,
                "sheaf": {f"{k},{q}": d for (k, q), d in sorted(self.sheaf_side.items())},
                "cosheaf": {f"{k},{q}": d for (k, q), d in sorted(self.cosheaf_side.items())}}


def duality_check(S: SimplicialPoset, cmap: CharacteristicMap, field) -> DualityReport:
    """Graded comparison of ideal-sheaf cohomology with principal-ideal
    cosheaf homology in complementary degree."""
    kit = S.job(field).kit(cmap)
    n = kit.n
    top = S.n - 1
    sheaf_side = {}
    cosheaf_side = {}
    for q in range(n + 1):
        coh = kit.sheaf_dims("ideal", q, True)
        hom = kit.cosheaf_dims("pi", q)
        for k in range(S.n):
            sheaf_side[(k, q)] = coh.get(k, 0)
            cosheaf_side[(k, q)] = hom.get(top - k, 0)
    passed = sheaf_side == cosheaf_side
    return DualityReport(n, sheaf_side, cosheaf_side, passed)


class LesDualityReport(NamedTuple):
    n: int
    sheaf_rows: dict             # q -> list of dims along the long exact sequence
    cosheaf_rows: dict
    connecting: dict             # q -> list of map ranks forced by exactness
    passed: bool

    def as_dict(self):
        return {"passed": self.passed,
                "sheaf_rows": {str(q): v for q, v in sorted(self.sheaf_rows.items())},
                "cosheaf_rows": {str(q): v for q, v in sorted(self.cosheaf_rows.items())},
                "connecting": {str(q): v for q, v in sorted(self.connecting.items())}}


def les_duality_check(S: SimplicialPoset, cmap: CharacteristicMap, field) -> LesDualityReport:
    """Compare the two long exact sequences degreewise.

    Sheaf side: ideal -> full -> quotient in structure-sheaf cohomology.
    Cosheaf side: principal ideal -> full -> quotient in cosheaf homology,
    read in complementary degree.  Connecting ranks are forced by
    exactness once all dimensions are known, so equal dimension rows give
    isomorphic sequences.

    The full terms are constant: structure (x) Λ^q is C(n, q) copies of
    the structure sheaf, and the constant cosheaf Λ^q is C(n, q) copies of
    the cellular chains of S.  So the middle column compares C(n, q) times
    the job's structure-sheaf cohomology (local-homology cochains) with
    C(n, q) times its Betti numbers in complementary degree (cellular
    chains): two independent routes, so the comparison can fail.
    """
    job = S.job(field)
    kit = job.kit(cmap)
    n = kit.n
    top = S.n - 1
    sheaf_rows = {}
    cosheaf_rows = {}
    connecting = {}
    passed = True
    for q in range(n + 1):
        a = kit.sheaf_dims("ideal", q, True)
        c = kit.sheaf_dims("quotient", q, True)
        ah = kit.cosheaf_dims("pi", q)
        ch = kit.cosheaf_dims("lambda/pi", q)
        copies = binom(n, q)
        srow = []
        crow = []
        for k in range(S.n):
            srow += [a.get(k, 0), copies * job.structure_cohomology.get(k, 0), c.get(k, 0)]
            crow += [ah.get(top - k, 0), copies * job.betti.get(top - k, 0),
                     ch.get(top - k, 0)]
        sheaf_rows[q] = srow
        cosheaf_rows[q] = crow
        if srow != crow:
            passed = False
        # ranks forced by exactness, anchored at the left end
        ranks = []
        prev = 0
        for dim in srow:
            r = dim - prev
            if r < 0:
                passed = False
                r = 0
            ranks.append(r)
            prev = r
        if prev != 0:
            passed = False
        connecting[q] = ranks
    return LesDualityReport(n, sheaf_rows, cosheaf_rows, connecting, passed)
