"""Exterior algebra, characteristic maps, and the torus-space sheaf kit.

A characteristic map assigns an integer direction vector to each vertex;
validity means the vectors over every face are independent (over the
active field) or span a direct summand (over Z, checked by Smith
invariants).  From a valid map the sheaf kit builds the quotient of the
exterior ideal sheaf and the principal-ideal cosheaf in adapted bases and
reads the ideal sheaf and the quotient cosheaf off two long exact
sequences; the module runs the vanishing and duality checks that tie them
together.  The top form of each face, which generates its principal
ideal, also gives the face ring's determinant coefficients.  Every
exterior form is a sparse {subset: coefficient} dict, and one wedge,
term by term, makes all of them: no product tables are built.
"""
from __future__ import annotations

from itertools import combinations, product
from typing import NamedTuple

from .errors import InputError, InvariantViolation
from .exactlin import Matrix, smith_invariants
from .poset import SimplicialPoset
from .sheaves import (
    CellularSheaf, CellularCosheaf, sheaf_cohomology, tensor, truncated_dims, _blocks, _covers,
)
from .facevec import binom
from .formats import CharacteristicMap


class ExteriorAlgebra:
    """Exterior algebra on n generators with subset-indexed basis.

    A form is a dict {A: coefficient} over sorted tuples A of {1..n} that
    holds only its nonzero coordinates.  The degree-q basis e_A runs over
    the q-subsets A in lexicographic order (`subsets`); one `wedge`
    multiplies forms term by term with the shuffle sign, with no product
    tables.
    """

    def __init__(self, n: int, field):
        self.n = n
        self.field = field
        self._subsets = {q: list(combinations(range(1, n + 1), q)) for q in range(n + 1)}

    def subsets(self, q):
        return self._subsets.get(q, [])

    def dim(self, q):
        return len(self.subsets(q))

    @staticmethod
    def shuffle_sign(A, B):
        """Sign of merging two disjoint sorted tuples, or 0 when they meet."""
        if set(A) & set(B):
            return 0
        inversions = sum(1 for a in A for b in B if a > b)
        return -1 if inversions % 2 else 1

    def wedge(self, u: dict, v: dict) -> dict:
        """u ^ v, leaving out the coordinates that cancel."""
        p, out = self.field.char, {}
        for A, a in u.items():
            for B, b in v.items():
                s = self.shuffle_sign(A, B)
                if s:
                    C = tuple(sorted(A + B))
                    out[C] = out.get(C, 0) + s * a * b
        if p:
            out = {C: x % p for C, x in out.items()}
        return {C: x for C, x in out.items() if x}


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
        raise InputError(f"torus rank {cmap.n} smaller than poset rank {S.n}")
    missing = [lab for lab in S.vertex_labels() if lab not in cmap.rows]
    if missing:
        raise InputError(f"characteristic map misses vertices {missing}")
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
    """The quotient sheaf Λ^q / ideal^(q) and the principal-ideal cosheaf
    π^(q) of (S, characteristic map) in adapted bases (`frames`), one
    degree q at a time.  A degree ranks their complexes, structure (x)
    quotient untruncated and π, certified by their d∘d checks, and reads
    the other two tables off the long exact sequences of 0 -> ideal ->
    Λ^q -> quotient -> 0 (tensored with the structure sheaf) and 0 -> π ->
    Λ^q -> Λ/π -> 0, whose middle terms are C(n, q) copies of the structure
    sheaf (untruncated cohomology h^k) and of the chains (Betti numbers b_k):

        dim H^k(structure (x) ideal) = (C(n,q) h^k - r_k) + (h^(k-1)(quotient) - r_(k-1))
        dim H_k(Λ/π) = (C(n,q) b_k - r'_k) + (h_(k-1)(π) - r'_(k-1))

    with r_k, r'_k the ranks of H^k(structure (x) Λ^q) -> H^k(structure (x)
    quotient) and H_k(π) -> H_k(Λ^q), read on representatives.  It keeps
    the tables and ranks, the frames and the faces' top forms (`pi_form`).
    """

    def __init__(self, S: SimplicialPoset, cmap: CharacteristicMap, field):
        rep = S.job(field).charmap_report(cmap)
        if not rep.ok_field:
            raise InputError(f"characteristic map invalid over {field!r} "
                             f"on faces {rep.field_failures}")
        self.S, self.cmap, self.field, self.n = S, cmap, field, cmap.n
        self.ext = ExteriorAlgebra(cmap.n, field)
        self.frows = cmap.field_rows(field)
        self._dims = {}         # exterior degree -> its tables
        self._forms = {}        # face -> its top form
        self._coefficients = {}  # face -> its determinant coefficients
        self._frames, self._moves = None, {}     # see `frames`

    def pi_form(self, elem: int) -> dict:
        """Top wedge of the face's direction vectors, in ascending vertex
        order; formed once per kit, nonzero by validity."""
        form = self._forms.get(elem)
        if form is None:
            form = {(): self.field.one}
            for lab in self.S.vertex_sets[elem]:
                form = self.ext.wedge(form, _one_form(range(1, self.n + 1), self.frows[lab]))
            if not form:
                raise InvariantViolation(f"zero top form at face {elem}")
            self._forms[elem] = form
        return form

    def coefficients(self, elem: int) -> dict:
        """The determinant coefficients C_{A,I} of the face I = `elem`, as
        {A: C_{A,I}} over the subsets A with |A| + |I| = n where they are
        nonzero: the top form's coordinate at the columns outside A, signed
        by the parity of 1 + ... + |I| plus those columns.  The sign depends
        only on A, so it moves no rank.  Built once per face."""
        table = self._coefficients.get(elem)
        if table is None:
            n, rank = self.n, len(self.S.vertex_sets[elem])
            table = self._coefficients[elem] = {}
            for cols, det in self.pi_form(elem).items():
                A = tuple(j for j in range(1, n + 1) if j not in cols)
                odd = (rank * (rank + 1) // 2 + sum(cols)) % 2
                table[A] = self.field(-det) if odd else det
        return table

    # -- adapted bases -----------------------------------------------------

    def frames(self) -> list:
        """Each face's adapted basis, in id order, as (C, P): the columns j whose e_j
        complete its directions greedily, and P[j - 1], the class of e_j modulo them
        over e_C.  For a cover I < J adding w, `_moves[(I, J)]` is (j0, b): b is the class
        of s lambda(w), omega_J = omega_I ^ s lambda(w), and j0 the last column where b != 0."""
        if self._frames is None:
            S, F, n = self.S, self.field, self.n
            frames = {0: (tuple(range(1, n + 1)),
                          [[F.one if i == j else F.zero for i in range(n)] for j in range(n)])}
            for J in sorted(range(1, S.size), key=S.ranks.__getitem__):
                labels = S.vertex_sets[J]
                for I in S.covers[J]:
                    (C, P), t = frames[I], labels.index(*set(labels) - set(S.vertex_sets[I]))
                    s = (-1) ** (len(labels) - 1 - t)
                    b = _reduced(F, [s * sum(x * v[c] for x, v in zip(self.frows[labels[t]], P))
                                       for c in range(len(C))])
                    drop = max((c for c, x in enumerate(b) if x), default=None)
                    if drop is None:
                        raise InvariantViolation(f"dependent directions on the face {labels}")
                    self._moves[(I, J)] = C[drop], b
                    if J not in frames:
                        inv, keep = F.inv(b[drop]), [c for c in range(len(C)) if c != drop]
                        frames[J] = (tuple(C[c] for c in keep), [_reduced(F, 
                            [x[c] - x[drop] * inv * b[c] for c in keep]) for x in P])
            self._frames = [frames[e] for e in range(S.size)]
        return self._frames

    # -- the two (co)sheaves and the ranks of the maps to and from Λ^q ------

    def _quotient_sheaf(self, q: int) -> CellularSheaf:
        """Λ^q / ideal^(q), the empty face's stalk all of Λ^q.  A cover I < J fixes
        e_A when j0 is not in A and sends e_j0 ^ e_B to P_J[j0 - 1] ^ e_B."""
        S, F, ext, frames = self.S, self.field, self.ext, self.frames()
        dims = [binom(self.n - rank, q) for rank in S.ranks]
        rest = {}
        for I, J in _covers(S, CellularSheaf):
            if dims[I] and dims[J]:
                (CI, _), (C, P), (j0, _) = frames[I], frames[J], self._moves[(I, J)]
                index = {A: k for k, A in enumerate(combinations(C, q))}
                rows, v = [{} for _ in index], _one_form(C, P[j0 - 1])
                for a, A in enumerate(combinations(CI, q)):
                    if j0 not in A:
                        rows[index[A]][a] = F.one
                    else:
                        B = tuple(j for j in A if j != j0)
                        for D, x in ext.wedge(v, {B: ext.shuffle_sign((j0,), B)}).items():
                            rows[index[D]][a] = x
                rest[(I, J)] = Matrix.sparse(F, rows, dims[I])
        return CellularSheaf(S, F, dims, rest, include_empty=True, name=f"lambda/ideal^({q})")

    def _pi_cosheaf(self, q: int) -> CellularCosheaf:
        """π^(q), with no stalk at the empty face; along a cover I < J,
        omega_J ^ e_B = omega_I ^ (s lambda(w) ^ e_B), read modulo V_I."""
        S, F, ext, frames = self.S, self.field, self.ext, self.frames()
        dims = [binom(self.n - rank, q - rank) if 0 < rank <= q else 0 for rank in S.ranks]
        rest = {}
        for J, I in _covers(S, CellularCosheaf):
            if dims[I] and dims[J]:
                C, qb = frames[I][0], q - S.ranks[J]
                index = {A: k for k, A in enumerate(combinations(C, qb + 1))}
                rows, v = [{} for _ in index], _one_form(C, self._moves[(I, J)][1])
                for a, B in enumerate(combinations(frames[J][0], qb)):
                    for D, x in ext.wedge(v, {B: F.one}).items():
                        rows[index[D]][a] = x
                rest[(J, I)] = Matrix.sparse(F, rows, dims[J])
        return CellularCosheaf(S, F, dims, rest, name=f"pi^({q})")

    def _ranks(self, source, target, rows) -> dict:
        """Per degree k, the rank of a map source -> target with rows `rows(k, reps)`."""
        return {k: Matrix(self.field, list(rows(k, source.representatives(k)))).rank()
                for k in source.complex.degrees() if source.dims.get(k) and target.dims.get(k)}

    def projections(self, sheaf) -> dict:
        """The projection Λ^q -> quotient at each face: the quotient sheaf's map
        from the empty face, composed along a chain of covers."""
        S, proj = self.S, {0: Matrix.identity(self.field, sheaf.stalk_dims[0])}
        for J in sorted(range(1, S.size), key=S.ranks.__getitem__):
            proj[J] = sheaf._cover_matrix(S.covers[J][0], J).mul(proj[S.covers[J][0]])
        return proj

    def _projection_ranks(self, q: int, quotient, sheaf) -> dict:
        """r_k: the classes z (x) e_A projected face by face, read in `quotient`."""
        S, F, stalks = self.S, self.field, sheaf.stalk_dims
        sdims, proj = S.job(F).structure_sheaf().stalk_dims, self.projections(sheaf)

        def rows(k, reps):
            _, soff, _ = _blocks(S, sdims, k, True)
            _, qoff, total = _blocks(S, [a * b for a, b in zip(sdims, stalks)], k, True)
            for z, A in product(reps, range(self.ext.dim(q))):
                vec = [F.zero] * total
                for I, off in qoff.items():
                    image = proj[I].column(A)
                    for a, za in enumerate(z[soff[I]:soff[I] + sdims[I]]):
                        start = off + a * stalks[I]
                        vec[start:start + stalks[I]] = [za * x for x in image]
                yield quotient.coords(k, vec)
        return self._ranks(S.job(F).structure_profile, quotient, rows)

    def _inclusion_ranks(self, q: int, pi, stalks) -> dict:
        """r'_k: the cycles of π carried into Λ^q, each Λ^q coordinate read in the chains."""
        S, F, ext, chains = self.S, self.field, self.ext, self.S.job(self.field).chain_homology

        def rows(k, reps):
            position = {e: i for i, e in enumerate(chains.complex.labels[k])}
            for x in reps:
                parts = {A: [F.zero] * len(position) for A in ext.subsets(q)}
                for I, o in _blocks(S, stalks, k, False)[1].items():
                    y = {B: c for B, c in zip(combinations(self.frames()[I][0], q - k - 1),
                                              x[o:]) if c}
                    for A, v in ext.wedge(self.pi_form(I), y).items():
                        parts[A][position[I]] = v
                yield [v for part in parts.values() for v in chains.coords(k, part)]
        return self._ranks(pi, chains, rows)

    # -- the degree passes -------------------------------------------------

    def _degree(self, q: int) -> dict:
        """The tables of degree q, from one pass over its two (co)sheaves
        and complexes, none of which is kept."""
        if q not in self._dims:
            S, job, copies = self.S, self.S.job(self.field), binom(self.n, q)
            sheaf = self._quotient_sheaf(q)
            quotient = sheaf_cohomology(tensor(job.structure_sheaf(), sheaf))
            r, c = self._projection_ranks(q, quotient, sheaf), quotient.dims
            ranks = {k: r.get(k, 0) for k in range(S.n)}
            ranks[0] += quotient.complex.dim(-1) - c.get(-1, 0)
            tables = {("quotient", False): c, ("quotient", True): truncated_dims(quotient),
                      "ranks": ranks, ("ideal", True): _exact_term(
                          f"ideal^({q})", S.n, copies, job.structure_profile.dims, r, c)}
            del sheaf, quotient
            cosheaf = self._pi_cosheaf(q)
            pi = sheaf_cohomology(cosheaf)
            r = self._inclusion_ranks(q, pi, cosheaf.stalk_dims)
            tables["pi"] = pi.dims
            tables["lambda/pi"] = _exact_term(f"lambda/pi^({q})", S.n, copies, job.betti, r,
                                              pi.dims)
            self._dims[q] = tables
        return self._dims[q]

    def sheaf_dims(self, kind: str, q: int, truncated: bool) -> dict:
        """Cohomology dims of structure (x) `kind`^(q), "ideal" (truncated) or "quotient"."""
        return self._degree(q)[(kind, truncated)]

    def cosheaf_dims(self, kind: str, q: int) -> dict:
        """Homology dimensions of the cosheaf `kind`^(q), "pi" or "lambda/pi"."""
        return self._degree(q)[kind]

    def projection_ranks(self, q: int) -> dict:
        """The ranks of H^k(structure (x) Λ^q) -> H^k(structure (x) quotient^(q)), truncated."""
        return self._degree(q)["ranks"]


def _reduced(F, vec):
    return [a % F.char for a in vec] if F.char else list(map(F, vec))


def _one_form(columns, v) -> dict:
    """The 1-form with coordinate x at column j, over the pairs (j, x) of `columns` and v."""
    return {(j,): x for j, x in zip(columns, v) if x}


def _exact_term(name, n, copies, middle, ranks, other):
    """dim X_k = (copies m_k - r_k) + (y_(k-1) - r_(k-1)), k = 0..n-1, in a long
    exact sequence of X, copies x M and Y, r_k the rank of M -> Y or Y -> M."""
    dims = {k: copies * middle.get(k, 0) - ranks.get(k, 0) + other.get(k - 1, 0)
            - ranks.get(k - 1, 0) for k in range(-1, n + 1)}
    if dims.pop(-1) or dims.pop(n):
        raise InvariantViolation(f"{name}: exactness leaves a class outside 0..{n - 1}")
    return dims


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
    table = {(i, q): kit.sheaf_dims("ideal", q, True).get(i, 0)
             for q in range(kit.n + 1) for i in range(S.n)}
    violations = [(i, q, d) for (i, q), d in table.items() if i <= S.n - 1 - q and d]
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
    """Graded comparison of ideal-sheaf cohomology, derived on the sheaf
    side, with principal-ideal cosheaf homology in complementary degree."""
    kit = S.job(field).kit(cmap)
    degrees = [(k, q) for q in range(kit.n + 1) for k in range(S.n)]
    sheaf_side = {(k, q): kit.sheaf_dims("ideal", q, True).get(k, 0) for k, q in degrees}
    cosheaf_side = {(k, q): kit.cosheaf_dims("pi", q).get(S.n - 1 - k, 0) for k, q in degrees}
    return DualityReport(kit.n, sheaf_side, cosheaf_side, sheaf_side == cosheaf_side)


class LesDualityReport(NamedTuple):
    n: int
    sheaf_rows: dict             # q -> list of dims along the long exact sequence
    cosheaf_rows: dict
    connecting: dict             # q -> list of map ranks along the sheaf sequence
    passed: bool

    def as_dict(self):
        return {"passed": self.passed,
                "sheaf_rows": {str(q): v for q, v in sorted(self.sheaf_rows.items())},
                "cosheaf_rows": {str(q): v for q, v in sorted(self.cosheaf_rows.items())},
                "connecting": {str(q): v for q, v in sorted(self.connecting.items())}}


def les_duality_check(S: SimplicialPoset, cmap: CharacteristicMap, field) -> LesDualityReport:
    """Compare the two long exact sequences degreewise.

    Sheaf side: ideal -> full -> quotient in structure-sheaf cohomology;
    cosheaf side: principal ideal -> full -> quotient in cosheaf homology,
    in complementary degree.  Each end compares a computed column with one
    derived on the other side, and the full terms C(n, q) times the
    structure-sheaf cohomology and the Betti numbers.  `connecting` holds
    the ranks of full -> quotient computed on representatives, and around
    each the ranks into it and of the connecting map, by exactness.
    """
    job = S.job(field)
    kit = job.kit(cmap)
    top = S.n - 1
    sheaf_rows, cosheaf_rows, connecting = {}, {}, {}
    for q in range(kit.n + 1):
        a, c = kit.sheaf_dims("ideal", q, True), kit.sheaf_dims("quotient", q, True)
        ah, ch = kit.cosheaf_dims("pi", q), kit.cosheaf_dims("lambda/pi", q)
        r, copies = kit.projection_ranks(q), binom(kit.n, q)
        srow, crow, ranks = [], [], []
        for k in range(S.n):
            middle = copies * job.structure_cohomology.get(k, 0)
            srow += [a.get(k, 0), middle, c.get(k, 0)]
            crow += [ah.get(top - k, 0), copies * job.betti.get(top - k, 0),
                     ch.get(top - k, 0)]
            ranks += [middle - r[k], r[k], c.get(k, 0) - r[k]]
        sheaf_rows[q], cosheaf_rows[q], connecting[q] = srow, crow, ranks
    return LesDualityReport(kit.n, sheaf_rows, cosheaf_rows, connecting,
                            sheaf_rows == cosheaf_rows)
