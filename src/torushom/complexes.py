"""Chain complexes of simplicial posets and their exact homology.

One graded-complex engine serves both chain complexes (differential lowers
degree) and sheaf cochain complexes (raises degree).  Every builder checks
d∘d = 0, so homology dimensions are read off one rank per differential.
Deterministic representative cycles, and the lift data that expresses any
cycle in the representative basis, are built per degree only when asked
for, in one `Echelon` holding the boundaries and then the cycles that
enlarge their span, each representative with a tag column of its own;
the restriction maps of the structure sheaf, the sheaf kit's induced maps
and the face-ring relations are what ask.
"""
from __future__ import annotations

from typing import NamedTuple

from .errors import InputError, InvariantViolation
from .exactlin import Echelon, Matrix, product_nonzeros, row_nonzeros
from .field import QQ
from .poset import SimplicialPoset, incidence_number


class GradedComplex:
    """Graded vector space with differentials d[k]: C_k -> C_{k+shift}."""

    def __init__(self, field, dims: dict, diff: dict, shift: int, labels: dict | None = None):
        self.field = field
        self.dims = dims
        self.diff = diff
        self.shift = shift
        self.labels = {} if labels is None else labels

    def dim(self, k):
        return self.dims.get(k, 0)

    def d(self, k) -> Matrix | None:
        return self.diff.get(k)

    def check_square_zero(self):
        """Look for a nonzero entry of d∘d, reading each differential's
        nonzero entries once."""
        p = self.field.char
        nonzeros = {k: dk.nonzeros() for k, dk in self.diff.items()}
        for k, dk in self.diff.items():
            dn = self.diff.get(k + self.shift)
            if dn is None:
                continue
            if dn.ncols != dk.nrows:
                raise InvariantViolation(f"d at degree {k + self.shift} does not compose "
                                         f"with d at degree {k}")
            if any(product_nonzeros(nonzeros[k + self.shift], nonzeros[k], p)):
                raise InvariantViolation(f"d^2 != 0 at degree {k}")

    def degrees(self):
        return sorted(self.dims)


class HomologyProfile:
    """Homology of a complex: dimensions at once, representatives on demand.

    The complex must satisfy d∘d = 0, which every builder checks
    (`cellular_chain_complex` and the sheaf complex builder).  Then
    dim H_k = n_k - rank d_k - rank d_{k-shift}, so the dimensions cost
    one rank per differential.  The boundaries and representative cycles
    of a degree are built the first time one of them or `coords(k, vec)`
    asks for it, in one `Echelon` (`classes`).  A caller that knows
    the dimensions already passes them (`dims`), and then no differential
    is ranked.
    """

    def __init__(self, cx: GradedComplex, dims: dict | None = None):
        self.complex = cx
        if dims is None:
            ranks = {k: dk.rank() for k, dk in cx.diff.items()}
            dims = {k: cx.dim(k) - ranks.get(k, 0) - ranks.get(k - cx.shift, 0)
                    for k in cx.degrees()}
        self.dims = dims
        self._bases = {}      # degree -> (boundaries, representatives, span)

    def _basis(self, k):
        if k not in self._bases:
            cx = self.complex
            F, nk, dk = cx.field, cx.dim(k), cx.d(k)
            cycles = ([F.one if j == i else F.zero for j in range(nk)] for i in range(nk)) \
                if dk is None else dk.kernel_basis()
            self._bases[k] = self.classes(k, cycles)
        return self._bases[k]

    def classes(self, k, cycles):
        """(boundaries, representatives, span) of degree k: the columns of
        d_{k-shift} that enlarge the span of the columns before them, then
        the vectors of `cycles`, in order, that enlarge the span so far,
        the i-th of them added with the tag column n_k + i."""
        cx = self.complex
        F, nk, dprev = cx.field, cx.dim(k), cx.d(k - cx.shift)
        span = Echelon(F)
        boundaries = [] if dprev is None else [b for b in _columns(dprev) if span.add(b)]
        reps = []
        for z in cycles:
            r = span.reduce(row_nonzeros(z, F.char))
            if min(r, default=nk) < nk:
                r[nk + len(reps)] = F.one
                span.add(r)
                reps.append(z)
        return boundaries, reps, span

    def boundaries(self, k):
        """A basis of the boundaries in degree k, as `{position: entry}`
        rows: the pivot columns of d_{k-shift}."""
        return self._basis(k)[0]

    def representatives(self, k):
        """Representative cycles of a basis of H_k, built on first use."""
        return self._basis(k)[1]

    def coords(self, k, vec):
        """Coordinates of a cycle's class in the representative basis: minus
        the tags of its residual.

        Raises InvariantViolation when `vec` is not a cycle (not in the
        span of boundaries and representatives).
        """
        _, reps, span = self._basis(k)
        F = span.field
        r = span.reduce(row_nonzeros(vec, F.char))
        x = [F.zero] * len(reps)
        if r:
            nk, p = self.complex.dim(k), F.char
            if min(r) < nk:
                raise InvariantViolation("vector is not a cycle of this complex")
            for j, a in r.items():
                x[j - nk] = -a % p if p else -a
        return x


def _columns(m: Matrix) -> list:
    """The columns of a matrix as `{row: entry}` dicts."""
    cols = [{} for _ in range(m.ncols)]
    for i, row in enumerate(m.nonzeros()):
        for j, a in row.items():
            cols[j][i] = a
    return cols


def homology(cx: GradedComplex) -> HomologyProfile:
    return HomologyProfile(cx)


# ---------------------------------------------------------------------------
# cellular complexes of simplicial posets

def cellular_chain_complex(S: SimplicialPoset, field, star: int = 0) -> GradedComplex:
    """Reduced chain complex of the star of a face, one generator per face
    J >= `star` and d = sum [J:I].

    The generators of each degree are in id order.  The star of the empty
    face (the default) is every face: the augmented complex of S.  The star
    of a nonempty face I is the relative complex C(S, S minus st I): the
    faces not above I span a subcomplex, and the quotient keeps the rest.
    The entries are incidence signs, so the complex is built and checked
    once per poset over Z (`S._stars`); d∘d = 0 over Z holds over every
    field.  Each call maps its rows into `field` (over Q it shares them)
    and shares its read-only `dims` and `labels`.
    """
    if not 0 <= star < S.size:
        raise InputError(f"no element {star} in a poset of {S.size} elements")
    cx = S._stars.get(star)
    if cx is None:
        labels = {d: [] for d in range(-1, S.n)}
        for j in S.upper_set(star):
            labels[S.ranks[j] - 1].append(j)
        dims = {d: len(ids) for d, ids in labels.items()}
        index = {d: {e: k for k, e in enumerate(ids)} for d, ids in labels.items()}
        signs = {}
        for d in range(S.n):
            rows = [{} for _ in range(dims[d - 1])]
            for col, j in enumerate(labels[d]):
                for i in S.covers[j]:
                    row = index[d - 1].get(i)
                    if row is not None:
                        rows[row][col] = incidence_number(S, j, i)
            signs[d] = Matrix.sparse(QQ, rows, dims[d])
        cx = GradedComplex(QQ, dims, signs, shift=-1, labels=labels)
        cx.check_square_zero()
        S._stars[star] = cx
    diff = {d: m.in_field(field) for d, m in cx.diff.items()}
    return GradedComplex(field, cx.dims, diff, shift=-1, labels=cx.labels)


def reduced_betti(S: SimplicialPoset, field) -> dict:
    """Reduced Betti numbers of |S| from the poset's own cellular complex."""
    return dict(S.job(field).reduced_betti)


def betti(S: SimplicialPoset, field) -> dict:
    """Unreduced Betti numbers of |S|."""
    return dict(S.job(field).betti)


class ClassifyReport(NamedTuple):
    buchsbaum: bool
    cohen_macaulay: bool
    pure: bool
    failures: list        # (element id or -1 for the global condition, degree, dim)

    def as_dict(self):
        return {"buchsbaum": self.buchsbaum, "cohen_macaulay": self.cohen_macaulay,
                "pure": self.pure,
                "failures": [list(f) for f in self.failures]}


def classify(S: SimplicialPoset, field) -> ClassifyReport:
    """Buchsbaum / Cohen-Macaulay verdicts over the active field.

    Buchsbaum: reduced link homology of every nonempty face vanishes off
    the top degree; Cohen-Macaulay additionally requires it for the empty
    face (the poset itself).  Link homology is read off the star complexes:
    H_*(S, S \\ st I) has the ranks of the reduced link homology shifted by |I|.
    """
    return S.job(field).classify


def classify_of(job) -> ClassifyReport:
    """The uncached work of `classify`."""
    S = job.S
    if not S.is_pure():
        return ClassifyReport(False, False, False, [(-1, -1, -1)])
    # H_d(S, S \ st j) = reduced H_{d - |j|}(lk j); the star of the empty
    # face is S itself, whose failures are the global ones and come last
    failures = [(j, d - S.ranks[j], dim) for j in [*range(1, S.size), 0]
                for d, dim in job.link_dims[j].items() if dim and d != S.n - 1]
    buchsbaum = all(j == 0 for j, _, _ in failures)
    return ClassifyReport(buchsbaum, not failures, True, failures)
