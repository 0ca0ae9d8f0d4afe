"""Cellular sheaves and cosheaves on a simplicial poset.

A sheaf assigns a stalk space to every poset element and a restriction
matrix to every cover relation; incidence signs live in the cochain
differential, not in the sheaf, so functoriality means the two composites
through any length-two interval are equal as matrices.  Such an interval is
a diamond whose two paths carry opposite signs, so the block of d∘d between
its ends is ± the difference of the composites: the d∘d check of
`sheaf_cohomology`, the one (co)homology of a sheaf or cosheaf, is the
functoriality check over the diamonds of its degrees, and its assembler
refuses a map that does not fit its stalks.  No sheaf is checked apart
from its complex.  The standard sheaves are built here: constant
(`CellularSheaf.constant`) and the structure sheaf (top local homology,
with a stalk at the empty face carrying the top reduced homology of the
whole poset), which the job certifies through its untruncated complex.
"""
from __future__ import annotations

from typing import NamedTuple

from .errors import InvariantViolation
from .exactlin import Matrix
from .poset import SimplicialPoset, incidence_number
from .complexes import GradedComplex, HomologyProfile, homology, cellular_chain_complex


class CellularSheaf:
    """Stalk dimensions and one matrix per cover relation.

    `rest` is keyed (source, target); a cover missing from it carries the
    zero map.  A sheaf's maps run up, from a face to each face covering it;
    `CellularCosheaf` is the same data with the maps running down, and
    `_step` is the degree change of the (co)chain differential.
    """

    _step = +1

    def __init__(self, poset: SimplicialPoset, field, stalk_dims: list, rest: dict,
                 include_empty: bool = False, name: str = ""):
        self.poset = poset
        self.field = field
        self.stalk_dims = stalk_dims
        self.rest = rest              # (source, target) over covers -> Matrix
        self.include_empty = include_empty
        self.name = name

    @classmethod
    def constant(cls, S, field, dim: int = 1, name: str = ""):
        """The constant sheaf (or cosheaf) of value field^dim on the
        nonempty faces; every cover map is the identity."""
        dims = [dim] * S.size
        dims[0] = 0
        ident = Matrix.identity(field, dim)
        rest = {(a, b): ident for a, b in _covers(S, cls) if a != 0 and b != 0}
        return cls(S, field, dims, rest, name=name or f"constant({dim})")

    def _cover_matrix(self, src, dst) -> Matrix:
        m = self.rest.get((src, dst))
        if m is None:
            return Matrix.zero(self.field, self.stalk_dims[dst], self.stalk_dims[src])
        return m


class CellularCosheaf(CellularSheaf):
    """A cosheaf: `rest[(j, i)]` maps stalk j to stalk i for covers i <1 j."""

    _step = -1


def _covers(S, kind):
    """Cover pairs (source, target) of S in the direction of the maps of
    `kind`, a sheaf or cosheaf class or instance."""
    return [(i, j) if kind._step > 0 else (j, i) for i in range(S.size) for j in S.covered_by[i]]


def _blocks(S, stalk_dims, degree, include_empty):
    ids = S.elements_of_dim(degree)
    if degree == -1:
        ids = [0] if include_empty else []
    ids = [i for i in ids if stalk_dims[i] > 0]
    offsets = {}
    total = 0
    for i in ids:
        offsets[i] = total
        total += stalk_dims[i]
    return ids, offsets, total


def sheaf_cohomology(sheaf: CellularSheaf) -> HomologyProfile:
    """Cohomology of a sheaf, or homology of a cosheaf, with the complex
    that computed it (`.complex`, `.dims`).

    The complex is incidence-signed: cochains of a sheaf, chains of a
    cosheaf.  The block of the differential from the stalk of a face to
    the stalk of a face it maps to is the cover matrix times the incidence
    number of the cover; its nonzero entries are written straight into
    sparse rows once its shape fits the stalks.  The d∘d check is then the
    functoriality check over the diamonds of its degrees, whose two paths
    carry opposite signs.  With include_empty the complex is untruncated:
    it has the empty face, and its diamonds, in degree -1 (`truncated_dims`
    reads the truncated dimensions off it).
    """
    S = sheaf.poset
    F = sheaf.field
    p = F.char
    step = sheaf._step
    kind = "sheaf" if step > 0 else "cosheaf"
    lowest = -1 if sheaf.include_empty else 0
    info = {d: _blocks(S, sheaf.stalk_dims, d, sheaf.include_empty) for d in range(lowest, S.n)}
    dims = {d: info[d][2] for d in info}
    targets = S.covered_by if step > 0 else S.covers
    diff = {}
    for d in info:
        if d + step not in info:
            continue
        ids_d, off_d, tot_d = info[d]
        _, off_e, tot_e = info[d + step]
        rows = [{} for _ in range(tot_e)]
        for src in ids_d:
            c0 = off_d[src]
            for dst in targets[src]:
                m = sheaf.rest.get((src, dst))
                if m is None or dst not in off_e:
                    continue
                if (m.nrows, m.ncols) != (sheaf.stalk_dims[dst], sheaf.stalk_dims[src]):
                    raise InvariantViolation(f"{kind} map {src} -> {dst} does not fit its stalks")
                upper, lower = (dst, src) if step > 0 else (src, dst)
                negate = incidence_number(S, upper, lower) < 0
                r0 = off_e[dst]
                for r, row in enumerate(m.nonzeros()):
                    out = rows[r0 + r]
                    for c, v in row.items():
                        out[c0 + c] = (-v % p if p else -v) if negate else v
        diff[d] = Matrix.sparse(F, rows, tot_d)
    labels = {d: info[d][0] for d in info}
    cx = GradedComplex(F, dims, diff, shift=step, labels=labels)
    cx.check_square_zero()
    return homology(cx)


def truncated_dims(profile: HomologyProfile) -> dict:
    """The truncated cohomology dimensions, read off the untruncated profile:
    without degree -1, H^0 becomes ker d^0 = H^0 + dim C^-1 - H^-1."""
    dims = {k: d for k, d in profile.dims.items() if k >= 0}
    dims[0] += profile.complex.dim(-1) - profile.dims.get(-1, 0)
    return dims


def tensor(A: CellularSheaf, B: CellularSheaf) -> CellularSheaf:
    """Stalkwise tensor product of two sheaves, or of two cosheaves, with
    Kronecker cover maps."""
    if A.poset is not B.poset and A.poset.vertex_sets != B.poset.vertex_sets:
        raise InvariantViolation("tensor of sheaves on different posets")
    if A.field != B.field:
        raise InvariantViolation("tensor of sheaves over different fields")
    if A._step != B._step:
        raise InvariantViolation("tensor of a sheaf with a cosheaf")
    dims = [a * b for a, b in zip(A.stalk_dims, B.stalk_dims)]
    rest = {(a, b): A._cover_matrix(a, b).kron(B._cover_matrix(a, b))
            for a, b in _covers(A.poset, A) if dims[a] and dims[b]}
    return type(A)(A.poset, A.field, dims, rest,
                   include_empty=A.include_empty and B.include_empty,
                   name=f"{A.name}(x){B.name}")


# ---------------------------------------------------------------------------
# the standard sheaves

class LocalHomologyData:
    """The homology of the star complex C(S, S minus st j) of every face j,
    ranked on first read (`dims(j)`, `profile(j)`): the local homology, and
    at the empty face the reduced homology of S.  Backs the structure
    sheaf.

    A star's dimensions are kept once it is ranked, but not the complex
    that ranked them.  Its profile, which holds the star's complex over
    the field and its representatives, is made on first request from the
    star mapped into the field again and the known dimensions, so no star
    is ranked twice.

    A cover j1 < j2 puts the star of j2 inside the star of j1, so the chain
    map behind each restriction keeps the coordinates of the generators of
    j2's star and drops the rest.
    """

    def __init__(self, S: SimplicialPoset, field):
        self.poset = S
        self.field = field
        self._dims = {}
        self._profiles = {}

    def dims(self, j) -> dict:
        """The homology dimensions of the star complex of j."""
        dims = self._dims.get(j)
        if dims is None:
            cx = cellular_chain_complex(self.poset, self.field, star=j)
            dims = self._dims[j] = homology(cx).dims
        return dims

    def profile(self, j) -> HomologyProfile:
        """The homology of the star complex of j, which it holds."""
        prof = self._profiles.get(j)
        if prof is None:
            cx = cellular_chain_complex(self.poset, self.field, star=j)
            prof = self._profiles[j] = HomologyProfile(cx, self.dims(j))
        return prof

    def restriction(self, j1, j2, i) -> Matrix:
        """Matrix of loc_i(j1 < j2) in the representative bases."""
        src, dst = self.profile(j1), self.profile(j2)
        position = {e: k for k, e in enumerate(src.complex.labels[i])}
        keep = [position[e] for e in dst.complex.labels[i]]
        cols = [dst.coords(i, [z[k] for k in keep]) for z in src.representatives(i)]
        return Matrix.from_columns(self.field, cols, dst.dims[i])

    def structure_sheaf(self) -> CellularSheaf:
        """The structure sheaf of a pure poset: top local homology, and at
        the empty face the top reduced homology of S.  Unchecked here: the
        job certifies it by the d∘d check of its untruncated complex."""
        S = self.poset
        top = S.n - 1
        dims = [self.dims(j).get(top, 0) for j in range(S.size)]
        rest = {(i, j): self.restriction(i, j, top)
                for i, j in _covers(S, CellularSheaf) if dims[i] and dims[j]}
        return CellularSheaf(S, self.field, dims, rest, include_empty=True, name="structure")


class ConstancyResult(NamedTuple):
    is_constant: bool
    orientation: dict | None     # element id -> unit scaling the stalk basis
    witness: str | None


def _require_sheaf(sheaf, what):
    """Refuse a cosheaf where the maps are read as running up."""
    if sheaf._step < 0:
        raise TypeError(f"{what} takes a sheaf, not the cosheaf {sheaf.name!r}")


def constancy_check(sheaf: CellularSheaf) -> ConstancyResult:
    """Try to trivialize a sheaf with one-dimensional stalks.

    Finds units o_I with o_I * a(I<J) = o_J over every cover; after
    rescaling the stalk bases by o the sheaf is the constant sheaf.  A
    failure returns the inconsistent cover or the offending stalk.
    """
    _require_sheaf(sheaf, "constancy_check")
    S = sheaf.poset
    F = sheaf.field
    for i in range(1, S.size):
        if sheaf.stalk_dims[i] != 1:
            return ConstancyResult(False, None,
                                   f"stalk at {i} has dimension {sheaf.stalk_dims[i]}")
    orient = {}
    for root in range(1, S.size):
        if root in orient:
            continue
        orient[root] = F.one
        queue = [root]
        while queue:
            cur = queue.pop()
            neighbors = [(cur, j) for j in S.covered_by[cur]] + \
                        [(i, cur) for i in S.covers[cur] if i != 0]
            for (i, j) in neighbors:
                a = sheaf._cover_matrix(i, j).rows[0][0]
                if not a:
                    return ConstancyResult(False, None,
                                           f"zero restriction on cover {i} < {j}")
                known_i = i in orient
                known_j = j in orient
                if known_i and known_j:
                    if F(orient[i] * a) != orient[j]:
                        return ConstancyResult(False, None,
                                               f"inconsistent cycle through cover {i} < {j}")
                elif known_i:
                    orient[j] = F(orient[i] * a)
                    queue.append(j)
                elif known_j:
                    orient[i] = F(orient[j] * F.inv(a))
                    queue.append(i)
    return ConstancyResult(True, orient, None)
