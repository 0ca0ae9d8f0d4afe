"""Exact sparse linear algebra over a field, plus Smith normal form over Z.

Everything downstream (homology, sheaf cohomology, spectral pages, relation
ranks) reduces to the operations here: row reduction with exact pivots,
kernel/image bases, coordinates in an echelonized span, and integer Smith
invariants.  A matrix is stored as sparse rows, one `{column: entry}` dict
per row holding only its nonzero entries; `Matrix.rows` is a dense view
for tests and small readers.  Elimination runs on the supports of the
rows, and its results (the reduced row echelon form, its pivot columns and
the kernel basis read off it) are unique, so all derived bases are
deterministic functions of the input ordering.

The kernels read the field once per call (`p = field.char`) and then run
plain operators: `% p` on ints over F_p, `int`/`Fraction` operators over Q
(p = 0), where an integral element is an int (see `torushom.field`), so
integral matrices stay in int arithmetic until a pivot other than ±1 is
inverted.  Division goes only through `field.inv`: `/` on two ints is a
float.  A matrix built from dense rows reads its entries into the field
first (over F_p into [0, p)), so an entry is stored exactly when it is
nonzero, even when given as p, -1 or 2p + 1.  `IncrementalSpan` stores
the same sparse rows and reduces them with the same row subtraction and
pivot normalisation as `Matrix`; only its inputs and outputs are dense.
"""
from __future__ import annotations

from .errors import InvariantViolation


def _nonzeros(row, p):
    """The nonzero entries of a dense row as `{column: entry}`, read into
    the field first over F_p."""
    if p:
        return {j: r for j, a in enumerate(row) if (r := a % p)}
    return {j: a for j, a in enumerate(row) if a}


def _subtract(v, c, w, p):
    """v -= c * w on sparse rows, keeping no zero entry in v."""
    for j, b in w.items():
        a = v.get(j, 0) - c * b
        if p:
            a %= p
        if a:
            v[j] = a
        else:
            del v[j]


def _normalized(v, c, F):
    """v scaled so that its entry at column c is 1."""
    a = v[c]
    if a == 1:
        return v
    inv, p = F.inv(a), F.char
    return {j: b * inv % p for j, b in v.items()} if p else {j: b * inv for j, b in v.items()}


class Matrix:
    """Sparse matrix over a field object (see torushom.field): one dict of
    nonzero entries per row.  Matrices are not changed once built, so two
    of them may share a row."""

    __slots__ = ("field", "nrows", "ncols", "_rows")

    def __init__(self, field, rows, ncols=None):
        """From dense rows of field elements; over F_p any ints will do."""
        rows = [list(r) for r in rows]
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise InvariantViolation("ragged rows")
            if ncols is not None and ncols != width:
                raise InvariantViolation("ncols mismatch")
            ncols = width
        elif ncols is None:
            raise InvariantViolation("empty matrix needs explicit ncols")
        rows = [_nonzeros(r, field.char) for r in rows]
        self.field, self._rows, self.nrows, self.ncols = field, rows, len(rows), ncols

    @classmethod
    def sparse(cls, field, rows, ncols):
        """A matrix that takes ownership of `rows`, `{column: entry}` dicts
        of nonzero field elements, without copying or checking them."""
        m = cls.__new__(cls)
        m.field, m._rows, m.nrows, m.ncols = field, rows, len(rows), ncols
        return m

    @classmethod
    def zero(cls, field, nrows, ncols):
        return cls.sparse(field, [{} for _ in range(nrows)], ncols)

    @classmethod
    def identity(cls, field, n):
        return cls.sparse(field, [{i: field.one} for i in range(n)], n)

    @classmethod
    def from_columns(cls, field, cols, nrows):
        """The matrix with the given dense columns of field elements."""
        rows = [{} for _ in range(nrows)]
        for j, col in enumerate(cols):
            if len(col) != nrows:
                raise InvariantViolation("column length mismatch")
            for i, a in enumerate(col):
                if a:
                    rows[i][j] = a
        return cls.sparse(field, rows, len(cols))

    def in_field(self, field):
        """This matrix of ints with its entries read into `field`; over Q
        the rows are shared."""
        p = field.char
        if not p:
            return Matrix.sparse(field, self._rows, self.ncols)
        rows = [{j: a % p for j, a in r.items() if a % p} for r in self._rows]
        return Matrix.sparse(field, rows, self.ncols)

    @property
    def rows(self):
        """A dense copy of the rows."""
        z, n = self.field.zero, self.ncols
        out = []
        for r in self._rows:
            row = [z] * n
            for j, a in r.items():
                row[j] = a
            out.append(row)
        return out

    def column(self, j):
        z = self.field.zero
        return [r.get(j, z) for r in self._rows]

    def nonzeros(self):
        """The nonzero entries of each row, as `{column: entry}`; read-only."""
        return self._rows

    def mul(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise InvariantViolation("shape mismatch in mul")
        return Matrix.sparse(self.field,
                             product_nonzeros(self._rows, other._rows, self.field.char),
                             other.ncols)

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product, row-major block layout."""
        p, w = self.field.char, other.ncols
        out = []
        for ri in self._rows:
            for rk in other._rows:
                row = {}
                for j, a in ri.items():
                    base = j * w
                    for k, b in rk.items():
                        row[base + k] = a * b % p if p else a * b
                out.append(row)
        return Matrix.sparse(self.field, out, self.ncols * w)

    def _echelon(self):
        """Forward elimination, one row at a time, on working copies.

        Returns {pivot column: row}: each row has entry 1 at its pivot
        column and no entry to the left of it.  A row is reduced by the
        stored row of its first column until that column has none.
        """
        F = self.field
        p = F.char
        table = {}
        for r in self._rows:
            v = dict(r)
            while v:
                c = min(v)
                w = table.get(c)
                if w is None:
                    table[c] = _normalized(v, c, F)
                    break
                _subtract(v, v[c], w, p)
        return table

    def rref(self):
        """Reduced row echelon form.  Returns (rref matrix, pivot column list)."""
        table = self._echelon()
        p = self.field.char
        pivots = sorted(table)
        # back substitution: the rows of later pivots are already reduced,
        # and subtracting one brings in no other pivot column
        for c in reversed(pivots):
            v = table[c]
            for d in [d for d in v if d != c and d in table]:
                _subtract(v, v[d], table[d], p)
        rows = [table[c] for c in pivots] + [{} for _ in range(self.nrows - len(pivots))]
        return Matrix.sparse(self.field, rows, self.ncols), pivots

    def rank(self):
        """Rank by forward elimination."""
        return len(self._echelon())

    def kernel_basis(self):
        """Basis of the right kernel, one vector per free column."""
        F = self.field
        p = F.char
        R, pivots = self.rref()
        pivset = set(pivots)
        basis = {}
        for fj in range(self.ncols):
            if fj not in pivset:
                v = basis[fj] = [F.zero] * self.ncols
                v[fj] = F.one
        for pc, row in zip(pivots, R._rows):
            for j, a in row.items():
                if j != pc:
                    basis[j][pc] = -a % p if p else -a
        return list(basis.values())


def product_nonzeros(left, right, p):
    """The nonzero entries of each row of a product, as {column: entry},
    from the `nonzeros` of its two factors; over F_p the entries are
    reduced into [0, p), so equal matrices give equal rows.  The caller
    checks that the factors compose: `right` has one row per column of
    the left factor."""
    out = []
    for row in left:
        acc = {}
        for k, a in row.items():
            for j, b in right[k].items():
                acc[j] = acc.get(j, 0) + a * b
        out.append({j: r for j, v in acc.items() if (r := v % p)} if p else
                   {j: v for j, v in acc.items() if v})
    return out


class IncrementalSpan:
    """Growing echelonized span of column vectors, and the one reader of
    coordinates over the vectors that enlarged it (`coords`).

    Each stored vector is a sparse row, `{column: entry}` as in `Matrix`,
    with entry 1 at its pivot and zero at the pivots stored before it.
    Past the ambient dimension the row holds the combination of the
    enlarging inputs that the vector equals, the k-th input at column
    `ambient_dim + k`.  A reduction subtracts whole rows in the order they
    were stored, so a vector extended past the ambient dimension carries
    those combinations along; `add` and `coords` reduce such vectors.  The
    vectors, and so every result, are unique for a given insertion order.
    Vectors go in and come out dense.
    """

    def __init__(self, field, ambient_dim):
        self.field = field
        self.ambient_dim = ambient_dim
        self.pivots = []       # pivot column per stored vector
        self._rows = []        # stored vector and its combination, as {column: entry}

    @property
    def dim(self):
        return len(self._rows)

    def _reduce(self, v):
        """Reduce the sparse row v in place by the stored rows; returns v."""
        p = self.field.char
        for piv, w in zip(self.pivots, self._rows):
            c = v.get(piv)
            if c:
                _subtract(v, c, w, p)
        return v

    def reduce(self, vec):
        """vec minus its components along the stored vectors: zero at every
        pivot.  Entries past the ambient dimension follow the combinations."""
        v = self._reduce(_nonzeros(vec, self.field.char))
        z = self.field.zero
        return [v.get(j, z) for j in range(len(vec))]

    def add(self, vec) -> bool:
        """Insert vec; returns True when it enlarges the span."""
        F, amb = self.field, self.ambient_dim
        v = _nonzeros(vec, F.char)
        v[amb + self.dim] = F.one       # no stored row reaches this column
        v = self._reduce(v)
        piv = min(v)
        if piv >= amb:
            return False
        self.pivots.append(piv)
        self._rows.append(_normalized(v, piv, F))
        return True

    def coords(self, vec):
        """Coefficients of vec over the vectors that enlarged the span, in
        the order they were added, or None when vec lies outside the span."""
        F, amb = self.field, self.ambient_dim
        v = self._reduce(_nonzeros(vec, F.char))
        if min(v, default=amb) < amb:
            return None
        p, z = F.char, F.zero
        x = [z] * self.dim
        for j, a in v.items():
            x[j - amb] = -a % p if p else -a
        return x


def smith_invariants(rows) -> list:
    """Invariant factors d_1 | d_2 | ... of an integer matrix.

    Returns min(nrows, ncols) nonnegative integers satisfying the
    divisibility chain; trailing zeros pad up to min(nrows, ncols) when the
    rank is smaller.
    """
    A = [[int(v) for v in r] for r in rows]
    m = len(A)
    n = len(A[0]) if m else 0
    if m == 0 or n == 0:
        return []
    invariants = []
    t = 0
    while t < m and t < n:
        # move a nonzero entry (smallest magnitude) to the corner
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                if A[i][j] != 0 and (pivot is None or abs(A[i][j]) < abs(A[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        A[t], A[pivot[0]] = A[pivot[0]], A[t]
        for row in A:
            row[t], row[pivot[1]] = row[pivot[1]], row[t]
        while True:
            # Euclidean clearing of column t; a swap strictly shrinks the pivot
            for i in range(t + 1, m):
                while A[i][t] != 0:
                    q = A[i][t] // A[t][t]
                    A[i] = [a - q * b for a, b in zip(A[i], A[t])]
                    if A[i][t] != 0:
                        A[t], A[i] = A[i], A[t]
            # Euclidean clearing of row t; only column j is modified, so a
            # swap-free pass leaves column t clear
            for j in range(t + 1, n):
                while A[t][j] != 0:
                    q = A[t][j] // A[t][t]
                    for i in range(m):
                        A[i][j] -= q * A[i][t]
                    if A[t][j] != 0:
                        for i in range(m):
                            A[i][t], A[i][j] = A[i][j], A[i][t]
            if any(A[i][t] != 0 for i in range(t + 1, m)):
                continue
            # pivot must divide the remaining block
            p = A[t][t]
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if A[i][j] % p != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            A[t] = [a + b for a, b in zip(A[t], A[offender])]
        invariants.append(abs(A[t][t]))
        t += 1
    invariants += [0] * (min(m, n) - len(invariants))
    return invariants
