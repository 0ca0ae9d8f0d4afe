"""Exact dense linear algebra over a field, plus Smith normal form over Z.

Everything downstream (homology, sheaf cohomology, spectral pages, relation
ranks) reduces to the operations here: row reduction with exact pivots,
kernel/image bases, coordinates in an echelonized span, and integer Smith
invariants.  Matrices are dense lists of rows; pivoting is first-nonzero so
all derived bases are deterministic functions of the input ordering.

The kernels read the field once per call (`p = field.char`) and then run
plain operators: `% p` on ints over F_p, `int`/`Fraction` operators over Q
(p = 0), where an integral element is an int (see `torushom.field`), so
integral matrices stay in int arithmetic until a pivot other than ±1 is
inverted.  Division goes only through `field.inv`: `/` on two ints is a
float.  A row update touches only the nonzero support of the row it
subtracts.  Over F_p the working copies are reduced into [0, p) first, so
a zero test is a truth test even on entries given as p, -1 or 2p + 1.
"""
from __future__ import annotations


def _eliminate(v, c, w, support, p):
    """v -= c * w on the support of w, over F_p (p > 0) or Q (p = 0)."""
    if p:
        for j in support:
            v[j] = (v[j] - c * w[j]) % p
    else:
        for j in support:
            v[j] -= c * w[j]


def _scale(v, support, inv, p):
    """v *= inv on the support of v."""
    if p:
        for j in support:
            v[j] = v[j] * inv % p
    else:
        for j in support:
            v[j] *= inv


def _reduced(row, p):
    """A working copy of row, with entries in [0, p) over F_p."""
    return [a % p for a in row] if p else list(row)


class Matrix:
    """Dense matrix over a field object (see torushom.field)."""

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field, rows, ncols=None):
        self.field = field
        self.rows = [list(r) for r in rows]
        self.nrows = len(self.rows)
        if self.nrows:
            self.ncols = len(self.rows[0])
            if any(len(r) != self.ncols for r in self.rows):
                raise ValueError("ragged rows")
            if ncols is not None and ncols != self.ncols:
                raise ValueError("ncols mismatch")
        else:
            if ncols is None:
                raise ValueError("empty matrix needs explicit ncols")
            self.ncols = ncols

    @classmethod
    def _adopt(cls, field, rows, ncols):
        """A matrix that takes ownership of `rows`, fresh lists of equal
        length `ncols`, without copying or checking them."""
        m = cls.__new__(cls)
        m.field, m.rows, m.nrows, m.ncols = field, rows, len(rows), ncols
        return m

    @classmethod
    def from_int_rows(cls, field, rows, ncols=None):
        p = field.char
        return cls(field, [[v % p for v in r] for r in rows] if p else rows, ncols)

    @classmethod
    def zero(cls, field, nrows, ncols):
        z = field.zero
        return cls._adopt(field, [[z] * ncols for _ in range(nrows)], ncols)

    @classmethod
    def identity(cls, field, n):
        z, o = field.zero, field.one
        return cls(field, [[o if i == j else z for j in range(n)] for i in range(n)], n)

    @classmethod
    def from_columns(cls, field, cols, nrows):
        if any(len(c) != nrows for c in cols):
            raise ValueError("column length mismatch")
        if not cols:
            return cls.zero(field, nrows, 0)
        return cls._adopt(field, [list(r) for r in zip(*cols)], len(cols))

    def column(self, j):
        return [r[j] for r in self.rows]

    def nonzeros(self):
        """The nonzero entries of each row, as (column, entry) pairs."""
        return [[(j, a) for j, a in enumerate(r) if a] for r in self.rows]

    def mul(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in mul")
        F, n = self.field, other.ncols
        out = []
        for entries in product_nonzeros(self.nonzeros(), other.nonzeros(), F.char):
            row = [F.zero] * n
            for j, v in entries.items():
                row[j] = v
            out.append(row)
        return Matrix._adopt(F, out, n)

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product, row-major block layout."""
        F = self.field
        p, w = F.char, other.ncols
        out = Matrix.zero(F, self.nrows * other.nrows, self.ncols * w)
        for i, ri in enumerate(self.rows):
            for j, a in enumerate(ri):
                if not a:
                    continue
                for k, rk in enumerate(other.rows):
                    out.rows[i * other.nrows + k][j * w:(j + 1) * w] = \
                        [a * b % p for b in rk] if p else [a * b for b in rk]
        return out

    def _echelon(self, full):
        """First-nonzero pivoting on a working copy; returns (rows, pivots).

        With `full` each pivot column is cleared in every other row and the
        rows come back in reduced row echelon form; otherwise only the rows
        below the pivot are cleared (forward elimination), which finds the
        same pivot columns with less work.
        """
        F = self.field
        p, nrows, ncols = F.char, self.nrows, self.ncols
        m = [_reduced(r, p) for r in self.rows]
        pivots = []
        pr = 0
        for pc in range(ncols):
            if pr == nrows:
                break
            pivot_row = next((i for i in range(pr, nrows) if m[i][pc]), None)
            if pivot_row is None:
                continue
            row = m[pivot_row]
            m[pr], m[pivot_row] = row, m[pr]
            support = [j for j in range(pc, ncols) if row[j]]
            if row[pc] != 1:
                _scale(row, support, F.inv(row[pc]), p)
            for i in range(0 if full else pr + 1, nrows):
                c = m[i][pc]
                if c and i != pr:
                    _eliminate(m[i], c, row, support, p)
            pivots.append(pc)
            pr += 1
        return m, pivots

    def rref(self):
        """Reduced row echelon form.  Returns (rref matrix, pivot column list)."""
        m, pivots = self._echelon(full=True)
        return Matrix._adopt(self.field, m, self.ncols), pivots

    def rank(self):
        """Rank by forward elimination."""
        return len(self._echelon(full=False)[1])

    def kernel_basis(self):
        """Basis of the right kernel, one vector per free column."""
        F = self.field
        p = F.char
        R, pivots = self.rref()
        pivset = set(pivots)
        free = [j for j in range(self.ncols) if j not in pivset]
        basis = []
        for fj in free:
            v = [F.zero] * self.ncols
            v[fj] = F.one
            for r, pc in enumerate(pivots):
                a = R.rows[r][fj]
                v[pc] = -a % p if p else -a
            basis.append(v)
        return basis


def product_nonzeros(left, right, p):
    """The nonzero entries of each row of a product, as {column: entry},
    from the `nonzeros` of its two factors; over F_p the entries are
    reduced into [0, p), so equal matrices give equal rows.  The caller
    checks that the factors compose: `right` has one row per column of
    the left factor."""
    out = []
    for row in left:
        acc = {}
        for k, a in row:
            for j, b in right[k]:
                acc[j] = acc.get(j, 0) + a * b
        if p:
            acc = {j: v % p for j, v in acc.items()}
        out.append({j: v for j, v in acc.items() if v})
    return out


class IncrementalSpan:
    """Growing echelonized span of column vectors, and the one reader of
    coordinates: over the vectors that enlarged it (`coords`) and modulo it
    (`quotient_coords`).

    Each stored vector keeps its nonzero support, which is all that a
    reduction by it touches, and the combination of the enlarging inputs
    that it equals.  A reduction carries those combinations along when it
    is given a vector extended past the ambient dimension, one entry per
    enlarging input; `add` and `coords` pass such vectors.
    """

    def __init__(self, field, ambient_dim):
        self.field = field
        self.ambient_dim = ambient_dim
        self.pivots = []       # pivot row index per stored vector
        self._rows = []        # echelonized vector, pivot entry 1, then its combination
        self._supports = []    # nonzero positions of the vector part
        self._tracked = []     # nonzero positions of the whole row

    @property
    def dim(self):
        return len(self._rows)

    @property
    def vectors(self):
        """The echelonized vectors, in the order they were stored."""
        return [row[:self.ambient_dim] for row in self._rows]

    def reduce(self, vec):
        """vec minus its components along the stored vectors: zero at every
        pivot.  Entries past the ambient dimension follow the combinations."""
        p = self.field.char
        v = _reduced(vec, p)
        supports = self._supports if len(v) == self.ambient_dim else self._tracked
        for piv, w, support in zip(self.pivots, self._rows, supports):
            c = v[piv]
            if c:
                _eliminate(v, c, w, support, p)
        return v

    def add(self, vec) -> bool:
        """Insert vec; returns True when it enlarges the span."""
        F, amb = self.field, self.ambient_dim
        v = self.reduce(list(vec) + [F.zero] * self.dim + [F.one])
        support = [j for j, a in enumerate(v) if a]     # its last entry stays 1
        if support[0] >= amb:
            return False
        piv = support[0]
        if v[piv] != 1:
            _scale(v, support, F.inv(v[piv]), F.char)
        self.pivots.append(piv)
        self._rows.append(v)
        self._supports.append([j for j in support if j < amb])
        self._tracked.append(support)
        return True

    def coords(self, vec):
        """Coefficients of vec over the vectors that enlarged the span, in
        the order they were added, or None when vec lies outside the span."""
        F, amb = self.field, self.ambient_dim
        v = self.reduce(list(vec) + [F.zero] * self.dim)
        if any(v[:amb]):
            return None
        p = F.char
        return [-a % p if p else -a for a in v[amb:]]

    def free_columns(self):
        """The positions that are no pivot: a basis of the quotient."""
        pivots = set(self.pivots)
        return [c for c in range(self.ambient_dim) if c not in pivots]

    def quotient_coords(self, vec):
        """Coordinates of vec modulo the span, over `free_columns`."""
        red = self.reduce(vec)
        return [red[c] for c in self.free_columns()]


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
