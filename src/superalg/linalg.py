"""Exact linear algebra over the rationals.

Vectors are tuples of Fraction, matrices are dense and immutable.  All
results are computed exactly, and anything that returns a basis returns it
in a canonical form so that two equal subspaces compare equal entrywise.
"""

from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


class NotNilpotent(Exception):
    """Raised when an operation requires a nilpotent matrix or algebra."""


def _frac(v):
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        return Fraction(v)
    raise TypeError("expected an integer, string or Fraction, got %r" % (v,))


class Matrix:
    """Dense rational matrix; entries are immutable after construction."""

    def __init__(self, entries):
        rows = tuple(tuple(_frac(v) for v in row) for row in entries)
        width = len(rows[0]) if rows else 0
        for row in rows:
            if len(row) != width:
                raise ValueError("ragged rows")
        self.entries = rows
        self.rows = len(rows)
        self.cols = width

    @classmethod
    def zero(cls, rows, cols):
        return cls([[ZERO] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n):
        return cls([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, diag):
        diag = [_frac(v) for v in diag]
        n = len(diag)
        return cls([[diag[i] if i == j else ZERO for j in range(n)] for i in range(n)])

    @classmethod
    def from_columns(cls, columns, rows):
        cols = [tuple(_frac(v) for v in c) for c in columns]
        for c in cols:
            if len(c) != rows:
                raise ValueError("column length mismatch")
        return cls([[c[i] for c in cols] for i in range(rows)])

    def entry(self, i, j):
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError("entry (%d, %d) outside a %dx%d matrix"
                             % (i, j, self.rows, self.cols))
        return self.entries[i][j]

    def row(self, i):
        if not 0 <= i < self.rows:
            raise IndexError("row %d outside a %dx%d matrix" % (i, self.rows, self.cols))
        return self.entries[i]

    def column(self, j):
        if not 0 <= j < self.cols:
            raise IndexError("column %d outside a %dx%d matrix" % (j, self.rows, self.cols))
        return tuple(r[j] for r in self.entries)

    def is_zero(self):
        return all(not v for row in self.entries for v in row)

    def is_square(self):
        return self.rows == self.cols

    def transpose(self):
        return Matrix([[self.entries[i][j] for i in range(self.rows)]
                       for j in range(self.cols)])

    def submatrix(self, row_range, col_range):
        return Matrix([[self.entries[i][j] for j in col_range] for i in row_range])

    def flatten(self):
        """Row-major tuple of all entries."""
        return tuple(v for row in self.entries for v in row)

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __add__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return Matrix([[a + b for a, b in zip(ra, rb)]
                       for ra, rb in zip(self.entries, other.entries)])

    def __sub__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return Matrix([[a - b for a, b in zip(ra, rb)]
                       for ra, rb in zip(self.entries, other.entries)])

    def __neg__(self):
        return Matrix([[-v for v in row] for row in self.entries])

    def scale(self, a):
        a = _frac(a)
        return Matrix([[a * v for v in row] for row in self.entries])

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        bt = other.transpose().entries
        return Matrix([[sum((a * b for a, b in zip(row, col) if a and b), ZERO)
                        for col in bt] for row in self.entries])

    def apply(self, vec):
        """Matrix-vector product; vec is a coordinate sequence."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        vec = [_frac(v) for v in vec]
        return tuple(sum((a * b for a, b in zip(row, vec) if a and b), ZERO)
                     for row in self.entries)

    def __repr__(self):
        return "Matrix(%r)" % (
            [[str(v) for v in row] for row in self.entries],)


def _reduce(rows, cols):
    """Reduced row echelon form of a list of row lists, in place.

    Returns (reduced nonzero rows, pivot column list).  Pivots are chosen
    left to right, which fixes the canonical form used everywhere below.
    """
    work = [list(r) for r in rows if any(r)]
    pivots = []
    r = 0
    for c in range(cols):
        pivot = None
        for i in range(r, len(work)):
            if work[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        lead = work[r][c]
        if lead != 1:
            work[r] = [v / lead for v in work[r]]
        prow = work[r]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c]
                ri = work[i]
                for j in range(c, cols):
                    if prow[j]:
                        ri[j] -= f * prow[j]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return [tuple(row) for row in work[:r]], pivots


def rref(M):
    """Reduced row echelon form with the zero rows dropped.

    Returns (Matrix of nonzero reduced rows, tuple of pivot columns).
    """
    reduced, pivots = _reduce(M.entries, M.cols)
    return Matrix(reduced) if reduced else Matrix.zero(0, M.cols), tuple(pivots)


def rank(M):
    """Rank over the rationals."""
    _, pivots = _reduce(M.entries, M.cols)
    return len(pivots)


def nullspace(M):
    """Canonical basis of the right kernel of M.

    Each basis vector sets exactly one free variable to 1 and the other
    free variables to 0; vectors are ordered by free column index.
    """
    reduced, pivots = _reduce(M.entries, M.cols)
    pivotset = set(pivots)
    basis = []
    for f in range(M.cols):
        if f in pivotset:
            continue
        v = [ZERO] * M.cols
        v[f] = ONE
        for r, p in enumerate(pivots):
            v[p] = -reduced[r][f]
        basis.append(tuple(v))
    return basis


def row_space_basis(vectors, cols):
    """Canonical (RREF) basis of the span of the given row vectors."""
    vectors = [tuple(_frac(v) for v in row) for row in vectors]
    for row in vectors:
        if len(row) != cols:
            raise ValueError("vector length mismatch")
    reduced, _ = _reduce(vectors, cols)
    return tuple(reduced)


def span_contains(basis, v):
    """Whether v is a rational combination of the given vectors.

    Returns (True, coefficients) or (False, None).  The coefficient vector
    is the canonical solution with all free coefficients set to 0; for a
    linearly independent basis it is the unique one.
    """
    v = tuple(_frac(x) for x in v)
    n = len(v)
    cols = []
    for b in basis:
        b = tuple(_frac(x) for x in b)
        if len(b) != n:
            raise ValueError("dimension mismatch")
        cols.append(b)
    k = len(cols)
    rows = [[cols[j][i] for j in range(k)] + [v[i]] for i in range(n)]
    reduced, pivots = _reduce(rows, k + 1)
    if k in pivots:
        return False, None
    coeffs = [ZERO] * k
    for r, p in enumerate(pivots):
        coeffs[p] = reduced[r][k]
    return True, tuple(coeffs)


def invert(M):
    """Inverse matrix; raises ValueError when M is singular."""
    if not M.is_square():
        raise ValueError("inverse of a non-square matrix")
    n = M.rows
    rows = [list(M.entries[i]) + [ONE if i == j else ZERO for j in range(n)]
            for i in range(n)]
    reduced, pivots = _reduce(rows, 2 * n)
    if list(pivots) != list(range(n)):
        raise ValueError("matrix is singular")
    return Matrix([row[n:] for row in reduced])


def nilpotent_jordan_blocks(M):
    """Jordan block sizes of a nilpotent matrix, descending.

    The number of blocks of size at least k is rank(M^(k-1)) - rank(M^k).
    Raises NotNilpotent when M^dim is nonzero.
    """
    if not M.is_square():
        raise ValueError("Jordan profile of a non-square matrix")
    n = M.rows
    if n == 0:
        return ()
    ranks = [n]
    power = Matrix.identity(n)
    for k in range(1, n + 1):
        power = power * M
        r = rank(power)
        ranks.append(r)
        if r == 0:
            break
    if ranks[-1] != 0:
        raise NotNilpotent("matrix power %d has rank %d" % (n, ranks[-1]))
    at_least = [ranks[k - 1] - ranks[k] for k in range(1, len(ranks))]
    blocks = []
    top = len(at_least)
    for k in range(top, 0, -1):
        exact = at_least[k - 1] - (at_least[k] if k < top else 0)
        blocks.extend([k] * exact)
    return tuple(blocks)
