"""Exact linear algebra over the rationals.

Vectors are tuples of Fraction and matrices are immutable tuples of such
rows; the public functions take and return them dense.  Every elimination
goes through one fraction-free kernel, _reduce, which reads and writes
sparse rows: lists of nonzero (column, value) pairs in column order.
sparse_rows and dense_rows convert at the public boundary.  All results
are exact, and anything that returns a basis returns it in a canonical
form so that two equal subspaces compare equal entrywise.
"""

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm

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
    """Dense rational matrix, immutable; `cols` is needed only without rows."""

    def __init__(self, entries, cols=None):
        rows = tuple(tuple(_frac(v) for v in row) for row in entries)
        width = cols if cols is not None else len(rows[0]) if rows else 0
        for row in rows:
            if len(row) != width:
                raise ValueError("ragged rows")
        self.entries = rows
        self.rows = len(rows)
        self.cols = width

    @classmethod
    def zero(cls, rows, cols):
        return cls([[ZERO] * cols for _ in range(rows)], cols)

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
        return cls([[c[i] for c in cols] for i in range(rows)], len(cols))

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
                       for j in range(self.cols)], self.rows)

    def submatrix(self, row_range, col_range):
        return Matrix([[self.entries[i][j] for j in col_range] for i in row_range],
                      len(col_range))

    def flatten(self):
        """Row-major tuple of all entries."""
        return tuple(v for row in self.entries for v in row)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.cols == other.cols
                and self.entries == other.entries)

    def __hash__(self):
        return hash(self.entries)

    def __add__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return Matrix([[a + b for a, b in zip(ra, rb)]
                       for ra, rb in zip(self.entries, other.entries)], self.cols)

    def __sub__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return Matrix([[a - b for a, b in zip(ra, rb)]
                       for ra, rb in zip(self.entries, other.entries)], self.cols)

    def __neg__(self):
        return Matrix([[-v for v in row] for row in self.entries], self.cols)

    def scale(self, a):
        a = _frac(a)
        return Matrix([[a * v for v in row] for row in self.entries], self.cols)

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        bt = other.transpose().entries
        return Matrix([[sum((a * b for a, b in zip(row, col) if a and b), ZERO)
                        for col in bt] for row in self.entries], other.cols)

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


def _reduce(rows):
    """Canonical reduced row echelon form of sparse rows.

    Each row lists (column, value) pairs in column order; zero values are
    skipped.  Returns (the nonzero reduced rows in the same form, each
    starting with (its pivot, 1); ascending list of pivot columns).  Pivots
    are the leading columns of the row space, which fixes the canonical
    form used everywhere below.

    The elimination is fraction-free.  Each nonzero row becomes a dict
    {column: int}, scaled once by the lcm of its denominators and divided
    by its content (the gcd of its entries); a row equal to an earlier one
    up to a scalar is dropped.  The rest are reduced against the pivot rows
    found so far, smallest pivot column first, by integer row operations
    a*row - b*pivot_row; the result is divided by its content and, unless
    it is zero, kept as the pivot row of its smallest column.
    Back-substitution clears the other pivot columns the same way, and only
    the emitted rows are divided by their leading entries.
    """
    pivot_rows = {}
    seen = set()
    for row in rows:
        nz = [(j, v) for j, v in row if v]
        if not nz:
            continue
        scale = lcm(*[v.denominator for _, v in nz])
        ints = [v.numerator * (scale // v.denominator) for _, v in nz]
        g = gcd(*ints)
        if ints[0] < 0:
            g = -g
        key = tuple([(j, v // g) for (j, _), v in zip(nz, ints)])
        if key in seen:
            continue
        seen.add(key)
        r = dict(key)
        todo = [j for j in r if j in pivot_rows]
        heapify(todo)
        while todo:
            c = heappop(todo)
            b = r.get(c)
            if b is None:  # cancelled by an earlier row operation
                continue
            p = pivot_rows[c]
            for j in p:
                if j not in r and j in pivot_rows:
                    heappush(todo, j)
            _eliminate(r, p, c, b)
        if r:
            _divide_content(r)
            pivot_rows[min(r)] = r
    pivots = sorted(pivot_rows)
    reduced = []
    for c in reversed(pivots):
        r = pivot_rows[c]
        for j in [j for j in r if j != c and j in pivot_rows]:
            _eliminate(r, pivot_rows[j], j, r[j])
        _divide_content(r)
        lead = r[c]
        reduced.append([(j, Fraction(v, lead)) for j, v in sorted(r.items())])
    reduced.reverse()
    return reduced, pivots


def _eliminate(r, p, c, b):
    """r <- a*r - b'*p with r[c] cleared; a, b' are p[c], r[c] over their gcd."""
    a = p[c]
    g = gcd(a, b)
    a //= g
    b //= g
    if a != 1:
        for j in r:
            r[j] *= a
    for j, v in p.items():
        w = r.get(j, 0) - b * v
        if w:
            r[j] = w
        else:
            del r[j]


def _divide_content(r):
    g = gcd(*r.values())
    if g != 1:
        for j in r:
            r[j] //= g


def sparse_rows(rows):
    """Each dense row as the list of its nonzero (column, value) pairs."""
    return [[(j, v) for j, v in enumerate(row) if v is not ZERO and v] for row in rows]


def dense_rows(rows, cols):
    """Sparse rows as dense tuples; every zero entry is the shared ZERO,
    which sparse_rows skips by identity."""
    out = []
    for row in rows:
        vec = [ZERO] * cols
        for j, v in row:
            vec[j] = v
        out.append(tuple(vec))
    return tuple(out)


def rref(M):
    """Reduced row echelon form with the zero rows dropped.

    Returns (Matrix of nonzero reduced rows, tuple of pivot columns).
    """
    reduced, pivots = _reduce(sparse_rows(M.entries))
    return Matrix(dense_rows(reduced, M.cols), M.cols), tuple(pivots)


def rank(M):
    """Rank over the rationals."""
    return len(_reduce(sparse_rows(M.entries))[1])


def nullspace(M):
    """Canonical basis of the right kernel of M.

    Each basis vector sets exactly one free variable to 1 and the other
    free variables to 0; vectors are ordered by free column index.
    """
    reduced, pivots = _reduce(sparse_rows(M.entries))
    pivotset = set(pivots)
    kernel = {f: [(f, ONE)] for f in range(M.cols) if f not in pivotset}
    # past its pivot, a reduced row has entries only in free columns
    for row in reduced:
        p = row[0][0]
        for f, a in row[1:]:
            kernel[f].append((p, -a))
    return list(dense_rows(kernel.values(), M.cols))


def row_space_basis(vectors, cols):
    """Canonical (RREF) basis of the span of the given row vectors."""
    vectors = [tuple(map(_frac, row)) for row in vectors]
    if any(len(row) != cols for row in vectors):
        raise ValueError("vector length mismatch")
    return dense_rows(_reduce(sparse_rows(vectors))[0], cols)


def span_contains(basis, v):
    """Whether v is a rational combination of the given vectors.

    Returns (True, coefficients) or (False, None).  The coefficient vector
    is the canonical solution with all free coefficients set to 0; for a
    linearly independent basis it is the unique one.
    """
    v = tuple(map(_frac, v))
    cols = [tuple(map(_frac, b)) for b in basis]
    if any(len(b) != len(v) for b in cols):
        raise ValueError("dimension mismatch")
    k = len(cols)
    # the system has the basis vectors and v as its columns
    rows = [[] for _ in v]
    for j, col in enumerate(sparse_rows(cols + [v])):
        for i, a in col:
            rows[i].append((j, a))
    reduced, pivots = _reduce(rows)
    if k in pivots:
        return False, None
    # the coefficient at each pivot is the row's entry in the last column
    coeffs = [(row[0][0], row[-1][1]) for row in reduced if row[-1][0] == k]
    return True, dense_rows([coeffs], k)[0]


def pivot_coefficients(rows, v):
    """Coefficients of v over canonical RREF rows, as _reduce gives them,
    or None outside their span.  A row is 1 at its pivot (its first entry)
    and 0 at the other pivots, so the coefficients are v at the pivots, and
    v is in the span exactly when v minus that combination is zero."""
    coeffs = tuple(v[row[0][0]] or ZERO for row in rows)
    rest = {j: x for j, x in enumerate(v) if x}
    for c, row in zip(coeffs, rows):
        if c:
            for j, a in row:
                rest[j] = rest.get(j, ZERO) - c * a
    return None if any(rest.values()) else coeffs


def invert(M):
    """Inverse matrix; raises ValueError when M is singular."""
    if not M.is_square():
        raise ValueError("inverse of a non-square matrix")
    n = M.rows
    rows = [row + [(n + i, ONE)] for i, row in enumerate(sparse_rows(M.entries))]
    reduced, pivots = _reduce(rows)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    inverse = [[(j - n, v) for j, v in row[1:]] for row in reduced]
    return Matrix(dense_rows(inverse, n), n)


def nilpotent_jordan_blocks(M):
    """Jordan block sizes of a nilpotent matrix, descending.

    The number of blocks of size at least k is rank(M^(k-1)) - rank(M^k),
    where rank(M^k) = dim Im M^k and Im M^k = M(Im M^(k-1)).  Raises
    NotNilpotent when M^dim is nonzero, i.e. when an image stops shrinking.
    """
    if not M.is_square():
        raise ValueError("Jordan profile of a non-square matrix")
    n = M.rows
    ranks = [n]
    image = columns = sparse_rows(M.transpose().entries)
    while ranks[-1]:
        image, _ = _reduce(image)
        if len(image) == ranks[-1]:
            raise NotNilpotent("matrix power %d has rank %d" % (n, len(image)))
        ranks.append(len(image))
        # M v as the sum of v_j times column j of M
        products = []
        for v in image:
            w = {}
            for j, a in v:
                for i, b in columns[j]:
                    w[i] = w.get(i, ZERO) + a * b
            products.append(sorted(w.items()))
        image = products
    at_least = [ranks[k - 1] - ranks[k] for k in range(1, len(ranks))]
    blocks = []
    top = len(at_least)
    for k in range(top, 0, -1):
        exact = at_least[k - 1] - (at_least[k] if k < top else 0)
        blocks.extend([k] * exact)
    return tuple(blocks)
