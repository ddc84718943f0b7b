"""Exact linear algebra over the rationals.

Vectors are tuples of Fraction and matrices are immutable tuples of such
rows; the public functions take and return them dense.  Inside, rows are
sparse: lists of nonzero (column, value) pairs in column order, which
sparse_rows and dense_rows convert at the public boundary.  Row spaces go
through one fraction-free elimination, _reduce, whose rows are integers
(_monic divides them by their leads); kernels go through _kernel, which
tracks the solution space and reads its canonical basis off with one
_reduce call.  Both take rows in any column order, with int or Fraction
values.  All results are exact, and a basis always comes in a canonical
form, so that two equal subspaces compare equal entrywise.
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
    """Dense rational matrix, immutable; `cols` is needed only without rows.

    The dense boundary: `core.multiplication_matrix` and the dense
    functions of this module."""

    def __init__(self, entries, cols=None):
        rows = tuple(tuple(_frac(v) for v in row) for row in entries)
        width = cols if cols is not None else len(rows[0]) if rows else 0
        for row in rows:
            if len(row) != width:
                raise ValueError("ragged rows")
        self.entries = rows
        self.rows = len(rows)
        self.cols = width

    def is_square(self):
        return self.rows == self.cols

    def transpose(self):
        return Matrix([[self.entries[i][j] for i in range(self.rows)]
                       for j in range(self.cols)], self.rows)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.cols == other.cols
                and self.entries == other.entries)

    def __repr__(self):
        return "Matrix(%r)" % (
            [[str(v) for v in row] for row in self.entries],)


def _reduce(rows):
    """Canonical reduced row echelon form of sparse rows, in integers.

    Each row is a sized iterable of (column, value) pairs (a dict's items
    will do) in any column order, with int or Fraction values; zero values
    are skipped.  Returns (the nonzero reduced rows as lists of pairs in
    column order, ascending list of pivot columns).  Each emitted row is
    the RREF row times the lcm of its denominators, divided by its content:
    primitive integers with a positive leading entry, at its pivot.  This
    form is unique, like the monic one (_monic converts).  Pivots are the
    leading columns of the row space, which fixes the canonical form used
    everywhere below.

    The elimination is fraction-free.  Rows are taken shortest first, the
    fill-reducing order (Markowitz 1957); the reduced row echelon form of a
    row space is unique, so the order changes the work, never the output.
    Each nonzero row becomes a dict {column: int}; only a row holding a
    Fraction is scaled, by the lcm of its denominators.  It is reduced
    against the pivot rows found so far, smallest pivot column first, by
    integer row operations a*row - b*pivot_row; unless the result is zero
    (a repeated or dependent row), it is divided by its content (the gcd
    of its entries), given a positive lead and kept as the pivot row of
    its smallest column.  Back-substitution clears the other pivot columns
    the same way, in the rows that hold any; the rest are emitted as kept.
    """
    pivot_rows = {}
    for row in sorted(rows, key=len):
        r = {j: v for j, v in row if v}
        if Fraction in map(type, r.values()):
            r = dict(_integer_row(r.items()))
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
            _eliminate(r, p.items(), p[c], b)
        if r:
            c = min(r)
            _divide_content(r, r[c] < 0)
            pivot_rows[c] = r
    pivots = sorted(pivot_rows)
    reduced = []
    for c in reversed(pivots):
        r = pivot_rows[c]
        others = [j for j in r if j != c and j in pivot_rows]
        for j in others:  # each p has a positive lead, so r[c] stays positive
            p = pivot_rows[j]
            _eliminate(r, p.items(), p[j], r[j])
        if others:
            _divide_content(r)
        reduced.append(sorted(r.items()))
    reduced.reverse()
    return reduced, pivots


def _integer_row(row):
    """The nonzero (column, value) pairs times the lcm of their denominators."""
    nz = [(j, v) for j, v in row if v]
    d = lcm(*[v.denominator for _, v in nz])
    return [(j, v.numerator * (d // v.denominator)) for j, v in nz]


def _monic(row):
    """A canonical integer row divided by its leading entry, as Fractions."""
    lead = row[0][1]
    return [(j, Fraction(v, lead)) for j, v in row]


def _eliminate(r, p, a, b):
    """r <- a'*r - b'*p in place, a', b' being a, b over their gcd; p is pairs."""
    g = gcd(a, b)
    a //= g
    b //= g
    if a != 1:
        for j in r:
            r[j] *= a
    for j, v in p:
        w = r.get(j, 0) - b * v
        if w:
            r[j] = w
        else:
            del r[j]


def _divide_content(r, negate=False):
    """r over the gcd of its values, in place; negated too when `negate`."""
    g = gcd(*r.values())
    if negate:
        g = -g
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


def rank(M):
    """Rank over the rationals."""
    return len(_reduce(sparse_rows(M.entries))[1])


def _kernel(rows, cols):
    """Canonical kernel basis of sparse rows over `cols` unknowns.

    A row is a sized iterable of (column, value) pairs (a dict's items
    will do) in any column order, with int or Fraction values.  Each basis
    vector is 1 at one free column and 0 at the others; the vectors come in
    free-column order, each a list of its nonzero pairs, free column first.

    The kernel tracks the solution space: one integer unit vector
    {column: 1} per unknown to begin with, and `at` lists the vectors
    nonzero in each column.  A row, shortest first, is dotted with the
    vectors it touches and skipped when all values vanish; otherwise the
    sparsest vector v0 with a nonzero value s0 is dropped, and each other
    touched vector v, of value s, becomes s0*v - s*v0 over its content.
    The vectors' RREF over reversed columns is the canonical basis, its
    pivots being the free columns of the rows' RREF (matroid duality;
    Oxley, Matroid Theory, 2011, section 2.1).
    """
    vecs = {f: {f: 1} for f in range(cols)}
    at = [{f} for f in range(cols)]
    for row in sorted(rows, key=len):
        if not vecs:  # nullity 0: no row can change the answer
            break
        dots = []
        for i in set().union(*[at[c] for c, _ in row]):
            v = vecs[i]
            s = sum([a * v[c] for c, a in row if c in v])
            if s:
                dots.append((len(v), i, s))
        if not dots:
            continue
        # a Fraction row gives Fraction values; scale them to integers
        d = lcm(*[s.denominator for _, _, s in dots])
        dots = [(n, i, s.numerator * (d // s.denominator)) for n, i, s in dots]
        _, i0, s0 = min(dots)
        v0 = vecs.pop(i0)
        for c in v0:
            at[c].discard(i0)
        for _, i, s in dots:
            if i != i0:
                v = vecs[i]
                _eliminate(v, v0.items(), s0, s)
                _divide_content(v)
                for c in v0:  # only v0's columns changed in v
                    (at[c].add if c in v else at[c].discard)(i)
    last = cols - 1
    reduced, _ = _reduce([[(last - c, x) for c, x in v.items()] for v in vecs.values()])
    return [[(last - c, x) for c, x in _monic(row[:1] + row[:0:-1])] for row in reversed(reduced)]


def nullspace(M):
    """Canonical basis of the right kernel of M, as dense tuples (see _kernel)."""
    return list(dense_rows(_kernel(sparse_rows(M.entries), M.cols), M.cols))


def row_space_basis(vectors, cols):
    """Canonical (RREF) basis of the span of the given row vectors."""
    vectors = [tuple(map(_frac, row)) for row in vectors]
    if any(len(row) != cols for row in vectors):
        raise ValueError("vector length mismatch")
    return dense_rows(map(_monic, _reduce(sparse_rows(vectors))[0]), cols)


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
    coeffs = [(r[0][0], Fraction(r[-1][1], r[0][1])) for r in reduced if r[-1][0] == k]
    return True, dense_rows([coeffs], k)[0]


def pivot_coefficients(rows, v):
    """Coefficients of v over the monic canonical rows (as _reduce gives
    them, divided by their leads), or None outside their span; v is a dense
    sequence or a sparse {column: value} dict.  A monic row is 1 at its
    pivot and 0 at the other pivots, so the coefficients are v at the
    pivots; membership is decided by integer row operations on v."""
    v = dict(v) if isinstance(v, dict) else {j: x for j, x in enumerate(v) if x}
    w = dict(_integer_row(v.items()))
    for row in rows:
        if w.get(row[0][0]):
            _eliminate(w, row, row[0][1], w[row[0][0]])
    return None if w else tuple(v.get(row[0][0]) or ZERO for row in rows)


def invert(M):
    """Inverse matrix; raises ValueError when M is singular."""
    if not M.is_square():
        raise ValueError("inverse of a non-square matrix")
    n = M.rows
    rows = [row + [(n + i, ONE)] for i, row in enumerate(sparse_rows(M.entries))]
    reduced, pivots = _reduce(rows)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    inverse = [[(j - n, v) for j, v in _monic(row)[1:]] for row in reduced]
    return Matrix(dense_rows(inverse, n), n)


def nilpotent_jordan_blocks(M):
    """Jordan block sizes of a nilpotent matrix, descending (see _jordan_blocks)."""
    if not M.is_square():
        raise ValueError("Jordan profile of a non-square matrix")
    return _jordan_blocks(sparse_rows(M.transpose().entries))


def _jordan_blocks(columns):
    """Jordan block sizes of the nilpotent matrix with these sparse columns.

    The number of blocks of size at least k is rank(M^(k-1)) - rank(M^k),
    where rank(M^k) = dim Im M^k and Im M^k = M(Im M^(k-1)).  Raises
    NotNilpotent when M^dim is nonzero, i.e. when an image stops shrinking.
    """
    n = len(columns)
    ranks = [n]
    image = columns
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
                    w[i] = w.get(i, 0) + a * b
            products.append(w.items())
        image = products
    at_least = [ranks[k - 1] - ranks[k] for k in range(1, len(ranks))]
    blocks = []
    top = len(at_least)
    for k in range(top, 0, -1):
        exact = at_least[k - 1] - (at_least[k] if k < top else 0)
        blocks.extend([k] * exact)
    return tuple(blocks)
