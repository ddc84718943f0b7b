import random
from fractions import Fraction

import pytest

from superalg.linalg import (Matrix, NotNilpotent, invert,
                             nilpotent_jordan_blocks, nullspace, rank,
                             row_space_basis, rref, span_contains)

from naive_gauss import naive_nullspace, naive_rank, naive_rref


def F(v):
    return Fraction(v)


def test_matrix_constructors_and_access():
    M = Matrix([[1, 2], [3, 4]])
    assert M.rows == 2 and M.cols == 2
    assert M.entry(0, 1) == 2
    assert M.row(1) == (F(3), F(4))
    assert M.column(0) == (F(1), F(3))
    assert Matrix.zero(2, 3).is_zero()
    assert Matrix.identity(2) == Matrix([[1, 0], [0, 1]])
    assert Matrix.diagonal([1, 2]) == Matrix([[1, 0], [0, 2]])
    assert Matrix.from_columns([(1, 3), (2, 4)], 2) == M
    with pytest.raises(IndexError):
        M.entry(2, 0)
    with pytest.raises(IndexError):
        M.entry(0, -1)


def test_matrix_arithmetic():
    A = Matrix([[1, 2], [3, 4]])
    B = Matrix([[0, 1], [1, 0]])
    assert A + B == Matrix([[1, 3], [4, 4]])
    assert A - B == Matrix([[1, 1], [2, 4]])
    assert -A == A.scale(-1)
    assert A * B == Matrix([[2, 1], [4, 3]])
    assert A.apply((1, 1)) == (F(3), F(7))
    assert A.transpose() == Matrix([[1, 3], [2, 4]])
    assert A.flatten() == (F(1), F(2), F(3), F(4))
    assert A.submatrix(range(1), range(1, 2)) == Matrix([[2]])
    assert hash(A) == hash(Matrix([[1, 2], [3, 4]]))


def test_rref_known():
    M = Matrix([[2, 4, 0], [1, 2, 1]])
    R, pivots = rref(M)
    assert pivots == (0, 2)
    assert R == Matrix([[1, 2, 0], [0, 0, 1]])
    assert rank(M) == 2


def test_nullspace_canonical_form():
    # each kernel vector sets one free variable to 1, the rest to 0
    ker = nullspace(Matrix([[1, 1, 0]]))
    assert ker == [(F(-1), F(1), F(0)), (F(0), F(0), F(1))]
    for v in ker:
        assert sum(a * b for a, b in zip((1, 1, 0), v)) == 0


def test_nullspace_full_rank_and_zero():
    assert nullspace(Matrix.identity(3)) == []
    ker = nullspace(Matrix.zero(2, 2))
    assert ker == [(F(1), F(0)), (F(0), F(1))]


def test_row_space_basis_is_canonical():
    b1 = row_space_basis([(2, 2), (1, 0)], 2)
    b2 = row_space_basis([(1, 1), (0, 3), (1, 4)], 2)
    assert b1 == b2 == ((F(1), F(0)), (F(0), F(1)))


def test_span_contains():
    ok, coeffs = span_contains([(1, 1), (1, -1)], (3, 1))
    assert ok and coeffs == (F(2), F(1))
    ok, coeffs = span_contains([(1, 0)], (0, 1))
    assert not ok and coeffs is None
    # dependent spanning set: free coefficients pinned to 0
    ok, coeffs = span_contains([(1, 0), (2, 0)], (3, 0))
    assert ok and coeffs == (F(3), F(0))


def test_invert():
    A = Matrix([[2, 1], [1, 1]])
    assert invert(A) == Matrix([[1, -1], [-1, 2]])
    assert invert(A) * A == Matrix.identity(2)
    with pytest.raises(ValueError):
        invert(Matrix([[1, 2], [2, 4]]))
    with pytest.raises(ValueError):
        invert(Matrix.zero(2, 3))


def test_nilpotent_jordan_blocks():
    shift = lambda n: Matrix([[1 if j == i + 1 else 0 for j in range(n)]
                              for i in range(n)])
    assert nilpotent_jordan_blocks(shift(3)) == (3,)
    assert nilpotent_jordan_blocks(Matrix.zero(3, 3)) == (1, 1, 1)
    # block diagonal J3 + J1
    M = Matrix([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    assert nilpotent_jordan_blocks(M) == (3, 1)
    assert nilpotent_jordan_blocks(Matrix.zero(0, 0)) == ()
    with pytest.raises(NotNilpotent):
        nilpotent_jordan_blocks(Matrix.identity(2))
    with pytest.raises(ValueError):
        nilpotent_jordan_blocks(Matrix.zero(2, 3))


def test_fractional_entries_stay_exact():
    M = Matrix([[Fraction(1, 3), Fraction(1, 6)], [Fraction(1, 2), Fraction(1, 4)]])
    assert rank(M) == 1
    ker = nullspace(M)
    assert len(ker) == 1 and M.apply(ker[0]) == (F(0), F(0))


def test_against_naive_oracle_small():
    rng = random.Random(20240817)
    for _ in range(60):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        entries = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        M = Matrix(entries)
        assert rank(M) == naive_rank(entries)
        R, pivots = rref(M)
        nR, npivots = naive_rref(entries)
        assert list(pivots) == list(npivots)
        assert [tuple(r) for r in R.entries] == nR
        assert nullspace(M) == naive_nullspace(entries, cols)
