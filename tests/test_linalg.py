import random
from fractions import Fraction

import pytest

from superalg.linalg import (ZERO, Matrix, NotNilpotent, invert,
                             nilpotent_jordan_blocks, nullspace, rank,
                             row_space_basis, rref, span_contains)

from naive_gauss import (naive_inverse, naive_nullspace, naive_rank, naive_rref,
                         naive_solve)


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


def test_matrix_without_rows_keeps_its_width():
    assert Matrix.zero(0, 5).cols == 5 and Matrix.zero(0, 5).rows == 0
    assert Matrix([], 3).cols == 3
    assert Matrix.zero(0, 5) != Matrix.zero(0, 3)
    assert Matrix.zero(3, 0).transpose() == Matrix.zero(0, 3)
    with pytest.raises(ValueError):
        Matrix([[1, 2]], 3)


def test_rref_of_zero_matrix_keeps_its_width():
    R, pivots = rref(Matrix.zero(2, 3))
    assert (R.rows, R.cols, pivots) == (0, 3, ())


def test_nullspace_of_system_without_equations():
    ker = nullspace(Matrix.zero(0, 3))
    assert ker == [(F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1))]


def test_row_space_basis_is_canonical():
    b1 = row_space_basis([(2, 2), (1, 0)], 2)
    b2 = row_space_basis([(1, 1), (0, 3), (1, 4)], 2)
    assert b1 == b2 == ((F(1), F(0)), (F(0), F(1)))
    for wrong in ([(1, 2, 3)], [(1, 0), (1,)]):
        with pytest.raises(ValueError):
            row_space_basis(wrong, 2)


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


def _jordan_form(blocks, eigenvalue_of_first=0):
    n = sum(blocks)
    J = [[0] * n for _ in range(n)]
    start = 0
    for b, size in enumerate(blocks):
        for i in range(start, start + size):
            if i + 1 < start + size:
                J[i][i + 1] = 1
            if b == 0:
                J[i][i] = eigenvalue_of_first
        start += size
    return Matrix(J)


def _random_conjugate(rng, J):
    """P J P^-1 for a seeded random invertible P = (permuted L) U."""
    n = J.rows
    L = [[rng.randint(-3, 3) if j < i else int(i == j) for j in range(n)] for i in range(n)]
    U = [[rng.randint(-3, 3) if j > i else rng.choice((1, -1, 2)) if i == j else 0
          for j in range(n)] for i in range(n)]
    rng.shuffle(L)
    P = Matrix(L) * Matrix(U)
    return P * J * invert(P)


def _blocks_from_power_ranks(M):
    """Jordan blocks by definition: ranks of the explicit powers M^k."""
    n = M.rows
    ranks = [n]
    power = Matrix.identity(n)
    for _ in range(n):
        power = power * M
        ranks.append(naive_rank(power.entries))
    at_least = [ranks[k - 1] - ranks[k] for k in range(1, n + 1)] + [0]
    return tuple(k for k in range(n, 0, -1)
                 for _ in range(at_least[k - 1] - at_least[k])), ranks[-1]


def test_nilpotent_jordan_blocks_of_random_conjugates():
    rng = random.Random(4417)
    for _ in range(40):
        n = rng.randint(1, 8)
        blocks, left = [], n
        while left:
            blocks.append(rng.randint(1, left))
            left -= blocks[-1]
        M = _random_conjugate(rng, _jordan_form(blocks))
        expected, top_rank = _blocks_from_power_ranks(M)
        assert top_rank == 0
        assert nilpotent_jordan_blocks(M) == expected == tuple(sorted(blocks, reverse=True))
    for _ in range(20):
        n = rng.randint(1, 7)
        blocks = [rng.randint(1, n)]
        if n > blocks[0]:
            blocks.append(n - blocks[0])
        M = _random_conjugate(rng, _jordan_form(blocks, rng.choice((1, -2, Fraction(1, 3)))))
        _, top_rank = _blocks_from_power_ranks(M)
        with pytest.raises(NotNilpotent) as err:
            nilpotent_jordan_blocks(M)
        assert str(err.value) == "matrix power %d has rank %d" % (n, top_rank)


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


# ---- the elimination kernel against the independent oracle ---------------

def _tall_sparse(rng, rows, cols):
    """Derivation-system shape: few independent sparse rows, each repeated
    exactly, scaled, added to another one or zeroed, in shuffled order."""
    base = [[rng.choice((-2, -1, 1, 2, Fraction(1, 2))) if rng.random() < 0.08 else 0
             for _ in range(cols)] for _ in range(rng.randint(1, cols))]
    out = []
    for _ in range(rows):
        a, b = rng.choice(base), rng.choice(base)
        kind = rng.randrange(5)
        if kind == 0:
            out.append(list(a))
        elif kind == 1:
            k = rng.choice((-1, 2, Fraction(-3, 2), 7))
            out.append([k * v for v in a])
        elif kind == 2:
            out.append([x + y for x, y in zip(a, b)])
        elif kind == 3:
            out.append([0] * cols)
        else:
            out.append([rng.choice((-1, 1)) * v for v in a])
    return out


def _mixed_denominators(rng, rows, cols):
    return [[Fraction(rng.randint(-9, 9), rng.randint(1, 12)) if rng.random() < 0.6 else 0
             for _ in range(cols)] for _ in range(rows)]


def _huge(rng, rows, cols):
    big = 2 ** 64
    out = [[rng.choice((rng.randint(-big ** 2, big ** 2),
                        Fraction(rng.randint(big, big ** 2), rng.randint(big, big ** 2)),
                        0, 1))
            for _ in range(cols)] for _ in range(rows)]
    if rows > 1:
        # a dependent row keeps the rank below full
        out[-1] = [x * (big + 1) - y for x, y in zip(out[0], out[1])]
    return out


def _with_zero_rows(rng, rows, cols):
    out = _mixed_denominators(rng, rows, cols)
    for i in rng.sample(range(rows), rows // 2):
        out[i] = [0] * cols
    return out


def _cases():
    rng = random.Random(90210)
    for _ in range(12):
        cols = rng.randint(4, 40)
        yield "tall sparse", _tall_sparse(rng, rng.randint(3 * cols, 8 * cols), cols), cols
    for make in (_mixed_denominators, _huge, _with_zero_rows):
        for _ in range(15):
            rows, cols = rng.randint(1, 8), rng.randint(1, 8)
            yield make.__name__, make(rng, rows, cols), cols
    for rows, cols in ((0, 0), (0, 1), (0, 4), (1, 0), (3, 0), (2, 2)):
        yield "empty shape", [[0] * cols for _ in range(rows)], cols


def _all_fractions(values):
    return all(type(v) is Fraction for v in values)


def _zeros_shared(values):
    """Every zero entry is the shared ZERO, which sparse_rows skips by identity."""
    return all(v is ZERO for v in values if not v)


def test_kernel_matches_oracle_on_rref_rank_nullspace():
    seen = set()
    for kind, entries, cols in _cases():
        seen.add(kind)
        M = Matrix(entries, cols)
        R, pivots = rref(M)
        nR, npivots = naive_rref(entries)
        assert (kind, list(pivots)) == (kind, list(npivots))
        assert R.cols == cols and [tuple(r) for r in R.entries] == nR
        assert _all_fractions(R.flatten()) and _zeros_shared(R.flatten())
        basis = row_space_basis(entries, cols)
        assert list(basis) == nR and all(_zeros_shared(v) for v in basis)
        assert rank(M) == naive_rank(entries) == len(pivots)
        ker = nullspace(M)
        assert ker == naive_nullspace(entries, cols)
        assert all(len(v) == cols and _all_fractions(v) and _zeros_shared(v) for v in ker)
    assert seen == {"tall sparse", "_mixed_denominators", "_huge", "_with_zero_rows",
                    "empty shape"}


def test_kernel_matches_oracle_on_span_contains():
    rng = random.Random(5150)
    hits = misses = 0
    for kind, entries, cols in _cases():
        basis = [tuple(F(v) for v in row) for row in entries]
        inside = [sum((rng.randint(-3, 3) * b[i] for b in basis), F(0))
                  for i in range(cols)]
        targets = [inside]
        if cols:
            outside = list(inside)
            outside[rng.randrange(cols)] += Fraction(1, 3)
            targets.append(outside)
        for v in targets:
            expected = naive_solve(basis, v)
            ok, coeffs = span_contains(basis, v)
            if expected is None:
                assert (ok, coeffs) == (False, None)
                misses += 1
            else:
                assert ok and coeffs == expected and _all_fractions(coeffs)
                assert _zeros_shared(coeffs)
                hits += 1
    assert hits and misses


def test_kernel_matches_oracle_on_invert():
    rng = random.Random(6174)
    squares = [entries[:cols]
               for _, entries, cols in _cases() if len(entries) >= cols]
    squares += [[[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
                 for _ in range(n)] for n in range(1, 8) for _ in range(3)]
    outcomes = set()
    for square in squares:
        n = len(square)
        expected = naive_inverse(square)
        outcomes.add(expected is None)
        if expected is None:
            with pytest.raises(ValueError):
                invert(Matrix(square, n))
        else:
            inv = invert(Matrix(square, n))
            assert [tuple(r) for r in inv.entries] == expected
            assert _all_fractions(inv.flatten()) and _zeros_shared(inv.flatten())
    assert outcomes == {True, False}
