import importlib
import os
import random
from fractions import Fraction
from math import gcd, lcm

import pytest

import superalg
from superalg import linalg
from superalg.core import change_of_basis
from superalg.derivations import derivation_space
from superalg.families import member
from superalg.invariants import DESCENDING_CENTRAL, classify, series
from superalg.linalg import (ZERO, Matrix, NotNilpotent, _kernel, _monic, _reduce,
                             dense_rows, invert, nilpotent_jordan_blocks, nullspace, rank,
                             row_space_basis, span_contains)

from naive_gauss import (naive_inverse, naive_nullspace, naive_rank, naive_rref,
                         naive_solve)
from naive_identities import dense_map, naive_derivation_basis


def F(v):
    return Fraction(v)


def _zero(rows, cols):
    return Matrix([[0] * cols for _ in range(rows)], cols)


def _identity(n):
    return Matrix([[int(i == j) for j in range(n)] for i in range(n)])


def _mul(A, B):
    return Matrix([[sum(a * b for a, b in zip(row, col)) for col in zip(*B.entries)]
                   for row in A.entries], B.cols)


def test_matrix_constructors_and_access():
    M = Matrix([[1, 2], [3, "1/2"]])
    assert M.rows == 2 and M.cols == 2 and M.is_square()
    assert M.entries == ((F(1), F(2)), (F(3), Fraction(1, 2)))
    assert all(type(v) is Fraction for row in M.entries for v in row)
    assert M.transpose() == Matrix([[1, 3], [2, Fraction(1, 2)]])
    assert M != Matrix([[1, 2], [3, 4]]) and not Matrix([[1, 2]]).is_square()
    assert repr(M) == "Matrix([['1', '2'], ['3', '1/2']])"


def test_rref_known():
    rows = [(2, 4, 0), (1, 2, 1)]
    assert row_space_basis(rows, 3) == ((F(1), F(2), F(0)), (F(0), F(0), F(1)))
    assert _reduce([[(0, 2), (1, 4)], [(0, 1), (1, 2), (2, 1)]]) == (
        [[(0, 1), (1, 2)], [(2, 1)]], [0, 2])
    assert rank(Matrix(rows)) == 2


def test_nullspace_canonical_form():
    # each kernel vector sets one free variable to 1, the rest to 0
    ker = nullspace(Matrix([[1, 1, 0]]))
    assert ker == [(F(-1), F(1), F(0)), (F(0), F(0), F(1))]
    for v in ker:
        assert sum(a * b for a, b in zip((1, 1, 0), v)) == 0


def test_nullspace_full_rank_and_zero():
    assert nullspace(_identity(3)) == []
    ker = nullspace(_zero(2, 2))
    assert ker == [(F(1), F(0)), (F(0), F(1))]


def test_matrix_without_rows_keeps_its_width():
    assert _zero(0, 5).cols == 5 and _zero(0, 5).rows == 0
    assert Matrix([], 3).cols == 3
    assert _zero(0, 5) != _zero(0, 3)
    assert _zero(3, 0).transpose() == _zero(0, 3)
    with pytest.raises(ValueError):
        Matrix([[1, 2]], 3)


def test_rref_of_zero_matrix_keeps_its_width():
    assert row_space_basis([(0, 0, 0)] * 2, 3) == () and rank(_zero(2, 3)) == 0
    with pytest.raises(ValueError):
        row_space_basis([(0, 0, 0)] * 2, 2)


def test_nullspace_of_system_without_equations():
    ker = nullspace(_zero(0, 3))
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
    assert _mul(invert(A), A) == _identity(2)
    with pytest.raises(ValueError):
        invert(Matrix([[1, 2], [2, 4]]))
    with pytest.raises(ValueError):
        invert(_zero(2, 3))


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
    P = _mul(Matrix(L), Matrix(U))
    return _mul(_mul(P, J), invert(P))


def _blocks_from_power_ranks(M):
    """Jordan blocks by definition: ranks of the explicit powers M^k."""
    n = M.rows
    ranks = [n]
    power = _identity(n)
    for _ in range(n):
        power = _mul(power, M)
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
    assert nilpotent_jordan_blocks(_zero(3, 3)) == (1, 1, 1)
    # block diagonal J3 + J1
    M = Matrix([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    assert nilpotent_jordan_blocks(M) == (3, 1)
    assert nilpotent_jordan_blocks(_zero(0, 0)) == ()
    with pytest.raises(NotNilpotent):
        nilpotent_jordan_blocks(_identity(2))
    with pytest.raises(ValueError):
        nilpotent_jordan_blocks(_zero(2, 3))


def test_fractional_entries_stay_exact():
    M = Matrix([[Fraction(1, 3), Fraction(1, 6)], [Fraction(1, 2), Fraction(1, 4)]])
    assert rank(M) == 1
    ker = nullspace(M)
    assert len(ker) == 1 and _mul(M, Matrix([[v] for v in ker[0]])) == _zero(2, 1)


def test_against_naive_oracle_small():
    rng = random.Random(20240817)
    for _ in range(60):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        entries = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        M = Matrix(entries)
        assert rank(M) == naive_rank(entries)
        _, pivots = _reduce([[(j, v) for j, v in enumerate(row) if v] for row in entries])
        nR, npivots = naive_rref(entries)
        assert pivots == npivots
        assert list(row_space_basis(entries, cols)) == nR
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
        _, pivots = _reduce([[(j, v) for j, v in enumerate(row) if v] for row in entries])
        nR, npivots = naive_rref(entries)
        assert (kind, pivots) == (kind, npivots)
        basis = row_space_basis(entries, cols)
        assert list(basis) == nR and all(len(v) == cols for v in basis)
        assert all(_all_fractions(v) and _zeros_shared(v) for v in basis)
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
            assert all(_all_fractions(r) and _zeros_shared(r) for r in inv.entries)
    assert outcomes == {True, False}


def _shared_kernel_cases():
    rng = random.Random(1968)
    for _ in range(20):
        rows, cols = rng.randint(1, 9), rng.randint(1, 9)
        yield "int", [[rng.choice((0, 0, 0, 1, -1, 2, -3, 21)) for _ in range(cols)]
                      for _ in range(rows)], cols
        yield "fraction", [[Fraction(rng.randint(-9, 9), rng.choice((1, 3, 7)))
                            if rng.random() < 0.5 else 0 for _ in range(cols)]
                           for _ in range(rows)], cols
    for cols in (0, 1, 6):
        yield "no equations", [], cols
    for n in (1, 4, 7):
        # unitriangular, with a dependent row appended: rank n, empty kernel
        square = [[rng.randint(-3, 3) if j > i else int(i == j) for j in range(n)]
                  for i in range(n)]
        yield "full rank", square + [[a + b for a, b in zip(square[0], square[-1])]], n


def test_shared_kernel_helper_matches_oracle():
    """_kernel, which derivation_space calls with integer rows, and nullspace,
    which wraps it for a dense Matrix, give the oracle's canonical basis."""
    seen = set()
    for kind, entries, cols in _shared_kernel_cases():
        seen.add(kind)
        expected = naive_nullspace(entries, cols)
        if kind == "full rank":
            assert expected == []
        if kind == "no equations":
            assert len(expected) == cols
        sparse = [[(j, v) for j, v in enumerate(row) if v] for row in entries]
        ker = _kernel(sparse, cols)
        assert all(type(v) is Fraction and v for vec in ker for _, v in vec), kind
        # each vector starts with 1 at its free column, in free column order
        free = [vec[0][0] for vec in ker]
        assert free == sorted(free) and all(vec[0][1] == 1 for vec in ker)
        assert list(dense_rows(ker, cols)) == expected, (kind, entries)
        dense = nullspace(Matrix(entries, cols))
        assert isinstance(dense, list) and dense == expected, (kind, entries)
        assert all(type(v) is tuple and len(v) == cols and _all_fractions(v)
                   and _zeros_shared(v) for v in dense)
    assert seen == {"int", "fraction", "no equations", "full rank"}


def _row_orders(entries):
    """The rows as sparse pairs: reversed, shuffled with a fixed seed, with
    exact duplicates and the multiples by -2 and 3/7 appended, with each
    row's pairs in a seeded random column order passed as dict items, and
    each row scaled to integers."""
    shuffled = list(entries)
    random.Random(1957).shuffle(shuffled)
    sparse = [[(j, v) for j, v in enumerate(row) if v] for row in entries]
    yield "reversed", sparse[::-1]
    yield "shuffled", [[(j, v) for j, v in enumerate(row) if v] for row in shuffled]
    repeated = (entries + entries[::-1] + [[-2 * v for v in row] for row in entries]
                + [[Fraction(3, 7) * v for v in row] for row in shuffled])
    yield "repeated", [[(j, v) for j, v in enumerate(row) if v] for row in repeated]
    rng = random.Random(1958)
    yield "columns shuffled", [dict(rng.sample(row, len(row))).items() for row in sparse]
    scaled = []
    for row in sparse:
        d = lcm(*[Fraction(v).denominator for _, v in row])
        scaled.append([(j, int(v * d)) for j, v in row])
    yield "integer", scaled


def test_row_order_is_internal_to_the_kernel():
    """_reduce takes its rows in an order of its own; whatever order they
    come in, with repeats or without, in any column order within a row, as
    Fractions or as integers, the reduced rows, pivots and kernel basis are
    the oracle's canonical ones."""
    seen = set()
    for kind, entries, cols in list(_cases()) + list(_shared_kernel_cases()):
        expected = naive_rref(entries)
        kernel = naive_nullspace(entries, cols)
        for order, sparse in _row_orders(entries):
            seen.add(order)
            reduced, pivots = _reduce(sparse)
            got = [tuple(r) for r in dense_rows(map(_monic, reduced), cols)], pivots
            assert got == expected, (kind, order, entries)
            assert list(dense_rows(_kernel(sparse, cols), cols)) == kernel, (kind, order)
    assert seen == {"reversed", "shuffled", "repeated", "columns shuffled", "integer"}


def test_rows_no_elimination_touches_come_out_primitive_with_a_positive_lead():
    """Rows that meet no pivot column, in the forward pass or in the
    back-substitution, are still divided by their content and given a
    positive lead, whether they come as integers, as Fractions or as a
    dict's items."""
    for rows in ([[(3, -4), (5, 6)], [(0, -2)]],
                 [{5: 6, 3: -4}.items(), [(0, Fraction(-2, 3))]],
                 [[(5, Fraction(-3, 2)), (3, 1)], [(0, -7)], [(3, -8), (5, 12)]]):
        reduced, pivots = _reduce(rows)
        assert reduced == [[(0, 1)], [(3, 2), (5, -3)]] and pivots == [0, 3], rows
        assert all(type(v) is int for row in reduced for _, v in row)


# ---- the kernel's solution-space tracking ---------------------------------

def _sparse_system(rng, rows, cols, value):
    """Rows of one to four entries drawn from `value`, over two thirds of
    the columns, so that the other columns appear in no row."""
    used = rng.sample(range(cols), max(1, 2 * cols // 3))
    out = []
    for _ in range(rows):
        row = {c: value(rng) for c in rng.sample(used, rng.randint(1, min(4, len(used))))}
        out.append(sorted(row.items()))
    return out


def _with_redundancy(rng, rows):
    """The rows plus zero rows (empty and with explicit zero values), exact
    duplicates, scalar multiples and sums of two rows, shuffled."""
    out = list(rows) + [[], [(0, 0)], [(0, Fraction(0)), (1, 0)]]
    for _ in range(len(rows)):
        a, b = rng.choice(rows), rng.choice(rows)
        k = rng.choice((-1, 3, Fraction(-5, 4), 10 ** 12 + 39))
        merged = dict(a)
        for c, v in b:
            merged[c] = merged.get(c, 0) + v
        out += [list(a), [(c, k * v) for c, v in a],
                sorted((c, v) for c, v in merged.items() if v)]
    rng.shuffle(out)
    return out


def _small_int(rng):
    return rng.choice((-3, -2, -1, 1, 2, 5))


def _mixed_fraction(rng):
    return Fraction(rng.choice((-7, -3, -1, 1, 2, 9)), rng.choice((1, 2, 3, 10, 49)))


def _near_10_12(rng):
    return rng.choice((-1, 1)) * (10 ** 12 + rng.randint(-999, 999))


def _solution_space_cases():
    rng = random.Random(1971)
    for kind, value in (("int", _small_int), ("fraction", _mixed_fraction),
                        ("near 10^12", _near_10_12)):
        for _ in range(12):
            cols = rng.randint(3, 24)
            rows = _sparse_system(rng, rng.randint(1, 2 * cols), cols, value)
            yield kind, _with_redundancy(rng, rows), cols
    for n in (1, 5, 9):
        # upper unitriangular with a scaled copy of its last row: rank n
        square = [[(j, 1 if j == i else _near_10_12(rng)) for j in range(i, n)
                   if j == i or rng.random() < 0.5] for i in range(n)]
        yield "full rank", square + [[(c, 7 * v) for c, v in square[-1]]], n
    for cols in (1, 6):
        yield "rank 0", [[], [(cols - 1, 0)]], cols
    for cols in (4, 11):
        # shortest, so taken first, and on the last column only
        rows = _sparse_system(rng, cols, cols, _small_int)
        yield "first row on the last column", [[(cols - 1, Fraction(3, 2))]] + rows, cols


def test_kernel_tracks_the_solution_space():
    """_kernel against the oracle on sparse systems with untouched columns,
    redundant rows, fractions, large integers, full rank and rank 0; every
    input row vanishes on every returned vector."""
    seen = set()
    for kind, rows, cols in _solution_space_cases():
        seen.add(kind)
        dense = [[0] * cols for _ in rows]
        for row, vec in zip(rows, dense):
            for c, v in row:
                vec[c] = v
        expected = naive_nullspace(dense, cols)
        ker = _kernel(rows, cols)
        assert list(dense_rows(ker, cols)) == expected, (kind, rows)
        for vec in ker:
            x = dict(vec)
            for row in rows:
                assert sum(v * x.get(c, 0) for c, v in row) == 0, (kind, row, vec)
        touched = {c for row in rows for c, v in row if v}
        untouched = [[(c, 1)] for c in range(cols) if c not in touched]
        assert all(u in ker for u in untouched), kind
        if kind == "full rank":
            assert ker == []
        if kind == "rank 0":
            assert ker == [[(c, 1)] for c in range(cols)]
        if kind == "first row on the last column":
            assert all(cols - 1 not in dict(vec) for vec in ker)
    assert seen == {"int", "fraction", "near 10^12", "full rank", "rank 0",
                    "first row on the last column"}


def test_kernel_reads_no_column_order_within_a_row():
    """derivation_space hands its rows to _kernel unsorted, as dict items:
    each row's pairs shuffled, reversed or in a dict give the oracle's
    canonical basis."""
    rng = random.Random(1984)
    longer = 0
    for kind, rows, cols in _solution_space_cases():
        dense = [[0] * cols for _ in rows]
        for row, vec in zip(rows, dense):
            for c, v in row:
                vec[c] = v
        expected = naive_nullspace(dense, cols)
        for order in ([rng.sample(row, len(row)) for row in rows], [row[::-1] for row in rows],
                      [dict(row[::-1]).items() for row in rows]):
            assert list(dense_rows(_kernel(order, cols), cols)) == expected, (kind, order)
        longer += sum(len(row) > 1 for row in rows)
    assert longer > 100


def test_kernel_reads_no_row_after_nullity_zero():
    # the longest row comes last and is not even a valid row of two unknowns:
    # once the first two rows leave no solution vector it must not be read
    rows = [[(0, 1)], [(1, 2), (0, 1)], [(0, 1), (1, 1), (5, "not read")]]
    assert _kernel(rows, 2) == []
    assert _kernel(rows[:1], 2) == [[(1, 1)]]


# ---- the one-pair pre-pass ------------------------------------------------

def _dense(rows, cols):
    out = [[0] * cols for _ in rows]
    for row, vec in zip(rows, out):
        for c, v in row:
            vec[c] = v
    return out


def test_kernel_one_pair_row_of_zero_leaves_its_column_free():
    longer = [[(0, 1), (1, -1)], [(1, 2), (2, 1), (3, -2)]]
    for zero in (0, Fraction(0)):
        assert _kernel([[(1, zero)]], 3) == [[(0, 1)], [(1, 1)], [(2, 1)]]
        rows = [[(3, zero)]] + longer + [[(1, zero)]]
        ker = _kernel(rows, 4)
        assert list(dense_rows(ker, 4)) == naive_nullspace(_dense(rows, 4), 4), zero
        assert ker == _kernel(longer, 4) and any(3 in dict(vec) for vec in ker), zero


def test_kernel_one_pair_row_kills_its_column_wherever_it_comes():
    """Last in the input, as a dict's items or with a Fraction value, a row
    of one nonzero pair still removes its column from every kernel vector."""
    longer = [[(0, 1), (1, 1), (2, 1)], [(1, 2), (2, -1), (3, 1)], [(3, 1), (4, -1)]]
    free = _kernel(longer, 5)
    assert any(2 in dict(vec) for vec in free)
    for single in ([(2, 5)], {2: -1}.items(), [(2, Fraction(-3, 7))]):
        rows = longer + [single]
        ker = _kernel(rows, 5)
        assert all(2 not in dict(vec) for vec in ker), single
        assert list(dense_rows(ker, 5)) == naive_nullspace(_dense(rows, 5), 5), single
        assert ker == _kernel([single] + longer, 5), single


def test_kernel_one_pair_rows_alone_reach_nullity_zero():
    # the longest row comes first and is not even a valid row of two unknowns:
    # the one-pair rows after it kill both columns, so it must not be read
    rows = [[(0, 1), (1, 1), (5, "not read")], [(1, Fraction(1, 2))], {0: -3}.items()]
    assert _kernel(rows, 2) == []
    assert _kernel(rows[1:2], 2) == [[(0, 1)]]


def _check_reduce_against_oracle(rows, cols):
    """_reduce on rows (any sized iterables of pairs) equals the dense
    oracle's RREF, each emitted row primitive integers with a positive lead."""
    dense = _dense([list(row) for row in rows], cols)
    reduced, pivots = _reduce(rows)
    assert ([tuple(r) for r in dense_rows(map(_monic, reduced), cols)], pivots) == \
        naive_rref(dense), dense
    for row, c in zip(reduced, pivots):
        assert row[0][0] == c and row[0][1] > 0, dense
        assert all(type(v) is int for _, v in row) and gcd(*dict(row).values()) == 1, dense
    return reduced, pivots


def test_reduce_one_pair_rows_match_oracle():
    """The pre-pass on hand-made cases: zero-valued one-pair rows (dropped),
    negative and Fraction values, also as a dict's items, repeated unit
    columns, a longer row that the unit columns empty, and unit columns
    between other pivots, so that back-substitution still runs."""
    longer = [[(0, 1), (2, 1), (3, 1)], [(2, 1), (3, -1), (6, 2)], [(4, 1), (6, -3)]]
    cases = [
        [[(2, 0)], [(4, Fraction(0))], {5: 0}.items(), {1: Fraction(0)}.items()] + longer,
        [[(1, -3)], {5: Fraction(-2, 7)}.items(), [(3, Fraction(4, 9))], {6: -1}.items()]
        + longer,
        [[(1, 2)], [(1, -5)], {1: Fraction(1, 3)}.items(), [(3, 1)], [(3, -1)]] + longer,
        [[(1, 4), (5, -1)], [(5, 7)], [(1, Fraction(-1, 2))]] + longer,
        [[(3, 2)], [(1, 1)], [(5, 1)]] + longer,
        [[(0, 1)], [(3, Fraction(-5, 2))], {6: 4}.items(), [(1, 0)], [(0, -1)]],
    ]
    for rows in cases:
        _check_reduce_against_oracle(rows, 7)
    # the unit column 3 is emptied out of longer[1] and longer[0], so the
    # pivot rows of 0 and 2 meet in column 2 and back-substitution runs
    reduced, pivots = _check_reduce_against_oracle(cases[4], 7)
    assert pivots == [0, 1, 2, 3, 4, 5] and reduced[0] == [(0, 1), (6, -2)]
    # a longer row holding only unit columns adds nothing
    assert _reduce(cases[3]) == _reduce(cases[3][1:])
    assert _reduce([]) == ([], [])
    assert _reduce([[(2, 0)], [(0, Fraction(0))]]) == ([], [])


def test_reduce_mostly_one_pair_rows_match_oracle():
    """Random systems whose rows mostly hold one pair, as the monomial
    laws' product spaces do, with the longer rows over few columns."""
    rng = random.Random(1995)
    values = (0, 0, -3, -1, 1, 2, Fraction(-2, 3), Fraction(5, 4), Fraction(0))
    for _ in range(200):
        cols = rng.randint(1, 9)
        rows = []
        for _ in range(rng.randint(0, 14)):
            if rng.random() < 0.7:
                row = [(rng.randrange(cols), rng.choice(values))]
            else:
                picks = rng.sample(range(cols), rng.randint(min(2, cols), cols))
                row = [(c, rng.choice(values)) for c in picks]
            rows.append(dict(row).items() if rng.random() < 0.3 else row)
        _check_reduce_against_oracle(rows, cols)


def test_monomial_laws_reach_their_invariants_without_elimination(monkeypatch):
    """On L^{6,5} as built every bracket is one term, and series and
    classify reach their answers through the one-pair pre-pass with no row
    operation; after the benchmark's seeded unitriangular change of basis
    the rows are longer and the same calls eliminate."""
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "bench"))
    change = importlib.import_module("workloads").change_of_basis_map
    count = [0]
    eliminate = linalg._eliminate

    def counted(*args):
        count[0] += 1
        return eliminate(*args)

    monkeypatch.setattr(linalg, "_eliminate", counted)
    A = member("L", (6,), (5,))
    B = change_of_basis(A, change(superalg, A, random.Random(1)))
    for C, some in ((A, False), (B, True)):
        for run in (lambda: series(C, DESCENDING_CENTRAL), lambda: classify(C)):
            count[0] = 0
            run()
            assert (count[0] > 0) == some, (C.name, count[0])


def test_derivation_space_of_the_sparse_benchmark_members_matches_oracle(monkeypatch):
    """Most rows of a sparse derivation system hold one pair: on each
    derive_sparse member of seed 1, both parities, the basis is the dense
    oracle's, entry by entry."""
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "bench"))
    rungs = importlib.import_module("workloads").Plan("derive_sparse", 1).rungs
    assert len(rungs) == 5
    for rung in rungs:
        A = rung.build(superalg)
        for parity in (0, 1):
            got = [dense_map(D).rows for D in derivation_space(A, parity)]
            assert got == naive_derivation_basis(A, parity), (rung.tag, parity)
