"""Independent Gaussian-elimination oracle for the linear algebra tests.

Deliberately a different algorithm from the library: forward elimination
with row swaps and below-pivot clearing only, then a separate
normalization / back-substitution phase.  No code is shared with the
package.
"""

from fractions import Fraction


def naive_forward(rows):
    """Row echelon form (no normalization); returns (rows, pivot columns)."""
    work = [[Fraction(v) for v in row] for row in rows]
    if not work:
        return [], []
    ncols = len(work[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(work)):
            if work[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        for i in range(r + 1, len(work)):
            if work[i][c] != 0:
                f = work[i][c] / work[r][c]
                for j in range(c, ncols):
                    work[i][j] -= f * work[r][j]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return work, pivots


def naive_rank(rows):
    return len(naive_forward(rows)[1])


def naive_rref(rows):
    """Normalized reduced form, clearing above pivots bottom-up."""
    work, pivots = naive_forward(rows)
    work = work[:len(pivots)]
    for k in range(len(pivots) - 1, -1, -1):
        c = pivots[k]
        lead = work[k][c]
        work[k] = [v / lead for v in work[k]]
        for i in range(k):
            f = work[i][c]
            if f != 0:
                work[i] = [a - f * b for a, b in zip(work[i], work[k])]
    return [tuple(row) for row in work], pivots


def naive_nullspace(rows, ncols):
    """Kernel basis: one vector per free column, solved by back substitution."""
    work, pivots = naive_forward(rows)
    work = work[:len(pivots)]
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for k in range(len(pivots) - 1, -1, -1):
            c = pivots[k]
            s = sum(work[k][j] * vec[j] for j in range(c + 1, ncols))
            vec[c] = -s / work[k][c]
        basis.append(tuple(vec))
    return basis


def naive_solve(columns, v):
    """Coefficients c with sum c[j] * columns[j] == v, free ones set to 0.

    Returns None when v is not in the span.  Forward elimination of the
    augmented system, then back substitution over the pivot columns.
    """
    k = len(columns)
    rows = [[col[i] for col in columns] + [v[i]] for i in range(len(v))]
    work, pivots = naive_forward(rows)
    if k in pivots:
        return None
    coeffs = [Fraction(0)] * k
    for r in range(len(pivots) - 1, -1, -1):
        c = pivots[r]
        s = work[r][k] - sum(work[r][j] * coeffs[j] for j in range(c + 1, k))
        coeffs[c] = s / work[r][c]
    return tuple(coeffs)


def naive_inverse(rows):
    """Inverse by solving M x = e_i column by column; None when singular."""
    n = len(rows)
    if naive_rank(rows) < n:
        return None
    columns = [tuple(rows[i][j] for i in range(n)) for j in range(n)]
    inverse_columns = [naive_solve(columns, [Fraction(int(i == j)) for j in range(n)])
                       for i in range(n)]
    return [tuple(inverse_columns[j][i] for j in range(n)) for i in range(n)]
