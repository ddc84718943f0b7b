"""Superderivations: the defining rule, the solution space, inner maps.

A homogeneous map D of parity s is a superderivation when for all
homogeneous a, b

    lie kind:      D([a,b]) = [D(a),b] + (-1)^(s|a|) [a,D(b)]
    leibniz kind:  D([a,b]) = (-1)^(s|b|) [D(a),b] + [a,D(b)]

derivation_space solves the rule as a linear system over the matrix
entries of D, with integer coefficients from A.integer_law (half of it
when A.skew_symmetric), handed to the kernel as sparse rows; inner_space
spans the multiplication operators (left for the lie kind, right for the
leibniz kind) read from A.law; innerness_report compares the two per parity.
"""

from bisect import bisect
from fractions import Fraction
from functools import cached_property

from .linalg import (Matrix, _integer_row, _kernel, _monic, _reduce, dense_rows,
                     pivot_coefficients, sparse_rows)
from .core import EVEN, ODD, LIE, product


class SuperDerivation:
    """A homogeneous linear map: `entries` lists its nonzero matrix entries
    row-major, as (k*dim + j, coefficient of e_k in D(e_j)) in index order,
    the sparse row form of linalg; `matrix`, whose column j is D(e_j),
    is built on first access.  Give a square `matrix`, or `dim` and `entries`."""

    def __init__(self, parity, matrix=None, dim=None, entries=None):
        if parity not in (EVEN, ODD):
            raise ValueError("parity must be 0 or 1")
        self.parity = parity
        if matrix is not None:
            self.matrix = matrix
            dim, entries = matrix.rows, sparse_rows([matrix.flatten()])[0]
        self.dim = dim
        self.entries = entries

    @cached_property
    def matrix(self):
        n = self.dim
        flat = dense_rows([self.entries], n * n)[0]
        return Matrix([flat[k * n:(k + 1) * n] for k in range(n)], n)

    def __eq__(self, other):
        return isinstance(other, SuperDerivation) and (
            self.parity, self.dim, self.entries) == (other.parity, other.dim, other.entries)

    def __repr__(self):
        return "SuperDerivation(parity=%d, dim=%d)" % (self.parity, self.dim)


def _check_parity_blocks(A, parity, M):
    """The sparse rows of M, a Matrix or its sparse rows, after checking
    that M is dim x dim and moves each basis vector's parity by `parity`."""
    n, par = A.dim, A.parities
    if isinstance(M, Matrix):
        M = sparse_rows(M.entries) if M.rows == n and M.cols == n else ()
    if len(M) != n:
        raise ValueError("matrix must be %dx%d" % (n, n))
    for i, row in enumerate(M):
        for j, v in row:
            if par[i] != par[j] ^ parity:
                raise ValueError("entry (%d, %d) breaks the parity-%d block structure"
                                 % (i, j, parity))
    return M


def _rule_signs(A, parity, a, b):
    """Signs of [D e_a, e_b] and [e_a, D e_b] in the rule for D[e_a, e_b]."""
    if A.kind == LIE:
        return 1, (-1) ** (parity * A.parities[a])
    return (-1) ** (parity * A.parities[b]), 1


def is_superderivation(A, D):
    """Check the rule on all ordered basis pairs.

    Returns (ok, violations) where each violation is (left label, right
    label, residual) with residual = rule right side minus left side.
    """
    _check_parity_blocks(A, D.parity, D.matrix)
    M, basis = D.matrix, A.combined_basis
    units = [A.coords(l) for l in basis]
    violations = []
    for a, ea in enumerate(units):
        for b, eb in enumerate(units):
            s1, s2 = _rule_signs(A, D.parity, a, b)
            terms = zip(product(A, M.column(a), eb), product(A, ea, M.column(b)),
                        M.apply(product(A, ea, eb)))
            residual = A.element_from_coords([s1 * x + s2 * y - z for x, y, z in terms])
            if not residual.is_zero():
                violations.append((basis[a], basis[b], residual))
    return (not violations), violations


def _unknown_positions(A, parity):
    """Matrix positions (target row, source column) an unknown may occupy.

    Those with par[row] == par[col] ^ parity: the even-source block first,
    then the odd-source block, each row-major.
    """
    n, par = A.dim, A.parities
    return [(k, l) for source in (EVEN, ODD) for k in range(n) for l in range(n)
            if par[l] == source and par[k] == source ^ parity]


def derivation_space(A, parity):
    """The superderivations of the given parity: a canonical basis, as a list.

    One linear equation per basis triple (i, j, k): coordinate k of the
    rule applied to the pair (e_i, e_j).  Each structure constant of
    `A.integer_law` (the law times the lcm of its denominators, which
    leaves the solutions unchanged) adds its integer terms to the
    equations it occurs in, visiting only the unknowns in its matrix
    column or row.  A lie-kind law with `A.skew_symmetric` makes the rule
    on (e_j, e_i) the rule on (e_i, e_j) times -(-1)^(|i||j|), so only the
    terms of the equations with i <= j are formed; the row space is the
    same.  The sparse rows go, in no column order, straight to the kernel,
    where a row implied by earlier ones costs only dot products; its
    canonical basis, which does not depend on the order of the equations,
    comes back as the sparse entries of each matrix.
    """
    n = A.dim
    positions = _unknown_positions(A, parity)
    # the unknowns of each matrix row and column, by ascending column and row
    in_row = [[] for _ in range(n)]
    in_col = [[] for _ in range(n)]
    for t, (k, l) in enumerate(positions):
        in_row[k].append((l, t))
        in_col[l].append((k, t))

    half = A.kind == LIE and A.skew_symmetric
    eqs = {}
    for (a, b), cell in A.integer_law[1].items():
        s1, s2 = _rule_signs(A, parity, a, b)
        first = in_row[a][:bisect(in_row[a], (b + 1 if half else n,))]  # x <= b
        second = in_row[b][bisect(in_row[b], (a if half else 0,)):]  # a <= x
        for k, c in cell.items():
            if a <= b or not half:
                for x, t in in_col[k]:
                    row = eqs.setdefault((a, b, x), {})
                    row[t] = row.get(t, 0) + c
            for x, t in first:
                row = eqs.setdefault((x, b, k), {})
                row[t] = row.get(t, 0) - s1 * c
            for x, t in second:
                row = eqs.setdefault((a, x, k), {})
                row[t] = row.get(t, 0) - s2 * c

    flat = [k * n + l for k, l in positions]
    return [SuperDerivation(parity, dim=n, entries=sorted((flat[t], v) for t, v in vec))
            for vec in _kernel([row.items() for row in eqs.values()], len(positions))]


def inner_space(A, parity):
    """The multiplication operators of the given parity: a basis, as a list.

    Left multiplications for the lie kind, right multiplications for the
    leibniz kind.  The operator of e_i is read from `A.law` as a sparse
    row-major row, entry (k, j) being coordinate k of [e_i, e_j] (left) or
    [e_j, e_i] (right); the basis is the canonical RREF of those rows.
    """
    n = A.dim
    side = 0 if A.kind == LIE else 1  # the place of e_i in a law key
    ops = {i: [] for i in range(n) if A.parities[i] == parity}
    for key, cell in A.law.items():
        if key[side] in ops:
            ops[key[side]].extend((k * n + key[1 - side], c) for k, c in cell.items())
    reduced, _ = _reduce([sorted(row) for row in ops.values()])
    return [SuperDerivation(parity, dim=n, entries=_monic(row)) for row in reduced]


def super_commutator(D1, D2):
    """D1 D2 - (-1)^(s1 s2) D2 D1, a superderivation of parity s1 + s2."""
    sign = Fraction((-1) ** (D1.parity * D2.parity))
    M = D1.matrix * D2.matrix - (D2.matrix * D1.matrix).scale(sign)
    return SuperDerivation((D1.parity + D2.parity) % 2, M)


def innerness_report(A):
    """Dimensions and innerness of the derivation spaces, per parity.

    expressions holds, for each derivation basis element, its coefficient
    tuple over the canonical inner basis, or None when it is outer.
    """
    report = {"expressions": {}}
    for parity, tag in ((EVEN, "even"), (ODD, "odd")):
        der = derivation_space(A, parity)
        inner = inner_space(A, parity)
        rows = [_integer_row(D.entries) for D in inner]  # canonical integer rows
        exprs = [pivot_coefficients(rows, dict(D.entries)) for D in der]
        report["dim_der_%s" % tag] = len(der)
        report["dim_inner_%s" % tag] = len(inner)
        report["outer_%s" % tag] = exprs.count(None)
        report["expressions"][tag] = exprs
    report["all_inner"] = not (report["outer_even"] or report["outer_odd"])
    return report
