"""Superderivations: the defining rule, the solution space, inner maps.

A homogeneous map D of parity s is a superderivation when for all
homogeneous a, b

    lie kind:      D([a,b]) = [D(a),b] + (-1)^(s|a|) [a,D(b)]
    leibniz kind:  D([a,b]) = (-1)^(s|b|) [D(a),b] + [a,D(b)]

derivation_space solves the rule as a linear system over the matrix
entries of D; inner_space spans the multiplication operators (left for
the lie kind, right for the leibniz kind); innerness_report compares the
two per parity.
"""

from fractions import Fraction

from .linalg import (ZERO, Matrix, dense_rows, nullspace, pivot_coefficients,
                     row_space_basis, sparse_rows)
from .core import EVEN, ODD, LIE, multiplication_matrix, product


class SuperDerivation:
    """A homogeneous linear map, stored as its matrix on the combined basis."""

    def __init__(self, parity, matrix):
        if parity not in (EVEN, ODD):
            raise ValueError("parity must be 0 or 1")
        self.parity = parity
        self.matrix = matrix

    def apply(self, A, el):
        return A.element_from_coords(self.matrix.apply(A.coords(el)))

    def __eq__(self, other):
        return (isinstance(other, SuperDerivation)
                and self.parity == other.parity
                and self.matrix == other.matrix)

    def __repr__(self):
        return "SuperDerivation(parity=%d, dim=%d)" % (self.parity, self.matrix.rows)


class DerivationSpace:
    """A basis of superderivations sharing one parity."""

    def __init__(self, parity, basis):
        self.parity = parity
        self.basis = list(basis)

    @property
    def dim(self):
        return len(self.basis)

    def __iter__(self):
        return iter(self.basis)

    def __repr__(self):
        return "DerivationSpace(parity=%d, dim=%d)" % (self.parity, self.dim)


def _check_parity_blocks(A, parity, M):
    n, par = A.dim, A.parities
    if not (M.rows == n and M.cols == n):
        raise ValueError("matrix must be %dx%d" % (n, n))
    for i, row in enumerate(M.entries):
        for j, v in enumerate(row):
            if v and par[i] != par[j] ^ parity:
                raise ValueError("entry (%d, %d) breaks the parity-%d block structure"
                                 % (i, j, parity))


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
    """All superderivations of the given parity, as a canonical basis.

    One linear equation per basis triple (i, j, k): coordinate k of the
    rule applied to the pair (e_i, e_j).  Each structure constant adds its
    terms to the equations it occurs in; zero and duplicate equations are
    dropped, and the canonical nullspace of the system, which does not
    depend on the order of the equations, is reshaped into matrices.
    """
    n = A.dim
    positions = _unknown_positions(A, parity)
    pos_index = {pos: t for t, pos in enumerate(positions)}
    width = len(positions)

    eqs = {}

    def add(eq, pos, c):
        t = pos_index.get(pos)
        if t is not None:
            row = eqs.setdefault(eq, {})
            row[t] = row.get(t, ZERO) + c

    for (a, b), cell in A.law.items():
        s1, s2 = _rule_signs(A, parity, a, b)
        for k, c in cell.items():
            for x in range(n):
                add((a, b, x), (x, k), c)
                add((x, b, k), (a, x), -s1 * c)
                add((a, x, k), (b, x), -s2 * c)

    # distinct nonzero equations in (i, j, k) order
    rows = dict.fromkeys(tuple(sorted((t, c) for t, c in eqs[eq].items() if c))
                         for eq in sorted(eqs))
    rows.pop((), None)
    solutions = nullspace(Matrix(dense_rows(rows, width), width))
    out = []
    for vec in solutions:
        entries = [[ZERO] * n for _ in range(n)]
        for t, (k, l) in enumerate(positions):
            entries[k][l] = vec[t]
        out.append(SuperDerivation(parity, Matrix(entries)))
    return DerivationSpace(parity, out)


def inner_space(A, parity):
    """Span of the multiplication operators of the given parity.

    Left multiplications for the lie kind, right multiplications for the
    leibniz kind; the basis is canonicalized by row reduction of the
    flattened matrices.
    """
    side = "left" if A.kind == LIE else "right"
    n = A.dim
    flats = []
    for label in A.combined_basis:
        if A.parity(label) != parity:
            continue
        M = multiplication_matrix(A, A.basis_element(label), side)
        flats.append(M.flatten())
    reduced = row_space_basis(flats, n * n)
    out = []
    for vec in reduced:
        entries = [list(vec[i * n:(i + 1) * n]) for i in range(n)]
        out.append(SuperDerivation(parity, Matrix(entries)))
    return DerivationSpace(parity, out)


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
        rows = sparse_rows(D.matrix.flatten() for D in inner.basis)
        exprs = [pivot_coefficients(rows, D.matrix.flatten()) for D in der.basis]
        report["dim_der_%s" % tag] = der.dim
        report["dim_inner_%s" % tag] = inner.dim
        report["outer_%s" % tag] = exprs.count(None)
        report["expressions"][tag] = exprs
    report["all_inner"] = not (report["outer_even"] or report["outer_odd"])
    return report
