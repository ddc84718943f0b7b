"""Superderivations: the defining rule, the solution space, inner maps.

A homogeneous map D of parity s is a superderivation when for all
homogeneous a, b

    lie kind:      D([a,b]) = [D(a),b] + (-1)^(s|a|) [a,D(b)]
    leibniz kind:  D([a,b]) = (-1)^(s|b|) [D(a),b] + [a,D(b)]

derivation_space solves the rule as a linear system over the matrix
entries of D, with integer coefficients from A.integer_law (half of it
when A.skew_symmetric), handed to the kernel as sparse rows; inner_space
spans the multiplication operators (left for the lie kind, right for the
leibniz kind) read from A.integer_law; innerness_report compares the two
per parity.  maximal_torus gives the diagonal derivations as weight
vectors; extension adjoins them as action rows.
"""

from bisect import bisect

from .linalg import _integer_row, _kernel, _monic, _reduce, pivot_coefficients
from .core import EVEN, ODD, LIE


class SuperDerivation:
    """A homogeneous linear map on a dim-dimensional algebra: `entries`
    lists its nonzero matrix entries row-major, as (k*dim + j, coefficient
    of e_k in D(e_j)) in index order, the sparse row form of linalg."""

    def __init__(self, parity, dim, entries):
        if parity not in (EVEN, ODD):
            raise ValueError("parity must be 0 or 1")
        self.parity = parity
        self.dim = dim
        self.entries = entries

    def __eq__(self, other):
        return isinstance(other, SuperDerivation) and (
            self.parity, self.dim, self.entries) == (other.parity, other.dim, other.entries)

    def __repr__(self):
        return "SuperDerivation(parity=%d, dim=%d)" % (self.parity, self.dim)


def _rule_signs(A, parity, a, b):
    """Signs of [D e_a, e_b] and [e_a, D e_b] in the rule for D[e_a, e_b]."""
    if A.kind == LIE:
        return 1, (-1) ** (parity * A.parities[a])
    return (-1) ** (parity * A.parities[b]), 1


def _unknown_positions(A, parity):
    """Matrix positions (target row, source column) an unknown may occupy.

    Those with par[row] == par[col] ^ parity: the even-source block first,
    then the odd-source block, each row-major, built from the two parities'
    index lists without forming an inadmissible pair."""
    block = [[i for i, p in enumerate(A.parities) if p == q] for q in (EVEN, ODD)]
    return [(k, l) for source in (EVEN, ODD)
            for k in block[source ^ parity] for l in block[source]]


def derivation_space(A, parity):
    """The superderivations of the given parity: a canonical basis, as a list.

    One linear equation per basis triple (i, j, k), keyed by the int
    (i*n + j)*n + k: coordinate k of the rule applied to (e_i, e_j).  Each
    structure constant c of `A.integer_law` (the law times the lcm of its
    denominators, which leaves the solutions unchanged) adds its integer
    terms to the equations it occurs in, visiting only the unknowns in its
    matrix column or row, with the signed multiples of c formed once.  A
    lie-kind law with `A.skew_symmetric` makes the rule on (e_j, e_i) the
    rule on (e_i, e_j) times -(-1)^(|i||j|), so only the terms of the
    equations with i <= j are formed; the row space is the same.  The
    sparse rows go, in no column order, straight to the kernel, where a row
    implied by earlier ones costs only its dot products; its canonical
    basis, which does not depend on the order of the equations, comes back
    as the sparse entries of each matrix.
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
                ab = (a * n + b) * n
                for x, t in in_col[k]:
                    row = eqs.setdefault(ab + x, {})
                    row[t] = row.get(t, 0) + c
            c1, c2 = -s1 * c, -s2 * c
            for x, t in first:
                row = eqs.setdefault((x * n + b) * n + k, {})
                row[t] = row.get(t, 0) + c1
            for x, t in second:
                row = eqs.setdefault((a * n + x) * n + k, {})
                row[t] = row.get(t, 0) + c2

    flat = [k * n + l for k, l in positions]
    return [SuperDerivation(parity, dim=n, entries=sorted((flat[t], v) for t, v in vec))
            for vec in _kernel([row.items() for row in eqs.values()], len(positions))]


def inner_space(A, parity):
    """The multiplication operators of the given parity: a basis, as a list.

    Left multiplications for the lie kind, right multiplications for the
    leibniz kind.  The operator of e_i, times d, is read from
    `A.integer_law` as a sparse row-major row, entry (k, j) being
    coordinate k of [e_i, e_j] (left) or [e_j, e_i] (right); the basis is
    the canonical RREF of those rows, which the factor d does not change.
    """
    n = A.dim
    side = 0 if A.kind == LIE else 1  # the place of e_i in a law key
    ops = {i: [] for i in range(n) if A.parities[i] == parity}
    for key, cell in A.integer_law[1].items():
        if key[side] in ops:
            ops[key[side]].extend((k * n + key[1 - side], c) for k, c in cell.items())
    reduced, _ = _reduce(ops.values())
    return [SuperDerivation(parity, dim=n, entries=_monic(row)) for row in reduced]


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


def maximal_torus(N):
    """A basis of the diagonal derivations of N in its given basis, as
    weight vectors; not exported from the package, since in a basis not
    adapted to a torus of Der N it is smaller than a maximal torus.

    e_i -> w_i e_i is a derivation of either kind exactly when w_k = w_i +
    w_j for each term e_k of each [e_i, e_j].  In a basis adapted to a
    maximal torus of Der N, as the model families' bases are, these maps
    are that torus, of rank at most dim N/[N, N] (Mubarakzyanov 1963).
    One _kernel call over reversed columns solves for the latest weights,
    so each vector is 1 at one free index (x1 or a chain head in the model
    families) and 0 at the others; the vectors come in the order of those
    indices, as sparse rows of (index, weight), integral weights as ints.
    """
    last = N.dim - 1
    eqs = set()
    for (i, j), cell in N.integer_law[1].items():
        for k in cell:
            row = {last - k: 1}
            for c in (last - i, last - j):
                row[c] = row.get(c, 0) - 1
            eqs.add(tuple(sorted(row.items())))
    return [sorted((last - c, x.numerator if x.denominator == 1 else x) for c, x in v)
            for v in reversed(_kernel(list(eqs), N.dim))]
