"""Independent oracle for identity validation and derivation assembly.

Deliberately the direct reading of the definitions: every basis triple is
visited, every bracket is expanded over labels, and every derivation
equation is assembled as a dense row from scratch.  It reads the algebra
only through combined_basis, parity and basis_bracket (the label form of
the law) and shares no code with the package; the elimination is the
oracle in naive_gauss.py.  A homogeneous map is a DenseMap: its parity and
its n x n rows, entry (k, j) the coefficient of e_k in the image of e_j.
"""

from collections import namedtuple
from fractions import Fraction

from naive_gauss import naive_nullspace


def _bracket(A, u, v):
    """[u, v] for label -> coefficient dicts, expanded over basis labels."""
    out = {}
    for lu, cu in u.items():
        for lv, cv in v.items():
            for lr, cr in A.basis_bracket(lu, lv).items():
                out[lr] = out.get(lr, 0) + cu * cv * cr
    return {l: c for l, c in out.items() if c}


def _combine(*terms):
    """Sum of (sign, dict) terms, zero coefficients dropped."""
    out = {}
    for sign, d in terms:
        for l, c in d.items():
            out[l] = out.get(l, 0) + sign * c
    return {l: c for l, c in out.items() if c}


def _br(A, a, b):
    return dict(A.basis_bracket(a, b).items())


def naive_validate(A, kind):
    """Violations as (identity, labels, residual dict): grading on all pairs,
    then skew (i <= j), then the identity on all triples, in basis order."""
    basis = A.combined_basis
    p = A.parity
    out = []
    for a in basis:
        for b in basis:
            bad = {l: c for l, c in _br(A, a, b).items() if p(l) != p(a) ^ p(b)}
            if bad:
                out.append(("grading", (a, b), bad))
    if kind == "lie_super":
        for i, a in enumerate(basis):
            for b in basis[i:]:
                sign = -1 if p(a) and p(b) else 1
                res = _combine((1, _br(A, a, b)), (sign, _br(A, b, a)))
                if res:
                    out.append(("skew", (a, b), res))
    for x in basis:
        for y in basis:
            for z in basis:
                if kind == "lie_super":
                    # (-1)^{|z||x|}[x,[y,z]] + (-1)^{|x||y|}[y,[z,x]]
                    #   + (-1)^{|y||z|}[z,[x,y]] = 0
                    res = _combine(
                        ((-1) ** (p(z) * p(x)), _bracket(A, {x: 1}, _br(A, y, z))),
                        ((-1) ** (p(x) * p(y)), _bracket(A, {y: 1}, _br(A, z, x))),
                        ((-1) ** (p(y) * p(z)), _bracket(A, {z: 1}, _br(A, x, y))))
                    name = "jacobi"
                else:
                    # [x,[y,z]] = [[x,y],z] - (-1)^{|y||z|}[[x,z],y]
                    res = _combine(
                        (1, _bracket(A, {x: 1}, _br(A, y, z))),
                        (-1, _bracket(A, _br(A, x, y), {z: 1})),
                        ((-1) ** (p(y) * p(z)), _bracket(A, _br(A, x, z), {y: 1})))
                    name = "leibniz"
                if res:
                    out.append((name, (x, y, z), res))
    return out


def naive_multiplication_matrix(A, x, side):
    """Rows of y -> [x, y] (left) or y -> [y, x] (right) for a basis label x."""
    basis = A.combined_basis
    rows = [[Fraction(0)] * len(basis) for _ in basis]
    for j, y in enumerate(basis):
        image = _br(A, x, y) if side == "left" else _br(A, y, x)
        for k, z in enumerate(basis):
            rows[k][j] = Fraction(image.get(z, 0))
    return rows


def naive_derivation_basis(A, parity):
    """Derivation basis as n x n row lists, from one dense row per triple.

    The unknowns are the entries D[k][l] allowed by the parity, ordered by
    the parity of the source column l (even first), then row-major.
    """
    basis = A.combined_basis
    n = len(basis)
    par = [A.parity(l) for l in basis]
    unknowns = [(k, l) for source in (0, 1) for k in range(n) for l in range(n)
                if par[l] == source and par[k] == (source + parity) % 2]
    column = {u: t for t, u in enumerate(unknowns)}
    rows = []
    for i in range(n):
        for j in range(n):
            ij = _br(A, basis[i], basis[j])
            if A.kind == "lie_super":
                s1, s2 = 1, (-1) ** (parity * par[i])
            else:
                s1, s2 = (-1) ** (parity * par[j]), 1
            for k in range(n):
                # coordinate k of D[e_i, e_j] - s1 [D e_i, e_j] - s2 [e_i, D e_j]
                row = [Fraction(0)] * len(unknowns)
                for l in range(n):
                    c = ij.get(basis[l], 0)
                    if c and (k, l) in column:
                        row[column[(k, l)]] += c
                    c = _br(A, basis[l], basis[j]).get(basis[k], 0)
                    if c and (l, i) in column:
                        row[column[(l, i)]] -= s1 * c
                    c = _br(A, basis[i], basis[l]).get(basis[k], 0)
                    if c and (l, j) in column:
                        row[column[(l, j)]] -= s2 * c
                rows.append(row)
    out = []
    for vec in naive_nullspace(rows, len(unknowns)):
        D = [[Fraction(0)] * n for _ in range(n)]
        for t, (k, l) in enumerate(unknowns):
            D[k][l] = vec[t]
        out.append(D)
    return out


DenseMap = namedtuple("DenseMap", "parity rows")


def dense_map(D):
    """A SuperDerivation (parity, dim, sparse row-major entries) as a DenseMap."""
    n = D.dim
    rows = [[Fraction(0)] * n for _ in range(n)]
    for t, v in D.entries:
        rows[t // n][t % n] = Fraction(v)
    return DenseMap(D.parity, rows)


def _apply(A, rows, u):
    """The map with these rows applied to a label -> coefficient dict."""
    basis = A.combined_basis
    out = {}
    for j, l in enumerate(basis):
        if u.get(l):
            for k, z in enumerate(basis):
                out[z] = out.get(z, 0) + rows[k][j] * u[l]
    return {l: c for l, c in out.items() if c}


def is_superderivation(A, D):
    """Check the rule on all ordered basis pairs for a DenseMap D.

    Returns (ok, violations), each violation (left label, right label,
    residual dict) with residual = rule right side minus left side:
    lie kind [D a, b] + (-1)^(s|a|) [a, D b] - D[a, b], leibniz kind
    (-1)^(s|b|) [D a, b] + [a, D b] - D[a, b].  Raises ValueError when D
    does not move each basis vector's parity by its own parity s.
    """
    basis = A.combined_basis
    p = A.parity
    for k, z in enumerate(basis):
        for j, l in enumerate(basis):
            if D.rows[k][j] and p(z) != (p(l) + D.parity) % 2:
                raise ValueError("entry (%d, %d) breaks the parity blocks" % (k, j))
    out = []
    for a in basis:
        for b in basis:
            if A.kind == "lie_super":
                s1, s2 = 1, (-1) ** (D.parity * p(a))
            else:
                s1, s2 = (-1) ** (D.parity * p(b)), 1
            res = _combine((s1, _bracket(A, _apply(A, D.rows, {a: 1}), {b: 1})),
                           (s2, _bracket(A, {a: 1}, _apply(A, D.rows, {b: 1}))),
                           (-1, _apply(A, D.rows, _br(A, a, b))))
            if res:
                out.append((a, b, res))
    return not out, out


def super_commutator(D1, D2):
    """D1 D2 - (-1)^(s1 s2) D2 D1 for DenseMaps, of parity s1 + s2."""
    n = len(D1.rows)
    sign = (-1) ** (D1.parity * D2.parity)

    def mul(x, y):
        return [[sum(x[i][k] * y[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)]
    ab, ba = mul(D1.rows, D2.rows), mul(D2.rows, D1.rows)
    return DenseMap((D1.parity + D2.parity) % 2,
                    [[x - sign * y for x, y in zip(r, s)] for r, s in zip(ab, ba)])
