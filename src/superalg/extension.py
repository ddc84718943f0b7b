"""Solvable extensions of a nilpotent algebra by prescribed torus actions.

An ExtensionSpec holds the nilpotent algebra, the new torus labels, and one
(left, right) action pair per torus label as sparse rows, checked by
_check_parity_blocks.  _extension_law, the one place a torus is adjoined,
writes the extended law from those rows; semidirect_extension returns it
only when the kind's defining identity holds, and otherwise raises
IdentityViolation carrying the offending triples.  _parameter_solutions
solves exactly for the left-action parameters of theorems 5.1 and 6.1,
given the chains they act on and the right actions, from the residuals
core._residuals reads off one such law, with one kernel call;
nilradical_verdict checks a nilradical candidate, and its condition (c)
decides nil-independence of a diagonal torus.
"""

from math import lcm

from .linalg import NotNilpotent, _jordan_blocks, _kernel, _reduce, pivot_coefficients
from .core import (EVEN, LIE, SuperAlgebra, _ad, _integer_cells, _label_cells, _residuals,
                   validate)
from .invariants import product_space, whole_space


class IdentityViolation(Exception):
    """The assembled extension fails the defining identity."""

    def __init__(self, report):
        self.report = report
        first = report.violations[0] if report.violations else None
        super().__init__("extension violates the %s identity on %d triples, first %r"
                         % (report.kind, len(report.violations),
                            first.labels if first else None))


def _diagonal_rows(weights, n):
    """Sparse rows of the diagonal map on n indices with the nonzero weights[i]."""
    return [[(i, weights[i])] if weights.get(i) else [] for i in range(n)]


def _check_parity_blocks(A, parity, rows):
    """The sparse rows of a dim x dim map (row i lists (j, entry (i, j))),
    each as a list sorted by column with its zero values dropped, after
    checking that no row repeats a column and that the map moves each basis
    vector's parity by `parity`."""
    n, par = A.dim, A.parities
    if len(rows) != n:
        raise ValueError("matrix must be %dx%d" % (n, n))
    out = []
    for i, row in enumerate(rows):
        row = sorted(row)
        kept = []
        for a, (j, v) in enumerate(row):
            if not 0 <= j < n:
                raise ValueError("matrix must be %dx%d" % (n, n))
            if a and row[a - 1][0] == j:
                raise ValueError("row %d repeats column %d" % (i, j))
            if v:
                if par[i] != par[j] ^ parity:
                    raise ValueError("entry (%d, %d) breaks the parity-%d block structure"
                                     % (i, j, parity))
                kept.append((j, v))
        out.append(kept)
    return out


class ExtensionSpec:
    """Extension data: nilradical, torus labels, per-label action pair.

    actions maps each torus label to a (left, right) pair of sparse rows
    acting on the nilradical in its combined basis: row i lists (j,
    coefficient of e_i in the image of e_j) in any column order, and a
    repeated column is refused; a bare action is accepted for the Lie
    kind, where the right action is forced to be minus the left one.
    `action_rows` keeps every pair, each row sorted by column with its
    zero values dropped.  torus_brackets optionally maps (label, label)
    pairs to Elements over the extended basis (default zero).
    """

    def __init__(self, nilradical, torus_labels, actions, torus_brackets=None):
        self.nilradical = nilradical
        self.torus_labels = tuple(torus_labels)
        labels = set(nilradical.combined_basis)
        if len(set(self.torus_labels)) != len(self.torus_labels):
            raise ValueError("duplicate torus labels")
        for t in self.torus_labels:
            if t in labels:
                raise ValueError("torus label %r collides with the nilradical basis" % (t,))
        fixed = {}
        for t in self.torus_labels:
            pair = actions[t]
            left, right = pair if isinstance(pair, tuple) else (pair, None)
            left = _check_parity_blocks(nilradical, EVEN, left)
            if right is not None:
                right = _check_parity_blocks(nilradical, EVEN, right)
            if nilradical.kind == LIE:
                minus = [[(j, -v) for j, v in row] for row in left]
                if right is None:
                    right = minus
                elif right != minus:
                    raise ValueError("the Lie kind forces right = -left for %r" % (t,))
            elif right is None:
                raise ValueError("the Leibniz kind needs an explicit right action for %r"
                                 % (t,))
            fixed[t] = (left, right)
        self.action_rows = fixed
        self.torus_brackets = dict(torus_brackets or {})


def _extension_law(nil, torus, action_rows, torus_brackets):
    """The extension of nil by the even torus labels, unvalidated.

    The result has basis (nil's even labels, torus labels | nil's odd
    labels), the inherited law of nil, [t, e_j] = left action and [e_j, t]
    = right action, read from the nonzero entries of the (left, right)
    rows action_rows[t] (entry (i, j) is the coefficient of e_i in the
    image of e_j), and the given brackets among torus labels.
    """
    (d, law), even = nil.integer_law, nil.even_basis + torus
    index = {l: i for i, l in enumerate(even + nil.odd_basis)}
    new = [index[l] for l in nil.combined_basis]
    table = {(new[i], new[j]): {new[k]: c for k, c in cell.items()}
             for (i, j), cell in law.items()}
    for a, t in enumerate(torus, nil.dim_even):
        for i, (left, right) in enumerate(zip(*action_rows[t])):
            for j, v in left:
                table.setdefault((a, new[j]), {})[new[i]] = d * v
            for j, v in right:
                table.setdefault((new[j], a), {})[new[i]] = d * v
    for key, cell in _label_cells(index, torus_brackets).items():
        table[key] = {k: d * c for k, c in cell.items()}
    D, cells = _integer_cells(table)
    return SuperAlgebra.from_law(nil.kind, even, nil.odd_basis, (d * D, cells))


def semidirect_extension(spec):
    """The extension _extension_law writes from spec, returned when the
    kind's defining identity holds; otherwise IdentityViolation is raised
    with the validation report."""
    extended = _extension_law(spec.nilradical, spec.torus_labels, spec.action_rows,
                              spec.torus_brackets)
    report = validate(extended)
    if not report.ok:
        raise IdentityViolation(report)
    return extended


def _diagonal(lines):
    """The diagonal of a map given by sparse rows (or columns), as a sparse
    row, or None when the map is not diagonal."""
    if any(j != i for i, line in enumerate(lines) for j, _ in line):
        return None
    return [line[0] for line in lines if line]


def _restricted_operator(A, direction, candidate):
    """Action of basis direction x on the candidate, as sparse integer
    columns, or None when the candidate is not invariant: left
    multiplication for the Lie kind, right for the Leibniz kind.  The basis
    is the candidate's rows r_c and the operator is scaled by d and the lcm
    L of their leads, so column a holds w[pivot c] * L / lead c for w =
    d*[x, r_a]; neither change alters the Jordan profile or the diagonal."""
    rows, ws = candidate.rows, _ad(A, [(direction, 1)], candidate.rows, A.kind == LIE)
    scale = lcm(*[row[0][1] for row in rows])
    cols = []
    for a in range(len(rows)):
        coeffs = pivot_coefficients(rows, ws.get(a, {}))
        if coeffs is None:
            return None
        cols.append([(c, v * (scale // rows[c][0][1])) for c, v in enumerate(coeffs) if v])
    return cols


def nilradical_verdict(A, candidate):
    """Check the four nilradical conditions for a candidate subspace.

    (a) candidate is a two-sided ideal; (b) the candidate is nilpotent as
    an algebra; (c) every complement basis direction acts non-nilpotently
    on the candidate, and so does every nonzero combination of them when
    all act diagonally (else only the basis directions are checked); (d)
    the derived subalgebra of A lies inside the candidate.  The verdict is
    the conjunction.
    """
    whole = whole_space(A)
    is_ideal = (product_space(A, whole, candidate) <= candidate
                and product_space(A, candidate, whole) <= candidate)

    # the lower central series of the candidate, until it vanishes or stops shrinking
    term = candidate
    for _ in range(A.dim + 1):
        nxt = product_space(A, term, candidate)
        if nxt.dim == 0 or nxt == term:
            break
        term = nxt
    restriction_nilpotent = nxt.dim == 0

    pivot_cols = {row[0][0] for row in candidate.rows}
    directions = [j for j in range(A.dim) if j not in pivot_cols]
    per_direction = {}
    diagonals = []
    for j in directions:
        label = A.combined_basis[j]
        op = _restricted_operator(A, j, candidate)
        if op is None:
            per_direction[label] = False
            continue
        try:
            _jordan_blocks(op)
            per_direction[label] = False
        except NotNilpotent:
            per_direction[label] = True
        diagonals.append(_diagonal(op))
    complement_ok = all(per_direction.values())
    if complement_ok and None not in diagonals:
        # a combination of diagonal operators is nilpotent exactly when its
        # weights cancel, so the weights must be independent
        complement_ok = len(_reduce(diagonals)[1]) == len(directions)

    derived = product_space(A, whole, whole)
    derived_contained = derived <= candidate

    verdict = is_ideal and restriction_nilpotent and complement_ok and derived_contained
    return {
        "is_ideal": is_ideal,
        "restriction_nilpotent": restriction_nilpotent,
        "complement_directions": per_direction,
        "complement_acts_nonnilpotently": complement_ok,
        "derived_subalgebra_contained": derived_contained,
        "verdict": verdict,
        "codimension": A.dim - candidate.dim,
    }


def _parameter_solutions(nil, supports, rights):
    """The solutions b in Q^r of the triples (t_c, e_q, e_r) and (e_q, t_c,
    e_r) of the Leibniz identity, for r torus labels t_c acting on nil on
    the left by -b_c on the indices supports[c] and on the right by the
    sparse rows rights[c]: None, or (b*, directions), b* the solution with
    its free parameters at 0, integral values as ints.  The residuals are
    linear in each action, so they are read off one law, nil extended by
    2r labels: label c acts by rights[c] alone, its residuals the constant
    in column r, and label r + c by -1 on supports[c] alone, its residuals
    the coefficient of b_c.  One _kernel call solves these rows, and column
    r is free exactly when a solution exists.  The triples with two torus
    labels in front, quadratic in b, are left to a validation at b*.
    """
    r, n, ne = len(rights), nil.dim, nil.dim_even
    none = [[] for _ in range(n)]
    actions = {c: (none, right) for c, right in enumerate(rights)}
    actions.update({r + c: (_diagonal_rows(dict.fromkeys(support, -1), n), none)
                    for c, support in enumerate(supports)})
    ext = _extension_law(nil, tuple(range(2 * r)), actions, {})
    torus, eqs = range(ne, ne + 2 * r), {}
    for (x, y, z), res in _residuals(ext).items():
        if z in torus or (x in torus) == (y in torus):
            continue
        place, a, q = (0, x - ne, y) if x in torus else (1, y - ne, x)
        c, col = (a, r) if a < r else (a - r, a - r)
        for k, v in res.items():
            if v:
                eqs.setdefault((c, place, q, z, k), {})[col] = v
    kernel = _kernel([eq.items() for eq in eqs.values()], r + 1)
    if not kernel or kernel[-1][0][0] != r:
        return None
    vecs = [[x.numerator if x.denominator == 1 else x for x in map(v.get, range(r), [0] * r)]
            for v in map(dict, kernel)]
    return vecs[-1], vecs[:-1]
