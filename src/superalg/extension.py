"""Solvable extensions of a nilpotent algebra by prescribed torus actions.

An ExtensionSpec holds the nilpotent algebra, the new torus labels, and one
(left, right) action pair per torus label as sparse rows.  semidirect_extension
assembles the extended bracket table from those rows and returns it only
when the kind's defining identity holds; otherwise it raises
IdentityViolation carrying the offending triples.  leibniz_torus_specs
gives the candidate specs of the 5.1 and 6.1 sweeps, and nilradical_verdict
checks a nilradical candidate; its condition (c) decides nil-independence
of a diagonal torus.
"""

from math import lcm

from .linalg import NotNilpotent, _frac, _jordan_blocks, _reduce, pivot_coefficients
from .core import (EVEN, LIE, SuperAlgebra, _adjoin_torus, _integer_cells, _label_cells,
                   _products, validate)
from .derivations import _check_parity_blocks, maximal_torus
from .invariants import product_space, whole_space
from .families import _chains, _diagonal_rows, _filiform, _member_blocks, _torus_labels, member


class IdentityViolation(Exception):
    """The assembled extension fails the defining identity."""

    def __init__(self, report):
        self.report = report
        first = report.violations[0] if report.violations else None
        super().__init__("extension violates the %s identity on %d triples, first %r"
                         % (report.kind, len(report.violations),
                            first.labels if first else None))


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


def semidirect_extension(spec):
    """Assemble the extension and validate it.

    The result has basis (nilradical even labels, torus labels | nilradical
    odd labels), the inherited nilradical law, [t, e_j] = left action and
    [e_j, t] = right action, read from the nonzero entries of each action's
    rows (entry (i, j) is the coefficient of e_i in the image of e_j), and
    the given brackets among torus labels.
    """
    nil, torus = spec.nilradical, spec.torus_labels
    d, table = _adjoin_torus(nil, [spec.action_rows[t] for t in torus])
    even = nil.even_basis + torus
    index = {l: i for i, l in enumerate(even + nil.odd_basis)}
    for key, cell in _label_cells(index, spec.torus_brackets).items():
        table[key] = {k: d * c for k, c in cell.items()}
    D, cells = _integer_cells(table)
    extended = SuperAlgebra.from_law(nil.kind, even, nil.odd_basis, (d * D, cells))
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
    rows, x = candidate.rows, [(direction, 1)]
    if A.kind == LIE:
        ws = next(_products(A, [x], rows))
    else:
        ws = {a: w[0] for a, w in enumerate(_products(A, rows, [x])) if w}
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


def leibniz_torus_specs(family, even, odd):
    """Sign point -> candidate torus spec on the LP or NP member at these
    sizes; the nilradical and the right actions are built once, so a sweep
    builds only the left actions of each point.

    The right actions are the maximal torus of the nilradical, which is
    the solvable family's: t1 weighs x1 by 1 and each chain label by its
    place in the chain, counted from 0, and every other torus label is the
    identity on its chain.  On NP(...) the point is (b, bp), b with one
    entry per torus label t1..t_{k+1} and bp one per tp1..tp_p; the left
    actions are -b1 on x1 for t1, -b_{j+2} on even block j+1 for t_{j+2},
    and -bp_j on odd block j for tp_j.  The extension validates exactly at
    b1 = 1 with all other parameters 0 (when every block is long enough to
    force its parameter), which reproduces SNP(...).  On LP^{n,m} the point
    is (b1, b2, b3), and the left actions carry the undetermined
    coefficients (b1 - 1) on x1, (b2 - 1) on x2..xn and (b3 - 1) on the odd
    part, which is the NP spec at 1 - b.  The extension validates only at
    (0, 1, 1), which reproduces SLP^{n,m}.
    """
    even_chains, odd_chains = _chains(*_member_blocks(family, even, odd))
    nil = member(family, even, odd)
    torus = _torus_labels("t", even_chains, odd_chains)
    if family == "LP":
        torus = _filiform(tuple(torus))
    rights = [_diagonal_rows(dict(w), nil.dim) for w in maximal_torus(nil)]
    supports = [[nil.index(l) for l in c] for c in [["x1"]] + even_chains + odd_chains]

    def exact(v):  # an int stays an int; Fraction and "p/q" go through _frac
        return v if isinstance(v, int) else _frac(v)

    def spec(point):
        if family == "LP":
            point = [1 - exact(v) for v in point]
            point = point[:2], point[2:]
        b, bp = point
        if len(b) != len(even_chains) + 1 or len(bp) != len(odd_chains):
            raise ValueError("need %d even and %d odd parameters"
                             % (len(even_chains) + 1, len(odd_chains)))
        lefts = [_diagonal_rows(dict.fromkeys(s, -exact(v)), nil.dim)
                 for s, v in zip(supports, list(b) + list(bp))]
        return ExtensionSpec(nil, torus, dict(zip(torus, zip(lefts, rights))))
    return spec
