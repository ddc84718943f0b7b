"""Solvable extensions of a nilpotent algebra by prescribed torus actions.

An ExtensionSpec holds the nilpotent algebra, the new torus labels, and one
(left, right) action matrix pair per torus label.  semidirect_extension
assembles the extended bracket table and returns it only when the kind's
defining identity holds; otherwise it raises IdentityViolation carrying the
offending triples.  The module also checks nil-independence of diagonal
actions and verifies nilradical candidates.
"""

from fractions import Fraction

from .linalg import (Matrix, NotNilpotent, nilpotent_jordan_blocks, pivot_coefficients,
                     rank)
from .core import EVEN, LIE, Element, SuperAlgebra, multiplication_matrix, validate
from .derivations import _check_parity_blocks
from .invariants import product_space, whole_space
from .families import (_check_blocks, _check_filiform, _filiform, _partial_sums,
                       model_nilpotent_leibniz, model_nilpotent_lie)


class IdentityViolation(Exception):
    """The assembled extension fails the defining identity."""

    def __init__(self, report):
        self.report = report
        first = report.violations[0] if report.violations else None
        super().__init__("extension violates the %s identity on %d triples, first %r"
                         % (report.kind, len(report.violations),
                            first.labels if first else None))


class NonDiagonalAction(Exception):
    """Nil-independence is only decided for diagonal actions."""


class ExtensionSpec:
    """Extension data: nilradical, torus labels, per-label action pair.

    actions maps each torus label to a (left, right) matrix pair acting on
    the nilradical in its combined basis; a bare matrix is accepted for the
    Lie kind, where the right action is forced to be minus the left one.
    torus_brackets optionally maps (label, label) pairs to Elements over the
    extended basis (default zero).
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
            if isinstance(pair, Matrix):
                left, right = pair, None
            else:
                left, right = pair
            _check_parity_blocks(nilradical, EVEN, left)
            if nilradical.kind == LIE:
                if right is None:
                    right = -left
                else:
                    _check_parity_blocks(nilradical, EVEN, right)
                    if right != -left:
                        raise ValueError("the Lie kind forces right = -left for %r" % (t,))
            else:
                if right is None:
                    raise ValueError("the Leibniz kind needs an explicit right action for %r"
                                     % (t,))
                _check_parity_blocks(nilradical, EVEN, right)
            fixed[t] = (left, right)
        self.actions = fixed
        self.torus_brackets = dict(torus_brackets or {})


def semidirect_extension(spec):
    """Assemble the extension and validate it.

    The result has basis (nilradical even labels, torus labels | nilradical
    odd labels), the inherited nilradical law, [t, x] = left action,
    [x, t] = right action, and the given brackets among torus labels.
    """
    nil = spec.nilradical
    table = dict(nil.brackets)
    for t in spec.torus_labels:
        left, right = spec.actions[t]
        for j, b in enumerate(nil.combined_basis):
            lcol = nil.element_from_coords(left.column(j))
            rcol = nil.element_from_coords(right.column(j))
            if not lcol.is_zero():
                table[(t, b)] = lcol
            if not rcol.is_zero():
                table[(b, t)] = rcol
    for key, el in spec.torus_brackets.items():
        el = el if isinstance(el, Element) else Element(el)
        if not el.is_zero():
            table[key] = el
    extended = SuperAlgebra(nil.kind,
                            tuple(nil.even_basis) + spec.torus_labels,
                            nil.odd_basis, table)
    report = validate(extended)
    if not report.ok:
        raise IdentityViolation(report)
    return extended


def nil_independence_check(spec):
    """Whether the diagonal weight vectors of the actions are independent.

    For diagonal maps a linear combination is nilpotent exactly when its
    diagonal vanishes, so independence of the diagonals decides
    nil-independence.  The torus acts as derivations through left
    multiplication for the Lie kind and right multiplication for the
    Leibniz kind; that matrix must be diagonal, else the check refuses.
    """
    weights = []
    side = 0 if spec.nilradical.kind == LIE else 1
    for t in spec.torus_labels:
        diag = _diagonal(spec.actions[t][side])
        if diag is None:
            raise NonDiagonalAction("action of %r is not diagonal" % (t,))
        weights.append(diag)
    return rank(Matrix(weights)) == len(spec.torus_labels)


def _diagonal(M):
    """The diagonal of a square matrix, or None when it is not diagonal."""
    if any(v for i, row in enumerate(M.entries) for j, v in enumerate(row) if i != j):
        return None
    return [M.entries[i][i] for i in range(M.rows)]


def _restricted_operator(A, direction, candidate):
    """Action of a complement direction on the candidate, in its basis.

    Returns None when the candidate is not invariant under the operator.
    The side follows the kind: right multiplication for the Leibniz kind,
    left for the Lie kind.
    """
    side = "left" if A.kind == LIE else "right"
    M = multiplication_matrix(A, direction, side)
    cols = [pivot_coefficients(candidate.rows, M.apply(v)) for v in candidate.basis]
    return None if None in cols else Matrix.from_columns(cols, candidate.dim)


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

    chain = [candidate]
    restriction_nilpotent = False
    for _ in range(A.dim + 1):
        nxt = product_space(A, chain[-1], candidate)
        if nxt.dim == 0:
            restriction_nilpotent = True
            break
        if nxt == chain[-1]:
            break
        chain.append(nxt)

    pivot_cols = {row[0][0] for row in candidate.rows}
    directions = [l for j, l in enumerate(A.combined_basis) if j not in pivot_cols]
    per_direction = {}
    diagonals = []
    for label in directions:
        op = _restricted_operator(A, A.basis_element(label), candidate)
        if op is None:
            per_direction[label] = False
            continue
        try:
            nilpotent_jordan_blocks(op)
            per_direction[label] = False
        except NotNilpotent:
            per_direction[label] = True
        diagonals.append(_diagonal(op))
    complement_ok = all(per_direction.values())
    if complement_ok and None not in diagonals:
        # a combination of diagonal operators is nilpotent exactly when its
        # weights cancel, so the weights must be independent
        complement_ok = rank(Matrix(diagonals)) == len(directions)

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


def _diag(labels, values, combined):
    idx = {l: i for i, l in enumerate(combined)}
    diag = [Fraction(0)] * len(combined)
    for l, v in zip(labels, values):
        diag[idx[l]] = Fraction(v)
    return Matrix.diagonal(diag)


def _filiform_spec(spec, n, m, family):
    """The one-block spec `spec` on the filiform nilradical `family`^{n,m}."""
    return ExtensionSpec(_filiform(spec.nilradical, "%s^{%d,%d}" % (family, n, m)),
                         _filiform(spec.torus_labels), _filiform(spec.actions))


def filiform_lie_torus_spec(n, m):
    """The diagonal torus acting on L^{n,m} whose extension is SL^{n,m}."""
    _check_filiform(n, m)
    return _filiform_spec(model_nilpotent_lie_torus_spec((n - 1,), (m,)), n, m, "L")


def model_nilpotent_lie_torus_spec(even_blocks, odd_blocks):
    """The diagonal torus on N(...) whose extension is SN(...)."""
    even_blocks, odd_blocks = _check_blocks(even_blocks, odd_blocks)
    k, p = len(even_blocks), len(odd_blocks)
    N = _partial_sums(even_blocks)
    M = _partial_sums(odd_blocks)
    nil = model_nilpotent_lie(even_blocks, odd_blocks)
    basis = nil.combined_basis
    xs = ["x%d" % i for i in range(1, N[k] + 2)]
    ys = ["y%d" % j for j in range(1, M[p] + 1)]
    actions = {"t1": _diag(xs + ys,
                           list(range(1, N[k] + 2)) + list(range(1, M[p] + 1)), basis)}
    labels = ["t1"]
    for j in range(k):
        block = ["x%d" % (N[j] + i) for i in range(2, even_blocks[j] + 2)]
        labels.append("t%d" % (j + 2))
        actions["t%d" % (j + 2)] = _diag(block, [1] * len(block), basis)
    for j in range(p):
        block = ["y%d" % (M[j] + i) for i in range(1, odd_blocks[j] + 1)]
        labels.append("tp%d" % (j + 1))
        actions["tp%d" % (j + 1)] = _diag(block, [1] * len(block), basis)
    return ExtensionSpec(nil, labels, actions)


def filiform_leibniz_torus_spec(n, m, b):
    """Candidate torus actions on LP^{n,m} with sign parameters (b1, b2, b3).

    The right actions are the solvable family's; the left actions carry the
    undetermined coefficients (b1 - 1) on x1, (b2 - 1) on x2..xn and
    (b3 - 1) on the odd part, which is the block spec at 1 - b.  The
    extension validates only at (0, 1, 1), which reproduces SLP^{n,m}.
    """
    _check_filiform(n, m)
    c1, c2, c3 = (1 - Fraction(v) for v in b)
    spec = model_nilpotent_leibniz_torus_spec((n - 1,), (m,), (c1, c2), (c3,))
    return _filiform_spec(spec, n, m, "LP")


def model_nilpotent_leibniz_torus_spec(even_blocks, odd_blocks, b, bp):
    """Candidate torus actions on NP(...) with sign parameters b, bp.

    b has one entry per torus label t1..t_{k+1}, bp one per tp1..tp_p.  The
    right actions are the solvable family's; the left actions are -b1 on
    x1 for t1, -b_{j+2} on even block j+1 for t_{j+2}, and -bp_j on odd
    block j for tp_j.  The extension validates exactly at b1 = 1 with all
    other parameters 0 (when every block is long enough to force its
    parameter), which reproduces SNP(...).
    """
    even_blocks, odd_blocks = _check_blocks(even_blocks, odd_blocks)
    k, p = len(even_blocks), len(odd_blocks)
    if len(b) != k + 1 or len(bp) != p:
        raise ValueError("need %d even and %d odd parameters" % (k + 1, p))
    N = _partial_sums(even_blocks)
    M = _partial_sums(odd_blocks)
    nil = model_nilpotent_leibniz(even_blocks, odd_blocks)
    basis = nil.combined_basis

    labels = ["t%d" % i for i in range(1, k + 2)] + ["tp%d" % i for i in range(1, p + 1)]
    actions = {}

    right1_labels, right1_vals = ["x1"], [Fraction(1)]
    for j in range(k):
        for i in range(3, even_blocks[j] + 2):
            right1_labels.append("x%d" % (N[j] + i))
            right1_vals.append(Fraction(i - 2))
    for j in range(p):
        for i in range(2, odd_blocks[j] + 1):
            right1_labels.append("y%d" % (M[j] + i))
            right1_vals.append(Fraction(i - 1))
    actions["t1"] = (_diag(["x1"], [-Fraction(b[0])], basis),
                     _diag(right1_labels, right1_vals, basis))
    for j in range(k):
        block = ["x%d" % (N[j] + i) for i in range(2, even_blocks[j] + 2)]
        actions["t%d" % (j + 2)] = (
            _diag(block, [-Fraction(b[j + 1])] * len(block), basis),
            _diag(block, [1] * len(block), basis))
    for j in range(p):
        block = ["y%d" % (M[j] + i) for i in range(1, odd_blocks[j] + 1)]
        actions["tp%d" % (j + 1)] = (
            _diag(block, [-Fraction(bp[j])] * len(block), basis),
            _diag(block, [1] * len(block), basis))
    return ExtensionSpec(nil, labels, actions)
