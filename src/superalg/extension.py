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
                     rank, sparse_rows)
from .core import EVEN, LIE, Element, SuperAlgebra, multiplication_matrix, validate
from .derivations import _check_parity_blocks
from .invariants import product_space, whole_space
from .families import (_chains, _filiform, _member_blocks, _places, _torus_labels,
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
    odd labels), the inherited nilradical law, [t, e_j] = left action and
    [e_j, t] = right action, read from each matrix's nonzero entries (entry
    (i, j) is the coefficient of e_i in the image of e_j), and the given
    brackets among torus labels.
    """
    nil = spec.nilradical
    basis = nil.combined_basis
    table = dict(nil.brackets)
    for t in spec.torus_labels:
        left, right = spec.actions[t]
        for i, (lrow, rrow) in enumerate(zip(sparse_rows(left.entries),
                                             sparse_rows(right.entries))):
            for j, v in lrow:
                table.setdefault((t, basis[j]), {})[basis[i]] = v
            for j, v in rrow:
                table.setdefault((basis[j], t), {})[basis[i]] = v
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

    # the lower central series of the candidate, until it vanishes or stops shrinking
    term = candidate
    for _ in range(A.dim + 1):
        nxt = product_space(A, term, candidate)
        if nxt.dim == 0 or nxt == term:
            break
        term = nxt
    restriction_nilpotent = nxt.dim == 0

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


def _diag(weights, combined):
    """The diagonal matrix on `combined` with the given label weights."""
    return Matrix.diagonal([weights.get(l, 0) for l in combined])


def _filiform_spec(spec, n, m, family):
    """The one-block spec `spec` on the filiform nilradical `family`^{n,m}."""
    return ExtensionSpec(_filiform(spec.nilradical, "%s^{%d,%d}" % (family, n, m)),
                         _filiform(spec.torus_labels), _filiform(spec.actions))


def filiform_lie_torus_spec(n, m):
    """The diagonal torus acting on L^{n,m} whose extension is SL^{n,m}."""
    spec = model_nilpotent_lie_torus_spec(*_member_blocks("L", (n,), (m,)))
    return _filiform_spec(spec, n, m, "L")


def model_nilpotent_lie_torus_spec(even_blocks, odd_blocks):
    """The diagonal torus on N(...) whose extension is SN(...).

    t1 weighs each label by its number; every other torus label is the
    identity on its chain.
    """
    even_chains, odd_chains = _chains(even_blocks, odd_blocks)
    nil = model_nilpotent_lie(even_blocks, odd_blocks)
    basis = nil.combined_basis
    torus = _torus_labels("t", even_chains, odd_chains)
    actions = {"t1": _diag({l: int(l[1:]) for l in basis}, basis)}
    for t, c in zip(torus[1:], even_chains + odd_chains):
        actions[t] = _diag(dict.fromkeys(c, 1), basis)
    return ExtensionSpec(nil, torus, actions)


def filiform_leibniz_torus_spec(n, m, b):
    """Candidate torus actions on LP^{n,m} with sign parameters (b1, b2, b3).

    The right actions are the solvable family's; the left actions carry the
    undetermined coefficients (b1 - 1) on x1, (b2 - 1) on x2..xn and
    (b3 - 1) on the odd part, which is the block spec at 1 - b.  The
    extension validates only at (0, 1, 1), which reproduces SLP^{n,m}.
    """
    blocks = _member_blocks("LP", (n,), (m,))
    c1, c2, c3 = (1 - Fraction(v) for v in b)
    spec = model_nilpotent_leibniz_torus_spec(*blocks, (c1, c2), (c3,))
    return _filiform_spec(spec, n, m, "LP")


def model_nilpotent_leibniz_torus_spec(even_blocks, odd_blocks, b, bp):
    """Candidate torus actions on NP(...) with sign parameters b, bp.

    b has one entry per torus label t1..t_{k+1}, bp one per tp1..tp_p.  The
    right actions are the solvable family's: t1 weighs x1 by 1 and each
    chain label by its place in the chain, counted from 0, and every other
    torus label is the identity on its chain.  The left actions are -b1 on
    x1 for t1, -b_{j+2} on even block j+1 for t_{j+2}, and -bp_j on odd
    block j for tp_j.  The extension validates exactly at b1 = 1 with all
    other parameters 0 (when every block is long enough to force its
    parameter), which reproduces SNP(...).
    """
    even_chains, odd_chains = _chains(even_blocks, odd_blocks)
    chains = even_chains + odd_chains
    if len(b) != len(even_chains) + 1 or len(bp) != len(odd_chains):
        raise ValueError("need %d even and %d odd parameters"
                         % (len(even_chains) + 1, len(odd_chains)))
    nil = model_nilpotent_leibniz(even_blocks, odd_blocks)
    basis = nil.combined_basis
    torus = _torus_labels("t", even_chains, odd_chains)
    actions = {"t1": (_diag({"x1": -Fraction(b[0])}, basis),
                      _diag(dict([("x1", 1)] + _places(chains)), basis))}
    for t, c, v in zip(torus[1:], chains, list(b[1:]) + list(bp)):
        actions[t] = (_diag(dict.fromkeys(c, -Fraction(v)), basis),
                      _diag(dict.fromkeys(c, 1), basis))
    return ExtensionSpec(nil, torus, actions)
