"""Structural invariants of a graded algebra.

Central and derived series, the graded one-sided sequences and the
super-nilindex, nilpotency and solvability flags, the right annihilator,
the characteristic sequence, and the generator count.
"""

from .linalg import (ZERO, Matrix, NotNilpotent, _frac, _reduce, dense_rows,
                     nilpotent_jordan_blocks, nullspace, pivot_coefficients,
                     sparse_rows)
from .core import EVEN, LIE, _products, multiplication_matrix

DESCENDING_CENTRAL = "descending_central"
DERIVED = "derived"
GRADED_EVEN = "graded_even"
GRADED_ODD = "graded_odd"
SERIES_KINDS = (DESCENDING_CENTRAL, DERIVED, GRADED_EVEN, GRADED_ODD)


class Subspace:
    """Subspace held as canonical RREF rows, dense in `basis`, sparse in `rows`.

    Two subspaces of the same algebra are equal exactly when their basis
    tuples are equal.
    """

    def __init__(self, algebra, vectors):
        vectors = [tuple(map(_frac, v)) for v in vectors]
        if any(len(v) != algebra.dim for v in vectors):
            raise ValueError("vector length mismatch")
        self._span(algebra, sparse_rows(vectors))

    def _span(self, algebra, rows):
        """Hold the span of sparse rows, each in column order."""
        self.algebra = algebra
        self.rows = _reduce(rows)[0]
        self.basis = dense_rows(self.rows, algebra.dim)

    @property
    def dim(self):
        return len(self.basis)

    def contains(self, vec):
        if len(vec) != self.algebra.dim:
            raise ValueError("dimension mismatch")
        return pivot_coefficients(self.rows, tuple(map(_frac, vec))) is not None

    def contains_element(self, el):
        return self.contains(self.algebra.coords(el))

    def __le__(self, other):
        if self.algebra is not other.algebra:
            raise ValueError("subspaces of different algebras")
        return all(pivot_coefficients(other.rows, v) is not None for v in self.basis)

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.algebra is other.algebra
                and self.basis == other.basis)

    def __repr__(self):
        return "Subspace(dim=%d of %d)" % (self.dim, self.algebra.dim)


def whole_space(A):
    return Subspace(A, [A.coords(l) for l in A.combined_basis])


def zero_space(A):
    return Subspace(A, [])


def even_part(A):
    return Subspace(A, [A.coords(l) for l in A.even_basis])


def odd_part(A):
    return Subspace(A, [A.coords(l) for l in A.odd_basis])


def span_of_labels(A, labels):
    return Subspace(A, [A.coords(l) for l in labels])


def span_of_elements(A, elements):
    return Subspace(A, [A.coords(e) for e in elements])


def product_space(A, S, T):
    """Span of all brackets [s, t] with s, t running over the two bases."""
    if S.algebra is not A or T.algebra is not A:
        raise ValueError("subspace of a different algebra")
    span = Subspace.__new__(Subspace)
    span._span(A, [sorted(w.items())
                   for ws in _products(A, S.rows, T.rows) for w in ws.values()])
    return span


def series(A, which):
    """Chain of subspaces, computed until the first repetition.

    descending_central: C0 = A, C{k+1} = [Ck, A].
    derived:            D0 = A, D{k+1} = [Dk, Dk].
    graded_even/odd:    C0 = the even (odd) part; the step brackets against
    the even part, on the side matching the kind's convention ([g0, Ck] for
    the Lie kind, [Ck, L0] for the Leibniz kind).
    """
    if which not in SERIES_KINDS:
        raise ValueError("unknown series %r" % (which,))
    whole = whole_space(A)
    if which == DESCENDING_CENTRAL:
        start = whole
        step = lambda cur: product_space(A, cur, whole)
    elif which == DERIVED:
        start = whole
        step = lambda cur: product_space(A, cur, cur)
    else:
        g0 = even_part(A)
        start = g0 if which == GRADED_EVEN else odd_part(A)
        if A.kind == LIE:
            step = lambda cur: product_space(A, g0, cur)
        else:
            step = lambda cur: product_space(A, cur, g0)
    chain = [start]
    # dimensions strictly decrease until stabilization, so dim+1 terms suffice
    for _ in range(A.dim + 1):
        nxt = step(chain[-1])
        if nxt == chain[-1]:
            break
        chain.append(nxt)
    return chain


def series_dims(A, which):
    return tuple(s.dim for s in series(A, which))


def classify(A):
    """Nilpotency and solvability flags, plus the s-nilindex when nilpotent.

    The s-nilindex (p, q) records the first vanishing term of the graded
    even and odd sequences.
    """
    lcs = series(A, DESCENDING_CENTRAL)
    derived = series(A, DERIVED)
    is_nilpotent = lcs[-1].dim == 0
    is_solvable = derived[-1].dim == 0
    s_nilindex = None
    if is_nilpotent:
        ge = series(A, GRADED_EVEN)
        go = series(A, GRADED_ODD)
        s_nilindex = (len(ge) - 1, len(go) - 1)
    return {
        "is_nilpotent": is_nilpotent,
        "is_solvable": is_solvable,
        "s_nilindex": s_nilindex,
    }


def right_annihilator(A):
    """All x with [A, x] = 0, as one nullspace computation; equation (b, k),
    coordinate k of [e_b, x], has c at column j for each [e_b, e_j] = c e_k."""
    rows = {}
    for (b, j), cell in A.law.items():
        for k, c in cell.items():
            rows.setdefault((b, k), [ZERO] * A.dim)[j] += c
    return Subspace(A, nullspace(Matrix(list(rows.values()), A.dim)))


class CharacteristicSequence:
    """Lexicographic maxima of the Jordan profiles over the candidate set.

    The even and odd maxima are taken independently.  `witness` is the
    first candidate attaining both, or None when no single candidate does
    (then witness_even / witness_odd record the per-part attainers).
    `lower_bound` marks results obtained from the default candidate set,
    which certifies the value only as a lexicographic lower bound.
    """

    def __init__(self, even_part, odd_part, witness, witness_even, witness_odd,
                 lower_bound):
        self.even_part = tuple(even_part)
        self.odd_part = tuple(odd_part)
        self.witness = witness
        self.witness_even = witness_even
        self.witness_odd = witness_odd
        self.lower_bound = lower_bound

    def as_pair(self):
        return (self.even_part, self.odd_part)

    def __eq__(self, other):
        if isinstance(other, CharacteristicSequence):
            return self.as_pair() == other.as_pair()
        return self.as_pair() == tuple(other)

    def __repr__(self):
        return "CharacteristicSequence(%s | %s)" % (
            ",".join(map(str, self.even_part)), ",".join(map(str, self.odd_part)))


def _jordan_profile(A, x):
    side = "left" if A.kind == LIE else "right"
    M = multiplication_matrix(A, x, side)
    ne = A.dim_even
    even_block = M.submatrix(range(ne), range(ne))
    odd_block = M.submatrix(range(ne, A.dim), range(ne, A.dim))
    return nilpotent_jordan_blocks(even_block), nilpotent_jordan_blocks(odd_block)


def characteristic_sequence(A, candidates=None):
    """Maximal Jordan profile of multiplication by even elements.

    The operator is left multiplication for the Lie kind and right
    multiplication for the Leibniz kind, restricted to the even and odd
    parts.  Candidates must be even and outside [g0, g0]; when omitted, the
    even basis vectors outside [g0, g0] and their pairwise sums are used
    and the result is flagged as a lower bound.
    """
    if series(A, DESCENDING_CENTRAL)[-1].dim:
        raise NotNilpotent("characteristic sequence of a non-nilpotent algebra")
    g0 = even_part(A)
    derived_even = product_space(A, g0, g0)

    lower_bound = candidates is None
    if candidates is None:
        singles = []
        for l in A.even_basis:
            el = A.basis_element(l)
            if not derived_even.contains_element(el):
                singles.append(el)
        candidates = list(singles)
        for i in range(len(singles)):
            for j in range(i + 1, len(singles)):
                s = singles[i] + singles[j]
                if not derived_even.contains_element(s):
                    candidates.append(s)
    else:
        candidates = [A.as_element(c) for c in candidates]
        for c in candidates:
            if A.element_parity(c) != EVEN:
                raise ValueError("candidate %r is not even" % (c,))
            if derived_even.contains_element(c):
                raise ValueError("candidate %r inside the derived subalgebra" % (c,))
    if not candidates:
        raise ValueError("no admissible candidates")

    profiles = [(c, _jordan_profile(A, c)) for c in candidates]
    best_even = max(p[0] for _, p in profiles)
    best_odd = max(p[1] for _, p in profiles)
    witness = witness_even = witness_odd = None
    for c, (pe, po) in profiles:
        if witness_even is None and pe == best_even:
            witness_even = c
        if witness_odd is None and po == best_odd:
            witness_odd = c
        if witness is None and pe == best_even and po == best_odd:
            witness = c
    return CharacteristicSequence(best_even, best_odd, witness,
                                  witness_even, witness_odd, lower_bound)


def generator_count(A):
    """dim(A) - dim([A, A]) for a nilpotent algebra."""
    if series(A, DESCENDING_CENTRAL)[-1].dim:
        raise NotNilpotent("generator count of a non-nilpotent algebra")
    whole = whole_space(A)
    return A.dim - product_space(A, whole, whole).dim
