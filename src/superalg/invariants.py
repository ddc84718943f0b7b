"""Structural invariants of a graded algebra.

Central and derived series, the graded one-sided sequences and the
super-nilindex, nilpotency and solvability flags, the right annihilator,
the characteristic sequence, and the generator count.
"""

from itertools import combinations

from .linalg import (NotNilpotent, _frac, _integer_row, _jordan_blocks, _kernel, _reduce,
                     pivot_coefficients, sparse_rows)
from .core import LIE, ODD, Element, _ad, _products

DESCENDING_CENTRAL = "descending_central"
DERIVED = "derived"
GRADED_EVEN = "graded_even"
GRADED_ODD = "graded_odd"
SERIES_KINDS = (DESCENDING_CENTRAL, DERIVED, GRADED_EVEN, GRADED_ODD)


class Subspace:
    """Span of dense vectors, held as canonical rows in `rows`, as _reduce
    emits them (sparse primitive integers, positive lead).

    Two subspaces of the same algebra are equal exactly when their rows are.
    """

    def __init__(self, algebra, vectors):
        vectors = [tuple(map(_frac, v)) for v in vectors]
        if any(len(v) != algebra.dim for v in vectors):
            raise ValueError("vector length mismatch")
        self.algebra, self.rows = algebra, _reduce(sparse_rows(vectors))[0]

    @property
    def dim(self):
        return len(self.rows)

    def contains_element(self, el):
        A = self.algebra
        el = el if isinstance(el, Element) else A.as_element(el)
        return pivot_coefficients(self.rows, {A.index(l): c for l, c in el.items()}) is not None

    def __le__(self, other):
        if self.algebra is not other.algebra:
            raise ValueError("subspaces of different algebras")
        return all(pivot_coefficients(other.rows, dict(r)) is not None for r in self.rows)

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.algebra is other.algebra
                and self.rows == other.rows)

    def __repr__(self):
        return "Subspace(dim=%d of %d)" % (self.dim, self.algebra.dim)


def _span(A, rows):
    """The subspace of A whose canonical rows are `rows`."""
    span = Subspace.__new__(Subspace)
    span.algebra, span.rows = A, rows
    return span


def whole_space(A):
    return _span(A, [[(i, 1)] for i in range(A.dim)])


def even_part(A):
    return _span(A, [[(i, 1)] for i in range(A.dim_even)])


def odd_part(A):
    return _span(A, [[(i, 1)] for i in range(A.dim_even, A.dim)])


def span_of_labels(A, labels):
    return _span(A, [[(i, 1)] for i in sorted({A.index(l) for l in labels})])


def product_space(A, S, T):
    """Span of all brackets [s, t] with s, t running over the two bases,
    formed in integers from the canonical rows and `A.integer_law`."""
    if S.algebra is not A or T.algebra is not A:
        raise ValueError("subspace of a different algebra")
    return _span(A, _reduce([w.items() for ws in _products(A, S.rows, T.rows)
                             for w in ws.values()])[0])


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
    """All x with [A, x] = 0, as one kernel in integers; equation (b, k),
    coordinate k of [e_b, x], has d*c at column j for each [e_b, e_j] = c e_k."""
    rows = {}
    for (b, j), cell in A.integer_law[1].items():
        for k, c in cell.items():
            rows.setdefault((b, k), {})[j] = c
    return _span(A, _reduce(_kernel([r.items() for r in rows.values()], A.dim))[0])


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
    """Jordan profiles of ad x, left multiplication for the Lie kind and
    right for the Leibniz kind, on the even and odd parts of an even x.
    The blocks are sparse integer columns of a multiple of ad x, which has
    the same profile: the products of x scaled to integers (see _ad)."""
    x = _integer_row([(A.index(l), c) for l, c in x.items()])
    cols = _ad(A, x, [[(j, 1)] for j in range(A.dim)], A.kind == LIE)
    ne, cols = A.dim_even, [cols.get(j, {}).items() for j in range(A.dim)]
    return (_jordan_blocks([[(k, v) for k, v in col if k < ne] for col in cols[:ne]]),
            _jordan_blocks([[(k - ne, v) for k, v in col if k >= ne] for col in cols[ne:]]))


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
        singles = [el for el in map(A.basis_element, A.even_basis)
                   if not derived_even.contains_element(el)]
        candidates = singles + [s for s in (a + b for a, b in combinations(singles, 2))
                                if not derived_even.contains_element(s)]
    else:
        candidates = [A.as_element(c) for c in candidates]
        for c in candidates:
            if A.element_parity(c) == ODD:  # 0 is refused next, as it lies in [g0, g0]
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
    """dim(A) - dim([A, A]) for a nilpotent A; [A, A] is lcs term 1 (term 0 if A = 0)."""
    lcs = series(A, DESCENDING_CENTRAL)
    if lcs[-1].dim:
        raise NotNilpotent("generator count of a non-nilpotent algebra")
    return A.dim - lcs[min(1, len(lcs) - 1)].dim
