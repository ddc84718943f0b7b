"""The sparse invariants layer against a brute-force label-form oracle.

Seeded random laws of both kinds, some with terms that break the grading,
must give the oracle's product spaces of random rational subspaces, its
four series, its right annihilator, its Jordan profiles of multiplication
operators and the characteristic sequence over explicit candidates;
pivot-read membership must give the oracle's coefficients on vectors
inside and outside a span, and a subspace's canonical integer rows must
not depend on the vectors that span it.  The oracle forms every
product over labels from A.brackets (through basis_bracket), canonicalizes
spans with naive_gauss.naive_rref, and shares no code with the package.
"""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from naive_gauss import naive_nullspace, naive_rank, naive_rref, naive_solve
from naive_identities import dense_map
from superalg.core import LEIBNIZ, LIE, Element, SuperAlgebra, multiplication_matrix
from superalg.derivations import derivation_space, inner_space, innerness_report
from superalg.families import (FAMILIES, filiform_leibniz, member, model_filiform_lie,
                               model_nilpotent_leibniz, model_nilpotent_lie)
from superalg.invariants import (DERIVED, DESCENDING_CENTRAL, GRADED_EVEN,
                                 SERIES_KINDS, Subspace, characteristic_sequence,
                                 product_space, right_annihilator, series)
from superalg.linalg import (ZERO, Matrix, NotNilpotent, nilpotent_jordan_blocks,
                             pivot_coefficients, row_space_basis, sparse_rows)

COEFFS = (Fraction(1), Fraction(-1), Fraction(2), Fraction(-1, 2), Fraction(3))
ENTRIES = (0, 0, 1, -1, 2, Fraction(1, 3), Fraction(-5, 2))


def random_law(rng, kind, triangular=False):
    """1-4 even and 1-4 odd labels; about 10% of the terms break the grading.

    A triangular law sends [e_a, e_b] to labels after both a and b, so every
    multiplication operator is strictly lower triangular, hence nilpotent.
    """
    even = ["x%d" % i for i in range(1, rng.randint(1, 4) + 1)]
    odd = ["y%d" % i for i in range(1, rng.randint(1, 4) + 1)]
    basis = even + odd
    parity = {l: 0 if l in even else 1 for l in basis}
    table = {}
    for a in basis:
        for b in basis:
            if rng.random() >= 0.4:
                continue
            allowed = basis
            if triangular:
                allowed = basis[max(basis.index(a), basis.index(b)) + 1:]
            graded = [l for l in allowed if parity[l] == parity[a] ^ parity[b]]
            pool = allowed if rng.random() < 0.1 else graded
            if pool:
                table[(a, b)] = Element({rng.choice(pool): rng.choice(COEFFS)
                                         for _ in range(rng.randint(1, 2))})
    return SuperAlgebra(kind, even, odd, table)


def nilpotent_members():
    return [model_filiform_lie(4, 3), filiform_leibniz(4, 3),
            model_nilpotent_lie((2, 1), (2,)), model_nilpotent_leibniz((2,), (1, 2))]


def family_members():
    return nilpotent_members() + [model_filiform_lie(4, 3, solvable=True),
                                  filiform_leibniz(4, 3, solvable=True)]


# ---- the oracle ----------------------------------------------------------

def bracket(A, u, v):
    """[u, v] for label -> coefficient dicts, expanded over basis labels."""
    out = {}
    for a, cu in u.items():
        for b, cv in v.items():
            for l, c in A.basis_bracket(a, b).items():
                out[l] = out.get(l, 0) + cu * cv * c
    return {l: c for l, c in out.items() if c}


def vec(A, d):
    return [Fraction(d.get(l, 0)) for l in A.combined_basis]


def as_dict(A, row):
    return {l: c for l, c in zip(A.combined_basis, row) if c}


def primitive(row):
    """A monic RREF row times the lcm of its denominators, as sparse ints:
    the canonical row form of the package (primitive, positive lead)."""
    d = lcm(*[x.denominator for x in row])
    return [(j, int(x * d)) for j, x in enumerate(row) if x]


def span(A, gens):
    """Canonical RREF rows of the span of label dicts."""
    return tuple(naive_rref([vec(A, g) for g in gens])[0])


def oracle_product_space(A, S, T):
    return span(A, [bracket(A, s, t) for s in S for t in T])


def oracle_series(A, which):
    """The chain series() defines, to its first repetition or dim + 1 steps."""
    whole = [{l: 1} for l in A.combined_basis]
    g0 = [{l: 1} for l in A.even_basis]
    if which in (DESCENDING_CENTRAL, DERIVED):
        start = whole
    else:
        start = g0 if which == GRADED_EVEN else [{l: 1} for l in A.odd_basis]
    chain = [span(A, start)]
    for _ in range(A.dim + 1):
        cur = [as_dict(A, row) for row in chain[-1]]
        if which == DESCENDING_CENTRAL:
            nxt = oracle_product_space(A, cur, whole)
        elif which == DERIVED:
            nxt = oracle_product_space(A, cur, cur)
        elif A.kind == LIE:
            nxt = oracle_product_space(A, g0, cur)
        else:
            nxt = oracle_product_space(A, cur, g0)
        if nxt == chain[-1]:
            break
        chain.append(nxt)
    return chain


def oracle_right_annihilator(A):
    """All x with [e_b, x] = 0 for every b: one equation per (b, k)."""
    basis = A.combined_basis
    rows = [[Fraction(bracket(A, {b: 1}, {l: 1}).get(k, 0)) for l in basis]
            for b in basis for k in basis]
    return tuple(naive_rref(naive_nullspace(rows, A.dim))[0])


def oracle_operator(A, x, side, labels):
    """Rows of y -> [x, y] (left) or y -> [y, x] (right) on span(labels)."""
    images = [bracket(A, x, {l: 1}) if side == "left" else bracket(A, {l: 1}, x)
              for l in labels]
    return [[Fraction(img.get(k, 0)) for img in images] for k in labels]


def matmul(P, Q):
    return [[sum((P[i][t] * Q[t][j] for t in range(len(Q)) if P[i][t]), Fraction(0))
             for j in range(len(Q[0]))] for i in range(len(P))]


def oracle_jordan(M):
    """Block sizes from the ranks of explicit powers, or the rank of M^n
    when M is not nilpotent."""
    n = len(M)
    ranks = [n]
    power = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(n):
        power = matmul(power, M)
        ranks.append(naive_rank(power))
    if ranks[-1]:
        return ranks[-1]
    blocks = []
    for k in range(n, 0, -1):
        at_least = ranks[k - 1] - ranks[k]
        blocks += [k] * (at_least - (ranks[k] - ranks[k + 1] if k < n else 0))
    return tuple(blocks)


def random_elements(rng, labels, count):
    """Random rational combinations of the labels, zero ones included."""
    return [{l: Fraction(rng.choice(ENTRIES)) for l in labels} for _ in range(count)]


def canonical_zeros(rows):
    return all(x is ZERO for row in rows for x in row if not x)


# ---- the tests -----------------------------------------------------------

def laws(seed, count, triangular=False):
    rng = random.Random(seed)
    return rng, [random_law(rng, LIE if case % 2 else LEIBNIZ, triangular)
                 for case in range(count)]


def test_product_space_of_random_rational_subspaces():
    rng, algebras = laws(20261018, 120)
    for case, A in enumerate(algebras + family_members()):
        basis = A.combined_basis
        for _ in range(3):
            S = random_elements(rng, basis, rng.randint(0, 3))
            T = random_elements(rng, basis, rng.randint(1, 4))
            got = product_space(A, Subspace(A, [vec(A, s) for s in S]),
                                Subspace(A, [vec(A, t) for t in T])).basis
            assert got == oracle_product_space(A, S, T), case
            assert canonical_zeros(got), case


def test_series_match_the_oracle():
    _, algebras = laws(20261019, 80)
    for case, A in enumerate(algebras + family_members()):
        for which in SERIES_KINDS:
            got = [S.basis for S in series(A, which)]
            assert got == oracle_series(A, which), (case, which)
            assert all(canonical_zeros(rows) for rows in got), (case, which)


def test_right_annihilator_matches_the_oracle():
    _, algebras = laws(20261020, 120)
    for case, A in enumerate(algebras + family_members()):
        got = right_annihilator(A).basis
        assert got == oracle_right_annihilator(A), case
        assert canonical_zeros(got), case


@pytest.mark.parametrize("triangular", [True, False])
def test_jordan_profiles_of_multiplication_operators(triangular):
    rng, algebras = laws(20261021 + triangular, 40, triangular)
    raised = longest = 0
    members = nilpotent_members() if triangular else family_members()[4:]
    for case, A in enumerate(algebras + members):
        side = "left" if A.kind == LIE else "right"
        parts = (A.even_basis, A.odd_basis)
        for parity, labels in enumerate(parts):
            for x in random_elements(rng, labels, 2):
                M = multiplication_matrix(A, Element(x), side)
                for block in parts + (A.combined_basis,):
                    idx = [A.index(l) for l in block]
                    expected = oracle_jordan(oracle_operator(A, x, side, block))
                    sub = Matrix([[M.entries[i][j] for j in idx] for i in idx], len(idx))
                    if isinstance(expected, tuple):
                        assert nilpotent_jordan_blocks(sub) == expected, (case, x)
                        longest = max(longest, *expected, 0)
                    else:
                        with pytest.raises(NotNilpotent, match="rank %d$" % expected):
                            nilpotent_jordan_blocks(sub)
                        raised += 1
    # the triangular laws are nilpotent; the others must reach both branches
    assert raised == 0 if triangular else raised > 20
    assert longest >= 3


def test_pivot_read_membership_on_random_bases():
    rng = random.Random(20261022)
    inside = outside = 0
    for case in range(300):
        n = rng.randint(1, 8)
        gens = [[Fraction(rng.choice(ENTRIES)) for _ in range(n)]
                for _ in range(rng.randint(0, n))]
        basis = naive_rref(gens)[0]
        rows = [primitive(row) for row in basis]
        coeffs = [Fraction(rng.choice(ENTRIES)) for _ in basis]
        v = [sum((c * row[j] for c, row in zip(coeffs, basis)), Fraction(0))
             for j in range(n)]
        assert pivot_coefficients(rows, v) == tuple(coeffs), case
        assert all(c is ZERO for c in pivot_coefficients(rows, v) if not c), case
        w = [Fraction(rng.choice(ENTRIES)) for _ in range(n)]
        expected = naive_solve([list(row) for row in basis], w)
        assert pivot_coefficients(rows, w) == expected, case
        inside += expected is not None
        outside += expected is None
        A = SuperAlgebra(LIE, ["x%d" % i for i in range(n)], [], {})
        assert Subspace(A, gens).contains(v), case
        assert Subspace(A, gens).contains(w) == (expected is not None), case
    assert inside > 30 and outside > 30


def test_characteristic_sequence_over_rational_candidates():
    """Explicit candidates, many with rational coefficients, on triangular
    laws with rational constants, every other one with each parity's labels
    in reversed order so that products land on earlier indices: the
    sequence is the lexicographic maximum of the oracle's Jordan profiles,
    computed from dense operator matrices, and the witnesses are the first
    candidates attaining it."""
    rng, algebras = laws(20261024, 120, triangular=True)
    checked = rational_laws = rational_candidates = longest = 0
    for case, A in enumerate(algebras):
        if case % 2:
            A = SuperAlgebra(A.kind, A.even_basis[::-1], A.odd_basis[::-1], A.brackets)
        g0 = [{l: 1} for l in A.even_basis]
        derived_even = [list(row) for row in oracle_product_space(A, g0, g0)]
        candidates = [x for x in random_elements(rng, A.even_basis, 4) + g0
                      if any(x.values())
                      and naive_solve(derived_even, vec(A, x)) is None]
        rng.shuffle(candidates)
        candidates = candidates[:3]
        if not candidates:
            continue
        side = "left" if A.kind == LIE else "right"
        profiles = [(oracle_jordan(oracle_operator(A, x, side, A.even_basis)),
                     oracle_jordan(oracle_operator(A, x, side, A.odd_basis)))
                    for x in candidates]
        best_even = max(p for p, _ in profiles)
        best_odd = max(q for _, q in profiles)
        seq = characteristic_sequence(A, [Element(x) for x in candidates])
        assert seq.as_pair() == (best_even, best_odd), case
        first = lambda hit: next((Element(x) for x, pq in zip(candidates, profiles)
                                  if hit(pq)), None)
        assert seq.witness_even == first(lambda pq: pq[0] == best_even), case
        assert seq.witness_odd == first(lambda pq: pq[1] == best_odd), case
        assert seq.witness == first(lambda pq: pq == (best_even, best_odd)), case
        assert not seq.lower_bound, case
        checked += 1
        rational_laws += A.integer_law[0] > 1
        rational_candidates += any(Fraction(c).denominator > 1
                                   for x in candidates for c in x.values())
        longest = max(longest, *best_even, *best_odd)
    assert checked > 80 and rational_laws > 40 and rational_candidates > 40
    assert longest >= 3


def test_subspace_rows_are_canonical_primitive_integers():
    """The same span given by shuffled vectors, or by vectors scaled by
    random nonzero rationals, gives equal rows; each row is primitive with
    a positive lead, and divided by its lead it is the oracle's RREF row.
    Inclusion and membership agree with ranks and solves of the oracle,
    on vectors inside and outside the span."""
    rng = random.Random(20261025)
    hits = {True: 0, False: 0}
    for case in range(300):
        n = rng.randint(1, 7)
        A = SuperAlgebra(LIE, ["x%d" % i for i in range(n)], [], {})
        gens = [[Fraction(rng.choice(ENTRIES)) for _ in range(n)]
                for _ in range(rng.randint(0, n))]
        S = Subspace(A, gens)
        basis = naive_rref(gens)[0]
        assert S.rows == [primitive(row) for row in basis], case
        assert list(S.basis) == basis and canonical_zeros(S.basis), case
        for row in S.rows:
            assert row[0][1] > 0 and gcd(*[v for _, v in row]) == 1, case
            assert all(type(v) is int for _, v in row), case
        shuffled = gens[:]
        rng.shuffle(shuffled)
        scaled = [[c * v for v in g] for c, g in
                  zip([Fraction(rng.choice((-3, -1, 2, 5)), rng.randint(1, 4))
                       for _ in gens], shuffled)]
        assert Subspace(A, shuffled).rows == Subspace(A, scaled).rows == S.rows, case
        T = Subspace(A, [[Fraction(rng.choice(ENTRIES)) for _ in range(n)]
                         for _ in range(rng.randint(0, n))] + gens[:rng.randint(0, 2)])
        t_basis = [list(row) for row in T.basis]
        expected = naive_rank(t_basis + [list(row) for row in basis]) == len(t_basis)
        assert (S <= T) == expected, case
        hits[expected] += 1
        w = [Fraction(rng.choice(ENTRIES)) for _ in range(n)]
        assert S.contains(w) == (naive_solve([list(r) for r in basis], w) is not None), case
        assert T.contains(w) == (naive_solve(t_basis, w) is not None), case
    assert hits[True] > 30 and hits[False] > 30


def _flat(rows):
    return [v for row in rows for v in row]


def test_innerness_expressions_match_the_oracle():
    _, algebras = laws(20261023, 40)
    hits = {True: 0, False: 0}
    for case, A in enumerate(algebras[::2] + family_members()):
        report = innerness_report(A)
        for parity, tag in ((0, "even"), (1, "odd")):
            flats = [_flat(dense_map(D).rows) for D in inner_space(A, parity)]
            expected = [naive_solve(flats, _flat(dense_map(D).rows))
                        for D in derivation_space(A, parity)]
            assert report["expressions"][tag] == expected, (case, tag)
            assert report["outer_%s" % tag] == expected.count(None), (case, tag)
            for e in expected:
                hits[e is not None] += 1
        assert report["all_inner"] == (report["outer_even"] + report["outer_odd"] == 0)
    # both inner and outer derivations must be met
    assert hits[True] > 10 and hits[False] > 10


def test_inner_space_matches_the_dense_multiplication_matrices():
    """inner_space reads each operator, times d, from A.integer_law as a
    sparse row of ints; the reference flattens the dense multiplication
    matrices and reduces them.  Most of the random laws have rational
    constants, so d > 1."""
    _, algebras = laws(20261019, 60)
    sizes = {"L": ((4,), (3,)), "N": ((2, 1), (2,)), "LP": ((4,), (3,)),
             "NP": ((2,), (1, 2))}
    members = [member(f, *sizes[f.lstrip("S")]) for f in FAMILIES]
    for case, A in enumerate(algebras + members):
        side = "left" if A.kind == LIE else "right"
        n = A.dim
        for parity in (0, 1):
            flats = [_flat(multiplication_matrix(A, A.basis_element(l), side).entries)
                     for l in A.combined_basis if A.parity(l) == parity]
            expected = row_space_basis(flats, n * n)
            got = inner_space(A, parity)
            assert [D.entries for D in got] == sparse_rows(expected), (case, parity)
            assert [_flat(dense_map(D).rows) for D in got] == list(map(list, expected)), case
            assert all((D.parity, D.dim) == (parity, n) for D in got), case
