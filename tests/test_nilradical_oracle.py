"""nilradical_verdict against a dense oracle of matrices and Jordan profiles.

The oracle spans the candidate with naive_gauss.naive_rref, forms every
product over labels from A.brackets, writes each complement direction's
restricted operator as a dense matrix in the monic basis (or None when the
candidate is not invariant), reads nilpotency and the Jordan profile off
the ranks of its powers, and decides the four conditions from these.  It
must give the library's whole verdict dict on the members of theorems 3.1
and 4.1 and on candidates built to meet each branch: a non-invariant
candidate, a non-diagonal restricted operator and a nilpotent complement
direction, and on the nilradical after a rational change of basis, whose
canonical rows have leads other than 1.  The library's sparse operator
must have the oracle's Jordan profile and, when diagonal, a diagonal
proportional to the oracle's.
"""

import random
from fractions import Fraction

import pytest

from naive_gauss import naive_inverse, naive_rank, naive_rref, naive_solve
from superalg.core import LIE, Element, change_of_basis
from superalg.extension import (ExtensionSpec, _diagonal, _restricted_operator,
                                model_nilpotent_lie_torus_spec, nilradical_verdict,
                                semidirect_extension)
from superalg.families import member
from superalg.invariants import Subspace
from superalg.linalg import Matrix, NotNilpotent, _jordan_blocks


def _product(A, u, v):
    """[u, v] for dense coordinate vectors, over labels."""
    basis = A.combined_basis
    w = [Fraction(0)] * A.dim
    for a, x in zip(basis, u):
        for b, y in zip(basis, v):
            if x and y:
                for k, c in A.basis_bracket(a, b).items():
                    w[basis.index(k)] += x * y * c
    return w


def _span(vectors):
    return [list(r) for r in naive_rref(vectors)[0]] if vectors else []


def _inside(basis, v):
    return not any(v) or (basis and naive_solve(basis, v) is not None)


def _power_ranks(M):
    n, ranks, P = len(M), [len(M)], [[Fraction(int(i == j)) for j in range(len(M))]
                                     for i in range(len(M))]
    for _ in range(n):
        P = [[sum(P[i][k] * M[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        ranks.append(naive_rank(P) if n else 0)
    return ranks


def oracle_profile(M):
    """Jordan block sizes of a nilpotent M, descending; None when not nilpotent."""
    ranks = _power_ranks(M)
    if ranks[-1]:
        return None
    at_least = [ranks[k - 1] - ranks[k] for k in range(1, len(ranks))]
    return tuple(sorted((k for k in range(1, len(at_least) + 1)
                         for _ in range(at_least[k - 1] - (at_least[k] if k < len(at_least)
                                                           else 0))), reverse=True))


def oracle_operator(A, x, basis):
    """The restricted operator of direction x in the monic basis, or None."""
    cols = []
    for b in basis:
        w = _product(A, x, b) if A.kind == LIE else _product(A, b, x)
        coeffs = naive_solve(basis, w) if basis else ([] if not any(w) else None)
        if coeffs is None:
            return None
        cols.append(coeffs)
    return [[cols[j][i] for j in range(len(basis))] for i in range(len(basis))]


def oracle_verdict(A, vectors):
    n = A.dim
    basis, pivots = naive_rref(vectors) if vectors else ([], [])
    basis = [list(r) for r in basis]
    units = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    is_ideal = all(_inside(basis, _product(A, e, b)) and _inside(basis, _product(A, b, e))
                   for e in units for b in basis)
    term = basis
    while True:
        nxt = _span([_product(A, t, b) for t in term for b in basis])
        if not nxt or nxt == term:
            break
        term = nxt
    restriction_nilpotent = not nxt
    per_direction, diagonals = {}, []
    directions = [j for j in range(n) if j not in pivots]
    for j in directions:
        M = oracle_operator(A, units[j], basis)
        label = A.combined_basis[j]
        if M is None:
            per_direction[label] = False
            continue
        per_direction[label] = oracle_profile(M) is None
        off = any(M[r][c] for r in range(len(M)) for c in range(len(M)) if r != c)
        diagonals.append(None if off else [M[r][r] for r in range(len(M))])
    complement_ok = all(per_direction.values())
    if complement_ok and None not in diagonals:
        complement_ok = (naive_rank(diagonals) if diagonals and diagonals[0] else 0) == len(
            directions)
    derived = all(_inside(basis, _product(A, a, b)) for a in units for b in units)
    return {"is_ideal": is_ideal, "restriction_nilpotent": restriction_nilpotent,
            "complement_directions": per_direction,
            "complement_acts_nonnilpotently": complement_ok,
            "derived_subalgebra_contained": derived,
            "verdict": is_ideal and restriction_nilpotent and complement_ok and derived,
            "codimension": n - len(basis)}


def check(A, vectors):
    """Verdict and per-direction operators against the oracle."""
    S = Subspace(A, vectors)
    assert nilradical_verdict(A, S) == oracle_verdict(A, vectors)
    basis, pivots = naive_rref(vectors) if vectors else ([], [])
    basis = [list(r) for r in basis]
    for j in range(A.dim):
        if j in pivots:
            continue
        unit = [Fraction(int(i == j)) for i in range(A.dim)]
        M, op = oracle_operator(A, unit, basis), _restricted_operator(A, j, S)
        assert (M is None) == (op is None)
        if M is None:
            continue
        try:
            profile = _jordan_blocks(op)
        except NotNilpotent:
            profile = None
        assert profile == oracle_profile(M)
        diag = _diagonal(op)
        off = any(M[r][c] for r in range(len(M)) for c in range(len(M)) if r != c)
        assert (diag is None) == off
        if diag is not None:
            want = [M[r][r] for r in range(len(M))]
            got = dict(diag)
            ratios = {Fraction(got[r], want[r]) for r in range(len(M)) if want[r]}
            assert len(ratios) <= 1 and set(got) == {r for r in range(len(M)) if want[r]}


def _labels(A, labels):
    return [[Fraction(int(i == A.index(l))) for i in range(A.dim)] for l in labels]


@pytest.mark.parametrize("family, even, odd", [
    ("SL", (3,), (2,)), ("SL", (5,), (3,)), ("SN", (2,), (2,)), ("SN", (2, 3), (1, 2))])
def test_members_of_theorems_3_1_and_4_1(family, even, odd):
    A = member(family, even, odd)
    nil = [l for l in A.combined_basis if not l.startswith("t")]
    check(A, _labels(A, nil))
    # a rational basis of the same nilradical, and a non-ideal of it
    n = len(nil)
    mixed = _labels(A, nil)
    mixed[0] = [a + Fraction(1, 3) * b for a, b in zip(mixed[0], mixed[1])]
    mixed[2] = [Fraction(-2) * a + b for a, b in zip(mixed[2], mixed[n - 1])]
    check(A, mixed)
    check(A, _labels(A, nil[1:]))
    check(A, _labels(A, A.combined_basis))
    check(A, [])


def rational_basis(A, labels, seed):
    """A after a seeded rational change of basis, and the span of `labels`
    in the new coordinates, whose canonical rows have leads other than 1."""
    rng, blocks = random.Random(seed), [A.even_basis, A.odd_basis]
    while True:
        mats = [[[Fraction(rng.choice((0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3))))
                  for _ in b] for _ in b] for b in blocks]
        if any(naive_inverse(M) is None for M in mats):
            continue
        mapping = {"n" + l: Element({b[i]: M[i][j] for i in range(len(b))})
                   for b, M in zip(blocks, mats) for j, l in enumerate(b)}
        B = change_of_basis(A, mapping)
        Pinv = naive_inverse([[mapping[u].get(o) for u in B.combined_basis]
                              for o in A.combined_basis])
        vectors = [[Pinv[r][A.index(l)] for r in range(A.dim)] for l in labels]
        if any(row[0][1] != 1 for row in Subspace(B, vectors).rows):
            return B, vectors


@pytest.mark.parametrize("family, even, odd, seed", [
    ("SL", (4,), (3,), 1), ("SN", (2, 1), (2,), 2), ("SLP", (4,), (2,), 3)])
def test_nilradical_in_a_rational_basis(family, even, odd, seed):
    A = member(family, even, odd)
    B, vectors = rational_basis(A, [l for l in A.combined_basis if not l.startswith("t")],
                                seed)
    check(B, vectors)
    assert nilradical_verdict(B, Subspace(B, vectors))["verdict"]


def test_candidate_that_is_not_invariant():
    # [x2, x1] = -x3 leaves span(x1): the operator of x2 is None
    A = member("L", (3,), (2,))
    S = _labels(A, ["x1"])
    assert _restricted_operator(A, A.index("x2"), Subspace(A, S)) is None
    check(A, S)
    assert not nilradical_verdict(A, Subspace(A, S))["complement_directions"]["x2"]


def test_non_diagonal_restricted_operator():
    # t acts on L^{3,2} as diag(1, 2, 3, 1, 2) + ad x1
    L = member("L", (3,), (2,))
    D = Matrix([[1, 0, 0, 0, 0], [0, 2, 0, 0, 0], [0, 1, 3, 0, 0],
                [0, 0, 0, 1, 0], [0, 0, 0, 1, 2]])
    A = semidirect_extension(ExtensionSpec(L, ("t",), {"t": D}))
    S = _labels(A, L.combined_basis)
    op = _restricted_operator(A, A.index("t"), Subspace(A, S))
    assert op is not None and _diagonal(op) is None
    check(A, S)
    assert nilradical_verdict(A, Subspace(A, S))["verdict"]


def test_nilpotent_complement_direction():
    # span(x2, x3, y1, y2) is an ideal of L^{3,2}; x1 acts on it nilpotently
    A = member("L", (3,), (2,))
    S = _labels(A, ["x2", "x3", "y1", "y2"])
    assert _jordan_blocks(_restricted_operator(A, A.index("x1"), Subspace(A, S))) == (2, 2)
    check(A, S)
    verdict = nilradical_verdict(A, Subspace(A, S))
    assert verdict["is_ideal"] and not verdict["complement_directions"]["x1"]
    assert not verdict["verdict"]
    # the same ideal in rational coordinates: every operator stays nilpotent
    for seed in range(4):
        B, vectors = rational_basis(A, ["x2", "x3", "y1", "y2"], seed)
        check(B, vectors)
        assert not any(nilradical_verdict(B, Subspace(B, vectors))[
            "complement_directions"].values())


def test_nil_dependent_torus():
    # t1 and t2 act by one diagonal map: each is non-nilpotent, t1 - t2 is zero
    L = member("L", (3,), (2,))
    weights = (1, 2, 3, 1, 2)
    action = Matrix([[w if i == j else 0 for j in range(5)] for i, w in enumerate(weights)])
    A = semidirect_extension(ExtensionSpec(L, ("t1", "t2"), {"t1": action, "t2": action}))
    check(A, _labels(A, L.combined_basis))
    verdict = nilradical_verdict(A, Subspace(A, _labels(A, L.combined_basis)))
    assert all(verdict["complement_directions"].values())
    assert not verdict["complement_acts_nonnilpotently"]


def test_extension_of_a_rational_torus():
    # the 4.1 torus scaled by rationals: same verdict, denominators in the law
    spec = model_nilpotent_lie_torus_spec((2,), (2,))
    n = spec.nilradical.dim
    actions = {t: Matrix([[v * Fraction(1, k + 2) for v in row]
                          for row in spec.actions[t][0].entries])
               for k, t in enumerate(spec.torus_labels)}
    A = semidirect_extension(ExtensionSpec(spec.nilradical, spec.torus_labels, actions))
    assert A.integer_law[0] > 1 and n < A.dim
    check(A, _labels(A, spec.nilradical.combined_basis))
