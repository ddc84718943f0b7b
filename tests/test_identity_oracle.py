"""The index-form law against the label-form oracle in naive_identities.py.

Random small laws of both kinds, some with terms that break the grading
and most violating their identity, must give the oracle's validation
reports, derivation bases and multiplication matrices.
"""

import random
from fractions import Fraction

from naive_identities import (naive_derivation_basis, naive_multiplication_matrix,
                              naive_validate)
from superalg.core import (EVEN, LEIBNIZ, LIE, ODD, Element, SuperAlgebra, equal_laws,
                           multiplication_matrix, validate)
from superalg.derivations import derivation_space

COEFFS = (Fraction(1), Fraction(-1), Fraction(2), Fraction(-1, 2), Fraction(3))


def random_law(rng, kind):
    """1-3 even and 1-3 odd labels; about 10% of the terms break the grading."""
    even = ["x%d" % i for i in range(1, rng.randint(1, 3) + 1)]
    odd = ["y%d" % i for i in range(1, rng.randint(1, 3) + 1)]
    basis = even + odd
    parity = {l: 0 if l in even else 1 for l in basis}
    table = {}
    for a in basis:
        for b in basis:
            if rng.random() >= 0.35:
                continue
            graded = [l for l in basis if parity[l] == parity[a] ^ parity[b]]
            terms = {}
            for _ in range(rng.randint(1, 2)):
                label = rng.choice(basis if rng.random() < 0.1 else graded)
                terms[label] = rng.choice(COEFFS)
            table[(a, b)] = Element(terms)
    return SuperAlgebra(kind, even, odd, table)


def _report(A, kind):
    """(grading entries sorted by index pair, the other entries in order)."""
    entries = [(v.identity, v.labels, dict(v.residual.items()))
               for v in validate(A, kind).violations]
    return _split(A, entries)


def _split(A, entries):
    grading = sorted((e for e in entries if e[0] == "grading"),
                     key=lambda e: [A.index(l) for l in e[1]])
    return grading, [e for e in entries if e[0] != "grading"]


def test_index_law_matches_label_oracle():
    rng = random.Random(20240607)
    violating = 0
    for case in range(200):
        A = random_law(rng, LIE if case % 2 else LEIBNIZ)
        basis = A.combined_basis
        assert A.parities == tuple(A.parity(l) for l in basis)
        assert {(basis[i], basis[j]): {basis[k]: c for k, c in cell.items()}
                for (i, j), cell in A.law.items()} == \
            {key: dict(el.items()) for key, el in A.brackets.items()}, case

        for kind in (A.kind, LEIBNIZ):
            assert _report(A, kind) == _split(A, naive_validate(A, kind)), (case, kind)
        violating += not validate(A).ok

        for parity in (EVEN, ODD):
            got = [[list(row) for row in D.matrix.entries]
                   for D in derivation_space(A, parity).basis]
            assert got == naive_derivation_basis(A, parity), (case, parity)

        for label in basis:
            for side in ("left", "right"):
                got = [list(row) for row in multiplication_matrix(A, label, side).entries]
                assert got == naive_multiplication_matrix(A, label, side), \
                    (case, label, side)
    # the comparison must cover failing laws, not only valid ones
    assert violating > 100


def _labelwise_equal(A, B):
    """Oracle for equal_laws: compare the label tables pair by pair."""
    keys = set(A.brackets) | set(B.brackets)
    return all(dict(A.basis_bracket(*k).items()) == dict(B.basis_bracket(*k).items())
               for k in keys)


def test_equal_laws_matches_labelwise_comparison():
    rng = random.Random(20261018)
    outcomes = []
    for case in range(200):
        A = random_law(rng, LIE if case % 2 else LEIBNIZ)
        basis = A.combined_basis
        table = {key: dict(el.items()) for key, el in A.brackets.items()}
        # the same table given in reverse order, then with one coefficient changed
        copies = [dict(reversed(list(table.items())))]
        key, label = (rng.choice(basis), rng.choice(basis)), rng.choice(basis)
        cell = dict(table.get(key, {}))
        cell[label] = cell.get(label, 0) + rng.choice(COEFFS)
        copies.append({**table, key: cell})
        for other in copies:
            B = SuperAlgebra(A.kind, A.even_basis, A.odd_basis, other)
            same = equal_laws(A, B)
            assert same == _labelwise_equal(A, B), case
            outcomes.append(same)
    # both answers must occur, or the comparison could not fail
    assert outcomes.count(True) >= 200 and outcomes.count(False) > 100
