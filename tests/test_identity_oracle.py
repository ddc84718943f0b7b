"""The index-form law against the label-form oracle in naive_identities.py.

Random small laws of both kinds, some with terms that break the grading
and most violating their identity, must give the oracle's validation
reports, derivation bases and multiplication matrices.
"""

import random
from fractions import Fraction

from naive_identities import (dense_map, naive_derivation_basis,
                              naive_multiplication_matrix, naive_validate)
from superalg.core import (EVEN, LEIBNIZ, LIE, ODD, Element, SuperAlgebra,
                           change_of_basis, equal_laws, multiplication_matrix, validate)
from superalg.derivations import derivation_space, inner_space
from superalg.families import member

COEFFS = (Fraction(1), Fraction(-1), Fraction(2), Fraction(-1, 2), Fraction(3))
# denominators 3 and 7, so the integer law's d is often 21
THIRDS_AND_SEVENTHS = (Fraction(1, 3), Fraction(-2, 7), Fraction(5, 3), Fraction(3, 7),
                       Fraction(-4, 21), Fraction(2))


def random_law(rng, kind, coeffs=COEFFS):
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
                terms[label] = rng.choice(coeffs)
            table[(a, b)] = Element(terms)
    return SuperAlgebra(kind, even, odd, table)


def _label_law(A):
    """A.integer_law over labels, each cell divided by d."""
    basis, (d, law) = A.combined_basis, A.integer_law
    return {(basis[i], basis[j]): {basis[k]: Fraction(c, d) for k, c in cell.items()}
            for (i, j), cell in law.items()}


def _report(A, kind):
    """(grading entries sorted by index pair, the other entries in order), of
    A's table checked against the identity of `kind`."""
    B = SuperAlgebra.from_law(kind, A.even_basis, A.odd_basis, A.integer_law)
    entries = [(v.identity, v.labels, dict(v.residual.items()))
               for v in validate(B).violations]
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
        assert A.parities == tuple(A.parity(l) for l in A.combined_basis)
        assert _label_law(A) == {key: dict(el.items()) for key, el in A.brackets.items()}, case
        _check_against_oracle(A)
        violating += not validate(A).ok
    # the comparison must cover failing laws, not only valid ones
    assert violating > 100


def _check_against_oracle(A):
    """validate for both kinds, derivation_space for both parities and
    multiplication_matrix on every label and side."""
    for kind in (A.kind, LEIBNIZ):
        assert _report(A, kind) == _split(A, naive_validate(A, kind)), kind
    for parity in (EVEN, ODD):
        got = [dense_map(D).rows for D in derivation_space(A, parity)]
        assert got == naive_derivation_basis(A, parity), parity
    for label in A.combined_basis:
        for side in ("left", "right"):
            got = [list(row) for row in multiplication_matrix(A, label, side).entries]
            assert got == naive_multiplication_matrix(A, label, side), (label, side)


def test_integer_law_matches_label_oracle_with_thirds_and_sevenths():
    rng = random.Random(3721)
    scales = set()
    denominators = set()
    for case in range(120):
        A = random_law(rng, LIE if case % 2 else LEIBNIZ, THIRDS_AND_SEVENTHS)
        d, law = A.integer_law
        assert _label_law(A) == {key: dict(el.items()) for key, el in A.brackets.items()}, case
        assert all(type(c) is int for cell in law.values() for c in cell.values())
        scales.add(d)
        _check_against_oracle(A)
        denominators |= {c.denominator for v in validate(A).violations
                         for _, c in v.residual.items()}
    # residuals are rescaled by d^2 = 441 and must come out in lowest terms
    assert 21 in scales and {9, 49, 441} <= denominators

    # valid laws with these denominators: members rescaled basis vector by vector
    for family, even, odd in (("SL", (3,), (2,)), ("SLP", (3,), (2,))):
        A = member(family, even, odd)
        B = change_of_basis(A, {l: Element({l: THIRDS_AND_SEVENTHS[i % 4]})
                                for i, l in enumerate(A.combined_basis)})
        assert B.integer_law[0] % 21 == 0 and validate(B).ok, family
        _check_against_oracle(B)


def _unitriangular_change(A, rng):
    """In each parity block, basis vector j becomes e_j plus c * e_i for
    every earlier i in the block with (i + j) % 3 == 0, c drawn from
    (-2, -1, 1, 2): the dense laws of the derivation benchmark."""
    images = {}
    for block in (A.even_basis, A.odd_basis):
        for j, label in enumerate(block):
            image = {label: 1}
            for i in range(j):
                if (i + j) % 3 == 0:
                    image[block[i]] = rng.choice((-2, -1, 1, 2))
            images[label] = Element(image)
    return images


def test_derivation_basis_of_dense_laws_matches_label_oracle():
    """Many more equations than unknowns, most of them redundant, with
    integer constants of both signs: the regime the kernel's row order is
    chosen for.  On the solvable members every derivation is inner (the
    kernel's nullity is dim Inn); L and LP have outer ones as well."""
    rng = random.Random(1968)
    for family, even, odd in (("SL", (4,), (3,)), ("SLP", (4,), (3,)), ("SN", (2, 2), (2,)),
                              ("SNP", (2, 3), (2,)), ("L", (4,), (3,)), ("LP", (4,), (3,))):
        A = member(family, even, odd)
        B = change_of_basis(A, _unitriangular_change(A, rng))
        nnz = [sum(map(len, X.integer_law[1].values())) for X in (A, B)]
        assert validate(B).ok and nnz[1] > 2 * nnz[0], (family, nnz)
        outer = 0
        for parity in (EVEN, ODD):
            der = derivation_space(B, parity)
            got = [dense_map(D).rows for D in der]
            assert got == naive_derivation_basis(B, parity), (family, parity)
            assert len(got) == len(derivation_space(A, parity)), (family, parity)
            outer += len(der) - len(inner_space(B, parity))
        assert (outer > 0) == (family in ("L", "LP")), (family, outer)


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
        # the same table given in reverse order, then doubled, which can
        # share its integer cells with the table and differ only in d, then
        # with one coefficient changed
        copies = [dict(reversed(list(table.items()))),
                  {key: {l: 2 * c for l, c in cell.items()} for key, cell in table.items()}]
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


def test_derivation_basis_of_a_law_that_is_not_skew_keeps_all_equations():
    """A lie-kind law whose transpose cells disagree: the mirrored half of
    the derivation equations is not redundant, so none may be dropped."""
    A = member("SL", (4,), (3,))
    table = dict(A.brackets)
    l, r = next(key for key in table if A.parity(key[0]) == EVEN and key[0] != key[1])
    table[(r, l)] = table[(r, l)].scale(3)
    B = SuperAlgebra(LIE, A.even_basis, A.odd_basis, table)
    assert "skew" in {v.identity for v in validate(B).violations}
    for parity in (EVEN, ODD):
        got = [dense_map(D).rows for D in derivation_space(B, parity)]
        assert got == naive_derivation_basis(B, parity), parity


def _skew_part(A):
    """A's lie law kept on the pairs (a, b) with a before b and on (y, y)
    for odd y; the constructor fills in the rest by super skew-symmetry."""
    at = A.combined_basis.index
    table = {(a, b): el for (a, b), el in A.brackets.items()
             if at(a) < at(b) or (a == b and A.parity(a) == ODD)}
    return SuperAlgebra(LIE, A.even_basis, A.odd_basis, table)


def test_skew_lie_laws_match_label_oracle_on_every_permutation():
    """Skew laws that break Jacobi, some with terms that break the grading:
    validate sums the residual of nondecreasing triples only and copies it
    to the other permutations, the oracle visits every triple."""
    rng = random.Random(1979)
    seen = {"(y,y,y)": 0, "(y,y,x)": 0, "off-grading": 0, "distinct": 0}
    for case in range(400):
        A = _skew_part(random_law(rng, LIE, COEFFS if case % 3 else THIRDS_AND_SEVENTHS))
        assert A.skew_symmetric, case
        grading, rest = _report(A, LIE)
        assert (grading, rest) == _split(A, naive_validate(A, LIE)), case
        assert {e[0] for e in rest} <= {"jacobi"}, case
        seen["off-grading"] += bool(grading and rest)
        for _, labels, _ in rest:
            odd = [A.parity(l) for l in labels].count(ODD)
            if len(set(labels)) == 1 and odd == 3:
                seen["(y,y,y)"] += 1
            elif len(set(labels)) == 2 and odd == 2 and len({l for l in labels
                                                             if A.parity(l)}) == 1:
                seen["(y,y,x)"] += 1
            elif len(set(labels)) == 3:
                seen["distinct"] += 1
    assert min(seen.values()) >= 50, seen


def test_skew_flag_agrees_with_the_skew_stage():
    """A.skew_symmetric, which picks the short validation and the halved
    derivation system, holds exactly when the oracle finds no skew entry."""
    rng = random.Random(1980)
    outcomes = []
    for case in range(200):
        A = random_law(rng, LIE)
        if case % 2:
            A = _skew_part(A)
        flag = not any(e[0] == "skew" for e in naive_validate(A, LIE))
        assert A.skew_symmetric == flag, case
        outcomes.append(flag)
    assert outcomes.count(True) >= 100 and outcomes.count(False) >= 50
