"""Acceptance gate: one test per shipped guarantee, one verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
verdict lines alongside the pytest report.
"""

import itertools
import random

from superalg.core import (EVEN, ODD, Element, change_of_basis, equal_laws,
                           validate)
from superalg.derivations import (SuperDerivation, derivation_space,
                                  inner_space, innerness_report,
                                  is_superderivation, super_commutator)
from superalg.extension import (IdentityViolation, filiform_leibniz_torus_spec,
                                model_nilpotent_leibniz_torus_spec,
                                nilradical_verdict, semidirect_extension)
from superalg.families import (filiform_leibniz, model_filiform_lie,
                               model_nilpotent_leibniz, model_nilpotent_lie,
                               z_basis_filiform_lie, z_basis_nilpotent_lie)
from superalg.invariants import (characteristic_sequence, generator_count,
                                 span_of_labels)
from superalg.linalg import Matrix, nullspace, rank, rref, span_contains

from naive_gauss import naive_nullspace, naive_rank, naive_rref

FILIFORM_GRID = ((3, 2), (4, 3), (5, 2), (6, 4))
LIE_BLOCK_GRID = (((2,), (2,)), ((2, 2), (1, 2)), ((3,), (3,)))
LEIBNIZ_FILIFORM_GRID = ((3, 2), (4, 3), (5, 3))
LEIBNIZ_BLOCK_GRID = (((2,), (2,)), ((2, 2), (1, 2)))


class _verdict:
    """Prints `acceptance <n>: PASS|FAIL` when the block exits."""

    def __init__(self, number):
        self.number = number

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        print("acceptance %d: %s"
              % (self.number, "PASS" if exc_type is None else "FAIL"))
        return False


def test_criterion_1_solvable_lie_filiform_derivations():
    with _verdict(1):
        for n, m in FILIFORM_GRID:
            rep = innerness_report(model_filiform_lie(n, m, solvable=True))
            assert rep["dim_der_even"] == n + 3
            assert rep["dim_der_odd"] == m
            assert rep["all_inner"]


def test_criterion_2_solvable_lie_block_derivations():
    with _verdict(2):
        for even, odd in LIE_BLOCK_GRID:
            k, p = len(even), len(odd)
            rep = innerness_report(model_nilpotent_lie(even, odd, solvable=True))
            assert rep["dim_der_even"] == (sum(even) + 1) + k + 1 + p
            assert rep["dim_der_odd"] == sum(odd)
            assert rep["all_inner"]


def test_criterion_3_solvable_leibniz_filiform_derivations():
    with _verdict(3):
        for n, m in LEIBNIZ_FILIFORM_GRID:
            rep = innerness_report(filiform_leibniz(n, m, solvable=True))
            assert rep["dim_der_even"] == 4
            assert rep["dim_der_odd"] == 0
            assert rep["all_inner"]


def test_criterion_4_solvable_leibniz_block_derivations():
    with _verdict(4):
        for even, odd in LEIBNIZ_BLOCK_GRID:
            k, p = len(even), len(odd)
            rep = innerness_report(
                model_nilpotent_leibniz(even, odd, solvable=True))
            assert rep["dim_der_even"] == k + p + 2
            assert rep["dim_der_odd"] == 0
            assert rep["all_inner"]


def _grid_members():
    for n, m in FILIFORM_GRID:
        yield model_filiform_lie(n, m)
        yield model_filiform_lie(n, m, solvable=True)
    for even, odd in LIE_BLOCK_GRID:
        yield model_nilpotent_lie(even, odd)
        yield model_nilpotent_lie(even, odd, solvable=True)
    for n, m in LEIBNIZ_FILIFORM_GRID:
        yield filiform_leibniz(n, m)
        yield filiform_leibniz(n, m, solvable=True)
    for even, odd in LEIBNIZ_BLOCK_GRID:
        yield model_nilpotent_leibniz(even, odd)
        yield model_nilpotent_leibniz(even, odd, solvable=True)


def test_criterion_5_identity_suites():
    with _verdict(5):
        count = 0
        for A in _grid_members():
            report = validate(A)
            assert report.ok and report.violations == [], A.name
            count += 1
        assert count == 24


def test_criterion_6_isomorphism_replay():
    with _verdict(6):
        zalg, zmap = z_basis_filiform_lie(4, 3)
        replay = change_of_basis(zalg, zmap)
        assert equal_laws(replay, model_filiform_lie(4, 3, solvable=True))

        zalg, zmap = z_basis_nilpotent_lie((2,), (2,))
        replay = change_of_basis(zalg, zmap)
        assert equal_laws(replay, model_nilpotent_lie((2,), (2,), solvable=True))


def test_criterion_7_parameter_elimination():
    with _verdict(7):
        survivors = set()
        for b in itertools.product((0, 1), repeat=3):
            try:
                semidirect_extension(filiform_leibniz_torus_spec(3, 2, b))
            except IdentityViolation:
                continue
            survivors.add(b)
        assert survivors == {(0, 1, 1)}

        for even, odd in (((2,), (2,)), ((2, 2), (2, 2))):
            k, p = len(even), len(odd)
            survivors = set()
            for b in itertools.product((0, 1), repeat=k + 1):
                for bp in itertools.product((0, 1), repeat=p):
                    try:
                        semidirect_extension(
                            model_nilpotent_leibniz_torus_spec(even, odd, b, bp))
                    except IdentityViolation:
                        continue
                    survivors.add((b, bp))
            assert survivors == {((1,) + (0,) * k, (0,) * p)}


def test_criterion_8_structural_invariants():
    with _verdict(8):
        for n, m in FILIFORM_GRID:
            L = model_filiform_lie(n, m)
            seq = characteristic_sequence(L)
            assert seq.as_pair() == ((n - 1, 1), (m,))
            assert seq.witness == Element({"x1": 1})
            assert generator_count(L) == 3
            assert generator_count(filiform_leibniz(n, m)) == 3
        for even, odd in LIE_BLOCK_GRID:
            k, p = len(even), len(odd)
            assert generator_count(model_nilpotent_lie(even, odd)) == k + 1 + p
            assert generator_count(
                model_nilpotent_leibniz(even, odd)) == k + 1 + p

        cases = []
        for n, m in FILIFORM_GRID:
            cases.append((model_filiform_lie(n, m),
                          model_filiform_lie(n, m, solvable=True)))
        for even, odd in LIE_BLOCK_GRID:
            cases.append((model_nilpotent_lie(even, odd),
                          model_nilpotent_lie(even, odd, solvable=True)))
        for n, m in LEIBNIZ_FILIFORM_GRID:
            cases.append((filiform_leibniz(n, m),
                          filiform_leibniz(n, m, solvable=True)))
        for even, odd in LEIBNIZ_BLOCK_GRID:
            cases.append((model_nilpotent_leibniz(even, odd),
                          model_nilpotent_leibniz(even, odd, solvable=True)))
        for nil, solvable in cases:
            verdict = nilradical_verdict(
                solvable, span_of_labels(solvable, nil.combined_basis))
            assert verdict["verdict"], solvable.name
            assert verdict["codimension"] == generator_count(nil), solvable.name


def _flat_span(space):
    return [D.matrix.flatten() for D in space.basis]


def test_criterion_9_oracle_properties():
    with _verdict(9):
        rng = random.Random(20260817)
        samples = [model_filiform_lie(3, 2),
                   model_filiform_lie(3, 2, solvable=True),
                   filiform_leibniz(3, 2, solvable=True),
                   model_nilpotent_lie((2,), (2,), solvable=True)]

        # (a) every basis member satisfies the defining rule
        # (b) inner superderivations sit inside the computed spaces
        for A in samples:
            for parity in (EVEN, ODD):
                der = derivation_space(A, parity)
                flat = _flat_span(der)
                for D in der:
                    ok, violations = is_superderivation(A, D)
                    assert ok, (A.name, parity, violations[:2])
                for D in inner_space(A, parity):
                    assert span_contains(flat, D.matrix.flatten())[0]

        # (c) closure under the super-commutator on random pairs
        A = model_filiform_lie(3, 2, solvable=True)
        spaces = {EVEN: derivation_space(A, EVEN), ODD: derivation_space(A, ODD)}
        flats = {s: _flat_span(spaces[s]) for s in (EVEN, ODD)}
        for _ in range(10):
            s1, s2 = rng.choice((EVEN, ODD)), rng.choice((EVEN, ODD))
            D1 = _random_member(rng, spaces[s1])
            D2 = _random_member(rng, spaces[s2])
            C = super_commutator(D1, D2)
            ok, _ = is_superderivation(A, C)
            assert ok
            assert span_contains(flats[(s1 + s2) % 2],
                                 C.matrix.flatten())[0]

        # (d) dimensions survive a parity-preserving change of basis
        for A in (model_filiform_lie(3, 2), filiform_leibniz(3, 2)):
            dims = (derivation_space(A, EVEN).dim, derivation_space(A, ODD).dim)
            for _ in range(2):
                B = _random_equivalent(rng, A)
                assert (derivation_space(B, EVEN).dim,
                        derivation_space(B, ODD).dim) == dims

        # (e) the elimination kernel against an independent naive oracle
        for _ in range(200):
            nrows = rng.randint(1, 8)
            ncols = rng.randint(1, 8)
            rows = [[rng.randint(-9, 9) for _ in range(ncols)]
                    for _ in range(nrows)]
            M = Matrix(rows)
            assert rank(M) == naive_rank(rows)
            reduced, pivots = rref(M)
            want_rows, want_pivots = naive_rref(rows)
            assert list(pivots) == list(want_pivots)
            assert [tuple(r) for r in reduced.entries] == want_rows
            assert nullspace(M) == naive_nullspace(rows, ncols)


def _random_member(rng, space):
    while True:
        coeffs = [rng.randint(-2, 2) for _ in range(space.dim)]
        if any(coeffs):
            break
    M = Matrix.zero(space.basis[0].matrix.rows, space.basis[0].matrix.cols)
    for c, D in zip(coeffs, space.basis):
        M = M + D.matrix.scale(c)
    return SuperDerivation(space.parity, M)


def _random_equivalent(rng, A):
    ne, no = A.dim_even, A.dim_odd
    while True:
        even_rows = [[rng.randint(-3, 3) for _ in range(ne)] for _ in range(ne)]
        odd_rows = [[rng.randint(-3, 3) for _ in range(no)] for _ in range(no)]
        if rank(Matrix(even_rows)) == ne and rank(Matrix(odd_rows)) == no:
            break
    mapping = {}
    for i, label in enumerate(A.even_basis):
        mapping[label] = Element(
            {A.even_basis[j]: even_rows[i][j] for j in range(ne)})
    for i, label in enumerate(A.odd_basis):
        mapping[label] = Element(
            {A.odd_basis[j]: odd_rows[i][j] for j in range(no)})
    return change_of_basis(A, mapping)
