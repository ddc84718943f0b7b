import random
from types import SimpleNamespace

import pytest

from superalg.core import (EVEN, LIE, ODD, Element, SuperAlgebra,
                           change_of_basis)
from superalg.derivations import (SuperDerivation, _unknown_positions, derivation_space,
                                  inner_space, innerness_report)
from superalg.families import (filiform_leibniz, model_filiform_lie,
                               model_nilpotent_leibniz, model_nilpotent_lie)

from naive_identities import DenseMap, dense_map, is_superderivation, super_commutator


def _embed(A, parity, images):
    """The map sending each label to the given image element."""
    cols = [[images.get(label, Element()).get(l) for l in A.combined_basis]
            for label in A.combined_basis]
    return DenseMap(parity, [list(row) for row in zip(*cols)])


def test_known_odd_map_fails_the_rule():
    L = model_filiform_lie(3, 2)
    D = _embed(L, ODD, {"y1": Element.basis("x1")})
    ok, violations = is_superderivation(L, D)
    assert not ok
    assert ("y1", "y1", {"y2": 2}) in violations
    assert ("x2", "y1", {"x3": -1}) in violations
    assert ("y1", "x2", {"x3": 1}) in violations
    assert len(violations) == 3


def test_known_even_derivation_passes():
    L = model_filiform_lie(3, 2)
    # the grading derivation: weight i on xi, weight j on yj
    D = _embed(L, EVEN, {"x1": Element({"x1": 1}), "x2": Element({"x2": 2}),
                         "x3": Element({"x3": 3}), "y1": Element({"y1": 1}),
                         "y2": Element({"y2": 2})})
    ok, violations = is_superderivation(L, D)
    assert ok and violations == []


def test_parity_block_structure_enforced():
    L = model_filiform_lie(3, 2)
    bad = _embed(L, EVEN, {"y1": Element.basis("x1")})
    with pytest.raises(ValueError):
        is_superderivation(L, bad)
    with pytest.raises(ValueError):
        SuperDerivation(2, 5, [(0, 1), (6, 1)])


def test_derivation_space_dimensions_lie():
    SL = model_filiform_lie(3, 2, solvable=True)
    even = derivation_space(SL, EVEN)
    odd = derivation_space(SL, ODD)
    assert len(even) == 6 and len(odd) == 2
    for D in even + odd:
        ok, _ = is_superderivation(SL, dense_map(D))
        assert ok


def test_derivation_space_dimensions_leibniz():
    SLP = filiform_leibniz(3, 2, solvable=True)
    assert len(derivation_space(SLP, EVEN)) == 4
    assert len(derivation_space(SLP, ODD)) == 0


def test_inner_space_members_are_derivations():
    for A in (model_filiform_lie(3, 2, solvable=True),
              filiform_leibniz(3, 2, solvable=True)):
        for parity in (EVEN, ODD):
            space = inner_space(A, parity)
            for D in space:
                ok, _ = is_superderivation(A, dense_map(D))
                assert ok, A.name


def test_inner_contained_in_derivations():
    from superalg.linalg import row_space_basis

    for A in (model_filiform_lie(4, 3, solvable=True),
              model_nilpotent_leibniz((2,), (2,), solvable=True)):
        n = A.dim
        for parity in (EVEN, ODD):
            der = [sum(dense_map(D).rows, []) for D in derivation_space(A, parity)]
            inner = [sum(dense_map(D).rows, []) for D in inner_space(A, parity)]
            der_basis = row_space_basis(der, n * n)
            assert row_space_basis(list(der_basis) + inner, n * n) == der_basis


def test_innerness_report_solvable_vs_nilpotent():
    rep = innerness_report(model_filiform_lie(3, 2, solvable=True))
    assert rep["dim_der_even"] == 6 and rep["dim_der_odd"] == 2
    assert rep["dim_inner_even"] == 6 and rep["dim_inner_odd"] == 2
    assert rep["outer_even"] == 0 and rep["outer_odd"] == 0
    assert rep["all_inner"]
    assert all(e is not None for e in rep["expressions"]["even"])
    rep = innerness_report(model_filiform_lie(3, 2))
    assert not rep["all_inner"]
    assert rep["outer_even"] > 0
    assert any(e is None for e in rep["expressions"]["even"])


def test_super_commutator_closure():
    SL = model_filiform_lie(3, 2, solvable=True)
    basis = [dense_map(D) for D in derivation_space(SL, EVEN) + derivation_space(SL, ODD)]
    rng = random.Random(7)
    for _ in range(10):
        D1, D2 = rng.choice(basis), rng.choice(basis)
        C = super_commutator(D1, D2)
        assert C.parity == (D1.parity + D2.parity) % 2
        ok, _ = is_superderivation(SL, C)
        assert ok


def test_odd_squares_to_even_derivation():
    SL = model_filiform_lie(3, 2, solvable=True)
    D = dense_map(derivation_space(SL, ODD)[0])
    n = SL.dim
    # [D, D] = 2 D^2 for odd D
    sq = super_commutator(D, D)
    assert sq.parity == EVEN
    assert sq.rows == [[2 * sum(D.rows[i][k] * D.rows[k][j] for k in range(n))
                        for j in range(n)] for i in range(n)]
    ok, _ = is_superderivation(SL, sq)
    assert ok


def test_dimension_invariant_under_basis_change():
    SL = model_filiform_lie(3, 2, solvable=True)
    want = (len(derivation_space(SL, EVEN)), len(derivation_space(SL, ODD)))
    rng = random.Random(20250817)
    for _ in range(3):
        B = _random_parity_preserving_change(SL, rng)
        got = (len(derivation_space(B, EVEN)), len(derivation_space(B, ODD)))
        assert got == want


def _random_parity_preserving_change(A, rng):
    from superalg.linalg import Matrix, rank

    ne, no = A.dim_even, A.dim_odd
    while True:
        even_rows = [[rng.randint(-3, 3) for _ in range(ne)] for _ in range(ne)]
        odd_rows = [[rng.randint(-3, 3) for _ in range(no)] for _ in range(no)]
        if rank(Matrix(even_rows)) == ne and rank(Matrix(odd_rows)) == no:
            break
    mapping = {}
    for i in range(ne):
        mapping["e%d" % i] = Element(
            {A.even_basis[j]: even_rows[i][j] for j in range(ne)})
    for i in range(no):
        mapping["o%d" % i] = Element(
            {A.odd_basis[j]: odd_rows[i][j] for j in range(no)})
    return change_of_basis(A, mapping)


def test_trivial_odd_space_when_no_odd_part():
    space = derivation_space(model_filiform_lie(3, 2, solvable=True), ODD)
    assert isinstance(space, list)
    # abelian even-only algebra: every even matrix is a derivation, no odd maps
    flat = SuperAlgebra(LIE, ["a", "b"], [], {})
    assert len(derivation_space(flat, EVEN)) == 4
    assert len(derivation_space(flat, ODD)) == 0


def test_empty_system_leaves_every_unknown_free():
    # no structure constants: the system has no equations, and every map of
    # the right parity is a derivation (a -> a, b -> b even; a -> b, b -> a odd)
    flat = SuperAlgebra(LIE, ["a"], ["b"], {})
    for parity in (EVEN, ODD):
        space = derivation_space(flat, parity)
        assert len(space) == 2
        assert all(is_superderivation(flat, dense_map(D))[0] for D in space)


def test_unknown_positions_walk_only_the_admissible_blocks():
    """The positions come block by block in the order of the filtered
    comprehension over all (target, source) pairs: source parity, then
    target row, then source column; also when the parities interleave."""
    algebras = [SuperAlgebra(LIE, ["a", "b", "c"], [], {}),
                SuperAlgebra(LIE, [], ["p", "q"], {}),
                model_filiform_lie(3, 2, solvable=True), filiform_leibniz(5, 4),
                model_nilpotent_lie((2, 3), (2,)), model_nilpotent_leibniz((2, 2), (3,)),
                SimpleNamespace(dim=6, parities=(ODD, EVEN, EVEN, ODD, EVEN, ODD))]
    sizes = set()
    for A in algebras:
        n, par = A.dim, A.parities
        for parity in (EVEN, ODD):
            filtered = [(k, l) for source in (EVEN, ODD) for k in range(n) for l in range(n)
                        if par[l] == source and par[k] == source ^ parity]
            assert _unknown_positions(A, parity) == filtered, (par, parity)
            sizes.add(len(filtered))
    assert 0 in sizes and 9 in sizes and 4 in sizes
