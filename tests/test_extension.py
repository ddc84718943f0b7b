import itertools
import random
from fractions import Fraction

import pytest

import superalg
from superalg import extension, fixtures
from superalg.core import (LEIBNIZ, Element, SuperAlgebra, change_of_basis, equal_laws,
                           validate)
from superalg.derivations import maximal_torus
from superalg.extension import (ExtensionSpec, IdentityViolation, _diagonal_rows,
                                _linear_residuals, _parameter_solutions, nilradical_verdict,
                                semidirect_extension)
from superalg.families import (filiform_leibniz, model_filiform_lie,
                               model_nilpotent_leibniz, model_nilpotent_lie,
                               z_basis_filiform_lie, z_basis_nilpotent_lie)
from superalg.invariants import span_of_labels, whole_space
from superalg.linalg import sparse_rows

from naive_identities import naive_validate
from naive_sweep import point_form, sweep
from naive_torus import leibniz_torus_rows, leibniz_torus_specs, lie_torus_spec


def _diag(values):
    """The sparse rows of diag(values)."""
    return [[(i, v)] if v else [] for i, v in enumerate(values)]


def _transpose(dense):
    return [list(col) for col in zip(*dense)]


def _nil_independent(ext, nil):
    """Condition (c) of the verdict on nil in its extension: no nonzero
    combination of the torus acts nilpotently."""
    verdict = nilradical_verdict(ext, span_of_labels(ext, nil.combined_basis))
    return verdict["complement_acts_nonnilpotently"]


def test_extension_reproduces_solvable_lie_families():
    # the paper's torus, written out in naive_torus, extends to the solvable
    # law of families.py and to the replay of the computed z-basis extension
    cases = [("SL", (n,), (m,), model_filiform_lie(n, m, solvable=True),
              z_basis_filiform_lie(n, m)) for n, m in ((3, 2), (4, 3))]
    cases += [("SN", even, odd, model_nilpotent_lie(even, odd, solvable=True),
               z_basis_nilpotent_lie(even, odd))
              for even, odd in (((2,), (2,)), ((2, 2), (1, 2)))]
    for family, even, odd, solvable, (zalg, zmap) in cases:
        spec = lie_torus_spec(family, even, odd)
        ext = semidirect_extension(spec)
        assert equal_laws(ext, solvable)
        assert equal_laws(ext, change_of_basis(zalg, zmap))
        assert _nil_independent(ext, spec.nilradical)


def test_leibniz_parameter_sweep_filiform():
    assert sweep("LP", (3,), (2,)) == {(0, 1, 1)}
    winner = semidirect_extension(leibniz_torus_specs("LP", (3,), (2,))((0, 1, 1)))
    assert equal_laws(winner, filiform_leibniz(3, 2, solvable=True))
    assert _nil_independent(winner, filiform_leibniz(3, 2))


def test_sweep_keeps_int_parameters_as_ints():
    make = leibniz_torus_specs("LP", (3,), (2,))

    def left_values(point):
        spec = make(point)
        return [v for t in spec.torus_labels for row in spec.action_rows[t][0] for _, v in row]

    values = left_values((0, 3, -2))  # b - 1 on x1, on x2..x3 and on y1..y2
    assert values == [-1, 2, 2, -3, -3] and {type(v) for v in values} == {int}
    values = left_values((Fraction(1, 2), 1, 1))
    assert values == [Fraction(-1, 2)] and type(values[0]) is Fraction
    assert left_values(("1/2", 1, 1)) == values
    np_rows = leibniz_torus_specs("NP", (2,), (2,))(((1, 0), (0,))).action_rows["t1"][0]
    assert [type(v) for row in np_rows for _, v in row] == [int]
    # the theorem's point extends to SLP^{3,2}, given as ints or as Fractions
    ext = semidirect_extension(make((0, 1, 1)))
    assert equal_laws(ext, filiform_leibniz(3, 2, solvable=True))
    assert ext.integer_law == semidirect_extension(make(tuple(map(Fraction, (0, 1, 1))))).integer_law


def test_leibniz_sweep_violating_triple():
    # with b1 = 1 the left t1 action vanishes while the right one survives,
    # which the product rule on (x2, t1, x1) detects
    try:
        semidirect_extension(leibniz_torus_specs("LP", (3,), (2,))((1, 1, 1)))
        raised = False
    except IdentityViolation as exc:
        raised = True
        assert ("x2", "t1", "x1") in exc.report.triples("leibniz")
    assert raised


def test_leibniz_parameter_sweep_blocks():
    assert sweep("NP", (2,), (2,)) == {((1, 0), (0,))}
    winner = semidirect_extension(
        leibniz_torus_specs("NP", (2,), (2,))(((1, 0), (0,))))
    assert equal_laws(winner, model_nilpotent_leibniz((2,), (2,),
                                                      solvable=True))


def test_the_leibniz_spec_source_left_the_library():
    # the paper's candidate specs of 5.1/6.1 are a test oracle only
    assert not hasattr(superalg, "leibniz_torus_specs")
    assert not hasattr(extension, "leibniz_torus_specs")


def test_size_one_odd_block_leaves_its_parameter_free():
    # an odd block with a single element has no chain forcing its sign
    # parameter, so exactly two sweep points survive; the solve of the
    # linear triples leaves that parameter free, on a line through both
    survivors = sweep("NP", (2, 2), (1, 2))
    assert survivors == {((1, 0, 0), (0, 0)), ((1, 0, 0), (1, 0))}
    nil, _, supports, rights = leibniz_torus_rows("NP", (2, 2), (1, 2))
    point, r = point_form("NP", (2, 2), (1, 2))
    base, directions = _parameter_solutions(nil, supports, rights)
    assert point(base) == ((1, 0, 0), (0, 0))
    assert [point(v) for v in directions] == [((0, 0, 0), (1, 0))]
    on_line = {point([x + s * y for x, y in zip(base, directions[0])]) for s in (0, 1)}
    assert on_line == survivors


def test_linear_residuals_match_the_naive_identity():
    # one even label t with seeded non-diagonal integer actions: the terms
    # _linear_residuals returns are the naive Leibniz residuals of (t, e_q, e_r)
    # and (e_q, t, e_r), over nil's d; the residuals are read on any graded
    # table, here also a seeded one with brackets of two odd labels
    rng = random.Random(25)
    xs, ys = ("x1", "x2", "x3"), ("y1", "y2")
    law = {(a, b): {c: Fraction(rng.choice((-1, 1, 2)), rng.choice((1, 2)))
                      for c in (ys if (a in ys) != (b in ys) else xs) if rng.random() < 0.4}
             for a in xs + ys for b in xs + ys if rng.random() < 0.5}
    for nil in (filiform_leibniz(4, 3), model_nilpotent_leibniz((2, 3), (2,)),
                SuperAlgebra(LEIBNIZ, xs, ys, law)):
        basis, n, d = nil.combined_basis, nil.dim, nil.integer_law[0]
        same = [[j for j in range(n) if nil.parities[j] == nil.parities[i]] for i in range(n)]
        left, right = ([[(j, rng.choice((-2, -1, 1, 3))) for j in same[i] if rng.random() < 0.3]
                        for i in range(n)] for _ in "lr")
        table = dict(nil.brackets)
        for j in range(n):
            table["t", basis[j]] = {basis[i]: v for i, row in enumerate(left) for c, v in row if c == j}
            table[basis[j], "t"] = {basis[i]: v for i, row in enumerate(right) for c, v in row if c == j}
        ext = SuperAlgebra(nil.kind, nil.even_basis + ("t",), nil.odd_basis, table)
        want = {}
        for _, (x, y, z), res in naive_validate(ext, nil.kind):
            if "t" in (x, y) and z != "t" and (x, y).count("t") == 1:
                side, q = (0, y) if x == "t" else (1, x)
                want.update({(side, q, z, l): c for l, c in res.items()})
        got = _linear_residuals(nil, left, right)
        assert {(side, basis[q], basis[r], basis[k]): Fraction(v, d)
                for (side, q, r, k), v in got.items() if v} == want != {}


def _solve_shapes():
    """A seeded grid of LP sizes and NP shapes, every block at least 2
    long and the solvable member of dimension at most 24."""
    rng = random.Random(2525)
    lp = [((n,), (m,)) for n in range(3, 19) for m in range(2, 19) if n + m + 3 <= 24]
    blocks = [b for k in (1, 2, 3) for b in itertools.product((2, 3, 4), repeat=k)]
    np_ = [(e, o) for e in blocks for o in blocks
           if sum(e) + 1 + sum(o) + len(e) + 1 + len(o) <= 24]
    return ([("LP",) + s for s in rng.sample(lp, 7)]
            + [("NP",) + s for s in rng.sample(np_, 13)])


@pytest.mark.parametrize("family, even, odd", _solve_shapes(),
                         ids=lambda v: ",".join(map(str, v)) if isinstance(v, tuple) else v)
def test_solve_matches_the_corner_sweep(family, even, odd):
    # the exact solve on the paper's torus rows and the corner sweep over
    # its specs agree, LP's sweep point being 1 - b; the solution is the
    # one surviving corner, and the fixture, on the computed torus, reports it
    survivors = sweep(family, even, odd)
    nil, _, supports, rights = leibniz_torus_rows(family, even, odd)
    assert rights == [_diagonal_rows(dict(w), nil.dim) for w in maximal_torus(nil)]
    point, r = point_form(family, even, odd)
    base, directions = _parameter_solutions(nil, supports, rights)
    assert directions == [] and all(type(v) is int for v in base)
    assert survivors == {point([1 - v for v in base] if family == "LP" else base)}
    assert base == [1] + [0] * (r - 1)
    _, checks = fixtures.verify("5.1" if family == "LP" else "6.1", even, odd)
    assert checks[0] == ("the linear triples have one solution, where the extension validates",
                         True, "got %s" % (tuple(base),))
    assert all(ok for _, ok, _ in checks)


def _diagonal_of(rows):
    assert all(j == i for i, row in enumerate(rows) for j, _ in row)
    return [dict(row).get(i, 0) for i, row in enumerate(rows)]


def _block_layout(even, odd):
    """Basis, torus and, per chain label, (its block's torus label, its
    place in the block counted from 0), from the theorems' block layout."""
    layout = {}
    for prefix, first, sizes, torus in (("x", 2, even, "t%d"), ("y", 1, odd, "tp%d")):
        for j, size in enumerate(sizes, 1):
            for i in range(first, first + size):
                layout["%s%d" % (prefix, i)] = (torus % (j + 1 if prefix == "x" else j),
                                                i - first)
            first += size
    basis = (["x%d" % i for i in range(1, sum(even) + 2)]
             + ["y%d" % i for i in range(1, sum(odd) + 1)])
    torus = (["t%d" % i for i in range(1, len(even) + 2)]
             + ["tp%d" % i for i in range(1, len(odd) + 1)])
    return basis, torus, layout


def test_spec_actions_are_the_theorems_diagonals():
    values = [Fraction(1, 2), -3, 2, Fraction(-5, 3), 7, 0, 1]
    for even, odd in (((2,), (2,)), ((2, 2), (1, 2)), ((3,), (3,)), ((1,), (1,)),
                      ((1, 3), (2, 1)), ((3, 1, 2), (1, 2, 3))):
        basis, torus, layout = _block_layout(even, odd)
        on_block = lambda t, v: [v if layout.get(l, (None,))[0] == t else 0 for l in basis]
        # Lie (the oracle): [t1, x_i] = i x_i, [t1, y_i] = i y_i; the other
        # t are the identity on their block; the right action is minus the left one
        spec = lie_torus_spec("SN", even, odd)
        assert spec.nilradical.combined_basis == tuple(basis)
        assert spec.torus_labels == tuple(torus)
        for t in torus:
            left, right = spec.action_rows[t]
            want = ([int(l[1:]) for l in basis] if t == "t1" else on_block(t, 1))
            assert _diagonal_of(left) == want, (even, odd, t)
            assert _diagonal_of(right) == [-v for v in want]
        # Leibniz: left -b1 on x1 for t1, -b_j (-bp_j) on the block of t;
        # right 1 on x1 and the place in the block for t1, 1 on the block
        k, p = len(even), len(odd)
        for params in (values, [1] + [0] * 6):
            b, bp = params[:k + 1], params[k + 1:k + 1 + p]
            spec = leibniz_torus_specs("NP", even, odd)((b, bp))
            assert spec.nilradical.combined_basis == tuple(basis)
            assert spec.torus_labels == tuple(torus)
            for t, v in zip(torus, list(b) + list(bp)):
                left, right = spec.action_rows[t]
                if t == "t1":
                    want_left = [-v if l == "x1" else 0 for l in basis]
                    want_right = [1 if l == "x1" else layout[l][1] for l in basis]
                else:
                    want_left, want_right = on_block(t, -v), on_block(t, 1)
                assert _diagonal_of(left) == want_left, (even, odd, t, v)
                assert _diagonal_of(right) == want_right, (even, odd, t)
    # the filiform specs: t2 on x2..xn, t3 on the odd part; the Leibniz
    # left actions carry b - 1
    for n, m in ((3, 2), (5, 4)):
        basis = (["x%d" % i for i in range(1, n + 1)]
                 + ["y%d" % j for j in range(1, m + 1)])
        spec = lie_torus_spec("SL", (n,), (m,))
        assert spec.torus_labels == ("t1", "t2", "t3")
        assert [_diagonal_of(spec.action_rows[t][0]) for t in spec.torus_labels] == [
            [int(l[1:]) for l in basis],
            [int(l[0] == "x" and l != "x1") for l in basis],
            [int(l[0] == "y") for l in basis]]
        b = (Fraction(1, 2), -3, 2)
        spec = leibniz_torus_specs("LP", (n,), (m,))(b)
        assert spec.torus_labels == ("t1", "t2", "t3")
        assert [_diagonal_of(spec.action_rows[t][0]) for t in spec.torus_labels] == [
            [b[0] - 1 if l == "x1" else 0 for l in basis],
            [b[1] - 1 if l[0] == "x" and l != "x1" else 0 for l in basis],
            [b[2] - 1 if l[0] == "y" else 0 for l in basis]]
        assert [_diagonal_of(spec.action_rows[t][1]) for t in spec.torus_labels] == [
            [1] + [i - 2 for i in range(2, n + 1)] + [j - 1 for j in range(1, m + 1)],
            [int(l[0] == "x" and l != "x1") for l in basis],
            [int(l[0] == "y") for l in basis]]


def test_extension_spec_validation():
    nil = model_filiform_lie(3, 2)
    n = nil.dim
    good = _diag([1] * 3 + [0] * 2)
    with pytest.raises(ValueError):
        ExtensionSpec(nil, ["x1"], {"x1": good})
    with pytest.raises(ValueError):
        ExtensionSpec(nil, ["t", "t"], {"t": good})
    with pytest.raises(ValueError):
        ExtensionSpec(nil, ["t"], {"t": [[], []]})
    mixing = [[], [], [], [], [(0, 1)]]
    with pytest.raises(ValueError):
        ExtensionSpec(nil, ["t"], {"t": mixing})
    with pytest.raises(ValueError):
        ExtensionSpec(nil, ["t"], {"t": (good, good)})  # lie wants right=-left
    leib = filiform_leibniz(3, 2)
    with pytest.raises(ValueError):
        ExtensionSpec(leib, ["t"], {"t": good})  # leibniz wants both sides
    spec = ExtensionSpec(nil, ["t"], {"t": good})
    assert spec.action_rows["t"][1] == _diag([-1] * 3 + [0] * 2)


def test_explicit_zero_keeps_an_action_diagonal():
    # diag(1, 2, 3, 1, 2) on L^{3,2} with an explicit zero at (2, 1): the
    # zero is dropped where the rows enter, so the map is diagonal
    nil = model_filiform_lie(3, 2)
    left = [[(0, 1)], [(1, 2)], [(2, 3), (1, 0)], [(3, 1)], [(4, 2)]]
    spec = ExtensionSpec(nil, ["t"], {"t": left})
    assert _nil_independent(semidirect_extension(spec), nil)
    assert spec.action_rows["t"] == (_diag([1, 2, 3, 1, 2]), _diag([-1, -2, -3, -1, -2]))


def test_lie_right_action_with_an_explicit_zero_is_minus_left():
    nil = model_filiform_lie(3, 2)
    left = _diag([1, 2, 3, 1, 2])
    right = [[(0, -1)], [(1, -2), (0, 0)], [(2, -3)], [(3, -1)], [(4, -2)]]
    spec = ExtensionSpec(nil, ["t"], {"t": (left, right)})
    assert spec.action_rows["t"][1] == _diag([-1, -2, -3, -1, -2])
    assert equal_laws(semidirect_extension(spec),
                      semidirect_extension(ExtensionSpec(nil, ["t"], {"t": left})))
    # rows given as tuples come out as the same lists
    as_tuples = [tuple(row) for row in right]
    spec = ExtensionSpec(nil, ["t"], {"t": (left, as_tuples)})
    assert spec.action_rows["t"][1] == _diag([-1, -2, -3, -1, -2])


def test_action_rows_are_sorted_and_a_repeated_column_refused():
    nil = model_filiform_lie(3, 2)
    # an unsorted row comes out in column order; a zero may sit anywhere
    mixed = [[(0, 1)], [(1, 2)], [(2, 3), (1, 1)], [(3, 1), (0, 0)], [(4, 2), (3, 1)]]
    spec = ExtensionSpec(nil, ["t"], {"t": mixed})
    assert spec.action_rows["t"][0] == [[(0, 1)], [(1, 2)], [(1, 1), (2, 3)], [(3, 1)],
                                        [(3, 1), (4, 2)]]
    assert semidirect_extension(spec).dim == 6
    # a repeated column is refused, even where its values cancel
    for bad in ([(1, 2), (1, 1)], [(1, 1), (2, 3), (1, -1)]):
        with pytest.raises(ValueError, match="row 2 repeats column 1"):
            ExtensionSpec(nil, ["t"], {"t": [[(0, 1)], [(1, 2)], bad, [], []]})
    with pytest.raises(ValueError, match="matrix must be 5x5"):
        ExtensionSpec(nil, ["t"], {"t": [[(5, 1)], [], [], [], []]})


def test_nil_independence_checks():
    # t = 2 s, so t - 2 s acts as zero: the verdict's condition (c) fails
    nil = model_filiform_lie(3, 2)
    d1 = _diag([1, 2, 3, 1, 2])
    d2 = _diag([2, 4, 6, 2, 4])
    ext = semidirect_extension(ExtensionSpec(nil, ["s", "t"], {"s": d1, "t": d2}))
    assert not _nil_independent(ext, nil)


def test_nilradical_verdict_positive():
    SL = model_filiform_lie(3, 2, solvable=True)
    nil_labels = model_filiform_lie(3, 2).combined_basis
    verdict = nilradical_verdict(SL, span_of_labels(SL, nil_labels))
    assert verdict["verdict"]
    assert verdict["is_ideal"]
    assert verdict["restriction_nilpotent"]
    assert verdict["complement_acts_nonnilpotently"]
    assert verdict["derived_subalgebra_contained"]
    assert verdict["codimension"] == 3
    assert set(verdict["complement_directions"]) == {"t1", "t2", "t3"}


def test_nilradical_verdict_negative_cases():
    SL = model_filiform_lie(3, 2, solvable=True)
    # the whole algebra is an ideal but not nilpotent
    verdict = nilradical_verdict(SL, whole_space(SL))
    assert not verdict["verdict"]
    assert verdict["is_ideal"] and not verdict["restriction_nilpotent"]
    L = model_filiform_lie(3, 2)
    # a central ideal: complement directions act nilpotently
    verdict = nilradical_verdict(L, span_of_labels(L, ["x3", "y2"]))
    assert not verdict["verdict"]
    assert verdict["is_ideal"] and verdict["restriction_nilpotent"]
    assert not verdict["complement_acts_nonnilpotently"]
    assert verdict["derived_subalgebra_contained"]
    # a non-ideal subspace
    verdict = nilradical_verdict(L, span_of_labels(L, ["x1"]))
    assert not verdict["is_ideal"] and not verdict["verdict"]


def test_nilradical_verdict_rejects_nil_dependent_torus():
    # t1 and t2 act by the same diagonal map, so t1 - t2 acts as zero and
    # N + span(t1 - t2) is a larger nilpotent ideal than N
    nil = model_filiform_lie(3, 2)
    action = _diag([1, 2, 3, 1, 2])
    spec = ExtensionSpec(nil, ["t1", "t2"], {"t1": action, "t2": action})
    ext = semidirect_extension(spec)
    verdict = nilradical_verdict(ext, span_of_labels(ext, nil.combined_basis))
    assert verdict["complement_directions"] == {"t1": True, "t2": True}
    assert verdict["is_ideal"] and verdict["restriction_nilpotent"]
    assert verdict["derived_subalgebra_contained"]
    assert not verdict["complement_acts_nonnilpotently"]
    assert not verdict["verdict"]
    assert verdict["codimension"] == 2


def test_verdict_for_all_solvable_families():
    cases = []
    for n, m in ((3, 2), (4, 3)):
        cases.append((model_filiform_lie(n, m, solvable=True),
                      model_filiform_lie(n, m), 3))
        cases.append((filiform_leibniz(n, m, solvable=True),
                      filiform_leibniz(n, m), 3))
    for even, odd in (((2,), (2,)), ((2, 2), (1, 2))):
        gens = len(even) + 1 + len(odd)
        cases.append((model_nilpotent_lie(even, odd, solvable=True),
                      model_nilpotent_lie(even, odd), gens))
        cases.append((model_nilpotent_leibniz(even, odd, solvable=True),
                      model_nilpotent_leibniz(even, odd), gens))
    for solvable, nil, codim in cases:
        verdict = nilradical_verdict(
            solvable, span_of_labels(solvable, nil.combined_basis))
        assert verdict["verdict"], solvable.name
        assert verdict["codimension"] == codim


def test_extension_with_torus_brackets():
    # giving the torus a bracket with itself must still validate
    from superalg.core import Element

    spec = lie_torus_spec("SL", (3,), (2,))
    spec.torus_brackets[("t2", "t3")] = Element()
    ext = semidirect_extension(spec)
    assert validate(ext).ok


def test_extension_reads_each_action_column_as_an_image():
    # t acts on L^{3,2} as diag(1, 2, 3, 1, 2) + ad x1, a derivation that is
    # not diagonal; column j of the matrix is the image of e_j
    L = model_filiform_lie(3, 2)
    D = [[1, 0, 0, 0, 0],
         [0, 2, 0, 0, 0],
         [0, 1, 3, 0, 0],
         [0, 0, 0, 1, 0],
         [0, 0, 0, 1, 2]]
    ext = semidirect_extension(ExtensionSpec(L, ("t",), {"t": sparse_rows(D)}))
    assert ext.combined_basis == ("x1", "x2", "x3", "t", "y1", "y2")
    table = {("x1", "x2"): {"x3": 1}, ("x2", "x1"): {"x3": -1},
             ("x1", "y1"): {"y2": 1}, ("y1", "x1"): {"y2": -1},
             ("t", "x1"): {"x1": 1}, ("x1", "t"): {"x1": -1},
             ("t", "x2"): {"x2": 2, "x3": 1}, ("x2", "t"): {"x2": -2, "x3": -1},
             ("t", "x3"): {"x3": 3}, ("x3", "t"): {"x3": -3},
             ("t", "y1"): {"y1": 1, "y2": 1}, ("y1", "t"): {"y1": -1, "y2": -1},
             ("t", "y2"): {"y2": 2}, ("y2", "t"): {"y2": -2}}
    assert dict(ext.brackets) == {k: Element(v) for k, v in table.items()}
    with pytest.raises(IdentityViolation) as exc:
        semidirect_extension(ExtensionSpec(L, ("t",), {"t": sparse_rows(_transpose(D))}))
    assert len(exc.value.report.violations) == 24


def test_leibniz_extension_reads_left_and_right_actions_apart():
    # t acts on LP^{3,2} as t1 + x1 + x2 does in SLP^{3,2}: on the left
    # x1 -> -x1 + x3, on the right x1 -> x1, x2 -> x3, x3 -> x3, y1 -> y2,
    # y2 -> y2, and [t, t] = x3
    LP = filiform_leibniz(3, 2)
    left = [[-1, 0, 0, 0, 0],
            [0, 0, 0, 0, 0],
            [1, 0, 0, 0, 0],
            [0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0]]
    right = [[1, 0, 0, 0, 0],
             [0, 0, 0, 0, 0],
             [0, 1, 1, 0, 0],
             [0, 0, 0, 0, 0],
             [0, 0, 0, 1, 1]]
    square = {("t", "t"): {"x3": 1}}
    pair = (sparse_rows(left), sparse_rows(right))
    ext = semidirect_extension(ExtensionSpec(LP, ("t",), {"t": pair}, square))
    table = {("x2", "x1"): {"x3": 1}, ("y1", "x1"): {"y2": 1},
             ("t", "x1"): {"x1": -1, "x3": 1}, ("x1", "t"): {"x1": 1},
             ("x2", "t"): {"x3": 1}, ("x3", "t"): {"x3": 1},
             ("y1", "t"): {"y2": 1}, ("y2", "t"): {"y2": 1},
             ("t", "t"): {"x3": 1}}
    assert dict(ext.brackets) == {k: Element(v) for k, v in table.items()}
    for pair in ((_transpose(left), right), (left, _transpose(right)), (right, left)):
        pair = tuple(map(sparse_rows, pair))
        with pytest.raises(IdentityViolation):
            semidirect_extension(ExtensionSpec(LP, ("t",), {"t": pair}, square))
