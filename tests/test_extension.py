import itertools
from fractions import Fraction

import pytest

from superalg.core import Element, change_of_basis, equal_laws, validate
from superalg.extension import (ExtensionSpec, IdentityViolation, leibniz_torus_specs,
                                nilradical_verdict, semidirect_extension)
from superalg.families import (filiform_leibniz, model_filiform_lie,
                               model_nilpotent_leibniz, model_nilpotent_lie,
                               z_basis_filiform_lie, z_basis_nilpotent_lie)
from superalg.invariants import span_of_labels, whole_space
from superalg.linalg import sparse_rows

from naive_torus import lie_torus_spec


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
    survivors = set()
    for b in itertools.product((0, 1), repeat=3):
        spec = leibniz_torus_specs("LP", (3,), (2,))(b)
        try:
            ext = semidirect_extension(spec)
            survivors.add(b)
        except IdentityViolation:
            continue
    assert survivors == {(0, 1, 1)}
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
    survivors = set()
    for b in itertools.product((0, 1), repeat=2):
        for bp in itertools.product((0, 1), repeat=1):
            spec = leibniz_torus_specs("NP", (2,), (2,))((b, bp))
            try:
                semidirect_extension(spec)
                survivors.add((b, bp))
            except IdentityViolation:
                continue
    assert survivors == {((1, 0), (0,))}
    winner = semidirect_extension(
        leibniz_torus_specs("NP", (2,), (2,))(((1, 0), (0,))))
    assert equal_laws(winner, model_nilpotent_leibniz((2,), (2,),
                                                      solvable=True))


def test_size_one_odd_block_leaves_its_parameter_free():
    # an odd block with a single element has no chain forcing its sign
    # parameter, so exactly two sweep points survive
    survivors = set()
    for b in itertools.product((0, 1), repeat=3):
        for bp in itertools.product((0, 1), repeat=2):
            spec = leibniz_torus_specs("NP", (2, 2), (1, 2))((b, bp))
            try:
                semidirect_extension(spec)
                survivors.add((b, bp))
            except IdentityViolation:
                continue
    assert survivors == {((1, 0, 0), (0, 0)), ((1, 0, 0), (1, 0))}


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
