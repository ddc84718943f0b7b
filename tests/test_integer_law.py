"""Every entry point that builds a law writes the same integer cells.

Each family's member is built again through the label constructor, the
file parser, `semidirect_extension` of its torus spec (the hand-written
one of naive_torus), `change_of_basis`
with a seeded rational map and, for the filiform families, the renaming of
the one-block member.  Each result is compared with the label constructor
applied to a label table assembled here, label first, in the order the
entry point reads or makes its brackets: `integer_law` (with `d`) and
`list(A.brackets.items())`, keys in order, must agree, and `d` must be the
lcm of the reduced denominators.
"""

import random
from fractions import Fraction
from math import lcm

import pytest

from superalg.core import LIE, Element, SuperAlgebra, change_of_basis, equal_laws
from superalg.extension import ExtensionSpec, semidirect_extension
from superalg.families import (_filiform, member, model_nilpotent_leibniz,
                               model_nilpotent_lie)
from superalg.fileformat import ParseError, dumps, emit_algebra, parse_algebra

from naive_torus import leibniz_torus_specs, lie_torus_spec
from test_change_of_basis_oracle import oracle_law, random_map

SIZES = {"L": ((4,), (3,)), "LP": ((4,), (3,)), "N": ((2, 1), (2,)), "NP": ((2, 1), (2,))}
FAMILIES = [(f, *SIZES[f]) for f in ("L", "LP", "N", "NP")] + [
    ("S" + f, *SIZES[f]) for f in ("L", "LP", "N", "NP")]


def assert_same(B, table):
    """B against the label constructor on `table`, and d canonical."""
    ref = SuperAlgebra(B.kind, B.even_basis, B.odd_basis, table, name=B.name)
    assert B.integer_law == ref.integer_law
    assert list(B.brackets.items()) == list(ref.brackets.items())
    d, cells = B.integer_law
    assert d == lcm(*[c.denominator for el in B.brackets.values() for _, c in el.items()])
    assert all(type(c) is int and c for cell in cells.values() for c in cell.values())


def label_first_extension(spec):
    """The extension's label table as the label-first assembly built it:
    the nilradical's brackets, then [t, e_j] and [e_j, t] row by row, then
    the torus brackets, replacing a bracket they name."""
    nil = spec.nilradical
    basis = nil.combined_basis
    table = dict(nil.brackets)
    for t in spec.torus_labels:
        for i, (lrow, rrow) in enumerate(zip(*spec.action_rows[t])):
            for j, v in lrow:
                table.setdefault((t, basis[j]), {})[basis[i]] = v
            for j, v in rrow:
                table.setdefault((basis[j], t), {})[basis[i]] = v
    for key, el in spec.torus_brackets.items():
        el = el if isinstance(el, Element) else Element(el)
        if not el.is_zero():
            table[key] = el
    return table


def torus_spec(family, even, odd):
    """The spec whose extension is the solvable member of this family."""
    if family in ("SL", "SN"):
        return lie_torus_spec(family, even, odd)
    if family == "SLP":
        return leibniz_torus_specs("LP", even, odd)((0, 1, 1))
    return leibniz_torus_specs("NP", even, odd)(((1,) + (0,) * len(even), (0,) * len(odd)))


@pytest.mark.parametrize("family,even,odd", FAMILIES)
def test_every_entry_point_writes_the_same_law(family, even, odd):
    A = member(family, even, odd)

    # the label constructor, on the member's own label view
    assert_same(A, dict(A.brackets))

    # the parser, on the emitted file, against the file's entries read here
    data = emit_algebra(A)
    B = parse_algebra(data)
    assert_same(B, {(b["left"], b["right"]): [(t["basis"], Fraction(t["coeff"]))
                                              for t in b["result"]]
                    for b in data["brackets"]})
    assert equal_laws(A, B)

    # the extension of the solvable member's torus spec, on the nilradical
    if family.startswith("S"):
        spec = torus_spec(family, even, odd)
        ext = semidirect_extension(spec)
        assert_same(ext, label_first_extension(spec))
        assert equal_laws(ext, A)

    # a seeded rational change of basis, against the dense oracle's cells
    mapping = random_map(random.Random("%s/%s/%s" % (family, even, odd)), A)
    C = change_of_basis(A, mapping)
    new, law = oracle_law(A, mapping)
    assert_same(C, {(new[i], new[j]): [(new[k], c) for k, c in cell.items()]
                    for (i, j), cell in law.items()})
    assert C.integer_law[0] > 1

    # the filiform members: the one-block member renamed, label by label
    if family in ("L", "SL", "LP", "SLP"):
        build = model_nilpotent_leibniz if family.endswith("P") else model_nilpotent_lie
        block = build((even[0] - 1,), odd, solvable=family.startswith("S"))
        assert A.integer_law == block.integer_law
        assert A.even_basis == _filiform(block.even_basis)
        assert_same(A, {_filiform(k): [(_filiform(l), c) for l, c in v.items()]
                        for k, v in block.brackets.items()})


def test_extension_with_rational_torus_brackets():
    nil = member("L", (3,), (2,))
    zero = [[] for _ in range(nil.dim)]
    spec = ExtensionSpec(nil, ["t1", "t2"], {"t1": zero, "t2": zero},
                         {("t1", "t2"): [("t1", Fraction(1, 3)), ("t2", 2), ("t1", Fraction(1, 3))],
                          ("t2", "t2"): Element()})
    ext = semidirect_extension(spec)
    assert_same(ext, label_first_extension(spec))
    # the Lie kind fills [t2, t1] after every given bracket
    assert list(ext.brackets)[-1] == ("t2", "t1")
    assert ext.brackets[("t2", "t1")] == Element({"t1": Fraction(-2, 3), "t2": -2})
    assert ext.integer_law[0] == 3


BASE = {"name": "t", "kind": LIE, "even_basis": ["x1", "x2", "x3"], "odd_basis": ["y1", "y2"]}


def law(*brackets, kind=LIE):
    return parse_algebra(dict(BASE, kind=kind, brackets=[
        {"left": l, "right": r, "result": [{"basis": b, "coeff": c} for b, c in terms]}
        for l, r, terms in brackets]), skip_validate=True)


def test_parse_sums_a_repeated_label():
    A = law(("x1", "x2", [("x3", "1/2"), ("x3", "1/2")]))
    assert A.integer_law == (1, {(0, 1): {2: 1}, (1, 0): {2: -1}})
    B = law(("x1", "x2", [("x3", "1/3"), ("y1", 0), ("x3", "1/6")]))
    assert B.integer_law == (2, {(0, 1): {2: 1}, (1, 0): {2: -1}})


def test_parse_reduces_each_coefficient():
    half, quarters = law(("x1", "x2", [("x3", "1/2")])), law(("x1", "x2", [("x3", "2/4")]))
    assert half.integer_law == quarters.integer_law == (2, {(0, 1): {2: 1}, (1, 0): {2: -1}})
    assert law(("x1", "x2", [("x3", "4/2")])).integer_law[0] == 1


def test_parse_zero_results_leave_no_cell():
    A = law(("x1", "x2", [("x3", "0/5")]), ("x1", "x3", [("x3", "-0")]),
            ("x2", "x3", [("x3", 2), ("x1", "1/2"), ("x3", -2), ("x1", "-1/2")]),
            ("x1", "y1", [("y2", "3/7"), ("y1", "0")]))
    assert A.integer_law == (7, {(0, 3): {4: 3}, (3, 0): {4: -3}})
    assert list(A.brackets) == [("x1", "y1"), ("y1", "x1")]
    assert A.brackets[("x1", "y1")] == Element({"y2": Fraction(3, 7)})


def test_parse_keeps_the_file_order_then_the_filled_side():
    A = law(("y1", "y2", [("x3", 1)]), ("x1", "y1", [("y2", "1/2")]),
            ("x2", "x1", [("x3", -1)]), ("x1", "x2", [("x3", 1)]))
    # odd-odd fills with +, every other pair with -; given sides stay as given
    assert list(A.brackets.items()) == [
        (("y1", "y2"), Element({"x3": 1})), (("x1", "y1"), Element({"y2": Fraction(1, 2)})),
        (("x2", "x1"), Element({"x3": -1})), (("x1", "x2"), Element({"x3": 1})),
        (("y2", "y1"), Element({"x3": 1})), (("y1", "x1"), Element({"y2": Fraction(-1, 2)}))]
    assert A.integer_law[1][4, 3] == {2: 2} and A.integer_law[1][3, 0] == {4: -1}


def test_parse_keeps_a_contradicting_side():
    A = law(("x1", "x2", [("x3", 1)]), ("x2", "x1", [("x3", 1)]))
    assert A.integer_law == (1, {(0, 1): {2: 1}, (1, 0): {2: 1}})
    assert not A.skew_symmetric


def test_parse_errors_are_unchanged():
    with pytest.raises(ParseError, match="duplicate bracket"):
        law(("x1", "x2", [("x3", 0)]), ("x1", "x2", [("x3", 1)]))
    with pytest.raises(ParseError, match="zero denominator"):
        law(("x1", "x2", [("x3", "1/0")]))
    with pytest.raises(ParseError, match="unknown label"):
        law(("x1", "x2", [("z", 1)]))


def test_rational_law_round_trips_byte_for_byte():
    A = member("SL", (4,), (3,))
    A = change_of_basis(A, random_map(random.Random(20), A))
    assert A.integer_law[0] > 1
    text = dumps(emit_algebra(A))
    B = parse_algebra(emit_algebra(A))
    assert dumps(emit_algebra(B)) == text
    assert B.integer_law == A.integer_law
