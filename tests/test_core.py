from fractions import Fraction

import pytest

from superalg.core import (EVEN, LEIBNIZ, LIE, ODD, Element, SuperAlgebra,
                           bracket, change_of_basis, equal_laws,
                           multiplication_matrix, validate)
from superalg.families import filiform_leibniz, model_filiform_lie
from superalg.linalg import Matrix


def test_element_arithmetic():
    a = Element({"x1": 1, "x2": 2})
    b = Element({"x2": -2, "y1": Fraction(1, 2)})
    assert (a + b).coords == {"x1": Fraction(1), "y1": Fraction(1, 2)}
    assert (a - a).is_zero()
    assert (-a).coords == {"x1": Fraction(-1), "x2": Fraction(-2)}
    assert (3 * a).coords == {"x1": Fraction(3), "x2": Fraction(6)}
    assert a.scale(0).is_zero()
    assert Element.basis("y1").get("y1") == 1
    assert Element([("x1", 1), ("x1", -1)]).is_zero()
    assert Element() == Element({"x1": 0})
    assert repr(Element()) == "0"


def test_algebra_construction_checks():
    with pytest.raises(ValueError):
        SuperAlgebra("weird", ["x1"], [], {})
    with pytest.raises(ValueError):
        SuperAlgebra(LIE, ["x1", "x1"], [], {})
    with pytest.raises(ValueError):
        SuperAlgebra(LIE, ["x1"], ["x1"], {})
    with pytest.raises(ValueError):
        SuperAlgebra(LIE, ["x1"], [], {("x1", "zz"): Element.basis("x1")})
    with pytest.raises(ValueError):
        SuperAlgebra(LIE, ["x1"], [], {("x1", "x1"): Element.basis("zz")})


def _coords(A, el):
    """The dense coordinates of an element over A's combined basis."""
    vec = [0] * A.dim
    for l, c in el.items():
        vec[A.index(l)] = c
    return tuple(vec)


def test_parity_and_indexing():
    A = model_filiform_lie(3, 2)
    assert A.dim == 5 and A.dim_even == 3 and A.dim_odd == 2
    assert A.parity("x2") == EVEN and A.parity("y1") == ODD
    assert A.index("y1") == 3
    with pytest.raises(ValueError):
        A.parity("zz")
    assert A.element_parity(Element()) is None
    assert A.element_parity(Element({"y1": 1, "y2": 2})) == ODD
    with pytest.raises(ValueError):
        A.element_parity(Element({"x1": 1, "y1": 1}))
    assert _coords(A, Element({"x3": Fraction(1, 2)})) == \
        (0, 0, Fraction(1, 2), 0, 0)
    assert Element(zip(A.combined_basis, (1, 0, 0, 0, -1))) == \
        Element({"x1": 1, "y2": -1})


def test_skew_completion_signs():
    A = model_filiform_lie(3, 2)
    # even-even and even-odd transposes pick up a minus sign
    assert A.basis_bracket("x2", "x1") == Element({"x3": -1})
    assert A.basis_bracket("y1", "x1") == Element({"y2": -1})
    # an explicitly stored transpose is left alone
    B = SuperAlgebra(LIE, ["x1", "x2", "x3"], [],
                     {("x1", "x2"): Element.basis("x3"),
                      ("x2", "x1"): Element({"x3": -1})})
    assert validate(B).ok


def test_odd_odd_bracket_is_symmetric():
    # [u,u] = e defines a consistent bracket on one even and one odd direction
    A = SuperAlgebra(LIE, ["e"], ["u"], {("u", "u"): Element.basis("e")})
    assert validate(A).ok
    assert A.basis_bracket("u", "u") == Element.basis("e")


def test_validate_flags_grading():
    A = SuperAlgebra(LEIBNIZ, ["x1"], ["y1"], {("x1", "y1"): Element.basis("x1")})
    report = validate(A)
    assert not report.ok
    assert ("x1", "y1") in report.triples("grading")


def test_validate_flags_broken_law():
    table = {("x1", "x2"): Element.basis("x2"),
             ("x2", "x1"): Element({"x3": -1}),
             ("x1", "y1"): Element.basis("y2")}
    A = SuperAlgebra(LIE, ["x1", "x2", "x3"], ["y1", "y2"], table)
    report = validate(A)
    assert not report.ok
    assert ("x1", "x2") in report.triples("skew")
    assert ("x1", "x1", "x2") in report.triples("jacobi")


def test_lie_families_also_satisfy_leibniz():
    A = model_filiform_lie(3, 2)
    assert validate(A, kind=LEIBNIZ).ok


def test_bracket_bilinear():
    A = model_filiform_lie(4, 2)
    u = Element({"x1": 2})
    assert bracket(A, u, Element()).is_zero()
    w = bracket(A, u, Element({"x2": 1, "x3": Fraction(1, 2)}))
    assert w == Element({"x3": 2, "x4": 1})
    assert repr(bracket(A, Element({"x3": 1, "x2": 1}), u)) == "-2*x3 - 2*x4"  # index order
    assert bracket(A, "x1", "x2") == Element.basis("x3")


def test_multiplication_matrix_sides():
    L = model_filiform_lie(3, 2)
    column = lambda M, j: tuple(row[j] for row in M.entries)
    M = multiplication_matrix(L, "x1", "left")
    assert column(M, 1) == (0, 0, 1, 0, 0)   # x2 -> x3
    assert column(M, 3) == (0, 0, 0, 0, 1)   # y1 -> y2
    assert column(multiplication_matrix(L, "x1", "right"), 1) == \
        (0, 0, -1, 0, 0)                     # [x2, x1] = -x3
    LP = filiform_leibniz(3, 2)
    assert multiplication_matrix(LP, "x1", "left") == Matrix([[0] * 5] * 5)
    R = multiplication_matrix(LP, "x1", "right")
    assert column(R, 1) == (0, 0, 1, 0, 0)
    with pytest.raises(ValueError):
        multiplication_matrix(L, "x1", "middle")
    with pytest.raises(ValueError):
        multiplication_matrix(L, Element({"x1": 1, "y1": 1}), "left")


def test_change_of_basis_roundtrip():
    A = model_filiform_lie(3, 2)
    mapping = {"a1": Element({"x1": 1, "x2": 1}), "a2": Element.basis("x2"),
               "a3": Element({"x3": Fraction(1, 2)}),
               "b1": Element.basis("y1"), "b2": Element({"y2": 3})}
    B = change_of_basis(A, mapping)
    assert B.even_basis == ("a1", "a2", "a3") and B.odd_basis == ("b1", "b2")
    assert validate(B).ok
    # transforming back with the inverse images restores the law
    back = change_of_basis(B, {
        "x1": Element({"a1": 1, "a2": -1}), "x2": Element.basis("a2"),
        "x3": Element({"a3": 2}),
        "y1": Element.basis("b1"), "y2": Element({"b2": Fraction(1, 3)})})
    assert equal_laws(back, A)


def test_change_of_basis_errors():
    A = model_filiform_lie(3, 2)
    with pytest.raises(ValueError):
        change_of_basis(A, {"a": Element()})
    with pytest.raises(ValueError):
        change_of_basis(A, {"a": Element.basis("x1")})
    bad = {"a%d" % i: Element.basis("x1") for i in range(3)}
    bad.update({"b1": Element.basis("y1"), "b2": Element.basis("y2")})
    with pytest.raises(ValueError):
        change_of_basis(A, bad)


def test_equal_laws_requires_matching_basis():
    A = model_filiform_lie(3, 2)
    B = filiform_leibniz(3, 2)
    with pytest.raises(ValueError):
        equal_laws(A, B)
    renamed = SuperAlgebra(A.kind, A.even_basis, A.odd_basis, dict(A.brackets),
                           name="other")
    assert renamed.name == "other" and equal_laws(A, renamed)
