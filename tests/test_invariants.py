import pytest

from superalg.core import Element, LEIBNIZ, LIE, SuperAlgebra
from superalg.families import (filiform_leibniz, model_filiform_lie,
                               model_nilpotent_leibniz, model_nilpotent_lie)
from superalg.invariants import (DERIVED, DESCENDING_CENTRAL, GRADED_EVEN,
                                 GRADED_ODD, Subspace, characteristic_sequence,
                                 classify, even_part, generator_count,
                                 odd_part, product_space, right_annihilator,
                                 series, span_of_labels, whole_space)
from superalg.linalg import NotNilpotent


def series_dims(A, which):
    return tuple(S.dim for S in series(A, which))


def test_subspace_basics():
    A = model_filiform_lie(3, 2)
    W = whole_space(A)
    assert W.dim == 5 and Subspace(A, []).dim == 0
    assert even_part(A).dim == 3 and odd_part(A).dim == 2
    S = span_of_labels(A, ["x3", "y2"])
    assert S.contains_element(Element({"x3": 2, "y2": -1}))
    assert not S.contains_element(Element.basis("x1"))
    assert S <= W and not (W <= S)
    assert Subspace(A, [(0, 0, 1, 0, 1)]).dim == 1  # x3 + y2
    assert Subspace(A, [(0, 0, 1, 0, 1)]).rows == [[(2, 1), (4, 1)]]
    # canonical basis makes equality structural
    assert span_of_labels(A, ["y2", "x3"]) == S
    for wrong in ([(1, 0, 0, 0)], [(1, 0, 0, 0, 0, 0)]):
        with pytest.raises(ValueError):
            Subspace(A, wrong)


def test_product_space_and_ambient_check():
    A = model_filiform_lie(3, 2)
    W = whole_space(A)
    D = product_space(A, W, W)
    assert D == span_of_labels(A, ["x3", "y2"])
    B = model_filiform_lie(4, 2)
    with pytest.raises(ValueError):
        product_space(A, W, whole_space(B))


def test_series_filiform_lie():
    L = model_filiform_lie(3, 2)
    assert series_dims(L, DESCENDING_CENTRAL) == (5, 2, 0)
    assert series_dims(L, DERIVED) == (5, 2, 0)
    assert series_dims(L, GRADED_EVEN) == (3, 1, 0)
    assert series_dims(L, GRADED_ODD) == (2, 1, 0)
    with pytest.raises(ValueError):
        series(L, "upper_central")


def test_series_stop_at_repetition():
    SL = model_filiform_lie(3, 2, solvable=True)
    assert series_dims(SL, DESCENDING_CENTRAL) == (8, 5)
    assert series_dims(SL, DERIVED) == (8, 5, 2, 0)


def test_series_sides_leibniz():
    LP = filiform_leibniz(3, 2)
    assert series_dims(LP, DESCENDING_CENTRAL) == (5, 2, 0)
    assert series_dims(LP, GRADED_EVEN) == (3, 1, 0)
    assert series_dims(LP, GRADED_ODD) == (2, 1, 0)


def test_classify():
    L = model_filiform_lie(3, 2)
    res = classify(L)
    assert res == {"is_nilpotent": True, "is_solvable": True,
                   "s_nilindex": (2, 2)}
    SL = model_filiform_lie(3, 2, solvable=True)
    res = classify(SL)
    assert res["is_nilpotent"] is False
    assert res["is_solvable"] is True
    assert res["s_nilindex"] is None
    L54 = model_filiform_lie(5, 4)
    assert classify(L54)["s_nilindex"] == (4, 4)


def test_right_annihilator():
    LP = filiform_leibniz(3, 2)
    S = right_annihilator(LP)
    assert S == span_of_labels(LP, ["x2", "x3", "y1", "y2"])
    L = model_filiform_lie(3, 2)
    assert right_annihilator(L) == span_of_labels(L, ["x3", "y2"])


def test_characteristic_sequence_filiform():
    for (n, m) in ((3, 2), (4, 3)):
        L = model_filiform_lie(n, m)
        seq = characteristic_sequence(L)
        assert seq.as_pair() == ((n - 1, 1), (m,))
        assert seq.witness == Element.basis("x1")
        assert seq.lower_bound
        LP = filiform_leibniz(n, m)
        assert characteristic_sequence(LP).as_pair() == ((n - 1, 1), (m,))


def test_characteristic_sequence_blocks():
    N = model_nilpotent_lie((2, 2), (3,))
    seq = characteristic_sequence(N)
    assert seq.as_pair() == ((2, 2, 1), (3,))
    assert seq.witness == Element.basis("x1")


def test_characteristic_sequence_abelian():
    A = SuperAlgebra(LIE, ["x1", "x2"], ["y1"], {})
    seq = characteristic_sequence(A)
    assert seq.as_pair() == ((1, 1), (1,))


def test_characteristic_sequence_explicit_candidates():
    L = model_filiform_lie(3, 2)
    seq = characteristic_sequence(L, [Element.basis("x1")])
    assert seq.as_pair() == ((2, 1), (2,))
    assert not seq.lower_bound
    # x2 maps x1 to -x3 but acts by zero on the odd part
    weaker = characteristic_sequence(L, [Element.basis("x2")])
    assert weaker.as_pair() == ((2, 1), (1, 1))
    with pytest.raises(ValueError):
        characteristic_sequence(L, [Element.basis("y1")])
    with pytest.raises(ValueError):
        characteristic_sequence(L, [Element.basis("x3")])
    SL = model_filiform_lie(3, 2, solvable=True)
    with pytest.raises(NotNilpotent):
        characteristic_sequence(SL)


def test_generator_count():
    assert generator_count(model_filiform_lie(3, 2)) == 3
    assert generator_count(filiform_leibniz(4, 3)) == 3
    assert generator_count(model_nilpotent_lie((2, 2), (1, 2))) == 5
    assert generator_count(model_nilpotent_leibniz((2, 2), (1, 2))) == 5
    with pytest.raises(NotNilpotent):
        generator_count(model_filiform_lie(3, 2, solvable=True))


def test_generator_count_reads_the_derived_algebra_off_the_series():
    """[A, A] is the lower central series' term 1 (term 0 on a dim-0
    algebra, whose series has one term): the count agrees with forming
    [A, A] on its own, and a non-nilpotent law still raises."""
    zero = SuperAlgebra(LIE, [], [], {})
    abelian = SuperAlgebra(LIE, ["a", "b"], ["c"], {})
    assert len(series(zero, DESCENDING_CENTRAL)) == 1
    assert generator_count(zero) == 0 and generator_count(abelian) == 3
    for A in (zero, abelian, model_filiform_lie(3, 2), model_filiform_lie(7, 6),
              filiform_leibniz(5, 4), model_nilpotent_lie((2, 3), (2, 2)),
              model_nilpotent_lie((3, 3, 2), (2,)), model_nilpotent_leibniz((2, 3), (3,))):
        whole = whole_space(A)
        assert generator_count(A) == A.dim - product_space(A, whole, whole).dim, A.name
    for A in (model_filiform_lie(4, 3, solvable=True), filiform_leibniz(4, 3, solvable=True),
              model_nilpotent_lie((2, 2), (2,), solvable=True)):
        with pytest.raises(NotNilpotent):
            generator_count(A)
