import pytest

from superalg.core import Element, change_of_basis, equal_laws, validate
from superalg.families import (filiform_leibniz, model_filiform_lie,
                               model_nilpotent_leibniz, model_nilpotent_lie,
                               z_basis_filiform_lie, z_basis_nilpotent_lie)

GRID_FILIFORM = ((3, 2), (4, 3), (5, 2), (6, 4))
GRID_BLOCKS = (((2,), (2,)), ((2, 2), (1, 2)), ((3,), (3,)))


def test_names_and_dimensions():
    assert model_filiform_lie(3, 2).name == "L^{3,2}"
    assert model_filiform_lie(3, 2, solvable=True).name == "SL^{3,2}"
    assert filiform_leibniz(4, 3).name == "LP^{4,3}"
    assert filiform_leibniz(4, 3, solvable=True).name == "SLP^{4,3}"
    assert model_nilpotent_lie((2,), (2,)).name == "N(2,1|2)"
    assert model_nilpotent_lie((2, 2), (1, 2), solvable=True).name == \
        "SN(2,2,1|1,2)"
    assert model_nilpotent_leibniz((2,), (2,)).name == "NP(2,1|2)"
    for n, m in GRID_FILIFORM:
        assert model_filiform_lie(n, m).dim == n + m
        assert model_filiform_lie(n, m, solvable=True).dim == n + m + 3
    for even, odd in GRID_BLOCKS:
        k, p = len(even), len(odd)
        N = model_nilpotent_lie(even, odd)
        assert N.dim == sum(even) + 1 + sum(odd)
        S = model_nilpotent_lie(even, odd, solvable=True)
        assert S.dim == N.dim + k + 1 + p


def test_parameter_validation():
    with pytest.raises(ValueError):
        model_filiform_lie(2, 2)
    with pytest.raises(ValueError):
        model_filiform_lie(3, 1)
    with pytest.raises(ValueError):
        filiform_leibniz(3, 0)
    with pytest.raises(ValueError):
        model_nilpotent_lie((), (2,))
    with pytest.raises(ValueError):
        model_nilpotent_lie((2, 0), (2,))
    with pytest.raises(ValueError):
        model_nilpotent_leibniz((2,), ())


def test_bracket_tables_spot_checks():
    SL = model_filiform_lie(4, 3, solvable=True)
    assert SL.basis_bracket("x1", "x2") == Element.basis("x3")
    assert SL.basis_bracket("t1", "x3") == Element({"x3": 3})
    assert SL.basis_bracket("t1", "y2") == Element({"y2": 2})
    assert SL.basis_bracket("t2", "x1").is_zero()
    assert SL.basis_bracket("t2", "x4") == Element.basis("x4")
    assert SL.basis_bracket("t3", "y1") == Element.basis("y1")
    SN = model_nilpotent_lie((2, 2), (1, 2), solvable=True)
    assert SN.basis_bracket("x1", "x4") == Element.basis("x5")
    assert SN.basis_bracket("t1", "x5") == Element({"x5": 5})
    assert SN.basis_bracket("t3", "x4") == Element.basis("x4")
    assert SN.basis_bracket("t3", "x2").is_zero()
    assert SN.basis_bracket("tp2", "y2") == Element.basis("y2")
    assert SN.basis_bracket("tp1", "y2").is_zero()
    SLP = filiform_leibniz(4, 3, solvable=True)
    assert SLP.basis_bracket("x2", "x1") == Element.basis("x3")
    assert SLP.basis_bracket("x1", "x1").is_zero()
    assert SLP.basis_bracket("t1", "x1") == Element({"x1": -1})
    assert SLP.basis_bracket("x1", "t1") == Element.basis("x1")
    assert SLP.basis_bracket("x2", "t1").is_zero()
    assert SLP.basis_bracket("x4", "t1") == Element({"x4": 2})
    assert SLP.basis_bracket("y3", "t1") == Element({"y3": 2})
    assert SLP.basis_bracket("t1", "x2").is_zero()
    SNP = model_nilpotent_leibniz((2, 2), (1, 2), solvable=True)
    assert SNP.basis_bracket("x4", "x1") == Element.basis("x5")
    assert SNP.basis_bracket("x5", "t1") == Element({"x5": 1})
    assert SNP.basis_bracket("x5", "t3") == Element.basis("x5")
    assert SNP.basis_bracket("y3", "tp2") == Element.basis("y3")
    assert SNP.basis_bracket("tp1", "y1").is_zero()


def test_all_families_satisfy_their_identities():
    for n, m in GRID_FILIFORM:
        for solvable in (False, True):
            assert validate(model_filiform_lie(n, m, solvable=solvable)).ok
            assert validate(filiform_leibniz(n, m, solvable=solvable)).ok
    for even, odd in GRID_BLOCKS:
        for solvable in (False, True):
            assert validate(model_nilpotent_lie(even, odd, solvable=solvable)).ok
            assert validate(model_nilpotent_leibniz(even, odd,
                                                    solvable=solvable)).ok


def test_filiform_is_the_one_block_model():
    # L^{n,m} coincides with the one-even-block, one-odd-block model
    assert equal_laws(model_filiform_lie(4, 3), model_nilpotent_lie((3,), (3,)))
    assert equal_laws(filiform_leibniz(4, 3),
                      model_nilpotent_leibniz((3,), (3,)))
    # solvable versions agree after renaming tp1 to t3
    SNP = model_nilpotent_leibniz((2,), (2,), solvable=True)
    rename = {l: Element.basis(l) for l in ("x1", "x2", "x3", "t1", "t2")}
    rename["t3"] = Element.basis("tp1")
    rename.update({l: Element.basis(l) for l in ("y1", "y2")})
    assert equal_laws(change_of_basis(SNP, rename),
                      filiform_leibniz(3, 2, solvable=True))


def test_z_basis_replay():
    for n, m in ((3, 2), (4, 3)):
        z, zmap = z_basis_filiform_lie(n, m)
        assert validate(z).ok
        target = model_filiform_lie(n, m, solvable=True)
        assert equal_laws(change_of_basis(z, zmap), target)
    for even, odd in (((2,), (2,)), ((2, 2), (1, 2))):
        z, zmap = z_basis_nilpotent_lie(even, odd)
        assert validate(z).ok
        target = model_nilpotent_lie(even, odd, solvable=True)
        assert equal_laws(change_of_basis(z, zmap), target)


def test_z_basis_t1_image():
    _, zmap = z_basis_nilpotent_lie((2, 2), (1, 2))
    assert zmap["t1"] == Element({"z1": 1, "z2": 2, "z3": 4, "zp1": 1,
                                  "zp2": 2})
