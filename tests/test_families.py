import itertools
import random

import pytest

from superalg.core import (LEIBNIZ, LIE, Element, change_of_basis, equal_laws,
                           validate)
from superalg.derivations import innerness_report
from superalg.families import (filiform_leibniz, member, member_dim,
                               model_filiform_lie, model_nilpotent_leibniz,
                               model_nilpotent_lie, z_basis_filiform_lie,
                               z_basis_nilpotent_lie)
from superalg.invariants import DESCENDING_CENTRAL, classify, series

GRID_FILIFORM = ((3, 2), (4, 3), (5, 2), (6, 4))
GRID_BLOCKS = (((2,), (2,)), ((2, 2), (1, 2)), ((3,), (3,)))
# shapes with size-1 blocks and with three blocks
EDGE_BLOCKS = (((1,), (1,)), ((1, 3), (2, 1)), ((3, 1, 2), (1, 2, 3)),
               ((2, 2, 2), (1,)), ((1,), (2, 1, 3)))


def _same_algebra(A, B):
    return (A.name, A.kind, A.even_basis, A.odd_basis, list(A.brackets.items())) \
        == (B.name, B.kind, B.even_basis, B.odd_basis, list(B.brackets.items()))


def test_member_dim_matches_the_built_member():
    filiform = {"L": model_filiform_lie, "LP": filiform_leibniz}
    blocks = {"N": model_nilpotent_lie, "NP": model_nilpotent_leibniz}
    for family, build in filiform.items():
        for n, m in GRID_FILIFORM:
            for solvable in (False, True):
                name = "S" + family if solvable else family
                A = build(n, m, solvable)
                assert member_dim(name, (n,), (m,)) == A.dim
                assert _same_algebra(member(name, (n,), (m,)), A)
    for family, build in blocks.items():
        for even, odd in GRID_BLOCKS + EDGE_BLOCKS:
            for solvable in (False, True):
                name = "S" + family if solvable else family
                A = build(even, odd, solvable)
                assert member_dim(name, even, odd) == A.dim
                assert _same_algebra(member(name, list(even), list(odd)), A)
    # sizes the constructors refuse are refused with the same message
    for family, even, odd, build in (("SL", (2,), (2,), lambda: model_filiform_lie(2, 2)),
                                     ("LP", (3,), (1,), lambda: filiform_leibniz(3, 1)),
                                     ("N", (0,), (2,), lambda: model_nilpotent_lie((0,), (2,))),
                                     ("SNP", (), (2,), lambda: model_nilpotent_leibniz((), (2,)))):
        with pytest.raises(ValueError) as built:
            build()
        with pytest.raises(ValueError, match=str(built.value)):
            member_dim(family, even, odd)
    with pytest.raises(ValueError):
        member_dim("L", (3, 4), (2,))
    with pytest.raises(ValueError, match="family LP takes one even and one odd size"):
        member("LP", (3,), (2, 2))
    for build in (member, member_dim):
        with pytest.raises(ValueError, match="unknown family 'SX'"):
            build("SX", (2,), (2,))


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


def _filiform_law(n, m, leibniz, solvable):
    """The whole table of L, SL, LP or SLP^{n,m}, by labels, from the
    theorems' formulas; the Lie kind lists both sides, [b,a] = -[a,b]."""
    x = ["x%d" % i for i in range(1, n + 1)]
    y = ["y%d" % j for j in range(1, m + 1)]
    law = {}
    if leibniz:
        # [x_i,x1] = x_{i+1}, [y_j,x1] = y_{j+1}
        law.update({(x[i], "x1"): {x[i + 1]: 1} for i in range(1, n - 1)})
        law.update({(y[j], "x1"): {y[j + 1]: 1} for j in range(m - 1)})
    else:
        # [x1,x_i] = x_{i+1}, [x1,y_j] = y_{j+1}
        law.update({("x1", x[i]): {x[i + 1]: 1} for i in range(1, n - 1)})
        law.update({("x1", y[j]): {y[j + 1]: 1} for j in range(m - 1)})
    if solvable and leibniz:
        # [t1,x1] = -x1, [x1,t1] = x1, [x_i,t1] = (i-2) x_i, [y_j,t1] = (j-1) y_j,
        # [x_i,t2] = x_i for i >= 2, [y_j,t3] = y_j
        law[("t1", "x1")] = {"x1": -1}
        law[("x1", "t1")] = {"x1": 1}
        law.update({(x[i - 1], "t1"): {x[i - 1]: i - 2} for i in range(3, n + 1)})
        law.update({(y[j - 1], "t1"): {y[j - 1]: j - 1} for j in range(2, m + 1)})
        law.update({(l, "t2"): {l: 1} for l in x[1:]})
        law.update({(l, "t3"): {l: 1} for l in y})
    elif solvable:
        # [t1,x_i] = i x_i, [t1,y_j] = j y_j, [t2,x_i] = x_i for i >= 2,
        # [t3,y_j] = y_j
        law.update({("t1", x[i - 1]): {x[i - 1]: i} for i in range(1, n + 1)})
        law.update({("t1", y[j - 1]): {y[j - 1]: j} for j in range(1, m + 1)})
        law.update({("t2", l): {l: 1} for l in x[1:]})
        law.update({("t3", l): {l: 1} for l in y})
    if not leibniz:
        law.update({(b, a): {l: -c for l, c in v.items()}
                    for (a, b), v in list(law.items())})
    return {k: Element(v) for k, v in law.items()}


def _blocks_of(even, odd):
    """(j, first, size) per block, with the block's labels numbered
    first .. first + size - 1: even blocks start at x2, odd ones at y1."""
    out = []
    for prefix, first, sizes in (("x", 2, even), ("y", 1, odd)):
        for j, size in enumerate(sizes, 1):
            out.append((prefix, j, first, size))
            first += size
    return out


def _block_law(even, odd, leibniz, solvable):
    """Name, bases and whole table of N, SN, NP or SNP(even,1|odd), by
    labels, from the theorems' formulas; the Lie kind lists both sides."""
    law = {}
    torus_of = lambda prefix, j: "t%d" % (j + 1) if prefix == "x" else "tp%d" % j
    for prefix, j, first, size in _blocks_of(even, odd):
        lbl = lambda i: "%s%d" % (prefix, i)
        for i in range(first, first + size - 1):
            # [x1,x_i] = x_{i+1} (Lie), [x_i,x1] = x_{i+1} (Leibniz), within a block
            law[(lbl(i), "x1") if leibniz else ("x1", lbl(i))] = {lbl(i + 1): 1}
        if not solvable:
            continue
        t = torus_of(prefix, j)
        for i in range(first, first + size):
            # t_{j+1} (tp_j) is the identity on even (odd) block j
            law[(lbl(i), t) if leibniz else (t, lbl(i))] = {lbl(i): 1}
            if leibniz and i > first:
                # [x_i,t1] = (i - N_j - 2) x_i, [y_i,t1] = (i - M_j - 1) y_i
                law[(lbl(i), "t1")] = {lbl(i): i - first}
    xs = ["x%d" % i for i in range(1, sum(even) + 2)]
    ys = ["y%d" % i for i in range(1, sum(odd) + 1)]
    torus = []
    if solvable:
        torus = (["t%d" % i for i in range(1, len(even) + 2)]
                 + ["tp%d" % i for i in range(1, len(odd) + 1)])
        if leibniz:
            # [t1,x1] = -x1, [x1,t1] = x1
            law[("t1", "x1")] = {"x1": -1}
            law[("x1", "t1")] = {"x1": 1}
        else:
            # [t1,x_i] = i x_i, [t1,y_i] = i y_i
            law.update({("t1", "x%d" % i): {"x%d" % i: i} for i in range(1, len(xs) + 1)})
            law.update({("t1", "y%d" % i): {"y%d" % i: i} for i in range(1, len(ys) + 1)})
    if not leibniz:
        law.update({(b, a): {l: -c for l, c in v.items()}
                    for (a, b), v in list(law.items())})
    name = "%sN%s(%s,1|%s)" % ("S" if solvable else "", "P" if leibniz else "",
                               ",".join(map(str, even)), ",".join(map(str, odd)))
    return name, tuple(xs + torus), tuple(ys), {k: Element(v) for k, v in law.items()}


def _z_law(even, odd):
    """Name, bases, whole table and label map of the z-basis SN(even,1|odd)."""
    name, xs, ys, law = _block_law(even, odd, False, False)
    zs = (["z%d" % i for i in range(1, len(even) + 2)]
          + ["zp%d" % i for i in range(1, len(odd) + 1)])
    z = {("z1", "x1"): {"x1": 1}}
    t1 = {"z1": 1}
    mapping = {}
    for prefix, j, first, size in _blocks_of(even, odd):
        zj = "z%d" % (j + 1) if prefix == "x" else "zp%d" % j
        # t1 = z1 + 2 z2 + sum (N_j + 2) z_{j+2} + zp1 + sum (M_j + 1) zp_{j+1}
        t1[zj] = first
        mapping["t%s" % zj[1:]] = Element.basis(zj)
        for i in range(first, first + size):
            l = "%s%d" % (prefix, i)
            z[(zj, l)] = {l: 1}
            if i > first:
                z[("z1", l)] = {l: i - first}
    law.update({k: Element(v) for k, v in z.items()})
    law.update({(b, a): Element({l: -c for l, c in v.items()}) for (a, b), v in z.items()})
    mapping.update({l: Element.basis(l) for l in xs + ys})
    mapping["t1"] = Element(t1)
    return "S%s (z basis)" % name, xs + tuple(zs), ys, law, mapping


def test_bracket_tables_spot_checks():
    # the block families in full, with size-1 blocks and three blocks
    for even, odd in GRID_BLOCKS + EDGE_BLOCKS:
        for leibniz, build in ((False, model_nilpotent_lie),
                               (True, model_nilpotent_leibniz)):
            for solvable in (False, True):
                A = build(even, odd, solvable)
                name, evens, odds, law = _block_law(even, odd, leibniz, solvable)
                assert (A.name, A.even_basis, A.odd_basis) == (name, evens, odds)
                assert A.kind == (LEIBNIZ if leibniz else LIE)
                assert dict(A.brackets) == law, name
        z, zmap = z_basis_nilpotent_lie(even, odd)
        name, evens, odds, law, mapping = _z_law(even, odd)
        assert (z.name, z.even_basis, z.odd_basis) == (name, evens, odds)
        assert dict(z.brackets) == law, name
        assert zmap == mapping, name
    # the filiform families in full, at every grid size
    for n, m in GRID_FILIFORM:
        for family, build in (("L", model_filiform_lie), ("LP", filiform_leibniz)):
            for solvable in (False, True):
                A = build(n, m, solvable=solvable)
                name = ("S" if solvable else "") + family
                assert A.name == "%s^{%d,%d}" % (name, n, m)
                assert A.kind == (LEIBNIZ if family == "LP" else LIE)
                assert A.even_basis == tuple(["x%d" % i for i in range(1, n + 1)]
                                             + (["t1", "t2", "t3"] if solvable else []))
                assert A.odd_basis == tuple("y%d" % j for j in range(1, m + 1))
                assert dict(A.brackets) == _filiform_law(n, m, family == "LP",
                                                         solvable), (name, n, m)
        # the z basis is the one-block one with zp1 and tp1 called z3 and t3
        z, zmap = z_basis_filiform_lie(n, m)
        name, evens, odds, law, mapping = _z_law((n - 1,), (m,))
        rename = lambda l: {"zp1": "z3", "tp1": "t3"}.get(l, l)
        relabel = lambda el: Element((rename(l), c) for l, c in el.items())
        assert z.name == "SL^{%d,%d} (z basis)" % (n, m)
        assert (z.even_basis, z.odd_basis) == (tuple(map(rename, evens)), odds)
        assert dict(z.brackets) == {(rename(a), rename(b)): relabel(v)
                                    for (a, b), v in law.items()}
        assert zmap == {rename(l): relabel(v) for l, v in mapping.items()}
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


def test_seeded_sweep_over_block_partitions():
    # the 144 shapes with one or two blocks of each parity, sizes 1 to 3
    lists = [b for k in (1, 2) for b in itertools.product((1, 2, 3), repeat=k)]
    shapes = list(itertools.product(lists, lists))
    assert len(shapes) == 144
    for even, odd in random.Random(808).sample(shapes, 40):
        k, p = len(even), len(odd)
        chains = even + odd
        lcs = (sum(chains) + 1,) + tuple(sum(max(c - j, 0) for c in chains)
                                         for j in range(1, max(chains) + 1))
        # Der dimensions of theorems 7.2 and 7.4
        for family, der in (("N", (sum(even) + 1 + k + 1 + p, sum(odd))),
                            ("NP", (k + p + 2, 0))):
            nil, sol = member(family, even, odd), member("S" + family, even, odd)
            for name, A in ((family, nil), ("S" + family, sol)):
                assert member_dim(name, even, odd) == A.dim, A.name
                assert validate(A).ok, A.name
            assert classify(nil)["is_nilpotent"], nil.name
            verdict = classify(sol)
            assert verdict["is_solvable"] and not verdict["is_nilpotent"], sol.name
            assert tuple(S.dim for S in series(nil, DESCENDING_CENTRAL)) == lcs, nil.name
            rep = innerness_report(sol)
            assert (rep["dim_der_even"], rep["dim_der_odd"]) == der, sol.name
            assert rep["all_inner"], sol.name
