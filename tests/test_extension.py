import itertools

import pytest

from superalg.core import equal_laws, validate
from superalg.extension import (ExtensionSpec, IdentityViolation,
                                NonDiagonalAction, filiform_lie_torus_spec,
                                filiform_leibniz_torus_spec,
                                model_nilpotent_lie_torus_spec,
                                model_nilpotent_leibniz_torus_spec,
                                nil_independence_check, nilradical_verdict,
                                semidirect_extension)
from superalg.families import (filiform_leibniz, model_filiform_lie,
                               model_nilpotent_leibniz, model_nilpotent_lie)
from superalg.invariants import span_of_labels, whole_space
from superalg.linalg import Matrix


def test_extension_reproduces_solvable_lie_families():
    for n, m in ((3, 2), (4, 3)):
        spec = filiform_lie_torus_spec(n, m)
        ext = semidirect_extension(spec)
        assert equal_laws(ext, model_filiform_lie(n, m, solvable=True))
        assert nil_independence_check(spec)
    for even, odd in (((2,), (2,)), ((2, 2), (1, 2))):
        spec = model_nilpotent_lie_torus_spec(even, odd)
        ext = semidirect_extension(spec)
        assert equal_laws(ext, model_nilpotent_lie(even, odd, solvable=True))
        assert nil_independence_check(spec)


def test_leibniz_parameter_sweep_filiform():
    survivors = set()
    for b in itertools.product((0, 1), repeat=3):
        spec = filiform_leibniz_torus_spec(3, 2, b)
        try:
            ext = semidirect_extension(spec)
            survivors.add(b)
        except IdentityViolation:
            continue
    assert survivors == {(0, 1, 1)}
    winner = semidirect_extension(filiform_leibniz_torus_spec(3, 2, (0, 1, 1)))
    assert equal_laws(winner, filiform_leibniz(3, 2, solvable=True))
    assert nil_independence_check(filiform_leibniz_torus_spec(3, 2, (0, 1, 1)))


def test_leibniz_sweep_violating_triple():
    # with b1 = 1 the left t1 action vanishes while the right one survives,
    # which the product rule on (x2, t1, x1) detects
    try:
        semidirect_extension(filiform_leibniz_torus_spec(3, 2, (1, 1, 1)))
        raised = False
    except IdentityViolation as exc:
        raised = True
        assert ("x2", "t1", "x1") in exc.report.triples("leibniz")
    assert raised


def test_leibniz_parameter_sweep_blocks():
    survivors = set()
    for b in itertools.product((0, 1), repeat=2):
        for bp in itertools.product((0, 1), repeat=1):
            spec = model_nilpotent_leibniz_torus_spec((2,), (2,), b, bp)
            try:
                semidirect_extension(spec)
                survivors.add((b, bp))
            except IdentityViolation:
                continue
    assert survivors == {((1, 0), (0,))}
    winner = semidirect_extension(
        model_nilpotent_leibniz_torus_spec((2,), (2,), (1, 0), (0,)))
    assert equal_laws(winner, model_nilpotent_leibniz((2,), (2,),
                                                      solvable=True))


def test_size_one_odd_block_leaves_its_parameter_free():
    # an odd block with a single element has no chain forcing its sign
    # parameter, so exactly two sweep points survive
    survivors = set()
    for b in itertools.product((0, 1), repeat=3):
        for bp in itertools.product((0, 1), repeat=2):
            spec = model_nilpotent_leibniz_torus_spec((2, 2), (1, 2), b, bp)
            try:
                semidirect_extension(spec)
                survivors.add((b, bp))
            except IdentityViolation:
                continue
    assert survivors == {((1, 0, 0), (0, 0)), ((1, 0, 0), (1, 0))}


def test_extension_spec_validation():
    nil = model_filiform_lie(3, 2)
    n = nil.dim
    good = Matrix.diagonal([1] * 3 + [0] * 2)
    with pytest.raises(ValueError):
        ExtensionSpec(nil, ["x1"], {"x1": good})
    with pytest.raises(ValueError):
        ExtensionSpec(nil, ["t", "t"], {"t": good})
    with pytest.raises(ValueError):
        ExtensionSpec(nil, ["t"], {"t": Matrix.zero(2, 2)})
    mixing = Matrix([[0] * 5 for _ in range(5)])
    mixing = Matrix([[1 if (i, j) == (4, 0) else 0 for j in range(5)]
                     for i in range(5)])
    with pytest.raises(ValueError):
        ExtensionSpec(nil, ["t"], {"t": mixing})
    with pytest.raises(ValueError):
        ExtensionSpec(nil, ["t"], {"t": (good, good)})  # lie wants right=-left
    leib = filiform_leibniz(3, 2)
    with pytest.raises(ValueError):
        ExtensionSpec(leib, ["t"], {"t": good})  # leibniz wants both sides
    spec = ExtensionSpec(nil, ["t"], {"t": good})
    assert spec.actions["t"][1] == -good


def test_nil_independence_checks():
    nil = model_filiform_lie(3, 2)
    d1 = Matrix.diagonal([1, 1, 1, 0, 0])
    d2 = Matrix.diagonal([2, 2, 2, 0, 0])
    spec = ExtensionSpec(nil, ["s", "t"], {"s": d1, "t": d2})
    assert not nil_independence_check(spec)
    offdiag = Matrix([[1 if (i, j) in ((0, 0), (0, 1)) else 0
                       for j in range(5)] for i in range(5)])
    spec = ExtensionSpec(nil, ["s"], {"s": offdiag})
    with pytest.raises(NonDiagonalAction):
        nil_independence_check(spec)


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
    action = Matrix.diagonal([1, 2, 3, 1, 2])
    spec = ExtensionSpec(nil, ["t1", "t2"], {"t1": action, "t2": action})
    ext = semidirect_extension(spec)
    assert not nil_independence_check(spec)
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

    nil = model_filiform_lie(3, 2)
    spec = filiform_lie_torus_spec(3, 2)
    spec.torus_brackets[("t2", "t3")] = Element()
    ext = semidirect_extension(spec)
    assert validate(ext).ok
