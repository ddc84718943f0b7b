"""Verification fixtures: the paper's theorems re-checked on one family member.

Theorems 3.1 and 4.1 rebuild SL and SN as semidirect extensions of L and N
by their diagonal tori; 5.1 and 6.1 sweep the torus sign parameters of the
Leibniz analogues SLP and SNP; 7.1 to 7.4 compute the superderivation
spaces of the four solvable families and check that all of them are inner.

verify(theorem, even, odd) builds the instance, runs the checks and returns
both.  Each check is a triple (name, ok, detail).
"""

import itertools

from .core import change_of_basis, equal_laws
from .derivations import innerness_report
from .extension import (IdentityViolation, filiform_lie_torus_spec, leibniz_torus_specs,
                        model_nilpotent_lie_torus_spec, nil_independence_check,
                        nilradical_verdict, semidirect_extension)
from .families import (_member_blocks, member, z_basis_filiform_lie,
                       z_basis_nilpotent_lie)
from .invariants import span_of_labels


def _lie_construction(family, even, odd):
    solvable = member(family, even, odd)
    if family == "SL":
        (n,), (m,) = even, odd
        spec = filiform_lie_torus_spec(n, m)
        zalg, zmap = z_basis_filiform_lie(n, m)
    else:
        spec = model_nilpotent_lie_torus_spec(even, odd)
        zalg, zmap = z_basis_nilpotent_lie(even, odd)
    even_blocks, odd_blocks = _member_blocks(family, even, odd)
    codim = len(even_blocks) + 1 + len(odd_blocks)
    checks = []
    try:
        ext = semidirect_extension(spec)
        checks.append(("extension satisfies the identities", True, ""))
        checks.append(("extension matches the solvable law",
                       equal_laws(ext, solvable), ""))
    except IdentityViolation as exc:
        checks.append(("extension satisfies the identities", False,
                       "%d violations" % len(exc.report.violations)))
    checks.append(("torus is nil-independent", nil_independence_check(spec), ""))
    replay = change_of_basis(zalg, zmap)
    checks.append(("z-basis replay matches the solvable law",
                   equal_laws(replay, solvable), ""))
    nil = span_of_labels(solvable, spec.nilradical.combined_basis)
    verdict = nilradical_verdict(solvable, nil)
    checks.append(("nilradical verdict", verdict["verdict"], ""))
    checks.append(("nilradical codimension = %d" % codim,
                   verdict["codimension"] == codim,
                   "got %d" % verdict["codimension"]))
    return solvable, checks


def _leibniz_sweep(family, even, odd):
    solvable = member(family, even, odd)
    make = leibniz_torus_specs(family[1:], even, odd)
    if family == "SLP":
        points = list(itertools.product((0, 1), repeat=3))
        expected = (0, 1, 1)
    else:
        k, p = len(even), len(odd)
        points = [(b, bp)
                  for b in itertools.product((0, 1), repeat=k + 1)
                  for bp in itertools.product((0, 1), repeat=p)]
        expected = ((1,) + (0,) * k, (0,) * p)
    successes = set()
    witness = None
    for pt in points:
        spec = make(pt)
        try:
            ext = semidirect_extension(spec)
        except IdentityViolation:
            continue
        successes.add(pt)
        if pt == expected:
            witness = (spec, ext)
    checks = [("sweep succeeds exactly on the expected parameters",
               successes == {expected},
               "got {%s}" % ", ".join(map(str, sorted(successes))))]
    if witness is not None:
        # the theorem's own point, whether or not others extend too
        spec, ext = witness
        checks.append(("surviving extension matches the solvable law",
                       equal_laws(ext, solvable), ""))
        checks.append(("torus is nil-independent", nil_independence_check(spec), ""))
    return solvable, checks


def _derivations(family, even, odd):
    A = member(family, even, odd)
    even_blocks, odd_blocks = _member_blocks(family, even, odd)
    k, p = len(even_blocks), len(odd_blocks)
    if family in ("SL", "SN"):
        # 7.1 and 7.2: SL^{n,m} gives n + 3 and m
        want_even, want_odd = sum(even_blocks) + 1 + k + 1 + p, sum(odd_blocks)
    else:
        # 7.3 and 7.4: SLP^{n,m} gives 4 and 0
        want_even, want_odd = k + p + 2, 0
    rep = innerness_report(A)
    return A, [
        ("dim Der_even = %d" % want_even, rep["dim_der_even"] == want_even,
         "got %d" % rep["dim_der_even"]),
        ("dim Der_odd = %d" % want_odd, rep["dim_der_odd"] == want_odd,
         "got %d" % rep["dim_der_odd"]),
        ("all superderivations inner", rep["all_inner"], ""),
    ]


# theorem id -> (fixture, family)
THEOREMS = {
    "3.1": (_lie_construction, "SL"),
    "4.1": (_lie_construction, "SN"),
    "5.1": (_leibniz_sweep, "SLP"),
    "6.1": (_leibniz_sweep, "SNP"),
    "7.1": (_derivations, "SL"),
    "7.2": (_derivations, "SN"),
    "7.3": (_derivations, "SLP"),
    "7.4": (_derivations, "SNP"),
}


def default_sizes(theorem):
    """The (even, odd) sizes of the member a theorem is checked on by default."""
    if THEOREMS[theorem][1] in ("SL", "SLP"):
        return (3,), (2,)
    return (2,), (2,)


def verify(theorem, even, odd):
    """Check `theorem` on its family member at the given even and odd sizes.

    Filiform theorems (3.1, 5.1, 7.1, 7.3) take one even and one odd size,
    n and m; block theorems take the even and odd block lengths.  Sizes the
    family refuses raise ValueError, as in families.member.  Returns (algebra,
    checks), the checks a list of (name, ok, detail) triples.
    """
    fixture, family = THEOREMS[theorem]
    return fixture(family, tuple(even), tuple(odd))
