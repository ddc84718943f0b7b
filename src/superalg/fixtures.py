"""Verification fixtures: the paper's theorems re-checked on one family member.

Theorems 3.1 and 4.1 rebuild SL and SN as semidirect extensions of L and N
by their diagonal tori; 5.1 and 6.1 sweep the torus sign parameters of the
Leibniz analogues SLP and SNP; 7.1 to 7.4 compute the superderivation
spaces of the four solvable families and check that all of them are inner.

prepare(theorem, even, odd) builds the instance and returns it together
with a function that runs the checks.  Building is cheap; the caller can
look at the instance (its dimension, say) before any validation or
derivation work starts.  Each check is a triple (name, ok, detail).
"""

import itertools

from .core import change_of_basis, equal_laws
from .derivations import innerness_report
from .extension import (IdentityViolation, filiform_lie_torus_spec,
                        filiform_leibniz_torus_spec,
                        model_nilpotent_lie_torus_spec,
                        model_nilpotent_leibniz_torus_spec,
                        nil_independence_check, nilradical_verdict,
                        semidirect_extension)
from .families import (filiform_leibniz, model_filiform_lie,
                       model_nilpotent_leibniz, model_nilpotent_lie,
                       z_basis_filiform_lie, z_basis_nilpotent_lie)
from .invariants import span_of_labels


def _filiform_params(even, odd):
    if len(even) != 1 or len(odd) != 1:
        raise ValueError("this theorem takes one even and one odd value")
    return even[0], odd[0]


def _lie_construction(family, even, odd):
    if family == "SL":
        n, m = _filiform_params(even, odd)
        nil = model_filiform_lie(n, m)
        solvable = model_filiform_lie(n, m, solvable=True)
        spec = filiform_lie_torus_spec(n, m)
        zalg, zmap = z_basis_filiform_lie(n, m)
        codim = 3
    else:
        nil = model_nilpotent_lie(even, odd)
        solvable = model_nilpotent_lie(even, odd, solvable=True)
        spec = model_nilpotent_lie_torus_spec(even, odd)
        zalg, zmap = z_basis_nilpotent_lie(even, odd)
        codim = len(even) + 1 + len(odd)

    def run():
        checks = []
        try:
            ext = semidirect_extension(spec)
            checks.append(("extension satisfies the identities", True, ""))
            checks.append(("extension matches the solvable law",
                           equal_laws(ext, solvable), ""))
        except IdentityViolation as exc:
            checks.append(("extension satisfies the identities", False,
                           "%d violations" % len(exc.report.violations)))
        checks.append(("torus is nil-independent",
                       nil_independence_check(spec), ""))
        replay = change_of_basis(zalg, zmap)
        checks.append(("z-basis replay matches the solvable law",
                       equal_laws(replay, solvable), ""))
        verdict = nilradical_verdict(
            solvable, span_of_labels(solvable, nil.combined_basis))
        checks.append(("nilradical verdict", verdict["verdict"], ""))
        checks.append(("nilradical codimension = %d" % codim,
                       verdict["codimension"] == codim,
                       "got %d" % verdict["codimension"]))
        return checks

    return solvable, run


def _leibniz_sweep(family, even, odd):
    if family == "SLP":
        n, m = _filiform_params(even, odd)
        solvable = filiform_leibniz(n, m, solvable=True)
        points = list(itertools.product((0, 1), repeat=3))
        expected = {(0, 1, 1)}
        make = lambda b: filiform_leibniz_torus_spec(n, m, b)
    else:
        solvable = model_nilpotent_leibniz(even, odd, solvable=True)
        k, p = len(even), len(odd)
        points = [(b, bp)
                  for b in itertools.product((0, 1), repeat=k + 1)
                  for bp in itertools.product((0, 1), repeat=p)]
        expected = {((1,) + (0,) * k, (0,) * p)}
        make = lambda pt: model_nilpotent_leibniz_torus_spec(even, odd, *pt)

    def run():
        successes = set()
        witness = None
        for pt in points:
            spec = make(pt)
            try:
                ext = semidirect_extension(spec)
            except IdentityViolation:
                continue
            successes.add(pt)
            witness = (spec, ext)
        checks = [("sweep succeeds exactly on the expected parameters",
                   successes == expected,
                   "got {%s}" % ", ".join(map(str, sorted(successes))))]
        if witness is not None:
            spec, ext = witness
            checks.append(("surviving extension matches the solvable law",
                           equal_laws(ext, solvable), ""))
            checks.append(("torus is nil-independent",
                           nil_independence_check(spec), ""))
        return checks

    return solvable, run


def _derivations(family, even, odd):
    if family in ("SL", "SLP"):
        n, m = _filiform_params(even, odd)
        if family == "SL":
            A = model_filiform_lie(n, m, solvable=True)
            want_even, want_odd = n + 3, m
        else:
            A = filiform_leibniz(n, m, solvable=True)
            want_even, want_odd = 4, 0
    else:
        k, p = len(even), len(odd)
        if family == "SN":
            A = model_nilpotent_lie(even, odd, solvable=True)
            want_even, want_odd = (sum(even) + 1) + k + 1 + p, sum(odd)
        else:
            A = model_nilpotent_leibniz(even, odd, solvable=True)
            want_even, want_odd = k + p + 2, 0

    def run():
        rep = innerness_report(A)
        return [
            ("dim Der_even = %d" % want_even, rep["dim_der_even"] == want_even,
             "got %d" % rep["dim_der_even"]),
            ("dim Der_odd = %d" % want_odd, rep["dim_der_odd"] == want_odd,
             "got %d" % rep["dim_der_odd"]),
            ("all superderivations inner", rep["all_inner"], ""),
        ]

    return A, run


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


def prepare(theorem, even, odd):
    """Build the instance of `theorem` at the given even and odd sizes.

    Filiform theorems (3.1, 5.1, 7.1, 7.3) take one even and one odd size,
    n and m; block theorems take the even and odd block lengths.  Returns
    (algebra, run), where run() performs the checks and returns them as a
    list of (name, ok, detail) triples.
    """
    fixture, family = THEOREMS[theorem]
    return fixture(family, tuple(even), tuple(odd))
