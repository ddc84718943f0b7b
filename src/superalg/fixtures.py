"""Verification fixtures: the paper's theorems re-checked on one family member.

Theorems 3.1 and 4.1 extend L and N by their maximal tori (computed by
derivations.maximal_torus) and compare the result with SL and SN.  5.1 and
6.1 take N's maximal torus as the right actions and solve exactly for the
left-action parameters, one per torus label acting by -b on x1 or on its
chain (extension._parameter_solutions, from the identity residuals that
validate also reads); the extension at the solution is validated and
compared with SLP and SNP.  Each of the four checks torus rank =
generator count of the nilradical = k + 1 + p, the paper's codimension,
and the nilradical verdict at that codimension.  7.1 to 7.4 compute the
superderivation spaces of the four solvable families and check that all
of them are inner.

verify(theorem, even, odd) builds the instance, runs the checks and returns
both.  Each check is a triple (name, ok, detail).
"""

from .core import change_of_basis, equal_laws
from .derivations import innerness_report, maximal_torus
from .extension import (ExtensionSpec, IdentityViolation, _diagonal_rows, _parameter_solutions,
                        nilradical_verdict, semidirect_extension)
from .families import _chains, _lie_torus, _member_blocks, member
from .invariants import generator_count, span_of_labels


def _rank_check(nil, ext, codim):
    """Whether dim T = dim ext - dim nil, nil's generator count and codim agree."""
    rank, gens = ext.dim - nil.dim, generator_count(nil)
    return ("torus rank = generator count = %d" % codim, rank == gens == codim,
            "rank %d, %d generators" % (rank, gens))


def _nilradical_checks(solvable, nil, codim):
    """The nilradical verdict on nil's labels in the solvable member, and its codimension."""
    verdict = nilradical_verdict(solvable, span_of_labels(solvable, nil.combined_basis))
    return [("nilradical verdict", verdict["verdict"], ""),
            ("nilradical codimension = %d" % codim, verdict["codimension"] == codim,
             "got %d" % verdict["codimension"])]


def _lie_construction(family, even, odd):
    solvable, nil = member(family, even, odd), member(family[1:], even, odd)
    even_blocks, odd_blocks = _member_blocks(family, even, odd)
    codim = len(even_blocks) + 1 + len(odd_blocks)
    # N extended by its computed maximal torus, in the z basis
    try:
        ext, zmap = _lie_torus(family, even, odd, nil)
    except IdentityViolation as exc:
        checks = [("extension satisfies the identities", False,
                   "%d violations" % len(exc.report.violations))]
    else:
        checks = [("extension satisfies the identities", True, "0 violations"),
                  ("extension matches the solvable law",
                   equal_laws(change_of_basis(ext, zmap), solvable), ""),
                  _rank_check(nil, ext, codim)]
    return solvable, checks + _nilradical_checks(solvable, nil, codim)


def _leibniz_solve(family, even, odd):
    even_blocks, odd_blocks = _member_blocks(family, even, odd)
    if 1 in even_blocks + odd_blocks:
        raise ValueError("theorem 6.1 is checked on blocks of length >= 2, since "
                         "a block of length 1 leaves its parameter free")
    solvable, nil = member(family, even, odd), member(family[1:], even, odd)
    # t1 acts on the left by -b_1 on x1, each other torus label by -b_c on
    # its chain; the right actions are N's maximal torus
    even_chains, odd_chains = _chains(even_blocks, odd_blocks)
    supports = [[nil.index(l) for l in c] for c in [["x1"]] + even_chains + odd_chains]
    rights = [_diagonal_rows(dict(w), nil.dim) for w in maximal_torus(nil)]
    solution = _parameter_solutions(nil, supports, rights)
    got, ext = "no solution", None
    if solution:
        b, free = tuple(solution[0]), list(map(tuple, solution[1]))
        got = "%s + span(%s)" % (b, ", ".join(map(str, free))) if free else str(b)
        if not free:
            torus = solvable.even_basis[nil.dim_even:]
            lefts = [_diagonal_rows(dict.fromkeys(s, -v), nil.dim) for s, v in zip(supports, b)]
            try:
                ext = semidirect_extension(
                    ExtensionSpec(nil, torus, dict(zip(torus, zip(lefts, rights)))))
            except IdentityViolation as exc:
                got += ": %s" % exc
    checks = [("the linear triples have one solution, where the extension validates",
               ext is not None, "got " + got)]
    if ext is not None:
        checks += [("extension at the solution matches the solvable law",
                    equal_laws(ext, solvable), ""),
                   _rank_check(nil, ext, len(supports))]
    return solvable, checks + _nilradical_checks(solvable, nil, len(supports))


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
    "5.1": (_leibniz_solve, "SLP"),
    "6.1": (_leibniz_solve, "SNP"),
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
