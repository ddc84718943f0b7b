"""The paper's tori of SL, SN, SLP and SNP, written out by hand, as oracles.

The library derives every torus from its nilradical (derivations.
maximal_torus); these specs are the paper's instead.  Lie: t1 weighs each
label by its number, x_i by i and y_j by j, and every other torus label is
the identity on its own chain.  Leibniz: on the right, t1 weighs x1 by 1
and each chain label by its place in its chain from 0, and every other
torus label is the identity on its chain; on the left, t1 acts by -b1 on
x1 and every other torus label by -b on its chain.  On
N(n_1..n_k,1|m_1..m_p) even block j is t_{j+1}'s and odd block j is
tp_j's; on L^{n,m} the even chain x2..xn is t2's and the odd chain y1..ym
is t3's.  Their extensions are compared with the solvable laws of
families.py, which are written out too.
"""

from fractions import Fraction

from superalg.extension import ExtensionSpec
from superalg.families import member


def _chain_torus(even, odd):
    """(torus label, chain labels) per block of N(even,1|odd)."""
    chains, first = [], 2
    for j, size in enumerate(even, 2):
        chains.append(("t%d" % j, ["x%d" % i for i in range(first, first + size)]))
        first += size
    first = 1
    for j, size in enumerate(odd, 1):
        chains.append(("tp%d" % j, ["y%d" % i for i in range(first, first + size)]))
        first += size
    return chains


def _torus_chains(filiform, even, odd):
    """The chains of the nilradical with these sizes, as _chain_torus gives
    them, in the filiform labels t2 and t3 on L^{n,m} and LP^{n,m}."""
    if filiform:
        (_, xs), (_, ys) = _chain_torus((even[0] - 1,), odd)
        return [("t2", xs), ("t3", ys)]
    return _chain_torus(even, odd)


def _diagonal(basis, weights):
    return [[(i, weights[l])] if weights.get(l) else [] for i, l in enumerate(basis)]


def lie_torus_spec(family, even, odd):
    """The spec on the nilradical of the SL or SN member with these sizes
    whose extension is that member."""
    nil = member(family[1:], even, odd)
    chains = _torus_chains(family == "SL", even, odd)
    basis = nil.combined_basis
    actions = {"t1": _diagonal(basis, {l: int(l[1:]) for l in basis})}
    for t, chain in chains:
        actions[t] = _diagonal(basis, dict.fromkeys(chain, 1))
    return ExtensionSpec(nil, ["t1"] + [t for t, _ in chains], actions)


def leibniz_torus_rows(family, even, odd):
    """(nilradical, torus labels, supports, right actions) of the LP or NP
    member with these sizes: per torus label, the indices its left
    parameter acts on (x1 for t1, else its chain) and its right action as
    sparse rows."""
    nil = member(family, even, odd)
    chains = _torus_chains(family == "LP", even, odd)
    basis = nil.combined_basis
    places = {"x1": 1}
    places.update({l: i for _, chain in chains for i, l in enumerate(chain)})
    rights = [_diagonal(basis, places)]
    rights += [_diagonal(basis, dict.fromkeys(chain, 1)) for _, chain in chains]
    supports = [[nil.index(l) for l in c] for c in [["x1"]] + [c for _, c in chains]]
    return nil, ["t1"] + [t for t, _ in chains], supports, rights


def leibniz_torus_specs(family, even, odd):
    """Parameter point -> candidate torus spec on the LP or NP member at
    these sizes, its left actions affine in the point.

    On NP(...) the point is (b, bp), one entry per t1..t_{k+1} and one per
    tp1..tp_p; the left actions are -b1 on x1 for t1, -b_{j+2} on even
    block j+1 and -bp_j on odd block j, and SNP(...) is b1 = 1, all else 0.
    On LP^{n,m} the point (b1, b2, b3) is the NP one at 1 - b: the left
    actions are (b1 - 1) on x1, (b2 - 1) on x2..xn and (b3 - 1) on the odd
    part, and SLP^{n,m} is (0, 1, 1).  An int parameter stays an int; any
    other value (a Fraction or a "p/q" string) is read as a Fraction.
    """
    nil, torus, supports, rights = leibniz_torus_rows(family, even, odd)

    def exact(v):
        return v if isinstance(v, int) else Fraction(v)

    def spec(point):
        if family == "LP":
            point = [1 - exact(v) for v in point]
            point = point[:2], point[2:]
        b, bp = point
        if len(b) + len(bp) != len(torus) or len(bp) != len(odd):
            raise ValueError("need %d even and %d odd parameters"
                             % (len(torus) - len(odd), len(odd)))
        lefts = [[[(i, -exact(v))] if i in s and v else [] for i in range(nil.dim)]
                 for s, v in zip(supports, list(b) + list(bp))]
        return ExtensionSpec(nil, torus, dict(zip(torus, zip(lefts, rights))))
    return spec
