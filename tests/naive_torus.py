"""The paper's torus of SL and SN, written out by hand, as an oracle.

The library derives every torus from its nilradical (derivations.
maximal_torus); this spec is the paper's instead: t1 weighs each label by
its number, x_i by i and y_j by j, and every other torus label is the
identity on its own chain.  On N(n_1..n_k,1|m_1..m_p) even block j is t_{j+1}'s
and odd block j is tp_j's; on L^{n,m} the even chain x2..xn is t2's and the
odd chain y1..ym is t3's.  Its extension is compared with the solvable laws
of families.py, which are written out too.
"""

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


def lie_torus_spec(family, even, odd):
    """The spec on the nilradical of the SL or SN member with these sizes
    whose extension is that member."""
    nil = member(family[1:], even, odd)
    if family == "SL":
        (_, xs), (_, ys) = _chain_torus((even[0] - 1,), odd)
        chains = [("t2", xs), ("t3", ys)]
    else:
        chains = _chain_torus(even, odd)
    basis = nil.combined_basis

    def diagonal(weights):
        return [[(i, weights[l])] if l in weights else [] for i, l in enumerate(basis)]

    actions = {"t1": diagonal({l: int(l[1:]) for l in basis})}
    for t, chain in chains:
        actions[t] = diagonal(dict.fromkeys(chain, 1))
    return ExtensionSpec(nil, ["t1"] + [t for t, _ in chains], actions)
