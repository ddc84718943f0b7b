"""The corner sweep of theorems 5.1 and 6.1, kept as an oracle.

Before the exact solve (extension._parameter_solutions), `verify 5.1` and
`6.1` built and validated the extension at every {0, 1} corner of the
left-action parameters of the paper's candidate specs, here
naive_torus.leibniz_torus_specs: 8 points on LP^{n,m} and 2^(k+1+p) on
NP(n_1..n_k,1|m_1..m_p).  The survivors are the corners at which the
extension satisfies the Leibniz identity.
"""

import itertools

from superalg.extension import IdentityViolation, semidirect_extension

from naive_torus import leibniz_torus_specs


def point_form(family, even, odd):
    """The candidate specs' point of a flat parameter list, and the count r
    of parameters: (b1, b2, b3) on LP, (b, bp) on NP."""
    if family == "LP":
        return tuple, 3
    k = len(even) + 1
    return (lambda b: (tuple(b[:k]), tuple(b[k:]))), k + len(odd)


def sweep(family, even, odd):
    """The set of corners, in the point form, whose extension validates."""
    make = leibniz_torus_specs(family, even, odd)
    point, r = point_form(family, even, odd)
    survivors = set()
    for corner in itertools.product((0, 1), repeat=r):
        try:
            semidirect_extension(make(point(corner)))
        except IdentityViolation:
            continue
        survivors.add(point(corner))
    return survivors
