"""Constructors for the model nilpotent and solvable families.

Model nilpotent families take even blocks (n_1..n_k) and odd blocks
(m_1..m_p).  Each block is a chain of labels, and _chains lays them out
once for every builder: even block j is x_{N_j+2} .. x_{N_{j+1}+1} and odd
block j is y_{M_j+1} .. y_{M_{j+1}}, where N_j and M_j add up the blocks
before j.  The generator x1 lies on no chain, so the display name shows a
trailing 1 in the even block list, e.g. N(2,1|2) =
model_nilpotent_lie((2,), (2,)).

Solvable variants append a torus, t1..t_{k+1} and tp1..tp_p, as the paper
writes it: t1 weighs the whole nilradical, and each other torus label is
the identity on one chain.
Filiform families take a pair (n, m) with n >= 3, m >= 2 and are the
one-block members, L^{n,m} = N(n-1,1|m) and LP^{n,m} = NP(n-1,1|m), with
tp1 and zp1 called t3 and z3.  member(family, even, odd) builds any of the
eight families by name; member_dim gives its dimension without building it.
The z-basis presentations of SL and SN extend N by its maximal torus, the
z's, through semidirect_extension, with the t -> z label map for replay
through change_of_basis: the fixtures of theorems 3.1 and 4.1.
"""

from .core import LIE, LEIBNIZ, Element, SuperAlgebra
from .derivations import maximal_torus
from .extension import ExtensionSpec, _diagonal_rows, semidirect_extension

FAMILIES = ("L", "SL", "N", "SN", "LP", "SLP", "NP", "SNP")

_FILIFORM_FAMILIES = ("L", "SL", "LP", "SLP")


def _check_blocks(even_blocks, odd_blocks):
    even_blocks = tuple(int(v) for v in even_blocks)
    odd_blocks = tuple(int(v) for v in odd_blocks)
    if not even_blocks or not odd_blocks:
        raise ValueError("need at least one even and one odd block")
    if any(v < 1 for v in even_blocks + odd_blocks):
        raise ValueError("block sizes must be positive")
    return even_blocks, odd_blocks


def _member_blocks(family, even, odd):
    """The checked block sizes of the member of `family` with these sizes.

    A filiform family takes one even and one odd size, n and m; its member
    is the one with blocks ((n-1,), (m,)).
    """
    if family not in FAMILIES:
        raise ValueError("unknown family %r" % (family,))
    if family not in _FILIFORM_FAMILIES:
        return _check_blocks(even, odd)
    if len(even) != 1 or len(odd) != 1:
        raise ValueError("family %s takes one even and one odd size" % family)
    (n,), (m,) = even, odd
    if n < 3:
        raise ValueError("the even chain needs n >= 3, got %d" % n)
    if m < 2:
        raise ValueError("the odd chain needs m >= 2, got %d" % m)
    return (n - 1,), (m,)


def _chains(even_blocks, odd_blocks):
    """The even and odd chains of N(n_1..n_k,1|m_1..m_p), as label lists."""
    even_blocks, odd_blocks = _check_blocks(even_blocks, odd_blocks)

    def cut(prefix, first, blocks):
        chains = []
        for size in blocks:
            chains.append(["%s%d" % (prefix, i) for i in range(first, first + size)])
            first += size
        return chains

    return cut("x", 2, even_blocks), cut("y", 1, odd_blocks)


def _torus_labels(prefix, even_chains, odd_chains):
    """prefix1, then one label per chain: prefix2.. for the even chains and
    prefix + "p1".. for the odd ones, so labels[1:] pairs with the chains."""
    return (["%s%d" % (prefix, i) for i in range(1, len(even_chains) + 2)]
            + ["%sp%d" % (prefix, i) for i in range(1, len(odd_chains) + 1)])


def _chain_law(kind, even_chains, odd_chains):
    """The bases, the nilpotent table and the block list of the name.

    Along each chain a -> b, [x1, a] = b for the Lie kind and [a, x1] = b
    for the Leibniz kind.
    """
    xs = ["x1"] + [a for c in even_chains for a in c]
    ys = [a for c in odd_chains for a in c]
    table = {}
    for c in even_chains + odd_chains:
        for a, b in zip(c, c[1:]):
            table[("x1", a) if kind == LIE else (a, "x1")] = [(b, 1)]
    sizes = [",".join(str(len(c)) for c in chains) for chains in (even_chains, odd_chains)]
    return xs, ys, table, "%s,1|%s" % tuple(sizes)


_FILIFORM_LABELS = {"tp1": "t3", "zp1": "z3"}


def _filiform(obj, name=None):
    """A one-block model member in the filiform labels: tp1 is t3, zp1 is z3.

    obj is a label, a tuple of them, or an algebra, renamed to `name` and
    keeping its `integer_law`, whose cells are indexed.
    """
    if isinstance(obj, str):
        return _FILIFORM_LABELS.get(obj, obj)
    if isinstance(obj, tuple):
        return tuple(map(_filiform, obj))
    return SuperAlgebra.from_law(obj.kind, _filiform(obj.even_basis), obj.odd_basis,
                                 obj.integer_law, name=name)


def member_dim(family, even, odd):
    """Dimension of member(family, even, odd), without building it; sizes
    member refuses raise the same ValueError."""
    even, odd = _member_blocks(family, even, odd)
    torus = len(even) + 1 + len(odd) if family.startswith("S") else 0
    return sum(even) + 1 + sum(odd) + torus


def member(family, even, odd):
    """The member of family L, SL, N, SN, LP, SLP, NP or SNP with these sizes.

    even and odd are (n,) and (m,) for the filiform families, whose members
    are the one-block members in the filiform labels, and the block sizes
    for the others.
    """
    blocks = _member_blocks(family, even, odd)
    build = model_nilpotent_leibniz if family.endswith("P") else model_nilpotent_lie
    A = build(*blocks, solvable=family.startswith("S"))
    if family in _FILIFORM_FAMILIES:
        return _filiform(A, "%s^{%d,%d}" % (family, even[0], odd[0]))
    return A


def model_filiform_lie(n, m, solvable=False):
    """L^{n,m} = N(n-1,1|m), or SL^{n,m} with the torus t1, t2, t3."""
    return member("SL" if solvable else "L", (n,), (m,))


def model_nilpotent_lie(even_blocks, odd_blocks, solvable=False):
    """N(n_1..n_k,1|m_1..m_p), or SN(...) with its torus appended."""
    even_chains, odd_chains = _chains(even_blocks, odd_blocks)
    xs, ys, table, blocks = _chain_law(LIE, even_chains, odd_chains)
    if not solvable:
        return SuperAlgebra(LIE, xs, ys, table, name="N(%s)" % blocks)
    torus = _torus_labels("t", even_chains, odd_chains)
    for a in xs + ys:
        table[("t1", a)] = [(a, int(a[1:]))]
    for t, c in zip(torus[1:], even_chains + odd_chains):
        for a in c:
            table[(t, a)] = [(a, 1)]
    return SuperAlgebra(LIE, xs + torus, ys, table, name="SN(%s)" % blocks)


def filiform_leibniz(n, m, solvable=False):
    """LP^{n,m} = NP(n-1,1|m), or SLP^{n,m}; one-sided brackets."""
    return member("SLP" if solvable else "LP", (n,), (m,))


def model_nilpotent_leibniz(even_blocks, odd_blocks, solvable=False):
    """NP(n_1..n_k,1|m_1..m_p), or SNP(...); one-sided brackets."""
    even_chains, odd_chains = _chains(even_blocks, odd_blocks)
    xs, ys, table, blocks = _chain_law(LEIBNIZ, even_chains, odd_chains)
    if not solvable:
        return SuperAlgebra(LEIBNIZ, xs, ys, table, name="NP(%s)" % blocks)
    torus = _torus_labels("t", even_chains, odd_chains)
    table[("t1", "x1")] = [("x1", -1)]
    table[("x1", "t1")] = [("x1", 1)]
    for c in even_chains + odd_chains:
        for i, a in enumerate(c[1:], 1):
            table[(a, "t1")] = [(a, i)]
    for t, c in zip(torus[1:], even_chains + odd_chains):
        for a in c:
            table[(a, t)] = [(a, 1)]
    return SuperAlgebra(LEIBNIZ, xs + torus, ys, table, name="SNP(%s)" % blocks)


def _lie_torus(family, even, odd, nil):
    """The z-basis presentation of the SL or SN member with these sizes,
    semidirect_extension of its nilradical `nil` (the L or N member) by
    T = maximal_torus(nil) on the left, with the map (see
    z_basis_nilpotent_lie): T's basis is the z's, and the map sends each t
    to its combination of them."""
    even_chains, odd_chains = _chains(*_member_blocks(family, even, odd))
    ts, zs = (tuple(_torus_labels(p, even_chains, odd_chains)) for p in "tz")
    if family == "SL":
        ts, zs = _filiform(ts), _filiform(zs)
    rows = [_diagonal_rows(dict(w), nil.dim) for w in maximal_torus(nil)]
    zalg = semidirect_extension(ExtensionSpec(nil, zs, dict(zip(zs, rows))))
    zalg.name = "S%s (z basis)" % nil.name
    heads = [1] + [int(c[0][1:]) for c in even_chains + odd_chains]
    zmap = {l: Element.basis(l) for l in nil.even_basis}
    zmap[ts[0]] = Element(zip(zs, heads))
    zmap.update({t: Element.basis(z) for t, z in zip(ts[1:], zs[1:])})
    zmap.update({l: Element.basis(l) for l in nil.odd_basis})
    return zalg, zmap


def z_basis_filiform_lie(n, m):
    """The z-basis presentation of the solvable filiform Lie family.

    Returns (algebra, map); pushing the algebra through change_of_basis
    with the map reproduces SL^{n,m} on the nose.
    """
    return _lie_torus("SL", (n,), (m,), member("L", (n,), (m,)))


def z_basis_nilpotent_lie(even_blocks, odd_blocks):
    """The z-basis presentation of the solvable model nilpotent Lie family.

    z1 acts like the Leibniz t1 but on the left, with [z1, x1] = x1, and
    each other z is the identity on its chain; the z's are the basis of the
    maximal torus of N(...) that derivations.maximal_torus gives.  Returns
    (algebra, map) as in the filiform case; the map sends t1 to z1 plus,
    for each chain, the number of its first label times the chain's z, so
    t1 = z1 + 2 z2 + sum (N_j + 2) z_{j+2} + zp1 + sum (M_j + 1) zp_{j+1},
    and every other t to its z.
    """
    return _lie_torus("SN", even_blocks, odd_blocks, member("N", even_blocks, odd_blocks))
