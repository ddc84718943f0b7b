"""Constructors for the model nilpotent and solvable families.

Filiform families take a pair (n, m) with n >= 3, m >= 2.  Model nilpotent
families take even blocks (n_1..n_k) and odd blocks (m_1..m_p); the even
part always carries one extra generator x1 on top of the blocks, so the
display name shows a trailing 1 in the even block list, e.g.
N(2,1|2) = model_nilpotent_lie((2,), (2,)).

Solvable variants append a torus, t1..t_{k+1} and tp1..tp_p.  The filiform
families are the one-block members, L^{n,m} = N(n-1,1|m) and LP^{n,m} =
NP(n-1,1|m), with tp1 and zp1 called t3 and z3.  The alternate z-basis
presentations come with the canonical label map sending t's to
combinations of z's, for replay through change_of_basis.
"""

from .core import LIE, LEIBNIZ, Element, SuperAlgebra


def _blocks_name(even_blocks, odd_blocks):
    return "%s,1|%s" % (",".join(map(str, even_blocks)),
                        ",".join(map(str, odd_blocks)))


def _check_filiform(n, m):
    if n < 3:
        raise ValueError("the even chain needs n >= 3, got %d" % n)
    if m < 2:
        raise ValueError("the odd chain needs m >= 2, got %d" % m)


_FILIFORM_LABELS = {"tp1": "t3", "zp1": "z3"}


def _filiform(obj, name=None):
    """A one-block model member in the filiform labels: tp1 is t3, zp1 is z3.

    obj is a label, a tuple, an Element, a dict (keys and values renamed)
    or an algebra, which is renamed to `name`; anything else, such as an
    action matrix, is returned as it is.
    """
    if isinstance(obj, str):
        return _FILIFORM_LABELS.get(obj, obj)
    if isinstance(obj, tuple):
        return tuple(map(_filiform, obj))
    if isinstance(obj, Element):
        if _FILIFORM_LABELS.keys().isdisjoint(obj.labels()):
            return obj
        return Element((_filiform(l), c) for l, c in obj.items())
    if isinstance(obj, dict):
        return {_filiform(k): _filiform(v) for k, v in obj.items()}
    if isinstance(obj, SuperAlgebra):
        return SuperAlgebra(obj.kind, _filiform(obj.even_basis), obj.odd_basis,
                            _filiform(dict(obj.brackets)), name=name)
    return obj


def _check_blocks(even_blocks, odd_blocks):
    even_blocks = tuple(int(v) for v in even_blocks)
    odd_blocks = tuple(int(v) for v in odd_blocks)
    if not even_blocks or not odd_blocks:
        raise ValueError("need at least one even and one odd block")
    if any(v < 1 for v in even_blocks + odd_blocks):
        raise ValueError("block sizes must be positive")
    return even_blocks, odd_blocks


def _partial_sums(blocks):
    sums = [0]
    for b in blocks:
        sums.append(sums[-1] + b)
    return sums


def member_dim(family, even, odd):
    """Dimension of the member of family L, SL, N, SN, LP, SLP, NP or SNP
    with these sizes, without building it; sizes its constructor refuses
    raise the same ValueError."""
    solvable = family.startswith("S")
    if family in ("L", "SL", "LP", "SLP"):
        if len(even) != 1 or len(odd) != 1:
            raise ValueError("family %s takes one even and one odd size" % family)
        _check_filiform(even[0], odd[0])
        return even[0] + odd[0] + (3 if solvable else 0)
    even, odd = _check_blocks(even, odd)
    return sum(even) + 1 + sum(odd) + (len(even) + 1 + len(odd) if solvable else 0)


def model_filiform_lie(n, m, solvable=False):
    """L^{n,m} = N(n-1,1|m), or SL^{n,m} with the torus t1, t2, t3."""
    _check_filiform(n, m)
    return _filiform(model_nilpotent_lie((n - 1,), (m,), solvable),
                     "%sL^{%d,%d}" % ("S" if solvable else "", n, m))


def model_nilpotent_lie(even_blocks, odd_blocks, solvable=False):
    """N(n_1..n_k,1|m_1..m_p), or SN(...) with its torus appended."""
    even_blocks, odd_blocks = _check_blocks(even_blocks, odd_blocks)
    k, p = len(even_blocks), len(odd_blocks)
    N = _partial_sums(even_blocks)
    M = _partial_sums(odd_blocks)
    xs = ["x%d" % i for i in range(1, N[k] + 2)]
    ys = ["y%d" % j for j in range(1, M[p] + 1)]
    table = {}
    for j in range(k):
        # chain inside even block j+1: x_{N_j+2} .. x_{N_{j+1}+1}
        for i in range(2, even_blocks[j] + 1):
            src = N[j] + i
            table[("x1", "x%d" % src)] = Element.basis("x%d" % (src + 1))
    for j in range(p):
        # chain inside odd block j+1: y_{M_j+1} .. y_{M_{j+1}}
        for i in range(1, odd_blocks[j]):
            src = M[j] + i
            table[("x1", "y%d" % src)] = Element.basis("y%d" % (src + 1))
    name = "N(%s)" % _blocks_name(even_blocks, odd_blocks)
    if not solvable:
        return SuperAlgebra(LIE, xs, ys, table, name=name)
    ts = ["t%d" % i for i in range(1, k + 2)]
    tps = ["tp%d" % i for i in range(1, p + 1)]
    for i in range(1, N[k] + 2):
        table[("t1", "x%d" % i)] = Element({"x%d" % i: i})
    for j in range(1, M[p] + 1):
        table[("t1", "y%d" % j)] = Element({"y%d" % j: j})
    for j in range(k):
        t = "t%d" % (j + 2)
        for i in range(2, even_blocks[j] + 2):
            lbl = "x%d" % (N[j] + i)
            table[(t, lbl)] = Element.basis(lbl)
    for j in range(p):
        tp = "tp%d" % (j + 1)
        for i in range(1, odd_blocks[j] + 1):
            lbl = "y%d" % (M[j] + i)
            table[(tp, lbl)] = Element.basis(lbl)
    return SuperAlgebra(LIE, xs + ts + tps, ys, table, name="S" + name)


def filiform_leibniz(n, m, solvable=False):
    """LP^{n,m} = NP(n-1,1|m), or SLP^{n,m}; one-sided brackets."""
    _check_filiform(n, m)
    return _filiform(model_nilpotent_leibniz((n - 1,), (m,), solvable),
                     "%sLP^{%d,%d}" % ("S" if solvable else "", n, m))


def model_nilpotent_leibniz(even_blocks, odd_blocks, solvable=False):
    """NP(n_1..n_k,1|m_1..m_p), or SNP(...); one-sided brackets."""
    even_blocks, odd_blocks = _check_blocks(even_blocks, odd_blocks)
    k, p = len(even_blocks), len(odd_blocks)
    N = _partial_sums(even_blocks)
    M = _partial_sums(odd_blocks)
    xs = ["x%d" % i for i in range(1, N[k] + 2)]
    ys = ["y%d" % j for j in range(1, M[p] + 1)]
    table = {}
    for j in range(k):
        for i in range(2, even_blocks[j] + 1):
            src = N[j] + i
            table[("x%d" % src, "x1")] = Element.basis("x%d" % (src + 1))
    for j in range(p):
        for i in range(1, odd_blocks[j]):
            src = M[j] + i
            table[("y%d" % src, "x1")] = Element.basis("y%d" % (src + 1))
    name = "NP(%s)" % _blocks_name(even_blocks, odd_blocks)
    if not solvable:
        return SuperAlgebra(LEIBNIZ, xs, ys, table, name=name)
    ts = ["t%d" % i for i in range(1, k + 2)]
    tps = ["tp%d" % i for i in range(1, p + 1)]
    table[("t1", "x1")] = Element({"x1": -1})
    table[("x1", "t1")] = Element.basis("x1")
    for j in range(k):
        for i in range(3, even_blocks[j] + 2):
            lbl = "x%d" % (N[j] + i)
            table[(lbl, "t1")] = Element({lbl: i - 2})
    for j in range(p):
        for i in range(2, odd_blocks[j] + 1):
            lbl = "y%d" % (M[j] + i)
            table[(lbl, "t1")] = Element({lbl: i - 1})
    for j in range(k):
        t = "t%d" % (j + 2)
        for i in range(2, even_blocks[j] + 2):
            lbl = "x%d" % (N[j] + i)
            table[(lbl, t)] = Element.basis(lbl)
    for j in range(p):
        tp = "tp%d" % (j + 1)
        for i in range(1, odd_blocks[j] + 1):
            lbl = "y%d" % (M[j] + i)
            table[(lbl, tp)] = Element.basis(lbl)
    return SuperAlgebra(LEIBNIZ, xs + ts + tps, ys, table, name="S" + name)


def z_basis_filiform_lie(n, m):
    """The z-basis presentation of the solvable filiform Lie family.

    Returns (algebra, map); pushing the algebra through change_of_basis
    with the map reproduces SL^{n,m} on the nose.
    """
    _check_filiform(n, m)
    alg, mapping = z_basis_nilpotent_lie((n - 1,), (m,))
    return _filiform(alg, "SL^{%d,%d} (z basis)" % (n, m)), _filiform(mapping)


def z_basis_nilpotent_lie(even_blocks, odd_blocks):
    """The z-basis presentation of the solvable model nilpotent Lie family.

    Returns (algebra, map) as in the filiform case; the map sends
    t1 to z1 + 2 z2 + sum (N_j + 2) z_{j+2} + zp1 + sum (M_j + 1) zp_{j+1}
    and every other t to its z.
    """
    even_blocks, odd_blocks = _check_blocks(even_blocks, odd_blocks)
    k, p = len(even_blocks), len(odd_blocks)
    N = _partial_sums(even_blocks)
    M = _partial_sums(odd_blocks)
    nil = model_nilpotent_lie(even_blocks, odd_blocks)
    xs, ys = list(nil.even_basis), list(nil.odd_basis)
    zs = ["z%d" % i for i in range(1, k + 2)]
    zps = ["zp%d" % i for i in range(1, p + 1)]
    table = dict(nil.brackets)
    table[("z1", "x1")] = Element.basis("x1")
    for j in range(k):
        for i in range(3, even_blocks[j] + 2):
            lbl = "x%d" % (N[j] + i)
            table[("z1", lbl)] = Element({lbl: i - 2})
    for j in range(p):
        for i in range(2, odd_blocks[j] + 1):
            lbl = "y%d" % (M[j] + i)
            table[("z1", lbl)] = Element({lbl: i - 1})
    for j in range(k):
        z = "z%d" % (j + 2)
        for i in range(2, even_blocks[j] + 2):
            lbl = "x%d" % (N[j] + i)
            table[(z, lbl)] = Element.basis(lbl)
    for j in range(p):
        zp = "zp%d" % (j + 1)
        for i in range(1, odd_blocks[j] + 1):
            lbl = "y%d" % (M[j] + i)
            table[(zp, lbl)] = Element.basis(lbl)
    alg = SuperAlgebra(LIE, xs + zs + zps, ys, table,
                       name="SN(%s) (z basis)" % _blocks_name(even_blocks, odd_blocks))
    mapping = {l: Element.basis(l) for l in xs}
    t1 = {"z1": 1, "z2": 2, "zp1": 1}
    for j in range(1, k):
        t1["z%d" % (j + 2)] = N[j] + 2
    for j in range(1, p):
        t1["zp%d" % (j + 1)] = M[j] + 1
    mapping["t1"] = Element(t1)
    for i in range(2, k + 2):
        mapping["t%d" % i] = Element.basis("z%d" % i)
    for i in range(1, p + 1):
        mapping["tp%d" % i] = Element.basis("zp%d" % i)
    for l in ys:
        mapping[l] = Element.basis(l)
    return alg, mapping
