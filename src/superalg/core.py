"""Z2-graded algebras presented by structure constants.

An algebra is a graded basis together with a sparse bracket table; the kind
selects which defining identity validation checks (super Jacobi for the Lie
kind, super Leibniz for the Leibniz kind).  Bracket pairs absent from the
table are zero.  For the Lie kind a missing transpose entry is filled in by
super skew-symmetry at construction time; entries present on both sides are
kept as given so that validate() can report contradictions.

Every constructor builds `integer_law`, the one form of the law: (d,
{(i, j): {k: d*c}}) by combined-basis index, d the lcm of the reduced
denominators, with `parities` by index; `brackets`, the table by labels,
is a view made from it on first read.  Validation, the derivation
equations and the products (_products, and ad x through _ad) run on it
in integers, and a Fraction is made only where a value leaves the library;
`skew_symmetric` lets the first two skip what super skew-symmetry implies.
"""

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from types import MappingProxyType

from .linalg import Matrix, ZERO, _frac, _reduce

EVEN = 0
ODD = 1

LIE = "lie_super"
LEIBNIZ = "leibniz_super"
KINDS = (LIE, LEIBNIZ)


class Element:
    """Formal rational combination of basis labels; absent label means 0."""

    def __init__(self, coords=None):
        data = {}
        for label, c in coords.items() if isinstance(coords, dict) else coords or ():
            c = _frac(c)
            data[label] = data[label] + c if label in data else c
        self._coords = {l: c for l, c in data.items() if c}

    @classmethod
    def basis(cls, label):
        return cls({label: 1})

    @property
    def coords(self):
        return dict(self._coords)

    def items(self):
        return self._coords.items()

    def labels(self):
        return self._coords.keys()

    def get(self, label):
        return self._coords.get(label, ZERO)

    def is_zero(self):
        return not self._coords

    def __add__(self, other):
        return Element(list(self._coords.items()) + list(other.items()))

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return Element({l: -c for l, c in self._coords.items()})

    def scale(self, a):
        a = _frac(a)
        return Element({l: a * c for l, c in self._coords.items()})

    def __rmul__(self, a):
        return self.scale(a)

    def __eq__(self, other):
        return isinstance(other, Element) and self._coords == other._coords

    def __repr__(self):
        if not self._coords:
            return "0"
        parts = []
        for l, c in self._coords.items():
            if c == 1:
                term = l
            elif c == -1:
                term = "-" + l
            else:
                term = "%s*%s" % (c, l)
            parts.append(term)
        out = parts[0]
        for term in parts[1:]:
            out += " - " + term[1:] if term.startswith("-") else " + " + term
        return out


ZERO_ELEMENT = Element()


class Violation:
    """One failed identity instance: which identity, on which basis tuple."""

    def __init__(self, identity, labels, residual):
        self.identity = identity
        self.labels = tuple(labels)
        self.residual = residual

    def __repr__(self):
        return "Violation(%s, %r, residual=%r)" % (
            self.identity, self.labels, self.residual)


class ValidationReport:
    def __init__(self, kind, violations):
        self.kind = kind
        self.violations = list(violations)

    @property
    def ok(self):
        return not self.violations

    def triples(self, identity=None):
        return [v.labels for v in self.violations
                if identity is None or v.identity == identity]

    def __repr__(self):
        if self.ok:
            return "ValidationReport(ok)"
        return "ValidationReport(%d violations, first: %r)" % (
            len(self.violations), self.violations[0])


def _label_cells(index, brackets):
    """A label table (left, right) -> Element, dict or (label, coefficient)
    pairs as {(i, j): {k: c}} by index, c an int or a Fraction; a label
    repeated in one result is summed, and an all-zero result is dropped."""
    table = {}
    for (left, right), value in brackets.items():
        if left not in index or right not in index:
            raise ValueError("bracket on unknown labels (%r, %r)" % (left, right))
        cell = {}
        for l, c in value.items() if isinstance(value, (Element, dict)) else value:
            if l not in index:
                raise ValueError("bracket result uses unknown label %r" % (l,))
            k, c = index[l], c if type(c) is int else _frac(c)
            cell[k] = cell[k] + c if k in cell else c
        if any(cell.values()):  # _integer_cells drops the zero values
            table[index[left], index[right]] = cell
    return table


def _integer_cells(table):
    """(d, the table times d as int cells) for cells of int or Fraction
    values, d the lcm of their denominators; zero values are dropped."""
    d = lcm(*{c.denominator for cell in table.values() for c in cell.values()})
    cells = {key: {k: c.numerator * (d // c.denominator) for k, c in cell.items() if c}
             for key, cell in table.items()}
    return d, {key: cell for key, cell in cells.items() if cell}


class SuperAlgebra:
    """Graded basis plus sparse bracket table with exact rational constants."""

    def __init__(self, kind, even_basis, odd_basis, brackets, name=""):
        if kind not in KINDS:
            raise ValueError("unknown kind %r" % (kind,))
        self.kind, self.name = kind, name
        self.even_basis, self.odd_basis = tuple(even_basis), tuple(odd_basis)
        self.combined_basis = combined = self.even_basis + self.odd_basis
        if len(set(combined)) != len(combined):
            raise ValueError("duplicate basis labels")
        self.dim, self.dim_even, self.dim_odd = len(combined), len(even_basis), len(odd_basis)
        self.parities = (EVEN,) * self.dim_even + (ODD,) * self.dim_odd
        self._index = {l: i for i, l in enumerate(combined)}
        self._set_law(*_integer_cells(_label_cells(self._index, brackets)))

    @classmethod
    def from_law(cls, kind, even_basis, odd_basis, law, name=""):
        """The algebra of integer law (d, {(i, j): {k: d*c}}), d any positive integer."""
        A = cls(kind, even_basis, odd_basis, {}, name)
        A._set_law(*law)
        return A

    def _set_law(self, d, cells):
        """Store `integer_law`, d made canonical and the Lie kind's missing sides filled."""
        g = gcd(d, *[c for cell in cells.values() for c in cell.values()]) if d > 1 else 1
        if g > 1:
            d, cells = d // g, {key: {k: c // g for k, c in cell.items()}
                                for key, cell in cells.items()}
        if self.kind == LIE:
            p = self.parities
            cells = {**cells, **{(j, i): {k: c if p[i] and p[j] else -c for k, c in cell.items()}
                                 for (i, j), cell in cells.items() if (j, i) not in cells}}
        self.integer_law = d, cells

    @cached_property
    def brackets(self):
        """The read-only label view (left, right) -> Element of `integer_law`, in its order."""
        basis, (d, cells) = self.combined_basis, self.integer_law
        return MappingProxyType({(basis[i], basis[j]): Element(
            (basis[k], Fraction(c, d)) for k, c in cell.items()) for (i, j), cell in cells.items()})

    @cached_property
    def integer_left_index(self):
        """`integer_law` by left index: entry i lists (j, {k: d*c}) per nonzero [e_i, e_j]."""
        rows = [[] for _ in self.combined_basis]
        for (i, j), cell in self.integer_law[1].items():
            rows[i].append((j, cell))
        return rows

    @cached_property
    def skew_symmetric(self):
        """Whether every cell satisfies [e_j, e_i] = -(-1)^(|i||j|) [e_i, e_j]."""
        law, par = self.integer_law[1], self.parities
        return all(law.get((j, i)) == {k: c if par[i] and par[j] else -c
                                       for k, c in cell.items()}
                   for (i, j), cell in law.items())

    # ---- basic queries -------------------------------------------------

    def parity(self, label):
        return self.parities[self.index(label)]

    def index(self, label):
        try:
            return self._index[label]
        except KeyError:
            raise ValueError("unknown basis label %r" % (label,)) from None

    def basis_element(self, label):
        self.parity(label)
        return Element.basis(label)

    def as_element(self, x):
        if isinstance(x, Element):
            for l in x.labels():
                self.parity(l)
            return x
        if isinstance(x, str):
            return self.basis_element(x)
        raise TypeError("expected an Element or basis label, got %r" % (x,))

    def element_parity(self, el):
        """Parity of a homogeneous element; None for 0, error if mixed."""
        parities = {self.parity(l) for l in el.labels()}
        if not parities:
            return None
        if len(parities) > 1:
            raise ValueError("element %r is not homogeneous" % (el,))
        return parities.pop()

    def basis_bracket(self, left, right):
        return self.brackets.get((left, right), ZERO_ELEMENT)


def _products(A, us, vs):
    """Yield, for each u in us, {t: d*[u, vs[t]]} as sparse {k: c} dicts, d
    from `A.integer_law`; u and v are lists of nonzero (index, value) pairs.
    Only law cells (i, j) with u[i] and v[j] nonzero are visited, and a pair
    that meets none is left out, its bracket being zero."""
    by_col = {}
    for t, v in enumerate(vs):
        for j, b in v:
            by_col.setdefault(j, []).append((t, b))
    for u in us:
        ws = {}
        for i, a in u:
            for j, cell in A.integer_left_index[i]:
                for t, b in by_col.get(j, ()):
                    w = ws.setdefault(t, {})
                    f = a * b
                    for k, c in cell.items():
                        w[k] = w.get(k, 0) + f * c
        yield ws


def _ad(A, x, vs, left):
    """ad x on the sparse rows vs: {t: d*[x, vs[t]]} (left) or {t: d*[vs[t],
    x]} (right), as _products gives them; a product that meets no law cell
    is left out, its value being zero."""
    if left:
        return next(_products(A, [x], vs))
    return {t: w[0] for t, w in enumerate(_products(A, vs, [x])) if w}


def bracket(A, u, v):
    """Bilinear extension of A's law to elements or basis labels."""
    u, v = ([(A.index(l), c) for l, c in A.as_element(x).items()] for x in (u, v))
    w = _ad(A, u, [v], True).get(0, {})
    d, basis = A.integer_law[0], A.combined_basis
    return Element((basis[k], Fraction(c, d)) for k, c in sorted(w.items()))


def validate(A):
    """Check the grading and the defining identity from the nonzero constants.

    Only the nonzero double products [p,[q,r]] and [[q,r],p] are formed, in
    integers from `A.integer_law` (d times the law), and added into the
    residual of each basis triple whose identity holds them; a residual
    entry c is reported as c / d^2, the triples in index order.  On a super
    skew-symmetric law a transposition of (x,y,z) multiplies the Jacobi
    residual by eps = -(-1)^(|x||y|+|y||z|+|z||x|) (Scheunert 1979), so the
    Lie kind sums only nondecreasing triples and copies each nonzero one to
    its permutations, times eps at the odd ones.  Violations are report
    entries, never exceptions.
    """
    kind, basis, par = A.kind, A.combined_basis, A.parities
    d, ilaw = A.integer_law
    ordered = kind == LIE and A.skew_symmetric
    violations = []
    residuals = {}

    def add(triple, f, cell):
        res = residuals.setdefault(triple, {})
        for k, c in cell.items():
            res[k] = res.get(k, 0) + f * c

    # the cells (p, k) by right index k, and (k, p) by left index k
    by_right = [[] for _ in basis]
    by_left = [[] for _ in basis]
    for (i, j), cell in ilaw.items():
        by_right[j].append((i, cell))
        by_left[i].append((j, cell))
    for (q, r), cell in ilaw.items():
        bad = [(basis[k], Fraction(c, d)) for k, c in cell.items() if par[k] != par[q] ^ par[r]]
        if bad:
            violations.append(Violation("grading", (basis[q], basis[r]), Element(bad)))
    # Jacobi residual of (x,y,z): (-1)^{|z||x|}[x,[y,z]]
    #   + (-1)^{|x||y|}[y,[z,x]] + (-1)^{|y||z|}[z,[x,y]], which holds
    #   [p,[q,r]] at each rotation of (p,q,r) with sign (-1)^{|p||r|}.
    # Leibniz residual: [x,[y,z]] - [[x,y],z] + (-1)^{|y||z|}[[x,z],y],
    #   which holds [p,[q,r]] at (p,q,r), and [[q,r],p] at (q,r,p) with
    #   sign -1 and at (q,p,r) with sign (-1)^{|p||r|}.
    for (q, r), cell in ilaw.items():
        for k, c in cell.items():
            for p, outer in by_right[k]:
                sc = -c if par[p] and par[r] else c
                if kind == LEIBNIZ:
                    add((p, q, r), c, outer)
                elif not ordered:
                    add((p, q, r), sc, outer)
                    add((r, p, q), sc, outer)
                    add((q, r, p), sc, outer)
                elif p <= q <= r:  # sum at the nondecreasing rotation; all three if p = r
                    add((p, q, r), 3 * sc if p == r else sc, outer)
                elif r <= p <= q:
                    add((r, p, q), sc, outer)
                elif q <= r <= p:
                    add((q, r, p), sc, outer)
            if kind == LEIBNIZ:
                for p, outer in by_left[k]:
                    add((q, r, p), -c, outer)
                    add((q, p, r), -c if par[p] and par[r] else c, outer)

    if kind == LIE and not A.skew_symmetric:
        for i, j in sorted({(min(i, j), max(i, j)) for i, j in ilaw}):
            # [a,b] + (-1)^{|a||b|} [b,a] must vanish
            sign = -1 if (par[i] and par[j]) else 1
            res = dict(ilaw.get((i, j), {}))
            for k, c in ilaw.get((j, i), {}).items():
                res[k] = res.get(k, 0) + sign * c
            if any(res.values()):
                violations.append(Violation("skew", (basis[i], basis[j]), Element(
                    (basis[k], Fraction(c, d)) for k, c in res.items() if c)))
    identity = "jacobi" if kind == LIE else "leibniz"
    found = {}
    for (x, y, z), res in residuals.items():
        if any(res.values()):
            even = found[x, y, z] = Element((basis[k], Fraction(c, d * d))
                                            for k, c in sorted(res.items()))
            if ordered:  # eps is 1 when two or three of x, y, z are odd
                odd = even if par[x] + par[y] + par[z] > 1 else -even
                found.update({(y, z, x): even, (z, x, y): even,
                              (y, x, z): odd, (x, z, y): odd, (z, y, x): odd})
    for triple in sorted(found):
        violations.append(Violation(identity, tuple(basis[i] for i in triple), found[triple]))
    return ValidationReport(kind, violations)


def multiplication_matrix(A, x, side):
    """Matrix of y -> [x,y] (side "left") or y -> [y,x] (side "right").

    Columns follow the combined basis order (even labels first); column j
    is _ad of x on e_j divided by d.  x must be homogeneous; the zero
    element is allowed and gives the zero matrix.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    x = A.as_element(x)
    A.element_parity(x)
    n, d = A.dim, A.integer_law[0]
    units = [[(j, 1)] for j in range(n)]
    rows = [[ZERO] * n for _ in range(n)]
    for j, col in _ad(A, [(A.index(l), c) for l, c in x.items()], units, side == "left").items():
        for k, v in col.items():
            rows[k][j] = v / d if v else ZERO
    return Matrix(rows)


def change_of_basis(A, mapping):
    """Rewrite A in a new basis.

    `mapping` sends each new basis label to its expression as an Element
    over A's basis; images must be homogeneous and jointly invertible.  The
    new label inherits the parity of its image, the law becomes
    P^{-1}[P(u), P(v)], and the kind is unchanged.  P^{-1} is read once off
    _reduce as sparse integer columns and applied to the integer products
    d*[P(u), P(v)] (see _products), and the cells go to from_law.
    """
    images, new_even, new_odd = {}, [], []
    for label, el in mapping.items():
        el = A.as_element(el if isinstance(el, Element) else Element(el))
        p = A.element_parity(el)
        if p is None:
            raise ValueError("image of %r is zero" % (label,))
        images[label] = el
        (new_even if p == EVEN else new_odd).append(label)
    n = A.dim
    if len(images) != n:
        raise ValueError("the map must cover the full dimension (%d labels for dim %d)"
                         % (len(images), n))
    new_combined = tuple(new_even) + tuple(new_odd)
    if len(set(new_combined)) != len(new_combined):
        raise ValueError("duplicate labels in the map")

    cols = [sorted((A.index(l), c) for l, c in images[u].items()) for u in new_combined]
    # row k of the canonical [P^T | I] is lead_k * (e_k | column k of P^{-1})
    reduced, pivots = _reduce([col + [(n + k, 1)] for k, col in enumerate(cols)])
    if pivots != list(range(n)):
        raise ValueError("the change-of-basis map is singular")
    scale = lcm(*[row[0][1] for row in reduced])
    inverse = [[(r - n, v * (scale // row[0][1])) for r, v in row[1:]] for row in reduced]
    table = {}
    for u, ws in enumerate(_products(A, cols, cols)):
        for t in sorted(ws):
            acc = {}
            for k, c in ws[t].items():
                for r, v in inverse[k]:
                    acc[r] = acc.get(r, 0) + c * v
            table[u, t] = dict(sorted(acc.items()))
    # the products carry the factor d, and a rational map its denominators
    D, cells = _integer_cells(table)
    return SuperAlgebra.from_law(A.kind, new_even, new_odd,
                                 (D * scale * A.integer_law[0], cells), name=A.name)


def equal_laws(A, B):
    """Entrywise comparison of two laws over the same basis: the integer
    cells and their common denominator d."""
    if A.kind != B.kind:
        raise ValueError("kind mismatch")
    if A.even_basis != B.even_basis or A.odd_basis != B.odd_basis:
        raise ValueError("basis mismatch")
    return A.integer_law == B.integer_law
