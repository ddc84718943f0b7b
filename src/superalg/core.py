"""Z2-graded algebras presented by structure constants.

An algebra is a graded basis together with a sparse bracket table; the kind
selects which defining identity validation checks (super Jacobi for the Lie
kind, super Leibniz for the Leibniz kind).  Bracket pairs absent from the
table are zero.  For the Lie kind a missing transpose entry is filled in by
super skew-symmetry at construction time; entries present on both sides are
kept as given so that validate() can report contradictions.
"""

from fractions import Fraction
from types import MappingProxyType

from .linalg import Matrix, ZERO, _frac

EVEN = 0
ODD = 1

LIE = "lie_super"
LEIBNIZ = "leibniz_super"
KINDS = (LIE, LEIBNIZ)


class Element:
    """Formal rational combination of basis labels; absent label means 0."""

    def __init__(self, coords=None):
        data = {}
        if coords is not None:
            items = coords.items() if isinstance(coords, dict) else coords
            for label, c in items:
                c = _frac(c)
                if label in data:
                    data[label] += c
                else:
                    data[label] = c
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
        out = dict(self._coords)
        for l, c in other.items():
            out[l] = out.get(l, ZERO) + c
        return Element(out)

    def __sub__(self, other):
        out = dict(self._coords)
        for l, c in other.items():
            out[l] = out.get(l, ZERO) - c
        return Element(out)

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


class SuperAlgebra:
    """Graded basis plus sparse bracket table with exact rational constants."""

    def __init__(self, kind, even_basis, odd_basis, brackets, name=""):
        if kind not in KINDS:
            raise ValueError("unknown kind %r" % (kind,))
        even_basis = tuple(even_basis)
        odd_basis = tuple(odd_basis)
        combined = even_basis + odd_basis
        if len(set(combined)) != len(combined):
            raise ValueError("duplicate basis labels")
        self.kind = kind
        self.even_basis = even_basis
        self.odd_basis = odd_basis
        self.combined_basis = combined
        self.name = name
        self._parity = {l: EVEN for l in even_basis}
        self._parity.update({l: ODD for l in odd_basis})
        self._index = {l: i for i, l in enumerate(combined)}

        table = {}
        for (left, right), value in brackets.items():
            if left not in self._parity or right not in self._parity:
                raise ValueError("bracket on unknown labels (%r, %r)" % (left, right))
            el = value if isinstance(value, Element) else Element(value)
            for l in el.labels():
                if l not in self._parity:
                    raise ValueError("bracket result uses unknown label %r" % (l,))
            if not el.is_zero():
                table[(left, right)] = el
        if kind == LIE:
            # fill in the missing side by super skew-symmetry
            for (left, right), el in list(table.items()):
                if (right, left) not in table:
                    sign = 1 if (self._parity[left] and self._parity[right]) else -1
                    table[(right, left)] = el.scale(sign)
        self.brackets = MappingProxyType(table)

    # ---- basic queries -------------------------------------------------

    @property
    def dim(self):
        return len(self.combined_basis)

    @property
    def dim_even(self):
        return len(self.even_basis)

    @property
    def dim_odd(self):
        return len(self.odd_basis)

    def parity(self, label):
        try:
            return self._parity[label]
        except KeyError:
            raise ValueError("unknown basis label %r" % (label,)) from None

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

    def coords(self, el):
        el = self.as_element(el)
        vec = [ZERO] * self.dim
        for l, c in el.items():
            vec[self._index[l]] = c
        return tuple(vec)

    def element_from_coords(self, vec):
        if len(vec) != self.dim:
            raise ValueError("coordinate length mismatch")
        return Element({l: v for l, v in zip(self.combined_basis, vec)})

    def basis_bracket(self, left, right):
        return self.brackets.get((left, right), ZERO_ELEMENT)

    def with_name(self, name):
        alg = SuperAlgebra(self.kind, self.even_basis, self.odd_basis,
                           dict(self.brackets), name=name)
        return alg


def bracket(A, u, v):
    """Bilinear extension of A's bracket table to arbitrary elements."""
    u = A.as_element(u)
    v = A.as_element(v)
    out = {}
    for lu, cu in u.items():
        for lv, cv in v.items():
            e = A.brackets.get((lu, lv))
            if e is None:
                continue
            f = cu * cv
            for lr, cr in e.items():
                out[lr] = out.get(lr, ZERO) + f * cr
    return Element(out)


def validate(A, kind=None):
    """Check the grading and the defining identity on all basis tuples.

    Violations are report entries, never exceptions.  `kind` overrides the
    algebra's own kind, which allows checking a Lie-kind table against the
    Leibniz identity (it must also pass).
    """
    kind = A.kind if kind is None else kind
    if kind not in KINDS:
        raise ValueError("unknown kind %r" % (kind,))
    violations = []

    for (left, right), el in A.brackets.items():
        want = A.parity(left) ^ A.parity(right)
        bad = {l: c for l, c in el.items() if A.parity(l) != want}
        if bad:
            violations.append(Violation("grading", (left, right), Element(bad)))

    basis = A.combined_basis
    par = A._parity
    br = A.basis_bracket

    if kind == LIE:
        for i, a in enumerate(basis):
            for b in basis[i:]:
                # [a,b] + (-1)^{|a||b|} [b,a] must vanish
                sign = -1 if (par[a] and par[b]) else 1
                residual = br(a, b) + br(b, a).scale(sign)
                if not residual.is_zero():
                    violations.append(Violation("skew", (a, b), residual))
        for x in basis:
            for y in basis:
                for z in basis:
                    s1 = -1 if (par[z] and par[x]) else 1
                    s2 = -1 if (par[x] and par[y]) else 1
                    s3 = -1 if (par[y] and par[z]) else 1
                    residual = (bracket(A, Element.basis(x), br(y, z)).scale(s1)
                                + bracket(A, Element.basis(y), br(z, x)).scale(s2)
                                + bracket(A, Element.basis(z), br(x, y)).scale(s3))
                    if not residual.is_zero():
                        violations.append(Violation("jacobi", (x, y, z), residual))
    else:
        for x in basis:
            for y in basis:
                for z in basis:
                    sign = -1 if (par[y] and par[z]) else 1
                    lhs = bracket(A, Element.basis(x), br(y, z))
                    rhs = (bracket(A, br(x, y), Element.basis(z))
                           + bracket(A, br(x, z), Element.basis(y)).scale(-sign))
                    residual = lhs - rhs
                    if not residual.is_zero():
                        violations.append(Violation("leibniz", (x, y, z), residual))
    return ValidationReport(kind, violations)


def multiplication_matrix(A, x, side):
    """Matrix of y -> [x,y] (side "left") or y -> [y,x] (side "right").

    Columns follow the combined basis order (even labels first).  x must be
    homogeneous; the zero element is allowed and gives the zero matrix.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    x = A.as_element(x)
    A.element_parity(x)
    columns = []
    for b in A.combined_basis:
        eb = Element.basis(b)
        w = bracket(A, x, eb) if side == "left" else bracket(A, eb, x)
        columns.append(A.coords(w))
    return Matrix.from_columns(columns, A.dim)


def change_of_basis(A, mapping):
    """Rewrite A in a new basis.

    `mapping` sends each new basis label to its expression as an Element
    over A's basis; images must be homogeneous and jointly invertible.  The
    new label inherits the parity of its image, the law becomes
    P^{-1}[P(u), P(v)], and the kind is unchanged.
    """
    from .linalg import invert

    images = {}
    new_even = []
    new_odd = []
    for label, el in mapping.items():
        el = A.as_element(el if isinstance(el, Element) else Element(el))
        p = A.element_parity(el)
        if p is None:
            raise ValueError("image of %r is zero" % (label,))
        images[label] = el
        (new_even if p == EVEN else new_odd).append(label)
    if len(images) != A.dim:
        raise ValueError("the map must cover the full dimension (%d labels for dim %d)"
                         % (len(images), A.dim))
    new_combined = tuple(new_even) + tuple(new_odd)
    if len(set(new_combined)) != len(new_combined):
        raise ValueError("duplicate labels in the map")

    P = Matrix.from_columns([A.coords(images[l]) for l in new_combined], A.dim)
    try:
        Pinv = invert(P)
    except ValueError:
        raise ValueError("the change-of-basis map is singular") from None

    table = {}
    for u in new_combined:
        for v in new_combined:
            w = bracket(A, images[u], images[v])
            if w.is_zero():
                continue
            coeffs = Pinv.apply(A.coords(w))
            el = Element({l: c for l, c in zip(new_combined, coeffs)})
            if not el.is_zero():
                table[(u, v)] = el
    return SuperAlgebra(A.kind, new_even, new_odd, table, name=A.name)


def equal_laws(A, B):
    """Entrywise comparison of two bracket tables over the same basis."""
    if A.kind != B.kind:
        raise ValueError("kind mismatch")
    if A.even_basis != B.even_basis or A.odd_basis != B.odd_basis:
        raise ValueError("basis mismatch")
    keys = set(A.brackets) | set(B.brackets)
    return all(A.basis_bracket(*k) == B.basis_bracket(*k) for k in keys)
