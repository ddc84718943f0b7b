"""The JSON file formats: algebras, torus actions, basis maps.

An algebra is a single object

    {"name": ..., "kind": "lie_super" | "leibniz_super",
     "even_basis": [...], "odd_basis": [...],
     "brackets": [{"left": ..., "right": ...,
                   "result": [{"basis": ..., "coeff": ...}]}]}

with coefficients given as integers or rational strings like "-3/2".
Loading validates the defining identities unless told to skip; emitting
is deterministic so that files diff cleanly.

An actions file gives the torus of an extension,

    {"torus_labels": [...],
     "actions": {label: {"left": matrix, "right": matrix}},
     "torus_brackets": [bracket entries as above]}

and a basis map gives each new label's image over the old basis,

    {"map": {label: {old label: coeff}}}.
"""

import json
import re
from fractions import Fraction
from json.encoder import encode_basestring_ascii as quote

from .core import LIE, LEIBNIZ, Element, SuperAlgebra, validate
from .extension import ExtensionSpec


class ParseError(Exception):
    """The input is not a well-formed algebra file."""


class ValidationError(Exception):
    """The file parsed but its law fails the defining identities."""

    def __init__(self, report):
        self.report = report
        super().__init__("law violates the %s identities on %d triples"
                         % (report.kind, len(report.violations)))


_COEFF_RE = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _parse_coeff(value):
    """A coefficient as an int, or as a Fraction (reduced) for a p/q string."""
    if isinstance(value, bool):
        raise ParseError("coefficient %r is not a number" % (value,))
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        if not _COEFF_RE.fullmatch(value):
            raise ParseError("coefficient %r is not an integer or p/q string" % (value,))
        p, _, q = value.partition("/")
        try:
            return Fraction(int(p), int(q)) if q else int(p)
        except ZeroDivisionError:
            raise ParseError("coefficient %r has a zero denominator" % (value,))
    raise ParseError("coefficient %r is not an integer or p/q string" % (value,))


def _string_list(data, key):
    value = data.get(key)
    if not isinstance(value, list) or any(not isinstance(l, str) for l in value):
        raise ParseError("%r must be a list of labels" % (key,))
    return value


def _read_json(source):
    """Decode the JSON held by a path or an open stream."""
    if hasattr(source, "read"):
        text = source.read()
    else:
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError("not valid JSON: %s" % (exc,))


def _known_label(value, known):
    return isinstance(value, str) and value in known


def _parse_brackets(raw, key, known):
    """Bracket entries {"left", "right", "result"} over the labels in known,
    as (left, right) -> [(label, coefficient)] for the label constructor."""
    if not isinstance(raw, list):
        raise ParseError("%r must be a list" % (key,))
    table = {}
    for entry in raw:
        if not isinstance(entry, dict):
            raise ParseError("bracket entries must be objects")
        left, right = entry.get("left"), entry.get("right")
        if not (_known_label(left, known) and _known_label(right, known)):
            raise ParseError("bracket (%r, %r) uses an unknown label" % (left, right))
        if (left, right) in table:
            raise ParseError("duplicate bracket (%r, %r)" % (left, right))
        terms = entry.get("result")
        if not isinstance(terms, list):
            raise ParseError("bracket (%r, %r) needs a 'result' list" % (left, right))
        pairs = []
        for term in terms:
            if not isinstance(term, dict):
                raise ParseError("result terms must be objects")
            basis = term.get("basis")
            if not _known_label(basis, known):
                raise ParseError("result term uses an unknown label %r" % (basis,))
            pairs.append((basis, _parse_coeff(term.get("coeff"))))
        table[(left, right)] = pairs
    return table


def parse_algebra(data, skip_validate=False):
    """Build an algebra from an already-decoded JSON object."""
    if not isinstance(data, dict):
        raise ParseError("top level must be an object")
    kind = data.get("kind")
    if kind not in (LIE, LEIBNIZ):
        raise ParseError("kind must be %r or %r, got %r" % (LIE, LEIBNIZ, kind))
    even = _string_list(data, "even_basis")
    odd = _string_list(data, "odd_basis")
    labels = even + odd
    if len(set(labels)) != len(labels):
        raise ParseError("duplicate basis labels")
    table = _parse_brackets(data.get("brackets"), "brackets", set(labels))
    name = data.get("name", "")
    if not isinstance(name, str):
        raise ParseError("'name' must be a string")
    try:
        A = SuperAlgebra(kind, even, odd, table, name=name)
    except ValueError as exc:
        raise ParseError(str(exc))
    if not skip_validate:
        report = validate(A)
        if not report.ok:
            raise ValidationError(report)
    return A


def load_algebra(source, skip_validate=False):
    """Load an algebra from a path, an open stream, or a decoded dict."""
    if isinstance(source, dict):
        return parse_algebra(source, skip_validate)
    return parse_algebra(_read_json(source), skip_validate)


def _parse_action_matrix(raw, n, what):
    """A dense n x n matrix as its sparse rows, the zero entries left out."""
    if not (isinstance(raw, list) and len(raw) == n
            and all(isinstance(r, list) and len(r) == n for r in raw)):
        raise ParseError("%s must be a %dx%d matrix" % (what, n, n))
    return [[(j, c) for j, v in enumerate(row) if (c := _parse_coeff(v))] for row in raw]


def load_extension_spec(nil, source):
    """Read an actions file into an ExtensionSpec over the algebra nil."""
    data = _read_json(source)
    if not isinstance(data, dict):
        raise ParseError("top level must be an object")
    labels = _string_list(data, "torus_labels")
    raw_actions = data.get("actions")
    if not isinstance(raw_actions, dict):
        raise ParseError("'actions' must map torus labels to matrices")
    actions = {}
    for t in labels:
        entry = raw_actions.get(t)
        if not isinstance(entry, dict):
            raise ParseError("missing action for torus label %r" % (t,))
        left = _parse_action_matrix(entry.get("left"), nil.dim,
                                    "left action of %r" % (t,))
        right = entry.get("right")
        if right is not None:
            right = _parse_action_matrix(right, nil.dim,
                                         "right action of %r" % (t,))
        actions[t] = (left, right)
    torus_brackets = _parse_brackets(data.get("torus_brackets", []), "torus_brackets",
                                     set(nil.combined_basis) | set(labels))
    torus_brackets = {key: Element(pairs) for key, pairs in torus_brackets.items()}
    try:
        return ExtensionSpec(nil, labels, actions, torus_brackets)
    except ValueError as exc:
        raise ParseError(str(exc))


def load_basis_map(source):
    """Read a map file: each new basis label to an Element over the old basis."""
    data = _read_json(source)
    raw = data.get("map") if isinstance(data, dict) else None
    if not isinstance(raw, dict):
        raise ParseError("map file needs a 'map' object")
    mapping = {}
    for new_label, expr in raw.items():
        if not isinstance(expr, dict):
            raise ParseError("image of %r must map labels to coefficients"
                             % (new_label,))
        mapping[new_label] = Element(
            [(l, _parse_coeff(c)) for l, c in expr.items()])
    return mapping


def emit_algebra(A):
    """Deterministic JSON-ready dict for an algebra."""
    basis, (d, cells) = A.combined_basis, A.integer_law
    coeff = str if d == 1 else lambda c: str(Fraction(c, d))
    return {
        "name": A.name,
        "kind": A.kind,
        "even_basis": list(A.even_basis),
        "odd_basis": list(A.odd_basis),
        "brackets": [{"left": basis[i], "right": basis[j],
                      "result": [{"basis": basis[k], "coeff": coeff(c)}
                                 for k, c in sorted(cell.items())]}
                     for (i, j), cell in sorted(cells.items())],
    }


_SCALARS = {str, int, float, bool, type(None)}


def _leaf(obj):
    """Whether obj is a nonempty list or tuple of scalars."""
    return type(obj) in (list, tuple) and obj and set(map(type, obj)) <= _SCALARS


def dumps(obj):
    """json.dumps(obj, indent=2), byte for byte, mostly in C.

    Indented output takes the pure-Python encoder.  Here the C encoder,
    with item separator "," + the items' indentation, writes each leaf
    list (see _leaf), or a whole list of leaf lists at once, where "],"
    followed by that indentation and "[" can only join two leaves, so the
    lines around them go in by one replace.  Strings are quoted in C too.
    Indented JSON has no raw newline but the indentation, so the rest
    (other scalars, empty containers, non-string keys, other types) is
    left to json.dumps and re-indented.
    """
    encoders = {}

    def encode(obj, pad):
        if pad not in encoders:
            encoders[pad] = json.JSONEncoder(separators=("," + pad, ": ")).encode
        return encoders[pad](obj)

    def write(obj, nl):
        inner, kind = nl + "  ", type(obj)
        if kind is str:
            return quote(obj)
        if kind is dict and obj and set(map(type, obj)) == {str}:
            return "{" + inner + ("," + inner).join(
                [quote(k) + ": " + (quote(v) if type(v) is str else write(v, inner))
                 for k, v in obj.items()]) + nl + "}"
        if kind not in (list, tuple) or not obj:
            return json.dumps(obj, indent=2).replace("\n", nl)
        if _leaf(obj):
            return "[" + inner + encode(obj, inner)[1:-1] + nl + "]"
        if all(map(_leaf, obj)):
            deeper = inner + "  "
            text = encode(obj, deeper).replace("]," + deeper + "[", inner + "]," + inner + "[" + deeper)
            return "".join(("[", inner, "[", deeper, text[2:-2], inner, "]", nl, "]"))
        return "[" + inner + ("," + inner).join([write(v, inner) for v in obj]) + nl + "]"
    return write(obj, "\n")


def dump_algebra(A, target):
    """Write the algebra to a path or stream as indented JSON."""
    text = dumps(emit_algebra(A)) + "\n"
    if hasattr(target, "write"):
        target.write(text)
    else:
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(text)
