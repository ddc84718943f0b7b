"""Command line front end.

One subcommand per library operation; all output goes to stdout in text
(default) or JSON form.  Exit codes: 0 when the command succeeds (and,
for checking commands, the verdict is positive), 1 when a check fails
(identity violations, unequal laws, a failed verification fixture), 2 on
usage, parse, or validation errors.  The environment variable
SUPERALG_MAX_DIM (default 64) caps the dimension of accepted algebras.
"""

import argparse
import functools
import os
import re
import sys
from types import SimpleNamespace

from . import fixtures
from .core import EVEN, ODD, Element, change_of_basis, equal_laws, validate
from .derivations import derivation_space, innerness_report
from .extension import IdentityViolation, semidirect_extension
from .families import FAMILIES, member, member_dim
from .fileformat import (ParseError, ValidationError, _parse_coeff, dump_algebra, dumps,
                         load_algebra, load_basis_map, load_extension_spec)
from .invariants import (DERIVED, DESCENDING_CENTRAL, GRADED_EVEN, GRADED_ODD,
                         characteristic_sequence, classify, right_annihilator,
                         series)
from .linalg import NotNilpotent, _monic


def _max_dim():
    raw = os.environ.get("SUPERALG_MAX_DIM", "64")
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError("SUPERALG_MAX_DIM must be an integer, got %r" % (raw,)) from None
    if cap < 1:
        raise ValueError("SUPERALG_MAX_DIM must be positive, got %d" % cap)
    return cap


def _check_cap(dim):
    cap = _max_dim()
    if dim > cap:
        raise ValueError("dimension %d exceeds SUPERALG_MAX_DIM=%d" % (dim, cap))


def _load(path, skip_validate=False):
    A = load_algebra(path, skip_validate=True)  # an over-cap law is refused unvalidated
    _check_cap(A.dim)
    if not skip_validate:
        report = validate(A)
        if not report.ok:
            raise ValidationError(report)
    return A


def _emit(args, obj, lines):
    if args.format == "json":
        print(dumps(obj))
    else:
        for line in lines:
            print(line)


def _in_basis_order(A, el):
    """el with its labels in basis order, as it is printed."""
    return Element(sorted(el.items(), key=lambda t: A.index(t[0])))


def _element_obj(A, el):
    return {l: str(c) for l, c in _in_basis_order(A, el).items()}


def _row_strs(row, n):  # a canonical integer row, monic, as the writer's sparse row
    return SimpleNamespace(n=n, pairs=[(j, str(v)) for j, v in (
        row if row[0][1] == 1 else _monic(row))])


def _rendered(S):  # the canonical basis, monic, as printed Elements
    basis = S.algebra.combined_basis
    return ", ".join(repr(Element((basis[j], v) for j, v in _monic(r))) for r in S.rows) or "0"


def _subspace_obj(S):
    return {"dim": S.dim, "basis": [_row_strs(r, S.algebra.dim) for r in S.rows]}


def _derivation_obj(D):  # the matrix of D as n sparse rows, read off its entries
    n, pairs = D.dim, [[] for _ in range(D.dim)]
    for t, v in D.entries:
        pairs[t // n].append((t % n, str(v)))
    return [SimpleNamespace(n=n, pairs=p) for p in pairs]


_TERM_RE = re.compile(r"\s*(?:([+-])\s*)?(?:([0-9]+(?:/[0-9]+)?)\s*\*?\s*)?"
                      r"([A-Za-z][A-Za-z0-9]*)\s*")


def parse_element_expression(A, text):
    """Parse expressions like "x1 + 2*x3 - 1/2 y2" over A's basis."""
    pos = 0
    pairs = []
    first = True
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if not m or m.end() == pos:
            raise ValueError("cannot parse element expression %r at offset %d"
                             % (text, pos))
        sign, coeff, label = m.groups()
        if sign is None and not first:
            raise ValueError("missing sign before %r in %r" % (label, text))
        try:
            A.parity(label)
        except ValueError:
            raise ValueError("unknown basis label %r in %r" % (label, text)) from None
        c = _parse_coeff(coeff or "1")
        if sign == "-":
            c = -c
        pairs.append((label, c))
        pos = m.end()
        first = False
    if first:
        raise ValueError("empty element expression")
    return Element(pairs)


def cmd_gen(args):
    if not args.even or not args.odd:
        raise ValueError("gen needs at least one --even and one --odd value")
    # refuse an over-cap member before any work
    _check_cap(member_dim(args.family, args.even, args.odd))
    dump_algebra(member(args.family, args.even, args.odd), args.output or sys.stdout)
    return 0


def cmd_check(args):
    A = _load(args.file, skip_validate=True)
    report = validate(A)
    obj = {
        "ok": report.ok,
        "kind": report.kind,
        "violations": [{"identity": v.identity,
                        "labels": list(v.labels),
                        "residual": _element_obj(A, v.residual)}
                       for v in report.violations],
    }
    lines = []
    if report.ok:
        lines.append("identities: ok (%s, dim %d)" % (report.kind, A.dim))
    else:
        lines.append("identities: %d violations (%s)"
                     % (len(report.violations), report.kind))
        for v in report.violations:
            lines.append("  %s on (%s): residual %s"
                         % (v.identity, ", ".join(v.labels),
                            _in_basis_order(A, v.residual)))
    _emit(args, obj, lines)
    return 0 if report.ok else 1


_SERIES_NAMES = {
    "lcs": DESCENDING_CENTRAL,
    "derived": DERIVED,
    "graded-even": GRADED_EVEN,
    "graded-odd": GRADED_ODD,
}


def cmd_series(args):
    A = _load(args.file, skip_validate=args.skip_validate)
    chain = series(A, _SERIES_NAMES[args.which])
    obj = {
        "which": args.which,
        "dims": [S.dim for S in chain],
        "terms": [[_row_strs(r, A.dim) for r in S.rows] for S in chain],
    }
    lines = ["%s series of %s" % (args.which, A.name or "the algebra")]
    if args.format != "json":  # the bases are rendered only by the text form
        for k, S in enumerate(chain):
            lines.append("  step %d: dim %d; basis: %s" % (k, S.dim, _rendered(S)))
    lines.append("dims: (%s)" % ", ".join(str(S.dim) for S in chain))
    _emit(args, obj, lines)
    return 0


def cmd_classify(args):
    A = _load(args.file, skip_validate=args.skip_validate)
    res = classify(A)
    obj = {
        "is_nilpotent": res["is_nilpotent"],
        "is_solvable": res["is_solvable"],
        "s_nilindex": list(res["s_nilindex"]) if res["s_nilindex"] else None,
    }
    lines = [
        "nilpotent: %s" % ("yes" if res["is_nilpotent"] else "no"),
        "solvable: %s" % ("yes" if res["is_solvable"] else "no"),
        "s-nilindex: %s" % ("(%d, %d)" % res["s_nilindex"]
                            if res["s_nilindex"] else "n/a"),
    ]
    _emit(args, obj, lines)
    return 0


def cmd_charseq(args):
    A = _load(args.file, skip_validate=args.skip_validate)
    candidates = None
    if args.candidate:
        candidates = [parse_element_expression(A, c) for c in args.candidate]
    seq = characteristic_sequence(A, candidates)
    obj = {
        "even": list(seq.even_part),
        "odd": list(seq.odd_part),
        "witness": _element_obj(A, seq.witness) if seq.witness else None,
        "witness_even": _element_obj(A, seq.witness_even) if seq.witness_even else None,
        "witness_odd": _element_obj(A, seq.witness_odd) if seq.witness_odd else None,
        "lower_bound": seq.lower_bound,
    }
    lines = ["characteristic sequence: (%s | %s)"
             % (", ".join(map(str, seq.even_part)),
                ", ".join(map(str, seq.odd_part)))]
    if seq.witness is not None:
        lines.append("witness: %s" % _in_basis_order(A, seq.witness))
    else:
        lines.append("witness: none (even part by %s, odd part by %s)"
                     % (_in_basis_order(A, seq.witness_even),
                        _in_basis_order(A, seq.witness_odd)))
    lines.append("lower bound only: %s" % ("yes" if seq.lower_bound else "no"))
    _emit(args, obj, lines)
    return 0


def cmd_ann(args):
    A = _load(args.file, skip_validate=args.skip_validate)
    S = right_annihilator(A)
    lines = []
    if args.format != "json":  # the basis is rendered only by the text form
        lines = ["right annihilator: dim %d" % S.dim, "basis: %s" % _rendered(S)]
    _emit(args, _subspace_obj(S), lines)
    return 0


def _derivation_lines(A, D):
    # D(e_j) collects the entries (k*n + j, value) of column j, k ascending
    n, basis = D.dim, A.combined_basis
    images = {}
    for t, v in D.entries:
        images.setdefault(t % n, []).append((basis[t // n], v))
    return "; ".join("%s -> %s" % (basis[j], Element(images[j]))
                     for j in sorted(images)) or "0"


def cmd_der(args):
    A = _load(args.file, skip_validate=args.skip_validate)
    parities = {"even": (EVEN,), "odd": (ODD,), "both": (EVEN, ODD)}[args.parity]
    obj = {}
    lines = []
    for parity in parities:
        tag = "even" if parity == EVEN else "odd"
        space = derivation_space(A, parity)
        obj[tag] = {"dim": len(space),
                    "basis": [_derivation_obj(D) for D in space]}
        lines.append("dim Der_%s: %d" % (tag, len(space)))
        if args.format != "json":  # the images are read only by the text form
            for idx, D in enumerate(space, 1):
                lines.append("  D%d: %s" % (idx, _derivation_lines(A, D)))
    _emit(args, obj, lines)
    return 0


def cmd_inner(args):
    A = _load(args.file, skip_validate=args.skip_validate)
    rep = innerness_report(A)
    obj = {k: rep[k] for k in ("dim_der_even", "dim_der_odd", "dim_inner_even",
                               "dim_inner_odd", "outer_even", "outer_odd",
                               "all_inner")}
    obj["expressions"] = {
        tag: [None if e is None else [str(c) for c in e] for e in rep["expressions"][tag]]
        for tag in ("even", "odd")}
    lines = []
    for tag in ("even", "odd"):
        lines.append("dim Der_%s: %d, inner: %d, outer: %d"
                     % (tag, rep["dim_der_%s" % tag], rep["dim_inner_%s" % tag],
                        rep["outer_%s" % tag]))
    lines.append("all inner: %s" % ("yes" if rep["all_inner"] else "no"))
    _emit(args, obj, lines)
    return 0


def cmd_extend(args):
    nil = _load(args.nilradical)
    spec = load_extension_spec(nil, args.actions)
    _check_cap(nil.dim + len(spec.torus_labels))
    try:
        extended = semidirect_extension(spec)
    except IdentityViolation as exc:
        report = exc.report
        obj = {"ok": False,
               "violations": [{"identity": v.identity, "labels": list(v.labels)}
                              for v in report.violations]}
        lines = ["extension fails the %s identity on %d triples"
                 % (report.kind, len(report.violations))]
        for v in report.violations[:10]:
            lines.append("  %s on (%s)" % (v.identity, ", ".join(v.labels)))
        _emit(args, obj, lines)
        return 1
    if args.output:
        dump_algebra(extended, args.output)
        _emit(args, {"ok": True, "dim": extended.dim, "output": args.output},
              ["extension ok: dim %d, written to %s" % (extended.dim, args.output)])
    else:
        dump_algebra(extended, sys.stdout)
    return 0


def cmd_iso(args):
    A = _load(args.file_a, skip_validate=args.skip_validate)
    B = _load(args.file_b, skip_validate=args.skip_validate)
    mapping = load_basis_map(args.map)
    if set(mapping) == set(B.combined_basis):  # the file's key order does not matter
        mapping = {l: mapping[l] for l in B.combined_basis}
    same = equal_laws(change_of_basis(A, mapping), B)
    obj = {"equal_laws": same}
    lines = ["laws equal: %s" % ("yes" if same else "no")]
    _emit(args, obj, lines)
    return 0 if same else 1


def cmd_verify(args):
    default_even, default_odd = fixtures.default_sizes(args.theorem)
    even, odd = args.even or default_even, args.odd or default_odd
    _check_cap(member_dim(fixtures.THEOREMS[args.theorem][1], even, odd))
    instance, checks = fixtures.verify(args.theorem, even, odd)
    ok = all(c[1] for c in checks)
    obj = {
        "theorem": args.theorem,
        "instance": instance.name,
        "ok": ok,
        "checks": [{"name": n, "ok": o, "detail": d} for n, o, d in checks],
    }
    lines = ["theorem %s on %s" % (args.theorem, instance.name)]
    for name, good, detail in checks:
        suffix = "" if good or not detail else " (%s)" % detail
        lines.append("  %s: %s%s" % (name, "pass" if good else "FAIL", suffix))
    lines.append("result: %s" % ("pass" if ok else "FAIL"))
    _emit(args, obj, lines)
    return 0 if ok else 1


@functools.cache
def _build_parser():
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("json", "text"), default="text")
    skip = argparse.ArgumentParser(add_help=False)
    skip.add_argument("--skip-validate", action="store_true")

    parser = argparse.ArgumentParser(
        prog="superalg",
        description="Exact computations with graded Lie and Leibniz algebra "
                    "presentations.")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", parents=[fmt], help="construct a family member")
    g.add_argument("--family", required=True, choices=FAMILIES)
    g.add_argument("--even", action="append", type=int)
    g.add_argument("--odd", action="append", type=int)
    g.add_argument("-o", "--output")
    g.set_defaults(func=cmd_gen)

    c = sub.add_parser("check", parents=[fmt], help="validate the identities")
    c.add_argument("file")
    c.set_defaults(func=cmd_check)

    s = sub.add_parser("series", parents=[fmt, skip], help="subspace chains")
    s.add_argument("file")
    s.add_argument("--which", required=True, choices=sorted(_SERIES_NAMES))
    s.set_defaults(func=cmd_series)

    cl = sub.add_parser("classify", parents=[fmt, skip],
                        help="nilpotency, solvability, s-nilindex")
    cl.add_argument("file")
    cl.set_defaults(func=cmd_classify)

    ch = sub.add_parser("charseq", parents=[fmt, skip],
                        help="characteristic sequence")
    ch.add_argument("file")
    ch.add_argument("--candidate", action="append")
    ch.set_defaults(func=cmd_charseq)

    an = sub.add_parser("ann", parents=[fmt, skip], help="right annihilator")
    an.add_argument("file")
    an.set_defaults(func=cmd_ann)

    d = sub.add_parser("der", parents=[fmt, skip],
                       help="superderivation spaces")
    d.add_argument("file")
    d.add_argument("--parity", choices=("even", "odd", "both"), default="both")
    d.set_defaults(func=cmd_der)

    inn = sub.add_parser("inner", parents=[fmt, skip], help="innerness report")
    inn.add_argument("file")
    inn.set_defaults(func=cmd_inner)

    e = sub.add_parser("extend", parents=[fmt],
                       help="extend a nilpotent algebra by torus actions")
    e.add_argument("nilradical")
    e.add_argument("actions")
    e.add_argument("-o", "--output")
    e.set_defaults(func=cmd_extend)

    i = sub.add_parser("iso", parents=[fmt, skip],
                       help="replay a change of basis and compare laws")
    i.add_argument("file_a")
    i.add_argument("file_b")
    i.add_argument("map")
    i.set_defaults(func=cmd_iso)

    v = sub.add_parser("verify", parents=[fmt],
                       help="run a verification fixture")
    v.add_argument("--theorem", required=True, choices=sorted(fixtures.THEOREMS))
    v.add_argument("--even", action="append", type=int)
    v.add_argument("--odd", action="append", type=int)
    v.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except ValidationError as exc:
        print("error: %s" % (exc,), file=sys.stderr)
        for v in exc.report.violations[:5]:
            print("  %s on (%s)" % (v.identity, ", ".join(v.labels)),
                  file=sys.stderr)
        return 2
    except (ParseError, NotNilpotent, ValueError, OSError) as exc:
        print("error: %s" % (exc,), file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
