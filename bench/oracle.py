"""Check one op's answer against the closed forms of its rung.

`check(op, code, out)` returns None when the answer is right and a
one-line reason otherwise.  A wrong answer is counted, never raised.
"""

import json


def _der(op, obj):
    want = op.rung.der_dims()
    for tag, dim in zip(("even", "odd"), want):
        part = obj[tag]
        if part["dim"] != dim or len(part["basis"]) != dim:
            return "dim Der_%s: got %s with %d basis maps, want %d" % (
                tag, part["dim"], len(part["basis"]), dim)
        n = op.rung.dim
        for M in part["basis"]:
            if len(M) != n or any(len(row) != n for row in M):
                return "a Der_%s basis map is not %dx%d" % (tag, n, n)
    return None


def _inner(op, obj):
    want = op.rung.der_dims()
    for tag, dim in zip(("even", "odd"), want):
        exprs = obj["expressions"][tag]
        if obj["dim_der_%s" % tag] != dim or len(exprs) != dim:
            return "dim Der_%s: got %s, want %d" % (tag, obj["dim_der_%s" % tag], dim)
        if obj["outer_%s" % tag] != 0 or any(e is None for e in exprs):
            return "outer Der_%s: %s" % (tag, obj["outer_%s" % tag])
    if obj["all_inner"] is not True:
        return "all_inner is %r" % (obj["all_inner"],)
    return None


def _gen(op, _obj):
    with open(op.argv[op.argv.index("-o") + 1], encoding="utf-8") as fh:
        data = json.load(fh)
    got = len(data["even_basis"]), len(data["odd_basis"])
    if got != op.rung.dims:
        return "gen wrote dims %s, want %s" % (got, op.rung.dims)
    return None


def _check(op, obj):
    if obj["ok"] is not True or obj["violations"]:
        return "check: %d violations" % len(obj["violations"])
    return None


def _classify(op, obj):
    want = [True, True, op.rung.s_nilindex()]
    got = [obj["is_nilpotent"], obj["is_solvable"], obj["s_nilindex"]]
    return None if got == want else "classify: got %s, want %s" % (got, want)


def _series(op, obj):
    want = op.rung.lcs_dims()
    return None if obj["dims"] == want else "lcs dims %s, want %s" % (obj["dims"], want)


def _charseq(op, obj):
    want = list(op.rung.charseq())
    got = [obj["even"], obj["odd"]]
    return None if got == want else "charseq %s, want %s" % (got, want)


def _ann(op, obj):
    want = op.rung.ann_dim()
    if obj["dim"] != want or len(obj["basis"]) != want:
        return "ann dim %s, want %d" % (obj["dim"], want)
    return None


def _verify(op, obj):
    if obj["ok"] is not True:
        bad = [c["name"] for c in obj["checks"] if not c["ok"]]
        return "verify %s failed: %s" % (obj["theorem"], "; ".join(bad))
    return None


CHECKS = {"der": _der, "inner": _inner, "gen": _gen, "check": _check,
          "classify": _classify, "series": _series, "charseq": _charseq,
          "ann": _ann, "verify": _verify}


def check(op, code, out):
    """None if exit code 0 and the answer matches; else the reason."""
    if code != 0:
        return "exit code %r" % (code,)
    try:
        obj = json.loads(out) if op.command != "gen" else None
        return CHECKS[op.command](op, obj)
    except (ValueError, KeyError, TypeError, IndexError, OSError) as exc:
        return "unreadable answer: %s: %s" % (type(exc).__name__, exc)
