"""The shared indented JSON writer against json.dumps(obj, indent=2).

fileformat.dumps must give the standard library's bytes on every object a
CLI command emits (recorded by wrapping the writer while each command
runs), on every algebra file `gen` and `extend` write, and on edge cases:
empty and nested-empty containers, non-ASCII labels, quotes and
backslashes, the JSON literals, negative and large numbers, non-string
keys, tuples and the leaf boundaries the writer rewrites.  A sparse row,
SimpleNamespace(n=..., pairs=[(column, str), ...]), must give the bytes
of its dense list of strings, which json.dumps writes through `default`.
"""

import importlib
import json
import os
import random
from collections import OrderedDict
from fractions import Fraction
from types import SimpleNamespace

import pytest

import superalg
from naive_gauss import naive_rref
from superalg import cli, fileformat
from superalg.cli import main
from superalg.core import change_of_basis
from superalg.families import member
from superalg.fileformat import dump_algebra, dumps, emit_algebra, load_algebra
from superalg.invariants import right_annihilator, series


def dense(row):
    """The dense list of strings a sparse row stands for: json.dumps's default."""
    if type(row) is not SimpleNamespace:
        raise TypeError(row)
    out = ["0"] * row.n
    for j, s in row.pairs:
        out[j] = s
    return out

EDGE_CASES = [
    {}, [], (), "", 0, -7, 10 ** 30, 1.5, -0.0, True, False, None, "plain",
    {"a": []}, {"a": {}}, [[]], [{}], [[], {}], [[[]]], {"a": [[], [{}]]},
    [[1], [], [2]], [{"a": 1}, {}], [[1], {"b": 2}], [{"a": 1}, {"b": [2]}],
    ["é", "ü", "ключ", "☃", "\ud800"], {"ключ": ["значение"], "é": {"ü": None}},
    ['q"uote', "back\\slash", "new\nline", "tab\t", "\x00"],
    [True, False, None, -3, 0, 2.25, float("inf"), float("nan")],
    [["]", "}"], {"a]": "[", "}": "{"}, ["],\n    [", "x"]],
    [['a"]', "b"], ['"c"']], [["-1/2", "0"], ["3", "-4/5"]],
    {1: [2], "x": {None: 1, True: [3], 2.5: "y"}},
    (1, 2, (3, (4,))), [(1, 2), (3,)], {"t": (("a", 1), ("b", -2))},
    [OrderedDict(a=1)], {"a": OrderedDict(b=[1, {}])},
    [1, "x", [2], {"y": [3, {"z": ()}]}],
    {"dims": [3, 2, 0], "terms": [[["1", "0"], ["0", "1"]], [["1", "-1/2"]], []]},
]


@pytest.mark.parametrize("obj", EDGE_CASES, ids=range(len(EDGE_CASES)))
def test_edge_cases_match_the_standard_library(obj):
    assert dumps(obj) == json.dumps(obj, indent=2)


VALUES = ("1", "-3", "-1/2", str(-10 ** 29 - 7))


def sparse_rows(n):
    """Sparse rows of length n: no nonzero, the first column, the last, every
    column, and a few seeded columns, over VALUES."""
    rng = random.Random(n)
    columns = [[], [0], [n - 1], list(range(n)), sorted(rng.sample(range(n), min(n, 3)))]
    return [SimpleNamespace(n=n, pairs=[(j, rng.choice(VALUES)) for j in cols])
            for cols in (columns if n else [[]])]


@pytest.mark.parametrize("n", (0, 1, 2, 42, 64))
def test_sparse_rows_match_their_dense_lists(n):
    rows = sparse_rows(n)
    wider = sparse_rows(n + 1)
    nests = [
        lambda r: r,  # a row, or a list of rows, at the top level
        lambda r: {"dim": 3, "basis": r},  # ann
        lambda r: {"which": "lcs", "dims": [2, 0], "terms": [r, [], r]},  # series
        lambda r: {"even": {"dim": 2, "basis": [r, r]}, "odd": {"dim": 0, "basis": []}},  # der
    ]
    for nest in nests:
        for obj in [rows[0], rows, rows + wider, rows[::-1]]:
            obj = nest(obj)
            assert dumps(obj) == json.dumps(obj, indent=2, default=dense), (n, obj)
    # next to other leaves and containers in the same list
    mixed = [rows[-1], ["1", "0"], rows[0], {}, "x", None, [rows[-1]], [], 7, wider[-1]]
    for obj in (mixed, {"a": mixed}, [[mixed]]):
        assert dumps(obj) == json.dumps(obj, indent=2, default=dense)


def dense_basis_law(monkeypatch):
    """L^{6,5} after the benchmark's seeded integral unitriangular change of basis."""
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "bench"))
    change = importlib.import_module("workloads").change_of_basis_map
    A = member("L", (6,), (5,))
    return change_of_basis(A, change(superalg, A, random.Random(1)))


def _gen(tmp_path, name, argv):
    path = str(tmp_path / name)
    assert main(["gen"] + argv + ["-o", path]) == 0
    return path


def test_every_command_emits_the_standard_bytes(tmp_path, monkeypatch, capsys):
    emitted = []

    def recording(obj):
        emitted.append(obj)
        text = dumps(obj)
        assert text == json.dumps(obj, indent=2, default=dense)
        return text

    # the CLI reports and the algebra files (gen, extend) share the writer
    monkeypatch.setattr(cli, "dumps", recording)
    monkeypatch.setattr(fileformat, "dumps", recording)
    sl = _gen(tmp_path, "sl.json", ["--family", "SL", "--even", "4", "--odd", "3"])
    l = _gen(tmp_path, "l.json", ["--family", "L", "--even", "4", "--odd", "3"])
    np_ = _gen(tmp_path, "np.json", ["--family", "NP", "--even", "2", "--even", "1",
                                     "--odd", "2"])
    bad = tmp_path / "bad.json"
    data = json.loads(open(l).read())
    data["brackets"].append({"left": "x2", "right": "x3", "result": [{"basis": "y1",
                                                                     "coeff": "1/2"}]})
    bad.write_text(json.dumps(data))
    n = load_algebra(l).dim
    actions = tmp_path / "act.json"
    actions.write_text(json.dumps({"torus_labels": ["t"], "actions": {"t": {"left": [
        [i + 1 if i == j else 0 for j in range(n)] for i in range(n)]}}}))
    ident = tmp_path / "map.json"
    ident.write_text(json.dumps({"map": {x: {x: 1} for x in load_algebra(sl).combined_basis}}))
    runs = [["check", sl], ["check", str(bad)], ["classify", l], ["classify", sl],
            ["charseq", l], ["charseq", np_], ["charseq", l, "--candidate", "x1 + 1/2 x2"],
            ["ann", l], ["ann", np_], ["der", sl], ["der", np_, "--parity", "odd"],
            ["inner", sl], ["inner", l], ["extend", l, str(actions)],
            ["extend", l, str(actions), "-o", str(tmp_path / "ext.json")],
            ["iso", sl, sl, str(ident)], ["verify", "--theorem", "3.1"],
            ["verify", "--theorem", "6.1"],
            ["gen", "--family", "SNP", "--even", "2", "--odd", "2"]]
    kinds = ("lcs", "derived", "graded-even", "graded-odd")
    runs += [["series", l, "--which", w] for w in kinds]
    # in a dense basis many canonical rows lead with something other than 1
    lead = str(tmp_path / "dense.json")
    dump_algebra(dense_basis_law(monkeypatch), lead)
    runs += [["series", lead, "--which", w] for w in kinds]
    runs += [["ann", lead], ["der", lead, "--parity", "both"]]
    for argv in runs:
        capsys.readouterr()
        emitted.clear()
        main(argv + ["--format", "json"])
        out = capsys.readouterr().out
        # one object per command; extend -o writes the file, then the report
        assert len(emitted) == (2 if "-o" in argv else 1), argv
        assert out == json.dumps(emitted[-1], indent=2, default=dense) + "\n", argv
    for path in (sl, l, np_, str(tmp_path / "ext.json")):
        text = open(path).read()
        assert text == json.dumps(emit_algebra(load_algebra(path)), indent=2) + "\n"


def test_rows_that_do_not_lead_with_1_are_printed_monic(tmp_path, monkeypatch, capsys):
    """The series and ann JSON of the dense-basis law, read back as
    Fractions, are the monic reduced rows naive_rref gives for the
    canonical rows; some of those rows lead with other than 1."""
    A = dense_basis_law(monkeypatch)
    path = str(tmp_path / "dense.json")
    dump_algebra(A, path)

    def expected(S):
        rows = [[Fraction(0)] * A.dim for _ in S.rows]
        for row, dense_row in zip(S.rows, rows):
            for j, v in row:
                dense_row[j] = Fraction(v)
        return [list(r) for r in naive_rref(rows)[0]] if rows else []

    def printed(basis):
        return [[Fraction(c) for c in row] for row in basis]

    leads = []
    for which, kind in cli._SERIES_NAMES.items():
        chain = series(A, kind)
        capsys.readouterr()
        assert main(["series", path, "--which", which, "--format", "json"]) == 0
        terms = json.loads(capsys.readouterr().out)["terms"]
        assert [printed(t) for t in terms] == [expected(S) for S in chain], which
        leads += [r[0][1] for S in chain for r in S.rows]
    S = right_annihilator(A)
    assert main(["ann", path, "--format", "json"]) == 0
    assert printed(json.loads(capsys.readouterr().out)["basis"]) == expected(S)
    leads += [r[0][1] for r in S.rows]
    assert any(lead != 1 for lead in leads) and any(lead == 1 for lead in leads)
