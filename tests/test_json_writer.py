"""The shared indented JSON writer against json.dumps(obj, indent=2).

fileformat.dumps must give the standard library's bytes on every object a
CLI command emits (recorded by wrapping the writer while each command
runs), on every algebra file `gen` and `extend` write, and on edge cases:
empty and nested-empty containers, non-ASCII labels, quotes and
backslashes, the JSON literals, negative and large numbers, non-string
keys, tuples and the leaf boundaries the writer rewrites.
"""

import json
from collections import OrderedDict

import pytest

from superalg import cli, fileformat
from superalg.cli import main
from superalg.fileformat import dumps, emit_algebra, load_algebra

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


def _gen(tmp_path, name, argv):
    path = str(tmp_path / name)
    assert main(["gen"] + argv + ["-o", path]) == 0
    return path


def test_every_command_emits_the_standard_bytes(tmp_path, monkeypatch, capsys):
    emitted = []

    def recording(obj):
        emitted.append(obj)
        text = dumps(obj)
        assert text == json.dumps(obj, indent=2)
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
    runs += [["series", l, "--which", w] for w in ("lcs", "derived", "graded-even",
                                                  "graded-odd")]
    for argv in runs:
        capsys.readouterr()
        emitted.clear()
        main(argv + ["--format", "json"])
        out = capsys.readouterr().out
        # one object per command; extend -o writes the file, then the report
        assert len(emitted) == (2 if "-o" in argv else 1), argv
        assert out == json.dumps(emitted[-1], indent=2) + "\n", argv
    for path in (sl, l, np_, str(tmp_path / "ext.json")):
        text = open(path).read()
        assert text == json.dumps(emit_algebra(load_algebra(path)), indent=2) + "\n"
