"""The examples of README.md, run as written.

The command line tour runs in order in a temporary directory, and every
output the README shows must be printed exactly.  The "Library use" and
"Verification fixtures" code blocks are executed, and each printed line is
compared with the value its comment states.
"""

import ast
import contextlib
import io
import json
import os
import re
import shlex

from superalg.cli import main
from superalg.linalg import dense_rows

from naive_torus import lie_torus_spec

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "README.md")


def _section(heading):
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    start = text.index("\n## %s\n" % heading)
    end = text.find("\n## ", start + 1)
    return text[start:end if end != -1 else len(text)]


def _code_blocks(section, lang=""):
    return re.findall(r"^```%s\n(.*?)^```" % lang, section, re.M | re.S)


def _tour():
    """(argv, shown output lines) for each `$ superalg ...` line, in order."""
    steps = []
    for block in _code_blocks(_section("Command line tour")):
        for line in block.splitlines():
            if line.startswith("$ "):
                argv = shlex.split(line[2:])
                assert argv[0] == "superalg", line
                steps.append((argv[1:], []))
            else:
                steps[-1][1].append(line)
    return steps


def _write_tour_inputs(directory):
    """actions.json: the left actions of SL^{3,2}'s torus on L^{3,2};
    map.json: each label of the extension to itself."""
    spec = lie_torus_spec("SL", (3,), (2,))
    n = spec.nilradical.dim
    actions = {t: {"left": [[str(v) for v in row]
                            for row in dense_rows(spec.action_rows[t][0], n)]}
               for t in spec.torus_labels}
    with open(os.path.join(directory, "actions.json"), "w") as fh:
        json.dump({"torus_labels": list(spec.torus_labels), "actions": actions}, fh)
    nil = spec.nilradical
    labels = nil.even_basis + spec.torus_labels + nil.odd_basis
    with open(os.path.join(directory, "map.json"), "w") as fh:
        json.dump({"map": {l: {l: "1"} for l in labels}}, fh)


def test_command_line_tour(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SUPERALG_MAX_DIM", raising=False)
    _write_tour_inputs(str(tmp_path))
    steps = _tour()
    assert len(steps) == 12
    shown = 0
    for argv, lines in steps:
        assert main(argv) == 0, argv
        out = capsys.readouterr().out
        if lines:
            assert out == "".join(l + "\n" for l in lines), argv
            shown += 1
    assert shown == 6


def _run_block(code):
    """Execute a README block; return its printed lines and the comments of
    its print calls, in order."""
    comments = [line.split("#", 1)[1].strip()
                for line in code.splitlines() if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    return out.getvalue().splitlines(), comments


def test_library_use_block():
    (code,) = _code_blocks(_section("Library use"), "python")
    printed, comments = _run_block(code)
    assert comments == ["nilpotent, s-nilindex (3, 3)", "((3, 1), (3,))", "7 3", "True"]
    classified = ast.literal_eval(printed[0])
    assert classified["is_nilpotent"] and classified["s_nilindex"] == (3, 3)
    assert printed[1:] == comments[1:]


def test_verification_fixtures_block():
    (code,) = _code_blocks(_section("Verification fixtures"), "python")
    printed, comments = _run_block(code)
    assert comments == ["SLP^{4,3} True"]
    assert printed == comments
