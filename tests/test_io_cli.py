import io
import json
import re
from fractions import Fraction

import pytest

from superalg import cli, families, fixtures
from superalg.cli import main, parse_element_expression
from superalg.core import EVEN, ODD, Element, bracket, change_of_basis, equal_laws
from superalg.derivations import SuperDerivation, derivation_space
from superalg.families import (filiform_leibniz, model_filiform_lie,
                               model_nilpotent_leibniz, model_nilpotent_lie)
from superalg.fileformat import (ParseError, ValidationError, dump_algebra,
                                 emit_algebra, load_algebra, parse_algebra)

from naive_identities import dense_map


ALL_FAMILIES = [
    model_filiform_lie(3, 2),
    model_filiform_lie(4, 3, solvable=True),
    model_nilpotent_lie((2, 2), (1, 2)),
    model_nilpotent_lie((2,), (2,), solvable=True),
    filiform_leibniz(3, 2),
    filiform_leibniz(4, 3, solvable=True),
    model_nilpotent_leibniz((2, 2), (1, 2)),
    model_nilpotent_leibniz((2,), (2,), solvable=True),
]


def _skew_contradiction():
    return {
        "kind": "lie_super",
        "even_basis": ["x1", "x2", "x3"],
        "odd_basis": [],
        "brackets": [
            {"left": "x1", "right": "x2",
             "result": [{"basis": "x3", "coeff": "1"}]},
            {"left": "x2", "right": "x1",
             "result": [{"basis": "x3", "coeff": "1"}]},
        ],
    }


def test_round_trip_every_family():
    for A in ALL_FAMILIES:
        B = parse_algebra(emit_algebra(A))
        assert equal_laws(A, B)
        assert B.kind == A.kind and B.name == A.name
        assert B.even_basis == A.even_basis and B.odd_basis == A.odd_basis


def test_emit_is_deterministic():
    A = model_nilpotent_lie((2, 2), (1, 2), solvable=True)
    first = json.dumps(emit_algebra(A), indent=2)
    second = json.dumps(emit_algebra(parse_algebra(emit_algebra(A))), indent=2)
    assert first == second


def test_hand_written_presentation_matches_family():
    data = {
        "kind": "lie_super",
        "even_basis": ["x1", "x2", "x3"],
        "odd_basis": ["y1", "y2"],
        "brackets": [
            {"left": "x1", "right": "x2",
             "result": [{"basis": "x3", "coeff": "1"}]},
            {"left": "x1", "right": "y1",
             "result": [{"basis": "y2", "coeff": "1"}]},
        ],
    }
    A = parse_algebra(data)
    assert equal_laws(A, model_filiform_lie(3, 2))


def test_fractional_coefficients_survive():
    data = _skew_contradiction()
    data["brackets"][0]["result"][0]["coeff"] = "-3/7"
    data["brackets"][1]["result"][0]["coeff"] = "3/7"
    A = parse_algebra(data)
    assert bracket(A, "x1", "x2") == Element({"x3": Fraction(-3, 7)})
    B = parse_algebra(emit_algebra(A))
    assert equal_laws(A, B)


def test_parse_rejects_bad_coefficients():
    data = _skew_contradiction()
    data["brackets"][1]["result"][0]["coeff"] = "-1"
    # "$" would let a final newline through, and "\d" an Arabic-Indic digit
    for bad in ("1/0", 0.5, True, "x", None, "1.5", "3\n", "1/2\n", "\u0663"):
        data["brackets"][0]["result"][0]["coeff"] = bad
        with pytest.raises(ParseError):
            parse_algebra(data)


def test_parse_rejects_malformed_structure():
    good = _skew_contradiction()
    good["brackets"][1]["result"][0]["coeff"] = "-1"

    bad = dict(good, kind="associative")
    with pytest.raises(ParseError):
        parse_algebra(bad)
    bad = dict(good, even_basis=["x1", "x1", "x3"])
    with pytest.raises(ParseError):
        parse_algebra(bad)
    bad = dict(good, odd_basis="y1")
    with pytest.raises(ParseError):
        parse_algebra(bad)
    bad = dict(good, brackets=good["brackets"] + [
        {"left": "x1", "right": "x9", "result": []}])
    with pytest.raises(ParseError):
        parse_algebra(bad)
    bad = dict(good, brackets=good["brackets"] + [
        {"left": "x1", "right": "x2", "result": []}])
    with pytest.raises(ParseError):
        parse_algebra(bad)
    bad = dict(good, brackets=good["brackets"] + [
        {"left": ["x1"], "right": "x2", "result": []}])
    with pytest.raises(ParseError):
        parse_algebra(bad)
    bad = dict(good, brackets=good["brackets"] + [
        {"left": "x2", "right": "x3",
         "result": [{"basis": {"x1": 1}, "coeff": "1"}]}])
    with pytest.raises(ParseError):
        parse_algebra(bad)
    bad = dict(good, name=7)
    with pytest.raises(ParseError):
        parse_algebra(bad)
    with pytest.raises(ParseError):
        parse_algebra(["not", "an", "object"])


def test_validation_gate_on_load():
    with pytest.raises(ValidationError) as err:
        parse_algebra(_skew_contradiction())
    assert err.value.report.violations
    A = parse_algebra(_skew_contradiction(), skip_validate=True)
    assert A.dim == 3


def test_load_sources_and_dump(tmp_path):
    A = filiform_leibniz(3, 2, solvable=True)
    path = tmp_path / "alg.json"
    dump_algebra(A, str(path))
    assert equal_laws(load_algebra(str(path)), A)
    with open(path, "r", encoding="utf-8") as fh:
        assert equal_laws(load_algebra(fh), A)
    assert equal_laws(load_algebra(json.loads(path.read_text())), A)

    buf = io.StringIO()
    dump_algebra(A, buf)
    reloaded = load_algebra(json.loads(buf.getvalue()))
    assert equal_laws(reloaded, A)

    other = tmp_path / "again.json"
    dump_algebra(A, str(other))
    assert path.read_bytes() == other.read_bytes()


def test_load_rejects_non_json(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        load_algebra(str(path))


# -- CLI ---------------------------------------------------------------


def _gen(tmp_path, name, argv_tail):
    path = tmp_path / name
    rc = main(["gen"] + argv_tail + ["-o", str(path)])
    assert rc == 0
    return str(path)


def test_gen_check_classify_pipeline(tmp_path, capsys):
    path = _gen(tmp_path, "sl.json", ["--family", "SL", "--even", "3", "--odd", "2"])
    assert main(["check", path]) == 0
    out = capsys.readouterr().out
    assert "identities: ok" in out and "dim 8" in out

    assert main(["classify", path]) == 0
    out = capsys.readouterr().out
    assert "nilpotent: no" in out
    assert "solvable: yes" in out
    assert "s-nilindex: n/a" in out


def test_classify_nilpotent_json(tmp_path, capsys):
    path = _gen(tmp_path, "l.json", ["--family", "L", "--even", "3", "--odd", "2"])
    assert main(["classify", path, "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj == {"is_nilpotent": True, "is_solvable": True,
                   "s_nilindex": [2, 2]}


def test_gen_to_stdout(capsys):
    assert main(["gen", "--family", "NP", "--even", "2", "--even", "2",
                 "--odd", "1", "--odd", "2"]) == 0
    obj = json.loads(capsys.readouterr().out)
    A = load_algebra(obj)
    assert equal_laws(A, model_nilpotent_leibniz((2, 2), (1, 2)))


def test_check_flags_broken_law(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_skew_contradiction()))
    assert main(["check", str(path)]) == 1
    out = capsys.readouterr().out
    assert "violations" in out


def test_series_dims_json(tmp_path, capsys):
    path = _gen(tmp_path, "l.json", ["--family", "L", "--even", "3", "--odd", "2"])
    assert main(["series", path, "--which", "lcs", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["dims"] == [5, 2, 0]
    assert main(["series", path, "--which", "graded-odd"]) == 0
    out = capsys.readouterr().out
    assert "dims: (2, 1, 0)" in out


def test_charseq_text_and_candidates(tmp_path, capsys):
    path = _gen(tmp_path, "l.json", ["--family", "L", "--even", "4", "--odd", "3"])
    assert main(["charseq", path]) == 0
    out = capsys.readouterr().out
    assert "characteristic sequence: (3, 1 | 3)" in out
    assert "witness: x1" in out
    assert "lower bound only: yes" in out

    assert main(["charseq", path, "--candidate", "x1"]) == 0
    out = capsys.readouterr().out
    assert "characteristic sequence: (3, 1 | 3)" in out
    assert "lower bound only: no" in out

    # odd labels are not admissible candidates
    assert main(["charseq", path, "--candidate", "y1"]) == 2
    assert main(["charseq", path, "--candidate", "x1 +"]) == 2


def test_charseq_refuses_a_zero_denominator(tmp_path, capsys):
    path = _gen(tmp_path, "l.json", ["--family", "L", "--even", "4", "--odd", "3"])
    capsys.readouterr()
    assert main(["charseq", path, "--candidate", "1/0 x1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert "'1/0'" in captured.err and "Traceback" not in captured.err


def test_ann_dim(tmp_path, capsys):
    path = _gen(tmp_path, "lp.json", ["--family", "LP", "--even", "3", "--odd", "2"])
    assert main(["ann", path]) == 0
    out = capsys.readouterr().out
    assert "right annihilator: dim 4" in out


def test_der_parity_selection(tmp_path, capsys):
    path = _gen(tmp_path, "sl.json", ["--family", "SL", "--even", "3", "--odd", "2"])
    assert main(["der", path, "--parity", "even", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["even"]["dim"] == 6 and "odd" not in obj
    assert main(["der", path]) == 0
    out = capsys.readouterr().out
    assert "dim Der_even: 6" in out and "dim Der_odd: 2" in out


def test_der_text_prints_each_image_as_its_column(tmp_path, capsys):
    # entry (i, j) of a derivation matrix is the coefficient of e_i in D(e_j);
    # on SL^{3,2} the matrices are not symmetric, so reading a row would differ
    path = _gen(tmp_path, "sl.json", ["--family", "SL", "--even", "3", "--odd", "2"])
    basis = load_algebra(path).combined_basis
    assert main(["der", path, "--parity", "both", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert main(["der", path, "--parity", "both"]) == 0
    text = capsys.readouterr().out.splitlines()
    want = []
    for tag in ("even", "odd"):
        want.append("dim Der_%s: %d" % (tag, obj[tag]["dim"]))
        for idx, rows in enumerate(obj[tag]["basis"], 1):
            images = []
            for j, label in enumerate(basis):
                img = Element({basis[i]: Fraction(row[j]) for i, row in enumerate(rows)})
                if not img.is_zero():
                    images.append("%s -> %r" % (label, img))
            want.append("  D%d: %s" % (idx, "; ".join(images) or "0"))
    assert text == want
    matrices = obj["even"]["basis"] + obj["odd"]["basis"]
    assert any(rows != [list(col) for col in zip(*rows)] for rows in matrices)


def test_der_json_matrices_of_a_rescaled_law(tmp_path, capsys):
    # rational constants, so the JSON strings include fractions
    A = model_filiform_lie(4, 3, solvable=True)
    factors = (Fraction(2, 3), Fraction(-5, 7), Fraction(1, 6))
    B = change_of_basis(A, {l: Element({l: factors[i % 3]})
                            for i, l in enumerate(A.combined_basis)})
    path = str(tmp_path / "rescaled.json")
    dump_algebra(B, path)
    assert main(["der", path, "--parity", "both", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    for parity, tag in ((EVEN, "even"), (ODD, "odd")):
        space = derivation_space(B, parity)
        assert obj[tag]["basis"] == [[[str(v) for v in row] for row in dense_map(D).rows]
                                     for D in space], tag
        for D in space:
            assert SuperDerivation(parity, B.dim, list(D.entries)) == D
            assert SuperDerivation(1 - parity, B.dim, D.entries) != D
    assert any("/" in v for M in obj["even"]["basis"] for row in M for v in row)


def test_der_text_images_match_the_matrix_columns_on_a_rational_law(tmp_path, capsys):
    # the text form reads D(e_j) from the sparse entries; it must read as
    # column j of the dense matrix, fractions and signs included
    A = model_nilpotent_leibniz((2, 3), (2,), solvable=True)
    factors = (Fraction(3, 4), Fraction(-2, 9), Fraction(5, 1), Fraction(-1, 6))
    B = change_of_basis(A, {l: Element({l: factors[i % 4]})
                            for i, l in enumerate(A.combined_basis)})
    path = str(tmp_path / "rational.json")
    dump_algebra(B, path)
    assert main(["der", path, "--parity", "both"]) == 0
    text = capsys.readouterr().out.splitlines()
    want = []
    for parity, tag in ((EVEN, "even"), (ODD, "odd")):
        space = derivation_space(B, parity)
        want.append("dim Der_%s: %d" % (tag, len(space)))
        for idx, D in enumerate(space, 1):
            columns = list(zip(*dense_map(D).rows))
            images = ["%s -> %s" % (label, Element(zip(B.combined_basis, columns[j])))
                      for j, label in enumerate(B.combined_basis) if any(columns[j])]
            want.append("  D%d: %s" % (idx, "; ".join(images) or "0"))
    assert text == want
    assert any("/" in line for line in text)


def test_back_to_back_main_calls_share_no_state(tmp_path, capsys):
    # the parser is built once per process; the --even/--odd lists of one
    # call must not leak into the next, and usage errors still exit 2
    first = _gen(tmp_path, "n1.json", ["--family", "N", "--even", "2", "--even", "3",
                                       "--odd", "1"])
    second = _gen(tmp_path, "n2.json", ["--family", "N", "--even", "4", "--odd", "2",
                                        "--odd", "2"])
    assert equal_laws(load_algebra(first), model_nilpotent_lie((2, 3), (1,)))
    assert equal_laws(load_algebra(second), model_nilpotent_lie((4,), (2, 2)))
    assert main(["gen", "--family", "L", "--even", "3", "--odd", "2"]) == 0
    assert load_algebra(json.loads(capsys.readouterr().out)).name == "L^{3,2}"
    assert main(["gen", "--family", "L", "--even", "3"]) == 2
    assert "at least one --even and one --odd" in capsys.readouterr().err
    assert main(["der", first, "--parity", "sideways"]) == 2
    assert "invalid choice" in capsys.readouterr().err
    assert main(["gen", "--family", "L", "--even", "4", "--odd", "3"]) == 0
    assert load_algebra(json.loads(capsys.readouterr().out)).name == "L^{4,3}"


def test_inner_report(tmp_path, capsys):
    path = _gen(tmp_path, "sl.json", ["--family", "SL", "--even", "3", "--odd", "2"])
    assert main(["inner", path]) == 0
    assert "all inner: yes" in capsys.readouterr().out

    path = _gen(tmp_path, "l.json", ["--family", "L", "--even", "3", "--odd", "2"])
    assert main(["inner", path]) == 0
    assert "all inner: no" in capsys.readouterr().out


def _diag(values):
    n = len(values)
    return [[values[i] if i == j else 0 for j in range(n)] for i in range(n)]


def test_extend_round_trip(tmp_path, capsys):
    nil = _gen(tmp_path, "nil.json", ["--family", "L", "--even", "3", "--odd", "2"])
    actions = {
        "torus_labels": ["t1", "t2", "t3"],
        "actions": {
            "t1": {"left": _diag([1, 2, 3, 1, 2])},
            "t2": {"left": _diag([0, 1, 1, 0, 0])},
            "t3": {"left": _diag([0, 0, 0, 1, 1])},
        },
    }
    act_path = tmp_path / "act.json"
    act_path.write_text(json.dumps(actions))
    out_path = tmp_path / "ext.json"
    assert main(["extend", nil, str(act_path), "-o", str(out_path)]) == 0
    assert "extension ok: dim 8" in capsys.readouterr().out

    sl = _gen(tmp_path, "sl.json", ["--family", "SL", "--even", "3", "--odd", "2"])
    ext = load_algebra(str(out_path))
    ident = {"map": {l: {l: "1"} for l in ext.combined_basis}}
    map_path = tmp_path / "map.json"
    map_path.write_text(json.dumps(ident))
    assert main(["iso", str(out_path), sl, str(map_path)]) == 0
    assert "laws equal: yes" in capsys.readouterr().out


def test_extend_to_a_file_reports_in_json(tmp_path, capsys):
    nil = _gen(tmp_path, "nil.json", ["--family", "L", "--even", "3", "--odd", "2"])
    actions = {"torus_labels": ["t1"],
               "actions": {"t1": {"left": _diag([1, 2, 3, 1, 2])}}}
    act_path = tmp_path / "act.json"
    act_path.write_text(json.dumps(actions))
    out_path = tmp_path / "ext.json"
    capsys.readouterr()
    assert main(["extend", nil, str(act_path), "-o", str(out_path),
                 "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report == {"ok": True, "dim": 6, "output": str(out_path)}
    assert load_algebra(str(out_path)).dim == 6
    # text mode is unchanged
    assert main(["extend", nil, str(act_path), "-o", str(out_path)]) == 0
    assert capsys.readouterr().out == ("extension ok: dim 6, written to %s\n"
                                       % out_path)


def test_extend_rejects_non_derivation(tmp_path, capsys):
    nil = _gen(tmp_path, "nil.json", ["--family", "L", "--even", "3", "--odd", "2"])
    actions = {
        "torus_labels": ["t1"],
        "actions": {"t1": {"left": _diag([1, 1, 1, 1, 1])}},
    }
    act_path = tmp_path / "act.json"
    act_path.write_text(json.dumps(actions))
    assert main(["extend", nil, str(act_path)]) == 1
    assert "extension fails" in capsys.readouterr().out


def test_extend_rejects_malformed_actions(tmp_path, capsys):
    nil = _gen(tmp_path, "nil.json", ["--family", "L", "--even", "3", "--odd", "2"])
    actions = {"torus_labels": ["t1"],
               "actions": {"t1": {"left": _diag([1, 2, 3, 1, 2])}}}
    for torus_brackets in ([{"left": "t1", "right": "x1", "result": ["x1"]}],
                           5,
                           [{"left": "t1", "right": "x1", "result": "abc"}]):
        act_path = tmp_path / "act.json"
        act_path.write_text(json.dumps(dict(actions, torus_brackets=torus_brackets)))
        assert main(["extend", nil, str(act_path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")


def test_extend_refuses_over_the_cap(tmp_path, monkeypatch, capsys):
    nil = _gen(tmp_path, "nil.json", ["--family", "L", "--even", "3", "--odd", "2"])
    actions = {"torus_labels": ["t1"],
               "actions": {"t1": {"left": _diag([1, 2, 3, 1, 2])}}}
    act_path = tmp_path / "act.json"
    act_path.write_text(json.dumps(actions))
    out_path = tmp_path / "ext.json"
    # L^{3,2} has dimension 5, its extension by t1 dimension 6
    monkeypatch.setenv("SUPERALG_MAX_DIM", "5")
    monkeypatch.setattr(cli, "semidirect_extension", None)
    assert main(["extend", nil, str(act_path), "-o", str(out_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "exceeds SUPERALG_MAX_DIM=5" in captured.err
    assert not out_path.exists()


def test_filiform_families_take_one_size_each(capsys):
    assert main(["gen", "--family", "SL", "--even", "3", "--even", "4",
                 "--odd", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "family SL takes one even and one odd size" in captured.err
    with pytest.raises(ValueError, match="takes one even and one odd size"):
        fixtures.verify("3.1", (3, 4), (2,))


def test_iso_detects_law_mismatch(tmp_path, capsys):
    a = _gen(tmp_path, "a.json", ["--family", "L", "--even", "3", "--odd", "2"])
    mapping = {"map": {"x1": {"x1": "1"}, "x2": {"x2": "1"},
                       "x3": {"x3": "2"},
                       "y1": {"y1": "1"}, "y2": {"y2": "1"}}}
    map_path = tmp_path / "map.json"
    map_path.write_text(json.dumps(mapping))
    assert main(["iso", a, a, str(map_path)]) == 1
    assert "laws equal: no" in capsys.readouterr().out


def test_verify_fixture_exit_codes(monkeypatch, capsys):
    for theorem in sorted(fixtures.THEOREMS):
        instance, checks = fixtures.verify(theorem, *fixtures.default_sizes(theorem))
        assert all(ok for _, ok, _ in checks), theorem
        assert main(["verify", "--theorem", theorem]) == 0
        out = capsys.readouterr().out
        assert out.startswith("theorem %s on %s\n" % (theorem, instance.name))
        assert "result: pass" in out
    assert main(["verify", "--theorem", "7.1", "--even", "4", "--odd", "3",
                 "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["ok"] and all(c["ok"] for c in obj["checks"])

    # SL^{3,2} has dimension 8; the refusal comes before any extension is built
    monkeypatch.setenv("SUPERALG_MAX_DIM", "7")
    monkeypatch.setattr(fixtures, "semidirect_extension", None)
    assert main(["verify", "--theorem", "3.1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "exceeds" in captured.err


def test_sweep_refuses_blocks_of_length_one(monkeypatch):
    # SNP(1x15,1|1x15) has dimension 62 and 2^31 sweep points: refused
    # before the first candidate extension is built
    def fail(spec):
        raise AssertionError("an extension was built")

    monkeypatch.setattr(fixtures, "semidirect_extension", fail)
    for even, odd in (((1,) * 15, (1,) * 15), ((1,), (2,)), ((2, 2), (1, 2))):
        with pytest.raises(ValueError, match="a block of length 1 leaves its parameter free"):
            fixtures.verify("6.1", even, odd)


def test_torus_rank_check_can_fail(monkeypatch, capsys):
    # a generator count one too large: only the rank check fails
    count = fixtures.generator_count
    monkeypatch.setattr(fixtures, "generator_count", lambda A: count(A) + 1)
    for theorem in ("3.1", "4.1", "5.1", "6.1"):
        _, checks = fixtures.verify(theorem, *fixtures.default_sizes(theorem))
        assert {name: ok for name, ok, _ in checks if not ok} == {
            "torus rank = generator count = 3": False}, theorem
        assert main(["verify", "--theorem", theorem]) == 1
        out = capsys.readouterr().out
        assert "  torus rank = generator count = 3: FAIL (rank 3, 4 generators)\n" in out


def test_dimension_cap(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SUPERALG_MAX_DIM", "5")
    assert main(["gen", "--family", "SL", "--even", "3", "--odd", "2"]) == 2
    assert "exceeds" in capsys.readouterr().err
    monkeypatch.setenv("SUPERALG_MAX_DIM", "not-a-number")
    assert main(["gen", "--family", "L", "--even", "3", "--odd", "2"]) == 2
    capsys.readouterr()


def test_cap_refuses_before_building(monkeypatch, capsys):
    # any constructor call fails the test: the refusal must come first; every
    # member, filiform or not, is built through the two block constructors
    def refuse(*args, **kwargs):
        raise RuntimeError("the member was built before the cap check")

    for name in ("model_nilpotent_lie", "model_nilpotent_leibniz"):
        monkeypatch.setattr(families, name, refuse)
    for argv in (["gen", "--family", "L", "--even", "200000", "--odd", "2"],
                 ["gen", "--family", "SNP", "--even", "30", "--even", "30",
                  "--odd", "4"],
                 ["verify", "--theorem", "7.1", "--even", "200000", "--odd", "2"],
                 ["verify", "--theorem", "6.1", "--even", "40", "--odd", "30"]):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and "exceeds SUPERALG_MAX_DIM=64" in captured.err
    assert main(["gen", "--family", "SL", "--even", "2", "--odd", "2"]) == 2
    assert "n >= 3" in capsys.readouterr().err


def test_usage_errors(tmp_path, capsys):
    assert main([]) == 2
    assert main(["no-such-command"]) == 2
    assert main(["gen", "--family", "L", "--even", "3"]) == 2
    assert main(["gen", "--family", "L", "--even", "1", "--odd", "2"]) == 2
    assert main(["classify", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_skew_contradiction()))
    assert main(["classify", str(bad)]) == 2
    assert main(["classify", str(bad), "--skip-validate"]) == 0
    capsys.readouterr()


def test_element_expression_parser():
    A = model_filiform_lie(4, 3)
    el = parse_element_expression(A, "x1 + 2*x2 - 1/2 x3")
    assert el == Element({"x1": 1, "x2": 2, "x3": Fraction(-1, 2)})
    assert parse_element_expression(A, "-y1") == Element({"y1": -1})
    assert parse_element_expression(A, "3x2") == Element({"x2": 3})
    for bad, message in (("", "empty element expression"),
                         ("x1 x2", "missing sign before 'x2' in 'x1 x2'"),
                         ("x1 + ", "cannot parse element expression 'x1 + ' at offset 3"),
                         ("2*", "cannot parse element expression '2*' at offset 0"),
                         ("x9", "unknown basis label 'x9' in 'x9'"),
                         ("x1 ++ x2",
                          "cannot parse element expression 'x1 ++ x2' at offset 3")):
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            parse_element_expression(A, bad)


# argv (with file placeholders), environment, and the one line on stderr
ERROR_LINES = [
    (["gen", "--family", "L", "--even", "3", "--odd", "2"], {"SUPERALG_MAX_DIM": "abc"},
     "SUPERALG_MAX_DIM must be an integer, got 'abc'"),
    (["gen", "--family", "L", "--even", "3", "--odd", "2"], {"SUPERALG_MAX_DIM": "0"},
     "SUPERALG_MAX_DIM must be positive, got 0"),
    (["classify", "{sl}"], {"SUPERALG_MAX_DIM": "5"}, "dimension 8 exceeds SUPERALG_MAX_DIM=5"),
    (["charseq", "{l}", "--candidate", "x1 ++ x2"], {},
     "cannot parse element expression 'x1 ++ x2' at offset 3"),
    (["charseq", "{l}", "--candidate", "x1 x2"], {}, "missing sign before 'x2' in 'x1 x2'"),
    (["charseq", "{l}", "--candidate", "x9"], {}, "unknown basis label 'x9' in 'x9'"),
    (["charseq", "{l}", "--candidate", ""], {}, "empty element expression"),
    (["gen", "--family", "L", "--even", "3"], {},
     "gen needs at least one --even and one --odd value"),
    (["iso", "{l}", "{l}", "{short}"], {},
     "the map must cover the full dimension (1 labels for dim 5)"),
    (["iso", "{l}", "{l}", "{singular}"], {}, "the change-of-basis map is singular"),
    (["charseq", "{l}", "--candidate", "\u0663 x2"], {},
     "cannot parse element expression '\u0663 x2' at offset 0"),
    (["verify", "--theorem", "6.1", "--even", "2", "--even", "2", "--odd", "1", "--odd", "2"],
     {}, "theorem 6.1 is checked on blocks of length >= 2, since a block of length 1 leaves "
     "its parameter free"),
]


@pytest.mark.parametrize("argv, env, line", ERROR_LINES)
def test_error_lines(argv, env, line, tmp_path, monkeypatch, capsys):
    files = {"l": _gen(tmp_path, "l.json", ["--family", "L", "--even", "3", "--odd", "2"]),
             "sl": _gen(tmp_path, "sl.json", ["--family", "SL", "--even", "3", "--odd", "2"])}
    identity = {l: {l: "1"} for l in ("x1", "x2", "x3", "y1", "y2")}
    for name, mapping in (("short", {"x1": {"x1": "1"}}),
                          ("singular", dict(identity, x3={"x2": "2"}))):
        path = tmp_path / ("%s.json" % name)
        path.write_text(json.dumps({"map": mapping}))
        files[name] = str(path)
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    assert main([a.format(**files) for a in argv]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: %s\n" % line)
