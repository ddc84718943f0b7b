"""change_of_basis against a dense oracle built on naive_gauss.naive_inverse.

Seeded, parity-preserving, invertible maps that are neither upper nor
lower triangular, with rational entries (so that P^{-1} has denominators),
rewrite family members and a law with rational constants.  The oracle
forms P^{-1}[P(u), P(v)] densely over labels from A.brackets and must
agree with the result's `integer_law` entry by entry.  A singular map is refused
with the same message, and `superalg iso` replays the oracle's law.
"""

import json
import random
from fractions import Fraction

import pytest

from naive_gauss import naive_inverse
from superalg.cli import main
from superalg.core import Element, SuperAlgebra, change_of_basis
from superalg.families import member
from superalg.fileformat import dump_algebra

ENTRIES = (0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4))


def random_map(rng, A):
    """Block-diagonal, invertible, non-triangular, rational; new labels n*."""
    while True:
        blocks = []
        for block in (A.even_basis, A.odd_basis):
            k = len(block)
            M = [[Fraction(rng.choice(ENTRIES)) for _ in range(k)] for _ in range(k)]
            blocks.append((block, M))
        if any(naive_inverse(M) is None for _, M in blocks):
            continue
        entries = [(i, j) for _, M in blocks for i, row in enumerate(M)
                   for j, v in enumerate(row) if v]
        if not any(i < j for i, j in entries) or not any(i > j for i, j in entries):
            continue
        if not any(v.denominator > 1 for _, M in blocks for row in M for v in row):
            continue
        mapping = {}
        for block, M in blocks:
            for j, label in enumerate(block):
                mapping["n" + label] = Element({block[i]: M[i][j] for i in range(len(block))})
        return mapping


def oracle_law(A, mapping):
    """{(i, j): {k: c}} of P^{-1}[P(e_i), P(e_j)] over the new combined basis."""
    even = [l for l in mapping if A.element_parity(mapping[l]) == 0]
    new = even + [l for l in mapping if l not in even]
    old, n = A.combined_basis, A.dim
    P = [[mapping[u].get(o) for u in new] for o in old]
    Pinv = naive_inverse(P)
    law = {}
    for i, u in enumerate(new):
        for j, v in enumerate(new):
            w = [Fraction(0)] * n
            for a, ca in mapping[u].items():
                for b, cb in mapping[v].items():
                    for k, c in A.basis_bracket(a, b).items():
                        w[old.index(k)] += ca * cb * c
            cell = {r: sum(Pinv[r][k] * w[k] for k in range(n)) for r in range(n)}
            cell = {r: c for r, c in cell.items() if c}
            if cell:
                law[(i, j)] = cell
    return tuple(new), law


def rational_law():
    """SLP^{4,3} rewritten once already, so its constants have denominators."""
    A = member("SLP", (4,), (3,))
    mapping = {l: Element({l: Fraction(1, 3) if l.startswith("x") else 2}) for l in
               A.combined_basis}
    mapping["x2"] = Element({"x2": Fraction(1, 3), "x3": Fraction(-1, 2)})
    return change_of_basis(A, mapping)


CASES = [("SL", (4,), (3,)), ("SLP", (4,), (3,)), ("SN", (2, 1), (2,)),
         ("NP", (2, 2), (1, 2)), ("L", (5,), (2,))]


@pytest.mark.parametrize("seed", range(4))
def test_change_of_basis_matches_the_dense_oracle(seed):
    rng = random.Random(seed)
    algebras = [member(*case) for case in CASES] + [rational_law()]
    for A in algebras:
        mapping = random_map(rng, A)
        B = change_of_basis(A, mapping)
        new, law = oracle_law(A, mapping)
        assert B.combined_basis == new and B.kind == A.kind
        d, cells = B.integer_law
        assert {key: {k: Fraction(c, d) for k, c in cell.items()}
                for key, cell in cells.items()} == law, (A.name, seed)
        assert A.integer_law[0] == 1 or d > 1


def test_singular_map_is_refused_with_the_same_message():
    A = member("SL", (3,), (2,))
    mapping = {"n" + l: Element.basis(l) for l in A.combined_basis}
    mapping["nx2"] = Element({"x1": 2, "x2": Fraction(1, 2)})
    mapping["nx3"] = Element({"x1": 4, "x2": 1})
    with pytest.raises(ValueError) as exc:
        change_of_basis(A, mapping)
    assert str(exc.value) == "the change-of-basis map is singular"


def test_iso_replays_the_oracle_law(tmp_path, capsys):
    rng = random.Random(11)
    A = member("SN", (2, 1), (2,))
    mapping = random_map(rng, A)
    new, law = oracle_law(A, mapping)
    even = [l for l in new if A.element_parity(mapping[l]) == 0]
    table = {(new[i], new[j]): Element({new[k]: c for k, c in cell.items()})
             for (i, j), cell in law.items()}
    B = SuperAlgebra(A.kind, even, new[len(even):], table)
    dump_algebra(A, str(tmp_path / "a.json"))
    dump_algebra(B, str(tmp_path / "b.json"))
    (tmp_path / "map.json").write_text(json.dumps({"map": {
        u: {l: str(c) for l, c in el.items()} for u, el in mapping.items()}}))
    argv = ["iso", str(tmp_path / "a.json"), str(tmp_path / "b.json"),
            str(tmp_path / "map.json")]
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out == "laws equal: yes\n"
    assert main(argv + ["--format", "json"]) == 0
    assert capsys.readouterr().out == '{\n  "equal_laws": true\n}\n'
    # one constant changed: the replay no longer matches
    (i, j), cell = next(iter(law.items()))
    k = next(iter(cell))
    table[(new[i], new[j])] = Element({new[k]: cell[k] + 1})
    dump_algebra(SuperAlgebra(A.kind, even, new[len(even):], table, name=""),
                 str(tmp_path / "b.json"))
    assert main(argv + ["--skip-validate"]) == 1
    assert capsys.readouterr().out == "laws equal: no\n"
