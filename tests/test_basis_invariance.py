"""Property tests: the computed invariants do not depend on the basis.

Each case draws a small member (dim <= 10) of one of the eight model
families and an invertible parity-preserving integer change of basis with
entries in [-2, 2], and checks that the rewritten algebra has the same
derivation dimensions, innerness, series dimensions and classification,
and, for the solvable families, that the image of the nilradical N is
still certified as the nilradical with the same codimension.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import Phase, assume, given, settings, strategies as st  # noqa: E402

from superalg.core import change_of_basis  # noqa: E402
from superalg.derivations import innerness_report  # noqa: E402
from superalg.extension import nilradical_verdict  # noqa: E402
from superalg.families import FAMILIES, member, member_dim  # noqa: E402
from superalg.invariants import SERIES_KINDS, Subspace, classify, series  # noqa: E402
from superalg.linalg import Matrix, invert, rank  # noqa: E402

MAX_DIM = 10


@st.composite
def sizes(draw, family):
    if family in ("L", "SL", "LP", "SLP"):
        even = (draw(st.integers(3, 6)),)
        odd = (draw(st.integers(2, 5)),)
    else:
        blocks = st.lists(st.integers(1, 3), min_size=1, max_size=2)
        even, odd = tuple(draw(blocks)), tuple(draw(blocks))
    assume(member_dim(family, even, odd) <= MAX_DIM)
    return even, odd


def _invertible(draw, n):
    rows = draw(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                         min_size=n, max_size=n))
    assume(rank(Matrix(rows, n)) == n)
    return rows


@st.composite
def cases(draw, family):
    even, odd = draw(sizes(family))
    A = member(family, even, odd)
    return even, odd, (_invertible(draw, A.dim_even), _invertible(draw, A.dim_odd))


def _new_vectors(A, blocks):
    """Coordinates over A of the new basis vectors: the rows of the even
    block on the even labels, then the rows of the odd block on the odd ones."""
    pad_even, pad_odd = (0,) * A.dim_even, (0,) * A.dim_odd
    return ([tuple(row) + pad_odd for row in blocks[0]]
            + [pad_even + tuple(row) for row in blocks[1]])


def _invariants(A):
    # dim_der_* is len(derivation_space(A, parity)), computed once in the report
    report = innerness_report(A)
    return {"der": (report["dim_der_even"], report["dim_der_odd"]),
            "all_inner": report["all_inner"],
            "series": tuple(tuple(S.dim for S in series(A, which)) for which in SERIES_KINDS),
            "classify": classify(A)}


def _nilradical_vectors(A, family, even, odd):
    """Coordinates over A of the basis of N, the nilpotent member."""
    return [A.coords(label) for label in member(family[1:], even, odd).combined_basis]


def _verdict(A, vectors):
    verdict = nilradical_verdict(A, Subspace(A, vectors))
    return verdict["verdict"], verdict["codimension"]


def _reference(family, even, odd):
    A = member(family, even, odd)
    got = _invariants(A)
    if family.startswith("S"):
        got["nilradical"] = _verdict(A, _nilradical_vectors(A, family, even, odd))
        assert got["nilradical"][0]
    return got


@pytest.mark.parametrize("family", FAMILIES)
# no shrink phase: an example solves two derivation systems, and shrinking a
# failing one took minutes; the failing example is reported as drawn
@settings(max_examples=2, deadline=None, database=None, derandomize=True,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(data=st.data())
def test_invariants_survive_a_change_of_basis(family, data):
    even, odd, blocks = data.draw(cases(family))
    A = member(family, even, odd)
    vectors = _new_vectors(A, blocks)
    # new labels: even ones first, so B's basis order is the order of vectors
    labels = (["e%d" % i for i in range(A.dim_even)]
              + ["o%d" % i for i in range(A.dim_odd)])
    B = change_of_basis(A, {l: A.element_from_coords(v) for l, v in zip(labels, vectors)})
    got = _invariants(B)
    if family.startswith("S"):
        # the coordinates over B of a vector v of A are P^{-1} v
        P_inv = invert(Matrix(list(zip(*vectors)), A.dim)).entries
        got["nilradical"] = _verdict(B, [[sum(a * b for a, b in zip(row, v)) for row in P_inv]
                                         for v in _nilradical_vectors(A, family, even, odd)])
    assert got == _reference(family, even, odd)
