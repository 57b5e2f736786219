"""Exact sparse rational linear algebra against naive dense oracles."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superdirac import exactla
from superdirac.exactla import SparseRationalMatrix

rat = st.fractions(
    min_value=-5, max_value=5, max_denominator=3
)


def matrices(rows, cols):
    return st.lists(
        st.lists(rat, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    )


def dense_matmul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    return [
        [sum((a[i][k] * b[k][j] for k in range(inner)), Fraction(0)) for j in range(cols)]
        for i in range(rows)
    ]


@settings(max_examples=40, deadline=None)
@given(matrices(3, 2), matrices(2, 4))
def test_matmul_matches_dense(a, b):
    got = SparseRationalMatrix.from_rows(a).matmul(SparseRationalMatrix.from_rows(b))
    assert got.to_rows() == dense_matmul(a, b)


@settings(max_examples=40, deadline=None)
@given(matrices(3, 3), matrices(3, 3), rat)
def test_ring_operations(a, b, c):
    ma, mb = SparseRationalMatrix.from_rows(a), SparseRationalMatrix.from_rows(b)
    assert ma.add(mb).to_rows() == [
        [x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)
    ]
    assert ma.scale(c).to_rows() == [[c * x for x in ra] for ra in a]
    assert ma.transpose().to_rows() == [[a[i][j] for i in range(3)] for j in range(3)]


@settings(max_examples=40, deadline=None)
@given(matrices(3, 4))
def test_kernel_and_rank(rows):
    a = SparseRationalMatrix.from_rows(rows)
    r = exactla.rank(a)
    kern = exactla.kernel_basis(a)
    assert r + len(kern) == 4
    for v in kern:
        assert all(x == 0 for x in a.apply(v))
    # kernel vectors are linearly independent: stacking them has full rank
    if kern:
        k = SparseRationalMatrix.from_rows([list(v) for v in kern])
        assert exactla.rank(k) == len(kern)


@settings(max_examples=40, deadline=None)
@given(matrices(3, 3), st.lists(rat, min_size=3, max_size=3))
def test_solve(rows, x):
    a = SparseRationalMatrix.from_rows(rows)
    b = a.apply(x)
    sol = exactla.solve(a, b)
    assert sol is not None
    assert list(a.apply(sol)) == list(b)


def test_solve_inconsistent_returns_none():
    a = SparseRationalMatrix.from_rows([[1, 0], [1, 0]])
    assert exactla.solve(a, [Fraction(1), Fraction(2)]) is None


@settings(max_examples=40, deadline=None)
@given(matrices(3, 3))
def test_definiteness_gram_psd(rows):
    m = SparseRationalMatrix.from_rows(rows)
    g = m.transpose().matmul(m)  # always positive semidefinite
    cert = exactla.definiteness(g)
    assert cert.verdict in ("positive-definite", "positive-semidefinite")
    assert cert.rank == exactla.rank(g)


@settings(max_examples=40, deadline=None)
@given(matrices(3, 3))
def test_definiteness_shifted_pd(rows):
    m = SparseRationalMatrix.from_rows(rows)
    g = m.transpose().matmul(m).add(SparseRationalMatrix.identity(3))
    assert exactla.definiteness(g).verdict == "positive-definite"


@settings(max_examples=60, deadline=None)
@given(matrices(3, 3))
def test_indefinite_witness_is_exact(rows):
    sym = [
        [rows[i][j] + rows[j][i] for j in range(3)] for i in range(3)
    ]
    g = SparseRationalMatrix.from_rows(sym)
    cert = exactla.definiteness(g)
    if cert.verdict == "indefinite":
        assert cert.witness is not None
        assert exactla.quadratic_value(g, cert.witness) < 0


def test_definiteness_rejects_asymmetric():
    with pytest.raises(ValueError):
        exactla.definiteness(SparseRationalMatrix.from_rows([[0, 1], [0, 0]]))


def test_definiteness_hyperbolic_pair():
    g = SparseRationalMatrix.from_rows([[0, 1], [1, 0]])
    cert = exactla.definiteness(g)
    assert cert.verdict == "indefinite"
    assert exactla.quadratic_value(g, cert.witness) < 0


@settings(max_examples=40, deadline=None)
@given(matrices(2, 4))
def test_quotient_map(rows):
    a = SparseRationalMatrix.from_rows(rows)
    kern = exactla.kernel_basis(a)
    qm = exactla.quotient_map(kern, 4)
    for v in kern:
        assert all(x == 0 for x in qm.reduce_vector(v))
    # the reduction is onto: kept coordinates span the quotient
    assert len(qm.kept) == 4 - len(kern)


def test_gram_on_quotient_nondegenerate():
    g = SparseRationalMatrix.from_rows(
        [[1, 0, 1], [0, 0, 0], [1, 0, 1]]
    )
    radical = exactla.kernel_basis(g)
    gq, qm = exactla.gram_on_quotient(g, radical)
    assert gq.rows == 3 - len(radical) == len(qm.kept)
    assert len(exactla.kernel_basis(gq)) == 0


def test_deterministic_rref_pivots():
    rows = [[0, 2, 1], [0, 4, 2], [1, 1, 1]]
    a = SparseRationalMatrix.from_rows(rows)
    k1 = exactla.kernel_basis(a)
    k2 = exactla.kernel_basis(SparseRationalMatrix.from_rows(rows))
    assert k1 == k2


@settings(max_examples=40, deadline=None)
@given(matrices(4, 3), st.lists(rat, min_size=4, max_size=4))
def test_image_quotient(rows, v):
    """Coordinates modulo im A: every column of A reduces to zero, the
    quotient has rows - rank A coordinates, and v reduces to zero exactly
    when A x = v is solvable."""
    a = SparseRationalMatrix.from_rows(rows)
    q = exactla.image_quotient(a)
    assert len(q.kept) == a.rows - exactla.rank(a)
    for j in range(a.cols):
        assert not any(q.reduce_vector([rows[i][j] for i in range(a.rows)]))
    assert (not any(q.reduce_vector(v))) == (exactla.solve(a, v) is not None)


@settings(max_examples=40, deadline=None)
@given(matrices(2, 4), matrices(3, 4))
def test_independent_modulo(span, candidates):
    """The chosen candidates extend the span one dimension each, and together
    with the span they reach the rank of everything."""
    chosen = exactla.independent_modulo(span, candidates)
    assert chosen == sorted(set(chosen))

    def rank(vectors):
        return exactla.rank(SparseRationalMatrix.from_rows(vectors)) if vectors else 0

    assert rank(span + [candidates[k] for k in chosen]) == rank(span) + len(chosen)
    assert rank(span + candidates) == rank(span) + len(chosen)


@settings(max_examples=40, deadline=None)
@given(matrices(2, 3), matrices(1, 3))
def test_vstack(top, bottom):
    """Stacking keeps the rows in order; no matrices give 0 x cols, whose
    kernel is the whole space; a column mismatch is rejected."""
    a, b = SparseRationalMatrix.from_rows(top), SparseRationalMatrix.from_rows(bottom)
    stacked = exactla.vstack([a, SparseRationalMatrix(0, 3), b], 3)
    assert (stacked.rows, stacked.cols) == (3, 3)
    assert stacked.to_rows() == top + bottom
    empty = exactla.vstack([], 3)
    assert (empty.rows, empty.cols) == (0, 3)
    assert len(exactla.kernel_basis(empty)) == 3
    assert exactla.rank(empty) == 0
    with pytest.raises(ValueError):
        exactla.vstack([a, SparseRationalMatrix(1, 2)], 3)
