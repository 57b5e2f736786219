"""Exact sparse rational linear algebra against naive dense oracles."""

import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import (
    backsub_kernel,
    fraction_definiteness,
    fraction_kernel,
    fraction_rref,
    identity_matrix,
    is_positive_multiple,
    quadratic_value,
    scaled,
)
from superdirac import dirac, exactla, modules
from superdirac.exactla import SparseRationalMatrix
from superdirac.weights import build_root_datum, parse_weight

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


def _random_sparse(rng, rows, cols, density=0.4):
    """A seeded sparse matrix of small ints and halves."""
    entries = {}
    for i in range(rows):
        for j in range(cols):
            if rng.random() < density:
                entries[i, j] = exactla._rat(Fraction(rng.randint(-3, 3), rng.choice((1, 2))))
    return SparseRationalMatrix(rows, cols, {k: v for k, v in entries.items() if v})


def _intertwining_triples(rng):
    """(tgt, X, src) triples: random rectangular ones, which almost never
    intertwine; polynomials X in a square src = tgt, which do, and each once
    more with one entry of X changed; zero X; and empty shapes."""
    for _ in range(60):
        r, n = rng.randint(1, 4), rng.randint(1, 4)
        yield _random_sparse(rng, r, r), _random_sparse(rng, r, n), _random_sparse(rng, n, n)
    for _ in range(60):
        n = rng.randint(1, 4)
        b = _random_sparse(rng, n, n)
        x = b.matmul(b).add(scaled(b, rng.randint(-2, 2))).add(identity_matrix(n))
        yield b, x, b
        key = (rng.randrange(n), rng.randrange(n))
        yield b, SparseRationalMatrix(n, n, {**x.entries, key: x.entries.get(key, 0) + 1}), b
        yield _random_sparse(rng, 2, 2), SparseRationalMatrix(2, n), b
    for r, n in ((0, 0), (0, 3), (3, 0)):
        yield _random_sparse(rng, r, r), SparseRationalMatrix(r, n), _random_sparse(rng, n, n)


def test_intertwines_matches_two_products():
    """`exactla.intertwines(x, src, tgt)` is `tgt.matmul(x) == x.matmul(src)`
    on seeded triples that intertwine and that do not, and on empty ones;
    products of different shapes are unequal, and a mismatch inside either
    product raises as `matmul` does."""
    rng = random.Random(29)
    seen = {True: 0, False: 0}
    for tgt, x, src in _intertwining_triples(rng):
        expected = tgt.matmul(x) == x.matmul(src)
        assert exactla.intertwines(x, src, tgt) == expected
        seen[expected] += 1
    assert min(seen.values()) >= 60
    square = _random_sparse(rng, 3, 3)
    wide, tall = SparseRationalMatrix(2, 3), SparseRationalMatrix(3, 2)
    assert not exactla.intertwines(square, tall, wide)
    with pytest.raises(ValueError, match="dimension mismatch"):
        exactla.intertwines(square, square, tall)
    with pytest.raises(ValueError, match="dimension mismatch"):
        exactla.intertwines(square, SparseRationalMatrix(2, 2), square)


@settings(max_examples=40, deadline=None)
@given(matrices(3, 3), matrices(3, 3))
def test_ring_operations(a, b):
    ma, mb = SparseRationalMatrix.from_rows(a), SparseRationalMatrix.from_rows(b)
    assert ma.add(mb).to_rows() == [
        [x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)
    ]
    assert ma.transpose().to_rows() == [[a[i][j] for i in range(3)] for j in range(3)]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 3).flatmap(lambda r: st.integers(1, 3).flatmap(lambda c: matrices(r, c))))
def test_from_rows_stores_canonical_nonzero_entries(rows):
    """`from_rows` is the one dense constructor: every stored entry is an int
    when integral and a Fraction otherwise, no zero is stored (Fraction(0)
    included), and `to_rows` gives the input back."""
    m = SparseRationalMatrix.from_rows(rows)
    assert (m.rows, m.cols) == (len(rows), len(rows[0]) if rows else 0)
    assert all(v != 0 for v in m.entries.values())
    assert all(type(v) is (int if v.denominator == 1 else Fraction) for v in m.entries.values())
    assert m.to_rows() == rows


def test_from_rows_canonical_entries_and_ragged_rows():
    m = SparseRationalMatrix.from_rows([[Fraction(0), Fraction(4, 2), 0], [Fraction(1, 3), -1, 0]])
    assert m.entries == {(0, 1): 2, (1, 0): Fraction(1, 3), (1, 1): -1}
    assert [type(m.entries[k]) for k in ((0, 1), (1, 0), (1, 1))] == [int, Fraction, int]
    assert m.to_rows() == [[0, 2, 0], [Fraction(1, 3), -1, 0]]
    for ragged in ([[1, 2], [3]], [[1], [2, 3]], [[], [1]]):
        with pytest.raises(ValueError, match="ragged"):
            SparseRationalMatrix.from_rows(ragged)



def test_ratio_is_an_int_exactly_when_the_quotient_is_integral():
    cases = [(6, 3), (-6, 3), (5, -5), (-7, 2), (3, -6), (Fraction(3, 2), 3), (Fraction(2), 2)]
    got = [exactla._ratio(a, b) for a, b in cases]
    assert got == [2, -2, -1, Fraction(-7, 2), Fraction(-1, 2), Fraction(1, 2), 1]
    assert [type(x) for x in got] == [int, int, int, Fraction, Fraction, Fraction, int]

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
@given(matrices(3, 3))
def test_definiteness_gram_psd(rows):
    m = SparseRationalMatrix.from_rows(rows)
    g = m.transpose().matmul(m)  # always positive semidefinite
    cert = exactla.definiteness(g)
    assert cert.verdict in ("positive-definite", "positive-semidefinite")
    # every pivot of a semidefinite form is positive, one per rank
    assert len(cert.pivot_record) == exactla.rank(g)


@settings(max_examples=40, deadline=None)
@given(matrices(3, 3))
def test_definiteness_shifted_pd(rows):
    m = SparseRationalMatrix.from_rows(rows)
    g = m.transpose().matmul(m).add(identity_matrix(3))
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
        assert quadratic_value(g, cert.witness) < 0


def test_definiteness_rejects_asymmetric():
    with pytest.raises(ValueError):
        exactla.definiteness(SparseRationalMatrix.from_rows([[0, 1], [0, 0]]))


def test_definiteness_hyperbolic_pair():
    g = SparseRationalMatrix.from_rows([[0, 1], [1, 0]])
    cert = exactla.definiteness(g)
    assert cert.verdict == "indefinite"
    assert quadratic_value(g, cert.witness) < 0


@settings(max_examples=40, deadline=None)
@given(matrices(2, 4))
def test_quotient_map(rows):
    a = SparseRationalMatrix.from_rows(rows)
    kern = exactla.kernel_basis(a)
    q = exactla.quotient(kern, 4)
    for v in kern:
        assert all(x == 0 for x in q.reduction.apply(v))
    # the reduction is onto: kept coordinates span the quotient
    assert len(q.kept) == 4 - len(kern)


def test_gram_on_quotient_nondegenerate():
    g = SparseRationalMatrix.from_rows(
        [[1, 0, 1], [0, 0, 0], [1, 0, 1]]
    )
    radical = exactla.kernel_basis(g)
    q = exactla.quotient(radical, 3)
    gq = g.submatrix(q.kept, q.kept)
    assert gq.rows == 3 - len(radical) == len(q.kept)
    assert len(exactla.kernel_basis(gq)) == 0


def test_quotient_rejects_row_dimension_mismatch():
    with pytest.raises(ValueError):
        exactla.quotient([[Fraction(1), Fraction(0)]], 3)
    with pytest.raises(ValueError):  # a sparse row past the dimension
        exactla.quotient([{0: 1, 3: 2}], 3)


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
    when v lies in the column space of A: appending it keeps the rank."""
    a = SparseRationalMatrix.from_rows(rows)
    q = exactla.quotient(a.transpose().to_rows(), a.rows)
    assert len(q.kept) == a.rows - exactla.rank(a)
    for j in range(a.cols):
        assert not any(q.reduction.apply([rows[i][j] for i in range(a.rows)]))
    with_v = SparseRationalMatrix.from_rows([*zip(*rows), v])  # the columns of A, then v
    assert (not any(q.reduction.apply(v))) == (exactla.rank(with_v) == exactla.rank(a))


# ----- the earlier eliminations, kept as oracles -----------------------------------------
def _sympy_rref(rows):
    """RREF and pivot columns by sympy's elimination, back in Fractions."""
    rr, pivots = sympy.Matrix(rows).rref()
    rows = [[Fraction(int(x.p), int(x.q)) for x in rr.row(i)] for i in range(rr.rows)]
    return rows, list(pivots)


def _quotient_from_rref(rr, pivots, dim):
    """Section and reduction of V / span(rows) from an RREF of the rows: the
    kept coordinates are the free columns, and a pivot coordinate is congruent
    to minus the free part of its row."""
    kept = [c for c in range(dim) if c not in set(pivots)]
    entries = {(qi, c): 1 for qi, c in enumerate(kept)}
    for r, pc in enumerate(pivots):
        for qi, c in enumerate(kept):
            if rr[r][c]:
                entries[qi, pc] = exactla._rat(-rr[r][c])
    return kept, SparseRationalMatrix(len(kept), dim, entries)


def _oracle_quotient_map(kernel, dim):
    """Coordinates on V / span(kernel) for an independent kernel basis."""
    if not kernel:
        return list(range(dim)), identity_matrix(dim)
    rr, pivots = _sympy_rref([list(v) for v in kernel])
    assert len(pivots) == len(kernel), "dependent kernel basis rejected"
    return _quotient_from_rref(rr, pivots, dim)


def _oracle_image_quotient(a):
    """Coordinates on the target of A modulo im A, from one RREF of A^T."""
    if not a.entries:
        return list(range(a.rows)), identity_matrix(a.rows)
    return _quotient_from_rref(*_sympy_rref(a.transpose().to_rows()), a.rows)


small = st.integers(-1, 1).map(Fraction)  # small entries make dependencies common


def small_matrix(data, rows, cols):
    row = st.lists(small, min_size=cols, max_size=cols)
    return SparseRationalMatrix.from_rows(data.draw(st.lists(row, min_size=rows, max_size=rows)))


def _assert_same_quotient(q, oracle):
    kept, red = oracle
    assert q.kept == kept
    assert (q.reduction.rows, q.reduction.cols) == (red.rows, red.cols)
    assert q.reduction.entries == red.entries


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3), st.integers(1, 5), st.data())
def test_quotient_matches_oracle_on_radical_rows(rows, cols, data):
    """Independent rows, as a kernel basis of a Gram block gives them."""
    kern = exactla.kernel_basis(small_matrix(data, rows, cols))
    _assert_same_quotient(exactla.quotient(kern, cols), _oracle_quotient_map(kern, cols))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.data())
def test_quotient_matches_oracle_on_image_rows(rows, cols, data):
    """Dependent rows, as the columns of a Dirac matrix give them."""
    a = small_matrix(data, rows, cols)
    _assert_same_quotient(
        exactla.quotient(a.transpose().to_rows(), a.rows), _oracle_image_quotient(a)
    )


# ----- the sparse _rref against the Fraction elimination -------------------------------
def test_rat_keeps_integral_values_as_int():
    two = exactla._rat(Fraction(4, 2))
    assert type(two) is int and two == 2
    half = exactla._rat(Fraction(1, 2))
    assert type(half) is Fraction and half == Fraction(1, 2)
    assert type(exactla._rat(True)) is int
    assert type(exactla._rat(-3)) is int


mixed = st.one_of(
    st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=4)
)


@st.composite
def mixed_matrices(draw):
    """Rectangular matrices mixing int and Fraction entries, sometimes with a
    zero row, a zero column or a row that is a combination of two others."""
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    a = [[draw(mixed) for _ in range(cols)] for _ in range(rows)]
    if rows and cols and draw(st.booleans()):
        a[draw(st.integers(0, rows - 1))] = [0] * cols
    if rows and cols and draw(st.booleans()):
        j = draw(st.integers(0, cols - 1))
        for row in a:
            row[j] = 0
    if rows >= 3 and draw(st.booleans()):
        i, j, k = draw(st.permutations(range(rows)))[:3]
        x, y = draw(mixed), draw(mixed)
        a[k] = [x * u + y * v for u, v in zip(a[i], a[j])]
    return a


def _canonical(values):
    """Every value is an int, or a Fraction that is not integral."""
    return all(
        type(x) is int or (type(x) is Fraction and x.denominator != 1) for x in values
    )


def _matrix(rows, cols):
    return SparseRationalMatrix.from_rows(rows) if rows else SparseRationalMatrix(0, cols)


@settings(max_examples=200, deadline=None)
@given(mixed_matrices())
def test_rref_matches_fraction_oracle(rows):
    """The sparse pass keeps primitive integer echelon rows, each at or right
    of its pivot, at the oracle's pivot columns and spanning the oracle's row
    space."""
    before = [list(row) for row in rows]
    echelon = exactla._rref(rows)
    rr, pivots = fraction_rref(rows)
    assert sorted(echelon) == pivots
    for p, row in echelon.items():
        assert min(row) == p
        assert all(type(x) is int and x for x in row.values())
        assert math.gcd(*row.values()) == 1
    cols = len(rows[0]) if rows else 0
    dense = [[row.get(c, 0) for c in range(cols)] for row in echelon.values()]
    assert fraction_rref(dense)[0] == rr[: len(pivots)]
    assert rows == before  # the input is left as it was


@settings(max_examples=150, deadline=None)
@given(mixed_matrices(), st.data())
def test_rank_kernel_solve_quotient_match_fraction_oracle(rows, data):
    cols = len(rows[0]) if rows else data.draw(st.integers(0, 4))
    a = _matrix(rows, cols)
    rr, pivots = fraction_rref(a.to_rows())
    assert exactla.rank(a) == len(pivots)
    if cols:
        kern = exactla.kernel_basis(a)
        oracle = fraction_kernel(a.to_rows(), cols)
        assert len(kern) == len(oracle)
        for v, w in zip(kern, oracle):  # an int tuple, a positive multiple of w
            assert type(v) is tuple and all(type(x) is int for x in v)
            assert is_positive_multiple(v, w)
    if rows:
        q = exactla.quotient(rows, cols)
        kept, red = _quotient_from_rref(rr, pivots, cols)
        assert q.kept == kept
        assert q.reduction.entries == red.entries
        assert _canonical(q.reduction.entries.values())


# ----- the sparse elimination on sparse inputs ---------------------------------------------
nonzero = st.fractions(min_value=-4, max_value=4, max_denominator=3).filter(bool)


@st.composite
def sparse_matrices(draw):
    """Sparse matrices with 0-3 nonzero Fraction entries per row: zero rows,
    and sometimes a column left zero on purpose."""
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    blank = draw(st.integers(0, cols - 1)) if cols and draw(st.booleans()) else None
    allowed = [c for c in range(cols) if c != blank]
    entries = {}
    for i in range(rows):
        support = (
            draw(st.lists(st.sampled_from(allowed), unique=True, max_size=3)) if allowed else []
        )
        entries.update(((i, j), draw(nonzero)) for j in support)
    return SparseRationalMatrix(rows, cols, entries)


@settings(max_examples=300, deadline=None)
@given(sparse_matrices())
def test_sparse_elimination_matches_oracles(a):
    """Rank, pivot columns, kernel and quotient of sparse rows against the
    Fraction elimination and sympy."""
    dense = a.to_rows()
    rr, pivots = fraction_rref(dense)
    assert exactla.rank(a) == len(pivots)
    assert sorted(exactla._rref(a.nonzero_rows())) == pivots
    # each kernel vector: an int tuple in ker A, a positive multiple of the
    # oracle's vector, so the spans agree
    kern = exactla.kernel_basis(a)
    oracle = fraction_kernel(dense, a.cols)
    assert len(kern) == len(oracle) == a.cols - len(pivots)
    for v, w in zip(kern, oracle):
        assert type(v) is tuple and all(type(x) is int for x in v)
        assert not any(a.apply(v))
        assert is_positive_multiple(v, w)
    if a.rows and a.cols:
        assert len(sympy.Matrix(dense).nullspace()) == len(kern)
    # the quotient by the rows, given sparse or dense
    rows = [{j: x for j, x in enumerate(row) if x} for row in dense]
    if a.rows and a.cols:
        kept, red = _quotient_from_rref(*_sympy_rref(dense), a.cols)
    else:
        kept, red = list(range(a.cols)), identity_matrix(a.cols)
    for given_rows in (rows, dense):
        q = exactla.quotient(given_rows, a.cols)
        assert q.kept == kept
        assert q.reduction.entries == red.entries
        assert _canonical(q.reduction.entries.values())


# ----- the reduced read-off against back-substitution -----------------------------------
@st.composite
def shuffled_sparse_rows(draw):
    """(cols, rows): sparse rows of int and Fraction entries on 0-6 columns,
    in a shuffled order, sometimes none, sometimes with a column left zero
    on purpose and a row given twice."""
    cols = draw(st.integers(0, 6))
    blank = draw(st.integers(0, cols - 1)) if cols and draw(st.booleans()) else None
    allowed = [c for c in range(cols) if c != blank]
    entry = st.one_of(st.integers(-3, 3).filter(bool), nonzero)
    row = st.dictionaries(st.sampled_from(allowed), entry, max_size=3) if allowed else st.just({})
    rows = draw(st.lists(row, max_size=6))
    if rows and draw(st.booleans()):
        rows.append(dict(draw(st.sampled_from(rows))))
    return cols, draw(st.permutations(rows))


@settings(max_examples=300, deadline=None)
@given(shuffled_sparse_rows(), st.integers(1, 3))
def test_reduced_read_off_matches_back_substitution(case, parts):
    """Each kernel vector, each kept coordinate and reduction entry of the
    quotient, and the rank of the rows split over several matrices, are the
    back-substitution oracle's exactly."""
    cols, rows = case
    oracle = backsub_kernel(rows, cols)
    assert exactla.sparse_kernel(rows, cols) == [v for _, v in oracle]
    q = exactla.quotient(rows, cols)
    assert q.kept == [f for f, _ in oracle]
    assert q.reduction.entries == {
        (i, j): exactla._ratio(x, v[f]) for i, (f, v) in enumerate(oracle) for j, x in v.items()
    }
    assert _canonical(q.reduction.entries.values())
    mats = [
        SparseRationalMatrix(
            len(part), cols, {(i, j): x for i, row in enumerate(part) for j, x in row.items()}
        )
        for part in (rows[k::parts] for k in range(parts))
    ]
    assert exactla.rank(*mats) == cols - len(oracle)


def test_rank_stacks_matrices_on_one_column_count():
    """No matrices have rank 0, empty matrices add nothing, and matrices
    with different column counts are rejected."""
    a = SparseRationalMatrix.from_rows([[1, 2, 0]])
    assert exactla.rank() == 0
    assert exactla.rank(SparseRationalMatrix(0, 3)) == 0
    assert exactla.rank(a, SparseRationalMatrix(0, 3), a) == 1
    with pytest.raises(ValueError):
        exactla.rank(a, SparseRationalMatrix(1, 2))


def test_nonzero_rows_hold_each_nonzero_row():
    m = SparseRationalMatrix.from_rows([[0, 2, 0], [0, 0, 0], [Fraction(1, 3), 0, -1]])
    assert m.nonzero_rows() == [{1: 2}, {0: Fraction(1, 3), 2: -1}]


# ----- definiteness against the dense congruence -----------------------------------------
def _random_symmetric(rng, n, kind):
    """A symmetric n x n Fraction matrix: dense, sparse, B^T B for B with at
    most n rows (semidefinite), or a B^T B block beside a zero-diagonal block,
    shuffled (a hyperbolic pair left after the pivots)."""

    def entry():
        return Fraction(rng.randint(-5, 5), rng.randint(1, 3))

    def gram(k):
        b = [[entry() for _ in range(k)] for _ in range(rng.randint(0, k))]
        return [[sum((r[i] * r[j] for r in b), Fraction(0)) for j in range(k)] for i in range(k)]

    if kind == "gram":
        return gram(n)
    a = [[Fraction(0)] * n for _ in range(n)]
    if kind == "hyperbolic":
        m = rng.randint(0, n)
        for i, row in enumerate(gram(m)):
            a[i][:m] = row
    for i in range(n):
        for j in range(i, n):
            if kind == "dense" or (kind == "sparse" and rng.random() < 0.3):
                a[i][j] = a[j][i] = entry()
            elif kind == "hyperbolic" and m <= i < j and rng.random() < 0.5:
                a[i][j] = a[j][i] = entry()
    order = list(range(n))
    rng.shuffle(order)
    return [[a[i][j] for j in order] for i in order]


def _assert_matches_dense_oracle(g):
    """Verdict, witness and pivot record equal the dense congruence's, the
    witness printing the same, and every value is canonical (`_canonical`)."""
    got, want = exactla.definiteness(g), fraction_definiteness(g)
    assert got.verdict == want.verdict
    assert got.pivot_record == want.pivot_record
    assert _canonical(d for _, d in got.pivot_record)
    if want.witness is None:
        assert got.witness is None
    else:
        assert [str(x) for x in got.witness] == [str(x) for x in want.witness]
        assert got.witness == want.witness and _canonical(got.witness)
    return got


def test_definiteness_matches_dense_oracle_on_random_forms():
    rng = random.Random(20240525)
    seen = set()
    for kind in ("dense", "sparse", "gram", "hyperbolic"):
        for _ in range(750):
            rows = _random_symmetric(rng, rng.randint(0, 6), kind)
            cert = _assert_matches_dense_oracle(SparseRationalMatrix.from_rows(rows))
            negative_pivot = cert.pivot_record and cert.pivot_record[-1][1] < 0
            seen.add("hyperbolic" if cert.witness and not negative_pivot else cert.verdict)
    assert seen == {"positive-definite", "positive-semidefinite", "indefinite", "hyperbolic"}


@pytest.mark.parametrize(
    "lam_name, height", [("lam_refuted", 8), ("lam_typical", 9)], ids=["refuted-N8", "typical-N9"]
)
def test_definiteness_matches_dense_oracle_on_module_forms(d21, lam_name, height, request):
    """Every block form of an sl(2|1) truncation, one refuted and one certified."""
    mod = modules.simple_truncation(d21, request.getfixturevalue(lam_name), height)
    verdicts = {_assert_matches_dense_oracle(mod.blocks[nu].form).verdict for nu in mod.blocks}
    assert ("indefinite" in verdicts) == (lam_name == "lam_refuted")


# ----- row order ----------------------------------------------------------------------------
def _dependent_rows(rng):
    """A random Fraction matrix of up to 7 columns whose rows include
    combinations of the others and zero rows."""
    cols = rng.randint(1, 7)

    def entry():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))

    rows = [[entry() for _ in range(cols)] for _ in range(rng.randint(1, cols))]
    for _ in range(rng.randint(1, 4)):
        coeffs = [entry() for _ in rows]
        rows.append([sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(cols)])
    rows += [[Fraction(0)] * cols] * rng.randint(0, 2)
    rng.shuffle(rows)
    return rows


def _reordered(rows, rng):
    """The rows reversed, shortest first (fewest nonzero entries) and in one
    shuffled order."""
    shuffled = list(rows)
    rng.shuffle(shuffled)
    return [rows[::-1], sorted(rows, key=lambda r: sum(1 for x in r if x)), shuffled]


def test_row_order_changes_no_rank_kernel_or_quotient():
    """The RREF does not depend on the order of the rows, so neither do
    `rank`, `kernel_basis` and `quotient` (its kept coordinates and its
    reduction): on seeded random matrices with dependent rows and on every
    Dirac operator D of sl(2|3) -3,0|1,1,1 at N=6. No reader of `_rref`
    depends on the order of the rows."""
    rng = random.Random(20240601)
    inputs = [_dependent_rows(rng) for _ in range(300)]
    datum = build_root_datum(2, 3, 1, 1)
    lam = parse_weight("-3,0|1,1,1", 2, 3)
    coll = dirac.assemble_all(modules.simple_truncation(datum, lam, 6), 6)
    inputs += [block.D.to_rows() for block in coll.blocks.values() if block.dim]
    checked = 0
    for rows in inputs:
        m = SparseRationalMatrix.from_rows(rows)
        q = exactla.quotient(rows, m.cols)
        for other in _reordered(rows, rng):
            p = SparseRationalMatrix.from_rows(other)
            assert exactla.rank(p) == exactla.rank(m)
            assert exactla.kernel_basis(p) == exactla.kernel_basis(m)
            qp = exactla.quotient(other, m.cols)
            assert (qp.kept, qp.reduction) == (q.kept, q.reduction)
            checked += 1
    assert checked == 3 * len(inputs) > 1000
