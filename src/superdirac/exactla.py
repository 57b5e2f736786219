"""Exact sparse linear algebra over the rationals.

An exact entry is an `int` when it is integral and a `Fraction` otherwise
(`_rat`), so integer matrices multiply and add on ints. Kernels, ranks,
independent subsets and quotient coordinates all come from one fraction-free
elimination loop (`_rref`): ranks read its forward pass only, kernels are
integer vectors, and only `quotient` divides by the common denominator.
Definiteness certificates for symmetric Gram matrices come from a symmetric
congruence. Pivoting is deterministic, so results are reproducible
bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

Rational = int | Fraction
Vector = tuple[Rational, ...]


def _rat(x) -> Rational:
    """x as an exact entry: an int when integral, else a Fraction."""
    if type(x) is int:
        return x
    if not isinstance(x, Fraction):
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


@dataclass
class SparseRationalMatrix:
    rows: int
    cols: int
    entries: dict[tuple[int, int], Rational] = field(default_factory=dict)

    @staticmethod
    def from_rows(data: Sequence[Sequence]) -> "SparseRationalMatrix":
        rows = len(data)
        cols = len(data[0]) if rows else 0
        if any(len(row) != cols for row in data):
            raise ValueError("ragged rows")
        entries = {(i, j): _rat(v) for i, row in enumerate(data) for j, v in enumerate(row) if v}
        return SparseRationalMatrix(rows, cols, entries)

    def to_rows(self) -> list[list[Rational]]:
        out = [[0] * self.cols for _ in range(self.rows)]
        for (i, j), v in self.entries.items():
            out[i][j] = v
        return out

    def submatrix(self, rows: list[int], cols: list[int]) -> "SparseRationalMatrix":
        """The entries at the given rows and columns, in the order given."""
        row_pos = {r: i for i, r in enumerate(rows)}
        col_pos = {c: j for j, c in enumerate(cols)}
        entries = {
            (row_pos[i], col_pos[j]): v
            for (i, j), v in self.entries.items()
            if i in row_pos and j in col_pos
        }
        return SparseRationalMatrix(len(rows), len(cols), entries)

    def transpose(self) -> "SparseRationalMatrix":
        entries = {(j, i): v for (i, j), v in self.entries.items()}
        return SparseRationalMatrix(self.cols, self.rows, entries)

    def is_zero(self) -> bool:
        return not self.entries

    def is_symmetric(self) -> bool:
        if self.rows != self.cols:
            return False
        return all(self.entries.get((j, i), 0) == v for (i, j), v in self.entries.items())

    def matmul(self, other: "SparseRationalMatrix") -> "SparseRationalMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matmul")
        by_row: dict[int, list[tuple[int, Rational]]] = {}
        for (i, j), v in other.entries.items():
            by_row.setdefault(i, []).append((j, v))
        acc: dict[tuple[int, int], Rational] = {}
        for (i, k), a in self.entries.items():
            for j, b in by_row.get(k, ()):
                acc[i, j] = acc.get((i, j), 0) + a * b
        entries = {key: v for key, v in acc.items() if v}
        return SparseRationalMatrix(self.rows, other.cols, entries)

    def add(self, other: "SparseRationalMatrix") -> "SparseRationalMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("dimension mismatch in add")
        acc = dict(self.entries)
        for key, v in other.entries.items():
            acc[key] = acc.get(key, 0) + v
        entries = {key: v for key, v in acc.items() if v}
        return SparseRationalMatrix(self.rows, self.cols, entries)

    def apply(self, v: Sequence[Rational]) -> Vector:
        if len(v) != self.cols:
            raise ValueError("dimension mismatch in apply")
        out = [0] * self.rows
        for (i, j), a in self.entries.items():
            if v[j]:
                out[i] += a * v[j]
        return tuple(out)


def vstack(mats: Sequence[SparseRationalMatrix], cols: int) -> SparseRationalMatrix:
    """The matrices stacked top to bottom; each must have ``cols`` columns.
    No matrices give the 0 x cols matrix."""
    entries, rows = {}, 0
    for m in mats:
        if m.cols != cols:
            raise ValueError("column mismatch in vstack")
        entries.update(((rows + i, j), v) for (i, j), v in m.entries.items())
        rows += m.rows
    return SparseRationalMatrix(rows, cols, entries)


def _integral_row(row: Sequence[Rational]) -> list[int]:
    """The row times the lcm of its denominators; its RREF is unchanged."""
    if all(type(x) is int for x in row):
        return list(row)
    den = math.lcm(*(x.denominator for x in row))
    return [x.numerator * (den // x.denominator) for x in row]


def _rref(
    rows_data: Sequence[Sequence[Rational]], forward: bool = False
) -> tuple[list[list[int]], int, list[int]]:
    """Fraction-free reduced row echelon form: (numerators, den, pivot column
    list) with RREF = numerators / den.

    Each row is first scaled to integers. Then fraction-free Gauss-Jordan
    elimination (the scheme of sympy's ``ddm_irref_den``): the pivot row
    eliminates its column from every other row by integer cross
    multiplication, and every row is divided exactly by the previous pivot,
    so after each step all pivot entries equal the current pivot. The pivot
    is the first nonzero entry scanning rows top-down within each column
    left-to-right. With `forward`, only the rows below each pivot are
    eliminated (Bareiss): the pivots are the same, the rows only an echelon
    form.
    """
    a = [_integral_row(row) for row in rows_data]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    pivots: list[int] = []
    den = 1
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        prow = a[r]
        p = prow[c]
        for i in range(r + 1 if forward else 0, nrows):
            if i == r:
                continue
            row = a[i]
            f = row[c]
            if f:
                a[i] = [(p * x - f * y) // den for x, y in zip(row, prow)]
            elif p != den:
                a[i] = [p * x // den for x in row]
        den = p
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return a, den, pivots


def rank(a: SparseRationalMatrix) -> int:
    if not a.entries:
        return 0
    return len(_rref(a.to_rows(), forward=True)[2])


def kernel_basis(a: SparseRationalMatrix) -> list[tuple[int, ...]]:
    """Basis of ker A in integer vectors, A·v = 0 for each: |den| times the
    RREF vector of each free column."""
    if a.cols == 0:
        return []
    if a.rows == 0:
        return [tuple(1 if i == j else 0 for i in range(a.cols)) for j in range(a.cols)]
    num, den, pivots = _rref(a.to_rows())
    pivot_set = set(pivots)
    free = [c for c in range(a.cols) if c not in pivot_set]
    sign = -1 if den > 0 else 1  # -sign(den)
    basis = []
    for fcol in free:
        v = [0] * a.cols
        v[fcol] = abs(den)
        for r, pc in enumerate(pivots):
            v[pc] = sign * num[r][fcol]
        basis.append(tuple(v))
    return basis


def independent_modulo(
    span: Sequence[Sequence[Rational]], candidates: Sequence[Vector]
) -> list[int]:
    """Indices of the candidates that, taken in order, are independent modulo
    span(span) and the candidates chosen before them.

    These are the candidate pivot columns of one RREF of the matrix whose
    columns are the span vectors and then the candidates: a column is a pivot
    exactly when it is independent of the columns before it.
    """
    pivots = _rref([list(row) for row in zip(*span, *candidates)])[2]
    return [p - len(span) for p in pivots if p >= len(span)]


@dataclass
class DefinitenessCertificate:
    verdict: str  # "positive-definite" | "positive-semidefinite" | "indefinite"
    witness: Vector | None  # for indefinite: v with v^T G v < 0 exactly
    pivot_record: list[tuple[int, Rational]]


def definiteness(g: SparseRationalMatrix) -> DefinitenessCertificate:
    """Symmetric Gaussian elimination with diagonal pivoting.

    Positive-definite iff all pivots positive with full rank; semidefinite iff
    pivots nonnegative with deficient rank; otherwise indefinite with an exact
    negative-value witness vector.
    """
    if not g.is_symmetric():
        raise ValueError("definiteness requires a symmetric matrix")
    n = g.rows
    a = g.to_rows()
    # Track the congruence: a = L^T G L restricted step by step; to produce a
    # witness we track, for each working coordinate, its expression in the
    # original coordinates.
    coords = [[Fraction(1 if i == j else 0) for i in range(n)] for j in range(n)]
    active = list(range(n))
    pivot_record: list[tuple[int, Rational]] = []
    r = 0
    while active:
        # deterministic pivot: smallest active index with nonzero diagonal
        piv = next((k for k in active if a[k][k] != 0), None)
        if piv is None:
            # all active diagonals zero; if any off-diagonal entry is nonzero
            # the form is indefinite (hyperbolic pair), else it is zero here.
            off = None
            for k in active:
                for l in active:
                    if l > k and a[k][l] != 0:
                        off = (k, l)
                        break
                if off:
                    break
            if off is None:
                break
            k, l = off
            # v = e_k - sign(a[k][l]) e_l has value -2|a[k][l]| < 0
            s = 1 if a[k][l] > 0 else -1
            w = [ck - s * cl for ck, cl in zip(coords[k], coords[l])]
            return DefinitenessCertificate("indefinite", tuple(w), pivot_record)
        d = a[piv][piv]
        pivot_record.append((piv, d))
        if d < 0:
            return DefinitenessCertificate("indefinite", tuple(coords[piv]), pivot_record)
        r += 1
        active.remove(piv)
        # eliminate: replace e_k by e_k - (a[k][piv]/d) e_piv for active k
        for k in active:
            f = Fraction(a[k][piv], d)
            if f == 0:
                continue
            coords[k] = [ck - f * cp for ck, cp in zip(coords[k], coords[piv])]
            for l in active:
                a[k][l] -= f * a[piv][l]
            a[k][piv] = Fraction(0)
        for l in active:
            a[piv][l] = Fraction(0)
    if r == n:
        return DefinitenessCertificate("positive-definite", None, pivot_record)
    return DefinitenessCertificate("positive-semidefinite", None, pivot_record)


@dataclass
class Quotient:
    """Coordinates on V / span(rows): the kept ambient coordinates form the
    quotient basis, and column j of `reduction` (len(kept) x dim V) holds the
    quotient coordinates of the class of e_j."""

    kept: list[int]
    reduction: SparseRationalMatrix


def quotient(rows: Sequence[Sequence[Rational]], dim: int) -> Quotient:
    """V / span(rows) for V of dimension dim, from one RREF of the rows: the
    non-pivot coordinates are kept, and each pivot coordinate is congruent to
    minus the kept part of its row. No rows give the identity."""
    if any(len(row) != dim for row in rows):
        raise ValueError("row dimension mismatch in quotient")
    num, den, pivots = _rref(rows) if rows else ([], 1, [])
    pivot_set = set(pivots)
    kept = [c for c in range(dim) if c not in pivot_set]
    entries = {(qi, c): 1 for qi, c in enumerate(kept)}
    entries.update(
        ((qi, pc), _rat(Fraction(-num[r][c], den)))
        for r, pc in enumerate(pivots)
        for qi, c in enumerate(kept)
        if num[r][c]
    )
    return Quotient(kept, SparseRationalMatrix(len(kept), dim, entries))
