"""Exact sparse linear algebra over the rationals.

Kernels, ranks, solutions, independent subsets and quotient coordinates all
come from one reduced row echelon form (`_rref`); definiteness certificates
for symmetric Gram matrices come from a symmetric congruence. Pivoting is
deterministic, so results are reproducible bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

Vector = tuple[Fraction, ...]


def _rat(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass
class SparseRationalMatrix:
    rows: int
    cols: int
    entries: dict[tuple[int, int], Fraction] = field(default_factory=dict)

    @staticmethod
    def from_rows(data: Sequence[Sequence]) -> "SparseRationalMatrix":
        rows = len(data)
        cols = len(data[0]) if rows else 0
        m = SparseRationalMatrix(rows, cols)
        for i, row in enumerate(data):
            if len(row) != cols:
                raise ValueError("ragged rows")
            for j, v in enumerate(row):
                m.set(i, j, _rat(v))
        return m

    @staticmethod
    def identity(n: int) -> "SparseRationalMatrix":
        m = SparseRationalMatrix(n, n)
        for i in range(n):
            m.set(i, i, Fraction(1))
        return m

    def get(self, i: int, j: int) -> Fraction:
        return self.entries.get((i, j), Fraction(0))

    def set(self, i: int, j: int, v: Fraction) -> None:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError("matrix index out of range")
        if v == 0:
            self.entries.pop((i, j), None)
        else:
            self.entries[(i, j)] = v

    def add_to(self, i: int, j: int, v: Fraction) -> None:
        self.set(i, j, self.get(i, j) + v)

    def to_rows(self) -> list[list[Fraction]]:
        out = [[Fraction(0)] * self.cols for _ in range(self.rows)]
        for (i, j), v in self.entries.items():
            out[i][j] = v
        return out

    def submatrix(self, rows: list[int], cols: list[int]) -> "SparseRationalMatrix":
        """The entries at the given rows and columns, in the order given."""
        row_pos = {r: i for i, r in enumerate(rows)}
        col_pos = {c: j for j, c in enumerate(cols)}
        out = SparseRationalMatrix(len(rows), len(cols))
        for (i, j), v in self.entries.items():
            if i in row_pos and j in col_pos:
                out.entries[(row_pos[i], col_pos[j])] = v
        return out

    def transpose(self) -> "SparseRationalMatrix":
        t = SparseRationalMatrix(self.cols, self.rows)
        for (i, j), v in self.entries.items():
            t.entries[(j, i)] = v
        return t

    def is_zero(self) -> bool:
        return not self.entries

    def is_symmetric(self) -> bool:
        if self.rows != self.cols:
            return False
        return all(self.get(j, i) == v for (i, j), v in self.entries.items())

    def matmul(self, other: "SparseRationalMatrix") -> "SparseRationalMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matmul")
        by_row: dict[int, list[tuple[int, Fraction]]] = {}
        for (i, j), v in other.entries.items():
            by_row.setdefault(i, []).append((j, v))
        acc: dict[tuple[int, int], Fraction] = {}
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

    def scale(self, c) -> "SparseRationalMatrix":
        c = _rat(c)
        out = SparseRationalMatrix(self.rows, self.cols)
        if c != 0:
            for key, v in self.entries.items():
                out.entries[key] = c * v
        return out

    def apply(self, v: Sequence[Fraction]) -> Vector:
        if len(v) != self.cols:
            raise ValueError("dimension mismatch in apply")
        out = [Fraction(0)] * self.rows
        for (i, j), a in self.entries.items():
            if v[j]:
                out[i] += a * v[j]
        return tuple(out)


def vstack(mats: Sequence[SparseRationalMatrix], cols: int) -> SparseRationalMatrix:
    """The matrices stacked top to bottom; each must have ``cols`` columns.
    No matrices give the 0 x cols matrix."""
    out = SparseRationalMatrix(0, cols)
    for m in mats:
        if m.cols != cols:
            raise ValueError("column mismatch in vstack")
        for (i, j), v in m.entries.items():
            out.entries[(out.rows + i, j)] = v
        out.rows += m.rows
    return out


def _rref(rows_data: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (matrix, pivot column list).

    Deterministic: pivot = first nonzero entry scanning rows top-down within
    each column left-to-right (smallest row index, then column index).
    """
    a = [row[:] for row in rows_data]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(nrows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return a, pivots


def rank(a: SparseRationalMatrix) -> int:
    if not a.entries:
        return 0
    _, pivots = _rref(a.to_rows())
    return len(pivots)


def kernel_basis(a: SparseRationalMatrix) -> list[Vector]:
    """Basis of ker A; vectors are exact and A·v = 0 for each."""
    if a.cols == 0:
        return []
    if a.rows == 0:
        return [tuple(Fraction(1 if i == j else 0) for i in range(a.cols)) for j in range(a.cols)]
    rr, pivots = _rref(a.to_rows())
    pivot_set = set(pivots)
    free = [c for c in range(a.cols) if c not in pivot_set]
    basis: list[Vector] = []
    for fcol in free:
        v = [Fraction(0)] * a.cols
        v[fcol] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rr[r][fcol]
        basis.append(tuple(v))
    return basis


def independent_modulo(
    span: Sequence[Sequence[Fraction]], candidates: Sequence[Vector]
) -> list[int]:
    """Indices of the candidates that, taken in order, are independent modulo
    span(span) and the candidates chosen before them.

    These are the candidate pivot columns of one RREF of the matrix whose
    columns are the span vectors and then the candidates: a column is a pivot
    exactly when it is independent of the columns before it.
    """
    _, pivots = _rref([list(row) for row in zip(*span, *candidates)])
    return [p - len(span) for p in pivots if p >= len(span)]


def solve(a: SparseRationalMatrix, b: Sequence[Fraction]) -> Vector | None:
    """One exact solution of A x = b, or None if inconsistent."""
    if len(b) != a.rows:
        raise ValueError("dimension mismatch in solve")
    aug = [row + [bb] for row, bb in zip(a.to_rows(), (_rat(x) for x in b))]
    if not aug:
        return tuple(Fraction(0) for _ in range(a.cols))
    rr, pivots = _rref(aug)
    if a.cols in pivots:
        return None
    x = [Fraction(0)] * a.cols
    for r, pc in enumerate(pivots):
        x[pc] = rr[r][a.cols]
    return tuple(x)


@dataclass
class DefinitenessCertificate:
    verdict: str  # "positive-definite" | "positive-semidefinite" | "indefinite"
    rank: int
    witness: Vector | None  # for indefinite: v with v^T G v < 0 exactly
    pivot_record: list[tuple[int, Fraction]]

    def to_json(self) -> dict:
        out = {
            "verdict": self.verdict,
            "rank": self.rank,
            "pivots": [[i, str(p)] for i, p in self.pivot_record],
        }
        if self.witness is not None:
            out["witness"] = [str(x) for x in self.witness]
        return out


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
    pivot_record: list[tuple[int, Fraction]] = []
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
            return DefinitenessCertificate("indefinite", r, tuple(w), pivot_record)
        d = a[piv][piv]
        pivot_record.append((piv, d))
        if d < 0:
            return DefinitenessCertificate(
                "indefinite", r, tuple(coords[piv]), pivot_record
            )
        r += 1
        active.remove(piv)
        # eliminate: replace e_k by e_k - (a[k][piv]/d) e_piv for active k
        for k in active:
            f = a[k][piv] / d
            if f == 0:
                continue
            coords[k] = [ck - f * cp for ck, cp in zip(coords[k], coords[piv])]
            for l in active:
                a[k][l] -= f * a[piv][l]
            a[k][piv] = Fraction(0)
        for l in active:
            a[piv][l] = Fraction(0)
    if r == n:
        return DefinitenessCertificate("positive-definite", r, None, pivot_record)
    return DefinitenessCertificate("positive-semidefinite", r, None, pivot_record)


@dataclass
class Quotient:
    """Coordinates on V / span(rows): the kept ambient coordinates form the
    quotient basis, and column j of `reduction` (len(kept) x dim V) holds the
    quotient coordinates of the class of e_j."""

    kept: list[int]
    reduction: SparseRationalMatrix


def quotient(rows: Sequence[Sequence[Fraction]], dim: int) -> Quotient:
    """V / span(rows) for V of dimension dim, from one RREF of the rows: the
    non-pivot coordinates are kept, and each pivot coordinate is congruent to
    minus the kept part of its row. No rows give the identity."""
    if any(len(row) != dim for row in rows):
        raise ValueError("row dimension mismatch in quotient")
    rr, pivots = _rref([list(row) for row in rows]) if rows else ([], [])
    pivot_set = set(pivots)
    kept = [c for c in range(dim) if c not in pivot_set]
    red = SparseRationalMatrix(len(kept), dim)
    for qi, c in enumerate(kept):
        red.entries[(qi, c)] = Fraction(1)
    for r, pc in enumerate(pivots):
        for qi, c in enumerate(kept):
            if rr[r][c]:
                red.entries[(qi, pc)] = -rr[r][c]
    return Quotient(kept, red)
