"""Exact sparse linear algebra over the rationals.

An exact entry is an `int` when it is integral and a `Fraction` otherwise
(`_rat`), so integer matrices multiply and add on ints. Ranks, kernels and
quotient coordinates come from one sparse fraction-free elimination over
row dicts (`_rref`); kernels and quotients back-substitute its echelon
rows. Its pivots and row space are the RREF's, so none of the three depends
on the order of the input rows. A kernel is read sparse (`sparse_kernel`),
as column -> entry dicts, and `kernel_basis` densifies it. Definiteness
certificates for symmetric Gram matrices clear the same integer rows
(`_clear`) as a congruence, and only `quotient` and the pivots and witnesses
of `definiteness` divide.
Pivoting is deterministic, so results are reproducible bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

Rational = int | Fraction
Vector = tuple[Rational, ...]
# a row given sparse, column -> entry, or dense
Row = dict[int, Rational] | Sequence[Rational]


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

    def nonzero_rows(self) -> list[dict[int, Rational]]:
        """The nonzero rows as dicts column -> entry, in no order results depend on."""
        out: dict[int, dict[int, Rational]] = {}
        for (i, j), v in self.entries.items():
            out.setdefault(i, {})[j] = v
        return list(out.values())

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

    def _by_row(self) -> dict[int, list[tuple[int, Rational]]]:
        """Row index -> its (column, entry) pairs, for the products."""
        by_row: dict[int, list[tuple[int, Rational]]] = {}
        for (i, j), v in self.entries.items():
            by_row.setdefault(i, []).append((j, v))
        return by_row

    def matmul(self, other: "SparseRationalMatrix") -> "SparseRationalMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matmul")
        by_row = other._by_row()
        acc: dict[tuple[int, int], Rational] = {}
        for (i, k), a in self.entries.items():
            for j, b in by_row.get(k, ()):
                key = i, j
                acc[key] = acc.get(key, 0) + a * b
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


def intertwines(
    x: SparseRationalMatrix, src: SparseRationalMatrix, tgt: SparseRationalMatrix
) -> bool:
    """tgt x = x src, from one accumulation of tgt x - x src checked for all
    zeros: neither product is formed. Products of other shapes are never
    equal; a mismatch inside either product raises, as in `matmul`."""
    if (tgt.cols, x.cols) != (x.rows, src.rows):
        raise ValueError("dimension mismatch in intertwines")
    if (tgt.rows, src.cols) != (x.rows, x.cols):
        return False
    acc: dict[tuple[int, int], Rational] = {}
    by_row = x._by_row()
    for (i, k), a in tgt.entries.items():
        for j, b in by_row.get(k, ()):
            acc[i, j] = acc.get((i, j), 0) + a * b
    by_row = src._by_row()
    for (i, k), a in x.entries.items():
        for j, b in by_row.get(k, ()):
            acc[i, j] = acc.get((i, j), 0) - a * b
    return not any(acc.values())


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


def _clear(v: dict[int, int], e: dict[int, int], c: int) -> None:
    """Clear column c of v in place by the row e, fraction-free: v becomes
    (e[c] v - v[c] e) / gcd(e[c], v[c])."""
    a, b = e[c], v[c]
    g = math.gcd(a, b)
    a, b = a // g, b // g
    if a != 1:
        for j in v:
            v[j] *= a
    for j, y in e.items():
        x = v.get(j, 0) - b * y
        if x:
            v[j] = x
        else:
            del v[j]


def _primitive(v: dict[int, int]) -> dict[int, int]:
    """v divided by the gcd of its entries."""
    g = math.gcd(*v.values())
    return v if g == 1 else {j: x // g for j, x in v.items()}


def _integer_row(row: Row) -> dict[int, int]:
    """The row, sparse, times the lcm of its denominators: the integer row an
    elimination starts from."""
    items = list(row.items() if type(row) is dict else enumerate(row))
    den = math.lcm(*[x.denominator for _, x in items])
    return {j: int(x * den) for j, x in items if x}


def _rref(rows: Iterable[Row]) -> dict[int, dict[int, int]]:
    """One sparse fraction-free elimination: the echelon rows by pivot
    column. Each row is scaled to integers and its leftmost column cleared
    (`_clear`) while that is a kept pivot; a nonzero remainder is kept,
    primitive, with it as pivot. Kept rows lie at or right of their pivots,
    which are the RREF's, and span its row space."""
    echelon: dict[int, dict[int, int]] = {}
    for row in rows:
        v = _integer_row(row)
        while v:
            c = min(v)
            if c not in echelon:
                echelon[c] = _primitive(v)
                break
            _clear(v, echelon[c], c)
    return echelon


def rank(a: SparseRationalMatrix) -> int:
    return len(_rref(a.nonzero_rows()))


def _kernel(rows: Iterable[Row], cols: int) -> list[tuple[int, dict[int, int]]]:
    """(f, v) for each free column f of the rows' RREF, v its RREF kernel vector
    (1 at f, 0 at the other free columns) times a positive integer, primitive
    and sparse: back-substituted through the echelon rows, rightmost first."""
    echelon = _rref(rows)
    pivots = sorted(echelon, reverse=True)
    out = []
    for f in range(cols):
        if f not in echelon:
            v = {f: 1}
            for p in pivots:
                row = echelon[p]
                s = sum(row.get(j, 0) * x for j, x in v.items())
                if s:  # v[p] = -s / row[p], after scaling v by |row[p]| / g
                    g = math.gcd(row[p], s)
                    if (m := abs(row[p]) // g) != 1:
                        v = {j: x * m for j, x in v.items()}
                    v[p] = -s // g if row[p] > 0 else s // g
            out.append((f, _primitive(v)))
    return out


def sparse_kernel(rows: Iterable[Row], cols: int) -> list[dict[int, int]]:
    """Basis of the kernel of the rows, on `cols` columns, in primitive
    integer vectors, sparse (column -> nonzero entry): for each free column,
    a positive multiple of its RREF kernel vector. The rows may come in any
    order, from several matrices."""
    return [v for _, v in _kernel(rows, cols)]


def kernel_basis(a: SparseRationalMatrix) -> list[tuple[int, ...]]:
    """Basis of ker A, A·v = 0 for each: the vectors of `sparse_kernel` of
    its rows, dense."""
    return [
        tuple([v.get(j, 0) for j in range(a.cols)])
        for v in sparse_kernel(a.nonzero_rows(), a.cols)
    ]


@dataclass
class DefinitenessCertificate:
    verdict: str  # "positive-definite" | "positive-semidefinite" | "indefinite"
    witness: Vector | None  # for indefinite: v with v^T G v < 0 exactly
    pivot_record: list[tuple[int, Rational]]


def definiteness(g: SparseRationalMatrix) -> DefinitenessCertificate:
    """Symmetric Gaussian elimination with diagonal pivoting, on integer rows:
    active row k is c > 0 times row k of the remaining form beside, at
    columns n + j, c times its working vector (c itself at n + k). The pivot
    is the smallest active index with a nonzero diagonal; each active row is
    cleared against it (`_clear`), so c stays positive: the pass ends at the
    first negative pivot. Pivots and witnesses divide by c.

    Positive-definite iff all pivots positive with full rank; semidefinite iff
    pivots nonnegative with deficient rank; otherwise indefinite with an exact
    negative-value witness vector.
    """
    if not g.is_symmetric():
        raise ValueError("definiteness requires a symmetric matrix")
    n = g.rows
    rows = [{n + k: 1} for k in range(n)]
    for (i, j), x in g.entries.items():
        rows[i][j] = x
    active = {k: _integer_row(row) for k, row in enumerate(rows)}

    def over(x: int, c: int) -> Rational:
        """x / c for a row's coordinate c > 0: a Fraction only if c does not
        divide x (c is 1 on every 1 x 1 form)."""
        return x // c if not x % c else Fraction(x, c)

    def coords(k: int, v: dict[int, int]) -> Vector:
        c = v[n + k]
        return tuple([over(v.get(n + j, 0), c) for j in range(n)])

    pivot_record: list[tuple[int, Rational]] = []
    while active:
        piv = next((k for k, v in active.items() if k in v), None)
        if piv is None:
            # all active diagonals zero: the first row k with an entry x, at
            # its first column l > k, makes e_k - sign(x) e_l of value
            # -2|x| < 0 in the remaining form; without one that form is zero
            k = next((k for k, v in active.items() if min(v) < n), None)
            if k is None:
                break
            l = min(active[k])
            s = 1 if active[k][l] > 0 else -1
            w = zip(coords(k, active[k]), coords(l, active[l]))
            return DefinitenessCertificate(
                "indefinite", tuple([_rat(x - s * y) for x, y in w]), pivot_record
            )
        e = active.pop(piv)
        d = over(e[piv], e[n + piv])
        pivot_record.append((piv, d))
        if d < 0:
            return DefinitenessCertificate("indefinite", coords(piv, e), pivot_record)
        for v in active.values():
            if piv in v:
                _clear(v, e, piv)
    verdict = "positive-semidefinite" if active else "positive-definite"
    return DefinitenessCertificate(verdict, None, pivot_record)


@dataclass
class Quotient:
    """Coordinates on V / span(rows): the kept ambient coordinates form the
    quotient basis, and column j of `reduction` (len(kept) x dim V) holds the
    quotient coordinates of the class of e_j."""

    kept: list[int]
    reduction: SparseRationalMatrix


def quotient(rows: Sequence[Row], dim: int) -> Quotient:
    """V / span(rows) for V of dimension dim: the free coordinates of the rows'
    RREF are kept, and row i of the reduction is the RREF kernel vector of the
    i-th kept coordinate, normalized there to 1. No rows give the identity."""
    for row in rows:
        if (max(row, default=-1) >= dim) if type(row) is dict else len(row) != dim:
            raise ValueError("row dimension mismatch in quotient")
    kernel = _kernel(rows, dim)
    entries = {
        (i, j): x // v[f] if not x % v[f] else Fraction(x, v[f])
        for i, (f, v) in enumerate(kernel)
        for j, x in v.items()
    }
    return Quotient([f for f, _ in kernel], SparseRationalMatrix(len(kernel), dim, entries))
