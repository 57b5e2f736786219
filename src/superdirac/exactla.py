"""Exact sparse linear algebra over the rationals.

An exact entry is an `int` when it is integral and a `Fraction` otherwise
(`_rat`), so integer matrices multiply and add on ints. Ranks, kernels,
independent subsets and quotient coordinates come from one sparse
fraction-free elimination over row dicts (`_rref`); kernels and quotients
back-substitute its echelon rows, and only `quotient` divides. Definiteness
certificates for symmetric Gram matrices come from a symmetric congruence.
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


def _rref(rows: Iterable[Row]) -> tuple[dict[int, dict[int, int]], list[int]]:
    """One sparse fraction-free elimination: (echelon rows by pivot column,
    indices of the input rows that raised the rank). Each row is scaled to
    integers and its leftmost column cleared (`_clear`) while that is a kept
    pivot; a nonzero remainder is kept, primitive, with it as pivot. Kept rows
    lie at or right of their pivots, which are the RREF's."""
    echelon: dict[int, dict[int, int]] = {}
    raised: list[int] = []
    for i, row in enumerate(rows):
        items = row.items() if type(row) is dict else list(enumerate(row))
        den = math.lcm(*[x.denominator for _, x in items])
        v = {j: int(x * den) for j, x in items if x}
        while v:
            c = min(v)
            if c not in echelon:
                echelon[c] = _primitive(v)
                raised.append(i)
                break
            _clear(v, echelon[c], c)
    return echelon, raised


def rank(a: SparseRationalMatrix) -> int:
    return len(_rref(a.nonzero_rows())[0])


def _kernel(rows: Iterable[Row], cols: int) -> list[tuple[int, dict[int, int]]]:
    """(f, v) for each free column f of the rows' RREF, v its RREF kernel vector
    (1 at f, 0 at the other free columns) times a positive integer, primitive
    and sparse: back-substituted through the echelon rows, rightmost first."""
    echelon = _rref(rows)[0]
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


def kernel_basis(a: SparseRationalMatrix) -> list[tuple[int, ...]]:
    """Basis of ker A in primitive integer vectors, A·v = 0 for each: for each
    free column, a positive multiple of its RREF kernel vector."""
    basis = _kernel(a.nonzero_rows(), a.cols)
    return [tuple([v.get(j, 0) for j in range(a.cols)]) for _, v in basis]


def independent_modulo(span: Sequence[Row], candidates: Sequence[Row]) -> list[int]:
    """Indices of the candidates that, taken in order, are independent modulo
    span(span) and the candidates chosen before them: the candidates that
    raise the rank of one elimination of the span rows and then the
    candidates."""
    raised = _rref([*span, *candidates])[1]
    return [i - len(span) for i in raised if i >= len(span)]


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
