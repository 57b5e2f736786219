"""Root datum of gl(m|n)/sl(m|n) with the real form su(p,q|n).

Weights live in h* with coordinates in the basis eps_1..eps_m, del_1..del_n.
The bilinear form is (eps_i, eps_j) = delta_ij, (del_i, del_j) = -delta_ij,
(eps, del) = 0.  The odd positive system is the non-standard one
n1+ = p1 (+) q2 determined by the signature (p, q): eps_l - del_c for l <= p
and del_c - eps_l for l > p.

A `Weight` holds integer numerators over one positive denominator, in lowest
terms, and its hash, computed once: arithmetic, equality, hashing, heights
and pairings run on ints (two denominators are first scaled to their lcm),
and its coordinates read as in `exactla._rat`, ints when integral.

Every root of gl(m|n) has integer coordinates, so a weight of a highest-weight
module is its base (L, or L - rho1 on the Dirac blocks) minus an integer
vector, its drop.  The engine keys its blocks, basis entries and generator
matrices by drops (`Drop`, tuples of ints) and builds a `Weight` only at the
boundary (`Weight.lower`).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from . import exactla
from .exactla import Rational, _rat

# Integer eps/del coordinates of base - weight for a fixed base weight.
Drop = tuple[int, ...]


def _ratio(a: int, den: int) -> Rational:
    """a / den as an exact entry (`exactla._rat`)."""
    return a // den if a % den == 0 else Fraction(a, den)


class Weight:
    """A point of h*: the integers `num` (m eps coordinates, then del) over
    the positive denominator `den`, in lowest terms.  Immutable by contract."""

    __slots__ = ("num", "den", "m", "_hash")

    def __init__(self, eps: Iterable, del_: Iterable):
        eps = [_rat(x) for x in eps]
        coords = eps + [_rat(x) for x in del_]
        den = math.lcm(*(x.denominator for x in coords))
        num = tuple(x.numerator * (den // x.denominator) for x in coords)
        self.num, self.den, self.m, self._hash = num, den, len(eps), hash((num, den))

    def coords(self) -> tuple[Rational, ...]:
        return self.num if self.den == 1 else tuple(_ratio(a, self.den) for a in self.num)

    eps = property(lambda self: self.coords()[: self.m], doc="The eps coordinates.")
    del_ = property(lambda self: self.coords()[self.m :], doc="The del coordinates.")
    n = property(lambda self: len(self.num) - self.m, doc="The number of del coordinates.")

    def __eq__(self, other) -> bool:
        if other.__class__ is not Weight:
            return NotImplemented
        return (self.num, self.den, self.m) == (other.num, other.den, other.m)

    def __hash__(self) -> int:
        return self._hash

    def _combine(self, other: "Weight", op) -> "Weight":
        _same_shape(self, other)
        d1, d2 = self.den, other.den
        if d1 == d2:
            return _from_num(tuple(map(op, self.num, other.num)), d1, self.m)
        den = math.lcm(d1, d2)
        k1, k2 = den // d1, den // d2
        num = tuple(op(a * k1, b * k2) for a, b in zip(self.num, other.num))
        return _from_num(num, den, self.m)

    def __add__(self, other: "Weight") -> "Weight":
        return self._combine(other, operator.add)

    def __sub__(self, other: "Weight") -> "Weight":
        return self._combine(other, operator.sub)

    def lower(self, drop: Drop) -> "Weight":
        """self minus the integer vector `drop` (eps coordinates, then del)."""
        if len(drop) != len(self.num):
            raise ValueError(f"a drop of length {len(drop)} from {self.text()}")
        den = self.den
        if den == 1:
            return _from_num(tuple(map(operator.sub, self.num, drop)), 1, self.m)
        return _from_num(tuple(a - den * b for a, b in zip(self.num, drop)), den, self.m)

    def __neg__(self) -> "Weight":
        return _from_num(tuple(-a for a in self.num), self.den, self.m)

    def scale(self, c) -> "Weight":
        c = _rat(c)
        num = tuple(c.numerator * a for a in self.num)
        return _from_num(num, c.denominator * self.den, self.m)

    def is_zero(self) -> bool:
        return not any(self.num)

    def text(self) -> str:
        den, out = self.den, []
        for a in self.num:  # str(Fraction(a, den)), without building it
            g = math.gcd(a, den)
            out.append(str(a // g) if g == den else f"{a // g}/{den // g}")
        return ",".join(out[: self.m]) + "|" + ",".join(out[self.m :])

    def __repr__(self) -> str:
        return f"Weight({self.text()!r})"

    __str__ = text


def _from_num(num: tuple[int, ...], den: int, m: int) -> Weight:
    """The weight num / den, brought to lowest terms."""
    g = math.gcd(den, *num) if den != 1 else 1
    if g != 1:
        num, den = tuple(a // g for a in num), den // g
    w = object.__new__(Weight)
    w.num, w.den, w.m, w._hash = num, den, m, hash((num, den))
    return w


def _same_shape(u: Weight, v: Weight) -> None:
    if u.m != v.m or len(u.num) != len(v.num):
        raise ValueError(f"weights of different shape: {u.text()} and {v.text()}")


def parse_weight(text: str, m: int, n: int) -> Weight:
    """Parse "a1,..,am|b1,..,bn" with integer or p/q entries."""
    if "|" not in text:
        raise ValueError(f"weight {text!r} lacks the '|' separator")
    left, right = text.split("|", 1)

    def parse_side(side: str, count: int, what: str) -> tuple[Rational, ...]:
        parts = [s.strip() for s in side.split(",")] if side.strip() else []
        if len(parts) != count:
            raise ValueError(f"expected {count} {what} coordinates, got {len(parts)}")
        try:
            return tuple(_rat(s) for s in parts)
        except ZeroDivisionError as exc:
            raise ValueError(f"zero denominator in the {what} coordinates") from exc

    return Weight(parse_side(left, m, "eps"), parse_side(right, n, "del"))


def pairing(w1: Weight, w2: Weight) -> Rational:
    """The symmetric bilinear form of signature (+1)^m (+) (-1)^n."""
    _same_shape(w1, w2)
    m, u, v = w1.m, w1.num, w2.num
    s = sum(map(operator.mul, u[:m], v[:m])) - sum(map(operator.mul, u[m:], v[m:]))
    return _ratio(s, w1.den * w2.den)


@dataclass(frozen=True)
class Root:
    """A root of gl(m|n): +-(eps_i-eps_j), +-(del_k-del_l) or +-(eps_r-del_s).
    Its parity is the list it sits in (`RootDatum.pos_even` or `pos_odd`)."""

    weight: Weight
    compactness: str  # "compact" | "noncompact" | "not-applicable"

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.weight.text()


@dataclass(frozen=True)
class WeylElement:
    """An element of W = S_m x S_n, stored as a pair of permutations.

    sigma[i] = j means coordinate eps_{i+1} is sent to position eps_{j+1};
    the action on weights permutes coordinates accordingly.
    """

    sigma: tuple[int, ...]  # permutation of range(m)
    tau: tuple[int, ...]  # permutation of range(n)

    def apply(self, w: Weight) -> Weight:
        m, num = w.m, [0] * len(w.num)
        for i, j in enumerate(self.sigma):
            num[j] = w.num[i]
        for i, j in enumerate(self.tau):
            num[m + j] = w.num[m + i]
        return _from_num(tuple(num), w.den, m)


def _half_sum(roots: Sequence[Root], zero: Weight) -> Weight:
    return functools.reduce(operator.add, (r.weight for r in roots), zero).scale(Fraction(1, 2))


@dataclass
class RootDatum:
    """Root data of gl(m|n) with the non-standard odd positive system."""

    m: int
    n: int
    p: int
    q: int
    pos_even: list[Root] = field(default_factory=list)
    pos_odd: list[Root] = field(default_factory=list)
    pos_compact: list[Root] = field(default_factory=list)
    pos_noncompact: list[Root] = field(default_factory=list)
    rho0: Weight | None = None
    rho1: Weight | None = None
    rho: Weight | None = None
    rho_c: Weight | None = None
    rho_n: Weight | None = None
    # odd basis table: index k in 0..mn-1 -> (matrix-unit (i,j) of raising
    # generator r_k, matrix-unit of lowering generator l_k, sign of l_k)
    odd_raising: list[tuple[int, int]] = field(default_factory=list)
    odd_lowering: list[tuple[int, int]] = field(default_factory=list)
    odd_lowering_sign: list[int] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    # ----- derived conveniences -------------------------------------------------
    @property
    def mn(self) -> int:
        return self.m * self.n

    def zero(self) -> Weight:
        return _from_num((0,) * (self.m + self.n), 1, self.m)

    def root_of_unit(self, i: int, j: int) -> Weight:
        """Root of the matrix unit E_ij (0-based), i.e. eps/del_i - eps/del_j."""
        c = [0] * (self.m + self.n)
        c[i] += 1
        c[j] -= 1
        return _from_num(tuple(c), 1, self.m)

    # u-order: eps_1..eps_p, del_1..del_n, eps_{p+1}..eps_m.  In this coordinate
    # order the non-standard positive system is the standard one, so height is
    # the linear functional with ht(u_a - u_b) = b - a.
    @functools.cached_property
    def _u_positions(self) -> tuple[int, ...]:
        pos = [0] * (self.m + self.n)
        order = list(range(self.p)) + [self.m + c for c in range(self.n)] + list(
            range(self.p, self.m)
        )
        for place, idx in enumerate(order):
            pos[idx] = place
        return tuple(pos)

    def height(self, w: Weight) -> Rational:
        """Height of a nonnegative-root-lattice element (linear functional)."""
        return _ratio(-sum(map(operator.mul, self._u_positions, w.num)), w.den)

    def root_sort_key(self, w: Weight):
        return (self.height(w), w.coords())

    def drop_key(self, drop: Drop) -> tuple[int, Drop]:
        """`root_sort_key` of the weight with integer coordinates `drop`."""
        return (-sum(map(operator.mul, self._u_positions, drop)), drop)

    def admissible_highest_weight(self, lam: Weight) -> bool:
        same_shape = (lam.m, lam.n) == (self.m, self.n)
        return same_shape and (self.m != self.n or not sum(lam.num))

    def weyl_group(self) -> list[WeylElement]:
        return [
            WeylElement(sigma, tau)
            for sigma in itertools.permutations(range(self.m))
            for tau in itertools.permutations(range(self.n))
        ]


def build_root_datum(m: int, n: int, p: int, q: int) -> RootDatum:
    if m < 1 or n < 1 or m + n <= 2:
        raise ValueError("require m >= 1, n >= 1 and m + n > 2")
    if p < 0 or q < 0 or p + q != m:
        raise ValueError("require p, q >= 0 with p + q = m")
    datum = RootDatum(m=m, n=n, p=p, q=q)
    if m > n:
        datum.warnings.append(
            "m > n: structural statements are only established for m <= n; "
            "computations proceed but are tagged unsupported"
        )

    # even positive roots
    for i in range(m):
        for j in range(i + 1, m):
            compact = "compact" if (j < p or i >= p) else "noncompact"
            datum.pos_even.append(Root(datum.root_of_unit(i, j), compact))
    for k in range(n):
        for l in range(k + 1, n):
            datum.pos_even.append(Root(datum.root_of_unit(m + k, m + l), "compact"))

    # odd positive roots, non-standard system p1 (+) q2, with the basis table
    # index k = (l-1)n + c for the pair (eps_l, del_c)
    for l in range(m):
        for c in range(n):
            if l < p:
                datum.odd_raising.append((l, m + c))  # E_{l, m+c}
                datum.odd_lowering.append((m + c, l))  # -E_{m+c, l}
                datum.odd_lowering_sign.append(-1)
            else:
                datum.odd_raising.append((m + c, l))  # E_{m+c, l}
                datum.odd_lowering.append((l, m + c))  # +E_{l, m+c}
                datum.odd_lowering_sign.append(1)
            w = datum.root_of_unit(*datum.odd_raising[-1])  # the root of r_k
            datum.pos_odd.append(Root(w, "not-applicable"))

    datum.pos_compact = [r for r in datum.pos_even if r.compactness == "compact"]
    datum.pos_noncompact = [r for r in datum.pos_even if r.compactness == "noncompact"]

    datum.rho0 = _half_sum(datum.pos_even, datum.zero())
    datum.rho1 = _half_sum(datum.pos_odd, datum.zero())
    datum.rho = datum.rho0 - datum.rho1
    datum.rho_c = _half_sum(datum.pos_compact, datum.zero())
    datum.rho_n = _half_sum(datum.pos_noncompact, datum.zero())

    # deterministic ordering: height then lexicographic coordinates
    datum.pos_even.sort(key=lambda r: datum.root_sort_key(r.weight))
    return datum


def dot_action(datum: RootDatum, w: WeylElement, lam: Weight, shift: str) -> Weight:
    """w . lam = w(lam + rho_shift) - rho_shift with rho_shift in {rho, rho0}."""
    if shift == "full-rho":
        rho = datum.rho
    elif shift == "even-rho0":
        rho = datum.rho0
    else:
        raise ValueError("shift must be 'full-rho' or 'even-rho0'")
    return w.apply(lam + rho) - rho


def atypicality_set(datum: RootDatum, lam: Weight) -> list[Root]:
    """Odd positive roots alpha with (lam + rho, alpha) = 0."""
    shifted = lam + datum.rho
    return [r for r in datum.pos_odd if pairing(shifted, r.weight) == 0]


def subset_labels(datum: RootDatum, lam: Weight) -> list[tuple[tuple[int, ...], Weight, bool]]:
    """(S, lam - Gamma_S, whether S meets the atypicality set of lam) for
    every subset S of the odd positive roots (indices into `pos_odd`), by
    size and then lexicographically; Gamma_S is the sum of the roots in S.
    At lam = 0 the labels are the weights of the exterior algebra of n1^-."""
    atyp = {datum.pos_odd.index(r) for r in atypicality_set(datum, lam)}
    odd = [r.weight.coords() for r in datum.pos_odd]
    out = []
    for size in range(datum.mn + 1):
        for subset in itertools.combinations(range(datum.mn), size):
            gamma = (0,) * (datum.m + datum.n)
            for k in subset:
                gamma = tuple(map(operator.add, gamma, odd[k]))
            out.append((subset, lam.lower(gamma), not atyp.isdisjoint(subset)))
    return out


def bounded_exponents(
    heights: Sequence[int], bound, caps: Sequence[int | None]
) -> list[tuple[int, ...]]:
    """Every exponent vector a with a_k <= caps[k] (None: no cap) and
    sum a_k heights[k] <= bound, in lexicographic order; every height is
    positive, and a Fraction bound acts as its floor."""
    out: list[tuple[tuple[int, ...], int]] = [((), math.floor(bound))]  # (prefix, room left)
    for h, cap in zip(heights, caps, strict=True):
        out = [
            (a + (e,), room - e * h)
            for a, room in out
            for e in range(1 + (room // h if cap is None else min(cap, room // h)))
        ]
    return [a for a, _ in out]


def same_infinitesimal_character(datum: RootDatum, lam: Weight, mu: Weight) -> bool:
    """True iff mu + rho = w(lam + rho + sum t_i alpha_i) with alpha_i in A_lam."""
    rows = [r.weight.coords() for r in atypicality_set(datum, lam)]

    def rank(*extra) -> int:
        return exactla.rank(exactla.SparseRationalMatrix.from_rows([*rows, *extra]))

    span_rank = rank()
    lam_rho, mu_rho = lam + datum.rho, mu + datum.rho
    # mu_rho = w(lam_rho + x) with x in the span of the atypical roots iff
    # w^-1(mu_rho) - lam_rho is in it (w^-1 runs over W as w does), that is,
    # iff adding it as a row keeps the rank
    return any(
        rank((w.apply(mu_rho) - lam_rho).coords()) == span_rank for w in datum.weyl_group()
    )
