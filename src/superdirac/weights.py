"""Root datum of gl(m|n)/sl(m|n) with the real form su(p,q|n).

Weights live in h* with coordinates in the basis eps_1..eps_m, del_1..del_n.
The bilinear form is (eps_i, eps_j) = delta_ij, (del_i, del_j) = -delta_ij,
(eps, del) = 0.  The odd positive system is the non-standard one
n1+ = p1 (+) q2 determined by the signature (p, q): eps_l - del_c for l <= p
and del_c - eps_l for l > p.

Every coordinate is canonical as in `exactla._rat`: an int when integral,
else a Fraction.  Module weights, roots and heights are then ints whenever
the highest weight is integral; hash(Fraction(k)) == hash(k), so ordering and
`Weight.text` do not depend on which type a coordinate has.

Every root of gl(m|n) has integer coordinates, so a weight of a highest-weight
module is its base (L, or L - rho1 on the Dirac blocks) minus an integer
vector, its drop.  The engine keys its blocks, basis entries and generator
matrices by drops (`Drop`, tuples of ints) and builds a `Weight` only at the
boundary (`Weight.lower`).
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from . import exactla
from .exactla import Rational, _rat

# Integer eps/del coordinates of base - weight for a fixed base weight.
Drop = tuple[int, ...]


@dataclass(frozen=True)
class Weight:
    """A point of h* with exact rational eps/del coordinates."""

    eps: tuple[Rational, ...]
    del_: tuple[Rational, ...]

    @staticmethod
    def make(eps: Iterable, del_: Iterable) -> "Weight":
        return Weight(tuple(_rat(x) for x in eps), tuple(_rat(x) for x in del_))

    @property
    def m(self) -> int:
        return len(self.eps)

    @property
    def n(self) -> int:
        return len(self.del_)

    def coords(self) -> tuple[Rational, ...]:
        return self.eps + self.del_

    def __add__(self, other: "Weight") -> "Weight":
        return Weight(
            tuple(_rat(a + b) for a, b in zip(self.eps, other.eps, strict=True)),
            tuple(_rat(a + b) for a, b in zip(self.del_, other.del_, strict=True)),
        )

    def __sub__(self, other: "Weight") -> "Weight":
        return Weight(
            tuple(_rat(a - b) for a, b in zip(self.eps, other.eps, strict=True)),
            tuple(_rat(a - b) for a, b in zip(self.del_, other.del_, strict=True)),
        )

    def lower(self, drop: Drop) -> "Weight":
        """self minus the integer vector `drop` (eps coordinates, then del)."""
        m = len(self.eps)
        return Weight(
            tuple(_rat(a - b) for a, b in zip(self.eps, drop[:m], strict=True)),
            tuple(_rat(a - b) for a, b in zip(self.del_, drop[m:], strict=True)),
        )

    def __neg__(self) -> "Weight":
        return Weight(tuple(-a for a in self.eps), tuple(-a for a in self.del_))

    def scale(self, c) -> "Weight":
        c = _rat(c)
        return Weight(
            tuple(_rat(c * a) for a in self.eps), tuple(_rat(c * a) for a in self.del_)
        )

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coords())

    def text(self) -> str:
        def fmt(x: Rational) -> str:
            return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"

        return ",".join(fmt(x) for x in self.eps) + "|" + ",".join(fmt(x) for x in self.del_)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.text()


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


def pairing(w1: Weight, w2: Weight) -> Fraction:
    """The symmetric bilinear form of signature (+1)^m (+) (-1)^n."""
    s = Fraction(0)
    for a, b in zip(w1.eps, w2.eps, strict=True):
        s += a * b
    for a, b in zip(w1.del_, w2.del_, strict=True):
        s -= a * b
    return s


@dataclass(frozen=True)
class Root:
    """A root of gl(m|n): +-(eps_i-eps_j), +-(del_k-del_l) or +-(eps_r-del_s)."""

    weight: Weight
    parity: str  # "even" | "odd"
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
        eps = [0] * len(self.sigma)
        for i, j in enumerate(self.sigma):
            eps[j] = w.eps[i]
        del_ = [0] * len(self.tau)
        for i, j in enumerate(self.tau):
            del_[j] = w.del_[i]
        return Weight(tuple(eps), tuple(del_))


def _half_sum(roots: Sequence[Weight], m: int, n: int) -> Weight:
    total = Weight.make([0] * m, [0] * n)
    for r in roots:
        total = total + r
    return total.scale(Fraction(1, 2))


def _eps(i: int, m: int, n: int) -> Weight:
    return Weight.make([1 if k == i else 0 for k in range(m)], [0] * n)


def _del(c: int, m: int, n: int) -> Weight:
    return Weight.make([0] * m, [1 if k == c else 0 for k in range(n)])


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
        return Weight.make([0] * self.m, [0] * self.n)

    def root_of_unit(self, i: int, j: int) -> Weight:
        """Root of the matrix unit E_ij (0-based), i.e. eps/del_i - eps/del_j."""
        c = [0] * (self.m + self.n)
        c[i] += 1
        c[j] -= 1
        return Weight(tuple(c[: self.m]), tuple(c[self.m :]))

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
        return _rat(-sum(map(operator.mul, self._u_positions, w.coords())))

    def root_sort_key(self, w: Weight):
        return (self.height(w), w.coords())

    def drop_key(self, drop: Drop) -> tuple[int, Drop]:
        """`root_sort_key` of the weight with integer coordinates `drop`."""
        return (-sum(map(operator.mul, self._u_positions, drop)), drop)

    def admissible_highest_weight(self, lam: Weight) -> bool:
        if lam.m != self.m or lam.n != self.n:
            return False
        if self.m == self.n:
            return sum(lam.coords()) == 0
        return True

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
            w = _eps(i, m, n) - _eps(j, m, n)
            compact = "compact" if (j < p or i >= p) else "noncompact"
            datum.pos_even.append(Root(w, "even", compact))
    for k in range(n):
        for l in range(k + 1, n):
            w = _del(k, m, n) - _del(l, m, n)
            datum.pos_even.append(Root(w, "even", "compact"))

    # odd positive roots, non-standard system p1 (+) q2, with the basis table
    # index k = (l-1)n + c for the pair (eps_l, del_c)
    for l in range(m):
        for c in range(n):
            if l < p:
                w = _eps(l, m, n) - _del(c, m, n)
                datum.odd_raising.append((l, m + c))  # E_{l, m+c}
                datum.odd_lowering.append((m + c, l))  # -E_{m+c, l}
                datum.odd_lowering_sign.append(-1)
            else:
                w = _del(c, m, n) - _eps(l, m, n)
                datum.odd_raising.append((m + c, l))  # E_{m+c, l}
                datum.odd_lowering.append((l, m + c))  # +E_{l, m+c}
                datum.odd_lowering_sign.append(1)
            datum.pos_odd.append(Root(w, "odd", "not-applicable"))

    datum.pos_compact = [r for r in datum.pos_even if r.compactness == "compact"]
    datum.pos_noncompact = [r for r in datum.pos_even if r.compactness == "noncompact"]

    datum.rho0 = _half_sum([r.weight for r in datum.pos_even], m, n)
    datum.rho1 = _half_sum([r.weight for r in datum.pos_odd], m, n)
    datum.rho = datum.rho0 - datum.rho1
    datum.rho_c = _half_sum([r.weight for r in datum.pos_compact], m, n)
    datum.rho_n = _half_sum([r.weight for r in datum.pos_noncompact], m, n)

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
    out: list[tuple[tuple[int, ...], Rational]] = [((), bound)]  # (prefix, room left)
    for h, cap in zip(heights, caps, strict=True):
        out = [
            (a + (e,), room - e * h)
            for a, room in out
            for e in range(1 + (room // h if cap is None else min(cap, room // h)))
        ]
    return [a for a, _ in out]


def same_infinitesimal_character(datum: RootDatum, lam: Weight, mu: Weight) -> bool:
    """True iff mu + rho = w(lam + rho + sum t_i alpha_i) with alpha_i in A_lam."""
    atyp = [r.weight for r in atypicality_set(datum, lam)]
    # columns: the atypical roots, so A t = x is membership of x in their span
    span = exactla.SparseRationalMatrix(
        datum.m + datum.n,
        len(atyp),
        {(i, j): c for j, r in enumerate(atyp) for i, c in enumerate(r.coords()) if c},
    )
    lam_rho = lam + datum.rho
    mu_rho = mu + datum.rho
    for w in datum.weyl_group():
        # need mu_rho = w(lam_rho + x) with x in span(atyp):
        # equivalently w^{-1}(mu_rho) - lam_rho in span(atyp)
        # enumerate w directly: w(lam_rho) + w(x); since span is not W-stable,
        # solve w(lam_rho + x) = mu_rho  <=>  x = w^{-1}(mu_rho) - lam_rho.
        inv_sigma = tuple(w.sigma.index(i) for i in range(datum.m))
        inv_tau = tuple(w.tau.index(i) for i in range(datum.n))
        winv = WeylElement(inv_sigma, inv_tau)
        x = winv.apply(mu_rho) - lam_rho
        if exactla.solve(span, x.coords()) is not None:
            return True
    return False


def harish_chandra_condition(datum: RootDatum, lam: Weight) -> bool:
    """Strict negativity (lam + rho0, beta) < 0 on all non-compact positive roots."""
    shifted = lam + datum.rho0
    return all(pairing(shifted, r.weight) < 0 for r in datum.pos_noncompact)
