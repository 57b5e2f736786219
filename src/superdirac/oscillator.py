"""The oscillator module (polynomials in x_1..x_mn), the normal-ordered
operators that act on it, and the embedding alpha of the even part into the
Weyl algebra of the odd part.

The layer only applies operators: alpha(X) is written straight into normal
order, and `weyl_apply` lets d_k act as the partial derivative and x_k as
multiplication. Coefficients are canonical as in `exactla._rat`. The general
normal-ordering product is a test oracle (`tests/_helpers.py`).
"""

from __future__ import annotations

import math

from .exactla import Rational, _rat
from .uea import Algebra, Gen, add_into
from .weights import RootDatum, Weight

# A polynomial in x_1..x_mn: exponent tuple -> coefficient.
OscMonomial = tuple[int, ...]
Polynomial = dict[OscMonomial, Rational]

# An operator in normal order (all x left of all d):
# (x-exponents, d-exponents) -> coefficient.
WeylOperator = dict[tuple[OscMonomial, OscMonomial], Rational]


def monomial_parity(a: OscMonomial) -> int:
    return sum(a) % 2


def cohomological_degree(datum: RootDatum, a: OscMonomial) -> int:
    """The p1-degree minus the q2-degree of x^a: the first pn = p * n
    exponents are the p1 directions, the rest the q2 ones."""
    pn = datum.p * datum.n
    return sum(a[:pn]) - sum(a[pn:])


def weyl_apply(w: WeylOperator, p: Polynomial) -> Polynomial:
    """d_k acts as the partial derivative, x_k as multiplication: x^a d^b
    takes x^m to the falling factorials prod_k m_k!/(m_k - b_k)! times
    x^(m - b + a), and to 0 where some b_k > m_k (`math.perm` is 0 there)."""
    out: Polynomial = {}
    for (a, b), c in w.items():
        for mono, pc in p.items():
            add_into(
                out,
                tuple([m - bk + ak for m, bk, ak in zip(mono, b, a)]),
                c * pc * math.prod(map(math.perm, mono, b)),
            )
    return out


# ----- the embedding alpha ---------------------------------------------------------
class Oscillator:
    """Oscillator module bookkeeping for a fixed root datum."""

    def __init__(self, alg: Algebra):
        self.alg = alg
        self.datum = alg.datum
        self.dim = self.datum.mn
        self._alpha: dict[Gen, WeylOperator] = {}  # every even X, filled on first use
        self._image_cache: dict[tuple[Gen, OscMonomial], Polynomial] = {}
        self._partial_roots = [self.datum.root_of_unit(*g) for g in self.datum.odd_raising]

    def partial_roots(self) -> list[Weight]:
        """gamma_k = root of the k-th odd raising generator."""
        return self._partial_roots

    def monomial_weight(self, a: OscMonomial) -> Weight:
        """h-weight of x^a under the alpha action: -rho1 - sum a_k gamma_k."""
        w = -self.datum.rho1
        for gamma, ak in zip(self._partial_roots, a):
            if ak:
                w = w - gamma.scale(ak)
        return w

    def alpha_embed_gen(self, g: Gen) -> WeylOperator:
        """alpha(X) in normal order: x_k x_j gets B(X,[d_k,d_j]), d_k d_j gets
        B(X,[x_k,x_j]), x_j d_k gets -2 B(X,[x_k,d_j]), and the constant term
        is -sum_l B(X,[d_l,x_l]). The first call fills alpha(X) for every even
        X (`_alpha_all`)."""
        if self.alg.parity(g):
            raise ValueError("alpha_embed requires an even element")
        if not self._alpha:
            self._alpha = self._alpha_all()
        return self._alpha[g]

    def _alpha_all(self) -> dict[Gen, WeylOperator]:
        """alpha(X) for every even X in one pass over the pairs of odd
        generators. [u, v] is even for odd u and v, and B(X, E_w) is nonzero
        only for X = E_w^t, so each bracket is evaluated once and each of its
        units E_w adds into alpha of w^t: 3(mn)^2 + mn brackets in all."""
        alg = self.alg
        dim = self.dim
        datum = self.datum
        xs = list(zip(datum.odd_lowering, datum.odd_lowering_sign))
        ds = [(u, 1) for u in datum.odd_raising]
        unit = [tuple(int(i == k) for i in range(dim)) for k in range(dim)]
        zero = (0,) * dim
        acc: dict[Gen, WeylOperator] = {g: {} for g in alg.even_generators()}

        def b_of_bracket(u: tuple[Gen, int], v: tuple[Gen, int]):
            """(X, B(X, [u, v])) for each X where it is nonzero, for odd
            generators u and v of the odd basis table, each given as
            (matrix unit, sign)."""
            (a, sa), (b, sb) = u, v
            for (w,), c in alg.supercommutator(a, b).items():
                x = (w[1], w[0])
                yield x, sa * sb * c * alg.b_form(x, w)

        for k in range(dim):
            for j in range(dim):
                pair = tuple(u + v for u, v in zip(unit[k], unit[j]))
                # [d_k, d_j] and [x_k, x_j] are anticommutators of odd elements
                for x, b in b_of_bracket(ds[k], ds[j]):
                    add_into(acc[x], (pair, zero), b)
                for x, b in b_of_bracket(xs[k], xs[j]):
                    add_into(acc[x], (zero, pair), b)
                for x, b in b_of_bracket(xs[k], ds[j]):
                    add_into(acc[x], (unit[j], unit[k]), -2 * b)
        const: dict[Gen, Rational] = {}
        for l in range(dim):
            for x, b in b_of_bracket(ds[l], xs[l]):
                const[x] = const.get(x, 0) + b
        for x, c in const.items():
            add_into(acc[x], (zero, zero), -c)
        return {x: {key: _rat(c) for key, c in op.items()} for x, op in acc.items()}

    def alpha_image(self, g: Gen, a: OscMonomial) -> Polynomial:
        """alpha(g) x^a, computed once per (g, a); callers must not mutate it."""
        img = self._image_cache.get((g, a))
        if img is None:
            img = self._image_cache[g, a] = weyl_apply(self.alpha_embed_gen(g), {a: 1})
        return img

    # ----- constant C ---------------------------------------------------------------
    def measured_constant(self) -> dict[str, Rational]:
        """Scalar of the dual-basis quadratic element sum_k alpha(u_k) alpha(u^k)
        on the constant polynomial 1, in both normalizations: for each even
        generator g, alpha(g^t) and then alpha(g) act on 1, and the result is
        divided by str(g, g^t) = +-1, that is, multiplied by it."""
        alg = self.alg
        zero = (0,) * self.dim
        total: Polynomial = {}
        for g in alg.even_generators():
            i, j = g
            gt: Gen = (j, i)
            s = alg.str_form(g, gt)  # = +-1, never 0 for even pairs, so 1/s = s
            img = weyl_apply(
                self.alpha_embed_gen(g), weyl_apply(self.alpha_embed_gen(gt), {zero: 1})
            )
            for mono, c in img.items():
                add_into(total, mono, c * s)
        if set(total) - {zero}:
            raise AssertionError("dual-basis quadratic element is not scalar on 1")
        c_str = _rat(total.get(zero, 0))
        return {"str-normalized": c_str, "b-normalized": _rat(-2 * c_str)}

