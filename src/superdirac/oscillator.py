"""The Weyl algebra of the odd part, the oscillator module (polynomials in
x_1..x_mn), and the embedding alpha of the even part into the Weyl algebra.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .uea import Algebra, Gen, UEAElement
from .weights import Weight

# A polynomial in x_1..x_mn: exponent tuple -> coefficient.
OscMonomial = tuple[int, ...]
Polynomial = dict[OscMonomial, Fraction]

# A Weyl-algebra element in normal order (all x left of all d):
# (x-exponents, d-exponents) -> coefficient.
WeylElement = dict[tuple[OscMonomial, OscMonomial], Fraction]


def poly_add_into(p: Polynomial, mono: OscMonomial, c: Fraction) -> None:
    if not c:
        return
    v = p.get(mono, Fraction(0)) + c
    if v:
        p[mono] = v
    else:
        p.pop(mono, None)


def weyl_add_into(w: WeylElement, key, c: Fraction) -> None:
    if not c:
        return
    v = w.get(key, Fraction(0)) + c
    if v:
        w[key] = v
    else:
        w.pop(key, None)


def monomial_parity(a: OscMonomial) -> int:
    return sum(a) % 2


def x_op(k: int, dim: int) -> WeylElement:
    a = tuple(1 if i == k else 0 for i in range(dim))
    z = (0,) * dim
    return {(a, z): Fraction(1)}


def d_op(k: int, dim: int) -> WeylElement:
    b = tuple(1 if i == k else 0 for i in range(dim))
    z = (0,) * dim
    return {(z, b): Fraction(1)}


def weyl_apply(w: WeylElement, p: Polynomial) -> Polynomial:
    """d_k acts as the partial derivative, x_k as multiplication."""
    out: Polynomial = {}
    for (a, b), c in w.items():
        for mono, pc in p.items():
            coeff = c * pc
            new = list(mono)
            ok = True
            for k, bk in enumerate(b):
                for _ in range(bk):
                    if new[k] == 0:
                        ok = False
                        break
                    coeff *= new[k]
                    new[k] -= 1
                if not ok:
                    break
            if not ok:
                continue
            for k, ak in enumerate(a):
                new[k] += ak
            poly_add_into(out, tuple(new), coeff)
    return out


def weyl_multiply(u: WeylElement, v: WeylElement) -> WeylElement:
    """Normal-ordered product; uses d^b x^c = sum_t C(b,t) C(c,t) t! x^{c-t} d^{b-t}."""
    out: WeylElement = {}
    for (a, b), cu in u.items():
        for (c, d), cv in v.items():
            dim = len(a)
            # straighten d^b x^c componentwise
            terms: list[tuple[OscMonomial, OscMonomial, Fraction]] = [
                ((0,) * dim, (0,) * dim, Fraction(1))
            ]
            for k in range(dim):
                bk, ck = b[k], c[k]
                new_terms = []
                for xe, de, coeff in terms:
                    for t in range(min(bk, ck) + 1):
                        f = (
                            coeff
                            * math.comb(bk, t)
                            * math.comb(ck, t)
                            * math.factorial(t)
                        )
                        xe2 = list(xe)
                        de2 = list(de)
                        xe2[k] = ck - t
                        de2[k] = bk - t
                        new_terms.append((tuple(xe2), tuple(de2), f))
                terms = new_terms
            for xe, de, coeff in terms:
                key = (
                    tuple(ai + xi for ai, xi in zip(a, xe)),
                    tuple(di + ei for di, ei in zip(de, d)),
                )
                weyl_add_into(out, key, cu * cv * coeff)
    return out


# ----- the embedding alpha ---------------------------------------------------------
class Oscillator:
    """Oscillator module bookkeeping for a fixed root datum."""

    def __init__(self, alg: Algebra):
        self.alg = alg
        self.datum = alg.datum
        self.dim = self.datum.mn
        self._alpha_cache: dict[Gen, WeylElement] = {}

    def partial_roots(self) -> list[Weight]:
        """gamma_k = root of the k-th odd raising generator."""
        return [self.datum.root_of_unit(*g) for g in self.datum.odd_raising]

    def monomial_weight(self, a: OscMonomial) -> Weight:
        """h-weight of x^a under the alpha action: -rho1 - sum a_k gamma_k."""
        w = -self.datum.rho1
        for k, ak in enumerate(a):
            if ak:
                w = w - self.partial_roots()[k].scale(ak)
        return w

    def alpha_embed_gen(self, g: Gen) -> WeylElement:
        if self.alg.parity(g):
            raise ValueError("alpha_embed requires an even element")
        cached = self._alpha_cache.get(g)
        if cached is not None:
            return cached
        alg = self.alg
        dim = self.dim
        x_elems = [alg.x_k(k) for k in range(dim)]
        d_elems = [alg.partial_k(k) for k in range(dim)]
        xg = {(g,): Fraction(1)}
        acc: WeylElement = {}
        for k in range(dim):
            for j in range(dim):
                # [d_k, d_j] and [x_k, x_j] are anticommutators of odd elements
                b_dd = _b_of_bracket(alg, xg, d_elems[k], d_elems[j])
                if b_dd:
                    for key, c in weyl_multiply(x_op(k, dim), x_op(j, dim)).items():
                        weyl_add_into(acc, key, b_dd * c)
                b_xx = _b_of_bracket(alg, xg, x_elems[k], x_elems[j])
                if b_xx:
                    for key, c in weyl_multiply(d_op(k, dim), d_op(j, dim)).items():
                        weyl_add_into(acc, key, b_xx * c)
                b_xd = _b_of_bracket(alg, xg, x_elems[k], d_elems[j])
                if b_xd:
                    for key, c in weyl_multiply(x_op(j, dim), d_op(k, dim)).items():
                        weyl_add_into(acc, key, -2 * b_xd * c)
        const = Fraction(0)
        for l in range(dim):
            const += _b_of_bracket(alg, xg, d_elems[l], x_elems[l])
        if const:
            zero = ((0,) * dim, (0,) * dim)
            weyl_add_into(acc, zero, -const)
        self._alpha_cache[g] = acc
        return acc

    # ----- constant C ---------------------------------------------------------------
    def measured_constant(self) -> dict[str, Fraction]:
        """Scalar of the dual-basis quadratic element sum_k alpha(u_k) alpha(u^k)
        applied to the constant polynomial 1, in both normalizations."""
        alg = self.alg
        dim = self.dim
        total: WeylElement = {}
        for g in alg.even_generators():
            i, j = g
            gt: Gen = (j, i)
            s = alg.str_form(g, gt)  # = +-1, never 0 for even pairs
            prod = weyl_multiply(self.alpha_embed_gen(g), self.alpha_embed_gen(gt))
            for key, c in prod.items():
                weyl_add_into(total, key, c / s)
        one: Polynomial = {(0,) * dim: Fraction(1)}
        img = weyl_apply(total, one)
        c_str = img.get((0,) * dim, Fraction(0))
        if set(img) - {(0,) * dim}:
            raise AssertionError("dual-basis quadratic element is not scalar on 1")
        return {"str-normalized": c_str, "b-normalized": -2 * c_str}


def _b_of_bracket(alg: Algebra, x: UEAElement, u: UEAElement, v: UEAElement) -> Fraction:
    """B(X, [u, v]) for degree-1 elements via the supercommutator of g."""
    total = Fraction(0)
    for wu, cu in u.items():
        for wv, cv in v.items():
            br = alg.supercommutator(wu[0], wv[0])
            for ww, cw in br.items():
                for wx, cx in x.items():
                    total += cu * cv * cw * cx * alg.b_form(wx[0], ww[0])
    return total


def monomials_of_degree(dim: int, deg: int) -> list[OscMonomial]:
    if dim == 1:
        return [(deg,)]
    out = []
    for first in range(deg, -1, -1):
        for rest in monomials_of_degree(dim - 1, deg - first):
            out.append((first,) + rest)
    return out
