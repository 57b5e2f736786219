"""Weyl-algebra calculus, the even-part embedding, and the Bargmann-Fock form."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import (
    alpha_embed,
    alpha_per_generator,
    b_of_bracket,
    bargmann_fock,
    d_op,
    monomials_of_degree,
    weyl_apply_loop,
    weyl_commutator,
    weyl_multiply,
    x_op,
)
from superdirac import oscillator, uea
from superdirac.oscillator import Oscillator, weyl_apply
from superdirac.uea import Algebra
from superdirac.weights import bounded_exponents, build_root_datum, pairing


def poly_strategy(dim, max_deg=3):
    mono = st.tuples(*([st.integers(0, max_deg)] * dim))
    coeff = st.fractions(min_value=-4, max_value=4, max_denominator=2)
    return st.dictionaries(mono, coeff, min_size=0, max_size=4).map(
        lambda d: {k: v for k, v in d.items() if v}
    )


# ----- Weyl relations ---------------------------------------------------------------
def test_canonical_commutation_relations():
    dim = 3
    for k in range(dim):
        for l in range(dim):
            c = weyl_commutator(d_op(k, dim), x_op(l, dim))
            expected = {((0,) * dim, (0,) * dim): Fraction(1)} if k == l else {}
            assert c == expected
            assert weyl_commutator(x_op(k, dim), x_op(l, dim)) == {}
            assert weyl_commutator(d_op(k, dim), d_op(l, dim)) == {}


@settings(max_examples=30, deadline=None)
@given(poly_strategy(2))
def test_product_acts_as_composition(p):
    u = weyl_multiply(d_op(0, 2), x_op(0, 2))
    v = weyl_multiply(x_op(1, 2), d_op(0, 2))
    w = weyl_multiply(u, v)
    assert weyl_apply(w, p) == weyl_apply(u, weyl_apply(v, p))


def test_normal_ordering_identity():
    # d^2 x^2 = x^2 d^2 + 4 x d + 2 in one variable
    dim = 1
    dd = weyl_multiply(d_op(0, dim), d_op(0, dim))
    xx = weyl_multiply(x_op(0, dim), x_op(0, dim))
    got = weyl_multiply(dd, xx)
    expected = {
        ((2,), (2,)): Fraction(1),
        ((1,), (1,)): Fraction(4),
        ((0,), (0,)): Fraction(2),
    }
    assert got == expected


# ----- the embedding of the even part ------------------------------------------------
def test_alpha_is_a_homomorphism_exhaustive(alg21, alg23):
    for alg in (alg21, alg23):
        osc = Oscillator(alg)
        evens = alg.even_generators()
        for g in evens:
            for h in evens:
                bracket = alg.supercommutator(g, h)
                lhs = alpha_embed(osc, bracket)
                rhs = weyl_commutator(osc.alpha_embed_gen(g), osc.alpha_embed_gen(h))
                assert lhs == rhs, (g, h)


def _product_alpha(osc, g):
    """alpha(X) with every term a product of Weyl generators straightened by
    the oracle `weyl_multiply`: B(X,[d_k,d_j]) x_k x_j + B(X,[x_k,x_j]) d_k d_j
    - 2 B(X,[x_k,d_j]) x_j d_k - sum_l B(X,[d_l,x_l])."""
    alg, dim = osc.alg, osc.dim
    datum = alg.datum
    xs = list(zip(datum.odd_lowering, datum.odd_lowering_sign))
    ds = [(u, 1) for u in datum.odd_raising]
    out = {}

    def add(b, u, v):
        for key, c in weyl_multiply(u, v).items():
            uea.add_into(out, key, b * c)

    for k in range(dim):
        for j in range(dim):
            add(b_of_bracket(alg, g, ds[k], ds[j]), x_op(k, dim), x_op(j, dim))
            add(b_of_bracket(alg, g, xs[k], xs[j]), d_op(k, dim), d_op(j, dim))
            add(-2 * b_of_bracket(alg, g, xs[k], ds[j]), x_op(j, dim), d_op(k, dim))
    const = sum(b_of_bracket(alg, g, ds[l], xs[l]) for l in range(dim))
    uea.add_into(out, ((0,) * dim, (0,) * dim), -const)
    return out


@pytest.mark.parametrize(
    "group",
    [(2, 1, 0, 2), (2, 1, 1, 1), (2, 1, 2, 0), (2, 2, 1, 1), (2, 3, 1, 1), (3, 3, 2, 1)],
    ids=["sl21-p0", "sl21-p1", "sl21-p2", "sl22", "sl23", "gl33-p2"],
)
def test_alpha_matches_the_product_oracle(group):
    """alpha(X), written straight into normal order, equals the alpha built
    from normal-ordered products, term by term, with every integral
    coefficient an int; and the measured constant equals the oracle's
    sum_g alpha(g) alpha(g^t) / str(g, g^t) applied to 1."""
    alg = Algebra(build_root_datum(*group))
    osc = Oscillator(alg)
    zero = (0,) * osc.dim
    total = {}
    for g in alg.even_generators():
        alpha = osc.alpha_embed_gen(g)
        assert alpha == _product_alpha(osc, g), g
        for c in alpha.values():
            assert type(c) is int or (type(c) is Fraction and c.denominator != 1), (g, c)
        gt = (g[1], g[0])
        prod = weyl_multiply(_product_alpha(osc, g), _product_alpha(osc, gt))
        for key, c in prod.items():
            uea.add_into(total, key, c / alg.str_form(g, gt))
    c_str = osc.measured_constant()["str-normalized"]
    assert weyl_apply(total, {zero: 1}) == ({zero: c_str} if c_str else {})


def _typed(poly):
    """The terms of a polynomial in order, each coefficient with its type."""
    return [(mono, type(c), c) for mono, c in poly.items()]


# every root datum with m, n <= 3 (gl(1|1) excluded), for each real form p + q = m
ALL_DATA = [
    (m, n, p, m - p)
    for m in range(1, 4)
    for n in range(1, 4)
    if m + n > 2
    for p in range(m + 1)
]


@pytest.mark.parametrize("group", ALL_DATA, ids=lambda g: "gl{}{}-p{}".format(*g[:3]))
def test_alpha_matches_the_per_generator_loop(group):
    """alpha(X) filled for every even X in one pass over the odd pairs is the
    per-generator loop's alpha(X): the same terms in the same order, each
    coefficient of the same value and type (an int, or a Fraction that is
    not integral)."""
    osc = Oscillator(Algebra(build_root_datum(*group)))
    for g in osc.alg.even_generators():
        alpha = osc.alpha_embed_gen(g)
        assert _typed(alpha) == _typed(alpha_per_generator(osc, g)), g
        assert all(type(c) is int or c.denominator != 1 for c in alpha.values()), g


def test_alpha_evaluates_each_odd_bracket_once_per_oscillator(monkeypatch):
    """One `Oscillator` makes 3(mn)^2 + mn `supercommutator` calls, the
    brackets [d_k, d_j], [x_k, x_j], [x_k, d_j] and [d_l, x_l] once each,
    whatever generators are asked for and in whatever order; an odd X raises
    before any bracket is evaluated, and a second `Oscillator` evaluates them
    again."""
    calls = []
    supercommutator = uea.Algebra.supercommutator

    def counted(alg, a, b):
        calls.append((a, b))
        return supercommutator(alg, a, b)

    monkeypatch.setattr(uea.Algebra, "supercommutator", counted)
    for group in ((2, 1, 1, 1), (2, 3, 1, 1), (3, 3, 2, 1)):
        alg = Algebra(build_root_datum(*group))
        mn = alg.datum.mn
        evens = alg.even_generators()
        for order in (evens, evens[::-1]):
            calls.clear()
            osc = Oscillator(alg)
            with pytest.raises(ValueError, match="even element"):
                osc.alpha_embed_gen(alg.datum.odd_raising[0])
            assert calls == []
            osc.alpha_embed_gen(order[0])
            assert len(calls) == 3 * mn**2 + mn
            for g in order:
                osc.alpha_embed_gen(g)
            osc.measured_constant()
            assert len(calls) == 3 * mn**2 + mn


@pytest.mark.parametrize(
    "group, images",
    [((2, 1, 1, 1), 75), ((2, 3, 1, 1), 2730), ((3, 3, 2, 1), 12870)],
    ids=["sl21", "sl23", "gl33-p2"],
)
def test_weyl_apply_matches_the_loop_oracle(group, images):
    """`weyl_apply` by falling factorials gives the loop oracle's dict, keys,
    order and coefficient types alike: on alpha(X) x^a for every even
    generator X and every x^a of degree <= 4, and on both applications of
    each product the measured constant forms."""
    osc = Oscillator(Algebra(build_root_datum(*group)))
    zero = (0,) * osc.dim
    monos = list(bounded_exponents([1] * osc.dim, 4, [None] * osc.dim))
    checked = 0
    for g in osc.alg.even_generators():
        alpha, alpha_t = osc.alpha_embed_gen(g), osc.alpha_embed_gen((g[1], g[0]))
        for a in monos:
            assert _typed(weyl_apply(alpha, {a: 1})) == _typed(weyl_apply_loop(alpha, {a: 1}))
            checked += 1
        inner = weyl_apply(alpha_t, {zero: 1})
        assert _typed(inner) == _typed(weyl_apply_loop(alpha_t, {zero: 1}))
        assert _typed(weyl_apply(alpha, inner)) == _typed(weyl_apply_loop(alpha, inner))
    assert checked == images


def test_alpha_on_cartan_measures_minus_rho1(alg21, alg23):
    for alg in (alg21, alg23):
        d = alg.datum
        osc = Oscillator(alg)
        one = {(0,) * d.mn: Fraction(1)}
        for i in range(d.m + d.n):
            img = weyl_apply(osc.alpha_embed_gen((i, i)), one)
            expected = -d.rho1.coords()[i]
            assert img == ({(0,) * d.mn: expected} if expected else {})


def test_monomial_weight_matches_cartan_action(alg21):
    d = alg21.datum
    osc = Oscillator(alg21)
    rng = random.Random(5)
    for _ in range(20):
        a = tuple(rng.randrange(0, 3) for _ in range(d.mn))
        w = osc.monomial_weight(a)
        mono = {a: Fraction(1)}
        for i in range(d.m + d.n):
            img = weyl_apply(osc.alpha_embed_gen((i, i)), mono)
            expected = w.coords()[i]
            assert img == ({a: expected} if expected else {}), (a, i)


def test_measured_constant(alg21, alg23):
    for alg in (alg21, alg23):
        d = alg.datum
        mc = alg and Oscillator(alg).measured_constant()
        pred = pairing(d.rho1 - d.rho0.scale(2), d.rho1)
        assert mc["str-normalized"] == pred
        assert mc["b-normalized"] == -2 * pred


def test_measured_constant_values(alg21, alg23):
    assert Oscillator(alg21).measured_constant() == {
        "str-normalized": Fraction(-1, 2),
        "b-normalized": Fraction(1),
    }
    assert Oscillator(alg23).measured_constant() == {
        "str-normalized": Fraction(3, 2),
        "b-normalized": Fraction(-3),
    }


# ----- Bargmann-Fock -----------------------------------------------------------------
def test_bargmann_fock_monomials():
    p = {(2, 1): Fraction(1)}
    assert bargmann_fock(p, p) == 2  # 2! * 1!
    q = {(1, 2): Fraction(1)}
    assert bargmann_fock(p, q) == 0


@settings(max_examples=30, deadline=None)
@given(poly_strategy(2), poly_strategy(2))
def test_bargmann_fock_symmetric(p, q):
    assert bargmann_fock(p, q) == bargmann_fock(q, p)


@settings(max_examples=30, deadline=None)
@given(poly_strategy(2), poly_strategy(2))
def test_bargmann_fock_adjointness(p, q):
    for k in range(2):
        xp = weyl_apply(x_op(k, 2), p)
        dq = weyl_apply(d_op(k, 2), q)
        assert bargmann_fock(xp, q) == bargmann_fock(p, dq)


def test_bargmann_fock_positive_definite_per_degree():
    for deg in range(4):
        for a in monomials_of_degree(3, deg):
            assert bargmann_fock({a: Fraction(1)}, {a: Fraction(1)}) > 0


def test_compact_generators_skew_adjoint(alg21, alg23):
    """alpha of a compact generator pair (g, omega(g)) is Bargmann-Fock adjoint."""
    rng = random.Random(23)
    for alg in (alg21, alg23):
        osc = Oscillator(alg)
        d = alg.datum
        probe = [
            {tuple(rng.randrange(0, 2) for _ in range(d.mn)): Fraction(1)}
            for _ in range(4)
        ]
        for g in alg.even_generators():
            og, sign = alg.omega_gen(g)
            a = osc.alpha_embed_gen(g)
            b = osc.alpha_embed_gen(og)
            for p in probe:
                for q in probe:
                    lhs = bargmann_fock(weyl_apply(a, p), q)
                    rhs = sign * bargmann_fock(p, weyl_apply(b, q))
                    assert lhs == rhs, (g,)


def test_monomials_of_degree_counts():
    assert len(monomials_of_degree(2, 3)) == 4
    assert len(monomials_of_degree(6, 4)) == 126
    for a in monomials_of_degree(3, 2):
        assert sum(a) == 2
    assert oscillator.monomial_parity((1, 2, 0)) == 1


@pytest.mark.parametrize("dim, deg", [(1, 3), (2, 3), (3, 2), (6, 4)])
def test_monomials_of_degree_are_the_bounded_exponents_of_that_degree(dim, deg):
    """The degree-deg vectors of `bounded_exponents` with unit heights, which
    the package reads for the oscillator character, are the recursion's."""
    bounded = bounded_exponents([1] * dim, deg, [None] * dim)
    assert [a for a in bounded if sum(a) == deg] == sorted(monomials_of_degree(dim, deg))
