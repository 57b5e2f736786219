"""Enveloping-algebra substrate: brackets, PBW normal ordering, the
anti-automorphism, Casimir elements, the Shapovalov form, and the
one-generator action against straightening the whole word."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import (
    accumulate_pbw,
    act_letters,
    combine,
    multiply,
    normal_order,
    normal_word,
    omega,
    partial_k,
    scale,
    shapovalov_pairing,
    unit_class,
    unit_drop,
    unit_order_key,
    unit_root,
    units_in_pbw_order,
    x_k,
)
from superdirac import modules, uea
from superdirac.oscillator import Oscillator
from superdirac.uea import Algebra
from superdirac.weights import Weight, build_root_datum, pairing, parse_weight


def gen_elem(g):
    return {(g,): Fraction(1)}


def b_form_elem(alg, x, y):
    """B extended bilinearly to degree-1 elements; scalar terms are dropped."""
    total = Fraction(0)
    for wx, cx in x.items():
        for wy, cy in y.items():
            if len(wx) == 1 and len(wy) == 1:
                total += cx * cy * alg.b_form(wx[0], wy[0])
            elif wx and wy:
                raise ValueError("b_form_elem expects degree-1 elements")
    return total


def casimir(alg, kind):
    """Quadratic Casimir, normalized to act by (L+2rho, L) on a highest
    weight module (kind="full") resp. (mu+2rho0, mu) (kind="even")."""
    acc = {}
    for i in range(alg.dim):
        for j in range(alg.dim):
            if kind == "even" and alg.parity((i, j)):
                continue
            uea.add_into(acc, ((i, j), (j, i)), Fraction(-1 if j >= alg.m else 1))
    return normal_order(alg, acc)


def act_elem(alg, lam, elem, vec):
    """An element of U(g) applied to a vector of M(lam), word by word."""
    out = {}
    for word, ec in elem.items():
        for mono, vc in act_letters(alg, lam, word, vec).items():
            uea.add_into(out, mono, ec * vc)
    return out


def elem_bracket(alg, x, px, y, py):
    """Super bracket of homogeneous elements of the given parities."""
    xy = multiply(alg, x, y)
    yx = multiply(alg, y, x)
    sign = -1 if (px and py) else 1
    return combine(xy, scale(yx, -sign))


def check_jacobi(alg, a, b, c):
    pa, pb, pc = alg.parity(a), alg.parity(b), alg.parity(c)
    ea, eb, ec = gen_elem(a), gen_elem(b), gen_elem(c)
    bc = elem_bracket(alg, eb, pb, ec, pc)
    ab = elem_bracket(alg, ea, pa, eb, pb)
    ac = elem_bracket(alg, ea, pa, ec, pc)
    lhs = elem_bracket(alg, ea, pa, bc, (pb + pc) % 2)
    rhs = combine(
        elem_bracket(alg, ab, (pa + pb) % 2, ec, pc),
        scale(elem_bracket(alg, eb, pb, ac, (pa + pc) % 2), -1 if (pa and pb) else 1),
    )
    diff = combine(lhs, scale(rhs, -1))
    assert not diff, (a, b, c, diff)


def test_super_jacobi_exhaustive_sl21(alg21):
    gens = alg21.generators()
    for a in gens:
        for b in gens:
            for c in gens:
                check_jacobi(alg21, a, b, c)


def test_super_jacobi_sampled_sl23(alg23):
    gens = alg23.generators()
    rng = random.Random(20230823)
    for _ in range(200):
        a, b, c = rng.choice(gens), rng.choice(gens), rng.choice(gens)
        check_jacobi(alg23, a, b, c)


def test_supercommutator_matches_multiplication(alg21):
    for a in alg21.generators():
        for b in alg21.generators():
            direct = normal_order(alg21, alg21.supercommutator(a, b))
            via_mult = elem_bracket(
                alg21, gen_elem(a), alg21.parity(a), gen_elem(b), alg21.parity(b)
            )
            assert direct == via_mult


def test_odd_generator_squares_to_zero(alg21):
    for g in alg21.generators():
        if alg21.parity(g) == 1:
            assert multiply(alg21, gen_elem(g), gen_elem(g)) == {}


def test_multiplication_associative(alg21):
    gens = alg21.generators()
    rng = random.Random(7)
    for _ in range(40):
        a, b, c = rng.choice(gens), rng.choice(gens), rng.choice(gens)
        ea, eb, ec = gen_elem(a), gen_elem(b), gen_elem(c)
        lhs = multiply(alg21, multiply(alg21, ea, eb), ec)
        rhs = multiply(alg21, ea, multiply(alg21, eb, ec))
        assert lhs == rhs


# ----- the anti-automorphism -------------------------------------------------------
def test_omega_specific_values(alg21):
    # E_{1,3} crosses the p|q split: sign -1; E_{2,3} stays inside: sign +1
    g, s = alg21.omega_gen((0, 2))
    assert (g, s) == ((2, 0), -1)
    g, s = alg21.omega_gen((1, 2))
    assert (g, s) == ((2, 1), 1)


def test_omega_is_an_involution(alg21, alg23):
    for alg in (alg21, alg23):
        for g in alg.generators():
            assert omega(alg, omega(alg, gen_elem(g))) == gen_elem(g)


def test_omega_reverses_products(alg21):
    gens = alg21.generators()
    rng = random.Random(11)
    for _ in range(60):
        a, b = rng.choice(gens), rng.choice(gens)
        lhs = omega(alg21, multiply(alg21, gen_elem(a), gen_elem(b)))
        rhs = multiply(alg21, omega(alg21, gen_elem(b)), omega(alg21, gen_elem(a)))
        assert lhs == rhs


def test_omega_fixes_cartan(alg21):
    for i in range(3):
        assert omega(alg21, gen_elem((i, i))) == gen_elem((i, i))


# ----- forms -----------------------------------------------------------------------
def test_str_form_supersymmetry(alg23):
    for a in alg23.generators():
        for b in alg23.generators():
            sign = -1 if (alg23.parity(a) and alg23.parity(b)) else 1
            assert alg23.str_form(a, b) == sign * alg23.str_form(b, a)


def test_b_form_on_odd_basis(alg21, alg23):
    # B(partial_k, x_l) = 1/2 delta_kl
    for alg in (alg21, alg23):
        mn = alg.datum.mn
        for k in range(mn):
            for l in range(mn):
                v = b_form_elem(alg, partial_k(alg, k), x_k(alg, l))
                assert v == (Fraction(1, 2) if k == l else 0)


def test_b_form_invariance(alg21):
    # B([a,b], c) = B(a, [b,c]) for the invariant even form
    gens = alg21.generators()
    rng = random.Random(13)
    for _ in range(60):
        a, b, c = rng.choice(gens), rng.choice(gens), rng.choice(gens)
        ab = elem_bracket(alg21, gen_elem(a), alg21.parity(a), gen_elem(b), alg21.parity(b))
        bc = elem_bracket(alg21, gen_elem(b), alg21.parity(b), gen_elem(c), alg21.parity(c))
        assert b_form_elem(alg21, ab, gen_elem(c)) == b_form_elem(alg21, gen_elem(a), bc)


# ----- Casimir scalars --------------------------------------------------------------
small = st.integers(-3, 3)


@settings(max_examples=15, deadline=None)
@given(small, small, small)
def test_full_casimir_scalar(l1, l2, c1):
    d = build_root_datum(2, 1, 1, 1)
    alg = Algebra(d)
    lam = Weight((l1, l2), (c1,))
    out = act_elem(alg, lam, casimir(alg, "full"), {(): Fraction(1)})
    got = out.get((), Fraction(0))
    assert got == pairing(lam + d.rho.scale(2), lam)


@settings(max_examples=15, deadline=None)
@given(small, small, small)
def test_even_casimir_scalar(l1, l2, c1):
    d = build_root_datum(2, 1, 1, 1)
    alg = Algebra(d)
    lam = Weight((l1, l2), (c1,))
    out = act_elem(alg, lam, casimir(alg, "even"), {(): Fraction(1)})
    got = out.get((), Fraction(0))
    assert got == pairing(lam + d.rho0.scale(2), lam)


# ----- Shapovalov form --------------------------------------------------------------
@settings(max_examples=15, deadline=None)
@given(small, small, small)
def test_height_one_gram_values_sl21(l1, l2, c1):
    d = build_root_datum(2, 1, 1, 1)
    lam = Weight((l1, l2), (c1,))
    mod = modules.verma_truncation(d, lam, 1)
    g1 = d.pos_odd[0].weight  # eps1 - del1
    g2 = d.pos_odd[1].weight  # del1 - eps2
    gram1 = mod.blocks[lam - g1].gram.to_rows()
    gram2 = mod.blocks[lam - g2].gram.to_rows()
    assert gram1 == [[Fraction(-(l1 + c1))]]
    assert gram2 == [[Fraction(l2 + c1)]]


@settings(max_examples=15, deadline=None)
@given(small, small, small)
def test_even_verma_gram_sl21(l1, l2, c1):
    d = build_root_datum(2, 1, 1, 1)
    lam = Weight((l1, l2), (c1,))
    mod = modules.even_verma_truncation(d, lam, 2)
    alpha = d.pos_even[0].weight  # eps1 - eps2
    gram = mod.blocks[lam - alpha].gram.to_rows()
    assert gram == [[Fraction(l2 - l1)]]


def test_shapovalov_contravariance(alg21):
    d = alg21.datum
    lam = parse_weight("3,-1|2", 2, 1)
    lows = modules.generators(alg21, -1, "all")
    rng = random.Random(17)
    for _ in range(30):
        x = rng.choice(lows)
        u = gen_elem(rng.choice(lows))
        v = gen_elem(rng.choice(lows))
        lhs = shapovalov_pairing(alg21, multiply(alg21, gen_elem(x), u), v, lam)
        rhs = shapovalov_pairing(alg21, u, multiply(alg21, omega(alg21, gen_elem(x)), v), lam)
        assert lhs == rhs


def test_shapovalov_symmetric(alg21):
    lam = parse_weight("3,-1|2", 2, 1)
    lows = [gen_elem(g) for g in modules.generators(alg21, -1, "all")]
    for u in lows:
        for v in lows:
            assert shapovalov_pairing(alg21, u, v, lam) == shapovalov_pairing(alg21, v, u, lam)


# ----- the generator table -----------------------------------------------------------------
@pytest.mark.parametrize(
    "group",
    [(2, 1, 1, 1), (2, 2, 1, 1), (2, 3, 1, 1), (3, 3, 2, 1)],
    ids=["sl21", "sl22", "sl23", "gl33-p2"],
)
def test_generator_table_matches_per_call_oracles(group):
    """The table `Algebra` builds once gives, on every matrix unit, what the
    root datum gives on each call, and the generators sorted once by it."""
    alg = Algebra(build_root_datum(*group))
    units = [(i, j) for i in range(alg.dim) for j in range(alg.dim)]
    for g in units:
        assert alg.gen_root(g) == unit_root(alg, g), g
        assert alg.gen_drop(g) == unit_drop(alg, g), g
        assert alg.triangular_class(g) == unit_class(alg, g), g
        assert alg.order_key(g) == unit_order_key(alg, g), g
    assert list(alg.generators()) == units_in_pbw_order(alg)
    assert alg.generators() is alg.generators()  # sorted once, not per call


# ----- integral coefficients ---------------------------------------------------------------
@pytest.mark.parametrize(
    "group", [(2, 1, 1, 1), (2, 3, 1, 1), (3, 3, 2, 1)], ids=["sl21", "sl23", "gl33-p2"]
)
def test_pbw_coefficients_are_ints_and_divisions_never_float(group):
    """The structure constants on matrix units are +-1, so straightening and
    the anti-involution keep every PBW coefficient an int; the invariant
    forms and the measured constant are canonical (an int when integral,
    else a Fraction), and the monomial bound never divides into a float."""
    alg = Algebra(build_root_datum(*group))
    gens = alg.generators()
    for length in range(4):
        for word in itertools.product(gens, repeat=length):
            for c in normal_word(alg, word).values():
                assert type(c) is int, (word, c)
            for c in omega(alg, {word: 1}).values():
                assert type(c) is int, (word, c)
    for a in gens:
        for b in gens:
            assert type(alg.str_form(a, b)) is int
            c = alg.b_form(a, b)
            assert type(c) is int or (type(c) is Fraction and c.denominator != 1), (a, b, c)
    for c in Oscillator(alg).measured_constant().values():
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), c
    lows = modules.generators(alg, -1, "all")
    for h in range(4):
        by_int = modules._enumerate_monomials(alg, lows, h)
        assert by_int == modules._enumerate_monomials(alg, lows, Fraction(h))
        assert by_int == modules._enumerate_monomials(alg, lows, Fraction(2 * h + 1, 2))


# ----- the one-generator action against the whole word ------------------------------------
def _assert_letters_match_whole_word(alg, lam, words, monos):
    """A word applied one letter at a time through `modules.act_word` equals
    straightening word + mono in one go and projecting at v_lam."""
    for word in words:
        for mono in monos:
            whole = {}
            for w, c in normal_word(alg, word + mono).items():
                accumulate_pbw(alg, lam, w, c, whole)
            assert act_letters(alg, lam, word, {mono: 1}) == whole, (word, mono)


def test_letters_match_whole_word_sl21(alg21):
    lam = parse_weight("3,-1|2", 2, 1)
    gens = alg21.generators()
    words = [w for length in range(4) for w in itertools.product(gens, repeat=length)]
    monos = modules._enumerate_monomials(alg21, modules.generators(alg21, -1, "all"), 2)
    _assert_letters_match_whole_word(alg21, lam, words, monos)


def test_letters_match_whole_word_sampled_sl23(alg23):
    lam = parse_weight("-3,0|1,1,1", 2, 3)
    gens = alg23.generators()
    rng = random.Random(4099)
    words = [tuple(rng.choice(gens) for _ in range(rng.randrange(4))) for _ in range(150)]
    monos = modules._enumerate_monomials(alg23, modules.generators(alg23, -1, "all"), 2)
    _assert_letters_match_whole_word(alg23, lam, words, rng.sample(monos, 8))
