"""Root data, weights, pairing, Weyl group, heights, atypicality."""

import itertools
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import (
    FractionWeight,
    constituent_labels,
    fraction_height,
    fraction_pairing,
    fraction_root_sort_key,
    gamma_of_subset,
    harish_chandra_condition,
    odd_exterior_character,
)
from superdirac.weights import (
    Weight,
    WeylElement,
    atypicality_set,
    bounded_exponents,
    build_root_datum,
    dot_action,
    pairing,
    parse_weight,
    same_infinitesimal_character,
    subset_labels,
)

small_rats = st.integers(-4, 4).map(Fraction)


def compose(a, b):
    """The Weyl element a after b (the product a*b acting on weights)."""
    return WeylElement(tuple(a.sigma[j] for j in b.sigma), tuple(a.tau[j] for j in b.tau))


def weight_strategy(m, n):
    return st.tuples(
        st.tuples(*([small_rats] * m)), st.tuples(*([small_rats] * n))
    ).map(lambda t: Weight(t[0], t[1]))


# ----- construction and validation ------------------------------------------------
def test_rank_too_small_rejected():
    with pytest.raises(ValueError):
        build_root_datum(1, 1, 1, 0)


def test_pq_must_partition_m():
    with pytest.raises(ValueError):
        build_root_datum(2, 1, 2, 1)


def test_m_greater_than_n_is_tagged(d21, d23):
    assert d21.warnings  # m=2 > n=1
    assert not d23.warnings  # m=2 <= n=3


def test_equal_rank_needs_zero_central_charge():
    d22 = build_root_datum(2, 2, 1, 1)
    bad = parse_weight("1,0|1,0", 2, 2)  # sum eps + sum del = 2 != 0
    assert not d22.admissible_highest_weight(bad)
    ok = parse_weight("1,0|-1,0", 2, 2)
    assert d22.admissible_highest_weight(ok)


def test_root_counts(d21, d23):
    assert (len(d21.pos_even), len(d21.pos_odd)) == (1, 2)
    assert (len(d21.pos_compact), len(d21.pos_noncompact)) == (0, 1)
    assert (len(d23.pos_even), len(d23.pos_odd)) == (4, 6)
    assert (len(d23.pos_compact), len(d23.pos_noncompact)) == (3, 1)


def test_weyl_vectors(d21, d23):
    assert d21.rho0.text() == "1/2,-1/2|0"
    assert d21.rho1.text() == "1/2,-1/2|0"
    assert d21.rho.text() == "0,0|0"
    assert d23.rho1.text() == "3/2,-3/2|0,0,0"
    assert d23.rho.text() == "-1,1|1,0,-1"
    assert (d23.rho0 - d23.rho - d23.rho1).is_zero()


def test_parse_weight_roundtrip():
    w = parse_weight("-2,1/3|5", 2, 1)
    assert w.eps == (Fraction(-2), Fraction(1, 3))
    assert w.del_ == (Fraction(5),)
    assert parse_weight(w.text(), 2, 1) == w


def test_parse_weight_errors():
    with pytest.raises(ValueError):
        parse_weight("1,2", 2, 1)  # missing bar
    with pytest.raises(ValueError):
        parse_weight("1|2", 2, 1)  # wrong arity
    with pytest.raises(ValueError):
        parse_weight("1/0,1|1", 2, 1)  # zero denominator


# ----- the pairing -----------------------------------------------------------------
def test_pairing_signature(d23):
    m, n = 2, 3
    for i in range(m):
        e = Weight([1 if k == i else 0 for k in range(m)], [0] * n)
        assert pairing(e, e) == 1
    for c in range(n):
        dl = Weight([0] * m, [1 if k == c else 0 for k in range(n)])
        assert pairing(dl, dl) == -1


@pytest.mark.parametrize(
    "left, right", [((2, 1), (1, 2)), ((2, 1), (2, 3)), ((2, 3), (3, 3))]
)
def test_weights_of_different_shape_do_not_combine(left, right):
    u = Weight([1] * left[0], [1] * left[1])
    v = Weight([1] * right[0], [1] * right[1])
    for op in (Weight.__add__, Weight.__sub__, pairing):
        with pytest.raises(ValueError):
            op(u, v)
        with pytest.raises(ValueError):
            op(v, u)


def test_odd_roots_isotropic(d21, d23):
    for d in (d21, d23):
        for r in d.pos_odd:
            assert pairing(r.weight, r.weight) == 0


@settings(max_examples=30, deadline=None)
@given(weight_strategy(2, 3), weight_strategy(2, 3), small_rats)
def test_pairing_bilinear(u, v, c):
    w = u + v.scale(c)
    probe = Weight((1, -2), (3, 0, 1))
    assert pairing(w, probe) == pairing(u, probe) + c * pairing(v, probe)


def test_pairing_weyl_invariant(d23):
    u = parse_weight("1,-2|3,0,1", 2, 3)
    v = parse_weight("-1,4|1,1,-2", 2, 3)
    for w in d23.weyl_group():
        assert pairing(w.apply(u), w.apply(v)) == pairing(u, v)


# ----- heights ---------------------------------------------------------------------
def test_all_odd_roots_height_one_sl21(d21):
    assert all(d21.height(r.weight) == 1 for r in d21.pos_odd)


def test_heights_sl23(d23):
    by_text = {r.weight.text(): d23.height(r.weight) for r in d23.pos_odd}
    assert by_text["1,0|-1,0,0"] == 1  # eps1 - del1
    assert by_text["1,0|0,0,-1"] == 3  # eps1 - del3
    assert by_text["0,-1|1,0,0"] == 3  # del1 - eps2
    assert by_text["0,-1|0,0,1"] == 1  # del3 - eps2
    even = {r.weight.text(): d23.height(r.weight) for r in d23.pos_even}
    assert even["1,-1|0,0,0"] == 4  # eps1 - eps2 spans the whole u-order


@settings(max_examples=30, deadline=None)
@given(weight_strategy(2, 1), weight_strategy(2, 1))
def test_height_linear(u, v):
    d = build_root_datum(2, 1, 1, 1)
    assert d.height(u + v) == d.height(u) + d.height(v)


# ----- canonical coordinates ---------------------------------------------------------
GROUPS = {
    (m, n, p): build_root_datum(m, n, p, m - p) for m, n, p in ((2, 1, 1), (2, 3, 1), (3, 3, 2))
}
mixed = st.one_of(st.integers(-6, 6), st.integers(-9, 9).map(lambda k: Fraction(k, 2)))


def _canonical(x):
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


def _fraction_text(coords, m):
    return ",".join(map(str, coords[:m])) + "|" + ",".join(map(str, coords[m:]))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_weight_arithmetic_matches_fraction_oracle(data):
    """+, -, neg, scale, Weyl action and height equal the same computation on
    plain Fractions, and every coordinate comes out an int iff integral."""
    (m, n, p), d = data.draw(st.sampled_from(sorted(GROUPS.items())))
    a = data.draw(st.tuples(*[mixed] * (m + n)))
    b = data.draw(st.tuples(*[mixed] * (m + n)))
    c = data.draw(mixed)
    w = data.draw(st.sampled_from(d.weyl_group()))
    u, v = Weight(a[:m], a[m:]), Weight(b[:m], b[m:])
    fa, fb, fc = [Fraction(x) for x in a], [Fraction(x) for x in b], Fraction(c)
    moved = [Fraction(0)] * (m + n)
    for i, j in enumerate(w.sigma):
        moved[j] = fa[i]
    for i, j in enumerate(w.tau):
        moved[m + j] = fa[m + i]
    cases = [
        (u + v, [x + y for x, y in zip(fa, fb)]),
        (u - v, [x - y for x, y in zip(fa, fb)]),
        (-u, [-x for x in fa]),
        (u.scale(c), [fc * x for x in fa]),
        (w.apply(u), moved),
    ]
    for got, expected in cases:
        assert list(got.coords()) == expected
        assert all(_canonical(x) for x in got.coords())
        # the same bytes as a Weight holding the plain Fractions
        assert got.text() == _fraction_text(expected, m)
        old = Weight(tuple(expected[:m]), tuple(expected[m:]))
        assert got == old and hash(got) == hash(old)
    height = d.height(u)
    assert height == -sum(Fraction(k) * x for k, x in zip(d._u_positions, fa))
    assert _canonical(height)
    parsed = parse_weight(u.text(), m, n)
    assert parsed == u and all(_canonical(x) for x in parsed.coords())


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(-6, 6), min_size=5, max_size=5))
def test_int_and_integral_fraction_weights_agree(ks):
    by_int = Weight(ks[:2], ks[2:])
    by_fraction = Weight([Fraction(k) for k in ks[:2]], [Fraction(k) for k in ks[2:]])
    assert by_int == by_fraction and hash(by_int) == hash(by_fraction)
    assert all(type(x) is int for x in by_fraction.coords())
    assert by_int.text() == by_fraction.text() == _fraction_text([Fraction(k) for k in ks], 2)


# ----- the num/den weight against the Fraction-tuple oracle -------------------------
small_denominators = st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 2, 3, 6]))


def _agree(w, old):
    """The same coordinates, of the same types, and the same text."""
    assert w.eps == old.eps and w.del_ == old.del_ and w.coords() == old.coords()
    assert [type(x) for x in w.coords()] == [type(x) for x in old.coords()]
    assert w.text() == old.text() and w.is_zero() == old.is_zero()


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_weight_matches_the_fraction_tuple_oracle(data):
    """+, -, lower, negation, scale, pairing, height, root_sort_key, text,
    == and hash of `Weight` against the Fraction-tuple weight it replaced, on
    coordinates with denominators 1, 2, 3 and 6, the second weight shifted by
    0, rho0, rho1 or rho (mixed denominators, such as Lambda - rho1)."""
    (m, n, p), d = data.draw(st.sampled_from(sorted(GROUPS.items())))
    coords = st.tuples(*[small_denominators] * (m + n))
    a, b = data.draw(coords), data.draw(coords)
    shift = data.draw(st.sampled_from([d.zero(), d.rho0, d.rho1, d.rho]))
    c = data.draw(small_denominators)
    drop = data.draw(st.tuples(*[st.integers(-3, 3)] * (m + n)))
    u, v = Weight(a[:m], a[m:]), Weight(b[:m], b[m:]) - shift
    old_u = FractionWeight.make(a[:m], a[m:])
    old_v = FractionWeight.make(b[:m], b[m:]) - FractionWeight.of(shift)
    pairs = [
        (u, old_u), (v, old_v), (u + v, old_u + old_v), (u - v, old_u - old_v),
        (v - u, old_v - old_u), ((u + v) - v, (old_u + old_v) - old_v),
        (u.lower(drop), old_u.lower(drop)), (v.lower(drop), old_v.lower(drop)),
        (-v, -old_v), (u.scale(c), old_u.scale(c)), (v.scale(c), old_v.scale(c)),
    ]
    for w, old in pairs:
        _agree(w, old)
        height, old_height = d.height(w), fraction_height(d, old)
        assert height == old_height and type(height) is type(old_height)
        assert d.root_sort_key(w) == fraction_root_sort_key(d, old)
        assert pairing(w, u) == fraction_pairing(old, old_u)
        assert pairing(v, w) == fraction_pairing(old_v, old)
    for (w1, old1), (w2, old2) in itertools.product(pairs, repeat=2):
        assert (w1 == w2) == (old1 == old2)
        assert w1 != w2 or hash(w1) == hash(w2)


@pytest.mark.parametrize("drop", [(), (1,), (1, 0), (1, 0, 1, 0)])
def test_a_drop_of_another_length_is_refused(drop):
    """`lower` refuses a drop of length other than m + n, on either
    denominator, as the strict zips of the Fraction-tuple oracle do: a
    `map` would truncate a short drop silently, and a word with no letters
    has the drop ()."""
    for w in (parse_weight("-3/2,1/2|1/2", 2, 1), parse_weight("-2,1|1", 2, 1)):
        with pytest.raises(ValueError):
            w.lower(drop)
        with pytest.raises(ValueError):
            FractionWeight.of(w).lower(drop)


def test_half_integral_arithmetic_builds_no_fraction():
    """On half-integral weights over one denominator, +, -, lower, ==, hash,
    a dict lookup and integral heights build no Fraction: counted through
    `Fraction.__new__`, which Fraction arithmetic calls too. Reading the
    coordinates does build them, which shows the counter is live."""
    d = build_root_datum(2, 3, 1, 1)
    u = parse_weight("1/2,1/2|1/2,-1/2,1/2", 2, 3)
    v = parse_weight("-3/2,1/2|1/2,1/2,-1/2", 2, 3)
    same = parse_weight("1/2,1/2|1/2,-1/2,1/2", 2, 3)
    table = {u: 1}
    assert u.den == v.den == 2
    made = []
    original = Fraction.__dict__["__new__"]

    def counted(cls, *args, **kwargs):
        made.append(args)
        return original.__func__(cls, *args, **kwargs)

    Fraction.__new__ = counted
    try:
        results = [u + v, u - v, v - u, u.lower((1, 0, 2, 0, 1)), (u + v).lower((0, 1, 0, 1, 0))]
        equal = (u == same, u == v, hash(u) == hash(same), table[same])
        heights = [d.height(w) for w in (u, v, *results)]
        assert made == []
        u.coords()
        assert made
    finally:
        Fraction.__new__ = original
    assert equal == (True, False, True, 1)
    assert all(type(h) is int for h in heights)
    assert [w.text() for w in results] == [
        "-1,1|1,0,0", "2,0|0,-1,1", "-2,0|0,1,-1", "-1/2,1/2|-3/2,-1/2,-1/2", "-1,0|1,-1,0"
    ]


def test_root_sort_key_total_order(d23):
    roots = [r.weight for r in d23.pos_even + d23.pos_odd]
    keys = [d23.root_sort_key(r) for r in roots]
    assert len(set(keys)) == len(keys)
    ordered = sorted(roots, key=d23.root_sort_key)
    hts = [d23.height(r) for r in ordered]
    assert hts == sorted(hts)


# ----- Weyl group and dot action ----------------------------------------------------
def test_weyl_group_sizes(d21, d23):
    assert len(d21.weyl_group()) == 2
    assert len(d23.weyl_group()) == 12


def test_weyl_group_closed_under_composition(d23):
    group = d23.weyl_group()
    probe = parse_weight("1,-2|3,0,1", 2, 3)
    images = {w.apply(probe).coords() for w in group}
    for a in group:
        for b in group:
            assert compose(a, b).apply(probe).coords() in images


def test_dot_action_group_law(d21):
    lam = parse_weight("3,-1|2", 2, 1)
    for a in d21.weyl_group():
        for b in d21.weyl_group():
            lhs = dot_action(d21, a, dot_action(d21, b, lam, "full-rho"), "full-rho")
            rhs = dot_action(d21, compose(a, b), lam, "full-rho")
            assert lhs == rhs


# ----- atypicality and infinitesimal characters -------------------------------------
def test_atypicality_sets(d21, lam_typical, lam_atypical):
    assert atypicality_set(d21, lam_typical) == []
    atyp = atypicality_set(d21, lam_atypical)
    assert [r.weight.text() for r in atyp] == ["0,-1|1"]  # del1 - eps2
    zero = atypicality_set(d21, d21.zero())
    assert len(zero) == 2  # both odd roots


def test_atypical_shift_preserves_infinitesimal_character(d21, lam_atypical):
    alpha = atypicality_set(d21, lam_atypical)[0].weight
    assert same_infinitesimal_character(d21, lam_atypical, lam_atypical - alpha)


def test_typical_shift_changes_infinitesimal_character(d21, lam_typical):
    gamma = d21.pos_odd[0].weight
    assert not same_infinitesimal_character(d21, lam_typical, lam_typical - gamma)


def test_harish_chandra_condition(d21, lam_typical, lam_atypical):
    assert harish_chandra_condition(d21, lam_typical)
    # boundary case: (lam + rho0, eps1 - eps2) = 0 exactly
    assert not harish_chandra_condition(d21, lam_atypical)
    assert not harish_chandra_condition(d21, parse_weight("1,0|0", 2, 1))


# ----- odd subsets ------------------------------------------------------------------
def _bitmask_labels(datum, lam):
    """(S, lam - Gamma_S coordinates, S meets the atypicality set) from the
    bitmasks of 0 .. 2^mn - 1, sorted by size and then lexicographically."""
    shifted = lam + datum.rho
    out = []
    for mask in range(2 ** datum.mn):
        subset = tuple(k for k in range(datum.mn) if mask >> k & 1)
        coords = [Fraction(x) for x in lam.coords()]
        for k in subset:
            coords = [a - b for a, b in zip(coords, datum.pos_odd[k].weight.coords())]
        atypical = any(pairing(shifted, datum.pos_odd[k].weight) == 0 for k in subset)
        out.append((subset, tuple(coords), atypical))
    return sorted(out, key=lambda e: (len(e[0]), e[0]))


def _atypical_along_first_root(datum, lam):
    """lam with one del coordinate moved so that (lam + rho, pos_odd[0]) = 0;
    the first odd root is +-(eps_1 - del_1), and (x, eps_1 - del_1) = x_1 + y_1."""
    shifted = lam + datum.rho
    del_ = list(lam.del_)
    del_[0] -= shifted.eps[0] + shifted.del_[0]
    return Weight(lam.eps, del_)


@pytest.mark.parametrize(
    "group, typical, half",
    [
        ((2, 1, 0, 2), "-2,1|1", "-3/2,1/2|1/2"),
        ((2, 1, 1, 1), "-2,1|1", "-3/2,1/2|1/2"),
        ((2, 1, 2, 0), "3,-1|2", "-3/2,1/2|1/2"),
        ((2, 2, 1, 1), "-3,1|1,1", "-3/2,1/2|1/2,1/2"),
        ((2, 3, 1, 1), "-3,0|1,1,1", "-5/2,1/2|1/2,1/2,1"),
        ((3, 3, 2, 1), "-4,-3,1|2,2,2", "-5/2,-3/2,1|1/2,3/2,1"),
    ],
    ids=["sl21-p0", "sl21-p1", "sl21-p2", "sl22", "sl23", "gl33-p2"],
)
def test_subset_labels_match_bitmask_oracle(group, typical, half):
    """Every subset S, the order, the label lam - Gamma_S and the atypical
    flag against a bitmask enumeration, against lam - `gamma_of_subset`, and
    the unflagged subsets against `constituent_labels`, on a typical, an
    atypical and a half-integral weight; at lam = 0 the labels, counted
    with multiplicity, are the exterior character of n1^-."""
    datum = build_root_datum(*group)
    ext = Counter(mu for _, mu, _ in subset_labels(datum, datum.zero()))
    assert ext == odd_exterior_character(datum)
    lam_typical = parse_weight(typical, datum.m, datum.n)
    lams = [lam_typical, _atypical_along_first_root(datum, lam_typical),
            parse_weight(half, datum.m, datum.n)]
    if group == (2, 1, 1, 1):
        lams.append(parse_weight("-1,0|0", 2, 1))
    flagged = []
    for lam in lams:
        labels = subset_labels(datum, lam)
        assert len(labels) == 2 ** datum.mn
        assert [(s, mu.coords(), a) for s, mu, a in labels] == _bitmask_labels(datum, lam)
        assert all(mu == lam - gamma_of_subset(datum, s) for s, mu, _ in labels)
        assert [(frozenset(s), mu) for s, mu, a in labels if not a] == constituent_labels(
            datum, lam
        )
        flagged.append(any(a for _, _, a in labels))
    assert flagged[1] and not flagged[0]
    if len(lams) == 4:
        assert flagged[3]


@pytest.mark.parametrize(
    "heights, bound, caps",
    [
        ([1, 1, 1], 3, [None, None, None]),
        ([2, 1, 3], 5, [None, 1, None]),
        ([1, 2, 1], Fraction(5, 2), [1, None, 1]),
        ([1, 2], Fraction(7, 3), [1, 1]),
        ([3], 2, [None]),
        ([], 2, []),
    ],
)
def test_bounded_exponents_match_brute_force(heights, bound, caps):
    """Every vector under the caps and the height bound, in lexicographic
    order, against a filter of all vectors with entries up to the bound."""
    box = itertools.product(range(int(bound) + 1), repeat=len(heights))
    expected = [
        a for a in box
        if all(c is None or e <= c for e, c in zip(a, caps))
        and sum(e * h for e, h in zip(a, heights)) <= bound
    ]
    assert bounded_exponents(heights, bound, caps) == expected
    if not heights:
        assert expected == [()]
