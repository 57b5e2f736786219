"""Truncated highest-weight modules: the one-generator action, block
dimensions, Gram radicals, characters, the Verma filtration identity, and
unitarity certification."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import (
    dirac_scalar_pairing,
    dirac_scalar_two_pairings,
    quadratic_value,
    shapovalov_pairing,
    straightened_act,
    verma_filtration_by_modules,
    written_out_even_sum,
)
from superdirac import analysis, exactla, modules
from superdirac.exactla import SparseRationalMatrix
from superdirac.weights import Weight, build_root_datum, parse_weight, subset_labels

KINDS = ("verma", "simple", "even-verma", "even-simple", "compact-simple")


# ----- the one-generator action -----------------------------------------------------------
@pytest.mark.parametrize(
    "group, weight, height",
    [
        ((2, 1, 1, 1), "-2,1|1", 6),
        ((2, 1, 1, 1), "-3/2,1/2|1/2", 4),
        ((2, 1, 1, 1), "-5/3,1|1", 4),
        ((2, 2, 1, 1), "-3,1|1,1", 3),
        ((2, 3, 1, 1), "-3,0|1,1,1", 2),
        ((3, 3, 2, 1), "-2,-2,1|1,1,1", 2),
    ],
    ids=["sl21", "sl21-half", "sl21-thirds", "sl22", "sl23", "gl33-p2"],
)
def test_action_matches_straightening_oracle(group, weight, height):
    """The module recursion for g X v_lam equals straightening (g,) + X in
    U(g) and projecting at v_lam, dict for dict, for every generator of
    every class and every basis monomial of the Verma truncation, and keeps
    every coefficient canonical (an int when integral, else a Fraction)."""
    datum = build_root_datum(*group)
    lam = parse_weight(weight, datum.m, datum.n)
    mod = modules.verma_truncation(datum, lam, height)
    alg = mod.alg
    assert {alg.triangular_class(g) for g in alg.generators()} == {
        "negative", "cartan", "positive"
    }
    monos = [m for b in mod.blocks.values() for m in b.monomials]
    for g in alg.generators():
        for mono in monos:
            img = mod.act(g, mono)
            assert img == straightened_act(alg, lam, g, mono), (g, mono)
            for c in img.values():
                assert type(c) is int or (type(c) is Fraction and c.denominator != 1)
            assert mod.act(g, mono) is img  # memoized on the module


def test_action_memo_belongs_to_the_module(d21):
    """Two modules of different highest weights over one Algebra keep their
    own images: the memo is per module, not per Algebra."""
    alg = modules.Algebra(d21)
    lam, mu = parse_weight("-2,1|1", 2, 1), parse_weight("-3/2,1/2|1/2", 2, 1)
    a = modules._build(d21, lam, Fraction(3), "simple", alg)
    b = modules._build(d21, mu, Fraction(3), "simple", alg)
    assert a._act and b._act and a._act is not b._act
    for g in alg.generators():
        for mono in b.by_drop[(1, -1, 0)].monomials:
            assert b.act(g, mono) == straightened_act(alg, mu, g, mono)
            assert a.act(g, mono) == straightened_act(alg, lam, g, mono)


# ----- block dimensions ---------------------------------------------------------------
def test_verma_block_dims_sl21(d21):
    lam = parse_weight("3,-1|2", 2, 1)
    mod = modules.verma_truncation(d21, lam, 2)
    g1 = d21.pos_odd[0].weight  # eps1 - del1
    g2 = d21.pos_odd[1].weight  # del1 - eps2
    alpha = d21.pos_even[0].weight  # eps1 - eps2 = g1 + g2
    dims = {nu: mod.block_dim(nu) for nu in mod.blocks}
    assert dims[lam] == 1
    assert dims[lam - g1] == 1
    assert dims[lam - g2] == 1
    # height 2: the even lowering and the product of the two odd lowerings
    assert dims[lam - alpha] == 2
    assert len(dims) == 4


def test_odd_lowerings_square_to_zero_in_verma(d21):
    lam = parse_weight("3,-1|2", 2, 1)
    mod = modules.verma_truncation(d21, lam, 2)
    g1 = d21.pos_odd[0].weight
    assert mod.block_dim(lam - g1.scale(2)) == 0


def test_trivial_simple_module_is_one_dimensional(d21, d23):
    for d in (d21, d23):
        mod = modules.simple_truncation(d, d.zero(), 3)
        for nu in mod.blocks:
            assert mod.block_dim(nu) == (1 if nu.is_zero() else 0)


def test_atypical_radical_direction(d21, lam_atypical):
    mod = modules.simple_truncation(d21, lam_atypical, 2)
    g1 = d21.pos_odd[0].weight  # eps1 - del1: (lam+rho, g1) = -1, survives
    g2 = d21.pos_odd[1].weight  # del1 - eps2: atypical, killed
    assert mod.block_dim(lam_atypical - g1) == 1
    assert mod.block_dim(lam_atypical - g2) == 0


def test_simple_dims_bounded_by_verma(d21, lam_typical):
    verma = modules.verma_truncation(d21, lam_typical, 3)
    simple = modules.simple_truncation(d21, lam_typical, 3)
    for nu in verma.blocks:
        assert simple.block_dim(nu) <= verma.block_dim(nu)


def test_gram_blocks_symmetric_and_radical_consistent(d21, lam_typical):
    mod = modules.simple_truncation(d21, lam_typical, 3)
    for nu, b in mod.blocks.items():
        if b.gram is None:
            continue
        assert b.gram.is_symmetric()
        assert len(b.monomials) - len(b.radical) == b.dim



@pytest.mark.parametrize(
    "group, weight, height",
    [((2, 1, 1, 1), "-1,0|0", 4), ((2, 2, 1, 1), "-3,1|1,1", 3)],
    ids=["sl21-atypical", "sl22"],
)
def test_every_block_stores_its_quotient(group, weight, height):
    """One coordinate system for all five kinds: a Verma-kind block stores
    the identity quotient (every coordinate kept, identity reduction, form =
    Gram, basis = monomials), a simple-kind block the quotient by its radical
    (form = Gram on the kept coordinates), and every block indexes its
    monomials by position. The simple module has a radical here."""
    datum = build_root_datum(*group)
    lam = parse_weight(weight, datum.m, datum.n)
    with_radical = set()
    for kind in KINDS:
        mod = modules._build(datum, lam, Fraction(height), kind)
        for b in mod.blocks.values():
            n = len(b.monomials)
            assert b.index == {m: i for i, m in enumerate(b.monomials)}, kind
            if kind.endswith("verma"):
                assert b.qmap.kept == list(range(n)), kind
                identity = SparseRationalMatrix(n, n, {(i, i): 1 for i in range(n)})
                assert b.qmap.reduction == identity, kind
                assert b.form.entries == b.gram.entries and b.basis == b.monomials, kind
            else:
                assert b.form == b.gram.submatrix(b.qmap.kept, b.qmap.kept), kind
                assert b.dim == n - len(b.radical), kind
                if b.radical:
                    with_radical.add(kind)
    assert "simple" in with_radical

# ----- Gram blocks against the PBW straightening oracle --------------------------------
def _assert_grams_match_oracle(datum, lam, height):
    """Every Gram block of every kind equals the one paired entry by entry by
    straightening omega(X) Y in U(g), at exact Fraction equality."""
    for kind in KINDS:
        mod = modules._build(datum, lam, Fraction(height), kind)
        for nu, b in mod.blocks.items():
            oracle = [
                [
                    shapovalov_pairing(mod.alg, {x: Fraction(1)}, {y: Fraction(1)}, lam)
                    for y in b.monomials
                ]
                for x in b.monomials
            ]
            assert b.gram.to_rows() == oracle, (kind, nu.text())


@settings(max_examples=12, deadline=None)
@given(st.tuples(*[st.integers(-3, 3)] * 3), st.integers(0, 4))
def test_gram_recursion_matches_pairing_oracle_sl21(d21, coords, height):
    lam = parse_weight(f"{coords[0]},{coords[1]}|{coords[2]}", 2, 1)
    _assert_grams_match_oracle(d21, lam, height)


@pytest.mark.parametrize(
    "group, weight, height",
    [
        ((2, 1, 1, 1), "0,0|-1", 4),  # refuted
        ((2, 2, 1, 1), "-3,1|1,1", 2),
        ((2, 3, 1, 1), "-3,0|1,1,1", 2),
        ((3, 3, 2, 1), "-3,0,0|1,1,1", 2),
    ],
)
def test_gram_recursion_matches_pairing_oracle(group, weight, height):
    datum = build_root_datum(*group)
    _assert_grams_match_oracle(datum, parse_weight(weight, group[0], group[1]), height)


# ----- characters ----------------------------------------------------------------------
def test_character_of_trivial(d21):
    mod = modules.simple_truncation(d21, d21.zero(), 2)
    ch = modules.character(mod)
    assert {w: m for w, m in ch.multiplicities.items() if m} == {d21.zero(): 1}


def test_characters_equal_detects_difference(d21, lam_typical):
    simple = modules.character(modules.simple_truncation(d21, lam_typical, 2))
    verma = modules.character(modules.verma_truncation(d21, lam_typical, 2))
    ok, diff = modules.characters_equal_to_height(
        d21, simple, simple, lam_typical, Fraction(2)
    )
    assert ok and diff is None
    # the atypical weight has a visible radical at height 1
    lam = parse_weight("-1,0|0", 2, 1)
    s2 = modules.character(modules.simple_truncation(d21, lam, 2))
    v2 = modules.character(modules.verma_truncation(d21, lam, 2))
    ok2, diff2 = modules.characters_equal_to_height(d21, s2, v2, lam, Fraction(2))
    assert not ok2
    assert diff2.text() == "-1,1|-1"  # lam - (del1 - eps2), the radical direction


# ----- Verma filtration -----------------------------------------------------------------
def test_verma_filtration_sl21(d21):
    for text in ("3,-1|2", "0,0|0", "-2,1|1"):
        lam = parse_weight(text, 2, 1)
        ok, diff = modules.verma_filtration_check(d21, lam, 2)
        assert ok, diff


def test_verma_filtration_sl23(d23):
    lam = parse_weight("-2,1|1,0,-1", 2, 3)
    ok, diff = modules.verma_filtration_check(d23, lam, 2)
    assert ok, diff


FILTRATION_CASES = [
    ((2, 1, 1, 1), "-2,1|1", 3),
    ((2, 1, 1, 1), "-1,0|0", 3),
    ((2, 1, 1, 1), "-3/2,1/2|1/2", 2),
    ((2, 1, 2, 0), "3,-1|2", 2),
    ((2, 2, 1, 1), "-3,1|1,1", 2),
    ((2, 3, 1, 1), "-3,0|1,1,1", 2),
    ((3, 3, 2, 1), "-2,-2,1|1,1,1", 2),
]
FILTRATION_IDS = ["sl21-typical", "sl21-atypical", "sl21-half", "sl21-p2", "sl22", "sl23", "gl33"]


@pytest.mark.parametrize("group, weight, height", FILTRATION_CASES, ids=FILTRATION_IDS)
def test_verma_characters_are_pbw_counts(group, weight, height):
    """The PBW monomials counted per drop give the characters of the built
    Verma modules M(lam) and M0(lam), and the filtration check on them agrees
    with the one that builds M(lam) and every M0(lam - Gamma_S)."""
    datum = build_root_datum(*group)
    lam = parse_weight(weight, datum.m, datum.n)
    alg = modules.Algebra(datum)
    for restriction, kind in (("all", "verma"), ("even", "even-verma")):
        counts = modules._monomials_by_drop(alg, restriction, Fraction(height))
        built = modules.character(modules._build(datum, lam, Fraction(height), kind))
        assert {lam.lower(d): len(ms) for d, ms in counts.items()} == built.multiplicities
    assert modules.verma_filtration_check(datum, lam, height) == (True, None)
    assert verma_filtration_by_modules(datum, lam, height) == (True, None)


def test_verma_filtration_reports_the_lowest_differing_weight(monkeypatch):
    """A count of M(lam) made wrong at two drops is reported at the lower
    one in the drop order; a wrong top count of M0 shows at lam itself."""
    datum = build_root_datum(2, 2, 1, 1)
    lam = parse_weight("-3,1|1,1", 2, 2)
    counts = modules._monomials_by_drop
    drops = sorted(counts(modules.Algebra(datum), "all", Fraction(2)), key=datum.drop_key)
    for restriction, spoiled in (("all", [drops[-1], drops[3]]), ("even", [drops[0]])):

        def spoiling(alg, r, height, restriction=restriction, spoiled=spoiled):
            out = counts(alg, r, height)
            if r == restriction:
                for d in spoiled:
                    out[d] = out[d] + [("extra",)]
            return out

        monkeypatch.setattr(modules, "_monomials_by_drop", spoiling)
        lowest = min(spoiled, key=datum.drop_key)
        assert modules.verma_filtration_check(datum, lam, 2) == (False, lam.lower(lowest))


@pytest.mark.parametrize(
    "group, weight, height",
    [
        ((2, 1, 1, 1), "-2,1|1", 3),
        ((2, 1, 1, 1), "-1,0|0", 3),
        ((2, 1, 1, 1), "-3/2,1/2|1/2", 2),
        ((2, 1, 2, 0), "3,-1|2", 2),
        ((2, 2, 1, 1), "-3,1|1,1", 2),
        ((2, 3, 1, 1), "-3,0|1,1,1", 2),
    ],
    ids=["sl21-typical", "sl21-atypical", "sl21-half", "sl21-p2", "sl22", "sl23"],
)
def test_even_character_sum_matches_written_out_sums(group, weight, height, monkeypatch):
    """Every kind of `even_character_sum` against the sums written out one
    module per term: ch L0(mu) over the included branching labels mu, and
    signed sums of ch L0(mu) and ch F^mu whose coefficients are negative,
    repeat a mu or cancel to zero (such a mu is not built). The Verma kinds
    are refused: a Verma character is a PBW count."""
    datum = build_root_datum(*group)
    lam = parse_weight(weight, datum.m, datum.n)
    labels = [mu for _, mu, _ in subset_labels(datum, lam)]
    included = [(mu, 1) for mu in analysis.even_decomposition(datum, lam, True).included_labels()]
    simple = modules.even_character_sum(datum, lam, included, height, "even-simple")
    assert simple.base == lam
    assert simple.multiplicities == written_out_even_sum(
        datum, lam, included, height, modules.even_simple_truncation
    )
    # alternating signs, lam twice more (total 3), and labels[1] cancelled
    signed = [(mu, (-1) ** i) for i, mu in enumerate(labels)]
    signed += [(lam, 2), (labels[1], 1)]
    totals = {}
    for mu, c in signed:
        totals[mu] = totals.get(mu, 0) + c
    built = []
    build = modules._build

    def recording(datum, mu, *rest):
        built.append(mu)
        return build(datum, mu, *rest)

    monkeypatch.setattr(modules, "_build", recording)
    for kind, oracle in (
        ("even-simple", modules.even_simple_truncation),
        ("compact-simple", modules.compact_simple_truncation),
    ):
        built.clear()
        total = modules.even_character_sum(datum, lam, signed, height, kind)
        assert built == [
            mu for mu, c in totals.items() if c and datum.height(lam - mu) <= height
        ]
        assert total.multiplicities == written_out_even_sum(datum, lam, signed, height, oracle)
    for kind in ("verma", "simple", "even-verma"):
        with pytest.raises(ValueError):
            modules.even_character_sum(datum, lam, included, height, kind)


# ----- k-types --------------------------------------------------------------------------
def test_ktype_table_trivial(d21):
    mod = modules.simple_truncation(d21, d21.zero(), 2)
    table = modules.ktype_table(mod)
    assert {w: m for w, m in table.items() if m} == {d21.zero(): 1}


def test_ktype_table_compact_simple(d23):
    # the compact subalgebra gl(1)+gl(1)+gl(3) highest weight cell
    lam = parse_weight("0,0|2,1,0", 2, 3)
    mod = modules.compact_simple_truncation(d23, lam, 3)
    assert mod.block_dim(lam) == 1
    # all weights stay inside lam - (compact positive cone)
    for nu in mod.blocks:
        if mod.block_dim(nu):
            drop = lam - nu
            assert d23.height(drop) >= 0
    # an irreducible compact module has one compact-highest weight
    table = modules.ktype_table(mod)
    assert table == {lam: 1}
    assert table == _oracle_ktype_table(mod)


def _oracle_ktype_table(module):
    """The k-type table by applying each compact raising generator to the
    stored basis by PBW straightening of g X, reducing the images to
    the target block's stored coordinates (decided here by the module's
    kind), and taking the kernel of the stacked rows."""
    alg = module.alg
    lam = module.highest_weight
    compact_roots = {r.weight.coords() for r in module.datum.pos_compact}
    raising = [
        g
        for g in modules.generators(alg, +1, "all")
        if alg.parity(g) == 0 and alg.gen_root(g).coords() in compact_roots
    ]
    simple = module.kind.endswith("simple")
    table = {}
    for nu in module.sorted_weights():
        b = module.blocks[nu]
        if simple:
            cols = [b.monomials[i] for i in exactla.quotient(b.radical, len(b.monomials)).kept]
        else:
            cols = b.monomials
        if not cols:
            continue
        stacked = []
        for g in raising:
            tb = module.blocks.get(nu + alg.gen_root(g))
            if tb is None:
                continue  # raising lands above the highest weight: image zero
            index = {m: i for i, m in enumerate(tb.monomials)}
            reduction = exactla.quotient(tb.radical, len(tb.monomials)).reduction
            coords = []
            for mono in cols:
                vec = [Fraction(0)] * len(tb.monomials)
                for m, c in straightened_act(alg, lam, g, mono).items():
                    vec[index[m]] += c
                coords.append(reduction.apply(vec) if simple else vec)
            for r in range(len(coords[0])):
                stacked.append([coords[c][r] for c in range(len(cols))])
        if not stacked:
            table[nu] = len(cols)
            continue
        kdim = len(exactla.kernel_basis(SparseRationalMatrix.from_rows(stacked)))
        if kdim:
            table[nu] = kdim
    return table


@pytest.mark.parametrize(
    "group, weight, height",
    [
        ((2, 1, 0, 2), "1,0|-3", 3),
        ((2, 1, 0, 2), "0,0|0", 3),
        ((2, 1, 1, 1), "-2,1|1", 3),
        ((2, 1, 1, 1), "-1,0|0", 3),  # atypical: radicals in the simple kinds
        ((2, 1, 2, 0), "-2,1|1", 3),
        ((2, 1, 2, 0), "2,0|1", 3),
        ((2, 2, 1, 1), "-3,1|1,1", 2),
        ((2, 3, 1, 1), "-3,0|1,1,1", 2),
        ((3, 3, 2, 1), "-3,0,0|1,1,1", 2),
    ],
)
def test_ktype_table_matches_act_word_oracle(group, weight, height):
    datum = build_root_datum(*group)
    lam = parse_weight(weight, datum.m, datum.n)
    for kind in KINDS:
        mod = modules._build(datum, lam, Fraction(height), kind)
        assert modules.ktype_table(mod) == _oracle_ktype_table(mod), kind


# ----- unitarity certification ------------------------------------------------------------
def test_certification_verdicts(d21):
    expected = {
        "-2,1|1": "certified-up-to-N",
        "-1,0|0": "certified-up-to-N",
        "0,0|0": "certified-up-to-N",
        "1,0|0": "refuted-at",
        "0,0|-1": "refuted-at",
    }
    for text, verdict in expected.items():
        cert = modules.certify_unitarity(d21, parse_weight(text, 2, 1), 2)
        assert cert.verdict == verdict, text


def test_refutation_blocks_and_witnesses(d21):
    c1 = modules.certify_unitarity(d21, parse_weight("1,0|0", 2, 1), 2)
    assert c1.refuted_block.text() == "0,0|1"
    c2 = modules.certify_unitarity(d21, parse_weight("0,0|-1", 2, 1), 2)
    assert c2.refuted_block.text() == "0,1|-2"
    for cert, lam in ((c1, "1,0|0"), (c2, "0,0|-1")):
        mod = modules.simple_truncation(d21, parse_weight(lam, 2, 1), 2)
        gq = mod.blocks[cert.refuted_block].form
        assert quadratic_value(gq, cert.witness) < 0



def test_certify_rejects_a_verma_module(d21):
    """The Verma truncation of a refuted weight is not L(lam): certifying
    with it must raise, not read its blocks as the simple module's."""
    lam = parse_weight("0,0|-1", 2, 1)
    assert modules.certify_unitarity(d21, lam, 4).verdict == "refuted-at"
    with pytest.raises(ValueError, match="simple truncation"):
        modules.certify_unitarity(d21, lam, 4, module=modules.verma_truncation(d21, lam, 4))


@pytest.mark.parametrize("weight, height", [("-2,1|1", 4), ("0,0|-1", 3)])
def test_certify_rejects_the_simple_module_of_another_weight_or_height(d21, weight, height):
    lam = parse_weight("0,0|-1", 2, 1)
    other = modules.simple_truncation(d21, parse_weight(weight, 2, 1), height)
    with pytest.raises(ValueError, match="simple truncation"):
        modules.certify_unitarity(d21, lam, 4, module=other)

def test_refuted_audit_contains_criterion_label(d21):
    # the violated component lam - (eps1 - del1) with scalar +2
    lam = parse_weight("0,0|-1", 2, 1)
    cert = modules.certify_unitarity(d21, lam, 2)
    g1 = d21.pos_odd[0].weight
    entries = {mu.coords(): s for mu, s in cert.audit}
    assert entries[(lam - g1).coords()] == 2


def test_certified_audit_scalars_nonnegative(d21, lam_typical):
    cert = modules.certify_unitarity(d21, lam_typical, 2)
    assert cert.certified
    assert all(s >= 0 for _, s in cert.audit)
    assert all(s > 0 for mu, s in cert.audit if mu != lam_typical)


def test_dirac_scalar_zero_on_highest_weight(d21, lam_typical):
    t = (lam_typical + d21.rho).scale(2).coords()
    assert modules.dirac_scalar(d21, t, (0,) * (d21.m + d21.n)) == 0


@pytest.mark.parametrize(
    "group", [(2, 1, 1, 1), (2, 2, 1, 1), (3, 3, 2, 1)], ids=["sl21", "sl22", "gl33-p2"]
)
def test_dirac_scalar_one_pairing_matches_two(group):
    """s over the drop lam - mu with t = 2(lam + rho), the one pairing
    (mu - lam, mu + lam + 2 rho) and the two pairings (mu + 2 rho, mu) -
    (lam + 2 rho, lam) agree on every ordered pair of a grid of weights with
    half-integral and thirds coordinates, and on two of them against their
    subset labels (integer drops)."""
    datum = build_root_datum(*group)
    values = [Fraction(k, 2) for k in range(-3, 4)] + [Fraction(k, 3) for k in (-4, -1, 2, 5)]
    rng = random.Random(13)
    grid = [
        Weight(
            [rng.choice(values) for _ in range(datum.m)],
            [rng.choice(values) for _ in range(datum.n)],
        )
        for _ in range(16)
    ]
    pairs = list(itertools.product(grid, repeat=2))
    pairs += [(lam, mu) for lam in grid[:2] for _, mu, _ in subset_labels(datum, lam)]
    for lam, mu in pairs:
        t = (lam + datum.rho).scale(2).coords()
        s = modules.dirac_scalar(datum, t, (lam - mu).coords())
        assert s == dirac_scalar_pairing(datum, lam, mu) == dirac_scalar_two_pairings(datum, lam, mu)


def test_constituent_labels_exclude_atypical_directions(d21, lam_atypical):
    labels = subset_labels(d21, lam_atypical)
    subsets = {s for s, _, atypical in labels if not atypical}
    # index 1 is the atypical direction del1 - eps2
    assert () in subsets and (0,) in subsets
    assert all(1 not in s for s in subsets)
    assert all(1 in s for s, _, atypical in labels if atypical)
