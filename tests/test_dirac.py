"""Dirac blocks: the operator, its square, adjointness, cohomology, index."""

import functools
import itertools
import operator
import random
import re
from collections import Counter
from dataclasses import fields, replace
from fractions import Fraction
from types import SimpleNamespace

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import (
    basis_weight,
    block_gram,
    cap_basis,
    cone_sums,
    dense_g0_constituents,
    dirac_quarters,
    dirac_scalar_pairing,
    four_product_certificate,
    fraction_kernel,
    fraction_rref,
    harish_chandra_audit,
    highest_vectors,
    highest_vectors_per_generator,
    identity_matrix,
    in_even_cone,
    is_positive_multiple,
    key_union_certificate,
    kostant_d,
    kostant_per_degree,
    monomials_of_degree,
    oracle_block_cohomology,
    oracle_cohomology,
    oracle_ktype_table,
    quarters_adjoint,
    scaled,
    stacked,
)
from test_conformance import TABLE as CONFORMANCE_GRID

from superdirac import analysis, dirac, exactla, modules, oscillator
from superdirac.exactla import SparseRationalMatrix
from superdirac.oscillator import Oscillator
from superdirac.uea import Algebra
from superdirac.weights import Weight, build_root_datum, parse_weight


def test_highest_weight_vector_in_kernel(coll_typical3, d21, lam_typical):
    top = lam_typical - d21.rho1
    block = coll_typical3.blocks[top]
    assert block.dim == 1
    assert block.D.is_zero()


def test_square_audit_matches_pairing(coll_typical3, coll_atypical2, coll_trivial21):
    for coll in (coll_typical3, coll_atypical2, coll_trivial21):
        report = dirac.dirac_square_audit(coll)
        assert report.all_matched
        for e in report.entries:
            assert e.measured == -2 * e.s
        assert report.semisimple_blocks_checked > 0


def test_square_audit_constants(coll_typical3, d21):
    from superdirac.weights import pairing

    report = dirac.dirac_square_audit(coll_typical3)
    cand = pairing(d21.rho1 - d21.rho0.scale(2), d21.rho1)
    assert report.constant_candidates == {"plus": cand, "minus": -cand}
    assert report.constant_measured["str-normalized"] == cand


def test_anti_selfadjointness(coll_typical3, coll_atypical2, coll_refuted2):
    # D^T G + G D = 0 is a formal contravariance identity: it holds on all
    # blocks whether or not the Gram form is definite
    for coll in (coll_typical3, coll_atypical2, coll_refuted2):
        for block in coll.blocks.values():
            cert = dirac.anti_selfadjoint_certificate(block)
            assert cert.ok
            assert cert.halves_adjoint


def test_parity_reversal(coll_typical3):
    for block in coll_typical3.blocks.values():
        assert all(block.parity[i] != block.parity[j] for i, j in block.D.entries)


def test_g0_invariance(coll_typical3):
    """[D, X_D] = 0 as maps out of each block, for every even generator whose
    target block is assembled."""
    alg = coll_typical3.module.alg
    for nu, block in coll_typical3.blocks.items():
        for g in alg.even_generators():
            tgt = coll_typical3.blocks.get(nu + alg.gen_root(g))
            if tgt is not None:
                x = dirac.diagonal_action_matrix(block, tgt, g)
                assert tgt.D.matmul(x).to_rows() == x.matmul(block.D).to_rows()


def test_kernel_stabilizes_for_certified(coll_typical3):
    """ker D = ker D^2 = ker D^3 on every block of a unitarizable input."""
    for block in coll_typical3.blocks.values():
        if block.dim == 0:
            continue
        d2 = block.D.matmul(block.D)
        d3 = d2.matmul(block.D)
        k1 = len(exactla.kernel_basis(block.D))
        k2 = len(exactla.kernel_basis(d2))
        k3 = len(exactla.kernel_basis(d3))
        assert k1 == k2 == k3


def test_cohomology_is_kernel_for_certified(coll_typical3, rep_typical3):
    """No ker-cap-im correction on unitarizable inputs: H_D = ker D."""
    for nu, bc in rep_typical3.per_block.items():
        block = coll_typical3.blocks[nu]
        ker_dim = len(exactla.kernel_basis(block.D))
        assert bc.hd_plus + bc.hd_minus == ker_dim


def test_typical_cohomology_equals_even_simple(
    coll_typical3, rep_typical3, d21, lam_typical
):
    target = lam_typical - d21.rho1
    l0 = modules.even_simple_truncation(d21, target, 3)
    ok, diff = modules.characters_equal_to_height(
        d21, rep_typical3.character(), modules.character(l0), target, Fraction(3)
    )
    assert ok, diff
    assert rep_typical3.hd_minus_total() == 0


def test_atypical_extra_kernel_classes(coll_atypical2, d21, lam_atypical):
    """Documented finding: for an atypical certified weight the Dirac kernel
    strictly contains the even simple module with shifted highest weight; the
    extra classes are v (x) x^k along the odd direction annihilating v."""
    rep = dirac.dirac_cohomology(coll_atypical2)
    g2 = d21.pos_odd[1].weight  # del1 - eps2, the atypicality direction
    extra = lam_atypical - d21.rho1 - g2
    bc = rep.per_block[extra]
    assert bc.hd_minus == 1  # oscillator degree 1: odd parity
    block = coll_atypical2.blocks[extra]
    assert block.dim == 1 and block.D.is_zero()
    assert rep.hd_minus_total() > 0


def test_verma_cohomology_plus_minus_vs_index(d21, lam_typical):
    mod = modules.verma_truncation(d21, lam_typical, 2)
    coll = dirac.assemble_all(mod, 2)
    rep = dirac.dirac_cohomology(coll)
    idx = dirac.dirac_index(coll)
    assert idx == rep.signed_table()


def test_index_equals_signed_cohomology(coll_typical3, rep_typical3, coll_trivial21):
    assert dirac.dirac_index(coll_typical3) == rep_typical3.signed_table()
    rep_triv = dirac.dirac_cohomology(coll_trivial21)
    assert dirac.dirac_index(coll_trivial21) == rep_triv.signed_table()


def test_inequality_audit_refuted_weight(coll_refuted2, d21, lam_refuted):
    entries = dirac.g0_constituents(coll_refuted2)
    g1 = d21.pos_odd[0].weight
    target = lam_refuted - g1
    hits = [e for e in entries if e.mu == target]
    assert len(hits) == 1
    e = hits[0]
    assert e.s == 2 and e.s > 0
    assert e.measured == -4 and not e.measured > 0


def test_inequality_audit_certified_weight(coll_typical3, lam_typical):
    for e in dirac.g0_constituents(coll_typical3):
        assert e.s >= 0
        assert e.measured <= 0
        if e.mu != lam_typical:
            assert e.s > 0  # strict inequality off the top


def test_highest_vectors_top_block(coll_typical3, d21, lam_typical):
    top = lam_typical - d21.rho1
    hvs = highest_vectors(coll_typical3, top)
    assert hvs == [(Fraction(1),)]


def test_hd_ktype_tables_consistent(coll_typical3, rep_typical3):
    plus = dirac.hd_ktype_table(coll_typical3, rep_typical3, +1)
    minus = dirac.hd_ktype_table(coll_typical3, rep_typical3, -1)
    # sl(2|1) has no compact roots: every class is a compact type
    per_block = rep_typical3.per_block
    assert plus == {nu: bc.hd_plus for nu, bc in per_block.items() if bc.hd_plus}
    assert minus == {nu: bc.hd_minus for nu, bc in per_block.items() if bc.hd_minus}
    even_plus = oracle_ktype_table(coll_typical3, oracle_cohomology(coll_typical3), +1, "even")
    assert sum(even_plus.values()) <= sum(plus.values())


def test_uniqueness_distinct_certified_inputs_have_distinct_tables(d21):
    tables = []
    for text in ("-2,1|1", "-1,0|0", "0,0|0"):
        lam = parse_weight(text, 2, 1)
        mod = modules.simple_truncation(d21, lam, 2)
        coll = dirac.assemble_all(mod, 2)
        rep = dirac.dirac_cohomology(coll)
        plus = dirac.hd_ktype_table(coll, rep, +1)
        minus = dirac.hd_ktype_table(coll, rep, -1)
        tables.append((plus, minus))
    for i in range(len(tables)):
        for j in range(i + 1, len(tables)):
            assert tables[i] != tables[j]


def test_assemble_by_degree_matches_heights_sl21(d21):
    """For sl(2|1) the polynomial degree and the height coincide on the
    trivial module, so the two assemblies agree."""
    mod = modules.simple_truncation(d21, d21.zero(), 3)
    by_height = dirac.assemble_all(mod, 3)
    mod0 = modules.simple_truncation(d21, d21.zero(), 0)
    by_degree = dirac.assemble_by_degree(mod0, 3)
    dims_h = {nu: b.dim for nu, b in by_height.blocks.items() if b.dim}
    dims_d = {nu: b.dim for nu, b in by_degree.blocks.items() if b.dim}
    assert dims_h == dims_d


def test_assemble_by_degree_nonzero_operator_matches_assemble_all(d21):
    """On the natural module L(eps1) (weight 1,0|0, finite-dimensional, so
    every weight space lies in the truncation) the odd generators act, and the
    blocks of polynomial degree <= 2 carry a nonzero D: each equals the block
    of the same drop assembled by height."""
    mod = modules.simple_truncation(d21, parse_weight("1,0|0", 2, 1), 4)
    by_degree = dirac.assemble_by_degree(mod, 2)
    by_height = dirac.assemble_all(mod, by_degree.height)
    assert len(by_degree.blocks) == 12
    assert sum(len(b.D.entries) for b in by_degree.blocks.values()) == 30
    for drop, block in by_degree.by_drop.items():
        full = by_height.by_drop[drop]
        assert (block.nu, block.basis, block.D) == (full.nu, full.basis, full.D)


def test_alpha_images_are_computed_once_per_generator_and_monomial(
    d21, lam_typical, monkeypatch
):
    """sl(2|1) -2,1|1 at N=9: the highest vectors of every block apply
    alpha(X) once per distinct (X, x^a) pair they read, and the square audit
    adds only the two applications per even generator of its constant."""
    mod = modules.simple_truncation(d21, lam_typical, 9)
    coll = dirac.assemble_all(mod, 9)
    alg = mod.alg
    pairs = {
        (g, a)
        for nu, block in coll.blocks.items()
        if block.dim
        for g in modules.generators(alg, +1, "even")
        if nu + alg.gen_root(g) in coll.blocks
        for _, _, a in block.basis
    }
    calls = []
    real = oscillator.weyl_apply

    def counting(w, p):
        calls.append(1)
        return real(w, p)

    monkeypatch.setattr(oscillator, "weyl_apply", counting)
    for nu, block in coll.blocks.items():
        if block.dim:
            highest_vectors(coll, nu)
    assert len(calls) == len(pairs) == 53
    dirac.dirac_square_audit(coll)
    assert len(calls) == len(pairs) + 2 * len(alg.even_generators())


def test_block_gram_is_tensor_of_grams(coll_typical3, d21, lam_typical):
    import math

    mod = coll_typical3.module
    for nu, block in coll_typical3.blocks.items():
        gram = block_gram(block)
        for col, (drop_m, i, a) in enumerate(block.basis):
            bf = Fraction(math.prod(math.factorial(e) for e in a))
            g = mod.blocks[lam_typical.lower(drop_m)].form
            for row, (drop_m2, i2, a2) in enumerate(block.basis):
                expected = g.entries.get((i2, i), 0) * bf if (drop_m2 == drop_m and a2 == a) else 0
                assert gram.entries.get((row, col), 0) == expected


# ----- oracles: intersection-based cohomology and the even-cone search ---------------
def _even_cone_search(datum):
    """Membership in the cone of positive even roots by depth-first search
    over the roots; the search memo is shared by every call for this datum."""
    pos = [r.weight for r in datum.pos_even]

    @functools.cache
    def rec(idx, rem):
        if rem.is_zero():
            return True
        if datum.height(rem) < 0 or idx == len(pos):
            return False
        return any(rec(i, rem - pos[i]) for i in range(idx, len(pos)))

    def in_cone(w):
        if w.is_zero():
            return True
        target_h = datum.height(w)
        if target_h < 0 or target_h != int(target_h):
            return False
        return rec(0, w)

    return in_cone


SL21, SL22, SL23, GL33 = (2, 1, 1, 1), (2, 2, 1, 1), (2, 3, 1, 1), (3, 3, 2, 1)


@pytest.mark.parametrize(
    "group, weight, height, kind, ker_cap_im",
    [
        (SL21, "-2,1|1", 6, "simple", None),
        (SL21, "-1,0|0", 6, "simple", None),
        (SL21, "0,0|-1", 6, "simple", None),
        (SL21, "0,0|0", 4, "verma", 12),
        (SL21, "1,0|-3", 4, "verma", 4),
        (SL22, "-3,1|1,1", 2, "simple", None),
        (SL23, "-3,0|1,1,1", 2, "simple", None),
        (GL33, "-3,0,0|1,1,1", 2, "simple", 2),
        # the first input found where reducing modulo im D changes a table
        (GL33, "-3,0,0|1,1,1", 4, "simple", 24),
        # inputs with compact roots (sl(2|1) at p=1 has none, so its tables
        # are its hd counts), on each of which the k-type count changes
        # when all of V_P stands in for the basis of ker D on P
        (SL22, "-3,1|1,1", 6, "simple", None),
        (SL23, "-3,0|1,1,1", 4, "simple", None),
        (SL23, "-3,0|1,1,0", 4, "simple", None),
        (GL33, "-2,-2,1|1,1,1", 4, "simple", None),
        # a Verma truncation on which the k-type count reduces modulo im D
        (GL33, "-3,0,0|1,1,1", 4, "verma", 51),
    ],
)
def test_rank_cohomology_matches_intersection_oracle(group, weight, height, kind, ker_cap_im):
    datum = build_root_datum(*group)
    lam = parse_weight(weight, datum.m, datum.n)
    build = modules.simple_truncation if kind == "simple" else modules.verma_truncation
    coll = dirac.assemble_all(build(datum, lam, height), height)
    report = dirac.dirac_cohomology(coll)
    oracle = oracle_cohomology(coll)
    for nu, bc in report.per_block.items():
        assert bc == oracle[nu].counts
        assert highest_vectors(coll, nu) == highest_vectors_per_generator(coll, nu)
    if ker_cap_im is not None:
        assert sum(bc.ker_cap_im for bc in report.per_block.values()) == ker_cap_im
    for sign in (+1, -1):
        assert dirac.hd_ktype_table(coll, report, sign) == oracle_ktype_table(
            coll, oracle, sign, "compact"
        )


def test_dropping_either_ingredient_of_the_ktype_count_changes_a_table(monkeypatch):
    """The negative controls of the rank count, on the H_D^+ total (3 on
    both inputs, as the oracle has it): with no image reduced modulo im D (a
    report whose ker D cap im D is 0 on every block) gl(3|3) -3,0,0|1,1,1
    at N=4 gives 1, and with all of V_P in place of a basis of ker D on P
    sl(2|2) -3,1|1,1 at N=6 gives -9."""

    def plus_totals(case):
        """The collection, its report and the oracle's H_D^+ total."""
        coll = _collection(*case, "simple")
        table = oracle_ktype_table(coll, oracle_cohomology(coll), +1, "compact")
        return coll, dirac.dirac_cohomology(coll), sum(table.values())

    def total(coll, report):
        return sum(dirac.hd_ktype_table(coll, report, +1).values())

    coll, report, oracle = plus_totals((GL33, "-3,0,0|1,1,1", 4))
    assert total(coll, report) == oracle == 3
    blocks = {nu: replace(bc, ker_cap_im=0) for nu, bc in report.per_block.items()}
    assert total(coll, replace(report, per_block=blocks)) == 1
    coll, report, oracle = plus_totals((SL22, "-3,1|1,1", 6))
    assert total(coll, report) == oracle == 3
    monkeypatch.setattr(exactla, "sparse_kernel", lambda rows, cols: [{j: 1} for j in range(cols)])
    assert total(coll, report) == -9


def test_ktype_count_takes_one_kernel_and_one_rank_per_block(monkeypatch):
    """Over both signs on gl(3|3) -3,0,0|1,1,1 at N=4, `hd_ktype_table`
    takes one `exactla.sparse_kernel` (of the rows of D on the parity's
    columns) and one `exactla.rank` per block with h != 0 and a compact
    map, and one `exactla.quotient` (modulo im D of the target) per such
    block and compact target with ker D cap im D != 0: 3 in all. No other
    elimination is run."""
    coll = _collection(GL33, "-3,0,0|1,1,1", 4, "simple")
    report = dirac.dirac_cohomology(coll)
    kernels, quotients = [], []
    for sign in (+1, -1):
        for nu, bc in report.per_block.items():
            block = coll.blocks[nu]
            maps = dirac.raising_maps(coll, block, "compact")
            if maps and (bc.hd_plus if sign > 0 else bc.hd_minus):
                cols = [i for i, p in enumerate(block.parity) if p == (0 if sign > 0 else 1)]
                on_p = block.D.submatrix(list(range(block.dim)), cols)
                kernels.append((len(on_p.nonzero_rows()), len(cols)))
                quotients += [tgt.dim for tgt, _ in maps if report.per_block[tgt.nu].ker_cap_im]
    assert len(quotients) == 3
    calls = {}

    def counted(name, shape):
        original = getattr(exactla, name)
        calls[name] = []

        def wrapper(*args):
            calls[name].append(shape(*args))
            return original(*args)

        monkeypatch.setattr(exactla, name, wrapper)

    counted("sparse_kernel", lambda rows, cols: (len(rows), cols))
    counted("rank", lambda *mats: None)
    counted("quotient", lambda rows, dim: dim)
    counted("_rref", lambda rows: None)
    for sign in (+1, -1):
        dirac.hd_ktype_table(coll, report, sign)
    assert sorted(calls["sparse_kernel"]) == sorted(kernels)
    assert len(calls["rank"]) == len(kernels)
    assert sorted(calls["quotient"]) == sorted(quotients)
    assert len(calls["_rref"]) == 2 * len(kernels) + len(quotients)


@pytest.mark.parametrize("weight", ["-2,1|1", "-1,0|0", "0,0|-1"])
def test_ktype_count_takes_no_kernel_without_a_compact_map(monkeypatch, weight):
    """sl(2|1) has no compact raising generator, so on every block the
    k-type count is h itself: `hd_ktype_table` takes no kernel, and both
    tables still equal the oracle's."""
    coll = _collection(SL21, weight, 6, "simple")
    report = dirac.dirac_cohomology(coll)
    assert any(bc.hd_plus or bc.hd_minus for bc in report.per_block.values())
    oracle = oracle_cohomology(coll)
    expected = [oracle_ktype_table(coll, oracle, sign, "compact") for sign in (+1, -1)]
    kernels = []
    sparse_kernel = exactla.sparse_kernel

    def counted(rows, cols):
        kernels.append(cols)
        return sparse_kernel(rows, cols)

    monkeypatch.setattr(exactla, "sparse_kernel", counted)
    assert [dirac.hd_ktype_table(coll, report, sign) for sign in (+1, -1)] == expected
    assert kernels == []


def test_block_cohomology_holds_counts_only(rep_typical3):
    """The per-block record is what its JSON shows: counts, no vectors."""
    bc = next(iter(rep_typical3.per_block.values()))
    assert [f.name for f in fields(dirac.BlockCohomology)] == list(bc.to_json())


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_block_ranks_match_sympy(data):
    """D = [[0, B], [C, 0]] on interleaved parities: the ranks of B, C, CB and
    BC agree with sympy, CB and BC also read as the odd and even parity
    halves of D^2 (`block_cohomology` forms them from C and B), and the block
    cohomology agrees with its formulas and with the intersection oracle."""
    n_even = data.draw(st.integers(0, 4))
    n_odd = data.draw(st.integers(0, 4))
    entry = st.integers(-2, 2)
    b = [[data.draw(entry) for _ in range(n_odd)] for _ in range(n_even)]
    c = [[data.draw(entry) for _ in range(n_even)] for _ in range(n_odd)]
    parity = data.draw(st.permutations([0] * n_even + [1] * n_odd))
    even = [i for i, p in enumerate(parity) if p == 0]
    odd = [i for i, p in enumerate(parity) if p == 1]
    dim = len(parity)
    halves = {(even[i], odd[j]): b[i][j] for i in range(n_even) for j in range(n_odd)}
    halves.update(((odd[j], even[i]), c[j][i]) for i in range(n_even) for j in range(n_odd))
    d = SparseRationalMatrix(dim, dim, {key: v for key, v in halves.items() if v})
    bm, cm = sympy.Matrix(n_even, n_odd, sum(b, [])), sympy.Matrix(n_odd, n_even, sum(c, []))
    rk_b, rk_c, rk_cb, rk_bc = (m.rank() for m in (bm, cm, cm * bm, bm * cm))
    bs = SparseRationalMatrix.from_rows(b) if n_even else SparseRationalMatrix(0, n_odd)
    cs = SparseRationalMatrix.from_rows(c) if n_odd else SparseRationalMatrix(0, n_even)
    assert [exactla.rank(bs), exactla.rank(cs)] == [rk_b, rk_c]
    assert [exactla.rank(cs.matmul(bs)), exactla.rank(bs.matmul(cs))] == [rk_cb, rk_bc]
    d2 = d.matmul(d)
    halves = [exactla.rank(d2.submatrix(odd, odd)), exactla.rank(d2.submatrix(even, even))]
    assert halves == [rk_cb, rk_bc]
    # a False predicate keeps the four-rank path under test
    block = SimpleNamespace(
        nu=Weight([0], [0]), dim=dim, parity=list(parity), D=d, definite_anti_selfadjoint=False,
    )
    bc = dirac.block_cohomology(block)
    assert bc.ker == dim - rk_b - rk_c
    assert bc.ker_cap_im == (rk_b - rk_cb) + (rk_c - rk_bc)
    assert bc.hd_plus == (n_even - rk_c) - (rk_b - rk_cb)
    assert bc.hd_minus == (n_odd - rk_b) - (rk_c - rk_bc)
    assert bc == oracle_block_cohomology(block).counts


@pytest.mark.parametrize(
    "group", [SL21, (2, 1, 2, 0), SL22, SL23, GL33, (3, 2, 1, 2)],
    ids=["sl21-p1", "sl21-p2", "sl22", "sl23", "gl33-p2", "gl32-p1"],
)
def test_even_cone_matches_search(group):
    """The rational-weight cone test (`_helpers.in_even_cone`) against the
    root search on 1500 random weights per group; on the integral ones, the
    package's integer drop test as well, reading the weight as the
    difference drop(below) - drop(above) of two drops from one base."""
    datum = build_root_datum(*group)
    rng = random.Random(str(group))
    halves = [Fraction(k, 2) for k in range(-2, 3)]
    roots = [r.weight for r in datum.pos_even]
    oracle = _even_cone_search(datum)
    zero = cone_sums(datum.zero())
    seen, seen_integral = set(), set()
    for _ in range(1500):
        if rng.random() < 0.5:
            w = Weight(
                [rng.choice(halves) for _ in range(datum.m)],
                [rng.choice(halves) for _ in range(datum.n)],
            )
        else:  # near the cone: a small combination of roots, sometimes nudged
            w = datum.zero()
            for r in roots:
                w = w + r.scale(rng.randint(-1, 1))
            if rng.random() < 0.3:
                w = w + basis_weight(datum, rng.randrange(datum.m + datum.n)).scale(
                    rng.choice(halves)
                )
        got = in_even_cone(cone_sums(w), zero)
        assert got == oracle(w), w.text()
        seen.add(got)
        # the same difference, read off two weights that are not zero
        below = Weight(
            [rng.choice(halves) for _ in range(datum.m)],
            [rng.choice(halves) for _ in range(datum.n)],
        )
        assert in_even_cone(cone_sums(below + w), cone_sums(below)) == got
        if all(type(c) is int for c in w.coords()):
            above = tuple(rng.randint(-2, 2) for _ in range(datum.m + datum.n))
            lower = tuple(map(operator.add, above, w.coords()))
            assert dirac._in_even_cone(
                dirac._cone_sums(above, datum.m), dirac._cone_sums(lower, datum.m)
            ) == got, w.text()
            seen_integral.add(got)
    assert seen == seen_integral == {True, False}


@pytest.mark.parametrize(
    "group, weight, height",
    [
        (SL21, "-5/3,1|1", 4),
        (SL21, "-3/2,1/2|1/2", 4),
        ((2, 1, 2, 0), "3/2,-1/2|1/2", 4),
        (SL22, "-7/3,1|2/3,2/3", 3),
    ],
    ids=["sl21-thirds", "sl21-half", "sl21-p2-half", "sl22-thirds"],
)
def test_integer_cone_test_matches_oracle_on_blocks(group, weight, height):
    """On every ordered pair of Dirac blocks of a highest weight with
    non-integral coordinates, the integer drop test agrees with the
    rational-weight oracle applied to the block weights."""
    datum = build_root_datum(*group)
    lam = parse_weight(weight, datum.m, datum.n)
    assert any(type(c) is Fraction for c in lam.coords())
    coll = dirac.assemble_all(modules.simple_truncation(datum, lam, height), height)
    blocks = list(coll.blocks.values())
    sums = [dirac._cone_sums(b.drop, datum.m) for b in blocks]
    weight_sums = [cone_sums(b.nu) for b in blocks]
    seen = set()
    for b0, s0, w0 in zip(blocks, sums, weight_sums):
        for b, s, w in zip(blocks, sums, weight_sums):
            got = dirac._in_even_cone(s0, s)
            assert got == in_even_cone(w0, w), (b0.nu.text(), b.nu.text())
            seen.add(got)
    assert seen == {True, False}


# ----- oracle: the block set by a root DFS, each basis by an exponent search ----------
def _exponent_solutions(osc, target):
    """All exponent tuples a >= 0 with sum a_k gamma_k = target.

    The gamma_k are roots, so a target with a non-integer coordinate has no
    solution; otherwise the search runs on integer coordinate tuples."""
    coords = target.coords()
    if any(c.denominator != 1 for c in coords):
        return []
    ht = int(osc.datum.height(target))
    if ht < 0:
        return []
    gammas = osc.partial_roots()
    vecs = [tuple(int(c) for c in g.coords()) for g in gammas]
    heights = [int(osc.datum.height(g)) for g in gammas]
    out = []
    last = len(vecs) - 1

    def rec(k, rem, rem_ht, prefix):
        g, h = vecs[k], heights[k]
        if k == last:  # the remaining height fixes the last exponent
            ak, extra = divmod(rem_ht, h)
            if not extra and all(r == ak * x for r, x in zip(rem, g)):
                out.append(prefix + (ak,))
            return
        for ak in range(rem_ht // h + 1):
            rec(k + 1, rem, rem_ht - ak * h, prefix + (ak,))
            rem = tuple(r - x for r, x in zip(rem, g))

    rec(0, tuple(int(c) for c in coords), ht, ())
    return out


def _oracle_diagonal_weights(module, height):
    """Every nu = L - rho1 - (a sum of positive roots of height <= height),
    by a DFS over the positive roots, in the order of the drop."""
    datum = module.datum
    lam = module.highest_weight
    roots = sorted(
        [r.weight for r in datum.pos_even] + [r.weight for r in datum.pos_odd],
        key=datum.root_sort_key,
    )
    heights = [datum.height(r) for r in roots]
    seen, out = set(), []

    def rec(idx, remaining, drop):
        if drop not in seen:
            seen.add(drop)
            out.append(lam - datum.rho1 - drop)
        for i in range(idx, len(roots)):
            if heights[i] <= remaining:
                rec(i, remaining - heights[i], drop + roots[i])

    rec(0, min(Fraction(height), module.height), datum.zero())
    return sorted(out, key=lambda nu: datum.root_sort_key(lam - datum.rho1 - nu))


def _oracle_degree_weights(module, max_degree):
    """Every nu = lam_m - rho1 - sum a_k gamma_k over the nonzero module
    blocks lam_m and the monomials of degree <= max_degree."""
    datum = module.datum
    osc = Oscillator(module.alg)
    out = set()
    for lam_m in module.blocks:
        if module.block_dim(lam_m):
            for deg in range(max_degree + 1):
                for a in monomials_of_degree(datum.mn, deg):
                    out.add(lam_m + osc.monomial_weight(a))
    return out


def _drop(base, w):
    """base - w as a tuple of ints; fails unless every coordinate is integral."""
    coords = (base - w).coords()
    assert all(Fraction(c).denominator == 1 for c in coords), (base - w).text()
    return tuple(int(c) for c in coords)


def _oracle_basis(module, nu, osc):
    """The basis of the block nu: every module weight lam_m of nonzero block
    dimension, and every solution a of sum a_k gamma_k = lam_m - nu - rho1;
    each entry names lam_m by its drop L - lam_m."""
    datum = module.datum
    lam = module.highest_weight
    basis = []
    for lam_m in module.blocks:
        for a in _exponent_solutions(osc, lam_m - nu - datum.rho1):
            basis += [(lam_m, i, a) for i in range(module.block_dim(lam_m))]
    basis.sort(key=lambda e: (datum.root_sort_key(lam - e[0]), e[1], e[2]))
    return [(_drop(lam, lam_m), i, a) for lam_m, i, a in basis]


def test_exponent_solutions(d21):
    osc = Oscillator(Algebra(d21))
    gammas = osc.partial_roots()
    # gamma1 + gamma2 = eps1 - eps2 has the single solution (1, 1)
    target = d21.pos_even[0].weight
    assert _exponent_solutions(osc, target) == [(1, 1)]
    assert _exponent_solutions(osc, d21.zero()) == [(0, 0)]
    assert _exponent_solutions(osc, gammas[0].scale(-1)) == []
    # a half-integer target has integral height here but no integer solution
    half = Weight([Fraction(1, 2), Fraction(-1, 2)], [0])
    assert d21.height(half) == 1
    assert _exponent_solutions(osc, half) == []


@pytest.mark.parametrize("group", [(2, 1, 1, 1), (2, 2, 1, 1), (2, 3, 1, 1), (3, 3, 2, 1)])
def test_exponent_solutions_match_brute_force(group):
    """The oscillator degree is a function of the weight, so enumerating every
    monomial of degree <= 3 lists all solutions for each weight it reaches."""
    datum = build_root_datum(*group)
    osc = Oscillator(Algebra(datum))
    gammas = osc.partial_roots()
    expected: dict = {}
    for deg in range(4):
        for a in monomials_of_degree(datum.mn, deg):
            w = datum.zero()
            for k, ak in enumerate(a):
                w = w + gammas[k].scale(ak)
            expected.setdefault(w, set()).add(a)
    for w, sols in expected.items():
        found = _exponent_solutions(osc, w)
        assert len(found) == len(set(found)) and set(found) == sols



BASES_GRID = pytest.mark.parametrize(
    "group, weight, height",
    [
        ((2, 1, 0, 2), "-2,1|1", 4),
        ((2, 1, 0, 2), "1/2,-3/2|1/2", 4),
        (SL21, "-2,1|1", 4),
        (SL21, "-1/2,1/2|3/2", 4),
        ((2, 1, 2, 0), "0,0|-1", 4),
        ((2, 1, 2, 0), "3/2,-1/2|1/2", 4),
        (SL22, "-3,1|1,1", 3),
        (SL23, "-3,0|1,1,1", 4),
        (GL33, "-3,0,0|1,1,1", 2),
    ],
    ids=["sl21-p0", "sl21-p0-half", "sl21-p1", "sl21-p1-half", "sl21-p2",
         "sl21-p2-half", "sl22", "sl23", "gl33-p2"],
)
DEGREE_GROUPS = pytest.mark.parametrize(
    "group", [(2, 1, 0, 2), SL21, (2, 1, 2, 0), SL22, SL23, GL33]
)


@functools.cache
def _grid_collection(group, weight, height, kind):
    datum = build_root_datum(*group)
    lam = parse_weight(weight, datum.m, datum.n)
    build = modules.simple_truncation if kind == "simple" else modules.verma_truncation
    return dirac.assemble_all(build(datum, lam, height), height)


@functools.cache
def _degree_collection(group):
    datum = build_root_datum(*group)
    return dirac.assemble_by_degree(modules.simple_truncation(datum, datum.zero(), 0), 4)


@BASES_GRID
@pytest.mark.parametrize("kind", ["simple", "verma"])
def test_block_bases_match_root_dfs_oracle(group, weight, height, kind):
    """One pass lists the same blocks (in order, empty ones included) and
    the same bases as the root DFS with a per-block exponent search; each
    block's drop is (L - rho1) - nu."""
    coll = _grid_collection(group, weight, height, kind)
    datum, lam = coll.module.datum, coll.module.highest_weight
    assert list(coll.blocks) == _oracle_diagonal_weights(coll.module, height)
    for nu, block in coll.blocks.items():
        assert block.drop == _drop(lam - datum.rho1, nu), nu.text()
        assert block.basis == _oracle_basis(coll.module, nu, coll.osc), nu.text()


@DEGREE_GROUPS
def test_by_degree_blocks_match_degree_oracle(group):
    """The trivial module at degree <= 4: the blocks reached by a monomial of
    degree <= 4, each with the basis of the exponent search, at the height of
    the deepest one."""
    coll = _degree_collection(group)
    datum = coll.module.datum
    base = datum.zero() - datum.rho1
    expected = _oracle_degree_weights(coll.module, 4)
    assert list(coll.blocks) == sorted(expected, key=lambda nu: datum.root_sort_key(base - nu))
    assert coll.height == max(datum.height(base - nu) for nu in expected)
    for nu, block in coll.blocks.items():
        assert block.drop == _drop(base, nu), nu.text()
        assert block.basis == _oracle_basis(coll.module, nu, coll.osc), nu.text()


def _assert_sorted_weights_are_the_sort(coll):
    """Both `sorted_weights` return stored order; it must equal the sort by
    the drop, computed here on Weights."""
    datum, lam = coll.module.datum, coll.module.highest_weight
    base = lam - datum.rho1
    assert coll.sorted_weights() == sorted(
        coll.blocks, key=lambda nu: datum.root_sort_key(base - nu)
    )
    mod = coll.module
    assert mod.sorted_weights() == sorted(
        mod.blocks, key=lambda nu: datum.root_sort_key(lam - nu)
    )
    assert [b.weight for b in mod.by_drop.values()] == mod.sorted_weights()


@BASES_GRID
@pytest.mark.parametrize("kind", ["simple", "verma"])
def test_sorted_weights_are_the_sort_by_drop(group, weight, height, kind):
    _assert_sorted_weights_are_the_sort(_grid_collection(group, weight, height, kind))


@DEGREE_GROUPS
def test_sorted_weights_are_the_sort_by_drop_by_degree(group):
    _assert_sorted_weights_are_the_sort(_degree_collection(group))


# ----- D and the Kostant differential -------------------------------------------------
ASSEMBLY_GRID = pytest.mark.parametrize(
    "group, weight, height, kind",
    [
        (SL21, "-2,1|1", 3, "simple"),
        (SL21, "-5/3,1|1", 3, "simple"),
        (SL21, "0,0|-1", 3, "simple"),
        (SL22, "-3,1|1,1", 2, "simple"),
        (SL23, "-3,0|1,1,1", 3, "simple"),
        # pn = 6 of the 9 odd directions lie in p1
        (GL33, "-2,-2,1|1,1,1", 2, "simple"),
        (SL21, "-2,1|1", 3, "verma"),
    ],
    ids=["sl21", "sl21-thirds", "sl21-refuted", "sl22", "sl23", "gl33-p2", "sl21-verma"],
)


@ASSEMBLY_GRID
def test_operator_and_kostant_differential_match_quarters(group, weight, height, kind):
    """D = 2(d^{p1} + d^{q2} - delta^{p1} - delta^{q2}) and d = d^{p1} -
    delta^{q2}, entry by entry, against the quarters filled one matrix each;
    the halves check of the adjoint certificate agrees with the pairwise
    identities on those quarters."""
    coll = _grid_collection(group, weight, height, kind)
    both_halves = 0
    for block in coll.blocks.values():
        quarters = dirac_quarters(block)
        d_p1, delta_p1, d_q2, delta_q2 = quarters
        expected = scaled(d_p1.add(d_q2).add(scaled(delta_p1, -1)).add(scaled(delta_q2, -1)), 2)
        assert block.D.entries == expected.entries, block.nu.text()
        d = kostant_d(block)
        assert d.entries == d_p1.add(scaled(delta_q2, -1)).entries, block.nu.text()
        cert = dirac.anti_selfadjoint_certificate(block)
        assert cert.halves_adjoint == quarters_adjoint(block_gram(block), quarters)
        both_halves += bool(d.entries) and bool(block.D.add(scaled(d, -2)).entries)
    assert both_halves


def _assert_kostant_matches_oracle(coll):
    """The per-degree tables, their key order and dd_zero of
    `analysis.kostant_cohomology` equal the two-rank oracle's, whose d^2 is
    the whole-block d d of d rebuilt from the quarters."""
    report = analysis.kostant_cohomology(coll)
    per_degree, dd_zero = kostant_per_degree(coll)
    assert report.per_degree and report.per_degree == per_degree
    assert list(report.per_degree) == list(per_degree)
    assert report.dd_zero == dd_zero


@ASSEMBLY_GRID
def test_kostant_one_rank_per_degree_matches_two_rank_oracle(group, weight, height, kind):
    _assert_kostant_matches_oracle(_grid_collection(group, weight, height, kind))


@pytest.mark.parametrize(
    "group, weight, height",
    [(SL21, "0,0|0", 4), (SL22, "-3,1|1,1", 2), (SL23, "-3,0|1,1,1", 2), (GL33, "-2,-2,1|1,1,1", 2)],
    ids=["sl21-singular", "sl22", "sl23", "gl33-p2"],
)
def test_kostant_matches_the_oracle_on_verma_inputs(group, weight, height):
    _assert_kostant_matches_oracle(_grid_collection(group, weight, height, "verma"))


@DEGREE_GROUPS
def test_kostant_matches_the_oracle_on_the_zero_weight_by_degree(group):
    _assert_kostant_matches_oracle(_degree_collection(group))


def _degree_blocks(block):
    """D's blocks C^{k+1} <- C^k, for each k with C^k and C^{k+1} nonzero."""
    by_deg = {}
    for i, k in enumerate(block.degrees()):
        by_deg.setdefault(k, []).append(i)
    return [block.D.submatrix(by_deg[k + 1], cols) for k, cols in by_deg.items() if k + 1 in by_deg]


def test_a_spoiled_raising_entry_makes_dd_nonzero():
    """sl(2|1) -2,1|1 at N=4: on the first block where an entry of D from
    C^{k+1} to C^{k+2} meets, in its column, an entry of D from C^k, that
    entry is doubled, so A_{k+1} A_k != 0 for D's degree blocks A. Then
    `kostant_cohomology` and the oracle, forming d d on the whole block
    with d read off the spoiled D, both report dd_zero False, where both
    report True before, and `injection_check` refutes with no weight."""
    coll = _collection(SL21, "-2,1|1", 4, "simple")
    assert analysis.kostant_cohomology(coll).dd_zero and kostant_per_degree(coll, kostant_d)[1]
    for block in coll.blocks.values():
        deg = block.degrees()
        reached = {i for i, j in block.D.entries if deg[i] == deg[j] + 1}
        keys = [(r, i) for r, i in sorted(block.D.entries) if deg[r] == deg[i] + 1 and i in reached]
        if keys:
            break
    assert keys, "no block with three consecutive degrees linked by D"
    bad = replace(block, D=_doubled(block.D, keys[0]))
    a = _degree_blocks(bad)
    assert any(a_next.matmul(a_k).entries for a_next, a_k in zip(a[1:], a))
    spoiled = replace(
        coll,
        blocks={**coll.blocks, bad.nu: bad},
        by_drop={**coll.by_drop, bad.drop: bad},
    )
    report = analysis.kostant_cohomology(spoiled)
    assert not report.dd_zero
    assert not kostant_per_degree(spoiled, kostant_d)[1]
    assert analysis.injection_check(dirac.dirac_cohomology(spoiled), report) == (False, None)


def test_kostant_products_and_ranks_are_degree_blocks(monkeypatch):
    """gl(3|3) p=2 -2,-2,1|1,1,1 at N=4: every operand of a product and of a
    rank that `kostant_cohomology` takes is one of D's degree blocks
    C^{k+1} <- C^k, of shape (|C^{k+1}|, |C^k|), and never a whole block;
    it takes one rank per (block, k) with C^k and C^{k+1} nonzero."""
    coll = _collection(GL33, "-2,-2,1|1,1,1", 4, "simple")
    blocks = [a for block in coll.blocks.values() for a in _degree_blocks(block)]
    keys = {(a.rows, a.cols, frozenset(a.entries.items())) for a in blocks}
    rank, matmul = exactla.rank, SparseRationalMatrix.matmul
    ranked, multiplied = [], []

    def counted_rank(a):
        ranked.append(a)
        return rank(a)

    def counted_matmul(a, b):
        multiplied.extend((a, b))
        return matmul(a, b)

    monkeypatch.setattr(exactla, "rank", counted_rank)
    monkeypatch.setattr(SparseRationalMatrix, "matmul", counted_matmul)
    assert analysis.kostant_cohomology(coll).dd_zero
    assert multiplied and len(ranked) == len(blocks)
    for a in ranked + multiplied:
        assert (a.rows, a.cols, frozenset(a.entries.items())) in keys


def _bidegree_parts(block, m):
    """The entries of m grouped by the shift, row minus column, of the
    (p1-degree, q2-degree) bidegree of the basis monomials."""
    pn = block.module.datum.p * block.module.datum.n
    bideg = [(sum(a[:pn]), sum(a[pn:])) for _, _, a in block.basis]
    parts = {}
    for (i, j), v in m.entries.items():
        shift = (bideg[i][0] - bideg[j][0], bideg[i][1] - bideg[j][1])
        parts.setdefault(shift, {})[i, j] = v
    return {shift: SparseRationalMatrix(m.rows, m.cols, e) for shift, e in parts.items()}


def _oracle_certificate(block):
    """(ok, witness, halves) from D^T G + G D and the two pairwise
    identities. The quarters are read off d and d' = D/2 - d by bidegree
    shift: d^{p1} at (+1, 0) and -delta^{q2} at (0, -1) of d, d^{q2} at
    (0, +1) and -delta^{p1} at (-1, 0) of d'; an entry at any other shift
    fails the halves."""
    g = block_gram(block)
    lhs = block.D.transpose().matmul(g).add(g.matmul(block.D))
    witness = None
    if lhs.entries:
        (i, j), v = min(lhs.entries.items())
        witness = (i, j, v)
    d = kostant_d(block)
    d_parts = _bidegree_parts(block, d)
    dprime_parts = _bidegree_parts(block, scaled(block.D, Fraction(1, 2)).add(scaled(d, -1)))
    zero = SparseRationalMatrix(block.dim, block.dim)
    quarters = (
        d_parts.get((1, 0), zero),
        scaled(dprime_parts.get((-1, 0), zero), -1),
        dprime_parts.get((0, 1), zero),
        scaled(d_parts.get((0, -1), zero), -1),
    )
    strays = set(d_parts) - {(1, 0), (0, -1)} or set(dprime_parts) - {(0, 1), (-1, 0)}
    return lhs.is_zero(), witness, not strays and quarters_adjoint(g, quarters)


def _doubled(m, key):
    """m with the entry at `key` doubled."""
    return SparseRationalMatrix(m.rows, m.cols, {**m.entries, key: 2 * m.entries[key]})


@pytest.mark.parametrize("fixture", ["coll_typical3", "coll_refuted2"])
def test_altered_block_fails_halves_exactly_when_pairwise_oracle_does(fixture, request):
    """One entry of D in each bidegree shift is doubled, and d is read off the
    altered D: `halves_adjoint` is False exactly when the pairwise oracle
    fails, and `ok` with its witness matches D^T G + G D; all three match the
    four-product oracle. On these simple modules G is nondegenerate, so every
    alteration is seen, and it fails `ok` and `halves_adjoint` together
    (see `anti_selfadjoint_certificate`). Every block Gram is symmetric,
    which is what lets the certificate read D^T G as (G D)^T."""
    coll = request.getfixturevalue(fixture)
    seen = 0
    for block in coll.blocks.values():
        assert block_gram(block).is_symmetric()
        cert = dirac.anti_selfadjoint_certificate(block)
        assert (cert.ok, cert.witness, cert.halves_adjoint) == _oracle_certificate(block)
        assert (cert.ok, cert.witness, cert.halves_adjoint) == four_product_certificate(block)
        assert cert.ok and cert.halves_adjoint
        for shift, part in _bidegree_parts(block, block.D).items():
            bad = replace(block, D=_doubled(block.D, min(part.entries)))
            cert = dirac.anti_selfadjoint_certificate(bad)
            oracle = _oracle_certificate(bad)
            assert (cert.ok, cert.witness, cert.halves_adjoint) == oracle, shift
            assert (cert.ok, cert.witness, cert.halves_adjoint) == four_product_certificate(bad)
            assert not cert.ok and not cert.halves_adjoint, shift
            seen += 1
    assert seen


def test_each_product_is_formed_once_per_block(d21, monkeypatch):
    """sl(2|1) -2,1|1 (certified) and 0,0|-1 (refuted) at N=6, recording
    every `SparseRationalMatrix.matmul` call, with the block `block_cohomology`
    is working on, through the predicate, cohomology, the square audit, the
    adjoint certificate and `raising_maps`. No product has a block Gram G as
    an operand. The predicate, the certificate and `raising_maps` form none
    (X_D D = D X_D is checked without forming either side). D D is formed
    only by the audit: once on every nonempty block where
    `definite_anti_selfadjoint` fails and never where it holds (on the
    certified input, nowhere). `block_cohomology` forms C B and then B C,
    from the C = D[odd, even] and B = D[even, odd] it ranks, exactly where
    rk B and rk C are nonzero and the predicate fails."""
    calls, current = [], []
    matmul, block_cohomology = SparseRationalMatrix.matmul, dirac.block_cohomology

    def counted(a, b):
        calls.append((current[-1] if current else None, a, b))
        return matmul(a, b)

    def counted_block_cohomology(block):
        current.append(block)
        try:
            return block_cohomology(block)
        finally:
            current.pop()

    def squares(calls, blocks):
        return [sum(a is b is block.D for _, a, b in calls) for block in blocks]

    for weight, certified in (("-2,1|1", True), ("0,0|-1", False)):
        lam = parse_weight(weight, d21.m, d21.n)
        coll = dirac.assemble_all(modules.simple_truncation(d21, lam, 6), 6)
        blocks = list(coll.blocks.values())
        grams = [(g.rows, g.entries) for g in map(block_gram, blocks) if g.entries]
        halves = []  # per block: (C, B) where both ranks are nonzero
        for block in blocks:
            even = [i for i, p in enumerate(block.parity) if p == 0]
            odd = [i for i, p in enumerate(block.parity) if p == 1]
            c, b = block.D.submatrix(odd, even), block.D.submatrix(even, odd)
            halves.append((c, b) if exactla.rank(c) and exactla.rank(b) else None)
        monkeypatch.setattr(SparseRationalMatrix, "matmul", counted)
        monkeypatch.setattr(dirac, "block_cohomology", counted_block_cohomology)
        calls.clear()
        holds = [block.definite_anti_selfadjoint for block in blocks]
        assert any(holds) and all(holds) == certified
        assert calls == []
        dirac.dirac_cohomology(coll)
        in_cohomology = list(calls)
        dirac.dirac_square_audit(coll)
        in_audit = calls[len(in_cohomology):]
        expected = [int(block.dim > 0 and not h) for block, h in zip(blocks, holds)]
        assert squares(in_audit, blocks) == expected
        assert all(blk is None for blk, _, _ in in_audit)
        for block in blocks:
            dirac.anti_selfadjoint_certificate(block)
        maps = [
            dirac.raising_maps(coll, block, restriction)
            for block in blocks
            for restriction in ("even", "compact")
        ]
        assert any(maps) and calls == in_cohomology + in_audit
        for block in blocks:
            dirac.block_cohomology(block)
        direct = calls[len(in_cohomology) + len(in_audit):]
        for block, h, pair in zip(blocks, holds, halves):
            mine = [(a.entries, b.entries) for blk, a, b in direct if blk is block]
            if h or pair is None:
                assert mine == [], block.nu.text()
            else:
                c, b = pair
                assert mine == [(c.entries, b.entries), (b.entries, c.entries)], block.nu.text()
        assert any(pair and not h for pair, h in zip(halves, holds)) != certified
        assert {blk.drop for blk, _, _ in in_cohomology} <= {blk.drop for blk, _, _ in direct}
        assert squares(in_cohomology + direct, blocks) == [0] * len(blocks)
        assert not any((m.rows, m.entries) in grams for _, a, b in calls for m in (a, b))
        monkeypatch.undo()


# ----- the integer fast path ----------------------------------------------------------
def _exact(values):
    return all(type(x) is int or type(x) is Fraction for x in values)


def _canonical_values(values):
    """Every value an int, or a Fraction that is not integral."""
    return all(type(x) is int or (type(x) is Fraction and x.denominator != 1) for x in values)


def _ints(drop):
    """A drop: a tuple of Python ints."""
    return type(drop) is tuple and all(type(x) is int for x in drop)


def _canonical(weights):
    """Every coordinate canonical (`_canonical_values`)."""
    return all(_canonical_values(w.coords()) for w in weights)


@pytest.mark.parametrize(
    "group, weight, height",
    [(SL21, "-2,1|1", 6), (SL23, "-3,0|1,1,1", 2), (GL33, "-3,0,0|1,1,1", 2)],
    ids=["sl21", "sl23", "gl33-p2"],
)
def test_dirac_layer_runs_on_ints_and_never_on_floats(group, weight, height):
    """D and D^2 hold Python ints and d holds canonical values; every other
    exact value the pipeline reads or reports is an int or a Fraction, never
    a float or a bool; every weight that keys a block or a table has
    canonical coordinates, and so does every entry of the g0 action
    X (x) 1 + 1 (x) alpha(X) between blocks; every drop (of a module block,
    a Dirac block, a basis entry and a generator matrix key) is a tuple of
    ints."""
    datum = build_root_datum(*group)
    mod = modules.simple_truncation(datum, parse_weight(weight, datum.m, datum.n), height)
    assert _canonical(mod.blocks)
    for b in mod.blocks.values():
        assert _exact(b.gram.entries.values()) and _exact(b.form.entries.values())
        assert _exact(b.qmap.reduction.entries.values())
        if b.form.rows:
            cert = exactla.definiteness(b.form)
            assert _exact(p for _, p in cert.pivot_record)
    assert all(_ints(b.drop) for b in mod.blocks.values())
    coll = dirac.assemble_all(mod, height)
    assert _canonical(coll.blocks)
    assert any(block.D.entries for block in coll.blocks.values())
    actions = 0
    for nu, block in coll.blocks.items():
        assert _ints(block.drop)
        assert all(_ints(d) for d, _, _ in block.index)
        for g in mod.alg.even_generators():
            tgt = coll.blocks.get(nu + mod.alg.gen_root(g))
            if tgt is not None:
                x = dirac.diagonal_action_matrix(block, tgt, g)
                assert _canonical_values(x.entries.values()), (nu.text(), g)
                actions += bool(x.entries)
        assert all(type(x) is int for x in block.D.entries.values())
        assert all(type(x) is int for x in block.D.matmul(block.D).entries.values())
        assert _exact(block_gram(block).entries.values())
        image = exactla.quotient(block.D.transpose().to_rows(), block.dim)
        assert _exact(image.reduction.entries.values())
        for v in highest_vectors(coll, nu):
            assert type(v) is tuple and all(type(x) is int for x in v)
    assert actions
    assert mod._gen_columns and all(_ints(d) for _, d in mod._gen_columns)
    audit = dirac.dirac_square_audit(coll)
    assert audit.entries
    assert _exact(x for e in audit.entries for x in (e.s, e.measured))
    report = dirac.dirac_cohomology(coll)
    tables = [dirac.hd_ktype_table(coll, report, sign) for sign in (+1, -1)]
    assert any(tables) and all(_canonical(t) for t in tables)


# ----- the definite, anti-selfadjoint shortcut ------------------------------------------
# the golden inputs, the refuted sl(2|1) input and two Verma truncations (the
# second with a singular Gram, so the predicate fails on most blocks)
SHORTCUT_INPUTS = {
    "sl21-typical": (SL21, "-2,1|1", 4, "simple"),
    "sl21-atypical": (SL21, "-1,0|0", 4, "simple"),
    "sl21-half": (SL21, "-3/2,1/2|1/2", 3, "simple"),
    "sl21-thirds": (SL21, "-5/3,1|1", 3, "simple"),
    "sl22-typical": (SL22, "-3,1|1,1", 2, "simple"),
    "sl23": (SL23, "-3,0|1,1,1", 3, "simple"),
    "gl33-p2": (GL33, "-2,-2,1|1,1,1", 2, "simple"),
    "sl21-refuted": (SL21, "0,0|-1", 4, "simple"),
    "sl21-verma": (SL21, "-2,1|1", 3, "verma"),
    "sl21-verma-singular": (SL21, "0,0|0", 4, "verma"),
}


def _collection(group, weight, height, kind):
    datum = build_root_datum(*group)
    lam = parse_weight(weight, datum.m, datum.n)
    build = modules.simple_truncation if kind == "simple" else modules.verma_truncation
    return dirac.assemble_all(build(datum, lam, height), height)


@pytest.mark.parametrize("name", [*SHORTCUT_INPUTS, "by-degree"])
def test_dirac_entries_split_by_cohomological_degree(name):
    """Every entry of D links monomials whose cohomological degrees differ by
    one, every integer entry that raises the degree is even (so the Kostant
    differential d, its half, stays integral there), and the halves identity
    of the adjoint certificate holds exactly when D^T G + G D = 0 does; on
    the golden inputs, the refuted and Verma ones, and the trivial modules
    assembled by degree."""
    if name == "by-degree":
        colls = [_degree_collection(group) for group in (SL21, SL22, SL23, GL33)]
    else:
        colls = [_collection(*SHORTCUT_INPUTS[name])]
    raising = lowering = 0
    for coll in colls:
        datum = coll.module.datum
        for block in coll.blocks.values():
            deg = [oscillator.cohomological_degree(datum, a) for _, _, a in block.basis]
            shifts = [deg[i] - deg[j] for i, j in block.D.entries]
            assert set(shifts) <= {-1, 1}, block.nu.text()
            raising += shifts.count(1)
            lowering += shifts.count(-1)
            assert all(
                v % 2 == 0
                for (i, j), v in block.D.entries.items()
                if type(v) is int and deg[i] > deg[j]
            )
            cert = dirac.anti_selfadjoint_certificate(block)
            assert cert.halves_adjoint == cert.ok
    # the odd part acts by zero on the trivial modules, so their D vanishes
    assert bool(raising and lowering) == (name != "by-degree")
    assert all(coll.blocks for coll in colls)


def _outputs(coll):
    """Everything cohomology, the k-type tables and the square audit report."""
    report = dirac.dirac_cohomology(coll)
    tables = [dirac.hd_ktype_table(coll, report, sign) for sign in (+1, -1)]
    return report.to_json(), tables, dirac.dirac_square_audit(coll).to_json()


def _chain_product(coll, audit, block):
    """The product over the block's predicted scalars of (D^2 - c): the
    measured scalars of the blocks above it in the even cone (the rational
    cone oracle)."""
    below = cone_sums(block.nu)
    cs = {e.measured for e in audit.entries if in_even_cone(cone_sums(e.nu0), below)}
    n = block.dim
    d2 = block.D.matmul(block.D)
    prod = identity_matrix(n)
    for c in sorted(cs):
        prod = prod.matmul(d2.add(scaled(identity_matrix(n), -c)))
    return prod


def _spy_squares(monkeypatch, coll):
    """Record, for every `SparseRationalMatrix.matmul` call, the block whose
    D^2 (or a parity half of it) it forms: the block `block_cohomology` is
    working on (C B and B C), else the block of `coll` whose D is the left
    factor (the square audit's D D), else None."""
    squared, current = [], []
    matmul, block_cohomology = SparseRationalMatrix.matmul, dirac.block_cohomology
    by_D = {id(b.D): b for b in coll.blocks.values()}

    def spied_block_cohomology(block):
        current.append(block)
        try:
            return block_cohomology(block)
        finally:
            current.pop()

    def spied_matmul(a, b):
        squared.append(current[-1] if current else by_D.get(id(a)))
        return matmul(a, b)

    monkeypatch.setattr(dirac, "block_cohomology", spied_block_cohomology)
    monkeypatch.setattr(SparseRationalMatrix, "matmul", spied_matmul)
    return squared


@pytest.mark.parametrize("case", list(SHORTCUT_INPUTS))
def test_raising_maps_commute_with_the_operator(case):
    """X_D D = D X_D for every block and every even and every compact
    raising generator with a target block: `hd_ktype_table` and the square
    audit's shortcut rely on it. Every even raising root takes a block to
    one above it in the even cone (`dirac._in_even_cone`, and the rational
    oracle on the weights), where the audit's argument finds a highest
    vector."""
    coll = _collection(*SHORTCUT_INPUTS[case])
    alg = coll.module.alg
    m = coll.module.datum.m
    nonzero = 0
    for block in coll.blocks.values():
        for restriction in ("even", "compact"):
            for tgt, x in dirac.raising_maps(coll, block, restriction):
                assert tgt.D.matmul(x) == x.matmul(block.D), (block.nu.text(), restriction)
                nonzero += bool(x.entries)
        below = dirac._cone_sums(block.drop, m)
        for g in modules.generators(alg, +1, "even"):
            above = tuple(map(operator.add, block.drop, alg.gen_drop(g)))
            assert dirac._in_even_cone(dirac._cone_sums(above, m), below)
            assert in_even_cone(cone_sums(block.nu + alg.gen_root(g)), cone_sums(block.nu))
    assert nonzero


@pytest.mark.parametrize("case", list(SHORTCUT_INPUTS))
def test_forcing_the_predicate_false_changes_no_output(case, monkeypatch):
    """With `definite_anti_selfadjoint` False on every block (the four-rank
    cohomology and the product chain everywhere), cohomology, both k-type
    tables and the square audit report the same."""
    coll = _collection(*SHORTCUT_INPUTS[case])
    shortcut = _outputs(coll)
    assert any(block.definite_anti_selfadjoint for block in coll.blocks.values())
    monkeypatch.setattr(dirac.DiracBlock, "definite_anti_selfadjoint", property(lambda b: False))
    assert _outputs(_collection(*SHORTCUT_INPUTS[case])) == shortcut


@pytest.mark.parametrize("case", list(SHORTCUT_INPUTS))
def test_where_the_predicate_holds_the_chain_vanishes_and_ker_meets_im_in_zero(case):
    """On every block where `definite_anti_selfadjoint` holds, the product
    the audit skips is zero and the intersection oracle finds
    ker D cap im D = 0; the predicate holds exactly where every module form
    of the basis is positive definite, as D^T G + G D = 0 on every block."""
    coll = _collection(*SHORTCUT_INPUTS[case])
    audit = dirac.dirac_square_audit(coll)
    held = 0
    for block in coll.blocks.values():
        forms = {block.module.by_drop[e[0]].definiteness.verdict for e in block.basis}
        assert dirac.anti_selfadjoint_certificate(block).ok
        assert block.definite_anti_selfadjoint == (forms <= {"positive-definite"})
        if block.definite_anti_selfadjoint and block.dim:
            assert _chain_product(coll, audit, block).is_zero(), block.nu.text()
            assert cap_basis(block) == []
            held += 1
    assert held


def _certificate_triples(rng):
    """(G, D, d) with G symmetric, diagonal and invertible: D = G^-1 A for an
    antisymmetric A (`ok` holds) and d = G^-1 (U + S) for U the upper half of
    A / 2 and S symmetric (`halves_adjoint` holds too); then each with one
    entry of d off the diagonal changed (only the halves fail) and of D
    changed (both fail); and random D and d (both fail, almost always)."""
    for _ in range(40):
        n = rng.randint(2, 5)
        g = SparseRationalMatrix(n, n, {(i, i): rng.choice((-2, -1, 1, 3)) for i in range(n)})
        a, u, sym = {}, {}, {}
        for i in range(n):
            for j in range(i, n):
                if rng.random() < 0.5:
                    sym[i, j] = sym[j, i] = rng.randint(-2, 2)
                if j > i and rng.random() < 0.6:
                    v = rng.randint(-3, 3)
                    a[i, j], a[j, i] = v, -v
                    u[i, j] = Fraction(v, 2)

        def over_g(m):
            """G^-1 m, G being diagonal."""
            return SparseRationalMatrix(n, n, {
                (i, j): exactla._rat(Fraction(v, g.entries[i, i])) for (i, j), v in m.items() if v
            })

        gd = dict(sym)
        for key, v in u.items():
            gd[key] = gd.get(key, 0) + v
        D, d = over_g(a), over_g(gd)
        key = tuple(rng.sample(range(n), 2))  # off the diagonal, where G d changes asymmetrically
        yield g, D, d
        yield g, D, SparseRationalMatrix(n, n, {**d.entries, key: d.entries.get(key, 0) + 1})
        yield g, SparseRationalMatrix(n, n, {**D.entries, key: D.entries.get(key, 0) + 1}), d
        D, d = (
            SparseRationalMatrix(n, n, {
                (i, j): v for i in range(n) for j in range(n) if (v := rng.randint(-2, 2))
            })
            for _ in range(2)
        )
        yield g, D, d


def test_one_pass_certificate_matches_the_key_union_oracle():
    """`ok`, the witness and `halves_adjoint` equal the key-union oracle's on
    seeded (G, D, d) where both identities hold, where only `ok` holds and
    where neither does (the certificate read off G D and G (2d)), and on
    every block of the shortcut inputs, each once more with one D entry
    doubled (d read off the altered D)."""
    rng = random.Random(29)
    seen = Counter()
    for g, D, d in _certificate_triples(rng):
        cert = dirac._adjoint_certificate(g.matmul(D).entries, g.matmul(scaled(d, 2)).entries)
        expected = key_union_certificate(g.matmul(D).entries, g.matmul(d).entries)
        assert (cert.ok, cert.witness, cert.halves_adjoint) == expected
        seen[cert.ok, cert.halves_adjoint] += 1
    assert set(seen) == {(True, True), (True, False), (False, False)}
    assert min(seen.values()) >= 40
    blocks = 0
    for case in SHORTCUT_INPUTS:
        for block in _collection(*SHORTCUT_INPUTS[case]).blocks.values():
            first = sorted(block.D.entries)[:1]
            for b in [block, *(replace(block, D=_doubled(block.D, key)) for key in first)]:
                cert = dirac.anti_selfadjoint_certificate(b)
                g = block_gram(b)
                expected = key_union_certificate(
                    g.matmul(b.D).entries, g.matmul(kostant_d(b)).entries
                )
                assert (cert.ok, cert.witness, cert.halves_adjoint) == expected, (case, b.nu.text())
                blocks += 1
    assert blocks


@pytest.mark.parametrize("case", list(SHORTCUT_INPUTS))
def test_predicate_equals_definite_gram_and_certificate(case):
    """On every block, and on the first block with a nonzero D once more
    with one D entry doubled, `definite_anti_selfadjoint` equals its
    definition read off independent objects: the whole block Gram G is
    positive definite (`exactla.definiteness` of G, not of the module
    forms) and the full adjoint certificate is `ok`."""
    blocks = list(_collection(*SHORTCUT_INPUTS[case]).blocks.values())
    first = next(b for b in blocks if b.D.entries)
    blocks.append(replace(first, D=_doubled(first.D, min(first.D.entries))))
    for block in blocks:
        definite = exactla.definiteness(block_gram(block)).verdict == "positive-definite"
        expected = definite and dirac.anti_selfadjoint_certificate(block).ok
        assert block.definite_anti_selfadjoint == expected, block.nu.text()
    assert any(b.definite_anti_selfadjoint for b in blocks)
    assert not blocks[-1].definite_anti_selfadjoint


def _nonzero(entries):
    return {key: v for key, v in entries.items() if v}


@ASSEMBLY_GRID
def test_gram_accumulations_match_the_block_gram_oracle(group, weight, height, kind, monkeypatch):
    """On every block of the grid inputs, the G D that `dirac._gram_D`
    accumulates with no G formed, and the G D and G (2d) that
    `anti_selfadjoint_certificate` reads, equal the products with the block
    Gram matrix, `block_gram(b).matmul(...)`, entry by entry."""
    coll = _collection(group, weight, height, kind)
    read = []
    monkeypatch.setattr(dirac, "_adjoint_certificate", lambda g_D, g_2d: read.append((g_D, g_2d)))
    nonzero = 0
    for block in coll.blocks.values():
        g = block_gram(block)
        g_D = g.matmul(block.D).entries
        assert _nonzero(dirac._gram_D(block)) == g_D, block.nu.text()
        dirac.anti_selfadjoint_certificate(block)
        (read_D, read_2d), = read
        read.clear()
        assert _nonzero(read_D) == g_D, block.nu.text()
        assert _nonzero(read_2d) == g.matmul(scaled(kostant_d(block), 2)).entries, block.nu.text()
        nonzero += bool(read_2d) and len(read_2d) < len(read_D)
    assert nonzero


def test_a_spoiled_module_form_flips_the_predicate():
    """sl(2|1) -2,1|1 at N=4: on a block where the predicate holds and D is
    nonzero, one diagonal entry of one module form is doubled, on a row of
    that form that D reaches. The form stays positive definite (a positive
    multiple of e_r e_r^T is added), so the predicate reads G D, which is no
    longer antisymmetric: it flips, with the certificate, while G stays
    definite. The accumulation reads the spoiled entry."""
    coll = _collection(SL21, "-2,1|1", 4, "simple")
    block = next(b for b in coll.blocks.values() if b.D.entries and b.definite_anti_selfadjoint)
    drop_m, r, _ = block.basis[min(block.D.entries)[0]]
    mb = block.module.by_drop[drop_m]
    form = mb.form
    entries = {**form.entries, (r, r): 2 * form.entries[r, r]}
    spoiled = SparseRationalMatrix(form.rows, form.cols, entries)
    mb = replace(mb, form=spoiled)
    module = replace(block.module, by_drop={**block.module.by_drop, drop_m: mb})
    bad = replace(block, module=module)
    assert exactla.definiteness(block_gram(bad)).verdict == "positive-definite"
    assert _nonzero(dirac._gram_D(bad)) == block_gram(bad).matmul(bad.D).entries
    assert dirac._gram_D(bad) != dirac._gram_D(block)
    assert not bad.definite_anti_selfadjoint
    assert not dirac.anti_selfadjoint_certificate(bad).ok
    assert dirac.anti_selfadjoint_certificate(block).ok


@pytest.mark.parametrize("case", list(SHORTCUT_INPUTS))
def test_a_block_keeps_only_its_record_after_a_full_pipeline(case):
    """After cohomology, both k-type tables, the square audit, Kostant
    cohomology and the adjoint certificate on every block, each block holds
    its dataclass fields and at most the cached predicate: no G, G D, D^2
    or d is kept."""
    coll = _collection(*SHORTCUT_INPUTS[case])
    report = dirac.dirac_cohomology(coll)
    for sign in (+1, -1):
        dirac.hd_ktype_table(coll, report, sign)
    dirac.dirac_square_audit(coll)
    analysis.kostant_cohomology(coll)
    for block in coll.blocks.values():
        dirac.anti_selfadjoint_certificate(block)
    record = {f.name for f in fields(dirac.DiracBlock)}
    kept = [set(vars(b)) - record for b in coll.blocks.values()]
    assert all(k <= {"definite_anti_selfadjoint"} for k in kept)
    assert any(kept)


def test_a_spoiled_D_entry_sends_its_block_to_the_chain(monkeypatch):
    """sl(2|1) -2,1|1 at N=4 with one entry of D doubled on the first block
    below a zero-scalar block (`_below_zero_scalar`: 3 of the 15 blocks)
    where D is nonzero: the predicate fails on that block alone, cohomology
    forms C B and B C, the parity halves of D^2, there and nowhere else and
    still matches the intersection oracle, and the square audit raises on
    the map X_D that no longer commutes with D, before it forms any product.
    Outside that cone cohomology reads no
    matrix: H_D = 0 there rests on the X_D D = D X_D identity that the
    audit asserts, so a block spoiled there would show only in the audit."""
    coll = _collection(SL21, "-2,1|1", 4, "simple")
    cone = _below_zero_scalar(coll)
    assert (len(cone), len(coll.blocks)) == (3, 15)
    block = next(b for b in coll.blocks.values() if b.D.entries and b.drop in cone)
    spoiled = replace(block, D=_doubled(block.D, min(block.D.entries)))
    blocks = {nu: spoiled if b is block else b for nu, b in coll.blocks.items()}
    coll = replace(coll, blocks=blocks, by_drop={b.drop: b for b in blocks.values()})
    holds = [b.definite_anti_selfadjoint for b in blocks.values()]
    assert holds == [b is not spoiled for b in blocks.values()]
    squared = _spy_squares(monkeypatch, coll)
    report = dirac.dirac_cohomology(coll)
    assert squared == [spoiled, spoiled]
    assert report.per_block[spoiled.nu] == oracle_block_cohomology(spoiled).counts
    squared.clear()
    with pytest.raises(AssertionError, match="X_D does not commute with D at nu="):
        dirac.dirac_square_audit(coll)
    assert squared == []


def _row_added(x, r, s):
    """x with row s added to row r: the same kernel."""
    entries = dict(x.entries)
    for (i, j), v in x.entries.items():
        if i == s:
            entries[r, j] = entries.get((r, j), 0) + v
    return SparseRationalMatrix(x.rows, x.cols, {k: v for k, v in entries.items() if v})


def test_a_spoiled_commutation_sends_every_block_to_the_chain(monkeypatch):
    """sl(2|1) -2,1|1 at N=4 with one map X_D replaced by one that adds one
    of its rows to another: the kernel, and so every highest vector, is
    unchanged, but the map no longer commutes with D. The constituents and
    the square audit then raise at the map's source block, before any chain
    is formed."""
    coll = _collection(SL21, "-2,1|1", 4, "simple")
    spoils = (
        (block.drop, tgt.drop, r, s)
        for block in coll.blocks.values()
        for tgt, x in dirac.raising_maps(coll, block, "even")
        for r, s in itertools.permutations(sorted({i for i, _ in x.entries}), 2)
        if tgt.D.matmul(_row_added(x, r, s)) != _row_added(x, r, s).matmul(block.D)
    )
    spoil = next(spoils)
    real = dirac.diagonal_action_matrix

    def spoiled(src, tgt, g):
        x = real(src, tgt, g)
        return _row_added(x, *spoil[2:]) if (src.drop, tgt.drop) == spoil[:2] else x

    monkeypatch.setattr(dirac, "diagonal_action_matrix", spoiled)
    squared = _spy_squares(monkeypatch, coll)
    message = f"X_D does not commute with D at nu={coll.by_drop[spoil[0]].nu.text()}"
    for run in (dirac.g0_constituents, dirac.dirac_square_audit):
        with pytest.raises(AssertionError, match=re.escape(message) + "$"):
            run(coll)
    assert squared == []


# ----- the sparse D^2 check on highest vectors ---------------------------------------------
def _entry_fields(entries):
    return [
        (e.nu0, e.mu, e.multiplicity, e.s, e.measured, type(e.measured), e.matched, e.drop)
        for e in entries
    ]


@pytest.mark.parametrize("name", [*SHORTCUT_INPUTS, "by-degree"])
def test_constituents_match_the_dense_oracle(name):
    """On the simple, Verma, refuted, atypical and gl(3|3) inputs and the
    trivial modules assembled by degree, the sparse D^2 check gives the
    constituents of the dense one, field by field: nu0, mu, multiplicity, s,
    measured (value and type) and matched."""
    if name == "by-degree":
        colls = [_degree_collection(group) for group in (SL21, SL22, SL23, GL33)]
    else:
        colls = [_collection(*SHORTCUT_INPUTS[name])]
    for coll in colls:
        entries = dirac.g0_constituents(coll)
        assert entries
        assert _entry_fields(entries) == _entry_fields(dense_g0_constituents(coll))


def test_the_square_audit_applies_no_dense_matrix(monkeypatch):
    """sl(2|1) -2,1|1 (certified) and 0,0|-1 (refuted) at N=6: the square
    audit reads D^2 v on sparse highest vectors and never calls
    `SparseRationalMatrix.apply`. The module's generator columns, which a
    first even map builds through the quotient's `apply`, are built before
    the count starts."""
    colls = [_collection(SL21, weight, 6, "simple") for weight in ("-2,1|1", "0,0|-1")]
    for coll in colls:
        for block in coll.blocks.values():
            dirac.raising_maps(coll, block, "even")
    calls = []
    apply = SparseRationalMatrix.apply

    def counted(a, v):
        calls.append(a)
        return apply(a, v)

    monkeypatch.setattr(SparseRationalMatrix, "apply", counted)
    for coll in colls:
        assert dirac.dirac_square_audit(coll).entries
    assert calls == []


def _sparse_highest_vectors(coll, block):
    maps = dirac.raising_maps(coll, block, "even")
    return exactla.sparse_kernel([r for _, x in maps for r in x.nonzero_rows()], block.dim)


def _dense(v, dim):
    return tuple(v.get(j, 0) for j in range(dim))


def _free_coordinates(hvs):
    """For each highest vector, a coordinate where it alone is nonzero (a
    free column of the RREF)."""
    return [min(j for j in v if not any(j in w for w in hvs if w is not v)) for v in hvs]


def _with_operator(coll, block, hvs, images):
    """`coll` with D on `block` replaced by D' = sum_i images[i] e_{f_i}^T,
    the f_i from `_free_coordinates`, so D' v_i = v_i[f_i] images[i]. For
    images[i] = v_i + delta_i with delta_i zero at every f_k, that gives
    D'^2 v_i = v_i[f_i]^2 (v_i + delta_i)."""
    free = _free_coordinates(hvs)
    entries = {(r, f): x for f, u in zip(free, images) for r, x in u.items() if x}
    spoiled = replace(block, D=SparseRationalMatrix(block.dim, block.dim, entries))
    blocks = {nu: spoiled if b is block else b for nu, b in coll.blocks.items()}
    return replace(coll, blocks=blocks, by_drop={b.drop: b for b in blocks.values()}), spoiled


def _squares(block, hvs):
    """D^2 v, dense, for each highest vector, read by the dense `apply`."""
    return [block.D.apply(block.D.apply(_dense(v, block.dim))) for v in hvs]


def _off_support(v, img):
    return any(x for j, x in enumerate(img) if j not in v)


def _off_ratio(v, img):
    lead = min(v)
    return any(img[j] * v[lead] != img[lead] * x for j, x in v.items())


def _assert_square_check_raises(monkeypatch, coll, message):
    """Every reader of the constituents, the dense oracle too, raises
    `message`. A spoiled D no longer commutes with the X_D, and
    `raising_maps` would raise that first, so `exactla.intertwines` is
    stubbed to pass."""
    monkeypatch.setattr(exactla, "intertwines", lambda x, src, tgt: True)
    for run in (dirac.g0_constituents, dirac.dirac_square_audit, dense_g0_constituents):
        with pytest.raises(AssertionError, match=re.escape(message) + "$"):
            run(coll)


def _blocks_with_highest_vectors(coll):
    for block in coll.blocks.values():
        if block.dim and (hvs := _sparse_highest_vectors(coll, block)):
            yield block, hvs


def test_the_square_check_sees_a_coordinate_off_the_support(monkeypatch):
    """sl(2|1) -2,1|1 at N=4, D replaced on one block (`_with_operator`)
    with delta = e_k on one highest vector v, k outside supp(v) and no free
    coordinate: D'^2 v is a multiple of v on supp(v) and nonzero at k; every
    other highest vector keeps D'^2 w = w[f]^2 w."""
    coll = _collection(SL21, "-2,1|1", 4, "simple")
    block, hvs, i, k = next(
        (block, hvs, i, k)
        for block, hvs in _blocks_with_highest_vectors(coll)
        for i, v in enumerate(hvs)
        for k in range(block.dim)
        if k not in v and k not in _free_coordinates(hvs)
    )
    images = [{**v, k: 1} if n == i else v for n, v in enumerate(hvs)]
    coll, spoiled = _with_operator(coll, block, hvs, images)
    squares = _squares(spoiled, hvs)
    assert squares[i][k] and not any(_off_ratio(v, img) for v, img in zip(hvs, squares))
    _assert_square_check_raises(
        monkeypatch, coll, f"D^2 is not scalar on a highest vector at nu={block.nu.text()}"
    )


def test_the_square_check_sees_a_wrong_ratio_on_the_support(monkeypatch):
    """sl(2|1) -2,1|1 at N=4, D replaced on one block (`_with_operator`)
    with delta = v_j e_j on one highest vector v, j in supp(v) other than
    its free coordinate: D'^2 v is zero off supp(v), but its entry at j is
    doubled against the others; every other highest vector keeps
    D'^2 w = w[f]^2 w."""
    coll = _collection(SL21, "-2,1|1", 4, "simple")
    block, hvs, i, j = next(
        (block, hvs, i, j)
        for block, hvs in _blocks_with_highest_vectors(coll)
        for i, (v, f) in enumerate(zip(hvs, _free_coordinates(hvs)))
        for j in v
        if j != f
    )
    images = [{**v, j: 2 * v[j]} if n == i else v for n, v in enumerate(hvs)]
    coll, spoiled = _with_operator(coll, block, hvs, images)
    squares = _squares(spoiled, hvs)
    assert not any(_off_support(v, img) for v, img in zip(hvs, squares))
    assert _off_ratio(hvs[i], squares[i])
    _assert_square_check_raises(
        monkeypatch, coll, f"D^2 is not scalar on a highest vector at nu={block.nu.text()}"
    )


def test_two_scalars_on_one_block_raise(monkeypatch):
    """sl(2|1) -2,1|1 at N=4, D replaced on a block with highest vectors
    v_1, ..., v_k (k >= 2) by images (i + 1) v_i (`_with_operator`): each
    D'^2 v_i is ((i + 1) v_i[f_i])^2 v_i, a multiple of v_i, but the
    scalars differ."""
    coll = _collection(SL21, "-2,1|1", 4, "simple")
    block, hvs = next((b, hvs) for b, hvs in _blocks_with_highest_vectors(coll) if len(hvs) > 1)
    images = [{j: (i + 1) * x for j, x in v.items()} for i, v in enumerate(hvs)]
    coll, spoiled = _with_operator(coll, block, hvs, images)
    squares = _squares(spoiled, hvs)
    assert not any(_off_support(v, img) or _off_ratio(v, img) for v, img in zip(hvs, squares))
    assert len({Fraction(img[min(v)], v[min(v)]) for v, img in zip(hvs, squares)}) == len(hvs)
    _assert_square_check_raises(
        monkeypatch, coll, f"distinct D^2 scalars on one isotypic label at nu={block.nu.text()}"
    )


# ----- rank-free cohomology outside the zero-scalar cone --------------------------------
def _below_zero_scalar(coll):
    """The drops of the blocks that have a nonempty block of D^2 scalar 0
    above them in the even cone, or are one: the scalar as one weight
    pairing, the cone test on the rational block weights."""
    datum, lam = coll.module.datum, coll.module.highest_weight
    zero = [
        cone_sums(b.nu)
        for b in coll.blocks.values()
        if b.dim and dirac_scalar_pairing(datum, lam, b.nu + datum.rho1) == 0
    ]
    return {
        b.drop for b in coll.blocks.values() if any(in_even_cone(z, cone_sums(b.nu)) for z in zero)
    }


# the golden, refuted and Verma inputs above, the refuted inputs at larger N,
# an atypical input at N=24 and the conformance grid of `test_conformance.py`
RANK_FREE_INPUTS = {
    **SHORTCUT_INPUTS,
    "sl21-refuted-N8": (SL21, "0,0|-1", 8, "simple"),
    "sl21-refuted-100-N8": (SL21, "1,0|0", 8, "simple"),
    "gl33-refuted-N4": (GL33, "-3,0,0|1,1,1", 4, "simple"),
    "sl21-atypical-N24": (SL21, "-1,0|0", 24, "simple"),
    **{f"grid-{w}-N{h}": (g, w, h, "simple") for g, h, w in CONFORMANCE_GRID},
}


@pytest.mark.parametrize("name", [*RANK_FREE_INPUTS, "by-degree"])
def test_cohomology_outside_the_zero_scalar_cone_matches_the_rank_path(name):
    """On every block, the `BlockCohomology` of `dirac_cohomology` equals
    `block_cohomology`'s, every field, and both compact k-type tables read
    off either report agree. Some block lies outside the zero-scalar cone,
    where ker D = 0, on every input but those at the zero weight (the
    trivial module, its Verma module and the trivial modules assembled by
    degree), whose blocks all lie in it."""
    if name == "by-degree":
        colls = [_degree_collection(group) for group in (SL21, SL22, SL23, GL33)]
        zero_weight = True
    else:
        colls = [_collection(*RANK_FREE_INPUTS[name])]
        zero_weight = colls[0].module.highest_weight.is_zero()
    outside = 0
    for coll in colls:
        cone = _below_zero_scalar(coll)
        report = dirac.dirac_cohomology(coll)
        assert list(report.per_block) == list(coll.blocks)
        ranked = {nu: dirac.block_cohomology(block) for nu, block in coll.blocks.items()}
        for nu, block in coll.blocks.items():
            bc = ranked[nu]
            assert report.per_block[nu] == bc, nu.text()
            if block.drop not in cone:
                outside += 1
                assert bc.ker == 0, nu.text()
        for sign in (+1, -1):
            assert dirac.hd_ktype_table(coll, report, sign) == dirac.hd_ktype_table(
                coll, replace(report, per_block=ranked), sign
            )
    assert bool(outside) != zero_weight


def test_an_even_simple_truncation_takes_every_rank():
    """The negative control: the even-simple truncation of sl(2|1) -2,1|1 at
    N=6 is a g0-module only, so the D^2 formula on highest vectors fails
    and 24 blocks outside the zero-scalar cone have ker D != 0. Cohomology
    still equals the rank path on every block: it takes ranks on every
    block of a kind other than simple or Verma."""
    datum = build_root_datum(*SL21)
    lam = parse_weight("-2,1|1", datum.m, datum.n)
    coll = dirac.assemble_all(modules.even_simple_truncation(datum, lam, 6), 6)
    cone = _below_zero_scalar(coll)
    ranked = {nu: dirac.block_cohomology(b) for nu, b in coll.blocks.items()}
    assert sum(b.drop not in cone and ranked[nu].ker > 0 for nu, b in coll.blocks.items()) == 24
    assert dirac.dirac_cohomology(coll).per_block == ranked


@pytest.mark.parametrize(
    "group, weight, height", [(SL21, "-2,1|1", 6), (SL23, "-3,0|1,1,1", 4)], ids=["sl21", "sl23"]
)
def test_no_rank_is_taken_outside_the_zero_scalar_cone(group, weight, height, monkeypatch):
    """Counting `exactla.rank` and `SparseRationalMatrix.matmul` calls by the
    block whose `block_cohomology` makes them: `dirac_cohomology` takes
    ranks and forms products only on blocks below a zero-scalar block, and
    never reads the predicate on the others."""
    coll = _collection(group, weight, height, "simple")
    cone = _below_zero_scalar(coll)
    rank, block_cohomology = exactla.rank, dirac.block_cohomology
    matmul = SparseRationalMatrix.matmul
    current, ranked, products = [], [], []

    def counted_block_cohomology(block):
        current.append(block)
        try:
            return block_cohomology(block)
        finally:
            current.pop()

    def counted_rank(a):
        ranked.append(current[-1].drop if current else None)
        return rank(a)

    def counted_matmul(a, b):
        products.append(current[-1].drop if current else None)
        return matmul(a, b)

    monkeypatch.setattr(dirac, "block_cohomology", counted_block_cohomology)
    monkeypatch.setattr(exactla, "rank", counted_rank)
    monkeypatch.setattr(SparseRationalMatrix, "matmul", counted_matmul)
    dirac.dirac_cohomology(coll)
    assert ranked and set(ranked) <= cone
    assert set(products) <= cone
    outside = [b for b in coll.blocks.values() if b.drop not in cone]
    assert outside and not any("definite_anti_selfadjoint" in vars(b) for b in outside)


# ----- the g0-constituents -----------------------------------------------------------
@pytest.mark.parametrize(
    "group, weight, constituents, negative",
    [(SL21, "1,0|0", 14, 4), (SL21, "1,0|1", 14, 6), (GL33, "-3,0,0|1,1,1", 30, 8)],
)
def test_refuted_inputs_reach_the_inequality(group, weight, constituents, negative):
    """On refuted inputs where D^2 is not semisimple (N=4), the constituents
    are still found and the Dirac inequality s >= 0 fails at some of them;
    the Harish-Chandra check answers, and only the square audit's
    semisimplicity check raises."""
    coll = _collection(group, weight, 4, "simple")
    entries = dirac.g0_constituents(coll)
    assert len(entries) == constituents
    assert sum(e.s < 0 for e in entries) == negative
    assert type(harish_chandra_audit(coll)) is bool
    with pytest.raises(AssertionError, match=r"D\^2 not semisimple with predicted scalars at nu="):
        dirac.dirac_square_audit(coll)


def test_dirac_inequality_holds_exactly_on_certified_weights():
    """The sl(2|1) weights a,0|c, -3 <= a <= 1 and -3 <= c <= 3, at N=4: s >= 0
    at every g0-constituent on exactly the weights `certify_unitarity`
    certifies (the Dirac inequality characterizes unitarity), and the square
    audit raises on exactly the weights 1,0|c."""
    datum = build_root_datum(*SL21)
    inequality, certified, raised = set(), set(), set()
    for a, c in itertools.product(range(-3, 2), range(-3, 4)):
        weight = f"{a},0|{c}"
        coll = _collection(SL21, weight, 4, "simple")
        if all(e.s >= 0 for e in dirac.g0_constituents(coll)):
            inequality.add(weight)
        cert = modules.certify_unitarity(datum, coll.module.highest_weight, 4, coll.module)
        if cert.verdict == "certified-up-to-N":
            certified.add(weight)
        try:
            dirac.dirac_square_audit(coll)
        except AssertionError:
            raised.add(weight)
    assert len(certified) == 10 and inequality == certified
    assert raised == {f"1,0|{c}" for c in range(-3, 4)}


@pytest.mark.parametrize(
    "group, weight, height",
    [
        (SL21, "-2,1|1", 8),
        (SL21, "-1,0|0", 8),
        (SL22, "-3,1|1,1", 4),
        (SL23, "-3,0|1,1,0", 3),
        (GL33, "-2,-2,1|1,1,1", 3),
    ],
)
def test_constituents_with_scalar_zero_fix_the_cohomology(group, weight, height):
    """On certified inputs, typical or atypical, the g0-highest weights of
    H_D (both parities) are the g0-constituents on which D^2 acts by 0, with
    their multiplicities (Huang-Pandzic: D^2 is diagonalizable and
    ker D = ker D^2), and s >= 0 at every constituent."""
    coll = _collection(group, weight, height, "simple")
    datum = coll.module.datum
    cert = modules.certify_unitarity(datum, coll.module.highest_weight, height, coll.module)
    assert cert.verdict == "certified-up-to-N"
    oracle = oracle_cohomology(coll)
    assert dirac.dirac_cohomology(coll).per_block == {nu: o.counts for nu, o in oracle.items()}
    table = Counter()
    for sign in (1, -1):
        table.update(oracle_ktype_table(coll, oracle, sign, "even"))
    entries = dirac.g0_constituents(coll)
    assert dict(table) == {e.nu0: e.multiplicity for e in entries if e.measured == 0}
    assert all(e.s >= 0 for e in entries)


@pytest.mark.parametrize(
    "group, weight, height",
    [
        (SL21, "-2,1|1", 8),
        (SL22, "-3,1|1,1", 4),
        (SL23, "-3,0|1,1,1", 3),
        (GL33, "-2,-2,1|1,1,1", 3),
    ],
)
def test_sparse_elimination_matches_fraction_oracle_on_dirac_blocks(group, weight, height):
    """On every Dirac block, the ranks of B, C and the stacked even raising
    maps are the Fraction elimination's, and each highest vector is a
    positive multiple of the oracle's kernel vector, so the spans agree."""
    coll = _collection(group, weight, height, "simple")
    for block in coll.blocks.values():
        even = [i for i, p in enumerate(block.parity) if p == 0]
        odd = [i for i, p in enumerate(block.parity) if p == 1]
        stack = stacked([x for _, x in dirac.raising_maps(coll, block, "even")], block.dim)
        for m in (block.D.submatrix(even, odd), block.D.submatrix(odd, even), stack):
            assert exactla.rank(m) == len(fraction_rref(m.to_rows())[1])
        hvs = exactla.kernel_basis(stack)
        oracle = fraction_kernel(stack.to_rows(), block.dim)
        assert len(hvs) == len(oracle)
        assert all(is_positive_multiple(v, w) for v, w in zip(hvs, oracle))
