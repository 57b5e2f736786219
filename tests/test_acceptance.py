"""Acceptance suite: ten end-to-end criteria at exact rational equality.

Each criterion prints a single pass/fail line (bypassing pytest capture) and
asserts with tolerance zero.
"""

import random
import sys
import time
from fractions import Fraction

import _acceptance_report
from _helpers import (
    alpha_embed,
    bargmann_fock,
    combine,
    d_op,
    monomials_of_degree,
    multiply,
    omega,
    scale,
    weyl_commutator,
    x_op,
)
from superdirac import analysis, dirac, modules
from superdirac.oscillator import Oscillator, weyl_apply
from superdirac.weights import pairing, parse_weight


def announce(number: int, ok: bool, detail: str, t0: float) -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {number:2d}] {status} ({time.time() - t0:.1f}s) {detail}"
    _acceptance_report.lines.append(line)
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def test_criterion_01_dirac_kernel_theorem(d21, lam_typical):
    t0 = time.time()
    mod = modules.simple_truncation(d21, lam_typical, 4)
    cert = modules.certify_unitarity(d21, lam_typical, 4, module=mod)
    coll = dirac.assemble_all(mod, 4)
    rep = dirac.dirac_cohomology(coll)
    target = lam_typical - d21.rho1
    l0 = modules.even_simple_truncation(d21, target, 4)
    equal, diff = modules.characters_equal_to_height(
        d21, rep.character(), modules.character(l0), target, Fraction(4)
    )
    ok = cert.certified and equal and rep.hd_minus_total() == 0
    announce(
        1,
        ok,
        "Dirac kernel of the certified simple module equals the even simple "
        f"module at the rho1-shifted weight, N=4, weight {lam_typical.text()}",
        t0,
    )


def test_criterion_02_trivial_module_baseline(coll_trivial21, coll_trivial23):
    t0 = time.time()
    ok = True
    for coll in (coll_trivial21, coll_trivial23):
        rep = dirac.dirac_cohomology(coll)
        hd = rep.character().multiplicities
        expected = {}
        for deg in range(5):
            for a in monomials_of_degree(coll.module.datum.mn, deg):
                w = coll.osc.monomial_weight(a)
                expected[w] = expected.get(w, 0) + 1
        ok = ok and hd == expected
    announce(
        2,
        ok,
        "trivial-module Dirac cohomology equals the oscillator module "
        "character to degree 4 at sl(2|1) and sl(2|3)",
        t0,
    )


def test_criterion_03_square_audit(d21, lam_typical):
    t0 = time.time()
    mod = modules.simple_truncation(d21, lam_typical, 4)
    coll = dirac.assemble_all(mod, 4)
    report = dirac.dirac_square_audit(coll)
    cand = pairing(d21.rho1 - d21.rho0.scale(2), d21.rho1)
    constant_ok = report.constant_measured["str-normalized"] in (cand, -cand)
    scalars_ok = report.all_matched and all(
        e.measured == -2 * e.s for e in report.entries
    )
    ok = constant_ok and scalars_ok and report.semisimple_blocks_checked > 0
    announce(
        3,
        ok,
        "squared operator acts by the pairing scalar on every isotypic "
        f"component at N=4; measured constant {report.constant_measured['str-normalized']} "
        f"vs candidates +-({cand})",
        t0,
    )


def test_criterion_04_adjointness_and_inequality(
    coll_typical3, coll_atypical2, coll_refuted2, d21, lam_refuted
):
    t0 = time.time()
    adjoint_ok = True
    for coll in (coll_typical3, coll_atypical2):
        for block in coll.blocks.values():
            cert = dirac.anti_selfadjoint_certificate(block)
            adjoint_ok = adjoint_ok and cert.ok and cert.halves_adjoint
    entries = dirac.g0_constituents(coll_refuted2)
    target = lam_refuted - d21.pos_odd[0].weight  # lam - (eps1 - del1)
    hits = [e for e in entries if e.mu == target]
    pairing_ok = (
        len(hits) == 1 and hits[0].s == 2 and hits[0].s > 0
    )
    ok = adjoint_ok and pairing_ok
    announce(
        4,
        ok,
        "anti-selfadjointness on all certified blocks; refuted weight "
        f"{lam_refuted.text()} shows s = +2 at the g0-constituent "
        f"{target.text()}",
        t0,
    )


def test_criterion_05_even_decomposition(d21, lam_typical, lam_atypical):
    t0 = time.time()
    ok = True
    counts = []
    for lam, expected in ((d21.zero(), 1), (lam_atypical, 2), (lam_typical, 4)):
        good, diff, pred = analysis.even_decomposition_verify(d21, lam, 3)
        counts.append(len(pred.included_labels()))
        ok = ok and good and counts[-1] == expected
    announce(
        5,
        ok,
        f"even decompositions verified at N=3 with constituent counts {counts}",
        t0,
    )


def test_criterion_06_verma_filtration(d21, d23):
    t0 = time.time()
    ok1, diff1 = modules.verma_filtration_check(d21, parse_weight("3,-1|2", 2, 1), 3)
    ok2, diff2 = modules.verma_filtration_check(
        d23, parse_weight("-2,1|1,0,-1", 2, 3), 3
    )
    ok = ok1 and ok2
    announce(
        6,
        ok,
        "Verma character equals the sum of even Verma characters over odd "
        "subsets at sl(2|1) and sl(2|3), N=3",
        t0,
    )


def test_criterion_07_kostant_comparison(coll_typical3, coll_atypical2):
    t0 = time.time()
    ok = True
    for coll in (coll_typical3, coll_atypical2):
        report = analysis.kostant_cohomology(coll)
        inj, diff = analysis.injection_check(dirac.dirac_cohomology(coll), report)
        ok = ok and report.dd_zero and inj
    announce(
        7,
        ok,
        "d o d = 0 exactly and the Dirac cohomology character equals the "
        "rho1-twisted Kostant cohomology character, N=3",
        t0,
    )


def test_criterion_08_index_equals_euler_characteristic(
    coll_typical3, coll_trivial21, d21, lam_typical
):
    t0 = time.time()
    verma = modules.verma_truncation(d21, lam_typical, 3)
    coll_verma = dirac.assemble_all(verma, 3)
    ok = True
    for coll in (coll_trivial21, coll_typical3, coll_verma):
        rep = dirac.dirac_cohomology(coll)
        ok = ok and dirac.dirac_index(coll) == rep.signed_table()
    announce(
        8,
        ok,
        "per-weight index equals the signed Dirac cohomology dimensions for "
        "the trivial module, a certified simple module, and a Verma truncation",
        t0,
    )


def test_criterion_09_character_formulas(coll_typical3):
    t0 = time.time()
    ok = True
    for which in ("kostant", "dirac-index"):
        good, diff = analysis.character_formula_check(coll_typical3, which)
        ok = ok and good
    announce(
        9,
        ok,
        "both character formulas (Kostant Euler sum and Dirac index sum) hold "
        "for the certified weight at N=3",
        t0,
    )


def _gen_elem(g):
    return {(g,): Fraction(1)}


def _bracket(alg, x, px, y, py):
    xy = multiply(alg, x, y)
    yx = multiply(alg, y, x)
    return combine(xy, scale(yx, -(-1 if (px and py) else 1)))


def _jacobi_holds(alg, a, b, c):
    pa, pb, pc = alg.parity(a), alg.parity(b), alg.parity(c)
    ea, eb, ec = _gen_elem(a), _gen_elem(b), _gen_elem(c)
    lhs = _bracket(alg, ea, pa, _bracket(alg, eb, pb, ec, pc), (pb + pc) % 2)
    rhs = combine(
        _bracket(alg, _bracket(alg, ea, pa, eb, pb), (pa + pb) % 2, ec, pc),
        scale(
            _bracket(alg, eb, pb, _bracket(alg, ea, pa, ec, pc), (pa + pc) % 2),
            -1 if (pa and pb) else 1,
        ),
    )
    return combine(lhs, scale(rhs, -1)) == {}


def test_criterion_10_algebra_substrate(alg21, alg23):
    t0 = time.time()
    ok = True
    # super Jacobi: exhaustive at sl(2|1)
    gens21 = alg21.generators()
    for a in gens21:
        for b in gens21:
            for c in gens21:
                ok = ok and _jacobi_holds(alg21, a, b, c)
    # sampled at sl(2|3)
    gens23 = alg23.generators()
    rng = random.Random(1729)
    for _ in range(150):
        ok = ok and _jacobi_holds(
            alg23, rng.choice(gens23), rng.choice(gens23), rng.choice(gens23)
        )
    # anti-involution laws
    for alg in (alg21, alg23):
        for g in alg.generators():
            ok = ok and omega(alg, omega(alg, _gen_elem(g))) == _gen_elem(g)
    for _ in range(60):
        a, b = rng.choice(gens21), rng.choice(gens21)
        lhs = omega(alg21, multiply(alg21, _gen_elem(a), _gen_elem(b)))
        rhs = multiply(alg21, omega(alg21, _gen_elem(b)), omega(alg21, _gen_elem(a)))
        ok = ok and lhs == rhs
    # homomorphism property of the even-part embedding
    for alg in (alg21, alg23):
        osc = Oscillator(alg)
        evens = alg.even_generators()
        for g in evens:
            for h in evens:
                lhs = alpha_embed(osc, alg.supercommutator(g, h))
                rhs = weyl_commutator(osc.alpha_embed_gen(g), osc.alpha_embed_gen(h))
                ok = ok and lhs == rhs
    # Weyl-algebra relations
    for k in range(3):
        for l in range(3):
            c = weyl_commutator(d_op(k, 3), x_op(l, 3))
            expected = {((0,) * 3, (0,) * 3): Fraction(1)} if k == l else {}
            ok = ok and c == expected
    # Bargmann-Fock adjointness on sampled polynomials
    for _ in range(40):
        p = {tuple(rng.randrange(0, 3) for _ in range(2)): Fraction(rng.randrange(-3, 4))}
        q = {tuple(rng.randrange(0, 3) for _ in range(2)): Fraction(rng.randrange(-3, 4))}
        for k in range(2):
            lhs = bargmann_fock(weyl_apply(x_op(k, 2), p), q)
            rhs = bargmann_fock(p, weyl_apply(d_op(k, 2), q))
            ok = ok and lhs == rhs
    announce(
        10,
        ok,
        "algebra substrate: super Jacobi (exhaustive sl(2|1), sampled "
        "sl(2|3)), anti-involution laws, embedding homomorphism, Weyl "
        "relations, Bargmann-Fock adjointness",
        t0,
    )
