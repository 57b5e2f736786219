"""Theorem-level procedures: the even (g0) decomposition of simple modules,
Kostant cohomology of the nilpotent odd part with its comparison against Dirac
cohomology, and the two character formulas.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from . import dirac, exactla, modules
from .dirac import BlockCollection
from .modules import TruncatedModule, VirtualCharacter
from .weights import RootDatum, Weight, subset_labels


# ----- even decomposition ----------------------------------------------------------
@dataclass
class BranchingEntry:
    subset: tuple[int, ...]
    label: Weight
    included: bool
    exclusion_reason: str  # "atypicality" | "dirac-inequality" | "none"

    def to_json(self) -> dict:
        return {
            "subset": list(self.subset),
            "label": self.label.text(),
            "included": self.included,
            "exclusion_reason": self.exclusion_reason,
        }


@dataclass
class BranchingPrediction:
    entries: list[BranchingEntry]
    verified_input: bool  # whether the input was certified unitarizable

    def included_labels(self) -> list[Weight]:
        return [e.label for e in self.entries if e.included]

    def to_json(self) -> dict:
        return {
            "entries": [e.to_json() for e in self.entries],
            "verified_input": self.verified_input,
        }


def even_decomposition(datum: RootDatum, lam: Weight, certified: bool) -> BranchingPrediction:
    """Predicted g0-constituents of L(lam): subsets S of the odd positive
    roots avoiding the atypicality set and (for nonempty S) satisfying the
    strict Dirac inequality for the label lam - Gamma_S. `certified` records
    whether L(lam) was certified unitarizable."""
    t = (lam + datum.rho).scale(2).coords()
    entries: list[BranchingEntry] = []
    for subset, label, atypical in subset_labels(datum, lam):
        if atypical:
            reason = "atypicality"
        elif subset and modules.dirac_scalar(datum, t, (lam - label).coords()) <= 0:
            reason = "dirac-inequality"
        else:
            reason = "none"
        entries.append(BranchingEntry(subset, label, reason == "none", reason))
    return BranchingPrediction(entries, certified)


def even_decomposition_verify(
    datum: RootDatum, lam: Weight, height
) -> tuple[bool, Weight | None, BranchingPrediction]:
    """Character of L(lam) against the sum of even-simple characters over the
    included labels, compared up to the truncation height."""
    height = Fraction(height)
    module = modules.simple_truncation(datum, lam, height)
    certified = modules.certify_unitarity(datum, lam, height, module=module).certified
    prediction = even_decomposition(datum, lam, certified)
    terms = [(mu, 1) for mu in prediction.included_labels()]
    right = modules.even_character_sum(datum, lam, terms, height, "even-simple")
    ok, diff = modules.characters_equal_to_height(
        datum, modules.character(module), right, lam, height
    )
    return ok, diff, prediction


# ----- Kostant cohomology -------------------------------------------------------------
@dataclass
class KostantReport:
    # per degree k: weight (reported with the +rho1 shift) -> multiplicity
    per_degree: dict[int, dict[Weight, int]]
    dd_zero: bool
    module: TruncatedModule

    def total_character_shifted_back(self) -> dict[Weight, int]:
        """Sum over degrees at the diagonal weight (the e^{-rho1}-twisted
        labels), for comparison with Dirac cohomology."""
        out: dict[Weight, int] = {}
        rho1 = self.module.datum.rho1
        for table in self.per_degree.values():
            for w, m in table.items():
                nu = w - rho1
                out[nu] = out.get(nu, 0) + m
        return {k: v for k, v in out.items() if v}


def kostant_cohomology(coll: BlockCollection) -> KostantReport:
    """H^k of the positive odd part with coefficients in the module, realized
    per diagonal block by its Kostant differential d on M (x) M(g1), the
    degree-raising half of D/2, graded by `DiracBlock.degrees` into the C^k.
    D's block A_k: C^k -> C^{k+1} is 2d there, so one rank r_k = rk A_k per
    degree gives h^k = dim C^k - r_k - r_{k-1}, and d^2 = 0 iff every
    A_{k+1} A_k = 0 (d^2 maps C^k to C^{k+2})."""
    module = coll.module
    rho1 = module.datum.rho1
    per_degree: dict[int, dict[Weight, int]] = {}
    dd_zero = True
    for nu, block in coll.blocks.items():
        if block.dim == 0:
            continue
        idx_by_deg: dict[int, list[int]] = {}
        for i, k in enumerate(block.degrees()):
            idx_by_deg.setdefault(k, []).append(i)
        raising = {  # A_k, and r_k = 0 where C^{k+1} = 0
            k: block.D.submatrix(idx_by_deg[k + 1], cols)
            for k, cols in idx_by_deg.items()
            if k + 1 in idx_by_deg
        }
        dd_zero = dd_zero and all(
            raising[k + 1].matmul(a).is_zero() for k, a in raising.items() if k + 1 in raising
        )
        ranks = {k: exactla.rank(a) for k, a in raising.items()}
        for k in sorted(idx_by_deg):
            h = len(idx_by_deg[k]) - ranks.get(k, 0) - ranks.get(k - 1, 0)
            if h:
                per_degree.setdefault(k, {})[nu + rho1] = h
    return KostantReport(per_degree, dd_zero, module)


def injection_check(
    cohom: dirac.CohomologyReport, kost: KostantReport
) -> tuple[bool, Weight | None]:
    """Dirac cohomology character equals the total Kostant cohomology
    character twisted by e^{-rho1}, per diagonal weight. Both reports come
    from the same block collection."""
    if not kost.dd_zero:
        return False, None
    datum = cohom.module.datum
    # every weight of both characters lies within the collection's height
    base = cohom.module.highest_weight - datum.rho1
    right = VirtualCharacter(kost.total_character_shifted_back(), base)
    return modules.characters_equal_to_height(
        datum, cohom.character(), right, base, cohom.height
    )


# ----- character formulas ----------------------------------------------------------------
def character_formula_check(
    coll: BlockCollection, which: str
) -> tuple[bool, Weight | None]:
    """Two character formulas for a module H given by its block collection,
    each of the form ch H = ch(ext n1^-) sum_mu c_mu ch F^mu.

    which="kostant": c_mu = sum over degrees k of (-1)^k [H^k : F^mu].
    which="dirac-index": c_mu = [H_D^+ : F^nu] - [H_D^- : F^nu] at mu = nu + rho1.

    A kept weight w = nu - Gamma_S (nu a weight of F^mu, S a subset of the
    odd positive roots) has ht(lam - w) = ht(lam - nu) + ht(Gamma_S), so the
    compact sum is needed only to the truncation height: it is built once
    and multiplied by the exterior character, the weights -Gamma_S.
    """
    module = coll.module
    datum = module.datum
    lam = module.highest_weight
    height = coll.height
    if which == "kostant":
        kost = kostant_cohomology(coll)
        if not kost.dd_zero:
            return False, None
        terms = [
            (mu, -m if k % 2 else m)
            for k, table in kost.per_degree.items()
            for mu, m in table.items()
        ]
    elif which == "dirac-index":
        cohom = dirac.dirac_cohomology(coll)
        terms = [
            (nu + datum.rho1, sign * m)
            for sign in (1, -1)
            for nu, m in dirac.hd_ktype_table(coll, cohom, sign).items()
        ]
    else:
        raise ValueError("which must be 'kostant' or 'dirac-index'")
    compact = modules.even_character_sum(datum, lam, terms, height, "compact-simple")
    right: dict[Weight, int] = {}
    for _, ext, _ in subset_labels(datum, datum.zero()):
        for nu, c in compact.multiplicities.items():
            w = ext + nu
            if datum.height(lam - w) <= height:
                right[w] = right.get(w, 0) + c
    return modules.characters_equal_to_height(
        datum, modules.character(module), VirtualCharacter(right, lam), lam, height
    )


# ----- Vogan consistency ---------------------------------------------------------------------
def vogan_consistency(
    datum: RootDatum, lam: Weight, hd_highest_weights: Iterable[Weight]
) -> bool:
    """Every g0-highest weight w of the Dirac cohomology satisfies
    lam - rho1 = sigma(w + rho0) - rho0 for some Weyl element sigma."""
    target = lam - datum.rho1 + datum.rho0
    group = datum.weyl_group()
    for w in hd_highest_weights:
        shifted = w + datum.rho0
        if not any(sigma.apply(shifted) == target for sigma in group):
            return False
    return True
