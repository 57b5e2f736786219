"""Diagonal-weight blocks of M (x) M(g1), with explicit matrices for the Dirac
operator D = 2 sum_k (d_k (x) x_k - x_k (x) d_k), its halves d/delta, the block
Gram form, Dirac cohomology, index, and the anti-selfadjointness and square
audits.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

from . import exactla, modules, oscillator
from .exactla import SparseRationalMatrix
from .modules import TruncatedModule
from .oscillator import OscMonomial, Oscillator
from .uea import Algebra, Gen
from .weights import RootDatum, Weight, pairing


# ----- Dirac blocks -------------------------------------------------------------------
@dataclass
class DiracBlock:
    nu: Weight
    module: TruncatedModule
    osc: Oscillator
    # basis entries: (module block weight, index into module basis, osc monomial)
    basis: list[tuple[Weight, int, OscMonomial]]
    parity: list[int]  # oscillator parity (degree mod 2)
    d_p1: SparseRationalMatrix
    delta_p1: SparseRationalMatrix
    d_q2: SparseRationalMatrix
    delta_q2: SparseRationalMatrix
    D: SparseRationalMatrix
    gram: SparseRationalMatrix
    # basis entry -> its position in basis, built once by assemble_block
    index: dict[tuple[Weight, int, OscMonomial], int] = field(repr=False, compare=False)

    @property
    def dim(self) -> int:
        return len(self.basis)

    @functools.cached_property
    def D2(self) -> SparseRationalMatrix:
        return self.D.matmul(self.D)

    def to_json(self) -> dict:
        return {
            "nu": self.nu.text(),
            "dim": self.dim,
            "dim_even": sum(1 for p in self.parity if p == 0),
            "dim_odd": sum(1 for p in self.parity if p == 1),
        }


def _exponent_solutions(
    datum: RootDatum, gammas: list[Weight], target: Weight
) -> list[OscMonomial]:
    """All exponent tuples a >= 0 with sum a_k gamma_k = target.

    The gamma_k are roots, so a target with a non-integer coordinate has no
    solution; otherwise the search runs on integer coordinate tuples."""
    coords = target.coords()
    if any(c.denominator != 1 for c in coords):
        return []
    ht = int(datum.height(target))
    if ht < 0:
        return []
    vecs = [tuple(int(c) for c in g.coords()) for g in gammas]
    heights = [int(datum.height(g)) for g in gammas]
    out: list[OscMonomial] = []

    last = len(vecs) - 1

    def rec(k: int, rem: tuple[int, ...], rem_ht: int, prefix: tuple[int, ...]) -> None:
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


def assemble_block(
    module: TruncatedModule, nu: Weight, osc: Oscillator | None = None
) -> DiracBlock:
    datum = module.datum
    osc = osc or Oscillator(module.alg)
    lam = module.highest_weight
    h = datum.height(lam - datum.rho1 - nu)
    if h < 0 or h != int(h):
        raise ValueError("diagonal weight outside the support cone")
    if h > module.height:
        raise ValueError("block outside the module truncation")
    gammas = osc.partial_roots()
    mn = datum.mn
    basis: list[tuple[Weight, int, OscMonomial]] = []
    for lam_m in module.blocks:
        dim_m = module.block_dim(lam_m)
        if dim_m == 0:
            continue
        target = lam_m - nu - datum.rho1
        for a in _exponent_solutions(datum, gammas, target):
            for i in range(dim_m):
                basis.append((lam_m, i, a))
    basis.sort(
        key=lambda e: (
            datum.root_sort_key(lam - e[0]),
            e[1],
            e[2],
        )
    )
    dim = len(basis)
    index = {e: i for i, e in enumerate(basis)}
    parity = [oscillator.monomial_parity(a) for (_, _, a) in basis]

    d_p1 = SparseRationalMatrix(dim, dim)
    delta_p1 = SparseRationalMatrix(dim, dim)
    d_q2 = SparseRationalMatrix(dim, dim)
    delta_q2 = SparseRationalMatrix(dim, dim)
    pn = datum.p * datum.n
    for col, (lam_m, i, a) in enumerate(basis):
        for k in range(mn):
            dmat = d_p1 if k < pn else d_q2
            deltamat = delta_p1 if k < pn else delta_q2
            # d_k (x) x_k: module vector raised, oscillator exponent +1
            anew = a[:k] + (a[k] + 1,) + a[k + 1 :]
            target = lam_m + gammas[k]
            for r, c in module.gen_columns(datum.odd_raising[k], lam_m)[i]:
                row = index.get((target, r, anew))
                if row is not None:
                    dmat.add_to(row, col, c)
            # x_k (x) d_k: module vector lowered, derivative on the oscillator;
            # x_k is the lowering matrix unit times its sign
            if a[k] > 0:
                anew2 = a[:k] + (a[k] - 1,) + a[k + 1 :]
                target2 = lam_m - gammas[k]
                f = a[k] * datum.odd_lowering_sign[k]
                for r, c in module.gen_columns(datum.odd_lowering[k], lam_m)[i]:
                    row = index.get((target2, r, anew2))
                    if row is not None:
                        deltamat.add_to(row, col, f * c)
    D = (
        d_p1.add(d_q2).add(delta_p1.scale(-1)).add(delta_q2.scale(-1))
    ).scale(2)

    # G = (module Gram) (x) (Bargmann-Fock form), diagonal in the monomials
    gram = SparseRationalMatrix(dim, dim)
    simple = module.kind.endswith("simple")
    for col, (lam_m, i, a) in enumerate(basis):
        bf = math.prod(math.factorial(e) for e in a)
        b = module.blocks[lam_m]
        g = b.gram_quot if (simple and b.gram_quot is not None) else b.gram
        for i2 in range(module.block_dim(lam_m)):
            v = g.get(i2, i)
            if v:
                gram.set(index[(lam_m, i2, a)], col, v * bf)
    return DiracBlock(
        nu, module, osc, basis, parity, d_p1, delta_p1, d_q2, delta_q2, D, gram, index
    )


def diagonal_weights(module: TruncatedModule, height) -> list[Weight]:
    """All diagonal weights nu with ht(L - rho1 - nu) <= height, complete in
    the module truncation."""
    datum = module.datum
    lam = module.highest_weight
    height = min(Fraction(height), module.height)
    osc = Oscillator(module.alg)
    gammas = osc.partial_roots()
    pos_all = [r.weight for r in datum.pos_even] + [r.weight for r in datum.pos_odd]
    seen: set = set()
    out: list[Weight] = []
    # nu = lam - rho1 - (combination of positive roots of total height <= height)
    # enumerate drops as sums of positive roots by DFS over the root list
    roots = sorted(pos_all, key=datum.root_sort_key)
    heights = [datum.height(r) for r in roots]

    def rec(idx: int, remaining: Fraction, drop: Weight) -> None:
        key = drop.coords()
        if key not in seen:
            seen.add(key)
            out.append(lam - datum.rho1 - drop)
        if idx == len(roots):
            return
        for i in range(idx, len(roots)):
            if heights[i] <= remaining:
                rec(i, remaining - heights[i], drop + roots[i])

    rec(0, Fraction(height), datum.zero())
    out.sort(key=lambda nu: datum.root_sort_key(lam - datum.rho1 - nu))
    return out


# ----- even (g0) structure inside blocks ---------------------------------------------
def _even_raising_generators(alg: Algebra) -> list[Gen]:
    return [g for g in alg.positive_generators() if alg.parity(g) == 0]


def diagonal_action_matrix(
    block_src: DiracBlock, block_tgt: DiracBlock, g: Gen
) -> SparseRationalMatrix:
    """Matrix of X_D = X (x) 1 + 1 (x) alpha(X) from one diagonal block to the
    block of weight nu + root(X)."""
    module = block_src.module
    out = SparseRationalMatrix(block_tgt.dim, block_src.dim)
    tgt_index = block_tgt.index
    alpha = block_src.osc.alpha_embed_gen(g)
    root = module.alg.gen_root(g)
    for col, (lam_m, i, a) in enumerate(block_src.basis):
        # X (x) 1
        target = lam_m + root
        for r, c in module.gen_columns(g, lam_m)[i]:
            row = tgt_index.get((target, r, a))
            if row is not None:
                out.add_to(row, col, c)
        # 1 (x) alpha(X)
        img = oscillator.weyl_apply(alpha, {a: Fraction(1)})
        for mono, c in img.items():
            row = tgt_index.get((lam_m, i, mono))
            if row is not None:
                out.add_to(row, col, c)
    return out


@dataclass
class BlockCollection:
    """All assembled diagonal blocks of a module up to a height bound."""

    module: TruncatedModule
    osc: Oscillator
    height: Fraction
    blocks: dict[Weight, DiracBlock]

    def sorted_weights(self) -> list[Weight]:
        datum = self.module.datum
        base = self.module.highest_weight - datum.rho1
        return sorted(self.blocks, key=lambda nu: datum.root_sort_key(base - nu))


def assemble_all(module: TruncatedModule, height) -> BlockCollection:
    osc = Oscillator(module.alg)
    height = min(Fraction(height), module.height)
    blocks = {}
    for nu in diagonal_weights(module, height):
        blocks[nu] = assemble_block(module, nu, osc)
    return BlockCollection(module, osc, height, blocks)


def assemble_by_degree(module: TruncatedModule, max_degree: int) -> BlockCollection:
    """Blocks at every diagonal weight reachable from a module weight by an
    oscillator monomial of degree <= max_degree.

    Precondition: every nonzero weight space of the module lies inside its
    truncation (e.g. the trivial module), so each assembled block is complete.
    Polynomial degree is a function of the diagonal weight (every partial-root
    gamma_k has value 1 under w |-> sum_{l<=p} w(eps_l) - sum_{l>p} w(eps_l)),
    so the assembled collection contains exactly the degrees <= max_degree
    over the module's support.
    """
    datum = module.datum
    osc = Oscillator(module.alg)
    gammas = osc.partial_roots()
    tops = [w for w in module.blocks if module.block_dim(w)]
    seen: set = set()
    nus: list[Weight] = []
    for lam_m in tops:
        for deg in range(max_degree + 1):
            for a in oscillator.monomials_of_degree(datum.mn, deg):
                nu = lam_m - datum.rho1
                for k, ak in enumerate(a):
                    if ak:
                        nu = nu - gammas[k].scale(ak)
                if nu.coords() not in seen:
                    seen.add(nu.coords())
                    nus.append(nu)
    height = max(
        (datum.height(module.highest_weight - datum.rho1 - nu) for nu in nus),
        default=Fraction(0),
    )
    lifted = replace(module, height=max(height, module.height))
    blocks = {nu: assemble_block(lifted, nu, osc) for nu in nus}
    return BlockCollection(lifted, osc, height, blocks)


def highest_vectors(
    coll: BlockCollection, nu: Weight
) -> list[tuple[Fraction, ...]]:
    """Vectors of the block killed by every even raising operator X_D."""
    block = coll.blocks[nu]
    if block.dim == 0:
        return []
    alg = coll.module.alg
    datum = coll.module.datum
    stacked: list[list[Fraction]] = []
    for g in _even_raising_generators(alg):
        target_nu = nu + alg.gen_root(g)
        tgt = coll.blocks.get(target_nu)
        if tgt is None:
            # raising decreases the height drop, so a missing target block is
            # empty; the map is zero there
            continue
        m = diagonal_action_matrix(block, tgt, g)
        rows = m.to_rows()
        stacked.extend(rows)
    if not stacked:
        return [
            tuple(Fraction(1 if i == j else 0) for i in range(block.dim))
            for j in range(block.dim)
        ]
    a = SparseRationalMatrix.from_rows(stacked)
    return exactla.kernel_basis(a)


# ----- audits --------------------------------------------------------------------------
@dataclass
class SquareAuditEntry:
    nu0: Weight  # actual g0-highest weight of the component
    mu: Weight  # shifted label nu0 + rho1
    multiplicity: int
    s: Fraction  # (mu+2rho, mu) - (L+2rho, L) in the weight pairing
    measured: Fraction  # eigenvalue of the squared matrix on the component
    matched: bool  # measured == -2 s exactly

    def to_json(self) -> dict:
        return {
            "nu0": self.nu0.text(),
            "mu": self.mu.text(),
            "multiplicity": self.multiplicity,
            "s": str(self.s),
            "measured": str(self.measured),
            "matched": self.matched,
        }


@dataclass
class SquareAuditReport:
    entries: list[SquareAuditEntry]
    semisimple_blocks_checked: int
    constant_measured: dict[str, Fraction]
    constant_candidates: dict[str, Fraction]

    @property
    def all_matched(self) -> bool:
        return all(e.matched for e in self.entries)

    def to_json(self) -> dict:
        return {
            "components": [e.to_json() for e in self.entries],
            "semisimple_blocks_checked": self.semisimple_blocks_checked,
            "constant_measured": {k: str(v) for k, v in self.constant_measured.items()},
            "constant_candidates": {
                k: str(v) for k, v in self.constant_candidates.items()
            },
            "all_matched": self.all_matched,
        }


def dirac_square_audit(coll: BlockCollection) -> SquareAuditReport:
    """Verify that the squared Dirac matrix acts on each g0-isotypic component
    (identified by its highest vectors) by one scalar, and compare it with the
    weight-pairing prediction."""
    module = coll.module
    datum = module.datum
    lam = module.highest_weight
    entries: list[SquareAuditEntry] = []
    scalars_by_nu: dict[Weight, set[Fraction]] = {}
    for nu in coll.sorted_weights():
        block = coll.blocks[nu]
        if block.dim == 0:
            continue
        hvs = highest_vectors(coll, nu)
        if not hvs:
            continue
        mu = nu + datum.rho1
        s = modules.dirac_scalar(datum, lam, mu)
        # measured scalar: D^2 must map each highest vector to a multiple of it
        measured_vals = set()
        for v in hvs:
            img = block.D2.apply(v)
            lead = next((i for i, x in enumerate(v) if x), None)
            c = img[lead] / v[lead]
            if tuple(x * c for x in v) != tuple(img):
                raise AssertionError(
                    f"D^2 is not scalar on a highest vector at nu={nu.text()}"
                )
            measured_vals.add(c)
        if len(measured_vals) != 1:
            raise AssertionError(
                f"distinct D^2 scalars on one isotypic label at nu={nu.text()}"
            )
        measured = measured_vals.pop()
        entries.append(
            SquareAuditEntry(nu, mu, len(hvs), s, measured, measured == -2 * s)
        )
        scalars_by_nu[nu] = {measured}
    # semisimplicity cross-check: on each block, the product over the predicted
    # component scalars of (D^2 - c) vanishes, where components come from this
    # block and every higher block whose lowerings can reach it
    checked = 0
    by_nu0 = {e.nu0: e.measured for e in entries}
    for nu in coll.sorted_weights():
        block = coll.blocks[nu]
        if block.dim == 0:
            continue
        cs = sorted(
            {
                m
                for nu0, m in by_nu0.items()
                if _in_even_cone(nu0 - nu)
            }
        )
        steps = [
            block.D2.add(SparseRationalMatrix.identity(block.dim).scale(-c)) for c in cs
        ]
        prod = steps[0] if steps else SparseRationalMatrix.identity(block.dim)
        for step in steps[1:]:
            prod = prod.matmul(step)
        if not prod.is_zero():
            raise AssertionError(
                f"D^2 not semisimple with predicted scalars at nu={nu.text()}"
            )
        checked += 1
    osc_const = coll.osc.measured_constant()
    cand = pairing(datum.rho1 - datum.rho0.scale(2), datum.rho1)
    return SquareAuditReport(
        entries,
        checked,
        osc_const,
        {"plus": cand, "minus": -cand},
    )


def _in_even_cone(w: Weight) -> bool:
    """Is w a nonnegative integer combination of positive even roots?

    These are eps_i - eps_j and del_k - del_l (i < j, k < l), the positive
    roots of gl(m) and gl(n), whose simple roots e_i - e_{i+1} span the same
    cone; w = sum c_i (e_i - e_{i+1}) has c_i the i-th partial sum of its
    coordinates. So w lies in the cone iff, in the eps part and in the del
    part, every partial sum is a nonnegative integer and the last is zero."""
    for part in (w.eps, w.del_):
        total = Fraction(0)
        for x in part:
            total += x
            if total < 0 or total.denominator != 1:
                return False
        if total:
            return False
    return True


# ----- cohomology -----------------------------------------------------------------------
@dataclass
class BlockCohomology:
    nu: Weight
    dim: int
    dim_even: int
    dim_odd: int
    ker: int
    ker_cap_im: int
    hd_plus: int
    hd_minus: int
    # explicit coordinates: kernel vectors per parity and the quotient map
    hd_plus_classes: list[tuple[Fraction, ...]] = field(default_factory=list)
    hd_minus_classes: list[tuple[Fraction, ...]] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "nu": self.nu.text(),
            "dim": self.dim,
            "dim_even": self.dim_even,
            "dim_odd": self.dim_odd,
            "ker": self.ker,
            "ker_cap_im": self.ker_cap_im,
            "hd_plus": self.hd_plus,
            "hd_minus": self.hd_minus,
        }


@dataclass
class CohomologyReport:
    per_block: dict[Weight, BlockCohomology]
    module: TruncatedModule
    height: Fraction

    def character(self) -> modules.VirtualCharacter:
        mult = {
            nu: bc.hd_plus + bc.hd_minus
            for nu, bc in self.per_block.items()
            if bc.hd_plus + bc.hd_minus
        }
        base = self.module.highest_weight - self.module.datum.rho1
        return modules.VirtualCharacter(mult, self.height, base)

    def signed_table(self) -> dict[Weight, int]:
        out = {}
        for nu, bc in self.per_block.items():
            v = bc.hd_plus - bc.hd_minus
            if v:
                out[nu] = v
        return out

    def plus_table(self) -> dict[Weight, int]:
        return {nu: bc.hd_plus for nu, bc in self.per_block.items() if bc.hd_plus}

    def minus_table(self) -> dict[Weight, int]:
        return {nu: bc.hd_minus for nu, bc in self.per_block.items() if bc.hd_minus}

    def hd_minus_total(self) -> int:
        return sum(bc.hd_minus for bc in self.per_block.values())

    def to_json(self) -> dict:
        datum = self.module.datum
        base = self.module.highest_weight - datum.rho1
        keys = sorted(self.per_block, key=lambda nu: datum.root_sort_key(base - nu))
        return {"blocks": [self.per_block[nu].to_json() for nu in keys]}


def _submatrix(
    a: SparseRationalMatrix, rows: list[int], cols: list[int]
) -> SparseRationalMatrix:
    row_pos = {r: i for i, r in enumerate(rows)}
    col_pos = {c: j for j, c in enumerate(cols)}
    out = SparseRationalMatrix(len(rows), len(cols))
    for (i, j), v in a.entries.items():
        if i in row_pos and j in col_pos:
            out.entries[(row_pos[i], col_pos[j])] = v
    return out


def block_cohomology(block: DiracBlock) -> BlockCohomology:
    """H_D of one block from four ranks.

    D swaps oscillator parity, so on (even, odd) coordinates D = [[0, B], [C, 0]]
    with B: odd -> even and C: even -> odd. Then ker D = ker C + ker B and
    ker D cap im D = (im B cap ker C) + (im C cap ker B), where
    dim(im B cap ker C) = rk B - rk CB and dim(im C cap ker B) = rk C - rk BC.
    """
    even = [i for i, p in enumerate(block.parity) if p == 0]
    odd = [i for i, p in enumerate(block.parity) if p == 1]
    b = _submatrix(block.D, even, odd)
    c = _submatrix(block.D, odd, even)
    rk_b, rk_c = exactla.rank(b), exactla.rank(c)
    both = rk_b and rk_c  # CB and BC vanish when B or C does
    cap_plus = rk_b - (exactla.rank(c.matmul(b)) if both else 0)
    cap_minus = rk_c - (exactla.rank(b.matmul(c)) if both else 0)
    ker_plus = len(even) - rk_c
    ker_minus = len(odd) - rk_b
    hd_plus = ker_plus - cap_plus
    hd_minus = ker_minus - cap_minus
    return BlockCohomology(
        block.nu,
        block.dim,
        len(even),
        len(odd),
        ker_plus + ker_minus,
        cap_plus + cap_minus,
        hd_plus,
        hd_minus,
        _classes(c, b, even, block.dim) if hd_plus else [],
        _classes(b, c, odd, block.dim) if hd_minus else [],
    )


def _classes(
    kill: SparseRationalMatrix, image: SparseRationalMatrix, support: list[int], dim: int
) -> list[tuple[Fraction, ...]]:
    """Class representatives for ker(kill) / (ker(kill) cap im(image)), lifted
    from the coordinates `support` to the whole block. Kernel vectors are
    independent modulo that intersection exactly when they are independent
    modulo im(image), so one echelon pass over the columns of `image` and then
    the kernel vectors picks them."""
    kernel = exactla.kernel_basis(kill)
    out = []
    for k in exactla.independent_modulo(image.transpose().to_rows(), kernel):
        vec = [Fraction(0)] * dim
        for pos, x in zip(support, kernel[k]):
            vec[pos] = x
        out.append(tuple(vec))
    return out


def dirac_cohomology(coll: BlockCollection) -> CohomologyReport:
    per_block = {}
    for nu in coll.sorted_weights():
        per_block[nu] = block_cohomology(coll.blocks[nu])
    return CohomologyReport(per_block, coll.module, coll.height)


def hd_ktype_table(
    coll: BlockCollection, report: CohomologyReport, sign: int, raising_set: str = "compact"
) -> dict[Weight, int]:
    """Highest-class multiplicities of H_D^+ (sign=+1) or H_D^- (sign=-1):
    classes killed by every compact raising operator (raising_set="compact",
    the compact-type table) or by every even raising operator
    (raising_set="even", the g0-highest weights)."""
    module = coll.module
    alg = module.alg
    datum = module.datum
    raising = _even_raising_generators(alg)
    if raising_set == "compact":
        compact_roots = {r.weight.coords() for r in datum.pos_compact}
        raising = [g for g in raising if alg.gen_root(g).coords() in compact_roots]
    elif raising_set != "even":
        raise ValueError("raising_set must be 'compact' or 'even'")
    # X_D commutes with D, so it maps kernel vectors to ker D of the target
    # block, and a kernel vector lies in ker D cap im D iff it lies in im D:
    # reducing modulo im D gives the target class. Where ker D cap im D = 0
    # the reduction is injective on ker D and is skipped.
    reducers: dict[Weight, exactla.QuotientMap | None] = {}
    table: dict[Weight, int] = {}
    for nu, bc in report.per_block.items():
        classes = bc.hd_plus_classes if sign > 0 else bc.hd_minus_classes
        if not classes:
            continue
        if not raising:
            table[nu] = len(classes)
            continue
        block = coll.blocks[nu]
        stacked: list[list[Fraction]] = []
        for g in raising:
            target_nu = nu + alg.gen_root(g)
            tgt = coll.blocks.get(target_nu)
            if tgt is None:
                continue
            if target_nu not in reducers:
                reducers[target_nu] = (
                    exactla.image_quotient(tgt.D)
                    if report.per_block[target_nu].ker_cap_im
                    else None
                )
            qm = reducers[target_nu]
            m = diagonal_action_matrix(block, tgt, g)
            imgs = []
            for v in classes:
                img = m.apply(v)
                imgs.append(qm.reduce_vector(img) if qm else img)
            tdim = len(imgs[0]) if imgs else 0
            for r in range(tdim):
                stacked.append([imgs[c][r] for c in range(len(classes))])
        if not stacked:
            table[nu] = len(classes)
            continue
        a = SparseRationalMatrix.from_rows(stacked)
        k = len(exactla.kernel_basis(a))
        if k:
            table[nu] = k
    return table


# ----- anti-selfadjointness ---------------------------------------------------------------
@dataclass
class AdjointCertificate:
    ok: bool
    witness: tuple[int, int, Fraction] | None
    halves_adjoint: bool

    def to_json(self) -> dict:
        out = {"anti_selfadjoint": self.ok, "halves_mutually_adjoint": self.halves_adjoint}
        if self.witness is not None:
            i, j, v = self.witness
            out["witness_entry"] = [i, j, str(v)]
        return out


def anti_selfadjoint_certificate(block: DiracBlock) -> AdjointCertificate:
    """D^T G + G D = 0, and <d v, w> = <v, delta w> for both halves."""
    g = block.gram
    lhs = block.D.transpose().matmul(g).add(g.matmul(block.D))
    witness = None
    ok = lhs.is_zero()
    if not ok:
        (i, j), v = sorted(lhs.entries.items())[0]
        witness = (i, j, v)
    halves = True
    for d, delta in ((block.d_p1, block.delta_p1), (block.d_q2, block.delta_q2)):
        if not d.transpose().matmul(g).add(g.matmul(delta).scale(-1)).is_zero():
            halves = False
    return AdjointCertificate(ok, witness, halves)


# ----- index --------------------------------------------------------------------------------
def dirac_index(coll: BlockCollection) -> dict[Weight, int]:
    """Per diagonal weight: even-parity dimension minus odd-parity dimension."""
    out: dict[Weight, int] = {}
    for nu in coll.sorted_weights():
        block = coll.blocks[nu]
        v = sum(1 for p in block.parity if p == 0) - sum(
            1 for p in block.parity if p == 1
        )
        if v:
            out[nu] = v
    return out


# ----- inequality audit ------------------------------------------------------------------------
@dataclass
class InequalityEntry:
    mu: Weight
    s: Fraction
    measured: Fraction
    violation_pairing: bool  # s > 0 (the weight-pairing convention)
    violation_measured: bool  # measured > 0 (positive squared norm direction)

    def to_json(self) -> dict:
        return {
            "mu": self.mu.text(),
            "s": str(self.s),
            "measured": str(self.measured),
            "violation_pairing": self.violation_pairing,
            "violation_measured": self.violation_measured,
        }


def dirac_inequality_audit(coll: BlockCollection) -> list[InequalityEntry]:
    report = dirac_square_audit(coll)
    out = []
    for e in report.entries:
        out.append(
            InequalityEntry(
                e.mu,
                e.s,
                e.measured,
                e.s > 0,
                e.measured > 0,
            )
        )
    return out


# ----- invariant helpers for tests -----------------------------------------------------------
def parity_reversal_holds(block: DiracBlock) -> bool:
    for (i, j), v in block.D.entries.items():
        if block.parity[i] == block.parity[j]:
            return False
    return True


def g0_invariance_holds(coll: BlockCollection, nu: Weight) -> bool:
    """[D, X_D] = 0 as maps out of the block at nu, for every even generator
    whose target block is assembled."""
    module = coll.module
    alg = module.alg
    block = coll.blocks[nu]
    for g in alg.even_generators():
        target_nu = nu + alg.gen_root(g)
        tgt = coll.blocks.get(target_nu)
        if tgt is None:
            continue
        x = diagonal_action_matrix(block, tgt, g)
        lhs = tgt.D.matmul(x)
        rhs = x.matmul(block.D)
        if not lhs.add(rhs.scale(-1)).is_zero():
            return False
    return True
