"""Diagonal-weight blocks of M (x) M(g1), with explicit matrices for the Dirac
operator D = 2 sum_k (d_k (x) x_k - x_k (x) d_k), its halves d/delta, the block
Gram form, Dirac cohomology, index, and the anti-selfadjointness and square
audits.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Iterable, Sequence

from . import exactla, modules, oscillator, uea
from .exactla import SparseRationalMatrix
from .modules import TruncatedModule, act_elem
from .oscillator import OscMonomial, Oscillator
from .uea import Algebra, Gen, UEAElement
from .weights import RootDatum, Weight, pairing


# ----- module-side generator matrices -----------------------------------------------
def _module_basis_lifts(module: TruncatedModule, w: Weight):
    b = module.blocks[w]
    if module.kind.endswith("simple") and b.qmap is not None:
        return [b.monomials[i] for i in b.qmap.kept]
    return list(b.monomials)


def _module_gen_matrix(
    module: TruncatedModule, elem: UEAElement, source: Weight, target: Weight
) -> SparseRationalMatrix:
    """Matrix of a weight-homogeneous element of g from block(source) to
    block(target), in the module's stored (quotient) coordinates."""
    alg = module.alg
    lam = module.highest_weight
    sdim = module.block_dim(source)
    tdim = module.block_dim(target) if target in module.blocks else 0
    out = SparseRationalMatrix(tdim, sdim)
    if sdim == 0 or tdim == 0:
        return out
    tb = module.blocks[target]
    index = {m: i for i, m in enumerate(tb.monomials)}
    for j, mono in enumerate(_module_basis_lifts(module, source)):
        img = act_elem(alg, lam, elem, {mono: Fraction(1)})
        vec = [Fraction(0)] * len(tb.monomials)
        for m, c in img.items():
            vec[index[m]] += c
        red = module.reduce(target, vec)
        for i, c in enumerate(red):
            if c:
                out.set(i, j, c)
    return out


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
    D2: SparseRationalMatrix
    gram: SparseRationalMatrix

    @property
    def dim(self) -> int:
        return len(self.basis)

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
    """All exponent tuples a >= 0 with sum a_k gamma_k = target."""
    ht = datum.height(target)
    if ht < 0 or ht != int(ht):
        return []
    heights = [int(datum.height(g)) for g in gammas]
    out: list[OscMonomial] = []

    def rec(k: int, rem: Weight, rem_ht: int, prefix: tuple[int, ...]) -> None:
        if k == len(gammas):
            if rem.is_zero():
                out.append(prefix)
            return
        top = rem_ht // heights[k]
        acc = rem
        for ak in range(top + 1):
            rec(k + 1, acc, rem_ht - ak * heights[k], prefix + (ak,))
            acc = acc - gammas[k]

    rec(0, target, int(ht), ())
    return out


def assemble_block(
    module: TruncatedModule, nu: Weight, osc: Oscillator | None = None
) -> DiracBlock:
    datum = module.datum
    alg = module.alg
    osc = osc or Oscillator(alg)
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

    # per-weight generator matrices for d_k (raising) and x_k (lowering)
    gen_mats: dict[tuple[int, str, Weight], SparseRationalMatrix] = {}

    def gen_matrix(k: int, which: str, source: Weight) -> SparseRationalMatrix:
        key = (k, which, source)
        m = gen_mats.get(key)
        if m is None:
            elem = alg.partial_k(k) if which == "d" else alg.x_k(k)
            target = source + (gammas[k] if which == "d" else -gammas[k])
            m = _module_gen_matrix(module, elem, source, target)
            gen_mats[key] = m
        return m

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
            anew = tuple(a[j] + (1 if j == k else 0) for j in range(mn))
            m = gen_matrix(k, "d", lam_m)
            target = lam_m + gammas[k]
            for r in range(m.rows):
                c = m.get(r, i)
                if c:
                    row = index.get((target, r, anew))
                    if row is not None:
                        dmat.add_to(row, col, c)
            # x_k (x) d_k: module vector lowered, derivative on the oscillator
            if a[k] > 0:
                anew2 = tuple(a[j] - (1 if j == k else 0) for j in range(mn))
                m2 = gen_matrix(k, "x", lam_m)
                target2 = lam_m - gammas[k]
                for r in range(m2.rows):
                    c = m2.get(r, i)
                    if c:
                        row = index.get((target2, r, anew2))
                        if row is not None:
                            deltamat.add_to(row, col, Fraction(a[k]) * c)
    D = (
        d_p1.add(d_q2).add(delta_p1.scale(-1)).add(delta_q2.scale(-1))
    ).scale(2)
    D2 = D.matmul(D)

    gram = SparseRationalMatrix(dim, dim)
    for col, (lam_m, i, a) in enumerate(basis):
        bf = Fraction(1)
        for e in a:
            bf *= math.factorial(e)
        b = module.blocks[lam_m]
        g = b.gram_quot if (module.kind.endswith("simple") and b.gram_quot is not None) else b.gram
        for row, (lam_m2, i2, a2) in enumerate(basis):
            if lam_m2 != lam_m or a2 != a:
                continue
            v = g.get(i2, i)
            if v:
                gram.set(row, col, v * bf)
    return DiracBlock(
        nu, module, osc, basis, parity, d_p1, delta_p1, d_q2, delta_q2, D, D2, gram
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
    alg = module.alg
    osc = block_src.osc
    out = SparseRationalMatrix(block_tgt.dim, block_src.dim)
    tgt_index = {e: i for i, e in enumerate(block_tgt.basis)}
    alpha = osc.alpha_embed_gen(g)
    root = alg.gen_root(g)
    mat_cache: dict[Weight, SparseRationalMatrix] = {}
    for col, (lam_m, i, a) in enumerate(block_src.basis):
        # X (x) 1
        m = mat_cache.get(lam_m)
        if m is None:
            m = _module_gen_matrix(
                module, {(g,): Fraction(1)}, lam_m, lam_m + root
            )
            mat_cache[lam_m] = m
        for r in range(m.rows):
            c = m.get(r, i)
            if c:
                row = tgt_index.get((lam_m + root, r, a))
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
                if _in_even_cone(datum, nu0 - nu)
            }
        )
        prod = SparseRationalMatrix.identity(block.dim)
        for c in cs:
            step = block.D2.add(SparseRationalMatrix.identity(block.dim).scale(-c))
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


def _in_even_cone(datum: RootDatum, w: Weight) -> bool:
    """Is w a nonnegative integer combination of positive even roots?"""
    if w.is_zero():
        return True
    pos = [r.weight for r in datum.pos_even]
    target_h = datum.height(w)
    if target_h < 0 or target_h != int(target_h):
        return False

    def rec(idx: int, rem: Weight) -> bool:
        if rem.is_zero():
            return True
        h = datum.height(rem)
        if h < 0 or idx == len(pos):
            return False
        for i in range(idx, len(pos)):
            if rec(i, rem - pos[i]):
                return True
        return False

    return rec(0, w)


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


def _intersect(
    space_a: list[tuple[Fraction, ...]], space_b: list[tuple[Fraction, ...]], dim: int
) -> list[tuple[Fraction, ...]]:
    """Basis of span(a) intersect span(b)."""
    if not space_a or not space_b:
        return []
    cols = [list(v) for v in space_a] + [list(v) for v in space_b]
    a = SparseRationalMatrix(dim, len(cols))
    for j, col in enumerate(cols):
        for i, x in enumerate(col):
            if x:
                a.set(i, j, x)
    out = []
    for kv in exactla.kernel_basis(a):
        vec = [Fraction(0)] * dim
        for j in range(len(space_a)):
            if kv[j]:
                for i in range(dim):
                    vec[i] += kv[j] * space_a[j][i]
        if any(vec):
            out.append(tuple(vec))
    # reduce to an independent set
    rows, pivots = exactla._rref([list(v) for v in out]) if out else ([], [])
    return [tuple(rows[i]) for i in range(len(pivots))]


def block_cohomology(block: DiracBlock) -> BlockCohomology:
    dim = block.dim
    even_idx = [i for i, p in enumerate(block.parity) if p == 0]
    odd_idx = [i for i, p in enumerate(block.parity) if p == 1]
    ker = exactla.kernel_basis(block.D)
    # kernel splits by oscillator parity since D swaps it
    ker_even, ker_odd = [], []
    for v in ker:
        ve = tuple(v[i] if block.parity[i] == 0 else Fraction(0) for i in range(dim))
        vo = tuple(v[i] if block.parity[i] == 1 else Fraction(0) for i in range(dim))
        if any(ve):
            ker_even.append(ve)
        if any(vo):
            ker_odd.append(vo)
    ker_even = _independent(ker_even)
    ker_odd = _independent(ker_odd)
    # image of D
    cols = [
        tuple(block.D.get(i, j) for i in range(dim)) for j in range(dim)
    ]
    _, im_basis = exactla.column_space_coords([c for c in cols if any(c)])
    ker_all = ker_even + ker_odd
    cap = _intersect(ker_all, im_basis, dim)
    cap_even = [v for v in cap if all(v[i] == 0 for i in odd_idx)]
    cap_odd = [v for v in cap if all(v[i] == 0 for i in even_idx)]
    # the intersection is parity graded too; split defensively
    graded = _independent(cap_even) + _independent(cap_odd)
    if len(graded) != len(cap):
        # regrade by projecting
        cap_even, cap_odd = [], []
        for v in cap:
            ve = tuple(v[i] if block.parity[i] == 0 else Fraction(0) for i in range(dim))
            vo = tuple(v[i] if block.parity[i] == 1 else Fraction(0) for i in range(dim))
            if any(ve):
                cap_even.append(ve)
            if any(vo):
                cap_odd.append(vo)
        cap_even = _independent(cap_even)
        cap_odd = _independent(cap_odd)
    hd_plus = len(ker_even) - len(cap_even)
    hd_minus = len(ker_odd) - len(cap_odd)
    # explicit class representatives: kernel vectors independent mod cap
    plus_classes = _classes_mod(ker_even, cap_even, dim)
    minus_classes = _classes_mod(ker_odd, cap_odd, dim)
    return BlockCohomology(
        block.nu,
        dim,
        len(even_idx),
        len(odd_idx),
        len(ker_even) + len(ker_odd),
        len(cap_even) + len(cap_odd),
        hd_plus,
        hd_minus,
        plus_classes,
        minus_classes,
    )


def _independent(vectors: list[tuple[Fraction, ...]]) -> list[tuple[Fraction, ...]]:
    if not vectors:
        return []
    rows, pivots = exactla._rref([list(v) for v in vectors])
    return [tuple(rows[i]) for i in range(len(pivots))]


def _classes_mod(
    kernel: list[tuple[Fraction, ...]],
    cap: list[tuple[Fraction, ...]],
    dim: int,
) -> list[tuple[Fraction, ...]]:
    """Kernel vectors extending a basis of cap to a basis of the kernel."""
    chosen: list[tuple[Fraction, ...]] = []
    rows = [list(v) for v in cap]
    cur_rank = len(exactla._rref(rows)[1]) if rows else 0
    for v in kernel:
        trial = rows + [list(v)]
        r = len(exactla._rref(trial)[1])
        if r > cur_rank:
            chosen.append(v)
            rows = trial
            cur_rank = r
    return chosen


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
            m = diagonal_action_matrix(block, tgt, g)
            # image in the target H_D quotient: reduce mod (cap + complement of ker)?
            # X_D preserves ker D, so images lie in ker(target); reduce mod cap.
            cap_basis = _cap_basis(report, target_nu, tgt)
            qm = exactla.quotient_map(cap_basis, tgt.dim) if cap_basis else None
            imgs = []
            for v in classes:
                img = m.apply(v)
                red = qm.reduce_vector(img) if qm else img
                imgs.append(red)
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


def _cap_basis(
    report: CohomologyReport, nu: Weight, block: DiracBlock
) -> list[tuple[Fraction, ...]]:
    """Basis of ker D intersect Im D at a block (recomputed on demand)."""
    bc = report.per_block[nu]
    if bc.ker_cap_im == 0:
        return []
    dim = block.dim
    ker = exactla.kernel_basis(block.D)
    cols = [tuple(block.D.get(i, j) for i in range(dim)) for j in range(dim)]
    _, im_basis = exactla.column_space_coords([c for c in cols if any(c)])
    return _intersect(ker, im_basis, dim)


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
