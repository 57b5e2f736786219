"""Diagonal-weight blocks of M (x) M(g1), with an explicit matrix for the
Dirac operator D = 2 sum_k (d_k (x) x_k - x_k (x) d_k) = 2(d + d'), Dirac
cohomology, index, the g0-constituents (`g0_constituents`: highest weight,
multiplicity and D^2 scalar, where the Dirac inequality is read), and the
anti-selfadjointness and square audits. Each block stores D alone: every
entry of D changes the cohomological degree of the oscillator monomial by
one, and the Kostant differential d is the degree-raising half of D/2 (d'
is minus its G-adjoint), so D's block C^{k+1} <- C^k between the degrees
of `DiracBlock.degrees` is 2d on C^k; no matrix of d is formed. The block
Gram form G is never formed: G D is accumulated from the module forms
where it is read (`_gram_D`), and dropped.

Dirac cohomology is counted by ranks: H_D = ker D / (ker D cap im D) per
block, and its compact k-types are h minus the rank of the compact X_D on a
basis of ker D, read modulo im D of each target (`hd_ktype_table`); no
class vector is formed.
Over a g-module, it takes ranks only on the blocks below a block whose D^2
scalar is 0: on every other block D is invertible, read off the weights
(`dirac_cohomology`). Each block decides once whether its Gram form G is
positive definite and D^T G + G D = 0
(`DiracBlock.definite_anti_selfadjoint`). Where it holds, ker D cap im D = 0
and D^2 is diagonalizable (Huang-Pandzic), so `block_cohomology` forms no
parity half of D^2 and `dirac_square_audit` forms no D^2 and no product of
the (D^2 - c); every other block forms and reads them. Both shortcuts and
the k-type count rest on X_D D = D X_D, which `raising_maps` asserts on
every map it builds.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field, replace
from fractions import Fraction

from . import exactla, modules, oscillator
from .exactla import SparseRationalMatrix
from .modules import TruncatedModule
from .oscillator import OscMonomial, Oscillator
from .uea import Gen, add_into
from .weights import Drop, Weight, bounded_exponents, pairing


# ----- Dirac blocks -------------------------------------------------------------------
# (drop L - lam_m of the module block, index into its basis, osc monomial)
BasisEntry = tuple[Drop, int, OscMonomial]


@dataclass
class DiracBlock:
    """One diagonal block nu of M (x) M(g1) on its basis of (module vector,
    oscillator monomial) pairs. D is its one stored matrix, and the one
    cached value is `definite_anti_selfadjoint`. D's block C^{k+1} <- C^k
    between the `degrees` is twice the Kostant differential d on C^k, read
    there (`analysis.kostant_cohomology`), and the Gram form G is never
    formed (`_gram_D`)."""

    nu: Weight
    drop: Drop  # (L - rho1) - nu
    module: TruncatedModule
    osc: Oscillator
    basis: list[BasisEntry]
    parity: list[int]  # oscillator parity (degree mod 2)
    D: SparseRationalMatrix
    # basis entry -> its position in basis, built once by assemble_block
    index: dict[BasisEntry, int] = field(repr=False, compare=False)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def degrees(self) -> list[int]:
        """`oscillator.cohomological_degree` of each basis monomial, in order."""
        datum = self.module.datum
        return [oscillator.cohomological_degree(datum, a) for _, _, a in self.basis]

    @functools.cached_property
    def definite_anti_selfadjoint(self) -> bool:
        """G is positive definite and D^T G + G D = 0, decided once per block.

        G is the module form times a! on each (module block, x^a), so it is
        positive definite iff the form of every module block in the basis
        is; each module block caches its certificate. Only then is G D
        accumulated (`_gram_D`), and not kept: G is symmetric, so the
        identity says that G D is antisymmetric.
        Then G D^2 = -D^T G D, so D^2 is G-selfadjoint, hence diagonalizable
        over the reals, and ker D cap im D = 0: for v = D w with D v = 0,
        <v, v> = <D w, v> = -<w, D v> = 0, so v = 0 (Huang-Pandzic, JAMS 15,
        2002). `block_cohomology` and `dirac_square_audit` read these facts
        instead of computing them where this holds."""
        drops = {e[0] for e in self.basis}
        if any(self.module.by_drop[d].definiteness.verdict != "positive-definite" for d in drops):
            return False
        g_D = _gram_D(self)
        return not any(v + g_D.get((j, i), 0) for (i, j), v in g_D.items())

    def to_json(self) -> dict:
        return {
            "nu": self.nu.text(),
            "dim": self.dim,
            "dim_even": sum(1 for p in self.parity if p == 0),
            "dim_odd": sum(1 for p in self.parity if p == 1),
        }


def _gram_D(block: DiracBlock) -> dict[tuple[int, int], exactla.Rational]:
    """The entries of G D (zeros included), G the block Gram form, in one
    accumulation over the entries of D; G is not formed. G is the form of
    each module block times a! on each (module block, x^a), so column k of
    G, for k = (drop_m, r, a), is column r of that form times a! at the rows
    (drop_m, ., a); those columns are listed once per call and dropped."""
    index, by_drop = block.index, block.module.by_drop
    forms: dict[tuple[Drop, int], list] = {}  # (module drop, column) -> (row, entry)
    for drop_m in {e[0] for e in block.basis}:
        for (i, c), x in by_drop[drop_m].form.entries.items():
            forms.setdefault((drop_m, c), []).append((i, x))
    g_cols = [
        [(index[drop_m, i, a], exactla._rat(x * bf)) for i, x in forms.get((drop_m, r), ())]
        for drop_m, r, a in block.basis
        for bf in (math.prod(map(math.factorial, a)),)
    ]
    acc: dict[tuple[int, int], exactla.Rational] = {}
    for (k, j), v in block.D.entries.items():
        for i, g in g_cols[k]:
            acc[i, j] = acc.get((i, j), 0) + g * v
    return acc


def _block_bases(
    module: TruncatedModule, osc: Oscillator, height
) -> dict[Drop, list[BasisEntry]]:
    """The basis of every diagonal block nu with ht(L - rho1 - nu) <= height,
    keyed by the block's drop (L - rho1) - nu, a tuple of ints.

    One pass over the pairs (module block of drop L - lam_m, monomial x^a)
    with ht(L - lam_m) + ht(sum a_k gamma_k) <= height files the entries
    (drop of lam_m, i, a) under the drop (L - lam_m) + sum a_k gamma_k of
    nu = lam_m + wt(x^a), all in integer coordinates with the integer height
    functional. A module weight whose block has dimension 0 still names its
    nu, so empty blocks are listed. Blocks come in `drop_key` order of their
    drop, entries by (`drop_key` of the module drop, i, a)."""
    datum = module.datum
    height = math.floor(height)  # every height below is an int
    gammas = [g.coords() for g in osc.partial_roots()]  # roots: int coordinates
    heights = [datum.drop_key(g)[0] for g in gammas]
    # every x^a with ht(sum a_k gamma_k) <= height, in lexicographic order of a:
    # (that height, a, sum a_k gamma_k)
    monos = []
    for a in bounded_exponents(heights, height, [None] * len(heights)):
        w = tuple(sum(map(operator.mul, a, coord)) for coord in zip(*gammas))
        monos.append((sum(map(operator.mul, a, heights)), a, w))
    bases: dict[Drop, list[BasisEntry]] = {}
    # module drops in `drop_key` order (each key formed once), and each one's
    # monomials grouped by block in order of a, fill every basis in order
    for key, drop_m in sorted((datum.drop_key(d), d) for d in module.by_drop):
        room = height - key[0]
        by_block: dict[Drop, list[tuple[int, ...]]] = {}
        for h, a, w in monos:
            if h <= room:
                by_block.setdefault(tuple(map(operator.add, drop_m, w)), []).append(a)
        dim = module.by_drop[drop_m].dim
        for drop, exps in by_block.items():
            bases.setdefault(drop, []).extend((drop_m, i, a) for i in range(dim) for a in exps)
    return {drop: bases[drop] for drop in sorted(bases, key=datum.drop_key)}


def assemble_block(
    module: TruncatedModule, base: Weight, drop: Drop, osc: Oscillator, basis: list[BasisEntry]
) -> DiracBlock:
    """The Dirac operator D = 2 sum_k (d_k (x) x_k - x_k (x) d_k) on the block
    of drop `drop`, of weight nu = base - drop for base = L - rho1 (formed once
    per collection), on the basis `_block_bases` lists, filled in one pass over
    the columns. A term moves the oscillator monomial of its column to a + e_k
    or a - e_k, and the (row, entry) pairs of one generator column have
    distinct rows, so every entry of D receives exactly one term."""
    datum = module.datum
    gen_drop = module.alg.gen_drop
    dim = len(basis)
    index = {e: i for i, e in enumerate(basis)}
    parity = [oscillator.monomial_parity(a) for (_, _, a) in basis]
    # per odd direction k: d_k and its drop, the lowering matrix unit and its
    # drop, and -2 times the sign of x_k (that unit times its sign)
    odd = [
        (k, up, gen_drop(up), down, gen_drop(down), -2 * sign)
        for k, (up, down, sign) in enumerate(
            zip(datum.odd_raising, datum.odd_lowering, datum.odd_lowering_sign)
        )
    ]

    entries = {}
    for col, (drop_m, i, a) in enumerate(basis):
        for k, up, up_drop, down, down_drop, sign in odd:
            # d_k (x) x_k: module vector raised, oscillator exponent +1
            target = tuple(map(operator.add, drop_m, up_drop))
            anew = a[:k] + (a[k] + 1,) + a[k + 1 :]
            for r, c in module.gen_columns(up, drop_m)[i]:
                row = index.get((target, r, anew))
                if row is not None:
                    entries[row, col] = exactla._rat(2 * c)
            # x_k (x) d_k: module vector lowered, derivative on the oscillator
            if a[k] > 0:
                target = tuple(map(operator.add, drop_m, down_drop))
                anew = a[:k] + (a[k] - 1,) + a[k + 1 :]
                f = a[k] * sign
                for r, c in module.gen_columns(down, drop_m)[i]:
                    row = index.get((target, r, anew))
                    if row is not None:
                        entries[row, col] = exactla._rat(f * c)
    D = SparseRationalMatrix(dim, dim, entries)
    return DiracBlock(base.lower(drop), drop, module, osc, basis, parity, D, index)


# ----- even (g0) structure inside blocks ---------------------------------------------
def diagonal_action_matrix(
    block_src: DiracBlock, block_tgt: DiracBlock, g: Gen
) -> SparseRationalMatrix:
    """Matrix of X_D = X (x) 1 + 1 (x) alpha(X) from one diagonal block to the
    block of weight nu + root(X)."""
    module = block_src.module
    osc = block_src.osc
    entries = {}
    tgt_index = block_tgt.index
    gdrop = module.alg.gen_drop(g)
    for col, (drop_m, i, a) in enumerate(block_src.basis):
        # X (x) 1
        target = tuple(map(operator.add, drop_m, gdrop))
        for r, c in module.gen_columns(g, drop_m)[i]:
            row = tgt_index.get((target, r, a))
            if row is not None:
                add_into(entries, (row, col), c)
        # 1 (x) alpha(X)
        for mono, c in osc.alpha_image(g, a).items():
            row = tgt_index.get((drop_m, i, mono))
            if row is not None:
                add_into(entries, (row, col), c)
    entries = {key: exactla._rat(v) for key, v in entries.items()}
    return SparseRationalMatrix(block_tgt.dim, block_src.dim, entries)


@dataclass
class BlockCollection:
    """All assembled diagonal blocks of a module up to a height bound."""

    module: TruncatedModule
    osc: Oscillator
    height: Fraction
    blocks: dict[Weight, DiracBlock]
    by_drop: dict[Drop, DiracBlock]  # the same blocks, keyed by their drops

    def sorted_weights(self) -> list[Weight]:
        """The block weights in the order of the drop; the assemblies store
        them so."""
        return list(self.blocks)


def assemble_all(module: TruncatedModule, height) -> BlockCollection:
    osc = Oscillator(module.alg)
    height = min(Fraction(height), module.height)
    base = module.highest_weight - module.datum.rho1
    blocks = [
        assemble_block(module, base, drop, osc, basis)
        for drop, basis in _block_bases(module, osc, height).items()
    ]
    return BlockCollection(
        module, osc, height, {b.nu: b for b in blocks}, {b.drop: b for b in blocks}
    )


def assemble_by_degree(module: TruncatedModule, max_degree: int) -> BlockCollection:
    """Blocks at every diagonal weight reachable from a module weight by an
    oscillator monomial of degree <= max_degree.

    Precondition: every nonzero weight space of the module lies inside its
    truncation (e.g. the trivial module), so each assembled block is complete.
    Such a block has drop height at most H = max ht(L - lam_m) over the nonzero
    module blocks plus max_degree times the largest ht(gamma_k), so the blocks
    to height H hold each of them with its whole basis.
    Polynomial degree is a function of the diagonal weight (every partial-root
    gamma_k has value 1 under w |-> sum_{l<=p} w(eps_l) - sum_{l>p} w(eps_l)),
    so the assembled collection contains exactly the degrees <= max_degree
    over the module's support.
    """
    datum = module.datum
    osc = Oscillator(module.alg)
    lam = module.highest_weight
    height = max(
        (datum.height(lam - w) for w in module.blocks if module.block_dim(w)), default=0
    ) + max_degree * max(datum.height(g) for g in osc.partial_roots())
    lifted = replace(module, height=max(height, module.height))
    base = lam - datum.rho1
    blocks = [
        assemble_block(lifted, base, drop, osc, basis)
        for drop, basis in _block_bases(module, osc, height).items()
        if any(sum(a) <= max_degree for _, _, a in basis)
    ]
    return BlockCollection(
        lifted, osc, height, {b.nu: b for b in blocks}, {b.drop: b for b in blocks}
    )


def raising_maps(
    coll: BlockCollection, block: DiracBlock, restriction: str
) -> list[tuple[DiracBlock, SparseRationalMatrix]]:
    """(target block, X_D from the block to it) for each raising generator of
    `restriction` ("even" or "compact", as `modules.generators` selects
    them) whose target block exists. D is g0-equivariant, so this raises
    unless X_D D = D X_D on every map it builds, checked by one accumulation
    of D X_D - X_D D (`exactla.intertwines`; neither product is formed): the
    square audit, the k-type tables and the rank-free blocks of
    `dirac_cohomology` rest on it."""
    alg = coll.module.alg
    maps = []
    for g in modules.generators(alg, +1, restriction):
        tgt = coll.by_drop.get(tuple(map(operator.add, block.drop, alg.gen_drop(g))))
        # raising decreases the height drop, so a missing target block is
        # empty; the map is zero there
        if tgt is not None:
            x = diagonal_action_matrix(block, tgt, g)
            if not exactla.intertwines(x, block.D, tgt.D):
                raise AssertionError(f"X_D does not commute with D at nu={block.nu.text()}")
            maps.append((tgt, x))
    return maps


# ----- audits --------------------------------------------------------------------------
@dataclass
class SquareAuditEntry:
    nu0: Weight  # actual g0-highest weight of the component
    mu: Weight  # shifted label nu0 + rho1
    multiplicity: int
    s: exactla.Rational  # (mu+2rho, mu) - (L+2rho, L) in the weight pairing
    measured: exactla.Rational  # eigenvalue of the squared matrix on the component
    matched: bool  # measured == -2 s exactly
    drop: Drop = field(compare=False, repr=False)  # the block's (L - rho1) - nu0

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
    constant_measured: dict[str, exactla.Rational]
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


def g0_constituents(coll: BlockCollection) -> list[SquareAuditEntry]:
    """The g0-constituents of the collection, one entry per block with
    highest vectors.

    Each (block, even raising generator) map X_D is built once, and
    `raising_maps` raises unless X_D D = D X_D. The kernel of the
    block's maps, read off their rows with no stacked matrix formed, is its
    highest vectors, kept sparse (`exactla.sparse_kernel`), and D^2 must
    act on them by one scalar, read as D(D v): D is applied
    column by column over the support of v, from its columns indexed once
    per block. D^2 v = c v is checked on ints by cross multiplication
    against the lead entry of v on every coordinate of its support, and
    D^2 v must vanish off it. The Dirac inequality is `e.s >= 0` on an entry
    (strict: `e.s > 0`); on certified inputs it holds at every constituent.
    Nothing here needs D^2 semisimple, so refuted inputs give their
    constituents too."""
    datum = coll.module.datum
    t = (coll.module.highest_weight + datum.rho).scale(2).coords()
    entries: list[SquareAuditEntry] = []
    for nu, block in coll.blocks.items():
        if block.dim == 0:
            continue
        maps = raising_maps(coll, block, "even")
        hvs = exactla.sparse_kernel((r for _, x in maps for r in x.nonzero_rows()), block.dim)
        if not hvs:
            continue
        mu = nu + datum.rho1  # = L - drop
        s = modules.dirac_scalar(datum, t, block.drop)
        by_col: dict[int, list] = {}  # D's columns: column -> (row, entry) pairs
        for (i, j), a in block.D.entries.items():
            by_col.setdefault(j, []).append((i, a))
        measured_vals = set()
        for v in hvs:
            img = _times(by_col, _times(by_col, v))
            lead = min(v)
            x, y = img.get(lead, 0), v[lead]
            # D^2 v = (x / y) v, on ints: cross multiplied on supp(v), 0 off it
            if any(img.get(j, 0) * y != x * vj for j, vj in v.items()) or any(
                c for i, c in img.items() if i not in v
            ):
                raise AssertionError(
                    f"D^2 is not scalar on a highest vector at nu={nu.text()}"
                )
            measured_vals.add(exactla._ratio(x, y))
        if len(measured_vals) != 1:
            raise AssertionError(
                f"distinct D^2 scalars on one isotypic label at nu={nu.text()}"
            )
        measured = measured_vals.pop()
        entries.append(
            SquareAuditEntry(nu, mu, len(hvs), s, measured, measured == -2 * s, block.drop)
        )
    return entries


def _times(by_col: dict[int, list[tuple[int, exactla.Rational]]], v: dict) -> dict:
    """A v for a sparse vector v (index -> entry), A given by its columns
    (column -> its (row, entry) pairs); the result may hold zeros."""
    out: dict = {}
    for j, x in v.items():
        if x:
            for i, a in by_col.get(j, ()):
                out[i] = out.get(i, 0) + a * x
    return out


def dirac_square_audit(coll: BlockCollection) -> SquareAuditReport:
    """Verify that the squared Dirac matrix acts on each g0-isotypic component
    (the `g0_constituents`) by one scalar, and compare it with the
    weight-pairing prediction; then check that D^2 is semisimple on every
    block with the predicted scalars as its only eigenvalues.

    The predicted scalars `cs` of a block are the measured ones of every
    constituent above it in the even cone (itself included). Semisimplicity
    means that the product of (D^2 - c) over `cs` vanishes; D^2 = D D and this
    product are formed only where `DiracBlock.definite_anti_selfadjoint` fails.
    Elsewhere it vanishes for this reason: D^2 is diagonalizable on the block
    (G-selfadjoint for a definite G), and every eigenvalue lies in `cs`. Take
    an eigenvector v of D^2 with eigenvalue c. Each X_D commutes with D
    (`raising_maps` asserts it), hence with D^2, so X_D v is zero or an
    eigenvector for c in a block one even positive root higher. Raising v while
    some X_D does not kill it ends, since the height drop falls, at a nonzero
    vector every X_D kills: a highest vector for c, in a block above in the
    even cone, where D^2 acts by that block's measured scalar. So c is in `cs`."""
    datum = coll.module.datum
    entries = g0_constituents(coll)
    # (`_cone_sums` of the constituent's drop, measured scalar)
    by_nu0 = [(_cone_sums(e.drop, datum.m), e.measured) for e in entries]
    # semisimplicity: on each block, the product over the predicted component
    # scalars of (D^2 - c) vanishes, where components come from this block and
    # every higher block whose lowerings can reach it
    checked = 0
    for nu, block in coll.blocks.items():
        if block.dim == 0:
            continue
        checked += 1
        if block.definite_anti_selfadjoint:
            continue  # the product vanishes (see the docstring)
        below = _cone_sums(block.drop, datum.m)
        cs = sorted({c for s0, c in by_nu0 if _in_even_cone(s0, below)})
        n = block.dim
        d2 = block.D.matmul(block.D)
        steps = [d2.add(SparseRationalMatrix(n, n, {(i, i): -c for i in range(n)})) for c in cs]
        prod = steps[0] if steps else SparseRationalMatrix(n, n, {(i, i): 1 for i in range(n)})
        for step in steps[1:]:
            prod = prod.matmul(step)
        if not prod.is_zero():
            raise AssertionError(
                f"D^2 not semisimple with predicted scalars at nu={nu.text()}"
            )
    osc_const = coll.osc.measured_constant()
    cand = pairing(datum.rho1 - datum.rho0.scale(2), datum.rho1)
    return SquareAuditReport(
        entries,
        checked,
        osc_const,
        {"plus": cand, "minus": -cand},
    )


ConeSums = tuple[tuple[int, ...], tuple[int, int]]


def _cone_sums(drop: Drop, m: int) -> ConeSums:
    """The eps- and del-partial sums of an integer drop (m eps coordinates,
    then del), for `_in_even_cone`: (every partial sum, the two last sums)."""
    eps = tuple(itertools.accumulate(drop[:m]))
    del_ = tuple(itertools.accumulate(drop[m:]))
    return eps + del_, (eps[-1], del_[-1])


def _in_even_cone(w: ConeSums, below: ConeSums) -> bool:
    """Is the weight of drop w minus the weight of drop `below` (drops from
    one base) a nonnegative integer combination of positive even roots? Both
    drops are given by their `_cone_sums`.

    These are eps_i - eps_j and del_k - del_l (i < j, k < l), the positive
    roots of gl(m) and gl(n), whose simple roots e_i - e_{i+1} span the same
    cone; x = sum c_i (e_i - e_{i+1}) has c_i the i-th partial sum of its
    coordinates. The difference of the two weights is drop(below) - drop(w),
    an integer vector, so it lies in the cone iff, in the eps part and in the
    del part, every partial sum of drop(w) is at most that of drop(below),
    and the last sums are equal."""
    return w[1] == below[1] and all(map(operator.le, w[0], below[0]))


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
        return modules.VirtualCharacter(mult, base)

    def signed_table(self) -> dict[Weight, int]:
        out = {}
        for nu, bc in self.per_block.items():
            v = bc.hd_plus - bc.hd_minus
            if v:
                out[nu] = v
        return out

    def hd_minus_total(self) -> int:
        return sum(bc.hd_minus for bc in self.per_block.values())

    def to_json(self) -> dict:
        # dirac_cohomology fills per_block in the collection's drop order
        return {"blocks": [bc.to_json() for bc in self.per_block.values()]}


def block_cohomology(block: DiracBlock) -> BlockCohomology:
    """H_D of one block, as counts, from the ranks of B and C, and where
    needed of CB and BC.

    D swaps oscillator parity, so on (even, odd) coordinates D = [[0, B], [C, 0]]
    with B: odd -> even and C: even -> odd. Then ker D = ker C + ker B and
    ker D cap im D = (im B cap ker C) + (im C cap ker B), where
    dim(im B cap ker C) = rk B - rk CB and dim(im C cap ker B) = rk C - rk BC.
    Where `DiracBlock.definite_anti_selfadjoint` holds, both vanish, and
    rk B = rk C: G is diagonal in the oscillator monomials, so it splits as
    G_even + G_odd, and D^T G + G D = 0 gives B = -G_even^-1 C^T G_odd. The
    predicate is read only where rk C is nonzero; where it holds, B is not
    formed and no rk B or rank of a product is taken. Elsewhere CB and BC,
    the parity halves of D^2 = [[BC, 0], [0, CB]], are formed from C and B
    only where neither rank is 0.
    """
    even = [i for i, p in enumerate(block.parity) if p == 0]
    odd = [i for i, p in enumerate(block.parity) if p == 1]
    c = block.D.submatrix(odd, even)
    rk_c = exactla.rank(c)
    if rk_c and block.definite_anti_selfadjoint:
        rk_b, cap_plus, cap_minus = rk_c, 0, 0
    else:
        b = block.D.submatrix(even, odd)
        rk_b = exactla.rank(b)
        cap_plus, cap_minus = rk_b, rk_c  # CB and BC vanish when B or C does
        if rk_b and rk_c:
            cap_plus -= exactla.rank(c.matmul(b))
            cap_minus -= exactla.rank(b.matmul(c))
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
    )


def dirac_cohomology(coll: BlockCollection) -> CohomologyReport:
    """H_D block by block. Over a g-module (the simple or Verma truncation),
    only the blocks below a zero-scalar block take ranks: let Z be the
    nonempty blocks where the D^2 scalar s of `modules.dirac_scalar` is 0,
    a weight computation. A block with no block of Z above it in the even
    cone has D invertible, so ker = ker cap im = H_D^+- = 0; it takes no
    rank, no submatrix and no predicate. Every other block goes through
    `block_cohomology`.

    1. Take a generalized eigenvector of D^2 with eigenvalue c on the block.
    2. Each X_D commutes with D, so it keeps generalized eigenspaces.
    3. Raise while some X_D does not kill the vector. The height drop falls,
       so this ends at a g0-highest vector, in a block above in the even
       cone, in the same generalized eigenspace.
    4. On a g0-highest vector of weight nu0, D^2 acts by -2 s(nu0)
       (Huang-Pandzic, Transform. Groups 10, 2005; the square audit's
       `matched`).
    5. So c = 0 forces a block of Z above. With none, D^2 and hence D are
       invertible.

    Nothing here needs D^2 semisimple or the input certified, but step 4
    needs the odd part to act as on a g-module: an even-simple truncation
    (a g0-module only) breaks it, so every other kind takes ranks on every
    block. The argument rests on X_D D = D X_D, which `raising_maps`
    asserts wherever the square audit or a k-type table builds a map."""
    module = coll.module
    datum = module.datum
    zero = None  # the `_cone_sums` of the blocks of Z
    if module.kind in ("simple", "verma"):
        t = (module.highest_weight + datum.rho).scale(2).coords()
        zero = [
            _cone_sums(b.drop, datum.m)
            for b in coll.blocks.values()
            if b.dim and modules.dirac_scalar(datum, t, b.drop) == 0
        ]
    per_block = {}
    for nu, block in coll.blocks.items():
        below = _cone_sums(block.drop, datum.m)
        if zero is None or any(_in_even_cone(z, below) for z in zero):
            per_block[nu] = block_cohomology(block)
        else:
            even = block.parity.count(0)
            per_block[nu] = BlockCohomology(nu, block.dim, even, block.dim - even, 0, 0, 0, 0)
    return CohomologyReport(per_block, module, coll.height)


def hd_ktype_table(
    coll: BlockCollection, report: CohomologyReport, sign: int
) -> dict[Weight, int]:
    """Compact-type multiplicities of H_D^+ (sign=+1) or H_D^- (sign=-1): the
    dimension of the classes killed by every compact raising operator: one
    kernel and one rank per block with h = hd^+- != 0 and a compact map.

    Let P be the coordinates of that parity and K a basis of ker D on P. X_D
    commutes with D (`raising_maps` asserts it), so it maps ker D to ker D of
    its target block, where a kernel vector is a zero class iff it lies in
    im D, and it sends ker D cap im D into im D. So the killed classes number
    (dim K - rk S) - dim(ker D cap im D cap V_P) = h - rk S, where S stacks
    each X_D on K reduced modulo im D of its target. Where the target has
    ker D cap im D = 0, X_D v lies in im D only if it is 0, and the
    reduction is skipped."""
    parity = 0 if sign > 0 else 1
    table: dict[Weight, int] = {}
    for nu, bc in report.per_block.items():
        h = bc.hd_plus if sign > 0 else bc.hd_minus
        if not h:
            continue
        block = coll.blocks[nu]
        if maps := raising_maps(coll, block, "compact"):
            cols = [i for i, p in enumerate(block.parity) if p == parity]
            rows = block.D.submatrix(list(range(block.dim)), cols).nonzero_rows()
            kernel = exactla.sparse_kernel(rows, len(cols))
            # the kernel vectors as columns, in block coordinates
            entries = {(cols[i], j): x for j, v in enumerate(kernel) for i, x in v.items()}
            k_mat = SparseRationalMatrix(block.dim, len(kernel), entries)
            stack = []
            for tgt, x in maps:
                image = x.matmul(k_mat)
                if report.per_block[tgt.nu].ker_cap_im:
                    rows = tgt.D.transpose().nonzero_rows()
                    image = exactla.quotient(rows, tgt.dim).reduction.matmul(image)
                stack.append(image)
            h -= exactla.rank(*stack)
        if h:
            table[nu] = h
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
    """D^T G + G D = 0 (`ok`) and 2(d^T G - G d) + G D = 0 (`halves_adjoint`:
    d' = D/2 - d is minus the G-adjoint of d), read off one accumulation of
    G D (`_gram_D`), as the predicate reads it; nothing is kept. G keeps the
    cohomological degree (it is diagonal in the monomials), so the entries
    of G D that raise it are those of G (2d): G D = 2(G d + G d').

    The two identities are equivalent. Every entry of D changes the
    cohomological degree by one, d is the raising half of D/2 and d' the
    lowering half, and G keeps the degree. So D^T G + G D = 2(d^T G + G d') +
    2(d'^T G + G d): the first term lowers the degree, and the second raises
    it and is the first one's transpose, so the sum vanishes exactly when
    the first term does. The left side of the halves identity is
    2(d^T G - G d) + 2 G d + 2 G d' = 2(d^T G + G d'), that first term.

    The halves identity is in turn equivalent to <d v, w> = <v, delta w> for
    both halves (p1 and q2). Since d = d^{p1} - delta^{q2} and D/2 = d^{p1} +
    d^{q2} - delta^{p1} - delta^{q2}, its left side over 2 is
    ((d^{p1})^T G - G delta^{p1}) + (G d^{q2} - (delta^{q2})^T G). G
    preserves the bigrading (p1-degree, q2-degree) of the monomials; the two
    parts shift it by (-1, 0) and (0, +1), so each vanishes on its own, and
    the second is the transpose of the q2 one."""
    g_D = _gram_D(block)
    deg = block.degrees()
    return _adjoint_certificate(g_D, {(i, j): v for (i, j), v in g_D.items() if deg[i] > deg[j]})


def _adjoint_certificate(g_D: dict, g_2d: dict) -> AdjointCertificate:
    """The certificate from the entries of G D and G (2d), G symmetric."""
    # D^T G + G D = (G D)^T + G D, nonzero only where G D has an entry
    lhs = {}
    for (i, j), v in g_D.items():
        w = v + g_D.get((j, i), 0)
        if w:
            lhs[i, j] = lhs[j, i] = w
    first = min(lhs, default=None)  # the witness entry, if any
    witness = None if first is None else (*first, lhs[first])
    # 2(d^T G - G d) + G D: each v of G (2d) at (i, j) adds v at (j, i), -v at (i, j)
    halves = dict(g_D)
    for (i, j), v in g_2d.items():
        halves[j, i] = halves.get((j, i), 0) + v
        halves[i, j] = halves.get((i, j), 0) - v
    return AdjointCertificate(first is None, witness, not any(halves.values()))


# ----- index --------------------------------------------------------------------------------
def dirac_index(coll: BlockCollection) -> dict[Weight, int]:
    """Per diagonal weight: even-parity dimension minus odd-parity dimension."""
    out: dict[Weight, int] = {}
    for nu, block in coll.blocks.items():
        v = block.parity.count(0) - block.parity.count(1)
        if v:
            out[nu] = v
    return out
