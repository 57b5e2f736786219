"""Height-truncated highest-weight modules: Verma supermodules M(L), simple
quotients L(L), their even (g0) counterparts, characters, k-type tables, and
unitarity certification via Gram-matrix definiteness.

Everything a module computes rests on one operation, a generator applied to a
PBW monomial at the highest weight vector (`act_word`), done by recursion on
the monomial's first letter and memoized on the module, never by
straightening in U(g). A Verma character is a count of PBW monomials per drop
(`verma_filtration_check`), so it needs no module.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from . import exactla, uea
from .exactla import SparseRationalMatrix
from .uea import Algebra, Gen, Word
from .weights import Drop, RootDatum, Weight, bounded_exponents, subset_labels

ModuleVector = dict[Word, exactla.Rational]


# ----- action of g on a highest-weight module -------------------------------------
def act_word(alg: Algebra, lam: Weight, g: Gen, mono: Word, memo: dict) -> ModuleVector:
    """The generator g applied to the basis vector mono v_lam of M(lam), by
    recursion on the first letter f of mono = f X':
    g f X' v = (-1)^{|g||f|} f (g X' v) + [g, f] X' v. A Cartan E_ii acts by
    coordinate i of lam - drop(mono), a raising g kills v_lam, and a lowering
    g that sorts before f, or equals an even f, is prepended (g = f odd gives
    0). `memo` keeps every image for this lam (`TruncatedModule.act` passes
    the module's own); callers must not mutate the images."""
    out = memo.get((g, mono))
    if out is not None:
        return out
    cls = alg.triangular_class(g)
    if cls == "cartan":
        i = g[0]
        c = exactla._rat(lam.coords()[i] - sum(alg.gen_drop(f)[i] for f in mono))
        out = {mono: c} if c else {}
    elif not mono:
        out = {(g,): 1} if cls == "negative" else {}
    elif cls == "negative" and alg.order_key(g) <= alg.order_key(mono[0]):
        out = {(g,) + mono: 1} if g != mono[0] or not alg.parity(g) else {}
    else:
        f, rest = mono[0], mono[1:]
        sign = -1 if alg.parity(g) and alg.parity(f) else 1
        out = {}
        for z, c in act_word(alg, lam, g, rest, memo).items():
            for w, d in act_word(alg, lam, f, z, memo).items():
                uea.add_into(out, w, sign * c * d)
        for (h,), b in alg.supercommutator(g, f).items():
            for w, d in act_word(alg, lam, h, rest, memo).items():
                uea.add_into(out, w, b * d)
        out = {w: exactla._rat(c) for w, c in out.items()}
    memo[(g, mono)] = out
    return out


def word_parity(alg: Algebra, mono: Word) -> int:
    return sum(alg.parity(g) for g in mono) % 2


# ----- block data -----------------------------------------------------------------
@dataclass
class Block:
    """One weight block. A block of a simple kind carries the quotient map
    and Gram of M/radical and is stored in quotient coordinates; any other
    block is stored in Verma (monomial) coordinates. `qmap` is set exactly
    for the simple kinds, so the block itself answers which coordinates it
    stores (`dim`, `basis`, `form`, `reduce`). `drop` is L - weight."""

    weight: Weight
    drop: Drop
    monomials: list[Word]
    parity: list[int]
    gram: SparseRationalMatrix
    radical: list[tuple[int, ...]]
    qmap: exactla.Quotient | None = None
    gram_quot: SparseRationalMatrix | None = None

    @property
    def verma_dim(self) -> int:
        return len(self.monomials)

    @property
    def dim(self) -> int:
        """Size of the block in stored coordinates."""
        return self.verma_dim if self.qmap is None else len(self.qmap.kept)

    @property
    def basis(self) -> list[Word]:
        """The monomials whose classes form the stored basis."""
        if self.qmap is None:
            return self.monomials
        return [self.monomials[i] for i in self.qmap.kept]

    @property
    def form(self) -> SparseRationalMatrix:
        """The Shapovalov form in stored coordinates."""
        return self.gram if self.qmap is None else self.gram_quot

    @functools.cached_property
    def definiteness(self) -> exactla.DefinitenessCertificate:
        """The definiteness certificate of `form`, computed once per block:
        `certify_unitarity` and the Dirac blocks built on this module read it."""
        return exactla.definiteness(self.form)

    def reduce(self, vec: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """Stored coordinates of a vector given in monomial coordinates."""
        return tuple(vec) if self.qmap is None else self.qmap.reduction.apply(vec)

    def to_json(self) -> dict:
        return {
            "weight": self.weight.text(),
            "dim": self.verma_dim,
            "gram": [[str(x) for x in row] for row in self.gram.to_rows()],
            "radical_rank": len(self.radical),
            "parity": list(self.parity),
        }


@dataclass
class TruncatedModule:
    datum: RootDatum
    alg: Algebra
    highest_weight: Weight
    height: Fraction
    kind: str  # verma | simple | even-verma | even-simple | compact-simple
    blocks: dict[Weight, Block] = field(default_factory=dict)
    # the same blocks keyed by their drop L - weight, in the same order
    by_drop: dict[Drop, Block] = field(default_factory=dict, repr=False, compare=False)
    # generator matrices by (generator, source drop), filled by gen_columns
    _gen_columns: dict[tuple[Gen, Drop], tuple] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    # images g X v_lam by (generator, monomial), filled by act
    _act: dict[tuple[Gen, Word], ModuleVector] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def act(self, g: Gen, mono: Word) -> ModuleVector:
        """`act_word` with this module's memo; callers must not mutate it."""
        return act_word(self.alg, self.highest_weight, g, mono, self._act)

    def block_dim(self, nu: Weight) -> int:
        b = self.blocks.get(nu)
        return 0 if b is None else b.dim

    def drop_dim(self, drop: Drop) -> int:
        b = self.by_drop.get(drop)
        return 0 if b is None else b.dim

    def gen_columns(
        self, g: Gen, source: Drop
    ) -> tuple[tuple[tuple[int, exactla.Rational], ...], ...]:
        """Matrix of the generator g from the block of drop `source` to the
        block of weight one root(g) higher, in the stored (quotient)
        coordinates: for each source basis vector, its nonzero (row, entry)
        pairs. Built once per module; callers must not mutate it."""
        key = (g, source)
        cols = self._gen_columns.get(key)
        if cols is None:
            cols = self._gen_columns[key] = self._build_gen_columns(g, source)
        return cols

    def _build_gen_columns(self, g: Gen, source: Drop) -> tuple:
        sdim = self.drop_dim(source)
        target = tuple(map(operator.add, source, self.alg.gen_drop(g)))
        if sdim == 0 or self.drop_dim(target) == 0:
            return ((),) * sdim
        tb = self.by_drop[target]
        index = {m: i for i, m in enumerate(tb.monomials)}
        cols = []
        for mono in self.by_drop[source].basis:
            vec = [0] * len(index)
            for m, c in self.act(g, mono).items():
                vec[index[m]] += c
            cols.append(tuple((i, exactla._rat(c)) for i, c in enumerate(tb.reduce(vec)) if c))
        return tuple(cols)

    def sorted_weights(self) -> list[Weight]:
        """The block weights in the order of the drop; `_build` stores them so."""
        return list(self.blocks)


def generators(alg: Algebra, sign: int, restriction: str) -> list[Gen]:
    """The raising (sign=+1) or lowering (sign=-1) root generators of g
    (restriction="all"), of g0 ("even") or of the compact subalgebra
    ("compact"), in PBW order."""
    cls = "positive" if sign > 0 else "negative"
    gens = [g for g in alg.generators() if alg.triangular_class(g) == cls]
    if restriction == "all":
        return gens
    if restriction not in ("even", "compact"):
        raise ValueError("restriction must be 'all', 'even' or 'compact'")
    gens = [g for g in gens if alg.parity(g) == 0]
    if restriction == "compact":
        compact = {r.weight.coords() for r in alg.datum.pos_compact}
        gens = [g for g in gens if alg.gen_root(g).scale(sign).coords() in compact]
    return gens


def _enumerate_monomials(
    alg: Algebra, gens: list[Gen], max_height: exactla.Rational
) -> list[Word]:
    """All PBW monomials in the given lowering generators of height <= bound."""
    heights = [-alg.datum.height(alg.gen_root(g)) for g in gens]
    caps = [1 if alg.parity(g) else None for g in gens]
    return [
        tuple(g for g, e in zip(gens, a) for _ in range(e))
        for a in bounded_exponents(heights, max_height, caps)
    ]


def _monomials_by_drop(alg: Algebra, restriction: str, max_height) -> dict[Drop, list[Word]]:
    """The PBW monomials in the lowering generators of the restriction, of
    height <= bound, by drop (the sum of their letters' drops)."""
    zero = (0,) * alg.dim
    by_drop: dict[Drop, list[Word]] = {}
    for mono in _enumerate_monomials(alg, generators(alg, -1, restriction), max_height):
        drop = zero
        for g in mono:
            drop = tuple(map(operator.add, drop, alg.gen_drop(g)))
        by_drop.setdefault(drop, []).append(mono)
    return by_drop


def _gram_block(
    mod: TruncatedModule, drop: Drop, monos: list[Word], index: dict[Drop, dict[Word, int]]
) -> SparseRationalMatrix:
    """Shapovalov Gram of one weight block by the contravariant recursion.

    For X = g X' (g the first PBW letter), omega(X) Y = omega(X') omega(g) Y
    with omega(g) = s E and E a raising generator. If E Y v = sum_Z c_Z Z v
    (`TruncatedModule.act`), then (X, Y) = s sum_Z c_Z (X', Z), read off the
    Gram of the block of X'. That block lies higher, so building blocks from
    the top down has it ready. E stays in the subalgebra of the module's kind,
    so every Z is one of its monomials. The tests compare every entry with the
    Shapovalov pairing obtained by straightening the whole product omega(X) Y.
    """
    dim = len(monos)
    if monos == [()]:
        return SparseRationalMatrix(1, 1, {(0, 0): 1})  # the highest weight block
    alg = mod.alg
    entries = {}
    for i, x in enumerate(monos):
        g = x[0]
        og, s = alg.omega_gen(g)
        above = tuple(map(operator.sub, drop, alg.gen_drop(g)))
        above_index = index[above]
        above_gram = mod.by_drop[above].gram.entries
        row = above_index[x[1:]]
        for j in range(i, dim):
            v = 0
            for z, c in mod.act(og, monos[j]).items():
                e = above_gram.get((row, above_index[z]))
                if e:
                    v += c * e
            if v:
                entries[i, j] = entries[j, i] = exactla._rat(s * v)
    return SparseRationalMatrix(dim, dim, entries)


def _build(
    datum: RootDatum,
    lam: Weight,
    height: Fraction,
    kind: str,
    alg: Algebra | None = None,
) -> TruncatedModule:
    if not datum.admissible_highest_weight(lam):
        raise ValueError("inadmissible highest weight (central charge constraint)")
    alg = alg or Algebra(datum)
    # "even-verma" -> "even", "compact-simple" -> "compact", "simple" -> "all"
    restriction = kind.split("-")[0] if "-" in kind else "all"
    by_drop = _monomials_by_drop(alg, restriction, Fraction(height))
    mod = TruncatedModule(datum, alg, lam, Fraction(height), kind)
    simple = kind.endswith("simple")
    index: dict[Drop, dict[Word, int]] = {}
    for drop in sorted(by_drop, key=datum.drop_key):
        monos = sorted(by_drop[drop], key=lambda m: [alg.order_key(g) for g in m])
        index[drop] = {m: i for i, m in enumerate(monos)}
        gram = _gram_block(mod, drop, monos, index)
        radical = exactla.kernel_basis(gram)
        block = Block(
            weight=lam.lower(drop),
            drop=drop,
            monomials=monos,
            parity=[word_parity(alg, m) for m in monos],
            gram=gram,
            radical=radical,
        )
        if simple:
            block.qmap = exactla.quotient(radical, len(monos))
            if len(block.qmap.kept) != len(monos) - len(radical):
                raise ValueError("dependent radical basis")
            block.gram_quot = gram.submatrix(block.qmap.kept, block.qmap.kept)
        mod.blocks[block.weight] = mod.by_drop[drop] = block
    return mod


def verma_truncation(datum: RootDatum, lam: Weight, height) -> TruncatedModule:
    return _build(datum, lam, Fraction(height), "verma")


def simple_truncation(datum: RootDatum, lam: Weight, height) -> TruncatedModule:
    return _build(datum, lam, Fraction(height), "simple")


def even_verma_truncation(datum: RootDatum, lam: Weight, height) -> TruncatedModule:
    return _build(datum, lam, Fraction(height), "even-verma")


def even_simple_truncation(datum: RootDatum, lam: Weight, height) -> TruncatedModule:
    return _build(datum, lam, Fraction(height), "even-simple")


def compact_simple_truncation(datum: RootDatum, lam: Weight, height) -> TruncatedModule:
    """Simple module over the compact subalgebra (gl(p) + gl(q) + gl(n))."""
    return _build(datum, lam, Fraction(height), "compact-simple")


# ----- characters ------------------------------------------------------------------
@dataclass
class VirtualCharacter:
    multiplicities: dict[Weight, int]
    base: Weight  # heights measured as ht(base - nu)

    def coeff(self, nu: Weight) -> int:
        return self.multiplicities.get(nu, 0)

    def to_json(self, datum: RootDatum) -> list[list]:
        return table_json(datum, self.base, self.multiplicities)


def table_json(datum: RootDatum, base: Weight, table: dict[Weight, int]) -> list[list]:
    """[[weight, multiplicity], ...] over the nonzero entries, ordered by the
    height of base - weight and then by coordinates."""
    items = sorted(table.items(), key=lambda kv: datum.root_sort_key(base - kv[0]))
    return [[nu.text(), mult] for nu, mult in items if mult]


def character(module: TruncatedModule) -> VirtualCharacter:
    mult = {nu: b.dim for nu, b in module.blocks.items() if b.dim > 0}
    return VirtualCharacter(mult, module.highest_weight)


def characters_equal_to_height(
    datum: RootDatum,
    a: VirtualCharacter,
    b: VirtualCharacter,
    base: Weight,
    height: Fraction,
) -> tuple[bool, Weight | None]:
    """Coefficient-wise comparison on weights nu with ht(base - nu) <= height."""
    support = set(a.multiplicities) | set(b.multiplicities)
    for nu in sorted(support, key=lambda w: datum.root_sort_key(base - w)):
        if datum.height(base - nu) > height:
            continue
        if a.coeff(nu) != b.coeff(nu):
            return False, nu
    return True, None


# ----- k-types ----------------------------------------------------------------------
def ktype_table(module: TruncatedModule) -> dict[Weight, int]:
    """Multiplicity of each compact-highest weight: the dimension of the
    common kernel of the compact raising operators on each stored block."""
    alg = module.alg
    raising = generators(alg, +1, "compact")
    table: dict[Weight, int] = {}
    for drop, b in module.by_drop.items():
        mats = []
        for g in raising:
            cols = module.gen_columns(g, drop)
            entries = {(r, j): c for j, col in enumerate(cols) for r, c in col}
            rows = module.drop_dim(tuple(map(operator.add, drop, alg.gen_drop(g))))
            mats.append(SparseRationalMatrix(rows, b.dim, entries))
        k = b.dim - exactla.rank(exactla.vstack(mats, b.dim))
        if k:
            table[b.weight] = k
    return table


# ----- signed sums of even characters ------------------------------------------------
def even_character_sum(
    datum: RootDatum,
    lam: Weight,
    terms: Iterable[tuple[Weight, int]],
    height,
    kind: str,
) -> VirtualCharacter:
    """Sum over the terms (mu, c) of c ch L0(mu) (kind "even-simple") or
    c ch F^mu ("compact-simple") on the weights nu with ht(lam - nu) <=
    height. The coefficients of a repeated mu add up, and each mu with a
    nonzero total is built once, to height - ht(lam - mu), with one Algebra
    for all."""
    if kind not in ("even-simple", "compact-simple"):
        raise ValueError("kind must be 'even-simple' or 'compact-simple'")
    height = Fraction(height)
    coeffs: dict[Weight, int] = {}
    for mu, c in terms:
        coeffs[mu] = coeffs.get(mu, 0) + c
    alg = Algebra(datum)
    total: dict[Weight, int] = {}
    for mu, c in coeffs.items():
        offset = datum.height(lam - mu)
        if c and offset <= height:
            even = _build(datum, mu, height - offset, kind, alg)
            for nu, d in character(even).multiplicities.items():
                total[nu] = total.get(nu, 0) + c * d
    return VirtualCharacter({nu: c for nu, c in total.items() if c}, lam)


def verma_filtration_check(
    datum: RootDatum, lam: Weight, height
) -> tuple[bool, Weight | None]:
    """ch M(lam) = sum over subsets S of the odd positive roots of
    ch M0(lam - Gamma_S), compared to the given height, with the lowest
    weight that differs. A Verma character counts the PBW monomials of each
    drop, so no module is built: ch M(lam) at lam - d is the number of
    monomials of drop d in the lowering generators of g, ch M0(mu) at mu - d
    that in those of g0."""
    if not datum.admissible_highest_weight(lam):
        raise ValueError("inadmissible highest weight (central charge constraint)")
    height = Fraction(height)
    alg = Algebra(datum)
    left = {d: len(ms) for d, ms in _monomials_by_drop(alg, "all", height).items()}
    even = {d: len(ms) for d, ms in _monomials_by_drop(alg, "even", height).items()}
    right: dict[Drop, int] = {}
    for _, mu, _ in subset_labels(datum, lam):
        gamma = (lam - mu).coords()
        room = height - datum.height(lam - mu)
        for d, k in even.items():
            if datum.drop_key(d)[0] <= room:
                total = tuple(map(operator.add, gamma, d))
                right[total] = right.get(total, 0) + k
    for d in sorted(left.keys() | right.keys(), key=datum.drop_key):
        if left.get(d, 0) != right.get(d, 0):
            return False, lam.lower(d)
    return True, None


# ----- unitarity certification --------------------------------------------------------
@dataclass
class UnitarityCertificate:
    verdict: str  # "certified-up-to-N" | "refuted-at"
    height: Fraction
    refuted_block: Weight | None
    witness: exactla.Vector | None  # canonical entries, v^T G v < 0 in Block.form
    audit: list[tuple[Weight, Fraction]]  # (label mu, s) with s >= 0

    @property
    def certified(self) -> bool:
        return self.verdict == "certified-up-to-N"

    def to_json(self) -> dict:
        out = {
            "verdict": self.verdict,
            "height": str(self.height),
            "audit": [[mu.text(), str(s)] for mu, s in self.audit],
        }
        if self.refuted_block is not None:
            out["refuted_block"] = self.refuted_block.text()
        if self.witness is not None:
            out["witness"] = [str(x) for x in self.witness]
        return out


def dirac_scalar(datum: RootDatum, t: Sequence, drop: Sequence) -> exactla.Rational:
    """s = (mu + 2 rho, mu) - (lam + 2 rho, lam) for mu = lam - drop, given
    t = 2(lam + rho) in coordinates: s = (drop, drop - t), the sum of
    d_i(d_i - t_i) over the eps coordinates minus that over the del ones."""
    terms = [d * (d - x) for d, x in zip(drop, t, strict=True)]
    return sum(terms[: datum.m]) - sum(terms[datum.m :])


def certify_unitarity(
    datum: RootDatum, lam: Weight, height, module: TruncatedModule | None = None
) -> UnitarityCertificate:
    height = Fraction(height)
    module = module or simple_truncation(datum, lam, height)
    t = (lam + datum.rho).scale(2).coords()
    audit = [
        (mu, dirac_scalar(datum, t, (lam - mu).coords()))
        for _, mu, atypical in subset_labels(datum, lam)
        if not atypical
    ]
    audit = [(mu, s) for mu, s in audit if s >= 0]
    audit.sort(key=lambda t: datum.root_sort_key(lam - t[0]))
    for nu in module.sorted_weights():
        b = module.blocks[nu]
        if b.gram_quot is None or b.gram_quot.rows == 0:
            continue
        cert = b.definiteness
        if cert.verdict != "positive-definite":
            # the witness is in the quotient coordinates of Block.form (the
            # classes of b.basis()), where v^T G v < 0
            return UnitarityCertificate("refuted-at", height, nu, cert.witness, audit)
    return UnitarityCertificate("certified-up-to-N", height, None, None, audit)
