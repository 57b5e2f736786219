"""Height-truncated highest-weight modules: Verma supermodules M(L), simple
quotients L(L), their even (g0) counterparts, characters, k-type tables, and
unitarity certification via Gram-matrix definiteness.
"""

from __future__ import annotations

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
def act_word(alg: Algebra, lam: Weight, g: Gen, mono: Word) -> ModuleVector:
    """The generator g applied to the basis vector mono v_lam of M(lam)."""
    out: ModuleVector = {}
    for w, c in alg._normal_word((g,) + mono).items():
        _accumulate_pbw(alg, lam, w, c, out)
    return out


def _accumulate_pbw(
    alg: Algebra, lam: Weight, word: Word, coeff: exactla.Rational, out: ModuleVector
) -> None:
    """Project a PBW word applied to the highest weight vector."""
    if not coeff:
        return
    coords = lam.coords()
    neg_end = 0
    for g in word:
        if alg.triangular_class(g) == "negative":
            neg_end += 1
        else:
            break
    for g in word[neg_end:]:
        cls = alg.triangular_class(g)
        if cls == "positive":
            return  # kills the highest weight vector
        coeff *= coords[g[0]]
    uea.add_into(out, word[:neg_end], coeff)


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
            img = act_word(self.alg, self.highest_weight, g, mono)
            for m, c in img.items():
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


def _gram_block(
    alg: Algebra,
    lam: Weight,
    drop: Drop,
    monos: list[Word],
    by_drop: dict[Drop, Block],
    index: dict[Drop, dict[Word, int]],
) -> SparseRationalMatrix:
    """Shapovalov Gram of one weight block by the contravariant recursion.

    For X = g X' (g the first PBW letter), omega(X) Y = omega(X') omega(g) Y
    with omega(g) = s E and E a raising generator. If E Y v = sum_Z c_Z Z v,
    then (X, Y) = s sum_Z c_Z (X', Z), read off the Gram of the block of X'.
    That block lies higher, so building blocks from the top down has it ready.
    E stays in the subalgebra of the module's kind, so every Z is one of its
    monomials. The tests compare every entry with the Shapovalov pairing
    obtained by straightening the whole product omega(X) Y.
    """
    dim = len(monos)
    gram = SparseRationalMatrix(dim, dim)
    if monos == [()]:
        gram.set(0, 0, 1)  # the highest weight block
        return gram
    images: dict[tuple[Gen, int], ModuleVector] = {}
    for i, x in enumerate(monos):
        g = x[0]
        og, s = alg.omega_gen(g)
        above = tuple(map(operator.sub, drop, alg.gen_drop(g)))
        above_index = index[above]
        above_gram = by_drop[above].gram.entries
        row = above_index[x[1:]]
        for j in range(i, dim):
            img = images.get((g, j))
            if img is None:
                img = act_word(alg, lam, og, monos[j])
                images[(g, j)] = img
            v = 0
            for z, c in img.items():
                e = above_gram.get((row, above_index[z]))
                if e:
                    v += c * e
            if v:
                v *= s
                gram.set(i, j, v)
                if i != j:
                    gram.set(j, i, v)
    return gram


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
    gens = generators(alg, -1, restriction)
    monomials = _enumerate_monomials(alg, gens, Fraction(height))
    # the drop of a monomial is the sum of its letters' drops
    zero = (0,) * (datum.m + datum.n)
    by_drop: dict[Drop, list[Word]] = {}
    for mono in monomials:
        drop = zero
        for g in mono:
            drop = tuple(map(operator.add, drop, alg.gen_drop(g)))
        by_drop.setdefault(drop, []).append(mono)
    mod = TruncatedModule(datum, alg, lam, Fraction(height), kind)
    simple = kind.endswith("simple")
    index: dict[Drop, dict[Word, int]] = {}
    for drop in sorted(by_drop, key=datum.drop_key):
        monos = sorted(by_drop[drop], key=lambda m: [alg.order_key(g) for g in m])
        index[drop] = {m: i for i, m in enumerate(monos)}
        gram = _gram_block(alg, lam, drop, monos, mod.by_drop, index)
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
    """Sum over the terms (mu, c) of c ch M0(mu) (kind "even-verma"),
    c ch L0(mu) ("even-simple") or c ch F^mu ("compact-simple") on the
    weights nu with ht(lam - nu) <= height. The coefficients of a repeated
    mu add up, and each mu with a nonzero total is built once, to
    height - ht(lam - mu), with one Algebra for all."""
    if kind not in ("even-verma", "even-simple", "compact-simple"):
        raise ValueError("kind must be 'even-verma', 'even-simple' or 'compact-simple'")
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
    ch M0(lam - Gamma_S), compared to the given height."""
    height = Fraction(height)
    left = character(_build(datum, lam, height, "verma"))
    terms = [(mu, 1) for _, mu, _ in subset_labels(datum, lam)]
    right = even_character_sum(datum, lam, terms, height, "even-verma")
    return characters_equal_to_height(datum, left, right, lam, height)


# ----- unitarity certification --------------------------------------------------------
@dataclass
class UnitarityCertificate:
    verdict: str  # "certified-up-to-N" | "refuted-at"
    height: Fraction
    refuted_block: Weight | None
    witness: tuple[Fraction, ...] | None
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
        cert = exactla.definiteness(b.gram_quot)
        if cert.verdict != "positive-definite":
            # the witness is in the quotient coordinates of Block.form (the
            # classes of b.basis()), where v^T G v < 0
            return UnitarityCertificate("refuted-at", height, nu, cert.witness, audit)
    return UnitarityCertificate("certified-up-to-N", height, None, None, audit)
