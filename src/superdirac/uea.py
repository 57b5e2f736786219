"""gl(m|n) on matrix units: generator classes and PBW order, structure
constants, the anti-involution of su(p,q|n) on generators, and the invariant
forms.

A generator is a matrix-unit label (i, j) with 0-based indices; parity is odd
iff exactly one index exceeds m-1.  A UEAElement is a dict mapping PBW words
(tuples of generators) to rational coefficients; the PBW order is
negative < Cartan < positive, each class internally ordered by (height, lex)
of the roots.

The package never straightens in U(g): `modules.act_word` applies one
generator to a PBW monomial at the highest weight vector by its own
recursion, from the generator table and `supercommutator` here. PBW
straightening of whole words, the product of whole elements, the
anti-involution on words, the Harish-Chandra projection and the Shapovalov
pairing built from them are test oracles (`tests/_helpers.py`).

Coefficients are canonical as in `exactla._rat`: the structure constants on
matrix units are +-1, so products of generators keep them ints, and only the
normalized form `b_form` takes half-integral values.
"""

from __future__ import annotations

from fractions import Fraction

from .exactla import Rational
from .weights import Drop, RootDatum, Weight

Gen = tuple[int, int]
Word = tuple[Gen, ...]
UEAElement = dict[Word, Rational]


def add_into(acc: UEAElement, w: Word, c: Rational) -> None:
    if not c:
        return
    v = acc.get(w, 0) + c
    if v:
        acc[w] = v
    else:
        acc.pop(w, None)


class Algebra:
    """gl(m|n) with the positive system and involution of a fixed RootDatum."""

    def __init__(self, datum: RootDatum):
        self.datum = datum
        self.m = datum.m
        self.n = datum.n
        self.dim = datum.m + datum.n
        # one pass over the matrix units: root, drop, triangular class and
        # PBW order key (class rank; Cartan by index, root vectors by
        # (height, lex) of the root), then the PBW-sorted generator tuple
        self._root: dict[Gen, Weight] = {}
        self._drop: dict[Gen, Drop] = {}
        self._class: dict[Gen, str] = {}
        self._key: dict[Gen, tuple] = {}
        for i in range(self.dim):
            for j in range(self.dim):
                g = (i, j)
                root = self._root[g] = datum.root_of_unit(i, j)
                self._drop[g] = tuple(-int(c) for c in root.coords())
                if i == j:
                    self._class[g], self._key[g] = "cartan", (1, 0, (i,))
                    continue
                h = datum.height(root)
                self._class[g] = "positive" if h > 0 else "negative"
                self._key[g] = (2 if h > 0 else 0, h, root.coords())
        self._generators = tuple(sorted(self._key, key=self._key.__getitem__))

    # ----- generator classification ------------------------------------------
    def parity(self, g: Gen) -> int:
        i, j = g
        return int((i < self.m) != (j < self.m))

    def triangular_class(self, g: Gen) -> str:
        return self._class[g]

    def gen_root(self, g: Gen) -> Weight:
        return self._root[g]

    def gen_drop(self, g: Gen) -> Drop:
        """Minus the root of g as ints: the drop g adds to a weight."""
        return self._drop[g]

    def order_key(self, g: Gen) -> tuple:
        return self._key[g]

    def generators(self) -> tuple[Gen, ...]:
        """Every matrix unit in PBW order."""
        return self._generators

    def even_generators(self) -> list[Gen]:
        return [g for g in self.generators() if self.parity(g) == 0]

    # ----- structure constants ------------------------------------------------
    def supercommutator(self, a: Gen, b: Gen) -> UEAElement:
        """[E_ij, E_kl] = d_jk E_il - (-1)^{p p'} d_li E_kj."""
        i, j = a
        k, l = b
        sign = (-1) ** (self.parity(a) * self.parity(b))
        out: UEAElement = {}
        if j == k:
            add_into(out, ((i, l),), 1)
        if l == i:
            add_into(out, ((k, j),), -sign)
        return out

    # ----- involution -----------------------------------------------------------
    def _sigma(self, i: int) -> int:
        if i < self.datum.p:
            return 1
        return -1

    def omega_gen(self, g: Gen) -> tuple[Gen, int]:
        i, j = g
        return (j, i), self._sigma(i) * self._sigma(j)

    # ----- invariant forms on g ---------------------------------------------------
    def str_form(self, a: Gen, b: Gen) -> int:
        """str(E_ij E_kl) with str(X) = tr(A-block) - tr(D-block)."""
        i, j = a
        k, l = b
        if j != k or l != i:
            return 0
        return 1 if i < self.m else -1

    def b_form(self, a: Gen, b: Gen) -> Rational:
        """Normalized invariant form: B = (1/2)(tr_D - tr_A) on products."""
        v = -self.str_form(a, b)
        return v // 2 if not v % 2 else Fraction(v, 2)
