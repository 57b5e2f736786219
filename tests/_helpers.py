"""Test-only helpers shared by several test modules.

- The weight the engine used before `weights.Weight` held integer numerators
  over one denominator: a frozen pair of `exactla._rat` coordinate tuples
  with every operation on those coordinates, and the pairing, height and
  root sort key computed from them (the oracle for the num/den arithmetic).
- The generator-table oracles: the root of a matrix unit as a difference
  of basis weights, and its drop, triangular class and PBW order key
  computed from it on each call, and the matrix units sorted by that key
  (the oracles for the table that `uea.Algebra` builds once).
- Sums and multiples in U(g), and the U(g) oracles: PBW straightening of a
  word (swap the first inversion, add its supercommutator, cached per
  Algebra), a PBW word applied at the highest weight vector, and both
  together as the oracle for the module recursion `modules.act_word`; the
  product of whole elements, the anti-involution on words, the
  Harish-Chandra projection, evaluation at a weight, and the Shapovalov
  pairing built from them (the oracle for the Gram recursion in `modules`),
  the odd basis table as elements, and a word applied to a module vector one
  letter at a time through `modules.act_word`.
- The normal-ordering product of the Weyl algebra with its generators x_k,
  d_k and commutator (the oracle for `oscillator.alpha_embed_gen`, which
  writes alpha straight into normal order), alpha of one generator from its
  own bracket forms, B(X, [u, v]) over every odd pair (the oracle for the one
  pass that fills alpha of every even X), a normal-ordered operator
  applied one derivative at a time (the oracle for `oscillator.weyl_apply`),
  the embedding alpha on degree-1 elements, and the oscillator monomials of
  one degree by recursion (an oracle for `weights.bounded_exponents`).
- The Bargmann-Fock form, the value of a quadratic form, and the Fraction
  elimination with its kernel basis kept as the oracles for the sparse
  elimination `exactla._rref` and `exactla.kernel_basis`; the dense symmetric
  congruence on Fractions kept as the oracle for `exactla.definiteness`; a
  sparse matrix times a scalar and the identity matrix, each built once from
  its entries.
- The even-cone test on weights with rational coordinates (partial sums
  split into floor and remainder), the oracle for the integer drop test
  `dirac._in_even_cone`.
- The Dirac-block oracles: the block Gram form G as a matrix (the oracle
  for the G D that `dirac._gram_D` accumulates with no G formed), the four
  quarters d^{p1}, delta^{p1}, d^{q2}, delta^{q2} summed term by term, one
  dict per quarter (the oracle for the single-pass assembly of D and for d
  read off it), the pairwise adjointness of the quarters, the adjoint
  certificate from four products (D^T G, G D, d^T G and G d) and from G D
  and G d read at the union of their keys (the oracle for the certificate's
  one pass over G d), Kostant cohomology from
  two ranks per degree, and the Dirac scalar s as one and as two weight
  pairings (the oracles for the integer-drop `modules.dirac_scalar`), and
  the g0-highest vectors of a
  block from one kernel of the maps built generator by generator (the
  oracle for `dirac.raising_maps`), beside the kernel of those maps as the
  square audit stacks them, dense, and the g0-constituents read from those
  dense vectors with D^2 v as D.apply(D.apply(v)) (the oracle for the sparse
  D^2 check of `dirac.g0_constituents`); ker D cap im D from explicit bases, H_D from
  them with explicit class vectors (the oracle for the rank counts of
  `dirac.block_cohomology`), and the H_D tables of those classes killed by
  the even or the compact raising operators, one generator at a time (the
  oracle for the rank count of `dirac.hd_ktype_table`, and the g0-types of
  H_D).
- The strict Harish-Chandra inequality on a weight and on every
  g0-constituent of a collection: a condition on the g0-types that
  disagrees with unitarity, kept with the tests that pin its verdicts.
- The odd-subset oracles (the oracles for `weights.subset_labels` and
  `modules.even_character_sum`): Gamma_S as a sum of root weights, the
  labels lam - Gamma_S over the subsets S that avoid the atypicality set,
  the exterior character of n1^- as the product of (1 + e^{-gamma}) over the
  odd positive roots, and the sums of even characters written out: the
  Verma filtration's sum of ch M0(lam - Gamma_S) over every S and the
  filtration check on built Verma modules (the oracle for the PBW counts of
  `modules.verma_filtration_check`), and a signed sum over given (mu, c) of
  c ch L0(mu) or c ch F^mu, one module per term.
- The character-formula oracles: both formulas with one product
  (ext n1^-) (x) F^mu per table entry (the oracle for
  `analysis.character_formula_check`, which takes one signed compact sum),
  and ch F^mu with F^mu built mn levels deeper than the truncation needs.

The package itself never needs them."""

import itertools
import math
import operator
import weakref
from dataclasses import dataclass
from fractions import Fraction

from superdirac import analysis, dirac, exactla, modules, oscillator, uea
from superdirac.exactla import SparseRationalMatrix, _rat
from superdirac.weights import Weight, atypicality_set, pairing, subset_labels


# ----- the Fraction-tuple weight oracle ------------------------------------------------
@dataclass(frozen=True)
class FractionWeight:
    """A point of h* as two tuples of exact coordinates (`exactla._rat`), with
    every operation done coordinate by coordinate; zips are strict, so
    weights or drops of another shape raise ValueError."""

    eps: tuple
    del_: tuple

    @staticmethod
    def make(eps, del_):
        return FractionWeight(tuple(_rat(x) for x in eps), tuple(_rat(x) for x in del_))

    @staticmethod
    def of(w):
        """The oracle weight with the coordinates of a `weights.Weight`."""
        return FractionWeight.make(w.eps, w.del_)

    def coords(self):
        return self.eps + self.del_

    def __add__(self, other):
        return FractionWeight(
            tuple(_rat(a + b) for a, b in zip(self.eps, other.eps, strict=True)),
            tuple(_rat(a + b) for a, b in zip(self.del_, other.del_, strict=True)),
        )

    def __sub__(self, other):
        return FractionWeight(
            tuple(_rat(a - b) for a, b in zip(self.eps, other.eps, strict=True)),
            tuple(_rat(a - b) for a, b in zip(self.del_, other.del_, strict=True)),
        )

    def lower(self, drop):
        m = len(self.eps)
        return FractionWeight(
            tuple(_rat(a - b) for a, b in zip(self.eps, drop[:m], strict=True)),
            tuple(_rat(a - b) for a, b in zip(self.del_, drop[m:], strict=True)),
        )

    def __neg__(self):
        return FractionWeight(tuple(-a for a in self.eps), tuple(-a for a in self.del_))

    def scale(self, c):
        c = _rat(c)
        return FractionWeight(
            tuple(_rat(c * a) for a in self.eps), tuple(_rat(c * a) for a in self.del_)
        )

    def is_zero(self):
        return all(a == 0 for a in self.coords())

    def text(self):
        def fmt(x):
            return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"

        return ",".join(fmt(x) for x in self.eps) + "|" + ",".join(fmt(x) for x in self.del_)


def fraction_pairing(w1, w2):
    """The form of signature (+1)^m (+) (-1)^n, summed as Fractions."""
    s = Fraction(0)
    for a, b in zip(w1.eps, w2.eps, strict=True):
        s += a * b
    for a, b in zip(w1.del_, w2.del_, strict=True):
        s -= a * b
    return s


def fraction_height(datum, w):
    """The height functional on the exact coordinates of w."""
    return _rat(-sum(map(operator.mul, datum._u_positions, w.coords())))


def fraction_root_sort_key(datum, w):
    return (fraction_height(datum, w), w.coords())


# ----- generator-table oracles ---------------------------------------------------------
def basis_weight(datum, i):
    """Weight functional of the diagonal matrix unit E_ii (0-based index)."""
    unit = [int(k == i) for k in range(datum.m + datum.n)]
    return Weight(unit[: datum.m], unit[datum.m :])


def unit_root(alg, g):
    return basis_weight(alg.datum, g[0]) - basis_weight(alg.datum, g[1])


def unit_drop(alg, g):
    """Minus the root of g as ints."""
    return tuple(-int(c) for c in unit_root(alg, g).coords())


def unit_class(alg, g):
    if g[0] == g[1]:
        return "cartan"
    return "positive" if alg.datum.height(unit_root(alg, g)) > 0 else "negative"


def unit_order_key(alg, g):
    cls = unit_class(alg, g)
    cls_rank = {"negative": 0, "cartan": 1, "positive": 2}[cls]
    if cls == "cartan":
        return (cls_rank, 0, (g[0],))
    root = unit_root(alg, g)
    return (cls_rank, alg.datum.height(root), root.coords())


def units_in_pbw_order(alg):
    return sorted(
        ((i, j) for i in range(alg.dim) for j in range(alg.dim)),
        key=lambda g: unit_order_key(alg, g),
    )


def combine(*elements):
    """Sum of elements of U(g)."""
    out = {}
    for e in elements:
        for w, c in e.items():
            uea.add_into(out, w, c)
    return out


def scale(e, c):
    c = Fraction(c)
    return {w: c * v for w, v in e.items()} if c else {}


# ----- U(g) oracles ---------------------------------------------------------------
# straightened words per Algebra, kept as long as the Algebra lives
_NORMAL_CACHES = weakref.WeakKeyDictionary()


def first_inversion(alg, word):
    """The first position whose two letters are out of PBW order, or repeat
    an odd generator; None for a PBW word."""
    for idx in range(len(word) - 1):
        a, b = word[idx], word[idx + 1]
        ka, kb = alg.order_key(a), alg.order_key(b)
        if ka > kb or (a == b and alg.parity(a)):
            return idx
    return None


def normal_word(alg, word):
    """A word of generators in PBW normal order, by swapping the first
    inversion (plus its supercommutator) until none is left."""
    cache = _NORMAL_CACHES.setdefault(alg, {})
    cached = cache.get(word)
    if cached is not None:
        return cached
    idx = first_inversion(alg, word)
    if idx is None:
        result = {word: 1}
    elif word[idx] == word[idx + 1]:
        # odd g: g*g = (1/2)[g, g], and [E_ij, E_ij] = 0 for i != j
        result = {}
    else:
        a, b = word[idx], word[idx + 1]
        head, tail = word[:idx], word[idx + 2 :]
        result = {}
        sign = (-1) ** (alg.parity(a) * alg.parity(b))
        for w, c in normal_word(alg, head + (b, a) + tail).items():
            uea.add_into(result, w, sign * c)
        for bw, bc in alg.supercommutator(a, b).items():
            for w, c in normal_word(alg, head + bw + tail).items():
                uea.add_into(result, w, bc * c)
    cache[word] = result
    return result


def accumulate_pbw(alg, lam, word, coeff, out):
    """Add coeff times the PBW word applied to the highest weight vector of
    M(lam) into out: a raising letter kills it, a Cartan letter E_ii scales
    it by coordinate i of lam, and the lowering head is the monomial."""
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
        if alg.triangular_class(g) == "positive":
            return
        coeff *= coords[g[0]]
    uea.add_into(out, word[:neg_end], coeff)


def straightened_act(alg, lam, g, mono):
    """g applied to mono v_lam of M(lam) by straightening the word (g,) + mono
    in U(g) and projecting at v_lam (the oracle for `modules.act_word`)."""
    out = {}
    for w, c in normal_word(alg, (g,) + mono).items():
        accumulate_pbw(alg, lam, w, c, out)
    return out


def normal_order(alg, element):
    """An element of U(g) in PBW normal order, word by word."""
    out = {}
    for word, coeff in element.items():
        for w, c in normal_word(alg, word).items():
            uea.add_into(out, w, coeff * c)
    return out


def multiply(alg, x, y):
    prod = {}
    for wx, cx in x.items():
        for wy, cy in y.items():
            uea.add_into(prod, wx + wy, cx * cy)
    return normal_order(alg, prod)


def omega(alg, x):
    """Anti-involution of su(p,q|n): E_ij -> s_i s_j E_ji, order reversed."""
    out = {}
    for word, coeff in x.items():
        sign = 1
        new = []
        for g in reversed(word):
            og, s = alg.omega_gen(g)
            sign *= s
            new.append(og)
        uea.add_into(out, tuple(new), sign * coeff)
    return normal_order(alg, out)


def hc_project(alg, x):
    x = normal_order(alg, x)
    return {
        w: c for w, c in x.items() if all(alg.triangular_class(g) == "cartan" for g in w)
    }


def evaluate_at(alg, p, lam):
    coords = lam.coords()
    total = Fraction(0)
    for word, coeff in p.items():
        val = coeff
        for g in word:
            if alg.triangular_class(g) != "cartan":
                raise ValueError("evaluate_at requires an element of U(h)")
            val *= coords[g[0]]
        total += val
    return total


def shapovalov_pairing(alg, x, y, lam):
    """(X, Y)_L for X, Y in U(n^-): evaluate the Cartan part of omega(X) Y at L."""
    return evaluate_at(alg, hc_project(alg, multiply(alg, omega(alg, x), y)), lam)


def partial_k(alg, k):
    """The k-th odd raising generator (0-based index in the basis table)."""
    return {(alg.datum.odd_raising[k],): 1}


def x_k(alg, k):
    """The k-th odd lowering generator, including its sign."""
    return {(alg.datum.odd_lowering[k],): alg.datum.odd_lowering_sign[k]}


def act_letters(alg, lam, word, vec):
    """The product of generators `word` applied to a vector of M(lam), one
    letter at a time (the last letter acts first) through `modules.act_word`."""
    memo = {}
    for g in reversed(word):
        out = {}
        for mono, coeff in vec.items():
            for m, c in modules.act_word(alg, lam, g, mono, memo).items():
                uea.add_into(out, m, coeff * c)
        vec = out
    return vec


# ----- the Weyl algebra -------------------------------------------------------------
def x_op(k, dim):
    a = tuple(1 if i == k else 0 for i in range(dim))
    return {(a, (0,) * dim): Fraction(1)}


def d_op(k, dim):
    b = tuple(1 if i == k else 0 for i in range(dim))
    return {((0,) * dim, b): Fraction(1)}


def weyl_multiply(u, v):
    """Normal-ordered product; uses d^b x^c = sum_t C(b,t) C(c,t) t! x^{c-t} d^{b-t}."""
    out = {}
    for (a, b), cu in u.items():
        for (c, d), cv in v.items():
            dim = len(a)
            # straighten d^b x^c componentwise
            terms = [((0,) * dim, (0,) * dim, Fraction(1))]
            for k in range(dim):
                bk, ck = b[k], c[k]
                new_terms = []
                for xe, de, coeff in terms:
                    for t in range(min(bk, ck) + 1):
                        f = coeff * math.comb(bk, t) * math.comb(ck, t) * math.factorial(t)
                        xe2 = list(xe)
                        de2 = list(de)
                        xe2[k] = ck - t
                        de2[k] = bk - t
                        new_terms.append((tuple(xe2), tuple(de2), f))
                terms = new_terms
            for xe, de, coeff in terms:
                key = (
                    tuple(ai + xi for ai, xi in zip(a, xe)),
                    tuple(di + ei for di, ei in zip(de, d)),
                )
                uea.add_into(out, key, cu * cv * coeff)
    return out


def weyl_commutator(u, v):
    out = dict(weyl_multiply(u, v))
    for key, c in weyl_multiply(v, u).items():
        uea.add_into(out, key, -c)
    return out


def alpha_embed(osc, x):
    """alpha on a degree-1 element of g0, extended linearly from the
    generators; scalar terms are dropped."""
    out = {}
    for word, coeff in x.items():
        if len(word) != 1:
            if len(word) == 0:
                continue
            raise ValueError("alpha_embed expects a degree-1 element of g0")
        for key, c in osc.alpha_embed_gen(word[0]).items():
            uea.add_into(out, key, coeff * c)
    return out


def b_of_bracket(alg, g, u, v):
    """B(g, [u, v]) for odd generators u and v of the odd basis table, each
    given as (matrix unit, sign), via the supercommutator of g."""
    (a, sa), (b, sb) = u, v
    total = sum(c * alg.b_form(g, w[0]) for w, c in alg.supercommutator(a, b).items())
    return _rat(sa * sb * total)


def alpha_per_generator(osc, g):
    """alpha(g) in normal order from the bracket forms of g alone, every
    bracket of two odd generators evaluated for this one g (the oracle for
    the one pass of `oscillator.Oscillator.alpha_embed_gen` over the odd
    pairs)."""
    alg, dim = osc.alg, osc.dim
    datum = alg.datum
    xs = list(zip(datum.odd_lowering, datum.odd_lowering_sign))
    ds = [(u, 1) for u in datum.odd_raising]
    unit = [tuple(int(i == k) for i in range(dim)) for k in range(dim)]
    zero = (0,) * dim
    acc = {}
    for k in range(dim):
        for j in range(dim):
            pair = tuple(u + v for u, v in zip(unit[k], unit[j]))
            uea.add_into(acc, (pair, zero), b_of_bracket(alg, g, ds[k], ds[j]))
            uea.add_into(acc, (zero, pair), b_of_bracket(alg, g, xs[k], xs[j]))
            uea.add_into(acc, (unit[j], unit[k]), -2 * b_of_bracket(alg, g, xs[k], ds[j]))
    const = sum(b_of_bracket(alg, g, ds[l], xs[l]) for l in range(dim))
    uea.add_into(acc, (zero, zero), -const)
    return {key: _rat(c) for key, c in acc.items()}


def weyl_apply_loop(w, p):
    """`oscillator.weyl_apply` with d_k differentiating one power at a time,
    a term dropped once an exponent it lowers reaches 0 (the oracle for its
    falling factorials)."""
    out = {}
    for (a, b), c in w.items():
        for mono, pc in p.items():
            coeff = c * pc
            new = list(mono)
            ok = True
            for k, bk in enumerate(b):
                for _ in range(bk):
                    if new[k] == 0:
                        ok = False
                        break
                    coeff *= new[k]
                    new[k] -= 1
                if not ok:
                    break
            if not ok:
                continue
            for k, ak in enumerate(a):
                new[k] += ak
            uea.add_into(out, tuple(new), coeff)
    return out


def bargmann_fock(p, q):
    """(p, q) = sum over monomials x^a of p_a q_a prod_k a_k!."""
    total = Fraction(0)
    for mono, cp in p.items():
        cq = q.get(mono)
        if cq:
            total += cp * cq * math.prod(math.factorial(e) for e in mono)
    return total


def monomials_of_degree(dim, deg):
    """The exponent vectors of dim variables with sum deg, in descending
    lexicographic order, by recursion on the first exponent."""
    if dim == 1:
        return [(deg,)]
    out = []
    for first in range(deg, -1, -1):
        for rest in monomials_of_degree(dim - 1, deg - first):
            out.append((first,) + rest)
    return out


def quadratic_value(g, v):
    """v^T G v."""
    return sum((a * b for a, b in zip(v, g.apply(v))), Fraction(0))


def scaled(m, c):
    """The sparse matrix c m."""
    entries = {key: _rat(c * v) for key, v in m.entries.items()} if c else {}
    return SparseRationalMatrix(m.rows, m.cols, entries)


def identity_matrix(n):
    return SparseRationalMatrix(n, n, {(i, i): 1 for i in range(n)})


def fraction_rref(rows_data):
    """Reduced row echelon form by Gauss-Jordan elimination on Fractions;
    returns (matrix, pivot column list), zero rows included.

    Pivot = first nonzero entry scanning rows top-down within each column
    left-to-right. The oracle for the sparse elimination `exactla._rref`.
    """
    a = [[Fraction(x) for x in row] for row in rows_data]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(nrows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return a, pivots


def fraction_kernel(rows, cols):
    """The RREF kernel basis of `fraction_rref`: for each free column, the
    vector with 1 there and minus that column of the RREF at the pivots."""
    rr, pivots = fraction_rref(rows)
    basis = []
    for fcol in (c for c in range(cols) if c not in pivots):
        v = [Fraction(0)] * cols
        v[fcol] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rr[r][fcol]
        basis.append(tuple(v))
    return basis


def fraction_definiteness(g):
    """Symmetric Gaussian elimination with diagonal pivoting on a dense
    Fraction copy of G, tracking each working coordinate in the original
    coordinates; the oracle for the integer-row congruence
    `exactla.definiteness`.

    Positive-definite iff all pivots positive with full rank; semidefinite iff
    pivots nonnegative with deficient rank; otherwise indefinite with an exact
    negative-value witness vector.
    """
    if not g.is_symmetric():
        raise ValueError("definiteness requires a symmetric matrix")
    n = g.rows
    a = g.to_rows()
    # Track the congruence: a = L^T G L restricted step by step; to produce a
    # witness we track, for each working coordinate, its expression in the
    # original coordinates.
    coords = [[Fraction(1 if i == j else 0) for i in range(n)] for j in range(n)]
    active = list(range(n))
    pivot_record = []
    r = 0
    while active:
        # deterministic pivot: smallest active index with nonzero diagonal
        piv = next((k for k in active if a[k][k] != 0), None)
        if piv is None:
            # all active diagonals zero; if any off-diagonal entry is nonzero
            # the form is indefinite (hyperbolic pair), else it is zero here.
            off = None
            for k in active:
                for l in active:
                    if l > k and a[k][l] != 0:
                        off = (k, l)
                        break
                if off:
                    break
            if off is None:
                break
            k, l = off
            # v = e_k - sign(a[k][l]) e_l has value -2|a[k][l]| < 0
            s = 1 if a[k][l] > 0 else -1
            w = [ck - s * cl for ck, cl in zip(coords[k], coords[l])]
            return exactla.DefinitenessCertificate("indefinite", tuple(w), pivot_record)
        d = a[piv][piv]
        pivot_record.append((piv, d))
        if d < 0:
            return exactla.DefinitenessCertificate("indefinite", tuple(coords[piv]), pivot_record)
        r += 1
        active.remove(piv)
        # eliminate: replace e_k by e_k - (a[k][piv]/d) e_piv for active k
        for k in active:
            f = Fraction(a[k][piv], d)
            if f == 0:
                continue
            coords[k] = [ck - f * cp for ck, cp in zip(coords[k], coords[piv])]
            for l in active:
                a[k][l] -= f * a[piv][l]
            a[k][piv] = Fraction(0)
        for l in active:
            a[piv][l] = Fraction(0)
    if r == n:
        return exactla.DefinitenessCertificate("positive-definite", None, pivot_record)
    return exactla.DefinitenessCertificate("positive-semidefinite", None, pivot_record)


def is_positive_multiple(v, w):
    """v = c w for some rational c > 0, w nonzero."""
    lead = next(i for i, x in enumerate(w) if x)
    c = Fraction(v[lead], w[lead])
    return c > 0 and tuple(v) == tuple(c * x for x in w)


def cone_sums(w):
    """The eps- and del-partial sums of w's coordinates, for `in_even_cone`:
    (remainder mod 1 of each sum as a (numerator, denominator) pair, floor of
    each sum, floors of the two last sums)."""
    rems, floors, totals = [], [], []
    for part in (w.eps, w.del_):
        q = 0
        for s in itertools.accumulate(part):
            q, r = divmod(s, 1)
            rems.append((r.numerator, r.denominator))
            floors.append(q)
        totals.append(q)
    return tuple(rems), tuple(floors), tuple(totals)


def in_even_cone(w, below):
    """Is w - below a nonnegative integer combination of positive even roots?
    Both weights are given by their `cone_sums`.

    These are eps_i - eps_j and del_k - del_l (i < j, k < l), the positive
    roots of gl(m) and gl(n), whose simple roots e_i - e_{i+1} span the same
    cone; w = sum c_i (e_i - e_{i+1}) has c_i the i-th partial sum of its
    coordinates. So w - below lies in the cone iff, in the eps part and in the
    del part, every partial sum of w is that of below plus a nonnegative
    integer, and the last sums are equal."""
    rems, floors, totals = w
    return (
        rems == below[0]
        and totals == below[2]
        and all(map(operator.ge, floors, below[1]))
    )


# ----- the Dirac-block oracles --------------------------------------------------------
def block_gram(block):
    """G = (module Gram) (x) (Bargmann-Fock form), diagonal in the
    monomials: the form of each module block times a! on its x^a."""
    index, entries = block.index, {}
    for drop_m, a in dict.fromkeys((e[0], e[2]) for e in block.basis):
        bf = math.prod(map(math.factorial, a))
        for (i2, i), v in block.module.by_drop[drop_m].form.entries.items():
            entries[index[drop_m, i2, a], index[drop_m, i, a]] = _rat(v * bf)
    return SparseRationalMatrix(block.dim, block.dim, entries)


def dirac_quarters(block):
    """(d^{p1}, delta^{p1}, d^{q2}, delta^{q2}) of a Dirac block: the terms
    partial_k (x) x_k (d) and x_k (x) partial_k (delta), split by k < pn (p1)
    and k >= pn (q2), each summed into its own dict. `dirac.assemble_block`
    stores D = 2(d^{p1} + d^{q2} - delta^{p1} - delta^{q2}), so D's blocks
    C^{k+1} <- C^k between the cohomological degrees hold 2d, with
    d = d^{p1} - delta^{q2} (`kostant_d` reads d off D)."""
    module = block.module
    datum, alg = module.datum, module.alg
    d_p1, delta_p1, d_q2, delta_q2 = quarters = ({}, {}, {}, {})
    pn = datum.p * datum.n
    for col, (drop_m, i, a) in enumerate(block.basis):
        for k in range(datum.mn):
            dq = d_p1 if k < pn else d_q2
            deltaq = delta_p1 if k < pn else delta_q2
            g = datum.odd_raising[k]
            target = tuple(map(operator.add, drop_m, alg.gen_drop(g)))
            anew = a[:k] + (a[k] + 1,) + a[k + 1 :]
            for r, c in module.gen_columns(g, drop_m)[i]:
                row = block.index.get((target, r, anew))
                if row is not None:
                    uea.add_into(dq, (row, col), c)
            if a[k] > 0:
                g = datum.odd_lowering[k]
                target = tuple(map(operator.add, drop_m, alg.gen_drop(g)))
                anew = a[:k] + (a[k] - 1,) + a[k + 1 :]
                f = a[k] * datum.odd_lowering_sign[k]
                for r, c in module.gen_columns(g, drop_m)[i]:
                    row = block.index.get((target, r, anew))
                    if row is not None:
                        uea.add_into(deltaq, (row, col), f * c)
    return tuple(
        SparseRationalMatrix(block.dim, block.dim, {key: _rat(v) for key, v in q.items()})
        for q in quarters
    )


def quarters_adjoint(gram, quarters):
    """<d v, w> = <v, delta w> for both halves: d^T G = G delta for the
    pairs (d^{p1}, delta^{p1}) and (d^{q2}, delta^{q2})."""
    d_p1, delta_p1, d_q2, delta_q2 = quarters
    return all(
        d.transpose().matmul(gram).add(scaled(gram.matmul(delta), -1)).is_zero()
        for d, delta in ((d_p1, delta_p1), (d_q2, delta_q2))
    )


def kostant_d(block):
    """The Kostant differential d = d^{p1} - delta^{q2} of a Dirac block: the
    entries of D/2 that raise the cohomological degree. Every entry of D
    moves it by one; d^{q2} - delta^{p1}, the lowering half d', is the
    rest, so D = 2(d + d')."""
    deg = block.degrees()
    entries = {
        (i, j): v // 2 if type(v) is int and not v % 2 else Fraction(v, 2)
        for (i, j), v in block.D.entries.items()
        if deg[i] > deg[j]
    }
    return SparseRationalMatrix(block.dim, block.dim, entries)


def quarters_d(block):
    """d = d^{p1} - delta^{q2} rebuilt from `dirac_quarters`."""
    d_p1, _, _, delta_q2 = dirac_quarters(block)
    return d_p1.add(scaled(delta_q2, -1))


def kostant_per_degree(coll, differential=quarters_d):
    """(per_degree, dd_zero) of Kostant cohomology with each block's d given
    by `differential` (rebuilt from `dirac_quarters` by default): each h^k
    as the kernel dimension in degree k minus the rank of the image from
    degree k - 1 (two ranks per degree), and d^2 = 0 read off d d formed on
    the whole block. The oracle for `analysis.kostant_cohomology`."""
    datum = coll.module.datum
    per_degree = {}
    dd_zero = True
    for nu, block in coll.blocks.items():
        if block.dim == 0:
            continue
        d = differential(block)
        dd_zero = dd_zero and d.matmul(d).is_zero()
        degs = [oscillator.cohomological_degree(datum, a) for (_, _, a) in block.basis]
        idx_by_deg = {k: [i for i, dg in enumerate(degs) if dg == k] for k in sorted(set(degs))}
        for k, cols in idx_by_deg.items():
            rows_out = idx_by_deg.get(k + 1, [])
            rows_in = idx_by_deg.get(k - 1, [])
            ker_dim = len(cols) - exactla.rank(d.submatrix(rows_out, cols))
            h = ker_dim - exactla.rank(d.submatrix(cols, rows_in))
            if h:
                table = per_degree.setdefault(k, {})
                w = nu + datum.rho1
                table[w] = table.get(w, 0) + h
    return per_degree, dd_zero


def four_product_certificate(block):
    """(ok, witness, halves) of `dirac.anti_selfadjoint_certificate` from four
    products: D^T G + G D = 0, its first nonzero entry, and
    2(d^T G - G d) + G D = 0, with D^T G and d^T G formed as products."""
    g = block_gram(block)
    gd = g.matmul(block.D)
    lhs = block.D.transpose().matmul(g).add(gd)
    witness = None
    if lhs.entries:
        (i, j), v = sorted(lhs.entries.items())[0]
        witness = (i, j, v)
    d = kostant_d(block)
    d_adj = d.transpose().matmul(g).add(scaled(g.matmul(d), -1))
    return lhs.is_zero(), witness, scaled(d_adj, 2).add(gd).is_zero()


def key_union_certificate(g_D, g_d):
    """(ok, witness, halves) of `dirac.anti_selfadjoint_certificate` from the
    entries of G D and G d, the halves identity read at every key of either
    product and of the transpose of G d, three lookups per key (the oracle
    for its one pass over G d)."""
    lhs = {}
    for (i, j), v in g_D.items():
        w = v + g_D.get((j, i), 0)
        if w:
            lhs[i, j] = lhs[j, i] = w
    first = min(lhs, default=None)
    witness = None if first is None else (*first, lhs[first])
    halves = not any(
        2 * (g_d.get((j, i), 0) - g_d.get((i, j), 0)) + g_D.get((i, j), 0)
        for i, j in g_D.keys() | g_d.keys() | {(j, i) for i, j in g_d}
    )
    return first is None, witness, halves


def independent_vectors(vectors):
    """A basis of the span of the vectors: the nonzero rows of their RREF."""
    if not vectors:
        return []
    rows, pivots = fraction_rref([list(v) for v in vectors])
    return [tuple(rows[i]) for i in range(len(pivots))]


def column_space(columns):
    """A maximal independent subset of the columns, in order."""
    chosen, rows = [], []
    for col in columns:
        trial = rows + [list(col)]
        if len(fraction_rref(trial)[1]) > len(chosen):
            chosen.append(col)
            rows = trial
    return chosen


def intersect(space_a, space_b, dim):
    """Basis of span(a) intersect span(b)."""
    if not space_a or not space_b:
        return []
    a = SparseRationalMatrix.from_rows(
        [[v[i] for v in space_a] + [v[i] for v in space_b] for i in range(dim)]
    )
    out = []
    for kv in exactla.kernel_basis(a):
        vec = [sum((kv[j] * space_a[j][i] for j in range(len(space_a))), Fraction(0))
               for i in range(dim)]
        if any(vec):
            out.append(tuple(vec))
    return independent_vectors(out)


def cap_basis(block):
    """Basis of ker D intersect im D."""
    dim = block.dim
    cols = [tuple(col) for col in block.D.transpose().to_rows()]
    im_basis = column_space([c for c in cols if any(c)])
    return intersect(exactla.kernel_basis(block.D), im_basis, dim)


def classes_mod(kernel, cap):
    """Kernel vectors extending a basis of cap to a basis of the kernel."""
    chosen = []
    rows = [list(v) for v in cap]
    cur_rank = len(fraction_rref(rows)[1]) if rows else 0
    for v in kernel:
        trial = rows + [list(v)]
        r = len(fraction_rref(trial)[1])
        if r > cur_rank:
            chosen.append(v)
            rows = trial
            cur_rank = r
    return chosen


def _parity_split(block, vectors):
    even, odd = [], []
    for v in vectors:
        ve = tuple(x if p == 0 else Fraction(0) for x, p in zip(v, block.parity))
        vo = tuple(x if p == 1 else Fraction(0) for x, p in zip(v, block.parity))
        if any(ve):
            even.append(ve)
        if any(vo):
            odd.append(vo)
    return independent_vectors(even), independent_vectors(odd)


@dataclass
class OracleCohomology:
    """H_D of one block from explicit bases: the counts, and class
    representatives of H_D^+ and H_D^- (kernel vectors of each parity that
    extend a basis of ker D cap im D there)."""

    counts: dirac.BlockCohomology
    plus: list
    minus: list


def oracle_block_cohomology(block):
    """H_D = ker D / (ker D cap im D) from explicit bases of both spaces."""
    ker_even, ker_odd = _parity_split(block, exactla.kernel_basis(block.D))
    cap_even, cap_odd = _parity_split(block, cap_basis(block))
    n_even = sum(1 for p in block.parity if p == 0)
    counts = dirac.BlockCohomology(
        block.nu,
        block.dim,
        n_even,
        block.dim - n_even,
        len(ker_even) + len(ker_odd),
        len(cap_even) + len(cap_odd),
        len(ker_even) - len(cap_even),
        len(ker_odd) - len(cap_odd),
    )
    return OracleCohomology(counts, classes_mod(ker_even, cap_even), classes_mod(ker_odd, cap_odd))


def oracle_cohomology(coll):
    """`oracle_block_cohomology` of every block, by weight."""
    return {nu: oracle_block_cohomology(b) for nu, b in coll.blocks.items()}


def oracle_ktype_table(coll, oracle, sign, raising_set):
    """Classes of H_D^+ (sign=+1) or H_D^- (sign=-1) killed by every even
    ("even", H_D's g0-highest weights) or compact ("compact", the oracle for
    `dirac.hd_ktype_table`) raising operator, one generator at a time, each
    image reduced modulo ker D cap im D of the target block. The classes and
    the intersections are the intersection oracle's (`oracle_cohomology`),
    not the report under test's."""
    alg = coll.module.alg
    raising = [g for g in modules.generators(alg, +1, "all") if alg.parity(g) == 0]
    if raising_set == "compact":
        compact = {r.weight.coords() for r in coll.module.datum.pos_compact}
        raising = [g for g in raising if alg.gen_root(g).coords() in compact]
    table = {}
    for nu, ob in oracle.items():
        classes = ob.plus if sign > 0 else ob.minus
        if not classes:
            continue
        stacked = []
        for g in raising:
            target_nu = nu + alg.gen_root(g)
            tgt = coll.blocks.get(target_nu)
            if tgt is None:
                continue
            m = dirac.diagonal_action_matrix(coll.blocks[nu], tgt, g)
            cap = cap_basis(tgt) if oracle[target_nu].counts.ker_cap_im else []
            reduction = exactla.quotient(cap, tgt.dim).reduction
            imgs = [reduction.apply(m.apply(v)) for v in classes]
            for r in range(len(imgs[0])):
                stacked.append([img[r] for img in imgs])
        if not stacked:
            table[nu] = len(classes)
            continue
        k = len(exactla.kernel_basis(SparseRationalMatrix.from_rows(stacked)))
        if k:
            table[nu] = k
    return table


def highest_vectors(coll, nu):
    """The g0-highest vectors of a block as `dirac.dirac_square_audit` takes
    them, dense: one kernel of the block's even `dirac.raising_maps`,
    stacked."""
    block = coll.blocks[nu]
    maps = dirac.raising_maps(coll, block, "even")
    return exactla.kernel_basis(exactla.vstack([x for _, x in maps], block.dim))


def dense_g0_constituents(coll):
    """`dirac.g0_constituents` on dense vectors: the highest vectors of each
    block as `highest_vectors` gives them, D^2 v read as D.apply(D.apply(v))
    and checked on every coordinate against the lead entry, and s as one
    weight pairing (the oracle for the sparse D^2 check)."""
    datum, lam = coll.module.datum, coll.module.highest_weight
    entries = []
    for nu, block in coll.blocks.items():
        hvs = highest_vectors(coll, nu) if block.dim else []
        if not hvs:
            continue
        measured = set()
        for v in hvs:
            img = block.D.apply(block.D.apply(v))
            lead = next(i for i, x in enumerate(v) if x)
            if any(y * v[lead] != x * img[lead] for x, y in zip(v, img)):
                raise AssertionError(f"D^2 is not scalar on a highest vector at nu={nu.text()}")
            measured.add(_rat(Fraction(img[lead], v[lead])))
        if len(measured) != 1:
            raise AssertionError(f"distinct D^2 scalars on one isotypic label at nu={nu.text()}")
        c = measured.pop()
        s = _rat(dirac_scalar_pairing(datum, lam, nu + datum.rho1))
        entries.append(
            dirac.SquareAuditEntry(nu, nu + datum.rho1, len(hvs), s, c, c == -2 * s, block.drop)
        )
    return entries


def highest_vectors_per_generator(coll, nu):
    """Integer vectors spanning the part of the block killed by every even
    raising operator X_D, one map per generator with a target block."""
    block = coll.blocks[nu]
    alg = coll.module.alg
    mats = []
    for g in modules.generators(alg, +1, "even"):
        tgt = coll.by_drop.get(tuple(map(operator.add, block.drop, alg.gen_drop(g))))
        if tgt is not None:
            mats.append(dirac.diagonal_action_matrix(block, tgt, g))
    return exactla.kernel_basis(exactla.vstack(mats, block.dim))


def dirac_scalar_pairing(datum, lam, mu):
    """s = (mu - lam, mu + lam + 2 rho) as one pairing of weights."""
    return pairing(mu - lam, mu + lam + datum.rho.scale(2))


def dirac_scalar_two_pairings(datum, lam, mu):
    """s = (mu + 2 rho, mu) - (lam + 2 rho, lam) as two pairings of weights."""
    return pairing(mu + datum.rho.scale(2), mu) - pairing(lam + datum.rho.scale(2), lam)


# ----- the Harish-Chandra condition ------------------------------------------------------
def harish_chandra_condition(datum, lam):
    """Strict negativity (lam + rho0, beta) < 0 on all non-compact positive roots."""
    shifted = lam + datum.rho0
    return all(pairing(shifted, r.weight) < 0 for r in datum.pos_noncompact)


def harish_chandra_audit(coll):
    """Every g0-constituent (`dirac.g0_constituents`) has a highest weight
    satisfying the strict Harish-Chandra inequality. Not a unitarity check:
    on sl(2|1) at N=4 it holds on refuted -3,0|-3, -2,0|3 and -1,0|-1 and
    fails on the certified 0,0|0; the Dirac inequality agrees with
    `modules.certify_unitarity`."""
    entries = dirac.g0_constituents(coll)
    return all(harish_chandra_condition(coll.module.datum, e.nu0) for e in entries)


# ----- odd-subset oracles ---------------------------------------------------------------
def gamma_of_subset(datum, subset):
    """Gamma_S, the sum of the odd positive roots indexed by S."""
    total = datum.zero()
    for k in subset:
        total = total + datum.pos_odd[k].weight
    return total


def constituent_labels(datum, lam):
    """Subset labels lam - Gamma_S over S disjoint from the atypicality set."""
    atyp = {r.weight.coords() for r in atypicality_set(datum, lam)}
    out = []
    for size in range(datum.mn + 1):
        for subset in itertools.combinations(range(datum.mn), size):
            if any(datum.pos_odd[k].weight.coords() in atyp for k in subset):
                continue
            out.append((frozenset(subset), lam - gamma_of_subset(datum, subset)))
    return out


def odd_exterior_character(datum):
    """Character of the exterior algebra of the odd lowering part:
    product over odd positive roots of (1 + e^{-gamma})."""
    out = {datum.zero(): 1}
    for r in datum.pos_odd:
        nxt = {}
        for w, m in out.items():
            nxt[w] = nxt.get(w, 0) + m
            w2 = w - r.weight
            nxt[w2] = nxt.get(w2, 0) + m
        out = nxt
    return out


def filtration_even_sum(datum, lam, height):
    """Sum over every subset S of ch M0(lam - Gamma_S) on the weights nu with
    ht(lam - nu) <= height, one module built per label."""
    height = Fraction(height)
    total = {}
    for size in range(datum.mn + 1):
        for subset in itertools.combinations(range(datum.mn), size):
            hw = lam - gamma_of_subset(datum, subset)
            offset = datum.height(lam - hw)
            if offset > height:
                continue
            even = modules.even_verma_truncation(datum, hw, height - offset)
            for nu in even.blocks:
                if datum.height(lam - nu) > height:
                    continue
                total[nu] = total.get(nu, 0) + even.block_dim(nu)
    return total


def verma_filtration_by_modules(datum, lam, height):
    """`modules.verma_filtration_check` with the Verma modules built: ch M(lam)
    from the blocks of M(lam), the sum from one M0(lam - Gamma_S) per subset."""
    height = Fraction(height)
    left = modules.character(modules.verma_truncation(datum, lam, height))
    right = modules.VirtualCharacter(filtration_even_sum(datum, lam, height), lam)
    return modules.characters_equal_to_height(datum, left, right, lam, height)


def written_out_even_sum(datum, lam, terms, height, build):
    """Sum over the terms (mu, c) of c times the character of
    build(datum, mu, height - ht(lam - mu)) on the weights nu with
    ht(lam - nu) <= height, one module built per term, zeros dropped."""
    height = Fraction(height)
    total = {}
    for mu, c in terms:
        offset = datum.height(lam - mu)
        if offset > height:
            continue
        even = build(datum, mu, height - offset)
        for nu in even.blocks:
            d = even.block_dim(nu)
            if d and datum.height(lam - nu) <= height:
                total[nu] = total.get(nu, 0) + c * d
    return {nu: c for nu, c in total.items() if c}


# ----- character-formula oracles ----------------------------------------------------------
def compact_character(datum, mu, height):
    """ch F^mu to the given height (a negative height gives mu alone)."""
    mod = modules.compact_simple_truncation(datum, mu, max(height, Fraction(0)))
    return {nu: mod.block_dim(nu) for nu in mod.blocks if mod.block_dim(nu)}


def n_mu_character(datum, ext, mu, lam, height):
    """Character of (ext n1^-) (x) F^mu, truncated to the weights nu with
    ht(lam - nu) <= height; `ext` lists the weights -Gamma_S, one per
    subset S, and F^mu is built to height - ht(lam - mu)."""
    rel_height = height - datum.height(lam - mu)
    fmu = compact_character(datum, mu, rel_height)
    out = {}
    for w1 in ext:
        for w2, m2 in fmu.items():
            w = w1 + w2
            if datum.height(lam - w) <= height:
                out[w] = out.get(w, 0) + m2
    return {k: v for k, v in out.items() if v}


def character_formula_per_mu(coll, which):
    """`analysis.character_formula_check` with one product (ext n1^-) (x)
    F^mu per table entry, each F^mu built with its own Algebra."""
    module = coll.module
    datum = module.datum
    lam = module.highest_weight
    height = coll.height
    ext = [w for _, w, _ in subset_labels(datum, datum.zero())]
    right = {}
    if which == "kostant":
        kost = analysis.kostant_cohomology(coll)
        if not kost.dd_zero:
            return False, None
        for k, table in kost.per_degree.items():
            sign = -1 if k % 2 else 1
            for mu, m in table.items():
                for w, c in n_mu_character(datum, ext, mu, lam, height).items():
                    right[w] = right.get(w, 0) + sign * m * c
    else:
        cohom = dirac.dirac_cohomology(coll)
        plus = dirac.hd_ktype_table(coll, cohom, +1)
        minus = dirac.hd_ktype_table(coll, cohom, -1)
        for table, sign in ((plus, 1), (minus, -1)):
            for nu, m in table.items():
                mu = nu + datum.rho1
                for w, c in n_mu_character(datum, ext, mu, lam, height).items():
                    right[w] = right.get(w, 0) + sign * m * c
    return modules.characters_equal_to_height(
        datum, modules.character(module), modules.VirtualCharacter(right, lam), lam, height
    )


def compact_character_old_bound(datum, mu, lam, height):
    """ch F^mu on the weights nu with ht(lam - nu) <= height, with F^mu
    built mn levels deeper than ht(mu - nu) <= height - ht(lam - mu) needs."""
    rel_height = height - datum.height(lam - mu)
    fmu = compact_character(datum, mu, rel_height + datum.mn)
    return {nu: d for nu, d in fmu.items() if datum.height(lam - nu) <= height}
