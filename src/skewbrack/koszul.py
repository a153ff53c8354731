"""Chain-level oracle on the Koszul resolution of the polynomial ring.

Everything here evaluates circle products by explicit contraction
through the resolution: comultiply the basis element, evaluate the
inner cochain on the middle leg, twist the right leg, straighten the
resulting two-sided element with the contraction map phi, and evaluate
the outer cochain.  No closed formula is used, so these routines serve
as an independent check of the fast path in polyvec and bracket.
The seventeen coefficient identities phi rests on are checked by
appendix_suite, one table of linear relations on xi.

The contraction's tables (minors, substitutions, signed Sweedler
splits, and each operand's wedges, landing sets and monomial supports)
are built from scratch once per chain_bracket_cochain (or
chain_circle_avatar) call, in dicts local to it; all but the wedges and
supports are computed entry by entry, on the first read.  Only phi's integer weights persist, in the functools
caches of _weight and _phi_plan.  Two shortcuts keep the work down, and
each is exact.  A circle product x o y is zero, with no component
evaluated, when no monomial of y has a variable of a wedge of x: phi
keeps a term only if its middle monomial has a variable of its landing
set, and every landing set lies inside x's wedges.  And phi sums each
output coefficient in plain ints over one denominator, building one Cyc
per output key, since its weights are rational.  The values the oracle
builds itself (the tensor-square element handed to phi, each
component's polynomial, each avatar's polyvector) are filled through
_new, with no second check.
Nothing here reads the caches kept on matrices (Matrix.minors,
Matrix.images) or calls a fast-path product: act, minor_row,
monomial_image, circle_product (schouten) or Polyvector.wedge.  The
fast path's graded-law check, polyvec.schouten_graded_laws, lives
beside the bracket it checks.

Conventions:
  * o(v_1, ..., v_k) is the signed sum over permutations of tensor
    words, normalized so o of an increasing index tuple is a basis
    element of the degree-k resolution term.
  * Resolution terms are stored as dicts keyed by
    (wedge indices, left exponent tuple, right exponent tuple); the
    two-sided tensor square adds a middle exponent tuple and a second
    wedge block.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache
from itertools import combinations, product
from math import comb, factorial, prod
from operator import add, attrgetter, sub

from .cochain import Cochain
from .linalg import Matrix
from .scalars import Cyc, _lowest
from .polyvec import (
    Poly,
    Polyvector,
    SparseTerms,
    minor_det,
    monomials,
    rev_sign,
    sort_sign,
    subst_matrix,
)


def xi(s, t, z, r):
    """The contraction coefficient (r+z-1)!(t-r+s)! / ((r-1)!(t-r)!(s+t+z)!)."""
    if not (t >= 1 and 1 <= r <= t and s >= 0 and z >= 0):
        raise ValueError("xi needs t >= 1, 1 <= r <= t, s >= 0 and z >= 0")
    return Fraction(
        factorial(r + z - 1) * factorial(t - r + s),
        factorial(r - 1) * factorial(t - r) * factorial(s + t + z),
    )


def c_coeff(s, t, z, r):
    """Signed contraction coefficient (-1)^(sz+z) xi(s,t,z,r)."""
    sign = -1 if (s * z + z) % 2 else 1
    return sign * xi(s, t, z, r)


def _add_exp(a, b):
    return tuple(map(add, a, b))


class KoszulTerms(SparseTerms):
    """Cyc-valued terms over the polynomial ring in n variables; the key
    layout is fixed by the subclass."""

    __slots__ = ("n", "order")
    head = property(attrgetter("n", "order"))

    def __init__(self, n, order, terms):
        clean = {}
        for key, c in terms.items():
            c = Cyc.of(c, order)
            if not c.is_zero():
                clean[key] = c
        self._init(clean, n, order)


class KoszulElt(KoszulTerms):
    """Sum of terms  x^eL (tensor) o(x_I) (tensor) x^eR  with Cyc coefficients."""

    __slots__ = ()

    def __repr__(self):
        if not self.terms:
            return "KoszulElt(0)"
        bits = []
        for (idx, el, er), c in sorted(self.terms.items()):
            bits.append(f"{c}*[x^{el} o{tuple(i + 1 for i in idx)} x^{er}]")
        return " + ".join(bits)


class KoszulTensor2(KoszulTerms):
    """Sum of terms  x^eL (tensor) o(x_S) (tensor) x^eM (tensor) o(x_Z)
    (tensor) x^eR  over the polynomial ring: the tensor square of the
    resolution with its middle legs multiplied together."""

    __slots__ = ()

    @staticmethod
    def term(n, order, s_idx, z_idx, el, em, er):
        sgn1, key1 = sort_sign(s_idx)
        if sgn1 == 0:
            return KoszulTensor2.zero(n, order)
        sgn2, key2 = sort_sign(z_idx)
        if sgn2 == 0:
            return KoszulTensor2.zero(n, order)
        key = (key1, key2, tuple(el), tuple(em), tuple(er))
        return KoszulTensor2(n, order, {key: Cyc.of(sgn1 * sgn2, order)})


def _contractions(idx, left, right):
    """The terms of d on one wedge block idx between the polynomial legs
    left and right, as (rest, left, right, sign): letter j of idx is
    dropped, and x_i = idx[j] is added on the left leg with sign (-1)^j
    and on the right leg with sign -(-1)^j."""
    for j, i in enumerate(idx):
        rest = idx[:j] + idx[j + 1:]
        sgn = -1 if j % 2 else 1
        ei = tuple(1 if k == i else 0 for k in range(len(left)))
        yield rest, _add_exp(left, ei), right, sgn
        yield rest, left, _add_exp(right, ei), -sgn


def koszul_diff(e: KoszulElt) -> KoszulElt:
    """Differential of the resolution: d(a o(I) b) contracts one wedge
    index at a time into the left or right polynomial leg with
    alternating signs."""
    out = {}
    for (idx, el, er), c in e.terms.items():
        for rest, left, right, sgn in _contractions(idx, el, er):
            key, v = (rest, left, right), c * sgn
            out[key] = out[key] + v if key in out else v
    return KoszulElt(e.n, e.order, out)


def koszul2_diff(e: KoszulTensor2) -> KoszulTensor2:
    """Total differential on the tensor square: the resolution
    differential on the first factor plus, with the sign of the first
    wedge degree, the differential on the second factor.  Contractions
    hitting the shared middle leg multiply into the middle exponent."""
    out = {}
    for (s_idx, z_idx, el, em, er), c in e.terms.items():
        for rest, left, mid, sgn in _contractions(s_idx, el, em):
            key, v = (rest, z_idx, left, mid, er), c * sgn
            out[key] = out[key] + v if key in out else v
        outer = -1 if len(s_idx) % 2 else 1
        for rest, mid, right, sgn in _contractions(z_idx, em, er):
            key, v = (s_idx, rest, el, mid, right), c * (outer * sgn)
            out[key] = out[key] + v if key in out else v
    return KoszulTensor2(e.n, e.order, out)


def f_k(e: KoszulTensor2) -> KoszulElt:
    """Chain map from the tensor square back to the resolution: multiply
    out whichever factor has wedge degree zero (left factor positively,
    right factor negatively)."""
    n, order = e.n, e.order
    out = {}
    for (s_idx, z_idx, el, em, er), c in e.terms.items():
        if not s_idx:
            key = (z_idx, _add_exp(el, em), er)
            out[key] = out[key] + c if key in out else c
        if not z_idx:
            key, v = (s_idx, el, _add_exp(em, er)), -c
            out[key] = out[key] + v if key in out else v
    return KoszulElt(n, order, out)


def diagonal(e: KoszulElt) -> KoszulTensor2:
    """Comultiplication: split the wedge block into an ordered pair of
    complementary subsets with shuffle signs; outer legs stay put."""
    n, order = e.n, e.order
    out = {}
    zero = (0,) * n
    for (idx, el, er), c in e.terms.items():
        for part1, part2, sgn in splits_through(idx, ()):
            key, v = (part1, part2, el, zero, er), c * sgn
            out[key] = out[key] + v if key in out else v
    return KoszulTensor2(n, order, out)


def splits_through(idx, mid):
    """The ordered splittings of the increasing tuple idx into three
    blocks part1, mid, part3 with the given middle block mid, an
    increasing tuple of entries of idx, as (part1, part3, sign): the
    Sweedler triples of the comultiplication applied twice, the sign
    rearranging idx into part1 + mid + part3."""
    pos = {v: j for j, v in enumerate(idx)}
    rest = tuple(v for v in idx if v not in mid)
    for s1 in range(len(rest) + 1):
        for part1 in combinations(rest, s1):
            part3 = tuple(v for v in rest if v not in part1)
            sgn, _ = sort_sign([pos[v] for v in part1 + mid + part3])
            yield part1, part3, sgn


@cache
def _weight(s, t, z, r):
    """c_coeff(s, t, z, r) (r-1)! (t-r)!, the part of phi's weight that
    depends on (s, t, z, r) alone, as (numerator, denominator)."""
    f = c_coeff(s, t, z, r) * (factorial(r - 1) * factorial(t - r))
    return f.numerator, f.denominator


@cache
def _phi_plan(s_idx, z_idx, el, em, er):
    """What phi makes of the term x^el o(x_S) x^em o(x_Z) x^er with
    coefficient 1: a tuple of (key, numerator, denominator), one per
    absorbed variable and split of the rest of the middle monomial, the
    keys repeating where two of them land on one output term.  Kept
    across calls, one entry per distinct term key that phi meets; the
    oracle's keys have zero outer legs, so it adds one per pair of
    wedge blocks and monomial of an inner operand."""
    s, z, t = len(s_idx), len(z_idx), sum(em)
    plan = []
    for i, a_i in enumerate(em):
        if a_i == 0:
            continue
        wsgn, wkey = sort_sign(z_idx + (i,) + s_idx)
        if wsgn == 0:
            continue
        beta = list(em)
        beta[i] -= 1
        for lpart in product(*[range(b + 1) for b in beta]):
            w_num, w_den = _weight(s, t, z, sum(lpart) + 1)
            rest = tuple(map(sub, beta, lpart))
            plan.append(((wkey, _add_exp(el, lpart), _add_exp(er, rest)),
                         w_num * wsgn * a_i * prod(map(comb, beta, lpart)), w_den))
    return tuple(plan)


def phi(e: KoszulTensor2) -> KoszulElt:
    """Contracting homotopy straightening the tensor square into the
    resolution.  On a term with wedge blocks U (left factor) and W
    (right factor) and middle monomial x^alpha, each middle variable
    x_i is absorbed into the wedge as o(W, i, U) while the remaining
    middle factors split around it; the permutation sum collapses to
    multiset weights c_coeff(s,t,z,r) (r-1)! (t-r)! alpha_i
    C(beta, L).  Each weight is rational and scales a coefficient's
    integer numerators and denominator; _phi_plan lists the weights of
    one term key, computed once.  A rational weight keeps the power
    basis, so each output key is summed in plain ints, as
    [denominator, numerators...] over one denominator that each addend
    widens when it does not divide it, and _lowest makes the sum one
    Cyc."""
    n, order = e.n, e.order
    out = {}  # key -> [denominator, numerators...]
    for term, c in e.terms.items():
        num, cden = c.num, c.den
        for key, scale, w_den in _phi_plan(*term):
            den = cden * w_den
            acc = out.get(key)
            if acc is None:
                out[key] = [den, *[a * scale for a in num]]
                continue
            top = acc[0]
            if top % den:
                # over a common multiple of both denominators
                wide = den if den % top == 0 else top * den
                up = wide // top
                acc[:] = [wide, *[a * up for a in acc[1:]]]
                top = wide
            scale *= top // den
            for j, a in enumerate(num, 1):
                acc[j] += a * scale
    terms = {}
    for key, (den, *sums) in out.items():
        if any(sums):
            terms[key] = _lowest(order, sums, den)
    return KoszulElt._new(terms, n, order)


def homotopy_residual(e: KoszulTensor2) -> KoszulElt:
    """d phi(e) + phi(d e) - F(e); identically zero when phi is a
    contracting homotopy for the multiplication chain map."""
    return koszul_diff(phi(e)) + phi(koszul2_diff(e)) - f_k(e)


class _Minors(dict):
    """By column block, the nonzero minors of hmat on those columns, as
    (rows, det, -det), computed on the first read.  Only the row blocks
    of rows that are nonzero on the columns are tried: a minor with a
    zero row is zero."""

    def __init__(self, hmat):
        self.hmat = hmat

    def __missing__(self, cols):
        hmat = self.hmat
        live = [r for r, row in enumerate(hmat.rows) if any(row[c] for c in cols)]
        got = self[cols] = []
        for rows in combinations(live, len(cols)):
            d = minor_det(hmat, rows, cols)
            if d:
                got.append((rows, d, -d))
        return got


class _Images(dict):
    """By exponent tuple, the terms of subst_matrix(x^exps, gmat),
    computed on the first read; the constant monomial, which every
    substitution fixes, is there from the start."""

    def __init__(self, gmat):
        self.gmat = gmat
        zero = (0,) * gmat.nrows
        self[zero] = {zero: Cyc.one(gmat.order)}

    def __missing__(self, exps):
        gmat = self.gmat
        got = self[exps] = subst_matrix(Poly.monomial(exps, 1, gmat.order), gmat).terms
        return got


class _Splits(dict):
    """By (idx, mid), the splits_through triples as (part1, part3,
    sign), the sign times the pairing sign of mid and the Koszul sign
    (-1)^(|part1| |mid|) that moves the middle cochain past part1."""

    def __missing__(self, key):
        idx, mid = key
        pairing = rev_sign(len(mid))
        got = self[key] = [
            (part1, part3, -eps * pairing if len(part1) * len(mid) % 2 else eps * pairing)
            for part1, part3, eps in splits_through(idx, mid)]
        return got


def _support(exps):
    """The variables of a monomial, as a bitmask."""
    return sum(1 << i for i, e in enumerate(exps) if e)


class _Operand(dict):
    """The tables of one polyvector p of a circle product; variables
    are held as bitmasks.

    As the inner operand: `monomials`, p's terms as wedge -> list of
    (exponents, _support, coefficient), and `support`, the union of the
    supports of all of them.
    As the outer operand: `targets`, p's wedges by size, `reach`, the
    variables of all of them, and, as a dict by (part1, rows), the
    variables whose absorption carries the two blocks onto a wedge of
    p, computed on the first read: the landing set, inside reach."""

    def __init__(self, p):
        self.targets, reach = {}, 0
        for w in p.terms:
            self.targets.setdefault(len(w), []).append(set(w))
            for i in w:
                reach |= 1 << i
        self.reach, self.monomials, support = reach, {}, 0
        for w, q in p.terms.items():
            mons = self.monomials[w] = [(e, _support(e), c) for e, c in q.terms.items()]
            for _, bits, _ in mons:
                support |= bits
        self.support = support

    def __missing__(self, key):
        part1, rows = key
        blocks, landing = set(part1) | set(rows), 0
        if len(blocks) == len(part1) + len(rows):
            for w in self.targets.get(len(blocks) + 1, ()):
                if blocks < w:
                    (i,) = w - blocks
                    landing |= 1 << i
        self[key] = landing
        return landing


def _tables(x, gmat, y, hmat):
    """Fresh tables of one circle product, as chain_circle_component's memo."""
    return _Minors(hmat), _Images(gmat), _Splits(), _Operand(x), _Operand(y)


def chain_circle_component(x: Polyvector, gmat: Matrix, y: Polyvector,
                           hmat: Matrix, idx, memo) -> Poly:
    """Value of (x tagged gmat) circle (y tagged hmat) on the resolution
    basis element o(x_idx), idx increasing, as the polynomial sitting
    left of the product group tag.

    The contraction: comultiply o(x_idx) into Sweedler triples, evaluate
    y on the middle block (a Koszul sign (-1)^(|w1| |y|) moves y past the
    first block), twist the third block by hmat, straighten with phi,
    then evaluate x on the result with its right leg twisted by gmat.

    Only the triples whose middle block is a wedge of y are walked, and
    only the terms phi can carry onto a wedge of x are kept: a term with
    blocks U and W and middle monomial x^alpha lands on the wedges
    W + {i} + U for the variables i of alpha.  All kept terms go through
    one phi call, which is linear.  `memo` holds the tables one oracle
    evaluation shares, each filled as it is read: the nonzero
    minors of hmat by column block, the subst_matrix images of monomials
    under gmat, the signed splits_through lists by (idx, mid), and the
    _Operand tables of x and of y, as _tables builds them."""
    n, order = x.n, x.order
    idx = tuple(idx)
    minors, images, splits, outer, inner = memo
    zero = (0,) * n
    span = set(idx)
    t2 = {}
    for mid, mons in inner.monomials.items():
        if not span.issuperset(mid):
            continue
        for part1, part3, sign in splits[(idx, mid)]:
            for rows, d, nd in minors[part3]:
                landing = outer[(part1, rows)]
                if not landing:
                    continue
                dq = d if sign == 1 else nd
                for em, support, qc in mons:
                    if support & landing:
                        key = (part1, rows, zero, em, zero)
                        v = qc * dq
                        t2[key] = t2[key] + v if key in t2 else v
    t2 = {k: v for k, v in t2.items() if v}
    if not t2:
        return Poly._new({}, n, order)
    acc = {}
    for (widx, el, er), c in phi(KoszulTensor2._new(t2, n, order)).terms.items():
        inner_x = x.terms.get(widx)
        if inner_x is None:
            continue
        if rev_sign(len(widx)) == -1:
            c = -c
        right = images[er]
        for e1, c1 in inner_x.terms.items():
            left = _add_exp(el, e1)
            cc = c * c1
            for e2, c2 in right.items():
                e = _add_exp(left, e2)
                v = cc * c2
                acc[e] = acc[e] + v if e in acc else v
    return Poly._new({e: v for e, v in acc.items() if v}, n, order)


def chain_circle_avatar(
    x: Polyvector, gmat: Matrix, y: Polyvector, hmat: Matrix
) -> Polyvector:
    """Polyvector avatar of the chain-level circle product: evaluate on
    every basis wedge of the correct degree and re-express in the d_I
    basis (the reversed-word pairing sign enters once per component).
    The components share one set of tables (see chain_circle_component).

    Two skips, each of components that are zero.  A wedge containing no
    wedge of y is skipped.  And when no monomial of y has a variable of
    a wedge of x, no component is evaluated at all: a term is kept only
    if its middle monomial has a variable of its landing set, and every
    landing set lies inside x's wedges.  That takes every y with
    constant coefficients."""
    return _circle_avatar(x, gmat, y, hmat, x.degree() + y.degree() - 1, 1,
                          _tables(x, gmat, y, hmat))


def _circle_avatar(x, gmat, y, hmat, deg, sign, memo):
    """chain_circle_avatar of the given exterior degree deg, times the
    sign, +1 or -1, folded into the reversed-word pairing sign."""
    n, order = x.n, x.order
    outer, inner = memo[3:]
    if deg < 0 or not outer.reach & inner.support:
        return Polyvector._new({}, n, order)
    negate = rev_sign(deg) != sign
    comps = {}
    for idx in combinations(range(n), deg):
        span = set(idx)
        if any(map(span.issuperset, y.terms)):
            v = chain_circle_component(x, gmat, y, hmat, idx, memo)
            if v.terms:
                comps[idx] = (Poly._new({e: -c for e, c in v.terms.items()}, n, order)
                              if negate else v)
    return Polyvector._new(comps, n, order)


def chain_bracket_avatar(
    x: Polyvector, gmat: Matrix, y: Polyvector, hmat: Matrix
) -> Polyvector:
    """Graded commutator of chain-level circle products (both tagged
    products land on the same group element when the tags commute;
    callers handle the general bookkeeping)."""
    first = chain_circle_avatar(x, gmat, y, hmat)
    second = chain_circle_avatar(y, hmat, x, gmat)
    sign = -1 if ((x.degree() - 1) * (y.degree() - 1)) % 2 else 1
    return first - second * sign


def appendix_suite(bound):
    """Exact sweep of the seventeen coefficient identities behind phi.

    One row per identity, in the paper's order: its name, its domain
    (every valid (s, t, z, r) of its statement with s, t and z at most
    bound), its right-hand side (0 or 1/t!) and its left side, a linear
    relation on xi given as the (c, s', t', z', r') terms of
    c * xi(s', t', z', r').  A term whose coefficient is zero is dropped
    before xi is evaluated, so no relation asks xi for s - 1 or z - 1
    below 0.  Returns (identity, (s, t, z, r), holds) triples, one per
    checked instance.
    """
    pos, nat = range(1, bound + 1), range(bound + 1)

    def domain(ss, zs, rs):
        return [(s, t, z, r) for s in ss for z in zs for t in pos for r in rs(t)]

    zero, unit = (lambda s, t, z, r: 0), (lambda s, t, z, r: Fraction(1, factorial(t)))
    last, first, every = (lambda t: (t,)), (lambda t: (1,)), (lambda t: range(1, t + 1))
    below, above = (lambda t: range(1, t)), (lambda t: range(2, t + 1))
    table = [
        ("lEQ1", domain(pos, (0,), last), zero, lambda s, t, z, r: [
            (1, s, t, 0, t), (-s, s - 1, t + 1, 0, t + 1)]),
        ("lEQ2", domain(pos, (0,), first), unit, lambda s, t, z, r: [
            (1, s, t, 0, 1), (s, s - 1, t + 1, 0, 1)]),
        ("lEQ3", domain(pos, (0,), every), zero, lambda s, t, z, r: [
            (1, s, t, 0, r), (-1, s - 1, t, 0, r), (r, s - 1, t + 1, 0, r + 1)]),
        ("lEQ4", domain(pos, (0,), every), zero, lambda s, t, z, r: [
            (1, s, t, 0, r), (-(t - r + 1), s - 1, t + 1, 0, r)]),
        ("lEQ5", domain(pos, (0,), below), zero, lambda s, t, z, r: [
            (1, s, t, 0, r), (-1, s, t, 0, r + 1), (-s, s - 1, t + 1, 0, r + 1)]),
        ("rEQ1", domain((0,), pos, last), unit, lambda s, t, z, r: [
            (1, 0, t, z, t), (z, 0, t + 1, z - 1, t + 1)]),
        ("rEQ2", domain((0,), pos, first), zero, lambda s, t, z, r: [
            (1, 0, t, z, 1), (-z, 0, t + 1, z - 1, 1)]),
        ("rEQ3", domain((0,), pos, every), zero, lambda s, t, z, r: [
            (r, 0, t + 1, z - 1, r + 1), (-1, 0, t, z, r)]),
        ("rEQ4", domain((0,), pos, every), zero, lambda s, t, z, r: [
            (1, 0, t, z - 1, r), (-(t - r + 1), 0, t + 1, z - 1, r), (-1, 0, t, z, r)]),
        ("rEQ5", domain((0,), pos, above), zero, lambda s, t, z, r: [
            (1, 0, t, z, r - 1), (-1, 0, t, z, r), (z, 0, t + 1, z - 1, r)]),
        ("lrEQ1", domain(pos, nat, every), zero, lambda s, t, z, r: [
            (1, s, t, z, r), (r, s - 1, t + 1, z, r + 1), (-1, s - 1, t, z, r)]),
        ("lrEQ2", domain(pos, nat, every), zero, lambda s, t, z, r: [
            (t - r + 1, s - 1, t + 1, z, r), (-1, s, t, z, r)]),
        ("lrEQ3", domain(nat, pos, every), zero, lambda s, t, z, r: [
            (r, s, t + 1, z - 1, r + 1), (-1, s, t, z, r)]),
        ("lrEQ4", domain(nat, pos, every), zero, lambda s, t, z, r: [
            (1, s, t, z, r), (t - r + 1, s, t + 1, z - 1, r), (-1, s, t, z - 1, r)]),
        ("lrEQ5", domain(nat, nat, below), zero, lambda s, t, z, r: [
            (1, s, t, z, r), (-1, s, t, z, r + 1), (z, s, t + 1, z - 1, r + 1),
            (-s, s - 1, t + 1, z, r + 1)]),
        ("lrEQ6", domain(pos, nat, last), zero, lambda s, t, z, r: [
            (-s, s - 1, t + 1, z, t + 1), (1, s, t, z, t), (z, s, t + 1, z - 1, t + 1)]),
        ("lrEQ7", domain(nat, pos, first), zero, lambda s, t, z, r: [
            (z, s, t + 1, z - 1, 1), (-1, s, t, z, 1), (-s, s - 1, t + 1, z, 1)]),
    ]
    return [(name, tup, sum(c * xi(*args) for c, *args in terms(*tup) if c) == rhs(*tup))
            for name, tuples, rhs, terms in table for tup in tuples]


def homotopy_sweep(n, max_s, max_z, max_t):
    """Evaluate the homotopy residual on every basis element of the
    tensor square over Q with |S| <= max_s, |Z| <= max_z, middle degree
    <= max_t.

    Returns (checked, failures) where failures lists offending
    (S, Z, middle exponent) keys; an empty list is the expected outcome.
    """
    checked, failures = 0, []
    zero = (0,) * n

    def wedges(k):
        return [c for j in range(min(n, k) + 1) for c in combinations(range(n), j)]

    for s_idx, z_idx in product(wedges(max_s), wedges(max_z)):
        for t in range(max_t + 1):
            for em in monomials(n, t):
                e = KoszulTensor2.term(n, 1, s_idx, z_idx, zero, em, zero)
                checked += 1
                if not homotopy_residual(e).is_zero():
                    failures.append((s_idx, z_idx, em))
    return checked, failures


def chain_bracket_cochain(x, y):
    """Graded commutator of chain-level circle products, assembled into
    a cochain through the basis pairing.  The component pairs share the
    tables of chain_circle_component's memo, built for this call."""
    if x.group is not y.group:
        raise ValueError("cochains live over different groups")
    group = x.group
    sign = -1 if ((x.degree - 1) * (y.degree - 1)) % 2 else 1
    out = {}
    minors = {k: _Minors(group.matrices[k]) for k in {*x.terms, *y.terms}}
    images = {k: _Images(group.matrices[k]) for k in minors}
    splits = _Splits()
    ops_x = {a: _Operand(xg) for a, xg in x.terms.items()}
    ops_y = {b: _Operand(yh) for b, yh in y.terms.items()}

    def add(k, pv):
        if pv.is_zero():
            return
        out[k] = out[k] + pv if k in out else pv

    deg = x.degree + y.degree - 1
    for a, xg in x.terms.items():
        for b, yh in y.terms.items():
            ga, gb = group.matrices[a], group.matrices[b]
            add(group.mult_table[a][b], _circle_avatar(
                xg, ga, yh, gb, deg, 1, (minors[b], images[a], splits, ops_x[a], ops_y[b])))
            add(group.mult_table[b][a], _circle_avatar(
                yh, gb, xg, ga, deg, -sign, (minors[a], images[b], splits, ops_y[b], ops_x[a])))
    return Cochain(group, deg, out)


def vector_field_commutator(x: Polyvector, y: Polyvector) -> Polyvector:
    """Commutator of two vector fields computed directly as derivations,
    with no reference to the circle product: [x, y](x_j) = x(y_j) - y(x_j).
    """
    for pv in (x, y):
        if any(len(idx) != 1 for idx in pv.terms):
            raise ValueError("inputs must be vector fields (degree one)")
    n, order = x.n, x.order
    zero = Poly.zero(n, order)
    comps = {}
    for j in range(n):
        acc = zero
        fj = x.terms.get((j,), zero)
        gj = y.terms.get((j,), zero)
        for i in range(n):
            fi = x.terms.get((i,))
            gi = y.terms.get((i,))
            if fi is not None:
                acc = acc + fi * gj.deriv(i)
            if gi is not None:
                acc = acc - gi * fj.deriv(i)
        if not acc.is_zero():
            comps[(j,)] = acc
    return Polyvector(n, order, comps)


def schouten_random_check(count, seed):
    """Compare the chain-level bracket against the derivation commutator
    on random pairs of vector fields on k^3 over the trivial group, each
    a sum of three terms with exponents at most 2.

    Returns (checked, failures); the two computations share nothing, so
    agreement pins down both sign conventions at degree (1, 1).
    """
    n, max_exp = 3, 2
    rng = random.Random(seed)
    ident = Matrix.identity(n, 1)

    def random_field():
        # drawn again until nonzero, so that every one of the count
        # pairs is compared
        out = Polyvector.zero(n, 1)
        while out.is_zero():
            for _ in range(3):
                exps = tuple(rng.randrange(max_exp + 1) for _ in range(n))
                out = out + Polyvector.term(rng.randrange(-2, 3), exps,
                                            (rng.randrange(n),), 1)
        return out

    failures = []
    for k in range(count):
        x, y = random_field(), random_field()
        got = chain_bracket_avatar(x, ident, y, ident)
        want = vector_field_commutator(x, y)
        if got != want:
            failures.append(k)
    return count, failures
