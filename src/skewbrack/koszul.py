"""Chain-level oracle on the Koszul resolution of the polynomial ring.

Everything here evaluates circle products by explicit contraction
through the resolution: comultiply the basis element, evaluate the
inner cochain on the middle leg, twist the right leg, straighten the
resulting two-sided element with the contraction map phi, and evaluate
the outer cochain.  No closed formula is used, so these routines serve
as an independent check of the fast path in polyvec and bracket.

The contraction's tables (minors, substitutions, Sweedler splits, the
outer polyvector's wedges) are built from scratch once per
chain_bracket_cochain (or chain_circle_avatar) call, in dicts local to
it; only phi's integer weights persist.  Nothing here reads the
caches kept on matrices (Matrix.minors, Matrix.images) or calls a
fast-path product: act, minor_row, monomial_image, circle_product
(schouten) or Polyvector.wedge.  The fast path's graded-law check,
polyvec.schouten_graded_laws, lives beside the bracket it checks.

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


def _zero_exp(n):
    return (0,) * n


def _add_exp(a, b):
    return tuple(map(add, a, b))


class KoszulTerms(SparseTerms):
    """Cyc-valued terms over the polynomial ring in n variables; the key
    layout is fixed by the subclass."""

    __slots__ = ("n", "order")
    head = property(attrgetter("n", "order"))

    def __init__(self, n, order, terms=None):
        clean = {}
        for key, c in (terms or {}).items():
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
    def term(n, order, s_idx, z_idx, el, em, er, coeff=1):
        sgn1, key1 = sort_sign(s_idx)
        if sgn1 == 0:
            return KoszulTensor2.zero(n, order)
        sgn2, key2 = sort_sign(z_idx)
        if sgn2 == 0:
            return KoszulTensor2.zero(n, order)
        c = Cyc.of(coeff, order) * (sgn1 * sgn2)
        return KoszulTensor2(n, order, {(key1, key2, tuple(el), tuple(em), tuple(er)): c})


def _adder(out):
    """put(key, c) adds c to out[key]."""
    def put(key, c):
        out[key] = out[key] + c if key in out else c
    return put


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
    put = _adder(out)
    for (idx, el, er), c in e.terms.items():
        for rest, left, right, sgn in _contractions(idx, el, er):
            put((rest, left, right), c * sgn)
    return KoszulElt(e.n, e.order, out)


def koszul2_diff(e: KoszulTensor2) -> KoszulTensor2:
    """Total differential on the tensor square: the resolution
    differential on the first factor plus, with the sign of the first
    wedge degree, the differential on the second factor.  Contractions
    hitting the shared middle leg multiply into the middle exponent."""
    out = {}
    put = _adder(out)
    for (s_idx, z_idx, el, em, er), c in e.terms.items():
        for rest, left, mid, sgn in _contractions(s_idx, el, em):
            put((rest, z_idx, left, mid, er), c * sgn)
        outer = -1 if len(s_idx) % 2 else 1
        for rest, mid, right, sgn in _contractions(z_idx, em, er):
            put((s_idx, rest, el, mid, right), c * (outer * sgn))
    return KoszulTensor2(e.n, e.order, out)


def f_k(e: KoszulTensor2) -> KoszulElt:
    """Chain map from the tensor square back to the resolution: multiply
    out whichever factor has wedge degree zero (left factor positively,
    right factor negatively)."""
    n, order = e.n, e.order
    out = {}
    put = _adder(out)
    for (s_idx, z_idx, el, em, er), c in e.terms.items():
        if not s_idx:
            put((z_idx, _add_exp(el, em), er), c)
        if not z_idx:
            put((s_idx, el, _add_exp(em, er)), -c)
    return KoszulElt(n, order, out)


def diagonal(e: KoszulElt) -> KoszulTensor2:
    """Comultiplication: split the wedge block into an ordered pair of
    complementary subsets with shuffle signs; outer legs stay put."""
    n, order = e.n, e.order
    out = {}
    put = _adder(out)
    zero = _zero_exp(n)
    for (idx, el, er), c in e.terms.items():
        for part1, part2, sgn in splits_through(idx, ()):
            put((part1, part2, el, zero, er), c * sgn)
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


_WEIGHTS = {}


def phi(e: KoszulTensor2) -> KoszulElt:
    """Contracting homotopy straightening the tensor square into the
    resolution.  On a term with wedge blocks U (left factor) and W
    (right factor) and middle monomial x^alpha, each middle variable
    x_i is absorbed into the wedge as o(W, i, U) while the remaining
    middle factors split around it; the permutation sum collapses to
    multiset weights c_coeff(s,t,z,r) (r-1)! (t-r)! alpha_i
    C(beta, L).  Each weight is rational and scales a coefficient's
    integer numerators and denominator; its part that depends on
    (s, t, z, r) alone is kept in _WEIGHTS as two ints."""
    n, order = e.n, e.order
    out = {}
    for (s_idx, z_idx, el, em, er), c in e.terms.items():
        s, z, t = len(s_idx), len(z_idx), sum(em)
        for i in range(n):
            a_i = em[i]
            if a_i == 0:
                continue
            wsgn, wkey = sort_sign(z_idx + (i,) + s_idx)
            if wsgn == 0:
                continue
            beta = list(em)
            beta[i] -= 1
            for lpart in product(*[range(b + 1) for b in beta]):
                r = sum(lpart) + 1
                w = _WEIGHTS.get((s, t, z, r))
                if w is None:
                    f = c_coeff(s, t, z, r) * (factorial(r - 1) * factorial(t - r))
                    w = _WEIGHTS[(s, t, z, r)] = (f.numerator, f.denominator)
                scale = w[0] * wsgn * a_i * prod(map(comb, beta, lpart))
                v = _lowest(order, [a * scale for a in c.num], c.den * w[1])
                rest = tuple(map(sub, beta, lpart))
                key = (wkey, _add_exp(el, lpart), _add_exp(er, rest))
                out[key] = out[key] + v if key in out else v
    return KoszulElt._new({k: v for k, v in out.items() if v}, n, order)


def homotopy_residual(e: KoszulTensor2) -> KoszulElt:
    """d phi(e) + phi(d e) - F(e); identically zero when phi is a
    contracting homotopy for the multiplication chain map."""
    return koszul_diff(phi(e)) + phi(koszul2_diff(e)) - f_k(e)


def _column_minors(minors, hmat, cols):
    """The nonzero minors of hmat on columns cols, as (rows, det, -det)."""
    got = minors.get(cols)
    if got is None:
        got = []
        for rows in combinations(range(hmat.nrows), len(cols)):
            d = minor_det(hmat, rows, cols)
            if not d.is_zero():
                got.append((rows, d, -d))
        minors[cols] = got
    return got


def _image(images, gmat, exps):
    """The terms of subst_matrix(x^exps, gmat)."""
    got = images.get(exps)
    if got is None:
        got = images[exps] = subst_matrix(Poly.monomial(exps, 1, gmat.order), gmat).terms
    return got


class _Landing(dict):
    """By (part1, rows), the variables whose absorption carries the two
    blocks onto a wedge of x; `targets` holds x's wedges by size."""

    def __init__(self, x):
        self.targets = {}
        for w in x.terms:
            self.targets.setdefault(len(w), []).append(set(w))

    def __missing__(self, key):
        part1, rows = key
        outer, landing = set(part1) | set(rows), set()
        if len(outer) == len(part1) + len(rows):
            for w in self.targets.get(len(outer) + 1, ()):
                if outer < w:
                    landing |= w - outer
        got = self[key] = tuple(landing)
        return got


def chain_circle_component(x: Polyvector, gmat: Matrix, y: Polyvector,
                           hmat: Matrix, idx, memo=None) -> Poly:
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
    under gmat, the splits_through lists by (idx, mid), and x's _Landing.
    Fresh tables are used without it."""
    n, order = x.n, x.order
    idx = tuple(idx)
    minors, images, splits, landing = memo or ({}, {}, {}, _Landing(x))
    zero = _zero_exp(n)
    span = set(idx)
    t2 = {}
    for mid, q in y.terms.items():
        # phi lands on wedges of size |idx| - |mid| + 1
        if not span.issuperset(mid) or len(idx) - len(mid) + 1 not in landing.targets:
            continue
        pairing = rev_sign(len(mid))
        through = splits.get((idx, mid))
        if through is None:
            through = splits[(idx, mid)] = list(splits_through(idx, mid))
        for part1, part3, eps in through:
            ksign = -1 if (len(part1) * len(mid)) % 2 else 1
            sign = eps * ksign * pairing
            for rows, d, nd in _column_minors(minors, hmat, part3):
                land = landing[(part1, rows)]
                if not land:
                    continue
                dq = d if sign == 1 else nd
                for em, qc in q.terms.items():
                    if not any(em[i] for i in land):
                        continue
                    key = (part1, rows, zero, em, zero)
                    v = qc * dq
                    t2[key] = t2[key] + v if key in t2 else v
    if not t2:
        return Poly.zero(n, order)
    acc = {}
    for (widx, el, er), c in phi(KoszulTensor2(n, order, t2)).terms.items():
        inner = x.terms.get(widx)
        if inner is None:
            continue
        if rev_sign(len(widx)) == -1:
            c = -c
        right = _image(images, gmat, er)
        for e1, c1 in inner.terms.items():
            left = _add_exp(el, e1)
            cc = c * c1
            for e2, c2 in right.items():
                e = _add_exp(left, e2)
                v = cc * c2
                acc[e] = acc[e] + v if e in acc else v
    return Poly(n, order, acc)


def chain_circle_avatar(
    x: Polyvector, gmat: Matrix, y: Polyvector, hmat: Matrix, memo=None
) -> Polyvector:
    """Polyvector avatar of the chain-level circle product: evaluate on
    every basis wedge of the correct degree and re-express in the d_I
    basis (the reversed-word pairing sign enters once per component).
    A wedge containing no wedge of y is skipped: its component is zero.
    The components share `memo` (see chain_circle_component)."""
    n, order = x.n, x.order
    deg = x.degree() + y.degree() - 1
    comps = {}
    if deg < 0:
        return Polyvector.zero(n, order)
    memo = memo or ({}, {}, {}, _Landing(x))
    rs = rev_sign(deg)
    for idx in combinations(range(n), deg):
        span = set(idx)
        if any(map(span.issuperset, y.terms)):
            v = chain_circle_component(x, gmat, y, hmat, idx, memo)
            if not v.is_zero():
                comps[idx] = v * rs
    return Polyvector(n, order, comps)


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


def appendix_suite(bound=6):
    """Exact sweep of the seventeen coefficient identities behind phi.

    Returns a list of {identity, tuple, lhs, rhs, pass} entries, one per
    checked instance, covering every valid (s, t, z, r) with s, t and z
    at most bound.
    Identities whose statement needs s >= 1 or z >= 1 start there; terms
    whose scalar factor is zero are dropped before evaluating xi.
    """
    entries = []

    def check(name, tup, lhs, rhs):
        entries.append({
            "identity": name,
            "tuple": tup,
            "lhs": lhs,
            "rhs": rhs,
            "pass": lhs == rhs,
        })

    zero = Fraction(0)
    for s in range(1, bound + 1):
        for t in range(1, bound + 1):
            check("lEQ1", (s, t, 0, t),
                  xi(s, t, 0, t) - s * xi(s - 1, t + 1, 0, t + 1), zero)
            check("lEQ2", (s, t, 0, 1),
                  xi(s, t, 0, 1) + s * xi(s - 1, t + 1, 0, 1),
                  Fraction(1, factorial(t)))
            for r in range(1, t + 1):
                check("lEQ3", (s, t, 0, r), xi(s, t, 0, r),
                      xi(s - 1, t, 0, r) - r * xi(s - 1, t + 1, 0, r + 1))
                check("lEQ4", (s, t, 0, r), xi(s, t, 0, r),
                      (t - r + 1) * xi(s - 1, t + 1, 0, r))
            for r in range(1, t):
                check("lEQ5", (s, t, 0, r),
                      xi(s, t, 0, r) - xi(s, t, 0, r + 1),
                      s * xi(s - 1, t + 1, 0, r + 1))
    for z in range(1, bound + 1):
        for t in range(1, bound + 1):
            check("rEQ1", (0, t, z, t),
                  xi(0, t, z, t) + z * xi(0, t + 1, z - 1, t + 1),
                  Fraction(1, factorial(t)))
            check("rEQ2", (0, t, z, 1),
                  xi(0, t, z, 1) - z * xi(0, t + 1, z - 1, 1), zero)
            for r in range(1, t + 1):
                check("rEQ3", (0, t, z, r),
                      r * xi(0, t + 1, z - 1, r + 1), xi(0, t, z, r))
                check("rEQ4", (0, t, z, r),
                      xi(0, t, z - 1, r) - (t - r + 1) * xi(0, t + 1, z - 1, r),
                      xi(0, t, z, r))
            for r in range(2, t + 1):
                check("rEQ5", (0, t, z, r),
                      xi(0, t, z, r - 1) - xi(0, t, z, r),
                      -z * xi(0, t + 1, z - 1, r))
    for s in range(1, bound + 1):
        for z in range(0, bound + 1):
            for t in range(1, bound + 1):
                for r in range(1, t + 1):
                    check("lrEQ1", (s, t, z, r),
                          xi(s, t, z, r) + r * xi(s - 1, t + 1, z, r + 1)
                          - xi(s - 1, t, z, r), zero)
                    check("lrEQ2", (s, t, z, r),
                          (t - r + 1) * xi(s - 1, t + 1, z, r) - xi(s, t, z, r),
                          zero)
                lhs6 = -s * xi(s - 1, t + 1, z, t + 1) + xi(s, t, z, t)
                if z:
                    lhs6 += z * xi(s, t + 1, z - 1, t + 1)
                check("lrEQ6", (s, t, z, t), lhs6, zero)
    for s in range(0, bound + 1):
        for z in range(1, bound + 1):
            for t in range(1, bound + 1):
                for r in range(1, t + 1):
                    check("lrEQ3", (s, t, z, r),
                          r * xi(s, t + 1, z - 1, r + 1), xi(s, t, z, r))
                    check("lrEQ4", (s, t, z, r),
                          xi(s, t, z, r) + (t - r + 1) * xi(s, t + 1, z - 1, r),
                          xi(s, t, z - 1, r))
                lhs7 = z * xi(s, t + 1, z - 1, 1) - xi(s, t, z, 1)
                if s:
                    lhs7 -= s * xi(s - 1, t + 1, z, 1)
                check("lrEQ7", (s, t, z, 1), lhs7, zero)
    for s in range(0, bound + 1):
        for z in range(0, bound + 1):
            for t in range(2, bound + 1):
                for r in range(1, t):
                    lhs5 = xi(s, t, z, r) - xi(s, t, z, r + 1)
                    if z:
                        lhs5 += z * xi(s, t + 1, z - 1, r + 1)
                    if s:
                        lhs5 -= s * xi(s - 1, t + 1, z, r + 1)
                    check("lrEQ5", (s, t, z, r), lhs5, zero)
    return entries


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
    minors = {k: {} for k in {*x.terms, *y.terms}}
    images = {k: {} for k in minors}
    splits = {}
    land_x = {a: _Landing(xg) for a, xg in x.terms.items()}
    land_y = {b: _Landing(yh) for b, yh in y.terms.items()}

    def add(k, pv):
        if pv.is_zero():
            return
        out[k] = out[k] + pv if k in out else pv

    for a, xg in x.terms.items():
        for b, yh in y.terms.items():
            ga, gb = group.matrices[a], group.matrices[b]
            add(group.mult_table[a][b], chain_circle_avatar(
                xg, ga, yh, gb, (minors[b], images[a], splits, land_x[a])))
            add(group.mult_table[b][a], chain_circle_avatar(
                yh, gb, xg, ga, (minors[a], images[b], splits, land_y[b])) * (-sign))
    return Cochain(group, x.degree + y.degree - 1, out)


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


def schouten_random_check(count=50, seed=0):
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
