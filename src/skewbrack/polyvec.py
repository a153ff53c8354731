"""Sparse polynomials and polyvector fields with exact scalars.

A polyvector is a sum of terms  p * d_{i_1} ^ ... ^ d_{i_k}  with p a
polynomial and the d_i dual basis directions; it is stored as a map
from strictly increasing index tuples to polynomial coefficients.
These are the reduced representatives of Hochschild cohomology
components.  The Schouten bracket of polyvector fields, which the
Gerstenhaber bracket projects term by term, its graded-law check
schouten_graded_laws, and the group action on polyvectors live here.
Three products sum in plain ints and build one Cyc per output
coefficient, through one accumulator: act adds products into it
directly, with the minors and monomial images it needs cached on the
matrices (Matrix.minors, Matrix.images); schouten is circle_product
itself, which adds both circle products of the graded commutator, pair
of components by pair, so it is bilinear also on input of mixed
exterior degree; and Polyvector.wedge adds the products of
coefficients, signed by sort_sign of the two wedges joined.
SparseTerms, the immutable sparse container that polynomials,
polyvectors, cochains and the Koszul resolution terms share, is defined
here too, and so is monomials, the exponent tuples of one degree.
minor_det and subst_matrix compute a minor and a substitution from
scratch; in the package only the chain-level oracle calls them, and
they stay in this module because the benchmark's tracer counts them
here by name.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from operator import add, attrgetter

from .linalg import Matrix, det
from .scalars import Cyc, Frozen, _powers, _reduce, _widen, print_scalar


def sort_sign(seq):
    """Sign of the permutation sorting seq ascending; (0, ()) on repeats."""
    seq = list(seq)
    sign = 1
    for i in range(1, len(seq)):
        j = i
        while j > 0 and seq[j - 1] > seq[j]:
            seq[j - 1], seq[j] = seq[j], seq[j - 1]
            sign = -sign
            j -= 1
        if j > 0 and seq[j - 1] == seq[j]:
            return 0, ()
    return sign, tuple(seq)


def rev_sign(k):
    """Sign (-1)^(k(k-1)/2) of reversing a k-letter word; the pairing of
    d_I against the antisymmetrized word o(x_I) evaluates covectors
    against the reversed word, so <d_I, o(x_I)> equals this sign."""
    return -1 if (k * (k - 1) // 2) % 2 else 1


class SparseTerms(Frozen):
    """Immutable sparse vector: a dict ``terms`` from keys to nonzero
    values, plus header fields (``head``) that two operands must share.

    Subclasses list their header fields in ``__slots__``, expose them as
    ``head`` in constructor order, and construct as ``cls(*head, terms)``,
    dropping zero values, validating keys and ending in the fill
    ``self._init(terms, *head)``; ``cls._new(terms, *head)`` builds one
    from terms already clean.  The termwise linear arithmetic, equality
    and hashing live here.
    """

    __slots__ = ("terms",)

    @classmethod
    def zero(cls, *head):
        return cls(*head, {})

    def _like(self, terms):
        return type(self)(*self.head, terms)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.head == other.head and self.terms == other.terms

    def __hash__(self):
        return hash((self.head, frozenset(self.terms.items())))

    def __add__(self, other):
        if self.head != other.head:
            raise ValueError(f"{type(self).__name__.lower()} mismatch")
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out[k] + v if k in out else v
        return self._like(out)

    def __neg__(self):
        return self._like({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        return self._like({k: v * c for k, v in self.terms.items()})

    __mul__ = scale


class Poly(SparseTerms):
    """Polynomial in n variables, exponent-tuple keyed, Cyc coefficients."""

    __slots__ = ("n", "order")
    head = property(attrgetter("n", "order"))

    def __init__(self, n, order, terms=None):
        clean = {}
        for exps, c in (terms or {}).items():
            c = Cyc.of(c, order)
            if not c.is_zero():
                assert len(exps) == n and all(e >= 0 for e in exps)
                clean[tuple(exps)] = c
        self._init(clean, n, order)

    @staticmethod
    def const(value, n, order):
        return Poly(n, order, {(0,) * n: Cyc.of(value, order)})

    @staticmethod
    def variable(i, n, order):
        e = [0] * n
        e[i] = 1
        return Poly(n, order, {tuple(e): Cyc.one(order)})

    @staticmethod
    def monomial(exps, coeff, order):
        return Poly(len(exps), order, {tuple(exps): Cyc.of(coeff, order)})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Cyc)):
            return self.scale(Cyc.of(other, self.order))
        assert isinstance(other, Poly) and self.n == other.n
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                if e in out:
                    out[e] = out[e] + c
                else:
                    out[e] = c
        return Poly(self.n, self.order, out)

    __rmul__ = __mul__

    def deriv(self, i):
        out = {}
        for exps, c in self.terms.items():
            if exps[i]:
                e = list(exps)
                e[i] -= 1
                out[tuple(e)] = c * exps[i]
        return Poly(self.n, self.order, out)

    def __str__(self):
        if not self.terms:
            return "0"
        return " + ".join(
            _term_str(c, e, ())
            for e, c in sorted(self.terms.items())
        )

    __repr__ = __str__


def subst_matrix(p: Poly, m: Matrix) -> Poly:
    """Substitute x_i -> sum_k m[k][i] x_k (the linear action with column
    i giving the image of the i-th variable)."""
    n, order = p.n, p.order
    images = [Poly(n, order, {_unit(n, k): m.rows[k][i] for k in range(n)})
              for i in range(n)]
    out = Poly.zero(n, order)
    for exps, c in p.terms.items():
        term = Poly.const(c, n, order)
        for i, e in enumerate(exps):
            for _ in range(e):
                term = term * images[i]
        out = out + term
    return out


def _unit(n, k):
    e = [0] * n
    e[k] = 1
    return tuple(e)


def minor_det(m: Matrix, rows, cols):
    order = m.order
    k = len(rows)
    assert k == len(cols)
    if k == 0:
        return Cyc.one(order)
    sub = [[m.rows[r][c] for c in cols] for r in rows]
    return det(Matrix(order, sub))


class Polyvector(SparseTerms):
    """Map from strictly increasing index tuples to Poly coefficients."""

    __slots__ = ("n", "order")
    head = property(attrgetter("n", "order"))

    def __init__(self, n, order, terms=None):
        clean = {}
        for idx, p in (terms or {}).items():
            idx = tuple(idx)
            assert all(0 <= i < n for i in idx)
            assert all(a < b for a, b in zip(idx, idx[1:]))
            if not p.is_zero():
                clean[idx] = p
        self._init(clean, n, order)

    @staticmethod
    def term(coeff, exps, idx, order):
        """Build coeff * x^exps * d_idx, normalizing the index order."""
        sgn, key = sort_sign(idx)
        n = len(exps)
        if sgn == 0:
            return Polyvector._new({}, n, order)
        c = Cyc.of(coeff, order)
        terms = {}
        if c:
            assert all(e >= 0 for e in exps)
            terms[key] = Poly._new({tuple(exps): c if sgn > 0 else -c}, n, order)
        assert all(0 <= i < n for i in key)
        return Polyvector._new(terms, n, order)

    def __mul__(self, other):
        """Scalar or polynomial multiple (polynomials are even, no signs)."""
        if isinstance(other, (int, Fraction, Cyc, Poly)):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def pair(self, idx) -> Poly:
        """Evaluation against the antisymmetrized basis element o(x_idx):
        the coefficient at the normalized index tuple times the
        reversed-word pairing sign rev_sign(len(idx))."""
        sgn, key = sort_sign(idx)
        if sgn == 0:
            return Poly.zero(self.n, self.order)
        p = self.terms.get(key)
        if p is None:
            return Poly.zero(self.n, self.order)
        return p * (sgn * rev_sign(len(key)))

    def exterior_degrees(self):
        return sorted({len(i) for i in self.terms})

    def degree(self):
        degs = self.exterior_degrees()
        if len(degs) != 1:
            raise ValueError("polyvector is not homogeneous in exterior degree")
        return degs[0]

    def wedge(self, other: "Polyvector") -> "Polyvector":
        """The exterior product, each output coefficient summed in plain
        ints as in act and circle_product: the product of two
        coefficients is their power-basis convolution over the product of
        their denominators, times the sign sorting the two wedges into one."""
        if self.head != other.head:
            raise ValueError("polyvector mismatch")
        n, order = self.head
        size = 2 * len(_powers(order)[0]) - 1
        right = [(i2, p2.terms.items()) for i2, p2 in other.terms.items()]
        out = {}  # wedge -> exponents -> [denominator, unreduced numerators...]
        for i1, p1 in self.terms.items():
            # each term of p1 as (exponents, denominator, (place in acc, int) pairs)
            left = [(e, c.den, [(i, a) for i, a in enumerate(c.num, 1) if a])
                    for e, c in p1.terms.items()]
            for i2, terms in right:
                sgn, key = sort_sign(i1 + i2)
                if sgn == 0:
                    continue
                target = out.get(key)
                if target is None:
                    target = out[key] = {}
                for e1, den1, cf in left:
                    for e2, c in terms:
                        e = tuple(map(add, e1, e2))
                        den = den1 * c.den
                        acc = target.get(e)
                        if acc is None:
                            acc = target[e] = [den] + [0] * size
                        up = sgn if den == acc[0] else sgn * _widen(acc, den)
                        for i, a in cf:
                            a *= up
                            for j, b in enumerate(c.num, i):
                                acc[j] += a * b
        return _build(out, n, order)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for idx in sorted(self.terms, key=lambda i: (len(i), i)):
            p = self.terms[idx]
            for exps, c in sorted(p.terms.items()):
                parts.append(_term_str(c, exps, idx))
        return " + ".join(parts)

    __repr__ = __str__


def _term_str(c: Cyc, exps, idx):
    factors = []
    for i, e in enumerate(exps):
        if e == 1:
            factors.append(f"x{i + 1}")
        elif e > 1:
            factors.append(f"x{i + 1}^{e}")
    if idx:
        factors.append("^".join(f"d{i + 1}" for i in idx))
    cs = print_scalar(c)
    if not factors:
        return f"({cs})" if (" " in cs or "/" in cs or "-" in cs) else cs
    if c == 1:
        return "*".join(factors)
    if c == -1:
        return "-" + "*".join(factors)
    return f"({cs})*" + "*".join(factors)


def monomial_image(m: Matrix, exps) -> Poly:
    """The image of the monomial x^exps under x_i -> sum_k m[k][i] x_k,
    kept in m.images.  It is the image of x^(exps - e_i) times that of x_i, for
    the last variable x_i of the monomial; the chain down to a kept image
    is walked in a loop, not by recursion."""
    images = m.images
    got = images.get(exps)
    if got is not None:
        return got
    chain = []
    while exps not in images and any(exps):
        i = max(j for j, e in enumerate(exps) if e)
        chain.append((exps, i))
        exps = exps[:i] + (exps[i] - 1,) + exps[i + 1:]
    got = images.get(exps)
    if got is None:  # the empty monomial
        got = images[exps] = Poly.const(1, m.nrows, m.order)
    for exps, i in reversed(chain):
        got = images[exps] = got * _variable_image(m, i)
    return got


def _variable_image(m: Matrix, i):
    n = m.nrows
    return Poly(n, m.order, {_unit(n, k): m.rows[k][i] for k in range(n)})


def minor_row(m: Matrix, rows):
    """The nonzero minors of m on the given rows, as (cols, det) pairs
    with cols increasing: one row of the exterior power of m, kept in
    m.minors.
    Expands along rows[0], over its nonzero entries, against the kept
    row of rows[1:]."""
    minors = m.minors
    got = minors.get(rows)
    if got is not None:
        return got
    if not rows:
        got = minors[rows] = (((), Cyc.one(m.order)),)
        return got
    acc = {}
    rest = minor_row(m, rows[1:])
    for j, a in enumerate(m.rows[rows[0]]):
        if not a:
            continue
        for cols, d in rest:
            pos = bisect_left(cols, j)
            if pos < len(cols) and cols[pos] == j:
                continue
            v = a * d if pos % 2 == 0 else -(a * d)
            key = cols[:pos] + (j,) + cols[pos:]
            acc[key] = acc[key] + v if key in acc else v
    got = minors[rows] = tuple((cols, acc[cols]) for cols in sorted(acc) if acc[cols])
    return got


def act(x: Polyvector, pairs) -> Polyvector:
    """Mean of the right actions on x of the group elements given as
    (h, h_inv) matrix pairs: polynomial factors go through the inverse
    substitution, dual-basis wedge factors through minors of h, both
    cached on the matrices.  One action is a one-pair list; the average
    over a centralizer is the list of its pairs.

    Each output coefficient is summed in plain ints, as an unreduced
    power-basis vector over one denominator: the products c * v * m of
    x's coefficient, the monomial image's entry and the minor are added
    in, and a product whose denominator does not divide the running one
    widens it to their lcm.  The vector is reduced modulo Phi_N and
    becomes a Cyc once, with the mean's 1/len(pairs) folded into its
    denominator."""
    n, order = x.n, x.order
    size = 3 * len(_powers(order)[0]) - 2
    out = {}  # cols -> exponents -> [denominator, unreduced numerators...]
    for h, h_inv in pairs:
        for idx, p in x.terms.items():
            minors = minor_row(h, idx)
            for exps, c in p.terms.items():
                image = monomial_image(h_inv, exps).terms.items()
                for cols, m in minors:
                    # c * m as (place in acc, int) pairs, repeats allowed
                    cm = [(i + j, a * b) for i, a in enumerate(c.num, 1) if a
                          for j, b in enumerate(m.num) if b]
                    cm_den = c.den * m.den
                    target = out.get(cols)
                    if target is None:
                        target = out[cols] = {}
                    for e, v in image:
                        den = cm_den * v.den
                        acc = target.get(e)
                        if acc is None:
                            acc = target[e] = [den] + [0] * size
                        up = 1 if den == acc[0] else _widen(acc, den)
                        for i, a in cm:
                            a *= up
                            for j, b in enumerate(v.num, i):
                                acc[j] += a * b
    return _build(out, n, order, len(pairs))


def _build(out, n, order, scale=1):
    """The Polyvector of the accumulators out, a map from wedge to
    exponents to [denominator, unreduced power-basis numerators...],
    each divided by scale and reduced into one Cyc."""
    built = {}
    for cols, target in out.items():
        terms = _reduce(order, target, scale)
        if terms:
            built[cols] = Poly._new(terms, n, order)
    return Polyvector._new(built, n, order)


def euler_field(g: Matrix) -> Polyvector:
    """The degree (1,1) element sum_i (x_i - g.x_i) d_i whose left wedge
    multiplication is the differential on the g-component."""
    n, order = g.nrows, g.order
    comps = {}
    for i in range(n):
        terms = {_unit(n, i): Cyc.one(order)}
        for k in range(n):
            c = g.rows[k][i]
            if not c.is_zero():
                e = _unit(n, k)
                terms[e] = terms.get(e, Cyc.zero(order)) - c
        p = Poly(n, order, terms)
        if not p.is_zero():
            comps[(i,)] = p
    return Polyvector(n, order, comps)


def circle_product(x: Polyvector, y: Polyvector) -> Polyvector:
    """The graded commutator of the circle product, which is the
    Schouten bracket: each pair of components f d_I of x and q d_J of y
    adds f d_I o q d_J - (-1)^((d-1)(m-1)) q d_J o f d_I, with d = |I|
    and m = |J|, so it is bilinear also on input of mixed exterior
    degree.  In the circle product f d_I o q d_J, q d_J is inserted at
    each slot pos of f d_I, and f times the derivative of q by the
    displaced direction I[pos] goes to the normalized wedge.  The sign
    is the wedge reordering sign times (-1)^((m-1)(pos+d-1)), which
    matches the chain-level contraction under the reversed-word pairing
    (see the oracle agreement tests).  A slot whose displaced direction
    q does not depend on adds nothing.

    Both products go into one accumulator of plain ints, as in act: the
    product of two coefficients is their power-basis convolution over
    the product of their denominators, times the derivative's exponent
    and the signs; each output coefficient becomes one Cyc at the end."""
    if x.head != y.head:
        raise ValueError("polyvector mismatch")
    n, order = x.head
    size = 2 * len(_powers(order)[0]) - 1
    out = {}  # wedge -> exponents -> [denominator, unreduced numerators...]
    for outer, inner, back in ((x, y, False), (y, x, True)):
        # each component q d_J of inner as (J, |J|, derivatives), with the
        # derivative by direction i a list of (exponents, exponent of x_i,
        # coefficient) for the terms of q that x_i divides
        inserted = []
        for idx_j, q in inner.terms.items():
            derivs = {}
            for exps, c in q.terms.items():
                for i, a in enumerate(exps):
                    if a:
                        lower = exps[:i] + (a - 1,) + exps[i + 1:]
                        derivs.setdefault(i, []).append((lower, a, c))
            inserted.append((idx_j, len(idx_j), derivs))
        for idx_i, f in outer.terms.items():
            d = len(idx_i)
            # each term of f as (exponents, denominator, (place in acc, int) pairs)
            left = [(e, c.den, [(i, a) for i, a in enumerate(c.num, 1) if a])
                    for e, c in f.terms.items()]
            for idx_j, m, derivs in inserted:
                sign = -1 if back and not ((d - 1) * (m - 1)) % 2 else 1
                for pos, jl in enumerate(idx_i):
                    right = derivs.get(jl)
                    if right is None:
                        continue
                    wsgn, wkey = sort_sign(idx_i[:pos] + idx_j + idx_i[pos + 1:])
                    if wsgn == 0:
                        continue
                    if ((m - 1) * (pos + d - 1)) % 2:
                        wsgn = -wsgn
                    target = out.get(wkey)
                    if target is None:
                        target = out[wkey] = {}
                    for e1, den1, cf in left:
                        for e2, k, c in right:
                            e = tuple(map(add, e1, e2))
                            den = den1 * c.den
                            acc = target.get(e)
                            if acc is None:
                                acc = target[e] = [den] + [0] * size
                            up = sign * wsgn * k
                            if den != acc[0]:
                                up *= _widen(acc, den)
                            for i, a in cf:
                                a *= up
                                for j, b in enumerate(c.num, i):
                                    acc[j] += a * b
    return _build(out, n, order)


# The Schouten bracket of polyvector fields is the graded commutator of
# the circle product, which circle_product computes in one pass.
schouten = circle_product


def monomials(n, total):
    """Exponent tuples of the given total degree, lexicographic by the
    multiset of variable indices."""
    if n == 0:
        return [()] if total == 0 else []
    out = []
    for combo in combinations_with_replacement(range(n), total):
        e = [0] * n
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    return out


def schouten_graded_laws(n):
    """Graded antisymmetry on every ordered pair and the graded Jacobi
    identity on every unordered triple of basis polyvectors on k^n of
    polynomial and exterior degree at most 2.

    Returns (checked, failures).  Antisymmetry on all ordered pairs plus
    Jacobi on one representative of each triple implies the law for
    every ordering.
    """
    max_poly = max_ext = 2
    basis = []
    for p in range(min(n, max_ext) + 1):
        for idx in combinations(range(n), p):
            for d in range(max_poly + 1):
                for exps in monomials(n, d):
                    basis.append((Polyvector.term(1, exps, idx, 1), p))

    checked, failures = 0, []

    def sgn(u, v):
        return -1 if (u * v) % 2 else 1

    for (x, px), (y, py) in combinations_with_replacement(basis, 2):
        checked += 1
        if schouten(x, y) != schouten(y, x) * (-sgn(px - 1, py - 1)):
            failures.append(("antisymmetry", str(x), str(y)))

    cache = {}

    def br(i, j):
        if (i, j) not in cache:
            cache[(i, j)] = schouten(basis[i][0], basis[j][0])
        return cache[(i, j)]

    m = len(basis)
    for i, j, k in combinations_with_replacement(range(m), 3):
        a, b, c = basis[i][1] - 1, basis[j][1] - 1, basis[k][1] - 1
        total = (schouten(basis[i][0], br(j, k)) * sgn(a, c)
                 + schouten(basis[j][0], br(k, i)) * sgn(b, a)
                 + schouten(basis[k][0], br(i, j)) * sgn(c, b))
        checked += 1
        if not total.is_zero():
            failures.append(("jacobi", str(basis[i][0]), str(basis[j][0]),
                             str(basis[k][0])))
    return checked, failures
