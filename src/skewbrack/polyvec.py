"""Sparse polynomials and polyvector fields with exact scalars.

A polyvector is a sum of terms  p * d_{i_1} ^ ... ^ d_{i_k}  with p a
polynomial and the d_i dual basis directions; it is stored as a map
from strictly increasing index tuples to polynomial coefficients.
These are the reduced representatives of Hochschild cohomology
components.  The Schouten bracket of polyvector fields, which the
Gerstenhaber bracket projects term by term, its graded-law check
schouten_graded_laws, and the group action on polyvectors live here.
The products here sum in plain ints, in the integer form that
_int_terms builds and describes, and reduce each output coefficient
once.  _convolve is the one loop that adds the products of two sums of
such terms at the sums of their exponents: wedge calls it once per pair
of wedges, signed by sort_sign of the two joined; circle_product, which
schouten is, once per insertion slot that meets a derivative, for both
circle products of the graded commutator: it tables each operand's
derivatives by direction once, walks each slot of a component only into
the components listed under the slot's direction, and signs each
product by the exterior degrees of its own two components, so it is
bilinear also on input of mixed exterior degree; and monomial_image
once per step of its chain, a column of the matrix times the kept image
of a lower monomial.  act adds its products into the accumulator
directly, with the minors and monomial images it needs cached on the
matrices (Matrix.minors, Matrix.images) in that form; minor_row expands
each row of minors along its first row, in plain ints too.  Over Q
(cyclotomic order 1 or 2) _convolve branches once per call, and act
once per term of x and pair, to a degree-1 loop that adds plain-int
products into [denominator, numerator] accumulators; over Q(zeta_N) of
degree above 1 the general loop is the only path.  _build turns the
accumulators of act, circle_product and wedge into a Polyvector:
scalars._reduce makes each coefficient, and Poly._new and
Polyvector._new fill the values without checking them again.
SparseTerms, the immutable sparse container that polynomials,
polyvectors, cochains and the Koszul resolution terms share, is defined
here too, and so is monomials, the exponent tuples of one degree, kept
per (n, total), in a bounded memo, as a tuple that no caller can change.
minor_det and subst_matrix compute a minor and a substitution from
scratch; in the package only the chain-level oracle calls them, and
they stay in this module because the benchmark's tracer counts them
here by name.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from operator import add, attrgetter

from .linalg import Matrix, det, one_minus_columns
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
    whose ``__new__`` drops zero values, validates keys and returns the
    one fill, ``cls._new(terms, *head)``, which builds a value from
    terms already clean (Cochain adds a last field, its proof).
    The constructor guards what comes from outside.  The termwise
    linear arithmetic, equality and hashing live here, and the
    arithmetic fills its results through ``_derived``, which is ``_new``
    on the head and is given the operands, whose sources Cochain keeps:
    valid operands of one type and head give valid keys, and a sum
    drops the values that cancel, a zero Cyc or a container with no
    terms.  Every operator returns NotImplemented for a foreign operand,
    so Python's TypeError names it, and raises ValueError for a value of
    the same kind with another head.  ``__mul__``, the one scalar
    multiple, coerces its scalar once, through Cyc.of at ``order``,
    before it reads a term, so a zero operand refuses the scalars a
    nonzero one does; what Cyc.of refuses with TypeError is foreign.
    ``_times`` scales every level with that one Cyc; a nonzero multiple
    of a nonzero value is nonzero in a field.
    """

    __slots__ = ("terms",)

    @classmethod
    def zero(cls, *head):
        return cls._new({}, *head)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.head == other.head and self.terms == other.terms

    def __hash__(self):
        return hash((self.head, frozenset(self.terms.items())))

    def __add__(self, other):
        if not isinstance(other, SparseTerms):
            return NotImplemented
        if self.head != other.head or type(other) is not type(self):
            raise ValueError(f"{type(self).__name__.lower()} mismatch")
        out = dict(self.terms)
        for k, v in other.terms.items():
            if k in out:
                v = out[k] + v
                if v.is_zero():
                    del out[k]
                    continue
            out[k] = v
        return self._derived(out, self, other)

    def __neg__(self):
        return self._derived({k: -v for k, v in self.terms.items()}, self)

    def __sub__(self, other):
        if not isinstance(other, SparseTerms):
            return NotImplemented
        return self + (-other)

    def __mul__(self, c):
        try:
            c = Cyc.of(c, self.order)
        except TypeError:
            return NotImplemented
        if c.is_zero():
            return self.zero(*self.head)
        return self._times(c)

    def _times(self, c):
        """The multiple by c, a nonzero Cyc of this order: a Cyc value is
        multiplied by it, and a container value scaled the same way."""
        return self._derived({k: v * c if v.__class__ is Cyc else v._times(c)
                              for k, v in self.terms.items()}, self)

    def _derived(self, terms, *operands):
        """The result of this type and head with these terms, made by
        the arithmetic from operands; Cochain keeps their sources."""
        return self._new(terms, *self.head)


class Poly(SparseTerms):
    """Polynomial in n variables, exponent-tuple keyed, Cyc coefficients."""

    __slots__ = ("n", "order")
    head = property(attrgetter("n", "order"))

    def __new__(cls, n, order, terms):
        clean = {}
        for exps, c in terms.items():
            c = Cyc.of(c, order)
            if not c.is_zero():
                if len(exps) != n or any(e < 0 for e in exps):
                    raise ValueError("poly exponents must be n nonnegative integers")
                clean[tuple(exps)] = c
        return cls._new(clean, n, order)

    @staticmethod
    def monomial(exps, coeff, order):
        return Poly(len(exps), order, {tuple(exps): Cyc.of(coeff, order)})

    def __mul__(self, other):
        """The product with a Poly; as for a sum, a Poly of another head
        raises ValueError.  Any other operand is a scalar multiple, which
        SparseTerms.__mul__ makes."""
        if not isinstance(other, Poly):
            return SparseTerms.__mul__(self, other)
        if self.head != other.head:
            raise ValueError("poly mismatch")
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                if e in out:
                    out[e] = out[e] + c
                else:
                    out[e] = c
        return Poly._new({e: c for e, c in out.items() if c}, self.n, self.order)

    def deriv(self, i):
        out = {}
        for exps, c in self.terms.items():
            if exps[i]:
                e = list(exps)
                e[i] -= 1
                out[tuple(e)] = c * exps[i]  # nonzero in characteristic 0
        return Poly._new(out, self.n, self.order)

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
        term = Poly.monomial((0,) * n, c, order)
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
    if len(rows) != len(cols):
        raise ValueError("a minor needs as many rows as columns")
    return det(Matrix._of(m.order, [[m.rows[r][c] for c in cols] for r in rows]))


class Polyvector(SparseTerms):
    """Map from strictly increasing index tuples to Poly coefficients."""

    __slots__ = ("n", "order")
    head = property(attrgetter("n", "order"))

    def __new__(cls, n, order, terms):
        clean = {}
        for idx, p in terms.items():
            idx = tuple(idx)
            if any(not 0 <= i < n for i in idx) or any(a >= b for a, b in zip(idx, idx[1:])):
                raise ValueError("polyvector wedges must be increasing indices in 0..n-1")
            if not isinstance(p, Poly) or p.head != (n, order):
                raise ValueError("polyvector coefficients must be polys of its (n, order)")
            if not p.is_zero():
                clean[idx] = p
        return cls._new(clean, n, order)

    @staticmethod
    def term(coeff, exps, idx, order):
        """Build coeff * x^exps * d_idx, normalizing the index order."""
        sgn, key = sort_sign(idx)
        n = len(exps)
        if sgn == 0:
            return Polyvector._new({}, n, order)
        c = Cyc.one(order) if coeff.__class__ is int and coeff == 1 else Cyc.of(coeff, order)
        if key and (key[0] < 0 or key[-1] >= n) or (c and exps and min(exps) < 0):
            raise ValueError("term indices must be in 0..n-1, exponents nonnegative")
        if not c:
            return Polyvector._new({}, n, order)
        poly = Poly._new({tuple(exps): c if sgn > 0 else -c}, n, order)
        return Polyvector._new({key: poly}, n, order)

    def degree(self):
        degs = {len(i) for i in self.terms}
        if len(degs) != 1:
            raise ValueError("polyvector is not homogeneous in exterior degree")
        return degs.pop()

    def wedge(self, other: "Polyvector") -> "Polyvector":
        """The exterior product: each pair of wedges adds the products of
        their coefficients, through _convolve, times the sign sorting the
        two wedges into one.  An operand that is not a Polyvector raises
        TypeError, and a Polyvector of another head ValueError."""
        _check_operands(self, other)
        n, order = self.head
        if not (self.terms and other.terms):  # zero, with no operand converted
            return Polyvector._new({}, n, order)
        size = 2 * len(_powers(order)[0]) - 1
        right = _int_comps(other)
        out = {}  # wedge -> exponents -> [denominator, unreduced numerators...]
        for i1, left in _int_comps(self):
            for i2, terms in right:
                sgn, key = sort_sign(i1 + i2)
                if sgn:
                    target = out.get(key)
                    if target is None:
                        target = out[key] = {}
                    _convolve(target, left, terms, sgn, size)
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


def _int_terms(items, order):
    """The (key, nonzero Cyc) items in integer form, the shape the
    products here sum and Matrix.minors and Matrix.images keep: a tuple
    of (key, denominator, (place, numerator) pairs of the nonzero
    power-basis coordinates), places from 0; over Q (order at most 2)
    the one pair (0, numerator), built directly."""
    if order <= 2:
        return tuple([(key, c.den, ((0, c.num[0]),)) for key, c in items])
    return tuple([(key, c.den, tuple([(p, a) for p, a in enumerate(c.num) if a]))
                  for key, c in items])


def _int_comps(x: Polyvector):
    """x's components as (wedge, _int_terms of its coefficients)."""
    return [(idx, _int_terms(p.terms.items(), x.order)) for idx, p in x.terms.items()]


def _convolve(target, left, right, up, size):
    """Add up times the product of the sums of integer-form terms left
    and right into target (exponents -> [denominator, unreduced
    numerators...], size + 1 entries): each pair of terms adds the
    power-basis convolution of its coefficients, over the product of
    their denominators, widened by _widen as needed, at the sum of its
    exponents.  The one loop of wedge, circle_product and monomial_image.
    Over Q (size 1) each term holds the one pair (0, numerator), and the
    degree-1 loop adds plain-int products into [denominator, numerator]."""
    if size == 1:
        for e1, den1, ((_, a),) in left:
            a *= up
            for e2, den2, ((_, b),) in right:
                e = tuple(map(add, e1, e2))
                den = den1 * den2
                acc = target.get(e)
                if acc is None:
                    target[e] = [den, a * b]
                elif den == acc[0]:
                    acc[1] += a * b
                else:
                    f = _widen(acc, den)  # rescales acc[1]: read it after
                    acc[1] += a * b * f
        return
    for e1, den1, cf in left:
        for e2, den2, pairs in right:
            e = tuple(map(add, e1, e2))
            den = den1 * den2
            acc = target.get(e)
            if acc is None:
                acc = target[e] = [den] + [0] * size
            f = up if den == acc[0] else up * _widen(acc, den)
            for i, a in cf:
                a *= f
                i += 1  # place i + j is acc[i + j + 1], after the denominator
                for j, b in pairs:
                    acc[i + j] += a * b


def monomial_image(m: Matrix, exps):
    """The image of the monomial x^exps under x_i -> sum_k m[k][i] x_k,
    kept in m.images in _int_terms's form keyed by exponents, each
    coefficient in lowest terms.  It is the image of x_i, column i of m
    as terms of unit exponents, times the kept image of x^(exps - e_i),
    for the last variable x_i of the monomial, one _convolve call; the
    chain down to a kept image, empty when x^exps is kept, is walked in
    a loop."""
    images = m.images
    chain = []
    while exps not in images and any(exps):
        i = max(j for j, e in enumerate(exps) if e)
        chain.append((exps, i))
        exps = exps[:i] + (exps[i] - 1,) + exps[i + 1:]
    order, n = m.order, m.nrows
    got = images.get(exps)
    if got is None:  # the empty monomial, whose image is 1
        got = images[exps] = _int_terms([(exps, Cyc.one(order))], order)
    size = 2 * len(_powers(order)[0]) - 1
    for exps, i in reversed(chain):
        column = _int_terms([(_unit(n, k), v) for k, row in enumerate(m.rows)
                             if (v := row[i])], order)
        out = {}  # exponents -> [denominator, unreduced numerators...]
        _convolve(out, column, got, 1, size)
        got = images[exps] = _int_terms(_reduce(order, out).items(), order)
    return got


def minor_row(m: Matrix, rows):
    """The nonzero minors of m on the given rows, with their columns
    increasing: one row of the exterior power of m, kept in m.minors in
    _int_terms's form keyed by columns, each minor in lowest terms.
    The row expands along rows[0], over its nonzero entries, against the
    kept row of rows[1:], for a single row the empty minor 1, each
    product summed in plain ints as in monomial_image."""
    minors = m.minors
    got = minors.get(rows)
    if got is not None:
        return got
    order = m.order
    if not rows:
        got = minors[rows] = _int_terms([((), Cyc.one(order))], order)
        return got
    size = 2 * len(_powers(order)[0]) - 1
    rest = minor_row(m, rows[1:])
    out = {}  # cols -> [denominator, unreduced numerators...]
    for j, a_den, af in _int_terms([(j, a) for j, a in enumerate(m.rows[rows[0]]) if a],
                                   order):
        for cols, d_den, df in rest:
            pos = bisect_left(cols, j)
            if pos < len(cols) and cols[pos] == j:
                continue
            key = cols[:pos] + (j,) + cols[pos:]
            den = a_den * d_den
            acc = out.get(key)
            if acc is None:
                acc = out[key] = [den] + [0] * size
            up = 1 if den == acc[0] else _widen(acc, den)
            if pos % 2:
                up = -up
            for p, x in af:
                x *= up
                p += 1  # place p + q is acc[p + q + 1], after the denominator
                for q, y in df:
                    acc[p + q] += x * y
    got = minors[rows] = _int_terms(sorted(_reduce(order, out).items()), order)
    return got


def act(x: Polyvector, pairs) -> Polyvector:
    """Mean of the right actions on x of the group elements given as
    (h, h_inv) matrix pairs: polynomial factors go through the inverse
    substitution, dual-basis wedge factors through minors of h, both
    cached on the matrices in integer form.  One action is a one-pair
    list; the average over a centralizer is the list of its pairs.  An
    x that is not a Polyvector raises TypeError.  An empty list, which
    has no mean, raises ValueError, and so does a pair whose matrices
    are not n x n over x's order.

    Each output coefficient is summed in plain ints, as an unreduced
    power-basis vector over one denominator: the products c * v * m of
    x's coefficient, the monomial image's entry and the minor are added
    in, and a product whose denominator does not divide the running one
    widens it to their lcm.  x's coefficients are turned into integer
    pairs once per call, and each c * m once per pair, by plain loops;
    x not by _int_terms, as places from 1 let c * m land at i + j and
    every shared form measured slower.  The vector is reduced modulo
    Phi_N and becomes a Cyc once, with the mean's 1/len(pairs) folded
    into its denominator.  Over Q, where every coefficient, minor and
    image term holds one (0, numerator) pair, x is converted once to
    (exponents, denominator, numerator) terms and each product goes into
    a [denominator, numerator] accumulator, widened through _widen as in
    the general loop."""
    if not isinstance(x, Polyvector):
        raise TypeError(f"act takes a Polyvector, not {type(x).__name__}")
    if not pairs:
        raise ValueError("act takes a nonempty list of (h, h_inv) pairs, not []")
    n, order = x.n, x.order
    degree = len(_powers(order)[0])
    size = 3 * degree - 2
    # each component of x as (wedge, its terms), a term as (exponents,
    # denominator, (place in acc, int) pairs), or over Q (exponents,
    # denominator, numerator)
    if degree == 1:
        comps = [(idx, [(e, c.den, c.num[0]) for e, c in p.terms.items()])
                 for idx, p in x.terms.items()]
    else:
        comps = []
        for idx, p in x.terms.items():
            terms = []
            for e, c in p.terms.items():
                cf = []
                for i, a in enumerate(c.num, 1):
                    if a:
                        cf.append((i, a))
                terms.append((e, c.den, cf))
            comps.append((idx, terms))
    out = {}  # cols -> exponents -> [denominator, unreduced numerators...]
    for h, h_inv in pairs:
        if not (h.order == h_inv.order == order
                and h.nrows == h.ncols == h_inv.nrows == h_inv.ncols == n):
            raise ValueError(f"an action on k^{n} over Q(zeta_{order}) takes "
                             f"{n} x {n} matrices of order {order}")
        # the caches read directly, their fill functions called on a miss
        kept_minors, kept_images = h.minors, h_inv.images
        for idx, terms in comps:
            minors = kept_minors.get(idx)
            if minors is None:
                minors = minor_row(h, idx)
            for exps, c_den, cf in terms:
                image = kept_images.get(exps)
                if image is None:
                    image = monomial_image(h_inv, exps)
                if degree == 1:  # each minor and image term holds one (0, b)
                    for cols, m_den, ((_, b),) in minors:
                        cm, cm_den = cf * b, c_den * m_den
                        target = out.get(cols)
                        if target is None:
                            target = out[cols] = {}
                        for e, v_den, ((_, v),) in image:
                            den = cm_den * v_den
                            acc = target.get(e)
                            if acc is None:
                                target[e] = [den, cm * v]
                            elif den == acc[0]:
                                acc[1] += cm * v
                            else:
                                up = _widen(acc, den)  # rescales acc[1]: read it after
                                acc[1] += cm * v * up
                    continue
                for cols, m_den, mf in minors:
                    # c * m as (place in acc, int) pairs, repeats allowed
                    cm = []
                    for i, a in cf:
                        for j, b in mf:
                            cm.append((i + j, a * b))
                    cm_den = c_den * m_den
                    target = out.get(cols)
                    if target is None:
                        target = out[cols] = {}
                    for e, v_den, vf in image:
                        den = cm_den * v_den
                        acc = target.get(e)
                        if acc is None:
                            acc = target[e] = [den] + [0] * size
                        up = 1 if den == acc[0] else _widen(acc, den)
                        for i, a in cm:
                            a *= up
                            for j, b in vf:
                                acc[i + j] += a * b
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
    multiplication is the differential on the g-component.  Its d_i
    component is column i of 1 - g, from linalg.one_minus_columns, which
    refuses a matrix that is not square."""
    n, order = g.nrows, g.order
    comps = {(i,): Poly._new({_unit(n, k): c for k, c in col.items()}, n, order)
             for i, col in enumerate(one_minus_columns(g)) if col}
    return Polyvector._new(comps, n, order)


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

    Each operand's derivatives are tabled once, by direction: direction
    i lists the components q d_J whose q depends on x_i, each with the
    terms of dq/dx_i.  A slot pos of f d_I is walked only into the
    components listed under I[pos], so every slot visited meets a
    nonzero derivative, and only a join that repeats a direction is
    skipped.  A one-vector f d_i joins to J itself, with sign +1 and
    no sort.  Both products go into one accumulator of plain ints, one
    _convolve call per slot visited, with the signs as its factor; each
    output coefficient becomes one Cyc at the end.  An operand that is
    not a Polyvector raises TypeError, and a Polyvector of another head
    ValueError."""
    _check_operands(x, y)
    n, order = x.head
    size = 2 * len(_powers(order)[0]) - 1
    out = {}  # wedge -> exponents -> [denominator, unreduced numerators...]
    xs, ys = _int_comps(x), _int_comps(y)
    for outer, by_dir, back in ((xs, _derivatives(ys), False), (ys, _derivatives(xs), True)):
        for idx_i, left in outer:
            d = len(idx_i)
            for pos, jl in enumerate(idx_i):
                for idx_j, m, right in by_dir.get(jl, ()):
                    if d == 1:
                        wsgn, wkey = 1, idx_j
                    else:
                        wsgn, wkey = sort_sign(idx_i[:pos] + idx_j + idx_i[pos + 1:])
                        if wsgn == 0:
                            continue
                        if ((m - 1) * (pos + d - 1)) % 2:
                            wsgn = -wsgn
                    if back and not ((d - 1) * (m - 1)) % 2:
                        wsgn = -wsgn
                    target = out.get(wkey)
                    if target is None:
                        target = out[wkey] = {}
                    _convolve(target, left, right, wsgn, size)
    return _build(out, n, order)


def _derivatives(comps):
    """The derivative table of components in _int_comps's form: direction
    i -> (J, |J|, terms of dq/dx_i) for each component q d_J whose q
    depends on x_i, the terms of q that x_i divides, each lowered by x_i
    and its numerators times the exponent of x_i."""
    by_dir = {}
    for idx_j, terms in comps:
        derivs = {}
        for exps, den, cf in terms:
            for i, a in enumerate(exps):
                if a:
                    lower = exps[:i] + (a - 1,) + exps[i + 1:]
                    derivs.setdefault(i, []).append(
                        (lower, den, [(p, a * b) for p, b in cf] if a > 1 else cf))
        m = len(idx_j)
        for i, right in derivs.items():
            by_dir.setdefault(i, []).append((idx_j, m, right))
    return by_dir


def _check_operands(x, y):
    """TypeError naming the type of an operand that is not a Polyvector,
    and ValueError for two Polyvectors of different heads."""
    for v in (x, y):
        if not isinstance(v, Polyvector):
            raise TypeError(f"a polyvector product takes Polyvectors, not {type(v).__name__}")
    if x.head != y.head:
        raise ValueError("polyvector mismatch")


# The Schouten bracket of polyvector fields is the graded commutator of
# the circle product, which circle_product computes in one pass.
schouten = circle_product


@lru_cache(maxsize=128)
def monomials(n, total):
    """Exponent tuples of the given total degree, lexicographic by the
    multiset of variable indices: a tuple, kept for the last 128
    (n, total) asked for."""
    if n == 0:
        return ((),) if total == 0 else ()
    out = []
    for combo in combinations_with_replacement(range(n), total):
        e = [0] * n
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    return tuple(out)


def schouten_graded_laws(n):
    """Graded antisymmetry on every unordered pair, a pair with itself
    included, and the graded Jacobi identity on every unordered triple
    of basis polyvectors on k^n of polynomial and exterior degree at
    most 2.

    Returns (checked, failures).  Each pair is checked once, since
    antisymmetry on its reverse is the same identity; with it, Jacobi
    on one representative of each triple implies the law for every
    ordering.
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
