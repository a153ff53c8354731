"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Scalars are represented in the power basis 1, z, ..., z^(d-1) of
Q[x]/Phi_N(x), where Phi_N is the N-th cyclotomic polynomial and
d = deg Phi_N.  All coefficients are exact rationals, held as integers
over one common denominator, so equality is decidable and every
computation downstream of this module is exact.  The bilinear products
of linalg and polyvec sum each output entry in plain ints instead, as
unreduced power-basis numerators over one denominator that _widen keeps
common, and _reduce makes each sum one Cyc, straight from its fields.
`Frozen`, the immutable base of every value in the package (these
scalars, matrices, sparse terms, groups, geometries and bracket
reports), is defined here, the lowest module they all import from; a
value of three fields is filled by three setter calls, with no loop,
and Cyc.zero and Cyc.one are one shared value per order.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cache
from math import gcd, lcm

@cache
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, ascending.

    Computed by exact division: Phi_n = (x^n - 1) / prod_{d|n, d<n} Phi_d.
    Each Phi_d is monic with integer coefficients, so long division by it,
    from the top coefficient down, stays in the integers.
    """
    if n < 1:
        raise ValueError("cyclotomic order must be a positive integer")
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            den = cyclotomic_polynomial(d)
            quot = [0] * (len(num) - len(den) + 1)
            for k in reversed(range(len(quot))):
                q = quot[k] = num[k + len(den) - 1]
                for i, c in enumerate(den):
                    num[i + k] -= q * c
            # checks this function's own division, not its input
            assert not any(num), "Phi_d does not divide"
            num = quot
    return tuple(num)


# A plain dict, not a functools cache: Cyc.__mul__ and Cyc.inverse read
# it on every product.  At order 5 a dict read takes about 10 ns, a
# cached call about 25 ns, and one Cyc.__mul__ about 1 us (Python 3.11.7).
_POWERS: dict[int, tuple[tuple[int, ...], ...]] = {}


def _powers(order):
    """The power-basis coordinates of z^0, ..., z^(order-1); z^k for any
    integer k is entry k % order.  Phi_order is monic with integer
    coefficients, so every entry is a tuple of ints."""
    table = _POWERS.get(order)
    if table is None:
        phi = cyclotomic_polynomial(order)
        d = len(phi) - 1
        row = [1] + [0] * (d - 1)
        rows = []
        for _ in range(order):
            rows.append(tuple(row))
            # times z: shift up one place and fold z^d = -sum phi[i] z^i
            top = row[-1]
            row = [0] + row[:-1]
            if top:
                for i in range(d):
                    row[i] -= top * phi[i]
        table = _POWERS[order] = tuple(rows)
    return table


_object_new = object.__new__


class Frozen:
    """Base of the immutable values: a subclass lists its fields in
    __slots__ and sets them once, through the slot setters that
    __init_subclass__ collects in _setters, the bases' fields first.
    self._init(*fields) sets them in that order, and a constructor that
    checks its input ends in it; cls._new(*fields) builds a value whose
    fields the caller has already made valid; Frozen(*fields) is the
    constructor of a type with nothing to check.  A type of three
    fields, as Cyc, Poly, Polyvector and Cochain are, gets an _init and
    a _new with the three setter calls written out; any other count is
    filled in one loop.  Each raises TypeError on a wrong number of
    fields, before it sets any."""

    __slots__ = ()
    _setters = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._setters += tuple(cls.__dict__[name].__set__
                              for name in cls.__dict__.get("__slots__", ()))
        if len(cls._setters) == 3:
            _fill_three(cls)

    def __init__(self, *fields):
        setters = self._setters
        if len(fields) != len(setters):
            raise _count_error(type(self), fields)
        for setter, value in zip(setters, fields):
            setter(self, value)

    _init = __init__

    @classmethod
    def _new(cls, *fields):
        setters = cls._setters
        if len(fields) != len(setters):
            raise _count_error(cls, fields)
        self = _object_new(cls)
        for setter, value in zip(setters, fields):
            setter(self, value)
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")


def _count_error(cls, fields):
    return TypeError(f"{cls.__name__} takes {len(cls._setters)} fields, "
                     f"got {len(fields)}")


def _fill_three(cls):
    # the hot constructors: fixed arity, so a wrong field count is
    # Python's own TypeError, raised before the body sets anything
    set_a, set_b, set_c = cls._setters

    def _init(self, a, b, c):
        set_a(self, a)
        set_b(self, b)
        set_c(self, c)

    def _new(a, b, c):
        self = _object_new(cls)
        set_a(self, a)
        set_b(self, b)
        set_c(self, c)
        return self

    _init.__qualname__ = f"{cls.__name__}._init"
    _new.__qualname__ = f"{cls.__name__}._new"
    cls._init, cls._new = _init, staticmethod(_new)


class Cyc(Frozen):
    """An element of Q(zeta_N) for a fixed N (the `order`).

    The value is sum(num[k] * z^k) / den: `num` holds d ints in the power
    basis and `den` is a positive int, in lowest terms (gcd(den, *num) is
    1, and zero has den 1), so equal scalars have equal fields.

    Operations between scalars of different orders raise ValueError;
    plain ints and Fractions coerce into any order, through Cyc.of, as
    the right operand, or as either factor of a product.
    """

    __slots__ = ("order", "num", "den")

    def __init__(self, order, coeffs):
        """The scalar with the given d power-basis coefficients, ints or Fractions."""
        coeffs = [Cyc.of(a, 1).as_fraction() for a in coeffs]
        if len(coeffs) != len(_powers(order)[0]):
            raise ValueError("coefficient count is not the field degree")
        den = lcm(*(a.denominator for a in coeffs))
        c = _lowest(order, [a.numerator * (den // a.denominator)
                            for a in coeffs], den)
        self._init(order, c.num, c.den)

    @staticmethod
    def of(value, order: int) -> "Cyc":
        """The one scalar coercion: an int or a Fraction, or a Cyc of this
        order passed through (ValueError on another order).  Anything else,
        a float, a string or a Decimal among them, raises TypeError."""
        if isinstance(value, Cyc):
            if value.order != order:
                raise ValueError("cyclotomic order mismatch")
            return value
        if isinstance(value, int):
            num, den = int(value), 1
        elif isinstance(value, Fraction):
            num, den = value.numerator, value.denominator
        else:
            raise TypeError(f"not an exact scalar: {value!r}")
        d = len(_powers(order)[0])
        return _make(order, (num,) + (0,) * (d - 1), den)

    @staticmethod
    @cache
    def zero(order: int) -> "Cyc":
        """0 of this order, one shared value per order."""
        return Cyc.of(0, order)

    @staticmethod
    @cache
    def one(order: int) -> "Cyc":
        """1 of this order, one shared value per order."""
        return Cyc.of(1, order)

    @staticmethod
    def zeta(order: int, power: int = 1) -> "Cyc":
        """The root of unity z^power (power may be any integer)."""
        return _make(order, _powers(order)[power % order], 1)

    def _coerce(self, other):
        try:
            return Cyc.of(other, self.order)
        except TypeError:
            return None

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("scalar has a nonzero root-of-unity part")
        return Fraction(self.num[0], self.den)

    def __bool__(self):
        return any(self.num)

    def __add__(self, other):
        if other.__class__ is not Cyc or other.order != self.order:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        da, db = self.den, other.den
        if da == db:
            num = [a + b for a, b in zip(self.num, other.num)]
        else:
            num = [a * db + b * da for a, b in zip(self.num, other.num)]
            da *= db
        return _lowest(self.order, num, da)

    def __neg__(self):
        return _make(self.order, tuple(-a for a in self.num), self.den)

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        """The product.  A factor of 1 returns the other operand, and a
        factor of -1 its negation, with no convolution, fold or gcd: a
        Cyc is immutable, so an operand can be handed back as it is."""
        if other.__class__ is not Cyc or other.order != self.order:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        a, b = self.num, other.num
        if self.den == 1 and a[0] in (1, -1) and not any(a[1:]):
            return other if a[0] == 1 else -other
        if other.den == 1 and b[0] in (1, -1) and not any(b[1:]):
            return self if b[0] == 1 else -self
        d = len(a)
        prod = [0] * (2 * d - 1)
        i = 0
        for ai in a:
            if ai:
                k = i
                for bj in b:
                    prod[k] += ai * bj
                    k += 1
            i += 1
        # z^k for k >= d is a row of ints, since Phi_N is monic and integral
        powers = _POWERS[self.order]
        n = len(powers)
        for k in range(d, 2 * d - 1):
            c = prod[k]
            if c:
                for i, r in enumerate(powers[k % n]):
                    prod[i] += c * r
        del prod[d:]
        return _lowest(self.order, prod, self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> "Cyc":
        """Multiplicative inverse.  A rational value swaps its numerator
        and denominator.  Any other value a is inverted by its norm:
        c = prod of the Galois conjugates sigma_k(a) (z -> z^k) over the
        units k != 1 mod N, so that a * c = N(a) is rational and nonzero
        (Phi_N is irreducible), and 1/a = c * N(a)^-1."""
        num, den = self.num, self.den
        n0 = num[0]
        if not any(num[1:]):
            if not n0:
                raise ZeroDivisionError("inverse of zero scalar")
            if n0 < 0:
                return _make(self.order, (-den,) + num[1:], -n0)
            return _make(self.order, (den,) + num[1:], n0)
        powers = _POWERS[self.order]
        n = len(powers)
        c = None
        for k in range(2, n):
            if gcd(k, n) == 1:
                # sigma_k maps the lattice of numerators onto itself, so
                # the conjugate is in lowest terms over the same den
                conj = [0] * len(num)
                for i, a in enumerate(num):
                    if a:
                        for j, r in enumerate(powers[i * k % n]):
                            conj[j] += a * r
                conj = _make(self.order, tuple(conj), den)
                c = conj if c is None else c * conj
        return c * (self * c).inverse()

    def __eq__(self, other):
        if other.__class__ is Cyc:
            return (self.num == other.num and self.den == other.den
                    and self.order == other.order)
        if isinstance(other, (int, Fraction)):
            return (self.den == other.denominator and self.num[0] == other.numerator
                    and not any(self.num[1:]))
        return NotImplemented

    def __hash__(self):
        num = self.num
        if any(num[1:]):
            return hash((self.order, num, self.den))
        # equal to the hash of the int or Fraction of the same value
        return hash(num[0]) if self.den == 1 else hash(Fraction(num[0], self.den))

    def __repr__(self):
        return f"Cyc({self.order}, {self})"

    def __str__(self):
        return print_scalar(self)


# A Cyc from fields already in lowest terms (num a tuple of d ints).
_make = Cyc._new


def _lowest(order, num, den):
    # A Cyc from a list of d ints over a positive den, in lowest terms.
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = [a // g for a in num]
            den //= g
    return _make(order, tuple(num), den)


def _widen(acc, den):
    """Put the accumulator acc = [denominator, numerators...] over a
    multiple of den, the lcm of the two when den does not divide its
    own, and return the factor that brings a product over den to it."""
    if acc[0] % den:
        wide = lcm(acc[0], den)
        up = wide // acc[0]
        acc[:] = [wide] + [a * up for a in acc[1:]]
    return acc[0] // den


def _reduce(order, accs, scale=1):
    """The nonzero Cycs of the accumulators accs, a map from keys to
    [denominator, unreduced power-basis numerators...], each divided by
    scale.  Each accumulator is folded in place, z^k for k >= d with row
    k % N of _powers, and its first d numerators become the Cyc, divided
    by their gcd with the denominator."""
    powers = _powers(order)
    d = len(powers[0])
    out = {}
    if d == 1:  # the field is Q: each accumulator is [denominator, numerator]
        for key, (den, a) in accs.items():
            if a:
                den *= scale
                g = gcd(den, a)
                out[key] = _make(order, (a // g,), den // g)
        return out
    for key, acc in accs.items():
        for k in range(d + 1, len(acc)):
            a = acc[k]
            if a:
                for i, r in enumerate(powers[(k - 1) % order], 1):
                    acc[i] += a * r
        num = tuple(acc[1:d + 1])
        if any(num):
            den = acc[0] * scale
            g = gcd(den, *num)
            if g != 1:
                num = tuple(a // g for a in num)
                den //= g
            out[key] = _make(order, num, den)
    return out


def print_scalar(c: Cyc) -> str:
    """Canonical form: rational coefficients in lowest terms, terms by
    ascending power of z, e.g. ``1/2 - z + 3*z^2``.  Each coefficient is
    read off num and den, with one gcd."""
    parts = []
    den = c.den
    for k, a in enumerate(c.num):
        if not a:
            continue
        g = gcd(a, den)
        top, bottom = abs(a) // g, den // g
        mag = str(top) if bottom == 1 else f"{top}/{bottom}"
        if k == 0:
            body = mag
        elif mag == "1":
            body = "z" if k == 1 else f"z^{k}"
        else:
            body = f"{mag}*z" if k == 1 else f"{mag}*z^{k}"
        if not parts:
            parts.append(body if a > 0 else "-" + body)
        else:
            parts.append(("+ " if a > 0 else "- ") + body)
    if not parts:
        return "0"
    return " ".join(parts)


# 0-9, as in words, not \d, which takes other scripts' digits too ("\u0661")
_TOKEN_RE = re.compile(r"\s*(?:([0-9]+)|([z*/^+-]))")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad = len(text) - len(stripped)
            raise ValueError(f"unexpected character {text[bad]!r} at position {bad}")
        if m.group(1) is not None:
            tokens.append(("int", int(m.group(1)), m.start(1)))
        else:
            tokens.append((m.group(2), None, m.start(2)))
        pos = m.end()
    return tokens


def parse_scalar(text: str, order: int) -> Cyc:
    """Parse a scalar literal: signed sums of ``p``, ``p/q``, ``z``,
    ``z^k``, ``p*z^k``, ``p/q*z^k``.  Raises ValueError on malformed
    input, reporting the offending position."""
    tokens = _tokenize(text)
    if not tokens:
        raise ValueError("empty scalar literal")
    i = 0
    total = Cyc.zero(order)

    def fail(msg, idx):
        pos = tokens[idx][2] if idx < len(tokens) else len(text)
        raise ValueError(f"{msg} at position {pos}")

    first = True
    while i < len(tokens):
        if first:
            sign = 1
            if tokens[i][0] == "-":
                sign = -1
                i += 1
        else:
            if tokens[i][0] == "+":
                sign = 1
            elif tokens[i][0] == "-":
                sign = -1
            else:
                fail("expected '+' or '-'", i)
            i += 1
        if i >= len(tokens):
            fail("dangling sign", i)
        coeff = Fraction(1)
        has_coeff = False
        if tokens[i][0] == "int":
            num = tokens[i][1]
            i += 1
            coeff = Fraction(num)
            has_coeff = True
            if i < len(tokens) and tokens[i][0] == "/":
                i += 1
                if i >= len(tokens) or tokens[i][0] != "int":
                    fail("expected denominator", i)
                if tokens[i][1] == 0:
                    fail("zero denominator", i)
                coeff /= tokens[i][1]
                i += 1
        zpow = None
        if has_coeff and i < len(tokens) and tokens[i][0] == "*":
            i += 1
            if i >= len(tokens) or tokens[i][0] != "z":
                fail("expected z after '*'", i)
        if i < len(tokens) and tokens[i][0] == "z":
            i += 1
            zpow = 1
            if i < len(tokens) and tokens[i][0] == "^":
                i += 1
                if i >= len(tokens) or tokens[i][0] != "int":
                    fail("expected integer exponent", i)
                zpow = tokens[i][1]
                i += 1
        elif not has_coeff:
            fail("expected a term", i)
        term = Cyc.of(coeff, order)
        if zpow is not None:
            term = term * Cyc.zeta(order, zpow)
        total = total + (term if sign > 0 else -term)
        first = False
    return total
