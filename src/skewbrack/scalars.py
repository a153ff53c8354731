"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Scalars are represented in the power basis 1, z, ..., z^(d-1) of
Q[x]/Phi_N(x), where Phi_N is the N-th cyclotomic polynomial and
d = deg Phi_N.  All coefficients are exact rationals, held as integers
over one common denominator, so equality is decidable and every
computation downstream of this module is exact.  The bilinear products
of linalg and polyvec sum each output entry in plain ints instead, as
unreduced power-basis numerators over one denominator that _widen keeps
common, and _reduce makes each sum one Cyc.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm

_CYCLOTOMIC_CACHE: dict[int, tuple[int, ...]] = {}


def _divisors(n):
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


def _int_poly_div_exact(num, den):
    # Exact division of integer polynomials, ascending coefficients.
    # den must be monic up to sign of its leading coefficient.
    num = list(num)
    den = list(den)
    while den and den[-1] == 0:
        den.pop()
    dn, dd = len(num) - 1, len(den) - 1
    quot = [0] * (dn - dd + 1)
    for k in range(dn - dd, -1, -1):
        c = num[dd + k]
        assert c % den[dd] == 0
        q = c // den[dd]
        quot[k] = q
        for i, dc in enumerate(den):
            num[i + k] -= q * dc
    assert all(c == 0 for c in num)
    return quot


def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, ascending.

    Computed by exact division: Phi_n = (x^n - 1) / prod_{d|n, d<n} Phi_d.
    """
    if n < 1:
        raise ValueError("cyclotomic order must be a positive integer")
    if n not in _CYCLOTOMIC_CACHE:
        num = [-1] + [0] * (n - 1) + [1]
        for d in _divisors(n):
            if d < n:
                num = _int_poly_div_exact(num, cyclotomic_polynomial(d))
        _CYCLOTOMIC_CACHE[n] = tuple(num)
    return _CYCLOTOMIC_CACHE[n]


def field_degree(order: int) -> int:
    return len(cyclotomic_polynomial(order)) - 1


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


class Cyc:
    """An element of Q(zeta_N) for a fixed N (the `order`).

    The value is sum(num[k] * z^k) / den: `num` holds d ints in the power
    basis and `den` is a positive int, in lowest terms (gcd(den, *num) is
    1, and zero has den 1), so equal scalars have equal fields.

    Operations between scalars of different orders raise ValueError;
    plain ints and Fractions coerce into any order.
    """

    __slots__ = ("order", "num", "den")

    def __init__(self, order, coeffs):
        """The scalar with the given d rational power-basis coefficients."""
        d = len(_powers(order)[0])
        coeffs = [Fraction(a) for a in coeffs]
        assert len(coeffs) == d
        den = lcm(*(a.denominator for a in coeffs))
        c = _lowest(order, [a.numerator * (den // a.denominator)
                            for a in coeffs], den)
        _set_order(self, order)
        _set_num(self, c.num)
        _set_den(self, c.den)

    def __setattr__(self, name, value):
        raise AttributeError("Cyc is immutable")

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The power-basis coefficients as Fractions."""
        return tuple(Fraction(n, self.den) for n in self.num)

    @staticmethod
    def of(value, order: int) -> "Cyc":
        """Embed an int or Fraction (or pass a Cyc through, checking order)."""
        if isinstance(value, Cyc):
            if value.order != order:
                raise ValueError("cyclotomic order mismatch")
            return value
        if isinstance(value, int):
            num, den = int(value), 1
        else:
            value = Fraction(value)
            num, den = value.numerator, value.denominator
        d = len(_powers(order)[0])
        return _make(order, (num,) + (0,) * (d - 1), den)

    @staticmethod
    def zero(order: int) -> "Cyc":
        return Cyc.of(0, order)

    @staticmethod
    def one(order: int) -> "Cyc":
        return Cyc.of(1, order)

    @staticmethod
    def zeta(order: int, power: int = 1) -> "Cyc":
        """The root of unity z^power (power may be any integer)."""
        return _make(order, _powers(order)[power % order], 1)

    def _coerce(self, other):
        if isinstance(other, Cyc):
            if other.order != self.order:
                raise ValueError("cyclotomic order mismatch")
            return other
        if isinstance(other, (int, Fraction)):
            return Cyc.of(other, self.order)
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

    __radd__ = __add__

    def __neg__(self):
        return _make(self.order, tuple(-a for a in self.num), self.den)

    def __sub__(self, other):
        if other.__class__ is not Cyc or other.order != self.order:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        da, db = self.den, other.den
        if da == db:
            num = [a - b for a, b in zip(self.num, other.num)]
        else:
            num = [a * db - b * da for a, b in zip(self.num, other.num)]
            da *= db
        return _lowest(self.order, num, da)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        if other.__class__ is not Cyc or other.order != self.order:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        a, b = self.num, other.num
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

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = Cyc.one(self.order)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, Cyc):
            return (self.order == other.order and self.num == other.num
                    and self.den == other.den)
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


_new = object.__new__
_set_order = Cyc.__dict__["order"].__set__
_set_num = Cyc.__dict__["num"].__set__
_set_den = Cyc.__dict__["den"].__set__


def _make(order, num, den):
    # A Cyc from fields already in lowest terms (num a tuple of d ints).
    c = _new(Cyc)
    _set_order(c, order)
    _set_num(c, num)
    _set_den(c, den)
    return c


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
    scale: z^k for k >= d is folded in with row k % N of _powers."""
    powers = _powers(order)
    d = len(powers[0])
    out = {}
    for key, (den, *vec) in accs.items():
        for k in range(d, len(vec)):
            a = vec[k]
            if a:
                for i, r in enumerate(powers[k % order]):
                    vec[i] += a * r
        if any(vec[:d]):
            out[key] = _lowest(order, vec[:d], den * scale)
    return out


def print_scalar(c: Cyc) -> str:
    """Canonical form: rational coefficients in lowest terms, terms by
    ascending power of z, e.g. ``1/2 - z + 3*z^2``."""
    parts = []
    for k, a in enumerate(c.coeffs):
        if a == 0:
            continue
        mag = abs(a)
        if k == 0:
            body = str(mag)
        elif mag == 1:
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


_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([z*/^+-]))")


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
