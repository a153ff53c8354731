"""Field arithmetic in Q(zeta_N): construction, parsing, printing, inverses."""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from helpers import field_degree, fraction_coeffs, print_scalar_by_fractions
from skewbrack.linalg import Matrix
from skewbrack.polyvec import Poly, Polyvector
from skewbrack.scalars import (
    Cyc,
    _reduce,
    cyclotomic_polynomial,
    parse_scalar,
    print_scalar,
)


def test_cyclotomic_polynomials_small_orders():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    assert field_degree(5) == 4
    assert field_degree(8) == 4


def test_zeta_relations():
    # Cyc.zeta(N, k) is the product of k factors z, z^N = 1, and the
    # minimal polynomial kills Phi_N(z).
    for order in (1, 2, 3, 4, 6, 5, 8, 12):
        z = Cyc.zeta(order)
        powers = [Cyc.one(order)]
        for _ in range(order):
            powers.append(powers[-1] * z)
        assert powers == [Cyc.zeta(order, k) for k in range(order + 1)]
        assert powers[order] == Cyc.one(order)
        assert Cyc.zeta(order, -1) * z == Cyc.one(order)
        acc = Cyc.zero(order)
        for k, c in enumerate(cyclotomic_polynomial(order)):
            acc = acc + Cyc.of(c, order) * powers[k]
        assert acc.is_zero()


def test_order_one_collapses_to_rationals():
    z = Cyc.zeta(1)
    assert z == 1
    assert (z + z).as_fraction() == 2


def test_known_product_order_four():
    z = Cyc.zeta(4)
    assert (z + 1) * (-z + 1) == 2


def test_cyclotomic_polynomial_refuses_order_zero():
    with pytest.raises(ValueError, match="positive"):
        cyclotomic_polynomial(0)


def test_mismatched_orders_raise():
    with pytest.raises(ValueError):
        Cyc.zeta(4) + Cyc.zeta(6)
    with pytest.raises(ValueError):
        Cyc.zeta(4) * Cyc.zeta(6)


INEXACT = [0.5, 0.1, "3/4", "1", Decimal("0.5"), Decimal(1)]


@pytest.mark.parametrize("value", INEXACT, ids=repr)
def test_every_scalar_taking_constructor_refuses_inexact_values(value):
    # Cyc.of is the one coercion: an int, a Fraction or a Cyc of the same
    # order, never whatever Fraction() would parse
    constructors = [
        lambda: Cyc.of(value, 1),
        lambda: Cyc.of(value, 5),
        lambda: Cyc(4, [value, 0]),
        lambda: Poly(1, 1, {(1,): value}),
        lambda: Poly.monomial((0, 2), value, 5),
        lambda: Polyvector.term(value, (1, 0), (0,), 1),
        lambda: Matrix(1, [[value]]),
    ]
    for build in constructors:
        with pytest.raises(TypeError):
            build()


@pytest.mark.parametrize("value", INEXACT, ids=repr)
def test_operators_refuse_inexact_values(value):
    for a in (Cyc.one(5), Poly.monomial((1,), 1, 1), Polyvector.term(1, (1,), (0,), 1)):
        for op in (lambda: a * value, lambda: value * a):
            with pytest.raises(TypeError):
                op()
    with pytest.raises(TypeError):
        Cyc.one(5) + value
    with pytest.raises(TypeError):
        value - Cyc.one(5)


def test_exact_values_coerce_alike():
    half = Cyc(5, [Fraction(1, 2), 0, 0, 0])
    assert Cyc.of(Fraction(1, 2), 5) == half == Cyc.one(5) * Fraction(1, 2)
    assert Cyc.of(True, 1) == Cyc.of(1, 1) and type(Cyc.of(True, 1).num[0]) is int
    assert Cyc.of(half, 5) is half
    with pytest.raises(ValueError):
        Cyc.of(half, 4)
    with pytest.raises(ValueError):
        Cyc(5, [1, 2])


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        Cyc.zero(4).inverse()


def _random_scalar(draw, order):
    d = field_degree(order)
    coeffs = [
        Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 4)))
        for _ in range(d)
    ]
    return Cyc(order, coeffs)


@given(st.data())
def test_field_axioms(data):
    order = data.draw(st.sampled_from([1, 2, 3, 4, 5, 6, 8]))
    a = _random_scalar(data.draw, order)
    b = _random_scalar(data.draw, order)
    c = _random_scalar(data.draw, order)
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a + (-a) == Cyc.zero(order)
    # subtraction is the sum with the negation, checked termwise
    assert (a - b) + b == a and a - b == -(b - a)
    fa, fb = fraction_coeffs(a), fraction_coeffs(b)
    assert fraction_coeffs(a - b) == tuple(x - y for x, y in zip(fa, fb))
    for q in (1, Fraction(1, 3)):
        assert fraction_coeffs(a - q) == (fa[0] - q,) + fa[1:]
    # a scalar of another order, or an inexact one, on either side
    other = Cyc.one(7 if order == 5 else 5)
    for op in (lambda: a - other, lambda: other - a):
        with pytest.raises(ValueError):
            op()
    for op in (lambda: a - 0.5, lambda: 0.5 - a):
        with pytest.raises(TypeError):
            op()


@given(st.data())
def test_inverse_round_trip(data):
    order = data.draw(st.sampled_from([1, 2, 3, 4, 6, 8, 12]))
    a = _random_scalar(data.draw, order)
    if a.is_zero():
        return
    inv = a.inverse()
    assert a * inv == Cyc.one(order) and inv * a == Cyc.one(order)
    assert inv.inverse() == a


@given(st.data())
def test_print_parse_round_trip(data):
    order = data.draw(st.sampled_from([1, 2, 3, 4, 6, 8]))
    a = _random_scalar(data.draw, order)
    assert parse_scalar(print_scalar(a), order) == a


def test_parse_forms():
    assert parse_scalar("3", 4) == 3
    assert parse_scalar("3/2", 4) == Fraction(3, 2)
    assert parse_scalar("z", 4) == Cyc.zeta(4)
    assert parse_scalar("z^2", 4) == -1
    assert parse_scalar("2*z", 4) == Cyc.zeta(4) * 2
    assert parse_scalar("1/2*z^3", 4) == Cyc.zeta(4, 3) * Fraction(1, 2)
    assert parse_scalar("-z + 1", 4) == Cyc.one(4) - Cyc.zeta(4)
    assert parse_scalar(" 1/2 - z ", 4) == Cyc.of(Fraction(1, 2), 4) - Cyc.zeta(4)
    assert parse_scalar("z^5", 4) == Cyc.zeta(4)


# the grammar apart from the parser: a term is one of these forms, '*'
# may be left out, and spaces and tabs may stand around any token
_FORMS = ["p", "p/q", "z", "z^k", "p*z^k", "p/q*z^k"]
_SPACE = st.text(alphabet=" \t", max_size=2)


@given(st.data())
def test_every_term_form_parses_to_its_value(data):
    order = data.draw(st.sampled_from([1, 2, 3, 4, 5, 6, 8, 12]))
    tokens, value = [], Cyc.zero(order)
    for i in range(data.draw(st.integers(1, 4))):
        # every term after the first has a sign; the first only '-', if any
        sign = data.draw(st.sampled_from(["+", "-"] if i else ["", "-"]))
        p, q = data.draw(st.integers(0, 99)), data.draw(st.integers(1, 99))
        k, star = data.draw(st.integers(0, 3 * order)), data.draw(st.sampled_from(["*", ""]))
        form = data.draw(st.sampled_from(_FORMS))
        tokens += [sign] + [{"p": str(p), "q": str(q), "k": str(k), "*": star}.get(c, c)
                            for c in form]
        coeff = Fraction(p if "p" in form else 1, q if "q" in form else 1)
        power = k if "k" in form else int("z" in form)
        value = value + Cyc.of(-coeff if sign == "-" else coeff, order) * Cyc.zeta(order, power)
    text = "".join(data.draw(_SPACE) + t for t in tokens if t) + data.draw(_SPACE)
    assert parse_scalar(text, order) == value


def test_parse_errors_report_position():
    # a '/' or '^' with no integer after it is reported where it stands
    refusals = {"": 0, " ": 1, "+1": 0, "-": 1, "1 2": 2, "2*3": 2, "2**z": 2,
                "1//2": 1, "1/0": 2, "z^": 1, "z^-1": 1, "z z": 2, "1/2/3": 3,
                "1 + + 2": 4, "1 +": 3, "*z": 0, "z 2": 2, "  +z": 2, "1/00 + z": 2,
                "2*": 2, "1* + z": 3}
    for text, pos in refusals.items():
        with pytest.raises(ValueError) as info:
            parse_scalar(text, 4)
        assert str(info.value) == f"malformed scalar literal at position {pos}", text
    # an ASCII letter other than z is named where it stands, before any grammar
    for text, pos in {"q": 0, "1 + x": 4, "2*3q": 3}.items():
        with pytest.raises(ValueError) as info:
            parse_scalar(text, 4)
        assert str(info.value) == f"unexpected character {text[pos]!r} at position {pos}"


@pytest.mark.parametrize("text, pos", [("\u0661", 0), ("\uff12/\uff13", 0), ("-\u0661", 1),
                                       ("1/\u0662", 2), ("z^\u0663", 2), ("1 + \u06f3", 4),
                                       ("1\u3000+\u30002", 1), ("1\x1c+\x1f2", 1), ("1\n+ 2", 1),
                                       ("\x851", 0), ("1\r", 1)])
def test_literals_take_only_ascii_digits(text, pos):
    # int() reads other scripts' decimal digits, which \d matches, but a
    # literal takes 0-9 only, as words and generator names do; and \s and
    # str.isspace take more whitespace than a literal's space or tab
    with pytest.raises(ValueError) as info:
        parse_scalar(text, 4)
    assert str(info.value) == f"unexpected character {text[pos]!r} at position {pos}"


def test_as_fraction_refuses_an_irrational_scalar():
    assert Cyc.of(Fraction(-3, 2), 4).as_fraction() == Fraction(-3, 2)
    with pytest.raises(ValueError):
        Cyc.zeta(4).as_fraction()


def test_print_canonical_forms():
    assert print_scalar(Cyc.zero(4)) == "0"
    assert print_scalar(Cyc.of(Fraction(-3, 2), 4)) == "-3/2"
    a = Cyc.of(Fraction(1, 2), 6) - Cyc.zeta(6) + 3 * Cyc.zeta(6, 2)
    # order 6 has degree 2, so z^2 folds into the basis: z^2 = z - 1
    assert print_scalar(a) == "-5/2 + 2*z"


# An independent reference for the field operations: Fraction coefficient
# lists in the power basis, multiplied as polynomials and reduced by long
# division by Phi_N.  It shares no arithmetic with Cyc.

ORACLE_ORDERS = [1, 2, 3, 4, 5, 6, 8, 12, 15]


def _ref_reduce(poly, order):
    phi = cyclotomic_polynomial(order)
    d = len(phi) - 1
    rem = [Fraction(c) for c in poly]
    for top in range(len(rem) - 1, d - 1, -1):
        q = rem[top] / phi[d]
        for i, c in enumerate(phi):
            rem[top - d + i] -= q * c
    return tuple(rem[:d] + [Fraction(0)] * (d - len(rem)))


def _ref_mul(a, b, order):
    prod = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return _ref_reduce(prod, order)


def _fractions(draw, d):
    return [
        Fraction(draw(st.integers(-30, 30)), draw(st.integers(1, 12)))
        for _ in range(d)
    ]


def _assert_canonical(c):
    # integers over one positive denominator, in lowest terms
    assert len(c.num) == field_degree(c.order)
    assert all(type(n) is int for n in c.num) and type(c.den) is int
    assert c.den > 0 and gcd(c.den, *c.num) == 1
    if c.is_zero():
        assert c.den == 1


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_ring_operations_match_polynomial_reference(data):
    order = data.draw(st.sampled_from(ORACLE_ORDERS))
    d = field_degree(order)
    fa, fb = _fractions(data.draw, d), _fractions(data.draw, d)
    a, b = Cyc(order, fa), Cyc(order, fb)
    assert fraction_coeffs(a) == _ref_reduce(fa, order)
    assert fraction_coeffs(a + b) == tuple(x + y for x, y in zip(fa, fb))
    assert fraction_coeffs(a - b) == tuple(x - y for x, y in zip(fa, fb))
    assert fraction_coeffs(-a) == tuple(-x for x in fa)
    assert fraction_coeffs(a * b) == _ref_mul(fa, fb, order)
    k = data.draw(st.integers(0, 2 * order))
    assert fraction_coeffs(Cyc.zeta(order, k)) == _ref_reduce([0] * k + [1], order)
    for c in (a, b, a + b, a - b, -a, a * b, a - a, a * 0):
        _assert_canonical(c)


def _inverse_candidate(draw, order):
    d = field_degree(order)
    kind = draw(st.sampled_from(["rational", "monomial", "general"]))
    coeffs = [Fraction(0)] * d
    if kind == "general":
        coeffs = _fractions(draw, d)
    else:
        k = 0 if kind == "rational" else draw(st.integers(0, d - 1))
        coeffs[k] = Fraction(draw(st.integers(-30, 30)), draw(st.integers(1, 12)))
    return coeffs


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_inverse_matches_polynomial_reference(data):
    order = data.draw(st.sampled_from(ORACLE_ORDERS))
    coeffs = _inverse_candidate(data.draw, order)
    a = Cyc(order, coeffs)
    if not any(coeffs):
        with pytest.raises(ZeroDivisionError):
            a.inverse()
        return
    inv = a.inverse()
    _assert_canonical(inv)
    one = tuple(Fraction(int(i == 0)) for i in range(field_degree(order)))
    assert _ref_mul(coeffs, fraction_coeffs(inv), order) == one


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_equal_values_have_equal_fields(data):
    order = data.draw(st.sampled_from(ORACLE_ORDERS))
    d = field_degree(order)
    a = Cyc(order, _fractions(data.draw, d))
    b = Cyc(order, _fractions(data.draw, d))
    routes = [a, a + b - b, a * 1]
    if a:
        routes.append(a.inverse().inverse())
    if b:
        routes.append((a * b) * b.inverse())
    for c in routes:
        assert (c.num, c.den, hash(c)) == (a.num, a.den, hash(a))
    q = Fraction(data.draw(st.integers(-50, 50)), data.draw(st.integers(1, 20)))
    for value in (q, q.numerator):
        c = Cyc.of(value, order)
        assert hash(c) == hash(value) and c == value and value == c


UNIT_ORDERS = [1, 3, 4, 5, 6, 12]


def _unit_factors(order, a):
    """(factor, sign) for each spelling of 1 and -1 in this order: ints,
    Fractions, the shared Cyc.one, and a 1 computed from the nonzero a."""
    computed = a * a.inverse()
    ones = [1, Fraction(1), Cyc.one(order), computed]
    return [(u, 1) for u in ones] + [(-u, -1) for u in ones]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_a_unit_factor_returns_the_other_operand_or_its_negation(data):
    # a product by 1 or -1 skips the convolution, the fold and the gcd;
    # it must still be the general product, in lowest terms and immutable
    order = data.draw(st.sampled_from(UNIT_ORDERS))
    d = field_degree(order)
    coeffs = data.draw(st.sampled_from([[Fraction(0)] * d, _fractions(data.draw, d)]))
    x = Cyc(order, coeffs)
    a = Cyc(order, _fractions(data.draw, d))
    if not a:
        a = Cyc.zeta(order)
    fields = (x.order, x.num, x.den)
    for unit, sign in _unit_factors(order, a):
        want = Cyc(order, [sign * c for c in fraction_coeffs(x)])
        for got in (x * unit, unit * x):
            assert got.__class__ is Cyc
            assert (got.order, got.num, got.den) == (want.order, want.num, want.den)
            _assert_canonical(got)
            with pytest.raises(AttributeError):
                got.num = (7,) * d
        assert (x.order, x.num, x.den) == fields
    other = UNIT_ORDERS[(UNIT_ORDERS.index(order) + 1) % len(UNIT_ORDERS)]
    for unit in (Cyc.one(other), -Cyc.one(other)):
        with pytest.raises(ValueError):
            x * unit
        with pytest.raises(ValueError):
            unit * x
    assert Cyc.one(order).__mul__(1.0) is NotImplemented


def test_canonical_form_of_equal_rationals():
    halves = [Cyc(4, [Fraction(2, 4), 0]), Cyc.of(Fraction(1, 2), 4), Cyc.of(2, 4).inverse()]
    for c in halves:
        assert (c.num, c.den, hash(c)) == ((1, 0), 2, hash(Fraction(1, 2)))
    zero = Cyc(6, [Fraction(0, 5), Fraction(0, 7)])
    assert (zero.num, zero.den) == ((0, 0), 1)
    assert hash(Cyc.of(-3, 5)) == hash(-3)


def test_ring_operations_build_no_fraction():
    values = []
    for order in ORACLE_ORDERS:
        d = field_degree(order)
        a = Cyc(order, [Fraction(k + 1, 2 * k + 3) for k in range(d)])
        b = Cyc(order, [Fraction(3 - k, k + 2) for k in range(d)])
        values.append((a, b, Cyc.of(Fraction(-7, 3), order)))
    made = []
    original = Fraction.__dict__["__new__"]

    def counting(cls, *args, **kwargs):
        made.append(args)
        return original.__func__(cls, *args, **kwargs)

    Fraction.__new__ = staticmethod(counting)
    try:
        for a, b, q in values:
            a + b, a - b, -a, a * b, a * 2, b - 3, q.inverse(), a * q.inverse()
            a.inverse(), a * b.inverse()
    finally:
        Fraction.__new__ = original
    assert made == []


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_print_scalar_matches_the_fraction_formatting(data):
    order = data.draw(st.sampled_from([1, 4, 5, 6]))
    coeffs = [Fraction(data.draw(st.sampled_from([0, 0, 1, -1, 2, -3, 5, -12, 24])),
                       data.draw(st.integers(1, 12)))
              for _ in range(field_degree(order))]
    c = Cyc(order, coeffs)
    assert print_scalar(c) == print_scalar_by_fractions(c)
    assert print_scalar(-c) == print_scalar_by_fractions(-c)


def test_equality_agrees_with_hash_across_operand_types():
    for order in (1, 3, 4, 6):
        for q in (Fraction(0), Fraction(1), Fraction(-2), Fraction(3, 4), Fraction(-5, 12)):
            c = Cyc.of(q, order)
            for other in (q, q.numerator) if q.denominator == 1 else (q,):
                assert c == other and other == c and hash(c) == hash(other)
            assert c != q + 1 and c != Cyc.of(q + 1, order)
    # orders 3 and 6 share a field degree, so their fields can coincide
    for a, b in ((Cyc.one(3), Cyc.one(6)), (Cyc.zeta(3), Cyc(6, [0, 1])),
                 (Cyc.of(Fraction(1, 2), 4), Cyc.of(Fraction(1, 2), 5))):
        assert a != b and b != a and not a == b
    z = Cyc.zeta(4)
    assert z == Cyc(4, [0, 1]) and hash(z) == hash(Cyc(4, [0, 1]))
    assert z != 1 and z != Fraction(1) and z != "z"


def test_zero_and_one_are_shared_immutable_values():
    for order in (1, 4, 5, 12):
        for make, value in ((Cyc.zero, 0), (Cyc.one, 1)):
            shared = make(order)
            assert shared is make(order) and shared == Cyc.of(value, order)
            with pytest.raises(AttributeError):
                shared.num = (7,) * len(shared.num)
            with pytest.raises(AttributeError):
                shared.extra = 1
            assert shared == value and shared.order == order


REDUCE_ORDERS = [1, 2, 3, 4, 5, 6, 12]


def _accumulator(draw, order):
    """[denominator, unreduced numerators...] with d to 3d - 2 numerators,
    all of them scaled by a common factor; some sum to zero modulo Phi_N."""
    d = field_degree(order)
    length = draw(st.integers(d, 3 * d - 2))
    kind = draw(st.sampled_from(["random", "zero", "phi"]))
    if kind == "zero":
        vec = [0] * length
    elif kind == "phi":
        # a multiple of Phi_N (as far as the length allows), zero in the field
        phi = cyclotomic_polynomial(order)
        vec = [0] * length
        if length >= len(phi):
            shift = draw(st.integers(0, length - len(phi)))
            k = draw(st.integers(-5, 5))
            for i, a in enumerate(phi):
                vec[shift + i] = k * a
    else:
        vec = [draw(st.integers(-40, 40)) for _ in range(length)]
    factor = draw(st.sampled_from([1, 1, 2, 6, 35]))
    den = draw(st.integers(1, 12)) * factor
    return [den] + [a * factor for a in vec]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_reduce_matches_the_checked_constructor(data):
    order = data.draw(st.sampled_from(REDUCE_ORDERS))
    accs = {key: _accumulator(data.draw, order) for key in range(data.draw(st.integers(0, 4)))}
    scale = data.draw(st.sampled_from([1, 2, 3, 12]))
    want = {}
    for key, (den, *vec) in accs.items():
        ref = Cyc(order, _ref_reduce([Fraction(a, den * scale) for a in vec], order))
        if ref:
            want[key] = ref
    got = _reduce(order, {key: list(acc) for key, acc in accs.items()}, scale)
    assert got == want
    for c in got.values():
        assert c.order == order
        _assert_canonical(c)
