"""Field arithmetic in Q(zeta_N): construction, parsing, printing, inverses."""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from skewbrack.scalars import (
    Cyc,
    cyclotomic_polynomial,
    field_degree,
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
    # z^N = 1 and the minimal polynomial kills Phi_N(z).
    for order in (1, 2, 3, 4, 6, 5, 8, 12):
        z = Cyc.zeta(order)
        assert z ** order == Cyc.one(order)
        acc = Cyc.zero(order)
        for k, c in enumerate(cyclotomic_polynomial(order)):
            acc = acc + Cyc.of(c, order) * z ** k
        assert acc.is_zero()


def test_order_one_collapses_to_rationals():
    z = Cyc.zeta(1)
    assert z == 1
    assert (z + z).as_fraction() == 2


def test_known_product_order_four():
    z = Cyc.zeta(4)
    assert (1 + z) * (1 - z) == 2


def test_cyclotomic_polynomial_refuses_order_zero():
    with pytest.raises(ValueError, match="positive"):
        cyclotomic_polynomial(0)


def test_mismatched_orders_raise():
    with pytest.raises(ValueError):
        Cyc.zeta(4) + Cyc.zeta(6)
    with pytest.raises(ValueError):
        Cyc.zeta(4) * Cyc.zeta(6)


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
    order = data.draw(st.sampled_from([1, 2, 3, 4, 6, 8]))
    a = _random_scalar(data.draw, order)
    b = _random_scalar(data.draw, order)
    c = _random_scalar(data.draw, order)
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a + (-a) == Cyc.zero(order)


@given(st.data())
def test_inverse_round_trip(data):
    order = data.draw(st.sampled_from([1, 2, 3, 4, 6, 8, 12]))
    a = _random_scalar(data.draw, order)
    if a.is_zero():
        return
    assert a * a.inverse() == Cyc.one(order)
    assert (Cyc.one(order) / a) * a == Cyc.one(order)


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
    assert parse_scalar("1/2*z^3", 4) == Cyc.zeta(4, 3) / 2
    assert parse_scalar("-z + 1", 4) == Cyc.one(4) - Cyc.zeta(4)
    assert parse_scalar(" 1/2 - z ", 4) == Cyc.of(Fraction(1, 2), 4) - Cyc.zeta(4)
    assert parse_scalar("z^5", 4) == Cyc.zeta(4)


def test_parse_errors_report_position():
    for bad in ["", "1 +", "1//2", "*z", "1 2", "q", "1/0", "z^", "+1", "1 + + 2"]:
        with pytest.raises(ValueError):
            parse_scalar(bad, 4)
    with pytest.raises(ValueError, match="expected z after '\\*' at position 2"):
        parse_scalar("2*3", 4)


def test_as_fraction_refuses_an_irrational_scalar():
    assert Cyc.of(Fraction(-3, 2), 4).as_fraction() == Fraction(-3, 2)
    with pytest.raises(ValueError):
        Cyc.zeta(4).as_fraction()


def test_a_plain_number_divided_by_a_scalar():
    assert 2 / Cyc.zeta(5) == Cyc.of(2, 5) * Cyc.zeta(5).inverse()
    assert Fraction(1, 2) / Cyc.of(3, 5) == Cyc.of(Fraction(1, 6), 5)


def test_print_canonical_forms():
    assert print_scalar(Cyc.zero(4)) == "0"
    assert print_scalar(Cyc.of(Fraction(-3, 2), 4)) == "-3/2"
    a = Cyc.of(Fraction(1, 2), 6) - Cyc.zeta(6) + 3 * Cyc.zeta(6) ** 2
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
    assert a.coeffs == _ref_reduce(fa, order)
    assert (a + b).coeffs == tuple(x + y for x, y in zip(fa, fb))
    assert (a - b).coeffs == tuple(x - y for x, y in zip(fa, fb))
    assert (-a).coeffs == tuple(-x for x in fa)
    assert (a * b).coeffs == _ref_mul(fa, fb, order)
    k = data.draw(st.integers(0, 2 * order))
    assert Cyc.zeta(order, k).coeffs == _ref_reduce([0] * k + [1], order)
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
    assert _ref_mul(coeffs, inv.coeffs, order) == one


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_equal_values_have_equal_fields(data):
    order = data.draw(st.sampled_from(ORACLE_ORDERS))
    d = field_degree(order)
    a = Cyc(order, _fractions(data.draw, d))
    b = Cyc(order, _fractions(data.draw, d))
    routes = [a, a + b - b, a * 1, a / 1]
    if b:
        routes.append((a * b) / b)
    for c in routes:
        assert (c.num, c.den, hash(c)) == (a.num, a.den, hash(a))
    q = Fraction(data.draw(st.integers(-50, 50)), data.draw(st.integers(1, 20)))
    for value in (q, q.numerator):
        c = Cyc.of(value, order)
        assert hash(c) == hash(value) and c == value and value == c


def test_canonical_form_of_equal_rationals():
    halves = [Cyc(4, [Fraction(2, 4), 0]), Cyc.of(Fraction(1, 2), 4), Cyc.one(4) / 2]
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
            a + b, a - b, -a, a * b, a * 2, 3 - b, q.inverse(), a * q.inverse()
            a.inverse(), a / b
    finally:
        Fraction.__new__ = original
    assert made == []
