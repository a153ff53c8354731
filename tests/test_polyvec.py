import os
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from helpers import example_group, field_degree, mat, matmul
from skewbrack.cli import load_group_file
from skewbrack.linalg import Matrix, det, mat_inverse
from skewbrack.polyvec import (
    Poly,
    Polyvector,
    _int_terms,
    act,
    circle_product,
    euler_field,
    minor_det,
    minor_row,
    monomial_image,
    monomials,
    rev_sign,
    schouten,
    sort_sign,
    subst_matrix,
)
from skewbrack.scalars import Cyc, _reduce


GROUP_DATA = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "groups"


def test_sort_sign():
    assert sort_sign(()) == (1, ())
    assert sort_sign((2, 0, 1)) == (1, (0, 1, 2))
    assert sort_sign((1, 0)) == (-1, (0, 1))
    assert sort_sign((1, 1)) == (0, ())
    # two increasing wedges joined, as Polyvector.wedge signs them
    assert sort_sign((0, 2) + (1,)) == (-1, (0, 1, 2))
    assert sort_sign((0,) + (1, 2)) == (1, (0, 1, 2))
    assert sort_sign((0, 1) + (1,)) == (0, ())


def test_rev_sign():
    assert [rev_sign(k) for k in range(5)] == [1, 1, -1, -1, 1]


def test_poly_arithmetic():
    x1 = Poly.monomial((1, 0), 1, 1)
    x2 = Poly.monomial((0, 1), 1, 1)
    sq = (x1 + x2) * (x1 + x2)
    assert sq == x1 * x1 + (x1 * x2) * 2 + x2 * x2
    assert sq.deriv(0) == x1 * 2 + x2 * 2
    assert subst_matrix(x1 * x2, mat(1, [[0, 1], [1, 0]])) == x1 * x2
    assert Poly.zero(2, 1).is_zero()


def test_subst_matrix_columns_give_variable_images():
    # x1 -> x1 + x2 (first column), x2 -> x2
    m = mat(1, [[1, 0], [1, 1]])
    p = Poly.monomial((1, 0), 1, 1)
    assert subst_matrix(p, m) == Poly.monomial((1, 0), 1, 1) + Poly.monomial((0, 1), 1, 1)
    assert subst_matrix(Poly.monomial((0, 1), 1, 1), m) == Poly.monomial((0, 1), 1, 1)


def test_wedge_antisymmetry_and_overlap():
    d1 = Polyvector.term(1, (0, 0), (0,), 1)
    d2 = Polyvector.term(1, (0, 0), (1,), 1)
    assert d1.wedge(d2) == -(d2.wedge(d1))
    assert d1.wedge(d1).is_zero()
    # normalization in the constructor
    assert Polyvector.term(1, (0, 0), (1, 0), 1) == -(Polyvector.term(1, (0, 0), (0, 1), 1))


def test_euler_field():
    g = mat(1, [[-1, 0], [0, 1]])
    e = euler_field(g)
    # (x1 - (-x1)) d1 = 2 x1 d1; x2 fixed contributes nothing
    assert e == Polyvector.term(2, (1, 0), (0,), 1)
    assert euler_field(Matrix.identity(2, 1)).is_zero()


@pytest.mark.parametrize("rows", [[[1, 2, 3], [4, 5, 6]], [[1, 4], [2, 5], [3, 6]]],
                         ids=["2x3", "3x2"])
def test_euler_field_refuses_a_matrix_that_is_not_square(rows):
    with pytest.raises(ValueError, match="matrix is not square"):
        euler_field(Matrix(1, rows))


def euler_by_terms(g):
    """sum_i (x_i - sum_k g[k][i] x_k) d_i, one Polyvector.term at a time."""
    n, order = g.nrows, g.order
    unit = [tuple(int(j == k) for j in range(n)) for k in range(n)]
    out = Polyvector.zero(n, order)
    for i in range(n):
        out = out + Polyvector.term(1, unit[i], (i,), order)
        for k in range(n):
            out = out - Polyvector.term(g.rows[k][i], unit[k], (i,), order)
    return out


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_euler_field_of_dense_matrices_is_the_sum_over_columns(data):
    # every entry nonzero and g[0][1] != g[1][0], so reading rows of g in
    # place of columns changes the field
    order = data.draw(st.sampled_from([1, 5, 6]))
    n = data.draw(st.integers(2, 4))
    # a nonzero first power-basis coordinate makes the entry nonzero
    rest = st.lists(st.fractions(-3, 3, max_denominator=3), min_size=field_degree(order) - 1,
                    max_size=field_degree(order) - 1)
    first = st.builds(Fraction, st.sampled_from([-3, -2, -1, 1, 2, 3]), st.integers(1, 3))
    entries = st.builds(lambda c, cs: Cyc(order, [c, *cs]), first, rest)
    rows = [[data.draw(entries) for _ in range(n)] for _ in range(n)]
    assume(rows[0][1] != rows[1][0])
    g = Matrix(order, rows)
    assert euler_field(g) == euler_by_terms(g)


def test_act_euler_equivariance():
    # swap coordinates on k^2: h^-1 g h for g = diag(-1, 1) is diag(1, -1)
    h = mat(1, [[0, 1], [1, 0]])
    g = mat(1, [[-1, 0], [0, 1]])
    hi = mat_inverse(h)
    conj = matmul(hi, g, h)
    assert act(euler_field(g), [(h, hi)]) == euler_field(conj)


def test_act_composition():
    h1 = mat(1, [[0, 1], [1, 0]])
    h2 = mat(1, [[1, 1], [0, 1]])
    x = Polyvector.term(2, (1, 1), (0,), 1) + Polyvector.term(1, (0, 2), (0, 1), 1)
    once = act(act(x, [(h1, mat_inverse(h1))]), [(h2, mat_inverse(h2))])
    both = matmul(h1, h2)
    assert once == act(x, [(both, mat_inverse(both))])


def test_act_on_wedge_minors():
    h = mat(1, [[1, 1], [0, 1]])
    hi = mat_inverse(h)
    d12 = Polyvector.term(1, (0, 0), (0, 1), 1)
    # det h = 1 so the top wedge is fixed
    assert act(d12, [(h, hi)]) == d12


def test_schouten_derivation_commutators():
    # [d1, x1^2 d2] = 2 x1 d2
    X = Polyvector.term(1, (0, 0, 0), (0,), 1)
    Y = Polyvector.term(1, (2, 0, 0), (1,), 1)
    assert schouten(X, Y) == Polyvector.term(2, (1, 0, 0), (1,), 1)
    # [x2 d1, x1 d2] = x2 d2 - x1 d1
    X = Polyvector.term(1, (0, 1, 0), (0,), 1)
    Y = Polyvector.term(1, (1, 0, 0), (1,), 1)
    expected = Polyvector.term(1, (0, 1, 0), (1,), 1) - Polyvector.term(1, (1, 0, 0), (0,), 1)
    assert schouten(X, Y) == expected


def test_schouten_interior_to_function():
    # [d1, x1^2] = 2 x1 (degree-0 output)
    X = Polyvector.term(1, (0, 0), (0,), 1)
    f = Polyvector.term(1, (2, 0), (), 1)
    assert schouten(X, f) == Polyvector.term(2, (1, 0), (), 1)


def test_schouten_bivector_anchor():
    # [d1^d2, x1 d3^d4] = -d2^d3^d4 (classical Schouten value)
    P = Polyvector.term(1, (0, 0, 0, 0), (0, 1), 1)
    Q = Polyvector.term(1, (1, 0, 0, 0), (2, 3), 1)
    assert schouten(P, Q) == Polyvector.term(-1, (0, 0, 0, 0), (1, 2, 3), 1)


def test_schouten_leibniz():
    P = Polyvector.term(1, (0, 0, 0, 0), (0, 1), 1)
    A = Polyvector.term(1, (1, 0, 0, 0), (2,), 1)
    B = Polyvector.term(1, (0, 0, 0, 0), (3,), 1)
    lhs = schouten(P, A.wedge(B))
    rhs = schouten(P, A).wedge(B) - A.wedge(schouten(P, B))
    assert lhs == rhs


def test_schouten_on_mixed_exterior_degrees():
    # [x1 d1 + x2 d1^d2, x1^2 d2]: each pair of components takes the sign
    # of its own exterior degrees
    a = Polyvector.term(1, (1, 0), (0,), 1)
    b = Polyvector.term(1, (0, 1), (0, 1), 1)
    y = Polyvector.term(1, (2, 0), (1,), 1)
    # 2 x1^2 d2 from the vector fields, and -(x1^2 d2 o x2 d1^d2)
    assert schouten(a + b, y) == (Polyvector.term(2, (2, 0), (1,), 1)
                                  + Polyvector.term(-1, (2, 0), (0, 1), 1))


def test_printer():
    x = Polyvector.term(Fraction(1, 2), (2, 0, 0), (1, 2), 1)
    assert str(x) == "(1/2)*x1^2*d2^d3"
    assert str(Polyvector.zero(2, 1)) == "0"
    assert str(Polyvector.term(-1, (0, 0), (0,), 1)) == "-d1"
    assert str(Polyvector.term(1, (1, 0), (), 1)) == "x1"


@st.composite
def small_polyvector(draw, n=3, ext=None, order=1):
    if ext is None:
        ext = draw(st.integers(min_value=0, max_value=2))
    idxs = draw(
        st.lists(
            st.tuples(*([st.integers(0, n - 1)] * ext)).map(tuple),
            min_size=1,
            max_size=2,
        )
    )
    comps = Polyvector.zero(n, order)
    for raw in idxs:
        if len(set(raw)) != len(raw):
            continue
        for exps in draw(st.lists(st.tuples(*([st.integers(0, 2)] * n)), min_size=1, max_size=3)):
            coeff = Fraction(draw(st.integers(-3, 3)), draw(st.sampled_from([1, 2, 3])))
            comps = comps + Polyvector.term(coeff, exps, raw, order)
    return comps


@given(small_polyvector(ext=1), small_polyvector(ext=1))
@settings(max_examples=40, deadline=None)
def test_schouten_antisymmetric_on_vector_fields(x, y):
    assert schouten(x, y) == -(schouten(y, x))


@given(small_polyvector(ext=1, order=5), small_polyvector(ext=2, order=5),
       small_polyvector(order=5))
@settings(max_examples=30, deadline=None)
def test_schouten_bilinear_on_mixed_exterior_degrees(a, b, y):
    assert schouten(a + b, y) == schouten(a, y) + schouten(b, y)
    assert schouten(y, a + b) == schouten(y, a) + schouten(y, b)


def cyclotomic_scalar(draw, order):
    return Cyc(order, [Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
                       for _ in range(field_degree(order))])


@st.composite
def cyclotomic_polyvector(draw, order, ext=None, n=3):
    """One to three wedges of the given exterior degree (any up to 3,
    and at most n, when None), each with one to three monomials of
    exponents up to 3, whose coefficients run over Q(zeta_order) with
    denominators 1 to 3."""
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(0, min(n, 3))) if ext is None else ext
        idx = tuple(sorted(draw(st.permutations(range(n)))[:k]))
        exps = st.tuples(*([st.integers(0, 3)] * n))
        terms[idx] = Poly(n, order, {e: cyclotomic_scalar(draw, order)
                                     for e in draw(st.lists(exps, min_size=1, max_size=3))})
    return Polyvector(n, order, terms)


def wedge_termwise(x, y):
    """x ^ y as {wedge: {exponents: Cyc}}, term by term in Cyc arithmetic:
    d_I ^ d_J is the sorted wedge times the parity of the inversions of
    the word I + J, and zero when a direction repeats."""
    out = {}
    for i1, p1 in x.terms.items():
        for i2, p2 in y.terms.items():
            word = i1 + i2
            if len(set(word)) < len(word):
                continue
            odd = sum(a > b for a, b in combinations(word, 2)) % 2
            poly = out.setdefault(tuple(sorted(word)), {})
            for e1, c1 in p1.terms.items():
                for e2, c2 in p2.terms.items():
                    e = tuple(a + b for a, b in zip(e1, e2))
                    c = -(c1 * c2) if odd else c1 * c2
                    poly[e] = poly[e] + c if e in poly else c
    out = {k: {e: c for e, c in p.items() if c} for k, p in out.items()}
    return {k: p for k, p in out.items() if p}


@given(st.sampled_from([1, 5, 6]), st.data())
@settings(max_examples=80, deadline=None)
def test_wedge_matches_termwise_reference(order, data):
    n = data.draw(st.integers(1, 5))
    x = data.draw(cyclotomic_polyvector(order, n=n))
    y = data.draw(cyclotomic_polyvector(order, n=n))
    got = x.wedge(y)
    assert got.head == x.head
    assert {k: dict(p.terms) for k, p in got.terms.items()} == wedge_termwise(x, y)
    assert all(p.head == x.head for p in got.terms.values())


@given(st.sampled_from([1, 5, 6]), st.integers(0, 2), st.integers(0, 2), st.data())
@settings(max_examples=60, deadline=None)
def test_wedge_sign_rule(order, p, q, data):
    # graded commutativity: x ^ y = (-1)^(pq) y ^ x
    x = data.draw(cyclotomic_polyvector(order, p))
    y = data.draw(cyclotomic_polyvector(order, q))
    sign = -1 if (p * q) % 2 else 1
    assert x.wedge(y) == y.wedge(x) * sign


def schouten_termwise(x, y):
    """[x, y] as {wedge: {exponents: Cyc}}, term by term in Cyc arithmetic,
    from the definition: each pair of components f d_I of x and q d_J of
    y adds f d_I o q d_J - (-1)^((d-1)(m-1)) q d_J o f d_I, with d = |I|
    and m = |J|.  The circle product f d_I o q d_J puts d_J in place of
    each direction I[pos] that q depends on, times f and the derivative of
    q by x_I[pos]; the word I[:pos] + J + I[pos+1:] is sorted, signed by
    the parity of its inversions and by (-1)^((m-1)(pos+d-1))."""
    out = {}

    def add_circle(i1, p1, i2, p2, sign):
        d, m = len(i1), len(i2)
        for pos, k in enumerate(i1):
            word = i1[:pos] + i2 + i1[pos + 1:]
            if len(set(word)) < len(word):
                continue
            odd = (sum(a > b for a, b in combinations(word, 2)) + (m - 1) * (pos + d - 1)) % 2
            poly = out.setdefault(tuple(sorted(word)), {})
            for e1, c1 in p1.terms.items():
                for e2, c2 in p2.terms.items():
                    if not e2[k]:
                        continue
                    e = [a + b for a, b in zip(e1, e2)]
                    e[k] -= 1
                    e = tuple(e)
                    c = c1 * c2 * (-e2[k] * sign if odd else e2[k] * sign)
                    poly[e] = poly[e] + c if e in poly else c

    for i1, p1 in x.terms.items():
        for i2, p2 in y.terms.items():
            add_circle(i1, p1, i2, p2, 1)
            add_circle(i2, p2, i1, p1, -1 if (len(i1) - 1) * (len(i2) - 1) % 2 == 0 else 1)
    out = {k: {e: c for e, c in p.items() if c} for k, p in out.items()}
    return {k: p for k, p in out.items() if p}


@given(st.sampled_from([1, 5, 6]), st.data())
@settings(max_examples=80, deadline=None)
def test_schouten_matches_termwise_reference(order, data):
    # mixed exterior degrees up to 3 on k^1 to k^5, coefficients over
    # Q(zeta_order) with denominators 1 to 3: the widening, the
    # derivative's exponents up to 3, the slot signs, the inner
    # components listed under one direction and the joins that repeat a
    # direction are all checked against Cyc arithmetic
    n = data.draw(st.integers(1, 5))
    x = data.draw(cyclotomic_polyvector(order, n=n))
    y = data.draw(cyclotomic_polyvector(order, n=n))
    got = schouten(x, y)
    assert got.head == x.head
    assert {k: dict(p.terms) for k, p in got.terms.items()} == schouten_termwise(x, y)
    assert all(p.head == x.head for p in got.terms.values())


def test_wedge_refuses_operands_of_another_field():
    x = Polyvector.term(1, (1, 0), (0,), 5)
    with pytest.raises(ValueError):
        x.wedge(Polyvector.term(1, (1, 0), (1,), 6))


def test_mixed_operands_are_refused():
    x = Polyvector.term(1, (1, 0), (0,), 5)
    other = Polyvector.term(1, (1, 0), (0,), 6)
    mixed = x + Polyvector.term(1, (0, 0), (0, 1), 5)
    for call in (lambda: x + other, lambda: schouten(x, other), mixed.degree):
        with pytest.raises(ValueError):
            call()
    # an operand that is not a Polyvector, even a Poly of the same head,
    # is refused by its type, on either side of the bracket
    q = Polyvector.term(1, (1, 0), (0,), 1)
    one = Matrix.identity(2, 1)
    for foreign in (Poly.zero(2, 1), Poly(2, 1, {(1, 0): 1}), 1, None):
        for call in (lambda: schouten(q, foreign), lambda: schouten(foreign, q),
                     lambda: q.wedge(foreign), lambda: act(foreign, [(one, one)])):
            with pytest.raises(TypeError, match=type(foreign).__name__):
                call()


def term_by_constructors(coeff, exps, idx, order):
    """Polyvector.term through the public Poly and Polyvector constructors."""
    sgn, key = sort_sign(idx)
    n = len(exps)
    if sgn == 0:
        return Polyvector.zero(n, order)
    return Polyvector(n, order, {key: Poly(n, order, {tuple(exps): Cyc.of(coeff, order) * sgn})})


@pytest.mark.parametrize("other", [Poly(3, 1, {(0, 0, 1): 1}), Poly(2, 5, {(1, 0): 1})],
                         ids=["fewer-variables", "other-field"])
def test_poly_product_refuses_another_head_like_a_sum(other):
    p = Poly(2, 1, {(1, 0): 1, (0, 1): 2})
    for op in (lambda: p * other, lambda: other * p, lambda: p + other):
        with pytest.raises(ValueError, match="poly mismatch"):
            op()


@pytest.mark.parametrize("coeff, exps, idx, order", [
    (3, (1, 0, 2), (0, 2), 1),
    (3, (1, 0, 2), (2, 0), 1),
    (Fraction(-2, 3), [0, 1, 0], (2, 0, 1), 1),
    (Fraction(5, 2), (2, 0, 0), (1, 0, 2), 5),
    (Cyc(5, [Fraction(1, 2), 0, -1, Fraction(1, 3)]), (0, 0, 1), (2, 1), 5),
    (Cyc.zeta(6, 2), (1, 1, 0), (), 6),
    (1, (1, 1, 1), (1, 1), 1),
    (Cyc.one(5), (0, 2, 0), (2, 0, 2), 5),
    (0, (1, 0, 0), (2, 0), 1),
    (Cyc.zero(6), (0, 0, 3), (1,), 6),
    # zero before any check: a repeated index, or a zero coefficient
    # with a negative exponent
    (1, (0, 0, -1), (1, 1), 1),
    (1, (0, 0, 0), (5, 5), 1),
    (0, (0, -1, 0), (0, 2), 1),
    (Cyc.zero(5), (-1, 0, 0), (), 5),
])
def test_term_equals_the_public_construction(coeff, exps, idx, order):
    got = Polyvector.term(coeff, exps, idx, order)
    want = term_by_constructors(coeff, exps, idx, order)
    assert got == want and got.head == want.head == (len(exps), order)
    assert [(k, p.head, dict(p.terms)) for k, p in got.terms.items()] == [
        (k, p.head, dict(p.terms)) for k, p in want.terms.items()]


@pytest.mark.parametrize("coeff, exps, idx, order, error", [
    (1, (1, -1, 0), (0,), 1, ValueError),
    (1, (1, 0, 0), (3,), 1, ValueError),
    (1, (1, 0, 0), (-1, 2), 1, ValueError),
    (0, (1, 0, 0), (0, 5), 1, ValueError),
    (Cyc.zeta(5), (1, 0, 0), (0,), 6, ValueError),
    (Fraction(1, 2), (0, 0, 0), (3, 1, 2), 1, ValueError),
    (0, (0, 0, 0), (-1,), 1, ValueError),
    (-3, (0, 0, -2), (), 1, ValueError),
])
def test_term_refuses_bad_exponents_and_indices(coeff, exps, idx, order, error):
    with pytest.raises(error):
        Polyvector.term(coeff, exps, idx, order)


def test_monomials_are_kept_where_no_caller_can_change_them():
    first = monomials(3, 2)
    assert first is monomials(3, 2) and isinstance(first, tuple)
    assert first == ((2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2))
    with pytest.raises((TypeError, AttributeError)):
        first[0] = (0, 0, 2)
    with pytest.raises(AttributeError):
        first.append((3, 0, 0))
    assert all(type(e) is tuple for e in first)
    assert monomials(0, 0) == ((),) and monomials(0, 2) == () and monomials(2, 0) == ((0, 0),)


OPTIMIZED_CHECKS = """
from skewbrack.cochain import Cochain
from skewbrack.fixtures import fixture_groups
from skewbrack.groups import Group, enumerate_group
from skewbrack.koszul import xi
from skewbrack.linalg import Matrix, det, mat_inverse, solve_membership
from skewbrack.polyvec import Poly, Polyvector, euler_field, minor_det
from skewbrack.scalars import Cyc
two, three = Matrix(1, [[1, 2], [3, 4]]), Matrix(1, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
wide = Matrix(1, [[1, 2, 3], [4, 5, 6]])
group, x1 = fixture_groups()["klein-signs-k3"], Polyvector.term(1, (1, 0, 0), (0,), 1)
cases = [
    lambda: enumerate_group([two, three]),
    lambda: Matrix(1, [[1, 2], [3]]),
    lambda: Poly(2, 1, {(1, 0, 5): 1, (-1, 0): 2}),
    lambda: Poly(2, 1, {(1, 0): 1}) * Poly(3, 1, {(1, 0, 0): 1}),
    lambda: Polyvector(2, 1, {(1, 0): Poly(2, 1, {(0, 0): 1})}),
    lambda: Polyvector(2, 1, {(2,): Poly(2, 1, {(0, 0): 1})}),
    lambda: Polyvector.term(1, (0, -1), (0,), 1),
    lambda: Polyvector.term(1, (0, 1), (5,), 1),
    lambda: Cyc(5, [1, 2]),
    lambda: solve_membership([two.rows[0], three.rows[0]], two.rows[1], 1),
    lambda: det(wide),
    lambda: mat_inverse(wide),
    lambda: euler_field(wide),
    lambda: euler_field(Matrix(1, zip(*wide.rows))),
    lambda: minor_det(three, (), (0,)),
    lambda: xi(-1, 2, 0, 1),
    lambda: Group(dim=2),
    # containers hold only values of their own head, keyed by their own keys
    lambda: Polyvector(2, 1, {(0,): Poly(3, 5, {(1, 0, 2): 1})}),
    lambda: Polyvector(2, 1, {(0,): 5}),
    lambda: Cochain(group, 1, {0: Polyvector.term(1, (1, 0), (0,), 1)}),
    lambda: Cochain(group, 1, {0: Polyvector.term(1, (1, 0, 0), (0,), 4)}),
    lambda: Cochain(group, 1, {0: 5}),
    lambda: Cochain(group, 1, {999: x1}),
    lambda: Cochain(group, 1, {-1: x1}),
]
for case in cases:
    try:
        got = case()
    except ValueError:
        print("ValueError")
    else:
        print("accepted", got)
"""


def test_shape_and_head_checks_survive_python_optimize():
    # python -O strips assert statements; the library's argument checks
    # raise ValueError instead, so an optimized run refuses the same input
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    for flags in ([], ["-O"]):
        proc = subprocess.run([sys.executable, *flags, "-c", OPTIMIZED_CHECKS],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["ValueError"] * 24, (flags, proc.stdout)


def act_from_scratch(x, h, h_inv):
    """The right action written out: substitute by h_inv, then expand
    each wedge through every minor of h."""
    out = Polyvector.zero(x.n, x.order)
    for idx, p in x.terms.items():
        p2 = subst_matrix(p, h_inv)
        for cols in combinations(range(x.n), len(idx)):
            d = minor_det(h, idx, cols)
            out = out + Polyvector(x.n, x.order, {cols: p2 * d})
    return out


def shear_pair(order):
    shear = mat(order, [[1, 2, 0], [0, 1, 0], [-1, 0, 1]])
    return shear, mat_inverse(shear)


def generator_pool(name):
    """The generators of a data group, as (h, h_inv) pairs over its field."""
    group = load_group_file(str(GROUP_DATA / f"{name}.json"))[0]
    return [group.actions[i] for i in group.generator_indices]


def tetrahedral_pair():
    """The dense generator 1/2 [[1+z, 1+z], [-1+z, 1-z]] of the binary
    tetrahedral group over Q(zeta_4), extended by 1 on a third line."""
    def half(a, b):
        return Cyc(4, [Fraction(a, 2), Fraction(b, 2)])

    h = mat(4, [[half(1, 1), half(1, 1), 0], [half(-1, 1), half(1, -1), 0], [0, 0, 1]])
    return h, mat_inverse(h)


# (order, n, matrix pairs): field degrees 1, 2 and 4, monomial and dense
# actions.  The pairs are shared by every example, so later examples read
# minors and monomial images cached by earlier ones.
POOLS = [
    (1, 3, [shear_pair(1)]),
    (4, 3, [shear_pair(4)] + generator_pool("d4")),
    (5, 3, [shear_pair(5)] + generator_pool("d5")),
    (6, 5, generator_pool("rot")),
    (4, 3, [tetrahedral_pair(), shear_pair(4)]),
]


@st.composite
def polyvectors_and_pairs(draw):
    """Two polyvectors over one field, and a list of one to three matrix
    pairs over it, repeats allowed."""
    order, n, pool = draw(st.sampled_from(POOLS))
    x = draw(small_polyvector(n=n, ext=None, order=order))
    y = draw(small_polyvector(n=n, ext=1, order=order))
    return x, y, draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))


@given(polyvectors_and_pairs())
@settings(max_examples=60, deadline=None)
def test_cached_action_matches_fresh_matrices(drawn):
    # act over several pairs is the mean of the single actions
    x, y, pairs = drawn
    mean = Cyc.of(Fraction(1, len(pairs)), x.order)
    for _ in range(2):
        got = act(x, pairs)
        single = scratch = Polyvector.zero(x.n, x.order)
        for h, h_inv in pairs:
            fresh = Matrix(h.order, h.rows), Matrix(h.order, h_inv.rows)
            single = single + act(x, [fresh])
            scratch = scratch + act_from_scratch(x, h, h_inv)
        assert got == single * mean == scratch * mean


def ints_only(value):
    """Whether value is an int or a tuple of such values, nested."""
    if isinstance(value, tuple):
        return all(ints_only(v) for v in value)
    return type(value) is int


def test_action_fills_caches_on_its_matrices():
    h, hi = mat(1, [[0, 1], [1, 0]]), mat(1, [[0, 1], [1, 0]])
    x = Polyvector.term(3, (2, 1), (0,), 1)
    assert hi.images == {} and h.minors == {}
    first = act(x, [(h, hi)])
    # one form for both caches, of ints only: each minor and each image
    # term as (key, denominator, (place, numerator) pairs), the key its
    # columns or exponents; x^(2,1) is reached from the kept images of 1,
    # x1, x1^2, and the minors of row 0 from the kept empty minor
    assert h.minors == {(): (((), 1, ((0, 1),)),), (0,): (((1,), 1, ((0, 1),)),)}
    assert hi.images == {(0, 0): (((0, 0), 1, ((0, 1),)),), (1, 0): (((0, 1), 1, ((0, 1),)),),
                         (2, 0): (((0, 2), 1, ((0, 1),)),), (2, 1): (((1, 2), 1, ((0, 1),)),)}
    assert ints_only(tuple(h.minors.values())) and ints_only(tuple(hi.images.values()))
    assert act(x, [(h, hi)]) == first == Polyvector.term(3, (1, 2), (1,), 1)
    assert h == mat(1, [[0, 1], [1, 0]]) and hash(h) == hash(hi)


def test_action_refuses_pairs_of_another_order_or_size():
    x4 = Polyvector.term(1, (1, 0), (0,), 4)
    z6 = Matrix(6, [[Cyc.zeta(6), 0], [0, 1]])
    z5 = Matrix(5, [[Cyc.zeta(5), 0], [0, 1]])
    three = Matrix(4, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    two = Matrix.identity(2, 4)
    for pair in [(z6, mat_inverse(z6)), (z5, mat_inverse(z5)), (three, three),
                 (two, mat_inverse(z6)), (two, three)]:
        with pytest.raises(ValueError, match="2 x 2 matrices of order 4"):
            act(x4, [pair])
        # checked on every pair, also after a good one
        with pytest.raises(ValueError):
            act(x4, [(two, two), pair])
    assert act(x4, [(two, two)]) == x4


def test_action_refuses_an_empty_list_of_pairs():
    # the mean of no actions is not zero: it has no value
    with pytest.raises(ValueError, match=r"nonempty list .* not \[\]"):
        act(Polyvector.term(1, (1, 0), (0,), 4), [])


# ---------------------------------------------------- the degree-1 path against the general one


ROOT_S4 = example_group("s4_a3_root_basis_k3.json")


def over_zeta3(value):
    """A rational Polyvector or Matrix rebuilt over Q(zeta_3), whose
    products run the general loops of act and _convolve."""
    def lift(c):
        return Cyc.of(c.as_fraction(), 3)

    if isinstance(value, Matrix):
        return Matrix(3, [[lift(c) for c in r] for r in value.rows])
    return Polyvector(value.n, 3, {idx: Poly(value.n, 3, {e: lift(c) for e, c in p.terms.items()})
                                   for idx, p in value.terms.items()})


def rational_coefficients(x):
    """x as {(wedge, exponents): Fraction}; as_fraction refuses a
    coefficient with a root-of-unity part."""
    return {(idx, e): c.as_fraction() for idx, p in x.terms.items() for e, c in p.terms.items()}


@st.composite
def rational_conjugator(draw):
    """An invertible 3 x 3 matrix over Q with denominators 1 to 3, and
    its inverse, so that products of kept minors and images carry
    denominators that do not divide one another and _widen runs."""
    u = Matrix(1, [[draw(st.fractions(-3, 3, max_denominator=3)) for _ in range(3)]
                   for _ in range(3)])
    assume(det(u))
    return u, mat_inverse(u)


@given(small_polyvector(), small_polyvector(), rational_conjugator(),
       st.sampled_from(ROOT_S4.centralizers))
@settings(max_examples=60, deadline=None)
def test_degree_one_path_matches_the_general_loop(x, y, pair, cent):
    # the same rational inputs over Q (the degree-1 path) and over
    # Q(zeta_3) (the general loop), compared coefficient by coefficient
    u, u_inv = pair
    # the centralizer of a class of the root-basis S4, conjugated by u,
    # with fresh matrices, so minors and images are filled on both paths
    pairs = [(matmul(u_inv, h, u), matmul(u_inv, h_inv, u))
             for h, h_inv in (ROOT_S4.actions[k] for k in cent)]
    x3, y3 = over_zeta3(x), over_zeta3(y)
    lifted = [(over_zeta3(h), over_zeta3(h_inv)) for h, h_inv in pairs]
    for rational, general in [
            (act(x, [pair]), act(x3, [(over_zeta3(u), over_zeta3(u_inv))])),
            (act(x, pairs), act(x3, lifted)),
            (x.wedge(y), x3.wedge(y3)),
            (circle_product(x, y), circle_product(x3, y3))]:
        assert rational.order == 1 and general.order == 3
        assert rational_coefficients(rational) == rational_coefficients(general)


# ---------------------------------------------------- minors and images by recurrence


@st.composite
def square_matrices(draw):
    """A random square matrix over Q(zeta_N), N in 1, 4, 5, 6: entries
    zero about half the time, and sometimes a last row that is a multiple
    of the first, so singular and non-monomial matrices both occur.
    Coefficients have denominators up to 3, so entries of one column have
    denominators that do not divide one another, and monomial_image's
    accumulator widens to their lcm."""
    order = draw(st.sampled_from([1, 4, 5, 6]))
    n = draw(st.integers(1, 4))
    degree = field_degree(order)
    scalar = st.one_of(
        st.just(Cyc.zero(order)),
        st.lists(st.fractions(-3, 3, max_denominator=3), min_size=degree,
                 max_size=degree).map(lambda cs: Cyc(order, cs)),
    )
    rows = [[draw(scalar) for _ in range(n)] for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        c = draw(scalar)
        rows[-1] = [c * e for e in rows[0]]
    return Matrix(order, rows)


@given(square_matrices())
@settings(max_examples=60, deadline=None)
def test_minor_row_is_every_nonzero_minor_in_order(m):
    n = m.nrows
    # every row set, smallest first, so larger ones expand on kept rows
    for k in range(n + 1):
        for rows in combinations(range(n), k):
            # each kept as (cols, denominator, nonzero (place, numerator)
            # pairs) of the from-scratch minor in lowest terms
            want = []
            for cols in combinations(range(n), k):
                d = minor_det(m, rows, cols)
                if not d.is_zero():
                    want.append((cols, d.den, tuple((p, a) for p, a in enumerate(d.num) if a)))
            assert minor_row(m, rows) == tuple(want)


@given(square_matrices(), st.data())
@settings(max_examples=60, deadline=None)
def test_monomial_image_is_the_substitution(m, data):
    n = m.nrows
    exponents = st.tuples(*([st.integers(0, 3)] * n))
    for exps in data.draw(st.lists(exponents, min_size=1, max_size=4)):
        # the terms, each as (exponents, denominator, nonzero (place,
        # numerator) pairs) of the from-scratch coefficient in lowest
        # terms, each exponent once
        got = monomial_image(m, exps)
        want = subst_matrix(Poly.monomial(exps, 1, m.order), m)
        assert len({e for e, _, _ in got}) == len(got)
        assert {e: (den, pairs) for e, den, pairs in got} == {
            e: (c.den, tuple((p, a) for p, a in enumerate(c.num) if a))
            for e, c in want.terms.items()}


@given(st.sampled_from([1, 2, 4, 5, 6, 12]), st.data())
@settings(max_examples=80, deadline=None)
def test_int_terms_round_trip_through_reduce(order, data):
    # nonzero coefficients with denominators up to 6, each put back into
    # an accumulator [denominator, numerators...] at its places + 1 and
    # reduced: _reduce gives each coefficient back, already lowest
    degree = field_degree(order)
    scalar = st.lists(st.fractions(-5, 5, max_denominator=6), min_size=degree,
                      max_size=degree).map(lambda cs: Cyc(order, cs)).filter(bool)
    items = list(enumerate(data.draw(st.lists(scalar, max_size=4))))
    terms = _int_terms(items, order)
    accs = {}
    for key, den, pairs in terms:
        acc = accs[key] = [den] + [0] * degree
        for p, a in pairs:
            acc[p + 1] = a
    assert _reduce(order, accs) == dict(items)
    if order <= 2:  # the Q shortcut is the general comprehension
        assert terms == tuple((key, c.den, tuple((p, a) for p, a in enumerate(c.num) if a))
                              for key, c in items)


def test_monomial_image_of_high_degree_needs_no_recursion():
    z = Cyc.zeta(5)
    m = Matrix(5, [[z, 0], [0, -1]])
    got = monomial_image(m, (1200, 1))
    c = -Cyc.zeta(5, 1200)
    assert got == (((1200, 1), c.den, tuple((p, a) for p, a in enumerate(c.num) if a)),)
