import ast
from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb, factorial, prod
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import mat, matmul
from skewbrack.cli import load_group_file
from skewbrack.linalg import Matrix, mat_inverse
from skewbrack.polyvec import (
    Poly,
    Polyvector,
    minor_det,
    rev_sign,
    schouten,
    sort_sign,
    subst_matrix,
)
from skewbrack.scalars import Cyc
from skewbrack.koszul import (
    KoszulElt,
    KoszulTensor2,
    c_coeff,
    chain_bracket_avatar,
    chain_circle_avatar,
    chain_circle_component,
    diagonal,
    f_k,
    homotopy_residual,
    koszul_diff,
    koszul2_diff,
    phi,
    schouten_random_check,
    splits_through,
    vector_field_commutator,
    xi,
)


def test_xi_values():
    for t in range(1, 5):
        for r in range(1, t + 1):
            assert xi(0, t, 0, r) == Fraction(1, factorial(t))
    for s in range(0, 4):
        for t in range(1, 5):
            assert xi(s, t, 0, t) == Fraction(factorial(s), factorial(s + t))
    assert xi(1, 1, 1, 1) == Fraction(1, 6)
    assert xi(1, 2, 1, 1) == Fraction(1, 12)


def test_c_coeff_values():
    for t in range(1, 5):
        for r in range(1, t + 1):
            assert c_coeff(0, t, 0, r) == Fraction(1, factorial(t))
    assert c_coeff(1, 2, 1, 1) == Fraction(1, 12)
    assert c_coeff(1, 1, 1, 1) == Fraction(1, 6)
    # sign alternates with z (and s z)
    assert c_coeff(0, 1, 1, 1) == -xi(0, 1, 1, 1)
    assert c_coeff(1, 1, 2, 1) == xi(1, 1, 2, 1)


def test_koszul_diff_degree_one():
    d = koszul_diff(KoszulElt(2, 1, {((0,), (0, 0), (0, 0)): 1}))
    expected = KoszulElt(
        2,
        1,
        {
            ((), (1, 0), (0, 0)): Cyc.one(1),
            ((), (0, 0), (1, 0)): -Cyc.one(1),
        },
    )
    assert d == expected


def test_koszul_diff_squares_to_zero():
    n = 3
    for k in range(1, n + 1):
        for idx in combinations(range(n), k):
            e = KoszulElt(n, 1, {(idx, (1, 0, 0), (0, 2, 0)): Cyc.one(1)})
            assert koszul_diff(koszul_diff(e)).is_zero()


def test_koszul2_diff_squares_to_zero():
    n = 2
    e = KoszulTensor2.term(n, 1, (0,), (1,), (0, 0), (1, 1), (0, 0))
    assert koszul2_diff(koszul2_diff(e)).is_zero()


def test_f_k_is_chain_map():
    n = 3
    cases = [
        ((0,), (1,), (0, 0, 0), (0, 1, 0), (0, 0, 0)),
        ((0, 2), (), (1, 0, 0), (0, 0, 1), (0, 0, 0)),
        ((), (1, 2), (0, 0, 0), (2, 0, 0), (0, 1, 0)),
    ]
    for s_idx, z_idx, el, em, er in cases:
        e = KoszulTensor2.term(n, 1, s_idx, z_idx, el, em, er)
        assert koszul_diff(f_k(e)) == f_k(koszul2_diff(e))


def test_diagonal_of_degree_two():
    e = KoszulElt(3, 1, {((0, 1), (0, 0, 0), (0, 0, 0)): 1})
    got = diagonal(e)
    z = (0, 0, 0)
    expected = KoszulTensor2(
        3,
        1,
        {
            ((), (0, 1), z, z, z): Cyc.one(1),
            ((0,), (1,), z, z, z): Cyc.one(1),
            ((1,), (0,), z, z, z): -Cyc.one(1),
            ((0, 1), (), z, z, z): Cyc.one(1),
        },
    )
    assert got == expected


def test_diagonal_is_chain_map():
    n = 3
    for k in range(0, n + 1):
        for idx in combinations(range(n), k):
            e = KoszulElt(n, 1, {(idx, (0, 1, 0), (0, 0, 0)): Cyc.one(1)})
            assert koszul2_diff(diagonal(e)) == diagonal(koszul_diff(e))


def triple_splits(idx):
    """Ordered splittings of an increasing index tuple into three blocks,
    with the sign rearranging idx into their concatenation.  Agrees with
    applying the comultiplication twice."""
    k = len(idx)
    pos = {v: j for j, v in enumerate(idx)}
    for s1 in range(k + 1):
        for part1 in combinations(idx, s1):
            rest1 = tuple(v for v in idx if v not in part1)
            for s2 in range(len(rest1) + 1):
                for part2 in combinations(rest1, s2):
                    part3 = tuple(v for v in rest1 if v not in part2)
                    perm = [pos[v] for v in part1 + part2 + part3]
                    sgn, _ = sort_sign(perm)
                    yield part1, part2, part3, sgn


def test_triple_splits_match_iterated_diagonal():
    # apply diagonal, then diagonal on the right factor; compare signs
    idx = (0, 1, 2)
    from_triples = {}
    for p1, p2, p3, sgn in triple_splits(idx):
        from_triples[(p1, p2, p3)] = from_triples.get((p1, p2, p3), 0) + sgn
    iterated = {}
    e = KoszulElt(3, 1, {(idx, (0, 0, 0), (0, 0, 0)): 1})
    for (s_idx, z_idx, el, em, er), c in diagonal(e).terms.items():
        inner = diagonal(KoszulElt(3, 1, {(z_idx, (0, 0, 0), (0, 0, 0)): 1}))
        for (s2, z2, el2, em2, er2), c2 in inner.terms.items():
            key = (s_idx, s2, z2)
            val = 1 if (c * c2) == 1 else -1
            iterated[key] = iterated.get(key, 0) + val
    assert from_triples == iterated


def test_phi_degree_zero_monomial():
    # phi(1 (x) x1 (x) 1) = 1 (x) o(x1) (x) 1
    e = KoszulTensor2.term(2, 1, (), (), (0, 0), (1, 0), (0, 0))
    assert phi(e) == KoszulElt(2, 1, {((0,), (0, 0), (0, 0)): 1})


def test_d_phi_on_monomials():
    # d phi(1 (x) m (x) 1) = m (x) 1 - 1 (x) m for monomials m, t <= 4
    n = 2
    for em in [(1, 0), (2, 0), (1, 1), (2, 1), (2, 2), (3, 1)]:
        e = KoszulTensor2.term(n, 1, (), (), (0, 0), em, (0, 0))
        got = koszul_diff(phi(e))
        z = (0, 0)
        expected = KoszulElt(n, 1, {((), em, z): Cyc.one(1), ((), z, em): -Cyc.one(1)})
        assert got == expected


def test_phi_repeated_wedge_output_dies():
    # middle variable already present in a wedge block contributes nothing
    e = KoszulTensor2.term(2, 1, (0,), (), (0, 0), (1, 0), (0, 0))
    assert phi(e).is_zero()


def test_phi_one_one_frozen():
    # phi(1 (x) o(x1) (x) x2 (x) o(x3) (x) 1) = -(1/6) o(x1,x2,x3)
    e = KoszulTensor2.term(3, 1, (0,), (2,), (0, 0, 0), (0, 1, 0), (0, 0, 0))
    got = phi(e)
    expected = KoszulElt(3, 1, {((0, 1, 2), (0, 0, 0), (0, 0, 0)): Fraction(-1, 6)})
    assert got == expected


def phi_literal(e: KoszulTensor2) -> KoszulElt:
    """Reference implementation enumerating the permutation sum."""
    n, order = e.n, e.order
    out = {}

    def put(key, c):
        out[key] = out.get(key, Cyc.zero(order)) + c

    from skewbrack.polyvec import sort_sign

    for (s_idx, z_idx, el, em, er), c in e.terms.items():
        s, z = len(s_idx), len(z_idx)
        factors = []
        for i, a in enumerate(em):
            factors.extend([i] * a)
        t = len(factors)
        if t == 0:
            continue
        for sigma in permutations(range(t)):
            for r in range(1, t + 1):
                i = factors[sigma[r - 1]]
                wsgn, wkey = sort_sign(z_idx + (i,) + s_idx)
                if wsgn == 0:
                    continue
                left = list(el)
                for p in range(r - 1):
                    left[factors[sigma[p]]] += 1
                right = list(er)
                for p in range(r, t):
                    right[factors[sigma[p]]] += 1
                put((wkey, tuple(left), tuple(right)), c * (c_coeff(s, t, z, r) * wsgn))
    return KoszulElt(n, order, out)


def test_phi_matches_literal_enumeration():
    n = 3
    cases = [
        ((), (), (0, 0, 0), (2, 1, 0), (0, 0, 0)),
        ((0,), (), (0, 0, 0), (0, 2, 1), (0, 0, 0)),
        ((), (2,), (1, 0, 0), (0, 3, 0), (0, 0, 0)),
        ((0,), (2,), (0, 0, 0), (0, 2, 0), (0, 0, 1)),
        ((0, 1), (), (0, 0, 0), (0, 0, 3), (0, 0, 0)),
    ]
    for s_idx, z_idx, el, em, er in cases:
        e = KoszulTensor2.term(n, 1, s_idx, z_idx, el, em, er)
        assert phi(e) == phi_literal(e)


def reference_phi(e: KoszulTensor2) -> KoszulElt:
    """phi with Fraction weights and one Cyc product per term: the
    multiset weights c_coeff(s,t,z,r) (r-1)! (t-r)! alpha_i C(beta, L)
    are built as Fractions and coerced into the field."""
    n, order = e.n, e.order
    out = {}
    for (s_idx, z_idx, el, em, er), c in e.terms.items():
        s, z, t = len(s_idx), len(z_idx), sum(em)
        for i in range(n):
            if em[i] == 0:
                continue
            wsgn, wkey = sort_sign(z_idx + (i,) + s_idx)
            if wsgn == 0:
                continue
            beta = list(em)
            beta[i] -= 1
            for lpart in product(*[range(b + 1) for b in beta]):
                r = sum(lpart) + 1
                weight = (c_coeff(s, t, z, r) * factorial(r - 1) * factorial(t - r)
                          * em[i] * prod(comb(b, l) for b, l in zip(beta, lpart)))
                rest = tuple(b - l for b, l in zip(beta, lpart))
                key = (wkey, tuple(a + l for a, l in zip(el, lpart)),
                       tuple(a + b for a, b in zip(er, rest)))
                out[key] = out.get(key, Cyc.zero(order)) + c * (weight * wsgn)
    return KoszulElt(n, order, out)


@st.composite
def tensor_square_elements(draw):
    """Elements of the tensor square on k^n, n <= 4, over Q, Q(zeta4),
    Q(zeta5) or Q(zeta6): up to four terms with |S|, |Z| <= 2 (the blocks
    may share an index), middle degree <= 3 and coefficients that are
    sums of fractional multiples of powers of zeta, and a family of terms
    whose images under phi share their keys: one middle monomial and one
    pair of outer legs, with S and Z splitting one wedge in every way
    (the wedge o(Z, i, S) and the legs then agree), each with a
    coefficient of its own denominator, so that phi adds terms of
    different denominators into one output coefficient."""
    n = draw(st.integers(1, 4))
    order = draw(st.sampled_from([1, 4, 5, 6]))
    wedges = [w for k in range(min(n, 2) + 1) for w in combinations(range(n), k)]
    middles = [em for em in product(range(4), repeat=n) if sum(em) <= 3]
    outer = st.tuples(*[st.integers(0, 1)] * n)
    scalar = st.builds(lambda k, a, b: Cyc.zeta(order, k) * Fraction(a, b),
                       st.integers(0, order - 1), st.integers(-3, 3), st.integers(1, 7))
    terms = draw(st.dictionaries(
        st.tuples(st.sampled_from(wedges), st.sampled_from(wedges), outer,
                  st.sampled_from(middles), outer),
        st.lists(scalar, min_size=1, max_size=2).map(lambda cs: sum(cs, Cyc.zero(order))), max_size=4))
    el, em, er = draw(st.tuples(outer, st.sampled_from(middles[1:]), outer))
    block = draw(st.sampled_from(wedges))
    for k in range(len(block) + 1):
        for s_idx in combinations(block, k):
            z_idx = tuple(v for v in block if v not in s_idx)
            terms[(s_idx, z_idx, el, em, er)] = draw(scalar)
    return KoszulTensor2(n, order, terms)


# Four terms that phi carries onto the one output key (o(x1, x2), 1, 1),
# with weights -1/2 or 1/2, over denominators 6, 8, 96 and 2 in turn: the
# second divides neither way into the first, the third is a multiple of
# the sum so far, and the fourth divides it.
WIDENING = KoszulTensor2(2, 4, {
    ((0,), (), (0, 0), (0, 1), (0, 0)): Fraction(1, 3),
    ((), (0,), (0, 0), (0, 1), (0, 0)): Cyc.zeta(4) * Fraction(1, 4),
    ((1,), (), (0, 0), (1, 0), (0, 0)): Fraction(5, 48),
    ((), (1,), (0, 0), (1, 0), (0, 0)): 1,
})


@given(tensor_square_elements())
@example(WIDENING)
@settings(max_examples=200, deadline=None)
def test_phi_matches_the_fraction_weight_reference(e):
    assert phi(e) == reference_phi(e)


def test_homotopy_residual_small():
    n = 2
    for s_idx in [(), (0,), (1,)]:
        for z_idx in [(), (0,), (1,)]:
            for em in [(1, 0), (0, 1), (1, 1), (2, 0)]:
                e = KoszulTensor2.term(n, 1, s_idx, z_idx, (0, 0), em, (0, 0))
                if e.is_zero():
                    continue
                assert homotopy_residual(e).is_zero()


def act_koszul(e: KoszulElt, m: Matrix) -> KoszulElt:
    """Linear substitution x_i -> sum_k m[k][i] x_k on both outer legs
    and on the wedge block (through minors of m)."""
    n, order = e.n, e.order
    out = {}

    def put(key, c):
        out[key] = out.get(key, Cyc.zero(order)) + c

    for (idx, el, er), c in e.terms.items():
        pl = subst_matrix(Poly.monomial(el, 1, order), m)
        pr = subst_matrix(Poly.monomial(er, 1, order), m)
        k = len(idx)
        for rows in combinations(range(n), k):
            d = minor_det(m, rows, idx)
            if d.is_zero():
                continue
            for e1, c1 in pl.terms.items():
                for e2, c2 in pr.terms.items():
                    put((rows, e1, e2), c * d * c1 * c2)
    return KoszulElt(n, order, out)


def act_koszul2(e: KoszulTensor2, m: Matrix) -> KoszulTensor2:
    """Same substitution action on the tensor square (three polynomial
    legs, two wedge blocks)."""
    n, order = e.n, e.order
    out = {}

    def put(key, c):
        out[key] = out.get(key, Cyc.zero(order)) + c

    for (s_idx, z_idx, el, em, er), c in e.terms.items():
        pl = subst_matrix(Poly.monomial(el, 1, order), m)
        pm = subst_matrix(Poly.monomial(em, 1, order), m)
        pr = subst_matrix(Poly.monomial(er, 1, order), m)
        for rows_s in combinations(range(n), len(s_idx)):
            ds = minor_det(m, rows_s, s_idx)
            if ds.is_zero():
                continue
            for rows_z in combinations(range(n), len(z_idx)):
                dz = minor_det(m, rows_z, z_idx)
                if dz.is_zero():
                    continue
                for e1, c1 in pl.terms.items():
                    for e2, c2 in pm.terms.items():
                        for e3, c3 in pr.terms.items():
                            put((rows_s, rows_z, e1, e2, e3), c * ds * dz * c1 * c2 * c3)
    return KoszulTensor2(n, order, out)


def test_phi_gl_equivariance():
    n = 2
    shear = mat(1, [[1, 1], [0, 1]])
    rot = Matrix(4, [[Cyc.zero(4), -Cyc.one(4)], [Cyc.one(4), Cyc.zero(4)]])
    for m in [shear]:
        for s_idx, z_idx, em in [((), (), (2, 1)), ((0,), (), (0, 2)), ((0,), (1,), (1, 1))]:
            e = KoszulTensor2.term(n, 1, s_idx, z_idx, (0, 0), em, (0, 0))
            assert phi(act_koszul2(e, m)) == act_koszul(phi(e), m)
    for s_idx, z_idx, em in [((), (), (2, 1)), ((0,), (), (0, 2))]:
        e = KoszulTensor2.term(n, 4, s_idx, z_idx, (0, 0), em, (0, 0))
        assert phi(act_koszul2(e, rot)) == act_koszul(phi(e), rot)


def test_act_koszul_composition():
    n = 2
    a = mat(1, [[1, 1], [0, 1]])
    b = mat(1, [[0, 1], [1, 0]])
    e = KoszulElt(n, 1, {((0,), (1, 0), (0, 1)): Cyc.one(1)})
    assert act_koszul(act_koszul(e, a), b) == act_koszul(e, matmul(b, a))


# ------------------------------------------- twisted closed-form reference


def twisted_circle_product(x, y, gmat):
    """Closed-form circle product of polyvectors, twisted by gmat: a
    reference for the chain-level circle product of decorated inputs.

    For components f d_I and q d_J this inserts the d_J block at each
    slot of d_I, differentiates q by the displaced direction, and
    splits the remaining polynomial factors around the insertion point;
    the right-hand split factors are twisted by gmat.  The permutation
    average collapses to multiset weights

        a_i * prod_j C(beta_j, L_j) * |L|! (t-1-|L|)! / t!

    over sub-multisets L of beta = alpha - e_i.  The sign is the wedge
    reordering sign times (-1)^((m-1)(pos+d-1)).  With gmat the identity
    the weights over L sum to a_i by Vandermonde, which leaves the
    untwisted circle product, the first of the two that
    polyvec.circle_product adds.
    """
    order = x.order
    acc = {}
    for idx_i, f in x.terms.items():
        d = len(idx_i)
        for idx_j, q in y.terms.items():
            m = len(idx_j)
            for pos, jl in enumerate(idx_i):
                wsgn, wkey = sort_sign(idx_i[:pos] + idx_j + idx_i[pos + 1:])
                if wsgn == 0:
                    continue
                sgn = wsgn * (-1 if ((m - 1) * (pos + d - 1)) % 2 else 1)
                for alpha, qc in q.terms.items():
                    a_i = alpha[jl]
                    if a_i == 0:
                        continue
                    t = sum(alpha)
                    beta = list(alpha)
                    beta[jl] -= 1
                    for L in product(*[range(b + 1) for b in beta]):
                        ls = sum(L)
                        weight = Fraction(
                            a_i * prod(comb(b, l) for b, l in zip(beta, L))
                            * factorial(ls) * factorial(t - 1 - ls),
                            factorial(t),
                        )
                        rest = tuple(b - l for b, l in zip(beta, L))
                        right = subst_matrix(Poly.monomial(rest, 1, order), gmat)
                        p = f * Poly.monomial(L, qc * (weight * sgn), order) * right
                        acc[wkey] = acc[wkey] + p if wkey in acc else p
    return Polyvector(x.n, order, acc)


def test_circle_group_twist():
    # (d1 g) o (x1 x2 d2) with g = diag(-1,1): the split factor passing
    # through g flips sign when it is x1
    g = mat(1, [[-1, 0], [0, 1]])
    X = Polyvector.term(1, (0, 0), (0,), 1)
    Y = Polyvector.term(1, (1, 1, 0)[:2], (1,), 1)
    got = twisted_circle_product(X, Y, g)
    # consume x1: left split x2 (weight 1/2) plus right split ^g x2 = x2 (1/2)
    assert got == Polyvector.term(1, (0, 1), (1,), 1)
    Y2 = Polyvector.term(1, (2, 0), (1,), 1)
    got2 = twisted_circle_product(X, Y2, g)
    # consume one x1: left x1 (1/2 each of two copies) + right -x1
    assert got2.is_zero()


def worked_example_small():
    """The rank-one sign action pair on k^3 used in the worked examples."""
    order = 1
    g = mat(order, [[-1, 0, 0], [0, 1, 0], [0, 0, 1]])
    h = mat(order, [[1, 0, 0], [0, 1, 0], [0, 0, -1]])
    x = Polyvector.term(1, (0, 0, 0), (0, 1), order)
    y = Polyvector.term(1, (0, 1, 0), (2, 1), order)
    return g, h, x, y


def test_chain_bracket_sign_example():
    # [d1^d2 g, x2 d3^d2 h] = d1^d3^d2 gh = -d1^d2^d3 gh, computed on chains
    g, h, x, y = worked_example_small()
    got = chain_bracket_avatar(x, g, y, h)
    assert got == Polyvector.term(-1, (0, 0, 0), (0, 1, 2), 1)
    # and through the closed formula
    sign = -1 if ((x.degree() - 1) * (y.degree() - 1)) % 2 else 1
    closed = twisted_circle_product(x, y, g) - twisted_circle_product(y, x, h) * sign
    assert closed == got


def test_chain_bracket_rank_two_example():
    # [d1^d2^d3 s, x3 d4^d5 t] = d1^d2^d4^d5 st on k^5
    order = 1
    s5 = mat(order, [[-1, 0, 0, 0, 0], [0, -1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]])
    t5 = mat(order, [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, -1, 0], [0, 0, 0, 0, -1]])
    x = Polyvector.term(1, (0, 0, 0, 0, 0), (0, 1, 2), order)
    y = Polyvector.term(1, (0, 0, 1, 0, 0), (3, 4), order)
    got = chain_bracket_avatar(x, s5, y, t5)
    assert got == Polyvector.term(1, (0, 0, 0, 0, 0), (0, 1, 3, 4), order)
    sign = -1 if ((x.degree() - 1) * (y.degree() - 1)) % 2 else 1
    closed = twisted_circle_product(x, y, s5) - twisted_circle_product(y, x, t5) * sign
    assert closed == got


@st.composite
def homogeneous_polyvector(draw, n):
    """Nonzero polyvector on k^n of one exterior degree in 0..min(n, 3)."""
    wedges = list(combinations(range(n), draw(st.integers(0, min(n, 3)))))
    terms = draw(st.dictionaries(
        st.tuples(st.sampled_from(wedges), st.tuples(*[st.integers(0, 2)] * n)),
        st.sampled_from([-2, -1, 1, 2]), min_size=1, max_size=2))
    out = Polyvector.zero(n, 1)
    for (idx, exps), c in terms.items():
        out = out + Polyvector.term(c, exps, idx, 1)
    return out


@given(st.integers(1, 3).flatmap(
    lambda n: st.tuples(homogeneous_polyvector(n), homogeneous_polyvector(n))))
@settings(max_examples=40, deadline=None)
def test_chain_bracket_trivial_group_is_schouten(pair):
    x, y = pair
    idm = Matrix.identity(x.n, 1)
    assert schouten(x, y) == chain_bracket_avatar(x, idm, y, idm)


@st.composite
def cyclotomic_pair(draw):
    """Two homogeneous polyvectors on k^n over Q(zeta_N), N in {1, 3, 4,
    5, 6}, with one to three monomials per wedge and coefficients
    +-(1 or 2)/(1, 2 or 3) zeta^k: their products leave the power basis
    and meet unequal denominators."""
    n = draw(st.integers(1, 3))
    order = draw(st.sampled_from([1, 3, 4, 5, 6]))
    coeffs = st.builds(lambda s, a, b, k: Cyc.zeta(order, k) * Fraction(s * a, b),
                       st.sampled_from([-1, 1]), st.sampled_from([1, 2]),
                       st.sampled_from([1, 2, 3]), st.integers(0, order - 1))

    def polyvector():
        wedges = list(combinations(range(n), draw(st.integers(0, min(n, 3)))))
        out = Polyvector.zero(n, order)
        for idx in draw(st.lists(st.sampled_from(wedges), min_size=1, max_size=2,
                                 unique=True)):
            terms = draw(st.dictionaries(st.tuples(*[st.integers(0, 2)] * n), coeffs,
                                         min_size=1, max_size=3))
            for exps, c in terms.items():
                out = out + Polyvector.term(c, exps, idx, order)
        return out

    return polyvector(), polyvector()


@given(cyclotomic_pair())
@settings(max_examples=60, deadline=None)
def test_chain_bracket_trivial_group_is_schouten_over_cyclotomic_fields(pair):
    x, y = pair
    idm = Matrix.identity(x.n, x.order)
    assert schouten(x, y) == chain_bracket_avatar(x, idm, y, idm)


def test_chain_circle_component_degree_mismatch_is_zero_padding():
    g, h, x, y = worked_example_small()
    # wrong-degree basis elements simply pair to zero
    assert chain_circle_component(x, g, y, h, (0, 1)).is_zero()


@st.composite
def reduced_pair(draw):
    """Random (x, g, y, h) with y reduced for h, on k^3 with sign actions."""
    order = 1
    n = 3
    moved_h = draw(st.sampled_from([frozenset(), frozenset({0}), frozenset({1, 2})]))
    moved_g = draw(st.sampled_from([frozenset(), frozenset({2}), frozenset({0, 1})]))

    def sign_mat(moved):
        return mat(order, [[(-1 if i in moved else 1) if i == j else 0 for j in range(n)] for i in range(n)])

    gmat, hmat = sign_mat(moved_g), sign_mat(moved_h)
    fixed_h = [i for i in range(n) if i not in moved_h]
    dy = draw(st.integers(len(moved_h), min(n, len(moved_h) + 1)))
    extra = draw(st.sampled_from(list(combinations(fixed_h, dy - len(moved_h)))))
    wedge = tuple(sorted(set(extra) | moved_h))
    exps = [0] * n
    for _ in range(draw(st.integers(0, 2))):
        if fixed_h:
            exps[draw(st.sampled_from(fixed_h))] += 1
    y = Polyvector.term(draw(st.integers(1, 3)), tuple(exps), wedge, order)
    dx = draw(st.integers(1, 2))
    xw = draw(st.sampled_from(list(combinations(range(n), dx))))
    xe = draw(st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1)))
    x = Polyvector.term(draw(st.integers(-3, 3)), xe, xw, order)
    return x, gmat, y, hmat


@given(reduced_pair())
@settings(max_examples=30, deadline=None)
def test_chain_matches_closed_on_reduced_inputs(data):
    x, gmat, y, hmat = data
    if x.is_zero() or y.is_zero():
        return
    assert chain_circle_avatar(x, gmat, y, hmat) == twisted_circle_product(x, y, gmat)


def test_vector_field_commutator_refuses_a_bivector():
    x = Polyvector.term(1, (1, 0), (0,), 1)
    with pytest.raises(ValueError, match="vector fields"):
        vector_field_commutator(x, Polyvector.term(1, (0, 0), (0, 1), 1))


@pytest.mark.parametrize("seed", range(5))
def test_schouten_random_check_compares_every_pair(monkeypatch, seed):
    # seeds 0, 1, 3 and 4 each draw a zero field for one of their 50 pairs
    compared = []

    def counting(x, y):
        assert not x.is_zero() and not y.is_zero()
        compared.append((x, y))
        return vector_field_commutator(x, y)

    monkeypatch.setattr("skewbrack.koszul.vector_field_commutator", counting)
    assert schouten_random_check(50, seed=seed) == (50, [])
    assert len(compared) == 50


# ------------------------------------------- pruned contraction vs reference

GROUP_DATA = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "groups"
_GROUPS = {}


def data_group(name):
    if name not in _GROUPS:
        _GROUPS[name] = load_group_file(str(GROUP_DATA / f"{name}.json"))[0]
    return _GROUPS[name]


def paired(x, idx):
    """<x, o(x_idx)> for an increasing idx: the coefficient times rev_sign."""
    return x.terms.get(idx, Poly.zero(x.n, x.order)) * rev_sign(len(idx))


def reference_component(x, gmat, y, hmat, idx):
    """The contraction with nothing pruned: every Sweedler triple, pairing
    through paired, one phi call per split and rows, and minors and
    substitutions recomputed each time."""
    n, order = x.n, x.order
    idx = tuple(idx)
    zero = (0,) * n
    value = Poly.zero(n, order)
    for part1, part2, part3, eps in triple_splits(idx):
        q = paired(y, part2)
        if q.is_zero():
            continue
        ksign = -1 if (len(part1) * len(part2)) % 2 else 1
        for rows in combinations(range(n), len(part3)):
            d = minor_det(hmat, rows, part3)
            if d.is_zero():
                continue
            t2 = {(part1, rows, zero, em, zero): qc * (eps * ksign) * d
                  for em, qc in q.terms.items()}
            for (widx, el, er), c in phi(KoszulTensor2(n, order, t2)).terms.items():
                inner = paired(x, widx)
                if inner.is_zero():
                    continue
                right = subst_matrix(Poly.monomial(er, 1, order), gmat)
                value = value + Poly.monomial(el, c, order) * inner * right
    return value


def reference_avatar(x, gmat, y, hmat):
    n, order = x.n, x.order
    deg = x.degree() + y.degree() - 1
    if deg < 0:
        return Polyvector.zero(n, order)
    rs = rev_sign(deg)
    return Polyvector(n, order, {
        idx: reference_component(x, gmat, y, hmat, idx) * rs
        for idx in combinations(range(n), deg)})


@st.composite
def cyclotomic_polyvector(draw, n, order, degree):
    """Nonzero polyvector on k^n of the given exterior degree, with
    cyclotomic coefficients and exponents up to 2."""
    wedges = list(combinations(range(n), degree))
    out = Polyvector.zero(n, order)
    while out.is_zero():
        for _ in range(draw(st.integers(1, 3))):
            coeff = Cyc.zeta(order, draw(st.integers(0, order - 1))) * draw(
                st.sampled_from([-2, -1, 1, 3]))
            out = out + Polyvector.term(coeff, draw(st.tuples(*[st.integers(0, 2)] * n)),
                                        draw(st.sampled_from(wedges)), order)
    return out


@st.composite
def oracle_inputs(draw):
    """(x, g, y, h) on D4 over Q(z4), D5 over Q(z5) or the Q(z6) rotation
    pair: two random elements and random homogeneous polyvectors of
    exterior degrees 0-3."""
    group = data_group(draw(st.sampled_from(["d4", "d5", "rot"])))
    n, order = group.dim, group.scalar_order
    a, b = (draw(st.integers(0, len(group) - 1)) for _ in range(2))
    x = draw(cyclotomic_polyvector(n, order, draw(st.integers(0, min(n, 3)))))
    y = draw(cyclotomic_polyvector(n, order, draw(st.integers(0, min(n, 3)))))
    return x, group.matrices[a], y, group.matrices[b]


@given(oracle_inputs())
@settings(max_examples=40, deadline=None)
def test_pruned_contraction_matches_the_unpruned_reference(data):
    x, gmat, y, hmat = data
    assert chain_circle_avatar(x, gmat, y, hmat) == reference_avatar(x, gmat, y, hmat)
    # every basis element, including those of the wrong degree and those
    # no wedge of y fits into
    for k in range(x.n + 1):
        for idx in combinations(range(x.n), k):
            assert (chain_circle_component(x, gmat, y, hmat, idx)
                    == reference_component(x, gmat, y, hmat, idx)), idx


@st.composite
def skip_inputs(draw):
    """(x, g, y, h, near) as oracle_inputs draws them, with x of exterior
    degree 1-3 and y's monomials kept off every variable of x's wedges,
    constants included, so that chain_circle_avatar skips the product;
    when near is True, one monomial of y also has exactly one of those
    variables, a near miss that the skip must not take."""
    group = data_group(draw(st.sampled_from(["d4", "d5", "rot"])))
    n, order = group.dim, group.scalar_order
    a, b = (draw(st.integers(0, len(group) - 1)) for _ in range(2))
    x = draw(cyclotomic_polyvector(n, order, draw(st.integers(1, min(n, 3)))))
    reach = sorted(set().union(*x.terms))
    wedges = list(combinations(range(n), draw(st.integers(0, min(n, 3)))))
    coeffs = st.builds(lambda k, c: Cyc.zeta(order, k) * c,
                       st.integers(0, order - 1), st.sampled_from([-2, -1, 1, 3]))

    def off_reach():
        return [0 if i in reach else draw(st.integers(0, 2)) for i in range(n)]

    terms = {(tuple(off_reach()), draw(st.sampled_from(wedges))): draw(coeffs)
             for _ in range(draw(st.integers(1, 3)))}
    near = draw(st.booleans())
    if near:
        exps = off_reach()
        exps[draw(st.sampled_from(reach))] = draw(st.integers(1, 2))
        terms[(tuple(exps), draw(st.sampled_from(wedges)))] = draw(coeffs)
    y = Polyvector.zero(n, order)
    for (exps, wedge), c in terms.items():
        y = y + Polyvector.term(c, exps, wedge, order)
    return x, group.matrices[a], y, group.matrices[b], near


@given(skip_inputs())
@settings(max_examples=40, deadline=None)
def test_skipped_products_match_the_unpruned_reference(data):
    x, gmat, y, hmat, near = data
    with pytest.MonkeyPatch.context() as monkeypatch:
        calls = counted_components(monkeypatch)
        got = chain_circle_avatar(x, gmat, y, hmat)
    assert got == reference_avatar(x, gmat, y, hmat)
    if not near:
        assert calls == [] and got.is_zero()


def counted_components(monkeypatch):
    """The list of the idx of each chain_circle_component call that
    koszul makes from now on."""
    calls = []

    def counting(*args):
        calls.append(args[4])
        return chain_circle_component(*args)

    monkeypatch.setattr("skewbrack.koszul.chain_circle_component", counting)
    return calls


def test_the_skip_evaluates_no_component(monkeypatch):
    # D4 on k^3: x = d1 ^ d2, and y = (x3 + 1) d3 has no monomial in x1 or
    # x2, so x o y is zero with no component evaluated; the near miss
    # y' = (x1 x3 + 1) d3 is evaluated, and is nonzero
    group = data_group("d4")
    order = group.scalar_order
    gmat, hmat = group.matrices[1], group.matrices[2]
    x = Polyvector.term(1, (0, 0, 0), (0, 1), order)
    one_d3 = Polyvector.term(1, (0, 0, 0), (2,), order)
    y = Polyvector.term(1, (0, 0, 1), (2,), order) + one_d3
    near = Polyvector.term(1, (1, 0, 1), (2,), order) + one_d3
    calls = counted_components(monkeypatch)
    assert chain_circle_avatar(x, gmat, y, hmat).is_zero()
    assert calls == []
    got = chain_circle_avatar(x, gmat, near, hmat)
    assert calls and not got.is_zero()
    assert got == reference_avatar(x, gmat, near, hmat)


def test_splits_through_is_triple_splits_with_that_middle_block():
    for k in range(5):
        for idx in combinations(range(6), k):
            for size in range(k + 1):
                for mid in combinations(idx, size):
                    want = sorted((p1, p3, sgn) for p1, p2, p3, sgn in triple_splits(idx)
                                  if p2 == mid)
                    assert sorted(splits_through(idx, mid)) == want, (idx, mid)


# ------------------------------------------------------ oracle independence

KOSZUL_SOURCE = Path(__file__).resolve().parent.parent / "src" / "skewbrack" / "koszul.py"
# the polyvec names the oracle may use: containers, sign helpers,
# from-scratch minors and substitution, and the exponent tuples of one
# degree.  Not act, minor_row, monomial_image, circle_product (schouten)
# or euler_field, which belong to the fast path.
ORACLE_POLYVEC_NAMES = {
    "Poly", "Polyvector", "SparseTerms", "minor_det", "monomials",
    "rev_sign", "sort_sign", "subst_matrix",
}
# the fast path's products and the caches they keep on matrices; the
# oracle neither calls nor reads any of them
FAST_PATH_NAMES = {"act", "circle_product", "schouten", "minor_row", "monomial_image", "wedge"}
# the scalars names it may use: the type and its lowest-terms constructor,
# not the integer accumulator (_widen, _reduce, _powers) behind the fast
# path's products, so a fault there cannot hide on both sides
ORACLE_SCALARS_NAMES = {"Cyc", "_lowest"}


def test_oracle_shares_no_code_with_the_fast_path():
    tree = ast.parse(KOSZUL_SOURCE.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            imported.setdefault(module, set()).update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                imported.setdefault(alias.name, set())
    for module, names in imported.items():
        # covers both "from .groups import ..." and "from . import groups"
        for name in (module.split(".")[-1], *names):
            assert name not in ("bracket", "groups"), (module, name)
    assert imported.get(".polyvec", set()) <= ORACLE_POLYVEC_NAMES, imported[".polyvec"]
    assert imported.get(".scalars", set()) <= ORACLE_SCALARS_NAMES, imported[".scalars"]
    assert imported.get(".cochain", set()) <= {"Cochain"}, imported[".cochain"]
    # every import is at the top, where the import checks above see it whole
    nested = [node.lineno for node in ast.walk(tree)
              if isinstance(node, (ast.Import, ast.ImportFrom)) and node not in tree.body]
    assert not nested, nested
    used = {getattr(node, "id", getattr(node, "attr", None)) for node in ast.walk(tree)}
    assert not used & {"_widen", "_reduce", "_powers"}, used & {"_widen", "_reduce", "_powers"}
    assert not used & FAST_PATH_NAMES, used & FAST_PATH_NAMES
    cache_reads = [node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and node.attr in ("minors", "images")]
    assert not cache_reads, cache_reads
