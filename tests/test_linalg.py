"""Row reduction, kernels, images, membership over exact cyclotomic scalars."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from helpers import field_degree, matmul, matvec, one_minus
from skewbrack.linalg import (
    Matrix,
    det,
    echelon_span,
    image_basis,
    kernel_basis,
    mat_inverse,
    rank,
    row_times,
    rref,
    solve_membership,
)
from skewbrack.scalars import Cyc


def im(rows, order=1):
    return Matrix(order, rows)


def test_rref_known():
    m = im([[1, 2, 3], [2, 4, 6], [1, 1, 1]])
    r, pivots = rref(m)
    assert pivots == (0, 1)
    assert r.rows[0] == (Cyc.of(1, 1), Cyc.of(0, 1), Cyc.of(-1, 1))
    assert r.rows[1] == (Cyc.of(0, 1), Cyc.of(1, 1), Cyc.of(2, 1))
    assert all(not e for e in r.rows[2])


def test_kernel_basis_structure():
    m = im([[1, 2, 3], [2, 4, 6], [1, 1, 1]])
    ker = kernel_basis(m)
    assert len(ker) == 1
    v = ker[0]
    assert v[2] == 1
    assert all(not x for x in matvec(m, v))


def test_image_of_one_minus_reflection():
    # 1 - g for g = diag(-1, 1) has image spanned by e1.
    g = im([[-1, 0], [0, 1]])
    basis = image_basis(one_minus(g))
    assert basis == [(Cyc.one(1), Cyc.zero(1))]


def test_a_matrix_has_no_arithmetic_operator():
    # 1 - g has one builder, one_minus_columns; Matrix defines no operator
    with pytest.raises(TypeError, match=r"unsupported operand type\(s\) for -"):
        Matrix.identity(2, 1) - im([[1, 0], [0, 1]])


def test_solve_membership():
    vs = [(Cyc.of(1, 1), Cyc.of(0, 1)), (Cyc.of(1, 1), Cyc.of(1, 1))]
    target = (Cyc.of(3, 1), Cyc.of(2, 1))
    coeffs = solve_membership(vs, target, 1)
    assert coeffs == [Cyc.of(1, 1), Cyc.of(2, 1)]
    outside = (Cyc.of(0, 1), Cyc.of(0, 1))
    assert solve_membership([], outside, 1) == []
    assert solve_membership([vs[0]], (Cyc.of(0, 1), Cyc.of(1, 1)), 1) is None


def test_inverse_and_det():
    order = 4
    z = Cyc.zeta(order)
    m = Matrix(order, [[z, 1], [0, z]])
    assert det(m) == z * z
    inv = mat_inverse(m)
    assert matmul(m, inv) == Matrix.identity(2, order)
    singular = im([[1, 2], [2, 4]])
    assert det(singular).is_zero()
    with pytest.raises(ValueError):
        mat_inverse(singular)
    # -1 - z^2 = 0: singular over Q(zeta4) though no entry is zero
    singular = Matrix(order, [[1, z], [z, -1]])
    assert det(singular).is_zero()
    with pytest.raises(ValueError, match="^matrix is singular$"):
        mat_inverse(singular)


def _rand_matrix(data, order, nrows, ncols):
    return Matrix(
        order,
        [
            [
                Fraction(data.draw(st.integers(-4, 4)), data.draw(st.integers(1, 2)))
                for _ in range(ncols)
            ]
            for _ in range(nrows)
        ],
    )


def _rand_scalar(data, order):
    return Cyc(order, [
        Fraction(data.draw(st.integers(-4, 4)), data.draw(st.integers(1, 3)))
        for _ in range(field_degree(order))
    ])


def _rand_dense_matrix(data, order, nrows, ncols):
    return Matrix(order, [[_rand_scalar(data, order) for _ in range(ncols)]
                          for _ in range(nrows)])


def _rand_sparse_matrix(data, order, nrows, ncols):
    # At most half of the entries are nonzero, each from all of Q(zeta_order).
    cells = nrows * ncols
    nonzero = data.draw(st.permutations(range(cells)))[: data.draw(st.integers(0, cells // 2))]
    entries = [Cyc.zero(order)] * cells
    for cell in nonzero:
        entries[cell] = _rand_scalar(data, order)
    return Matrix(order, [entries[i * ncols:(i + 1) * ncols] for i in range(nrows)])


def row_product(a, b):
    """a * b, each row of a multiplied by b in row_times, which returns a
    tuple of b.ncols Cycs of b's order."""
    rows = [row_times(r, b) for r in a.rows]
    assert all(type(r) is tuple and len(r) == b.ncols for r in rows)
    assert all(type(e) is Cyc and e.order == b.order for r in rows for e in r)
    return Matrix(b.order, rows)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_product_matches_entrywise_reference(data):
    # fractional entries over Q(zeta5) and Q(zeta6), dense or sparse, so
    # that the accumulator widens its denominator to an lcm; a may be a
    # single 1 x k row or hold a zero row, which multiplies no entry of b
    order = data.draw(st.sampled_from([5, 6]))
    shape = data.draw(st.sampled_from(["any", "one row", "zero row"]))
    n, k, m = (data.draw(st.integers(1, 4)) for _ in range(3))
    if shape == "one row":
        n = 1
    make = data.draw(st.sampled_from([_rand_dense_matrix, _rand_sparse_matrix]))
    a, b = make(data, order, n, k), make(data, order, k, m)
    if shape == "zero row":
        rows = list(a.rows)
        rows[data.draw(st.integers(0, n - 1))] = (Cyc.zero(order),) * k
        a = Matrix(order, rows)
    got = row_product(a, b)
    assert got == matmul(a, b)
    assert (got.nrows, got.ncols) == (n, m)
    assert row_product(a, Matrix.identity(k, order)) == a
    assert row_product(Matrix.identity(n, order), a) == a
    assert transpose(got) == row_product(transpose(b), transpose(a))


def transpose(m):
    return Matrix(m.order, zip(*m.rows))


def _check_rank_nullity_and_kernel_annihilation(m):
    ker = kernel_basis(m)
    assert rank(m) + len(ker) == m.ncols
    for v in ker:
        assert all(not x for x in matvec(m, v))
    assert len(image_basis(m)) == rank(m)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_rank_nullity_and_kernel_annihilation(data):
    order = data.draw(st.sampled_from([1, 4]))
    nrows = data.draw(st.integers(1, 4))
    ncols = data.draw(st.integers(1, 4))
    _check_rank_nullity_and_kernel_annihilation(_rand_matrix(data, order, nrows, ncols))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_rank_nullity_and_kernel_annihilation_sparse_cyclotomic(data):
    order = data.draw(st.sampled_from([5, 6]))
    nrows = data.draw(st.integers(1, 5))
    ncols = data.draw(st.integers(1, 5))
    _check_rank_nullity_and_kernel_annihilation(_rand_sparse_matrix(data, order, nrows, ncols))


def _leibniz_det(rows, order):
    # The sum over permutations of the products of one entry per row and
    # column, each signed by its count of inversions: no elimination and
    # no expansion by minors.
    total = Cyc.zero(order)
    for perm in permutations(range(len(rows))):
        term = Cyc.one(order)
        for row, j in zip(rows, perm):
            term = term * row[j]
        inversions = sum(a > b for a, b in combinations(perm, 2))
        total = total - term if inversions % 2 else total + term
    return total


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_det_matches_the_leibniz_sum(data):
    # fractional entries over Q, Q(zeta4), Q(zeta5) and Q(zeta6), dense,
    # sparse, or singular by a repeated row, from the empty matrix to 5 x 5
    order = data.draw(st.sampled_from([1, 4, 5, 6]))
    n = data.draw(st.integers(0, 5))
    make = data.draw(st.sampled_from([_rand_dense_matrix, _rand_sparse_matrix]))
    rows = [list(r) for r in make(data, order, n, n).rows]
    repeated = n > 1 and data.draw(st.booleans())
    if repeated:
        i, j = data.draw(st.permutations(range(n)))[:2]
        rows[j] = rows[i]
    want = _leibniz_det(rows, order)
    got = det(Matrix(order, rows))
    assert type(got) is Cyc and got.order == order
    assert got == want
    assert not repeated or want.is_zero()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_membership_reconstructs_target(data):
    order = 1
    n = data.draw(st.integers(1, 4))
    k = data.draw(st.integers(1, 3))
    vecs = [
        tuple(Cyc.of(data.draw(st.integers(-3, 3)), order) for _ in range(n))
        for _ in range(k)
    ]
    weights = [data.draw(st.integers(-3, 3)) for _ in range(k)]
    target = tuple(
        sum((Cyc.of(w, order) * v[i] for w, v in zip(weights, vecs)), Cyc.zero(order))
        for i in range(n)
    )
    coeffs = solve_membership(vecs, target, order)
    assert coeffs is not None
    rebuilt = tuple(
        sum((c * v[i] for c, v in zip(coeffs, vecs)), Cyc.zero(order))
        for i in range(n)
    )
    assert rebuilt == target


# ------------------------------------------------- the sparse elimination core
#
# The dense Gauss-Jordan that the sparse core replaced, kept here as the
# reference: first nonzero row as pivot, columns left to right.


def _reference_rref_rows(order, rows):
    rows = [list(r) for r in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    lead = 0
    for col in range(ncols):
        piv = None
        for i in range(lead, nrows):
            if rows[i][col]:
                piv = i
                break
        if piv is None:
            continue
        rows[lead], rows[piv] = rows[piv], rows[lead]
        inv = rows[lead][col].inverse()
        prow = rows[lead] = [e * inv if e else e for e in rows[lead]]
        for i in range(nrows):
            if i != lead and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b if b else a for a, b in zip(rows[i], prow)]
        pivots.append(col)
        lead += 1
        if lead == nrows:
            break
    return rows, tuple(pivots)


def _reference_kernel(m):
    rows, pivots = _reference_rref_rows(m.order, m.rows)
    one, zero = Cyc.one(m.order), Cyc.zero(m.order)
    basis = []
    for f in (j for j in range(m.ncols) if j not in pivots):
        v = [zero] * m.ncols
        v[f] = one
        for i, p in enumerate(pivots):
            v[p] = -rows[i][f]
        basis.append(tuple(v))
    return basis


def _reference_membership(vectors, target, order):
    k = len(vectors)
    aug = [[v[i] for v in vectors] + [target[i]] for i in range(len(target))]
    rows, pivots = _reference_rref_rows(order, aug)
    if k in pivots:
        return None
    coeffs = [Cyc.zero(order)] * k
    for i, p in enumerate(pivots):
        coeffs[p] = rows[i][k]
    return coeffs


@st.composite
def elimination_inputs(draw):
    """A sparse or dense matrix over Q, Q(zeta4), Q(zeta5) or Q(zeta6),
    with some rows replaced by zero rows or by copies and multiples of
    other rows."""
    order = draw(st.sampled_from([1, 4, 5, 6]))
    nrows, ncols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    data = draw(st.data())
    if draw(st.booleans()):
        m = _rand_sparse_matrix(data, order, nrows, ncols)
    else:
        m = Matrix(order, [[_rand_scalar(data, order) for _ in range(ncols)]
                           for _ in range(nrows)])
    rows = [list(r) for r in m.rows]
    for i in range(nrows):
        kind = draw(st.sampled_from(["keep", "keep", "zero", "copy"]))
        if kind == "zero":
            rows[i] = [Cyc.zero(order)] * ncols
        elif kind == "copy":
            c = _rand_scalar(data, order)
            rows[i] = [c * e for e in rows[draw(st.integers(0, nrows - 1))]]
    return Matrix(order, rows)


@settings(max_examples=80, deadline=None)
@given(elimination_inputs())
def test_sparse_core_matches_dense_gauss_jordan(m):
    order = m.order
    want_rows, want_pivots = _reference_rref_rows(order, m.rows)
    got, pivots = rref(m)
    assert pivots == want_pivots
    assert got.rows == tuple(tuple(r) for r in want_rows)
    assert rank(m) == len(want_pivots)
    sparse = [{j: e for j, e in enumerate(r) if e} for r in m.rows]
    assert echelon_span(sparse, order) == [
        {j: e for j, e in enumerate(want_rows[i]) if e} for i in range(len(want_pivots))]
    assert kernel_basis(m) == _reference_kernel(m)
    t_rows, t_pivots = _reference_rref_rows(order, list(zip(*m.rows)))
    assert image_basis(m) == [tuple(t_rows[i]) for i in range(len(t_pivots))]
    # the last column as the target, inside or outside the span of the rest
    *vectors, target = zip(*m.rows)
    assert (solve_membership(vectors, target, order)
            == _reference_membership(vectors, target, order))
    assert (solve_membership(list(m.rows[1:]), m.rows[0], order)
            == _reference_membership(list(m.rows[1:]), m.rows[0], order))
    if m.nrows == m.ncols:
        n = m.nrows
        ident = Matrix.identity(n, order)
        aug_rows, aug_pivots = _reference_rref_rows(
            order, [list(r) + list(i) for r, i in zip(m.rows, ident.rows)])
        if aug_pivots == tuple(range(n)):
            assert mat_inverse(m) == Matrix(order, [r[n:] for r in aug_rows])
        else:
            with pytest.raises(ValueError):
                mat_inverse(m)
