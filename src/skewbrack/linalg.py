"""Exact linear algebra over a fixed cyclotomic field.

Matrices are dense and have no arithmetic operator.  Only linalg turns
one into sparse rows ({column: nonzero Cyc}), on which `_echelon`, the
one elimination, runs every reduction to echelon form.  Every product
runs on one row kernel, `row_times(row, m)`, which reads the order,
width and rows of the Matrix m, and every 1 - g is formed in one
builder, `one_minus_columns`.  `kernel_basis`, `image_basis` and
`solve_membership` have no reader in the package, only the benchmark's
tracer, which counts them as elimination.  linalg builds its own
results through Matrix._of, which coerces no entry; the public
constructor coerces each one.  The reduced form of a row space is
unique and nothing depends on hash order, so identical inputs give
identical outputs.
`det`, for the chain-level oracle's minors (`polyvec.minor_det`), is a
cofactor expansion that divides by nothing.
"""

from __future__ import annotations

from .scalars import Cyc, Frozen, _powers, _reduce, _widen


class Matrix(Frozen):
    """Immutable dense matrix of Cyc entries of one order, with no arithmetic.

    minors and images are the caches of polyvec.act, empty from either
    constructor, and hold plain ints only, in the one shape act's loops
    read: polyvec.minor_row keeps the rows of the exterior powers of the
    matrix in minors, and polyvec.monomial_image the images of monomials
    under it in images, each minor and each image term as (key,
    denominator, (place, numerator) pairs of its nonzero power-basis
    coordinates), the key its columns or its exponents.  No Cyc copy is
    kept beside them.  The entries cannot go stale, since the matrix is
    immutable, and they are freed with it; equality and hashing ignore
    them."""

    __slots__ = ("order", "nrows", "ncols", "rows", "minors", "images")

    def __init__(self, order, rows):
        rows = tuple(tuple(Cyc.of(e, order) for e in r) for r in rows)
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("matrix rows differ in length")
        self._init(order, len(rows), ncols, rows, {}, {})

    @classmethod
    def _of(cls, order, rows):
        """The matrix of rows whose entries are already Cycs of this
        order, as linalg's own results are: no entry is coerced."""
        rows = tuple(map(tuple, rows))
        return cls._new(order, len(rows), len(rows[0]) if rows else 0, rows, {}, {})

    @staticmethod
    def identity(n, order):
        one, zero = Cyc.one(order), Cyc.zero(order)
        return Matrix._of(order, [[one if i == j else zero for j in range(n)]
                                  for i in range(n)])

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.order == other.order and self.rows == other.rows

    def __hash__(self):
        return hash((self.order, self.rows))

    def __repr__(self):
        body = "; ".join(" ".join(str(e) for e in r) for r in self.rows)
        return f"Matrix[{body}]"


def row_times(row, m: Matrix):
    """row times m, a tuple of m.ncols Cycs of m's order, as
    groups.enumerate_group multiplies by a generator.  Each
    entry is summed in plain ints, as in polyvec.act: the power-basis
    convolutions of the nonzero products a * b over one denominator,
    widened to an lcm as needed, and reduced modulo Phi_N into one Cyc."""
    order = m.order
    size = 2 * len(_powers(order)[0]) - 1
    accs = {}  # column -> [denominator, unreduced numerators...]
    for a, right in zip(row, m.rows):
        if not a:
            continue
        # a as (place in acc, int) pairs
        ai = [(i, x) for i, x in enumerate(a.num, 1) if x]
        for j, b in enumerate(right):
            if not b:
                continue
            den = a.den * b.den
            acc = accs.get(j)
            if acc is None:
                acc = accs[j] = [den] + [0] * size
            up = 1 if den == acc[0] else _widen(acc, den)
            for i, x in ai:
                x *= up
                for k, y in enumerate(b.num, i):
                    acc[k] += x * y
    out = [Cyc.zero(order)] * m.ncols
    for j, c in _reduce(order, accs).items():
        out[j] = c
    return tuple(out)


def one_minus_columns(m: Matrix):
    """The columns of 1 - m as sparse rows ({j: nonzero Cyc}), the one
    place 1 - g is formed: codim g is the length of their echelon_span,
    groups.geometry echelonizes them beside the identity,
    bracket.moved_intersection those of two elements together, and
    column i is the d_i component of polyvec.euler_field."""
    if m.nrows != m.ncols:
        raise ValueError("matrix is not square")
    one = Cyc.one(m.order)
    columns = [{j: -e for j, e in enumerate(col) if e} for col in zip(*m.rows)]
    for i, row in enumerate(columns):
        row[i] = one - m.rows[i][i]
        if not row[i]:
            del row[i]
    return columns


def _echelon(rows):
    """Reduced row echelon form of sparse rows ({column: nonzero Cyc}).

    Returns {pivot column: row} with each row 1 at its own pivot and 0 at
    every other pivot.  Each incoming row is cleared at the known pivots,
    takes its least column as a new pivot, is rescaled by the inverse of
    its entry there unless that entry is already 1, and the column is
    cleared from the rows already kept.  The reduced form of a row space
    is unique, so this equals dense Gauss-Jordan on the same rows."""
    pivots = {}
    for row in rows:
        row = dict(row)
        for p in [c for c in row if c in pivots]:
            # a kept row is 0 at every other pivot, so row[p] is unchanged
            # by the subtractions before this one
            _axpy(row, -row[p], pivots[p])
        if not row:
            continue
        p = min(row)
        if row[p] != 1:
            inv = row[p].inverse()
            row = {c: v * inv for c, v in row.items()}
        for other in pivots.values():
            f = other.get(p)
            if f is not None:
                _axpy(other, -f, row)
        pivots[p] = row
    return pivots


def _axpy(row, f, other):
    # row += f * other in place, dropping the entries that cancel
    for c, v in other.items():
        v = f * v
        if c in row:
            v = row[c] + v
            if v:
                row[c] = v
            else:
                del row[c]
        else:
            row[c] = v


def _sparse(rows):
    return [{j: e for j, e in enumerate(r) if e} for r in rows]


def rref(m: Matrix):
    """Reduced row echelon form.  Returns (matrix, pivot column indices)."""
    if not m.rows:
        return m, ()
    pivots = _echelon(_sparse(m.rows))
    cols = tuple(sorted(pivots))
    zero = Cyc.zero(m.order)
    rows = [[pivots[p].get(j, zero) for j in range(m.ncols)] for p in cols]
    rows += [(zero,) * m.ncols] * (m.nrows - len(cols))
    return Matrix._of(m.order, rows), cols


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


def kernel_basis(m: Matrix):
    """Basis of the right kernel, one vector per free column, ordered by
    ascending free column index; the free coordinate is set to 1."""
    pivots = _echelon(_sparse(m.rows))
    one, zero = Cyc.one(m.order), Cyc.zero(m.order)
    basis = []
    for f in range(m.ncols):
        if f in pivots:
            continue
        v = [zero] * m.ncols
        v[f] = one
        for p, row in pivots.items():
            if f in row:
                v[p] = -row[f]
        basis.append(tuple(v))
    return basis


def image_basis(m: Matrix):
    """Echelonized basis of the column space (so two computations of the
    same subspace yield literally equal vector lists)."""
    r, pivots = rref(Matrix._of(m.order, zip(*m.rows)))
    return list(r.rows[:len(pivots)])


def solve_membership(vectors, target, order):
    """Express target as a linear combination of the given vectors.

    Returns the coefficient list of the solution with all free
    parameters set to zero, or None when target is outside the span.
    """
    k = len(vectors)
    zero = Cyc.zero(order)
    if k == 0:
        return [] if all(not t for t in target) else None
    if any(len(v) != len(target) for v in vectors):
        raise ValueError("vectors differ in length from the target")
    # row i of the augmented system, column k holding target[i]
    aug = _sparse(zip(*vectors))
    for row, t in zip(aug, target):
        if t:
            row[k] = t
    pivots = _echelon(aug)
    if k in pivots:
        return None
    coeffs = [zero] * k
    for p, row in pivots.items():
        coeffs[p] = row.get(k, zero)
    return coeffs


def det(m: Matrix) -> Cyc:
    """The determinant by cofactor expansion along the rows, last row
    first: the nonzero minors of the rows below, by their columns, as
    polyvec.minor_row keeps them in plain ints, here in Cyc sums and
    products only, so no entry is inverted.  A dense n x n matrix costs
    up to n 2^(n-1) products; the chain-level oracle, the one caller in
    the package, takes minors of at most one row on the benchmark."""
    if m.nrows != m.ncols:
        raise ValueError("matrix is not square")
    zero = Cyc.zero(m.order)
    below = {(): Cyc.one(m.order)}
    for row in reversed(m.rows):
        minors = {}
        for j, a in enumerate(row):
            if not a:
                continue
            for cols, d in below.items():
                if j not in cols:
                    pos = sum(c < j for c in cols)
                    key = cols[:pos] + (j,) + cols[pos:]
                    got = minors.get(key, zero)
                    minors[key] = got - a * d if pos % 2 else got + a * d
        below = {cols: d for cols, d in minors.items() if d}
    return below.get(tuple(range(m.nrows)), zero)


def mat_inverse(m: Matrix) -> Matrix:
    """The inverse, read off the reduced form of m beside the identity."""
    if m.nrows != m.ncols:
        raise ValueError("matrix is not square")
    n, one, zero = m.nrows, Cyc.one(m.order), Cyc.zero(m.order)
    pivots = _echelon({**row, n + i: one} for i, row in enumerate(_sparse(m.rows)))
    if any(p >= n for p in pivots):
        raise ValueError("matrix is singular")
    return Matrix._of(m.order, [[pivots[p].get(n + j, zero) for j in range(n)]
                                for p in range(n)])


def echelon_span(vectors, order):
    """Canonical echelonized basis of the span of the given sparse row
    vectors ({column: nonzero Cyc}), as sparse rows in pivot order."""
    pivots = _echelon(vectors)
    return [pivots[p] for p in sorted(pivots)]

