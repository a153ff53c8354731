"""Exact linear algebra over a fixed cyclotomic field.

Matrices are dense, but every reduction to echelon form runs on sparse
rows ({column: nonzero Cyc}) in one core, `_echelon`; the dense entry
points convert to and from it.  The matrix product sums each entry in
plain ints on the accumulator of scalars._widen and scalars._reduce, and
linalg builds its own results through Matrix._of, which coerces no
entry; the public constructor coerces each one.  Everything is
deterministic: the reduced row echelon form of a row space is unique,
so identical inputs give identical outputs (no randomized or
hash-ordered choices anywhere).
`det` is a separate dense Gaussian elimination; only the chain-level
oracle's minors (through `polyvec.minor_det`) and tests call it.
"""

from __future__ import annotations

from .scalars import Cyc, Frozen, _powers, _reduce, _widen


class Matrix(Frozen):
    """Immutable dense matrix with Cyc entries (all of one order).

    minors and images are the caches of polyvec.act, empty from either
    constructor: polyvec.minor_row keeps the rows of the exterior powers
    of the matrix in minors, and polyvec.monomial_image the images of
    monomials under it in images.  The entries cannot go stale, since the
    matrix is immutable, and they are freed with it; equality and
    hashing ignore them."""

    __slots__ = ("order", "nrows", "ncols", "rows", "minors", "images")

    def __init__(self, order, rows):
        rows = tuple(tuple(Cyc.of(e, order) for e in r) for r in rows)
        ncols = len(rows[0]) if rows else 0
        assert all(len(r) == ncols for r in rows)
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

    def __mul__(self, other):
        """The product, each entry summed in plain ints as in polyvec.act:
        the power-basis convolutions of the products a * b of a row's
        nonzero entries with the nonzero entries of other, over one
        denominator that widens to an lcm when a product's does not
        divide it, reduced modulo Phi_N into one Cyc per entry."""
        if not isinstance(other, Matrix):
            return NotImplemented
        assert self.ncols == other.nrows
        order = self.order
        if other.order != order:
            raise ValueError("cyclotomic order mismatch")
        size = 2 * len(_powers(order)[0]) - 1
        # the nonzero entries b = other[k][j] of each row k, as (j, b)
        right = [[(j, b) for j, b in enumerate(r) if b] for r in other.rows]
        zero = Cyc.zero(order)
        out = []
        for r in self.rows:
            accs = {}  # column -> [denominator, unreduced numerators...]
            for a, terms in zip(r, right):
                if not a:
                    continue
                # a as (place in acc, int) pairs
                ai = [(i, x) for i, x in enumerate(a.num, 1) if x]
                for j, b in terms:
                    den = a.den * b.den
                    acc = accs.get(j)
                    if acc is None:
                        acc = accs[j] = [den] + [0] * size
                    up = 1 if den == acc[0] else _widen(acc, den)
                    for i, x in ai:
                        x *= up
                        for k, y in enumerate(b.num, i):
                            acc[k] += x * y
            row = [zero] * other.ncols
            for j, c in _reduce(order, accs).items():
                row[j] = c
            out.append(row)
        return Matrix._of(order, out)

    def __sub__(self, other):
        assert self.nrows == other.nrows and self.ncols == other.ncols
        return Matrix._of(
            self.order,
            [[a - b for a, b in zip(r, s)] for r, s in zip(self.rows, other.rows)],
        )

    def transpose(self):
        return Matrix._of(self.order, zip(*self.rows))

    def column(self, j):
        return tuple(r[j] for r in self.rows)

    def apply(self, vec):
        """Matrix times column vector."""
        assert len(vec) == self.ncols
        zero = Cyc.zero(self.order)
        out = []
        for r in self.rows:
            acc = zero
            for a, v in zip(r, vec):
                if a and v:
                    acc = acc + a * v
            out.append(acc)
        return tuple(out)

    def __repr__(self):
        body = "; ".join(" ".join(str(e) for e in r) for r in self.rows)
        return f"Matrix[{body}]"


def _echelon(rows):
    """Reduced row echelon form of sparse rows ({column: nonzero Cyc}).

    Returns {pivot column: row} with each row 1 at its own pivot and 0 at
    every other pivot.  Each incoming row is cleared at the known pivots,
    takes its least column as a new pivot, and that column is cleared
    from the rows already kept.  The reduced form of a row space is
    unique, so this equals dense Gauss-Jordan on the same rows."""
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


def _rref_rows(order, rows, ncols):
    # Dense rows of the reduced form, nonzero rows by pivot, then the
    # pivot columns.
    pivots = _echelon(_sparse(rows))
    zero = Cyc.zero(order)
    out = []
    for p in sorted(pivots):
        row = pivots[p]
        out.append([row.get(j, zero) for j in range(ncols)])
    return out, tuple(sorted(pivots))


def rref(m: Matrix):
    """Reduced row echelon form.  Returns (matrix, pivot column indices)."""
    if not m.rows:
        return m, ()
    rows, pivots = _rref_rows(m.order, m.rows, m.ncols)
    zero = (Cyc.zero(m.order),) * m.ncols
    return Matrix._of(m.order, rows + [zero] * (m.nrows - len(rows))), pivots


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
    rows, _ = _rref_rows(m.order, list(zip(*m.rows)), m.nrows)
    return [tuple(r) for r in rows]


def solve_membership(vectors, target, order):
    """Express target as a linear combination of the given vectors.

    Returns the coefficient list of the solution with all free
    parameters set to zero, or None when target is outside the span.
    """
    n = len(target)
    k = len(vectors)
    zero = Cyc.zero(order)
    if k == 0:
        return [] if all(not t for t in target) else None
    assert all(len(v) == n for v in vectors)
    aug = [[vectors[j][i] for j in range(k)] + [target[i]] for i in range(n)]
    pivots = _echelon(_sparse(aug))
    if k in pivots:
        return None
    coeffs = [zero] * k
    for p, row in pivots.items():
        coeffs[p] = row.get(k, zero)
    return coeffs


def det(m: Matrix) -> Cyc:
    assert m.nrows == m.ncols
    order = m.order
    rows = [list(r) for r in m.rows]
    n = m.nrows
    sign = 1
    out = Cyc.one(order)
    for col in range(n):
        piv = None
        for i in range(col, n):
            if rows[i][col]:
                piv = i
                break
        if piv is None:
            return Cyc.zero(order)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            sign = -sign
        p = rows[col][col]
        out = out * p
        inv = p.inverse()
        for i in range(col + 1, n):
            if rows[i][col]:
                f = rows[i][col] * inv
                rows[i] = [a - f * b if b else a for a, b in zip(rows[i], rows[col])]
    return out if sign == 1 else -out


def mat_inverse(m: Matrix) -> Matrix:
    assert m.nrows == m.ncols
    n = m.nrows
    ident = Matrix.identity(n, m.order)
    aug = [list(r) + list(ir) for r, ir in zip(m.rows, ident.rows)]
    rows, pivots = _rref_rows(m.order, aug, 2 * n)
    if pivots != tuple(range(n)):
        raise ValueError("matrix is singular")
    return Matrix._of(m.order, [r[n:] for r in rows])


def echelon_span(vectors, order):
    """Canonical echelonized basis of the span of the given sparse row
    vectors ({column: nonzero Cyc}), as sparse rows in pivot order."""
    pivots = _echelon(vectors)
    return [pivots[p] for p in sorted(pivots)]

