"""Helpers shared by several test modules."""

import importlib.util
from fractions import Fraction
from pathlib import Path

from skewbrack.cli import load_group_file
from skewbrack.cochain import Cochain
from skewbrack.fixtures import EXAMPLES
from skewbrack.groups import MAX_GROUP_ORDER, Group, _generators, enumerate_group, resolve_word
from skewbrack.linalg import Matrix, mat_inverse
from skewbrack.polyvec import Polyvector, act
from skewbrack.scalars import Cyc, cyclotomic_polynomial

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def example_group(name):
    """The group of the package's example file of that name."""
    return load_group_file(str(EXAMPLES / name))[0]


def single(group, g, pv):
    """The cochain whose one component, at g, is the nonzero pv."""
    return Cochain(group, pv.degree(), {g: pv})


def basis_by_class(group, basis):
    """How many of the basis classes lie on each conjugacy class of
    group, in class order; each must lie on exactly one."""
    on = [[k for k, cls in enumerate(group.conj_classes) if not c.terms.keys().isdisjoint(cls)]
          for c in basis]
    assert all(len(ks) == 1 for ks in on), on
    return [sum(ks == [k] for ks in on) for k in range(len(group.conj_classes))]


def mat(order, rows):
    return Matrix(order, [[Cyc.of(v, order) for v in r] for r in rows])


def matmul(first, *rest):
    """The product of the matrices, left to right: each entry a sum of Cyc
    products, with nothing from linalg but the Matrix constructor, so it
    shares no code with the row kernel linalg.row_times."""
    out = first
    for b in rest:
        if out.ncols != b.nrows:
            raise ValueError("matrix shape mismatch")
        zero = Cyc.zero(out.order)
        out = Matrix(out.order, [[sum((x * b.rows[k][j] for k, x in enumerate(r) if x), zero)
                                  for j in range(b.ncols)] for r in out.rows])
    return out


def matvec(m, v):
    """m times the column vector v, as a tuple: the one column of matmul's
    product, so it shares no code with the row kernel linalg.row_times."""
    return tuple(r[0] for r in matmul(m, Matrix(m.order, [[x] for x in v])).rows)


def one_minus(m):
    """1 - m entry by entry, each a Cyc difference, with nothing from
    linalg but the Matrix constructor, so it shares no code with the
    builder linalg.one_minus_columns."""
    one, zero = Cyc.one(m.order), Cyc.zero(m.order)
    return Matrix(m.order, [[(one if i == j else zero) - e for j, e in enumerate(r)]
                            for i, r in enumerate(m.rows)])


def field_degree(order):
    """The degree of Q(zeta_order) over Q, the length of a Cyc's num."""
    return len(cyclotomic_polynomial(order)) - 1


def minimal_pair_k5():
    """Minimal-degree invariant reduced classes (exterior part exactly
    the volume form) off the kernel, on the two-sign-pairs action.
    Returns (group, x, y)."""
    group = example_group("two_sign_pairs_k5_unnamed.json")
    s = resolve_word(group, "g1")
    t = resolve_word(group, "g2")
    x = single(group, s, Polyvector.term(1, (0, 0, 1, 0, 0), (0, 1), 1))
    y = single(group, t, Polyvector.term(1, (0, 0, 1, 0, 0), (3, 4), 1))
    return group, x, y


def trivial_group_k(n):
    rows = [[Cyc.one(1) if i == j else Cyc.zero(1) for j in range(n)]
            for i in range(n)]
    return enumerate_group([Matrix(1, rows)])


def alternating_unipotent(n, order):
    """(U, U^-1) for the unipotent U with (-1)^(i+j) above the diagonal:
    conjugated by it, a monomial action becomes a dense one."""
    u = mat(order, [[(-1) ** (i + j) if i < j else int(i == j) for j in range(n)]
                    for i in range(n)])
    return u, mat_inverse(u)


def imprimitive_reflection_group(m, p, n):
    """G(m, p, n) of Shephard and Todd, for p dividing m and n >= 2: the
    n x n monomial matrices over Q(zeta_m) whose nonzero entries are m-th
    roots of unity with product an (m/p)-th root of unity, m^n n!/p of
    them.  Generated by the transpositions of coordinates i and i+1, the
    transposition of the first two twisted by zeta_m and zeta_m^-1, and
    diag(zeta_m^p, 1, ..., 1) when p < m."""
    def monomial(images):
        # images[j] = (i, c): column j is c at row i
        rows = [[Cyc.zero(m)] * n for _ in range(n)]
        for j, (i, c) in enumerate(images):
            rows[i][j] = c
        return Matrix(m, rows)

    fixed = [(j, Cyc.one(m)) for j in range(n)]
    generators = [monomial(fixed[:i] + [fixed[i + 1], fixed[i]] + fixed[i + 2:])
                  for i in range(n - 1)]
    generators.append(monomial([(1, Cyc.zeta(m)), (0, Cyc.zeta(m, -1))] + fixed[2:]))
    if p < m:
        generators.append(monomial([(0, Cyc.zeta(m, p))] + fixed[1:]))
    return enumerate_group(generators)


def conjugate_group(group, u, u_inv):
    """The group generated by u^-1 s u for the generators s of group, in
    the same order and with the same names, so its words and tables are
    those of group: element i of it is u^-1 (matrices[i]) u."""
    return enumerate_group([matmul(u_inv, group.matrices[i], u) for i in group.generator_indices],
                           names=group.names)


def move_cochain(c, target, u, u_inv):
    """c moved onto conjugate_group(c.group, u, u_inv): each component
    acted on by u, which carries a cochain invariant under g to one
    invariant under u^-1 g u."""
    return Cochain(target, c.degree, {g: act(pv, [(u, u_inv)]) for g, pv in c.terms.items()})


def enumerate_by_whole_products(generators, bound=MAX_GROUP_ORDER, names=None):
    """The reference for groups.enumerate_group on valid generators: the
    same breadth-first search, but each element is keyed by its whole
    matrix, and every element is multiplied by every generator as a
    whole matrix product, by matmul."""
    names = tuple(names or (f"g{j + 1}" for j in range(len(generators))))
    identity = Matrix.identity(generators[0].nrows, generators[0].order)
    matrices, words, index_of = [identity], ["e"], {identity: 0}
    # right[i][j] is the index of matrices[i] * generators[j]; element k > 0
    # was first reached as matrices[p] * generators[j], (p, j) = reached[k - 1].
    right, reached, frontier = [], [], [0]
    while frontier:
        fresh = []
        for i in frontier:
            row = []
            for j, gen in enumerate(generators):
                m = matmul(matrices[i], gen)
                k = index_of.get(m)
                if k is None:
                    if len(matrices) >= bound:
                        raise RuntimeError("group not finite within bound")
                    k = index_of[m] = len(matrices)
                    matrices.append(m)
                    words.append(f"{words[i]}*{names[j]}" if i else names[j])
                    reached.append((i, j))
                    fresh.append(k)
                row.append(k)
            right.append(row)
        frontier = fresh

    size = len(matrices)
    mult_table = []
    for i in range(size):
        row = [i]
        for p, j in reached:
            row.append(right[row[p]][j])
        mult_table.append(tuple(row))
    inverses = tuple(row.index(0) for row in mult_table)
    conj_classes, centralizers, conjugators = [], [], [None] * size
    for r in range(size):
        if conjugators[r] is not None:
            continue
        images = [mult_table[mult_table[inverses[h]][r]][h] for h in range(size)]
        for h, k in enumerate(images):
            if conjugators[k] is None:
                conjugators[k] = h
        conj_classes.append(tuple(sorted(set(images))))
        centralizers.append(tuple(h for h, k in enumerate(images) if k == r))
    return Group(dim=identity.nrows, scalar_order=identity.order, names=names,
                 generator_indices=tuple(right[0]), matrices=tuple(matrices),
                 words=tuple(words), mult_table=tuple(mult_table),
                 inverses=inverses, conj_classes=tuple(conj_classes),
                 centralizers=tuple(centralizers),
                 centralizer_gens=tuple(_generators(c, mult_table) for c in centralizers),
                 conjugators=tuple(conjugators))


def load_tracer():
    """The benchmark's tracer module, loaded from perfbench/tracer.py."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fraction_coeffs(c):
    """The power-basis coefficients of the Cyc c as Fractions."""
    return tuple(Fraction(n, c.den) for n in c.num)


def print_scalar_by_fractions(c):
    """The reference for scalars.print_scalar: the same canonical text,
    formatted from the Fraction coefficients."""
    parts = []
    for k, a in enumerate(fraction_coeffs(c)):
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
