"""Helpers shared by several test modules."""

import importlib.util
from pathlib import Path

from skewbrack.groups import MAX_GROUP_ORDER, Group, _generators, enumerate_group
from skewbrack.linalg import Matrix
from skewbrack.scalars import Cyc

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def mat(order, rows):
    return Matrix(order, [[Cyc.of(v, order) for v in r] for r in rows])


def trivial_group_k(n):
    rows = [[Cyc.one(1) if i == j else Cyc.zero(1) for j in range(n)]
            for i in range(n)]
    return enumerate_group([Matrix(1, rows)])


def enumerate_by_whole_products(generators, bound=MAX_GROUP_ORDER, names=None):
    """The reference for groups.enumerate_group on valid generators: the
    same breadth-first search, but each element is keyed by its whole
    matrix, and every element is multiplied by every generator as a
    whole matrix product."""
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
                m = matrices[i] * gen
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
