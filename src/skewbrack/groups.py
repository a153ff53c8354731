"""Finite matrix groups acting on V.

Enumeration from generators, multiplication data, conjugacy classes, and
the per-element geometry: the fixed subspace V^g, its canonical complement
(1-g)V, and the volume form omega_g spanning the top exterior power of the
dual of the complement.
"""

from .linalg import (
    Matrix,
    image_basis,
    kernel_basis,
    mat_inverse,
    rank,
)
from .polyvec import Poly, Polyvector, minor_row


class Group:
    """A finite matrix group with its multiplication table.

    matrices[0] is always the identity, and words[i] is the first
    generator word reaching matrices[i] during enumeration ("e" for the
    identity).  mult_table[i][j] is the index of matrices[i] * matrices[j].
    generator_indices[j] is the index of the j-th generator, and names[j]
    its name in words.  Each class cls in conj_classes is ascending, with
    representative r = cls[0]; centralizers[c] is the centralizer of r,
    ascending, and conjugators[k] the first h with h^-1 r h = k for k in
    cls.  kernel_indices lists the elements acting as the identity on V
    (trivial for faithful actions).  The geometry of each element is
    computed on first use and kept on the group.
    """

    __slots__ = (
        "dim",
        "scalar_order",
        "names",
        "generator_indices",
        "matrices",
        "words",
        "mult_table",
        "inverses",
        "conj_classes",
        "centralizers",
        "conjugators",
        "kernel_indices",
        "_geometries",
    )

    def __init__(self, dim, scalar_order, names, generator_indices, matrices,
                 words, mult_table, inverses, conj_classes, centralizers,
                 conjugators, kernel_indices):
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "scalar_order", scalar_order)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "generator_indices", generator_indices)
        object.__setattr__(self, "matrices", matrices)
        object.__setattr__(self, "words", words)
        object.__setattr__(self, "mult_table", mult_table)
        object.__setattr__(self, "inverses", inverses)
        object.__setattr__(self, "conj_classes", conj_classes)
        object.__setattr__(self, "centralizers", centralizers)
        object.__setattr__(self, "conjugators", conjugators)
        object.__setattr__(self, "kernel_indices", kernel_indices)
        object.__setattr__(self, "_geometries", [None] * len(matrices))

    def __setattr__(self, name, value):
        raise AttributeError("Group is immutable")

    def __len__(self):
        return len(self.matrices)

    def matrix(self, i):
        return self.matrices[i]

    def mult(self, i, j):
        return self.mult_table[i][j]

    def inverse(self, i):
        return self.inverses[i]

    def action(self, i):
        """The (h, h_inv) matrix pair of element i, as polyvec.act takes it."""
        return self.matrix(i), self.matrix(self.inverse(i))

    def conjugate(self, g, h):
        """Index of h g h^-1."""
        return self.mult(self.mult(h, g), self.inverse(h))


def enumerate_group(generators, bound=1024, names=None):
    """Breadth-first closure of a generator list into a Group.

    Deterministic ordering: the identity first, then words in the
    generators in input order, shortest words first, written in the names
    (by default g1, g2, ...).  Raises ValueError for bad generators and
    RuntimeError when the closure exceeds bound.
    """
    if not generators:
        raise ValueError("at least one generator is required")
    n = generators[0].nrows
    order = generators[0].order
    for g in generators:
        if g.nrows != g.ncols:
            raise ValueError("generators must be square matrices")
        if g.nrows != n or g.order != order:
            raise ValueError("generators must share one dimension and scalar order")
        if rank(g) != n:
            raise ValueError("generators must be invertible")
    names = tuple(names or (f"g{j + 1}" for j in range(len(generators))))

    identity = Matrix.identity(n, order)
    matrices = [identity]
    words = ["e"]
    index_of = {identity: 0}
    # right[i][j] is the index of matrices[i] * generators[j]; element k > 0
    # was first reached as matrices[p] * generators[j], (p, j) = reached[k - 1].
    right = []
    reached = []
    frontier = [0]
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

    # i * k = (i * matrices[p]) * generators[j] for (p, j) = reached[k - 1],
    # and p < k, so each row fills left to right.
    size = len(matrices)
    mult_table = []
    for i in range(size):
        row = [i]
        for p, j in reached:
            row.append(right[row[p]][j])
        mult_table.append(row)
    inverses = [mult_table[i].index(0) for i in range(size)]

    # r runs up through the elements in no class yet, so it is the least of
    # its class, and h = 0 gives conjugators[r] = 0.
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

    kernel_indices = [i for i in range(size) if matrices[i] == identity]
    return Group(n, order, names, tuple(right[0]), matrices, words,
                 mult_table, inverses, conj_classes, tuple(centralizers),
                 tuple(conjugators), kernel_indices)


def is_ascii_number(text):
    """Whether text is a nonempty run of the digits 0-9.  str.isdigit
    alone also accepts other scripts' digits and superscripts."""
    return text.isascii() and text.isdigit()


def resolve_word(group, word):
    """Index of the element named by a generator word like "g1*g2".

    A token is a generator's name or g<k> for the k-th generator.  Accepts
    "e" for the identity and bare integers (as int or string) naming an
    element index directly.
    """
    if isinstance(word, int):
        if 0 <= word < len(group):
            return word
        raise ValueError(f"element index {word} out of range")
    text = word.strip()
    if text == "e":
        return 0
    if is_ascii_number(text):
        return resolve_word(group, int(text))
    i = 0
    for token in text.split("*"):
        token = token.strip()
        if token in group.names:
            token = f"g{group.names.index(token) + 1}"
        if not token.startswith("g") or not is_ascii_number(token[1:]):
            raise ValueError(f"bad generator token {token!r}")
        k = int(token[1:])
        if not 1 <= k <= len(group.generator_indices):
            raise ValueError(f"generator {token!r} out of range")
        i = group.mult(i, group.generator_indices[k - 1])
    return i


class GroupGeometry:
    """The splitting V = V^g + (1-g)V for one group element.

    adapted has a basis of V^g as its first n - codim columns and an
    echelonized basis of (1-g)V as its last codim columns; dual_change =
    adapted^-1, whose rows are the adapted dual coordinates in terms of
    the original ones; omega is the wedge of the last codim rows, the
    moved dual coordinates, scaled so its first coefficient is 1.
    """

    __slots__ = ("codim", "adapted", "dual_change", "omega")

    def __init__(self, codim, adapted, dual_change, omega):
        object.__setattr__(self, "codim", codim)
        object.__setattr__(self, "adapted", adapted)
        object.__setattr__(self, "dual_change", dual_change)
        object.__setattr__(self, "omega", omega)

    def __setattr__(self, name, value):
        raise AttributeError("GroupGeometry is immutable")


def geometry(group, g):
    """GroupGeometry of the element with index g, computed once per group."""
    if not 0 <= g < len(group):
        raise ValueError(f"element index {g} out of range")
    cached = group._geometries[g]
    if cached is not None:
        return cached
    n, order = group.dim, group.scalar_order
    diff = Matrix.identity(n, order) - group.matrix(g)
    moved = image_basis(diff)
    codim = len(moved)
    adapted = Matrix(order, kernel_basis(diff) + moved).transpose()
    dual_change = mat_inverse(adapted)
    # the coefficients of the wedge of rows are their minors
    minors = minor_row(dual_change, tuple(range(n - codim, n)))
    lead = minors[0][1].inverse()
    omega = Polyvector(n, order, {cols: Poly.const(d * lead, n, order)
                                  for cols, d in minors})
    geom = group._geometries[g] = GroupGeometry(codim, adapted, dual_change,
                                                omega)
    return geom
