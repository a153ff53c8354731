"""Finite matrix groups acting on V.

Enumeration from generators on interned rows, multiplication data,
conjugacy classes with their centralizers and generators of these, and
the per-element geometry: the fixed subspace V^g, its canonical
complement (1-g)V and the coordinates adapted to that splitting.  The
volume form omega_g of the complement is built in cochain.volume_form.
"""

from .linalg import Matrix, echelon_span, mat_inverse, one_minus_columns, rank, row_times
from .scalars import Cyc, Frozen


# The most elements enumerate_group lists before it refuses a group as
# not finite, and the largest "bound" a group file may ask for.
MAX_GROUP_ORDER = 1024


class Group(Frozen):
    """A finite matrix group, given as its tables, each passed by keyword.

    matrices[0] is always the identity, and words[i] is the first
    generator word reaching matrices[i] during enumeration ("e" for the
    identity).  mult_table[i][j] is the index of matrices[i] * matrices[j],
    and inverses[i] that of the inverse of matrices[i].
    generator_indices[j] is the index of the j-th generator, and names[j]
    its name in words.  Each class cls in conj_classes is ascending, with
    representative r = cls[0]; centralizers[c] is the centralizer of r,
    ascending, centralizer_gens[c] generates it (each h of centralizers[c]
    in turn, kept when not in the subgroup the ones kept before it
    generate), and conjugators[k] is the first h with h^-1 r h = k for k
    in cls.  Readers index these tables directly.  enumerate_group keys
    elements by the rows of their matrices, so the identity is the only
    element acting trivially on V, and makes each table a tuple, so none
    can change under its readers.  __init__ builds one more table from
    these: actions[i] is the (h, h_inv) matrix pair of element i,
    (matrices[i], matrices[inverses[i]]), as polyvec.act takes it, made
    once per group, so every action on the group reads the same pair and
    the caches on its matrices; a caller acting with element i indexes
    actions[i] too.  The geometry of each element is computed
    on first use and kept in _geometries, the one cache list.
    """

    __slots__ = ("dim", "scalar_order", "names", "generator_indices", "matrices",
                 "words", "mult_table", "inverses", "conj_classes", "centralizers",
                 "centralizer_gens", "conjugators", "actions", "_geometries")

    def __init__(self, **tables):
        names = Group.__slots__[:-2]
        if tables.keys() != set(names):
            raise ValueError(f"a Group takes exactly the tables {names}")
        matrices, inverses = tables["matrices"], tables["inverses"]
        actions = tuple([(h, matrices[j]) for h, j in zip(matrices, inverses)])
        self._init(*map(tables.get, names), actions, [None] * len(matrices))

    def __len__(self):
        return len(self.matrices)


def enumerate_group(generators, bound=MAX_GROUP_ORDER, names=None):
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
    if names is not None:
        check_generator_names(names, len(generators))
    names = tuple(names or (f"g{j + 1}" for j in range(len(generators))))

    # An element is the tuple of its rows' ids in one table.  Row r of
    # m * s is (row r of m) * s, so memos[j] (row id -> row id) multiplies
    # each distinct row by generators[j] once.
    rows, row_ids = [], {}

    def intern(row):
        k = row_ids.setdefault(row, len(rows))
        if k == len(rows):
            rows.append(row)
        return k

    keys = [tuple(map(intern, Matrix.identity(n, order).rows))]
    words = ["e"]
    index_of = {keys[0]: 0}
    memos = [{} for _ in generators]
    # right[i][j] is the index of matrices[i] * generators[j]; element k > 0
    # was first reached as matrices[p] * generators[j], (p, j) = reached[k - 1].
    right, reached, frontier = [], [], [0]
    while frontier:
        fresh = []
        for i in frontier:
            products = []
            for j, memo in enumerate(memos):
                for r in keys[i]:
                    if r not in memo:
                        memo[r] = intern(row_times(rows[r], generators[j]))
                key = tuple([memo[r] for r in keys[i]])
                k = index_of.get(key)
                if k is None:
                    if len(keys) >= bound:
                        raise RuntimeError("group not finite within bound")
                    k = index_of[key] = len(keys)
                    keys.append(key)
                    words.append(f"{words[i]}*{names[j]}" if i else names[j])
                    reached.append((i, j))
                    fresh.append(k)
                products.append(k)
            right.append(products)
        frontier = fresh
    matrices = tuple(Matrix._of(order, [rows[r] for r in key]) for key in keys)

    # i * k = (i * matrices[p]) * generators[j] for (p, j) = reached[k - 1],
    # and p < k, so each row fills left to right.
    size = len(keys)
    mult_table = []
    for i in range(size):
        row = [i]
        for p, j in reached:
            row.append(right[row[p]][j])
        mult_table.append(tuple(row))
    inverses = tuple(row.index(0) for row in mult_table)

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

    # classes of an abelian group all share one centralizer, G itself
    gens_of = {}
    for cent in centralizers:
        if cent not in gens_of:
            gens_of[cent] = _generators(cent, mult_table)
    centralizer_gens = tuple(gens_of[cent] for cent in centralizers)
    return Group(dim=n, scalar_order=order, names=names,
                 generator_indices=tuple(right[0]), matrices=matrices,
                 words=tuple(words), mult_table=tuple(mult_table),
                 inverses=inverses, conj_classes=tuple(conj_classes),
                 centralizers=tuple(centralizers),
                 centralizer_gens=centralizer_gens,
                 conjugators=tuple(conjugators))


def _generators(subgroup, mult_table):
    """Generators of a subgroup given as its ascending elements: each h
    in turn, kept when the ones kept before it do not generate h.  The
    subgroup they generate is closed under right multiplication by them
    through mult_table: an element already reached needs only the new
    generator, a new one every generator kept."""
    gens, reached = [], {0}
    for h in subgroup:
        if h in reached:
            continue
        gens.append(h)
        queue = [(x, (h,)) for x in reached]
        while queue:
            x, by = queue.pop()
            for s in by:
                y = mult_table[x][s]
                if y not in reached:
                    reached.add(y)
                    queue.append((y, gens))
    return tuple(gens)


def check_generator_names(names, count):
    """Raise ValueError unless names, a list or tuple, names count
    generators so that every word reads back as the element it was
    written for: distinct nonempty strings without '*' or surrounding
    spaces, not 'e' (the identity) nor all ASCII digits (an element
    index), and g<k> only for the k-th generator."""
    if (not isinstance(names, (list, tuple)) or len(names) != count
            or any(not isinstance(s, str) or not s or "*" in s or s != s.strip()
                   or s == "e" or is_ascii_number(s) for s in names)
            or len(set(names)) != len(names)):
        raise ValueError("names must be distinct nonempty strings "
                         "without '*' or surrounding spaces, not 'e' nor "
                         "all ASCII digits, one per generator")
    for pos, name in enumerate(names, 1):
        # g<k> names the k-th generator in class files
        if name[0] == "g" and is_ascii_number(name[1:]) and int(name[1:]) != pos:
            raise ValueError(f"names must be g<k> only for the k-th generator, "
                             f"got {name!r} for generator {pos}")


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
        i = group.mult_table[i][group.generator_indices[k - 1]]
    return i


class GroupGeometry(Frozen):
    """The splitting V = V^g + (1-g)V for one group element.

    adapted has a basis of V^g as its first n - codim columns and an
    echelonized basis of (1-g)V as its last codim columns, both read off
    the reduced echelon form of [(1-g)^T | 1]; dual_change =
    adapted^-1, whose rows are the adapted dual coordinates in terms of
    the original ones, the last codim of them the moved ones.
    """

    __slots__ = ("codim", "adapted", "dual_change")


def geometry(group, g):
    """GroupGeometry of the element with index g, computed once per group.

    Both bases come from one reduced echelon form, of the n rows of
    [(1-g)^T | 1]: row i is (column i of 1-g, e_i), the column from
    linalg.one_minus_columns, so a combination of the rows with
    coefficients x is ((1-g)x, x).  A reduced row with its pivot in the
    first block has as that block a vector of the echelonized basis of
    (1-g)V, the one image_basis(1-g) gives.  A reduced row with its pivot
    in the second block is 0 in the first, so its second block is a
    vector that 1-g kills, and these vectors span V^g.  Nothing
    downstream depends on which basis of V^g this is."""
    if not 0 <= g < len(group):
        raise ValueError(f"element index {g} out of range")
    cached = group._geometries[g]
    if cached is not None:
        return cached
    n, order = group.dim, group.scalar_order
    one, zero = Cyc.one(order), Cyc.zero(order)
    rows = one_minus_columns(group.matrices[g])
    for i, row in enumerate(rows):
        row[n + i] = one
    fixed, moved = [], []
    for row in echelon_span(rows, order):
        if min(row) < n:
            moved.append([row.get(j, zero) for j in range(n)])
        else:
            fixed.append([row.get(j, zero) for j in range(n, 2 * n)])
    adapted = Matrix._of(order, zip(*fixed, *moved))
    geom = group._geometries[g] = GroupGeometry(len(moved), adapted, mat_inverse(adapted))
    return geom
