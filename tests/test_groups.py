from math import factorial
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    alternating_unipotent,
    conjugate_group,
    enumerate_by_whole_products,
    imprimitive_reflection_group,
    mat,
    matmul,
    matvec,
    one_minus,
)
from skewbrack import groups
from skewbrack.cli import load_group_file
from skewbrack.cochain import volume_form
from skewbrack.fixtures import EXAMPLES, fixture_groups
from skewbrack.groups import (
    Group,
    enumerate_group,
    geometry,
    resolve_word,
)
from skewbrack.linalg import Matrix, echelon_span, image_basis, one_minus_columns, rank, row_times
from skewbrack.polyvec import Polyvector, act, euler_field
from skewbrack.scalars import Cyc
from test_reflection_groups import CASES as REFLECTION_CASES

ROOT = Path(__file__).resolve().parent.parent
GROUP_DATA = ROOT / "perfbench" / "data" / "groups"
GROUP_FILES = {path.stem: path for path in sorted([*EXAMPLES.glob("*.json"),
                                                   *GROUP_DATA.glob("*.json")])
               if not path.name.startswith("class_")}


def diag(order, *entries):
    n = len(entries)
    return mat(order, [[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])


def span_equal(vectors_a, vectors_b, order):
    """Whether two lists of dense vectors span the same subspace."""
    def span(vectors):
        return echelon_span([{j: e for j, e in enumerate(v) if e} for v in vectors], order)
    return span(vectors_a) == span(vectors_b)


def test_span_equal():
    a = [(Cyc.of(1, 1), Cyc.of(1, 1))]
    b = [(Cyc.of(2, 1), Cyc.of(2, 1))]
    c = [(Cyc.of(1, 1), Cyc.of(0, 1))]
    assert span_equal(a, b, 1)
    assert not span_equal(a, c, 1)
    assert span_equal([], [(Cyc.zero(1), Cyc.zero(1))], 1)


def acting_trivially(group):
    """The elements whose matrix is the identity."""
    ident = Matrix.identity(group.dim, group.scalar_order)
    return [i for i in range(len(group)) if group.matrices[i] == ident]


def klein_four():
    return enumerate_group([diag(1, -1, 1, 1), diag(1, 1, 1, -1)])


def test_enumerate_klein_four():
    g = klein_four()
    assert len(g) == 4
    assert g.words == ("e", "g1", "g2", "g1*g2")
    assert g.matrices[3] == diag(1, -1, 1, -1)
    assert acting_trivially(g) == [0]
    assert g.conj_classes == ((0,), (1,), (2,), (3,))
    assert all(g.inverses[i] == i for i in range(4))


def test_enumerate_trivial_group():
    g = enumerate_group([Matrix.identity(2, 1)])
    assert len(g) == 1
    assert acting_trivially(g) == [0]


def test_enumerate_cyclic_three():
    z = Cyc.zeta(3)
    rows = [[z, 0, 0, 0, 0],
            [0, z.inverse(), 0, 0, 0],
            [0, 0, 1, 0, 0],
            [0, 0, 0, 1, 0],
            [0, 0, 0, 0, 1]]
    m = Matrix(3, [[Cyc.of(v, 3) for v in r] for r in rows])
    g = enumerate_group([m])
    assert len(g) == 3


def test_enumerate_rejects_singular_generator():
    with pytest.raises(ValueError):
        enumerate_group([mat(1, [[1, 0], [1, 0]])])


@pytest.mark.parametrize("generators, message", [
    ([], "at least one"),
    ([mat(1, [[1, 0]])], "square"),
    ([mat(1, [[1]]), mat(1, [[1, 0], [0, 1]])], "share"),
    ([mat(1, [[1]]), mat(4, [[1]])], "share"),
])
def test_enumerate_rejects_bad_generator_lists(generators, message):
    with pytest.raises(ValueError, match=message):
        enumerate_group(generators)


SIGNS = [mat(1, [[-1, 0], [0, 1]]), mat(1, [[1, 0], [0, -1]])]


@pytest.mark.parametrize("names, message", [
    # too few or too many: one name per generator
    (["a"], "one per generator"),
    (["a", "b", "c"], "one per generator"),
    ("ab", "one per generator"),
    # a repeat, the identity's word or an element index would read back
    # as another element
    (["a", "a"], "distinct"),
    (["e", "b"], "not 'e'"),
    (["2", "b"], "ASCII digits"),
    (["", "b"], "nonempty"),
    (["a*b", "c"], "without '\\*'"),
    ([" a", "b"], "surrounding spaces"),
    ([1, "b"], "strings"),
    # g<k> names the k-th generator, and no other
    (["g2", "g1"], "g<k> only for the k-th generator, got 'g2' for generator 1"),
])
def test_enumerate_refuses_names_that_do_not_read_back(names, message):
    with pytest.raises(ValueError, match=message):
        enumerate_group(SIGNS, names=names)


def test_enumerate_takes_names_that_read_back():
    g = enumerate_group(SIGNS, names=("s", "g2"))
    assert g.names == ("s", "g2")
    assert g.words == ("e", "s", "g2", "s*g2")
    assert [resolve_word(g, w) for w in g.words] == [0, 1, 2, 3]


def test_geometry_refuses_an_index_out_of_range():
    g = klein_four()
    for index in (-1, len(g)):
        with pytest.raises(ValueError, match="out of range"):
            geometry(g, index)


# [[1, z], [z, -1]] over Q(zeta4) has determinant -1 - z^2 = 0
REFUSED_GENERATORS = {
    "singular-q": ([mat(1, [[1, 1], [1, 1]])], "generators must be invertible"),
    "singular-zeta4": ([mat(4, [[1, Cyc.zeta(4)], [Cyc.zeta(4), -1]])],
                       "generators must be invertible"),
    "two-fields": ([Matrix.identity(2, 4), Matrix.identity(2, 6)],
                   "generators must share one dimension and scalar order"),
}


@pytest.mark.parametrize("name", REFUSED_GENERATORS)
def test_bad_generators_are_refused_before_any_row_product(monkeypatch, name):
    # row_times reads the order and the shapes off the matrix it is given
    # and checks neither; the enumeration, its one caller on matrices read
    # from input, checks the generators before its first row product
    generators, message = REFUSED_GENERATORS[name]
    calls = []
    monkeypatch.setattr(groups, "row_times", lambda *args: calls.append(args))
    with pytest.raises(ValueError) as info:
        enumerate_group(generators)
    assert str(info.value) == message and calls == []


def test_enumerate_bound():
    with pytest.raises(RuntimeError):
        enumerate_group([mat(1, [[1, 1], [0, 1]])], bound=50)


def test_mult_table_and_words():
    g = klein_four()
    for i in range(4):
        for j in range(4):
            assert g.matrices[g.mult_table[i][j]] == matmul(g.matrices[i], g.matrices[j])
    assert resolve_word(g, "e") == 0
    assert resolve_word(g, "g1*g2") == 3
    assert resolve_word(g, "g2*g1") == 3
    assert resolve_word(g, 2) == 2
    assert resolve_word(g, "2") == 2
    with pytest.raises(ValueError):
        resolve_word(g, "h1")


def brute_force_tables(g):
    """Multiplication table, inverses, conjugacy classes, the centralizer
    of each class's least element r, and for each element k the first h
    with h^-1 r h = k, from matrix products alone."""
    mats = [g.matrices[i] for i in range(len(g))]
    index = {m: i for i, m in enumerate(mats)}
    ident = Matrix.identity(g.dim, g.scalar_order)
    table = [[index[matmul(a, b)] for b in mats] for a in mats]
    inverses = [next(j for j, b in enumerate(mats) if matmul(a, b) == ident) for a in mats]
    classes = []
    centralizers = []
    conjugators = {}
    for i, a in enumerate(mats):
        if any(i in cls for cls in classes):
            continue
        classes.append(tuple(sorted({index[matmul(h, a, mats[inverses[k]])]
                                     for k, h in enumerate(mats)})))
        centralizers.append(tuple(k for k, h in enumerate(mats)
                                  if matmul(h, a) == matmul(a, h)))
        for k, h in enumerate(mats):
            conjugators.setdefault(index[matmul(mats[inverses[k]], a, h)], k)
    return table, inverses, classes, centralizers, tuple(conjugators[k] for k in range(len(g)))


def closure(elements, table):
    """The subgroup generated by elements: products of pairs, added until
    nothing new appears."""
    out = {0, *elements}
    while True:
        more = out | {table[a][b] for a in out for b in out}
        if more == out:
            return out
        out = more


def test_the_three_copies_of_the_rotation_pair_are_identical():
    # perfbench/make_data.py copies fixtures/rotation_pair_k5_z6.json to
    # rot.json, and the package ships the same file as an example
    copies = [ROOT / "fixtures" / "rotation_pair_k5_z6.json",
              EXAMPLES / "rotation_pair_k5_z6.json", GROUP_DATA / "rot.json"]
    assert len({path.read_bytes() for path in copies}) == 1


def test_mult_data_matches_matrix_products():
    groups = dict(fixture_groups())
    for name, path in GROUP_FILES.items():
        groups[name] = load_group_file(str(path))[0]
    assert len(groups["s4"]) == 24 and len(groups["s5"]) == 120
    for name, g in groups.items():
        table, inverses, classes, centralizers, conjugators = brute_force_tables(g)
        assert g.mult_table == tuple(map(tuple, table)), name
        assert g.inverses == tuple(inverses), name
        assert g.conj_classes == tuple(classes), name
        assert g.centralizers == tuple(centralizers), name
        assert g.conjugators == conjugators, name
        for cls in g.conj_classes:
            assert g.conjugators[cls[0]] == 0, name
            for k in cls:
                a = g.conjugators[k]
                assert g.mult_table[g.mult_table[g.inverses[a]][cls[0]]][a] == k, (name, k)
        # each generator of a centralizer lies in it and is new: not in
        # the subgroup the ones kept before it generate; together they
        # generate all of it
        assert len(g.centralizer_gens) == len(centralizers), name
        for cent, gens in zip(centralizers, g.centralizer_gens):
            kept = set()
            for s in gens:
                assert s in cent, (name, s)
                assert s not in closure(kept, table), (name, s)
                kept.add(s)
            assert closure(kept, table) == set(cent), name


def symmetric_generators(n):
    """A transposition and an n-cycle, permuting the coordinates of k^n."""
    def permutation(images):
        return mat(1, [[int(images[i] == j) for j in range(n)] for i in range(n)])
    return [permutation([1, 0, *range(2, n)]), permutation([*range(1, n), 0])]


def dense_conjugate(n):
    """U^-1 s U for the generators s of symmetric_generators(n), U
    unipotent with (-1)^(i+j) above the diagonal: a dense action of S_n."""
    u, u_inv = alternating_unipotent(n, 1)
    return [matmul(u_inv, s, u) for s in symmetric_generators(n)]


DENSE = {"s4-dense": 4, "s5-dense": 5}
ENUMERATED = [*fixture_groups(), *GROUP_FILES, *DENSE]


def enumerated_generators(name):
    """The generators of a fixture group, a group file or a dense S4 or S5."""
    if name in DENSE:
        return dense_conjugate(DENSE[name])
    group = (fixture_groups()[name] if name not in GROUP_FILES
             else load_group_file(str(GROUP_FILES[name]))[0])
    return [group.matrices[i] for i in group.generator_indices]


def test_dense_conjugates_are_dense_and_faithful():
    for name, n in DENSE.items():
        gens = enumerated_generators(name)
        assert any(sum(map(bool, r)) > 1 for g in gens for r in g.rows), name
        assert len(enumerate_group(gens)) == factorial(n), name


@pytest.mark.parametrize("name", ENUMERATED)
def test_interned_rows_give_the_tables_of_whole_matrix_products(name):
    gens = enumerated_generators(name)
    for names in (None, [f"s{j}" for j in range(1, len(gens) + 1)]):
        got = enumerate_group(gens, names=names)
        want = enumerate_by_whole_products(gens, names=names)
        for table in Group.__slots__[:-1]:
            assert getattr(got, table) == getattr(want, table), (name, names, table)


@pytest.mark.parametrize("name", [*fixture_groups(), *GROUP_FILES])
def test_action_pairs_are_built_once_from_the_tables(name):
    # every fixture group, example group file and benchmark group
    group = (fixture_groups()[name] if name not in GROUP_FILES
             else load_group_file(str(GROUP_FILES[name]))[0])
    mats, inverses = group.matrices, group.inverses
    assert group.actions == tuple((mats[i], mats[inverses[i]]) for i in range(len(group)))
    for i, (h, h_inv) in enumerate(group.actions):
        # the group's own matrices, so actions read the caches on them
        assert h is mats[i] and h_inv is mats[inverses[i]], (name, i)


def count_row_products(monkeypatch, generators):
    """The group of generators and the number of row_times calls that
    enumerating it makes."""
    calls = []

    def counted(*args):
        calls.append(args)
        return row_times(*args)
    monkeypatch.setattr(groups, "row_times", counted)
    return enumerate_group(generators), len(calls)


def test_permutation_s5_multiplies_five_rows_by_two_generators(monkeypatch):
    # 10 row products, where whole products would be 120 * 2 = 240
    group, count = count_row_products(monkeypatch, symmetric_generators(5))
    assert len(group) == 120 and count == 10


@pytest.mark.parametrize("name", ENUMERATED)
def test_each_distinct_row_meets_each_generator_at_most_once(monkeypatch, name):
    gens = enumerated_generators(name)
    group, count = count_row_products(monkeypatch, gens)
    distinct = {r for m in group.matrices for r in m.rows}
    assert count <= len(distinct) * len(gens), name


def test_symmetric_two_conjugacy():
    swap = mat(1, [[0, 1], [1, 0]])
    g = enumerate_group([swap, diag(1, -1, -1)])
    assert len(g) == 4
    sizes = sorted(len(c) for c in g.conj_classes)
    assert sum(sizes) == 4


def bases(group, g):
    """The fixed and moved bases of g: the first n - codim and the last
    codim columns of its adapted basis."""
    geo = geometry(group, g)
    cols = list(zip(*geo.adapted.rows))
    return cols[:group.dim - geo.codim], cols[group.dim - geo.codim:]


def split_group(name):
    """A fixture group, a benchmark group file, or a dense conjugate of
    one ("dense:<file stem>") by the alternating unipotent matrix."""
    if name in fixture_groups():
        return fixture_groups()[name]
    if name.startswith("dense:"):
        group = load_group_file(str(GROUP_FILES[name[len("dense:"):]]))[0]
        return conjugate_group(group, *alternating_unipotent(group.dim, group.scalar_order))
    return load_group_file(str(GROUP_FILES[name]))[0]


@pytest.mark.parametrize("name", [*fixture_groups(), "d4", "d5", "rot", "s4", "s5",
                                  "dense:d5", "dense:s4_a3_root_basis_k3"])
def test_geometry_splits_v_into_fixed_vectors_and_the_echelonized_image(name):
    # the split read off one echelon form of [(1-g)^T | 1]: g fixes the
    # first n - codim columns of adapted, the last codim are the
    # echelonized basis of (1-g)V that image_basis gives, and dual_change
    # is the inverse of adapted
    group = split_group(name)
    ident = Matrix.identity(group.dim, group.scalar_order)
    for g, a in enumerate(group.matrices):
        geo = geometry(group, g)
        fixed, moved = bases(group, g)
        assert all(matvec(a, v) == v for v in fixed), (name, g)
        assert moved == image_basis(one_minus(a)), (name, g)
        assert matmul(geo.dual_change, geo.adapted) == ident, (name, g)
        assert geo.codim == rank(one_minus(a)), (name, g)


@pytest.mark.parametrize("dense", [False, True], ids=["plain", "dense"])
@pytest.mark.parametrize("name", [*GROUP_FILES, *REFLECTION_CASES],
                         ids=[*GROUP_FILES, *(f"G{case}" for case in REFLECTION_CASES)])
def test_one_minus_columns_are_the_columns_of_one_minus_g(name, dense):
    # every element of the example and benchmark groups, of the G(m, p, n)
    # that test_reflection_groups checks, and of their dense conjugates
    if name in GROUP_FILES:
        group = load_group_file(str(GROUP_FILES[name]))[0]
    else:
        group = imprimitive_reflection_group(*name)
    if dense:
        group = conjugate_group(group, *alternating_unipotent(group.dim, group.scalar_order))
    zero = Cyc.zero(group.scalar_order)
    for g, a in enumerate(group.matrices):
        got = one_minus_columns(a)
        assert all(v for col in got for v in col.values()), (name, g)
        assert [tuple(col.get(j, zero) for j in range(group.dim)) for col in got] == list(
            zip(*one_minus(a).rows)), (name, g)


def test_geometry_is_computed_once_per_group():
    g = klein_four()
    assert geometry(g, 3) is geometry(g, 3)
    fresh = klein_four()
    assert geometry(fresh, 3) is not geometry(g, 3)
    assert geometry(fresh, 3).dual_change == geometry(g, 3).dual_change


def test_geometry_identity():
    g = klein_four()
    geo = geometry(g, 0)
    assert geo.codim == 0
    assert bases(g, 0)[1] == []
    assert volume_form(g, 0) == Polyvector.term(1, (0, 0, 0), (), 1)


def test_geometry_sign_flip():
    g = klein_four()
    geo = geometry(g, 1)
    assert geo.codim == 1
    assert volume_form(g, 1) == Polyvector.term(1, (0, 0, 0), (0,), 1)
    assert [list(v) for v in bases(g, 1)[1]] == [[Cyc.one(1), Cyc.zero(1), Cyc.zero(1)]]
    geo3 = geometry(g, 3)
    assert geo3.codim == 2
    assert volume_form(g, 3) == Polyvector.term(1, (0, 0, 0), (0, 2), 1)


def test_geometry_swap_action():
    swap = mat(1, [[0, 1], [1, 0]])
    g = enumerate_group([swap])
    geo = geometry(g, 1)
    assert geo.codim == 1
    # moved line is spanned by (1,-1); its dual covector is (x1-x2)/2,
    # normalized to leading coefficient 1
    assert volume_form(g, 1) == (Polyvector.term(1, (0, 0), (0,), 1)
                                 - Polyvector.term(1, (0, 0), (1,), 1))
    assert span_equal(bases(g, 1)[0], [(Cyc.one(1), Cyc.one(1))], 1)


def test_geometry_splitting_invariants():
    swap3 = mat(1, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    g = enumerate_group([swap3, diag(1, -1, -1, 1)])
    for i in range(len(g)):
        fixed, moved = bases(g, i)
        assert rank(geometry(g, i).adapted) == g.dim
        m = g.matrices[i]
        assert all(matvec(m, v) == v for v in fixed)
        inv_fixed, inv_moved = bases(g, g.inverses[i])
        assert span_equal(fixed, inv_fixed, 1)
        assert span_equal(moved, inv_moved, 1)


def wedge_of_moved_rows(group, g):
    """omega_g built as the wedge of the moved dual coordinates, the last
    codim rows of dual_change, scaled so its first coefficient is 1."""
    geo = geometry(group, g)
    n, order = group.dim, group.scalar_order
    const = (0,) * n
    out = Polyvector.term(1, const, (), order)
    for row in geo.dual_change.rows[n - geo.codim:]:
        covector = Polyvector.zero(n, order)
        for j, c in enumerate(row):
            covector = covector + Polyvector.term(c, const, (j,), order)
        out = out.wedge(covector)
    return out * out.terms[min(out.terms)].terms[const].inverse()


@pytest.mark.parametrize("name", [*fixture_groups(), *GROUP_FILES])
def test_omega_is_the_wedge_of_the_moved_dual_rows(name):
    if name in fixture_groups():
        group = fixture_groups()[name]
    else:
        group, _ = load_group_file(str(GROUP_FILES[name]))
    for g in range(len(group)):
        assert volume_form(group, g) == wedge_of_moved_rows(group, g), (name, g)


@pytest.mark.parametrize("name", ["s5", "rot"])
def test_geometry_computes_no_minors(name):
    # omega_g is built only where it is shown, so the splitting alone
    # expands no minor of either change of basis
    group, _ = load_group_file(str(GROUP_FILES[name]))
    for g in range(len(group)):
        geo = geometry(group, g)
        assert not geo.adapted.minors, (name, g)
        assert not geo.dual_change.minors, (name, g)


def conjugate_geometry_check(group, g, h):
    """Whether h carries the splitting of g to the splitting of h g h^-1;
    the bracket moves each computed pair to its conjugates by this."""
    order = group.scalar_order
    fixed_g, moved_g = bases(group, g)
    mult = group.mult_table
    fixed_c, moved_c = bases(group, mult[mult[h][g]][group.inverses[h]])
    hmat = group.matrices[h]
    push_fixed = [matvec(hmat, v) for v in fixed_g]
    push_moved = [matvec(hmat, v) for v in moved_g]
    return (span_equal(push_fixed, fixed_c, order)
            and span_equal(push_moved, moved_c, order))


def test_conjugate_geometry():
    swap3 = mat(1, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    groups = {"swap3": enumerate_group([swap3, diag(1, -1, -1, 1)])}
    for name in ("s4", "d4", "d5", "rot"):
        groups[name] = load_group_file(str(GROUP_DATA / f"{name}.json"))[0]
    for name, g in groups.items():
        for i in range(len(g)):
            for j in range(len(g)):
                assert conjugate_geometry_check(g, i, j), (name, i, j)


def test_euler_field_equivariance_over_group():
    swap3 = mat(1, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    g = enumerate_group([swap3, diag(1, -1, -1, 1)])
    for i in range(len(g)):
        for j in range(len(g)):
            k = g.mult_table[g.mult_table[g.inverses[j]][i]][j]
            lhs = act(euler_field(g.matrices[i]), [g.actions[j]])
            assert lhs == euler_field(g.matrices[k])


def test_codim_subadditive():
    swap3 = mat(1, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    g = enumerate_group([swap3, diag(1, -1, 1, -1)])
    for i in range(len(g)):
        for j in range(len(g)):
            cij = geometry(g, g.mult_table[i][j]).codim
            assert cij <= geometry(g, i).codim + geometry(g, j).codim
