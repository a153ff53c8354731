"""Tests for group-decorated polyvector cochains: differential, group
action, averaging, reduction, and the cohomology basis builders."""

from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from helpers import mat, trivial_group_k
from skewbrack.scalars import Cyc
from skewbrack.linalg import Matrix
from skewbrack.polyvec import Poly, Polyvector, act, euler_field
from skewbrack.groups import Group, enumerate_group, resolve_word
from skewbrack.cochain import (
    Cochain,
    act_cochain,
    ambient_keys,
    centralizer_reynolds,
    cohomology_basis,
    cohomology_dim_character,
    cohomology_dim_direct,
    differential,
    is_coboundary,
    is_cocycle,
    is_invariant,
    is_reduced,
    project,
    reynolds,
    support_codim,
)
from skewbrack.cli import load_group_file
from skewbrack.fixtures import (
    fixture_groups,
    klein_bracket_pair,
    klein_signs_k3,
    plane_rotation_pair_k5,
    sign_group_k1,
    sign_line_k2,
    swap_group_k2,
)

GROUP_DATA = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "groups"
S4_ROOT_BASIS = Path(__file__).resolve().parent.parent / "fixtures" / "s4_a3_root_basis_k3.json"


# ---------------------------------------------------------------- euler


def test_euler_identity_is_zero():
    group = sign_line_k2()
    assert euler_field(group.matrix(0)).is_zero()


def test_euler_sign_flip():
    group = sign_line_k2()
    g = resolve_word(group, "g1")
    want = Polyvector.term(2, (1, 0), (0,), 1)
    assert euler_field(group.matrix(g)) == want


def test_euler_rotation_on_k5():
    group = plane_rotation_pair_k5(3, 2)
    s = resolve_word(group, "g1")
    e = euler_field(group.matrix(s))
    z = Cyc.zeta(6, 2)  # primitive cube root of unity
    one = Cyc.one(6)
    want = (Polyvector.term(one - z, (1, 0, 0, 0, 0), (0,), 6)
            + Polyvector.term(one - z * z, (0, 1, 0, 0, 0), (1,), 6))
    assert e == want


# --------------------------------------------------------- differential


def test_differential_of_degree_zero():
    group = sign_line_k2()
    g = resolve_word(group, "g1")
    c = Cochain.single(group, g, Polyvector.term(1, (0, 0), (), 1))
    dc = differential(c)
    assert dc.degree == 1
    assert dc.component(g) == Polyvector.term(2, (1, 0), (0,), 1)
    assert not is_cocycle(c)


def test_differential_squares_to_zero():
    group = klein_signs_k3()
    comps = {
        resolve_word(group, "g1"): Polyvector.term(3, (1, 2, 0), (1,), 1),
        resolve_word(group, "g1*g2"): Polyvector.term(1, (0, 1, 1), (0,), 1)
        + Polyvector.term(-2, (2, 0, 0), (2,), 1),
    }
    c = Cochain(group, 1, comps)
    assert differential(differential(c)).is_zero()


def test_cocycle_detection():
    group = sign_group_k1()
    g = resolve_word(group, "g1")
    # wedge contains the moved direction, so the euler factor dies
    c = Cochain.single(group, g, Polyvector.term(1, (0,), (0,), 1))
    assert is_cocycle(c)


def test_degree_mismatch_rejected():
    group = sign_group_k1()
    with pytest.raises(ValueError):
        Cochain(group, 2, {0: Polyvector.term(1, (0,), (0,), 1)})


# --------------------------------------------------------------- action


def test_act_moves_component_to_conjugate():
    group, x, _, _ = klein_bracket_pair()
    g = resolve_word(group, "g1")
    h = resolve_word(group, "g2")
    moved = act_cochain(x, h)
    # abelian group: the component stays at g, picking up the minor sign
    assert moved.support() == [g]
    assert moved == x  # d1^d2 is untouched by diag(1,1,-1)
    flipped = act_cochain(x, g)
    assert flipped == -x  # diag(-1,1,1) negates d1


def test_act_is_right_action():
    group = klein_signs_k3()
    c = Cochain.single(group, resolve_word(group, "g2"),
                       Polyvector.term(1, (1, 0, 2), (0, 2), 1))
    for a in range(len(group)):
        for b in range(len(group)):
            lhs = act_cochain(act_cochain(c, a), b)
            rhs = act_cochain(c, group.mult(a, b))
            assert lhs == rhs


def invariant_under_every_element(c):
    return all(act_cochain(c, h) == c for h in range(len(c.group)))


def s3_permuting_k3():
    swap = mat(1, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    cycle = mat(1, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    return enumerate_group([swap, cycle])


def dihedral_k2():
    """The symmetries of the square: a reflection, then a rotation."""
    reflection = mat(1, [[1, 0], [0, -1]])
    rotation = mat(1, [[0, -1], [1, 0]])
    return enumerate_group([reflection, rotation])


def test_invariance_on_generators_agrees_with_every_element():
    for group, first_only in (
        (s3_permuting_k3(), Poly(3, 1, {(1, 0, 0): 1, (0, 1, 0): 1})),  # x1 + x2
        (dihedral_k2(), Poly.variable(0, 2, 1)),  # x1
    ):
        n = group.dim
        g1, g2 = group.generator_indices
        c = Cochain.single(group, 0, Polyvector(n, 1, {(): first_only}))
        assert act_cochain(c, g1) == c and act_cochain(c, g2) != c
        assert not is_invariant(c)
        cases = [c]
        for g in range(len(group)):
            for idx in ((), (0,), (0, 1)):
                c = Cochain.single(group, g, Polyvector.term(1, (1,) * n, idx, 1))
                cases += [c, reynolds(c)]
        verdicts = [is_invariant(c) for c in cases]
        assert verdicts == [invariant_under_every_element(c) for c in cases]
        assert any(verdicts) and not all(verdicts)


def test_act_commutes_with_differential():
    group = swap_group_k2()
    c = Cochain.single(group, 1, Polyvector.term(1, (2, 0), (1,), 1))
    h = 1
    assert act_cochain(differential(c), h) == differential(act_cochain(c, h))


# ------------------------------------------------------------- reynolds


def test_reynolds_idempotent_and_invariant():
    group = klein_signs_k3()
    c = Cochain.single(group, resolve_word(group, "g1"),
                       Polyvector.term(1, (0, 2, 1), (0, 1), 1))
    r = reynolds(c)
    assert is_invariant(r)
    assert reynolds(r) == r


def test_reynolds_fixes_invariants():
    group, x, y, _ = rotation_pair_cached()
    assert reynolds(x) == x
    assert reynolds(y) == y


def test_reynolds_kills_odd_classes():
    group, x, y, _ = klein_bracket_pair()
    assert reynolds(x).is_zero()
    assert reynolds(y).is_zero()


_AVERAGED_GROUPS = {}


def averaged_group(name):
    if name not in _AVERAGED_GROUPS:
        _AVERAGED_GROUPS[name] = load_group_file(str(GROUP_DATA / f"{name}.json"))[0]
    return _AVERAGED_GROUPS[name]


@st.composite
def random_cochain(draw):
    """A cochain on S4, D5 or S5 with a few random terms of one exterior
    degree and random components, with cyclotomic coefficients on D5."""
    group = averaged_group(draw(st.sampled_from(["s4", "d5", "s5"])))
    n, order = group.dim, group.scalar_order
    p = draw(st.integers(0, 2))
    wedges = list(combinations(range(n), p))
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        g = draw(st.integers(0, len(group) - 1))
        coeff = Cyc.zeta(order, draw(st.integers(0, order - 1))) * draw(st.sampled_from([-2, -1, 1, 3]))
        pv = Polyvector.term(coeff, draw(st.tuples(*[st.integers(0, 2)] * n)),
                             draw(st.sampled_from(wedges)), order)
        terms[g] = terms[g] + pv if g in terms else pv
    return Cochain(group, p, terms)


@given(random_cochain())
@settings(max_examples=30, deadline=None)
def test_reynolds_is_the_group_average(c):
    group = c.group
    total = Cochain.zero(group, c.degree)
    for h in range(len(group)):
        total = total + act_cochain(c, h)
    r = reynolds(c)
    assert r == total * Cyc.of(Fraction(1, len(group)), group.scalar_order)
    assert is_invariant(r)


_ROTATION_PAIR = None


def rotation_pair_cached():
    global _ROTATION_PAIR
    if _ROTATION_PAIR is None:
        from skewbrack.fixtures import rotation_bracket_pair
        _ROTATION_PAIR = rotation_bracket_pair(2, 2)
    return _ROTATION_PAIR


# -------------------------------------------------------------- project


def test_project_kills_moved_polynomial():
    group = sign_group_k1()
    g = resolve_word(group, "g1")
    c = Cochain.single(group, g, Polyvector.term(1, (1,), (0,), 1))
    assert project(c).is_zero()


def test_project_keeps_reduced_class():
    group = sign_group_k1()
    g = resolve_word(group, "g1")
    c = Cochain.single(group, g, Polyvector.term(1, (0,), (0,), 1))
    assert project(c) == c
    assert is_reduced(c)


def test_project_drops_wedge_missing_moved_direction():
    group = sign_line_k2()
    g = resolve_word(group, "g1")
    # d2 does not contain the moved direction d1
    c = Cochain.single(group, g, Polyvector.term(1, (0, 0), (1,), 1))
    assert project(c).is_zero()
    keep = Cochain.single(group, g, Polyvector.term(1, (0, 1), (0,), 1))
    assert project(keep) == keep


def test_project_identity_component_untouched():
    group = sign_line_k2()
    c = Cochain.single(group, 0, Polyvector.term(5, (3, 1), (0, 1), 1))
    assert project(c) == c


def test_project_idempotent_and_kills_coboundaries():
    group = swap_group_k2()
    pieces = [
        Cochain.single(group, 0, Polyvector.term(2, (1, 1), (0,), 1)),
        Cochain.single(group, 1, Polyvector.term(1, (1, 0), (0,), 1)),
        Cochain.single(group, 1, Polyvector.term(-3, (0, 0), (1,), 1)),
    ]
    for c in pieces:
        p = project(c)
        assert project(p) == p
        assert project(differential(c)).is_zero()


def test_project_commutes_with_action():
    group = plane_rotation_pair_k5(3, 2)
    s = resolve_word(group, "g1")
    c = Cochain.single(group, s, Polyvector.term(1, (0, 1, 1, 0, 0), (0, 1), 6)
                       + Polyvector.term(1, (1, 0, 0, 0, 0), (0, 3), 6))
    for h in range(len(group)):
        assert project(act_cochain(c, h)) == act_cochain(project(c), h)


def test_project_on_swap_uses_adapted_coordinates():
    group = swap_group_k2()
    g = 1
    # x1*d1 decomposes over the diagonal/antidiagonal; only the piece with
    # fixed-variable coefficient and antidiagonal wedge factor survives
    c = Cochain.single(group, g, Polyvector.term(1, (1, 0), (0,), 1))
    p = project(c).component(g)
    quarter = Fraction(1, 4)
    want = (Polyvector.term(quarter, (1, 0), (0,), 1)
            + Polyvector.term(quarter, (0, 1), (0,), 1)
            + Polyvector.term(-quarter, (1, 0), (1,), 1)
            + Polyvector.term(-quarter, (0, 1), (1,), 1))
    assert p == want


def test_support_codim_is_the_largest_codim_in_the_support():
    group = klein_signs_k3()
    g1, g1g2 = resolve_word(group, "g1"), resolve_word(group, "g1*g2")
    d1 = Polyvector.term(1, (0, 0, 0), (0,), 1)
    assert support_codim(Cochain.zero(group, 1)) == 0
    assert support_codim(Cochain.single(group, g1, d1)) == 1
    assert support_codim(Cochain(group, 1, {g1: d1, g1g2: d1})) == 2


# --------------------------------------------------------- is_coboundary


def test_is_coboundary_zero():
    group = sign_line_k2()
    flag, witness = is_coboundary(Cochain.zero(group, 2))
    assert flag
    assert witness.is_zero() and witness.degree == 1


def test_is_coboundary_requires_cocycle():
    group = sign_line_k2()
    g = resolve_word(group, "g1")
    c = Cochain.single(group, g, Polyvector.term(1, (0, 0), (), 1))
    with pytest.raises(ValueError):
        is_coboundary(c)


def test_is_coboundary_finds_witness():
    group = sign_line_k2()
    g = resolve_word(group, "g1")
    c = Cochain.single(group, g, Polyvector.term(1, (2, 1), (), 1))
    dc = differential(c)
    flag, witness = is_coboundary(dc)
    assert flag
    assert differential(witness) == dc


def test_reduced_class_is_not_coboundary():
    group = sign_group_k1()
    g = resolve_word(group, "g1")
    c = Cochain.single(group, g, Polyvector.term(1, (0,), (0,), 1))
    flag, witness = is_coboundary(c)
    assert not flag and witness is None


def test_invariant_coboundary_gets_invariant_witness():
    group = swap_group_k2()
    c = reynolds(Cochain.single(group, 1, Polyvector.term(1, (2, 0), (), 1)))
    dc = differential(c)
    assert is_invariant(dc)
    flag, witness = is_coboundary(dc)
    assert flag
    assert is_invariant(witness)
    assert differential(witness) == dc


# ----------------------------------------------------- cohomology bases


def test_trivial_group_dimension_formula():
    for n in (1, 2, 3):
        group = trivial_group_k(n)
        for p in range(n + 1):
            for m in range(3):
                want = comb(m + n - 1, n - 1) * comb(n, p)
                basis = cohomology_basis(group, p, m)
                assert len(basis) == want
                assert cohomology_dim_direct(group, p, m) == want


def test_sign_k1_cohomology_table():
    group = sign_group_k1()
    table = {}
    for p in range(2):
        for m in range(4):
            table[(p, m)] = len(cohomology_basis(group, p, m))
    assert table == {
        (0, 0): 1, (0, 1): 0, (0, 2): 1, (0, 3): 0,
        (1, 0): 0, (1, 1): 1, (1, 2): 0, (1, 3): 1,
    }


def test_neg_identity_k2_has_volume_class():
    from skewbrack.fixtures import neg_identity_k2
    group = neg_identity_k2()
    basis = cohomology_basis(group, 2, 0)
    flip = resolve_word(group, "g1")
    assert len(basis) == 2  # d1^d2 at the identity and at -1
    supports = sorted(c.support() for c in basis)
    assert supports == [[0], [flip]]


def test_basis_elements_are_invariant_reduced_cocycles():
    for name, group in fixture_groups().items():
        if group.dim > 3:
            continue
        for p in range(group.dim + 1):
            for m in range(3):
                for c in cohomology_basis(group, p, m):
                    assert is_cocycle(c), (name, p, m)
                    assert is_invariant(c), (name, p, m)
                    assert is_reduced(c), (name, p, m)
                    assert not is_coboundary(c)[0], (name, p, m)


def test_basis_matches_direct_dimension_small():
    for name, group in fixture_groups().items():
        if group.dim > 3:
            continue
        for p in range(group.dim + 1):
            for m in range(3):
                assert (len(cohomology_basis(group, p, m))
                        == cohomology_dim_direct(group, p, m)), (name, p, m)


def test_basis_matches_direct_dimension_nonabelian_cyclotomic():
    # the direct count shares no reduced-subspace code with the basis, so
    # check it where the paper needs it: nonabelian groups, non-diagonal
    # actions and cyclotomic fields
    groups = {"s3": s3_permuting_k3(), "square": dihedral_k2()}
    for name in ("d4", "d5"):
        groups[name] = load_group_file(str(GROUP_DATA / f"{name}.json"))[0]
    assert [g.scalar_order for g in groups.values()] == [1, 1, 4, 5]
    for name, group in groups.items():
        for p in range(group.dim + 1):
            for m in range(3):
                assert (len(cohomology_basis(group, p, m))
                        == cohomology_dim_direct(group, p, m)), (name, p, m)


def assert_three_counts_agree(group, pieces, direct=lambda p, m: True):
    for p, m in pieces:
        count = cohomology_dim_character(group, p, m)
        assert len(cohomology_basis(group, p, m)) == count, (p, m)
        if direct(p, m):
            assert cohomology_dim_direct(group, p, m) == count, (p, m)


def zeta3_diagonal(*powers):
    return Matrix(3, [[Cyc.zeta(3, k) if i == j else Cyc.zero(3)
                       for j in range(len(powers))] for i, k in enumerate(powers)])


@pytest.mark.parametrize("powers", [
    [(1,)], [(1, 0)], [(1, 1)], [(1, 2, 0), (1, 0, 1)],
], ids=["z3-k1", "z3-k2-zeta-1", "z3-k2-zeta-zeta", "z3xz3-k3"])
def test_character_count_agrees_over_zeta3(powers):
    # these characters are not real, so unlike every self-dual group they
    # tell h from h^-1: swapping the convention on any factor of the
    # character count, other than all three at once, fails on one of them
    group = enumerate_group([zeta3_diagonal(*k) for k in powers])
    n = group.dim
    assert_three_counts_agree(group, [(p, m) for p in range(n + 1) for m in range(3)])


@pytest.mark.parametrize("name", ["d4", "d5", "rot", "s4"])
def test_character_count_agrees_on_nonabelian_groups(name):
    group = load_group_file(str(GROUP_DATA / f"{name}.json"))[0]
    n = group.dim
    assert_three_counts_agree(group, [(p, m) for p in range(min(n, 3) + 1)
                                      for m in range(3 if n <= 3 else 2)])


def test_character_count_agrees_on_s5():
    # the direct count takes over a second on the m = 3 pieces
    group = load_group_file(str(GROUP_DATA / "s5.json"))[0]
    assert_three_counts_agree(group, [(p, m) for p in range(4) for m in range(4)],
                              direct=lambda p, m: m <= 2)


def test_character_count_agrees_on_k5():
    group = fixture_groups()["two-sign-pairs-k5"]
    assert_three_counts_agree(group, [(p, m) for p in range(4) for m in range(4)])


def test_character_count_agrees_on_a_non_monomial_group():
    # S4 as the Weyl group of A3 in the root basis: its reflections have
    # two nonzero entries in a column, so monomial images and minors
    # expand to several terms, which no permutation or diagonal action has
    group = load_group_file(str(S4_ROOT_BASIS))[0]
    assert any(sum(1 for e in col if e) > 1
               for a in group.matrices for col in zip(*a.rows))
    assert_three_counts_agree(group, [(p, m) for p in range(4) for m in range(4)])


def test_character_count_rejects_bad_degree_and_a_wrong_centralizer():
    group = sign_group_k1()
    with pytest.raises(ValueError):
        cohomology_dim_character(group, 2, 0)
    # the identity's centralizer listed as (e, g1, g1): the class term at
    # (0, 1) is (1 - 1 - 1)/3, which no group gives
    fields = [getattr(group, name) for name in Group.__slots__[:-1]]
    fields[Group.__slots__.index("centralizers")] = ((0, 1, 1), (0, 1))
    with pytest.raises(ArithmeticError, match="not a nonnegative integer"):
        cohomology_dim_character(Group(*fields), 0, 1)


def test_centralizer_reynolds_is_the_centralizer_average():
    # one act call over the whole centralizer equals (1/|C|) times the sum
    # of single actions, and every element of C fixes the result
    nonzero = 0
    for name in ("s4", "d5"):
        group = load_group_file(str(GROUP_DATA / f"{name}.json"))[0]
        n, order = group.dim, group.scalar_order
        for p, m in ((0, 2), (1, 1), (2, 1)):
            pv = Polyvector.zero(n, order)
            for k, (idx, exps) in enumerate(ambient_keys(n, p, m)):
                pv = pv + Polyvector.term(k + 1, exps, idx, order)
            for cls, cent in zip(group.conj_classes, group.centralizers):
                g = cls[0]
                avg = centralizer_reynolds(group, pv, cent)
                total = Polyvector.zero(n, order)
                for h in cent:
                    total = total + act(pv, [group.action(h)])
                assert avg == total * Cyc.of(Fraction(1, len(cent)), order), (name, g)
                nonzero += not avg.is_zero()
                for h in cent:
                    assert act(avg, [group.action(h)]) == avg, (name, g, h)
    assert nonzero


def test_cohomology_rejects_bad_degree():
    group = sign_group_k1()
    with pytest.raises(ValueError):
        cohomology_basis(group, 2, 0)


def test_nonabelian_basis_invariance():
    one, zero = Cyc.one(1), Cyc.zero(1)
    swap3 = Matrix(1, [[zero, one, zero], [one, zero, zero], [zero, zero, one]])
    signs = mat(1, [[-1, 0, 0], [0, 1, 0], [0, 0, 1]])
    group = enumerate_group([swap3, signs])
    assert len(group) == 8  # signed permutations of the first two coordinates
    for p, m in ((1, 1), (2, 0), (2, 1)):
        basis = cohomology_basis(group, p, m)
        assert len(basis) == cohomology_dim_direct(group, p, m)
        for c in basis:
            assert is_invariant(c) and is_reduced(c) and is_cocycle(c)


# ------------------------------------------------- property-based tests


def small_cochains():
    group = sign_line_k2()

    def build(data):
        comps = {}
        for g, coeff, e1, e2, i in data:
            pv = Polyvector.term(coeff, (e1, e2), (i,), 1)
            comps[g] = comps.get(g, Polyvector.zero(2, 1)) + pv
        return Cochain(group, 1, comps)

    entry = st.tuples(st.integers(0, 1), st.integers(-3, 3),
                      st.integers(0, 2), st.integers(0, 2), st.integers(0, 1))
    return st.lists(entry, min_size=0, max_size=4).map(build)


@given(small_cochains())
@settings(max_examples=40, deadline=None)
def test_differential_squared_zero_random(c):
    assert differential(differential(c)).is_zero()


@given(small_cochains())
@settings(max_examples=40, deadline=None)
def test_reynolds_lands_on_invariants_random(c):
    assert is_invariant(reynolds(c))


@given(small_cochains())
@settings(max_examples=40, deadline=None)
def test_project_idempotent_random(c):
    p = project(c)
    assert project(p) == p
    assert is_reduced(p)
