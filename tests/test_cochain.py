"""Tests for group-decorated polyvector cochains: differential, group
action, averaging, reduction, exactness against a linear solve, and the
cohomology basis builders."""

import functools
import random
from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from helpers import (
    alternating_unipotent,
    conjugate_group,
    example_group,
    field_degree,
    mat,
    move_cochain,
    single,
    trivial_group_k,
)
from skewbrack.scalars import Cyc
from skewbrack.linalg import Matrix, solve_membership
from skewbrack.polyvec import Poly, Polyvector, act, euler_field, monomials
from skewbrack.groups import Group, enumerate_group, geometry, resolve_word
from skewbrack.cochain import (
    Cochain,
    act_cochain,
    ambient_keys,
    centralizer_reynolds,
    cohomology_basis,
    cohomology_dim_character,
    cohomology_dim_direct,
    differential,
    is_cocycle,
    is_invariant,
    is_reduced,
    project,
    reynolds,
    support_codim,
)
from skewbrack.cli import load_group_file
from skewbrack.fixtures import EXAMPLES, bracket_pair, fixture_groups

GROUP_DATA = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "groups"
S4_ROOT_BASIS = EXAMPLES / "s4_a3_root_basis_k3.json"
BINARY_TETRAHEDRAL = EXAMPLES / "binary_tetrahedral_k2_z4.json"


# ---------------------------------------------------------------- euler


def test_euler_identity_is_zero():
    group = example_group("sign_line_k2.json")
    assert euler_field(group.matrices[0]).is_zero()


def test_euler_sign_flip():
    group = example_group("sign_line_k2.json")
    g = resolve_word(group, "g1")
    want = Polyvector.term(2, (1, 0), (0,), 1)
    assert euler_field(group.matrices[g]) == want


def test_euler_rotation_on_k5():
    group = example_group("rotation_pair_k5_z6.json")
    s = resolve_word(group, "g1")
    e = euler_field(group.matrices[s])
    z = Cyc.zeta(6, 2)  # primitive cube root of unity
    one = Cyc.one(6)
    want = (Polyvector.term(one - z, (1, 0, 0, 0, 0), (0,), 6)
            + Polyvector.term(one - z * z, (0, 1, 0, 0, 0), (1,), 6))
    assert e == want


# --------------------------------------------------------- differential


def test_differential_of_degree_zero():
    group = example_group("sign_line_k2.json")
    g = resolve_word(group, "g1")
    c = single(group, g, Polyvector.term(1, (0, 0), (), 1))
    dc = differential(c)
    assert dc.degree == 1
    assert dc.terms[g] == Polyvector.term(2, (1, 0), (0,), 1)
    assert not is_cocycle(c)


def test_differential_squares_to_zero():
    group = example_group("klein_signs_k3.json")
    comps = {
        resolve_word(group, "g1"): Polyvector.term(3, (1, 2, 0), (1,), 1),
        resolve_word(group, "g1*g2"): Polyvector.term(1, (0, 1, 1), (0,), 1)
        + Polyvector.term(-2, (2, 0, 0), (2,), 1),
    }
    c = Cochain(group, 1, comps)
    assert differential(differential(c)).is_zero()


@pytest.fixture(scope="module")
def differential_groups():
    groups = dict(fixture_groups())
    groups["d5"] = load_group_file(str(GROUP_DATA / "d5.json"))[0]
    return groups


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_differential_squares_to_zero_on_random_cochains(differential_groups, data):
    # random components of one exterior degree on random elements, with
    # coefficients over the group's field (Q(zeta5) on D5)
    group = differential_groups[data.draw(st.sampled_from(sorted(differential_groups)))]
    n, order = group.dim, group.scalar_order
    p = data.draw(st.integers(0, min(n, 2)))
    comps = {}
    for g in data.draw(st.lists(st.integers(0, len(group.matrices) - 1),
                                min_size=1, max_size=3, unique=True)):
        pv = Polyvector.zero(n, order)
        for _ in range(data.draw(st.integers(1, 3))):
            idx = data.draw(st.permutations(range(n)))[:p]
            exps = data.draw(st.tuples(*([st.integers(0, 2)] * n)))
            coeff = Cyc(order, [Fraction(data.draw(st.integers(-3, 3)), data.draw(st.integers(1, 3)))
                                for _ in range(field_degree(order))])
            pv = pv + Polyvector.term(coeff, exps, idx, order)
        comps[g] = pv
    c = Cochain(group, p, comps)
    assert differential(differential(c)).is_zero()


def test_cocycle_detection():
    group = example_group("sign_k1.json")
    g = resolve_word(group, "g1")
    # wedge contains the moved direction, so the euler factor dies
    c = single(group, g, Polyvector.term(1, (0,), (0,), 1))
    assert is_cocycle(c)


def test_degree_mismatch_rejected():
    group = example_group("sign_k1.json")
    with pytest.raises(ValueError):
        Cochain(group, 2, {0: Polyvector.term(1, (0,), (0,), 1)})


# --------------------------------------------------------------- action


def test_act_moves_component_to_conjugate():
    group, x, _, _ = bracket_pair("klein-signs-k3")
    g = resolve_word(group, "g1")
    h = resolve_word(group, "g2")
    moved = act_cochain(x, h)
    # abelian group: the component stays at g, picking up the minor sign
    assert sorted(moved.terms) == [g]
    assert moved == x  # d1^d2 is untouched by diag(1,1,-1)
    flipped = act_cochain(x, g)
    assert flipped == -x  # diag(-1,1,1) negates d1


def test_act_is_right_action():
    group = example_group("klein_signs_k3.json")
    c = single(group, resolve_word(group, "g2"),
                       Polyvector.term(1, (1, 0, 2), (0, 2), 1))
    for a in range(len(group)):
        for b in range(len(group)):
            lhs = act_cochain(act_cochain(c, a), b)
            rhs = act_cochain(c, group.mult_table[a][b])
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
        (dihedral_k2(), Poly.monomial((1, 0), 1, 1)),  # x1
    ):
        n = group.dim
        g1, g2 = group.generator_indices
        c = single(group, 0, Polyvector(n, 1, {(): first_only}))
        assert act_cochain(c, g1) == c and act_cochain(c, g2) != c
        assert not is_invariant(c)
        cases = [c]
        for g in range(len(group)):
            for idx in ((), (0,), (0, 1)):
                c = single(group, g, Polyvector.term(1, (1,) * n, idx, 1))
                cases += [c, reynolds(c)]
        verdicts = [is_invariant(c) for c in cases]
        assert verdicts == [invariant_under_every_element(c) for c in cases]
        assert any(verdicts) and not all(verdicts)


def test_act_commutes_with_differential():
    group = example_group("swap_k2.json")
    c = single(group, 1, Polyvector.term(1, (2, 0), (1,), 1))
    h = 1
    assert act_cochain(differential(c), h) == differential(act_cochain(c, h))


# ------------------------------------------------------------- reynolds


def test_reynolds_idempotent_and_invariant():
    group = example_group("klein_signs_k3.json")
    c = single(group, resolve_word(group, "g1"),
                       Polyvector.term(1, (0, 2, 1), (0, 1), 1))
    r = reynolds(c)
    assert is_invariant(r)
    assert reynolds(r) == r


def test_reynolds_fixes_invariants():
    group, x, y, _ = rotation_pair_cached()
    assert reynolds(x) == x
    assert reynolds(y) == y


def test_reynolds_kills_odd_classes():
    group, x, y, _ = bracket_pair("klein-signs-k3")
    assert reynolds(x).is_zero()
    assert reynolds(y).is_zero()


@pytest.mark.parametrize("name", ["s4", "d5"])
def test_no_action_by_a_known_identity(name, monkeypatch):
    # reynolds keeps X_r where it is, spread_invariant keeps the average
    # at cls[0], and reduced_basis_at changes no coordinates at the
    # identity, whose adapted basis is the identity matrix: no act call
    # gets a single pair known to be the identity, neither group.actions[0]
    # nor the identity class's geometry pair
    group = load_group_file(str(GROUP_DATA / f"{name}.json"))[0]
    ident = geometry(group, 0)
    known = [(group.matrices[0], group.matrices[0]), (ident.dual_change, ident.adapted)]
    calls = []

    def recording(x, pairs):
        calls.append(pairs)
        return act(x, pairs)

    monkeypatch.setattr("skewbrack.cochain.act", recording)
    basis = [c for p, m in ((0, 1), (1, 1), (2, 0), (2, 1)) for c in cohomology_basis(group, p, m)]
    assert all(reynolds(c) == c for c in basis)
    assert len(basis) > 5 and any(0 in c.terms for c in basis)
    assert len(calls) > 50
    by_identity = [pairs for pairs in calls if len(pairs) == 1
                   and any(pairs[0][0] is h and pairs[0][1] is h_inv for h, h_inv in known)]
    assert not by_identity, len(by_identity)


_LOADED_GROUPS = {}


def loaded_group(path):
    """The group of a group file, loaded once per test session."""
    if path not in _LOADED_GROUPS:
        _LOADED_GROUPS[path] = load_group_file(str(path))[0]
    return _LOADED_GROUPS[path]


@st.composite
def random_cochain(draw):
    """A cochain on S4, D5 or S5 with a few random terms of one exterior
    degree and random components, with cyclotomic coefficients on D5."""
    group = loaded_group(GROUP_DATA / f"{draw(st.sampled_from(['s4', 'd5', 's5']))}.json")
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


@functools.cache
def rotation_pair_cached():
    return bracket_pair("two-sign-pairs-k5")


# -------------------------------------------------------------- project


def test_project_kills_moved_polynomial():
    group = example_group("sign_k1.json")
    g = resolve_word(group, "g1")
    c = single(group, g, Polyvector.term(1, (1,), (0,), 1))
    assert project(c).is_zero()


def test_project_keeps_reduced_class():
    group = example_group("sign_k1.json")
    g = resolve_word(group, "g1")
    c = single(group, g, Polyvector.term(1, (0,), (0,), 1))
    assert project(c) == c
    assert is_reduced(c)


def test_project_drops_wedge_missing_moved_direction():
    group = example_group("sign_line_k2.json")
    g = resolve_word(group, "g1")
    # d2 does not contain the moved direction d1
    c = single(group, g, Polyvector.term(1, (0, 0), (1,), 1))
    assert project(c).is_zero()
    keep = single(group, g, Polyvector.term(1, (0, 1), (0,), 1))
    assert project(keep) == keep


def test_project_identity_component_untouched():
    group = example_group("sign_line_k2.json")
    c = single(group, 0, Polyvector.term(5, (3, 1), (0, 1), 1))
    assert project(c) == c


def test_project_idempotent_and_kills_coboundaries():
    group = example_group("swap_k2.json")
    pieces = [
        single(group, 0, Polyvector.term(2, (1, 1), (0,), 1)),
        single(group, 1, Polyvector.term(1, (1, 0), (0,), 1)),
        single(group, 1, Polyvector.term(-3, (0, 0), (1,), 1)),
    ]
    for c in pieces:
        p = project(c)
        assert project(p) == p
        assert project(differential(c)).is_zero()


def test_project_commutes_with_action():
    group = example_group("rotation_pair_k5_z6.json")
    s = resolve_word(group, "g1")
    c = single(group, s, Polyvector.term(1, (0, 1, 1, 0, 0), (0, 1), 6)
                       + Polyvector.term(1, (1, 0, 0, 0, 0), (0, 3), 6))
    for h in range(len(group)):
        assert project(act_cochain(c, h)) == act_cochain(project(c), h)


def test_project_on_swap_uses_adapted_coordinates():
    group = example_group("swap_k2.json")
    g = 1
    # x1*d1 decomposes over the diagonal/antidiagonal; only the piece with
    # fixed-variable coefficient and antidiagonal wedge factor survives
    c = single(group, g, Polyvector.term(1, (1, 0), (0,), 1))
    p = project(c).terms[g]
    quarter = Fraction(1, 4)
    want = (Polyvector.term(quarter, (1, 0), (0,), 1)
            + Polyvector.term(quarter, (0, 1), (0,), 1)
            + Polyvector.term(-quarter, (1, 0), (1,), 1)
            + Polyvector.term(-quarter, (0, 1), (1,), 1))
    assert p == want


def test_project_kills_a_moved_monomial_under_a_kept_wedge():
    # every wedge of the component contains omega_g, so each is kept, and
    # yet a term goes: a moved variable divides its monomial
    klein = example_group("klein_signs_k3.json")
    g1 = resolve_word(klein, "g1")
    c = single(klein, g1, Polyvector.term(1, (1, 0, 0), (0,), 1)
                       + Polyvector.term(1, (0, 1, 0), (0,), 1))
    assert project(c) == single(klein, g1, Polyvector.term(1, (0, 1, 0), (0,), 1))
    # on the swap, x1 omega with omega = d1 - d2: x1 = (x1 + x2)/2 +
    # (x1 - x2)/2 and only the fixed half stays
    swap = example_group("swap_k2.json")
    half = Fraction(1, 2)
    x1 = Poly.monomial((1, 0), 1, 1)
    mean = Poly(2, 1, {(1, 0): half, (0, 1): half})
    c = single(swap, 1, Polyvector(2, 1, {(0,): x1, (1,): -x1}))
    want = Polyvector(2, 1, {(0,): mean, (1,): -mean})
    assert project(c) == single(swap, 1, want)


@pytest.mark.parametrize("path", [GROUP_DATA / "d4.json", GROUP_DATA / "d5.json",
                                  S4_ROOT_BASIS, BINARY_TETRAHEDRAL], ids=lambda p: p.stem)
def test_project_and_reynolds_commute_with_a_change_to_dense_coordinates(path):
    # a cochain with a component at every element, neither invariant nor
    # reduced, moved to the conjugate of its group by the alternating
    # unipotent U, on which the group acts by dense matrices
    group = load_group_file(str(path))[0]
    n, order = group.dim, group.scalar_order
    u, u_inv = alternating_unipotent(n, order)
    dense = conjugate_group(group, u, u_inv)
    rng = random.Random(path.stem)
    for p in range(min(n, 3) + 1):
        terms = {}
        for g in range(len(group)):
            terms[g] = Polyvector.zero(n, order)
            for _ in range(3):
                idx = tuple(sorted(rng.sample(range(n), p)))
                exps = rng.choice(monomials(n, rng.randint(0, 2)))
                terms[g] = terms[g] + Polyvector.term(rng.choice([-2, -1, 1, 3]), exps, idx, order)
        c = Cochain(group, p, terms)
        projected, averaged = project(c), reynolds(c)
        assert projected != c and averaged != c, (path.stem, p)
        moved = move_cochain(c, dense, u, u_inv)
        assert project(moved) == move_cochain(projected, dense, u, u_inv), (path.stem, p)
        assert reynolds(moved) == move_cochain(averaged, dense, u, u_inv), (path.stem, p)


@pytest.mark.parametrize("name", list(fixture_groups()))
def test_dense_copies_of_the_fixture_groups_count_alike(name):
    # criterion 9's pieces on each fixture group conjugated by the
    # alternating unipotent U: the basis of the conjugate group, its
    # character count and its direct count agree
    group = fixture_groups()[name]
    n = group.dim
    u, u_inv = alternating_unipotent(n, group.scalar_order)
    dense = conjugate_group(group, u, u_inv)
    for p in range(min(n, 3) + 1):
        for m in range(4):
            size = len(cohomology_basis(dense, p, m))
            assert size == cohomology_dim_character(dense, p, m), (p, m)
            assert size == cohomology_dim_direct(dense, p, m), (p, m)


def test_support_codim_is_the_largest_codim_in_the_support():
    group = example_group("klein_signs_k3.json")
    g1, g1g2 = resolve_word(group, "g1"), resolve_word(group, "g1*g2")
    d1 = Polyvector.term(1, (0, 0, 0), (0,), 1)
    assert support_codim(Cochain.zero(group, 1)) == 0
    assert support_codim(single(group, g1, d1)) == 1
    assert support_codim(Cochain(group, 1, {g1: d1, g1g2: d1})) == 2


# --------------------------------------------------------- is_coboundary


def is_coboundary(c):
    """Exact solve of (differential b) = c in the piece one step below.

    The tests' oracle for exactness, which the package decides by
    project alone: it shares no code with project and does not assume
    that each class has one reduced representative.  Returns
    (True, witness) or (False, None).  When c is invariant and
    solvable, the witness is averaged so it is invariant too.  Input must
    be a cocycle, homogeneous in both degrees.
    """
    if not is_cocycle(c):
        raise ValueError("input is not a cocycle")
    group = c.group
    p = c.degree
    if c.is_zero():
        return True, Cochain.zero(group, max(p - 1, 0))
    degrees = {sum(e) for pv in c.terms.values() for poly in pv.terms.values()
               for e in poly.terms}
    if len(degrees) != 1:
        raise ValueError("cochain is not homogeneous in polynomial degree")
    (m,) = degrees
    if p == 0 or m == 0:
        return False, None
    n, order = group.dim, group.scalar_order
    zero = Cyc.zero(order)
    src_keys = ambient_keys(n, p - 1, m - 1)
    tgt_keys = ambient_keys(n, p, m)

    def flatten(pv):
        return [pv.terms[idx].terms.get(exps, zero) if idx in pv.terms else zero
                for idx, exps in tgt_keys]

    witness = {}
    for g, pv in c.terms.items():
        e_g = euler_field(group.matrices[g])
        columns = []
        sources = []
        for idx, exps in src_keys:
            b = Polyvector.term(1, exps, idx, order)
            columns.append(flatten(e_g.wedge(b)))
            sources.append(b)
        target = flatten(pv)
        coeffs = solve_membership(columns, target, order)
        if coeffs is None:
            return False, None
        acc = Polyvector.zero(n, order)
        for b, coef in zip(sources, coeffs):
            if coef:
                acc = acc + b * coef
        if not acc.is_zero():
            witness[g] = acc
    b = Cochain(group, p - 1, witness)
    if is_invariant(c):
        b = reynolds(b)
    return True, b


def test_is_coboundary_zero():
    group = example_group("sign_line_k2.json")
    flag, witness = is_coboundary(Cochain.zero(group, 2))
    assert flag
    assert witness.is_zero() and witness.degree == 1


def test_is_coboundary_requires_cocycle():
    group = example_group("sign_line_k2.json")
    g = resolve_word(group, "g1")
    c = single(group, g, Polyvector.term(1, (0, 0), (), 1))
    with pytest.raises(ValueError):
        is_coboundary(c)


def test_is_coboundary_finds_witness():
    group = example_group("sign_line_k2.json")
    g = resolve_word(group, "g1")
    c = single(group, g, Polyvector.term(1, (2, 1), (), 1))
    dc = differential(c)
    flag, witness = is_coboundary(dc)
    assert flag
    assert differential(witness) == dc


def test_reduced_class_is_not_coboundary():
    group = example_group("sign_k1.json")
    g = resolve_word(group, "g1")
    c = single(group, g, Polyvector.term(1, (0,), (0,), 1))
    flag, witness = is_coboundary(c)
    assert not flag and witness is None


def test_invariant_coboundary_gets_invariant_witness():
    group = example_group("swap_k2.json")
    c = reynolds(single(group, 1, Polyvector.term(1, (2, 0), (), 1)))
    dc = differential(c)
    assert is_invariant(dc)
    flag, witness = is_coboundary(dc)
    assert flag
    assert is_invariant(witness)
    assert differential(witness) == dc


def exactness_groups():
    """The small fixture groups, D4 and D5 over Q(zeta4) and Q(zeta5),
    and the binary tetrahedral group over Q(zeta4)."""
    groups = {name: group for name, group in fixture_groups().items() if group.dim <= 3}
    for path in (GROUP_DATA / "d4.json", GROUP_DATA / "d5.json", BINARY_TETRAHEDRAL):
        groups[path.stem] = loaded_group(path)
    return groups


def seeded_cochain(rng, group, p, m):
    """A cochain of degree (p, m) on up to three random elements, each
    with a few random terms whose coefficients are small multiples of
    powers of zeta."""
    n, order = group.dim, group.scalar_order
    keys = ambient_keys(n, p, m)
    terms = {}
    for g in rng.sample(range(len(group)), min(3, len(group))):
        pv = Polyvector.zero(n, order)
        for idx, exps in rng.sample(keys, min(3, len(keys))):
            coeff = Cyc.zeta(order, rng.randrange(order)) * rng.choice([1, -1, 2])
            pv = pv + Polyvector.term(coeff, exps, idx, order)
        terms[g] = pv
    return Cochain(group, p, terms)


def test_project_decides_exactness_as_the_linear_solve_does():
    # a cocycle c is a coboundary exactly when project(c) is zero: on
    # differential(b), and on differential(b) plus a basis class
    rng = random.Random(3)
    exact = inexact = 0
    for name, group in exactness_groups().items():
        for p in range(1, group.dim + 1):
            for m in range(1, 3):
                basis = cohomology_basis(group, p, m)
                for _ in range(3):
                    db = differential(seeded_cochain(rng, group, p - 1, m - 1))
                    cocycles = [db, db + rng.choice(basis)] if basis else [db]
                    for c in cocycles:
                        flag, witness = is_coboundary(c)
                        assert flag == project(c).is_zero(), (name, p, m)
                        if flag:
                            assert differential(witness) == c, (name, p, m)
                        exact += flag and not c.is_zero()
                        inexact += not flag
    assert exact >= 100 and inexact >= 80, (exact, inexact)


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
    group = example_group("sign_k1.json")
    table = {}
    for p in range(2):
        for m in range(4):
            table[(p, m)] = len(cohomology_basis(group, p, m))
    assert table == {
        (0, 0): 1, (0, 1): 0, (0, 2): 1, (0, 3): 0,
        (1, 0): 0, (1, 1): 1, (1, 2): 0, (1, 3): 1,
    }


def test_neg_identity_k2_has_volume_class():
    group = example_group("neg_identity_k2.json")
    basis = cohomology_basis(group, 2, 0)
    flip = resolve_word(group, "g1")
    assert len(basis) == 2  # d1^d2 at the identity and at -1
    supports = sorted(sorted(c.terms) for c in basis)
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


def test_character_count_agrees_on_the_zero_dimensional_space():
    # no diagonal entry to start a trace from: every trace is 0
    group = enumerate_group([Matrix(5, [])])
    assert group.dim == 0 and len(group) == 1
    assert_three_counts_agree(group, [(0, m) for m in range(3)])
    assert cohomology_dim_character(group, 0, 0) == 1


def test_character_count_rejects_bad_degree_and_a_wrong_centralizer():
    group = example_group("sign_k1.json")
    with pytest.raises(ValueError):
        cohomology_dim_character(group, 2, 0)
    # the identity's centralizer listed as (e, g1, g1): the class term at
    # (0, 1) is (1 - 1 - 1)/3, which no group gives; the last two slots,
    # actions and _geometries, are built in __init__, not passed
    fields = {name: getattr(group, name) for name in Group.__slots__[:-2]}
    fields["centralizers"] = ((0, 1, 1), (0, 1))
    with pytest.raises(ArithmeticError, match="not a nonnegative integer"):
        cohomology_dim_character(Group(**fields), 0, 1)


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
                    total = total + act(pv, [group.actions[h]])
                assert avg == total * Cyc.of(Fraction(1, len(cent)), order), (name, g)
                nonzero += not avg.is_zero()
                for h in cent:
                    assert act(avg, [group.actions[h]]) == avg, (name, g, h)
    assert nonzero


def test_cohomology_rejects_bad_degree():
    group = example_group("sign_k1.json")
    with pytest.raises(ValueError):
        cohomology_basis(group, 2, 0)
    with pytest.raises(ValueError):
        cohomology_dim_direct(group, 2, 0)


@pytest.mark.parametrize("name", ["klein-signs-k3", "swap-k2"])
def test_three_counts_refuse_the_same_pieces(name):
    # below degree 0 the counts used to disagree: the basis raised an
    # itertools error, the direct count gave 0 and the character count 1
    # or an IndexError; each now refuses with the same ValueError
    group = fixture_groups()[name]
    for p, m in ((0, -1), (1, -2), (-1, 0), (group.dim + 1, 0)):
        for count in (cohomology_basis, cohomology_dim_direct, cohomology_dim_character):
            with pytest.raises(ValueError, match=rf"degree \({p}, {m}\)"):
                count(group, p, m)


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
    group = example_group("sign_line_k2.json")

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


# The per-class checks against their definitions, on a nonabelian group
# over Q(zeta4), a non-monomial action and the rotation pair over Q(zeta6)
CHECKED_GROUPS = [GROUP_DATA / "d4.json", S4_ROOT_BASIS,
                  S4_ROOT_BASIS.parent / "rotation_pair_k5_z6.json"]


@st.composite
def random_terms(draw, group, p):
    """A polyvector of exterior degree p and one polynomial degree at most
    2, with a random coefficient in {0, ±1, 2} times a power of zeta at
    every term, so that its averages are seldom zero."""
    n, order = group.dim, group.scalar_order
    keys = ambient_keys(n, p, draw(st.integers(0, 2)))
    coeffs = draw(st.lists(st.tuples(st.sampled_from([0, 0, 1, -1, 2]), st.integers(0, order - 1)),
                           min_size=len(keys), max_size=len(keys)))
    pv = Polyvector.zero(n, order)
    for (idx, exps), (c, k) in zip(keys, coeffs):
        if c:
            pv = pv + Polyvector.term(Cyc.zeta(order, k) * c, exps, idx, order)
    return pv


@st.composite
def near_invariant_cochain(draw):
    """A Reynolds average, as it is or broken at one class: perturbed at
    one component, with one class member dropped, or with its
    representative dropped while a conjugate stays."""
    group = loaded_group(draw(st.sampled_from(CHECKED_GROUPS)))
    p = draw(st.integers(0, 2))
    raw = {draw(st.integers(0, len(group) - 1)): draw(random_terms(group, p))
           for _ in range(draw(st.integers(1, 3)))}
    terms = dict(reynolds(Cochain(group, p, raw)).terms)
    assume(terms)
    classes = [cls for cls in group.conj_classes if cls[0] in terms]
    how = draw(st.sampled_from(["average", "perturb", "drop", "drop representative"]))
    if classes and how != "average":
        cls = draw(st.sampled_from(classes))
        if how == "perturb":
            # a conjugate where the class has one, so that the transport
            # from the representative is what breaks; every class of the
            # rotation pair is one element, and there the representative
            k = draw(st.sampled_from(cls[1:] or cls))
            terms[k] = terms[k] + draw(random_terms(group, p))
        elif how == "drop":
            del terms[draw(st.sampled_from(cls))]
        else:
            del terms[cls[0]]
    return Cochain(group, p, terms)


@given(near_invariant_cochain())
@settings(max_examples=60, deadline=None)
def test_is_invariant_is_invariance_under_every_element(c):
    assert is_invariant(c) == invariant_under_every_element(c)


class CountingTerms(dict):
    """A terms dict that counts its membership tests."""

    tests = 0

    def __contains__(self, key):
        self.tests += 1
        return super().__contains__(key)


def test_is_invariant_tests_membership_only_in_the_classes_of_the_support():
    # x1 d1 + ... + x5 d5 at the identity of S5: one test per class
    # representative and none of the other 119 elements
    group = load_group_file(str(GROUP_DATA / "s5.json"))[0]
    n = group.dim
    pv = Polyvector(n, 1, {(i,): Poly.monomial(tuple(int(j == i) for j in range(n)), 1, 1)
                           for i in range(n)})
    terms = CountingTerms({0: pv})
    c = Cochain._new(terms, group, 1)
    assert is_invariant(c)
    assert terms.tests <= len(group.conj_classes) + len(terms) < len(group)


@st.composite
def near_reduced_cochain(draw):
    """Random terms, which the projection mostly changes and partly
    keeps, their projection, or their projection with one component added
    that the projection changes or drops: a term with a moved variable,
    in coordinates adapted to its element.  In exterior degree 0 the
    projection keeps only the identity's component, so p starts at 1."""
    group = loaded_group(draw(st.sampled_from(CHECKED_GROUPS)))
    n, order = group.dim, group.scalar_order
    p = draw(st.integers(1, 3))
    raw = Cochain(group, p, {draw(st.integers(0, len(group) - 1)): draw(random_terms(group, p))
                             for _ in range(draw(st.integers(1, 3)))})
    how = draw(st.sampled_from(["raw", "projected", "moved variable"]))
    if how == "raw":
        return raw
    c = project(raw)
    assume(how == "moved variable" or not c.is_zero())
    if how == "moved variable":
        g = draw(st.integers(1, len(group) - 1))
        geom = geometry(group, g)
        exps = [0] * n
        exps[n - 1] = 1
        wedge = draw(st.sampled_from(list(combinations(range(n), p))))
        term = Polyvector.term(1, tuple(exps), wedge, order)
        c = c + single(group, g, act(term, [(geom.dual_change, geom.adapted)]))
    return c


def reduced_by_filter(c):
    """Reference for is_reduced: each component with codim > 0, moved to
    coordinates adapted to its element, has every wedge divisible by
    omega_g and no polynomial term in a moved variable."""
    group, n = c.group, c.group.dim
    for g, pv in c.terms.items():
        geom = geometry(group, g)
        moved = range(n - geom.codim, n)
        adapted = act(pv, [(geom.adapted, geom.dual_change)])
        for idx, poly in adapted.terms.items():
            if not set(moved) <= set(idx):
                return False
            if any(e[j] for e in poly.terms for j in moved):
                return False
    return True


@given(near_reduced_cochain())
@settings(max_examples=60, deadline=None)
def test_is_reduced_is_fixed_by_project(c):
    assert is_reduced(c) == reduced_by_filter(c)
