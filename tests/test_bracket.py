"""Tests for the projected bracket on invariant reduced cocycles, the
perp vanishing test, and the minimal-degree vanishing flag."""

import functools
import json
import random
from itertools import combinations_with_replacement
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    alternating_unipotent,
    conjugate_group,
    example_group,
    load_tracer,
    mat,
    matmul,
    matvec,
    minimal_pair_k5,
    move_cochain,
    single,
    trivial_group_k,
)
from skewbrack.scalars import Cyc
from skewbrack.linalg import Matrix, mat_inverse, rank, rref, solve_membership
from skewbrack.polyvec import Polyvector, act, monomials, schouten
from skewbrack.groups import enumerate_group, geometry, resolve_word
from skewbrack.cochain import (
    Cochain,
    cohomology_basis,
    cohomology_dim_character,
    is_cocycle,
    is_invariant,
    is_reduced,
    project,
    reduced_basis_at,
    reynolds,
    support_codim,
)
from skewbrack.bracket import (
    gerstenhaber,
    minimal_degree_vanishing,
    moved_intersection,
    perp_vanishing_applies,
)
from skewbrack.fixtures import EXAMPLES, PAIRS, bracket_pair, fixture_groups
from skewbrack import bracket, koszul
from skewbrack.koszul import chain_bracket_cochain
from skewbrack.cli import load_class_file, load_group_file

GROUP_DATA = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "groups"
S4_ROOT_BASIS = EXAMPLES / "s4_a3_root_basis_k3.json"
ROTATION_PAIR = EXAMPLES / "rotation_pair_k5_z6.json"
CLASS_DATA = GROUP_DATA.parent / "classes"


# ------------------------------------------------------ worked examples


def test_two_sign_pairs_bracket():
    group, x, y, expected = bracket_pair("two-sign-pairs-k5")
    report = gerstenhaber(x, y)
    assert report.result == expected
    assert not report.result.is_zero()
    assert report.result.degree == 4
    st = resolve_word(group, "g1*g2")
    assert geometry(group, st).codim == 4


def test_rotation_sign_pair_bracket():
    group, x, y, expected = bracket_pair("rotation-k5-z6")
    assert group.scalar_order == 6
    report = gerstenhaber(x, y)
    assert report.result == expected
    assert report.result.degree == 4


@pytest.mark.parametrize("orders, field", [((2, 3), 6), ((3, 3), 3)])
def test_rotation_pair_with_a_second_rotation_of_order_three(orders, field, tmp_path):
    # the second rotation by a primitive cube root of unity, over Q(zeta6)
    # beside a sign and over Q(zeta3) beside another cube root: the group
    # of the rotation-k5-z6 pair with other orders, and the same classes
    def rotation(order, plane):
        """z^k and z^-k on coordinates plane and plane + 1, z^k of that order."""
        k = field // order
        entries = ["1"] * 5
        entries[plane:plane + 2] = f"z^{k}", f"z^{field - k}"
        return [[entries[i] if i == j else "0" for j in range(5)] for i in range(5)]

    path = tmp_path / "rotations.json"
    path.write_text(json.dumps({"dimension": 5, "cyclotomicOrder": field, "generators": [
        rotation(orders[0], 0), rotation(orders[1], 3)]}))
    group, _ = load_group_file(str(path))
    _, *files = PAIRS["rotation-k5-z6"]
    x, y, expected = (load_class_file(str(EXAMPLES / file), group) for file in files)
    assert group.scalar_order == field and len(group) == orders[0] * orders[1]
    assert gerstenhaber(x, y).result == expected


def test_bracket_report_contents():
    group, x, y, _ = bracket_pair("two-sign-pairs-k5")
    s = resolve_word(group, "g1")
    t = resolve_word(group, "g2")
    report = gerstenhaber(x, y)
    assert list(report.per_component_terms) == [(s, t)]
    assert report.vanishing_diagnostics == []


def test_bracket_antisymmetry_on_example():
    _, x, y, _ = bracket_pair("two-sign-pairs-k5")
    # |x| = 3, |y| = 2: [y,x] = -(-1)^{(|x|-1)(|y|-1)} [x,y] = -[x,y]
    assert gerstenhaber(y, x).result == -gerstenhaber(x, y).result


def test_chain_oracle_agrees_on_example():
    group, x, y, _ = bracket_pair("two-sign-pairs-k5")
    chain = chain_bracket_cochain(x, y)
    assert project(chain) == gerstenhaber(x, y).result


# ------------------------------------------------------- orbit transport


def pairwise_report(x, y):
    """per_component_terms and vanishing_diagnostics of [x, y], each pair
    computed on its own in sorted (g, h) order."""
    group = x.group
    terms, reasons = {}, []
    for g in sorted(x.terms):
        for h in sorted(y.terms):
            raw = schouten(x.terms[g], y.terms[h])
            if raw.is_zero():
                reasons.append((g, h, "schouten zero"))
                continue
            gh = group.mult_table[g][h]
            projected = project(single(group, gh, raw)).terms.get(gh)
            if projected is not None:
                terms[(g, h)] = projected
            else:
                reasons.append((g, h, "projection kill"))
    return terms, reasons


def stored_class(group, name, *stems):
    """Sum of classes stored for the named group."""
    total = None
    for stem in stems:
        c = load_class_file(str(CLASS_DATA / name / f"{stem}.json"), group)
        total = c if total is None else total + c
    return total


def orbit_cases():
    """(label, x, y): multi-component classes of S4, S5, D4 over Q(zeta4),
    D5 over Q(zeta5), and the rotation pair over Q(zeta6); the D4 and D5
    sums mix nonzero, projection-killed and Schouten-zero pairs.  The S5
    classes have twenty components, so orbits of up to 120 pairs are
    walked several generator steps deep."""
    cases = []
    for name, left, right in (("s4", ("p2m1_1",), ("p1m1_0",)),
                              ("s4", ("p1m1_1",), ("p2m1_2",)),
                              ("s4", ("p2m0_0",), ("p2m0_0",)),
                              ("d4", ("p2m1_2",), ("p1m1_0",)),
                              ("d4", ("p2m1_2",), ("p2m1_5",)),
                              ("d5", ("p2m1_3",), ("p1m1_1",)),
                              ("d5", ("p2m1_3",), ("p2m1_3",)),
                              ("rot", ("p2m1_3",), ("p2m1_7",)),
                              ("rot", ("p2m1_0",), ("p1m1_0",))):
        group = load_group_file(str(GROUP_DATA / f"{name}.json"))[0]
        cases.append((f"{name} {left} x {right}", stored_class(group, name, *left),
                      stored_class(group, name, *right)))
    for name, left, p in (("d4", ("p2m1_0", "p2m1_2"), 0),
                          ("d5", ("p2m1_3", "p2m1_4"), 1)):
        group = load_group_file(str(GROUP_DATA / f"{name}.json"))[0]
        x = stored_class(group, name, *left)
        y = cohomology_basis(group, p, 2)[0]
        cases.append((f"{name} {left} x H^({p},2)", x, y))
        cases.append((f"{name} H^({p},2) x {left}", y, x))
    group = load_group_file(str(GROUP_DATA / "s5.json"))[0]
    x, y = (next(c for c in cohomology_basis(group, p, m) if len(c.terms) == 20)
            for p, m in ((2, 1), (3, 0)))
    cases.append(("s5 H^(2,1) x H^(3,0)", x, y))
    cases.append(("s5 H^(2,1) x H^(2,1)", x, x))
    _, x, y, _ = bracket_pair("rotation-k5-z6")
    cases.append(("rotation pair fixture", x, y))
    return cases


def conjugation_orbits(x, y):
    """The orbits of the component pairs of x and y under simultaneous
    conjugation by every element of the group."""
    group = x.group
    mult, inverses = group.mult_table, group.inverses
    return {frozenset((mult[mult[a][g]][inverses[a]], mult[mult[a][h]][inverses[a]])
                      for a in range(len(group)))
            for g in x.terms for h in y.terms}


def test_orbit_transport_matches_pairwise_computation():
    seen = set()
    transported = 0
    for label, x, y in orbit_cases():
        report = gerstenhaber(x, y)
        terms, reasons = pairwise_report(x, y)
        assert report.per_component_terms == terms, label
        assert report.vanishing_diagnostics == reasons, label
        assert project(chain_bracket_cochain(x, y)) == report.result, label
        seen.update(reason for _, _, reason in reasons)
        seen.add("nonzero" if terms else "zero")
        # every pair but one per orbit takes its value from a conjugate pair
        transported += len(x.terms) * len(y.terms) - len(conjugation_orbits(x, y))
    assert seen == {"nonzero", "zero", "schouten zero", "projection kill"}
    assert transported >= 100


def test_orbit_transport_acts_once_per_moved_nonzero_pair_with_a_generator(monkeypatch):
    # gerstenhaber acts only to transport values: each act moves a value
    # one generator step, and each pair of a nonzero orbit but the one
    # computed costs one act, however deep the walk goes
    acts = []

    def counted(pv, pairs):
        acts.append(pairs)
        return act(pv, pairs)

    monkeypatch.setattr(bracket, "act", counted)
    total = 0
    for label, x, y in orbit_cases():
        group = x.group
        generator_pairs = [group.actions[s] for s in group.generator_indices]
        acts.clear()
        report = gerstenhaber(x, y)
        assert all(len(pairs) == 1 and any(pairs[0] is gp for gp in generator_pairs)
                   for pairs in acts), label
        want = sum(len(orbit) - 1 for orbit in conjugation_orbits(x, y)
                   if next(iter(orbit)) in report.per_component_terms)
        assert len(acts) == want, label
        total += want
    assert total >= 100


# ------------------------------- oracle agreement and vanishing reasons


def zeta3_diag(*powers):
    """Diagonal matrix over Q(zeta3) with entries zeta^power."""
    n = len(powers)
    return Matrix(3, [[Cyc.zeta(3, powers[i]) if i == j else Cyc.zero(3)
                       for j in range(n)] for i in range(n)])


@pytest.mark.parametrize("generators, pairs, nonzero", [
    ([(1, 2, 0), (1, 0, 1)], 100, 44),  # Z/3 x Z/3 on k^3
    ([(1, 0)], 49, 20),                  # Z/3 on k^2
])
def test_oracle_agrees_on_zeta3_basis_pairs(generators, pairs, nonzero):
    # zeta is not its own conjugate, so these actions are not self-dual:
    # a convention that uses h where h^-1 is meant shows here, while sign
    # and permutation actions cannot tell the two apart
    group = enumerate_group([zeta3_diag(*powers) for powers in generators])
    pool = [c for p in (1, 2) for m in (0, 1, 2) for c in cohomology_basis(group, p, m)]
    found = 0
    for x in pool:
        for y in pool:
            result = gerstenhaber(x, y).result
            assert result == project(chain_bracket_cochain(x, y)), (x, y)
            found += not result.is_zero()
    assert (len(pool) ** 2, found) == (pairs, nonzero)


def test_oracle_agrees_on_a_non_monomial_group():
    # S4 in the root basis of A3 acts by matrices that are not monomial
    group = load_group_file(str(S4_ROOT_BASIS))[0]
    pool = [c for p, m in ((1, 0), (1, 1), (2, 0), (2, 1)) for c in cohomology_basis(group, p, m)]
    found = 0
    for x in pool:
        for y in pool:
            result = gerstenhaber(x, y).result
            assert result == project(chain_bracket_cochain(x, y)), (x, y)
            found += not result.is_zero()
    assert (len(pool) ** 2, found) == (9, 4)


def test_oracle_agrees_on_dense_cyclotomic_conjugates_and_inverts_nothing():
    # the nonabelian D4 over Q(zeta4) and D5 over Q(zeta5), and the
    # cyclic rotation pair over Q(zeta6), each conjugated to an action
    # that is not monomial.  The oracle's minors come from a determinant
    # that divides by nothing, so the chain brackets invert no scalar
    cases = [(GROUP_DATA / "d4.json", ((1, 0), (1, 1), (2, 0), (2, 1)), 81, 26),
             (GROUP_DATA / "d5.json", ((1, 0), (1, 1), (2, 0), (2, 1)), 100, 28),
             (ROTATION_PAIR, ((1, 0), (1, 1), (2, 0)), 169, 72)]
    for path, pieces, pairs, nonzero in cases:
        group = load_group_file(str(path))[0]
        dense = conjugate_group(group, *alternating_unipotent(group.dim, group.scalar_order))
        assert any(sum(1 for e in col if e) > 1 for a in dense.matrices for col in zip(*a.rows))
        pool = [c for p, m in pieces for c in cohomology_basis(dense, p, m)]
        operands = [(x, y) for x in pool for y in pool]
        want = [gerstenhaber(x, y).result for x, y in operands]
        tracer = load_tracer().Tracer()
        with tracer:
            # through the module, so that the tracer's wrapper sees the calls
            chains = [koszul.chain_bracket_cochain(x, y) for x, y in operands]
        counts = tracer.counts()
        assert [project(c) for c in chains] == want, path.name
        assert (len(operands), sum(not w.is_zero() for w in want)) == (pairs, nonzero), path.name
        assert counts["koszul.chain_bracket_cochain.calls"] == pairs
        assert counts["polyvec.minor_det.calls"] > 0
        assert counts["scalars.inverse.calls"] == 0, path.name


def test_oracle_agrees_on_s5_pairs_with_twenty_component_classes():
    # of the groups here, only S5 has nonzero per-pair terms at (g, h)
    # with gh != hg; its (2,1) and (3,0) classes of twenty components
    # give them, so the oracle checks terms the commuting pairs of every
    # other group leave out
    # Every nonzero term v(g, h) is also fixed by g and by h, at a pair
    # whose codims add up: the premise of gerstenhaber's argument that
    # placing the terms at hg instead of gh gives the same bracket
    group = load_group_file(str(GROUP_DATA / "s5.json"))[0]
    mult = group.mult_table
    pairs = terms = fixed = 0
    for x in [c for p, m in ((1, 0), (2, 1)) for c in cohomology_basis(group, p, m)]:
        for y in cohomology_basis(group, 3, 0):
            report = gerstenhaber(x, y)
            assert report.result == project(chain_bracket_cochain(x, y)), (x, y)
            pairs += 1
            terms += sum(mult[g][h] != mult[h][g] for g, h in report.per_component_terms)
            for (g, h), v in report.per_component_terms.items():
                codims = [geometry(group, k).codim for k in (g, h, mult[g][h])]
                assert codims[2] == codims[0] + codims[1], (g, h)
                assert act(v, [group.actions[g]]) == v == act(v, [group.actions[h]]), (g, h)
                fixed += 1
    assert (pairs, terms, fixed) == (8, 480, 520)


@pytest.mark.parametrize("path, pairs, nonzero", [(GROUP_DATA / "d4.json", 45, 10),
                                                   (S4_ROOT_BASIS, 6, 2)],
                         ids=["d4", "s4-root-basis"])
def test_graded_antisymmetry_on_basis_classes(path, pairs, nonzero):
    # [x, y] = -(-1)^((|x|-1)(|y|-1)) [y, x] exactly, not only up to a
    # coboundary: each class has one invariant reduced representative,
    # and the bracket returns it
    group = load_group_file(str(path))[0]
    pool = [c for p, m in ((1, 0), (1, 1), (2, 0), (2, 1)) for c in cohomology_basis(group, p, m)]
    tried = found = 0
    for i, x in enumerate(pool):
        for y in pool[i:]:
            xy, yx = gerstenhaber(x, y).result, gerstenhaber(y, x).result
            sign = (-1) ** ((x.degree - 1) * (y.degree - 1))
            assert xy == yx * Cyc.of(-sign, group.scalar_order), (x, y)
            assert is_invariant(xy) and is_reduced(xy), (x, y)
            tried += 1
            found += not xy.is_zero()
    assert (tried, found) == (pairs, nonzero)


@pytest.mark.parametrize("path, triples, nonzero", [(GROUP_DATA / "d4.json", 165, 13),
                                                     (GROUP_DATA / "d5.json", 220, 16),
                                                     (ROTATION_PAIR, 2600, 354),
                                                     (S4_ROOT_BASIS, 10, 2)],
                         ids=["d4", "d5", "rotation-pair", "s4-root-basis"])
def test_graded_jacobi_on_basis_classes(path, triples, nonzero):
    # (-1)^((|x|-1)(|z|-1)) [x, [y, z]] + cyclic = 0 exactly on every
    # triple with repetition: a bracket of invariant reduced cocycles is
    # again one, the one representative of its class
    group = load_group_file(str(path))[0]
    pool = [c for p, m in ((1, 0), (1, 1), (2, 0), (2, 1)) for c in cohomology_basis(group, p, m)]

    @functools.cache
    def inner(j, k):
        return gerstenhaber(pool[j], pool[k]).result

    @functools.cache
    def term(i, j, k):
        sign = (-1) ** ((pool[i].degree - 1) * (pool[k].degree - 1))
        return gerstenhaber(pool[i], inner(j, k)).result * Cyc.of(sign, group.scalar_order)

    tried = found = 0
    for i, j, k in combinations_with_replacement(range(len(pool)), 3):
        terms = [term(i, j, k), term(j, k, i), term(k, i, j)]
        assert (terms[0] + terms[1] + terms[2]).is_zero(), (i, j, k)
        tried += 1
        found += any(not t.is_zero() for t in terms)
    assert (tried, found) == (triples, nonzero)


# (group file, basis classes with p <= 3 and m <= 2, nonzero brackets
# among their ordered pairs)
DENSE_COPIES = [(GROUP_DATA / "d4.json", 27, 126), (GROUP_DATA / "d5.json", 30, 144),
                (S4_ROOT_BASIS, 10, 32), (EXAMPLES / "binary_tetrahedral_k2_z4.json", 9, 14)]


def test_fast_path_commutes_with_a_change_to_dense_coordinates():
    # conjugated by the unipotent U with (-1)^(i+j) above the diagonal,
    # each group acts by matrices that are not monomial, so the zero
    # skips of the fast path meet other patterns.  Moved by U, every
    # basis class stays an invariant reduced class, the moved basis is as
    # large as the character count on the conjugate group, and the move
    # commutes with the bracket.  Moved by U^-1 instead, classes stop
    # being invariant on three of the groups, so the checks can fail.
    wrong = []
    for path, classes, nonzero in DENSE_COPIES:
        group = load_group_file(str(path))[0]
        n = group.dim
        u, u_inv = alternating_unipotent(n, group.scalar_order)
        dense = conjugate_group(group, u, u_inv)
        assert dense.words == group.words and dense.mult_table == group.mult_table
        assert any(sum(1 for e in col if e) > 1 for a in dense.matrices for col in zip(*a.rows))
        pool = []
        for p in range(min(3, n) + 1):
            for m in range(3):
                basis = cohomology_basis(group, p, m)
                assert len(basis) == cohomology_dim_character(dense, p, m), (path.name, p, m)
                pool += basis
        moved = [move_cochain(c, dense, u, u_inv) for c in pool]
        assert all(is_invariant(c) and is_reduced(c) for c in moved), path.name
        if not all(is_invariant(move_cochain(c, dense, u_inv, u)) for c in pool):
            wrong.append(path.stem)
        found = 0
        for x, mx in zip(pool, moved):
            for y, my in zip(pool, moved):
                xy = gerstenhaber(x, y).result
                assert gerstenhaber(mx, my).result == move_cochain(xy, dense, u, u_inv), path.name
                found += not xy.is_zero()
        assert (len(pool), found) == (classes, nonzero), path.name
    assert wrong == ["d4", "d5", "s4_a3_root_basis_k3"]


# every group file: the package examples and the benchmark's
GROUP_FILES = [path for path in sorted(EXAMPLES.glob("*.json"))
               if "generators" in json.loads(path.read_text())]
GROUP_FILES += sorted(GROUP_DATA.glob("*.json"))


@functools.cache
def loaded_group(path):
    return load_group_file(str(path))[0]


@st.composite
def coordinate_changes(draw):
    """(group, U, U^-1) for a group file and a product U of one to three
    elementary integer matrices on its space: transvections I + a E_ij
    with |a| <= 2, swaps of two coordinates and sign changes of one, so
    that det U = +-1 and U^-1 has integer entries too."""
    group = loaded_group(draw(st.sampled_from(GROUP_FILES)))
    n, order = group.dim, group.scalar_order
    u = Matrix.identity(n, order)
    for _ in range(draw(st.integers(1, 3))):
        rows = [[int(i == j) for j in range(n)] for i in range(n)]
        kind = draw(st.sampled_from(("add", "swap", "sign") if n > 1 else ("sign",)))
        if kind == "sign":
            i = draw(st.integers(0, n - 1))
            rows[i][i] = -1
        else:
            i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
            if kind == "add":
                rows[i][j] = draw(st.sampled_from((-2, -1, 1, 2)))
            else:
                rows[i][i] = rows[j][j] = 0
                rows[i][j] = rows[j][i] = 1
        u = matmul(u, mat(order, rows))
    return group, u, mat_inverse(u)


@settings(max_examples=25, deadline=None)
@given(coordinate_changes(), st.data())
def test_fast_path_commutes_with_random_integer_changes_of_coordinates(change, data):
    # the basis classes with p <= 2 and m <= 1, moved to the conjugate
    # group, are invariant and reduced there and as many as its character
    # count; gerstenhaber commutes with the move on every ordered pair of
    # them, and project and reynolds on a random cochain
    group, u, u_inv = change
    n, order = group.dim, group.scalar_order
    dense = conjugate_group(group, u, u_inv)
    assert dense.words == group.words and dense.mult_table == group.mult_table
    pool = []
    for p in range(min(2, n) + 1):
        for m in range(2):
            basis = cohomology_basis(group, p, m)
            assert len(basis) == cohomology_dim_character(dense, p, m), (p, m)
            pool += basis
    moved = [move_cochain(c, dense, u, u_inv) for c in pool]
    assert all(is_invariant(c) and is_reduced(c) for c in moved)
    for x, mx in zip(pool, moved):
        for y, my in zip(pool, moved):
            xy = gerstenhaber(x, y).result
            assert gerstenhaber(mx, my).result == move_cochain(xy, dense, u, u_inv)
    p = data.draw(st.integers(0, min(2, n)), label="p")
    terms = {}
    for _ in range(data.draw(st.integers(1, 4), label="terms")):
        g = data.draw(st.integers(0, len(group) - 1), label="element")
        idx = tuple(sorted(data.draw(st.permutations(range(n)))[:p]))
        exps = data.draw(st.sampled_from(monomials(n, data.draw(st.integers(0, 2)))))
        coeff = data.draw(st.sampled_from((-2, -1, 1, 3)), label="coeff")
        term = Polyvector.term(coeff, exps, idx, order)
        terms[g] = terms[g] + term if g in terms else term
    c = Cochain(group, p, terms)
    moved_c = move_cochain(c, dense, u, u_inv)
    assert project(moved_c) == move_cochain(project(c), dense, u, u_inv)
    assert reynolds(moved_c) == move_cochain(reynolds(c), dense, u, u_inv)


def test_oracle_agrees_on_a_d5_pair_the_projection_kills():
    group = load_group_file(str(GROUP_DATA / "d5.json"))[0]
    x = cohomology_basis(group, 1, 2)[0]
    y = cohomology_basis(group, 2, 0)[1]
    report = gerstenhaber(x, y)
    assert report.result == project(chain_bracket_cochain(x, y))
    assert report.result.is_zero()
    assert {reason for _, _, reason in report.vanishing_diagnostics} == {"projection kill"}


def test_schouten_zero_means_the_schouten_bracket_is_zero():
    # [x1^2 d3 at e, d1^d2 at g1] on k^5: the Schouten bracket is
    # 2 x1 d2^d3, and the projection at g1 removes it, since its wedge
    # does not contain omega_g1 = d1^d2
    group = fixture_groups()["two-sign-pairs-k5"]
    g1 = resolve_word(group, "g1")
    x = cohomology_basis(group, 1, 2)[4]
    y = cohomology_basis(group, 2, 0)[2]
    assert x.terms == {0: Polyvector.term(1, (2, 0, 0, 0, 0), (2,), 1)}
    assert y.terms == {g1: Polyvector.term(1, (0, 0, 0, 0, 0), (0, 1), 1)}
    assert not schouten(x.terms[0], y.terms[g1]).is_zero()
    report = gerstenhaber(x, y)
    assert report.result.is_zero()
    assert report.vanishing_diagnostics == [(0, g1, "projection kill")]


# -------------------------------------------------------- preconditions


def test_rejects_non_invariant_input():
    _, x, y, _ = bracket_pair("klein-signs-k3")
    with pytest.raises(ValueError, match="reynolds"):
        gerstenhaber(x, y)


def test_rejects_unreduced_input():
    group = example_group("sign_line_k2.json")
    g = resolve_word(group, "g1")
    good = single(group, 0, Polyvector.term(1, (0, 1), (1,), 1))
    bad = single(group, g, Polyvector.term(1, (1, 0), (0,), 1))
    assert is_invariant(bad) and is_cocycle(bad) and not is_reduced(bad)
    with pytest.raises(ValueError, match="project"):
        gerstenhaber(good, bad)


def test_rejects_unreduced_input_on_a_conjugacy_class():
    # S3 permuting coordinates on k^3; d3 at a transposition lacks the
    # moved covector d1 - d2, so every component of the average is killed
    # by project, and checking one per conjugacy class must still see it
    perm = lambda p: Matrix(1, [[Cyc.one(1) if p[j] == i else Cyc.zero(1)
                                 for j in range(3)] for i in range(3)])
    group = enumerate_group([perm((1, 0, 2)), perm((1, 2, 0))])
    swap = resolve_word(group, "g1")
    bad = reynolds(single(group, swap, Polyvector.term(1, (0, 0, 0), (2,), 1)))
    assert is_invariant(bad) and not is_reduced(bad)
    assert len(bad.terms) == 3 and project(bad).is_zero()
    good = single(group, 0, Polyvector.term(1, (1, 1, 1), (), 1))
    assert is_invariant(good) and is_reduced(good)
    with pytest.raises(ValueError, match="right operand .*project"):
        gerstenhaber(good, bad)
    with pytest.raises(ValueError, match="left operand .*project"):
        gerstenhaber(bad, good)


def test_reduced_cochains_are_cocycles():
    # reduced wedges contain every moved direction, so the euler factor
    # always collides with the wedge and the differential vanishes; this
    # is why gerstenhaber does not check that its inputs are cocycles
    rng = random.Random(5)
    groups = [example_group("sign_line_k2.json"), example_group("two_sign_pairs_k5_unnamed.json")]
    groups += [load_group_file(str(GROUP_DATA / f"{name}.json"))[0]
               for name in ("s4", "d4", "d5", "rot")]
    moved = 0  # nonzero projections away from the identity, where E_g != 0
    for group in groups:
        n = group.dim
        for _ in range(40):
            g = rng.randrange(len(group))
            exps = tuple(rng.randrange(2) for _ in range(n))
            idx = tuple(sorted(rng.sample(range(n), rng.randrange(1, n + 1))))
            c = single(group, g,
                               Polyvector.term(rng.randrange(1, 3), exps, idx,
                                               group.scalar_order))
            p = project(c)
            assert is_reduced(p)
            assert is_cocycle(p)
            moved += g != 0 and not p.is_zero()
    assert moved > 20


def test_rejects_group_mismatch():
    a = trivial_group_k(2)
    b = example_group("sign_line_k2.json")
    ca = single(a, 0, Polyvector.term(1, (0, 0), (0,), 1))
    cb = single(b, 0, Polyvector.term(1, (0, 0), (0,), 1))
    with pytest.raises(ValueError, match="group"):
        gerstenhaber(ca, cb)
    with pytest.raises(ValueError, match="group"):
        chain_bracket_cochain(ca, cb)


# ------------------------------------------------------- trivial group


def test_trivial_group_bracket_is_schouten():
    rng = random.Random(7)
    group = trivial_group_k(3)

    def random_pv(degree):
        out = Polyvector.zero(3, 1)
        for _ in range(3):
            exps = tuple(rng.randrange(3) for _ in range(3))
            idx = tuple(sorted(rng.sample(range(3), degree)))
            out = out + Polyvector.term(rng.randrange(-2, 3), exps, idx, 1)
        return out

    for _ in range(10):
        px, py = random_pv(1), random_pv(2)
        x = single(group, 0, px)
        y = single(group, 0, py)
        if px.is_zero() or py.is_zero():
            continue
        want = schouten(px, py)
        got = gerstenhaber(x, y).result
        assert got == Cochain(group, 2, {0: want})


# ------------------------------------------------------- perp vanishing


def test_perp_applies_on_overlap_fixture():
    group, x, y = bracket_pair("overlap-signs-k3")
    g = resolve_word(group, "g1")
    h = resolve_word(group, "g2")
    assert perp_vanishing_applies(group, g, h)
    inter = moved_intersection(group, g, h)
    assert inter == [(Cyc.zero(1), Cyc.one(1), Cyc.zero(1))]


def test_perp_does_not_apply_on_disjoint_moved_spaces():
    group = example_group("two_sign_pairs_k5_unnamed.json")
    s = resolve_word(group, "g1")
    t = resolve_word(group, "g2")
    assert not perp_vanishing_applies(group, s, t)
    assert moved_intersection(group, s, t) == []


def test_perp_does_not_apply_when_a_generator_moves_the_intersection():
    # g1 = diag(-1, -1, 1) and g2 = diag(1, -1, -1) move subspaces that
    # meet in the line of e2, which the third generator, the swap of the
    # last two coordinates, sends to e3
    group = enumerate_group([mat(1, [[-1, 0, 0], [0, -1, 0], [0, 0, 1]]),
                             mat(1, [[1, 0, 0], [0, -1, 0], [0, 0, -1]]),
                             mat(1, [[1, 0, 0], [0, 0, 1], [0, 1, 0]])])
    assert len(group) == 8
    g, h = resolve_word(group, "g1"), resolve_word(group, "g2")
    assert moved_intersection(group, g, h) == [(Cyc.zero(1), Cyc.one(1), Cyc.zero(1))]
    assert not perp_vanishing_applies(group, g, h)
    # without the swap the line is stable
    plain = example_group("overlap_signs_k3.json")
    assert perp_vanishing_applies(plain, resolve_word(plain, "g1"), resolve_word(plain, "g2"))


def moved_basis(group, g):
    """The last codim columns of g's adapted basis, spanning (1-g)V."""
    geom = geometry(group, g)
    n = group.dim
    return list(zip(*geom.adapted.rows))[n - geom.codim:]


@pytest.mark.parametrize("name", [*fixture_groups(), "d4", "d5", "s4"])
def test_moved_intersection_is_the_intersection(name):
    if name in fixture_groups():
        group = fixture_groups()[name]
    else:
        group, _ = load_group_file(GROUP_DATA / f"{name}.json")
    order = group.scalar_order
    for g in range(len(group)):
        u = moved_basis(group, g)
        for h in range(len(group)):
            w = moved_basis(group, h)
            inter = moved_intersection(group, g, h)
            assert inter == list(rref(Matrix(order, inter))[0].rows)
            for v in inter:
                assert solve_membership(u, v, order) is not None
                assert solve_membership(w, v, order) is not None
            assert len(inter) == len(u) + len(w) - rank(Matrix(order, u + w))


def test_reduced_components_with_meeting_moved_subspaces_have_zero_schouten_bracket():
    # the lemma in pair_commutator's docstring: when (1-g)V and (1-h)V
    # meet in a nonzero w, every reduced X_g and Y_h have [X_g, Y_h] = 0,
    # so the projection never removes a nonzero bracket there.  Checked
    # on each pair of reduced basis elements with p <= 3 and m <= 1, over
    # every example group and D4 and D5; the pairs whose moved subspaces
    # meet only in zero show that the sweep reaches nonzero brackets.
    paths = [path for path in GROUP_FILES if path.parent == EXAMPLES or path.stem in ("d4", "d5")]
    meeting, nonzero_elsewhere = 0, False
    for path in paths:
        group = loaded_group(path)
        bases = [[pv for p in range(4) for m in range(2)
                  for pv in reduced_basis_at(group, geometry(group, g), p, m)]
                 for g in range(len(group))]
        for g in range(len(group)):
            for h in range(len(group)):
                if moved_intersection(group, g, h):
                    for x in bases[g]:
                        for y in bases[h]:
                            assert schouten(x, y).is_zero(), (path.stem, g, h, x, y)
                            meeting += 1
                elif not nonzero_elsewhere:
                    nonzero_elsewhere = any(not schouten(x, y).is_zero()
                                            for x in bases[g] for y in bases[h])
    assert meeting == 12695 and nonzero_elsewhere


def perp_by_matvec(group, g, h):
    """The reference for perp_vanishing_applies: the intersection of the
    moved subspaces is nonzero, and each generator's images of its basis,
    taken by matvec, add nothing to its rank."""
    inter = moved_intersection(group, g, h)
    order = group.scalar_order
    return bool(inter) and all(
        rank(Matrix(order, inter + [matvec(group.matrices[k], v) for v in inter])) == len(inter)
        for k in group.generator_indices)


def test_perp_matches_the_matvec_reference_on_class_representatives():
    # every ordered pair of class representatives of the example groups,
    # D4 and D5: non-diagonal actions, and cyclotomic ones.  Each is also
    # conjugated to a dense action, on which g and its transpose move the
    # intersection differently
    paths = [path for path in GROUP_FILES if path.parent == EXAMPLES or path.stem in ("d4", "d5")]
    seen = set()
    for path in paths:
        plain = loaded_group(path)
        dense = conjugate_group(plain, *alternating_unipotent(plain.dim, plain.scalar_order))
        for group in (plain, dense):
            reps = [c[0] for c in group.conj_classes]
            for g in reps:
                for h in reps:
                    want = perp_by_matvec(group, g, h)
                    assert perp_vanishing_applies(group, g, h) == want, (path.stem, g, h)
                    seen.add(want)
    assert seen == {True, False}


def test_perp_false_at_identity():
    group, _, _ = bracket_pair("overlap-signs-k3")
    g = resolve_word(group, "g1")
    assert not perp_vanishing_applies(group, 0, g)


def test_perp_self_overlap():
    group = example_group("sign_line_k2.json")
    g = resolve_word(group, "g1")
    assert perp_vanishing_applies(group, g, g)


def test_overlap_bracket_vanishes():
    group, x, y = bracket_pair("overlap-signs-k3")
    assert is_invariant(x) and is_reduced(x) and is_cocycle(x)
    assert is_invariant(y) and is_reduced(y) and is_cocycle(y)
    report = gerstenhaber(x, y)
    assert report.result.is_zero()
    assert report.vanishing_diagnostics  # the kill is recorded


# ------------------------------------------------ minimal degree classes


def test_minimal_pair_flag_and_vanishing():
    group, x, y = minimal_pair_k5()
    assert minimal_degree_vanishing(x, y)
    assert gerstenhaber(x, y).result.is_zero()


def test_example_pair_is_not_minimal():
    _, x, y, _ = bracket_pair("two-sign-pairs-k5")
    assert not minimal_degree_vanishing(x, y)


def test_identity_component_is_not_minimal():
    # exterior degree 0 at the identity equals its codim, so only the
    # identity test keeps such an operand out
    group, x, y = minimal_pair_k5()
    one = single(group, 0, Polyvector.term(1, (0,) * group.dim, (), 1))
    assert not minimal_degree_vanishing(one, y)
    assert not minimal_degree_vanishing(x, one)


def test_minimal_classes_from_bases_bracket_to_zero():
    for name, group in fixture_groups().items():
        minimal = []
        for p in range(1, min(group.dim, 3) + 1):
            for m in range(3):
                for c in cohomology_basis(group, p, m):
                    support = sorted(c.terms)
                    if 0 in support:
                        continue
                    if all(geometry(group, g).codim == p for g in support):
                        minimal.append(c)
        for x in minimal:
            for y in minimal:
                assert minimal_degree_vanishing(x, y), name
                assert gerstenhaber(x, y).result.is_zero(), name


# --------------------------------------------------- codimension grading


def group_files():
    """Every group file of the package examples and of the benchmark's data."""
    paths = [f for f in sorted(EXAMPLES.glob("*.json"))
             if "generators" in json.loads(f.read_text())]
    return paths + sorted(GROUP_DATA.glob("*.json"))


@pytest.mark.parametrize("name", [*fixture_groups(), *(f.name for f in group_files())])
def test_class_function_readers_equal_their_per_element_definitions(name):
    # support_codim and minimal_degree_vanishing read codim at class
    # representatives; on supports that split classes they must still
    # give the largest codim in the support and the per-element test
    if name in fixture_groups():
        group = fixture_groups()[name]
    else:
        group = load_group_file(str(next(f for f in group_files() if f.name == name)))[0]
    rng = random.Random(name)
    n, size = group.dim, len(group)
    supports = [[], [0]] + [rng.sample(range(size), rng.randint(1, min(size, 4)))
                            for _ in range(12)]
    cochains = []
    for support in supports:
        p = geometry(group, rng.choice(support)).codim if support else rng.randint(0, n)
        pv = Polyvector.term(1, (0,) * n, tuple(range(p)), group.scalar_order)
        cochains.append(Cochain(group, p, {g: pv for g in support}))
    split = minimal = 0
    for x, y in zip(cochains, cochains[1:] + cochains[:1]):
        codims = [geometry(group, g).codim for g in x.terms]
        assert support_codim(x) == max(codims, default=0), sorted(x.terms)
        for pair in ((x, x), (x, y)):
            want = all(g != 0 and geometry(group, g).codim == c.degree
                       for c in pair for g in c.terms)
            assert minimal_degree_vanishing(*pair) == want, [sorted(c.terms) for c in pair]
            minimal += want
        split += any(0 < len(x.terms.keys() & cls) < len(cls) for cls in group.conj_classes)
    # the identity is the only element of a trivial group, and never minimal
    assert minimal > 0 or size == 1
    # an abelian group has one element per class, so only a nonabelian
    # one has supports that split a class
    assert split > 0 or all(len(cls) == 1 for cls in group.conj_classes)


def test_support_codim_computes_geometry_at_class_representatives_only():
    s5 = GROUP_DATA / "s5.json"
    (c,) = cohomology_basis(load_group_file(str(s5))[0], 2, 0)
    group = load_group_file(str(s5))[0]
    c = Cochain(group, c.degree, c.terms)
    assert len(c.terms) == 20
    assert support_codim(c) == 2
    (cls,) = [cls for cls in group.conj_classes if cls[0] in c.terms]
    assert [g for g, geom in enumerate(group._geometries) if geom is not None] == [cls[0]]


def test_bracket_lands_in_summed_codimension():
    rng = random.Random(23)
    pairs = 0
    for name, group in fixture_groups().items():
        if group.dim > 3:
            continue
        pool = []
        for p in range(1, group.dim + 1):
            for m in range(3):
                pool.extend(cohomology_basis(group, p, m))
        rng.shuffle(pool)
        for x in pool[:4]:
            for y in pool[:4]:
                i, j = support_codim(x), support_codim(y)
                report = gerstenhaber(x, y)
                pairs += 1
                if report.result.is_zero():
                    continue
                assert report.result.degree == x.degree + y.degree - 1
                for k in sorted(report.result.terms):
                    assert geometry(group, k).codim == i + j, name
    assert pairs >= 20
