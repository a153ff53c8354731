"""Acceptance suite: one test per shipped guarantee, exact arithmetic
throughout, zero tolerance.  Each test prints a single pass line; any
deviation fails the corresponding assertion instead."""

import random
import time
from math import comb

from helpers import minimal_pair_k5, trivial_group_k
from skewbrack.polyvec import Polyvector, schouten_graded_laws
from skewbrack.groups import geometry, resolve_word
from skewbrack.cochain import (
    cohomology_basis,
    cohomology_dim_direct,
    is_cocycle,
    is_invariant,
    is_reduced,
    reynolds,
    support_codim,
    volume_form,
)
from skewbrack.bracket import gerstenhaber, perp_vanishing_applies
from skewbrack.koszul import (
    appendix_suite,
    chain_bracket_cochain,
    homotopy_sweep,
    schouten_random_check,
)
from skewbrack.fixtures import bracket_pair, fixture_groups


def test_criterion_01_appendix_identity_sweep():
    start = time.monotonic()
    entries = appendix_suite(6)
    elapsed = time.monotonic() - start
    names = {name for name, _, _ in entries}
    assert len(names) == 17
    failures = [(name, tup) for name, tup, holds in entries if not holds]
    assert failures == []
    assert elapsed < 10.0
    print(f"criterion 1: PASS - 17/17 coefficient identities on "
          f"{len(entries)} tuples (s,t,z <= 6) in {elapsed:.2f}s")


def test_criterion_02_homotopy_residual_exhaustive():
    start = time.monotonic()
    checked, failures = homotopy_sweep(3, 2, 2, 3)
    elapsed = time.monotonic() - start
    assert checked >= 980
    assert failures == []
    assert elapsed < 60.0
    print(f"criterion 2: PASS - homotopy residual zero on {checked} basis "
          f"inputs (dim 3, s,z <= 2, t <= 3, repeats included) in "
          f"{elapsed:.2f}s")


def test_criterion_03_schouten_agreement_and_graded_laws():
    checked_r, fail_r = schouten_random_check(50, seed=0)
    assert checked_r == 50 and fail_r == []
    total = 0
    for n in (1, 2, 3):
        checked_l, fail_l = schouten_graded_laws(n)
        assert fail_l == []
        total += checked_l
    print(f"criterion 3: PASS - chain bracket equals the derivation "
          f"commutator on 50 random pairs; antisymmetry and jacobi hold "
          f"on {total} basis tuples (dim <= 3)")


def test_criterion_04_sign_pair_worked_example():
    group, x, y, expected = bracket_pair("klein-signs-k3")
    chain = chain_bracket_cochain(x, y)
    assert chain == expected
    gh = resolve_word(group, "g1*g2")
    omega = volume_form(group, gh)
    d2 = Polyvector.term(1, (0, 0, 0), (1,), 1)
    assert chain.terms[gh] == omega.wedge(d2)
    assert reynolds(x).is_zero()
    assert reynolds(y).is_zero()
    print("criterion 4: PASS - chain bracket of the k^3 sign pair is "
          "omega_gh ^ d2 at g1*g2 and both classes average to zero")


def test_criterion_05_plane_pair_worked_examples():
    for name in ("two-sign-pairs-k5", "rotation-k5-z6"):
        group, x, y, expected = bracket_pair(name)
        report = gerstenhaber(x, y)
        assert report.result == expected
        assert not report.result.is_zero()
        assert report.result.degree == 4
        s, t = resolve_word(group, "g1"), resolve_word(group, "g2")
        assert not perp_vanishing_applies(group, s, t)
    print("criterion 5: PASS - both plane-pair brackets equal the product "
          "volume class in degree 4 and the perp criterion does not apply")


def test_criterion_06_degree_one_pieces_vanish():
    groups = fixture_groups()
    cases = {
        "signs on k^3": groups["klein-signs-k3"],
        "sign on k^1": groups["sign-k1"],
        "sign line on k^2": groups["sign-line-k2"],
        "minus identity on k^2": groups["neg-identity-k2"],
        "swap on k^2": groups["swap-k2"],
    }
    # a reflection acts on the normal line of its mirror by its eigenvalue
    # other than 1, so its own component of a class is never invariant
    with_reflection = [name for name, group in cases.items()
                       if any(geometry(group, g).codim == 1 for g in range(len(group)))]
    assert with_reflection, "no case group has a codimension-one element"
    checked = 0
    for name, group in cases.items():
        for p in range(group.dim + 1):
            for m in range(4):
                for c in cohomology_basis(group, p, m):
                    checked += 1
                    for g in sorted(c.terms):
                        assert geometry(group, g).codim != 1, (name, p, m)
    assert checked > 0
    print(f"criterion 6: PASS - no cohomology class has a term at a codimension-one "
          f"element on {len(cases)} fixtures, {len(with_reflection)} of them with a "
          f"reflection ({checked} classes, m <= 3)")


def test_criterion_07_codimension_grading_random_pairs():
    rng = random.Random(11)
    pairs = nonzero = 0
    for name, group in fixture_groups().items():
        pool = []
        p_cap = 2 if group.dim > 3 else group.dim
        m_cap = 1 if group.dim > 3 else 2
        for p in range(1, p_cap + 1):
            for m in range(m_cap + 1):
                pool.extend(cohomology_basis(group, p, m))
        if not pool:
            continue
        for _ in range(6):
            x, y = rng.choice(pool), rng.choice(pool)
            i, j = support_codim(x), support_codim(y)
            report = gerstenhaber(x, y)
            pairs += 1
            assert report.result.degree == x.degree + y.degree - 1
            if report.result.is_zero():
                continue
            nonzero += 1
            for k in sorted(report.result.terms):
                assert geometry(group, k).codim == i + j, name
    assert pairs >= 20
    print(f"criterion 7: PASS - {pairs} random invariant reduced pairs; "
          f"all {nonzero} nonzero brackets land in D(i+j) with degree "
          f"|x|+|y|-1")


def test_criterion_08_minimal_degree_vanishing():
    found = 0
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
        found += len(minimal)
        for x in minimal:
            for y in minimal:
                assert gerstenhaber(x, y).result.is_zero(), name
    group, x, y = minimal_pair_k5()
    assert gerstenhaber(x, y).result.is_zero()
    assert found > 0
    print(f"criterion 8: PASS - {found} minimal classes (exterior part "
          f"exactly the moved volume form) found off-kernel; every mutual "
          f"bracket is exactly zero")


def test_criterion_09_dimension_cross_check():
    start = time.monotonic()
    total = 0
    for name, group in fixture_groups().items():
        for p in range(min(group.dim, 3) + 1):
            for m in range(4):
                basis = cohomology_basis(group, p, m)
                direct = cohomology_dim_direct(group, p, m)
                assert len(basis) == direct, (name, p, m)
                total += len(basis)
    for n in (1, 2, 3):
        group = trivial_group_k(n)
        for p in range(min(n, 3) + 1):
            for m in range(4):
                want = comb(m + n - 1, n - 1) * comb(n, p)
                assert len(cohomology_basis(group, p, m)) == want
                assert cohomology_dim_direct(group, p, m) == want
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    print(f"criterion 9: PASS - basis size equals the direct dimension on "
          f"every fixture group (p <= 3, m <= 3, {total} classes) and the "
          f"trivial-group counts match, in {elapsed:.1f}s")


def test_criterion_10_perp_vanishing_fixture():
    group, x, y = bracket_pair("overlap-signs-k3")
    g, h = resolve_word(group, "g1"), resolve_word(group, "g2")
    assert perp_vanishing_applies(group, g, h)
    pool_g, pool_h = [], []
    for p in range(1, 4):
        for m in range(3):
            for c in cohomology_basis(group, p, m):
                support = set(c.terms)
                if support == {g}:
                    pool_g.append(c)
                elif support == {h}:
                    pool_h.append(c)
    assert x in pool_g or any(c == x for c in pool_g)
    checked = 0
    for cx in pool_g:
        for cy in pool_h:
            assert gerstenhaber(cx, cy).result.is_zero()
            assert gerstenhaber(cy, cx).result.is_zero()
            checked += 2
    assert checked > 0
    print(f"criterion 10: PASS - overlapping moved subspaces are G-stable "
          f"and all {checked} cross-class brackets vanish exactly")
