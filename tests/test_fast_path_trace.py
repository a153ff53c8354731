"""The fast path eliminates through linalg's traced entry points,
computes no determinant, minor or substitution from scratch, and averages
over the group class by class.

Minors come from `minor_row`'s expansion and monomial images from
`monomial_image`'s recurrence; `det`, `minor_det` and `subst_matrix` are
left to the chain-level oracle.  This runs cohomology and a bracket on a
freshly loaded group under the benchmark's tracer (perfbench/tracer.py)
and reads its counters, so a change that puts one of them back on the
fast path, or hides elimination from `linalg.elim`, fails here.  A
`reynolds` that walks all of G again fails on its `act` count, and so
do bracket preconditions that act on every component with every
generator of G, or on a class representative once per generator of its
centralizer, or project every component, or check a class again at
every bracket it enters, and a `project` that moves
a component it keeps whole back from adapted coordinates; an `act` that multiplies `Cyc`s on warm
caches fails on `scalars.mul`, and so does a `wedge` that multiplies them,
a `monomial_image` that multiplies or inverts them on a cold cache, and a
`row_times` that multiplies or inverts them; a
`schouten` that multiplies `Cyc`s or takes the two circle products
apart fails on `scalars.mul` and `polyvec.circle_product`, and a
character count that goes through the fast path fails on its counters.
A perp test that reads geometry or solves a system per basis vector
fails on `groups.geometry` and `linalg.elim`.
"""

from fractions import Fraction
from pathlib import Path

import pytest

from helpers import load_tracer, matmul
from skewbrack import bracket
from skewbrack.bracket import gerstenhaber
from skewbrack.cli import load_group_file
from skewbrack.cochain import (
    Cochain,
    ambient_keys,
    cohomology_basis,
    cohomology_dim_character,
    cohomology_dim_direct,
    project,
    reynolds,
)
from skewbrack.fixtures import EXAMPLES
from skewbrack.groups import geometry, resolve_word
from skewbrack.koszul import chain_bracket_avatar
from skewbrack.linalg import Matrix
from skewbrack import linalg, polyvec
from skewbrack.polyvec import Poly, Polyvector
from skewbrack.scalars import Cyc

ROOT = Path(__file__).resolve().parent.parent
D4 = ROOT / "perfbench" / "data" / "groups" / "d4.json"
D5 = ROOT / "perfbench" / "data" / "groups" / "d5.json"
S4 = ROOT / "perfbench" / "data" / "groups" / "s4.json"
S5 = ROOT / "perfbench" / "data" / "groups" / "s5.json"
ROT = ROOT / "perfbench" / "data" / "groups" / "rot.json"
BT = EXAMPLES / "binary_tetrahedral_k2_z4.json"


def test_fast_path_calls_no_det_minor_or_substitution():
    tracer = load_tracer().Tracer()
    with tracer:
        group, _ = load_group_file(str(D5))
        basis = cohomology_basis(group, 2, 1)
        dims = [cohomology_dim_direct(group, p, m) for p in range(4) for m in range(5)]
        report = gerstenhaber(basis[0], basis[-1])
    counts = tracer.counts()
    assert len(basis) == cohomology_dim_direct(group, 2, 1) and sum(dims) > 0
    assert report.result.degree == 3
    assert counts["linalg.elim.calls"] > 0
    assert counts["polyvec.act.calls"] > 0
    assert counts["polyvec.minor_det.calls"] == 0
    assert counts["polyvec.subst_matrix.calls"] == 0
    assert counts["linalg.det.calls"] == 0


def test_reynolds_acts_once_per_component_and_once_per_centralizer():
    # class by class: one act call moves each component to the class
    # representative, one averages over its centralizer, and one spreads
    # the average to each class member; walking all of G would take 400
    group, _ = load_group_file(str(S5))
    c = next(b for b in cohomology_basis(group, 2, 1) if len(b.terms) == 20)
    tracer = load_tracer().Tracer()
    with tracer:
        r = reynolds(c)
    assert r == c
    assert tracer.counts()["polyvec.act.calls"] <= 2 * 20 + 1


def test_warm_action_multiplies_no_scalars():
    # once the minors and monomial images are cached on the matrices, act
    # sums plain ints and builds each output coefficient once: a Cyc
    # product inside it would show on the scalars.mul counter
    calls = []
    for path in (S5, D5):
        group, _ = load_group_file(str(path))
        n, order = group.dim, group.scalar_order
        x = sum((Polyvector.term(Fraction(k + 1, 2), exps, idx, order)
                 for k, (idx, exps) in enumerate(ambient_keys(n, 2, 2))),
                Polyvector.zero(n, order))
        cent = max(group.centralizers, key=len)
        calls.append((x, [group.actions[h] for h in cent]))
    cold = [polyvec.act(x, pairs) for x, pairs in calls]
    tracer = load_tracer().Tracer()
    with tracer:
        # through the module, so that the tracer's wrapper sees the calls
        warm = [polyvec.act(x, pairs) for x, pairs in calls]
    counts = tracer.counts()
    assert warm == cold and not any(a.is_zero() for a in warm)
    assert counts["polyvec.act.calls"] == 2
    assert counts["scalars.mul.calls"] == 0


def test_schouten_is_one_integer_circle_product():
    # both circle products of the graded commutator go through one
    # circle_product call that sums plain ints: a Cyc product inside it
    # would show on the scalars.mul counter
    pairs = []
    for order in (5, 6):
        z = Cyc.zeta(order)
        x = (Polyvector.term(z * Fraction(1, 2), (1, 1, 0), (0, 1), order)
             + Polyvector.term(Cyc.zeta(order, 2) - 1, (0, 2, 1), (1, 2), order))
        y = (Polyvector.term(Cyc.zeta(order, 3) * Fraction(2, 3), (2, 0, 1), (2,), order)
             + Polyvector.term(Fraction(-1, 2), (0, 1, 0), (0,), order))
        pairs.append((x, y))
    want = [chain_bracket_avatar(x, Matrix.identity(3, x.order),
                                 y, Matrix.identity(3, y.order)) for x, y in pairs]
    tracer = load_tracer().Tracer()
    with tracer:
        got = [polyvec.schouten(x, y) for x, y in pairs]
    counts = tracer.counts()
    assert got == want and not any(r.is_zero() for r in got)
    assert counts["polyvec.circle_product.calls"] == len(pairs)
    assert counts["scalars.mul.calls"] == 0


def test_wedge_multiplies_no_scalars():
    # wedge sums each output coefficient in plain ints and builds it
    # once, as act and circle_product do: a Cyc product inside it would
    # show on the scalars.mul counter
    def plus(e1, e2):
        return tuple(a + b for a, b in zip(e1, e2))

    pairs, want = [], []
    for order in (5, 6):
        z = Cyc.zeta(order)
        z2, z3 = Cyc.zeta(order, 2), Cyc.zeta(order, 3)
        (a, ea), (b, eb) = (z * Fraction(1, 2), (1, 1, 0)), (z2 - 1, (0, 2, 1))
        (c, ec), (e, ee) = (z3 * Fraction(2, 3), (2, 0, 1)), (Fraction(-1, 3), (0, 1, 0))
        x = Polyvector.term(a, ea, (0,), order) + Polyvector.term(b, eb, (1,), order)
        y = Polyvector.term(c, ec, (2,), order) + Polyvector.term(e, ee, (0, 2), order)
        pairs.append((x, y))
        # d1 ^ d1 ^ d3 = 0, and d2 ^ d1 ^ d3 is term's normalization
        want.append(Polyvector.term(a * c, plus(ea, ec), (0, 2), order)
                    + Polyvector.term(b * c, plus(eb, ec), (1, 2), order)
                    + Polyvector.term(b * e, plus(eb, ee), (1, 0, 2), order))
    tracer = load_tracer().Tracer()
    with tracer:
        got = [x.wedge(y) for x, y in pairs]
    assert got == want and all(len(w.terms) == 3 for w in got)
    assert tracer.counts()["scalars.mul.calls"] == 0


def test_echelon_rescales_no_row_whose_pivot_is_one():
    # each row of a permutation matrix is a single 1 in its own column:
    # nothing to clear, and no pivot to invert or divide out
    group, _ = load_group_file(str(S5))
    perm = next(a for a in group.matrices if all(r[i] == 0 for i, r in enumerate(a.rows)))
    rows = linalg._sparse(perm.rows)
    tracer = load_tracer().Tracer()
    with tracer:
        pivots = linalg._echelon(rows)
    counts = tracer.counts()
    assert sorted(pivots) == list(range(group.dim))
    assert all(row == {p: 1} for p, row in pivots.items())
    assert counts["scalars.inverse.calls"] == 0
    assert counts["scalars.mul.calls"] == 0


def test_row_products_multiply_and_invert_no_scalars():
    # fractional entries over Q(zeta5) and Q(zeta6), so that the sums widen
    # their denominators: each entry of a row times a matrix is summed in
    # plain ints and reduced once, with no Cyc product or inverse
    mats = []
    for order in (5, 6):
        z, z2 = Cyc.zeta(order), Cyc.zeta(order, 2)
        mats.append(Matrix(order, [[z * Fraction(1, 2), 0, Fraction(-2, 3)],
                                   [1, z2 - 1, z * Fraction(3, 5)],
                                   [0, Fraction(1, 7), z2 * Fraction(-5, 4)]]))
    want = [r for m in mats for r in matmul(m, m).rows]
    tracer = load_tracer().Tracer()
    with tracer:
        got = [linalg.row_times(r, m) for m in mats for r in m.rows]
    counts = tracer.counts()
    assert got == want
    assert counts["scalars.mul.calls"] == 0
    assert counts["scalars.inverse.calls"] == 0


def test_single_row_minors_are_the_row_itself():
    # the 1x1 minors are the entries, expanded against the kept empty
    # minor 1 in plain ints with no Cyc product, each kept as (cols,
    # denominator, nonzero (place, numerator) pairs)
    z = Cyc.zeta(5)
    m = Matrix(5, [[z, 0, Fraction(-2, 3)], [1, Cyc.zeta(5, 3) - 1, 0], [0, 0, -z]])
    tracer = load_tracer().Tracer()
    with tracer:
        got = [polyvec.minor_row(m, (i,)) for i in range(3)]
    assert got == [tuple(((j,), a.den, tuple((p, b) for p, b in enumerate(a.num) if b))
                         for j, a in enumerate(r) if a) for r in m.rows]
    assert tracer.counts()["scalars.mul.calls"] == 0


def test_cold_monomial_images_multiply_and_invert_no_scalars():
    # a fresh matrix over Q(zeta4) with entries of denominator 2: each
    # image is a column times a kept image, summed in plain ints and
    # reduced once, with no Cyc product or inverse, also when the cache
    # starts empty
    group, _ = load_group_file(str(BT))
    h = next(a for a in group.matrices if any(e.den > 1 for r in a.rows for e in r))
    m = Matrix(h.order, h.rows)
    exps = [(i, j) for i in range(4) for j in range(4)]
    tracer = load_tracer().Tracer()
    with tracer:
        got = [polyvec.monomial_image(m, e) for e in exps]
    counts = tracer.counts()
    for e, image in zip(exps, got):
        want = polyvec.subst_matrix(polyvec.Poly.monomial(e, 1, m.order), m)
        assert {k: (den, pairs) for k, den, pairs in image} == {
            k: (c.den, tuple((p, a) for p, a in enumerate(c.num) if a))
            for k, c in want.terms.items()}
    assert any(den > 1 for image in got for _, den, _ in image)
    assert counts["scalars.mul.calls"] == 0
    assert counts["scalars.inverse.calls"] == 0


def test_character_count_shares_no_code_with_the_fast_path():
    # the CLI's cross-check reads traces and the group's tables only: no
    # action, elimination, geometry or centralizer average, also on a
    # nonabelian non-diagonal action over Q(zeta4)
    groups = [load_group_file(str(path))[0] for path in (D5, ROT, BT)]
    tracer = load_tracer().Tracer()
    with tracer:
        dims = [sum(cohomology_dim_character(group, p, m))
                for group in groups for p in range(group.dim + 1) for m in range(3)]
    counts = tracer.counts()
    assert sum(dims) > 0
    assert counts["polyvec.act.calls"] == 0
    assert counts["linalg.elim.calls"] == 0
    assert counts["groups.geometry.calls"] == 0
    assert counts["cochain.centralizer_reynolds.calls"] == 0


def fresh(c):
    """c again through the constructor: a value of its own, whose proof
    memo is empty, so that the bracket checks it."""
    return Cochain(c.group, c.degree, c.terms)


def precondition_acts(pairs, check_invariance=True):
    """The act calls of the preconditions of the bracket of each pair:
    every pair of components is stubbed to vanish, so that nothing else
    acts."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bracket, "pair_commutator", lambda *args: "schouten zero")
        if not check_invariance:
            patch.setattr(bracket, "is_invariant", lambda c: True)
        tracer = load_tracer().Tracer()
        with tracer:
            assert all(gerstenhaber(x, y).result.is_zero() for x, y in pairs)
    counts = tracer.counts()
    # neither check builds or projects a cochain, or acts on one whole
    assert counts["cochain.act_cochain.calls"] == 0
    assert counts["cochain.project.calls"] == 0
    return counts["polyvec.act.calls"]


def checks_acts(group, c):
    """The act calls of checking c once: |cls| per class of its support,
    one averaged over the generators of C(r) (none when C(r) has none)
    and one per other member, and one per representative with codim > 0
    for reduced form."""
    invariance = reduced = 0
    for cls, gens in zip(group.conj_classes, group.centralizer_gens):
        if cls[0] in c.terms:
            invariance += bool(gens) + len(cls) - 1
            reduced += geometry(group, cls[0]).codim > 0
    return invariance, reduced


def test_preconditions_act_once_per_class_member_and_centralizer_generator():
    # invariance is checked per class: |cls| act calls, one averaged over
    # the generators of C(r) and one per other member, against 2 |cls|
    # on S4 (2,0) classes of eight components when every component was
    # acted on by every generator of G; reduced form is checked at the
    # class representatives, one act call per representative with
    # codim > 0, against sixteen when every component is projected.
    # y is built through the constructor, so it is checked itself, not
    # through x as a multiple of x would be
    group, _ = load_group_file(str(S4))
    (x,) = [c for c in cohomology_basis(group, 2, 0) if len(c.terms) == 8]
    y = Cochain(group, 2, {g: pv * Cyc.of(-3, 1) for g, pv in x.terms.items()})
    invariance = reduced = 0
    for c in (x, y):
        for cls, gens in zip(group.conj_classes, group.centralizer_gens):
            if cls[0] in c.terms:
                assert len(gens) == 1
                invariance += len(cls)
                reduced += geometry(group, cls[0]).codim > 0
    assert (invariance, reduced) == (2 * 8, 2)
    assert sum(geometry(group, g).codim > 0 for c in (x, y) for g in c.terms) == 16

    assert precondition_acts([(fresh(x), fresh(y))], False) == reduced
    assert precondition_acts([(fresh(x), fresh(y))]) == invariance + reduced

    # x1 d1 + ... + x5 d5 at the identity of S5, whose centralizer G has
    # two generators: one act call for each operand's one class, where a
    # call per generator makes two, and no reduced-form call at codim 0
    group, _ = load_group_file(str(S5))
    n = group.dim
    pv = Polyvector(n, 1, {(i,): Poly.monomial(tuple(int(j == i) for j in range(n)), 1, 1)
                           for i in range(n)})
    e = Cochain(group, 1, {0: pv})
    assert group.conj_classes[0] == (0,) and len(group.centralizer_gens[0]) == 2
    assert precondition_acts([(fresh(e), fresh(e))], False) == 0
    assert precondition_acts([(fresh(e), fresh(e))]) == 2


def test_preconditions_check_each_basis_class_once_over_all_pairs():
    # every ordered pair of the n (2,1) classes of S4 bracketed: each
    # class is checked at its first bracket and kept proven, so the
    # preconditions act as often as checking the n classes once, where
    # checking both operands of every bracket acts n times as often; a
    # sum, difference or multiple of the classes is proven through them
    # and acts not at all
    group, _ = load_group_file(str(S4))
    basis = [fresh(b) for b in cohomology_basis(group, 2, 1)]
    once = sum(sum(checks_acts(group, b)) for b in basis)
    assert len(basis) == 3 and once > 0
    assert precondition_acts([(x, y) for x in basis for y in basis]) == once
    a, b, c = basis
    combinations = [a * 2 + b, b - c, -c, Cochain.zero(group, 2) + a * Cyc.of(-3, 1)]
    assert precondition_acts([(x, y) for x in combinations for y in combinations]) == 0
    # the same classes checked once per bracket, as each operand was
    # before proofs were kept
    fresh_pairs = [(fresh(x), fresh(y)) for x in basis for y in basis]
    assert precondition_acts(fresh_pairs) == 2 * len(basis) * once


def test_perp_is_one_echelon_per_intersection_and_reads_no_geometry():
    # the intersection of the moved subspaces is one echelon form of the
    # columns of 1 - g and 1 - h, and the image of it under the
    # generators is one more for each distinct conjugate pair other than
    # (g, h): no geometry, transpose or membership system per basis vector
    def echelons(group, g, h):
        mult, inverses = group.mult_table, group.inverses
        pairs = {(mult[mult[s][g]][inverses[s]], mult[mult[s][h]][inverses[s]])
                 for s in group.generator_indices} - {(g, h)}
        tracer = load_tracer().Tracer()
        with tracer:
            assert bracket.perp_vanishing_applies(group, g, h)
        counts = tracer.counts()
        assert counts["groups.geometry.calls"] == 0
        assert counts["bracket.moved_intersection.calls"] == counts["linalg.elim.calls"]
        assert counts["linalg.elim.calls"] == 1 + len(pairs)
        return counts["linalg.elim.calls"]

    # the line of e2, which both generators keep; the group is abelian,
    # so neither moves the pair, and the one echelon form decides
    group, _ = load_group_file(str(EXAMPLES / "overlap_signs_k3.json"))
    assert echelons(group, *group.generator_indices) == 1
    # the line of e3 for the pair (g1*g2, g2*g1) of D4: each generator
    # conjugates it to (g2*g1, g1*g2), one pair and one echelon form more
    group, _ = load_group_file(str(D4))
    assert echelons(group, resolve_word(group, "g1*g2"), resolve_word(group, "g2*g1")) == 2


def test_project_keeps_reduced_components_with_one_act_each():
    # a reduced cochain loses no term, so each component with codim > 0
    # goes to adapted coordinates once and is kept as it is, unmoved back
    group, _ = load_group_file(str(S4))
    (x,) = [c for c in cohomology_basis(group, 2, 0) if len(c.terms) == 8]
    moved = sum(geometry(group, g).codim > 0 for g in x.terms)
    assert moved == 8
    tracer = load_tracer().Tracer()
    with tracer:
        projected = project(x)
    assert tracer.counts()["polyvec.act.calls"] == moved
    assert projected.terms.keys() == x.terms.keys()
    assert all(projected.terms[g] is x.terms[g] for g in x.terms)
