"""The fast path eliminates through linalg's traced entry points,
computes no determinant, minor or substitution from scratch, and averages
over the group class by class.

Minors come from `minor_row`'s expansion and monomial images from
`monomial_image`'s recurrence; `det`, `minor_det` and `subst_matrix` are
left to the chain-level oracle.  This runs cohomology and a bracket on a
freshly loaded group under the benchmark's tracer (perfbench/tracer.py)
and reads its counters, so a change that puts one of them back on the
fast path, or hides elimination from `linalg.elim`, fails here.  A
`reynolds` that walks all of G again fails on its `act` count, an `act`
that multiplies `Cyc`s on warm caches fails on `scalars.mul`, a
`schouten` that multiplies `Cyc`s or takes the two circle products
apart fails on `scalars.mul` and `polyvec.circle_product`, and a
character count that goes through the fast path fails on its counters.
"""

from fractions import Fraction
from pathlib import Path

from helpers import load_tracer
from skewbrack.bracket import gerstenhaber
from skewbrack.cli import load_group_file
from skewbrack.cochain import (
    ambient_keys,
    cohomology_basis,
    cohomology_dim_character,
    cohomology_dim_direct,
    reynolds,
)
from skewbrack.koszul import chain_bracket_avatar
from skewbrack.linalg import Matrix
from skewbrack import polyvec
from skewbrack.polyvec import Polyvector
from skewbrack.scalars import Cyc

ROOT = Path(__file__).resolve().parent.parent
D5 = ROOT / "perfbench" / "data" / "groups" / "d5.json"
S5 = ROOT / "perfbench" / "data" / "groups" / "s5.json"
ROT = ROOT / "perfbench" / "data" / "groups" / "rot.json"


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
        calls.append((x, [group.action(h) for h in cent]))
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
             + Polyvector.term(z ** 2 - 1, (0, 2, 1), (1, 2), order))
        y = (Polyvector.term(z ** 3 * Fraction(2, 3), (2, 0, 1), (2,), order)
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


def test_character_count_shares_no_code_with_the_fast_path():
    # the CLI's cross-check reads traces and the group's tables only: no
    # action, elimination, geometry or centralizer average
    groups = [load_group_file(str(path))[0] for path in (D5, ROT)]
    tracer = load_tracer().Tracer()
    with tracer:
        dims = [cohomology_dim_character(group, p, m)
                for group in groups for p in range(4) for m in range(3)]
    counts = tracer.counts()
    assert sum(dims) > 0
    assert counts["polyvec.act.calls"] == 0
    assert counts["linalg.elim.calls"] == 0
    assert counts["groups.geometry.calls"] == 0
    assert counts["cochain.centralizer_reynolds.calls"] == 0
