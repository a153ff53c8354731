"""The fast path eliminates through linalg's traced entry points,
computes no determinant, minor or substitution from scratch, and averages
over the group class by class.

Minors come from `minor_row`'s expansion and monomial images from
`monomial_image`'s recurrence; `det`, `minor_det` and `subst_matrix` are
left to the chain-level oracle.  This runs cohomology and a bracket on a
freshly loaded group under the benchmark's tracer (perfbench/tracer.py)
and reads its counters, so a change that puts one of them back on the
fast path, or hides elimination from `linalg.elim`, fails here.  A
`reynolds` that walks all of G again fails on its `act` count.
"""

from pathlib import Path

from helpers import load_tracer
from skewbrack.bracket import gerstenhaber
from skewbrack.cli import load_group_file
from skewbrack.cochain import cohomology_basis, cohomology_dim_direct, reynolds

ROOT = Path(__file__).resolve().parent.parent
D5 = ROOT / "perfbench" / "data" / "groups" / "d5.json"
S5 = ROOT / "perfbench" / "data" / "groups" / "s5.json"


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
