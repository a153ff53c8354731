"""The imprimitive complex reflection groups G(m, p, n) (Shephard and
Todd, "Finite unitary reflection groups", Canad. J. Math. 6 (1954)) as
a test family: nonabelian, over Q(zeta_m), and, conjugated by
alternating_unipotent, acting by matrices that are not monomial.  On
each, the three cohomology counts agree, and the bracket of basis
classes equals the chain-level oracle's: on a fixed list of groups, and
on groups Hypothesis draws from the family."""

from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from helpers import alternating_unipotent, conjugate_group, imprimitive_reflection_group
from skewbrack.bracket import gerstenhaber
from skewbrack.cochain import (
    cohomology_basis,
    cohomology_dim_character,
    cohomology_dim_direct,
    project,
)
from skewbrack.koszul import chain_bracket_cochain

# (m, p, n) -> the nonzero dimensions of the pieces (q, k) with q <= n
# and k <= 2, and (brackets, nonzero brackets) over the pairs of them
CASES = {
    (3, 1, 2): ({(0, 0): 1, (1, 1): 1}, (1, 0)),
    (4, 2, 2): ({(0, 0): 1, (1, 1): 1}, (1, 0)),
    (4, 4, 2): ({(0, 0): 1, (0, 2): 1, (1, 1): 1, (2, 0): 1}, (4, 2)),
    (5, 5, 2): ({(0, 0): 1, (0, 2): 1, (1, 1): 1, (2, 0): 2}, (9, 4)),
    (6, 3, 2): ({(0, 0): 1, (1, 1): 1, (2, 0): 1}, (4, 2)),
    (3, 3, 3): ({(0, 0): 1, (1, 1): 1, (2, 2): 4, (3, 0): 4}, (49, 6)),
    (4, 4, 3): ({(0, 0): 1, (1, 1): 1, (2, 0): 1, (2, 1): 1, (2, 2): 1, (3, 0): 2,
                 (3, 1): 1, (3, 2): 1}, (64, 12)),
}
# each group as it is, and the two largest also conjugated to actions
# that are not monomial
RUNS = [(case, False) for case in CASES] + [((3, 3, 3), True), ((4, 4, 3), True)]


@pytest.mark.parametrize("case, dense", RUNS,
                         ids=[f"G{case}{'-dense' if dense else ''}" for case, dense in RUNS])
def test_counts_agree_and_brackets_equal_the_oracle(case, dense):
    m, p, n = case
    group = imprimitive_reflection_group(m, p, n)
    assert len(group.matrices) == m ** n * factorial(n) // p
    if dense:
        group = conjugate_group(group, *alternating_unipotent(n, m))
        assert any(sum(1 for e in col if e) > 1 for a in group.matrices for col in zip(*a.rows))
    dims, found = CASES[m, p, n]
    pieces = {}
    for q in range(n + 1):
        for k in range(3):
            basis = cohomology_basis(group, q, k)
            assert len(basis) == cohomology_dim_character(group, q, k), (q, k)
            assert len(basis) == cohomology_dim_direct(group, q, k), (q, k)
            if basis:
                pieces[q, k] = basis
    assert {key: len(basis) for key, basis in pieces.items()} == dims
    # up to 3 x 3 basis classes of each ordered pair of pieces with q >= 1
    pool = [x for (q, _), basis in pieces.items() if q >= 1 for x in basis[:3]]
    nonzero = 0
    for x in pool:
        for y in pool:
            result = gerstenhaber(x, y).result
            assert result == project(chain_bracket_cochain(x, y)), (x, y)
            nonzero += not result.is_zero()
    assert (len(pool) ** 2, nonzero) == found


# every G(m, p, n) with m <= 6, p dividing m, n in {2, 3} and order at
# most 200
DRAWN = [(m, p, n) for n in (2, 3) for m in range(1, 7) for p in range(1, m + 1)
         if m % p == 0 and m ** n * factorial(n) // p <= 200]


@settings(max_examples=10, deadline=None)
@given(st.data())
def test_drawn_groups_agree_on_counts_and_with_the_oracle(data):
    m, p, n = data.draw(st.sampled_from(DRAWN), label="(m, p, n)")
    group = imprimitive_reflection_group(m, p, n)
    if data.draw(st.booleans(), label="dense"):
        group = conjugate_group(group, *alternating_unipotent(n, m))
    q, k = data.draw(st.integers(0, n), label="q"), data.draw(st.integers(0, 2), label="k")
    count = len(cohomology_basis(group, q, k))
    assert count == cohomology_dim_character(group, q, k) == cohomology_dim_direct(group, q, k)
    # one basis class from each of two pieces with q >= 1 that the
    # character count finds nonzero; (1, 1) is nonzero on every G(m, p, n)
    pieces = [(q, k) for q in range(1, n + 1) for k in range(3)
              if cohomology_dim_character(group, q, k)]
    pair = []
    for _ in range(2):
        piece = data.draw(st.sampled_from(pieces), label="piece")
        pair.append(data.draw(st.sampled_from(cohomology_basis(group, *piece)), label="class"))
    x, y = pair
    assert gerstenhaber(x, y).result == project(chain_bracket_cochain(x, y))
