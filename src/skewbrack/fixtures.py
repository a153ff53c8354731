"""Small reference actions and decorated classes used by the verify
command and the regression tests.

Everything here is built from scratch on each call; the constructors
return immutable values, so sharing is safe.
"""

from math import lcm

from .cochain import Cochain
from .groups import enumerate_group, resolve_word
from .linalg import Matrix
from .polyvec import Polyvector
from .scalars import Cyc


def _diag(order, entries):
    n = len(entries)
    rows = [[entries[i] if i == j else Cyc.zero(order) for j in range(n)]
            for i in range(n)]
    return Matrix(order, [[Cyc.of(v, order) for v in r] for r in rows])


def sign_group_k1():
    """Z/2 acting by -1 on a line."""
    return enumerate_group([_diag(1, [-1])])


def sign_line_k2():
    """Z/2 negating the first coordinate of the plane."""
    return enumerate_group([_diag(1, [-1, 1])])


def neg_identity_k2():
    """Z/2 acting by -1 on the whole plane."""
    return enumerate_group([_diag(1, [-1, -1])])


def swap_group_k2():
    """Z/2 exchanging the two plane coordinates."""
    one, zero = Cyc.one(1), Cyc.zero(1)
    return enumerate_group([Matrix(1, [[zero, one], [one, zero]])])


def klein_signs_k3():
    """Z/2 x Z/2 on k^3: the generators negate the first and the last
    coordinate."""
    return enumerate_group([_diag(1, [-1, 1, 1]), _diag(1, [1, 1, -1])])


def klein_bracket_pair():
    """The sign-action pair on k^3 whose chain-level bracket is a single
    wedge at the product element; both classes average to zero.

    Returns (group, x, y, expected bracket).
    """
    group = klein_signs_k3()
    g = resolve_word(group, "g1")
    h = resolve_word(group, "g2")
    gh = resolve_word(group, "g1*g2")
    x = Cochain.single(group, g, Polyvector.term(1, (0, 0, 0), (0, 1), 1))
    y = Cochain.single(group, h, Polyvector.term(1, (0, 1, 0), (2, 1), 1))
    expected = Cochain.single(group, gh, Polyvector.term(-1, (0, 0, 0), (0, 1, 2), 1))
    return group, x, y, expected


def plane_rotation_pair_k5(first_order, second_order):
    """Product of two cyclic groups on k^5: the first generator rotates
    the (x1, x2) plane by a primitive root of unity, the second the
    (x4, x5) plane; x3 is fixed by everything."""
    field = lcm(first_order, second_order)
    if field <= 2:
        field = 1
    if first_order == 2:
        a, a_inv = Cyc.of(-1, field), Cyc.of(-1, field)
    else:
        step = field // first_order
        a, a_inv = Cyc.zeta(field, step), Cyc.zeta(field, -step)
    if second_order == 2:
        b, b_inv = Cyc.of(-1, field), Cyc.of(-1, field)
    else:
        step = field // second_order
        b, b_inv = Cyc.zeta(field, step), Cyc.zeta(field, -step)
    one = Cyc.one(field)
    sigma = _diag(field, [a, a_inv, one, one, one])
    tau = _diag(field, [one, one, one, b, b_inv])
    return enumerate_group([sigma, tau])


def rotation_bracket_pair(first_order, second_order):
    """The invariant reduced pair on k^5 with a nonvanishing bracket.

    x is the volume form of the first rotation extended by one fixed
    direction; y carries the fixed variable times the volume form of the
    second.  Returns (group, x, y, expected bracket).
    """
    group = plane_rotation_pair_k5(first_order, second_order)
    field = group.scalar_order
    s = resolve_word(group, "g1")
    t = resolve_word(group, "g2")
    st = resolve_word(group, "g1*g2")
    zeros = (0, 0, 0, 0, 0)
    x = Cochain.single(group, s, Polyvector.term(1, zeros, (0, 1, 2), field))
    y = Cochain.single(group, t, Polyvector.term(1, (0, 0, 1, 0, 0), (3, 4), field))
    expected = Cochain.single(group, st, Polyvector.term(1, zeros, (0, 1, 3, 4), field))
    return group, x, y, expected


def overlap_signs_k3():
    """Z/2 x Z/2 on k^3 whose two generators both negate the middle
    coordinate, so their moved subspaces overlap in a stable line."""
    return enumerate_group([_diag(1, [-1, -1, 1]), _diag(1, [1, -1, -1])])


def overlap_bracket_pair():
    """Invariant reduced minimal classes on the overlapping sign action;
    their bracket vanishes identically.  Returns (group, x, y)."""
    group = overlap_signs_k3()
    g = resolve_word(group, "g1")
    h = resolve_word(group, "g2")
    x = Cochain.single(group, g, Polyvector.term(1, (0, 0, 1), (0, 1), 1))
    y = Cochain.single(group, h, Polyvector.term(1, (1, 0, 0), (1, 2), 1))
    return group, x, y


def fixture_groups():
    """Name -> group, for sweep-style checks."""
    return {
        "sign-k1": sign_group_k1(),
        "sign-line-k2": sign_line_k2(),
        "neg-identity-k2": neg_identity_k2(),
        "swap-k2": swap_group_k2(),
        "klein-signs-k3": klein_signs_k3(),
        "overlap-signs-k3": overlap_signs_k3(),
        "two-sign-pairs-k5": plane_rotation_pair_k5(2, 2),
    }
