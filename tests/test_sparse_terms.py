"""Sums, differences, negations and multiples of SparseTerms values.

Arithmetic fills its results through _new, with no second check; these
tests hold it to what the checking constructors build from the same
terms, on Poly, Polyvector, Cochain and KoszulElt.
"""

import importlib.util
import operator
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from skewbrack.cli import load_class_file, load_group_file
from skewbrack.cochain import Cochain
from skewbrack.fixtures import EXAMPLES
from skewbrack.koszul import KoszulElt, KoszulTensor2
from skewbrack.polyvec import Poly, Polyvector, SparseTerms
from skewbrack.scalars import Cyc

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
CLASSES = WORKLOADS.parent / "data" / "classes"

# groups for cochains: Klein four over Q on k^3, binary tetrahedral over
# Q(zeta4) on k^2
GROUPS = {name: load_group_file(str(EXAMPLES / name))[0]
          for name in ("klein_signs_k3.json", "binary_tetrahedral_k2_z4.json")}
Z4_GROUP = GROUPS["binary_tetrahedral_k2_z4.json"]

# Each value is built from a flat dict of its scalar leaves: keys
# exps for a Poly, (wedge, exps) for a Polyvector, (element, wedge,
# exps) for a Cochain and (wedge, left, right) for a KoszulElt.  The
# reference arithmetic works on these dicts in Cyc alone, and build
# nests them through the checking constructors, which drop zeros.


def build(kind, head, flat):
    if kind == "koszul":
        return KoszulElt(*head, flat)
    if kind == "poly":
        return Poly(*head, flat)
    if kind == "cochain":
        group, degree = head
        n, order = group.dim, group.scalar_order
    else:
        n, order = head
    nested = {}
    for key, c in flat.items():
        node = nested
        for part in key[:-1]:
            node = node.setdefault(part, {})
        node[key[-1]] = c

    def polyvector(comps):
        return Polyvector(n, order, {idx: Poly(n, order, terms) for idx, terms in comps.items()})

    if kind == "polyvector":
        return polyvector(nested)
    return Cochain(group, degree, {g: polyvector(comps) for g, comps in nested.items()})


def flat_add(a, b):
    out = dict(a)
    for k, c in b.items():
        out[k] = out[k] + c if k in out else c
    return out


def flat_scale(a, c):
    return {k: v * c for k, v in a.items()}


def assert_clean(x):
    """No value of x, at any depth, is zero."""
    for v in x.terms.values():
        assert not v.is_zero()
        if isinstance(v, SparseTerms):
            assert_clean(v)


@st.composite
def operands(draw):
    """(kind, head, flat a, flat b): b cancels some of a's leaves, a
    whole Poly, a whole component or all of a, and adds leaves of its own
    at keys that may meet a's."""
    kind = draw(st.sampled_from(["poly", "polyvector", "cochain", "koszul"]))
    if kind == "cochain":
        group = GROUPS[draw(st.sampled_from(sorted(GROUPS)))]
        n, order = group.dim, group.scalar_order
        degree = draw(st.integers(0, 2))
        head = (group, degree)
    else:
        order = draw(st.sampled_from([1, 4, 5]))
        n = draw(st.integers(1, 3))
        head = (n, order)
    exps = st.tuples(*[st.integers(0, 1)] * n)
    wedges = [idx for k in range(3) for idx in combinations(range(n), k)]
    if kind == "poly":
        key = exps
    elif kind == "polyvector":
        key = st.tuples(st.sampled_from(wedges), exps)
    elif kind == "cochain":
        key = st.tuples(st.integers(0, 3),
                        st.sampled_from([w for w in wedges if len(w) == degree]), exps)
    else:
        key = st.tuples(st.sampled_from(wedges), exps, exps)
    leaf = st.builds(lambda a, b, k: Cyc.of(Fraction(a, b), order) * Cyc.zeta(order, k),
                     st.sampled_from([-3, -2, -1, 1, 2, 3]), st.integers(1, 3),
                     st.integers(0, order - 1))
    a = draw(st.dictionaries(key, leaf, max_size=6))
    b = draw(st.dictionaries(key, leaf, max_size=4))
    keys = sorted(a, key=repr)
    if keys:
        # the prefix length says what cancels: all of a, one component
        # or Poly, or one leaf
        for depth in draw(st.lists(st.integers(0, len(keys[0])), max_size=3)):
            chosen = draw(st.sampled_from(keys))
            for k in keys:
                if k[:depth] == chosen[:depth]:
                    b[k] = -a[k]
    return kind, head, a, b


SCALARS = st.one_of(st.sampled_from([0, 1, -1, 2, Fraction(-1, 2), Fraction(0)]),
                    st.integers(0, 5).map(lambda k: ("zeta", k)))


@given(operands(), SCALARS)
@settings(max_examples=300, deadline=None)
def test_arithmetic_equals_the_checking_constructors(drawn, c):
    kind, head, a_flat, b_flat = drawn
    a, b = build(kind, head, a_flat), build(kind, head, b_flat)
    order = head[0].scalar_order if kind == "cochain" else head[1]
    if isinstance(c, tuple):
        c = Cyc.zeta(order, c[1])
    neg_b = {k: -v for k, v in b_flat.items()}
    want = {
        "a + b": build(kind, head, flat_add(a_flat, b_flat)),
        "a - b": build(kind, head, flat_add(a_flat, neg_b)),
        "-a": build(kind, head, {k: -v for k, v in a_flat.items()}),
        "a * c": build(kind, head, flat_scale(a_flat, Cyc.of(c, order))),
    }
    got = {"a + b": a + b, "a - b": a - b, "-a": -a, "a * c": a * c}
    for name, value in got.items():
        assert type(value) is type(a), name
        assert value == want[name], name
        assert_clean(value)


@st.composite
def poly_pairs(draw):
    order = draw(st.sampled_from([1, 4, 5]))
    n = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, 2)] * n)
    leaf = st.builds(lambda a, k: Cyc.of(a, order) * Cyc.zeta(order, k),
                     st.sampled_from([-2, -1, 1, 2]), st.integers(0, order - 1))
    flats = st.dictionaries(exps, leaf, max_size=4)
    return n, order, draw(flats), draw(flats)


@given(poly_pairs(), st.integers(0, 2))
@settings(max_examples=200, deadline=None)
def test_poly_product_and_derivative_equal_the_checking_constructor(drawn, i):
    n, order, a_flat, b_flat = drawn
    i %= n
    a, b = Poly(n, order, a_flat), Poly(n, order, b_flat)
    product = {}
    for e1, c1 in a_flat.items():
        product = flat_add(product, {tuple(x + y for x, y in zip(e1, e2)): c1 * c2
                                     for e2, c2 in b_flat.items()})
    deriv = {e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i] for e, c in a_flat.items() if e[i]}
    for got, want in ((a * b, Poly(n, order, product)), (a.deriv(i), Poly(n, order, deriv))):
        assert got == want
        assert_clean(got)


def test_poly_product_drops_the_sums_that_cancel():
    x, y = Poly.monomial((1, 0), 1, 4), Poly.monomial((0, 1), 1, 4)
    square = (x + y * Cyc.zeta(4)) * (x - y * Cyc.zeta(4))
    assert square == x * x + y * y and sorted(square.terms) == [(0, 2), (2, 0)]


def test_a_sum_drops_a_cancelled_coefficient_poly_and_component():
    # a sum that cancels one coefficient, one whole Poly of a polyvector
    # and one whole component of a cochain keeps none of them
    group = GROUPS["klein_signs_k3.json"]
    a = build("cochain", (group, 1), {(0, (0,), (1, 0, 0)): Cyc.of(1, 1),
                                      (0, (0,), (0, 1, 0)): Cyc.of(2, 1),
                                      (0, (1,), (0, 0, 1)): Cyc.of(3, 1),
                                      (1, (2,), (0, 0, 0)): Cyc.of(4, 1)})
    b = build("cochain", (group, 1), {(0, (0,), (1, 0, 0)): Cyc.of(-1, 1),
                                      (0, (1,), (0, 0, 1)): Cyc.of(-3, 1),
                                      (1, (2,), (0, 0, 0)): Cyc.of(-4, 1)})
    total = a + b
    assert total == build("cochain", (group, 1), {(0, (0,), (0, 1, 0)): Cyc.of(2, 1)})
    assert_clean(total)


def test_a_sum_of_two_types_of_one_head_is_refused():
    # the result would be filled unchecked, so the types must agree
    p, v = Poly.monomial((1, 0), 1, 4), Polyvector.term(1, (1, 0), (0,), 4)
    k = KoszulElt(2, 4, {((0,), (0, 0), (1, 0)): 1})
    k2 = KoszulTensor2.term(2, 4, (0,), (1,), (0, 0), (0, 0), (0, 0))
    for x, y in ((p, v), (v, p), (k, k2), (k2, k)):
        assert x.head == y.head
        for op in (lambda: x + y, lambda: x - y):
            with pytest.raises(ValueError, match="mismatch"):
                op()


def valued(kind, zero):
    """A zero or nonzero value of each kind, over Q(zeta4)."""
    n, one = 2, Cyc.one(4)
    flat = {"poly": {(1, 0): one},
            "polyvector": {((0,), (1, 0)): one},
            "cochain": {(0, (0,), (1, 0)): one},
            "koszul": {((0,), (0, 0), (1, 0)): Cyc.zeta(4)}}[kind]
    head = (Z4_GROUP, 1) if kind == "cochain" else (n, 4)
    return build(kind, head, {} if zero else flat), head, flat


# a scalar that is not exact, or of another order, is refused by a zero
# value as by a nonzero one; an exact scalar of the value's order scales
SCALAR_OUTCOMES = [
    (0.0, TypeError),
    (0.5, TypeError),
    ("1", TypeError),
    (Cyc.zero(5), ValueError),
    (Cyc.zeta(5), ValueError),
    (Fraction(0), None),
    (0, None),
    (2, None),
]


@pytest.mark.parametrize("zero", [True, False], ids=["zero", "nonzero"])
@pytest.mark.parametrize("kind", ["poly", "polyvector", "cochain", "koszul"])
@pytest.mark.parametrize("scalar, error", SCALAR_OUTCOMES,
                         ids=[repr(s) for s, _ in SCALAR_OUTCOMES])
def test_zero_and_nonzero_values_check_a_scalar_alike(kind, zero, scalar, error):
    x, head, flat = valued(kind, zero)
    if error is not None:
        with pytest.raises(error):
            x * scalar
    else:
        got = x * scalar
        assert got == build(kind, head, {} if zero else flat_scale(flat, Cyc.of(scalar, 4)))
        assert got.is_zero() == (zero or scalar == 0)


def test_a_combination_of_stored_classes_calls_no_checking_constructor(monkeypatch):
    # the benchmark's own combination of the stored S4 (2,1) basis
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    group = workloads.load_group("s4")
    basis = workloads.load_bases(group, "s4", [(2, 1)])[(2, 1)]
    assert len(basis) == 3
    coeffs = (2, -3, 1)
    calls = []
    for cls in (Poly, Polyvector, Cochain):
        init = cls.__init__

        def counted(self, *args, cls=cls, init=init, **kwargs):
            calls.append(cls.__name__)
            init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    total = workloads.combination(group, basis, coeffs)
    assert calls == []
    monkeypatch.undo()
    want, zero = {}, Cyc.zero(group.scalar_order)
    for b, c in zip(basis, coeffs):
        for g, pv in b.terms.items():
            for idx, p in pv.terms.items():
                for exps, v in p.terms.items():
                    want[(g, idx, exps)] = want.get((g, idx, exps), zero) + v * c
    assert total == build("cochain", (group, 2), want) and not total.is_zero()
    assert_clean(total)


# an operand an operator does not take is left to Python, whose
# TypeError names the operator written: for a sum or difference,
# anything but a SparseTerms value; for a multiple, anything Cyc.of
# refuses as inexact, a value of another kind among them.  "cyc" stands
# for a Cyc of the value's own order, and "other" for a value of another
# kind, a Poly beside a Polyvector and a Polyvector beside the rest
NOT_TERMS = [1, Fraction(1, 2), "cyc", "1", 0.5]
NOT_SCALARS = ["1", 0.5, "other"]
NOT_TAKEN = [(op, other) for op in "+-" for other in NOT_TERMS] + [("*", other)
                                                                   for other in NOT_SCALARS]
OPERATORS = {"+": ("__add__", operator.add), "-": ("__sub__", operator.sub),
             "*": ("__mul__", operator.mul)}


@pytest.mark.parametrize("kind", ["poly", "polyvector", "cochain", "koszul", "koszul2"])
@pytest.mark.parametrize("op, other", NOT_TAKEN,
                         ids=[op + (other if other in ("cyc", "other") else type(other).__name__)
                              for op, other in NOT_TAKEN])
def test_an_operand_an_operator_does_not_take_is_a_type_error_naming_it(kind, op, other):
    if kind == "koszul2":
        x = KoszulTensor2.term(2, 4, (0,), (1,), (0, 0), (1, 0), (0, 0))
    else:
        x, _, _ = valued(kind, False)
    if other == "cyc":
        other = Cyc.zeta(x.order)
    elif other == "other":
        other = valued("poly" if kind == "polyvector" else "polyvector", False)[0]
    name, apply = OPERATORS[op]
    assert not x.is_zero() and getattr(type(x), name)(x, other) is NotImplemented
    # str's own reflected product runs after ours declines
    message = ("can't multiply sequence" if op == "*" and other == "1"
               else rf"unsupported operand type\(s\) for \{op}")
    with pytest.raises(TypeError, match=message):
        apply(x, other)


def test_a_multiple_of_a_stored_class_coerces_its_scalar_once(monkeypatch):
    # the stored S4 (2,1) class of eight components, each a polyvector of
    # several polys: one Cyc.of for the scalar, none per level or value
    group = load_group_file(str(CLASSES.parent / "groups" / "s4.json"))[0]
    x = load_class_file(str(CLASSES / "s4" / "p2m1_2.json"), group)
    assert len(x.terms) == 8
    calls = []
    of = Cyc.of

    def counted(value, order):
        calls.append(value)
        return of(value, order)

    monkeypatch.setattr(Cyc, "of", staticmethod(counted))
    got = x * Fraction(-3, 2)
    monkeypatch.undo()
    assert calls == [Fraction(-3, 2)]
    c = Cyc.of(Fraction(-3, 2), group.scalar_order)
    want = {(g, idx, exps): v * c for g, pv in x.terms.items()
            for idx, p in pv.terms.items() for exps, v in p.terms.items()}
    assert got == build("cochain", (group, 2), want)
    assert_clean(got)
