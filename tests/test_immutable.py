"""Every value type is a scalars.Frozen and refuses attribute assignment,
and a group's tables are tuples, so a group's tables, a kept geometry or
a cached minor cannot be changed under its readers.  The checking
constructors, and the shape checks of linalg, minor_det and xi, refuse
malformed input with their exact messages."""

import inspect

import pytest

from helpers import single
from skewbrack.bracket import BracketReport
from skewbrack.cochain import Cochain
from skewbrack.fixtures import fixture_groups
from skewbrack.groups import Group, GroupGeometry, geometry
from skewbrack.koszul import KoszulElt, KoszulTensor2, xi
from skewbrack.linalg import Matrix, det, mat_inverse, solve_membership
from skewbrack.polyvec import Poly, Polyvector, minor_det
from skewbrack.scalars import Cyc, Frozen


def values():
    group = fixture_groups()["klein-signs-k3"]
    pv = Polyvector.term(1, (1, 0, 0), (0,), 1)
    return {
        "Group": (group, "dim"),
        "GroupGeometry": (geometry(group, 1), "dual_change"),
        "BracketReport": (BracketReport(Cochain.zero(group, 1), {}, []), "result"),
        "Matrix": (Matrix.identity(2, 1), "rows"),
        "Cyc": (Cyc.one(3), "num"),
        "Poly": (Poly.monomial((0, 0), 1, 1), "terms"),
        "Polyvector": (pv, "terms"),
        "Cochain": (single(group, 0, pv), "degree"),
        "KoszulElt": (KoszulElt(2, 1, {((0,), (0, 0), (1, 0)): 1}), "terms"),
        "KoszulTensor2": (KoszulTensor2.term(2, 1, (0,), (1,), (0, 0), (1, 0), (0, 0)), "n"),
    }


def _value_classes(cls=Frozen):
    """The classes of values the package builds: the leaves below Frozen."""
    subs = cls.__subclasses__()
    return {cls} if not subs else set().union(*map(_value_classes, subs))


def test_the_checks_cover_every_value_class():
    assert {type(value) for value, _ in values().values()} == _value_classes()


@pytest.mark.parametrize("kind", list(values()))
def test_values_refuse_attribute_assignment(kind):
    value, field = values()[kind]
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert getattr(value, field) is before


def test_fill_refuses_a_wrong_field_count_before_setting_any():
    # a three- or four-field type's fill has a fixed arity, any other count
    # loops; a checking constructor is a __new__ that returns cls._new(...),
    # and a type with nothing to check is built by Frozen.__new__
    for value, _ in values().values():
        assert isinstance(value, Frozen)
        cls = type(value)
        assert not any("__init__" in vars(k) or "_init" in vars(k)
                       for k in cls.__mro__ if issubclass(k, Frozen)), cls
        fields = [name for k in cls.__mro__ for name in getattr(k, "__slots__", ())]
        for count in (len(fields) - 1, len(fields) + 1):
            with pytest.raises(TypeError):
                cls._new(*range(count))
        if cls.__new__ is Frozen.__new__:
            args = len(fields)
        else:
            args = sum(p.kind is p.POSITIONAL_OR_KEYWORD
                       for p in inspect.signature(cls.__new__).parameters.values()) - 1
        for count in {max(args - 1, 0), args + 1} - {args}:
            with pytest.raises(TypeError):
                cls(*range(count))
    assert {type(value) for value, _ in values().values()
            if type(value).__new__ is Frozen.__new__} == {GroupGeometry, BracketReport}


def test_equal_sparse_values_hash_equal():
    # each pair is built apart, its terms given in opposite orders
    group = fixture_groups()["klein-signs-k3"]
    x1 = Polyvector.term(1, (1, 0, 0), (0,), 1)
    x2 = Polyvector.term(2, (0, 1, 0), (1,), 1)
    pairs = [
        (Poly(3, 1, {(1, 0, 0): 1, (0, 1, 0): 2}), Poly(3, 1, {(0, 1, 0): 2, (1, 0, 0): 1})),
        (x1 + x2, x2 + x1),
        (Cochain(group, 1, {0: x1, 1: x2}), Cochain(group, 1, {1: x2, 0: x1})),
    ]
    for a, b in pairs:
        assert a is not b and a == b and hash(a) == hash(b), a
        assert len({a, b}) == 1, a


def test_group_tables_refuse_item_assignment():
    group = fixture_groups()["klein-signs-k3"]
    tables = (group.names, group.generator_indices, group.matrices, group.words,
              group.mult_table, group.mult_table[1], group.inverses,
              group.conj_classes, group.centralizers, group.centralizer_gens,
              group.conjugators)
    for table in tables:
        with pytest.raises(TypeError):
            table[0] = table[0]


XI_DOMAIN = "xi needs t >= 1, 1 <= r <= t, s >= 0 and z >= 0"


def _refusals():
    """Each refusal as (call, its exact ValueError message)."""
    group = fixture_groups()["klein-signs-k3"]
    x1 = Polyvector.term(1, (1, 0, 0), (0,), 1)
    on_k2 = Polyvector.term(1, (1, 0), (0,), 1)
    row = Matrix(1, [[1, 0]])
    tables = ("('dim', 'scalar_order', 'names', 'generator_indices', 'matrices', "
              "'words', 'mult_table', 'inverses', 'conj_classes', 'centralizers', "
              "'centralizer_gens', 'conjugators')")
    keys = "cochain keys must be element indices of its group"
    return {
        "Cochain key out of range": (lambda: Cochain(group, 1, {4: x1}), keys),
        "Cochain key not an int": (lambda: Cochain(group, 1, {"e": x1}), keys),
        "Cochain foreign component": (
            lambda: Cochain(group, 1, {0: on_k2}),
            "cochain components must be polyvectors of the group's (n, order)"),
        "Poly short exponents": (lambda: Poly(2, 1, {(1,): 1}),
                                 "poly exponents must be n nonnegative integers"),
        "Poly negative exponent": (lambda: Poly(2, 1, {(-1, 0): 1}),
                                   "poly exponents must be n nonnegative integers"),
        "Polyvector bad wedge": (
            lambda: Polyvector(2, 1, {(1, 0): Poly.monomial((0, 0), 1, 1)}),
            "polyvector wedges must be increasing indices in 0..n-1"),
        "Polyvector foreign coefficient": (
            lambda: Polyvector(2, 1, {(0,): Poly.monomial((0, 0, 0), 1, 1)}),
            "polyvector coefficients must be polys of its (n, order)"),
        "Matrix ragged rows": (lambda: Matrix(1, [[1, 0], [1]]), "matrix rows differ in length"),
        "Group wrong tables": (lambda: Group(dim=1),
                               f"a Group takes exactly the tables {tables}"),
        "det not square": (lambda: det(row), "matrix is not square"),
        "mat_inverse not square": (lambda: mat_inverse(row), "matrix is not square"),
        "minor_det unequal": (lambda: minor_det(Matrix.identity(2, 1), (0,), (0, 1)),
                              "a minor needs as many rows as columns"),
        "solve_membership lengths": (
            lambda: solve_membership([[Cyc.one(1), Cyc.one(1)]], [Cyc.one(1)], 1),
            "vectors differ in length from the target"),
        "xi t = 0": (lambda: xi(0, 0, 0, 1), XI_DOMAIN),
        "xi r > t": (lambda: xi(0, 1, 0, 2), XI_DOMAIN),
        "xi s < 0": (lambda: xi(-1, 1, 0, 1), XI_DOMAIN),
        "xi z < 0": (lambda: xi(0, 1, -1, 1), XI_DOMAIN),
    }


@pytest.mark.parametrize("case", list(_refusals()))
def test_checks_refuse_with_their_exact_messages(case):
    call, message = _refusals()[case]
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


@pytest.mark.parametrize("s_idx, z_idx", [((0, 0), (1,)), ((0,), (1, 1))])
def test_koszul_tensor_term_on_a_repeated_index_is_zero(s_idx, z_idx):
    got = KoszulTensor2.term(2, 1, s_idx, z_idx, (0, 0), (1, 0), (0, 0))
    assert got == KoszulTensor2.zero(2, 1) and got.is_zero()
