"""Every value type is a scalars.Frozen and refuses attribute assignment,
and a group's tables are tuples, so a group's tables, a kept geometry or
a cached minor cannot be changed under its readers."""

import pytest

from helpers import single
from skewbrack.bracket import BracketReport
from skewbrack.cochain import Cochain
from skewbrack.fixtures import fixture_groups
from skewbrack.groups import geometry
from skewbrack.koszul import KoszulElt, KoszulTensor2
from skewbrack.linalg import Matrix
from skewbrack.polyvec import Poly, Polyvector
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
    # a three- or four-field type's fill has a fixed arity, any other count loops
    for value, _ in values().values():
        assert isinstance(value, Frozen)
        cls = type(value)
        fields = [name for k in cls.__mro__ for name in getattr(k, "__slots__", ())]
        for count in (len(fields) - 1, len(fields) + 1):
            blank = object.__new__(cls)
            with pytest.raises(TypeError):
                blank._init(*range(count))
            assert not any(hasattr(blank, name) for name in fields)
            with pytest.raises(TypeError):
                cls._new(*range(count))


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
