"""Every value type refuses attribute assignment, so a group's tables, a
kept geometry or a cached minor cannot be changed under its readers."""

import pytest

from skewbrack.bracket import BracketReport
from skewbrack.cochain import Cochain
from skewbrack.fixtures import fixture_groups
from skewbrack.groups import geometry
from skewbrack.linalg import Frozen, Matrix
from skewbrack.polyvec import Poly, Polyvector
from skewbrack.scalars import Cyc


def values():
    group = fixture_groups()["klein-signs-k3"]
    pv = Polyvector.term(1, (1, 0, 0), (0,), 1)
    return {
        "Group": (group, "dim"),
        "GroupGeometry": (geometry(group, 1), "dual_change"),
        "BracketReport": (BracketReport(Cochain.zero(group, 1), {}, []), "result"),
        "Matrix": (Matrix.identity(2, 1), "rows"),
        "Cyc": (Cyc.one(3), "num"),
        "Poly": (Poly.const(1, 2, 1), "terms"),
        "Polyvector": (pv, "terms"),
        "Cochain": (Cochain.single(group, 0, pv), "degree"),
    }


@pytest.mark.parametrize("kind", list(values()))
def test_values_refuse_attribute_assignment(kind):
    value, field = values()[kind]
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert getattr(value, field) is before


def test_init_refuses_a_field_it_does_not_have():
    frozen = [value for value, _ in values().values() if isinstance(value, Frozen)]
    assert len(frozen) == len(values()) - 1  # all but Cyc
    for value in frozen:
        with pytest.raises(AttributeError):
            value._init(extra=1)
        assert not hasattr(value, "extra")
