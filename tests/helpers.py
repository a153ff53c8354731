"""Helpers shared by several test modules."""

import importlib.util
from pathlib import Path

from skewbrack.groups import enumerate_group
from skewbrack.linalg import Matrix
from skewbrack.scalars import Cyc

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def mat(order, rows):
    return Matrix(order, [[Cyc.of(v, order) for v in r] for r in rows])


def trivial_group_k(n):
    rows = [[Cyc.one(1) if i == j else Cyc.zero(1) for j in range(n)]
            for i in range(n)]
    return enumerate_group([Matrix(1, rows)])


def load_tracer():
    """The benchmark's tracer module, loaded from perfbench/tracer.py."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
