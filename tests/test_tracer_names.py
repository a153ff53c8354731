"""The benchmark's tracer finds the functions it wraps by name.

perfbench/tracer.py lists, per stat, a skewbrack module and the names of
the functions in it that it wraps, and the Cyc methods it wraps.  A rename
in the package would break a traced benchmark run without failing any
other test, so this test checks every listed name.
"""

import importlib

from helpers import load_tracer
from skewbrack.scalars import Cyc


def test_traced_names_are_callables_of_their_modules():
    tracer = load_tracer()
    assert tracer.FUNCTIONS
    for stat, (module, names) in tracer.FUNCTIONS.items():
        home = importlib.import_module(f"skewbrack.{module}")
        for name in names:
            assert callable(getattr(home, name, None)), f"{stat}: {module}.{name}"
    for stat, attrs in tracer.METHODS.items():
        for attr in attrs:
            assert callable(Cyc.__dict__.get(attr)), f"{stat}: Cyc.{attr}"
