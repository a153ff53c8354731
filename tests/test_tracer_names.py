"""The benchmark's tracer finds the functions it wraps by name.

perfbench/tracer.py lists, per stat, a skewbrack module and the names of
the functions in it that it wraps, and the Cyc methods it wraps.  A rename
in the package would break a traced benchmark run without failing any
other test, so this test checks every listed name.
"""

import importlib
import importlib.util
from pathlib import Path

from skewbrack.scalars import Cyc

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
