"""Every method a class in the package defines is read by the program.

A method that only its own tests call is a second way to do a job the
program does some other way, so each non-dunder method defined in a class
under src/skewbrack must be read as `.name` in src/skewbrack or in the
benchmark under perfbench/.  Tests do not count as readers.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "skewbrack").glob("*.py"))
READERS = SOURCES + sorted((ROOT / "perfbench").glob("*.py"))


def test_every_method_is_read_outside_the_tests():
    read = {node.attr for path in READERS for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute)}
    unread = [f"{path.stem}.{cls.name}.{f.name}" for path in SOURCES
              for cls in ast.walk(ast.parse(path.read_text())) if isinstance(cls, ast.ClassDef)
              for f in cls.body if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
              and not (f.name.startswith("__") and f.name.endswith("__")) and f.name not in read]
    assert not unread, unread
