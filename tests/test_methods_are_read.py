"""Every method and module-level function in the package is read by the
program.

A method or function that only its own tests call is a second way to do a
job the program does some other way, so each non-dunder method defined in
a class under src/skewbrack must be read as `.name`, and each function
defined at the top of a module there must be read by name or as `.name`
outside its own body, in src/skewbrack or in the benchmark under
perfbench/.  Tests do not count as readers.
"""

import ast
from collections import Counter
from pathlib import Path

import skewbrack

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "skewbrack").glob("*.py"))
READERS = SOURCES + sorted((ROOT / "perfbench").glob("*.py"))

# module.function -> why it stays with no reader in the program
UNREAD_FUNCTIONS = {
    "cochain.act_cochain": "perfbench/tracer.py wraps it by name; it moves with the "
                           "benchmark (ROADMAP item 11)",
    "linalg.image_basis": "perfbench/tracer.py counts it as elimination by name; it "
                          "moves with the benchmark (ROADMAP item 11)",
    "koszul.diagonal": "the comultiplication that the chain-level cup product of "
                       "ROADMAP item 4 reads",
}
# cmd_verify looks each suite up as globals()[f"_verify_{suite}"]
DISPATCHED = "cli._verify_"


def test_every_method_is_read_outside_the_tests():
    read = {node.attr for path in READERS for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute)}
    unread = [f"{path.stem}.{cls.name}.{f.name}" for path in SOURCES
              for cls in ast.walk(ast.parse(path.read_text())) if isinstance(cls, ast.ClassDef)
              for f in cls.body if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
              and not (f.name.startswith("__") and f.name.endswith("__")) and f.name not in read]
    assert not unread, unread


def reads(tree):
    """How often each name is read in tree, as a name or an attribute."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute)
                   or isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))


def test_every_module_function_is_read_outside_the_tests():
    total = sum((reads(ast.parse(path.read_text())) for path in READERS), Counter())
    defined, unread = set(), []
    for path in SOURCES:
        for f in ast.parse(path.read_text()).body:
            if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{path.stem}.{f.name}"
                defined.add(name)
                # a read inside its own body, a recursive call, does not count
                if (total[f.name] == reads(f)[f.name] and f.name not in skewbrack.__all__
                        and name not in UNREAD_FUNCTIONS and not name.startswith(DISPATCHED)):
                    unread.append(name)
    assert not unread, unread
    assert UNREAD_FUNCTIONS.keys() <= defined, UNREAD_FUNCTIONS.keys() - defined
