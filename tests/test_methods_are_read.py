"""Every method, module-level function, arithmetic operator and
defaulted parameter in the package is used by the program.

A method or function that only its own tests call is a second way to do a
job the program does some other way, so each non-dunder method defined in
a class under src/skewbrack must be read as `.name`, and each function
defined at the top of a module there must be read by name or as `.name`
outside its own body, in src/skewbrack or in the benchmark under
perfbench/; a public name is no exception, and the few functions that
stay unread are listed in UNREAD_FUNCTIONS, each with its reason.  The
read check skips dunders, so the arithmetic operators the classes keep
are pinned in OPERATORS, each with the module that applies it.  A
reflected form is pinned like any other operator: it needs a reader of
its own, not only its forward form's.  And a default that no call
overrides is a parameter with one value, so some call there sets each
defaulted parameter.  Tests do not count as readers.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "skewbrack").glob("*.py"))
READERS = SOURCES + sorted((ROOT / "perfbench").glob("*.py"))

# module.function -> why it stays with no reader in the program
UNREAD_FUNCTIONS = {
    "cochain.act_cochain": "perfbench/tracer.py wraps it by name; it moves with the "
                           "benchmark (ROADMAP item 11)",
    "linalg.image_basis": "perfbench/tracer.py counts it as elimination by name; it "
                          "moves with the benchmark (ROADMAP item 11)",
    "linalg.kernel_basis": "perfbench/tracer.py counts it as elimination by name; it "
                           "moves with the benchmark (ROADMAP item 11)",
    "linalg.solve_membership": "perfbench/tracer.py counts it as elimination by name; it "
                               "moves with the benchmark (ROADMAP item 11)",
    "koszul.diagonal": "the comultiplication that the chain-level cup product of "
                       "ROADMAP item 4 reads",
    "cochain.is_cocycle": "public, in the README; the checks of ROADMAP items 4 and 12 "
                          "would read it",
    "cochain.is_reduced": "public, in the README; the checks of ROADMAP items 4 and 12 "
                          "would read it",
    "bracket.minimal_degree_vanishing": "public, in the README; the predicted zeros of "
                                        "ROADMAP item 12 would read it",
}


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
                if total[f.name] == reads(f)[f.name] and name not in UNREAD_FUNCTIONS:
                    unread.append(name)
    assert not unread, unread
    assert UNREAD_FUNCTIONS.keys() <= defined, UNREAD_FUNCTIONS.keys() - defined


# Class.operator -> the module under src/skewbrack or perfbench/ that
# applies it by its syntax or reads it by name
OPERATORS = {
    "Cyc.__add__": "linalg",
    "Cyc.__neg__": "linalg",
    "Cyc.__sub__": "linalg",
    "Cyc.__mul__": "linalg",
    # the tracer's METHODS wraps it by name, read from Cyc.__dict__, so
    # every traced run needs it
    "Cyc.__rmul__": "tracer",
    "SparseTerms.__add__": "polyvec",
    "SparseTerms.__neg__": "polyvec",
    "SparseTerms.__sub__": "koszul",
    "SparseTerms.__mul__": "workloads",
    "Poly.__mul__": "polyvec",
}
# forward operator -> the syntax that applies it
SYNTAX = {"__add__": ast.Add, "__sub__": ast.Sub, "__mul__": ast.Mult, "__matmul__": ast.MatMult,
          "__truediv__": ast.Div, "__floordiv__": ast.FloorDiv, "__mod__": ast.Mod,
          "__pow__": ast.Pow, "__lshift__": ast.LShift, "__rshift__": ast.RShift,
          "__and__": ast.BitAnd, "__xor__": ast.BitXor, "__or__": ast.BitOr,
          "__neg__": ast.USub, "__pos__": ast.UAdd, "__invert__": ast.Invert}
# every arithmetic operator: the forward ones, the reflected and in-place
# forms of the binary ones, and three with no syntax of their own
ARITHMETIC = {*SYNTAX, "__abs__", "__divmod__", "__rdivmod__",
              *(f"__{form}{name[2:]}" for name, op in SYNTAX.items()
                if issubclass(op, ast.operator) for form in "ri")}


def operators_defined():
    """Class.operator for each arithmetic operator a class under
    src/skewbrack defines, by a def or by assignment."""
    out = set()
    for path in SOURCES:
        for cls in ast.walk(ast.parse(path.read_text())):
            if isinstance(cls, ast.ClassDef):
                for node in cls.body:
                    if isinstance(node, ast.FunctionDef):
                        names = [node.name]
                    elif isinstance(node, ast.Assign):
                        names = [t.id for t in node.targets if isinstance(t, ast.Name)]
                    else:
                        continue
                    out.update(f"{cls.name}.{name}" for name in names if name in ARITHMETIC)
    return out


def test_every_arithmetic_operator_is_applied_by_the_program():
    defined = operators_defined()
    assert defined == OPERATORS.keys(), defined ^ OPERATORS.keys()
    modules = {path.stem: ast.parse(path.read_text()) for path in READERS}
    for name, reader in OPERATORS.items():
        op = name.split(".")[1]
        nodes = ast.walk(modules[reader])
        if op in SYNTAX:
            assert any(isinstance(getattr(node, "op", None), SYNTAX[op]) for node in nodes), name
        else:
            # the syntax of a binary operator does not show which operand's
            # method runs, so a reflected form's reader names it
            assert any(isinstance(node, ast.Constant) and node.value == op
                       for node in nodes), name


def defaulted(f):
    """(position, name) of each parameter of f with a default value; the
    position is None for a keyword-only one."""
    positional = f.args.posonlyargs + f.args.args
    first = len(positional) - len(f.args.defaults)
    return ([(i, a.arg) for i, a in enumerate(positional) if i >= first]
            + [(None, a.arg) for a, d in zip(f.args.kwonlyargs, f.args.kw_defaults)
               if d is not None])


def test_every_defaulted_parameter_is_set_by_some_call():
    # each call as (callee name, positional count, keywords); a starred
    # argument may fill any position and a ** argument any keyword
    calls, bases = [], {}
    for path in READERS:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = {b.id for b in node.bases if isinstance(b, ast.Name)}
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                calls.append((getattr(node.func, "id", None) or node.func.attr,
                              float("inf") if starred else len(node.args),
                              {k.arg for k in node.keywords}))

    def derives(cls, base):
        return cls == base or any(derives(b, base) for b in bases.get(cls, ()))

    unset = []
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        methods = {f: cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for f in cls.body if isinstance(f, ast.FunctionDef)}
        for f in ast.walk(tree):
            if not isinstance(f, ast.FunctionDef):
                continue
            cls = methods.get(f)
            static = any(getattr(d, "id", None) == "staticmethod" for d in f.decorator_list)
            # self or cls is bound, and a class call counts for __init__
            bound = int(cls is not None and not static)
            names = {f.name} | ({c for c in bases if derives(c, cls)}
                                if f.name == "__init__" else set())
            for position, param in defaulted(f):
                if not any(name in names and (None in keywords or param in keywords or (
                        position is not None and count > position - bound))
                           for name, count, keywords in calls):
                    unset.append(f"{path.stem}.{cls + '.' if cls else ''}{f.name}({param})")
    assert not unset, unset
