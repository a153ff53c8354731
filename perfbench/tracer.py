"""Outside-in tracing of skewbrack's layers.

The tracer wraps public entry points of each module (and the `Cyc`
multiply and inverse methods) in every skewbrack module namespace that
binds them, so calls through ``from .cochain import project`` are seen
too.  Each wrapper counts calls and measures self time: its span minus
the spans of wrapped calls made inside it.  The elimination entry points
share one stat, ``linalg.elim``; only the outermost of nested ones counts
a call and its cells (rows x columns of the matrix it eliminates).

    tracer = Tracer()
    with tracer:
        ...                     # traced work
    tracer.metrics(ref)         # per-layer metrics, times in ref units
"""

import functools
import sys
import time

from skewbrack.scalars import Cyc

ELIMINATION = {
    "rref": lambda m: m.nrows * m.ncols,
    "kernel_basis": lambda m: m.nrows * m.ncols,
    "image_basis": lambda m: m.nrows * m.ncols,
    "mat_inverse": lambda m: m.nrows * 2 * m.ncols,
    "solve_membership": lambda vectors, target, order: len(target) * (len(vectors) + 1),
    "echelon_span": lambda vectors, order: len(vectors) * len(vectors[0]) if vectors else 0,
}

# stat name -> (module, function names)
FUNCTIONS = {
    "linalg.elim": ("linalg", tuple(ELIMINATION)),
    "linalg.det": ("linalg", ("det",)),
    "groups.enumerate_group": ("groups", ("enumerate_group",)),
    "groups.geometry": ("groups", ("geometry",)),
    "polyvec.act": ("polyvec", ("act",)),
    "polyvec.minor_det": ("polyvec", ("minor_det",)),
    "polyvec.subst_matrix": ("polyvec", ("subst_matrix",)),
    "polyvec.circle_product": ("polyvec", ("circle_product",)),
    "cochain.act_cochain": ("cochain", ("act_cochain",)),
    "cochain.is_invariant": ("cochain", ("is_invariant",)),
    "cochain.project": ("cochain", ("project",)),
    "cochain.centralizer_reynolds": ("cochain", ("centralizer_reynolds",)),
    "cochain.cohomology_basis": ("cochain", ("cohomology_basis",)),
    "cochain.cohomology_dim_direct": ("cochain", ("cohomology_dim_direct",)),
    "bracket.gerstenhaber": ("bracket", ("gerstenhaber",)),
    "bracket.pair_commutator": ("bracket", ("pair_commutator",)),
    "bracket.moved_intersection": ("bracket", ("moved_intersection",)),
    "koszul.chain_bracket_cochain": ("koszul", ("chain_bracket_cochain",)),
    "koszul.chain_circle_component": ("koszul", ("chain_circle_component",)),
    "koszul.phi": ("koszul", ("phi",)),
    "cli.load_group_file": ("cli", ("load_group_file",)),
    "cli.load_class_file": ("cli", ("load_class_file",)),
    "cli.cochain_to_classfile": ("cli", ("cochain_to_classfile",)),
}
METHODS = {"scalars.mul": ("__mul__", "__rmul__"), "scalars.inverse": ("inverse",)}

# The reported metrics, in the order of BENCHMARK.json's per_layer list.
PER_LAYER = (
    "scalars.mul.calls", "scalars.mul.self_ref",
    "scalars.inverse.calls", "scalars.inverse.self_ref",
    "linalg.elim.calls", "linalg.elim.cells", "linalg.elim.self_ref", "linalg.det.calls",
    "groups.enumerate_group.self_ref", "groups.geometry.calls", "groups.geometry.self_ref",
    "polyvec.act.calls", "polyvec.act.self_ref", "polyvec.minor_det.calls",
    "polyvec.subst_matrix.calls", "polyvec.circle_product.calls",
    "polyvec.circle_product.self_ref",
    "cochain.act_cochain.calls", "cochain.is_invariant.self_ref", "cochain.project.calls",
    "cochain.project.self_ref", "cochain.centralizer_reynolds.self_ref",
    "cochain.cohomology_basis.self_ref", "cochain.cohomology_dim_direct.self_ref",
    "bracket.gerstenhaber.self_ref", "bracket.pair_commutator.calls",
    "bracket.useful_pair_ratio", "bracket.moved_intersection.calls",
    "koszul.chain_bracket_cochain.self_ref", "koszul.chain_circle_component.calls",
    "koszul.phi.calls",
    "cli.load_group_file.self_ref", "cli.load_class_file.self_ref",
    "cli.cochain_to_classfile.self_ref",
)


class Stat:
    __slots__ = ("calls", "self_s", "cells")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.cells = 0


class Tracer:
    """Counts and self times per stat; accumulates over every `with` block."""

    def __init__(self):
        self.stats = {name: Stat() for name in (*FUNCTIONS, *METHODS)}
        self.useful_pairs = 0
        self._stack = [[0.0]]
        self._elim_depth = 0
        self._patched = []

    def _wrap(self, fn, stat, cells=None, on_return=None):
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outermost = cells is not None and self._elim_depth == 0
            if cells is not None:
                if outermost:
                    stat.cells += cells(*args, **kwargs)
                self._elim_depth += 1
            child = [0.0]
            stack.append(child)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - start
                stack.pop()
                stack[-1][0] += span
                stat.self_s += span - child[0]
                if cells is None or outermost:
                    stat.calls += 1
                if cells is not None:
                    self._elim_depth -= 1
            if on_return is not None:
                on_return(result)
            return result

        wrapper.perfbench_wrapper = True
        return wrapper

    def exclude(self, seconds):
        """Leave `seconds` just spent outside the program (a reference
        sample) out of the self time of the innermost open span."""
        self._stack[-1][0] += seconds

    def _count_useful(self, report):
        self.useful_pairs += len(report.per_component_terms)

    def __enter__(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "skewbrack" or name.startswith("skewbrack.")]
        for stat_name, (module, names) in FUNCTIONS.items():
            home = sys.modules[f"skewbrack.{module}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(
                    original, self.stats[stat_name],
                    cells=ELIMINATION.get(fname) if stat_name == "linalg.elim" else None,
                    on_return=self._count_useful if fname == "gerstenhaber" else None)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        for stat_name, attrs in METHODS.items():
            original = Cyc.__dict__[attrs[0]]
            wrapper = self._wrap(original, self.stats[stat_name])
            for attr in attrs:
                self._patched.append((Cyc, attr, Cyc.__dict__[attr]))
                setattr(Cyc, attr, wrapper)
        return self

    def __exit__(self, *exc):
        while self._patched:
            obj, attr, original = self._patched.pop()
            setattr(obj, attr, original)
        return False

    def counts(self):
        """Every exact count: calls, cells and useful pairs."""
        out = {f"{name}.calls": s.calls for name, s in self.stats.items()}
        out["linalg.elim.cells"] = self.stats["linalg.elim"].cells
        out["bracket.useful_pairs"] = self.useful_pairs
        return out

    def metrics(self, ref):
        """The PER_LAYER values, self times divided by `ref` seconds."""
        values = self.counts()
        for name, s in self.stats.items():
            values[f"{name}.self_ref"] = s.self_s / ref
        pairs = self.stats["bracket.pair_commutator"].calls
        values["bracket.useful_pair_ratio"] = self.useful_pairs / pairs if pairs else 0.0
        return {name: values[name] for name in PER_LAYER}


def unit(metric):
    if metric.endswith("_ref"):
        return "ref"
    return "ratio" if metric.endswith("_ratio") else "count"


def installed_wrappers():
    """(owner, attribute) of every skewbrack binding that is still a
    wrapper; empty once every tracer has exited."""
    found = []
    owners = [m for name, m in sys.modules.items()
              if name == "skewbrack" or name.startswith("skewbrack.")]
    for owner in (*owners, Cyc):
        for attr, value in list(vars(owner).items()):
            if getattr(value, "perfbench_wrapper", False):
                found.append((getattr(owner, "__name__", owner), attr))
    return found
