"""The benchmark's three workloads: seeded inputs, timed calls, checks.

Every workload is a list of slot kinds, each with a multiplicity per
round, and a `round_seconds`: about how long one round takes on an
uncontended core of the reference host (a 2-core x86 VM).  A kind with several pool entries (a bracket of two seeded
combinations of basis classes) draws distinct entries for every round, so
no input pair repeats within a run; a kind with one entry (a cohomology
piece) is repeated once per round.  The seed picks the entries and orders
the operations.  Every entry's canonical output has a digest in
data/digests.json, recorded by make_data.py.

The benchmark calls the program through module attributes
(``cochain.cohomology_basis``), never through names bound at import, so
the tracer's wrappers see every call.
"""

import contextlib
import hashlib
import io
import json
import random
from math import comb
from pathlib import Path

from skewbrack import bracket, cli, cochain, fixtures, groups, koszul, linalg
from skewbrack.scalars import Cyc

DATA = Path(__file__).resolve().parent / "data"
POOL = 12
MAX_ROUNDS = POOL // 2  # kinds draw at most two distinct entries a round
COEFFS = (-3, -2, -1, 1, 2, 3)
SMALL = ((1, 0), (1, 1))
LARGE = ((2, 0), (2, 1))


class Op:
    """One timed operation.

    ``call()`` does the timed work; ``finish(result)`` runs untimed and
    returns (canonical output text, list of failed independent checks).
    """

    __slots__ = ("key", "call", "finish")

    def __init__(self, key, call, finish):
        self.key = key
        self.call = call
        self.finish = finish


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_digests():
    with open(DATA / "digests.json") as fh:
        return json.load(fh)


def load_group(name):
    return cli.load_group_file(str(DATA / "groups" / f"{name}.json"))[0]


def load_bases(group, name, bidegrees):
    """Stored cohomology basis classes of `group`, keyed by (p, m)."""
    out = {}
    for p, m in bidegrees:
        files = sorted((DATA / "classes" / name).glob(f"p{p}m{m}_*.json"),
                       key=lambda f: int(f.stem.split("_")[1]))
        out[(p, m)] = [cli.load_class_file(str(f), group) for f in files]
    return out


def pool_entry(kind, k, sizes):
    """Entry k of the fixed pool for a bracket kind: distinct tuples of
    small nonzero integer coefficients, one per basis class of each side."""
    rng = random.Random(f"pool:{kind}")
    seen = []
    while len(seen) <= k:
        entry = tuple(tuple(rng.choice(COEFFS) for _ in range(n)) for n in sizes)
        if entry not in seen:
            seen.append(entry)
    return seen[k]


def combination(group, basis, coeffs):
    total = cochain.Cochain.zero(group, basis[0].degree)
    for b, c in zip(basis, coeffs):
        total = total + b * Cyc.of(c, group.scalar_order)
    return total


def run_cli(argv):
    """In-process CLI call with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def cli_failures(code, err):
    return [] if code == 0 else [f"exit code {code}: {err.strip()}"]


# ------------------------------------------------------- cohomology-sweep


def trivial_group(n):
    one, zero = Cyc.one(1), Cyc.zero(1)
    ident = linalg.Matrix(1, [[one if i == j else zero for j in range(n)]
                              for i in range(n)])
    return groups.enumerate_group([ident])


class CohomologySweep:
    """(group, p, m) pieces of the seven fixture groups and the trivial
    groups on k^1..k^3, p <= min(n, 3), m <= 3.  On k^5 the four pieces
    that take 3.5-22 s each are left out, so no piece is most of a run."""

    name = "cohomology-sweep"
    round_seconds = 9
    HEAVY_K5 = {(2, 2), (2, 3), (3, 2), (3, 3)}

    def setup(self, rounds, workdir):
        """Fresh group objects for every round, so no round reuses
        another's objects."""
        per_round = []
        for _ in range(rounds):
            gs = fixtures.fixture_groups()
            for n in (1, 2, 3):
                gs[f"trivial-k{n}"] = trivial_group(n)
            per_round.append(gs)
        return per_round

    def kinds(self, ctx):
        out = []
        for name, g in ctx[0].items():
            for p in range(min(g.dim, 3) + 1):
                for m in range(4):
                    if g.dim == 5 and (p, m) in self.HEAVY_K5:
                        continue
                    out.append(((name, p, m), 1, 1))
        return out

    def op(self, ctx, kind, entry, round_index):
        name, p, m = kind
        g = ctx[round_index][name]

        def call():
            return (cochain.cohomology_basis(g, p, m),
                    cochain.cohomology_dim_direct(g, p, m))

        def finish(result):
            basis, direct = result
            bad = []
            if len(basis) != direct:
                bad.append(f"basis count {len(basis)} != direct dimension {direct}")
            if name.startswith("trivial"):
                n = g.dim
                closed = comb(m + n - 1, n - 1) * comb(n, p)
                if direct != closed:
                    bad.append(f"direct dimension {direct} != closed form {closed}")
            text = json.dumps({"direct": direct,
                               "basis": [cli.cochain_to_classfile(c) for c in basis]},
                              sort_keys=True)
            return text, bad

        return Op(f"{name}:p{p}m{m}", call, finish)


# ------------------------------------------------------ bracket-symmetric


class BracketSymmetric:
    """gerstenhaber(x, y) for S4 on k^4 and S5 on k^5 by permutation
    matrices; x and y are seeded combinations of basis classes of one
    bidegree each.  S5 keeps to the one-component classes, whose brackets
    take under a second; its twenty-component classes take 6-27 s."""

    name = "bracket-symmetric"
    round_seconds = 8

    def setup(self, rounds, workdir):
        ctx = {}
        for name, bidegrees in (("s4", SMALL + LARGE), ("s5", SMALL)):
            g = load_group(name)
            ctx[name] = (g, load_bases(g, name, bidegrees))
        return ctx

    def kinds(self, ctx):
        out = []
        for a in SMALL:
            for b in SMALL:
                out.append((("s4", a, b), 2, POOL))
                out.append((("s5", a, b), 2, POOL))
            for b in LARGE:
                out.append((("s4", a, b), 1, POOL))
                out.append((("s4", b, a), 1, POOL))
        out.append((("s4", (2, 0), (2, 0)), 1, POOL))
        return out

    def op(self, ctx, kind, entry, round_index):
        name, a, b = kind
        g, bases = ctx[name]
        cx, cy = pool_entry(kind, entry, (len(bases[a]), len(bases[b])))
        x = combination(g, bases[a], cx)
        y = combination(g, bases[b], cy)

        def call():
            return bracket.gerstenhaber(x, y)

        def finish(report):
            oracle = cochain.project(koszul.chain_bracket_cochain(x, y))
            bad = [] if oracle == report.result else ["differs from the chain oracle"]
            return json.dumps(cli.cochain_to_classfile(report.result), sort_keys=True), bad

        return Op(f"{name}:{a}x{b}#{entry}", call, finish)


# ------------------------------------------------------ verify-cyclotomic


class VerifyCyclotomic:
    """In-process CLI calls on D4 over Q(zeta4), D5 over Q(zeta5) (both on
    k^3, nonabelian, non-diagonal) and the rotation pair on k^5 over
    Q(zeta6): cohomology pieces with their cross-check, and brackets
    checked against the chain oracle on the same inputs."""

    name = "verify-cyclotomic"
    round_seconds = 14
    GROUPS = ("d4", "d5", "rot")
    ROT_PIECES = ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0), (3, 0))

    def setup(self, rounds, workdir):
        ctx = {"workdir": workdir}
        for name in self.GROUPS:
            g = load_group(name)
            bases = load_bases(g, name, SMALL + LARGE)
            ctx[name] = (g, {k: v for k, v in bases.items() if v})
        return ctx

    def kinds(self, ctx):
        out = []
        for name in self.GROUPS:
            pieces = (self.ROT_PIECES if name == "rot"
                      else [(p, m) for p in range(4) for m in range(3)])
            out.extend(((name, "cohomology", p, m), 1, 1) for p, m in pieces)
            bidegrees = list(ctx[name][1])
            out.extend(((name, a, b), 1, POOL) for a in bidegrees for b in bidegrees)
        return out

    def op(self, ctx, kind, entry, round_index):
        group_file = str(DATA / "groups" / f"{kind[0]}.json")
        if kind[1] == "cohomology":
            return self._piece_op(group_file, *kind)
        return self._bracket_op(ctx, group_file, kind, entry)

    def _piece_op(self, group_file, name, _, p, m):
        argv = ["cohomology", group_file, "--p", str(p), "--m", str(m), "--json"]

        def finish(result):
            code, out, err = result
            bad = cli_failures(code, err)
            if not bad and json.loads(out)["match"] is not True:
                bad.append("basis count does not match the cross-check")
            return out, bad

        return Op(f"{name}:cohomology:p{p}m{m}", lambda: run_cli(argv), finish)

    def _bracket_op(self, ctx, group_file, kind, entry):
        name, a, b = kind
        g, bases = ctx[name]
        cx, cy = pool_entry(kind, entry, (len(bases[a]), len(bases[b])))
        x = combination(g, bases[a], cx)
        y = combination(g, bases[b], cy)
        key = f"{name}:{a}x{b}#{entry}"
        stem = ctx["workdir"] / f"{name}-{a[0]}{a[1]}-{b[0]}{b[1]}-{entry}"
        x_file, y_file = f"{stem}-x.json", f"{stem}-y.json"
        for path, c in ((x_file, x), (y_file, y)):
            with open(path, "w") as fh:
                json.dump(cli.cochain_to_classfile(c), fh)
        argv = ["bracket", group_file, x_file, y_file, "--json"]

        def call():
            return run_cli(argv), cochain.project(koszul.chain_bracket_cochain(x, y))

        def finish(result):
            (code, out, err), oracle = result
            bad = cli_failures(code, err)
            if not bad and json.loads(out)["result"] != cli.cochain_to_classfile(oracle):
                bad.append("differs from the chain oracle")
            return out, bad

        return Op(key, call, finish)


WORKLOADS = {w.name: w for w in (CohomologySweep(), BracketSymmetric(), VerifyCyclotomic())}


def build(workload, seed, rounds, workdir):
    """Set up `workload` and return its operations in seeded order."""
    ctx = workload.setup(rounds, workdir)
    rng = random.Random(seed)
    ops = []
    for kind, mult, pool in workload.kinds(ctx):
        if pool == 1:
            entries = [0] * (mult * rounds)
        else:
            entries = rng.sample(range(pool), mult * rounds)
        for i, entry in enumerate(entries):
            ops.append(workload.op(ctx, kind, entry, i // mult))
    rng.shuffle(ops)
    return ops


def all_entries(workload, workdir):
    """One operation for every pool entry of every kind, for recording
    digests."""
    ctx = workload.setup(1, workdir)
    return [workload.op(ctx, kind, entry, 0)
            for kind, _, pool in workload.kinds(ctx) for entry in range(pool)]
