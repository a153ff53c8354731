"""The command line's output corpus: a fixed list of commands and, in
corpus/manifest.json, the exit code and the SHA-256 of the stdout and
stderr that each gave when it was recorded.

The commands read only files in the repository, by paths relative to its
root.  They are

- group, with and without --json, on every example and benchmark group
  file;
- cohomology, with and without --json, on each of those groups at
  p <= min(n, 3) and m <= 2 (p + m <= 3 on S5);
- bracket, plain, --json and --reynolds --project, on every ordered pair
  of the first six class files of each benchmark group;
- a few larger pieces and brackets, and the verify suites at sizes that
  take well under a second;
- refusals, each of which exits 2 with a message that names the field or
  flag at fault.

tests/test_cli_corpus.py runs every command in process and compares it
with the manifest.  After an intended change of output, record the
manifest again from the repository root:

    PYTHONPATH=src python3 tests/cli_corpus.py

which prints how many commands changed.
"""

import hashlib
import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from itertools import product
from pathlib import Path

from skewbrack import cli

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = Path(__file__).with_name("corpus") / "manifest.json"

EXAMPLES = "src/skewbrack/examples"
BENCH_GROUPS = "perfbench/data/groups"
BENCH_CLASSES = "perfbench/data/classes"
INPUTS = "tests/corpus"


def _files(directory):
    return sorted(p.relative_to(ROOT).as_posix() for p in (ROOT / directory).glob("*.json"))


def _ex(name):
    return f"{EXAMPLES}/{name}.json"


def _input(name):
    return f"{INPUTS}/{name}.json"


# (argv, the text its error message names): each exits 2
REFUSALS = [
    # malformed scalar literals: -1 in Arabic-Indic digits, an
    # ideographic space, a '*' with no z after it, a zero denominator
    (["group", _input("literal_non_ascii_digit")], "generator 1"),
    (["group", _input("literal_ideographic_space")], "generator 1"),
    (["group", _input("literal_star_without_z")], "generator 1"),
    (["bracket", _ex("sign_k1"), _input("sign_k1_coeff_1_over_0"),
      _input("sign_k1_x1_d1_at_e")], "coeff"),
    # det [[1, z], [z, -1]] = -1 - z^2 = 0 over Q(zeta4)
    (["group", _input("singular_zeta4")], "generators"),
    # each size bound of the command line
    (["group", _input("dimension_17")], "dimension"),
    (["group", _input("cyclotomic_order_101")], "cyclotomicOrder"),
    (["group", _input("bound_1025")], "bound"),
    (["group", _input("omega_terms_past_the_bound")], "omega_g"),
    (["bracket", _ex("sign_k1"), _input("sign_k1_x1_to_17_at_e"),
      _input("sign_k1_x1_d1_at_e")], "exponents"),
    (["cohomology", _ex("trivial_k2"), "--p", "0", "--m", "17"], "--m"),
    (["cohomology", _ex("two_sign_pairs_k5"), "--p", "2", "--m", "6"], "--m 6 at --p 2"),
    (["cohomology", f"{BENCH_GROUPS}/s5.json", "--p", "2", "--m", "4"], "--m 4 at --p 2"),
    # operands that are not G-invariant; x2*d2^d3 at g2 is fixed by one
    # generator of its centralizer and negated by the other
    (["bracket", _ex("klein_signs_k3"), _ex("class_wedge12_first"),
      _ex("class_x2_wedge23_second")], "left operand"),
    (["bracket", _ex("klein_signs_k3"), _ex("class_x2_wedge23_second"),
      _ex("class_wedge12_first")], "left operand"),
    (["bracket", _ex("klein_signs_k3"), _input("klein_x2_d2_at_e"),
      _ex("class_wedge12_first")], "right operand"),
    # x1*d1 at g1 is invariant, but g1 moves x1, so it is not reduced
    (["bracket", _ex("sign_k1"), _input("sign_k1_x1_d1_at_e"),
      _input("sign_k1_x1_d1_at_g1")], "right operand"),
    (["bracket", _ex("sign_k1"), _input("sign_k1_x1_d1_at_g1"),
      _input("sign_k1_x1_d1_at_e")], "left operand"),
]


def commands():
    """Every command of the corpus, an argv list for cli.main."""
    groups = [p for p in _files(EXAMPLES) if not Path(p).name.startswith("class_")]
    groups += _files(BENCH_GROUPS)
    out = [["group", path, *flag] for path in groups for flag in ([], ["--json"])]
    for path in groups:
        n = json.loads((ROOT / path).read_text())["dimension"]
        for p, m in product(range(min(n, 3) + 1), range(3)):
            if not (path.endswith("/s5.json") and p + m > 3):
                out += [["cohomology", path, "--p", str(p), "--m", str(m), *flag]
                        for flag in ([], ["--json"])]
    for path in _files(BENCH_GROUPS):
        classes = _files(f"{BENCH_CLASSES}/{Path(path).stem}")[:6]
        out += [["bracket", path, x, y, *flags] for x, y in product(classes, repeat=2)
                for flags in ([], ["--json"], ["--reynolds", "--project"])]
    s4 = [f"{BENCH_GROUPS}/s4.json", f"{BENCH_CLASSES}/s4/p2m1_2.json",
          f"{BENCH_CLASSES}/s4/p1m1_1.json"]
    # past the grid: larger pieces, classes past the first six, the
    # example pairs, and the verify suites at sizes under a second
    out += [
        ["cohomology", _ex("s4_a3_root_basis_k3"), "--p", "2", "--m", "3", "--json"],
        ["cohomology", _ex("binary_tetrahedral_k2_z4"), "--p", "0", "--m", "12", "--json"],
        ["bracket", f"{BENCH_GROUPS}/d5.json", f"{BENCH_CLASSES}/d5/p1m1_1.json",
         f"{BENCH_CLASSES}/d5/p2m1_1.json"],
        # an eight-component class, whose orbit is walked along the
        # generators; averaging and projecting it first changes nothing
        ["bracket", *s4, "--json"],
        ["bracket", *s4, "--json", "--reynolds", "--project"],
        ["bracket", _ex("two_sign_pairs_k5"), _ex("class_volume3_first"),
         _ex("class_fixed_volume2_second")],
        ["bracket", _ex("overlap_signs_k3"), _ex("class_x3_wedge12_first"),
         _ex("class_x1_wedge23_second"), "--json"],
        ["verify", "examples"],
        ["verify", "examples", "--json"],
        ["verify", "appendix", "--json"],
        ["verify", "appendix", "--max", "1", "--json"],
        ["verify", "homotopy", "--json"],
        ["verify", "schouten", "--dim", "2", "--pairs", "5"],
    ]
    return out + [argv for argv, _ in REFUSALS]


def run(argv):
    """(exit code, stdout, stderr) of cli.main(argv), run in this process
    from the repository root."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


def entry(argv, code, out, err):
    """The manifest entry of a command that exited with code and printed
    the bytes out and err."""
    return {"argv": argv, "exit": code,
            "stdout": hashlib.sha256(out).hexdigest(), "stderr": hashlib.sha256(err).hexdigest()}


def load_manifest():
    """argv tuple -> recorded entry."""
    return {tuple(e["argv"]): e for e in json.loads(MANIFEST.read_text())}


def first_difference(argvs, recorded):
    """None when each command of argvs gives its recorded entry; else how
    many do not, and the first of them with its old and new exit codes
    and the head of its new output."""
    found = []
    for argv in argvs:
        code, out, err = run(argv)
        now = entry(argv, code, out.encode(), err.encode())
        if now != recorded[tuple(argv)]:
            found.append((argv, now, out + err))
    if not found:
        return None
    argv, now, text = found[0]
    old = recorded[tuple(argv)]
    same = {key: "same" if old[key] == now[key] else "changed" for key in ("stdout", "stderr")}
    head = "\n".join(text.splitlines()[:12])
    return (f"{len(found)} of {len(argvs)} commands differ from the manifest; the first:\n"
            f"  skewbrack {' '.join(argv)}\n"
            f"  exit {old['exit']} -> {now['exit']}, stdout {same['stdout']}, "
            f"stderr {same['stderr']}\n"
            f"  it now prints:\n{head}")


def main():
    old = load_manifest() if MANIFEST.exists() else {}
    entries = []
    for argv in commands():
        code, out, err = run(argv)
        entries.append(entry(argv, code, out.encode(), err.encode()))
    changed = sum(old.get(tuple(e["argv"])) != e for e in entries)
    dropped = len(old.keys() - {tuple(e["argv"]) for e in entries})
    MANIFEST.write_text("[\n" + ",\n".join(json.dumps(e) for e in entries) + "\n]\n")
    print(f"{MANIFEST.relative_to(ROOT)}: {len(entries)} commands, {changed} new or "
          f"changed, {dropped} dropped")


if __name__ == "__main__":
    main()
