"""Regenerate the benchmark's stored inputs and output digests.

    python3 perfbench/make_data.py            # groups, basis classes, digests
    python3 perfbench/make_data.py digests    # digests only

Group files go to data/groups, cohomology basis classes (as class files)
to data/classes/<group>, and the digest of every pool entry's canonical
output to data/digests.json.  The digests pin the outputs of the commit
that recorded them: rerun only when a change is meant to alter outputs.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from skewbrack import cli, cochain  # noqa: E402

DATA = workloads.DATA
BASIS_BIDEGREES = {
    "s4": workloads.SMALL + workloads.LARGE,
    "s5": workloads.SMALL,
    "d4": workloads.SMALL + workloads.LARGE,
    "d5": workloads.SMALL + workloads.LARGE,
    "rot": workloads.SMALL + workloads.LARGE,
}


def permutation_generators(n):
    """Matrices of the transposition (1 2) and the n-cycle (1 2 ... n)."""
    def matrix(images):
        return [["1" if images[j] == i else "0" for j in range(n)] for i in range(n)]
    return [matrix([1, 0] + list(range(2, n))), matrix([(i + 1) % n for i in range(n)])]


def dihedral_generators(n):
    """Rotation diag(z, z^(n-1), 1) and the reflection swapping x1, x2 and
    negating x3, over Q(zeta_n)."""
    rotation = [["z", "0", "0"], ["0", f"z^{n - 1}", "0"], ["0", "0", "1"]]
    reflection = [["0", "1", "0"], ["1", "0", "0"], ["0", "0", "-1"]]
    return [rotation, reflection]


def write_groups():
    out = DATA / "groups"
    out.mkdir(parents=True, exist_ok=True)
    specs = {
        "s4": (4, 1, permutation_generators(4)),
        "s5": (5, 1, permutation_generators(5)),
        "d4": (3, 4, dihedral_generators(4)),
        "d5": (3, 5, dihedral_generators(5)),
    }
    for name, (dim, order, gens) in specs.items():
        doc = {"dimension": dim, "cyclotomicOrder": order, "generators": gens}
        (out / f"{name}.json").write_text(json.dumps(doc, indent=1) + "\n")
    shutil.copy(ROOT / "fixtures" / "rotation_pair_k5_z6.json", out / "rot.json")


def write_classes():
    for name, bidegrees in BASIS_BIDEGREES.items():
        out = DATA / "classes" / name
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        group = workloads.load_group(name)
        for p, m in bidegrees:
            for i, c in enumerate(cochain.cohomology_basis(group, p, m)):
                doc = cli.cochain_to_classfile(c)
                (out / f"p{p}m{m}_{i}.json").write_text(json.dumps(doc) + "\n")
        print(f"classes: {name}", flush=True)


def write_digests():
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, workload in workloads.WORKLOADS.items():
            table = digests[name] = {}
            for op in workloads.all_entries(workload, Path(tmp)):
                text, bad = op.finish(op.call())
                if bad:
                    raise SystemExit(f"{name} {op.key}: {'; '.join(bad)}")
                table[op.key] = workloads.digest(text)
            print(f"digests: {name}: {len(table)} entries", flush=True)
    (DATA / "digests.json").write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


def main(argv):
    if argv != ["digests"]:
        write_groups()
        write_classes()
    write_digests()


if __name__ == "__main__":
    main(sys.argv[1:])
