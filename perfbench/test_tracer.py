"""The tracer must not change what it traces.

    python3 perfbench/test_tracer.py        # or: python3 -m pytest perfbench/test_tracer.py

For the first operations of each workload, in seeded order: outputs with
the wrappers installed equal the untraced outputs and the recorded digests,
every exact count repeats across two traced runs with the same seed, and
no wrapper is left behind.  It also checks that BENCHMARK.json lists the
metrics the benchmark prints.
"""

import json
import shutil
import tempfile
from contextlib import nullcontext
from pathlib import Path

import run

workloads, tracer_mod = run.load_program()
from skewbrack.scalars import Cyc  # noqa: E402

SEED = 1
FIRST_OPS = 8


def outputs(workload, workdir, tracer=None):
    """Digest of each of the first operations' outputs, after its checks."""
    with tracer or nullcontext():
        ops = workloads.build(workload, SEED, 1, workdir)[:FIRST_OPS]
    digests = {}
    for op in ops:
        with tracer or nullcontext():
            result = op.call()
        text, reasons = op.finish(result)
        assert not reasons, (op.key, reasons)
        digests[op.key] = workloads.digest(text)
    return digests


def test_tracer_is_transparent():
    stored = workloads.load_digests()
    mul, inverse = Cyc.__dict__["__mul__"], Cyc.__dict__["inverse"]
    (run.ROOT / ".bench_build").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=run.ROOT / ".bench_build"))
    try:
        for name, workload in workloads.WORKLOADS.items():
            plain = outputs(workload, workdir)
            assert plain == {k: stored[name][k] for k in plain}, name
            counts = []
            for _ in range(2):
                tracer = tracer_mod.Tracer()
                assert outputs(workload, workdir, tracer) == plain, name
                counts.append(tracer.counts())
                assert tracer_mod.installed_wrappers() == [], name
            assert counts[0] == counts[1], name
            assert sum(counts[0].values()) > 0, name
    finally:
        shutil.rmtree(workdir)
    assert Cyc.__dict__["__mul__"] is mul and Cyc.__dict__["__rmul__"] is mul
    assert Cyc.__dict__["inverse"] is inverse


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.UNITS)
    assert [m["unit"] for m in spec["end_to_end"]] == list(run.UNITS.values())
    per_layer = [*tracer_mod.PER_LAYER, "trace.overhead_ref"]
    assert [m["name"] for m in spec["per_layer"]] == per_layer
    assert [m["unit"] for m in spec["per_layer"]] == [tracer_mod.unit(n) for n in per_layer]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


if __name__ == "__main__":
    test_tracer_is_transparent()
    test_benchmark_json_lists_the_printed_metrics()
    print("tracer transparency: ok")
