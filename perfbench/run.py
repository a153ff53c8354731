"""Benchmark for skewbrack: one closed-loop caller, one process, no threads.

    python3 perfbench/run.py --workload cohomology-sweep --seed 1 --seconds 16 --trace 0

Workloads are defined in workloads.py.  The run's work depends on --seconds
alone: seconds // round_seconds rounds of the workload's operations, at
least one.  A slower or busier host takes longer for the same work; it
does not do less.  Each operation is timed alone, and every output is
checked against an independent reference and against its recorded digest.
Times are in `ref` units (see timing.py); raw seconds go into the run
record.

With --trace 0 the last line holds the end-to-end metrics.  With --trace 1
the run is made twice in one process, untraced and then traced from a
fresh set-up, and the last line holds the per-layer metrics of tracer.py
plus trace.overhead_ref.  The line before the last is the run record.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path

import timing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
UNITS = {"setup_s": "s", "run_ref": "ref", "op_p50_ref": "ref",
         "op_tail_ref": "ref", "peak_rss_mb": "MB"}


def load_program():
    """Import skewbrack from this checkout's src/, never from elsewhere,
    and the benchmark modules that use it."""
    os.environ["SKEWBRACK_THREADS"] = "1"
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    import skewbrack
    if Path(skewbrack.__file__).resolve().parent != (SRC / "skewbrack").resolve():
        raise SystemExit(f"perfbench: skewbrack imported from {skewbrack.__file__}")
    import tracer
    import workloads
    return workloads, tracer


def checker(workloads, digests):
    def check(op, out):
        try:
            text, reasons = op.finish(out)
        except Exception as exc:  # a failed check, counted as a failure
            return [f"check raised {exc!r}"]
        if digests.get(op.key) != workloads.digest(text):
            reasons.append("output digest differs from the recorded one")
        return reasons
    return check


def run(workloads, tracer_mod, workload, args, workdir):
    """Returns (run record, metrics, attempted, failed)."""
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "python": platform.python_version(),
              "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
              "loadavg_start": os.getloadavg(),
              "SKEWBRACK_THREADS": os.environ["SKEWBRACK_THREADS"]}
    rounds = int(args.seconds // workload.round_seconds)
    record["rounds"] = rounds = max(1, min(workloads.MAX_ROUNDS, rounds))
    check = checker(workloads, workloads.load_digests()[workload.name])

    def build():
        return workloads.build(workload, args.seed, rounds, workdir)

    if args.trace:
        plain = timing.measure(build(), check)
        tracer = tracer_mod.Tracer()
        with tracer:
            ops = build()
        traced = timing.measure(ops, check, tracer)
        metrics = {name: {"value": value, "unit": tracer_mod.unit(name)}
                   for name, value in tracer.metrics(traced.ref).items()}
        overhead = sum(traced.latencies_ref()) - sum(plain.latencies_ref())
        metrics["trace.overhead_ref"] = {"value": overhead, "unit": "ref"}
        passes = {"untraced": plain, "traced": traced}
        record["counts"] = tracer.counts()
    else:
        built = []

        def keep(op, out):
            built[:] = [out]
            return []

        setup = timing.measure([workloads.Op("setup", build, None)] * SETUP_REPEATS, keep)
        if setup.failures:
            raise SystemExit(f"perfbench: set-up failed: {setup.failures}")
        plain = timing.measure(built.pop(), check)
        lat = plain.latencies_ref()
        tail_ref, pct, beyond = timing.tail(lat)
        values = {
            "setup_s": statistics.median(setup.latencies_ref()) * timing.REF_SECONDS,
            "run_ref": sum(lat),
            "op_p50_ref": statistics.median(lat),
            "op_tail_ref": tail_ref,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: {"value": v, "unit": UNITS[name]} for name, v in values.items()}
        passes = {"untraced": plain}
        record.update({
            "setup_runs_s": setup.seconds, "op_tail_percentile": pct, "op_tail_beyond": beyond,
            "op_p50_s": statistics.median(plain.seconds),
            "op_tail_s": timing.tail(plain.seconds)[0]})
    for label, p in passes.items():
        record[label] = {"operations": len(p.seconds), "ref_s": p.ref,
                         "ref_samples": len(p.samples), "run_s": sum(p.seconds),
                         "failures": p.failures,
                         "ops": [[op.key, s, r] for op, s, r in
                                 zip(p.ops, p.seconds, p.local_refs)]}
    attempted = sum(len(p.seconds) for p in passes.values())
    failed = sum(len(p.failures) for p in passes.values())
    record["error_rate"] = failed / attempted
    record["loadavg_end"] = os.getloadavg()
    return record, metrics, attempted, failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "skewbrack" / "__init__.py").is_file():
        print(f"perfbench: no skewbrack sources in {SRC}", file=sys.stderr)
        return 2
    workloads, tracer_mod = load_program()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    workdir = ROOT / ".bench_build" / f"perfbench-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        record, metrics, attempted, failed = run(workloads, tracer_mod, workload,
                                                 args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, m in metrics.items():
        print(f"{args.workload}  {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload}  error_rate = {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} operations failed)")
    print("record: " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
