"""Timing in `ref` units on a host whose speed changes under our feet.

On a shared host the speed of one core can change by nearly a factor two
within a second, as neighbours come and go.  Each operation is therefore
timed against a fixed reference loop sampled right before it, right after
it, and every INTERVAL seconds while it runs (from a SIGALRM handler, so no
thread is started).  The operation's latency in ref units is its seconds,
less the time the samples inside it took, divided by the harmonic mean of
those samples.

Automatic garbage collection is off while a pass runs, as in timeit: the
collector runs between operations instead (the young generations after
each, all of them after every FULL_GC_EVERY), so the cost of a collection
does not land on whichever operation happened to trigger it.
"""

import gc
import math
import signal
import time
from contextlib import nullcontext
from fractions import Fraction

# The reference loop's seconds on an uncontended core of a 2-core x86
# host; it turns set-up time in ref units back into seconds.
REF_SECONDS = 0.0005
INTERVAL = 0.01
GAP_SAMPLES = 3
FULL_GC_EVERY = 20


class _Scalar:
    """A rational held as a coefficient tuple and multiplied by
    convolution, as a degree-one cyclotomic number is."""

    __slots__ = ("c",)

    def __init__(self, c):
        self.c = c

    def __mul__(self, other):
        prod = [Fraction(0)] * (len(self.c) + len(other.c) - 1)
        for i, a in enumerate(self.c):
            if a:
                for j, b in enumerate(other.c):
                    if b:
                        prod[i + j] += a * b
        return _Scalar(tuple(prod))

    def __add__(self, other):
        return _Scalar(tuple(a + b for a, b in zip(self.c, other.c)))

    def __bool__(self):
        return any(self.c)


def _product(p, q):
    """Product of sparse polynomials {exponent tuple: _Scalar}."""
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            v = c1 * c2
            if e in out:
                v = out[e] + v
            if v:
                out[e] = v
            else:
                del out[e]
    return out


_P = {(1, 0, 0): (1, 2), (0, 1, 0): (-1, 1), (0, 0, 1): (3, 4), (1, 1, 0): (2, 3)}
_Q = {(0, 0, 0): (1, 1), (0, 1, 1): (-5, 2), (2, 0, 0): (1, 3)}


def reference_loop():
    """About 0.5 ms of exact sparse polynomial arithmetic over Fraction
    scalars, shaped like the program's inner loops (dicts keyed by
    exponent tuples, small slotted scalar objects) but importing nothing
    from skewbrack.  When the host slows down it slows by the same factor
    as the operations; a plain Fraction-and-dict loop slows by about 7%
    more, which let the share of slow time leak into the metrics."""
    p = {e: _Scalar((Fraction(*v),)) for e, v in _P.items()}
    q = {e: _Scalar((Fraction(*v),)) for e, v in _Q.items()}
    return _product(_product(p, q), p)


def time_ref():
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


def gap_samples():
    return [time_ref() for _ in range(GAP_SAMPLES)]


def harmonic_mean(values):
    return len(values) / sum(1 / v for v in values)


def tail(values):
    """(value, percentile, samples beyond) at the highest whole percentile
    with at least ten samples beyond it; the maximum below 11 samples."""
    s = sorted(values)
    n = len(s)
    if n <= 10:
        return s[-1], 100, 0
    pct = math.floor(100 * (n - 10) / n)
    rank = max(1, math.ceil(pct * n / 100))
    return s[rank - 1], pct, n - rank


class Pass:
    """One measured pass: per operation its seconds and its local ref."""

    def __init__(self, ops):
        self.ops = ops
        self.seconds = []
        self.local_refs = []
        self.samples = []
        self.failures = []

    @property
    def ref(self):
        """The pass's ref: harmonic mean of every reference sample."""
        return harmonic_mean(self.samples)

    def latencies_ref(self):
        return [s / r for s, r in zip(self.seconds, self.local_refs)]


def measure(ops, check, tracer=None):
    """Run each operation once, timed alone; `check(op, result)` runs
    untimed after each and returns the reasons it failed, if any."""
    result = Pass(ops)
    inside = []
    stolen = [0.0]

    def sample(signum, frame):
        start = time.perf_counter()
        inside.append(time_ref())
        spent = time.perf_counter() - start
        stolen[0] += spent
        if tracer is not None:
            tracer.exclude(spent)

    gc.collect()
    gc.disable()
    previous = signal.signal(signal.SIGALRM, sample)
    try:
        for i, op in enumerate(ops):
            gc.collect(2 if i % FULL_GC_EVERY == FULL_GC_EVERY - 1 else 1)
            inside.clear()
            stolen[0] = 0.0
            reasons = []
            out = None
            before = gap_samples()
            with tracer or nullcontext():
                signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
                start = time.perf_counter()
                try:
                    out = op.call()
                except Exception as exc:  # a failed operation, counted below
                    reasons.append(f"raised {exc!r}")
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
                    elapsed = time.perf_counter() - start
            after = gap_samples()
            local = before + inside + after
            result.seconds.append(elapsed - stolen[0])
            result.local_refs.append(harmonic_mean(local))
            result.samples.extend(local)
            if not reasons:
                reasons = check(op, out)
            if reasons:
                result.failures.append({"op": op.key, "reasons": reasons})
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        gc.enable()
    return result
