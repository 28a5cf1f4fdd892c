"""LAPACK work per op of the bench workloads, function calls per op, and
minor page faults per op.

    python3 tools/opcount.py

For each of the workloads point, threshold, sweep and crosscheck, over its
bench pool of seed 7, prints per op the calls of
numpy.linalg.solve, eigvals and eig, the matrices they take (a call on a
(k, m, n, n) stack takes k m matrices) and those matrices by order n.  The
counts come from one pass over the pool and do not depend on the machine,
so they show whether a change keeps LAPACK's work: run this in two
checkouts (copy this file into the older one) and compare the tables.

The "all calls/op" column counts the Python and C function calls of an
op: the `call` and `c_call` events of `sys.setprofile` over one pass,
after the LAPACK pass has warmed every cache.  The count is deterministic
for a given Python and numpy, so it shows on any machine how much
interpreter and numpy-wrapper work a change adds or removes, where
timings need many runs.  It does not see array operators such as `a + b`
or `x[i]`, nor numpy ufuncs such as `np.abs(x)` (a ufunc is not a C
function to the profiler), nor the work done inside one call.

The last column is the minor page faults per op (getrusage ru_minflt) over
5 untraced passes after one warm pass.  It depends on the allocator
and on what earlier ops left mapped, not on the program alone: a hint of
how much memory an op maps afresh, not a count to pin.  So each workload
runs in a fresh process of its own: in one process, sweep's faults per op
would follow the workloads before it.

It imports the package from its own checkout's src/ and the workloads from
bench/, runs with one BLAS thread, and writes nothing.
"""

import os
import sys
from pathlib import Path

# one BLAS thread, set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import math  # noqa: E402
import multiprocessing  # noqa: E402
import resource  # noqa: E402
from collections import Counter  # noqa: E402
from concurrent.futures import ProcessPoolExecutor  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402

WORKLOADS = ("point", "threshold", "sweep", "crosscheck")
SEED = 7
PASSES = 5  # untraced passes for the page faults
FUNCTIONS = ("solve", "eigvals", "eig")


def lapack_counts(op, pool) -> dict:
    """{function: (calls, Counter(order -> matrices))} summed over one pass
    of `op` over `pool`, with each numpy.linalg function wrapped."""
    calls, matrices = Counter(), {name: Counter() for name in FUNCTIONS}
    saved = {name: getattr(np.linalg, name) for name in FUNCTIONS}

    def counted(name, fn):
        def wrapper(a, *args, **kwargs):
            shape = np.shape(a)
            calls[name] += 1
            matrices[name][shape[-1]] += math.prod(shape[:-2])
            return fn(a, *args, **kwargs)
        return wrapper

    try:
        for name, fn in saved.items():
            setattr(np.linalg, name, counted(name, fn))
        for p in pool:
            op(p)
    finally:
        for name, fn in saved.items():
            setattr(np.linalg, name, fn)
    return {name: (calls[name], matrices[name]) for name in FUNCTIONS}


def function_calls(op, pool) -> int:
    """Python and C function calls (profile events `call` and `c_call`)
    summed over one pass of `op` over `pool`."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    sys.setprofile(profile)
    try:
        for p in pool:
            op(p)
    finally:
        sys.setprofile(None)
    return calls


def faults_per_op(op, pool) -> float:
    """Minor page faults per op over PASSES passes, after one warm pass."""
    for p in pool:
        op(p)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(PASSES):
        for p in pool:
            op(p)
    return (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / (PASSES * len(pool))


def measure(name: str) -> tuple[dict, int, float, int]:
    """(`lapack_counts`, `function_calls`, `faults_per_op`, pool size) of
    one workload."""
    op, pool = workloads.WORKLOADS[name].op, workloads.make_inputs(name, SEED)
    return lapack_counts(op, pool), function_calls(op, pool), faults_per_op(op, pool), len(pool)


def fmt(x: float) -> str:
    """x to 4 decimals, without trailing zeros."""
    return f"{x:.4f}".rstrip("0").rstrip(".")


def main() -> int:
    print(f"{'workload':<12}{'function':<10}{'calls/op':>10}{'matrices/op':>13}  {'by order':<22}"
          f"{'all calls/op':>14}  minflt/op (allocator-dependent)")
    for name in WORKLOADS:
        # a fresh process per workload (one at a time), for the page faults
        with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn")) as pool:
            counts, every_call, faults, ops = pool.submit(measure, name).result()
        for j, (fn, (calls, by_order)) in enumerate(counts.items()):
            orders = ", ".join(f"n{n} {fmt(m / ops)}" for n, m in sorted(by_order.items()))
            print(f"{name if j == 0 else '':<12}{fn:<10}{fmt(calls / ops):>10}"
                  f"{fmt(sum(by_order.values()) / ops):>13}  {orders:<22}"
                  f"{fmt(every_call / ops) if j == 0 else '':>14}  {fmt(faults) if j == 0 else ''}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
