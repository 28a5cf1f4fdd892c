"""Interleaved A/B latency of the bench workloads in two checkouts, in one
process.

    python3 tools/abtime.py OTHER_CHECKOUT

loads this checkout's src/ and bench/workloads.py, then those of
OTHER_CHECKOUT, each under its own `jjcavity` and `workloads` entries of
sys.modules, and times the ops of the workloads point, threshold, sweep and
crosscheck on the bench pools of seeds 5, 6 and 7.  Each round runs every
input once on each side, back to back, with the side that goes first
alternating from round to round, so that drift in clock speed, cache and
allocator state falls on both sides alike.  For each workload it prints,
per side, the mean over inputs of each input's minimum and median latency
(the bench's ops_per_s is one over the latter), the ratio this / other of
each, and whether the repr of every op output is the same on both sides.

Pairs of bench runs of two checkouts, one process each, can differ by
several percent with nothing changed but the directory they run from and
the allocator state they meet.  This reading cancels much of that, but it
runs both sides in one process and not the bench's own loop: it
supplements the bench pairs and does not replace them.

It runs with one BLAS thread, takes no other options and writes nothing.
"""

import os
import sys
from pathlib import Path

# one BLAS thread, set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parent.parent

import gc  # noqa: E402
import importlib  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

WORKLOADS = ("point", "threshold", "sweep", "crosscheck")
SEEDS = (5, 6, 7)
#: rounds per workload: each one runs every input once on each side
ROUNDS = {"point": 30, "threshold": 60, "sweep": 30, "crosscheck": 20}


def load(root: Path):
    """The `workloads` module of the checkout at `root`, with that
    checkout's `jjcavity` bound inside it.  Both leave sys.modules and
    sys.path again, so the other checkout loads under the same names."""
    path = sys.path[:]
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    try:
        return importlib.import_module("workloads")
    finally:
        sys.path[:] = path
        for name in [n for n in sys.modules if n == "workloads" or n.partition(".")[0] == "jjcavity"]:
            del sys.modules[name]


def compare(name: str, sides: list) -> str:
    """One table row: the workload `name` timed on both `sides`."""
    pools = [[p for seed in SEEDS for p in wl.make_inputs(name, seed)] for wl in sides]
    ops = [wl.WORKLOADS[name].op for wl in sides]
    for wl, pool in zip(sides, pools):
        wl.WORKLOADS[name].warmup(pool[0])
    same = all(repr(ops[0](a)) == repr(ops[1](b)) for a, b in zip(*pools))
    lat = [[[] for _ in pools[0]] for _ in sides]
    gc.collect()
    gc.disable()
    try:
        for r in range(ROUNDS[name]):
            order = (0, 1) if r % 2 == 0 else (1, 0)
            for i in range(len(pools[0])):
                for s in order:
                    t0 = time.perf_counter()
                    ops[s](pools[s][i])
                    lat[s][i].append(time.perf_counter() - t0)
    finally:
        gc.enable()
    mins = [statistics.fmean(min(t) for t in side) * 1e3 for side in lat]
    meds = [statistics.fmean(statistics.median(t) for t in side) * 1e3 for side in lat]
    return (f"{name:<11} {len(pools[0]):>6} {ROUNDS[name]:>6}  {mins[0]:>9.4f} {mins[1]:>9.4f} "
            f"{mins[0] / mins[1]:>6.3f}  {meds[0]:>9.4f} {meds[1]:>9.4f} {meds[0] / meds[1]:>6.3f}  "
            f"{'yes' if same else 'NO'}")


def main(argv: list[str]) -> int:
    if len(argv) != 1 or argv[0].startswith("-"):
        print(__doc__.strip().splitlines()[0], "\n\nusage: python3 tools/abtime.py OTHER_CHECKOUT",
              file=sys.stderr)
        return 2
    other = Path(argv[0]).resolve()
    if not (other / "src" / "jjcavity").is_dir() or not (other / "bench" / "workloads.py").is_file():
        print(f"abtime: {other} is not a checkout with src/jjcavity and bench/workloads.py", file=sys.stderr)
        return 2
    sides = [load(ROOT), load(other)]
    print(f"# this: {ROOT}\n# other: {other}\n# latency in ms per op, mean over inputs; ratio this / other")
    print(f"{'workload':<11} {'inputs':>6} {'rounds':>6}  {'min this':>9} {'other':>9} {'ratio':>6}  "
          f"{'med this':>9} {'other':>9} {'ratio':>6}  repr same")
    for name in WORKLOADS:
        print(compare(name, sides), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
