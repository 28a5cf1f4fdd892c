"""Two sha256 digests of jjcavity's outputs, to check that a change keeps
them bit for bit.

    python3 tools/digest.py

prints

    pools <sha256>    repr of every op output of the bench workloads point,
                      threshold, sweep and crosscheck, in that order, each
                      over every input of seeds 5, 6 and 7
    sweeps <sha256>   repr of sweep_kappa2(p, logspace(10, 14, 25)) for 300
                      `random_params` draws of np.random.default_rng(11)

Run it in two checkouts (copy this file into the older one) and compare the
lines.  It imports the package from its own checkout's src/, reads bench/
and tests/, and writes nothing.
"""

import os
import sys
from pathlib import Path

# one BLAS thread, set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench"), str(ROOT / "tests")]

import hashlib  # noqa: E402

import numpy as np  # noqa: E402

import jjcavity as jc  # noqa: E402
import workloads  # noqa: E402
from conftest import random_params  # noqa: E402

WORKLOADS = ("point", "threshold", "sweep", "crosscheck")
SEEDS = (5, 6, 7)
SWEEP_DRAWS, SWEEP_SEED = 300, 11


def pools() -> str:
    h = hashlib.sha256()
    for name in WORKLOADS:
        op = workloads.WORKLOADS[name].op
        for seed in SEEDS:
            for p in workloads.make_inputs(name, seed):
                h.update(repr(op(p)).encode())
    return h.hexdigest()


def sweeps() -> str:
    h = hashlib.sha256()
    rng = np.random.default_rng(SWEEP_SEED)
    grid = np.logspace(10, 14, 25)
    for _ in range(SWEEP_DRAWS):
        h.update(repr(jc.sweep_kappa2(random_params(rng), grid)).encode())
    return h.hexdigest()


if __name__ == "__main__":
    print("pools", pools())
    print("sweeps", sweeps())
