"""Five sha256 digests of jjcavity's outputs, to check that a change
keeps them bit for bit.

    python3 tools/digest.py

prints

    pools <sha256>    repr of every op output of the bench workloads point,
                      threshold, sweep and crosscheck, in that order, each
                      over every input of seeds 5, 6 and 7
    sweeps <sha256>   repr of sweep_kappa2(p, logspace(10, 14, 25)) for 300
                      `random_params` draws of np.random.default_rng(11)
    cli <sha256>      `jjcavity --help` and each `<command> --help`, then
                      the exit code and stdout of every command at the
                      paper point (`reference_params`), run in-process
                      through `cli.main`, and simulate's two output files
    checks <sha256>   the verdict `validate_model(m) == []` (not its
                      messages) for 2000 one-entry perturbations of the
                      paper point's M or N, then the repr of the
                      `verify_sector` and `verify_second` reports of the
                      cosine derivatives on 300 random grids, both drawn
                      from np.random.default_rng(13)
    nonnormal <sha256>  repr of `hinf_norm` on each Hurwitz A = Q (D + T) Q^H
                      of the non-normal family (n = 2..6, D the spectrum,
                      T strictly upper and up to 10^E times it), 200 draws
                      of np.random.default_rng(seed) at (E, seed) = (3, 5)
                      and (6, 1), or the type and message of what it
                      raised.  Of the 194 Hurwitz draws at E = 3, 192 give
                      a norm and 2 a "level ... still crossed" failure; of
                      the 133 at E = 6, 117 a norm, 15 that failure and 1
                      "polish failed" (an exactly singular solve, so it
                      may depend on the LAPACK build).  No other line
                      reaches the norm search's failure exits.

Run it in two checkouts (copy this file into the older one) and compare the
lines.  It imports the package from its own checkout's src/ and reads
bench/ and tests/.  It writes only into a temporary directory, which it
removes: the paper point's parameters and model files, and simulate's
outputs.  Help pages are formatted at COLUMNS=80.
"""

import os
import sys
from pathlib import Path

# one BLAS thread, set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["COLUMNS"] = "80"  # argparse wraps help pages to the terminal
sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench"), str(ROOT / "tests")]

import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import tempfile  # noqa: E402

import numpy as np  # noqa: E402

import jjcavity as jc  # noqa: E402
from jjcavity.cli import main  # noqa: E402
from jjcavity.sector import cosine_first_derivative, cosine_second_derivative  # noqa: E402
import workloads  # noqa: E402
from conftest import random_params  # noqa: E402

WORKLOADS = ("point", "threshold", "sweep", "crosscheck")
SEEDS = (5, 6, 7)
SWEEP_DRAWS, SWEEP_SEED = 300, 11
CHECK_DRAWS, GRID_DRAWS, CHECK_SEED = 2000, 300, 13
NONNORMAL_DRAWS, NONNORMAL_CASES = 200, ((3, 5), (6, 1))  # (E, seed)
COMMANDS = ("build", "certify", "sweep", "threshold", "bode", "sensitivity", "simulate", "verify-sector")


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


def cli() -> str:
    h = hashlib.sha256()

    def run(*argv) -> str:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(list(argv))
            except SystemExit as exc:  # --help
                code = exc.code
        h.update(f"{code}\n{out.getvalue()}".encode())
        return out.getvalue()

    run("--help")
    for command in COMMANDS:
        run(command, "--help")
    p = jc.reference_params()
    with tempfile.TemporaryDirectory() as tmp:
        params, model = os.path.join(tmp, "params.json"), os.path.join(tmp, "model.json")
        with open(params, "w") as fh:
            json.dump(dataclasses.asdict(p), fh)
        flags = [x for f in dataclasses.fields(p) for x in (f"--{f.name}", repr(getattr(p, f.name)))]
        with open(model, "w") as fh:
            fh.write(run("build", *flags))
        run("certify", "--model", model)
        run("threshold", "--params-json", params, "--lo", "1e11", "--hi", "1e13")
        for fmt in ("json", "csv"):
            run("sweep", "--params-json", params, "--kappa2-grid", "1e12:1e13:40", "--format", fmt)
            run("bode", "--model", model, "--omega-lo", "1e9", "--omega-hi", "1e14", "--format", fmt)
            run("sensitivity", "--params-json", params, "--kappa1-grid", "1e10:1e12:9",
                "--kappa2-fixed", "2.5e12", "--format", fmt)
        traj, decay = os.path.join(tmp, "traj.csv"), os.path.join(tmp, "decay.json")
        run("simulate", "--model", model, "--out", traj, "--decay-out", decay)
        for path in (traj, decay):
            with open(path, "rb") as fh:
                h.update(fh.read())
        run("verify-sector", "--Jp", repr(p.Jp))
    return h.hexdigest()


def checks() -> str:
    h = hashlib.sha256()
    rng = np.random.default_rng(CHECK_SEED)
    model = jc.build_model(jc.reference_params())
    for _ in range(CHECK_DRAWS):
        name = str(rng.choice(["M", "N"]))
        X = getattr(model, name).copy()
        i, j = rng.integers(0, X.shape[0], size=2)
        # 1e-13..1e-5 of the largest entry: both sides of the 1e-9 relative tolerance
        size = 10 ** rng.uniform(-13, -5) * np.abs(X).max()
        X[i, j] += size * [1.0, 1j, complex(*rng.standard_normal(2))][rng.integers(3)]
        h.update(repr(jc.validate_model(dataclasses.replace(model, **{name: X})) == []).encode())
    for _ in range(GRID_DRAWS):
        grid = jc.GridSpec(
            re_max=float(10 ** rng.uniform(-3, 3)), im_max=float(10 ** rng.uniform(-3, 9)),
            points_re=int(rng.integers(1, 60)), points_im=int(rng.integers(1, 60)),
        )
        Jp = float(10 ** rng.uniform(-2, 10))
        gamma = float(10 ** rng.uniform(-3, 9))
        delta1, delta2 = (float(rng.choice([0.0, 10 ** rng.uniform(-5, 20)])) for _ in range(2))
        h.update(repr(jc.verify_sector(cosine_first_derivative(Jp), gamma, delta1, grid)).encode())
        h.update(repr(jc.verify_second(cosine_second_derivative(Jp), delta2, grid)).encode())
    return h.hexdigest()


def nonnormal() -> str:
    h = hashlib.sha256()
    for E, seed in NONNORMAL_CASES:
        rng = np.random.default_rng(seed)
        for _ in range(NONNORMAL_DRAWS):
            n = int(rng.integers(2, 7))
            Q = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
            D = np.diag(-10 ** rng.uniform(-2, 0.3, n) + 1j * rng.uniform(-2, 2, n))
            T = np.triu(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), 1) * 10 ** rng.uniform(0, E)
            B, C = (rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(2))
            A = Q @ (D + T) @ Q.conj().T
            if not jc.is_hurwitz(A):
                continue
            try:
                result = repr(jc.hinf_norm(jc.StateSpace(A, B, C)))
            except (RuntimeError, ValueError) as exc:  # the failure exits this line pins
                result = f"{type(exc).__name__}: {exc}"
            h.update(result.encode())
    return h.hexdigest()


if __name__ == "__main__":
    print("pools", pools())
    print("sweeps", sweeps())
    print("cli", cli())
    print("checks", checks())
    print("nonnormal", nonnormal())
