"""jjcavity benchmark: one closed-loop client calling the public API.

    python3 bench/run.py --workload point --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

A run cycles through a seeded pool of inputs, timing each operation and
gating its output against an independent reference outside the timed
region, until the timed work reaches --seconds at the end of a whole pass.
--trace 0 reports the end-to-end metrics; --trace 1 runs the pool untraced
for half the time and traced for the other half, and reports the per-layer
metrics.  Human-readable lines start with '#'; the last line is the JSON
result.  Records and spans go to bench/out/.  The exit code is 1 when any
operation failed, 2 when the program cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

T_PROCESS = time.perf_counter()
# one BLAS thread, set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_PROBES = 5
WORK_KEYS = ("steps", "bode_rows", "grid_points")
WORKLOAD_NAMES = ("point", "threshold", "sweep", "crosscheck")

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

LAYER_UNITS = {
    "stability.transfer_eval.calls": "count",
    "stability.transfer_eval.time_s": "s",
    "stability.transfer_eval.per_norm": "count",
    "linalg.solve.calls": "count",
    "linalg.eigvals.n8.calls": "count",
    "linalg.eigvals.n4.calls": "count",
    "linalg.eig.calls": "count",
    "stability.hinf_norm.self_s": "s",
    "stability.certify.calls": "count",
    "stability.certify.self_s": "s",
    "sweep.find_threshold.certify_per_call": "count",
    "sweep.find_threshold.self_s": "s",
    "sweep.sweep_kappa2.self_s": "s",
    "sweep.kappa1_sensitivity.self_s": "s",
    "sweep.bode_csv.self_s": "s",
    "sweep.bode_csv.rows": "count",
    "simulate.integrate_mean.time_s": "s",
    "simulate.integrate_mean.steps": "count",
    "simulate.integrate_mean.ns_per_step": "ns",
    "simulate.estimate_decay.time_s": "s",
    "simulate.slow_mode_vector.time_s": "s",
    "sector.verify_sector.time_s": "s",
    "sector.verify_second.time_s": "s",
    "sector.grid_points": "count",
    "sector.ns_per_point": "ns",
    "builder.build_model.time_s": "s",
    "model.validate_model.time_s": "s",
    "trace.overhead": "ratio",
}


def import_program():
    """Import jjcavity from this checkout's src/, or exit 2."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import jjcavity
    except ImportError as exc:
        print(f"bench: cannot import jjcavity from {ROOT / 'src'}: {exc}", file=sys.stderr)
        sys.exit(2)
    if Path(jjcavity.__file__).resolve().parent.parent != ROOT / "src":
        print(f"bench: imported jjcavity from {jjcavity.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        sys.exit(2)


def blas_threads() -> int | None:
    """OpenBLAS's own thread count, read through the library numpy loaded."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line and ".so" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                return int(getattr(lib, sym)())
    return None


def environment(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Loop:
    """Closed loop over the pool in whole passes, gating every output
    outside the timed region."""

    def __init__(self, workload, pool, clock):
        import oracle

        self.wl = workload
        self.pool = pool
        self.clock = clock
        self.check = oracle.CHECKS[workload.name]
        self.ops: list[tuple[int, float, float]] = []  # (input, start, duration); index = op id
        self.failures: list[tuple[int, list[str]]] = []
        self.first_pass: list = [None] * len(pool)
        self.work = dict.fromkeys(WORK_KEYS, 0)

    def run(self, seconds: float, tracer=None) -> range:
        """Run whole passes until the timed work reaches `seconds`; returns
        the op ids of this run."""
        first = len(self.ops)
        self.clock.calibrate()
        if tracer is None:
            with self.clock.sampling():
                self._passes(seconds, None)
        else:
            self._passes(seconds, tracer)
        self.clock.calibrate()
        return range(first, len(self.ops))

    def _passes(self, seconds: float, tracer) -> None:
        busy, passes = 0.0, 0
        while passes == 0 or busy < seconds:
            for i, p in enumerate(self.pool):
                self.clock.maybe_calibrate()
                if tracer is not None:
                    tracer.op_id, tracer.active = len(self.ops), True
                t0 = time.perf_counter()
                try:
                    out, err = self.wl.op(p), None
                except Exception as exc:  # a failing op is counted, the run goes on
                    out, err = None, f"{type(exc).__name__}: {exc}"
                dt = time.perf_counter() - t0
                if tracer is not None:
                    tracer.active = False
                busy += dt
                self.ops.append((i, t0, dt))
                bad = [err] if err else self.check(p, out, i == 0)
                if bad:
                    self.failures.append((i, bad))
                if out is not None:
                    for k, v in work_done(self.wl.name, out).items():
                        self.work[k] += v
                    if self.first_pass[i] is None:
                        self.first_pass[i] = out
            passes += 1

    def by_input(self, ids: range) -> list[list[float]]:
        """Latencies at the reference speed, grouped by input."""
        out = [[] for _ in self.pool]
        for i, t0, dt in (self.ops[k] for k in ids):
            out[i].append(self.clock.scaled(t0, dt))
        return out


def input_properties(name, pool, outputs) -> dict:
    """What the pool's inputs were like, from the first pass's outputs."""
    import jjcavity as jc
    import oracle

    if any(o is None for o in outputs):
        return {"note": "some first-pass operations failed"}
    if name == "point":
        return oracle.verdict_shares((c.certified, c.hinf_norm, c.gamma_half) for c, _ in outputs)
    if name == "sweep":
        return oracle.verdict_shares(
            (r.certified, r.hinf_norm, 1.0 / (4.0 * p.Jp)) for p, (rows, _) in zip(pool, outputs) for r in rows
        )
    if name == "threshold":
        return {"kappa2_star_quartiles": statistics.quantiles(outputs, n=4), "inputs": len(outputs)}
    certs = [jc.certify(jc.build_model(p)) for p in pool]
    props = oracle.verdict_shares((c.certified, c.hinf_norm, c.gamma_half) for c in certs)
    props["integrate_steps_quartiles"] = statistics.quantiles([o.steps for o in outputs], n=4)
    return props


def timing_metrics(by_input: list[list[float]]) -> dict:
    """Throughput and latency quantiles over the pool, each input taken at
    its median latency across passes.  On a quiet machine this equals the
    plain quantiles of all ops, because every pass repeats the same inputs;
    on a shared one it also drops the slow bursts other tenants cause."""
    import numpy as np

    typical = np.array([statistics.median(lat) for lat in by_input])
    return {"ops_per_s": len(typical) / float(typical.sum()),
            "latency_p50_ms": float(np.median(typical)) * 1e3,
            "latency_p90_ms": float(np.percentile(typical, 90)) * 1e3}


def setup_probe_times(args, clock) -> list[float]:
    """Wall time of fresh processes that import, draw inputs and warm up,
    at the reference speed."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    timed = []
    for _ in range(SETUP_PROBES):
        clock.calibrate()
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=120)
        timed.append((t0, time.perf_counter() - t0))
    clock.calibrate()
    return [clock.scaled(t0, dt) for t0, dt in timed]


def layer_metrics(s, n: int, work: dict, overhead: float) -> dict:
    """Per-op layer metrics from the span summary `s` of `n` traced ops."""
    norms = s.count("stability.hinf_norm")
    thresholds = s.count("sweep.find_threshold")
    steps, points = work["steps"], work["grid_points"]
    sim_time = s.total("simulate.integrate_mean")
    sector_time = s.total("sector.verify_sector") + s.total("sector.verify_second")
    return {
        "stability.transfer_eval.calls": s.count("stability.transfer_eval") / n,
        "stability.transfer_eval.time_s": s.total("stability.transfer_eval") / n,
        "stability.transfer_eval.per_norm":
            s.count_under("stability.transfer_eval", "stability.hinf_norm") / norms if norms else 0.0,
        "linalg.solve.calls": s.count("linalg.solve") / n,
        "linalg.eigvals.n8.calls": s.count("linalg.eigvals.n8") / n,
        "linalg.eigvals.n4.calls": s.count("linalg.eigvals.n4") / n,
        "linalg.eig.calls": s.count("linalg.eig") / n,
        "stability.hinf_norm.self_s": s.self_time("stability.hinf_norm") / n,
        "stability.certify.calls": s.count("stability.certify") / n,
        "stability.certify.self_s": s.self_time("stability.certify") / n,
        "sweep.find_threshold.certify_per_call":
            s.count_under("stability.certify", "sweep.find_threshold") / thresholds if thresholds else 0.0,
        "sweep.find_threshold.self_s": s.self_time("sweep.find_threshold") / n,
        "sweep.sweep_kappa2.self_s": s.self_time("sweep.sweep_kappa2") / n,
        "sweep.kappa1_sensitivity.self_s": s.self_time("sweep.kappa1_sensitivity") / n,
        "sweep.bode_csv.self_s": s.self_time("sweep.bode_csv") / n,
        "sweep.bode_csv.rows": work["bode_rows"] / n,
        "simulate.integrate_mean.time_s": sim_time / n,
        "simulate.integrate_mean.steps": steps / n,
        "simulate.integrate_mean.ns_per_step": sim_time / steps * 1e9 if steps else 0.0,
        "simulate.estimate_decay.time_s": s.total("simulate.estimate_decay") / n,
        "simulate.slow_mode_vector.time_s": s.total("simulate.slow_mode_vector") / n,
        "sector.verify_sector.time_s": s.total("sector.verify_sector") / n,
        "sector.verify_second.time_s": s.total("sector.verify_second") / n,
        "sector.grid_points": points / n,
        "sector.ns_per_point": sector_time / points * 1e9 if points else 0.0,
        "builder.build_model.time_s": s.total("builder.build_model") / n,
        "model.validate_model.time_s": s.total("model.validate_model") / n,
        "trace.overhead": overhead,
    }


def work_done(name, out) -> dict:
    """Work read off one output: integrator steps, Bode rows, sector grid points."""
    if name != "crosscheck":
        return {}
    return {"steps": out.steps, "bode_rows": len(out.bode),
            "grid_points": sum(r.grid_spec.points_re * r.grid_spec.points_im for r in out.sector)}


def op_counts(tracer, op_id) -> dict:
    """Deterministic counts of one op; linalg counts also per certify call."""
    s = tracer.summary(ops=[op_id])
    certs = s.count("stability.certify")
    out = {"certify": certs, "find_threshold.certify": s.count_under("stability.certify", "sweep.find_threshold")}
    for name in ("linalg.solve", "linalg.eigvals.n8", "linalg.eigvals.n4", "linalg.eig"):
        out[name] = s.count(name)
        if certs:
            out[f"{name}.per_certify"] = s.count(name) / certs
    return out


def run_workload(args) -> int:
    import gc

    import speed
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    pool = workloads.make_inputs(args.workload, args.seed)
    wl.warmup(pool[0])
    if args.setup_probe:
        return 0
    gc.collect()
    record = {"env": environment(args), "pool_size": len(pool),
              "in_process_setup_s": time.perf_counter() - T_PROCESS}
    clock = speed.Clock()
    loop = Loop(wl, pool, clock)

    if args.trace:
        import spans

        plain = loop.run(args.seconds / 2)
        tracer = spans.Tracer()
        loop.work = dict.fromkeys(WORK_KEYS, 0)
        with tracer.installed():
            traced = loop.run(args.seconds / 2, tracer=tracer)
        rate = {name: timing_metrics(loop.by_input(ids))["ops_per_s"]
                for name, ids in (("untraced", plain), ("traced", traced))}
        metrics = layer_metrics(tracer.summary(ops=traced), len(traced), loop.work,
                                rate["untraced"] / rate["traced"])
        units = LAYER_UNITS
        first_pass = traced[:len(pool)]  # a run starts a pass with input 0, the paper point
        record.update(ops_per_s=rate, paper_point_counts=op_counts(tracer, traced[0]),
                      counts_per_input=[op_counts(tracer, k) for k in first_pass])
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"{args.workload}-seed{args.seed}.spans.npz")
    else:
        timed = loop.run(args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        probes = setup_probe_times(args, clock)
        by_input = loop.by_input(timed)
        metrics = {**timing_metrics(by_input),
                   "peak_rss_mb": peak_rss_mb, "setup_s": statistics.median(probes)}
        units = END_TO_END_UNITS
        wall = sum(loop.ops[k][2] for k in timed)
        record.update(setup_probes_s=probes, wall_ops_per_s=len(timed) / wall,
                      per_input_median_ms=[statistics.median(lat) * 1e3 for lat in by_input],
                      per_input_ms=[[v * 1e3 for v in lat] for lat in by_input],
                      calibration_s=statistics.median(clock.cal_dt))

    attempted, failed = len(loop.ops), len(loop.failures)
    record.update(inputs=input_properties(args.workload, pool, loop.first_pass),
                  attempted=attempted, failed=failed, failed_frac=failed / attempted,
                  failures=loop.failures[:10], metrics=metrics)
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    print("# env " + json.dumps(record["env"]))
    print("# inputs " + json.dumps(record["inputs"]))
    if args.trace:
        print("# paper point counts " + json.dumps(record["paper_point_counts"]))
        print("# ops_per_s " + json.dumps(record["ops_per_s"]))
    else:
        print(f"# wall-clock ops_per_s {record['wall_ops_per_s']:.6g}, "
              f"calibration kernel {record['calibration_s'] * 1e3:.4g} ms")
    for i, msgs in loop.failures[:10]:
        print(f"# FAILED input {i}: {'; '.join(msgs)}")
    for name, value in metrics.items():
        print(f"# {args.workload} {name} = {value:.6g} {units[name]}")
    print(f"# {args.workload} failed_frac = {failed / attempted:.6g} ({failed} of {attempted})")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own process, then one table."""
    rows, status = [], 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout if proc.returncode in (0, 1) else proc.stderr)
        status = max(status, proc.returncode)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode in (0, 1) and lines:
            result = json.loads(lines[-1])
            rows.append((name, "failed_frac", result["failed"] / result["attempted"], "ratio"))
            rows += [(name, k, m["value"], m["unit"]) for k, m in result["metrics"].items()]
    print(f"{'workload':<11} {'metric':<42} {'value':>14} unit")
    for name, metric, value, unit in rows:
        print(f"{name:<11} {metric:<42} {value:>14.6g} {unit}")
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    import_program()
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
