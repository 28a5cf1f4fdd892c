"""Tests of the benchmark itself: seeded inputs, the tracer's wrappers and
the correctness gate.

    python3 -m pytest -q bench/tests
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import jjcavity as jc  # noqa: E402

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def paper():
    return jc.reference_params()


@pytest.fixture(scope="module")
def crosscheck_out(paper):
    return workloads.op_crosscheck(paper)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_inputs_repeat_per_seed(name, paper):
    a, b = workloads.make_inputs(name, 7), workloads.make_inputs(name, 7)
    assert a == b
    assert a[0] == paper
    assert len(a) == workloads.WORKLOADS[name].pool_size


def test_inputs_change_with_seed():
    assert workloads.make_inputs("point", 1) != workloads.make_inputs("point", 2)


def test_draws_stay_in_their_ranges(paper):
    pool = workloads.make_inputs("point", 3)
    for name, lo, hi in workloads.DRAW_RANGES:
        ratios = np.array([getattr(p, name) / getattr(paper, name) for p in pool])
        assert np.all((lo <= ratios) & (ratios <= hi))
    k2 = np.array([p.kappa2 for p in pool[1:]])
    assert np.all((workloads.KAPPA2_LO <= k2) & (k2 <= workloads.KAPPA2_HI))


def _bindings():
    mods = spans.NAMESPACES + (np.linalg,)
    return {(m.__name__, k): v for m in mods for k, v in vars(m).items()}


def test_traced_op_counts_and_restores_every_attribute(paper):
    before = _bindings()
    tracer = spans.Tracer()
    with tracer.installed():
        assert jc.certify is not before[("jjcavity", "certify")]
        assert jc.sweep.certify is not before[("jjcavity.sweep", "certify")]
        tracer.op_id, tracer.active = 0, True
        workloads.op_point(paper)
        tracer.op_id = 1
        workloads.op_threshold(paper)
        tracer.active = False
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())

    s = tracer.summary(ops=[0])
    assert s.count("stability.certify") == 1
    assert s.count("linalg.solve") == 1213
    assert s.count("linalg.eigvals.n8") == 21
    assert s.count("linalg.eigvals.n4") == 3
    assert s.count("model.validate_model") == 1
    assert tracer.summary(ops=[1]).count_under("stability.certify", "sweep.find_threshold") == 35


def test_self_time_excludes_children():
    tracer = spans.Tracer()
    with tracer.installed():
        tracer.active = True
        jc.certify(jc.build_model(jc.reference_params()))
        tracer.active = False
    a = tracer.arrays()
    assert np.all(a["self"] >= -1e-9)
    assert np.all(a["self"] <= a["dur"] + 1e-12)
    roots = a["parent"] < 0
    assert [tracer.names[k] for k in a["name"][roots]] == ["params.reference_params", "builder.build_model", "stability.certify"]
    # self times partition the time of the top-level calls
    assert a["self"].sum() == pytest.approx(a["dur"][roots].sum(), rel=1e-9)


def test_reference_gain_matches_solve(paper):
    model = jc.build_model(paper)
    ss = jc.state_space(model)
    for w in (1e9, 3.2e11, 6.283e11, 1e14):
        assert abs(oracle.gain(model, 1j * w)) == pytest.approx(abs(jc.transfer_eval(ss, 1j * w)), rel=1e-12)


def test_point_gate(paper):
    out = workloads.op_point(paper)
    assert oracle.check_point(paper, out, True) == []
    cert, _ = out
    for tampered in (
        dataclasses.replace(cert, hinf_norm=cert.hinf_norm * (1 + 1e-3)),
        dataclasses.replace(cert, hinf_norm=cert.hinf_norm * (1 - 1e-3)),
        dataclasses.replace(cert, certified=not cert.certified),
    ):
        assert oracle.check_point(paper, (tampered, tampered.to_json()), False)
    assert oracle.check_point(paper, (cert, dataclasses.replace(cert, certified=False).to_json()), False)


def test_threshold_gate(paper):
    star = workloads.op_threshold(paper)
    assert oracle.check_threshold(paper, star, True) == []
    assert oracle.check_threshold(paper, star * 1.01, False)
    assert oracle.check_threshold(paper, 2.5e12, True)
    assert oracle.check_threshold(paper, 2e13, False)


def test_sweep_gate(paper):
    rows = [jc.SweepRecord(kappa2=float(k), hinf_norm=1.0, hurwitz=True, certified=False)
            for k in workloads.SWEEP_KAPPA2]
    sens = [(float(k), 1e-13) for k in workloads.SWEEP_KAPPA1]
    gh = 1.0 / (4.0 * paper.Jp)
    ok = [dataclasses.replace(r, hinf_norm=gh * (2.0 if i < 20 else 0.5), certified=i >= 20)
          for i, r in enumerate(rows)]
    assert oracle.check_sweep(paper, (ok, sens), False) == []
    lying = list(ok)
    lying[5] = dataclasses.replace(lying[5], certified=True)
    assert oracle.check_sweep(paper, (lying, sens), False)
    twice = [dataclasses.replace(r, hinf_norm=gh * (0.5 if 10 <= i < 20 else r.hinf_norm / gh), certified=i >= 10 and i != 25)
             for i, r in enumerate(ok)]
    twice[25] = dataclasses.replace(twice[25], hinf_norm=2 * gh)
    assert oracle.check_sweep(paper, (twice, sens), False)


def test_crosscheck_gate(paper, crosscheck_out):
    out = crosscheck_out
    assert oracle.check_crosscheck(paper, out, True) == []
    bode = list(out.bode)
    bode[123] = dataclasses.replace(bode[123], magnitude=bode[123].magnitude * (1 + 1e-6))
    assert oracle.check_crosscheck(paper, dataclasses.replace(out, bode=bode), True)
    assert oracle.check_crosscheck(paper, dataclasses.replace(out, c2=out.c2 * (1 + 1e-5)), True)
    failed = dataclasses.replace(out.sector[0], passed=False)
    assert oracle.check_crosscheck(paper, dataclasses.replace(out, sector=(failed, out.sector[1])), True)


def test_timing_metrics_use_per_input_medians():
    m = run.timing_metrics([[0.010, 0.010, 0.050], [0.020, 0.020, 0.020]])
    assert m["ops_per_s"] == pytest.approx(2 / 0.030)
    assert m["latency_p50_ms"] == pytest.approx(15.0)


def test_clock_rescales_and_drops_kernel_runs_inside_an_op():
    clock = speed.Clock()
    clock.cal_t, clock.cal_dt = [0.0, 0.5, 1.0], [0.004, 0.002, 0.003]
    # the op from 0.1 to 0.9 contains the kernel run at 0.5
    assert clock.scaled(0.1, 0.8) == pytest.approx((0.8 - 0.002) * speed.CAL_REF_S / 0.003)
    with pytest.raises(ValueError):
        clock.scaled(0.1, 1.0)


def test_benchmark_json_names_what_run_reports():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.LAYER_UNITS
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOAD_NAMES)


def _run(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


def test_traced_counts_repeat_across_processes():
    args = ("--workload", "threshold", "--seed", "3", "--seconds", "0.1", "--trace", "1")
    first, second = _run(ROOT, *args), _run(ROOT, *args)
    assert first.returncode == 0 and second.returncode == 0, first.stderr + second.stderr
    a, b = (json.loads(p.stdout.splitlines()[-1]) for p in (first, second))
    assert a.keys() == {"correct", "attempted", "failed", "metrics"} and a["correct"]
    assert a["metrics"].keys() == run.LAYER_UNITS.keys()
    for name, unit in run.LAYER_UNITS.items():
        if unit == "count":
            assert a["metrics"][name] == b["metrics"][name], name
    assert a["metrics"]["sweep.find_threshold.certify_per_call"]["value"] == 35


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "--workload", "point", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
