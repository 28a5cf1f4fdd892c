import argparse
import csv
import json
import os
import re
import shlex
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from jjcavity import cli
from jjcavity.cli import EXIT_ERROR, EXIT_NOT_CERTIFIED, EXIT_OK, build_parser, main
from jjcavity.params import PhysicalParams

PARAM_FLAGS = [
    "--omega", str(2 * np.pi * 1e11),
    "--g", "0.15",
    "--U", "2.2087e-22",
    "--Jp", "3.6652e11",
    "--kappa1", "1e11",
    "--kappa2", "2.5e12",
]


@pytest.fixture()
def model_file(tmp_path, paper_model):
    path = tmp_path / "model.json"
    path.write_text(paper_model.to_json())
    return str(path)


class TestBuild:
    def test_flags_to_stdout(self, capsys, paper_model):
        assert main(["build", *PARAM_FLAGS]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out == json.loads(paper_model.to_json())

    def test_params_json_with_override(self, tmp_path, capsys, paper_params):
        pfile = tmp_path / "params.json"
        pfile.write_text(paper_params.to_json())
        assert main(["build", "--params-json", str(pfile), "--kappa2", "1e12"]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["N"][1][1] == [pytest.approx(1e6), 0.0]

    def test_out_file(self, tmp_path, paper_model):
        dest = tmp_path / "m.json"
        assert main(["build", *PARAM_FLAGS, "--out", str(dest), "--quiet"]) == EXIT_OK
        assert json.loads(dest.read_text()) == json.loads(paper_model.to_json())

    @pytest.mark.parametrize("quiet", [["--quiet"], []], ids=["quiet", "default"])
    def test_out_file_reported_unless_quiet(self, tmp_path, capsys, quiet):
        dest = tmp_path / "m.json"
        assert main(["build", *PARAM_FLAGS, "--out", str(dest), *quiet]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("" if quiet else f"wrote {dest}\n")

    def test_incomplete_params(self, capsys):
        with pytest.raises(TypeError) as exc:
            PhysicalParams(omega=1.0)
        assert main(["build", "--omega", "1.0"]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: incomplete parameters: {exc.value}\n"

    @pytest.mark.parametrize("content, key", [
        ([1.0], "object, got list"),
        ({"omega": "x"}, "omega must be a real number, got 'x'"),
        ({"omega": True}, "omega must be a real number, got True"),
    ], ids=["list", "string-value", "bool-value"])
    def test_malformed_params_json_exit_one(self, tmp_path, capsys, paper_params, content, key):
        if isinstance(content, dict):
            content = {**json.loads(paper_params.to_json()), **content}
        pfile = tmp_path / "params.json"
        pfile.write_text(json.dumps(content))
        assert main(["build", "--params-json", str(pfile), "--omega", "1"]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert key in captured.err


class TestCertify:
    def test_certified_exit_zero(self, model_file, capsys):
        assert main(["certify", "--model", model_file]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["certified"] is True
        assert out["hinf_norm"] == pytest.approx(5.5554e-13, rel=1e-3)

    def test_not_certified_exit_two(self, tmp_path, capsys, paper_params):
        import jjcavity as jc

        weak = jc.build_model(paper_params.replace(kappa2=1e12))
        path = tmp_path / "weak.json"
        path.write_text(weak.to_json())
        assert main(["certify", "--model", str(path)]) == EXIT_NOT_CERTIFIED
        assert json.loads(capsys.readouterr().out)["certified"] is False

    def test_margin_flips_decision(self, model_file, capsys):
        # the paper point sits ~18% under gamma/2; a 30% margin rejects it
        assert main(["certify", "--model", model_file, "--margin", "0.3"]) == EXIT_NOT_CERTIFIED
        capsys.readouterr()

    @pytest.mark.parametrize("margin", ["-5", "nan", "inf", "1"])
    def test_bad_margin_exit_one(self, tmp_path, capsys, paper_params, margin):
        # kappa2 = 1e12 puts the norm at 3.5x gamma/2, which --margin -5
        # used to certify with exit 0
        import jjcavity as jc

        weak = jc.build_model(paper_params.replace(kappa2=1e12))
        path = tmp_path / "weak.json"
        path.write_text(weak.to_json())
        assert main(["certify", "--model", str(path), "--margin", margin]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: margin")

    def test_missing_model_flag(self, capsys):
        assert main(["certify"]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --model FILE is required for this command\n"

    def test_bad_model_file(self, tmp_path, capsys):
        path = tmp_path / "nope.json"
        assert main(["certify", "--model", str(path)]) == EXIT_ERROR

    @pytest.mark.parametrize("edit", [None, {"M": [[1, 2]]}])
    def test_malformed_model_exit_one(self, tmp_path, capsys, paper_model, edit):
        d = {"n_modes": 2} if edit is None else {**json.loads(paper_model.to_json()), **edit}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(d))
        assert main(["certify", "--model", str(path)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_nan_entry_named_exit_one(self, tmp_path, capsys, paper_model):
        d = json.loads(paper_model.to_json())
        d["M"][0][0] = [float("nan"), 0.0]
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(d))
        assert "NaN" in path.read_text()
        assert main(["certify", "--model", str(path)]) == EXIT_ERROR
        assert capsys.readouterr().err == ("error: model fails structural validation: "
                                           "M has a non-finite entry at (0,0)\n")


class TestInvalidModelFile:
    """Every command that loads a --model file validates it first: a model
    that fails `validate_model` exits 1 with the one error line `certify`
    gives, and no command writes a file."""

    @pytest.mark.parametrize("edit", ["nan", "non_hermitian"])
    @pytest.mark.parametrize("command", [
        ["certify"],
        ["bode", "--omega-lo", "1e9", "--omega-hi", "1e14"],
        ["simulate"],
    ], ids=["certify", "bode", "simulate"])
    def test_exit_one_writes_nothing(self, tmp_path, monkeypatch, capsys, paper_model, edit, command):
        from jjcavity.model import SystemModel
        from jjcavity.stability import certify

        d = json.loads(paper_model.to_json())
        if edit == "nan":
            d["M"][0][0] = [float("nan"), 0.0]
        else:
            d["M"][0][1][0] += 1e11
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(d))
        with pytest.raises(ValueError) as exc:
            certify(SystemModel.from_json(path.read_text()))
        monkeypatch.chdir(tmp_path)  # where simulate's default decay file would go
        assert main([command[0], "--model", str(path), *command[1:], "--out", "out"]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {exc.value}\n"
        assert captured.err.startswith("error: model fails structural validation: ")
        assert [p.name for p in tmp_path.iterdir()] == ["bad.json"]


class TestSweep:
    def test_csv_output(self, capsys):
        assert main(["sweep", *PARAM_FLAGS, "--kappa2-grid", "1e12:1e13:4",
                     "--format", "csv"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "kappa2,hinf_norm,hurwitz,certified,error"
        assert len(lines) == 5
        first = lines[1].split(",")
        assert float(first[0]) == pytest.approx(1e12)
        assert first[3] == "false"
        assert lines[4].split(",")[3] == "true"

    def test_json_output(self, capsys):
        assert main(["sweep", *PARAM_FLAGS, "--kappa2-grid", "2.5e12:2.5e12:1"]) == EXIT_OK
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 1
        assert rows[0]["certified"] is True

    def test_bad_grid_spec(self, capsys):
        assert main(["sweep", *PARAM_FLAGS, "--kappa2-grid", "nope"]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: bad grid spec 'nope', expected lo:hi:n\n"

    @pytest.mark.parametrize("spec", ["1e11:inf:3", "1e11:nan:3", "inf:inf:3", "nan:1e13:3"])
    @pytest.mark.parametrize("command", [("sweep", "--kappa2-grid"),
                                         ("sensitivity", "--kappa1-grid")])
    def test_nonfinite_grid_exits_one(self, capsys, command, spec):
        name, flag = command
        extra = ["--kappa2-fixed", "2.5e12"] if name == "sensitivity" else []
        assert main([name, *PARAM_FLAGS, flag, spec, *extra]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: bad grid spec {spec!r}\n"

    def test_csv_error_cell_with_commas(self, capsys):
        # every row's error holds commas: quoted, the row keeps 5 cells
        from jjcavity.sweep import sweep_kappa2

        flags = ["--omega", "1e200", "--g", "0.15", "--U", "2.2087e-22", "--Jp", "3.6652e11",
                 "--kappa1", "1e11"]
        assert main(["sweep", *flags, "--kappa2-grid", "1e11:1e13:3", "--format", "csv"]) == EXIT_OK
        rows = list(csv.reader(capsys.readouterr().out.splitlines()))
        assert [len(row) for row in rows] == [5] * 4
        params = PhysicalParams(omega=1e200, g=0.15, U=2.2087e-22, Jp=3.6652e11, kappa1=1e11)
        records = sweep_kappa2(params, [1e11, 1e12, 1e13])
        assert all("," in r.error for r in records)
        assert [row[4] for row in rows[1:]] == [r.error for r in records]


class TestThreshold:
    def test_finds_star(self, capsys):
        assert main(["threshold", *PARAM_FLAGS, "--lo", "2e12", "--hi", "2.4e12"]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["kappa2_star"] == pytest.approx(2.1692e12, rel=1e-3)

    def test_one_json_line_and_nothing_logged(self, capsys):
        assert main(["threshold", *PARAM_FLAGS, "--lo", "1e11", "--hi", "1e13"]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == "" and captured.out.count("\n") == 1
        assert json.loads(captured.out)["kappa2_star"] == pytest.approx(2.1696638e12, rel=1e-6)

    def test_invalid_bracket_exit_two(self, capsys):
        assert main(["threshold", *PARAM_FLAGS, "--lo", "2.5e12",
                     "--hi", "3e12"]) == EXIT_NOT_CERTIFIED

    def test_uncertified_hi_exit_two(self, capsys):
        assert main(["threshold", *PARAM_FLAGS, "--lo", "1e11",
                     "--hi", "2e12"]) == EXIT_NOT_CERTIFIED
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: bracket invalid: not certified at hi = 2.000000e+12\n"

    def test_other_value_error_exit_one(self, capsys, monkeypatch):
        # exit 2 follows the bracket check's error type, not its words
        def raises(*args):
            raise ValueError("bracket invalid: x")

        monkeypatch.setattr(cli, "find_threshold", raises)
        assert main(["threshold", *PARAM_FLAGS, "--lo", "1e11", "--hi", "1e13"]) == EXIT_ERROR
        assert capsys.readouterr().err == "error: bracket invalid: x\n"

    @pytest.mark.parametrize("rel_tol", ["nan", "inf", "0", "1e-17"])
    def test_bad_rel_tol_exit_one(self, capsys, rel_tol):
        assert main(["threshold", *PARAM_FLAGS, "--lo", "1e11", "--hi", "1e13",
                     "--rel-tol", rel_tol]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: rel_tol") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("lo, hi", [("1e11", "inf"), ("nan", "1e13")])
    def test_non_finite_bracket_exit_one(self, capsys, lo, hi):
        assert main(["threshold", *PARAM_FLAGS, "--lo", lo, "--hi", hi]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: need finite 0 < lo < hi") and captured.err.count("\n") == 1


class TestBode:
    def test_csv_rows(self, model_file, capsys):
        assert main(["bode", "--model", model_file, "--omega-lo", "1e10",
                     "--omega-hi", "1e13", "--points", "20",
                     "--format", "csv"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "omega,magnitude,phase,error"
        assert len(lines) >= 21    # grid plus any resonance seeds

    def test_bad_range_exit_one(self, model_file, capsys):
        assert main(["bode", "--model", model_file, "--omega-lo", "1e13",
                     "--omega-hi", "1e10"]) == EXIT_ERROR

    @pytest.mark.parametrize("lo, hi", [("1e9", "inf"), ("1e9", "nan"), ("inf", "inf")])
    def test_nonfinite_range_exit_one(self, model_file, capsys, lo, hi):
        assert main(["bode", "--model", model_file, "--omega-lo", lo,
                     "--omega-hi", hi]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: need finite")


    def test_error_row(self, tmp_path, capsys):
        from jjcavity.builder import build_zeta
        from jjcavity.model import SystemModel
        from jjcavity.sweep import bode_csv

        m = SystemModel(n_modes=2, M=np.diag([2.0, 0.0, 2.0, 0.0]), N=np.zeros((4, 4)),
                        Etilde=build_zeta(), gamma=1.0)
        path = tmp_path / "m.json"
        path.write_text(m.to_json())
        message = next(r.error for r in bode_csv(m, 1, 10, 5) if r.error)
        flags = ["bode", "--model", str(path), "--omega-lo", "1", "--omega-hi", "10",
                 "--points", "5"]
        assert main([*flags, "--format", "csv"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[3] == f"2,nan,nan,{message}"
        assert main(flags) == EXIT_OK
        rows = json.loads(capsys.readouterr().out)
        assert [r["error"] for r in rows] == [None, None, message, None, None, None]


class TestSensitivity:
    def test_json_pairs(self, capsys):
        assert main(["sensitivity", *PARAM_FLAGS, "--kappa1-grid", "1e10:1e12:3",
                     "--kappa2-fixed", "2.5e12"]) == EXIT_OK
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 3
        norms = [r["hinf_norm"] for r in rows]
        assert max(norms) / min(norms) < 1.01


class TestSimulate:
    def test_slow_mode_trajectory(self, model_file, tmp_path, capsys):
        traj = tmp_path / "traj.csv"
        decay = tmp_path / "decay.json"
        assert main(["simulate", "--model", model_file, "--out", str(traj),
                     "--decay-out", str(decay), "--quiet"]) == EXIT_OK
        lines = traj.read_text().strip().split("\n")
        assert lines[0] == "t,re_v0,im_v0,re_v1,im_v1,re_v2,im_v2,re_v3,im_v3,norm_sq"
        est = json.loads(decay.read_text())
        assert est["c2"] == pytest.approx(1e11, rel=0.05)

    def test_explicit_v0_and_steps(self, model_file, tmp_path):
        traj = tmp_path / "t.csv"
        decay = tmp_path / "d.json"
        v0 = json.dumps([[1.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
        assert main(["simulate", "--model", model_file, "--v0", v0,
                     "--t-end", "1e-11", "--dt", "1e-14",
                     "--out", str(traj), "--decay-out", str(decay),
                     "--quiet"]) == EXIT_OK
        assert len(traj.read_text().strip().split("\n")) == 1002

    @pytest.mark.parametrize("quiet", [["--quiet"], []], ids=["quiet", "default"])
    def test_written_files_reported_unless_quiet(self, model_file, tmp_path, capsys, quiet):
        traj, decay = tmp_path / "t.csv", tmp_path / "d.json"
        assert main(["simulate", "--model", model_file, "--t-end", "1e-11", "--dt", "1e-14",
                     "--out", str(traj), "--decay-out", str(decay), *quiet]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("" if quiet else f"wrote {traj}\nwrote {decay}\n")

    def test_unstable_step_exit_one(self, model_file, tmp_path, capsys):
        assert main(["simulate", "--model", model_file, "--dt", "1.0",
                     "--out", str(tmp_path / "x.csv"), "--quiet"]) == EXIT_ERROR

    def test_csv_matches_per_value_rows(self, model_file, tmp_path, paper_model):
        from jjcavity.simulate import integrate_mean, slow_mode_vector
        from jjcavity.stability import build_F

        out = tmp_path / "t.csv"
        assert main(["simulate", "--model", model_file, "--t-end", "1e-11", "--dt", "1e-14",
                     "--out", str(out), "--decay-out", str(tmp_path / "d.json"),
                     "--quiet"]) == EXIT_OK
        F = build_F(paper_model)
        traj = integrate_mean(F, slow_mode_vector(F), 1e-11, 1e-14)
        header = ["t"]
        for k in range(traj.v.shape[1]):
            header += [f"re_v{k}", f"im_v{k}"]
        header.append("norm_sq")
        rows = []
        for t, v, ns in zip(traj.t, traj.v, traj.norm_sq):
            row = [float(t)]
            for z in v:
                row += [float(z.real), float(z.imag)]
            row.append(float(ns))
            rows.append(row)
        assert out.read_text() == cli._csv(header, rows)

    def test_malformed_v0_exit_one(self, model_file, tmp_path, capsys):
        assert main(["simulate", "--model", model_file, "--v0", "[1,2]",
                     "--out", str(tmp_path / "x.csv"), "--quiet"]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err == "error: --v0[0] must be a [re, im] pair of numbers, got 1\n"

    def test_nonfinite_v0_exit_one_writes_nothing(self, model_file, tmp_path, capsys):
        traj = tmp_path / "t.csv"
        assert main(["simulate", "--model", model_file, "--v0", "[[NaN,0],[0,0],[0,0],[0,0]]",
                     "--out", str(traj)]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: v0 has a non-finite entry\n"
        # neither the trajectory nor its default decay file
        assert [p.name for p in tmp_path.iterdir()] == ["model.json"]

    @pytest.mark.parametrize("out", [["--out", "t.csv"], []], ids=["out", "stdout"])
    def test_failed_fit_writes_nothing(self, model_file, tmp_path, monkeypatch, capsys, out):
        # 6 samples are too few for the decay fit, which runs before any output
        monkeypatch.chdir(tmp_path)  # where the default decay file would go
        assert main(["simulate", "--model", model_file, "--dt", "1e-14", "--t-end", "5e-14",
                     *out]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: need at least 10 usable samples") and captured.err.count("\n") == 1
        assert [p.name for p in tmp_path.iterdir()] == ["model.json"]

    @pytest.mark.parametrize("decay", ["nodir/d.json", "adir", "model.json/d.json"],
                             ids=["missing-dir", "a-dir", "file-as-dir"])
    @pytest.mark.parametrize("out", [["--out", "t.csv"], []], ids=["out", "stdout"])
    def test_unwritable_decay_path_writes_nothing(self, model_file, tmp_path, monkeypatch, capsys, out, decay):
        # the decay file cannot be written: found before the trajectory is written
        monkeypatch.chdir(tmp_path)
        (tmp_path / "adir").mkdir()
        assert main(["simulate", "--model", model_file, "--dt", "1e-14", "--t-end", "1e-11",
                     *out, "--decay-out", decay]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {decay}") and captured.err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["adir", "model.json"]
        assert not any((tmp_path / "adir").iterdir())

    @pytest.mark.parametrize("out", ["nodir/t.csv", "adir", "model.json/t.csv"],
                             ids=["missing-dir", "a-dir", "file-as-dir"])
    def test_unwritable_out_path_writes_no_decay_file(self, model_file, tmp_path, monkeypatch, capsys, out):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "adir").mkdir()
        assert main(["simulate", "--model", model_file, "--dt", "1e-14", "--t-end", "1e-11",
                     "--out", out, "--decay-out", "d.json"]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["adir", "model.json"]
        assert not any((tmp_path / "adir").iterdir())

    @pytest.mark.parametrize("decay", ["same.csv", "./same.csv"], ids=["same", "dot-slash"])
    def test_one_file_for_both_outputs_writes_nothing(self, model_file, tmp_path, monkeypatch, capsys, decay):
        # the decay JSON would overwrite the trajectory it was written after
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "--model", model_file, "--dt", "1e-14", "--t-end", "1e-11",
                     "--out", "same.csv", "--decay-out", decay]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --out and the decay file are one file") and captured.err.count("\n") == 1
        assert [p.name for p in tmp_path.iterdir()] == ["model.json"]

    @pytest.mark.parametrize("flags", [["--t-end", "inf"], ["--dt", "nan"]])
    def test_nonfinite_steps_exit_one(self, model_file, tmp_path, capsys, flags):
        assert main(["simulate", "--model", model_file, *flags,
                     "--out", str(tmp_path / "x.csv"), "--quiet"]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1


class TestVerifySector:
    @pytest.mark.parametrize("flags", [["--Jp", "0"], ["--Jp", "nan"], ["--Jp", "-1"],
                                       ["--Jp", "1", "--gamma", "nan"],
                                       ["--Jp", "1", "--delta1", "-1"],
                                       ["--Jp", "1", "--range", "inf"],
                                       ["--Jp", "1", "--range", "1e308"]])
    def test_bad_constants_exit_one(self, capsys, flags):
        assert main(["verify-sector", *flags]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    def test_defaults_from_rule(self, capsys):
        from jjcavity.sector import cosine_sector_constants

        assert main(["verify-sector", "--Jp", "2.0", "--points", "21"]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        gamma, delta1, delta2 = cosine_sector_constants(2.0)
        assert out["first"]["gamma_tested"] == gamma
        assert out["first"]["delta1"] == delta1
        assert out["second"]["delta2"] == delta2

    def test_defaults_pass(self, capsys):
        assert main(["verify-sector", "--Jp", "3.6652e11"]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["first"]["passed"] is True
        assert out["second"]["passed"] is True

    def test_tight_delta2_fails(self, capsys):
        jp = 3.6652e11
        assert main(["verify-sector", "--Jp", str(jp), "--delta2",
                     str(0.9 * jp ** 2)]) == EXIT_NOT_CERTIFIED
        out = json.loads(capsys.readouterr().out)
        assert out["second"]["passed"] is False


def _command_flags() -> dict[str, set[str]]:
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {name: {o for a in p._actions for o in a.option_strings}
            for name, p in sub.choices.items()}


class TestUsage:
    @pytest.mark.parametrize("argv", [
        [],
        ["nope"],
        ["sweep", "--omega", "1"],
        ["sweep", *PARAM_FLAGS, "--kappa2-grid", "1e12:1e13:2", "--format", "xml"],
        ["certify", "--model", "m.json", "--format", "csv"],
        ["build", *PARAM_FLAGS, "--model", "m.json"],
        ["threshold", *PARAM_FLAGS, "--lo", "x", "--hi", "1"],
    ])
    def test_usage_error_exits_one(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_ERROR
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"], ["sweep", "--help"], ["threshold", "--help"]])
    def test_help_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_OK
        out = capsys.readouterr().out
        assert "usage:" in out
        if argv[0] == "threshold":  # the search it runs, as find_threshold runs it
            assert "safeguarded Newton on a tracked peak of the gain" in " ".join(out.split())

    def test_readme_quick_start_parses(self):
        # every `jjcavity ...` line of README's "Quick start (CLI)" block, one
        # per command: a renamed or removed flag fails here
        text = (Path(__file__).parents[1] / "README.md").read_text()
        block = text.split("## Quick start (CLI)\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        lines = [line for line in block.replace("\\\n", " ").splitlines() if line.startswith("jjcavity ")]
        parser = build_parser()
        commands = [parser.parse_args(shlex.split(line, comments=True)[1:]).command for line in lines]
        assert sorted(commands) == sorted(_command_flags())

    def test_flags_per_command(self):
        flags = _command_flags()
        assert {c for c, f in flags.items() if "--format" in f} == {"sweep", "bode", "sensitivity"}
        assert {c for c, f in flags.items() if "--model" in f} == {"certify", "bode", "simulate"}
        assert flags["certify"] == {"-h", "--help", "--model", "--out", "--quiet", "--margin"}
        params = {f"--{f.name}" for f in fields(PhysicalParams)} | {"--params-json"}
        assert {c for c, f in flags.items() if params <= f} == {"build", "sweep", "threshold",
                                                                "sensitivity"}
        # README's command table: its backticked flags, "constants" for the
        # parameter flags, and every flag but the shared --out and --quiet
        text = (Path(__file__).parents[1] / "README.md").read_text()
        table = text.split("| command | flags |\n|---|---|\n", 1)[1].split("\n\n", 1)[0]
        readme = {}
        for row in table.splitlines():
            command, cells = re.fullmatch(r"\| `([\w-]+)` \| (.*) \|", row).groups()
            readme[command] = {c.split()[0] for c in re.findall(r"`([^`]+)`", cells)}
            readme[command] |= params if "constants" in cells else set()
        assert readme == {c: f - {"-h", "--help", "--out", "--quiet"} for c, f in flags.items()}

    def test_every_param_flag_is_read(self, capsys):
        flags = [f"--{f.name}" for f in fields(PhysicalParams)]
        values = ["6.2e11", "0.15", "2.2e-22", "3.6e11", "0.5", "1e11", "2e12", "1.1e-34"]
        assert main(["build", *(x for pair in zip(flags, values) for x in pair)]) == EXIT_OK
        from jjcavity.builder import build_model

        expected = build_model(PhysicalParams(*map(float, values)))
        assert capsys.readouterr().out == expected.to_json() + "\n"


class TestMemoryError:
    """An input too large to allocate (say a 1e14-point grid) exits 1 with
    one error line and writes nothing.  The allocating call is patched to
    raise as numpy would; no test allocates."""

    @pytest.mark.parametrize("target, argv", [
        ("sweep_kappa2", ["sweep", *PARAM_FLAGS, "--kappa2-grid", "1e11:1e13:3"]),
        ("bode_csv", ["bode", "--omega-lo", "1e9", "--omega-hi", "1e14"]),
        ("verify_sector", ["verify-sector", "--Jp", "3.6652e11"]),
        ("integrate_mean", ["simulate"]),
    ], ids=["sweep", "bode", "verify-sector", "simulate"])
    def test_exit_one_writes_nothing(self, model_file, tmp_path, monkeypatch, capsys, target, argv):
        def too_large(*args, **kwargs):
            raise MemoryError("Unable to allocate 728. TiB for an array with shape (100000000000000,)")

        monkeypatch.setattr(f"jjcavity.cli.{target}", too_large)
        monkeypatch.chdir(tmp_path)  # where simulate's default decay file would go
        model = ["--model", model_file] if argv[0] in ("bode", "simulate") else []
        assert main([*argv, *model, "--out", "out"]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: Unable to allocate 728. TiB for an array with shape (100000000000000,)\n"
        assert [p.name for p in tmp_path.iterdir()] == ["model.json"]


class TestOverflow:
    @pytest.mark.parametrize("argv", [
        ["verify-sector", "--Jp", "1e200"],
        ["build", "--omega", "1e11", "--g", "0.1", "--U", "1e-22", "--Jp", "1e200"],
        ["build", "--omega", "1e200", "--g", "0.1", "--U", "1e-22", "--Jp", "1"],
    ])
    def test_overflow_exits_one(self, capsys, argv):
        assert main(argv) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    def test_arithmetic_error_exits_one(self, monkeypatch, capsys):
        def not_finite(*args, **kwargs):
            raise FloatingPointError("f' is not finite at z + conj(z) = nan")

        monkeypatch.setattr(cli, "verify_sector", not_finite)
        assert main(["verify-sector", "--Jp", "1"]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: f' is not finite at z + conj(z) = nan\n"


class TestCsv:
    def test_header_and_precision(self):
        text = cli._csv(["a", "b"], [[1.0 / 3.0, True], [2.0, False]])
        lines = text.strip().split("\n")
        assert lines[0] == "a,b"
        assert lines[1] == "0.33333333333333331,true"
        assert lines[2] == "2,false"
        assert text.endswith("\n")

    def test_round_trip(self):
        x = 5.5562431815176533e-13
        text = cli._csv(["x"], [[x]])
        assert float(text.strip().split("\n")[1]) == x


class TestProcess:
    """The exit contract as a real process shows it, where the interpreter
    would print a traceback or a warning: stderr is empty or one error
    line."""

    @pytest.mark.parametrize("argv, code", [
        (["verify-sector", "--Jp", "1", "--points", "21"], EXIT_OK),
        (["threshold", *PARAM_FLAGS, "--lo", "2e12", "--hi", "2.1e12"], EXIT_NOT_CERTIFIED),
        (["verify-sector", "--Jp", "1", "--range", "1e308"], EXIT_ERROR),
    ], ids=["ok", "bad-bracket", "overflowing-range"])
    def test_exit_code_and_stderr(self, argv, code):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "jjcavity.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == code
        assert proc.stderr == "" or (proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1)
