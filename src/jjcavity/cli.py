"""Command-line interface.

Exit codes: 0 on success (and when a certificate is issued), 2 when the
model is not certified, a threshold bracket is invalid on either side or a
sector check fails, 1 on any other error, usage errors included.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import astuple, fields

import numpy as np

from .builder import build_model
from .model import SystemModel, _decode_pairs, _validated
from .params import PhysicalParams, _checked_fields
from .sector import GridSpec, cosine_first_derivative, cosine_second_derivative, cosine_sector_constants, verify_second, verify_sector
from .simulate import default_timescales, estimate_decay, integrate_mean, slow_mode_vector
from .stability import build_F, certify
from .sweep import BodeRow, SweepRecord, bode_csv, find_threshold, format_csv, kappa1_sensitivity, sweep_kappa2

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_CERTIFIED = 2


class _ArgumentParser(argparse.ArgumentParser):
    """Exits 1 on a usage error: argparse's 2 would read as "not certified"."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _params_from_args(args) -> PhysicalParams:
    if args.params_json:
        with open(args.params_json) as fh:
            base = _checked_fields(json.load(fh))
    else:
        base = {}
    for f in fields(PhysicalParams):
        v = getattr(args, f.name)
        if v is not None:
            base[f.name] = v
    try:
        return PhysicalParams(**base)
    except TypeError as exc:
        raise SystemExit(f"error: incomplete parameters: {exc}")


def _load_model(args) -> SystemModel:
    """The --model file's model; one that fails `validate_model` raises the
    error `certify` raises for it, before any command writes."""
    if not args.model:
        raise SystemExit("error: --model FILE is required for this command")
    with open(args.model) as fh:
        return _validated(SystemModel.from_json(fh.read()))


def _write(path: str, text: str, args) -> None:
    with open(path, "w") as fh:
        fh.write(text)
    if not args.quiet:
        print(f"wrote {path}", file=sys.stderr)


def _check_writable(path: str) -> None:
    """Raise OSError unless `path` can be written: a writable file, or a
    new file in an existing, writable directory.  (`os.access` accepts
    everything for root, so there only the existence checks bite.)"""
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path) or not os.path.isdir(parent) or not os.access(
            path if os.path.exists(path) else parent, os.W_OK):
        raise OSError(f"cannot write {path}: not a writable file in an existing, writable directory")


def _emit(text: str, args) -> None:
    text = text if text.endswith("\n") else text + "\n"
    if args.out:
        _write(args.out, text, args)
    else:
        print(text, end="")


def _emit_table(columns: list[str], rows, args) -> None:
    """Rows as CSV or as a JSON list of objects keyed by `columns`; None is
    an empty CSV cell and a JSON null."""
    if args.format == "csv":
        _emit(format_csv(columns, [["" if x is None else x for x in row] for row in rows]), args)
    else:
        _emit(json.dumps([dict(zip(columns, row)) for row in rows]), args)


def _parse_grid(spec: str) -> np.ndarray:
    """lo:hi:n log-spaced grid with finite 0 < lo <= hi and n >= 1."""
    try:
        lo, hi, n = spec.split(":")
        lo, hi, n = float(lo), float(hi), int(n)
    except ValueError:
        raise SystemExit(f"error: bad grid spec {spec!r}, expected lo:hi:n")
    if not (0 < lo <= hi < np.inf) or n < 1:
        raise SystemExit(f"error: bad grid spec {spec!r}")
    return np.logspace(np.log10(lo), np.log10(hi), n)


def cmd_build(args) -> int:
    params = _params_from_args(args)
    model = build_model(params)
    _emit(model.to_json(), args)
    return EXIT_OK


def cmd_certify(args) -> int:
    model = _load_model(args)
    cert = certify(model, margin=args.margin)
    _emit(cert.to_json(), args)
    return EXIT_OK if cert.certified else EXIT_NOT_CERTIFIED


def cmd_sweep(args) -> int:
    params = _params_from_args(args)
    grid = _parse_grid(args.kappa2_grid)
    records = sweep_kappa2(params, grid)
    _emit_table([f.name for f in fields(SweepRecord)], [astuple(r) for r in records], args)
    return EXIT_OK


def cmd_threshold(args) -> int:
    params = _params_from_args(args)
    try:
        star = find_threshold(params, args.lo, args.hi, args.rel_tol)
    except ValueError as exc:
        if "bracket invalid" in str(exc):
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_NOT_CERTIFIED
        raise
    _emit(json.dumps({"kappa2_star": star, "lo": args.lo, "hi": args.hi,
                      "rel_tol": args.rel_tol}), args)
    return EXIT_OK


def cmd_bode(args) -> int:
    model = _load_model(args)
    rows = bode_csv(model, args.omega_lo, args.omega_hi, args.points)
    _emit_table([f.name for f in fields(BodeRow)], [astuple(r) for r in rows], args)
    return EXIT_OK


def cmd_sensitivity(args) -> int:
    params = _params_from_args(args)
    grid = _parse_grid(args.kappa1_grid)
    pairs = kappa1_sensitivity(params, grid, args.kappa2_fixed)
    _emit_table(["kappa1", "hinf_norm"], pairs, args)
    return EXIT_OK


def cmd_simulate(args) -> int:
    model = _load_model(args)
    F = build_F(model)
    dt_def, t_end_def = default_timescales(F)
    dt = args.dt if args.dt is not None else dt_def
    t_end = args.t_end if args.t_end is not None else t_end_def
    if args.v0 == "slow-mode":
        v0 = slow_mode_vector(F)
    else:
        v0 = _decode_pairs("--v0", json.loads(args.v0))
    traj = integrate_mean(F, v0, t_end, dt)
    est = estimate_decay(traj)  # before writing: a failed fit writes nothing
    decay_path = args.decay_out or ((args.out or "trajectory.csv") + ".decay.json")
    for path in filter(None, (args.out, decay_path)):  # both checked before either is written
        _check_writable(path)
    if args.out and os.path.realpath(args.out) == os.path.realpath(decay_path):
        raise OSError(f"--out and the decay file are one file: {decay_path}")
    header = ["t", *(f"{part}_v{k}" for k in range(v0.size) for part in ("re", "im")), "norm_sq"]
    re_im = np.stack([traj.v.real, traj.v.imag], axis=2).reshape(len(traj.t), -1)
    rows = np.column_stack([traj.t, re_im, traj.norm_sq]).tolist()
    _emit(format_csv(header, rows), args)
    _write(decay_path, est.to_json() + "\n", args)
    return EXIT_OK


def cmd_verify_sector(args) -> int:
    gamma, delta1, delta2 = cosine_sector_constants(args.Jp)
    gamma = gamma if args.gamma is None else args.gamma
    delta1 = delta1 if args.delta1 is None else args.delta1
    delta2 = delta2 if args.delta2 is None else args.delta2
    grid = GridSpec(re_max=args.range, im_max=args.range,
                    points_re=args.points, points_im=args.points)
    rep1 = verify_sector(cosine_first_derivative(args.Jp), gamma, delta1, grid)
    rep2 = verify_second(cosine_second_derivative(args.Jp), delta2, grid)
    _emit(json.dumps({"first": json.loads(rep1.to_json()),
                      "second": json.loads(rep2.to_json())}), args)
    return EXIT_OK if (rep1.passed and rep2.passed) else EXIT_NOT_CERTIFIED


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="jjcavity",
        description="Robust mean-square stability certification of a "
                    "Josephson junction in a resonant cavity",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, summary: str, *, model: bool = False, params: bool = False,
                table: bool = False) -> argparse.ArgumentParser:
        # the summary heads the command's own --help as well as the list
        p = sub.add_parser(name, help=summary, description=summary)
        p.set_defaults(func=func)
        if model:
            p.add_argument("--model", help="SystemModel JSON file")
        p.add_argument("--out", help="output path (default: stdout)")
        if table:
            p.add_argument("--format", choices=["json", "csv"], default="json")
        p.add_argument("--quiet", action="store_true")
        if params:
            p.add_argument("--params-json", help="PhysicalParams JSON file")
            for f in fields(PhysicalParams):
                p.add_argument(f"--{f.name}", type=float)
        return p

    command("build", cmd_build, "build a SystemModel from physical constants", params=True)

    p = command("certify", cmd_certify, "evaluate the strict bounded-real certificate", model=True)
    p.add_argument("--margin", type=float, default=0.0,
                   help="extra fractional safety margin on gamma/2")

    p = command("sweep", cmd_sweep, "sweep the junction coupling rate", params=True, table=True)
    p.add_argument("--kappa2-grid", required=True, metavar="lo:hi:n",
                   help="log-spaced kappa2 grid")

    p = command("threshold", cmd_threshold, "find the certification threshold in kappa2 by safeguarded "
                "Newton on a tracked peak of the gain, with a verified bracket", params=True)
    p.add_argument("--lo", type=float, required=True)
    p.add_argument("--hi", type=float, required=True)
    p.add_argument("--rel-tol", type=float, default=1e-3)

    p = command("bode", cmd_bode, "emit magnitude/phase frequency-response data", model=True, table=True)
    p.add_argument("--omega-lo", type=float, required=True)
    p.add_argument("--omega-hi", type=float, required=True)
    p.add_argument("--points", type=int, default=400)

    p = command("sensitivity", cmd_sensitivity, "H-infinity norm across cavity coupling values",
                params=True, table=True)
    p.add_argument("--kappa1-grid", required=True, metavar="lo:hi:n")
    p.add_argument("--kappa2-fixed", type=float, required=True)

    p = command("simulate", cmd_simulate, "integrate the mean dynamics and fit the decay", model=True)
    p.add_argument("--t-end", type=float)
    p.add_argument("--dt", type=float)
    p.add_argument("--v0", default="slow-mode",
                   help='JSON list of [re, im] pairs, or "slow-mode"')
    p.add_argument("--decay-out", help="path for the DecayEstimate JSON footer")

    p = command("verify-sector", cmd_verify_sector, "check the sector bounds for the cosine nonlinearity")
    p.add_argument("--Jp", type=float, required=True)
    p.add_argument("--gamma", type=float, help="default 1/(2 Jp)")
    p.add_argument("--delta1", type=float, help="default 0")
    p.add_argument("--delta2", type=float, help="default Jp^2")
    p.add_argument("--range", type=float, default=20.0)
    p.add_argument("--points", type=int, default=801)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OverflowError, OSError, RuntimeError, MemoryError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
