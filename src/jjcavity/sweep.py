"""Parameter sweeps over the junction coupling rate, threshold location,
and Bode data emission."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .builder import build_model
from .params import PhysicalParams
from .stability import certify, is_certified, state_space, transfer_eval, transfer_response

THRESHOLD_AUDIT_POINTS = 20
CSV_FLOAT_FMT = "{:.17g}"


@dataclass(frozen=True)
class SweepRecord:
    kappa2: float
    hinf_norm: float
    hurwitz: bool
    certified: bool
    error: str | None = None


@dataclass(frozen=True)
class BodeRow:
    omega: float
    magnitude: float
    phase: float           # radians
    error: str | None = None


def _certified_at(params: PhysicalParams, kappa2: float) -> bool:
    return is_certified(build_model(params.replace(kappa2=kappa2)))


def sweep_kappa2(params: PhysicalParams, kappa2_values) -> list[SweepRecord]:
    """One record per coupling value, in input order; individual failures are
    recorded in-row and the sweep continues."""
    records = []
    for k2 in kappa2_values:
        try:
            cert = certify(build_model(params.replace(kappa2=float(k2))))
            records.append(
                SweepRecord(
                    kappa2=float(k2),
                    hinf_norm=cert.hinf_norm,
                    hurwitz=cert.hurwitz,
                    certified=cert.certified,
                )
            )
        except Exception as exc:  # keep sweeping past bad rows
            records.append(
                SweepRecord(
                    kappa2=float(k2), hinf_norm=float("nan"),
                    hurwitz=False, certified=False, error=str(exc),
                )
            )
    return records


def find_threshold(
    params: PhysicalParams, lo: float, hi: float, rel_tol: float = 1e-3
) -> float:
    """Bisection for the coupling rate where the certificate flips.

    Requires certified(lo) = False and certified(hi) = True.  Each verdict
    is `is_certified`: the Hurwitz test of F and one imaginary-axis eigen
    test of the level-set matrix at gamma/2, with no norm computed.
    Monotonicity of the certified predicate is observed rather than proven,
    so it is audited post hoc on a log grid over the original bracket."""
    if not (0 < lo < hi):
        raise ValueError(f"need 0 < lo < hi, got lo={lo}, hi={hi}")
    if not 0 < rel_tol < math.inf:
        raise ValueError(f"rel_tol must be finite and positive, got {rel_tol}")
    if _certified_at(params, lo):
        raise ValueError(f"bracket invalid: already certified at lo = {lo:.6e}")
    if not _certified_at(params, hi):
        raise ValueError(f"bracket invalid: not certified at hi = {hi:.6e}")

    lo0, hi0 = lo, hi
    while hi - lo > rel_tol * lo:
        mid = math.sqrt(lo * hi)
        if _certified_at(params, mid):
            hi = mid
        else:
            lo = mid
    star = math.sqrt(lo * hi)

    audit = np.logspace(math.log10(lo0), math.log10(hi0), THRESHOLD_AUDIT_POINTS)
    flags = [_certified_at(params, k2) for k2 in audit]
    for (k_prev, f_prev), (k_next, f_next) in zip(
        zip(audit, flags), zip(audit[1:], flags[1:])
    ):
        if f_prev and not f_next:
            raise RuntimeError(
                "certified predicate is not monotone on the bracket: "
                f"certified at kappa2={k_prev:.6e} but not at {k_next:.6e}"
            )
    return star


def _bode_row(omega: float, g: complex) -> BodeRow:
    return BodeRow(omega=float(omega), magnitude=abs(g), phase=math.atan2(g.imag, g.real))


def _bode_row_alone(ss, omega: float) -> BodeRow:
    try:
        return _bode_row(omega, transfer_eval(ss, 1j * omega))
    except np.linalg.LinAlgError as exc:
        return BodeRow(omega=float(omega), magnitude=float("nan"),
                       phase=float("nan"), error=str(exc))


def bode_csv(model, omega_lo: float, omega_hi: float, n_points: int) -> list[BodeRow]:
    """Magnitude/phase rows on a log grid, augmented with the resonance
    frequencies |Im lambda(F)| falling inside the range.  The gains come
    from one stacked solve.  When a singular row fails that solve, each row
    is solved alone, so that only the singular rows become error rows."""
    if not (0 < omega_lo < omega_hi < math.inf):
        raise ValueError(f"need finite 0 < omega_lo < omega_hi, got {omega_lo}, {omega_hi}")
    if n_points < 2:
        raise ValueError(f"need n_points >= 2, got {n_points}")
    ss = state_space(model)
    grid = np.logspace(math.log10(omega_lo), math.log10(omega_hi), n_points)
    seeds = np.abs(np.linalg.eigvals(ss.A).imag)
    seeds = seeds[(seeds >= omega_lo) & (seeds <= omega_hi)]
    omegas = np.unique(np.concatenate([grid, seeds]))
    try:
        gains = transfer_response(ss, 1j * omegas).tolist()
    except np.linalg.LinAlgError:
        return [_bode_row_alone(ss, w) for w in omegas]
    return [_bode_row(w, g) for w, g in zip(omegas, gains)]


def kappa1_sensitivity(
    params: PhysicalParams, kappa1_values, kappa2_fixed: float
) -> list[tuple[float, float]]:
    """H-infinity norm per cavity coupling value, junction coupling fixed."""
    out = []
    for k1 in kappa1_values:
        cert = certify(build_model(params.replace(kappa1=float(k1), kappa2=kappa2_fixed)))
        out.append((float(k1), cert.hinf_norm))
    return out


def format_csv(header: list[str], rows: list[list]) -> str:
    """Round-trip-precision CSV: 17 significant digits, period decimal
    separator, mandatory header row."""
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for x in row:
            if isinstance(x, bool):
                cells.append("true" if x else "false")
            elif isinstance(x, float):
                cells.append(CSV_FLOAT_FMT.format(x))
            else:
                cells.append(str(x))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
