"""Parameter sweeps over the junction coupling rate, threshold location,
and Bode data emission."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .builder import build_coupling, build_model
from .model import SystemModel
from .params import PhysicalParams
from .stability import _raised, certify_all, is_certified_all, state_space, transfer_eval, transfer_response
from .stability import certify  # noqa: F401  (still reachable as sweep.certify; bench/tests checks its tracing)

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


class _Base(NamedTuple):
    """The constants of a sweep, and `build_model` on them or the exception
    that building it raised."""

    params: PhysicalParams
    model: SystemModel | Exception


def _base(params: PhysicalParams) -> _Base:
    try:
        return _Base(params, build_model(params))
    except Exception as exc:  # every row's result, after its own coupling check
        return _Base(params, exc)


def _sweep(base: _Base, couplings, decide) -> list:
    """`decide` (certify_all or is_certified_all) on the model at every
    (kappa1, kappa2) pair at once: one result per pair, in order, or the
    exception that building, validating or deciding its model raised.

    F = -i J M - (1/2) J N^dag J N is affine in the coupling rates: M,
    Etilde and the sector constants do not depend on them, and
    N = diag(sqrt(kappa1), sqrt(kappa2), sqrt(kappa1), sqrt(kappa2)).  So
    only N changes from row to row; M, Etilde, gamma and the deltas come
    from the one build in `base`, and `decide` validates all rows in one
    stacked pass.  Each row first checks its pair as
    `params.replace(kappa1=..., kappa2=...)` would, so a bad pair keeps its
    own error ahead of any error from the base build."""
    models = []
    for k1, k2 in couplings:
        try:
            base.params.replace(kappa1=k1, kappa2=k2)
            models.append(dataclasses.replace(_raised(base.model), N=build_coupling(k1, k2)))
        except Exception as exc:  # the row's own result
            models.append(exc)
    decided = iter(decide([m for m in models if not isinstance(m, Exception)]))
    return [m if isinstance(m, Exception) else next(decided) for m in models]


def _certified_at(base: _Base, kappa2_values) -> list[bool]:
    """The verdict at each junction coupling value, from one stacked verdict
    call."""
    k1 = base.params.kappa1
    return [_raised(r) for r in _sweep(base, [(k1, k2) for k2 in kappa2_values], is_certified_all)]


def sweep_kappa2(params: PhysicalParams, kappa2_values) -> list[SweepRecord]:
    """One record per coupling value, in input order, from one stacked
    certification; a row that fails carries its error in-row."""
    values = [float(k2) for k2 in kappa2_values]
    records = []
    couplings = [(params.kappa1, k2) for k2 in values]
    for k2, cert in zip(values, _sweep(_base(params), couplings, certify_all)):
        if isinstance(cert, Exception):
            records.append(SweepRecord(kappa2=k2, hinf_norm=float("nan"),
                                       hurwitz=False, certified=False, error=str(cert)))
        else:
            records.append(SweepRecord(kappa2=k2, hinf_norm=cert.hinf_norm,
                                       hurwitz=cert.hurwitz, certified=cert.certified))
    return records


def find_threshold(
    params: PhysicalParams, lo: float, hi: float, rel_tol: float = 1e-3
) -> float:
    """Bisection for the coupling rate where the certificate flips.

    Requires certified(lo) = False and certified(hi) = True.  Each verdict
    is `is_certified`: the Hurwitz test of F and one imaginary-axis eigen
    test of the level-set matrix at gamma/2, with no norm computed.
    Monotonicity of the certified predicate is observed rather than proven,
    so a 20-point log grid from lo to hi (exactly) is audited first, in one
    stacked verdict call; its end verdicts are the bracket checks.  The
    bisection then runs from [lo, hi], one verdict per step.  F is affine
    in the coupling rates, so the model is built once: every verdict, audit
    and bisection alike, takes its N from its kappa2 and M, Etilde, gamma
    and the deltas from that one build (see `_sweep`)."""
    if not (0 < lo < hi):
        raise ValueError(f"need 0 < lo < hi, got lo={lo}, hi={hi}")
    if not 0 < rel_tol < math.inf:
        raise ValueError(f"rel_tol must be finite and positive, got {rel_tol}")
    audit = np.logspace(math.log10(lo), math.log10(hi), THRESHOLD_AUDIT_POINTS)
    audit[0], audit[-1] = lo, hi
    base = _base(params)
    flags = _certified_at(base, audit)
    if flags[0]:
        raise ValueError(f"bracket invalid: already certified at lo = {lo:.6e}")
    if not flags[-1]:
        raise ValueError(f"bracket invalid: not certified at hi = {hi:.6e}")
    for (k_prev, f_prev), (k_next, f_next) in zip(
        zip(audit, flags), zip(audit[1:], flags[1:])
    ):
        if f_prev and not f_next:
            raise RuntimeError(
                "certified predicate is not monotone on the bracket: "
                f"certified at kappa2={k_prev:.6e} but not at {k_next:.6e}"
            )

    while hi - lo > rel_tol * lo:
        mid = math.sqrt(lo * hi)
        if _certified_at(base, [mid])[0]:
            hi = mid
        else:
            lo = mid
    return math.sqrt(lo * hi)


def _bode_row_alone(ss, omega: float) -> BodeRow:
    """The row at one frequency, from its own solve; an error row when
    omega is (numerically) a resonance of A."""
    try:
        g = transfer_eval(ss, 1j * omega)
    except np.linalg.LinAlgError as exc:
        return BodeRow(omega=omega, magnitude=float("nan"), phase=float("nan"), error=str(exc))
    return BodeRow(omega=omega, magnitude=abs(g), phase=math.atan2(g.imag, g.real))


def bode_csv(model, omega_lo: float, omega_hi: float, n_points: int) -> list[BodeRow]:
    """Magnitude/phase rows on a log grid, augmented with the resonance
    frequencies |Im lambda(F)| falling inside the range.  The gains come
    from one stacked solve, and each row takes the scalar abs and atan2 of
    its gain (libm's, bit for bit those of `_bode_row_alone`).  When a
    singular row fails that solve, each row is solved alone, so that only
    the singular rows become error rows."""
    if not (0 < omega_lo < omega_hi < math.inf):
        raise ValueError(f"need finite 0 < omega_lo < omega_hi, got {omega_lo}, {omega_hi}")
    if n_points < 2:
        raise ValueError(f"need n_points >= 2, got {n_points}")
    ss = state_space(model)
    grid = np.logspace(math.log10(omega_lo), math.log10(omega_hi), n_points)
    seeds = np.abs(ss.eigenvalues.imag)
    seeds = seeds[(seeds >= omega_lo) & (seeds <= omega_hi)]
    omegas = np.unique(np.concatenate([grid, seeds]))
    try:
        gains = transfer_response(ss, 1j * omegas)
    except np.linalg.LinAlgError:
        return [_bode_row_alone(ss, w) for w in omegas.tolist()]
    # positional fields: keyword arguments cost about 20% of each row
    return [BodeRow(w, abs(g), math.atan2(g.imag, g.real))
            for w, g in zip(omegas.tolist(), gains.tolist())]


def kappa1_sensitivity(
    params: PhysicalParams, kappa1_values, kappa2_fixed: float
) -> list[tuple[float, float]]:
    """H-infinity norm per cavity coupling value, junction coupling fixed,
    from one stacked certification; the first failing row raises."""
    values = [float(k1) for k1 in kappa1_values]
    certs = _sweep(_base(params), [(k1, kappa2_fixed) for k1 in values], certify_all)
    return [(k1, _raised(cert).hinf_norm) for k1, cert in zip(values, certs)]


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
