"""Parameter sweeps over the junction coupling rate, threshold location,
and Bode data emission."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .builder import build_coupling, build_model
from .model import SystemModel, _invalid, validate_model
from .params import PhysicalParams
from .stability import (
    HINF_DEFAULT_REL_TOL,
    _certificates,
    _decided,
    _hinf_norms,
    _imag_axis_crossings,
    _polish,
    _raised,
    _realization,
    _row_peaks,
    _seeds,
    _spectra,
    _verdicts,
    state_space,
    transfer_eval,
    transfer_response,
)
from .stability import certify  # noqa: F401  (still reachable as sweep.certify; bench/tests checks its tracing)

THRESHOLD_AUDIT_POINTS = 20
#: tracked peaks after which `find_threshold` gives up, a safety net: on
#: 300 `random_params` draws it takes at most 5, and bisection alone takes
#: 29 from the widest flip interval of positive floats (log width about 75)
#: down to the tightest step, rel_tol/4 = 2.5e-7
THRESHOLD_MAX_PEAKS = 100
#: dF/dkappa2 as a column: the damping term of F is
#: -(1/2) J N^dag J N = -diag(kappa1, kappa2, kappa1, kappa2)/2
DF_DKAPPA2 = np.array([[0.0], [-0.5], [0.0], [-0.5]])
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
    """The constants of a sweep, and `build_model` on them once it passes
    `validate_model`, or the exception that building or validating it
    raised."""

    params: PhysicalParams
    model: SystemModel | Exception


def _base(params: PhysicalParams) -> _Base:
    try:
        model = build_model(params)
    except Exception as exc:  # every row's result, after its own coupling check
        return _Base(params, exc)
    violations = validate_model(model)
    return _Base(params, _invalid(violations) if violations else model)


def _sweep(base: _Base, kappa1, kappa2, decide) -> list:
    """`decide` (`_certificates` or `_verdicts`, see `stability._decided`)
    on the model at every pair of the broadcast rate arrays `kappa1` and
    `kappa2` at once: one result per pair, in order, or the exception that
    building, validating or deciding its model raised.

    F = -i J M - (1/2) J N^dag J N is affine in the coupling rates: M,
    Etilde and the sector constants do not depend on them, and
    N = diag(sqrt(kappa1), sqrt(kappa2), sqrt(kappa1), sqrt(kappa2)).  So
    only N changes from row to row.  M, Etilde, gamma and the deltas come
    from the one build in `base`, validated once there.  The pairs that
    `params.replace` accepts, both rates finite and nonnegative, take their
    N from one broadcast `build_coupling` call and are decided as one
    stack, or all carry the base build's error.  Any other pair carries the
    error of `params.replace(kappa1=..., kappa2=...)` on it, ahead of any
    error from the base build."""
    k1, k2 = np.broadcast_arrays(np.asarray(kappa1, dtype=float), np.asarray(kappa2, dtype=float))
    good = np.isfinite(k1) & np.isfinite(k2) & (k1 >= 0.0) & (k2 >= 0.0)
    out: list = [base.model] * k1.size
    for i in np.flatnonzero(~good).tolist():
        try:
            base.params.replace(kappa1=float(k1[i]), kappa2=float(k2[i]))
        except Exception as exc:  # the row's own result
            out[i] = exc
    rows = np.flatnonzero(good)
    m = base.model
    if rows.size and not isinstance(m, Exception):
        Etilde = np.broadcast_to(m.Etilde, (rows.size,) + m.Etilde.shape)
        st = _realization(m.n_modes, m.M, build_coupling(k1[rows], k2[rows]), Etilde)
        for i, result in zip(rows.tolist(), _decided(st, [m.gamma / 2.0] * rows.size, decide)):
            out[i] = result
    return out


def _certified_at(base: _Base, kappa2_values) -> list[bool]:
    """The verdict at each junction coupling value, from one stacked verdict
    call."""
    return [_raised(r) for r in _sweep(base, base.params.kappa1, kappa2_values, _verdicts)]


def sweep_kappa2(params: PhysicalParams, kappa2_values) -> list[SweepRecord]:
    """One record per coupling value, in input order, from one stacked
    certification; a row that fails carries its error in-row."""
    values = [float(k2) for k2 in kappa2_values]
    records = []
    for k2, cert in zip(values, _sweep(_base(params), params.kappa1, values, _certificates)):
        if isinstance(cert, Exception):
            records.append(SweepRecord(kappa2=k2, hinf_norm=float("nan"),
                                       hurwitz=False, certified=False, error=str(cert)))
        else:
            records.append(SweepRecord(kappa2=k2, hinf_norm=cert.hinf_norm,
                                       hurwitz=cert.hurwitz, certified=cert.certified))
    return records


def _debug_logger():
    """`logging.getLogger(__name__)` when it records DEBUG, else None.
    `logging` is not imported here: until a caller imports it no handler
    can exist, and importing it would cost every run about 0.4 MB of
    resident memory and 5 ms of start-up."""
    logging = sys.modules.get("logging")
    if logging is not None:
        log = logging.getLogger(__name__)
        if log.isEnabledFor(logging.DEBUG):
            return log
    return None


def _peak_at(base: _Base, kappa2: float, w: float | None):
    """(gain, w*, d gain / dkappa2, realization) of the model at one
    junction coupling value: a peak of its gain tracked from the start
    frequency w.

    The model is the one with that kappa2 and the one validated base
    build's M, Etilde and gamma (see `_sweep`), realized as a stack of one.
    Its gain is climbed by one `_polish` from w, or, when w is None, from
    the `_row_peaks` pick among the `_seeds` of its spectrum, the start
    `certify`'s norm search takes first.  The gain is a measured |G(i w*)|,
    so a lower bound on the norm; it is the norm only if w* sits on the
    highest peak, which `_norm_freq` checks.  `find_threshold` calls this
    only after its audit has decided rows on `base`, so the base is a
    validated model, and kappa2 lies inside the flip interval, so its pair
    passes `params.replace`.  The slope comes from the envelope theorem at
    w*: d gain/dkappa2 = Re(conj(G) C R E R B) / |G| with
    R = (i w* I - F)^-1 and E = dF/dkappa2 = -diag(0, 1, 0, 1)/2, from one
    stacked solve for R B and R^H C^H.  F is Hurwitz wherever the search
    calls this: its spectrum, -kappa2/2 (twice) and -kappa1/2 +- i omega,
    is Hurwitz at every kappa2 > 0 once it is at the flip interval's
    certified end."""
    m = base.model
    st = _realization(m.n_modes, m.M, build_coupling(base.params.kappa1, kappa2)[None], m.Etilde[None])
    start = _row_peaks(st, _seeds(_spectra(st.A)[0]))[1] if w is None else np.array([w])
    gain, w = (float(v[0]) for v in _polish(st, start, HINF_DEFAULT_REL_TOL))
    F, B, C = st.A[0], st.B[0], st.C[0]
    lhs = 1j * w * np.eye(len(F)) - F
    rb, rc = np.linalg.solve(np.stack([lhs, lhs.conj().T]), np.stack([B, C.conj().T]))
    g = (C @ rb).item()
    dg = (rc.conj().T @ (DF_DKAPPA2 * rb)).item()
    return gain, w, (g.conjugate() * dg).real / abs(g), st


def _norm_freq(st, gain: float) -> float | None:
    """None when `gain`, measured on the one system of `st`, lies within
    HINF_DEFAULT_REL_TOL/5 of its norm: the level-set test at
    (1 + HINF_DEFAULT_REL_TOL/5) gain finds no crossing, the test `certify`'s
    norm search ends with.  Otherwise the gain sits on a lower, local peak,
    and this is the frequency of the norm from one full `_hinf_norms`."""
    if not _imag_axis_crossings(st, [(1.0 + HINF_DEFAULT_REL_TOL / 5.0) * gain])[0].size:
        return None
    return _raised(_hinf_norms(st, _spectra(st.A), HINF_DEFAULT_REL_TOL)[0])[1]


def find_threshold(
    params: PhysicalParams, lo: float, hi: float, rel_tol: float = 1e-3
) -> float:
    """The coupling rate kappa2* where the certificate flips, by safeguarded
    Newton on a tracked peak of the gain inside the audit's flip interval.

    Requires certified(lo) = False and certified(hi) = True.  Monotonicity
    of the certified predicate is observed rather than proven, so a 20-point
    log grid from lo to hi (exactly) is audited first, in one stacked
    verdict call (`_verdicts`); its end verdicts are the bracket
    checks, and a certified point followed by an uncertified one raises
    RuntimeError.  The two audit points where the verdict flips bound the
    search.  From their geometric midpoint, Newton runs on
    f(x) = log gain - log(gamma/2) in x = log kappa2, with the gain of a
    tracked peak and its exact kappa2-derivative from `_peak_at`: each step
    polishes from the peak frequency of the step before, the first from the
    seeds.  The sign of f shrinks the bracket, and a step that would leave
    the bracket, or does not halve the step before it, is a bisection step
    instead (the norm is a max over frequencies, so it is only piecewise
    smooth in kappa2).  Once a step is below rel_tol/4, one level-set test
    on that step's model checks that its tracked gain is the norm
    (`_norm_freq`).  If it is not, the peak was a local one: tracking goes
    on from the frequency of one full norm at the same kappa2, in the
    bracket the verdicts alone have shown, since the gains of a local peak
    may have shrunk it wrongly.  If it is, the step is taken and one
    stacked verdict call at kappa2*(1 -+ rel_tol/2) must give
    [False, True], and kappa2* is returned.  A failed pair shrinks the
    bracket to what the verdicts alone have shown, and the search goes on
    from its midpoint.
    F is affine in the coupling rates, so the model is built once: every
    verdict and peak takes its N from its kappa2 and M, Etilde, gamma and
    the deltas from that one build (see `_sweep`).

    rel_tol must lie in [HINF_DEFAULT_REL_TOL, 2) = [1e-6, 2): the pair's
    verdicts are float level-set tests, which near the flip resolve the gain
    only to about HINF_MIN_REL_TOL = 1e-7 (see `hinf_norm`), and the lower
    verification point kappa2*(1 - rel_tol/2) must stay positive."""
    if not (0 < lo < hi < math.inf):
        raise ValueError(f"need finite 0 < lo < hi, got lo={lo}, hi={hi}")
    if not 0 < rel_tol < math.inf:
        raise ValueError(f"rel_tol must be finite and positive, got {rel_tol}")
    if rel_tol < HINF_DEFAULT_REL_TOL:
        raise ValueError(
            f"rel_tol {rel_tol:.3g} is below the floor {HINF_DEFAULT_REL_TOL:g}: the verification pair's "
            "verdicts are float level-set tests, which near the flip resolve the gain only to about 1e-7, "
            "so a tighter bracket cannot be verified"
        )
    if rel_tol >= 2.0:
        raise ValueError(
            f"rel_tol must be below 2, so that kappa2*(1 - rel_tol/2) stays positive, got {rel_tol}"
        )
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

    j = flags.index(True)
    flip = (float(audit[j - 1]), float(audit[j]))
    log_gamma_half = math.log(base.model.gamma / 2.0)
    # [a, b]: the bracket the gain's sign shrinks; [va, vb]: what verdicts
    # alone have shown, where a failed pair or a local peak restarts it
    va, vb = a, b = math.log(flip[0]), math.log(flip[1])
    x, last = (a + b) / 2.0, b - a
    w, norms, bisections = None, 0, 0
    for peaks in range(1, THRESHOLD_MAX_PEAKS + 1):
        kappa = math.exp(x)
        gain, w, slope, st = _peak_at(base, kappa, w)
        f = math.log(gain) - log_gamma_half
        if f < 0.0:  # certified: kappa2* lies below
            b = x
        else:
            a = x
        # d log gain / d log kappa2 = kappa slope / gain
        step = -f * gain / (kappa * slope) if slope else math.nan
        if not (a < x + step < b and abs(step) <= last / 2.0):
            step = (a + b) / 2.0 - x
            bisections += 1
        if abs(step) >= rel_tol / 4.0:
            x, last = x + step, abs(step)
            continue
        w_norm = _norm_freq(st, gain)
        if w_norm is not None:  # a local peak: track the norm's from the same x
            w, norms = w_norm, norms + 1
            a, b, last = va, vb, vb - va
            continue
        kappa = math.exp(x + step)
        pair = [kappa * (1.0 - rel_tol / 2.0), kappa * (1.0 + rel_tol / 2.0)]
        below, above = _certified_at(base, pair)
        if not below and above:
            log = _debug_logger()
            if log is not None:
                log.debug("find_threshold: flip interval [%.6e, %.6e], %d tracked peaks, %d full norms, "
                          "%d bisection steps, verified [%.6e, %.6e]",
                          *flip, peaks, norms, bisections, *pair)
            return kappa
        if below:
            vb = min(vb, math.log(pair[0]))
        if not above:
            va = max(va, math.log(pair[1]))
        if not va < vb:
            raise RuntimeError(
                "certified predicate is not monotone on the bracket: "
                f"certified at kappa2={math.exp(vb):.6e} but not at {math.exp(va):.6e}"
            )
        a, b = va, vb
        x, last = (a + b) / 2.0, b - a
        bisections += 1
    raise RuntimeError(
        f"threshold search: no verified kappa2* after {THRESHOLD_MAX_PEAKS} peaks; "
        f"bracket [{math.exp(a):.6e}, {math.exp(b):.6e}]"
    )


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
    seeds = np.abs(np.linalg.eigvals(ss.A).imag)
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
    certs = _sweep(_base(params), values, float(kappa2_fixed), _certificates)
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
