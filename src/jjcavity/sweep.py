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
    _raised,
    _realization,
    _verdicts,
    state_space,
    transfer_eval,
    transfer_response,
)
from .stability import certify  # noqa: F401  (still reachable as sweep.certify; bench/tests checks its tracing)

THRESHOLD_AUDIT_POINTS = 20
#: norms after which `find_threshold` gives up, a safety net: on 300
#: `random_params` draws it takes at most 4, and bisection alone takes 29
#: from the widest flip interval of positive floats (log width about 75)
#: down to the tightest step, rel_tol/4 = 2.5e-7
THRESHOLD_MAX_NORMS = 100
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


def _sweep(base: _Base, couplings, decide) -> list:
    """`decide` (`_certificates` or `_verdicts`, see `stability._decided`)
    on the model at every (kappa1, kappa2) pair at once: one result per
    pair, in order, or the exception that building, validating or deciding
    its model raised.

    F = -i J M - (1/2) J N^dag J N is affine in the coupling rates: M,
    Etilde and the sector constants do not depend on them, and
    N = diag(sqrt(kappa1), sqrt(kappa2), sqrt(kappa1), sqrt(kappa2)).  So
    only N changes from row to row.  M, Etilde, gamma and the deltas come
    from the one build in `base`, validated once there; each row adds only
    its N (`build_coupling`), which is block-structured and finite for
    every pair `params.replace` accepts.  The rows are realized as one
    stack and decided in one pass.  Each row first checks its pair as
    `params.replace(kappa1=..., kappa2=...)` would, so a bad pair keeps its
    own error ahead of any error from the base build."""
    rows = []  # each pair's N, or its error
    for k1, k2 in couplings:
        try:
            base.params.replace(kappa1=k1, kappa2=k2)
            m = _raised(base.model)
            rows.append(build_coupling(k1, k2))
        except Exception as exc:  # the row's own result
            rows.append(exc)
    N = [r for r in rows if not isinstance(r, Exception)]
    if N:  # m is the base model: some row got past it
        Etilde = np.broadcast_to(m.Etilde, (len(N),) + m.Etilde.shape)
        st = _realization(m.n_modes, m.M, np.array(N), Etilde)
        decided = iter(_decided(st, [m.gamma / 2.0] * len(N), decide))
        rows = [r if isinstance(r, Exception) else next(decided) for r in rows]
    return rows


def _certified_at(base: _Base, kappa2_values) -> list[bool]:
    """The verdict at each junction coupling value, from one stacked verdict
    call."""
    k1 = base.params.kappa1
    return [_raised(r) for r in _sweep(base, [(k1, k2) for k2 in kappa2_values], _verdicts)]


def sweep_kappa2(params: PhysicalParams, kappa2_values) -> list[SweepRecord]:
    """One record per coupling value, in input order, from one stacked
    certification; a row that fails carries its error in-row."""
    values = [float(k2) for k2 in kappa2_values]
    records = []
    couplings = [(params.kappa1, k2) for k2 in values]
    for k2, cert in zip(values, _sweep(_base(params), couplings, _certificates)):
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


def _norm_at(base: _Base, kappa2: float) -> tuple[float, float]:
    """(||G||_inf, d||G||_inf / dkappa2) of the model at one junction
    coupling value.

    The norm is `certify`'s on the model with that kappa2 and the one
    validated base build's M, Etilde and gamma (see `_sweep`), decided as a
    stack of one by `_decided` with `_certificates`; the slope reuses its
    realization F, B, C.  `find_threshold` calls this only after its audit
    has decided rows on `base`, so the base is a validated model, and
    kappa2 lies inside the flip interval, so its pair passes
    `params.replace`.  The slope comes from the envelope theorem at the
    peak frequency w*:
    d||G||_inf/dkappa2 = Re(conj(G) C R E R B) / |G| with
    R = (i w* I - F)^-1 and E = dF/dkappa2 = -diag(0, 1, 0, 1)/2, from one
    stacked solve for R B and R^H C^H.  F is Hurwitz wherever the search
    calls this: its spectrum, -kappa2/2 (twice) and -kappa1/2 +- i omega,
    is Hurwitz at every kappa2 > 0 once it is at the flip interval's
    certified end."""
    m = base.model
    st = _realization(m.n_modes, m.M, build_coupling(base.params.kappa1, kappa2)[None], m.Etilde[None])
    cert = _raised(_decided(st, [m.gamma / 2.0], _certificates)[0])
    F, B, C = st.A[0], st.B[0], st.C[0]
    lhs = 1j * cert.hinf_freq * np.eye(len(F)) - F
    rb, rc = np.linalg.solve(np.stack([lhs, lhs.conj().T]), np.stack([B, C.conj().T]))
    g = (C @ rb).item()
    dg = (rc.conj().T @ (DF_DKAPPA2 * rb)).item()
    return cert.hinf_norm, (g.conjugate() * dg).real / abs(g)


def find_threshold(
    params: PhysicalParams, lo: float, hi: float, rel_tol: float = 1e-3
) -> float:
    """The coupling rate kappa2* where the certificate flips, by safeguarded
    Newton on the norm inside the audit's flip interval.

    Requires certified(lo) = False and certified(hi) = True.  Monotonicity
    of the certified predicate is observed rather than proven, so a 20-point
    log grid from lo to hi (exactly) is audited first, in one stacked
    verdict call (`_verdicts`); its end verdicts are the bracket
    checks, and a certified point followed by an uncertified one raises
    RuntimeError.  The two audit points where the verdict flips bound the
    search.  From their geometric midpoint, Newton runs on
    f(x) = log ||G||_inf - log(gamma/2) in x = log kappa2, with the norm and
    its exact kappa2-derivative from `_norm_at`.  The sign of f shrinks the
    bracket, and a step that would leave the bracket, or does not halve the
    step before it, is a bisection step instead (||G||_inf is a max over
    frequencies, so it is only piecewise smooth in kappa2).  Once a step is
    below rel_tol/4, no more norms are computed: one stacked verdict call
    at kappa2*(1 -+ rel_tol/2) must give [False, True], and kappa2* is
    returned.  A failed pair shrinks the bracket to what the verdicts alone
    have shown, and the search goes on from its midpoint.
    F is affine in the coupling rates, so the model is built once: every
    verdict and norm takes its N from its kappa2 and M, Etilde, gamma and
    the deltas from that one build (see `_sweep`).

    rel_tol must lie in [HINF_DEFAULT_REL_TOL, 2) = [1e-6, 2): kappa2* comes
    from the norm's upper bound, which lies up to about 2e-7 above the peak
    and so biases kappa2* by about as much, and the lower verification
    point kappa2*(1 - rel_tol/2) must stay positive."""
    if not (0 < lo < hi < math.inf):
        raise ValueError(f"need finite 0 < lo < hi, got lo={lo}, hi={hi}")
    if not 0 < rel_tol < math.inf:
        raise ValueError(f"rel_tol must be finite and positive, got {rel_tol}")
    if rel_tol < HINF_DEFAULT_REL_TOL:
        raise ValueError(
            f"rel_tol {rel_tol:.3g} is below the floor {HINF_DEFAULT_REL_TOL:g}: kappa2* comes from "
            "the norm's upper bound, which biases it by about 2e-7, so a tighter bracket cannot be verified"
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
    # [a, b]: the bracket the norm's sign shrinks; [va, vb]: what verdicts
    # alone have shown, where a failed pair restarts the search
    va, vb = a, b = math.log(flip[0]), math.log(flip[1])
    x, last = (a + b) / 2.0, b - a
    bisections = 0
    for norms in range(1, THRESHOLD_MAX_NORMS + 1):
        kappa = math.exp(x)
        norm, slope = _norm_at(base, kappa)
        f = math.log(norm) - log_gamma_half
        if f < 0.0:  # certified: kappa2* lies below
            b = x
        else:
            a = x
        # d log||G|| / d log kappa2 = kappa slope / norm
        step = -f * norm / (kappa * slope) if slope else math.nan
        if not (a < x + step < b and abs(step) <= last / 2.0):
            step = (a + b) / 2.0 - x
            bisections += 1
        x, last = x + step, abs(step)
        if last >= rel_tol / 4.0:
            continue
        kappa = math.exp(x)
        pair = [kappa * (1.0 - rel_tol / 2.0), kappa * (1.0 + rel_tol / 2.0)]
        below, above = _certified_at(base, pair)
        if not below and above:
            log = _debug_logger()
            if log is not None:
                log.debug("find_threshold: flip interval [%.6e, %.6e], %d norms, "
                          "%d bisection steps, verified [%.6e, %.6e]",
                          *flip, norms, bisections, *pair)
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
        f"threshold search: no verified kappa2* after {THRESHOLD_MAX_NORMS} norms; "
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
    certs = _sweep(_base(params), [(k1, kappa2_fixed) for k1 in values], _certificates)
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
