"""Parameter sweeps over the junction coupling rate, threshold location,
and Bode data emission."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .builder import build_model
from .model import SystemModel, _validated
from .params import PhysicalParams
from .stability import (
    HINF_DEFAULT_REL_TOL,
    StateSpace,
    _certificates,
    _decided,
    _identity,
    _norm_freq,
    _polish,
    _raised,
    _seed_start,
    _spectra,
    _uncoupled,
    _verdicts,
    state_space,
    transfer_eval,
    transfer_response,
)
from .stability import certify  # noqa: F401  (still reachable as sweep.certify; bench/tests checks its tracing)

THRESHOLD_AUDIT_POINTS = 20
#: tracked peaks after which `find_threshold` gives up, a safety net: on
#: 300 `random_params` draws it takes at most 5 (2.95 on average), and
#: bisection alone takes 29 from the widest flip interval of positive floats
#: (log width about 75) down to the tightest step, rel_tol/4 = 2.5e-7
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


@dataclass(frozen=True, slots=True, init=False)
class BodeRow:
    omega: float
    magnitude: float
    phase: float           # radians
    error: str | None = None

    def __init__(self, omega: float, magnitude: float, phase: float, error: str | None = None):
        # each field through its slot's own setter, bound once below: the
        # generated frozen __init__ makes one object.__setattr__ call per
        # field, most of the cost of building a Bode grid's rows
        _set_omega(self, omega)
        _set_magnitude(self, magnitude)
        _set_phase(self, phase)
        _set_error(self, error)


_set_omega = BodeRow.omega.__set__
_set_magnitude = BodeRow.magnitude.__set__
_set_phase = BodeRow.phase.__set__
_set_error = BodeRow.error.__set__


class _Base(NamedTuple):
    """The constants of a sweep, and `build_model` on them once it passes
    `validate_model`, or the exception that building or validating it
    raised; for a validated model also its `uncoupled` parts (see
    `_base`)."""

    params: PhysicalParams
    model: SystemModel | Exception
    uncoupled: tuple | None = None


def _base(params: PhysicalParams) -> _Base:
    """The model of `params` built, validated and realized once: its
    `uncoupled` parts are P = -i J M, B and C from `stability._uncoupled`,
    which no coupling rate touches, so `_rows` completes every row's
    realization from them bit for bit."""
    try:
        m = _validated(build_model(params))
    except Exception as exc:  # every row's result, after its own coupling check
        return _Base(params, exc)
    return _Base(params, m, _uncoupled(m.M, m.Etilde))


def _rows(base: _Base, kappa1, kappa2) -> StateSpace:
    """The realization of the base model at each pair of the broadcast rate
    arrays `kappa1` and `kappa2`, with no `build_coupling` call and no
    matmul: A = P - (1/2) D, D = diag(r1, r2, r1, r2) as complex with
    r = sqrt(kappa)^2, and a copy of B and of C per pair, all from
    `base.uncoupled` (see `_base`).

    It is `stability._realization` on the builder's
    N = diag(sqrt(kappa1), sqrt(kappa2), sqrt(kappa1), sqrt(kappa2)) bit
    for bit: for a diagonal N each entry of J N^dag J N is one product,
    sqrt(kappa) times itself on the diagonal, plus exact zeros, so it is D,
    and A the same subtraction, signed zeros included (pinned byte for
    byte in tests/test_properties.py).  A model file's N, whose N2 block
    may be nonzero, takes `_realization` instead."""
    P, B, C = base.uncoupled
    r1, r2 = np.square(np.sqrt(kappa1)), np.square(np.sqrt(kappa2))
    k = np.broadcast(r1, r2).shape
    D = np.zeros(k + (16,), dtype=complex)
    D[..., 0::10] = r1[..., None]
    D[..., 5::10] = r2[..., None]
    Bk, Ck = np.empty(k + B.shape, dtype=complex), np.empty(k + C.shape, dtype=complex)
    Bk[...], Ck[...] = B, C
    return StateSpace(P - 0.5 * D.reshape(k + P.shape), Bk, Ck)


def _sweep(base: _Base, kappa1, kappa2, decide) -> list:
    """`decide` (`_certificates` or `_verdicts`, see `stability._decided`)
    on the model at every pair of the broadcast rate arrays `kappa1` and
    `kappa2` at once: one result per pair, in order, or the exception that
    building, validating or deciding its model raised.

    F = -i J M - (1/2) J N^dag J N is affine in the coupling rates: only
    N = diag(sqrt(kappa1), sqrt(kappa2), sqrt(kappa1), sqrt(kappa2)) depends
    on them.  So M, Etilde and the sector constants gamma, delta1, delta2
    come from the one build in `base`, validated and realized once there.
    The pairs that `params.replace` accepts, both rates finite and
    nonnegative, are realized by one `_rows` call, bit for bit their own
    builds' realizations (for a diagonal N each entry of J N^dag J N is one
    product plus exact zeros), and decided as one stack, or all carry the
    base build's error.  Any other pair carries the error of
    `params.replace(kappa1=..., kappa2=...)` on it, ahead of any error from
    the base build."""
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
        st = _rows(base, k1[rows], k2[rows])
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
    junction coupling value, its one `_rows` row on the base build (bit for
    bit its own build's realization: each entry of J N^dag J N is one
    product plus exact zeros): a peak of its gain, one `stability._polish`
    from the start frequency w, or from `stability._seed_start` when w is
    None.

    The gain is a measured |G(i w*)|, so a lower bound on the norm; it is
    the norm only if w* sits on the highest peak, which `_norm_freq`
    checks.  The slope comes from the envelope theorem at w*:
    d gain/dkappa2 = Re(conj(G) C R E R B) / |G| with R = (i w* I - F)^-1
    and E = dF/dkappa2 (`DF_DKAPPA2`), from one stacked solve for R B and
    R^H C^H.  Its [lhs, lhs^H] pair is written into one preallocated stack,
    lhs = i w* I - F from the shared `stability._identity` as in
    `transfer_response`, so the same bits as the expression.  A LinAlgError
    in the climb or in that solve raises RuntimeError naming kappa2, the
    climb's start and numpy's message.  `find_threshold` calls this only
    inside the audit's flip interval, so the base is a validated model, the
    pair passes `params.replace`, and F is Hurwitz: its spectrum, -kappa2/2
    (twice) and -kappa1/2 +- i omega, is Hurwitz at every kappa2 > 0 once
    it is at the flip interval's certified end."""
    st = _rows(base, base.params.kappa1, [kappa2])
    start = _seed_start(st) if w is None else w
    F, B, C = st.A[0], st.B[0], st.C[0]
    n = len(F)
    pair, rhs = np.empty((2, n, n), dtype=complex), np.empty((2, n, 1), dtype=complex)
    try:
        gain, w = (float(v[0]) for v in _polish(st, [start], HINF_DEFAULT_REL_TOL))
        np.multiply(1j * w, _identity(n), out=pair[0])
        pair[0] -= F
        pair[1], rhs[0], rhs[1] = pair[0].conj().T, B, C.conj().T
        rb, rc = np.linalg.solve(pair, rhs)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"threshold peak failed: {exc} in the climb from {start:.6e} rad/s "
                           f"at kappa2 {kappa2:.6e}") from exc
    g = (C @ rb).item()
    dg = (rc.conj().T @ (DF_DKAPPA2 * rb)).item()
    return gain, w, (g.conjugate() * dg).real / abs(g), st


def find_threshold(
    params: PhysicalParams, lo: float, hi: float, rel_tol: float = 1e-3
) -> float:
    """The coupling rate kappa2* where the certificate flips, by safeguarded
    Newton on a tracked peak of the gain inside the audit's flip interval.

    Requires certified(lo) = False and certified(hi) = True.  Monotonicity
    of the certified predicate is observed rather than proven, so a 20-point
    log grid from lo to hi (exactly) is audited first, in one stacked
    verdict call (`_verdicts`); its end verdicts are the bracket checks,
    and a certified point followed by an uncertified one raises
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
    (`_norm_freq`).  If it is not, the peak was a local one (on 25 of 300
    `random_params` draws on [1e10, 1e14]): tracking goes on from the
    frequency of one full norm at the same kappa2, in the bracket the
    verdicts alone have shown, since the gains of a local peak may have
    shrunk it wrongly.  If it is, the step is taken and one stacked verdict
    call at kappa2*(1 -+ rel_tol/2) must give [False, True], and kappa2* is
    returned.  A failed pair shrinks the bracket to what the verdicts alone
    have shown, and the search goes on from its midpoint.  The model is
    built, validated and realized once (`_base`), and every row of the
    audit, the peaks and the pairs is bit for bit its own build's
    realization (`_rows`: each entry of J N^dag J N is one product plus
    exact zeros).  A singular solve in a peak's climb raises RuntimeError
    naming kappa2 and the start (`_peak_at`).

    At the paper point on [1e11, 1e13], kappa2* = 2.1696638e12 is the
    closed form to 8 digits: the root of a measured peak carries none of
    the ~2e-7 bias of the root of the norm's upper bound (2.1696641e12).

    rel_tol must lie in [HINF_DEFAULT_REL_TOL, 2) = [1e-6, 2): the pair's
    verdicts are float level-set tests, which near the flip cannot resolve
    a tighter bracket (the resolution floor of `hinf_norm`), and the lower
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
    j = flags.index(True)
    if False in flags[j:]:  # the first certified point followed by a refused one
        i = flags.index(False, j)
        raise _not_monotone(audit[i - 1], audit[i])
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
            raise _not_monotone(math.exp(vb), math.exp(va))
        a, b = va, vb
        x, last = (a + b) / 2.0, b - a
        bisections += 1
    raise RuntimeError(
        f"threshold search: no verified kappa2* after {THRESHOLD_MAX_PEAKS} peaks; "
        f"bracket [{math.exp(a):.6e}, {math.exp(b):.6e}]"
    )


def _not_monotone(certified: float, refused: float) -> RuntimeError:
    """The error for a coupling rate certified below one that is refused."""
    return RuntimeError("certified predicate is not monotone on the bracket: "
                        f"certified at kappa2={certified:.6e} but not at {refused:.6e}")


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
    from one stacked solve; when a singular row fails it, each row is
    solved alone, so that only the singular rows become error rows.

    Each row takes Python's scalar abs and math.atan2 of its gain, so it is
    bit for bit the row of `_bode_row_alone`.  numpy's vectorised np.abs
    and np.arctan2 are not: on an AVX-512 machine, over the 64 000 gains of
    400-point grids on 160 models drawn as the benchmark's crosscheck
    pools, 22 853 magnitudes and 5 484 phases differed from the scalar
    ones in the last bits."""
    if not (0 < omega_lo < omega_hi < math.inf):
        raise ValueError(f"need finite 0 < omega_lo < omega_hi, got {omega_lo}, {omega_hi}")
    if n_points < 2:
        raise ValueError(f"need n_points >= 2, got {n_points}")
    ss = state_space(model)
    grid = np.logspace(math.log10(omega_lo), math.log10(omega_hi), n_points)
    seeds = np.abs(_spectra(ss.A)[0].imag)
    seeds = seeds[(seeds >= omega_lo) & (seeds <= omega_hi)]
    omegas = np.unique(np.concatenate([grid, seeds]))
    try:
        gains = transfer_response(ss, 1j * omegas)
    except np.linalg.LinAlgError:
        return [_bode_row_alone(ss, w) for w in omegas.tolist()]
    return list(map(BodeRow, omegas.tolist(), map(abs, gains.tolist()),
                    map(math.atan2, gains.imag.tolist(), gains.real.tolist())))


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
