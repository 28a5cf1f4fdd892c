"""Strict bounded-real certification: F matrix, Hurwitz test, transfer
function, H-infinity norm, and the final certificate.

The Hurwitz test, the norm search and the verdict run on a stack of
models of one order at once, each step one stacked LAPACK call; a single
model is the stack of one."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from .model import SystemModel, _encode_complex, _violations, j_matrix, sigma_matrix

HINF_DEFAULT_REL_TOL = 1e-6
#: the tightest rel_tol `hinf_norm` accepts: near the peak the level-set
#: eigenvalue pair is nearly double, and the float eigen test resolves its
#: crossings only to about sqrt(eps) times the matrix scale
HINF_MIN_REL_TOL = 1e-7
#: level-set iterations before `hinf_norm` gives up; the iteration converges
#: quadratically and needs at most a handful
HINF_MAX_ITER = 30
#: imaginary-axis detection threshold, relative to the max-abs entry of the
#: level-set matrix (scale-free across the model's huge dynamic range)
IMAG_AXIS_REL_TOL = 1e-8


def _spectra(A: np.ndarray):
    """(eigenvalues, abscissa, hurwitz_tol, hurwitz) of A, or of each matrix
    of a (k, n, n) stack, from one eigvals call, with the one Hurwitz rule:
    abscissa < -hurwitz_tol = -1e-6 eps max(1, max |A_ij|)."""
    ev = np.linalg.eigvals(A)
    abscissa = ev.real.max(axis=-1)
    tol = 1e-6 * np.maximum(1.0, np.abs(A).max(axis=(-2, -1))) * np.finfo(float).eps
    return ev, abscissa, tol, abscissa < -tol


@dataclass(frozen=True)
class StateSpace:
    """Strictly proper single-channel system G(s) = C (sI - A)^-1 B, with
    the spectrum of A and its Hurwitz verdict computed once, by the rule of
    `_spectra`."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    eigenvalues: np.ndarray = field(init=False)
    abscissa: float = field(init=False)
    hurwitz_tol: float = field(init=False)
    hurwitz: bool = field(init=False)

    def __post_init__(self):
        A = np.asarray(self.A, dtype=complex)
        object.__setattr__(self, "A", A)
        n = A.shape[0]
        if A.shape != (n, n):
            raise ValueError(f"A must be square, got {A.shape}")
        object.__setattr__(self, "B", np.asarray(self.B, dtype=complex).reshape(n, 1))
        object.__setattr__(self, "C", np.asarray(self.C, dtype=complex).reshape(1, n))
        ev, abscissa, tol, hurwitz = _spectra(A)
        object.__setattr__(self, "eigenvalues", ev)
        object.__setattr__(self, "abscissa", float(abscissa))
        object.__setattr__(self, "hurwitz_tol", float(tol))
        object.__setattr__(self, "hurwitz", bool(hurwitz))


class _Stack(NamedTuple):
    """Systems of one order n stacked along a leading axis: A (k, n, n),
    B (k, n, 1), C (k, 1, n)."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray

    def take(self, rows) -> "_Stack":
        """The systems at the ascending, distinct indices `rows`."""
        if len(rows) == len(self.A):
            return self
        return _Stack(self.A[rows], self.B[rows], self.C[rows])


@dataclass(frozen=True)
class StabilityCertificate:
    eigenvalues_F: tuple
    spectral_abscissa: float
    hurwitz: bool
    hinf_norm: float       # NaN when F is not Hurwitz (norm undefined)
    hinf_freq: float       # NaN when F is not Hurwitz
    gamma_half: float
    certified: bool
    hurwitz_tol: float
    hinf_tol: float

    def to_json(self) -> str:
        return json.dumps(asdict(self), default=_encode_complex)


def _realization(n_modes: int, M: np.ndarray, N: np.ndarray, Etilde: np.ndarray):
    """(A, B, C) of the perturbation channel of one model, or of each model
    of a stack of one order n: A = F = -i J M - (1/2) J N^dag J N,
    B = J Sigma Etilde^T, C = Etilde# Sigma, D = 0."""
    J = j_matrix(n_modes)
    sig = sigma_matrix(n_modes)
    F = -1j * (J @ M) - 0.5 * (J @ N.conj().swapaxes(-1, -2) @ J @ N)
    return F, J @ sig @ Etilde.swapaxes(-1, -2), Etilde.conj() @ sig


def build_F(model: SystemModel) -> np.ndarray:
    """F = -i J M - (1/2) J N^dag J N."""
    return _realization(model.n_modes, model.M, model.N, model.Etilde)[0]


def state_space(model: SystemModel) -> StateSpace:
    """The transfer-function realization of the perturbation channel."""
    return StateSpace(*_realization(model.n_modes, model.M, model.N, model.Etilde))


def spectral_abscissa(F: np.ndarray) -> float:
    return float(np.max(np.linalg.eigvals(np.asarray(F, dtype=complex)).real))


def is_hurwitz(F: np.ndarray) -> bool:
    """The Hurwitz verdict of `StateSpace` on the square matrix F."""
    n = np.shape(F)[0]
    return StateSpace(A=F, B=np.zeros(n), C=np.zeros(n)).hurwitz


def transfer_response(ss, s) -> np.ndarray:
    """G at every point of the 1-D array `s` (the frequency response when
    s = i w), from one stacked linear solve on the (k, n, n) array of
    sI - A (never explicit inversion).  `ss` is a StateSpace, or a stack
    of systems with one system per point.  A point that is (numerically)
    an eigenvalue of A fails the whole solve with numpy's LinAlgError."""
    s = np.asarray(s, dtype=complex).reshape(-1)
    n = ss.A.shape[-1]
    lhs = s[:, None, None] * np.eye(n, dtype=complex) - ss.A
    x = np.linalg.solve(lhs, ss.B.reshape(-1, n, 1))
    return (ss.C @ x)[:, 0, 0]


def transfer_eval(ss: StateSpace, s: complex) -> complex:
    """G(s) at one point: the one-point case of `transfer_response`."""
    try:
        return complex(transfer_response(ss, s)[0])
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"s = {s} is (numerically) an eigenvalue of A: {exc}"
        ) from exc


def _unique(x: np.ndarray) -> np.ndarray:
    """np.unique of a finite 1-D array, without its per-call overhead: the
    same sort, keeping the first of each run of equal values."""
    x = np.sort(x)
    keep = np.empty(x.shape, dtype=bool)
    keep[:1] = True
    np.not_equal(x[1:], x[:-1], out=keep[1:])
    return x[keep]


def _peak_gains(st: _Stack, rows: list, omegas: list) -> list[tuple[float, float]]:
    """(largest |G(i w)|, its w) of each system st[rows[j]] over its own
    frequency array omegas[j], from one stacked solve over all of them."""
    sizes = [w.size for w in omegas]
    if len(st.A) == 1:  # a stack of one broadcasts over the points
        w = omegas[0]
    else:
        w = np.concatenate(omegas)
        idx = np.repeat(rows, sizes)
        st = _Stack(st.A[idx], st.B[idx], st.C[idx])
    gains = np.abs(transfer_response(st, 1j * w))
    peaks, start = [], 0
    for size in sizes:
        k = start + int(gains[start:start + size].argmax())
        peaks.append((float(gains[k]), float(w[k])))
        start += size
    return peaks


def _imag_axis_crossings(st: _Stack, levels) -> list[np.ndarray]:
    """For each system of `st`, the frequencies where some eigenvalue of its
    level-set matrix at its level L, [[A, B B^H / L], [-C^H C / L, -A^H]],
    sits on the imaginary axis; empty iff its gain stays strictly below L.
    One eigvals call on the (k, 2n, 2n) stack."""
    A, B, C = st
    k, n = A.shape[:2]
    level = np.asarray(levels, dtype=float)[:, None, None]
    H = np.empty((k, 2 * n, 2 * n), dtype=complex)
    H[:, :n, :n] = A
    H[:, :n, n:] = (B @ B.conj().transpose(0, 2, 1)) / level
    H[:, n:, :n] = -(C.conj().transpose(0, 2, 1) @ C) / level
    H[:, n:, n:] = -A.conj().transpose(0, 2, 1)
    ev = np.linalg.eigvals(H)
    tol = IMAG_AXIS_REL_TOL * np.maximum(1.0, np.abs(H).max(axis=(1, 2)))
    return [_unique(e.imag[np.abs(e.real) <= t]) for e, t in zip(ev, tol)]


def _hinf_norms(st: _Stack, eigenvalues: np.ndarray, abscissa: np.ndarray,
                rel_tol: float) -> list:
    """`hinf_norm` on every system of a stack of Hurwitz systems at once:
    one (norm, frequency) per system, or the RuntimeError that ends its
    iteration.  Each step is one stacked level-set test over the systems
    still crossing, then one solve over all their crossings and midpoints."""
    k, n = eigenvalues.shape
    # the state matrix has complex coefficients, so |G(i w)| is not symmetric
    # in w and the seeds run over the whole signed axis
    radii = np.abs(eigenvalues)
    extra = radii.max(axis=1, keepdims=True) * np.arange(2, n + 2)
    seeds = [_unique(w) for w in np.concatenate(
        [np.zeros((k, 1)), eigenvalues.imag, radii, -radii, extra], axis=1)]
    lo, freq = map(list, zip(*_peak_gains(st, range(k), seeds)))
    hi = [math.nan] * k
    out: list = [None] * k
    active = []
    for i in range(k):
        if lo[i] != 0.0:
            active.append(i)
        elif not any(np.any(st.C[i] @ np.linalg.matrix_power(st.A[i], p) @ st.B[i]) for p in range(n)):
            # G == 0 iff every Markov parameter C A^p B, p < n, is zero
            out[i] = (0.0, 0.0)
        else:
            out[i] = RuntimeError("H-infinity seeds: zero gain at every seed of a nonzero G")

    for _ in range(HINF_MAX_ITER):
        if not active:
            break
        for i in active:
            hi[i] = (1.0 + rel_tol / 5.0) * lo[i]
        crossing, omegas = [], []
        for i, c in zip(active, _imag_axis_crossings(st.take(active), [hi[i] for i in active])):
            if c.size == 0:
                out[i] = (hi[i], freq[i])
            else:
                crossing.append(i)
                omegas.append(np.concatenate([c, (c[:-1] + c[1:]) / 2.0]))
        active = []
        for i, (g, w) in zip(crossing, _peak_gains(st, crossing, omegas) if crossing else ()):
            if g > lo[i]:
                lo[i], freq[i] = g, w
                active.append(i)
            else:
                out[i] = _failed(hi[i], lo[i], freq[i], abscissa[i])
    for i in active:
        out[i] = _failed(hi[i], lo[i], freq[i], abscissa[i])
    return out


def _failed(hi: float, lo: float, freq: float, abscissa: float) -> RuntimeError:
    return RuntimeError(
        f"H-infinity iteration failed: level {hi:.6e} still crossed; "
        f"lower bound {lo:.6e} at {freq:.6e} rad/s, abscissa {abscissa:.6e}"
    )


def _raised(result):
    """`result`, or raise it when it is an exception."""
    if isinstance(result, Exception):
        raise result
    return result


def hinf_norm(ss: StateSpace, rel_tol: float = HINF_DEFAULT_REL_TOL) -> tuple[float, float]:
    """(norm, frequency) of G on the imaginary axis: an upper bound on
    sup |G(i w)| and the frequency of the largest gain measured.

    The level-set iteration of Bruinsma & Steinbuch (Systems & Control
    Letters 14, 1990).  The lower bound `lo` starts as the largest gain at
    w = 0, Im lambda(A), +-|lambda(A)| and n multiples of max |lambda(A)|
    beyond it.  Those are n + 1 or more distinct frequencies, and a strictly
    proper G that is not identically zero vanishes at no more than n - 1 of
    them.  Each step tests the level hi = (1 + rel_tol/5) lo with the
    imaginary-axis test of Boyd, Balakrishnan & Kabamba (1989), valid for
    complex state matrices.  No crossing means the gain stays below hi on
    the whole (signed) axis, and hi is returned.  Otherwise `lo` rises to the
    largest gain at the crossings and the midpoints between consecutive
    ones; a step that cannot raise it, or HINF_MAX_ITER steps, raise
    RuntimeError.  Requires `ss.hurwitz`, otherwise the axis supremum is not
    the norm; the seeds come from the spectrum `ss` holds.  This is the
    stack of one of `_hinf_norms`, which `certify_all` runs on many.

    rel_tol below HINF_MIN_REL_TOL = 1e-7 raises ValueError.  Near the peak
    the level-set eigenvalue pair is nearly double, so the float eigen test
    resolves a crossing only to about sqrt(eps) times the matrix scale,
    the order of its own detection tolerance.  Below the floor the iteration
    stalls on physical models: on 300 `random_params` draws times 25 kappa2
    values in [1e10, 1e14] it fails on 4 at 1e-8, 29 at 1e-9 and 152 at
    1e-10, and on none at 1e-7."""
    if not 0 < rel_tol < math.inf:
        raise ValueError(f"rel_tol must be finite and positive, got {rel_tol}")
    if rel_tol < HINF_MIN_REL_TOL:
        raise ValueError(
            f"rel_tol {rel_tol:.3g} is below the resolution floor {HINF_MIN_REL_TOL:g} of the "
            "float level-set test: near the peak its eigenvalue pair is nearly double and "
            "resolves a crossing only to about sqrt(eps) times the matrix scale"
        )
    if not ss.hurwitz:
        raise ValueError("norm undefined: A is not Hurwitz")
    st = _Stack(ss.A[None], ss.B[None], ss.C[None])
    return _raised(_hinf_norms(st, ss.eigenvalues[None], [ss.abscissa], rel_tol)[0])


def _per_model(models, decide) -> list:
    """One result per model, in order: the ValueError that its structural
    violations raise, or what `decide(stack, spectra, gamma_half)` gives
    for it.

    The models of one order n are stacked once: M, N and Etilde are
    validated in one pass (`model._violations`), and the valid slice of the
    same arrays gives the realization that decide runs on, with the spectra
    from one eigvals call.  A sweep's rows share M, Etilde and the sector
    constants of one build (F is affine in the coupling rates), so only N
    differs along such a stack.  A LinAlgError from a stacked LAPACK call
    redoes that batch one model at a time, so that only the models that
    fail alone carry the error."""
    out: list = [None] * len(models)
    orders: dict = {}
    for i, model in enumerate(models):
        orders.setdefault(model.n_modes, []).append(i)

    def run(st, gamma_half):
        try:
            return decide(st, _spectra(st.A), gamma_half)
        except np.linalg.LinAlgError as exc:
            if len(gamma_half) == 1:
                return [exc]
            return [run(st.take([j]), gamma_half[j:j + 1])[0] for j in range(len(gamma_half))]

    for n, rows in orders.items():
        batch = [models[i] for i in rows]
        M, N, Etilde = (np.array([getattr(m, name) for m in batch]) for name in ("M", "N", "Etilde"))
        found = _violations(M, N, Etilde, [(m.gamma, m.delta1, m.delta2) for m in batch])
        valid = []
        for j, (i, violations) in enumerate(zip(rows, found)):
            if violations:
                out[i] = ValueError("model fails structural validation: " + "; ".join(violations))
            else:
                valid.append(j)
        if len(valid) < len(rows):
            M, N, Etilde = M[valid], N[valid], Etilde[valid]
        if valid:
            st = _Stack(*_realization(n, M, N, Etilde))
            for j, result in zip(valid, run(st, [batch[j].gamma / 2.0 for j in valid])):
                out[rows[j]] = result
    return out


def is_certified_all(models) -> list:
    """`is_certified` on every model at once: one verdict per model, in
    order, or the exception `is_certified` raises for it.  One stacked
    spectrum and one stacked level-set test at gamma/2 per order n."""

    def decide(st, spectra, gamma_half):
        hurwitz = spectra[3]
        rows = np.flatnonzero(hurwitz)
        verdicts = [False] * len(gamma_half)
        if rows.size:
            crossings = _imag_axis_crossings(st.take(rows), [gamma_half[i] for i in rows])
            for i, c in zip(rows.tolist(), crossings):
                verdicts[i] = c.size == 0
        return verdicts

    return _per_model(models, decide)


def is_certified(model: SystemModel) -> bool:
    """The verdict alone: F is Hurwitz and the gain of the perturbation
    channel stays strictly below gamma/2 on the whole imaginary axis.

    The second condition is one imaginary-axis eigenvalue test of the
    level-set matrix at gamma/2, the test `hinf_norm` iterates with; no norm
    is computed.  It agrees with `certify(model).certified` except where the
    norm lies within `hinf_norm`'s rel_tol/5 of gamma/2: `certify` then
    refuses, because its upper bound is not below gamma/2, while this test
    decides at gamma/2 itself."""
    return _raised(is_certified_all([model])[0])


def certify_all(models, margin: float = 0.0) -> list:
    """`certify` on every model at once: one StabilityCertificate per model,
    in order, or the exception `certify` raises for it.  The spectra, each
    level-set test and each gain solve are one stacked call across the
    models, and the results are bit for bit those of `certify`."""
    if not 0.0 <= margin < 1.0:
        raise ValueError(f"margin must be finite with 0 <= margin < 1, got {margin}")

    def decide(st, spectra, gamma_half):
        ev, abscissa, tol, hurwitz = spectra
        rows = np.flatnonzero(hurwitz)
        norms = [(math.nan, math.nan)] * len(gamma_half)
        if rows.size:
            found = _hinf_norms(st.take(rows), ev[rows], abscissa[rows], HINF_DEFAULT_REL_TOL)
            for i, result in zip(rows.tolist(), found):
                norms[i] = result
        out = []
        for e, a, t, h, g, result in zip(ev.tolist(), abscissa.tolist(), tol.tolist(),
                                         hurwitz.tolist(), gamma_half, norms):
            if isinstance(result, Exception):
                out.append(result)
                continue
            norm, freq = result
            out.append(StabilityCertificate(
                eigenvalues_F=tuple(e), spectral_abscissa=a, hurwitz=h,
                hinf_norm=float(norm), hinf_freq=float(freq), gamma_half=g,
                certified=h and norm < g * (1.0 - margin),
                hurwitz_tol=t, hinf_tol=HINF_DEFAULT_REL_TOL,
            ))
        return out

    return _per_model(models, decide)


def certify(model: SystemModel, margin: float = 0.0) -> StabilityCertificate:
    """Evaluate the strict bounded-real conditions and issue the verdict.

    certified iff F is Hurwitz and the H-infinity norm of the perturbation
    channel is strictly below gamma/2 (optionally shrunk by `margin`).  The
    tolerances are `StateSpace.hurwitz_tol`, `hinf_norm`'s default rel_tol
    and `validate_model`'s fixed DEFAULT_VALIDATION_TOL; the certificate
    records the first two.  `margin` must be finite with 0 <= margin < 1.
    This is `certify_all` on one model."""
    return _raised(certify_all([model], margin)[0])
