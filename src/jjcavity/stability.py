"""Strict bounded-real certification: F matrix, Hurwitz test, transfer
function, H-infinity norm, and the final certificate.

The Hurwitz test, the norm search and the verdict run on a stack of
models of one order at once (`_decided`), each step one stacked LAPACK
call.  Every Hurwitz verdict and spectral abscissa comes from `_spectra`,
computed where it is used, and so do the resonance rows of
`sweep.bode_csv`; `simulate.slow_mode_vector` takes its own spectrum."""

from __future__ import annotations

import json
import math
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .model import SystemModel, _validated, j_matrix, sigma_matrix

HINF_DEFAULT_REL_TOL = 1e-6
#: the tightest rel_tol `hinf_norm` accepts; its docstring gives the reason
HINF_MIN_REL_TOL = 1e-7
#: level-set iterations before `hinf_norm` gives up; the iteration converges
#: quadratically and needs at most a handful
HINF_MAX_ITER = 30
#: Newton steps per polish of a candidate peak (see `_polish`): a sharp
#: peak needs two or three, a broad skewed one (large kappa2) up to six
HINF_POLISH_STEPS = 6
#: imaginary-axis detection threshold, relative to the scale of the
#: level-set matrix that `_imag_axis_crossings` defines
IMAG_AXIS_REL_TOL = 1e-8

_EPS = np.finfo(float).eps


def _spectra(A: np.ndarray):
    """(eigenvalues, abscissa, hurwitz_tol, hurwitz) of A, or of each matrix
    of a (k, n, n) stack, from one eigvals call, with the one Hurwitz rule:
    abscissa < -hurwitz_tol = -1e-6 eps max |A_ij|, relative with no absolute
    floor, so a change of time unit does not change the verdict."""
    ev = np.linalg.eigvals(A)
    abscissa = ev.real.max(axis=-1)
    tol = 1e-6 * np.abs(A).max(axis=(-2, -1)) * _EPS
    return ev, abscissa, tol, abscissa < -tol


@dataclass(frozen=True)
class StateSpace:
    """Strictly proper single-channel system G(s) = C (sI - A)^-1 B, or a
    stack of such systems of one order n along leading axes: A (..., n, n),
    B (..., n, 1), C (..., 1, n).  B and C may come loose, (..., n) or
    flat; they are reshaped to those shapes."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.A, dtype=complex)
        if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
            raise ValueError(f"A must be square, got {A.shape}")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", np.asarray(self.B, dtype=complex).reshape(A.shape[:-1] + (1,)))
        object.__setattr__(self, "C", np.asarray(self.C, dtype=complex).reshape(A.shape[:-2] + (1, A.shape[-1])))

    def take(self, rows) -> "StateSpace":
        """The systems at the ascending, distinct indices `rows`."""
        if len(rows) == len(self.A):
            return self
        return StateSpace(self.A[rows], self.B[rows], self.C[rows])


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
        # the JSON of json.dumps(asdict(self), default=_encode_complex),
        # from a shallow dict (asdict deep-copies the eigenvalue tuple) of
        # floats, bools and lists, so json's shared encoder needs no default
        d = dict(vars(self))
        d["eigenvalues_F"] = [[z.real, z.imag] for z in self.eigenvalues_F]
        return json.dumps(d)


@lru_cache(maxsize=16)
def _constants(n_modes: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """J, Sigma and J Sigma of order n_modes, read-only, since every
    realization of that order shares them."""
    J = j_matrix(n_modes)
    sig = sigma_matrix(n_modes)
    out = (J, sig, J @ sig)
    for a in out:
        a.flags.writeable = False
    return out


def _uncoupled(M: np.ndarray, Etilde: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(P, B, C) = (-i J M, J Sigma Etilde^T, Etilde# Sigma): the parts of
    the realization that the coupling matrix N does not touch, of one model
    or of each model of a stack of one order."""
    J, sig, J_sig = _constants(M.shape[-1] // 2)
    return -1j * (J @ M), J_sig @ Etilde.swapaxes(-1, -2), Etilde.conj() @ sig


def _realization(M: np.ndarray, N: np.ndarray, Etilde: np.ndarray) -> StateSpace:
    """The realization (A, B, C) of the perturbation channel of one model,
    or of each model of a stack of one order, n modes from the 2n x 2n M:
    A = F = P - (1/2) J N^dag J N, with P, B = J Sigma Etilde^T and
    C = Etilde# Sigma from `_uncoupled`, D = 0."""
    P, B, C = _uncoupled(M, Etilde)
    J = _constants(M.shape[-1] // 2)[0]
    return StateSpace(P - 0.5 * (J @ N.conj().swapaxes(-1, -2) @ J @ N), B, C)


def build_F(model: SystemModel) -> np.ndarray:
    """F = -i J M - (1/2) J N^dag J N."""
    return _realization(model.M, model.N, model.Etilde).A


def state_space(model: SystemModel) -> StateSpace:
    """The transfer-function realization of the perturbation channel."""
    return _realization(model.M, model.N, model.Etilde)


def _one_matrix(A, caller: str) -> np.ndarray:
    """A as a complex array, or a ValueError naming its shape when it is not
    one square matrix (a stack goes to the stacked core, not here)."""
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"{caller} takes one system: need one n x n matrix, got shape {A.shape}")
    return A


def spectral_abscissa(F: np.ndarray) -> float:
    """The largest real part of an eigenvalue of the square matrix F."""
    return float(_spectra(_one_matrix(F, "spectral_abscissa"))[1])


def is_hurwitz(F: np.ndarray) -> bool:
    """The Hurwitz verdict of `_spectra` on the square matrix F."""
    return bool(_spectra(_one_matrix(F, "is_hurwitz"))[3])


@lru_cache(maxsize=16)
def _identity(n: int) -> np.ndarray:
    """The complex n x n identity, shared by every `transfer_response` call
    and so read-only (a broadcast view): a fresh np.eye costs as much as a
    one-system call's product s I."""
    return np.broadcast_to(np.eye(n, dtype=complex), (n, n))


def transfer_response(ss, s) -> np.ndarray:
    """G at every point of the array `s` (the frequency response when
    s = i w), from one stacked linear solve on the array of sI - A (never
    explicit inversion); a scalar s gives shape (1,).  `ss` is a
    StateSpace, or any object with its complex arrays A, B and C, and they
    broadcast against the points: one system over any array s, or, with
    A[:, None], B[:, None] and C[:, None] of a stack of k systems and a
    (k, m) array s, each system at its own m points.  A point that is
    (numerically) an eigenvalue of A fails the whole solve with numpy's
    LinAlgError.

    The (..., n, n) array of sI - A is allocated once, at the shape that s
    and A broadcast to (which may be A's, as for a stack with one point):
    s I is written into it and A subtracted in place, the two operations
    of s I - A in their order, so every bit and signed zero is the same.
    A second full-size temporary would cost 338 KB at the (40, 33, 4, 4)
    seed stack of a 40-point sweep, and a pass over it."""
    s = np.asarray(s, dtype=complex)
    s = s.reshape(s.shape + (1, 1) if s.ndim else (1, 1, 1))
    lhs = np.multiply(s, _identity(ss.A.shape[-1]), out=np.empty(np.broadcast(s, ss.A).shape, dtype=complex))
    lhs -= ss.A
    # B at the ndim of lhs: numpy < 2 reads a b of one dimension less as a
    # stack of vectors
    x = np.linalg.solve(lhs, ss.B[(None,) * (lhs.ndim - ss.B.ndim)])
    return (ss.C @ x)[..., 0, 0]


def transfer_eval(ss: StateSpace, s: complex) -> complex:
    """G(s) at one point of one system: the one-point case of
    `transfer_response`."""
    _one_matrix(ss.A, "transfer_eval")
    try:
        return complex(transfer_response(ss, s)[0])
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"s = {s} is (numerically) an eigenvalue of A: {exc}"
        ) from exc


#: the A, B and C that `_row_gains` hands `transfer_response`: views of a
#: StateSpace's arrays, so not built or checked again
_Views = namedtuple("_Views", "A B C")


def _row_gains(st: StateSpace, w: np.ndarray) -> np.ndarray:
    """|G(i w)| of each system of the stack `st` at each frequency of its
    own row of the (k, m) array `w`, from one stacked `transfer_response`."""
    return np.abs(transfer_response(_Views(st.A[:, None], st.B[:, None], st.C[:, None]), 1j * w))


def _row_peaks(st: StateSpace, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(largest gain, its frequency) on each row of `w`, measured by
    `_row_gains`; the first of equal gains, so a row padded with repeats of
    its own entries gives what the row alone gives."""
    gains = _row_gains(st, w)
    rows, best = np.arange(len(w)), gains.argmax(axis=1)
    return gains[rows, best], w[rows, best]


def _seeds(eigenvalues: np.ndarray) -> np.ndarray:
    """The seed frequencies of each system of a stack, one row each, from
    its spectrum: w = 0, Im lambda(A), +-|lambda(A)|, n multiples of
    max |lambda(A)| beyond it, and the midpoint of each consecutive pair of
    those.  Those are n + 1 or more distinct frequencies, and a strictly
    proper G that is not identically zero vanishes at no more than n - 1 of
    them."""
    k, n = eigenvalues.shape
    # the state matrix has complex coefficients, so |G(i w)| is not symmetric
    # in w and the seeds run over the whole signed axis
    radii = np.abs(eigenvalues)
    extra = radii.max(axis=1, keepdims=True) * np.arange(2, n + 2)
    w = np.sort(np.concatenate([np.zeros((k, 1)), eigenvalues.imag, radii, -radii, extra], axis=1))
    return np.concatenate([w, (w[:, :-1] + w[:, 1:]) / 2.0], axis=1)


#: the crossings of every row without an on-axis eigenvalue, one array
#: shared by all of them and so read-only (a broadcast view)
_NO_CROSSINGS = np.broadcast_to(np.empty(0), (0,))


def _imag_axis_crossings(st: StateSpace, levels) -> list[np.ndarray]:
    """For each system of `st`, the sorted frequencies where some eigenvalue
    of its level-set matrix at its level L, [[A, B B^H / L], [-C^H C / L,
    -A^H]], sits on the imaginary axis; empty iff its gain stays strictly
    below L.  One eigvals call on the (k, 2n, 2n) stack.

    An eigenvalue is on the axis when its real part is at most
    IMAG_AXIS_REL_TOL times max(max |A|, max |B| max |C| / L): the largest
    entry of the level-set matrix once its coupling blocks are split evenly,
    since max |B B^H| = max |B|^2 and max |C^H C| = max |C|^2.  Rewriting G
    as B c, C / c leaves that scale unchanged, and a change of time unit
    (A w, B w, C) scales it by w with the eigenvalues.

    Only the rows with an on-axis eigenvalue are sorted and indexed; every
    other row gets the one shared, read-only empty array `_NO_CROSSINGS`
    (on the bench's sweep pools, 1 to 8 of the 40 rows of a 40-point
    sweep's first test have a crossing)."""
    A, B, C = st.A, st.B, st.C
    k, n = A.shape[:2]
    level = np.asarray(levels, dtype=float)[:, None, None]
    H = np.empty((k, 2 * n, 2 * n), dtype=complex)
    H[:, :n, :n] = A
    H[:, :n, n:] = (B @ B.conj().transpose(0, 2, 1)) / level
    H[:, n:, :n] = -(C.conj().transpose(0, 2, 1) @ C) / level
    H[:, n:, n:] = -A.conj().transpose(0, 2, 1)
    ev = np.linalg.eigvals(H)
    coupling = np.abs(B).max(axis=(1, 2)) * np.abs(C).max(axis=(1, 2)) / level[:, 0, 0]
    tol = IMAG_AXIS_REL_TOL * np.maximum(np.abs(A).max(axis=(1, 2)), coupling)
    on_axis = np.abs(ev.real) <= tol[:, None]
    hits = on_axis.any(axis=1).tolist()
    return [np.sort(ev[i].imag[on_axis[i]]) if hit else _NO_CROSSINGS for i, hit in enumerate(hits)]


def _polish(st: StateSpace, w: np.ndarray, rel_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Arrays (gain, w): each system of `st` from its own start frequency
    w, moved onto the local maximum of phi(w) = |G(i w)|^2 by Newton steps.

    With R = (i w I - A)^-1: G = C R B, G' = -i C R^2 B and
    G'' = -2 C R^3 B = -2 (C R)(R^2 B).  Each measurement is one stacked
    solve of [lhs, lhs^2, lhs^T] against [B, B, C^T], lhs = i w I - A, over
    the systems still stepping; at the starts it gives the gain that
    `_row_gains` measures there, bit for bit.  With a = C R^2 B / G and
    b = C R^3 B / G the Newton step is Im a / (2 Re b - |a|^2), and Im a
    times it is the rise of phi it promises, relative to phi.  Where phi is
    not concave (a dip, or a flank past its inflection) Newton would climb
    down, and the step goes instead to the frequency of the pole that a
    one-pole G = r / (i w - p) with the same a and b would have:
    -Im(a / b).  A step is kept only where the gain measured at its end
    rose, so every gain returned is a measured one.  A system stops at the
    first step that does not raise its gain, once a Newton step promises a
    rise below rel_tol/1000 (far inside the gap rel_tol/5 that the
    level-set test at `_proof_level` leaves), or after
    HINF_POLISH_STEPS steps.  Which of these it meets depends on its own
    matrices alone, so its result is the same alone and in a stack.  The
    solve against lhs^2 squares the condition number of lhs: on a strongly
    non-normal A its LU can meet an exact zero pivot, and numpy's
    LinAlgError is raised (`_hinf_norms` and `sweep._peak_at` name it)."""
    A, C = st.A, st.C
    k, n = A.shape[:2]
    rhs = np.empty((k, 3, n, 1), dtype=complex)
    rhs[:, 0] = rhs[:, 1] = st.B
    rhs[:, 2] = C.swapaxes(1, 2)
    w = np.array(w, dtype=float)
    # [lhs, lhs^2, lhs^T]: off the diagonal lhs is -A and lhs^T is -A^T;
    # each step writes the diagonal i w - A_jj of both, and lhs^2, through
    # views of the current lhs, built once per compaction.  np.empty and
    # the boolean-mask copies of the compaction keep lhs C-contiguous, so
    # its reshape is a view.
    def views(lhs):  # (the diagonals of lhs and lhs^T, lhs, lhs^2)
        return lhs.reshape(len(lhs), 3, n * n)[:, ::2, ::n + 1], lhs[:, 0], lhs[:, 1]

    lhs = np.empty((k, 3, n, n), dtype=complex)
    lhs[:, 0], lhs[:, 2] = -A, -A.swapaxes(1, 2)
    on_diag, lhs1, lhs2 = views(lhs)
    diag = np.diagonal(A, axis1=1, axis2=2)[:, None, :]
    # g_best, w_best: the best (gain, w) of the systems still stepping,
    # rows `at` of the results, which take them at each compaction and at
    # the end
    at, gains, freqs = np.arange(k), np.empty(k), np.empty(k)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for step in range(HINF_POLISH_STEPS + 1):
            np.subtract(1j * w[:, None, None], diag, out=on_diag)
            np.matmul(lhs1, lhs1, out=lhs2)
            x = np.linalg.solve(lhs, rhs)[..., 0]
            g = (C @ x[:, 0, :, None])[:, 0, 0]
            gain = np.abs(g)
            if step:
                go = gain > g_best
                np.copyto(g_best, gain, where=go)
                np.copyto(w_best, w, where=go)
            else:
                go, g_best, w_best = True, gain, w
            if step == HINF_POLISH_STEPS:
                break
            a, b = (x[:, :2] @ x[:, 2, :, None])[..., 0].T / g
            curv = (2.0 * b - a * a.conj()).real
            delta = a.imag / curv
            flat = curv <= 0.0
            # any() and all() of a list of at most k flags: a numpy reduction
            # costs more than the list
            if any(flat.tolist()):  # to the pole of the one-pole G = r / (i w - p): a / b = i w - p
                delta = np.where(flat, -(a / b).imag, delta)
            go = go & ((a.imag * delta > 1e-3 * rel_tol) | flat) & np.isfinite(delta)
            stepping = go.tolist()
            if not all(stepping):
                if not any(stepping):
                    break
                gains[at], freqs[at] = g_best, w_best
                at, g_best, w_best = at[go], g_best[go], w_best[go]
                diag, C, rhs, lhs = diag[go], C[go], rhs[go], lhs[go]
                on_diag, lhs1, lhs2 = views(lhs)
                w, delta = w[go], delta[go]
            w = w + delta
    gains[at], freqs[at] = g_best, w_best
    return gains, freqs


def _proof_level(lo, rel_tol: float):
    """hi = (1 + rel_tol/5) lo, for a measured gain `lo`: a level-set test
    at hi that finds no crossing proves the norm lies in [lo, hi].  The
    norm search ends with this test, and `_norm_freq` checks a tracked peak
    with it."""
    return (1.0 + rel_tol / 5.0) * lo


def _hinf_norms(st: StateSpace, spectra, rel_tol: float) -> list:
    """`hinf_norm` on every system of the stack `st` at once, given its
    `_spectra` (`_certificates` runs it for `certify`, a stack of one, and
    for the sweeps): one (norm, frequency) per Hurwitz system, or the
    RuntimeError that ends its iteration, and (nan, nan) per system that is
    not Hurwitz, whose norm is undefined; those never reach a solve.

    The level-set iteration of Bruinsma & Steinbuch on the Hurwitz systems,
    in rounds of four steps on the systems still searching; round 0 is the
    seed round.  (1) One pick: one `_row_peaks` over all of them, among
    their `_seeds` in round 0 and afterwards among the crossings of their
    last test and the midpoints between consecutive ones, each list padded
    with repeats of its own entries to the longest.  (2) One filter: a
    start whose gain does not exceed the system's `lo` ends it with
    `_failed`.  In round 0 the seed's gain and frequency become `lo` and
    its frequency, and the gain must exceed 0: a NaN fails, and a gain of
    exactly 0 ends the system with (0, 0) when G == 0 (every Markov
    parameter C A^p B, p < n, is zero), otherwise with a RuntimeError.
    (3) One `_polish` of the starts left, whose measured gain is the new
    `lo`, a lower bound on the norm.  (4) One stacked level-set test at
    hi = `_proof_level(lo, rel_tol)`: a system with no crossing ends with
    (hi, its polished frequency), where the gain on 90 closed-form draws of
    the tests is within 3e-10 of the peak, and the next round's candidates
    of the others are built.  So the bound comes from that test alone: the
    polish only makes the first test more often the last (at the paper
    point it is the only one).  No pick follows the HINF_MAX_ITER-th test,
    and a system still crossing fails with the level, `lo` and frequency of
    its last polish.  A LinAlgError in a `_polish` solve ends a stack of
    one with a RuntimeError naming the start frequency, the last level (NaN
    in round 0) and `lo`; a larger stack raises it, so that `_decided`
    redoes each system alone.  The state is kept in Python lists, one entry
    per system: numpy calls go only to the stacked arithmetic."""
    ev, abscissa, _, hurwitz = spectra
    k, n = ev.shape
    out: list = [(math.nan, math.nan)] * k
    lo, freq, hi = [math.nan] * k, [math.nan] * k, [math.nan] * k
    rows = hurwitz.nonzero()[0].tolist()  # the systems still searching
    w = _seeds(ev[rows])
    for step in range(HINF_MAX_ITER):
        raised, starts = [], []
        for i, b, f in zip(rows, *(v.tolist() for v in _row_peaks(st.take(rows), w))):
            if not step:  # the seed gain is the first lower bound
                lo[i], freq[i] = b, f
            if b > (lo[i] if step else 0.0):
                raised.append(i)
                starts.append(f)
            elif step or b != 0.0:  # no start above lo, or a NaN seed gain
                out[i] = _failed(hi[i], lo[i], freq[i], abscissa[i])
            elif any(np.any(st.C[i] @ np.linalg.matrix_power(st.A[i], p) @ st.B[i]) for p in range(n)):
                out[i] = RuntimeError("H-infinity seeds: zero gain at every seed of a nonzero G")
            else:  # G == 0 iff every Markov parameter C A^p B, p < n, is zero
                out[i] = (0.0, 0.0)
        rows = raised
        if not rows:
            break
        sub = st.take(rows)
        try:
            polished = _polish(sub, starts, rel_tol)
        except np.linalg.LinAlgError as exc:
            if k > 1:
                raise  # `_decided` redoes the stack one system at a time
            return [RuntimeError(
                f"H-infinity polish failed: {exc} in the solve from {starts[0]:.6e} rad/s; "
                f"level {hi[0]:.6e}, lower bound {lo[0]:.6e}, abscissa {abscissa[0]:.6e}"
            )]
        levels = _proof_level(polished[0], rel_tol)
        for i, g, f, h in zip(rows, *(v.tolist() for v in (*polished, levels))):
            lo[i], freq[i], hi[i] = g, f, h
        crossed, candidates = [], []
        for i, c in zip(rows, _imag_axis_crossings(sub, levels)):
            if c.size:
                crossed.append(i)
                candidates.append(np.concatenate([c, (c[:-1] + c[1:]) / 2.0]))
            else:
                out[i] = (hi[i], freq[i])
        rows = crossed
        if not rows:
            break
        size = max(c.size for c in candidates)
        w = np.array([c if c.size == size else np.resize(c, size) for c in candidates])
    for i in rows:
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


def _seed_start(st: StateSpace) -> float:
    """The `_row_peaks` pick among the `_seeds` of the spectrum of the one
    system of `st`: the start `certify`'s norm search takes first."""
    return float(_row_peaks(st, _seeds(_spectra(st.A)[0]))[1][0])


def _norm_freq(st, gain: float) -> float | None:
    """None when `gain`, measured on the one system of `st`, lies within
    HINF_DEFAULT_REL_TOL/5 of its norm: the level-set test at
    `_proof_level(gain, HINF_DEFAULT_REL_TOL)` finds no crossing, the test
    `certify`'s norm search ends with.  Otherwise the gain sits on a lower,
    local peak, and this is the frequency of the norm from one full
    `_hinf_norms`."""
    if not _imag_axis_crossings(st, [_proof_level(gain, HINF_DEFAULT_REL_TOL)])[0].size:
        return None
    return _raised(_hinf_norms(st, _spectra(st.A), HINF_DEFAULT_REL_TOL)[0])[1]


def hinf_norm(ss: StateSpace, rel_tol: float = HINF_DEFAULT_REL_TOL) -> tuple[float, float]:
    """(norm, frequency) of G on the imaginary axis: an upper bound on
    sup |G(i w)|, the `_proof_level` of the gain measured at the returned
    frequency.

    The level-set iteration of Bruinsma & Steinbuch (Systems & Control
    Letters 14, 1990) with Newton-polished peaks and the imaginary-axis
    test of Boyd, Balakrishnan & Kabamba (1989), valid for complex state
    matrices: the stack of one of `_hinf_norms`, which `certify` and the
    sweeps run on their stacks.  `ss` is one system (a stack raises
    ValueError) with finite A, B and C (a NaN or infinite entry raises
    ValueError naming it, before any LAPACK call), and its A must pass the
    Hurwitz rule of `_spectra` (`is_hurwitz`), otherwise the axis supremum
    is not the norm and ValueError is raised.  A G that is identically zero
    gives (0, 0).  A start whose gain does not exceed the lower bound, a
    level still crossed after HINF_MAX_ITER tests, or a singular solve in a
    polish raises RuntimeError naming the last level, the lower bound and
    its frequency (for the polish, the start it polished).

    `ss` is searched as given.  The axis test's scale rule
    (`_imag_axis_crossings`) leaves the norm unchanged under B c, C / c
    and a change of time unit; a badly scaled A itself, as from a diagonal
    similarity T A T^-1 with T spread over many decades, can still defeat
    the test.  Nor is the bound rigorous on a strongly non-normal A: eigvals
    can move a level-set eigenvalue that lies on the axis off it by far
    more than the tolerance, and a level that the gain crosses then passes
    (on random A = Q (D + T) Q^H, T strictly upper and about 1e3 times the
    spectrum, 27 of 194 bounds fell below a 40-digit gain, by up to 44%).

    rel_tol below HINF_MIN_REL_TOL = 1e-7 raises ValueError.  Near the peak
    the level-set eigenvalue pair is nearly double, so the float eigen test
    resolves a crossing only to about sqrt(eps) times the matrix scale,
    the order of its own detection tolerance.  Below the floor the iteration
    stalls on physical models: on 300 `random_params` draws (seed 5) times
    25 kappa2 values in [1e10, 1e14] it fails on 4 at 1e-8, 26 at 1e-9 and
    147 at 1e-10, and on none at 1e-7 or at the default 1e-6."""
    if not 0 < rel_tol < math.inf:
        raise ValueError(f"rel_tol must be finite and positive, got {rel_tol}")
    if rel_tol < HINF_MIN_REL_TOL:
        raise ValueError(
            f"rel_tol {rel_tol:.3g} is below the resolution floor {HINF_MIN_REL_TOL:g} of the "
            "float level-set test: near the peak its eigenvalue pair is nearly double and "
            "resolves a crossing only to about sqrt(eps) times the matrix scale"
        )
    st = StateSpace(_one_matrix(ss.A, "hinf_norm")[None], ss.B[None], ss.C[None])
    for name in "ABC":
        if not np.isfinite(getattr(st, name)).all():
            raise ValueError(f"hinf_norm takes a finite system: {name} has a non-finite entry")
    spectra = _spectra(st.A)
    if not spectra[3][0]:
        raise ValueError("norm undefined: A is not Hurwitz")
    return _raised(_hinf_norms(st, spectra, rel_tol)[0])


def _decided(st: StateSpace, gamma_half: list, decide) -> list:
    """`decide(st, spectra, gamma_half)` on the stack `st`, its spectra from
    one eigvals call: one result per system, the core that `certify` and
    `is_certified` (each on a stack of one) and the sweeps decide with.
    LAPACK factors each matrix of a stack on its own, so each result is bit
    for bit the one its system gets alone.  A LinAlgError from a stacked
    LAPACK call redoes the stack one system at a time, so that only the
    systems that fail alone carry the error."""
    try:
        return decide(st, _spectra(st.A), gamma_half)
    except np.linalg.LinAlgError as exc:
        if len(gamma_half) == 1:
            return [exc]
        return [_decided(st.take([j]), gamma_half[j:j + 1], decide)[0] for j in range(len(gamma_half))]


def _stack_of_one(model: SystemModel) -> StateSpace:
    """The realization of `model` as a stack of one system, for
    `_decided`; a model with structural violations raises their error."""
    m = _validated(model)
    return _realization(m.M[None], m.N[None], m.Etilde[None])


def _verdicts(st: StateSpace, spectra, gamma_half: list) -> list[bool]:
    """The `_decided` decision of `is_certified`: one verdict per system of
    `st`.  A system that is not Hurwitz is refused.  So is a Hurwitz system
    whose gain reaches gamma/2 at one of the frequencies Im lambda(F) of
    its own spectrum, measured for all of them in one stacked solve: a
    measured gain is a lower bound on the norm, and those frequencies are
    `certify`'s seeds too (`_seeds`), so `certify` refuses it as well.
    A NaN gain refutes nothing, nor does a LinAlgError in that solve.  The
    Hurwitz systems left take one stacked level-set test at gamma/2."""
    ev, _, _, hurwitz = spectra
    half = np.asarray(gamma_half)
    rows = np.flatnonzero(hurwitz)
    try:  # each system at its own n frequencies
        gains = _row_gains(st.take(rows), ev[rows].imag)
    except np.linalg.LinAlgError:
        pass
    else:
        rows = rows[~(gains >= half[rows, None]).any(axis=1)]
    verdicts = [False] * len(gamma_half)
    for i, c in zip(rows.tolist(), _imag_axis_crossings(st.take(rows), half[rows])):
        verdicts[i] = c.size == 0
    return verdicts


def is_certified(model: SystemModel) -> bool:
    """The verdict alone: F is Hurwitz and the gain of the perturbation
    channel stays strictly below gamma/2 on the whole imaginary axis.

    No norm is computed: after `certify`'s validation and Hurwitz test, the
    verdict is a refusal by a measured gain, or one imaginary-axis test of
    the level-set matrix at gamma/2 (`_verdicts`).  It agrees with
    `certify(model).certified` except where the norm lies within
    `hinf_norm`'s rel_tol/5 of gamma/2: `certify` then refuses, because its
    upper bound is not below gamma/2, while the level-set test decides at
    gamma/2 itself."""
    return _raised(_decided(_stack_of_one(model), [model.gamma / 2.0], _verdicts)[0])


def _certificates(st: StateSpace, spectra, gamma_half: list, margin: float = 0.0) -> list:
    """The `_decided` decision of `certify`: one StabilityCertificate per
    system of `st`, or the RuntimeError that ended its norm."""
    ev, abscissa, tol, hurwitz = spectra
    out = []
    for e, a, t, h, g, result in zip(ev.tolist(), abscissa.tolist(), tol.tolist(), hurwitz.tolist(),
                                     gamma_half, _hinf_norms(st, spectra, HINF_DEFAULT_REL_TOL)):
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


def certify(model: SystemModel, margin: float = 0.0) -> StabilityCertificate:
    """Evaluate the strict bounded-real conditions and issue the verdict.

    certified iff F is Hurwitz and the H-infinity norm of the perturbation
    channel is strictly below gamma/2 (optionally shrunk by `margin`).  The
    tolerances are the Hurwitz tolerance of `_spectra`, `hinf_norm`'s
    default rel_tol and `validate_model`'s fixed DEFAULT_VALIDATION_TOL; the
    certificate records the first two.  `margin` must be finite with 0 <= margin < 1."""
    if not 0.0 <= margin < 1.0:
        raise ValueError(f"margin must be finite with 0 <= margin < 1, got {margin}")
    decide = partial(_certificates, margin=margin)
    return _raised(_decided(_stack_of_one(model), [model.gamma / 2.0], decide)[0])
