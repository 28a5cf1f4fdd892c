"""Strict bounded-real certification: F matrix, Hurwitz test, transfer
function, H-infinity norm, and the final certificate.

The Hurwitz test, the norm search and the verdict run on a stack of
models of one order at once, each step one stacked LAPACK call; a single
model is the stack of one.  Every spectrum, Hurwitz verdict and spectral
abscissa comes from `_spectra`, computed where it is used."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .model import SystemModel, _encode_complex, _invalid, j_matrix, sigma_matrix, validate_model

HINF_DEFAULT_REL_TOL = 1e-6
#: the tightest rel_tol `hinf_norm` accepts: near the peak the level-set
#: eigenvalue pair is nearly double, and the float eigen test resolves its
#: crossings only to about sqrt(eps) times the matrix scale
HINF_MIN_REL_TOL = 1e-7
#: level-set iterations before `hinf_norm` gives up; the iteration converges
#: quadratically and needs at most a handful
HINF_MAX_ITER = 30
#: Newton steps per polish of a candidate peak (see `_polish`): a sharp
#: peak needs two or three, a broad skewed one (large kappa2) up to six
HINF_POLISH_STEPS = 6
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
        # from a shallow dict: asdict deep-copies the eigenvalue tuple
        d = dict(vars(self))
        d["eigenvalues_F"] = [[z.real, z.imag] for z in self.eigenvalues_F]
        return json.dumps(d, default=_encode_complex)


def _realization(n_modes: int, M: np.ndarray, N: np.ndarray, Etilde: np.ndarray) -> StateSpace:
    """The realization (A, B, C) of the perturbation channel of one model,
    or of each model of a stack of one order n:
    A = F = -i J M - (1/2) J N^dag J N, B = J Sigma Etilde^T,
    C = Etilde# Sigma, D = 0."""
    J = j_matrix(n_modes)
    sig = sigma_matrix(n_modes)
    F = -1j * (J @ M) - 0.5 * (J @ N.conj().swapaxes(-1, -2) @ J @ N)
    return StateSpace(F, J @ sig @ Etilde.swapaxes(-1, -2), Etilde.conj() @ sig)


def build_F(model: SystemModel) -> np.ndarray:
    """F = -i J M - (1/2) J N^dag J N."""
    return _realization(model.n_modes, model.M, model.N, model.Etilde).A


def state_space(model: SystemModel) -> StateSpace:
    """The transfer-function realization of the perturbation channel."""
    return _realization(model.n_modes, model.M, model.N, model.Etilde)


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


def transfer_response(ss, s) -> np.ndarray:
    """G at every point of the array `s` (the frequency response when
    s = i w), from one stacked linear solve on the array of sI - A (never
    explicit inversion); a scalar s gives shape (1,).  `ss` is a
    StateSpace whose A, B and C broadcast against the points: one system
    over any array s, or, with A[:, None], B[:, None] and C[:, None] of a
    stack of k systems and a (k, m) array s, each system at its own m
    points.  A point that is (numerically) an eigenvalue of A fails the
    whole solve with numpy's LinAlgError."""
    s = np.atleast_1d(np.asarray(s, dtype=complex))
    lhs = s[..., None, None] * np.eye(ss.A.shape[-1], dtype=complex) - ss.A
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


def _unique(x: np.ndarray) -> np.ndarray:
    """np.unique of a finite 1-D array, without its per-call overhead: the
    same sort, keeping the first of each run of equal values."""
    x = np.sort(x)
    keep = np.empty(x.shape, dtype=bool)
    keep[:1] = True
    np.not_equal(x[1:], x[:-1], out=keep[1:])
    return x[keep]


def _seed_peaks(st: StateSpace, eigenvalues: np.ndarray) -> tuple[list, list]:
    """(largest |G(i w)|, its w) of each system of `st` over its seeds:
    w = 0, Im lambda(A), +-|lambda(A)|, n multiples of max |lambda(A)|
    beyond it, and the midpoint of each consecutive pair of those, from one
    stacked solve over all of them."""
    k, n = eigenvalues.shape
    # the state matrix has complex coefficients, so |G(i w)| is not symmetric
    # in w and the seeds run over the whole signed axis
    radii = np.abs(eigenvalues)
    extra = radii.max(axis=1, keepdims=True) * np.arange(2, n + 2)
    w = np.sort(np.concatenate([np.zeros((k, 1)), eigenvalues.imag, radii, -radii, extra], axis=1))
    w = np.concatenate([w, (w[:, :-1] + w[:, 1:]) / 2.0], axis=1)
    systems = StateSpace(st.A[:, None], st.B[:, None], st.C[:, None])  # each over its row of w
    gains = np.abs(transfer_response(systems, 1j * w))
    rows, best = np.arange(k), gains.argmax(axis=1)
    return gains[rows, best].tolist(), w[rows, best].tolist()


def _imag_axis_crossings(st: StateSpace, levels) -> list[np.ndarray]:
    """For each system of `st`, the frequencies where some eigenvalue of its
    level-set matrix at its level L, [[A, B B^H / L], [-C^H C / L, -A^H]],
    sits on the imaginary axis; empty iff its gain stays strictly below L.
    One eigvals call on the (k, 2n, 2n) stack."""
    A, B, C = st.A, st.B, st.C
    k, n = A.shape[:2]
    level = np.asarray(levels, dtype=float)[:, None, None]
    H = np.empty((k, 2 * n, 2 * n), dtype=complex)
    H[:, :n, :n] = A
    H[:, :n, n:] = (B @ B.conj().transpose(0, 2, 1)) / level
    H[:, n:, :n] = -(C.conj().transpose(0, 2, 1) @ C) / level
    H[:, n:, n:] = -A.conj().transpose(0, 2, 1)
    ev = np.linalg.eigvals(H)
    tol = IMAG_AXIS_REL_TOL * np.maximum(1.0, np.abs(H).max(axis=(1, 2)))
    on_axis = np.abs(ev.real) <= tol[:, None]
    none = np.empty(0)
    return [_unique(e.imag[m]) if hit else none
            for e, m, hit in zip(ev, on_axis, on_axis.any(axis=1).tolist())]


def _polish(st: StateSpace, rhs: np.ndarray, rows: list, omegas: list, floor: list,
            rel_tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each system st[rows[j]]: the largest gain at its candidate
    frequencies omegas[j], moved onto the local maximum of
    phi(w) = |G(i w)|^2 by Newton steps.  Returns arrays (gain, w, raised);
    raised[j] says whether that largest candidate gain exceeded floor[j],
    and a system where it did not takes no step.  `rhs` stacks
    [B, B, C^T] of every system of `st`.

    With R = (i w I - A)^-1: G = C R B, G' = -i C R^2 B and
    G'' = -2 C R^3 B = -2 (C R)(R^2 B).  Each measurement is one stacked
    solve of [lhs, lhs^2, lhs^T] against [B, B, C^T], lhs = i w I - A: the
    first over every candidate, the later ones over the systems still
    stepping.  With a = C R^2 B / G and b = C R^3 B / G the Newton step is
    Im a / (2 Re b - |a|^2), and Im a times it is the rise of phi it
    promises, relative to phi.  Where phi is not concave (a dip, or a flank
    past its inflection) Newton would climb down, and the step goes instead
    to the frequency of the pole that a one-pole G = r / (i w - p) with the
    same a and b would have: -Im(a / b).  A step is kept only where the
    gain measured at its end rose, so every gain returned is a measured
    one.  A system stops at the first step that does not raise its gain,
    once a Newton step promises a rise below rel_tol/1000 (far inside the
    gap rel_tol/5 that the level-set test at hi = (1 + rel_tol/5) lo
    leaves), or after HINF_POLISH_STEPS steps.  Which of these it meets
    depends on its own matrices alone, so its result is the same alone and
    in a stack."""
    n = st.A.shape[-1]
    sizes = [w.size for w in omegas]
    w = np.concatenate(omegas)
    if len(rows) == w.size == len(st.A):  # one candidate per system: the stack itself
        A, C = st.A, st.C
    else:
        take = np.repeat(rows, sizes)  # the system of each candidate
        A, C, rhs = st.A[take], st.C[take], rhs[take]
    # [lhs, lhs^2, lhs^T]: off the diagonal lhs is -A and lhs^T is -A^T;
    # each step writes the diagonal i w - A_jj of both, and lhs^2
    lhs = np.empty((w.size, 3, n, n), dtype=complex)
    lhs[:, 0], lhs[:, 2] = -A, -A.swapaxes(1, 2)
    diag = np.diagonal(A, axis1=1, axis2=2)[:, None, :]

    def views(lhs):
        """lhs, lhs^2 and the diagonals of lhs and lhs^T, as views of lhs"""
        return lhs[:, 0], lhs[:, 1], lhs.reshape(len(lhs), 3, n * n)[:, ::2, ::n + 1]

    lhs0, lhs1, diagonals = views(lhs)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for step in range(HINF_POLISH_STEPS + 1):
            np.subtract(1j * w[:, None, None], diag, out=diagonals)
            np.matmul(lhs0, lhs0, out=lhs1)
            x = np.linalg.solve(lhs, rhs)[..., 0]
            g = (C @ x[:, 0, :, None])[:, 0, 0]
            gain = np.abs(g)
            if step:
                go = gain > g_best
                g_best, w_best = np.where(go, gain, g_best), np.where(go, w, w_best)
                if step == HINF_POLISH_STEPS:
                    break
            else:
                if w.size > len(rows):  # each system's best candidate, the first of equal gains
                    best, start = [], 0
                    for size in sizes:
                        best.append(start + int(gain[start:start + size].argmax()))
                        start += size
                    diag, C, rhs, lhs, x, g, gain, w = (
                        v[best] for v in (diag, C, rhs, lhs, x, g, gain, w))
                    lhs0, lhs1, diagonals = views(lhs)
                raised = gain > np.asarray(floor)
                go, at = raised, np.arange(len(rows))  # the systems still stepping
                g_best = out_g = gain
                w_best = out_w = w
            a, b = (x[:, :2] @ x[:, 2, :, None])[..., 0].T / g
            curv = (2.0 * b - a * a.conj()).real
            delta = a.imag / curv
            flat = curv <= 0.0
            if flat.any():  # to the pole of the one-pole G = r / (i w - p): a / b = i w - p
                delta = np.where(flat, -(a / b).imag, delta)
            go = go & ((a.imag * delta > 1e-3 * rel_tol) | flat) & np.isfinite(delta)
            if not go.all():
                out_g[at], out_w[at] = g_best, w_best
                if not go.any():
                    break
                at, diag, C, rhs, lhs = at[go], diag[go], C[go], rhs[go], lhs[go]
                g_best, w_best, w, delta = g_best[go], w_best[go], w[go], delta[go]
                lhs0, lhs1, diagonals = views(lhs)
            w = w + delta
    out_g[at], out_w[at] = g_best, w_best
    return out_g, out_w, raised


def _hinf_norms(st: StateSpace, eigenvalues: np.ndarray, abscissa: np.ndarray,
                rel_tol: float) -> list:
    """`hinf_norm` on every system of a stack of Hurwitz systems at once
    (`_certificates` runs it for `certify`, a stack of one, and for the
    sweeps): one (norm, frequency) per system, or the RuntimeError that ends
    its iteration.  Each step polishes the candidate peak of every system still
    crossing (`_polish`), then runs one stacked level-set test over them."""
    k, n = eigenvalues.shape
    lo, freq = _seed_peaks(st, eigenvalues)
    rhs = np.stack([st.B, st.B, st.C.swapaxes(1, 2)], axis=1)
    hi = [math.nan] * k
    out: list = [None] * k
    rows = []
    for i in range(k):
        if lo[i] != 0.0:
            rows.append(i)
        elif not any(np.any(st.C[i] @ np.linalg.matrix_power(st.A[i], p) @ st.B[i]) for p in range(n)):
            # G == 0 iff every Markov parameter C A^p B, p < n, is zero
            out[i] = (0.0, 0.0)
        else:
            out[i] = RuntimeError("H-infinity seeds: zero gain at every seed of a nonzero G")
    # the first polish starts at each system's best seed; a later one at the
    # best of its crossings and their midpoints, which must beat lo
    omegas = [np.array([freq[i]]) for i in rows]
    floor = [-math.inf] * len(rows)
    for _ in range(HINF_MAX_ITER):
        if not rows:
            break
        testing = []
        polished = _polish(st, rhs, rows, omegas, floor, rel_tol)
        for i, g, w, raised in zip(rows, *(v.tolist() for v in polished)):
            if raised:
                lo[i], freq[i], hi[i] = g, w, (1.0 + rel_tol / 5.0) * g
                testing.append(i)
            else:
                out[i] = _failed(hi[i], lo[i], freq[i], abscissa[i])
        rows, omegas = [], []
        crossings = _imag_axis_crossings(st.take(testing), [hi[i] for i in testing]) if testing else ()
        for i, c in zip(testing, crossings):
            if c.size == 0:
                out[i] = (hi[i], freq[i])
            else:
                rows.append(i)
                omegas.append(np.concatenate([c, (c[:-1] + c[1:]) / 2.0]))
        floor = [lo[i] for i in rows]
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


def hinf_norm(ss: StateSpace, rel_tol: float = HINF_DEFAULT_REL_TOL) -> tuple[float, float]:
    """(norm, frequency) of G on the imaginary axis: an upper bound on
    sup |G(i w)| and the frequency of the largest gain measured.

    The level-set iteration of Bruinsma & Steinbuch (Systems & Control
    Letters 14, 1990), with Newton-polished peaks.  The lower bound `lo`
    starts as the largest gain at w = 0, Im lambda(A), +-|lambda(A)|, n
    multiples of max |lambda(A)| beyond it, and the midpoints between
    consecutive ones.  Those are n + 1 or more distinct frequencies, and a
    strictly proper G that is not identically zero vanishes at no more than
    n - 1 of them.  Before each test, Newton steps on |G(i w)|^2 move `lo`
    and its frequency onto the local maximum they sit by (`_polish`; where
    |G|^2 is not concave, a step to the frequency of the locally dominant
    pole instead).  A step is kept only where the gain measured at its end
    rose, so `lo` is always a measured |G(i w)|: a lower bound on the norm.
    Each step then tests the level hi = (1 + rel_tol/5) lo with the
    imaginary-axis test of Boyd, Balakrishnan & Kabamba (1989), valid for
    complex state matrices.  No crossing means the gain stays below hi on
    the whole (signed) axis, and hi is returned: the bound comes from that
    test alone, and the polish only makes the first test more likely to be
    the last.  Otherwise the largest gain at the crossings and the
    midpoints between consecutive ones is polished and becomes `lo`; a step
    where it does not exceed `lo`, or HINF_MAX_ITER steps, raise
    RuntimeError.  `ss` is one system; a stack raises ValueError.  Its A
    must pass the Hurwitz rule of `_spectra` (`is_hurwitz`), otherwise the
    axis supremum is not the norm and ValueError is raised; the seeds come
    from that same spectrum.  This is the stack of one of `_hinf_norms`,
    which `certify` and the sweeps run on their stacks.

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
    st = StateSpace(_one_matrix(ss.A, "hinf_norm")[None], ss.B[None], ss.C[None])
    ev, abscissa, _, hurwitz = _spectra(st.A)
    if not hurwitz[0]:
        raise ValueError("norm undefined: A is not Hurwitz")
    return _raised(_hinf_norms(st, ev, abscissa, rel_tol)[0])


def _decided(st: StateSpace, gamma_half: list, decide) -> list:
    """`decide(st, spectra, gamma_half)` on the stack `st`, its spectra from
    one eigvals call: one result per system.  A LinAlgError from a stacked
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
    violations = validate_model(model)
    if violations:
        raise _invalid(violations)
    return _realization(model.n_modes, model.M[None], model.N[None], model.Etilde[None])


def _verdicts(st: StateSpace, spectra, gamma_half: list) -> list[bool]:
    """The `_decided` decision of `is_certified`: one verdict per system of
    `st`, from one stacked level-set test at gamma/2 over its Hurwitz
    systems."""
    rows = np.flatnonzero(spectra[3])  # the Hurwitz systems
    verdicts = [False] * len(gamma_half)
    if rows.size:
        crossings = _imag_axis_crossings(st.take(rows), [gamma_half[i] for i in rows])
        for i, c in zip(rows.tolist(), crossings):
            verdicts[i] = c.size == 0
    return verdicts


def is_certified(model: SystemModel) -> bool:
    """The verdict alone: F is Hurwitz and the gain of the perturbation
    channel stays strictly below gamma/2 on the whole imaginary axis.

    The second condition is one imaginary-axis eigenvalue test of the
    level-set matrix at gamma/2, the test `hinf_norm` iterates with; no norm
    is computed.  It agrees with `certify(model).certified` except where the
    norm lies within `hinf_norm`'s rel_tol/5 of gamma/2: `certify` then
    refuses, because its upper bound is not below gamma/2, while this test
    decides at gamma/2 itself."""
    return _raised(_decided(_stack_of_one(model), [model.gamma / 2.0], _verdicts)[0])


def _certificates(st: StateSpace, spectra, gamma_half: list, margin: float = 0.0) -> list:
    """The `_decided` decision of `certify`: one StabilityCertificate per
    system of `st`, or the RuntimeError that ended its norm."""
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
