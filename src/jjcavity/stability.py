"""Strict bounded-real certification: F matrix, Hurwitz test, transfer
function, H-infinity norm, and the final certificate."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .model import SystemModel, _encode_complex, j_matrix, sigma_matrix, validate_model

HINF_DEFAULT_REL_TOL = 1e-6
#: level-set iterations before `hinf_norm` gives up; the iteration converges
#: quadratically and needs at most a handful
HINF_MAX_ITER = 30
#: imaginary-axis detection threshold, relative to the max-abs entry of the
#: level-set matrix (scale-free across the model's huge dynamic range)
IMAG_AXIS_REL_TOL = 1e-8


@dataclass(frozen=True)
class StateSpace:
    """Strictly proper single-channel system G(s) = C (sI - A)^-1 B, with
    the spectrum of A computed once and the one Hurwitz rule applied to it:
    abscissa < -hurwitz_tol = -1e-6 eps max(1, max |A_ij|)."""

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
        object.__setattr__(self, "eigenvalues", np.linalg.eigvals(A))
        object.__setattr__(self, "abscissa", float(np.max(self.eigenvalues.real)))
        object.__setattr__(self, "hurwitz_tol", 1e-6 * max(1.0, float(np.max(np.abs(A)))) * np.finfo(float).eps)
        object.__setattr__(self, "hurwitz", bool(self.abscissa < -self.hurwitz_tol))


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


def build_F(model: SystemModel) -> np.ndarray:
    """F = -i J M - (1/2) J N^dag J N."""
    J = j_matrix(model.n_modes)
    return -1j * (J @ model.M) - 0.5 * (J @ model.N.conj().T @ J @ model.N)


def state_space(model: SystemModel) -> StateSpace:
    """The transfer-function realization of the perturbation channel:
    A = F, B = J Sigma Etilde^T, C = Etilde# Sigma, D = 0."""
    J = j_matrix(model.n_modes)
    sig = sigma_matrix(model.n_modes)
    F = build_F(model)
    B = J @ sig @ model.Etilde.T
    C = model.Etilde.conj() @ sig
    return StateSpace(A=F, B=B, C=C)


def spectral_abscissa(F: np.ndarray) -> float:
    return float(np.max(np.linalg.eigvals(np.asarray(F, dtype=complex)).real))


def is_hurwitz(F: np.ndarray) -> bool:
    """The Hurwitz verdict of `StateSpace` on the square matrix F."""
    n = np.shape(F)[0]
    return StateSpace(A=F, B=np.zeros(n), C=np.zeros(n)).hurwitz


def transfer_response(ss: StateSpace, s) -> np.ndarray:
    """G at every point of the 1-D array `s` (the frequency response when
    s = i w), from one stacked linear solve on the (k, n, n) array of
    sI - A (never explicit inversion).  A point that is (numerically) an
    eigenvalue of A fails the whole solve with numpy's LinAlgError."""
    s = np.asarray(s, dtype=complex).reshape(-1)
    n = ss.A.shape[0]
    lhs = s[:, None, None] * np.eye(n, dtype=complex) - ss.A
    x = np.linalg.solve(lhs, np.broadcast_to(ss.B, (s.size, n, 1)))
    return (ss.C @ x)[:, 0, 0]


def transfer_eval(ss: StateSpace, s: complex) -> complex:
    """G(s) at one point: the one-point case of `transfer_response`."""
    try:
        return complex(transfer_response(ss, s)[0])
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"s = {s} is (numerically) an eigenvalue of A: {exc}"
        ) from exc


def _level_set_matrix(ss: StateSpace, level: float) -> np.ndarray:
    A, B, C = ss.A, ss.B, ss.C
    n = A.shape[0]
    H = np.empty((2 * n, 2 * n), dtype=complex)
    H[:n, :n] = A
    H[:n, n:] = (B @ B.conj().T) / level
    H[n:, :n] = -(C.conj().T @ C) / level
    H[n:, n:] = -A.conj().T
    return H


def _imag_axis_crossings(ss: StateSpace, level: float) -> np.ndarray:
    """Frequencies where some eigenvalue of the level-set matrix sits on the
    imaginary axis; empty iff the gain stays strictly below `level`."""
    H = _level_set_matrix(ss, level)
    ev = np.linalg.eigvals(H)
    tol = IMAG_AXIS_REL_TOL * max(1.0, float(np.max(np.abs(H))))
    on_axis = ev[np.abs(ev.real) <= tol]
    return np.unique(on_axis.imag)


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
    ones; the gains come from one stacked solve each time.
    Requires `ss.hurwitz`, otherwise the axis supremum is not the norm; the
    seeds come from the spectrum `ss` holds, with no eigvals call here."""
    if not 0 < rel_tol < math.inf:
        raise ValueError(f"rel_tol must be finite and positive, got {rel_tol}")
    if not ss.hurwitz:
        raise ValueError("norm undefined: A is not Hurwitz")
    ev = ss.eigenvalues

    # the state matrix has complex coefficients, so |G(i w)| is not symmetric
    # in w and the seeds run over the whole signed axis
    radii = np.abs(ev)
    extra = radii.max() * np.arange(2, ev.size + 2)
    omegas = np.unique(np.concatenate([[0.0], ev.imag, radii, -radii, extra]))
    gains = np.abs(transfer_response(ss, 1j * omegas))
    k = int(np.argmax(gains))
    lo, freq = float(gains[k]), float(omegas[k])
    if lo == 0.0:
        # G == 0 iff every Markov parameter C A^k B, k < n, is zero
        if not any(np.any(ss.C @ np.linalg.matrix_power(ss.A, i) @ ss.B) for i in range(ev.size)):
            return 0.0, 0.0
        raise RuntimeError("H-infinity seeds: zero gain at every seed of a nonzero G")

    for _ in range(HINF_MAX_ITER):
        hi = (1.0 + rel_tol / 5.0) * lo
        crossings = _imag_axis_crossings(ss, hi)
        if crossings.size == 0:
            return hi, freq
        omegas = np.concatenate([crossings, (crossings[:-1] + crossings[1:]) / 2.0])
        gains = np.abs(transfer_response(ss, 1j * omegas))
        k = int(np.argmax(gains))
        if not gains[k] > lo:
            break
        lo, freq = float(gains[k]), float(omegas[k])
    raise RuntimeError(
        f"H-infinity iteration failed: level {hi:.6e} still crossed; "
        f"lower bound {lo:.6e} at {freq:.6e} rad/s, abscissa {ss.abscissa:.6e}"
    )


def _validated_state_space(model: SystemModel) -> StateSpace:
    """The realization every verdict starts from, after structural validation."""
    violations = validate_model(model)
    if violations:
        raise ValueError("model fails structural validation: " + "; ".join(violations))
    return state_space(model)


def is_certified(model: SystemModel) -> bool:
    """The verdict alone: F is Hurwitz and the gain of the perturbation
    channel stays strictly below gamma/2 on the whole imaginary axis.

    The second condition is one imaginary-axis eigenvalue test of the
    level-set matrix at gamma/2, the test `hinf_norm` iterates with; no norm
    is computed.  It agrees with `certify(model).certified` except where the
    norm lies within `hinf_norm`'s rel_tol/5 of gamma/2: `certify` then
    refuses, because its upper bound is not below gamma/2, while this test
    decides at gamma/2 itself."""
    ss = _validated_state_space(model)
    return ss.hurwitz and _imag_axis_crossings(ss, model.gamma / 2.0).size == 0


def certify(model: SystemModel, margin: float = 0.0) -> StabilityCertificate:
    """Evaluate the strict bounded-real conditions and issue the verdict.

    certified iff F is Hurwitz and the H-infinity norm of the perturbation
    channel is strictly below gamma/2 (optionally shrunk by `margin`).  The
    tolerances are `StateSpace.hurwitz_tol`, `hinf_norm`'s default rel_tol
    and `validate_model`'s fixed DEFAULT_VALIDATION_TOL; the certificate
    records the first two.  `margin` must be finite with 0 <= margin < 1."""
    if not 0.0 <= margin < 1.0:
        raise ValueError(f"margin must be finite with 0 <= margin < 1, got {margin}")
    ss = _validated_state_space(model)
    gamma_half = model.gamma / 2.0

    if ss.hurwitz:
        norm, freq = hinf_norm(ss)
        certified = norm < gamma_half * (1.0 - margin)
    else:
        norm, freq = float("nan"), float("nan")
        certified = False

    return StabilityCertificate(
        eigenvalues_F=tuple(complex(z) for z in ss.eigenvalues),
        spectral_abscissa=ss.abscissa,
        hurwitz=ss.hurwitz,
        hinf_norm=float(norm),
        hinf_freq=float(freq),
        gamma_half=gamma_half,
        certified=bool(certified),
        hurwitz_tol=ss.hurwitz_tol,
        hinf_tol=HINF_DEFAULT_REL_TOL,
    )
