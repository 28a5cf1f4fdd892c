"""Strict bounded-real certification: F matrix, Hurwitz test, transfer
function, H-infinity norm, and the final certificate."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .model import SystemModel, _encode_complex, j_matrix, sigma_matrix, validate_model

#: grid used for the lower-bound phase of the norm computation, rad/s
HINF_GRID_LO = 1.0
HINF_GRID_HI = 1e15
HINF_GRID_POINTS = 600
HINF_DEFAULT_REL_TOL = 1e-6
#: imaginary-axis detection threshold, relative to the max-abs entry of the
#: level-set matrix (scale-free across the model's huge dynamic range)
IMAG_AXIS_REL_TOL = 1e-8


@dataclass(frozen=True)
class StateSpace:
    """Strictly proper single-channel system G(s) = C (sI - A)^-1 B."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.A, dtype=complex)
        object.__setattr__(self, "A", A)
        n = A.shape[0]
        if A.shape != (n, n):
            raise ValueError(f"A must be square, got {A.shape}")
        object.__setattr__(self, "B", np.asarray(self.B, dtype=complex).reshape(n, 1))
        object.__setattr__(self, "C", np.asarray(self.C, dtype=complex).reshape(1, n))


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


def default_hurwitz_tol(F: np.ndarray) -> float:
    scale = max(1.0, float(np.max(np.abs(F)))) if np.asarray(F).size else 1.0
    return 1e-6 * scale * np.finfo(float).eps


def is_hurwitz(F: np.ndarray, tol: float | None = None) -> bool:
    if tol is None:
        tol = default_hurwitz_tol(F)
    return spectral_abscissa(F) < -tol


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


def _gain_on_axis(ss: StateSpace, omegas: np.ndarray) -> np.ndarray:
    return np.abs(transfer_response(ss, 1j * omegas))


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


def _seed_frequencies(ss: StateSpace) -> np.ndarray:
    # the state matrix has complex coefficients, so |G(i w)| is not symmetric
    # in w and the supremum runs over the whole signed axis
    grid = np.logspace(np.log10(HINF_GRID_LO), np.log10(HINF_GRID_HI), HINF_GRID_POINTS)
    ev = np.linalg.eigvals(ss.A)
    seeds = ev.imag
    return np.unique(np.concatenate([[0.0], grid, -grid, seeds[seeds != 0.0]]))


def hinf_norm(ss: StateSpace, rel_tol: float = HINF_DEFAULT_REL_TOL) -> tuple[float, float]:
    """(norm, achieving frequency) of G on the imaginary axis.

    Phase 1 takes a coarse lower bound from a signed log frequency grid
    augmented with the resonance frequencies Im lambda(A) (narrow peaks sit
    many decades below the decay rates for this model, so a bare grid can
    miss them), all gains from one stacked solve.  Phase 2 bisects the level
    using the purely-imaginary-eigenvalue test of the level-set matrix, which
    is valid for complex state matrices.
    Requires A Hurwitz, otherwise the axis supremum is not the norm."""
    if not 0 < rel_tol < math.inf:
        raise ValueError(f"rel_tol must be finite and positive, got {rel_tol}")
    if not is_hurwitz(ss.A):
        raise ValueError("norm undefined: A is not Hurwitz")

    omegas = _seed_frequencies(ss)
    gains = _gain_on_axis(ss, omegas)
    k = int(np.argmax(gains))
    lo, best_freq = float(gains[k]), float(omegas[k])
    if lo == 0.0:
        # zero transfer function (e.g. Etilde = 0)
        return 0.0, 0.0

    # bracket from above: grow until no imaginary-axis crossing
    hi = 2.0 * lo
    for _ in range(200):
        if _imag_axis_crossings(ss, hi).size == 0:
            break
        lo = hi
        hi *= 2.0
    else:
        raise RuntimeError(
            f"H-infinity upper bracket failed: level {hi:.6e} still crossed; "
            f"lower bound {lo:.6e}, abscissa {spectral_abscissa(ss.A):.6e}"
        )

    while hi - lo > rel_tol * lo:
        mid = math.sqrt(lo * hi)
        crossings = _imag_axis_crossings(ss, mid)
        if crossings.size:
            lo = mid
            # refine the achieving frequency from the crossing band
            cg = _gain_on_axis(ss, crossings)
            j = int(np.argmax(cg))
            if cg[j] >= lo:
                best_freq = float(crossings[j])
        else:
            hi = mid

    return math.sqrt(lo * hi), best_freq


def _hurwitz_realization(model: SystemModel):
    """The steps every verdict starts with: structural validation, the
    state-space realization and the Hurwitz test of F at the default
    tolerance.  Returns (ss, eigenvalues of F, abscissa, tolerance, hurwitz)."""
    violations = validate_model(model)
    if violations:
        raise ValueError("model fails structural validation: " + "; ".join(violations))
    ss = state_space(model)
    ev = np.linalg.eigvals(ss.A)
    absc = float(np.max(ev.real))
    htol = default_hurwitz_tol(ss.A)
    return ss, ev, absc, htol, absc < -htol


def is_certified(model: SystemModel) -> bool:
    """The verdict alone: F is Hurwitz and the gain of the perturbation
    channel stays strictly below gamma/2 on the whole imaginary axis.

    The second condition is one imaginary-axis eigenvalue test of the
    level-set matrix at gamma/2, the test `hinf_norm` bisects with; no norm
    is computed.  It agrees with `certify(model).certified` except where the
    norm lies within `certify`'s bisection tolerance of gamma/2, where this
    test decides at gamma/2 itself rather than at the bisection midpoint."""
    ss, _, _, _, hurwitz = _hurwitz_realization(model)
    return bool(hurwitz) and _imag_axis_crossings(ss, model.gamma / 2.0).size == 0


def certify(model: SystemModel, margin: float = 0.0) -> StabilityCertificate:
    """Evaluate the strict bounded-real conditions and issue the verdict.

    certified iff F is Hurwitz and the H-infinity norm of the perturbation
    channel is strictly below gamma/2 (optionally shrunk by `margin`).  The
    tolerances are the defaults of `default_hurwitz_tol`, `hinf_norm` and
    `validate_model`; the certificate records the first two.  `margin` must
    be finite with 0 <= margin < 1."""
    if not 0.0 <= margin < 1.0:
        raise ValueError(f"margin must be finite with 0 <= margin < 1, got {margin}")
    ss, ev, absc, htol, hurwitz = _hurwitz_realization(model)
    gamma_half = model.gamma / 2.0

    if hurwitz:
        norm, freq = hinf_norm(ss)
        certified = norm < gamma_half * (1.0 - margin)
    else:
        norm, freq = float("nan"), float("nan")
        certified = False

    return StabilityCertificate(
        eigenvalues_F=tuple(complex(z) for z in ev),
        spectral_abscissa=absc,
        hurwitz=bool(hurwitz),
        hinf_norm=float(norm),
        hinf_freq=float(freq),
        gamma_half=gamma_half,
        certified=bool(certified),
        hurwitz_tol=htol,
        hinf_tol=HINF_DEFAULT_REL_TOL,
    )
