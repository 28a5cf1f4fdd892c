"""Deterministic mean-moment dynamics of the nominal linear system.

Integrates d<v>/dt = F <v> with a classic 4th-order explicit scheme and
fits an exponential envelope to the squared norm, cross-checking the
Hurwitz conclusion against the exponential decay shape (noise-driven
steady offsets are out of scope; the noise covariance is unspecified)."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

#: explicit-scheme stability guard: dt * max-abs(F) must stay below this
MAX_STEP_FRACTION = 0.1
#: relative floor (vs the initial norm) below which samples are dropped
#: from the decay fit
FIT_FLOOR_REL = 1e-12
#: samples filled per stacked matmul: the step-matrix powers P^1..P^k are
#: built once and each block is P^j v for j = 1..k from the block's start
STEP_BLOCK = 64


@dataclass(frozen=True)
class Trajectory:
    t: np.ndarray          # shape (k,)
    v: np.ndarray          # shape (k, 2n) complex

    @property
    def norm_sq(self) -> np.ndarray:
        return np.sum(np.abs(self.v) ** 2, axis=1)


@dataclass(frozen=True)
class DecayEstimate:
    c1: float              # amplitude factor, relative to the initial norm^2
    c2: float              # decay rate of norm^2, 1/s
    fit_residual: float
    t_window: tuple[float, float]

    def to_json(self) -> str:
        return json.dumps(asdict(self))


def default_timescales(F: np.ndarray) -> tuple[float, float]:
    """(dt, t_end) resolving the fastest entry scale and covering ten slow
    time constants."""
    from .stability import spectral_abscissa

    scale = float(np.max(np.abs(F)))
    if scale == 0.0:
        raise ValueError("F is zero; no intrinsic timescale")
    dt = 0.05 / scale
    absc = spectral_abscissa(F)
    t_end = 10.0 / abs(absc) if absc != 0.0 else 100.0 * dt
    return dt, t_end


def integrate_mean(F: np.ndarray, v0: np.ndarray, t_end: float, dt: float) -> Trajectory:
    """Classic 4th-order explicit integration of dv/dt = F v, sampled every
    dt.  On a linear system the four stages are one step matrix: v <- P v,
    so a block of `STEP_BLOCK` samples is one stacked product P^j v."""
    F = np.asarray(F, dtype=complex)
    v0 = np.asarray(v0, dtype=complex).reshape(-1)
    if F.shape != (v0.size, v0.size):
        raise ValueError(f"F shape {F.shape} incompatible with v0 of size {v0.size}")
    if not 0 < dt <= t_end < np.inf:
        raise ValueError(f"need finite 0 < dt <= t_end, got dt={dt}, t_end={t_end}")
    scale = float(np.max(np.abs(F)))
    if dt * scale > MAX_STEP_FRACTION:
        raise ValueError(
            f"dt * max-abs(F) = {dt * scale:.3e} exceeds {MAX_STEP_FRACTION}; "
            f"use dt <= {MAX_STEP_FRACTION / scale:.3e}"
        )
    n_steps = int(round(t_end / dt))
    n = v0.size
    eye, A = np.eye(n), dt * F
    P = eye + A @ (eye + A / 2 @ (eye + A / 3 @ (eye + A / 4)))
    block = min(STEP_BLOCK, n_steps)
    powers = np.empty((block, n, n), dtype=complex)
    powers[0] = P
    have = 1
    while have < block:
        # P^(j+1) P^have = P^(have+j+1): doubles the powers built so far
        m = min(have, block - have)
        powers[have:have + m] = powers[:m] @ powers[have - 1]
        have += m
    out = np.empty((n_steps + 1, n), dtype=complex)
    out[0] = v0
    for k in range(0, n_steps, block):
        m = min(block, n_steps - k)
        out[k + 1:k + 1 + m] = powers[:m] @ out[k]
    t = dt * np.arange(n_steps + 1)
    return Trajectory(t=t, v=out)


def estimate_decay(traj: Trajectory) -> DecayEstimate:
    """Least-squares line fit of log norm^2 over the window above the
    numerical floor; c2 = -slope, c1 = exp(intercept) / norm^2(0)."""
    ns = traj.norm_sq
    if ns[0] == 0.0 or not np.any(ns > 0.0):
        raise ValueError("trajectory norm is identically zero; nothing to fit")
    keep = ns > FIT_FLOOR_REL * ns[0]
    # truncate at the first sample that hits the floor (or exact zero)
    if not keep.all():
        keep[int(np.argmin(keep)):] = False
    t, y = traj.t[keep], np.log(ns[keep])
    if t.size < 10:
        raise ValueError(f"need at least 10 usable samples, got {t.size}")
    coeffs, res, *_ = np.polyfit(t, y, 1, full=True)
    slope, intercept = coeffs
    residual = float(res[0]) if res.size else 0.0
    return DecayEstimate(
        c1=float(np.exp(intercept) / ns[0]),
        c2=float(-slope),
        fit_residual=residual,
        t_window=(float(t[0]), float(t[-1])),
    )


def slow_mode_vector(F: np.ndarray) -> np.ndarray:
    """Unit eigenvector of F for the eigenvalue with the largest real part."""
    F = np.asarray(F, dtype=complex)
    w, vecs = np.linalg.eig(F)
    k = int(np.argmax(w.real))
    v = vecs[:, k]
    return v / np.linalg.norm(v)
