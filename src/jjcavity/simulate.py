"""Deterministic mean-moment dynamics of the nominal linear system.

Integrates d<v>/dt = F <v> with a classic 4th-order explicit scheme and
fits an exponential envelope to the squared norm, cross-checking the
Hurwitz conclusion against the exponential decay shape (noise-driven
steady offsets are out of scope; the noise covariance is unspecified)."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .stability import spectral_abscissa

#: the explicit scheme's step-size guard (see `integrate_mean`)
MAX_STEP_FRACTION = 0.1
#: relative floor (vs the initial norm) below which samples are dropped
#: from the decay fit
FIT_FLOOR_REL = 1e-12
#: samples filled per matrix-vector product (see `integrate_mean`)
STEP_BLOCK = 256


@dataclass(frozen=True)
class Trajectory:
    t: np.ndarray          # shape (k,)
    v: np.ndarray          # shape (k, 2n) complex

    @property
    def norm_sq(self) -> np.ndarray:
        # sum of re^2 + im^2 along each row, read as (re, im) float pairs:
        # one pass with no temporaries, where np.sum over the short last
        # axis of re^2 + im^2 costs several times more
        x = np.ascontiguousarray(self.v, dtype=complex).view(float)
        return np.einsum("ij,ij->i", x, x)


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
    scale = float(np.max(np.abs(F)))
    if scale == 0.0:
        raise ValueError("F is zero; no intrinsic timescale")
    dt = 0.05 / scale
    absc = spectral_abscissa(F)
    t_end = 10.0 / abs(absc) if absc != 0.0 else 100.0 * dt
    return dt, t_end


def integrate_mean(F: np.ndarray, v0: np.ndarray, t_end: float, dt: float) -> Trajectory:
    """Classic 4th-order explicit (RK4) integration of dv/dt = F v, sampled
    every dt, with the step-size guard dt max |F_ij| <= MAX_STEP_FRACTION
    = 0.1.  A NaN or infinite entry of F or v0 raises ValueError before any
    step.

    On a linear system the four stages compose to one step matrix
    P = I + h F (I + h F/2 (I + h F/3 (I + h F/4))), h = dt, so a block of
    `STEP_BLOCK` samples is P^j v, j = 1..STEP_BLOCK, from the block's first
    state v: one (STEP_BLOCK n x n) matrix-vector product with the powers
    stacked by row, which are built once by doubling.  On the physical F
    and the random Hurwitz F of the tests this matches the stage-by-stage
    loop within 1e-10 relative per sample.  That is not a general bound:
    the two round differently, and a strongly non-normal F amplifies the
    difference.  On 40 draws F = Q (D + T) Q^H (n = 2-6, Q random unitary,
    Re D in [-2, -0.2], T strictly upper Gaussian times U(1, 30),
    dt = 0.05 / max |F_ij|, 100-20 000 steps) they differed by up to 2e-5
    relative per sample with a real D, and 2e-3 with Im D in [-2, 2],
    inside the decay fit's window."""
    F = np.asarray(F, dtype=complex)
    v0 = np.asarray(v0, dtype=complex).reshape(-1)
    if F.shape != (v0.size, v0.size):
        raise ValueError(f"F shape {F.shape} incompatible with v0 of size {v0.size}")
    for name, x in (("F", F), ("v0", v0)):
        if not np.isfinite(x).all():
            raise ValueError(f"{name} has a non-finite entry")
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
    # P^1..P^block stacked by row: P^j is rows (j - 1) n to j n - 1
    powers = np.empty((block * n, n), dtype=complex)
    powers[:n] = P
    have = 1
    while have < block:
        # P^(j+1) P^have = P^(have+j+1): doubles the powers built so far in
        # one (m n x n) by (n x n) product
        m = min(have, block - have)
        powers[have * n:(have + m) * n] = powers[:m * n] @ powers[(have - 1) * n:have * n]
        have += m
    out = np.empty((n_steps + 1, n), dtype=complex)
    out[0] = v0
    flat = out.reshape(-1)  # a view: each block's product is written in place
    for k in range(0, n_steps, block):
        m = min(block, n_steps - k)
        np.matmul(powers[:m * n], out[k], out=flat[(k + 1) * n:(k + 1 + m) * n])
    t = dt * np.arange(n_steps + 1)
    return Trajectory(t=t, v=out)


def estimate_decay(traj: Trajectory) -> DecayEstimate:
    """Least-squares line fit of log norm^2 over the window above the
    numerical floor; c2 = -slope, c1 = exp(intercept) / norm^2(0).  The line
    is the closed form in centred time tc = t - mean(t): slope =
    sum(tc (y - mean(y))) / sum(tc^2), and fit_residual is the sum of the
    squared residuals."""
    ns = traj.norm_sq
    if traj.t.shape != ns.shape:
        raise ValueError(f"need one time per sample: t shape {traj.t.shape}, {ns.size} samples")
    if ns[0] == 0.0 or not np.any(ns > 0.0):
        raise ValueError("trajectory norm is identically zero; nothing to fit")
    keep = ns > FIT_FLOOR_REL * ns[0]
    # the window ends before the first sample that hits the floor (or exact
    # zero): slices, where boolean masks would copy t and norm^2
    stop = len(ns) if keep.all() else int(np.argmin(keep))
    t, y = traj.t[:stop], np.log(ns[:stop])
    if t.size < 10:
        raise ValueError(f"need at least 10 usable samples, got {t.size}")
    t_mean, y_mean = t.mean(), y.mean()
    tc, yc = t - t_mean, y - y_mean
    spread = tc @ tc
    if spread == 0.0:
        raise ValueError("need at least two distinct sample times")
    slope = (tc @ yc) / spread
    r = yc - slope * tc
    return DecayEstimate(
        c1=float(np.exp(y_mean - slope * t_mean) / ns[0]),
        c2=float(-slope),
        fit_residual=float(r @ r),
        t_window=(float(t[0]), float(t[-1])),
    )


def slow_mode_vector(F: np.ndarray) -> np.ndarray:
    """Unit eigenvector of F for the eigenvalue with the largest real part."""
    F = np.asarray(F, dtype=complex)
    w, vecs = np.linalg.eig(F)
    k = int(np.argmax(w.real))
    v = vecs[:, k]
    return v / np.linalg.norm(v)
