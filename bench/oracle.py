"""Correctness gate, run outside the timed region.

The transfer function is rebuilt here from the model matrices with code
that shares nothing with ``jjcavity.stability``.  The eigenvector
partial-fraction expansion cannot serve as the reference: the junction
phase has no stiffness, so F carries a (numerically) defective pair, the
eigenvector matrix has cond ~ 1e16, and at the paper point that expansion
is 16% off.  The gate instead expands G(s) = n(s) / d(s) with the
Faddeev-LeVerrier recursion, which needs no eigenvectors and agrees with a
50-digit solve to about 2e-14 relative on this model family.

Each check returns a list of failure messages; an empty list passes.
"""

from __future__ import annotations

import functools
import json
import math

import numpy as np

import jjcavity as jc

from workloads import BODE_HI, BODE_LO, BODE_POINTS, KAPPA2_HI, KAPPA2_LO, SWEEP_KAPPA1, SWEEP_KAPPA2

PAPER_NORM = 5.5554e-13
PAPER_NORM_REL = 1e-3
PAPER_THRESHOLD = (2.0e12, 2.4e12)
#: the certified norm is sqrt(lo * hi) of a 1e-6 bisection bracket
NORM_REL_TOL = 1e-5
#: the reported peak frequency lags the bisection: |G(i w*)| sits up to
#: 2.5e-4 below the norm on the drawn inputs
PEAK_FREQ_REL_TOL = 2e-3
PEAK_GRID_LO, PEAK_GRID_HI, PEAK_GRID_POINTS = 6.0, 15.0, 4000
PEAK_CANDIDATES = 4
BODE_REL_TOL = 1e-9
DECAY_REL_TOL = 1e-6
THRESHOLD_REL_TOL = 1e-3
NEAR_GAMMA_HALF = 0.05


def realization(model: jc.SystemModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(F, B, C) of G(s) = C (sI - F)^-1 B, from the model's matrices."""
    n = model.n_modes
    J = np.diag(np.r_[np.ones(n), -np.ones(n)]).astype(complex)
    swap = np.roll(np.eye(2 * n), n, axis=1).astype(complex)
    F = -1j * J @ model.M - 0.5 * J @ model.N.conj().T @ J @ model.N
    B = (J @ swap @ model.Etilde.T).ravel()
    C = (model.Etilde.conj() @ swap).ravel()
    return F, B, C


def _rational(model: jc.SystemModel) -> tuple[list, list]:
    """Coefficients of n(s) and d(s) in G(s) = n(s) / d(s), highest first,
    from the Faddeev-LeVerrier recursion."""
    F, B, C = realization(model)
    n = F.shape[0]
    I = np.eye(n, dtype=complex)
    Mk = I
    num, den = [], [1.0 + 0j]
    for k in range(1, n + 1):
        if k > 1:
            Mk = F @ Mk + den[-1] * I
        num.append(C @ Mk @ B)
        den.append(-np.trace(F @ Mk) / k)
    return num, den


def gain(model: jc.SystemModel, s) -> np.ndarray:
    """G(s) at each s."""
    num, den = _rational(model)
    s = np.asarray(s, dtype=complex)
    return np.polyval(num, s) / np.polyval(den, s)


@functools.cache  # inputs repeat every pass
def peak_gain(p: jc.PhysicalParams) -> float:
    """sup |G(i w)| over the signed axis: a signed log grid plus the
    resonances Im lambda(F), each of the highest local maxima refined by
    golden-section search between its grid neighbours."""
    model = jc.build_model(p)
    num, den = _rational(model)

    def mag(w):
        s = 1j * np.asarray(w, dtype=float)
        return np.abs(np.polyval(num, s) / np.polyval(den, s))

    half = np.logspace(PEAK_GRID_LO, PEAK_GRID_HI, PEAK_GRID_POINTS)
    resonances = np.linalg.eigvals(realization(model)[0]).imag
    w = np.unique(np.concatenate([-half, [0.0], half, resonances]))
    g = mag(w)
    interior = np.nonzero((g[1:-1] >= g[:-2]) & (g[1:-1] >= g[2:]))[0] + 1
    best = float(g.max())
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    for k in interior[np.argsort(g[interior])[-PEAK_CANDIDATES:]]:
        a, b = w[k - 1], w[k + 1]
        for _ in range(100):
            c, d = b - invphi * (b - a), a + invphi * (b - a)
            if mag(c) >= mag(d):
                b = d
            else:
                a = c
        best = max(best, float(mag((a + b) / 2.0)))
    return best


def spectral_abscissa(model: jc.SystemModel) -> float:
    return float(np.max(np.linalg.eigvals(realization(model)[0]).real))


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def check_point(p: jc.PhysicalParams, out, is_paper: bool) -> list[str]:
    cert, text = out
    bad = []
    model = jc.build_model(p)
    gamma_half = 1.0 / (4.0 * p.Jp)
    hurwitz = spectral_abscissa(model) < 0.0
    if _rel(cert.gamma_half, gamma_half) > 1e-12:
        bad.append(f"gamma/2 {cert.gamma_half:.6e} != 1/(4 Jp) = {gamma_half:.6e}")
    if cert.hurwitz != hurwitz:
        bad.append(f"hurwitz {cert.hurwitz} but the reference abscissa says {hurwitz}")
    if hurwitz:
        peak = peak_gain(p)
        if _rel(cert.hinf_norm, peak) > NORM_REL_TOL:
            bad.append(f"norm {cert.hinf_norm:.10e} but the reference peak is {peak:.10e}")
        g = abs(complex(gain(model, 1j * cert.hinf_freq)))
        if _rel(g, cert.hinf_norm) > PEAK_FREQ_REL_TOL:
            bad.append(f"|G(i w*)| = {g:.10e} at the reported w* = {cert.hinf_freq:.6e}, norm {cert.hinf_norm:.10e}")
    if cert.certified != (hurwitz and cert.hinf_norm < gamma_half):
        bad.append(f"certified = {cert.certified} disagrees with hurwitz and norm < gamma/2")
    doc = json.loads(text)
    same_norm = doc["hinf_norm"] == cert.hinf_norm or (math.isnan(doc["hinf_norm"]) and math.isnan(cert.hinf_norm))
    if doc["certified"] != cert.certified or not same_norm:
        bad.append("to_json does not carry the certificate's verdict and norm")
    if is_paper and not (cert.certified and _rel(cert.hinf_norm, PAPER_NORM) <= PAPER_NORM_REL):
        bad.append(f"paper point: norm {cert.hinf_norm:.6e} (want {PAPER_NORM} rel {PAPER_NORM_REL}), "
                   f"certified = {cert.certified}")
    return bad


@functools.cache  # the verdict probes cost two certify calls; inputs repeat every pass
def check_threshold(p: jc.PhysicalParams, star: float, is_paper: bool) -> list[str]:
    """kappa2* inside the bracket, and the verdict flips across it."""
    if not (math.isfinite(star) and KAPPA2_LO < star < KAPPA2_HI):
        return [f"kappa2* = {star!r} outside [{KAPPA2_LO:.0e}, {KAPPA2_HI:.0e}]"]
    bad = []
    if is_paper and not (PAPER_THRESHOLD[0] <= star <= PAPER_THRESHOLD[1]):
        bad.append(f"paper point: kappa2* = {star:.6e} outside {PAPER_THRESHOLD}")
    step = 1.0 + THRESHOLD_REL_TOL
    if not jc.certify(jc.build_model(p.replace(kappa2=star * step))).certified:
        bad.append(f"not certified just above kappa2* = {star:.6e}")
    if jc.certify(jc.build_model(p.replace(kappa2=star / step))).certified:
        bad.append(f"certified just below kappa2* = {star:.6e}")
    return bad


def check_sweep(p: jc.PhysicalParams, out, is_paper: bool) -> list[str]:
    rows, sens = out
    bad = []
    gamma_half = 1.0 / (4.0 * p.Jp)
    if [r.kappa2 for r in rows] != [float(k) for k in SWEEP_KAPPA2]:
        bad.append("sweep rows do not follow the kappa2 grid")
    for r in rows:
        if r.error is not None:
            bad.append(f"row kappa2={r.kappa2:.6e} failed: {r.error}")
        elif r.certified != (r.hurwitz and r.hinf_norm < gamma_half):
            bad.append(f"row kappa2={r.kappa2:.6e}: certified = {r.certified}, "
                       f"norm {r.hinf_norm:.6e} vs gamma/2 {gamma_half:.6e}")
    flags = [r.certified for r in rows]
    flips = sum(a != b for a, b in zip(flags, flags[1:]))
    if flips > 1:
        bad.append(f"certified column flips {flips} times")
    if [k for k, _ in sens] != [float(k) for k in SWEEP_KAPPA1]:
        bad.append("sensitivity rows do not follow the kappa1 grid")
    if not all(math.isfinite(h) and h > 0 for _, h in sens):
        bad.append("sensitivity norm not finite and positive")
    return bad


def check_bode(model: jc.SystemModel, rows) -> list[str]:
    if len(rows) < BODE_POINTS or any(r.error is not None for r in rows):
        return [f"{len(rows)} Bode rows, errors: {[r.error for r in rows if r.error][:3]}"]
    omegas = np.array([r.omega for r in rows])
    mags = np.array([r.magnitude for r in rows])
    phases = np.array([r.phase for r in rows])
    if omegas[0] != BODE_LO or omegas[-1] != BODE_HI or np.any(np.diff(omegas) <= 0):
        return ["Bode frequencies are not the sorted grid over the requested range"]
    g = gain(model, 1j * omegas)
    rel = np.abs(mags - np.abs(g)) / np.abs(g)
    dphase = np.abs(np.angle(np.exp(1j * (phases - np.angle(g)))))
    k = int(np.argmax(rel))
    bad = []
    if rel[k] > BODE_REL_TOL:
        bad.append(f"Bode magnitude at omega={omegas[k]:.6e} off by {rel[k]:.2e} relative")
    if dphase.max() > BODE_REL_TOL:
        bad.append(f"Bode phase off by {dphase.max():.2e} rad")
    return bad


def check_crosscheck(p: jc.PhysicalParams, out, is_paper: bool) -> list[str]:
    model = jc.build_model(p)
    bad = check_bode(model, out.bode)
    target = 2.0 * abs(spectral_abscissa(model))
    if _rel(out.c2, target) > DECAY_REL_TOL:
        bad.append(f"decay rate c2 = {out.c2:.8e} vs 2|abscissa| = {target:.8e}")
    for report in out.sector:
        if not report.passed:
            bad.append(f"sector report failed: worst margin {report.worst_margin:.6e}")
    return bad


CHECKS = {
    "point": check_point,
    "threshold": check_threshold,
    "sweep": check_sweep,
    "crosscheck": check_crosscheck,
}


def verdict_shares(rows) -> dict:
    """Shares of (certified, norm, gamma/2) rows that are certified,
    uncertified, and whose norm is within 5% of gamma/2."""
    rows = list(rows)
    n = len(rows)
    cert = sum(1 for c, _, _ in rows if c)
    near = sum(1 for _, h, gh in rows if math.isfinite(h) and abs(h / gh - 1) <= NEAR_GAMMA_HALF)
    return {"certified": cert / n, "uncertified": (n - cert) / n, "near_gamma_half": near / n, "inputs": n}
