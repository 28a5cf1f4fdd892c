"""Seeded inputs and the operation each workload times.

Every pool starts with the published operating point and fills the rest
with a Latin-hypercube draw around it, taking the midpoint of each stratum:
every seed gives each constant the same set of values and only pairs and
orders them differently, so the run-to-run spread comes from the program,
not from the draw.  kappa2 is log-uniform over the threshold bracket
[1e11, 1e13]; a third of the draws come from the band where kappa2* falls,
because the norm is within 5% of gamma/2 over only about 0.03 decades of
kappa2.  The other constants stay within 5% of the paper point: the cost
of a crosscheck op follows the integrator's step count, which grows with
kappa2 / kappa1, and wider ranges make its mix depend on the seed.

Ops call through module attributes (``jc.certify``, not a local alias) so
that the tracer's wrappers see them.  Why each workload exists is written
in BENCHMARK.json.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import jjcavity as jc
import jjcavity.sector as jsector
import jjcavity.simulate as jsim

KAPPA2_LO, KAPPA2_HI = 1e11, 1e13
SWEEP_KAPPA2 = np.logspace(11, 13, 40)
SWEEP_KAPPA1 = np.logspace(10, 12, 9)
BODE_LO, BODE_HI, BODE_POINTS = 1e9, 1e14, 400
THRESHOLD_BAND = (1.9e12, 2.5e12)

# (field, low factor, high factor) relative to the paper point.  At every
# corner of this box kappa2* lies in [2.06e12, 2.28e12], inside the bracket,
# so no find_threshold call raises.
DRAW_RANGES = (
    ("omega", 0.95, 1.05),
    ("g", 0.95, 1.05),
    ("U", 0.95, 1.05),
    ("Jp", 0.95, 1.05),
    ("kappa1", 0.95, 1.05),
)


@dataclass(frozen=True)
class Workload:
    name: str
    pool_size: int
    op: Callable[[jc.PhysicalParams], Any]
    warmup: Callable[[jc.PhysicalParams], Any]


def draw_params(seed: int, n: int) -> list[jc.PhysicalParams]:
    """The paper point followed by n - 1 Latin-hypercube draws."""
    rng = np.random.default_rng(seed)
    paper = jc.reference_params()
    m = n - 1
    out = [paper]
    columns = {}
    for name, lo, hi in DRAW_RANGES:
        u = (rng.permutation(m) + 0.5) / m
        columns[name] = getattr(paper, name) * (lo + (hi - lo) * u)
    u = (rng.permutation(m) + 0.5) / m
    lo = np.where(u < 1 / 3, THRESHOLD_BAND[0], KAPPA2_LO)
    hi = np.where(u < 1 / 3, THRESHOLD_BAND[1], KAPPA2_HI)
    columns["kappa2"] = lo * (hi / lo) ** np.where(u < 1 / 3, 3 * u, 1.5 * (u - 1 / 3))
    for i in range(m):
        out.append(paper.replace(**{k: float(v[i]) for k, v in columns.items()}))
    return out


def op_point(p: jc.PhysicalParams):
    """Single verdict as a CLI or library user sees it."""
    cert = jc.certify(jc.build_model(p))
    return cert, cert.to_json()


def op_threshold(p: jc.PhysicalParams):
    return jc.find_threshold(p, KAPPA2_LO, KAPPA2_HI)


def op_sweep(p: jc.PhysicalParams):
    rows = jc.sweep_kappa2(p, SWEEP_KAPPA2)
    sens = jc.kappa1_sensitivity(p, SWEEP_KAPPA1, p.kappa2)
    return rows, sens


@dataclass(frozen=True)
class CrosscheckResult:
    bode: list
    c2: float
    steps: int
    sector: tuple


def op_crosscheck(p: jc.PhysicalParams) -> CrosscheckResult:
    model = jc.build_model(p)
    bode = jc.bode_csv(model, BODE_LO, BODE_HI, BODE_POINTS)
    F = jc.build_F(model)
    v0 = jc.slow_mode_vector(F)
    dt, t_end = jsim.default_timescales(F)
    traj = jc.integrate_mean(F, v0, t_end, dt)
    est = jc.estimate_decay(traj)
    gamma, delta1, delta2 = jc.sector_constants(p)
    first = jc.verify_sector(jsector.cosine_first_derivative(p.Jp), gamma, delta1)
    second = jc.verify_second(jsector.cosine_second_derivative(p.Jp), delta2)
    # keep only what the gate needs, not the trajectory
    return CrosscheckResult(bode=bode, c2=est.c2, steps=len(traj.t) - 1, sector=(first, second))


# (name, pool size, op, warm-up); warm-up is one call at the paper point,
# and threshold and sweep warm up with the certify call their ops repeat
WORKLOADS = {
    w.name: w
    for w in (
        Workload("point", 48, op_point, op_point),
        Workload("threshold", 4, op_threshold, op_point),
        Workload("sweep", 3, op_sweep, op_point),
        Workload("crosscheck", 16, op_crosscheck, op_crosscheck),
    )
}


def make_inputs(workload: str, seed: int) -> list[jc.PhysicalParams]:
    return draw_params(seed, WORKLOADS[workload].pool_size)

