"""Numerical check of the sector bounds for a scalar nonlinearity.

The operator inequalities are checked through their commutative surrogate:
the scalar operator is replaced by a complex number z on a rectangular
grid, and the bound margins are minimized over the grid.  Operator-ordering
corrections are absorbed into the slack constants delta1/delta2.  Both
checks run one 1-D scan, `_worst`."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .model import _encode_complex

DEFAULT_RANGE = 20.0
DEFAULT_POINTS = 801


@dataclass(frozen=True)
class GridSpec:
    """Square grid [-re_max, re_max] x [-im_max, im_max] in the complex plane."""

    re_max: float = DEFAULT_RANGE
    im_max: float = DEFAULT_RANGE
    points_re: int = DEFAULT_POINTS
    points_im: int = DEFAULT_POINTS

    def __post_init__(self):
        if self.points_re < 1 or self.points_im < 1:
            raise ValueError("grid must have at least one point per axis")
        if not (0 < self.re_max < np.inf and 0 < self.im_max < np.inf):
            raise ValueError("grid half-ranges must be finite and positive")

    def axes(self) -> tuple[np.ndarray, np.ndarray]:
        return (
            np.linspace(-self.re_max, self.re_max, self.points_re),
            np.linspace(-self.im_max, self.im_max, self.points_im),
        )


@dataclass(frozen=True)
class SectorReport:
    gamma_tested: float
    delta1: float
    delta2: float
    worst_margin: float
    worst_point: complex
    passed: bool
    grid_spec: GridSpec

    def to_json(self) -> str:
        return json.dumps(asdict(self), default=_encode_complex)


def _worst(f: Callable[[np.ndarray], np.ndarray], name: str, gamma: float, delta: float,
           grid: GridSpec) -> tuple[float, complex]:
    """The least margin |z|^2 / gamma^2 + delta - |f(z + conj(z))|^2 over
    the grid, and the lexicographically smallest point (Re z, Im z)
    reaching it.

    The margin depends on z only through Re z and (Im z)^2, and does not
    decrease as (Im z)^2 grows, even after rounding.  So one scan over Re z
    along the grid row nearest the real axis gives the same worst margin
    and worst point as a scan of the full grid, ties included.  With
    gamma = inf (the second-derivative check) the |z|^2 term is exactly 0.0
    (never inf / inf), so every y on a row ties and the first wins."""
    xs, ys = grid.axes()
    vals = np.asarray(f(2.0 * xs), dtype=complex)
    if not np.all(np.isfinite(vals)):
        bad = xs[~np.isfinite(vals)][0]
        raise FloatingPointError(f"{name} is not finite at z + conj(z) = {2 * bad}")
    lhs = np.abs(vals) ** 2
    x2, y2 = (xs ** 2, ys ** 2) if gamma < np.inf else (np.zeros_like(xs), np.zeros_like(ys))
    column = (x2 + y2.min()) / gamma ** 2 + delta - lhs
    i = int(np.argmin(column))
    # distinct y^2 can round to one margin: the first y on row i reaching it
    j = int(np.argmin((x2[i] + y2) / gamma ** 2 + delta - lhs[i]))
    return float(column[i]), complex(xs[i], ys[j])


def verify_sector(
    fprime: Callable[[np.ndarray], np.ndarray],
    gamma: float,
    delta1: float = 0.0,
    grid: GridSpec = GridSpec(),
) -> SectorReport:
    """Check |f'(z + conj(z))|^2 <= |z|^2 / gamma^2 + delta1 over the grid.

    `fprime` is evaluated on the real array z + conj(z) = 2 Re z."""
    if not 0 < gamma < np.inf:
        raise ValueError(f"gamma must be finite and positive, got {gamma}")
    if not 0 <= delta1 < np.inf:
        raise ValueError(f"delta1 must be finite and nonnegative, got {delta1}")
    worst, point = _worst(fprime, "f'", gamma, delta1, grid)
    return SectorReport(gamma_tested=gamma, delta1=delta1, delta2=float("nan"), worst_margin=worst,
                        worst_point=point, passed=worst >= 0.0, grid_spec=grid)


def verify_second(
    fsecond: Callable[[np.ndarray], np.ndarray],
    delta2: float,
    grid: GridSpec = GridSpec(),
) -> SectorReport:
    """Check |f''(z + conj(z))|^2 <= delta2 over the grid: the scan of
    `verify_sector` with no |z|^2 term (gamma = inf)."""
    if not 0 <= delta2 < np.inf:
        raise ValueError(f"delta2 must be finite and nonnegative, got {delta2}")
    worst, point = _worst(fsecond, "f''", np.inf, delta2, grid)
    return SectorReport(gamma_tested=float("nan"), delta1=float("nan"), delta2=delta2, worst_margin=worst,
                        worst_point=point, passed=worst >= 0.0, grid_spec=grid)


def cosine_sector_constants(Jp: float) -> tuple[float, float, float]:
    """(gamma, delta1, delta2) for the cosine perturbation with Jp
    hbar-normalized: gamma = 1/(2 Jp), the sine bound is tight with no slack
    (delta1 = 0), and the cosine second derivative is bounded by Jp^2."""
    if not 0 < Jp < np.inf:
        raise ValueError(f"Jp must be finite and positive, got {Jp}")
    return 1.0 / (2.0 * Jp), 0.0, Jp ** 2


def cosine_first_derivative(Jp: float) -> Callable[[np.ndarray], np.ndarray]:
    """f'(u) = Jp sin(u) for the cosine perturbation -Jp cos(zeta + zeta*)."""
    return lambda u: Jp * np.sin(u)


def cosine_second_derivative(Jp: float) -> Callable[[np.ndarray], np.ndarray]:
    """f''(u) = Jp cos(u)."""
    return lambda u: Jp * np.cos(u)
