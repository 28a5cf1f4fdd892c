"""Physical constants describing the junction/cavity system."""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, asdict, fields

# Reduced Planck constant, J*s, rounded to the 4-figure precision of the
# other constants.
HBAR = 1.0546e-34


@dataclass(frozen=True)
class PhysicalParams:
    """Constants for a Josephson junction in a resonant cavity.

    omega   : cavity angular frequency, rad/s
    g       : dimensionless junction/cavity coupling
    U       : charging energy, joule
    Jp      : Josephson energy divided by hbar, rad/s
    nbar    : dimensionless gate parameter (enters only through dropped
              constant terms, so it never affects the built model)
    kappa1  : cavity field coupling rate, 1/s
    kappa2  : junction field coupling rate, 1/s
    hbar    : reduced Planck constant, joule-second
    """

    omega: float
    g: float
    U: float
    Jp: float
    nbar: float = 0.0
    kappa1: float = 0.0
    kappa2: float = 0.0
    hbar: float = HBAR

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not math.isfinite(v):
                raise ValueError(f"parameter {f.name} is not finite: {v!r}")
        if self.omega <= 0:
            raise ValueError(f"omega must be positive, got {self.omega}")
        if self.Jp <= 0:
            raise ValueError(f"Jp must be positive, got {self.Jp}")
        if self.hbar <= 0:
            raise ValueError(f"hbar must be positive, got {self.hbar}")
        if self.kappa1 < 0 or self.kappa2 < 0:
            raise ValueError("coupling rates must be nonnegative")

    def replace(self, **kwargs) -> "PhysicalParams":
        return dataclasses.replace(self, **kwargs)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "PhysicalParams":
        """Parse `to_json` output; see `_checked_fields` for what is rejected."""
        return cls(**_checked_fields(json.loads(text)))


def _checked_fields(obj) -> dict:
    """`obj`, a parsed JSON value, as PhysicalParams keyword arguments: it
    must be an object whose keys are PhysicalParams fields and whose values
    are real numbers (not booleans).  A ValueError names the bad key.
    Missing fields are left for the constructor to report."""
    if not isinstance(obj, dict):
        raise ValueError(f"parameters JSON must be an object, got {type(obj).__name__}")
    names = {f.name for f in fields(PhysicalParams)}
    for key, value in obj.items():
        if key not in names:
            raise ValueError(f"unknown parameter {key!r}")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"parameter {key} must be a real number, got {value!r}")
    return obj


def reference_params() -> PhysicalParams:
    """The published junction/cavity constants, at the coupling rates
    kappa1 = 1e11 and kappa2 = 2.5e12 1/s."""
    return PhysicalParams(
        omega=2.0 * math.pi * 1e11,
        g=0.15,
        U=2.2087e-22,
        Jp=3.6652e11,
        nbar=0.0,
        kappa1=1e11,
        kappa2=2.5e12,
    )
