"""Robust mean-square stability certification for a Josephson junction
coupled to a resonant cavity."""

from .params import HBAR, PhysicalParams, reference_params
from .model import SystemModel, j_matrix, sigma_matrix, validate_model
from .builder import (
    QuadraticForm,
    build_coupling,
    build_model,
    build_zeta,
    ladder_transform,
    quadratic_form_matrix,
    sector_constants,
)
from .stability import (
    StabilityCertificate,
    StateSpace,
    build_F,
    certify,
    hinf_norm,
    is_certified,
    is_hurwitz,
    spectral_abscissa,
    state_space,
    transfer_eval,
)
from .sector import GridSpec, SectorReport, verify_second, verify_sector
from .simulate import DecayEstimate, Trajectory, estimate_decay, integrate_mean, slow_mode_vector
from .sweep import BodeRow, SweepRecord, bode_csv, find_threshold, kappa1_sensitivity, sweep_kappa2

__version__ = "0.1.0"

__all__ = [
    "HBAR",
    "PhysicalParams",
    "reference_params",
    "SystemModel",
    "j_matrix",
    "sigma_matrix",
    "validate_model",
    "QuadraticForm",
    "quadratic_form_matrix",
    "ladder_transform",
    "build_coupling",
    "build_zeta",
    "sector_constants",
    "build_model",
    "StateSpace",
    "StabilityCertificate",
    "build_F",
    "state_space",
    "spectral_abscissa",
    "is_hurwitz",
    "transfer_eval",
    "hinf_norm",
    "certify",
    "is_certified",
    "GridSpec",
    "SectorReport",
    "verify_sector",
    "verify_second",
    "Trajectory",
    "DecayEstimate",
    "integrate_mean",
    "estimate_decay",
    "slow_mode_vector",
    "SweepRecord",
    "BodeRow",
    "sweep_kappa2",
    "find_threshold",
    "bode_csv",
    "kappa1_sensitivity",
]
