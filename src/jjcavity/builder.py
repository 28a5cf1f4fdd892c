"""Builds the junction/cavity system model from physical constants.

The chain is: completed-squares quadratic form over the quadrature vector
(q', p'', n'', phi')  ->  ladder-operator change of variables  ->  block
Hermitian M, plus the coupling matrix N, the perturbation row Etilde and
the sector constants.

Unit convention: U is in joules and is divided by hbar wherever U/hbar or
U'/hbar appears; Jp is already hbar-normalized (rad/s).  The sector
constant is gamma = 1/(2*Jp), dimensionless in these units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import SystemModel, sigma_matrix
from .params import PhysicalParams
from .sector import cosine_sector_constants

# Sigma of order 2, shared by every `ladder_transform` call.  The scalar
# square roots below are math.sqrt: correctly rounded like np.sqrt, so the
# same bits without a numpy call.
_SIGMA2 = sigma_matrix(2)
_SIGMA2.flags.writeable = False


@dataclass(frozen=True)
class QuadraticForm:
    """Real symmetric 4x4 matrix over (q', p'', n'', phi'), entries in rad/s
    after hbar-normalization.  The phi' diagonal entry is always zero: the
    junction phase has no quadratic potential (the cosine term is treated
    as the perturbation)."""

    A: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        object.__setattr__(self, "A", A)
        if A.shape != (4, 4):
            raise ValueError(f"quadratic form must be 4x4, got {A.shape}")
        if not np.array_equal(A, A.T):
            raise ValueError("quadratic form matrix must be exactly symmetric")
        if A[3, 3] != 0.0:
            raise ValueError("phi' diagonal entry must vanish")


def quadratic_form_matrix(params: PhysicalParams) -> QuadraticForm:
    """Completed-squares Hamiltonian matrix for the junction/cavity system."""
    w, hb, g = params.omega, params.hbar, params.g
    Uprime = params.U + hb * w * g * g
    entries = {
        (0, 0): w * w / hb,
        (1, 1): 1.0 / hb,
        (1, 2): -g * math.sqrt(w / hb),
        (2, 2): Uprime / hb,
    }
    A = np.zeros((4, 4))
    for (i, j), v in entries.items():
        if not math.isfinite(v):
            raise OverflowError(f"quadratic form entry ({i},{j}) is not finite: {v!r}")
        A[i, j] = v
        A[j, i] = v
    return QuadraticForm(A)


def ladder_rebuild_matrix(params: PhysicalParams) -> np.ndarray:
    """4x4 complex T with x = T v, where x = (q', p'', n'', phi') and
    v = (a1, a2, a1*, a2*).

    Inverts a1 = (omega q' + i p'')/sqrt(2 hbar omega) and
    a2 = (phi' + i n'')/sqrt(2)."""
    w, hb = params.omega, params.hbar
    cq = math.sqrt(hb / (2.0 * w))
    cp = math.sqrt(hb * w / 2.0)
    s2 = math.sqrt(2.0)
    return np.array(
        [
            [cq, 0.0, cq, 0.0],
            [-1j * cp, 0.0, 1j * cp, 0.0],
            [0.0, -1j / s2, 0.0, 1j / s2],
            [0.0, 1.0 / s2, 0.0, 1.0 / s2],
        ],
        dtype=complex,
    )


def ladder_transform(form: QuadraticForm, params: PhysicalParams) -> np.ndarray:
    """Hermitian M with the required block structure such that, for complex
    alpha, (1/2) x(alpha)^T A x(alpha) equals the quadratic form of M at
    alpha up to an alpha-independent constant.

    For a symmetric A the raw change of variables already lands in the
    block structure; the final averaging only scrubs rounding noise."""
    T = ladder_rebuild_matrix(params)
    M = _SIGMA2 @ (T.T @ form.A @ T)
    M = (M + M.conj().T) / 2.0
    M = (M + _SIGMA2 @ M.conj() @ _SIGMA2) / 2.0
    return M


def build_coupling(kappa1, kappa2) -> np.ndarray:
    """Coupling matrix N with N1 = diag(sqrt(kappa1), sqrt(kappa2)), N2 = 0.
    Array rates broadcast against each other: N is then (..., 4, 4), one
    matrix per pair of rates."""
    k1, k2 = np.asarray(kappa1, dtype=float), np.asarray(kappa2, dtype=float)
    if (k1 < 0).any() or (k2 < 0).any():
        raise ValueError(f"coupling rates must be nonnegative, got {kappa1}, {kappa2}")
    # each N flattened row-major: entries 0, 10 are (0,0), (2,2); 5, 15 are (1,1), (3,3)
    N = np.zeros(np.broadcast(k1, k2).shape + (16,), dtype=complex)
    N[..., 0::10] = np.sqrt(k1)[..., None]
    N[..., 5::10] = np.sqrt(k2)[..., None]
    return N.reshape(N.shape[:-1] + (4, 4))


def build_zeta() -> np.ndarray:
    """Row Etilde selecting zeta = a2/sqrt(2)."""
    return np.array([[0.0, 1.0 / math.sqrt(2.0), 0.0, 0.0]], dtype=complex)


def sector_constants(params: PhysicalParams) -> tuple[float, float, float]:
    """(gamma, delta1, delta2) = `cosine_sector_constants(params.Jp)`."""
    return cosine_sector_constants(params.Jp)


def build_model(params: PhysicalParams) -> SystemModel:
    """Assemble the full 2-mode system model from physical constants."""
    M = ladder_transform(quadratic_form_matrix(params), params)
    N = build_coupling(params.kappa1, params.kappa2)
    Etilde = build_zeta()
    gamma, delta1, delta2 = sector_constants(params)
    return SystemModel(
        n_modes=2, M=M, N=N, Etilde=Etilde,
        gamma=gamma, delta1=delta1, delta2=delta2,
    )
