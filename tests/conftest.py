import numpy as np
import pytest

import jjcavity as jc
from jjcavity.stability import build_F, spectral_abscissa

#: ||G||_inf at the published point, from the closed-form transfer function
#: evaluated in mpmath at 40 digits (peak at omega* = 3.2346757e11 rad/s)
PAPER_NORM = 5.5562423145097e-13


@pytest.fixture(scope="session")
def paper_params():
    return jc.reference_params()


@pytest.fixture(scope="session")
def paper_model(paper_params):
    return jc.build_model(paper_params)


@pytest.fixture(scope="session")
def paper_certificate(paper_model):
    return jc.certify(paper_model)


def make_random_model(rng, min_damping=0.05):
    """Random validated 2-mode model with Hurwitz F and O(1) scales."""
    while True:
        X = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        M1 = (X + X.conj().T) / 2
        Y = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        M2 = (Y + Y.T) / 2
        N1 = 0.7 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        N2 = 0.3 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        M = np.block([[M1, M2], [M2.conj(), M1.conj()]])
        N = np.block([[N1, N2], [N2.conj(), N1.conj()]])
        Et = (rng.standard_normal(4) + 1j * rng.standard_normal(4)).reshape(1, 4)
        model = jc.SystemModel(
            n_modes=2, M=M, N=N, Etilde=Et, gamma=float(rng.uniform(0.1, 10.0))
        )
        if spectral_abscissa(build_F(model)) < -min_damping:
            return model


def dense_grid_norm(ss, n_points=10 ** 6):
    """Independent H-infinity oracle: maximum of |G(i w)| over a dense signed
    log grid, evaluated through the exact partial-fraction expansion."""
    w, V = np.linalg.eig(ss.A)
    residues = (ss.C @ V).ravel() * np.linalg.solve(V, ss.B).ravel()
    half = np.logspace(-4, 3, n_points // 2)
    ws = np.concatenate([[0.0], half, -half])
    gains = np.abs(
        (residues[None, :] / (1j * ws[:, None] - w[None, :])).sum(axis=1)
    )
    k = int(np.argmax(gains))
    return float(gains[k]), float(ws[k])


def random_params(rng):
    """Random physically-plausible constants around the published values."""
    return jc.PhysicalParams(
        omega=float(rng.uniform(0.2, 5.0)) * 2 * np.pi * 1e11,
        g=float(rng.uniform(0.01, 0.5)),
        U=float(rng.uniform(0.2, 5.0)) * 2.2087e-22,
        Jp=float(rng.uniform(0.2, 5.0)) * 3.6652e11,
        nbar=float(rng.uniform(0.0, 2.0)),
        kappa1=float(rng.uniform(0.0, 1.0)) * 1e12,
        kappa2=float(rng.uniform(0.0, 1.0)) * 1e13,
    )
