import numpy as np
import pytest

import jjcavity as jc
from jjcavity.builder import (
    QuadraticForm,
    build_coupling,
    build_model,
    build_zeta,
    ladder_rebuild_matrix,
    ladder_transform,
    quadratic_form_matrix,
    sector_constants,
)
from jjcavity.model import j_matrix, sigma_matrix, validate_model

from conftest import random_params


def quadrature_vector(alpha: np.ndarray, params) -> np.ndarray:
    """Rebuild (q', p'', n'', phi') from a complex mode pair alpha, via the
    inverse ladder relations."""
    alpha = np.asarray(alpha, dtype=complex).reshape(2)
    v = np.concatenate([alpha, alpha.conj()])
    return ladder_rebuild_matrix(params) @ v


def classical_hamiltonian_lhs(form, params, alpha):
    """Oracle side: (1/2) x^T A x with x rebuilt from alpha."""
    x = quadrature_vector(alpha, params)
    return 0.5 * (x @ form.A @ x)


def classical_hamiltonian_rhs(M, alpha):
    """(1/2) [alpha^dag, alpha^T] M [alpha; alpha#]."""
    v = np.concatenate([alpha, np.conj(alpha)])
    left = np.concatenate([np.conj(alpha), alpha])
    return 0.5 * (left @ M @ v)


class TestQuadraticForm:
    def test_paper_constants_junction_entry(self, paper_params):
        form = quadratic_form_matrix(paper_params)
        # U'/hbar = U/hbar + omega g^2
        expected = paper_params.U / paper_params.hbar + paper_params.omega * paper_params.g ** 2
        assert form.A[2, 2] == pytest.approx(expected, rel=1e-12)
        assert form.A[2, 2] == pytest.approx(2.1085e12, rel=1e-4)

    def test_sparsity_pattern(self, paper_params):
        A = quadratic_form_matrix(paper_params).A
        nonzero = {(i, j) for i, j in zip(*np.nonzero(A))}
        assert nonzero == {(0, 0), (1, 1), (1, 2), (2, 1), (2, 2)}
        assert A[3, 3] == 0.0

    def test_zero_coupling_decouples(self, paper_params):
        A = quadratic_form_matrix(paper_params.replace(g=0.0)).A
        assert A[1, 2] == 0.0 and A[2, 1] == 0.0

    def test_omega_scaling(self, paper_params):
        p0 = paper_params.replace(g=0.0)
        p2 = p0.replace(omega=2.0 * p0.omega)
        a0 = quadratic_form_matrix(p0).A[0, 0]
        a2 = quadratic_form_matrix(p2).A[0, 0]
        assert a2 == pytest.approx(4.0 * a0, rel=1e-14)

    def test_asymmetric_rejected(self):
        A = np.zeros((4, 4))
        A[0, 1] = 1.0
        with pytest.raises(ValueError, match="symmetric"):
            QuadraticForm(A)

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match=r"^quadratic form must be 4x4, got \(3, 3\)$"):
            QuadraticForm(np.zeros((3, 3)))

    def test_phi_diagonal_rejected(self):
        A = np.zeros((4, 4))
        A[3, 3] = 1.0
        with pytest.raises(ValueError, match="phi"):
            QuadraticForm(A)


class TestLadderTransform:
    def test_zero_form(self, paper_params):
        M = ladder_transform(QuadraticForm(np.zeros((4, 4))), paper_params)
        assert np.allclose(M, 0.0)

    def test_block_structure(self, paper_params):
        M = ladder_transform(quadratic_form_matrix(paper_params), paper_params)
        m = jc.SystemModel(
            n_modes=2, M=M, N=np.zeros((4, 4)), Etilde=np.zeros((1, 4)), gamma=1.0
        )
        assert validate_model(m) == []

    def test_paper_entries(self, paper_params):
        """Hand-derived closed form of the transformed matrix."""
        p = paper_params
        M = ladder_transform(quadratic_form_matrix(p), p)
        uh = p.U / p.hbar + p.omega * p.g ** 2       # U'/hbar
        c = p.g * p.omega / 2.0
        scale = np.max(np.abs(M))
        expected = np.array(
            [
                [p.omega, -c, 0.0, c],
                [-c, uh / 2.0, c, -uh / 2.0],
                [0.0, c, p.omega, -c],
                [c, -uh / 2.0, -c, uh / 2.0],
            ]
        )
        assert np.max(np.abs(M - expected)) < 1e-12 * scale

    def test_classical_substitution_random_forms(self, paper_params):
        """Both quadratic forms agree up to an alpha-independent constant."""
        rng = np.random.default_rng(11)
        for _ in range(20):
            A = rng.standard_normal((4, 4))
            A = A + A.T
            A[3, 3] = 0.0
            form = QuadraticForm(A)
            params = random_params(rng)
            M = ladder_transform(form, params)
            offsets = []
            scale = 0.0
            for _ in range(20):
                alpha = rng.standard_normal(2) + 1j * rng.standard_normal(2)
                lhs = classical_hamiltonian_lhs(form, params, alpha)
                rhs = classical_hamiltonian_rhs(M, alpha)
                offsets.append(lhs - rhs)
                scale = max(scale, abs(lhs), abs(rhs))
            offsets = np.asarray(offsets)
            assert np.max(np.abs(offsets - offsets.mean())) <= 1e-10 * max(scale, 1e-300)

    def test_classical_substitution_zero_phi_row(self, paper_params):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((4, 4))
        A = A + A.T
        A[3, :] = 0.0
        A[:, 3] = 0.0
        form = QuadraticForm(A)
        M = ladder_transform(form, paper_params)
        for _ in range(20):
            alpha = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            lhs = classical_hamiltonian_lhs(form, paper_params, alpha)
            rhs = classical_hamiltonian_rhs(M, alpha)
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)


class TestCoupling:
    def test_zero(self):
        assert np.array_equal(build_coupling(0.0, 0.0), np.zeros((4, 4)))

    def test_unit(self):
        assert np.array_equal(build_coupling(1.0, 1.0), np.eye(4))

    def test_square_roots(self):
        N = build_coupling(1e11, 2.5e12)
        assert N[0, 0] == pytest.approx(3.1623e5, rel=1e-4)
        assert N[1, 1] == pytest.approx(1.5811e6, rel=1e-4)
        assert np.count_nonzero(N - np.diag(np.diag(N))) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match=r"^coupling rates must be nonnegative, got -1.0, 1.0$"):
            build_coupling(-1.0, 1.0)

    def test_scalar_rates_give_one_matrix(self):
        assert build_coupling(1e11, 2.5e12).shape == (4, 4)

    def test_array_rates_broadcast(self):
        # bit for bit the per-pair calls, over a (3, 1) x (4,) grid
        k1 = np.array([[0.0], [1e11], [3.0]])
        k2 = np.array([2.5e12, 0.0, 7.0, 1e-300])
        N = build_coupling(k1, k2)
        assert N.shape == (3, 4, 4, 4)
        for i, j in np.ndindex(3, 4):
            assert N[i, j].tobytes() == build_coupling(float(k1[i, 0]), float(k2[j])).tobytes()

    @pytest.mark.parametrize("kappa1, kappa2", [
        ([1.0, 2.0, -1.0], 2.0),
        (1.0, [[2.0, 3.0], [-1e-300, 4.0]]),
        (np.full(3, -1.0), np.full(3, -1.0)),
    ])
    def test_negative_entry_anywhere_rejected(self, kappa1, kappa2):
        with pytest.raises(ValueError, match="^coupling rates must be nonnegative, got "):
            build_coupling(kappa1, kappa2)


class TestZeta:
    def test_single_entry(self):
        row = build_zeta()
        assert np.count_nonzero(row) == 1
        assert row[0, 1].real ** 2 == pytest.approx(0.5, rel=1e-15)

    def test_dtilde_column(self):
        # D = J Sigma Etilde^T lands on the junction creator entry
        row = build_zeta()
        D = (j_matrix(2) @ sigma_matrix(2) @ row.T).ravel()
        assert np.count_nonzero(D) == 1
        assert D[3] == pytest.approx(-1.0 / np.sqrt(2.0), rel=1e-15)


class TestSectorConstants:
    def test_paper_gamma_half(self, paper_params):
        gamma, delta1, delta2 = sector_constants(paper_params)
        assert gamma / 2.0 == pytest.approx(6.8209e-13, rel=1e-4)
        assert delta1 == 0.0
        assert delta2 == pytest.approx(1.3434e23, rel=1e-4)

    def test_reciprocal(self, paper_params):
        gamma, _, _ = sector_constants(paper_params.replace(Jp=0.5))
        assert gamma == pytest.approx(1.0, rel=1e-15)

    def test_monotone_decreasing_in_jp(self, paper_params):
        jps = np.logspace(8, 14, 12)
        gammas = [sector_constants(paper_params.replace(Jp=j))[0] for j in jps]
        assert all(a > b for a, b in zip(gammas, gammas[1:]))

    def test_zero_jp_rejected(self):
        with pytest.raises(ValueError):
            jc.PhysicalParams(omega=1.0, g=0.1, U=1.0, Jp=0.0)


class TestBuildModel:
    def test_validates(self, paper_model):
        assert validate_model(paper_model) == []

    def test_decoupled_lossless(self, paper_params):
        m = build_model(paper_params.replace(g=0.0, kappa1=0.0, kappa2=0.0))
        assert np.allclose(m.N, 0.0)
        assert np.allclose(m.M[:2, :2] - np.diag(np.diag(m.M[:2, :2])), 0.0)

    def test_nbar_irrelevant(self, paper_params, paper_model):
        m2 = build_model(paper_params.replace(nbar=7.3))
        assert np.array_equal(m2.M, paper_model.M)
        assert np.array_equal(m2.N, paper_model.N)
        assert np.array_equal(m2.Etilde, paper_model.Etilde)
        assert m2.gamma == paper_model.gamma

    def test_cavity_absent_from_zeta(self, paper_model):
        assert paper_model.Etilde[0, 0] == 0.0
        assert paper_model.Etilde[0, 2] == 0.0

    def test_json_round_trip(self, paper_params):
        rng = np.random.default_rng(17)
        for _ in range(5):
            m = build_model(random_params(rng))
            again = jc.SystemModel.from_json(m.to_json())
            assert np.array_equal(again.M, m.M)
            assert np.array_equal(again.N, m.N)
            assert np.array_equal(again.Etilde, m.Etilde)
            assert again.gamma == m.gamma

    def test_random_params_validate(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            assert validate_model(build_model(random_params(rng))) == []
