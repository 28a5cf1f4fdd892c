import dataclasses

import numpy as np
import pytest

import jjcavity as jc
from jjcavity.builder import build_coupling, build_model, build_zeta
from jjcavity.stability import (
    HINF_GRID_POINTS,
    StateSpace,
    _seed_frequencies,
    build_F,
    certify,
    hinf_norm,
    is_certified,
    is_hurwitz,
    spectral_abscissa,
    state_space,
    transfer_eval,
    transfer_response,
)

from conftest import PAPER_NORM, dense_grid_norm, make_random_model, random_params


class TestBuildF:
    def test_zero_system(self):
        m = jc.SystemModel(
            n_modes=2, M=np.zeros((4, 4)), N=np.zeros((4, 4)),
            Etilde=np.zeros((1, 4)), gamma=1.0,
        )
        assert np.array_equal(build_F(m), np.zeros((4, 4)))

    def test_pure_damping(self):
        # with N2 = 0 the JN^dag JN term collapses to the diagonal decay rates
        k1, k2 = 3.0, 11.0
        m = jc.SystemModel(
            n_modes=2, M=np.zeros((4, 4)), N=build_coupling(k1, k2),
            Etilde=np.zeros((1, 4)), gamma=1.0,
        )
        F = build_F(m)
        assert np.allclose(F, -np.diag([k1 / 2, k2 / 2, k1 / 2, k2 / 2]))

    def test_paper_real_parts(self, paper_model):
        ev = np.linalg.eigvals(build_F(paper_model))
        reals = np.sort(ev.real)
        assert reals[0] == pytest.approx(-1.25e12, rel=1e-3)
        assert reals[1] == pytest.approx(-1.25e12, rel=1e-3)
        assert reals[2] == pytest.approx(-5.0000e10, rel=1e-3)
        assert reals[3] == pytest.approx(-5.0000e10, rel=1e-3)

    def test_characteristic_polynomial(self):
        # det(sI - F) = (s + kappa2/2)^2 ((s + kappa1/2)^2 + omega^2) for any
        # constants: n'' is conserved by the quadratic part, so the junction
        # pair is a double root at -kappa2/2 and the cavity pair is untouched
        # by the coupling g.  np.linalg.det uses no eigendecomposition.
        rng = np.random.default_rng(31)
        for _ in range(50):
            p = random_params(rng)
            F = build_F(build_model(p))
            norm = np.linalg.norm(F, 2)
            for s in (0.5j * p.omega, p.kappa1 + p.kappa2 + p.omega, 0.5 * norm * (1 + 1j)):
                got = np.linalg.det(s * np.eye(4) - F)
                want = (s + p.kappa2 / 2) ** 2 * ((s + p.kappa1 / 2) ** 2 + p.omega ** 2)
                assert abs(got - want) <= 1e-10 * abs(want)

    def test_junction_pair_is_jordan_block(self):
        # F + (kappa2/2) I has rank 3: the double root -kappa2/2 carries one
        # eigenvector, so eig may split it by O(sqrt(eps) ||F||_2)
        eps = np.finfo(float).eps
        rng = np.random.default_rng(37)
        for _ in range(50):
            p = random_params(rng)
            F = build_F(build_model(p))
            norm = np.linalg.norm(F, 2)
            sv = np.linalg.svd(F + 0.5 * p.kappa2 * np.eye(4), compute_uv=False)
            assert sv[-1] <= 1e2 * eps * norm
            assert sv[-2] >= 1e-3 * norm

    def test_spectrum_conjugate_closed(self):
        # the block symmetry of M, N forces a spectrum closed under
        # conjugation; defective pairs leave O(sqrt(eps)) eig noise
        rng = np.random.default_rng(29)
        for _ in range(20):
            ev = np.linalg.eigvals(build_F(build_model(random_params(rng))))
            scale = max(1.0, np.max(np.abs(ev)))
            for z in ev:
                assert np.min(np.abs(ev - np.conj(z))) < 1e-6 * scale


class TestHurwitz:
    def test_minus_identity(self):
        F = -np.eye(3)
        assert spectral_abscissa(F) == pytest.approx(-1.0)
        assert is_hurwitz(F)

    def test_zero_marginal(self):
        F = np.zeros((3, 3))
        assert spectral_abscissa(F) == 0.0
        assert not is_hurwitz(F)

    def test_paper_abscissa(self, paper_model):
        assert spectral_abscissa(build_F(paper_model)) == pytest.approx(-5.0000e10, rel=1e-3)


class TestTransferEval:
    def test_identity_pole(self):
        rng = np.random.default_rng(1)
        b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        b /= np.linalg.norm(b)
        c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        c /= np.linalg.norm(c)
        ss = StateSpace(A=-np.eye(3), B=b, C=c)
        assert transfer_eval(ss, 0.0) == pytest.approx(complex(c @ b))

    def test_strictly_proper_decay(self, paper_model):
        # |G(s)| ~ |C B| / s for large s; |C B| = 1/2 here
        ss = state_space(paper_model)
        assert abs(transfer_eval(ss, 1e20)) == pytest.approx(0.5e-20, rel=1e-6)

    def test_singularity_raises(self):
        ss = StateSpace(A=np.diag([-1.0 + 2.0j]), B=[[1.0]], C=[[1.0]])
        with pytest.raises(np.linalg.LinAlgError, match=r"s = \(-1\+2j\) is \(numerically\) an eigenvalue"):
            transfer_eval(ss, -1.0 + 2.0j)
        with pytest.raises(np.linalg.LinAlgError):
            transfer_response(ss, [0.0, -1.0 + 2.0j, 1.0])


def solve_one(ss, s):
    """G(s) by its own 2-D solve: the per-point loop the stacked kernel
    replaced, kept as its reference."""
    n = ss.A.shape[0]
    x = np.linalg.solve(s * np.eye(n, dtype=complex) - ss.A, ss.B)
    return complex((ss.C @ x)[0, 0])


class TestTransferResponse:
    def assert_matches_per_point(self, ss, s):
        want = np.array([solve_one(ss, z) for z in s])
        got = transfer_response(ss, s)
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))
        assert np.all(np.abs(np.array([transfer_eval(ss, z) for z in s]) - want)
                      <= 1e-14 * np.abs(want))

    def test_paper_seed_grid(self, paper_model):
        ss = state_space(paper_model)
        omegas = _seed_frequencies(ss)
        assert omegas.size > 2 * HINF_GRID_POINTS
        self.assert_matches_per_point(ss, 1j * omegas)

    def test_random_models(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            ss = state_space(make_random_model(rng))
            self.assert_matches_per_point(ss, 1j * _seed_frequencies(ss))

    def test_off_axis_points(self):
        rng = np.random.default_rng(47)
        ss = state_space(make_random_model(rng))
        s = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        self.assert_matches_per_point(ss, s)
        assert transfer_response(ss, s[0]).shape == (1,)


class TestHinfNorm:
    def test_scalar_lag(self):
        ss = StateSpace(A=[[-2.0]], B=[[1.0]], C=[[1.0]])
        norm, freq = hinf_norm(ss)
        assert norm == pytest.approx(0.5, rel=1e-6)
        assert abs(freq) < 1e-3

    def test_paper_value(self, paper_certificate):
        assert paper_certificate.hinf_norm == pytest.approx(5.5554e-13, rel=1e-3)

    def test_not_hurwitz_rejected(self):
        ss = StateSpace(A=[[1.0]], B=[[1.0]], C=[[1.0]])
        with pytest.raises(ValueError, match="Hurwitz"):
            hinf_norm(ss)

    @pytest.mark.parametrize("rel_tol", [0.0, -1e-6, np.nan, np.inf])
    def test_bad_rel_tol_rejected(self, paper_model, rel_tol):
        with pytest.raises(ValueError, match="rel_tol"):
            hinf_norm(state_space(paper_model), rel_tol=rel_tol)

    def test_against_dense_grid(self):
        rng = np.random.default_rng(101)
        for _ in range(10):
            ss = state_space(make_random_model(rng))
            norm, _ = hinf_norm(ss, rel_tol=1e-7)
            oracle, _ = dense_grid_norm(ss, n_points=200_000)
            assert norm == pytest.approx(oracle, rel=1e-4)

    def test_lower_bound_soundness(self):
        rng = np.random.default_rng(41)
        ss = state_space(make_random_model(rng))
        norm, _ = hinf_norm(ss, rel_tol=1e-7)
        for w in np.concatenate([np.logspace(-3, 3, 200), -np.logspace(-3, 3, 200)]):
            assert abs(transfer_eval(ss, 1j * w)) <= norm * (1.0 + 1e-6)


class TestCertify:
    def test_paper_certified(self, paper_certificate):
        assert paper_certificate.hurwitz
        assert paper_certificate.hinf_norm < paper_certificate.gamma_half
        assert paper_certificate.certified

    def test_below_threshold_not_certified(self, paper_params):
        cert = certify(build_model(paper_params.replace(kappa2=1e12)))
        assert cert.hurwitz
        assert not cert.certified

    def test_zero_model_not_certified(self):
        m = jc.SystemModel(
            n_modes=2, M=np.zeros((4, 4)), N=np.zeros((4, 4)),
            Etilde=np.zeros((1, 4)), gamma=1.0,
        )
        cert = certify(m)
        assert not cert.hurwitz
        assert not cert.certified
        assert np.isnan(cert.hinf_norm) and np.isnan(cert.hinf_freq)

    def test_certificate_consistency(self, paper_certificate):
        c = paper_certificate
        assert c.certified == (c.hurwitz and c.hinf_norm < c.gamma_half)
        assert c.spectral_abscissa == pytest.approx(
            max(z.real for z in c.eigenvalues_F)
        )

    def test_monotone_in_gamma(self):
        rng = np.random.default_rng(59)
        m = make_random_model(rng)
        base = certify(m)
        bigger = jc.SystemModel(
            n_modes=2, M=m.M, N=m.N, Etilde=m.Etilde,
            gamma=m.gamma * 10.0, delta1=m.delta1, delta2=m.delta2,
        )
        if base.certified:
            assert certify(bigger).certified

    def test_invalid_model_rejected(self, paper_model):
        M = paper_model.M.copy()
        M[0, 1] += 1.0 * np.max(np.abs(M))
        bad = jc.SystemModel(
            n_modes=2, M=M, N=paper_model.N, Etilde=paper_model.Etilde,
            gamma=paper_model.gamma,
        )
        with pytest.raises(ValueError, match="validation"):
            certify(bad)

    @pytest.mark.parametrize("margin", [-5.0, np.nan, np.inf, 1.0])
    def test_bad_margin_rejected(self, paper_params, margin):
        # kappa2 = 1e12 puts the norm at 3.5x gamma/2, which margin = -5 used
        # to certify
        weak = build_model(paper_params.replace(kappa2=1e12))
        with pytest.raises(ValueError, match="margin"):
            certify(weak, margin=margin)

    def test_json_output(self, paper_certificate):
        import json

        d = json.loads(paper_certificate.to_json())
        assert d["certified"] is True
        assert d["hinf_norm"] == paper_certificate.hinf_norm


class TestIsCertified:
    def test_exported(self):
        assert jc.is_certified is is_certified
        assert "is_certified" in jc.__all__

    def test_paper_point(self, paper_model, paper_params):
        assert is_certified(paper_model)
        assert not is_certified(build_model(paper_params.replace(kappa2=1e12)))

    @pytest.mark.parametrize("gap", [1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10])
    def test_sound_near_gamma_half(self, paper_model, gap):
        # gamma/2 a relative `gap` above and below the true norm; certify's
        # bisection midpoint sits 1.6e-7 above the norm here, so from a gap
        # of 1e-7 down it refuses the models above
        above = dataclasses.replace(paper_model, gamma=2 * PAPER_NORM * (1 + gap))
        below = dataclasses.replace(paper_model, gamma=2 * PAPER_NORM * (1 - gap))
        assert is_certified(above)
        assert not is_certified(below)

    def test_agrees_with_certify(self, paper_params):
        rng = np.random.default_rng(61)
        models = [make_random_model(rng) for _ in range(60)]
        models += [build_model(paper_params.replace(kappa2=float(k2)))
                   for k2 in np.logspace(11, 13, 40)]
        verdicts = []
        for m in models:
            cert = certify(m)
            if abs(cert.hinf_norm / cert.gamma_half - 1) < 1e-5:
                continue
            assert is_certified(m) == cert.certified
            verdicts.append(cert.certified)
        assert len(verdicts) >= 95
        assert any(verdicts) and not all(verdicts)

    def test_zero_model(self):
        m = jc.SystemModel(
            n_modes=2, M=np.zeros((4, 4)), N=np.zeros((4, 4)),
            Etilde=np.zeros((1, 4)), gamma=1.0,
        )
        assert is_certified(m) is False

    def test_unstable_not_certified(self):
        # N2 = I pumps both modes: F = I/2, whose gain on the axis stays
        # below gamma/2, so only the Hurwitz test can refuse it
        N = np.block([[np.zeros((2, 2)), np.eye(2)], [np.eye(2), np.zeros((2, 2))]])
        m = jc.SystemModel(n_modes=2, M=np.zeros((4, 4)), N=N,
                           Etilde=build_zeta(), gamma=1e3)
        assert np.allclose(build_F(m), 0.5 * np.eye(4))
        assert not certify(m).hurwitz
        assert is_certified(m) is False

    def test_zero_channel_hurwitz(self):
        # Etilde = 0: G is identically zero, so any gamma certifies
        m = jc.SystemModel(
            n_modes=2, M=np.zeros((4, 4)), N=build_coupling(3.0, 11.0),
            Etilde=np.zeros((1, 4)), gamma=1e-30,
        )
        assert certify(m).certified
        assert is_certified(m) is True

    def test_invalid_model_same_error(self, paper_model):
        M = paper_model.M.copy()
        M[0, 1] += 1.0 * np.max(np.abs(M))
        bad = dataclasses.replace(paper_model, M=M)
        with pytest.raises(ValueError) as want:
            certify(bad)
        with pytest.raises(ValueError) as got:
            is_certified(bad)
        assert str(got.value) == str(want.value)
        assert "validation" in str(got.value)
