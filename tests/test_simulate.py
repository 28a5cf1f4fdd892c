import numpy as np
import pytest

from jjcavity.simulate import (
    STEP_BLOCK,
    DecayEstimate,
    Trajectory,
    default_timescales,
    estimate_decay,
    integrate_mean,
    slow_mode_vector,
)
from jjcavity.stability import build_F, spectral_abscissa


def rk4_reference(F, v0, t_end, dt):
    """The four-stage Runge-Kutta loop, stage by stage."""
    F = np.asarray(F, dtype=complex)
    v = np.asarray(v0, dtype=complex)
    out = [v]
    for _ in range(int(round(t_end / dt))):
        k1 = F @ v
        k2 = F @ (v + 0.5 * dt * k1)
        k3 = F @ (v + 0.5 * dt * k2)
        k4 = F @ (v + dt * k3)
        v = v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(v)
    return np.array(out)


def assert_matches_rk4_loop(F, v0, t_end, dt):
    traj = integrate_mean(F, v0, t_end, dt)
    ref = rk4_reference(F, v0, t_end, dt)
    assert traj.v.shape == ref.shape
    # the two orderings round differently: ~eps per step, and up to ~1e4
    # steps, so 1e-10 leaves two orders of headroom over 2.2e-16 * 1e4
    err = np.linalg.norm(traj.v - ref, axis=1)
    assert np.all(err <= 1e-10 * np.linalg.norm(ref, axis=1))


def expm_series(A, order=40):
    """Taylor-series matrix exponential; independent of the integrator."""
    out = np.eye(A.shape[0], dtype=complex)
    term = np.eye(A.shape[0], dtype=complex)
    for k in range(1, order + 1):
        term = term @ A / k
        out = out + term
    return out


class TestIntegrateMean:
    def test_scalar_decay(self):
        traj = integrate_mean(np.array([[-1.0]]), [1.0], t_end=2.0, dt=0.01)
        assert traj.v[-1, 0].real == pytest.approx(np.exp(-2.0), rel=1e-8)

    def test_matches_matrix_exponential(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        F = X - 2.5 * np.eye(4)
        F = F / np.max(np.abs(F))
        v0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        traj = integrate_mean(F, v0, t_end=1.0, dt=0.01)
        exact = expm_series(F) @ v0
        assert np.max(np.abs(traj.v[-1] - exact)) < 1e-8 * np.linalg.norm(v0)

    def test_fourth_order_convergence(self):
        """Halving dt shrinks the endpoint error by ~2^4."""
        rng = np.random.default_rng(7)
        X = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        F = X - 2.5 * np.eye(4)
        F = F / np.max(np.abs(F))
        v0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        exact = expm_series(2.0 * F, order=60) @ v0
        errs = []
        for dt in [0.1, 0.05, 0.025, 0.0125]:
            traj = integrate_mean(F, v0, t_end=2.0, dt=dt)
            errs.append(np.linalg.norm(traj.v[-1] - exact))
        ratios = [a / b for a, b in zip(errs, errs[1:])]
        for r in ratios:
            assert 14.0 < r < 18.0

    def test_step_guard(self):
        F = -1e12 * np.eye(2)
        with pytest.raises(ValueError, match="max-abs"):
            integrate_mean(F, [1.0, 0.0], t_end=1.0, dt=1e-3)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="incompatible"):
            integrate_mean(np.eye(3), [1.0, 0.0], t_end=1.0, dt=0.01)

    def test_bad_steps(self):
        with pytest.raises(ValueError):
            integrate_mean(-np.eye(2), [1.0, 0.0], t_end=1.0, dt=0.0)
        with pytest.raises(ValueError):
            integrate_mean(-np.eye(2), [1.0, 0.0], t_end=0.001, dt=0.01)

    @pytest.mark.parametrize("t_end, dt", [(1.0, np.nan), (np.nan, 0.01),
                                           (np.inf, 0.01), (1.0, np.inf)])
    def test_nonfinite_steps(self, t_end, dt):
        with pytest.raises(ValueError, match="finite"):
            integrate_mean(-np.eye(2), [1.0, 0.0], t_end=t_end, dt=dt)

    def test_matches_stage_loop_at_paper_point(self, paper_model):
        F = build_F(paper_model)
        rng = np.random.default_rng(5)
        dt, t_end = default_timescales(F)
        for v0 in (slow_mode_vector(F), rng.standard_normal(4) + 1j * rng.standard_normal(4)):
            assert_matches_rk4_loop(F, v0, t_end, dt)

    @pytest.mark.parametrize("n_steps", [1, STEP_BLOCK - 1, STEP_BLOCK, STEP_BLOCK + 1, 6541])
    def test_blocks_match_stage_loop(self, paper_model, n_steps):
        # partial, exact and one-over blocks, and the paper point's default
        # run of 6541 steps, from a state that excites every mode
        F = build_F(paper_model)
        dt, _ = default_timescales(F)
        rng = np.random.default_rng(n_steps)
        v0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        assert_matches_rk4_loop(F, v0, n_steps * dt, dt)

    def test_matches_stage_loop_random_hurwitz(self):
        rng = np.random.default_rng(3)
        checked = 0
        while checked < 20:
            F = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            absc = spectral_abscissa(F)
            if absc >= -0.05:
                continue
            v0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            dt = 0.05 / np.max(np.abs(F))
            assert_matches_rk4_loop(F, v0, 10.0 / abs(absc), dt)
            checked += 1

    def test_time_axis(self):
        traj = integrate_mean(-np.eye(2), [1.0, 1.0], t_end=1.0, dt=0.1)
        assert traj.t.shape == (11,)
        assert traj.t[0] == 0.0
        assert traj.t[-1] == pytest.approx(1.0)


class TestEstimateDecay:
    def test_pure_exponential(self):
        traj = integrate_mean(np.array([[-1.5]]), [2.0], t_end=5.0, dt=0.01)
        est = estimate_decay(traj)
        # norm^2 decays at twice the amplitude rate
        assert est.c2 == pytest.approx(3.0, rel=1e-6)
        assert est.c1 == pytest.approx(1.0, rel=1e-6)
        assert est.fit_residual < 1e-10

    def test_growing_trajectory_negative_rate(self):
        traj = integrate_mean(np.array([[0.5]]), [1.0], t_end=4.0, dt=0.01)
        est = estimate_decay(traj)
        assert est.c2 == pytest.approx(-1.0, rel=1e-6)

    def test_zero_trajectory_rejected(self):
        traj = Trajectory(t=np.linspace(0, 1, 50), v=np.zeros((50, 2), dtype=complex))
        with pytest.raises(ValueError, match="zero"):
            estimate_decay(traj)

    def test_too_few_samples(self):
        traj = integrate_mean(-np.eye(2), [1.0, 0.0], t_end=0.05, dt=0.01)
        with pytest.raises(ValueError, match="samples"):
            estimate_decay(traj)

    def test_floor_truncation(self):
        # deep decay: samples below the floor are excluded from the window
        traj = integrate_mean(np.array([[-4.0]]), [1.0], t_end=10.0, dt=0.01)
        est = estimate_decay(traj)
        assert est.t_window[1] < 10.0
        assert est.c2 == pytest.approx(8.0, rel=1e-6)

    def test_json(self):
        import json

        est = DecayEstimate(c1=1.0, c2=2.0, fit_residual=0.0, t_window=(0.0, 1.0))
        d = json.loads(est.to_json())
        assert d["c2"] == 2.0
        assert d["t_window"] == [0.0, 1.0]


class TestPaperDynamics:
    def test_slow_mode_decay_rate(self, paper_model):
        """The slow eigenmode decays at the cavity linewidth kappa1."""
        F = build_F(paper_model)
        v0 = slow_mode_vector(F)
        dt, t_end = default_timescales(F)
        traj = integrate_mean(F, v0, t_end=t_end, dt=dt)
        est = estimate_decay(traj)
        assert est.c2 == pytest.approx(1e11, rel=0.05)

    def test_slow_mode_is_eigenvector(self, paper_model):
        F = build_F(paper_model)
        v = slow_mode_vector(F)
        assert np.linalg.norm(v) == pytest.approx(1.0)
        w = F @ v
        lam = v.conj() @ w
        assert np.linalg.norm(w - lam * v) < 1e-6 * np.abs(lam)

    def test_generic_state_eventually_slow(self, paper_model):
        """After the fast modes die, any state decays at the slow rate."""
        F = build_F(paper_model)
        rng = np.random.default_rng(13)
        v0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        dt, t_end = default_timescales(F)
        traj = integrate_mean(F, v0, t_end=t_end, dt=dt)
        half = traj.t >= t_end / 2
        tail = Trajectory(t=traj.t[half], v=traj.v[half])
        est = estimate_decay(tail)
        assert est.c2 == pytest.approx(1e11, rel=0.05)

    def test_default_timescales_guard(self, paper_model):
        F = build_F(paper_model)
        dt, t_end = default_timescales(F)
        assert dt * np.max(np.abs(F)) <= 0.1
        assert t_end > 100 * dt

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError, match="timescale"):
            default_timescales(np.zeros((2, 2)))
