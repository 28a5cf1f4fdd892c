import dataclasses
import functools
import json
import math
import re

import numpy as np
import pytest

import jjcavity as jc
from jjcavity import stability, sweep
from jjcavity.builder import build_coupling, build_model, build_zeta
from jjcavity.model import _encode_complex
from jjcavity.stability import (
    StateSpace,
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


def signed_grid(ss):
    """0, +-600 log-spaced frequencies over [1, 1e15] and Im lambda(A): the
    stacked kernel's coverage across every scale of the signed axis."""
    grid = np.logspace(0.0, 15.0, 600)
    return np.unique(np.concatenate([[0.0], grid, -grid, np.linalg.eigvals(ss.A).imag]))


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
        omegas = signed_grid(ss)
        assert omegas.size > 2 * 600
        self.assert_matches_per_point(ss, 1j * omegas)

    def test_random_models(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            ss = state_space(make_random_model(rng))
            self.assert_matches_per_point(ss, 1j * signed_grid(ss))

    def test_off_axis_points(self):
        rng = np.random.default_rng(47)
        ss = state_space(make_random_model(rng))
        s = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        self.assert_matches_per_point(ss, s)
        assert transfer_response(ss, s[0]).shape == (1,)

    def test_stacked_systems_broadcast_over_their_rows(self, paper_model):
        # k systems (A[:, None], ...) over a (k, m) array of points: row i
        # is, bit for bit, system i's own 1-D call on s[i]
        rng = np.random.default_rng(53)
        systems = [state_space(paper_model)] + [state_space(make_random_model(rng)) for _ in range(6)]
        grid = np.logspace(0.0, 15.0, 600)
        s = np.array([1j * np.concatenate([[0.0], grid, -grid, np.linalg.eigvals(ss.A).imag])
                      for ss in systems])
        st = StateSpace(*(np.array([getattr(ss, name) for ss in systems])[:, None]
                          for name in ("A", "B", "C")))
        got = transfer_response(st, s)
        assert got.shape == s.shape
        for ss, row, g in zip(systems, s, got):
            assert np.array_equal(g, transfer_response(ss, row))


class TestStateSpace:
    """One type for one system and for a stack of systems of one order."""

    def test_loose_stacked_input_normalized(self):
        rng = np.random.default_rng(59)
        A = rng.standard_normal((5, 3, 3))
        B, C = rng.standard_normal((5, 3)), rng.standard_normal((5, 3))
        st = StateSpace(A=A, B=B, C=C)
        assert st.A.shape == (5, 3, 3) and st.A.dtype == complex
        assert st.B.shape == (5, 3, 1) and np.array_equal(st.B[..., 0], B)
        assert st.C.shape == (5, 1, 3) and np.array_equal(st.C[:, 0], C)

    @pytest.mark.parametrize("A", [np.zeros((2, 3)), np.zeros((4, 2, 3)), np.zeros(3)],
                             ids=["2x3", "stack-4x2x3", "vector"])
    def test_non_square_rejected(self, A):
        with pytest.raises(ValueError, match="A must be square"):
            StateSpace(A=A, B=np.zeros(3), C=np.zeros(3))

    def test_take(self):
        rng = np.random.default_rng(61)
        models = [make_random_model(rng) for _ in range(5)]
        M, N, Et = (np.array([getattr(m, name) for m in models]) for name in ("M", "N", "Etilde"))
        st = stability._realization(M, N, Et)
        assert st.take(range(5)) is st
        for j, m in enumerate(models):
            ss = state_space(m)
            s = 1j * signed_grid(ss)
            assert np.array_equal(transfer_response(st.take([j]), s), transfer_response(ss, s))

    @pytest.mark.parametrize("call", [
        lambda st: transfer_eval(st, 1j),
        hinf_norm,
        lambda st: is_hurwitz(st.A),
        lambda st: spectral_abscissa(st.A),
    ], ids=["transfer_eval", "hinf_norm", "is_hurwitz", "spectral_abscissa"])
    def test_one_system_functions_reject_a_stack(self, call):
        # a stack of 3 Hurwitz systems: each call names the shape it got
        # instead of answering for the first system or failing inside numpy
        st = StateSpace(A=-np.eye(2) * np.array([1.0, 2.0, 3.0])[:, None, None],
                        B=np.ones((3, 2)), C=np.ones((3, 2)))
        with pytest.raises(ValueError, match=r"takes one system.*got shape \(3, 2, 2\)"):
            call(st)

    def test_one_system_functions_reject_a_non_square_matrix(self):
        for F in (np.zeros((2, 3)), np.zeros(3)):
            for call in (is_hurwitz, spectral_abscissa):
                with pytest.raises(ValueError, match=rf"got shape {re.escape(str(F.shape))}"):
                    call(F)


class TestHinfNorm:
    def test_scalar_lag(self):
        ss = StateSpace(A=[[-2.0]], B=[[1.0]], C=[[1.0]])
        norm, freq = hinf_norm(ss)
        assert norm == pytest.approx(0.5, rel=1e-6)
        assert abs(freq) < 1e-3

    def test_zero_at_pole_moduli(self):
        # G(s) = s / ((s+1)(s+2)) vanishes at w = 0 = Im lambda; its norm is
        # 1/3 at +-sqrt(2)
        ss = StateSpace(A=np.diag([-1.0, -2.0]), B=[1.0, 1.0], C=[-1.0, 2.0])
        norm, freq = hinf_norm(ss)
        assert norm == pytest.approx(1.0 / 3.0, rel=1e-6)
        assert norm >= 1.0 / 3.0
        assert abs(freq) == pytest.approx(np.sqrt(2.0), rel=1e-3)

    @pytest.mark.parametrize("form", ["companion", "jordan"])
    def test_zero_at_every_eigenvalue_seed(self, form):
        # G(s) = s (s^2 + 1) / (s + 1)^4 vanishes at w = 0 and +-|lambda| = +-1;
        # its norm is 1/4 at sqrt(2) -+ 1.  In Jordan form the eigenvalues
        # and the gains at those three seeds come out exactly, as 0.0.
        if form == "companion":
            A = np.eye(4, k=1)
            A[3] = [-1.0, -4.0, -6.0, -4.0]
            C = [0.0, 1.0, 0.0, 1.0]
        else:
            A = np.eye(4, k=1) - np.eye(4)
            C = [-2.0, 4.0, -3.0, 1.0]
        ss = StateSpace(A=A, B=[0.0, 0.0, 0.0, 1.0], C=C)
        norm, freq = hinf_norm(ss)
        assert norm == pytest.approx(0.25, rel=1e-6)
        assert norm >= 0.25
        assert abs(transfer_eval(ss, 1j * freq)) == pytest.approx(0.25, rel=1e-6)

    def test_zero_transfer(self):
        ss = StateSpace(A=np.diag([-1.0, -2.0]), B=[1.0, 0.0], C=[0.0, 1.0])
        assert hinf_norm(ss) == (0.0, 0.0)

    def test_zero_seed_gains_of_nonzero_g_raise(self, monkeypatch):
        ss = StateSpace(A=[[-2.0]], B=[[1.0]], C=[[1.0]])
        monkeypatch.setattr(stability, "transfer_response", lambda ss, s: np.zeros(np.shape(s)))
        with pytest.raises(RuntimeError, match="zero gain"):
            hinf_norm(ss)

    def test_stall_raises(self, monkeypatch):
        # a crossing band the gains cannot confirm: the midpoint (w = 0) is
        # the peak already, so lo cannot rise and no level is returned
        ss = StateSpace(A=[[-2.0]], B=[[1.0]], C=[[1.0]])
        monkeypatch.setattr(stability, "_imag_axis_crossings",
                            lambda st, levels: [np.array([-1.0, 1.0])] * len(levels))
        with pytest.raises(RuntimeError, match=r"level 5\.0000\d+e-01 still crossed; lower bound 5\.0+e-01"):
            hinf_norm(ss)

    @pytest.mark.parametrize("max_iter, message", [
        (1, "level 3.328202e-01 still crossed; lower bound 3.328201e-01 at -1.500000e+00 rad/s"),
        (2, "level 3.333183e-01 still crossed; lower bound 3.333182e-01 at -1.400000e+00 rad/s"),
    ])
    def test_out_of_steps_raises(self, monkeypatch, max_iter, message):
        # G(s) = s / ((s+1)(s+2)) peaks at +-sqrt(2); unpolished, lo is the
        # best seed's gain, at w = -1.5, and the midpoint -1.4 of the forced
        # crossings beats it.  After the last test no candidate is measured:
        # the message names the level, lo and frequency of the last polish
        monkeypatch.setattr(stability, "HINF_MAX_ITER", max_iter)
        monkeypatch.setattr(stability, "HINF_POLISH_STEPS", 0)
        monkeypatch.setattr(stability, "_imag_axis_crossings",
                            lambda st, levels: [np.array([-1.6, -1.2])] * len(levels))
        ss = StateSpace(A=np.diag([-1.0, -2.0]), B=[1.0, 1.0], C=[-1.0, 2.0])
        with pytest.raises(RuntimeError) as exc:
            hinf_norm(ss)
        assert str(exc.value) == f"H-infinity iteration failed: {message}, abscissa -1.000000e+00"

    def test_paper_value(self, paper_certificate):
        assert paper_certificate.hinf_norm == pytest.approx(5.5554e-13, rel=1e-3)

    def test_not_hurwitz_rejected(self):
        ss = StateSpace(A=[[1.0]], B=[[1.0]], C=[[1.0]])
        with pytest.raises(ValueError, match="Hurwitz"):
            hinf_norm(ss)

    @pytest.mark.parametrize("name", ["A", "B", "C"])
    @pytest.mark.parametrize("value", [np.nan, complex(0.0, -np.inf)], ids=["nan", "inf"])
    def test_nonfinite_system_rejected(self, monkeypatch, name, value):
        # checked before any LAPACK call: `_spectra` is never reached
        monkeypatch.setattr(stability, "_spectra", None)
        parts = {"A": np.diag([-1.0, -2.0]), "B": np.array([1.0, 1.0]), "C": np.array([-1.0, 2.0])}
        parts[name] = parts[name].astype(complex)
        parts[name].flat[-1] = value
        message = f"hinf_norm takes a finite system: {name} has a non-finite entry"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            hinf_norm(StateSpace(**parts))

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


@pytest.fixture(scope="module")
def stall_sample():
    """300 `random_params` draws (seed 5) times 25 kappa2 values in
    [1e10, 1e14]: 7500 physical models, every one Hurwitz, as one stack of
    realizations with its spectra.  Below the rel_tol floor `hinf_norm` stalls
    on some of them (4 at 1e-8)."""
    rng = np.random.default_rng(5)
    M, N, Et = [], [], []
    for p in [random_params(rng) for _ in range(300)]:
        model = build_model(p)
        for k2 in np.logspace(10, 14, 25):
            M.append(model.M)
            N.append(build_coupling(p.kappa1, float(k2)))
            Et.append(model.Etilde)
    st = stability._realization(np.array(M), np.array(N), np.array(Et))
    spectra = stability._spectra(st.A)
    assert spectra[3].all()
    return st, spectra


class TestRelTolFloor:
    def test_below_floor_rejected(self, paper_model):
        with pytest.raises(ValueError, match=r"rel_tol 1e-08 is below the resolution floor 1e-07"):
            hinf_norm(state_space(paper_model), rel_tol=1e-8)

    def test_floor_accepted(self, paper_model):
        norm, _ = hinf_norm(state_space(paper_model), rel_tol=stability.HINF_MIN_REL_TOL)
        assert norm == pytest.approx(PAPER_NORM, rel=2e-7)

    @pytest.mark.parametrize("rel_tol", [stability.HINF_DEFAULT_REL_TOL, stability.HINF_MIN_REL_TOL])
    def test_no_stall_on_physical_sample(self, stall_sample, rel_tol):
        st, spectra = stall_sample
        failed = [r for r in stability._hinf_norms(st, spectra, rel_tol) if isinstance(r, Exception)]
        assert failed == []


class TestRescaledRealization:
    """`hinf_norm` reads G, not the way it is written: the paper
    realization with B and C out of balance, or in another time unit, gives
    the paper realization's norm, and an A with no entry near 1 is Hurwitz
    by the relative rule alone."""

    @pytest.fixture(scope="class")
    def paper(self, paper_model):
        ss = state_space(paper_model)
        return ss, hinf_norm(ss)

    @pytest.mark.parametrize("c", [1e4, 1e-4, 1e6, 1e-6, 1e8, 1e-8])
    def test_input_output_split(self, paper, c):
        ss, (norm, freq) = paper
        got, at = hinf_norm(StateSpace(ss.A, ss.B * c, ss.C / c))
        assert got == pytest.approx(norm, rel=2.3e-16, abs=0.0)
        assert at == pytest.approx(freq, rel=1e-12)

    @pytest.mark.parametrize("w", [1e-18, 1e-15, 1e-12, 1e-6, 1e6])
    def test_time_unit(self, paper, w):
        # C (sI - A w)^-1 B w = G(s / w): the same norm, at w times the frequency
        ss, (norm, freq) = paper
        got, at = hinf_norm(StateSpace(ss.A * w, ss.B * w, ss.C))
        assert got == pytest.approx(norm, rel=2.3e-16, abs=0.0)
        assert at == pytest.approx(w * freq, rel=1e-12)

    @pytest.mark.parametrize("B, C", [([1.0, 1.0], [0.0, 0.0]), ([0.0, 0.0], [1.0, 1.0])], ids=["C", "B"])
    def test_zero_map_is_not_balanced(self, B, C):
        # with B or C zero, G == 0: the norm is (0, 0) from the Markov
        # parameters, with no level-set test
        assert hinf_norm(StateSpace(np.diag([-1.0, -2.0]), B, C)) == (0.0, 0.0)

    def test_tiny_rates_are_hurwitz(self):
        # G(s) = 1e-30 / (s + 1e-30) + 1e-30 / (s + 2e-30) peaks at G(0) = 1.5
        ss = StateSpace(np.diag([-1.0, -2.0]) * 1e-30, np.full(2, 1e-30), np.ones(2))
        assert is_hurwitz(ss.A)
        assert hinf_norm(ss) == (pytest.approx(1.5 * (1.0 + stability.HINF_DEFAULT_REL_TOL / 5.0), rel=1e-15), 0.0)


class TestNonHurwitzRows:
    def test_undamped_row_takes_no_solve(self, paper_model, monkeypatch):
        # N = 0 and a diagonal M: F = diag(-2i, -3i, 2i, 3i), so every
        # seed Im lambda(F) is a pole of G and a solve there would raise
        # LinAlgError.  `_hinf_norms` gives that row (nan, nan), and every
        # solve it makes is on the paper row alone.
        undamped = jc.SystemModel(n_modes=2, M=np.diag([2.0, 3.0, 2.0, 3.0]), N=np.zeros((4, 4)),
                                  Etilde=build_zeta(), gamma=1.0)
        want = hinf_norm(state_space(paper_model))
        solve, rows = np.linalg.solve, []

        def counted(a, b):
            rows.append(len(a))
            return solve(a, b)

        st = realized([undamped, paper_model])
        monkeypatch.setattr(np.linalg, "solve", counted)
        (norm, freq), paper = stability._hinf_norms(st, stability._spectra(st.A), stability.HINF_DEFAULT_REL_TOL)
        assert np.isnan([norm, freq]).all()
        assert paper == want
        assert rows and set(rows) == {1}


def realized(models):
    """The realizations of `models`, all of one order, as one stack."""
    M, N, Etilde = (np.array([getattr(m, k) for m in models]) for k in ("M", "N", "Etilde"))
    return stability._realization(M, N, Etilde)


def bench_style_models(paper_params, rng, count):
    """Models around the published point as the benchmark draws them: the
    constants within 5%, kappa2 log-uniform over [1e11, 1e13]."""
    out = []
    for _ in range(count):
        scaled = {k: getattr(paper_params, k) * rng.uniform(0.95, 1.05) for k in ("omega", "g", "U", "Jp", "kappa1")}
        out.append(build_model(paper_params.replace(kappa2=10.0 ** rng.uniform(11.0, 13.0), **scaled)))
    return out


class TestPolishStart:
    """With no Newton step `_polish` returns each start and, bit for bit,
    the gain `_row_gains` measures there: a start picked by `_row_gains`
    and then polished carries the very gain it was picked by.  With its
    steps, a stack gives each row what the row gives alone."""

    def test_start_gain_is_row_gain(self, paper_model, paper_params, monkeypatch):
        rng = np.random.default_rng(19)
        models = [paper_model] + bench_style_models(paper_params, rng, 12)
        models += [make_random_model(rng) for _ in range(12)]
        st = realized(models)
        ev = stability._spectra(st.A)[0]
        signed = np.abs(ev).max(axis=1, keepdims=True) * rng.uniform(-3.0, 3.0, (len(models), 8))
        monkeypatch.setattr(stability, "HINF_POLISH_STEPS", 0)
        for w in (stability._seeds(ev), signed):
            want = stability._row_gains(st, w)
            for j in range(w.shape[1]):
                gain, at = stability._polish(st, w[:, j], stability.HINF_DEFAULT_REL_TOL)
                assert gain.tolist() == want[:, j].tolist()
                assert at.tolist() == w[:, j].tolist()

    def test_stack_gives_each_row_alone(self, paper_model, paper_params, monkeypatch):
        # with the default HINF_POLISH_STEPS the rows stop after 1 to 6
        # steps, so the stack is compacted between steps; every row still
        # returns, bit for bit, the (gain, w) it returns alone
        rng = np.random.default_rng(19)
        models = [paper_model] + bench_style_models(paper_params, rng, 12)
        models += [make_random_model(rng) for _ in range(12)]
        st = realized(models)
        ev = stability._spectra(st.A)[0]
        seeded = stability._row_peaks(st, stability._seeds(ev))[1]
        signed = np.abs(ev).max(axis=1) * rng.uniform(-3.0, 3.0, len(models))
        solve, sizes = np.linalg.solve, []
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: sizes.append(len(a)) or solve(a, b))
        for w in (seeded, signed):
            sizes.clear()
            gain, at = stability._polish(st, w, stability.HINF_DEFAULT_REL_TOL)
            assert sizes[0] == len(models) and len(set(sizes)) >= 3 and 0 < sizes[-1] < len(models)
            for j in range(len(models)):
                alone = stability._polish(st.take([j]), w[j:j + 1], stability.HINF_DEFAULT_REL_TOL)
                assert (gain[j], at[j]) == (alone[0][0], alone[1][0])


class TestSingularPolish:
    """A LinAlgError in `_polish`'s solve ends a stack of one with a
    RuntimeError that names the start, the level and the lower bound, so
    `hinf_norm` and `certify` never raise numpy's bare "Singular matrix".  A
    larger stack raises it, and `_decided` redoes each system alone."""

    @staticmethod
    def singular_polish(monkeypatch):
        """np.linalg.solve failing on the polish's [B, B, C^T] right-hand
        side, and only there."""
        solve = np.linalg.solve

        def failing(a, b):
            if b.shape[1] == 3:
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", failing)

    def test_stack_of_one_names_the_start(self, paper_model, monkeypatch):
        st = stability._stack_of_one(paper_model)
        spectra = stability._spectra(st.A)
        gain, start = (v[0] for v in stability._row_peaks(st, stability._seeds(spectra[0])))
        self.singular_polish(monkeypatch)
        message = (f"H-infinity polish failed: Singular matrix in the solve from {start:.6e} rad/s; "
                   f"level nan, lower bound {gain:.6e}, abscissa {spectra[1][0]:.6e}")
        with pytest.raises(RuntimeError, match=f"^{re.escape(message)}$"):
            hinf_norm(state_space(paper_model))
        with pytest.raises(RuntimeError, match=f"^{re.escape(message)}$"):
            certify(paper_model)

    def test_larger_stack_raises_and_decided_redoes_each(self, paper_model, paper_params, monkeypatch):
        models = [paper_model, build_model(paper_params.replace(kappa2=1e12))]
        st = realized(models)
        self.singular_polish(monkeypatch)
        with pytest.raises(np.linalg.LinAlgError):
            stability._hinf_norms(st, stability._spectra(st.A), stability.HINF_DEFAULT_REL_TOL)
        out = stability._decided(st, [m.gamma / 2.0 for m in models], stability._certificates)
        assert [type(r) for r in out] == [RuntimeError, RuntimeError]
        assert all(str(r).startswith("H-infinity polish failed: Singular matrix") for r in out)

    def test_threshold_search_names_kappa2_and_start(self, paper_params, monkeypatch):
        # the first tracked peak climbs from the seeds at the geometric
        # midpoint of the audit's flip interval; its singular solve is named
        # with that kappa2 and start, not numpy's bare message
        base = sweep._base(paper_params)
        audit = np.logspace(11, 13, sweep.THRESHOLD_AUDIT_POINTS)
        j = sweep._certified_at(base, audit).index(True)
        kappa2 = math.exp((math.log(audit[j - 1]) + math.log(audit[j])) / 2.0)
        start = stability._seed_start(sweep._rows(base, paper_params.kappa1, [kappa2]))
        self.singular_polish(monkeypatch)
        message = (f"threshold peak failed: Singular matrix in the climb from {start:.6e} rad/s "
                   f"at kappa2 {kappa2:.6e}")
        with pytest.raises(RuntimeError, match=f"^{re.escape(message)}$"):
            jc.find_threshold(paper_params, 1e11, 1e13)

    def test_recorded_nonnormal_system(self):
        # E = 6, seed 1, draw 192 of the non-normal family A = Q (D + T) Q^H
        # (n = 3, max |T| about 1e6 times the spectrum): the polish's LU met
        # an exact zero pivot there.  Whether it still does depends on the
        # LAPACK build, but numpy's bare error never escapes
        rng = np.random.default_rng(1)
        for _ in range(193):
            n = int(rng.integers(2, 7))
            Q = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
            D = np.diag(-10 ** rng.uniform(-2, 0.3, n) + 1j * rng.uniform(-2, 2, n))
            T = np.triu(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), 1) * 10 ** rng.uniform(0, 6)
            B, C = (rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(2))
        ss = StateSpace(Q @ (D + T) @ Q.conj().T, B, C)
        assert n == 3 and is_hurwitz(ss.A)
        try:
            norm, _ = hinf_norm(ss)
        except RuntimeError as exc:
            assert str(exc).startswith("H-infinity ")
        else:
            assert norm > 0.0


class TestRepeatedCrossings:
    """A crossing listed twice only adds an equal candidate, and the first
    of equal gains is picked: [a, a, b] gives the (norm, frequency) of
    [a, b], alone and in a stack whose rows have 1, 3 and 7 candidates."""

    @staticmethod
    def norms(monkeypatch, models, first):
        """`_hinf_norms` on the stack of `models`, unpolished (so that the
        first level-set test crosses), with the real crossings c of the
        first test replaced by first[j](c) on system j."""
        crossings, calls = stability._imag_axis_crossings, []

        def forced(st, levels):
            found = crossings(st, levels)
            if not calls:
                assert all(c.size == 2 for c in found)
                found = [f(c) for f, c in zip(first, found)]
            calls.append(found)
            return found

        st = realized(models)
        with monkeypatch.context() as m:
            m.setattr(stability, "_imag_axis_crossings", forced)
            m.setattr(stability, "HINF_POLISH_STEPS", 0)
            out = stability._hinf_norms(st, stability._spectra(st.A), stability.HINF_DEFAULT_REL_TOL)
        assert len(calls) >= 2
        return out

    @staticmethod
    def twice(c):
        return np.array([c[0], c[0], c[1]])

    @staticmethod
    def once(c):
        return c

    @staticmethod
    def one(c):
        return c[:1]

    @staticmethod
    def four(c):
        return np.linspace(c[0], c[1], 4)

    def test_alone(self, paper_model, monkeypatch):
        rng = np.random.default_rng(23)
        for model in [paper_model] + [make_random_model(rng) for _ in range(4)]:
            got = self.norms(monkeypatch, [model], [self.twice])
            assert got == self.norms(monkeypatch, [model], [self.once])
            assert isinstance(got[0], tuple)

    def test_in_a_ragged_stack(self, paper_model, monkeypatch):
        rng = np.random.default_rng(29)
        models = [make_random_model(rng), paper_model, make_random_model(rng)]
        got = self.norms(monkeypatch, models, [self.one, self.twice, self.four])
        assert got == self.norms(monkeypatch, models, [self.one, self.once, self.four])
        assert got[1] == self.norms(monkeypatch, [paper_model], [self.once])[0]
        assert all(isinstance(r, tuple) for r in got)


class TestCertify:
    def test_paper_certified(self, paper_certificate):
        assert paper_certificate.hurwitz
        assert paper_certificate.hinf_norm < paper_certificate.gamma_half
        assert paper_certificate.certified

    def test_below_threshold_not_certified(self, paper_params):
        cert = certify(build_model(paper_params.replace(kappa2=1e12)))
        assert cert.hurwitz
        assert not cert.certified

    def test_mutated_constant_matrices_leave_certify_unchanged(self, paper_model):
        # the realization keeps its own read-only J and Sigma per order;
        # the public builders hand out fresh, writable copies
        before = certify(paper_model)
        for make in (jc.j_matrix, jc.sigma_matrix):
            mat = make(2)
            assert mat.flags.writeable and mat is not make(2)
            mat[:] = 7.0
            assert not np.array_equal(make(2), mat)
        after = certify(paper_model)
        assert repr(after) == repr(before)

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

    def test_json_is_asdict_json(self, paper_model):
        # the paper certificate, a non-Hurwitz one (NaN norm) and a G == 0 one
        models = batch_models(paper_model)
        certs = [certify(models[i]) for i in (4, 3, 5)]
        assert not certs[1].hurwitz and np.isnan(certs[1].hinf_norm)
        assert certs[2].hinf_norm == 0.0
        for cert in certs:
            want = json.dumps(dataclasses.asdict(cert), default=_encode_complex)
            assert cert.to_json() == want


class TestIsCertified:
    def test_exported(self):
        assert jc.is_certified is is_certified
        assert "is_certified" in jc.__all__

    def test_paper_point(self, paper_model, paper_params):
        assert is_certified(paper_model)
        assert not is_certified(build_model(paper_params.replace(kappa2=1e12)))

    @pytest.mark.parametrize("gap", [1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10])
    def test_sound_near_gamma_half(self, paper_model, gap):
        # gamma/2 a relative `gap` above and below the true norm; certify
        # compares an upper bound that sits up to rel_tol/5 = 2e-7 above the
        # norm, so it never certifies the models below, and from a gap of
        # 1e-7 down it refuses the models above too
        above = dataclasses.replace(paper_model, gamma=2 * PAPER_NORM * (1 + gap))
        below = dataclasses.replace(paper_model, gamma=2 * PAPER_NORM * (1 - gap))
        assert is_certified(above)
        assert not is_certified(below)
        assert not certify(below).certified

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


class TestSpectrumOnce:
    """One 4x4 eigen-decomposition of F per model and verdict, none to build
    its realization; the 8x8 level-set matrices are the norm search's
    business and not counted."""

    @pytest.mark.parametrize("call, count", [
        (certify, 1),
        (is_certified, 1),
        (lambda m: jc.bode_csv(m, 1e9, 1e13, 50), 1),
        (state_space, 0),
        (lambda m: hinf_norm(state_space(m)), 1),
        (lambda m: is_hurwitz(build_F(m)), 1),
        (lambda m: spectral_abscissa(build_F(m)), 1),
    ], ids=["certify", "is_certified", "bode_csv", "state_space", "hinf_norm", "is_hurwitz",
            "spectral_abscissa"])
    def test_one_eigvals_of_F(self, paper_model, monkeypatch, call, count):
        eigvals, shapes = np.linalg.eigvals, []

        def counting(a):
            shapes.append(np.shape(a)[-2:])
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", counting)
        call(paper_model)
        assert shapes.count((4, 4)) == count

    def test_certificate_reads_the_one_spectrum_rule(self, paper_model):
        # the certificate's spectrum fields are, bit for bit, what the public
        # functions and `_spectra` give on F alone
        checked = 0
        for m in batch_models(paper_model):
            try:
                cert = certify(m)
            except ValueError:  # the invalid model
                continue
            F = build_F(m)
            assert cert.eigenvalues_F == tuple(np.linalg.eigvals(F).tolist())
            assert cert.spectral_abscissa == spectral_abscissa(F)
            assert cert.hurwitz is is_hurwitz(F)
            assert cert.hurwitz_tol == stability._spectra(F)[2]
            checked += 1
        assert checked == 16


def batch_models(paper_model):
    """Random draws mixed with a non-Hurwitz model, the paper model, a
    G == 0 model, an invalid model and a model of another order."""
    rng = np.random.default_rng(67)
    models = [make_random_model(rng) for _ in range(12)]
    N2 = np.block([[np.zeros((2, 2)), np.eye(2)], [np.eye(2), np.zeros((2, 2))]])
    unstable = jc.SystemModel(n_modes=2, M=np.zeros((4, 4)), N=N2, Etilde=build_zeta(), gamma=1e3)
    zero_channel = jc.SystemModel(n_modes=2, M=np.zeros((4, 4)), N=build_coupling(3.0, 11.0),
                                  Etilde=np.zeros((1, 4)), gamma=1.0)
    M = paper_model.M.copy()
    M[0, 1] += np.max(np.abs(M))
    invalid = dataclasses.replace(paper_model, M=M)
    one_mode = jc.SystemModel(n_modes=1, M=np.diag([2.0, 2.0]), N=np.diag([0.5, 0.5]),
                              Etilde=[[1.0, 0.0]], gamma=1.0)
    models[3:3] = [unstable, paper_model, zero_channel, invalid, one_mode]
    return models


def outcome(call, *args):
    try:
        result = call(*args)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    return result.to_json() if hasattr(result, "to_json") else repr(result)


def valid_order_two(paper_model):
    """The models of `batch_models` that one stack can hold: valid, of
    order 2.  The unstable model is at 3, the paper model at 4 and the
    G == 0 model at 5."""
    return [m for m in batch_models(paper_model) if m.n_modes == 2 and not jc.validate_model(m)]


def stacked(models, decide):
    """The outcome of each model of `models`, all of one order, from one
    `_decided` call with `decide` on their realizations as one stack."""
    found = stability._decided(realized(models), [m.gamma / 2.0 for m in models], decide)
    return [outcome(stability._raised, r) for r in found]


class TestBatch:
    """A model's result is bit for bit the same alone and inside a stack
    decided by `stability._decided`, the core that `certify`,
    `is_certified` and the sweeps share."""

    def test_decided_certificates_match_certify(self, paper_model):
        models = valid_order_two(paper_model)
        alone = [outcome(certify, m) for m in models]
        assert stacked(models, stability._certificates) == alone
        assert stacked(models[::-1], stability._certificates) == alone[::-1]
        assert '"hurwitz": false' in alone[3]
        assert json.loads(alone[5])["hinf_norm"] == 0.0
        with_margin = [outcome(certify, m, 0.3) for m in models]
        assert stacked(models, functools.partial(stability._certificates, margin=0.3)) == with_margin
        assert with_margin[4] != alone[4]  # the paper point sits about 18% under gamma/2

    def test_decided_verdicts_match_is_certified(self, paper_model):
        models = valid_order_two(paper_model)
        alone = [outcome(is_certified, m) for m in models]
        assert stacked(models, stability._verdicts) == alone
        assert "True" in alone and "False" in alone

    def test_stall_stays_in_its_row(self, paper_model, monkeypatch):
        # a crossing at w = 0, a seed already, cannot raise lo: only the
        # model with that A stalls
        models = valid_order_two(paper_model)
        want = [outcome(certify, m) for m in models]
        target = build_F(models[0])
        crossings = stability._imag_axis_crossings

        def forced(st, levels):
            hit = [np.array_equal(A, target) for A in st.A]
            return [np.array([0.0]) if h else c for h, c in zip(hit, crossings(st, levels))]

        monkeypatch.setattr(stability, "_imag_axis_crossings", forced)
        got = stacked(models, stability._certificates)
        assert got[0].startswith("RuntimeError: H-infinity iteration failed")
        assert got[1:] == want[1:]

    @pytest.mark.parametrize("size", [4, 8], ids=["spectrum", "level-set"])
    def test_linalg_error_falls_back_to_each_model_alone(self, paper_model, monkeypatch, size):
        models = valid_order_two(paper_model)
        want = [outcome(certify, m) for m in models]
        target = build_F(models[1])
        eigvals = np.linalg.eigvals

        def failing(a):
            if np.shape(a)[-1] == size and any(np.array_equal(x[:4, :4], target) for x in a.reshape(-1, size, size)):
                raise np.linalg.LinAlgError("forced failure")
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", failing)
        got = stacked(models, stability._certificates)
        assert got[1] == "LinAlgError: forced failure"
        assert got[:1] + got[2:] == want[:1] + want[2:]
        with pytest.raises(np.linalg.LinAlgError, match="forced"):
            certify(models[1])


class TestNonFiniteModel:
    """A model with a NaN entry or a broken symmetry fails validation by
    name, and never reaches LAPACK."""

    def test_invalid_models_never_reach_lapack(self, paper_model, monkeypatch):
        M = paper_model.M.copy()
        M[0, 3] += 0.1 * np.max(np.abs(M))
        asymmetric = dataclasses.replace(paper_model, M=M)
        M = paper_model.M.copy()
        M[0, 0] = np.nan
        nan_model = dataclasses.replace(paper_model, M=M)

        eigvals, shapes = np.linalg.eigvals, []

        def counting(a):
            shapes.append(np.shape(a))
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", counting)
        got = [outcome(call, m) for m in (asymmetric, nan_model) for call in (certify, is_certified)]
        assert shapes == []
        assert got[0] == got[1] and "M2 transpose-symmetry" in got[0]
        assert got[2:] == ["ValueError: model fails structural validation: "
                           "M has a non-finite entry at (0,0)"] * 2


def level_set_only(st, spectra, gamma_half):
    """`_verdicts` without its refusal witness: the level-set test at
    gamma/2 on every Hurwitz system."""
    rows = np.flatnonzero(spectra[3])
    verdicts = [False] * len(gamma_half)
    if rows.size:
        crossings = stability._imag_axis_crossings(st.take(rows), [gamma_half[i] for i in rows])
        for i, c in zip(rows.tolist(), crossings):
            verdicts[i] = c.size == 0
    return verdicts


def witness_models(paper_params):
    """Random draws and paper-point models on a kappa2 grid across kappa2*,
    and random_params draws on a kappa2 grid: Hurwitz models on both sides
    of gamma/2."""
    rng = np.random.default_rng(71)
    models = [make_random_model(rng) for _ in range(40)]
    for p in [paper_params] + [random_params(rng) for _ in range(3)]:
        models += [build_model(p.replace(kappa2=float(k2))) for k2 in np.logspace(10, 14, 25)]
    return models


class TestRefusalWitness:
    """`_verdicts` refuses a Hurwitz model without the level-set test when
    its gain at some Im lambda(F) reaches gamma/2, and reads what the
    level-set test alone reads."""

    @staticmethod
    def level_set_rows(monkeypatch):
        """The state matrices that reach the 8x8 level-set test."""
        crossings, seen = stability._imag_axis_crossings, []

        def recorded(st, levels):
            seen.extend(st.A)
            return crossings(st, levels)

        monkeypatch.setattr(stability, "_imag_axis_crossings", recorded)
        return seen

    def test_equals_level_set_only_rule(self, paper_params):
        models = witness_models(paper_params)
        got = stacked(models, stability._verdicts)
        assert got == stacked(models, level_set_only)
        assert "True" in got and "False" in got

    def test_refused_rows_have_a_measured_gain_at_gamma_half(self, paper_params, monkeypatch):
        models = witness_models(paper_params)
        seen = self.level_set_rows(monkeypatch)
        got = stacked(models, stability._verdicts)
        refused = 0
        for m, verdict in zip(models, got):
            F = build_F(m)
            if not is_hurwitz(F) or any(np.array_equal(A, F) for A in seen):
                continue
            assert verdict == "False"
            ss = state_space(m)
            gains = [abs(transfer_eval(ss, 1j * w)) for w in np.linalg.eigvals(F).imag]
            assert max(gains) >= m.gamma / 2.0
            refused += 1
        assert refused >= 40  # the witness does decide rows

    def test_imaginary_axis_model_reads_false(self, paper_params, monkeypatch):
        # N = 0 and a diagonal M: F has the exact spectrum +-2i, +-3i, where
        # a probe would be a singular solve; it is not Hurwitz, so neither
        # the probe nor the level-set test sees it
        undamped = jc.SystemModel(n_modes=2, M=np.diag([2.0, 3.0, 2.0, 3.0]), N=np.zeros((4, 4)),
                                  Etilde=build_zeta(), gamma=1.0)
        assert not stability._spectra(build_F(undamped))[3]
        below, above = (build_model(paper_params.replace(kappa2=k2)) for k2 in (1e12, 2.5e12))
        seen = self.level_set_rows(monkeypatch)
        assert stacked([undamped, below, above], stability._verdicts) == ["False", "False", "True"]
        assert len(seen) == 1 and np.array_equal(seen[0], build_F(above))

    @pytest.mark.parametrize("fails", ["raises", "nan"])
    def test_failed_probe_refutes_nothing(self, paper_params, monkeypatch, fails):
        models = witness_models(paper_params)
        want = stacked(models, stability._verdicts)

        def failing(ss, s):
            if fails == "raises":
                raise np.linalg.LinAlgError("forced failure")
            return np.full(np.shape(s), np.nan + 0j)

        monkeypatch.setattr(stability, "transfer_response", failing)
        seen = self.level_set_rows(monkeypatch)
        assert stacked(models, stability._verdicts) == want
        assert len(seen) == sum(is_hurwitz(build_F(m)) for m in models)
