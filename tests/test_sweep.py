import math

import numpy as np
import pytest

from jjcavity.builder import build_model
from jjcavity.stability import build_F, certify
from jjcavity.sweep import (
    bode_csv,
    find_threshold,
    format_csv,
    kappa1_sensitivity,
    sweep_kappa2,
)

from conftest import random_params

# frozen regression values (rel_tol 1e-3 bisection over [2e12, 2.4e12])
THRESHOLD_KAPPA2 = 2169220554435.491
SENSITIVITY_RATIO = 1.0057789522954417


class TestSweepKappa2:
    def test_records_in_input_order(self, paper_params):
        grid = [1e12, 2.5e12, 2e12]
        recs = sweep_kappa2(paper_params, grid)
        assert [r.kappa2 for r in recs] == grid
        assert all(r.error is None for r in recs)

    def test_certified_flag_flips(self, paper_params):
        recs = sweep_kappa2(paper_params, [1e12, 2.5e12])
        assert not recs[0].certified
        assert recs[1].certified
        assert all(r.hurwitz for r in recs)

    def test_norm_decreases_with_coupling(self, paper_params):
        recs = sweep_kappa2(paper_params, np.logspace(12, 13, 6))
        norms = [r.hinf_norm for r in recs]
        assert all(a > b for a, b in zip(norms, norms[1:]))

    def test_bad_row_does_not_abort(self, paper_params):
        recs = sweep_kappa2(paper_params, [-1.0, 2.5e12])
        assert recs[0].error is not None
        assert np.isnan(recs[0].hinf_norm)
        assert recs[1].certified
        assert recs[1].error is None


class TestFindThreshold:
    def test_paper_bracket(self, paper_params):
        star = find_threshold(paper_params, 2e12, 2.4e12, rel_tol=1e-3)
        assert star == pytest.approx(THRESHOLD_KAPPA2, rel=1e-3)

    def test_result_separates_bracket(self, paper_params):
        star = find_threshold(paper_params, 2e12, 2.4e12, rel_tol=1e-3)
        from jjcavity import build_model, certify

        assert not certify(build_model(paper_params.replace(kappa2=star * 0.99))).certified
        assert certify(build_model(paper_params.replace(kappa2=star * 1.01))).certified

    def test_invalid_bracket_already_certified(self, paper_params):
        with pytest.raises(ValueError, match="bracket invalid"):
            find_threshold(paper_params, 2.5e12, 3e12)

    def test_invalid_bracket_never_certified(self, paper_params):
        with pytest.raises(ValueError, match="bracket invalid"):
            find_threshold(paper_params, 1e11, 1e12)

    def test_bad_endpoints(self, paper_params):
        with pytest.raises(ValueError, match="lo"):
            find_threshold(paper_params, 2e12, 1e12)
        for rel_tol in (0.0, -1e-3, math.nan, math.inf):
            with pytest.raises(ValueError, match="rel_tol"):
                find_threshold(paper_params, 2e12, 2.4e12, rel_tol=rel_tol)

    def test_equals_bisection_on_certify(self, paper_params):
        # the level-set verdicts bisect to the same point as certify's
        # norm-based verdicts, bit for bit, on the paper point and two draws
        def certified(p, k2):
            return certify(build_model(p.replace(kappa2=k2))).certified

        def reference(p, lo, hi, rel_tol=1e-3):
            assert not certified(p, lo) and certified(p, hi)
            while hi - lo > rel_tol * lo:
                mid = math.sqrt(lo * hi)
                if certified(p, mid):
                    hi = mid
                else:
                    lo = mid
            return math.sqrt(lo * hi)

        rng = np.random.default_rng(43)
        cases = [paper_params]
        while len(cases) < 3:
            p = random_params(rng)
            if not certified(p, 1e11) and certified(p, 1e13):
                cases.append(p)
        for p in cases:
            assert find_threshold(p, 1e11, 1e13) == reference(p, 1e11, 1e13)


class TestBode:
    def test_grid_plus_resonance_seeds(self, paper_model):
        rows = bode_csv(paper_model, 1e10, 1e13, 50)
        omegas = [r.omega for r in rows]
        assert omegas == sorted(omegas)
        F = build_F(paper_model)
        for seed in np.abs(np.linalg.eigvals(F).imag):
            if 1e10 <= seed <= 1e13:
                assert any(np.isclose(w, seed, rtol=0, atol=0.5) for w in omegas)

    def test_magnitudes_below_certificate(self, paper_model, paper_certificate):
        rows = bode_csv(paper_model, 1e8, 1e14, 200)
        peak = max(r.magnitude for r in rows)
        assert peak <= paper_certificate.hinf_norm * (1.0 + 1e-6)

    def test_phase_range(self, paper_model):
        rows = bode_csv(paper_model, 1e10, 1e13, 50)
        assert all(-np.pi <= r.phase <= np.pi for r in rows)

    def test_singular_frequency_is_an_error_row(self):
        from jjcavity.builder import build_zeta
        from jjcavity.model import SystemModel

        # F = diag(-2i, 0, 2i, 0): the resonance seed omega = 2 is an eigenvalue
        m = SystemModel(n_modes=2, M=np.diag([2.0, 0.0, 2.0, 0.0]), N=np.zeros((4, 4)),
                        Etilde=build_zeta(), gamma=1.0)
        rows = bode_csv(m, 1, 10, 5)
        assert len(rows) == 6
        bad = [r for r in rows if r.omega == 2.0]
        assert len(bad) == 1
        assert "eigenvalue" in bad[0].error
        assert np.isnan(bad[0].magnitude) and np.isnan(bad[0].phase)
        good = [r for r in rows if r.omega != 2.0]
        assert all(r.error is None and np.isfinite(r.magnitude) and np.isfinite(r.phase)
                   for r in good)

    def test_bad_range(self, paper_model):
        with pytest.raises(ValueError):
            bode_csv(paper_model, 1e13, 1e10, 50)
        with pytest.raises(ValueError):
            bode_csv(paper_model, 1e10, 1e13, 1)

    @pytest.mark.parametrize("lo, hi", [(1e9, np.inf), (1e9, np.nan), (np.nan, 1e13),
                                        (-np.inf, 1e13), (np.inf, np.inf)])
    def test_nonfinite_range(self, paper_model, lo, hi):
        with pytest.raises(ValueError, match="finite"):
            bode_csv(paper_model, lo, hi, 10)


class TestSensitivity:
    def test_flat_in_kappa1(self, paper_params):
        """The certificate norm barely moves across a decade of cavity loss."""
        pairs = kappa1_sensitivity(
            paper_params, np.logspace(10, 12, 9), kappa2_fixed=2.5e12
        )
        norms = [h for _, h in pairs]
        ratio = max(norms) / min(norms)
        assert ratio < 1.01
        assert ratio == pytest.approx(SENSITIVITY_RATIO, rel=1e-5)

    def test_input_order_kept(self, paper_params):
        grid = [1e12, 1e10, 1e11]
        pairs = kappa1_sensitivity(paper_params, grid, kappa2_fixed=2.5e12)
        assert [k for k, _ in pairs] == grid


class TestFormatCsv:
    def test_header_and_precision(self):
        text = format_csv(["a", "b"], [[1.0 / 3.0, True], [2.0, False]])
        lines = text.strip().split("\n")
        assert lines[0] == "a,b"
        assert lines[1] == "0.33333333333333331,true"
        assert lines[2] == "2,false"
        assert text.endswith("\n")

    def test_round_trip(self):
        x = 5.5562431815176533e-13
        text = format_csv(["x"], [[x]])
        assert float(text.strip().split("\n")[1]) == x
