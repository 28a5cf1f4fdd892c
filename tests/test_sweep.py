import dataclasses
import logging
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from jjcavity import builder, stability, sweep
from jjcavity import model as jmodel
from jjcavity.builder import build_coupling, build_model
from jjcavity.stability import build_F, certify, is_certified, state_space
from jjcavity.sweep import (
    BodeRow,
    SweepRecord,
    bode_csv,
    find_threshold,
    format_csv,
    kappa1_sensitivity,
    sweep_kappa2,
)

from conftest import random_params
from test_closed_form import closed_form_threshold

# frozen regression values (rel_tol 1e-3 safeguarded Newton over [2e12, 2.4e12])
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
        for lo, hi in ((2e12, 1e12), (1e11, math.inf), (math.nan, 1e13)):
            with pytest.raises(ValueError, match="need finite 0 < lo < hi"):
                find_threshold(paper_params, lo, hi)
        for rel_tol in (0.0, -1e-3, math.nan, math.inf):
            with pytest.raises(ValueError, match="rel_tol"):
                find_threshold(paper_params, 2e12, 2.4e12, rel_tol=rel_tol)

    def test_audit_catches_non_monotone_predicate(self, paper_params, monkeypatch):
        # certified on [2e11, 4e11) and from 1e12 up: the audit must name the
        # audit pair that straddles 4e11
        def certified(p, k2):
            return 2e11 <= k2 < 4e11 or k2 >= 1e12

        monkeypatch.setattr(sweep, "_certified_at", lambda p, ks: [certified(p, k) for k in ks])
        monkeypatch.setattr(sweep, "_peak_at", lambda base, k2, w: pytest.fail("peak after a failed audit"))
        audit = np.logspace(11, 13, sweep.THRESHOLD_AUDIT_POINTS)
        k = int(np.searchsorted(audit, 4e11))
        with pytest.raises(RuntimeError, match="not monotone") as exc:
            find_threshold(paper_params, 1e11, 1e13)
        assert f"kappa2={audit[k - 1]:.6e} but not at {audit[k]:.6e}" in str(exc.value)

    def test_audit_names_the_first_flip(self, paper_params, monkeypatch):
        # certified on [2e11, 4e11), on [6e11, 8e11) and from 1e12 up: two
        # certified-to-refused flips, and the error names the first
        def certified(p, k2):
            return 2e11 <= k2 < 4e11 or 6e11 <= k2 < 8e11 or k2 >= 1e12

        monkeypatch.setattr(sweep, "_certified_at", lambda p, ks: [certified(p, k) for k in ks])
        monkeypatch.setattr(sweep, "_peak_at", lambda base, k2, w: pytest.fail("peak after a failed audit"))
        audit = np.logspace(11, 13, sweep.THRESHOLD_AUDIT_POINTS)
        first, second = (int(np.searchsorted(audit, k)) for k in (4e11, 8e11))
        assert certified(None, audit[second - 1]) and not certified(None, audit[second])
        with pytest.raises(RuntimeError) as exc:
            find_threshold(paper_params, 1e11, 1e13)
        assert str(exc.value) == ("certified predicate is not monotone on the bracket: "
                                  f"certified at kappa2={audit[first - 1]:.6e} but not at {audit[first]:.6e}")

    # np.logspace returns 2e12 and 2.4e12 an ulp off, 1e11 and 1e13 exactly
    @pytest.mark.parametrize("lo, hi", [(1e11, 1e13), (2e12, 2.4e12)])
    def test_each_verdict_once_audit_ends_are_bracket(self, paper_params, monkeypatch, lo, hi):
        seen = []

        def certified(p, k2):
            seen.append(k2)
            return k2 >= 2.1692e12

        monkeypatch.setattr(sweep, "_certified_at", lambda p, ks: [certified(p, k) for k in ks])
        # the peak seam: gamma/2 at 2.1692e12, falling as 1/kappa2, and the
        # norm there
        gamma_half = build_model(paper_params).gamma / 2.0
        monkeypatch.setattr(sweep, "_peak_at", lambda base, k2, w: (
            gamma_half * 2.1692e12 / k2, 1.0, -gamma_half * 2.1692e12 / k2 ** 2, None))
        monkeypatch.setattr(sweep, "_norm_freq", lambda st, gain: None)
        find_threshold(paper_params, lo, hi)
        assert len(set(seen)) == len(seen)
        assert seen[0] == lo and seen[sweep.THRESHOLD_AUDIT_POINTS - 1] == hi

    def test_equals_closed_form(self, paper_params):
        # kappa2* from the closed-form peak, on the paper point and two draws
        # bracketed on [1e11, 1e13]
        def certified(p, k2):
            return certify(build_model(p.replace(kappa2=k2))).certified

        rng = np.random.default_rng(43)
        cases = [paper_params]
        while len(cases) < 3:
            p = random_params(rng)
            if not certified(p, 1e11) and certified(p, 1e13):
                cases.append(p)
        for p in cases:
            assert find_threshold(p, 1e11, 1e13) == pytest.approx(closed_form_threshold(p), rel=1e-8)

    @pytest.mark.parametrize("rel_tol", [1e-3, 1e-6])
    def test_verified_pair_on_draws(self, rel_tol):
        # the verdict flips across kappa2*(1 -+ rel_tol/2)
        rng = np.random.default_rng(7)
        for _ in range(8):
            p = random_params(rng)
            star = find_threshold(p, 1e10, 1e14, rel_tol)
            assert not is_certified(build_model(p.replace(kappa2=star * (1 - rel_tol / 2))))
            assert is_certified(build_model(p.replace(kappa2=star * (1 + rel_tol / 2))))

    def test_rel_tol_floor(self, paper_params, monkeypatch):
        # below the resolution of the pair's float verdicts a bracket cannot
        # be verified, so the search is refused before any verdict
        monkeypatch.setattr(sweep, "_certified_at", lambda base, ks: pytest.fail("audit ran"))
        for rel_tol in (1e-17, 9.9e-7):
            with pytest.raises(ValueError, match="below the floor 1e-06"):
                find_threshold(paper_params, 2e12, 2.4e12, rel_tol=rel_tol)
        for rel_tol in (2.0, 10.0):
            with pytest.raises(ValueError, match="rel_tol must be below 2"):
                find_threshold(paper_params, 2e12, 2.4e12, rel_tol=rel_tol)

    @staticmethod
    def counting(monkeypatch):
        """Per `find_threshold` call, one more entry in each list: its
        tracked peaks, full norms and verification pairs."""
        peaks, norms, pairs = [], [], []

        def counted(f, counts, pair=False):
            def call(*args):
                counts[-1] += not pair or len(args[1]) == 2
                return f(*args)
            return call

        monkeypatch.setattr(sweep, "_peak_at", counted(sweep._peak_at, peaks))
        monkeypatch.setattr(stability, "_hinf_norms", counted(stability._hinf_norms, norms))
        monkeypatch.setattr(sweep, "_certified_at", counted(sweep._certified_at, pairs, pair=True))
        return peaks, norms, pairs

    def test_at_most_five_peaks_and_one_norm_on_draws(self, monkeypatch):
        # 300 random_params draws bracketed on [1e10, 1e14]: no search fails,
        # none tracks more than 5 peaks or takes more than one full norm
        # after the audit, and the first verification pair holds
        peaks, norms, pairs = self.counting(monkeypatch)
        rng = np.random.default_rng(5)
        for _ in range(300):
            for counts in (peaks, norms, pairs):
                counts.append(0)
            find_threshold(random_params(rng), 1e10, 1e14)
        assert max(peaks) <= 5 and max(norms) <= 1 and pairs == [1] * 300

    def test_local_peak_takes_one_norm(self, monkeypatch):
        # the seventh seed-5 draw: the peak tracked from the seeds is a local
        # one, so the check at convergence finds a crossing, and one full norm
        # moves the tracker onto the highest peak
        rng = np.random.default_rng(5)
        p = [random_params(rng) for _ in range(7)][-1]
        peaks, norms, pairs = self.counting(monkeypatch)
        for counts in (peaks, norms, pairs):
            counts.append(0)
        star = find_threshold(p, 1e10, 1e14)
        assert norms == [1] and pairs == [1]
        assert star == pytest.approx(closed_form_threshold(p), rel=1e-8)


class TestThresholdSafeguard:
    """The search on synthetic peaks: the step falls back to bisection, and
    the answer still carries a verified pair inside the flip interval."""

    LO, HI, STAR = 1e11, 1e13, 2.1692e12

    def install(self, paper_params, monkeypatch, log_excess, slope_of, verdict_shift=0.0, pair=None,
                local=0.0):
        """Seams where log(norm/(gamma/2)) = log_excess(log kappa2), the
        peak's seam reports slope_of(kappa2, norm, true slope) and the
        verdict is the norm's, taken verdict_shift further along log kappa2,
        or `pair` for every verification pair when given.  A peak tracked
        from any frequency but "norm" is a local one, a factor
        exp(-local) below the norm; the check reports the norm's frequency
        "norm" for it when `local` is nonzero.  Returns the list of
        (kappa2 values, verdicts) of every verdict call."""
        gamma_half = build_model(paper_params).gamma / 2.0
        calls = []

        def norm(k2):
            return gamma_half * math.exp(log_excess(math.log(k2)))

        def peak_at(base, k2, w):
            h = 1e-7 * k2
            scale = 1.0 if w == "norm" else math.exp(-local)
            slope = slope_of(k2, norm(k2), (norm(k2 + h) - norm(k2 - h)) / (2 * h))
            return scale * norm(k2), w, scale * slope, w

        def norm_freq(st, gain):
            return None if st == "norm" or not local else "norm"

        def certified_at(base, ks):
            flags = [norm(k * math.exp(verdict_shift)) < gamma_half for k in ks]
            calls.append(([float(k) for k in ks], flags if pair is None or len(ks) != 2 else pair))
            return calls[-1][1]

        monkeypatch.setattr(sweep, "_peak_at", peak_at)
        monkeypatch.setattr(sweep, "_norm_freq", norm_freq)
        monkeypatch.setattr(sweep, "_certified_at", certified_at)
        return calls

    def run(self, paper_params, monkeypatch, caplog, log_excess, slope_of, verdict_shift=0.0, local=0.0):
        """find_threshold on the seams of `install`; returns kappa2*, the
        flip interval, the last verdict call and its verdicts, the number of
        verification pairs, and the full norm and bisection step counts
        from the DEBUG record."""
        calls = self.install(paper_params, monkeypatch, log_excess, slope_of, verdict_shift, local=local)
        with caplog.at_level(logging.DEBUG, logger="jjcavity.sweep"):
            star = find_threshold(paper_params, self.LO, self.HI)
        audit, flags = calls[0]
        j = flags.index(True)
        norms, bisections = map(int, re.search(r"\d+ tracked peaks, (\d+) full norms, (\d+) bisection",
                                               caplog.records[-1].getMessage()).groups())
        return star, (audit[j - 1], audit[j]), calls[-1], len(calls) - 1, norms, bisections

    def check(self, star, flip, last, rel_tol=1e-3):
        assert flip[0] < star < flip[1]
        assert last == ([star * (1 - rel_tol / 2), star * (1 + rel_tol / 2)], [False, True])

    def test_kink(self, paper_params, monkeypatch, caplog):
        # slope -0.05 up to 0.02 below kappa2*, then -2: the search starts on
        # the flat side (the flip interval's midpoint is 0.047 below), where
        # Newton aims far above the flip interval
        x_star = math.log(self.STAR)
        x_kink = x_star - 0.02

        def log_excess(x):
            if x >= x_kink:
                return -2.0 * (x - x_star)
            return -2.0 * (x_kink - x_star) - 0.05 * (x - x_kink)

        star, flip, last, _, _, bisections = self.run(paper_params, monkeypatch, caplog, log_excess,
                                                      lambda k2, n, d: d)
        self.check(star, flip, last)
        assert math.log(flip[0]) < x_kink - 0.02 and math.sqrt(flip[0] * flip[1]) < math.exp(x_kink)
        assert bisections >= 1
        assert star == pytest.approx(self.STAR, rel=1e-3)

    @pytest.mark.parametrize("slope_of", [lambda k2, n, d: -d, lambda k2, n, d: 0.0],
                             ids=["outward", "flat"])
    def test_slope_out_of_bracket(self, paper_params, monkeypatch, caplog, slope_of):
        # a slope of the wrong sign (or none) sends every Newton step out of
        # the bracket, so the search is bisection alone
        x_star = math.log(self.STAR)
        star, flip, last, _, _, bisections = self.run(paper_params, monkeypatch, caplog,
                                                      lambda x: -1.5 * (x - x_star), slope_of)
        self.check(star, flip, last)
        assert bisections >= 8
        assert star == pytest.approx(self.STAR, rel=1e-3)

    @pytest.mark.parametrize("verdict_shift", [1.5e-3, -1.5e-3], ids=["below", "above"])
    def test_failed_pair_shrinks_bracket(self, paper_params, monkeypatch, caplog, verdict_shift):
        # the verdict flips 1.5e-3 below (or above) the norm's root, three
        # half-widths of the pair: the first pairs fail, both members
        # certified (or both refused), and each moves that end of the bracket
        x_star = math.log(self.STAR)
        star, flip, last, pairs, _, _ = self.run(paper_params, monkeypatch, caplog,
                                                 lambda x: -1.5 * (x - x_star), lambda k2, n, d: d,
                                                 verdict_shift=verdict_shift)
        self.check(star, flip, last)
        assert pairs >= 2
        assert star == pytest.approx(self.STAR * math.exp(-verdict_shift), rel=1e-3)

    def test_local_peak_resets_the_bracket(self, paper_params, monkeypatch, caplog):
        # the peak tracked from the seeds lies 3% below the norm, so the
        # search converges below kappa2*, where the check finds a crossing;
        # the bracket its local gains shrank excludes kappa2*, and only the
        # reset to the flip interval lets the first pair hold
        x_star = math.log(self.STAR)
        star, flip, last, pairs, norms, _ = self.run(paper_params, monkeypatch, caplog,
                                                     lambda x: -1.5 * (x - x_star), lambda k2, n, d: d,
                                                     local=0.03)
        self.check(star, flip, last)
        assert norms == 1 and pairs == 1
        assert star == pytest.approx(self.STAR, rel=1e-3)

    def test_inverted_pair_proves_non_monotone(self, paper_params, monkeypatch):
        # the pair at kappa2* reads [True, False]: certified below, refused above
        x_star = math.log(self.STAR)
        self.install(paper_params, monkeypatch, lambda x: -1.5 * (x - x_star), lambda k2, n, d: d,
                     pair=[True, False])
        with pytest.raises(RuntimeError) as exc:
            find_threshold(paper_params, self.LO, self.HI)
        assert str(exc.value) == ("certified predicate is not monotone on the bracket: "
                                  "certified at kappa2=2.168115e+12 but not at 2.170285e+12")

    def test_out_of_peaks_raises(self, paper_params, monkeypatch):
        # with no slope every step bisects, and two peaks leave a bracket
        # wider than rel_tol
        x_star = math.log(self.STAR)
        self.install(paper_params, monkeypatch, lambda x: -1.5 * (x - x_star), lambda k2, n, d: 0.0)
        monkeypatch.setattr(sweep, "THRESHOLD_MAX_PEAKS", 2)
        with pytest.raises(RuntimeError) as exc:
            find_threshold(paper_params, self.LO, self.HI)
        assert str(exc.value) == ("threshold search: no verified kappa2* after 2 peaks; "
                                  "bracket [2.069138e+12, 2.198393e+12]")

    def test_logging_left_unimported(self):
        # the record costs nothing until a caller imports logging
        code = ("import sys, jjcavity; "
                "jjcavity.find_threshold(jjcavity.reference_params(), 1e11, 1e13); "
                "assert 'logging' not in sys.modules")
        # the child imports jjcavity from where this process did, with or
        # without a PYTHONPATH in the environment
        src = os.path.dirname(os.path.dirname(sweep.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        subprocess.run([sys.executable, "-c", code], check=True, env=env)

    def test_debug_record(self, paper_params, caplog):
        with caplog.at_level(logging.DEBUG, logger="jjcavity.sweep"):
            find_threshold(paper_params, 1e11, 1e13)
        (record,) = caplog.records
        msg = record.getMessage()
        assert msg.startswith("find_threshold: flip interval [")
        assert " tracked peaks, 0 full norms, 0 bisection steps, verified [" in msg


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

    def test_rows_equal_scalar_path(self, paper_model):
        # each row of the stacked solve, bit for bit (repr of every field),
        # is the row that its own transfer_eval solve gives
        rng = np.random.default_rng(12)
        for model in [paper_model] + [build_model(random_params(rng)) for _ in range(3)]:
            rows = bode_csv(model, 1e9, 1e14, 120)
            ss = state_space(model)
            alone = [sweep._bode_row_alone(ss, r.omega) for r in rows]
            assert all(r.error is None for r in rows)
            assert [repr(dataclasses.astuple(r)) for r in rows] == \
                [repr(dataclasses.astuple(r)) for r in alone]

    def test_row_is_a_frozen_hashable_record(self, paper_model):
        row = bode_csv(paper_model, 1e10, 1e13, 5)[2]
        with pytest.raises(dataclasses.FrozenInstanceError):
            row.magnitude = 0.0
        assert hash(row) == hash(BodeRow(row.omega, row.magnitude, row.phase))
        # the benchmark's crosscheck gate perturbs rows this way
        bumped = dataclasses.replace(row, magnitude=2.0 * row.magnitude)
        assert type(bumped) is BodeRow
        assert (bumped.omega, bumped.magnitude, bumped.phase, bumped.error) == \
            (row.omega, 2.0 * row.magnitude, row.phase, None)

    def test_row_fields_and_construction(self):
        # the CLI's bode columns are these field names, in this order
        assert [f.name for f in dataclasses.fields(BodeRow)] == \
            ["omega", "magnitude", "phase", "error"]
        row = BodeRow(1.0, 2.0, 3.0)
        assert row.error is None
        assert row == BodeRow(omega=1.0, magnitude=2.0, phase=3.0, error=None)
        assert BodeRow(1.0, 2.0, 3.0, "x") == BodeRow(phase=3.0, omega=1.0, error="x", magnitude=2.0)
        assert BodeRow(1.0, 2.0, 3.0, "x") != row

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


class TestStackedSweep:
    """Each sweep row is certified in one stacked pass, and a row that fails
    fails alone."""

    GRID = list(np.logspace(11.5, 12.8, 12))

    def test_stall_becomes_the_rows_error(self, paper_params, monkeypatch):
        want = sweep_kappa2(paper_params, self.GRID)
        target = build_F(build_model(paper_params.replace(kappa2=self.GRID[4])))
        crossings = stability._imag_axis_crossings

        def forced(st, levels):
            # w = 0 is a seed, so a crossing there cannot raise lo: a stall
            hit = [np.array_equal(A, target) for A in st.A]
            return [np.array([0.0]) if h else c for h, c in zip(hit, crossings(st, levels))]

        monkeypatch.setattr(stability, "_imag_axis_crossings", forced)
        got = sweep_kappa2(paper_params, self.GRID)
        assert got[4].error.startswith("H-infinity iteration failed: level")
        assert math.isnan(got[4].hinf_norm) and not got[4].certified
        assert got[:4] + got[5:] == want[:4] + want[5:]

    def test_linalg_error_only_in_the_singular_row(self, paper_params, monkeypatch):
        # a LinAlgError in the gain solve, in the 4x4 spectrum of F or in
        # the 8x8 level-set eigvals falls back to each row alone
        want = sweep_kappa2(paper_params, self.GRID)
        target = build_F(build_model(paper_params.replace(kappa2=self.GRID[7])))
        solve, eigvals = np.linalg.solve, np.linalg.eigvals

        def failing_solve(a, b):
            # a stacks s I - F; F_11 - F_00 = (kappa1 - kappa2)/2 + i(...) tells the rows apart
            if any(np.isclose(x[0, 0] - x[1, 1], target[1, 1] - target[0, 0], rtol=1e-6)
                   for x in np.reshape(a, (-1, 4, 4))):
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(a, b)

        def failing_eigvals(size):
            def failing(a):
                # F is the upper-left block of its level-set matrix
                if np.shape(a)[-1] == size and any(np.array_equal(x[:4, :4], target)
                                                   for x in np.reshape(a, (-1, size, size))):
                    raise np.linalg.LinAlgError("Eigenvalues did not converge")
                return eigvals(a)
            return failing

        for name, failing, message in (
            ("solve", failing_solve, "Singular matrix"),
            ("eigvals", failing_eigvals(4), "Eigenvalues did not converge"),
            ("eigvals", failing_eigvals(8), "Eigenvalues did not converge"),
        ):
            with monkeypatch.context() as patch:
                patch.setattr(np.linalg, name, failing)
                got = sweep_kappa2(paper_params, self.GRID)
                assert got[7].error == message
                assert got[:7] + got[8:] == want[:7] + want[8:]
                with pytest.raises(np.linalg.LinAlgError):
                    kappa1_sensitivity(paper_params, [1e11], kappa2_fixed=self.GRID[7])

    def test_kappa1_sensitivity_raises_first_bad_row(self, paper_params):
        with pytest.raises(ValueError, match="coupling rates"):
            kappa1_sensitivity(paper_params, [1e11, -1.0, -2.0], kappa2_fixed=2.5e12)

    def test_bad_pair_error_comes_before_base_build_error(self, paper_params):
        # omega = 1e200 overflows the quadratic form: the base build fails,
        # and a row whose coupling is bad keeps its own error
        recs = sweep_kappa2(paper_params.replace(omega=1e200), [1e11, -1.0])
        want = [
            SweepRecord(kappa2=1e11, hinf_norm=math.nan, hurwitz=False, certified=False,
                        error="quadratic form entry (0,0) is not finite: inf"),
            SweepRecord(kappa2=-1.0, hinf_norm=math.nan, hurwitz=False, certified=False,
                        error="coupling rates must be nonnegative"),
        ]
        assert repr(recs) == repr(want)
        with pytest.raises(ValueError, match="coupling rates"):
            kappa1_sensitivity(paper_params.replace(omega=1e200), [-1.0, 1e11], kappa2_fixed=2.5e12)
        with pytest.raises(OverflowError, match="quadratic form"):
            kappa1_sensitivity(paper_params.replace(omega=1e200), [1e11, -1.0], kappa2_fixed=2.5e12)


class TestReferencePath:
    """Rows built from one base model equal, field for field, rows built
    and certified one at a time by the full builder."""

    @pytest.mark.parametrize("draw", [None, 0, 1, 2], ids=["paper", "draw0", "draw1", "draw2"])
    def test_rows_equal_per_row_certify(self, paper_params, draw):
        p = paper_params if draw is None else random_params(np.random.default_rng([29, draw]))
        kappa2 = [float(k) for k in np.logspace(11, 13, 12)]
        want = []
        for k2 in kappa2:
            cert = certify(build_model(p.replace(kappa2=k2)))
            want.append(SweepRecord(kappa2=k2, hinf_norm=cert.hinf_norm,
                                    hurwitz=cert.hurwitz, certified=cert.certified))
        assert repr(sweep_kappa2(p, kappa2)) == repr(want)

        kappa1 = [float(k) for k in np.logspace(10, 12, 5)]
        want = [(k1, certify(build_model(p.replace(kappa1=k1, kappa2=2.5e12))).hinf_norm)
                for k1 in kappa1]
        assert repr(kappa1_sensitivity(p, kappa1, kappa2_fixed=2.5e12)) == repr(want)


class TestBadRows:
    """A coupling value that `params.replace` rejects carries its exact
    error; the good rows around it are `certify` on their own model, or the
    base build's error."""

    KAPPA2 = [2.5e12, -1.0, math.nan, math.inf, 0.0, 1e12]

    @staticmethod
    def replace_error(p, k2):
        with pytest.raises(ValueError) as exc:
            p.replace(kappa2=k2)
        return str(exc.value)

    def test_rows_equal_replace_error_or_certify(self, paper_params):
        recs = sweep_kappa2(paper_params, self.KAPPA2)
        for k2, rec in zip(self.KAPPA2, recs):
            if math.isfinite(k2) and k2 >= 0:
                cert = certify(build_model(paper_params.replace(kappa2=k2)))
                want = SweepRecord(kappa2=k2, hinf_norm=cert.hinf_norm,
                                   hurwitz=cert.hurwitz, certified=cert.certified)
            else:
                want = SweepRecord(kappa2=k2, hinf_norm=math.nan, hurwitz=False, certified=False,
                                   error=self.replace_error(paper_params, k2))
            assert repr(rec) == repr(want)
        assert [r.error is None for r in recs] == [True, False, False, False, True, True]
        assert not recs[4].hurwitz and recs[0].certified and not recs[5].certified


class TestEigvalsCount:
    """Eigen-decompositions are stacked: the count does not grow with the
    number of rows."""

    @staticmethod
    def counting(monkeypatch):
        eigvals, shapes = np.linalg.eigvals, []

        def counted(a):
            shapes.append(np.shape(a))
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", counted)
        return shapes

    def test_sweep_one_spectrum_and_one_call_per_iteration(self, paper_params, monkeypatch):
        shapes = self.counting(monkeypatch)
        recs = sweep_kappa2(paper_params, np.logspace(11, 13, 40))
        assert all(r.error is None for r in recs)
        assert shapes[0] == (40, 4, 4)
        assert all(s[1:] == (8, 8) for s in shapes[1:])
        assert len(shapes) <= 8

    def test_refused_audit_rows_take_no_level_set_test(self, paper_params, monkeypatch):
        shapes = self.counting(monkeypatch)
        find_threshold(paper_params, 1e11, 1e13)
        # every audit model is Hurwitz here; the 13 below kappa2* are refused
        # by a gain measured at Im lambda(F), so only 7 take the level-set test
        n = sweep.THRESHOLD_AUDIT_POINTS
        assert shapes[:2] == [(n, 4, 4), (7, 8, 8)]
        # then the spectrum that seeds the first tracked peak, the one check
        # that the last peak is the norm, and the verification pair
        assert shapes[2:] == [(1, 4, 4), (1, 8, 8), (2, 4, 4), (2, 8, 8)]
        assert sum(s[0] for s in shapes if s[1:] == (8, 8)) == 10


class TestBuildCount:
    """The model is built once per sweep, sensitivity scan or threshold
    search: only N depends on the coupling rates, so the count does not
    grow with the number of rows."""

    @staticmethod
    def counting(monkeypatch):
        form, calls = builder.quadratic_form_matrix, []

        def counted(params):
            calls.append(params)
            return form(params)

        monkeypatch.setattr(builder, "quadratic_form_matrix", counted)
        return calls

    def test_one_build_per_call(self, paper_params, monkeypatch):
        calls = self.counting(monkeypatch)
        sweep_kappa2(paper_params, np.logspace(11, 13, 40))
        assert len(calls) == 1
        kappa1_sensitivity(paper_params, np.logspace(10, 12, 9), kappa2_fixed=2.5e12)
        assert len(calls) == 2
        find_threshold(paper_params, 1e11, 1e13)
        assert len(calls) == 3

    @pytest.mark.parametrize("run", [
        lambda p: sweep_kappa2(p, np.logspace(11, 13, 40)),
        lambda p: kappa1_sensitivity(p, np.logspace(10, 12, 9), kappa2_fixed=2.5e12),
        lambda p: find_threshold(p, 1e11, 1e13),
    ], ids=["sweep_kappa2", "kappa1_sensitivity", "find_threshold"])
    def test_one_model_and_one_validation_per_call(self, paper_params, monkeypatch, run):
        # every SystemModel constructed, and every validate_model call,
        # through whichever module binds the name
        built, validated = [], []
        post_init, validate = jmodel.SystemModel.__post_init__, jmodel.validate_model

        def counted_init(self):
            built.append(self)
            post_init(self)

        def counted_validate(model):
            validated.append(model)
            return validate(model)

        monkeypatch.setattr(jmodel.SystemModel, "__post_init__", counted_init)
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "jjcavity" and vars(module).get("validate_model") is validate:
                monkeypatch.setattr(module, "validate_model", counted_validate)
        run(paper_params)
        assert len(built) == 1
        assert validated == built


class TestInvalidBase:
    """A base build that fails validation is the error of every row whose
    own coupling pair is good, word for word what `certify` raises on that
    row's model."""

    @pytest.fixture(params=["M", "gamma"])
    def invalid_build(self, request, monkeypatch):
        def invalid(params):
            m = build_model(params)
            if request.param == "gamma":
                return dataclasses.replace(m, gamma=-1.0)
            M = m.M.copy()
            M[0, 1] += 1e-3 * np.abs(M).max()  # breaks Hermitian symmetry
            return dataclasses.replace(m, M=M)

        monkeypatch.setattr(sweep, "build_model", invalid)
        return invalid

    @staticmethod
    def certify_error(m):
        with pytest.raises(ValueError, match="model fails structural validation") as exc:
            certify(m)
        return str(exc.value)

    def test_rows_carry_certify_error(self, paper_params, invalid_build):
        kappa2 = [1e11, -1.0, 2.5e12, 1e13]
        recs = sweep_kappa2(paper_params, kappa2)
        assert recs[1].error == "coupling rates must be nonnegative"
        for k2, rec in zip(kappa2, recs):
            if k2 > 0:
                row = dataclasses.replace(invalid_build(paper_params),
                                          N=build_coupling(paper_params.kappa1, k2))
                assert rec.error == self.certify_error(row)
                assert math.isnan(rec.hinf_norm) and not rec.hurwitz and not rec.certified

    def test_bad_rows_keep_replace_error(self, paper_params, invalid_build):
        kappa2 = TestBadRows.KAPPA2
        recs = sweep_kappa2(paper_params, kappa2)
        for k2, rec in zip(kappa2, recs):
            if math.isfinite(k2) and k2 >= 0:
                row = dataclasses.replace(invalid_build(paper_params),
                                          N=build_coupling(paper_params.kappa1, k2))
                assert rec.error == self.certify_error(row)
            else:
                assert rec.error == TestBadRows.replace_error(paper_params, k2)
            assert math.isnan(rec.hinf_norm) and not rec.hurwitz and not rec.certified

    def test_sensitivity_and_threshold_raise_it(self, paper_params, invalid_build):
        want = self.certify_error(invalid_build(paper_params))
        with pytest.raises(ValueError, match="coupling rates"):
            kappa1_sensitivity(paper_params, [-1.0, 1e11], kappa2_fixed=2.5e12)
        with pytest.raises(ValueError) as exc:
            kappa1_sensitivity(paper_params, [1e11, -1.0], kappa2_fixed=2.5e12)
        assert str(exc.value) == want
        with pytest.raises(ValueError) as exc:
            find_threshold(paper_params, 1e11, 1e13)
        assert str(exc.value) == want
