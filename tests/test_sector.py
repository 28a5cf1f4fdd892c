import numpy as np
import pytest

from jjcavity.builder import sector_constants
from jjcavity.sector import (
    GridSpec,
    cosine_first_derivative,
    cosine_second_derivative,
    cosine_sector_constants,
    verify_second,
    verify_sector,
)

JP = 3.6652e11


def grid_minimum(margin, xs, ys):
    """Reference minimizer over the full 2-D grid: the minimum, with ties
    resolved to the lexicographically smallest (Re z, Im z)."""
    ii, jj = np.nonzero(margin == margin.min())
    order = np.lexsort((ys[jj], xs[ii]))
    i, j = ii[order[0]], jj[order[0]]
    return float(margin.min()), complex(xs[i], ys[j]), ii.size


def grid_sector(fprime, gamma, delta1, grid):
    xs, ys = grid.axes()
    lhs = np.abs(np.asarray(fprime(2.0 * xs), dtype=complex)) ** 2
    rhs = (xs[:, None] ** 2 + ys[None, :] ** 2) / gamma ** 2 + delta1
    return grid_minimum(rhs - lhs[:, None], xs, ys)


def grid_second(fsecond, delta2, grid):
    xs, ys = grid.axes()
    lhs = np.abs(np.asarray(fsecond(2.0 * xs), dtype=complex)) ** 2
    margin = np.broadcast_to((delta2 - lhs)[:, None], (xs.size, ys.size))
    return grid_minimum(margin, xs, ys)


def zero(u):
    return np.zeros_like(u)


#: (f, gamma, delta1, grid); the 1e9-range case has gamma = 1e9 and
#: delta1 = 1e20, so every y on a row rounds to the same margin
REFERENCE_CASES = [
    (cosine_first_derivative(1.0), 0.5, 0.0, GridSpec()),
    (cosine_first_derivative(1.0), 0.4, 0.0, GridSpec(5.0, 5.0, 100, 100)),
    (cosine_first_derivative(1.0), 0.4, 0.0, GridSpec(5.0, 5.0, 101, 101)),
    (cosine_first_derivative(2.0), 0.3, 0.1, GridSpec(3.0, 7.0, 64, 1)),
    (cosine_first_derivative(2.0), 0.3, 0.1, GridSpec(3.0, 7.0, 1, 64)),
    (cosine_first_derivative(1.5), 0.6, 0.0, GridSpec(2.0, 9.0, 37, 58)),
    (cosine_first_derivative(1e10), 1e9, 1e20, GridSpec(3.0, 1e9, 41, 40)),
    (cosine_first_derivative(1e10), 1e9, 1e20, GridSpec(3.0, 1e9, 41, 41)),
    (zero, 1.0, 0.0, GridSpec(1.0, 1.0, 11, 12)),
    (zero, 1e9, 1e20, GridSpec(1.0, 1e9, 9, 10)),
]
CASE_IDS = ["default", "even", "odd", "one-im", "one-re", "asymmetric",
            "ties-even", "ties-odd", "zero", "zero-ties"]


class TestGridReference:
    """The 1-D scans equal the full-grid minimizer exactly, tie-break
    included."""

    @pytest.mark.parametrize("f, gamma, delta1, grid", REFERENCE_CASES, ids=CASE_IDS)
    def test_sector_matches_grid(self, f, gamma, delta1, grid):
        rep = verify_sector(f, gamma, delta1, grid)
        worst, point, _ = grid_sector(f, gamma, delta1, grid)
        assert rep.worst_margin == worst
        assert rep.worst_point == point

    @pytest.mark.parametrize("f, gamma, delta1, grid", REFERENCE_CASES, ids=CASE_IDS)
    def test_second_matches_grid(self, f, gamma, delta1, grid):
        # delta1 serves as delta2; at 1e20 every x rounds to the same margin
        g = zero if f is zero else cosine_second_derivative(1.0)
        rep = verify_second(g, delta1, grid)
        worst, point, _ = grid_second(g, delta1, grid)
        assert rep.worst_margin == worst
        assert rep.worst_point == point

    def test_second_past_the_square_overflow(self):
        # |z|^2 overflows past 1.3e154; verify_second has no |z|^2 term, so
        # its margins stay finite there (and raise no RuntimeWarning)
        g = cosine_second_derivative(2.0)
        for grid in (GridSpec(1e200, 1e200, 5, 3), GridSpec(1e200, 1.0, 1, 1)):
            rep = verify_second(g, 4.0, grid)
            worst, point, _ = grid_second(g, 4.0, grid)
            assert (rep.worst_margin, rep.worst_point) == (worst, point)

    def test_tie_case_has_ties_off_the_axis(self):
        f, gamma, delta1, grid = REFERENCE_CASES[6]
        _, point, n_min = grid_sector(f, gamma, delta1, grid)
        assert n_min > 1
        assert point.imag == -grid.im_max

    def test_random_grids(self):
        rng = np.random.default_rng(11)
        # delta2 from its own stream: the verify_sector draws are rng's alone
        rng2 = np.random.default_rng(12)
        for _ in range(300):
            grid = GridSpec(
                re_max=float(10 ** rng.uniform(-3, 3)),
                im_max=float(10 ** rng.uniform(-3, 9)),
                points_re=int(rng.integers(1, 60)),
                points_im=int(rng.integers(1, 60)),
            )
            f = cosine_first_derivative(float(10 ** rng.uniform(-2, 10)))
            gamma = float(10 ** rng.uniform(-3, 9))
            delta1 = float(rng.choice([0.0, 10 ** rng.uniform(-5, 20)]))
            rep = verify_sector(f, gamma, delta1, grid)
            worst, point, _ = grid_sector(f, gamma, delta1, grid)
            assert (rep.worst_margin, rep.worst_point) == (worst, point), grid
            g = cosine_second_derivative(float(10 ** rng2.uniform(-2, 10)))
            delta2 = float(rng2.choice([0.0, 10 ** rng2.uniform(-5, 20)]))
            rep = verify_second(g, delta2, grid)
            worst, point, _ = grid_second(g, delta2, grid)
            assert (rep.worst_margin, rep.worst_point) == (worst, point), (grid, delta2)


class TestVerifySector:
    def test_cosine_instance_passes(self):
        grid = GridSpec(re_max=10.0, im_max=10.0, points_re=401, points_im=401)
        rep = verify_sector(cosine_first_derivative(JP), gamma=1.0 / (2.0 * JP),
                            delta1=0.0, grid=grid)
        assert rep.passed
        assert rep.worst_margin >= 0.0

    def test_cosine_passes_wide(self):
        grid = GridSpec(re_max=100.0, im_max=100.0, points_re=501, points_im=501)
        rep = verify_sector(cosine_first_derivative(JP), gamma=1.0 / (2.0 * JP),
                            delta1=0.0, grid=grid)
        assert rep.passed

    def test_identity_fails(self):
        # f'(z + conj z) = 2 Re z exceeds |z| on the real axis
        rep = verify_sector(lambda u: u, gamma=1.0, delta1=0.0)
        assert not rep.passed
        assert rep.worst_margin < 0.0

    def test_zero_function_passes(self):
        for gamma in [1e-6, 1.0, 1e6]:
            rep = verify_sector(lambda u: np.zeros_like(u), gamma=gamma)
            assert rep.passed

    def test_deterministic(self):
        a = verify_sector(cosine_first_derivative(1.0), gamma=0.5)
        b = verify_sector(cosine_first_derivative(1.0), gamma=0.5)
        assert a.worst_margin == b.worst_margin
        assert a.worst_point == b.worst_point
        assert a.passed == b.passed

    def test_refinement_never_raises_margin(self):
        # 2k-1 points keep every coarse point, so the minimum can only drop
        f = cosine_first_derivative(1.0)
        margins = []
        for pts in [101, 201, 401]:
            grid = GridSpec(re_max=5.0, im_max=5.0, points_re=pts, points_im=pts)
            margins.append(verify_sector(f, gamma=0.4, grid=grid).worst_margin)
        assert margins[0] >= margins[1] >= margins[2]

    def test_bad_gamma(self):
        with pytest.raises(ValueError):
            verify_sector(lambda u: u, gamma=0.0)

    @pytest.mark.parametrize("gamma", [-1.0, np.nan, np.inf])
    def test_nonfinite_or_negative_gamma(self, gamma):
        with pytest.raises(ValueError, match="gamma"):
            verify_sector(lambda u: u, gamma=gamma)

    @pytest.mark.parametrize("delta1", [-1.0, np.nan, np.inf])
    def test_bad_delta1(self, delta1):
        with pytest.raises(ValueError, match="delta1"):
            verify_sector(lambda u: u, gamma=1.0, delta1=delta1)

    @pytest.mark.filterwarnings("ignore:divide by zero")
    def test_nonfinite_rejected(self):
        with pytest.raises(FloatingPointError):
            verify_sector(lambda u: 1.0 / u, gamma=1.0,
                          grid=GridSpec(re_max=1.0, im_max=1.0, points_re=3, points_im=3))


class TestVerifySecond:
    def test_cosine_bounded(self):
        rep = verify_second(cosine_second_derivative(JP), delta2=JP ** 2)
        assert rep.passed

    def test_tightened_delta_fails_near_origin(self):
        rep = verify_second(cosine_second_derivative(JP), delta2=0.99 * JP ** 2)
        assert not rep.passed
        z = rep.worst_point
        assert abs(z + np.conj(z)) < 0.5
        assert rep.worst_margin == pytest.approx(-0.01 * JP ** 2, rel=1e-6)

    def test_zero_function_zero_slack(self):
        rep = verify_second(lambda u: np.zeros_like(u), delta2=0.0)
        assert rep.passed
        assert rep.worst_margin == 0.0

    def test_negative_delta2_rejected(self):
        with pytest.raises(ValueError):
            verify_second(lambda u: u, delta2=-1.0)

    @pytest.mark.parametrize("delta2", [np.nan, np.inf])
    def test_nonfinite_delta2_rejected(self, delta2):
        with pytest.raises(ValueError, match="delta2"):
            verify_second(lambda u: u, delta2=delta2)


class TestCosineSectorConstants:
    def test_values(self):
        assert cosine_sector_constants(JP) == (1.0 / (2.0 * JP), 0.0, JP ** 2)

    def test_builder_uses_rule(self, paper_params):
        assert sector_constants(paper_params) == cosine_sector_constants(paper_params.Jp)

    @pytest.mark.parametrize("jp", [0.0, -1.0, np.nan, np.inf])
    def test_bad_jp_rejected(self, jp):
        with pytest.raises(ValueError, match="Jp"):
            cosine_sector_constants(jp)


class TestReport:
    def test_json(self):
        rep = verify_sector(cosine_first_derivative(1.0), gamma=0.5)
        import json

        d = json.loads(rep.to_json())
        assert d["passed"] == rep.passed
        assert d["worst_margin"] == rep.worst_margin

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            GridSpec(points_re=0)
        with pytest.raises(ValueError):
            GridSpec(re_max=-1.0)

    @pytest.mark.parametrize("bad", [{"re_max": np.nan}, {"im_max": np.nan},
                                     {"re_max": np.inf}, {"im_max": np.inf},
                                     {"re_max": 1e308}, {"im_max": 1e308}])
    def test_nonfinite_range_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            GridSpec(**bad)
