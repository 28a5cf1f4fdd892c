"""The paper model's transfer function in closed form, as an oracle that
shares nothing with the numerical norm search.

With x = s/omega, k1 = kappa1/omega, k2 = kappa2/omega, u = U/(hbar omega)
and a = i(g^2 + u), the builder's chain gives G(s) = -n(x) / (omega d(x)):

    n(x) = 8x^3 + (4a + 8k1 + 4k2) x^2 + (4a k1 + 2k1^2 + 4k1 k2 + 8) x
           + (a k1^2 + 4iu + k1^2 k2 + 4k2)
    d(x) = (k2 + 2x)^2 (k1 + 2x - 2i)(k1 + 2x + 2i)

d is criterion 2's det(sI - F), rescaled.  On the axis x = iy the squared
gain is P(y) / (omega^2 Q(y)) with P = |n(iy)|^2 and Q = |d(iy)|^2, so the
peak sits at a real root of P'Q - PQ', a polynomial of degree <= 13.
"""

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest
import sympy as sp

import jjcavity as jc
from jjcavity.builder import build_model
from jjcavity.stability import certify, hinf_norm, state_space, transfer_response
from jjcavity import sweep
from jjcavity.sweep import find_threshold

from conftest import PAPER_NORM

#: the peak frequency and kappa2* at the published point, from the closed
#: form evaluated in mpmath at 40 digits (PAPER_NORM likewise)
PAPER_PEAK_FREQ = 3.2346757e11
PAPER_KAPPA2_STAR = 2.1696638e12
DRAWS = 30
#: powers of i, so that n(iy) has exact coefficients in y
I_POWERS = np.array([1, 1j, -1, -1j])


def rational(p: jc.PhysicalParams) -> tuple[np.ndarray, np.ndarray]:
    """Ascending coefficients in x of n(x) and d(x)."""
    w = p.omega
    k1, k2 = p.kappa1 / w, p.kappa2 / w
    u = p.U / (p.hbar * w)
    a = 1j * (p.g ** 2 + u)
    n = np.array([
        a * k1 ** 2 + 4j * u + k1 ** 2 * k2 + 4 * k2,
        4 * a * k1 + 2 * k1 ** 2 + 4 * k1 * k2 + 8,
        4 * a + 8 * k1 + 4 * k2,
        8,
    ])
    d = npoly.polymul(npoly.polymul([k2, 2], [k2, 2]),
                      npoly.polymul([k1 - 2j, 2], [k1 + 2j, 2]))
    return n, d


def closed_form_gain(p: jc.PhysicalParams, omegas) -> np.ndarray:
    """|G(i w)| at each w."""
    n, d = rational(p)
    x = 1j * np.asarray(omegas, dtype=float) / p.omega
    return np.abs(npoly.polyval(x, n) / (p.omega * npoly.polyval(x, d)))


def closed_form_peak(p: jc.PhysicalParams) -> tuple[float, float]:
    """(sup |G(i w)|, w*) from the real parts of the roots of P'Q - PQ'.
    Every candidate is a point on the axis, so a spurious root can only
    lower a candidate, never raise the maximum above the supremum."""
    n, d = rational(p)
    on_axis = [c * I_POWERS[np.arange(c.size) % 4] for c in (n, d)]
    Pn, Qd = (npoly.polymul(c, c.conj()).real for c in on_axis)
    crit = npoly.polysub(npoly.polymul(npoly.polyder(Pn), Qd),
                         npoly.polymul(Pn, npoly.polyder(Qd)))
    omegas = npoly.polyroots(crit).real * p.omega
    gains = closed_form_gain(p, omegas)
    k = int(np.argmax(gains))
    return float(gains[k]), float(omegas[k])


def closed_form_threshold(p: jc.PhysicalParams, lo=1e9, hi=1e15) -> float:
    """kappa2 where the closed-form peak crosses gamma/2 = 1/(4 Jp), by
    bisection on log kappa2 (the peak falls as kappa2 grows)."""
    gamma_half = 1.0 / (4.0 * p.Jp)
    for _ in range(60):
        mid = np.sqrt(lo * hi)
        if closed_form_peak(p.replace(kappa2=mid))[0] < gamma_half:
            hi = mid
        else:
            lo = mid
    return float(np.sqrt(lo * hi))


def draws(seed: int, count: int = DRAWS) -> list[jc.PhysicalParams]:
    """kappa2 log-uniform over [1e11, 1e13], kappa1 over [1e9, 1e12], and
    g, omega, U and Jp within a factor 2 of the published point."""
    rng = np.random.default_rng(seed)
    paper = jc.reference_params()
    out = []
    for _ in range(count):
        scale = {k: getattr(paper, k) * 2.0 ** rng.uniform(-1, 1) for k in ("g", "omega", "U", "Jp")}
        out.append(paper.replace(kappa1=10 ** rng.uniform(9, 12),
                                 kappa2=10 ** rng.uniform(11, 13), **scale))
    return out


def symbolic_realization():
    """(symbols, s, M, sigma, F, B, C) of the builder's chain in exact arithmetic:
    quadratic form over (q', p'', n'', phi'), ladder change of variables,
    coupling N = diag(sqrt kappa), perturbation row zeta = a2/sqrt(2)."""
    w, hb, g, U, K1, K2 = sp.symbols("omega hbar g U kappa1 kappa2", positive=True)
    s = sp.symbols("s")
    i, r2 = sp.I, sp.sqrt(2)
    A = sp.zeros(4, 4)
    A[0, 0], A[1, 1], A[2, 2] = w ** 2 / hb, 1 / hb, (U + hb * w * g ** 2) / hb
    A[1, 2] = A[2, 1] = -g * sp.sqrt(w / hb)
    cq, cp = sp.sqrt(hb / (2 * w)), sp.sqrt(hb * w / 2)
    T = sp.Matrix([[cq, 0, cq, 0], [-i * cp, 0, i * cp, 0],
                   [0, -i / r2, 0, i / r2], [0, 1 / r2, 0, 1 / r2]])
    sig = sp.Matrix([[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]])
    J = sp.diag(1, 1, -1, -1)
    M = sig * T.T * A * T
    N = sp.diag(sp.sqrt(K1), sp.sqrt(K2), sp.sqrt(K1), sp.sqrt(K2))
    F = -i * J * M - J * N.H * J * N / 2
    zeta = sp.Matrix([[0, 1 / r2, 0, 0]])
    return (w, hb, g, U, K1, K2), s, M, sig, F, J * sig * zeta.T, zeta.conjugate() * sig


@pytest.fixture(scope="module")
def symbolic():
    return symbolic_realization()


class TestClosedForm:
    def test_transfer_function_symbolic(self, symbolic):
        (w, hb, g, U, K1, K2), s, M, sig, F, B, C = symbolic
        # the builder's two averaging steps are identities on the exact M
        assert sp.simplify(M - M.H) == sp.zeros(4, 4)
        assert sp.simplify(M - sig * M.conjugate() * sig) == sp.zeros(4, 4)
        G = (C * (s * sp.eye(4) - F).LUsolve(B))[0, 0]
        x, k1, k2, u = s / w, K1 / w, K2 / w, U / (hb * w)
        a = sp.I * (g ** 2 + u)
        n = (8 * x ** 3 + (4 * a + 8 * k1 + 4 * k2) * x ** 2
             + (4 * a * k1 + 2 * k1 ** 2 + 4 * k1 * k2 + 8) * x
             + (a * k1 ** 2 + 4 * sp.I * u + k1 ** 2 * k2 + 4 * k2))
        d = (k2 + 2 * x) ** 2 * (k1 + 2 * x - 2 * sp.I) * (k1 + 2 * x + 2 * sp.I)
        assert sp.cancel(sp.together(G + n / (w * d))) == 0

    def test_symbolic_chain_is_build_model(self, symbolic):
        syms, _, _, _, F, B, C = symbolic
        to_numpy = sp.lambdify(syms, (F, B, C), "numpy")
        for p in draws(seed=11, count=10):
            ss = state_space(build_model(p))
            for got, want in zip((ss.A, ss.B, ss.C),
                                 to_numpy(p.omega, p.hbar, p.g, p.U, p.kappa1, p.kappa2)):
                want = np.asarray(want, dtype=complex).reshape(got.shape)
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_gain_matches_build_model(self):
        for p in draws(seed=13, count=10):
            ss = state_space(build_model(p))
            omegas = np.concatenate([-np.logspace(9, 14, 50), [0.0], np.logspace(9, 14, 50)])
            got = np.abs(transfer_response(ss, 1j * omegas))
            want = closed_form_gain(p, omegas)
            assert np.all(np.abs(got - want) <= 1e-12 * want)

    def test_paper_point(self, paper_params):
        norm, freq = closed_form_peak(paper_params)
        assert norm == pytest.approx(PAPER_NORM, rel=1e-12)
        assert freq == pytest.approx(PAPER_PEAK_FREQ, rel=1e-7)
        assert closed_form_threshold(paper_params) == pytest.approx(PAPER_KAPPA2_STAR, rel=1e-7)


class TestNormAgainstClosedForm:
    @pytest.mark.parametrize("p", draws(seed=17), ids=lambda p: f"k2={p.kappa2:.3e}")
    def test_norm_and_peak_frequency(self, p):
        peak, _ = closed_form_peak(p)
        cert = certify(build_model(p))
        assert cert.hurwitz
        assert cert.hinf_norm == pytest.approx(peak, rel=2e-6)
        at_freq = closed_form_gain(p, [cert.hinf_freq])[0]
        assert at_freq == pytest.approx(cert.hinf_norm, rel=1e-6)

    @pytest.mark.parametrize("p", draws(seed=17) + draws(seed=23) + draws(seed=29),
                             ids=lambda p: f"k2={p.kappa2:.3e}")
    def test_norm_is_upper_bound(self, p):
        assert hinf_norm(state_space(build_model(p)))[0] >= closed_form_peak(p)[0] * (1 - 1e-12)

    @pytest.mark.parametrize("p", draws(seed=17) + draws(seed=23) + draws(seed=29),
                             ids=lambda p: f"k2={p.kappa2:.3e}")
    def test_peak_is_found(self, p):
        # the reported frequency is the peak itself, not a point within the
        # level-set tolerance of it
        peak, _ = closed_form_peak(p)
        cert = certify(build_model(p))
        assert closed_form_gain(p, [cert.hinf_freq])[0] >= peak * (1 - 1e-8)

    def test_global_not_local_peak(self):
        # two local peaks 0.35% apart: the lower one, at 4.585e11 rad/s, is
        # where a search that only climbs from its best seed would stop
        p = jc.reference_params().replace(
            omega=600244724026.3052, g=0.1426595744680851, U=2.1147127659574467e-22,
            Jp=367299829787.2341, kappa1=104468085106.383, kappa2=4455907535446.152)
        peak, freq = closed_form_peak(p)
        lower = 4.58514e11
        near = closed_form_gain(p, [lower * (1 - 1e-3), lower, lower * (1 + 1e-3)])
        assert near[1] > max(near[0], near[2]) and near[1] > peak * (1 - 4e-3)
        assert abs(freq - lower) > 0.2 * freq
        cert = certify(build_model(p))
        assert cert.hinf_freq == pytest.approx(freq, rel=1e-6)
        assert cert.hinf_norm >= peak

    @pytest.mark.parametrize("p", draws(seed=19), ids=lambda p: f"Jp={p.Jp:.3e}")
    def test_threshold(self, p):
        star = closed_form_threshold(p)
        rel_tol = 1e-3
        assert find_threshold(p, star / 2, star * 2, rel_tol) == pytest.approx(star, rel=rel_tol)
        # the symmetric bracket's flip interval has kappa2* at its geometric
        # midpoint, where the search starts; this one makes Newton step
        assert find_threshold(p, star / 3, star * 2, rel_tol) == pytest.approx(star, rel=1e-8)

    @pytest.mark.parametrize("p", [jc.reference_params()] + draws(seed=17),
                             ids=lambda p: f"k2={p.kappa2:.3e}")
    def test_norm_slope(self, p):
        # the envelope-theorem slope of the peak tracked from the seeds
        # against a central difference of the closed-form peak
        h = 1e-4
        _, _, slope, _ = sweep._peak_at(sweep._base(p), p.kappa2, None)
        up, down = (closed_form_peak(p.replace(kappa2=p.kappa2 * (1 + e)))[0] for e in (h, -h))
        assert slope == pytest.approx((up - down) / (2 * h * p.kappa2), rel=1e-4)
