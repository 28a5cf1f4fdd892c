"""Metamorphic properties of `hinf_norm`: rewritings of a realization
that leave its transfer function's norm unchanged, and move its peak
frequency in a known way.  They need no oracle: each compares the norm of
a drawn system with the norm of the same G written another way.  Two more
compare a stack of systems with each system alone, and `find_threshold`
with the closed-form threshold.  Three pin kernels of the stacked core to
the plain expressions they compute, bit for bit: `transfer_response` to
C (s I - A)^-1 B, `_imag_axis_crossings` to its rule applied to every
row, and the sweeps' affine rows (`sweep._rows`) to `_realization` on
`build_coupling`'s N.

The draws are random 2-mode models of O(1) scale (`make_random_model`)
and physical models around the published constants (`random_params`),
from a seed that hypothesis picks.  The search is derandomized and keeps
no example database, so every run checks the same examples."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import jjcavity as jc
from jjcavity import stability, sweep
from jjcavity.builder import build_coupling
from jjcavity.stability import StateSpace, certify, hinf_norm, is_certified, state_space, transfer_eval

from conftest import make_random_model, random_params
from test_closed_form import closed_form_threshold

#: a norm is an upper bound within rel_tol/5 = 2e-7 of the peak; two of
#: them agree within that, and the gain at either peak frequency too
REL = 2e-7

SETTINGS = settings(derandomize=True, database=None, max_examples=40, deadline=None)


@st.composite
def systems(draw):
    """The realization of a random O(1) model or of a physical one."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        return state_space(make_random_model(rng))
    return state_space(jc.build_model(random_params(rng)))


def check(ss, rewritten, back):
    """`rewritten` has the norm of `ss`, and the gain of `ss` at its peak
    frequency w mapped back by `back(w)` is that norm too."""
    norm, _ = hinf_norm(ss)
    got, freq = hinf_norm(rewritten)
    assert got == pytest.approx(norm, rel=REL)
    assert abs(transfer_eval(ss, 1j * back(freq))) == pytest.approx(norm, rel=REL)


@SETTINGS
@given(systems(), st.floats(-8.0, 8.0))
def test_input_output_split(ss, log_c):
    # C (sI - A)^-1 B = (C / c) (sI - A)^-1 (B c)
    c = 10.0 ** log_c
    check(ss, StateSpace(ss.A, ss.B * c, ss.C / c), lambda w: w)


@SETTINGS
@given(systems(), st.floats(-8.0, 8.0))
def test_stacked_core_input_output_split(ss, log_c):
    # the core that `certify`, `is_certified`, the sweeps and the threshold
    # share decides G, not its split: with B c, C / c in the same stack, both
    # systems are certified just above the norm and refused just below it
    c = 10.0 ** log_c
    stack = StateSpace(np.stack([ss.A, ss.A]), np.stack([ss.B, ss.B * c]), np.stack([ss.C, ss.C / c]))
    norm, _ = hinf_norm(ss)
    above, below = norm * (1.0 + 1e-3), norm * (1.0 - 1e-3)
    assert stability._decided(stack, [above, above], stability._verdicts) == [True, True]
    assert stability._decided(stack, [below, below], stability._verdicts) == [False, False]
    certs = [stability._raised(r) for r in stability._decided(stack, [above, above], stability._certificates)]
    assert certs[1].hinf_norm == pytest.approx(certs[0].hinf_norm, rel=REL)


@SETTINGS
@given(systems(), st.floats(-18.0, 6.0))
def test_time_unit(ss, log_w):
    # C (sI - A w)^-1 B w = G(s / w): the same norm, at w times the frequency
    w = 10.0 ** log_w
    check(ss, StateSpace(ss.A * w, ss.B * w, ss.C), lambda f: f / w)


@SETTINGS
@given(systems())
def test_conjugation(ss):
    # conj(C) (i f I - conj(A))^-1 conj(B) = conj(G(-i f))
    check(ss, StateSpace(ss.A.conj(), ss.B.conj(), ss.C.conj()), lambda f: -f)


@SETTINGS
@given(systems(), st.integers(0, 2 ** 32 - 1))
def test_unitary_similarity(ss, seed):
    # C Q^H (sI - Q A Q^H)^-1 Q B = G(s) for unitary Q
    rng = np.random.default_rng(seed)
    n = len(ss.A)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    check(ss, StateSpace(Q @ ss.A @ Q.conj().T, Q @ ss.B, ss.C @ Q.conj().T), lambda w: w)



@st.composite
def models(draw):
    """A random O(1) model or a physical one, both of order 4."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        return make_random_model(rng)
    return jc.build_model(random_params(rng))


def outcome(call, *args):
    """The JSON of a certificate, or the exception raised, as text."""
    try:
        return stability._raised(call(*args)).to_json()
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


@SETTINGS
@given(st.lists(models(), min_size=2, max_size=5))
def test_stack_is_each_system_alone(drawn):
    # a stack decided by the core `certify` shares gives each system's
    # certificate alone, bit for bit
    stack = stability._realization(np.stack([m.M for m in drawn]), np.stack([m.N for m in drawn]),
                                   np.stack([m.Etilde for m in drawn]))
    found = stability._decided(stack, [m.gamma / 2.0 for m in drawn], stability._certificates)
    assert [outcome(stability._raised, r) for r in found] == [outcome(certify, m) for m in drawn]


@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_threshold_is_closed_form(seed):
    # kappa2* is a measured peak's root, within 1e-8 of the closed form, and
    # the verdict flips across the verification pair
    p = random_params(np.random.default_rng(seed))
    assume(not is_certified(jc.build_model(p.replace(kappa2=1e10))))
    assume(is_certified(jc.build_model(p.replace(kappa2=1e14))))
    star = jc.find_threshold(p, 1e10, 1e14)
    assert not is_certified(jc.build_model(p.replace(kappa2=star * (1 - 5e-4))))
    assert is_certified(jc.build_model(p.replace(kappa2=star * (1 + 5e-4))))
    assert star == pytest.approx(closed_form_threshold(p), rel=1e-8)


def stack_of(drawn) -> StateSpace:
    """The realizations of the models `drawn`, as one stack."""
    return stability._realization(np.stack([m.M for m in drawn]), np.stack([m.N for m in drawn]),
                                  np.stack([m.Etilde for m in drawn]))


def response_expression(ss, s) -> tuple[np.ndarray, np.ndarray]:
    """(s I - A, C (s I - A)^-1 B) from the expression s I - A as written,
    through a temporary, with `transfer_response`'s shapes."""
    s = np.atleast_1d(np.asarray(s, dtype=complex))
    lhs = s[..., None, None] * np.eye(ss.A.shape[-1], dtype=complex) - ss.A
    x = np.linalg.solve(lhs, ss.B[(None,) * (lhs.ndim - ss.B.ndim)])
    return lhs, (ss.C @ x)[..., 0, 0]


def points(rng, scale: float, shape) -> np.ndarray:
    """Points s of `shape` at `scale`: on the imaginary axis (real part a
    signed zero), on the real axis and off both."""
    s = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    pick = rng.integers(0, 3, shape)
    return np.select([pick == 0, pick == 1], [1j * s.imag, s.real + 0j], s)


@SETTINGS
@given(st.lists(models(), min_size=1, max_size=5), st.integers(0, 2 ** 32 - 1))
def test_transfer_response_is_its_expression(drawn, seed):
    # the same shapes and bytes, of G and of the s I - A it solves with,
    # whose signed zeros rarely reach G: one system at a scalar, a vector
    # and a grid of points; k systems each at its own row of points; and k
    # systems at one scalar point, where s I is smaller than the stack it
    # is written into
    rng = np.random.default_rng(seed)
    stack = stack_of(drawn)
    one, k, scale = StateSpace(stack.A[0], stack.B[0], stack.C[0]), len(drawn), np.abs(stack.A).max()
    rows = StateSpace(stack.A[:, None], stack.B[:, None], stack.C[:, None])
    solve, solved = np.linalg.solve, []
    for ss, s in [(one, complex(points(rng, scale, ()))), (one, points(rng, scale, (7,))),
                  (one, points(rng, scale, (3, 5))), (rows, points(rng, scale, (k, 6))),
                  (stack, complex(points(rng, scale, ())))]:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np.linalg, "solve", lambda a, b: solved.append(a) or solve(a, b))
            got = stability.transfer_response(ss, s)
        lhs, want = response_expression(ss, s)
        assert solved.pop().tobytes() == lhs.tobytes()
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def crossings_expression(st: StateSpace, levels) -> list:
    """`_imag_axis_crossings`' rule with every row sorted and indexed."""
    A, B, C = st.A, st.B, st.C
    level = np.asarray(levels, dtype=float)[:, None, None]
    H = np.block([[A, (B @ B.conj().transpose(0, 2, 1)) / level],
                  [-(C.conj().transpose(0, 2, 1) @ C) / level, -A.conj().transpose(0, 2, 1)]])
    ev = np.linalg.eigvals(H)
    coupling = np.abs(B).max(axis=(1, 2)) * np.abs(C).max(axis=(1, 2)) / level[:, 0, 0]
    tol = stability.IMAG_AXIS_REL_TOL * np.maximum(np.abs(A).max(axis=(1, 2)), coupling)
    on_axis = np.abs(ev.real) <= tol[:, None]
    return [np.sort(e.imag[m]) for e, m in zip(ev, on_axis)]


@SETTINGS
@given(st.lists(models(), min_size=1, max_size=5), st.integers(0, 2 ** 32 - 1))
def test_crossings_are_their_rule_on_every_row(drawn, seed):
    # each row at a level below or above its best seed gain, so that rows
    # with and without crossings share a stack; the same arrays row by row,
    # and a row without one gets a read-only empty array
    stack = stack_of(drawn)
    gains = stability._row_peaks(stack, stability._seeds(np.linalg.eigvals(stack.A)))[0]
    levels = gains * np.random.default_rng(seed).choice([0.5, 0.99, 1.5, 4.0], len(drawn))
    got, want = stability._imag_axis_crossings(stack, levels), crossings_expression(stack, levels)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()
        assert g.size or not g.flags.writeable


#: rates at the edges of the float range: zero, the smallest subnormal
#: and one whose square root is about 1e150
EDGE_RATES = [0.0, 5e-324, 1e300]
rates = st.one_of(st.sampled_from(EDGE_RATES), st.floats(0.0, 1.7e308))


@SETTINGS
@given(st.integers(0, 2 ** 32 - 1), st.lists(rates, max_size=6), rates, st.booleans())
def test_affine_rows_are_the_realization(seed, drawn, fixed, sensitivity):
    # the rows that `_sweep` and the threshold search decide, P - D/2 from
    # the base's one build, are `_realization` on `build_coupling`'s N with
    # the same shapes and bytes, for the broadcasts of both callers: kappa2
    # an array and kappa1 a scalar (sweep, threshold), and the other way
    # round (sensitivity).  tobytes on purpose: np.array_equal takes -0.0
    # for 0.0, and a signed zero of A is a bit its rows must keep.
    base = sweep._base(random_params(np.random.default_rng(seed)))
    many = np.array(EDGE_RATES + drawn)
    k1, k2 = (many, fixed) if sensitivity else (fixed, many)
    got = sweep._rows(base, k1, k2)
    N = build_coupling(k1, k2)
    m = base.model
    want = stability._realization(m.M, N, np.broadcast_to(m.Etilde, N.shape[:-2] + m.Etilde.shape))
    for name in "ABC":
        g, w = getattr(got, name), getattr(want, name)
        assert g.shape == w.shape and g.tobytes() == w.tobytes()
