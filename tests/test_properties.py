"""Metamorphic properties of `hinf_norm`: rewritings of a realization
that leave its transfer function's norm unchanged, and move its peak
frequency in a known way.  They need no oracle: each compares the norm of
a drawn system with the norm of the same G written another way.  Two more
compare a stack of systems with each system alone, and `find_threshold`
with the closed-form threshold.

The draws are random 2-mode models of O(1) scale (`make_random_model`)
and physical models around the published constants (`random_params`),
from a seed that hypothesis picks.  The search is derandomized and keeps
no example database, so every run checks the same examples."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import jjcavity as jc
from jjcavity import stability
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
