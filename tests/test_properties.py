"""Metamorphic properties of `hinf_norm`: rewritings of a realization
that leave its transfer function's norm unchanged, and move its peak
frequency in a known way.  They need no oracle: each compares the norm of
a drawn system with the norm of the same G written another way.

The draws are random 2-mode models of O(1) scale (`make_random_model`)
and physical models around the published constants (`random_params`),
from a seed that hypothesis picks.  The search is derandomized and keeps
no example database, so every run checks the same examples."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jjcavity as jc
from jjcavity.stability import StateSpace, hinf_norm, state_space, transfer_eval

from conftest import make_random_model, random_params

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

