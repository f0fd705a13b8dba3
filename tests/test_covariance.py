"""Covariance of the quadrature oracle under affine maps of the variable.

Moving every endpoint by x -> x + c shifts b_n by c and leaves a_n,
gamma_n and the node ratios theta, theta_prev, omega alone. Scaling every
endpoint by x -> lam x scales a_n and b_n by lam, gamma_n by
lam^(-n - (1 + sum alpha)/2) (p_n(lam v) of the scaled weight is
lam^(-(1 + sum alpha)/2) p_n(v)), theta and theta_prev by 1/lam, and
leaves omega alone. ``init_states`` is checked against both on random
admissible weights; lam is a power of 2, so the scaled endpoints are
exact.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import quad_ref
from gjflow import EndpointTrajectory, init_states, make_weight
from test_rule_table import PROPERTY_TOL, configs

OFFSETS = st.lists(st.floats(-0.01, 0.01), min_size=1, max_size=6)


def mapped(w, t, shift=0.0, scale=1.0):
    """The weight w with every endpoint path x_k(t) replaced by
    scale * x_k(t) + shift."""
    traj = tuple((scale * row[0] + shift,) + tuple(scale * c for c in row[1:])
                 for row in w.trajectory.coeffs)
    return make_weight(w.alpha, w.pieces, EndpointTrajectory(traj), t_ref=t)


def assert_close(got, want):
    # gamma_n apart, as its size is far from 1 at high degree
    assert quad_ref.relative(np.delete(got, 2, axis=1),
                             np.delete(want, 2, axis=1)) <= PROPERTY_TOL
    assert np.max(np.abs(got[:, 2] / want[:, 2] - 1.0)) <= PROPERTY_TOL


@settings(max_examples=25, deadline=None, derandomize=True)
@given(configs(), st.floats(-3.0, 3.0), OFFSETS)
def test_translation(cfg, c, offsets):
    w, n, t = cfg
    ts = t + np.array(offsets)
    want = init_states(w, n, ts)
    want[:, 1] += c
    assert_close(init_states(mapped(w, t, shift=c), n, ts), want)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(configs(), st.sampled_from([0.25, 0.5, 2.0, 4.0]), OFFSETS)
def test_dilation(cfg, lam, offsets):
    w, n, t = cfg
    m = w.m
    ts = t + np.array(offsets)
    want = init_states(w, n, ts)
    want[:, :2] *= lam
    want[:, 2] *= lam ** (-n - (1.0 + w.sum_alpha) / 2.0)
    want[:, 3:3 + 2 * m] /= lam
    assert_close(init_states(mapped(w, t, scale=lam), n, ts), want)
