import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles

from rffdiv import refselect as rs


def test_db4_identities_to_1e12():
    g = rs.DB4_SCALING
    assert abs(g.sum() - np.sqrt(2.0)) < 1e-12
    assert abs(np.dot(g, g) - 1.0) < 1e-12
    for k in (1, 2, 3):
        assert abs(np.dot(g[: -2 * k], g[2 * k:])) < 1e-12


def test_db4_matches_spectral_factorization_oracle():
    derived = oracles.db4_scaling_by_factorization()
    assert np.abs(derived - rs.DB4_SCALING).max() < 1e-10


def test_lowpass_constant_passthrough():
    c = np.full(52, 0.4)
    out = rs.lowpass_reconstruct(c)
    assert np.abs(out - c).max() < 1e-9


def test_lowpass_idempotent(rng):
    x = np.abs(rng.normal(size=52)) + 0.1
    once = rs.lowpass_reconstruct(x)
    twice = rs.lowpass_reconstruct(once)
    energy_change = np.sum((twice - once) ** 2) / np.sum(once**2)
    assert energy_change < 1e-6


def test_lowpass_matches_projection_oracle(rng):
    g = oracles.db4_scaling_by_factorization()
    for _ in range(5):
        x = np.abs(rng.normal(size=52)) + 0.05
        ours = rs.lowpass_reconstruct(x)
        theirs = oracles.lowpass_subspace_projection(x, g)
        assert np.abs(ours - theirs).max() < 1e-9


def test_lowpass_rejects_short_input():
    with pytest.raises(rs.LengthError):
        rs.lowpass_reconstruct(np.ones(15))


def test_eta_constant_is_one():
    score = rs.eta_lf(np.full(52, 2.0), device_id="const")
    assert abs(score.eta_lf - 1.0) < 1e-9
    assert score.device_id == "const"


def test_eta_alternating_small():
    alt = np.ones(52)
    alt[1::2] = -1
    score = rs.eta_lf(alt)
    assert score.eta_lf < 0.05
    # frozen from the independent factorization + upfirdn oracle
    assert abs(score.eta_lf - oracles.eta_lowfreq(alt)) < 1e-9


def test_eta_smooth_beats_rippled(rng):
    k = np.arange(52)
    smooth = 0.6 + 0.4 * np.cos(np.pi * (k - 25.5) / 30)
    rippled = smooth * (1 + 0.2 * rng.standard_normal(52))
    assert rs.eta_lf(smooth).eta_lf > rs.eta_lf(rippled).eta_lf


def test_eta_strictly_increasing_with_smoothness(rng):
    # candidates engineered with decreasing ripple score strictly higher
    k = np.arange(52)
    base = 0.6 + 0.4 * np.cos(np.pi * (k - 25.5) / 30)
    ripple = rng.standard_normal(52)
    etas = [rs.eta_lf(base * (1 + amp * ripple)).eta_lf for amp in (0.3, 0.1, 0.02)]
    assert etas[0] < etas[1] < etas[2]


def test_eta_degenerate_input():
    with pytest.raises(rs.DegenerateInputError):
        rs.eta_lf(np.zeros(52))
    with pytest.raises(rs.DegenerateInputError):
        rs.eta_lf(np.full(52, np.nan))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=16, max_size=64))
def test_eta_range_and_scale_invariance(vals):
    x = np.array(vals)
    if np.sum(x**2) == 0.0:
        x[0] = 1.0
    score = rs.eta_lf(x)
    assert 0.0 < score.eta_lf <= 1.0 + 1e-9
    assert abs(rs.eta_lf(4.2 * x).eta_lf - score.eta_lf) < 1e-9
    assert abs(score.eta_lf - score.energy_after / score.energy_before) < 1e-12


def test_eta_bounded_for_signed_inputs(rng):
    # the projection form keeps the ratio inside (0, 1] even off the
    # amplitude domain, where filter-bank reconstruction overshoots
    for _ in range(200):
        x = rng.normal(size=52)
        assert rs.eta_lf(x).eta_lf <= 1.0 + 1e-9
