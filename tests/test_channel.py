import math

import numpy as np
import pytest

from conftest import HTMF_FRAME, NONHT_FRAME
from oracles import dft_of_taps

from rffdiv import channel as ch
from rffdiv import impairments as imp
from rffdiv.features import Field
from rffdiv.signals import ComplexSignal
from rffdiv.waveform import extract_window, occupied_tones, tone_to_bin


def test_flat_identity_noiseless_is_identity(flat_identity):
    out = ch.apply_channel(flat_identity, HTMF_FRAME)
    assert np.array_equal(out.samples, HTMF_FRAME.samples)


def test_flat_scales_every_sample():
    alpha = 0.5 * np.exp(1j * np.pi / 4)
    chan = ch.ChannelRealization(ch.ChannelKind.FLAT, alpha=alpha)
    out = ch.apply_channel(chan, HTMF_FRAME)
    assert np.abs(out.samples - alpha * HTMF_FRAME.samples).max() < 1e-15


def test_selective_matches_tap_dft_on_occupied_tones():
    taps = np.array([0.8, 0.5, 0.33166247903554])  # unit energy
    taps = taps / np.sqrt(np.sum(np.abs(taps) ** 2))
    chan = ch.ChannelRealization(
        ch.ChannelKind.SELECTIVE, taps=taps, delays=np.array([0, 1, 2])
    )
    padded = ComplexSignal(np.concatenate([NONHT_FRAME.samples, np.zeros(16, complex)]))
    out = ch.apply_channel(chan, padded)
    w_in = extract_window(NONHT_FRAME, 0, "LLTF1")
    w_out = extract_window(out, 0, "LLTF1")
    occ = tone_to_bin(occupied_tones(Field.LLTF))
    measured = np.fft.fft(w_out)[occ] / np.fft.fft(w_in)[occ]
    expected = dft_of_taps(taps, [0, 1, 2])[occ]
    assert np.abs(measured - expected).max() < 1e-6


def test_realization_invariants():
    with pytest.raises(ValueError):
        ch.ChannelRealization(ch.ChannelKind.FLAT, alpha=0.0)
    with pytest.raises(ValueError):
        ch.ChannelRealization(ch.ChannelKind.SELECTIVE, taps=np.array([1.0, 1.0]),
                              delays=np.array([0, 1]))  # energy 2, not normalized
    with pytest.raises(ValueError):
        ch.ChannelRealization(ch.ChannelKind.SELECTIVE, taps=np.array([1.0]),
                              delays=np.array([1]))  # delays must start at 0


def test_block_realization_checks_every_row():
    taps = np.array([[0.6, 0.8], [0.8, 0.6], [1.0, 1.0]], dtype=complex)
    with pytest.raises(ValueError, match="normalized to 1, got 2"):
        ch.ChannelRealization(ch.ChannelKind.SELECTIVE, taps=taps, delays=np.array([0, 1]))
    block = ch.ChannelRealization(ch.ChannelKind.SELECTIVE, taps=taps[:2], delays=np.array([0, 2]))
    assert np.array_equal(block.impulse_response(), [[0.6, 0, 0.8], [0.8, 0, 0.6]])
    with pytest.raises(ValueError, match="nonzero"):
        ch.ChannelRealization(ch.ChannelKind.FLAT, alpha=np.array([1.0, 0.0, 0.5j]))


def test_sample_channel_deterministic():
    a = ch.sample_channel(ch.ChannelKind.SELECTIVE, 20.0, seed=99)
    b = ch.sample_channel(ch.ChannelKind.SELECTIVE, 20.0, seed=99)
    assert np.array_equal(a.taps, b.taps)
    f1 = ch.sample_channel(ch.ChannelKind.FLAT, 20.0, seed=5)
    f2 = ch.sample_channel(ch.ChannelKind.FLAT, 20.0, seed=5)
    assert f1.alpha == f2.alpha


def test_flat_mean_square_gain_near_unity():
    draws = [ch.sample_channel(ch.ChannelKind.FLAT, math.inf, seed=s) for s in range(10_000)]
    mean_p = np.mean([abs(d.alpha) ** 2 for d in draws])
    assert abs(mean_p - 1.0) < 0.05


def test_exponential_profile_front_loaded():
    p = ch.exponential_power_profile(4, decay=1.0)
    assert p[0] > p[3]
    assert abs(p.sum() - 1.0) < 1e-12
    # draws keep more expected energy in the first tap than the last
    powers = np.mean(
        [np.abs(ch.sample_channel(ch.ChannelKind.SELECTIVE, math.inf, s).taps) ** 2
         for s in range(2000)],
        axis=0,
    )
    assert powers[0] > powers[3]


def test_snr_calibration_within_tolerance():
    clean = ComplexSignal(
        np.concatenate([np.zeros(100, complex), HTMF_FRAME.samples, np.zeros(50, complex)])
    )
    measured = []
    for seed in range(1000):
        chan = ch.ChannelRealization(ch.ChannelKind.FLAT, alpha=1.0 + 0j, snr_db=20.0, seed=seed)
        noisy = ch.apply_channel(chan, clean)
        noise = noisy.samples - clean.samples
        active = slice(100, 100 + 400)
        snr = np.mean(np.abs(clean.samples[active]) ** 2) / np.mean(np.abs(noise[active]) ** 2)
        measured.append(10 * np.log10(snr))
    assert abs(np.mean(measured) - 20.0) < 0.2


def test_flat_commutes_with_linear_impairment():
    chan = ch.ChannelRealization(ch.ChannelKind.FLAT, alpha=0.7 * np.exp(0.3j))
    p = imp.linear_profile("t", [1.0, 0.05 - 0.02j])
    a = ch.apply_channel(chan, imp.apply_transmitter(p, HTMF_FRAME))
    b = imp.apply_transmitter(p, ch.apply_channel(chan, HTMF_FRAME))
    assert np.abs(a.samples - b.samples).max() < 1e-9


def test_rician_option_raises_first_tap_share():
    diffuse = ch.sample_channel(ch.ChannelKind.SELECTIVE, math.inf, 3, n_taps=4, decay=0.8)
    rician = ch.sample_channel(ch.ChannelKind.SELECTIVE, math.inf, 3, n_taps=4,
                               decay=0.8, rice_k_db=10.0)
    share = lambda c: abs(c.taps[0]) ** 2 / np.sum(np.abs(c.taps) ** 2)
    assert share(rician) > share(diffuse)


def test_noise_rng_overrides_seeded_noise():
    chan = ch.ChannelRealization(ch.ChannelKind.FLAT, alpha=1.0 + 0j, snr_db=10.0, seed=0)
    a = ch.apply_channel(chan, HTMF_FRAME, noise_rng=np.random.default_rng(1))
    b = ch.apply_channel(chan, HTMF_FRAME, noise_rng=np.random.default_rng(2))
    assert not np.array_equal(a.samples, b.samples)
