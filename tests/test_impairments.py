import numpy as np
import pytest

from conftest import HTMF_FRAME, NONHT_FRAME, build_capture, chain_spectra
from oracles import dft_of_taps

from rffdiv import channel as ch
from rffdiv import impairments as imp
from rffdiv.features import Field, extract_hl
from rffdiv.waveform import extract_window, occupied_tones, tone_to_bin


def test_identity_profile_is_identity():
    ident = imp.identity_profile()
    assert np.array_equal(imp.apply_transmitter(ident, HTMF_FRAME).samples, HTMF_FRAME.samples)
    assert np.array_equal(imp.apply_receiver(ident, HTMF_FRAME).samples, HTMF_FRAME.samples)


def test_transmitter_cfo_closed_form():
    p = imp.DeviceProfile("t", cfo_hz=100e3)
    out = imp.apply_transmitter(p, HTMF_FRAME)
    n = np.arange(len(HTMF_FRAME))
    expected = HTMF_FRAME.samples * np.exp(2j * np.pi * 1e5 * n / 20e6)
    assert np.abs(out.samples - expected).max() < 1e-12


def test_receiver_cfo_derotates():
    p = imp.DeviceProfile("r", cfo_hz=50e3)
    out = imp.apply_receiver(p, HTMF_FRAME)
    n = np.arange(len(HTMF_FRAME))
    expected = HTMF_FRAME.samples * np.exp(-2j * np.pi * 5e4 * n / 20e6)
    assert np.abs(out.samples - expected).max() < 1e-12


def test_composed_tx_rx_oscillators_leave_their_difference():
    # tx at +200 kHz and rx at +50 kHz leave ~150 kHz for the estimator
    tx = imp.DeviceProfile("t", cfo_hz=200e3)
    rx = imp.DeviceProfile("r", cfo_hz=50e3)
    capture, lead = build_capture(tx, rx, ch.ChannelRealization(ch.ChannelKind.FLAT, alpha=1.0 + 0j))
    from rffdiv import preprocess as pp

    assert abs(pp.estimate_cfo_coarse(capture, lead) - 150e3) < 1.0


def test_distinct_receivers_produce_distinct_lltf_spectra(flat_identity):
    tx = imp.sample_profile(1, imp.Role.TRANSMITTER)
    spectra = [
        chain_spectra(tx, imp.sample_profile(900 + i, imp.Role.RECEIVER), flat_identity)
        for i in range(2)
    ]
    a = spectra[0][Field.LLTF].occupied_bins()
    b = spectra[1][Field.LLTF].occupied_bins()
    assert not np.allclose(np.abs(a) / np.linalg.norm(a), np.abs(b) / np.linalg.norm(b))


def test_two_tap_fir_matches_dft_oracle():
    taps = np.array([1.0, 0.05j])
    p = imp.DeviceProfile("t", fir_taps=taps)
    out = imp.apply_transmitter(p, NONHT_FRAME)
    w_in = extract_window(NONHT_FRAME, 0, "LLTF1")
    w_out = extract_window(out, 0, "LLTF1")
    occ = tone_to_bin(occupied_tones(Field.LLTF))
    measured = np.fft.fft(w_out)[occ] / np.fft.fft(w_in)[occ]
    expected = dft_of_taps(taps, [0, 1])[occ]
    assert np.abs(measured - expected).max() < 1e-6


def test_profile_invariants_enforced():
    with pytest.raises(ValueError):
        imp.DeviceProfile("bad", fir_taps=[])
    with pytest.raises(ValueError):
        imp.DeviceProfile("bad", fir_taps=[0.1, 1.0])  # first tap must dominate
    with pytest.raises(ValueError):
        imp.DeviceProfile("bad", iq_gain_imbalance=0.0)
    with pytest.raises(ValueError):
        imp.DeviceProfile("bad", pa_coeffs=[0.9])
    for taps in ([0], [0, 0]):  # a zero first tap dominates vacuously and nulls every frame
        with pytest.raises(ValueError, match="first FIR tap must be nonzero"):
            imp.DeviceProfile("bad", fir_taps=taps)


def test_sample_profile_deterministic():
    a = imp.sample_profile(42, imp.Role.TRANSMITTER, field_distinct=True)
    b = imp.sample_profile(42, imp.Role.TRANSMITTER, field_distinct=True)
    assert np.array_equal(a.fir_taps, b.fir_taps)
    assert a.cfo_hz == b.cfo_hz and a.dc_offset == b.dc_offset
    assert np.array_equal(a.band_tilt, b.band_tilt)


def test_receiver_profiles_never_tilt():
    for seed in range(8):
        assert imp.sample_profile(seed, imp.Role.RECEIVER).band_tilt is None


def test_field_distinct_transmitter_yields_structured_hl_feature(flat_identity):
    tx = imp.sample_profile(7, imp.Role.TRANSMITTER, field_distinct=True)
    tx = imp.linear_profile("t", [1.0], band_tilt=tx.band_tilt)
    rx = imp.identity_profile("r")
    spectra = chain_spectra(tx, rx, flat_identity)
    feat = extract_hl(spectra[Field.LLTF], spectra[Field.HTLTF])
    flat = np.full(52, 1 / np.sqrt(52))
    assert np.abs(feat.values - flat).max() > 1e-3


def test_tilt_only_touches_htltf_field():
    tx = imp.sample_profile(7, imp.Role.TRANSMITTER, field_distinct=True)
    tilted = imp.linear_profile("t", [1.0], band_tilt=tx.band_tilt)
    out = imp.apply_transmitter(tilted, HTMF_FRAME)
    assert np.array_equal(out.samples[:320], HTMF_FRAME.samples[:320])
    assert not np.allclose(out.samples[320:], HTMF_FRAME.samples[320:])


def test_every_parameter_changes_the_output():
    base = imp.identity_profile()
    variants = {
        "dc_offset": {"dc_offset": 0.01 + 0.02j},
        "iq_gain_imbalance": {"iq_gain_imbalance": 1.05},
        "iq_phase_imbalance": {"iq_phase_imbalance": 0.02},
        "fir_taps": {"fir_taps": [1.0, 0.05]},
        "pa_coeffs": {"pa_coeffs": [1.0, -0.01]},
        "cfo_hz": {"cfo_hz": 1e3},
    }
    ref = imp.apply_transmitter(base, HTMF_FRAME).samples
    for name, kwargs in variants.items():
        p = imp.DeviceProfile("v", **kwargs)
        out = imp.apply_transmitter(p, HTMF_FRAME).samples
        assert not np.array_equal(out, ref), name


def test_linear_profile_commutes_with_input_scaling():
    p = imp.linear_profile("t", [1.0, 0.04 - 0.02j, 0.01j], cfo_hz=20e3)
    scaled_in = imp.apply_transmitter(p, HTMF_FRAME.replace_samples(HTMF_FRAME.samples * (2 - 1j)))
    scaled_out = imp.apply_transmitter(p, HTMF_FRAME).samples * (2 - 1j)
    assert np.abs(scaled_in.samples - scaled_out).max() < 1e-12


def test_default_ranges_keep_net_cfo_inside_sync_budget():
    worst = imp.TX_RANGES["cfo_hz"] + imp.RX_RANGES["cfo_hz"]
    assert worst < 90e3  # noiseless sync alias wins around 95 kHz net offset


def test_power_series_helpers_match_numpy_polynomial_bits():
    from numpy.polynomial import legendre, polynomial

    rng = np.random.default_rng(27)
    t = np.arange(-32, 32) / 32.0
    for n in range(1000):
        leg = np.zeros(7)
        leg[1:] = rng.standard_normal(6) * 0.95 ** np.arange(6)
        if n % 10 == 0:  # other lengths, and a nonzero constant term
            leg = rng.standard_normal(1 + n % 9)
        coeffs = imp._leg2poly(leg)
        assert coeffs.tobytes() == legendre.leg2poly(leg).tobytes()
        assert imp._polyval(t, coeffs).tobytes() == polynomial.polyval(t, coeffs).tobytes()
