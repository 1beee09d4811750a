import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import HTMF_FRAME, NONHT_FRAME, chain_spectra
from oracles import dft_of_taps

from rffdiv import channel as ch
from rffdiv import features as ft
from rffdiv import impairments as imp
from rffdiv import preprocess as pp
from rffdiv.features import (
    DegenerateDenominatorError,
    DegenerateModelError,
    Extractor,
    FeatureVector,
    Field,
    field_spectrum,
)
from rffdiv.waveform import WindowBoundsError, ideal_symbol_spectrum, occupied_tones, tone_to_bin

RXS = [
    imp.linear_profile("rxA", [1, 0.05 - 0.02j, 0.01 + 0.02j]),
    imp.linear_profile("rxB", [1, -0.03 + 0.04j, -0.012j]),
    imp.linear_profile("rxC", [1, 0.02 + 0.06j, 0.02 - 0.01j]),
]
DEV = imp.linear_profile("dev", [1, 0.06 + 0.03j, -0.02 + 0.01j])
REF = imp.linear_profile("ref", [1, -0.04 + 0.05j, 0.015j])


def test_field_spectrum_ideal_proportional(flat_identity):
    spectra = chain_spectra(imp.identity_profile(), imp.identity_profile(), flat_identity)
    occ = tone_to_bin(occupied_tones(Field.LLTF))
    ratio = spectra[Field.LLTF].bins[occ] / ideal_symbol_spectrum(Field.LLTF)[occ]
    assert np.abs(ratio - ratio.mean()).max() < 1e-9


def test_field_spectrum_through_taps_matches_dft():
    taps = np.array([0.9, 0.4, 0.1 + 0.1j])
    taps = taps / np.sqrt(np.sum(np.abs(taps) ** 2))
    chan = ch.ChannelRealization(ch.ChannelKind.SELECTIVE, taps=taps, delays=np.array([0, 1, 2]))
    spectra = chain_spectra(imp.identity_profile(), imp.identity_profile(), chan)
    clean = field_spectrum(NONHT_FRAME, 0, Field.LLTF)
    occ = tone_to_bin(occupied_tones(Field.LLTF))
    measured = spectra[Field.LLTF].bins[occ] / clean.bins[occ]
    expected = dft_of_taps(taps, [0, 1, 2])[occ]
    assert np.abs(measured - expected).max() < 1e-6


def test_field_spectrum_htltf_of_nonht_frame_is_bounds_error():
    with pytest.raises(WindowBoundsError):
        field_spectrum(NONHT_FRAME, 0, Field.HTLTF)


def test_rd_self_division_is_flat():
    spec = field_spectrum(HTMF_FRAME, 0, Field.LLTF)
    feat = ft.extract_rd(spec, spec)
    assert np.abs(feat.values - 1 / np.sqrt(52)).max() < 1e-12
    stf = field_spectrum(HTMF_FRAME, 0, Field.LSTF)
    feat12 = ft.extract_rd(stf, stf)
    assert feat12.extractor is Extractor.RD_STF
    assert np.abs(feat12.values - 1 / np.sqrt(12)).max() < 1e-12


def test_rd_rejects_field_mismatch_and_degenerate_model():
    lltf = field_spectrum(HTMF_FRAME, 0, Field.LLTF)
    lstf = field_spectrum(HTMF_FRAME, 0, Field.LSTF)
    with pytest.raises(ValueError):
        ft.extract_rd(lltf, lstf)
    broken = ft.FieldSpectrum(Field.LLTF, lltf.bins.copy())
    broken.bins[tone_to_bin(occupied_tones(Field.LLTF))[3]] = 0.0
    with pytest.raises(DegenerateModelError):
        ft.extract_rd(lltf, broken)


def test_hl_without_tilt_is_flat(flat_identity):
    spectra = chain_spectra(DEV, RXS[0], flat_identity)
    feat = ft.extract_hl(spectra[Field.LLTF], spectra[Field.HTLTF])
    assert np.abs(feat.values - 1 / np.sqrt(52)).max() < 1e-9


def test_hl_distinct_tilts_are_distinguishable(flat_identity):
    # two tilts at least 2 dB apart in RMS produce visibly different features
    t = np.arange(-32, 32) / 32.0
    mk = lambda db: np.array([0.0, db])  # linear ramp of +-db at band edge
    feats = []
    for db in (1.0, 3.5):
        dev = imp.linear_profile("dev", [1.0], band_tilt=mk(db))
        spectra = chain_spectra(dev, RXS[0], flat_identity)
        feats.append(ft.extract_hl(spectra[Field.LLTF], spectra[Field.HTLTF]))
    cos = feats[0].values @ feats[1].values
    assert cos < 0.999


def test_dv_identical_field_response_is_flat(flat_identity):
    spectra = chain_spectra(DEV, RXS[1], flat_identity)
    feat = ft.extract_dv(spectra[Field.LSTF], spectra[Field.LLTF])
    assert feat.values.size == 12
    assert np.abs(feat.values - 1 / np.sqrt(12)).max() < 1e-9


def test_dimension_contract():
    spectra = chain_spectra(DEV, RXS[0], ch.ChannelRealization(ch.ChannelKind.FLAT, alpha=1.0 + 0j))
    model = chain_spectra(REF, RXS[0], ch.ChannelRealization(ch.ChannelKind.FLAT, alpha=1.0 + 0j))
    assert ft.extract_rd(spectra[Field.LSTF], model[Field.LSTF]).values.size == 12
    assert ft.extract_rd(spectra[Field.LLTF], model[Field.LLTF]).values.size == 52
    assert ft.extract_hl(spectra[Field.LLTF], spectra[Field.HTLTF]).values.size == 52
    assert ft.extract_dv(spectra[Field.LSTF], spectra[Field.LLTF]).values.size == 12


def test_unit_energy_and_nonnegative():
    spectra = chain_spectra(DEV, RXS[0], ch.ChannelRealization(ch.ChannelKind.FLAT, alpha=1.0 + 0j))
    feat = ft.extract_hl(spectra[Field.LLTF], spectra[Field.HTLTF])
    assert abs(np.sum(feat.values**2) - 1.0) < 1e-9
    assert np.all(feat.values >= 0) and np.all(np.isfinite(feat.values))


@settings(max_examples=25, deadline=None)
@given(re=st.floats(-3, 3), im=st.floats(-3, 3))
def test_scale_invariance(re, im):
    scalar = complex(re, im)
    if abs(scalar) < 1e-3:
        scalar = 1.0 + 1j
    tx = imp.apply_transmitter(DEV, HTMF_FRAME)
    scaled = tx.replace_samples(tx.samples * scalar)
    base_spec = {f: field_spectrum(tx, 0, f) for f in Field}
    scaled_spec = {f: field_spectrum(scaled, 0, f) for f in Field}
    a = ft.extract_hl(base_spec[Field.LLTF], base_spec[Field.HTLTF]).values
    b = ft.extract_hl(scaled_spec[Field.LLTF], scaled_spec[Field.HTLTF]).values
    assert np.abs(a - b).max() < 1e-9


def test_noise_degradation_monotone():
    tx = imp.sample_profile(21, imp.Role.TRANSMITTER, field_distinct=True)
    rx = imp.sample_profile(950, imp.Role.RECEIVER)
    sims = []
    for snr in (40.0, 25.0, 10.0):
        feats = []
        for t in range(30):
            chan = ch.sample_channel(ch.ChannelKind.SELECTIVE, snr, 800 + t,
                                     n_taps=4, decay=0.8, rice_k_db=10.0)
            try:
                spectra = chain_spectra(tx, rx, chan, noise_seed=t, multiplier=2.0)
            except (pp.NotDetectedError, pp.SyncFailedError):
                continue
            feats.append(ft.extract_hl(spectra[Field.LLTF], spectra[Field.HTLTF]))
        pair_sims = [a.values @ b.values for a, b in itertools.combinations(feats, 2)]
        sims.append(np.mean(pair_sims))
    assert sims[0] >= sims[1] >= sims[2]


def test_stability_ordering_hl_vs_dv_smoke():
    # small-sample version of the 20 dB ordering check (the acceptance
    # suite runs the full-size one): centered similarity prefers HL
    dev = imp.sample_profile(11, imp.Role.TRANSMITTER, field_distinct=True)
    rx = imp.sample_profile(900, imp.Role.RECEIVER)
    hl, dv = [], []
    for t in range(60):
        chan = ch.sample_channel(ch.ChannelKind.SELECTIVE, 20.0, 4000 + t,
                                 n_taps=4, decay=0.8, rice_k_db=10.0)
        try:
            spectra = chain_spectra(dev, rx, chan, noise_seed=t)
        except (pp.NotDetectedError, pp.SyncFailedError):
            continue
        hl.append(ft.extract_hl(spectra[Field.LLTF], spectra[Field.HTLTF]))
        dv.append(ft.extract_dv(spectra[Field.LSTF], spectra[Field.LLTF]))

    def mean_c(fs):  # mean cosine of every pair after removing each vector's tone mean
        c = np.array([f.values - f.values.mean() for f in fs])
        c /= np.linalg.norm(c, axis=1, keepdims=True)
        return np.mean([a @ b for a, b in itertools.combinations(c, 2)])

    assert mean_c(hl) > mean_c(dv)


def test_feature_vector_validation():
    tones = occupied_tones(Field.LSTF)
    good = np.full(12, 1 / np.sqrt(12))
    FeatureVector(Extractor.DV, good, tones)
    with pytest.raises(ValueError):
        FeatureVector(Extractor.DV, good * 2, tones)  # not unit energy
    with pytest.raises(ValueError):
        FeatureVector(Extractor.DV, good[:11], tones[:11])  # wrong dim
    with pytest.raises(ValueError):
        FeatureVector(Extractor.HL, np.full(52, 1 / np.sqrt(52)) * -1,
                      occupied_tones(Field.LLTF))  # negative entries


def test_degenerate_denominator_guard():
    spectra = chain_spectra(DEV, RXS[0], ch.ChannelRealization(ch.ChannelKind.FLAT, alpha=1.0 + 0j))
    broken = ft.FieldSpectrum(Field.LLTF, spectra[Field.LLTF].bins.copy())
    broken.bins[tone_to_bin(occupied_tones(Field.LLTF))[10]] = 1e-12
    with pytest.raises(DegenerateDenominatorError):
        ft.extract_hl(broken, spectra[Field.HTLTF])
