"""The receiver-invariance ledger: which receiver impairments each
division cancels exactly, and how far the others leak.

Noise-free captures. The exact half runs on a unit flat channel through
the identity receiver given one impairment of a drawn receiver profile
(its FIR taps, or its oscillator offset). A table cancels the impairment
exactly when every feature equals the identity receiver's to rounding.
Reference division cancels the receiver FIR only when the device and the
reference share an oscillator offset: otherwise the two frames reach the
FIR at different frequency shifts, and the FIR's response differs between
them. The channel rows add linear receivers with flat gains (RD) and
selective channels (HL).

The bounded half takes every other (impairment, table) pair and divides
its largest deviation from the identity receiver's features by the
table's device gap, so a change that makes a division leak more fails.
"""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from conftest import chain_spectra

from rffdiv import channel as ch
from rffdiv import features as ft
from rffdiv import harness as hz
from rffdiv import impairments as imp
from rffdiv import preprocess as pp
from rffdiv.features import Field

EXACT = 1e-12
UNIT = ch.ChannelRealization(ch.ChannelKind.FLAT)
REFERENCE = imp.sample_profile(55, imp.Role.TRANSMITTER)
DEVICES = [imp.sample_profile(s, imp.Role.TRANSMITTER, field_distinct=True)
           for s in range(100, 105)]
IDENTITY = imp.identity_profile("rx")
RX_SEEDS = (900, 901, 902)
LINEAR_RXS = [
    imp.linear_profile("rxA", [1, 0.05 - 0.02j, 0.01 + 0.02j]),
    imp.linear_profile("rxB", [1, -0.03 + 0.04j, -0.012j]),
    imp.linear_profile("rxC", [1, 0.02 + 0.06j, 0.02 - 0.01j]),
]
LINEAR_TAPS = [1, 0.06 + 0.03j, -0.02 + 0.01j]


def _spectra(tx, rx):
    capture, _ = hz.simulate_capture(tx, rx, UNIT, 1, 2)
    thr = pp.noise_floor_threshold(capture, 80, 6.0)
    compensated, sync, _ = pp.synchronize_and_compensate(capture, pp.DetectionConfig(80, thr))
    return {f: ft.field_spectrum(compensated, sync.frame_start_n1, f) for f in Field}


def _features(tx, rx):
    """Every table's features of `tx` through `rx`; RD divides by the
    reference's capture through the same receiver."""
    dev, ref = _spectra(tx, rx), _spectra(REFERENCE, rx)
    return {"RD_STF": ft.extract_rd(dev[Field.LSTF], ref[Field.LSTF]).values,
            "RD_LTF": ft.extract_rd(dev[Field.LLTF], ref[Field.LLTF]).values,
            "HL": ft.extract_hl(dev[Field.LLTF], dev[Field.HTLTF]).values,
            "DV": ft.extract_dv(dev[Field.LSTF], dev[Field.LLTF]).values}


def _deviations(*impairments, shared_cfo=False):
    """Per table, the largest |feature - the identity receiver's feature|
    of each (receiver seed, device) pair. The receiver is the identity
    given `impairments` of the drawn one, or with none the drawn one."""
    out = {}
    for seed in RX_SEEDS:
        drawn = imp.sample_profile(seed, imp.Role.RECEIVER)
        rx = replace(IDENTITY, **{k: getattr(drawn, k) for k in impairments}) if impairments else drawn
        for dev in DEVICES:
            if shared_cfo:
                dev = replace(dev, cfo_hz=REFERENCE.cfo_hz)
            got, want = _features(dev, rx), _features(dev, IDENTITY)
            for tag in got:
                out.setdefault(tag, []).append(float(np.abs(got[tag] - want[tag]).max()))
    return out


def _spread(rows):
    """The largest |feature - the first row's feature|."""
    rows = np.array(rows)
    return float(np.abs(rows - rows[0]).max())


@pytest.mark.parametrize("impairment, shared_cfo, tags", [
    ("fir_taps", False, ("HL", "DV")),
    ("cfo_hz", False, ("RD_STF", "RD_LTF", "HL", "DV")),
    ("fir_taps", True, ("RD_STF", "RD_LTF")),
])
def test_division_cancels_receiver_impairment_exactly(impairment, shared_cfo, tags):
    deviations = _deviations(impairment, shared_cfo=shared_cfo)
    for tag in tags:
        assert max(deviations[tag]) <= EXACT, (tag, deviations[tag])


def test_reference_division_cancels_linear_receivers_and_flat_gains_exactly():
    """A linear device over a linear reference (both without CFO), through
    three linear receivers, each capture on its own flat gain."""
    dev = imp.linear_profile("dev", LINEAR_TAPS)
    ref = imp.linear_profile("ref", [1, -0.04 + 0.05j, 0.015j])
    gains = [0.9 * np.exp(0.5j), 0.4 * np.exp(-1.2j), 1.3 * np.exp(2.2j)]
    rows = {Field.LSTF: [], Field.LLTF: []}
    for rx in LINEAR_RXS:
        for a_model, a_unknown in zip(gains, reversed(gains)):
            model = chain_spectra(ref, rx, ch.ChannelRealization(ch.ChannelKind.FLAT, alpha=a_model))
            unknown = chain_spectra(dev, rx, ch.ChannelRealization(ch.ChannelKind.FLAT, alpha=a_unknown))
            for field, fields in rows.items():
                fields.append(ft.extract_rd(unknown[field], model[field]).values)
    for field, fields in rows.items():
        assert _spread(fields) <= EXACT, (field, _spread(fields))


def test_ht_over_long_cancels_linear_receivers_and_selective_channels_exactly():
    """A linear device with an HT-LTF tilt, through three linear receivers
    and three noise-free selective channels; sync is exact on these."""
    tilt = imp.sample_profile(5, imp.Role.TRANSMITTER, field_distinct=True).band_tilt
    dev = imp.linear_profile("dev", LINEAR_TAPS, band_tilt=tilt)
    rows = []
    for rx in LINEAR_RXS:
        for seed in (40, 41, 42):
            spectra = chain_spectra(dev, rx, ch.sample_channel(ch.ChannelKind.SELECTIVE, np.inf,
                                                               seed, n_taps=4))
            rows.append(ft.extract_hl(spectra[Field.LLTF], spectra[Field.HTLTF]).values)
    assert _spread(rows) <= EXACT, _spread(rows)


def test_reference_division_keeps_receiver_fir_across_cfos():
    """Each device keeps its own oscillator offset: RD is not exact."""
    deviations = _deviations("fir_taps")
    for tag in ("RD_STF", "RD_LTF"):
        assert min(deviations[tag]) > 1e-6, (tag, deviations[tag])


# The bounded half: each pair's largest deviation over its table's device
# gap, as measured when the ledger was written (rounded up). A pair may
# leak up to 1.25 times that. The receiver's IQ stage is its gain and phase
# imbalance together; () is the whole drawn receiver.
BOUNDED = {
    ("fir_taps",): {"RD_STF": 0.0200, "RD_LTF": 0.0206},
    ("dc_offset",): {"RD_STF": 0.00862, "RD_LTF": 0.0895, "HL": 0.0151, "DV": 0.0785},
    ("iq_gain_imbalance", "iq_phase_imbalance"):
        {"RD_STF": 0.131, "RD_LTF": 0.114, "HL": 0.0770, "DV": 0.714},
    ("pa_coeffs",): {"RD_STF": 0.00424, "RD_LTF": 0.00589, "HL": 0.00465, "DV": 0.0239},
    (): {"RD_STF": 0.128, "RD_LTF": 0.132, "HL": 0.0539, "DV": 0.775},
}


@pytest.fixture(scope="module")
def device_gaps():
    """Per table, the median over pairs of devices of the largest
    |difference| between their features through the identity receiver."""
    feats = [_features(dev, IDENTITY) for dev in DEVICES]
    return {tag: float(np.median([np.abs(a[tag] - b[tag]).max()
                                  for a, b in itertools.combinations(feats, 2)]))
            for tag in feats[0]}


@pytest.mark.parametrize("impairments", BOUNDED, ids=lambda k: "+".join(k) or "whole_receiver")
def test_division_leaks_receiver_impairment_within_bound(impairments, device_gaps):
    deviations = _deviations(*impairments)
    for tag, measured in BOUNDED[impairments].items():
        ratio = max(deviations[tag]) / device_gaps[tag]
        assert ratio <= 1.25 * measured, (tag, ratio, measured)
