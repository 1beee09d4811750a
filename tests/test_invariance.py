"""The exact half of the receiver-invariance ledger: which receiver
impairments each division cancels exactly.

Noise-free captures on a unit flat channel, through the identity receiver
given one impairment of a drawn receiver profile (its FIR taps, or its
oscillator offset). A table cancels the impairment exactly when every
feature equals the identity receiver's to rounding. Reference division
cancels the receiver FIR only when the device and the reference share an
oscillator offset: otherwise the two frames reach the FIR at different
frequency shifts, and the FIR's response differs between them.
"""

from dataclasses import replace

import numpy as np
import pytest

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


def _deviations(impairment, shared_cfo=False):
    """Per table, the largest |feature - the identity receiver's feature|
    of each (receiver seed, device) pair."""
    out = {}
    for seed in RX_SEEDS:
        drawn = imp.sample_profile(seed, imp.Role.RECEIVER)
        rx = replace(IDENTITY, **{impairment: getattr(drawn, impairment)})
        for dev in DEVICES:
            if shared_cfo:
                dev = replace(dev, cfo_hz=REFERENCE.cfo_hz)
            got, want = _features(dev, rx), _features(dev, IDENTITY)
            for tag in got:
                out.setdefault(tag, []).append(float(np.abs(got[tag] - want[tag]).max()))
    return out


@pytest.mark.parametrize("impairment, shared_cfo, tags", [
    ("fir_taps", False, ("HL", "DV")),
    ("cfo_hz", False, ("RD_STF", "RD_LTF", "HL", "DV")),
    ("fir_taps", True, ("RD_STF", "RD_LTF")),
])
def test_division_cancels_receiver_impairment_exactly(impairment, shared_cfo, tags):
    deviations = _deviations(impairment, shared_cfo)
    for tag in tags:
        assert max(deviations[tag]) <= EXACT, (tag, deviations[tag])


def test_reference_division_keeps_receiver_fir_across_cfos():
    """Each device keeps its own oscillator offset: RD is not exact."""
    deviations = _deviations("fir_taps")
    for tag in ("RD_STF", "RD_LTF"):
        assert min(deviations[tag]) > 1e-6, (tag, deviations[tag])
