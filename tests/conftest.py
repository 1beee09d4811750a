import numpy as np
import pytest

from rffdiv import channel as ch
from rffdiv import impairments as imp
from rffdiv import preprocess as pp
from rffdiv.features import Field, field_spectrum
from rffdiv.signals import ComplexSignal
from rffdiv.waveform import PreambleFormat, PreambleSpec, generate_preamble

HTMF_FRAME = generate_preamble(PreambleSpec(PreambleFormat.HTMF))
NONHT_FRAME = generate_preamble(PreambleSpec(PreambleFormat.NONHT))


def build_capture(tx, rx, chan, lead=256, tail=120, noise_seed=None, frame=None):
    """Transmit one frame through the full chain, embedded in zero padding."""
    frame = HTMF_FRAME if frame is None else frame
    x = imp.apply_transmitter(tx, frame)
    padded = ComplexSignal(np.concatenate([
        np.zeros(lead, dtype=complex), x.samples, np.zeros(tail, dtype=complex),
    ]))
    rng = np.random.default_rng(noise_seed) if noise_seed is not None else None
    y = ch.apply_channel(chan, padded, noise_rng=rng)
    return imp.apply_receiver(rx, y), lead


def acquire(capture, multiplier=6.0):
    """Detection through CFO compensation with a floor-derived threshold."""
    thr = pp.noise_floor_threshold(capture, 80, multiplier)
    return pp.synchronize_and_compensate(capture, pp.DetectionConfig(80, thr))


def chain_spectra(tx, rx, chan, noise_seed=None, multiplier=6.0, frame=None):
    capture, _ = build_capture(tx, rx, chan, noise_seed=noise_seed, frame=frame)
    compensated, sync, _ = acquire(capture, multiplier)
    return {f: field_spectrum(compensated, sync.frame_start_n1, f) for f in Field}


@pytest.fixture
def flat_identity():
    return ch.ChannelRealization(ch.ChannelKind.FLAT, alpha=1.0 + 0j)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
