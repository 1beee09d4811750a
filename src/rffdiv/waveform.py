"""Ideal 20 MHz preamble generation and its index arithmetic.

Two frame layouts are produced, both at 20 Msps with a 64-point FFT grid:

* non-HT: 160-sample short training field (ten repeats of a 16-sample
  symbol) followed by a 160-sample long training field (32-sample cyclic
  prefix plus two identical 64-sample symbols), 320 samples total.
* HT mixed format: the same 320-sample legacy part followed by one
  80-sample HT long training field (16-sample CP plus one 64-sample
  symbol), 400 samples total.

Tone values come from the IEEE 802.11 (2012) 20 MHz training-sequence
definitions. Signed tone indices in [-32, 31] map to FFT bins by the usual
wraparound (bin = tone mod 64); every module shares this one convention.
Each field is scaled to unit average power; absolute scale is irrelevant
downstream because the feature extractors normalize.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .signals import ComplexSignal, Frames

FFT_SIZE = 64


class PreambleFormat(enum.Enum):
    NONHT = "NonHT"
    HTMF = "HTMF"


class Field(enum.Enum):
    LSTF = "LSTF"
    LLTF = "LLTF"
    HTLTF = "HTLTF"


@dataclass(frozen=True)
class PreambleSpec:
    """Frame layout selector; the library operates only at 20 Msps
    (`signals.SAMPLE_RATE`) on a 64-point FFT grid (`FFT_SIZE`)."""

    format: PreambleFormat


# The HT-MF frame layout in 0-based frame samples: the HT-LTF field starts
# at HTLTF_START and the frame ends at FRAME_LEN. WINDOWS gives the first
# sample of each `FFT_SIZE`-sample window: the L-STF windows skip its first
# 16-sample symbol, and each long field's windows follow its cyclic prefix
# (32 samples in the L-LTF from 160, 16 in the HT-LTF).
HTLTF_START = 320
FRAME_LEN = 400
WINDOWS = {"LSTF1": 16, "LSTF2": 80, "LLTF1": 192, "LLTF2": 256, "HTLTF1": 336}

# Windows averaged per field before the FFT (repeated symbols combine to
# reduce noise; the HT-LTF has a single usable window).
FIELD_WINDOWS = {
    Field.LSTF: ("LSTF1", "LSTF2"),
    Field.LLTF: ("LLTF1", "LLTF2"),
    Field.HTLTF: ("HTLTF1",),
}

# L-LTF tone values for k = -26..26 (DC at the middle, zero).
_LLTF_SEQ = np.array([
    1, 1, -1, -1, 1, 1, -1, 1, -1, 1, 1, 1, 1, 1, 1, -1, -1, 1, 1, -1, 1, -1,
    1, 1, 1, 1, 0, 1, -1, -1, 1, 1, -1, 1, -1, 1, -1, -1, -1, -1, -1, 1, 1,
    -1, -1, 1, -1, 1, -1, 1, 1, 1, 1,
], dtype=np.complex128)

# L-STF tone values for k = -26..26; nonzero only at multiples of 4.
_S = 1 + 1j
_LSTF_SEQ = np.sqrt(13.0 / 6.0) * np.array([
    0, 0, _S, 0, 0, 0, -_S, 0, 0, 0, _S, 0, 0, 0, -_S, 0, 0, 0, -_S, 0, 0, 0,
    _S, 0, 0, 0, 0, 0, 0, 0, -_S, 0, 0, 0, -_S, 0, 0, 0, _S, 0, 0, 0, _S, 0,
    0, 0, _S, 0, 0, 0, _S, 0, 0,
], dtype=np.complex128)

# HT-LTF extends the L-LTF sequence to k = -28..28 with {1, 1} below and
# {-1, -1} above. The sequence definition occupies 56 tones; descriptions
# sometimes quote 54, but the dividers below only ever use the 52 tones
# shared with the L-LTF, so the discrepancy has no downstream effect.
_HTLTF_SEQ = np.concatenate((
    np.array([1, 1], dtype=np.complex128),
    _LLTF_SEQ,
    np.array([-1, -1], dtype=np.complex128),
))

_SEQ_BY_FIELD = {
    Field.LSTF: (_LSTF_SEQ, 26),
    Field.LLTF: (_LLTF_SEQ, 26),
    Field.HTLTF: (_HTLTF_SEQ, 28),
}


def occupied_tones(field: Field) -> np.ndarray:
    """Signed indices of the field's nonzero tones, ascending."""
    seq, kmax = _SEQ_BY_FIELD[field]
    k = np.arange(-kmax, kmax + 1)
    return k[np.abs(seq) > 0]


def tone_to_bin(k) -> np.ndarray:
    """Signed tone index -> FFT bin index by wraparound."""
    return np.asarray(k) % FFT_SIZE


def ideal_symbol_spectrum(field: Field) -> np.ndarray:
    """Length-64 reference spectrum X of the field's training symbol.

    Nonzero exactly on the occupied tones; values are the 802.11 training
    sequence entries (the feature extractors divide these out).
    """
    seq, kmax = _SEQ_BY_FIELD[field]
    x = np.zeros(FFT_SIZE, dtype=np.complex128)
    k = np.arange(-kmax, kmax + 1)
    x[tone_to_bin(k)] = seq
    return x


def _unit_power(x: np.ndarray) -> np.ndarray:
    return x / np.sqrt(np.mean(np.abs(x) ** 2))


def _lstf_field() -> np.ndarray:
    # The L-STF occupies only tones at multiples of 4, so its time symbol is
    # 16-periodic. Build the 16-sample base period explicitly and tile it;
    # this makes the periodicity exact at the bit level, not just to
    # rounding. The base period is a 16-point IFFT of the decimated
    # spectrum divided by 4 (identical to the 64-point IFFT restricted to
    # one period).
    x64 = ideal_symbol_spectrum(Field.LSTF)
    base = np.fft.ifft(x64[::4]) / 4.0
    return _unit_power(np.tile(base, 10))


def _lltf_field() -> np.ndarray:
    sym = np.fft.ifft(ideal_symbol_spectrum(Field.LLTF))
    return _unit_power(np.concatenate((sym[-32:], sym, sym)))


def _htltf_field() -> np.ndarray:
    sym = np.fft.ifft(ideal_symbol_spectrum(Field.HTLTF))
    return _unit_power(np.concatenate((sym[-16:], sym)))


def generate_preamble(spec: PreambleSpec) -> ComplexSignal:
    """Ideal baseband preamble for the requested layout.

    Deterministic; each field carries unit average power. The legacy part
    of an HT-MF frame is bit-identical to the non-HT output.
    """
    parts = [_lstf_field(), _lltf_field()]
    if spec.format is PreambleFormat.HTMF:
        parts.append(_htltf_field())
    return ComplexSignal(np.concatenate(parts))


def lltf_sync_template() -> np.ndarray:
    """The two back-to-back 64-sample long training symbols (128 samples),
    as generated locally for frame synchronization. Unit average power."""
    return _lltf_field()[32:160]


class WindowBoundsError(IndexError):
    """A symbol window does not fit inside the signal."""


def extract_window(signal: ComplexSignal | Frames, frame_start, window: str) -> np.ndarray:
    """The 64 samples of the window named `window` (a `WINDOWS` key), given
    the frame's 0-based start (for a block of frames, one start per row).

    Sample order is preserved. A row whose addressed range falls outside
    its signal is dropped (one capture raises) with `WindowBoundsError`
    naming the window.
    """
    frames = Frames.of(signal)
    start = frames.per_row(frame_start) + WINDOWS[window]
    stop = start + FFT_SIZE
    frames.drops.drop((start < 0) | (stop > frames.lengths), WindowBoundsError, lambda i: (
        f"window {window} spans samples [{start[i]}, {stop[i]}) outside "
        f"signal of length {frames.lengths[i]}"))
    return frames.drops.result(frames.gather(start, FFT_SIZE))
