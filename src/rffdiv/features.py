"""Frequency-domain division features.

All three extractors share one recipe: take per-field 64-point spectra from
a synchronized, CFO-compensated frame (averaging a field's repeated symbol
windows first), divide two spectra tone by tone on a fixed occupied-tone
set, divide out the known transmitted sequences, then keep magnitudes and
normalize to unit energy. What differs is the pair of spectra:

* reference-device division: the unknown device's field over a same-receiver
  capture of a reference device (same field). Receiver response and any flat
  channel gain cancel; the result is the unknown/reference transmit-response
  ratio. 12 tones from the short training field, 52 from the long one.
* HT-over-long division: a frame's HT long training field over its own long
  training field, on the 52 shared tones. The frame's channel response and
  the receiver response (common across the two fields) cancel, leaving the
  device's HT/long transmit-response ratio.
* short-over-long division (baseline): a frame's short training field over
  its long training field on the 12 shared tones.

Ratios are exact cancellations only for convolutional impairments; additive
DC, IQ image leakage, and PA curvature leave small residues.

The unit-energy normalization removes the constant factors the divisions
leave behind (flat gain ratios, sequence scale), and magnitudes discard the
phase that residual CFO and timing offsets corrupt.

Spectra and features come one per frame or as a block of frames, one per
row. Block spectra carry the block's `Drops`: the dividers record a
degenerate denominator there instead of raising, and their features keep
the rows still live.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .signals import ComplexSignal, Drops, Frames
from .waveform import (
    FIELD_WINDOWS,
    WINDOWS,
    Field,
    extract_window,
    ideal_symbol_spectrum,
    occupied_tones,
    tone_to_bin,
)


class Extractor(enum.Enum):
    RD_STF = "RD_STF"
    RD_LTF = "RD_LTF"
    HL = "HL"
    DV = "DV"


EXTRACTOR_DIM = {
    Extractor.RD_STF: 12,
    Extractor.RD_LTF: 52,
    Extractor.HL: 52,
    Extractor.DV: 12,
}

DENOMINATOR_EPS = 1e-6


class DegenerateModelError(ValueError):
    """A reference-capture bin is too small to divide by."""


class DegenerateDenominatorError(ValueError):
    """A same-frame denominator bin is too small to divide by."""


@dataclass(frozen=True)
class FieldSpectrum:
    """64-point spectrum of one preamble field, taken from averaged
    repeated windows of a synchronized, CFO-compensated frame. A block's
    `bins` hold one spectrum per row and `drops` is the block's."""

    field: Field
    bins: np.ndarray
    drops: Drops | None = None

    def occupied_bins(self) -> np.ndarray:
        return self.bins[..., tone_to_bin(occupied_tones(self.field))]


@dataclass(frozen=True)
class FeatureVector:
    """Normalized per-tone fingerprint magnitudes with provenance: one
    vector, or a block of vectors (one per row) from the block rows listed
    in `rows`. The checks run once for the whole block."""

    extractor: Extractor
    values: np.ndarray
    tone_indices: np.ndarray
    device_hint: str | None = None
    rows: np.ndarray | None = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "tone_indices", np.asarray(self.tone_indices, dtype=np.int64))
        if v.ndim not in (1, 2) or v.shape[-1:] != self.tone_indices.shape:
            raise ValueError("values and tone_indices must align")
        if v.shape[-1] != EXTRACTOR_DIM[self.extractor]:
            raise ValueError(
                f"{self.extractor.value} features have dimension "
                f"{EXTRACTOR_DIM[self.extractor]}, got {v.shape[-1]}"
            )
        if v.size == 0:
            return
        if not np.isfinite(v).all() or v.min() < 0:
            raise ValueError("feature values must be finite and nonnegative")
        off = np.abs(np.sum(v**2, axis=-1) - 1.0).reshape(-1)
        if off.max() > 1e-9:
            worst = np.atleast_2d(v)[np.argmax(off)]
            raise ValueError(f"feature vector must have unit energy, got {np.sum(worst**2)}")


def field_spectrum(signal: ComplexSignal | Frames, n1, field: Field) -> FieldSpectrum:
    """Average the field's repeated 64-sample windows and FFT.

    Propagates window bounds errors (e.g. asking for the HT field of a
    non-HT frame that ends at 320 samples).
    """
    frames = Frames.of(signal)
    windows = [extract_window(frames, n1, WINDOWS[name]) for name in FIELD_WINDOWS[field]]
    bins = np.fft.fft(np.mean(windows, axis=0))
    drops = None if frames.drops.single else frames.drops
    return FieldSpectrum(field=field, bins=bins, drops=drops)


def _block(spectrum: FieldSpectrum, bins: np.ndarray) -> np.ndarray:
    """The spectrum's occupied `bins`, one row per frame. C order, so that
    each row's sums and dot products run over contiguous memory and round
    as they do for one frame."""
    return np.ascontiguousarray(np.atleast_2d(spectrum.bins)[:, bins])


def _guard_denominator(bins_occ: np.ndarray, drops: Drops, exc: type, what: str) -> None:
    """Drop the rows whose denominator has a near-zero bin; one denominator
    row (a model spectrum) guards every row of the block."""
    mag = np.abs(bins_occ)
    rms = np.sqrt(np.mean(mag**2, axis=1))
    bad = (rms == 0.0) | (mag < DENOMINATOR_EPS * rms[:, None]).any(axis=1)
    drops.drop(bad, exc, lambda i: (
        f"{what} has near-zero occupied bins (rms {rms[i % rms.size]:.3g})"))


def _normalize(mag: np.ndarray, drops: Drops, extractor: Extractor, tones: np.ndarray,
               device_hint: str | None) -> FeatureVector:
    # one dot product per row, as np.linalg.norm takes it for one vector (a
    # batched matmul rounds differently)
    norm = np.sqrt([row.dot(row) for row in mag])
    drops.drop(norm == 0.0, DegenerateDenominatorError, "all-zero feature magnitudes")
    live = drops.live
    if drops.single:
        return FeatureVector(extractor, mag[0] / norm[0], tones, device_hint)
    return FeatureVector(extractor, mag[live] / norm[live, None], tones, device_hint,
                         rows=np.flatnonzero(live))


def _drops(spectrum: FieldSpectrum) -> Drops:
    return Drops(1, single=True) if spectrum.drops is None else spectrum.drops


def extract_rd(unknown: FieldSpectrum, model: FieldSpectrum,
               device_hint: str | None = None) -> FeatureVector:
    """Reference-device division on the field's occupied tones.

    `model` must be a same-receiver capture of the reference device on the
    same field. Raises (or records) `DegenerateModelError` when a model bin
    falls below 1e-6 of the model's occupied-tone RMS.
    """
    if unknown.field is not model.field:
        raise ValueError(
            f"field mismatch: unknown={unknown.field.value} model={model.field.value}"
        )
    if unknown.field is Field.HTLTF:
        raise ValueError("reference division uses the legacy fields only")
    drops = _drops(unknown)
    tones = occupied_tones(unknown.field)
    bins = tone_to_bin(tones)
    model_occ = _block(model, bins)
    _guard_denominator(model_occ, drops, DegenerateModelError, "model spectrum")
    with np.errstate(divide="ignore", invalid="ignore"):  # dropped rows
        ratio = _block(unknown, bins) / model_occ
    extractor = Extractor.RD_STF if unknown.field is Field.LSTF else Extractor.RD_LTF
    return _normalize(np.abs(ratio), drops, extractor, tones, device_hint)


def extract_hl(lltf: FieldSpectrum, htltf: FieldSpectrum,
               device_hint: str | None = None) -> FeatureVector:
    """HT-over-long division on the 52 shared tones, with the transmitted
    sequence ratio divided out. Both spectra must come from the same frame
    so they share one channel realization."""
    if lltf.field is not Field.LLTF or htltf.field is not Field.HTLTF:
        raise ValueError("extract_hl takes (LLTF, HTLTF) spectra in that order")
    drops = _drops(lltf)
    tones = occupied_tones(Field.LLTF)  # shared subset of the HT tones
    bins = tone_to_bin(tones)
    den = _block(lltf, bins)
    _guard_denominator(den, drops, DegenerateDenominatorError, "long-training spectrum")
    x_ratio = ideal_symbol_spectrum(Field.HTLTF)[bins] / ideal_symbol_spectrum(Field.LLTF)[bins]
    with np.errstate(divide="ignore", invalid="ignore"):  # dropped rows
        ratio = (_block(htltf, bins) / den) / x_ratio
    return _normalize(np.abs(ratio), drops, Extractor.HL, tones, device_hint)


def extract_dv(lstf: FieldSpectrum, lltf: FieldSpectrum,
               device_hint: str | None = None) -> FeatureVector:
    """Short-over-long baseline division on the 12 shared tones, with the
    transmitted sequence ratio divided out."""
    if lstf.field is not Field.LSTF or lltf.field is not Field.LLTF:
        raise ValueError("extract_dv takes (LSTF, LLTF) spectra in that order")
    drops = _drops(lstf)
    tones = occupied_tones(Field.LSTF)  # shared subset of the long-training tones
    bins = tone_to_bin(tones)
    den = _block(lltf, bins)
    _guard_denominator(den, drops, DegenerateDenominatorError, "long-training spectrum")
    with np.errstate(divide="ignore", invalid="ignore"):  # dropped rows
        ratio = _block(lstf, bins) / den
    x_ratio = ideal_symbol_spectrum(Field.LSTF)[bins] / ideal_symbol_spectrum(Field.LLTF)[bins]
    return _normalize(np.abs(ratio / x_ratio), drops, Extractor.DV, tones, device_hint)


def _values(f: FeatureVector | np.ndarray) -> np.ndarray:
    return f.values if isinstance(f, FeatureVector) else f


def cosine_similarity(a: FeatureVector | np.ndarray, b: FeatureVector | np.ndarray) -> float:
    """Plain cosine of two unit-energy feature vectors (or their values)."""
    return float(np.dot(_values(a), _values(b)))


def centered_cosine_similarity(a: FeatureVector | np.ndarray,
                               b: FeatureVector | np.ndarray) -> float:
    """Cosine after removing each vector's tone mean.

    The plain cosine of nonnegative normalized features is dominated by
    their shared flat component; centering compares the informative
    deviation, which is what separates a structured fingerprint from a
    noise-dominated flat one.
    """
    va = _values(a) - _values(a).mean()
    vb = _values(b) - _values(b).mean()
    na, nb = np.linalg.norm(va), np.linalg.norm(vb)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(va, vb) / (na * nb))
