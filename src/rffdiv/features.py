"""Frequency-domain division features.

Each feature table is one division, stated once in `DIVISIONS`: one field's
spectrum over another's, tone by tone on a field's occupied tones (the
table's width), with the known sequence ratio divided out, then magnitudes
at unit energy. A row also names the config extractor that writes the table
and the error of a near-zero denominator bin:

* RD_STF and RD_LTF (reference-device division, written by RD): the unknown
  device's field over a same-receiver capture of the reference device (same
  field and sequence, so no sequence ratio). Receiver CFO and any flat
  channel gain cancel, leaving the unknown/reference transmit-response
  ratio. The receiver FIR cancels only when the device and the reference
  share a CFO: otherwise the two frames reach it at different frequency
  shifts.
* HL (HT-over-long division): a frame's HT long training field over its own
  long training field on the 52 shared tones. The channel and receiver
  responses, common to both fields, cancel, leaving the device's HT/long
  transmit-response ratio.
* DV (short-over-long division, the baseline): a frame's short training
  field over its long training field on the 12 shared tones.

The ledger in `tests/test_invariance.py` states which cancellations are
exact in a noise-free chain with exact sync: RD's under receiver CFO, a flat
gain, and receiver FIR at a shared CFO; HL's and DV's under receiver FIR and
CFO; and HL's under a selective channel. The receiver's DC offset, IQ
imbalance and PA curvature are not convolutional; they leave residues, which
the same ledger bounds.

The unit-energy normalization removes the constant factors the divisions
leave behind (flat gain ratios, sequence scale), and magnitudes discard the
phase that residual CFO and timing offsets corrupt.

Spectra and features come one per frame or as a block of frames, one per
row. Block spectra carry the block's `Drops`: the divider records a
degenerate denominator there instead of raising, and its features keep
the rows still live.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .signals import ComplexSignal, Drops, Frames
from .waveform import (
    FIELD_WINDOWS,
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


DENOMINATOR_EPS = 1e-6


class DegenerateModelError(ValueError):
    """A reference-capture bin is too small to divide by."""


class DegenerateDenominatorError(ValueError):
    """A same-frame denominator bin is too small to divide by."""


@dataclass(frozen=True)
class Division:
    """A row of `DIVISIONS`; `by_model` divides by the reference model's field."""

    extractor: str
    numerator: Field
    denominator: Field
    by_model: bool
    tones: Field
    error: type

    @property
    def dim(self) -> int:
        return occupied_tones(self.tones).size


_LSTF, _LLTF, _HTLTF = Field.LSTF, Field.LLTF, Field.HTLTF
# The division table, in the order the harness extracts the tables.
DIVISIONS = {
    Extractor.RD_STF: Division("RD", _LSTF, _LSTF, True, _LSTF, DegenerateModelError),
    Extractor.RD_LTF: Division("RD", _LLTF, _LLTF, True, _LLTF, DegenerateModelError),
    Extractor.HL: Division("HL", _HTLTF, _LLTF, False, _LLTF, DegenerateDenominatorError),
    Extractor.DV: Division("DV", _LSTF, _LLTF, False, _LSTF, DegenerateDenominatorError),
}


def tables_of(extractors) -> dict[Extractor, Division]:
    """The rows of the feature tables that the config `extractors` write."""
    return {table: div for table, div in DIVISIONS.items() if div.extractor in extractors}


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
        dim = DIVISIONS[self.extractor].dim
        if v.shape[-1] != dim:
            raise ValueError(
                f"{self.extractor.value} features have dimension {dim}, got {v.shape[-1]}")
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

    A row whose window leaves its capture is dropped with
    `WindowBoundsError` (one capture raises it: e.g. the HT field of a
    non-HT frame that ends at 320 samples).
    """
    frames = Frames.of(signal)
    windows = [extract_window(frames, n1, name) for name in FIELD_WINDOWS[field]]
    bins = np.fft.fft(np.mean(windows, axis=0))
    drops = None if frames.drops.single else frames.drops
    return FieldSpectrum(field=field, bins=bins, drops=drops)


def divide(table: Extractor, numerator: FieldSpectrum, denominator: FieldSpectrum,
           device_hint: str | None) -> FeatureVector:
    """Feature table `table` of `numerator`'s frames over `denominator` (one
    model row divides every frame). A denominator bin under DENOMINATOR_EPS
    of its occupied-tone RMS drops the row with the table's error."""
    div = DIVISIONS[table]
    drops = Drops(1, single=True) if numerator.drops is None else numerator.drops
    tones = occupied_tones(div.tones)
    bins = tone_to_bin(tones)
    # one row per frame, in C order so that each row's sums and dot products run
    # over contiguous memory and round as they do for one frame
    num, den = (np.ascontiguousarray(np.atleast_2d(x.bins)[:, bins])
                for x in (numerator, denominator))
    mag = np.abs(den)
    rms = np.sqrt(np.mean(mag**2, axis=1))
    what = "model spectrum" if div.by_model else "long-training spectrum"
    drops.drop((rms == 0.0) | (mag < DENOMINATOR_EPS * rms[:, None]).any(axis=1), div.error,
               lambda i: f"{what} has near-zero occupied bins (rms {rms[i % rms.size]:.3g})")
    with np.errstate(divide="ignore", invalid="ignore"):  # dropped rows
        ratio = num / den
        if not div.by_model:
            ratio = ratio / (ideal_symbol_spectrum(div.numerator)[bins]
                             / ideal_symbol_spectrum(div.denominator)[bins])
    mag = np.abs(ratio)
    # one dot product per row, as np.linalg.norm takes it for one vector (a
    # batched matmul rounds differently)
    norm = np.sqrt([row.dot(row) for row in mag])
    drops.drop(norm == 0.0, DegenerateDenominatorError, "all-zero feature magnitudes")
    if drops.single:
        return FeatureVector(table, mag[0] / norm[0], tones, device_hint)
    live = drops.live
    return FeatureVector(table, mag[live] / norm[live, None], tones, device_hint,
                         rows=np.flatnonzero(live))


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
    tables = [t for t, div in DIVISIONS.items() if div.by_model and div.numerator is unknown.field]
    if not tables:
        raise ValueError("reference division uses the legacy fields only")
    return divide(tables[0], unknown, model, device_hint)


def extract_hl(lltf: FieldSpectrum, htltf: FieldSpectrum,
               device_hint: str | None = None) -> FeatureVector:
    """HT-over-long division on the 52 shared tones, with the transmitted
    sequence ratio divided out. Both spectra must come from the same frame
    so they share one channel realization."""
    if lltf.field is not Field.LLTF or htltf.field is not Field.HTLTF:
        raise ValueError("extract_hl takes (LLTF, HTLTF) spectra in that order")
    return divide(Extractor.HL, htltf, lltf, device_hint)


def extract_dv(lstf: FieldSpectrum, lltf: FieldSpectrum,
               device_hint: str | None = None) -> FeatureVector:
    """Short-over-long baseline division on the 12 shared tones, with the
    transmitted sequence ratio divided out."""
    if lstf.field is not Field.LSTF or lltf.field is not Field.LLTF:
        raise ValueError("extract_dv takes (LSTF, LLTF) spectra in that order")
    return divide(Extractor.DV, lstf, lltf, device_hint)

