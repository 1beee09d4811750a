"""Signal detection, frame synchronization, and two-stage CFO recovery.

Detection slides fixed windows over the capture and flags the first whose
summed magnitude crosses a threshold; the threshold is deployment-dependent,
so a helper derives one from the capture's leading (signal-free) window.

Synchronization correlates the capture against the locally generated pair
of 64-sample long training symbols (128 samples) and takes the magnitude
peak, which marks the first long symbol; the frame starts that symbol's
window offset (`waveform.WINDOWS`) earlier.

The coarse frequency estimate uses the lag-16 autocorrelation across the
eight repeated short training symbols; its unambiguous range at 20 Msps is
+/-625 kHz. A fine stage repeats the trick at lag 64 across the duplicated
long training symbols (+/-156.25 kHz unambiguous) after coarse compensation.
Compensation derotates per sample; indices count from the start of the
capture, and any constant phase left by a different origin is removed later
by feature normalization. Acquisition derotates only the samples the fine
estimate and the field windows read.

Every stage takes one capture (a `ComplexSignal`) or a block of captures
(`Frames`, one per row). A block stage records each row's failure in the
block's `drops` and returns one value per row; a one-capture call runs the
same code on a one-row block, raises the failure and returns plain values.

All indices in this module are 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .signals import SAMPLE_RATE, ComplexSignal, Frames
from .waveform import FRAME_LEN, WINDOWS, lltf_sync_template


class NotDetectedError(RuntimeError):
    """No detection window crossed the threshold."""


class SyncFailedError(RuntimeError):
    """Correlation peak indistinguishable from the search floor."""


class EstimationFailedError(RuntimeError):
    """Degenerate (zero-energy) autocorrelation window."""


@dataclass(frozen=True)
class DetectionConfig:
    """Detector settings: a window's statistic is its summed magnitude,
    sum |y|. `threshold_t` may hold one threshold per row of a block."""

    window_w: int
    threshold_t: float | np.ndarray

    def __post_init__(self):
        if self.window_w < MIN_WINDOW_W:
            raise ValueError(f"window_w must be at least {MIN_WINDOW_W}")
        if np.asarray(self.threshold_t).min() <= 0:
            raise ValueError("threshold_t must be positive")


@dataclass(frozen=True)
class SyncResult:
    """Frame start (one per row for a block)."""

    frame_start_n1: int | np.ndarray


@dataclass(frozen=True)
class CfoEstimate:
    """Coarse plus fine offset in Hz (one per row for a block)."""

    total_hz: float | np.ndarray


# The correlation template (the bare double long symbol) starts at the
# frame's first L-LTF window.
_TEMPLATE_OFFSET = WINDOWS["LLTF1"]
# The frame samples from the first window to the frame's end hold every
# field window and both fine-estimate symbols; acquisition derotates only
# these.
_SPAN_START = WINDOWS["LSTF1"]
_SPAN_LEN = FRAME_LEN - _SPAN_START
# Sync searches this many offsets from the detection point, and fails when
# the correlation peak is below this multiple of the search median.
_SEARCH_LEN = 400
_PEAK_FLOOR_RATIO = 3.0
MIN_WINDOW_W = 16  # the shortest detection window, in samples
# The longest: `extract`'s 1100-sample segment (`cli.SEGMENT_LEN`) holds a
# noise window followed by a frame's 420 samples (`cli.FRAME_ADVANCE`).
MAX_WINDOW_W = 680
# Skip the first half short symbol so detection-edge transients stay out of
# the autocorrelation sums.
CFO_START_OFFSET = 8
_SYNC_TEMPLATE = lltf_sync_template()
_TS = 1.0 / SAMPLE_RATE  # seconds per sample
_TINY = np.finfo(float).tiny


def noise_floor_threshold(y: ComplexSignal | Frames, cfg_w: int,
                          multiplier: float) -> float | np.ndarray:
    """Threshold from the first window of each capture, assumed signal-free."""
    frames = Frames.of(y)
    stat = np.sum(np.abs(frames.samples[:, :cfg_w]), axis=1)
    return frames.drops.result(multiplier * np.maximum(stat, _TINY))


def detect_signal(y: ComplexSignal | Frames, cfg: DetectionConfig) -> int | np.ndarray:
    """First window whose statistic exceeds the threshold; returns its start
    index (k-1)*W. Only windows inside a capture count. Raises (or, in a
    block, records) `NotDetectedError` when nothing crosses."""
    frames = Frames.of(y)
    w = cfg.window_w
    drops = frames.drops
    drops.drop(frames.lengths < w, NotDetectedError, "signal shorter than one detection window")
    rows, width = frames.samples.shape
    n_windows = width // w
    mags = np.abs(frames.samples[:, : n_windows * w]).reshape(rows, n_windows, w)
    stats = mags.sum(axis=2)
    threshold = frames.per_row(cfg.threshold_t)
    hits = (stats > threshold[:, None]) & (np.arange(n_windows) < frames.lengths[:, None] // w)
    drops.drop(~hits.any(axis=1), NotDetectedError, lambda i: (
        f"no window of {w} samples crossed threshold {threshold[i]:.4g}"))
    return drops.result(np.argmax(hits, axis=1) * w)


def _row_medians(block: np.ndarray) -> np.ndarray:
    """`np.median(block, axis=1)` with the same arithmetic (the middle value,
    or the mean of the two middle values; NaN for a row holding a NaN),
    without the NaN check through which `np.median` imports `numpy.ma`.
    The `+ 0.0` gives a zero the sign that `np.mean`'s sum gives it."""
    width = block.shape[1]
    half = width // 2
    odd = width % 2
    part = np.partition(block, [half, width - 1] if odd else [half - 1, half, width - 1], axis=1)
    mid = part[:, half] + 0.0 if odd else (part[:, half - 1] + part[:, half] + 0.0) / 2
    last = part[:, -1]  # NaN sorts last
    return np.where(np.isnan(last), last, mid)


def synchronize(y: ComplexSignal | Frames, n0) -> SyncResult:
    """Locate the frame by correlating against the ideal double long
    training symbol over offsets n0..n0+399.

    The complex correlation magnitude is the decision statistic. Raises
    (or records) `SyncFailedError` when peak/median falls below 3.
    """
    frames = Frames.of(y)
    lt = _SYNC_TEMPLATE.size
    n0 = frames.per_row(n0)
    k0 = np.zeros(n0.shape, dtype=np.int64)
    failed = {}
    for i in np.flatnonzero(frames.drops.live):
        seg = frames.samples[i, n0[i] : min(n0[i] + _SEARCH_LEN + lt - 1, frames.lengths[i])]
        if seg.size < lt:
            failed[i] = "search segment shorter than the sync template"
            continue
        corr = np.abs(np.correlate(seg, _SYNC_TEMPLATE, mode="valid"))
        floor = float(_row_medians(corr[None, :])[0])
        peak_k = int(np.argmax(corr))
        peak = float(corr[peak_k])
        if floor > 0 and peak / floor < _PEAK_FLOOR_RATIO:
            failed[i] = (f"correlation peak {peak:.3g} below {_PEAK_FLOOR_RATIO}x the "
                         f"search floor {floor:.3g}")
            continue
        k0[i] = n0[i] + peak_k
    bad = np.zeros(k0.size, dtype=bool)
    bad[list(failed)] = True
    frames.drops.drop(bad, SyncFailedError, failed.get)
    k0 = frames.drops.result(k0)
    return SyncResult(frame_start_n1=k0 - _TEMPLATE_OFFSET)


def _lag_autocorr(frames: Frames, start, lag: int, count: int) -> np.ndarray:
    """sum(conj(y[n]) * y[n + lag]) over n in [start, start + count), per
    row of the block."""
    start = frames.per_row(start)
    outside = (start < 0) | (start + count + lag > frames.lengths)
    frames.drops.drop(outside, EstimationFailedError, "autocorrelation window outside the signal")
    span = frames.gather(start, count + lag)
    acc = np.sum(np.conj(span[:, :count]) * span[:, lag:], axis=1)
    frames.drops.drop(acc == 0, EstimationFailedError, "zero-energy autocorrelation window")
    return acc


def estimate_cfo_coarse(y: ComplexSignal | Frames, n1):
    """Lag-16 phase estimate over the eight repeated short training symbols
    starting `CFO_START_OFFSET` samples into the frame."""
    d = 16
    frames = Frames.of(y)
    acc = _lag_autocorr(frames, frames.per_row(n1) + CFO_START_OFFSET, d, 8 * d)
    return frames.drops.result(np.angle(acc) / (2.0 * np.pi * _TS * d))


def estimate_cfo_fine(y: ComplexSignal | Frames, n1):
    """Residual estimate from the lag-64 autocorrelation across the two long
    training symbols. Call after coarse compensation; the residual must lie
    within the +/-156.25 kHz unambiguous range."""
    d = 64
    frames = Frames.of(y)
    acc = _lag_autocorr(frames, frames.per_row(n1) + _TEMPLATE_OFFSET, d, d)
    return frames.drops.result(np.angle(acc) / (2.0 * np.pi * _TS * d))


def apply_cfo(y: ComplexSignal | Frames, f_hz) -> ComplexSignal | Frames:
    """Rotate by exp(+j*2*pi*f*n*Ts), n the capture sample index (a block
    takes one offset per row); test helper and inverse of
    `compensate_cfo`."""
    if isinstance(y, Frames):
        n = y.origin[:, None] + np.arange(len(y))
        f_hz = np.reshape(f_hz, (-1, 1))
    elif f_hz == 0.0:
        return y
    else:
        n = np.arange(len(y))
    # Bound to a name so the product below never multiplies in place: numpy
    # reuses a temporary of 256 KiB or more as the output with the operands
    # swapped, and that complex multiply rounds differently.
    phasor = np.exp(2j * np.pi * f_hz * n * _TS)
    return y.replace_samples(y.samples * phasor)


def compensate_cfo(y: ComplexSignal | Frames, f_hat) -> ComplexSignal | Frames:
    """Derotate by the estimate: y(n) * exp(-j*2*pi*f_hat*n*Ts)."""
    return apply_cfo(y, -f_hat)


def synchronize_and_compensate(y: ComplexSignal | Frames,
                               cfg: DetectionConfig) -> tuple[Frames, SyncResult, CfoEstimate]:
    """Full acquisition: detect, synchronize, coarse-then-fine CFO. Returns
    the compensated frame samples from the first field window to the
    frame's end as a block with the sync and CFO results."""
    frames = Frames.of(y)
    n0 = detect_signal(frames, cfg)
    sync = synchronize(frames, n0)
    coarse = estimate_cfo_coarse(frames, sync.frame_start_n1)
    span = frames.window(frames.per_row(sync.frame_start_n1) + _SPAN_START, _SPAN_LEN)
    y1 = compensate_cfo(span, coarse)
    fine = estimate_cfo_fine(y1, sync.frame_start_n1)
    y2 = compensate_cfo(y1, fine)
    return y2, sync, CfoEstimate(total_hz=coarse + fine)
