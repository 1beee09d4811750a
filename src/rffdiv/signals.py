"""Baseband sample containers shared by every stage of the pipeline."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SAMPLE_RATE = 20e6  # samples/second; the whole library operates at 20 Msps


@dataclass(frozen=True)
class ComplexSignal:
    """One record of time-domain complex baseband samples at `SAMPLE_RATE`.

    Treated as immutable: processing stages return new instances instead
    of mutating `samples` in place.
    """

    samples: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=np.complex128))

    def __len__(self) -> int:
        return self.samples.shape[-1]

    def replace_samples(self, samples: np.ndarray) -> "ComplexSignal":
        return ComplexSignal(samples)


class Drops:
    """Which rows of a block of frames are still live, and the error that
    dropped each of the others.

    Stages record the first error a row hits and leave dropped rows alone
    from then on. A single frame (a one-row block made from one capture)
    raises the error instead, and its stages return plain values.
    """

    def __init__(self, rows: int, single: bool = False):
        self.errors: list[Exception | None] = [None] * rows
        self.single = single
        self._live = np.ones(rows, dtype=bool)

    @property
    def live(self) -> np.ndarray:
        return self._live.copy()

    def drop(self, bad, error: type, message) -> None:
        """Drop each live row where `bad` (scalar or one per row) with
        `error(message)`; `message` is a string or a function of the row."""
        bad = np.asarray(bad)
        if not np.count_nonzero(bad):
            return
        for i in (bad & self._live).nonzero()[0]:
            exc = error(message(i) if callable(message) else message)
            if self.single:
                raise exc
            self.errors[i] = exc
            self._live[i] = False

    def result(self, value):
        """A stage's per-row `value`: the whole array for a block, the row's
        own value for a single frame."""
        if not self.single:
            return value
        row = value[0]
        return row.item() if isinstance(row, np.generic) else row


class Frames:
    """A block of captures, one per row, as the frame engine hands it from
    stage to stage.

    Row i holds samples `origin[i]` onward of a capture `lengths[i]` samples
    long, so every index a stage takes or returns counts capture samples
    whatever part of the capture a block holds. Columns past a capture's
    end are filler that no stage reads. Detection and sync take whole
    captures (origin 0). `drops` is shared by every block derived from
    this one.
    """

    def __init__(self, samples, lengths=None, origin=None, drops: Drops | None = None):
        self.samples = np.asarray(samples, dtype=np.complex128)
        rows, width = self.samples.shape
        self.lengths = np.array([width] * rows) if lengths is None else np.asarray(lengths)
        self.origin = np.zeros(rows, dtype=np.int64) if origin is None else np.asarray(origin)
        self.drops = Drops(rows) if drops is None else drops

    @classmethod
    def of(cls, y) -> "Frames":
        """`y` itself when it is a block; a single frame for one capture."""
        if isinstance(y, Frames):
            return y
        return cls(y.samples[None, :], drops=Drops(1, single=True))

    def __len__(self) -> int:
        return self.samples.shape[1]

    def per_row(self, value) -> np.ndarray:
        value = np.asarray(value)
        return np.array([value] * self.samples.shape[0]) if value.ndim == 0 else value

    def replace_samples(self, samples: np.ndarray) -> "Frames":
        return Frames(samples, self.lengths, self.origin, self.drops)

    def gather(self, start, width: int) -> np.ndarray:
        """Capture samples [start, start + width) of each row (`start` one
        per row) as a [rows, width] array, a view when every row reads the
        same columns; samples this block does not hold read as zero."""
        held = self.samples.shape[1]
        first = self.per_row(start) - self.origin
        col = int(first[0])
        if 0 <= col <= held - width and (first == col).all():
            return self.samples[:, col : col + width]  # the same columns in every row
        out = np.zeros((self.samples.shape[0], width), dtype=np.complex128)
        for dst, src, col in zip(out, self.samples, first.tolist()):
            lo, hi = max(col, 0), min(col + width, held)
            if lo < hi:
                dst[lo - col : hi - col] = src[lo:hi]
        return out

    def window(self, start, width: int) -> "Frames":
        """The block of capture samples [start, start + width) of each row."""
        start = self.per_row(start)
        return Frames(self.gather(start, width), self.lengths, start, self.drops)
