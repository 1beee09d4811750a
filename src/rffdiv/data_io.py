"""File formats: raw IQ captures with JSON sidecars, and feature tables.

IQ interchange is interleaved little-endian float32 I,Q pairs ("cf32le"),
with capture metadata in a sidecar JSON that shares the data file's
basename (`capture.iq` -> `capture.json`). An int16 variant ("ci16le")
carries a `scale` field so SDR captures can be replayed; samples are
multiplied by the scale on read. Feature tables are CSV with a fixed
header (extractor, device, receiver, channel_scenario, trial, snr_db,
v0..v{dim-1}); values are written with 17 significant digits so round
trips are lossless. A table's rows share one extractor, a feature table
of `features.DIVISIONS`, and its header has that table's width. This
module is the one owner of the table format: `feature_tables` writes the
tables of `bench` and `extract`, and `read_features` reads one back as a
block for `train` and `eval`. Parse errors always carry a location (byte
offset or row number).
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .features import DIVISIONS, Extractor, FeatureVector
from .signals import SAMPLE_RATE, ComplexSignal
from .waveform import occupied_tones


class IoError(ValueError):
    """Malformed file; the message carries the offending location."""


def _sidecar_path(path: Path) -> Path:
    return path.with_suffix(".json")


def write_iq(path, signal: ComplexSignal) -> None:
    path = Path(path)
    interleaved = np.empty(2 * len(signal), dtype="<f4")
    interleaved[0::2] = signal.samples.real
    interleaved[1::2] = signal.samples.imag
    path.write_bytes(interleaved.tobytes())
    meta = {
        "sample_rate": SAMPLE_RATE,
        "center_freq_hz": 0.0,
        "format": "cf32le",
    }
    _sidecar_path(path).write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")


# Sample formats a sidecar may name: the dtype of one I or Q value.
_FORMATS = {"cf32le": "<f4", "ci16le": "<i2"}
# Samples converted at a time while a reader checks its whole file.
_CHECK_SAMPLES = 1 << 15


def _read_sidecar(sidecar: Path) -> dict:
    try:
        meta = json.loads(sidecar.read_text())
    except (OSError, ValueError) as exc:
        raise IoError(f"{sidecar}: unreadable sidecar: {exc}") from exc
    if not isinstance(meta, dict) or "sample_rate" not in meta:
        raise IoError(f"{sidecar}: sidecar has no sample_rate")
    try:
        meta["sample_rate"] = float(meta["sample_rate"])
        if meta.get("format") == "ci16le":
            meta["scale"] = float(meta.get("scale", 1.0))
    except (TypeError, ValueError) as exc:
        raise IoError(f"{sidecar}: {exc}") from exc
    if meta["sample_rate"] != SAMPLE_RATE:
        raise IoError(f"{sidecar}: sample_rate must be {SAMPLE_RATE:g} (the only rate "
                      f"rffdiv reads), got {meta['sample_rate']:g}")
    return meta


class IqReader:
    """Sample ranges of one capture file, converted on demand exactly as
    `read_iq` converts the whole file; the sidecar's `format` selects
    cf32le or ci16le (see the module docstring).

    Opening checks the sidecar and the whole file once (a truncated pair
    or a non-finite sample raises `IoError` with its byte offset), so a
    later `read` holds only the range it returns. The file stays open from
    the first `read` until `close` (or the end of a `with` block).
    """

    def __init__(self, path):
        path = Path(path)
        if not path.exists():
            raise IoError(f"{path}: no such file")
        sidecar = _sidecar_path(path)
        if not sidecar.exists():
            raise IoError(f"{path}: missing sidecar {sidecar.name}")
        meta = _read_sidecar(sidecar)
        fmt = meta.get("format", "cf32le")
        if fmt not in _FORMATS:
            raise IoError(f"{path}: unknown format {fmt!r} in sidecar")
        self.path = path
        self._dtype = np.dtype(_FORMATS[fmt])
        self._scale = meta["scale"] if fmt == "ci16le" else None
        self._pair = 2 * self._dtype.itemsize
        size = path.stat().st_size
        if size % self._pair:
            raise IoError(f"{path}: truncated IQ pair at byte offset {size - size % self._pair}")
        self._len = size // self._pair
        self._fh = None
        with self:
            for start in range(0, self._len, _CHECK_SAMPLES):
                values = self._stored(start, start + _CHECK_SAMPLES)
                if self._scale is not None:  # int16 is finite; scaled it may not be
                    with np.errstate(over="ignore", invalid="ignore"):
                        values = values * self._scale
                bad = np.flatnonzero(~np.isfinite(values))
                if bad.size:
                    offset = (start + int(bad[0]) // 2) * self._pair
                    raise IoError(f"{path}: non-finite sample at byte offset {offset}")

    def __len__(self) -> int:
        return self._len

    def _stored(self, start: int, stop: int) -> np.ndarray:
        """The I,Q values of samples [start, stop) as the file stores them
        (`stop` past the end reads to the end)."""
        stop = min(stop, self._len)
        if not 0 <= start <= stop:
            raise ValueError(f"{self.path}: no samples [{start}, {stop})")
        if self._fh is None:
            self._fh = self.path.open("rb")
        self._fh.seek(start * self._pair)
        return np.frombuffer(self._fh.read((stop - start) * self._pair), dtype=self._dtype)

    def read(self, start: int, stop: int) -> np.ndarray:
        """Samples [start, stop) as complex128 (`stop` past the end reads
        to the end)."""
        flat = self._stored(start, stop).astype(np.float64)
        samples = flat[0::2] + 1j * flat[1::2]
        return samples if self._scale is None else samples * self._scale

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "IqReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_iq(path) -> ComplexSignal:
    """Load a whole capture (see `IqReader`)."""
    with IqReader(path) as reader:
        return ComplexSignal(reader.read(0, len(reader)))


FEATURE_HEADER_FIXED = ["extractor", "device", "receiver", "channel_scenario", "trial", "snr_db"]


def feature_header(dim: int) -> str:
    """The header line (with its newline) of a table of `dim` values."""
    return ",".join(FEATURE_HEADER_FIXED + [f"v{i}" for i in range(dim)]) + "\n"


def format_feature_rows(extractor: str, device: str, receiver: str, channel_scenario: str,
                        trials, snr_db: float, values) -> str:
    """CSV lines (each with its newline) of one device and receiver's rows:
    row i is trial `trials[i]` with `values[i]`. The one formatter of the
    table's rows."""
    values = np.asarray(values, dtype=np.float64)
    prefix = ",".join([extractor, device, receiver, channel_scenario]).replace("%", "%%")
    # same text as format(v, ".17g"), one call per row
    row_fmt = f"{prefix},%d,{float(snr_db):.17g},{','.join(['%.17g'] * values.shape[1])}\n"
    return "".join([row_fmt % (trial, *row) for trial, row in zip(trials, values.tolist())])


def append_feature_rows(out: Path, tables: dict, rows: dict) -> None:
    """Append each tag's CSV rows (`rows`: tag -> `format_feature_rows`
    text) to its table in `out` (`tables`: tag -> open file, under its
    temporary name). A tag's table opens, header first, with its first
    non-empty rows."""
    for tag, text in rows.items():
        if text:
            if tag not in tables:
                out.mkdir(parents=True, exist_ok=True)
                tables[tag] = open(out / f"features_{tag.lower()}.csv.part", "w")
                tables[tag].write(feature_header(DIVISIONS[Extractor(tag)].dim))
            tables[tag].write(text)


@contextmanager
def feature_tables(out_dir):
    """The writer of the feature tables features_<tag>.csv in `out_dir`: a
    function that takes {tag: CSV rows} and appends them
    (`append_feature_rows`). Each table is renamed when the block ends and
    removed if it raises, so a failed run leaves no table."""
    tables = {}
    try:
        yield partial(append_feature_rows, Path(out_dir), tables)
    except BaseException:
        for fh in tables.values():
            fh.close()
            os.remove(fh.name)
        raise
    for fh in tables.values():
        fh.close()
        os.replace(fh.name, fh.name.removesuffix(".part"))


@dataclass(frozen=True)
class FeatureTable:
    """A feature table as one block: its extractor (None for a table with
    no rows), one entry per row in each of the header's per-row columns,
    and the values, one row per table row ([rows, dim])."""

    extractor: str | None
    device: list
    receiver: list
    channel_scenario: list
    trial: list
    snr_db: list
    values: np.ndarray

    def __len__(self) -> int:
        return len(self.values)

    def feature_vectors(self) -> list[FeatureVector]:
        """The labeled vectors `train` and `evaluate` take: one block per run
        of consecutive rows from the same device, each row divided by its
        own norm (one dot product per row, as `np.linalg.norm` takes it)."""
        if not len(self):
            return []
        table = Extractor(self.extractor)
        tones = occupied_tones(DIVISIONS[table].tones)
        values = self.values / np.sqrt([row.dot(row) for row in self.values])[:, None]
        starts = [i for i in range(len(self)) if i == 0 or self.device[i] != self.device[i - 1]]
        return [FeatureVector(table, values[a:b], tones, self.device[a])
                for a, b in zip(starts, starts[1:] + [len(self)])]


def write_features(path, table: FeatureTable) -> None:
    """Write `table` as CSV, row by row through `format_feature_rows`: the
    reference for the tables `feature_tables` writes."""
    values = np.asarray(table.values, dtype=np.float64)
    chunks = [feature_header(values.shape[1])]
    for i, row in enumerate(values):
        chunks.append(format_feature_rows(table.extractor, table.device[i], table.receiver[i],
                                          table.channel_scenario[i], [int(table.trial[i])],
                                          table.snr_db[i], row[None]))
    with open(path, "w") as fh:
        fh.writelines(chunks)


def read_features(path) -> FeatureTable:
    """The table at `path` as one block. Besides the header, the extractor
    and the cells, each row's values are checked: a value that is NaN,
    infinite or negative, or a row whose energy is zero (or overflows),
    raises `IoError` naming the row."""
    path = Path(path)
    if not path.exists():
        raise IoError(f"{path}: no such file")
    lines = path.read_text().splitlines()
    if not lines:
        raise IoError(f"{path}: empty file (missing header)")
    header = lines[0].split(",")
    if header[: len(FEATURE_HEADER_FIXED)] != FEATURE_HEADER_FIXED:
        raise IoError(f"{path}: bad header {lines[0]!r}")
    dim = len(header) - len(FEATURE_HEADER_FIXED)
    if [f"v{i}" for i in range(dim)] != header[len(FEATURE_HEADER_FIXED):]:
        raise IoError(f"{path}: bad value columns in header")
    columns = ([], [], [], [], [])  # device, receiver, channel_scenario, trial, snr_db
    values, row_nos = np.empty((len(lines) - 1, dim)), []
    extractor = None
    for row_no, line in enumerate(lines[1:], start=1):
        if not line:
            continue
        cells = line.split(",")
        if len(cells) != len(header):
            raise IoError(f"{path}: row {row_no} has {len(cells)} cells, expected {len(header)}")
        if extractor is None:
            extractor = cells[0]
            try:
                want = DIVISIONS[Extractor(extractor)].dim
            except ValueError:
                raise IoError(f"{path}: row {row_no}: unknown extractor {extractor!r}") from None
            if dim != want:
                raise IoError(f"{path}: {extractor} tables have {want} values, header has {dim}")
        elif cells[0] != extractor:
            raise IoError(f"{path}: row {row_no} mixes extractor {cells[0]!r} into {extractor!r}")
        try:
            row = (cells[1], cells[2], cells[3], int(cells[4]), float(cells[5]))
            values[len(row_nos)] = list(map(float, cells[6:]))
        except ValueError as exc:
            raise IoError(f"{path}: row {row_no}: {exc}") from exc
        for column, cell in zip(columns, row):
            column.append(cell)
        row_nos.append(row_no)
    values = values[: len(row_nos)]
    with np.errstate(over="ignore"):
        energy = np.sum(values**2, axis=1)
    bad = ~((values >= 0).all(axis=1) & (0 < energy) & (energy < np.inf))
    if bad.any():
        raise IoError(f"{path}: row {row_nos[int(np.argmax(bad))]}: feature values must be "
                      f"finite and nonnegative, with nonzero finite energy")
    return FeatureTable(extractor, *columns, values)
