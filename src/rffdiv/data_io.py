"""File formats: raw IQ captures with JSON sidecars, and feature tables.

IQ interchange is interleaved little-endian float32 I,Q pairs ("cf32le"),
with capture metadata in a sidecar JSON that shares the data file's
basename (`capture.iq` -> `capture.json`). An int16 variant ("ci16le")
carries a `scale` field so SDR captures can be replayed; samples are
multiplied by the scale on read. Feature tables are CSV with a fixed
header (extractor, device, receiver, channel_scenario, trial, snr_db,
v0..v{dim-1}); values are written with 17 significant digits so round
trips are lossless. Parse errors always carry a location (byte offset or
row number).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .signals import ComplexSignal


class IoError(ValueError):
    """Malformed file; the message carries the offending location."""


@dataclass(frozen=True)
class IqMeta:
    sample_rate: float
    center_freq_hz: float = 0.0
    format: str = "cf32le"
    scale: float = 1.0


@dataclass(frozen=True)
class FeatureRecord:
    extractor: str
    device: str
    receiver: str
    channel_scenario: str
    trial: int
    snr_db: float
    values: np.ndarray


def _sidecar_path(path: Path) -> Path:
    return path.with_suffix(".json")


def write_iq(path, signal: ComplexSignal, center_freq_hz: float = 0.0) -> None:
    path = Path(path)
    interleaved = np.empty(2 * len(signal), dtype="<f4")
    interleaved[0::2] = signal.samples.real
    interleaved[1::2] = signal.samples.imag
    path.write_bytes(interleaved.tobytes())
    meta = {
        "sample_rate": signal.sample_rate,
        "center_freq_hz": center_freq_hz,
        "format": "cf32le",
    }
    _sidecar_path(path).write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")


def read_iq(path) -> ComplexSignal:
    """Load a capture; the sidecar's `format` selects cf32le or ci16le
    (about which see the module docstring)."""
    path = Path(path)
    if not path.exists():
        raise IoError(f"{path}: no such file")
    sidecar = _sidecar_path(path)
    if not sidecar.exists():
        raise IoError(f"{path}: missing sidecar {sidecar.name}")
    meta_doc = json.loads(sidecar.read_text())
    fmt = meta_doc.get("format", "cf32le")
    raw = path.read_bytes()
    if fmt == "cf32le":
        item = np.dtype("<f4").itemsize
        pair = 2 * item
        if len(raw) % pair:
            raise IoError(f"{path}: truncated IQ pair at byte offset {len(raw) - len(raw) % pair}")
        flat = np.frombuffer(raw, dtype="<f4").astype(np.float64)
        samples = flat[0::2] + 1j * flat[1::2]
    elif fmt == "ci16le":
        item = np.dtype("<i2").itemsize
        pair = 2 * item
        if len(raw) % pair:
            raise IoError(f"{path}: truncated IQ pair at byte offset {len(raw) - len(raw) % pair}")
        flat = np.frombuffer(raw, dtype="<i2").astype(np.float64)
        samples = (flat[0::2] + 1j * flat[1::2]) * float(meta_doc.get("scale", 1.0))
    else:
        raise IoError(f"{path}: unknown format {fmt!r} in sidecar")
    bad = np.nonzero(~np.isfinite(samples))[0]
    if bad.size:
        raise IoError(f"{path}: non-finite sample at byte offset {int(bad[0]) * pair}")
    return ComplexSignal(samples, float(meta_doc["sample_rate"]))


FEATURE_HEADER_FIXED = ["extractor", "device", "receiver", "channel_scenario", "trial", "snr_db"]


def _feature_header(dim: int) -> list[str]:
    return FEATURE_HEADER_FIXED + [f"v{i}" for i in range(dim)]


def _record_dim(rows) -> int | None:
    for r in rows:
        return int(np.asarray(r.values).size)
    return None


def write_features(path, rows, dim: int | None = None) -> None:
    """Write records to CSV. All rows must share one extractor and one
    dimension; pass `dim` explicitly to write a valid empty table."""
    rows = list(rows)
    if dim is None:
        dim = _record_dim(rows)
        if dim is None:
            raise IoError(f"{path}: empty table needs an explicit dim")
    extractor = rows[0].extractor if rows else None
    lines = [",".join(_feature_header(dim))]
    values_fmt = ",".join(["%.17g"] * dim)  # same text as format(v, ".17g"), one call per row
    for i, r in enumerate(rows):
        vals = np.asarray(r.values, dtype=np.float64)
        if vals.size != dim:
            raise IoError(f"{path}: row {i} has dim {vals.size}, expected {dim}")
        if r.extractor != extractor:
            raise IoError(f"{path}: row {i} extractor {r.extractor!r} != {extractor!r}")
        cells = [r.extractor, r.device, r.receiver, r.channel_scenario,
                 str(int(r.trial)), _fmt(r.snr_db), values_fmt % tuple(vals.tolist())]
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def read_features(path) -> list[FeatureRecord]:
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
    out: list[FeatureRecord] = []
    extractor = None
    for row_no, line in enumerate(lines[1:], start=1):
        if not line:
            continue
        cells = line.split(",")
        if len(cells) != len(header):
            raise IoError(f"{path}: row {row_no} has {len(cells)} cells, expected {len(header)}")
        if extractor is None:
            extractor = cells[0]
        elif cells[0] != extractor:
            raise IoError(f"{path}: row {row_no} mixes extractor {cells[0]!r} into {extractor!r}")
        try:
            rec = FeatureRecord(
                extractor=cells[0], device=cells[1], receiver=cells[2],
                channel_scenario=cells[3], trial=int(cells[4]), snr_db=float(cells[5]),
                values=np.array([float(c) for c in cells[6:]]),
            )
        except ValueError as exc:
            raise IoError(f"{path}: row {row_no}: {exc}") from exc
        out.append(rec)
    return out


def write_features_json(path, rows) -> None:
    """Same records as JSON, one document with a `records` list."""
    docs = [
        {
            "extractor": r.extractor, "device": r.device, "receiver": r.receiver,
            "channel_scenario": r.channel_scenario, "trial": int(r.trial),
            "snr_db": float(r.snr_db), "values": [float(v) for v in np.asarray(r.values)],
        }
        for r in rows
    ]
    Path(path).write_text(json.dumps({"records": docs}, sort_keys=True, indent=2) + "\n")


def read_features_json(path) -> list[FeatureRecord]:
    doc = json.loads(Path(path).read_text())
    return [
        FeatureRecord(
            extractor=d["extractor"], device=d["device"], receiver=d["receiver"],
            channel_scenario=d["channel_scenario"], trial=int(d["trial"]),
            snr_db=float(d["snr_db"]), values=np.array(d["values"], dtype=np.float64),
        )
        for d in doc["records"]
    ]
