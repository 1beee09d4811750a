"""The experiment-config and capture-manifest formats.

One table per JSON object states each key's check and default, and one
reader, `_read`, checks an object against its table. `harness.load_config`
reads a config through `_TOP` and builds its profiles; `cmd_train` reads a
training config through `_train_config`. This module is the one owner of
the capture-manifest format: `simulate` writes it (`_write_manifest`) and
`extract` reads it back (`_load_manifest`) through `_MANIFEST`. It loads no
simulator module, so the commands that only read a config or a table do
not load one either.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import fields
from functools import partial
from pathlib import Path

from . import classify as cl
from .features import DIVISIONS
from .preprocess import MAX_WINDOW_W, MIN_WINDOW_W
from .signals import SAMPLE_RATE


class ConfigError(ValueError):
    pass


class PipelineError(RuntimeError):
    pass


# Channel parameter presets behind the scenario labels. Static scenarios
# hold one realization per (device, receiver) link for a whole repeat;
# "mobile" redraws per frame.
SCENARIOS = {
    "flat": {"kind": "flat"},
    "los": {"kind": "selective", "n_taps": 4, "decay": 0.8, "rice_k_db": 10.0},
    "nlos": {"kind": "selective", "n_taps": 8, "decay": 3.0, "rice_k_db": None},
    "mobile": {"kind": "selective", "n_taps": 8, "decay": 3.0, "rice_k_db": None,
               "per_frame": True},
    "corridor": {"kind": "selective", "n_taps": 6, "decay": 1.5, "rice_k_db": 5.0},
}

# The largest SNR magnitude in dB that a config or manifest may give (or
# +inf, no noise): the channel's 10 ** (snr_db / 10) leaves the float range
# near +-3083 dB.
SNR_LIMIT_DB = 300.0


def _load_json(path) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected a JSON object")
    return doc


# The config schema: one table per config object, each row a key's check
# (type and range) and default. A check takes a value and its place in the
# config and returns the value in its type, or raises ConfigError. Defaults
# are written as in a config and checked too; an _OPEN key that the config
# leaves out stays out, for the code that reads the object to fill in.
_NEEDED, _OPEN = object(), object()


def _is(test, wanted: str):
    def check(v, what):
        if not test(v):
            raise ConfigError(f"{what} must be {wanted}, got {v!r}")
        return v
    return check


def _number(integer=False, lo=-math.inf, above=False, inf=False, hi=math.inf):
    """A number at least `lo` (above it with `above`) and at most `hi`: an
    int (a whole float too) when `integer`, else a float, finite unless
    `inf` admits +inf."""
    def ok(v):
        try:
            return (not isinstance(v, bool) and isinstance(v, (int, float))
                    and (float(v).is_integer() if integer else math.isfinite(v) or inf and v > 0)
                    and (v > lo if above else v >= lo) and (v <= hi or inf and v == math.inf))
        except OverflowError:  # an integer too large for a float
            return False
    check = _is(ok, ("an integer" if integer else "a finite number")
                + f" {'above' if above else 'at least'} {lo:g}" * (lo > -math.inf)
                + f" and at most {hi:g}" * (hi < math.inf) + ", or +inf" * inf)
    return lambda v, what: (int if integer else float)(check(v, what))


def _list_of(item, scalar=None):
    """A non-empty list of `item` values, or with `scalar` a non-list value."""
    many = _is(lambda v: isinstance(v, (list, tuple)) and len(v) > 0, "a non-empty list")
    return lambda v, what: (scalar(v, what) if scalar and not isinstance(v, (list, tuple))
                            else [item(x, f"{what}[{i}]") for i, x in enumerate(many(v, what))])


def _or_null(check):
    return lambda v, what: None if v is None else check(v, what)


_object = _is(lambda v: isinstance(v, dict), "a JSON object")
_text = _is(lambda v: isinstance(v, str), "a string")
# An id or scenario: it names capture files and fills one feature-table cell.
_label = _is(lambda v: isinstance(v, str) and not set(v) & set(",/\r\n"),
             "a string without ',', '/', CR or LF")
_flag = _is(lambda v: isinstance(v, bool), "true or false")
_real, _seed = _number(), _number(integer=True, lo=0)
_snr = _number(lo=-SNR_LIMIT_DB, hi=SNR_LIMIT_DB, inf=True)
_complex = _list_of(_real, scalar=_real)  # a number, or [re, im]


def _read(table: dict, obj, what: str) -> dict:
    """`obj`, the config's JSON object `what`, checked against `table`."""
    unknown = [key for key in _object(obj, what) if key not in table]
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} in {what}")
    out = {}
    for key, (check, default) in table.items():
        if key not in obj and default is _NEEDED:
            raise ConfigError(f"{what} needs {key!r}")
        if key in obj or default is not _OPEN:
            out[key] = check(obj.get(key, default), f"{what}.{key}")
    return out


def _distinct(values, what: str) -> None:
    """Raise a ConfigError naming the first of `values` that repeats."""
    repeated = [v for v, n in Counter(values).items() if n > 1]
    if repeated:
        raise ConfigError(f"{what}: {repeated[0]!r} appears more than once")


# A device, receiver, reference or sweep candidate, echoed as written; the
# impairments after `field_distinct` override the seed's draw within ranges
# that `DeviceProfile` checks.
_ENTITY = {
    "id": (_label, _OPEN),  # <prefix><list position:02d>; "ref" for the reference
    "seed": (_seed, _OPEN),  # 0, for an entry that gives impairments instead
    "field_distinct": (_flag, _OPEN),  # true for a device, false for a receiver or reference
    "dc_offset": (_complex, _OPEN),
    "iq_gain_imbalance": (_real, _OPEN),
    "iq_phase_imbalance": (_real, _OPEN),
    "fir_taps": (_list_of(_complex), _OPEN),
    "pa_coeffs": (_list_of(_complex), _OPEN),
    "cfo_hz": (_real, _OPEN),
    "band_tilt": (_or_null(_list_of(_real)), _OPEN),
}
# A device or receiver list as {count, base_seed}: entry i is <prefix><i:02d>.
_SHORTHAND = {
    "count": (_number(integer=True, lo=1), _NEEDED),
    "base_seed": (_seed, 0),
    "field_distinct": (_flag, False),
}
# Echoed as written; `per_frame` left out takes the scenario preset's value.
_CHANNEL = {
    "scenario": (_is(SCENARIOS.__contains__, f"one of {', '.join(SCENARIOS)}"), _NEEDED),
    "per_frame": (_flag, _OPEN),
}
# Also a capture manifest's detection. The detector always sums magnitudes;
# `metric` stays for the files that carry it (report format 2 drops it).
_DETECTION = {
    "window_w": (_number(integer=True, lo=MIN_WINDOW_W, hi=MAX_WINDOW_W), 80),
    "threshold_multiplier": (_number(lo=0, above=True), 6.0),
    "metric": (_is("magnitude".__eq__, "'magnitude'"), "magnitude"),
}
# A capture that a manifest lists: its IQ file, transmitter, receiver and role.
_CAPTURE = {"path": (_text, _NEEDED), **dict.fromkeys(("device", "receiver"), (_label, _NEEDED)),
            "role": (_is(("device", "reference").__contains__, "'device' or 'reference'"), _NEEDED),
            "frames": (_number(integer=True, lo=1), _OPEN)}
# A capture manifest, as `_write_manifest` writes it.
_MANIFEST = {
    "format_version": (_is(lambda v: v == 1 and not isinstance(v, bool), "1"), 1),
    "scenario": (_label, "unknown"),
    "snr_db": (_snr, 0.0),
    "sample_rate": (_is(lambda v: v == SAMPLE_RATE, f"{SAMPLE_RATE:g}"), SAMPLE_RATE),
    "detection": (partial(_read, _DETECTION), {}),
    "captures": (_list_of(partial(_read, _CAPTURE)), _NEEDED),
}


def _entity(v, what: str) -> dict:
    entry = _read(_ENTITY, v, what)
    if "seed" not in entry and entry.keys() <= {"id", "field_distinct"}:
        raise ConfigError(f"{what} needs a seed or explicit impairments")
    return entry


def _entities(prefix: str, v, what: str) -> list:
    """A list of entity entries, or the shorthand, with seeds base_seed + i."""
    if isinstance(v, dict):
        short = _read(_SHORTHAND, v, what)
        return [{"id": f"{prefix}{i:02d}", "seed": short["base_seed"] + i,
                 "field_distinct": short["field_distinct"]} for i in range(short["count"])]
    return [{"id": f"{prefix}{i:02d}"} | e for i, e in enumerate(_list_of(_entity)(v, what))]


# The classifier object: `classify.TrainConfig`'s fields, an int field read
# as every integer key is (a whole float too); `TrainConfig` checks ranges.
_CLASSIFIER = {f.name: (_number(integer=f.type == "int"), f.default)
               for f in fields(cl.TrainConfig)}


def _train_config(v, what: str) -> cl.TrainConfig:
    values = _read(_CLASSIFIER, v, what)
    try:
        return cl.TrainConfig(**values)
    except ValueError as exc:
        raise ConfigError(f"bad {what}: {exc}") from exc


EXTRACTORS = tuple(dict.fromkeys(div.extractor for div in DIVISIONS.values()))
_TOP = {
    "master_seed": (_seed, _NEEDED),
    "devices": (partial(_entities, "dev"), _NEEDED),
    "receivers": (partial(_entities, "rx"), _NEEDED),
    "reference_device": (_or_null(_entity), None),
    "extractors": (_list_of(_is(EXTRACTORS.__contains__, "RD, HL or DV")), list(EXTRACTORS)),
    # an entry is a receiver id, or a list of them that trains as one set
    "train_receivers": (_list_of(_list_of(_text, scalar=_text)), _OPEN),  # the first receiver
    "test_receivers": (_list_of(_text), _OPEN),  # every receiver
    "snr_db": (_list_of(_snr, scalar=lambda v, what: [_snr(v, what)]), 30.0),
    "channel": (partial(_read, _CHANNEL), {"scenario": "flat"}),
    "frames_per_device": (_number(integer=True, lo=2), 200),
    "repeats": (_number(integer=True, lo=1), 5),
    "classifier": (_train_config, {}),
    "detection": (partial(_read, _DETECTION), {}),
}


def _write_manifest(out: Path, cfg, snr_db: float, captures: list) -> None:
    """Write `out`/manifest.json for the capture files `captures` (objects
    of `_CAPTURE`'s keys) that `cfg`, a `harness.ExperimentConfig`, gave
    at `snr_db`."""
    manifest = {
        "format_version": 1,
        "scenario": cfg.channel["scenario"],
        "snr_db": snr_db,
        "sample_rate": SAMPLE_RATE,
        # `metric` is kept until manifest format 2 (ROADMAP item 7, report format 2)
        "detection": {"window_w": cfg.detection_window,
                      "threshold_multiplier": cfg.detection_multiplier, "metric": "magnitude"},
        "captures": captures,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def _load_manifest(path_arg) -> tuple[dict, Path]:
    """The checked manifest at `path_arg` (manifest.json or its directory)
    and the directory its capture paths are relative to."""
    man_path = Path(path_arg)
    if man_path.is_dir():
        man_path = man_path / "manifest.json"
    if not man_path.exists():
        raise ConfigError(f"manifest not found: {man_path}")
    doc = _load_json(man_path)
    try:
        manifest = _read(_MANIFEST, doc, "manifest")
        _distinct([str(Path(c["path"])) for c in manifest["captures"]], "captures")
        return manifest, man_path.parent
    except ConfigError as exc:
        raise ConfigError(f"{man_path}: {exc}") from exc
