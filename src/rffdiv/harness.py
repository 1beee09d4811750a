"""End-to-end experiment orchestration.

Reproduces the cross-receiver evaluation protocol in simulation: simulate
per-device captures through per-link channels, run the acquisition chain,
extract fingerprints, train per train-receiver set, and evaluate on test
receivers. Every random draw derives from the master seed through a
documented splittable scheme, so a rerun with the same config produces a
byte-identical report.

Seed scheme: every consumer draws from `numpy.random.default_rng(seed)`
with the seed `numpy.random.SeedSequence((master_seed, stream, repeat,
device_idx, receiver_idx, frame_idx)).generate_state(1)[0]`, where `stream`
distinguishes channel draws, noise, start jitter, and model-capture
variants. Devices and receivers are indexed by their position in the
config. The values are unchanged from the scheme's first version; only
their computation is per link: `derive_seeds` hashes all of a link's
frames and streams at once with the same arithmetic as `SeedSequence`, and
`generator_states` gives the PCG64 state each seed's `default_rng` starts
from, which the frame engine sets on one generator per link instead of
building a generator per draw.

Reference-division protocol: each receiver's model spectra come from a
fresh capture of the reference device made through that same receiver
(the run loop checks the pairing structurally); model captures refresh per
repeat and are never shared across receivers.

Frames that fail detection, sync, or hit a degenerate denominator are
dropped and counted; drop rates are first-class outputs. Within each
(device, receiver) cell the first half of the frame indices feeds the
training pool and the second half the test pool, so same-receiver cells
stay honest.
"""

from __future__ import annotations

import json
import math
import operator
import os
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import classify as cl
from . import data_io
from .channel import ChannelKind, ChannelRealization, apply_channel, sample_channel
from .features import (
    DegenerateDenominatorError,
    DegenerateModelError,
    EXTRACTOR_DIM,
    FeatureVector,
    Extractor,
    Field,
    centered_cosine_similarity,
    cosine_similarity,
    extract_dv,
    extract_hl,
    extract_rd,
    field_spectrum,
)
from .impairments import DeviceProfile, Role, apply_receiver, apply_transmitter, sample_profile
from .preprocess import (
    DEFAULT_THRESHOLD_MULTIPLIER,
    DetectionConfig,
    EstimationFailedError,
    NotDetectedError,
    SyncFailedError,
    noise_floor_threshold,
    synchronize_and_compensate,
)
from .refselect import eta_lf
from .signals import ComplexSignal, Frames
from .waveform import PreambleFormat, PreambleSpec, generate_preamble


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

# Stream tags for the seed scheme.
_S_CHANNEL = 1
_S_NOISE = 2
_S_JITTER = 3
_S_MODEL_CHANNEL = 4
_S_MODEL_NOISE = 5

LEAD_PAD = 256
TAIL_PAD = 120
MAX_JITTER = 40
MODEL_CAPTURE_ATTEMPTS = 8


# numpy.random.SeedSequence's hash (O'Neill's seed_seq_fe) over a pool of
# four 32-bit words, and the PCG64 multiplier (pcg64.h).
_POOL_WORDS = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_M32 = 0xFFFFFFFF
_M128 = (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hasher(const: int, mult: int):
    """SeedSequence's multiply-xorshift step with its running constant
    (`hashmix` from INIT_A/MULT_A, the output step from INIT_B/MULT_B). A
    value is a Python int below 2**32 or a uint32 array; every product is
    taken mod 2**32 either way."""
    def step(value):
        nonlocal const
        value = value ^ const
        const = const * mult & _M32
        value = value * const & _M32
        return value ^ value >> 16
    return step


def _mix(x, y):
    r = (_MIX_L * x & _M32) - (_MIX_R * y & _M32) & _M32
    return r ^ r >> 16


def _seed_words(entropy: list, n_words: int) -> list:
    """`SeedSequence(entropy).generate_state(n_words)`, one entry per output
    word, for entropy given as a list of 32-bit words (ints, or uint32
    arrays that hash one entropy per element)."""
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_WORDS)]
    for src in range(_POOL_WORDS):
        for dst in range(_POOL_WORDS):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_WORDS:]:
        for dst in range(_POOL_WORDS):
            pool[dst] = _mix(pool[dst], hashmix(word))
    output = _hasher(_INIT_B, _MULT_B)
    return [output(pool[i % _POOL_WORDS]) for i in range(n_words)]


def _entropy(values) -> tuple[list, tuple]:
    """The 32-bit entropy words of `values` as SeedSequence splits them,
    and their broadcast shape. An int gives its little-endian words (0 is
    one zero word); an integer array gives one word per element, so its
    elements must be below 2**32."""
    words, shapes = [], []
    for value in values:
        arr = np.asarray(value)
        if arr.ndim == 0:
            n = operator.index(value)
            if n < 0:
                raise ValueError("expected non-negative integer")
            words.append(n & _M32)
            while n := n >> 32:
                words.append(n & _M32)
            continue
        if arr.size and (arr.min() < 0 or arr.max() > _M32):
            raise ValueError("seed array entries must lie in [0, 2**32)")
        words.append(arr.astype(np.uint32))
        shapes.append(arr.shape)
    return words, np.broadcast_shapes(*shapes)


def derive_seeds(master: int, stream, repeat, device, receiver, frames) -> np.ndarray:
    """The uint32 seeds `SeedSequence((master, stream, repeat, device,
    receiver, frame)).generate_state(1)[0]` for every combination the
    arguments broadcast to: ints, or integer arrays (below 2**32), so one
    call covers all of a link's frames and streams."""
    words, shape = _entropy((master, stream, repeat, device, receiver, frames))
    return np.array(np.broadcast_to(_seed_words(words, 1)[0], shape), dtype=np.uint32)


def derive_seed(master: int, stream: int, repeat: int = 0, device: int = 0,
                receiver: int = 0, frame: int = 0) -> int:
    return int(derive_seeds(master, stream, repeat, device, receiver, frame))


def generator_states(seeds) -> list[dict]:
    """`numpy.random.default_rng(s).bit_generator.state` for each seed s
    (below 2**32, as `derive_seeds` gives), without building a generator.
    PCG64 seeds from `SeedSequence(s).generate_state(4, uint64)`: words
    (s0, s1, q0, q1) give initstate = s0 * 2**64 + s1 and initseq = q0 *
    2**64 + q1, and pcg_setseq_128_srandom_r leaves, mod 2**128,
    inc = 2 * initseq + 1 and state = (inc + initstate) * MULT + inc."""
    words, _ = _entropy([np.ravel(seeds)])
    w = [v.astype(np.uint64) for v in _seed_words(words, 8)]
    halves = [(w[2 * k + 1] << np.uint64(32) | w[2 * k]).tolist() for k in range(4)]
    states = []
    for s0, s1, q0, q1 in zip(*halves):
        inc = ((q0 << 64 | q1) << 1 | 1) & _M128
        state = ((inc + (s0 << 64 | s1)) * _PCG64_MULT + inc) & _M128
        states.append({"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                       "has_uint32": 0, "uinteger": 0})
    return states


@dataclass(frozen=True)
class ExperimentConfig:
    master_seed: int
    devices: list
    receivers: list
    extractors: list
    train_receivers: list
    test_receivers: list
    snr_db: list
    channel: dict = field(default_factory=lambda: {"scenario": "flat"})
    reference_device: dict | None = None
    frames_per_device: int = 200
    repeats: int = 5
    classifier: cl.TrainConfig = field(default_factory=cl.TrainConfig)
    detection_window: int = 80
    detection_multiplier: float = DEFAULT_THRESHOLD_MULTIPLIER

    def scenario(self) -> str:
        return self.channel.get("scenario", "flat")


# Explicit per-profile keys the config may carry instead of (or on top of)
# a draw seed. Complex values are written as [real, imag] pairs.
_PROFILE_KEYS = ("dc_offset", "iq_gain_imbalance", "iq_phase_imbalance",
                 "fir_taps", "pa_coeffs", "cfo_hz", "band_tilt")


def _check_seed(value, what: str) -> int:
    seed = int(value)
    if seed < 0:
        raise ConfigError(f"{what} must be non-negative, got {seed}")
    return seed


def _expand_entities(spec, prefix: str) -> list[dict]:
    """Device/receiver lists may be explicit dicts or a {count, base_seed}
    shorthand."""
    if isinstance(spec, dict):
        count = int(spec["count"])
        base = _check_seed(spec.get("base_seed", 0), f"{prefix} base_seed")
        fd = bool(spec.get("field_distinct", False))
        return [
            {"id": f"{prefix}{i:02d}", "seed": base + i, "field_distinct": fd}
            for i in range(count)
        ]
    out = []
    for i, d in enumerate(spec):
        d = dict(d)
        d.setdefault("id", f"{prefix}{i:02d}")
        if "seed" not in d and not any(k in d for k in _PROFILE_KEYS):
            raise ConfigError(f"{prefix} entry {i} needs a seed or explicit parameters")
        _check_seed(d.get("seed", 0), f"{prefix} entry {i} seed")
        out.append(d)
    return out


def detection_settings(det) -> tuple[int, float]:
    """(window_w, threshold_multiplier) from the `detection` object of an
    experiment config or a capture manifest. The detector always sums
    magnitudes; `metric` is accepted only as "magnitude", for files that
    still carry it (report format 2 drops the key: ROADMAP item 3)."""
    if not isinstance(det, dict):
        raise ConfigError("detection settings must be a JSON object")
    try:
        window_w = int(det.get("window_w", 80))
        multiplier = float(det.get("threshold_multiplier", DEFAULT_THRESHOLD_MULTIPLIER))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad detection settings: {exc}") from exc
    if window_w < 16:
        raise ConfigError(f"detection window_w must be at least 16, got {window_w}")
    if not multiplier > 0:
        raise ConfigError(f"detection threshold_multiplier must be positive, got {multiplier}")
    if det.get("metric", "magnitude") != "magnitude":
        raise ConfigError(f"unknown detection metric {det['metric']!r}; only 'magnitude' is kept")
    return window_w, multiplier


def load_config(doc: dict) -> ExperimentConfig:
    """Validate a config document and normalize its shorthands."""
    try:
        devices = _expand_entities(doc["devices"], "dev")
        receivers = _expand_entities(doc["receivers"], "rx")
        reference = doc.get("reference_device")
        if isinstance(reference, dict):
            _check_seed(reference.get("seed", 0), "reference_device seed")
        extractors = [str(e).upper() for e in doc.get("extractors", ["RD", "HL", "DV"])]
        snr = doc.get("snr_db", 30.0)
        snr_list = [float(s) for s in (snr if isinstance(snr, (list, tuple)) else [snr])]
        train = doc.get("train_receivers") or [receivers[0]["id"]]
        test = doc.get("test_receivers") or [r["id"] for r in receivers]
        window_w, multiplier = detection_settings(doc.get("detection", {}))
        cfg = ExperimentConfig(
            master_seed=int(doc["master_seed"]),
            devices=devices,
            receivers=receivers,
            extractors=extractors,
            train_receivers=list(train),
            test_receivers=[str(t) for t in test],
            snr_db=snr_list,
            channel=dict(doc.get("channel", {"scenario": "flat"})),
            reference_device=reference,
            frames_per_device=int(doc.get("frames_per_device", 200)),
            repeats=int(doc.get("repeats", 5)),
            classifier=cl.TrainConfig(**doc.get("classifier", {})),
            detection_window=window_w,
            detection_multiplier=multiplier,
        )
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"bad experiment config: {exc}") from exc
    validate_config(cfg)
    return cfg


def validate_config(cfg: ExperimentConfig) -> None:
    if cfg.master_seed < 0:
        raise ConfigError(f"master_seed must be non-negative, got {cfg.master_seed}")
    if len(cfg.devices) < 2:
        raise ConfigError("need at least two devices")
    if not cfg.receivers:
        raise ConfigError("need at least one receiver")
    known = {e.value for e in Extractor} | {"RD"}
    for e in cfg.extractors:
        if e not in known:
            raise ConfigError(f"unknown extractor {e!r}")
    if any(e in ("RD", "RD_STF", "RD_LTF") for e in cfg.extractors) and not cfg.reference_device:
        raise ConfigError("reference-division extraction needs a reference_device")
    if cfg.scenario() not in SCENARIOS:
        raise ConfigError(f"unknown channel scenario {cfg.scenario()!r}")
    rx_ids = {r["id"] for r in cfg.receivers}
    for entry in cfg.train_receivers:
        ids = entry if isinstance(entry, (list, tuple)) else [entry]
        for rid in ids:
            if rid not in rx_ids:
                raise ConfigError(f"train receiver {rid!r} not in receivers")
    for rid in cfg.test_receivers:
        if rid not in rx_ids:
            raise ConfigError(f"test receiver {rid!r} not in receivers")
    if cfg.frames_per_device < 2:
        raise ConfigError("frames_per_device must be at least 2")
    if cfg.repeats < 1:
        raise ConfigError("repeats must be at least 1")
    if cfg.reference_device is not None and "seed" not in cfg.reference_device \
            and not any(k in cfg.reference_device for k in _PROFILE_KEYS):
        raise ConfigError("reference_device needs a seed or explicit parameters")


def _as_complex(v):
    return complex(v[0], v[1]) if isinstance(v, (list, tuple)) else complex(v)


def profile_from_entry(entry: dict, role: str, default_field_distinct: bool) -> DeviceProfile:
    """Build a profile from a config entry: a drawn profile when only a
    seed is given, with any explicit impairment keys overriding the draw."""
    explicit = {k: entry[k] for k in _PROFILE_KEYS if k in entry}
    base = sample_profile(
        int(entry.get("seed", 0)), role,
        field_distinct=bool(entry.get("field_distinct", default_field_distinct)),
        device_id=entry.get("id", "dev"),
    )
    overrides = {}
    if "dc_offset" in explicit:
        overrides["dc_offset"] = _as_complex(explicit["dc_offset"])
    for key in ("iq_gain_imbalance", "iq_phase_imbalance", "cfo_hz"):
        if key in explicit:
            overrides[key] = float(explicit[key])
    for key in ("fir_taps", "pa_coeffs"):
        if key in explicit:
            overrides[key] = np.array([_as_complex(v) for v in explicit[key]])
    if "band_tilt" in explicit:
        tilt = explicit["band_tilt"]
        overrides["band_tilt"] = None if tilt is None else np.asarray(tilt, dtype=float)
    return replace(base, **overrides)


def profile_to_entry(profile: DeviceProfile) -> dict:
    """Config-schema form of a profile (round-trips through
    `profile_from_entry`)."""
    return {
        "id": profile.device_id,
        "seed": profile.seed,
        "dc_offset": [profile.dc_offset.real, profile.dc_offset.imag],
        "iq_gain_imbalance": profile.iq_gain_imbalance,
        "iq_phase_imbalance": profile.iq_phase_imbalance,
        "fir_taps": [[t.real, t.imag] for t in profile.fir_taps],
        "pa_coeffs": [[c.real, c.imag] for c in profile.pa_coeffs],
        "cfo_hz": profile.cfo_hz,
        "band_tilt": None if profile.band_tilt is None else profile.band_tilt.tolist(),
    }


def _profiles(cfg: ExperimentConfig):
    devices = [
        profile_from_entry(d, Role.TRANSMITTER, default_field_distinct=True)
        for d in cfg.devices
    ]
    receivers = [
        profile_from_entry(r, Role.RECEIVER, default_field_distinct=False)
        for r in cfg.receivers
    ]
    reference = None
    if cfg.reference_device:
        reference = profile_from_entry(
            {**cfg.reference_device, "id": cfg.reference_device.get("id", "ref")},
            Role.TRANSMITTER, default_field_distinct=False,
        )
    return devices, receivers, reference


def _draw_channel(cfg: ExperimentConfig, snr_db: float, seed) -> ChannelRealization:
    """The scenario's channel from `seed`: an int, or one generator per row
    of a block of draws (`sample_channel`)."""
    params = SCENARIOS[cfg.scenario()] | {
        k: v for k, v in cfg.channel.items() if k not in ("scenario",)
    }
    if params["kind"] == "flat":
        return sample_channel(ChannelKind.FLAT, snr_db, seed)
    return sample_channel(
        ChannelKind.SELECTIVE, snr_db, seed,
        n_taps=int(params.get("n_taps", 4)),
        decay=float(params.get("decay", 1.0)),
        rice_k_db=params.get("rice_k_db"),
    )


def _channel_per_frame(cfg: ExperimentConfig) -> bool:
    preset = SCENARIOS[cfg.scenario()].get("per_frame", False)
    return bool(cfg.channel.get("per_frame", preset))


_FRAME = generate_preamble(PreambleSpec(PreambleFormat.HTMF))

# Frames per block in the frame engine. A block of 16 captures of at most
# 816 samples is under 209 KiB of complex128, below the 256 KiB from which
# numpy elides temporaries (see preprocess.apply_cfo), and keeps the peak
# memory at what one frame at a time needs.
BLOCK_ROWS = 16


def _transmit(profile: DeviceProfile) -> np.ndarray:
    """The device's transmitted frame; every capture of it starts here."""
    return apply_transmitter(profile, _FRAME).samples


def _receive(sent: np.ndarray, rx: DeviceProfile, chan: ChannelRealization, noise,
             jitter) -> tuple[Frames, np.ndarray]:
    """Captures of the transmitted frame `sent` through receiver `rx`, one
    row per generator of `noise` and of `jitter` (iterables, one generator
    per row): each row gets its own randomized lead gap, then the channel
    (`chan`, one realization or a block of one per row) with fresh noise,
    and the receiver runs on the whole block. Returns the block and each
    row's true frame start."""
    leads = np.array([LEAD_PAD + int(rng.integers(0, MAX_JITTER + 1)) for rng in jitter])
    lengths = leads + sent.size + TAIL_PAD
    block = np.zeros((leads.size, LEAD_PAD + MAX_JITTER + sent.size + TAIL_PAD),
                     dtype=np.complex128)
    for row, lead in zip(block, leads.tolist()):
        row[lead : lead + sent.size] = sent
    received = apply_channel(chan, Frames(block, lengths), noise_rng=noise)
    return apply_receiver(rx, received), leads


def _capture(sent, rx, chan, noise_seed, jitter_seed) -> tuple[ComplexSignal, int]:
    frames, leads = _receive(sent, rx, chan, [np.random.default_rng(noise_seed)],
                             [np.random.default_rng(jitter_seed)])
    return ComplexSignal(frames.samples[0, : frames.lengths[0]]), int(leads[0])


def simulate_capture(
    tx: DeviceProfile,
    rx: DeviceProfile,
    chan: ChannelRealization,
    noise_seed: int,
    jitter_seed: int,
) -> tuple[ComplexSignal, int]:
    """One frame: pad with a randomized lead gap, run transmitter, channel
    with fresh noise, receiver. Returns the capture and the true frame
    start (for diagnostics; the pipeline re-estimates it)."""
    return _capture(_transmit(tx), rx, chan, noise_seed, jitter_seed)


def _seated(rng: np.random.Generator, states):
    """`rng` once per state of `states` (`generator_states`), set to start
    where that seed's `default_rng` starts. Consumers take each row's draws
    before asking for the next row, so one generator serves every row."""
    for state in states:
        rng.bit_generator.state = state
        yield rng


def frame_blocks(cfg: ExperimentConfig, sent: np.ndarray, rx: DeviceProfile, snr_db: float,
                 repeat: int, device_idx: int, receiver_idx: int, n_frames: int,
                 per_frame_channel: bool):
    """The frame engine's captures of one (device, receiver) link: yields
    (first frame index, block) for blocks of at most BLOCK_ROWS frames.
    Every frame draws its own jitter, noise and (when `per_frame_channel`)
    channel from its own seeds, so blocking changes no sample; a static
    link draws one channel for all its frames (the seed of frame 0). The
    link's seeds come from one `derive_seeds` call, and one generator, set
    to each seed's starting state in turn, makes every draw."""
    seeds = derive_seeds(cfg.master_seed, np.array([[_S_CHANNEL], [_S_NOISE], [_S_JITTER]]),
                         repeat, device_idx, receiver_idx, np.arange(n_frames))
    # a static link's channel needs frame 0's seed, not a state per frame
    states = generator_states(seeds if per_frame_channel else seeds[1:])
    by_stream = [states[i : i + n_frames] for i in range(0, len(states), n_frames)]
    channel, noise, jitter = by_stream if per_frame_channel else [None, *by_stream]
    rng = np.random.default_rng(0)  # every draw comes after a state is set
    link_channel = None if per_frame_channel else _draw_channel(cfg, snr_db, int(seeds[0, 0]))
    for first in range(0, n_frames, BLOCK_ROWS):
        rows = slice(first, first + BLOCK_ROWS)
        chan = (_draw_channel(cfg, snr_db, _seated(rng, channel[rows])) if per_frame_channel
                else link_channel)
        yield first, _receive(sent, rx, chan, _seated(rng, noise[rows]),
                              _seated(rng, jitter[rows]))[0]


_DROP_ERRORS = (NotDetectedError, SyncFailedError, EstimationFailedError,
                DegenerateDenominatorError, DegenerateModelError)


def _acquire(capture: ComplexSignal | Frames, window_w: int, multiplier: float):
    """`synchronize_and_compensate` with each capture's detection threshold
    set at `multiplier` times its leading window's statistic."""
    thr = noise_floor_threshold(capture, window_w, multiplier)
    return synchronize_and_compensate(capture, DetectionConfig(window_w, thr))


def acquire_spectra(capture: ComplexSignal | Frames, cfg: ExperimentConfig, fields) -> dict:
    """Detection through field spectra, for one capture or a block; a
    capture raises the pipeline errors the caller counts as drops."""
    compensated, sync, _ = _acquire(capture, cfg.detection_window, cfg.detection_multiplier)
    return {f: field_spectrum(compensated, sync.frame_start_n1, f) for f in fields}


@dataclass
class ModelCapture:
    """Reference-device spectra captured through one specific receiver."""

    receiver_id: str
    spectra: dict
    attempts: int


def _capture_model(cfg, sent_ref, rx_profile, rx_idx, repeat, snr_db) -> ModelCapture:
    """Capture the transmitted reference frame `sent_ref` through one
    receiver until a capture survives acquisition."""
    for attempt in range(MODEL_CAPTURE_ATTEMPTS):
        ch_seed = derive_seed(cfg.master_seed, _S_MODEL_CHANNEL, repeat, attempt, rx_idx)
        chan = _draw_channel(cfg, snr_db, ch_seed)
        noise_seed = derive_seed(cfg.master_seed, _S_MODEL_NOISE, repeat, attempt, rx_idx)
        jitter_seed = derive_seed(cfg.master_seed, _S_JITTER, repeat, attempt, rx_idx, 999)
        capture, _ = _capture(sent_ref, rx_profile, chan, noise_seed, jitter_seed)
        try:
            spectra = acquire_spectra(capture, cfg, (Field.LSTF, Field.LLTF))
        except _DROP_ERRORS:
            continue
        return ModelCapture(rx_profile.device_id, spectra, attempt + 1)
    raise PipelineError(
        f"model capture failed {MODEL_CAPTURE_ATTEMPTS} times on {rx_profile.device_id}"
    )


def _extract_all(spectra: dict, extractors, model: ModelCapture | None,
                 rx_id: str, device_id: str) -> dict[str, FeatureVector]:
    out = {}
    if any(e in ("RD", "RD_STF", "RD_LTF") for e in extractors):
        if model is None:
            raise PipelineError("reference-division extraction without a model capture")
        # structural isolation: the model must have been captured through
        # the receiver whose frames it divides
        if model.receiver_id != rx_id:
            raise PipelineError(
                f"model captured through {model.receiver_id} cannot divide frames from {rx_id}"
            )
        out["RD_STF"] = extract_rd(spectra[Field.LSTF], model.spectra[Field.LSTF], device_id)
        out["RD_LTF"] = extract_rd(spectra[Field.LLTF], model.spectra[Field.LLTF], device_id)
    if "HL" in extractors:
        out["HL"] = extract_hl(spectra[Field.LLTF], spectra[Field.HTLTF], device_id)
    if "DV" in extractors:
        out["DV"] = extract_dv(spectra[Field.LSTF], spectra[Field.LLTF], device_id)
    return out


@dataclass
class ExperimentReport:
    config: dict
    cells: list
    drop_rates: dict
    feature_records: dict  # tag -> CSV text chunks in file order, header first
    model_info: dict

    def to_json_doc(self) -> dict:
        return {
            "format_version": 1,
            "config": self.config,
            "cells": self.cells,
            "drop_rates": self.drop_rates,
            "model_info": self.model_info,
        }


def _config_doc(cfg: ExperimentConfig) -> dict:
    doc = asdict(cfg)
    # Echoed as constants: detection always sums magnitudes and training
    # always takes Adam steps. Report format 2 drops both keys (ROADMAP
    # item 3, seed scheme v2).
    doc["detection_metric"] = "magnitude"
    doc["classifier"]["optimizer"] = "adam"
    return doc


def _needed_fields(extractors) -> tuple:
    fields = set()
    if any(e in ("RD", "RD_STF", "RD_LTF") for e in extractors):
        fields.update((Field.LSTF, Field.LLTF))
    if "HL" in extractors:
        fields.update((Field.LLTF, Field.HTLTF))
    if "DV" in extractors:
        fields.update((Field.LSTF, Field.LLTF))
    return tuple(sorted(fields, key=lambda f: f.value))


@dataclass
class LinkFeatures:
    """One (device, receiver) link's fingerprints: the indices of the frames
    that yielded them, one block FeatureVector per tag whose rows follow
    `frames`, and the dropped frames counted by cause. `csv` holds, per
    tag, the link's feature CSV rows (`data_io.format_feature_rows`) when
    the link was run for a report."""

    frames: np.ndarray
    features: dict
    drops: dict
    csv: dict = field(default_factory=dict)

    @property
    def dropped(self) -> int:
        return sum(self.drops.values())


def _link_features(cfg, blocks, model: ModelCapture | None, rx_id: str,
                   device_id: str) -> LinkFeatures:
    """Run acquisition and extraction over a link's blocks (`frame_blocks`)."""
    fields = _needed_fields(cfg.extractors)
    kept, values, last = [], {}, {}
    drops: dict[str, int] = {}
    for first, frames in blocks:
        feats = _extract_all(acquire_spectra(frames, cfg, fields), cfg.extractors, model,
                             rx_id, device_id)
        live = frames.drops.live
        kept.append(first + np.flatnonzero(live))
        for tag, fv in feats.items():
            values.setdefault(tag, []).append(fv.values[live[fv.rows]])
            last[tag] = fv
        for exc in frames.drops.errors:
            if exc is not None:
                drops[type(exc).__name__] = drops.get(type(exc).__name__, 0) + 1
    features = {tag: replace(last[tag], values=np.concatenate(v), rows=None)
                for tag, v in values.items()}
    return LinkFeatures(np.concatenate(kept), features, drops)


def _transmit_all(devices, reference) -> tuple[list, np.ndarray | None]:
    """Transmitted frames of the devices and of the reference (if any)."""
    return [_transmit(d) for d in devices], None if reference is None else _transmit(reference)


def _capture_models(cfg, receivers, sent_ref, repeat, snr_db) -> dict[str, ModelCapture]:
    if sent_ref is None or not any(e.startswith("RD") for e in cfg.extractors):
        return {}
    return {rx.device_id: _capture_model(cfg, sent_ref, rx, rj, repeat, snr_db)
            for rj, rx in enumerate(receivers)}


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask); 1 where the
    platform cannot tell or cannot fork."""
    if not (hasattr(os, "sched_getaffinity") and hasattr(os, "fork")):
        return 1
    return len(os.sched_getaffinity(0))


def map_ordered(fn, items):
    """`map(fn, items)` over a pool of forked worker processes, one per
    usable CPU and at most one per item; yields the results in input order.
    `fn` and the items must pickle. With one worker this is the built-in
    `map`, in this process. A failing item raises its own exception (the
    earliest failing item's, as the built-in `map` would) and cancels the
    items not yet started."""
    items = list(items)
    workers = min(usable_cpus(), len(items))
    if workers <= 1:
        yield from map(fn, items)
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # fork, not spawn: a spawned worker would import numpy and rffdiv again
    # (about 0.2 s, a quarter of a bench's link work). From Python 3.11 the
    # executor forks every worker at the first submit, before it starts a
    # thread of its own.
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        futures = [pool.submit(fn, item) for item in items]
        for future in futures:
            yield future.result()
    finally:
        pool.shutdown(cancel_futures=True)


def _link_task(cfg, snr_db, repeat, per_frame_channel, csv, link) -> LinkFeatures:
    """One (device, receiver) link through the frame engine; `link` is
    (sent, rx profile, device index, receiver index, device id, model).
    With `csv` the link's rows are also formatted for the feature CSVs
    (trial `repeat * frames_per_device + frame`), here in the worker."""
    sent, rx, di, rj, device_id, model = link
    blocks = frame_blocks(cfg, sent, rx, snr_db, repeat, di, rj, cfg.frames_per_device,
                          per_frame_channel)
    out = _link_features(cfg, blocks, model, rx.device_id, device_id)
    if csv:
        trials = (repeat * cfg.frames_per_device + out.frames).tolist()
        out.csv = {tag: data_io.format_feature_rows(tag, device_id, rx.device_id,
                                                    cfg.scenario(), trials, snr_db, fv.values)
                   for tag, fv in out.features.items()}
    return out


def _run_links(cfg, devices, receivers, sent_devices, models, snr_db, repeat,
               per_frame_channel, csv=False) -> dict:
    """{(dev_id, rx_id): LinkFeatures} of every link, device-major; the
    links are independent, so they run on every usable CPU."""
    grid = [(di, dev, rj, rx) for di, dev in enumerate(devices)
            for rj, rx in enumerate(receivers)]
    task = partial(_link_task, cfg, snr_db, repeat, per_frame_channel, csv)
    results = map_ordered(task, [
        (sent_devices[di], rx, di, rj, dev.device_id, models.get(rx.device_id))
        for di, dev, rj, rx in grid])
    return {(dev.device_id, rx.device_id): link
            for (_, dev, _, rx), link in zip(grid, results)}


def _simulate_cells(cfg, devices, receivers, sent, snr_db, repeat):
    """All links for one (snr, repeat), given the transmitted frames `sent`
    (`_transmit_all`): returns {(dev_id, rx_id): LinkFeatures}, with their
    CSV rows, and the per-receiver model captures."""
    sent_devices, sent_ref = sent
    models = _capture_models(cfg, receivers, sent_ref, repeat, snr_db)
    links = _run_links(cfg, devices, receivers, sent_devices, models, snr_db, repeat,
                       _channel_per_frame(cfg), csv=True)
    return links, models


def _branch_tags(extractor: str):
    return ("RD_STF", "RD_LTF") if extractor == "RD" else (extractor,)


def _pool(cfg, links, tags, rx_ids, first_half: bool) -> dict:
    """Per tag, the block FeatureVectors of receivers `rx_ids`, limited to
    each link's first half of frame indices (training) or second half
    (testing)."""
    half = cfg.frames_per_device // 2
    pool = {t: [] for t in tags}
    for (_, rx_id), link in links.items():
        if rx_id in rx_ids:
            keep = (link.frames < half) == first_half
            for t in tags:
                fv = link.features[t]
                pool[t].append(replace(fv, values=fv.values[keep]))
    return pool


def _pool_size(pool: dict) -> int:
    return min(sum(len(fv.values) for fv in fvs) for fvs in pool.values())


def _train_and_score(cfg, links) -> list:
    """(extractor, train label, accuracy per test receiver) of each
    extractor and train set, for one (snr, repeat): each train set's models
    train once on its receivers' first-half frames, then score each test
    receiver's second-half frames. Every pool is checked before any
    training starts; the trainings are independent, so they run on every
    usable CPU."""
    cells, trainings = [], []
    for extractor in cfg.extractors:
        tags = _branch_tags(extractor)
        for train_entry in cfg.train_receivers:
            train_ids = (set(train_entry) if isinstance(train_entry, (list, tuple))
                         else {train_entry})
            train_pool = _pool(cfg, links, tags, train_ids, True)
            test_pools = [_pool(cfg, links, tags, {test_id}, False)
                          for test_id in cfg.test_receivers]
            for test_id, test_pool in zip(cfg.test_receivers, test_pools):
                if not _pool_size(train_pool) or not _pool_size(test_pool):
                    raise PipelineError(
                        f"empty train or test pool for extractor {extractor} "
                        f"(train={train_ids}, test={test_id})"
                    )
            cells.append((extractor, "+".join(sorted(train_ids)), tags, test_pools))
            trainings.extend(train_pool[t] for t in tags)
    models = map_ordered(partial(cl.train, cfg=cfg.classifier), trainings)
    out = []
    for extractor, train_label, tags, test_pools in cells:
        branch = [next(models) for _ in tags]
        if len(branch) == 2:
            accs = [cl.evaluate_fused(tuple(branch), list(zip(*(pool[t] for t in tags))))
                    for pool in test_pools]
        else:
            accs = [cl.evaluate(branch[0], pool[tags[0]]) for pool in test_pools]
        out.append((extractor, train_label, accs))
    return out


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Full grid: per (snr, extractor, train set, test receiver) accuracy,
    aggregated as mean and sample std over the repeats."""
    validate_config(cfg)
    devices, receivers, reference = _profiles(cfg)
    sent = _transmit_all(devices, reference)
    cells_acc = {}
    drop_acc = {}
    feature_records = {}
    model_info = {}
    for snr in cfg.snr_db:
        for rep in range(cfg.repeats):
            links, models = _simulate_cells(cfg, devices, receivers, sent, snr, rep)
            for key, link in links.items():
                drop_acc.setdefault((snr,) + key, []).append(link.dropped / cfg.frames_per_device)
            for rx_id, mc in models.items():
                csi = np.abs(mc.spectra[Field.LLTF].occupied_bins())
                model_info.setdefault(f"snr{snr:g}/{rx_id}", []).append(
                    {"attempts": mc.attempts, "eta_lf": eta_lf(csi).eta_lf}
                )
            for link in links.values():
                for tag, rows in link.csv.items():
                    if rows:
                        feature_records.setdefault(tag, [data_io.feature_header(
                            EXTRACTOR_DIM[Extractor(tag)])]).append(rows)
            for extractor, train_label, accs in _train_and_score(cfg, links):
                for test_id, acc in zip(cfg.test_receivers, accs):
                    cells_acc.setdefault((snr, extractor, train_label, test_id), []).append(acc)
    cells = [
        {
            "snr_db": snr,
            "extractor": ext,
            "train": train_label,
            "test": test_id,
            "mean_accuracy": float(np.mean(accs)),
            "std_accuracy": float(np.std(accs, ddof=1)) if len(accs) > 1 else 0.0,
            "repeats": len(accs),
        }
        for (snr, ext, train_label, test_id), accs in sorted(cells_acc.items())
    ]
    drop_rates = {
        f"snr{snr:g}/{dev}/{rx}": float(np.mean(rates))
        for (snr, dev, rx), rates in sorted(drop_acc.items())
    }
    return ExperimentReport(
        config=_config_doc(cfg),
        cells=cells,
        drop_rates=drop_rates,
        feature_records=feature_records,
        model_info={k: v for k, v in sorted(model_info.items())},
    )


def run_feature_stability(cfg: ExperimentConfig) -> dict:
    """Per-device, per-extractor similarity statistics.

    A stability trial always redraws the channel (a trial means an
    independent capture), so the statistics measure robustness to both
    noise and channel variation. Two pair populations are reported:
    `cross_receiver` (pairs from different receivers) and `trial_to_trial`
    (same receiver, different frames); each carries the plain cosine and
    the mean-centered cosine. Plain cosine of nonnegative unit vectors is
    dominated by the shared flat component, so the centered variant is the
    discriminative stability measure.
    """
    validate_config(cfg)
    devices, receivers, reference = _profiles(cfg)
    sent_devices, sent_ref = _transmit_all(devices, reference)
    snr = cfg.snr_db[0]
    models = _capture_models(cfg, receivers, sent_ref, 0, snr)
    links = _run_links(cfg, devices, receivers, sent_devices, models, snr, 0,
                       per_frame_channel=True)
    out = {"snr_db": snr, "scenario": cfg.scenario(), "devices": {}}
    for dev in devices:
        per_rx = {rx.device_id: links[(dev.device_id, rx.device_id)].features
                  for rx in receivers}
        drops = sum(links[(dev.device_id, rx.device_id)].dropped for rx in receivers)
        tags = {t for feats in per_rx.values() for t, fv in feats.items() if len(fv.values)}
        dev_stats = {}
        for tag in sorted(tags):
            flat = [(rx_id, v) for rx_id, feats in per_rx.items() for v in feats[tag].values]
            cross_p, cross_c, same_p, same_c = [], [], [], []
            for i in range(len(flat)):
                for j in range(i + 1, len(flat)):
                    p = cosine_similarity(flat[i][1], flat[j][1])
                    c = centered_cosine_similarity(flat[i][1], flat[j][1])
                    if flat[i][0] == flat[j][0]:
                        same_p.append(p)
                        same_c.append(c)
                    else:
                        cross_p.append(p)
                        cross_c.append(c)
            dev_stats[tag] = {
                "cross_receiver": {
                    "plain": float(np.mean(cross_p)) if cross_p else None,
                    "centered": float(np.mean(cross_c)) if cross_c else None,
                },
                "trial_to_trial": {
                    "plain": float(np.mean(same_p)) if same_p else None,
                    "centered": float(np.mean(same_c)) if same_c else None,
                },
            }
        out["devices"][dev.device_id] = {"stats": dev_stats, "drops": drops}
    tags = sorted({t for d in out["devices"].values() for t in d["stats"]})
    out["mean"] = {
        tag: {
            pop: {
                kind: float(np.mean([
                    d["stats"][tag][pop][kind]
                    for d in out["devices"].values()
                    if d["stats"].get(tag, {}).get(pop, {}).get(kind) is not None
                ]))
                for kind in ("plain", "centered")
            }
            for pop in ("cross_receiver", "trial_to_trial")
        }
        for tag in tags
    }
    return out


def pearson_r_p(x, y) -> tuple[float, float]:
    """Two-sided Pearson correlation; degenerate (constant) inputs report
    r=0, p=1 instead of NaN.

    p is the Student-t tail of t = r*sqrt(nu/(1-r^2)) with nu = n-2, in the
    closed form for integer nu (Abramowitz & Stegun 26.7.3/26.7.4): with
    theta = atan(|t|/sqrt(nu)) and c = cos(theta), P(|T| < |t|) is
    sin(theta)*(1 + c^2/2 + (1*3)/(2*4)*c^4 + ...) for even nu and
    (2/pi)*(theta + sin(theta)*(c + (2/3)*c^3 + ...)) for odd nu, each
    series running to the c^(nu-2) term."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 3:
        raise ConfigError("Pearson p-value needs at least 3 points")
    if np.std(x) == 0.0 or np.std(y) == 0.0:
        return 0.0, 1.0
    xc = x - x.mean()
    yc = y - y.mean()
    # one square root of the product keeps exactly linear data at |r| = 1
    r = max(-1.0, min(1.0, float(xc @ yc) / math.sqrt((xc @ xc) * (yc @ yc))))
    if abs(r) == 1.0:
        return r, 0.0
    nu = x.size - 2
    t = r * math.sqrt(nu / (1.0 - r * r))
    theta = math.atan(abs(t) / math.sqrt(nu))
    c = math.cos(theta)
    odd = nu % 2
    term = c if odd else 1.0
    series = 0.0
    for k in range(1, nu // 2 + 1):
        series += term
        term *= c * c * (2 * k - 1 + odd) / (2 * k + odd)
    inside = series * math.sin(theta)
    if odd:
        inside = 2.0 / math.pi * (theta + inside)
    return r, min(1.0, max(0.0, 1.0 - inside))


def run_reference_sweep(cfg: ExperimentConfig, candidates) -> dict:
    """Repeat the reference-division experiment once per candidate reference
    device and correlate each candidate's low-frequency energy ratio with
    its mean accuracy."""
    cands = _expand_entities(candidates, "cand")
    if len(cands) < 3:
        raise ConfigError("reference sweep needs at least 3 candidates")
    rows = []
    for cand in cands:
        report = run_experiment(replace(cfg, reference_device=cand, extractors=["RD"]))
        mean_acc = float(np.mean([c["mean_accuracy"] for c in report.cells]))
        etas = [
            rec["eta_lf"]
            for key, recs in report.model_info.items()
            for rec in recs
        ]
        rows.append({
            "candidate": cand["id"],
            "eta_lf": float(np.mean(etas)),
            "mean_accuracy": mean_acc,
        })
    r, p = pearson_r_p([r_["eta_lf"] for r_ in rows], [r_["mean_accuracy"] for r_ in rows])
    return {"candidates": rows, "pearson_r": r, "p_value": p}


def write_report(report: ExperimentReport, out_dir) -> None:
    """report.json plus one feature CSV and an accuracy CSV; deterministic
    bytes for a fixed config."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(
        json.dumps(report.to_json_doc(), sort_keys=True, indent=2) + "\n"
    )
    lines = ["snr_db,extractor,train,test,mean_accuracy,std_accuracy,repeats"]
    for c in report.cells:
        lines.append(
            f"{c['snr_db']:g},{c['extractor']},{c['train']},{c['test']},"
            f"{c['mean_accuracy']:.6f},{c['std_accuracy']:.6f},{c['repeats']}"
        )
    (out / "accuracy.csv").write_text("\n".join(lines) + "\n")
    for tag, chunks in sorted(report.feature_records.items()):
        data_io.write_feature_text(out / f"features_{tag.lower()}.csv", chunks)
