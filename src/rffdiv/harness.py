"""End-to-end experiment orchestration.

Reproduces the cross-receiver evaluation protocol in simulation: simulate
per-device captures through per-link channels, run the acquisition chain,
extract fingerprints, train per train-receiver set, and evaluate on test
receivers. Every random draw derives from the master seed through a
documented splittable scheme, so a rerun with the same config produces a
byte-identical report.

Seed scheme: every consumer draws from `numpy.random.default_rng(seed)`
with the seed `numpy.random.SeedSequence((master_seed, stream, repeat,
device, receiver, frame)).generate_state(1)[0]`, where `stream`
distinguishes channel draws, noise, start jitter, and model-capture
variants. Devices and receivers are indexed by their position in the
config; a model capture's attempt takes the device slot. The values are
unchanged from the scheme's first version; only their computation is
batched: `derive_seeds` hashes all of a link's frames and streams, or all
of a model capture's attempts, at once with the same arithmetic as
`SeedSequence`, and `generator_states` gives the PCG64 state each seed's
`default_rng` starts from. The frame engine's one capture loop,
`_capture_blocks`, sets those states on one generator instead of building
a generator per draw; link frames and model attempts both run through it,
and through one acquisition step, `acquire`.

Reference-division protocol: each receiver's model spectra come from a
fresh capture of the reference device made through that same receiver,
and the model table is keyed by that receiver, so a frame can only be
divided by its own receiver's model; model captures refresh per repeat and
are never shared across receivers. One rule, `first_model`, picks the
model: the first captured frame that survives acquisition, in `bench`'s
model captures and in `extract`'s walk of a reference capture alike.

Frames that fail detection, sync, or hit a degenerate denominator are
dropped and counted; drop rates are first-class outputs. Within each
(device, receiver) cell the first half of the frame indices feeds the
training pool and the second half the test pool, so same-receiver cells
stay honest.
"""

from __future__ import annotations

import json
import operator
import os
import pickle
import signal
from collections import Counter
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field, replace
from functools import cache, partial
from pathlib import Path

import numpy as np

from . import classify as cl
from . import data_io
from .channel import ChannelKind, ChannelRealization, apply_channel, sample_channel
from .config import _TOP, SCENARIOS, ConfigError, PipelineError, _distinct, _read
from .features import (
    DIVISIONS,
    FeatureVector,
    Field,
    FieldSpectrum,
    divide,
    field_spectrum,
    tables_of,
)
from .impairments import DeviceProfile, Role, apply_receiver, apply_transmitter, sample_profile
from .preprocess import DetectionConfig, noise_floor_threshold, synchronize_and_compensate
from .refselect import eta_lf
from .signals import ComplexSignal, Drops, Frames
from .waveform import FFT_SIZE, PreambleFormat, PreambleSpec, WindowBoundsError, generate_preamble


class MissingModelError(PipelineError):
    """A frame's receiver has no reference model to divide it by."""


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
    channel: dict
    reference_device: dict | None
    frames_per_device: int
    repeats: int
    classifier: cl.TrainConfig
    detection_window: int
    detection_multiplier: float


def _needs_reference(extractors) -> bool:
    return any(div.by_model for div in tables_of(extractors).values())


def load_config(doc) -> ExperimentConfig:
    """The experiment config of a config document, read through the schema
    tables (`config._TOP`) and the rules that tie keys together, before
    anything runs."""
    top = _read(_TOP, doc, "config")
    rx_ids = [r["id"] for r in top["receivers"]]
    train = top.setdefault("train_receivers", rx_ids[:1])
    test = top.setdefault("test_receivers", rx_ids)
    if len(top["devices"]) < 2:
        raise ConfigError("need at least two devices")
    train_sets = [[t] if isinstance(t, str) else t for t in train]
    _distinct(["+".join(sorted(set(t))) for t in train_sets], "train_receivers")
    _distinct(test, "test_receivers")
    _distinct(top["snr_db"], "snr_db")
    _distinct([f"{s:g}" for s in top["snr_db"]], "snr_db")  # the report's keys and labels
    _distinct(top["extractors"], "extractors")
    ids = {r for t in train_sets for r in t} | set(test)
    if ids - set(rx_ids):
        raise ConfigError(f"train or test receivers {sorted(ids - set(rx_ids))} not in receivers")
    if _needs_reference(top["extractors"]) and top["reference_device"] is None:
        raise ConfigError("reference-division extraction needs a reference_device")
    det = top.pop("detection")
    return checked(ExperimentConfig(**top, detection_window=det["window_w"],
                                    detection_multiplier=det["threshold_multiplier"]))


def checked(cfg: ExperimentConfig) -> ExperimentConfig:
    """`cfg`, once its ids are distinct (a device's from the reference's
    too) and its profiles build: an impairment that `DeviceProfile` rejects,
    or one whose transmitter or receiver chain takes the ideal frame to a
    sample or an energy that is not finite, is a ConfigError."""
    try:
        devices, receivers, reference = _profiles(cfg)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad impairment: {exc}") from exc
    _distinct([p.device_id for p in devices + [reference] if p], "devices and reference_device")
    _distinct([p.device_id for p in receivers], "receivers")
    chains = [(p, "transmitter", apply_transmitter) for p in devices + [reference] if p]
    for profile, chain, apply in chains + [(p, "receiver", apply_receiver) for p in receivers]:
        with np.errstate(all="ignore"):
            y = apply(profile, _FRAME).samples
            finite = np.isfinite(np.vdot(y, y))
        if not finite:
            raise ConfigError(f"bad impairment: {profile.device_id}'s {chain} chain takes the "
                              "ideal frame to a sample or an energy that is not finite")
    return cfg


def profile_from_entry(entry: dict, role: str, default_field_distinct: bool) -> DeviceProfile:
    """The profile of a checked entity entry: its seed's draw, with any
    impairment the entry gives over the drawn one."""
    def _as_complex(v):  # a number, or an [re, im] pair
        return complex(*v) if isinstance(v, list) else complex(v)

    explicit = {k: v for k, v in entry.items() if k not in ("id", "seed", "field_distinct")}
    if "dc_offset" in explicit:
        explicit["dc_offset"] = _as_complex(explicit["dc_offset"])
    for key in ("fir_taps", "pa_coeffs"):
        if key in explicit:
            explicit[key] = [_as_complex(v) for v in explicit[key]]
    base = sample_profile(entry.get("seed", 0), role, device_id=entry["id"],
                          field_distinct=entry.get("field_distinct", default_field_distinct))
    return replace(base, **explicit)


def _profiles(cfg: ExperimentConfig):
    """Device, receiver and reference profiles. Where an entry does not say,
    a device is field-distinct and a receiver or the reference is not, and
    the reference's id is "ref"."""
    devices = [profile_from_entry(d, Role.TRANSMITTER, True) for d in cfg.devices]
    receivers = [profile_from_entry(r, Role.RECEIVER, False) for r in cfg.receivers]
    ref = cfg.reference_device and {"id": "ref"} | cfg.reference_device
    return devices, receivers, ref and profile_from_entry(ref, Role.TRANSMITTER, False)


def _channel_params(cfg: ExperimentConfig) -> dict:
    """The scenario's preset (per frame only where it says so) under the
    config's channel keys."""
    return {"per_frame": False} | SCENARIOS[cfg.channel["scenario"]] | cfg.channel


def _draw_channel(cfg: ExperimentConfig, snr_db: float, seed) -> ChannelRealization:
    """The scenario's channel from `seed`: an int, or one generator per row
    of a block of draws (`sample_channel`)."""
    p = _channel_params(cfg)
    if p["kind"] == "flat":
        return sample_channel(ChannelKind.FLAT, snr_db, seed)
    return sample_channel(ChannelKind.SELECTIVE, snr_db, seed, p["n_taps"], p["decay"],
                          p["rice_k_db"])


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
    frames, leads = _receive(_transmit(tx), rx, chan, [np.random.default_rng(noise_seed)],
                             [np.random.default_rng(jitter_seed)])
    return ComplexSignal(frames.samples[0, : frames.lengths[0]]), int(leads[0])


def _seated(rng: np.random.Generator, states):
    """`rng` once per state of `states` (`generator_states`), set to start
    where that seed's `default_rng` starts. Consumers take each row's draws
    before asking for the next row, so one generator serves every row."""
    for state in states:
        rng.bit_generator.state = state
        yield rng


def _capture_blocks(cfg: ExperimentConfig, sent: np.ndarray, rx: DeviceProfile,
                    snr_db: float, seeds: np.ndarray, per_frame: bool, rows: int):
    """The frame engine's one capture loop: captures of the transmitted
    frame `sent` through receiver `rx`, yielded as (first frame index,
    block) for blocks of at most `rows` frames. `seeds` holds each frame's
    channel, noise and jitter seeds, one row per stream (`derive_seeds`).
    Every frame draws its own jitter, noise and, when `per_frame`, channel
    from its own seeds, so blocking changes no sample; otherwise one
    channel, from the first frame's channel seed, serves every frame. One
    generator, set to each seed's starting state in turn, makes every
    draw."""
    n_frames = seeds.shape[1]
    # a static channel needs the first frame's seed, not a state per frame
    states = generator_states(seeds if per_frame else seeds[1:])
    by_stream = [states[i : i + n_frames] for i in range(0, len(states), n_frames)]
    channel, noise, jitter = by_stream if per_frame else [None, *by_stream]
    rng = np.random.default_rng(0)  # every draw comes after a state is set
    static = None if per_frame else _draw_channel(cfg, snr_db, int(seeds[0, 0]))
    for first in range(0, n_frames, rows):
        block = slice(first, first + rows)
        chan = _draw_channel(cfg, snr_db, _seated(rng, channel[block])) if per_frame else static
        yield first, _receive(sent, rx, chan, _seated(rng, noise[block]),
                              _seated(rng, jitter[block]))[0]


def frame_blocks(cfg: ExperimentConfig, sent: np.ndarray, rx: DeviceProfile, snr_db: float,
                 repeat: int, device_idx: int, rx_idx: int, n_frames: int):
    """The captures of one (device, receiver) link (`_capture_blocks`), in
    blocks of at most BLOCK_ROWS frames: frame i draws streams _S_CHANNEL,
    _S_NOISE and _S_JITTER at frame index i, all from one `derive_seeds`
    call, and a static link's channel is frame 0's."""
    seeds = derive_seeds(cfg.master_seed, np.array([[_S_CHANNEL], [_S_NOISE], [_S_JITTER]]),
                         repeat, device_idx, rx_idx, np.arange(n_frames))
    yield from _capture_blocks(cfg, sent, rx, snr_db, seeds, _channel_params(cfg)["per_frame"],
                               BLOCK_ROWS)


def acquire(frames: ComplexSignal | Frames, window_w: int, multiplier: float, fields):
    """The one acquisition step: `synchronize_and_compensate`, with each
    capture's detection threshold set at `multiplier` times its leading
    window's statistic, then the field spectra of `fields`. Returns the
    spectra and each capture's estimated frame start."""
    thr = noise_floor_threshold(frames, window_w, multiplier)
    compensated, sync, _ = synchronize_and_compensate(frames, DetectionConfig(window_w, thr))
    n1 = sync.frame_start_n1
    return {f: field_spectrum(compensated, n1, f) for f in fields}, n1


def acquire_spectra(capture: ComplexSignal | Frames, cfg: ExperimentConfig, fields) -> dict:
    """`acquire` at the config's detection, for a block; one capture (the
    tests' one-frame reference) raises its drop error instead."""
    spectra, _ = acquire(capture, cfg.detection_window, cfg.detection_multiplier, fields)
    # A frame whose field window leaves its capture still stops the run, with
    # the first such row's error; ROADMAP item 3 (detection and sync that
    # hold at low SNR and large CFO) deletes these lines and keeps the drop.
    for exc in Frames.of(capture).drops.errors:
        if isinstance(exc, WindowBoundsError):
            raise exc
    return spectra


def first_model(blocks):
    """The one reference-model rule: the first live row of `blocks` (field
    spectra blocks, as `acquire` gives them) becomes a model, one spectrum
    per field. Returns that model (None when no row is live), the blocks
    read to find it, and the drop causes of the rows before it, counted by
    error type. Blocks after the model's are not read."""
    causes, read = Counter(), 0
    for read, spectra in enumerate(blocks, 1):
        for row, exc in enumerate(next(iter(spectra.values())).drops.errors):
            if exc is None:
                return {f: FieldSpectrum(f, s.bins[row]) for f, s in spectra.items()}, read, causes
            causes[type(exc).__name__] += 1
    return None, read, causes


@dataclass
class ModelCapture:
    """Reference-device spectra captured through one receiver, the attempts
    the capture took, and the low-frequency energy ratio of its L-LTF
    amplitude (`refselect.eta_lf`), which the report's `model_info` lists.
    A link returns the one it divided by (`LinkFeatures.model`)."""

    spectra: dict
    attempts: int
    eta_lf: float


def _capture_model(cfg, sent_ref, rx_profile, rx_idx, repeat, snr_db) -> ModelCapture:
    """Capture the transmitted reference frame `sent_ref` through one
    receiver, a one-row block of the capture loop per attempt, until a
    capture survives acquisition (`first_model`), and score its L-LTF
    amplitude's η_LF. Attempt a draws streams _S_MODEL_CHANNEL and
    _S_MODEL_NOISE at frame 0 and _S_JITTER at frame 999, with a in the
    device slot. The error after the last attempt counts the attempts' drop
    causes."""
    fields = tuple(div.denominator for div in DIVISIONS.values() if div.by_model)
    seeds = derive_seeds(cfg.master_seed,
                         np.array([[_S_MODEL_CHANNEL], [_S_MODEL_NOISE], [_S_JITTER]]), repeat,
                         np.arange(MODEL_CAPTURE_ATTEMPTS), rx_idx, np.array([[0], [0], [999]]))
    blocks = _capture_blocks(cfg, sent_ref, rx_profile, snr_db, seeds, True, 1)
    model, attempts, causes = first_model(acquire_spectra(frames, cfg, fields)
                                          for _, frames in blocks)
    if model is None:
        raise PipelineError(
            f"model capture failed {MODEL_CAPTURE_ATTEMPTS} times on {rx_profile.device_id}: "
            + ", ".join(f"{cause} x{n}" for cause, n in causes.most_common()))
    return ModelCapture(model, attempts, eta_lf(np.abs(model[Field.LLTF].occupied_bins())).eta_lf)


def _extract_all(spectra: dict, extractors, models: dict, rx_ids: list,
                 device_id: str | None) -> dict[str, FeatureVector]:
    """The feature blocks of `spectra`, one per table the `extractors` write
    (`DIVISIONS`). A table divides its numerator spectrum by the frame's own
    denominator spectrum or, by model, row i by `models.get(rx_ids[i])`: the
    field spectra of the reference device captured through the row's
    receiver (one entry of `rx_ids` serves every row). A row whose receiver
    has no model is dropped with `MissingModelError`."""
    tables = tables_of(extractors)
    if any(div.by_model for div in tables.values()):
        rows = [models.get(rx) for rx in rx_ids]
        drops = next(iter(spectra.values())).drops or Drops(1, single=True)
        drops.drop(np.array([m is None for m in rows]), MissingModelError,
                   lambda i: f"no reference model captured through {rx_ids[i % len(rx_ids)]}")
    out = {}
    for table, div in tables.items():
        den = (FieldSpectrum(div.denominator, np.array(
                   [np.zeros(FFT_SIZE) if m is None else m[div.denominator].bins for m in rows]))
               if div.by_model else spectra[div.denominator])
        out[table.value] = divide(table, spectra[div.numerator], den, device_id)
    return out


@dataclass
class ExperimentReport:
    config: dict
    cells: list
    drop_rates: dict
    model_info: dict

    def to_json_doc(self) -> dict:
        return {"format_version": 1, **asdict(self)}


def _config_doc(cfg: ExperimentConfig) -> dict:
    doc = asdict(cfg)
    # Echoed as constants: detection always sums magnitudes and training
    # always takes Adam steps. Report format 2 drops both keys (ROADMAP item 7).
    doc["detection_metric"] = "magnitude"
    doc["classifier"]["optimizer"] = "adam"
    return doc


def _needed_fields(extractors) -> tuple:
    """The preamble fields that the extractors read, in field order."""
    fields = {f for div in tables_of(extractors).values() for f in (div.numerator, div.denominator)}
    return tuple(sorted(fields, key=lambda f: f.value))


@dataclass
class LinkFeatures:
    """One (device, receiver) link's fingerprints: the indices of the frames
    that yielded them, in ascending order, one block FeatureVector per tag
    whose rows follow `frames`, and the dropped frames counted by cause.
    `csv` holds, per tag, the link's feature CSV rows (`format_csv`) when
    the run writes feature tables, until the tables' writer takes them. A
    link of `run_links` keeps in `frames` and `features` only the rows that
    a pool reads; `csv` and `drops` still cover every frame. `model` is the
    ModelCapture the link divided by, None when no table divides by one."""

    frames: np.ndarray
    features: dict
    drops: dict
    csv: dict = field(default_factory=dict)
    model: ModelCapture | None = None

    @property
    def dropped(self) -> int:
        return sum(self.drops.values())

    def format_csv(self, device_id, rx_id, scenario, snr_db, first_trial=0) -> None:
        """Fill `csv`; a frame's trial is `first_trial` plus its index."""
        trials = (first_trial + self.frames).tolist()
        self.csv = {tag: data_io.format_feature_rows(tag, device_id, rx_id, scenario, trials,
                                                     snr_db, fv.values)
                    for tag, fv in self.features.items()}


def _link_records(blocks, n_links: int) -> list[LinkFeatures]:
    """The LinkFeatures of `n_links` links whose frames arrive in blocks
    that may mix links. `blocks` yields, per block, each row's link and
    frame index (-1: the row holds no frame), the block's features
    (`_extract_all`) and its drops; a link's frames arrive in frame order."""
    kept = [[np.zeros(0, dtype=np.int64)] for _ in range(n_links)]
    values, drops, last = [{} for _ in kept], [Counter() for _ in kept], {}
    for link_of, frame_of, feats, block_drops in blocks:
        live = block_drops.live
        for row in np.flatnonzero((frame_of >= 0) & ~live):
            drops[link_of[row]][type(block_drops.errors[row]).__name__] += 1
        for k in set(link_of.tolist()):  # np.unique would import numpy.ma
            mine = live & (link_of == k)
            kept[k].append(frame_of[mine])
            for tag, fv in feats.items():
                values[k].setdefault(tag, []).append(fv.values[mine[fv.rows]])
                last[tag] = fv
    return [LinkFeatures(np.concatenate(frames),
                         {tag: replace(last[tag], values=np.concatenate(v), rows=None)
                          for tag, v in by_tag.items()}, dict(causes))
            for frames, by_tag, causes in zip(kept, values, drops)]


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask); 1 where the
    platform cannot tell or cannot fork."""
    if not (hasattr(os, "sched_getaffinity") and hasattr(os, "fork")):
        return 1
    return len(os.sched_getaffinity(0))


def _failure_record(exc: BaseException, index: int) -> bytes:
    """The pickled (False, exc) of item `index`; an exception that does not
    pickle, or does not unpickle, goes as a PipelineError with its type and
    message."""
    try:
        record = pickle.dumps((False, exc))
        pickle.loads(record)
        return record
    except Exception:
        return pickle.dumps((False, PipelineError(
            f"item {index} raised {type(exc).__name__}, which does not pickle: {exc}")))


def _serve(fn, items, out, first: int, step: int) -> None:
    """A worker's loop: runs `fn` on items first, first + step, ..., in
    order, and writes each outcome to the binary file `out` as one pickle,
    (True, result) or (False, exception). Stops after its first failure."""
    for i in range(first, len(items), step):
        try:
            record, ok = pickle.dumps((True, fn(items[i]))), True
        except BaseException as exc:  # sent to the parent, which raises it
            record, ok = _failure_record(exc, i), False
        out.write(record)
        out.flush()
        if not ok:
            return


def map_ordered(fn, items):
    """`map(fn, items)` over forked worker processes, one per usable CPU and
    at most one per item; yields the results in input order. With one
    worker this is the built-in `map`, in this process.

    The fork hands `fn` and the items to each worker as they are, so only
    the results must pickle (an exception that does not goes as a
    PipelineError, `_failure_record`). Worker w of W runs items
    w, w + W, ... in that order and writes each outcome to a pipe of its
    own as one pickle (`_serve`); the parent reads item i from worker
    i mod W, so results arrive in input order and a worker runs at most a
    pipe buffer ahead. A failing item raises its own exception (the
    earliest failing item's, as the built-in `map` would); a worker that
    ends without an item's whole result raises a PipelineError naming the
    item and its exit status, and a fork that fails raises its OSError. At
    that first failure, or when the generator is closed early, the workers
    still running are killed; every worker is reaped, and every pipe
    closed, before the generator returns or raises. Forked, not spawned: a
    spawned worker would import numpy and rffdiv again (about 0.2 s, a
    quarter of a bench's link work)."""
    items = list(items)
    workers = min(usable_cpus(), len(items))
    if workers <= 1:
        yield from map(fn, items)
        return
    pids, pipes, finished = [], [], False
    try:
        for w in range(workers):
            read_end, write_end = os.pipe()
            pipes.append(os.fdopen(read_end, "rb"))
            try:
                pid = os.fork()
            except OSError:
                os.close(write_end)  # no worker to hand it to
                raise
            if pid == 0:  # the worker; it leaves only through os._exit
                code = 1
                try:
                    for pipe in pipes:  # its own read end and its siblings'
                        pipe.close()
                    with os.fdopen(write_end, "wb") as out:
                        _serve(fn, items, out, w, workers)
                    code = 0
                finally:
                    os._exit(code)
            os.close(write_end)
            pids.append(pid)
        for i in range(len(items)):
            w = i % workers
            try:
                ok, value = pickle.load(pipes[w])
            except (EOFError, pickle.UnpicklingError):  # the pipe ended before a whole record
                status = os.waitpid(pids[w], 0)[1]
                pids[w] = None
                raise PipelineError(f"worker {w} ended without the result of item {i} "
                                    f"(exit status {os.waitstatus_to_exitcode(status)})") from None
            if not ok:
                raise value
            yield value
            del value  # else this frame holds it through the next read
        finished = True
    finally:
        for pid in pids:
            if pid is not None:
                if not finished:
                    os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        for pipe in pipes:
            pipe.close()


def _train_ids(entry) -> set:
    """The receivers of one `train_receivers` entry: an id or a list of ids."""
    return {entry} if isinstance(entry, str) else set(entry)


def _test_start(cfg, frames: np.ndarray) -> int:
    """The row of a link's first test-half frame. `frames` ascend, so the
    training half is the rows before it and the test half the rest."""
    return int(np.searchsorted(frames, cfg.frames_per_device // 2))


def _link_task(cfg, snr_db, repeat, csv, model, link) -> LinkFeatures:
    """One (device, receiver) link through the frame engine, acquired and
    extracted block by block; `link` is (sent, rx profile, device index,
    receiver index, device id). When a table divides by a model, the link
    first takes its receiver's ModelCapture from `model` (receiver index ->
    ModelCapture), divides by its spectra (`_extract_all`) and returns it
    in `LinkFeatures.model`. With `csv` the link's rows are also formatted
    for the feature CSVs (trial `repeat * frames_per_device + frame`), here
    in the worker; without it no row is formatted. After that the link
    keeps only the rows a pool reads (`_pool`): its training half if the
    receiver is in a train set, its test half if it is a test receiver."""
    sent, rx, di, rj, device_id = link
    mc = model(rj) if _needs_reference(cfg.extractors) else None
    models = {} if mc is None else {rx.device_id: mc.spectra}
    fields = _needed_fields(cfg.extractors)
    blocks = frame_blocks(cfg, sent, rx, snr_db, repeat, di, rj, cfg.frames_per_device)
    out = _link_records(((np.zeros(len(frames.lengths), dtype=np.int64),
                          first + np.arange(len(frames.lengths)),
                          _extract_all(acquire_spectra(frames, cfg, fields), cfg.extractors,
                                       models, [rx.device_id], device_id), frames.drops)
                         for first, frames in blocks), 1)[0]
    if csv:
        out.format_csv(device_id, rx.device_id, cfg.channel["scenario"], snr_db,
                       repeat * cfg.frames_per_device)
    cut = _test_start(cfg, out.frames)
    trains = any(rx.device_id in _train_ids(t) for t in cfg.train_receivers)
    rows = slice(0 if trains else cut, None if rx.device_id in cfg.test_receivers else cut)
    return replace(out, frames=out.frames[rows], model=mc, features={
        tag: replace(fv, values=fv.values[rows]) for tag, fv in out.features.items()})


def run_links(cfg: ExperimentConfig, points, write_rows=None):
    """Per (snr, repeat) of `points`, in order: (snr, repeat, links), with
    each (device id, receiver id)'s LinkFeatures, device-major. Profiles
    and transmitted frames are built once, here. Per point the links run on
    every usable CPU (`map_ordered`; on one CPU in this process), so that
    on two or more this process captures, acquires and divides no frame.
    A link captures its receiver's reference model where it runs, through
    a function made per point and cached by receiver index, so a worker
    forked for the point captures each receiver's model at most once. The
    map is read to its end, which reaps its workers before the point is
    yielded. With `write_rows` (`data_io.feature_tables`) each link's CSV
    rows are formatted in its worker and written as it arrives. A link
    keeps only the rows that the config's pools read, while its CSV rows
    and drop counts cover every frame (`_link_task`). A consumer drops its
    references to a point's links before asking for the next, as this
    generator does, so one point's features stay in memory."""
    devices, receivers, reference = _profiles(cfg)
    sent = [_transmit(d) for d in devices]
    sent_ref = None if reference is None else _transmit(reference)
    grid = [(di, dev, rj, rx) for di, dev in enumerate(devices)
            for rj, rx in enumerate(receivers)]
    for snr, repeat in points:
        model = cache(lambda rj: _capture_model(cfg, sent_ref, receivers[rj], rj, repeat, snr))
        results = map_ordered(partial(_link_task, cfg, snr, repeat, write_rows is not None, model),
                              [(sent[di], rx, di, rj, dev.device_id) for di, dev, rj, rx in grid])
        links, models = {}, {}
        for (_, dev, _, rx), link in zip(grid, results, strict=True):
            if write_rows is not None:
                write_rows(link.csv)
                link.csv = {}
            # a receiver's links return equal models; one copy stays in memory
            link.model = models.setdefault(rx.device_id, link.model)
            links[(dev.device_id, rx.device_id)] = link
        yield snr, repeat, links
        del links, link  # the loop's name holds the last link too


def _pool(cfg, links, tags, rx_ids, first_half: bool) -> dict:
    """Per tag, the block FeatureVectors of receivers `rx_ids`, limited to
    each link's first half of frame indices (training) or second half
    (testing). A link's frames ascend, so each half is a slice of its rows
    and the pool's values are views of the link's arrays, not copies."""
    pool = {t: [] for t in tags}
    for (_, rx_id), link in links.items():
        if rx_id in rx_ids:
            cut = _test_start(cfg, link.frames)
            rows = slice(None, cut) if first_half else slice(cut, None)
            for t in tags:
                fv = link.features[t]
                pool[t].append(replace(fv, values=fv.values[rows]))
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
        tags = [table.value for table in tables_of([extractor])]
        for train_entry in cfg.train_receivers:
            train_ids = _train_ids(train_entry)
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
    # read to its end, which reaps the workers before any scoring
    models = iter(list(map_ordered(partial(cl.train, cfg=cfg.classifier), trainings)))
    out = []
    for extractor, train_label, tags, test_pools in cells:
        branch = [next(models) for _ in tags]
        accs = [cl.evaluate_fused(branch, list(zip(*(pool[t] for t in tags))))
                for pool in test_pools]
        out.append((extractor, train_label, accs))
    return out


def run_experiment(cfg: ExperimentConfig, out_dir=None) -> ExperimentReport:
    """Full grid: per (snr, extractor, train set, test receiver) accuracy,
    aggregated as mean and sample std over the repeats. With `out_dir`, the
    feature tables (features_<tag>.csv) are written there as the links
    arrive, in (snr, repeat, device, receiver) order, so only the current
    (snr, repeat)'s features stay in memory; a run that raises leaves no
    table (`data_io.feature_tables`)."""
    cells_acc = {}
    drop_acc = {}
    model_info = {}
    points = [(snr, rep) for snr in cfg.snr_db for rep in range(cfg.repeats)]
    with nullcontext() if out_dir is None else data_io.feature_tables(out_dir) as write_rows:
        for snr, _, links in run_links(cfg, points, write_rows):
            for key, link in links.items():
                drop_acc.setdefault((snr,) + key, []).append(link.dropped / cfg.frames_per_device)
            models = {rx_id: link.model for (_, rx_id), link in links.items() if link.model}
            for rx_id, mc in models.items():
                model_info.setdefault(f"snr{snr:g}/{rx_id}", []).append(
                    {"attempts": mc.attempts, "eta_lf": mc.eta_lf})
            for extractor, train_label, accs in _train_and_score(cfg, links):
                for test_id, acc in zip(cfg.test_receivers, accs):
                    cells_acc.setdefault((snr, extractor, train_label, test_id), []).append(acc)
            del links, link  # freed before the next (snr, repeat)'s links run
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
        model_info={k: v for k, v in sorted(model_info.items())},
    )


def write_report(report: ExperimentReport, out_dir) -> None:
    """report.json plus an accuracy CSV; deterministic bytes for a fixed
    config. The feature tables are written by `run_experiment`."""
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
