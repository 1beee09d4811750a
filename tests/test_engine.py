"""The frame engine: blocks of frames give exactly what one-frame calls of
the same stages give."""

import json

import numpy as np
import pytest

from rffdiv import channel as ch
from rffdiv import features as ft
from rffdiv import harness as hz
from rffdiv import impairments as imp
from rffdiv import preprocess as pp
from rffdiv.cli import main
from rffdiv.features import Field
from rffdiv.signals import ComplexSignal, Frames
from rffdiv.waveform import WindowBoundsError

# The errors a one-capture stage call raises for a frame the engine drops.
_DROP_ERRORS = (pp.NotDetectedError, pp.SyncFailedError, pp.EstimationFailedError,
                ft.DegenerateDenominatorError, ft.DegenerateModelError)


def _doc(scenario, **overrides):
    doc = {
        "master_seed": 5,
        "devices": {"count": 2, "base_seed": 100, "field_distinct": True},
        "receivers": {"count": 2, "base_seed": 900},
        "reference_device": {"id": "ref", "seed": 55},
        "extractors": ["RD", "HL", "DV"],
        "channel": {"scenario": scenario},
        "snr_db": 30.0,
        "frames_per_device": 20,  # more than one block per link
        "repeats": 1,
        "train_receivers": ["rx00"],
        "test_receivers": ["rx01"],
        "classifier": {"epochs": 5, "seed": 3},
    }
    doc.update(overrides)
    return doc


def _one_row(cfg, spectra_fn, model, rx_id, dev_id):
    """Drop cause (or None) and features of one frame, one call at a time."""
    try:
        feats = hz._extract_all(spectra_fn(), cfg.extractors, [model], [rx_id], dev_id)
    except _DROP_ERRORS as exc:
        return type(exc).__name__, None
    return None, feats


@pytest.mark.parametrize("scenario", ["flat", "mobile"])
def test_engine_matches_one_row_calls(scenario):
    assert hz.BLOCK_ROWS < 20
    cfg = hz.load_config(_doc(scenario))
    devices, receivers, reference = hz._profiles(cfg)
    per_frame = hz._channel_params(cfg)["per_frame"]
    assert per_frame == (scenario == "mobile")
    sent_devices, sent_ref = hz._transmit_all(devices, reference)
    models = hz._capture_models(cfg, receivers, sent_ref, 0, 30.0)
    links = hz._run_links(cfg, devices, receivers, sent_devices, models, 30.0, 0)
    fields = hz._needed_fields(cfg.extractors)
    for di, dev in enumerate(devices):
        for rj, rx in enumerate(receivers):
            link_seed = hz.derive_seed(cfg.master_seed, hz._S_CHANNEL, 0, di, rj)
            link_chan = hz._draw_channel(cfg, 30.0, link_seed)
            kept, drops, values = [], {}, {}
            for fi in range(cfg.frames_per_device):
                chan = (hz._draw_channel(cfg, 30.0, hz.derive_seed(
                    cfg.master_seed, hz._S_CHANNEL, 0, di, rj, fi)) if per_frame else link_chan)
                capture, _ = hz.simulate_capture(
                    dev, rx, chan,
                    hz.derive_seed(cfg.master_seed, hz._S_NOISE, 0, di, rj, fi),
                    hz.derive_seed(cfg.master_seed, hz._S_JITTER, 0, di, rj, fi),
                )
                cause, feats = _one_row(cfg, lambda: hz.acquire_spectra(capture, cfg, fields),
                                        models[rx.device_id], rx.device_id, dev.device_id)
                if cause:
                    drops[cause] = drops.get(cause, 0) + 1
                    continue
                kept.append(fi)
                for tag, fv in feats.items():
                    values.setdefault(tag, []).append(fv.values)
            link = links[(dev.device_id, rx.device_id)]
            assert link.drops == drops
            assert np.array_equal(link.frames, kept)
            assert set(link.features) == set(values) == {"RD_STF", "RD_LTF", "HL", "DV"}
            for tag, rows in values.items():
                assert np.array_equal(link.features[tag].values, np.array(rows)), tag


def test_block_records_each_rows_first_failure():
    cfg = hz.load_config(_doc("flat", snr_db=float("inf")))
    fields = hz._needed_fields(cfg.extractors)
    rx = imp.sample_profile(900, imp.Role.RECEIVER, device_id="rx00")
    dev = imp.sample_profile(100, imp.Role.TRANSMITTER, field_distinct=True)
    # a zero-forcing tap pair nulls occupied tone 5: degenerate denominators
    notch = imp.linear_profile("notch", [1.0, -np.exp(2j * np.pi * 5 / 64)])
    flat = ch.ChannelRealization(ch.ChannelKind.FLAT, alpha=0.8 + 0.3j)
    noisy = ch.ChannelRealization(ch.ChannelKind.FLAT, alpha=0.8 + 0.3j, snr_db=25.0)
    ref, _ = hz.simulate_capture(imp.sample_profile(55, imp.Role.TRANSMITTER), rx, flat, 1, 2)
    spectra = hz.acquire_spectra(ref, cfg, (Field.LSTF, Field.LLTF))
    model = hz.ModelCapture("rx00", spectra, 1)

    rng = np.random.default_rng(3)
    sent = hz._transmit(dev)
    no_stf = sent.copy()
    no_stf[:160] = 0.0  # nothing for the coarse estimate: EstimationFailed
    noise = np.concatenate([0.01 * rng.standard_normal(300), rng.standard_normal(500)])
    rows = [
        hz.simulate_capture(dev, rx, noisy, 7, 8)[0].samples,
        np.zeros(700, dtype=complex),  # NotDetected
        noise.astype(complex),  # SyncFailed
        np.concatenate([np.zeros(300), no_stf, np.zeros(100)]),
        hz.simulate_capture(notch, imp.identity_profile(), flat, 9, 10)[0].samples,
        hz.simulate_capture(dev, rx, noisy, 11, 12)[0].samples,
    ]
    lengths = [r.size for r in rows]
    block = np.zeros((len(rows), max(lengths)), dtype=complex)
    for i, r in enumerate(rows):
        block[i, : r.size] = r
    frames = Frames(block, lengths)
    feats = hz._extract_all(hz.acquire_spectra(frames, cfg, fields), cfg.extractors, [model],
                            ["rx00"], "dev00")
    causes = [None if e is None else type(e).__name__ for e in frames.drops.errors]
    expected = []
    for r in rows:
        capture = ComplexSignal(r)
        cause, one = _one_row(cfg, lambda: hz.acquire_spectra(capture, cfg, fields), model,
                              "rx00", "dev00")
        expected.append(cause)
        if one is not None:
            i = len(expected) - 1
            for tag, fv in feats.items():
                assert np.array_equal(fv.values[list(fv.rows).index(i)], one[tag].values)
    assert causes == expected == [None, "NotDetectedError", "SyncFailedError",
                                  "EstimationFailedError", "DegenerateDenominatorError", None]


def test_window_bounds_error_escapes_a_block():
    cfg = hz.load_config(_doc("flat", snr_db=float("inf")))
    rx = imp.sample_profile(900, imp.Role.RECEIVER)
    flat = ch.ChannelRealization(ch.ChannelKind.FLAT, alpha=1.0 + 0j)
    good = hz.simulate_capture(imp.identity_profile(), rx, flat, 1, 2)[0].samples
    short = good[: good.size - 200]  # the HT long training field runs past the end
    block = np.zeros((2, good.size), dtype=complex)
    block[0], block[1, : short.size] = good, short
    frames = Frames(block, [good.size, short.size])
    with pytest.raises(WindowBoundsError, match="HTLTF1"):
        hz.acquire_spectra(frames, cfg, (Field.HTLTF, Field.LLTF))


def test_transmitter_runs_once_per_device(monkeypatch):
    calls = []
    original = hz.apply_transmitter

    def counting(profile, frame):
        calls.append(profile.device_id)
        return original(profile, frame)

    monkeypatch.setattr(hz, "apply_transmitter", counting)
    cfg = hz.load_config(_doc("flat", snr_db=[25.0, 30.0], repeats=2, frames_per_device=4))
    hz.run_experiment(cfg)
    assert sorted(calls) == ["dev00", "dev01", "ref"]


@pytest.mark.parametrize("divider", ["extract_rd", "extract_hl", "extract_dv"])
def test_plain_value_error_in_extraction_propagates(monkeypatch, divider):
    # the harness calls each divider through its module binding, which the
    # benchmark's tracer and scripts/bench_layers.py wrap
    def broken(*args, **kwargs):
        raise ValueError("shape bug")

    monkeypatch.setattr(hz, divider, broken)
    cfg = hz.load_config(_doc("flat", frames_per_device=4))
    with pytest.raises(ValueError, match="shape bug"):
        hz.run_experiment(cfg)


def _model_one_frame(cfg, reference, rx, rx_idx, snr_db):
    """Single-capture reference for `_capture_model`: each attempt is one
    capture through the one-capture stage calls, whose drop error ends the
    attempt. Returns the spectra (None if every attempt failed), the
    attempts made and each failed attempt's cause."""
    causes = []
    for attempt in range(hz.MODEL_CAPTURE_ATTEMPTS):
        chan = hz._draw_channel(cfg, snr_db, hz.derive_seed(
            cfg.master_seed, hz._S_MODEL_CHANNEL, 0, attempt, rx_idx))
        capture, _ = hz.simulate_capture(
            reference, rx, chan,
            hz.derive_seed(cfg.master_seed, hz._S_MODEL_NOISE, 0, attempt, rx_idx),
            hz.derive_seed(cfg.master_seed, hz._S_JITTER, 0, attempt, rx_idx, 999),
        )
        try:
            return hz.acquire_spectra(capture, cfg, (Field.LSTF, Field.LLTF)), attempt + 1, causes
        except _DROP_ERRORS as exc:
            causes.append(type(exc).__name__)
    return None, hz.MODEL_CAPTURE_ATTEMPTS, causes


def test_model_capture_matches_one_capture_attempts():
    # at 14-15 dB a model capture takes 1 to 5 attempts or fails all 8
    attempts = []
    for seed, snr in [(1, 15.0), (3, 15.0), (4, 15.0), (1, 14.0), (3, 14.0)]:
        cfg = hz.load_config(_doc("flat", master_seed=seed, snr_db=snr))
        _, receivers, reference = hz._profiles(cfg)
        sent_ref = hz._transmit(reference)
        for rj, rx in enumerate(receivers):
            spectra, n, _ = _model_one_frame(cfg, reference, rx, rj, snr)
            attempts.append(n if spectra is not None else None)
            if spectra is None:
                with pytest.raises(hz.PipelineError, match="model capture failed"):
                    hz._capture_model(cfg, sent_ref, rx, rj, 0, snr)
                continue
            model = hz._capture_model(cfg, sent_ref, rx, rj, 0, snr)
            assert model.receiver_id == rx.device_id
            assert model.attempts == n
            assert set(model.spectra) == set(spectra)
            for f, s in spectra.items():
                assert np.array_equal(model.spectra[f].bins, s.bins), f
    assert None in attempts and max(n for n in attempts if n) > 2


def test_failed_model_capture_counts_its_causes():
    # every reference capture at 12 dB goes undetected by the 6x threshold
    cfg = hz.load_config(_doc("flat", master_seed=1, snr_db=12.0))
    _, receivers, reference = hz._profiles(cfg)
    spectra, _, causes = _model_one_frame(cfg, reference, receivers[0], 0, 12.0)
    assert spectra is None and causes == ["NotDetectedError"] * hz.MODEL_CAPTURE_ATTEMPTS
    with pytest.raises(hz.PipelineError,
                       match=r"^model capture failed 8 times on rx00: NotDetectedError x8$"):
        hz._capture_model(cfg, hz._transmit(reference), receivers[0], 0, 0, 12.0)


def test_run_paths_hand_the_stages_only_blocks(monkeypatch, tmp_path):
    kinds = set()
    of = Frames.of.__func__

    def recording(cls, y):
        kinds.add(type(y).__name__)
        return of(cls, y)

    monkeypatch.setattr(Frames, "of", classmethod(recording))
    monkeypatch.setattr(hz, "usable_cpus", lambda: 1)  # every stage runs in this process
    doc = _doc("flat", frames_per_device=4)
    hz.run_experiment(hz.load_config(doc))
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(config), "--out-dir", str(tmp_path / "iq")]) == 0
    assert main(["extract", "--manifest", str(tmp_path / "iq"),
                 "--out-dir", str(tmp_path / "features")]) == 0
    assert kinds == {"Frames"}
