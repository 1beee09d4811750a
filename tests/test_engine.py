"""The frame engine: blocks of frames give exactly what one-frame calls of
the same stages give."""

import numpy as np
import pytest

from rffdiv import channel as ch
from rffdiv import harness as hz
from rffdiv import impairments as imp
from rffdiv.features import Field
from rffdiv.signals import ComplexSignal, Frames
from rffdiv.waveform import WindowBoundsError


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
        feats = hz._extract_all(spectra_fn(), cfg.extractors, model, rx_id, dev_id)
    except hz._DROP_ERRORS as exc:
        return type(exc).__name__, None
    return None, feats


@pytest.mark.parametrize("scenario", ["flat", "mobile"])
def test_engine_matches_one_row_calls(scenario):
    assert hz.BLOCK_ROWS < 20
    cfg = hz.load_config(_doc(scenario))
    devices, receivers, reference = hz._profiles(cfg)
    links, models = hz._simulate_cells(
        cfg, devices, receivers, hz._transmit_all(devices, reference), 30.0, 0)
    fields = hz._needed_fields(cfg.extractors)
    per_frame = hz._channel_per_frame(cfg)
    assert per_frame == (scenario == "mobile")
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
    ref, _ = hz._capture(hz._transmit(imp.sample_profile(55, imp.Role.TRANSMITTER)), rx, flat, 1, 2)
    spectra = hz.acquire_spectra(ref, cfg, (Field.LSTF, Field.LLTF))
    model = hz.ModelCapture("rx00", spectra, 1)

    rng = np.random.default_rng(3)
    sent = hz._transmit(dev)
    no_stf = sent.copy()
    no_stf[:160] = 0.0  # nothing for the coarse estimate: EstimationFailed
    noise = np.concatenate([0.01 * rng.standard_normal(300), rng.standard_normal(500)])
    rows = [
        hz._capture(sent, rx, noisy, 7, 8)[0].samples,
        np.zeros(700, dtype=complex),  # NotDetected
        noise.astype(complex),  # SyncFailed
        np.concatenate([np.zeros(300), no_stf, np.zeros(100)]),
        hz._capture(hz._transmit(notch), imp.identity_profile(), flat, 9, 10)[0].samples,
        hz._capture(sent, rx, noisy, 11, 12)[0].samples,
    ]
    lengths = [r.size for r in rows]
    block = np.zeros((len(rows), max(lengths)), dtype=complex)
    for i, r in enumerate(rows):
        block[i, : r.size] = r
    frames = Frames(block, lengths)
    feats = hz._extract_all(hz.acquire_spectra(frames, cfg, fields), cfg.extractors, model,
                            "rx00", "dev00")
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
    good = hz._capture(hz._transmit(imp.identity_profile()), rx, flat, 1, 2)[0].samples
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


def test_plain_value_error_in_extraction_propagates(monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("shape bug")

    monkeypatch.setattr(hz, "extract_hl", broken)
    cfg = hz.load_config(_doc("flat", frames_per_device=4))
    with pytest.raises(ValueError, match="shape bug"):
        hz.run_experiment(cfg)
