"""The seed scheme computed per link gives what NumPy's own `SeedSequence`
and `default_rng` give one draw at a time; these oracles keep the engine's
one-row reference in `test_engine.py` independent of the shared hash."""

import numpy as np
import pytest

from rffdiv import channel as ch
from rffdiv import harness as hz
from rffdiv import impairments as imp
from rffdiv.signals import ComplexSignal

MASTERS = [0, 1, 2026, 2**32 - 1, 2**32, 2**32 + 7, 2**64 + 3]


def _seed(*entropy) -> int:
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


@pytest.mark.parametrize("master", MASTERS)
def test_derive_seeds_equals_seed_sequence(master):
    rng = np.random.default_rng(master % 1000)
    for _ in range(40):
        rest = [int(v) for v in rng.integers(0, 2**32, 5)]
        assert hz.derive_seed(master, *rest) == _seed(master, *rest)
    streams, frames = np.array([[1], [2], [3]]), np.arange(50)
    seeds = hz.derive_seeds(master, streams, 4, 2, 1, frames)
    assert seeds.shape == (3, 50) and seeds.dtype == np.uint32
    expected = [[_seed(master, s, 4, 2, 1, f) for f in range(50)] for s in (1, 2, 3)]
    assert seeds.tolist() == expected


def test_derive_seeds_splits_large_entries_like_numpy():
    for entropy in [(0, 0, 0, 0, 0, 0), (2**40 + 9, 1, 2**33, 0, 2**32 - 1, 3),
                    (5, 2**64 + 1, 0, 0, 0, 2**32)]:
        assert hz.derive_seed(*entropy) == _seed(*entropy)
    with pytest.raises(ValueError, match="non-negative"):
        hz.derive_seed(-1, 1)
    with pytest.raises(ValueError):
        hz.derive_seeds(1, 1, 0, 0, 0, np.array([0, 2**32]))


def test_generator_states_equal_default_rng():
    seeds = [0, 1, 7, 2**31, 2**32 - 1] + np.random.default_rng(3).integers(
        0, 2**32, 40).tolist()
    rng = np.random.default_rng(99)
    for seed, state in zip(seeds, hz.generator_states(np.array(seeds, dtype=np.uint32))):
        reference = np.random.default_rng(seed)
        assert state == reference.bit_generator.state
        rng.bit_generator.state = state
        assert np.array_equal(rng.standard_normal(9), reference.standard_normal(9))
        assert np.array_equal(rng.integers(0, 41, 5), reference.integers(0, 41, 5))
        assert rng.uniform(-np.pi, np.pi) == reference.uniform(-np.pi, np.pi)


def _config(master, scenario, per_frame):
    return hz.load_config({
        "master_seed": master,
        "devices": {"count": 2, "base_seed": 100, "field_distinct": True},
        "receivers": {"count": 2, "base_seed": 900},
        "extractors": ["HL"],
        "channel": {"scenario": scenario, "per_frame": per_frame},
        "snr_db": 20.0,
        "frames_per_device": 20,
    })


def _reference_link(cfg, sent, rx, snr_db, repeat, di, rj, n_frames, per_frame):
    """Each frame's capture one at a time, from NumPy's seeding: the link's
    channel (seed of frame 0) or the frame's own, then jitter, channel with
    noise, receiver."""
    def seed(stream, frame=0):
        return _seed(cfg.master_seed, stream, repeat, di, rj, frame)

    link_channel = hz._draw_channel(cfg, snr_db, seed(hz._S_CHANNEL))
    captures = []
    for fi in range(n_frames):
        chan = hz._draw_channel(cfg, snr_db, seed(hz._S_CHANNEL, fi)) if per_frame else link_channel
        jitter = np.random.default_rng(seed(hz._S_JITTER, fi)).integers(0, hz.MAX_JITTER + 1)
        lead = hz.LEAD_PAD + int(jitter)
        padded = np.zeros(lead + sent.size + hz.TAIL_PAD, dtype=np.complex128)
        padded[lead : lead + sent.size] = sent
        y = ch.apply_channel(chan, ComplexSignal(padded),
                             noise_rng=np.random.default_rng(seed(hz._S_NOISE, fi)))
        captures.append(imp.apply_receiver(rx, y).samples)
    return captures


# Blocks of 20 frames or fewer stay under the 256 KiB from which numpy
# elides temporaries (see harness.BLOCK_ROWS), so 60 rows means one block.
@pytest.mark.parametrize("block_rows", [1, 16, 60])
@pytest.mark.parametrize("scenario, per_frame", [
    ("flat", False), ("flat", True), ("mobile", True), ("los", True)])
@pytest.mark.parametrize("master", [11, 2**32 + 11])
def test_frame_blocks_match_numpy_seeded_frames(monkeypatch, block_rows, scenario, per_frame,
                                                master):
    monkeypatch.setattr(hz, "BLOCK_ROWS", block_rows)
    cfg = _config(master, scenario, per_frame)
    devices, receivers, _ = hz._profiles(cfg)
    sent = hz._transmit(devices[1])
    expected = _reference_link(cfg, sent, receivers[0], 20.0, 2, 1, 0, 20, per_frame)
    firsts, got = [], []
    for first, frames in hz.frame_blocks(cfg, sent, receivers[0], 20.0, 2, 1, 0, 20):
        assert len(frames.lengths) == min(block_rows, 20 - first)
        firsts.append(first)
        got += [frames.samples[i, :n] for i, n in enumerate(frames.lengths)]
    assert firsts == list(range(0, 20, block_rows))
    assert len(got) == len(expected) == 20
    for fi, (a, b) in enumerate(zip(got, expected)):
        assert np.array_equal(a, b), fi
