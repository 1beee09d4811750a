import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import HTMF_FRAME, acquire, build_capture

import rffdiv
from rffdiv import channel as ch
from rffdiv import harness as hz
from rffdiv import impairments as imp
from rffdiv import preprocess as pp
from rffdiv.features import Field, extract_hl, field_spectrum
from rffdiv.signals import ComplexSignal


def _padded_frame(lead, cfo_hz=0.0, tail=120):
    sig = ComplexSignal(
        np.concatenate([np.zeros(lead, complex), HTMF_FRAME.samples, np.zeros(tail, complex)])
    )
    return pp.apply_cfo(sig, cfo_hz) if cfo_hz else sig


def test_detect_all_zero_not_detected():
    sig = ComplexSignal(np.zeros(4000, complex))
    with pytest.raises(pp.NotDetectedError):
        pp.detect_signal(sig, pp.DetectionConfig(window_w=80, threshold_t=1.0))


def test_detect_window_quantized_start():
    # preamble begins at sample index 1000; windows of 100 -> n0 = 1000
    sig = ComplexSignal(
        np.concatenate([np.zeros(1000, complex), HTMF_FRAME.samples, np.zeros(100, complex)])
    )
    n0 = pp.detect_signal(sig, pp.DetectionConfig(window_w=100, threshold_t=10.0))
    assert n0 == 1000


def test_detect_false_alarm_rate():
    misses = 0
    for seed in range(1000):
        g = np.random.default_rng(seed)
        noise = 0.1 * (g.standard_normal(2000) + 1j * g.standard_normal(2000)) / np.sqrt(2)
        sig = ComplexSignal(noise)
        thr = pp.noise_floor_threshold(sig, 80, 6.0)
        try:
            pp.detect_signal(sig, pp.DetectionConfig(80, thr))
        except pp.NotDetectedError:
            misses += 1
    assert misses >= 990


def test_detect_monotone_in_threshold(rng):
    sig = _padded_frame(400)
    sig = ComplexSignal(sig.samples + 0.01 * rng.standard_normal(len(sig)))
    detected_low = []
    for t in (1.0, 5.0, 20.0, 60.0, 1e6):
        try:
            pp.detect_signal(sig, pp.DetectionConfig(80, t))
            detected_low.append(True)
        except pp.NotDetectedError:
            detected_low.append(False)
    # once lost, never regained as T rises
    assert detected_low == sorted(detected_low, reverse=True)


def test_sync_exact_noiseless():
    for lead in (200, 301, 467):
        sig = _padded_frame(lead)
        n0 = pp.detect_signal(sig, pp.DetectionConfig(80, 1.0))
        sync = pp.synchronize(sig, n0)
        assert sync.frame_start_n1 == lead


def test_sync_shift_equivariance():
    base = 300
    ref = pp.synchronize(_padded_frame(base), 240)
    for z in (3, 17, 40):
        shifted = pp.synchronize(_padded_frame(base + z), 240)
        assert shifted.frame_start_n1 == ref.frame_start_n1 + z


def test_sync_pure_noise_fails(rng):
    noise = ComplexSignal(0.5 * (rng.standard_normal(2000) + 1j * rng.standard_normal(2000)))
    with pytest.raises(pp.SyncFailedError):
        pp.synchronize(noise, 0)


def test_row_medians_match_np_median():
    rng = np.random.default_rng(17)
    for trial in range(3200):
        rows, width = int(rng.integers(1, 6)), int(rng.integers(1, 40))
        block = rng.standard_normal((rows, width)) * 10.0 ** rng.uniform(-3, 3)
        if trial % 3 == 1:
            block = np.round(block)  # ties, and signed zeros
        if trial % 5 == 2:
            block[rng.integers(rows), rng.integers(width)] = np.nan
        expected = [float(v).hex() for v in np.median(block, axis=1)]
        assert [float(v).hex() for v in pp._row_medians(block)] == expected, block


def test_synchronize_leaves_numpy_ma_unimported():
    code = (
        "import sys, numpy as np\n"
        "from rffdiv import preprocess as pp\n"
        "from rffdiv.signals import Frames\n"
        "from rffdiv.waveform import PreambleFormat, PreambleSpec, generate_preamble\n"
        "frame = generate_preamble(PreambleSpec(PreambleFormat.HTMF)).samples\n"
        "block = np.zeros((3, 800), complex)\n"
        "block[0, 200:600] = block[1, 150:550] = frame\n"
        "block[2, :700] = np.exp(0.3j * np.arange(700))\n"
        "sync = pp.synchronize(Frames(block, [800, 800, 700]), [100, 50, 0])\n"
        "assert sync.frame_start_n1[:2].tolist() == [200, 150]\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": str(Path(rffdiv.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode().strip() == "False"


def test_sync_10db_flat_within_one_sample():
    ok = 0
    trials = 150
    for t in range(trials):
        tx = imp.sample_profile(100 + t, imp.Role.TRANSMITTER)
        rx = imp.sample_profile(9000 + t, imp.Role.RECEIVER)
        chan = ch.sample_channel(ch.ChannelKind.FLAT, 10.0, 7000 + t)
        capture, lead = build_capture(tx, rx, chan, noise_seed=t)
        try:
            thr = pp.noise_floor_threshold(capture, 80, 2.0)
            n0 = pp.detect_signal(capture, pp.DetectionConfig(80, thr))
            sync = pp.synchronize(capture, n0)
        except (pp.NotDetectedError, pp.SyncFailedError):
            continue
        if abs(sync.frame_start_n1 - lead) <= 1:
            ok += 1
    assert ok >= 0.95 * trials


def test_cfo_coarse_zero_and_closed_form():
    sig = _padded_frame(64)
    assert abs(pp.estimate_cfo_coarse(sig, 64)) < 1e-6
    rotated = _padded_frame(64, cfo_hz=150e3)
    assert abs(pp.estimate_cfo_coarse(rotated, 64) - 150e3) < 1.0


def test_cfo_coarse_range_and_failure():
    with pytest.raises(pp.EstimationFailedError):
        pp.estimate_cfo_coarse(ComplexSignal(np.zeros(400, complex)), 0)
    with pytest.raises(pp.EstimationFailedError):
        pp.estimate_cfo_coarse(_padded_frame(0), 400)  # window escapes signal


def test_cfo_fine_residual_closed_form():
    sig = _padded_frame(64, cfo_hz=5e3)
    assert abs(pp.estimate_cfo_fine(sig, 64) - 5e3) < 0.1
    clean = _padded_frame(64)
    assert abs(pp.estimate_cfo_fine(clean, 64)) < 1e-6


def test_cfo_unbiased_noiseless(rng):
    errs = []
    for _ in range(300):
        f = rng.uniform(-150e3, 150e3)
        sig = _padded_frame(64, cfo_hz=f)
        coarse = pp.estimate_cfo_coarse(sig, 64)
        fine = pp.estimate_cfo_fine(pp.compensate_cfo(sig, coarse), 64)
        errs.append(coarse + fine - f)
    assert abs(np.mean(errs)) < 1.0
    assert np.abs(errs).max() < 1.0


def test_cfo_chain_20db_rms(rng):
    errs = []
    for t in range(200):
        f = rng.uniform(-150e3, 150e3)
        chan = ch.ChannelRealization(ch.ChannelKind.FLAT, alpha=1.0 + 0j, snr_db=20.0, seed=t)
        tx = imp.DeviceProfile("t", cfo_hz=f)
        capture, lead = build_capture(tx, imp.identity_profile(), chan, noise_seed=t)
        coarse = pp.estimate_cfo_coarse(capture, lead)
        fine = pp.estimate_cfo_fine(pp.compensate_cfo(capture, coarse), lead)
        errs.append(coarse + fine - f)
    rms = float(np.sqrt(np.mean(np.square(errs))))
    assert rms < 1e3


@settings(max_examples=30, deadline=None)
@given(f=st.floats(min_value=-2e5, max_value=2e5))
def test_compensate_inverts_apply(f):
    sig = _padded_frame(32)
    back = pp.compensate_cfo(pp.apply_cfo(sig, f), f)
    assert np.abs(back.samples - sig.samples).max() < 1e-9


def test_compensate_zero_is_identity():
    sig = _padded_frame(10)
    assert pp.compensate_cfo(sig, 0.0) is sig


def test_wrong_sign_compensation_doubles_rotation():
    f = 75e3
    sig = _padded_frame(0, cfo_hz=f)
    wrong = pp.compensate_cfo(sig, -f)
    expected = pp.apply_cfo(_padded_frame(0), 2 * f)
    assert np.abs(wrong.samples - expected.samples).max() < 1e-9


def test_full_acquisition_noiseless_profiles(flat_identity):
    for t in range(20):
        tx = imp.sample_profile(100 + t, imp.Role.TRANSMITTER)
        rx = imp.sample_profile(9000 + t, imp.Role.RECEIVER)
        capture, lead = build_capture(tx, rx, flat_identity)
        compensated, sync, est = acquire(capture)
        assert sync.frame_start_n1 == lead
        # residual offset after both stages stays small even with DC bias
        assert abs(est.total_hz - (tx.cfo_hz - rx.cfo_hz)) < 1e3


def test_detection_config_validation():
    with pytest.raises(ValueError):
        pp.DetectionConfig(window_w=8, threshold_t=1.0)
    with pytest.raises(ValueError):
        pp.DetectionConfig(window_w=80, threshold_t=0.0)


_TX = imp.sample_profile(11, imp.Role.TRANSMITTER, field_distinct=True, device_id="dev")


def _synced_hl(chan, seed):
    """Sync error in samples (against the simulator's true frame start) and
    HL vector of one noise-free frame through an identity receiver."""
    capture, start = hz.simulate_capture(_TX, imp.identity_profile(), chan, seed, seed)
    compensated, sync, _ = acquire(capture)
    spectra = {f: field_spectrum(compensated, sync.frame_start_n1, f)
               for f in (Field.LLTF, Field.HTLTF)}
    hl = extract_hl(spectra[Field.LLTF], spectra[Field.HTLTF])
    return sync.frame_start_n1 - start, hl.values


_LATE_TAP = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 1b (first-path sync): in nlos, sync locks onto a later "
                        "channel tap, and 24 of these 40 frames sync 1-6 samples late")


@pytest.mark.parametrize("scenario", ["los", "corridor", pytest.param("nlos", marks=_LATE_TAP)])
def test_selective_channel_sync_meets_ground_truth(scenario):
    # a frame that syncs at its true start has the flat channel's HL vector
    _, flat = _synced_hl(ch.ChannelRealization(ch.ChannelKind.FLAT, alpha=1.0 + 0j), 0)
    preset = {k: v for k, v in hz.SCENARIOS[scenario].items() if k not in ("kind", "per_frame")}
    wrong = []
    for seed in range(40, 80):
        chan = ch.sample_channel(ch.ChannelKind.SELECTIVE, np.inf, seed, **preset)
        error, hl = _synced_hl(chan, seed)
        distance = np.abs(hl - flat).max()
        if error != 0 or distance > 1e-6:
            wrong.append((seed, error, round(float(distance), 3)))
    assert not wrong, f"{len(wrong)} of 40 frames: (seed, sync error, HL distance) {wrong}"


_ALIAS = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 3 (coarse CFO before sync): sync cross-correlates before "
                        "any CFO is removed, and past about 95 kHz every frame locks onto an alias")


@pytest.mark.parametrize("cfo_hz", [0.0, 50e3, -50e3, *(pytest.param(f, marks=_ALIAS) for f in
                                                        (100e3, -100e3, 150e3, 230e3, -230e3))])
def test_flat_channel_acquisition_meets_ground_truth(cfo_hz):
    # every frame syncs at its true start, or is dropped with a named cause
    tx = imp.DeviceProfile("t", cfo_hz=cfo_hz)
    wrong = []
    for k in range(40):
        chan = ch.ChannelRealization(ch.ChannelKind.FLAT, alpha=1.0 + 0j, snr_db=30.0, seed=k)
        capture, start = hz.simulate_capture(tx, imp.identity_profile(), chan, 1000 + k, 2000 + k)
        try:
            _, sync, _ = acquire(capture)
        except (pp.NotDetectedError, pp.SyncFailedError, pp.EstimationFailedError):
            continue
        if sync.frame_start_n1 != start:
            wrong.append((k, sync.frame_start_n1 - start))
    assert not wrong, f"{len(wrong)} of 40 frames silently wrong: (k, sync error) {wrong}"
