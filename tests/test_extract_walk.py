"""`extract` walks its capture files in lock-step, one block row per file;
file by file, that gives what walking each file alone, one frame at a
time, gives."""

import numpy as np
import pytest

from rffdiv import data_io
from rffdiv import harness as hz
from rffdiv import preprocess as pp
from rffdiv.cli import _extract_group, _walk_captures
from rffdiv.features import (DegenerateDenominatorError, DegenerateModelError, Field,
                             FieldSpectrum, field_spectrum)
from rffdiv.signals import ComplexSignal
from rffdiv.waveform import FFT_SIZE, FIELD_WINDOWS, WINDOWS, WindowBoundsError

FIELDS = (Field.HTLTF, Field.LLTF, Field.LSTF)
DETECTION = (80, 6.0)  # (window_w, threshold_multiplier), the defaults


def _walk_one(signal, detection, fields):
    """Reference: one capture file walked alone through one-capture stage
    calls. Yields (frame_index, spectra | None); None marks a detected but
    unusable frame. A frame whose last field window runs past its segment,
    in a file with more samples, is walked again from a segment starting
    two detection windows before it; a frame that the file's end cuts off
    is unusable."""
    window_w, multiplier = detection
    pos = 0
    idx = 0
    segment_len = 1100
    n = len(signal)
    frame_end = max(WINDOWS[name].start_index - 1 + FFT_SIZE
                    for f in fields for name in FIELD_WINDOWS[f])
    while pos + 500 <= n:
        seg = ComplexSignal(signal.samples[pos : pos + segment_len])
        thr = pp.noise_floor_threshold(seg, window_w, multiplier)
        det = pp.DetectionConfig(window_w, thr)
        try:
            compensated, sync, _ = pp.synchronize_and_compensate(seg, det)
            if sync.frame_start_n1 + frame_end > len(seg):
                if pos + len(seg) < n:
                    pos += max(sync.frame_start_n1 - 2 * window_w, 1)
                    continue
                raise WindowBoundsError("frame runs past the end of its file")
            spectra = {f: field_spectrum(compensated, sync.frame_start_n1, f) for f in fields}
        except pp.NotDetectedError:
            pos += segment_len - window_w
            continue
        except (pp.SyncFailedError, pp.EstimationFailedError, WindowBoundsError):
            yield idx, None
            idx += 1
            pos += 500
            continue
        yield idx, spectra
        idx += 1
        pos += sync.frame_start_n1 + 420


@pytest.fixture(scope="module")
def frames():
    """24 captures of one frame each (776 to 816 samples) and the frame
    start in each."""
    cfg = hz.load_config({
        "master_seed": 3, "devices": {"count": 2, "base_seed": 100},
        "receivers": {"count": 1, "base_seed": 900}, "extractors": ["HL"],
        "channel": {"scenario": "flat"}, "snr_db": 30.0, "frames_per_device": 24,
        "train_receivers": ["rx00"], "test_receivers": ["rx00"],
    })
    devices, receivers, _ = hz._profiles(cfg)
    chan = hz._draw_channel(cfg, 30.0, 1)
    block, leads = hz._receive(hz._transmit(devices[0]), receivers[0], chan,
                               [np.random.default_rng(100 + i) for i in range(24)],
                               [np.random.default_rng(200 + i) for i in range(24)])
    return [block.samples[i, :n] for i, n in enumerate(block.lengths)], leads


def _quiet(frames, n):
    """`n` samples of receiver noise: the signal-free lead gaps of the frames."""
    return np.concatenate([f[:250] for f in frames])[:n]


def _tone(frames, n):
    """`n` samples of a strong tone over receiver noise: detected, but its
    correlation with the long training symbols has no peak (sync fails)."""
    return 0.5 * np.exp(2j * np.pi * 0.055 * np.arange(n)) + _quiet(frames[5:], n)


def _write(tmp_path, name, pieces):
    path = tmp_path / f"{name}.iq"
    data_io.write_iq(path, ComplexSignal(np.concatenate(pieces)))
    return path


def _lockstep(paths, until_acquired=False):
    """Each file's (frame_index, spectra | None) in the order the lock-step
    walk yields them, and the number of rows that detected nothing."""
    out = {p: [] for p in paths}
    skipped = 0
    readers = [data_io.IqReader(p) for p in paths]
    try:
        for step in _walk_captures(readers, DETECTION, FIELDS, until_acquired):
            for row, reader_idx in enumerate(step.captures):
                if step.frame_index[row] < 0:
                    skipped += 1
                    continue
                spectra = ({f: s.bins[row] for f, s in step.spectra.items()}
                           if step.spectra[FIELDS[0]].drops.live[row] else None)
                out[paths[reader_idx]].append((int(step.frame_index[row]), spectra))
    finally:
        for r in readers:
            r.close()
    return out, skipped


def _reference(path, until_acquired=False):
    out = []
    for idx, spectra in _walk_one(data_io.read_iq(path), DETECTION, FIELDS):
        out.append((idx, None if spectra is None else {f: s.bins for f, s in spectra.items()}))
        if until_acquired and spectra is not None:
            break
    return out


def _assert_same(got, want):
    assert [idx for idx, _ in got] == [idx for idx, _ in want]
    for (idx, a), (_, b) in zip(got, want):
        assert (a is None) == (b is None), idx
        if a is not None:
            for f in FIELDS:
                assert np.array_equal(a[f], b[f]), (idx, f)


def test_lockstep_walk_matches_walking_each_file_alone(frames, tmp_path):
    f, leads = frames
    # A frame acquired at n1 moves the walk to n1 + 420, 100 samples before
    # the end of its capture; the quiet gaps below put the next frame early
    # in a segment after the skips, where its preamble fits.
    files = {
        "skip": [f[0], _quiet(f, 1960), f[1], f[2]],  # two segments with no frame
        "fail": [f[3], _quiet(f, 300), _tone(f, 700), _quiet(f, 440), f[4], f[5]],
        "quiet_tail": [f[6], f[7], _quiet(f, 600)],  # a short last segment, empty
        "long": f[8:16],
        "one": [f[16]],
        # a frame's preamble after 100 and 99 quiet samples: walked, not walked
        "edge_500": [f[17][leads[17] - 100 : leads[17] + 400]],
        "edge_499": [f[18][leads[18] - 99 : leads[18] + 400]],
    }
    for k in range(10):  # 17 files, so 16 rows of 1100 samples walk at once
        files[f"mix{k}"] = [_quiet(f, 37 * k + 1)] + f[k : k + 1 + k % 4]
    paths = [_write(tmp_path, name, pieces) for name, pieces in files.items()]
    got, skipped = _lockstep(paths)
    assert skipped > 0
    for path in paths:
        _assert_same(got[path], _reference(path))
    outcomes = {name: [s is None for _, s in got[path]] for name, path in zip(files, paths)}
    assert outcomes["skip"] == [False] * 3
    assert outcomes["fail"] == [False, True, False, False]
    assert outcomes["long"] == [False] * 8
    assert outcomes["edge_500"] == [False]
    assert outcomes["edge_499"] == []


def test_reference_walk_stops_at_the_first_acquired_frame(frames, tmp_path):
    f, _ = frames
    cut = f[1][: f[1].size - 120 - 60]  # ends inside the HT long training field
    paths = [
        _write(tmp_path, "ref_a", [f[0], cut]),
        _write(tmp_path, "ref_b", [_quiet(f, 300), _tone(f, 700), _quiet(f, 540), f[2], cut]),
    ]
    got, _ = _lockstep(paths, until_acquired=True)
    assert [[s is None for _, s in got[p]] for p in paths] == [[False], [True, False]]
    for path in paths:
        _assert_same(got[path], _reference(path, until_acquired=True))
    # walked to the end, each file's last frame is cut off: a drop
    got, _ = _lockstep(paths)
    for path in paths:
        _assert_same(got[path], _reference(path))
    assert [[s is None for _, s in got[p]] for p in paths] == [[False, True], [True, False, True]]


def test_capture_ending_inside_the_ht_ltf_is_a_drop_in_both_walks(frames, tmp_path):
    f, _ = frames
    cut = f[3][: f[3].size - 120 - 60]
    bad = _write(tmp_path, "bad", [f[0], f[1], cut])
    good = _write(tmp_path, "good", f[4:10])
    got, _ = _lockstep([good, bad])
    for path in (good, bad):
        _assert_same(got[path], _reference(path))
    assert [s is None for _, s in got[bad]] == [False, False, True]


def test_frame_late_in_its_segment_is_walked_again(frames, tmp_path):
    f, leads = frames
    # Quiet lead-ins put a frame's start at sample 740 of the first segment
    # (its HT-LTF window ends at 1140, past the 1100-sample segment) and at
    # 720 of the segment after a skip of 1020; both files hold the whole frame.
    late = _write(tmp_path, "late", [_quiet(f, 740 - leads[0]), f[0], f[1]])
    after_skip = _write(tmp_path, "after_skip", [_quiet(f, 1740 - leads[2]), f[2], f[3]])
    good = _write(tmp_path, "good", f[4:7])
    got, _ = _lockstep([late, after_skip, good])
    for path in (late, after_skip, good):
        _assert_same(got[path], _reference(path))
    assert [[s is None for _, s in got[p]] for p in (late, after_skip)] == [[False, False]] * 2
    # cut inside the late frame's HT-LTF: the capture really ends there, and
    # the frame walked again from the next segment is a drop
    cut = _write(tmp_path, "cut", [_quiet(f, 740 - leads[0]), f[0][: leads[0] + 380]])
    got, _ = _lockstep([good, cut])
    _assert_same(got[cut], _reference(cut))
    assert [s is None for _, s in got[cut]] == [True]


EXTRACTORS = list(hz.EXTRACTORS)


def _model(path, rx_id):
    """The reference model of receiver `rx_id`: the first frame acquired in
    `path`."""
    spectra = next(s for _, s in _reference(path) if s is not None)
    return hz.ModelCapture(rx_id, {f: FieldSpectrum(f, bins) for f, bins in spectra.items()}, 1)


def _extract(paths, receivers, models):
    """`_extract_group` over the device captures `paths`, one lock-step
    group, capture k through receiver `receivers[k]`."""
    manifest = {"scenario": "flat", "snr_db": 30.0, "captures": [
        {"path": str(p), "device": f"dev{k % 2}", "receiver": rx, "role": "device"}
        for k, (p, rx) in enumerate(zip(paths, receivers))]}
    readers = [data_io.IqReader(p) for p in paths]
    return _extract_group(manifest, DETECTION, EXTRACTORS, hz._needed_fields(EXTRACTORS), models,
                          (list(range(len(paths))), readers))


def _extract_one(path, model, rx_id):
    """Reference: `path` walked alone (`_walk_one`), each frame divided by
    `model` one frame at a time. Returns the frame indices that yield
    features, their values per tag, and the frames walked but dropped."""
    kept, values, walked = [], {}, 0
    for idx, spectra in _walk_one(data_io.read_iq(path), DETECTION, FIELDS):
        walked += 1
        if spectra is None:
            continue
        try:
            feats = hz._extract_all(spectra, EXTRACTORS, [model], [rx_id], None)
        except (DegenerateModelError, DegenerateDenominatorError, hz.MissingModelError):
            continue
        kept.append(idx)
        for tag, fv in feats.items():
            values.setdefault(tag, []).append(fv.values)
    return kept, values, walked - len(kept)


@pytest.fixture
def mixed(frames, tmp_path):
    """Six device captures whose receivers alternate between rxA and rxB
    (one has a frame that fails sync), and a model of each receiver."""
    f, _ = frames
    paths = [_write(tmp_path, f"cap{k}", f[3 * k : 3 * k + 2 + k % 2]) for k in range(5)]
    paths.append(_write(tmp_path, "fail", [f[15], _quiet(f, 300), _tone(f, 700),
                                           _quiet(f, 440), f[16]]))
    models = {rx: _model(_write(tmp_path, f"ref_{rx}", [f[20 + k]]), rx)
              for k, rx in enumerate(("rxA", "rxB"))}
    return paths, ["rxA", "rxB"] * 3, models


def test_mixed_receiver_group_divides_each_row_by_its_own_model(mixed):
    paths, receivers, models = mixed
    links = _extract(paths, receivers, models)
    assert len(links) == len(paths)
    for k, (path, rx, link) in enumerate(zip(paths, receivers, links)):
        kept, values, dropped = _extract_one(path, models[rx], rx)
        assert link.frames.tolist() == kept
        assert link.dropped == dropped
        assert link.features == {}  # formatted in the worker; only the text goes back
        assert set(link.csv) == set(values) == {"RD_STF", "RD_LTF", "HL", "DV"}
        for tag, rows in values.items():
            assert link.csv[tag] == data_io.format_feature_rows(tag, f"dev{k % 2}", rx, "flat",
                                                                kept, 30.0, rows), tag
    assert links[-1].drops == {"SyncFailedError": 1}
    # rxA's model would give the rxB capture other values
    kept, values, _ = _extract_one(paths[1], models["rxA"], "rxA")
    assert kept == links[1].frames.tolist()
    assert links[1].csv["RD_LTF"] != data_io.format_feature_rows(
        "RD_LTF", "dev1", "rxB", "flat", kept, 30.0, values["RD_LTF"])


def test_receiver_without_a_model_loses_its_rows_in_every_table(mixed):
    paths, receivers, models = mixed
    only_a = {"rxA": models["rxA"]}
    links = _extract(paths, receivers, only_a)
    for path, rx, link in zip(paths, receivers, links):
        kept, _, dropped = _extract_one(path, only_a.get(rx), rx)
        # the frames walked less the rows written: the drop total of a whole-group drop
        assert link.dropped == dropped == len(_reference(path)) - len(kept)
        if rx == "rxB":
            assert kept == [] and link.frames.size == 0
            assert link.csv == dict.fromkeys(["RD_STF", "RD_LTF", "HL", "DV"], "")
            acquired = sum(s is not None for _, s in _reference(path))
            assert link.drops["MissingModelError"] == acquired > 0
        else:
            assert link.frames.tolist() == kept != []
            assert "MissingModelError" not in link.drops


def test_row_whose_model_came_through_another_receiver_raises(mixed):
    paths, receivers, models = mixed
    wired = {"rxA": models["rxA"], "rxB": models["rxA"]}
    with pytest.raises(hz.PipelineError, match="captured through rxA cannot divide frames from rxB"):
        _extract(paths, receivers, wired)
