import json

import numpy as np
import pytest

from rffdiv import data_io
from rffdiv.data_io import FeatureRecord, IoError
from rffdiv.signals import ComplexSignal


def _records(n, dim=12, extractor="DV"):
    rng = np.random.default_rng(0)
    return [
        FeatureRecord(extractor, f"dev{i % 3}", "rx0", "flat", i, 30.0,
                      rng.uniform(0.01, 1.0, size=dim))
        for i in range(n)
    ]


def test_iq_roundtrip_bit_identical(tmp_path):
    rng = np.random.default_rng(7)
    sig = ComplexSignal((rng.standard_normal(256) + 1j * rng.standard_normal(256))
                        .astype(np.complex64).astype(np.complex128))
    path = tmp_path / "cap.iq"
    data_io.write_iq(path, sig, center_freq_hz=5.745e9)
    back = data_io.read_iq(path)
    assert np.array_equal(back.samples, sig.samples)
    assert back.sample_rate == sig.sample_rate


def test_iq_eight_floats_is_four_samples(tmp_path):
    path = tmp_path / "x.iq"
    np.arange(8, dtype="<f4").tofile(path)
    (tmp_path / "x.json").write_text(json.dumps({"sample_rate": 20e6, "format": "cf32le"}))
    sig = data_io.read_iq(path)
    assert len(sig) == 4
    assert sig.samples[0] == 0 + 1j


def test_iq_truncated_pair_reports_offset(tmp_path):
    path = tmp_path / "x.iq"
    np.arange(7, dtype="<f4").tofile(path)  # odd float count
    (tmp_path / "x.json").write_text(json.dumps({"sample_rate": 20e6}))
    with pytest.raises(IoError, match="byte offset 24"):
        data_io.read_iq(path)


def test_iq_missing_sidecar(tmp_path):
    path = tmp_path / "x.iq"
    np.arange(8, dtype="<f4").tofile(path)
    with pytest.raises(IoError, match="sidecar"):
        data_io.read_iq(path)


def test_iq_nan_sample_reports_offset(tmp_path):
    path = tmp_path / "x.iq"
    arr = np.ones(8, dtype="<f4")
    arr[4] = np.nan
    arr.tofile(path)
    (tmp_path / "x.json").write_text(json.dumps({"sample_rate": 20e6}))
    with pytest.raises(IoError, match="byte offset 16"):
        data_io.read_iq(path)


def test_iq_int16_variant_applies_scale(tmp_path):
    path = tmp_path / "x.iq"
    np.array([100, -200, 300, 400], dtype="<i2").tofile(path)
    (tmp_path / "x.json").write_text(json.dumps(
        {"sample_rate": 20e6, "format": "ci16le", "scale": 0.01}
    ))
    sig = data_io.read_iq(path)
    assert np.allclose(sig.samples, [1.0 - 2.0j, 3.0 + 4.0j])


def test_features_roundtrip_lossless(tmp_path):
    rows = _records(100)
    path = tmp_path / "f.csv"
    data_io.write_features(path, rows)
    back = data_io.read_features(path)
    assert len(back) == 100
    for a, b in zip(rows, back):
        assert np.abs(a.values - b.values).max() < 1e-15
        assert (a.device, a.receiver, a.trial, a.snr_db) == (b.device, b.receiver, b.trial, b.snr_db)


def test_features_values_written_as_17_digits(tmp_path):
    vals = np.array([0.0, -0.0, 5e-324, 2.5e-310, 1 / 3, 0.1, 1e16, 123456789.0,
                     np.nextafter(1.0, 2.0), 1e-300, 7.0, 0.5])
    path = tmp_path / "f.csv"
    data_io.write_features(path, [FeatureRecord("DV", "d", "r", "flat", 0, 30.0, vals)])
    cells = path.read_text().splitlines()[1].split(",")
    assert cells[6:] == [format(float(v), ".17g") for v in vals]
    back = data_io.read_features(path)[0].values
    assert np.array_equal(back, vals) and np.array_equal(np.signbit(back), np.signbit(vals))


def test_features_mixed_extractors_rejected(tmp_path):
    rows = _records(3) + [FeatureRecord("HL", "d", "r", "flat", 0, 30.0, np.ones(12))]
    with pytest.raises(IoError, match="extractor"):
        data_io.write_features(tmp_path / "f.csv", rows)


def test_features_dim_drift_rejected(tmp_path):
    rows = _records(3) + [FeatureRecord("DV", "d", "r", "flat", 0, 30.0, np.ones(13))]
    with pytest.raises(IoError, match="row 3"):
        data_io.write_features(tmp_path / "f.csv", rows)


def test_features_empty_table(tmp_path):
    path = tmp_path / "empty.csv"
    data_io.write_features(path, [], dim=12)
    assert data_io.read_features(path) == []
    header = path.read_text().splitlines()[0]
    assert header.startswith("extractor,device,receiver,channel_scenario,trial,snr_db,v0")


def test_features_read_rejects_mixed_file(tmp_path):
    path = tmp_path / "f.csv"
    data_io.write_features(path, _records(2))
    lines = path.read_text().splitlines()
    lines.append(lines[1].replace("DV", "HL", 1))
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(IoError, match="row 3"):
        data_io.read_features(path)


def test_features_bad_header(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("nope,nope\n")
    with pytest.raises(IoError, match="header"):
        data_io.read_features(path)


def test_features_json_roundtrip(tmp_path):
    rows = _records(10)
    path = tmp_path / "f.json"
    data_io.write_features_json(path, rows)
    back = data_io.read_features_json(path)
    assert len(back) == 10
    for a, b in zip(rows, back):
        assert np.abs(a.values - b.values).max() < 1e-15
