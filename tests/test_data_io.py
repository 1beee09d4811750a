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
    data_io.write_iq(path, sig)
    back = data_io.read_iq(path)
    assert np.array_equal(back.samples, sig.samples)
    meta = json.loads(path.with_suffix(".json").read_text())
    assert meta == {"sample_rate": 20e6, "center_freq_hz": 0.0, "format": "cf32le"}


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


@pytest.mark.parametrize("fmt,dtype", [("cf32le", "<f4"), ("ci16le", "<i2")])
def test_iq_reader_ranges_match_read_iq(tmp_path, fmt, dtype):
    # 40000 samples: above the reader's check chunk and 256 KiB of complex128
    rng = np.random.default_rng(5)
    path = tmp_path / "x.iq"
    (rng.standard_normal(80000) * 1000).astype(dtype).tofile(path)
    (tmp_path / "x.json").write_text(json.dumps(
        {"sample_rate": 20e6, "format": fmt, "scale": 0.37}))
    whole = data_io.read_iq(path).samples
    assert whole.size == 40000
    with data_io.IqReader(path) as reader:
        assert len(reader) == 40000
        for start, stop in [(0, 1100), (39500, 40600), (12345, 12345), (0, 40000)]:
            assert np.array_equal(reader.read(start, stop), whole[start:stop])
    # one non-finite sample past the first check chunk: an inf, or an int16
    # that the scale overflows
    arr = np.ones(80000, dtype=dtype)
    arr[2 * 39000 + 1] = np.inf if fmt == "cf32le" else 30000
    arr.tofile(path)
    (tmp_path / "x.json").write_text(json.dumps(
        {"sample_rate": 20e6, "format": fmt, "scale": 1e305}))
    with pytest.raises(IoError, match=f"byte offset {39000 * 2 * arr.itemsize}"):
        data_io.IqReader(path)


@pytest.mark.parametrize("sidecar", ["{not json", json.dumps({"format": "cf32le"}),
                                     json.dumps({"sample_rate": -1.0}),
                                     json.dumps({"sample_rate": 40e6})])
def test_iq_bad_sidecar_names_the_sidecar(tmp_path, sidecar):
    path = tmp_path / "x.iq"
    np.arange(8, dtype="<f4").tofile(path)
    (tmp_path / "x.json").write_text(sidecar)
    with pytest.raises(IoError, match="x.json"):
        data_io.read_iq(path)


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


@pytest.mark.parametrize("extractor, dim, message", [
    ("XX", 12, "unknown extractor 'XX'"),
    ("DV", 52, "DV tables have 12 values, header has 52"),
])
def test_features_read_checks_the_division_table(tmp_path, extractor, dim, message):
    path = tmp_path / "f.csv"
    data_io.write_features(path, _records(2, dim=dim, extractor=extractor))
    with pytest.raises(IoError, match=message) as info:
        data_io.read_features(path)
    assert str(path) in str(info.value)


def test_features_bad_header(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("nope,nope\n")
    with pytest.raises(IoError, match="header"):
        data_io.read_features(path)

