import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rffdiv
from rffdiv import data_io
from rffdiv.cli import main


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    doc = {
        "master_seed": 11,
        "devices": {"count": 3, "base_seed": 100, "field_distinct": True},
        "receivers": {"count": 2, "base_seed": 900},
        "reference_device": {"id": "ref", "seed": 55},
        "extractors": ["RD", "HL", "DV"],
        "channel": {"scenario": "flat"},
        "snr_db": 30.0,
        "frames_per_device": 10,
        "repeats": 1,
        "train_receivers": ["rx00"],
        "test_receivers": ["rx01"],
        "classifier": {"epochs": 30, "seed": 3},
    }
    path = tmp_path_factory.mktemp("cfg") / "cfg.json"
    path.write_text(json.dumps(doc))
    return path


def test_simulate_extract_train_eval_flow(config_path, tmp_path):
    sim = tmp_path / "sim"
    assert main(["simulate", "--config", str(config_path), "--out-dir", str(sim)]) == 0
    manifest = json.loads((sim / "manifest.json").read_text())
    assert any(c["role"] == "reference" for c in manifest["captures"])
    assert manifest["detection"] == {"window_w": 80, "threshold_multiplier": 6.0,
                                     "metric": "magnitude"}
    for cap in manifest["captures"]:
        assert (sim / cap["path"]).exists()
        assert (sim / cap["path"]).with_suffix(".json").exists()

    feat = tmp_path / "feat"
    assert main(["extract", "--manifest", str(sim), "--out-dir", str(feat)]) == 0
    rows = data_io.read_features(feat / "features_hl.csv")
    assert len(rows) > 0
    assert {r.receiver for r in rows} == {"rx00", "rx01"}
    # rows follow the manifest's capture order, then the frame index
    order = {(c["device"], c["receiver"]): k for k, c in enumerate(manifest["captures"])}
    keys = [(order[(r.device, r.receiver)], r.trial) for r in rows]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)

    model = tmp_path / "hl.json"
    assert main(["train", "--features", str(feat / "features_hl.csv"),
                 "--out", str(model)]) == 0
    out = tmp_path / "eval"
    assert main(["eval", "--model", str(model), "--features",
                 str(feat / "features_hl.csv"), "--out-dir", str(out)]) == 0
    doc = json.loads((out / "eval.json").read_text())
    assert doc["accuracy"] >= 0.9


def test_extract_single_extractor(config_path, tmp_path):
    sim = tmp_path / "sim"
    assert main(["simulate", "--config", str(config_path), "--out-dir", str(sim)]) == 0
    feat = tmp_path / "feat"
    assert main(["extract", "--manifest", str(sim), "--out-dir", str(feat),
                 "--extractor", "DV"]) == 0
    assert (feat / "features_dv.csv").exists()
    assert not (feat / "features_hl.csv").exists()


def test_bench_writes_report_and_is_deterministic(config_path, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["bench", "--config", str(config_path), "--out-dir", str(a)]) == 0
    assert main(["bench", "--config", str(config_path), "--out-dir", str(b)]) == 0
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
    assert (a / "accuracy.csv").read_bytes() == (b / "accuracy.csv").read_bytes()
    # the report still echoes the two retired settings, as constants
    config = json.loads((a / "report.json").read_text())["config"]
    assert config["detection_metric"] == "magnitude"
    assert config["classifier"]["optimizer"] == "adam"


def _child_env(**extra):
    """A minimal environment for a fresh interpreter that still finds the
    `rffdiv` under test, installed or not."""
    src = str(Path(rffdiv.__file__).resolve().parents[1])
    return {"PATH": "/usr/bin:/bin", "PYTHONPATH": src, **extra}


def test_import_loads_no_scipy():
    code = ("import sys, rffdiv, rffdiv.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode().strip() == "[]"


def test_import_loads_no_numpy_random():
    # the frame engine builds its generators per link, never at import
    code = "import sys, rffdiv, rffdiv.cli; print('numpy.random' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode().strip() == "False"


def test_train_loads_no_numpy_ma(tmp_path):
    # np.unique would import numpy.ma (through np.ma.is_masked)
    features, model = tmp_path / "hl.csv", tmp_path / "m.json"
    values = np.random.default_rng(0).random((8, 52))
    data_io.write_features(features, [
        data_io.FeatureRecord("HL", f"dev{i % 2}", "rx00", "flat", i, 30.0, v / np.linalg.norm(v))
        for i, v in enumerate(values)])
    code = ("import sys; from rffdiv.cli import main; "
            f"code = main(['train', '--features', {str(features)!r}, '--out', {str(model)!r}]); "
            "print(code, 'numpy.ma' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode().splitlines()[-1] == "0 False"


def test_bench_deterministic_across_processes(config_path, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out, hashseed in ((a, "0"), (b, "7")):
        env = _child_env(PYTHONHASHSEED=hashseed)
        proc = subprocess.run(
            [sys.executable, "-m", "rffdiv.cli", "bench",
             "--config", str(config_path), "--out-dir", str(out)],
            capture_output=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr.decode()
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
    assert (a / "features_hl.csv").read_bytes() == (b / "features_hl.csv").read_bytes()


def test_bench_seed_override_changes_report(config_path, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["bench", "--config", str(config_path), "--out-dir", str(a)]) == 0
    assert main(["bench", "--config", str(config_path), "--out-dir", str(b),
                 "--seed", "12"]) == 0
    assert (a / "report.json").read_bytes() != (b / "report.json").read_bytes()


def test_select_ref_ranks_smoothest_first(tmp_path):
    rng = np.random.default_rng(0)
    k = np.arange(52)
    smooth = 0.6 + 0.4 * np.cos(np.pi * (k - 25.5) / 30)
    ripple = smooth * (1 + 0.3 * rng.standard_normal(52))
    lines = ["device," + ",".join(f"v{i}" for i in range(52))]
    for name, amp in (("ripply", ripple), ("smooth", smooth)):
        lines.append(name + "," + ",".join(f"{v:.8g}" for v in amp))
    csi = tmp_path / "csi.csv"
    csi.write_text("\n".join(lines) + "\n")
    out = tmp_path / "ranked.csv"
    assert main(["select-ref", "--csi", str(csi), "--out", str(out)]) == 0
    ranked = out.read_text().splitlines()
    assert ranked[0] == "device,eta_lf,energy_before,energy_after"
    assert ranked[1].startswith("smooth,")


def test_exit_codes(config_path, tmp_path):
    # 2: unreadable config
    assert main(["bench", "--config", "/does/not/exist.json",
                 "--out-dir", str(tmp_path)]) == 2
    # 2: config that fails validation
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"master_seed": 1, "devices": {"count": 1, "base_seed": 0},
                               "receivers": {"count": 1, "base_seed": 9}}))
    assert main(["bench", "--config", str(bad), "--out-dir", str(tmp_path)]) == 2
    # 2: argparse rejection
    assert main(["bench"]) == 2
    # 2: extraction requested references the manifest does not carry
    sim = tmp_path / "sim"
    assert main(["simulate", "--config", str(config_path), "--out-dir", str(sim)]) == 0
    manifest_path = sim / "manifest.json"
    doc = json.loads(manifest_path.read_text())
    doc["captures"] = [c for c in doc["captures"] if c["role"] != "reference"]
    manifest_path.write_text(json.dumps(doc))
    code = main(["extract", "--manifest", str(sim), "--out-dir", str(tmp_path / "f"),
                 "--extractor", "RD"])
    assert code == 2  # config error: manifest lacks reference captures


@pytest.mark.parametrize("text", ["{not json", "[]", '{"format_version": 1}',
                                  '{"captures": [{"path": "a.iq"}]}'])
def test_extract_malformed_manifest_is_config_error(tmp_path, capsys, text):
    (tmp_path / "manifest.json").write_text(text)
    assert main(["extract", "--manifest", str(tmp_path), "--out-dir", str(tmp_path / "f")]) == 2
    assert "manifest.json" in capsys.readouterr().err


@pytest.mark.parametrize("sidecar", ["{not json", json.dumps({"format": "cf32le"}),
                                     json.dumps({"sample_rate": 40e6, "format": "cf32le"})])
def test_extract_bad_sidecar_is_io_error(config_path, tmp_path, capsys, sidecar):
    sim = tmp_path / "sim"
    assert main(["simulate", "--config", str(config_path), "--out-dir", str(sim)]) == 0
    path = sim / json.loads((sim / "manifest.json").read_text())["captures"][-1]["path"]
    path.with_suffix(".json").write_text(sidecar)
    assert main(["extract", "--manifest", str(sim), "--out-dir", str(tmp_path / "f")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("pipeline error:") and path.with_suffix(".json").name in err


def _assert_config_error(argv, capsys):
    assert main(argv) == 2
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("detection", {"window_w": 8}),
    ("detection", {"threshold_multiplier": 0}),
    ("detection", {"metric": "energy"}),
    ("detection", "magnitude"),
    ("classifier", {"optimizer": "adam"}),
    ("classifier", {"epochs": 0}),
    # negative seeds, caught before any link is simulated
    ("devices", {"count": 3, "base_seed": -5}),
    ("receivers", [{"id": "rx00", "seed": 900}, {"id": "rx01", "seed": -1}]),
    ("reference_device", {"id": "ref", "seed": -4}),
    ("classifier", {"seed": -2}),
    ("classifier", {"seed": 1.5}),
    # each ran with a value it did not say, or failed only after the links ran
    ("frames_per_devic", 10),
    ("repeats", 1.9),
    ("master_seed", 7.5),
    ("devices", {"count": 2.5, "base_seed": 100}),
    ("devices", {"count": 3, "base_seed": 2.7}),
    ("devices", [{"id": "a", "seed": 1, "fied_distinct": True}, {"id": "b", "seed": 2}]),
    ("channel", {"scenario": "los", "n_tapz": 3}),
    ("channel", {"scenario": "flat", "per_frame": "no"}),
    ("snr_db", float("-inf")),
    ("snr_db", ["30"]),
    ("channel", {"scenario": "los", "n_taps": 0}),
    pytest.param("snr_db", 10**400, id="snr_db-int10e400"),
    ("snr_db", float("nan")),
    ("detection", {"threshold_multiplier": float("inf")}),
    ("classifier", {"epochs": 1.5}),
    ("classifier", {"batch": True}),
    ("classifier", {"learning_rate": float("nan")}),
    ("extractors", ["RD_STF"]),
    ("devices", [{"id": "a", "seed": 1, "fir_taps": [[0.1, 0], [1, 0]]}, {"id": "b", "seed": 2}]),
])
def test_bench_bad_setting_is_config_error(config_path, tmp_path, capsys, key, value):
    doc = {**json.loads(config_path.read_text()), key: value}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    _assert_config_error(["bench", "--config", str(bad), "--out-dir", str(tmp_path / "out")],
                         capsys)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, seed, in_config", [
    ("bench", -1, False), ("simulate", -3, False), ("bench", -5, True)])
def test_negative_master_seed_is_config_error(config_path, tmp_path, capsys, command, seed,
                                              in_config):
    cfg = config_path
    if in_config:
        cfg = tmp_path / "neg.json"
        cfg.write_text(json.dumps({**json.loads(config_path.read_text()), "master_seed": seed}))
    argv = [command, "--config", str(cfg), "--out-dir", str(tmp_path / "out")]
    _assert_config_error(argv if in_config else argv + ["--seed", str(seed)], capsys)
    assert not (tmp_path / "out").exists()


@pytest.fixture(scope="module")
def sim_dir(config_path, tmp_path_factory):
    sim = tmp_path_factory.mktemp("sim")
    assert main(["simulate", "--config", str(config_path), "--out-dir", str(sim)]) == 0
    return sim


@pytest.mark.parametrize("detection", [{"window_w": 8}, {"threshold_multiplier": -1.0},
                                       {"metric": "energy"}, {"window_w": "wide"},
                                       {"window_w": 80.5}, {"threshold_multiplier": float("inf")},
                                       {"window": 80}])
def test_extract_bad_detection_is_config_error(sim_dir, tmp_path, capsys, detection):
    doc = json.loads((sim_dir / "manifest.json").read_text())
    doc["detection"] = detection
    for cap in doc["captures"]:
        cap["path"] = str(sim_dir / cap["path"])
    (tmp_path / "manifest.json").write_text(json.dumps(doc))
    _assert_config_error(["extract", "--manifest", str(tmp_path),
                          "--out-dir", str(tmp_path / "f")], capsys)


@pytest.mark.parametrize("train_doc", [{"epochs": 0}, {"epoch": 5}, {"optimizer": "adam"},
                                       {"epochs": 1.5}, {"batch": True},
                                       {"learning_rate": float("nan")}])
def test_train_bad_config_is_config_error(tmp_path, capsys, train_doc):
    rng = np.random.default_rng(0)
    features = tmp_path / "hl.csv"
    data_io.write_features(features, [
        data_io.FeatureRecord("HL", f"dev{i % 2}", "rx00", "flat", i, 30.0, rng.random(52))
        for i in range(8)])
    cfg = tmp_path / "train.json"
    cfg.write_text(json.dumps(train_doc))
    _assert_config_error(["train", "--features", str(features), "--out", str(tmp_path / "m.json"),
                          "--config", str(cfg)], capsys)


def test_train_negative_seed_is_config_error(tmp_path, capsys):
    features = tmp_path / "hl.csv"
    data_io.write_features(features, [
        data_io.FeatureRecord("HL", f"dev{i % 2}", "rx00", "flat", i, 30.0, np.ones(52))
        for i in range(8)])
    model = tmp_path / "m.json"
    _assert_config_error(["train", "--features", str(features), "--out", str(model),
                          "--seed", "-1"], capsys)
    assert not model.exists()


def test_train_table_of_the_wrong_width_is_io_error(tmp_path, capsys):
    features = tmp_path / "dv.csv"
    data_io.write_features(features, [
        data_io.FeatureRecord("DV", f"dev{i % 2}", "rx00", "flat", i, 30.0, np.ones(52))
        for i in range(8)])
    model = tmp_path / "m.json"
    assert main(["train", "--features", str(features), "--out", str(model)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("pipeline error:") and str(features) in err
    assert not model.exists()


@pytest.mark.parametrize("key, value", [("snr_db", "thirty"), ("scenari", "flat"),
                                        ("sample_rate", 40e6), ("format_version", 2)])
def test_extract_bad_manifest_key_is_config_error(sim_dir, tmp_path, capsys, key, value):
    doc = json.loads((sim_dir / "manifest.json").read_text())
    doc[key] = value
    for cap in doc["captures"]:
        cap["path"] = str(sim_dir / cap["path"])
    (tmp_path / "manifest.json").write_text(json.dumps(doc))
    _assert_config_error(["extract", "--manifest", str(tmp_path),
                          "--out-dir", str(tmp_path / "f")], capsys)
    assert not (tmp_path / "f").exists()


@pytest.mark.parametrize("command, contents", [
    ("eval-model", "{bad"),
    ("eval-model", None),  # no such file
    ("select-ref", None),
])
def test_bad_input_file_is_config_error(tmp_path, capsys, command, contents):
    path = tmp_path / "input"
    if contents is not None:
        path.write_text(contents)
    if command == "eval-model":
        features = tmp_path / "hl.csv"
        data_io.write_features(features, [
            data_io.FeatureRecord("HL", "dev0", "rx00", "flat", 0, 30.0, np.ones(52))])
        argv = ["eval", "--model", str(path), "--features", str(features)]
    else:
        argv = ["select-ref", "--csi", str(path)]
    _assert_config_error(argv, capsys)


def _assert_rewrites_same(out_dir: Path):
    """Every feature CSV in `out_dir` is what `write_features` writes for
    the rows read back from it."""
    tables = sorted(out_dir.glob("features_*.csv"))
    assert len(tables) == 4
    for table in tables:
        again = out_dir / f"again_{table.name}"
        data_io.write_features(again, data_io.read_features(table))
        assert again.read_bytes() == table.read_bytes(), table.name


def test_feature_csvs_match_write_features(config_path, sim_dir, tmp_path):
    assert main(["bench", "--config", str(config_path), "--out-dir", str(tmp_path / "b")]) == 0
    _assert_rewrites_same(tmp_path / "b")
    assert main(["extract", "--manifest", str(sim_dir), "--out-dir", str(tmp_path / "e")]) == 0
    _assert_rewrites_same(tmp_path / "e")
