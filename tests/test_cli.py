import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rffdiv
from rffdiv import cli, data_io
from rffdiv import harness as hz
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
    table = data_io.read_features(feat / "features_hl.csv")
    assert len(table) > 0
    assert set(table.receiver) == {"rx00", "rx01"}
    # rows follow the manifest's capture order, then the frame index
    order = {(c["device"], c["receiver"]): k for k, c in enumerate(manifest["captures"])}
    keys = [(order[(device, rx)], trial)
            for device, rx, trial in zip(table.device, table.receiver, table.trial)]
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


def _write_table(path, extractor, values):
    """A feature table of `values`, row i from device dev{i % 2} through rx00."""
    n = len(values)
    data_io.write_features(path, data_io.FeatureTable(
        extractor, [f"dev{i % 2}" for i in range(n)], ["rx00"] * n, ["flat"] * n,
        list(range(n)), [30.0] * n, np.asarray(values)))


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
    _write_table(features, "HL", values / np.linalg.norm(values, axis=1, keepdims=True))
    code = ("import sys; from rffdiv.cli import main; "
            f"code = main(['train', '--features', {str(features)!r}, '--out', {str(model)!r}]); "
            "print(code, 'numpy.ma' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode().splitlines()[-1] == "0 False"


def _loaded_modules(code: str) -> list:
    """[result, the rffdiv modules loaded] after a fresh interpreter runs
    `code`, which sets `result`."""
    code = ("import json, sys\n" + code + "\nprint(json.dumps([result, sorted(m for m in "
            "sys.modules if m == 'rffdiv' or m.startswith('rffdiv.'))]))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr.decode()
    return json.loads(proc.stdout.decode().splitlines()[-1])


def test_import_loads_only_signals():
    assert _loaded_modules("import rffdiv; result = 0") == [0, ["rffdiv", "rffdiv.signals"]]


@pytest.mark.parametrize("command", ["train", "eval", "select-ref"])
def test_command_loads_no_simulator(tmp_path, command):
    features, model, csi = tmp_path / "hl.csv", tmp_path / "m.json", tmp_path / "csi.csv"
    values = np.random.default_rng(0).random((8, 52))
    _write_table(features, "HL", values / np.linalg.norm(values, axis=1, keepdims=True))
    assert main(["train", "--features", str(features), "--out", str(model)]) == 0
    csi.write_text("device," + ",".join(f"v{i}" for i in range(16)) + "\n"
                   + "".join(name + ",1" * 16 + "\n" for name in ("A", "B")))
    argv = {"train": ["train", "--features", str(features), "--out", str(tmp_path / "m2.json")],
            "eval": ["eval", "--model", str(model), "--features", str(features)],
            "select-ref": ["select-ref", "--csi", str(csi)]}[command]
    code, loaded = _loaded_modules(f"from rffdiv.cli import main; result = main({argv!r})")
    assert code == 0
    simulator = {"rffdiv.harness", "rffdiv.channel", "rffdiv.impairments"}
    if command != "select-ref":
        simulator.add("rffdiv.refselect")
    assert simulator.isdisjoint(loaded), loaded


def test_bench_loads_no_study(config_path, tmp_path):
    argv = ["bench", "--config", str(config_path), "--out-dir", str(tmp_path / "out")]
    code, loaded = _loaded_modules(f"from rffdiv.cli import main; result = main({argv!r})")
    assert code == 0
    assert "rffdiv.harness" in loaded and "rffdiv.studies" not in loaded


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


@pytest.mark.parametrize("rows, bad", [
    ([("bad", -np.ones(16)), ("ok", np.ones(16))], "'bad'"),
    ([("a", np.ones(16)), ("b", np.linspace(1, 2, 16)), ("a", np.full(16, 2.0))], "'a'"),
])
def test_select_ref_rejects_negative_amplitudes_and_repeated_ids(tmp_path, capsys, rows, bad):
    lines = ["device," + ",".join(f"v{i}" for i in range(16))]
    lines += [name + "," + ",".join(f"{v:g}" for v in amp) for name, amp in rows]
    csi = tmp_path / "csi.csv"
    csi.write_text("\n".join(lines) + "\n")
    assert main(["select-ref", "--csi", str(csi)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {csi}: bad row {bad}"), err


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
    # past the float range of 10 ** (snr_db / 10): failed at the first capture
    ("snr_db", 4000.0),
    ("snr_db", -4000.0),
    ("snr_db", [30.0, 300.5]),
])
def test_bench_bad_setting_is_config_error(config_path, tmp_path, capsys, key, value):
    doc = {**json.loads(config_path.read_text()), key: value}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    _assert_config_error(["bench", "--config", str(bad), "--out-dir", str(tmp_path / "out")],
                         capsys)
    assert not (tmp_path / "out").exists()


# an id that names capture files and fills one feature-table cell: a comma or
# a line break split the cell (the tables then fail to read back), and a
# slash leaves `simulate` a file in a directory that does not exist
@pytest.mark.parametrize("command", ["bench", "simulate"])
@pytest.mark.parametrize("change, named", [
    ({"devices": [{"id": "dev,a", "seed": 1}, {"id": "dev01", "seed": 2}]}, "devices[0].id"),
    ({"receivers": [{"id": "rx\n00", "seed": 900}, {"id": "rx01", "seed": 901}],
      "train_receivers": ["rx\n00"]}, "receivers[0].id"),
    ({"reference_device": {"id": "ref/a", "seed": 55}}, "reference_device.id"),
    ({"devices": [{"id": "dev\r00", "seed": 1}, {"id": "dev01", "seed": 2}]}, "devices[0].id"),
])
def test_id_the_outputs_cannot_carry_is_config_error(config_path, tmp_path, capsys, command,
                                                     change, named):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**json.loads(config_path.read_text()), **change}))
    assert main([command, "--config", str(bad), "--out-dir", str(tmp_path / "out")]) == 2
    assert f"config.{named} must be a string without" in capsys.readouterr().err
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


@pytest.mark.parametrize("command", ["bench", "simulate"])
@pytest.mark.parametrize("snr_db", ["4000", "-4000"])
def test_snr_db_override_out_of_range_is_config_error(config_path, tmp_path, capsys, command,
                                                      snr_db):
    _assert_config_error([command, "--config", str(config_path), "--out-dir",
                          str(tmp_path / "out"), f"--snr-db={snr_db}"], capsys)
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
    _write_table(features, "HL", rng.random((8, 52)))
    cfg = tmp_path / "train.json"
    cfg.write_text(json.dumps(train_doc))
    _assert_config_error(["train", "--features", str(features), "--out", str(tmp_path / "m.json"),
                          "--config", str(cfg)], capsys)


def test_train_negative_seed_is_config_error(tmp_path, capsys):
    features = tmp_path / "hl.csv"
    _write_table(features, "HL", np.ones((8, 52)))
    model = tmp_path / "m.json"
    _assert_config_error(["train", "--features", str(features), "--out", str(model),
                          "--seed", "-1"], capsys)
    assert not model.exists()


def test_train_table_of_the_wrong_width_is_io_error(tmp_path, capsys):
    features = tmp_path / "dv.csv"
    _write_table(features, "DV", np.ones((8, 52)))
    model = tmp_path / "m.json"
    assert main(["train", "--features", str(features), "--out", str(model)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("pipeline error:") and str(features) in err
    assert not model.exists()


@pytest.mark.parametrize("key, value", [("snr_db", "thirty"), ("scenari", "flat"),
                                        ("sample_rate", 40e6), ("format_version", 2),
                                        ("snr_db", 4000.0), ("scenario", "flat,30")])
def test_extract_bad_manifest_key_is_config_error(sim_dir, tmp_path, capsys, key, value):
    doc = json.loads((sim_dir / "manifest.json").read_text())
    doc[key] = value
    for cap in doc["captures"]:
        cap["path"] = str(sim_dir / cap["path"])
    (tmp_path / "manifest.json").write_text(json.dumps(doc))
    _assert_config_error(["extract", "--manifest", str(tmp_path),
                          "--out-dir", str(tmp_path / "f")], capsys)
    assert not (tmp_path / "f").exists()


@pytest.mark.parametrize("key, value", [("device", "dev,00"), ("receiver", "rx\n00"),
                                        ("device", "dev/00")])
def test_extract_id_the_tables_cannot_carry_is_config_error(sim_dir, tmp_path, capsys, key,
                                                            value):
    doc = json.loads((sim_dir / "manifest.json").read_text())
    for cap in doc["captures"]:
        cap["path"] = str(sim_dir / cap["path"])
    doc["captures"][0][key] = value
    (tmp_path / "manifest.json").write_text(json.dumps(doc))
    assert main(["extract", "--manifest", str(tmp_path), "--out-dir", str(tmp_path / "f")]) == 2
    assert f"manifest.captures[0].{key} must be a string without" in capsys.readouterr().err
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
        _write_table(features, "HL", np.ones((1, 52)))
        argv = ["eval", "--model", str(path), "--features", str(features)]
    else:
        argv = ["select-ref", "--csi", str(path)]
    _assert_config_error(argv, capsys)


@pytest.mark.parametrize("trained, scored", [("HL", "RD_LTF"), ("DV", "RD_STF")])
def test_eval_of_another_extractors_table_is_config_error(tmp_path, capsys, trained, scored):
    # each pair shares a width, so only the tables' extractors tell them apart
    rng = np.random.default_rng(0)
    width = 52 if trained == "HL" else 12
    train_csv, test_csv, model = tmp_path / "train.csv", tmp_path / "test.csv", tmp_path / "m.json"
    _write_table(train_csv, trained, rng.random((8, width)) + 0.1)
    _write_table(test_csv, scored, rng.random((8, width)) + 0.1)
    assert main(["train", "--features", str(train_csv), "--out", str(model)]) == 0
    capsys.readouterr()
    assert main(["eval", "--model", str(model), "--features", str(test_csv)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and trained in err and scored in err, err


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


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("bad", [0.0, np.nan, -1.0])
def test_table_with_a_bad_row_is_io_error(tmp_path, capsys, command, bad):
    good, features = tmp_path / "good.csv", tmp_path / "hl.csv"
    values = np.random.default_rng(0).random((8, 52))
    _write_table(good, "HL", values)
    values[-1] = bad
    _write_table(features, "HL", values)
    model = tmp_path / "m.json"
    if command == "train":
        argv = ["train", "--features", str(features), "--out", str(model)]
    else:
        assert main(["train", "--features", str(good), "--out", str(model)]) == 0
        argv = ["eval", "--model", str(model), "--features", str(features)]
    capsys.readouterr()
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"pipeline error: {features}: row 8:"), err
    assert command == "eval" or not model.exists()


def test_failed_extract_leaves_no_feature_table(monkeypatch, sim_dir, tmp_path):
    """The tables open as the first rows arrive; a write that fails after
    that removes every table, under either name."""
    real, calls = data_io.append_feature_rows, []

    def append(out, tables, rows):
        calls.append(sorted(tables))
        if len(calls) == 2:
            raise OSError("no space left on device")
        real(out, tables, rows)

    monkeypatch.setattr(data_io, "append_feature_rows", append)
    out = tmp_path / "feat"
    with pytest.raises(OSError, match="no space"):
        main(["extract", "--manifest", str(sim_dir), "--out-dir", str(out)])
    assert calls[1] == ["DV", "HL", "RD_LTF", "RD_STF"]  # every table was open
    assert list(out.rglob("features_*")) == []


def test_extract_manifest_listing_a_capture_twice_is_config_error(sim_dir, tmp_path, capsys):
    doc = json.loads((sim_dir / "manifest.json").read_text())
    doc["captures"].insert(1, dict(doc["captures"][0]))
    for cap in doc["captures"]:
        cap["path"] = str(sim_dir / cap["path"])
    (tmp_path / "manifest.json").write_text(json.dumps(doc))
    assert main(["extract", "--manifest", str(tmp_path), "--out-dir", str(tmp_path / "f")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"{doc['captures'][0]['path']!r}" in err
    assert not (tmp_path / "f").exists()


@pytest.mark.parametrize("change, line", [
    (1, "1 of 61 frames listed in the manifest were never detected"),
    # more frames found than listed: the capture is named and the count not clamped
    (-1, "-1 of 59 frames listed in the manifest were never detected"),
])
def test_extract_reports_listed_frames_never_detected(sim_dir, tmp_path, capsys, change, line):
    doc = json.loads((sim_dir / "manifest.json").read_text())
    devices = [cap for cap in doc["captures"] if cap["role"] == "device"]
    for cap in doc["captures"]:
        cap["path"] = str(sim_dir / cap["path"])
    assert main(["extract", "--manifest", str(sim_dir), "--out-dir", str(tmp_path / "a")]) == 0
    summary = capsys.readouterr().out.splitlines()
    assert len(summary) == 1 and summary[0].startswith("wrote ")  # every listed frame found
    assert sum(cap["frames"] for cap in devices) == 60
    devices[1]["frames"] += change
    (tmp_path / "manifest.json").write_text(json.dumps(doc))
    assert main(["extract", "--manifest", str(tmp_path), "--out-dir", str(tmp_path / "b")]) == 0
    lines = capsys.readouterr().out.splitlines()
    named = [f"{devices[1]['path']} holds 10 frames; the manifest lists 9"] if change < 0 else []
    assert lines[:-1] == named + [line]
    assert lines[-1] == summary[0].replace(str(tmp_path / "a"), str(tmp_path / "b"))


def test_extract_writes_each_group_before_taking_the_next(monkeypatch, sim_dir, tmp_path):
    events = []
    real_map, real_append = hz.map_ordered, data_io.append_feature_rows

    def map_ordered(fn, items):
        for k, result in enumerate(real_map(fn, items)):
            events.append(f"take {k}")
            yield result

    def append(out, tables, rows):
        events.append("write")
        real_append(out, tables, rows)

    monkeypatch.setattr(hz, "map_ordered", map_ordered)
    monkeypatch.setattr(data_io, "append_feature_rows", append)
    monkeypatch.setattr(hz, "BLOCK_ROWS", 2)  # groups of two captures on any machine
    assert main(["extract", "--manifest", str(sim_dir), "--out-dir", str(tmp_path / "f")]) == 0
    manifest = json.loads((sim_dir / "manifest.json").read_text())["captures"]
    readers = dict.fromkeys(range(len(manifest)))
    groups = cli._lockstep_groups(manifest, readers, "device")
    assert len(groups) > 1
    # one write per capture of group k, before group k + 1 is taken
    assert events == [e for k, g in enumerate(groups) for e in [f"take {k}"] + ["write"] * len(g)]


@pytest.mark.parametrize("cpus", [1, 2])
def test_extract_group_that_raises_leaves_no_feature_table(monkeypatch, sim_dir, tmp_path, cpus):
    """Group 0's rows are already in the tables when group 1 raises."""
    real = cli._walk_captures
    first = json.loads((sim_dir / "manifest.json").read_text())["captures"][0]["path"]

    def walk(readers, detection, fields, until_acquired=False):
        if readers[0].path.name != first and not until_acquired:  # a later device group
            raise hz.PipelineError("injected")
        return real(readers, detection, fields, until_acquired)

    monkeypatch.setattr(cli, "_walk_captures", walk)
    monkeypatch.setattr(hz, "usable_cpus", lambda: cpus)
    monkeypatch.setattr(hz, "BLOCK_ROWS", 2)
    out = tmp_path / "feat"
    assert main(["extract", "--manifest", str(sim_dir), "--out-dir", str(out)]) == 3
    assert out.exists() and list(out.rglob("features_*")) == []


def _untouched(*args, **kwargs):
    raise AssertionError("a capture was simulated or read, or a model trained")


@pytest.mark.parametrize("command", ["bench", "simulate", "extract", "eval"])
@pytest.mark.parametrize("below", [False, True])
def test_output_directory_that_cannot_be_made_is_config_error(
        monkeypatch, config_path, sim_dir, tmp_path, capsys, command, below):
    """Checked before any capture is simulated or read, and nothing is made."""
    monkeypatch.setattr(hz, "_receive", _untouched)
    monkeypatch.setattr(data_io.IqReader, "__init__", _untouched)
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "sub" if below else blocker
    argv = {"bench": ["bench", "--config", str(config_path)],
            "simulate": ["simulate", "--config", str(config_path)],
            "extract": ["extract", "--manifest", str(sim_dir)],
            "eval": ["eval", "--model", str(tmp_path / "m.json"),
                     "--features", str(tmp_path / "t.csv")]}[command]
    assert main(argv + ["--out-dir", str(out)]) == 2
    assert f"config error: output directory {out}: {blocker} is not a directory" in (
        capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == [blocker]


@pytest.mark.parametrize("command", ["train", "select-ref"])
@pytest.mark.parametrize("kind", ["directory", "in a missing directory"])
def test_output_file_that_cannot_be_written_is_config_error(monkeypatch, tmp_path, capsys,
                                                            command, kind):
    monkeypatch.setattr(rffdiv.classify, "train", _untouched)
    features, csi = tmp_path / "hl.csv", tmp_path / "csi.csv"
    _write_table(features, "HL", np.random.default_rng(0).random((8, 52)) + 0.1)
    csi.write_text("device,v0,v1,v2,v3\na,1,2,3,2\nb,1,1,1,1\n")
    out = tmp_path / "d"
    out.mkdir()
    out = out if kind == "directory" else tmp_path / "none" / "out.json"
    argv = (["train", "--features", str(features), "--out", str(out)] if command == "train"
            else ["select-ref", "--csi", str(csi), "--out", str(out)])
    assert main(argv) == 2
    assert f"config error: output file {out}: " in capsys.readouterr().err
    assert not (tmp_path / "none").exists() and list((tmp_path / "d").iterdir()) == []


def test_extract_capture_path_that_is_a_directory_is_io_error(sim_dir, tmp_path, capsys):
    doc = json.loads((sim_dir / "manifest.json").read_text())
    cap = next(c for c in doc["captures"] if c["role"] == "device")
    (tmp_path / "cap.iq").mkdir()
    (tmp_path / "cap.json").write_text((sim_dir / cap["path"]).with_suffix(".json").read_text())
    doc["captures"] = [{**cap, "path": "cap.iq"}]
    (tmp_path / "manifest.json").write_text(json.dumps(doc))
    assert main(["extract", "--manifest", str(tmp_path), "--extractor", "HL",
                 "--out-dir", str(tmp_path / "f")]) == 3
    assert f"pipeline error: {tmp_path / 'cap.iq'}: a directory" in capsys.readouterr().err


def test_simulate_of_an_snr_list_is_config_error(monkeypatch, config_path, tmp_path, capsys):
    """`simulate` writes one SNR: a list is refused before any capture is
    simulated or the output directory made, unless --snr-db picks one."""
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(json.loads(config_path.read_text()) | {"snr_db": [20, 30]}))
    with monkeypatch.context() as m:
        m.setattr(hz, "_receive", _untouched)
        assert main(["simulate", "--config", str(config), "--out-dir", str(tmp_path / "a")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: snr_db ") and not (tmp_path / "a").exists()
    assert main(["simulate", "--config", str(config), "--out-dir", str(tmp_path / "b"),
                 "--snr-db", "20"]) == 0
    assert json.loads((tmp_path / "b" / "manifest.json").read_text())["snr_db"] == 20.0


def test_extract_capture_of_an_unknown_role_is_config_error(monkeypatch, sim_dir, tmp_path,
                                                            capsys):
    monkeypatch.setattr(data_io.IqReader, "__init__", _untouched)
    doc = json.loads((sim_dir / "manifest.json").read_text())
    for cap in doc["captures"]:
        cap["path"] = str(sim_dir / cap["path"])
    doc["captures"][1]["role"] = "devcie"
    (tmp_path / "manifest.json").write_text(json.dumps(doc))
    assert main(["extract", "--manifest", str(tmp_path), "--out-dir", str(tmp_path / "f")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {tmp_path / 'manifest.json'}: ")
    assert "captures[1].role" in err and "'devcie'" in err
    assert not (tmp_path / "f").exists()


@pytest.mark.parametrize("window_w, codes", [(680, (0, 3)), (1100, (2,)), (1200, (2,))])
@pytest.mark.parametrize("command", ["bench", "extract"])
def test_large_detection_window_ends_without_a_traceback(config_path, sim_dir, tmp_path,
                                                         command, window_w, codes):
    # past 680 a segment cannot hold a noise window and a frame: at 1100 the
    # walk's no-detection step was 0 samples (extract never ended), at 1200
    # detection took the argmax of no windows (exit 1)
    if command == "bench":
        doc = {**json.loads(config_path.read_text()), "detection": {"window_w": window_w}}
        argv = ["bench", "--config", str(tmp_path / "cfg.json")]
        (tmp_path / "cfg.json").write_text(json.dumps(doc))
    else:
        doc = json.loads((sim_dir / "manifest.json").read_text())
        doc["detection"]["window_w"] = window_w
        for cap in doc["captures"]:
            cap["path"] = str(sim_dir / cap["path"])
        (tmp_path / "manifest.json").write_text(json.dumps(doc))
        argv = ["extract", "--manifest", str(tmp_path)]
    try:
        proc = subprocess.run([sys.executable, "-m", "rffdiv.cli", *argv, "--out-dir",
                               str(tmp_path / "out")], capture_output=True, env=_child_env(),
                              timeout=60)
    except subprocess.TimeoutExpired:
        pytest.fail(f"{command} at window_w {window_w} did not end in 60 s")
    assert proc.returncode in codes, proc.stderr.decode()
