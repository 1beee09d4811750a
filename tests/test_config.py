"""The config schema: every input the project ships still loads, to the
same values, and README's "Experiment config" names exactly the keys of
the schema's tables."""

import argparse
import dataclasses
import hashlib
import importlib.util
import json
import re
from pathlib import Path

import pytest

from rffdiv import classify as cl
from rffdiv import config as cf
from rffdiv import harness as hz
from rffdiv import studies
from rffdiv.cli import _apply_overrides, main

ROOT = Path(__file__).resolve().parents[1]

# sha256 of json.dumps(_config_doc(load_config(doc)), sort_keys=True), taken
# before the schema existed: a table stricter or looser in what it stores
# changes the report's config echo.
PINNED = {
    ("configs/bench_default.json", None, None):
        "bc9ed17990a14f92ed4c04512bec17b085f68eae46f083902e9996f927ccbd57",
    ("perfbench/mobile_snr_sweep.json", None, None):
        "4d4ca14a220382c833639fea13e69b284268804dab5606b71fb080c96a20f4f7",
    ("perfbench/mobile_snr_sweep.json", 7, 15.0):
        "19e77e2aaab421a64bcc6026e4bf3c096b3da9f360e005525aad0afc08b20b21",
    ("configs/bench_default.json", 7, 15.0):
        "16f1bd4bea2537101fc9c4fb24e13cc5cd585ce07234e8956596acd96200a78b",
}


@pytest.mark.parametrize("path, seed, snr_db", list(PINNED))
def test_shipped_config_loads_to_the_same_values(path, seed, snr_db):
    doc = json.loads((ROOT / path).read_text())
    doc = _apply_overrides(doc, argparse.Namespace(seed=seed, snr_db=snr_db, extractor=None))
    echo = json.dumps(hz._config_doc(hz.load_config(doc)), sort_keys=True)
    assert hashlib.sha256(echo.encode()).hexdigest() == PINNED[(path, seed, snr_db)]


def _script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_snr_stability_sweep_docs_load(monkeypatch):
    loaded = []
    monkeypatch.setattr(studies, "run_feature_stability",
                        lambda cfg: loaded.append(cfg) or {"mean": {}})
    _script("snr_stability_sweep").main()
    assert len(loaded) == 8
    assert {cfg.reference_device is None for cfg in loaded} == {True, False}


def test_reference_sweep_demo_docs_load(monkeypatch):
    class Loaded(Exception):
        pass

    def sweep(cfg, candidates):
        raise Loaded(cfg, cf._entities("cand", candidates, "candidates"))

    monkeypatch.setattr(studies, "run_reference_sweep", sweep)
    with pytest.raises(Loaded) as info:
        _script("reference_sweep_demo").main()
    cfg, candidates = info.value.args
    assert cfg.extractors == ["RD"]
    assert [c["id"] for c in candidates] == [f"cand{i}" for i in range(5)]


def test_simulate_manifest_loads(tmp_path):
    doc = {"master_seed": 1, "devices": {"count": 2, "base_seed": 100},
           "receivers": {"count": 1, "base_seed": 900}, "reference_device": {"seed": 55},
           "frames_per_device": 2, "detection": {"window_w": 64, "threshold_multiplier": 5.0}}
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(config), "--out-dir", str(tmp_path / "sim")]) == 0
    manifest, _ = cf._load_manifest(tmp_path / "sim")
    detection = cf._read(cf._DETECTION, manifest["detection"], "manifest detection")
    assert detection == {"window_w": 64, "threshold_multiplier": 5.0, "metric": "magnitude"}
    assert {c["role"] for c in manifest["captures"]} == {"device", "reference"}
    # the top level loads to what simulate wrote
    written = json.loads((tmp_path / "sim" / "manifest.json").read_text())
    assert manifest == written
    assert (manifest["format_version"], manifest["scenario"], manifest["snr_db"],
            manifest["sample_rate"]) == (1, "flat", 30.0, 20e6)


def _readme_tables() -> dict:
    """{first header cell: key names} of each table in README's "Experiment
    config" section."""
    text = (ROOT / "README.md").read_text()
    section = text.split("### Experiment config", 1)[1].split("\n### ", 1)[0]
    tables, keys = {}, None
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")] if line.startswith("|") else []
        if not cells:
            keys = None
        elif keys is None:
            keys = tables.setdefault(cells[0], set())
        elif not set(cells[0]) <= set("-: "):
            keys.add(re.fullmatch(r"`(\w+)`", cells[0]).group(1))
    return tables


def test_readme_names_every_config_key():
    assert _readme_tables() == {
        "Top-level key": set(cf._TOP),
        "Entity key": set(cf._ENTITY),
        "Shorthand key": set(cf._SHORTHAND),
        "`channel` key": set(cf._CHANNEL),
        "`detection` key": set(cf._DETECTION),
        "`classifier` key": {f.name for f in dataclasses.fields(cl.TrainConfig)},
    }


def _small_doc(**keys):
    return {"master_seed": 1, "devices": {"count": 2, "base_seed": 100},
            "receivers": {"count": 1, "base_seed": 900}, "extractors": ["HL"], **keys}


def test_every_integer_key_takes_a_whole_float():
    cfg = hz.load_config(_small_doc(frames_per_device=4.0, classifier={"epochs": 2.0,
                                                                       "batch": 16.0}))
    assert (cfg.frames_per_device, cfg.classifier.epochs, cfg.classifier.batch) == (4, 2, 16)
    assert all(type(v) is int for v in (cfg.frames_per_device, cfg.classifier.epochs,
                                        cfg.classifier.batch))
    for key, doc in [("frames_per_device", _small_doc(frames_per_device=4.5)),
                     ("classifier.epochs", _small_doc(classifier={"epochs": 2.5}))]:
        with pytest.raises(hz.ConfigError, match=f"{key} must be an integer"):
            hz.load_config(doc)


@pytest.mark.parametrize("snr_db, ok", [(300, True), (-300.0, True), (float("inf"), True),
                                        (300.5, False), (-301, False), (3084.0, False)])
def test_snr_db_range(snr_db, ok):
    if ok:
        assert hz.load_config(_small_doc(snr_db=snr_db)).snr_db == [snr_db]
    else:
        with pytest.raises(hz.ConfigError, match="at least -300 and at most 300, or \\+inf"):
            hz.load_config(_small_doc(snr_db=snr_db))


@pytest.mark.parametrize("keys, repeated", [
    ({"receivers": [{"id": "x", "seed": 900}, {"id": "x", "seed": 901}],
      "train_receivers": ["x"]}, "'x'"),
    ({"receivers": [{"id": "y", "seed": 900}], "test_receivers": ["y", "y"]}, "'y'"),
    # the reference's id defaults to "ref"
    ({"devices": [{"id": "ref", "seed": 100}, {"id": "d1", "seed": 101}],
      "reference_device": {"seed": 55}}, "'ref'"),
    ({"devices": [{"id": "d", "seed": 100}, {"id": "d", "seed": 101}]}, "'d'"),
    ({"receivers": {"count": 2, "base_seed": 900}, "train_receivers": ["rx00", "rx00"]},
     "'rx00'"),
    ({"receivers": {"count": 2, "base_seed": 900},
      "train_receivers": [["rx00", "rx01"], ["rx01", "rx00"]]}, "'rx00+rx01'"),
])
@pytest.mark.parametrize("command", ["bench", "simulate"])
def test_repeated_id_is_config_error(monkeypatch, tmp_path, capsys, keys, repeated, command):
    def no_link(*args, **kwargs):
        raise AssertionError("a link ran")

    monkeypatch.setattr(hz, "frame_blocks", no_link)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_small_doc(**keys)))
    assert main([command, "--config", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"{repeated} appears more than once" in err, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("keys, repeated", [
    ({"snr_db": [30, 30]}, "snr_db: 30.0"),
    ({"snr_db": [30, 20.0, 30.0]}, "snr_db: 30.0"),  # 30 and 30.0 are one SNR
    ({"extractors": ["HL", "DV", "HL"]}, "extractors: 'HL'"),
    ({"snr_db": [30.0, 30.0000001]}, "snr_db: '30'"),  # the report prints both as 30
])
@pytest.mark.parametrize("command", ["bench", "simulate"])
def test_repeated_snr_or_extractor_is_config_error(monkeypatch, tmp_path, capsys, keys,
                                                   repeated, command):
    # a repeated entry ran its cells twice, doubling their `repeats`
    def no_link(*args, **kwargs):
        raise AssertionError("a link ran")

    monkeypatch.setattr(hz, "frame_blocks", no_link)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_small_doc(**keys)))
    assert main([command, "--config", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"{repeated} appears more than once" in err, err
    assert not (tmp_path / "out").exists()


def test_window_w_bound_leaves_the_walk_a_frame_span():
    from rffdiv import cli
    from rffdiv.preprocess import MAX_WINDOW_W
    # a segment holds a noise window at the largest window_w and a frame
    assert cli.SEGMENT_LEN >= MAX_WINDOW_W + cli.FRAME_ADVANCE
    assert cf._read(cf._DETECTION, {"window_w": MAX_WINDOW_W}, "d")["window_w"] == MAX_WINDOW_W
    with pytest.raises(cf.ConfigError, match="at most 680"):
        cf._read(cf._DETECTION, {"window_w": MAX_WINDOW_W + 1}, "d")
