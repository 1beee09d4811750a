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
from rffdiv import harness as hz
from rffdiv.cli import _apply_overrides, _load_manifest, main

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
    monkeypatch.setattr(hz, "run_feature_stability", lambda cfg: loaded.append(cfg) or {"mean": {}})
    _script("snr_stability_sweep").main()
    assert len(loaded) == 8
    assert {cfg.reference_device is None for cfg in loaded} == {True, False}


def test_reference_sweep_demo_docs_load(monkeypatch):
    class Loaded(Exception):
        pass

    def sweep(cfg, candidates):
        raise Loaded(cfg, hz._entities("cand", candidates, "candidates"))

    monkeypatch.setattr(hz, "run_reference_sweep", sweep)
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
    manifest, _ = _load_manifest(tmp_path / "sim")
    detection = hz._read(hz._DETECTION, manifest["detection"], "manifest detection")
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
        "Top-level key": set(hz._TOP),
        "Entity key": set(hz._ENTITY),
        "Shorthand key": set(hz._SHORTHAND),
        "`channel` key": set(hz._CHANNEL),
        "`detection` key": set(hz._DETECTION),
        "`classifier` key": {f.name for f in dataclasses.fields(cl.TrainConfig)},
    }
