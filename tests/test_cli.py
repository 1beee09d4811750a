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
    for cap in manifest["captures"]:
        assert (sim / cap["path"]).exists()
        assert (sim / cap["path"]).with_suffix(".json").exists()

    feat = tmp_path / "feat"
    assert main(["extract", "--manifest", str(sim), "--out-dir", str(feat)]) == 0
    rows = data_io.read_features(feat / "features_hl.csv")
    assert len(rows) > 0
    assert {r.receiver for r in rows} == {"rx00", "rx01"}

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
