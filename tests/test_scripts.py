"""`scripts/snr_stability_sweep.py` and `scripts/byte_check.py` run as shipped."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import rffdiv

ROOT = Path(__file__).resolve().parents[1]


def _run_script(name):
    src = str(Path(rffdiv.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name)],
                          capture_output=True, text=True,
                          env={"PATH": "/usr/bin:/bin", "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    return proc


def test_snr_stability_sweep_prints_its_table():
    header, *rows = _run_script("snr_stability_sweep.py").stdout.splitlines()
    assert header.split()[:3] == ["snr", "scenario", "extractor"]
    # 4 SNRs x (flat RD_LTF, RD_STF, DV + los HL, DV)
    assert len(rows) == 20, rows
    for row in rows:
        values = [float(x) for x in row.split()[3:]]
        assert len(values) == 4 and all(-1.0 <= v <= 1.0 for v in values), row


def test_byte_check_finds_a_tree_the_same_as_itself(monkeypatch, tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("byte_check", ROOT / "scripts" / "byte_check.py")
    check = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(check)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "master_seed": 3, "devices": {"count": 2, "base_seed": 100},
        "receivers": {"count": 2, "base_seed": 900}, "extractors": ["HL"],
        "channel": {"scenario": "flat"}, "snr_db": 30.0, "frames_per_device": 4,
        "train_receivers": ["rx00"], "test_receivers": ["rx01"],
        "classifier": {"epochs": 5, "seed": 3},
    }))
    monkeypatch.setattr(check, "OPS", {
        "bench": check._bench(str(config)),
        "simulate+extract": check._simulate_extract(str(config), extractors=("HL",)),
    })
    assert check.main([str(ROOT / "src")]) == 0
    out = capsys.readouterr().out
    assert out.count("exit 0;") == 3 and "features_hl.csv" in out, out
    assert out.endswith("2 of 2 cases the same as the baseline\n")
    # each field of a record is compared
    one = {"runs": [(0, "", "wrote {out}\n")], "files": {"report.json": "aa"}}
    other = {"runs": [(1, "Error", "wrote {out}\n")], "files": {"r.csv": "bb"}}
    assert len(check.differences(one, other)) == 4
