"""The benchmark's own output checks (`perfbench/run.py`'s `check_bench`
and `check_extract`) pass on small runs, so a change that breaks what the
benchmark checks fails here first instead of only in a benchmark run."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from rffdiv.cli import main

ROOT = Path(__file__).resolve().parents[1]

DOC = {
    "master_seed": 3,
    "devices": {"count": 3, "base_seed": 100, "field_distinct": True},
    "receivers": {"count": 2, "base_seed": 900},
    "reference_device": {"id": "ref", "seed": 55},
    "extractors": ["RD", "HL", "DV"],
    "channel": {"scenario": "mobile"},
    "snr_db": 30.0,
    "frames_per_device": 8,
    "repeats": 2,
    "train_receivers": ["rx00"],
    "test_receivers": ["rx01"],
    "classifier": {"epochs": 5, "seed": 3},
}


@pytest.fixture(scope="module")
def bench_run():
    """perfbench/run.py, loaded read-only. It is registered in sys.modules
    before it runs, because its dataclasses look their module up there."""
    name = "perfbench_run"
    spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[name]


@pytest.fixture
def config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(DOC))
    return path


def test_bench_passes_check_bench(bench_run, config, tmp_path):
    out = tmp_path / "bench"
    assert main(["bench", "--config", str(config), "--out-dir", str(out)]) == 0
    op = bench_run.Op("bench", bench_run.bench_frames(DOC))
    bench_run.check_bench(op, out, DOC)
    assert op.problems == []
    assert 0 < op.yielded <= op.frames


def test_extract_passes_check_extract(bench_run, config, tmp_path, capsys):
    """Also without rx01's reference capture: rx01's frames are dropped from
    every table, which must still agree on their row count."""
    sim = tmp_path / "sim"
    assert main(["simulate", "--config", str(config), "--out-dir", str(sim)]) == 0
    manifest = json.loads((sim / "manifest.json").read_text())
    no_ref = tmp_path / "no_ref"
    no_ref.mkdir()
    (no_ref / "manifest.json").write_text(json.dumps(manifest | {"captures": [
        c | {"path": str(sim / c["path"])} for c in manifest["captures"]
        if (c["role"], c["receiver"]) != ("reference", "rx01")]}))
    frames = 3 * 2 * DOC["frames_per_device"]
    for manifest_dir in (sim, no_ref):
        feat = manifest_dir / "feat"
        capsys.readouterr()
        assert main(["extract", "--manifest", str(manifest_dir), "--out-dir", str(feat)]) == 0
        step = bench_run.Step(args=[], wall_s=0.0, rss_mb=0.0, exit_code=0,
                              stdout=capsys.readouterr().out, last_error="")
        op = bench_run.Op("extract", frames)
        bench_run.check_extract(op, step, feat)
        assert op.problems == []
        assert 0 < op.yielded <= op.frames
    # rx01's frames are dropped or were never detected
    assert op.notes["reported_dropped"] + op.notes["unaccounted_frames"] >= frames // 2
