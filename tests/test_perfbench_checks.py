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
    sim, feat = tmp_path / "sim", tmp_path / "feat"
    assert main(["simulate", "--config", str(config), "--out-dir", str(sim)]) == 0
    capsys.readouterr()
    assert main(["extract", "--manifest", str(sim), "--out-dir", str(feat)]) == 0
    step = bench_run.Step(args=[], wall_s=0.0, rss_mb=0.0, exit_code=0,
                          stdout=capsys.readouterr().out, last_error="")
    op = bench_run.Op("extract", 3 * 2 * DOC["frames_per_device"])
    bench_run.check_extract(op, step, feat)
    assert op.problems == []
    assert 0 < op.yielded <= op.frames
