"""Independent links and capture groups run on every usable CPU: one
worker or two give the same bytes and raise the same errors."""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import rffdiv
from rffdiv import harness as hz
from rffdiv.cli import main
from rffdiv.waveform import WindowBoundsError

DOC = {
    "master_seed": 9,
    "devices": {"count": 3, "base_seed": 100, "field_distinct": True},
    "receivers": {"count": 2, "base_seed": 900},
    "reference_device": {"id": "ref", "seed": 55},
    "extractors": ["RD", "HL", "DV"],
    "channel": {"scenario": "mobile"},
    "snr_db": 30.0,
    "frames_per_device": 20,  # more than one block per link
    "repeats": 1,
    "train_receivers": ["rx00"],
    "test_receivers": ["rx00", "rx01"],
    "classifier": {"epochs": 5, "seed": 3},
}


@pytest.fixture
def forks(monkeypatch):
    """Counts the processes this process forks from here on."""
    count = []
    real_fork = os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            count.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return count


def _with_cpus(monkeypatch, n):
    monkeypatch.setattr(hz, "usable_cpus", lambda: n)


def test_experiment_same_with_one_or_two_workers(monkeypatch, forks):
    cfg = hz.load_config(DOC)
    reports, stability = {}, {}
    for n in (1, 2):
        _with_cpus(monkeypatch, n)
        reports[n] = hz.run_experiment(cfg)
        stability[n] = hz.run_feature_stability(cfg)
    assert forks, "two CPUs should start worker processes"
    assert reports[1].to_json_doc() == reports[2].to_json_doc()
    assert stability[1] == stability[2]
    recs = {n: r.feature_records for n, r in reports.items()}
    assert sorted(recs[1]) == sorted(recs[2]) == ["DV", "HL", "RD_LTF", "RD_STF"]
    for tag in recs[1]:
        assert len(recs[1][tag]) == len(recs[2][tag]) > 0
        for a, b in zip(recs[1][tag], recs[2][tag]):
            assert (a.device, a.receiver, a.trial) == (b.device, b.receiver, b.trial)
            assert a.values.tobytes() == b.values.tobytes()


def _digests(root: Path) -> dict:
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_simulate_extract_same_with_one_or_two_workers(monkeypatch, tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(DOC))
    out, drop_lines = {}, {}
    for n in (1, 2):
        _with_cpus(monkeypatch, n)
        sim, feat = tmp_path / f"sim{n}", tmp_path / f"feat{n}"
        assert main(["simulate", "--config", str(config), "--out-dir", str(sim)]) == 0
        assert main(["extract", "--manifest", str(sim), "--out-dir", str(feat)]) == 0
        lines = capsys.readouterr().out.splitlines()
        drop_lines[n] = lines[-1].rsplit(" to ", 1)[0]
        out[n] = (_digests(sim), _digests(feat))
    assert drop_lines[1] == drop_lines[2] and drop_lines[1].startswith("wrote ")
    assert len(out[1][0]) == 2 * 4 * 2 + 1  # .iq + sidecar per (tx, rx), and the manifest
    assert len(out[1][1]) == 4
    assert out[1] == out[2]


def _failing_links(monkeypatch, failures):
    """Links `(dev_id, rx_id)` in `failures` raise the given exception; the
    first one listed waits first, so a later link fails earlier in time."""
    real = hz._link_features
    first = next(iter(failures))

    def link_features(cfg, blocks, model, rx_id, device_id):
        exc = failures.get((device_id, rx_id))
        if exc is None:
            return real(cfg, blocks, model, rx_id, device_id)
        if (device_id, rx_id) == first:
            time.sleep(0.3)
        raise exc

    monkeypatch.setattr(hz, "_link_features", link_features)


@pytest.mark.parametrize("failures", [
    {("dev01", "rx01"): ValueError("injected value error")},
    {("dev00", "rx01"): WindowBoundsError("window HTLTF1 spans samples [740, 804) outside "
                                          "signal of length 780")},
    # two failing links: the earlier link's error wins, as in a serial loop
    {("dev01", "rx00"): ValueError("earlier link"),
     ("dev02", "rx01"): WindowBoundsError("later link")},
])
def test_failures_same_with_one_or_two_workers(monkeypatch, failures):
    cfg = hz.load_config(DOC)
    _failing_links(monkeypatch, failures)
    want = next(iter(failures.values()))
    for n in (1, 2):
        _with_cpus(monkeypatch, n)
        with pytest.raises(type(want)) as info:
            hz.run_experiment(cfg)
        assert type(info.value) is type(want)
        assert str(info.value) == str(want)


def test_one_cpu_starts_no_process(monkeypatch, tmp_path):
    def no_fork():
        raise AssertionError("a process was started")

    monkeypatch.setattr(os, "fork", no_fork)
    _with_cpus(monkeypatch, 1)
    cfg = hz.load_config({**DOC, "frames_per_device": 4})
    assert hz.run_experiment(cfg).cells
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({**DOC, "frames_per_device": 4}))
    assert main(["simulate", "--config", str(config), "--out-dir", str(tmp_path / "sim")]) == 0
    assert main(["extract", "--manifest", str(tmp_path / "sim"),
                 "--out-dir", str(tmp_path / "feat")]) == 0


def _slow_negative(x):
    time.sleep(0.05 * x)
    return -x


@pytest.mark.parametrize("cpus", [1, 2])
def test_ordered_map_yields_in_input_order(monkeypatch, cpus):
    _with_cpus(monkeypatch, cpus)
    assert list(hz.map_ordered(_slow_negative, [])) == []
    # later items finish first on two workers
    assert list(hz.map_ordered(_slow_negative, [4, 3, 2, 1, 0])) == [-4, -3, -2, -1, 0]


def test_import_loads_no_process_pool():
    code = ("import sys, rffdiv, rffdiv.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'multiprocessing' or m.startswith('concurrent.futures')))")
    src = str(Path(rffdiv.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          env={"PATH": "/usr/bin:/bin", "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode().strip() == "[]"
