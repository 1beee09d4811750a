"""Independent links and capture groups run on every usable CPU: one
worker or two give the same bytes and raise the same errors."""

import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

import rffdiv
from rffdiv import harness as hz
from rffdiv import studies
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


def test_experiment_same_with_one_or_two_workers(monkeypatch, forks, tmp_path):
    cfg = hz.load_config(DOC)
    reports, stability, written = {}, {}, {}
    for n in (1, 2):
        _with_cpus(monkeypatch, n)
        reports[n] = hz.run_experiment(cfg, tmp_path / str(n))
        stability[n] = studies.run_feature_stability(cfg)
        hz.write_report(reports[n], tmp_path / str(n))
        written[n] = {p.name: p.read_text() for p in sorted((tmp_path / str(n)).iterdir())}
    assert forks, "two CPUs should start worker processes"
    assert reports[1].to_json_doc() == reports[2].to_json_doc()
    assert stability[1] == stability[2]
    assert sorted(written[1]) == ["accuracy.csv", "features_dv.csv", "features_hl.csv",
                                  "features_rd_ltf.csv", "features_rd_stf.csv", "report.json"]
    for name, text in written[1].items():
        assert text == written[2][name], name
        assert len(text.splitlines()) > 1, name


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
    real = hz._link_task
    first = next(iter(failures))

    def link_task(cfg, snr_db, repeat, csv, models, link):
        key = (link[4], link[1].device_id)  # (device id, receiver id)
        if key not in failures:
            return real(cfg, snr_db, repeat, csv, models, link)
        if key == first:
            time.sleep(0.3)
        raise failures[key]

    monkeypatch.setattr(hz, "_link_task", link_task)


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


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("failing", [("dev01", "rx01"), ("dev02", "rx01")])  # middle, last
def test_failed_run_leaves_no_feature_table(monkeypatch, tmp_path, cpus, failing):
    """Tables are written as links arrive, so the links before the failing
    one are already on disk when it raises; none may stay."""
    cfg = hz.load_config(DOC)
    _failing_links(monkeypatch, {failing: ValueError("injected")})
    _with_cpus(monkeypatch, cpus)
    with pytest.raises(ValueError, match="injected"):
        hz.run_experiment(cfg, tmp_path)
    assert list(tmp_path.rglob("features_*")) == []


@pytest.mark.parametrize("cpus", [1, 2])
def test_run_without_out_dir_formats_no_row(monkeypatch, cpus):
    def no_rows(*args, **kwargs):
        raise AssertionError("a feature row was formatted")

    monkeypatch.setattr(hz.data_io, "format_feature_rows", no_rows)
    _with_cpus(monkeypatch, cpus)
    assert hz.run_experiment(hz.load_config(DOC)).cells


def test_empty_train_pool_same_with_one_or_two_workers(monkeypatch):
    """rx01's links keep only their second-half frames, so its train set has
    no rows: the run fails before any training starts, also rx00's."""
    cfg = hz.load_config({**DOC, "train_receivers": ["rx00", "rx01"]})
    real = hz._link_task

    def link_task(cfg, snr_db, repeat, csv, models, link):
        out = real(cfg, snr_db, repeat, csv, models, link)
        if link[1].device_id != "rx01":
            return out
        keep = out.frames >= cfg.frames_per_device // 2
        return hz.LinkFeatures(out.frames[keep], {
            tag: replace(fv, values=fv.values[keep]) for tag, fv in out.features.items()},
            out.drops)

    def no_training(*args, **kwargs):
        raise AssertionError("a training started")

    monkeypatch.setattr(hz, "_link_task", link_task)
    monkeypatch.setattr(hz.cl, "train", no_training)
    for n in (1, 2):
        _with_cpus(monkeypatch, n)
        with pytest.raises(hz.PipelineError) as info:
            hz.run_experiment(cfg)
        assert str(info.value) == ("empty train or test pool for extractor RD "
                                   "(train={'rx01'}, test=rx00)")


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


def test_import_loads_no_process_pool(loaded_by):
    assert loaded_by("import-cli", "multiprocessing", "concurrent.futures") == (0, [])


@pytest.mark.parametrize("cpus", [1, 2])
def test_ordered_map_runs_calls_that_do_not_pickle(monkeypatch, cpus):
    """The fork hands the workers `fn` and the items as they are."""
    _with_cpus(monkeypatch, cpus)
    assert list(hz.map_ordered(lambda x: x + 1, [1, 2, 3])) == [2, 3, 4]
    assert list(hz.map_ordered(len, [[lambda: 0]] * 3)) == [1, 1, 1]


def _run_alone(code: str) -> str:
    """The output of `code` in a fresh interpreter, in a process group of its
    own so that every process it starts can be found; none may be left."""
    src = str(Path(rffdiv.__file__).resolve().parents[1])
    proc = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True,
                            start_new_session=True,
                            env={"PATH": "/usr/bin:/bin", "PYTHONPATH": src})
    try:
        out, _ = proc.communicate(timeout=30)
    except subprocess.TimeoutExpired:
        out = "timed out"
    left = True
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        left = False
    proc.wait()
    assert not left, f"a process of the call was left running; it printed {out!r}"
    return out.strip()


_DIES = """
import os
from rffdiv import harness
harness.usable_cpus = lambda: 2

def exit_at_three(x):
    if x == 3:
        os._exit(3)
    return x

try:
    list(harness.map_ordered(exit_at_three, range(6)))
except harness.PipelineError as exc:
    print(exc)
"""


def test_worker_that_dies_mid_item_raises_and_leaves_no_process():
    """Item 3's call ends its worker with status 3: the parent raises at
    item 3 instead of waiting for a record that never comes."""
    assert _run_alone(_DIES) == "worker 1 ended without the result of item 3 (exit status 3)"


_DIES_MID_RECORD = """
import os, pickle
from rffdiv import harness
harness.usable_cpus = lambda: 2
serve = harness._serve

def serve_half(fn, items, out, first, step):
    if first == 1:
        record = pickle.dumps((True, fn(items[1])))
        out.write(record[: len(record) // 2])
        out.flush()
        os._exit(3)
    serve(fn, items, out, first, step)

harness._serve = serve_half
try:
    list(harness.map_ordered(lambda x: [x] * 1000, range(6)))
except harness.PipelineError as exc:
    print(exc)
"""


def test_worker_that_dies_mid_record_raises_and_leaves_no_process():
    """Worker 1 writes half of item 1's record and exits with status 3: the
    parent reads a record that the pipe's end cuts short."""
    assert _run_alone(_DIES_MID_RECORD) == (
        "worker 1 ended without the result of item 1 (exit status 3)")


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_failed_fork_leaves_no_open_pipe(monkeypatch):
    """The second worker's fork fails: its OSError propagates, the first
    worker is reaped, and neither worker's pipe stays open."""
    real_fork = os.fork
    calls = []

    def fork():
        calls.append(None)
        if len(calls) == 2:
            raise OSError(11, "Resource temporarily unavailable")
        return real_fork()

    _with_cpus(monkeypatch, 2)
    before = len(os.listdir("/proc/self/fd"))
    monkeypatch.setattr(os, "fork", fork)
    with pytest.raises(OSError, match="temporarily unavailable"):
        list(hz.map_ordered(_slow_negative, [0, 1, 2]))
    monkeypatch.setattr(os, "fork", real_fork)
    assert len(calls) == 2
    assert len(os.listdir("/proc/self/fd")) == before
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_early_close_leaves_no_child(monkeypatch):
    _with_cpus(monkeypatch, 2)
    results = hz.map_ordered(_slow_negative, [0, 1, 40, 40])  # the last two take 2 s each
    assert next(results) == 0
    start = time.monotonic()
    results.close()
    assert time.monotonic() - start < 1.0, "close waited for a running item"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("cpus, items", [(2, 5), (3, 2), (4, 7)])
def test_ordered_map_forks_one_worker_per_cpu_or_item(monkeypatch, forks, cpus, items):
    _with_cpus(monkeypatch, cpus)
    assert list(hz.map_ordered(_slow_negative, [0] * items)) == [0] * items
    assert len(forks) == min(cpus, items)


class _Unpicklable(Exception):
    """Pickles but does not unpickle: its one argument is not `__init__`'s two."""

    def __init__(self, what, why):
        super().__init__(f"{what}: {why}")


def _raise_unpicklable(x):
    if x == 2:
        raise _Unpicklable("item two", "not wanted")
    if x == 3:
        raise ValueError(lambda: x)  # its argument does not pickle
    return x


@pytest.mark.parametrize("items, want", [
    ([0, 1, 2], "item 2 raised _Unpicklable, which does not pickle: item two: not wanted"),
    ([0, 3, 1], "item 1 raised ValueError, which does not pickle: <function "),
])
def test_exception_that_does_not_pickle_arrives_as_pipeline_error(monkeypatch, items, want):
    _with_cpus(monkeypatch, 2)
    with pytest.raises(hz.PipelineError) as info:
        list(hz.map_ordered(_raise_unpicklable, items))
    assert str(info.value).startswith(want)


def test_bench_run_loads_no_process_pool_or_polynomial(loaded_by):
    """A bench on two CPUs, field-distinct transmitters (whose tilt is a
    Legendre draw) and the reference division loads none of them."""
    forks, loaded = loaded_by("bench", "multiprocessing", "concurrent", "numpy.polynomial")
    assert forks >= 2 and loaded == []
