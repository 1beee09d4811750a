"""Per-layer timings of rffdiv, written as BENCH_<pr>.json.

    python scripts/bench_layers.py --pr N --baseline OTHER_SRC [--repeats 5]

Measures the source tree this script belongs to ("change") and, with
`--baseline`, another tree's `src/` directory ("parent", for example an
export of the parent commit) on the same machine. Every measurement runs
in a fresh interpreter whose PYTHONPATH points at the tree under test; the
two trees alternate which goes first in each repeat, and each figure is
the median over the repeats (every run is kept under `runs`).

Fields, per tree:
- `import_s`: `import rffdiv` in a fresh interpreter;
- `wall_s`: `rffdiv bench --config configs/bench_default.json`, run
  in-process with the stage timers below installed (`frames`: the frames
  it simulates). The timers see only calls made in their own process, so
  this run is pinned to one CPU (`os.sched_setaffinity`), where the frame
  engine runs every link in-process;
- `wall_unpinned_s`: the same command in-process without timers or
  pinning, so the links run on every CPU of the affinity mask
  (`machine.affinity_cpus`);
- `peak_rss_mb`: the largest `ru_maxrss` of that unpinned run's process
  and of its children (the forked link and training workers);
- `us_per_frame`: time inside each stage over that run, per frame
  simulated: simulate (the frame engine's `harness.frame_blocks`), detect
  (`noise_floor_threshold`, `detect_signal`), sync (`synchronize`), cfo
  (`estimate_cfo_coarse`, `estimate_cfo_fine`, `compensate_cfo`),
  field_spectrum and extract (`extract_rd/hl/dv`);
- `s`: seconds in train (`classify.train`), eval (`classify.evaluate`,
  `evaluate_fused`) and write (`write_report`, and
  `data_io.append_feature_rows`, which appends to the feature tables as
  the links arrive) over that run; a
  stage function that the measured tree does not define is skipped;
- `capture_files_s`: wall time of each process of `simulate --seed 1`,
  `extract`, `train` and `eval` (HL features) on the same config.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import inspect
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CONFIG = ROOT / "configs" / "bench_default.json"

# (module, function, stage); a stage's time is the sum over its functions.
STAGES = [
    ("harness", "frame_blocks", "simulate"),
    ("preprocess", "noise_floor_threshold", "detect"),
    ("preprocess", "detect_signal", "detect"),
    ("preprocess", "synchronize", "sync"),
    ("preprocess", "estimate_cfo_coarse", "cfo"),
    ("preprocess", "estimate_cfo_fine", "cfo"),
    ("preprocess", "compensate_cfo", "cfo"),
    ("features", "field_spectrum", "field_spectrum"),
    ("features", "extract_rd", "extract"),
    ("features", "extract_hl", "extract"),
    ("features", "extract_dv", "extract"),
    ("classify", "train", "train"),
    ("classify", "evaluate", "eval"),
    ("classify", "evaluate_fused", "eval"),
    ("harness", "write_report", "write"),
    ("data_io", "append_feature_rows", "write"),
]
PER_FRAME = ("simulate", "detect", "sync", "cfo", "field_spectrum", "extract")


def _timed(fn, stage, totals):
    """`fn` with its time added to `totals[stage]`; a generator function's
    time is what its iteration takes."""
    if inspect.isgeneratorfunction(fn):
        def timed_gen(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                t0 = time.perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    totals[stage] += time.perf_counter() - t0
                    return
                totals[stage] += time.perf_counter() - t0
                yield item
        return timed_gen

    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            totals[stage] += time.perf_counter() - t0
    return timed


def _bench_wall() -> float:
    from rffdiv import cli

    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        code = cli.main(["bench", "--config", str(CONFIG), "--out-dir", out])
        wall = time.perf_counter() - t0
    if code:
        raise SystemExit(f"bench exited {code}")
    return wall


def worker_bench() -> dict:
    """Run the fixed bench command in-process, pinned to one CPU, with every
    stage timed; the functions are replaced in their module and wherever a
    module bound them by name."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    from rffdiv import cli, harness  # noqa: F401  (cli's bindings are wrapped too)

    totals = {stage: 0.0 for _, _, stage in STAGES}
    modules = [m for name, m in sys.modules.items() if name.startswith("rffdiv")]
    for mod_name, fn_name, stage in STAGES:
        original = getattr(importlib.import_module(f"rffdiv.{mod_name}"), fn_name, None)
        if original is None:
            continue
        wrapped = _timed(original, stage, totals)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)
    doc = json.loads(CONFIG.read_text())
    cfg = harness.load_config(doc)
    frames = (len(cfg.devices) * len(cfg.receivers) * cfg.frames_per_device
              * cfg.repeats * len(cfg.snr_db))
    return {
        "wall_s": _bench_wall(),
        "frames": frames,
        "us_per_frame": {s: totals[s] / frames * 1e6 for s in PER_FRAME},
        "s": {s: totals[s] for s in ("train", "eval", "write")},
    }


def worker_wall() -> dict:
    wall = _bench_wall()
    peak_kib = max(resource.getrusage(who).ru_maxrss
                   for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return {"wall_unpinned_s": wall, "peak_rss_mb": peak_kib / 1024.0}


def worker_import() -> dict:
    t0 = time.perf_counter()
    import rffdiv  # noqa: F401
    return {"import_s": time.perf_counter() - t0}


# Measurements that run in a fresh interpreter of their own.
WORKERS = {"import": worker_import, "bench": worker_bench, "wall": worker_wall}


def _python(src: Path, args: list) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, check=True)


def _capture_files(src: Path) -> dict:
    """Wall time of each process on the capture-file path."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        steps = [
            ("simulate", ["simulate", "--config", str(CONFIG), "--out-dir", str(tmp / "sim"),
                          "--seed", "1"]),
            ("extract", ["extract", "--manifest", str(tmp / "sim"), "--out-dir",
                         str(tmp / "feat")]),
            ("train", ["train", "--features", str(tmp / "feat" / "features_hl.csv"),
                       "--out", str(tmp / "hl.json")]),
            ("eval", ["eval", "--model", str(tmp / "hl.json"), "--features",
                      str(tmp / "feat" / "features_hl.csv")]),
        ]
        for name, args in steps:
            t0 = time.perf_counter()
            _python(src, ["-m", "rffdiv.cli", *args])
            out[name] = time.perf_counter() - t0
    return out


def measure(src: Path) -> dict:
    """One run of every measurement against the tree at `src`."""
    script = str(Path(__file__).resolve())
    run = {}
    for kind in WORKERS:
        run.update(json.loads(_python(src, [script, "--worker", kind]).stdout))
    run["capture_files_s"] = _capture_files(src)
    return run


def _median(runs: list):
    """Element-wise median of equally shaped (nested) dicts of numbers."""
    first = runs[0]
    if isinstance(first, dict):
        return {k: _median([r[k] for r in runs]) for k in first}
    return statistics.median(runs)


def _machine() -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy

    return {"cpu": cpu, "cpus": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "system": platform.system()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--pr", type=int, help="PR number: writes BENCH_<pr>.json at the repo root")
    p.add_argument("--baseline", type=Path, help="another tree's src/ directory to measure")
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--out", type=Path, help="output path (default BENCH_<pr>.json)")
    p.add_argument("--worker", choices=list(WORKERS), help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.worker:
        print(json.dumps(WORKERS[args.worker]()))
        return 0
    if args.pr is None and args.out is None:
        p.error("give --pr or --out")
    trees = {"change": ROOT / "src"}
    if args.baseline:
        trees = {"parent": args.baseline.resolve(), **trees}
    runs = {name: [] for name in trees}
    for rep in range(args.repeats):
        order = list(trees) if rep % 2 == 0 else list(reversed(trees))
        for name in order:
            runs[name].append(measure(trees[name]))
            print(f"repeat {rep + 1}/{args.repeats} {name}: bench "
                  f"{runs[name][-1]['wall_s']:.2f} s, "
                  f"{runs[name][-1]['peak_rss_mb']:.1f} MB, extract "
                  f"{runs[name][-1]['capture_files_s']['extract']:.2f} s", file=sys.stderr)
    doc = {
        "pr": args.pr,
        "command": "python scripts/bench_layers.py" + (f" --pr {args.pr}" if args.pr else "")
                   + (" --baseline <parent src>" if args.baseline else "")
                   + f" --repeats {args.repeats}",
        "config": str(CONFIG.relative_to(ROOT)),
        "machine": _machine(),
        **{name: {"median": _median(r), "runs": r} for name, r in runs.items()},
    }
    out = args.out or ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
