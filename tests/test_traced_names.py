"""`perfbench/traced.py` and `scripts/bench_layers.py` wrap rffdiv
functions by (module, name), and the tracer reads a few result fields. A
rename or deletion in rffdiv would make their runs fail only when someone
runs them; these checks fail at once instead."""

import importlib
import importlib.util
import inspect
from dataclasses import fields
from pathlib import Path

from rffdiv import harness as hz
from rffdiv import preprocess as pp

ROOT = Path(__file__).resolve().parents[1]


def _load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _unresolved(entries) -> list:
    """The (module, function) pairs of `entries` that rffdiv does not define."""
    return [(mod, fn) for mod, fn, _ in entries
            if not callable(getattr(importlib.import_module(f"rffdiv.{mod}"), fn, None))]


def test_every_traced_function_resolves():
    traced = _load(ROOT / "perfbench" / "traced.py", "perfbench_traced").TRACED
    assert traced
    assert _unresolved(traced) == []


def test_every_bench_layers_stage_resolves():
    stages = _load(ROOT / "scripts" / "bench_layers.py", "bench_layers").STAGES
    assert stages
    assert _unresolved(stages) == []


def test_result_fields_the_tracer_reads_exist():
    assert "frame_start_n1" in {f.name for f in fields(pp.SyncResult)}
    assert "total_hz" in {f.name for f in fields(pp.CfoEstimate)}


def test_frame_blocks_is_a_generator_function():
    """`bench_layers` times a generator function by its iteration; a
    `frame_blocks` that returned its capture loop's generator would time
    at about 0 µs per frame, with no error."""
    assert inspect.isgeneratorfunction(hz.frame_blocks)
