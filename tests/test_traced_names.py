"""`perfbench/traced.py` wraps rffdiv functions by (module, name) and reads
a few result fields. A rename or deletion in rffdiv would make its traced
run fail only when someone runs it; these checks fail at once instead."""

import importlib
import importlib.util
from dataclasses import fields
from pathlib import Path

from rffdiv import preprocess as pp

TRACED_PY = Path(__file__).resolve().parents[1] / "perfbench" / "traced.py"


def _traced_module():
    spec = importlib.util.spec_from_file_location("perfbench_traced", TRACED_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    traced = _traced_module().TRACED
    assert traced
    missing = [(mod, fn) for mod, fn, _ in traced
               if not callable(getattr(importlib.import_module(f"rffdiv.{mod}"), fn, None))]
    assert missing == []


def test_result_fields_the_tracer_reads_exist():
    assert "frame_start_n1" in {f.name for f in fields(pp.SyncResult)}
    assert "total_hz" in {f.name for f in fields(pp.CfoEstimate)}
