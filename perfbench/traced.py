"""Run one `rffdiv` CLI call in-process with every layer boundary traced.

    python3 perfbench/traced.py SPANS_JSON -- <rffdiv cli arguments>

Imports `rffdiv`, wraps the public functions each layer offers (in the
module that defines them and in every module that bound them by name with
`from .x import f`), then calls `rffdiv.cli.main`. Spans (name, start, end,
parent) are kept in memory and written to SPANS_JSON when the call ends,
together with per-frame ground truth and the exceptions seen at each
boundary. The exit status is the one the CLI would have had, so a traced
operation fails exactly as the untraced one does.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (module, function, span name). The span name is the layer and the
# operation; `run.py` aggregates by it.
TRACED = [
    ("harness", "derive_seed", "harness.derive_seed"),
    ("harness", "simulate_capture", "harness.simulate_capture"),
    ("harness", "run_experiment", "harness.run_experiment"),
    ("harness", "_capture_model", "harness.capture_model"),
    ("impairments", "apply_transmitter", "impairments.apply_transmitter"),
    ("impairments", "apply_receiver", "impairments.apply_receiver"),
    ("channel", "sample_channel", "channel.sample_channel"),
    ("channel", "apply_channel", "channel.apply_channel"),
    ("preprocess", "synchronize_and_compensate", "preprocess.acquire"),
    ("preprocess", "noise_floor_threshold", "preprocess.detect"),
    ("preprocess", "detect_signal", "preprocess.detect"),
    ("preprocess", "synchronize", "preprocess.sync"),
    ("preprocess", "estimate_cfo_coarse", "preprocess.cfo"),
    ("preprocess", "estimate_cfo_fine", "preprocess.cfo"),
    ("preprocess", "compensate_cfo", "preprocess.cfo"),
    ("features", "field_spectrum", "features.field_spectrum"),
    ("features", "extract_rd", "features.extract"),
    ("features", "extract_hl", "features.extract"),
    ("features", "extract_dv", "features.extract"),
    ("refselect", "eta_lf", "refselect.eta_lf"),
    ("classify", "train", "classify.train"),
    ("classify", "evaluate", "classify.evaluate"),
    ("classify", "evaluate_fused", "classify.evaluate"),
    ("data_io", "write_features", "data_io.write_features"),
    ("data_io", "read_features", "data_io.read_features"),
    ("data_io", "write_iq", "data_io.write_iq"),
    ("data_io", "read_iq", "data_io.read_iq"),
    ("cli", "cmd_simulate", "cli.simulate"),
    ("cli", "cmd_extract", "cli.extract"),
    ("cli", "cmd_train", "cli.train"),
    ("cli", "cmd_eval", "cli.eval"),
]

# Spans whose first argument is a file path; run.py sums their file sizes.
FILE_SPANS = ("data_io.write_features", "data_io.write_iq", "data_io.read_iq")


class Tracer:
    """Span stack plus the ground-truth bookkeeping of one process."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.spans: list[list] = []  # [name_id, start, end, parent_index]
        self.stack: list[int] = []
        self.files: dict[str, list] = {name: [] for name in FILE_SPANS}
        self.exceptions: dict[str, int] = {}
        self.frames: list[dict] = []  # frames simulated outside model captures, with truth
        self.frame: dict | None = None
        self._last_exc = None

    def _in_model_capture(self) -> bool:
        model_id = self.name_ids.get("harness.capture_model")
        return model_id is not None and any(self.spans[i][0] == model_id for i in self.stack)

    def wrap(self, fn, name: str):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self.name_ids[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else -1
            index = len(self.spans)
            span = [name_id, time.perf_counter(), 0.0, parent]
            self.spans.append(span)
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = time.perf_counter()
                self._on_exception(exc)
                raise
            else:
                span[2] = time.perf_counter()
                self._on_return(fn.__name__, name, args, result)
                return result
            finally:
                self.stack.pop()

        return traced

    def _on_exception(self, exc: BaseException) -> None:
        # The innermost boundary sees an exception first; outer wrappers
        # see the same object again and must not count it twice.
        if exc is self._last_exc:
            return
        self._last_exc = exc
        if self._in_model_capture():
            return
        cause = type(exc).__name__
        self.exceptions[cause] = self.exceptions.get(cause, 0) + 1
        if self.frame is not None and self.frame["outcome"] is None:
            self.frame["outcome"] = cause

    def _on_return(self, fn_name: str, name: str, args, result) -> None:
        if name in self.files:
            self.files[name].append(str(args[0]))
        if fn_name == "simulate_capture" and not self._in_model_capture():
            capture, lead = result
            tx, rx = args[0], args[1]
            self._close_frame()
            self.frame = {
                "capture": capture, "lead": int(lead),
                "cfo_hz": float(tx.cfo_hz - rx.cfo_hz),
                "n1": None, "cfo_est_hz": None, "outcome": None, "extracted": False,
            }
            return
        frame = self.frame
        if frame is None:
            return
        if fn_name.startswith("extract_"):
            frame["extracted"] = True
        elif args and args[0] is frame["capture"]:
            if fn_name == "synchronize":
                frame["n1"] = int(result.frame_start_n1)
            elif fn_name == "synchronize_and_compensate":
                frame["cfo_est_hz"] = float(result[2].total_hz)

    def _close_frame(self) -> None:
        if self.frame is None:
            return
        frame = self.frame
        self.frame = None
        if frame["outcome"] is None:
            frame["outcome"] = "features" if frame["extracted"] else "none"
        del frame["capture"], frame["extracted"]
        self.frames.append(frame)

    def dump(self, path: str) -> None:
        self._close_frame()
        doc = {
            "names": self.names, "spans": self.spans, "files": self.files,
            "exceptions": self.exceptions, "frames": self.frames,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def install(tracer: Tracer) -> None:
    """Replace each traced function in its defining module and in every
    rffdiv module that holds a binding to the same object."""
    import importlib

    import rffdiv  # noqa: F401
    from rffdiv import cli  # noqa: F401  (cli is not imported by the package)

    modules = [m for key, m in sys.modules.items() if key == "rffdiv" or key.startswith("rffdiv.")]
    for mod_name, fn_name, span_name in TRACED:
        home = importlib.import_module(f"rffdiv.{mod_name}")
        original = getattr(home, fn_name)
        wrapped = tracer.wrap(original, span_name)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        print("usage: traced.py SPANS_JSON -- <rffdiv cli arguments>", file=sys.stderr)
        return 2
    out_path, argv = sys.argv[1], sys.argv[3:]
    tracer = Tracer()
    install(tracer)
    from rffdiv import cli

    try:
        return cli.main(argv)
    finally:
        tracer.dump(out_path)


if __name__ == "__main__":
    sys.exit(main())
