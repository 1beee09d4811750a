"""End-to-end and per-layer benchmark of the rffdiv pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Every operation is an `rffdiv` CLI
call started as a fresh `python -m rffdiv.cli` process, one at a time (a
closed loop with one client), timed from outside, with its peak RSS read
from `os.wait4`. Each operation's outputs are checked and hashed.

`--trace 0` measures the end-to-end metrics: set-up (fresh-interpreter
`import rffdiv`, median of several), then whole passes over the workload's
operations until `--seconds` would be exceeded (at least one pass).

`--trace 1` runs one pass in which every CLI call runs twice back to back,
untraced and then under `perfbench/traced.py`, and reports the per-layer
metrics from the traced calls' spans.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. Lines before it list every
operation and metric by name and unit. The full record of the run
(operations, exit codes, last error lines, output digests) is written to
`.perfbench_work/results/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
DEFAULT_CONFIG = ROOT / "configs" / "bench_default.json"
MOBILE_CONFIG = BENCH_DIR / "mobile_snr_sweep.json"
TRACED = BENCH_DIR / "traced.py"

SETUP_IMPORTS = 5
RUN_BUDGET_S = 170.0  # a run must end within 180 s
MOBILE_SNRS = (15.0, 20.0, 25.0, 30.0)
EVAL_ACCURACY_FLOOR = 0.8


@dataclass
class Step:
    """One CLI process."""

    args: list
    wall_s: float
    rss_mb: float
    exit_code: int
    stdout: str
    last_error: str


@dataclass
class Op:
    """One operation: one or more CLI processes plus the checks on what
    they wrote."""

    name: str
    frames: int
    steps: list = field(default_factory=list)
    yielded: int = 0
    accuracy: float | None = None
    digests: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)  # failed output checks
    notes: dict = field(default_factory=dict)
    traced_spans: list = field(default_factory=list)
    untraced_wall_s: float = 0.0  # traced runs: the untraced twins' time
    report: dict | None = None

    @property
    def wall_s(self) -> float:
        return sum(s.wall_s for s in self.steps)

    @property
    def exit_failure(self) -> Step | None:
        return next((s for s in self.steps if s.exit_code != 0), None)

    @property
    def ok(self) -> bool:
        return self.exit_failure is None and not self.problems

    def record(self) -> dict:
        doc = {
            "name": self.name, "ok": self.ok, "wall_s": self.wall_s,
            "frames": self.frames, "yielded": self.yielded if self.ok else 0,
            "accuracy": self.accuracy, "digests": self.digests, "notes": self.notes,
            "steps": [
                {"args": s.args, "wall_s": s.wall_s, "rss_mb": s.rss_mb,
                 "exit_code": s.exit_code, "last_error": s.last_error}
                for s in self.steps
            ],
        }
        failed = self.exit_failure
        if failed is not None:
            doc["failure"] = {
                "exit_code": failed.exit_code,
                "last_error": failed.last_error,
                "cause": error_cause(failed.last_error),
            }
        elif self.problems:
            doc["failure"] = {"exit_code": 0, "check": self.problems}
        return doc


def error_cause(line: str) -> str:
    """Exception class named by a traceback's last line, else the line."""
    head = line.split(":", 1)[0].strip()
    if head and " " not in head:
        return head.rsplit(".", 1)[-1]
    return line


class Runner:
    """Starts CLI processes, one at a time, under a deadline. Once
    `spans_dir` is set, each CLI call runs twice back to back, untraced and
    then traced, so that both see the same machine state; the traced call's
    outputs are the ones checked."""

    def __init__(self, run_dir: Path, deadline: float):
        self.deadline = deadline
        self.spans_dir: Path | None = None
        self.logs = run_dir / "logs"
        self.logs.mkdir(parents=True, exist_ok=True)
        self.count = 0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )

    def python(self, argv: list) -> Step:
        self.count += 1
        out_path = self.logs / f"{self.count:04d}.out"
        err_path = self.logs / f"{self.count:04d}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=self.env,
                                    stdout=out, stderr=err, stdin=subprocess.DEVNULL)
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()),
                                    os.kill, (proc.pid, signal.SIGKILL))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        # Reaped by wait4 (for its rusage); tell Popen so it never waits again.
        proc.returncode = os.waitstatus_to_exitcode(status)
        stderr_lines = [ln for ln in err_path.read_text(errors="replace").splitlines() if ln.strip()]
        last_error = stderr_lines[-1].strip() if stderr_lines else ""
        if proc.returncode == -signal.SIGKILL and time.monotonic() >= self.deadline:
            last_error = "killed: run deadline reached"
        return Step(argv, wall, usage.ru_maxrss / 1024.0, proc.returncode,
                    out_path.read_text(errors="replace"), last_error)

    def cli(self, op: Op, args: list) -> Step:
        step = self.python(["-m", "rffdiv.cli", *args])
        if self.spans_dir is not None:
            op.untraced_wall_s += step.wall_s
            spans = self.spans_dir / f"spans-{self.count + 1:04d}.json"
            step = self.python([str(TRACED), str(spans), "--", *args])
            op.traced_spans.append(spans)
        op.steps.append(step)
        return step


# --- outputs and their checks -------------------------------------------

def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def csv_rows(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh) - 1


def entity_count(spec) -> int:
    return int(spec["count"]) if isinstance(spec, dict) else len(spec)


def bench_frames(doc: dict) -> int:
    """Device frames one `rffdiv bench` run simulates at one SNR."""
    return (entity_count(doc["devices"]) * entity_count(doc["receivers"])
            * int(doc["frames_per_device"]) * int(doc["repeats"]))


def check_bench(op: Op, out: Path, config: dict) -> None:
    """report.json parses, accuracies lie in [0, 1], and every feature CSV
    has one row per frame attempted minus the frames report.json counts as
    dropped."""
    try:
        report = json.loads((out / "report.json").read_text())
        cells, drop_rates = report["cells"], report["drop_rates"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        op.problems.append(f"report.json unreadable: {exc}")
        return
    op.report = report
    op.digests["report.json"] = sha256(out / "report.json")
    accs = [c.get("mean_accuracy") for c in cells]
    if not cells or not all(isinstance(a, (int, float)) and 0.0 <= a <= 1.0 for a in accs):
        op.problems.append(f"accuracies outside [0, 1] or missing: {accs}")
        return
    op.accuracy = statistics.fmean(accs)
    n_links = entity_count(config["devices"]) * entity_count(config["receivers"])
    if len(drop_rates) != n_links:
        op.problems.append(f"drop_rates has {len(drop_rates)} links, expected {n_links}")
        return
    per_link = int(config["frames_per_device"]) * int(config["repeats"])
    dropped = sum(round(rate * per_link) for rate in drop_rates.values())
    op.yielded = op.frames - dropped
    tags = {"RD": ("rd_stf", "rd_ltf"), "HL": ("hl",), "DV": ("dv",)}
    for extractor in config["extractors"]:
        for tag in tags[extractor]:
            path = out / f"features_{tag}.csv"
            if not path.exists():
                op.problems.append(f"{path.name} missing")
                continue
            op.digests[path.name] = sha256(path)
            rows = csv_rows(path)
            if rows != op.yielded:
                op.problems.append(
                    f"{path.name}: {rows} rows, expected {op.frames} frames - {dropped} dropped"
                )


def check_extract(op: Op, step: Step, feat_dir: Path) -> None:
    """The four feature CSVs agree on their row count, and rows plus the
    frames `extract` reports as dropped do not exceed the frames simulated.
    `extract` skips a frame it never detects without counting it, so the
    shortfall is recorded as `unaccounted_frames` and, like every frame
    without features, lowers the frame yield."""
    rows = {}
    for tag in ("dv", "hl", "rd_ltf", "rd_stf"):
        path = feat_dir / f"features_{tag}.csv"
        if not path.exists():
            op.problems.append(f"{path.name} missing")
            continue
        op.digests[path.name] = sha256(path)
        rows[tag] = csv_rows(path)
    if len(set(rows.values())) > 1:
        op.problems.append(f"feature CSV row counts differ: {rows}")
    try:
        dropped = int(step.stdout.rsplit("(", 1)[1].split()[0])
    except (IndexError, ValueError):
        op.problems.append(f"extract output has no drop count: {step.stdout.strip()!r}")
        return
    yielded = max(rows.values(), default=0)
    if yielded + dropped > op.frames:
        op.problems.append(f"{yielded} rows + {dropped} dropped > {op.frames} frames simulated")
    op.yielded = yielded
    op.notes["reported_dropped"] = dropped
    op.notes["unaccounted_frames"] = op.frames - yielded - dropped


def split_by_trial(src: Path, first: Path, second: Path, half: int) -> None:
    """Rows with trial < half go to `first`, the rest to `second`, so that
    `train` and `eval` see different frames of every (device, receiver)."""
    lines = src.read_text().splitlines(keepends=True)
    trial_col = lines[0].split(",").index("trial")
    a, b = [lines[0]], [lines[0]]
    for line in lines[1:]:
        (a if int(line.split(",")[trial_col]) < half else b).append(line)
    first.write_text("".join(a))
    second.write_text("".join(b))


# --- workloads ------------------------------------------------------------

def op_flat_default(runner, seed, out):
    """ROADMAP's fixed command. It keeps the config's own master seed: the
    end-to-end number comes from one fixed input (see README.md)."""
    config = json.loads(DEFAULT_CONFIG.read_text())
    op = Op("bench flat 30dB", bench_frames(config))
    step = runner.cli(op, ["bench", "--config", str(DEFAULT_CONFIG), "--out-dir", str(out)])
    if step.exit_code == 0:
        check_bench(op, out, config)
    return [op]


def ops_mobile_snr_sweep(runner, seed, out):
    config = json.loads(MOBILE_CONFIG.read_text())
    ops = []
    for snr in MOBILE_SNRS:
        op_out = out / f"snr{snr:g}"
        op = Op(f"bench mobile {snr:g}dB", bench_frames(config))
        step = runner.cli(op, ["bench", "--config", str(MOBILE_CONFIG), "--out-dir", str(op_out),
                               "--seed", str(seed), "--snr-db", f"{snr:g}"])
        if step.exit_code == 0:
            check_bench(op, op_out, config)
        ops.append(op)
    return ops


def op_capture_files(runner, seed, out):
    config = json.loads(DEFAULT_CONFIG.read_text())
    frames = (entity_count(config["devices"]) * entity_count(config["receivers"])
              * int(config["frames_per_device"]))
    op = Op("simulate>extract>train>eval", frames)
    sim, feat = out / "sim", out / "features"
    model = out / "hl_model.json"
    train_csv, test_csv = out / "train_hl.csv", out / "test_hl.csv"
    if runner.cli(op, ["simulate", "--config", str(DEFAULT_CONFIG), "--out-dir", str(sim),
                       "--seed", str(seed)]).exit_code:
        return [op]
    step = runner.cli(op, ["extract", "--manifest", str(sim), "--out-dir", str(feat)])
    if step.exit_code:
        return [op]
    check_extract(op, step, feat)
    if op.problems:
        return [op]
    split_by_trial(feat / "features_hl.csv", train_csv, test_csv,
                   int(config["frames_per_device"]) // 2)
    if runner.cli(op, ["train", "--features", str(train_csv), "--out", str(model)]).exit_code:
        return [op]
    step = runner.cli(op, ["eval", "--model", str(model), "--features", str(test_csv)])
    if step.exit_code:
        return [op]
    try:
        acc = float(json.loads(step.stdout.strip().splitlines()[-1])["accuracy"])
    except (IndexError, ValueError, KeyError) as exc:
        op.problems.append(f"eval output unreadable: {exc}")
        return [op]
    op.accuracy = acc
    if not EVAL_ACCURACY_FLOOR <= acc <= 1.0:
        op.problems.append(f"eval accuracy {acc} outside [{EVAL_ACCURACY_FLOOR}, 1]")
    return [op]


WORKLOADS = {
    "flat_default": op_flat_default,
    "mobile_snr_sweep": ops_mobile_snr_sweep,
    "capture_files": op_capture_files,
}


# --- determinism ------------------------------------------------------------

def source_digest() -> str:
    """Identifies the code and inputs under test: the package sources and
    every config the workloads read."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + [DEFAULT_CONFIG, MOBILE_CONFIG]:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class DigestStore:
    """Output digests of earlier operations on the same code, workload and
    seed, kept across runs in the work directory. A digest that differs
    from a stored one means the program is not deterministic."""

    def __init__(self, path: Path, key: str):
        self.path = path
        self.key = key
        try:
            self.doc = json.loads(path.read_text())
        except (OSError, ValueError):
            self.doc = {}
        self.known = self.doc.setdefault(key, {})

    def check(self, op: Op, prefix: str) -> None:
        for name, digest in op.digests.items():
            key = f"{prefix}/{op.name}/{name}"
            seen = self.known.setdefault(key, digest)
            if seen != digest:
                op.problems.append(f"{name}: sha256 {digest[:12]} differs from an earlier "
                                   f"run of the same code ({seen[:12]})")

    def save(self) -> None:
        self.path.write_text(json.dumps({self.key: self.known}, indent=1, sort_keys=True))


# --- measurement ------------------------------------------------------------

def run_pass(runner, workload, seed, out, store):
    start = time.perf_counter()
    ops = WORKLOADS[workload](runner, seed, out)
    for op in ops:
        store.check(op, f"{workload}/seed{seed}")
    return {"ops": ops, "wall_s": sum(op.wall_s for op in ops),
            "frames_done": sum(op.frames for op in ops if op.ok),
            "elapsed_s": time.perf_counter() - start}


def pass_wall(passes) -> float:
    """Sum over the workload's CLI calls of each call's median time over
    the run's passes. On a shared host, other tenants slow a call by up to
    2x for seconds to minutes at a time; taking the median per call keeps a
    slow spell that covers one call from moving the others."""
    times = {}
    for p in passes:
        for i, op in enumerate(p["ops"]):
            for j, step in enumerate(op.steps):
                times.setdefault((i, j), []).append(step.wall_s)
    return sum(statistics.median(t) for t in times.values())


def import_times(runner) -> dict:
    """Cumulative `python -X importtime` seconds of `rffdiv` and of the
    outermost `scipy.stats*` modules it pulls in (scipy loads `stats`
    lazily, so there is no single `scipy.stats` entry)."""
    step = runner.python(["-X", "importtime", "-c", "import rffdiv"])
    err = (runner.logs / f"{runner.count:04d}.err").read_text()
    out = {"rffdiv": 0.0, "scipy.stats": 0.0}
    ancestors = []  # (depth, name); importtime prints children before parents
    for line in reversed(err.splitlines()):
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        depth = len(parts[2]) - len(parts[2].lstrip())
        name = parts[2].strip()
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        seconds = int(parts[1]) * 1e-6
        if name == "rffdiv":
            out["rffdiv"] = seconds
        elif name.startswith("scipy.stats") and not any(
                a.startswith("scipy.stats") for _, a in ancestors):
            out["scipy.stats"] += seconds
        ancestors.append((depth, name))
    if step.exit_code or not out["rffdiv"]:
        raise SystemExit(f"import rffdiv failed: {step.last_error}")
    return out


def end_to_end(passes, setup_times) -> dict:
    ops = [op for p in passes for op in p["ops"]]
    frames = sum(op.frames for op in ops)
    yielded = sum(op.yielded for op in ops if op.ok)
    accs = [op.accuracy for op in ops if op.ok and op.accuracy is not None]
    wall = pass_wall(passes)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (wall, "s"),
        "frames_per_s": (statistics.median(p["frames_done"] for p in passes) / wall, "1/s"),
        "peak_rss_mb": (max(s.rss_mb for op in ops for s in op.steps), "MB"),
        "frame_yield_ratio": (yielded / frames, "ratio"),
        "mean_accuracy": (statistics.fmean(accs) if accs else 0.0, "ratio"),
        "op_success_ratio": (sum(op.ok for op in ops) / len(ops), "ratio"),
    }


def percentile(values, q):
    """Nearest-rank percentile; 0 when there are no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[min(len(ordered) - 1, max(0, round(q / 100 * len(ordered)) - 1))])


def per_layer(traced_pass, imports) -> dict:
    """Aggregate the traced pass's spans into per-layer metrics. `frames`
    is the number of frames the pass simulated (`harness.simulate_capture`
    calls), the base of every per-frame figure."""
    total, self_s, calls = {}, {}, {}
    exceptions, truth, files = {}, [], {}
    for op in traced_pass["ops"]:
        for path in op.traced_spans:
            if not path.exists():
                continue
            doc = json.loads(path.read_text())
            names, spans = doc["names"], doc["spans"]
            child = [0.0] * len(spans)
            for _, start, end, parent in spans:
                if parent >= 0:
                    child[parent] += end - start
            for i, (name_id, start, end, _) in enumerate(spans):
                name = names[name_id]
                total[name] = total.get(name, 0.0) + end - start
                self_s[name] = self_s.get(name, 0.0) + end - start - child[i]
                calls[name] = calls.get(name, 0) + 1
            for cause, n in doc["exceptions"].items():
                exceptions[cause] = exceptions.get(cause, 0) + n
            truth.extend(doc["frames"])
            for name, paths in doc["files"].items():
                files.setdefault(name, set()).update(paths)

    frames = calls.get("harness.simulate_capture", 0)
    untraced_wall = sum(op.untraced_wall_s for op in traced_pass["ops"])

    def us_per_frame(value):
        return value * 1e6 / frames if frames else 0.0

    def mb(*names):
        return sum(os.path.getsize(p) for n in names for p in files.get(n, ()) if os.path.exists(p)) / 1e6

    sync_err = [abs(f["n1"] - f["lead"]) for f in truth if f["n1"] is not None]
    cfo_err = [abs(f["cfo_est_hz"] - f["cfo_hz"]) for f in truth if f["cfo_est_hz"] is not None]
    missync = sum(1 for f in truth
                  if f["outcome"] == "features" and f["n1"] is not None and abs(f["n1"] - f["lead"]) > 8)
    attempts = [rec["attempts"] for op in traced_pass["ops"] if op.report
                for recs in op.report.get("model_info", {}).values() for rec in recs]

    def drop_share(cause):
        return exceptions.get(cause, 0) / frames if frames else 0.0

    m = {
        "setup.import_rffdiv_s": (imports["rffdiv"], "s"),
        "setup.import_scipy_stats_s": (imports["scipy.stats"], "s"),
        "harness.derive_seed.calls": (calls.get("harness.derive_seed", 0), "count"),
        "harness.derive_seed.us_per_frame": (us_per_frame(total.get("harness.derive_seed", 0.0)), "us/frame"),
        "harness.simulate_capture.self_us_per_frame":
            (us_per_frame(self_s.get("harness.simulate_capture", 0.0)), "us/frame"),
        "harness.run_experiment.self_s": (self_s.get("harness.run_experiment", 0.0), "s"),
        "harness.model_capture.attempts_per_capture":
            (statistics.fmean(attempts) if attempts else 0.0, "attempts"),
        "impairments.apply_transmitter.calls": (calls.get("impairments.apply_transmitter", 0), "count"),
    }
    for name in ("impairments.apply_transmitter", "impairments.apply_receiver",
                 "channel.sample_channel", "channel.apply_channel",
                 "preprocess.detect", "preprocess.sync", "preprocess.cfo",
                 "features.field_spectrum", "features.extract"):
        m[f"{name}.us_per_frame"] = (us_per_frame(total.get(name, 0.0)), "us/frame")
    m["channel.sample_channel.calls"] = (calls.get("channel.sample_channel", 0), "count")
    for metric, cause in (("preprocess.drops.not_detected", "NotDetectedError"),
                          ("preprocess.drops.sync_failed", "SyncFailedError"),
                          ("preprocess.drops.estimation_failed", "EstimationFailedError"),
                          ("features.drops.window_bounds", "WindowBoundsError"),
                          ("features.drops.degenerate_denominator", "DegenerateDenominatorError"),
                          ("features.drops.degenerate_model", "DegenerateModelError")):
        m[metric] = (drop_share(cause), "1/frame")
    m.update({
        "preprocess.sync_error_samples.p50": (percentile(sync_err, 50), "samples"),
        "preprocess.sync_error_samples.p99": (percentile(sync_err, 99), "samples"),
        "preprocess.cfo_error_hz.p50": (percentile(cfo_err, 50), "Hz"),
        "preprocess.cfo_error_hz.p99": (percentile(cfo_err, 99), "Hz"),
        "preprocess.missync_frames": (missync, "count"),
        "refselect.eta_lf.s": (total.get("refselect.eta_lf", 0.0), "s"),
        "classify.train.calls": (calls.get("classify.train", 0), "count"),
        "classify.train.s": (total.get("classify.train", 0.0), "s"),
        "classify.evaluate.s": (total.get("classify.evaluate", 0.0), "s"),
        "data_io.write_features.s": (total.get("data_io.write_features", 0.0), "s"),
        "data_io.write_features.mb": (mb("data_io.write_features"), "MB"),
        "data_io.read_features.s": (total.get("data_io.read_features", 0.0), "s"),
        "data_io.write_iq.s": (total.get("data_io.write_iq", 0.0), "s"),
        "data_io.read_iq.s": (total.get("data_io.read_iq", 0.0), "s"),
        "data_io.iq.mb": (mb("data_io.write_iq", "data_io.read_iq"), "MB"),
        "cli.simulate.s": (total.get("cli.simulate", 0.0), "s"),
        "cli.extract.s": (total.get("cli.extract", 0.0), "s"),
        "cli.train.s": (total.get("cli.train", 0.0), "s"),
        "cli.eval.s": (total.get("cli.eval", 0.0), "s"),
        "trace.overhead_ratio": (traced_pass["wall_s"] / untraced_wall, "ratio"),
    })
    m["_frames"] = frames
    m["_exceptions"] = exceptions
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    t0 = time.monotonic()

    missing = [p for p in (SRC / "rffdiv" / "cli.py", DEFAULT_CONFIG, MOBILE_CONFIG) if not p.exists()]
    if missing:
        print(f"not a source checkout: missing {', '.join(map(str, missing))}", file=sys.stderr)
        return 2

    run_dir = WORK / "run"
    shutil.rmtree(run_dir, ignore_errors=True)
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    runner = Runner(run_dir, t0 + RUN_BUDGET_S)
    store = DigestStore(WORK / "digests.json", source_digest())

    # Also checks that the package under test is this checkout's. On a fresh
    # checkout the first import compiles bytecode; the median discounts it.
    setup_times = []
    for _ in range(1 if args.trace else SETUP_IMPORTS):
        step = runner.python(["-c", "import rffdiv; print(rffdiv.__file__)"])
        if step.exit_code or not Path(step.stdout.strip()).resolve().is_relative_to(SRC.resolve()):
            print(f"cannot import rffdiv from {SRC}: {step.last_error or step.stdout.strip()}",
                  file=sys.stderr)
            return 2
        setup_times.append(step.wall_s)

    if args.trace:
        imports = import_times(runner)
        runner.spans_dir = run_dir / "spans"
        runner.spans_dir.mkdir()
        passes = [run_pass(runner, args.workload, args.seed, run_dir / "pass0", store)]
        metrics = per_layer(passes[0], imports)
        extra = {"frames": metrics.pop("_frames"), "exceptions": metrics.pop("_exceptions")}
    else:
        passes = []
        while True:
            i = len(passes)
            passes.append(run_pass(runner, args.workload, args.seed, run_dir / f"pass{i}", store))
            shutil.rmtree(run_dir / f"pass{i}", ignore_errors=True)
            mean_pass = statistics.fmean(p["elapsed_s"] for p in passes)
            measured = sum(p["elapsed_s"] for p in passes)
            if measured + mean_pass > args.seconds or time.monotonic() + 2 * mean_pass > t0 + RUN_BUDGET_S:
                break
        metrics = end_to_end(passes, setup_times)
        extra = {"setup_times_s": setup_times}
    store.save()

    ops = [op for p in passes for op in p["ops"]]
    failed = [op for op in ops if not op.ok]
    correct = not any(op.problems for op in ops)
    for i, p in enumerate(passes):
        for op in p["ops"]:
            rec = op.record()
            status = "ok" if op.ok else f"FAILED {rec['failure']}"
            print(f"pass {i} {op.name}: {op.wall_s:.3f} s, {op.frames} frames, "
                  f"{rec['yielded']} yielded, {status}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    if not args.trace:
        print(f"(op_failure_ratio = {len(failed) / len(ops):.6g} ratio, "
              f"frame_drop_ratio = {1 - metrics['frame_yield_ratio'][0]:.6g} ratio)")

    result = {
        "correct": correct,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "source_sha256": store.key, **extra,
        "passes": [{"wall_s": p["wall_s"], "frames_done": p["frames_done"],
                    "ops": [op.record() for op in p["ops"]]} for p in passes],
        "result": result,
    }
    out = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
