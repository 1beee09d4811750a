"""Command-line front end.

Subcommands cover the full workflow: `simulate` writes IQ captures,
`extract` turns captures into feature tables, `select-ref` ranks candidate
reference devices from their CSI amplitudes, `train` fits a model from a
feature table, `eval` scores a model against a table, and `bench` runs a
whole experiment config end to end.

Exit codes: 0 success, 2 configuration error, 3 pipeline error.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import ExitStack
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from . import classify as cl
from . import data_io, harness
from .features import FieldSpectrum, field_spectrum
from .preprocess import NotDetectedError
from .refselect import eta_lf
from .signals import SAMPLE_RATE, ComplexSignal, Frames
from .waveform import FFT_SIZE, FIELD_WINDOWS, WINDOWS, WindowBoundsError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PIPELINE = 3


def _load_json(path) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise harness.ConfigError(f"cannot read {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise harness.ConfigError(f"{path}: expected a JSON object")
    return doc


def _apply_overrides(doc: dict, args) -> dict:
    """`doc` with the --seed, --snr-db and --extractor given over its keys."""
    extractor = getattr(args, "extractor", None)
    given = {"master_seed": args.seed, "snr_db": args.snr_db,
             "extractors": extractor and [extractor]}
    return doc | {key: value for key, value in given.items() if value is not None}


def _write_capture(cfg, out: Path, snr_db: float, capture) -> None:
    """Simulate one capture file's frames and write its `.iq` and sidecar;
    `capture` is (sent, rx profile, transmitter index, receiver index,
    frames, file name)."""
    sent, rx, di, rj, n_frames, name = capture
    blocks = harness.frame_blocks(cfg, sent, rx, snr_db, 0, di, rj, n_frames)
    segments = [frames.samples[i, :n] for _, frames in blocks
                for i, n in enumerate(frames.lengths)]
    data_io.write_iq(out / name, ComplexSignal(np.concatenate(segments)))


def cmd_simulate(args) -> int:
    cfg = harness.load_config(_apply_overrides(_load_json(args.config), args))
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    devices, receivers, reference = harness._profiles(cfg)
    snr = cfg.snr_db[0]
    entries, captures = [], []
    roster = [(d, "device", di) for di, d in enumerate(devices)]
    if reference is not None:
        roster.append((reference, "reference", len(devices)))
    for tx, role, di in roster:
        sent = harness._transmit(tx)
        n_frames = (cfg.frames_per_device if role == "device"
                    else max(4, cfg.frames_per_device // 10))
        for rj, rx in enumerate(receivers):
            name = f"{tx.device_id}_{rx.device_id}.iq"
            captures.append((sent, rx, di, rj, n_frames, name))
            entries.append({
                "path": name, "device": tx.device_id, "receiver": rx.device_id,
                "frames": n_frames, "role": role,
            })
    # each file is its own task; the files do not depend on one another
    task = partial(_write_capture, cfg, out, snr)
    for _ in harness.map_ordered(task, captures):
        pass
    manifest = {
        "format_version": 1,
        "scenario": cfg.channel["scenario"],
        "snr_db": snr,
        "sample_rate": SAMPLE_RATE,
        # `metric` is kept until manifest format 2 (ROADMAP item 6)
        "detection": {"window_w": cfg.detection_window,
                      "threshold_multiplier": cfg.detection_multiplier, "metric": "magnitude"},
        "captures": entries,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    print(f"wrote {len(entries)} captures to {out}")
    return EXIT_OK


# How `extract` walks a capture file that holds frames back to back. Each
# step examines one segment of the file, acquires at most one frame there,
# and moves on by the step's outcome:
#  - no frame detected: by SEGMENT_LEN less one detection window, so that
#    consecutive segments overlap by a window and the samples after a
#    segment's last whole window are scanned by the next one;
#  - a frame detected but not acquired (sync or CFO estimation failed):
#    by FAILED_SKIP;
#  - a frame acquired at start n1: by n1 + FRAME_ADVANCE;
#  - a frame acquired so late that a field window the walk reads runs past
#    the segment, in a file that holds more samples: by n1 less two
#    detection windows (at least 1 sample). The frame takes no index there;
#    the next segment's noise-floor window is quiet and the segment holds
#    the whole frame, which is walked again. A frame that the capture's
#    end cuts off is dropped as a `WindowBoundsError`, like a failed
#    acquisition: it takes an index and the walk moves on by FAILED_SKIP.
# Samples per segment: more than one simulated frame capture (a lead gap of
# at most 296 samples, the 400-sample preamble and a 120-sample tail make
# 816), so a segment that starts in the quiet gap before a frame holds the
# frame's whole preamble and sync search.
SEGMENT_LEN = 1100
# The walk ends when fewer samples remain: they cannot hold a default
# 80-sample noise window followed by a frame's FRAME_ADVANCE samples.
MIN_SEGMENT = 500
# A frame that failed acquisition has no trusted start, so the walk moves
# past it by a noise window and a frame span (80 + FRAME_ADVANCE) and
# looks again.
FAILED_SKIP = 500
# The 400-sample HT-MF preamble plus 20 samples: the next segment starts in
# the quiet tail after the frame, where its noise-floor window belongs.
FRAME_ADVANCE = 420


@dataclass(frozen=True)
class _Step:
    """One lock-step block: row i is a segment of capture `captures[i]`.
    `frame_index[i]` is the index the row's frame gets in its capture, or
    -1 when the segment held no detected frame or one walked again from
    the next segment; `spectra` are the block's field spectra, whose `drops`
    leave live the rows whose frame was acquired."""

    captures: list
    frame_index: np.ndarray
    spectra: dict


def _walk_captures(readers, detection, fields, until_acquired: bool = False):
    """Walk capture files in lock-step, one block row per file still being
    walked (`readers`: at most `harness.BLOCK_ROWS` `data_io.IqReader`s),
    detecting with `detection`, a (window_w, threshold_multiplier) pair.
    Each step acquires the current segment of every row as one block,
    then advances each row by its own outcome, so a row sees exactly the
    segments it would see walked alone. Yields a `_Step` per block; with
    `until_acquired` a file is walked only up to its first acquired frame.
    The readers are closed when the walk ends."""
    window_w, multiplier = detection
    quiet_skip = SEGMENT_LEN - window_w
    rewalk_lead = 2 * window_w
    frame_end = max(WINDOWS[name].start_index - 1 + FFT_SIZE
                    for f in fields for name in FIELD_WINDOWS[f])
    with ExitStack() as stack:
        for reader in readers:
            stack.enter_context(reader)
        pos = [0] * len(readers)
        count = [0] * len(readers)
        active = [i for i, r in enumerate(readers) if MIN_SEGMENT <= len(r)]
        # 16 rows of 1100 samples are 275 KiB, over the 256 KiB from which numpy
        # elides temporaries and reorders a complex product (see
        # preprocess.apply_cfo); the stages take only magnitudes of the full
        # width and multiply complex values on the 384-sample span or narrower.
        while active:
            lengths = np.array([min(SEGMENT_LEN, len(readers[i]) - pos[i]) for i in active])
            block = np.zeros((len(active), int(lengths.max())), dtype=np.complex128)
            for row, i in enumerate(active):
                block[row, : lengths[row]] = readers[i].read(pos[i], pos[i] + lengths[row])
            frames = Frames(block, lengths)
            compensated, sync, _ = harness._acquire(frames, window_w, multiplier)
            n1 = sync.frame_start_n1
            more = np.array([pos[i] for i in active]) + lengths < [len(readers[i]) for i in active]
            frames.drops.drop(n1 + frame_end > lengths, WindowBoundsError,
                              "frame runs past its segment")
            spectra = {f: field_spectrum(compensated, n1, f) for f in fields}
            acquired = frames.drops.live
            frame_index = np.full(len(active), -1)
            for row, (i, exc) in enumerate(zip(active, frames.drops.errors)):
                if isinstance(exc, NotDetectedError):
                    pos[i] += quiet_skip
                    continue
                if isinstance(exc, WindowBoundsError) and more[row]:
                    pos[i] += max(int(n1[row]) - rewalk_lead, 1)
                    continue
                frame_index[row] = count[i]
                count[i] += 1
                pos[i] += FAILED_SKIP if exc else int(n1[row]) + FRAME_ADVANCE
            yield _Step(active, frame_index, spectra)
            active = [i for row, i in enumerate(active)
                      if pos[i] + MIN_SEGMENT <= len(readers[i])
                      and not (until_acquired and acquired[row])]


def _load_manifest(path_arg) -> tuple[dict, Path]:
    man_path = Path(path_arg)
    if man_path.is_dir():
        man_path = man_path / "manifest.json"
    if not man_path.exists():
        raise harness.ConfigError(f"manifest not found: {man_path}")
    doc = _load_json(man_path)
    try:
        manifest = harness._read(harness._MANIFEST, doc, "manifest")
        harness._distinct([str(Path(c["path"])) for c in manifest["captures"]], "captures")
        return manifest, man_path.parent
    except harness.ConfigError as exc:
        raise harness.ConfigError(f"{man_path}: {exc}") from exc


def _lockstep_groups(captures, readers: dict, role: str) -> list:
    """Manifest indices of the `role` captures in manifest order, cut into
    lock-step groups of at most `harness.BLOCK_ROWS` captures: one group
    per usable CPU where that leaves fewer."""
    idx = [i for i in readers if captures[i]["role"] == role]
    size = max(1, min(harness.BLOCK_ROWS, -(-len(idx) // harness.usable_cpus())))
    return [idx[k : k + size] for k in range(0, len(idx), size)]


def _extract_group(manifest, detection, extractors, fields, models, job) -> list:
    """The `harness.LinkFeatures` of each capture of a lock-step group of
    device captures (`job`: manifest indices, readers), each row divided by
    its own receiver's model (`models`). The worker formats the CSV rows
    (trial: frame index) and drops the feature blocks, which extract only writes."""
    group, readers = job
    captures = [manifest["captures"][i] for i in group]

    def blocks():
        for step in _walk_captures(readers, detection, fields):
            rx_ids = [captures[c]["receiver"] for c in step.captures]
            feats = harness._extract_all(step.spectra, extractors,
                                         [models.get(rx) for rx in rx_ids], rx_ids, None)
            yield np.array(step.captures), step.frame_index, feats, step.spectra[fields[0]].drops
    links = harness._link_records(blocks(), len(group))
    for cap, link in zip(captures, links):
        link.format_csv(cap["device"], cap["receiver"], manifest["scenario"], manifest["snr_db"])
        link.features = {}
    return links


def cmd_extract(args) -> int:
    manifest, base = _load_manifest(args.manifest)
    captures = manifest["captures"]
    extractors = [args.extractor] if args.extractor else list(harness.EXTRACTORS)
    use_rd = harness._needs_reference(extractors)
    if use_rd and not any(c["role"] == "reference" for c in captures):
        raise harness.ConfigError("reference-division extraction needs reference captures")
    detection = (manifest["detection"]["window_w"], manifest["detection"]["threshold_multiplier"])
    fields = harness._needed_fields(extractors)
    roles = ("device", "reference") if use_rd else ("device",)
    readers = {i: data_io.IqReader(base / cap["path"])
               for i, cap in enumerate(captures) if cap["role"] in roles}
    model_spectra = {}  # none without RD: no reference capture has a reader
    for group in _lockstep_groups(captures, readers, "reference"):
        for step in _walk_captures([readers[i] for i in group], detection, fields,
                                   until_acquired=True):
            for row in np.flatnonzero(step.spectra[fields[0]].drops.live):
                model_spectra[group[step.captures[row]]] = {f: FieldSpectrum(f, s.bins[row])
                                                            for f, s in step.spectra.items()}
    # in manifest order, so a later capture of a receiver wins
    models = {captures[i]["receiver"]: harness.ModelCapture(captures[i]["receiver"], spectra, 1)
              for i, spectra in sorted(model_spectra.items())}
    # the device groups are independent, so they run on every usable CPU; each
    # group's rows go to the writer as the group arrives, in manifest order
    task = partial(_extract_group, manifest, detection, extractors, fields, models)
    out = Path(args.out_dir)
    n_rows = dropped = 0
    with data_io.feature_tables(out) as write_rows:
        for links in harness.map_ordered(task, [
                (group, [readers[i] for i in group])
                for group in _lockstep_groups(captures, readers, "device")]):
            for link in links:
                write_rows(link.csv)
                n_rows += len(link.frames) * len(link.csv)  # every table has the same rows
                dropped += link.dropped
    if not n_rows:
        print("no frames survived extraction", file=sys.stderr)
        return EXIT_PIPELINE
    print(f"wrote {n_rows} feature rows ({dropped} frames dropped) to {out}")
    return EXIT_OK


def cmd_select_ref(args) -> int:
    try:
        lines = Path(args.csi).read_text().splitlines()
    except (OSError, ValueError) as exc:
        raise harness.ConfigError(f"cannot read {args.csi}: {exc}") from exc
    if not lines or not lines[0].startswith("device"):
        raise harness.ConfigError(f"{args.csi}: expected header 'device,v0,...'")
    scores = []
    for line in lines[1:]:
        if not line:
            continue
        cells = line.split(",")
        try:
            amp = np.array([float(c) for c in cells[1:]])
            if (amp < 0).any():
                raise ValueError("CSI amplitudes must be nonnegative")
            if cells[0] in {s.device_id for s in scores}:
                raise ValueError("device listed twice")
            scores.append(eta_lf(amp, device_id=cells[0]))
        except ValueError as exc:
            raise harness.ConfigError(f"{args.csi}: bad row {cells[0]!r}: {exc}") from exc
    if not scores:
        raise harness.ConfigError(f"{args.csi}: no candidate rows")
    scores.sort(key=lambda s: -s.eta_lf)
    text = "".join(["device,eta_lf,energy_before,energy_after\n"] + [
        f"{s.device_id},{s.eta_lf:.12g},{s.energy_before:.12g},{s.energy_after:.12g}\n"
        for s in scores])
    if args.out:
        Path(args.out).write_text(text)
    print(text, end="")
    print(f"selected reference: {scores[0].device_id}", file=sys.stderr)
    return EXIT_OK


def cmd_train(args) -> int:
    table = data_io.read_features(args.features)
    if not len(table):
        raise harness.ConfigError(f"{args.features}: empty feature table")
    doc = _load_json(args.config) if args.config else {}
    if args.seed is not None:
        doc["seed"] = args.seed
    cfg = harness._train_config(doc, "training config")
    try:
        model = cl.train(table.feature_vectors(), cfg)
    except cl.TrainError as exc:
        raise harness.ConfigError(str(exc)) from exc
    cl.save_model(model, args.out, cfg)
    print(f"trained {model.trained_on} model on {len(table)} rows "
          f"({len(model.classes)} classes) -> {args.out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    model = cl.load_model(args.model)
    table = data_io.read_features(args.features)
    if not len(table):
        raise harness.ConfigError(f"{args.features}: empty feature table")
    try:
        acc = cl.evaluate(model, table.feature_vectors())
    except (cl.EvalError, cl.PredictError) as exc:
        raise harness.ConfigError(str(exc)) from exc
    doc = {
        "model": str(args.model), "features": str(args.features),
        "extractor": model.trained_on, "n_test": len(table), "accuracy": acc,
    }
    if args.out_dir:
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "eval.json").write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    print(json.dumps(doc, sort_keys=True))
    return EXIT_OK


def cmd_bench(args) -> int:
    cfg = harness.load_config(_apply_overrides(_load_json(args.config), args))
    report = harness.run_experiment(cfg, args.out_dir)
    harness.write_report(report, args.out_dir)
    for cell in report.cells:
        print(f"snr={cell['snr_db']:g} {cell['extractor']:6s} "
              f"train={cell['train']} test={cell['test']} "
              f"acc={cell['mean_accuracy']:.4f} +- {cell['std_accuracy']:.4f}")
    print(f"report written to {args.out_dir}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="rffdiv", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate IQ captures from an experiment config")
    sim.add_argument("--config", required=True)
    sim.add_argument("--out-dir", required=True)
    sim.add_argument("--seed", type=int)
    sim.add_argument("--snr-db", type=float)
    sim.set_defaults(func=cmd_simulate)

    ext = sub.add_parser("extract", help="extract feature tables from IQ captures")
    ext.add_argument("--manifest", required=True, help="manifest.json or its directory")
    ext.add_argument("--out-dir", required=True)
    ext.add_argument("--extractor", choices=harness.EXTRACTORS)
    ext.set_defaults(func=cmd_extract)

    sel = sub.add_parser("select-ref", help="rank candidate reference devices by eta_LF")
    sel.add_argument("--csi", required=True, help="CSV with header device,v0,...")
    sel.add_argument("--out")
    sel.set_defaults(func=cmd_select_ref)

    tr = sub.add_parser("train", help="train a classifier from a feature table")
    tr.add_argument("--features", required=True)
    tr.add_argument("--out", required=True)
    tr.add_argument("--config", help="JSON with training hyperparameters")
    tr.add_argument("--seed", type=int)
    tr.set_defaults(func=cmd_train)

    ev = sub.add_parser("eval", help="evaluate a model against a feature table")
    ev.add_argument("--model", required=True)
    ev.add_argument("--features", required=True)
    ev.add_argument("--out-dir")
    ev.set_defaults(func=cmd_eval)

    be = sub.add_parser("bench", help="run a full experiment config")
    be.add_argument("--config", required=True)
    be.add_argument("--out-dir", required=True)
    be.add_argument("--seed", type=int)
    be.add_argument("--snr-db", type=float)
    be.add_argument("--extractor", choices=harness.EXTRACTORS)
    be.set_defaults(func=cmd_bench)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (harness.ConfigError, cl.TrainError, cl.ModelFileError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (harness.PipelineError, data_io.IoError) as exc:
        print(f"pipeline error: {exc}", file=sys.stderr)
        return EXIT_PIPELINE


if __name__ == "__main__":
    sys.exit(main())
