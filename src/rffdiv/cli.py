"""Command-line front end.

Subcommands cover the full workflow: `simulate` writes IQ captures,
`extract` turns captures into feature tables, `select-ref` ranks candidate
reference devices from their CSI amplitudes, `train` fits a model from a
feature table, `eval` scores a model against a table, and `bench` runs a
whole experiment config end to end.

Exit codes: 0 success, 2 configuration error, 3 pipeline error.

Each command loads only the modules it runs: `harness` and the simulator
behind it load inside `simulate`, `extract` and `bench`, so `train`,
`eval` and `select-ref` read their inputs without them.
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
from . import config, data_io
from .features import FieldSpectrum, field_spectrum
from .preprocess import NotDetectedError
from .signals import ComplexSignal, Frames
from .waveform import FRAME_LEN, WindowBoundsError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PIPELINE = 3


def _out_dir(path) -> Path:
    """`path` as an output directory, checked before any work: its nearest
    existing part must be a directory (the rest is made when written)."""
    out = Path(path)
    existing = next(p for p in (out, *out.parents) if p.exists())
    if not existing.is_dir():
        raise config.ConfigError(f"output directory {out}: {existing} is not a directory")
    return out


def _out_file(path) -> Path:
    """`path` as an output file, checked before any work."""
    out = Path(path)
    if out.is_dir() or not out.parent.is_dir():
        raise config.ConfigError(f"output file {out}: " + (
            "is a directory" if out.is_dir() else f"{out.parent} is not a directory"))
    return out


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
    from . import harness
    sent, rx, di, rj, n_frames, name = capture
    blocks = harness.frame_blocks(cfg, sent, rx, snr_db, 0, di, rj, n_frames)
    segments = [frames.samples[i, :n] for _, frames in blocks
                for i, n in enumerate(frames.lengths)]
    data_io.write_iq(out / name, ComplexSignal(np.concatenate(segments)))


def cmd_simulate(args) -> int:
    from . import harness
    cfg = harness.load_config(_apply_overrides(config._load_json(args.config), args))
    out = _out_dir(args.out_dir)
    if len(cfg.snr_db) > 1:
        raise config.ConfigError(f"snr_db lists {len(cfg.snr_db)} SNRs; simulate writes "
                                 "one (pick it with --snr-db)")
    snr = cfg.snr_db[0]
    devices, receivers, reference = harness._profiles(cfg)
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
    # ids may hold "_", so two links can map to one file name
    config._distinct([e["path"] for e in entries], "capture files")
    out.mkdir(parents=True, exist_ok=True)
    # each file is its own task; the files do not depend on one another
    task = partial(_write_capture, cfg, out, snr)
    for _ in harness.map_ordered(task, captures):
        pass
    config._write_manifest(out, cfg, snr, entries)
    print(f"wrote {len(entries)} captures to {out}")
    return EXIT_OK


# How `extract` walks a capture file that holds frames back to back. Each
# step examines one segment of the file, acquires at most one frame there,
# and moves on by the step's outcome:
#  - no frame detected: by SEGMENT_LEN less one detection window, so that
#    consecutive segments overlap by a window and the samples after a
#    segment's last whole window are scanned by the next one;
#  - a frame detected but not acquired (sync or CFO estimation failed):
#    by a frame span (a detection window and FRAME_ADVANCE): the frame has
#    no trusted start, so the walk moves past it and looks again;
#  - a frame acquired at start n1: by n1 + FRAME_ADVANCE;
#  - a frame acquired so late that a field window the walk reads runs past
#    the segment (the field spectra drop it as a `WindowBoundsError`), in a
#    file that holds more samples: by n1 less two detection windows (at
#    least 1 sample). The frame takes no index there; the next segment's
#    noise-floor window is quiet and the segment holds the whole frame,
#    which is walked again. A frame that the capture's end cuts off stays
#    dropped, like a failed acquisition: it takes an index and the walk
#    moves on by a frame span.
# The walk ends when fewer than a frame span remain: they cannot hold a
# noise window followed by a frame's FRAME_ADVANCE samples.
# Samples per segment: more than one simulated frame capture (a lead gap of
# at most 296 samples, the 400-sample preamble and a 120-sample tail make
# 816), so a segment that starts in the quiet gap before a frame holds the
# frame's whole preamble and sync search, and a frame span at the largest
# detection window (`preprocess.MAX_WINDOW_W`).
SEGMENT_LEN = 1100
# The HT-MF preamble plus 20 samples: the next segment starts in the quiet
# tail after the frame, where its noise-floor window belongs.
FRAME_ADVANCE = FRAME_LEN + 20


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
    from . import harness
    window_w, multiplier = detection
    quiet_skip = SEGMENT_LEN - window_w
    rewalk_lead = 2 * window_w
    frame_span = window_w + FRAME_ADVANCE
    with ExitStack() as stack:
        for reader in readers:
            stack.enter_context(reader)
        pos = [0] * len(readers)
        count = [0] * len(readers)
        active = [i for i, r in enumerate(readers) if frame_span <= len(r)]
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
                pos[i] += frame_span if exc else int(n1[row]) + FRAME_ADVANCE
            yield _Step(active, frame_index, spectra)
            active = [i for row, i in enumerate(active)
                      if pos[i] + frame_span <= len(readers[i])
                      and not (until_acquired and acquired[row])]


def _lockstep_groups(captures, readers: dict, role: str) -> list:
    """Manifest indices of the `role` captures in manifest order, cut into
    lock-step groups of at most `harness.BLOCK_ROWS` captures: one group
    per usable CPU where that leaves fewer."""
    from . import harness
    idx = [i for i in readers if captures[i]["role"] == role]
    size = max(1, min(harness.BLOCK_ROWS, -(-len(idx) // harness.usable_cpus())))
    return [idx[k : k + size] for k in range(0, len(idx), size)]


def _extract_group(manifest, detection, extractors, fields, models, job) -> list:
    """The `harness.LinkFeatures` of each capture of a lock-step group of
    device captures (`job`: manifest indices, readers), each row divided by
    its own receiver's model (`models`: field spectra by receiver id). The
    worker formats the CSV rows (trial: frame index) and drops the feature
    blocks, which extract only writes."""
    from . import harness
    group, readers = job
    captures = [manifest["captures"][i] for i in group]

    def blocks():
        for step in _walk_captures(readers, detection, fields):
            feats = harness._extract_all(step.spectra, extractors, models,
                                         [captures[c]["receiver"] for c in step.captures], None)
            yield np.array(step.captures), step.frame_index, feats, step.spectra[fields[0]].drops
    links = harness._link_records(blocks(), len(group))
    for cap, link in zip(captures, links):
        link.format_csv(cap["device"], cap["receiver"], manifest["scenario"], manifest["snr_db"])
        link.features = {}
    return links


def cmd_extract(args) -> int:
    from . import harness
    out = _out_dir(args.out_dir)
    manifest, base = config._load_manifest(args.manifest)
    captures = manifest["captures"]
    extractors = [args.extractor] if args.extractor else list(config.EXTRACTORS)
    use_rd = harness._needs_reference(extractors)
    if use_rd and not any(c["role"] == "reference" for c in captures):
        raise config.ConfigError("reference-division extraction needs reference captures")
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
    # keyed by the receiver each capture went through, in manifest order, so a
    # later capture of a receiver wins
    models = {captures[i]["receiver"]: spectra for i, spectra in sorted(model_spectra.items())}
    # the device groups are independent, so they run on every usable CPU; each
    # group's rows go to the writer as the group arrives, in manifest order
    task = partial(_extract_group, manifest, detection, extractors, fields, models)
    groups = _lockstep_groups(captures, readers, "device")
    n_rows = dropped = listed = missed = 0
    surplus = []  # captures with more frames than their manifest entry lists
    with data_io.feature_tables(out) as write_rows:
        for group, links in zip(groups, harness.map_ordered(
                task, [(group, [readers[i] for i in group]) for group in groups])):
            for i, link in zip(group, links):
                write_rows(link.csv)
                n_rows += len(link.frames) * len(link.csv)  # every table has the same rows
                dropped += link.dropped
                cap = captures[i]
                if "frames" in cap:
                    # a listed frame that took no index was never detected
                    found = len(link.frames) + link.dropped
                    listed += cap["frames"]
                    missed += cap["frames"] - found
                    if found > cap["frames"]:
                        surplus.append(f"{cap['path']} holds {found} frames; "
                                       f"the manifest lists {cap['frames']}")
    if not n_rows:
        print("no frames survived extraction", file=sys.stderr)
        return EXIT_PIPELINE
    for line in surplus:
        print(line)
    if missed:
        print(f"{missed} of {listed} frames listed in the manifest were never detected")
    print(f"wrote {n_rows} feature rows ({dropped} frames dropped) to {out}")
    return EXIT_OK


def cmd_select_ref(args) -> int:
    from .refselect import eta_lf
    out = args.out and _out_file(args.out)
    try:
        lines = Path(args.csi).read_text().splitlines()
    except (OSError, ValueError) as exc:
        raise config.ConfigError(f"cannot read {args.csi}: {exc}") from exc
    if not lines or not lines[0].startswith("device"):
        raise config.ConfigError(f"{args.csi}: expected header 'device,v0,...'")
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
            raise config.ConfigError(f"{args.csi}: bad row {cells[0]!r}: {exc}") from exc
    if not scores:
        raise config.ConfigError(f"{args.csi}: no candidate rows")
    scores.sort(key=lambda s: -s.eta_lf)
    text = "".join(["device,eta_lf,energy_before,energy_after\n"] + [
        f"{s.device_id},{s.eta_lf:.12g},{s.energy_before:.12g},{s.energy_after:.12g}\n"
        for s in scores])
    if out:
        out.write_text(text)
    print(text, end="")
    print(f"selected reference: {scores[0].device_id}", file=sys.stderr)
    return EXIT_OK


def cmd_train(args) -> int:
    out = _out_file(args.out)
    table = data_io.read_features(args.features)
    if not len(table):
        raise config.ConfigError(f"{args.features}: empty feature table")
    doc = config._load_json(args.config) if args.config else {}
    if args.seed is not None:
        doc["seed"] = args.seed
    cfg = config._train_config(doc, "training config")
    try:
        model = cl.train(table.feature_vectors(), cfg)
    except cl.TrainError as exc:
        raise config.ConfigError(str(exc)) from exc
    cl.save_model(model, out, cfg)
    print(f"trained {model.trained_on} model on {len(table)} rows "
          f"({len(model.classes)} classes) -> {args.out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    out = args.out_dir and _out_dir(args.out_dir)
    model = cl.load_model(args.model)
    table = data_io.read_features(args.features)
    if not len(table):
        raise config.ConfigError(f"{args.features}: empty feature table")
    try:
        acc = cl.evaluate(model, table.feature_vectors())
    except (cl.EvalError, cl.PredictError) as exc:
        raise config.ConfigError(str(exc)) from exc
    doc = {
        "model": str(args.model), "features": str(args.features),
        "extractor": model.trained_on, "n_test": len(table), "accuracy": acc,
    }
    if out:
        out.mkdir(parents=True, exist_ok=True)
        (out / "eval.json").write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    print(json.dumps(doc, sort_keys=True))
    return EXIT_OK


def cmd_bench(args) -> int:
    from . import harness
    cfg = harness.load_config(_apply_overrides(config._load_json(args.config), args))
    out = _out_dir(args.out_dir)
    report = harness.run_experiment(cfg, out)
    harness.write_report(report, out)
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
    ext.add_argument("--extractor", choices=config.EXTRACTORS)
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
    be.add_argument("--extractor", choices=config.EXTRACTORS)
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
    except (config.ConfigError, cl.TrainError, cl.ModelFileError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (config.PipelineError, data_io.IoError) as exc:
        print(f"pipeline error: {exc}", file=sys.stderr)
        return EXIT_PIPELINE


if __name__ == "__main__":
    sys.exit(main())
