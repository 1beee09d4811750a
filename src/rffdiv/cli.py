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
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import classify as cl
from . import data_io, harness
from .features import Field, FieldSpectrum
from .waveform import occupied_tones, tone_to_bin
from .preprocess import NotDetectedError, SyncFailedError
from .refselect import EmptyCandidatesError, eta_lf
from .signals import ComplexSignal, Drops

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PIPELINE = 3


def _load_json(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise harness.ConfigError(f"cannot read config {path}: {exc}") from exc


def _apply_overrides(doc: dict, args) -> dict:
    if getattr(args, "seed", None) is not None:
        doc["master_seed"] = args.seed
    if getattr(args, "snr_db", None) is not None:
        doc["snr_db"] = args.snr_db
    if getattr(args, "extractor", None):
        doc["extractors"] = [args.extractor]
    return doc


def cmd_simulate(args) -> int:
    cfg = harness.load_config(_apply_overrides(_load_json(args.config), args))
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    devices, receivers, reference = harness._profiles(cfg)
    snr = cfg.snr_db[0]
    per_frame = harness._channel_per_frame(cfg)
    entries = []
    roster = [(d, "device", di) for di, d in enumerate(devices)]
    if reference is not None:
        roster.append((reference, "reference", len(devices)))
    for tx, role, di in roster:
        sent = harness._transmit(tx)
        n_frames = (cfg.frames_per_device if role == "device"
                    else max(4, cfg.frames_per_device // 10))
        for rj, rx in enumerate(receivers):
            blocks = harness.frame_blocks(cfg, sent, rx, snr, 0, di, rj, n_frames, per_frame)
            segments = [frames.samples[i, :n] for _, frames in blocks
                        for i, n in enumerate(frames.lengths)]
            name = f"{tx.device_id}_{rx.device_id}.iq"
            data_io.write_iq(out / name, ComplexSignal(np.concatenate(segments)))
            entries.append({
                "path": name, "device": tx.device_id, "receiver": rx.device_id,
                "frames": n_frames, "role": role,
            })
    manifest = {
        "format_version": 1,
        "scenario": cfg.scenario(),
        "snr_db": snr,
        "sample_rate": 20e6,
        "detection": {
            "window_w": cfg.detection_window,
            "threshold_multiplier": cfg.detection_multiplier,
            "metric": cfg.detection_metric,
        },
        "captures": entries,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    print(f"wrote {len(entries)} captures to {out}")
    return EXIT_OK


def _iter_frame_spectra(signal: ComplexSignal, cfg_like, fields):
    """Walk a multi-frame capture: detect, acquire, yield spectra, advance
    just past each frame. Yields (frame_index, spectra | None); None marks
    a detected-but-unusable frame. A segment whose leading window is not
    signal-free simply scans forward until one is."""
    from . import preprocess as pp
    from .features import field_spectrum

    pos = 0
    idx = 0
    segment_len = 1100
    n = len(signal)
    while pos + 500 <= n:
        seg = ComplexSignal(signal.samples[pos : pos + segment_len], signal.sample_rate)
        thr = pp.noise_floor_threshold(seg, cfg_like.detection_window,
                                       cfg_like.detection_multiplier,
                                       cfg_like.detection_metric)
        det = pp.DetectionConfig(cfg_like.detection_window, thr, cfg_like.detection_metric)
        try:
            compensated, sync, _ = pp.synchronize_and_compensate(seg, det)
            spectra = {f: field_spectrum(compensated, sync.frame_start_n1, f) for f in fields}
        except NotDetectedError:
            pos += segment_len - cfg_like.detection_window
            continue
        except (SyncFailedError, pp.EstimationFailedError):
            yield idx, None
            idx += 1
            pos += 500
            continue
        yield idx, spectra
        idx += 1
        pos += sync.frame_start_n1 + 420


def cmd_extract(args) -> int:
    man_path = Path(args.manifest)
    if man_path.is_dir():
        man_path = man_path / "manifest.json"
    if not man_path.exists():
        raise harness.ConfigError(f"manifest not found: {man_path}")
    manifest = json.loads(man_path.read_text())
    base = man_path.parent
    extractors = [args.extractor.upper()] if args.extractor else ["RD", "HL", "DV"]
    refs_present = any(c["role"] == "reference" for c in manifest["captures"])
    if any(e.startswith("RD") for e in extractors) and not refs_present:
        raise harness.ConfigError("reference-division extraction needs reference captures")
    det = manifest.get("detection", {})
    cfg_like = harness.ExperimentConfig(
        master_seed=0, devices=[{}, {}], receivers=[{}], extractors=extractors,
        train_receivers=[], test_receivers=[], snr_db=[manifest.get("snr_db", 30.0)],
        detection_window=int(det.get("window_w", 80)),
        detection_multiplier=float(det.get("threshold_multiplier", 6.0)),
        detection_metric=str(det.get("metric", "magnitude")),
    )
    fields = harness._needed_fields(extractors)
    models = {}
    if any(e.startswith("RD") for e in extractors):
        for cap in manifest["captures"]:
            if cap["role"] != "reference":
                continue
            sig = data_io.read_iq(base / cap["path"])
            for _, spectra in _iter_frame_spectra(sig, cfg_like, fields):
                if spectra is not None:
                    bins = tone_to_bin(occupied_tones(Field.LLTF))
                    models[cap["receiver"]] = harness.ModelCapture(
                        cap["receiver"], spectra,
                        np.abs(spectra[Field.LLTF].bins[bins]), 1,
                    )
                    break
    records = {}
    dropped = 0
    for cap in manifest["captures"]:
        if cap["role"] != "device":
            continue
        sig = data_io.read_iq(base / cap["path"])
        found = list(_iter_frame_spectra(sig, cfg_like, fields))
        acquired = [(fi, spectra) for fi, spectra in found if spectra is not None]
        dropped += len(found) - len(acquired)
        # the dividers run on blocks of acquired frames, as in the frame engine
        for first in range(0, len(acquired), harness.BLOCK_ROWS):
            block = acquired[first : first + harness.BLOCK_ROWS]
            drops = Drops(len(block))
            spectra = {f: FieldSpectrum(f, np.stack([s[f].bins for _, s in block]), drops)
                       for f in fields}
            try:
                feats = harness._extract_all(
                    spectra, extractors, models.get(cap["receiver"]),
                    cap["receiver"], cap["device"],
                )
            except harness.PipelineError:
                dropped += len(block)
                continue
            live = drops.live
            dropped += len(block) - int(np.count_nonzero(live))
            for tag, fv in feats.items():
                keep = live[fv.rows]
                for row, values in zip(fv.rows[keep], fv.values[keep]):
                    records.setdefault(tag, []).append(data_io.FeatureRecord(
                        extractor=tag, device=cap["device"], receiver=cap["receiver"],
                        channel_scenario=manifest.get("scenario", "unknown"),
                        trial=block[row][0], snr_db=float(manifest.get("snr_db", 0.0)),
                        values=values,
                    ))
    if not records:
        print("no frames survived extraction", file=sys.stderr)
        return EXIT_PIPELINE
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for tag, rows in sorted(records.items()):
        data_io.write_features(out / f"features_{tag.lower()}.csv", rows)
    print(f"wrote {sum(len(r) for r in records.values())} feature rows "
          f"({dropped} frames dropped) to {out}")
    return EXIT_OK


def cmd_select_ref(args) -> int:
    lines = Path(args.csi).read_text().splitlines()
    if not lines or not lines[0].startswith("device"):
        raise harness.ConfigError(f"{args.csi}: expected header 'device,v0,...'")
    scores = []
    for line in lines[1:]:
        if not line:
            continue
        cells = line.split(",")
        try:
            amp = np.array([float(c) for c in cells[1:]])
            scores.append(eta_lf(amp, device_id=cells[0]))
        except (ValueError, EmptyCandidatesError) as exc:
            raise harness.ConfigError(f"{args.csi}: bad row {cells[0]!r}: {exc}") from exc
    if not scores:
        raise harness.ConfigError(f"{args.csi}: no candidate rows")
    scores.sort(key=lambda s: -s.eta_lf)
    out_lines = ["device,eta_lf,energy_before,energy_after"]
    for s in scores:
        out_lines.append(f"{s.device_id},{s.eta_lf:.12g},{s.energy_before:.12g},{s.energy_after:.12g}")
    text = "\n".join(out_lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    print(text, end="")
    print(f"selected reference: {scores[0].device_id}", file=sys.stderr)
    return EXIT_OK


def _records_to_features(records):
    from .features import EXTRACTOR_DIM, Extractor, FeatureVector
    from .waveform import Field as _F
    from .waveform import occupied_tones

    out = []
    for r in records:
        ext = Extractor(r.extractor)
        tones = occupied_tones(_F.LSTF if EXTRACTOR_DIM[ext] == 12 else _F.LLTF)
        v = np.asarray(r.values, dtype=np.float64)
        norm = np.linalg.norm(v)
        if norm > 0:
            v = v / norm
        out.append(FeatureVector(ext, v, tones, r.device))
    return out


def cmd_train(args) -> int:
    records = data_io.read_features(args.features)
    if not records:
        raise harness.ConfigError(f"{args.features}: empty feature table")
    cfg = cl.TrainConfig(**(_load_json(args.config) if args.config else {}))
    if args.seed is not None:
        cfg = cl.TrainConfig(**{**asdict(cfg), "seed": args.seed})
    try:
        model = cl.train(_records_to_features(records), cfg)
    except cl.TrainError as exc:
        raise harness.ConfigError(str(exc)) from exc
    cl.save_model(model, args.out, cfg)
    print(f"trained {model.trained_on} model on {len(records)} rows "
          f"({len(model.classes)} classes) -> {args.out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    model = cl.load_model(args.model)
    records = data_io.read_features(args.features)
    if not records:
        raise harness.ConfigError(f"{args.features}: empty feature table")
    feats = _records_to_features(records)
    try:
        acc = cl.evaluate(model, feats)
    except (cl.EvalError, cl.PredictError) as exc:
        raise harness.ConfigError(str(exc)) from exc
    doc = {
        "model": str(args.model), "features": str(args.features),
        "extractor": model.trained_on, "n_test": len(feats), "accuracy": acc,
    }
    if args.out_dir:
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "eval.json").write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    print(json.dumps(doc, sort_keys=True))
    return EXIT_OK


def cmd_bench(args) -> int:
    cfg = harness.load_config(_apply_overrides(_load_json(args.config), args))
    report = harness.run_experiment(cfg)
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
    ext.add_argument("--extractor", choices=["RD", "HL", "DV"])
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
    be.add_argument("--extractor", choices=["RD", "HL", "DV"])
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
    except (harness.ConfigError, cl.TrainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (harness.PipelineError, data_io.IoError, NotDetectedError, SyncFailedError) as exc:
        print(f"pipeline error: {exc}", file=sys.stderr)
        return EXIT_PIPELINE


if __name__ == "__main__":
    sys.exit(main())
