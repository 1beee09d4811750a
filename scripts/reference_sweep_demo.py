#!/usr/bin/env python3
"""Reference-device sweep: repeat the reference-division experiment with
several candidate references, join each candidate's low-frequency energy
ratio with its mean cross-receiver accuracy, and report the Pearson
correlation. The correlation is an output, not a gate: simulated devices
need not reproduce the hardware relationship."""

import json

from rffdiv import harness as hz
from rffdiv import studies


def main():
    doc = {
        "master_seed": 31415,
        "devices": {"count": 6, "base_seed": 100, "field_distinct": True},
        "receivers": {"count": 2, "base_seed": 900},
        "reference_device": {"id": "placeholder", "seed": 0},
        "extractors": ["RD"],
        "channel": {"scenario": "flat"},
        "snr_db": 20.0,
        "frames_per_device": 24,
        "repeats": 2,
        "train_receivers": ["rx00"],
        "test_receivers": ["rx01"],
        "classifier": {"epochs": 50, "seed": 3},
    }
    cfg = hz.load_config(doc)
    candidates = [{"id": f"cand{i}", "seed": 300 + i} for i in range(5)]
    result = studies.run_reference_sweep(cfg, candidates)
    print(f"{'candidate':>10} {'eta_LF':>10} {'mean accuracy':>14}")
    for row in result["candidates"]:
        print(f"{row['candidate']:>10} {row['eta_lf']:10.4f} {row['mean_accuracy']:14.4f}")
    print(f"pearson r = {result['pearson_r']:+.3f}, p = {result['p_value']:.4f}")
    print(json.dumps(result, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
