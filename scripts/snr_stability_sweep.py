#!/usr/bin/env python3
"""Sweep SNR and print per-extractor same-device similarity statistics
(plain and mean-centered cosine), mirroring the feature-consistency
evaluations. Runs in about a second (0.8-1.0 s on one CPU of a 2-vCPU
Xeon).

    PYTHONPATH=src python scripts/snr_stability_sweep.py
"""

from rffdiv import harness as hz
from rffdiv import studies


def stability_at(snr_db, scenario, extractors, reference):
    doc = {
        "master_seed": 424242,
        "devices": {"count": 3, "base_seed": 100, "field_distinct": True},
        "receivers": {"count": 3, "base_seed": 900},
        "reference_device": reference,
        "extractors": extractors,
        "channel": {"scenario": scenario},
        "snr_db": snr_db,
        "frames_per_device": 20,
        "repeats": 1,
        "train_receivers": ["rx00"],
        "test_receivers": ["rx01"],
        # the detection threshold is deployment-dependent: 6x the measured
        # floor is fine above ~15 dB but swamps weaker signals
        "detection": {"threshold_multiplier": 6.0 if snr_db >= 15 else 2.5},
    }
    return studies.run_feature_stability(hz.load_config(doc))


def main():
    print(f"{'snr':>5} {'scenario':>9} {'extractor':>8} {'cross-rx plain':>15} "
          f"{'cross-rx centered':>18} {'trial plain':>12} {'trial centered':>15}")
    for snr in (40.0, 30.0, 20.0, 10.0):
        for scenario, extractors, ref in (
            ("flat", ["RD", "DV"], {"id": "ref", "seed": 55}),
            ("los", ["HL", "DV"], None),
        ):
            stats = stability_at(snr, scenario, extractors, ref)
            for tag, pops in sorted(stats["mean"].items()):
                cr, tt = pops["cross_receiver"], pops["trial_to_trial"]
                print(f"{snr:5.0f} {scenario:>9} {tag:>8} {cr['plain']:15.5f} "
                      f"{cr['centered']:18.5f} {tt['plain']:12.5f} {tt['centered']:15.5f}")


if __name__ == "__main__":
    main()
