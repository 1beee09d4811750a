"""Side studies that no CLI command reaches: the feature-stability
statistics, which iterate `harness.run_links`, and the reference-candidate
sweep, which calls `harness.run_experiment` per candidate."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from . import harness as hz
from .config import ConfigError, _distinct, _entities


def _pair_means(values: np.ndarray, receivers: np.ndarray) -> dict:
    """Mean plain and mean-centered cosine over the pairs of rows of
    `values` (unit-energy feature vectors), split by whether the rows'
    `receivers` differ; a population with no pair is None. Each comes from
    a Gram matrix's strict upper triangle. A row whose centered norm is 0
    has centered cosine 0 with every row."""
    centered = values - values.mean(axis=1, keepdims=True)
    norm = np.linalg.norm(centered, axis=1, keepdims=True)
    centered = np.divide(centered, norm, out=np.zeros_like(centered), where=norm > 0)
    grams = {"plain": values @ values.T, "centered": centered @ centered.T}
    i, j = np.triu_indices(len(values), 1)
    same = receivers[i] == receivers[j]
    return {pop: {kind: float(np.mean(g[i[pairs], j[pairs]])) if pairs.any() else None
                  for kind, g in grams.items()}
            for pop, pairs in (("cross_receiver", ~same), ("trial_to_trial", same))}


def run_feature_stability(cfg: hz.ExperimentConfig) -> dict:
    """Per-device, per-extractor similarity statistics.

    A stability trial always redraws the channel (a trial means an
    independent capture), so the statistics measure robustness to both
    noise and channel variation. Two pair populations are reported:
    `cross_receiver` (pairs from different receivers) and `trial_to_trial`
    (same receiver, different frames); each carries the plain cosine and
    the mean-centered cosine. Plain cosine of nonnegative unit vectors is
    dominated by the shared flat component, so the centered variant is the
    discriminative stability measure. A mean over devices that no device
    has a value for is None. The config gives one SNR: a list of more is a
    ConfigError.
    """
    if len(cfg.snr_db) > 1:
        raise ConfigError(f"snr_db lists {len(cfg.snr_db)} SNRs; the feature-stability "
                          "statistics take one")
    # every receiver trains and tests, so every link keeps all its rows
    rx_ids = [r["id"] for r in cfg.receivers]
    cfg = replace(cfg, channel=cfg.channel | {"per_frame": True}, train_receivers=rx_ids,
                  test_receivers=rx_ids)
    snr = cfg.snr_db[0]
    (_, _, links), = hz.run_links(cfg, [(snr, 0)])
    # the links come device-major, in the config's device and receiver order
    out = {"snr_db": snr, "scenario": cfg.channel["scenario"], "devices": {}}
    for dev_id in dict.fromkeys(dev_id for dev_id, _ in links):
        per_rx = [links[(dev_id, rx_id)] for rx_id in rx_ids]
        tags = {t for link in per_rx for t, fv in link.features.items() if len(fv.values)}
        dev_stats = {}
        for tag in sorted(tags):
            blocks = [link.features[tag].values for link in per_rx]
            rx_labels = np.repeat(np.arange(len(blocks)), [len(b) for b in blocks])
            dev_stats[tag] = _pair_means(np.concatenate(blocks), rx_labels)
        out["devices"][dev_id] = {"stats": dev_stats,
                                  "drops": sum(link.dropped for link in per_rx)}

    def mean(tag, pop, kind):
        vals = [d["stats"][tag][pop][kind] for d in out["devices"].values()
                if tag in d["stats"] and d["stats"][tag][pop][kind] is not None]
        return float(np.mean(vals)) if vals else None

    tags = sorted({t for d in out["devices"].values() for t in d["stats"]})
    out["mean"] = {tag: {pop: {kind: mean(tag, pop, kind) for kind in ("plain", "centered")}
                         for pop in ("cross_receiver", "trial_to_trial")}
                   for tag in tags}
    return out


def pearson_r_p(x, y) -> tuple[float, float]:
    """Two-sided Pearson correlation; degenerate (constant) inputs report
    r=0, p=1 instead of NaN.

    p is the Student-t tail of t = r*sqrt(nu/(1-r^2)) with nu = n-2, in the
    closed form for integer nu (Abramowitz & Stegun 26.7.3/26.7.4): with
    theta = atan(|t|/sqrt(nu)) and c = cos(theta), P(|T| < |t|) is
    sin(theta)*(1 + c^2/2 + (1*3)/(2*4)*c^4 + ...) for even nu and
    (2/pi)*(theta + sin(theta)*(c + (2/3)*c^3 + ...)) for odd nu, each
    series running to the c^(nu-2) term."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 3:
        raise ConfigError("Pearson p-value needs at least 3 points")
    if np.std(x) == 0.0 or np.std(y) == 0.0:
        return 0.0, 1.0
    xc = x - x.mean()
    yc = y - y.mean()
    # one square root of the product keeps exactly linear data at |r| = 1
    r = max(-1.0, min(1.0, float(xc @ yc) / math.sqrt((xc @ xc) * (yc @ yc))))
    if abs(r) == 1.0:
        return r, 0.0
    nu = x.size - 2
    t = r * math.sqrt(nu / (1.0 - r * r))
    theta = math.atan(abs(t) / math.sqrt(nu))
    c = math.cos(theta)
    odd = nu % 2
    term = c if odd else 1.0
    series = 0.0
    for k in range(1, nu // 2 + 1):
        series += term
        term *= c * c * (2 * k - 1 + odd) / (2 * k + odd)
    inside = series * math.sin(theta)
    if odd:
        inside = 2.0 / math.pi * (theta + inside)
    return r, min(1.0, max(0.0, 1.0 - inside))


def run_reference_sweep(cfg: hz.ExperimentConfig, candidates) -> dict:
    """Repeat the reference-division experiment once per candidate reference
    device and correlate each candidate's low-frequency energy ratio with
    its mean accuracy."""
    cands = _entities("cand", candidates, "candidates")
    if len(cands) < 3:
        raise ConfigError("reference sweep needs at least 3 candidates")
    _distinct([c["id"] for c in cands], "candidates")
    # every candidate's profiles are checked before the first run
    configs = [hz.checked(replace(cfg, reference_device=c, extractors=["RD"])) for c in cands]
    rows = []
    for cand_cfg in configs:
        report = hz.run_experiment(cand_cfg)
        etas = [rec["eta_lf"] for recs in report.model_info.values() for rec in recs]
        rows.append({"candidate": cand_cfg.reference_device["id"], "eta_lf": float(np.mean(etas)),
                     "mean_accuracy": float(np.mean([c["mean_accuracy"] for c in report.cells]))})
    r, p = pearson_r_p([r_["eta_lf"] for r_ in rows], [r_["mean_accuracy"] for r_ in rows])
    return {"candidates": rows, "pearson_r": r, "p_value": p}
