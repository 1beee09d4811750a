import json
import re
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest

from rffdiv import harness as hz
from rffdiv import studies
from rffdiv.features import Field


def _base_doc(**overrides):
    doc = {
        "master_seed": 7,
        "devices": {"count": 3, "base_seed": 100, "field_distinct": True},
        "receivers": {"count": 2, "base_seed": 900},
        "reference_device": {"id": "ref", "seed": 55},
        "extractors": ["RD", "HL", "DV"],
        "channel": {"scenario": "flat"},
        "snr_db": 30.0,
        "frames_per_device": 12,
        "repeats": 2,
        "train_receivers": ["rx00"],
        "test_receivers": ["rx01"],
        "classifier": {"epochs": 30, "seed": 3},
    }
    doc.update(overrides)
    return doc


def test_config_validation_errors():
    with pytest.raises(hz.ConfigError):
        hz.load_config(_base_doc(devices={"count": 1, "base_seed": 0}))
    with pytest.raises(hz.ConfigError):
        hz.load_config(_base_doc(receivers=[]))
    with pytest.raises(hz.ConfigError):
        hz.load_config(_base_doc(reference_device=None))  # RD requested
    with pytest.raises(hz.ConfigError):
        hz.load_config(_base_doc(channel={"scenario": "orbital"}))
    with pytest.raises(hz.ConfigError):
        hz.load_config(_base_doc(train_receivers=["rx99"]))
    with pytest.raises(hz.ConfigError):
        hz.load_config(_base_doc(extractors=["PCA"]))


def test_separable_devices_reach_full_accuracy(tmp_path):
    cfg = hz.load_config(_base_doc())
    report = hz.run_experiment(cfg, tmp_path)
    by_ext = {c["extractor"]: c for c in report.cells}
    assert by_ext["RD"]["mean_accuracy"] == 1.0
    assert by_ext["HL"]["mean_accuracy"] == 1.0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "features_dv.csv", "features_hl.csv", "features_rd_ltf.csv", "features_rd_stf.csv"]


def test_identical_devices_score_near_chance():
    # same profile seed for every device -> indistinguishable classes
    doc = _base_doc(
        devices=[{"id": f"dev{i:02d}", "seed": 42, "field_distinct": True} for i in range(4)],
        extractors=["HL"],
        reference_device=None,
        frames_per_device=20,
        repeats=3,
    )
    report = hz.run_experiment(hz.load_config(doc))
    acc = report.cells[0]["mean_accuracy"]
    assert abs(acc - 0.25) < 0.2


def test_seed_changes_report():
    a = hz.run_experiment(hz.load_config(_base_doc(frames_per_device=8, repeats=1)))
    b = hz.run_experiment(hz.load_config(_base_doc(frames_per_device=8, repeats=1, master_seed=8)))
    assert json.dumps(a.to_json_doc()) != json.dumps(b.to_json_doc())


def test_drop_rates_cover_every_link():
    cfg = hz.load_config(_base_doc(frames_per_device=6, repeats=1))
    report = hz.run_experiment(cfg)
    assert len(report.drop_rates) == 3 * 2  # devices x receivers
    assert all(0.0 <= v <= 1.0 for v in report.drop_rates.values())


@pytest.mark.parametrize("tables", [False, True])
def test_no_earlier_links_alive_while_the_next_run(monkeypatch, tmp_path, tables):
    """Only the current (snr, repeat)'s links stay in memory: when a link of
    the second repeat starts, no link of the first is alive."""
    real = hz._link_task
    first, alive = [], []

    def link_task(cfg, snr_db, repeat, csv, model, link):
        if repeat == 1:
            alive.append(sum(ref() is not None for ref in first))
        out = real(cfg, snr_db, repeat, csv, model, link)
        if repeat == 0:
            first.append(weakref.ref(out))
        return out

    monkeypatch.setattr(hz, "_link_task", link_task)
    monkeypatch.setattr(hz, "usable_cpus", lambda: 1)
    cfg = hz.load_config(_base_doc(devices={"count": 2, "base_seed": 100, "field_distinct": True},
                                   frames_per_device=6, repeats=2))
    assert hz.run_experiment(cfg, tmp_path if tables else None).cells
    assert len(first) == 4
    assert alive == [0, 0, 0, 0]


def test_model_capture_structural_isolation():
    """Each receiver's model holds the reference device's spectra captured
    through that receiver: bit for bit a fresh capture through it, which
    differs from every other receiver's."""
    cfg = hz.load_config(_base_doc(frames_per_device=6, repeats=1))
    _, receivers, reference = hz._profiles(cfg)
    (_, _, links), = hz.run_links(cfg, [(30.0, 0)])
    models = {rx_id: link.model for (_, rx_id), link in links.items()}
    assert list(models) == [rx.device_id for rx in receivers]
    sent_ref = hz._transmit(reference)
    fresh = [hz._capture_model(cfg, sent_ref, rx, rj, 0, 30.0) for rj, rx in enumerate(receivers)]
    for rx, own in zip(receivers, fresh):
        model = models[rx.device_id]
        assert model.spectra.keys() == own.spectra.keys()
        for f, s in own.spectra.items():
            assert np.array_equal(model.spectra[f].bins, s.bins), (rx.device_id, f)
    assert not np.array_equal(fresh[0].spectra[Field.LLTF].bins,
                              fresh[1].spectra[Field.LLTF].bins)


def _pooled_doc():
    # rx00 is in a train set only, rx01 in a train set and the test set,
    # rx02 in the test set only and rx03 in neither; at 16 dB the links
    # dev00 -> rx02 and dev01 -> rx03 lose frames
    return _base_doc(master_seed=5, devices={"count": 2, "base_seed": 100, "field_distinct": True},
                     receivers={"count": 4, "base_seed": 900}, snr_db=16.0, repeats=1,
                     train_receivers=["rx00", "rx01"], test_receivers=["rx01", "rx02"])


def _every_row(cfg):
    """`cfg` with every receiver in a train set and in the test set, so
    that its links keep every row."""
    ids = [r["id"] for r in cfg.receivers]
    return replace(cfg, train_receivers=ids, test_receivers=ids)


@pytest.mark.parametrize("cpus", [1, 2])
def test_pooled_link_holds_only_the_rows_a_pool_reads(monkeypatch, cpus):
    """A link keeps its first half of frames if its receiver trains and its
    second half if it tests, while its CSV rows and drop counts still cover
    every frame: against the links of the same config in which every
    receiver trains and tests."""
    monkeypatch.setattr(hz, "usable_cpus", lambda: cpus)
    cfg = hz.load_config(_pooled_doc())
    half = cfg.frames_per_device // 2
    keep = {"rx00": lambda f: f < half, "rx01": lambda f: f >= 0,
            "rx02": lambda f: f >= half, "rx03": lambda f: f < 0}
    rows, links = {}, {}
    for pooled, run_cfg in ((False, _every_row(cfg)), (True, cfg)):
        rows[pooled] = []
        (_, _, links[pooled]), = hz.run_links(run_cfg, [(16.0, 0)], rows[pooled].append)
    assert rows[True] == rows[False]
    assert sum(link.dropped for link in links[False].values()) > 0
    for (dev_id, rx_id), full in links[False].items():
        pooled, rows_kept = links[True][(dev_id, rx_id)], keep[rx_id](full.frames)
        assert np.array_equal(pooled.frames, full.frames[rows_kept]), (dev_id, rx_id)
        assert pooled.drops == full.drops and pooled.dropped == full.dropped
        assert pooled.features.keys() == full.features.keys()
        for tag, fv in full.features.items():
            assert np.array_equal(pooled.features[tag].values, fv.values[rows_kept])


def test_pool_values_are_views_of_the_links():
    cfg = hz.load_config(_base_doc(frames_per_device=6, repeats=1))
    (_, _, links), = hz.run_links(_every_row(cfg), [(30.0, 0)])
    half = cfg.frames_per_device // 2
    for first_half in (True, False):
        pool = hz._pool(cfg, links, ["HL"], {"rx00", "rx01"}, first_half)
        for fv, link in zip(pool["HL"], links.values(), strict=True):
            values = link.features["HL"].values
            assert np.shares_memory(fv.values, values)
            assert np.array_equal(fv.values, values[(link.frames < half) == first_half])


def test_feature_stability_links_keep_every_row(monkeypatch):
    """The statistics read every frame of a link, also of a receiver that no
    bench pool would read (rx02) or read only half of (rx00, rx01)."""
    cfg = hz.load_config(_base_doc(
        devices={"count": 2, "base_seed": 100, "field_distinct": True},
        receivers={"count": 3, "base_seed": 900}, extractors=["HL"], reference_device=None,
        frames_per_device=6, repeats=1))
    seen = []
    run_links = hz.run_links

    def recording(*args, **kwargs):
        for point in run_links(*args, **kwargs):
            seen.extend(point[2].values())
            yield point

    monkeypatch.setattr(hz, "run_links", recording)
    studies.run_feature_stability(cfg)
    assert len(seen) == 2 * 3
    for link in seen:
        assert len(link.frames) + link.dropped == cfg.frames_per_device
        assert len(link.features["HL"].values) == len(link.frames)


def test_feature_stability_reports_both_metrics():
    cfg = hz.load_config(_base_doc(
        devices={"count": 2, "base_seed": 100, "field_distinct": True},
        extractors=["HL", "DV"],
        reference_device=None,
        channel={"scenario": "los"},
        snr_db=30.0,
        frames_per_device=8,
        repeats=1,
    ))
    stats = studies.run_feature_stability(cfg)
    hl = stats["mean"]["HL"]
    assert set(hl) == {"cross_receiver", "trial_to_trial"}
    assert 0.9 < hl["cross_receiver"]["plain"] <= 1.0
    assert -1.0 <= hl["cross_receiver"]["centered"] <= 1.0


def _pair_loop_means(per_rx):
    """The stability statistics from a loop over every pair of vectors: the
    reference for the Gram matrices of `studies._pair_means`. `per_rx` holds
    (receiver id, 2-D feature values) pairs."""
    flat = [(rx_id, v) for rx_id, values in per_rx for v in values]
    pops = {"cross_receiver": ([], []), "trial_to_trial": ([], [])}
    for i in range(len(flat)):
        for j in range(i + 1, len(flat)):
            a, b = flat[i][1], flat[j][1]
            ca, cb = a - a.mean(), b - b.mean()
            na, nb = np.linalg.norm(ca), np.linalg.norm(cb)
            plain, centered = pops["trial_to_trial" if flat[i][0] == flat[j][0]
                                   else "cross_receiver"]
            plain.append(float(np.dot(a, b)))
            centered.append(0.0 if na == 0.0 or nb == 0.0 else float(np.dot(ca, cb) / (na * nb)))
    return {pop: {kind: float(np.mean(x)) if x else None
                  for kind, x in (("plain", plain), ("centered", centered))}
            for pop, (plain, centered) in pops.items()}


def _assert_stats_close(got, want):
    for pop in ("cross_receiver", "trial_to_trial"):
        for kind in ("plain", "centered"):
            g, w = got[pop][kind], want[pop][kind]
            assert (g is None) == (w is None), (pop, kind, g, w)
            assert g is None or abs(g - w) < 1e-12, (pop, kind, g, w)


@pytest.mark.parametrize("channel, extractors, reference", [
    ("flat", ["RD", "DV"], {"id": "ref", "seed": 55}),
    ("los", ["HL", "DV"], None),
])
def test_feature_stability_matches_pair_loops(monkeypatch, channel, extractors, reference):
    cfg = hz.load_config(_base_doc(
        devices={"count": 2, "base_seed": 100, "field_distinct": True},
        receivers={"count": 3, "base_seed": 900},
        extractors=extractors, reference_device=reference, channel={"scenario": channel},
        snr_db=20.0, frames_per_device=6, repeats=1,
    ))
    seen = []
    run_links = hz.run_links

    def recording(cfg, *args):
        for point in run_links(cfg, *args):
            seen.append((cfg, point[2]))
            yield point

    monkeypatch.setattr(hz, "run_links", recording)
    stats = studies.run_feature_stability(cfg)
    (run_cfg, links), = seen
    assert hz._channel_params(run_cfg)["per_frame"]  # a trial redraws the channel
    assert not hz._channel_params(cfg)["per_frame"]
    devices, receivers, _ = hz._profiles(cfg)
    per_device = {}
    for dev in devices:
        for tag, got in stats["devices"][dev.device_id]["stats"].items():
            want = _pair_loop_means([(rx.device_id, links[(dev.device_id, rx.device_id)]
                                      .features[tag].values) for rx in receivers])
            _assert_stats_close(got, want)
            per_device.setdefault(tag, []).append(want)
    assert sorted(per_device) == sorted(stats["mean"])
    for tag, wants in per_device.items():
        mean = {pop: {kind: float(np.mean([w[pop][kind] for w in wants]))
                      for kind in ("plain", "centered")}
                for pop in ("cross_receiver", "trial_to_trial")}
        _assert_stats_close(stats["mean"][tag], mean)


def test_pair_means_zero_norm_row_and_missing_population():
    rng = np.random.default_rng(5)
    values = np.abs(rng.normal(size=(5, 12))) + 0.1
    values /= np.linalg.norm(values, axis=1, keepdims=True)
    values[2] = 0.25  # a constant whose mean is exact: its centered norm is 0
    # one receiver (no cross pair), three, and five (no same-receiver pair)
    for receivers in ([0, 0, 0, 0, 0], [0, 1, 1, 0, 2], [0, 1, 2, 3, 4]):
        receivers = np.array(receivers)
        got = studies._pair_means(values, receivers)
        want = _pair_loop_means([(rx, v[None]) for rx, v in zip(receivers, values)])
        _assert_stats_close(got, want)
    # the flat row's centered cosine with each row is 0
    assert studies._pair_means(values[1:3], np.array([0, 1]))["cross_receiver"]["centered"] == 0.0
    assert studies._pair_means(values[:1], np.zeros(1, int)) == {
        pop: {"plain": None, "centered": None} for pop in ("cross_receiver", "trial_to_trial")}


def test_feature_stability_one_receiver_means_are_none():
    cfg = hz.load_config(_base_doc(
        devices={"count": 2, "base_seed": 100, "field_distinct": True},
        receivers={"count": 1}, train_receivers=["rx00"], test_receivers=["rx00"],
        extractors=["HL"], reference_device=None, channel={"scenario": "los"},
        snr_db=30.0, frames_per_device=6, repeats=1,
    ))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stats = studies.run_feature_stability(cfg)
    for dev in stats["devices"].values():
        assert dev["stats"]["HL"]["cross_receiver"] == {"plain": None, "centered": None}
    assert stats["mean"]["HL"]["cross_receiver"] == {"plain": None, "centered": None}
    assert 0.9 < stats["mean"]["HL"]["trial_to_trial"]["plain"] <= 1.0


def test_feature_stability_of_an_snr_list_is_config_error(monkeypatch):
    def no_link(*args, **kwargs):
        raise AssertionError("a link ran")

    monkeypatch.setattr(hz, "run_links", no_link)
    cfg = hz.load_config(_base_doc(extractors=["HL"], reference_device=None, snr_db=[20, 30],
                                   frames_per_device=4, repeats=1))
    with pytest.raises(hz.ConfigError, match="snr_db lists 2 SNRs"):
        studies.run_feature_stability(cfg)


def _pair_with_r(rng, n, rho):
    """(x, y) whose sample correlation is `rho`: y mixes centred x with a
    centred draw orthogonal to it."""
    xc = rng.standard_normal(n)
    xc -= xc.mean()
    z = rng.standard_normal(n)
    z -= z.mean()
    z -= (z @ xc) / (xc @ xc) * xc
    y = rho * xc / np.linalg.norm(xc) + np.sqrt(1.0 - rho * rho) * z / np.linalg.norm(z)
    return xc + 2.0, 3.0 * y - 1.0


def _assert_matches_scipy(x, y):
    from scipy import stats

    r, p = studies.pearson_r_p(x, y)
    ref = stats.pearsonr(x, y)
    r_ref, p_ref = float(ref.statistic), float(ref.pvalue)
    assert abs(r - r_ref) <= 1e-12, (len(x), r, r_ref)
    assert abs(p - p_ref) <= 1e-12 or abs(p - p_ref) <= 1e-9 * p_ref, (len(x), r, p, p_ref)


def test_pearson_helper_degenerate_and_requirements():
    with pytest.raises(hz.ConfigError):
        studies.pearson_r_p([1, 2], [3, 4])
    r, p = studies.pearson_r_p([1.0, 1.0, 1.0], [0.2, 0.5, 0.9])
    assert (r, p) == (0.0, 1.0)
    r, p = studies.pearson_r_p([1, 2, 3, 4], [2, 4, 6, 8])
    assert abs(r - 1.0) < 1e-12 and p < 0.01
    # scipy.stats.pearsonr as the oracle, over odd and even degrees of freedom
    for n in (3, 4, 5, 8, 15, 40):
        rng = np.random.default_rng(n)
        for rho in (1e-3, -2e-4, 0.45, -0.7, 0.9999, -0.9999):
            _assert_matches_scipy(*_pair_with_r(rng, n, rho))
        # exactly linear data: r is exactly +-1 and p exactly 0
        x = np.array([0.0, 1.0, 3.0] + [float(k * k) for k in range(2, n - 1)])
        for y, sign in ((2.0 * x, 1.0), (-0.5 * x + 4.0, -1.0)):
            assert studies.pearson_r_p(x, y) == (sign, 0.0)
            _assert_matches_scipy(x, y)


def test_reference_sweep_requires_three_candidates():
    cfg = hz.load_config(_base_doc(frames_per_device=6, repeats=1, extractors=["RD"]))
    with pytest.raises(hz.ConfigError):
        studies.run_reference_sweep(cfg, [{"id": "a", "seed": 1}, {"id": "b", "seed": 2}])


def test_reference_sweep_checks_every_candidate_before_running(monkeypatch):
    runs = []
    monkeypatch.setattr(hz, "run_experiment", lambda cfg: runs.append(cfg))
    cfg = hz.load_config(_base_doc(devices={"count": 2, "base_seed": 100}, frames_per_device=4,
                                   repeats=1, extractors=["RD"]))
    candidates = [{"seed": 1}, {"seed": 2}, {"seed": 3, "fir_taps": [[0.1, 0], [1, 0]]}]
    with pytest.raises(hz.ConfigError, match="first FIR tap must dominate"):
        studies.run_reference_sweep(cfg, candidates)
    assert runs == []


@pytest.mark.parametrize("candidates, repeated", [
    ([{"id": "a", "seed": 1}, {"id": "b", "seed": 2}, {"id": "a", "seed": 3}], "'a'"),
    ([{"id": "dev01", "seed": 1}, {"seed": 2}, {"seed": 3}], "'dev01'"),  # a device's id
])
def test_reference_sweep_rejects_repeated_ids(monkeypatch, candidates, repeated):
    runs = []
    monkeypatch.setattr(hz, "run_experiment", lambda cfg: runs.append(cfg))
    cfg = hz.load_config(_base_doc(devices={"count": 2, "base_seed": 100}, frames_per_device=4,
                                   repeats=1, extractors=["RD"]))
    with pytest.raises(hz.ConfigError, match=f"{repeated} appears more than once"):
        studies.run_reference_sweep(cfg, candidates)
    assert runs == []


def test_reference_sweep_smoke():
    cfg = hz.load_config(_base_doc(
        devices={"count": 2, "base_seed": 100, "field_distinct": True},
        frames_per_device=8,
        repeats=1,
        extractors=["RD"],
    ))
    result = studies.run_reference_sweep(cfg, [{"id": f"c{i}", "seed": 200 + i} for i in range(3)])
    assert len(result["candidates"]) == 3
    assert set(result["candidates"][0]) == {"candidate", "eta_lf", "mean_accuracy"}
    assert "p_value" in result and "pearson_r" in result


def test_scenario_presets_exist():
    for name in ("flat", "los", "nlos", "mobile", "corridor"):
        assert name in hz.SCENARIOS


def test_multi_receiver_training_set():
    doc = _base_doc(
        receivers={"count": 3, "base_seed": 900},
        train_receivers=[["rx00", "rx01"]],
        test_receivers=["rx02"],
        frames_per_device=8,
        repeats=1,
    )
    report = hz.run_experiment(hz.load_config(doc))
    assert all(c["train"] == "rx00+rx01" for c in report.cells)


def test_snr_sweep_adds_cells():
    doc = _base_doc(snr_db=[20.0, 30.0], extractors=["HL"], reference_device=None,
                    frames_per_device=8, repeats=1)
    report = hz.run_experiment(hz.load_config(doc))
    assert {c["snr_db"] for c in report.cells} == {20.0, 30.0}


def test_every_configured_cell_appears_exactly_once():
    doc = _base_doc(
        receivers={"count": 3, "base_seed": 900},
        test_receivers=["rx00", "rx01", "rx02"],
        snr_db=[25.0, 30.0],
        frames_per_device=8,
        repeats=1,
    )
    cfg = hz.load_config(doc)
    report = hz.run_experiment(cfg)
    keys = [(c["snr_db"], c["extractor"], c["train"], c["test"]) for c in report.cells]
    assert len(keys) == len(set(keys))
    assert len(keys) == 2 * 3 * 1 * 3  # snr x extractors x train sets x test receivers


def test_mobile_scenario_redraws_channel_per_frame():
    doc = _base_doc(extractors=["HL"], reference_device=None, frames_per_device=6,
                    repeats=1, channel={"scenario": "mobile"})
    cfg = hz.load_config(doc)
    assert hz._channel_params(cfg)["per_frame"]
    report = hz.run_experiment(cfg)  # per-frame redraw path end to end
    assert report.cells and 0.0 <= report.cells[0]["mean_accuracy"] <= 1.0
    static = hz.load_config(_base_doc(extractors=["HL"], reference_device=None,
                                      channel={"scenario": "nlos"}))
    assert not hz._channel_params(static)["per_frame"]
    overridden = hz.load_config(_base_doc(extractors=["HL"], reference_device=None,
                                          channel={"scenario": "nlos", "per_frame": True}))
    assert hz._channel_params(overridden)["per_frame"]


def test_explicit_profile_entries_roundtrip_and_run():
    from rffdiv import impairments as imp

    drawn = imp.sample_profile(123, imp.Role.TRANSMITTER, field_distinct=True, device_id="dev00")
    entry = {
        "id": drawn.device_id,
        "seed": 123,
        "dc_offset": [drawn.dc_offset.real, drawn.dc_offset.imag],
        "iq_gain_imbalance": drawn.iq_gain_imbalance,
        "iq_phase_imbalance": drawn.iq_phase_imbalance,
        "fir_taps": [[t.real, t.imag] for t in drawn.fir_taps],
        "pa_coeffs": [[c.real, c.imag] for c in drawn.pa_coeffs],
        "cfo_hz": drawn.cfo_hz,
        "band_tilt": drawn.band_tilt.tolist(),
    }
    rebuilt = hz.profile_from_entry(entry, imp.Role.TRANSMITTER, default_field_distinct=True)
    assert rebuilt.cfo_hz == drawn.cfo_hz
    assert rebuilt.dc_offset == drawn.dc_offset
    import numpy as np

    assert np.array_equal(rebuilt.fir_taps, drawn.fir_taps)
    assert np.array_equal(rebuilt.band_tilt, drawn.band_tilt)

    # a config can mix explicit parameters with seed-drawn entries
    doc = _base_doc(
        devices=[
            entry,
            {"id": "dev01", "seed": 321, "field_distinct": True},
            {"id": "dev02", "cfo_hz": 10e3, "fir_taps": [[1, 0], [0.05, 0.01]]},
        ],
        extractors=["HL"],
        reference_device=None,
        frames_per_device=6,
        repeats=1,
    )
    report = hz.run_experiment(hz.load_config(doc))
    assert report.cells


def test_entry_without_seed_or_parameters_rejected():
    with pytest.raises(hz.ConfigError):
        hz.load_config(_base_doc(devices=[{"id": "a"}, {"id": "b", "seed": 1}]))


@pytest.mark.parametrize("override, message", [
    ({"extractors": "HL"}, "config.extractors must be a non-empty list, got 'HL'"),
    ({"frames_per_devic": 10}, "unknown key 'frames_per_devic' in config"),
    ({"channel": {"scenario": "flat", "per_frame": "no"}},
     "config.channel.per_frame must be true or false, got 'no'"),
    ({"devices": [{"id": "a", "seed": 1}, {"id": "b", "seed": True}]},
     "config.devices[1].seed must be an integer at least 0, got True"),
    ({"test_receivers": ["rx07"]}, "train or test receivers ['rx07'] not in receivers"),
])
def test_config_error_names_the_value(override, message):
    with pytest.raises(hz.ConfigError, match=re.escape(message)):
        hz.load_config(_base_doc(**override))
