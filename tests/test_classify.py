import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles

from rffdiv import classify as cl
from rffdiv.features import Extractor, FeatureVector
from rffdiv.waveform import Field, occupied_tones


def _fv(values, hint, extractor=Extractor.DV):
    v = np.abs(np.asarray(values, dtype=float)) + 1e-9
    v = v / np.linalg.norm(v)
    tones = occupied_tones(Field.LSTF if v.size == 12 else Field.LLTF)
    return FeatureVector(extractor, v, tones, hint)


def _gaussian_classes(rng, n_classes=3, per_class=40, dim=12, sep=5.0, noise=1.0):
    feats = []
    means = rng.normal(size=(n_classes, dim)) * sep
    for i, mu in enumerate(means):
        for _ in range(per_class):
            feats.append(_fv(np.abs(mu + noise * rng.normal(size=dim)) + 0.5, f"dev{i}"))
    return feats


def test_gradients_match_central_differences(rng):
    for _ in range(5):
        n, d, c = 6, 12, 4
        x = rng.normal(size=(n, d))
        y = rng.integers(0, c, size=n)
        w = rng.normal(size=(c, d))
        b = rng.normal(size=c)
        _, gw, gb = cl.loss_and_gradient(w, b, x, y, l2=0.1, label_smoothing=0.1)
        params = np.concatenate([w.ravel(), b])

        def fn(p):
            wi = p[: c * d].reshape(c, d)
            bi = p[c * d:]
            return cl.loss_and_gradient(wi, bi, x, y, 0.1, 0.1)[0]

        num = oracles.central_difference_grads(fn, params)
        analytic = np.concatenate([gw.ravel(), gb])
        rel = np.abs(num - analytic).max() / max(np.abs(analytic).max(), 1e-12)
        assert rel < 1e-5


def test_separated_classes_reach_99_percent(rng):
    feats = _gaussian_classes(rng, sep=5.0, noise=0.3)
    model = cl.train(feats, cl.TrainConfig(epochs=60, seed=1))
    assert cl.evaluate(model, feats) >= 0.99


def test_single_sample_per_class_memorization(rng):
    feats = [_fv(np.abs(rng.normal(size=12)) + 0.5, f"dev{i}") for i in range(3)]
    cfg = cl.TrainConfig(epochs=400, batch=4, learning_rate=0.05,
                         l2=0.0, label_smoothing=0.0, seed=0)
    model = cl.train(feats, cfg)
    assert cl.evaluate(model, feats) == 1.0


def test_training_deterministic(rng):
    feats = _gaussian_classes(rng)
    cfg = cl.TrainConfig(epochs=20, seed=9)
    m1 = cl.train(feats, cfg)
    m2 = cl.train(feats, cfg)
    assert np.array_equal(m1.weights, m2.weights)
    assert np.array_equal(m1.bias, m2.bias)


def test_full_batch_sgd_loss_nonincreasing(rng):
    feats = _gaussian_classes(rng, n_classes=2, per_class=30, sep=4.0, noise=0.3)
    x = np.stack([f.values for f in feats])
    labels = [f.device_hint for f in feats]
    classes = sorted(set(labels))
    y = np.array([classes.index(l) for l in labels])
    mean, sd = x.mean(0), x.std(0)
    sd[sd < 1e-12] = 1.0
    xs = (x - mean) / sd
    w = np.zeros((2, 12))
    b = np.zeros(2)
    losses = []
    for _ in range(60):
        loss, gw, gb = cl.loss_and_gradient(w, b, xs, y, l2=0.0, label_smoothing=0.0)
        losses.append(loss)
        w -= 1e-3 * gw
        b -= 1e-3 * gb
    assert all(l2 <= l1 + 1e-12 for l1, l2 in zip(losses, losses[1:]))


def test_train_errors():
    one_class = [_fv(np.ones(12), "only") for _ in range(4)]
    with pytest.raises(cl.TrainError):
        cl.train(one_class, cl.TrainConfig())
    with pytest.raises(cl.TrainError):
        cl.train([], cl.TrainConfig())
    mixed = [_fv(np.ones(12), "a"), _fv(np.ones(52), "b", Extractor.HL)]
    with pytest.raises(cl.TrainError):
        cl.train(mixed, cl.TrainConfig())
    unlabeled = [_fv(np.ones(12), None), _fv(np.ones(12), None)]
    with pytest.raises(cl.TrainError):
        cl.train(unlabeled, cl.TrainConfig())


def test_zero_model_is_uniform():
    model = cl.SoftmaxModel(np.zeros((4, 12)), np.zeros(4), [f"c{i}" for i in range(4)], "DV")
    probs = cl.predict_scores(model, _fv(np.ones(12), None))
    assert np.abs(probs - 0.25).max() < 1e-12


def test_scaling_logits_keeps_argmax(rng):
    w = rng.normal(size=(5, 12))
    b = rng.normal(size=5)
    model = cl.SoftmaxModel(w, b, [f"c{i}" for i in range(5)], "DV")
    scaled = cl.SoftmaxModel(10 * w, 10 * b, model.classes, "DV")
    for _ in range(20):
        f = _fv(np.abs(rng.normal(size=12)) + 0.1, None)
        assert np.argmax(cl.predict_scores(model, f)) == np.argmax(cl.predict_scores(scaled, f))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(0.01, 5.0), min_size=12, max_size=12))
def test_probabilities_sum_to_one(vals):
    model = cl.SoftmaxModel(np.arange(36, dtype=float).reshape(3, 12) / 10, np.zeros(3),
                            ["a", "b", "c"], "DV")
    probs = cl.predict_scores(model, _fv(vals, None))
    assert abs(probs.sum() - 1.0) < 1e-9
    assert np.all(probs >= 0)


def test_predict_dim_mismatch():
    model = cl.SoftmaxModel(np.zeros((2, 12)), np.zeros(2), ["a", "b"], "DV")
    with pytest.raises(cl.PredictError):
        cl.predict_scores(model, np.ones(52))


def test_fusion_rules():
    classes = ["a", "b", "c"]
    conf = cl.SoftmaxModel(np.zeros((3, 12)), np.array([0.0, 5.0, 0.0]), classes, "RD_LTF")
    unif = cl.SoftmaxModel(np.zeros((3, 12)), np.zeros(3), classes, "RD_STF")
    f = _fv(np.ones(12), None)
    # agreement
    assert cl.fuse_and_classify((conf, conf), (f, f)) == "b"
    # one confident branch dominates a uniform one
    assert cl.fuse_and_classify((unif, conf), (f, f)) == "b"
    # symmetric opposite confidences tie-break to the first class in order
    up = cl.SoftmaxModel(np.zeros((3, 12)), np.array([2.0, 0.0, 0.0]), classes, "RD_STF")
    down = cl.SoftmaxModel(np.zeros((3, 12)), np.array([0.0, 2.0, 0.0]), classes, "RD_LTF")
    assert cl.fuse_and_classify((up, down), (f, f)) == "a"
    # mismatched class lists
    other = cl.SoftmaxModel(np.zeros((3, 12)), np.zeros(3), ["x", "y", "z"], "RD_LTF")
    with pytest.raises(cl.FuseError):
        cl.fuse_and_classify((conf, other), (f, f))


def test_fusion_matches_single_branch_when_identical(rng):
    feats = _gaussian_classes(rng, n_classes=3, per_class=15)
    model = cl.train(feats, cl.TrainConfig(epochs=30, seed=2))
    for f in feats[:20]:
        assert cl.fuse_and_classify((model, model), (f, f)) == cl.classify(model, f)


def test_evaluate_cases(rng):
    feats = _gaussian_classes(rng, n_classes=2, per_class=20, sep=6.0, noise=0.2)
    model = cl.train(feats, cl.TrainConfig(epochs=50, seed=1))
    assert cl.evaluate(model, feats) == 1.0
    with pytest.raises(cl.EvalError):
        cl.evaluate(model, [])
    # constant-prediction model scores the majority prevalence
    const = cl.SoftmaxModel(np.zeros((2, 12)), np.array([5.0, 0.0]),
                            model.classes, "DV")
    prevalence = np.mean([f.device_hint == model.classes[0] for f in feats])
    assert abs(cl.evaluate(const, feats) - prevalence) < 1e-12


def test_random_labels_near_chance(rng):
    n_classes = 10
    feats = []
    for i in range(n_classes * 60):
        feats.append(_fv(np.abs(rng.normal(size=12)) + 0.5, f"dev{i % n_classes}"))
    model = cl.train(feats, cl.TrainConfig(epochs=10, seed=0))
    fresh = [_fv(np.abs(rng.normal(size=12)) + 0.5, f"dev{rng.integers(n_classes)}")
             for _ in range(600)]
    acc = cl.evaluate(model, fresh)
    assert abs(acc - 0.1) < 0.05


def test_model_json_roundtrip(tmp_path, rng):
    feats = _gaussian_classes(rng, n_classes=3, per_class=10)
    cfg = cl.TrainConfig(epochs=10, seed=4)
    model = cl.train(feats, cfg)
    path = tmp_path / "model.json"
    cl.save_model(model, path, cfg)
    back = cl.load_model(path)
    assert np.array_equal(back.weights, model.weights)
    assert np.array_equal(back.input_mean, model.input_mean)
    assert back.classes == model.classes and back.trained_on == model.trained_on
    for f in feats[:5]:
        assert np.abs(cl.predict_scores(back, f) - cl.predict_scores(model, f)).max() < 1e-15


def test_train_config_validation():
    with pytest.raises(ValueError):
        cl.TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        cl.TrainConfig(label_smoothing=0.5)
    with pytest.raises(ValueError):
        cl.TrainConfig(learning_rate=0.0)
