from __future__ import annotations

import numpy as np
import pytest

from audiomlp.probe import (
    MAX_HIDDEN_UNITS,
    ProbeConfig,
    evaluate_probe,
    init_probe,
    predict_probe,
    probe_logits,
    train_probe,
)


def blobs(n_per_class=30, seed=0, spread=0.3):
    rng = np.random.default_rng(seed)
    centers = np.array([[2.0, 0.0], [-2.0, 0.0], [0.0, 2.0]])
    x, y = [], []
    for label, c in enumerate(centers):
        x.append(c + spread * rng.standard_normal((n_per_class, 2)))
        y.append(np.full(n_per_class, label))
    return np.concatenate(x), np.concatenate(y)


def xor_data(n_per_corner=10, seed=1):
    rng = np.random.default_rng(seed)
    x, y = [], []
    for sx in (-1.0, 1.0):
        for sy in (-1.0, 1.0):
            pts = np.array([sx, sy]) + 0.1 * rng.standard_normal((n_per_corner, 2))
            x.append(pts)
            y.append(np.full(n_per_corner, int(sx * sy > 0)))
    return np.concatenate(x), np.concatenate(y)


class TestConfig:
    def test_defaults(self):
        cfg = ProbeConfig()
        assert cfg.hidden_units == 0 and cfg.epochs == 200

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"hidden_units": -1},
            {"epochs": 0},
            {"lr": 0.0},
            {"lr": float("nan")},
            {"lr": float("inf")},
            {"hidden_units": MAX_HIDDEN_UNITS + 1},
            {"seed": -1},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            ProbeConfig(**kwargs)


class TestInit:
    def test_linear_tensors(self):
        p = init_probe(5, 3, ProbeConfig())
        assert set(p.tensors) == {"W", "b"}
        assert p.tensors["W"].shape == (5, 3)
        assert p.tensors["W"].dtype == np.float32
        np.testing.assert_array_equal(p.tensors["b"], 0.0)

    def test_hidden_tensors(self):
        p = init_probe(5, 3, ProbeConfig(hidden_units=16))
        assert set(p.tensors) == {"W1", "b1", "W2", "b2"}
        assert p.tensors["W1"].shape == (5, 16)
        assert p.tensors["W2"].shape == (16, 3)

    def test_seeded(self):
        a = init_probe(5, 3, ProbeConfig(seed=4))
        b = init_probe(5, 3, ProbeConfig(seed=4))
        assert a.tensors["W"].tobytes() == b.tensors["W"].tobytes()


class TestTraining:
    def test_linear_probe_separates_blobs(self):
        x, y = blobs()
        probe = train_probe(x, y)
        assert probe.n_classes == 3
        assert evaluate_probe(x, y, probe) == 1.0

    def test_hidden_probe_solves_xor(self):
        x, y = xor_data()
        linear = train_probe(x, y, ProbeConfig(epochs=400, lr=0.05))
        hidden = train_probe(x, y, ProbeConfig(hidden_units=16, epochs=400, lr=0.05))
        assert evaluate_probe(x, y, linear) < 0.8  # xor defeats a linear map
        assert evaluate_probe(x, y, hidden) == 1.0

    def test_deterministic(self):
        x, y = blobs(seed=3)
        a = train_probe(x, y, ProbeConfig(seed=7))
        b = train_probe(x, y, ProbeConfig(seed=7))
        assert a.tensors["W"].tobytes() == b.tensors["W"].tobytes()

    def test_class_count_from_max_label(self):
        x = np.random.default_rng(5).standard_normal((20, 3)).astype(np.float32)
        y = np.array([0, 4] * 10)  # classes 1..3 unseen but still allocated
        probe = train_probe(x, y, ProbeConfig(epochs=5))
        assert probe.n_classes == 5
        assert probe_logits(x, probe).shape == (20, 5)

    def test_rejects_single_class(self):
        x = np.ones((10, 4), dtype=np.float32)
        with pytest.raises(ValueError, match="two distinct"):
            train_probe(x, np.zeros(10, dtype=int))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            train_probe(np.ones((10, 4)), np.zeros(9, dtype=int))

    def test_rejects_negative_labels(self):
        with pytest.raises(ValueError):
            train_probe(np.ones((4, 2)), np.array([0, 1, -1, 1]))

    def test_rejects_label_beyond_example_count(self, monkeypatch):
        def no_probe(*args, **kwargs):
            raise AssertionError("nothing may be allocated for the classes")

        monkeypatch.setattr("audiomlp.probe.init_probe", no_probe)
        x = np.ones((6, 8), dtype=np.float32)
        with pytest.raises(ValueError, match="largest label 6 is not below"):
            train_probe(x, np.array([0, 1, 6, 0, 1, 0]))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("hidden_units", [0, 4])
    def test_rejects_non_finite_loss(self, hidden_units):
        x = np.full((6, 8), 3e38, dtype=np.float32)
        y = np.array([0, 1] * 3)
        with pytest.raises(ValueError, match="loss is not finite at epoch 0"):
            train_probe(x, y, ProbeConfig(hidden_units=hidden_units))

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            train_probe(np.ones(10), np.zeros(10, dtype=int))


class TestGradients:
    @pytest.mark.parametrize("hidden_units", [0, 6])
    def test_probe_grads_match_finite_differences(self, hidden_units):
        from audiomlp.probe import _probe_grads

        rng = np.random.default_rng(8)
        x = rng.standard_normal((5, 3))
        y = np.array([0, 1, 2, 1, 0])
        probe = init_probe(3, 3, ProbeConfig(hidden_units=hidden_units, seed=2))
        probe.tensors = {k: v.astype(np.float64) for k, v in probe.tensors.items()}
        _, grads = _probe_grads(x, y, probe)
        h = 1e-6
        for name, tensor in probe.tensors.items():
            flat = tensor.reshape(-1)
            gflat = grads[name].reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                up, _ = _probe_grads(x, y, probe)
                flat[i] = orig - h
                down, _ = _probe_grads(x, y, probe)
                flat[i] = orig
                fd = (up - down) / (2 * h)
                assert gflat[i] == pytest.approx(fd, abs=1e-6)


class TestPredictEvaluate:
    def test_predict_values(self):
        probe = init_probe(2, 2, ProbeConfig(seed=0))
        probe.tensors["W"] = np.array([[1.0, -1.0], [0.0, 0.0]], dtype=np.float32)
        probe.tensors["b"] = np.zeros(2, dtype=np.float32)
        x = np.array([[3.0, 0.0], [-3.0, 0.0]], dtype=np.float32)
        np.testing.assert_array_equal(predict_probe(x, probe), [0, 1])

    def test_evaluate_counts_exact_matches(self):
        probe = init_probe(2, 2, ProbeConfig(seed=0))
        probe.tensors["W"] = np.array([[1.0, -1.0], [0.0, 0.0]], dtype=np.float32)
        probe.tensors["b"] = np.zeros(2, dtype=np.float32)
        x = np.array([[1.0, 0.0], [-1.0, 0.0], [2.0, 0.0], [-2.0, 0.0]], dtype=np.float32)
        assert evaluate_probe(x, np.array([0, 1, 1, 1]), probe) == 0.75

    def test_rejects_wrong_feature_count(self):
        probe = init_probe(4, 2, ProbeConfig())
        with pytest.raises(ValueError):
            probe_logits(np.ones((3, 5)), probe)

    def test_rejects_label_length_mismatch(self):
        probe = init_probe(2, 2, ProbeConfig())
        with pytest.raises(ValueError):
            evaluate_probe(np.ones((3, 2)), np.zeros(2, dtype=int), probe)
