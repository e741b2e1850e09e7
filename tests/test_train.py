import contextlib
import csv

import numpy as np
import pytest
from pytest import approx

import adawavenet.tensor as T
from adawavenet.baselines import LinearBaseline
from adawavenet.config import ModelConfig, TrainConfig
from adawavenet.data import MaskSpec, build_dataset
from adawavenet.model import AdaWaveNet
from adawavenet.tensor import Tensor
from adawavenet.train import (AdamState, NumericalError, adam_step, build_model,
                              clip_gradients, evaluate, train)


def tiny_dataset(rng, channels=2, total=400, fractions=(0.5, 0.25, 0.25)):
    t = np.arange(total) / 24.0
    base = np.stack([np.sin(2 * np.pi * t + c) + 0.05 * t for c in range(channels)])
    return build_dataset([f"c{c}" for c in range(channels)],
                         base + 0.05 * rng.normal(size=base.shape), fractions)


def tiny_config(**kw):
    base = dict(levels=2, kernel_size=3, input_len=32, pred_len=32,
                d_model=16, heads=4, ma_window=5)
    base.update(kw)
    return ModelConfig(**base)


class TestAdam:
    def test_first_step_closed_form(self):
        """With bias correction, the very first Adam step moves each
        coordinate by lr * g / (|g| + eps), i.e. almost exactly lr * sign(g)."""
        p = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        p.grad = np.array([0.5, -0.1, 2.0])
        params = {"p": p}
        state = AdamState(params)
        before = p.data.copy()
        adam_step(params, state, lr=0.01)
        expected = before - 0.01 * p.grad / (np.abs(p.grad) + 1e-8)
        assert p.data == approx(expected, abs=1e-9)

    def test_lr_zero_is_bitwise_noop(self, rng):
        p = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        p.grad = rng.normal(size=(4, 4))
        before = p.data.copy()
        state = AdamState({"p": p})
        adam_step({"p": p}, state, lr=0.0)
        assert np.array_equal(p.data, before)

    def test_none_grad_skipped(self, rng):
        p = Tensor(rng.normal(size=(3,)), requires_grad=True)
        before = p.data.copy()
        adam_step({"p": p}, AdamState({"p": p}), lr=0.1)
        assert np.array_equal(p.data, before)

    def test_quadratic_convergence_probe(self):
        """Adam on f(x) = sum((x - 3)^2) must approach the minimum."""
        x = Tensor(np.zeros(5), requires_grad=True)
        params = {"x": x}
        state = AdamState(params)
        for _ in range(2000):
            x.zero_grad()
            loss = T.tsum(T.mul(T.sub(x, Tensor(3.0)), T.sub(x, Tensor(3.0))))
            loss.backward()
            adam_step(params, state, lr=0.05)
        assert np.abs(x.data - 3.0).max() < 1e-3

    def test_bitwise_equal_to_out_of_place_update(self, rng):
        """The in-place step against the out-of-place formula it replaced,
        over several steps of random gradients."""
        shapes = {"w": (5, 3), "b": (3,), "s": ()}
        params = {k: Tensor(rng.normal(size=s), requires_grad=True)
                  for k, s in shapes.items()}
        want = {k: p.data.copy() for k, p in params.items()}
        m = {k: np.zeros(s) for k, s in shapes.items()}
        v = {k: np.zeros(s) for k, s in shapes.items()}
        state = AdamState(params)
        for t in range(1, 5):
            for k, p in params.items():
                p.grad = rng.normal(size=shapes[k])
                g = p.grad
                m[k] = 0.9 * m[k] + (1 - 0.9) * g
                v[k] = 0.999 * v[k] + (1 - 0.999) * g * g
                mhat = m[k] / (1 - 0.9 ** t)
                vhat = v[k] / (1 - 0.999 ** t)
                want[k] = want[k] - 0.01 * mhat / (np.sqrt(vhat) + 1e-8)
            adam_step(params, state, lr=0.01)
            for k, p in params.items():
                assert np.array_equal(p.data, want[k]), k
                assert np.array_equal(state.m[k], m[k])
                assert np.array_equal(state.v[k], v[k])


class TestClipping:
    def test_norm_reported_and_scaled(self):
        p = Tensor(np.zeros(2), requires_grad=True)
        p.grad = np.array([3.0, 4.0])
        norm = clip_gradients({"p": p}, 1.0)
        assert norm == approx(5.0)
        assert np.linalg.norm(p.grad) == approx(1.0)
        assert p.grad == approx(np.array([0.6, 0.8]))

    def test_below_threshold_untouched(self):
        p = Tensor(np.zeros(2), requires_grad=True)
        p.grad = np.array([0.3, 0.4])
        clip_gradients({"p": p}, 1.0)
        assert p.grad == approx(np.array([0.3, 0.4]))


class TestEvaluate:
    @pytest.mark.parametrize("task", ["forecast", "impute"])
    def test_graph_free_and_bitwise_equal(self, rng, monkeypatch, task):
        """Validation builds no autodiff graph, and its loss is bitwise the
        loss of the same loop with the graph built."""
        ds = tiny_dataset(rng)
        model = build_model(ds, tiny_config(task=task))
        for p in model.parameters().values():
            p.data += rng.normal(0.0, 0.05, p.shape)
        spec = MaskSpec("random", 0.25, seed=1) if task == "impute" else None
        forward, graph_free = AdaWaveNet.forward, []

        def spy(self, x):
            out = forward(self, x)
            graph_free.append(out._backward is None)
            return out

        monkeypatch.setattr(AdaWaveNet, "forward", spy)
        got = evaluate(model, ds, "val", mask_spec=spec)
        assert graph_free and all(graph_free)
        graph_free.clear()
        monkeypatch.setattr(T, "no_grad", contextlib.nullcontext)
        want = evaluate(model, ds, "val", mask_spec=spec)
        assert graph_free and not any(graph_free)
        assert got == want


class TestTrainLoop:
    def test_lr_zero_leaves_parameters_bitwise_unchanged(self, rng):
        ds = tiny_dataset(rng)
        model = build_model(ds, tiny_config())
        before = {k: p.data.copy() for k, p in model.parameters().items()}
        cfg = TrainConfig(learning_rate=0.0, max_epochs=1, batch_size=16)
        train(model, ds, cfg)
        for k, p in model.parameters().items():
            assert np.array_equal(p.data, before[k]), k

    def test_loss_decreases_on_learnable_signal(self, rng):
        ds = tiny_dataset(rng)
        model = build_model(ds, tiny_config())
        first = evaluate(model, ds, "val")
        cfg = TrainConfig(learning_rate=2e-3, max_epochs=4, batch_size=16, seed=0)
        history, best_val = train(model, ds, cfg)
        assert best_val < first
        assert history[0][1] >= history[-1][1] * 0.5  # train loss not exploding

    def test_early_stopping_restores_best_state(self, rng):
        ds = tiny_dataset(rng)
        model = build_model(ds, tiny_config())
        cfg = TrainConfig(learning_rate=2e-3, max_epochs=10, patience=2, seed=0)
        history, best_val = train(model, ds, cfg)
        assert evaluate(model, ds, "val") == approx(best_val, rel=1e-9)
        assert min(h[2] for h in history) == approx(best_val)

    def test_log_csv_schema(self, rng, tmp_path):
        ds = tiny_dataset(rng)
        model = build_model(ds, tiny_config())
        log = tmp_path / "log.csv"
        cfg = TrainConfig(learning_rate=1e-3, max_epochs=2)
        history, _ = train(model, ds, cfg, log_path=str(log))
        with open(log) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["epoch", "train_loss", "val_loss", "lr", "seconds"]
        assert len(rows) - 1 == len(history)
        assert float(rows[1][1]) == approx(history[0][1])

    def test_reproducible_to_bitwise(self, rng):
        ds = tiny_dataset(np.random.default_rng(5))
        runs = []
        for _ in range(2):
            model = build_model(ds, tiny_config(seed=3))
            cfg = TrainConfig(learning_rate=1e-3, max_epochs=2, seed=3)
            train(model, ds, cfg)
            runs.append({k: p.data.copy() for k, p in model.parameters().items()})
        for k in runs[0]:
            assert np.array_equal(runs[0][k], runs[1][k]), k

    def test_imputation_requires_mask_spec(self, rng):
        ds = tiny_dataset(rng)
        model = build_model(ds, tiny_config(task="impute"))
        with pytest.raises(ValueError):
            train(model, ds, TrainConfig(max_epochs=1))

    def test_imputation_loss_is_masked(self, rng):
        """At pass-through init the model reproduces unmasked inputs almost
        exactly, so the masked loss dwarfs the unmasked residual."""
        ds = tiny_dataset(rng)
        model = build_model(ds, tiny_config(task="impute"))
        model.set_passthrough_attention()
        spec = MaskSpec("random", 0.25, seed=0)
        loss = evaluate(model, ds, "val", mask_spec=spec)
        assert loss > 1e-4   # masked positions are genuinely wrong at init

    def test_superres_training_runs(self, rng):
        ds = tiny_dataset(rng)
        model = build_model(ds, tiny_config(task="superres", sr_ratio=4))
        cfg = TrainConfig(learning_rate=1e-3, max_epochs=1, batch_size=16)
        history, best_val = train(model, ds, cfg)
        assert np.isfinite(best_val)

    def test_nonfinite_loss_raises_numerical_error(self, rng):
        ds = tiny_dataset(rng)
        model = build_model(ds, tiny_config())
        some = next(iter(model.parameters().values()))
        some.data[...] = np.nan
        with pytest.raises(NumericalError):
            train(model, ds, TrainConfig(max_epochs=1))

    def test_baseline_nan_weight_raises_numerical_error(self, rng):
        lin = LinearBaseline(32, 32)
        lin.weight.data[0, 0] = np.nan
        with pytest.raises(NumericalError, match="loss is non-finite"):
            lin.fit(tiny_dataset(rng), TrainConfig(max_epochs=1))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_grad_names_its_group(self, rng, monkeypatch, value):
        """A finite loss whose bias gradient is non-finite: clipping scales an
        inf by 0 to NaN, so only the bias is named either way."""
        linear = T.linear

        def poisoned(x, weight, bias):
            bias = T._make(bias.data, (bias,), lambda g: (np.full_like(g, value),))
            return linear(x, weight, bias)

        monkeypatch.setattr(T, "linear", poisoned)
        with pytest.raises(NumericalError, match=r"non-finite grads in \['bias'\]"):
            LinearBaseline(32, 32).fit(tiny_dataset(rng), TrainConfig(max_epochs=1))

    def test_single_window_overfit_probe(self, rng):
        """A model trained on one repeated window should drive its loss well
        below the initial value."""
        t = np.arange(96) / 12.0
        data = np.stack([np.sin(t), np.cos(t)])
        data = np.tile(data, (1, 4))   # 384 points
        ds = build_dataset(["a", "b"], data + 0.0, (0.5, 0.25, 0.25))
        model = build_model(ds, tiny_config())
        start = evaluate(model, ds, "train")
        cfg = TrainConfig(learning_rate=5e-3, max_epochs=15, patience=15)
        train(model, ds, cfg)
        end = evaluate(model, ds, "train")
        assert end < start * 0.5


class TestBuildModel:
    def test_clustering_fitted_when_requested(self, rng):
        ds = tiny_dataset(rng, channels=4)
        model = build_model(ds, tiny_config(n_clusters=2))
        clustering = model.trend_head.clustering
        assert clustering.k == 2
        assert clustering.assignments.shape == (4,)
        assert set(clustering.assignments.tolist()) <= {0, 1}

    def test_single_cluster_skips_fit(self, rng):
        ds = tiny_dataset(rng)
        model = build_model(ds, tiny_config())
        assert model.trend_head.clustering.k == 1
