import contextlib
import csv
import tracemalloc

import numpy as np
import pytest
from pytest import approx

import adawavenet.tensor as T
import adawavenet.train as TR
from adawavenet.baselines import LinearBaseline
from adawavenet.config import ModelConfig, TrainConfig
from adawavenet.data import DataError, MaskSpec, build_dataset, windows
from adawavenet.decompose import decompose
from adawavenet.grouped import kmeans
from adawavenet.model import AdaWaveNet
from adawavenet.tensor import Tensor
from adawavenet.train import (MAX_FEATURE_WINDOWS, AdamState, NumericalError,
                              _prepare_batch, _train_epoch, adam_step,
                              build_model, clip_gradients, evaluate,
                              score_split, train)

from conftest import passthrough_attention


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

    def test_leaves_sharing_one_gradient_array_are_clipped_once(self):
        """add passes its upstream gradient to both parents, so p.grad is
        q.grad; the global norm after clipping is still exactly max_norm."""
        p, q = (Tensor(np.ones(3), requires_grad=True) for _ in range(2))
        T.mse(T.add(p, q), Tensor(np.zeros(3))).backward()
        assert p.grad is q.grad
        unclipped = float(np.sqrt(np.vdot(p.grad, p.grad) + np.vdot(q.grad, q.grad)))
        params = {"p": p, "q": q}
        assert clip_gradients(params, 1.0) == unclipped
        assert np.sqrt(np.vdot(p.grad, p.grad) + np.vdot(q.grad, q.grad)) == approx(1.0)

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
        got = evaluate(model, ds, "val", spec)
        assert graph_free and all(graph_free)
        graph_free.clear()
        monkeypatch.setattr(T, "no_grad", contextlib.nullcontext)
        want = evaluate(model, ds, "val", spec)
        assert graph_free and not any(graph_free)
        assert got == want


def _reference_step(model, params, state, train_cfg, inp, tgt, lm):
    """The training step before batches ran in slices, verbatim: the oracle
    of TestSlicedStep. Returns the batch's loss."""
    pred = model.forward(Tensor(inp))
    loss = T.mse(pred, Tensor(tgt), mask=Tensor(lm) if lm is not None else None)
    value = loss.item()
    if not np.isfinite(value):
        raise NumericalError("loss is non-finite")
    for p in params.values():
        p.zero_grad()
    loss.backward()
    if not np.isfinite(clip_gradients(params, train_cfg.clip_norm)):
        bad = [k for k, p in params.items()
               if p.grad is not None and not np.all(np.isfinite(p.grad))]
        if bad:
            raise NumericalError(f"non-finite grads in {bad}")
    adam_step(params, state, train_cfg.learning_rate)
    return value


def _tap_output(model, seen):
    """Make model.forward append (output, d loss/d output) of each backward
    to seen."""
    forward = model.forward

    def tapped(x):
        out = forward(x)
        return T._make(out.data, (out,),
                       lambda g: (seen.append((out.data, g.copy())) or g,))

    model.forward = tapped


def _slice_to(monkeypatch, window, n):
    """Set train.SLICE_BYTES so that a batch of ``window``-sized inputs runs
    in slices of n windows."""
    monkeypatch.setattr(TR, "SLICE_BYTES", n * window.nbytes)


class TestSlicedStep:
    BATCH = 7

    def _setup(self, rng, task):
        ds = tiny_dataset(rng, channels=3)
        model = build_model(ds, tiny_config(task=task))
        for p in model.parameters().values():   # wake the zero-init kernels
            p.data += rng.normal(0.0, 0.05, p.shape)
        spec = MaskSpec("random", 0.25, seed=1) if task == "impute" else None
        xs, ys = windows(ds, "train", 32, 32, task)
        inp, tgt, lm = _prepare_batch(task, xs, ys, np.arange(self.BATCH), spec, 1,
                                      mask_salt=1)
        return ds, model, spec, (inp, tgt, lm)

    @pytest.mark.parametrize("task", ["forecast", "impute"])
    @pytest.mark.parametrize("n", [1, 3, BATCH])
    def test_slices_add_up_to_the_unsliced_step(self, rng, monkeypatch, task, n):
        """One slice is the unsliced step bit for bit, Adam update included.
        With several slices each divides by the batch's count, so d loss/d
        pred is bitwise the unsliced loss's at the same predictions; the
        loss and gradients match the unsliced step to 1e-12 relative, as a
        slice's forward may pick another kernel and the gradients add up in
        another order."""
        _, model, _, (inp, tgt, lm) = self._setup(rng, task)
        start = {k: p.data.copy() for k, p in model.parameters().items()}
        cfg = TrainConfig(batch_size=self.BATCH)

        seen = []
        _tap_output(model, seen)
        params = model.parameters()
        want = _reference_step(model, params, AdamState(params), cfg, inp, tgt, lm)
        want_grad = {k: p.grad for k, p in params.items()}
        want_data = {k: p.data.copy() for k, p in params.items()}

        for k, p in params.items():
            p.data[...] = start[k]
        seen.clear()
        _slice_to(monkeypatch, inp[0], n)
        got = _train_epoch(model, params, AdamState(params), cfg,
                           np.arange(self.BATCH), lambda idx: (inp, tgt, lm))

        assert len(seen) == -(-self.BATCH // n)
        pred = Tensor(np.concatenate([out for out, _ in seen]), requires_grad=True)
        T.mse(pred, Tensor(tgt), None if lm is None else Tensor(lm)).backward()
        assert np.array_equal(np.concatenate([g for _, g in seen]), pred.grad)
        if n == self.BATCH:
            assert got == want
            for k, p in params.items():
                assert np.array_equal(p.grad, want_grad[k]), k
                assert np.array_equal(p.data, want_data[k]), k
        else:
            assert got == approx(want, rel=1e-12)
            for k, p in params.items():
                w = want_grad[k]
                assert np.linalg.norm(p.grad - w) <= 1e-12 * np.linalg.norm(w), k

    @pytest.mark.parametrize("task", ["forecast", "impute"])
    def test_scores_do_not_depend_on_the_slice_size(self, rng, monkeypatch, task):
        ds, model, spec, _ = self._setup(rng, task)
        xs, _ = windows(ds, "val", 32, 32, task)
        assert len(xs) > 3
        want = score_split(model, ds, "val", task, mask_spec=spec)
        for n in (1, 3, len(xs)):
            _slice_to(monkeypatch, xs[0], n)
            got = score_split(model, ds, "val", task, mask_spec=spec)
            assert got == approx(want, rel=1e-12), n


class TestSliceMemory:
    """At C=64, L=96 a window is 48 KiB: with slices of 4 windows a step and
    a scoring pass hold a quarter of the activations of one 16- or 64-window
    forward."""

    @pytest.fixture(scope="class")
    def setup(self):
        ds = tiny_dataset(np.random.default_rng(0), channels=64, total=1000,
                          fractions=(0.4, 0.3, 0.3))
        model = build_model(ds, ModelConfig())
        xs, ys = windows(ds, "train", 96, 96, "forecast")
        assert len(windows(ds, "val", 96, 96, "forecast")[0]) >= 64
        return ds, model, xs, ys

    @staticmethod
    def _peak(fn):
        fn()   # warm the caches both runs share
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_a_sliced_step_holds_one_slice(self, setup, monkeypatch):
        _, model, xs, ys = setup
        params = model.parameters()
        state, cfg = AdamState(params), TrainConfig(batch_size=16)

        def step():
            _train_epoch(model, params, state, cfg, np.arange(16),
                         lambda idx: _prepare_batch("forecast", xs, ys, idx,
                                                    None, 1, mask_salt=1))

        _slice_to(monkeypatch, xs[0], 16)
        whole = self._peak(step)
        _slice_to(monkeypatch, xs[0], 4)
        assert self._peak(step) < 0.4 * whole

    def test_a_sliced_evaluation_holds_one_slice(self, setup, monkeypatch):
        ds, model, xs, _ = setup
        _slice_to(monkeypatch, xs[0], 64)
        whole = self._peak(lambda: evaluate(model, ds, "val", None))
        _slice_to(monkeypatch, xs[0], 4)
        assert self._peak(lambda: evaluate(model, ds, "val", None)) < 0.4 * whole


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
        first = evaluate(model, ds, "val", None)[0]
        cfg = TrainConfig(learning_rate=2e-3, max_epochs=4, batch_size=16, seed=0)
        history, best_val = train(model, ds, cfg)
        assert best_val < first
        assert history[0][1] >= history[-1][1] * 0.5  # train loss not exploding

    def test_early_stopping_restores_best_state(self, rng):
        ds = tiny_dataset(rng)
        model = build_model(ds, tiny_config())
        cfg = TrainConfig(learning_rate=2e-3, max_epochs=10, patience=2, seed=0)
        history, best_val = train(model, ds, cfg)
        assert evaluate(model, ds, "val", None)[0] == approx(best_val, rel=1e-9)
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

    def test_epoch_seconds_ignore_a_stepped_wall_clock(self, rng, monkeypatch):
        """Durations come from a monotonic clock: a wall clock that steps
        back 1000 s on every read leaves them small and non-negative."""
        wall = iter(range(10 ** 9, 0, -1000))
        monkeypatch.setattr(TR.time, "time", lambda: float(next(wall)))
        ds = tiny_dataset(rng)
        history, _ = train(build_model(ds, tiny_config()), ds, TrainConfig(max_epochs=2))
        assert all(0 <= row[4] < 100 for row in history)

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
        passthrough_attention(model.head)
        spec = MaskSpec("random", 0.25, seed=0)
        loss = evaluate(model, ds, "val", spec)[0]
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
        add = T.add

        def poisoned(a, bias):
            bias = T._make(bias.data, (bias,), lambda g: (np.full_like(g, value),))
            return add(a, bias)

        monkeypatch.setattr(T, "add", poisoned)
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
        start = evaluate(model, ds, "train", None)[0]
        cfg = TrainConfig(learning_rate=5e-3, max_epochs=15, patience=15)
        train(model, ds, cfg)
        end = evaluate(model, ds, "train", None)[0]
        assert end < start * 0.5


class TestBuildModel:
    def test_clustering_fitted_when_requested(self, rng):
        ds = tiny_dataset(rng, channels=4)
        model = build_model(ds, tiny_config(n_clusters=2))
        assignments = model.trend_head.assignments
        assert model.config.n_clusters == 2
        assert assignments.shape == (4,)
        assert set(assignments.tolist()) <= {0, 1}

    def test_more_clusters_than_channels_is_data_error(self, rng):
        """k-means does not check k against the channel count; build_model does."""
        with pytest.raises(DataError, match="n_clusters=3 exceeds the data's 2 channel"):
            build_model(tiny_dataset(rng), tiny_config(n_clusters=3))

    def test_single_cluster_skips_fit(self, rng):
        ds = tiny_dataset(rng)
        model = build_model(ds, tiny_config())
        assert model.config.n_clusters == 1
        assert np.array_equal(model.trend_head.assignments, np.zeros(2))

    def test_clustering_reads_only_the_leading_train_windows(self, rng):
        """Channels 0, 1 rise and 2, 3 fall over the rows the first
        MAX_FEATURE_WINDOWS windows reach; past them, 1 and 2 swap direction
        over three times as many windows. Only the leading rows decide."""
        cfg = tiny_config(n_clusters=2)
        reach = MAX_FEATURE_WINDOWS + cfg.input_len - 1
        n_train = reach + 3 * MAX_FEATURE_WINDOWS
        t = np.arange(n_train + 200) / 100.0
        slopes = np.array([[1.0], [1.0], [-1.0], [-1.0]])
        data = slopes * t + 0.01 * rng.normal(size=(4, len(t)))
        late = data.copy()
        late[:, reach:] = slopes[[0, 3, 0, 3]] * t[reach:] * 2

        def assignments(panel):
            ds = build_dataset(["a", "b", "c", "d"], panel,
                               (n_train / len(t), 100 / len(t), 100 / len(t)))
            assert ds.splits["train"] == (0, n_train)
            return build_model(ds, cfg).trend_head.assignments

        labels = assignments(data)
        assert labels[0] == labels[1] != labels[2] == labels[3]
        assert np.array_equal(assignments(late), labels)

    @pytest.mark.parametrize("channels,k", [(7, 3), (40, 4)])
    def test_assignments_match_the_mean_of_stacked_trends(self, channels, k):
        """Oracle: decompose every leading train window, average the trends,
        z-normalize each channel and run k-means; the trend of the mean
        window must give the same labels."""
        rng = np.random.default_rng(channels)
        t = np.arange(1200) / 24.0
        freq = rng.uniform(0.2, 2.0, size=(channels, 1))
        slope = rng.normal(0.0, 0.05, size=(channels, 1))
        panel = (np.sin(2 * np.pi * freq * t + rng.uniform(0, 6, size=(channels, 1)))
                 + slope * t + 0.1 * rng.normal(size=(channels, len(t))))
        ds = build_dataset([f"c{c}" for c in range(channels)], panel, (0.7, 0.15, 0.15))
        cfg = tiny_config(n_clusters=k, seed=3)
        xs, _ = windows(ds, "train", cfg.input_len, cfg.pred_len, cfg.task)
        assert len(xs) > MAX_FEATURE_WINDOWS
        feats = decompose(Tensor(xs[:MAX_FEATURE_WINDOWS]), cfg.ma_window).trend.data.mean(axis=0)
        sd = feats.std(axis=1, keepdims=True)
        sd[sd == 0] = 1.0
        expected = kmeans((feats - feats.mean(axis=1, keepdims=True)) / sd, k, seed=3)[0]
        assert np.array_equal(build_model(ds, cfg).trend_head.assignments, expected)

    def test_clustering_memory_does_not_grow_with_the_windows(self, rng):
        """At C=64 with more than MAX_FEATURE_WINDOWS train windows, fitting
        four clusters costs under 1 MB of peak memory over one cluster; a
        stack of 512 windows would be 8 MB per copy."""
        ds = tiny_dataset(rng, channels=64, total=1400, fractions=(0.7, 0.15, 0.15))
        cfg = tiny_config()
        assert len(windows(ds, "train", cfg.input_len, cfg.pred_len, cfg.task)[0]) \
            > MAX_FEATURE_WINDOWS

        def peak(k):
            tracemalloc.start()
            try:
                build_model(ds, tiny_config(n_clusters=k))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(4)   # warm caches that both runs share
        assert peak(4) - peak(1) < 1e6
