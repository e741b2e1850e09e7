import contextlib
import json
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from pytest import approx

import adawavenet.bench as B
import adawavenet.tensor as T
from adawavenet.baselines import LinearBaseline, baseline_persistence
from adawavenet.bench import (SYNTH_FRACTIONS, RunResult, aggregate,
                              case_study, cell_configs, cell_mask_spec,
                              config_hash, evaluate_forecast, evaluate_impute,
                              evaluate_superres, format_report, load_manifest,
                              resolve_dataset, run_benchmark, run_cell)
from adawavenet.config import ConfigError, ModelConfig, TrainConfig
from adawavenet.data import (DataError, MaskSpec, build_dataset, downsample,
                             load_csv, make_mask, windows)
from adawavenet.metrics import metrics, score
from adawavenet.model import AdaWaveNet, zoh_upsample
from adawavenet.tensor import NumericalError, Tensor
from adawavenet.train import _prepare_batch, build_model, evaluate, score_split

from conftest import write_ett_csv


class TestMetrics:
    def test_zero_error(self, rng):
        x = rng.normal(size=(3, 8))
        assert metrics(x, x) == (0.0, 0.0)

    def test_constant_offset(self, rng):
        x = rng.normal(size=(3, 8))
        mse, mae = metrics(x + 2.0, x)
        assert mse == approx(4.0)
        assert mae == approx(2.0)

    def test_hand_computed(self):
        mse, mae = metrics(np.array([1.0, 2.0]), np.array([0.0, 4.0]))
        assert mse == approx((1 + 4) / 2)
        assert mae == approx((1 + 2) / 2)

    def test_masked_averages_only_selected(self):
        pred = np.array([1.0, 10.0, 3.0])
        tgt = np.array([0.0, 0.0, 0.0])
        mask = np.array([1.0, 0.0, 1.0])
        mse, mae = score([(pred, tgt, mask)])
        assert mse == approx((1 + 9) / 2)
        assert mae == approx((1 + 3) / 2)

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError):
            score([(np.ones(3), np.ones(3), np.zeros(3))])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            metrics(np.ones(3), np.ones(4))

    def test_nan_prediction_rejected(self):
        with pytest.raises(ValueError):
            metrics(np.array([1.0, np.nan]), np.zeros(2))

    def test_equal_large_errors_pass_jensen(self):
        """MAE == sqrt(MSE) up to rounding; an absolute slack failed here."""
        c, n = 30052863.743084725, 104
        mse, mae = metrics(np.full(n, c), np.zeros(n))
        assert (mse, mae) == (approx(c * c, rel=1e-15), approx(c, rel=1e-15))

    @pytest.mark.parametrize("masked", [False, True])
    def test_score_sums_batches(self, rng, masked):
        """Scoring batches equals scoring their concatenation; a batch with an
        empty mask adds nothing, an empty total is rejected."""
        shapes = [(5, 2, 8), (3, 2, 8), (1, 2, 8)]
        batches = [(rng.normal(size=s), rng.normal(size=s),
                    (rng.random(s) < 0.5).astype(float) if masked else None)
                   for s in shapes]
        if masked:
            batches[1][2][...] = 0.0
        preds, tgts, masks = zip(*batches)
        whole = score([(np.concatenate(preds), np.concatenate(tgts),
                        np.concatenate(masks) if masked else None)])
        np.testing.assert_allclose(score(batches), whole, rtol=1e-12, atol=0.0)
        with pytest.raises(ValueError, match="empty mask"):
            score([batches[0][:2] + (np.zeros(shapes[0]),)])

    @pytest.mark.parametrize("pred", [[1e200, 0.0], [np.inf, 0.0]],
                             ids=["overflowing", "infinite"])
    @pytest.mark.parametrize("mask", [None, [1.0, 0.0]], ids=["all", "masked"])
    def test_infinite_error_rejected(self, pred, mask):
        """1e200 squares to inf; an inf error under a 0 mask gives NaN."""
        mask = None if mask is None else np.array(mask)
        with pytest.raises(NumericalError, match="non-finite error"):
            score([(np.array(pred), np.zeros(2), mask)])


class TestBaselines:
    def test_persistence_by_definition(self):
        x = np.array([[[1.0, 2.0, 3.0]]])
        assert baseline_persistence(x, 4) == approx(np.full((1, 1, 4), 3.0))

    def test_linear_identity_init(self, rng):
        lb = LinearBaseline(8, 8)
        x = rng.normal(size=(2, 3, 8))
        assert lb.predict(x) == approx(x)

    def test_linear_fits_exact_linear_map(self, rng):
        """Target = input reversed is linearly expressible; training should
        drive the error well below the identity-init error."""
        t = np.arange(300)
        data = np.sin(2 * np.pi * t / 17.0)[None, :] + 0.01 * rng.normal(size=(1, 300))
        ds = build_dataset(["x"], data, (0.6, 0.2, 0.2))
        lb = LinearBaseline(16, 16)
        xs, ys = windows(ds, "val", 16, 16, "forecast")
        before = metrics(lb.predict(xs), ys)[0]
        lb.fit(ds, TrainConfig(learning_rate=5e-3, max_epochs=20, seed=0))
        after = metrics(lb.predict(xs), ys)[0]
        assert after < before * 0.5


class TestRunResult:
    def test_config_hash_is_stable_and_sensitive(self):
        a = config_hash(ModelConfig(), TrainConfig())
        b = config_hash(ModelConfig(), TrainConfig())
        c = config_hash(ModelConfig(levels=3), TrainConfig())
        assert a == b and a != c and len(a) == 12


class TestSynthDataset:
    def test_fractions_give_half_test(self):
        ds = resolve_dataset("synth:simple", seed=0)
        assert ds.splits["train"] == (0, 320)
        assert ds.splits["val"] == (320, 512)
        assert ds.splits["test"] == (512, 1024)
        assert abs(sum(SYNTH_FRACTIONS) - 1.0) < 1e-12

    def test_resolve_synth_name(self):
        ds = resolve_dataset("synth:simple", seed=1)
        assert ds.values.shape == (1, 1024)

    def test_resolve_missing_file(self):
        with pytest.raises(DataError):
            resolve_dataset("/nonexistent/data.csv")


@pytest.fixture(scope="module")
def ett_csv(tmp_path_factory):
    """A synthetic file of ETTh1's shape: 17420 hourly rows, 7 channels."""
    return write_ett_csv(tmp_path_factory.mktemp("ett") / "ETTh1.csv", 17420)


class TestEtthDataset:
    def test_first_14400_rows_split_60_20_20(self, ett_csv):
        """etth:PATH is the 12/4/4-month protocol spelled out by hand."""
        names, values = load_csv(ett_csv)
        want = build_dataset(names, values[:, :14400], (0.6, 0.2, 0.2))
        got = resolve_dataset(f"etth:{ett_csv}")
        assert got.channel_names == want.channel_names
        assert got.values.tobytes() == want.values.tobytes()
        assert got.mean.tobytes() == want.mean.tobytes()
        assert got.std.tobytes() == want.std.tobytes()
        assert got.splits == want.splits == {
            "train": (0, 8640), "val": (8640, 11520), "test": (11520, 14400)}

    def test_constant_channel_warns_once(self, tmp_path):
        """The file is parsed into one dataset, so its constant channel is
        reported once."""
        path = write_ett_csv(tmp_path / "flat.csv", 14400)
        rows = [line.split(",") for line in Path(path).read_text().splitlines()]
        for row in rows[1:11001]:      # channel 1 is flat over every train split
            row[2] = "0.5"
        Path(path).write_text("\n".join(map(",".join, rows)) + "\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            resolve_dataset(f"etth:{path}")
        assert [str(w.message) for w in caught] == [
            "constant channels [1]: std forced to 1"]

    def test_short_file_rejected(self, tmp_path):
        path = write_ett_csv(tmp_path / "short.csv", 14399)
        with pytest.raises(DataError, match="14399 data rows"):
            resolve_dataset(f"etth:{path}")

    def test_missing_file_rejected_as_for_a_plain_csv(self):
        with pytest.raises(DataError) as plain:
            resolve_dataset("/nonexistent/ETTh1.csv")
        with pytest.raises(DataError) as etth:
            resolve_dataset("etth:/nonexistent/ETTh1.csv")
        assert str(etth.value) == str(plain.value)


class TestAggregate:
    def make(self, seed, mse):
        return RunResult("forecast", "d", "s", mse=mse, mae=np.sqrt(mse) / 2,
                         runtime_s=1.0, config_hash="h", seed=seed)

    def test_multi_seed_mean_std_oracle(self):
        rows = aggregate([self.make(0, 0.4), self.make(1, 0.6), self.make(2, 0.5)])
        assert len(rows) == 1
        row = rows[0]
        assert row["n_seeds"] == 3
        assert row["mse_mean"] == approx(0.5)
        assert row["mse_std"] == approx(np.std([0.4, 0.5, 0.6]))

    def test_groups_split_by_setting(self):
        a = self.make(0, 0.4)
        b = RunResult("forecast", "d", "other", mse=0.1, mae=0.1,
                      runtime_s=1.0, config_hash="h", seed=0)
        assert len(aggregate([a, b])) == 2

    def test_empty(self):
        assert aggregate([]) == []


class TestReportAndManifest:
    def test_empty_report(self):
        text = format_report([], ["ds1: missing"])
        assert "_no results_" in text
        assert "ds1: missing" in text

    def test_report_contains_aggregates(self):
        r = RunResult("forecast", "synth:simple", "Lp=96", mse=0.25, mae=0.3,
                      runtime_s=2.0, config_hash="h", seed=0)
        text = format_report([r], [])
        assert "synth:simple" in text and "0.250" in text

    def test_load_manifest(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"cells": [{"dataset": "synth:simple"}]}))
        assert load_manifest(str(path))["cells"][0]["dataset"] == "synth:simple"

    def test_run_benchmark_skips_missing_dataset(self, tmp_path):
        manifest = {"cells": [{"dataset": "/nonexistent/never.csv",
                               "seeds": [0]}]}
        results, skipped, failed = run_benchmark(manifest, str(tmp_path / "out"))
        assert results == [] and failed == []
        assert len(skipped) == 1
        assert (tmp_path / "out" / "report.md").exists()
        assert (tmp_path / "out" / "results.csv").exists()

    def test_run_benchmark_single_synth_cell(self, tmp_path):
        manifest = {"cells": [{"dataset": "synth:simple", "seeds": [0],
                               "levels": 2, "kernel_size": 3, "input_len": 48,
                               "pred_len": 48, "max_epochs": 1,
                               "learning_rate": 1e-3}]}
        results, skipped, failed = run_benchmark(manifest, str(tmp_path / "out"))
        assert skipped == [] and failed == []
        assert len(results) == 1
        assert results[0].task == "forecast"
        assert np.isfinite(results[0].mse)
        lines = (tmp_path / "out" / "results.csv").read_text().splitlines()
        assert len(lines) == 2

    @pytest.mark.parametrize("task,setting", [("impute", "mask=0.25:random"),
                                              ("superres", "r=1")])
    def test_cell_keys_are_read_as_given(self, task, setting):
        """The cell's config is its own keys plus the seed: no task decides
        revin or sr_ratio again."""
        sizes = {"levels": 2, "kernel_size": 3, "input_len": 48, "pred_len": 48}
        result = run_cell({"dataset": "synth:simple", "task": task,
                           "max_epochs": 1, **sizes}, seed=3)
        assert result.setting == setting
        assert result.config_hash == config_hash(
            ModelConfig(task=task, seed=3, **sizes), TrainConfig(max_epochs=1, seed=3))

    def test_runtime_ignores_a_stepped_wall_clock(self, monkeypatch):
        wall = iter(range(10 ** 9, 0, -1000))
        monkeypatch.setattr(B.time, "time", lambda: float(next(wall)))
        result = run_cell({"dataset": "synth:simple", "max_epochs": 1, "levels": 2,
                           "kernel_size": 3, "input_len": 48, "pred_len": 48}, seed=3)
        assert 0 <= result.runtime_s < 100

    def test_string_mask_ratio_runs(self):
        result = run_cell({"dataset": "synth:simple", "task": "impute",
                           "mask_ratio": "0.25", "max_epochs": 1, "levels": 2,
                           "kernel_size": 3, "input_len": 48, "pred_len": 48}, seed=3)
        assert result.setting == "mask=0.25:random"

    def test_case_study_scores_without_a_graph(self, monkeypatch):
        """With training patched out, no scoring forward of the model or the
        linear baseline records a graph, and the metrics and predictions are
        bitwise those of scoring with the graph."""
        outputs = []

        def spy(forward):
            def wrapped(self, x):
                outputs.append(forward(self, x))
                return outputs[-1]
            return wrapped

        monkeypatch.setattr(B, "train", lambda *args, **kwargs: None)
        monkeypatch.setattr(LinearBaseline, "fit", lambda self, *args: self)
        monkeypatch.setattr(AdaWaveNet, "forward", spy(AdaWaveNet.forward))
        monkeypatch.setattr(LinearBaseline, "forward", spy(LinearBaseline.forward))
        free = case_study("simple", 0)
        assert outputs and all(out._parents == () for out in outputs)
        outputs.clear()
        monkeypatch.setattr(B, "no_grad", contextlib.nullcontext)
        monkeypatch.setattr(T, "no_grad", contextlib.nullcontext)
        graph = case_study("simple", 0)
        assert outputs and all(out._parents != () for out in outputs)
        for key in ("model", "linear", "persistence"):
            assert free[key] == graph[key]
        assert free["preds"].tobytes() == graph["preds"].tobytes()

    def test_cell_scores_without_a_graph(self, monkeypatch):
        """Training forwards record a graph and the scoring forwards none; the
        metrics equal those of scoring the trained model with the graph."""
        forward, evaluate = AdaWaveNet.forward, B.evaluate
        forwards, scored = [], []

        def spy_forward(self, x):
            out = forward(self, x)
            forwards.append((bool(scored), out._backward is None))
            return out

        def spy_evaluate(*args):
            scored.append(args)
            return evaluate(*args)

        monkeypatch.setattr(AdaWaveNet, "forward", spy_forward)
        monkeypatch.setattr(B, "evaluate", spy_evaluate)
        result = run_cell({"dataset": "synth:simple", "task": "impute",
                           "max_epochs": 1, "levels": 2, "kernel_size": 3,
                           "input_len": 48, "pred_len": 48}, seed=3)
        training = [free for in_scoring, free in forwards if not in_scoring]
        scoring = [free for in_scoring, free in forwards if in_scoring]
        assert not all(training) and scoring and all(scoring)
        forwards.clear()
        model, dataset, split, mask_spec = scored[0]
        assert split == "test"
        assert (result.mse, result.mae) == score_split(
            model, dataset, split, "impute", mask_spec, model.config.sr_ratio)
        assert not any(free for _, free in forwards)

    def test_unknown_cell_key_rejected(self):
        with pytest.raises(ConfigError,
                           match="cell synth:simple: unknown key 'learnign_rate'"):
            run_cell({"dataset": "synth:simple", "learnign_rate": 0.5}, seed=0)

    @pytest.mark.parametrize("key,value,expected", [
        ("revin", "false", False), ("revin", False, False), ("levels", "2", 2),
        ("learning_rate", 1, 1.0), ("learning_rate", "0.005", 0.005)])
    def test_cell_values_are_typed(self, key, value, expected):
        model_cfg, train_cfg = cell_configs({"dataset": "synth:simple",
                                             key: value}, seed=0)
        got = getattr(model_cfg if hasattr(model_cfg, key) else train_cfg, key)
        assert got == expected and type(got) is type(expected)

    @pytest.mark.parametrize("value", [2.5, 2.0, None, True])
    def test_untyped_cell_value_rejected(self, value):
        with pytest.raises(ConfigError, match="bad value for 'levels'"):
            cell_configs({"dataset": "synth:simple", "levels": value}, seed=0)

    def test_run_seed_overrides_cell_seed(self):
        model_cfg, train_cfg = cell_configs({"dataset": "synth:simple",
                                             "seed": 9}, seed=2)
        assert model_cfg.seed == train_cfg.seed == 2

    def test_shipped_manifest_config_hashes_are_pinned(self):
        """Hashes of each cell of scripts/manifest.json with its first seed,
        as the manifest's settings gave them before cells were typed, with
        the ``eq9_literal=False`` line since dropped from the hashed text."""
        path = Path(__file__).parents[1] / "scripts" / "manifest.json"
        cells = load_manifest(str(path))["cells"]
        assert [config_hash(*cell_configs(c, c["seeds"][0])) for c in cells] == [
            "b68642473f16", "b68642473f16", "db39cefd6646", "c1fd1a314b92",
            "b9c129b7b70a"]

    @pytest.mark.parametrize("text", [
        '{"cells": [', "[]", '{"cells": {}}', '{"cells": [{"seeds": [0]}]}',
        '{"cells": [{"dataset": "synth:simple", "seeds": 0}]}',
        '{"cells": [{"dataset": "synth:simple", "seeds": ["x"]}]}',
        '{"cells": [{"dataset": "synth:simple", "learnign_rate": 0.5}]}'],
        ids=["invalid-json", "list", "cells-object", "no-dataset", "seeds-int",
             "seed-text", "unknown-key"])
    def test_malformed_manifest_rejected(self, tmp_path, text):
        path = tmp_path / "m.json"
        path.write_text(text)
        with pytest.raises(ConfigError):
            load_manifest(str(path))

    @pytest.mark.parametrize("cell,expected", [
        ({}, ("random", 0.25)), ({"mask_ratio": "0.25"}, ("random", 0.25)),
        ({"mask_ratio": 0.5, "mask_mode": "extended"}, ("extended", 0.5))],
        ids=["defaults", "string-ratio", "float-ratio"])
    def test_mask_run_keys_are_typed(self, cell, expected):
        spec = cell_mask_spec({"dataset": "synth:simple", **cell}, seed=4)
        assert (spec.mode, spec.ratio, spec.seed) == expected + (4,)
        assert type(spec.ratio) is float

    @pytest.mark.parametrize("key,value,match", [
        ("mask_ratio", "abc", "bad value for 'ratio'"),
        ("mask_ratio", True, "bad value for 'ratio'"),
        ("mask_ratio", 1.5, "mask ratio must lie in"),
        ("mask_ratio", "nan", "mask ratio must lie in"),
        ("mask_mode", "blocky", "unknown mask mode")],
        ids=["non-numeric", "bool", "out-of-range", "nan", "unknown-mode"])
    def test_bad_mask_run_key_rejected_before_any_run(self, tmp_path, key,
                                                       value, match):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"cells": [
            {"dataset": "synth:simple", "task": "impute", "seeds": [0]},
            {"dataset": "synth:simple", "task": "impute", "seeds": [0], key: value}]}))
        with pytest.raises(ConfigError, match=f"cell synth:simple: .*{match}"):
            load_manifest(str(path))

    @pytest.mark.parametrize("dataset,key,value,message", [
        ("synth:traffic", "levels", 0, "levels must be >= 1"),
        ("synth:traffic", "levels", "abc", "bad value for 'levels': .*"),
        ("synth:traffic", "mask_ratio", 1.5, "mask ratio must lie in \\(0, 1\\)"),
        ("synth:nope", "levels", 2, "unknown family 'nope'")],
        ids=["range", "parse", "mask", "family"])
    def test_cell_settings_error_names_its_cell_once(self, tmp_path, dataset, key,
                                                      value, message):
        """A bad setting in the second cell names that cell, once, whichever
        check finds it: the config's range check, the value parser, the mask
        or the synthetic family."""
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"cells": [
            {"dataset": "synth:simple", "seeds": [0]},
            {"dataset": dataset, "seeds": [0], key: value}]}))
        with pytest.raises(ConfigError, match=f"^cell {dataset}: {message}$"):
            load_manifest(str(path))

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_manifest(str(tmp_path / "missing.json"))


# -- reference evaluators ----------------------------------------------------
# The window generator, the three task evaluators and `train.evaluate` as they
# were before all of them moved onto window views and one scoring loop, kept
# verbatim (renamed) as oracles.

def _reference_windows(dataset, split, input_len, pred_len, task):
    vals = dataset.split_values(split)
    n = vals.shape[1]
    if task == "forecast":
        if input_len + pred_len > n:
            raise DataError(f"split {split!r} too short: {n} < {input_len + pred_len}")
        for t in range(n - input_len - pred_len + 1):
            yield vals[:, t:t + input_len], vals[:, t + input_len:t + input_len + pred_len]
    else:
        if input_len > n:
            raise DataError(f"split {split!r} too short: {n} < {input_len}")
        for t in range(n - input_len + 1):
            win = vals[:, t:t + input_len]
            yield win, win


def _reference_evaluate_forecast(model, dataset, split="test", batch_size=64):
    cfg = model.config
    pairs = list(_reference_windows(dataset, split, cfg.input_len, cfg.pred_len, "forecast"))
    preds, tgts = [], []
    for start in range(0, len(pairs), batch_size):
        chunk = pairs[start:start + batch_size]
        x = np.stack([p[0] for p in chunk])
        preds.append(model.forward(Tensor(x)).data)
        tgts.append(np.stack([p[1] for p in chunk]))
    return metrics(np.concatenate(preds), np.concatenate(tgts))


def _reference_evaluate_impute(model, dataset, mask_spec, split="test", batch_size=64):
    """Masks drawn one window at a time, against the evaluator's one
    make_mask call per batch."""
    cfg = model.config
    pairs = list(_reference_windows(dataset, split, cfg.input_len, cfg.pred_len, "impute"))
    preds, tgts, masks = [], [], []
    for start in range(0, len(pairs), batch_size):
        chunk = pairs[start:start + batch_size]
        x = np.stack([p[0] for p in chunk])
        m = np.stack([make_mask(mask_spec, x.shape[1:], 0, start + i)
                      for i in range(len(chunk))])
        preds.append(model.forward(Tensor(x * m)).data)
        tgts.append(x)
        masks.append(1.0 - m)
    return score([(np.concatenate(preds), np.concatenate(tgts),
                   np.concatenate(masks))])


def _reference_evaluate_superres(model, dataset, ratio, split="test", batch_size=64):
    cfg = model.config
    pairs = list(_reference_windows(dataset, split, cfg.input_len, cfg.pred_len, "superres"))
    preds, tgts = [], []
    for start in range(0, len(pairs), batch_size):
        chunk = pairs[start:start + batch_size]
        x = np.stack([p[0] for p in chunk])
        low = zoh_upsample(downsample(x, ratio), ratio)
        preds.append(model.forward(Tensor(low)).data)
        tgts.append(x)
    return metrics(np.concatenate(preds), np.concatenate(tgts))


def _reference_train_evaluate(model, dataset, split, mask_spec=None, batch_size=64):
    cfg = model.config
    pairs = list(_reference_windows(dataset, split, cfg.input_len, cfg.pred_len, cfg.task))
    xs = np.stack([p[0] for p in pairs])
    ys = np.stack([p[1] for p in pairs])
    total, weight = 0.0, 0.0
    for start in range(0, len(xs), batch_size):
        idx = np.arange(start, min(start + batch_size, len(xs)))
        inp, tgt, lm = _prepare_batch(cfg.task, xs, ys, idx, mask_spec,
                                      cfg.sr_ratio, mask_salt=0)
        pred = model.forward(Tensor(inp))
        loss = T.mse(pred, Tensor(tgt), mask=Tensor(lm) if lm is not None else None)
        w = lm.sum() if lm is not None else tgt.size
        total += loss.item() * w
        weight += w
        del pred, loss      # free this batch's graph before the next forward
    return total / weight


class TestScoringMemory:
    """Scoring holds one batch: the tracemalloc peak of an evaluator, under
    no_grad, barely grows when the test split has 4x the windows."""

    @staticmethod
    def peak_mb(evaluator, windows_count):
        cfg = ModelConfig()
        test_rows = windows_count + cfg.input_len + cfg.pred_len - 1
        t = np.arange(4 * test_rows)
        data = np.stack([np.sin(2 * np.pi * t / (20 + 3 * c)) for c in range(7)])
        dataset = build_dataset([f"c{c}" for c in range(7)], data,
                                (0.5, 0.25, 0.25))
        model = build_model(dataset, cfg)
        with T.no_grad():
            tracemalloc.start()
            try:
                evaluator(model, dataset)
                return tracemalloc.get_traced_memory()[1] / 1e6
            finally:
                tracemalloc.stop()

    @pytest.mark.parametrize("evaluator", [
        evaluate_forecast,
        lambda model, dataset: evaluate_impute(model, dataset, MaskSpec(seed=0))],
        ids=["forecast", "impute"])
    def test_peak_does_not_follow_the_split(self, evaluator):
        small, large = self.peak_mb(evaluator, 512), self.peak_mb(evaluator, 2048)
        assert large < 1.5 * small, (small, large)


def assert_close(got, want):
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


class TestEvaluatorsMatchReference:
    """Agreement to 1e-12 relative with the reference evaluators on a test
    split of 97 forecast windows and 113 input-only windows: two batches of
    64, the last one partial. The evaluators sum errors batch by batch and
    the references over the concatenated batches, so the sums round apart."""

    @pytest.fixture(scope="class")
    def dataset(self):
        rng = np.random.default_rng(8)
        t = np.arange(400)
        data = np.stack([np.sin(2 * np.pi * t / 23.0), np.cos(2 * np.pi * t / 31.0)])
        return build_dataset(["a", "b"], data + 0.1 * rng.normal(size=data.shape),
                             (0.5, 0.18, 0.32))

    def model(self, dataset, task, sr_ratio=1):
        cfg = ModelConfig(levels=2, kernel_size=3, input_len=16, pred_len=16,
                          d_model=8, heads=2, ma_window=5, task=task,
                          sr_ratio=sr_ratio, n_clusters=2, seed=1)
        model = build_model(dataset, cfg)
        rng = np.random.default_rng(0)
        for p in model.parameters().values():
            p.data += rng.normal(0.0, 0.05, p.data.shape)
        return model

    def test_window_counts_are_not_batch_multiples(self, dataset):
        n = dataset.split_values("test").shape[1]
        assert (n - 31, n - 15) == (97, 113)

    def test_forecast(self, dataset):
        model = self.model(dataset, "forecast")
        assert_close(evaluate_forecast(model, dataset),
                     _reference_evaluate_forecast(model, dataset))
        for split in ("val", "test"):
            assert_close(evaluate(model, dataset, split, None)[0],
                         _reference_train_evaluate(model, dataset, split))

    def test_impute(self, dataset):
        model = self.model(dataset, "impute")
        spec = MaskSpec("random", 0.25, seed=5)
        assert_close(evaluate_impute(model, dataset, spec),
                     _reference_evaluate_impute(model, dataset, spec))
        assert_close(evaluate(model, dataset, "test", spec)[0],
                     _reference_train_evaluate(model, dataset, "test", mask_spec=spec))

    def test_superres(self, dataset):
        model = self.model(dataset, "superres", sr_ratio=4)
        assert_close(evaluate_superres(model, dataset, 4),
                     _reference_evaluate_superres(model, dataset, 4))
        assert_close(evaluate(model, dataset, "test", None)[0],
                     _reference_train_evaluate(model, dataset, "test"))
