import tracemalloc
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

import adawavenet.tensor as T
from adawavenet.config import (INVERSE_MODES, TASKS, ConfigError, ModelConfig,
                               TrainConfig, build, read_items, to_text)
from adawavenet.bench import resolve_dataset
from adawavenet.data import DataError, MaskSpec
from adawavenet.model import (AdaWaveNet, RevIN, load_checkpoint, model_state,
                              restore_model, save_checkpoint, zoh_upsample)
from adawavenet.synth import SynthSpec
from adawavenet.tensor import Tensor, TensorError
from adawavenet.train import _prepare_batch, evaluate

from conftest import passthrough_attention


def from_text(cls, text):
    return build((cls,), read_items(text))[0]


def state(model):
    """The model's checkpoint arrays with unit normalization statistics."""
    return model_state(model, np.zeros(model.channels), np.ones(model.channels))


def small_config(**kw):
    base = dict(levels=2, kernel_size=3, input_len=32, pred_len=32,
                d_model=16, heads=4, ma_window=5)
    base.update(kw)
    return ModelConfig(**base)


class TestRevIN:
    def test_normalize_statistics(self, rng):
        x = rng.normal(3.0, 2.0, size=(2, 3, 64))
        revin = RevIN(3)
        xn, _ = revin.normalize(Tensor(x))
        assert xn.data.mean(axis=-1) == approx(np.zeros((2, 3)), abs=1e-12)
        assert xn.data.std(axis=-1) == approx(np.ones((2, 3)), rel=1e-6)

    def test_round_trip(self, rng):
        x = rng.normal(size=(2, 3, 16))
        revin = RevIN(3)
        revin.scale.data[...] = rng.normal(1.0, 0.2, size=(3, 1))
        revin.shift.data[...] = rng.normal(0.0, 0.2, size=(3, 1))
        xn, stats = revin.normalize(Tensor(x))
        back = revin.denormalize(xn, stats)
        assert np.abs(back.data - x).max() < 1e-10

    def test_constant_channel_is_finite(self):
        revin = RevIN(1)
        xn, stats = revin.normalize(Tensor(np.full((1, 1, 8), 4.0)))
        assert np.all(np.isfinite(xn.data))
        back = revin.denormalize(xn, stats)
        assert back.data == approx(np.full((1, 1, 8), 4.0))


class TestForward:
    def test_shape_law(self, rng):
        model = AdaWaveNet(small_config(), channels=3)
        out = model.forward(Tensor(rng.normal(size=(4, 3, 32))))
        assert out.shape == (4, 3, 32)

    def test_bad_input_shape_rejected(self, rng):
        model = AdaWaveNet(small_config(), channels=3)
        with pytest.raises(TensorError):
            model.forward(Tensor(rng.normal(size=(3, 32))))
        with pytest.raises(TensorError):
            model.forward(Tensor(rng.normal(size=(4, 3, 31))))

    def test_composed_passthrough_at_init(self, rng):
        """With the attention mixing path zeroed, every stage is the identity
        at init, so the whole network must reproduce its input."""
        model = AdaWaveNet(small_config(), channels=2)
        passthrough_attention(model.head)
        x = rng.normal(size=(3, 2, 32))
        out = model.forward(Tensor(x))
        assert np.abs(out.data - x).max() < 1e-10

    def test_passthrough_tied_mode(self, rng):
        model = AdaWaveNet(small_config(inverse_mode="tied"), channels=2)
        passthrough_attention(model.head)
        x = rng.normal(size=(1, 2, 32))
        assert np.abs(model.forward(Tensor(x)).data - x).max() < 1e-10

    def test_constant_offset_invariance_at_init(self, rng):
        """RevIN removes the per-window mean, so at pass-through init a
        constant channel offset must survive the round trip exactly."""
        model = AdaWaveNet(small_config(), channels=2)
        passthrough_attention(model.head)
        x = rng.normal(size=(2, 2, 32))
        base = model.forward(Tensor(x)).data
        shifted = model.forward(Tensor(x + 100.0)).data
        assert np.abs(shifted - (base + 100.0)).max() < 1e-7

    def test_gradients_reach_every_parameter_group(self, rng):
        model = AdaWaveNet(small_config(), channels=2)
        x = Tensor(rng.normal(size=(2, 2, 32)))
        loss = T.mse(model.forward(x), Tensor(rng.normal(size=(2, 2, 32))))
        loss.backward()
        for name, p in model.parameters().items():
            assert p.grad is not None, name
            assert np.any(p.grad != 0), name

    def test_tied_mode_excludes_inverse_kernels(self):
        tied = AdaWaveNet(small_config(inverse_mode="tied"), channels=1)
        learned = AdaWaveNet(small_config(), channels=1)
        tied_names = set(tied.parameters())
        learned_names = set(learned.parameters())
        assert not any("w_u_t" in n or "w_p_t" in n for n in tied_names)
        assert any("w_u_t" in n for n in learned_names)
        assert tied_names < learned_names

    @pytest.mark.parametrize("mode", ["learned", "tied"])
    def test_forward_writes_no_state(self, rng, mode):
        """A forward pass rebinds no attribute of the model or its modules
        and leaves every parameter unchanged."""
        model = AdaWaveNet(small_config(inverse_mode=mode), channels=2)
        modules = [model, model.head, model.trend_head, model.revin, *model.levels]
        before = [dict(vars(m)) for m in modules]
        params = {k: p.data.copy() for k, p in model.parameters().items()}
        model.forward(Tensor(rng.normal(size=(3, 2, 32))))
        for module, snapshot in zip(modules, before):
            now = vars(module)
            assert now.keys() == snapshot.keys(), type(module).__name__
            for key, value in snapshot.items():
                assert now[key] is value, f"{type(module).__name__}.{key}"
        for k, p in model.parameters().items():
            assert np.array_equal(p.data, params[k]), k

    @pytest.mark.parametrize("mode", ["learned", "tied"])
    def test_no_grad_forward_is_bitwise_equal_and_graph_free(self, rng, mode):
        model = AdaWaveNet(small_config(inverse_mode=mode), channels=2)
        for p in model.parameters().values():
            p.data += rng.normal(0.0, 0.05, p.shape)
        x = rng.normal(size=(3, 2, 32))
        want = model.forward(Tensor(x))
        with T.no_grad():
            got = model.forward(Tensor(x))
        assert want._backward is not None
        assert np.array_equal(got.data, want.data)
        assert got._parents == () and got._backward is None

    def test_backward_frees_the_graph_as_it_goes(self, rng):
        """During one training step of a wide default model (C=64, B=4) the
        backward pass allocates less than a tenth of the forward graph's
        bytes beyond what the graph held when it began: the graph's arrays
        are released as the walk passes them. Keeping the whole graph until
        the loss is dropped read 0.374 here, freeing it 0.076 (0.096 as a
        process's first backward pass, which also fills the cached band maps
        of the kernel gradient). The ratio rose from 0.042 when the graph
        stopped keeping arrays that no backward reads: the walk now frees
        fewer bytes before the attention's backward, where the peak falls."""
        model = AdaWaveNet(ModelConfig(), channels=64)
        x, y = (Tensor(rng.normal(size=(4, 64, 96))) for _ in range(2))
        tracemalloc.start()
        try:
            loss = T.mse(model.forward(x), y)
            graph = sum(n.data.nbytes for n in loss.build_tape().nodes)
            start, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            loss.backward()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (peak - start) < 0.1 * graph
        assert all(p.grad is not None for p in model.parameters().values())

    def test_forward_keeps_only_what_its_backward_reads(self, rng):
        """At the default model, C=64: a recording B=4 forward keeps under
        7 MB, and a B=16 forward under no_grad peaks under 10 MB. Before the
        graph stopped keeping the lifting convolutions' outputs, the
        normalized copy of `layer_norm` and the merged attention heads, and
        before a no_grad forward dropped each activation after its last
        reader, they read about 7.6 and 11.7 MB; now about 6.4 and 9.0 MB."""
        model = AdaWaveNet(ModelConfig(), channels=64)
        x, x16 = (Tensor(rng.normal(size=(b, 64, 96))) for b in (4, 16))
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            out = model.forward(x)
            live = tracemalloc.get_traced_memory()[0] - start
            del out
            start, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            with T.no_grad():
                model.forward(x16)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert live < 7e6
        assert peak - start < 10e6

    def test_forward_deterministic(self, rng):
        model = AdaWaveNet(small_config(), channels=2)
        x = rng.normal(size=(1, 2, 32))
        a = model.forward(Tensor(x)).data
        b = model.forward(Tensor(x)).data
        assert np.array_equal(a, b)


class TestConfig:
    def test_pred_len_must_match_input_len(self):
        with pytest.raises(ConfigError):
            ModelConfig(input_len=96, pred_len=48)

    def test_even_ma_window_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig(ma_window=4)

    def test_too_many_levels_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig(levels=6, input_len=96, pred_len=96)

    def test_heads_must_divide_d_model(self):
        """The attention head splits d_model evenly and does not check it."""
        with pytest.raises(ConfigError, match="heads must be >= 1 and divide d_model"):
            ModelConfig(d_model=10, heads=4)

    @pytest.mark.parametrize("field,message", [("inverse_mode", "unknown inverse mode"),
                                               ("task", "unknown task")])
    def test_unknown_mode_rejected(self, field, message):
        """lift_inverse and _prepare_batch read any other value as the last mode."""
        with pytest.raises(ConfigError, match=f"{message} 'bogus'"):
            ModelConfig(**{field: "bogus"})

    @pytest.mark.parametrize("field", ["levels", "kernel_size", "n_clusters",
                                       "sr_ratio"])
    def test_sizes_below_one_rejected(self, field):
        with pytest.raises(ConfigError, match=field):
            ModelConfig(**{field: 0})

    @pytest.mark.parametrize("field", ["batch_size", "max_epochs", "patience"])
    def test_train_sizes_below_one_rejected(self, field):
        with pytest.raises(ConfigError, match=field):
            TrainConfig(**{field: 0})

    def test_sr_ratio_must_divide_input_len_for_superres(self):
        """Only super-resolution reads the ratio, so only it needs the
        division; every task rejects a ratio below one."""
        def cfg(task, ratio):
            return ModelConfig(task=task, levels=2, input_len=48, pred_len=48,
                               sr_ratio=ratio)

        cfg("superres", 4)
        cfg("forecast", 5)
        with pytest.raises(ConfigError, match="sr_ratio 5 does not divide input_len 48"):
            cfg("superres", 5)

    def test_negative_learning_rate_rejected(self):
        TrainConfig(learning_rate=0.0)
        with pytest.raises(ConfigError):
            TrainConfig(learning_rate=-1e-3)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_learning_rate_rejected(self, value):
        with pytest.raises(ConfigError, match="learning_rate"):
            TrainConfig(learning_rate=value)

    @pytest.mark.parametrize("cls", [ModelConfig, TrainConfig])
    def test_negative_seed_rejected(self, cls):
        cls(seed=0)
        with pytest.raises(ConfigError, match="seed"):
            cls(seed=-1)

    @pytest.mark.parametrize("cls,field,bad,error", [
        (ModelConfig, "levels", 0, ConfigError),
        (TrainConfig, "batch_size", 0, ConfigError),
        (MaskSpec, "ratio", 1.0, ConfigError),
        (SynthSpec, "n_points", 1, ConfigError),
    ])
    def test_settings_are_frozen_and_checked_when_built(self, cls, field, bad,
                                                        error):
        """An invalid settings object cannot exist, so make_mask, train and
        AdaWaveNet never see one: building or replacing a field checks it,
        and a built object cannot be changed."""
        spec = cls()
        with pytest.raises(FrozenInstanceError):
            setattr(spec, field, bad)
        with pytest.raises(error, match=field):
            cls(**{field: bad})
        with pytest.raises(error, match=field):
            replace(spec, **{field: bad})

    @pytest.mark.parametrize("text", ["kernel_size=3\nlevels=abc",
                                      "kernel_size=3\nrevin=maybe"])
    def test_unparsable_value_names_its_line(self, text):
        with pytest.raises(ConfigError, match="line 2"):
            from_text(ModelConfig, text)

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([ModelConfig, TrainConfig]),
           st.lists(st.tuples(
               st.sampled_from(sorted({f.name for f in fields(ModelConfig)}
                                      | {f.name for f in fields(TrainConfig)})),
               st.one_of(st.text(max_size=12), st.integers().map(str),
                         st.floats().map(str), st.sampled_from(TASKS + INVERSE_MODES))),
               max_size=6))
    def test_random_text_parses_or_raises_config_error(self, cls, pairs):
        try:
            from_text(cls, "\n".join(f"{k}={v}" for k, v in pairs))
        except ConfigError:
            pass

    def test_final_len(self):
        assert ModelConfig(levels=4, input_len=96, pred_len=96).final_len == 6
        assert ModelConfig(levels=2, input_len=97, pred_len=97).final_len == 25

    def test_text_round_trip(self):
        cfg = ModelConfig(levels=3, kernel_size=5, revin=False, seed=7)
        assert from_text(ModelConfig, to_text(cfg)) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            from_text(ModelConfig, "bogus=1")

    def test_line_without_equals_rejected(self):
        with pytest.raises(ConfigError, match="line 2: expected key=value"):
            read_items("levels=2\nmax_epochs 1")

    def test_builder_sets_each_class_that_has_the_key(self):
        model, train = build((ModelConfig, TrainConfig),
                             [("a", "seed", 3), ("b", "levels", "2"),
                              ("c", "learning_rate", 1), ("d", "seed", "5")])
        assert (model.seed, train.seed, model.levels) == (5, 5, 2)
        assert train.learning_rate == 1.0 and isinstance(train.learning_rate, float)

    @pytest.mark.parametrize("key,value", [("levels", 2.5), ("levels", None),
                                           ("revin", "maybe"), ("levels", True)])
    def test_builder_types_values(self, key, value):
        with pytest.raises(ConfigError, match=f"cell 7: bad value for '{key}'"):
            build((ModelConfig,), [("cell 7", key, value)])

    def test_builder_names_where_an_unknown_key_is(self):
        with pytest.raises(ConfigError, match="cell 7: unknown key 'lr'"):
            build((ModelConfig, TrainConfig), [("cell 7", "lr", 1)])

    def test_comments_and_blank_lines_ignored(self):
        cfg = from_text(ModelConfig, "# comment\n\nlevels=2  # trailing\n")
        assert cfg.levels == 2


class TestAdapters:
    def test_imputation_zero_fill(self, rng):
        """The imputation batch zero-fills concealed positions and scores
        exactly those."""
        xs = rng.normal(size=(5, 3, 8)) + 5.0
        idx = np.array([4, 1])
        inp, tgt, loss_mask = _prepare_batch("impute", xs, xs, idx,
                                             MaskSpec("random", 0.25, seed=2), 1, 0)
        observed = 1.0 - loss_mask
        assert set(np.unique(observed)) == {0.0, 1.0}
        assert np.array_equal(tgt, xs[idx])
        assert np.array_equal(inp, xs[idx] * observed)

    def test_zoh_upsample_by_definition(self):
        assert zoh_upsample(np.array([[1.0, 2.0]]), 3) == approx(
            np.array([[1.0, 1.0, 1.0, 2.0, 2.0, 2.0]]))

    def test_superres_downsample_round_trip(self, rng):
        low = rng.normal(size=(2, 2, 8))
        assert np.array_equal(zoh_upsample(low, 4)[..., ::4], low)

    def test_superres_ratio_one_is_identity(self, rng):
        x = rng.normal(size=(1, 1, 4))
        assert np.array_equal(zoh_upsample(x, 1), x)


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path, rng):
        model = AdaWaveNet(small_config(seed=3), channels=2)
        for p in model.parameters().values():
            p.data[...] = rng.normal(size=p.data.shape)
        path = str(tmp_path / "model.awn")
        save_checkpoint(path, model.config,
                        model_state(model, norm_mean=[0.5, -1.0], norm_std=[2.0, 3.0]))
        cfg, arrays = load_checkpoint(path)
        assert cfg == model.config
        restored = restore_model(cfg, arrays)
        for name, p in model.parameters().items():
            assert np.array_equal(restored.parameters()[name].data, p.data), name
        assert arrays["norm.mean"] == approx([0.5, -1.0])
        assert np.array_equal(restored.trend_head.assignments,
                              model.trend_head.assignments)

    def test_restored_model_same_outputs(self, tmp_path, rng):
        model = AdaWaveNet(small_config(seed=5), channels=2)
        path = str(tmp_path / "model.awn")
        save_checkpoint(path, model.config, state(model))
        cfg, arrays = load_checkpoint(path)
        restored = restore_model(cfg, arrays)
        x = rng.normal(size=(2, 2, 32))
        assert np.array_equal(restored.forward(Tensor(x)).data,
                              model.forward(Tensor(x)).data)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.awn"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(DataError):
            load_checkpoint(str(path))

    def tiny_checkpoint(self, tmp_path):
        cfg = small_config(input_len=16, pred_len=16, d_model=4, heads=2)
        path = tmp_path / "model.awn"
        save_checkpoint(str(path), cfg, state(AdaWaveNet(cfg, channels=2)))
        return path, path.read_bytes()

    def test_truncated_or_extended_file_is_data_error(self, tmp_path):
        path, blob = self.tiny_checkpoint(tmp_path)
        for cut in range(len(blob)):
            path.write_bytes(blob[:cut])
            with pytest.raises(DataError):
                load_checkpoint(str(path))
        path.write_bytes(blob + b"\x00")
        with pytest.raises(DataError):
            load_checkpoint(str(path))

    def test_bit_flips_load_or_raise_data_error(self, tmp_path):
        path, blob = self.tiny_checkpoint(tmp_path)
        for pos in range(0, len(blob), 5):
            flipped = bytearray(blob)
            flipped[pos] ^= 1 << (pos % 8)
            path.write_bytes(bytes(flipped))
            try:
                restore_model(*load_checkpoint(str(path)))
            except DataError:
                pass

    def test_shape_mismatch_rejected(self):
        model = AdaWaveNet(small_config(), channels=1)
        arrays = state(model)
        arrays["trend.weights"] = arrays["trend.weights"][..., :-1]
        with pytest.raises(DataError):
            restore_model(model.config, arrays)

    def test_missing_parameter_rejected(self, tmp_path):
        model = AdaWaveNet(small_config(), channels=1)
        arrays = state(model)
        victim = next(n for n in arrays if n.startswith("lifting."))
        del arrays[victim]
        path = str(tmp_path / "model.awn")
        save_checkpoint(path, model.config, arrays)
        cfg, loaded = load_checkpoint(path)
        with pytest.raises(DataError):
            restore_model(cfg, loaded)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameter_rejected(self, value):
        model = AdaWaveNet(small_config(), channels=1)
        arrays = state(model)
        arrays["attention.w_q"][0, 0] = value
        with pytest.raises(DataError, match="attention.w_q"):
            restore_model(model.config, arrays)

    def test_every_saved_array_shapes_the_forward(self, rng):
        """No checkpoint array is write-only: perturbing any one of them
        changes the restored model's forward on a fixed input."""
        model = AdaWaveNet(small_config(n_clusters=2, inverse_mode="learned"),
                           channels=3, assignments=np.array([0, 1, 0]))
        for p in model.parameters().values():
            p.data[...] = rng.normal(size=p.data.shape)
        arrays = model_state(model, norm_mean=[0.0] * 3, norm_std=[1.0] * 3)
        x = Tensor(rng.normal(size=(2, 3, 32)))
        reference = restore_model(model.config, arrays).forward(x).data
        # exempt: nothing reads norm.mean and norm.std yet; ROADMAP item 3
        # puts the CLI's outputs on the data's scale with them
        checked = [name for name in arrays if not name.startswith("norm.")]
        for name in checked:
            perturbed = dict(arrays)
            if name == "clustering.assignments":
                perturbed[name] = 1.0 - arrays[name]
            else:
                perturbed[name] = arrays[name] + rng.normal(size=arrays[name].shape)
            out = restore_model(model.config, perturbed).forward(x).data
            assert not np.array_equal(out, reference), name
        assert set(arrays) - set(checked) == {"norm.mean", "norm.std"}

    @pytest.mark.parametrize("n_clusters", [1, 2])
    @pytest.mark.parametrize("length", [2, 4])
    def test_assignments_of_another_channel_count_rejected(self, n_clusters, length):
        """The map's length sets the channel count of the rebuilt model, so
        a map one channel short or long fails the parameters' shape check."""
        model = AdaWaveNet(small_config(n_clusters=n_clusters), channels=3,
                           assignments=np.array([0, n_clusters - 1, 0]))
        arrays = state(model)
        arrays["clustering.assignments"] = np.resize(arrays["clustering.assignments"],
                                                     length)
        with pytest.raises(DataError, match="shape mismatch for 'lifting.0.w_p'"):
            restore_model(model.config, arrays)

    def test_clustered_round_trip(self, tmp_path, rng):
        model = AdaWaveNet(small_config(n_clusters=2), channels=3,
                           assignments=np.array([0, 1, 0]))
        path = str(tmp_path / "model.awn")
        save_checkpoint(path, model.config, state(model))
        cfg, arrays = load_checkpoint(path)
        restored = restore_model(cfg, arrays)
        assert np.array_equal(restored.trend_head.assignments,
                              np.array([0, 1, 0]))


# A checkpoint written while ModelConfig still had the eq9_literal field: its
# header carries ``eq9_literal=False``. Trained one epoch on synth:simple (seed
# 0) with levels=2, kernel_size=3, input_len=pred_len=16, d_model=4, heads=2,
# ma_window=5, batch_size=32 and learning_rate=0.01. EQ9_FALSE_SCORE is the
# (MSE, MAE) on the test split that the code of that time computed for it; the
# tolerance allows for another BLAS build summing in another order.
EQ9_FALSE_CHECKPOINT = Path(__file__).parent / "data" / "checkpoint_eq9_literal_false.awn"
EQ9_FALSE_SCORE = (0.6777933189094478, 0.5697569550367053)


def test_removed_eq9_literal_false_header_loads_and_scores_as_before():
    assert b"\neq9_literal=False\n" in EQ9_FALSE_CHECKPOINT.read_bytes()
    cfg, arrays = load_checkpoint(str(EQ9_FALSE_CHECKPOINT))
    assert cfg == ModelConfig(levels=2, kernel_size=3, input_len=16,
                              pred_len=16, d_model=4, heads=2, ma_window=5)
    model = restore_model(cfg, arrays)
    got = evaluate(model, resolve_dataset("synth:simple", seed=cfg.seed),
                   "test", None)
    assert got == approx(EQ9_FALSE_SCORE, rel=1e-12)
