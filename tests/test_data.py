import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from pytest import approx

from adawavenet.config import ConfigError
from adawavenet.data import (DataError, Dataset, MaskSpec, build_dataset,
                             downsample, load_csv, make_mask, windows)


def write_csv(path, header, rows):
    path.write_text("\n".join([",".join(header)] +
                              [",".join(str(c) for c in r) for r in rows]) + "\n")
    return str(path)


class TestLoadCsv:
    def test_numeric_csv(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["a", "b"],
                         [[i, 2 * i] for i in range(10)])
        names, values = load_csv(path)
        assert names == ["a", "b"]
        assert values.shape == (2, 10)
        assert values[0] == approx(np.arange(10.0))
        assert values[1] == approx(2 * values[0])

    def test_date_column_dropped(self, tmp_path):
        rows = [[f"2020-01-{i+1:02d}", i, i + 1] for i in range(10)]
        path = write_csv(tmp_path / "d.csv", ["date", "x", "y"], rows)
        names, values = load_csv(path)
        assert names == ["x", "y"]
        assert values.shape == (2, 10)
        assert values[1] == approx(np.arange(10.0) + 1)

    @pytest.mark.parametrize("text", ["\n\n", "date\n2020-01-01\n"])
    def test_no_columns_rejected(self, tmp_path, text):
        path = tmp_path / "d.csv"
        path.write_text(text)
        with pytest.raises(DataError, match="d.csv: no data columns"):
            load_csv(str(path))

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1,2\n3\n")
        with pytest.raises(DataError):
            load_csv(str(path))

    def test_non_numeric_cell_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1,2\n3,oops\n")
        with pytest.raises(DataError):
            load_csv(str(path))

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_cell_rejected(self, tmp_path, cell):
        path = tmp_path / "d.csv"
        path.write_text(f"a,b\n1,2\n3,4\n5,{cell}\n")
        with pytest.raises(DataError, match="line 4"):
            load_csv(str(path))

    def test_missing_file_rejected(self):
        with pytest.raises(DataError):
            load_csv("/nonexistent/never.csv")

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("")
        with pytest.raises(DataError):
            load_csv(str(path))

    def test_non_utf8_file_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"a\n1\n\xff\n2\n")
        with pytest.raises(DataError, match="d.csv"):
            load_csv(str(path))

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.one_of(
        st.binary(max_size=200),
        st.lists(st.sampled_from([b"1", b"-2.5e3", b",", b"\n", b"\r", b"x",
                                  b"nan", b'"', b" ", b"\x00", b"\xff"]),
                 max_size=60).map(b"".join)))
    def test_random_bytes_load_or_raise_data_error(self, tmp_path, blob):
        path = tmp_path / "fuzz.csv"
        path.write_bytes(blob)
        try:
            names, values = load_csv(str(path))
        except DataError:
            return
        assert values.shape[0] == len(names)
        assert np.all(np.isfinite(values))


class TestBuildDataset:
    def test_split_arithmetic(self, rng):
        ds = build_dataset(["x"], rng.normal(size=(1, 100)), (0.7, 0.1, 0.2))
        assert ds.splits == {"train": (0, 70), "val": (70, 80), "test": (80, 100)}

    def test_stats_come_from_train_only(self, rng):
        data = rng.normal(size=(2, 100))
        data[:, 70:] += 50.0       # shifted val/test must not leak into stats
        ds = build_dataset(["a", "b"], data, (0.7, 0.1, 0.2))
        assert ds.mean == approx(data[:, :70].mean(axis=1))
        assert ds.std == approx(data[:, :70].std(axis=1))
        # normalizing the whole panel once gives each split's values bitwise
        for split, (start, stop) in ds.splits.items():
            want = (data[:, start:stop] - ds.mean[:, None]) / ds.std[:, None]
            assert np.array_equal(ds.split_values(split), want)

    def test_normalized_train_is_standardized(self, rng):
        ds = build_dataset(["x"], rng.normal(3, 2, size=(1, 100)), (0.7, 0.1, 0.2))
        train = ds.split_values("train")
        assert train.mean(axis=1) == approx(np.zeros(1), abs=1e-12)
        assert train.std(axis=1) == approx(np.ones(1))

    def test_constant_channel_warns_and_survives(self):
        data = np.vstack([np.ones(40), np.arange(40.0)])
        with pytest.warns(UserWarning):
            ds = build_dataset(["flat", "ramp"], data, (0.7, 0.1, 0.2))
        assert ds.std[0] == 1.0
        assert np.all(np.isfinite(ds.split_values("train")))

    def test_bad_fractions_rejected(self, rng):
        with pytest.raises(DataError):
            build_dataset(["x"], rng.normal(size=(1, 10)), (0.5, 0.2, 0.2))


class TestWindows:
    def test_forecast_count_and_boundaries(self, rng):
        ds = build_dataset(["x"], rng.normal(size=(1, 200)), (0.5, 0.0, 0.5))
        xs, ys = windows(ds, "train", 10, 5, "forecast")
        assert xs.shape == (100 - 10 - 5 + 1, 1, 10) and ys.shape == (86, 1, 5)
        vals = ds.split_values("train")
        assert np.array_equal(xs[0], vals[:, :10]) and np.array_equal(ys[0], vals[:, 10:15])
        assert np.array_equal(ys[-1], vals[:, -5:])
        # zero-copy, read-only views into the dataset's one normalized panel
        assert np.shares_memory(xs, ys) and not xs.flags.writeable
        assert np.shares_memory(xs, ds.values) and not ds.values.flags.writeable

    def test_windows_allocate_no_split_copy(self, rng):
        """Windowing a 321-channel, 8000-row split allocates nothing of the
        split's size (a normalized train copy is 14.4 MB)."""
        ds = build_dataset([f"c{c}" for c in range(321)], rng.normal(size=(321, 8000)),
                           (0.7, 0.1, 0.2))
        tracemalloc.start()
        try:
            xs, ys = windows(ds, "train", 96, 96, "forecast")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert xs.shape == (5600 - 191, 321, 96)
        assert peak < 1e6

    def test_impute_targets_are_the_window(self, rng):
        ds = build_dataset(["x"], rng.normal(size=(1, 40)), (1.0, 0.0, 0.0))
        xs, ys = windows(ds, "train", 8, 8, "impute")
        assert xs is ys
        assert xs.shape == (40 - 8 + 1, 1, 8)
        vals = ds.split_values("train")
        for t in range(len(xs)):
            assert np.array_equal(xs[t], vals[:, t:t + 8])

    def test_short_split_rejected(self, rng):
        ds = build_dataset(["x"], rng.normal(size=(1, 30)), (0.5, 0.2, 0.3))
        with pytest.raises(DataError):
            windows(ds, "val", 10, 10, "forecast")

    def test_no_window_crosses_split_boundary(self, rng):
        data = rng.normal(size=(1, 100))
        data[:, 50:] = 1e6        # sentinel values in the second half
        ds = build_dataset(["x"], data, (0.5, 0.0, 0.5))
        xs, ys = windows(ds, "train", 10, 5, "forecast")
        assert np.all(xs * ds.std[:, None] + ds.mean[:, None] < 1e5)
        assert np.all(ys * ds.std[:, None] + ds.mean[:, None] < 1e5)


class TestMasks:
    @pytest.mark.parametrize("ratio", [0.125, 0.25, 0.375, 0.5])
    def test_random_mask_exact_count_per_channel(self, ratio):
        mask = make_mask(MaskSpec("random", ratio, seed=3), (4, 96), 0, 0)
        assert np.all((mask == 0) | (mask == 1))
        expected = int(round(ratio * 96))
        assert np.all((mask == 0).sum(axis=1) == expected)

    @pytest.mark.parametrize("ratio", [0.125, 0.25, 0.375, 0.5])
    def test_extended_mask_single_shared_block(self, ratio):
        mask = make_mask(MaskSpec("extended", ratio, seed=5), (3, 96), 0, 0)
        assert np.all(mask == mask[0])   # channel-identical
        zeros = np.where(mask[0] == 0)[0]
        assert len(zeros) == int(round(ratio * 96))
        assert np.array_equal(zeros, np.arange(zeros[0], zeros[-1] + 1))

    def test_random_mask_statistical_uniformity(self):
        """Over many windows every position should be concealed at close to
        the nominal rate; a strongly biased generator would fail this."""
        L, draws, ratio = 96, 10000, 0.25
        masks = make_mask(MaskSpec("random", ratio), (1, L), 0, np.arange(draws))
        rate = (masks[:, 0] == 0).mean(axis=0)
        # binomial std at p=0.25, n=10000 is ~0.0043; allow 5 sigma
        assert np.abs(rate - ratio).max() < 5 * np.sqrt(ratio * (1 - ratio) / draws)

    def test_extended_offsets_uniform(self):
        """The block starts at each of its L - n + 1 places at close to the
        same rate."""
        L, draws, ratio = 96, 20000, 0.25
        n = int(round(ratio * L))
        masks = make_mask(MaskSpec("extended", ratio, seed=2), (1, L), 4,
                          np.arange(draws))
        offsets = np.argmin(masks[:, 0], axis=-1)
        counts = np.bincount(offsets, minlength=L - n + 1)
        assert len(counts) == L - n + 1
        p = 1.0 / (L - n + 1)
        # binomial std of each count; allow 5 sigma
        assert np.abs(counts / draws - p).max() < 5 * np.sqrt(p * (1 - p) / draws)

    @pytest.mark.parametrize("mode", ["random", "extended"])
    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(0, 10**6), min_size=1, max_size=40),
           st.integers(0, 40), st.randoms(use_true_random=False))
    def test_batch_equals_per_window_calls(self, mode, idx, split, random):
        """A window's mask is the same whatever its batch: one call over idx,
        any order of it and any split of it give the per-window masks."""
        spec, shape = MaskSpec(mode, 0.25, seed=9), (3, 32)
        per_window = np.stack([make_mask(spec, shape, 2, w) for w in idx])
        assert np.array_equal(make_mask(spec, shape, 2, np.array(idx)), per_window)
        order = list(range(len(idx)))
        random.shuffle(order)
        shuffled = make_mask(spec, shape, 2, np.array(idx)[order])
        assert np.array_equal(shuffled, per_window[order])
        parts = [make_mask(spec, shape, 2, np.array(idx[:split])),
                 make_mask(spec, shape, 2, np.array(idx[split:]))]
        assert np.array_equal(np.concatenate(parts), per_window)

    def test_mask_shape_follows_window(self):
        spec = MaskSpec("random", 0.25)
        assert make_mask(spec, (3, 32), 0, 5).shape == (3, 32)
        assert make_mask(spec, (3, 32), 0, np.arange(6).reshape(2, 3)).shape \
            == (2, 3, 3, 32)

    def test_channels_of_a_window_differ(self):
        mask = make_mask(MaskSpec("random", 0.25, seed=1), (16, 96), 0, 0)
        assert len({row.tobytes() for row in mask}) == 16

    def test_mask_deterministic_given_seed(self):
        """Deterministic given (seed, salt, window); changing any one of them
        changes the mask, in both modes (extended mode has only 49 offsets at
        L=64, so 8 windows are compared)."""
        for mode in ("random", "extended"):
            def masks(seed, salt, first):
                return make_mask(MaskSpec(mode, 0.25, seed=seed), (2, 64), salt,
                                 np.arange(first, first + 8))
            base = masks(11, 3, 0)
            assert np.array_equal(base, masks(11, 3, 0))
            for other in (masks(12, 3, 0), masks(11, 4, 0), masks(11, 3, 8)):
                assert not np.array_equal(base, other)

    def test_seed_beyond_64_bits(self):
        """Any seed >= 0 works: a big one is mixed 64 bits at a time, so
        2**70 differs from either of its limbs (0 and 2**6) alone."""
        L = 96
        big = make_mask(MaskSpec("random", 0.25, seed=2**70), (2, L), 0, 0)
        assert np.all((big == 0).sum(axis=1) == 24)
        for seed in (0, 2**6):
            assert not np.array_equal(
                big, make_mask(MaskSpec("random", 0.25, seed=seed), (2, L), 0, 0))
        ext = make_mask(MaskSpec("extended", 0.25, seed=2**130 + 1), (2, L), 0,
                        np.arange(4))
        assert np.all((ext == 0).sum(axis=-1) == 24)

    @pytest.mark.parametrize("seed", [0, 17, 2**70 + 5])
    def test_keys_match_a_python_int_reference(self, seed):
        """The uint64 array arithmetic against splitmix64 on Python ints
        reduced mod 2**64, the seed mixed in 64-bit limbs."""
        def mix(z):
            z = (z + 0x9E3779B97F4A7C15) & (2**64 - 1)
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & (2**64 - 1)
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & (2**64 - 1)
            return z ^ (z >> 31)

        C, L, n, salt, window = 2, 16, 4, 3, 41
        h = 0
        for limb in ([seed & (2**64 - 1), seed >> 64] if seed >> 64 else [seed]):
            h = mix(h ^ limb)
        key = mix(mix(h ^ salt) ^ window)
        want = np.ones((C, L))
        for c in range(C):
            keys = [mix(key ^ (c * L + t)) for t in range(L)]
            want[c, np.argsort(keys)[:n]] = 0.0
        got = make_mask(MaskSpec("random", n / L, seed=seed), (C, L), salt, window)
        assert np.array_equal(got, want)
        offset = key % (L - n + 1)
        ext = make_mask(MaskSpec("extended", n / L, seed=seed), (C, L), salt, window)
        assert np.array_equal(np.where(ext[0] == 0)[0], np.arange(offset, offset + n))

    def test_ratio_concealing_nothing_rejected(self):
        """round(0.01 * 32) = 0 lies within 1/L of the ratio, but conceals
        nothing."""
        for mode in ("random", "extended"):
            with pytest.raises(DataError, match="conceals no sample"):
                make_mask(MaskSpec(mode, 0.01), (1, 32), 0, 0)

    @pytest.mark.parametrize("mode", ["random", "extended"])
    def test_ratio_concealing_everything_rejected(self, mode):
        """round(0.996 * 96) = 96: nothing would be left to observe."""
        with pytest.raises(DataError, match="conceals every sample"):
            make_mask(MaskSpec(mode, 0.996), (2, 96), 0, 0)
        assert (make_mask(MaskSpec(mode, 0.99), (2, 96), 0, 0) == 1).sum() == 2

    def test_bad_spec_rejected(self):
        """A bad spec fails when it is built, before make_mask can see it."""
        with pytest.raises(ConfigError):
            MaskSpec("diagonal", 0.25)
        with pytest.raises(ConfigError):
            MaskSpec("random", 0.0)
        with pytest.raises(ConfigError):
            MaskSpec("random", 1.0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            MaskSpec(seed=-1)

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([0.125, 0.25, 0.375, 0.5]),
           st.integers(16, 128).map(lambda n: 8 * (n // 8)),
           st.integers(0, 2**31 - 1))
    def test_random_mask_count_property(self, ratio, L, seed):
        if L == 0:
            return
        mask = make_mask(MaskSpec("random", ratio, seed=seed), (2, L), 0, 0)
        assert np.all((mask == 0).sum(axis=1) == int(round(ratio * L)))


class TestDownsample:
    def test_by_definition(self):
        x = np.arange(12.0)[None]
        assert downsample(x, 3) == approx(x[:, ::3])

    def test_ratio_one_identity(self, rng):
        x = rng.normal(size=(2, 8))
        assert np.array_equal(downsample(x, 1), x)

    def test_indivisible_length_rejected(self, rng):
        with pytest.raises(DataError):
            downsample(rng.normal(size=(1, 10)), 4)

    def test_round_trip_with_zoh(self, rng):
        from adawavenet.model import zoh_upsample
        x = rng.normal(size=(1, 12))
        assert downsample(zoh_upsample(x, 4), 4) == approx(x)
