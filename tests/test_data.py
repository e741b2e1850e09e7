import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from pytest import approx

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
        counts = np.zeros(L)
        for window in range(draws):
            counts += make_mask(MaskSpec("random", ratio), (1, L), 0, window)[0] == 0
        rate = counts / draws
        # binomial std at p=0.25, n=10000 is ~0.0043; allow 5 sigma
        assert np.abs(rate - ratio).max() < 5 * np.sqrt(ratio * (1 - ratio) / draws)

    def test_mask_deterministic_given_seed(self):
        a = make_mask(MaskSpec("random", 0.25, seed=11), (2, 32), 3, 5)
        b = make_mask(MaskSpec("random", 0.25, seed=11), (2, 32), 3, 5)
        assert np.array_equal(a, b)
        assert not np.array_equal(
            a, make_mask(MaskSpec("random", 0.25, seed=11), (2, 32), 3, 6))

    def test_ratio_concealing_nothing_rejected(self):
        """round(0.01 * 32) = 0 lies within 1/L of the ratio, but conceals
        nothing."""
        for mode in ("random", "extended"):
            with pytest.raises(DataError, match="conceals no sample"):
                make_mask(MaskSpec(mode, 0.01), (1, 32), 0, 0)

    def test_bad_spec_rejected(self):
        """A bad spec fails when it is built, before make_mask can see it."""
        with pytest.raises(DataError):
            MaskSpec("diagonal", 0.25)
        with pytest.raises(DataError):
            MaskSpec("random", 0.0)
        with pytest.raises(DataError):
            MaskSpec("random", 1.0)

    def test_negative_seed_rejected(self):
        with pytest.raises(DataError, match="seed"):
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
