import argparse
import ast
import csv
import inspect
import json
import os

import numpy as np
import pytest

from adawavenet import cli
from adawavenet.bench import resolve_dataset
from adawavenet.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, build_parser, main
from adawavenet.data import MaskSpec, windows
from adawavenet.model import AdaWaveNet, load_checkpoint, restore_model
from adawavenet.tensor import Tensor
from adawavenet.train import _prepare_batch, _scored_batches

SMALL = """\
levels=2
kernel_size=3
input_len=48
pred_len=48
d_model=16
heads=4
ma_window=5
max_epochs=1
learning_rate=0.001
batch_size=16
"""


@pytest.fixture
def small_config(tmp_path):
    path = tmp_path / "config.txt"
    path.write_text(SMALL)
    return str(path)


def train_run(tmp_path, config, seed):
    out = str(tmp_path / "run")
    code = main(["train", "--data", "synth:simple", "--config", config,
                 "--out", out, "--quiet", "--seed", str(seed)])
    assert code == EXIT_OK
    return out


@pytest.fixture
def trained(tmp_path, small_config):
    return train_run(tmp_path, small_config, 0)


def one_line_error(capsys, prefix):
    err = capsys.readouterr().err
    return err.startswith(prefix) and err.count("\n") == 1


def read_csv_cells(path):
    """The body of a CSV written by the CLI, as strings, one row per channel."""
    with open(path) as fh:
        return np.array(list(csv.reader(fh))[1:]).T


def as_cells(values):
    return np.vectorize(lambda v: f"{v:.10g}")(values)


def shared_path_batch(checkpoint, task, index, mask_spec=None, sr_ratio=1):
    """The checkpoint's model and one test window batched by _prepare_batch."""
    config, arrays = load_checkpoint(checkpoint)
    model = restore_model(config, arrays)
    dataset = resolve_dataset("synth:simple", seed=config.seed)
    xs, ys = windows(dataset, "test", config.input_len, config.pred_len, task)
    idx = np.array([index % len(xs)])
    return model, _prepare_batch(task, xs, ys, idx, mask_spec, sr_ratio, 0)


def two_channel_csv(tmp_path):
    t = np.arange(400) / 10.0
    path = tmp_path / "two.csv"
    path.write_text("a,b\n" + "\n".join(f"{np.sin(v):.6f},{np.cos(v):.6f}"
                                         for v in t) + "\n")
    return str(path)


class TestTrain:
    def test_outputs(self, trained):
        assert os.path.exists(os.path.join(trained, "model.awn"))
        assert os.path.exists(os.path.join(trained, "training_log.csv"))
        assert os.path.exists(os.path.join(trained, "cluster_assignments.csv"))
        with open(os.path.join(trained, "training_log.csv")) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["epoch", "train_loss", "val_loss", "lr", "seconds"]
        assert len(rows) >= 2

    def test_bad_config_key_is_usage_error(self, tmp_path):
        cfg = tmp_path / "bad.txt"
        cfg.write_text("bogus=1\n")
        assert main(["train", "--data", "synth:simple", "--config", str(cfg),
                     "--out", str(tmp_path / "o"), "--quiet"]) == EXIT_USAGE

    def test_missing_data_file_is_data_error(self, tmp_path, small_config):
        assert main(["train", "--data", "/nonexistent/x.csv", "--config",
                     small_config, "--out", str(tmp_path / "o"),
                     "--quiet"]) == EXIT_DATA

    def test_non_finite_csv_cell_is_data_error(self, tmp_path, small_config):
        rows = [f"{np.sin(0.1 * t):.6f}" for t in range(400)]
        rows[200] = "nan"
        path = tmp_path / "d.csv"
        path.write_text("x\n" + "\n".join(rows) + "\n")
        assert main(["train", "--data", str(path), "--config", small_config,
                     "--out", str(tmp_path / "o"), "--quiet"]) == EXIT_DATA

    @pytest.mark.parametrize("line", ["levels=0", "kernel_size=0",
                                      "n_clusters=0", "batch_size=0",
                                      "max_epochs=0", "levels=abc",
                                      "learning_rate=nan", "learning_rate=inf",
                                      "seed=-1"])
    def test_bad_config_value_is_usage_error(self, tmp_path, line, capsys):
        cfg = tmp_path / "bad.txt"
        cfg.write_text(SMALL + line + "\n")
        code = main(["train", "--data", "synth:simple", "--config", str(cfg),
                     "--out", str(tmp_path / "o"), "--quiet"])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and err.count("\n") == 1

    def test_config_line_without_equals_is_usage_error(self, tmp_path, capsys):
        """Neither line sets anything, so neither may be dropped silently."""
        cfg = tmp_path / "colon.txt"
        cfg.write_text("levels: 2\nmax_epochs 1\n")
        code = main(["train", "--data", "synth:simple", "--config", str(cfg),
                     "--out", str(tmp_path / "o"), "--quiet"])
        assert code == EXIT_USAGE
        assert one_line_error(capsys, "usage error: line 1: expected key=value")

    @pytest.mark.parametrize("command", ["train", "synth"])
    def test_negative_seed_is_usage_error(self, tmp_path, small_config, command,
                                          capsys):
        args = {"train": ["--data", "synth:simple", "--config", small_config,
                          "--quiet"], "synth": []}[command]
        code = main([command, "--seed", "-1", "--out", str(tmp_path / "o")] + args)
        assert code == EXIT_USAGE
        assert one_line_error(capsys, "usage error:")

    def test_csv_without_columns_is_data_error(self, tmp_path, small_config,
                                               capsys):
        path = tmp_path / "blank.csv"
        path.write_text("\n\n")
        code = main(["train", "--data", str(path), "--config", small_config,
                     "--out", str(tmp_path / "o"), "--quiet"])
        assert code == EXIT_DATA
        assert one_line_error(capsys, f"data error: {path}: no data columns")

    def test_more_clusters_than_channels_is_data_error(self, tmp_path, capsys):
        cfg = tmp_path / "k.txt"
        cfg.write_text(SMALL + "n_clusters=2\n")
        code = main(["train", "--data", "synth:simple", "--config", str(cfg),
                     "--out", str(tmp_path / "o"), "--quiet"])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:") and err.count("\n") == 1

    def test_missing_config_is_usage_error(self, tmp_path, capsys):
        code = main(["train", "--data", "synth:simple", "--config",
                     str(tmp_path / "missing.txt"), "--out", str(tmp_path / "o")])
        assert code == EXIT_USAGE
        assert one_line_error(capsys, "usage error:")

    def test_non_utf8_csv_is_data_error(self, tmp_path, small_config, capsys):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"x\n" + b"1.0\n" * 200 + b"\xff\n" + b"2.0\n" * 200)
        code = main(["train", "--data", str(path), "--config", small_config,
                     "--out", str(tmp_path / "o"), "--quiet"])
        assert code == EXIT_DATA
        assert one_line_error(capsys, "data error:")

    def test_mask_concealing_nothing_is_data_error(self, tmp_path, capsys):
        """round(0.01 * 48) = 0: no sample would be concealed."""
        cfg = tmp_path / "impute.txt"
        cfg.write_text(SMALL + "task=impute\n")
        code = main(["train", "--data", "synth:simple", "--config", str(cfg),
                     "--out", str(tmp_path / "o"), "--quiet",
                     "--mask-ratio", "0.01"])
        assert code == EXIT_DATA
        assert one_line_error(capsys, "data error:")

    def test_missing_subcommand_is_usage_error(self):
        assert main([]) == EXIT_USAGE

    def test_unknown_flag_is_usage_error(self):
        assert main(["train", "--frobnicate"]) == EXIT_USAGE


class TestEvalAndShowcase:
    def test_eval(self, trained, capsys):
        code = main(["eval", "--data", "synth:simple", "--checkpoint",
                     os.path.join(trained, "model.awn")])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "MSE=" in out and "MAE=" in out

    def test_forecast_artifacts(self, trained, tmp_path):
        out = str(tmp_path / "fc")
        code = main(["forecast", "--data", "synth:simple", "--checkpoint",
                     os.path.join(trained, "model.awn"), "--out", out])
        assert code == EXIT_OK
        assert os.path.exists(os.path.join(out, "forecast.csv"))
        svg = open(os.path.join(out, "forecast.svg")).read()
        assert svg.startswith("<svg") and "polyline" in svg

    def test_impute_artifacts(self, trained, tmp_path):
        out = str(tmp_path / "imp")
        code = main(["impute", "--data", "synth:simple", "--checkpoint",
                     os.path.join(trained, "model.awn"), "--out", out,
                     "--mask-mode", "extended", "--mask-ratio", "0.25"])
        assert code == EXIT_OK
        for name in ("imputed.csv", "mask.csv", "imputed.svg"):
            assert os.path.exists(os.path.join(out, name)), name
        with open(os.path.join(out, "mask.csv")) as fh:
            rows = list(csv.reader(fh))[1:]
        vals = np.array([[float(c) for c in r] for r in rows])
        assert set(np.unique(vals)) <= {0.0, 1.0}

    def test_superres_artifacts(self, trained, tmp_path):
        out = str(tmp_path / "sr")
        code = main(["superres", "--data", "synth:simple", "--checkpoint",
                     os.path.join(trained, "model.awn"), "--out", out,
                     "--ratio", "4"])
        assert code == EXIT_OK
        assert os.path.exists(os.path.join(out, "superres.csv"))
        assert os.path.exists(os.path.join(out, "superres.svg"))

    def test_truncated_checkpoint_is_data_error(self, trained, tmp_path, capsys):
        blob = open(os.path.join(trained, "model.awn"), "rb").read()
        cut = tmp_path / "cut.awn"
        cut.write_bytes(blob[:len(blob) // 2])
        code = main(["eval", "--data", "synth:simple", "--checkpoint", str(cut)])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:") and err.count("\n") == 1

    def test_bad_checkpoint_path(self, tmp_path, capsys):
        code = main(["eval", "--data", "synth:simple", "--checkpoint",
                     str(tmp_path / "missing.awn")])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:") and err.count("\n") == 1

    def test_eval_mask_concealing_nothing_is_data_error(self, tmp_path, capsys):
        cfg = tmp_path / "impute.txt"
        cfg.write_text(SMALL + "task=impute\n")
        assert main(["train", "--data", "synth:simple", "--config", str(cfg),
                     "--out", str(tmp_path / "run"), "--quiet"]) == EXIT_OK
        capsys.readouterr()
        code = main(["eval", "--data", "synth:simple", "--checkpoint",
                     str(tmp_path / "run" / "model.awn"), "--mask-ratio", "0.01"])
        assert code == EXIT_DATA
        assert one_line_error(capsys, "data error:")

    @pytest.mark.parametrize("command,channel", [("forecast", "3"),
                                                 ("impute", "-5"),
                                                 ("superres", "1")])
    def test_channel_out_of_range_is_usage_error(self, trained, tmp_path, command,
                                                 channel, capsys):
        out = tmp_path / "o"
        code = main([command, "--data", "synth:simple", "--checkpoint",
                     os.path.join(trained, "model.awn"), "--out", str(out),
                     "--channel", channel])
        assert code == EXIT_USAGE
        assert one_line_error(capsys, "usage error:")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "impute"])
    def test_negative_seed_is_usage_error(self, trained, tmp_path, command,
                                          capsys):
        out = [] if command == "eval" else ["--out", str(tmp_path / "o")]
        code = main([command, "--data", "synth:simple", "--checkpoint",
                     os.path.join(trained, "model.awn"), "--seed", "-1"] + out)
        assert code == EXIT_USAGE
        assert one_line_error(capsys, "usage error:")

    @pytest.mark.parametrize("command", ["eval", "forecast", "impute", "superres"])
    def test_channel_mismatch_is_data_error(self, trained, tmp_path, command,
                                            capsys):
        out = [] if command == "eval" else ["--out", str(tmp_path / "o")]
        code = main([command, "--data", two_channel_csv(tmp_path),
                     "--checkpoint", os.path.join(trained, "model.awn")] + out)
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:") and err.count("\n") == 1
        assert "channel" in err

    def test_forecast_is_forward_of_last_test_window(self, trained, tmp_path):
        ckpt = os.path.join(trained, "model.awn")
        out = str(tmp_path / "fc")
        assert main(["forecast", "--data", "synth:simple", "--checkpoint", ckpt,
                     "--out", out]) == EXIT_OK
        model, (inp, _, _) = shared_path_batch(ckpt, "forecast", -1)
        expected = model.forward(Tensor(inp)).data[0]
        got = read_csv_cells(os.path.join(out, "forecast.csv"))
        assert np.array_equal(got, as_cells(expected))

    def test_test_window_forward_builds_no_graph(self, trained, monkeypatch):
        config, arrays = load_checkpoint(os.path.join(trained, "model.awn"))
        model = restore_model(config, arrays)
        dataset = resolve_dataset("synth:simple", seed=config.seed)
        forward, outputs = AdaWaveNet.forward, []

        def spy(self, x):
            outputs.append(forward(self, x))
            return outputs[-1]

        monkeypatch.setattr(AdaWaveNet, "forward", spy)
        _, _, _, pred = cli._test_window(model, dataset, "forecast", -1)
        assert [out._backward for out in outputs] == [None]
        assert np.array_equal(pred, outputs[0].data[0])

    def test_superres_is_forward_of_first_test_window(self, trained, tmp_path):
        ckpt = os.path.join(trained, "model.awn")
        out = str(tmp_path / "sr")
        assert main(["superres", "--data", "synth:simple", "--checkpoint", ckpt,
                     "--out", out, "--ratio", "4"]) == EXIT_OK
        model, (inp, _, _) = shared_path_batch(ckpt, "superres", 0, sr_ratio=4)
        expected = model.forward(Tensor(inp)).data[0]
        got = read_csv_cells(os.path.join(out, "superres.csv"))
        assert np.array_equal(got, as_cells(expected))

    @pytest.mark.parametrize("seed_args,mask_seed", [([], 3), (["--seed", "7"], 7)])
    def test_impute_mask_is_the_one_eval_scores(self, tmp_path, small_config,
                                                seed_args, mask_seed):
        """Without --seed the mask seed is the checkpoint's (3 here), as in
        eval; mask.csv is eval's mask for test window 0."""
        ckpt = os.path.join(train_run(tmp_path, small_config, 3), "model.awn")
        out = str(tmp_path / "imp")
        assert main(["impute", "--data", "synth:simple", "--checkpoint", ckpt,
                     "--out", out] + seed_args) == EXIT_OK
        config, arrays = load_checkpoint(ckpt)
        model = restore_model(config, arrays)
        dataset = resolve_dataset("synth:simple", seed=config.seed)
        xs, ys = windows(dataset, "test", config.input_len, config.pred_len,
                         "impute")
        spec = MaskSpec(mode="random", ratio=0.25, seed=mask_seed)
        _, _, loss_mask = next(_scored_batches(model, "impute", xs, ys, spec))
        got = read_csv_cells(os.path.join(out, "mask.csv"))
        assert np.array_equal(got, as_cells(1.0 - loss_mask[0]))


class TestSynth:
    def test_outputs(self, tmp_path):
        out = str(tmp_path / "syn")
        code = main(["synth", "--family", "simple", "--out", out])
        assert code == EXIT_OK
        with open(os.path.join(out, "signal.csv")) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["simple"]
        assert len(rows) == 1 + 1024

    def test_denoised_is_shift_free(self, tmp_path):
        out = str(tmp_path / "syn")
        main(["synth", "--family", "simple", "--step-change", "0.5",
              "--out", out])
        clean = np.loadtxt(os.path.join(out, "denoised.csv"), skiprows=1)
        noisy = np.loadtxt(os.path.join(out, "signal.csv"), skiprows=1)
        # the step applies to the noisy output only
        assert abs(np.mean(noisy[512:] - clean[512:])
                   - np.mean(noisy[:512] - clean[:512])) > 0.3


class TestDecompose:
    def test_outputs(self, tmp_path):
        data = tmp_path / "win.csv"
        t = np.arange(96) / 10.0
        rows = "\n".join(f"{np.sin(v)},{np.cos(v)}" for v in t)
        data.write_text("a,b\n" + rows + "\n")
        out = str(tmp_path / "dec")
        code = main(["decompose", "--data", str(data), "--out", out,
                     "--ma-window", "5", "--wavelet", "--levels", "2"])
        assert code == EXIT_OK
        for name in ("seasonal.csv", "trend.csv", "coeffs_level1.csv",
                     "coeffs_level2.csv", "approx_level1.csv",
                     "approx_level2.csv"):
            assert os.path.exists(os.path.join(out, name)), name
        seasonal = np.loadtxt(os.path.join(out, "seasonal.csv"),
                              delimiter=",", skiprows=1)
        trend = np.loadtxt(os.path.join(out, "trend.csv"),
                           delimiter=",", skiprows=1)
        orig = np.stack([np.sin(t), np.cos(t)], axis=1)
        assert np.abs(seasonal + trend - orig).max() < 1e-6

    def test_even_window_is_usage_error(self, tmp_path, capsys):
        data = tmp_path / "win.csv"
        data.write_text("a\n1\n2\n3\n4\n")
        assert main(["decompose", "--data", str(data), "--ma-window", "4",
                     "--out", str(tmp_path / "o")]) == EXIT_USAGE
        assert one_line_error(capsys, "usage error:")

    @pytest.mark.parametrize("flags", [["--ma-window", "0"],
                                       ["--wavelet", "--levels", "0"],
                                       ["--wavelet", "--levels", "9"]],
                             ids=["ma-window 0", "levels 0", "levels 9"])
    def test_bad_flag_is_usage_error(self, tmp_path, flags, capsys):
        data = tmp_path / "win.csv"
        data.write_text("a\n" + "\n".join(str(np.sin(i)) for i in range(40)) + "\n")
        out = tmp_path / "o"
        assert main(["decompose", "--data", str(data), "--out", str(out)]
                    + flags) == EXIT_USAGE
        assert one_line_error(capsys, "usage error:")
        assert not out.exists()


class TestBench:
    def test_partial_run_exits_data(self, tmp_path):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps(
            {"cells": [{"dataset": "/nonexistent/a.csv", "seeds": [0]}]}))
        code = main(["bench", "--manifest", str(manifest),
                     "--out", str(tmp_path / "out"), "--quiet"])
        assert code == EXIT_DATA

    def test_synth_cell_runs(self, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"cells": [{
            "dataset": "synth:simple", "seeds": [0], "levels": 2,
            "kernel_size": 3, "input_len": 48, "pred_len": 48,
            "max_epochs": 1, "learning_rate": 0.001}]}))
        out = str(tmp_path / "out")
        code = main(["bench", "--manifest", str(manifest), "--out", out,
                     "--quiet"])
        assert code == EXIT_OK
        assert os.path.exists(os.path.join(out, "results.csv"))
        with open(os.path.join(out, "report.md")) as fh:
            assert capsys.readouterr().out == fh.read()

    @pytest.mark.parametrize("text", [
        '{"cells": [', None, '[{"dataset": "synth:simple"}]',
        '{"cells": [{"seeds": [0]}]}',
        '{"cells": [{"dataset": "synth:simple", "learnign_rate": 0.5}]}',
        '{"cells": [{"dataset": "synth:simple", "task": "impute", "mask_ratio": "x"}]}',
        '{"cells": [{"dataset": "synth:simple", "task": "impute", "mask_ratio": 2}]}',
        '{"cells": [{"dataset": "synth:simple", "task": "impute", "mask_mode": "b"}]}'],
        ids=["invalid-json", "missing", "list", "no-dataset", "unknown-key",
             "non-numeric-mask-ratio", "mask-ratio-out-of-range", "unknown-mask-mode"])
    def test_malformed_manifest_is_usage_error(self, tmp_path, text, capsys):
        manifest = tmp_path / "m.json"
        if text is not None:
            manifest.write_text(text)
        code = main(["bench", "--manifest", str(manifest),
                     "--out", str(tmp_path / "out"), "--quiet"])
        assert code == EXIT_USAGE
        assert one_line_error(capsys, "usage error:")


def removed_flag_argv(tmp_path, command):
    """A valid invocation of each command, to which one flag is appended."""
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"cells": []}))
    config = tmp_path / "c.txt"
    config.write_text(SMALL)
    out = ["--out", str(tmp_path / "o")]
    loaded = ["--data", "synth:simple", "--checkpoint", str(tmp_path / "m.awn")]
    return {"train": ["--data", "synth:simple", "--config", str(config), "--quiet"] + out,
            "eval": loaded,
            "forecast": loaded + out,
            "impute": loaded + out,
            "superres": loaded + out,
            "synth": out,
            "decompose": ["--data", str(tmp_path / "w.csv")] + out,
            "bench": ["--manifest", str(manifest), "--quiet"] + out}[command]


REMOVED_FLAGS = [
    ("eval", ["--out", "o"]), ("eval", ["--quiet"]),
    ("forecast", ["--seed", "1"]), ("forecast", ["--quiet"]),
    ("impute", ["--quiet"]),
    ("superres", ["--seed", "1"]), ("superres", ["--quiet"]),
    ("synth", ["--quiet"]),
    ("decompose", ["--seed", "1"]), ("decompose", ["--quiet"]),
    ("decompose", ["--kernel-size", "3"]),
    ("bench", ["--seed", "1"]),
    ("train", ["--eq9-literal"])]


@pytest.mark.parametrize("command,flag", REMOVED_FLAGS,
                         ids=[f"{c} {f[0]}" for c, f in REMOVED_FLAGS])
def test_removed_flag_is_usage_error(tmp_path, command, flag, capsys):
    code = main([command] + removed_flag_argv(tmp_path, command) + flag)
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err and flag[0] in err


def subcommands():
    action, = (a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return action.choices


def args_read(func, seen):
    """Names read as ``args.<name>`` by func and, transitively, by the
    module-level cli functions it calls."""
    if func in seen:
        return set()
    seen.add(func)
    names = set()
    for node in ast.walk(ast.parse(inspect.getsource(func))):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "args"):
            names.add(node.attr)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            helper = getattr(cli, node.func.id, None)
            if inspect.isfunction(helper) and helper.__module__ == cli.__name__:
                names |= args_read(helper, seen)
    return names


def test_every_declared_flag_is_read():
    unread = []
    for command, parser in subcommands().items():
        read = args_read(parser.get_default("func"), set())
        unread += [(command, a.option_strings[0]) for a in parser._actions
                   if a.option_strings and a.dest != "help" and a.dest not in read]
    assert unread == []
