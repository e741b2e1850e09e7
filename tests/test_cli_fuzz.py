"""`adawave` on random arguments: every subcommand, drawn from the flags it
declares, with small or malformed values. Each call must return an exit code
in 0-3, and a non-zero exit must print exactly one stderr line."""
import argparse
import contextlib
import io
import json
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adawavenet.cli import build_parser, main

TINY = """\
levels=1
kernel_size=3
input_len=16
pred_len=16
d_model=4
heads=1
ma_window=3
max_epochs=1
batch_size=64
"""
PREFIXES = ("usage error:", "data error:", "numerical failure:")


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Paths to small valid and malformed inputs and two tiny checkpoints, with
    the working directory moved to them, where a left-out --out writes."""
    root = tmp_path_factory.mktemp("fuzz")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)
        yield _write_inputs(root)


def _write_inputs(root):
    def write(name, text):
        path = root / name
        path.write_text(text)
        return str(path)

    t = np.arange(320) / 10.0
    f = types.SimpleNamespace(missing=str(root / "missing"))
    f.csv = write("tiny.csv", "a,b\n" + "".join(
        f"{np.sin(v):.6f},{np.cos(3 * v):.6f}\n" for v in t))
    f.short = write("short.csv", "a\n1\n2\n3\n4\n5\n")
    f.dates = write("dates.csv", "date\n2020-01-01\n")
    f.empty = write("empty.csv", "")
    f.config = write("tiny.txt", TINY)
    f.impute = write("impute.txt", TINY + "task=impute\nrevin=false\n")
    f.superres = write("superres.txt", TINY + "task=superres\nsr_ratio=2\n")
    f.no_equals = write("colon.txt", TINY + "levels: 2\n")
    f.unknown = write("unknown.txt", TINY + "learnign_rate=0.1\n")
    f.bad_value = write("bad.txt", TINY + "learning_rate=nan\n")
    f.out = str(root / "out")
    f.under_file = f.csv + "/out"
    for name, config in (("forecast", f.config), ("impute", f.impute)):
        assert main(["train", "--data", f.csv, "--config", config, "--quiet",
                     "--out", str(root / name)]) == 0
    f.ckpt = str(root / "forecast" / "model.awn")
    f.impute_ckpt = str(root / "impute" / "model.awn")
    with open(f.ckpt, "rb") as fh:
        f.truncated = str(root / "cut.awn")
        (root / "cut.awn").write_bytes(fh.read()[:100])
    cell = {"dataset": f.csv, "seeds": [0], **dict(
        line.split("=") for line in TINY.split())}
    f.manifests = [write(f"m{i}.json", text) for i, text in enumerate([
        json.dumps({"cells": [cell]}), json.dumps({"cells": []}),
        json.dumps({"cells": [{**cell, "learnign_rate": 0.1}]}),
        json.dumps({"cells": [{"seeds": [0]}]}),
        json.dumps({"cells": [{**cell, "levels": 2.5}]}),
        '{"cells": [', "[]"])] + [f.missing]
    return f


def pools(f, command):
    """Values to draw for each flag of a command."""
    data = [f.csv, "synth:simple", "synth:bogus", f.short, f.dates, f.empty,
            f.missing]
    return {
        "--data": data,
        "--config": [f.config, f.impute, f.superres, f.no_equals, f.unknown,
                     f.bad_value, f.missing],
        "--checkpoint": ([f.out + "/m.awn", f.missing + "/m.awn"]
                         if command == "train" else
                         [f.ckpt, f.impute_ckpt, f.truncated, f.csv, f.missing]),
        "--seed": ["0", "3", "-1", "x", "2.5"],
        "--out": [f.out, f.under_file],
        "--mask-mode": ["random", "extended", "bogus"],
        "--mask-ratio": ["0.25", "0.5", "0.01", "0", "1", "-0.5", "nan", "x"],
        "--channel": ["0", "1", "2", "-1", "x"],
        "--ratio": ["1", "2", "3", "4", "0", "-1", "x"],
        "--family": ["simple", "traffic", "electricity", "bogus"],
        "--variance-shift": ["0", "1", "nan", "-inf", "x"],
        "--step-change": ["0", "0.5", "inf", "x"],
        "--n-points": ["-1", "0", "1", "2", "50", "x"],
        "--ma-window": ["-1", "0", "1", "3", "4", "25", "x"],
        "--levels": ["-1", "0", "1", "2", "9", "x"],
        "--manifest": f.manifests,
    }


def declared_flags(command):
    """(flag, takes_value, required) for each flag the command declares."""
    action, = (a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return [(a.option_strings[0], a.nargs != 0, a.required)
            for a in action.choices[command]._actions
            if a.option_strings and a.dest != "help"]


COMMANDS = ["train", "eval", "forecast", "impute", "superres", "synth",
            "decompose", "bench"]


@pytest.mark.parametrize("command", COMMANDS)
@settings(max_examples=12, deadline=None)
@given(draw=st.data())
def test_random_arguments_exit_cleanly(files, command, draw):
    pool = pools(files, command)
    argv = [command]
    for flag, takes_value, required in declared_flags(command):
        # a required flag is left out now and then, an optional one half the
        # time; train always gets a one-epoch config
        if (command, flag) == ("train", "--config") or draw.draw(
                st.integers(0, 7) if required else st.booleans()):
            argv += [flag] + ([draw.draw(st.sampled_from(pool[flag]))]
                              if takes_value else [])
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2, 3), argv
    if code:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith(PREFIXES), (argv, lines)
