"""Acceptance gate: one test per criterion, each printing one pass/fail line.

Tolerances and runtime budgets are pinned here and intentionally not shared
with the per-module suites.
"""
import os
import sys
import time

import numpy as np
import pytest

import adawavenet.tensor as T
from adawavenet.bench import case_study, evaluate_forecast, resolve_dataset
from adawavenet.config import ModelConfig, TrainConfig
from adawavenet.data import MaskSpec, build_dataset, downsample, make_mask
from adawavenet.lifting import LiftingLevel, analyze, synthesize
from adawavenet.model import AdaWaveNet, zoh_upsample
from adawavenet.synth import SynthSpec, generate
from adawavenet.tensor import Tensor
from adawavenet.train import build_model, train

from conftest import check_grads, passthrough_attention

GRAD_EPS = 1e-5
GRAD_RTOL = 1e-4
RECON_TOL = 1e-10
PASSTHROUGH_TOL = 1e-10
REPRO_TOL = 1e-12


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    # written past pytest's capture so the line always reaches the log
    print(f"[criterion {num}] {name}: {status} {detail}".rstrip(),
          file=sys.__stdout__)
    assert ok, f"criterion {num} ({name}) failed {detail}"


# -- criterion 1: gradient suite ---------------------------------------------

def _op_battery(rng):
    """(name, build_loss, arrays-factory) for every differentiable op."""
    def n(*shape):
        return rng.normal(size=shape)

    return [
        ("add", lambda a, b: T.tsum(T.tanh(T.add(a, b))),
         lambda: [n(3, 4), n(3, 4)]),
        ("sub", lambda a, b: T.tsum(T.tanh(T.sub(a, b))),
         lambda: [n(3, 4), n(3, 4)]),
        ("mul", lambda a, b: T.tsum(T.tanh(T.mul(a, b))),
         lambda: [n(3, 4), n(3, 4)]),
        ("div", lambda a, b: T.tsum(T.tanh(T.div(a, b))),
         lambda: [n(3, 4), n(3, 4) + 3.0]),
        ("tanh", lambda a: T.tsum(T.tanh(a)), lambda: [n(3, 5)]),
        ("sqrt", lambda a: T.tsum(T.sqrt(a)), lambda: [n(3, 5) ** 2 + 0.5]),
        ("mean", lambda a: T.tsum(T.tanh(T.mean(a))), lambda: [n(3, 6)]),
        ("softmax", lambda a: T.tsum(T.mul(T.softmax(a, axis=-1), a)),
         lambda: [n(2, 5)]),
        ("matmul", lambda a, b: T.tsum(T.tanh(T.matmul(a, b))),
         lambda: [n(2, 3, 4), n(4, 5)]),
        ("depthwise_conv1d",
         lambda x, w, b: T.tsum(T.tanh(T.depthwise_conv1d(x, w, b))),
         lambda: [n(2, 3, 8), n(3, 4), n(3)]),
        ("depthwise_conv_transpose1d",
         lambda x, w, b: T.tsum(T.tanh(T.depthwise_conv_transpose1d(x, w, b))),
         lambda: [n(2, 3, 8), n(3, 4), n(3)]),
        ("lifting_filter",
         lambda x, w, b: T.tsum(T.tanh(T.lifting_filter(x, w, b, False))),
         lambda: [n(2, 3, 8), n(3, 4), n(3)]),
        ("lifting_filter_transpose",
         lambda x, w, b: T.tsum(T.tanh(T.lifting_filter(x, w, b, True))),
         lambda: [n(2, 3, 8), n(3, 4), n(3)]),
        ("moving_average", lambda x: T.tsum(T.tanh(T.moving_average(x, 5))),
         lambda: [n(2, 2, 12)]),
        ("layer_norm", lambda x, s, h: T.tsum(T.tanh(T.layer_norm(x, s, h))),
         lambda: [n(2, 3, 6), n(6) + 1.5, n(6)]),
        ("grouped_linear",
         lambda x, w, b: T.tsum(T.tanh(T.grouped_linear_op(
             x, w, b, np.array([0, 1, 0])))),
         lambda: [n(2, 3, 4), n(2, 4, 5), n(2, 5)]),
        ("mse", lambda p, t: T.mse(p, t), lambda: [n(2, 3, 4), n(2, 3, 4)]),
        ("mse_masked",
         lambda p, t: T.mse(p, t, mask=Tensor(
             (np.arange(24).reshape(2, 3, 4) % 2).astype(float))),
         lambda: [n(2, 3, 4), n(2, 3, 4)]),
        ("pad_crop", lambda x: T.tsum(T.tanh(T.crop_last(
            T.pad_edge_last(x, 1), 9))), lambda: [n(2, 8)]),
        ("interleave", lambda a, b: T.tsum(T.tanh(T.interleave(a, b))),
         lambda: [n(2, 4), n(2, 4)]),
        ("split", lambda x: T.tsum(T.mul(T.take_even(x), T.take_odd(x))),
         lambda: [n(2, 8)]),
    ]


def _composed_model_check(seed):
    """Finite differences over the input and every parameter of a tiny model."""
    rng = np.random.default_rng(seed)
    cfg = ModelConfig(levels=1, kernel_size=3, input_len=8, pred_len=8,
                      d_model=4, heads=2, ma_window=3, seed=seed)
    model = AdaWaveNet(cfg, channels=1)
    for p in model.parameters().values():
        p.data += rng.normal(0.0, 0.1, p.data.shape)
    x = rng.normal(size=(1, 1, 8))
    y = rng.normal(size=(1, 1, 8))

    def loss_val():
        return T.mse(model.forward(Tensor(x)), Tensor(y)).item()

    xt = Tensor(x.copy(), requires_grad=True)
    loss = T.mse(model.forward(xt), Tensor(y))
    loss.backward()

    worst = 0.0
    arrays = [(p.data, p.grad) for p in model.parameters().values()]
    arrays.append((x, xt.grad))
    for data, grad in arrays:
        flat = data.reshape(-1)
        gflat = (grad if grad is not None else np.zeros_like(data)).reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + GRAD_EPS
            hi = loss_val()
            flat[j] = orig - GRAD_EPS
            lo = loss_val()
            flat[j] = orig
            ref = (hi - lo) / (2 * GRAD_EPS)
            worst = max(worst, abs(gflat[j] - ref) / max(abs(ref), 1e-6))
    return worst


def test_criterion_1_gradient_suite(rng):
    t0 = time.time()
    for name, build_loss, make_arrays in _op_battery(rng):
        for _ in range(20):
            check_grads(build_loss, make_arrays(), eps=GRAD_EPS, rtol=GRAD_RTOL)
    worst = max(_composed_model_check(seed) for seed in range(20))
    elapsed = time.time() - t0
    ok = worst < GRAD_RTOL and elapsed < 60.0
    report(1, "gradient suite", ok,
           f"(composed max rel err {worst:.2e}, {elapsed:.1f}s)")


# -- criterion 2: perfect reconstruction -------------------------------------

def test_criterion_2_perfect_reconstruction(rng):
    t0 = time.time()
    lengths = [97, 100, 128, 131, 160, 191, 200]
    worst, count = 0.0, 0
    for n_levels in range(1, 6):
        for K in (3, 7, 16):
            for L in lengths:
                C = int(rng.integers(1, 4))
                levels = [LiftingLevel(C, K) for _ in range(n_levels)]
                for level in levels:
                    for p in level.parameters("tied").values():
                        p.data[...] = rng.normal(0.0, 0.5, p.data.shape)
                x = rng.normal(size=(C, L))
                back = synthesize(*analyze(Tensor(x), levels), levels, mode="tied")
                worst = max(worst, float(np.abs(back.data - x).max()))
                count += 1
    elapsed = time.time() - t0
    ok = worst < RECON_TOL and count >= 100
    report(2, "perfect reconstruction", ok,
           f"({count} inputs, max err {worst:.2e}, {elapsed:.1f}s)")


# -- criterion 3: initialization pass-through --------------------------------

def test_criterion_3_init_passthrough(rng):
    worst = 0.0
    for mode in ("learned", "tied"):
        cfg = ModelConfig(levels=4, kernel_size=7, input_len=96, pred_len=96,
                          inverse_mode=mode)
        model = AdaWaveNet(cfg, channels=3)
        passthrough_attention(model.head)
        x = rng.normal(size=(4, 3, 96))
        out = model.forward(Tensor(x))
        worst = max(worst, float(np.abs(out.data - x).max()))
    report(3, "initialization pass-through", worst < PASSTHROUGH_TOL,
           f"(max err {worst:.2e})")


# -- criterion 4: masking exactness ------------------------------------------

def test_criterion_4_masking_exactness():
    L = 96
    ok = True
    details = []
    for ratio in (0.125, 0.25, 0.375, 0.5):
        rand = make_mask(MaskSpec("random", ratio, seed=7), (5, L), 0, 0)
        realized = (rand == 0).sum(axis=1) / L
        if not np.all(realized == ratio):
            ok = False
            details.append(f"random {ratio}: {realized}")
        ext = make_mask(MaskSpec("extended", ratio, seed=7), (5, L), 0, 0)
        zeros = np.where(ext[0] == 0)[0]
        contiguous = np.array_equal(zeros, np.arange(zeros[0], zeros[-1] + 1))
        identical = np.all(ext == ext[0])
        exact = len(zeros) / L == ratio
        if not (contiguous and identical and exact):
            ok = False
            details.append(f"extended {ratio}")
    report(4, "masking exactness", ok, " ".join(details))


# -- criterion 5: synthetic case study ---------------------------------------

def test_criterion_5_synthetic_case_study():
    t0 = time.time()
    result = case_study("simple", seed=0)
    elapsed = time.time() - t0
    mse = result["model"][0]
    pers = result["persistence"][0]
    lin = result["linear"][0]
    ok = (mse <= 0.30
          and mse <= 0.8 * pers
          and mse <= 0.8 * lin
          and elapsed < 600.0)
    report(5, "synthetic case study", ok,
           f"(MSE {mse:.3f} vs persistence {pers:.3f} / linear {lin:.3f}, "
           f"{elapsed:.0f}s)")


# -- criterion 6: ETTh1 desk-scale forecast ----------------------------------

ETTH1_CANDIDATES = [os.environ.get("ADAWAVE_ETTH1", ""),
                    "data/ETTh1.csv", "ETTh1.csv",
                    os.path.expanduser("~/data/ETTh1.csv")]


def _find_etth1():
    for path in ETTH1_CANDIDATES:
        if path and os.path.exists(path):
            return path
    return None


def test_criterion_6_etth1_forecast():
    path = _find_etth1()
    if path is None:
        print("[criterion 6] ETTh1 forecast: SKIP "
              "(ETTh1.csv not present; place it at data/ETTh1.csv or point "
              "ADAWAVE_ETTH1 at it)", file=sys.__stdout__)
        pytest.skip("ETTh1.csv not available in this environment")
    t0 = time.time()
    dataset = resolve_dataset(f"etth:{path}")
    model_cfg = ModelConfig(levels=4, kernel_size=7, n_clusters=4,
                            input_len=96, pred_len=96, seed=0)
    train_cfg = TrainConfig(learning_rate=5e-4, max_epochs=30, patience=3,
                            seed=0)
    model = build_model(dataset, model_cfg)
    train(model, dataset, train_cfg)
    mse, mae = evaluate_forecast(model, dataset)
    elapsed = time.time() - t0
    ok = mse <= 0.45 and elapsed < 3600.0
    report(6, "ETTh1 forecast", ok, f"(MSE {mse:.3f}, {elapsed:.0f}s)")


# -- criterion 7: imputation loss masking + super-resolution round trip ------

def test_criterion_7_task_properties(rng):
    pred = rng.normal(size=(2, 3, 32))
    target = rng.normal(size=(2, 3, 32))
    mask = (rng.uniform(size=pred.shape) > 0.5).astype(float)  # 1 = observed
    loss_mask = 1.0 - mask
    base = T.mse(Tensor(pred), Tensor(target), mask=Tensor(loss_mask)).item()
    perturbed = pred + 1e3 * mask * rng.normal(size=pred.shape)
    after = T.mse(Tensor(perturbed), Tensor(target),
                  mask=Tensor(loss_mask)).item()
    masking_ok = base == after   # bitwise

    sr_ok = True
    for r in (2, 4, 8):
        x = rng.normal(size=(2, 3, 96 // r))
        sr_ok = sr_ok and np.array_equal(downsample(zoh_upsample(x, r), r), x)

    report(7, "imputation masking + super-resolution round trip",
           masking_ok and sr_ok,
           f"(loss bitwise {'equal' if masking_ok else 'UNEQUAL'}, "
           f"round trip {'exact' if sr_ok else 'BROKEN'})")


# -- criterion 8: reproducibility --------------------------------------------

def test_criterion_8_reproducibility():
    signal = generate(SynthSpec(family="simple", seed=0))
    vals = []
    for _ in range(2):
        dataset = build_dataset(["simple"], signal.copy(), (0.3125, 0.1875, 0.5))
        cfg = ModelConfig(levels=2, kernel_size=3, input_len=48, pred_len=48,
                          d_model=16, heads=4, ma_window=5, seed=11)
        train_cfg = TrainConfig(learning_rate=1e-3, max_epochs=3, seed=11)
        model = build_model(dataset, cfg)
        _, best_val = train(model, dataset, train_cfg)
        vals.append(best_val)
    diff = abs(vals[0] - vals[1])
    report(8, "reproducibility", diff <= REPRO_TOL,
           f"(val losses {vals[0]:.12f} vs {vals[1]:.12f}, diff {diff:.1e})")
