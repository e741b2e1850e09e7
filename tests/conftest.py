import numpy as np
import pytest

from adawavenet.tensor import Tensor


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


ETT_CHANNELS = ["HUFL", "HULL", "MUFL", "MULL", "LUFL", "LULL", "OT"]


def write_ett_csv(path, rows):
    """An hourly ETT-shaped CSV: a date column and 7 smooth noisy channels."""
    t = np.arange(rows)
    phase = np.arange(len(ETT_CHANNELS))[:, None]
    values = (np.sin(2 * np.pi * t / 24 + phase) + 0.1 * np.cos(t / 500 + phase)
              + 0.05 * np.random.default_rng(0).normal(size=(len(phase), rows)))
    dates = np.datetime64("2016-07-01T00") + t.astype("timedelta64[h]")
    lines = [",".join(["date"] + ETT_CHANNELS)]
    lines += [f"{d}," + ",".join(f"{v:.6f}" for v in col)
              for d, col in zip(dates, values.T)]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def passthrough_attention(head):
    """Zero an attention head's mixing path so that it is embed∘target only,
    which is the identity at init; returns the head."""
    for p in (head.w_q, head.w_k, head.w_v, head.w_out):
        p.data[...] = 0.0
    return head


def finite_difference_grads(fn, arrays, eps=1e-5):
    """Central-difference gradients of scalar fn(*arrays) w.r.t. each array.

    Independent of the autodiff path: perturbs one element at a time.
    """
    grads = []
    for i, a in enumerate(arrays):
        g = np.zeros_like(a, dtype=float)
        flat = a.reshape(-1)
        gflat = g.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + eps
            hi = fn(*arrays)
            flat[j] = orig - eps
            lo = fn(*arrays)
            flat[j] = orig
            gflat[j] = (hi - lo) / (2 * eps)
        grads.append(g)
    return grads


def check_grads(build_loss, arrays, eps=1e-5, rtol=1e-4, atol=1e-8):
    """Compare autodiff grads of build_loss (taking Tensors) against finite
    differences of the same computation on raw arrays.

    Elements with reference magnitude < atol are compared absolutely.
    """
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    loss = build_loss(*tensors)
    loss.backward()

    def numeric_fn(*raw):
        return build_loss(*[Tensor(r) for r in raw]).item()

    reference = finite_difference_grads(numeric_fn, [a.copy() for a in arrays], eps)
    for t, ref in zip(tensors, reference):
        got = t.grad if t.grad is not None else np.zeros_like(ref)
        denom = np.maximum(np.abs(ref), atol)
        rel = np.abs(got - ref) / denom
        small = np.abs(ref) < atol
        rel[small] = np.abs(got - ref)[small]
        assert rel.max() < rtol, f"max relative gradient error {rel.max():.2e}"
