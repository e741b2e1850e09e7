"""Channel-wise self-attention over the final-level approximation.

Each channel's coarse sequence becomes one token. A single pre-norm
multi-head attention layer with a residual connection mixes the tokens, and
an affine target projection maps each token back to sequence space. No
positional encoding is used, so the layer is permutation-equivariant over
channels.
"""
from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import Tensor


def _trunc_identity(rows, cols):
    m = np.zeros((rows, cols))
    np.fill_diagonal(m, 1.0)
    return m


class AttentionHead:
    def __init__(self, seq_len: int, target_len: int, d_model: int, heads: int,
                 rng: np.random.Generator):
        if d_model % heads != 0:
            raise T.TensorError("d_model must be divisible by the head count")
        self.seq_len = seq_len
        self.target_len = target_len
        self.d_model = d_model
        self.heads = heads

        def rand(shape, scale):
            return Tensor(rng.normal(0.0, scale, shape), requires_grad=True)

        # embed/target start as mutually inverse truncated identities so the
        # layer is exactly invertible-by-construction at init
        self.w_embed = Tensor(_trunc_identity(seq_len, d_model), requires_grad=True)
        self.w_target = Tensor(_trunc_identity(d_model, target_len), requires_grad=True)
        self.b_target = Tensor(np.zeros(target_len), requires_grad=True)
        scale = 1.0 / np.sqrt(d_model)
        self.w_q = rand((d_model, d_model), scale)
        self.w_k = rand((d_model, d_model), scale)
        self.w_v = rand((d_model, d_model), scale)
        self.w_out = rand((d_model, d_model), scale)
        self.ln_scale = Tensor(np.ones(d_model), requires_grad=True)
        self.ln_shift = Tensor(np.zeros(d_model), requires_grad=True)

    def parameters(self):
        return {"w_embed": self.w_embed, "w_q": self.w_q, "w_k": self.w_k,
                "w_v": self.w_v, "w_out": self.w_out, "w_target": self.w_target,
                "b_target": self.b_target, "ln_scale": self.ln_scale,
                "ln_shift": self.ln_shift}

    def project_approximation(self, x: Tensor) -> Tensor:
        """x: [..., C, seq_len] -> [..., C, target_len]."""
        if x.shape[-1] != self.seq_len:
            raise T.TensorError(
                f"expected sequences of length {self.seq_len}, got {x.shape[-1]}")
        squeeze = x.ndim == 2
        if squeeze:
            x = T.reshape(x, (1,) + x.shape)
        B, C = x.shape[0], x.shape[-2]
        H, dh = self.heads, self.d_model // self.heads

        tokens = T.matmul(x, self.w_embed)                       # [B, C, d]
        h = T.layer_norm(tokens, self.ln_scale, self.ln_shift)
        # 1/sqrt(dh) scales the [d, d] query weights, so that neither the
        # [B, H, C, C] scores nor the [B, C, d] queries need another copy
        q = T.matmul(h, T.mul(self.w_q, Tensor(1.0 / np.sqrt(dh))))
        k = T.matmul(h, self.w_k)
        v = T.matmul(h, self.w_v)

        def heads_view(t):   # [B, C, d] -> [B, H, C, dh]
            return T.transpose(T.reshape(t, (B, C, H, dh)), (0, 2, 1, 3))

        q, k, v = heads_view(q), heads_view(k), heads_view(v)
        scores = T.matmul(q, T.transpose(k, (0, 1, 3, 2)))
        weights = T.softmax(scores, axis=-1)                     # [B, H, C, C]
        mixed = T.matmul(weights, v)                             # [B, H, C, dh]
        mixed = T.reshape(T.transpose(mixed, (0, 2, 1, 3)), (B, C, self.d_model))
        tokens = T.add(tokens, T.matmul(mixed, self.w_out))      # residual
        out = T.add(T.matmul(tokens, self.w_target), self.b_target)
        if squeeze:
            out = T.reshape(out, out.shape[1:])
        return out
