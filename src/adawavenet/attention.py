"""Channel-wise self-attention over the final-level approximation.

Each channel's coarse sequence becomes one token. A single pre-norm
multi-head attention layer with a residual connection mixes the tokens, and
an affine target projection maps each token back to sequence space. No
positional encoding is used, so the layer is permutation-equivariant over
channels.

The scores grow as C², so the core softmax(q kᵀ) v is one `tensor.attention`
op that runs the B·H [C, C] score matrices in blocks whose scores fit in
`BLOCK_BYTES`: its temporaries hold one score block, not the batch, and its
graph keeps only the attention weights.
"""
from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import Tensor

# the float64 scores of one attention block stay within this
BLOCK_BYTES = 1 << 20


class AttentionHead:
    """Built from a checked ModelConfig; AdaWaveNet.forward checks its input."""
    def __init__(self, seq_len: int, d_model: int, heads: int,
                 rng: np.random.Generator):
        self.d_model = d_model
        self.heads = heads

        def rand(shape, scale):
            return Tensor(rng.normal(0.0, scale, shape), requires_grad=True)

        # embed/target start as mutually inverse truncated identities so the
        # layer is exactly invertible-by-construction at init
        self.w_embed = Tensor(np.eye(seq_len, d_model), requires_grad=True)
        self.w_target = Tensor(np.eye(d_model, seq_len), requires_grad=True)
        self.b_target = Tensor(np.zeros(seq_len), requires_grad=True)
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
        """x: [B, C, seq_len] -> [B, C, seq_len]."""
        B, C = x.shape[0], x.shape[1]
        H, dh = self.heads, self.d_model // self.heads

        tokens = T.matmul(x, self.w_embed)                       # [B, C, d]
        h = T.layer_norm(tokens, self.ln_scale, self.ln_shift)
        # 1/sqrt(dh) scales the [d, d] query weights, so that neither the
        # [rows, H, C, C] scores nor the [B, C, d] queries need another copy
        q = T.matmul(h, T.mul(self.w_q, Tensor(1.0 / np.sqrt(dh))))
        k = T.matmul(h, self.w_k)
        v = T.matmul(h, self.w_v)

        def heads_view(t):   # [B, C, d] -> [B, H, C, dh]
            return T.transpose(T.reshape(t, (B, C, H, dh)), (0, 2, 1, 3))

        rows = max(1, BLOCK_BYTES // (8 * C * C))
        mixed = T.attention(heads_view(q), heads_view(k), heads_view(v),
                            rows)                                # [B, H, C, dh]
        mixed = T.reshape(T.transpose(mixed, (0, 2, 1, 3)), (B, C, self.d_model))
        tokens = T.add(tokens, T.matmul(mixed, self.w_out))      # residual
        return T.add(T.matmul(tokens, self.w_target), self.b_target)
