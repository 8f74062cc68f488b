"""Lane decoder: learned queries refined by alternating multi-head
self-attention and deformable cross-attention into the BEV grid, with a
small zero-initialized head nudging each query's reference point per layer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .backbone import ConfigError
from .bev_encoder import (deformable_attention, init_deform_attn, init_ffn,
                          init_layer_norm, init_linear, run_ffn, run_layer_norm, run_linear, _p)
from .tensor import Tensor

SELF_ATTN_HEADS = 8  # fixed by the architecture this follows


@dataclass
class LaneQuerySet:
    emb: Tensor         # [N_q, D]
    ref_logits: Tensor  # [N_q, 2]; sigmoid gives normalized BEV (u, v)

    def reference_points(self) -> Tensor:
        return T.sigmoid(self.ref_logits)


def init_self_attn(params, prefix, dim, rng):
    """The key projection has no bias: it would add q_i . b_k to every score in
    row i, which the softmax over keys cancels, so it could never learn."""
    for name in ("q", "k", "v", "out"):
        init_linear(params, f"{prefix}/{name}", dim, dim, rng)
    del params[prefix + "/k/b"]


def self_attention(queries: Tensor, params, prefix, n_heads: int = SELF_ATTN_HEADS) -> Tensor:
    """Scaled dot-product attention among the lane queries."""
    n, dim = queries.shape
    if dim % n_heads != 0:
        raise ConfigError(f"embed dim {dim} not divisible by {n_heads} heads")
    d_head = dim // n_heads
    q = run_linear(queries, params, prefix + "/q")
    k = T.linear(queries, _p(params, prefix + "/k/w"))
    v = run_linear(queries, params, prefix + "/v")

    def split(x):  # [N, D] -> [heads, N, d_head]
        return T.transpose(T.reshape(x, (n, n_heads, d_head)), (1, 0, 2))

    qh, kh, vh = split(q), split(k), split(v)
    scores = T.matmul(qh, T.transpose(kh, (0, 2, 1)))
    scores = T.mul(scores, T.constant(1.0 / np.sqrt(d_head), scores))
    attn = T.softmax(scores, axis=-1)                      # rows sum to 1
    ctx = T.matmul(attn, vh)                               # [heads, N, d_head]
    merged = T.reshape(T.transpose(ctx, (1, 0, 2)), (n, dim))
    return run_linear(merged, params, prefix + "/out")


def init_decoder_params(params, cfg, rng):
    n_q, dim = cfg.n_queries, cfg.embed_dim
    params["dec/query"] = rng.standard_normal((n_q, dim)) * 0.02
    # initial reference logits spread over the grid interior
    g = np.linspace(-1.5, 1.5, n_q)
    params["dec/ref_logits"] = np.stack([g, g[::-1]], axis=1) + rng.standard_normal((n_q, 2)) * 0.1
    for i in range(cfg.n_decoder_layers):
        p = f"dec{i}"
        init_self_attn(params, p + "/sa", dim, rng)
        init_deform_attn(params, p + "/ca", dim, dim, cfg.n_heads, cfg.n_sample_points, rng)
        init_ffn(params, p + "/ffn", dim, cfg.ffn_dim, rng)
        init_linear(params, p + "/refine/fc0", dim, dim, rng)
        init_linear(params, p + "/refine/fc1", dim, 2, rng, zero=True)
        for j in range(3):
            init_layer_norm(params, f"{p}/ln{j}", dim)


def initial_queries(params) -> LaneQuerySet:
    return LaneQuerySet(_p(params, "dec/query"), _p(params, "dec/ref_logits"))


def decoder_layer(q: LaneQuerySet, bev_map: Tensor, params, prefix, n_heads: int,
                  n_points: int) -> LaneQuerySet:
    """Self-attention -> deformable cross-attention into the one-map BEV
    stack [1, bev_h, bev_w, D] at each query's reference point -> FFN, all
    residual + layer-normed; finally the refinement head shifts the reference
    logits (zero-initialized, so an untrained layer leaves them unchanged)."""
    x = run_layer_norm(T.add(q.emb, self_attention(q.emb, params, prefix + "/sa")),
                       params, prefix + "/ln0")
    cross = deformable_attention(x, bev_map, [(0, slice(None), q.reference_points())], params,
                                 prefix + "/ca", n_heads, n_points)
    x = run_layer_norm(T.add(x, cross), params, prefix + "/ln1")
    x = run_layer_norm(T.add(x, run_ffn(x, params, prefix + "/ffn")), params, prefix + "/ln2")
    delta = run_linear(T.relu(run_linear(x, params, prefix + "/refine/fc0")),
                       params, prefix + "/refine/fc1")
    return LaneQuerySet(x, T.add(q.ref_logits, delta))


def decode(q0: LaneQuerySet, bev: Tensor, params, cfg) -> list[LaneQuerySet]:
    """Runs cfg.n_decoder_layers over the grid, viewed once as a [1, bev_h,
    bev_w, D] map stack, and returns every layer's query set so each can be
    supervised (deep-supervision convention); the last one feeds the head."""
    bev_map = T.reshape(bev, (1, cfg.bev_h, cfg.bev_w, -1))
    out = []
    q = q0
    for i in range(cfg.n_decoder_layers):
        q = decoder_layer(q, bev_map, params, f"dec{i}", cfg.n_heads, cfg.n_sample_points)
        out.append(q)
    return out
