"""BEV lane encoder: temporal self-attention over the history grid, aligned to
the current frame once per frame, then spatial cross-attention lifting
multi-camera features into the BEV plane.  Both use one deformable-attention kernel.

Parameter tensors live in a flat dict keyed by slash-separated names; every
function here takes that dict plus a name prefix, so layer stacking is just
a prefix loop (``enc0/tsa``, ``enc1/tsa``, ...).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .backbone import ConfigError
from .dataset import Camera
from .tensor import Tensor

@dataclass(frozen=True)
class BEVGridSpec:
    """Row-major H x W grid over a metric, ego-centered extent.

    Rows index the longitudinal (x) axis, columns the lateral (y) axis;
    flattened index = row * W + col.
    """

    h: int
    w: int
    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def cell_centers(self) -> np.ndarray:
        """[H*W, 2] metric (x, y) centers, row-major."""
        dx = (self.x_max - self.x_min) / self.h
        dy = (self.y_max - self.y_min) / self.w
        xs = self.x_min + (np.arange(self.h) + 0.5) * dx
        ys = self.y_min + (np.arange(self.w) + 0.5) * dy
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        return np.stack([gx.reshape(-1), gy.reshape(-1)], axis=1)

    def normalize(self, pts: np.ndarray) -> np.ndarray:
        """Metric (x, y) -> normalized (u, v): u along columns, v along rows."""
        u = (pts[..., 1] - self.y_min) / (self.y_max - self.y_min)
        v = (pts[..., 0] - self.x_min) / (self.x_max - self.x_min)
        return np.stack([u, v], axis=-1)


@dataclass(frozen=True)
class EgoMotion:
    """Planar rigid transform: p_current = R(dyaw) @ p_previous + (dx, dy)."""

    dx: float = 0.0
    dy: float = 0.0
    dyaw: float = 0.0

    @classmethod
    def from_poses(cls, prev_pose, cur_pose) -> "EgoMotion":
        xp, yp, ap = prev_pose
        xc, yc, ac = cur_pose
        dyaw = ap - ac
        c, s = np.cos(-ac), np.sin(-ac)
        tx = c * (xp - xc) - s * (yp - yc)
        ty = s * (xp - xc) + c * (yp - yc)
        return cls(float(tx), float(ty), float(dyaw))

    def matrix(self) -> np.ndarray:
        c, s = np.cos(self.dyaw), np.sin(self.dyaw)
        return np.array([[c, -s], [s, c]])


# ---------------------------------------------------------------------------
# parameter initialization helpers


def _xavier(rng, n_in, n_out):
    return rng.standard_normal((n_in, n_out)) * np.sqrt(2.0 / (n_in + n_out))


def init_linear(params, name, n_in, n_out, rng, zero=False):
    params[name + "/w"] = np.zeros((n_in, n_out)) if zero else _xavier(rng, n_in, n_out)
    params[name + "/b"] = np.zeros(n_out)


def init_layer_norm(params, name, dim):
    params[name + "/gain"] = np.ones(dim)
    params[name + "/bias"] = np.zeros(dim)


def init_deform_attn(params, prefix, dim, value_channels, n_heads, n_points, rng):
    """Offsets start near the reference point; attention starts uniform."""
    init_linear(params, prefix + "/value", value_channels, dim, rng)
    init_linear(params, prefix + "/offset", dim, n_heads * n_points * 2, rng, zero=True)
    angles = 2 * np.pi * np.arange(n_heads * n_points) / (n_heads * n_points)
    params[prefix + "/offset/b"] = (0.04 * np.stack([np.cos(angles), np.sin(angles)], axis=1)).reshape(-1)
    init_linear(params, prefix + "/logit", dim, n_heads * n_points, rng, zero=True)
    init_linear(params, prefix + "/out", dim, dim, rng)


def init_ffn(params, prefix, dim, hidden, rng):
    init_linear(params, prefix + "/fc0", dim, hidden, rng)
    init_linear(params, prefix + "/fc1", hidden, dim, rng)


def _p(params, name):
    return T._as_tensor(params[name])


def run_linear(x, params, name):
    return T.linear(x, _p(params, name + "/w"), _p(params, name + "/b"))


def run_layer_norm(x, params, name):
    return T.layer_norm(x, _p(params, name + "/gain"), _p(params, name + "/bias"))


def run_ffn(x, params, prefix):
    return run_linear(T.relu(run_linear(x, params, prefix + "/fc0")), params, prefix + "/fc1")


# ---------------------------------------------------------------------------
# deformable attention


def deformable_attention(queries: Tensor, value_maps: Tensor, views, params, prefix,
                         n_heads: int, n_points: int) -> Tensor:
    """Per query and head: K learned offsets and softmax weights around a
    reference point, projected once from the [N, D] queries; the values are
    projected once from the channel-last map stack [V, H, W, C].  Each view
    ``(map_index, query_index, ref_points)`` samples map ``map_index`` around
    its [rows, 2] reference points with the offsets and weights of the
    queries ``query_index``.  One output projection mixes the views' samples,
    in view order, into the returned [sum of rows, D].  Differentiable in
    queries, value maps and (via the offsets) the sampling locations.

    As in Deformable DETR, each view samples every head in one grouped
    ``bilinear_sample`` call over an [H, W, heads, d_head] view of its
    projected map, points query-major as [rows*heads*K, 2] and the
    attention weights folded into the kernel as [rows*heads, K].
    """
    n, dim = queries.shape
    if dim % n_heads != 0:
        raise ConfigError(f"embed dim {dim} not divisible by {n_heads} heads")
    d_head = dim // n_heads
    offsets = T.reshape(run_linear(queries, params, prefix + "/offset"), (n, n_heads, n_points, 2))
    logits = T.reshape(run_linear(queries, params, prefix + "/logit"), (n, n_heads, n_points))
    weights = T.softmax(logits, axis=-1)
    v, h, w, c = value_maps.shape
    value = run_linear(T.reshape(value_maps, (v * h * w, c)), params, prefix + "/value")
    value = T.reshape(value, (v, h, w, n_heads, d_head))

    weighted = []
    for map_index, query_index, ref_points in views:
        rows = ref_points.shape[0]
        refs = T.reshape(T._as_tensor(ref_points), (rows, 1, 1, 2))
        pts = T.reshape(T.add(refs, offsets[query_index]), (rows * n_heads * n_points, 2))
        attn = T.reshape(weights[query_index], (rows * n_heads, n_points))
        sampled = T.bilinear_sample(value[map_index], pts, attn)  # [rows*heads, d_head]
        weighted.append(T.reshape(sampled, (rows, dim)))
    mixed = weighted[0] if len(weighted) == 1 else T.concat(weighted)
    return run_linear(mixed, params, prefix + "/out")


# ---------------------------------------------------------------------------
# temporal self-attention


def warp_history(history_emb: Tensor, motion: EgoMotion, spec: BEVGridSpec) -> Tensor:
    """Resample the previous grid at the current grid's cell centers."""
    centers = spec.cell_centers()
    rot = motion.matrix()
    prev_pts = (centers - np.array([motion.dx, motion.dy])) @ rot  # R^T (c - t)
    uv = spec.normalize(prev_pts)
    hist_map = T.reshape(history_emb, (spec.h, spec.w, -1))
    return T.bilinear_sample(hist_map, T._as_tensor(uv))           # [H*W, D]


def temporal_self_attention(bev: Tensor, query_pos: Tensor, history: Tensor | None,
                            spec: BEVGridSpec, params, prefix, n_heads: int,
                            n_points: int) -> Tensor:
    """Deformable attention of the current grid [H*W, D] over (current, history),
    ``history`` being the previous grid already aligned by ``warp_history``.

    With no history (sequence start) the grid attends to itself only.
    Residual connection applied; normalization is the caller's concern.
    """
    if history is not None and history.shape != bev.shape:
        raise T.DimensionError(f"history grid {history.shape} != current grid {bev.shape}")
    refs = spec.normalize(spec.cell_centers())
    # (current, history) attentions share queries, offsets and weights and are
    # affine in the map, so their mean is one attention over the mean of the maps
    rows = bev if history is None else T.mul(T.add(bev, history), T.Tensor(0.5))
    out = deformable_attention(T.add(bev, query_pos), T.reshape(rows, (1, spec.h, spec.w, -1)),
                               [(0, slice(None), refs)], params, prefix, n_heads, n_points)
    return T.add(bev, out)


# ---------------------------------------------------------------------------
# spatial cross-attention


# the vertical extent (m, ego frame) of every cell's pillar of reference heights
PILLAR_Z_MIN, PILLAR_Z_MAX = -1.0, 2.0


def pillar_heights(n: int) -> np.ndarray:
    """n reference heights spread evenly over [PILLAR_Z_MIN, PILLAR_Z_MAX]."""
    return np.linspace(PILLAR_Z_MIN, PILLAR_Z_MAX, n)


# the last rig seen: a dataset's rig is fixed, so every layer and frame reuses it
_REFERENCE_MEMO: dict = {}


def projected_references(spec: BEVGridSpec, cameras: list[Camera], zs: np.ndarray):
    """Hit masks and normalized image points for every (cell, height, camera).

    Returns (refs, hits): refs[cam][H*W*Z, 2] normalized image coords with
    misses at (-1, -1); hits[cam][H*W*Z] booleans.  Pure geometry, memoized
    on the content of the grid spec, the heights and every camera's
    intrinsics and extrinsics; the arrays are read-only and shared.
    """
    key = (spec, np.asarray(zs, dtype=np.float64).tobytes(), np.array(
        [[c.fx, c.fy, c.cx, c.cy, c.width, c.height, *np.ravel(c.r), *np.ravel(c.t)]
         for c in cameras], dtype=np.float64).tobytes())
    if key in _REFERENCE_MEMO:
        return _REFERENCE_MEMO[key]
    n, z = spec.h * spec.w, len(zs)
    # every (cell, height) point once, cell-major: row i is cell i // Z at height i % Z
    pts3 = np.concatenate([np.repeat(spec.cell_centers(), z, axis=0), np.tile(zs, n)[:, None]],
                          axis=1)
    refs, hits = [], []
    for cam in cameras:
        cam_pts = pts3 @ cam.r.T + cam.t
        depth = cam_pts[:, 2]
        with np.errstate(divide="ignore", invalid="ignore"):
            u = cam.fx * cam_pts[:, 0] / depth + cam.cx
            v = cam.fy * cam_pts[:, 1] / depth + cam.cy
        m = (depth > 1e-9) & (u >= 0) & (u < cam.width) & (v >= 0) & (v < cam.height)
        r = np.where(m[:, None], np.stack([u / cam.width, v / cam.height], axis=1), -1.0)
        r.flags.writeable = m.flags.writeable = False
        refs.append(r)
        hits.append(m)
    _REFERENCE_MEMO.clear()
    _REFERENCE_MEMO[key] = tuple(refs), tuple(hits)
    return _REFERENCE_MEMO[key]


def spatial_cross_attention(bev: Tensor, query_pos: Tensor, pv_features: Tensor, cameras,
                            spec: BEVGridSpec, zs: np.ndarray, params, prefix,
                            n_heads: int, n_points: int) -> Tensor:
    """Lift the [V, H', W', C'] camera features into the BEV grid at pillar points.

    Each cell raises Z reference heights; every camera that sees a point
    ("hit") contributes a deformable-attention sample around the projected
    pixel.  One deformable-attention call has a view per camera that sees a
    point, over its hit (cell, height) rows with the offsets and weights of
    row i's cell i // Z; one scatter adds the outputs into the [H*W*Z, D]
    slots in camera order, so misses cost nothing forward or backward.
    Contributions are averaged over hit (view, height) pairs; cells without
    any hit pass through unchanged via the residual connection.
    """
    if pv_features.shape[0] != len(cameras):
        raise T.DimensionError(f"{pv_features.shape[0]} feature maps vs {len(cameras)} cameras")
    n = spec.h * spec.w
    z = len(zs)
    refs, hits = projected_references(spec, cameras, zs)
    seen = [i for i, m in enumerate(hits) if m.any()]
    if not seen:
        raise ConfigError("degenerate rig: no camera sees any BEV cell")

    rows = [np.nonzero(hits[i])[0] for i in seen]
    views = [(i, r // z, refs[i][r]) for i, r in zip(seen, rows)]
    out = deformable_attention(T.add(bev, query_pos), pv_features, views, params, prefix,
                               n_heads, n_points)
    total = T.scatter_rows(out, np.concatenate(rows), n * z)
    per_cell = np.sum(hits, axis=0).reshape(n, z).sum(axis=1)
    denom = np.maximum(per_cell, 1.0)
    summed = T.tsum(T.reshape(total, (n, z, -1)), axis=1)
    avg = T.mul(summed, T._as_tensor((1.0 / denom)[:, None]))
    return T.add(bev, avg)


# ---------------------------------------------------------------------------
# encoder stack


def init_encoder_params(params, cfg, value_channels, rng):
    """cfg needs: embed_dim, ffn_dim, n_heads, n_sample_points,
    n_encoder_layers, bev spec dims."""
    n = cfg.bev_h * cfg.bev_w
    params["bev/query"] = rng.standard_normal((n, cfg.embed_dim)) * 0.02
    params["bev/pos"] = rng.standard_normal((n, cfg.embed_dim)) * 0.02
    for i in range(cfg.n_encoder_layers):
        p = f"enc{i}"
        init_deform_attn(params, p + "/tsa", cfg.embed_dim, cfg.embed_dim,
                         cfg.n_heads, cfg.n_sample_points, rng)
        init_deform_attn(params, p + "/sca", cfg.embed_dim, value_channels,
                         cfg.n_heads, cfg.n_sample_points, rng)
        init_ffn(params, p + "/ffn", cfg.embed_dim, cfg.ffn_dim, rng)
        for j in range(3):
            init_layer_norm(params, f"{p}/ln{j}", cfg.embed_dim)


def encode(pv_features: Tensor, cameras, history: Tensor | None, motion: EgoMotion,
           params, cfg) -> Tensor:
    """cfg.n_encoder_layers x [temporal self-attn -> spatial cross-attn -> FFN]
    over the [V, H', W', C'] camera features, each residual + layer-normed; the
    history, if any, is aligned by ``motion`` once for every layer.  Returns the
    [bev_h*bev_w, D] grid, which doubles as the next timestep's history."""
    spec = BEVGridSpec(cfg.bev_h, cfg.bev_w, cfg.bev_x_min, cfg.bev_x_max,
                       cfg.bev_y_min, cfg.bev_y_max)
    pos = _p(params, "bev/pos")
    x = _p(params, "bev/query")
    if history is not None:
        if history.shape != x.shape:
            raise T.DimensionError(f"history grid {history.shape} != current grid {x.shape}")
        history = warp_history(history, motion, spec)
    zs = pillar_heights(cfg.n_pillar_heights)
    for i in range(cfg.n_encoder_layers):
        p = f"enc{i}"
        x = temporal_self_attention(x, pos, history, spec, params, p + "/tsa",
                                    cfg.n_heads, cfg.n_sample_points)
        x = run_layer_norm(x, params, p + "/ln0")
        x = spatial_cross_attention(x, pos, pv_features, cameras, spec, zs, params, p + "/sca",
                                    cfg.n_heads, cfg.n_sample_points)
        x = run_layer_norm(x, params, p + "/ln1")
        x = run_layer_norm(T.add(x, run_ffn(x, params, p + "/ffn")), params, p + "/ln2")
    return x
