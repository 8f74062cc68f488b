import itertools

import numpy as np
import pytest

from lanebev import bev_encoder as E
from lanebev import dataset as D
from lanebev import tensor as T
from lanebev.backbone import ConfigError
from lanebev.config import ConfigFileError, ExperimentConfig
from test_dataset import project


def inverse_motion(motion):
    """The rigid transform that undoes motion."""
    t = -motion.matrix().T @ np.array([motion.dx, motion.dy])
    return E.EgoMotion(float(t[0]), float(t[1]), -motion.dyaw)


def small_spec():
    return E.BEVGridSpec(4, 3, -8.0, 8.0, -6.0, 6.0)


def make_da_params(rng, dim=8, c=5, heads=2, k=3, prefix="da"):
    params = {}
    E.init_deform_attn(params, prefix, dim, c, heads, k, rng)
    return params


def attend(queries, ref_points, value_map, params, prefix, heads, k):
    """Deformable attention of every query over one map."""
    return E.deformable_attention(queries, T.reshape(value_map, (1, *value_map.shape)),
                                  [(0, slice(None), ref_points)], params, prefix, heads, k)


def dense_deform_attn_oracle(q, refs, vmap, params, prefix, heads, k):
    """Directly-coded evaluation of the sampling formula, loops everywhere."""
    n, dim = q.shape
    c, h, w = vmap.shape
    d_head = dim // heads
    value = vmap.reshape(c, h * w).T @ params[prefix + "/value/w"] + params[prefix + "/value/b"]
    value = value.reshape(h, w, dim)
    offs = (q @ params[prefix + "/offset/w"] + params[prefix + "/offset/b"]).reshape(n, heads, k, 2)
    logits = (q @ params[prefix + "/logit/w"] + params[prefix + "/logit/b"]).reshape(n, heads, k)
    out = np.zeros((n, dim))
    for i in range(n):
        mixed = []
        for hd in range(heads):
            ex = np.exp(logits[i, hd] - logits[i, hd].max())
            attn = ex / ex.sum()
            acc = np.zeros(d_head)
            for kk in range(k):
                u, v = refs[i] + offs[i, hd, kk]
                acc += attn[kk] * bilinear_oracle(value[:, :, hd * d_head:(hd + 1) * d_head], u, v)
            mixed.append(acc)
        out[i] = np.concatenate(mixed) @ params[prefix + "/out/w"] + params[prefix + "/out/b"]
    return out


def bilinear_oracle(value_hw_c, u, v):
    h, w, c = value_hw_c.shape
    if not (0 <= u <= 1 and 0 <= v <= 1):
        return np.zeros(c)
    x = u * w - 0.5
    y = v * h - 0.5
    x0, y0 = int(np.floor(x)), int(np.floor(y))
    wx, wy = x - x0, y - y0
    acc = np.zeros(c)
    for dy in (0, 1):
        for dx in (0, 1):
            xi, yi = x0 + dx, y0 + dy
            if 0 <= xi < w and 0 <= yi < h:
                wgt = (wx if dx else 1 - wx) * (wy if dy else 1 - wy)
                acc += wgt * value_hw_c[yi, xi]
    return acc


def test_deform_attn_matches_dense_oracle(rng):
    heads, k, dim, c = 1, 3, 8, 5
    params = make_da_params(rng, dim, c, heads, k)
    params["da/offset/w"] = rng.standard_normal((dim, heads * k * 2)) * 0.1
    params["da/logit/w"] = rng.standard_normal((dim, heads * k))
    q = rng.standard_normal((2, dim))
    refs = rng.uniform(0.1, 0.9, (2, 2))
    vmap = rng.standard_normal((c, 4, 4))
    got = attend(T.Tensor(q), refs, T.Tensor(vmap.transpose(1, 2, 0)), params, "da", heads, k)
    want = dense_deform_attn_oracle(q, refs, vmap, params, "da", heads, k)
    assert np.abs(got.data - want).max() / max(np.abs(want).max(), 1e-12) < 1e-10


def test_deform_attn_multihead_oracle(rng):
    heads, k, dim, c = 4, 2, 16, 6
    params = make_da_params(rng, dim, c, heads, k)
    params["da/offset/w"] = rng.standard_normal((dim, heads * k * 2)) * 0.05
    params["da/logit/w"] = rng.standard_normal((dim, heads * k))
    q = rng.standard_normal((5, dim))
    refs = rng.uniform(0.1, 0.9, (5, 2))
    vmap = rng.standard_normal((c, 6, 5))
    got = attend(T.Tensor(q), refs, T.Tensor(vmap.transpose(1, 2, 0)), params, "da", heads, k)
    want = dense_deform_attn_oracle(q, refs, vmap, params, "da", heads, k)
    assert np.abs(got.data - want).max() / np.abs(want).max() < 1e-10


def test_deform_attn_collapse_to_single_cell(rng):
    heads, k, dim, c = 1, 3, 8, 5
    params = make_da_params(rng, dim, c, heads, k)
    params["da/offset/b"] = np.zeros(heads * k * 2)   # sample exactly at ref
    params["da/logit/b"] = np.array([50.0, 0.0, 0.0])  # all weight on point 0
    vmap = rng.standard_normal((c, 4, 4))
    # ref at cell (row 1, col 2) center
    refs = np.array([[2.5 / 4, 1.5 / 4]])
    q = rng.standard_normal((1, dim))
    got = attend(T.Tensor(q), refs, T.Tensor(vmap.transpose(1, 2, 0)), params, "da", heads, k)
    cell = vmap[:, 1, 2] @ params["da/value/w"] + params["da/value/b"]
    want = cell @ params["da/out/w"] + params["da/out/b"]
    assert np.abs(got.data[0] - want).max() < 1e-10


def test_deform_attn_outside_refs_zero_pre_projection(rng):
    heads, k, dim, c = 2, 2, 8, 5
    params = make_da_params(rng, dim, c, heads, k)
    params["da/offset/b"] = np.zeros(heads * k * 2)
    refs = np.array([[-0.3, 0.5], [1.4, 2.0]])
    q = rng.standard_normal((2, dim))
    got = attend(T.Tensor(q), refs, T.Tensor(rng.standard_normal((c, 4, 4)).transpose(1, 2, 0)),
                 params, "da", heads, k)
    want = np.broadcast_to(params["da/out/b"], (2, dim))  # zero mixed features
    assert np.abs(got.data - want).max() < 1e-12


def test_deform_attn_sample_point_permutation_invariance(rng):
    heads, k, dim, c = 1, 4, 8, 3
    params = make_da_params(rng, dim, c, heads, k)
    params["da/offset/w"] = rng.standard_normal((dim, k * 2)) * 0.1
    params["da/logit/w"] = rng.standard_normal((dim, k))
    q = rng.standard_normal((3, dim))
    refs = rng.uniform(0.2, 0.8, (3, 2))
    vmap = rng.standard_normal((c, 5, 5))
    base = attend(T.Tensor(q), refs, T.Tensor(vmap.transpose(1, 2, 0)), params, "da", heads, k)
    perm = rng.permutation(k)
    p2 = dict(params)
    ow = params["da/offset/w"].reshape(dim, k, 2)
    ob = params["da/offset/b"].reshape(k, 2)
    p2["da/offset/w"] = ow[:, perm, :].reshape(dim, k * 2)
    p2["da/offset/b"] = ob[perm].reshape(-1)
    p2["da/logit/w"] = params["da/logit/w"][:, perm]
    p2["da/logit/b"] = params["da/logit/b"][perm]
    permuted = attend(T.Tensor(q), refs, T.Tensor(vmap.transpose(1, 2, 0)), p2, "da", heads, k)
    assert np.allclose(base.data, permuted.data, atol=1e-12)


def sample_weight_sum_oracle(queries, ref_points, value_map, params, prefix, n_heads, n_points):
    """Deformable attention with the weighting as separate taped ops: sample
    every point, multiply the [N, K, heads, d_head] samples by the attention
    weights and sum over K."""
    n, dim = queries.shape
    d_head = dim // n_heads
    h, w, c = value_map.shape
    value = E.run_linear(T.reshape(value_map, (h * w, c)), params, prefix + "/value")
    value_maps = T.reshape(value, (h, w, n_heads, d_head))
    offsets = T.reshape(E.run_linear(queries, params, prefix + "/offset"),
                        (n, n_heads * n_points, 2))
    sample_pts = T.add(T.reshape(T.Tensor(ref_points), (n, 1, 2)), offsets)
    # one point per output row, so row r must sample head r % heads
    pts = T.transpose(T.reshape(sample_pts, (n, n_heads, n_points, 2)), (0, 2, 1, 3))
    logits = T.reshape(E.run_linear(queries, params, prefix + "/logit"), (n, n_heads, n_points))
    attn = T.transpose(T.softmax(logits, axis=-1), (0, 2, 1))
    sampled = T.bilinear_sample(value_maps, T.reshape(pts, (n * n_points * n_heads, 2)))
    sampled = T.reshape(sampled, (n, n_points, n_heads, d_head))
    weighted = T.tsum(T.mul(sampled, T.reshape(attn, (n, n_points, n_heads, 1))), axis=1)
    mixed = T.reshape(weighted, (n, dim))
    return E.run_linear(mixed, params, prefix + "/out")


def _random_da_arrays(rng, n, dim, c, heads, k, hw=(4, 5)):
    params = make_da_params(rng, dim, c, heads, k)
    for name in ("offset", "logit"):
        params[f"da/{name}/w"] = rng.standard_normal(params[f"da/{name}/w"].shape) * 0.1
        params[f"da/{name}/b"] = rng.standard_normal(params[f"da/{name}/b"].shape) * 0.2
    return params, {"q": rng.standard_normal((n, dim)),
                    "vmap": rng.standard_normal((c,) + hw).transpose(1, 2, 0), **params}


def test_deform_attn_matches_sample_weight_sum_oracle(rng):
    heads, k, dim, c, n = 2, 3, 8, 5, 9
    params, arrays = _random_da_arrays(rng, n, dim, c, heads, k)
    refs = rng.uniform(0.05, 0.95, (n, 2))
    weight = rng.standard_normal((n, dim))

    def run(attend):
        tape = T.Tape()
        leaves = {name: tape.leaf(a) for name, a in arrays.items()}
        out = attend(leaves["q"], refs, leaves["vmap"], {p: leaves[p] for p in params},
                     "da", heads, k)
        tape.backward(T.tsum(T.mul(out, T.Tensor(weight))))
        return out.data, {name: t.grad for name, t in leaves.items()}

    got, got_grads = run(attend)
    want, want_grads = run(sample_weight_sum_oracle)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    assert set(got_grads) == set(arrays)
    for name, g in want_grads.items():
        assert np.abs(got_grads[name] - g).max() <= 1e-12 * np.abs(g).max(), name


def test_deform_attn_records_one_fused_sampling_op(rng, monkeypatch):
    recorded = []
    record = T.Tape._record

    def spy(tape, backward_fn, *args, **kwargs):
        recorded.append(backward_fn.__qualname__.split(".<locals>")[0])
        return record(tape, backward_fn, *args, **kwargs)

    monkeypatch.setattr(T.Tape, "_record", spy)
    heads, k, dim, c, n = 2, 3, 8, 5, 4
    params, arrays = _random_da_arrays(rng, n, dim, c, heads, k)
    tape = T.Tape()
    leaves = {name: tape.leaf(a) for name, a in arrays.items()}
    attend(leaves["q"], rng.uniform(0.2, 0.8, (n, 2)), leaves["vmap"],
           {p: leaves[p] for p in params}, "da", heads, k)
    assert recorded.count("bilinear_sample") == 1
    assert "mul" not in recorded and "tsum" not in recorded
    assert "transpose" not in recorded
    assert "concat" not in recorded     # one view's sample goes to the projection as is


def test_deform_attn_head_divisibility():
    params = make_da_params(np.random.default_rng(0), 8, 4, 2, 2)
    with pytest.raises(ConfigError):
        attend(T.Tensor(np.zeros((2, 9))), np.zeros((2, 2)), T.Tensor(np.zeros((3, 3, 4))),
               params, "da", 2, 2)


# -- warping --

def test_warp_identity_motion(rng):
    spec = small_spec()
    emb = rng.standard_normal((spec.h * spec.w, 4))
    warped = E.warp_history(T.Tensor(emb), E.EgoMotion(), spec)
    assert np.allclose(warped.data, emb, atol=1e-12)


def test_warp_90deg_yaw_symmetric_pattern():
    # square grid + rotationally symmetric pattern about the grid center
    spec = E.BEVGridSpec(5, 5, -5.0, 5.0, -5.0, 5.0)
    centers = spec.cell_centers()
    pattern = (centers[:, 0] ** 2 + centers[:, 1] ** 2)[:, None]
    warped = E.warp_history(T.Tensor(pattern), E.EgoMotion(0.0, 0.0, np.pi / 2), spec)
    assert np.allclose(warped.data, pattern, atol=1e-9)


def test_warp_matches_per_cell_oracle(rng):
    spec = small_spec()
    emb = rng.standard_normal((spec.h * spec.w, 3))
    motion = E.EgoMotion(0.7, -0.4, 0.1)
    warped = E.warp_history(T.Tensor(emb), motion, spec)
    value = emb.reshape(spec.h, spec.w, 3)
    rot = motion.matrix()
    for idx, c in enumerate(spec.cell_centers()):
        prev = rot.T @ (c - np.array([motion.dx, motion.dy]))
        uv = spec.normalize(prev[None])[0]
        want = bilinear_oracle(value, uv[0], uv[1])
        assert np.abs(warped.data[idx] - want).max() < 1e-10


def test_warp_roundtrip_smooth_grid(rng):
    spec = E.BEVGridSpec(20, 20, -10.0, 10.0, -10.0, 10.0)
    centers = spec.cell_centers()
    emb = np.sin(centers[:, :1] * 0.3) + np.cos(centers[:, 1:] * 0.25)
    motion = E.EgoMotion(0.8, -0.5, 0.15)
    fwd = E.warp_history(T.Tensor(emb), motion, spec)
    back = E.warp_history(fwd, inverse_motion(motion), spec)
    # interior cells only: border cells lose data to the zero boundary
    interior = (np.abs(centers) < 4.5).all(axis=1)
    rng_val = emb.max() - emb.min()
    assert np.abs(back.data[interior] - emb[interior]).max() < 0.05 * rng_val


def test_tsa_history_equals_current_identity(rng):
    spec = small_spec()
    dim = 8
    params = {}
    E.init_deform_attn(params, "tsa", dim, dim, 2, 2, rng)
    emb = rng.standard_normal((spec.h * spec.w, dim))
    bev, hist, pos = T.Tensor(emb), T.Tensor(emb.copy()), T.Tensor(np.zeros_like(emb))
    # with identity motion the warped history must equal the current grid, so
    # attending over (current, history) averages two identical branches
    solo = E.temporal_self_attention(bev, pos, None, spec, params, "tsa", 2, 2)
    both = E.temporal_self_attention(bev, pos, E.warp_history(hist, E.EgoMotion(), spec), spec,
                                     params, "tsa", 2, 2)
    assert np.allclose(solo.data, both.data, atol=1e-12)


def two_call_tsa_oracle(bev, query_pos, history, spec, params, prefix, n_heads, n_points):
    """TSA as the mean of two attentions: one over the current grid, one over
    the aligned history."""
    refs = spec.normalize(spec.cell_centers())
    q = T.add(bev, query_pos)
    outs = [attend(q, refs, T.reshape(rows, (spec.h, spec.w, -1)), params, prefix, n_heads,
                   n_points) for rows in (bev, history)]
    return T.add(bev, T.mul(T.add(*outs), T.Tensor(0.5)))


def test_tsa_matches_two_call_oracle(rng):
    spec = small_spec()
    dim, heads, k = 8, 2, 3
    params = make_da_params(rng, dim, dim, heads, k, prefix="tsa")
    params["tsa/offset/w"] = rng.standard_normal((dim, heads * k * 2)) * 0.05
    params["tsa/logit/w"] = rng.standard_normal((dim, heads * k))
    arrays = {"emb": rng.standard_normal((spec.h * spec.w, dim)),
              "hist": rng.standard_normal((spec.h * spec.w, dim)),
              "pos": rng.standard_normal((spec.h * spec.w, dim)) * 0.1, **params}
    weight = rng.standard_normal((spec.h * spec.w, dim))
    motion = E.EgoMotion(1.3, -0.6, 0.12)

    def run(tsa):
        tape = T.Tape()
        leaves = {name: tape.leaf(a) for name, a in arrays.items()}
        p = {name: leaves[name] for name in params}
        aligned = E.warp_history(leaves["hist"], motion, spec)
        out = tsa(leaves["emb"], leaves["pos"], aligned, spec, p, "tsa", heads, k)
        tape.backward(T.tsum(T.mul(out, T.Tensor(weight))))
        return out.data, {name: t.grad for name, t in leaves.items()}

    got, got_grads = run(E.temporal_self_attention)
    want, want_grads = run(two_call_tsa_oracle)
    assert np.abs(got - want).max() / np.abs(want).max() < 1e-12
    for name, g in want_grads.items():
        assert np.abs(got_grads[name] - g).max() / np.abs(g).max() < 1e-12, name


def test_tsa_with_history_attends_once(rng, count_calls):
    spec = small_spec()
    params = make_da_params(rng, 8, 8, 2, 2, prefix="tsa")
    bev = T.Tensor(rng.standard_normal((12, 8)))
    hist = T.Tensor(rng.standard_normal((12, 8)))
    pos = T.Tensor(np.zeros((12, 8)))
    counts = count_calls(E, "deformable_attention")
    E.temporal_self_attention(bev, pos, E.warp_history(hist, E.EgoMotion(0.5, 0.2, 0.1), spec),
                              spec, params, "tsa", 2, 2)
    assert counts["bev_encoder.deformable_attention"] == 1


def test_tsa_grid_mismatch():
    spec = small_spec()
    params = {}
    E.init_deform_attn(params, "tsa", 8, 8, 2, 2, np.random.default_rng(0))
    bev = T.Tensor(np.zeros((12, 8)))
    hist = T.Tensor(np.zeros((10, 8)))     # a history grid of another size
    with pytest.raises(T.DimensionError):
        E.temporal_self_attention(bev, T.Tensor(np.zeros((12, 8))), hist, spec, params, "tsa",
                                  2, 2)


# -- spatial cross-attention --

def overhead_camera(spec):
    """Camera looking straight down, seeing the whole extent."""
    # optical axis along -z: right = +y(ego left? choose right = (0,-1,0)), down = +x
    r = np.array([[0.0, -1.0, 0.0],
                  [1.0, 0.0, 0.0],
                  [0.0, 0.0, -1.0]])
    pos = np.array([0.0, 0.0, 60.0])
    return D.Camera("overhead", 60.0, 60.0, 48.0, 32.0, r, -r @ pos, 96, 64)


def test_sca_overhead_camera_full_hits():
    spec = small_spec()
    cam = overhead_camera(spec)
    refs, hits = E.projected_references(spec, [cam], E.pillar_heights(4))
    assert hits[0].all()


def test_sca_hit_mask_matches_projection_oracle(rng):
    """Row n*Z + zi of every camera is cell n at height zs[zi]."""
    spec = E.BEVGridSpec(2, 2, -4.0, 4.0, -4.0, 4.0)
    cams = D.build_camera_rig()
    zs = np.array([1.0, -1.0, 2.0])
    refs, hits = E.projected_references(spec, cams, zs)
    for ci, cam in enumerate(cams):
        for n, ((x, y), zz) in enumerate(itertools.product(spec.cell_centers(), zs)):
            got = project((x, y, zz), cam)
            assert hits[ci][n] == (got is not None)
            if got is not None:
                u, v = got
                assert np.allclose(refs[ci][n], [u / cam.width, v / cam.height])


def test_sca_zero_hit_cells_pass_through(rng):
    spec = small_spec()
    dim = 8
    params = {}
    E.init_deform_attn(params, "sca", dim, 6, 2, 2, rng)
    cams = D.build_camera_rig()
    # narrow front camera only: cells behind the ego get no hits
    cam = cams[6]
    feats = T.Tensor(rng.standard_normal((6, 4, 6)).transpose(1, 2, 0)[None])
    emb = rng.standard_normal((spec.h * spec.w, dim))
    out = E.spatial_cross_attention(T.Tensor(emb), T.Tensor(np.zeros_like(emb)), feats, [cam],
                                    spec, E.pillar_heights(4), params, "sca", 2, 2)
    refs, hits = E.projected_references(spec, [cam], E.pillar_heights(4))
    per_cell = hits[0].reshape(-1, 4).any(axis=1)
    assert (~per_cell).any(), "expected some unseen cells behind the ego"
    assert np.array_equal(out.data[~per_cell], emb[~per_cell])
    assert not np.allclose(out.data[per_cell], emb[per_cell])


def test_sca_degenerate_rig(rng):
    spec = small_spec()
    params = {}
    E.init_deform_attn(params, "sca", 8, 6, 2, 2, rng)
    # camera at 60 m looking straight up: every pillar point is behind it
    r = np.array([[0.0, 1.0, 0.0],
                  [-1.0, 0.0, 0.0],
                  [0.0, 0.0, 1.0]])
    pos = np.array([0.0, 0.0, 60.0])
    sky_cam = D.Camera("up", 60.0, 60.0, 48.0, 32.0, r, -r @ pos, 96, 64)
    with pytest.raises(ConfigError, match="degenerate"):
        E.spatial_cross_attention(T.Tensor(np.zeros((12, 8))), T.Tensor(np.zeros((12, 8))),
                                  T.Tensor(np.zeros((1, 4, 6, 6))), [sky_cam], spec,
                                  E.pillar_heights(4), params, "sca", 2, 2)


def test_hit_masks_ignore_feature_values(rng):
    spec = small_spec()
    cams = D.build_camera_rig()
    zs = E.pillar_heights(4)
    _, h1 = E.projected_references(spec, cams, zs)
    _, h2 = E.projected_references(spec, cams, zs)
    for a, b in zip(h1, h2):
        assert np.array_equal(a, b)


def dense_sca_oracle(bev, query_pos, pv_features, cameras, spec, zs, params, prefix, n_heads,
                     n_points):
    """Spatial cross-attention over every (cell, height) query of every
    camera, with the misses multiplied by zero afterwards."""
    n, z = spec.h * spec.w, len(zs)
    refs, hits = E.projected_references(spec, cameras, zs)
    q = T.add(bev, query_pos)
    q_rep = q[np.repeat(np.arange(n), z)]                        # [N*Z, D]
    total = None
    counts = np.zeros(n * z)
    for cam_idx, mask in enumerate(hits):
        if not mask.any():
            continue
        out = attend(q_rep, refs[cam_idx], pv_features[cam_idx], params, prefix, n_heads, n_points)
        out = T.mul(out, T.Tensor(mask[:, None].astype(np.float64)))
        total = out if total is None else T.add(total, out)
        counts += mask
    denom = np.maximum(counts.reshape(n, z).sum(axis=1), 1.0)
    summed = T.tsum(T.reshape(total, (n, z, -1)), axis=1)
    return T.add(bev, T.mul(summed, T.Tensor((1.0 / denom)[:, None])))


def sky_camera():
    """Camera at 60 m looking straight up: every pillar point is behind it."""
    r = np.array([[0.0, 1.0, 0.0],
                  [-1.0, 0.0, 0.0],
                  [0.0, 0.0, 1.0]])
    return D.Camera("up", 60.0, 60.0, 48.0, 32.0, r, -r @ np.array([0.0, 0.0, 60.0]), 96, 64)


def partial_rig():
    """Narrow front camera, a camera that sees nothing, and one side camera."""
    cams = D.build_camera_rig()
    return [cams[6], sky_camera(), cams[2]]


@pytest.mark.parametrize("rig", [D.build_camera_rig, partial_rig])
def test_sca_hit_rows_match_dense_oracle(rig, rng):
    spec = small_spec()
    dim, c, heads, k = 8, 6, 2, 2
    cams = rig()
    zs = E.pillar_heights(4)
    params = make_da_params(rng, dim, c, heads, k, prefix="sca")
    params["sca/offset/w"] = rng.standard_normal((dim, heads * k * 2)) * 0.05
    params["sca/logit/w"] = rng.standard_normal((dim, heads * k))
    arrays = {"emb": rng.standard_normal((spec.h * spec.w, dim)),
              "pos": rng.standard_normal((spec.h * spec.w, dim)) * 0.1,
              **{f"feat{i}": rng.standard_normal((c, 4, 6)).transpose(1, 2, 0)
                 for i in range(len(cams))},
              **params}
    weight = rng.standard_normal((spec.h * spec.w, dim))

    def run(sca):
        tape = T.Tape()
        leaves = {name: tape.leaf(a) for name, a in arrays.items()}
        feats = T.stack([leaves[f"feat{i}"] for i in range(len(cams))])
        p = {name: leaves[name] for name in params}
        out = sca(leaves["emb"], leaves["pos"], feats, cams, spec, zs, p, "sca", heads, k)
        tape.backward(T.tsum(T.mul(out, T.Tensor(weight))))
        return out.data, {name: t.grad for name, t in leaves.items()}

    got, got_grads = run(E.spatial_cross_attention)
    want, want_grads = run(dense_sca_oracle)
    assert np.array_equal(got, want)
    for name, g in want_grads.items():
        if g is None:        # the camera that sees nothing
            assert got_grads[name] is None, name
            continue
        scale = max(np.abs(g).max(), 1e-300)
        assert np.abs(got_grads[name] - g).max() / scale < 1e-12, name


@pytest.mark.parametrize("rig", [D.build_camera_rig, partial_rig])
def test_sca_projects_offsets_and_weights_once(rig, rng, count_calls, monkeypatch):
    """One SCA call makes one deformable-attention call, which projects the
    offsets, logits, camera values and outputs once each, whatever the
    number of cameras."""
    spec = small_spec()
    cams = rig()
    params = make_da_params(rng, 8, 6, 2, 2, prefix="sca")
    feats = T.Tensor(np.stack([rng.standard_normal((4, 6, 6)) for _ in cams]))
    emb = rng.standard_normal((spec.h * spec.w, 8))
    projected = []
    run_linear = E.run_linear

    def spy(x, params, name):
        projected.append(name)
        return run_linear(x, params, name)

    monkeypatch.setattr(E, "run_linear", spy)
    counts = count_calls(E, "deformable_attention")
    E.spatial_cross_attention(T.Tensor(emb), T.Tensor(np.zeros_like(emb)), feats, cams, spec,
                              E.pillar_heights(4), params, "sca", 2, 2)
    assert counts["bev_encoder.deformable_attention"] == 1
    assert projected.count("sca/offset") == projected.count("sca/logit") == 1
    assert projected.count("sca/value") == projected.count("sca/out") == 1


@pytest.mark.parametrize("rig", [D.build_camera_rig, partial_rig])
def test_sca_scatters_once(rig, rng, monkeypatch):
    """One SCA call adds every camera's outputs into the slots with one
    recorded scatter_rows, whatever the number of cameras."""
    spec = small_spec()
    cams = rig()
    params = make_da_params(rng, 8, 6, 2, 2, prefix="sca")
    tape = T.Tape()
    feats = tape.leaf(rng.standard_normal((len(cams), 4, 6, 6)))
    emb = tape.leaf(rng.standard_normal((spec.h * spec.w, 8)))
    recorded = []
    record = T.Tape._record

    def spy(self, backward_fn, out):
        recorded.append(backward_fn.__qualname__.split(".")[0])
        record(self, backward_fn, out)

    monkeypatch.setattr(T.Tape, "_record", spy)
    E.spatial_cross_attention(emb, T.Tensor(np.zeros(emb.shape)), feats, cams, spec,
                              E.pillar_heights(4), params, "sca", 2, 2)
    assert recorded.count("scatter_rows") == 1


def test_sca_rejects_feature_stack_of_other_camera_count(rng):
    spec = small_spec()
    cams = D.build_camera_rig()
    params = make_da_params(rng, 8, 6, 2, 2, prefix="sca")
    feats = T.Tensor(rng.standard_normal((len(cams) - 1, 4, 6, 6)))
    with pytest.raises(T.DimensionError, match="6 feature maps vs 7 cameras"):
        E.spatial_cross_attention(T.Tensor(np.zeros((12, 8))), T.Tensor(np.zeros((12, 8))),
                                  feats, cams, spec, E.pillar_heights(4), params, "sca", 2, 2)


def test_projected_references_memo_tracks_rig_content():
    spec = small_spec()
    zs = E.pillar_heights(4)
    cams = D.build_camera_rig()
    refs, hits = E.projected_references(spec, cams, zs)
    assert E.projected_references(spec, D.build_camera_rig(), zs)[1] is hits
    for a in refs + hits:
        assert not a.flags.writeable
    with pytest.raises(ValueError):
        hits[0][0] = not hits[0][0]

    cams[3].t[2] += 3.0          # in place: the same Camera objects, a moved rig
    moved_refs, moved_hits = E.projected_references(spec, cams, zs)
    assert not np.array_equal(moved_refs[3], refs[3])
    E._REFERENCE_MEMO.clear()
    fresh_refs, fresh_hits = E.projected_references(spec, cams, zs)
    for a, b in zip(moved_refs + moved_hits, fresh_refs + fresh_hits):
        assert np.array_equal(a, b)


# -- encoder stack --

def enc_cfg(n_layers=3):
    return ExperimentConfig(embed_dim=16, n_heads=2, n_sample_points=2, ffn_dim=16,
                            n_encoder_layers=n_layers, bev_h=6, bev_w=4)


def init_enc(cfg, rng, c_feat=6):
    params = {}
    E.init_encoder_params(params, cfg, c_feat, rng)
    return params


def run_encode(cfg, params, rng, history=None):
    cams = D.build_camera_rig()
    feats = T.Tensor(np.stack([rng.standard_normal((6, 4, 6)).transpose(1, 2, 0)] * 7))
    return E.encode(feats, cams, history, E.EgoMotion(), params, cfg)


@pytest.mark.parametrize("n_layers", [2, 3, 4])
def test_encode_layer_counts(n_layers, rng, count_calls):
    cfg = enc_cfg(n_layers)
    params = init_enc(cfg, rng)
    counts = count_calls(E, "temporal_self_attention", "spatial_cross_attention", "run_ffn",
                         "warp_history")
    history = run_encode(cfg, params, np.random.default_rng(1))
    assert counts["bev_encoder.temporal_self_attention"] == n_layers
    assert counts["bev_encoder.spatial_cross_attention"] == n_layers
    assert counts["bev_encoder.run_ffn"] == n_layers
    assert counts["bev_encoder.warp_history"] == 0
    # with a history, every layer attends over the one grid aligned per encode
    run_encode(cfg, params, np.random.default_rng(2), history.detach())
    assert counts["bev_encoder.temporal_self_attention"] == 2 * n_layers
    assert counts["bev_encoder.warp_history"] == 1


def test_encode_rejects_history_of_another_shape(rng, count_calls):
    """A history with the grid's element count but another shape, which the
    warp's reshape would accept, is refused before any warp."""
    cfg = enc_cfg(2)
    params = init_enc(cfg, rng)
    counts = count_calls(E, "warp_history")
    with pytest.raises(T.DimensionError):
        run_encode(cfg, params, rng, T.Tensor(np.zeros((48, 8))))   # grid is [24, 16]
    assert counts["bev_encoder.warp_history"] == 0


def test_encode_deterministic(rng):
    cfg = enc_cfg(2)
    params = init_enc(cfg, rng)
    a = run_encode(cfg, params, np.random.default_rng(5))
    b = run_encode(cfg, params, np.random.default_rng(5))
    assert np.array_equal(a.data, b.data)


def test_encode_requires_positive_layers():
    """encode runs cfg.n_encoder_layers layers; the config rejects a count below 1."""
    with pytest.raises(ConfigFileError, match="at least one layer"):
        enc_cfg(0)
