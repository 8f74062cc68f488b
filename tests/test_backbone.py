import numpy as np
import pytest

from lanebev import backbone as B
from lanebev import tensor as T


def feature_shape(cfg):
    """(C, H, W) of the backbone output, read off the layer plan."""
    last = B.build_plan(cfg).stages[-1][-1].convs[-1]
    return (B.feature_channels(cfg), last.h_out, last.w_out)


TOY = B.BackboneConfig("basic", (1, 1, 1, 1), 8, (1, 2, 2, 4), (3, 64, 96), stem_kind="toy")


def test_flops_single_conv():
    cfg = B.ConvSpec("c", 2, 3, 1, 1, 1, 0, 4, 4)
    assert 2 * cfg.macs == 192


def test_flops_depth50_shape():
    macs = B.count_macs(B.BACKBONE_PRESETS["resnet50-shape"])
    assert abs(macs - 3.8e9) / 3.8e9 < 0.15


def test_flops_depth18_shape():
    macs = B.count_macs(B.BACKBONE_PRESETS["resnet18-shape"])
    assert abs(macs - 1.8e9) / 1.8e9 < 0.15


def test_flops_ratio():
    r = B.count_macs(B.BACKBONE_PRESETS["resnet50-shape"]) / B.count_macs(B.BACKBONE_PRESETS["resnet18-shape"])
    assert 1.9 <= r <= 2.3


def test_flops_convention_factor():
    cfg = B.BACKBONE_PRESETS["resnet18-shape"]
    assert B.count_flops(cfg) == 2 * B.count_macs(cfg)
    assert sum(f for _, f in B.flops_table(cfg)) == B.count_flops(cfg)


def test_toy_feature_shape(rng):
    params = B.init_backbone_params(TOY, rng)
    frame = [rng.uniform(0, 1, (3, 64, 96)) for _ in range(7)]
    feats = B.extract_features(frame, TOY, params)
    cf = B.feature_channels(TOY)
    assert feats.shape == (7, 4, 6, cf)
    assert feature_shape(TOY) == (cf, 4, 6)


def test_weight_sharing_identical_views(rng):
    params = B.init_backbone_params(TOY, rng)
    img = rng.uniform(0, 1, (3, 64, 96))
    feats = B.extract_features([img] * 7, TOY, params)
    for f in feats[1:]:
        assert np.array_equal(f.data, feats[0].data)


def test_zero_input_zero_features(rng):
    params = B.init_backbone_params(TOY, rng)
    feats = B.extract_features([np.zeros((3, 64, 96))] * 7, TOY, params)
    assert np.abs(feats[0].data).max() == 0.0


def test_shape_mismatch_names_view(rng):
    params = B.init_backbone_params(TOY, rng)
    imgs = [np.zeros((3, 64, 96))] * 7
    imgs[3] = np.zeros((3, 32, 96))
    with pytest.raises(T.DimensionError, match="view 3"):
        B.extract_features(imgs, TOY, params)


def test_view_permutation_equivariance(rng):
    params = B.init_backbone_params(TOY, rng)
    imgs = [rng.uniform(0, 1, (3, 64, 96)) for _ in range(7)]
    perm = rng.permutation(7)
    feats = B.extract_features(imgs, TOY, params)
    feats_p = B.extract_features([imgs[i] for i in perm], TOY, params)
    for j, i in enumerate(perm):
        assert np.array_equal(feats_p[j].data, feats[i].data)


def test_residual_block_identity_with_zero_final_conv(rng):
    # same-shape block (stage 0 block 1 of the "toy" preset has no downsample)
    cfg = B.BACKBONE_PRESETS["toy"]
    params = B.init_backbone_params(cfg, rng)
    plan = B.build_plan(cfg)
    block = plan.stages[0][1]
    assert block.downsample is None
    last = block.convs[-1].name
    params[last + "/w"] = np.zeros_like(params[last + "/w"])
    params[last + "/b"] = np.zeros_like(params[last + "/b"])
    x = T.Tensor(rng.standard_normal((8, 8, 12)))
    out = B._run_block(x, block, params)
    assert np.allclose(out.data, x.data)


def test_forward_records_one_op_per_conv(rng, monkeypatch):
    # each conv owns its bias: no bias add or reshape on the tape, and the
    # only adds are the residual sums, one per block
    recorded = []
    record = T.Tape._record
    monkeypatch.setattr(T.Tape, "_record", lambda tape, fn, out: (
        recorded.append(fn.__qualname__.split(".")[0]), record(tape, fn, out)))
    tape = T.Tape()
    params = {k: tape.leaf(v) for k, v in B.init_backbone_params(TOY, rng).items()}
    B.run_backbone(T.Tensor(rng.uniform(0, 1, (2, 3, 64, 96))), TOY, params)
    plan = B.build_plan(TOY)
    blocks = [b for stage in plan.stages for b in stage]
    assert recorded.count("conv2d") == len(plan.stem) + sum(
        len(b.convs) + (b.downsample is not None) for b in blocks)
    assert recorded.count("add") == len(blocks)
    assert "reshape" not in recorded


def test_determinism(rng):
    params = B.init_backbone_params(TOY, np.random.default_rng(3))
    imgs = [np.random.default_rng(9).uniform(0, 1, (3, 64, 96)) for _ in range(7)]
    a = B.extract_features(imgs, TOY, params)
    b = B.extract_features(imgs, TOY, params)
    assert np.array_equal(a[0].data, b[0].data)


def test_full_stem_forward_runs(rng):
    cfg = B.BackboneConfig("bottleneck", (1, 1, 1, 1), 4, (1, 2, 4, 8), (3, 64, 64))
    params = B.init_backbone_params(cfg, rng)
    out = B.run_backbone(T.Tensor(rng.uniform(0, 1, (1, 3, 64, 64))), cfg, params)
    assert out.shape == (1, B.feature_channels(cfg), 2, 2)
