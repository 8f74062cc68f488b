"""Residual convolutional feature extractor and analytic FLOPs accounting.

The network is a pre-activation residual net: each block computes
``x + f(x)`` with ``f`` ending in a convolution, so zero-initializing that
final convolution makes the block an exact identity.  A single layer plan
(built from the config) drives parameter initialization, the forward pass,
and the FLOPs counter, so the three can never drift apart.

FLOPs counting: convolutions and linear layers only, one multiply-accumulate
counted as 2 floating-point operations.  The published magnitudes for the
depth-50 / depth-18 shapes (3.8e9 / 1.8e9 at 224x224) were stated in
multiply-accumulate units; ``count_macs`` reproduces them directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .dataset import IMAGE_HEIGHT, IMAGE_WIDTH
from .tensor import Tensor


class ConfigError(ValueError):
    """Invalid architecture configuration."""


BOTTLENECK_EXPANSION = 4


@dataclass(frozen=True)
class BackboneConfig:
    block_kind: str  # "basic" | "bottleneck"
    stage_block_counts: tuple[int, int, int, int]
    stem_channels: int
    stage_channel_multipliers: tuple[int, int, int, int]
    input_shape: tuple[int, int, int]  # (C, H, W)
    stem_kind: str = "full"  # "full": 7x7/2 conv + 3x3/2 maxpool; "toy": 3x3/2 conv

    def __post_init__(self):
        if self.block_kind not in ("basic", "bottleneck"):
            raise ConfigError(f"unknown block kind {self.block_kind!r}")
        if self.stem_kind not in ("full", "toy"):
            raise ConfigError(f"unknown stem kind {self.stem_kind!r}")
        if len(self.stage_block_counts) != 4 or any(n < 1 for n in self.stage_block_counts):
            raise ConfigError(f"need 4 positive stage block counts, got {self.stage_block_counts}")


_TOY_INPUT = (1, IMAGE_HEIGHT, IMAGE_WIDTH)   # one grey camera image of a generated scene
BACKBONE_PRESETS = {
    # full-resolution shapes used for FLOPs accounting only
    "resnet50-shape": BackboneConfig("bottleneck", (3, 4, 6, 3), 64, (1, 2, 4, 8), (3, 224, 224)),
    "resnet18-shape": BackboneConfig("basic", (2, 2, 2, 2), 64, (1, 2, 4, 8), (3, 224, 224)),
    # desk-scale training backbones
    "toy": BackboneConfig("basic", (2, 2, 2, 2), 8, (1, 2, 2, 4), _TOY_INPUT, stem_kind="toy"),
    "toy-shallow": BackboneConfig("basic", (1, 1, 1, 1), 8, (1, 2, 2, 4), _TOY_INPUT, stem_kind="toy"),
}


@dataclass(frozen=True)
class ConvSpec:
    name: str
    c_in: int
    c_out: int
    kh: int
    kw: int
    stride: int
    pad: int
    h_out: int
    w_out: int

    @property
    def macs(self) -> int:
        return self.c_out * self.c_in * self.kh * self.kw * self.h_out * self.w_out


@dataclass(frozen=True)
class BlockSpec:
    convs: tuple[ConvSpec, ...]          # main path, in order
    downsample: ConvSpec | None          # 1x1 projection when shape changes


@dataclass(frozen=True)
class BackbonePlan:
    stem: tuple[ConvSpec, ...]
    stem_pool: bool
    stages: tuple[tuple[BlockSpec, ...], ...]

    def all_convs(self):
        yield from self.stem
        for stage in self.stages:
            for block in stage:
                yield from block.convs
                if block.downsample is not None:
                    yield block.downsample


def build_plan(cfg: BackboneConfig) -> BackbonePlan:
    c, h, w = cfg.input_shape
    if cfg.stem_kind == "full":
        h1, w1 = T.conv_out_dim(h, 7, 2, 3), T.conv_out_dim(w, 7, 2, 3)
        stem = (ConvSpec("stem/conv", c, cfg.stem_channels, 7, 7, 2, 3, h1, w1),)
        h, w = T.conv_out_dim(h1, 3, 2, 1), T.conv_out_dim(w1, 3, 2, 1)
        pool = True
    else:
        h, w = T.conv_out_dim(h, 3, 2, 1), T.conv_out_dim(w, 3, 2, 1)
        stem = (ConvSpec("stem/conv", c, cfg.stem_channels, 3, 3, 2, 1, h, w),)
        pool = False

    expansion = BOTTLENECK_EXPANSION if cfg.block_kind == "bottleneck" else 1
    c_prev = cfg.stem_channels
    stages = []
    for s, (count, mult) in enumerate(zip(cfg.stage_block_counts, cfg.stage_channel_multipliers)):
        width = cfg.stem_channels * mult
        c_out = width * expansion
        blocks = []
        for b in range(count):
            stride = 2 if (s > 0 and b == 0) else 1
            h, w = T.conv_out_dim(h, 1, stride, 0), T.conv_out_dim(w, 1, stride, 0)
            prefix = f"stage{s}/block{b}"
            if cfg.block_kind == "bottleneck":
                # stride taken by the first 1x1 (original downsampling placement)
                convs = (
                    ConvSpec(f"{prefix}/conv0", c_prev, width, 1, 1, stride, 0, h, w),
                    ConvSpec(f"{prefix}/conv1", width, width, 3, 3, 1, 1, h, w),
                    ConvSpec(f"{prefix}/conv2", width, c_out, 1, 1, 1, 0, h, w),
                )
            else:
                convs = (
                    ConvSpec(f"{prefix}/conv0", c_prev, width, 3, 3, stride, 1, h, w),
                    ConvSpec(f"{prefix}/conv1", width, c_out, 3, 3, 1, 1, h, w),
                )
            downsample = None
            if stride != 1 or c_prev != c_out:
                downsample = ConvSpec(f"{prefix}/down", c_prev, c_out, 1, 1, stride, 0, h, w)
            blocks.append(BlockSpec(convs, downsample))
            c_prev = c_out
        stages.append(tuple(blocks))
    return BackbonePlan(stem, pool, tuple(stages))


def feature_channels(cfg: BackboneConfig) -> int:
    expansion = BOTTLENECK_EXPANSION if cfg.block_kind == "bottleneck" else 1
    return cfg.stem_channels * cfg.stage_channel_multipliers[-1] * expansion


def init_backbone_params(cfg: BackboneConfig, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Kaiming fan-in initialization for every conv in the plan."""
    params = {}
    for spec in build_plan(cfg).all_convs():
        fan_in = spec.c_in * spec.kh * spec.kw
        scale = np.sqrt(2.0 / fan_in)
        params[spec.name + "/w"] = rng.standard_normal(
            (spec.c_out, spec.c_in, spec.kh, spec.kw)) * scale
        params[spec.name + "/b"] = np.zeros(spec.c_out)
    return params


def _run_conv(x, spec: ConvSpec, params):
    w = T._as_tensor(params[spec.name + "/w"])
    b = T._as_tensor(params[spec.name + "/b"])
    return T.conv2d(x, w, b, stride=spec.stride, padding=spec.pad)


def _run_block(x, block: BlockSpec, params):
    h = x
    for spec in block.convs:
        h = _run_conv(T.relu(h), spec, params)
    shortcut = x
    if block.downsample is not None:
        shortcut = _run_conv(T.relu(x), block.downsample, params)
    return T.add(shortcut, h)


def run_backbone(x: Tensor, cfg: BackboneConfig, params) -> Tensor:
    """Forward an image batch [N,C,H,W] (or one image [C,H,W]) to features."""
    plan = build_plan(cfg)
    h = x
    for spec in plan.stem:
        h = _run_conv(h, spec, params)
    if plan.stem_pool:
        h = T.max_pool2d(h, 3, 2, padding=1)
    for stage in plan.stages:
        for block in stage:
            h = _run_block(h, block, params)
    return T.relu(h)


def extract_features(images, cfg: BackboneConfig, params) -> Tensor:
    """Apply the shared backbone to the camera images of one frame.

    images: a sequence of per-view [C,H,W] arrays, or a stacked [V,C,H,W]
    array.  Returns the views' feature maps as one channel-last
    [V,H',W',C'] stack, in view order.
    """
    arrs = [np.asarray(im) for im in images]
    for i, a in enumerate(arrs):
        if tuple(a.shape) != tuple(cfg.input_shape):
            raise T.DimensionError(
                f"view {i}: image shape {a.shape} does not match configured {cfg.input_shape}")
    return T.transpose(run_backbone(Tensor(np.stack(arrs)), cfg, params), (0, 2, 3, 1))


def count_macs(cfg: BackboneConfig) -> int:
    """Total multiply-accumulates over all convolutions in the plan."""
    return sum(spec.macs for spec in build_plan(cfg).all_convs())


def count_flops(cfg: BackboneConfig) -> int:
    """Analytic FLOPs (2 per MAC): convs (and linears) only, pooling/activation excluded."""
    return 2 * count_macs(cfg)


def flops_table(cfg: BackboneConfig) -> list[tuple[str, int]]:
    """Per-layer (name, flops) rows in plan order."""
    return [(spec.name, 2 * spec.macs) for spec in build_plan(cfg).all_convs()]
