"""Experiment configuration: one flat dataclass, named presets, and a
line-oriented ``key = value`` config-file format with override support."""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields, replace

from .backbone import BACKBONE_PRESETS
from .dataset import IMAGE_HEIGHT, IMAGE_WIDTH, X_MAX, X_MIN, Y_MAX, Y_MIN


class ConfigFileError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    # architecture
    backbone: str = "toy"
    embed_dim: int = 32
    n_heads: int = 4                 # deformable-attention heads
    n_sample_points: int = 4
    n_pillar_heights: int = 4
    ffn_dim: int = 64
    n_encoder_layers: int = 3
    n_decoder_layers: int = 6
    n_queries: int = 20
    n_points: int = 10               # P, polyline points per lane
    bev_h: int = 25
    bev_w: int = 13
    bev_x_min: float = X_MIN
    bev_x_max: float = X_MAX
    bev_y_min: float = Y_MIN
    bev_y_max: float = Y_MAX
    image_channels: int = 1
    image_height: int = IMAGE_HEIGHT
    image_width: int = IMAGE_WIDTH
    # loss
    lambda_cls: float = 2.0
    lambda_pts: float = 5.0
    lambda_bnd: float = 2.5
    background_weight: float = 0.1
    # optimization
    learning_rate: float = 2e-4
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    weight_decay: float = 0.01
    grad_clip: float = 35.0
    warmup_steps: int = 0
    epochs: int = 10
    seed: int = 0
    # io
    checkpoint_every: int = 2

    def __post_init__(self):
        if self.backbone not in BACKBONE_PRESETS:
            raise ConfigFileError(
                f"unknown backbone {self.backbone!r}; valid: {sorted(BACKBONE_PRESETS)}")
        if self.n_encoder_layers < 1 or self.n_decoder_layers < 1:
            raise ConfigFileError("encoder and decoder need at least one layer each")
        for name in ("embed_dim", "n_heads", "n_sample_points", "n_pillar_heights", "ffn_dim",
                     "n_queries", "n_points", "bev_h", "bev_w", "image_channels", "image_height",
                     "image_width", "checkpoint_every"):
            if getattr(self, name) < 1:
                raise ConfigFileError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.embed_dim % self.n_heads != 0 or self.embed_dim % 8 != 0:
            raise ConfigFileError(
                f"embed_dim {self.embed_dim} must divide by n_heads {self.n_heads} and by 8")
        for name in ("warmup_steps", "epochs", "seed"):
            if getattr(self, name) < 0:
                raise ConfigFileError(f"{name} must be at least 0, got {getattr(self, name)}")
        extents = (self.bev_x_min, self.bev_x_max, self.bev_y_min, self.bev_y_max)
        if not all(map(math.isfinite, extents)):
            raise ConfigFileError(f"BEV extents must be finite, got {extents}")
        if not (self.bev_x_min < self.bev_x_max and self.bev_y_min < self.bev_y_max):
            raise ConfigFileError("BEV x and y extents need min < max")
        for name in ("learning_rate", "adam_eps"):
            if not 0 < getattr(self, name) < math.inf:  # NaN fails too
                raise ConfigFileError(f"{name} must be finite and positive, got {getattr(self, name)}")
        if not self.grad_clip > 0:  # inf disables clipping
            raise ConfigFileError(f"grad_clip must be positive, got {self.grad_clip}")
        for name in ("weight_decay", "lambda_cls", "lambda_pts", "lambda_bnd", "background_weight"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ConfigFileError(
                    f"{name} must be finite and non-negative, got {getattr(self, name)}")
        for name in ("beta1", "beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise ConfigFileError(f"{name} must be in [0, 1), got {getattr(self, name)}")

    def config_hash(self) -> str:
        """Hash of every field that affects the numerical trajectory.

        The epoch budget and checkpoint cadence are excluded so a resumed run
        extending the epoch count is still the "same" experiment.
        """
        skip = {"epochs", "checkpoint_every"}
        text = "\n".join(f"{f.name}={getattr(self, f.name)!r}"
                         for f in fields(self) if f.name not in skip)
        return hashlib.sha256(text.encode()).hexdigest()

    def resolved_text(self) -> str:
        return "\n".join(f"{f.name} = {getattr(self, f.name)}" for f in fields(self))


# the four experiment presets studied in the stack-depth/backbone comparison
EXPERIMENT_PRESETS = {
    "baseline-3:6": {"n_encoder_layers": 3, "n_decoder_layers": 6, "backbone": "toy"},
    "shallow-backbone": {"n_encoder_layers": 3, "n_decoder_layers": 6, "backbone": "toy-shallow"},
    "2:4": {"n_encoder_layers": 2, "n_decoder_layers": 4, "backbone": "toy"},
    "4:8": {"n_encoder_layers": 4, "n_decoder_layers": 8, "backbone": "toy"},
}


def preset_config(name: str, **overrides) -> ExperimentConfig:
    if name not in EXPERIMENT_PRESETS:
        raise ConfigFileError(f"unknown preset {name!r}; valid: {sorted(EXPERIMENT_PRESETS)}")
    return ExperimentConfig(**{**EXPERIMENT_PRESETS[name], **overrides})


_FIELDS = {f.name: f for f in fields(ExperimentConfig)}


def _parse_value(name: str, raw: str):
    f = _FIELDS[name]
    try:
        if f.type in ("int", int):
            return int(raw)
        if f.type in ("float", float):
            return float(raw)
        return raw
    except ValueError:
        raise ConfigFileError(f"bad value for {name}: {raw!r}") from None


def _parse_pair(text: str):
    """One ``key = value`` of a config-file line or a ``--set`` pair."""
    if "=" not in text:
        raise ConfigFileError(f"expected 'key = value', got {text!r}")
    key, _, raw = text.partition("=")
    key = key.strip()
    if key not in _FIELDS:
        raise ConfigFileError(f"unknown key {key!r}")
    return key, _parse_value(key, raw.strip())


def parse_config_file(path: str) -> dict:
    """Line-oriented ``key = value`` file; '#' starts a comment."""
    out = {}
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.readlines()
    except UnicodeDecodeError as e:
        raise ConfigFileError(f"{path}: not UTF-8 text ({e.reason} at byte {e.start})") from None
    except OSError as e:
        raise ConfigFileError(f"{path}: cannot read config file ({e.strerror})") from None
    for lineno, line in enumerate(lines, 1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        try:
            key, value = _parse_pair(text)
        except ConfigFileError as e:
            raise ConfigFileError(f"{path}:{lineno}: {e}") from None
        out[key] = value
    return out


def apply_overrides(cfg: ExperimentConfig, pairs) -> ExperimentConfig:
    """Apply ``key=value`` strings (CLI --set) on top of a config."""
    return replace(cfg, **dict(map(_parse_pair, pairs)))


def load_config(path: str | None, overrides=()) -> ExperimentConfig:
    cfg = ExperimentConfig()
    if path:
        cfg = replace(cfg, **parse_config_file(path))
    return apply_overrides(cfg, overrides)
