"""End-to-end pipeline: shared backbone over 7 views, BEV encoding with
history threading across a scene's frames, lane decoding, prediction head.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import tensor as T
from .backbone import (BACKBONE_PRESETS, BackboneConfig, extract_features,
                       feature_channels, init_backbone_params)
from .bev_encoder import EgoMotion, encode, init_encoder_params
from .heads import head_outputs, init_head_params, predict, total_loss
from .lane_decoder import LaneQuerySet, decode, init_decoder_params, initial_queries


def backbone_config(cfg) -> BackboneConfig:
    base = BACKBONE_PRESETS[cfg.backbone]
    return dataclasses.replace(
        base, input_shape=(cfg.image_channels, cfg.image_height, cfg.image_width))


def init_model_params(cfg, rng) -> dict:
    bcfg = backbone_config(cfg)
    params = init_backbone_params(bcfg, rng)
    init_encoder_params(params, cfg, feature_channels(bcfg), rng)
    init_decoder_params(params, cfg, rng)
    init_head_params(params, cfg, rng)
    return params


def forward_frame(images, cameras, history: T.Tensor | None, motion: EgoMotion,
                  params, cfg):
    """One frame through the whole pipeline.

    Returns (per-decoder-layer LaneQuerySets, the [bev_h*bev_w, D] BEV grid for
    history threading).
    """
    feats = extract_features(images, backbone_config(cfg), params)
    bev = encode(feats, cameras, history, motion, params, cfg)
    return decode(initial_queries(params), bev, params, cfg), bev


def _frame_motion(scene, t) -> EgoMotion:
    if t == 0:
        return EgoMotion()
    return EgoMotion.from_poses(scene.frames[t - 1].ego_pose, scene.frames[t].ego_pose)


def _run_scene(scene, params, cfg):
    """Yields each frame's per-decoder-layer query sets, threading the BEV.

    The history is detached between frames: gradients never flow across
    timesteps, only through the current frame's encoder pass.
    """
    history = None
    for t, frame in enumerate(scene.frames):
        qsets, bev = forward_frame(frame.images, frame.cameras, history,
                                   _frame_motion(scene, t), params, cfg)
        yield qsets
        history = bev.detach()


def stack_layers(qsets: list[LaneQuerySet]) -> LaneQuerySet:
    """Every decoder layer's query set as one, layer-major."""
    return LaneQuerySet(T.concat([q.emb for q in qsets]), T.concat([q.ref_logits for q in qsets]))


def scene_loss(scene, params, cfg):
    """Mean deep-supervised loss over a scene's frames, one head pass per frame."""
    losses, parts_acc = [], []
    for qsets, gts in zip(_run_scene(scene, params, cfg), scene.groundtruth):
        loss_t, parts = total_loss(head_outputs(stack_layers(qsets), params, cfg), gts, cfg)
        losses.append(loss_t)
        parts_acc.append(parts)
    loss = T.mul(T.tsum(T.stack(losses)), T.Tensor(1.0 / len(losses)))
    breakdown = {k: float(np.mean([p[k] for p in parts_acc])) for k in parts_acc[0]}
    breakdown["loss_total"] = float(loss.data)
    return loss, breakdown


def predict_scene(scene, params, cfg) -> dict:
    """Final-layer predictions per frame, keyed '<scene>/frame_<t>'."""
    return {f"{scene.scene_id}/frame_{t}": predict(qsets[-1], params, cfg)
            for t, qsets in enumerate(_run_scene(scene, params, cfg))}


def groundtruth_by_frame(scenes) -> dict:
    return {f"{s.scene_id}/frame_{t}": gts
            for s in scenes for t, gts in enumerate(s.groundtruth)}
