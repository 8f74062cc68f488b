"""Prediction head, Hungarian set matching and the composite training loss.

The head turns each decoded lane query into classification logits and a
metric-space lane segment: per-point offsets around the query's reference
point give the centerline, and signed lateral offsets along the centerline
normals give the two boundaries.  Matching and loss follow the DETR-family
set-prediction recipe with deep supervision over decoder layers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import tensor as T
from .bev_encoder import init_linear, run_linear
from .lane_decoder import LaneQuerySet
from .segments import CLASS_NAMES, LaneSegment
from .tensor import Tensor

N_CLASSES = len(CLASS_NAMES)


class CapacityError(ValueError):
    """More groundtruth segments than available prediction slots."""


@dataclass
class MatchResult:
    """Injective assignment from groundtruth index to prediction index."""

    gt_to_pred: np.ndarray   # [G] prediction indices
    total_cost: float


@dataclass
class HeadOutput:
    """Differentiable per-query predictions for one decoder layer."""

    cls_logits: Tensor   # [N_q, 3]
    centerline: Tensor   # [N_q, P, 2] metric (x, y)
    left: Tensor         # [N_q, P, 2]
    right: Tensor        # [N_q, P, 2]


def init_head_params(params, cfg, rng):
    dim, p = cfg.embed_dim, cfg.n_points
    init_linear(params, "head/cls", dim, N_CLASSES, rng)
    # zero geometry weights: untrained centerlines collapse onto the
    # reference point, untrained boundaries sit half a lane to each side
    init_linear(params, "head/pts", dim, p * 2, rng, zero=True)
    init_linear(params, "head/bnd", dim, p * 2, rng, zero=True)
    params["head/bnd/b"] = np.full(p * 2, 1.5)


def _unit_left_normals(centerline: Tensor) -> Tensor:
    """Differentiable unit left normals of [N, P, 2] polylines.

    Central-difference tangents in the interior, one-sided at the ends,
    matching the numpy helper used for groundtruth boundaries.
    """
    d = T.sub(centerline[:, 1:, :], centerline[:, :-1, :])        # [N, P-1, 2]
    interior = T.mul(T.add(d[:, :-1, :], d[:, 1:, :]), T.Tensor(0.5))
    tangent = T.concat([d[:, :1, :], interior, d[:, -1:, :]], axis=1)
    length = T.sqrt(T.add(T.tsum(T.mul(tangent, tangent), axis=2, keepdims=True),
                          T.Tensor(1e-12)))
    unit = T.div(tangent, length)
    return T.concat([T.mul(unit[:, :, 1:2], T.Tensor(-1.0)), unit[:, :, 0:1]], axis=2)


def head_outputs(q: LaneQuerySet, params, cfg) -> HeadOutput:
    n_q, p = cfg.n_queries, cfg.n_points
    x = q.emb
    cls_logits = run_linear(x, params, "head/cls")

    offsets = T.reshape(run_linear(x, params, "head/pts"), (n_q, p, 2))
    uv = T.sigmoid(T.add(T.reshape(q.ref_logits, (n_q, 1, 2)), offsets))
    # normalized (u, v) -> metric (x, y): u spans the lateral extent, v the
    # longitudinal one (same convention as the BEV grid)
    xm = T.add(T.mul(uv[:, :, 1:2], T.Tensor(cfg.bev_x_max - cfg.bev_x_min)),
               T.Tensor(cfg.bev_x_min))
    ym = T.add(T.mul(uv[:, :, 0:1], T.Tensor(cfg.bev_y_max - cfg.bev_y_min)),
               T.Tensor(cfg.bev_y_min))
    centerline = T.concat([xm, ym], axis=2)

    widths = T.reshape(run_linear(x, params, "head/bnd"), (n_q, p, 2))
    normals = _unit_left_normals(centerline)
    left = T.add(centerline, T.mul(normals, widths[:, :, 0:1]))
    right = T.sub(centerline, T.mul(normals, widths[:, :, 1:2]))
    return HeadOutput(cls_logits, centerline, left, right)


def predict(q: LaneQuerySet, params, cfg) -> list[LaneSegment]:
    """Decode every query into a LaneSegment with its argmax class score."""
    out = head_outputs(q, params, cfg)
    scores = _softmax_np(out.cls_logits.data)
    segs = []
    for i in range(cfg.n_queries):
        cls = int(np.argmax(scores[i]))
        segs.append(LaneSegment(out.centerline.data[i].copy(), out.left.data[i].copy(),
                                out.right.data[i].copy(), cls, float(scores[i, cls])))
    return segs


def _softmax_np(logits):
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def cost_matrix(out: HeadOutput, gts: list[LaneSegment], cfg) -> np.ndarray:
    """[G, N_q] matching costs from detached head outputs: minus the softmax
    probability of the groundtruth class, plus the mean per-point L1
    distances of the centerline and of the two boundaries."""
    scores = _softmax_np(out.cls_logits.data)
    center, left, right = out.centerline.data, out.left.data, out.right.data
    rows = []
    for gt in gts:
        pts = np.abs(center - gt.centerline).sum(axis=-1).mean(axis=-1)
        bnd = 0.5 * (np.abs(left - gt.left_boundary).sum(axis=-1).mean(axis=-1)
                     + np.abs(right - gt.right_boundary).sum(axis=-1).mean(axis=-1))
        rows.append(cfg.lambda_cls * (-scores[:, gt.class_id])
                    + cfg.lambda_pts * pts + cfg.lambda_bnd * bnd)
    return np.stack(rows)


def hungarian_match(cost: np.ndarray) -> MatchResult:
    """Minimum-cost injective assignment of groundtruth rows to prediction
    columns (Kuhn-Munkres on the rectangular matrix)."""
    cost = np.asarray(cost, dtype=np.float64)
    g, n_q = cost.shape
    if g > n_q:
        raise CapacityError(f"{g} groundtruth segments but only {n_q} prediction slots")
    if not np.isfinite(cost).all():
        raise ValueError("non-finite matching cost")
    rows, cols = linear_sum_assignment(cost)
    order = np.argsort(rows)
    return MatchResult(cols[order], float(cost[rows, cols].sum()))


def total_loss(layer_outputs: list[HeadOutput], gts: list[LaneSegment], cfg):
    """Deep-supervised set loss: match and score every decoder layer's
    predictions, then average.  Matching runs on detached costs; gradients
    flow only through the classification and point terms.

    Returns (scalar loss Tensor, breakdown dict of floats).
    """
    if not layer_outputs:
        raise ValueError("need at least one decoder layer's predictions")
    n_q, p = cfg.n_queries, cfg.n_points
    totals = {"loss_cls": [], "loss_pts": [], "loss_bnd": []}
    layer_losses = []
    for out in layer_outputs:
        if gts:
            match = hungarian_match(cost_matrix(out, gts, cfg))
            pred_idx = match.gt_to_pred
        else:
            pred_idx = np.array([], dtype=int)

        targets = np.zeros(n_q, dtype=int)
        for g, pi in enumerate(pred_idx):
            targets[pi] = gts[g].class_id
        weights = np.where(targets == 0, cfg.background_weight, 1.0)
        logp = T.log_softmax(out.cls_logits, axis=-1)
        picked = logp[np.arange(n_q), targets]
        ce = T.mul(T.tsum(T.mul(picked, T._as_tensor(-weights))),
                   T.Tensor(1.0 / weights.sum()))
        cls_term = T.mul(ce, T.Tensor(cfg.lambda_cls))

        if len(pred_idx):
            m = len(pred_idx)
            gt_c = np.stack([g.centerline for g in gts])
            gt_l = np.stack([g.left_boundary for g in gts])
            gt_r = np.stack([g.right_boundary for g in gts])
            pts_l1 = T.tsum(T.absolute(T.sub(out.centerline[pred_idx], T._as_tensor(gt_c))))
            pts = T.mul(pts_l1, T.Tensor(1.0 / (m * p)))
            bnd_l1 = T.add(T.tsum(T.absolute(T.sub(out.left[pred_idx], T._as_tensor(gt_l)))),
                           T.tsum(T.absolute(T.sub(out.right[pred_idx], T._as_tensor(gt_r)))))
            bnd = T.mul(bnd_l1, T.Tensor(1.0 / (2 * m * p)))
        else:
            pts = T.Tensor(0.0)
            bnd = T.Tensor(0.0)
        pts_term = T.mul(pts, T.Tensor(cfg.lambda_pts))
        bnd_term = T.mul(bnd, T.Tensor(cfg.lambda_bnd))

        layer_losses.append(T.add(T.add(cls_term, pts_term), bnd_term))
        totals["loss_cls"].append(float(cls_term.data))
        totals["loss_pts"].append(float(pts_term.data))
        totals["loss_bnd"].append(float(bnd_term.data))

    loss = T.mul(T.tsum(T.stack(layer_losses)), T.Tensor(1.0 / len(layer_losses)))
    breakdown = {k: float(np.mean(v)) for k, v in totals.items()}
    breakdown["loss_total"] = float(loss.data)
    return loss, breakdown
