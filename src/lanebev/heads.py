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
    """Differentiable per-query predictions; N rows are N_q queries of one
    decoder layer, or L layers' queries stacked layer-major (N = L*N_q)."""

    cls_logits: Tensor   # [N, 3]
    centerline: Tensor   # [N, P, 2] metric (x, y)
    left: Tensor         # [N, P, 2]
    right: Tensor        # [N, P, 2]


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
    interior = T.mul(T.add(d[:, :-1, :], d[:, 1:, :]), T.constant(0.5, d))
    tangent = T.concat([d[:, :1, :], interior, d[:, -1:, :]], axis=1)
    length = T.sqrt(T.add(T.tsum(T.mul(tangent, tangent), axis=2, keepdims=True),
                          T.constant(1e-12, d)))
    unit = T.div(tangent, length)
    return T.mul(unit[:, :, ::-1], T.constant([-1.0, 1.0], d))


def head_outputs(q: LaneQuerySet, params, cfg) -> HeadOutput:
    """Predictions for every row of q: one decoder layer's N_q queries, or
    several layers' stacked layer-major."""
    n_q, p = q.emb.shape[0], cfg.n_points
    x = q.emb
    cls_logits = run_linear(x, params, "head/cls")

    offsets = T.reshape(run_linear(x, params, "head/pts"), (n_q, p, 2))
    uv = T.sigmoid(T.add(T.reshape(q.ref_logits, (n_q, 1, 2)), offsets))
    # normalized (u, v) -> metric (x, y): u spans the lateral extent, v the
    # longitudinal one (same convention as the BEV grid)
    scale = [cfg.bev_x_max - cfg.bev_x_min, cfg.bev_y_max - cfg.bev_y_min]
    centerline = T.add(T.mul(uv[:, :, ::-1], T.constant(scale, uv)),
                       T.constant([cfg.bev_x_min, cfg.bev_y_min], uv))

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
        segs.append(LaneSegment(out.centerline.data[i].astype(np.float64),
                                out.left.data[i].astype(np.float64),
                                out.right.data[i].astype(np.float64), cls, float(scores[i, cls])))
    return segs


def _softmax_np(logits):
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def cost_matrix(out: HeadOutput, gts: list[LaneSegment], cfg) -> np.ndarray:
    """[G, N] matching costs from detached head outputs: minus the softmax
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


def total_loss(out: HeadOutput, gts: list[LaneSegment], cfg):
    """Deep-supervised set loss over every decoder layer's predictions,
    stacked layer-major: each field is [L*N_q, ...] for L layers.  Each
    layer is matched and scored on its own block of N_q queries, then the L
    layer losses are averaged.  Matching runs on detached costs; gradients
    flow only through the classification and point terms.

    Returns (scalar loss Tensor, breakdown dict of floats).
    """
    n_q, p = cfg.n_queries, cfg.n_points
    rows = out.cls_logits.shape[0]
    if rows == 0 or rows % n_q:
        raise ValueError(f"{rows} prediction rows: not a positive multiple of {n_q} queries")
    n_layers = rows // n_q
    pred_idx = np.zeros((n_layers, len(gts)), dtype=int)   # per layer: gt -> query
    if gts:
        cost = cost_matrix(out, gts, cfg)
        for i in range(n_layers):
            pred_idx[i] = hungarian_match(cost[:, i * n_q:(i + 1) * n_q]).gt_to_pred

    targets = np.zeros((n_layers, n_q), dtype=int)
    np.put_along_axis(targets, pred_idx, [gt.class_id for gt in gts], axis=1)
    weights = np.where(targets == 0, cfg.background_weight, 1.0)
    logp = T.log_softmax(out.cls_logits, axis=-1)
    picked = T.reshape(logp[np.arange(rows), targets.ravel()], (n_layers, n_q))
    ce = T.mul(T.tsum(T.mul(picked, T.constant(-weights, picked)), axis=1),
               T.constant(1.0 / weights.sum(axis=1), picked))
    cls_term = T.mul(ce, T.constant(cfg.lambda_cls, ce))

    if gts:
        matched = (pred_idx + n_q * np.arange(n_layers)[:, None]).ravel()

        def layer_l1(pred, field):   # [L] sums of |pred - gt| over each layer's matches
            gt = np.tile(np.stack([getattr(g, field) for g in gts]), (n_layers, 1, 1))
            diff = T.absolute(T.sub(pred[matched], T.constant(gt, pred)))
            return T.tsum(T.reshape(diff, (n_layers, -1)), axis=1)

        m = len(gts)
        pts = T.mul(layer_l1(out.centerline, "centerline"), T.constant(1.0 / (m * p), ce))
        bnd_l1 = T.add(layer_l1(out.left, "left_boundary"), layer_l1(out.right, "right_boundary"))
        bnd = T.mul(bnd_l1, T.constant(1.0 / (2 * m * p), ce))
    else:
        pts = bnd = T.constant(np.zeros(n_layers), ce)
    terms = {"loss_cls": cls_term, "loss_pts": T.mul(pts, T.constant(cfg.lambda_pts, ce)),
             "loss_bnd": T.mul(bnd, T.constant(cfg.lambda_bnd, ce))}

    layer_losses = T.add(T.add(cls_term, terms["loss_pts"]), terms["loss_bnd"])   # [L]
    loss = T.mul(T.tsum(layer_losses), T.constant(1.0 / n_layers, ce))
    breakdown = {k: float(np.mean(t.data)) for k, t in terms.items()}
    breakdown["loss_total"] = float(loss.data)
    return loss, breakdown
