"""Chamfer-distance mAP over predicted lane segments.

Predictions are matched to groundtruth greedily in descending score order,
one-to-one, within each scene; a match requires the same class and a
centerline Chamfer distance under the threshold.  AP uses all-points
interpolation of the precision-recall curve, and mAP averages over the
foreground classes and thresholds {0.5, 1.0, 1.5} m.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .segments import CLASS_CROSSWALK, CLASS_LANE

DEFAULT_THRESHOLDS = (0.5, 1.0, 1.5)
FOREGROUND_CLASSES = (CLASS_LANE, CLASS_CROSSWALK)


class InputError(ValueError):
    pass


def chamfer_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Symmetric mean nearest-point distance between two point sets."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if len(a) == 0 or len(b) == 0:
        raise ValueError("chamfer distance of an empty polyline")
    d = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    return 0.5 * (d.min(axis=1).mean() + d.min(axis=0).mean())


def _class_entries(pred_by_scene, gt_by_scene, class_id):
    """A class's predictions by descending score as (score, scene index,
    [(groundtruth index, Chamfer distance)] over the scene's groundtruth of
    that class), and the class's groundtruth count: every threshold reuses
    these distances."""
    entries, n_gt = [], 0
    for si, (preds, gts) in enumerate(zip(pred_by_scene, gt_by_scene)):
        same = [(gi, g) for gi, g in enumerate(gts) if g.class_id == class_id]
        n_gt += len(same)
        entries += [(p.score, si, [(gi, chamfer_distance(p.centerline, g.centerline))
                                   for gi, g in same]) for p in preds if p.class_id == class_id]
    entries.sort(key=lambda e: -e[0])
    return entries, n_gt


def _greedy_tp_flags(entries, threshold):
    """TP/FP flags over a class's entries: greedy one-to-one matching in
    global descending score order; each prediction may claim the nearest
    unmatched same-scene groundtruth within the Chamfer threshold."""
    claimed = set()  # (scene index, groundtruth index)
    flags = np.zeros(len(entries), dtype=bool)
    for i, (_, si, dists) in enumerate(entries):
        best, best_gi = np.inf, None
        for gi, d in dists:
            if (si, gi) not in claimed and d < best:
                best, best_gi = d, gi
        if best_gi is not None and best <= threshold:
            claimed.add((si, best_gi))
            flags[i] = True
    return flags


def _ap_from_flags(flags, n_gt) -> float:
    """All-points interpolated area under the precision-recall curve."""
    if n_gt == 0 or len(flags) == 0:
        return 0.0
    tp = np.cumsum(flags)
    fp = np.cumsum(~flags)
    recall = tp / n_gt
    precision = tp / (tp + fp)
    r = np.concatenate([[0.0], recall, [recall[-1]]])
    p = np.concatenate([[0.0], precision, [0.0]])
    for i in range(len(p) - 2, -1, -1):
        p[i] = max(p[i], p[i + 1])
    steps = np.nonzero(np.diff(r) > 0)[0]
    return float(((r[steps + 1] - r[steps]) * p[steps + 1]).sum())


@dataclass
class EvalReport:
    ap: dict                 # (class_id, threshold) -> AP
    map_value: float
    counts: dict             # threshold -> (tp, fp, fn) summed over classes
    per_scene: list = field(default_factory=list)   # (scene_id, n_pred, n_gt)

    def to_text(self) -> str:
        lines = [f"map = {self.map_value:.6f}"]
        for (cls, thr) in sorted(self.ap):
            lines.append(f"ap/class_{cls}/t_{thr:g} = {self.ap[(cls, thr)]:.6f}")
        for thr in sorted(self.counts):
            tp, fp, fn = self.counts[thr]
            lines.append(f"counts/t_{thr:g}/tp = {tp}")
            lines.append(f"counts/t_{thr:g}/fp = {fp}")
            lines.append(f"counts/t_{thr:g}/fn = {fn}")
        for scene_id, n_pred, n_gt in self.per_scene:
            lines.append(f"scene/{scene_id}/n_pred = {n_pred}")
            lines.append(f"scene/{scene_id}/n_gt = {n_gt}")
        return "\n".join(lines) + "\n"


def evaluate(predictions: dict, groundtruth: dict,
             thresholds=DEFAULT_THRESHOLDS) -> EvalReport:
    """mAP over a dataset.

    predictions / groundtruth: scene id -> list of LaneSegment (predictions
    carry scores; background-class predictions are ignored).  Classes with
    no groundtruth anywhere in the dataset are skipped rather than counted
    as AP 0, so a crosswalk-free dataset does not cap mAP at 0.5.
    """
    missing = sorted(set(groundtruth) ^ set(predictions))
    if missing:
        raise InputError(f"unmatched scene ids: {missing}")
    scene_ids = sorted(groundtruth)
    pred_by_scene = [[p for p in predictions[s] if p.class_id != 0] for s in scene_ids]
    gt_by_scene = [groundtruth[s] for s in scene_ids]

    gt_classes = [c for c in FOREGROUND_CLASSES
                  if any(g.class_id == c for gts in gt_by_scene for g in gts)]
    tables = {cls: _class_entries(pred_by_scene, gt_by_scene, cls) for cls in gt_classes}
    ap = {}
    counts = {}
    for thr in thresholds:
        tp_tot = fp_tot = fn_tot = 0
        for cls in gt_classes:
            entries, n_gt = tables[cls]
            flags = _greedy_tp_flags(entries, thr)
            ap[(cls, thr)] = _ap_from_flags(flags, n_gt)
            tp_tot += int(flags.sum())
            fp_tot += int((~flags).sum())
            fn_tot += n_gt - int(flags.sum())
        counts[thr] = (tp_tot, fp_tot, fn_tot)
    map_value = float(np.mean(list(ap.values()))) if ap else 0.0
    per_scene = [(s, len(pred_by_scene[i]), len(gt_by_scene[i]))
                 for i, s in enumerate(scene_ids)]
    return EvalReport(ap, map_value, counts, per_scene)
