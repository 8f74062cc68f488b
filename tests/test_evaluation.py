import itertools

import numpy as np
import pytest

from lanebev import evaluation as EV
from lanebev.segments import CLASS_CROSSWALK, CLASS_LANE, LaneSegment


def seg(y, cls=CLASS_LANE, score=1.0, x0=-5.0, x1=5.0, p=5):
    xs = np.linspace(x0, x1, p)
    c = np.stack([xs, np.full(p, float(y))], axis=1)
    return LaneSegment(c, c + [0.0, 1.5], c - [0.0, 1.5], cls, score)


# -- chamfer distance --


def test_chamfer_identical():
    a = np.random.default_rng(0).standard_normal((6, 2))
    assert EV.chamfer_distance(a, a) == 0.0


def test_chamfer_parallel_lines():
    a = np.stack([np.arange(5.0), np.zeros(5)], axis=1)
    assert EV.chamfer_distance(a, a + [0.0, 1.0]) == pytest.approx(1.0)


def test_chamfer_asymmetric_counts():
    a = np.array([[0.0, 0.0]])
    b = np.array([[0.0, 0.0], [3.0, 0.0]])
    # a->b: 0; b->a: (0 + 3)/2
    assert EV.chamfer_distance(a, b) == pytest.approx(0.75)


def test_chamfer_brute_force_oracle(rng):
    a = rng.standard_normal((5, 2))
    b = rng.standard_normal((5, 2))
    fwd = sum(min(np.hypot(*(pa - pb)) for pb in b) for pa in a) / len(a)
    bwd = sum(min(np.hypot(*(pb - pa)) for pa in a) for pb in b) / len(b)
    assert EV.chamfer_distance(a, b) == pytest.approx(0.5 * (fwd + bwd), abs=1e-12)


def test_chamfer_empty():
    with pytest.raises(ValueError):
        EV.chamfer_distance(np.zeros((0, 2)), np.zeros((3, 2)))


# -- average precision --


def average_precision(pred_by_scene, gt_by_scene, class_id, threshold):
    """One class's AP at one threshold, from the pieces ``evaluate`` uses."""
    entries, n_gt = EV._class_entries(pred_by_scene, gt_by_scene, class_id)
    return EV._ap_from_flags(EV._greedy_tp_flags(entries, threshold), n_gt)


def test_ap_perfect():
    gts = [[seg(0.0), seg(4.0)]]
    preds = [[seg(0.0, score=0.9), seg(4.0, score=0.8)]]
    assert average_precision(preds, gts, CLASS_LANE, 0.5) == 1.0


def test_ap_no_predictions():
    assert average_precision([[]], [[seg(0.0)]], CLASS_LANE, 1.0) == 0.0


def test_ap_hand_computed_pr_area():
    # 2 gts; 3 preds in score order: TP (0.9), FP (0.8), TP (0.7)
    gts = [[seg(0.0), seg(6.0)]]
    preds = [[seg(0.0, score=0.9), seg(20.0, score=0.8), seg(6.0, score=0.7)]]
    # PR points: (r=.5, p=1), (r=.5, p=.5), (r=1, p=2/3)
    # all-points area: .5 * 1 + .5 * (2/3)
    want = 0.5 * 1.0 + 0.5 * (2.0 / 3.0)
    assert average_precision(preds, gts, CLASS_LANE, 0.5) == pytest.approx(want)


def test_ap_duplicate_prediction_is_fp():
    gts = [[seg(0.0)]]
    preds = [[seg(0.0, score=0.9), seg(0.0, score=0.8)]]
    # second duplicate cannot re-claim the gt: precision at full recall is 1
    # (TP first), the duplicate only adds an FP after recall saturates
    assert average_precision(preds, gts, CLASS_LANE, 0.5) == 1.0
    # flip scores: FP comes first, so interpolated precision drops to 1/2
    preds_flipped = [[seg(0.0, score=0.8), seg(0.0, score=0.9)]]
    assert average_precision(preds_flipped, gts, CLASS_LANE, 0.5) == 1.0


def test_ap_score_monotone_transform_invariant(rng):
    gts = [[seg(0.0), seg(5.0)], [seg(-3.0)]]
    preds = [[seg(0.2, score=0.9), seg(9.0, score=0.4)], [seg(-3.1, score=0.6)]]
    base = average_precision(preds, gts, CLASS_LANE, 1.0)
    remapped = [[LaneSegment(p.centerline, p.left_boundary, p.right_boundary,
                             p.class_id, p.score ** 3 * 0.5) for p in ps]
                for ps in preds]
    assert average_precision(remapped, gts, CLASS_LANE, 1.0) == pytest.approx(base)


def test_ap_monotone_in_threshold(rng):
    gts, preds = [], []
    for s in range(3):
        gts.append([seg(rng.uniform(-4, 4)) for _ in range(3)])
        preds.append([seg(rng.uniform(-4, 4), score=rng.uniform(0.1, 1.0))
                      for _ in range(4)])
    aps = [average_precision(preds, gts, CLASS_LANE, t) for t in (0.5, 1.0, 1.5)]
    assert aps[0] <= aps[1] <= aps[2]


def test_ap_matching_is_per_scene():
    # prediction in scene 0 must not match the groundtruth in scene 1
    gts = [[], [seg(0.0)]]
    preds = [[seg(0.0, score=1.0)], []]
    assert average_precision(preds, gts, CLASS_LANE, 1.5) == 0.0


# -- evaluate --


def test_evaluate_perfect_predictor():
    gt = {"s0": [seg(0.0), seg(4.0, CLASS_CROSSWALK)], "s1": [seg(-2.0)]}
    preds = {k: [LaneSegment(g.centerline, g.left_boundary, g.right_boundary,
                             g.class_id, 0.95) for g in v] for k, v in gt.items()}
    rep = EV.evaluate(preds, gt)
    assert rep.map_value == 1.0
    assert all(v == 1.0 for v in rep.ap.values())
    for tp, fp, fn in rep.counts.values():
        assert fp == 0 and fn == 0


def test_evaluate_empty_predictor():
    gt = {"s0": [seg(0.0)]}
    rep = EV.evaluate({"s0": []}, gt)
    assert rep.map_value == 0.0


def test_evaluate_scene_mismatch():
    with pytest.raises(EV.InputError, match="s1"):
        EV.evaluate({"s0": []}, {"s0": [], "s1": []})


def test_evaluate_skips_absent_classes():
    # lane-only groundtruth: mAP averages over lane APs only
    gt = {"s0": [seg(0.0)]}
    preds = {"s0": [seg(0.0, score=0.9)]}
    rep = EV.evaluate(preds, gt)
    assert set(c for c, _ in rep.ap) == {CLASS_LANE}
    assert rep.map_value == 1.0


def test_evaluate_micro_dataset_hand_computed():
    # two scenes, both classes present; 6 AP values averaged
    gt = {
        "a": [seg(0.0), seg(5.0, CLASS_CROSSWALK)],
        "b": [seg(-3.0)],
    }
    preds = {
        # lane in "a" off by 0.75 m: TP at 1.0 and 1.5, FP at 0.5
        "a": [seg(0.75, score=0.9), seg(5.0, CLASS_CROSSWALK, score=0.8)],
        # lane in "b" missed entirely
        "b": [],
    }
    rep = EV.evaluate(preds, gt)
    # lane: 2 gts, 1 pred. At 0.5 m: no TP -> AP 0. At 1.0/1.5: 1 TP,
    # recall 0.5, precision 1 -> AP 0.5. Crosswalk: perfect -> AP 1.
    want = {(1, 0.5): 0.0, (1, 1.0): 0.5, (1, 1.5): 0.5,
            (2, 0.5): 1.0, (2, 1.0): 1.0, (2, 1.5): 1.0}
    for k, v in want.items():
        assert rep.ap[k] == pytest.approx(v), k
    assert rep.map_value == pytest.approx(np.mean(list(want.values())))


def test_report_text_stable_keys():
    gt = {"s0": [seg(0.0)]}
    preds = {"s0": [seg(0.0, score=0.9)]}
    a = EV.evaluate(preds, gt).to_text()
    b = EV.evaluate(preds, gt).to_text()
    assert a == b
    assert a.startswith("map = ")
    assert "ap/class_1/t_0.5" in a
    assert "counts/t_1/tp" in a


def test_evaluate_computes_each_chamfer_distance_once(monkeypatch):
    calls = []
    chamfer = EV.chamfer_distance
    monkeypatch.setattr(EV, "chamfer_distance", lambda a, b: calls.append(1) or chamfer(a, b))
    gt = {"a": [seg(0.0), seg(5.0, CLASS_CROSSWALK), seg(3.0)], "b": [seg(-3.0)]}
    preds = {"a": [seg(0.75, score=0.9), seg(2.0, score=0.4),
                   seg(5.0, CLASS_CROSSWALK, score=0.8)],
             "b": [seg(-2.5, score=0.7)]}
    rep = EV.evaluate(preds, gt)
    # lane: 2 predictions x 2 groundtruth in "a", 1 x 1 in "b"; crosswalk: 1 x 1
    assert len(calls) == 2 * 2 + 1 + 1
    assert len(rep.ap) == 6


def lazy_greedy_oracle(pred_by_scene, gt_by_scene, class_id, threshold):
    """Greedy matching for one threshold, each distance computed when a
    prediction looks at an unclaimed groundtruth.  Returns (flags, n_gt)."""
    entries = sorted(((p.score, si, p) for si, preds in enumerate(pred_by_scene)
                      for p in preds if p.class_id == class_id), key=lambda e: -e[0])
    n_gt = sum(g.class_id == class_id for gts in gt_by_scene for g in gts)
    claimed = [set() for _ in pred_by_scene]
    flags = np.zeros(len(entries), dtype=bool)
    for i, (_, si, p) in enumerate(entries):
        best, best_gi = np.inf, None
        for gi, g in enumerate(gt_by_scene[si]):
            if g.class_id == class_id and gi not in claimed[si]:
                d = EV.chamfer_distance(p.centerline, g.centerline)
                if d < best:
                    best, best_gi = d, gi
        if best_gi is not None and best <= threshold:
            claimed[si].add(best_gi)
            flags[i] = True
    return flags, n_gt


def test_evaluate_matches_lazy_greedy_oracle(rng):
    classes = (CLASS_LANE, CLASS_CROSSWALK)
    gt = {f"s{i}": [seg(rng.uniform(-6, 6), classes[rng.integers(2)]) for _ in range(4)]
          for i in range(3)}
    preds = {s: [seg(g.centerline[0, 1] + rng.normal(0.0, 0.8), g.class_id, rng.uniform())
                 for g in gts for _ in range(rng.integers(0, 3))] for s, gts in gt.items()}
    rep = EV.evaluate(preds, gt)
    scenes = sorted(gt)
    for thr in EV.DEFAULT_THRESHOLDS:
        tp = fp = fn = 0
        for cls in classes:
            flags, n_gt = lazy_greedy_oracle([preds[s] for s in scenes], [gt[s] for s in scenes],
                                             cls, thr)
            assert rep.ap[(cls, thr)] == EV._ap_from_flags(flags, n_gt)
            tp, fp, fn = tp + flags.sum(), fp + (~flags).sum(), fn + n_gt - flags.sum()
        assert rep.counts[thr] == (tp, fp, fn)


# -- matched Chamfer --


def scalar_chamfer(a, b):
    fwd = sum(min(np.hypot(*(pa - pb)) for pb in b) for pa in a) / len(a)
    bwd = sum(min(np.hypot(*(pb - pa)) for pa in a) for pb in b) / len(b)
    return 0.5 * (fwd + bwd)


def matched_chamfer_oracle(pred_by_scene, gt_by_scene, class_id):
    """Per scene, every injective pairing of the class's predictions with its
    groundtruth tried for the least total scalar Chamfer; the mean over the
    pairs of every scene's best pairing, nan without a pair."""
    total, pairs = 0.0, 0
    for preds, gts in zip(pred_by_scene, gt_by_scene):
        ps = [p.centerline for p in preds if p.class_id == class_id]
        gs = [g.centerline for g in gts if g.class_id == class_id]
        d = [[scalar_chamfer(p, g) for g in gs] for p in ps]
        k = min(len(ps), len(gs))
        if not k:
            continue
        if len(ps) >= len(gs):   # groundtruth j takes prediction perm[j]
            best = min(sum(d[i][j] for j, i in enumerate(perm))
                       for perm in itertools.permutations(range(len(ps)), k))
        else:                    # prediction i takes groundtruth perm[i]
            best = min(sum(d[i][j] for i, j in enumerate(perm))
                       for perm in itertools.permutations(range(len(gs)), k))
        total, pairs = total + best, pairs + k
    return total / pairs if pairs else np.nan


def test_matched_chamfer_matches_brute_force_oracle(rng):
    classes = (CLASS_LANE, CLASS_CROSSWALK)
    for trial in range(20):
        gt = {f"s{i}": [seg(rng.uniform(-6, 6), classes[rng.integers(2)], p=int(rng.integers(2, 6)))
                        for _ in range(rng.integers(0, 5))] for i in range(3)}
        preds = {s: [seg(rng.uniform(-8, 8), classes[rng.integers(3) % 2], rng.uniform(),
                         x0=rng.uniform(-6, -4), p=int(rng.integers(2, 6)))
                     for _ in range(rng.integers(0, 6))] for s in gt}
        rep = EV.evaluate(preds, gt)
        scenes = sorted(gt)
        present = [c for c in classes if any(g.class_id == c for s in scenes for g in gt[s])]
        assert sorted(rep.matched_chamfer) == present
        for cls in present:
            want = matched_chamfer_oracle([preds[s] for s in scenes], [gt[s] for s in scenes], cls)
            if np.isnan(want):
                assert np.isnan(rep.matched_chamfer[cls]), trial
            else:
                assert rep.matched_chamfer[cls] == pytest.approx(want, rel=1e-12), trial


def test_matched_chamfer_perfect_and_unmatched():
    gt = {"a": [seg(0.0), seg(4.0), seg(2.0, CLASS_CROSSWALK)]}
    rep = EV.evaluate({"a": [seg(4.0, score=0.3), seg(0.0, score=0.9)]}, gt)
    assert rep.matched_chamfer[CLASS_LANE] == 0.0 and np.isnan(rep.matched_chamfer[CLASS_CROSSWALK])
    assert rep.matched_chamfer_mean == 0.0
    # one prediction between two groundtruth lanes is matched to the nearer one only
    rep = EV.evaluate({"a": [seg(1.0), seg(2.5, CLASS_CROSSWALK)]}, gt)
    assert rep.matched_chamfer == {CLASS_LANE: pytest.approx(1.0), CLASS_CROSSWALK: 0.5}
    assert rep.matched_chamfer_mean == pytest.approx(0.75)


def test_report_text_appends_matched_chamfer():
    """The matched-Chamfer lines come last, so every earlier key keeps its position."""
    gt = {"s0": [seg(0.0), seg(3.0, CLASS_CROSSWALK)]}
    rep = EV.evaluate({"s0": [seg(0.5, score=0.9)]}, gt)
    lines = rep.to_text().splitlines()
    before = EV.EvalReport(rep.ap, rep.map_value, rep.counts, rep.per_scene).to_text()
    assert lines[:-2] == before.splitlines()
    assert lines[-2:] == ["matched_chamfer/class_1 = 0.500000", "matched_chamfer/class_2 = nan"]
