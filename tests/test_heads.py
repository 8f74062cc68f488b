import itertools

import numpy as np
import pytest

from lanebev import heads as H
from lanebev import lane_decoder as L
from lanebev import tensor as T
from lanebev.config import ExperimentConfig
from lanebev.segments import CLASS_CROSSWALK, CLASS_LANE, LaneSegment


def head_cfg(**kw):
    kw.setdefault("embed_dim", 16)
    kw.setdefault("n_heads", 2)
    kw.setdefault("n_queries", 4)
    kw.setdefault("n_points", 5)
    return ExperimentConfig(**kw)


def make_head(cfg, rng):
    params = {}
    H.init_head_params(params, cfg, rng)
    return params


def make_queries(cfg, rng):
    emb = rng.standard_normal((cfg.n_queries, cfg.embed_dim))
    refs = rng.standard_normal((cfg.n_queries, 2)) * 0.5
    return L.LaneQuerySet(T.Tensor(emb), T.Tensor(refs))


def straight_segment(y, cls=CLASS_LANE, p=5, score=1.0, width=3.0):
    xs = np.linspace(-5.0, 5.0, p)
    c = np.stack([xs, np.full(p, float(y))], axis=1)
    off = np.array([0.0, width / 2])
    return LaneSegment(c, c + off, c - off, cls, score)


# -- prediction head --


def test_zero_geometry_head_centerline_at_reference(rng):
    cfg = head_cfg()
    params = make_head(cfg, rng)
    q = make_queries(cfg, rng)
    out = H.head_outputs(q, params, cfg)
    uv = 1 / (1 + np.exp(-q.ref_logits.data))
    want_x = cfg.bev_x_min + uv[:, 1] * (cfg.bev_x_max - cfg.bev_x_min)
    want_y = cfg.bev_y_min + uv[:, 0] * (cfg.bev_y_max - cfg.bev_y_min)
    for i in range(cfg.n_queries):
        assert np.allclose(out.centerline.data[i],
                           np.tile([want_x[i], want_y[i]], (cfg.n_points, 1)), atol=1e-12)


def test_predict_list_length_and_scores(rng):
    cfg = head_cfg()
    params = make_head(cfg, rng)
    segs = H.predict(make_queries(cfg, rng), params, cfg)
    assert len(segs) == cfg.n_queries
    probs = H._softmax_np(H.head_outputs(make_queries(cfg, rng), params, cfg).cls_logits.data)
    assert np.abs(probs.sum(axis=1) - 1).max() < 1e-9
    for s in segs:
        assert 0.0 <= s.score <= 1.0
        assert s.centerline.shape == (cfg.n_points, 2)


def test_boundaries_follow_normals(rng):
    # a straight centerline along +x has left normal +y, so predicted
    # boundaries must sit at centerline y +/- the bias half-width
    cfg = head_cfg()
    params = make_head(cfg, rng)
    # craft logits so the centerline is a straight x-going line: impossible
    # with zero pts weights (all points coincide), so give the offsets a bias
    p = cfg.n_points
    bias = np.zeros((p, 2))
    bias[:, 1] = np.linspace(-1.0, 1.0, p)  # v varies: x varies
    params["head/pts/b"] = bias.reshape(-1)
    q = L.LaneQuerySet(T.Tensor(np.zeros((cfg.n_queries, cfg.embed_dim))),
                       T.Tensor(np.zeros((cfg.n_queries, 2))))
    out = H.head_outputs(q, params, cfg)
    c = out.centerline.data[0]
    assert np.abs(np.diff(c[:, 1])).max() < 1e-12  # constant y
    assert np.allclose(out.left.data[0], c + [0.0, 1.5], atol=1e-9)
    assert np.allclose(out.right.data[0], c - [0.0, 1.5], atol=1e-9)


def test_head_gradcheck(rng):
    from gradcheck import check_gradients
    cfg = head_cfg(n_queries=2, n_points=4)
    params = make_head(cfg, rng)
    params["head/pts/w"] = rng.standard_normal((cfg.embed_dim, cfg.n_points * 2)) * 0.1
    params["head/bnd/w"] = rng.standard_normal((cfg.embed_dim, cfg.n_points * 2)) * 0.1
    emb = rng.standard_normal((2, cfg.embed_dim)) * 0.5
    refs = rng.standard_normal((2, 2)) * 0.3

    def build(e, r):
        out = H.head_outputs(L.LaneQuerySet(e, r), params, cfg)
        return T.tsum(T.add(T.mul(out.left, out.left), T.absolute(out.centerline)))

    check_gradients(build, [emb, refs], rtol=1e-3)


# -- hungarian matching --


def brute_force_match(cost):
    g, n = cost.shape
    best, best_cols = np.inf, None
    for cols in itertools.permutations(range(n), g):
        tot = sum(cost[i, c] for i, c in enumerate(cols))
        if tot < best:
            best, best_cols = tot, cols
    return best, best_cols


def test_match_identity_diagonal():
    cost = np.ones((3, 3)) - np.eye(3)
    m = H.hungarian_match(cost)
    assert list(m.gt_to_pred) == [0, 1, 2]
    assert m.total_cost == 0.0


def test_match_known_matrix():
    cost = np.array([[4.0, 1.0, 3.0], [2.0, 0.0, 5.0], [3.0, 2.0, 2.0]])
    m = H.hungarian_match(cost)
    assert m.total_cost == 5.0
    assert list(m.gt_to_pred) == [1, 0, 2]


def test_match_rectangular_vs_brute_force(rng):
    cost = rng.standard_normal((2, 4))
    m = H.hungarian_match(cost)
    best, _ = brute_force_match(cost)
    assert m.total_cost == pytest.approx(best)


def test_match_equals_exhaustive_many(rng):
    for _ in range(1000):
        g = rng.integers(1, 8)
        n = rng.integers(g, 8)
        cost = rng.standard_normal((g, n))
        m = H.hungarian_match(cost)
        best, _ = brute_force_match(cost)
        assert m.total_cost == pytest.approx(best)
        assert len(set(m.gt_to_pred)) == g  # injective


def test_match_row_shift_invariance(rng):
    cost = rng.standard_normal((3, 5))
    base = H.hungarian_match(cost)
    shifted = cost.copy()
    shifted[1] += 7.3
    m = H.hungarian_match(shifted)
    assert list(m.gt_to_pred) == list(base.gt_to_pred)


def test_match_capacity_error():
    with pytest.raises(H.CapacityError):
        H.hungarian_match(np.zeros((4, 3)))


def test_match_non_finite():
    cost = np.zeros((2, 3))
    cost[0, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        H.hungarian_match(cost)


# -- match cost --


def _mean_point_l1(a, b):
    """Mean over points of the per-point L1 distance |dx| + |dy|."""
    return float(np.abs(a - b).sum(axis=-1).mean())


def match_cost(pred: LaneSegment, gt: LaneSegment, cfg) -> float:
    """Per-pair oracle of one cost_matrix entry."""
    score = pred.score if pred.class_id == gt.class_id else 0.0
    bnd = 0.5 * (_mean_point_l1(pred.left_boundary, gt.left_boundary)
                 + _mean_point_l1(pred.right_boundary, gt.right_boundary))
    return (cfg.lambda_cls * (-score)
            + cfg.lambda_pts * _mean_point_l1(pred.centerline, gt.centerline)
            + cfg.lambda_bnd * bnd)


def segments_as_outputs(preds, logits):
    """HeadOutput whose query i is preds[i], with the given class logits."""
    return H.HeadOutput(T.Tensor(np.asarray(logits, dtype=float)),
                        *(T.Tensor(np.stack([getattr(s, k) for s in preds]))
                          for k in ("centerline", "left_boundary", "right_boundary")))


def oracle_costs(out, gts, cfg):
    """[G, N_q] of match_cost, scoring each query by the softmax probability
    of the groundtruth class."""
    probs = H._softmax_np(out.cls_logits.data)
    return np.array([[match_cost(LaneSegment(out.centerline.data[i], out.left.data[i],
                                             out.right.data[i], gt.class_id,
                                             probs[i, gt.class_id]), gt, cfg)
                      for i in range(len(probs))] for gt in gts])


def test_match_cost_perfect_pair():
    cfg = head_cfg()
    gt = straight_segment(0.0)
    out = segments_as_outputs([gt], [[0.0, 40.0, 0.0]])
    cost = H.cost_matrix(out, [gt], cfg)
    assert cost == pytest.approx(oracle_costs(out, [gt], cfg), abs=1e-12)
    assert cost[0, 0] == pytest.approx(-cfg.lambda_cls)


def test_match_cost_l1_homogeneity():
    cfg = head_cfg()
    gt = straight_segment(0.0)
    pred = straight_segment(1.0)
    logits = [[1.0, 0.5, -0.3]]

    def scale(seg, k):
        return LaneSegment(seg.centerline * k, seg.left_boundary * k,
                           seg.right_boundary * k, seg.class_id, seg.score)

    out, out2 = segments_as_outputs([pred], logits), segments_as_outputs([scale(pred, 2)], logits)
    base = H.cost_matrix(out, [gt], cfg)
    doubled = H.cost_matrix(out2, [scale(gt, 2)], cfg)
    assert base == pytest.approx(oracle_costs(out, [gt], cfg), abs=1e-12)
    assert doubled == pytest.approx(oracle_costs(out2, [scale(gt, 2)], cfg), abs=1e-12)
    # the geometric terms are L1 distances; the class term does not scale
    cls_term = cfg.lambda_cls * -H._softmax_np(np.array(logits))[0, gt.class_id]
    assert doubled[0, 0] - cls_term == pytest.approx(2 * (base[0, 0] - cls_term))


def test_match_cost_hand_computed(rng):
    cfg = head_cfg()
    p = 5
    gts = [LaneSegment(rng.standard_normal((p, 2)), rng.standard_normal((p, 2)),
                       rng.standard_normal((p, 2)), cls) for cls in (CLASS_LANE, CLASS_CROSSWALK)]
    preds = [LaneSegment(rng.standard_normal((p, 2)), rng.standard_normal((p, 2)),
                         rng.standard_normal((p, 2)), CLASS_LANE) for _ in range(cfg.n_queries)]
    out = segments_as_outputs(preds, rng.standard_normal((cfg.n_queries, 3)))
    cost = H.cost_matrix(out, gts, cfg)
    assert cost.shape == (len(gts), cfg.n_queries)
    assert cost == pytest.approx(oracle_costs(out, gts, cfg), abs=1e-12)
    # independent recomputation of one entry, one scalar at a time
    gt, pred = gts[1], preds[2]
    score = H._softmax_np(out.cls_logits.data)[2, gt.class_id]
    acc_c = sum(abs(pred.centerline[i, k] - gt.centerline[i, k])
                for i in range(p) for k in range(2)) / p
    acc_l = sum(abs(pred.left_boundary[i, k] - gt.left_boundary[i, k])
                for i in range(p) for k in range(2)) / p
    acc_r = sum(abs(pred.right_boundary[i, k] - gt.right_boundary[i, k])
                for i in range(p) for k in range(2)) / p
    want = 2.0 * (-score) + 5.0 * acc_c + 2.5 * 0.5 * (acc_l + acc_r)
    assert cost[1, 2] == pytest.approx(want, abs=1e-12)


# -- total loss --


def perfect_outputs(gts, cfg, confident=20.0):
    """HeadOutput whose first len(gts) queries reproduce the groundtruth."""
    n_q, p = cfg.n_queries, cfg.n_points
    logits = np.zeros((n_q, 3))
    center = np.zeros((n_q, p, 2))
    left = np.zeros((n_q, p, 2))
    right = np.zeros((n_q, p, 2))
    # unmatched queries: confident background, parked far away
    logits[:, 0] = confident
    center[:, :, 0] = 1000.0
    left[:, :, 0] = 1000.0
    right[:, :, 0] = 1000.0
    for i, gt in enumerate(gts):
        logits[i] = 0.0
        logits[i, gt.class_id] = confident
        center[i] = gt.centerline
        left[i] = gt.left_boundary
        right[i] = gt.right_boundary
    return H.HeadOutput(T.Tensor(logits), T.Tensor(center), T.Tensor(left), T.Tensor(right))


def stack_outputs(*outs):
    """Several decoder layers' HeadOutputs stacked layer-major, as total_loss takes them."""
    return H.HeadOutput(*(T.Tensor(np.concatenate([getattr(o, f).data for o in outs]))
                          for f in ("cls_logits", "centerline", "left", "right")))


def test_total_loss_perfect_predictions():
    cfg = head_cfg()
    gts = [straight_segment(0.0), straight_segment(4.0, CLASS_CROSSWALK)]
    loss, parts = H.total_loss(perfect_outputs(gts, cfg), gts, cfg)
    assert parts["loss_pts"] == 0.0
    assert parts["loss_bnd"] == 0.0
    assert parts["loss_cls"] < 0.01
    assert loss.item() == pytest.approx(parts["loss_total"])


def test_total_loss_empty_groundtruth():
    cfg = head_cfg()
    out = perfect_outputs([], cfg)
    loss, parts = H.total_loss(out, [], cfg)
    assert parts["loss_pts"] == 0.0
    assert parts["loss_bnd"] == 0.0
    assert loss.item() > 0.0


def test_total_loss_micro_case_hand_computed():
    # single layer, G=1, N_q=2, P=2: every term small enough to do by hand
    cfg = head_cfg(n_queries=2, n_points=2)
    gt = LaneSegment(np.array([[0.0, 0.0], [1.0, 0.0]]),
                     np.array([[0.0, 1.0], [1.0, 1.0]]),
                     np.array([[0.0, -1.0], [1.0, -1.0]]), CLASS_LANE)
    logits = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    center = np.array([[[0.0, 0.5], [1.0, 0.5]],      # 0.5 off per point in y
                       [[50.0, 0.0], [51.0, 0.0]]])
    left = center + [0.0, 1.0]
    right = center - [0.0, 1.0]
    out = H.HeadOutput(T.Tensor(logits), T.Tensor(center), T.Tensor(left), T.Tensor(right))
    loss, parts = H.total_loss(out, [gt], cfg)
    # matching must pick query 0 (query 1 is 50 m away)
    p0 = np.exp(logits[0]) / np.exp(logits[0]).sum()
    p1 = np.exp(logits[1]) / np.exp(logits[1]).sum()
    ce = (1.0 * -np.log(p0[1]) + 0.1 * -np.log(p1[0])) / 1.1
    want_cls = cfg.lambda_cls * ce
    want_pts = cfg.lambda_pts * 0.5     # mean per-point L1 = |0.5| per point
    want_bnd = cfg.lambda_bnd * 0.5
    assert parts["loss_cls"] == pytest.approx(want_cls, abs=1e-12)
    assert parts["loss_pts"] == pytest.approx(want_pts, abs=1e-12)
    assert parts["loss_bnd"] == pytest.approx(want_bnd, abs=1e-12)
    assert loss.item() == pytest.approx(want_cls + want_pts + want_bnd, abs=1e-12)


def test_total_loss_mean_over_layers():
    cfg = head_cfg()
    gts = [straight_segment(0.0)]
    good = perfect_outputs(gts, cfg)
    # the bad layer's lane sits in query 1, not 0: a layer matched on another
    # layer's block of queries would be scored on the wrong query
    bad = H.HeadOutput(*(T.Tensor(np.roll(t.data, 1, axis=0)) for t in
                         vars(perfect_outputs([straight_segment(2.0)], cfg)).values()))
    l_good, p_good = H.total_loss(good, gts, cfg)
    l_bad, p_bad = H.total_loss(bad, gts, cfg)
    l_both, p_both = H.total_loss(stack_outputs(good, bad), gts, cfg)
    assert l_bad.item() > l_good.item()
    assert l_both.item() == (l_good.item() + l_bad.item()) / 2
    assert p_both == {k: (p_good[k] + p_bad[k]) / 2 for k in p_both}


@pytest.mark.parametrize("rows", [0, 3, 6])
def test_total_loss_rejects_partial_layer(rows):
    cfg = head_cfg()   # 4 queries per decoder layer
    out = H.HeadOutput(T.Tensor(np.zeros((rows, 3))),
                       *(T.Tensor(np.zeros((rows, cfg.n_points, 2))) for _ in range(3)))
    with pytest.raises(ValueError, match="multiple"):
        H.total_loss(out, [], cfg)


def test_total_loss_geometric_terms_nonnegative(rng):
    cfg = head_cfg()
    for _ in range(10):
        n_q, p = cfg.n_queries, cfg.n_points
        out = H.HeadOutput(T.Tensor(rng.standard_normal((n_q, 3))),
                           T.Tensor(rng.standard_normal((n_q, p, 2))),
                           T.Tensor(rng.standard_normal((n_q, p, 2))),
                           T.Tensor(rng.standard_normal((n_q, p, 2))))
        gts = [straight_segment(rng.uniform(-3, 3))]
        _, parts = H.total_loss(out, gts, cfg)
        assert parts["loss_pts"] >= 0.0
        assert parts["loss_bnd"] >= 0.0


def test_total_loss_gradcheck_through_head(rng):
    from gradcheck import check_gradients
    cfg = head_cfg(n_queries=3, n_points=4)
    params = make_head(cfg, rng)
    params["head/pts/w"] = rng.standard_normal((cfg.embed_dim, cfg.n_points * 2)) * 0.05
    params["head/bnd/w"] = rng.standard_normal((cfg.embed_dim, cfg.n_points * 2)) * 0.05
    gts = [LaneSegment(np.linspace([[-3, -1]], [[3, 1]], cfg.n_points).reshape(-1, 2),
                       np.linspace([[-3, 0.5]], [[3, 2.5]], cfg.n_points).reshape(-1, 2),
                       np.linspace([[-3, -2.5]], [[3, -0.5]], cfg.n_points).reshape(-1, 2),
                       CLASS_LANE)]
    emb = rng.standard_normal((3, cfg.embed_dim)) * 0.5
    refs = rng.standard_normal((3, 2))

    def build(e, r):
        out = H.head_outputs(L.LaneQuerySet(e, r), params, cfg)
        loss, _ = H.total_loss(out, gts, cfg)
        return loss

    check_gradients(build, [emb, refs], rtol=1e-3)
