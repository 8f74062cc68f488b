import numpy as np
import pytest

from lanebev import dataset as D
from lanebev import model as M
from lanebev import tensor as T
from lanebev.bev_encoder import EgoMotion
from lanebev.config import ExperimentConfig

MICRO = dict(backbone="toy-shallow", embed_dim=16, n_heads=2, n_sample_points=2,
             n_pillar_heights=2, ffn_dim=16, n_encoder_layers=1, n_decoder_layers=1,
             n_queries=6, n_points=4, bev_h=6, bev_w=4)


@pytest.fixture(scope="module")
def scene():
    return D.generate_scene(1, "straight", D.GenParams(frames=2, n_points=4))


@pytest.fixture(scope="module")
def cfg():
    return ExperimentConfig(**MICRO)


@pytest.fixture(scope="module")
def params(cfg):
    return M.init_model_params(cfg, np.random.default_rng(0))


def test_forward_frame_shapes(scene, cfg, params):
    frame = scene.frames[0]
    qsets, bev = M.forward_frame(frame.images, frame.cameras, None, EgoMotion(),
                                 params, cfg)
    assert len(qsets) == cfg.n_decoder_layers
    outs = [M.head_outputs(q, params, cfg) for q in qsets]
    assert outs[-1].cls_logits.shape == (cfg.n_queries, 3)
    assert outs[-1].centerline.shape == (cfg.n_queries, cfg.n_points, 2)
    assert bev.shape == (cfg.bev_h * cfg.bev_w, cfg.embed_dim)


def test_scene_loss_finite_and_deterministic(scene, cfg, params):
    l1, parts1 = M.scene_loss(scene, params, cfg)
    l2, parts2 = M.scene_loss(scene, params, cfg)
    assert np.isfinite(l1.data)
    assert l1.item() == l2.item()
    assert parts1 == parts2
    assert parts1["loss_total"] == pytest.approx(
        parts1["loss_cls"] + parts1["loss_pts"] + parts1["loss_bnd"], rel=1e-9)


def test_scene_loss_one_head_pass_per_frame(scene, count_calls):
    cfg = ExperimentConfig(**{**MICRO, "n_decoder_layers": 3})
    params = M.init_model_params(cfg, np.random.default_rng(0))
    counts = count_calls(M, "head_outputs", "total_loss")
    loss, _ = M.scene_loss(scene, params, cfg)
    assert counts["model.head_outputs"] == counts["model.total_loss"] == len(scene.frames)
    # the stacked pass scores every layer: the mean of the per-layer losses
    per_frame = []
    for t, qsets in enumerate(M._run_scene(scene, params, cfg)):
        layers = [M.total_loss(M.head_outputs(q, params, cfg), scene.groundtruth[t], cfg)[0]
                  for q in qsets]
        per_frame.append(np.mean([layer.item() for layer in layers]))
    assert loss.item() == pytest.approx(np.mean(per_frame), rel=1e-12)


def test_history_changes_later_frames(scene, cfg, params):
    # frame 1 with threaded history vs frame 1 treated as a sequence start
    frame0, frame1 = scene.frames[0], scene.frames[1]
    _, bev0 = M.forward_frame(frame0.images, frame0.cameras, None, EgoMotion(),
                              params, cfg)
    hist = bev0.detach()
    qsets_hist, _ = M.forward_frame(frame1.images, frame1.cameras, hist,
                                    M._frame_motion(scene, 1), params, cfg)
    qsets_cold, _ = M.forward_frame(frame1.images, frame1.cameras, None,
                                    EgoMotion(), params, cfg)
    logits_hist = M.head_outputs(qsets_hist[-1], params, cfg).cls_logits.data
    logits_cold = M.head_outputs(qsets_cold[-1], params, cfg).cls_logits.data
    assert not np.allclose(logits_hist, logits_cold)


def test_gradients_reach_every_stage(scene, cfg, params):
    tape = T.Tape()
    leaves = {k: tape.leaf(v) for k, v in params.items()}
    loss, _ = M.scene_loss(scene, leaves, cfg)
    tape.backward(loss)
    # one representative parameter per pipeline stage must receive gradient
    probes = [k for k in ("head/cls/w", "dec/query", "bev/query")
              if k in leaves]
    probes += [k for k in leaves if k.startswith("stem")][:1]
    probes += [k for k in leaves if k.startswith("enc0/sca")][:1]
    probes += [k for k in leaves if k.startswith("dec0/ca")][:1]
    assert len(probes) >= 6
    for k in probes:
        g = leaves[k].grad
        assert g is not None and np.abs(g).max() > 0, k


def test_loss_gradient_spot_check_finite_difference(scene, cfg, params):
    # >= 20 randomly chosen scalar parameters across the model
    rng = np.random.default_rng(7)
    names = sorted(params)
    checked = 0
    h = 1e-5
    # single frame: finite differences through a full scene would also flow
    # through the deliberately detached history BEV and disagree by design
    def frame_loss(p):
        frame = scene.frames[0]
        qsets, _ = M.forward_frame(frame.images, frame.cameras, None, EgoMotion(),
                                   p, cfg)
        out = M.head_outputs(M.stack_layers(qsets), p, cfg)
        return M.total_loss(out, scene.groundtruth[0], cfg)[0]

    tape = T.Tape()
    leaves = {k: tape.leaf(v) for k, v in params.items()}
    tape.backward(frame_loss(leaves))

    def central_diff(name, j, step):
        flat = params[name].reshape(-1)
        orig = flat[j]
        flat[j] = orig + step
        hi = frame_loss(params)
        flat[j] = orig - step
        lo = frame_loss(params)
        flat[j] = orig
        return (hi.item() - lo.item()) / (2 * step)

    attempts = 0
    while checked < 20:
        assert attempts < 40, "too many nonsmooth sample points"
        attempts += 1
        name = names[rng.integers(len(names))]
        j = int(rng.integers(params[name].size))
        analytic = leaves[name].grad.reshape(-1)[j] if leaves[name].grad is not None else 0.0
        fd = central_diff(name, j, h)
        fd_small = central_diff(name, j, h / 8)
        if abs(fd - fd_small) > 1e-4 * max(abs(fd), abs(fd_small), 1e-6):
            # finite differences straddle a kink (relu, L1, pooling argmax,
            # matching flip); the estimate itself is unreliable here
            continue
        scale = max(abs(fd), abs(analytic), 1e-6)
        assert abs(fd - analytic) / scale < 1e-3, (name, j, fd, analytic)
        checked += 1


def test_predict_scene_keys(scene, cfg, params):
    preds = M.predict_scene(scene, params, cfg)
    assert set(preds) == {f"{scene.scene_id}/frame_{t}" for t in range(len(scene.frames))}
    for segs in preds.values():
        assert len(segs) == cfg.n_queries


def test_scene_runner_matches_frames_threaded_by_hand(scene, cfg, params):
    # one runner: scene_loss and predict_scene must equal forward_frame
    # threaded frame by frame with a detached history
    history, losses, preds = None, [], {}
    for t, frame in enumerate(scene.frames):
        qsets, bev = M.forward_frame(frame.images, frame.cameras, history,
                                     M._frame_motion(scene, t), params, cfg)
        out = M.head_outputs(M.stack_layers(qsets), params, cfg)
        losses.append(M.total_loss(out, scene.groundtruth[t], cfg)[0].item())
        preds[f"{scene.scene_id}/frame_{t}"] = M.predict(qsets[-1], params, cfg)
        history = bev.detach()
    assert len(losses) == 2
    assert M.scene_loss(scene, params, cfg)[0].item() == np.mean(losses)
    got = M.predict_scene(scene, params, cfg)
    assert list(got) == list(preds)
    for key, segs in preds.items():
        for a, b in zip(got[key], segs, strict=True):
            assert (a.class_id, a.score) == (b.class_id, b.score)
            for field in ("centerline", "left_boundary", "right_boundary"):
                assert np.array_equal(getattr(a, field), getattr(b, field))


def test_groundtruth_by_frame(scene):
    gts = M.groundtruth_by_frame([scene])
    assert len(gts) == len(scene.frames)
    assert gts[f"{scene.scene_id}/frame_0"] == scene.groundtruth[0]
