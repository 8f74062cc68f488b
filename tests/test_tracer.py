"""Smoke test of the benchmark's tracer (perfbench/tracer.py) on a tiny
config: every wrap point fires, and the deformable-attention counters see
spatial cross-attention's kernel calls."""

import importlib.util
from pathlib import Path

import numpy as np

from lanebev import bev_encoder as E
from lanebev import dataset as D
from lanebev import evaluation as EV
from lanebev import model as M
from lanebev import trainer as TR
from lanebev.config import ExperimentConfig

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_measures_one_train_step_and_one_prediction(tmp_path):
    cfg = ExperimentConfig(backbone="toy-shallow", embed_dim=16, n_heads=2, n_sample_points=2,
                           n_pillar_heights=2, ffn_dim=16, n_encoder_layers=1,
                           n_decoder_layers=1, n_queries=5, bev_h=6, bev_w=4, epochs=1)
    D.save_dataset([D.generate_scene(0, D.scenario_for_seed(0), D.GenParams(frames=2))],
                   tmp_path / "data")
    # the tracer patches module attributes, so every call below goes through a module
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        tracer.active = True
        scene, = D.load_dataset(tmp_path / "data")
        TR.train(cfg, [scene], checkpoint_dir=tmp_path / "ck")        # one step
        params = TR.load_checkpoint(tmp_path / "ck" / "ckpt_epoch_1.bin")["params"]
        EV.evaluate(M.predict_scene(scene, params, cfg), M.groundtruth_by_frame([scene]))
        tracer.active = False
    finally:
        tracer.uninstall()

    assert tracer.missing() == []
    counts = tracer.counts[None]
    # the benchmark's expected_call_counts: clipping and Adam are two calls per step
    assert counts["trainer.optimizer.calls"] == 2
    assert counts["trainer.checkpoint_save.calls"] == 1
    frames = 2 * len(scene.frames)                                    # train, then predict
    sca_calls = cfg.n_encoder_layers * frames
    assert counts["bev_encoder.sca.calls"] == sca_calls
    assert counts["bev_encoder.sca.queries_attended"] == sca_calls * cfg.bev_h * cfg.bev_w
    # every camera that sees a cell makes one kernel call per SCA call; TSA
    # and every decoder layer make one per frame
    spec = E.BEVGridSpec(cfg.bev_h, cfg.bev_w, cfg.bev_x_min, cfg.bev_x_max, cfg.bev_y_min,
                         cfg.bev_y_max)
    _, hits = E.projected_references(spec, scene.frames[0].cameras,
                                     E.pillar_heights(cfg.n_pillar_heights))
    seen = sum(bool(m.any()) for m in hits)
    assert seen > 0
    assert counts["deform.bilinear_calls"] == (sca_calls * seen
                                               + frames * (cfg.n_encoder_layers
                                                           + cfg.n_decoder_layers))
    assert counts["bev_encoder.sca.queries_hit"] == sca_calls * int(np.sum(hits))
