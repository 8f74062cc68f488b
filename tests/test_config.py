import dataclasses

import pytest

from lanebev.config import (EXPERIMENT_PRESETS, ConfigFileError, ExperimentConfig,
                            apply_overrides, load_config, parse_config_file,
                            preset_config)


def test_defaults_valid():
    cfg = ExperimentConfig()
    assert cfg.n_encoder_layers == 3
    assert cfg.n_decoder_layers == 6


def test_presets_cover_depth_sweep():
    assert set(EXPERIMENT_PRESETS) == {"baseline-3:6", "shallow-backbone", "2:4", "4:8"}
    assert preset_config("2:4").n_decoder_layers == 4
    assert preset_config("4:8").n_encoder_layers == 4
    assert preset_config("shallow-backbone").backbone == "toy-shallow"


def test_unknown_preset():
    with pytest.raises(ConfigFileError, match="unknown preset"):
        preset_config("huge")


def test_invalid_layer_counts():
    with pytest.raises(ConfigFileError):
        ExperimentConfig(n_encoder_layers=0)
    with pytest.raises(ConfigFileError):
        ExperimentConfig(n_decoder_layers=0)
    with pytest.raises(ConfigFileError):
        ExperimentConfig(embed_dim=30, n_heads=5)


@pytest.mark.parametrize("bad", [
    {"bev_h": 0}, {"bev_w": -2}, {"n_queries": 0}, {"n_sample_points": 0},
    {"bev_x_min": 5.0, "bev_x_max": 5.0}, {"bev_x_min": 6.0, "bev_x_max": -6.0},
    {"bev_y_min": 1.0, "bev_y_max": 1.0}, {"bev_y_min": 3.0, "bev_y_max": -3.0},
    {"learning_rate": 0.0}, {"learning_rate": -1e-3}, {"learning_rate": float("nan")},
    {"n_heads": 0}, {"n_heads": -4}, {"embed_dim": 0}, {"embed_dim": -8}, {"ffn_dim": 0},
    {"n_points": 0}, {"n_pillar_heights": 0}, {"image_channels": 0}, {"image_height": 0},
    {"image_width": -1}, {"checkpoint_every": 0}, {"checkpoint_every": -2},
    {"grad_clip": 0.0}, {"grad_clip": -1.0}, {"grad_clip": float("nan")},
    {"beta1": 1.0}, {"beta1": -0.1}, {"beta1": float("nan")}, {"beta2": 1.0}, {"beta2": 1.5},
    {"beta2": -1e-3}, {"adam_eps": 0.0}, {"adam_eps": -1.0}, {"adam_eps": float("nan")},
    {"backbone": "nope"}, {"backbone": ""},
    {"weight_decay": float("nan")}, {"weight_decay": -0.01}, {"lambda_cls": -1.0},
    {"lambda_pts": float("nan")}, {"lambda_bnd": -2.5}, {"lambda_bnd": float("inf")},
    {"background_weight": -1.0}, {"background_weight": float("nan")},
    {"warmup_steps": -5}, {"epochs": -3},
    {"bev_x_min": float("-inf")}, {"bev_x_max": float("inf")}, {"bev_y_max": float("inf")},
    {"seed": -1},
    {"learning_rate": float("inf")}, {"adam_eps": float("inf")},
])
def test_out_of_range_fields_rejected(bad):
    with pytest.raises(ConfigFileError):
        ExperimentConfig(**bad)


def test_config_file_round_trip(tmp_path):
    p = tmp_path / "exp.cfg"
    p.write_text("# comment\nembed_dim = 16\nlearning_rate = 1e-3  # inline\nbackbone = toy-shallow\n")
    cfg = load_config(str(p))
    assert cfg.embed_dim == 16
    assert cfg.learning_rate == pytest.approx(1e-3)
    assert cfg.backbone == "toy-shallow"


def test_config_file_unknown_key(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("flux_capacitor = 3\n")
    with pytest.raises(ConfigFileError, match="unknown key"):
        parse_config_file(str(p))


def test_config_file_not_utf8(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_bytes(b"seed = 1\nbackbone = toy\xff\n")
    with pytest.raises(ConfigFileError, match="bad.cfg: not UTF-8"):
        parse_config_file(str(p))


def test_config_file_bad_value(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("epochs = many\n")
    with pytest.raises(ConfigFileError, match="bad value"):
        parse_config_file(str(p))


def test_overrides():
    cfg = apply_overrides(ExperimentConfig(), ["seed=7", "grad_clip=10.0"])
    assert cfg.seed == 7
    assert cfg.grad_clip == 10.0
    with pytest.raises(ConfigFileError):
        apply_overrides(cfg, ["nonsense"])


def test_hash_ignores_paths_and_epochs():
    a = ExperimentConfig()
    b = dataclasses.replace(a, epochs=99, checkpoint_every=5)
    c = dataclasses.replace(a, seed=1)
    assert a.config_hash() == b.config_hash()
    assert a.config_hash() != c.config_hash()


def test_config_hash_pinned():
    # a changed hash would stop every saved checkpoint from restoring
    assert {name: preset_config(name).config_hash()[:16] for name in EXPERIMENT_PRESETS} == {
        "baseline-3:6": "9ffaaaf82202c1d1", "shallow-backbone": "cec50484b807ae7e",
        "2:4": "0a97c0dbff56472e", "4:8": "82a5dcb43dc5bce0"}


def test_resolved_text_lists_every_field():
    text = ExperimentConfig().resolved_text()
    for f in dataclasses.fields(ExperimentConfig):
        assert f.name in text


def test_boundary_values_accepted():
    # epoch 0 writes an untrained checkpoint; zero decay, weights, betas and seed are valid
    cfg = ExperimentConfig(epochs=0, warmup_steps=0, seed=0, beta1=0.0, beta2=0.0,
                           weight_decay=0.0, lambda_cls=0.0, background_weight=0.0)
    assert cfg.epochs == 0
    assert ExperimentConfig(grad_clip=float("inf")).grad_clip == float("inf")  # no clipping
    for name in ("toy", "toy-shallow", "resnet18-shape", "resnet50-shape"):
        assert ExperimentConfig(backbone=name).backbone == name
