import dataclasses
import os
import struct

import numpy as np
import pytest
from checkpoint_bytes import reseal

from lanebev import dataset as D
from lanebev import trainer as TR
from lanebev.config import EXPERIMENT_PRESETS, ConfigFileError, ExperimentConfig

MICRO = dict(backbone="toy-shallow", embed_dim=16, n_heads=2, n_sample_points=2,
             n_pillar_heights=2, ffn_dim=16, n_encoder_layers=1, n_decoder_layers=1,
             n_queries=6, n_points=4, bev_h=6, bev_w=4, checkpoint_every=1)


@pytest.fixture(scope="module")
def scenes():
    return [D.generate_scene(s, D.scenario_for_seed(s), D.GenParams(frames=2, n_points=4))
            for s in (0, 1)]


def micro_cfg(**kw):
    return ExperimentConfig(**{**MICRO, **kw})


# -- adam --


def test_adam_zero_gradient_no_op():
    params = {"w": np.array([1.0, -2.0])}
    state = TR.init_adam_state(params)
    TR.adam_step(params, {"w": np.zeros(2)}, state, lr=0.1)
    assert np.array_equal(params["w"], [1.0, -2.0])


def test_adam_first_step_is_minus_lr():
    params = {"w": np.array([0.0])}
    state = TR.init_adam_state(params)
    TR.adam_step(params, {"w": np.array([1.0])}, state, lr=0.1, eps=0.0)
    assert params["w"][0] == pytest.approx(-0.1)


def test_adam_three_step_hand_unroll():
    lr, (b1, b2), eps = 0.1, (0.9, 0.999), 1e-8
    grads = [2.0, -1.0, 0.5]
    params = {"w": np.array([0.3])}
    state = TR.init_adam_state(params)
    # independent scalar recurrence
    w, m, v = 0.3, 0.0, 0.0
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        w -= lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
        TR.adam_step(params, {"w": np.array([g])}, state, lr=lr, betas=(b1, b2), eps=eps)
        assert params["w"][0] == pytest.approx(w, abs=1e-15)


def test_adam_decoupled_weight_decay():
    params = {"w": np.array([2.0])}
    state = TR.init_adam_state(params)
    TR.adam_step(params, {"w": np.array([0.0])}, state, lr=0.1, weight_decay=0.01)
    # zero gradient: only the decay term acts, w -= lr * wd * w
    assert params["w"][0] == pytest.approx(2.0 - 0.1 * 0.01 * 2.0)


def test_adam_non_finite_gradient():
    params = {"bad/w": np.array([0.0])}
    state = TR.init_adam_state(params)
    with pytest.raises(TR.NonFiniteGradientError, match="bad/w"):
        TR.adam_step(params, {"bad/w": np.array([np.inf])}, state, lr=0.1)


def test_adam_non_finite_gradient_leaves_state_unchanged(rng):
    params = {"a": rng.standard_normal(3), "b": rng.standard_normal((2, 2)),
              "z": rng.standard_normal(2)}
    state = TR.init_adam_state(params)
    TR.adam_step(params, {k: rng.standard_normal(v.shape) for k, v in params.items()},
                 state, lr=0.1)
    before = {k: v.copy() for k, v in params.items()}
    m, v = ({k: a.copy() for k, a in state[s].items()} for s in ("m", "v"))
    grads = {k: rng.standard_normal(a.shape) for k, a in params.items()}
    grads["z"][1] = np.nan   # the last name in sorted order
    with pytest.raises(TR.NonFiniteGradientError, match="z"):
        TR.adam_step(params, grads, state, lr=0.1)
    assert state["step"] == 1
    for k in params:
        assert np.array_equal(params[k], before[k])
        assert np.array_equal(state["m"][k], m[k])
        assert np.array_equal(state["v"][k], v[k])


def test_clip_global_norm(rng):
    grads = {"a": rng.standard_normal(10) * 100, "b": rng.standard_normal(5) * 100}
    TR.clip_global_norm(grads, 35.0)
    post = np.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    assert post <= 35.0 + 1e-9
    small = {"a": np.array([0.1])}
    TR.clip_global_norm(small, 35.0)
    assert small["a"][0] == 0.1  # under the limit: untouched


# -- log --


def test_trainlog_strictly_increasing(tmp_path):
    log = TR.TrainLog(path=str(tmp_path / "log.csv"))
    parts = {"loss_total": 1.0, "loss_cls": 0.5, "loss_pts": 0.3, "loss_bnd": 0.2}
    stats = dict(grad_norm=2.0, lr=1e-3, clipped=False, fwd_ms=4.0, bwd_ms=5.0, opt_ms=1.0)
    log.record(1, 0, parts, 10.0, **stats)
    log.record(2, 0, parts, 10.0, **stats)
    with pytest.raises(ValueError):
        log.record(2, 0, parts, 10.0, **stats)
    text = (tmp_path / "log.csv").read_text().splitlines()
    assert text[0] == TR.TrainLog.CSV_HEADER
    assert len(text) == 3


def _independent_grad_norm(cfg, scene):
    """Global gradient norm of the first step, recomputed outside the trainer
    from the float32 parameters a fresh run packs; the norm itself in float64."""
    from lanebev.model import init_model_params, scene_loss
    from lanebev.tensor import Tape
    params = init_model_params(cfg, np.random.default_rng(cfg.seed))
    tape = Tape()
    leaves = {k: tape.leaf(v.astype(np.float32)) for k, v in params.items()}
    loss, _ = scene_loss(scene, leaves, cfg)
    tape.backward(loss)
    return np.linalg.norm(np.concatenate([t.grad.ravel() for t in leaves.values()
                                          if t.grad is not None]).astype(np.float64))


def test_trainlog_records_grad_norm_and_lr(scenes):
    cfg = micro_cfg(epochs=1, warmup_steps=4)
    log, _, _ = TR.train(cfg, scenes[:1])
    row = log.steps[0]
    assert row["grad_norm"] == pytest.approx(_independent_grad_norm(cfg, scenes[0]), rel=1e-12)
    assert row["lr"] == cfg.learning_rate / 4            # warm-up step 1 of 4
    assert row["clipped"] == (row["grad_norm"] > cfg.grad_clip)


def test_trainlog_clip_flag(scenes):
    tiny, _, _ = TR.train(micro_cfg(epochs=1, grad_clip=1e-9), scenes)
    huge, _, _ = TR.train(micro_cfg(epochs=1, grad_clip=1e12), scenes)
    assert [r["clipped"] for r in tiny.steps] == [True, True]
    assert [r["clipped"] for r in huge.steps] == [False, False]
    # the logged norm is the pre-clip norm, so it does not depend on grad_clip
    assert tiny.steps[0]["grad_norm"] == huge.steps[0]["grad_norm"]


def test_trainlog_csv_round_trip(tmp_path, scenes):
    import csv
    path = tmp_path / "train_log.csv"
    log, _, _ = TR.train(micro_cfg(epochs=2, grad_clip=1.0), scenes, log_path=str(path))
    with open(path) as f:
        rows = list(csv.DictReader(f))
    assert list(rows[0]) == TR.TrainLog.CSV_HEADER.split(",")
    assert len(rows) == len(log.steps) == 4
    for got, want in zip(rows, log.steps):
        assert (int(got["step"]), int(got["epoch"])) == (want["step"], want["epoch"])
        for key in ("loss_total", "loss_cls", "loss_pts", "loss_bnd"):
            assert float(got[key]) == pytest.approx(want[key], rel=1e-8)   # written at 9 digits
        assert float(got["grad_norm"]) == want["grad_norm"]                 # written exactly
        assert float(got["lr"]) == want["lr"]
        assert bool(int(got["clipped"])) is want["clipped"]


def test_trainlog_stage_times(tmp_path, scenes):
    import csv
    path = tmp_path / "train_log.csv"
    log, _, _ = TR.train(micro_cfg(epochs=1), scenes, log_path=str(path))
    with open(path) as f:
        rows = list(csv.DictReader(f))
    stages = ("fwd_ms", "bwd_ms", "opt_ms")
    assert list(rows[0])[-3:] == list(stages)
    for got, want in zip(rows, log.steps):
        for key in stages:
            assert float(got[key]) > 0.0
            assert float(got[key]) == pytest.approx(want[key], abs=5e-4)   # written at 3 decimals
        assert sum(want[key] for key in stages) <= want["wall_ms"]


# -- checkpoints --


def test_checkpoint_round_trip_bit_exact(tmp_path, rng):
    cfg = micro_cfg()
    params = {"a/w": rng.standard_normal((3, 4)), "b": rng.standard_normal(5)}
    adam = TR.init_adam_state(params)
    adam["step"] = 17
    adam["m"]["a/w"] += 0.25
    gen = np.random.default_rng(123)
    gen.standard_normal(7)  # advance, so the state is nontrivial
    path = str(tmp_path / "ck.bin")
    TR.save_checkpoint(path, cfg, params, adam, gen, epoch=3, step=42, wall_seconds=1.5)
    ck = TR.load_checkpoint(path)
    assert ck["config_hash"] == cfg.config_hash()
    assert (ck["epoch"], ck["step"], ck["wall_seconds"]) == (3, 42, 1.5)
    for k in params:
        assert np.array_equal(ck["params"][k], params[k])
        assert np.array_equal(ck["adam"]["m"][k], adam["m"][k])
        assert np.array_equal(ck["adam"]["v"][k], adam["v"][k])
    assert ck["adam"]["step"] == 17
    # restored RNG continues the exact stream
    assert ck["rng"].standard_normal(5).tolist() == gen.standard_normal(5).tolist()


def test_checkpoint_save_load_save_byte_identical(tmp_path, rng):
    cfg = micro_cfg()
    params = {"w": rng.standard_normal((2, 2))}
    adam = TR.init_adam_state(params)
    gen = np.random.default_rng(0)
    p1, p2 = str(tmp_path / "1.bin"), str(tmp_path / "2.bin")
    TR.save_checkpoint(p1, cfg, params, adam, gen, 1, 2, 3.0)
    ck = TR.load_checkpoint(p1)
    TR.save_checkpoint(p2, cfg, ck["params"], ck["adam"], ck["rng"],
                       ck["epoch"], ck["step"], ck["wall_seconds"])
    with open(p1, "rb") as f1, open(p2, "rb") as f2:
        assert f1.read() == f2.read()


def test_checkpoint_truncated(tmp_path, rng):
    cfg = micro_cfg()
    path = str(tmp_path / "ck.bin")
    params = {"w": rng.standard_normal(4)}
    TR.save_checkpoint(path, cfg, params, TR.init_adam_state(params),
                       np.random.default_rng(0), 0, 0, 0.0)
    data = open(path, "rb").read()
    open(path, "wb").write(data[:-20])
    with pytest.raises(TR.CheckpointError, match="truncated"):
        TR.load_checkpoint(path)


def _small_checkpoint(tmp_path, rng):
    path = str(tmp_path / "ck.bin")
    params = {"a/w": rng.standard_normal((2, 3)), "b": rng.standard_normal(4)}
    TR.save_checkpoint(path, micro_cfg(), params, TR.init_adam_state(params),
                       np.random.default_rng(0), 1, 2, 3.0)
    with open(path, "rb") as f:
        return path, f.read()


def test_checkpoint_truncated_at_every_offset(tmp_path, rng):
    path, data = _small_checkpoint(tmp_path, rng)
    for cut in range(len(data)):
        with open(path, "wb") as f:
            f.write(data[:cut])
        with pytest.raises(TR.CheckpointError) as exc:
            TR.load_checkpoint(path)
        # every message names the file, once, as its prefix
        assert str(exc.value).startswith(path + ": ") and str(exc.value).count(path) == 1


def test_checkpoint_trailing_bytes(tmp_path, rng):
    path, data = _small_checkpoint(tmp_path, rng)
    with open(path, "ab") as f:
        f.write(b"\0")
    with pytest.raises(TR.CheckpointError, match="trailing"):
        TR.load_checkpoint(path)


# header layout: magic (4), version (4), config-hash length (8) and hash
# (64 hex digits), epoch/step/wall (24), RNG length (8) and RNG blob (60)
HASH_LEN_AT = 8
RNG_LEN_AT = HASH_LEN_AT + 8 + 64 + 24


def test_checkpoint_corrupt_length_prefix(tmp_path, rng):
    path, data = _small_checkpoint(tmp_path, rng)
    with open(path, "wb") as f:
        f.write(data[:HASH_LEN_AT] + struct.pack("<Q", 2 ** 62) + data[HASH_LEN_AT + 8:])
    with pytest.raises(TR.CheckpointError, match="length prefix"):
        TR.load_checkpoint(path)


def test_checkpoint_config_hash_not_utf8(tmp_path, rng):
    path, data = _small_checkpoint(tmp_path, rng)
    hash_at = HASH_LEN_AT + 8
    with open(path, "wb") as f:
        f.write(data[:hash_at] + b"\xff" + data[hash_at + 1:])
    with pytest.raises(TR.CheckpointError, match="config hash is not UTF-8"):
        TR.load_checkpoint(path)


def test_checkpoint_short_rng_blob(tmp_path, rng):
    path, data = _small_checkpoint(tmp_path, rng)
    blob = RNG_LEN_AT + 8
    assert struct.unpack_from("<Q", data, RNG_LEN_AT) == (60,)
    with open(path, "wb") as f:
        f.write(data[:RNG_LEN_AT] + struct.pack("<Q", 10) + data[blob:blob + 10]
                + data[blob + 60:])
    with pytest.raises(TR.CheckpointError, match="RNG state is 10 bytes"):
        TR.load_checkpoint(path)


# the name table follows the RNG blob and its name count (8); its first
# record ("a/w", shape (2, 3)): name length (8), name (3), ndim (4), shape;
# then "b" (4,) (21 bytes), the element width (4) and the Adam step (8), and
# the three sections' length-prefixed payloads of 10 float64s each
NAME_AT = RNG_LEN_AT + 8 + 60 + 8 + 8
SHAPE_AT = NAME_AT + 3 + 4
PARAMS_LEN_AT = SHAPE_AT + 16 + 21 + 4 + 8
V_AT = PARAMS_LEN_AT + 2 * (8 + 80) + 8   # the first second moment


@pytest.mark.parametrize("at, new", [
    (SHAPE_AT, struct.pack("<Q", 5)),   # 5 x 3 + 4 elements do not fit the 10 stored
    (NAME_AT, b"\xff\xfe\xfd"),         # not UTF-8
])
def test_checkpoint_corrupt_array_record(tmp_path, rng, at, new):
    """Each defect fails the structural checks even under a valid CRC."""
    path, data = _small_checkpoint(tmp_path, rng)
    assert data[NAME_AT:NAME_AT + 3] == b"a/w"
    assert struct.unpack_from("<QQ", data, SHAPE_AT) == (2, 3)
    with open(path, "wb") as f:
        f.write(reseal(data[:at] + new + data[at + len(new):]))
    with pytest.raises(TR.CheckpointError, match="corrupt array record"):
        TR.load_checkpoint(path)


def test_checkpoint_payload_not_whole_elements(tmp_path, rng):
    """A parameter payload one byte short, 79 bytes, under its own length
    prefix and a valid CRC: not a whole number of float64s."""
    path, data = _small_checkpoint(tmp_path, rng)
    assert struct.unpack_from("<IQQ", data, PARAMS_LEN_AT - 12) == (8, 0, 80)
    payload_at = PARAMS_LEN_AT + 8
    with open(path, "wb") as f:
        f.write(reseal(data[:PARAMS_LEN_AT] + struct.pack("<Q", 79) + data[payload_at + 1:]))
    with pytest.raises(TR.CheckpointError, match="corrupt array record: payloads of .79, 80, 80."):
        TR.load_checkpoint(path)


def test_checkpoint_names_strictly_increase(tmp_path):
    """A repeated name would drop a parameter; the table lists each name once,
    in the sorted order the payloads are laid out in."""
    path = str(tmp_path / "ck.bin")
    params = {"a": np.arange(3.0), "b": np.arange(2.0)}
    TR.save_checkpoint(path, micro_cfg(), params, TR.init_adam_state(params),
                       np.random.default_rng(0), 1, 2, 3.0)
    data = open(path, "rb").read()
    b_at = NAME_AT + 1 + 4 + 8 + 8   # after "a"'s record: name, ndim, one dimension
    assert data[NAME_AT:NAME_AT + 1] == b"a" and data[b_at:b_at + 1] == b"b"
    for name in (b"a", b"A"):   # repeated, then out of order
        with open(path, "wb") as f:
            f.write(reseal(data[:b_at] + name + data[b_at + 1:]))
        with pytest.raises(TR.CheckpointError, match="corrupt array record: '.' after 'a'"):
            TR.load_checkpoint(path)


def test_checkpoint_every_bit_flip_raises(tmp_path, rng):
    path, data = _small_checkpoint(tmp_path, rng)
    for at in range(len(data)):
        for bit in range(8):
            with open(path, "wb") as f:
                f.write(data[:at] + bytes([data[at] ^ 1 << bit]) + data[at + 1:])
            with pytest.raises(TR.CheckpointError):
                TR.load_checkpoint(path)


def test_checkpoint_values_checked_under_a_valid_crc(tmp_path, rng):
    """A crafted file whose CRC matches still fails the value checks."""
    path, data = _small_checkpoint(tmp_path, rng)
    params_at = PARAMS_LEN_AT + 8
    assert data[V_AT:V_AT + 8] == bytes(8)
    for at, value, message in ((params_at, np.nan, "parameter 'a/w' is non-finite"),
                               (V_AT, -1.0, "Adam v 'a/w' is non-finite or negative")):
        with open(path, "wb") as f:
            f.write(reseal(data[:at] + struct.pack("<d", value) + data[at + 8:]))
        with pytest.raises(TR.CheckpointError, match=message):
            TR.load_checkpoint(path)


def test_checkpoint_moment_shape_must_match_parameter(tmp_path, rng):
    """A (1,) moment for a (3,) bias would broadcast through Adam unnoticed;
    the file has one shape per name, so saving refuses it and writes nothing."""
    path = str(tmp_path / "ck.bin")
    params = {"a/w": rng.standard_normal((2, 3)), "b": rng.standard_normal(3)}
    adam = TR.init_adam_state(params)
    adam["v"]["b"] = np.zeros(1)
    with pytest.raises(TR.CheckpointError, match="Adam v disagrees .* at 'b'"):
        TR.save_checkpoint(path, micro_cfg(), params, adam, np.random.default_rng(0), 1, 2, 3.0)
    del adam["v"]["b"]
    with pytest.raises(TR.CheckpointError, match="Adam v disagrees .* at 'b'"):
        TR.save_checkpoint(path, micro_cfg(), params, adam, np.random.default_rng(0), 1, 2, 3.0)
    assert os.listdir(tmp_path) == []


def _float32_state(rng):
    params = {"a/w": rng.standard_normal((2, 3)), "b": rng.standard_normal(4)}
    params = {k: a.astype(np.float32) for k, a in params.items()}
    adam = TR.init_adam_state(params)
    for section in (adam["m"], adam["v"]):
        for a in section.values():
            a[...] = np.abs(rng.standard_normal(a.shape))
    return params, adam


def test_checkpoint_float32_round_trip_bit_exact(tmp_path, rng):
    """float32 params and moments are saved as <f4, half the payload bytes of
    <f8, and load back float32 and bit-equal."""
    params, adam = _float32_state(rng)
    assert {a.dtype for s in (params, adam["m"], adam["v"]) for a in s.values()} == {np.dtype(np.float32)}
    path, wide = str(tmp_path / "ck.bin"), str(tmp_path / "f64.bin")
    TR.save_checkpoint(path, micro_cfg(), params, adam, np.random.default_rng(0), 1, 2, 3.0)
    ck = TR.load_checkpoint(path)
    for got, want in ((ck["params"], params), (ck["adam"]["m"], adam["m"]),
                      (ck["adam"]["v"], adam["v"])):
        assert sorted(got) == sorted(want)
        for k in want:
            assert got[k].dtype == np.float32 and got[k].tobytes() == want[k].tobytes(), k
    as64 = {k: a.astype(np.float64) for k, a in params.items()}
    TR.save_checkpoint(wide, micro_cfg(), as64, TR.init_adam_state(as64),
                       np.random.default_rng(0), 1, 2, 3.0)
    assert os.path.getsize(wide) - os.path.getsize(path) == 3 * 10 * 4


def test_checkpoint_mixing_f4_and_f8_payloads_raises(tmp_path, rng):
    """The file holds one element width, so saving refuses mixed dtypes and
    writes nothing."""
    params, adam = _float32_state(rng)
    path = str(tmp_path / "ck.bin")
    for mixed in ({**adam, "v": {k: a.astype(np.float64) for k, a in adam["v"].items()}},
                  {**adam, "m": {**adam["m"], "b": adam["m"]["b"].astype(np.float64)}}):
        with pytest.raises(TR.CheckpointError, match="one dtype"):
            TR.save_checkpoint(path, micro_cfg(), params, mixed, np.random.default_rng(0), 1, 2, 3.0)
    assert os.listdir(tmp_path) == []


def test_failed_save_leaves_no_temp_file(tmp_path, rng):
    path, data = _small_checkpoint(tmp_path, rng)
    params = {"w": np.ones(2)}
    with pytest.raises(TR.CheckpointError, match="unsupported RNG MT19937"):
        TR.save_checkpoint(path, micro_cfg(), params, TR.init_adam_state(params),
                           np.random.Generator(np.random.MT19937(0)), 1, 2, 3.0)
    assert os.listdir(tmp_path) == ["ck.bin"]
    assert open(path, "rb").read() == data


def test_checkpoint_versions_1_and_2_are_refused(tmp_path, rng):
    """Versions 1 and 2 stored one record per array and no checksum; there is
    no reader for them."""
    path, data = _small_checkpoint(tmp_path, rng)
    assert data[4:8] == struct.pack("<I", 3)
    for version in (1, 2):
        with open(path, "wb") as f:
            f.write(reseal(data[:4] + struct.pack("<I", version) + data[8:]))
        with pytest.raises(TR.CheckpointError, match=f"unsupported checkpoint version {version}"):
            TR.load_checkpoint(path)


def test_checkpoint_keeps_0d_shape(tmp_path):
    params = {"a": np.array(3.0), "b": np.ones(2)}
    path = str(tmp_path / "ck.bin")
    TR.save_checkpoint(path, micro_cfg(), params, TR.init_adam_state(params),
                       np.random.default_rng(0), 1, 2, 3.0)
    ck = TR.load_checkpoint(path)
    for section in (ck["params"], ck["adam"]["m"], ck["adam"]["v"]):
        assert section["a"].shape == () and section["b"].shape == (2,)
    assert ck["params"]["a"] == 3.0


def test_restore_checkpoint_checks_config_hash(tmp_path, rng):
    path, _ = _small_checkpoint(tmp_path, rng)
    assert TR.restore_checkpoint(path, micro_cfg(epochs=7))["step"] == 2
    with pytest.raises(TR.ConfigHashMismatchError, match="hash"):
        TR.restore_checkpoint(path, micro_cfg(seed=5))


def test_checkpoint_bad_magic(tmp_path):
    path = str(tmp_path / "junk.bin")
    open(path, "wb").write(b"not a checkpoint")
    with pytest.raises(TR.CheckpointError, match="not a checkpoint"):
        TR.load_checkpoint(path)


# -- training --


def test_train_empty_dataset():
    with pytest.raises(ValueError, match="empty"):
        TR.train(micro_cfg(), [])


def test_train_zero_epochs(tmp_path, scenes):
    cfg = micro_cfg(epochs=0)
    log, params, adam = TR.train(cfg, scenes, checkpoint_dir=str(tmp_path))
    assert log.steps == []
    assert adam["step"] == 0
    assert os.path.exists(tmp_path / "ckpt_epoch_0.bin")


def test_train_deterministic_losses(scenes):
    cfg = micro_cfg(epochs=2)
    log1, p1, _ = TR.train(cfg, scenes)
    log2, p2, _ = TR.train(cfg, scenes)
    assert log1.losses() == log2.losses()
    for k in p1:
        assert np.array_equal(p1[k], p2[k])


def test_train_resume_bit_identical(tmp_path, scenes):
    cfg4 = micro_cfg(epochs=4, checkpoint_every=2)
    _, straight, adam_s = TR.train(cfg4, scenes)

    cfg2 = dataclasses.replace(cfg4, epochs=2)
    TR.train(cfg2, scenes, checkpoint_dir=str(tmp_path))
    _, resumed, adam_r = TR.train(cfg4, scenes, resume_from=str(tmp_path / "ckpt_epoch_2.bin"))
    assert sorted(straight) == sorted(resumed)
    for k in straight:
        assert np.array_equal(straight[k], resumed[k]), k
    for k in straight:
        assert np.array_equal(adam_s["m"][k], adam_r["m"][k])
        assert np.array_equal(adam_s["v"][k], adam_r["v"][k])


def test_checkpoint_with_decoder_key_bias_still_loads(tmp_path, scenes):
    """Checkpoints saved while the decoder self-attention had a key bias carry
    dec*/sa/k/b in all three sections; the model never reads them."""
    from lanebev.model import predict_scene
    cfg = micro_cfg(epochs=1)
    TR.train(cfg, scenes, checkpoint_dir=str(tmp_path))
    ck = TR.load_checkpoint(str(tmp_path / "ckpt_epoch_1.bin"))
    assert not any(k.endswith("/sa/k/b") for k in ck["params"])
    gen = np.random.default_rng(7)
    for section in (ck["params"], ck["adam"]["m"], ck["adam"]["v"]):
        for i in range(cfg.n_decoder_layers):   # in the checkpoint's dtype
            section[f"dec{i}/sa/k/b"] = np.abs(gen.standard_normal(cfg.embed_dim)).astype(
                section["dec/query"].dtype)
    old = str(tmp_path / "old.bin")
    TR.save_checkpoint(old, cfg, ck["params"], ck["adam"], ck["rng"],
                       ck["epoch"], ck["step"], ck["wall_seconds"])

    restored = TR.restore_checkpoint(old, cfg)
    assert "dec0/sa/k/b" in restored["params"]
    clean = {k: v for k, v in restored["params"].items() if not k.endswith("/sa/k/b")}
    assert predict_scene(scenes[0], restored["params"], cfg) == predict_scene(scenes[0], clean, cfg)

    cfg2 = micro_cfg(epochs=2)
    _, resumed, _ = TR.train(cfg2, scenes, resume_from=old)
    _, want, _ = TR.train(cfg2, scenes, resume_from=str(tmp_path / "ckpt_epoch_1.bin"))
    assert sorted(want) == sorted(clean)
    for k in want:
        assert np.array_equal(resumed[k], want[k]), k


def test_resume_hash_mismatch(tmp_path, scenes):
    cfg = micro_cfg(epochs=1)
    TR.train(cfg, scenes, checkpoint_dir=str(tmp_path))
    other = micro_cfg(epochs=2, seed=99)
    with pytest.raises(TR.ConfigHashMismatchError, match="hash"):
        TR.train(other, scenes, resume_from=str(tmp_path / "ckpt_epoch_1.bin"))


def test_resume_drop_optimizer_state_changes_trajectory(tmp_path, scenes):
    cfg = micro_cfg(epochs=3, checkpoint_every=2)
    log_straight, _, _ = TR.train(cfg, scenes)
    cfg2 = dataclasses.replace(cfg, epochs=2)
    TR.train(cfg2, scenes, checkpoint_dir=str(tmp_path))
    log_drop, _, _ = TR.train(cfg, scenes, resume_from=str(tmp_path / "ckpt_epoch_2.bin"),
                              drop_optimizer_state=True)
    straight_tail = log_straight.losses()[2 * len(scenes):]
    assert log_drop.losses() != straight_tail


def test_resume_drop_rng_state_reseeds_epoch_order(tmp_path, monkeypatch):
    """drop_rng_state draws the resumed epoch's order from default_rng(cfg.seed);
    without it, the checkpoint's generator continues."""
    scenes4 = [D.generate_scene(s, D.scenario_for_seed(s), D.GenParams(frames=1, n_points=4))
               for s in range(4)]
    ids = sorted(s.scene_id for s in scenes4)
    cfg = micro_cfg(n_queries=16)    # room for every scene's groundtruth
    TR.train(dataclasses.replace(cfg, epochs=1), scenes4, checkpoint_dir=str(tmp_path))
    ck = str(tmp_path / "ckpt_epoch_1.bin")
    seen = []
    step = TR._train_step
    monkeypatch.setattr(TR, "_train_step",
                        lambda scene, *a: seen.append(scene.scene_id) or step(scene, *a))
    orders = {}
    for drop in (False, True):
        seen.clear()
        TR.train(dataclasses.replace(cfg, epochs=2), scenes4, resume_from=ck, drop_rng_state=drop)
        orders[drop] = list(seen)
    reseeded = [ids[i] for i in np.random.default_rng(cfg.seed).permutation(4)]
    kept = [ids[i] for i in TR.load_checkpoint(ck)["rng"].permutation(4)]
    assert reseeded != kept
    assert orders == {True: reseeded, False: kept}


def test_train_rejects_polylines_unlike_n_points(tmp_path, scenes):
    """4-point groundtruth under n_points = 10 fails before the first step."""
    with pytest.raises(ConfigFileError, match=r"\[4\] points, but n_points = 10"):
        TR.train(micro_cfg(n_points=10), scenes, checkpoint_dir=str(tmp_path / "ck"))
    assert not (tmp_path / "ck").exists()


def test_train_rejects_more_segments_than_queries(tmp_path, scenes):
    """A frame with more groundtruth segments than n_queries fails before the first step."""
    most = max(len(gts) for s in scenes for gts in s.groundtruth)
    with pytest.raises(ConfigFileError,
                       match=f"a frame has {most} groundtruth segments, but n_queries = {most - 1}"):
        TR.train(micro_cfg(n_queries=most - 1), scenes, checkpoint_dir=str(tmp_path / "ck"))
    assert not (tmp_path / "ck").exists()


def test_epoch_wall_time_accounting(scenes):
    cfg = micro_cfg(epochs=1)
    log, _, _ = TR.train(cfg, scenes)
    step_sum = sum(r["wall_ms"] for r in log.steps) / 1e3
    assert len(log.epoch_seconds) == 1
    assert step_sum <= log.epoch_seconds[0]
    assert step_sum >= 0.95 * log.epoch_seconds[0] - 0.05


def test_suite_table_structure(scenes):
    rows = TR.run_experiment_suite(scenes, scenes, micro_cfg(epochs=1))
    assert [r["preset"] for r in rows] == list(EXPERIMENT_PRESETS)
    table = TR.format_suite_table(rows)
    lines = table.splitlines()
    assert len(lines) == 5
    assert "sec/epoch" in lines[0]
    # the step-time medians trail the original four columns, and the matched Chamfer them
    assert lines[0].split() == ["preset", "epochs", "sec/epoch", "mAP", *TR.STEP_MS, "chamfer"]
    for r, line in zip(rows, lines[1:]):
        assert 0.0 <= r["map"] <= 1.0
        assert r["sec_per_epoch"] > 0
        assert r["fwd_ms"] > 0 and r["bwd_ms"] > 0 and r["opt_ms"] > 0
        assert r["wall_ms"] >= max(r["fwd_ms"], r["bwd_ms"], r["opt_ms"])
        assert line.split()[:2] == [r["preset"], str(r["epochs"])]
        assert [float(v) for v in line.split()[4:-1]] == [round(r[k], 1) for k in TR.STEP_MS]
        assert line.split()[-1] == f"{r['chamfer']:.3f}"
