"""The flat parameter store: params and both Adam moments are views into one
buffer each, and clipping plus Adam over those buffers reproduce the
per-name optimizer below byte for byte."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from lanebev import dataset as D
from lanebev import trainer as TR
from lanebev.config import ExperimentConfig

MICRO = dict(backbone="toy-shallow", embed_dim=16, n_heads=2, n_sample_points=2,
             n_pillar_heights=2, ffn_dim=16, n_encoder_layers=1, n_decoder_layers=1,
             n_queries=6, n_points=4, bev_h=6, bev_w=4, checkpoint_every=1)


@pytest.fixture(scope="module")
def scenes():
    return [D.generate_scene(s, D.scenario_for_seed(s), D.GenParams(frames=2, n_points=4))
            for s in (0, 1)]


# -- oracle: the optimizer as one loop per name --


def oracle_init_adam_state(params):
    return {"step": 0,
            "m": {k: np.zeros_like(v) for k, v in params.items()},
            "v": {k: np.zeros_like(v) for k, v in params.items()}}


def oracle_adam_step(params, grads, state, lr, betas=(0.9, 0.999), eps=1e-8,
                     weight_decay=0.0):
    b1, b2 = betas
    live = [(name, grads[name]) for name in sorted(params) if grads.get(name) is not None]
    for name, g in live:
        if not np.all(np.isfinite(g)):
            raise TR.NonFiniteGradientError(f"non-finite gradient for {name}")
    state["step"] += 1
    t = state["step"]
    for name, g in live:
        m = state["m"][name] = b1 * state["m"][name] + (1 - b1) * g
        v = state["v"][name] = b2 * state["v"][name] + (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        params[name] = params[name] - lr * (m_hat / (np.sqrt(v_hat) + eps)
                                            + weight_decay * params[name])


def oracle_clip_global_norm(grads, max_norm):
    total = np.sqrt(sum(float((grads[k] * grads[k]).sum()) for k in sorted(grads)))
    if total > max_norm:
        scale = max_norm / (total + 1e-12)
        for k in grads:
            grads[k] = grads[k] * scale
    return total


@st.composite
def problems(draw):
    """Sorted names, a shape per name, and the interior names that get no gradient."""
    names = sorted(draw(st.sets(st.text("ab/_", min_size=1, max_size=4), min_size=3, max_size=7)))
    shapes = [tuple(draw(st.lists(st.integers(1, 4), max_size=3))) for _ in names]
    dead = draw(st.sets(st.sampled_from(names[1:-1]), max_size=2))
    return names, shapes, dead


@given(problem=problems(), seed=st.integers(0, 2 ** 32 - 1),
       weight_decay=st.sampled_from([0.0, 0.01]), max_norm=st.sampled_from([1e-3, 1e9]))
@example(problem=(["a", "b", "c"], [(2,), (3, 1), ()], {"b"}), seed=0, weight_decay=0.01,
         max_norm=1e-3)
@example(problem=(["a", "b", "c"], [(2,), (3, 1), ()], set()), seed=0, weight_decay=0.0,
         max_norm=1e9)
def test_flat_optimizer_matches_per_name_oracle(problem, seed, weight_decay, max_norm):
    names, shapes, dead = problem
    rng = np.random.default_rng(seed)
    want = {k: rng.standard_normal(s) for k, s in zip(names, shapes)}
    got = {k: a.copy() for k, a in want.items()}         # packed in place on first use
    want_state, got_state = oracle_init_adam_state(want), TR.init_adam_state(got)
    for step in range(3):
        grads = {k: rng.standard_normal(a.shape) * 10.0 ** rng.integers(-3, 3)
                 for k, a in want.items() if k not in dead}
        want_grads = {k: g.copy() for k, g in grads.items()}
        want_norm = oracle_clip_global_norm(want_grads, max_norm)
        got_norm = TR.clip_global_norm(grads, max_norm)
        assert np.float64(got_norm).tobytes() == np.float64(want_norm).tobytes()
        lr = 1e-2 / (step + 1)
        oracle_adam_step(want, want_grads, want_state, lr, weight_decay=weight_decay)
        TR.adam_step(got, grads, got_state, lr, weight_decay=weight_decay)
        assert got_state["step"] == want_state["step"] == step + 1
        for ours, theirs in ((got, want), (got_state["m"], want_state["m"]),
                             (got_state["v"], want_state["v"])):
            for k in names:
                assert ours[k].shape == theirs[k].shape
                assert ours[k].tobytes() == theirs[k].tobytes(), (step, k)


# -- layout --


def assert_one_buffer(section):
    """Every array views one C-contiguous float64 buffer, end to end in sorted
    name order."""
    names = sorted(section)
    flat = section[names[0]].base
    assert isinstance(flat, np.ndarray) and flat.dtype == np.float64 and flat.ndim == 1
    assert flat.flags.c_contiguous
    start, at = flat.__array_interface__["data"][0], 0
    for k in names:
        a = section[k]
        assert a.base is flat and a.flags.c_contiguous, k
        assert a.__array_interface__["data"][0] == start + at * flat.itemsize, k
        at += a.size
    assert at == flat.size
    return flat


def assert_store(params, adam):
    flats = [assert_one_buffer(s) for s in (params, adam["m"], adam["v"])]
    assert not any(np.shares_memory(a, b) for i, a in enumerate(flats) for b in flats[i + 1:])


def test_train_load_and_init_lay_out_one_buffer_each(tmp_path, scenes):
    cfg = ExperimentConfig(**MICRO, epochs=1)
    _, params, adam = TR.train(cfg, scenes, checkpoint_dir=str(tmp_path))
    assert_store(params, adam)
    ck = TR.load_checkpoint(str(tmp_path / "ckpt_epoch_1.bin"))
    assert_store(ck["params"], ck["adam"])
    plain = {"b": np.ones((2, 3)), "a": np.zeros(4), "c": np.array(5.0)}
    fresh = TR.init_adam_state(plain)
    assert not np.shares_memory(assert_one_buffer(fresh["m"]), assert_one_buffer(fresh["v"]))
    assert all(not a.any() for s in (fresh["m"], fresh["v"]) for a in s.values())


def test_adam_updates_the_arrays_a_caller_holds(rng):
    params = {"a": rng.standard_normal(3), "b": rng.standard_normal((2, 2))}
    state = TR.init_adam_state(params)
    TR.adam_step(params, {k: rng.standard_normal(a.shape) for k, a in params.items()},
                 state, lr=0.1)
    held, before = params["b"], params["b"].copy()
    TR.adam_step(params, {k: rng.standard_normal(a.shape) for k, a in params.items()},
                 state, lr=0.1)
    assert params["b"] is held and not np.array_equal(held, before)
    assert_store(params, state)


def test_resume_keeps_parameters_without_gradient(tmp_path, scenes):
    """dec*/sa/k/b from an older checkpoint get no gradient: they split the
    live runs and keep their value and both moments across the resumed epoch,
    while every other parameter follows the clean checkpoint's trajectory."""
    cfg = ExperimentConfig(**MICRO, epochs=1)
    TR.train(cfg, scenes, checkpoint_dir=str(tmp_path))
    ck = TR.load_checkpoint(str(tmp_path / "ckpt_epoch_1.bin"))
    gen = np.random.default_rng(7)
    sections = (ck["params"], ck["adam"]["m"], ck["adam"]["v"])
    extra = {f"dec{i}/sa/k/b": [np.abs(gen.standard_normal(cfg.embed_dim)) for _ in sections]
             for i in range(cfg.n_decoder_layers)}
    for k, values in extra.items():
        for section, value in zip(sections, values):
            section[k] = value
    old = str(tmp_path / "old.bin")
    TR.save_checkpoint(old, cfg, ck["params"], ck["adam"], ck["rng"],
                       ck["epoch"], ck["step"], ck["wall_seconds"])

    cfg2 = ExperimentConfig(**MICRO, epochs=2)
    _, resumed, adam_r = TR.train(cfg2, scenes, resume_from=old)
    _, want, adam_w = TR.train(cfg2, scenes, resume_from=str(tmp_path / "ckpt_epoch_1.bin"))
    assert adam_r["step"] == adam_w["step"] == 2 * len(scenes)
    assert_store(resumed, adam_r)
    for k, values in extra.items():
        for section, value in zip((resumed, adam_r["m"], adam_r["v"]), values):
            assert section[k].tobytes() == value.tobytes(), k
    for ours, theirs in ((resumed, want), (adam_r["m"], adam_w["m"]), (adam_r["v"], adam_w["v"])):
        assert sorted(theirs) == sorted(k for k in ours if not k.endswith("/sa/k/b"))
        for k in theirs:
            assert ours[k].tobytes() == theirs[k].tobytes(), k
