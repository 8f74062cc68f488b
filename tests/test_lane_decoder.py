import numpy as np
import pytest

from lanebev import bev_encoder as E
from lanebev import lane_decoder as L
from lanebev import tensor as T
from lanebev.backbone import ConfigError
from lanebev.config import ConfigFileError, ExperimentConfig


def make_sa_params(rng, dim):
    params = {}
    L.init_self_attn(params, "sa", dim, rng)
    return params


def dense_self_attention_oracle(x, params, prefix, n_heads):
    """Directly-coded multi-head attention, one query row at a time."""
    n, dim = x.shape
    d_head = dim // n_heads
    q = x @ params[prefix + "/q/w"] + params[prefix + "/q/b"]
    k = x @ params[prefix + "/k/w"] + params.get(prefix + "/k/b", 0.0)
    v = x @ params[prefix + "/v/w"] + params[prefix + "/v/b"]
    merged = np.zeros((n, dim))
    for h in range(n_heads):
        sl = slice(h * d_head, (h + 1) * d_head)
        for i in range(n):
            scores = np.array([q[i, sl] @ k[j, sl] for j in range(n)]) / np.sqrt(d_head)
            ex = np.exp(scores - scores.max())
            attn = ex / ex.sum()
            merged[i, sl] = sum(attn[j] * v[j, sl] for j in range(n))
    return merged @ params[prefix + "/out/w"] + params[prefix + "/out/b"]


def test_self_attn_matches_dense_oracle(rng):
    dim = 8
    params = make_sa_params(rng, dim)
    x = rng.standard_normal((3, dim))
    got = L.self_attention(T.Tensor(x), params, "sa")
    want = dense_self_attention_oracle(x, params, "sa", L.SELF_ATTN_HEADS)
    assert np.abs(got.data - want).max() / np.abs(want).max() < 1e-10


def test_self_attn_key_bias_cannot_change_output(rng):
    # a key bias adds q_i . b_k to every score in row i; the softmax over keys
    # cancels it, so the bias-free layer equals the biased formula
    dim = 8
    params = make_sa_params(rng, dim)
    assert "sa/k/b" not in params
    x = rng.standard_normal((4, dim))
    got = L.self_attention(T.Tensor(x), params, "sa")
    biased = {**params, "sa/k/b": rng.standard_normal(dim) * 3.0}
    want = dense_self_attention_oracle(x, biased, "sa", L.SELF_ATTN_HEADS)
    assert np.abs(got.data - want).max() / np.abs(want).max() < 1e-10


def test_self_attn_single_query(rng):
    # with one query each attention row is trivially [1.0]: output is just v
    # pushed through the out projection
    dim = 16
    params = make_sa_params(rng, dim)
    x = rng.standard_normal((1, dim))
    got = L.self_attention(T.Tensor(x), params, "sa")
    v = x @ params["sa/v/w"] + params["sa/v/b"]
    want = v @ params["sa/out/w"] + params["sa/out/b"]
    assert np.abs(got.data - want).max() < 1e-12


def test_self_attn_identical_queries(rng):
    # identical rows attend uniformly, so every output row is identical
    dim = 8
    params = make_sa_params(rng, dim)
    row = rng.standard_normal(dim)
    x = np.tile(row, (5, 1))
    got = L.self_attention(T.Tensor(x), params, "sa").data
    assert np.abs(got - got[0]).max() < 1e-12
    solo = L.self_attention(T.Tensor(row[None]), params, "sa").data
    assert np.allclose(got[0], solo[0], atol=1e-12)


def test_self_attn_head_divisibility(rng):
    params = make_sa_params(rng, 12)
    with pytest.raises(ConfigError):
        L.self_attention(T.Tensor(np.zeros((2, 12))), params, "sa")


def test_self_attn_gradcheck(rng):
    from gradcheck import check_gradients
    dim = 8
    params = make_sa_params(rng, dim)
    x = rng.standard_normal((3, dim)) * 0.5

    def build(xt):
        out = L.self_attention(xt, params, "sa")
        return T.tsum(T.mul(out, out))

    check_gradients(build, [x])


# -- decoder layers --


def dec_cfg(n_dec=2):
    return ExperimentConfig(embed_dim=16, n_heads=2, n_sample_points=2, ffn_dim=16,
                            n_decoder_layers=n_dec, n_queries=5, bev_h=6, bev_w=4)


def make_decoder(cfg, rng):
    params = {}
    L.init_decoder_params(params, cfg, rng)
    return params


def make_bev(cfg, rng):
    return T.Tensor(rng.standard_normal((cfg.bev_h * cfg.bev_w, cfg.embed_dim)))


def test_initial_references_inside_unit_square(rng):
    cfg = dec_cfg()
    params = make_decoder(cfg, rng)
    refs = L.initial_queries(params).reference_points().data
    assert refs.shape == (cfg.n_queries, 2)
    assert (refs > 0).all() and (refs < 1).all()


def test_zero_refinement_keeps_references(rng):
    cfg = dec_cfg()
    params = make_decoder(cfg, rng)
    q0 = L.initial_queries(params)
    out = L.decode(q0, make_bev(cfg, rng), params, cfg)
    # refine/fc1 is zero-initialized, so fresh layers leave references alone
    for q in out:
        assert np.array_equal(q.ref_logits.data, q0.ref_logits.data)


def test_refinement_moves_references(rng):
    cfg = dec_cfg()
    params = make_decoder(cfg, rng)
    params["dec0/refine/fc1/w"] = rng.standard_normal((cfg.embed_dim, 2)) * 0.1
    q0 = L.initial_queries(params)
    out = L.decode(q0, make_bev(cfg, rng), params, cfg)
    assert not np.allclose(out[0].ref_logits.data, q0.ref_logits.data)


@pytest.mark.parametrize("n_dec", [4, 6, 8])
def test_decode_returns_per_layer_outputs(n_dec, rng, count_calls):
    cfg = dec_cfg(n_dec)
    params = make_decoder(cfg, rng)
    counts = count_calls(L, "self_attention", "deformable_attention", "run_ffn")
    out = L.decode(L.initial_queries(params), make_bev(cfg, rng), params, cfg)
    assert len(out) == n_dec
    assert counts["lane_decoder.self_attention"] == n_dec
    assert counts["lane_decoder.deformable_attention"] == n_dec
    assert counts["lane_decoder.run_ffn"] == n_dec
    for q in out:
        assert q.emb.shape == (cfg.n_queries, cfg.embed_dim)
        assert q.ref_logits.shape == (cfg.n_queries, 2)


def test_decode_requires_positive_layers():
    """decode runs cfg.n_decoder_layers layers; the config rejects a count below 1."""
    with pytest.raises(ConfigFileError, match="at least one layer"):
        dec_cfg(0)


def test_decoder_layer_matches_composed_oracle(rng):
    """One layer equals the hand-composed sequence of its published pieces."""
    cfg = dec_cfg()
    params = make_decoder(cfg, rng)
    bev_map = T.reshape(make_bev(cfg, rng), (1, cfg.bev_h, cfg.bev_w, -1))
    q0 = L.initial_queries(params)
    got = L.decoder_layer(q0, bev_map, params, "dec0", cfg.n_heads, cfg.n_sample_points)

    x = E.run_layer_norm(T.add(q0.emb, L.self_attention(q0.emb, params, "dec0/sa")),
                         params, "dec0/ln0")
    cross = E.deformable_attention(x, bev_map, [(0, slice(None), T.sigmoid(q0.ref_logits))],
                                   params, "dec0/ca", cfg.n_heads, cfg.n_sample_points)
    x = E.run_layer_norm(T.add(x, cross), params, "dec0/ln1")
    x = E.run_layer_norm(T.add(x, E.run_ffn(x, params, "dec0/ffn")), params, "dec0/ln2")
    delta = E.run_linear(T.relu(E.run_linear(x, params, "dec0/refine/fc0")),
                         params, "dec0/refine/fc1")
    assert np.allclose(got.emb.data, x.data, atol=1e-12)
    assert np.allclose(got.ref_logits.data, T.add(q0.ref_logits, delta).data, atol=1e-12)


def test_decode_query_permutation_equivariance(rng):
    cfg = dec_cfg()
    params = make_decoder(cfg, rng)
    bev = make_bev(cfg, rng)
    q0 = L.initial_queries(params)
    base = L.decode(q0, bev, params, cfg)[-1]
    perm = rng.permutation(cfg.n_queries)
    qp = L.LaneQuerySet(T.Tensor(q0.emb.data[perm]), T.Tensor(q0.ref_logits.data[perm]))
    permuted = L.decode(qp, bev, params, cfg)[-1]
    assert np.allclose(permuted.emb.data, base.emb.data[perm], atol=1e-9)
    assert np.allclose(permuted.ref_logits.data, base.ref_logits.data[perm], atol=1e-9)


def test_decode_deterministic(rng):
    cfg = dec_cfg()
    params = make_decoder(cfg, rng)
    bev_arr = np.random.default_rng(3).standard_normal((cfg.bev_h * cfg.bev_w, cfg.embed_dim))
    runs = [L.decode(L.initial_queries(params), T.Tensor(bev_arr.copy()), params, cfg)[-1]
            for _ in range(2)]
    assert np.array_equal(runs[0].emb.data, runs[1].emb.data)
    assert np.array_equal(runs[0].ref_logits.data, runs[1].ref_logits.data)
