import gc
import inspect
import warnings
import weakref

import numpy as np
import pytest

from lanebev import tensor as T
from gradcheck import check_gradients, fd_gradients


def test_matmul_identity():
    a = T.Tensor([[1.0, 0.0], [0.0, 1.0]])
    b = T.Tensor([[3.0, 4.0], [5.0, 6.0]])
    assert np.array_equal(T.matmul(a, b).data, b.data)


def test_matmul_row_col():
    out = T.matmul(T.Tensor([[1.0, 2.0]]), T.Tensor([[3.0], [4.0]]))
    assert out.data.tolist() == [[11.0]]


def test_matmul_shape_error():
    with pytest.raises(T.DimensionError):
        T.matmul(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((2, 3))))


def test_matmul_gradcheck(rng):
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((4, 2))
    check_gradients(lambda x, y: T.tsum(T.mul(T.matmul(x, y), T.matmul(x, y))), [a, b])


def test_softmax_uniform():
    out = T.softmax(T.Tensor([0.0, 0.0, 0.0]), axis=-1)
    assert np.allclose(out.data, [1 / 3] * 3)


def test_softmax_stability():
    out = T.softmax(T.Tensor([1000.0, 0.0]), axis=-1)
    assert np.all(np.isfinite(out.data))
    assert out.data[0] == pytest.approx(1.0)
    assert out.data[1] == pytest.approx(0.0, abs=1e-300)


def test_softmax_sums_to_one(rng):
    for _ in range(50):
        x = rng.standard_normal((4, 6)) * rng.uniform(0.1, 50)
        s = T.softmax(T.Tensor(x), axis=-1)
        assert np.abs(s.data.sum(axis=-1) - 1.0).max() < 1e-9


def test_softmax_empty_axis():
    with pytest.raises(T.DimensionError):
        T.softmax(T.Tensor(np.zeros((2, 0))), axis=-1)


def test_conv2d_ones():
    x = T.Tensor(np.ones((1, 3, 3)))
    k = T.Tensor(np.full((1, 1, 1, 1), 2.0))
    out = T.conv2d(x, k, stride=1, padding=0)
    assert np.array_equal(out.data, np.full((1, 3, 3), 2.0))


def test_conv2d_stride_shape():
    out = T.conv2d(T.Tensor(np.ones((1, 4, 4))), T.Tensor(np.ones((1, 1, 2, 2))), stride=2)
    assert out.shape == (1, 2, 2)


def test_conv2d_kernel_too_large():
    with pytest.raises(T.DimensionError):
        T.conv2d(T.Tensor(np.ones((1, 2, 2))), T.Tensor(np.ones((1, 1, 5, 5))))


def _conv2d_oracle(x, k, bias, stride, padding, gy):
    """Plain loops over every (output pixel, kernel tap) pair: the forward
    and, for upstream gradient gy, the kernel, input and bias gradients."""
    nb, cin, h, w = x.shape
    cout, _, kh, kw = k.shape
    hout, wout = gy.shape[2:]
    y, gk, gx = np.zeros(gy.shape), np.zeros(k.shape), np.zeros(x.shape)
    gb = np.zeros(cout)
    for n in range(nb):
        for o in range(cout):
            for a in range(hout):
                for b in range(wout):
                    y[n, o, a, b] += bias[o]
                    gb[o] += gy[n, o, a, b]
                    for c in range(cin):
                        for i in range(kh):
                            for j in range(kw):
                                r, q = a * stride + i - padding, b * stride + j - padding
                                if 0 <= r < h and 0 <= q < w:
                                    y[n, o, a, b] += x[n, c, r, q] * k[o, c, i, j]
                                    gk[o, c, i, j] += gy[n, o, a, b] * x[n, c, r, q]
                                    gx[n, c, r, q] += gy[n, o, a, b] * k[o, c, i, j]
    return y, gk, gx, gb


@pytest.mark.parametrize("xshape, kshape, stride, padding", [
    ((2, 3, 5, 6), (4, 3, 3, 3), 1, 1),
    ((2, 3, 5, 6), (4, 3, 3, 3), 1, 0),
    ((2, 3, 7, 6), (4, 3, 3, 3), 2, 1),
    ((2, 3, 6, 7), (4, 3, 3, 3), 2, 0),
    ((2, 3, 5, 6), (4, 3, 1, 1), 1, 0),
    ((2, 3, 5, 6), (4, 3, 1, 1), 2, 0),
    ((2, 1, 6, 7), (3, 1, 3, 3), 2, 1),
    ((1, 2, 5, 5), (2, 2, 3, 2), 1, 1),
    ((3, 5, 6), (2, 3, 3, 3), 2, 1),
    ((1, 5, 6), (4, 1, 1, 1), 1, 0),
])
def test_conv2d_matches_scalar_oracle(rng, xshape, kshape, stride, padding):
    x = rng.standard_normal(xshape)
    k = rng.standard_normal(kshape)
    bias = rng.standard_normal(kshape[0])
    tape = T.Tape()
    xt, kt, bt = tape.leaf(x), tape.leaf(k), tape.leaf(bias)
    y = T.conv2d(xt, kt, bt, stride=stride, padding=padding)
    gy = rng.standard_normal(y.shape)
    tape.backward(T.tsum(T.mul(y, T.Tensor(gy))))
    batched = (lambda a: a) if x.ndim == 4 else (lambda a: a[None])
    want = _conv2d_oracle(batched(x), k, bias, stride, padding, batched(gy))
    for got, ref in zip((batched(y.data), kt.grad, batched(xt.grad), bt.grad), want):
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("bias_shape", [(1,), (4, 1), (3,)])
def test_conv2d_rejects_bias_of_wrong_shape(bias_shape):
    with pytest.raises(T.DimensionError, match="conv2d bias"):
        T.conv2d(T.Tensor(np.ones((2, 5, 5))), T.Tensor(np.ones((4, 2, 3, 3))),
                 T.Tensor(np.ones(bias_shape)))


@pytest.mark.parametrize("bias_shape", [(1,), (2, 4), (3,)])
def test_linear_rejects_bias_of_wrong_shape(bias_shape):
    with pytest.raises(T.DimensionError, match="linear bias"):
        T.linear(T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((3, 4))), T.Tensor(np.ones(bias_shape)))


def test_linear_output_dtype_follows_the_sum():
    x, w = T.Tensor(np.ones((2, 3), np.float32)), T.Tensor(np.ones((3, 4), np.float32))
    assert T.linear(x, w, T.Tensor(np.ones(4, np.float32))).data.dtype == np.float32
    assert T.linear(x, w, T.Tensor(np.ones(4))).data.dtype == np.float64


def test_bilinear_cell_center():
    m = np.arange(12, dtype=np.float64).reshape(1, 3, 4)
    # cell (row 1, col 2) center: u=(2+0.5)/4, v=(1+0.5)/3
    pts = T.Tensor([[2.5 / 4, 1.5 / 3]])
    out = T.bilinear_sample(T.Tensor(m.transpose(1, 2, 0)), pts)
    assert out.data[0, 0] == pytest.approx(m[0, 1, 2])


def test_bilinear_outside_zero():
    m = T.Tensor(np.ones((2, 3, 3)).transpose(1, 2, 0))
    out = T.bilinear_sample(m, T.Tensor([[-0.5, 0.5]]))
    assert np.array_equal(out.data, np.zeros((1, 2)))


def _channel_last(m):
    """A [C,H,W] or [G,C,H,W] test array in the kernel's [H,W,C] or [H,W,G,C] layout."""
    return m.transpose((1, 2, 0) if m.ndim == 3 else (2, 3, 0, 1))


def _channel_first(m):
    """The inverse of _channel_last, for the kernel's map gradients."""
    return m.transpose((2, 0, 1) if m.ndim == 3 else (2, 3, 0, 1))


def _bilinear_with_grads(m, pts, w):
    tape = T.Tape()
    a, p = tape.leaf(_channel_last(m)), tape.leaf(pts)
    out = T.bilinear_sample(a, p)
    tape.backward(T.tsum(T.mul(out, T.Tensor(w))))
    return out.data, _channel_first(a.grad), p.grad


def _map_grad_oracle(m, pts, g):
    """Map gradient of sum(g * bilinear_sample(m, pts)), accumulated point by
    point and within a point corner by corner (00, 01, 10, 11)."""
    c, h, w = m.shape
    want = np.zeros((c, h, w))
    for (u, v), gp in zip(pts, g):
        for dy, dx in ((0, 0), (0, 1), (1, 0), (1, 1)):
            xf, yf = u * w - 0.5, v * h - 0.5
            x, y = int(np.floor(xf)) + dx, int(np.floor(yf)) + dy
            if 0 <= u <= 1 and 0 <= v <= 1 and 0 <= x < w and 0 <= y < h:
                wx, wy = xf - np.floor(xf), yf - np.floor(yf)
                want[:, y, x] += gp * ((wx if dx else 1.0 - wx) * (wy if dy else 1.0 - wy))
    return want


def test_grouped_bilinear_matches_per_group_calls(rng):
    g, c, n = 3, 2, 40
    maps = rng.standard_normal((g, c, 4, 5))
    pts = rng.uniform(-0.2, 1.2, size=(g * n, 2))
    pts[:3] = [[1.0, 0.0], [0.0, 1.0], [0.05, 0.95]]  # edges and a clipped corner
    assert ((pts < 0.0) | (pts > 1.0)).any(axis=1).sum() > g
    w = rng.standard_normal((g * n, c))
    out, gmap, gpts = _bilinear_with_grads(maps, pts, w)
    assert out.shape == (g * n, c) and gmap.shape == maps.shape
    for k in range(g):
        rows = slice(k, None, g)     # query-major: row r samples group r % G
        ok, gk, pk = _bilinear_with_grads(maps[k], pts[rows], w[rows])
        assert np.array_equal(out[rows], ok)
        assert np.array_equal(gmap[k], gk)
        assert np.array_equal(gk, _map_grad_oracle(maps[k], pts[rows], w[rows]))
        assert np.array_equal(gpts[rows], pk)


def _bilinear_oracle(m, pts, g, weights=None):
    """Per point, in scalar loops: the sample [C] (corners added 00, 01, 10, 11)
    and the gradient of sum(g * sample) with respect to (u, v).

    With weights [R, K], output row r is sum_k weights[r, k] * the sample of
    point r*K + k, g is per output row, and the point gradient is that of
    sum(g * output)."""
    c, h, w = m.shape
    k = 1 if weights is None else weights.shape[1]
    wflat = np.ones(len(pts)) if weights is None else weights.ravel()
    out, gpts = np.zeros((len(pts) // k, c)), np.zeros((len(pts), 2))
    for i, ((u, v), wi) in enumerate(zip(pts, wflat)):
        if not (0 <= u <= 1 and 0 <= v <= 1):
            continue
        gp = g[i // k]
        xf, yf = u * w - 0.5, v * h - 0.5
        x0, y0 = int(np.floor(xf)), int(np.floor(yf))
        wx, wy = xf - x0, yf - y0
        sample = np.zeros(c)
        for dy, dx in ((0, 0), (0, 1), (1, 0), (1, 1)):
            x, y = x0 + dx, y0 + dy
            if 0 <= x < w and 0 <= y < h:
                ax, ay = (wx if dx else 1.0 - wx), (wy if dy else 1.0 - wy)
                sample += ax * ay * m[:, y, x]
                dot = wi * float(gp @ m[:, y, x])
                gpts[i, 0] += dot * (1.0 if dx else -1.0) * ay * w
                gpts[i, 1] += dot * (1.0 if dy else -1.0) * ax * h
        out[i // k] += wi * sample
    return out, gpts


# on the square's edges: u or v = 0 puts the low neighbour at -1, and u or
# v = 1 puts the high one at W or H, so both fall off the map
EDGE_POINTS = [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0],
               [0.0, 0.37], [1.0, 0.61], [0.23, 0.0], [0.77, 1.0]]


@pytest.mark.parametrize("groups, c, h, w", [
    (0, 3, 4, 5), (3, 2, 4, 5),    # the 3-D and the grouped form
    (0, 2, 1, 1), (2, 3, 1, 1),    # 1-pixel maps
    (0, 9, 2, 3), (2, 16, 3, 1),   # channel sums past eight
])
def test_bilinear_matches_scalar_oracle(rng, groups, c, h, w):
    n = 30
    maps = rng.standard_normal((max(groups, 1), c, h, w))
    pts = rng.uniform(-0.1, 1.1, size=(len(maps) * n, 2))
    for k in range(len(maps)):
        pts[k::len(maps)][:len(EDGE_POINTS)] = EDGE_POINTS
    g = rng.standard_normal((len(pts), c))
    out, gmap, gpts = _bilinear_with_grads(maps if groups else maps[0], pts, g)
    gmap = gmap if groups else gmap[None]
    for k in range(len(maps)):
        rows = slice(k, None, len(maps))
        want, want_pts = _bilinear_oracle(maps[k], pts[rows], g[rows])
        assert np.array_equal(out[rows], want)
        assert np.array_equal(gmap[k], _map_grad_oracle(maps[k], pts[rows], g[rows]))
        np.testing.assert_allclose(gpts[rows], want_pts, rtol=1e-12,
                                   atol=1e-12 * np.abs(want_pts).max())


def _axis_points(size):
    """Coordinates along an axis of `size` pixels that are exact in float32:
    the square's edges (lo = -1 and lo = size-1 with one neighbour off the
    map), every pixel edge and centre, and points between them."""
    return np.unique(np.concatenate([np.arange(2 * size + 1) / (2 * size),
                                     np.arange(1, 4 * size, 2) / (4 * size)]))


@pytest.mark.parametrize("map_dtype", [np.float32, np.float64])
@pytest.mark.parametrize("pts_dtype", [np.float32, np.float64])
@pytest.mark.parametrize("w_dtype", [np.float32, np.float64])
@pytest.mark.parametrize("h, w", [(4, 8), (1, 2)])
def test_bilinear_edge_points_match_scalar_oracle(rng, map_dtype, pts_dtype, w_dtype, h, w):
    """Points on pixel centres and edges and on the unit square's border.
    Point weights are powers of two with K = 1, so weighting scales every
    product exactly and the forward and map gradient match the oracle byte
    for byte; the point and weight gradients match at the tolerance of the
    weighted test (float64) or of the gradient's dtype."""
    c = 3
    m = rng.standard_normal((c, h, w)).astype(map_dtype)
    uu, vv = np.meshgrid(_axis_points(w), _axis_points(h))
    pts = np.stack([uu.ravel(), vv.ravel()], axis=1).astype(pts_dtype)
    assert {pts[:, 0].min(), pts[:, 0].max(), pts[:, 1].min(), pts[:, 1].max()} == {0.0, 1.0}
    wts = (2.0 ** rng.integers(-2, 3, (len(pts), 1)) * rng.choice([-1.0, 1.0], (len(pts), 1)))
    wts = wts.astype(w_dtype)
    g = rng.standard_normal((len(pts), c))
    tape = T.Tape()
    a, p, q = tape.leaf(_channel_last(m)), tape.leaf(pts), tape.leaf(wts)
    out = T.bilinear_sample(a, p, q)
    tape.backward(T.tsum(T.mul(out, T.Tensor(g))))
    exact, exact_wts = pts.astype(np.float64), wts.astype(np.float64)
    want, want_pts = _bilinear_oracle(m, exact, g, exact_wts)
    samples, _ = _bilinear_oracle(m, exact, g)
    assert out.data.tobytes() == want.tobytes()
    gmap = _map_grad_oracle(m, exact, exact_wts * g).astype(map_dtype)
    assert _channel_first(a.grad).tobytes() == gmap.tobytes()
    for got, ref, dtype in ((p.grad, want_pts, pts_dtype),
                            (q.grad, (samples * g).sum(axis=1, keepdims=True), w_dtype)):
        assert got.dtype == dtype
        tol = 1e-12 if dtype == np.float64 else np.finfo(np.float32).eps
        np.testing.assert_allclose(got, ref, rtol=tol, atol=tol * np.abs(ref).max())


def test_grouped_bilinear_rejects_uneven_points():
    with pytest.raises(T.DimensionError):
        T.bilinear_sample(T.Tensor(np.zeros((4, 4, 3, 2))), T.Tensor(np.zeros((7, 2))))


def _assert_close(got, want):
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("groups, c, h, w", [
    (0, 3, 4, 5), (3, 2, 4, 5),    # the 3-D and the grouped form
    (0, 2, 1, 1), (2, 3, 1, 1),    # 1-pixel maps
    (0, 9, 2, 3), (2, 16, 3, 1),   # channel sums past eight
])
def test_weighted_bilinear_matches_scalar_oracle(rng, groups, c, h, w, k):
    n = 30
    maps = rng.standard_normal((max(groups, 1), c, h, w))
    pts = rng.uniform(-0.1, 1.1, size=(len(maps) * n, 2))
    # query-major: output row r and its K points sample group r % G
    spans = np.arange(len(pts)).reshape(-1, k)
    for j in range(len(maps)):
        pts[spans[j::len(maps)].ravel()[:len(EDGE_POINTS)]] = EDGE_POINTS
    wts = rng.standard_normal((len(pts) // k, k))
    g = rng.standard_normal((len(wts), c))
    tape = T.Tape()
    a, p, q = tape.leaf(_channel_last(maps if groups else maps[0])), tape.leaf(pts), tape.leaf(wts)
    out = T.bilinear_sample(a, p, q)
    tape.backward(T.tsum(T.mul(out, T.Tensor(g))))
    gmap = _channel_first(a.grad) if groups else _channel_first(a.grad)[None]
    for j in range(len(maps)):
        rows, span = slice(j, None, len(maps)), spans[j::len(maps)].ravel()
        g_pt = g[rows].repeat(k, axis=0)   # each point's output-row gradient
        want, want_pts = _bilinear_oracle(maps[j], pts[span], g[rows], wts[rows])
        samples, _ = _bilinear_oracle(maps[j], pts[span], g_pt)
        _assert_close(out.data[rows], want)
        _assert_close(gmap[j], _map_grad_oracle(maps[j], pts[span],
                                                wts[rows].reshape(-1, 1) * g_pt))
        _assert_close(p.grad[span], want_pts)
        _assert_close(q.grad[rows], (samples * g_pt).sum(axis=1).reshape(-1, k))


def test_unit_weights_equal_unweighted_call(rng):
    maps = rng.standard_normal((3, 2, 4, 5))
    pts = rng.uniform(-0.1, 1.1, size=(60, 2))
    g = rng.standard_normal((60, 2))
    want = _bilinear_with_grads(maps, pts, g)
    tape = T.Tape()
    a, p, q = tape.leaf(_channel_last(maps)), tape.leaf(pts), tape.leaf(np.ones((60, 1)))
    out = T.bilinear_sample(a, p, q)
    tape.backward(T.tsum(T.mul(out, T.Tensor(g))))
    for got, ref in zip((out.data, _channel_first(a.grad), p.grad), want):
        assert np.array_equal(got, ref)


def test_bilinear_non_finite_and_far_points_get_zero_weight(rng):
    """NaN, +-inf, +-1e300 and other out-of-square points keep their four
    matrix entries, indexed by coordinates clamped into the square, at point
    weight zero.  Rows made only of them read +0.0, their point and weight
    gradients are +0.0, the rest matches the scalar oracle, and no numpy
    warning fires.  The map here is finite: a non-finite map value at a
    clamped pixel can reach a row through such a zero-weight entry (0 * inf
    is NaN), as an off-map neighbour's already can."""
    T.set_debug_checks(False)    # the points hold NaN and inf on purpose
    far = [[np.nan, 0.5], [0.5, np.nan], [np.inf, 0.5], [-np.inf, -np.inf],
           [1e300, 0.5], [0.5, -1e300], [-0.25, 0.5], [1.0 + 1e-12, 1.0]]
    groups, k, c = 2, 4, 3
    maps = rng.standard_normal((groups, c, 4, 5))
    pts = rng.uniform(0.0, 1.0, (6 * k, 2))
    pts[:8] = far                      # rows 0 and 1, one per group, only far points
    pts[8:16] = EDGE_POINTS            # rows 2 and 3
    pts[17::2] = far[::2]              # rows 4 and 5 mix far and inside points
    outside = ~((pts >= 0.0) & (pts <= 1.0)).all(axis=1)
    wts = rng.standard_normal((len(pts) // k, k))
    g = rng.standard_normal((len(wts), c))
    tape = T.Tape()
    a, p, q = tape.leaf(_channel_last(maps)), tape.leaf(pts), tape.leaf(wts)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = T.bilinear_sample(a, p, q)
        tape.backward(T.tsum(T.mul(out, T.Tensor(g))))
    plus_zero = lambda x: np.array_equal(x, np.zeros_like(x)) and not np.signbit(x).any()
    assert plus_zero(out.data[:2])
    assert plus_zero(p.grad[outside]) and plus_zero(q.grad.ravel()[outside])
    spans = np.arange(len(pts)).reshape(-1, k)
    oracle_pts = np.where(outside[:, None], -1.0, pts)   # out of the square, finite
    for j in range(groups):
        rows, span = slice(j, None, groups), spans[j::groups].ravel()
        g_pt = g[rows].repeat(k, axis=0)
        want, want_pts = _bilinear_oracle(maps[j], oracle_pts[span], g[rows], wts[rows])
        samples, _ = _bilinear_oracle(maps[j], oracle_pts[span], g_pt)
        _assert_close(out.data[rows], want)
        _assert_close(_channel_first(a.grad)[j], _map_grad_oracle(
            maps[j], oracle_pts[span], wts[rows].reshape(-1, 1) * g_pt))
        _assert_close(p.grad[span], want_pts)
        _assert_close(q.grad[rows], (samples * g_pt).sum(axis=1).reshape(-1, k))


@pytest.mark.parametrize("map_shape, shape", [
    ((4, 4, 2), (6,)),           # not 2-D
    ((4, 4, 2), (1, 6, 1)),
    ((4, 4, 2), (4, 2)),         # R*K != number of points
    ((4, 4, 2), (7, 1)),
    ((4, 4, 2, 2), (3, 2)),      # R not divisible by the 2 groups
])
def test_bilinear_rejects_bad_weights(map_shape, shape):
    with pytest.raises(T.DimensionError):
        T.bilinear_sample(T.Tensor(np.zeros(map_shape)), T.Tensor(np.full((6, 2), 0.5)),
                          T.Tensor(np.ones(shape)))


def test_layer_norm_constant_zero():
    x = T.Tensor(np.full((4,), 3.7).reshape(1, 4))
    out = T.layer_norm(x, T.Tensor(np.ones(4)), T.Tensor(np.zeros(4)))
    assert np.abs(out.data).max() < 1e-6


def test_relu():
    out = T.relu(T.Tensor([-1.0, 0.0, 2.0]))
    assert out.data.tolist() == [0.0, 0.0, 2.0]


def test_repeated_backward_fails(rng):
    tape = T.Tape()
    x = tape.leaf(rng.standard_normal(3))
    loss = T.tsum(T.mul(x, x))
    tape.backward(loss)
    with pytest.raises(T.TapeError):
        tape.backward(loss)


def test_backward_requires_scalar(rng):
    tape = T.Tape()
    x = tape.leaf(rng.standard_normal(3))
    y = T.mul(x, x)
    with pytest.raises(T.TapeError):
        tape.backward(y)


def test_mixed_tapes_fail(rng):
    t1, t2 = T.Tape(), T.Tape()
    a = t1.leaf(rng.standard_normal(3))
    b = t2.leaf(rng.standard_normal(3))
    with pytest.raises(T.TapeError):
        T.add(a, b)


def test_nan_detection_in_debug_mode():
    with pytest.raises(FloatingPointError):
        T.Tensor([np.nan, 1.0])


def test_backward_releases_the_graph(rng):
    gc.disable()
    try:
        tape = T.Tape()
        x = tape.leaf(rng.standard_normal(4))
        mid = T.relu(T.mul(x, x))
        loss = T.tsum(mid)
        alive = weakref.ref(mid)
        del mid
        n_ops = tape.num_ops
        assert alive() is not None
        tape.backward(loss)
        assert alive() is None  # freed by reference counting, not the cyclic collector
        assert tape.num_ops == n_ops == 3
        assert np.array_equal(x.grad, 2 * x.data * (x.data * x.data > 0))
    finally:
        gc.enable()


def test_backward_touches_each_node_once(rng):
    tape = T.Tape()
    x = tape.leaf(rng.standard_normal(4))
    y = T.relu(x)
    z = T.tsum(T.mul(y, y))
    n_ops = tape.num_ops
    calls = []
    orig = tape._records[:]
    tape._records = [(lambda f=f, i=i: (calls.append(i), f())) for i, f in enumerate(orig)]
    tape.backward(z)
    assert sorted(calls) == list(range(n_ops))


# every op that records a backward closure, built once from tracked leaves
TAPED_OPS = {
    "add": lambda leaf: T.add(leaf(2, 3), leaf(3)),
    "sub": lambda leaf: T.sub(leaf(2, 3), leaf(2, 3)),
    "mul": lambda leaf: T.mul(leaf(2, 3), leaf(2, 1)),
    "div": lambda leaf: T.div(leaf(2, 3), leaf(2, 3)),
    "relu": lambda leaf: T.relu(leaf(4)),
    "sigmoid": lambda leaf: T.sigmoid(leaf(4)),
    "exp": lambda leaf: T.exp(leaf(4)),
    "log": lambda leaf: T.log(leaf(4)),
    "sqrt": lambda leaf: T.sqrt(leaf(4)),
    "absolute": lambda leaf: T.absolute(leaf(4)),
    "tsum": lambda leaf: T.tsum(leaf(2, 3), axis=1),
    "reshape": lambda leaf: T.reshape(leaf(2, 3), (3, 2)),
    "transpose": lambda leaf: T.transpose(leaf(2, 3, 4), (2, 0, 1)),
    "concat": lambda leaf: T.concat([leaf(2, 3), leaf(1, 3)]),
    "stack": lambda leaf: T.stack([leaf(3), leaf(3)], axis=1),
    "getitem": lambda leaf: T.getitem(leaf(3, 2), np.array([0, 2, 0])),
    "scatter_rows": lambda leaf: T.scatter_rows(leaf(2, 3), np.array([3, 0]), 4),
    "matmul": lambda leaf: T.matmul(leaf(2, 3), leaf(3, 4)),
    "linear": lambda leaf: T.linear(leaf(2, 3), leaf(3, 4), leaf(4)),
    "softmax": lambda leaf: T.softmax(leaf(2, 3)),
    "log_softmax": lambda leaf: T.log_softmax(leaf(2, 3)),
    "layer_norm": lambda leaf: T.layer_norm(leaf(2, 3), leaf(3), leaf(3)),
    "conv2d": lambda leaf: T.conv2d(leaf(2, 5, 5), leaf(3, 2, 3, 3), leaf(3), stride=2, padding=1),
    "max_pool2d": lambda leaf: T.max_pool2d(leaf(2, 4, 4)),
    "bilinear_sample": lambda leaf: T.bilinear_sample(leaf(2, 3, 4), leaf(5, 2)),
}


def test_every_taped_op_is_covered():
    nested = {name for name, fn in vars(T).items() if inspect.isfunction(fn)
              and any(getattr(c, "co_name", None) == "backward" for c in fn.__code__.co_consts)}
    assert nested == set(TAPED_OPS)


def test_each_op_records_its_own_backward(rng, monkeypatch):
    # perfbench's tracer wraps Tape._record the same way and names each tape
    # op by the recorded closure's qualname, so the closure must stay unwrapped
    recorded = []
    record = T.Tape._record

    def spy(tape, backward_fn, *args, **kwargs):
        recorded.append(backward_fn.__qualname__)
        return record(tape, backward_fn, *args, **kwargs)

    monkeypatch.setattr(T.Tape, "_record", spy)
    tape = T.Tape()
    for name, build in TAPED_OPS.items():
        recorded.clear()
        out = build(lambda *shape: tape.leaf(rng.uniform(0.1, 1.0, shape)))
        assert recorded == [f"{name}.<locals>.backward"]
        assert out.tape is tape


def test_op_without_gradient_is_skipped(rng):
    tape = T.Tape()
    x = tape.leaf(rng.standard_normal(3))
    y = tape.leaf(rng.standard_normal(3))
    T.exp(y)                              # op 0: its output never reaches the loss
    loss = T.tsum(T.mul(x, x))            # ops 1 and 2
    ran = []
    tape._records = [(lambda f=f, i=i: (ran.append(i), f())) for i, f in enumerate(tape._records)]
    tape.backward(loss)
    assert ran == [2, 1]
    assert y.grad is None
    assert tape.num_ops == 3
    assert np.array_equal(x.grad, 2 * x.data)


# -- gradient checks, one small case per op (the 100-trial sweep lives in
#    the acceptance suite) --

def test_grad_elementwise(rng):
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((3, 4))
    check_gradients(lambda x, y: T.tsum(T.mul(T.add(x, y), T.sub(x, y))), [a, b])
    check_gradients(lambda x, y: T.tsum(T.div(x, T.add(T.mul(y, y), T.Tensor(1.0)))), [a, b])


def test_grad_softmax_jacobian(rng):
    x = rng.standard_normal(5)
    w = rng.standard_normal(5)
    check_gradients(lambda t: T.tsum(T.mul(T.softmax(T.reshape(t, (1, 5)), axis=-1), T.Tensor(w.reshape(1, 5)))), [x])


def test_grad_conv2d(rng):
    x = rng.standard_normal((2, 5, 5))
    k = rng.standard_normal((3, 2, 3, 3))
    check_gradients(lambda a, b: T.tsum(T.mul(T.conv2d(a, b, stride=1, padding=1),
                                              T.conv2d(a, b, stride=1, padding=1))), [x, k])


def test_grad_conv2d_bias(rng):
    x = rng.standard_normal((2, 2, 5, 5))
    k = rng.standard_normal((3, 2, 3, 3))
    b = rng.standard_normal(3)
    check_gradients(lambda a, c, d: T.tsum(T.mul(y := T.conv2d(a, c, d, stride=2, padding=1), y)),
                    [x, k, b])


def test_grad_conv2d_strided_padded(rng):
    x = rng.standard_normal((2, 6, 7))
    k = rng.standard_normal((3, 2, 3, 3))
    check_gradients(lambda a, b: T.tsum(T.mul(T.conv2d(a, b, stride=2, padding=1),
                                              T.conv2d(a, b, stride=2, padding=1))), [x, k])


def test_grad_bilinear_map_and_points(rng):
    m = rng.standard_normal((2, 4, 5))
    pts = rng.uniform(0.15, 0.85, size=(6, 2))
    check_gradients(lambda a, p: T.tsum(T.mul(T.bilinear_sample(a, p), T.bilinear_sample(a, p))),
                    [m.transpose(1, 2, 0).copy(), pts], rtol=1e-3)


def test_fd_oracle_perturbs_non_contiguous_inputs(rng):
    x = rng.standard_normal((3, 4)).T       # Fortran-ordered view
    (g,) = fd_gradients(lambda a: float((a * a).sum()), [x])
    assert np.allclose(g, 2 * x, atol=1e-6)


def test_grad_layer_norm(rng):
    x = rng.standard_normal((3, 6))
    g = rng.standard_normal(6)
    b = rng.standard_normal(6)
    check_gradients(lambda a, gg, bb: T.tsum(T.mul(T.layer_norm(a, gg, bb), T.layer_norm(a, gg, bb))),
                    [x, g, b])


def test_grad_misc_ops(rng):
    x = np.abs(rng.standard_normal((2, 3))) + 0.5
    check_gradients(lambda a: T.tsum(T.log(a)), [x])
    check_gradients(lambda a: T.tsum(T.sqrt(a)), [x])
    check_gradients(lambda a: T.tsum(T.exp(a)), [x])
    check_gradients(lambda a: T.tsum(T.sigmoid(a)), [x])
    y = rng.standard_normal((4, 3))
    check_gradients(lambda a: T.tsum(T.mul(T.absolute(a), T.absolute(a))), [y])
    check_gradients(lambda a: T.tsum(T.mul(T.concat([a, a], axis=0), T.concat([a, a], axis=0))), [y])
    check_gradients(lambda a: T.tsum(T.mul(a[1:3], a[1:3])), [y])
    check_gradients(lambda a: T.tmean(T.mul(T.max_pool2d(T.reshape(a, (1, 4, 3)), 2, 1),
                                            T.max_pool2d(T.reshape(a, (1, 4, 3)), 2, 1))), [y])


def test_grad_grouped_bilinear(rng):
    m = rng.standard_normal((2, 3, 4, 5))
    pts = rng.uniform(0.15, 0.85, size=(8, 2))
    check_gradients(lambda a, p: T.tsum(T.mul(T.bilinear_sample(a, p), T.bilinear_sample(a, p))),
                    [m.transpose(2, 3, 0, 1).copy(), pts], rtol=1e-3)


def test_grad_weighted_bilinear(rng):
    m = rng.standard_normal((2, 3, 4, 5))
    pts = rng.uniform(0.15, 0.85, size=(12, 2))
    wts = rng.standard_normal((4, 3))
    check_gradients(lambda a, p, q: T.tsum(T.mul(y := T.bilinear_sample(a, p, q), y)),
                    [m.transpose(2, 3, 0, 1).copy(), pts, wts], rtol=1e-3)


def _grad_of(op, x, g):
    tape = T.Tape()
    a = tape.leaf(x)
    tape.backward(T.tsum(T.mul(op(a), T.Tensor(g))))
    return a.grad


def _spread(rng, shape):
    """Values over 16 decades, so that a change of summation order shows."""
    return rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)


def test_getitem_backward_sums_duplicates_in_order(rng):
    x = rng.standard_normal((5, 3))
    idx = np.array([4, 1, 4, 0, 4, 1, 4])
    g = _spread(rng, (len(idx), 3))
    want = np.zeros_like(x)
    for i, row in zip(idx, g):
        want[i] += row
    assert np.array_equal(_grad_of(lambda a: a[idx], x, g), want)
    want = np.zeros_like(x)
    want[1:3, ::2] = g[:2, :2]
    assert np.array_equal(_grad_of(lambda a: a[1:3, ::2], x, g[:2, :2]), want)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("basic, advanced", [
    (2, np.array(2)),
    (slice(1, 4), np.arange(1, 4)),
    ((1, slice(None, None, 2)), (np.array(1), np.arange(0, 5, 2))),
    ((slice(2, 4), 3), (np.arange(2, 4), 3)),
    ((-1, -2), (np.array(-1), np.array(-2))),
])
def test_getitem_basic_index_backward_matches_integer_arrays(rng, dtype, basic, advanced):
    """A basic index's backward (zeros plus one in-place add) and an integer-array
    index's (bincount) give the same bytes, -0.0 upstream turning into +0.0."""
    x = rng.standard_normal((4, 5)).astype(dtype)
    g = _spread(rng, x[basic].shape).astype(dtype)
    g.reshape(-1)[::2] = -0.0
    got = _grad_of(lambda a: a[basic], x, g)
    want = _grad_of(lambda a: a[advanced], x, g)
    assert got.dtype == want.dtype == dtype
    assert got.tobytes() == want.tobytes()
    assert not np.signbit(got[got == 0.0]).any()


@pytest.mark.parametrize("k, stride, pad", [(2, 1, 0), (3, 2, 1)])
def test_max_pool_backward_sums_overlaps_in_order(rng, k, stride, pad):
    x = rng.standard_normal((2, 6, 7))
    y = T.max_pool2d(T.Tensor(x), k, stride, padding=pad)
    g = _spread(rng, y.shape)
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)), constant_values=-np.inf)
    want = np.zeros_like(xp)
    for c, i, j in np.ndindex(g.shape):
        win = xp[c, i * stride:i * stride + k, j * stride:j * stride + k]
        r, s = np.unravel_index(np.argmax(win), win.shape)
        want[c, i * stride + r, j * stride + s] += g[c, i, j]
    want = want[:, pad:pad + x.shape[1], pad:pad + x.shape[2]]
    assert np.array_equal(_grad_of(lambda a: T.max_pool2d(a, k, stride, padding=pad), x, g), want)


def test_scatter_rows_forward_and_gradcheck(rng):
    idx = np.array([4, 0, 2])
    x = rng.standard_normal((3, 2))
    out = T.scatter_rows(T.Tensor(x), idx, 6).data
    assert np.array_equal(out[idx], x)
    assert not out[[1, 3, 5]].any()
    w = rng.standard_normal((6, 2))
    check_gradients(lambda a: T.tsum(T.mul(T.mul(y := T.scatter_rows(a, idx, 6), y),
                                           T.Tensor(w))), [x])

    # repeated indices add their rows, in index order
    idx = np.array([4, 1, 4, 0, 4, 1, 4])
    x = _spread(rng, (len(idx), 3))
    want = np.zeros((6, 3))
    for i, row in zip(idx, x):
        for j, v in enumerate(row):
            want[i, j] += v
    assert np.array_equal(T.scatter_rows(T.Tensor(x), idx, 6).data, want)
    x = rng.standard_normal((len(idx), 3))
    w = rng.standard_normal((6, 3))
    check_gradients(lambda a: T.tsum(T.mul(T.mul(y := T.scatter_rows(a, idx, 6), y),
                                           T.Tensor(w))), [x])
