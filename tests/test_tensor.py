import numpy as np
import pytest

from lanebev import tensor as T
from gradcheck import check_gradients


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


def test_bilinear_cell_center():
    m = np.arange(12, dtype=np.float64).reshape(1, 3, 4)
    # cell (row 1, col 2) center: u=(2+0.5)/4, v=(1+0.5)/3
    pts = T.Tensor([[2.5 / 4, 1.5 / 3]])
    out = T.bilinear_sample(T.Tensor(m), pts)
    assert out.data[0, 0] == pytest.approx(m[0, 1, 2])


def test_bilinear_outside_zero():
    m = T.Tensor(np.ones((2, 3, 3)))
    out = T.bilinear_sample(m, T.Tensor([[-0.5, 0.5]]))
    assert np.array_equal(out.data, np.zeros((1, 2)))


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


def test_grad_bilinear_map_and_points(rng):
    m = rng.standard_normal((2, 4, 5))
    pts = rng.uniform(0.15, 0.85, size=(6, 2))
    check_gradients(lambda a, p: T.tsum(T.mul(T.bilinear_sample(a, p), T.bilinear_sample(a, p))),
                    [m, pts], rtol=1e-3)


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


def test_scatter_rows_forward_and_gradcheck(rng):
    idx = np.array([4, 0, 2])
    x = rng.standard_normal((3, 2))
    out = T.scatter_rows(T.Tensor(x), idx, 6).data
    assert np.array_equal(out[idx], x)
    assert not out[[1, 3, 5]].any()
    w = rng.standard_normal((6, 2))
    check_gradients(lambda a: T.tsum(T.mul(T.mul(y := T.scatter_rows(a, idx, 6), y),
                                           T.Tensor(w))), [x])
