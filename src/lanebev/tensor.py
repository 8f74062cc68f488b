"""Minimal dense tensor type with tape-based reverse-mode autodiff.

Everything in the pipeline (convolutions, attention, bilinear sampling,
losses) is built from the operations in this module.  Data lives in numpy
arrays; an explicit :class:`Tape` records backward rules per forward pass,
so there is no implicit global graph.

Conventions:
  * every op's output and gradients take its inputs' dtype (float64 or
    float32); a constant the model builds is made with :func:`constant` in
    the dtype of the tensor it meets, so it never promotes a float32 input
  * gradients accumulate into ``Tensor.grad`` buffers during ``tape.backward``
  * tensors are immutable after creation except for gradient accumulation
"""

from __future__ import annotations

import numpy as np
import scipy.sparse


class DimensionError(ValueError):
    """Shapes passed to an operation are incompatible."""


class TapeError(RuntimeError):
    """Tape misuse: repeated backward, mixed tapes, non-scalar loss."""


_DEBUG_CHECKS = False


def set_debug_checks(enabled: bool):
    """When enabled, every tensor creation asserts all scalars are finite."""
    global _DEBUG_CHECKS
    _DEBUG_CHECKS = bool(enabled)


class Tensor:
    __slots__ = ("data", "grad", "tape", "__weakref__")

    def __init__(self, data, tape=None):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.data = arr
        self.grad = None
        self.tape = tape
        if _DEBUG_CHECKS and not np.all(np.isfinite(arr)):
            raise FloatingPointError("non-finite value in tensor")

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self):
        return float(self.data.reshape(()))

    def detach(self):
        """Copy of the value as an untracked leaf."""
        return Tensor(self.data.copy())

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, tracked={self.tape is not None})"

    def __getitem__(self, idx):
        return getitem(self, idx)


class Tape:
    """Ordered record of operations for one forward pass.

    Each recorded operation is its backward closure together with its output.
    Backward visits the operations once, in reverse creation order, runs a
    closure only when its output received a gradient, and drops each one as
    it goes: the graph's intermediate arrays are freed during backward, not
    left to the cyclic collector.  A tape can be consumed by ``backward``
    only once.
    """

    def __init__(self):
        self._records = []
        self._outs = []
        self._released = 0
        self._consumed = False

    def leaf(self, data):
        """Create a leaf tensor attached to this tape."""
        return Tensor(data, tape=self)

    @property
    def num_ops(self):
        return len(self._records) + self._released

    def _record(self, backward_fn, out):
        self._records.append(backward_fn)
        self._outs.append(out)

    def backward(self, loss: Tensor):
        if self._consumed:
            raise TapeError("tape already consumed; build a new tape per forward pass")
        if loss.tape is not self:
            raise TapeError("loss tensor does not belong to this tape")
        if loss.data.size != 1:
            raise TapeError(f"backward requires a scalar loss, got shape {loss.data.shape}")
        self._consumed = True
        loss.grad = np.ones_like(loss.data)
        records, self._records = self._records, []
        outs, self._outs = self._outs, []
        self._released = len(records)
        while records:
            if outs.pop().grad is None:
                records.pop()
            else:
                records.pop()()


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def constant(value, like: Tensor) -> Tensor:
    """An untracked tensor of ``value`` in ``like``'s dtype.  numpy 2 promotes
    a float32 array met by a float64 one, 0-d included, so every constant an
    op meets takes the dtype of the tensor it meets."""
    return Tensor(np.asarray(value, dtype=like.data.dtype))


def _tape_of(*tensors):
    tape = None
    for t in tensors:
        if t.tape is not None:
            if tape is None:
                tape = t.tape
            elif tape is not t.tape:
                raise TapeError("operation mixes tensors from different tapes")
    return tape


def _op(data, inputs, backward):
    """The output of one op.  When an input is tracked, the op's ``backward``
    closure (which reads ``out.grad``) is recorded on the tape with it."""
    tape = _tape_of(*inputs)
    out = Tensor(data, tape=tape)
    if tape is not None:
        tape._record(backward, out)
    return out


def _accumulate(t: Tensor, g):
    if t.tape is None:
        return
    if t.grad is None:   # g broadcast into an owned array; cheaper than np.broadcast_to().copy()
        t.grad = np.empty(t.data.shape, dtype=t.data.dtype)
        t.grad[...] = g
    else:
        t.grad += g


def _unbroadcast(g, shape):
    """Sum gradient g down to the given broadcast-source shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise ops


def add(a: Tensor, b: Tensor) -> Tensor:
    def backward():
        _accumulate(a, _unbroadcast(out.grad, a.data.shape))
        _accumulate(b, _unbroadcast(out.grad, b.data.shape))
    out = _op(a.data + b.data, (a, b), backward)
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    def backward():
        _accumulate(a, _unbroadcast(out.grad, a.data.shape))
        _accumulate(b, _unbroadcast(-out.grad, b.data.shape))
    out = _op(a.data - b.data, (a, b), backward)
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    def backward():
        _accumulate(a, _unbroadcast(out.grad * b.data, a.data.shape))
        _accumulate(b, _unbroadcast(out.grad * a.data, b.data.shape))
    out = _op(a.data * b.data, (a, b), backward)
    return out


def div(a: Tensor, b: Tensor) -> Tensor:
    def backward():
        _accumulate(a, _unbroadcast(out.grad / b.data, a.data.shape))
        _accumulate(b, _unbroadcast(-out.grad * a.data / (b.data * b.data), b.data.shape))
    out = _op(a.data / b.data, (a, b), backward)
    return out


def relu(x: Tensor) -> Tensor:
    def backward():
        _accumulate(x, out.grad * (x.data > 0.0))
    out = _op(np.maximum(x.data, 0.0), (x,), backward)
    return out


def sigmoid(x: Tensor) -> Tensor:
    s = 1.0 / (1.0 + np.exp(-x.data))
    def backward():
        _accumulate(x, out.grad * s * (1.0 - s))
    out = _op(s, (x,), backward)
    return out


def exp(x: Tensor) -> Tensor:
    e = np.exp(x.data)
    def backward():
        _accumulate(x, out.grad * e)
    out = _op(e, (x,), backward)
    return out


def log(x: Tensor) -> Tensor:
    def backward():
        _accumulate(x, out.grad / x.data)
    out = _op(np.log(x.data), (x,), backward)
    return out


def sqrt(x: Tensor) -> Tensor:
    r = np.sqrt(x.data)
    def backward():
        _accumulate(x, out.grad * 0.5 / r)
    out = _op(r, (x,), backward)
    return out


def absolute(x: Tensor) -> Tensor:
    def backward():
        _accumulate(x, out.grad * np.sign(x.data))
    out = _op(np.abs(x.data), (x,), backward)
    return out


# ---------------------------------------------------------------------------
# reductions / reshaping


def tsum(x: Tensor, axis=None, keepdims=False) -> Tensor:
    def backward():
        g = out.grad
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accumulate(x, g)
    out = _op(x.data.sum(axis=axis, keepdims=keepdims), (x,), backward)
    return out


def tmean(x: Tensor, axis=None, keepdims=False) -> Tensor:
    if axis is None:
        n = x.data.size
    else:
        n = x.data.shape[axis]
    return mul(tsum(x, axis=axis, keepdims=keepdims), constant(1.0 / n, x))


def reshape(x: Tensor, shape) -> Tensor:
    def backward():
        _accumulate(x, out.grad.reshape(x.data.shape))
    out = _op(x.data.reshape(shape), (x,), backward)
    return out


def transpose(x: Tensor, axes) -> Tensor:
    def backward():
        _accumulate(x, out.grad.transpose(np.argsort(axes)))
    out = _op(x.data.transpose(axes), (x,), backward)
    return out


def concat(tensors, axis=0) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    if not tensors:
        raise DimensionError("concat of zero tensors")
    def backward():
        splits = np.cumsum([t.data.shape[axis] for t in tensors])[:-1]
        for t, g in zip(tensors, np.split(out.grad, splits, axis=axis)):
            _accumulate(t, g)
    out = _op(np.concatenate([t.data for t in tensors], axis=axis), tensors, backward)
    return out


def stack(tensors, axis=0) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    def backward():
        for i, t in enumerate(tensors):
            _accumulate(t, np.take(out.grad, i, axis=axis))
    out = _op(np.stack([t.data for t in tensors], axis=axis), tensors, backward)
    return out


def _index_add(shape, idx, values):
    """Zeros of shape plus values added where idx selects, repeats in index order."""
    size = int(np.prod(shape))
    flat = np.arange(size).reshape(shape)[idx].ravel()
    return np.bincount(flat, values.ravel(), size).astype(values.dtype, copy=False).reshape(shape)


def _is_basic(idx):
    """An int, a slice or a tuple of those: it selects each element at most once."""
    return all(isinstance(i, (int, np.integer, slice)) and not isinstance(i, bool)
               for i in (idx if isinstance(idx, tuple) else (idx,)))


def getitem(x: Tensor, idx) -> Tensor:
    def backward():
        if _is_basic(idx):   # no repeats; 0.0 + g turns -0.0 to +0.0 as bincount does
            g = np.zeros(x.data.shape, dtype=out.grad.dtype)
            g[idx] += out.grad
        else:
            g = _index_add(x.data.shape, idx, out.grad)
        _accumulate(x, g)
    out = _op(x.data[idx], (x,), backward)
    return out


def scatter_rows(x: Tensor, idx, n: int) -> Tensor:
    """[n, ...] zeros plus x's rows added at the indices idx, repeats in index order."""
    def backward():
        _accumulate(x, out.grad[idx])
    out = _op(_index_add((n,) + x.data.shape[1:], idx, x.data), (x,), backward)
    return out


# ---------------------------------------------------------------------------
# linear algebra


def _check_matmul(a, b):
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(f"matmul needs >=2-d tensors, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul inner dimensions disagree: {a.shape} x {b.shape}")


def _matmul_backward(a, b, g):
    ga = g @ np.swapaxes(b.data, -1, -2)
    gb = np.swapaxes(a.data, -1, -2) @ g
    _accumulate(a, _unbroadcast(ga, a.data.shape))
    _accumulate(b, _unbroadcast(gb, b.data.shape))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    _check_matmul(a, b)
    def backward():
        _matmul_backward(a, b, out.grad)
    out = _op(a.data @ b.data, (a, b), backward)
    return out


def _add_bias(y, b):
    """y + b in y's buffer, unless b's dtype promotes the sum."""
    y = y.astype(np.result_type(y, b), copy=False)
    y += b
    return y


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """x[..., d_in] @ w[d_in, d_out] + b[d_out] as one op."""
    if b is None:
        return matmul(x, w)
    _check_matmul(x, w)
    if b.shape != w.shape[-1:]:
        raise DimensionError(f"linear bias {b.shape} vs output dim {w.shape[-1]}")
    def backward():
        _accumulate(b, _unbroadcast(out.grad, b.data.shape))
        _matmul_backward(x, w, out.grad)
    out = _op(_add_bias(x.data @ w.data, b.data), (x, w, b), backward)
    return out


def softmax(x: Tensor, axis=-1) -> Tensor:
    if x.data.shape[axis] < 1:
        raise DimensionError("softmax over an empty axis")
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=axis, keepdims=True)
    def backward():
        g = out.grad
        _accumulate(x, s * (g - (g * s).sum(axis=axis, keepdims=True)))
    out = _op(s, (x,), backward)
    return out


def log_softmax(x: Tensor, axis=-1) -> Tensor:
    if x.data.shape[axis] < 1:
        raise DimensionError("log_softmax over an empty axis")
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    ls = shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    def backward():
        g = out.grad
        _accumulate(x, g - np.exp(ls) * g.sum(axis=axis, keepdims=True))
    out = _op(ls, (x,), backward)
    return out


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    n = x.shape[-1]
    if gain.shape != (n,) or bias.shape != (n,):
        raise DimensionError(f"layer_norm affine shapes {gain.shape}/{bias.shape} vs feature dim {n}")
    xc = x.data - x.data.mean(axis=-1, keepdims=True)
    var = np.square(xc).sum(axis=-1, keepdims=True) / n   # np.var's own steps, bit for bit
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    def backward():
        g = out.grad
        gxhat = g * gain.data
        _accumulate(gain, _unbroadcast(g * xhat, gain.data.shape))
        _accumulate(bias, _unbroadcast(g, bias.data.shape))
        m1 = gxhat.mean(axis=-1, keepdims=True)
        m2 = (gxhat * xhat).mean(axis=-1, keepdims=True)
        _accumulate(x, inv * (gxhat - m1 - xhat * m2))
    out = _op(xhat * gain.data + bias.data, (x, gain, bias), backward)
    return out


# ---------------------------------------------------------------------------
# convolution / pooling


def conv_out_dim(n, k, stride, pad):
    return (n + 2 * pad - k) // stride + 1


def conv2d(x: Tensor, kernels: Tensor, bias: Tensor | None = None,
           stride: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlation of x[(N,)C,H,W] with kernels[C_out,C_in,kh,kw], plus bias[C_out].

    The forward is one GEMM per image of the [C_out, C*kh*kw] kernels with the
    (c, i, j)-ordered columns [C*kh*kw, H'*W'], so the output is already NCHW.
    """
    squeeze = x.ndim == 3
    xd = x.data[None] if squeeze else x.data
    if xd.ndim != 4 or kernels.ndim != 4:
        raise DimensionError(f"conv2d: input {x.shape}, kernels {kernels.shape}")
    nb, cin, h, w = xd.shape
    cout, kcin, kh, kw = kernels.shape
    if kcin != cin:
        raise DimensionError(f"conv2d channel mismatch: input {cin} vs kernels {kcin}")
    if bias is not None and bias.shape != (cout,):
        raise DimensionError(f"conv2d bias {bias.shape} vs {cout} output channels")
    if kh > h + 2 * padding or kw > w + 2 * padding:
        raise DimensionError(
            f"conv2d kernel {kh}x{kw} larger than padded input {h + 2 * padding}x{w + 2 * padding}")
    hout = conv_out_dim(h, kh, stride, padding)
    wout = conv_out_dim(w, kw, stride, padding)

    xp = xd
    if padding:
        xp = np.zeros((nb, cin, h + 2 * padding, w + 2 * padding), dtype=xd.dtype)
        xp[:, :, padding:padding + h, padding:padding + w] = xd
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    win = win[:, :, ::stride, ::stride][:, :, :hout, :wout]  # [N,C,H',W',kh,kw]
    cols = win.transpose(0, 1, 4, 5, 2, 3).reshape(nb, cin * kh * kw, hout * wout)
    y = (kernels.data.reshape(cout, -1) @ cols).reshape(nb, cout, hout, wout)
    if bias is not None:
        y = _add_bias(y, bias.data[:, None, None])

    def backward():
        # One GEMM per kernel tap (kn2row) over channel-last views: tap
        # (i, j) pairs output pixel (h, w) with padded input pixel
        # (i + s*h, j + s*w).
        if bias is not None:
            _accumulate(bias, _unbroadcast(out.grad, (cout, 1, 1)).reshape(cout))
        g = out.grad[None] if squeeze else out.grad
        g4 = np.ascontiguousarray(g.transpose(0, 2, 3, 1))   # [N,H',W',O]
        g2 = g4.reshape(-1, cout)

        def tap(a, i, j):   # [N,H',W',C] slice of a channel-last [N,Hp,Wp,C] array
            return a[:, i:i + stride * (hout - 1) + 1:stride,
                     j:j + stride * (wout - 1) + 1:stride]

        xl = xp.transpose(0, 2, 3, 1)
        gk = np.empty_like(kernels.data)
        for i in range(kh):
            for j in range(kw):
                gk[:, :, i, j] = g2.T @ tap(xl, i, j).reshape(-1, cin)
        _accumulate(kernels, gk)
        if x.tape is not None:
            gxp = np.zeros(xl.shape, dtype=xp.dtype)   # channel-last in memory
            tap_shape = g4.shape[:3] + (cin,)
            for i in range(kh):
                for j in range(kw):   # one 2-D GEMM; g4 @ K would make one per image row
                    tap(gxp, i, j)[...] += (g2 @ kernels.data[:, :, i, j]).reshape(tap_shape)
            gx = gxp[:, padding:padding + h, padding:padding + w].transpose(0, 3, 1, 2)
            _accumulate(x, gx[0] if squeeze else gx)
    out = _op(y[0] if squeeze else y, (x, kernels) if bias is None else (x, kernels, bias), backward)
    return out


def max_pool2d(x: Tensor, k: int = 2, stride: int | None = None, padding: int = 0) -> Tensor:
    stride = stride or k
    squeeze = x.ndim == 3
    xd = x.data[None] if squeeze else x.data
    if padding:
        xd = np.pad(xd, ((0, 0), (0, 0), (padding, padding), (padding, padding)),
                    constant_values=-np.inf)
    nb, c, h, w = xd.shape
    hout = conv_out_dim(h, k, stride, 0)
    wout = conv_out_dim(w, k, stride, 0)
    win = np.lib.stride_tricks.sliding_window_view(xd, (k, k), axis=(2, 3))
    win = win[:, :, ::stride, ::stride][:, :, :hout, :wout]
    flat = win.reshape(nb, c, hout, wout, k * k)
    arg = flat.argmax(axis=-1)
    y = np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0]
    def backward():
        g = out.grad[None] if squeeze else out.grad
        ki, kj = np.divmod(arg, k)
        nn, cc, ii, jj = np.indices(arg.shape)
        gx = _index_add(xd.shape, (nn, cc, ii * stride + ki, jj * stride + kj), g)
        if padding:
            gx = gx[:, :, padding:-padding, padding:-padding]
        _accumulate(x, gx[0] if squeeze else gx)
    out = _op(y[0] if squeeze else y, (x,), backward)
    return out


# ---------------------------------------------------------------------------
# bilinear sampling


def bilinear_sample(value_map: Tensor, points: Tensor, weights: Tensor | None = None) -> Tensor:
    """Sample the channel-last value_map[H,W,C] at normalized points[N,2] = (u,v) in [0,1]^2.

    A grouped map [H,W,G,C] is query-major: output row r (and its points)
    samples group r % G, and the output is [R,C] (deformable attention passes
    its heads as groups).  Align-corners-false: pixel (r, c) center sits at
    u=(c+0.5)/W, v=(r+0.5)/H.  Points outside the unit square return zeros;
    neighbours outside the map contribute zero (border-zero policy).  With
    weights [R,K], output row r is sum_k weights[r, k] * sample(points[r*K+k]);
    no weights means unit weights [N,1].  The output and the map and weight
    gradients take the map's and weights' dtype, the point gradient the
    points' dtype; the index arithmetic runs in float64 whatever they are.

    One CSR matrix S [R, H*W*G] holds corner weight times point weight per
    point and corner (00, 01, 10, 11) over the map's rows [H*W*G, C]: the
    forward is S @ rows, the map gradient S.T @ g, both in (point, corner) order.
    Every point owns its four entries (4K per row).  One outside the square,
    NaN and inf included, is clamped into it for indexing at point weight zero,
    so a non-finite map value there reaches the row, as an off-map neighbour's can.
    """
    if value_map.ndim not in (3, 4):
        raise DimensionError(f"bilinear_sample expects an [H,W,(G,)C] map, got {value_map.shape}")
    h, w, c = value_map.shape[0], value_map.shape[1], value_map.shape[-1]
    groups = value_map.shape[2] if value_map.ndim == 4 else 1
    n = points.data.size // 2
    weights = Tensor(np.ones((n, 1), value_map.data.dtype)) if weights is None else weights
    shape = weights.shape
    if points.shape != (n, 2) or len(shape) != 2 or shape[0] * shape[1] != n or shape[0] % groups:
        raise DimensionError(f"points {points.shape} and weights {shape} unfit for {groups} groups")
    rows, k = shape
    p = np.ascontiguousarray(points.data.T, dtype=np.float64)  # [2 (x, y), n]
    inside = (p[0] >= 0.0) & (p[0] <= 1.0) & (p[1] >= 0.0) & (p[1] <= 1.0)

    # per axis (x, y), lo is in [-1, size-1]: each neighbour is clamped on
    # one side only, and one outside the map gets weight zero.  The index
    # arithmetic runs in float64, exact for these integers, next to the
    # weights, which are then cast once to the sample's dtype, and the pixels
    # once to int32: what scipy keeps, so its constructor copies no column index.
    size = np.array([[w], [h]], dtype=np.float64)
    f = np.fmin(np.fmax(p, 0.0), 1.0) * size - 0.5
    lo = np.floor(f)
    hi = lo + 1.0
    # per neighbour [2 (lo, hi), 2 (x, y), n]: on the map, its weight, its clamped index
    valid, wts, at = np.empty((2, 2, n), dtype=bool), np.empty((2, 2, n)), np.empty((2, 2, n))
    np.greater_equal(lo, 0.0, out=valid[0])
    np.less(hi, size, out=valid[1])
    np.subtract(f, lo, out=wts[1])
    np.subtract(1.0, wts[1], out=wts[0])
    wts *= valid
    np.maximum(lo, 0.0, out=at[0])
    np.minimum(hi, size - 1.0, out=at[1])
    wts = wts.astype(np.result_type(value_map.data, weights.data), copy=False)
    # the corner pixels and weights, corner-major [4, n] in the order 00, 01, 10, 11 (dy, dx)
    pixel = (at[:, 1, None] * w + at[:, 0]).reshape(4, -1).astype(np.int32)
    wgt = (wts[:, 1, None] * wts[:, 0]).reshape(4, -1)
    pw = np.where(inside, weights.data.reshape(-1), 0.0)
    column = pixel * groups + np.tile(np.arange(groups, dtype=np.int32).repeat(k), rows // groups)
    # the CSR data and columns are point-major [n, 4], written a corner at a time
    data, cols = np.empty((n, 4), wts.dtype), np.empty((n, 4), dtype=np.int32)
    for j in range(4):
        np.multiply(wgt[j], pw, out=data[:, j])
        cols[:, j] = column[j]
    interp = scipy.sparse.csr_matrix((data.reshape(-1), cols.reshape(-1),
                                      np.arange(0, 4 * n + 1, 4 * k, dtype=np.int32)),
                                     shape=(rows, h * w * groups))
    vrows = value_map.data.reshape(-1, c)  # [H*W*G, C]

    def backward():
        g = out.grad
        if value_map.tape is not None:
            _accumulate(value_map, (interp.T @ g).reshape(value_map.shape))
        # per entry g[row] . map row [4, n], read from one product per group
        prod = (g.reshape(-1, groups, c).transpose(1, 0, 2)
                @ vrows.reshape(h * w, groups, c).transpose(1, 2, 0))   # [G, R/G, H*W]
        # row r = q*G + g starts at (g*R/G + q)*H*W in the flat product
        start = np.arange(rows // groups)[:, None] + np.arange(groups) * (rows // groups)
        dot = prod.reshape(-1)[pixel + (start * (h * w)).reshape(-1).repeat(k)]
        if weights.tape is not None:
            _accumulate(weights, np.where(inside, (dot * wgt).sum(axis=0), 0.0).reshape(rows, k))
        dot *= pw
        if points.tape is not None:
            sgn = valid * np.array([[[-1.0]], [[1.0]]], wts.dtype)
            dwx = (wts[:, 1, None] * sgn[:, 0]).reshape(4, -1)
            dwy = (sgn[:, 1, None] * wts[:, 0]).reshape(4, -1)
            gpts = np.empty((n, 2), points.data.dtype)
            gpts[:, 0] = (dot * dwx * w).sum(axis=0)
            gpts[:, 1] = (dot * dwy * h).sum(axis=0)
            gpts[~inside] = 0.0
            _accumulate(points, gpts)
    out = _op(interp @ vrows, (value_map, points, weights), backward)
    return out
