"""Central finite-difference oracle for tape gradients.

Kept independent of the autodiff path: perturbs raw numpy buffers and
re-runs the forward function, never touching recorded backward rules.
"""

import numpy as np

from lanebev import tensor as T

H = 1e-4


def fd_gradients(fn, arrays, h=H):
    """Finite-difference gradient of scalar fn(*arrays) w.r.t. each array.

    Each input is copied C-contiguous, so the flat view perturbed below is a
    view of the array fn reads, whatever the input's memory order."""
    base = [np.array(a, dtype=np.float64, order="C") for a in arrays]
    grads = []
    for i, a in enumerate(base):
        g = np.zeros_like(a)
        flat = a.reshape(-1)
        gflat = g.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            hi = fn(*base)
            flat[j] = orig - h
            lo = fn(*base)
            flat[j] = orig
            gflat[j] = (hi - lo) / (2 * h)
        grads.append(g)
    return grads


def tape_gradients(build, arrays):
    """Tape gradients of scalar build(tape, *leaf_tensors)."""
    tape = T.Tape()
    leaves = [tape.leaf(np.array(a, dtype=np.float64)) for a in arrays]
    loss = build(*leaves)
    tape.backward(loss)
    return [np.zeros_like(l.data) if l.grad is None else l.grad for l in leaves]


def check_gradients(build, arrays, rtol=1e-4, h=H):
    """Compare tape gradients of build(*tensors) against finite differences.

    build must accept Tensors and return a scalar Tensor; the same function
    is re-evaluated on raw arrays for the finite-difference side.
    """
    def scalar_fn(*arrs):
        tensors = [T.Tensor(a) for a in arrs]
        return build(*tensors).item()

    fd = fd_gradients(scalar_fn, arrays, h=h)
    an = tape_gradients(build, arrays)
    for g_fd, g_an in zip(fd, an):
        scale = max(np.abs(g_fd).max(), np.abs(g_an).max(), 1e-8)
        err = np.abs(g_fd - g_an).max() / scale
        assert err < rtol, f"gradient mismatch: rel err {err:.3e} >= {rtol}"
