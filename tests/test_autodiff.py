"""Finite-difference checks for every op of the reference tape, and the
graph walk of `xpr.autodiff` that it and the library's fused nodes share.

Each check perturbs inputs with a central difference at step 1e-6 and
compares against the backward pass at rtol 1e-5.
"""
import gc
import weakref

import numpy as np
import pytest

from reference_tape import Tensor
from xpr import autodiff
from xpr.autodiff import row_max
from xpr.config import make_rng


def fd_grad(f, x, eps=1e-6):
    g = np.zeros_like(x, dtype=float)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        xp, xm = x.copy(), x.copy()
        xp[idx] += eps
        xm[idx] -= eps
        g[idx] = (f(xp) - f(xm)) / (2 * eps)
    return g


def check(build, *shapes, seed=0, low=-2.0, high=2.0):
    """build(tensors...) -> scalar Tensor; FD-checks grad of every input."""
    rng = make_rng(seed, 33)
    arrays = [rng.uniform(low, high, s) for s in shapes]
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = build(*tensors)
    assert out.data.shape == ()
    out.backward()
    for i, a in enumerate(arrays):
        def f(x, i=i):
            args = [Tensor(v) for v in arrays]
            args[i] = Tensor(x)
            return float(build(*args).data)
        np.testing.assert_allclose(tensors[i].grad, fd_grad(f, a),
                                   rtol=1e-5, atol=1e-7)


def test_add_mul_broadcast():
    check(lambda a, b: ((a + b) * a).sum(), (3, 4), (4,))


def test_sub_neg_rsub():
    check(lambda a, b: ((a - b) * (1.0 - a)).sum(), (5,), (5,))


def test_matmul_2d():
    check(lambda a, b: (a @ b).sum(), (3, 4), (4, 2))


def test_matmul_vec_cases():
    check(lambda a, b: (a @ b).sum(), (4,), (4, 3))
    check(lambda a, b: (a @ b).sum(), (3, 4), (4,))
    check(lambda a, b: a @ b, (4,), (4,))


def test_nonlinearities():
    check(lambda a: a.relu().sum(), (6, 2))


def test_sum_axes():
    check(lambda a: (a.sum(axis=0, keepdims=True) * a).sum(), (3, 5))
    check(lambda a: a.sum(axis=1).sum(), (3, 5))


def test_getitem_reshape_transpose():
    check(lambda a: (a[1] * a[1]).sum(), (4, 3))
    check(lambda a: a.reshape(6).sum(), (2, 3))
    check(lambda a: (a.T @ a).sum(), (3, 2))


def test_softmax_rows():
    check(lambda a: (a.softmax_rows() * a.softmax_rows()).sum(), (4, 5))


def test_softmax_rows_sum_to_one():
    t = Tensor(make_rng(1, 2).normal(size=(6, 9)) * 10)
    assert np.allclose(t.softmax_rows().data.sum(axis=1), 1.0)


def test_logsumexp_rows():
    check(lambda a: a.logsumexp_rows().sum(), (3, 6))
    # stable at large magnitudes
    t = Tensor(np.array([[1000.0, 1000.0]]))
    assert t.logsumexp_rows().data[0] == pytest.approx(1000.0 + np.log(2.0))


def test_normalize_rows():
    check(lambda a: (a.normalize_rows() * a).sum(), (4, 3))
    y = Tensor(np.array([[3.0, 4.0], [0.0, 0.0]]), requires_grad=True)
    out = y.normalize_rows()
    assert np.allclose(out.data[0], [0.6, 0.8])
    assert np.array_equal(out.data[1], [0.0, 0.0])
    out.sum().backward()
    assert np.array_equal(y.grad[1], [0.0, 0.0])


def test_normalize_vec():
    check(lambda a: (a.normalize_vec() * a).sum(), (5,))
    z = Tensor(np.zeros(4), requires_grad=True)
    out = z.normalize_vec()
    assert not out.data.any()
    out.sum().backward()
    assert not z.grad.any()


def test_grad_accumulates_through_reuse():
    # d/dx (x*x + x) = 2x + 1
    x = Tensor(np.array([2.0, -1.0]), requires_grad=True)
    (x * x + x).sum().backward()
    assert np.allclose(x.grad, 2 * x.data + 1)


def test_no_grad_leaf_stays_none():
    a = Tensor(np.ones(3), requires_grad=True)
    b = Tensor(np.ones(3))
    (a * b).sum().backward()
    assert b.grad is None or not b.requires_grad


def test_diamond_graph():
    # y = h + h with h = x * x: grad is 2 * 2x
    x = Tensor(np.array([0.3, -0.7]), requires_grad=True)
    h = x * x
    (h + h).sum().backward()
    assert np.allclose(x.grad, 4 * x.data)


def test_backward_seeds_a_non_scalar_node():
    # a fused node y = 3x with a hand-written backward, seeded with g
    x = autodiff.Tensor(np.array([[1.0, -2.0], [0.5, 4.0]]), requires_grad=True)

    def bw(g):
        x.grad += 3.0 * g

    y = autodiff.Tensor(3.0 * x.data, _prev=(x,), _backward=bw)
    g = np.array([[0.25, -1.0], [2.0, 0.0]])
    y.backward(g)
    assert np.array_equal(x.grad, 3.0 * g)
    assert np.array_equal(y.grad, g) and y.grad is not g
    y.backward()
    assert np.array_equal(x.grad, np.full((2, 2), 3.0))


def test_backward_leaves_no_reference_cycle():
    # a graph must die with its last reference, not wait for the cyclic
    # collector, or a training step's arrays outlive it
    x = autodiff.Tensor(np.ones(3), requires_grad=True)

    def bw(g):
        x.grad += g

    y = autodiff.Tensor(np.ones(3), _prev=(x,), _backward=bw)
    alive = weakref.ref(y.data)
    gc.disable()
    try:
        y.backward()
        del y
        assert alive() is None
    finally:
        gc.enable()


def test_row_max_bit_equal_to_reduction():
    rng = make_rng(3, 4)
    a = rng.normal(size=(50, 9))
    a[::3, 4] = a[::3, 1]                 # ties between columns
    a[5] = 2.0                            # a row of equal values
    a[7, :] = [-0.0, 0.0] * 4 + [-0.0]     # signed zeros
    padded = np.array([[0.3, 0.1, -np.inf, -np.inf],    # contrastive padding
                       [-np.inf, 0.2, -np.inf, -np.inf],
                       [0.5, 0.5, 0.5, -np.inf]])
    for x in (a, padded, a[:, :1], a[:0]):
        got = row_max(x)
        assert got.shape == (len(x), 1)
        assert np.array_equal(got, x.max(axis=1, keepdims=True))
