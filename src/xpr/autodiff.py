"""Minimal reverse-mode tape over numpy arrays.

Every node is a fused op with a hand-written backward pass: it holds its
value, its parents and a closure that adds its gradient into theirs. This
module only walks the graph. Gradients are checked against central finite
differences in the test suite and by `xpr selfcheck`.
"""
from __future__ import annotations

import numpy as np


def row_max(a: np.ndarray) -> np.ndarray:
    """Row maxima of a 2-D array with at least one column, as (N, 1).

    Bit-equal to `a.max(axis=1, keepdims=True)`: a maximum is exact, so the
    order does not matter. A loop of `np.maximum` over the few columns runs
    several times faster than numpy's reduction over a short last axis.
    """
    m = a[:, 0].copy()
    for j in range(1, a.shape[1]):
        np.maximum(m, a[:, j], out=m)
    return m[:, None]


def _visit(t, topo: list, seen: set) -> None:
    """Append t's ancestors that need a gradient, then t, in depth-first
    post-order. A module function, not a closure: a recursive closure is a
    reference cycle that would keep the whole graph alive until the cyclic
    garbage collector runs."""
    if id(t) in seen or not t.requires_grad:
        return
    seen.add(id(t))
    for p in t._prev:
        _visit(p, topo, seen)
    topo.append(t)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev")

    def __init__(self, data, requires_grad=False, _prev=(), _backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad) or any(p.requires_grad for p in _prev)
        self._prev = _prev
        self._backward = _backward

    def backward(self, grad=None) -> None:
        """Gradients of every node this one depends on, seeded with `grad`
        (ones when None): for a non-scalar node, the gradient of
        sum(grad * self) is taken."""
        topo = []
        _visit(self, topo, set())
        for t in topo:
            t.grad = np.zeros_like(t.data)
        self.grad = (np.ones_like(self.data) if grad is None
                     else np.array(grad, dtype=np.float64))
        for t in reversed(topo):
            if t._backward is not None:
                t._backward(t.grad)
