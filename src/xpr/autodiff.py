"""Minimal reverse-mode tape over numpy arrays.

Only the ops that inference NetVLAD and the contrastive term use; the rest
of training runs as fused nodes with hand-written backward passes. Gradients
are checked against central finite differences in the test suite and by
`xpr selfcheck`.
"""
from __future__ import annotations

import numpy as np


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient down to the shape it was broadcast from."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


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


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev")

    def __init__(self, data, requires_grad=False, _prev=(), _backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad) or any(p.requires_grad for p in _prev)
        self._prev = _prev
        self._backward = _backward

    @property
    def shape(self):
        return self.data.shape

    # ------------------------------------------------------------- plumbing
    @staticmethod
    def _wrap(other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def backward(self) -> None:
        topo, seen = [], set()

        def visit(t):
            if id(t) in seen or not t.requires_grad:
                return
            seen.add(id(t))
            for p in t._prev:
                visit(p)
            topo.append(t)

        visit(self)
        for t in topo:
            t.grad = np.zeros_like(t.data)
        self.grad = np.ones_like(self.data)
        for t in reversed(topo):
            if t._backward is not None:
                t._backward(t.grad)

    # ------------------------------------------------------------ arithmetic
    def __add__(self, other):
        other = self._wrap(other)
        out = Tensor(self.data + other.data, _prev=(self, other))

        def bw(g):
            if self.requires_grad:
                self.grad += _unbroadcast(g, self.data.shape)
            if other.requires_grad:
                other.grad += _unbroadcast(g, other.data.shape)

        out._backward = bw
        return out

    __radd__ = __add__

    def __neg__(self):
        out = Tensor(-self.data, _prev=(self,))

        def bw(g):
            if self.requires_grad:
                self.grad += -g

        out._backward = bw
        return out

    def __sub__(self, other):
        return self + (-self._wrap(other))

    def __rsub__(self, other):
        return self._wrap(other) + (-self)

    def __mul__(self, other):
        other = self._wrap(other)
        out = Tensor(self.data * other.data, _prev=(self, other))

        def bw(g):
            if self.requires_grad:
                self.grad += _unbroadcast(g * other.data, self.data.shape)
            if other.requires_grad:
                other.grad += _unbroadcast(g * self.data, other.data.shape)

        out._backward = bw
        return out

    __rmul__ = __mul__

    def __matmul__(self, other):
        other = self._wrap(other)
        out = Tensor(self.data @ other.data, _prev=(self, other))

        def bw(g):
            a, b = self.data, other.data
            if self.requires_grad:
                if a.ndim == 1:
                    self.grad += b @ g if b.ndim > 1 else g * b
                else:
                    gb = g[:, None] if g.ndim == 1 else g
                    bb = b[:, None] if b.ndim == 1 else b
                    self.grad += gb @ bb.T
            if other.requires_grad:
                if b.ndim == 1:
                    other.grad += a.T @ g if a.ndim > 1 else g * a
                else:
                    ga = g[None, :] if g.ndim == 1 else g
                    aa = a[None, :] if a.ndim == 1 else a
                    other.grad += aa.T @ ga

        out._backward = bw
        return out

    # -------------------------------------------------------------- nonlinear
    def relu(self):
        mask = self.data > 0.0
        out = Tensor(np.where(mask, self.data, 0.0), _prev=(self,))

        def bw(g):
            if self.requires_grad:
                self.grad += g * mask

        out._backward = bw
        return out

    # ------------------------------------------------------------- reductions
    def sum(self, axis=None, keepdims=False):
        out = Tensor(self.data.sum(axis=axis, keepdims=keepdims), _prev=(self,))

        def bw(g):
            if not self.requires_grad:
                return
            if axis is None:
                self.grad += np.broadcast_to(g, self.data.shape)
            else:
                gg = g if keepdims else np.expand_dims(g, axis)
                self.grad += np.broadcast_to(gg, self.data.shape)

        out._backward = bw
        return out

    # -------------------------------------------------------------- structure
    def __getitem__(self, idx):
        out = Tensor(self.data[idx], _prev=(self,))

        def bw(g):
            if self.requires_grad:
                np.add.at(self.grad, idx, g)

        out._backward = bw
        return out

    def reshape(self, *shape):
        out = Tensor(self.data.reshape(*shape), _prev=(self,))

        def bw(g):
            if self.requires_grad:
                self.grad += g.reshape(self.data.shape)

        out._backward = bw
        return out

    @property
    def T(self):
        out = Tensor(self.data.T, _prev=(self,))

        def bw(g):
            if self.requires_grad:
                self.grad += g.T

        out._backward = bw
        return out

    # --------------------------------------------------------- fused helpers
    def softmax_rows(self):
        """Row-wise softmax of a 2D tensor (stable; max is detached)."""
        z = self.data - row_max(self.data)
        e = np.exp(z)
        y = e / e.sum(axis=1, keepdims=True)
        out = Tensor(y, _prev=(self,))

        def bw(g):
            if self.requires_grad:
                self.grad += y * (g - (g * y).sum(axis=1, keepdims=True))

        out._backward = bw
        return out

    def logsumexp_rows(self):
        """Row-wise log(sum(exp)) of a 2D tensor, (N,) output."""
        m = row_max(self.data)
        e = np.exp(self.data - m)
        s = e.sum(axis=1, keepdims=True)
        out = Tensor((m + np.log(s)).ravel(), _prev=(self,))
        soft = e / s

        def bw(g):
            if self.requires_grad:
                self.grad += g[:, None] * soft

        out._backward = bw
        return out

    def normalize_rows(self):
        """Unit-norm rows; exactly-zero rows stay zero with zero gradient."""
        norms = np.sqrt((self.data ** 2).sum(axis=1, keepdims=True))
        safe = np.where(norms > 0.0, norms, 1.0)
        y = self.data / safe
        out = Tensor(y, _prev=(self,))

        def bw(g):
            if self.requires_grad:
                dot = (g * y).sum(axis=1, keepdims=True)
                self.grad += np.where(norms > 0.0, (g - y * dot) / safe, 0.0)

        out._backward = bw
        return out

    def normalize_vec(self):
        """Unit-norm 1D vector; the zero vector stays zero."""
        n = float(np.sqrt((self.data ** 2).sum()))
        if n == 0.0:
            return Tensor(np.zeros_like(self.data), _prev=(self,),
                          _backward=lambda g: None)
        y = self.data / n
        out = Tensor(y, _prev=(self,))

        def bw(g):
            if self.requires_grad:
                self.grad += (g - y * float((g * y).sum())) / n

        out._backward = bw
        return out

