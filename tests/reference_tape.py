"""Reference tape: the generic reverse-mode ops that the library's fused
nodes replaced, kept as the oracle the tests compare those nodes against.

`Tensor` adds elementwise arithmetic, matrix products, reductions, indexing
and row-wise softmax/normalization to the graph walk of `xpr.autodiff`.
`netvlad_tape` is NetVLAD written in those ops; `stack`, `mean`, `tanh` and
`sigmoid` are what the per-sample references of the training loss need.
Every op is checked against central finite differences in test_autodiff.py.
"""
import numpy as np

from xpr import autodiff
from xpr.losses import row_max


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


class Tensor(autodiff.Tensor):
    __slots__ = ()

    @property
    def shape(self):
        return self.data.shape

    # ------------------------------------------------------------- plumbing
    @staticmethod
    def _wrap(other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

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


def netvlad_tape(feat: Tensor, centroids: Tensor, assign_w: Tensor,
                 assign_b: Tensor, proj: np.ndarray) -> Tensor:
    """Soft-assign residual aggregation over valid cells, reduced to d_D."""
    soft = (feat @ assign_w.T + assign_b).softmax_rows()        # (N, K)
    v = soft.T @ feat - soft.sum(axis=0).reshape(-1, 1) * centroids  # (K, C)
    v = v.normalize_rows()
    d = Tensor(proj) @ v.reshape(-1)
    return d.normalize_vec()


def stack(tensors):
    """Stack same-shape tensors along a new leading axis."""
    def bw(g):
        for i, t in enumerate(tensors):
            if t.requires_grad:
                t.grad += g[i]

    return Tensor(np.stack([t.data for t in tensors]), _prev=tuple(tensors),
                  _backward=bw)


def mean(t, axis=None):
    n = t.data.size if axis is None else t.data.shape[axis]
    return t.sum(axis=axis) * (1.0 / n)


def tanh(t):
    y = np.tanh(t.data)

    def bw(g):
        t.grad += g * (1.0 - y * y)

    return Tensor(y, _prev=(t,), _backward=bw)


def sigmoid(t):
    y = 1.0 / (1.0 + np.exp(-t.data))

    def bw(g):
        t.grad += g * y * (1.0 - y)

    return Tensor(y, _prev=(t,), _backward=bw)
