"""Minimal reverse-mode autodiff over dense float64 arrays.

Eager evaluation: each op computes its value immediately and records a
backward closure on the resulting node. Calling ``backward()`` on a scalar
node walks the graph once in reverse topological order and accumulates
gradients into every node created with ``requires_grad=True``.

The op set is deliberately small: enough to express MLP encoders/decoders,
ensemble classifiers, entropy/distance objectives and the differentiable
diversity terms (including a determinant for DPP kernels).
"""

from __future__ import annotations

import warnings

import numpy as np


class ShapeError(ValueError):
    """Raised when an op receives incompatible operand shapes."""


class Tensor:
    """A node in the computation graph wrapping a float64 ndarray."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "op")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None, op="leaf"):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = _parents
        self._backward = _backward
        self.op = op

    @property
    def shape(self):
        return self.data.shape

    def backward(self):
        """Accumulate gradients of this scalar node into all grad leaves."""
        if self.data.size != 1:
            raise ShapeError(f"backward() needs a scalar output; got shape {self.shape}")

        order, seen, stack = [], set(), [(self, False)]  # depth-first, post-order
        while stack:
            n, done = stack.pop()
            if done:
                order.append(n)
            elif n not in seen:
                seen.add(n)
                stack.append((n, True))
                for p in n._parents:
                    stack.append((p, False))
        for n in order:
            n.grad = None
        self.grad = np.array(1.0).reshape(self.data.shape)  # np.ones_like, cheaper
        for n in reversed(order):
            if n._backward is not None and n.grad is not None:
                n._backward(n.grad)

    def _accum(self, g):
        if self.grad is None:
            self.grad = np.array(g, dtype=np.float64)
        else:
            self.grad = self.grad + g

    def __repr__(self):
        return f"Tensor(op={self.op}, shape={self.shape})"


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(grad, shape):
    """Sum ``grad`` down to ``shape`` after numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    try:
        data = a.data + b.data
    except ValueError:
        raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}") from None
    out = Tensor(data, _parents=(a, b), op="add")

    def bw(g):
        if a.requires_grad or a._parents:
            a._accum(_unbroadcast(g, a.shape))
        if b.requires_grad or b._parents:
            b._accum(_unbroadcast(g, b.shape))

    out._backward = bw
    return out


def sub(a, b):
    a, b = as_tensor(a), as_tensor(b)
    try:
        data = a.data - b.data
    except ValueError:
        raise ShapeError(f"sub: incompatible shapes {a.shape} and {b.shape}") from None
    out = Tensor(data, _parents=(a, b), op="sub")

    def bw(g):
        if a.requires_grad or a._parents:
            a._accum(_unbroadcast(g, a.shape))
        if b.requires_grad or b._parents:
            b._accum(-_unbroadcast(g, b.shape))

    out._backward = bw
    return out


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    try:
        data = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul: incompatible shapes {a.shape} and {b.shape}") from None
    out = Tensor(data, _parents=(a, b), op="mul")

    def bw(g):
        if a.requires_grad or a._parents:
            a._accum(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad or b._parents:
            b._accum(_unbroadcast(g * a.data, b.shape))

    out._backward = bw
    return out


def matmul(a, b):
    """a @ b over the last two axes; leading axes broadcast (n x m @ E x m x k)."""
    a, b = as_tensor(a), as_tensor(b)
    if min(a.data.ndim, b.data.ndim) < 2 or a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    out = Tensor(a.data @ b.data, _parents=(a, b), op="matmul")

    def bw(g):
        if a.requires_grad or a._parents:
            a._accum(_unbroadcast(g @ b.data.swapaxes(-1, -2), a.shape))
        if b.requires_grad or b._parents:
            b._accum(_unbroadcast(a.data.swapaxes(-1, -2) @ g, b.shape))

    out._backward = bw
    return out


def affine(x, w, b):
    """x @ w + b, with b broadcast over rows."""
    return add(matmul(x, w), b)


def tanh(x):
    x = as_tensor(x)
    data = np.tanh(x.data)
    out = Tensor(data, _parents=(x,), op="tanh")
    out._backward = lambda g: x._accum(g * (1.0 - data * data))
    return out


def relu(x):
    x = as_tensor(x)
    out = Tensor(np.maximum(x.data, 0.0), _parents=(x,), op="relu")
    out._backward = lambda g: x._accum(g * (x.data > 0.0))
    return out


def sigmoid(x):
    x = as_tensor(x)
    data = _stable_sigmoid(x.data)
    out = Tensor(data, _parents=(x,), op="sigmoid")
    out._backward = lambda g: x._accum(g * data * (1.0 - data))
    return out


def exp(x):
    x = as_tensor(x)
    data = np.exp(x.data)
    out = Tensor(data, _parents=(x,), op="exp")
    out._backward = lambda g: x._accum(g * data)
    return out


def log(x):
    x = as_tensor(x)
    out = Tensor(np.log(x.data), _parents=(x,), op="log")
    out._backward = lambda g: x._accum(g / x.data)
    return out


def softplus(x):
    """log(1 + exp(x)), computed stably."""
    x = as_tensor(x)
    data = np.logaddexp(0.0, x.data)
    out = Tensor(data, _parents=(x,), op="softplus")
    out._backward = lambda g: x._accum(g * _stable_sigmoid(x.data))
    return out


def _stable_sigmoid(v):
    e = np.exp(-np.abs(v))
    d = 1.0 + e
    return np.where(v >= 0, 1.0 / d, e / d)


def recip(x):
    x = as_tensor(x)
    out = Tensor(1.0 / x.data, _parents=(x,), op="recip")
    out._backward = lambda g: x._accum(-g / (x.data * x.data))
    return out


def softmax(x, axis=-1):
    """Softmax along ``axis`` via log-sum-exp; no overflow for |logit| <= 500."""
    x = as_tensor(x)
    shifted = x.data - np.max(x.data, axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / np.sum(e, axis=axis, keepdims=True)
    out = Tensor(s, _parents=(x,), op="softmax")

    def bw(g):
        inner = np.sum(g * s, axis=axis, keepdims=True)
        x._accum(s * (g - inner))

    out._backward = bw
    return out


def tsum(x, axis=None):
    x = as_tensor(x)
    out = Tensor(np.sum(x.data, axis=axis), _parents=(x,), op="sum")

    def bw(g):
        if axis is None:
            x._accum(np.broadcast_to(g, x.shape).copy() if np.ndim(g) else np.full(x.shape, g))
        else:
            x._accum(np.broadcast_to(np.expand_dims(g, axis), x.shape))

    out._backward = bw
    return out


def amax(x, axis):
    """Max along ``axis``; gradient routes to the first argmax only."""
    x = as_tensor(x)
    data = np.max(x.data, axis=axis)
    idx = np.argmax(x.data, axis=axis)
    out = Tensor(data, _parents=(x,), op="amax")

    def bw(g):
        gx = np.zeros_like(x.data)
        grid = np.indices(data.shape)
        full = list(grid)
        full.insert(axis if axis >= 0 else x.data.ndim + axis, idx)
        gx[tuple(full)] = g
        x._accum(gx)

    out._backward = bw
    return out


def l1_dist(a, b):
    """sum |a - b|; subgradient at ties is 0."""
    a, b = as_tensor(a), as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError(f"l1_dist: incompatible shapes {a.shape} and {b.shape}")
    diff = a.data - b.data
    out = Tensor(np.sum(np.abs(diff)), _parents=(a, b), op="l1_dist")
    sign = np.sign(diff)

    def bw(g):
        if a.requires_grad or a._parents:
            a._accum(g * sign)
        if b.requires_grad or b._parents:
            b._accum(-g * sign)

    out._backward = bw
    return out


def sq_norm(x):
    """Squared l2 norm, summed over all entries."""
    x = as_tensor(x)
    out = Tensor(np.sum(x.data * x.data), _parents=(x,), op="sq_norm")
    out._backward = lambda g: x._accum(g * 2.0 * x.data)
    return out


def reshape(x, shape):
    x = as_tensor(x)
    out = Tensor(x.data.reshape(shape), _parents=(x,), op="reshape")
    out._backward = lambda g: x._accum(g.reshape(x.shape))
    return out


def cols(x, lo, hi):
    """Entries lo:hi along the last axis."""
    x = as_tensor(x)
    out = Tensor(x.data[..., lo:hi], _parents=(x,), op="cols")

    def bw(g):
        gx = np.zeros_like(x.data)
        gx[..., lo:hi] = g
        x._accum(gx)

    out._backward = bw
    return out


def concat(tensors, axis=0):
    tensors = [as_tensor(t) for t in tensors]
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis),
                 _parents=tuple(tensors), op="concat")
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bw(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            t._accum(g[tuple(sl)])

    out._backward = bw
    return out


def pick(p, index):
    """Scalar p[index] from a vector, via a one-hot inner product."""
    p = as_tensor(p)
    if p.data.ndim != 1:
        raise ShapeError(f"pick: expected a vector, got shape {p.shape}")
    onehot = np.zeros(p.shape[0])
    onehot[index] = 1.0
    return tsum(mul(p, Tensor(onehot)))


def pairwise_dist(x, base="l2"):
    """k x k matrix of pairwise distances between rows of ``x``.

    base 'l2': euclidean; base 'l1': manhattan. Gradient at coincident
    points is 0 (l2) / uses sign-with-0 (l1).
    """
    x = as_tensor(x)
    if x.data.ndim != 2:
        raise ShapeError(f"pairwise_dist: expected a matrix, got shape {x.shape}")
    diff = x.data[:, None, :] - x.data[None, :, :]  # k x k x d
    if base == "l2":
        d = np.sqrt(np.sum(diff * diff, axis=-1))
    elif base == "l1":
        d = np.sum(np.abs(diff), axis=-1)
    else:
        raise ValueError(f"unknown base distance {base!r}")
    out = Tensor(d, _parents=(x,), op="pairwise_dist")

    def bw(g):
        if base == "l2":
            with np.errstate(divide="ignore", invalid="ignore"):
                unit = np.where(d[:, :, None] > 0.0, diff / d[:, :, None], 0.0)
        else:
            unit = np.sign(diff)
        # d is symmetric in its two index slots; both receive adjoints
        gx = np.einsum("ij,ijk->ik", g, unit) - np.einsum("ij,ijk->jk", g, unit)
        x._accum(gx)

    out._backward = bw
    return out


def det(k):
    """Determinant via LU with partial pivoting; gradient det * inv(K)^T."""
    from scipy.linalg import lu_factor, lu_solve  # LAPACK loads at the first determinant

    k = as_tensor(k)
    if k.data.ndim != 2 or k.shape[0] != k.shape[1]:
        raise ShapeError(f"det: expected a square matrix, got shape {k.shape}")
    n = k.shape[0]
    with warnings.catch_warnings():
        # lu_factor warns on exact singularity; that case is handled below
        warnings.simplefilter("ignore")
        lu, piv = lu_factor(k.data, check_finite=True)
    diag = np.diag(lu)
    parity = (-1.0) ** np.count_nonzero(piv != np.arange(n))
    value = parity * np.prod(diag)
    singular = not np.isfinite(value) or np.any(diag == 0.0)
    if singular:
        value = 0.0
    out = Tensor(value, _parents=(k,), op="det")

    def bw(g):
        if singular or value == 0.0:
            k._accum(g * _adjugate(k.data).T)
        else:
            inv = lu_solve((lu, piv), np.eye(n))
            k._accum(g * value * inv.T)

    out._backward = bw
    return out


def _adjugate(m):
    """Adjugate by cofactors; only used for singular matrices (small k)."""
    n = m.shape[0]
    if n == 1:
        return np.ones((1, 1))
    cof = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            minor = np.delete(np.delete(m, i, axis=0), j, axis=1)
            cof[i, j] = (-1.0) ** (i + j) * np.linalg.det(minor)
    return cof.T
