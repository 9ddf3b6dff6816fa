"""Reverse-mode automatic differentiation on numpy arrays.

A Var wraps an ndarray and records the operations applied to it; calling
``backward`` on a scalar Var walks the recorded graph in reverse topological
order and accumulates gradients into every Var reached.  Non-Var operands are
treated as constants and receive no gradient.

Gradient recording can be suspended globally with ``no_grad()`` so the same
kernel code serves both inference and training.
"""

import contextlib

import numpy as np

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph recording."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def _unbroadcast(g, shape):
    """Reduce gradient g (broadcast shape) back down to ``shape``."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


class Var:
    """Node in the autodiff graph holding an ndarray value."""

    __slots__ = ("data", "grad", "_prev", "_backward")

    def __init__(self, data, _prev=(), _backward=None):
        self.data = np.asarray(data, dtype=np.float64 if np.asarray(data).dtype.kind != "f" else None)
        self.grad = None
        self._prev = _prev
        self._backward = _backward

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def __repr__(self):
        return f"Var(shape={self.data.shape}, dtype={self.data.dtype})"

    # ---- graph construction helpers -------------------------------------

    @staticmethod
    def _make(data, parents, backward):
        if _GRAD_ENABLED:
            return Var(data, tuple(p for p in parents if isinstance(p, Var)), backward)
        return Var(data)

    def _accum(self, g, own=False):
        """Accumulate gradient g.

        own=True promises that g is a freshly allocated array the caller will
        not reuse, so it can be adopted without a defensive copy.
        """
        if self.grad is None:
            if own and g.flags.owndata and g.dtype == self.data.dtype:
                self.grad = g.reshape(self.data.shape)
            else:
                self.grad = np.array(g, dtype=self.data.dtype, copy=True).reshape(self.data.shape)
        else:
            self.grad += g.reshape(self.data.shape)

    # ---- arithmetic ------------------------------------------------------

    def __add__(self, other):
        a, b = self, other
        bd = b.data if isinstance(b, Var) else np.asarray(b)
        out_data = a.data + bd

        def bwd(g):
            ga = _unbroadcast(g, a.data.shape)
            a._accum(ga, own=ga is not g)
            if isinstance(b, Var):
                gb = _unbroadcast(g, b.data.shape)
                b._accum(gb, own=gb is not g)

        return Var._make(out_data, (a, b), bwd)

    __radd__ = __add__

    def __neg__(self):
        a = self

        def bwd(g):
            a._accum(-g, own=True)

        return Var._make(-a.data, (a,), bwd)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Var) else -np.asarray(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a, b = self, other
        bd = b.data if isinstance(b, Var) else np.asarray(b)
        out_data = a.data * bd

        def bwd(g):
            a._accum(_unbroadcast(g * bd, a.data.shape), own=True)
            if isinstance(b, Var):
                b._accum(_unbroadcast(g * a.data, b.data.shape), own=True)

        return Var._make(out_data, (a, b), bwd)

    __rmul__ = __mul__

    def __truediv__(self, other):
        a, b = self, other
        bd = b.data if isinstance(b, Var) else np.asarray(b)
        out_data = a.data / bd

        def bwd(g):
            a._accum(_unbroadcast(g / bd, a.data.shape), own=True)
            if isinstance(b, Var):
                b._accum(_unbroadcast(-g * a.data / (bd * bd), b.data.shape), own=True)

        return Var._make(out_data, (a, b), bwd)

    def __rtruediv__(self, other):
        a = self
        c = np.asarray(other)
        out_data = c / a.data

        def bwd(g):
            a._accum(_unbroadcast(-g * c / (a.data * a.data), a.data.shape), own=True)

        return Var._make(out_data, (a,), bwd)

    def __pow__(self, p):
        if not np.isscalar(p):
            raise TypeError("only scalar exponents supported")
        a = self
        out_data = a.data ** p

        def bwd(g):
            a._accum(g * p * a.data ** (p - 1), own=True)

        return Var._make(out_data, (a,), bwd)

    def __matmul__(self, other):
        a, b = self, other
        bd = b.data if isinstance(b, Var) else np.asarray(b)
        out_data = a.data @ bd

        def bwd(g):
            a._accum(g @ bd.T, own=True)
            if isinstance(b, Var):
                b._accum(a.data.T @ g, own=True)

        return Var._make(out_data, (a, b), bwd)

    def __rmatmul__(self, other):
        a = self
        c = np.asarray(other)
        out_data = c @ a.data

        def bwd(g):
            a._accum(c.T @ g, own=True)

        return Var._make(out_data, (a,), bwd)

    # ---- elementwise functions ------------------------------------------

    def exp(self):
        a = self
        out_data = np.exp(a.data)

        def bwd(g):
            a._accum(g * out_data, own=True)

        return Var._make(out_data, (a,), bwd)

    def log(self):
        a = self

        def bwd(g):
            a._accum(g / a.data, own=True)

        return Var._make(np.log(a.data), (a,), bwd)

    def sqrt(self):
        a = self
        out_data = np.sqrt(a.data)

        def bwd(g):
            a._accum(g * 0.5 / out_data, own=True)

        return Var._make(out_data, (a,), bwd)

    def tanh(self):
        a = self
        out_data = np.tanh(a.data)

        def bwd(g):
            a._accum(g * (1.0 - out_data * out_data), own=True)

        return Var._make(out_data, (a,), bwd)

    def sigmoid(self):
        a = self
        out_data = 1.0 / (1.0 + np.exp(-a.data))

        def bwd(g):
            a._accum(g * out_data * (1.0 - out_data), own=True)

        return Var._make(out_data, (a,), bwd)

    # ---- shape ops -------------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a = self
        old = a.data.shape

        def bwd(g):
            a._accum(g.reshape(old))

        return Var._make(a.data.reshape(shape), (a,), bwd)

    def contiguous(self):
        """Value copied to C order; matmul on strided views is very slow."""
        a = self
        if a.data.flags.c_contiguous:
            return a

        def bwd(g):
            a._accum(g)

        return Var._make(np.ascontiguousarray(a.data), (a,), bwd)

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        a = self
        inv = np.argsort(axes)

        def bwd(g):
            a._accum(g.transpose(inv))

        return Var._make(a.data.transpose(axes), (a,), bwd)

    def __getitem__(self, idx):
        a = self

        def bwd(g):
            if a.grad is None:
                a.grad = np.zeros_like(a.data)
            a.grad[idx] += g

        return Var._make(a.data[idx], (a,), bwd)

    def pad(self, pad_width):
        """Zero-pad; pad_width as for np.pad."""
        a = self
        pw = [(int(lo), int(hi)) for lo, hi in pad_width]
        sl = tuple(slice(lo, lo + n) for (lo, _), n in zip(pw, a.data.shape))

        def bwd(g):
            a._accum(g[sl])

        return Var._make(np.pad(a.data, pw), (a,), bwd)

    def dilate(self, axis, stride):
        """Insert stride-1 zeros between consecutive elements along axis."""
        a = self
        if stride == 1:
            return a
        shp = list(a.data.shape)
        n = shp[axis]
        shp[axis] = (n - 1) * stride + 1
        idx = [slice(None)] * len(shp)
        idx[axis] = slice(0, None, stride)
        idx = tuple(idx)
        out_data = np.zeros(shp, dtype=a.data.dtype)
        out_data[idx] = a.data

        def bwd(g):
            a._accum(g[idx])

        return Var._make(out_data, (a,), bwd)

    # ---- reductions ------------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        a = self
        out_data = a.data.sum(axis=axis, keepdims=keepdims)

        def bwd(g):
            gg = np.asarray(g)
            if axis is not None and not keepdims:
                gg = np.expand_dims(gg, axis)
            a._accum(np.broadcast_to(gg, a.data.shape))

        return Var._make(out_data, (a,), bwd)

    def mean(self, axis=None, keepdims=False):
        n = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) / n

    # ---- backward --------------------------------------------------------

    def backward(self):
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar loss")
        order = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._prev:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                node.grad = None  # interior gradients are no longer needed


def lstm_cell(g, c_prev, hidden):
    """Fused LSTM cell: pre-activation gates g (B, 4H) and previous cell
    state c_prev (B, H) -> packed (B, 2H) holding [h, c].

    Gate order (input, forget, cell, output).  Fusing the gate math into one
    node keeps the graph small enough to backpropagate through long
    sequences without excessive memory.
    """
    gv = as_var(g)
    cv = as_var(c_prev)
    gd = gv.data
    h = hidden
    gi = 1.0 / (1.0 + np.exp(-gd[:, :h]))
    gf = 1.0 / (1.0 + np.exp(-gd[:, h:2 * h]))
    gc = np.tanh(gd[:, 2 * h:3 * h])
    go = 1.0 / (1.0 + np.exp(-gd[:, 3 * h:]))
    c = gf * cv.data + gi * gc
    th = np.tanh(c)
    out = np.concatenate([go * th, c], axis=1)
    c_prev_data = cv.data

    def bwd(grad):
        gh = grad[:, :h]
        gc_out = grad[:, h:]
        g_go = gh * th
        g_c = gc_out + gh * go * (1.0 - th * th)
        gg = np.empty_like(gd)
        gg[:, :h] = (g_c * gc) * gi * (1.0 - gi)
        gg[:, h:2 * h] = (g_c * c_prev_data) * gf * (1.0 - gf)
        gg[:, 2 * h:3 * h] = (g_c * gi) * (1.0 - gc * gc)
        gg[:, 3 * h:] = g_go * go * (1.0 - go)
        gv._accum(gg, own=True)
        cv._accum(g_c * gf, own=True)

    return Var._make(out, (gv, cv), bwd)


# ---- free functions ------------------------------------------------------


def as_var(x):
    # Var.__init__ promotes non-float dtypes and keeps float32/float64 as-is
    return x if isinstance(x, Var) else Var(x)


def concat(vars_, axis=0):
    vars_ = list(vars_)
    datas = [v.data if isinstance(v, Var) else np.asarray(v) for v in vars_]
    out_data = np.concatenate(datas, axis=axis)
    sizes = [d.shape[axis] for d in datas]
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        for v, lo, hi in zip(vars_, offsets[:-1], offsets[1:]):
            if isinstance(v, Var):
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                v._accum(g[tuple(idx)])

    return Var._make(out_data, vars_, bwd)


def stack(vars_, axis=0):
    vars_ = list(vars_)
    datas = [v.data if isinstance(v, Var) else np.asarray(v) for v in vars_]
    out_data = np.stack(datas, axis=axis)

    def bwd(g):
        for i, v in enumerate(vars_):
            if isinstance(v, Var):
                v._accum(np.take(g, i, axis=axis), own=True)

    return Var._make(out_data, vars_, bwd)


def log10(x):
    return x.log() * (1.0 / np.log(10.0))


def dot(a, b):
    return (a * b).sum()
