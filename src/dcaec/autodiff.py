"""Reverse-mode automatic differentiation on numpy arrays.

A Var wraps an ndarray and records the operations applied to it; calling
``backward`` on a scalar Var walks the recorded graph in reverse topological
order and accumulates gradients into every Var reached.  Non-Var operands are
treated as constants and receive no gradient.

Vars exist only where gradients are recorded.  Kernels pass their inputs
through ``lift``: while recording it makes them Vars, under ``no_grad()`` it
unwraps Vars to their arrays.  The free functions below (``pad``,
``contiguous``, ``dilate``, ``stack``, ``concat``, ``lstm_cell``) are the only
definitions of their ops: each builds a graph node when an operand is a Var
and otherwise does plain numpy, so the same kernel code runs on Vars for
training and arrays in, arrays out for inference.  ``lstm_cell`` returns
``(h, c)`` on both.

Var sets ``__array_ufunc__ = None``, so an ndarray on the left of ``+``,
``-``, ``*``, ``/`` or ``@`` defers to the Var's reflected operator.
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
    __array_ufunc__ = None  # ndarray <op> Var calls Var's reflected op

    def __init__(self, data, _prev=(), _backward=None):
        self.data = _float(data)
        self.grad = None
        self._prev = _prev
        self._backward = _backward

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

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
            # swap the matrix axes only; leading axes broadcast like any operand
            a._accum(_unbroadcast(g @ bd.swapaxes(-1, -2), a.data.shape), own=True)
            if isinstance(b, Var):
                b._accum(_unbroadcast(a.data.swapaxes(-1, -2) @ g, b.data.shape), own=True)

        return Var._make(out_data, (a, b), bwd)

    def __rmatmul__(self, other):
        a = self
        c = np.asarray(other)
        out_data = c @ a.data

        def bwd(g):
            a._accum(_unbroadcast(c.swapaxes(-1, -2) @ g, a.data.shape), own=True)

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
        out_data = _sigmoid(a.data)

        def bwd(g):
            a._accum(g * out_data * (1.0 - out_data), own=True)

        return Var._make(out_data, (a,), bwd)

    # ---- shape ops -------------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old = self.data.shape
        return _unary(self, self.data.reshape(shape), lambda g: g.reshape(old))

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inv = np.argsort(axes)
        return _unary(self, self.data.transpose(axes), lambda g: g.transpose(inv))

    def __getitem__(self, idx):
        a = self

        def bwd(g):
            if a.grad is None:
                a.grad = np.zeros_like(a.data)
            a.grad[idx] += g

        return Var._make(a.data[idx], (a,), bwd)

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


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def lstm_cell(g, c_prev, hidden):
    """Fused LSTM cell on pre-activation gates g (B, 4H) and the previous
    cell state c_prev (B, H), gate order (input, forget, cell, output).

    Returns (h, c).  When an operand is a Var they are two nodes, c from
    (g, c_prev) and h from c: fusing the gate math keeps the graph small
    enough to backpropagate through long sequences.
    """
    h = hidden
    if not isinstance(g, Var) and not isinstance(c_prev, Var):
        s = _sigmoid(g)  # one pass over all gates; the cell block's is unused
        c = s[:, h:2 * h] * c_prev + s[:, :h] * np.tanh(g[:, 2 * h:3 * h])
        return s[:, 3 * h:] * np.tanh(c), c
    gv, cv = as_var(g), as_var(c_prev)
    gd, c_prev_data = gv.data, cv.data
    # separate gate arrays: the backward closures hold them until backward
    # runs, and one pass over all gates would hold the unused cell block too
    gi = _sigmoid(gd[:, :h])
    gf = _sigmoid(gd[:, h:2 * h])
    gc = np.tanh(gd[:, 2 * h:3 * h])
    go = _sigmoid(gd[:, 3 * h:])
    c = gf * c_prev_data + gi * gc
    th = np.tanh(c)
    # h's backward runs before c's (c is h's parent) and leaves the output
    # gate's gradient here; it stays 0 when h is not reached
    g_go = [0.0]

    def bwd_c(g_c):
        gg = np.empty_like(gd)
        gg[:, :h] = (g_c * gc) * gi * (1.0 - gi)
        gg[:, h:2 * h] = (g_c * c_prev_data) * gf * (1.0 - gf)
        gg[:, 2 * h:3 * h] = (g_c * gi) * (1.0 - gc * gc)
        gg[:, 3 * h:] = g_go[0] * go * (1.0 - go)
        gv._accum(gg, own=True)
        cv._accum(g_c * gf, own=True)

    def bwd_h(gh):
        g_go[0] = gh * th
        c_node._accum(gh * go * (1.0 - th * th), own=True)

    c_node = Var._make(c, (gv, cv), bwd_c)
    return Var._make(go * th, (c_node,), bwd_h), c_node


# ---- free functions ------------------------------------------------------


def _float(x):
    """x as an array; non-float dtypes become float64, as in Var."""
    x = np.asarray(x)
    return x if x.dtype.kind == "f" else x.astype(np.float64)


def as_var(x):
    return x if isinstance(x, Var) else Var(x)


def lift(x):
    """x as a kernel operand: a Var while gradients record, else an array."""
    if _GRAD_ENABLED:
        return as_var(x)
    return x.data if isinstance(x, Var) else _float(x)


def value(x):
    """The array held by x, a Var or an array."""
    return x.data if isinstance(x, Var) else x


def _unary(x, out, grad):
    """out itself for an array x; for a Var x, a node whose backward hands
    grad(g) to x."""
    if not isinstance(x, Var):
        return out
    return Var._make(out, (x,), lambda g: x._accum(grad(g)))


def pad(x, pad_width):
    """Zero-pad x; pad_width as for np.pad."""
    a = value(x)
    pw = [(int(lo), int(hi)) for lo, hi in pad_width]
    sl = tuple(slice(lo, lo + n) for (lo, _), n in zip(pw, a.shape))
    out = np.zeros([lo + n + hi for (lo, hi), n in zip(pw, a.shape)], dtype=a.dtype)
    out[sl] = a
    return _unary(x, out, lambda g: g[sl])


def dilate(x, axis, stride):
    """Insert stride-1 zeros between consecutive elements along axis."""
    if stride == 1:
        return x
    a = value(x)
    shp = list(a.shape)
    shp[axis] = (shp[axis] - 1) * stride + 1
    idx = [slice(None)] * len(shp)
    idx[axis] = slice(0, None, stride)
    idx = tuple(idx)
    out = np.zeros(shp, dtype=a.dtype)
    out[idx] = a
    return _unary(x, out, lambda g: g[idx])


def contiguous(x):
    """x in C order; matmul on strided views is very slow."""
    if isinstance(x, Var) and x.data.flags.c_contiguous:
        return x
    return _unary(x, np.ascontiguousarray(value(x)), lambda g: g)


def concat(vars_, axis=0):
    vars_ = list(vars_)
    if not any(isinstance(v, Var) for v in vars_):
        return np.concatenate(vars_, axis=axis)
    datas = [value(v) for v in vars_]
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
    if not any(isinstance(v, Var) for v in vars_):
        return np.stack(vars_, axis=axis)
    out_data = np.stack([value(v) for v in vars_], axis=axis)

    def bwd(g):
        for i, v in enumerate(vars_):
            if isinstance(v, Var):
                v._accum(np.take(g, i, axis=axis), own=True)

    return Var._make(out_data, vars_, bwd)


def log10(x):
    return x.log() * (1.0 / np.log(10.0))


def dot(a, b):
    return (a * b).sum()
