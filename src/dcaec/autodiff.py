"""Reverse-mode automatic differentiation on numpy arrays.

A Var wraps an ndarray and records the operations applied to it; calling
``backward`` on a scalar Var walks the recorded graph in reverse topological
order and accumulates gradients into every Var reached.  Non-Var operands are
treated as constants and receive no gradient.

Vars exist only where gradients are recorded.  Kernels pass their inputs
through ``lift``: while recording it makes them Vars, under ``no_grad()`` it
unwraps Vars to their arrays.  The free functions below (``pad``,
``contiguous``, ``concat``, ``unfold``, ``fold``, ``dot``, ``log10``) are the
only definitions of their ops: each builds graph nodes when an operand is a
Var and otherwise does plain numpy, so the same kernel code runs on Vars for
training and arrays in, arrays out for inference.  An op that computes its
own gradients, such as ``nn.lstm_group``'s recurrence loop, the
convolutions or the deep filter, runs on arrays either way and, while
recording, becomes one node through ``multi_node``.

Var sets ``__array_ufunc__ = None``, so an ndarray on the left of ``+``,
``-``, ``*``, ``/`` or ``@`` defers to the Var's reflected operator.
"""

import contextlib
import math

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
        bd = b.data if isinstance(b, Var) else _const(b)
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
        return self + (-other if isinstance(other, Var) else -_const(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a, b = self, other
        bd = b.data if isinstance(b, Var) else _const(b)
        out_data = a.data * bd

        def bwd(g):
            a._accum(_unbroadcast(g * bd, a.data.shape), own=True)
            if isinstance(b, Var):
                b._accum(_unbroadcast(g * a.data, b.data.shape), own=True)

        return Var._make(out_data, (a, b), bwd)

    __rmul__ = __mul__

    def __truediv__(self, other):
        a, b = self, other
        bd = b.data if isinstance(b, Var) else _const(b)
        out_data = a.data / bd

        def bwd(g):
            a._accum(_unbroadcast(g / bd, a.data.shape), own=True)
            if isinstance(b, Var):
                b._accum(_unbroadcast(-g * a.data / (bd * bd), b.data.shape), own=True)

        return Var._make(out_data, (a, b), bwd)

    def __rtruediv__(self, other):
        a = self
        c = _const(other)
        out_data = c / a.data

        def bwd(g):
            a._accum(_unbroadcast(-g * c / (a.data * a.data), a.data.shape), own=True)

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

    # ---- backward --------------------------------------------------------

    def backward(self):
        """Accumulate d(self)/d(leaf) into every leaf's grad.  A graph is
        backpropagated once: each node drops its parents and its closure once
        its backward has run, so the graph is freed as backward proceeds."""
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
        while order:
            node = order.pop()
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                node.grad = None  # interior gradients are no longer needed
            node._prev, node._backward = (), None


# ---- free functions ------------------------------------------------------


def _float(x):
    """x as an array; non-float dtypes become float64, as in Var."""
    x = np.asarray(x)
    return x if x.dtype.kind == "f" else x.astype(np.float64)


def _const(x):
    """A constant operand.  A Python number stays one: it adopts the Var's
    dtype, where a 0-d float64 array would raise a float32 Var to float64."""
    return x if isinstance(x, (int, float)) else np.asarray(x)


def as_var(x):
    return x if isinstance(x, Var) else Var(x)


def lift(x):
    """x as a kernel operand: a Var while gradients record, else an array."""
    if _GRAD_ENABLED:
        return as_var(x)
    if type(x) is np.ndarray and x.dtype.kind == "f":   # the common case, as it is
        return x
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


def contiguous(x):
    """x in C order; matmul on strided views is very slow."""
    if isinstance(x, Var) and x.data.flags.c_contiguous:
        return x
    return _unary(x, np.ascontiguousarray(value(x)), lambda g: g)


def unfold(x, kernel, stride, padding):
    """im2col of x (C, T, F), zero-padded by padding (p_t, p_f), for a kernel
    (k_t, k_f) at stride (s_t, s_f): (k_t*k_f*C, T_out*F_out), whose row
    (dt*k_f + df)*C + c holds tap (dt, df) of channel c.  fold is its adjoint."""
    (kt, kf), (st, sf) = kernel, stride
    xp = pad(x, ((0, 0), *((p, p) for p in padding)))
    c, tp, fp = xp.shape
    to, fo = (tp - kt) // st + 1, (fp - kf) // sf + 1
    taps = [xp[:, dt:dt + st * (to - 1) + 1:st, df:df + sf * (fo - 1) + 1:sf]
            for dt in range(kt) for df in range(kf)]
    return concat(taps, axis=0).reshape(kt * kf * c, to * fo)


def fold(cols, kernel, stride, padding, shape):
    """Overlap-add (col2im), the adjoint of unfold: each tap's rows of cols
    are added at their strided positions of a zero (C, T + 2 p_t, F + 2 p_f)
    array, which is then cropped to (C,) + shape, shape = (T, F)."""
    (kt, kf), (st, sf), (pt, pf), (t, f) = kernel, stride, padding, shape
    to, fo = (t + 2 * pt - kt) // st + 1, (f + 2 * pf - kf) // sf + 1
    taps = value(cols).reshape(kt, kf, -1, to, fo)
    out = np.zeros((taps.shape[2], t + 2 * pt, f + 2 * pf), taps.dtype)
    for dt, df in np.ndindex(kt, kf):
        out[:, dt:dt + st * to:st, df:df + sf * fo:sf] += taps[dt, df]
    return _unary(cols, out[:, pt:pt + t, pf:pf + f],
                  lambda g: unfold(g, kernel, stride, padding))


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


def multi_node(outs, inputs, backward):
    """One graph node for an op with several outputs.

    outs: the op's output arrays; inputs: its operands, Vars or constants.
    Returns one Var per output.  backward(gs) runs once, after every output's
    gradient is in, with gs[i] the gradient of outs[i] or None where none
    reached it.  It returns one gradient or None per input, each an array
    it does not reuse; every Var input accumulates its own, so an input
    passed twice gets the sum.
    """
    gs = [None] * len(outs)

    def bwd(_):
        grads = backward(gs)
        gs[:] = [None] * len(outs)
        for x, g in zip(inputs, grads):
            if g is not None and isinstance(x, Var):
                x._accum(g, own=True)

    core = Var._make(np.zeros((), outs[0].dtype), inputs, bwd)

    def out(i, data):
        def bwd_out(g):
            gs[i] = g
            core.grad = core.data  # not None, so that core's backward runs

        return Var._make(data, (core,), bwd_out)

    return [out(i, d) for i, d in enumerate(outs)]


def log10(x):
    """np.log10 of x, a Var or an array."""
    a = value(x)
    return _unary(x, np.log10(a), lambda g: g / (a * math.log(10.0)))


def dot(a, b):
    """np.dot of two vectors, either of them a Var."""
    ad, bd = value(a), value(b)
    out = np.dot(ad, bd)
    if not isinstance(a, Var) and not isinstance(b, Var):
        return out

    def bwd(g):
        for x, other in ((a, bd), (b, ad)):
            if isinstance(x, Var):
                x._accum(g * other, own=True)

    return Var._make(out, (a, b), bwd)
