"""Reverse-mode automatic differentiation on numpy arrays.

A node is a Var: its value, plus one (parent, gradient function) pair per
parent that is a Var.  A gradient function maps the node's gradient to that
parent's share of it; non-Var operands are constants and get neither a pair
nor a gradient.  An op computes gradients and never writes one: calling
``backward`` on a scalar Var walks the recorded graph in reverse topological
order and alone adds each share into its parent's ``grad``, summed down to
the parent's shape.  The binary operators are one table of (op, gradient to
a, gradient to b), shared by both operand orders.

Vars exist only where gradients are recorded.  Kernels pass their inputs
through ``lift``: while recording it makes them Vars, under ``no_grad()`` it
unwraps Vars to their arrays.  The free functions below (``pad``,
``contiguous``, ``concat``, ``unfold``, ``fold``, ``dot``, ``log10``) are the
only definitions of their ops: each builds graph nodes when an operand is a
Var and otherwise does plain numpy, so the same kernel code runs on Vars for
training and arrays in, arrays out for inference.  An op that computes its
inputs' gradients jointly, such as ``nn.lstm_group``'s recurrence loop, the
convolutions or the deep filter, runs on arrays either way and, while
recording, becomes one node through ``multi_node``.

Var sets ``__array_ufunc__ = None``, so an ndarray on the left of ``+``,
``-``, ``*``, ``/`` or ``@`` defers to the Var's reflected operator.
"""

import contextlib
import math
import operator
from itertools import accumulate, pairwise

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


def _arith(op, da, db):
    """A binary operator of Var and its reflected form: op on the operands'
    arrays, and the gradients da(g, a, b) and db(g, a, b) it sends to a and
    to b, written once for both operand orders."""

    def node(a, b):
        ad, bd = _operand(a), _operand(b)
        return Var._make(op(ad, bd), (a, b), (lambda g: da(g, ad, bd), lambda g: db(g, ad, bd)))

    return (lambda self, other: node(self, other)), (lambda self, other: node(other, self))


class Var:
    """A node of the autodiff graph: its value ``data``; ``grad``, set once
    backward reaches it; and ``_prev``, one (parent, gradient function) pair
    per Var parent, empty for a leaf, under no_grad and once backward has
    passed.  A gradient function maps the node's gradient to the parent's
    share, in the parent's shape or one that broadcasts to it."""

    __slots__ = ("data", "grad", "_prev")
    __array_ufunc__ = None  # ndarray <op> Var calls Var's reflected op

    def __init__(self, data, _prev=()):
        self.data = _float(data)
        self.grad = None
        self._prev = _prev

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

    @staticmethod
    def _make(data, parents, grads):
        """A node of value data that sends grads[i](g) to parents[i], for the
        parents that are Vars; while gradients do not record, a leaf."""
        if _GRAD_ENABLED:
            return Var(data, tuple((p, f) for p, f in zip(parents, grads) if isinstance(p, Var)))
        return Var(data)

    # ---- arithmetic ------------------------------------------------------

    __add__, __radd__ = _arith(operator.add, lambda g, a, b: g, lambda g, a, b: g)
    __sub__, __rsub__ = _arith(operator.sub, lambda g, a, b: g, lambda g, a, b: -g)
    __mul__, __rmul__ = _arith(operator.mul, lambda g, a, b: g * b, lambda g, a, b: g * a)
    __truediv__, __rtruediv__ = _arith(operator.truediv, lambda g, a, b: g / b,
                                       lambda g, a, b: -g * a / (b * b))
    # swap the matrix axes only; leading axes broadcast like any operand
    __matmul__, __rmatmul__ = _arith(operator.matmul, lambda g, a, b: g @ b.swapaxes(-1, -2),
                                     lambda g, a, b: a.swapaxes(-1, -2) @ g)

    def __neg__(self):
        return _unary(self, -self.data, operator.neg)

    # ---- elementwise functions ------------------------------------------

    def tanh(self):
        out = np.tanh(self.data)
        return _unary(self, out, lambda g: g * (1.0 - out * out))

    def sigmoid(self):
        out = 1.0 / (1.0 + np.exp(-self.data))
        return _unary(self, out, lambda g: g * out * (1.0 - out))

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
        data = self.data

        def grad(g):
            out = np.zeros_like(data)
            out[idx] = g
            return out

        return _unary(self, data[idx], grad)

    # ---- reductions ------------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        shape = self.data.shape

        def grad(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return np.broadcast_to(g, shape)

        return _unary(self, self.data.sum(axis=axis, keepdims=keepdims), grad)

    # ---- backward --------------------------------------------------------

    def backward(self):
        """Accumulate d(self)/d(leaf) into every leaf's grad.

        The one place a gradient is written.  In reverse topological order,
        each node's gradient g, complete once every child has sent its share,
        goes through the node's gradient functions, and each result is added
        into its parent's grad (_accumulate).  A graph is backpropagated
        once: each node drops its pairs and its gradient once they have run,
        so the graph is freed as backward proceeds."""
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
            for p, _ in node._prev:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        while order:
            node = order.pop()
            g = node.grad
            if node._prev and g is not None:
                for p, grad in node._prev:
                    _accumulate(p, grad(g), g)
                node.grad = None  # interior gradients are no longer needed
            node._prev = ()


def _accumulate(p, gp, g):
    """Add gp, the share of a node's gradient g sent to its parent p, into
    p.grad, summed over the axes it broadcast along.  p's first share is
    adopted when it is an array of p's dtype that owns its memory and is not
    g itself, so that no other node or leaf can hold it; else it is copied."""
    shape = p.data.shape
    if gp.size != p.data.size:
        extra = gp.ndim - len(shape)
        if extra > 0:
            gp = gp.sum(axis=tuple(range(extra)))
        axes = tuple(i for i, n in enumerate(shape) if n == 1 and gp.shape[i] != 1)
        if axes:
            gp = gp.sum(axis=axes, keepdims=True)
    if p.grad is not None:
        p.grad += gp.reshape(shape)
        return
    if gp is g or not gp.flags.owndata or gp.dtype != p.data.dtype:
        gp = np.array(gp, dtype=p.data.dtype)
    p.grad = gp if gp.shape == shape else gp.reshape(shape)


# ---- free functions ------------------------------------------------------


def _float(x):
    """x as an array; non-float dtypes become float64, as in Var."""
    x = np.asarray(x)
    return x if x.dtype.kind == "f" else x.astype(np.float64)


def _operand(x):
    """An arithmetic operand's array.  A Python number stays one: it adopts
    the other operand's dtype, where a 0-d float64 array would raise a
    float32 Var to float64."""
    if isinstance(x, Var):
        return x.data
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
    """out itself for an array x; for a Var x, a node that sends grad(g) to x."""
    if not isinstance(x, Var):
        return out
    return Var._make(out, (x,), (grad,))


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
    out = np.concatenate(datas, axis=axis)
    lead = (slice(None),) * (axis % out.ndim)
    bounds = accumulate((d.shape[axis] for d in datas), initial=0)
    return Var._make(out, vars_, [lambda g, part=(*lead, slice(lo, hi)): g[part]
                                  for lo, hi in pairwise(bounds)])


def multi_node(outs, inputs, backward):
    """One graph node for an op with several outputs.

    outs: the op's output arrays; inputs: its operands, Vars or constants.
    Returns one Var per output, each the child of one core node whose
    parents are the inputs.  backward(gs), with gs[i] the gradient of
    outs[i] or None where none reached it, runs once, when the core's first
    input asks for its gradient, so after every output's gradient is in.  It
    returns one gradient per input, and each is handed over once.
    """
    gs = [None] * len(outs)
    grads = []

    def take(i):
        if not grads:
            grads.extend(backward(gs))
            gs.clear()
        g, grads[i] = grads[i], None
        return g

    def put(i, g):
        gs[i] = g
        return np.zeros(())   # only so that core's backward runs

    core = Var._make(np.zeros(()), inputs, [lambda _, i=i: take(i) for i in range(len(inputs))])
    return [Var._make(d, (core,), (lambda g, i=i: put(i, g),)) for i, d in enumerate(outs)]


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
    return Var._make(out, (a, b), (lambda g: g * bd, lambda g: g * ad))
