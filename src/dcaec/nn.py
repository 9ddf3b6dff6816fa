"""Forward kernels for the network layers, and the operands they multiply.

Complex tensors are carried as (re, im) pairs of real arrays.  A complex
convolution with kernel K = Kr + j*Ki applied to W = Wr + j*Wi, that is
H = (Kr*Wr - Ki*Wi) + j(Kr*Wi + Ki*Wr) with * a real cross-correlation, is
one real product: the block weight [[Kr, -Ki], [Ki, Kr]] times the im2col
unfold (`autodiff.unfold`) of the stacked channels [Wr; Wi].  A transposed
convolution multiplies [Wr; Wi] by its block weight first, then overlap-adds
the taps (`autodiff.fold`).  A complex dense layer is one real product too.
Every kernel lifts its inputs with `autodiff.lift`: while gradients record
they become Vars and the kernel returns Vars; under `no_grad` the kernel runs
on plain arrays and returns arrays, building no graph.  One code path serves
inference and training.  No kernel builds the weight it multiplies: the
`*_operand` preparer next to it does, once (see `model.layer_operands`).

Recurrences go through one kernel, `lstm_group`, which advances K independent
LSTMs (each with its own weights and direction) over inputs of one length
and batch, one Python step per time step for all K: the stacked recurrent
product into one (K, N, 4H) buffer, plus the step's gate inputs, then
`lstm_cell`, which takes every gate activation from one tanh, with
sigmoid(g) = tanh(g / 2) / 2 + 1 / 2 on halved sigmoid-gate inputs.  On
arrays the loop runs alone; while gradients record it also keeps every
cell state, and the group becomes one graph node with a hand-written
backpropagation through time, which rebuilds the gate activations from the
kept hidden and cell states.  The F-T block's F-stage (re/im x
forward/backward) runs as K = 4, the complex LSTM's two recurrences (each
over both parts) as K = 2, every other LSTM as K = 1.

A group holds its gate inputs x @ w_ih^T + b for one span of steps at a
time, never for the whole sequence: the span is as many steps as fit
`SPAN_BYTES` in one (K, span, N, 4H) buffer, and at least one.  The forward
fills the buffer once per span and runs the span's steps; the backward walks
the spans from the end, rebuilds each span's gate inputs, runs its reverse
steps and takes the span's share of every gradient.  So its memory does not
grow with the sequence.  A streaming hop's groups fit in one span (the
F-stage has batch 1, the T-stage and the complex LSTM one step), and a
span's steps round exactly as they do in a longer one, so the span changes
no forward output; the backward sums the weight gradients span by span.

A recorded op keeps only what its gradients read.  `linear` (which reads
each of a list of inputs against its own rows of the weight) and `prelu`
are one graph node each, with one gradient function per input; the
convolutions and `deep_filter_apply`, which compute their inputs' gradients
together, are one `multi_node` each.  Each keeps its output and reads its
inputs' values again in backward, so no padded, joined or unfolded input or
pre-bias product lives in the graph.  No kernel writes a gradient:
`Var.backward` sums down and accumulates what the functions return.
"""

from dataclasses import dataclass
from itertools import pairwise
from typing import NamedTuple

import numpy as np

from .autodiff import Var, concat, contiguous, fold, lift, multi_node, pad, unfold, value

# The bytes of one LSTM group's gate buffer.  Below about 6 MiB a paper-mode
# offline block page-faults afresh, as glibc's dynamic mmap threshold would
# have it: the buffer is then no longer the block's largest transient array,
# so the threshold stays low and the heap is trimmed after every block
# (2 MiB on a 2-vCPU x86 VM: about 10600 minor faults and 27-35 ms of system
# time per second of audio, some 8% of the blocks' time; 8 MiB: none).
SPAN_BYTES = 8 << 20


@dataclass
class ComplexPair:
    re: object
    im: object

    def __post_init__(self):
        self.re = lift(self.re)
        self.im = lift(self.im)
        if self.re.shape != self.im.shape:
            raise ValueError("re/im shape mismatch")

    @property
    def shape(self):
        return self.re.shape


@dataclass
class ConvSpec:
    in_ch: int
    out_ch: int
    kernel_f: int
    kernel_t: int = 1
    stride_f: int = 1
    stride_t: int = 1
    pad_f: int = 0
    pad_t: int = 0
    transposed: bool = False

    def __post_init__(self):
        for name in ("in_ch", "out_ch", "kernel_f", "kernel_t", "stride_f", "stride_t"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.pad_f < 0 or self.pad_t < 0:
            raise ValueError("padding must be non-negative")

    def f_out(self, f_in):
        if self.transposed:
            return (f_in - 1) * self.stride_f + self.kernel_f - 2 * self.pad_f
        return (f_in + 2 * self.pad_f - self.kernel_f) // self.stride_f + 1

    def t_out(self, t_in):
        if self.transposed:
            return (t_in - 1) * self.stride_t + self.kernel_t - 2 * self.pad_t
        return (t_in + 2 * self.pad_t - self.kernel_t) // self.stride_t + 1


def conv_operand(kr, ki, transposed=False):
    """A complex conv kernel (C_out, C_in, k_t, k_f) as its real block weight
    [[Kr, -Ki], [Ki, Kr]], in the layout its one product reads: (2*C_out,
    k_t*k_f*2*C_in) for complex_conv2d, (k_t*k_f*2*C_out, 2*C_in) for
    complex_deconv2d."""
    axes, rows = ((2, 3, 0, 1), 2) if transposed else ((0, 2, 3, 1), 0)
    kr, ki = lift(kr).transpose(axes), lift(ki).transpose(axes)
    k = concat([concat([kr, -ki], axis=3), concat([ki, kr], axis=3)], axis=rows)
    return k.reshape(-1, k.shape[3]) if transposed else k.reshape(k.shape[0], -1)


def complex_conv2d(w: ComplexPair, k, spec: ConvSpec) -> ComplexPair:
    """Complex 2-D cross-correlation over (time, frequency), or for a
    transposed spec complex_deconv2d: one product of the block weight k
    (conv_operand) with [re; im].  Recorded, it is one graph node, whose
    backward unfolds the input again (conv) or the output's gradient (deconv)."""
    taps, c_in, c_out = spec.kernel_t * spec.kernel_f, 2 * spec.in_ch, 2 * spec.out_ch
    expect = (taps * c_out, c_in) if spec.transposed else (c_out, taps * c_in)
    if tuple(k.shape) != expect:
        raise ValueError(f"block weight shape {k.shape} != {expect}")
    if w.shape[0] != spec.in_ch:
        raise ValueError("input channel mismatch")
    t_out, f_out = spec.t_out(w.shape[1]), spec.f_out(w.shape[2])
    if f_out < 1 or t_out < 1:
        raise ValueError("output extent < 1")
    k = lift(k)
    re, im, kd = value(w.re), value(w.im), value(k)
    geometry = ((spec.kernel_t, spec.kernel_f), (spec.stride_t, spec.stride_f),
                (spec.pad_t, spec.pad_f))
    if spec.transposed:
        y = fold(kd @ np.concatenate([re, im]).reshape(c_in, -1), *geometry, (t_out, f_out))
    else:
        y = (kd @ unfold(np.concatenate([re, im]), *geometry)).reshape(c_out, t_out, f_out)
    outs = [y[:spec.out_ch], y[spec.out_ch:]]
    if not isinstance(k, Var):
        return ComplexPair(*outs)

    def bwd(gs):
        dy = np.concatenate([np.zeros_like(o) if g is None else g for g, o in zip(gs, outs)])
        x = np.concatenate([re, im])
        if spec.transposed:
            dy = unfold(dy, *geometry)
            dx, dk = (kd.T @ dy).reshape(x.shape), dy @ x.reshape(c_in, -1).T
        else:
            dy = dy.reshape(c_out, -1)
            dx, dk = fold(kd.T @ dy, *geometry, x.shape[1:]), dy @ unfold(x, *geometry).T
        return [dx[:spec.in_ch], dx[spec.in_ch:], dk]

    return ComplexPair(*multi_node(outs, [w.re, w.im, k], bwd))


def complex_deconv2d(w: ComplexPair, k, spec: ConvSpec) -> ComplexPair:
    """Complex transposed convolution (adjoint of complex_conv2d): the block
    weight k (conv_operand) times [re; im], then fold's overlap-add."""
    if not spec.transposed:
        raise ValueError("spec not marked transposed")
    return complex_conv2d(w, k, spec)


class LstmGroup(NamedTuple):
    """K LSTM recurrences in the layout lstm_group reads (see lstm_operand)."""

    w_ih: list      # per recurrence, w_ih^T (I, 4H), sigmoid gates halved
    w_hh: object    # (K, H, 4H): every w_hh^T, stacked in C order, sigmoid gates halved
    b: object       # (K, 4H): every b_ih + b_hh, sigmoid gates halved
    reverse: tuple  # per recurrence, whether it scans from the end


def _halves(h4, dtype):
    """(4H,): 1/2 on the sigmoid gates (input, forget, output), 1 on the cell gate."""
    return np.repeat(np.array([0.5, 0.5, 1.0, 0.5], dtype), h4 // 4)


def lstm_operand(cells):
    """cells: K (w_ih (4H, I), w_hh (4H, H), b_ih (4H,), b_hh (4H,), reverse)
    in the stored layout, gate order (input, forget, cell, output).  Halves
    the sigmoid gates' columns of w_ih^T, w_hh^T and b: no kernel scales them."""
    w_ih, w_hh, b_ih, b_hh, reverse = zip(*cells)
    k, hd = len(cells), w_hh[0].shape[1]
    half = _halves(4 * hd, value(w_hh[0]).dtype)
    # C order: a strided w_hh^T about doubled the paper F-stage's time
    w_hh = concat([contiguous(lift(w).transpose(1, 0)) for w in w_hh]).reshape(k, hd, 4 * hd)
    b = concat([lift(x) + lift(y) for x, y in zip(b_ih, b_hh)]).reshape(k, 4 * hd) * half
    return LstmGroup([lift(w).transpose(1, 0) * half for w in w_ih], w_hh * half, b, reverse)


def _gates(k, n, h4, dtype, steps):
    """z (K, N, 4H) and what lstm_cell reads besides it, bound once per call:
    the scale and shift that make tanh(z) the gate activations, (4H,) rows
    for one step and shaped as z for more (rows slowed narrow steps), z's gates."""
    half = _halves(h4, dtype)
    if steps > 1:
        z, scale, shift = np.empty((3, k, n, h4), dtype)
        scale[...], shift[...] = half, 1.0 - half
    else:
        z, scale, shift = np.empty((k, n, h4), dtype), half, 1.0 - half
    return z, (scale, shift, *z.reshape(k, n, 4, -1).transpose(2, 0, 1, 3))


def lstm_cell(z, gates, c_prev, c, tmp, h):
    """One time step of K LSTMs, in place.  z (K, N, 4H): the gates'
    pre-activations, sigmoid gates halved (lstm_operand), which it turns into
    the gate activations; gates: as _gates binds them.  Writes the new cell
    state to c, which may be c_prev itself, and the new hidden state to h,
    which it returns.  tmp (K, N, H) is scratch."""
    scale, shift, gi, gf, gc, go = gates
    np.tanh(z, out=z)
    z *= scale
    z += shift
    np.multiply(gi, gc, out=tmp)
    np.multiply(c_prev, gf, out=c)
    c += tmp
    np.tanh(c, out=tmp)
    return np.multiply(go, tmp, out=h)


def _span(k, s, n, h4, itemsize):
    """The steps per gate buffer: as many as fit SPAN_BYTES, at least one."""
    return max(1, min(s, SPAN_BYTES // (k * n * h4 * itemsize)))


def _scan(x, rev, t0, m):
    """Steps t0 .. t0 + m - 1 of x (S, ...) in scan order: a reverse
    recurrence's counted from the end."""
    return x[::-1][t0:t0 + m] if rev else x[t0:t0 + m]


def _gate_inputs(xd, w_ih, b, rev, t0, out):
    """x @ w_ih^T + b of every recurrence, sigmoid gates halved (lstm_operand),
    for the scan steps t0 .. t0 + m - 1, written in place into out[:, :m] of
    out (K, span, N, 4H), with m the steps left up to span.  Returns out[:, :m]:
    scan step t adds the recurrent products to its row t - t0."""
    k, span, n, h4 = out.shape
    m = min(span, xd[0].shape[0] - t0)
    g = out[:, :m]
    for j, (x, w) in enumerate(zip(xd, w_ih)):
        np.matmul(_scan(x, rev[j], t0, m).reshape(m * n, -1), w, out=g[j].reshape(m * n, h4))
    g += b[:, None, None]
    return g


def lstm_group(xs, op: LstmGroup, states):
    """Advance K independent LSTMs of one length S and batch N.

    xs: K inputs (S, N, I); op: the K recurrences (lstm_operand); states: K
    (h, c) pairs shaped (N, H), or None for zeros.  Returns the K outputs
    (S, N, H), each in its input's time order, and the K final (h, c) states.

    One loop serves inference and training: one Python step per time step
    for all K, one stacked recurrent product and a call of lstm_cell, in
    buffers allocated once per call.  While gradients record, the loop also
    writes every step's cell state, and the group becomes one graph node
    that keeps only the hidden and cell states; its backward, _lstm_bptt,
    rebuilds the gate activations from them.
    """
    xs = [lift(x) for x in xs]
    record = isinstance(xs[0], Var)
    k, (s, n, _) = len(xs), xs[0].shape
    xd, w_ih = [value(x) for x in xs], [value(w) for w in op.w_ih]
    w_hh, b, rev = value(op.w_hh), value(op.b), op.reverse
    hd = w_hh.shape[1]
    dt = np.result_type(*xd, *w_ih, w_hh, b)
    gx = np.empty((k, _span(k, s, n, 4 * hd, dt.itemsize), n, 4 * hd), dt)
    hs = np.empty((k, s + 1, n, hd), dt)   # h_0 .. h_S
    hs[:, 0] = 0.0
    cs = np.zeros((k, s + 1 if record else 1, n, hd), dt)   # c_0 .. c_S, or c
    for j, st in enumerate(states):
        if st is not None:
            hs[j, 0], cs[j, 0] = value(st[0]), value(st[1])
    tmp = np.empty((k, n, hd), dt)
    z, gates = _gates(k, n, 4 * hd, dt, s)
    # each step's (K, N, .) views of h_t, h_t+1, c_t and c_t+1, by iteration
    h_steps, c_steps = hs.swapaxes(0, 1), cs.swapaxes(0, 1) if record else [cs[:, 0]] * (s + 1)
    for t0 in range(0, s, gx.shape[1]):
        g_span = _gate_inputs(xd, w_ih, b, rev, t0, gx).swapaxes(0, 1)
        t1 = t0 + len(g_span) + 1
        for g, (h_prev, h), (c_prev, c) in zip(g_span, pairwise(h_steps[t0:t1]),
                                               pairwise(c_steps[t0:t1])):
            np.matmul(h_prev, w_hh, out=z)
            z += g
            lstm_cell(z, gates, c_prev, c, tmp, h)
    ys = [hs[j, :0:-1] if rev[j] else hs[j, 1:] for j in range(k)]
    if not record:
        return ys, [(hs[j, s].copy(), cs[j, 0].copy()) for j in range(k)]
    inputs = xs + list(op.w_ih) + [op.w_hh, op.b]
    for st in states:
        inputs += st or (None, None)
    outs = multi_node(ys + list(cs[:, s]), inputs,
                      lambda gs: _lstm_bptt(gs, xd, w_ih, w_hh, b, rev, cs, hs))
    # a final h is its output's last step in scan order
    return outs[:k], [(y[0] if r else y[-1], c) for y, r, c in zip(outs, rev, outs[k:])]


def _lstm_bptt(gs, xd, w_ih, w_hh, b, rev, cs, hs):
    """lstm_group's backward.  gs: the gradients of its outputs, the K y
    and then the K final c (None where none arrived).  Returns those of its
    inputs: the K x, the K w_ih^T, w_hh, b and each recurrence's h_0 and c_0.

    The K recurrences step back through time together, one span of steps
    (see _span) at a time from the end.  One (K, span, N, 4H) buffer first
    holds the span's gate inputs; each reverse step rebuilds its gate
    activations as the forward does, with slope scale * (1 - tanh^2), and
    overwrites its row with its gate gradients.  Those reach dx, w_ih^T, w_hh
    and b as they are; lstm_operand's halving carries them to the weights.
    """
    k, s, n, hd = hs[:, 1:].shape
    h4, dt = 4 * hd, hs.dtype
    buf = np.empty((k, _span(k, s, n, h4, dt.itemsize), n, h4), dt)
    # the output gradients in scan order, read in place
    dy = [(j, g[::-1] if rev[j] else g) for j, g in enumerate(gs[:k]) if g is not None]
    dc = np.zeros((k, n, hd), dt)
    for j in range(k):
        if gs[k + j] is not None:
            dc[j] = gs[k + j]
    z, (scale, shift, gi, gf, gc, go) = _gates(k, n, h4, dt, s)
    th = np.empty((k, n, hd), dt)   # tanh of the new c
    slope = np.empty((k, n, h4), dt)
    dh = np.zeros((k, n, hd), dt)   # dL/dh_t through step t + 1
    w_hh_t = np.ascontiguousarray(w_hh.transpose(0, 2, 1))   # (K, 4H, H)
    # in scan order: a reverse recurrence's x is reversed, not its gradients
    d_xs = [np.empty((s, n, w.shape[0]), dt) for w in w_ih]
    d_w_ih = [np.zeros(w.shape, dt) for w in w_ih]
    d_w_hh, d_b = np.zeros((k, hd, h4), dt), np.zeros((k, h4), dt)
    for t0 in reversed(range(0, s, buf.shape[1])):
        dg = _gate_inputs(xd, w_ih, b, rev, t0, buf)
        m = dg.shape[1]
        # each step's (K, N, .) views of d, h_t, c_t and c_t+1, by iteration
        back = [a[:, lo:lo + m].swapaxes(0, 1)[::-1]
                for a, lo in ((dg, 0), (hs, t0), (cs, t0), (cs, t0 + 1))]
        for t, d, h_prev, c_prev, c in zip(range(t0 + m - 1, t0 - 1, -1), *back):
            np.matmul(h_prev, w_hh, out=z)
            z += d
            np.tanh(z, out=z)
            np.multiply(z, z, out=slope)
            np.subtract(1.0, slope, out=slope)
            slope *= scale
            z *= scale
            z += shift
            np.tanh(c, out=th)
            for j, g in dy:
                dh[j] += g[t]
            np.multiply(dh, th, out=d[..., 3 * hd:])
            np.subtract(1.0, np.multiply(th, th, out=th), out=th)
            dh *= go   # dc += dh * go * (1 - th * th); the matmul below rewrites dh
            dh *= th
            dc += dh
            np.multiply(dc, gc, out=d[..., :hd])
            np.multiply(dc, c_prev, out=d[..., hd:2 * hd])
            np.multiply(dc, gi, out=d[..., 2 * hd:3 * hd])
            d *= slope
            dc *= gf
            np.matmul(d, w_hh_t, out=dh)
        d_scan = dg.reshape(k, m * n, h4)
        d_w_hh += hs[:, t0:t0 + m].reshape(k, m * n, hd).transpose(0, 2, 1) @ d_scan
        d_b += d_scan.sum(axis=1)
        for j, (x, w, r) in enumerate(zip(xd, w_ih, rev)):
            np.matmul(d_scan[j], w.T, out=d_xs[j][t0:t0 + m].reshape(m * n, -1))
            d_w_ih[j] += _scan(x, r, t0, m).reshape(m * n, -1).T @ d_scan[j]
    return ([d_x[::-1] if r else d_x for d_x, r in zip(d_xs, rev)] + d_w_ih + [d_w_hh, d_b]
            + [g[j].copy() for j in range(k) for g in (dh, dc)])


def lstm_seq(x, op: LstmGroup, state=None):
    """The one recurrence of op over x (S, B, I); returns y (S, B, H) and the
    final (h, c)."""
    ys, states = lstm_group([x], op, [state])
    return ys[0], states[0]


def linear_operand(w, b):
    """A dense layer's stored (w (O, I), b) as linear's (w^T, b)."""
    return lift(w).transpose(1, 0), lift(b)


def linear(xs, w_t, b):
    """x @ w_t + b with w_t (I, O) (linear_operand), for one input x (..., I)
    or a list xs, each (..., I_i) read in place against its own rows of w_t,
    in order.  While gradients record it is one graph node."""
    xs = [lift(x) for x in xs] if isinstance(xs, list) else [lift(xs)]
    w_t, b = lift(w_t), lift(b)
    record = isinstance(w_t, Var)
    xd, wd, y = ([x.data for x in xs], w_t.data, b.data) if record else (xs, w_t, b)
    rows, lo = [], 0
    for x in xd:   # each input's rows of w_t begin where the previous one's end
        rows.append(wd[lo:lo + x.shape[-1]])
        lo += x.shape[-1]
        y = x.reshape(-1, x.shape[-1]) @ rows[-1] + y
    y = y.reshape(*xd[0].shape[:-1], -1)
    if not record:
        return y

    def flat(g):
        return g.reshape(-1, g.shape[-1])

    grads = [lambda g, w=w: flat(g) @ w.T for w in rows]
    grads += [lambda g: np.concatenate([flat(v).T @ flat(g) for v in xd]),
              lambda g: flat(g).sum(axis=0)]
    return Var._make(y, (*xs, w_t, b), grads)


def complex_linear_operand(pr, pi, br, bi):
    """A complex dense layer's stored (Pr, Pi (D, H), br, bi (D,)) as
    complex_linear's block weight [[Pr^T, Pi^T], [-Pi^T, Pr^T]] (2H, 2D) and
    bias [br; bi]."""
    pr, pi = lift(pr).transpose(1, 0), lift(pi).transpose(1, 0)
    return (concat([concat([pr, pi], axis=1), concat([-pi, pr], axis=1)]),
            concat([lift(br), lift(bi)]))


def complex_linear(pair: ComplexPair, w, b) -> ComplexPair:
    """Complex dense layer (re + j im) @ (Pr + j Pi)^T + (br + j bi) as one
    real product: [re, im] @ w + b, with (w, b) from complex_linear_operand."""
    y = linear([pair.re, pair.im], w, b)
    d = y.shape[-1] // 2
    return ComplexPair(y[..., :d], y[..., d:])


class FtLstmParams(NamedTuple):
    """The F-T-LSTM block's operands: the F-stage's four recurrences (re/im
    x forward/backward) as one group, then per part (re, im) the rest."""

    f: LstmGroup
    proj_f: tuple   # per part, linear_operand of (C, 2H) and (C,)
    t: tuple        # per part, an LstmGroup of one recurrence
    proj_t: tuple   # per part, linear_operand of (C, H) and (C,)


def ft_lstm_block(h: ComplexPair, p: FtLstmParams, t_states=None):
    """Frequency-then-time recurrence with residual adds, separate per part.

    h: (C, F, T) for one sequence or (C, F, B, T) for B sequences; the output
    has the same shape.  t_states carries the two time-LSTM states from one
    block of frames to the next.
    """
    shape = h.shape
    c, f, t = shape[0], shape[1], shape[-1]
    xs = [lift(x).reshape(c, f, -1, t) for x in (h.re, h.im)]   # (C, F, B, T)
    b = xs[0].shape[2]
    # F-stage: bidirectional along frequency, each frame independent; the four
    # recurrences (re/im x forward/backward) step together.
    xf = [x.transpose(1, 2, 3, 0).reshape(f, b * t, c) for x in xs]  # seq F, batch B*T
    ys, _ = lstm_group([x for x in xf for _ in (0, 1)], p.f, [None] * 4)
    u = [linear(ys[2 * j:2 * j + 2], *proj) for j, proj in enumerate(p.proj_f)]
    outs, states = [], []
    for x, uj, t_op, proj, st in zip(xs, u, p.t, p.proj_t, t_states or (None, None)):
        v = x + uj.reshape(f, b, t, c).transpose(3, 0, 1, 2)  # residual, (C, F, B, T)
        # T-stage: unidirectional along time, each sequence and frequency independent.
        vt = v.transpose(3, 2, 1, 0).reshape(t, b * f, c)    # seq T, batch B*F
        z, st = lstm_seq(vt, t_op, st)                       # (T, B*F, H)
        z = linear(z, *proj)                                 # (T, B*F, C)
        outs.append((v + z.reshape(t, b, f, c).transpose(3, 2, 1, 0)).reshape(shape))
        states.append(st)
    return ComplexPair(*outs), tuple(states)


def complex_lstm(x: ComplexPair, p, states=None):
    """One complex LSTM layer over x (T, D), or (T, B, D) for B sequences,
    with complex dense projection.

    out_re = L_r(re) - L_i(im); out_im = L_r(im) + L_i(re), so L_r and L_i
    each run once over the 2B sequences [re; im].  p: the layer's recurrences
    L_r, L_i as one lstm_operand, and its complex_linear_operand.  states is
    a 2-tuple of (h, c) pairs (L_r, L_i), each (2B, H) with the re rows first.
    """
    lead = x.shape[:-1]
    ri = concat([v.reshape(lead[0], -1, x.shape[-1]) for v in (x.re, x.im)], axis=1)
    b = ri.shape[1] // 2
    lstm, proj = p
    (yr, yi), states = lstm_group([ri, ri], lstm, states or (None, None))
    h = yr.shape[-1]
    pair = ComplexPair((yr[:, :b] - yi[:, b:]).reshape(*lead, h),
                       (yr[:, b:] + yi[:, :b]).reshape(*lead, h))
    return complex_linear(pair, *proj), tuple(states)


def deep_filter_apply(coef: ComplexPair, target: ComplexPair) -> ComplexPair:
    """Apply a 3x3 complex filter per T-F bin with one frame of lookahead.

    coef: (9, T, F) with channel 3*(i+1) + (j+1) holding the tap for
    frequency offset i and time offset j, i, j in {-1, 0, +1}.  target:
    (1, T, F), whose frames outside the block read as zero, or (1, T + 2, F)
    holding one frame of time context either side of the block.
    Out-of-range frequency neighbours read as zero.  While gradients record
    the filter is one graph node, which keeps only its output.
    """
    if coef.shape[0] != 9:
        raise ValueError("deep filter needs 9 coefficient channels")
    _, t, f = coef.shape
    if target.shape[0] != 1 or target.shape[1] not in (t, t + 2) or target.shape[2] != f:
        raise ValueError("coef/target shape mismatch")
    pad_t = 1 if target.shape[1] == t else 0
    width = ((0, 0), (pad_t, pad_t), (1, 1))
    ins = [lift(v) for v in (coef.re, coef.im, target.re, target.im)]
    cr, ci, tr, ti = (value(v) for v in ins)

    # each tap's channel and its (T, F) window of the padded target
    taps = [(3 * (i + 1) + (j + 1), (0, slice(1 + j, 1 + j + t), slice(1 + i, 1 + i + f)))
            for i in (-1, 0, 1) for j in (-1, 0, 1)]
    tp_re, tp_im = pad(tr, width), pad(ti, width)
    out_re = out_im = None
    for ch, win in taps:
        sr, si = tp_re[win], tp_im[win]
        re = cr[ch] * sr - ci[ch] * si
        im = cr[ch] * si + ci[ch] * sr
        if out_re is None:
            out_re, out_im = re, im
        else:
            out_re += re
            out_im += im
    outs = [out_re.reshape(1, t, f), out_im.reshape(1, t, f)]
    if not isinstance(ins[0], Var):
        return ComplexPair(*outs)

    def bwd(gs):
        g_re, g_im = (np.zeros((t, f), cr.dtype) if g is None else g[0] for g in gs)
        d_cr, d_ci = np.empty_like(cr), np.empty_like(ci)
        # the padded target again, and its gradient
        tp_re, tp_im = pad(tr, width), pad(ti, width)
        d_re, d_im = np.zeros_like(tp_re), np.zeros_like(tp_im)
        for ch, win in taps:
            sr, si = tp_re[win], tp_im[win]
            d_cr[ch] = g_re * sr + g_im * si
            d_ci[ch] = g_im * sr - g_re * si
            d_re[win] += g_re * cr[ch] + g_im * ci[ch]
            d_im[win] += g_im * cr[ch] - g_re * ci[ch]
        crop = (slice(None), slice(pad_t, pad_t + tr.shape[1]), slice(1, 1 + f))
        return [d_cr, d_ci, d_re[crop], d_im[crop]]

    return ComplexPair(*multi_node(outs, ins, bwd))


def prelu(x, alpha):
    """PReLU with per-channel slope alpha (broadcast against x):
    max(x, 0) + alpha * min(x, 0).  While gradients record it is one graph
    node, which keeps only its output."""
    x, alpha = lift(x), lift(alpha)
    xd, ad = value(x), value(alpha)
    out = np.maximum(xd, 0) + ad * np.minimum(xd, 0)
    if not isinstance(x, Var):
        return out
    return Var._make(out, (x, alpha), (lambda g: np.where(xd >= 0, g, g * ad),
                                       lambda g: g * np.minimum(xd, 0)))
