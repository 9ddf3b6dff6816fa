"""Forward kernels for the network layers.

Complex tensors are carried as (re, im) pairs of real arrays.  A complex
convolution with kernel K = Kr + j*Ki applied to W = Wr + j*Wi is

    H = (Kr*Wr - Ki*Wi) + j(Kr*Wi + Ki*Wr)

where * is a real cross-correlation.  Every kernel lifts its inputs with
`autodiff.lift`: while gradients record they become Vars and the kernel
returns Vars; under `no_grad` the kernel runs on plain arrays and returns
arrays, building no graph.  One code path serves inference and training.

Recurrences go through one kernel, `lstm_group`, which advances K independent
LSTMs (each with its own weights and direction) over inputs of one length
and batch.  On arrays it steps the K of them together, one Python step per
time step, bit for bit as the gradient graph computes them; on Vars it
builds each recurrence's graph of `lstm_cell` nodes, one after another.  The
F-T block's F-stage (re/im x forward/backward) and the complex LSTM's four
recurrences each run as K = 4, every other LSTM as K = 1 or 2.
"""

from dataclasses import dataclass, field

import numpy as np

from .autodiff import (Var, concat, contiguous, dilate, lift, lstm_cell, pad,
                       stack, value)


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


def _corr2d(x, k, spec):
    """Real cross-correlation: x (C_in, T, F), k (C_out, C_in, kt, kf)."""
    c_in, t_in, f_in = x.shape
    t_out = spec.t_out(t_in)
    f_out = spec.f_out(f_in)
    if f_out < 1 or t_out < 1:
        raise ValueError("output extent < 1")
    xp = pad(x, ((0, 0), (spec.pad_t, spec.pad_t), (spec.pad_f, spec.pad_f)))
    out = None
    for dt in range(spec.kernel_t):
        for df in range(spec.kernel_f):
            xs = xp[:,
                    dt:dt + spec.stride_t * t_out:spec.stride_t,
                    df:df + spec.stride_f * f_out:spec.stride_f]
            kt = contiguous(k[:, :, dt, df])  # (C_out, C_in)
            contrib = (kt @ xs.reshape(c_in, t_out * f_out)).reshape(
                spec.out_ch, t_out, f_out)
            out = contrib if out is None else out + contrib
    return out


def _tcorr2d(x, k, spec):
    """Transposed counterpart of _corr2d (adjoint w.r.t. the input)."""
    c_in, t_in, f_in = x.shape
    t_out = spec.t_out(t_in)
    f_out = spec.f_out(f_in)
    if f_out < 1 or t_out < 1:
        raise ValueError("output extent < 1")
    full_t = (t_in - 1) * spec.stride_t + spec.kernel_t
    full_f = (f_in - 1) * spec.stride_f + spec.kernel_f
    xd = dilate(dilate(x, 1, spec.stride_t), 2, spec.stride_f)
    out = None
    for dt in range(spec.kernel_t):
        for df in range(spec.kernel_f):
            kt = contiguous(k[:, :, dt, df])  # (C_out, C_in), transposed output rows
            contrib = (kt @ xd.reshape(c_in, -1)).reshape(
                spec.out_ch, xd.shape[1], xd.shape[2])
            contrib = pad(contrib, ((0, 0),
                                    (dt, full_t - dt - xd.shape[1]),
                                    (df, full_f - df - xd.shape[2])))
            out = contrib if out is None else out + contrib
    # crop the configured padding
    return out[:, spec.pad_t:full_t - spec.pad_t, spec.pad_f:full_f - spec.pad_f]


def _complex(op, w: ComplexPair, k: ComplexPair, spec: ConvSpec) -> ComplexPair:
    expect = (spec.out_ch, spec.in_ch, spec.kernel_t, spec.kernel_f)
    if tuple(k.shape) != expect:
        raise ValueError(f"kernel shape {k.shape} != {expect}")
    if w.shape[0] != spec.in_ch:
        raise ValueError("input channel mismatch")
    re = op(w.re, k.re, spec) - op(w.im, k.im, spec)
    im = op(w.im, k.re, spec) + op(w.re, k.im, spec)
    return ComplexPair(re, im)


def complex_conv2d(w: ComplexPair, k: ComplexPair, spec: ConvSpec) -> ComplexPair:
    """Complex 2-D cross-correlation over (time, frequency)."""
    if spec.transposed:
        raise ValueError("spec marked transposed; use complex_deconv2d")
    return _complex(_corr2d, w, k, spec)


def complex_deconv2d(w: ComplexPair, k: ComplexPair, spec: ConvSpec) -> ComplexPair:
    """Complex transposed convolution (adjoint of complex_conv2d)."""
    if not spec.transposed:
        raise ValueError("spec not marked transposed")
    return _complex(_tcorr2d, w, k, spec)


@dataclass
class LstmSpec:
    """LSTM dimensions plus gate weights, gate order (input, forget, cell, output).

    weights maps: w_ih (4H, I), w_hh (4H, H), b_ih (4H,), b_hh (4H,) and, when
    bidirectional, the same names with a "_rev" suffix.
    """

    input_dim: int
    hidden_dim: int
    bidirectional: bool = False
    weights: dict = field(default_factory=dict)

    @property
    def out_dim(self):
        return self.hidden_dim * (2 if self.bidirectional else 1)


def _wt(w):
    """w (O, I) transposed for x @ w^T.  On an array it is a view, which BLAS
    reads in either order; a Var keeps the C-order copy node it has always
    had, so that training graphs do not change."""
    wt = w.transpose(1, 0)
    return contiguous(wt) if isinstance(wt, Var) else wt


def _cells(spec: LstmSpec):
    """The spec's recurrences as (w_ih, w_hh, b_ih, b_hh, reverse) tuples:
    the forward direction, then the backward one when bidirectional."""
    w = spec.weights
    sufs = ("", "_rev") if spec.bidirectional else ("",)
    return [(w["w_ih" + s], w["w_hh" + s], w["b_ih" + s], w["b_hh" + s], s == "_rev")
            for s in sufs]


def _lstm_graph(x, cell, state, hidden):
    """One recurrence as a graph of lstm_cell nodes, for gradient work.

    x: Var (S, B, I).  Returns (y (S, B, H), (h, c)) with h, c shaped (B, H).
    A reverse cell scans x from its end; y is in x's time order either way.
    """
    w_ih, w_hh, b_ih, b_hh, reverse = cell
    w_ih, w_hh, b_ih, b_hh = (lift(v) for v in (w_ih, w_hh, b_ih, b_hh))
    if reverse:
        x = x[::-1]
    s, b, i = x.shape
    if state is None:
        h = lift(np.zeros((b, hidden), dtype=x.dtype))
        c = lift(np.zeros((b, hidden), dtype=x.dtype))
    else:
        h, c = lift(state[0]), lift(state[1])
    gx = (x.reshape(s * b, i) @ _wt(w_ih) + (b_ih + b_hh)).reshape(s, b, 4 * hidden)
    whh_t = contiguous(_wt(w_hh))
    ys = []
    for t in range(s):
        h, c = lstm_cell(gx[t] + h @ whh_t, c, hidden)
        ys.append(h)
    y = stack(ys, 0)
    return (y[::-1] if reverse else y), (h, c)


def lstm_group(xs, cells, states, hidden):
    """Advance K independent LSTM recurrences of one length S and batch N.

    xs: K inputs (S, N, I); cells: K (w_ih, w_hh, b_ih, b_hh, reverse)
    tuples (see _cells); states: K (h, c) pairs shaped (N, H), or None for
    zeros.  Returns the K outputs (S, N, H), each in its input's time order,
    and the K final (h, c) states.

    While gradients record, each recurrence is built as a graph of lstm_cell
    nodes, one after another.  On arrays the K recurrences take one Python
    step per time step, in gate and cell buffers allocated once per call,
    with lstm_cell's arithmetic in the same order, so the results are the
    same bits.  A w_hh in Fortran order (see model.inference_params) makes
    the per-step recurrent operand a C-order view that is never copied.
    """
    xs = [lift(x) for x in xs]
    if isinstance(xs[0], Var):
        out = [_lstm_graph(x, cell, st, hidden) for x, cell, st in zip(xs, cells, states)]
        return [y for y, _ in out], [st for _, st in out]
    cells = [tuple(lift(w) for w in cell[:4]) + cell[4:] for cell in cells]
    k, (s, n, _) = len(xs), xs[0].shape
    hd = hidden
    dt = np.result_type(*xs, *(w for cell in cells for w in cell[:4]))
    # input projections, written in place, the reverse cells' scanned from
    # the end, so that step t adds the recurrent products to gx[:, t]
    gx = np.empty((k, s, n, 4 * hd), dt)
    for j, (x, (w_ih, _, b_ih, b_hh, reverse)) in enumerate(zip(xs, cells)):
        x = x[::-1] if reverse else x
        np.matmul(x.reshape(s * n, -1), _wt(w_ih), out=gx[j].reshape(s * n, 4 * hd))
        gx[j] += b_ih + b_hh
    whh_t = [contiguous(_wt(cell[1])) for cell in cells]
    y = np.empty((k, s, n, hd), dt)
    h = np.zeros((k, n, hd), dt)
    c = np.zeros((k, n, hd), dt)
    for j, st in enumerate(states):
        if st is not None:
            h[j], c[j] = lift(st[0]), lift(st[1])
    hw = np.empty((k, n, 4 * hd), dt)   # recurrent products
    sg = np.empty((k, n, 4 * hd), dt)   # gate sigmoids
    tg = np.empty((k, n, hd), dt)       # tanh scratch
    for t in range(s):
        for j in range(k):
            np.matmul(h[j], whh_t[j], out=hw[j])
        g = gx[:, t]
        g += hw
        # lstm_cell's array arithmetic, in place
        np.negative(g, out=sg)
        np.exp(sg, out=sg)
        np.add(sg, 1.0, out=sg)
        np.divide(1.0, sg, out=sg)
        np.tanh(g[..., 2 * hd:3 * hd], out=tg)
        tg *= sg[..., :hd]
        c *= sg[..., hd:2 * hd]
        c += tg
        np.tanh(c, out=tg)
        h = np.multiply(sg[..., 3 * hd:], tg, out=y[:, t])
    ys = [y[j, ::-1] if cell[4] else y[j] for j, cell in enumerate(cells)]
    return ys, [(h[j].copy(), c[j].copy()) for j in range(k)]


def lstm_seq(x, spec: LstmSpec, state=None):
    """Batched LSTM over x (S, B, I).

    Unidirectional: returns (y (S, B, H), (h, c)).  Bidirectional: full
    sequence only, returns (y (S, B, 2H), None); `state` must be None.
    """
    if spec.bidirectional and state is not None:
        raise ValueError("bidirectional LSTM has no streaming state")
    cells = _cells(spec)
    ys, states = lstm_group([x] * len(cells), cells, [state] * len(cells),
                            spec.hidden_dim)
    if spec.bidirectional:
        return concat(ys, axis=2), None
    return ys[0], states[0]


def lstm_forward(x, spec: LstmSpec, state=None):
    """LSTM over a single sequence x (S, input_dim); returns (y, state')."""
    xv = lift(x)
    s, i = xv.shape
    if i != spec.input_dim:
        raise ValueError(f"input dim {i} != {spec.input_dim}")
    if state is not None:
        state = (lift(state[0]).reshape(1, -1), lift(state[1]).reshape(1, -1))
    y, st = lstm_seq(xv.reshape(s, 1, i), spec, state)
    y = y.reshape(s, spec.out_dim)
    if st is not None:
        st = (st[0].reshape(spec.hidden_dim), st[1].reshape(spec.hidden_dim))
    return y, st


def linear(x, w, b):
    """x (..., I) @ w.T + b with w (O, I)."""
    x, w = lift(x), lift(w)
    y = x.reshape(-1, x.shape[-1]) @ _wt(w) + lift(b)
    return y.reshape(*x.shape[:-1], w.shape[0])


def complex_linear(pair: ComplexPair, pr, pi, br, bi) -> ComplexPair:
    """Complex dense layer: (re + j im) @ (Pr + j Pi)^T + (br + j bi)."""
    re = linear(pair.re, pr, br) - linear(pair.im, pi, np.zeros_like(value(bi)))
    im = linear(pair.im, pr, bi) + linear(pair.re, pi, np.zeros_like(value(br)))
    return ComplexPair(re, im)


@dataclass
class FtLstmParams:
    """Per-part (real or imaginary) parameters of the F-T-LSTM block."""

    f_spec: LstmSpec   # bidirectional, scans frequency
    t_spec: LstmSpec   # unidirectional, scans time
    proj_f_w: object   # (C, 2H)
    proj_f_b: object   # (C,)
    proj_t_w: object   # (C, H)
    proj_t_b: object   # (C,)


def _f_stage(xf, parts):
    """Both parts' F-stage: xf (F, N, C) per part -> u (F, N, C) per part.

    The four recurrences (re/im x forward/backward) step together."""
    cells = [cell for p in parts for cell in _cells(p.f_spec)]
    ys, _ = lstm_group([x for x in xf for _ in (0, 1)], cells, [None] * 4,
                       parts[0].f_spec.hidden_dim)
    return [linear(concat(ys[2 * j:2 * j + 2], axis=2), p.proj_f_w, p.proj_f_b)
            for j, p in enumerate(parts)]


def ft_lstm_block(h: ComplexPair, params_re: FtLstmParams, params_im: FtLstmParams,
                  t_states=None):
    """Frequency-then-time recurrence with residual adds, separate per part.

    h: (C, F, T) for one sequence or (C, F, B, T) for B sequences; the output
    has the same shape.  t_states carries the two time-LSTM states from one
    block of frames to the next.
    """
    shape = h.shape
    c, f, t = shape[0], shape[1], shape[-1]
    parts = (params_re, params_im)
    xs = [lift(x).reshape(c, f, -1, t) for x in (h.re, h.im)]   # (C, F, B, T)
    b = xs[0].shape[2]
    # F-stage: bidirectional along frequency, each frame independent.
    xf = [x.transpose(1, 2, 3, 0).reshape(f, b * t, c) for x in xs]  # seq F, batch B*T
    if isinstance(xf[0], Var):  # training: one graph over all frames
        u = _f_stage(xf, parts)
    else:
        # up to four slices of frames, each projected before the next, keep
        # the four recurrences' gate buffers at one recurrence's size.  A
        # slice has two frames or more: one frame would multiply through
        # gemv, whose sums round differently from gemm's.
        n = b * t
        k = max(1, min(4, n // 2))
        edges = [n * i // k for i in range(k + 1)]
        pieces = [_f_stage([x[:, lo:hi] for x in xf], parts)
                  for lo, hi in zip(edges, edges[1:])]
        u = [np.concatenate(ps, axis=1) for ps in zip(*pieces)]
    outs, states = [], []
    for x, uj, p, st in zip(xs, u, parts, t_states or (None, None)):
        v = x + uj.reshape(f, b, t, c).transpose(3, 0, 1, 2)  # residual, (C, F, B, T)
        # T-stage: unidirectional along time, each sequence and frequency independent.
        vt = v.transpose(3, 2, 1, 0).reshape(t, b * f, c)    # seq T, batch B*F
        z, st = lstm_seq(vt, p.t_spec, st)                   # (T, B*F, H)
        z = linear(z, p.proj_t_w, p.proj_t_b)                # (T, B*F, C)
        outs.append((v + z.reshape(t, b, f, c).transpose(3, 2, 1, 0)).reshape(shape))
        states.append(st)
    return ComplexPair(*outs), tuple(states)


@dataclass
class ComplexLstmParams:
    spec_r: LstmSpec
    spec_i: LstmSpec
    proj_pr: object  # (D, H)
    proj_pi: object
    proj_br: object  # (D,)
    proj_bi: object


def complex_lstm(x: ComplexPair, p: ComplexLstmParams, states=None):
    """One complex LSTM layer over x (T, D), or (T, B, D) for B sequences,
    with complex dense projection.

    out_re = L_r(re) - L_i(im); out_im = L_r(im) + L_i(re).  states is a
    4-tuple of (h, c) pairs: (r on re, r on im, i on re, i on im).
    """
    s = states if states is not None else (None, None, None, None)
    lead = x.shape[:-1]
    xr = x.re.reshape(lead[0], -1, x.shape[-1])
    xi = x.im.reshape(lead[0], -1, x.shape[-1])
    h = p.spec_r.hidden_dim
    (rr, ri, ir, ii), states = lstm_group(
        [xr, xi, xr, xi], _cells(p.spec_r) * 2 + _cells(p.spec_i) * 2, s, h)
    pair = ComplexPair((rr - ii).reshape(*lead, h), (ri + ir).reshape(*lead, h))
    out = complex_linear(pair, p.proj_pr, p.proj_pi, p.proj_br, p.proj_bi)
    return out, tuple(states)


def deep_filter_apply(coef: ComplexPair, target: ComplexPair) -> ComplexPair:
    """Apply a 3x3 complex filter per T-F bin with one frame of lookahead.

    coef: (9, T, F) with channel 3*(i+1) + (j+1) holding the tap for
    frequency offset i and time offset j, i, j in {-1, 0, +1}.  target:
    (1, T, F), whose frames outside the block read as zero, or (1, T + 2, F)
    holding one frame of time context either side of the block.
    Out-of-range frequency neighbours read as zero.
    """
    if coef.shape[0] != 9:
        raise ValueError("deep filter needs 9 coefficient channels")
    _, t, f = coef.shape
    if target.shape[0] != 1 or target.shape[1] not in (t, t + 2) or target.shape[2] != f:
        raise ValueError("coef/target shape mismatch")
    pad_t = 1 if target.shape[1] == t else 0
    tp_re = pad(target.re, ((0, 0), (pad_t, pad_t), (1, 1)))
    tp_im = pad(target.im, ((0, 0), (pad_t, pad_t), (1, 1)))
    out_re = None
    out_im = None
    for i in (-1, 0, 1):
        for j in (-1, 0, 1):
            ch = 3 * (i + 1) + (j + 1)
            sr = tp_re[0, 1 + j:1 + j + t, 1 + i:1 + i + f]
            si = tp_im[0, 1 + j:1 + j + t, 1 + i:1 + i + f]
            cr = coef.re[ch]
            ci = coef.im[ch]
            re = cr * sr - ci * si
            im = cr * si + ci * sr
            out_re = re if out_re is None else out_re + re
            out_im = im if out_im is None else out_im + im
    return ComplexPair(out_re.reshape(1, t, f), out_im.reshape(1, t, f))


def prelu(x, alpha):
    """PReLU with per-channel slope alpha (broadcast against x)."""
    x = lift(x)
    mask = (value(x) >= 0).astype(x.dtype)
    return x * mask + lift(alpha) * (x * (1.0 - mask))


def activation(x, kind, alpha=None):
    if kind == "prelu":
        return prelu(x, alpha)
    raise ValueError(f"unknown activation kind {kind!r}")
