"""Forward kernels for the network layers.

Complex tensors are carried as (re, im) pairs of real arrays.  A complex
convolution with kernel K = Kr + j*Ki applied to W = Wr + j*Wi is

    H = (Kr*Wr - Ki*Wi) + j(Kr*Wi + Ki*Wr)

where * is a real cross-correlation.  Every kernel lifts its inputs with
`autodiff.lift`: while gradients record they become Vars and the kernel
returns Vars; under `no_grad` the kernel runs on plain arrays and returns
arrays, building no graph.  One code path serves inference and training.
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


def _lstm_direction(x, w_ih, w_hh, b_ih, b_hh, state, hidden):
    """Run one direction of the recurrence.

    x: (S, B, I).  Returns (y (S, B, H), (h, c)) with h, c shaped (B, H).
    A w_hh in Fortran order (see model.inference_params) makes the per-step
    recurrent operand a C-order view that is never copied.
    """
    x, w_ih, w_hh, b_ih, b_hh = (lift(v) for v in (x, w_ih, w_hh, b_ih, b_hh))
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
    return stack(ys, 0), (h, c)


def lstm_seq(x, spec: LstmSpec, state=None):
    """Batched LSTM over x (S, B, I).

    Unidirectional: returns (y (S, B, H), (h, c)).  Bidirectional: full
    sequence only, returns (y (S, B, 2H), None); `state` must be None.
    """
    w = spec.weights
    if spec.bidirectional:
        if state is not None:
            raise ValueError("bidirectional LSTM has no streaming state")
        y_f, _ = _lstm_direction(x, w["w_ih"], w["w_hh"], w["b_ih"], w["b_hh"],
                                 None, spec.hidden_dim)
        y_b, _ = _lstm_direction(x[::-1], w["w_ih_rev"], w["w_hh_rev"],
                                 w["b_ih_rev"], w["b_hh_rev"], None, spec.hidden_dim)
        return concat([y_f, y_b[::-1]], axis=2), None
    return _lstm_direction(x, w["w_ih"], w["w_hh"], w["b_ih"], w["b_hh"],
                           state, spec.hidden_dim)


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


def _ft_lstm_part(x, p: FtLstmParams, t_state=None):
    """One branch of the block; x Var (C, F, B, T); returns (out, t_state')."""
    c, f, b, t = x.shape
    # F-stage: bidirectional along frequency, each frame independent.
    xf = x.transpose(1, 2, 3, 0).reshape(f, b * t, c)   # seq F, batch B*T
    u, _ = lstm_seq(xf, p.f_spec)                        # (F, B*T, 2H)
    u = linear(u, p.proj_f_w, p.proj_f_b)                # (F, B*T, C)
    v = x + u.reshape(f, b, t, c).transpose(3, 0, 1, 2)  # residual, (C, F, B, T)
    # T-stage: unidirectional along time, each sequence and frequency independent.
    vt = v.transpose(3, 2, 1, 0).reshape(t, b * f, c)    # seq T, batch B*F
    z, t_state = lstm_seq(vt, p.t_spec, t_state)         # (T, B*F, H)
    z = linear(z, p.proj_t_w, p.proj_t_b)                # (T, B*F, C)
    out = v + z.reshape(t, b, f, c).transpose(3, 2, 1, 0)
    return out, t_state


def ft_lstm_block(h: ComplexPair, params_re: FtLstmParams, params_im: FtLstmParams,
                  t_states=None):
    """Frequency-then-time recurrence with residual adds, separate per part.

    h: (C, F, T) for one sequence or (C, F, B, T) for B sequences; the output
    has the same shape.  t_states carries the two time-LSTM states from one
    block of frames to the next.
    """
    shape = h.shape
    c, f, t = shape[0], shape[1], shape[-1]
    st_re, st_im = t_states if t_states is not None else (None, None)
    out_re, st_re = _ft_lstm_part(h.re.reshape(c, f, -1, t), params_re, st_re)
    out_im, st_im = _ft_lstm_part(h.im.reshape(c, f, -1, t), params_im, st_im)
    return ComplexPair(out_re.reshape(shape), out_im.reshape(shape)), (st_re, st_im)


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
    rr, s0 = lstm_seq(xr, p.spec_r, s[0])
    ri, s1 = lstm_seq(xi, p.spec_r, s[1])
    ir, s2 = lstm_seq(xr, p.spec_i, s[2])
    ii, s3 = lstm_seq(xi, p.spec_i, s[3])
    h = p.spec_r.hidden_dim
    pair = ComplexPair((rr - ii).reshape(*lead, h), (ri + ir).reshape(*lead, h))
    out = complex_linear(pair, p.proj_pr, p.proj_pi, p.proj_br, p.proj_bi)
    return out, (s0, s1, s2, s3)


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
