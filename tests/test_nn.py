"""Network kernels against brute-force loop oracles and algebraic identities."""

import gc
import tracemalloc
from dataclasses import dataclass, field

import numpy as np
import pytest

from dcaec.autodiff import as_var, lift, no_grad, pad, value
from dcaec.nn import (ComplexPair, ConvSpec, FtLstmParams,
                      complex_conv2d, complex_deconv2d, complex_linear,
                      complex_linear_operand, complex_lstm, conv_operand,
                      deep_filter_apply, ft_lstm_block, linear, linear_operand,
                      lstm_group, lstm_operand, lstm_seq, prelu)


# ---- oracles -------------------------------------------------------------


def conv2d_loops(x, k, spec):
    """Quadruple-nested-loop real cross-correlation."""
    c_in, t_in, f_in = x.shape
    t_out, f_out = spec.t_out(t_in), spec.f_out(f_in)
    xp = np.pad(x, ((0, 0), (spec.pad_t, spec.pad_t), (spec.pad_f, spec.pad_f)))
    out = np.zeros((spec.out_ch, t_out, f_out))
    for o in range(spec.out_ch):
        for t in range(t_out):
            for f in range(f_out):
                acc = 0.0
                for ci in range(c_in):
                    for dt in range(spec.kernel_t):
                        for df in range(spec.kernel_f):
                            acc += (k[o, ci, dt, df]
                                    * xp[ci, t * spec.stride_t + dt,
                                         f * spec.stride_f + df])
                out[o, t, f] = acc
    return out


def complex_conv_oracle(w, k, spec):
    wr, wi = w
    kr, ki = k
    re = conv2d_loops(wr, kr, spec) - conv2d_loops(wi, ki, spec)
    im = conv2d_loops(wi, kr, spec) + conv2d_loops(wr, ki, spec)
    return re, im


def lstm_loops(x, w_ih, w_hh, b_ih, b_hh, h0=None, c0=None):
    """Scalar-level recurrence, gate order (input, forget, cell, output)."""
    s, i = x.shape
    hd = w_hh.shape[1]
    h = np.zeros(hd) if h0 is None else h0.copy()
    c = np.zeros(hd) if c0 is None else c0.copy()
    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    ys = np.zeros((s, hd))
    for t in range(s):
        g = w_ih @ x[t] + b_ih + w_hh @ h + b_hh
        gi, gf, gc, go = (sig(g[:hd]), sig(g[hd:2 * hd]),
                          np.tanh(g[2 * hd:3 * hd]), sig(g[3 * hd:]))
        c = gf * c + gi * gc
        h = go * np.tanh(c)
        ys[t] = h
    return ys, h, c


@dataclass
class LstmSpec:
    """An LSTM's stored weights, gate order (input, forget, cell, output):
    w_ih (4H, I), w_hh (4H, H), b_ih (4H,), b_hh (4H,) and, when
    bidirectional, the same names with a "_rev" suffix."""

    input_dim: int
    hidden_dim: int
    bidirectional: bool = False
    weights: dict = field(default_factory=dict)

    @property
    def out_dim(self):
        return self.hidden_dim * (2 if self.bidirectional else 1)

    def cells(self):
        """The recurrences as nn.lstm_operand reads them: forward, then
        backward when bidirectional."""
        w = self.weights
        return [(w["w_ih" + s], w["w_hh" + s], w["b_ih" + s], w["b_hh" + s], s == "_rev")
                for s in (("", "_rev") if self.bidirectional else ("",))]

    def operand(self):
        return lstm_operand(self.cells())


@dataclass
class FtLstmWeights:
    """One part's (real or imaginary) stored F-T-LSTM weights."""

    f_spec: LstmSpec   # bidirectional, scans frequency
    t_spec: LstmSpec   # unidirectional, scans time
    proj_f_w: object   # (C, 2H)
    proj_f_b: object   # (C,)
    proj_t_w: object   # (C, H)
    proj_t_b: object   # (C,)


def ft_operand(p_re: FtLstmWeights, p_im: FtLstmWeights) -> FtLstmParams:
    """The F-T-LSTM block's operands from both parts' stored weights."""
    parts = (p_re, p_im)
    return FtLstmParams(lstm_operand([c for p in parts for c in p.f_spec.cells()]),
                        [linear_operand(p.proj_f_w, p.proj_f_b) for p in parts],
                        [p.t_spec.operand() for p in parts],
                        [linear_operand(p.proj_t_w, p.proj_t_b) for p in parts])


def clstm_operand(spec_r: LstmSpec, spec_i: LstmSpec, pr, pi, br, bi):
    """A complex LSTM layer's operands from its stored weights."""
    return (lstm_operand(spec_r.cells() + spec_i.cells()),
            complex_linear_operand(pr, pi, br, bi))


def rand_lstm_spec(rng, i, hd, bidirectional=False):
    names = ["w_ih", "w_hh", "b_ih", "b_hh"]
    if bidirectional:
        names += [n + "_rev" for n in names[:4]]
    shapes = {"w_ih": (4 * hd, i), "w_hh": (4 * hd, hd),
              "b_ih": (4 * hd,), "b_hh": (4 * hd,)}
    w = {n: 0.4 * rng.normal(size=shapes[n[:-4] if n.endswith("_rev") else n])
         for n in names}
    return LstmSpec(i, hd, bidirectional, w)


def lstm_forward(x, spec: LstmSpec, state=None):
    """LSTM over a single sequence x (S, input_dim); returns (y, state')."""
    xv = lift(x)
    s, i = xv.shape
    if i != spec.input_dim:
        raise ValueError(f"input dim {i} != {spec.input_dim}")
    if state is not None:
        state = (lift(state[0]).reshape(1, -1), lift(state[1]).reshape(1, -1))
    y, st = lstm_seq(xv.reshape(s, 1, i), spec.operand(), state)
    y = y.reshape(s, spec.out_dim)
    if st is not None:
        st = (st[0].reshape(spec.hidden_dim), st[1].reshape(spec.hidden_dim))
    return y, st


# ---- complex conv --------------------------------------------------------


def test_identity_kernel():
    rng = np.random.default_rng(0)
    w = ComplexPair(rng.normal(size=(1, 3, 8)), rng.normal(size=(1, 3, 8)))
    spec = ConvSpec(in_ch=1, out_ch=1, kernel_f=1)
    k = ComplexPair(np.ones((1, 1, 1, 1)), np.zeros((1, 1, 1, 1)))
    out = complex_conv2d(w, conv_operand(k.re, k.im), spec)
    np.testing.assert_allclose(out.re.data, w.re.data, atol=1e-12)
    np.testing.assert_allclose(out.im.data, w.im.data, atol=1e-12)


def test_j_kernel_rotates():
    rng = np.random.default_rng(1)
    w = ComplexPair(rng.normal(size=(1, 3, 8)), rng.normal(size=(1, 3, 8)))
    spec = ConvSpec(in_ch=1, out_ch=1, kernel_f=1)
    k = ComplexPair(np.zeros((1, 1, 1, 1)), np.ones((1, 1, 1, 1)))
    out = complex_conv2d(w, conv_operand(k.re, k.im), spec)
    np.testing.assert_allclose(out.re.data, -w.im.data, atol=1e-12)
    np.testing.assert_allclose(out.im.data, w.re.data, atol=1e-12)


def test_paper_geometry_conv():
    rng = np.random.default_rng(2)
    spec = ConvSpec(in_ch=2, out_ch=3, kernel_f=5, stride_f=2, pad_f=0)
    assert spec.f_out(161) == 79
    wr, wi = rng.normal(size=(2, 2, 4, 161))
    kr, ki = 0.3 * rng.normal(size=(2, 3, 2, 1, 5))
    out = complex_conv2d(ComplexPair(wr, wi), conv_operand(kr, ki), spec)
    re_ref, im_ref = complex_conv_oracle((wr, wi), (kr, ki), spec)
    assert out.shape == (3, 4, 79)
    np.testing.assert_allclose(out.re.data, re_ref, atol=1e-5)
    np.testing.assert_allclose(out.im.data, im_ref, atol=1e-5)


def test_conv_random_small_shapes_vs_loops():
    rng = np.random.default_rng(3)
    for _ in range(100):
        c_in = int(rng.integers(1, 3))
        c_out = int(rng.integers(1, 3))
        kf = int(rng.integers(1, 4))
        kt = int(rng.integers(1, 3))
        sf = int(rng.integers(1, 3))
        pf = int(rng.integers(0, 2))
        pt = int(rng.integers(0, kt))
        f_in = int(rng.integers(kf, kf + 5))
        t_in = int(rng.integers(kt, kt + 3))
        spec = ConvSpec(in_ch=c_in, out_ch=c_out, kernel_f=kf, kernel_t=kt,
                        stride_f=sf, pad_f=pf, pad_t=pt)
        wr, wi = rng.normal(size=(2, c_in, t_in, f_in))
        kr, ki = rng.normal(size=(2, c_out, c_in, kt, kf))
        out = complex_conv2d(ComplexPair(wr, wi), conv_operand(kr, ki), spec)
        re_ref, im_ref = complex_conv_oracle((wr, wi), (kr, ki), spec)
        np.testing.assert_allclose(out.re.data, re_ref, atol=1e-5)
        np.testing.assert_allclose(out.im.data, im_ref, atol=1e-5)


def test_deconv_paper_geometry():
    spec = ConvSpec(in_ch=1, out_ch=1, kernel_f=5, stride_f=2, transposed=True)
    assert spec.f_out(79) == 161


def test_deconv_identity():
    rng = np.random.default_rng(4)
    w = ComplexPair(rng.normal(size=(1, 2, 6)), rng.normal(size=(1, 2, 6)))
    spec = ConvSpec(in_ch=1, out_ch=1, kernel_f=1, transposed=True)
    k = ComplexPair(np.ones((1, 1, 1, 1)), np.zeros((1, 1, 1, 1)))
    out = complex_deconv2d(w, conv_operand(k.re, k.im, transposed=True), spec)
    np.testing.assert_allclose(out.re.data, w.re.data, atol=1e-12)


def test_deconv_is_adjoint_of_conv():
    rng = np.random.default_rng(5)
    for _ in range(20):
        kf = int(rng.integers(1, 4))
        sf = int(rng.integers(1, 3))
        pf = int(rng.integers(0, 2))
        # keep the stride dividing the padded extent so the transposed
        # output-shape formula recovers f_in exactly
        f_in = kf - 2 * pf + sf * int(rng.integers(1, 5))
        if f_in < kf:
            continue
        fwd = ConvSpec(in_ch=2, out_ch=3, kernel_f=kf, stride_f=sf, pad_f=pf)
        back = ConvSpec(in_ch=3, out_ch=2, kernel_f=kf, stride_f=sf, pad_f=pf,
                        transposed=True)
        f_out = fwd.f_out(f_in)
        k = rng.normal(size=(3, 2, 1, kf))
        x = rng.normal(size=(2, 2, f_in))
        y = rng.normal(size=(3, 2, f_out))
        cx = complex_conv2d(ComplexPair(x, np.zeros_like(x)),
                            conv_operand(k, np.zeros_like(k)), fwd)
        kb = np.ascontiguousarray(k.swapaxes(0, 1))
        dy = complex_deconv2d(ComplexPair(y, np.zeros_like(y)),
                              conv_operand(kb, np.zeros_like(kb), transposed=True), back)
        lhs = np.sum(cx.re.data * y)
        rhs = np.sum(x * dy.re.data)
        assert abs(lhs - rhs) < 1e-6 * max(1.0, abs(lhs))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("transposed", [False, True])
@pytest.mark.parametrize("kt,stride,pad", [(1, 1, 0), (1, 2, 1), (3, 1, 1), (3, 2, 0)])
def test_conv_arrays_and_vars_agree_bitwise(kt, stride, pad, transposed, dtype):
    rng = np.random.default_rng(6)
    spec = ConvSpec(in_ch=3, out_ch=2, kernel_f=3, kernel_t=kt, stride_f=stride,
                    stride_t=stride, pad_f=pad, pad_t=pad, transposed=transposed)
    w = rng.normal(size=(2, 3, 5, 9)).astype(dtype)
    k = rng.normal(size=(2, 2, 3, kt, 3)).astype(dtype)
    op = complex_deconv2d if transposed else complex_conv2d
    graph = op(ComplexPair(*w), conv_operand(*k, transposed), spec)
    with no_grad():
        arrays = op(ComplexPair(*w), conv_operand(*k, transposed), spec)
    assert isinstance(arrays.re, np.ndarray) and arrays.re.dtype == dtype
    assert graph.re.dtype == dtype
    np.testing.assert_array_equal(arrays.re, graph.re.data)
    np.testing.assert_array_equal(arrays.im, graph.im.data)


def test_kernel_shape_validated():
    spec = ConvSpec(in_ch=2, out_ch=3, kernel_f=3)
    w = ComplexPair(np.zeros((2, 2, 8)), np.zeros((2, 2, 8)))
    bad = ComplexPair(np.zeros((3, 2, 1, 5)), np.zeros((3, 2, 1, 5)))
    with pytest.raises(ValueError):
        complex_conv2d(w, conv_operand(bad.re, bad.im), spec)


# ---- LSTM ----------------------------------------------------------------


def test_lstm_zero_weights_zero_output():
    spec = LstmSpec(3, 4, False, {"w_ih": np.zeros((16, 3)),
                                  "w_hh": np.zeros((16, 4)),
                                  "b_ih": np.zeros(16), "b_hh": np.zeros(16)})
    y, _ = lstm_forward(np.random.default_rng(0).normal(size=(7, 3)), spec)
    assert not y.data.any()


def test_lstm_matches_scalar_recurrence():
    rng = np.random.default_rng(6)
    spec = rand_lstm_spec(rng, 3, 4)
    x = rng.normal(size=(9, 3))
    y, (h, c) = lstm_forward(x, spec)
    w = spec.weights
    y_ref, h_ref, c_ref = lstm_loops(x, w["w_ih"], w["w_hh"], w["b_ih"], w["b_hh"])
    np.testing.assert_allclose(y.data, y_ref, atol=1e-10)
    np.testing.assert_allclose(h.data, h_ref, atol=1e-10)
    np.testing.assert_allclose(c.data, c_ref, atol=1e-10)


def test_lstm_forced_gates():
    rng = np.random.default_rng(7)
    hd = 3
    w = {"w_ih": np.zeros((4 * hd, 2)), "w_hh": np.zeros((4 * hd, hd)),
         "b_ih": np.zeros(4 * hd), "b_hh": np.zeros(4 * hd)}
    w["w_ih"][2 * hd:3 * hd] = rng.normal(size=(hd, 2))  # cell candidate only
    w["b_ih"][:hd] = 50.0          # input gate open
    w["b_ih"][hd:2 * hd] = -50.0   # forget gate closed
    w["b_ih"][3 * hd:] = 50.0      # output gate open
    x = rng.normal(size=(4, 2))
    y, _ = lstm_forward(x, LstmSpec(2, hd, False, w))
    ref = np.tanh(np.tanh(x @ w["w_ih"][2 * hd:3 * hd].T))
    np.testing.assert_allclose(y.data, ref, atol=1e-8)


def test_lstm_state_carry_equivalence():
    rng = np.random.default_rng(8)
    spec = rand_lstm_spec(rng, 3, 5)
    x = rng.normal(size=(20, 3))
    y_full, _ = lstm_forward(x, spec)
    y1, st = lstm_forward(x[:10], spec)
    y2, _ = lstm_forward(x[10:], spec, st)
    np.testing.assert_allclose(
        np.concatenate([y1.data, y2.data]), y_full.data, atol=1e-12)


def test_bidirectional_lstm_reverses_cleanly():
    """A group of a forward and a reverse recurrence over one input, as the
    F-stage runs each part."""
    rng = np.random.default_rng(9)
    spec = rand_lstm_spec(rng, 2, 3, bidirectional=True)
    x = as_var(rng.normal(size=(6, 2, 2)))
    (y_fwd, y_rev), _ = lstm_group([x, x], spec.operand(), [None, None])
    assert y_fwd.shape == y_rev.shape == (6, 2, 3)
    # forward half matches the unidirectional run on the same weights
    uni = LstmSpec(2, 3, False, {k: v for k, v in spec.weights.items()
                                 if not k.endswith("_rev")})
    yf, _ = lstm_seq(x, uni.operand())
    np.testing.assert_allclose(y_fwd.data, yf.data, atol=1e-12)
    # backward half equals the forward run on the reversed sequence, reversed
    rev = LstmSpec(2, 3, False, {k[:-4]: v for k, v in spec.weights.items()
                                 if k.endswith("_rev")})
    yb, _ = lstm_seq(as_var(x.data[::-1].copy()), rev.operand())
    np.testing.assert_allclose(y_rev.data, yb.data[::-1], atol=1e-12)


def test_lstm_operand_layout():
    """The group's operands: w_ih^T, C-ordered stacked w_hh^T, b_ih + b_hh."""
    rng = np.random.default_rng(22)
    spec = rand_lstm_spec(rng, 3, 4, bidirectional=True)
    w = spec.weights
    with no_grad():
        op = spec.operand()
    assert op.w_hh.shape == (2, 4, 16) and op.w_hh.flags.c_contiguous
    np.testing.assert_array_equal(op.w_hh[1], w["w_hh_rev"].T)
    np.testing.assert_array_equal(op.w_ih[1], w["w_ih_rev"].T)
    np.testing.assert_array_equal(op.b[0], w["b_ih"] + w["b_hh"])
    assert op.reverse == (False, True)


# ---- F-T block, complex LSTM, deep filter, activations -------------------


def test_ft_lstm_pure_residual_when_projections_zero():
    rng = np.random.default_rng(10)
    c, f, t, hd = 3, 5, 4, 2

    def params():
        return FtLstmWeights(
            f_spec=rand_lstm_spec(rng, c, hd, True),
            t_spec=rand_lstm_spec(rng, c, hd, False),
            proj_f_w=np.zeros((c, 2 * hd)), proj_f_b=np.zeros(c),
            proj_t_w=np.zeros((c, hd)), proj_t_b=np.zeros(c))

    h = ComplexPair(rng.normal(size=(c, f, t)), rng.normal(size=(c, f, t)))
    out, _ = ft_lstm_block(h, ft_operand(params(), params()))
    np.testing.assert_allclose(out.re.data, h.re.data, atol=1e-12)
    np.testing.assert_allclose(out.im.data, h.im.data, atol=1e-12)


def test_ft_lstm_f_stage_is_frame_independent():
    rng = np.random.default_rng(11)
    c, f, t, hd = 2, 4, 5, 2
    p = FtLstmWeights(
        f_spec=rand_lstm_spec(rng, c, hd, True),
        t_spec=rand_lstm_spec(rng, c, hd, False),
        proj_f_w=0.3 * rng.normal(size=(c, 2 * hd)), proj_f_b=np.zeros(c),
        proj_t_w=np.zeros((c, hd)), proj_t_b=np.zeros(c))
    x = rng.normal(size=(c, f, t))
    perm = np.array([3, 1, 4, 0, 2])
    out, _ = ft_lstm_block(ComplexPair(x, np.zeros_like(x)), ft_operand(p, p))
    out_p, _ = ft_lstm_block(
        ComplexPair(x[:, :, perm].copy(), np.zeros_like(x)), ft_operand(p, p))
    # with the T-stage projection zeroed, permuting frames permutes outputs
    np.testing.assert_allclose(out.re.data[:, :, perm], out_p.re.data, atol=1e-10)


def test_ft_lstm_paper_shape():
    rng = np.random.default_rng(12)
    c, f, t, hd = 96, 79, 3, 8

    def params():
        return FtLstmWeights(
            f_spec=rand_lstm_spec(rng, c, hd, True),
            t_spec=rand_lstm_spec(rng, c, hd, False),
            proj_f_w=0.1 * rng.normal(size=(c, 2 * hd)), proj_f_b=np.zeros(c),
            proj_t_w=0.1 * rng.normal(size=(c, hd)), proj_t_b=np.zeros(c))

    h = ComplexPair(rng.normal(size=(c, f, t)), rng.normal(size=(c, f, t)))
    out, states = ft_lstm_block(h, ft_operand(params(), params()))
    assert out.shape == (c, f, t)
    assert len(states) == 2


def test_complex_lstm_zero_imag_weights_decouples():
    rng = np.random.default_rng(13)
    t, d, hd = 6, 3, 2
    spec_r = rand_lstm_spec(rng, d, hd)
    zero = LstmSpec(d, hd, False, {"w_ih": np.zeros((4 * hd, d)),
                                   "w_hh": np.zeros((4 * hd, hd)),
                                   "b_ih": np.zeros(4 * hd),
                                   "b_hh": np.zeros(4 * hd)})
    p = clstm_operand(spec_r, zero, np.eye(d, hd), np.zeros((d, hd)), np.zeros(d), np.zeros(d))
    xr = rng.normal(size=(t, d))
    xi = rng.normal(size=(t, d))
    out, _ = complex_lstm(ComplexPair(xr, xi), p)
    yr, _ = lstm_forward(xr, spec_r)
    yi, _ = lstm_forward(xi, spec_r)
    np.testing.assert_allclose(out.re.data, yr.data @ np.eye(d, hd).T, atol=1e-10)
    np.testing.assert_allclose(out.im.data, yi.data @ np.eye(d, hd).T, atol=1e-10)


def test_complex_lstm_real_input_imag_path():
    rng = np.random.default_rng(14)
    t, d, hd = 5, 3, 2
    spec_r = rand_lstm_spec(rng, d, hd)
    spec_i = rand_lstm_spec(rng, d, hd)
    pr, pi = 0.3 * rng.normal(size=(2, d, hd))
    br, bi = 0.3 * rng.normal(size=(2, d))
    p = clstm_operand(spec_r, spec_i, pr, pi, br, bi)
    x = rng.normal(size=(t, d))
    out, _ = complex_lstm(ComplexPair(x, np.zeros((t, d))), p)
    # biases make an LSTM on silence nonzero, so both branches contribute
    yr, _ = lstm_forward(x, spec_r)
    yr0, _ = lstm_forward(np.zeros((t, d)), spec_r)
    yi, _ = lstm_forward(x, spec_i)
    yi0, _ = lstm_forward(np.zeros((t, d)), spec_i)
    re, im = yr.data - yi0.data, yr0.data + yi.data
    np.testing.assert_allclose(out.re.data, re @ pr.T - im @ pi.T + br, atol=1e-10)
    np.testing.assert_allclose(out.im.data, im @ pr.T + re @ pi.T + bi, atol=1e-10)


def test_complex_lstm_state_carry():
    rng = np.random.default_rng(15)
    t, d, hd = 8, 3, 2
    p = clstm_operand(rand_lstm_spec(rng, d, hd), rand_lstm_spec(rng, d, hd),
                      0.3 * rng.normal(size=(d, hd)), 0.3 * rng.normal(size=(d, hd)),
                      np.zeros(d), np.zeros(d))
    x = ComplexPair(rng.normal(size=(t, d)), rng.normal(size=(t, d)))
    full, _ = complex_lstm(x, p)
    a, st = complex_lstm(ComplexPair(x.re.data[:4], x.im.data[:4]), p)
    b, _ = complex_lstm(ComplexPair(x.re.data[4:], x.im.data[4:]), p, st)
    np.testing.assert_allclose(
        np.concatenate([a.re.data, b.re.data]), full.re.data, atol=1e-12)
    np.testing.assert_allclose(
        np.concatenate([a.im.data, b.im.data]), full.im.data, atol=1e-12)


# ---- grouped recurrences: arrays against the gradient graph ----------------


def _ft_params(rng, c, hd, dtype):
    def cast(a):
        return np.asarray(a, dtype=dtype)

    f_spec = rand_lstm_spec(rng, c, hd, True)
    t_spec = rand_lstm_spec(rng, c, hd, False)
    for spec in (f_spec, t_spec):
        spec.weights = {k: cast(v) for k, v in spec.weights.items()}
    return FtLstmWeights(f_spec, t_spec,
                         cast(0.4 * rng.normal(size=(c, 2 * hd))), cast(0.4 * rng.normal(size=c)),
                         cast(0.4 * rng.normal(size=(c, hd))), cast(0.4 * rng.normal(size=c)))


def _clstm_params(rng, d, hd, dtype):
    specs = [rand_lstm_spec(rng, d, hd) for _ in range(2)]
    for spec in specs:
        spec.weights = {k: v.astype(dtype) for k, v in spec.weights.items()}
    pr, pi = (0.4 * rng.normal(size=(2, d, hd))).astype(dtype)
    br, bi = (0.4 * rng.normal(size=(2, d))).astype(dtype)
    return (*specs, pr, pi, br, bi)


def _both_paths(fn):
    """fn() on Vars while gradients record, and under no_grad on arrays."""
    graph = fn()
    with no_grad():
        arrays = fn()
    return graph, arrays


def _assert_same_bits(graph, arrays):
    """A nest of Vars and one of arrays hold the same values, bit for bit."""
    if isinstance(graph, (tuple, list)):
        assert len(graph) == len(arrays)
        for g, a in zip(graph, arrays):
            _assert_same_bits(g, a)
    elif isinstance(graph, ComplexPair):
        _assert_same_bits((graph.re, graph.im), (arrays.re, arrays.im))
    elif graph is None:
        assert arrays is None
    else:
        assert type(arrays) is np.ndarray
        assert graph.dtype == arrays.dtype
        assert np.array_equal(graph.data, arrays)


DTYPES = [np.float32, np.float64]
COLUMNS = [1, 2, 3, 5, 9]


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("n", COLUMNS)
def test_ft_lstm_block_arrays_match_graph(dtype, n):
    """n frame columns: both paths run the F-stage over all of them at once."""
    rng = np.random.default_rng(30 + n)
    c, f, hd = 6, 7, 8
    p_re, p_im = _ft_params(rng, c, hd, dtype), _ft_params(rng, c, hd, dtype)
    h = rng.normal(size=(2, c, f, n)).astype(dtype)
    _assert_same_bits(*_both_paths(
        lambda: ft_lstm_block(ComplexPair(h[0], h[1]), ft_operand(p_re, p_im))))


@pytest.mark.parametrize("dtype", DTYPES)
def test_ft_lstm_block_batched_with_carried_states_matches_graph(dtype):
    rng = np.random.default_rng(40)
    c, f, b, t, hd = 6, 7, 3, 2, 8
    p_re, p_im = _ft_params(rng, c, hd, dtype), _ft_params(rng, c, hd, dtype)
    h1, h2 = rng.normal(size=(2, 2, c, f, b, t)).astype(dtype)
    with no_grad():
        _, states = ft_lstm_block(ComplexPair(h1[0], h1[1]), ft_operand(p_re, p_im))
    _assert_same_bits(*_both_paths(
        lambda: ft_lstm_block(ComplexPair(h2[0], h2[1]), ft_operand(p_re, p_im), states)))


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("n", COLUMNS)
def test_bidirectional_lstm_seq_arrays_match_graph(dtype, n):
    rng = np.random.default_rng(50 + n)
    spec = rand_lstm_spec(rng, 5, 8, bidirectional=True)
    spec.weights = {k: v.astype(dtype) for k, v in spec.weights.items()}
    x = rng.normal(size=(6, n, 5)).astype(dtype)
    _assert_same_bits(*_both_paths(
        lambda: lstm_group([x, x], spec.operand(), [None, None])))


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("n", COLUMNS)
def test_complex_lstm_arrays_match_graph(dtype, n):
    rng = np.random.default_rng(60 + n)
    p = _clstm_params(rng, 5, 8, dtype)
    x = rng.normal(size=(2, 4, n, 5)).astype(dtype)
    _assert_same_bits(*_both_paths(
        lambda: complex_lstm(ComplexPair(x[0], x[1]), clstm_operand(*p))))


@pytest.mark.parametrize("dtype", DTYPES)
def test_complex_lstm_batched_with_carried_states_matches_graph(dtype):
    rng = np.random.default_rng(70)
    p = _clstm_params(rng, 5, 8, dtype)
    x1, x2 = rng.normal(size=(2, 2, 3, 4, 5)).astype(dtype)
    with no_grad():
        _, states = complex_lstm(ComplexPair(x1[0], x1[1]), clstm_operand(*p))
    _assert_same_bits(*_both_paths(
        lambda: complex_lstm(ComplexPair(x2[0], x2[1]), clstm_operand(*p), states)))


def ft_lstm_oracle(xp, p):
    """One part of the F-T block from per-frame and per-bin scalar
    recurrences: xp (C, F, T)."""
    _, f, t = xp.shape
    w = p.f_spec.weights
    v = xp.copy()
    for tt in range(t):
        seq = xp[:, :, tt].T  # (F, C)
        fwd = lstm_loops(seq, w["w_ih"], w["w_hh"], w["b_ih"], w["b_hh"])[0]
        back = lstm_loops(seq[::-1], w["w_ih_rev"], w["w_hh_rev"],
                          w["b_ih_rev"], w["b_hh_rev"])[0][::-1]
        u = np.concatenate([fwd, back], axis=1) @ p.proj_f_w.T + p.proj_f_b
        v[:, :, tt] += u.T
    wt = p.t_spec.weights
    out = v.copy()
    for ff in range(f):
        seq = v[:, ff, :].T  # (T, C)
        z = lstm_loops(seq, wt["w_ih"], wt["w_hh"], wt["b_ih"], wt["b_hh"])[0]
        out[:, ff, :] += (z @ p.proj_t_w.T + p.proj_t_b).T
    return out


def test_ft_lstm_arrays_match_scalar_oracle():
    """Criterion 3's F-T oracle, run on the array path."""
    rng = np.random.default_rng(80)
    worst = 0.0
    for _ in range(30):
        c, hd = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        f, t = int(rng.integers(2, 4)), int(rng.integers(2, 6))
        p_re, p_im = (_ft_params(rng, c, hd, np.float64) for _ in range(2))
        hx = rng.normal(size=(2, c, f, t))
        with no_grad():
            out, _ = ft_lstm_block(ComplexPair(hx[0], hx[1]), ft_operand(p_re, p_im))
        assert type(out.re) is np.ndarray
        worst = max(worst, np.max(np.abs(out.re - ft_lstm_oracle(hx[0], p_re))),
                    np.max(np.abs(out.im - ft_lstm_oracle(hx[1], p_im))))
    assert worst < 1e-5


def deep_filter_loops(coef_re, coef_im, t_re, t_im):
    _, T, F = t_re.shape
    out = np.zeros((T, F), dtype=complex)
    tgt = (t_re[0] + 1j * t_im[0])
    for tt in range(T):
        for ff in range(F):
            for i in (-1, 0, 1):
                for j in (-1, 0, 1):
                    ti, fi = tt + j, ff + i
                    if not (0 <= ti < T and 0 <= fi < F):
                        continue
                    ch = 3 * (i + 1) + (j + 1)
                    out[tt, ff] += (coef_re[ch, tt, ff] + 1j * coef_im[ch, tt, ff]) * tgt[ti, fi]
    return out


def test_deep_filter_delta_tap():
    rng = np.random.default_rng(16)
    t, f = 4, 6
    coef_re = np.zeros((9, t, f))
    coef_re[4] = 1.0  # (0, 0) offset tap
    tr, ti = rng.normal(size=(2, 1, t, f))
    out = deep_filter_apply(ComplexPair(coef_re, np.zeros_like(coef_re)),
                            ComplexPair(tr, ti))
    np.testing.assert_allclose(out.re.data, tr, atol=1e-12)
    np.testing.assert_allclose(out.im.data, ti, atol=1e-12)


def test_deep_filter_lookahead_tap():
    rng = np.random.default_rng(17)
    t, f = 5, 4
    coef_re = np.zeros((9, t, f))
    coef_re[5] = 1.0  # frequency offset 0, time offset +1
    tr = rng.normal(size=(1, t, f))
    out = deep_filter_apply(ComplexPair(coef_re, np.zeros_like(coef_re)),
                            ComplexPair(tr, np.zeros_like(tr)))
    np.testing.assert_allclose(out.re.data[0, :-1], tr[0, 1:], atol=1e-12)
    assert not out.re.data[0, -1].any()  # last frame reads zero


def test_deep_filter_matches_loop_oracle():
    rng = np.random.default_rng(18)
    for _ in range(20):
        t, f = 5, 7
        cr, ci = rng.normal(size=(2, 9, t, f))
        tr, ti = rng.normal(size=(2, 1, t, f))
        out = deep_filter_apply(ComplexPair(cr, ci), ComplexPair(tr, ti))
        ref = deep_filter_loops(cr, ci, tr, ti)
        np.testing.assert_allclose(out.re.data[0], ref.real, atol=1e-6)
        np.testing.assert_allclose(out.im.data[0], ref.imag, atol=1e-6)


def test_prelu_identity_and_zero_slope():
    rng = np.random.default_rng(19)
    x = rng.normal(size=(2, 3, 4))
    np.testing.assert_allclose(prelu(x, np.ones((2, 1, 1))).data, x, atol=1e-12)
    neg = -np.abs(x)
    assert not prelu(neg, np.zeros((2, 1, 1))).data.any()


def test_prelu_gradient_at_unit_inputs():
    for sign in (1.0, -1.0):
        x = as_var(np.full((1, 2, 2), sign))
        alpha = as_var(np.full((1, 1, 1), 0.3))
        prelu(x, alpha).sum().backward()
        h = 1e-6
        fd = (np.sum(prelu(np.full((1, 2, 2), sign + h), 0.3 * np.ones((1, 1, 1))).data)
              - np.sum(prelu(np.full((1, 2, 2), sign - h), 0.3 * np.ones((1, 1, 1))).data)) / (2 * h)
        assert abs(x.grad.sum() - fd) < 1e-6


def test_linear_matches_numpy():
    rng = np.random.default_rng(20)
    x = rng.normal(size=(3, 4, 5))
    w = rng.normal(size=(2, 5))
    b = rng.normal(size=2)
    np.testing.assert_allclose(linear(x, *linear_operand(w, b)).data, x @ w.T + b,
                               atol=1e-12)


def test_complex_linear_is_the_complex_product():
    """One real product against the complex formula, in float64."""
    rng = np.random.default_rng(21)
    re, im = rng.normal(size=(2, 3, 4, 5))
    pr, pi = rng.normal(size=(2, 6, 5))
    br, bi = rng.normal(size=(2, 6))
    with no_grad():
        out = complex_linear(ComplexPair(re, im), *complex_linear_operand(pr, pi, br, bi))
    assert np.max(np.abs(out.re - (re @ pr.T - im @ pi.T + br))) <= 1e-12
    assert np.max(np.abs(out.im - (im @ pr.T + re @ pi.T + bi))) <= 1e-12


# ---- what a recorded op keeps --------------------------------------------


def _kept_bytes(fn):
    """fn()'s result and the bytes of memory it still holds (tracemalloc)."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_recorded_lstm_group_keeps_only_its_states():
    """Four recurrences keep h_0 .. h_S and c_0 .. c_S, not their
    (K, S, N, 4H) gate activations too."""
    rng = np.random.default_rng(90)
    k, s, n, i, hd = 4, 20, 32, 8, 16
    xs = [as_var(rng.normal(size=(s, n, i))) for _ in range(k)]
    op = lstm_operand([(as_var(0.4 * rng.normal(size=(4 * hd, i))),
                        as_var(0.4 * rng.normal(size=(4 * hd, hd))),
                        as_var(rng.normal(size=4 * hd)), as_var(rng.normal(size=4 * hd)),
                        j % 2 == 1) for j in range(k)])
    (ys, finals), kept = _kept_bytes(lambda: lstm_group(xs, op, [None] * k))
    states = 2 * k * (s + 1) * n * hd * 8   # hs and cs, float64
    assert kept <= 1.1 * states, (kept, states)


def _df_inputs(rng, t, t_target, dtype, f=7):
    cr, ci = rng.normal(size=(2, 9, t, f)).astype(dtype)
    tr, ti = rng.normal(size=(2, 1, t_target, f)).astype(dtype)
    return cr, ci, tr, ti


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("context", [False, True])
def test_deep_filter_arrays_match_graph(dtype, context):
    rng = np.random.default_rng(91)
    cr, ci, tr, ti = _df_inputs(rng, 6, 8 if context else 6, dtype)
    _assert_same_bits(*_both_paths(
        lambda: deep_filter_apply(ComplexPair(cr, ci), ComplexPair(tr, ti))))


@pytest.mark.parametrize("dtype", DTYPES)
def test_prelu_arrays_match_graph(dtype):
    rng = np.random.default_rng(92)
    x = rng.normal(size=(3, 5, 7)).astype(dtype)
    x[0, 0, :3] = (0.0, -0.0, 0.0)
    alpha = rng.normal(size=(3, 1, 1)).astype(dtype)
    _assert_same_bits(*_both_paths(lambda: prelu(x, alpha)))


def test_recorded_prelu_keeps_only_its_output():
    rng = np.random.default_rng(93)
    x, alpha = as_var(rng.normal(size=(4, 50, 40))), as_var(rng.normal(size=(4, 1, 1)))
    out, kept = _kept_bytes(lambda: prelu(x, alpha))
    assert kept <= 1.25 * out.data.nbytes, (kept, out.data.nbytes)


@pytest.mark.parametrize("context", [False, True])
def test_recorded_deep_filter_keeps_only_its_output(context):
    rng = np.random.default_rng(94)
    t = 100
    cr, ci, tr, ti = (as_var(a) for a in
                      _df_inputs(rng, t, t + 2 if context else t, np.float64, f=40))
    coef, target = ComplexPair(cr, ci), ComplexPair(tr, ti)
    out, kept = _kept_bytes(lambda: deep_filter_apply(coef, target))
    parts = out.re.data.nbytes + out.im.data.nbytes
    assert kept <= 1.25 * parts, (kept, parts)


def prelu_composed(x, alpha):
    """PReLU as a composition of Var products: x*mask + alpha*(x*(1-mask))."""
    mask = (value(x) >= 0).astype(x.dtype)
    return x * mask + alpha * (x * (1.0 - mask))


def deep_filter_composed(coef, target):
    """The deep filter's tap sum as a composition of Var slices and products."""
    _, t, f = coef.shape
    pad_t = 1 if target.shape[1] == t else 0
    tp_re, tp_im = (pad(v, ((0, 0), (pad_t, pad_t), (1, 1))) for v in (target.re, target.im))
    out_re = out_im = 0.0
    for i in (-1, 0, 1):
        for j in (-1, 0, 1):
            ch = 3 * (i + 1) + (j + 1)
            sr = tp_re[0, 1 + j:1 + j + t, 1 + i:1 + i + f]
            si = tp_im[0, 1 + j:1 + j + t, 1 + i:1 + i + f]
            cr, ci = coef.re[ch], coef.im[ch]
            out_re = out_re + (cr * sr - ci * si)
            out_im = out_im + (cr * si + ci * sr)
    return ComplexPair(out_re.reshape(1, t, f), out_im.reshape(1, t, f))


def _grads_of(fn, arrays, project):
    """fn's output projected onto fixed random weights, differentiated with
    respect to every input array."""
    vs = [as_var(a) for a in arrays]
    project(fn(*vs)).backward()
    return [v.grad for v in vs]


def test_prelu_gradients_match_the_composition():
    rng = np.random.default_rng(95)
    x, alpha = rng.normal(size=(3, 6, 5)), rng.normal(size=(3, 1, 1))
    r = rng.normal(size=x.shape)
    fused = _grads_of(prelu, (x, alpha), lambda y: (y * r).sum())
    ref = _grads_of(prelu_composed, (x, alpha), lambda y: (y * r).sum())
    for a, b in zip(fused, ref):
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


@pytest.mark.parametrize("context", [False, True])
def test_deep_filter_gradients_match_the_composition(context):
    rng = np.random.default_rng(96)
    arrays = _df_inputs(rng, 5, 7 if context else 5, np.float64)
    r1, r2 = rng.normal(size=(2, 1, 5, 7))

    def run(df):
        return lambda cr, ci, tr, ti: df(ComplexPair(cr, ci), ComplexPair(tr, ti))

    def project(out):
        return (out.re * r1).sum() + (out.im * r2).sum()

    fused = _grads_of(run(deep_filter_apply), arrays, project)
    ref = _grads_of(run(deep_filter_composed), arrays, project)
    for a, b in zip(fused, ref):
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))
