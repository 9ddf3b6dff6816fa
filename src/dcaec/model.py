"""Network assembly: configuration, weight store, offline and streaming inference.

The pipeline stacks the microphone and far-end spectra as two complex input
channels, runs a complex conv encoder, the frequency-time recurrence block,
a complex deconv decoder, the deep filter and two complex LSTM layers, and
produces a complex mask that multiplies the microphone spectrum.  The
network is wired once, as two stages over blocks of frames (see
`encode_stage` and `mask_stage`), for offline, streaming and training use.
Inference runs one way: offline `forward` is a `StreamingSession` fed the
whole signal as one block.
"""

import hashlib
import json
from collections import OrderedDict
from dataclasses import dataclass, field, replace

import numpy as np

from . import nn
from .autodiff import as_var, no_grad, pad, value
from .dsp import (AudioBuffer, ComplexSpec, SampleRateError, StftConfig, frame_signal,
                  istft)
# no caller since forward became a StreamingSession run; perfbench/tracing.py patches it
from .dsp import stft  # noqa: F401
from .nn import (ComplexLstmParams, ComplexPair, ConvSpec, FtLstmParams,
                 LstmSpec, activation, complex_conv2d, complex_deconv2d,
                 complex_lstm, deep_filter_apply, ft_lstm_block)


class NumericError(RuntimeError):
    """Non-finite value detected inside the network."""


class WeightError(ValueError):
    """Weight store inconsistent with the model configuration."""


MASK_CLAMP = 100.0


def _conv_row(s: ConvSpec):
    return [s.in_ch, s.out_ch, s.kernel_f, s.kernel_t, s.stride_f, s.stride_t, s.pad_f, s.pad_t]


@dataclass
class ModelConfig:
    stft: StftConfig = field(default_factory=StftConfig)
    enc_specs: tuple = ()
    dec_specs: tuple = ()
    df_spec: ConvSpec = None
    lstm_hidden: int = 128
    clstm_hidden: int = 128
    clstm_layers: int = 2
    activation: str = "prelu"
    df_wiring: str = "decoder"  # "decoder" or "input": what the taps filter
    seed: int = 0

    def __post_init__(self):
        # the network runs on blocks of frames down to one frame, so the
        # encoder and decoder must not mix frames and the deep filter must
        # reach exactly one frame either way
        for s in (*self.enc_specs, *self.dec_specs):
            if (s.kernel_t, s.stride_t, s.pad_t) != (1, 1, 0):
                raise ValueError("encoder and decoder convolutions must be frame-local "
                                 "(kernel_t = stride_t = 1, pad_t = 0)")
        d = self.df_spec
        if d is not None and (d.kernel_t, d.stride_t, d.pad_t) != (3, 1, 1):
            raise ValueError("the deep filter convolution must span one frame either "
                             "way (kernel_t = 3, stride_t = 1, pad_t = 1)")

    @classmethod
    def _sized(cls, ch1, ch2, lstm_hidden, clstm_hidden, clstm_layers, seed, df_wiring):
        """The paper's topology with the given widths."""
        return cls(
            enc_specs=(ConvSpec(in_ch=2, out_ch=ch1, kernel_f=5, stride_f=2),
                       ConvSpec(in_ch=ch1, out_ch=ch2, kernel_f=3, pad_f=1)),
            dec_specs=(ConvSpec(in_ch=ch2, out_ch=ch1, kernel_f=3, pad_f=1, transposed=True),
                       ConvSpec(in_ch=ch1, out_ch=1, kernel_f=5, stride_f=2, transposed=True)),
            df_spec=ConvSpec(in_ch=1, out_ch=9, kernel_f=3, kernel_t=3, pad_f=1, pad_t=1),
            lstm_hidden=lstm_hidden, clstm_hidden=clstm_hidden,
            clstm_layers=clstm_layers, seed=seed, df_wiring=df_wiring)

    @classmethod
    def paper_mode(cls, seed=0, df_wiring="decoder"):
        return cls._sized(32, 96, 128, 128, 2, seed, df_wiring)

    @classmethod
    def desk_mode(cls, seed=0, df_wiring="decoder"):
        """Small configuration for fast desk-scale training experiments."""
        return cls._sized(4, 8, 16, 32, 1, seed, df_wiring)

    @property
    def n_bins(self):
        return self.stft.n_bins

    @property
    def bottleneck_bins(self):
        f = self.n_bins
        for s in self.enc_specs:
            f = s.f_out(f)
        return f

    @property
    def bottleneck_ch(self):
        return self.enc_specs[-1].out_ch

    def to_dict(self):
        return {
            "stft": {"win_len": self.stft.win_len, "hop": self.stft.hop,
                     "fft_size": self.stft.fft_size,
                     "sample_rate": self.stft.sample_rate},
            "enc": [_conv_row(s) for s in self.enc_specs],
            "dec": [_conv_row(s) for s in self.dec_specs],
            "df": [self.df_spec.in_ch, self.df_spec.out_ch, self.df_spec.kernel_f,
                   self.df_spec.kernel_t, self.df_spec.pad_f, self.df_spec.pad_t],
            "lstm_hidden": self.lstm_hidden,
            "clstm_hidden": self.clstm_hidden,
            "clstm_layers": self.clstm_layers,
            "activation": self.activation,
            "df_wiring": self.df_wiring,
            "input_order": "complex channels (mic, farend)",
        }

    @classmethod
    def from_dict(cls, d):
        stft = StftConfig(win_len=d["stft"]["win_len"], hop=d["stft"]["hop"],
                          fft_size=d["stft"]["fft_size"],
                          sample_rate=d["stft"]["sample_rate"])

        def conv(row, transposed):
            i, o, kf, kt, sf, st, pf, pt = row
            return ConvSpec(in_ch=i, out_ch=o, kernel_f=kf, kernel_t=kt,
                            stride_f=sf, stride_t=st, pad_f=pf, pad_t=pt,
                            transposed=transposed)

        df = d["df"]
        return cls(
            stft=stft,
            enc_specs=tuple(conv(r, False) for r in d["enc"]),
            dec_specs=tuple(conv(r, True) for r in d["dec"]),
            df_spec=ConvSpec(in_ch=df[0], out_ch=df[1], kernel_f=df[2],
                             kernel_t=df[3], pad_f=df[4], pad_t=df[5]),
            lstm_hidden=d["lstm_hidden"],
            clstm_hidden=d["clstm_hidden"],
            clstm_layers=d["clstm_layers"],
            activation=d["activation"],
            df_wiring=d["df_wiring"],
        )

    def config_hash(self):
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


@dataclass
class WeightStore:
    tensors: OrderedDict
    meta: dict = field(default_factory=dict)

    def __getitem__(self, name):
        return self.tensors[name]


@dataclass
class MaskSpec:
    re: np.ndarray
    im: np.ndarray


def count_params(store: WeightStore) -> int:
    return int(sum(t.size for t in store.tensors.values()))


# ---- weight initialization ----------------------------------------------


def _uniform(rng, shape, fan_in):
    # float32 so the weight-file round trip is bit-exact
    k = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-k, k, size=shape).astype(np.float32)


def _init_lstm(rng, tensors, prefix, input_dim, hidden, bidirectional):
    suffixes = [""] if not bidirectional else ["", "_rev"]
    for suf in suffixes:
        tensors[f"{prefix}.w_ih{suf}"] = _uniform(rng, (4 * hidden, input_dim), input_dim)
        tensors[f"{prefix}.w_hh{suf}"] = _uniform(rng, (4 * hidden, hidden), hidden)
        b_ih = _uniform(rng, (4 * hidden,), hidden)
        b_ih[hidden:2 * hidden] += 1.0  # forget-gate bias
        tensors[f"{prefix}.b_ih{suf}"] = b_ih
        tensors[f"{prefix}.b_hh{suf}"] = _uniform(rng, (4 * hidden,), hidden)


def _init_conv(rng, tensors, name, s: ConvSpec, prelu):
    fan = s.in_ch * s.kernel_t * s.kernel_f
    shape = (s.out_ch, s.in_ch, s.kernel_t, s.kernel_f)
    tensors[f"{name}.kr"] = _uniform(rng, shape, fan)
    tensors[f"{name}.ki"] = _uniform(rng, shape, fan)
    if prelu:
        tensors[f"{name}.alpha_r"] = np.full((s.out_ch, 1, 1), 0.25, dtype=np.float32)
        tensors[f"{name}.alpha_i"] = np.full((s.out_ch, 1, 1), 0.25, dtype=np.float32)


def init_weights(cfg: ModelConfig, seed=None) -> WeightStore:
    """Seeded random weight store matching cfg."""
    rng = np.random.default_rng(cfg.seed if seed is None else seed)
    t = OrderedDict()
    prelu = cfg.activation == "prelu"
    for i, s in enumerate(cfg.enc_specs):
        _init_conv(rng, t, f"enc{i}", s, prelu)
    c = cfg.bottleneck_ch
    h = cfg.lstm_hidden
    for part in ("re", "im"):
        _init_lstm(rng, t, f"ft.{part}.f", c, h, bidirectional=True)
        t[f"ft.{part}.proj_f.w"] = _uniform(rng, (c, 2 * h), 2 * h)
        t[f"ft.{part}.proj_f.b"] = _uniform(rng, (c,), 2 * h)
        _init_lstm(rng, t, f"ft.{part}.t", c, h, bidirectional=False)
        t[f"ft.{part}.proj_t.w"] = _uniform(rng, (c, h), h)
        t[f"ft.{part}.proj_t.b"] = _uniform(rng, (c,), h)
    n_dec = len(cfg.dec_specs)
    for i, s in enumerate(cfg.dec_specs):
        # mirror encoder numbering: dec0 is the last layer, which is linear
        _init_conv(rng, t, f"dec{n_dec - 1 - i}", s, prelu and i < n_dec - 1)
    _init_conv(rng, t, "df", cfg.df_spec, False)
    d = cfg.n_bins
    ch = cfg.clstm_hidden
    for i in range(cfg.clstm_layers):
        _init_lstm(rng, t, f"clstm{i}.r", d, ch, bidirectional=False)
        _init_lstm(rng, t, f"clstm{i}.i", d, ch, bidirectional=False)
        t[f"clstm{i}.proj.pr"] = _uniform(rng, (d, ch), ch)
        t[f"clstm{i}.proj.pi"] = _uniform(rng, (d, ch), ch)
        t[f"clstm{i}.proj.br"] = _uniform(rng, (d,), ch)
        t[f"clstm{i}.proj.bi"] = _uniform(rng, (d,), ch)
    meta = {"config": cfg.to_dict(), "config_hash": cfg.config_hash(),
            "format_version": 1}
    return WeightStore(t, meta)


# config hash -> {name: shape}; the shapes do not depend on the seed
_EXPECTED_SHAPES = {}


def expected_tensor_shapes(cfg: ModelConfig):
    """Name -> shape map implied by cfg (via a seeded dry init, once per config)."""
    key = cfg.config_hash()
    if key not in _EXPECTED_SHAPES:
        ref = init_weights(cfg, seed=0)
        _EXPECTED_SHAPES[key] = {k: v.shape for k, v in ref.tensors.items()}
    return dict(_EXPECTED_SHAPES[key])


def validate_store(store: WeightStore, cfg: ModelConfig):
    expected = expected_tensor_shapes(cfg)
    for name, shape in expected.items():
        if name not in store.tensors:
            raise WeightError(f"missing tensor {name}")
        if tuple(store.tensors[name].shape) != tuple(shape):
            raise WeightError(
                f"{name}: shape {store.tensors[name].shape} != {shape}")
    extra = set(store.tensors) - set(expected)
    if extra:
        raise WeightError(f"unexpected tensors: {sorted(extra)}")


# ---- parameter bundling --------------------------------------------------


def _lstm_spec(params, prefix, input_dim, hidden, bidirectional):
    names = ["w_ih", "w_hh", "b_ih", "b_hh"]
    if bidirectional:
        names += [n + "_rev" for n in list(names)]
    weights = {n: params[f"{prefix}.{n}"] for n in names}
    return LstmSpec(input_dim, hidden, bidirectional, weights)


def _ft_params(params, cfg: ModelConfig):
    """The F-T-LSTM block's (real part, imaginary part) parameters."""
    c, h = cfg.bottleneck_ch, cfg.lstm_hidden
    return [FtLstmParams(
        f_spec=_lstm_spec(params, f"ft.{part}.f", c, h, True),
        t_spec=_lstm_spec(params, f"ft.{part}.t", c, h, False),
        proj_f_w=params[f"ft.{part}.proj_f.w"],
        proj_f_b=params[f"ft.{part}.proj_f.b"],
        proj_t_w=params[f"ft.{part}.proj_t.w"],
        proj_t_b=params[f"ft.{part}.proj_t.b"],
    ) for part in ("re", "im")]


def _clstm_params(params, cfg: ModelConfig):
    d, h = cfg.n_bins, cfg.clstm_hidden
    return [ComplexLstmParams(
        spec_r=_lstm_spec(params, f"clstm{i}.r", d, h, False),
        spec_i=_lstm_spec(params, f"clstm{i}.i", d, h, False),
        proj_pr=params[f"clstm{i}.proj.pr"],
        proj_pi=params[f"clstm{i}.proj.pi"],
        proj_br=params[f"clstm{i}.proj.br"],
        proj_bi=params[f"clstm{i}.proj.bi"],
    ) for i in range(cfg.clstm_layers)]


def _finite_check(where, arrays):
    if not all(np.isfinite(value(a)).all() for a in arrays):
        raise NumericError(f"non-finite values {where}")


def _check_layer(name, pair):
    _finite_check(f"after layer {name}", (pair.re, pair.im))


def _leaves(states):
    """The arrays in a nest of state tuples and lists."""
    if isinstance(states, (tuple, list)):
        return [a for s in states for a in _leaves(s)]
    return [] if states is None else [states]


# ---- the network -----------------------------------------------------------
#
# The convolutions are frame-local, the T-LSTM and the cLSTM carry state and
# the deep filter looks one frame ahead, so the network is two stages over a
# block of T >= 1 frames of B sequences, with explicit carried state.
# `StreamingSession` runs them once per block (each hop's frame, or all the
# frames of an offline `forward`) and training once over a batch.  The
# frames of the B sequences share one axis, sequence by sequence:
# (C, B*T, F).  Kernels are called through this module's names so that
# profilers can patch them here.


def _no_note(name, pair):
    return None


def _conv_layer(conv, w, params, name, spec, prelu):
    w = conv(w, ComplexPair(params[f"{name}.kr"], params[f"{name}.ki"]), spec)
    if prelu:
        w = ComplexPair(activation(w.re, "prelu", params[f"{name}.alpha_r"]),
                        activation(w.im, "prelu", params[f"{name}.alpha_i"]))
    return w


def encode_stage(w: ComplexPair, b, params, cfg: ModelConfig, t_states=None,
                 note=_no_note):
    """Encoder, F-T-LSTM and decoder.

    w: (2, B*T, F), the stacked (mic, far-end) spectra of B sequences.
    Returns the decoder output (1, B*T, F) and the T-LSTM states after the
    block.  note(name, pair) sees every layer's output.
    """
    prelu = cfg.activation == "prelu"
    for i, spec in enumerate(cfg.enc_specs):
        w = _conv_layer(complex_conv2d, w, params, f"enc{i}", spec, prelu)
        note(f"enc{i}", w)

    c, n, f = w.shape
    h = ComplexPair(*(x.reshape(c, b, n // b, f).transpose(0, 3, 1, 2)
                      for x in (w.re, w.im)))  # (C, F, B, T)
    h, t_states = ft_lstm_block(h, *_ft_params(params, cfg), t_states)
    w = ComplexPair(*(x.transpose(0, 2, 3, 1).reshape(c, n, f) for x in (h.re, h.im)))
    note("ft_lstm", w)

    n_dec = len(cfg.dec_specs)
    for i, spec in enumerate(cfg.dec_specs):
        j = n_dec - 1 - i  # mirror encoder numbering: dec0 is the last layer
        w = _conv_layer(complex_deconv2d, w, params, f"dec{j}", spec,
                        prelu and i < n_dec - 1)  # final deconv is linear
        note(f"dec{j}", w)
    return w, t_states


def mask_stage(dec: ComplexPair, mic: ComplexPair, b, params, cfg: ModelConfig,
               states=None, note=_no_note):
    """Deep filter and cLSTM layers.

    dec, mic: the decoder output and the mic spectrum, (1, B*(T+2), F): each
    sequence's block of T frames with one frame of time context either side
    (zeros outside the signal).  Returns the mask, (T, F) for one sequence
    or (T, B, F), and the cLSTM states after the block.
    """
    target = {"decoder": dec, "input": mic}.get(cfg.df_wiring)
    if target is None:
        raise ValueError(f"unknown df_wiring {cfg.df_wiring!r}")
    # the context frames take the place of the time padding
    spec = replace(cfg.df_spec, pad_t=0)
    coef = complex_conv2d(dec, ComplexPair(params["df.kr"], params["df.ki"]), spec)
    note("df_coef", coef)
    m = deep_filter_apply(coef, target)
    note("deep_filter", m)

    # keep the frames centred on a block, time-major; between two sequences
    # the two frames centred on context are dropped
    f = dec.shape[2]
    t = dec.shape[1] // b - 2
    keep = ((t + 2) * np.arange(b) + np.arange(t)[:, None]).reshape(-1)
    shape = (t, f) if b == 1 else (t, b, f)
    m = ComplexPair(m.re[0, keep].reshape(shape), m.im[0, keep].reshape(shape))
    states = list(states or [None] * cfg.clstm_layers)
    for i, layer in enumerate(_clstm_params(params, cfg)):
        m, states[i] = complex_lstm(m, layer, states[i])
        note(f"clstm{i}", m)
    return m, states


def _framed(x: ComplexPair, b):
    """(C, B*T, F) -> (C, B*(T+2), F): a zero frame either side of each of the
    B sequences."""
    c, n, f = x.shape
    return ComplexPair(*(pad(v.reshape(c, b, n // b, f), ((0, 0), (0, 0), (1, 1), (0, 0)))
                         .reshape(c, -1, f) for v in (x.re, x.im)))


def batch_mask_graph(y_specs, x_specs, params, cfg: ModelConfig, note=_no_note):
    """Masks of B equal-length sequences in one graph: (T, F) for one, else
    (T, B, F).  Every stage runs once over all frames of all sequences, in
    the spectra's dtype."""
    b, t = len(y_specs), y_specs[0].n_frames
    if any(sp.n_frames != t for sp in (*y_specs, *x_specs)):
        raise ValueError("sequences must have equal length")

    def frames(specs, part):  # (B*T, F)
        return np.concatenate([getattr(sp, part) for sp in specs])

    w = ComplexPair(np.stack([frames(y_specs, "re"), frames(x_specs, "re")]),
                    np.stack([frames(y_specs, "im"), frames(x_specs, "im")]))
    note("input", w)
    dec, _ = encode_stage(w, b, params, cfg, note=note)
    mic = ComplexPair(w.re[:1], w.im[:1])
    m, _ = mask_stage(_framed(dec, b), _framed(mic, b), b, params, cfg, note=note)
    return m


def params_as_vars(store: WeightStore, dtype=np.float64):
    """Tensors as Vars, for gradient work."""
    return {k: as_var(np.asarray(v, dtype=dtype)) for k, v in store.tensors.items()}


def inference_params(store: WeightStore):
    """Tensors as float32 arrays for inference under no_grad.

    Only the recurrent weights w_hh are copied, into Fortran order, so that
    every LSTM step multiplies by a C-order view of w_hh^T; the other gemms
    read transposed views of the store's own arrays.
    """
    out = {}
    for name, t in store.tensors.items():
        t = np.asarray(t, dtype=np.float32)
        out[name] = np.asfortranarray(t) if name.endswith((".w_hh", ".w_hh_rev")) else t
    return out


def apply_mask(y: ComplexSpec, m: MaskSpec) -> ComplexSpec:
    """S_hat = Y * M (complex multiply; equals magnitude product / phase sum)."""
    if y.re.shape != m.re.shape:
        raise ValueError("mask/spectrum shape mismatch")
    re = y.re * m.re - y.im * m.im
    im = y.re * m.im + y.im * m.re
    return ComplexSpec(re, im, y.cfg)


def ideal_crm(y: ComplexSpec, s: ComplexSpec, eps=1e-12) -> MaskSpec:
    """Complex ratio mask S/Y with an eps-guarded denominator."""
    if y.re.shape != s.re.shape:
        raise ValueError("shape mismatch")
    den = y.re ** 2 + y.im ** 2 + eps
    return MaskSpec((y.re * s.re + y.im * s.im) / den,
                    (y.re * s.im - y.im * s.re) / den)


def _clamp_mask(re, im):
    """The mask with every bin's magnitude limited to MASK_CLAMP, and the
    number of bins that were limited."""
    mag = np.hypot(re, im)
    over = mag > MASK_CLAMP
    n = int(over.sum())
    if n:
        scale = np.ones_like(mag)
        scale[over] = MASK_CLAMP / mag[over]
        re = re * scale
        im = im * scale
    return re, im, n


def forward(y: AudioBuffer, x: AudioBuffer, store: WeightStore, cfg: ModelConfig,
            report=None):
    """Offline inference: (mic, farend) -> (mask, estimated near-end signal).

    A StreamingSession fed the whole signal at once and finished, so offline
    and streaming output come from the same code.  report: optional dict that
    receives mask_clamped_bins, the number of mask bins whose magnitude was
    limited to MASK_CLAMP.
    """
    sess = StreamingSession(store, cfg)
    for buf in (y, x):
        if buf.sample_rate != cfg.stft.sample_rate:
            raise SampleRateError(
                f"sample rate {buf.sample_rate} != configured {cfg.stft.sample_rate}")
    sess.n_fed = max(len(y), len(x))  # the shorter input is zero-padded
    sess.pending = np.stack([np.pad(b.samples, (0, sess.n_fed - len(b))) for b in (y, x)])
    m_re, m_im, s_hat = sess._finish()
    if report is not None:
        report["mask_clamped_bins"] = sess.mask_clamped_bins
    return MaskSpec(m_re, m_im), AudioBuffer(s_hat, cfg.stft.sample_rate)


# ---- streaming -----------------------------------------------------------


class StreamingSession:
    """Frame-by-frame inference with carried recurrent state.

    Feed 160-sample chunks of the microphone and far-end signals; output
    chunks appear after the algorithmic latency of win_len + hop samples
    (analysis window plus one frame of deep-filter lookahead).  Every call
    runs one block (`_run`): the whole frames of the pending samples go
    through the network's two stages at once.  Between blocks the session
    carries the T-LSTM and cLSTM states, the deep filter's context (the last
    two frames' spectra and decoder outputs) and the overlap-add tail, so
    memory stays flat.  `feed` runs one hop, `flush` the zero-padded tail and
    offline `forward` the whole signal as one block.  A block's layer outputs
    and carried states are checked for finiteness before the session takes
    them on.
    """

    def __init__(self, store: WeightStore, cfg: ModelConfig):
        validate_store(store, cfg)
        self.cfg = cfg
        self.params = inference_params(store)
        self.hop = cfg.stft.hop
        self.win = cfg.stft.win_len
        self.pending = np.zeros((2, 0))  # (mic, far-end) samples not yet framed
        self.n_fed = 0
        self.t_states = None
        self.clstm_states = None
        # (mic spectrum, decoder output) of the last frame, which waits for its
        # lookahead, and of the frame before it; one zero frame before the signal
        self.context = np.zeros((2, 1, cfg.n_bins), dtype=np.complex128)
        self.tail = np.zeros(self.win - self.hop)  # overlap-add tail
        self.done = False
        # counters: frames masked and emitted, and their mask bins whose
        # magnitude was limited to MASK_CLAMP
        self.frames = 0
        self.mask_clamped_bins = 0

    @property
    def algorithmic_latency(self):
        return self.win + self.hop

    def _analysis(self, samples):
        """(mic, far-end) spectra (2, T, F) of every whole frame of (2, n) samples."""
        t = max((samples.shape[1] - self.win) // self.hop + 1, 0)
        whole = samples[:, :(t - 1) * self.hop + self.win if t else 0]
        return np.fft.rfft(frame_signal(whole, self.cfg.stft), n=self.cfg.stft.fft_size)

    def _mask_frame(self, frames):
        """Masks (M, F) of the centre frames of (mic, dec) frames (2, M+2, F),
        and the cLSTM states after them."""
        re, im = frames.real.astype(np.float32), frames.imag.astype(np.float32)
        with no_grad():
            m, states = mask_stage(ComplexPair(re[1:], im[1:]), ComplexPair(re[:1], im[:1]),
                                   1, self.params, self.cfg, self.clstm_states,
                                   note=_check_layer)
        _finite_check("in the cLSTM states", _leaves(states))
        return m.re, m.im, states

    def _run(self, samples, last):
        """Run every whole frame of (2, n) samples as one block; with last, the
        frame after them is the zero lookahead past the signal.

        Returns the block's clamped mask (M, F) and its finished samples.  The
        session takes on the block's state only once all of it has passed its
        checks.
        """
        if not np.all(np.isfinite(samples)):
            raise NumericError("non-finite values in the input")
        spec = self._analysis(samples)
        t = spec.shape[1]
        frames, t_states = [self.context], self.t_states
        if t:
            # single precision through the network: ~4x faster on typical CPUs
            # and well inside the mask's accuracy needs; synthesis stays double
            with no_grad():
                dec, t_states = encode_stage(
                    ComplexPair(spec.real.astype(np.float32), spec.imag.astype(np.float32)),
                    1, self.params, self.cfg, self.t_states, note=_check_layer)
            _finite_check("in the T-LSTM states", _leaves(t_states))
            frames.append(np.stack([spec[0], dec.re[0] + 1j * dec.im[0]]))
        if last:
            frames.append(np.zeros_like(self.context[:, :1]))
        frames = np.concatenate(frames, axis=1)
        # a frame is masked once a frame follows it
        mask = self._mask_frame(frames) if frames.shape[1] > 2 else None
        self.pending, self.t_states = samples[:, t * self.hop:], t_states
        self.context = frames[:, -2:]
        if mask is None:
            empty = np.zeros((0, self.cfg.n_bins), dtype=np.float32)
            return empty, empty, np.zeros(0)
        return self._emit(mask, frames[0, 1:-1], last)

    def _emit(self, mask, mic, last):
        """Mask the mic spectra (M, F), synthesise them and overlap-add the
        carried tail; returns the clamped mask and the finished samples: M
        hops, or all of them with last."""
        m_re, m_im, self.clstm_states = mask
        m_re, m_im, clamped = _clamp_mask(m_re, m_im)
        self.frames += len(m_re)
        self.mask_clamped_bins += clamped
        y = ComplexSpec(mic.real, mic.imag, self.cfg.stft)
        s = istft(apply_mask(y, MaskSpec(m_re, m_im))).samples
        s[:len(self.tail)] += self.tail
        if last:
            return m_re, m_im, s
        n = len(m_re) * self.hop
        self.tail = s[n:]
        # a copy: a view would keep all of s alive for a caller keeping chunks
        return m_re, m_im, s[:n].copy()

    def feed(self, y_chunk, x_chunk):
        """Feed aligned hop-sized (160-sample) chunks; returns output samples.

        The chunk runs as one block, as `forward` runs a whole signal: a chunk
        with a non-finite sample, or one whose frame turns non-finite inside
        the network, raises NumericError and leaves the session as it was.
        """
        y_chunk = np.asarray(y_chunk, dtype=np.float64).reshape(-1)
        x_chunk = np.asarray(x_chunk, dtype=np.float64).reshape(-1)
        if self.done:
            raise RuntimeError("session already flushed")
        if len(y_chunk) != self.hop or len(x_chunk) != self.hop:
            raise ValueError(f"chunks must be {self.hop} samples")
        out = self._run(np.concatenate([self.pending, np.stack([y_chunk, x_chunk])], axis=1),
                        last=False)[2]
        self.n_fed += self.hop
        return out

    def flush(self):
        """Complete the tail; returns the remaining output samples."""
        if self.done:
            return np.zeros(0)
        return self._finish()[2]

    def _finish(self):
        """Zero-pad the pending samples to the signal's last frame and run them
        as the last block."""
        self.done = True
        need = (self.cfg.stft.n_frames(self.n_fed) - 1) * self.hop + self.win - self.n_fed
        # replaced, not kept beside its padded copy: offline, it is the whole signal
        self.pending = np.pad(self.pending, ((0, 0), (0, need)))
        return self._run(self.pending, last=True)
