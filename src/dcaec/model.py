"""Network assembly: configuration, weight store, offline and streaming inference.

The pipeline stacks the microphone and far-end spectra as two complex input
channels, runs a complex conv encoder, the frequency-time recurrence block,
a complex deconv decoder, the deep filter and two complex LSTM layers, and
produces a complex mask that multiplies the microphone spectrum.  The
network is wired once, as two stages over blocks of frames (see
`encode_stage` and `mask_stage`), for offline, streaming and training use.
Inference runs one way: offline `forward` is a `StreamingSession` fed the
signal in blocks of BLOCK_FRAMES frames.
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
from .nn import (ComplexPair, ConvSpec, FtLstmParams, complex_conv2d, complex_deconv2d,
                 complex_lstm, deep_filter_apply, ft_lstm_block)
# the activation after each conv, under the name perfbench/tracing.py patches
from .nn import prelu as activation


class NumericError(RuntimeError):
    """Non-finite value detected inside the network."""


class WeightError(ValueError):
    """Weight store inconsistent with the model configuration."""


MASK_CLAMP = 100.0
CRM_EPS = 1e-12  # what ideal_crm adds to its denominator |Y|^2
BLOCK_FRAMES = 16  # hops per block of an offline `forward`: its memory is set by the block


def _conv_row(s: ConvSpec):
    return [s.in_ch, s.out_ch, s.kernel_f, s.kernel_t, s.stride_f, s.stride_t, s.pad_f, s.pad_t]


def _json(x):
    return json.dumps(x, sort_keys=True)


@dataclass
class ModelConfig:
    """The paper's network at the given widths.

    The topology is fixed: a frame-local complex conv encoder (2 -> c1
    channels, kernel 5 and stride 2 over frequency; c1 -> c2, kernel 3), the
    F-T-LSTM at the bottleneck, a mirrored deconv decoder down to one
    channel, a deep filter whose 3 x 3 taps span one bin and one frame
    either way, and clstm_layers complex LSTMs; a PReLU follows every conv
    but the last decoder layer (see _conv_stack).  Only the STFT sizes, the
    widths, the deep filter's wiring and the seed vary; the layer specs are
    built from them once per config (derive a config with dataclasses.replace).
    """

    stft: StftConfig = field(default_factory=StftConfig)
    channels: tuple = (32, 96)  # encoder output channels (c1, c2)
    lstm_hidden: int = 128
    clstm_hidden: int = 128
    clstm_layers: int = 2
    df_wiring: str = "decoder"  # "decoder" or "input": what the taps filter
    seed: int = 0

    def __post_init__(self):
        c1, c2 = self.channels
        self.enc_specs = (ConvSpec(in_ch=2, out_ch=c1, kernel_f=5, stride_f=2),
                          ConvSpec(in_ch=c1, out_ch=c2, kernel_f=3, pad_f=1))
        self.dec_specs = (ConvSpec(in_ch=c2, out_ch=c1, kernel_f=3, pad_f=1, transposed=True),
                          ConvSpec(in_ch=c1, out_ch=1, kernel_f=5, stride_f=2, transposed=True))
        self.df_spec = ConvSpec(in_ch=1, out_ch=9, kernel_f=3, kernel_t=3, pad_f=1, pad_t=1)
        self.bottleneck_ch = c2

    @classmethod
    def paper_mode(cls, seed=0, df_wiring="decoder"):
        return cls(df_wiring=df_wiring, seed=seed)

    @classmethod
    def desk_mode(cls, seed=0, df_wiring="decoder"):
        """Small configuration for fast desk-scale training experiments."""
        return cls(channels=(4, 8), lstm_hidden=16, clstm_hidden=32, clstm_layers=1,
                   df_wiring=df_wiring, seed=seed)

    @property
    def n_bins(self):
        return self.stft.n_bins

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
            "activation": "prelu",  # fixed; written so hashes stay the same
            "df_wiring": self.df_wiring,
            "input_order": "complex channels (mic, farend)",
        }

    @classmethod
    def from_dict(cls, d):
        """The config d describes; ValueError unless to_dict gives d back exactly."""
        try:
            s = d["stft"]
            cfg = cls(StftConfig(*(int(s[k]) for k in ("win_len", "hop", "fft_size",
                                                        "sample_rate"))),
                      (int(d["enc"][0][1]), int(d["enc"][1][1])),
                      *(int(d[k]) for k in ("lstm_hidden", "clstm_hidden", "clstm_layers")),
                      d["df_wiring"])
        except KeyError as e:
            raise ValueError(f"model config lacks key {e}") from None
        except (IndexError, TypeError, ValueError) as e:
            raise ValueError(f"malformed model config: {e}") from None
        back = cfg.to_dict()
        differ = sorted(k for k in back.keys() | d.keys() if _json(back.get(k)) != _json(d.get(k)))
        if differ:
            raise ValueError(
                f"model config differs in {differ} from this network: frame-local encoder "
                "and decoder, a deep filter that spans one frame either way, PReLU activation")
        return cfg

    def config_hash(self):
        return hashlib.sha256(_json(self.to_dict()).encode()).hexdigest()[:16]


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


def _lstm_layout(prefix, input_dim, hidden, bidirectional):
    for suf in ("", "_rev") if bidirectional else ("",):
        yield f"{prefix}.w_ih{suf}", (4 * hidden, input_dim), input_dim
        yield f"{prefix}.w_hh{suf}", (4 * hidden, hidden), hidden
        yield f"{prefix}.b_ih{suf}", (4 * hidden,), hidden   # forget gate offset by +1
        yield f"{prefix}.b_hh{suf}", (4 * hidden,), hidden


def _conv_layout(name, s: ConvSpec, prelu):
    fan = s.in_ch * s.kernel_t * s.kernel_f
    shape = (s.out_ch, s.in_ch, s.kernel_t, s.kernel_f)
    yield f"{name}.kr", shape, fan
    yield f"{name}.ki", shape, fan
    if prelu:
        yield f"{name}.alpha_r", (s.out_ch, 1, 1), None
        yield f"{name}.alpha_i", (s.out_ch, 1, 1), None


def _conv_stack(cfg: ModelConfig, decoder):
    """(name, spec, prelu) of the encoder's or the decoder's layers, in network
    order.  The decoder mirrors the encoder's numbering, so dec0 is the last
    layer; it is linear, and every other layer ends in a PReLU."""
    specs = cfg.dec_specs if decoder else cfg.enc_specs
    names = [f"dec{len(specs) - 1 - i}" if decoder else f"enc{i}" for i in range(len(specs))]
    return [(name, s, name != "dec0") for name, s in zip(names, specs)]


def tensor_layout(cfg: ModelConfig):
    """(name, shape, fan_in) of every stored tensor, in the order init_weights
    draws them; fan_in is None for a PReLU slope, which draws nothing."""
    for name, s, prelu in _conv_stack(cfg, decoder=False):
        yield from _conv_layout(name, s, prelu)
    c, h = cfg.bottleneck_ch, cfg.lstm_hidden
    for part in ("re", "im"):
        yield from _lstm_layout(f"ft.{part}.f", c, h, bidirectional=True)
        yield f"ft.{part}.proj_f.w", (c, 2 * h), 2 * h
        yield f"ft.{part}.proj_f.b", (c,), 2 * h
        yield from _lstm_layout(f"ft.{part}.t", c, h, bidirectional=False)
        yield f"ft.{part}.proj_t.w", (c, h), h
        yield f"ft.{part}.proj_t.b", (c,), h
    for name, s, prelu in _conv_stack(cfg, decoder=True):
        yield from _conv_layout(name, s, prelu)
    yield from _conv_layout("df", cfg.df_spec, False)
    d, ch = cfg.n_bins, cfg.clstm_hidden
    for i in range(cfg.clstm_layers):
        yield from _lstm_layout(f"clstm{i}.r", d, ch, bidirectional=False)
        yield from _lstm_layout(f"clstm{i}.i", d, ch, bidirectional=False)
        for w, shape in (("pr", (d, ch)), ("pi", (d, ch)), ("br", (d,)), ("bi", (d,))):
            yield f"clstm{i}.proj.{w}", shape, ch


def init_weights(cfg: ModelConfig, seed=None) -> WeightStore:
    """Seeded random weight store matching cfg: U(-1/sqrt(fan_in),
    1/sqrt(fan_in)) draws in float32, so the weight-file round trip is
    bit-exact, with every LSTM's forget-gate b_ih offset by +1, and PReLU
    slopes of 0.25."""
    rng = np.random.default_rng(cfg.seed if seed is None else seed)
    t = OrderedDict()
    for name, shape, fan in tensor_layout(cfg):
        if fan is None:
            t[name] = np.full(shape, 0.25, dtype=np.float32)
            continue
        k = 1.0 / np.sqrt(fan)
        t[name] = rng.uniform(-k, k, size=shape).astype(np.float32)
        if ".b_ih" in name:
            t[name][shape[0] // 4:shape[0] // 2] += 1.0
    meta = {"config": cfg.to_dict(), "config_hash": cfg.config_hash(),
            "format_version": 1}
    return WeightStore(t, meta)


def expected_tensor_shapes(cfg: ModelConfig):
    """Name -> shape map implied by cfg, read from tensor_layout (no draws)."""
    return {name: shape for name, shape, _ in tensor_layout(cfg)}


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


# ---- kernel operands -----------------------------------------------------


def _cell(params, name, reverse=False):
    """The stored tensors of one LSTM recurrence, as nn.lstm_operand reads them."""
    suf = "_rev" if reverse else ""
    return (*(params[f"{name}.{w}{suf}"] for w in ("w_ih", "w_hh", "b_ih", "b_hh")), reverse)


def layer_operands(params, cfg: ModelConfig):
    """Every layer's kernel operands, built from the stored tensors by nn's
    preparers: each conv layer's block weight and PReLU slopes (or None), the
    F-T-LSTM's FtLstmParams and each cLSTM layer's (recurrences, projection).

    Inference builds them once per session, on arrays; training once per
    step, on the parameter Vars, so that gradients reach the stored tensors.
    """
    p, ops = params, {}
    convs = _conv_stack(cfg, decoder=False) + _conv_stack(cfg, decoder=True)
    for name, spec, prelu in convs + [("df", cfg.df_spec, False)]:
        ops[name] = (nn.conv_operand(p[f"{name}.kr"], p[f"{name}.ki"], spec.transposed),
                     (p[f"{name}.alpha_r"], p[f"{name}.alpha_i"]) if prelu else None)
    parts = ("ft.re", "ft.im")
    ops["ft"] = FtLstmParams(
        nn.lstm_operand([_cell(p, f"{q}.f", rev) for q in parts for rev in (False, True)]),
        [nn.linear_operand(p[f"{q}.proj_f.w"], p[f"{q}.proj_f.b"]) for q in parts],
        [nn.lstm_operand([_cell(p, f"{q}.t")]) for q in parts],
        [nn.linear_operand(p[f"{q}.proj_t.w"], p[f"{q}.proj_t.b"]) for q in parts])
    for i in range(cfg.clstm_layers):
        q = f"clstm{i}"
        proj = (p[f"{q}.proj.{w}"] for w in ("pr", "pi", "br", "bi"))
        ops[q] = (nn.lstm_operand([_cell(p, f"{q}.{w}") for w in "ri"]),
                  nn.complex_linear_operand(*proj))
    return ops


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
# `StreamingSession` runs them once per block (each hop's frame, or up to
# BLOCK_FRAMES frames of an offline `forward`) and training once over a
# batch.  The frames of the B sequences share one axis, sequence by sequence:
# (C, B*T, F).  Kernels are called through this module's names so that
# profilers can patch them here.


def _no_note(name, pair):
    return None


def _conv_layer(conv, w, op, spec):
    k, alphas = op
    w = conv(w, k, spec)
    if alphas:
        w = ComplexPair(activation(w.re, alphas[0]), activation(w.im, alphas[1]))
    return w


def encode_stage(w: ComplexPair, b, ops, cfg: ModelConfig, t_states=None,
                 note=_no_note):
    """Encoder, F-T-LSTM and decoder.

    w: (2, B*T, F), the stacked (mic, far-end) spectra of B sequences; ops:
    layer_operands.  Returns the decoder output (1, B*T, F) and the T-LSTM
    states after the block.  note(name, pair) sees every layer's output.
    """
    for name, spec, _ in _conv_stack(cfg, decoder=False):
        w = _conv_layer(complex_conv2d, w, ops[name], spec)
        note(name, w)

    c, n, f = w.shape
    h = ComplexPair(*(x.reshape(c, b, n // b, f).transpose(0, 3, 1, 2)
                      for x in (w.re, w.im)))  # (C, F, B, T)
    h, t_states = ft_lstm_block(h, ops["ft"], t_states)
    w = ComplexPair(*(x.transpose(0, 2, 3, 1).reshape(c, n, f) for x in (h.re, h.im)))
    note("ft_lstm", w)

    for name, spec, _ in _conv_stack(cfg, decoder=True):
        w = _conv_layer(complex_deconv2d, w, ops[name], spec)
        note(name, w)
    return w, t_states


def mask_stage(dec: ComplexPair, mic: ComplexPair, b, ops, cfg: ModelConfig,
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
    coef = complex_conv2d(dec, ops["df"][0], spec)
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
    for i in range(cfg.clstm_layers):
        m, states[i] = complex_lstm(m, ops[f"clstm{i}"], states[i])
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
    the parameters' dtype."""
    b, t = len(y_specs), y_specs[0].n_frames
    if any(sp.n_frames != t for sp in (*y_specs, *x_specs)):
        raise ValueError("sequences must have equal length")
    dt = np.result_type(*{value(v).dtype for v in params.values()})

    def stacked(part):  # (2, B*T, F)
        return np.stack([np.concatenate([getattr(sp, part) for sp in specs])
                         for specs in (y_specs, x_specs)]).astype(dt, copy=False)

    w = ComplexPair(stacked("re"), stacked("im"))
    note("input", w)
    ops = layer_operands(params, cfg)
    dec, _ = encode_stage(w, b, ops, cfg, note=note)
    mic = ComplexPair(w.re[:1], w.im[:1])
    m, _ = mask_stage(_framed(dec, b), _framed(mic, b), b, ops, cfg, note=note)
    return m


def params_as_vars(store: WeightStore, dtype=np.float64):
    """Tensors as Vars of dtype, for gradient work."""
    return {k: as_var(np.asarray(v, dtype=dtype)) for k, v in store.tensors.items()}


def apply_mask(y: ComplexSpec, m: MaskSpec) -> ComplexSpec:
    """S_hat = Y * M (complex multiply; equals magnitude product / phase sum)."""
    if y.re.shape != m.re.shape:
        raise ValueError("mask/spectrum shape mismatch")
    re = y.re * m.re - y.im * m.im
    im = y.re * m.im + y.im * m.re
    return ComplexSpec(re, im, y.cfg)


def ideal_crm(y: ComplexSpec, s: ComplexSpec) -> MaskSpec:
    """Complex ratio mask S/Y with a CRM_EPS-guarded denominator."""
    if y.re.shape != s.re.shape:
        raise ValueError("shape mismatch")
    den = y.re ** 2 + y.im ** 2 + CRM_EPS
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

    A StreamingSession fed the signal in blocks of BLOCK_FRAMES hops and
    finished, so offline and streaming output come from the same code, and
    memory beyond the output is set by the block.  report: optional dict that
    receives mask_clamped_bins, the number of mask bins limited to MASK_CLAMP.
    """
    sess = StreamingSession(store, cfg)
    for buf in (y, x):
        if buf.sample_rate != cfg.stft.sample_rate:
            raise SampleRateError(
                f"sample rate {buf.sample_rate} != configured {cfg.stft.sample_rate}")
    n = max(len(y), len(x))  # the shorter input is zero-padded
    step = BLOCK_FRAMES * sess.hop
    blocks = []
    for lo in range(0, max(n, 1), step):  # one block or more; the last takes the rest
        chunk = np.zeros((2, min(step, n - lo)))
        for row, buf in zip(chunk, (y, x)):
            part = buf.samples[lo:lo + step]
            row[:len(part)] = part
        blocks.append(sess._run(chunk, last=lo + step >= n))
    m_re, m_im, s_hat = (np.concatenate(parts) for parts in zip(*blocks))
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
    offline `forward` blocks of BLOCK_FRAMES hops.  A block's layer outputs
    and carried states are checked for finiteness before the session takes
    them on.
    """

    def __init__(self, store: WeightStore, cfg: ModelConfig):
        validate_store(store, cfg)
        self.cfg = cfg
        with no_grad():  # float32 operands, held in place of the weights
            self.ops = layer_operands(
                {k: np.asarray(v, dtype=np.float32) for k, v in store.tensors.items()}, cfg)
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
                                   1, self.ops, self.cfg, self.clstm_states,
                                   note=_check_layer)
        _finite_check("in the cLSTM states", _leaves(states))
        return m.re, m.im, states

    def _run(self, chunk, last):
        """Run the pending samples and the (2, n) chunk after them as one
        block: their whole frames, or with last all of them, zero-padded to
        the signal's last frame and followed by the zero lookahead past it.

        Returns the block's clamped mask (M, F) and its finished samples.  The
        session takes on the block's state only once all of it has passed its
        checks.
        """
        # the pending samples were checked when they arrived
        if not np.all(np.isfinite(chunk)):
            raise NumericError("non-finite values in the input")
        n_fed = self.n_fed + chunk.shape[1]
        samples = np.concatenate([self.pending, chunk], axis=1)
        if last:
            need = (self.cfg.stft.n_frames(n_fed) - 1) * self.hop + self.win - n_fed
            samples = np.pad(samples, ((0, 0), (0, need)))
        spec = self._analysis(samples)
        t = spec.shape[1]
        frames, t_states = [self.context], self.t_states
        if t:
            # single precision through the network: ~4x faster on typical CPUs
            # and well inside the mask's accuracy needs; synthesis stays double
            with no_grad():
                dec, t_states = encode_stage(
                    ComplexPair(spec.real.astype(np.float32), spec.imag.astype(np.float32)),
                    1, self.ops, self.cfg, self.t_states, note=_check_layer)
            _finite_check("in the T-LSTM states", _leaves(t_states))
            frames.append(np.stack([spec[0], dec.re[0] + 1j * dec.im[0]]))
        if last:
            frames.append(np.zeros_like(self.context[:, :1]))
        frames = np.concatenate(frames, axis=1)
        # a frame is masked once a frame follows it
        mask = self._mask_frame(frames) if frames.shape[1] > 2 else None
        self.pending, self.n_fed, self.done = samples[:, t * self.hop:], n_fed, last
        self.t_states, self.context = t_states, frames[:, -2:]
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

        The chunk runs as one block, as `forward` runs its blocks: a chunk
        with a non-finite sample, or one whose frame turns non-finite inside
        the network, raises NumericError and leaves the session as it was.
        """
        y_chunk = np.asarray(y_chunk, dtype=np.float64).reshape(-1)
        x_chunk = np.asarray(x_chunk, dtype=np.float64).reshape(-1)
        if self.done:
            raise RuntimeError("session already flushed")
        if len(y_chunk) != self.hop or len(x_chunk) != self.hop:
            raise ValueError(f"chunks must be {self.hop} samples")
        return self._run(np.stack([y_chunk, x_chunk]), last=False)[2]

    def flush(self):
        """Complete the tail; returns the remaining output samples.

        A block refused by `feed` or by `flush` raises NumericError and leaves
        the session as it was, so a refused flush can be retried.
        """
        if self.done:
            return np.zeros(0)
        return self._run(np.zeros((2, 0)), last=True)[2]
