"""Finite-difference validation of every differentiable kernel.

Each check builds a scalar loss from a kernel output via a fixed random
projection, computes reverse-mode gradients, and compares them against
`training.finite_diff`'s central differences in float64.  The recurrent
checks and the composed model loss run on SMALL, the paper's topology at
toy widths, with weights named and shaped by `model` and operands built,
as in inference and training, by `model.layer_operands`.  The
composed loss is checked on sampled parameter entries (full differencing
over every entry would be needlessly slow without adding coverage).
"""

import numpy as np

from .autodiff import as_var, concat
from .dsp import AudioBuffer, StftConfig
from .metrics import ChunkPlan, seg_sisnr, si_snr
from .model import ModelConfig, init_weights, layer_operands
from .nn import (ComplexPair, ConvSpec, complex_conv2d, complex_deconv2d, complex_lstm,
                 conv_operand, deep_filter_apply, ft_lstm_block, lstm_group, lstm_seq,
                 prelu)
from .training import backward, example_loss, finite_diff, rel_error

# 17 bins -> 7 at the bottleneck -> 17
SMALL = ModelConfig(StftConfig(32, 16, 32), (2, 2), 2, 2, 1)
# the tensors a check does not vary
_FIXED = {k: v.astype(np.float64) for k, v in init_weights(SMALL, seed=0).tensors.items()}


def _project(pair, r1, r2):
    return (pair.re * r1).sum() + (pair.im * r2).sum()


def _check(build_loss, arrays, h=1e-3):
    params = {k: as_var(v) for k, v in arrays.items()}
    grads = backward(build_loss(params), params)

    def f():
        return float(build_loss({k: as_var(v) for k, v in arrays.items()}).data)

    fd = finite_diff(f, arrays, h=h)
    return max(rel_error(grads[k], fd[k]) for k in arrays)


def _small_weights(rng, prefix):
    """0.4 N(0, 1) weights for SMALL's tensors whose names start with prefix."""
    return {k: 0.4 * rng.normal(size=v.shape)
            for k, v in _FIXED.items() if k.startswith(prefix)}


def _operands(p):
    """SMALL's layer_operands, from p's tensors and _FIXED's for the rest."""
    return layer_operands({**_FIXED, **p}, SMALL)


def check_conv(rng, transposed=False):
    spec = ConvSpec(in_ch=2, out_ch=3, kernel_f=3, kernel_t=1, stride_f=2,
                    pad_f=1, transposed=transposed)
    t, f_in = 3, 7
    w_re = rng.normal(size=(2, t, f_in))
    w_im = rng.normal(size=(2, t, f_in))
    k_shape = (3, 2, 1, 3)
    arrays = {"kr": rng.normal(size=k_shape), "ki": rng.normal(size=k_shape),
              "wr": w_re, "wi": w_im}
    f_out = spec.f_out(f_in)
    r1 = rng.normal(size=(3, t, f_out))
    r2 = rng.normal(size=(3, t, f_out))
    op = complex_deconv2d if transposed else complex_conv2d

    def loss(p):
        out = op(ComplexPair(p["wr"], p["wi"]), conv_operand(p["kr"], p["ki"], transposed),
                 spec)
        return _project(out, r1, r2)

    return _check(loss, arrays)


def check_lstm(rng, bidirectional):
    """The F-LSTM (bidirectional) or the T-LSTM of SMALL's real part."""
    s, b, c, h = 4, 2, SMALL.bottleneck_ch, SMALL.lstm_hidden
    arrays = _small_weights(rng, "ft.re.f" if bidirectional else "ft.re.t")
    arrays["x"] = rng.normal(size=(s, b, c))
    r = rng.normal(size=(s, b, h * (2 if bidirectional else 1)))

    def loss(p):
        ft = _operands(p)["ft"]
        if bidirectional:
            # the F-stage group runs the real part's two directions first
            ys, _ = lstm_group([p["x"]] * 4, ft.f, [None] * 4)
            y = concat(ys[:2], axis=2)
        else:
            y, _ = lstm_seq(p["x"], ft.t[0])
        return (y * r).sum()

    return _check(loss, arrays)


def check_ft_lstm(rng):
    c, f, t = SMALL.bottleneck_ch, 3, 3
    arrays = _small_weights(rng, "ft.")
    arrays["hr"] = rng.normal(size=(c, f, t))
    arrays["hi"] = rng.normal(size=(c, f, t))
    r1 = rng.normal(size=(c, f, t))
    r2 = rng.normal(size=(c, f, t))

    def loss(p):
        out, _ = ft_lstm_block(ComplexPair(p["hr"], p["hi"]), _operands(p)["ft"])
        return _project(out, r1, r2)

    return _check(loss, arrays)


def check_complex_lstm(rng):
    t, d = 4, SMALL.n_bins
    arrays = _small_weights(rng, "clstm0.")
    arrays["xr"] = rng.normal(size=(t, d))
    arrays["xi"] = rng.normal(size=(t, d))
    r1 = rng.normal(size=(t, d))
    r2 = rng.normal(size=(t, d))

    def loss(p):
        out, _ = complex_lstm(ComplexPair(p["xr"], p["xi"]), _operands(p)["clstm0"])
        return _project(out, r1, r2)

    return _check(loss, arrays)


def check_deep_filter(rng):
    t, f = 4, 5
    arrays = {"cr": rng.normal(size=(9, t, f)), "ci": rng.normal(size=(9, t, f)),
              "tr": rng.normal(size=(1, t, f)), "ti": rng.normal(size=(1, t, f))}
    r1 = rng.normal(size=(1, t, f))
    r2 = rng.normal(size=(1, t, f))

    def loss(p):
        out = deep_filter_apply(ComplexPair(p["cr"], p["ci"]),
                                ComplexPair(p["tr"], p["ti"]))
        return _project(out, r1, r2)

    return _check(loss, arrays)


def check_prelu(rng):
    # evaluate away from the kink at 0 (|x| = 1 per the contract)
    x = np.where(rng.uniform(size=(3, 4, 5)) < 0.5, -1.0, 1.0) * (
        1.0 + 0.5 * rng.uniform(size=(3, 4, 5)))
    arrays = {"x": x, "alpha": 0.1 + rng.uniform(size=(3, 1, 1))}
    r = rng.normal(size=x.shape)

    def loss(p):
        return (prelu(p["x"], p["alpha"]) * r).sum()

    return _check(loss, arrays, h=1e-4)


def check_si_snr(rng):
    n = 64
    s = rng.normal(size=n)
    arrays = {"sh": s + 0.3 * rng.normal(size=n)}

    def loss(p):
        return si_snr(p["sh"], s) * (-1.0)

    return _check(loss, arrays)


def check_seg_sisnr(rng):
    n = 400
    s = rng.normal(size=n)
    arrays = {"sh": s + 0.3 * rng.normal(size=n)}
    plan = ChunkPlan((1, 4, 8))

    def loss(p):
        return seg_sisnr(p["sh"], s, plan) * (-1.0)

    return _check(loss, arrays)


def check_composed_loss(rng, entries_per_tensor=4, h=1e-5):
    """Sampled finite differences through the whole model + objective.

    The composed objective is much more curved than any single kernel, so a
    smaller step keeps the central-difference truncation error below the
    comparison tolerance (verified by a step-size convergence study).
    """
    store = init_weights(SMALL, seed=int(rng.integers(2 ** 31)))
    arrays = {k: v.astype(np.float64) for k, v in store.tensors.items()}
    n = 8 * SMALL.stft.hop

    class Ex:
        y = AudioBuffer(rng.normal(size=n))
        x = AudioBuffer(rng.normal(size=n))
        s = AudioBuffer(rng.normal(size=n))

    plan = ChunkPlan((1, 2))

    def build(p):
        return example_loss(Ex, p, SMALL, plan)

    params = {k: as_var(v) for k, v in arrays.items()}
    grads = backward(build(params), params)

    def f():
        return float(build({k: as_var(v) for k, v in arrays.items()}).data)

    worst = 0.0
    for name, a in arrays.items():
        flat, ad = a.reshape(-1), grads[name].reshape(-1)
        idx = rng.choice(flat.size, size=min(entries_per_tensor, flat.size),
                         replace=False)
        # 1-element views: differencing them moves the entry in arrays
        fd = finite_diff(f, {i: flat[i:i + 1] for i in idx}, h=h)
        scale = max(np.max(np.abs(ad)), 1e-8)
        worst = max([worst] + [abs(ad[i] - d[0]) / max(abs(d[0]), scale)
                               for i, d in fd.items()])
    return worst


def run_gradient_suite(seed=0):
    """Run every gradient check; returns name -> max relative error."""
    rng = np.random.default_rng(seed)
    return {
        "complex_conv2d": check_conv(rng, transposed=False),
        "complex_deconv2d": check_conv(rng, transposed=True),
        "lstm_uni": check_lstm(rng, bidirectional=False),
        "lstm_bidi": check_lstm(rng, bidirectional=True),
        "ft_lstm_block": check_ft_lstm(rng),
        "complex_lstm": check_complex_lstm(rng),
        "deep_filter": check_deep_filter(rng),
        "prelu": check_prelu(rng),
        "si_snr_loss": check_si_snr(rng),
        "seg_sisnr_loss": check_seg_sisnr(rng),
        "composed_model_loss": check_composed_loss(rng),
    }
