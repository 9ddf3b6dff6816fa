"""Finite-difference validation of every differentiable kernel.

Each check builds a scalar loss from a kernel output via a fixed random
projection, computes reverse-mode gradients, and compares against central
finite differences in float64.  The composed model loss is checked on
sampled parameter entries (full differencing over every entry would be
needlessly slow without adding coverage).
"""

import numpy as np

from .autodiff import as_var
from .dsp import AudioBuffer, StftConfig
from .metrics import ChunkPlan, seg_sisnr, si_snr
from .model import ModelConfig, init_weights
from .nn import (ComplexLstmParams, ComplexPair, ConvSpec, FtLstmParams,
                 LstmSpec, complex_conv2d, complex_deconv2d, complex_lstm,
                 deep_filter_apply, ft_lstm_block, lstm_seq, prelu)
from .training import backward, example_loss, finite_diff, rel_error


def _project(pair, r1, r2):
    return (pair.re * r1).sum() + (pair.im * r2).sum()


def _check(build_loss, arrays, h=1e-3):
    params = {k: as_var(v) for k, v in arrays.items()}
    grads = backward(build_loss(params), params)

    def f():
        return float(build_loss({k: as_var(v) for k, v in arrays.items()}).data)

    fd = finite_diff(f, arrays, h=h)
    return max(rel_error(grads[k], fd[k]) for k in arrays)


def _lstm_weights(rng, i, hdim, bidirectional=False, prefix=""):
    names = ["w_ih", "w_hh", "b_ih", "b_hh"]
    if bidirectional:
        names += [n + "_rev" for n in list(names)]
    shapes = {"w_ih": (4 * hdim, i), "w_hh": (4 * hdim, hdim),
              "b_ih": (4 * hdim,), "b_hh": (4 * hdim,)}
    out = {}
    for n in names:
        base = n[:-4] if n.endswith("_rev") else n
        out[prefix + n] = 0.4 * rng.normal(size=shapes[base])
    return out


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
        out = op(ComplexPair(p["wr"], p["wi"]), ComplexPair(p["kr"], p["ki"]), spec)
        return _project(out, r1, r2)

    return _check(loss, arrays)


def check_lstm(rng, bidirectional):
    s, b, i, hdim = 4, 2, 3, 3
    arrays = _lstm_weights(rng, i, hdim, bidirectional)
    arrays["x"] = rng.normal(size=(s, b, i))
    out_dim = hdim * (2 if bidirectional else 1)
    r = rng.normal(size=(s, b, out_dim))

    def loss(p):
        spec = LstmSpec(i, hdim, bidirectional,
                        {k: v for k, v in p.items() if k != "x"})
        y, _ = lstm_seq(p["x"], spec)
        return (y * r).sum()

    return _check(loss, arrays)


def check_ft_lstm(rng):
    c, f, t, hdim = 2, 3, 3, 2
    arrays = {}
    for part in ("re", "im"):
        arrays.update(_lstm_weights(rng, c, hdim, True, f"{part}.f."))
        arrays.update(_lstm_weights(rng, c, hdim, False, f"{part}.t."))
        arrays[f"{part}.pf_w"] = 0.4 * rng.normal(size=(c, 2 * hdim))
        arrays[f"{part}.pf_b"] = 0.4 * rng.normal(size=(c,))
        arrays[f"{part}.pt_w"] = 0.4 * rng.normal(size=(c, hdim))
        arrays[f"{part}.pt_b"] = 0.4 * rng.normal(size=(c,))
    arrays["hr"] = rng.normal(size=(c, f, t))
    arrays["hi"] = rng.normal(size=(c, f, t))
    r1 = rng.normal(size=(c, f, t))
    r2 = rng.normal(size=(c, f, t))

    def part_params(p, part):
        pick = lambda pre: {k[len(pre):]: v for k, v in p.items() if k.startswith(pre)}
        return FtLstmParams(
            f_spec=LstmSpec(c, hdim, True, pick(f"{part}.f.")),
            t_spec=LstmSpec(c, hdim, False, pick(f"{part}.t.")),
            proj_f_w=p[f"{part}.pf_w"], proj_f_b=p[f"{part}.pf_b"],
            proj_t_w=p[f"{part}.pt_w"], proj_t_b=p[f"{part}.pt_b"])

    def loss(p):
        out, _ = ft_lstm_block(ComplexPair(p["hr"], p["hi"]),
                               part_params(p, "re"), part_params(p, "im"))
        return _project(out, r1, r2)

    return _check(loss, arrays)


def check_complex_lstm(rng):
    t, d, hdim = 4, 3, 2
    arrays = {}
    arrays.update(_lstm_weights(rng, d, hdim, False, "r."))
    arrays.update(_lstm_weights(rng, d, hdim, False, "i."))
    arrays["pr"] = 0.4 * rng.normal(size=(d, hdim))
    arrays["pi"] = 0.4 * rng.normal(size=(d, hdim))
    arrays["br"] = 0.4 * rng.normal(size=(d,))
    arrays["bi"] = 0.4 * rng.normal(size=(d,))
    arrays["xr"] = rng.normal(size=(t, d))
    arrays["xi"] = rng.normal(size=(t, d))
    r1 = rng.normal(size=(t, d))
    r2 = rng.normal(size=(t, d))

    def loss(p):
        pick = lambda pre: {k[len(pre):]: v for k, v in p.items() if k.startswith(pre)}
        layer = ComplexLstmParams(
            spec_r=LstmSpec(d, hdim, False, pick("r.")),
            spec_i=LstmSpec(d, hdim, False, pick("i.")),
            proj_pr=p["pr"], proj_pi=p["pi"], proj_br=p["br"], proj_bi=p["bi"])
        out, _ = complex_lstm(ComplexPair(p["xr"], p["xi"]), layer)
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


def _micro_config():
    return ModelConfig(
        stft=StftConfig(win_len=32, hop=16, fft_size=32),
        enc_specs=(ConvSpec(in_ch=2, out_ch=2, kernel_f=3, stride_f=2, pad_f=0),
                   ConvSpec(in_ch=2, out_ch=2, kernel_f=3, stride_f=1, pad_f=1)),
        dec_specs=(ConvSpec(in_ch=2, out_ch=2, kernel_f=3, stride_f=1, pad_f=1,
                            transposed=True),
                   ConvSpec(in_ch=2, out_ch=1, kernel_f=3, stride_f=2, pad_f=0,
                            transposed=True)),
        df_spec=ConvSpec(in_ch=1, out_ch=9, kernel_f=3, kernel_t=3, pad_f=1,
                         pad_t=1),
        lstm_hidden=2, clstm_hidden=2, clstm_layers=1)


def check_composed_loss(rng, entries_per_tensor=4, h=1e-5):
    """Sampled finite differences through the whole model + objective.

    The composed objective is much more curved than any single kernel, so a
    smaller step keeps the central-difference truncation error below the
    comparison tolerance (verified by a step-size convergence study).
    """
    cfg = _micro_config()
    # deconv chain: 17 -> 8 -> 8 -> 17 bins
    assert cfg.dec_specs[-1].f_out(cfg.bottleneck_bins) == cfg.n_bins
    store = init_weights(cfg, seed=int(rng.integers(2 ** 31)))
    arrays = {k: np.asarray(v, dtype=np.float64).copy()
              for k, v in store.tensors.items()}
    n = 8 * cfg.stft.hop

    class Ex:
        y = AudioBuffer(rng.normal(size=n))
        x = AudioBuffer(rng.normal(size=n))
        s = AudioBuffer(rng.normal(size=n))

    plan = ChunkPlan((1, 2))

    def build(p):
        return example_loss(Ex, p, cfg, plan)

    params = {k: as_var(v) for k, v in arrays.items()}
    grads = backward(build(params), params)

    worst = 0.0
    for name, a in arrays.items():
        flat = a.reshape(-1)
        idx = rng.choice(flat.size, size=min(entries_per_tensor, flat.size),
                         replace=False)
        for i in idx:
            orig = flat[i]
            flat[i] = orig + h
            fp = float(build({k: as_var(v) for k, v in arrays.items()}).data)
            flat[i] = orig - h
            fm = float(build({k: as_var(v) for k, v in arrays.items()}).data)
            flat[i] = orig
            fd = (fp - fm) / (2 * h)
            ad = grads[name].reshape(-1)[i]
            scale = max(abs(fd), np.max(np.abs(grads[name])), 1e-8)
            worst = max(worst, abs(ad - fd) / scale)
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
