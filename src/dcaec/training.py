"""Training machinery: differentiable objective, Adam, gradient checking.

The objective is the negative segmented SI-SNR (standard projection form,
chunk counts summed) of the time-domain network output: ``metrics.seg_sisnr``
itself, run on a Var estimate, so the training loss is the reported metric.
The synthesis (mask multiply, then ``dsp.synthesis``: inverse DFT, window
and overlap-add) is part of the differentiated graph.

A step runs in its parameters' dtype: ``toy_train`` trains in float32, the
precision the weights are stored and served in, while the gradient checks
pass float64 parameters and run in float64.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Var, as_var
from .dsp import stft
# the name perfbench/tracing.py wraps for the objective's synthesis
from .dsp import synthesis as istft_graph
from .metrics import ChunkPlan, seg_sisnr
from .model import ModelConfig, WeightStore, batch_mask_graph
# no caller since the network moved into model's stages; perfbench/tracing.py patches them
from .nn import (complex_conv2d, complex_deconv2d, complex_linear,  # noqa: F401
                 deep_filter_apply, lstm_seq)
from .nn import prelu as activation  # noqa: F401
from .nn import ft_lstm_block as _batched_ft_part  # noqa: F401

# ---- objective -----------------------------------------------------------


def batched_loss(examples, params, cfg: ModelConfig, plan: ChunkPlan = None):
    """Mean negative Seg-SiSNR over same-length examples in one graph.

    The network runs once over the whole batch (see model.batch_mask_graph);
    only the synthesis and the objective are per example.  Everything runs in
    the parameters' dtype, so the loss and its gradients have it too.
    """
    y_specs = [stft(ex.y, cfg.stft) for ex in examples]
    x_specs = [stft(ex.x, cfg.stft) for ex in examples]
    b = len(examples)
    m = batch_mask_graph(y_specs, x_specs, params, cfg)
    dt = m.re.dtype
    t, f = y_specs[0].re.shape
    m_re, m_im = m.re.reshape(t, b, f), m.im.reshape(t, b, f)
    total = None
    for k, (ex, ys) in enumerate(zip(examples, y_specs)):
        y_re, y_im = ys.re.astype(dt, copy=False), ys.im.astype(dt, copy=False)
        s_re = m_re[:, k] * y_re - m_im[:, k] * y_im
        s_im = m_re[:, k] * y_im + m_im[:, k] * y_re
        s_hat = istft_graph(s_re, s_im, cfg.stft)
        n = s_hat.shape[0]
        ref = np.pad(ex.s.samples, (0, max(0, n - len(ex.s))))[:n].astype(dt)
        l = seg_sisnr(s_hat, ref, plan) * (-1.0)
        total = l if total is None else total + l
    return total * (1.0 / b)


def example_loss(example, params, cfg: ModelConfig, plan: ChunkPlan = None):
    """Negative Seg-SiSNR of the network output for one scene example."""
    return batched_loss([example], params, cfg, plan)


# ---- backward driver -----------------------------------------------------


def backward(loss: Var, params: dict):
    """Gradients of a scalar loss for every named parameter Var.

    Unreached parameters get zero gradients; non-finite gradients raise.
    """
    if loss.data.size != 1:
        raise ValueError("loss must be scalar")
    loss.backward()
    grads = {}
    for name, p in params.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient for {name}")
        grads[name] = g
    return grads


# ---- Adam ----------------------------------------------------------------


@dataclass
class AdamState:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(params: dict, grads: dict, state: AdamState):
    """In-place Adam update with bias correction; returns (params, state)."""
    state.step += 1
    t = state.step
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ValueError(f"{name}: gradient shape {g.shape} != {p.shape}")
        m = state.m.setdefault(name, np.zeros_like(p))
        v = state.v.setdefault(name, np.zeros_like(p))
        m *= state.beta1
        m += (1 - state.beta1) * g
        v *= state.beta2
        v += (1 - state.beta2) * g * g
        m_hat = m / (1 - state.beta1 ** t)
        v_hat = v / (1 - state.beta2 ** t)
        p -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
    return params, state


# ---- toy training --------------------------------------------------------


def toy_train(store: WeightStore, cfg: ModelConfig, examples, steps=50,
              lr=1e-3, plan: ChunkPlan = None, log_fn=None):
    """Full-batch Adam on a fixed set of scene examples.

    The parameters, their Adam moments and every step's graph are float32.
    Returns (store, log) where log is a list of {step, loss, lr, wall} records.
    Deterministic for fixed inputs.
    """
    params_np = {k: np.array(v, dtype=np.float32) for k, v in store.tensors.items()}
    # the moments exist before the first step, so that a step allocates
    # nothing that outlives its graph
    state = AdamState(lr=lr, m={k: np.zeros_like(v) for k, v in params_np.items()},
                      v={k: np.zeros_like(v) for k, v in params_np.items()})
    log = []
    for step in range(steps):
        t0 = time.perf_counter()
        params = {k: as_var(v) for k, v in params_np.items()}
        total = batched_loss(examples, params, cfg, plan)
        loss_val = float(total.data)
        if not np.isfinite(loss_val):
            raise FloatingPointError(f"training diverged at step {step}")
        grads = backward(total, params)
        adam_step(params_np, grads, state)
        del total, params, grads   # this step's graph, before the next is built
        rec = {"step": step, "loss": loss_val, "lr": state.lr,
               "wall": time.perf_counter() - t0}
        log.append(rec)
        if log_fn is not None:
            log_fn(rec)
    out = WeightStore(type(store.tensors)((k, params_np[k]) for k in store.tensors),
                      dict(store.meta))
    return out, log


# ---- finite-difference gradient checking --------------------------------


def finite_diff(f, arrays, h=1e-3):
    """Central finite differences of scalar f w.r.t. a dict of float64 arrays."""
    grads = {}
    for name, a in arrays.items():
        g = np.zeros_like(a)
        flat = a.reshape(-1)
        gf = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = f()
            flat[i] = orig - h
            fm = f()
            flat[i] = orig
            gf[i] = (fp - fm) / (2 * h)
        grads[name] = g
    return grads


def rel_error(g_ad, g_fd):
    num = np.max(np.abs(g_ad - g_fd))
    den = np.max(np.abs(g_fd)) + 1e-12
    return num / den
