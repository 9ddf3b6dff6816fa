"""Objective graphs, Adam and the toy training loop."""

import tracemalloc

import numpy as np
import pytest

from dcaec import gradcheck, model, training
from dcaec.autodiff import Var, as_var, value
from dcaec.dsp import RATE, AudioBuffer, StftConfig, istft, stft, synthesis
from dcaec.metrics import ChunkPlan, seg_sisnr, si_snr
from dcaec.model import ModelConfig, init_weights
from dcaec.scene import make_training_examples, synthetic_corpus
from dcaec.training import (AdamState, adam_step,
                            backward, batched_loss, example_loss, finite_diff,
                            rel_error, toy_train)


def _examples(n=2, seconds=0.25, seed=0):
    rng = np.random.default_rng(seed)
    corpus = synthetic_corpus(seed=seed + 1, n_near=2, n_far=2, n_noise=1,
                              n_rirs=2, clip_seconds=seconds + 0.5)
    return make_training_examples(rng, corpus, n, seconds=seconds)


def test_istft_graph_matches_offline_istft():
    """The objective's synthesis is offline istft's, on Vars."""
    assert training.istft_graph is synthesis
    rng = np.random.default_rng(0)
    cfg = StftConfig()
    spec = stft(AudioBuffer(rng.normal(size=RATE // 2)), cfg)
    out = synthesis(as_var(spec.re), as_var(spec.im), cfg)
    np.testing.assert_array_equal(out.data, istft(spec).samples)


def test_si_snr_var_matches_metric():
    rng = np.random.default_rng(1)
    s = rng.normal(size=4000)
    est = s + 0.1 * rng.normal(size=4000)
    for mode in ("standard", "literal"):
        assert value(si_snr(as_var(est), s, mode)) == si_snr(est, s, mode)


def test_seg_sisnr_var_matches_metric():
    rng = np.random.default_rng(2)
    s = rng.normal(size=4000)
    est = s + 0.3 * rng.normal(size=4000)
    plan = ChunkPlan(chunk_counts=(1, 4, 10))
    for mode in ("standard", "literal"):
        assert value(seg_sisnr(as_var(est), s, plan, mode)) == seg_sisnr(
            est, s, plan, mode)


def test_zero_estimate_loss_is_the_metric():
    """An all-zero estimate scores -120 dB per chunk count as a Var too."""
    s = np.random.default_rng(4).normal(size=4000)
    zero = np.zeros_like(s)
    plan = ChunkPlan(chunk_counts=(1, 4))
    assert si_snr(zero, s) == pytest.approx(-120.0)
    assert value(si_snr(as_var(zero), s)) == si_snr(zero, s)
    assert seg_sisnr(zero, s, plan) == pytest.approx(-240.0)
    assert value(seg_sisnr(as_var(zero), s, plan)) == seg_sisnr(zero, s, plan)


def test_loss_gradient_via_finite_differences():
    rng = np.random.default_rng(3)
    s = rng.normal(size=800)
    arrays = {"est": s + 0.2 * rng.normal(size=800)}

    def build(p):
        return si_snr(p["est"], s) * -1.0

    params = {k: as_var(v) for k, v in arrays.items()}
    grads = backward(build(params), params)
    fd = finite_diff(lambda: float(build({k: as_var(v) for k, v in arrays.items()}).data),
                     arrays, h=1e-5)
    assert rel_error(grads["est"], fd["est"]) < 1e-6


def test_batched_loss_equals_example_mean():
    exs = _examples(n=2)
    cfg = ModelConfig.desk_mode()
    store = init_weights(cfg, seed=0)
    plan = ChunkPlan(chunk_counts=(1, 2))

    def params():
        return {k: as_var(np.asarray(v, dtype=np.float64).copy())
                for k, v in store.tensors.items()}

    p1 = params()
    batched = batched_loss(exs, p1, cfg, plan)
    p2 = params()
    per = sum(example_loss(ex, p2, cfg, plan) for ex in exs) * (1.0 / len(exs))
    assert float(batched.data) == pytest.approx(float(per.data), abs=1e-9)
    g1 = backward(batched, p1)
    g2 = backward(per, p2)
    worst = max(np.max(np.abs(g1[k] - g2[k])) for k in g1)
    assert worst < 1e-9


def test_adam_zero_gradient_fixed_point():
    params = {"p": np.array([1.0, 2.0])}
    grads = {"p": np.zeros(2)}
    state = AdamState(lr=0.1)
    adam_step(params, grads, state)
    np.testing.assert_array_equal(params["p"], [1.0, 2.0])


def test_adam_first_step_size_is_lr():
    params = {"p": np.array([0.0])}
    state = AdamState(lr=1e-3)
    adam_step(params, {"p": np.array([5.0])}, state)
    # bias correction makes the first update ~lr regardless of gradient scale
    assert abs(params["p"][0] + 1e-3) < 1e-8


def test_adam_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        adam_step({"p": np.zeros(3)}, {"p": np.zeros(2)}, AdamState())


def test_toy_train_zero_lr_is_constant():
    exs = _examples(n=1)
    cfg = ModelConfig.desk_mode()
    store = init_weights(cfg, seed=0)
    out, log = toy_train(store, cfg, exs, steps=3, lr=0.0,
                         plan=ChunkPlan(chunk_counts=(1,)))
    losses = [r["loss"] for r in log]
    assert max(losses) - min(losses) < 1e-12
    for k in store.tensors:
        np.testing.assert_array_equal(out.tensors[k], store.tensors[k])


def test_toy_train_deterministic():
    exs = _examples(n=1)
    cfg = ModelConfig.desk_mode()
    store = init_weights(cfg, seed=0)
    plan = ChunkPlan(chunk_counts=(1,))
    a, log_a = toy_train(store, cfg, exs, steps=2, lr=1e-3, plan=plan)
    b, log_b = toy_train(store, cfg, exs, steps=2, lr=1e-3, plan=plan)
    assert [r["loss"] for r in log_a] == [r["loss"] for r in log_b]
    for k in a.tensors:
        np.testing.assert_array_equal(a.tensors[k], b.tensors[k])


def test_toy_train_reduces_loss():
    exs = _examples(n=2)
    cfg = ModelConfig.desk_mode()
    store = init_weights(cfg, seed=0)
    _, log = toy_train(store, cfg, exs, steps=8, lr=1e-3,
                       plan=ChunkPlan(chunk_counts=(1,)))
    assert log[-1]["loss"] < log[0]["loss"]


def test_toy_train_holds_one_graph_at_a_time():
    exs = _examples(n=1, seconds=0.1)
    cfg = ModelConfig.desk_mode()
    store = init_weights(cfg, seed=0)
    plan = ChunkPlan(chunk_counts=(1,))

    def peak(steps):
        tracemalloc.start()
        try:
            toy_train(store, cfg, exs, steps=steps, plan=plan)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one, two = peak(1), peak(2)
    assert two <= 1.1 * one, (one, two)


def _loss_and_grads(exs, store, cfg, dtype, plan=None):
    params = {k: as_var(np.array(v, dtype)) for k, v in store.tensors.items()}
    loss = batched_loss(exs, params, cfg, plan)
    return loss, backward(loss, params)


def test_float32_step_matches_float64():
    """A desk step at float32, the training precision, against float64: the
    loss to 1e-5 relative, each gradient to 1e-3 of its tensor's largest."""
    exs = _examples(n=3, seconds=0.5)
    cfg = ModelConfig.desk_mode()
    store = init_weights(cfg, seed=0)
    l64, g64 = _loss_and_grads(exs, store, cfg, np.float64)
    l32, g32 = _loss_and_grads(exs, store, cfg, np.float32)
    assert abs(float(l32.data) - float(l64.data)) <= 1e-5 * abs(float(l64.data))
    for k, g in g64.items():
        assert np.max(np.abs(g32[k] - g)) <= 1e-3 * np.max(np.abs(g)), k


def test_step_runs_in_the_parameters_dtype(monkeypatch):
    """toy_train's parameters, Adam moments and result are float32;
    float64 parameters, as the gradient checks pass, keep float64."""
    exs = _examples(n=1, seconds=0.1)
    cfg = ModelConfig.desk_mode()
    store = init_weights(cfg, seed=0)
    plan = ChunkPlan(chunk_counts=(1,))
    seen = []

    def adam(params, grads, state):
        out = adam_step(params, grads, state)
        seen.extend(a.dtype for a in (*params.values(), *grads.values(),
                                      *state.m.values(), *state.v.values()))
        return out

    monkeypatch.setattr(training, "adam_step", adam)
    out, _ = toy_train(store, cfg, exs, steps=2, plan=plan)
    assert seen and set(seen) == {np.dtype(np.float32)}
    assert {v.dtype for v in out.tensors.values()} == {np.dtype(np.float32)}
    loss, grads = _loss_and_grads(exs, store, cfg, np.float64, plan)
    assert loss.data.dtype == np.float64
    assert {g.dtype for g in grads.values()} == {np.dtype(np.float64)}


def test_float32_step_halves_the_graph():
    """A float32 step's peak is near half a float64 step's, which a graph
    or its gradients silently raised to float64 would not be."""
    exs = _examples(n=1, seconds=0.1)
    cfg = ModelConfig.desk_mode()
    store = init_weights(cfg, seed=0)
    plan = ChunkPlan(chunk_counts=(1,))

    def peak(dtype):
        _loss_and_grads(exs, store, cfg, dtype, plan)   # fills the caches
        params = {k: as_var(np.array(v, dtype)) for k, v in store.tensors.items()}
        tracemalloc.start()
        try:
            backward(batched_loss(exs, params, cfg, plan), params)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    p64, p32 = peak(np.float64), peak(np.float32)
    assert p32 <= 0.6 * p64, (p32, p64)


def test_desk_graph_keeps_only_what_backward_reads():
    """A desk float32 batched_loss on 3 x 0.5 s holds at most 29 MiB once its
    forward is built: no convolution or dense layer keeps a padded, joined,
    unfolded or pre-bias array in the graph (36 MiB while they did)."""
    exs = _examples(n=3, seconds=0.5)
    cfg = ModelConfig.desk_mode()
    store = init_weights(cfg, seed=0)
    _loss_and_grads(exs, store, cfg, np.float32)   # fills the caches
    params = {k: as_var(np.array(v, np.float32)) for k, v in store.tensors.items()}
    tracemalloc.start()
    try:
        loss = batched_loss(exs, params, cfg)
        held = tracemalloc.get_traced_memory()[0] / 2 ** 20
    finally:
        tracemalloc.stop()
    assert loss.data.dtype == np.float32
    assert held <= 29.0, held


def test_backward_rejects_non_scalar():
    p = {"x": as_var(np.ones(3))}
    with pytest.raises(ValueError):
        backward(p["x"] * 2.0, p)


# ---- the composed-loss gradient audit -------------------------------------


def test_composed_check_redraws_an_entry_across_a_kink():
    """On this draw, an entry differenced at h = 1e-5 pushes a PReLU input
    across 0 (relative error 1.3e-2 when it is compared as it is); its
    estimates at h and h / 10 disagree, so it is redrawn, and the check
    passes."""
    worst, redrawn = gradcheck.check_composed_loss(np.random.default_rng(1144))
    assert worst < 1e-4
    assert 1 <= redrawn <= gradcheck.MAX_REDRAWS


@pytest.mark.parametrize("seed", range(1000, 1020))
def test_composed_check_passes_on_other_draws(seed):
    worst, redrawn = gradcheck.check_composed_loss(np.random.default_rng(seed))
    assert worst < 1e-4 and redrawn <= gradcheck.MAX_REDRAWS, (worst, redrawn)


def test_composed_check_fails_a_prelu_without_its_slope(monkeypatch):
    """A wrong gradient is not a kink: a PReLU backward that passes the
    gradient of a negative input on unscaled, dropping alpha, gives two
    estimates that agree and an AD gradient that does not."""

    def prelu_without_slope(x, alpha):
        x, alpha = as_var(x), as_var(alpha)
        xd, ad = value(x), value(alpha)
        return Var._make(np.maximum(xd, 0) + ad * np.minimum(xd, 0), (x, alpha),
                         (lambda g: g, lambda g: g * np.minimum(xd, 0)))

    monkeypatch.setattr(model, "activation", prelu_without_slope)
    worst, redrawn = gradcheck.check_composed_loss(np.random.default_rng(1000))
    assert 1e-2 < worst < np.inf and redrawn == 0, (worst, redrawn)
