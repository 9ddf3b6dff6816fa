"""Model assembly: shapes, parameter counts, masking, streaming equivalence."""

import collections
import gc
import itertools
import time
import tracemalloc

import numpy as np
import pytest

from dcaec import autodiff, model, nn
from dcaec.autodiff import no_grad
from dcaec.dsp import RATE, AudioBuffer, ComplexSpec, StftConfig, istft, stft
from dcaec.gradcheck import SMALL
from dcaec.model import (MaskSpec, ModelConfig, NumericError, StreamingSession,
                         WeightError, WeightStore, apply_mask, batch_mask_graph,
                         count_params, expected_tensor_shapes, forward,
                         ideal_crm, init_weights, params_as_vars,
                         validate_store)

PAPER = ModelConfig.paper_mode()
DESK = ModelConfig.desk_mode()


def _signals(seconds=1.0, seed=0):
    rng = np.random.default_rng(seed)
    n = int(seconds * RATE)
    return (AudioBuffer(0.1 * rng.normal(size=n)),
            AudioBuffer(0.1 * rng.normal(size=n)))


def test_layer_shapes_across_sequence_lengths():
    store = init_weights(PAPER, seed=0)
    params = params_as_vars(store)
    start = time.monotonic()
    for t in (3, 50, 99):
        n = (t - 1) * PAPER.stft.hop + PAPER.stft.win_len
        y, x = _signals(seconds=n / RATE, seed=t)
        shapes = {}
        batch_mask_graph([stft(y, PAPER.stft)], [stft(x, PAPER.stft)], params, PAPER,
                         note=lambda name, pair: shapes.update({name: tuple(pair.shape)}))
        assert shapes["input"] == (2, t, 161)
        assert shapes["enc0"] == (32, t, 79)
        assert shapes["enc1"] == (96, t, 79)
        assert shapes["ft_lstm"] == (96, t, 79)
        assert shapes["dec1"] == (32, t, 79)
        assert shapes["dec0"] == (1, t, 161)
        assert shapes["df_coef"] == (9, t, 161)
        assert shapes["deep_filter"] == (1, t, 161)
        assert shapes["clstm0"] == (t, 161)
        assert shapes["clstm1"] == (t, 161)
    assert time.monotonic() - start < 10.0


def test_paper_parameter_count_in_budget():
    n = count_params(init_weights(PAPER, seed=0))
    assert 1_300_000 <= n <= 1_500_000


def test_desk_parameter_count():
    assert count_params(init_weights(DESK, seed=0)) == 72_028


def test_count_params_trivial():
    assert count_params(WeightStore({})) == 0
    assert count_params(WeightStore({"a": np.zeros((2, 3))})) == 6


def test_init_weights_deterministic():
    a = init_weights(DESK, seed=7)
    b = init_weights(DESK, seed=7)
    assert list(a.tensors) == list(b.tensors)
    for k in a.tensors:
        np.testing.assert_array_equal(a.tensors[k], b.tensors[k])
        assert a.tensors[k].dtype == np.float32


def test_forget_gate_bias_initialized_high():
    st = init_weights(DESK, seed=0)
    h = DESK.lstm_hidden
    b = st["ft.re.t.b_ih"]
    assert np.all(b[h:2 * h] > 0.5)  # +1 offset dominates the uniform init


def test_validate_store_rejects_bad_shapes():
    store = init_weights(DESK, seed=0)
    validate_store(store, DESK)
    broken = WeightStore(dict(store.tensors), store.meta)
    broken.tensors["df.kr"] = np.zeros((1, 1, 1, 1), dtype=np.float32)
    with pytest.raises(WeightError):
        validate_store(broken, DESK)
    missing = WeightStore({k: v for k, v in store.tensors.items() if k != "df.kr"})
    with pytest.raises(WeightError, match="df.kr"):
        validate_store(missing, DESK)
    extra = WeightStore(dict(store.tensors))
    extra.tensors["bogus"] = np.zeros(3)
    with pytest.raises(WeightError, match="bogus"):
        validate_store(extra, DESK)


def test_validate_store_reuses_expected_shapes(monkeypatch):
    store = init_weights(DESK, seed=0)
    validate_store(store, DESK)

    def no_dry_init(*args, **kwargs):
        raise AssertionError("validate_store rebuilt the weights")

    monkeypatch.setattr(model, "init_weights", no_dry_init)
    validate_store(store, DESK)
    for name, bad in (("df.kr", np.zeros((1, 1, 1, 1), dtype=np.float32)),
                      ("bogus", np.zeros(3)), ("df.ki", None)):
        tensors = dict(store.tensors, **{name: bad})
        if bad is None:
            del tensors[name]
        with pytest.raises(WeightError, match=name):
            validate_store(WeightStore(tensors), DESK)


@pytest.mark.parametrize("cfg", [PAPER, DESK, ModelConfig.paper_mode(df_wiring="input")],
                         ids=["paper", "desk", "paper-input"])
def test_expected_shapes_draw_nothing(cfg, monkeypatch):
    """The shapes come from the layout init_weights draws from, not from a
    dry init: with no random generator to be had they are init_weights'."""
    shapes = {k: v.shape for k, v in init_weights(cfg, seed=5).tensors.items()}

    def no_rng(*args, **kwargs):
        raise AssertionError("expected_tensor_shapes drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", no_rng)
    assert expected_tensor_shapes(cfg) == shapes
    assert list(expected_tensor_shapes(cfg)) == list(shapes)


def test_expected_shapes_cover_all_tensors():
    store = init_weights(DESK, seed=1)
    shapes = expected_tensor_shapes(DESK)
    assert set(shapes) == set(store.tensors)


@pytest.mark.parametrize("cfg", [PAPER, DESK, ModelConfig.desk_mode(df_wiring="input"), SMALL],
                         ids=["paper", "desk", "desk-input", "small"])
def test_config_dict_round_trip(cfg):
    d = cfg.to_dict()
    back = ModelConfig.from_dict(d)
    assert back == cfg
    assert back.to_dict() == d
    assert back.config_hash() == cfg.config_hash()


def test_config_rejects_missing_and_malformed_keys():
    d = DESK.to_dict()
    del d["lstm_hidden"]
    with pytest.raises(ValueError, match="lstm_hidden"):
        ModelConfig.from_dict(d)
    d = DESK.to_dict()
    d["enc"][0][1] = 4.0  # a width that is not an int
    with pytest.raises(ValueError, match="enc"):
        ModelConfig.from_dict(d)
    for bad in ([], None, dict(DESK.to_dict(), stft={"win_len": 320})):
        with pytest.raises(ValueError):
            ModelConfig.from_dict(bad)


def test_config_rejects_other_activations():
    d = DESK.to_dict()
    assert d["activation"] == "prelu"
    d["activation"] = "relu"
    with pytest.raises(ValueError, match="activation"):
        ModelConfig.from_dict(d)


def test_config_hashes_are_pinned():
    """The file format (and so every weight file's config hash) is fixed."""
    assert PAPER.config_hash() == "0ceb0eb8d1735649"
    assert DESK.config_hash() == "33da0c584c64d552"
    assert ModelConfig.desk_mode(df_wiring="input").config_hash() == "86a9060a89c466cf"


def test_config_rejects_convolutions_that_mix_frames():
    enc = DESK.to_dict()
    enc["enc"][0][3] = 3  # kernel_t
    with pytest.raises(ValueError, match="frame-local"):
        ModelConfig.from_dict(enc)
    df = DESK.to_dict()
    df["df"][3] = 1  # kernel_t: no lookahead
    with pytest.raises(ValueError, match="one frame either"):
        ModelConfig.from_dict(df)


def test_forward_silence_gives_silence():
    store = init_weights(DESK, seed=0)
    y = AudioBuffer(np.zeros(RATE))
    x = AudioBuffer(np.zeros(RATE))
    _, s_hat = forward(y, x, store, DESK)
    assert np.max(np.abs(s_hat.samples)) < 1e-6


def test_forward_output_length_and_mask_shape():
    store = init_weights(DESK, seed=0)
    y, x = _signals()
    mask, s_hat = forward(y, x, store, DESK)
    t = DESK.stft.n_frames(RATE)
    assert mask.re.shape == (t, 161)
    assert len(s_hat) == (t - 1) * DESK.stft.hop + DESK.stft.win_len
    assert np.all(np.hypot(mask.re, mask.im) <= 100.0 + 1e-9)


def test_forward_pads_shorter_input():
    store = init_weights(DESK, seed=0)
    y, _ = _signals()
    x = AudioBuffer(np.zeros(RATE // 2))
    mask, _ = forward(y, x, store, DESK)
    assert mask.re.shape[0] == DESK.stft.n_frames(RATE)


def test_forward_on_empty_input_gives_empty_output():
    # the same contract as a session that is flushed unfed
    store = init_weights(DESK, seed=0)
    rep = {}
    mask, s_hat = forward(AudioBuffer(np.zeros(0)), AudioBuffer(np.zeros(0)), store, DESK,
                          report=rep)
    assert mask.re.shape == mask.im.shape == (0, DESK.n_bins)
    assert len(s_hat) == 0 and rep["mask_clamped_bins"] == 0
    assert StreamingSession(store, DESK).flush().size == 0


@pytest.mark.parametrize("last_frames", [None, 1, 2, 16])
def test_forward_blocks_match_one_block(monkeypatch, last_frames):
    """forward runs blocks of BLOCK_FRAMES hops, the last with the rest of the
    signal: 1, 2 or BLOCK_FRAMES frames after two blocks.  The result stays
    that of one block over the whole signal.  None is the empty input."""
    hop, step = DESK.stft.hop, model.BLOCK_FRAMES * DESK.stft.hop
    n = 0 if last_frames is None else 2 * step + last_frames * hop
    if n:  # the first block holds one frame less: its frames need a whole window
        assert DESK.stft.n_frames(n) - (2 * model.BLOCK_FRAMES - 1) == last_frames
    store = init_weights(DESK, seed=0)
    rng = np.random.default_rng(12)
    for part in ("br", "bi"):  # about half the mask bins reach the clamp
        store.tensors[f"clstm0.proj.{part}"][:] = rng.normal(0, model.MASK_CLAMP, DESK.n_bins)
    y, x = (AudioBuffer(0.1 * rng.normal(size=n)) for _ in range(2))
    runs = []
    for frames in (model.BLOCK_FRAMES, DESK.stft.n_frames(n) + 1):
        monkeypatch.setattr(model, "BLOCK_FRAMES", frames)
        rep = {}
        runs.append((*forward(y, x, store, DESK, report=rep), rep["mask_clamped_bins"]))
    (mask, s_hat, clamped), (one_mask, one_s, one_clamped) = runs
    assert clamped == one_clamped and (n == 0 or 0 < clamped < mask.re.size)
    # relative too: a float32 mask bin near the clamp of 100 has an ulp of 7.6e-6
    for a, b in ((mask.re, one_mask.re), (mask.im, one_mask.im), (s_hat.samples, one_s.samples)):
        np.testing.assert_allclose(a, b, rtol=1e-6, atol=1e-6)


def test_forward_memory_is_set_by_the_block():
    """A paper-mode forward's peak does not grow with the file."""
    store = init_weights(PAPER, seed=0)
    forward(*_signals(seconds=0.25, seed=13), store, PAPER)  # fill allocation caches

    def peak(seconds):
        y, x = _signals(seconds=seconds, seed=13)
        tracemalloc.start()
        try:
            forward(y, x, store, PAPER)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(4.0) <= 1.15 * peak(1.0)


def test_apply_mask_identity_and_zero():
    y, _ = _signals()
    spec = stft(y, DESK.stft)
    one = MaskSpec(np.ones_like(spec.re), np.zeros_like(spec.im))
    out = apply_mask(spec, one)
    np.testing.assert_array_equal(out.re, spec.re)
    np.testing.assert_array_equal(out.im, spec.im)
    zero = MaskSpec(np.zeros_like(spec.re), np.zeros_like(spec.im))
    assert not apply_mask(spec, zero).re.any()


def test_apply_mask_matches_polar_form():
    rng = np.random.default_rng(1)
    y = ComplexSpec(rng.normal(size=(4, 161)), rng.normal(size=(4, 161)),
                    DESK.stft)
    m = MaskSpec(rng.normal(size=(4, 161)), rng.normal(size=(4, 161)))
    out = apply_mask(y, m)
    ymag, yph = np.hypot(y.re, y.im), np.arctan2(y.im, y.re)
    mmag, mph = np.hypot(m.re, m.im), np.arctan2(m.im, m.re)
    prod = ymag * mmag * np.exp(1j * (yph + mph))
    np.testing.assert_allclose(out.re, prod.real, atol=1e-9)
    np.testing.assert_allclose(out.im, prod.imag, atol=1e-9)


def test_ideal_crm_recovers_known_masks():
    rng = np.random.default_rng(2)
    y = ComplexSpec(rng.normal(size=(5, 161)), rng.normal(size=(5, 161)),
                    DESK.stft)
    m = ideal_crm(y, y)
    np.testing.assert_allclose(m.re, 1.0, atol=1e-6)
    np.testing.assert_allclose(m.im, 0.0, atol=1e-9)
    j = ComplexSpec(-y.im, y.re, DESK.stft)  # S = j * Y
    mj = ideal_crm(y, j)
    np.testing.assert_allclose(mj.re, 0.0, atol=1e-9)
    np.testing.assert_allclose(mj.im, 1.0, atol=1e-6)


def test_ideal_crm_reconstruction():
    rng = np.random.default_rng(3)
    y = ComplexSpec(rng.normal(size=(20, 161)), rng.normal(size=(20, 161)),
                    DESK.stft)
    s = ComplexSpec(rng.normal(size=(20, 161)), rng.normal(size=(20, 161)),
                    DESK.stft)
    rec = apply_mask(y, ideal_crm(y, s))
    mag = np.hypot(y.re, y.im)
    keep = mag > 1e-6
    err = np.hypot(rec.re - s.re, rec.im - s.im)
    assert np.max(err[keep]) < 1e-6


@pytest.mark.parametrize("mode,wiring", [("desk", "decoder"), ("desk", "input"),
                                         ("paper", "decoder")])
def test_streaming_matches_offline(mode, wiring):
    cfg = getattr(ModelConfig, f"{mode}_mode")(df_wiring=wiring)
    store = init_weights(cfg, seed=0)
    y, x = _signals(seconds=0.5, seed=4)
    _, offline = forward(y, x, store, cfg)
    sess = StreamingSession(store, cfg)
    hop = cfg.stft.hop
    out = [sess.feed(y.samples[i:i + hop], x.samples[i:i + hop])
           for i in range(0, len(y), hop)]
    out.append(sess.flush())
    streamed = np.concatenate(out)
    assert len(streamed) == len(offline)
    assert np.max(np.abs(streamed - offline.samples)) < 1e-5


def test_streaming_non_finite_chunk_raises_and_changes_nothing():
    store = init_weights(DESK, seed=0)
    y, x = _signals(seconds=0.3, seed=7)
    hop = DESK.stft.hop
    clean = StreamingSession(store, DESK)
    hit = StreamingSession(store, DESK)
    for i in range(0, len(y), hop):
        yc, xc = y.samples[i:i + hop], x.samples[i:i + hop]
        if i == 10 * hop:
            y_nan, x_inf = yc.copy(), xc.copy()
            y_nan[17], x_inf[17] = np.nan, np.inf
            for bad in ((y_nan, xc), (yc, x_inf)):
                with pytest.raises(NumericError):
                    hit.feed(*bad)
        np.testing.assert_array_equal(hit.feed(yc, xc), clean.feed(yc, xc))
    np.testing.assert_array_equal(hit.flush(), clean.flush())


def test_streaming_overflow_raises_and_changes_nothing():
    """A finite chunk that overflows float32 inside the network is refused
    whole: the session goes on as if it had never been fed."""
    store = init_weights(DESK, seed=0)
    y, x = _signals(seconds=0.3, seed=9)
    hop = DESK.stft.hop
    clean = StreamingSession(store, DESK)
    hit = StreamingSession(store, DESK)
    for i in range(0, len(y), hop):
        yc, xc = y.samples[i:i + hop], x.samples[i:i + hop]
        if i == 10 * hop:
            with pytest.raises(NumericError), pytest.warns(RuntimeWarning):
                hit.feed(np.full(hop, 1e39), xc)
        np.testing.assert_array_equal(hit.feed(yc, xc), clean.feed(yc, xc))
    np.testing.assert_array_equal(hit.flush(), clean.flush())


def test_failed_flush_changes_nothing(monkeypatch):
    """A flush refused inside the network leaves the session unflushed: a
    retried flush gives what a clean session's flush gives."""
    store = init_weights(DESK, seed=0)
    y, x = _signals(seconds=0.1, seed=14)
    hop = DESK.stft.hop
    clean = StreamingSession(store, DESK)
    hit = StreamingSession(store, DESK)
    for i in range(0, len(y), hop):
        for sess in (clean, hit):
            sess.feed(y.samples[i:i + hop], x.samples[i:i + hop])
    orig = model.complex_lstm

    def refuse_once(*args, **kwargs):
        monkeypatch.setattr(model, "complex_lstm", orig)
        raise NumericError("refused for the test")

    monkeypatch.setattr(model, "complex_lstm", refuse_once)
    with pytest.raises(NumericError):
        hit.flush()
    assert model.complex_lstm is orig and not hit.done
    tail = hit.flush()
    assert tail.size and np.array_equal(tail, clean.flush())


def test_clamped_mask_bins_counted_offline_and_streaming():
    # the last cLSTM projection's biases put every mask bin far above the clamp
    store = init_weights(DESK, seed=0)
    for part in ("br", "bi"):
        store.tensors[f"clstm0.proj.{part}"][:] = 10 * model.MASK_CLAMP
    y, x = _signals(seconds=0.25, seed=11)
    rep = {}
    mask, _ = forward(y, x, store, DESK, report=rep)
    n_bins = mask.re.size
    assert rep["mask_clamped_bins"] == n_bins
    assert np.all(np.hypot(mask.re, mask.im) <= model.MASK_CLAMP * (1 + 1e-5))  # float32
    sess = StreamingSession(store, DESK)
    assert (sess.frames, sess.mask_clamped_bins) == (0, 0)
    hop = DESK.stft.hop
    for i in range(0, len(y), hop):
        sess.feed(y.samples[i:i + hop], x.samples[i:i + hop])
    sess.flush()
    assert sess.frames == mask.re.shape[0]
    assert sess.mask_clamped_bins == n_bins
    # with the initial weights no bin reaches the limit
    forward(y, x, init_weights(DESK, seed=0), DESK, report=rep)
    assert rep["mask_clamped_bins"] == 0


def _states_finite(states):
    if isinstance(states, (tuple, list)):
        return all(_states_finite(s) for s in states)
    return states is None or bool(np.all(np.isfinite(states)))


def test_streaming_non_finite_weight_raises_like_forward():
    store = init_weights(DESK, seed=0)
    store.tensors["clstm0.proj.br"][3] = np.nan
    y, x = _signals(seconds=0.2, seed=10)
    with pytest.raises(NumericError):
        forward(y, x, store, DESK)
    sess = StreamingSession(store, DESK)
    hop = DESK.stft.hop
    raised = 0
    for i in range(0, len(y), hop):
        try:
            out = sess.feed(y.samples[i:i + hop], x.samples[i:i + hop])
        except NumericError:
            raised += 1
        else:
            assert np.all(np.isfinite(out))
        assert _states_finite(sess.t_states) and _states_finite(sess.clstm_states)
    # every frame from the first one with a mask on
    assert raised == len(y) // hop - 2


def test_inference_builds_no_vars(monkeypatch):
    made = []
    init = autodiff.Var.__init__

    def counting(self, *args, **kwargs):
        made.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(autodiff.Var, "__init__", counting)
    store = init_weights(DESK, seed=0)
    y, x = _signals(seconds=0.2, seed=11)
    forward(y, x, store, DESK)
    sess = StreamingSession(store, DESK)
    hop = DESK.stft.hop
    for i in range(0, len(y), hop):
        sess.feed(y.samples[i:i + hop], x.samples[i:i + hop])
    sess.flush()
    assert not made


def test_operands_are_built_once_per_session(monkeypatch):
    built = collections.Counter()
    for name in ("conv_operand", "linear_operand", "complex_linear_operand", "lstm_operand"):
        def counting(*args, _name=name, _orig=getattr(nn, name)):
            built[_name] += 1
            return _orig(*args)

        monkeypatch.setattr(nn, name, counting)
    # five convs; the F-T block's F group, two T-LSTMs and two projections
    # per part; one recurrence group and one projection per cLSTM layer
    once = {"conv_operand": 5, "linear_operand": 4,
            "complex_linear_operand": DESK.clstm_layers, "lstm_operand": 3 + DESK.clstm_layers}
    store = init_weights(DESK, seed=0)
    y, x = _signals(seconds=0.2, seed=13)
    sess = StreamingSession(store, DESK)
    hop = DESK.stft.hop
    for i in range(0, 10 * hop, hop):
        sess.feed(y.samples[i:i + hop], x.samples[i:i + hop])
    sess.flush()
    assert built == once
    built.clear()
    forward(y, x, store, DESK)
    assert built == once


@pytest.mark.parametrize("wiring", ["decoder", "input"])
def test_mask_graph_without_recording_matches_graph(wiring):
    cfg = ModelConfig.desk_mode(df_wiring=wiring)
    store = init_weights(cfg, seed=0)
    y, x = _signals(seconds=0.3, seed=12)
    ys, xs = stft(y, cfg.stft), stft(x, cfg.stft)
    graph = batch_mask_graph([ys], [xs], params_as_vars(store), cfg)
    arrays = {k: np.asarray(v, dtype=np.float64) for k, v in store.tensors.items()}
    with no_grad():
        plain = batch_mask_graph([ys], [xs], arrays, cfg)
    assert isinstance(graph.re, autodiff.Var)
    assert isinstance(plain.re, np.ndarray)
    assert plain.re.dtype == np.float64
    assert np.max(np.abs(plain.re - graph.re.data)) <= 1e-12
    assert np.max(np.abs(plain.im - graph.im.data)) <= 1e-12


def test_streaming_memory_stays_flat():
    store = init_weights(DESK, seed=0)
    y, x = _signals(seconds=1.0, seed=8)
    hop = DESK.stft.hop
    sess = StreamingSession(store, DESK)
    chunks = itertools.cycle([(y.samples[i:i + hop], x.samples[i:i + hop])
                              for i in range(0, len(y) - hop + 1, hop)])

    def run(hops):
        for _ in range(hops):
            sess.feed(*next(chunks))

    # bounded allocation caches keep filling for the first few hundred hops
    run(200)
    hops = 1000
    tracemalloc.start()
    try:
        run(10)  # replace the per-hop state allocated before tracing began
        gc.collect()  # free lists and cycles are not retained state
        before = tracemalloc.get_traced_memory()[0]
        run(hops)
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert (after - before) / 1024.0 / hops < 0.1


def test_streaming_deterministic():
    store = init_weights(DESK, seed=0)
    y, x = _signals(seconds=0.3, seed=5)
    hop = DESK.stft.hop

    def run():
        sess = StreamingSession(store, DESK)
        out = [sess.feed(y.samples[i:i + hop], x.samples[i:i + hop])
               for i in range(0, len(y), hop)]
        out.append(sess.flush())
        return np.concatenate(out)

    np.testing.assert_array_equal(run(), run())


def test_streaming_causality_and_latency():
    """An impulse must not appear in the output before it was fed."""
    store = init_weights(DESK, seed=0)
    hop = DESK.stft.hop
    n = RATE // 2
    pos = 3200
    y = np.zeros(n)
    y[pos] = 1.0
    sess = StreamingSession(store, DESK)
    out = []
    for i in range(0, n, hop):
        out.append(sess.feed(y[i:i + hop], np.zeros(hop)))
    out.append(sess.flush())
    s = np.concatenate(out)
    assert sess.algorithmic_latency <= 640
    # output strictly precedes nothing: samples emitted while the input was
    # still silent stay at numerical zero
    lead = s[:pos - sess.algorithmic_latency]
    if lead.size:
        assert np.max(np.abs(lead)) < 1e-12


def test_streaming_rejects_bad_chunks():
    store = init_weights(DESK, seed=0)
    sess = StreamingSession(store, DESK)
    with pytest.raises(ValueError):
        sess.feed(np.zeros(100), np.zeros(100))
    sess.flush()
    with pytest.raises(RuntimeError):
        sess.feed(np.zeros(160), np.zeros(160))


def test_mask_graph_rejects_unknown_wiring():
    cfg = ModelConfig.desk_mode()
    cfg.df_wiring = "bogus"
    store = init_weights(ModelConfig.desk_mode(), seed=0)
    y, x = _signals(seconds=0.2)
    with pytest.raises(ValueError):
        batch_mask_graph([stft(y, cfg.stft)], [stft(x, cfg.stft)],
                         params_as_vars(store), cfg)


def test_input_wiring_runs():
    cfg = ModelConfig.desk_mode(df_wiring="input")
    store = init_weights(cfg, seed=0)
    y, x = _signals(seconds=0.2, seed=6)
    mask, s_hat = forward(y, x, store, cfg)
    assert np.all(np.isfinite(s_hat.samples))
