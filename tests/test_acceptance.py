"""End-to-end acceptance gate.

Each test covers one release criterion and prints a single PASS/FAIL line
with the measured value against its bound.
"""

import time

import numpy as np
import pytest

from dcaec.autodiff import as_var
from dcaec.cli import _single_threaded
from dcaec.dsp import (RATE, AudioBuffer, ComplexSpec, StftConfig, check_cola,
                       istft, stft)
from dcaec.gradcheck import run_gradient_suite
from dcaec.metrics import ChunkPlan, erle, seg_sisnr, si_snr
from dcaec.model import (ModelConfig, StreamingSession, apply_mask,
                         batch_mask_graph, count_params, forward, ideal_crm,
                         init_weights, params_as_vars)
from dcaec.nn import (ComplexLstmParams, ComplexPair, ConvSpec, LstmSpec,
                      complex_conv2d, complex_deconv2d, complex_linear,
                      complex_lstm, deep_filter_apply, ft_lstm_block)
from dcaec.scene import (RoomSpec, SceneRanges, generate_rir,
                         make_training_examples, sample_recipe,
                         schroeder_rt60, synthesize, synthetic_corpus)
from dcaec.training import toy_train

from test_nn import (FtLstmParams, complex_conv_oracle, conv2d_loops,
                     deep_filter_loops, lstm_forward, lstm_loops,
                     rand_lstm_spec)

PAPER = ModelConfig.paper_mode()
DESK = ModelConfig.desk_mode()


def report(num, name, ok, detail):
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


# -------------------------------------------------------------------------


def test_01_shape_conformance():
    store = init_weights(PAPER, seed=0)
    params = params_as_vars(store)
    expected = {
        "input": (2, None, 161), "enc0": (32, None, 79), "enc1": (96, None, 79),
        "ft_lstm": (96, None, 79), "dec1": (32, None, 79), "dec0": (1, None, 161),
        "df_coef": (9, None, 161), "deep_filter": (1, None, 161),
        "clstm0": (None, 161), "clstm1": (None, 161),
    }
    start = time.monotonic()
    bad = []
    for t in (3, 50, 99):
        n = (t - 1) * PAPER.stft.hop + PAPER.stft.win_len
        rng = np.random.default_rng(t)
        spec_y = stft(AudioBuffer(0.1 * rng.normal(size=n)), PAPER.stft)
        spec_x = stft(AudioBuffer(0.1 * rng.normal(size=n)), PAPER.stft)
        shapes = {}
        batch_mask_graph([spec_y], [spec_x], params, PAPER,
                         note=lambda name, pair: shapes.update({name: tuple(pair.shape)}))
        for layer, want in expected.items():
            want_t = tuple(t if w is None else w for w in want)
            if shapes.get(layer) != want_t:
                bad.append(f"T={t} {layer}: {shapes.get(layer)} != {want_t}")
    wall = time.monotonic() - start
    report(1, "layer shapes", not bad and wall < 10.0,
           f"T in (3, 50, 99) all conform, {wall:.1f} s < 10 s"
           + ("; " + "; ".join(bad) if bad else ""))


def test_02_parameter_budget(capsys):
    store = init_weights(PAPER, seed=0)
    groups = {}
    for name, tensor in store.tensors.items():
        groups.setdefault(name.split(".")[0], []).append(tensor.size)
    with capsys.disabled():
        print("\nper-layer parameter breakdown (paper mode):")
        for g in sorted(groups):
            print(f"  {g:8s} {sum(groups[g]):>9,d}")
    total = count_params(store)
    report(2, "parameter budget", 1_300_000 <= total <= 1_500_000,
           f"count {total:,d} within [1,300,000, 1,500,000]")


def test_03_kernel_oracles():
    rng = np.random.default_rng(0)
    start = time.monotonic()
    worst = {"conv": 0.0, "deconv": 0.0, "deep_filter": 0.0, "lstm": 0.0,
             "complex_lstm": 0.0, "ft_lstm": 0.0}

    def track(key, got, want):
        worst[key] = max(worst[key], float(np.max(np.abs(got - want))))

    for _ in range(100):
        # complex conv vs quadruple loops
        ci, co = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        kf, kt = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        sf, pf = int(rng.integers(1, 3)), int(rng.integers(0, 2))
        spec = ConvSpec(in_ch=ci, out_ch=co, kernel_f=kf, kernel_t=kt,
                        stride_f=sf, pad_f=pf, pad_t=int(rng.integers(0, kt)))
        f_in = int(rng.integers(kf, kf + 5))
        t_in = int(rng.integers(kt, kt + 3))
        wr, wi = rng.normal(size=(2, ci, t_in, f_in))
        kr, ki = rng.normal(size=(2, co, ci, kt, kf))
        out = complex_conv2d(ComplexPair(wr, wi), ComplexPair(kr, ki), spec)
        re_ref, im_ref = complex_conv_oracle((wr, wi), (kr, ki), spec)
        track("conv", out.re.data, re_ref)
        track("conv", out.im.data, im_ref)

        # transposed conv vs scatter loops
        dspec = ConvSpec(in_ch=ci, out_ch=co, kernel_f=kf, stride_f=sf,
                         pad_f=pf, transposed=True)
        f_min = max(1 + pf, 1 + int(np.ceil((2 * pf + 1 - kf) / sf)))
        f_in_d = int(rng.integers(f_min, f_min + 4))
        x = rng.normal(size=(ci, 2, f_in_d))
        kd = rng.normal(size=(co, ci, 1, kf))
        full_f = (f_in_d - 1) * sf + kf
        ref = np.zeros((co, 2, full_f))
        for c_in in range(ci):
            for c_out in range(co):
                for tt in range(2):
                    for ff in range(f_in_d):
                        for df in range(kf):
                            ref[c_out, tt, ff * sf + df] += (
                                kd[c_out, c_in, 0, df] * x[c_in, tt, ff])
        ref = ref[:, :, pf:full_f - pf]
        outd = complex_deconv2d(ComplexPair(x, np.zeros_like(x)),
                                ComplexPair(kd, np.zeros_like(kd)), dspec)
        track("deconv", outd.re.data, ref)

        # deep filter vs triple loops
        t_df, f_df = int(rng.integers(2, 5)), int(rng.integers(3, 7))
        cr, cim = rng.normal(size=(2, 9, t_df, f_df))
        tr, ti = rng.normal(size=(2, 1, t_df, f_df))
        df_out = deep_filter_apply(ComplexPair(cr, cim), ComplexPair(tr, ti))
        df_ref = deep_filter_loops(cr, cim, tr, ti)
        track("deep_filter", df_out.re.data[0], df_ref.real)
        track("deep_filter", df_out.im.data[0], df_ref.imag)

        # LSTM vs scalar recurrence
        i_d, h_d = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        spec_l = rand_lstm_spec(rng, i_d, h_d)
        xs = rng.normal(size=(int(rng.integers(2, 6)), i_d))
        y_l, _ = lstm_forward(xs, spec_l)
        wgt = spec_l.weights
        y_ref, _, _ = lstm_loops(xs, wgt["w_ih"], wgt["w_hh"], wgt["b_ih"],
                                 wgt["b_hh"])
        track("lstm", y_l.data, y_ref)

        # complex LSTM vs four scalar recurrences plus a complex projection
        d_c, h_c = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        sr = rand_lstm_spec(rng, d_c, h_c)
        si_ = rand_lstm_spec(rng, d_c, h_c)
        pr, pi = 0.4 * rng.normal(size=(2, d_c, h_c))
        br, bi = 0.4 * rng.normal(size=(2, d_c))
        xr, xi = rng.normal(size=(2, 4, d_c))
        cl_out, _ = complex_lstm(ComplexPair(xr, xi),
                                 ComplexLstmParams(sr, si_, pr, pi, br, bi))

        def run(sp, inp):
            w = sp.weights
            y, _, _ = lstm_loops(inp, w["w_ih"], w["w_hh"], w["b_ih"], w["b_hh"])
            return y

        lre = run(sr, xr) - run(si_, xi)
        lim = run(sr, xi) + run(si_, xr)
        ref_re = lre @ pr.T - lim @ pi.T + br
        ref_im = lim @ pr.T + lre @ pi.T + bi
        track("complex_lstm", cl_out.re.data, ref_re)
        track("complex_lstm", cl_out.im.data, ref_im)

        # F-T block vs per-frame / per-bin scalar recurrences
        c_ft, h_ft = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        f_ft, t_ft = int(rng.integers(2, 4)), int(rng.integers(2, 4))

        def ft_params():
            return FtLstmParams(
                f_spec=rand_lstm_spec(rng, c_ft, h_ft, True),
                t_spec=rand_lstm_spec(rng, c_ft, h_ft, False),
                proj_f_w=0.4 * rng.normal(size=(c_ft, 2 * h_ft)),
                proj_f_b=0.4 * rng.normal(size=c_ft),
                proj_t_w=0.4 * rng.normal(size=(c_ft, h_ft)),
                proj_t_b=0.4 * rng.normal(size=c_ft))

        p_re, p_im = ft_params(), ft_params()
        hx = rng.normal(size=(2, c_ft, f_ft, t_ft))
        ft_out, _ = ft_lstm_block(ComplexPair(hx[0], hx[1]), p_re, p_im)

        def ft_oracle(xp, p):
            w = p.f_spec.weights
            v = xp.copy()
            for tt in range(t_ft):
                seq = xp[:, :, tt].T  # (F, C)
                fwd = lstm_loops(seq, w["w_ih"], w["w_hh"], w["b_ih"], w["b_hh"])[0]
                back = lstm_loops(seq[::-1], w["w_ih_rev"], w["w_hh_rev"],
                                  w["b_ih_rev"], w["b_hh_rev"])[0][::-1]
                u = np.concatenate([fwd, back], axis=1) @ p.proj_f_w.T + p.proj_f_b
                v[:, :, tt] += u.T
            wt = p.t_spec.weights
            out = v.copy()
            for ff in range(f_ft):
                seq = v[:, ff, :].T  # (T, C)
                z = lstm_loops(seq, wt["w_ih"], wt["w_hh"], wt["b_ih"],
                               wt["b_hh"])[0]
                out[:, ff, :] += (z @ p.proj_t_w.T + p.proj_t_b).T
            return out

        track("ft_lstm", ft_out.re.data, ft_oracle(hx[0], p_re))
        track("ft_lstm", ft_out.im.data, ft_oracle(hx[1], p_im))

    wall = time.monotonic() - start
    worst_all = max(worst.values())
    report(3, "kernel oracles", worst_all < 1e-5 and wall < 60.0,
           "100 trials/kernel, worst abs err "
           + ", ".join(f"{k}={v:.1e}" for k, v in worst.items())
           + f", {wall:.1f} s < 60 s")


def test_04_gradient_suite():
    start = time.monotonic()
    results = run_gradient_suite(seed=0)
    wall = time.monotonic() - start
    worst = max(results.values())
    report(4, "gradient suite", worst < 1e-4 and wall < 300.0,
           f"{len(results)} checks incl. composed loss, worst rel err "
           f"{worst:.2e} < 1e-4, {wall:.0f} s < 300 s")


def test_05_stft_round_trip():
    cfg = StftConfig()
    ok_cola, const = check_cola(cfg.window, cfg.window, cfg.hop, rtol=1e-10)
    rng = np.random.default_rng(0)
    x = rng.normal(size=2 * RATE)
    y = istft(stft(AudioBuffer(x), cfg)).samples
    lo, hi = cfg.win_len, len(x) - cfg.win_len
    err = np.linalg.norm(y[lo:hi] - x[lo:hi]) / np.linalg.norm(x[lo:hi])
    report(5, "stft round trip",
           err < 1e-6 and ok_cola and abs(const - 1.0) < 1e-10,
           f"interior rel L2 {err:.2e} < 1e-6, COLA const off by "
           f"{abs(const - 1.0):.1e} < 1e-10")


def test_06_ideal_crm_reconstruction():
    rng = np.random.default_rng(1)
    cfg = StftConfig()
    y = ComplexSpec(rng.normal(size=(50, 161)), rng.normal(size=(50, 161)), cfg)
    s = ComplexSpec(rng.normal(size=(50, 161)), rng.normal(size=(50, 161)), cfg)
    rec = apply_mask(y, ideal_crm(y, s))
    keep = np.hypot(y.re, y.im) > 1e-6
    rel = (np.hypot(rec.re - s.re, rec.im - s.im)
           / np.maximum(np.hypot(s.re, s.im), 1e-12))
    worst = float(np.max(rel[keep]))
    report(6, "ideal mask reconstruction", worst < 1e-6,
           f"worst rel err {worst:.2e} < 1e-6 where |Y| > 1e-6")


def test_07_metric_identities():
    rng = np.random.default_rng(2)
    s = rng.normal(size=RATE)
    checks = {}
    checks["erle_self"] = abs(erle(s, s))
    checks["erle_20db"] = abs(erle(s, s / 10.0) - 20.0)
    v = rng.normal(size=RATE)
    v -= (np.dot(v, s) / np.dot(s, s)) * s
    est = s + 0.1 * v
    checks["scale_inv"] = abs(si_snr(3.7 * est, s) - si_snr(est, s))
    checks["plan1"] = abs(seg_sisnr(est, s, ChunkPlan(chunk_counts=(1,)))
                          - si_snr(est, s))
    v10 = v * np.sqrt(np.dot(s, s) / np.dot(v, v)) * 10.0 ** (-0.5)
    checks["built_10db"] = abs(si_snr(s + v10, s) - 10.0)
    ok = (checks["erle_self"] < 1e-9 and checks["erle_20db"] < 1e-9
          and checks["scale_inv"] < 1e-9 and checks["plan1"] < 1e-9
          and checks["built_10db"] < 1e-6)
    report(7, "metric identities", ok,
           ", ".join(f"{k}={v:.1e}" for k, v in checks.items()))


def test_08_scene_calibration():
    corpus = synthetic_corpus(seed=0, n_near=4, n_far=4, n_noise=2, n_rirs=4,
                              clip_seconds=1.0, rir_len=0.3)
    ranges = SceneRanges()
    rng = np.random.default_rng(3)
    worst_ser = worst_snr = 0.0
    made = 0
    while made < 1000:
        try:
            ex = synthesize(sample_recipe(rng, ranges, corpus), corpus)
        except ValueError:
            continue
        made += 1
        if ex.measured_ser_db is not None:
            worst_ser = max(worst_ser, abs(ex.measured_ser_db - ex.recipe.ser_db))
        if ex.measured_snr_db is not None:
            worst_snr = max(worst_snr, abs(ex.measured_snr_db - ex.recipe.snr_db))

    n = 10_000
    rng2 = np.random.default_rng(4)
    counts = dict.fromkeys(("farend", "noise", "reverb", "dip"), 0)
    for _ in range(n):
        r = sample_recipe(rng2, ranges, corpus)
        counts["farend"] += r.farend_zeroed
        counts["noise"] += r.noise_zeroed
        counts["reverb"] += r.reverb_applied
        counts["dip"] += r.gain_dip is not None
    probs = {"farend": 0.30, "noise": 0.50, "reverb": 0.50, "dip": 0.20}
    prob_ok = all(
        abs(counts[k] / n - p) <= 3.0 * np.sqrt(p * (1 - p) / n)
        for k, p in probs.items())

    room = RoomSpec(dims=(8.0, 5.0, 3.0), rt60=0.4,
                    source_pos=(1.0, 2.5, 1.5), mic_pos=(4.43, 2.5, 1.5))
    rir = generate_rir(room, highpass_hz=0.0)
    first = int(np.flatnonzero(np.abs(rir.samples) > 1e-12)[0])
    rt = schroeder_rt60(generate_rir(room))
    ok = (worst_ser <= 0.1 and worst_snr <= 0.1 and prob_ok
          and abs(first - 160) <= 1 and abs(rt - 0.4) <= 0.08)
    report(8, "scene calibration", ok,
           f"1000 scenes worst |SER err| {worst_ser:.3f} / |SNR err| "
           f"{worst_snr:.3f} <= 0.1 dB; factor rates within 3 sigma of "
           f"(.30/.50/.50/.20) over 10k draws; direct path {first} vs 160 "
           f"(+-1); RT60 {rt:.3f} s vs 0.400 (+-20%)")


def test_09_streaming_equivalence():
    store = init_weights(DESK, seed=0)
    rng = np.random.default_rng(5)
    n = RATE
    y = 0.1 * rng.normal(size=n)
    x = 0.1 * rng.normal(size=n)
    _, offline = forward(AudioBuffer(y), AudioBuffer(x), store, DESK)
    sess = StreamingSession(store, DESK)
    hop = DESK.stft.hop
    out = [sess.feed(y[i:i + hop], x[i:i + hop]) for i in range(0, n, hop)]
    out.append(sess.flush())
    streamed = np.concatenate(out)
    diff = float(np.max(np.abs(streamed - offline.samples)))

    # causality: feed an impulse, nothing may precede it beyond the latency
    pos = 3200
    imp = np.zeros(n)
    imp[pos] = 1.0
    sess2 = StreamingSession(store, DESK)
    out2 = [sess2.feed(imp[i:i + hop], np.zeros(hop)) for i in range(0, n, hop)]
    out2.append(sess2.flush())
    s2 = np.concatenate(out2)
    lead = float(np.max(np.abs(s2[:pos - sess2.algorithmic_latency])))
    lat = sess2.algorithmic_latency
    report(9, "streaming", diff < 1e-5 and lat <= 640 and lead < 1e-12,
           f"stream-offline diff {diff:.1e} < 1e-5, latency {lat} <= 640 "
           f"samples, pre-impulse output {lead:.1e} < 1e-12")


def test_10_toy_training():
    start = time.monotonic()
    cfg = ModelConfig.desk_mode()
    store = init_weights(cfg, seed=0)
    corpus = synthetic_corpus(seed=0, clip_seconds=1.5, n_rirs=2)
    rng = np.random.default_rng(0)
    examples = make_training_examples(rng, corpus, 8, seconds=1.0)
    plan = ChunkPlan()

    def mean_score(weights):
        vals = []
        for ex in examples:
            _, s_hat = forward(ex.y, ex.x, weights, cfg)
            vals.append(seg_sisnr(s_hat.samples[:len(ex.s)], ex.s.samples, plan))
        return float(np.mean(vals))

    before = mean_score(store)
    trained, log = toy_train(store, cfg, examples, steps=50, lr=1e-3, plan=plan)
    after = mean_score(trained)
    gain = after - before
    # determinism: a rerun must reproduce the loss trace exactly
    _, log2 = toy_train(store, cfg, examples, steps=2, lr=1e-3, plan=plan)
    det = all(log[i]["loss"] == log2[i]["loss"] for i in range(2))
    wall = time.monotonic() - start
    report(10, "toy training", gain >= 3.0 and det and wall < 900.0,
           f"50 Adam steps: Seg-SiSNR {before:.2f} -> {after:.2f} dB "
           f"(gain {gain:.2f} >= 3), deterministic={det}, "
           f"{wall / 60.0:.1f} min < 15 min")


def test_11_real_time_factor():
    store = init_weights(PAPER, seed=0)
    rng = np.random.default_rng(6)
    warm = AudioBuffer(0.1 * rng.normal(size=RATE))
    forward(warm, warm, store, PAPER)
    seconds = 10.0
    y = AudioBuffer(0.1 * rng.normal(size=int(seconds * RATE)))
    x = AudioBuffer(0.1 * rng.normal(size=int(seconds * RATE)))
    with _single_threaded() as pinned:
        t0 = time.perf_counter()
        forward(y, x, store, PAPER)
        wall = time.perf_counter() - t0
    rtf = wall / seconds
    report(11, "real-time factor", rtf < 1.0,
           f"single-threaded paper-mode RTF {rtf:.3f} < 1.0 "
           f"({wall:.1f} s for {seconds:.0f} s audio, threads_pinned {pinned})")
