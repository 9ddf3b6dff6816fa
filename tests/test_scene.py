"""Scene synthesis: RIR physics, ratio control, probability factors."""

import numpy as np
import pytest

from dcaec.dsp import RATE, AudioBuffer
from dcaec.metrics import measure_ratio
from dcaec.scene import (Corpus, RoomSpec, SceneRanges, SceneRecipe,
                         _convolve, _fft_size, _first_order, _highpass,
                         active_mask, generate_rir, make_training_examples,
                         mix_at_ratio, sabine_absorption, sample_recipe,
                         sample_room, schroeder_rt60, synthesize,
                         synthetic_corpus)

ROOM = RoomSpec(dims=(6.0, 4.0, 3.0), rt60=0.4,
                source_pos=(1.0, 1.0, 1.5), mic_pos=(4.0, 2.6, 1.2))


def test_room_validation():
    with pytest.raises(ValueError):
        RoomSpec(dims=(6, 4, 3), rt60=0.4, source_pos=(7, 1, 1), mic_pos=(1, 1, 1))
    with pytest.raises(ValueError):
        RoomSpec(dims=(6, 4, 3), rt60=-0.1, source_pos=(1, 1, 1), mic_pos=(2, 1, 1))
    with pytest.raises(ValueError):
        # RT60 so large the required absorption leaves the Sabine range
        sabine_absorption(RoomSpec(dims=(6, 4, 3), rt60=0.01,
                                   source_pos=(1, 1, 1), mic_pos=(2, 1, 1)))


def test_direct_path_arrival_sample():
    d = np.linalg.norm(np.subtract(ROOM.source_pos, ROOM.mic_pos))
    expect = int(round(d / ROOM.c * RATE))
    rir = generate_rir(ROOM, highpass_hz=0.0)
    first = np.flatnonzero(np.abs(rir.samples) > 1e-12)[0]
    assert abs(first - expect) <= 1


def test_direct_path_known_distance():
    # 3.43 m at 343 m/s is exactly 10 ms -> sample 160
    room = RoomSpec(dims=(8.0, 5.0, 3.0), rt60=0.4,
                    source_pos=(1.0, 2.5, 1.5), mic_pos=(4.43, 2.5, 1.5))
    rir = generate_rir(room, highpass_hz=0.0)
    first = np.flatnonzero(np.abs(rir.samples) > 1e-12)[0]
    assert abs(first - 160) <= 1


def test_direct_tap_amplitude_inverse_distance():
    rir = generate_rir(ROOM, highpass_hz=0.0)
    d = np.linalg.norm(np.subtract(ROOM.source_pos, ROOM.mic_pos))
    first = np.flatnonzero(np.abs(rir.samples) > 1e-12)[0]
    assert rir.samples[first] == pytest.approx(1.0 / d, rel=1e-9)


def test_rt60_within_tolerance():
    rir = generate_rir(ROOM)
    assert schroeder_rt60(rir) == pytest.approx(0.4, rel=0.2)


def test_rt60_tracks_target_across_rooms():
    rng = np.random.default_rng(0)
    for _ in range(3):
        room = sample_room(rng)
        got = schroeder_rt60(generate_rir(room))
        assert got == pytest.approx(room.rt60, rel=0.2)


def test_schroeder_rejects_instant_decay():
    # a lone impulse leaves no samples inside the -5..-25 dB fit range
    d = np.zeros(8000)
    d[0] = 1.0
    with pytest.raises(ValueError):
        schroeder_rt60(AudioBuffer(d))


def test_mix_at_ratio_exact():
    rng = np.random.default_rng(1)
    t = rng.normal(size=8000)
    i = rng.normal(size=8000)
    region = np.ones(8000, dtype=bool)
    for db in (-13.0, 0.0, 10.0):
        scaled = mix_at_ratio(t, i, db, region)
        assert measure_ratio(t, scaled) == pytest.approx(db, abs=1e-9)
    same = mix_at_ratio(t, t.copy(), 0.0, region)
    np.testing.assert_allclose(same, t, atol=1e-12)
    with pytest.raises(ValueError):
        mix_at_ratio(t, np.zeros(8000), 0.0, region)
    with pytest.raises(ValueError):
        mix_at_ratio(t, i, 0.0, np.zeros(8000, dtype=bool))


def test_active_mask_flags_silence():
    x = np.zeros(1600)
    x[:800] = 1.0
    m = active_mask(x)
    assert m[:800].all()
    assert not m[800:].any()


# ---- oracles: per-sample, per-frame and per-image references ------------


def _loop_lowpass(x):
    out = np.empty(len(x))
    acc = 0.0
    for i in range(len(x)):
        acc = 0.85 * acc + 0.15 * x[i]
        out[i] = acc
    return out


def _loop_highpass(x, fc, fs):
    rc = 1.0 / (2.0 * np.pi * fc)
    a = rc / (rc + 1.0 / fs)
    y = np.empty_like(x)
    prev_x = prev_y = 0.0
    for i in range(len(x)):
        prev_y = a * (prev_y + x[i] - prev_x)
        prev_x = x[i]
        y[i] = prev_y
    return y


def _loop_image_taps(room):
    """Image taps before the high-pass: a linalg.norm per image, add.at per parity."""
    beta = np.sqrt(1.0 - sabine_absorption(room))
    fs = room.sample_rate
    dims = np.asarray(room.dims, dtype=float)
    src = np.asarray(room.source_pos, dtype=float)
    mic = np.asarray(room.mic_pos, dtype=float)
    n_taps = int(round(room.rir_len * fs))
    max_dist = room.rir_len * room.c
    n_max = np.ceil(max_dist / (2.0 * dims)).astype(int) + 1
    grids = [np.arange(-n, n + 1) for n in n_max]
    nx, ny, nz = np.meshgrid(*grids, indexing="ij")
    orders = np.stack([nx, ny, nz], axis=-1).reshape(-1, 3)
    h = np.zeros(n_taps)
    for px in (0, 1):
        for py in (0, 1):
            for pz in (0, 1):
                p = np.array([px, py, pz])
                pos = (1 - 2 * p) * src + 2.0 * orders * dims
                dist = np.linalg.norm(pos - mic, axis=1)
                keep = (dist <= max_dist) & (dist > 1e-6)
                dist = dist[keep]
                refl = (np.abs(orders[keep] - p) + np.abs(orders[keep])).sum(axis=1)
                amp = beta ** refl / dist
                delay = np.rint(dist / room.c * fs).astype(int)
                inside = delay < n_taps
                np.add.at(h, delay[inside], amp[inside])
    return h


def _loop_active_mask(x, frame=160, floor_db=-60.0):
    floor = 10.0 ** (floor_db / 10.0)
    mask = np.zeros(len(x), dtype=bool)
    for i in range(0, len(x), frame):
        seg = x[i:i + frame]
        if np.mean(seg ** 2) >= floor:
            mask[i:i + len(seg)] = True
    return mask


def test_fft_size_is_the_next_5_smooth_number():
    def smooth(k):
        for f in (2, 3, 5):
            while k % f == 0:
                k //= f
        return k == 1
    for n in list(range(1, 2000)) + [23999, 71999, 100003]:
        size = _fft_size(n)
        assert size >= n and smooth(size)
        assert not any(smooth(k) for k in range(n, size))


@pytest.mark.parametrize("n, m", [(1, 1), (1, 9), (7, 1), (5, 40), (40, 5),
                                  (1000, 1000), (4000, 8000), (16000, 8000)])
def test_convolve_matches_direct(n, m):
    rng = np.random.default_rng(n + m)
    x, h = rng.normal(size=n), rng.normal(size=m)
    ref = np.convolve(x, h)[:n]
    got = _convolve(x, h)
    assert got.shape == (n,)
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12 * np.abs(ref).max())


@pytest.mark.parametrize("lead, trail", [(0, 0), (30, 0), (0, 30), (30, 30)])
def test_convolve_is_exactly_zero_where_direct_is(lead, trail):
    """Silent stretches stay exact zeros, not FFT roundoff, also where only
    h's leading or trailing zero taps meet the signal."""
    rng = np.random.default_rng(lead + 2 * trail)
    x = rng.normal(size=3000)
    x[500:1500] = 0.0           # silence longer than h
    x[2000:2060] = 0.0          # silence shorter than h
    x[2900:] = 0.0
    h = np.concatenate([np.zeros(lead), rng.normal(size=100), np.zeros(trail)])
    ref = np.convolve(x, h)[:len(x)]
    got = _convolve(x, h)
    np.testing.assert_array_equal(got == 0.0, ref == 0.0)
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12 * np.abs(ref).max())
    assert not _convolve(x, np.zeros(5)).any()
    assert not _convolve(np.zeros(50), h).any()


@pytest.mark.parametrize("n", [1, 5, 300, 20000])
def test_first_order_filters_match_recurrence(n):
    rng = np.random.default_rng(n)
    x = rng.normal(size=n)
    x[n // 2:] *= 1e-3  # a loud start whose tail must decay away
    lowpass = _loop_lowpass(x)
    np.testing.assert_allclose(_first_order(x, 0.15, 0.0, 0.85), lowpass,
                               rtol=0, atol=1e-12 * np.abs(lowpass).max())
    for fc in (100.0, 20.0):
        highpass = _loop_highpass(x, fc, RATE)
        np.testing.assert_allclose(_highpass(x, fc, RATE), highpass, rtol=0,
                                   atol=1e-12 * np.abs(highpass).max())


def test_highpassed_rir_matches_recurrence():
    taps = generate_rir(ROOM, highpass_hz=0.0).samples
    ref = _loop_highpass(taps, 100.0, RATE)
    np.testing.assert_allclose(generate_rir(ROOM).samples, ref, rtol=0,
                               atol=1e-12 * np.abs(ref).max())


def test_image_taps_bitwise_equal_to_image_loop():
    rng = np.random.default_rng(6)
    for rir_len in (0.5, 0.3, 0.5):
        room = sample_room(rng, rir_len)
        np.testing.assert_array_equal(generate_rir(room, highpass_hz=0).samples,
                                      _loop_image_taps(room))


@pytest.mark.parametrize("n", [0, 1, 159, 160, 161, 1000, 1600])
def test_active_mask_matches_frame_loop(n):
    rng = np.random.default_rng(n)
    # frame energies spread around the -60 dB floor, down to exact silence
    level = 10.0 ** rng.uniform(-4.5, -1.5, size=n // 160 + 1)
    x = rng.normal(size=n) * level.repeat(160)[:n]
    x[n // 3:n // 2] = 0.0
    np.testing.assert_array_equal(active_mask(x), _loop_active_mask(x))
    np.testing.assert_array_equal(active_mask(x, frame=64, floor_db=-40.0),
                                  _loop_active_mask(x, frame=64, floor_db=-40.0))


def _single_clip_corpus(seed=0):
    return synthetic_corpus(seed=seed, n_near=1, n_far=1, n_noise=1, n_rirs=2)


def _fixed_recipe(corpus, **over):
    base = dict(near_clip="near000", far_clip="far000", noise_clip="noise000",
                rir_id=0, echo_rir_id=1, ser_db=0.0, snr_db=20.0,
                delay_samples=0, farend_zeroed=False, noise_zeroed=False,
                reverb_applied=False, gain_dip=None, norm_peaks=(0.5, 0.5),
                rng_seed=0)
    base.update(over)
    return SceneRecipe(**base)


def test_mixture_is_exact_sum():
    corpus = _single_clip_corpus()
    ex = synthesize(_fixed_recipe(corpus, delay_samples=7), corpus)
    # the shared peak-norm factor keeps the sum exact to machine precision
    np.testing.assert_allclose(
        ex.y.samples, ex.s.samples + ex.d.samples + ex.v.samples,
        atol=2.3e-16, rtol=0)


def test_requested_ratios_are_measured():
    corpus = _single_clip_corpus()
    ex = synthesize(_fixed_recipe(corpus, ser_db=6.83, snr_db=12.5), corpus)
    assert ex.measured_ser_db == pytest.approx(6.83, abs=0.1)
    assert ex.measured_snr_db == pytest.approx(12.5, abs=0.1)


def test_farend_zeroed_scene():
    corpus = _single_clip_corpus()
    ex = synthesize(_fixed_recipe(corpus, farend_zeroed=True), corpus)
    assert not ex.d.samples.any()
    assert not np.abs(ex.x.samples).max()
    np.testing.assert_allclose(ex.y.samples, ex.s.samples + ex.v.samples,
                               atol=2.3e-16, rtol=0)
    assert ex.measured_ser_db is None


def test_noise_zeroed_scene():
    corpus = _single_clip_corpus()
    ex = synthesize(_fixed_recipe(corpus, noise_zeroed=True), corpus)
    assert not ex.v.samples.any()
    assert ex.measured_snr_db is None


def test_delay_shifts_mic_path_only():
    corpus = _single_clip_corpus()
    d0 = synthesize(_fixed_recipe(corpus), corpus)
    d160 = synthesize(_fixed_recipe(corpus, delay_samples=160), corpus)
    assert len(d160.y) == len(d0.y) + 160
    assert not d160.y.samples[:160].any()
    # the far-end reference is not delayed, only padded at the tail
    n = len(d0.x)
    np.testing.assert_allclose(d160.x.samples[:n], d0.x.samples, atol=1e-12)


def test_peak_normalization_targets():
    corpus = _single_clip_corpus()
    ex = synthesize(_fixed_recipe(corpus, norm_peaks=(0.7, 0.4)), corpus)
    assert np.max(np.abs(ex.y.samples)) == pytest.approx(0.7, abs=1e-9)
    assert np.max(np.abs(ex.x.samples)) == pytest.approx(0.4, abs=1e-9)


def test_gain_dip_attenuates_echo():
    corpus = _single_clip_corpus()
    from dcaec.scene import GainDip
    dip = GainDip(start=0, duration=8000, atten_db=20.0, target="d")
    base = synthesize(_fixed_recipe(corpus), corpus)
    dipped = synthesize(_fixed_recipe(corpus, gain_dip=dip), corpus)
    e_base = np.dot(base.d.samples[:8000], base.d.samples[:8000])
    e_dip = np.dot(dipped.d.samples[:8000], dipped.d.samples[:8000])
    assert e_dip < e_base  # rescaling blurs the exact 20 dB, but it must drop


def test_synthesis_deterministic():
    corpus = _single_clip_corpus()
    r = _fixed_recipe(corpus, ser_db=-3.0)
    a = synthesize(r, corpus)
    b = synthesize(r, corpus)
    for name in ("s", "x", "d", "v", "y"):
        np.testing.assert_array_equal(getattr(a, name).samples,
                                      getattr(b, name).samples)


def test_recipe_dict_round_trip():
    corpus = _single_clip_corpus()
    from dcaec.scene import GainDip
    r = _fixed_recipe(corpus, gain_dip=GainDip(10, 100, 25.0, "x"))
    back = SceneRecipe.from_dict(r.to_dict())
    assert back == r
    plain = _fixed_recipe(corpus)
    assert SceneRecipe.from_dict(plain.to_dict()) == plain


def test_probability_factors_over_many_draws():
    rng = np.random.default_rng(2)
    corpus = _single_clip_corpus()
    ranges = SceneRanges()
    n = 10_000
    counts = {"farend": 0, "noise": 0, "reverb": 0, "dip": 0}
    for _ in range(n):
        r = sample_recipe(rng, ranges, corpus)
        counts["farend"] += r.farend_zeroed
        counts["noise"] += r.noise_zeroed
        counts["reverb"] += r.reverb_applied
        counts["dip"] += r.gain_dip is not None
        assert -13.0 <= r.ser_db <= 10.0
        assert 5.0 <= r.snr_db <= 20.0
        assert 0 <= r.delay_samples <= 1600
    for key, p in (("farend", 0.30), ("noise", 0.50),
                   ("reverb", 0.50), ("dip", 0.20)):
        assert abs(counts[key] / n - p) < 0.02


def test_make_training_examples_fixed_length_non_silent():
    rng = np.random.default_rng(3)
    corpus = synthetic_corpus(seed=4, clip_seconds=1.5)
    exs = make_training_examples(rng, corpus, 4, seconds=1.0)
    assert len(exs) == 4
    for ex in exs:
        assert len(ex.y) == RATE
        assert len(ex.x) == RATE
        assert np.mean(ex.s.samples ** 2) >= 1e-6


def test_synthetic_corpus_structure():
    corpus = synthetic_corpus(seed=5, n_near=2, n_far=3, n_noise=1, n_rirs=2,
                              clip_seconds=1.0)
    assert len(corpus.near) == 2 and len(corpus.far) == 3
    assert len(corpus.rirs) == 2
    for clip in corpus.near.values():
        assert len(clip) == RATE
        assert np.max(np.abs(clip.samples)) <= 1.0 + 1e-12
