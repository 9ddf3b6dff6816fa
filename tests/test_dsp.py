"""STFT analysis/synthesis against naive-DFT and round-trip oracles."""

import numpy as np
import pytest

from dcaec.dsp import (RATE, AudioBuffer, ComplexSpec, SampleRateError,
                       StftConfig, apply_delay, check_cola, dft_matrices,
                       frame_signal, idft_matrices, istft, sqrt_hann, stft,
                       synthesis)

CFG = StftConfig()


def test_default_geometry():
    assert CFG.win_len == 320
    assert CFG.hop == 160
    assert CFG.n_bins == 161
    assert CFG.n_frames(RATE) == 99


def test_cola_constant():
    ok, c = check_cola(CFG.window, CFG.window, CFG.hop, rtol=1e-10)
    assert ok
    assert abs(c - 1.0) < 1e-10


def test_sqrt_hann_squares_to_hann():
    w = sqrt_hann(320)
    hann = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(320) / 320)
    np.testing.assert_allclose(w ** 2, hann, atol=1e-12)


def test_invalid_configs_rejected():
    with pytest.raises(ValueError):
        StftConfig(win_len=320, hop=160, fft_size=256)
    with pytest.raises(ValueError):
        StftConfig(win_len=320, hop=150, fft_size=320)
    with pytest.raises(ValueError):
        rng = np.random.default_rng(0)
        StftConfig(win_len=320, hop=160, fft_size=320,
                   window=0.5 + rng.uniform(size=320))  # breaks overlap-add


def test_zero_buffer_zero_spectrum():
    spec = stft(AudioBuffer(np.zeros(RATE)), CFG)
    assert spec.n_frames == 99
    assert not spec.re.any() and not spec.im.any()


def test_empty_buffer():
    spec = stft(AudioBuffer(np.zeros(0)), CFG)
    assert spec.n_frames == 0
    assert len(istft(spec)) == 0


def test_sample_rate_rejected():
    with pytest.raises(SampleRateError):
        stft(AudioBuffer(np.zeros(100), sample_rate=44100), CFG)


def test_single_window_matches_naive_dft():
    rng = np.random.default_rng(0)
    x = rng.normal(size=CFG.win_len)
    spec = stft(AudioBuffer(x), CFG)
    w = x * CFG.window
    n = np.arange(CFG.fft_size)
    for k in (0, 1, 17, 80, 160):
        ref = np.sum(w * np.exp(-2j * np.pi * k * n[: CFG.win_len] / CFG.fft_size))
        assert abs((spec.re[0, k] + 1j * spec.im[0, k]) - ref) < 1e-9


def test_on_bin_cosine_concentrates_energy():
    k = 40  # bin 40 -> 2 kHz, period divides the window
    f = k * RATE / CFG.fft_size
    t = np.arange(RATE) / RATE
    spec = stft(AudioBuffer(np.cos(2 * np.pi * f * t)), CFG)
    mag = np.hypot(spec.re, spec.im)
    frame = mag[50]
    assert np.argmax(frame) == k
    # window mainlobe covers the immediate neighbours; beyond that the
    # spectrum drops by more than 20 dB and energy stays local
    others = np.delete(frame, [k - 1, k, k + 1])
    assert 20 * np.log10(np.max(others) / frame[k]) < -20.0
    e = frame ** 2
    assert e[k - 2:k + 3].sum() / e.sum() > 0.99


def test_round_trip_interior():
    rng = np.random.default_rng(1)
    x = rng.normal(size=2 * RATE)
    y = istft(stft(AudioBuffer(x), CFG)).samples
    lo, hi = CFG.win_len, len(x) - CFG.win_len
    err = np.linalg.norm(y[lo:hi] - x[lo:hi]) / np.linalg.norm(x[lo:hi])
    assert err < 1e-6


def test_round_trip_output_length():
    spec = stft(AudioBuffer(np.zeros(RATE)), CFG)
    assert len(istft(spec)) == (spec.n_frames - 1) * CFG.hop + CFG.win_len


def test_linearity():
    rng = np.random.default_rng(2)
    a = rng.normal(size=RATE)
    b = rng.normal(size=RATE)
    sa = stft(AudioBuffer(a), CFG)
    sb = stft(AudioBuffer(b), CFG)
    sab = stft(AudioBuffer(2.0 * a - 3.0 * b), CFG)
    np.testing.assert_allclose(sab.re, 2 * sa.re - 3 * sb.re, atol=1e-8)
    np.testing.assert_allclose(sab.im, 2 * sa.im - 3 * sb.im, atol=1e-8)


def test_conjugate_synthesis_is_real():
    rng = np.random.default_rng(3)
    spec = stft(AudioBuffer(rng.normal(size=RATE)), CFG)
    conj = ComplexSpec(spec.re, -spec.im, CFG)
    y = istft(conj).samples
    assert np.all(np.isfinite(y))
    assert y.dtype == np.float64  # conjugate of a real-signal DFT stays real


@pytest.mark.parametrize("n", [0, 1, 159, 320, 321, 480, 1000])
def test_frame_signal_matches_loop(n):
    rng = np.random.default_rng(n)
    x = rng.normal(size=(2, n))
    t = CFG.n_frames(n)
    want = np.zeros((2, t, CFG.win_len))
    for i in range(t):
        seg = x[:, i * CFG.hop:i * CFG.hop + CFG.win_len]
        want[:, i, :seg.shape[1]] = seg
    want *= CFG.window
    np.testing.assert_array_equal(frame_signal(x, CFG), want)
    np.testing.assert_array_equal(frame_signal(x[1], CFG), want[1])


def test_parseval_single_frame():
    rng = np.random.default_rng(4)
    x = rng.normal(size=CFG.win_len)
    frames = frame_signal(x, CFG)
    spec = np.fft.rfft(frames[0], n=CFG.fft_size)
    w = np.full(CFG.n_bins, 2.0)
    w[0] = w[-1] = 1.0
    lhs = np.sum(frames[0] ** 2)
    rhs = np.sum(w * np.abs(spec) ** 2) / CFG.fft_size
    assert abs(lhs - rhs) / lhs < 1e-10


def test_apply_delay():
    rng = np.random.default_rng(5)
    x = AudioBuffer(rng.normal(size=RATE))
    assert np.array_equal(apply_delay(x, 0).samples, x.samples)
    d = apply_delay(x, 1600)
    assert len(d) == RATE + 1600
    assert not d.samples[:1600].any()
    xc = np.correlate(d.samples, x.samples, mode="full")
    assert np.argmax(xc) - (len(x) - 1) == 1600
    with pytest.raises(ValueError):
        apply_delay(x, -1)


def test_dft_matrices_match_rfft():
    rng = np.random.default_rng(6)
    frames = rng.normal(size=(5, CFG.fft_size))
    c, s = dft_matrices(CFG.fft_size)
    ref = np.fft.rfft(frames, axis=1)
    np.testing.assert_allclose(frames @ c.T, ref.real, atol=1e-9)
    np.testing.assert_allclose(frames @ s.T, ref.imag, atol=1e-9)


def test_idft_matrices_match_irfft():
    rng = np.random.default_rng(7)
    spec = np.fft.rfft(rng.normal(size=(4, CFG.fft_size)), axis=1)
    ci, si = idft_matrices(CFG.fft_size)
    rec = spec.real @ ci + spec.imag @ si
    np.testing.assert_allclose(rec, np.fft.irfft(spec, n=CFG.fft_size, axis=1),
                               atol=1e-9)
    # cached: one shared pair per size, which no caller can write to
    assert idft_matrices(CFG.fft_size) == (ci, si)
    assert not ci.flags.writeable and not si.flags.writeable


def test_synthesis_of_one_frame_is_istft():
    """A streaming hop's synthesis (T = 1): the windowed inverse DFT."""
    rng = np.random.default_rng(8)
    spec = ComplexSpec(rng.normal(size=(1, CFG.n_bins)),
                       rng.normal(size=(1, CFG.n_bins)), CFG)
    out = synthesis(spec.re, spec.im, CFG)
    np.testing.assert_array_equal(out, istft(spec).samples)
    ref = np.fft.irfft(spec.re[0] + 1j * spec.im[0], n=CFG.fft_size)
    np.testing.assert_allclose(out, ref[:CFG.win_len] * CFG.window, atol=1e-12)
