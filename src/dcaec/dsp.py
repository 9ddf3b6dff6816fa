"""Framing, windowing, STFT/iSTFT and sample-domain utilities.

All processing runs at 16 kHz with a 320-sample (20 ms) window, 160-sample
(10 ms) hop and a 320-point DFT, giving 161 one-sided frequency bins.  The
analysis and synthesis windows are both square-root periodic Hann, which is
constant-overlap-add exact at 50% overlap, so istft(stft(x)) reconstructs the
interior of x exactly.

``synthesis`` (inverse DFT, window, overlap-add) is the one synthesis for
offline ``istft``, the streaming session's frames and the training
objective: it takes arrays or autodiff Vars, so the loss is differentiated
through the same code that produces the output signal.
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .autodiff import pad

RATE = 16000


class SampleRateError(ValueError):
    pass


@dataclass
class AudioBuffer:
    """Mono time-domain signal, nominal amplitude range [-1, 1]."""

    samples: np.ndarray
    sample_rate: int = RATE

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64).reshape(-1)
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")

    def __len__(self):
        return self.samples.size

    @property
    def duration(self):
        return self.samples.size / self.sample_rate


def sqrt_hann(n):
    """Square-root periodic Hann window of length n."""
    return np.sqrt(0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n))


def cola_profile(window_a, window_s, hop, n_shifts=8):
    """Sum of w_a*w_s over hop shifts; constant on the interior iff COLA."""
    n = len(window_a)
    prod = window_a * window_s
    total = np.zeros(n + (n_shifts - 1) * hop)
    for k in range(n_shifts):
        total[k * hop:k * hop + n] += prod
    return total[n - hop:-(n - hop)] if n > hop else total


def check_cola(window_a, window_s, hop, rtol=1e-10):
    interior = cola_profile(window_a, window_s, hop)
    c = np.median(interior)
    return np.max(np.abs(interior - c)) <= rtol * abs(c), c


@dataclass
class StftConfig:
    """Analysis/synthesis configuration; defaults are the 20 ms / 10 ms setup."""

    win_len: int = 320
    hop: int = 160
    fft_size: int = 320
    window: np.ndarray = field(default=None)
    sample_rate: int = RATE

    def __post_init__(self):
        if self.window is None:
            self.window = sqrt_hann(self.win_len)
        self.window = np.asarray(self.window, dtype=np.float64)
        if self.fft_size < self.win_len:
            raise ValueError("fft_size must be >= win_len")
        if self.win_len % self.hop != 0:
            raise ValueError("hop must divide win_len")
        if len(self.window) != self.win_len:
            raise ValueError("window length mismatch")
        ok, _ = check_cola(self.window, self.window, self.hop)
        if not ok:
            raise ValueError("window does not satisfy COLA at this hop")

    @property
    def n_bins(self):
        return self.fft_size // 2 + 1

    def n_frames(self, n_samples):
        if n_samples == 0:
            return 0
        if n_samples <= self.win_len:
            return 1
        return 1 + int(np.ceil((n_samples - self.win_len) / self.hop))


@dataclass
class ComplexSpec:
    """One-sided complex spectrogram, frames along axis 0."""

    re: np.ndarray
    im: np.ndarray
    cfg: StftConfig

    def __post_init__(self):
        self.re = np.asarray(self.re, dtype=np.float64)
        self.im = np.asarray(self.im, dtype=np.float64)
        if self.re.shape != self.im.shape:
            raise ValueError("re/im shape mismatch")
        if self.re.ndim != 2 or (self.re.shape[0] and self.re.shape[1] != self.cfg.n_bins):
            raise ValueError("expected (T, %d) spectrogram" % self.cfg.n_bins)

    @property
    def n_frames(self):
        return self.re.shape[0]


def frame_signal(x, cfg):
    """Cut x (..., n) into windowed frames (..., T, win_len); tail zero-padded."""
    t = cfg.n_frames(x.shape[-1])
    n = max(t - 1, 0) * cfg.hop + cfg.win_len
    if n > x.shape[-1]:
        x = np.pad(x, [(0, 0)] * (x.ndim - 1) + [(0, n - x.shape[-1])])
    frames = np.lib.stride_tricks.sliding_window_view(x, cfg.win_len, axis=-1)
    return frames[..., :t * cfg.hop:cfg.hop, :] * cfg.window


def stft(x: AudioBuffer, cfg: StftConfig) -> ComplexSpec:
    """One-sided STFT; bin f of frame t is the DFT of the windowed frame."""
    if x.sample_rate != cfg.sample_rate:
        raise SampleRateError(
            f"sample rate {x.sample_rate} != configured {cfg.sample_rate}")
    frames = frame_signal(x.samples, cfg)
    spec = np.fft.rfft(frames, n=cfg.fft_size, axis=1)
    return ComplexSpec(spec.real, spec.imag, cfg)


def synthesis(re, im, cfg: StftConfig):
    """Overlap-add synthesis of a (T >= 1, F) spectrum, arrays or Vars.

    Returns the (T-1)*hop + win_len samples of the windowed inverse DFTs.
    """
    ci, si = idft_matrices(cfg.fft_size)
    frames = re @ ci + im @ si          # (T, fft_size)
    frames = frames[:, :cfg.win_len] * cfg.window
    t = frames.shape[0]
    n_out = (t - 1) * cfg.hop + cfg.win_len
    # frames k, k + r, k + 2r, ... (r = win_len / hop) do not overlap, so
    # overlap-add is a sum of r shifted runs of frames
    r = cfg.win_len // cfg.hop
    runs = [frames[k::r].reshape(-1) for k in range(min(r, t))]
    runs = [pad(run, ((k * cfg.hop, n_out - k * cfg.hop - run.shape[0]),))
            for k, run in enumerate(runs)]
    return sum(runs[1:], runs[0])


def istft(s: ComplexSpec) -> AudioBuffer:
    """Overlap-add synthesis; output length (T-1)*hop + win_len."""
    if s.n_frames == 0:
        return AudioBuffer(np.zeros(0), s.cfg.sample_rate)
    return AudioBuffer(synthesis(s.re, s.im, s.cfg), s.cfg.sample_rate)


def apply_delay(x: AudioBuffer, delay: int) -> AudioBuffer:
    """Prepend `delay` zero samples."""
    if delay < 0:
        raise ValueError("delay must be non-negative")
    return AudioBuffer(np.concatenate([np.zeros(delay), x.samples]), x.sample_rate)


def dft_matrices(fft_size):
    """One-sided DFT as matrices C, S of shape (n_bins, fft_size).

    For frames (T, fft_size): re = frames @ C.T, im = frames @ S.T, matching
    np.fft.rfft.
    """
    n = np.arange(fft_size)
    k = np.arange(fft_size // 2 + 1)[:, None]
    ang = 2.0 * np.pi * k * n / fft_size
    return np.cos(ang), -np.sin(ang)


@lru_cache(maxsize=None)
def idft_matrices(fft_size):
    """Inverse one-sided DFT matrices Ci, Si of shape (n_bins, fft_size).

    frames = re @ Ci + im @ Si, matching np.fft.irfft (imaginary parts of the
    DC and Nyquist bins are multiplied by zero rows).  Cached, so every caller
    shares one read-only pair per size.
    """
    cos_m, sin_m = dft_matrices(fft_size)
    w = np.full(fft_size // 2 + 1, 2.0)
    w[0] = 1.0
    if fft_size % 2 == 0:
        w[-1] = 1.0
    out = (w[:, None] * cos_m) / fft_size, (w[:, None] * sin_m) / fft_size
    for m in out:
        m.flags.writeable = False
    return out
