"""Synthetic acoustic-scene generation.

Builds training/eval examples from near-end speech, far-end speech, echo and
noise: image-method room impulse responses, SER/SNR-controlled mixing, random
microphone delay, gain dips and peak normalization.  All randomness lives in
the recipe; synthesis is a pure function of (recipe, corpus).
"""

import itertools
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .dsp import RATE, AudioBuffer
from .metrics import measure_ratio

SPEED_OF_SOUND = 343.0


@dataclass
class RoomSpec:
    dims: tuple               # (a, b, h) metres
    rt60: float               # seconds
    source_pos: tuple
    mic_pos: tuple
    c: float = SPEED_OF_SOUND
    rir_len: float = 0.5
    sample_rate: int = RATE

    def __post_init__(self):
        dims = np.asarray(self.dims, dtype=float)
        for name, p in (("source_pos", self.source_pos), ("mic_pos", self.mic_pos)):
            p = np.asarray(p, dtype=float)
            if np.any(p <= 0) or np.any(p >= dims):
                raise ValueError(f"{name} must lie strictly inside the room")
        if self.rt60 <= 0 or self.rir_len <= 0:
            raise ValueError("rt60 and rir_len must be positive")


def sabine_absorption(room: RoomSpec):
    a, b, h = room.dims
    volume = a * b * h
    surface = 2.0 * (a * b + a * h + b * h)
    alpha = 0.161 * volume / (surface * room.rt60)
    if not 0.0 < alpha < 1.0:
        raise ValueError(
            f"infeasible room/RT60 combination (absorption {alpha:.3f})")
    return alpha


def _fft_size(n):
    """The smallest 2**a * 3**b * 5**c >= n (n >= 1): sizes the FFT is fast at."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << ((n - 1) // p35).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _convolve(x, h):
    """First len(x) samples of the linear convolution x * h, via the FFT.

    y[i] sums h's nonzero taps against x[i - last : i - first + 1].  Where
    that span of x is all zero, y[i] is exactly zero, as a direct convolution
    gives it: the FFT would leave its roundoff there (about 1e-17 of the
    peak), which the float32 network then carries through every silent
    stretch at a cost in time.
    """
    n = len(x)
    size = _fft_size(max(n + len(h) - 1, 1))
    y = np.fft.irfft(np.fft.rfft(x, size) * np.fft.rfft(h, size), size)[:n]
    taps = np.flatnonzero(h)
    first, last = (taps[0], taps[-1]) if taps.size else (n, n)
    count = np.concatenate(([0], np.cumsum(x != 0)))  # nonzeros in x[:k]
    i = np.arange(n)
    span = count[np.clip(i + 1 - first, 0, n)] - count[np.clip(i - last, 0, n)]
    y[span == 0] = 0.0
    return y


def _first_order(x, b0, b1, r):
    """y[i] = r*y[i-1] + b0*x[i] + b1*x[i-1] from rest, as an FIR convolution.

    The impulse response decays as r**k (0 < r < 1); it stops at the first k
    where r**k is below float64 resolution, so the tail it drops is below
    that resolution too, relative to the filter's gain.
    """
    last = int(np.ceil(np.log(np.finfo(float).eps) / np.log(r)))
    k = np.arange(min(len(x), last + 1))
    h = b0 * r ** k
    h[1:] += b1 * r ** k[:-1]
    return _convolve(x, h)


def _highpass(x, fc, fs):
    """First-order high-pass (removes the image-method DC buildup)."""
    rc = 1.0 / (2.0 * np.pi * fc)
    a = rc / (rc + 1.0 / fs)
    return _first_order(x, a, -a, a)


def generate_rir(room: RoomSpec, highpass_hz=100.0) -> AudioBuffer:
    """Image-source-method RIR with uniform walls and 1/distance decay.

    Taps land on the nearest sample; reflections arriving after rir_len are
    dropped.  The summed images carry a nonphysical low-frequency buildup
    that stretches the measured decay, so the result is high-passed at
    highpass_hz (0 disables).
    """
    alpha = sabine_absorption(room)
    beta = np.sqrt(1.0 - alpha)
    fs = room.sample_rate
    dims = np.asarray(room.dims, dtype=float)
    src = np.asarray(room.source_pos, dtype=float)
    mic = np.asarray(room.mic_pos, dtype=float)
    n_taps = int(round(room.rir_len * fs))
    max_dist = room.rir_len * room.c
    n_max = np.ceil(max_dist / (2.0 * dims)).astype(int) + 1
    grids = [np.arange(-n, n + 1) for n in n_max]
    # beta ** hits for every wall-hit count an image can have
    gain = beta ** np.arange(2 * n_max.sum() + 4)
    h = np.zeros(n_taps)
    for p in itertools.product((0, 1), repeat=3):
        # the image grid is separable: per axis, each order's offset from
        # the mic and its wall hits; add.at sums the images in the grid's C
        # order, one at a time
        rel = [(1 - 2 * q) * s + 2.0 * g * w - m
               for q, s, g, w, m in zip(p, src, grids, dims, mic)]
        hits = [np.abs(g - q) + np.abs(g) for q, g in zip(p, grids)]
        sq = [r * r for r in rel]
        dist = np.sqrt(sq[0][:, None, None] + sq[1][:, None] + sq[2]).ravel()
        refl = (hits[0][:, None, None] + hits[1][:, None] + hits[2]).ravel()
        delay = np.rint(dist / room.c * fs).astype(int)
        keep = (dist <= max_dist) & (dist > 1e-6) & (delay < n_taps)
        np.add.at(h, delay[keep], gain[refl[keep]] / dist[keep])
    if highpass_hz > 0:
        h = _highpass(h, highpass_hz, fs)
    return AudioBuffer(h, fs)


def schroeder_rt60(rir: AudioBuffer, fit_db=(-5.0, -25.0)):
    """RT60 estimate via backward energy integration and a line fit."""
    e = rir.samples ** 2
    edc = np.cumsum(e[::-1])[::-1]
    edc = edc / edc[0]
    db = 10.0 * np.log10(np.maximum(edc, 1e-30))
    hi, lo = fit_db
    idx = np.where((db <= hi) & (db >= lo))[0]
    if len(idx) < 2:
        raise ValueError("decay range too short for RT60 fit")
    t = idx / rir.sample_rate
    slope, _ = np.polyfit(t, db[idx], 1)
    if slope >= 0:
        raise ValueError("non-decaying impulse response")
    return -60.0 / slope


@dataclass
class SceneRanges:
    """Sampling ranges and probability factors for recipe generation."""

    ser_db: tuple = (-13.0, 10.0)
    snr_db: tuple = (5.0, 20.0)
    delay_samples: tuple = (0, 1600)
    p_farend_zero: float = 0.3
    p_noise_zero: float = 0.5
    p_reverb: float = 0.5
    p_gain_dip: float = 0.2
    gain_dip_db: tuple = (20.0, 30.0)
    gain_dip_seconds: float = 3.0
    norm_peak: tuple = (0.3, 0.9)


@dataclass
class GainDip:
    start: int          # sample offset
    duration: int       # samples
    atten_db: float
    target: str         # "d" or "x"


@dataclass
class SceneRecipe:
    near_clip: str
    far_clip: str
    noise_clip: str
    rir_id: int                  # near-end reverb RIR
    echo_rir_id: int             # echo-path RIR used when no recorded echo
    ser_db: float
    snr_db: float
    delay_samples: int
    farend_zeroed: bool
    noise_zeroed: bool
    reverb_applied: bool
    gain_dip: GainDip            # or None
    norm_peaks: tuple
    rng_seed: int

    def to_dict(self):
        d = asdict(self)
        d["norm_peaks"] = list(self.norm_peaks)
        return d

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        if d.get("gain_dip") is not None:
            d["gain_dip"] = GainDip(**d["gain_dip"])
        d["norm_peaks"] = tuple(d["norm_peaks"])
        return cls(**d)


@dataclass
class SceneExample:
    s: AudioBuffer
    x: AudioBuffer
    d: AudioBuffer
    v: AudioBuffer
    y: AudioBuffer
    recipe: SceneRecipe
    measured_ser_db: float = None
    measured_snr_db: float = None
    y_scale: float = 1.0
    x_scale: float = 1.0


@dataclass
class Corpus:
    """Clip pools; echo maps far-clip id -> prerecorded echo, may be empty."""

    near: dict = field(default_factory=dict)
    far: dict = field(default_factory=dict)
    noise: dict = field(default_factory=dict)
    rirs: list = field(default_factory=list)
    echo: dict = field(default_factory=dict)


def sample_room(rng, rir_len=0.5) -> RoomSpec:
    """Draw a room with mic-loudspeaker distance in [0.5, 5] m."""
    dims = np.array([rng.uniform(5.0, 8.0), rng.uniform(3.0, 5.0),
                     rng.uniform(3.0, 4.0)])
    rt60 = rng.uniform(0.2, 0.7)
    margin = 0.3
    while True:
        mic = rng.uniform(margin, dims - margin)
        r = rng.uniform(0.5, 5.0)
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        src = mic + r * direction
        if np.all(src > margin) and np.all(src < dims - margin):
            return RoomSpec(tuple(dims), rt60, tuple(src), tuple(mic),
                            rir_len=rir_len)


def build_rir_bank(n, seed, rir_len=0.5):
    rng = np.random.default_rng(seed)
    return [generate_rir(sample_room(rng, rir_len)) for _ in range(n)]


def sample_recipe(rng, ranges: SceneRanges, corpus: Corpus) -> SceneRecipe:
    """Draw every recipe field from the configured ranges and probabilities."""
    near_ids = sorted(corpus.near)
    far_ids = sorted(corpus.far)
    noise_ids = sorted(corpus.noise)
    n_rirs = max(len(corpus.rirs), 1)
    gain_dip = None
    if rng.uniform() < ranges.p_gain_dip:
        dur = int(round(ranges.gain_dip_seconds * RATE))
        gain_dip = GainDip(
            start=int(rng.integers(0, max(1, RATE * 8))),
            duration=dur,
            atten_db=float(rng.uniform(*ranges.gain_dip_db)),
            target=("d" if rng.uniform() < 0.5 else "x"),
        )
    return SceneRecipe(
        near_clip=near_ids[rng.integers(len(near_ids))],
        far_clip=far_ids[rng.integers(len(far_ids))],
        noise_clip=noise_ids[rng.integers(len(noise_ids))],
        rir_id=int(rng.integers(n_rirs)),
        echo_rir_id=int(rng.integers(n_rirs)),
        ser_db=float(rng.uniform(*ranges.ser_db)),
        snr_db=float(rng.uniform(*ranges.snr_db)),
        delay_samples=int(rng.integers(ranges.delay_samples[0],
                                       ranges.delay_samples[1] + 1)),
        farend_zeroed=bool(rng.uniform() < ranges.p_farend_zero),
        noise_zeroed=bool(rng.uniform() < ranges.p_noise_zero),
        reverb_applied=bool(rng.uniform() < ranges.p_reverb),
        gain_dip=gain_dip,
        norm_peaks=(float(rng.uniform(*ranges.norm_peak)),
                    float(rng.uniform(*ranges.norm_peak))),
        rng_seed=int(rng.integers(2 ** 31)),
    )


def _fit_length(x, n):
    if len(x) >= n:
        return x[:n]
    return np.pad(x, (0, n - len(x)))


def active_mask(x, frame=160, floor_db=-60.0):
    """Per-sample activity mask from frame mean-square energy."""
    floor = 10.0 ** (floor_db / 10.0)
    full = len(x) - len(x) % frame
    energy = np.mean(np.reshape(x[:full] ** 2, (-1, frame)), axis=1)
    if full < len(x):
        energy = np.append(energy, np.mean(x[full:] ** 2))
    return np.repeat(energy >= floor, frame)[:len(x)]


def mix_at_ratio(target, interferer, ratio_db, region):
    """Scale interferer so measure_ratio(target, scaled)[region] == ratio_db."""
    t = target.samples if isinstance(target, AudioBuffer) else np.asarray(target)
    i = interferer.samples if isinstance(interferer, AudioBuffer) else np.asarray(interferer)
    t_r, i_r = t[region], i[region]
    if t_r.size == 0:
        raise ValueError("empty mixing region")
    e_t = np.dot(t_r, t_r)
    e_i = np.dot(i_r, i_r)
    if e_t <= 0 or e_i <= 0:
        raise ValueError("zero energy in mixing region")
    g = np.sqrt(e_t / (e_i * 10.0 ** (ratio_db / 10.0)))
    out = i * g
    return AudioBuffer(out) if isinstance(interferer, AudioBuffer) else out


def synthesize(recipe: SceneRecipe, corpus: Corpus) -> SceneExample:
    """Deterministically build one example from its recipe."""
    s = corpus.near[recipe.near_clip].samples.copy()
    n = len(s)
    if np.dot(s, s) <= 0:
        raise ValueError("zero-energy near-end clip")
    x = _fit_length(corpus.far[recipe.far_clip].samples, n).copy()
    v = _fit_length(corpus.noise[recipe.noise_clip].samples, n).copy()

    # (1) optional near-end reverberation
    if recipe.reverb_applied and corpus.rirs:
        rir = corpus.rirs[recipe.rir_id].samples
        s = _convolve(s, rir)

    # (2) near-end single-talk: no far end, so no echo to build
    if recipe.farend_zeroed:
        x = np.zeros(n)
        d = np.zeros(n)
    # echo: prerecorded when available, else far-end through an echo-path RIR
    elif recipe.far_clip in corpus.echo:
        d = _fit_length(corpus.echo[recipe.far_clip].samples, n).copy()
    elif corpus.rirs:
        d = _convolve(x, corpus.rirs[recipe.echo_rir_id].samples)
    else:
        d = x.copy()
    if recipe.noise_zeroed:
        v = np.zeros(n)

    # (3) gain dip on echo or far-end
    if recipe.gain_dip is not None and not recipe.farend_zeroed:
        gd = recipe.gain_dip
        gain = 10.0 ** (-gd.atten_db / 20.0)
        sl = slice(gd.start, gd.start + gd.duration)
        if gd.target == "d":
            d[sl] *= gain
        else:
            x[sl] *= gain

    # (4) ratio-controlled scaling
    measured_ser = None
    measured_snr = None
    s_active = active_mask(s)
    if np.any(d != 0):
        region = s_active & active_mask(d)
        if np.any(region):
            d = mix_at_ratio(s, d, recipe.ser_db, region)
            measured_ser = measure_ratio(s[region], d[region])
    if np.any(v != 0) and np.any(s_active):
        v = mix_at_ratio(s, v, recipe.snr_db, s_active)
        measured_snr = measure_ratio(s[s_active], v[s_active])

    # (5) microphone mix
    y = s + d + v

    # (6) simulated TDE error: delay the mic path, keep x in place
    delay = recipe.delay_samples
    y = np.concatenate([np.zeros(delay), y])
    s = np.concatenate([np.zeros(delay), s])
    d = np.concatenate([np.zeros(delay), d])
    v = np.concatenate([np.zeros(delay), v])
    x = np.pad(x, (0, delay))

    # (7) peak normalization; the mic-side factor is shared by s, d, v so
    # y = s + d + v stays sample-exact
    peak_y = np.max(np.abs(y))
    if peak_y <= 0:
        raise ValueError("degenerate all-zero mixture")
    y_scale = recipe.norm_peaks[0] / peak_y
    peak_x = np.max(np.abs(x))
    x_scale = recipe.norm_peaks[1] / peak_x if peak_x > 0 else 1.0
    y *= y_scale
    s *= y_scale
    d *= y_scale
    v *= y_scale
    x *= x_scale

    return SceneExample(
        s=AudioBuffer(s), x=AudioBuffer(x), d=AudioBuffer(d),
        v=AudioBuffer(v), y=AudioBuffer(y), recipe=recipe,
        measured_ser_db=measured_ser, measured_snr_db=measured_snr,
        y_scale=y_scale, x_scale=x_scale,
    )


def make_training_examples(rng, corpus: Corpus, count, seconds=1.0,
                           ranges: SceneRanges = None, max_tries=200):
    """Draw scenes cropped to a fixed length with a non-silent near end.

    The fixed length lets the training loop batch the examples; scenes whose
    cropped near-end signal is (almost) silent are redrawn because the
    objective is undefined on them.
    """
    if ranges is None:
        ranges = SceneRanges()
    n = int(round(seconds * RATE))
    out = []
    for _ in range(max_tries):
        if len(out) == count:
            break
        try:
            ex = synthesize(sample_recipe(rng, ranges, corpus), corpus)
        except ValueError:
            continue  # silent near clip or degenerate mixture: redraw
        if len(ex.y) < n:
            continue
        cropped = replace(ex, **{k: AudioBuffer(getattr(ex, k).samples[:n]) for k in "sxdvy"})
        if np.mean(cropped.s.samples ** 2) < 1e-6:
            continue
        out.append(cropped)
    if len(out) < count:
        raise ValueError("could not draw enough usable scenes")
    return out


# ---- desk-scale synthetic corpus ----------------------------------------


def _speechlike(rng, n, pause_prob=0.35):
    """Amplitude-modulated low-passed noise with talk/pause structure."""
    # one-pole lowpass for a speech-ish spectral tilt
    out = _first_order(rng.normal(size=n), 0.15, 0.0, 0.85)
    env = np.zeros(n)
    i = 0
    while i < n:
        seg = int(rng.integers(RATE // 8, RATE))
        level = 0.0 if rng.uniform() < pause_prob else rng.uniform(0.3, 1.0)
        env[i:i + seg] = level
        i += seg
    # short cross-fades to avoid clicks
    k = 160
    kernel = np.ones(k) / k
    env = np.convolve(env, kernel, mode="same")
    out = out * env
    peak = np.max(np.abs(out))
    return out / peak if peak > 0 else out


def synthetic_corpus(seed=0, n_near=4, n_far=4, n_noise=2, n_rirs=4,
                     clip_seconds=4.0, rir_len=0.5) -> Corpus:
    """Self-contained corpus for desk-scale experiments and tests."""
    rng = np.random.default_rng(seed)
    n = int(clip_seconds * RATE)
    near = {f"near{i:03d}": AudioBuffer(_speechlike(rng, n)) for i in range(n_near)}
    far = {f"far{i:03d}": AudioBuffer(_speechlike(rng, n)) for i in range(n_far)}
    noise = {}
    for i in range(n_noise):
        w = rng.normal(size=n)
        w /= np.max(np.abs(w))
        noise[f"noise{i:03d}"] = AudioBuffer(0.5 * w)
    rirs = build_rir_bank(n_rirs, seed=seed + 1, rir_len=rir_len)
    return Corpus(near=near, far=far, noise=noise, rirs=rirs)
