"""SI-SNR, segmented SI-SNR, ERLE and energy-ratio measurements.

``si_snr`` and ``seg_sisnr`` also take an autodiff Var estimate: the
training objective is the negative ``seg_sisnr`` of the network output, so
the loss is the reported metric, computed by the same code.  They compute in
the estimate's dtype, so a float32 Var gives a float32 loss.
"""

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Var, dot, log10, value
from .dsp import AudioBuffer

EPS = 1e-12


@dataclass
class ChunkPlan:
    """Chunk counts for segmented SI-SNR plus a silent-chunk threshold.

    min_ref_energy_db is a mean-square dBFS floor; chunks whose reference
    falls below it are excluded from the chunk average.
    """

    chunk_counts: tuple = (1, 10, 20)
    min_ref_energy_db: float = -60.0

    def __post_init__(self):
        counts = tuple(self.chunk_counts)
        if sorted(set(counts)) != list(counts):
            raise ValueError("chunk_counts must be sorted and distinct")
        if any(c < 1 for c in counts):
            raise ValueError("chunk_counts must be positive")
        self.chunk_counts = counts


def _as_samples(a, dtype=np.float64):
    if isinstance(a, AudioBuffer):
        a = a.samples
    return a if isinstance(a, Var) else np.asarray(a, dtype=dtype)


def si_snr(s_hat, s, mode="standard"):
    """Scale-invariant SNR in dB; a Var estimate gives a Var.

    mode "standard": e = s_hat - s_target (the usual projection residual).
    mode "literal": e = s_hat - s.
    """
    s_hat = _as_samples(s_hat)
    s = _as_samples(s, s_hat.dtype)
    if s_hat.shape != s.shape:
        raise ValueError("length mismatch")
    s_energy = np.dot(s, s)
    if s_energy <= 0:
        raise ValueError("zero-energy reference")
    s_target = (dot(s_hat, s) / s_energy) * s
    if mode == "standard":
        e = s_hat - s_target
    elif mode == "literal":
        e = s_hat - s
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return 10.0 * log10(dot(s_target, s_target) / (dot(e, e) + EPS) + EPS)


def _chunks(x, c):
    """Split into c contiguous chunks, remainder folded into the last."""
    n = x.shape[0]
    size = n // c
    bounds = [i * size for i in range(c)] + [n]
    return [x[bounds[i]:bounds[i + 1]] for i in range(c)]


def seg_sisnr(s_hat, s, plan: ChunkPlan = None, mode="standard", per_c=None):
    """Sum over chunk counts of the per-count mean chunk SI-SNR.

    A count whose chunks all fall below the reference-energy floor adds 0.
    per_c: optional dict receiving the per-count values for diagnostics.
    """
    if plan is None:
        plan = ChunkPlan()
    s_hat = _as_samples(s_hat)
    s = _as_samples(s, s_hat.dtype)
    if s_hat.shape != s.shape:
        raise ValueError("length mismatch")
    floor = 10.0 ** (plan.min_ref_energy_db / 10.0)
    total = 0.0
    any_chunk = False
    for c in plan.chunk_counts:
        if c > len(s):
            raise ValueError(f"chunk count {c} exceeds signal length")
        vals = []
        for ch_hat, ch_ref in zip(_chunks(s_hat, c), _chunks(s, c)):
            if np.mean(ch_ref ** 2) < floor:
                continue
            vals.append(si_snr(ch_hat, ch_ref, mode=mode))
        if vals:
            any_chunk = True
            v = sum(vals[1:], vals[0]) / len(vals)
        else:
            v = 0.0
        if per_c is not None:
            per_c[c] = float(value(v))
        total += v
    if not any_chunk:
        raise ValueError("all chunks below the reference-energy threshold")
    return total


def erle(y, s_hat):
    """Echo return loss enhancement: mic-to-output energy reduction in dB.

    Returns +inf when the output is all-zero.
    """
    y = _as_samples(y)
    s_hat = _as_samples(s_hat)
    if y.shape != s_hat.shape:
        raise ValueError("length mismatch")
    num = np.dot(y, y)
    den = np.dot(s_hat, s_hat)
    if den == 0.0:
        return np.inf
    return 10.0 * np.log10(num / den)


def measure_ratio(a, b):
    """10*log10(sum a^2 / sum b^2); SNR with (s, v), SER with (s, d)."""
    a = _as_samples(a)
    b = _as_samples(b)
    if a.shape != b.shape:
        raise ValueError("length mismatch")
    den = np.dot(b, b)
    if den <= 0:
        raise ValueError("zero-energy denominator signal")
    num = np.dot(a, a)
    if num == 0.0:
        return -np.inf
    return 10.0 * np.log10(num / den)


@dataclass
class MetricReport:
    """Per-utterance metric record, serializable to a JSON line."""

    si_snr_db: float = None
    seg_sisnr_db: float = None
    seg_sisnr_per_c: dict = field(default_factory=dict)
    erle_db: float = None
    ser_db: float = None
    snr_db: float = None

    def to_dict(self):
        def clean(v):
            if v is None:
                return None
            if isinstance(v, float) and not np.isfinite(v):
                return "inf" if v > 0 else "-inf"
            return float(v)

        return {
            "si_snr_db": clean(self.si_snr_db),
            "seg_sisnr_db": clean(self.seg_sisnr_db),
            "seg_sisnr_per_c": {str(k): clean(v) for k, v in self.seg_sisnr_per_c.items()},
            "erle_db": clean(self.erle_db),
            "ser_db": clean(self.ser_db),
            "snr_db": clean(self.snr_db),
        }
