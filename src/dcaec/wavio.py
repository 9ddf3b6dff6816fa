"""WAV (RIFF PCM16) reader/writer, fixed to mono 16 kHz."""

import wave

import numpy as np

from .dsp import RATE, AudioBuffer


class WavFormatError(ValueError):
    pass


def read_wav(path) -> AudioBuffer:
    """Read mono 16 kHz PCM16; anything else is rejected, never resampled."""
    try:
        with wave.open(str(path), "rb") as w:
            if w.getnchannels() != 1:
                raise WavFormatError(f"{path}: expected mono, got {w.getnchannels()} channels")
            if w.getframerate() != RATE:
                raise WavFormatError(f"{path}: expected {RATE} Hz, got {w.getframerate()}")
            if w.getsampwidth() != 2:
                raise WavFormatError(f"{path}: expected 16-bit PCM, got {8 * w.getsampwidth()}-bit")
            if w.getcomptype() != "NONE":
                raise WavFormatError(f"{path}: compressed WAV not supported")
            raw = w.readframes(w.getnframes())
    except wave.Error as e:
        raise WavFormatError(f"{path}: {e}") from e
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    return AudioBuffer(samples, RATE)


def write_wav(path, buf: AudioBuffer):
    """Write PCM16 mono; saturating clip, returns the clipped sample count.
    NaN samples are refused before the file is opened."""
    if buf.sample_rate != RATE:
        raise WavFormatError(f"refusing to write {buf.sample_rate} Hz audio")
    x = np.asarray(buf.samples, dtype=np.float64)
    nans = int(np.isnan(x).sum())
    if nans:
        raise WavFormatError(f"{path}: refusing to write {nans} NaN samples")
    clipped = int(np.sum((x < -1.0) | (x >= 1.0)))
    q = np.clip(np.rint(x * 32768.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(RATE)
        w.writeframes(q.tobytes())
    return clipped
