"""WAV and weight-file round trips plus corruption handling."""

import struct
import wave
from collections import OrderedDict

import numpy as np
import pytest

from dcaec.dsp import RATE, AudioBuffer
from dcaec.model import ModelConfig, WeightStore, init_weights, validate_store
from dcaec.wavio import WavFormatError, read_wav, write_wav
from dcaec.weights_io import WeightFormatError, load_weights, save_weights


# ---- WAV -----------------------------------------------------------------


def test_wav_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    q = rng.integers(-32768, 32768, size=1000).astype(np.float64) / 32768.0
    path = tmp_path / "a.wav"
    assert write_wav(path, AudioBuffer(q)) == 0
    back = read_wav(path)
    np.testing.assert_array_equal(back.samples, q)
    assert back.sample_rate == RATE


def test_wav_clipping_reported(tmp_path):
    x = np.array([0.5, 1.5, -2.0, 0.0])
    path = tmp_path / "clip.wav"
    assert write_wav(path, AudioBuffer(x)) == 2
    back = read_wav(path)
    assert back.samples[1] == pytest.approx(32767 / 32768.0)
    assert back.samples[2] == -1.0


def test_wav_rejects_wrong_rate(tmp_path):
    path = tmp_path / "rate.wav"
    with wave.open(str(path), "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(44100)
        w.writeframes(b"\x00\x00" * 10)
    with pytest.raises(WavFormatError, match="44100"):
        read_wav(path)
    with pytest.raises(WavFormatError):
        write_wav(tmp_path / "x.wav", AudioBuffer(np.zeros(4), sample_rate=8000))


def test_wav_rejects_stereo_and_width(tmp_path):
    path = tmp_path / "st.wav"
    with wave.open(str(path), "wb") as w:
        w.setnchannels(2)
        w.setsampwidth(2)
        w.setframerate(RATE)
        w.writeframes(b"\x00\x00\x00\x00" * 10)
    with pytest.raises(WavFormatError, match="mono"):
        read_wav(path)
    path2 = tmp_path / "w8.wav"
    with wave.open(str(path2), "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(1)
        w.setframerate(RATE)
        w.writeframes(b"\x00" * 10)
    with pytest.raises(WavFormatError, match="16-bit"):
        read_wav(path2)


def test_wav_rejects_garbage(tmp_path):
    path = tmp_path / "bad.wav"
    path.write_bytes(b"not a wav at all")
    with pytest.raises(WavFormatError):
        read_wav(path)


# ---- weight files --------------------------------------------------------


def test_weight_round_trip_bit_exact(tmp_path):
    cfg = ModelConfig.desk_mode()
    store = init_weights(cfg, seed=3)
    path = tmp_path / "w.bin"
    save_weights(path, store)
    back = load_weights(path)
    assert list(back.tensors) == list(store.tensors)
    for k in store.tensors:
        np.testing.assert_array_equal(back.tensors[k], store.tensors[k])
        assert back.tensors[k].dtype == np.float32
    assert back.meta["config_hash"] == cfg.config_hash()
    validate_store(back, cfg)


def test_weight_meta_preserved(tmp_path):
    store = WeightStore(OrderedDict(a=np.ones((2, 2), dtype=np.float32)),
                        {"note": "hello", "n": 3})
    path = tmp_path / "m.bin"
    save_weights(path, store)
    back = load_weights(path)
    assert back.meta == {"note": "hello", "n": 3}


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_weight_non_finite_tensor_rejected(tmp_path, bad):
    store = init_weights(ModelConfig.desk_mode(), seed=3)
    store.tensors["enc0.kr"].flat[5] = bad
    path = tmp_path / "w.bin"
    save_weights(path, store)
    with pytest.raises(WeightFormatError, match="enc0.kr"):
        load_weights(path)


def test_weight_bad_magic_rejected(tmp_path):
    path = tmp_path / "w.bin"
    save_weights(path, WeightStore(OrderedDict(a=np.zeros(3, dtype=np.float32))))
    blob = bytearray(path.read_bytes())
    blob[:5] = b"WRONG"
    path.write_bytes(bytes(blob))
    with pytest.raises(WeightFormatError, match="magic"):
        load_weights(path)


def test_weight_checksum_detects_flip(tmp_path):
    path = tmp_path / "w.bin"
    save_weights(path, WeightStore(OrderedDict(a=np.arange(8, dtype=np.float32))))
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(WeightFormatError, match="checksum"):
        load_weights(path)


def test_weight_truncation_rejected(tmp_path):
    path = tmp_path / "w.bin"
    save_weights(path, WeightStore(OrderedDict(a=np.arange(64, dtype=np.float32))))
    blob = path.read_bytes()
    # keep a consistent checksum over a truncated payload
    cut = blob[6:-8][:-40]
    csum = int(np.frombuffer(cut, dtype=np.uint8).sum(dtype=np.uint64))
    path.write_bytes(blob[:6] + cut + struct.pack("<Q", csum))
    with pytest.raises(WeightFormatError, match="truncated"):
        load_weights(path)


def test_weight_empty_file_rejected(tmp_path):
    path = tmp_path / "e.bin"
    path.write_bytes(b"")
    with pytest.raises(WeightFormatError):
        load_weights(path)


def test_weight_unsupported_version(tmp_path):
    path = tmp_path / "v.bin"
    save_weights(path, WeightStore(OrderedDict(a=np.zeros(2, dtype=np.float32))))
    blob = bytearray(path.read_bytes())
    payload = bytearray(blob[6:-8])
    struct.pack_into("<I", payload, 0, 99)
    csum = int(np.frombuffer(bytes(payload), dtype=np.uint8).sum(dtype=np.uint64))
    path.write_bytes(bytes(blob[:6]) + bytes(payload) + struct.pack("<Q", csum))
    with pytest.raises(WeightFormatError, match="version"):
        load_weights(path)
