"""WAV and weight-file round trips plus corruption handling."""

import json
import struct
import tracemalloc
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


def test_wav_write_refuses_nan_and_saturates_inf(tmp_path):
    """A NaN sample has no PCM16 value: refused, and no file is left; +-inf
    saturate and count as clipped."""
    path = tmp_path / "nan.wav"
    with pytest.raises(WavFormatError, match="2 NaN"):
        write_wav(path, AudioBuffer(np.array([0.5, np.nan, 0.0, np.nan])))
    assert not path.exists()
    path = tmp_path / "inf.wav"
    assert write_wav(path, AudioBuffer(np.array([np.inf, 0.25, -np.inf]))) == 2
    np.testing.assert_array_equal(read_wav(path).samples, [32767 / 32768.0, 0.25, -1.0])


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


def packed(records):
    """A weight file of (name bytes, array) records, packed the way the
    format describes it, with a valid checksum."""
    payload = struct.pack("<I", 1) + struct.pack("<I", len(records))
    for name_b, arr in records:
        payload += (struct.pack("<H", len(name_b)) + name_b + struct.pack("<B", arr.ndim)
                    + struct.pack(f"<{arr.ndim}I", *arr.shape)
                    + np.ascontiguousarray(arr, dtype="<f4").tobytes())
    check = int(np.frombuffer(payload, dtype=np.uint8).sum(dtype=np.uint64)) % (1 << 64)
    return b"DCAEC\0" + payload + struct.pack("<Q", check)


def meta_record(blob: bytes):
    """The __meta__ record whose values are the bytes of blob."""
    return b"__meta__", np.frombuffer(blob, dtype=np.uint8).astype(np.float32)


def _packed_in_memory(store):
    """The weight file as one bytes object: the reference save_weights must
    reproduce."""
    meta_b = json.dumps(dict(store.meta), sort_keys=True).encode("utf-8")
    return packed([(name.encode("utf-8"), np.asarray(arr)) for name, arr in store.tensors.items()]
                  + [meta_record(meta_b)])


def test_weight_file_bytes_match_reference_packer(tmp_path):
    store = init_weights(ModelConfig.desk_mode(), seed=4)
    store.meta["note"] = "reference"
    path = tmp_path / "w.bin"
    save_weights(path, store)
    assert path.read_bytes() == _packed_in_memory(store)


def test_save_weights_holds_no_copy_of_the_file(tmp_path):
    """save_weights writes tensor by tensor: its allocations stay below the
    size of the file it writes."""
    store = init_weights(ModelConfig.desk_mode(), seed=5)
    path = tmp_path / "w.bin"
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        save_weights(path, store)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size // 2, (peak, path.stat().st_size)


def test_weight_meta_preserved(tmp_path):
    store = WeightStore(OrderedDict(a=np.ones((2, 2), dtype=np.float32)),
                        {"note": "hello", "n": 3})
    path = tmp_path / "m.bin"
    save_weights(path, store)
    back = load_weights(path)
    assert back.meta == {"note": "hello", "n": 3}


def test_weight_load_holds_one_copy(tmp_path):
    """load_weights reads each tensor straight into its own array: above the
    store it returns, its tracemalloc peak stays under 0.6x the file size
    (reading the whole file first and then copying each tensor out of it
    peaks a whole file above the store)."""
    path = tmp_path / "paper.bin"
    save_weights(path, init_weights(ModelConfig.paper_mode(), seed=0))
    size = path.stat().st_size
    tracemalloc.start()
    try:
        store = load_weights(path)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept >= sum(t.nbytes for t in store.tensors.values())
    assert peak - kept < 0.6 * size, (peak - kept, size)


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


def _load_packed(tmp_path, records):
    path = tmp_path / "w.bin"
    path.write_bytes(packed(records))
    return load_weights(path)


def test_weight_name_not_utf8_rejected(tmp_path):
    with pytest.raises(WeightFormatError, match="not UTF-8"):
        _load_packed(tmp_path, [(b"\xff\xfe", np.ones(2))])


@pytest.mark.parametrize("blob", [b"{not json", b"\xff\xfe"], ids=["json", "utf8"])
def test_weight_meta_not_json_rejected(tmp_path, blob):
    with pytest.raises(WeightFormatError, match="not UTF-8 JSON"):
        _load_packed(tmp_path, [(b"a", np.ones(2)), meta_record(blob)])


@pytest.mark.parametrize("blob", [b'"config"', b"[1, 2]", b"3"])
def test_weight_meta_not_object_rejected(tmp_path, blob):
    with pytest.raises(WeightFormatError, match="not a JSON object"):
        _load_packed(tmp_path, [(b"a", np.ones(2)), meta_record(blob)])


@pytest.mark.parametrize("bad", [-1.0, 256.0, 123.5, np.nan])
def test_weight_meta_not_bytes_rejected(tmp_path, bad):
    name, vals = meta_record(b'{"n": 1}')
    vals[3] = bad
    with pytest.raises(WeightFormatError, match="not a byte"):
        _load_packed(tmp_path, [(b"a", np.ones(2)), (name, vals)])


@pytest.mark.parametrize("name", [b"a", b"__meta__"])
def test_weight_duplicate_name_rejected(tmp_path, name):
    """A name written twice is refused, not read as the later tensor."""
    vals = meta_record(b"{}")[1]
    with pytest.raises(WeightFormatError, match="appears twice"):
        _load_packed(tmp_path, [(name, vals), (b"b", np.ones(2)), (name, vals)])
