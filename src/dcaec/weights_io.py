"""Weight file serialization.

Layout (all little-endian):

    magic  "DCAEC\\0"
    u32    format version (1)
    u32    tensor count
    per tensor:
        u16   name length, then UTF-8 name
        u8    rank, then u32 dims
        f32   values, row-major
    u64    checksum: sum of all bytes between the magic and the checksum,
           mod 2^64

Store metadata (config dict, config hash, creation info) rides along as a
reserved tensor named "__meta__" whose float32 values are the bytes of a
JSON blob; reserved names are excluded from parameter counting.
"""

import json
import struct
from collections import OrderedDict

import numpy as np

from .model import WeightStore

MAGIC = b"DCAEC\0"
VERSION = 1
META_NAME = "__meta__"


class WeightFormatError(ValueError):
    pass


def _checksum(payload: bytes) -> int:
    return int(np.frombuffer(payload, dtype=np.uint8).sum(dtype=np.uint64)) % (1 << 64)


def _pack_tensor(name: str, arr: np.ndarray) -> bytes:
    name_b = name.encode("utf-8")
    if len(name_b) > 0xFFFF:
        raise WeightFormatError("tensor name too long")
    if arr.ndim > 0xFF:
        raise WeightFormatError("tensor rank too large")
    head = struct.pack("<H", len(name_b)) + name_b
    head += struct.pack("<B", arr.ndim)
    head += struct.pack(f"<{arr.ndim}I", *arr.shape)
    data = np.ascontiguousarray(arr, dtype="<f4").tobytes()
    return head + data


def save_weights(path, store: WeightStore):
    tensors = OrderedDict(store.tensors)
    meta = dict(store.meta)
    meta_b = json.dumps(meta, sort_keys=True).encode("utf-8")
    payload = struct.pack("<I", VERSION)
    payload += struct.pack("<I", len(tensors) + 1)
    for name, arr in tensors.items():
        payload += _pack_tensor(name, np.asarray(arr))
    payload += _pack_tensor(META_NAME, np.frombuffer(meta_b, dtype=np.uint8).astype(np.float32))
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(payload)
        f.write(struct.pack("<Q", _checksum(payload)))


def load_weights(path) -> WeightStore:
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < len(MAGIC) + 16 or blob[:len(MAGIC)] != MAGIC:
        raise WeightFormatError("not a weight file (bad magic)")
    # a view, so that the tensors below are the only copy of the values
    payload, check = memoryview(blob)[len(MAGIC):-8], blob[-8:]
    (stored,) = struct.unpack("<Q", check)
    if _checksum(payload) != stored:
        raise WeightFormatError("checksum mismatch")
    off = 0

    def take(n):
        nonlocal off
        if off + n > len(payload):
            raise WeightFormatError("truncated file")
        b = payload[off:off + n]
        off += n
        return b

    (version,) = struct.unpack("<I", take(4))
    if version != VERSION:
        raise WeightFormatError(f"unsupported version {version}")
    (count,) = struct.unpack("<I", take(4))
    tensors = OrderedDict()
    meta = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2))
        name = bytes(take(name_len)).decode("utf-8")
        (rank,) = struct.unpack("<B", take(1))
        dims = struct.unpack(f"<{rank}I", take(4 * rank)) if rank else ()
        n = int(np.prod(dims)) if dims else 1
        vals = np.frombuffer(take(4 * n), dtype="<f4").astype(np.float32).reshape(dims)
        if name == META_NAME:
            meta = json.loads(bytes(vals.astype(np.uint8)).decode("utf-8"))
        elif not np.isfinite(vals).all():
            raise WeightFormatError(f"tensor {name!r} holds a non-finite value")
        else:
            tensors[name] = vals
    if off != len(payload):
        raise WeightFormatError("trailing bytes after last tensor")
    return WeightStore(tensors, meta)
