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
JSON object; reserved names are excluded from parameter counting.
"""

import json
import math
import os
import struct
from collections import OrderedDict

import numpy as np

from .model import WeightStore

MAGIC = b"DCAEC\0"
VERSION = 1
META_NAME = "__meta__"
# Bytes per read while load_weights sums the checksum.  The buffer is freed
# before any tensor is read, so a load peaks at the larger of the two, not
# their sum.  With 1 MiB reads of the 5.95 MB paper file, glibc's dynamic
# mmap threshold stayed low after the load, and every later session build
# page-faulted its operands afresh: about 1000 minor faults, 2 ms longer.
CHUNK = 8 << 20


class WeightFormatError(ValueError):
    pass


def _checksum(payload) -> int:
    return int(np.frombuffer(payload, dtype=np.uint8).sum(dtype=np.uint64)) % (1 << 64)


def _header(name: str, arr: np.ndarray) -> bytes:
    name_b = name.encode("utf-8")
    if len(name_b) > 0xFFFF:
        raise WeightFormatError("tensor name too long")
    if arr.ndim > 0xFF:
        raise WeightFormatError("tensor rank too large")
    return (struct.pack("<H", len(name_b)) + name_b + struct.pack("<B", arr.ndim)
            + struct.pack(f"<{arr.ndim}I", *arr.shape))


def save_weights(path, store: WeightStore):
    """Writes each header and tensor straight to the file, summing the
    checksum as it goes: no copy of the payload is made, and a tensor is
    copied only if it is not little-endian float32 already."""
    meta_b = json.dumps(dict(store.meta), sort_keys=True).encode("utf-8")
    arrays = [np.asarray(arr) for arr in store.tensors.values()]
    arrays.append(np.frombuffer(meta_b, dtype=np.uint8).astype(np.float32))
    # every header first, so that a bad name or rank writes no file
    heads = [_header(name, arr) for name, arr in zip([*store.tensors, META_NAME], arrays)]
    check = 0
    with open(path, "wb") as f:
        f.write(MAGIC)
        for piece in _pieces(struct.pack("<II", VERSION, len(heads)), heads, arrays):
            f.write(piece)
            check += _checksum(piece)
        f.write(struct.pack("<Q", check % (1 << 64)))


def _pieces(start, heads, arrays):
    """The payload piece by piece, each tensor's values as a byte view."""
    yield start
    for head, arr in zip(heads, arrays):
        yield head
        yield np.ascontiguousarray(arr, dtype="<f4").reshape(-1).view(np.uint8)


def _meta(vals) -> dict:
    """The JSON object whose UTF-8 bytes are the __meta__ tensor's values."""
    if not np.all((vals >= 0) & (vals <= 255) & (vals == np.rint(vals))):
        raise WeightFormatError(f"{META_NAME} holds a value that is not a byte")
    try:
        meta = json.loads(bytes(vals.astype(np.uint8)).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        raise WeightFormatError(f"{META_NAME} is not UTF-8 JSON") from None
    if not isinstance(meta, dict):
        raise WeightFormatError(f"{META_NAME} is not a JSON object")
    return meta


def load_weights(path) -> WeightStore:
    """The store in the file at path.  The checksum is summed CHUNK bytes at
    a time before any tensor is read, and each tensor is read straight into
    its own array, so the tensors are the only copy of the values held."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        if size < len(MAGIC) + 16 or f.read(len(MAGIC)) != MAGIC:
            raise WeightFormatError("not a weight file (bad magic)")
        end = size - 8   # the payload runs from the magic to the checksum
        check, buf = 0, memoryview(bytearray(min(CHUNK, end - len(MAGIC))))
        for off in range(len(MAGIC), end, CHUNK):
            check += _checksum(buf[:f.readinto(buf[:end - off])])
        (stored,) = struct.unpack("<Q", f.read(8))
        if check % (1 << 64) != stored:
            raise WeightFormatError("checksum mismatch")
        del buf   # freed before the tensors are read
        f.seek(len(MAGIC))

        def need(n):
            if f.tell() + n > end:
                raise WeightFormatError("truncated file")
            return n

        (version,) = struct.unpack("<I", f.read(need(4)))
        if version != VERSION:
            raise WeightFormatError(f"unsupported version {version}")
        (count,) = struct.unpack("<I", f.read(need(4)))
        tensors = OrderedDict()
        meta, names = {}, set()
        for _ in range(count):
            (name_len,) = struct.unpack("<H", f.read(need(2)))
            try:
                name = f.read(need(name_len)).decode("utf-8")
            except UnicodeDecodeError:
                raise WeightFormatError("a tensor name is not UTF-8") from None
            if name in names:
                raise WeightFormatError(f"tensor {name!r} appears twice")
            names.add(name)
            (rank,) = struct.unpack("<B", f.read(need(1)))
            dims = struct.unpack(f"<{rank}I", f.read(need(4 * rank))) if rank else ()
            need(4 * math.prod(dims))   # before allocating what the header claims
            vals = np.empty(dims, dtype="<f4")
            f.readinto(vals.reshape(-1).view(np.uint8))
            vals = vals.astype(np.float32, copy=False)
            if name == META_NAME:
                meta = _meta(vals)
            elif not np.isfinite(vals).all():
                raise WeightFormatError(f"tensor {name!r} holds a non-finite value")
            else:
                tensors[name] = vals
        if f.tell() != end:
            raise WeightFormatError("trailing bytes after last tensor")
    return WeightStore(tensors, meta)
