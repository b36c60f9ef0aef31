"""KTAR v1 array file format.

Byte layout: magic ``KTAR1\\n`` (6 bytes), an unsigned 32-bit little-endian
length L, L bytes of UTF-8 JSON header, then the raw little-endian payload
in row-major order with complex values stored as interleaved (re, im)
IEEE-754 pairs.  The header carries ``dtype`` (one of c64, c128, f32, f64),
``shape`` and ``order``; an optional ``meta`` object (used e.g. for config
hashes) round-trips untouched.  No padding, no checksum.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ArrayHeader",
    "KtarError",
    "KtarBadMagic",
    "KtarTruncated",
    "KtarSizeMismatch",
    "read_array",
    "write_array",
]

MAGIC = b"KTAR1\n"
MAX_ELEMS = 2**40

_DTYPES = {
    "c64": np.dtype("<c8"),
    "c128": np.dtype("<c16"),
    "f32": np.dtype("<f4"),
    "f64": np.dtype("<f8"),
}
_NAMES = {v: k for k, v in _DTYPES.items()}


class KtarError(Exception):
    """Base class for KTAR format errors."""


class KtarBadMagic(KtarError):
    pass


class KtarTruncated(KtarError):
    pass


class KtarSizeMismatch(KtarError):
    pass


@dataclass(frozen=True)
class ArrayHeader:
    dtype: str
    shape: tuple
    order: str = "row-major"
    meta: dict | None = field(default=None)

    def __post_init__(self):
        if self.dtype not in _DTYPES:
            raise KtarError(f"unsupported dtype {self.dtype!r}")
        if self.order != "row-major":
            raise KtarError(f"unsupported order {self.order!r}")
        object.__setattr__(self, "shape", tuple(int(s) for s in self.shape))
        if any(s < 0 for s in self.shape):
            raise KtarError(f"negative dimension in shape {self.shape}")
        if self.count > MAX_ELEMS:
            raise KtarError(f"shape {self.shape} exceeds {MAX_ELEMS} elements")

    @property
    def numpy_dtype(self):
        return _DTYPES[self.dtype]

    @property
    def count(self):
        return math.prod(self.shape)


def dtype_name(dt) -> str:
    """KTAR dtype string for a numpy dtype."""
    dt = np.dtype(dt).newbyteorder("<")
    if dt not in _NAMES:
        raise KtarError(f"no KTAR dtype for {dt}")
    return _NAMES[dt]


def write_array(path, data, meta=None):
    """Write ``data`` to ``path`` in KTAR v1 format; returns the header."""
    data = np.asarray(data)
    header = ArrayHeader(dtype_name(data.dtype), data.shape, meta=meta)
    payload = np.ascontiguousarray(data, dtype=header.numpy_dtype)
    doc = {"dtype": header.dtype, "shape": list(header.shape), "order": header.order}
    if meta is not None:
        doc["meta"] = meta
    text = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(len(text).to_bytes(4, "little"))
        fh.write(text)
        fh.write(payload.tobytes(order="C"))
    return header


def read_array(path):
    """Read a KTAR v1 file; returns (ArrayHeader, ndarray), the payload read straight in."""
    with open(path, "rb") as fh:
        magic, field = fh.read(len(MAGIC)), fh.read(4)
        if magic != MAGIC:
            raise KtarBadMagic(f"{path}: bad magic {magic!r}")
        if len(field) < 4:
            raise KtarTruncated(f"{path}: truncated header length field")
        hlen = int.from_bytes(field, "little")
        text = fh.read(hlen)
        if len(text) < hlen:
            raise KtarTruncated(f"{path}: truncated header (need {hlen} bytes)")
        try:
            doc = json.loads(text.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise KtarError(f"{path}: unreadable header: {exc}") from exc
        if not isinstance(doc, dict):
            raise KtarError(f"{path}: header is not a JSON object")
        for key in ("dtype", "shape", "order"):
            if key not in doc:
                raise KtarError(f"{path}: header missing {key!r}")
        for key in ("dtype", "order"):
            if not isinstance(doc[key], str):
                raise KtarError(f"{path}: header {key} must be a string, got {doc[key]!r}")
        shape = doc["shape"]
        if not isinstance(shape, list) or any(type(s) is not int or s < 0 for s in shape):
            raise KtarError(f"{path}: header shape must be a list of non-negative ints, "
                            f"got {shape!r}")
        header = ArrayHeader(doc["dtype"], tuple(shape), doc["order"], meta=doc.get("meta"))
        found = os.fstat(fh.fileno()).st_size - fh.tell()
        expected = header.count * header.numpy_dtype.itemsize
        if found == expected:  # sized before it is allocated: a header may claim 2**40 elements
            data = np.empty(header.shape, dtype=header.numpy_dtype)
            found = fh.readinto(data)
    if found != expected:
        kind = KtarTruncated if found < expected else KtarSizeMismatch
        raise kind(f"{path}: payload size mismatch: header implies {expected} bytes, found {found}")
    return header, data
