"""Container files as bytes, for tests that build files the loaders must reject.

Test tooling: :func:`split` and :func:`join` take a file apart into its
prefix fields, JSON header and arrays, and put it back together byte for
byte. :func:`write_unchecked` writes what ``container.save`` would, minus
its rule that every array is finite.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

from ta2n import container

PREFIX = struct.Struct("<4sHI")


def split(raw: bytes) -> tuple[bytes, int, dict, list[np.ndarray]]:
    magic, version, size = PREFIX.unpack(raw[: PREFIX.size])
    doc = json.loads(raw[PREFIX.size : PREFIX.size + size])
    arrays, offset = [], PREFIX.size + size
    for entry in doc["arrays"]:
        count = math.prod(entry["shape"])
        arrays.append(np.frombuffer(raw, "<f8", count, offset).reshape(entry["shape"]))
        offset += 8 * count
    assert offset == len(raw)
    return magic, version, doc, arrays


def join(magic: bytes, version: int, doc: dict, arrays: list[np.ndarray]) -> bytes:
    header = json.dumps(doc, sort_keys=True).encode("utf-8")
    payloads = b"".join(np.asarray(a, "<f8").tobytes() for a in arrays)
    return PREFIX.pack(magic, version, len(header)) + header + payloads


def write_unchecked(path, magic: bytes, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    entries = [{"name": name, "shape": list(np.shape(a))} for name, a in arrays.items()]
    doc = {"meta": meta, "arrays": entries}
    path.write_bytes(join(magic, container.FORMAT_VERSION, doc, list(arrays.values())))
