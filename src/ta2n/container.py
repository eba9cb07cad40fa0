"""The one binary file format of the package, shared by datasets and checkpoints.

Layout (integers little-endian):

=======  =====  ==========================================================
offset   bytes  field
=======  =====  ==========================================================
0        4      magic: ``TA2N`` for a dataset, ``TA2M`` for a checkpoint
4        2      u16 format version, :data:`FORMAT_VERSION`
6        4      u32 length ``n`` of the header
10       n      UTF-8 JSON header ``{"meta": {...}, "arrays": [...]}``
10 + n   8·s    each array's raw little-endian, C-order float64 values, in
                header order; ``s`` is the sum of the arrays' sizes
=======  =====  ==========================================================

The file ends right after the last payload. ``meta`` carries everything
that is not an array (dimensions, seeds, configs); each ``arrays`` entry is
``{"name": ..., "shape": [...]}``, and its ``shape`` is the only statement
of that array's size.

:func:`load` enforces two rules for both kinds, so their loaders check only
their own. The header fixes the file's length: any other length raises
:class:`TruncatedFileError` before a payload is allocated. Every payload
value is finite, or a :class:`ContainerError` names the arrays that are not;
:func:`save` applies the same rule before it opens a file, so it never
writes one that :func:`load` rejects.

What is wrong with a file's contents raises :class:`ContainerError` or one
of its subclasses; OS errors such as a missing file pass through unwrapped.
"""

from __future__ import annotations

import json
import math
import os
import struct

import numpy as np

from .autodiff import Array

DATASET = b"TA2N"
CHECKPOINT = b"TA2M"
KINDS = {DATASET: "dataset", CHECKPOINT: "checkpoint"}
FORMAT_VERSION = 3
_PREFIX = struct.Struct("<4sHI")  # magic, version, header length


class ContainerError(Exception):
    """The file is not a well-formed container of the expected kind."""


class BadMagicError(ContainerError):
    """The file does not start with the expected kind's magic."""


class UnsupportedVersionError(ContainerError):
    """The file was written in another format version."""


class TruncatedFileError(ContainerError):
    """The file is shorter or longer than its prefix and header say."""


def save(path: str | os.PathLike, magic: bytes, meta: dict, arrays: dict[str, Array]) -> None:
    """Write ``meta`` and the named arrays to ``path`` through a temp file, renamed
    on success and removed on failure. Arrays are converted and checked to be
    finite before it is opened, and a C-ordered float64 array is written
    without a copy."""
    payloads = {name: np.asarray(a, dtype="<f8", order="C") for name, a in arrays.items()}
    _check_finite(KINDS[magic], payloads)
    entries = [{"name": name, "shape": list(a.shape)} for name, a in payloads.items()]
    header = json.dumps({"meta": meta, "arrays": entries}, sort_keys=True).encode("utf-8")
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(_PREFIX.pack(magic, FORMAT_VERSION, len(header)))
            fh.write(header)
            for a in payloads.values():
                fh.write(a.reshape(-1).view(np.uint8))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load(path: str | os.PathLike, magic: bytes) -> tuple[dict, dict[str, Array]]:
    """``(meta, arrays)`` of a file of the kind ``magic`` names."""
    kind = KINDS[magic]
    with open(path, "rb") as fh:
        head = fh.read(_PREFIX.size)
        if head[:4] != magic[: len(head)]:
            other = KINDS.get(head[:4], "unknown")
            raise BadMagicError(f"expected a {kind} file, found magic {head[:4]!r} ({other})")
        if len(head) < _PREFIX.size:
            raise TruncatedFileError(f"file ends inside its {_PREFIX.size}-byte prefix")
        _, version, size = _PREFIX.unpack(head)
        if version != FORMAT_VERSION:
            raise UnsupportedVersionError(f"{kind} format version {version}, expected {FORMAT_VERSION}")
        length = os.fstat(fh.fileno()).st_size
        if _PREFIX.size + size > length:  # checked first, so a corrupt size never sizes a read
            raise TruncatedFileError(f"file ends inside its {size}-byte header")
        try:
            doc = json.loads(fh.read(size).decode("utf-8"))
            meta = doc["meta"]
            shapes = {e["name"]: _shape(e["shape"]) for e in doc["arrays"]}
        except (ValueError, KeyError, TypeError) as e:
            raise ContainerError(f"malformed {kind} header: {e}") from e
        if not isinstance(meta, dict) or len(shapes) != len(doc["arrays"]):
            raise ContainerError(f"malformed {kind} header: meta is not an object, or array names repeat")
        expected = _PREFIX.size + size + 8 * sum(math.prod(shape) for shape in shapes.values())
        if length != expected:
            raise TruncatedFileError(f"the {kind} header fixes {expected} bytes, the file has {length}")
        arrays = {name: np.empty(shape, dtype="<f8") for name, shape in shapes.items()}
        for a in arrays.values():
            fh.readinto(a.reshape(-1).view(np.uint8))
    _check_finite(kind, arrays)
    return meta, arrays


def _check_finite(kind: str, arrays: dict[str, Array]) -> None:
    """:class:`ContainerError` naming every array that holds a NaN or an infinity."""
    # a NaN propagates through min and max, and an infinity is one of them, so no
    # temporary the size of an array raises the peak memory
    bad = [n for n, a in arrays.items() if not np.isfinite((a.min(initial=0.0), a.max(initial=0.0))).all()]
    if bad:
        raise ContainerError(f"{kind} arrays must be finite: {bad}")


def _shape(shape) -> tuple[int, ...]:
    if not isinstance(shape, list) or any(type(n) is not int or n < 0 for n in shape):
        raise ValueError(f"array shape {shape!r} is not a list of non-negative ints")
    return tuple(shape)


def expect_shapes(arrays: dict[str, Array], shapes: dict[str, tuple[int, ...]]) -> None:
    """Raise :class:`ContainerError` unless ``arrays`` has exactly these names and shapes."""
    missing = sorted(shapes.keys() - arrays.keys())
    unexpected = sorted(arrays.keys() - shapes.keys())
    wrong = sorted(n for n in shapes.keys() & arrays.keys() if arrays[n].shape != tuple(shapes[n]))
    if missing or unexpected or wrong:
        raise ContainerError(
            f"arrays missing {missing}, unexpected {unexpected}, wrong shape {wrong}"
        )
