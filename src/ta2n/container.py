"""The one binary file format of the package, shared by datasets and checkpoints.

Layout (integers little-endian):

=======  =====  ==========================================================
offset   bytes  field
=======  =====  ==========================================================
0        4      magic: ``TA2N`` for a dataset, ``TA2M`` for a checkpoint
4        2      u16 format version, :data:`FORMAT_VERSION`
6        4      u32 length ``n`` of the header
10       n      UTF-8 JSON header ``{"meta": {...}, "arrays": [...]}``
10 + n   ...    one ``.npy`` record (``np.save``) per array, in header order
=======  =====  ==========================================================

The file ends right after the last record. ``meta`` carries everything
that is not an array (dimensions, seeds, configs); each ``arrays`` entry is
``{"name": ..., "shape": [...]}``, and every array is float64.

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
FORMAT_VERSION = 2
_PREFIX = struct.Struct("<4sHI")  # magic, version, header length
_NPY_HEADER_READERS = {
    (1, 0): np.lib.format.read_array_header_1_0,
    (2, 0): np.lib.format.read_array_header_2_0,
}


class ContainerError(Exception):
    """The file is not a well-formed container of the expected kind."""


class BadMagicError(ContainerError):
    """The file does not start with the expected kind's magic."""


class UnsupportedVersionError(ContainerError):
    """The file was written in another format version."""


class TruncatedFileError(ContainerError):
    """The file ends inside a section, or goes on after its last array."""


class _ExactReader:
    """File reads that raise :class:`TruncatedFileError` instead of coming up short.

    The check runs before the read, so a corrupt length never sizes a buffer
    beyond what the file holds.
    """

    def __init__(self, fh):
        self._fh = fh
        self._left = os.fstat(fh.fileno()).st_size - fh.tell()

    def _take(self, size: int) -> None:
        if size > self._left:
            raise TruncatedFileError(f"file ends {size - self._left} bytes early")
        self._left -= size

    def read(self, size: int) -> bytes:
        self._take(size)
        return self._fh.read(size)

    def read_float64(self, shape: tuple[int, ...]) -> Array:
        """A fresh, writable C-ordered array of ``shape`` filled from the next bytes."""
        self._take(8 * math.prod(shape))
        a = np.empty(shape, dtype="<f8")
        self._fh.readinto(a.reshape(-1).view(np.uint8))
        return a


def save(path: str | os.PathLike, magic: bytes, meta: dict, arrays: dict[str, Array]) -> None:
    """Write ``meta`` and the named arrays to ``path`` through a temp file, renamed
    on success and removed on failure; arrays are converted before it is opened."""
    records = {name: np.asarray(a, dtype="<f8") for name, a in arrays.items()}
    entries = [{"name": name, "shape": list(a.shape)} for name, a in records.items()]
    header = json.dumps({"meta": meta, "arrays": entries}, sort_keys=True).encode("utf-8")
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(_PREFIX.pack(magic, FORMAT_VERSION, len(header)))
            fh.write(header)
            for a in records.values():
                np.save(fh, a, allow_pickle=False)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load(path: str | os.PathLike, magic: bytes) -> tuple[dict, dict[str, Array]]:
    """``(meta, arrays)`` of a file of the kind ``magic`` names."""
    kind = KINDS[magic]
    with open(path, "rb") as raw:
        head = raw.read(_PREFIX.size)
        if head[:4] != magic[: len(head)]:
            other = KINDS.get(head[:4], "unknown")
            raise BadMagicError(f"expected a {kind} file, found magic {head[:4]!r} ({other})")
        if len(head) < _PREFIX.size:
            raise TruncatedFileError(f"file ends inside its {_PREFIX.size}-byte prefix")
        _, version, size = _PREFIX.unpack(head)
        if version != FORMAT_VERSION:
            raise UnsupportedVersionError(f"{kind} format version {version}, expected {FORMAT_VERSION}")
        fh = _ExactReader(raw)
        try:
            doc = json.loads(fh.read(size).decode("utf-8"))
            meta = doc["meta"]
            shapes = {e["name"]: tuple(e["shape"]) for e in doc["arrays"]}
        except (ValueError, KeyError, TypeError) as e:
            raise ContainerError(f"malformed {kind} header: {e}") from e
        if not isinstance(meta, dict) or len(shapes) != len(doc["arrays"]):
            raise ContainerError(f"malformed {kind} header: meta is not an object, or array names repeat")
        arrays = {name: _read_record(fh, name, shape) for name, shape in shapes.items()}
        if raw.read(1):
            raise TruncatedFileError(f"trailing bytes after the last array of the {kind} file")
    return meta, arrays


def _read_record(fh: _ExactReader, name: str, shape: tuple[int, ...]) -> Array:
    """The next ``.npy`` record, whose own header must agree with the JSON header's
    ``shape``: the payload is sized and allocated only after that check."""
    try:
        version = np.lib.format.read_magic(fh)
        if version not in _NPY_HEADER_READERS:
            raise ValueError(f".npy format version {version} is not supported")
        npy_shape, fortran, dtype = _NPY_HEADER_READERS[version](fh)
    except ValueError as e:
        raise ContainerError(f"array {name!r}: {e}") from e
    if dtype != np.float64 or fortran or npy_shape != shape or min(npy_shape, default=0) < 0:
        order = "F" if fortran else "C"
        raise ContainerError(
            f"array {name!r} is {dtype} {npy_shape} ({order} order), header says float64 {shape}"
        )
    return fh.read_float64(npy_shape)


def expect_shapes(arrays: dict[str, Array], shapes: dict[str, tuple[int, ...]]) -> None:
    """Raise :class:`ContainerError` unless ``arrays`` has exactly these names and shapes."""
    missing = sorted(shapes.keys() - arrays.keys())
    unexpected = sorted(arrays.keys() - shapes.keys())
    wrong = sorted(n for n in shapes.keys() & arrays.keys() if arrays[n].shape != tuple(shapes[n]))
    if missing or unexpected or wrong:
        raise ContainerError(
            f"arrays missing {missing}, unexpected {unexpected}, wrong shape {wrong}"
        )
