"""Error paths of the one file container, for both file kinds."""

import io
import json
import struct

import numpy as np
import pytest

from ta2n import container
from ta2n.container import (
    BadMagicError,
    ContainerError,
    TruncatedFileError,
    UnsupportedVersionError,
)
from ta2n.model import AlignmentModel, ModelConfig, load_checkpoint, save_checkpoint
from ta2n.synth import MisalignmentConfig, generate_dataset, load_dataset, save_dataset

LOADERS = {"dataset": load_dataset, "checkpoint": load_checkpoint}
OTHER = {"dataset": "checkpoint", "checkpoint": "dataset"}
PREFIX = struct.Struct("<4sHI")


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Raw bytes of one tiny, valid file of each kind."""
    root = tmp_path_factory.mktemp("files")
    save_dataset(generate_dataset(6, 1, (2, 2, 3, 3), MisalignmentConfig(0.5, 0.5, 0.5), 0), root / "d")
    cfg = ModelConfig(
        channels=2, frames=2, height=4, width=4, proj_dim=2, ttm_hidden=2,
        offset_channels=(2, 2), offset_hidden=2,
    )
    save_checkpoint(AlignmentModel(cfg), root / "c")
    return {"dataset": (root / "d").read_bytes(), "checkpoint": (root / "c").read_bytes()}


def split(raw: bytes) -> tuple[bytes, int, dict, list[np.ndarray]]:
    magic, version, size = PREFIX.unpack(raw[: PREFIX.size])
    doc = json.loads(raw[PREFIX.size : PREFIX.size + size])
    records = io.BytesIO(raw[PREFIX.size + size :])
    return magic, version, doc, [np.lib.format.read_array(records) for _ in doc["arrays"]]


def record(a: np.ndarray, claimed_shape=None) -> bytes:
    """``a`` as ``np.save`` writes it; ``claimed_shape`` replaces the shape its header states."""
    header = np.lib.format.header_data_from_array_1_0(a)
    if claimed_shape is not None:
        header["shape"] = claimed_shape
    out = io.BytesIO()
    np.lib.format.write_array_header_1_0(out, header)
    out.write(a.tobytes())
    return out.getvalue()


def join(magic: bytes, version: int, doc: dict, arrays: list[np.ndarray]) -> bytes:
    header = json.dumps(doc, sort_keys=True).encode("utf-8")
    return PREFIX.pack(magic, version, len(header)) + header + b"".join(map(record, arrays))


def truncations(raw: bytes):
    """Cuts at the start, second byte, middle and last byte of every section:
    the prefix, the JSON, and each array's .npy header and payload."""
    _, _, size = PREFIX.unpack(raw[: PREFIX.size])
    bounds = [0, PREFIX.size, PREFIX.size + size]
    records = io.BytesIO(raw)
    records.seek(bounds[-1])
    while records.tell() < len(raw):
        np.lib.format.read_magic(records)
        shape, _, dtype = np.lib.format.read_array_header_1_0(records)
        bounds.append(records.tell())
        records.seek(int(np.prod(shape)) * dtype.itemsize, io.SEEK_CUR)
        bounds.append(records.tell())
    assert bounds[-1] == len(raw)
    cuts = {k for a, b in zip(bounds, bounds[1:]) for k in (a, a + 1, (a + b) // 2, b - 1)}
    return [raw[:k] for k in sorted(cuts)]


def each_array(raw: bytes, edit):
    """One variant per array: ``edit(entry, array)`` returns the new (entry, array)."""
    magic, version, doc, arrays = split(raw)
    for i in range(len(arrays)):
        entries, values = [dict(e) for e in doc["arrays"]], list(arrays)
        entries[i], values[i] = edit(entries[i], values[i])
        yield join(magic, version, {**doc, "arrays": entries}, values)


HUGE = (4_000_000_000_000,)  # 29 TiB of float64


def huge_records(raw: bytes, in_json: bool):
    """One variant per array whose .npy header claims shape ``HUGE`` over the
    original payload; with ``in_json`` the JSON entry claims it too."""
    magic, version, doc, arrays = split(raw)
    for i in range(len(arrays)):
        entries = [dict(e) for e in doc["arrays"]]
        if in_json:
            entries[i]["shape"] = list(HUGE)
        records = [record(a, HUGE if j == i else None) for j, a in enumerate(arrays)]
        yield join(magic, version, {**doc, "arrays": entries}, []) + b"".join(records)


def dropped_arrays(raw: bytes):
    magic, version, doc, arrays = split(raw)
    for i in range(len(arrays)):
        entries = doc["arrays"][:i] + doc["arrays"][i + 1 :]
        yield join(magic, version, {**doc, "arrays": entries}, arrays[:i] + arrays[i + 1 :])


FAULTS = {
    "bad_magic": (BadMagicError, lambda raw, other: [b"NOPE" + raw[4:], b"NO"]),
    "other_version": (UnsupportedVersionError, lambda raw, other: [
        raw[:4] + struct.pack("<H", v) + raw[6:]
        for v in (container.FORMAT_VERSION - 1, container.FORMAT_VERSION + 1)
    ]),
    "wrong_kind": (BadMagicError, lambda raw, other: [other]),
    "truncated": (TruncatedFileError, lambda raw, other: [
        *truncations(raw), raw[:6] + struct.pack("<I", 2**32 - 1) + raw[10:],
        *huge_records(raw, in_json=True),
    ]),
    "trailing_bytes": (TruncatedFileError, lambda raw, other: [raw + b"\0", raw + raw]),
    "malformed_json": (ContainerError, lambda raw, other: [
        raw[: PREFIX.size] + bad + raw[PREFIX.size + 1 :] for bad in (b"[", b"\xff")
    ]),
    "shape_disagrees": (ContainerError, lambda raw, other: each_array(
        raw, lambda e, a: ({**e, "shape": [*e["shape"], 1]}, a)
    )),
    "huge_record_shape": (ContainerError, lambda raw, other: huge_records(raw, in_json=False)),
    "not_float64": (ContainerError, lambda raw, other: each_array(
        raw, lambda e, a: (e, a.astype(np.float32))
    )),
    "renamed_array": (ContainerError, lambda raw, other: each_array(
        raw, lambda e, a: ({**e, "name": e["name"] + "_"}, a)
    )),
    "missing_array": (ContainerError, lambda raw, other: dropped_arrays(raw)),
}


@pytest.mark.parametrize("fault", list(FAULTS))
@pytest.mark.parametrize("kind", list(LOADERS))
def test_malformed_file_raises_container_error(files, tmp_path, kind, fault):
    error, variants = FAULTS[fault]
    path = tmp_path / "bad"
    count = 0
    for raw in variants(files[kind], files[OTHER[kind]]):
        path.write_bytes(raw)
        with pytest.raises(ContainerError) as info:
            LOADERS[kind](path)
        assert type(info.value) is error, f"variant {count}: {info.value!r}"
        count += 1
    assert count > 0


@pytest.mark.parametrize("kind", list(LOADERS))
def test_split_join_round_trip(files, kind):
    # the helpers above rebuild a file byte for byte, so each fault changes only what it names
    assert join(*split(files[kind])) == files[kind]


def test_unconvertible_array_leaves_no_file(tmp_path):
    path = tmp_path / "d"
    with pytest.raises(ValueError):
        container.save(path, container.DATASET, {}, {"a": np.zeros(3), "b": "abc"})
    assert list(tmp_path.iterdir()) == []


def test_failed_write_removes_the_temp_file(tmp_path, monkeypatch):
    def failing_save(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(np, "save", failing_save)
    with pytest.raises(OSError, match="disk full"):
        container.save(tmp_path / "d", container.DATASET, {}, {"a": np.zeros(3)})
    assert list(tmp_path.iterdir()) == []
