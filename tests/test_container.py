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

from container_bytes import PREFIX, join, split

LOADERS = {"dataset": load_dataset, "checkpoint": load_checkpoint}
OTHER = {"dataset": "checkpoint", "checkpoint": "dataset"}


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


def truncations(raw: bytes):
    """Cuts at the start, second byte, middle and last byte of every section:
    the prefix, the JSON, and each array's payload."""
    _, _, size = PREFIX.unpack(raw[: PREFIX.size])
    bounds = [0, PREFIX.size, PREFIX.size + size]
    for a in split(raw)[3]:
        bounds.append(bounds[-1] + 8 * a.size)
    cuts = {k for a, b in zip(bounds, bounds[1:]) for k in (a, a + 1, (a + b) // 2, b - 1)}
    return [raw[:k] for k in sorted(cuts)]


def each_array(raw: bytes, edit):
    """One variant per array: ``edit(entry, array)`` returns the new (entry, array)."""
    magic, version, doc, arrays = split(raw)
    for i in range(len(arrays)):
        entries, values = [dict(e) for e in doc["arrays"]], list(arrays)
        entries[i], values[i] = edit(entries[i], values[i])
        yield join(magic, version, {**doc, "arrays": entries}, values)


HUGE = [4_000_000_000_000]  # 29 TiB of float64
BAD_SHAPES = [-1, [-1, -1], 2.5, True, "3"]


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
        *each_array(raw, lambda e, a: ({**e, "shape": HUGE}, a)),
    ]),
    "trailing_bytes": (TruncatedFileError, lambda raw, other: [raw + b"\0", raw + raw]),
    "malformed_json": (ContainerError, lambda raw, other: [
        raw[: PREFIX.size] + bad + raw[PREFIX.size + 1 :] for bad in (b"[", b"\xff")
    ]),
    "bad_shape": (ContainerError, lambda raw, other: [
        variant for shape in BAD_SHAPES
        for variant in each_array(raw, lambda e, a: ({**e, "shape": shape}, a))
    ]),
    "shape_disagrees": (ContainerError, lambda raw, other: each_array(
        raw, lambda e, a: ({**e, "shape": [*e["shape"], 1]}, a)
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


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("kind", list(LOADERS))
def test_non_finite_payload_is_rejected_by_the_container(files, tmp_path, kind, value):
    # the rule is the container's, so the bare load enforces it for both kinds
    magic, version, doc, arrays = split(files[kind])
    names = [e["name"] for e in doc["arrays"]]
    path = tmp_path / "bad"
    for i, name in enumerate(names):
        values = [a.copy() for a in arrays]
        values[i].reshape(-1)[values[i].size // 2] = value
        path.write_bytes(join(magic, version, doc, values))
        with pytest.raises(ContainerError) as info:
            container.load(path, magic)
        assert str(info.value).endswith(f"['{name}']"), info.value


@pytest.mark.parametrize("kind", list(LOADERS))
def test_split_join_round_trip(files, kind):
    # split and join rebuild a file byte for byte, so each fault changes only what it names
    assert join(*split(files[kind])) == files[kind]


def test_unconvertible_array_leaves_no_file(tmp_path):
    path = tmp_path / "d"
    with pytest.raises(ValueError):
        container.save(path, container.DATASET, {}, {"a": np.zeros(3), "b": "abc"})
    assert list(tmp_path.iterdir()) == []


def test_failed_write_removes_the_temp_file(tmp_path, monkeypatch):
    class FullDisk(io.FileIO):
        def write(self, data):
            raise OSError("disk full")

    # the temp file is created, then its first write fails
    monkeypatch.setattr(container, "open", lambda path, mode: FullDisk(path, "w"), raising=False)
    with pytest.raises(OSError, match="disk full"):
        container.save(tmp_path / "d", container.DATASET, {}, {"a": np.zeros(3)})
    assert list(tmp_path.iterdir()) == []


def test_layout_is_prefix_json_then_raw_payloads(tmp_path):
    path = tmp_path / "d"
    arrays = {
        "b": np.asfortranarray(np.arange(6.0).reshape(2, 3)),
        "a": np.array(2.5),
        "empty": np.zeros((0, 4)),
        "ints": np.arange(3),
    }
    meta = {"k": [1, 2]}
    container.save(path, container.DATASET, meta, arrays)
    entries = [{"name": name, "shape": list(a.shape)} for name, a in arrays.items()]
    header = json.dumps({"meta": meta, "arrays": entries}, sort_keys=True).encode("utf-8")
    payloads = b"".join(np.asarray(a, "<f8").tobytes(order="C") for a in arrays.values())
    raw = path.read_bytes()
    assert raw == PREFIX.pack(b"TA2N", 3, len(header)) + header + payloads
    assert len(raw) == 10 + len(header) + 8 * sum(a.size for a in arrays.values())
    loaded_meta, loaded = container.load(path, container.DATASET)
    assert loaded_meta == meta and list(loaded) == list(arrays)
    for name, a in arrays.items():
        assert loaded[name].dtype == np.float64 and np.array_equal(loaded[name], a)
