import struct

import numpy as np
import pytest

from rdiv.dataio import (
    DatasetFormatError,
    LabeledSet,
    load_cifar10,
    load_idx,
    take_first,
)


def write_idx_pair(tmp_path, pixels, labels):
    """Encode uint8 pixel volume (count, rows, cols) and labels as IDX files."""
    count, rows, cols = pixels.shape
    images_path = tmp_path / "images.idx"
    labels_path = tmp_path / "labels.idx"
    images_path.write_bytes(
        struct.pack(">IIII", 0x00000803, count, rows, cols) + pixels.tobytes())
    labels_path.write_bytes(
        struct.pack(">II", 0x00000801, len(labels)) + bytes(labels))
    return images_path, labels_path


def sample_pixels(count=5, rows=4, cols=3, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=(count, rows, cols), dtype=np.uint8)


def test_idx_round_trip(tmp_path):
    pixels = sample_pixels()
    labels = [3, 1, 4, 1, 5]
    data = load_idx(*write_idx_pair(tmp_path, pixels, labels), name="digits")
    assert data.images.shape == (5, 4, 3, 1)
    assert data.images.dtype == np.float32
    assert data.labels.tolist() == labels
    assert data.labels.dtype == np.int64
    assert data.name == "digits"
    assert len(data) == 5
    assert np.allclose(data.images[..., 0], pixels / 255.0)


def test_idx_pixel_scale_endpoints(tmp_path):
    pixels = np.array([[[0, 255], [128, 1]]], dtype=np.uint8)
    data = load_idx(*write_idx_pair(tmp_path, pixels, [7]))
    assert data.images[0, 0, 0, 0] == 0.0
    assert data.images[0, 0, 1, 0] == 1.0
    assert data.images[0, 1, 0, 0] == np.float32(128 / 255)


def test_idx_bad_image_magic_names_value(tmp_path):
    images_path, labels_path = write_idx_pair(tmp_path, sample_pixels(), [0] * 5)
    raw = bytearray(images_path.read_bytes())
    raw[:4] = struct.pack(">I", 0x00000802)
    images_path.write_bytes(bytes(raw))
    with pytest.raises(DatasetFormatError, match="0x00000802"):
        load_idx(images_path, labels_path)


def test_idx_bad_label_magic(tmp_path):
    images_path, labels_path = write_idx_pair(tmp_path, sample_pixels(), [0] * 5)
    raw = bytearray(labels_path.read_bytes())
    raw[3] = 0x05
    labels_path.write_bytes(bytes(raw))
    with pytest.raises(DatasetFormatError, match="magic"):
        load_idx(images_path, labels_path)


def test_idx_truncated_images_rejected(tmp_path):
    images_path, labels_path = write_idx_pair(tmp_path, sample_pixels(), [0] * 5)
    raw = images_path.read_bytes()
    images_path.write_bytes(raw[:-1])
    with pytest.raises(DatasetFormatError):
        load_idx(images_path, labels_path)


def test_idx_trailing_bytes_rejected(tmp_path):
    images_path, labels_path = write_idx_pair(tmp_path, sample_pixels(), [0] * 5)
    images_path.write_bytes(images_path.read_bytes() + b"\x00")
    with pytest.raises(DatasetFormatError):
        load_idx(images_path, labels_path)


def test_idx_count_mismatch_rejected(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    images_path, _ = write_idx_pair(tmp_path / "a", sample_pixels(), [0] * 5)
    _, labels_path = write_idx_pair(tmp_path / "b", sample_pixels(count=4), [0] * 4)
    with pytest.raises(DatasetFormatError, match="count"):
        load_idx(images_path, labels_path)


def test_idx_load_is_pure(tmp_path):
    paths = write_idx_pair(tmp_path, sample_pixels(), [1, 2, 3, 4, 5])
    first = load_idx(*paths)
    second = load_idx(*paths)
    assert np.array_equal(first.images, second.images)
    assert np.array_equal(first.labels, second.labels)


def write_cifar_batch(path, labels, pixel_fill):
    records = b""
    for label, fill in zip(labels, pixel_fill):
        records += bytes([label]) + bytes([fill]) * 3072
    path.write_bytes(records)


def test_cifar_round_trip(tmp_path):
    a = tmp_path / "batch_a.bin"
    b = tmp_path / "batch_b.bin"
    write_cifar_batch(a, [3, 9], [0, 255])
    write_cifar_batch(b, [1], [51])
    data = load_cifar10([a, b])
    assert data.images.shape == (3, 32, 32, 3)
    assert data.labels.tolist() == [3, 9, 1]
    assert np.all(data.images[0] == 0.0)
    assert np.all(data.images[1] == 1.0)
    assert np.allclose(data.images[2], np.float32(51 / 255))


def test_cifar_plane_order(tmp_path):
    # One record: red plane 255, green 0, blue 0.
    path = tmp_path / "batch.bin"
    path.write_bytes(bytes([5]) + bytes([255]) * 1024 + bytes([0]) * 2048)
    data = load_cifar10([path])
    assert np.all(data.images[0, :, :, 0] == 1.0)
    assert np.all(data.images[0, :, :, 1:] == 0.0)


def test_cifar_bad_length_rejected(tmp_path):
    path = tmp_path / "batch.bin"
    write_cifar_batch(path, [1], [0])
    path.write_bytes(path.read_bytes()[:-1])
    with pytest.raises(DatasetFormatError):
        load_cifar10([path])
    path.write_bytes(b"")
    with pytest.raises(DatasetFormatError):
        load_cifar10([path])


def test_cifar_no_paths_rejected():
    with pytest.raises(DatasetFormatError):
        load_cifar10([])


def test_labeled_set_count_mismatch_rejected():
    with pytest.raises(ValueError):
        LabeledSet(np.zeros((3, 2, 2, 1), np.float32), np.zeros(2, np.int64),
                   name="x", paths=())


def test_labeled_set_rejects_wrong_dtypes_and_shapes():
    images = np.zeros((3, 2, 2, 1), np.float32)
    labels = np.zeros(3, np.int64)
    for bad, match in ((images.astype(np.uint8), "uint8"),
                       (images.astype(np.float64), "float64"),
                       (images.reshape(3, 4), r"shape \(3, 4\)"),
                       (images.tolist(), "list")):
        with pytest.raises(ValueError, match=match):
            LabeledSet(bad, labels, name="x", paths=())
    for bad, match in ((labels.astype(np.float32), "float32"),
                       (labels.astype(bool), "bool"),
                       (labels.reshape(3, 1), r"shape \(3, 1\)"),
                       ([0, 0, 0], "list")):
        with pytest.raises(ValueError, match=match):
            LabeledSet(images, bad, name="x", paths=())
    assert len(LabeledSet(images, labels.astype(np.uint8), name="x", paths=())) == 3


def test_take_first(tmp_path):
    data = load_idx(*write_idx_pair(tmp_path, sample_pixels(), [5, 4, 3, 2, 1]))
    head = take_first(data, 2)
    assert len(head) == 2
    assert head.labels.tolist() == [5, 4]
    assert np.array_equal(head.images, data.images[:2])
    assert len(take_first(data, 5)) == 5
    with pytest.raises(ValueError):
        take_first(data, 6)
