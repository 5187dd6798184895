"""Dataset ingestion: IDX image/label pairs and CIFAR-10 binary batches.

Loading is strictly order-preserving (evaluation slices are defined as "the
first n samples in file order") and never shuffles or augments. Pixels are
normalized to [0, 1] float32 at load time.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801
CIFAR_RECORD_BYTES = 3073  # 1 label byte + 3 * 1024 plane-major pixels


class DatasetFormatError(ValueError):
    """Raised when a dataset file does not match its binary format."""


def _describe(value) -> str:
    if isinstance(value, np.ndarray):
        return f"{value.dtype} array of shape {value.shape}"
    return type(value).__name__


@dataclass(frozen=True)
class LabeledSet:
    """Images (count, N, N, m) in [0, 1] with integer class labels.

    Images must be float32 and labels a 1-D integer array; anything else is
    rejected here, where input enters, rather than being cast (and integer
    pixels truncated) by the transforms later.
    """

    images: np.ndarray
    labels: np.ndarray
    name: str
    paths: tuple[str, ...]
    num_classes: int = 10

    def __post_init__(self):
        images, labels = self.images, self.labels
        if not (isinstance(images, np.ndarray) and images.ndim == 4
                and images.dtype == np.float32):
            raise ValueError("images must be a (count, N, N, m) float32 array, "
                             f"got {_describe(images)}")
        if not (isinstance(labels, np.ndarray) and labels.ndim == 1
                and np.issubdtype(labels.dtype, np.integer)):
            raise ValueError(f"labels must be a 1-D integer array, got {_describe(labels)}")
        if images.shape[0] != labels.shape[0]:
            raise ValueError("image count does not match label count")

    def __len__(self) -> int:
        return self.images.shape[0]

    @property
    def size(self) -> int:
        return self.images.shape[1]

    @property
    def colors(self) -> int:
        return self.images.shape[3]


def load_idx(images_path: str | Path, labels_path: str | Path,
             name: str = "idx") -> LabeledSet:
    """Parse a big-endian IDX image/label file pair.

    Image header: magic 0x00000803, count, rows, cols (all u32), then
    count*rows*cols unsigned pixel bytes. Label header: magic 0x00000801,
    count, then count label bytes. Truncated files and count mismatches are
    rejected outright; there is no partial load.
    """
    image_bytes = Path(images_path).read_bytes()
    label_bytes = Path(labels_path).read_bytes()

    if len(image_bytes) < 16:
        raise DatasetFormatError(f"{images_path}: too short for an IDX image header")
    magic, count, rows, cols = struct.unpack(">IIII", image_bytes[:16])
    if magic != IDX_IMAGE_MAGIC:
        raise DatasetFormatError(
            f"{images_path}: bad image magic 0x{magic:08x}, expected 0x{IDX_IMAGE_MAGIC:08x}")
    expected = 16 + count * rows * cols
    if len(image_bytes) != expected:
        raise DatasetFormatError(
            f"{images_path}: expected {expected} bytes for {count} images, "
            f"got {len(image_bytes)}")

    if len(label_bytes) < 8:
        raise DatasetFormatError(f"{labels_path}: too short for an IDX label header")
    label_magic, label_count = struct.unpack(">II", label_bytes[:8])
    if label_magic != IDX_LABEL_MAGIC:
        raise DatasetFormatError(
            f"{labels_path}: bad label magic 0x{label_magic:08x}, "
            f"expected 0x{IDX_LABEL_MAGIC:08x}")
    if len(label_bytes) != 8 + label_count:
        raise DatasetFormatError(
            f"{labels_path}: expected {8 + label_count} bytes for {label_count} labels, "
            f"got {len(label_bytes)}")
    if label_count != count:
        raise DatasetFormatError(
            f"image count {count} does not match label count {label_count}")

    pixels = np.frombuffer(image_bytes, dtype=np.uint8, offset=16)
    images = pixels.reshape(count, rows, cols, 1).astype(np.float32) / 255.0
    labels = np.frombuffer(label_bytes, dtype=np.uint8, offset=8).astype(np.int64)
    return LabeledSet(images, labels, name, (str(images_path), str(labels_path)))


def load_cifar10(batch_paths: list[str | Path], name: str = "cifar10") -> LabeledSet:
    """Parse CIFAR-10 binary batches (3073-byte records, plane-major RGB)."""
    if not batch_paths:
        raise DatasetFormatError("no CIFAR-10 batch paths given")
    all_images, all_labels = [], []
    for path in batch_paths:
        raw = Path(path).read_bytes()
        if len(raw) == 0 or len(raw) % CIFAR_RECORD_BYTES != 0:
            raise DatasetFormatError(
                f"{path}: length {len(raw)} is not a positive multiple "
                f"of {CIFAR_RECORD_BYTES}")
        records = np.frombuffer(raw, dtype=np.uint8).reshape(-1, CIFAR_RECORD_BYTES)
        all_labels.append(records[:, 0].astype(np.int64))
        planes = records[:, 1:].reshape(-1, 3, 32, 32)
        all_images.append(np.transpose(planes, (0, 2, 3, 1)).astype(np.float32) / 255.0)
    return LabeledSet(np.concatenate(all_images), np.concatenate(all_labels),
                      name, tuple(str(p) for p in batch_paths))


def take_first(dataset: LabeledSet, n: int) -> LabeledSet:
    """Prefix slice of the first n samples in stored order."""
    if n > len(dataset):
        raise ValueError(f"requested {n} samples, set has {len(dataset)}")
    return LabeledSet(dataset.images[:n], dataset.labels[:n],
                      dataset.name, dataset.paths, dataset.num_classes)
