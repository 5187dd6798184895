"""Dataset ingestion: IDX image/label pairs and CIFAR-10 binary batches.

Loading is strictly order-preserving (evaluation slices are defined as "the
first n samples in file order") and never shuffles or augments. Pixels are
normalized to [0, 1] float32 at load time, in place in the one float32
array a loader returns, so a load holds no second full-size float copy.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .nn import require_count

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


def _read_idx(path: str | Path, magic: int, what: str) -> np.ndarray:
    """The uint8 array of the IDX file at `path`, shaped by its header:
    `magic`, whose low byte is the dimension count, then one big-endian u32
    size per dimension. `what` names the entries in an error."""
    data = Path(path).read_bytes()
    header = 4 + 4 * (magic & 0xFF)
    if len(data) < header:
        raise DatasetFormatError(f"{path}: too short for an IDX {what} header")
    found, *shape = struct.unpack(f">{header // 4}I", data[:header])
    if found != magic:
        raise DatasetFormatError(f"{path}: bad {what} magic 0x{found:08x}, "
                                 f"expected 0x{magic:08x}")
    expected = header + math.prod(shape)
    if len(data) != expected:
        raise DatasetFormatError(
            f"{path}: expected {expected} bytes for {shape[0]} {what}s, got {len(data)}")
    return np.frombuffer(data, dtype=np.uint8, offset=header).reshape(shape)


def load_idx(images_path: str | Path, labels_path: str | Path,
             name: str = "idx") -> LabeledSet:
    """Parse a big-endian IDX image/label file pair.

    Image header: magic 0x00000803, count, rows, cols (all u32), then
    count*rows*cols unsigned pixel bytes. Label header: magic 0x00000801,
    count, then count label bytes. Truncated files and count mismatches are
    rejected outright; there is no partial load.
    """
    pixels = _read_idx(images_path, IDX_IMAGE_MAGIC, "image")
    labels = _read_idx(labels_path, IDX_LABEL_MAGIC, "label")
    if len(labels) != len(pixels):
        raise DatasetFormatError(
            f"image count {len(pixels)} does not match label count {len(labels)}")
    images = pixels.reshape(*pixels.shape, 1).astype(np.float32)
    images /= 255.0
    return LabeledSet(images, labels.astype(np.int64), name)


def load_cifar10(batch_paths: list[str | Path], name: str = "cifar10") -> LabeledSet:
    """Parse CIFAR-10 binary batches (3073-byte records, plane-major RGB).

    The file sizes give the record count up front, so every batch is
    converted into its rows of one preallocated array; only one batch's
    raw bytes are held at a time.
    """
    if not batch_paths:
        raise DatasetFormatError("no CIFAR-10 batch paths given")
    lengths = [Path(path).stat().st_size for path in batch_paths]
    for path, length in zip(batch_paths, lengths):
        if length == 0 or length % CIFAR_RECORD_BYTES != 0:
            raise DatasetFormatError(
                f"{path}: length {length} is not a positive multiple "
                f"of {CIFAR_RECORD_BYTES}")
    total = sum(lengths) // CIFAR_RECORD_BYTES
    images = np.empty((total, 32, 32, 3), np.float32)
    labels = np.empty(total, np.int64)
    start = 0
    for path, length in zip(batch_paths, lengths):
        raw = Path(path).read_bytes()
        if len(raw) != length:
            raise DatasetFormatError(f"{path}: changed size while loading")
        records = np.frombuffer(raw, dtype=np.uint8).reshape(-1, CIFAR_RECORD_BYTES)
        stop = start + len(records)
        labels[start:stop] = records[:, 0]
        planes = records[:, 1:].reshape(-1, 3, 32, 32)
        images[start:stop] = np.transpose(planes, (0, 2, 3, 1))
        start = stop
    images /= 255.0
    return LabeledSet(images, labels, name)


def take_first(dataset: LabeledSet, n: int) -> LabeledSet:
    """Prefix slice of the first n samples in stored order."""
    if require_count(n, "sample count", minimum=0) > len(dataset):
        raise ValueError(f"requested {n} samples, set has {len(dataset)}")
    return LabeledSet(dataset.images[:n], dataset.labels[:n], dataset.name)
