"""Deterministic synthetic 10-class image dataset, written as IDX files.

Stands in for MNIST when the real files are absent. Each class renders a
distinct binary glyph (outer products of Hadamard rows, upscaled 2x) at a
jittered position with jittered amplitude over uniform background noise.

Every glyph lights exactly half of its 16x16 block, and jitter never clips
at the borders, so per-class pixel histograms are identical: nothing about
the class survives a pixel permutation. That property is load-bearing for
the key-mismatch tests; do not swap in glyphs with unequal ink.
"""

import struct
from pathlib import Path

import numpy as np

SIZE = 28
CLASSES = 10

_GLYPH_CELLS = 8
_UPSCALE = 2
_BLOCK = _GLYPH_CELLS * _UPSCALE  # 16
_BASE_OFFSET = 6
_MAX_JITTER = 3

# (row, col) Hadamard index pairs; all rows non-constant so every outer
# product lights exactly half its cells.
_PAIRS = ((1, 1), (2, 2), (3, 3), (4, 4), (5, 5),
          (6, 6), (7, 7), (1, 2), (2, 3), (3, 4))


def _hadamard8() -> np.ndarray:
    h = np.array([[1]], dtype=np.int64)
    for _ in range(3):
        h = np.block([[h, h], [h, -h]])
    return h


def glyph(label: int) -> np.ndarray:
    """Binary 16x16 block for one class, exactly 128 lit pixels."""
    h = _hadamard8()
    p, q = _PAIRS[label]
    cells = (np.outer(h[p], h[q]) > 0).astype(np.float32)
    return np.kron(cells, np.ones((_UPSCALE, _UPSCALE), dtype=np.float32))


_GLYPHS = np.stack([glyph(label) for label in range(CLASSES)])


def make_dataset(count: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(count, 28, 28) uint8 pixels plus int labels, reproducible per seed."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, CLASSES, size=count).astype(np.int64)
    shifts = rng.integers(-_MAX_JITTER, _MAX_JITTER + 1, size=(count, 2))
    amps = rng.uniform(0.6, 1.0, size=count).astype(np.float32)
    out = rng.uniform(0.0, 0.2, size=(count, SIZE, SIZE)).astype(np.float32)
    # Each image's glyph block at its own offset, all images in one pass.
    # The indices broadcast, so the only temporaries are (count, 16, 16).
    span = np.arange(_BLOCK)
    rows = (_BASE_OFFSET + shifts[:, 0])[:, None, None] + span[None, :, None]
    cols = (_BASE_OFFSET + shifts[:, 1])[:, None, None] + span[None, None, :]
    out[np.arange(count)[:, None, None], rows, cols] += amps[:, None, None] * _GLYPHS[labels]
    np.clip(out, 0.0, 1.0, out=out)
    out *= 255.0
    return np.round(out, out=out).astype(np.uint8), labels


def write_idx(directory: Path, prefix: str, pixels: np.ndarray,
              labels: np.ndarray) -> tuple[Path, Path]:
    count, rows, cols = pixels.shape
    images_path = directory / f"{prefix}-images.idx"
    labels_path = directory / f"{prefix}-labels.idx"
    images_path.write_bytes(
        struct.pack(">IIII", 0x00000803, count, rows, cols) + pixels.tobytes())
    labels_path.write_bytes(
        struct.pack(">II", 0x00000801, count) + bytes(int(v) for v in labels))
    return images_path, labels_path


def ensure_dataset(directory: Path, train_count: int = 10000,
                   test_count: int = 2000) -> dict[str, Path]:
    """Write (or reuse) the train/test IDX files under `directory`."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {
        "train_images": directory / "train-images.idx",
        "train_labels": directory / "train-labels.idx",
        "test_images": directory / "test-images.idx",
        "test_labels": directory / "test-labels.idx",
    }
    if not all(p.is_file() for p in paths.values()):
        pixels, labels = make_dataset(train_count, seed=1)
        write_idx(directory, "train", pixels, labels)
        pixels, labels = make_dataset(test_count, seed=2)
        write_idx(directory, "test", pixels, labels)
    return paths
