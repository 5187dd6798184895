"""Test helpers: a single-image wrapper, an independent index-map reference,
and artifact files as bytes.

The library works on (B, N, N, m) batches and stores a permutation channel as
one flat index map. The reference below rebuilds that map from the keyed
draws and applies it with one loop per color, the way the transforms did
before the map was flattened.

Artifacts are only ever written to and read from files, so a test that
wants an artifact's bytes saves it and reads the file, and a test that
edits those bytes writes them back and reads the file.
"""

from pathlib import Path

import numpy as np

from rdiv.rng import (
    TAG_PER_COLOR_BASE,
    TAG_PREPROCESS,
    MasterKey,
    derive_subkey,
    keyed_permutation,
)
from rdiv.transforms import Preprocessor, preprocess_batch


def preprocess(p: Preprocessor, x: np.ndarray) -> np.ndarray:
    """Apply the keyed mapping to one N x N x m image."""
    return preprocess_batch(p, np.asarray(x)[np.newaxis])[0]


def pixel_orders(master: MasterKey, j: int, i: int, size: int, colors: int,
                 per_color: bool) -> np.ndarray:
    """(m, N*N): row c is the pixel order color c reads, from the keyed draws."""
    n = size * size
    if per_color:
        return np.stack([
            keyed_permutation(derive_subkey(master, j, i, TAG_PER_COLOR_BASE + c), n)
            for c in range(colors)])
    shared = keyed_permutation(derive_subkey(master, j, i, TAG_PREPROCESS), n)
    return np.tile(shared, (colors, 1))


def flat_index(orders: np.ndarray) -> np.ndarray:
    """The flat (N*N*m,) map: entry k*m + c reads entry orders[c, k]*m + c."""
    colors, n = orders.shape
    index = np.empty(n * colors, np.int64)
    for c in range(colors):
        index[c::colors] = orders[c] * colors + c
    return index


def loop_preprocess(orders: np.ndarray, images: np.ndarray) -> np.ndarray:
    """Gather each color of a (B, N, N, m) batch through its own pixel order."""
    flat = images.reshape(len(images), orders.shape[1], len(orders))
    out = np.empty_like(flat)
    for c in range(len(orders)):
        out[:, :, c] = flat[:, orders[c], c]
    return out.reshape(images.shape)


def loop_fold(orders: np.ndarray, w1: np.ndarray) -> np.ndarray:
    """Scatter each color's rows of (N*N*m, H) weights to the pixels they read."""
    rows = w1.reshape(orders.shape[1], len(orders), -1)
    out = np.empty_like(rows)
    for c in range(len(orders)):
        out[orders[c], c] = rows[:, c]
    return out.reshape(w1.shape)


def saved_bytes(path: Path, save, *args) -> bytes:
    """`save(path, *args)`, then the bytes it wrote."""
    save(path, *args)
    return path.read_bytes()


def read_written(path: Path, read, blob: bytes):
    """Write `blob` to `path`, then `read(path)`."""
    path.write_bytes(blob)
    return read(path)
