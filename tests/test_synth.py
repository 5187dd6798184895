"""Golden bytes of the synthetic digit generator.

The benchmark, the acceptance tests and every golden system digest train on
`make_dataset` output, so its pixels and labels are pinned here per
(count, seed). A faster generator must reproduce these digests exactly.
"""

import hashlib

import numpy as np
import pytest

import _synth
from _synth import SIZE, make_dataset

GOLDEN_DATASET_SHA256 = {
    (2000, 3): "96a7d31dd5c493583fa025859b181c42cafd4054b8b81fe293949a46b7a3b8bd",
    (1000, 4): "a967605efaa7f207cbd1605a6e2e7e2e3d0902ac73823371c50f36b1bebdaefc",
    (10000, 1): "9ea537e2a57b310e708348376e4e315cf0e8371074188ddf0080a463ca181f32",
    (2000, 2): "ea63550d83f0b472adcd1e6cb3349d45c5c7e1deb9e483aac393186754264471",
    (7, 33): "d8eaa1c0b08d591bd63b377ea73cb68ed6d3123669e5b7f63566a21a5f4e87f3",
}


@pytest.mark.parametrize("count, seed", sorted(GOLDEN_DATASET_SHA256))
def test_make_dataset_golden_bytes(count, seed):
    pixels, labels = make_dataset(count, seed)
    assert pixels.dtype == np.uint8 and pixels.shape == (count, SIZE, SIZE)
    assert labels.dtype == np.int64 and labels.shape == (count,)
    digest = hashlib.sha256(pixels.tobytes() + labels.tobytes()).hexdigest()
    assert digest == GOLDEN_DATASET_SHA256[count, seed]


def _make_dataset_loop(count, seed):
    """Reference: the same draws, each glyph added in its own slice."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, _synth.CLASSES, size=count).astype(np.int64)
    shifts = rng.integers(-_synth._MAX_JITTER, _synth._MAX_JITTER + 1, size=(count, 2))
    amps = rng.uniform(0.6, 1.0, size=count).astype(np.float32)
    out = rng.uniform(0.0, 0.2, size=(count, SIZE, SIZE)).astype(np.float32)
    block = _synth._BLOCK
    for pos in range(count):
        r = _synth._BASE_OFFSET + shifts[pos, 0]
        c = _synth._BASE_OFFSET + shifts[pos, 1]
        out[pos, r:r + block, c:c + block] += amps[pos] * _synth.glyph(labels[pos])
    out = np.clip(out, 0.0, 1.0)
    return np.round(out * 255.0).astype(np.uint8), labels


@pytest.mark.parametrize("seed", [0, 5, 1009])
def test_make_dataset_matches_per_image_loop(seed):
    pixels, labels = make_dataset(300, seed)
    ref_pixels, ref_labels = _make_dataset_loop(300, seed)
    assert np.array_equal(pixels, ref_pixels)
    assert np.array_equal(labels, ref_labels)
