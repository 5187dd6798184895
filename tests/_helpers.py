"""Single-image helpers for tests; the library works on (B, N, N, m) batches."""

import numpy as np

from rdiv.transforms import Preprocessor, preprocess_batch


def preprocess(p: Preprocessor, x: np.ndarray) -> np.ndarray:
    """Apply the keyed mapping to one N x N x m image."""
    return preprocess_batch(p, np.asarray(x)[np.newaxis])[0]
