"""Transform-domain operators and keyed preprocessors.

A preprocessor is one channel's composed mapping: map the image into a
transform domain, apply a key-derived data-independent operator there, and
map back. The classifier behind it always consumes direct-domain images.
Every kind is linear, so at classify time `fold_into_weights` moves the
mapping into the classifier's first-layer weights instead of applying it
to each image.

Supported operator kinds:

* ``identity``             - passthrough (baseline channels).
* ``direct-permutation``   - keyed lossless permutation of the pixels, shared
                             by every color channel or drawn per color, no
                             transform domain involved.
* ``dct-sign-flip``        - keyed sign flips of DCT coefficients inside one
                             sub-band (or the whole plane), an involution.
* ``dct-hard-threshold``   - zero the DCT coefficients of one sub-band. The
                             mask takes no key: it is the same for every
                             master key and every branch.

Every kind has one of two payloads. The direct-domain kinds are an index map
into the flattened (N, N, m) image (for identity, the identity map). Both
DCT kinds multiply the coefficients by one (N, N) mask. The 2D DCT is
computed by explicit basis-matrix multiplication. Images here are small
(N <= 32), and the matrix form keeps the operator algebra obvious: forward
is C x C^T, inverse is C^T X C, with C orthonormal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nn import require_count
from .rng import (
    TAG_PER_COLOR_BASE,
    TAG_PREPROCESS,
    MasterKey,
    derive_subkey,
    keyed_permutation,
    keyed_sign_mask,
)

KINDS = ("identity", "direct-permutation", "dct-sign-flip", "dct-hard-threshold")

SUBBAND_IDS = ("V", "H", "D")

# Pixels per block of the DCT round trip in `preprocess_batch`: 2 MiB of
# float64, so one block stays near L2 (334 MNIST or 85 CIFAR images).
_BLOCK = 1 << 18


def dct_basis(size: int) -> np.ndarray:
    """Orthonormal DCT-II basis C for N x N images, float64 (N, N)."""
    require_count(size, "basis size")
    n = np.arange(size)
    u = n.reshape(-1, 1)
    basis = np.sqrt(2.0 / size) * np.cos(np.pi * (2 * n + 1) * u / (2 * size))
    basis[0, :] = np.sqrt(1.0 / size)
    return basis


def dct2(basis: np.ndarray, x: np.ndarray) -> np.ndarray:
    """2D DCT of the trailing N x N axes of `x`, in float64: C x C^T.

    The float64 copy of `x` has no name, so it is freed once the first
    product has read it. Each trailing plane is transformed on its own, so
    the result for one plane does not depend on how many others `x` holds;
    `preprocess_batch` relies on that to transform a batch block by block.
    """
    return basis @ x.astype(np.float64) @ basis.T


def idct2(basis: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Inverse of dct2 over the trailing N x N axes: C^T X C."""
    return basis.T @ coeffs @ basis


def subband_rect(band_id: str, size: int) -> tuple[int, int, int, int]:
    """One high-frequency quadrant of the N x N DCT plane as (r0, r1, c0, c1).

    The rectangle is half-open: V is the top-right quadrant, H bottom-left,
    D bottom-right. Requires even N.
    """
    if size % 2 != 0:
        raise ValueError(f"sub-band split needs even size, got {size}")
    if band_id not in SUBBAND_IDS:
        raise ValueError(f"unknown sub-band {band_id!r}")
    half = size // 2
    return {
        "V": (0, half, half, size),
        "H": (half, size, 0, half),
        "D": (half, size, half, size),
    }[band_id]


def check_batch(images, size: int, colors: int) -> np.ndarray:
    """`images` as an array, refused unless it is a (B, N, N, m) batch."""
    images = np.asarray(images)
    if images.ndim != 4 or images.shape[1:] != (size, size, colors):
        raise ValueError(f"expected batch of shape (B, {size}, {size}, {colors}), "
                         f"got {images.shape}")
    return images


@dataclass(frozen=True)
class Preprocessor:
    """One channel's keyed mapping, immutable after construction.

    It holds exactly one payload:
      permutation - int64 (N*N*m,) index map for identity and
                    direct-permutation: entry k of the row-major flattened
                    output reads entry permutation[k] of the input
      mask        - float64 (N, N) factors for the DCT coefficients of every
                    color channel; keyed +-1 inside the sub-band for
                    dct-sign-flip, 0 inside it for dct-hard-threshold, 1
                    outside it
    """

    kind: str
    size: int
    colors: int
    permutation: np.ndarray | None = None
    mask: np.ndarray | None = None

    def __post_init__(self):
        if (self.permutation is None) == (self.mask is None):
            raise ValueError("a preprocessor holds exactly one of permutation and mask")
        if self.kind.startswith("dct"):
            if np.shape(self.mask) != (self.size, self.size):
                raise ValueError(f"{self.kind} needs a ({self.size}, {self.size}) mask")
            return
        entries = self.size * self.size * self.colors
        if (np.shape(self.permutation) != (entries,)
                or np.asarray(self.permutation).dtype.kind not in "iu"):
            raise ValueError(f"{self.kind} needs a 1-D integer permutation of "
                             f"length {entries}")

    def payload_equal(self, other: "Preprocessor") -> bool:
        """Structural equality of the materialized payloads."""
        return ((self.kind, self.size, self.colors)
                == (other.kind, other.size, other.colors)
                and np.array_equal(self.permutation, other.permutation)
                and np.array_equal(self.mask, other.mask))


def make_preprocessor(kind: str, master: MasterKey, j: int, i: int,
                      size: int, colors: int,
                      subband: tuple[int, int, int, int] | None = None,
                      per_color: bool = False) -> Preprocessor:
    """Materialize channel (j, i)'s payload.

    Shared direct-permutation and dct-sign-flip draw it from the lineage's
    `TAG_PREPROCESS` sub-key, per-color permutations from one sub-key per
    color; identity and dct-hard-threshold take no key. The DCT kinds
    require `subband`, the half-open (r0, r1, c0, c1) rectangle of the
    coefficient plane they act on (see `subband_rect`). `per_color` gives
    direct-permutation an independent permutation per color channel
    instead of the default shared one.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown preprocessor kind {kind!r}")
    if kind == "identity":
        return Preprocessor(kind, size, colors, permutation=np.arange(size * size * colors))
    if kind == "direct-permutation":
        n = size * size
        if per_color:
            perms = np.stack([
                keyed_permutation(derive_subkey(master, j, i, TAG_PER_COLOR_BASE + c), n)
                for c in range(colors)
            ], axis=1)
        else:
            perms = keyed_permutation(derive_subkey(master, j, i, TAG_PREPROCESS), n)[:, None]
        # Entry k*m + c, color c of pixel k, reads color c of pixel perms[k, c].
        index = (perms * colors + np.arange(colors)).ravel()
        return Preprocessor(kind, size, colors, permutation=index)
    if subband is None:
        raise ValueError(f"{kind} requires a sub-band")
    if kind == "dct-sign-flip":
        mask = keyed_sign_mask(derive_subkey(master, j, i, TAG_PREPROCESS),
                               (size, size), subband)
    else:  # dct-hard-threshold
        r0, r1, c0, c1 = subband
        mask = np.ones((size, size))
        mask[r0:r1, c0:c1] = 0.0
    return Preprocessor(kind, size, colors, mask=mask)


def preprocess_batch(p: Preprocessor, images: np.ndarray) -> np.ndarray:
    """Apply the keyed mapping to a (B, N, N, m) batch.

    Output dtype and shape match the input, and the output is C-contiguous,
    so each image is one row once flattened. DCT arithmetic runs in float64
    and is cast back, keeping round trips well inside 1e-5 per entry. The
    round trip runs over blocks of about `_BLOCK` pixels and writes each
    into the one output array, so its float64 temporaries stay block-sized
    whatever the batch size; every image's result is bitwise that of a
    whole-batch round trip.
    """
    images = check_batch(images, p.size, p.colors)
    if p.mask is None:
        # `take` writes image-major rows; `flat[:, perm]` would come back
        # pixel-major.
        flat = images.reshape(images.shape[0], -1)
        return np.take(flat, p.permutation, axis=1).reshape(images.shape)

    # The DCT kinds scale coefficients, per color channel.
    basis = dct_basis(p.size)
    out = np.empty(images.shape, images.dtype)
    rows = max(1, _BLOCK // (p.size * p.size * p.colors))
    for start in range(0, len(images), rows):
        block = slice(start, start + rows)
        # (B, N, N, m) -> (B, m, N, N) so matmul broadcasts over batch and color.
        coeffs = dct2(basis, np.moveaxis(images[block], 3, 1))
        coeffs *= p.mask
        # The assignment casts to the output dtype as astype would.
        out[block] = np.moveaxis(idct2(basis, coeffs), 1, 3)
    return out


def fold_into_weights(p: Preprocessor, w1: np.ndarray) -> np.ndarray:
    """First-layer weights that act on raw images as `w1` acts on preprocessed ones.

    Every kind is a fixed linear map L on flattened (N, N, m) images, so
    flat(L x) @ w1 == flat(x) @ (L^T w1). This returns L^T w1, with the
    shape and dtype of the (N*N*m, H) matrix `w1`:

    * identity and direct-permutation: `w1`'s rows scattered to the
      entries they read, a new array, exact, with no float arithmetic.
    * the DCT kinds: L = C^T M C with C orthonormal and M diagonal, which
      is symmetric, so L^T w1 = L w1 applies L to `w1`'s columns viewed
      as images. With D = M - 1, which is zero outside the coefficient
      rows R and columns K the mask changes,
      L w1 = w1 + C_R^T [D_RK * (C_R W C_K^T)] C_K, computed in float64
      on W, `w1` viewed as (N, N, m*H) (rows are pixel-major), and cast
      back. A sub-band mask touches one quadrant, so this is a few large
      products instead of a full round trip per column.
    """
    w1 = np.asarray(w1)
    pixels = p.size * p.size
    if w1.ndim != 2 or w1.shape[0] != pixels * p.colors:
        raise ValueError(f"expected ({pixels * p.colors}, H) weights, got {w1.shape}")
    if p.mask is None:
        out = np.empty_like(w1)
        out[p.permutation] = w1
        return out
    size = p.size
    changed = p.mask != 1
    rows = np.flatnonzero(changed.any(axis=1))
    cols = np.flatnonzero(changed.any(axis=0))
    basis = dct_basis(size)
    c_r, c_k = basis[rows], basis[cols]
    depth = p.colors * w1.shape[1]
    grid = w1.astype(np.float64).reshape(size, size * depth)  # W, a copy
    spread = (c_r @ grid).reshape(len(rows), size, depth)
    # (R, K, m*H): coefficients R x K of every column image, times D.
    coeffs = c_k @ spread
    coeffs *= (p.mask[np.ix_(rows, cols)] - 1.0)[:, :, None]
    # The two products back reuse the buffers of C_R W and of W. `w1`
    # widens to float64 exactly and addition commutes, so adding it last
    # gives the bytes of W plus the update.
    np.matmul(c_k.T, coeffs, out=spread)
    np.matmul(c_r.T, spread.reshape(len(rows), size * depth), out=grid)
    grid += w1.reshape(grid.shape)
    return grid.reshape(w1.shape).astype(w1.dtype, copy=False)
