"""Transform-domain operators and keyed preprocessors.

A preprocessor is one channel's composed mapping: map the image into a
transform domain, apply a key-derived data-independent operator there, and
map back. The classifier behind it always consumes direct-domain images.
Every kind is linear, so at classify time `fold_into_weights` moves the
mapping into the classifier's first-layer weights instead of applying it
to each image.

Supported operator kinds:

* ``identity``             - passthrough (baseline channels).
* ``direct-permutation``   - keyed lossless permutation of the flattened
                             pixels, no transform domain involved.
* ``dct-sign-flip``        - keyed sign flips of DCT coefficients inside one
                             sub-band (or the whole plane), an involution.
* ``dct-hard-threshold``   - zero the DCT coefficients of one sub-band.

The 2D DCT is computed by explicit basis-matrix multiplication. Images here
are small (N <= 32), and the matrix form keeps the operator algebra obvious:
forward is C x C^T, inverse is C^T X C, with C orthonormal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import (
    TAG_PER_COLOR_BASE,
    TAG_PREPROCESS,
    MasterKey,
    SubKey,
    derive_subkey,
    keyed_permutation,
    keyed_sign_mask,
)

KINDS = ("identity", "direct-permutation", "dct-sign-flip", "dct-hard-threshold")

SUBBAND_IDS = ("LOW", "V", "H", "D")


@dataclass(frozen=True)
class DctPlan:
    """Orthonormal DCT-II basis for N x N images."""

    size: int
    basis: np.ndarray

    @classmethod
    def create(cls, size: int) -> "DctPlan":
        if size < 1:
            raise ValueError("plan size must be positive")
        n = np.arange(size)
        u = n.reshape(-1, 1)
        basis = np.sqrt(2.0 / size) * np.cos(np.pi * (2 * n + 1) * u / (2 * size))
        basis[0, :] = np.sqrt(1.0 / size)
        return cls(size, basis)


def dct2(plan: DctPlan, x: np.ndarray) -> np.ndarray:
    """2D DCT coefficients of an N x N matrix: C x C^T."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (plan.size, plan.size):
        raise ValueError(f"expected {plan.size}x{plan.size} input, got {x.shape}")
    return plan.basis @ x @ plan.basis.T


def idct2(plan: DctPlan, coeffs: np.ndarray) -> np.ndarray:
    """Inverse of dct2: C^T X C."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if coeffs.shape != (plan.size, plan.size):
        raise ValueError(f"expected {plan.size}x{plan.size} coefficients, got {coeffs.shape}")
    return plan.basis.T @ coeffs @ plan.basis


@dataclass(frozen=True)
class Subband:
    """One quadrant of the N x N DCT plane, half-open row/col ranges."""

    id: str
    row0: int
    row1: int
    col0: int
    col1: int

    @property
    def rect(self) -> tuple[int, int, int, int]:
        return (self.row0, self.row1, self.col0, self.col1)


def subband_rect(band_id: str, size: int) -> Subband:
    """The fixed equal-quadrant split of the DCT plane.

    LOW is the top-left quadrant (low frequencies, DC included), V top-right,
    H bottom-left, D bottom-right. Requires even N.
    """
    if size % 2 != 0:
        raise ValueError(f"sub-band split needs even size, got {size}")
    if band_id not in SUBBAND_IDS:
        raise ValueError(f"unknown sub-band {band_id!r}")
    half = size // 2
    ranges = {
        "LOW": (0, half, 0, half),
        "V": (0, half, half, size),
        "H": (half, size, 0, half),
        "D": (half, size, half, size),
    }
    return Subband(band_id, *ranges[band_id])


@dataclass(frozen=True)
class Preprocessor:
    """One channel's keyed mapping, immutable after construction.

    Payload semantics by kind:
      identity            - no payload
      direct-permutation  - permutation: (n*n,) indices, or (m, n*n) when
                            per_color is set
      dct-sign-flip       - sign_mask: (N, N) in {-1, +1}, plus subband
      dct-hard-threshold  - subband to zero
    """

    kind: str
    key: SubKey
    size: int
    colors: int
    permutation: np.ndarray | None = None
    per_color: bool = False
    sign_mask: np.ndarray | None = None
    subband: Subband | None = None

    def payload_equal(self, other: "Preprocessor") -> bool:
        """Structural equality of the materialized payloads."""
        if (self.kind, self.size, self.colors, self.per_color) != \
                (other.kind, other.size, other.colors, other.per_color):
            return False
        if self.subband != other.subband:
            return False
        for mine, theirs in ((self.permutation, other.permutation),
                             (self.sign_mask, other.sign_mask)):
            if (mine is None) != (theirs is None):
                return False
            if mine is not None and not np.array_equal(mine, theirs):
                return False
        return True


def make_preprocessor(kind: str, master: MasterKey, j: int, i: int,
                      size: int, colors: int,
                      subband: Subband | None = None,
                      per_color: bool = False) -> Preprocessor:
    """Derive the (j, i) sub-key and materialize the keyed payload.

    dct-sign-flip and dct-hard-threshold require `subband`. `per_color` gives
    direct-permutation an independent permutation per color channel instead
    of the default shared one.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown preprocessor kind {kind!r}")
    key = derive_subkey(master, j, i, TAG_PREPROCESS)
    if kind == "identity":
        return Preprocessor(kind, key, size, colors)
    if kind == "direct-permutation":
        n = size * size
        if per_color:
            perms = np.stack([
                keyed_permutation(derive_subkey(master, j, i, TAG_PER_COLOR_BASE + c), n)
                for c in range(colors)
            ])
            return Preprocessor(kind, key, size, colors,
                                permutation=perms, per_color=True)
        return Preprocessor(kind, key, size, colors,
                            permutation=keyed_permutation(key, n))
    if kind == "dct-sign-flip":
        if subband is None:
            raise ValueError("dct-sign-flip requires a sub-band")
        mask = keyed_sign_mask(key, (size, size), subband.rect)
        return Preprocessor(kind, key, size, colors,
                            sign_mask=mask, subband=subband)
    # dct-hard-threshold
    if subband is None:
        raise ValueError("dct-hard-threshold requires a sub-band")
    return Preprocessor(kind, key, size, colors, subband=subband)


def preprocess(p: Preprocessor, x: np.ndarray) -> np.ndarray:
    """Apply the keyed mapping to one N x N x m image."""
    x = np.asarray(x)
    if x.shape != (p.size, p.size, p.colors):
        raise ValueError(f"expected shape {(p.size, p.size, p.colors)}, got {x.shape}")
    return preprocess_batch(p, x[np.newaxis])[0]


def preprocess_batch(p: Preprocessor, images: np.ndarray) -> np.ndarray:
    """Apply the keyed mapping to a (B, N, N, m) batch.

    Output dtype and shape match the input, and the output is C-contiguous,
    so each image is one row once flattened. DCT arithmetic runs in float64
    and is cast back, keeping round trips well inside 1e-5 per entry.
    """
    images = np.asarray(images)
    expected = (p.size, p.size, p.colors)
    if images.ndim != 4 or images.shape[1:] != expected:
        raise ValueError(f"expected batch of shape (B, {p.size}, {p.size}, {p.colors}), "
                         f"got {images.shape}")
    if p.kind == "identity":
        return images.copy()

    if p.kind == "direct-permutation":
        batch = images.shape[0]
        flat = images.reshape(batch, p.size * p.size, p.colors)
        if p.per_color:
            out = np.empty(flat.shape, flat.dtype)
            for c in range(p.colors):
                out[:, :, c] = flat[:, p.permutation[c], c]
        else:
            # `take` writes image-major rows; `flat[:, perm, :]` would come
            # back pixel-major.
            out = np.take(flat, p.permutation, axis=1)
        return out.reshape(images.shape)

    # The DCT kinds operate on coefficients, per color channel.
    basis = DctPlan.create(p.size).basis
    # (B, N, N, m) -> (B, m, N, N) so matmul broadcasts over batch and color.
    # No name holds the float64 copy, so it is freed once the first product
    # has read it.
    coeffs = basis @ np.moveaxis(images, 3, 1).astype(np.float64) @ basis.T

    if p.kind == "dct-sign-flip":
        coeffs *= p.sign_mask
    else:  # dct-hard-threshold
        r0, r1, c0, c1 = p.subband.rect
        coeffs[:, :, r0:r1, c0:c1] = 0.0

    out = basis.T @ coeffs @ basis
    return np.ascontiguousarray(np.moveaxis(out, 1, 3), dtype=images.dtype)


def fold_into_weights(p: Preprocessor, w1: np.ndarray) -> np.ndarray:
    """First-layer weights that act on raw images as `w1` acts on preprocessed ones.

    Every kind is a fixed linear map L on flattened (N, N, m) images, so
    flat(L x) @ w1 == flat(x) @ (L^T w1). This returns L^T w1, with the
    shape and dtype of the (N*N*m, H) matrix `w1`:

    * identity: `w1` itself.
    * direct-permutation: `w1`'s rows scattered to the pixels they read,
      exact, with no float arithmetic.
    * the DCT kinds: L = C^T M C with C orthonormal and M diagonal, which
      is symmetric, so L^T w1 is `preprocess_batch` of `w1`'s columns
      viewed as images.
    """
    w1 = np.asarray(w1)
    pixels = p.size * p.size
    if w1.ndim != 2 or w1.shape[0] != pixels * p.colors:
        raise ValueError(f"expected ({pixels * p.colors}, H) weights, got {w1.shape}")
    if p.kind == "identity":
        return w1
    if p.kind == "direct-permutation":
        rows = w1.reshape(pixels, p.colors, -1)
        out = np.empty_like(rows)
        if p.per_color:
            for c in range(p.colors):
                out[p.permutation[c], c] = rows[:, c]
        else:
            out[p.permutation] = rows
        return out.reshape(w1.shape)
    columns = w1.T.reshape(-1, p.size, p.size, p.colors)
    return preprocess_batch(p, columns).reshape(len(columns), -1).T
