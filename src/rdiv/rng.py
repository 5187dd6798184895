"""Deterministic keyed randomness.

Every random artifact in the system (permutations, sign masks, weight init,
shuffle order) is derived from a single 64-bit master key through the
functions in this module. The generator is SplitMix64, chosen because it is
trivially portable and bit-exact: the same key must yield the same
transforms at training and test time, on any platform. The exact
recurrence, the sub-key derivation constants, and the modulo rule used in the
shuffle are part of the wire-level contract; saved models are only valid as
long as these stay fixed.

There is no cryptographic claim here and no hidden global state: all
functions are pure. Derived keys and stream states are plain 64-bit ints,
passed by value: a key is the state its stream starts from. `require_u64`
is the one check of such a value: a master key, a lineage index or a
stream state that is not an int in [0, 2**64) is refused where it enters,
not reduced mod 2**64, and `require_master` refuses a non-MasterKey master.
"""

from __future__ import annotations

import string
from dataclasses import dataclass, field

import numpy as np

_MASK64 = (1 << 64) - 1

# SplitMix64 constants (Steele, Lea, Flood 2014).
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# Second mixing constant for the branch index in sub-key derivation.
_BRANCH_C = 0xC2B2AE3D27D4EB4F

# Purpose tags keep the derived streams for one (j, i) lineage disjoint.
TAG_PREPROCESS = 0
TAG_INIT = 1
TAG_SHUFFLE = 2
TAG_PER_COLOR_BASE = 16  # per-color permutations use TAG_PER_COLOR_BASE + c


def require_u64(value, what: str) -> int:
    """`value` as an int in [0, 2**64); bools, floats and strings are refused.

    bool is an int subclass, so `True` must be ruled out by name.
    """
    if isinstance(value, bool) or not isinstance(value, int) or not 0 <= value <= _MASK64:
        raise ValueError(f"{what} must be a 64-bit unsigned int, got {value!r}")
    return value


def require_master(master) -> MasterKey:
    """`master` itself if it is a MasterKey; a bare int or hex string is refused."""
    if not isinstance(master, MasterKey):
        raise ValueError(f"master must be a MasterKey, got {type(master).__name__}")
    return master


def hex16_value(text: str) -> int:
    """The value of a key's serialized form: exactly 16 hex digits.

    `int(text, 16)` alone would also take a sign, a 0x prefix, surrounding
    whitespace and underscores.
    """
    if len(text) != 16 or not all(c in string.hexdigits for c in text):
        raise ValueError(f"key hex must be 16 hex digits, got {text!r}")
    return int(text, 16)


@dataclass(frozen=True)
class MasterKey:
    """Secret 64-bit key shared between training and testing."""

    value: int = field(repr=False)

    def __post_init__(self):
        require_u64(self.value, "master key")

    @classmethod
    def from_hex(cls, text: str) -> "MasterKey":
        """Parse the 16-hex-digit serialized form."""
        return cls(hex16_value(text))

    def to_hex(self) -> str:
        return f"{self.value:016x}"


def next_u64(state: int) -> tuple[int, int]:
    """Advance SplitMix64 one step; returns (output, next state).

    Bit-exact recurrence, all arithmetic mod 2**64:
        state' = state + 0x9E3779B97F4A7C15
        z = state'
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB
        output = z ^ (z >> 31)
    """
    s = (require_u64(state, "state") + _GAMMA) & _MASK64
    z = s
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31), s


def u64_stream(state: int, count: int) -> np.ndarray:
    """Vectorized SplitMix64: the next `count` outputs as a uint64 array.

    Produces exactly the values of `count` sequential next_u64 calls. The
    state sequence is the arithmetic progression state + k * gamma, so the
    whole stream can be mixed elementwise.
    """
    require_u64(count, "count")
    with np.errstate(over="ignore"):
        z = np.arange(1, count + 1, dtype=np.uint64)
        z *= np.uint64(_GAMMA)
        z += np.uint64(require_u64(state, "state"))
        z ^= z >> np.uint64(30)
        z *= np.uint64(_MIX1)
        z ^= z >> np.uint64(27)
        z *= np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
        return z


def skip(state: int, count: int) -> int:
    """State after `count` next_u64 steps, in O(1)."""
    return (require_u64(state, "state") + require_u64(count, "count") * _GAMMA) & _MASK64


def derive_subkey(master: MasterKey, j: int, i: int, tag: int) -> int:
    """Derive the sub-key for lineage (j, i, tag).

    One SplitMix64 step from state master ^ (j * gamma) ^ (i * branch_c) ^ tag.
    Pure in its inputs; distinct lineages give distinct keys with
    overwhelming probability. Each index must be below 2**64: j and
    j + 2**64 would give the same key.
    """
    for value, what in ((j, "j"), (i, "i"), (tag, "tag")):
        require_u64(value, f"lineage index {what}")
    seed = (require_master(master).value
            ^ ((j * _GAMMA) & _MASK64)
            ^ ((i * _BRANCH_C) & _MASK64)
            ^ tag) & _MASK64
    return next_u64(seed)[0]


# Draws per block of the `uniform_floats` sweep: each block's uint64
# passes stay in cache instead of streaming whole-stream arrays through it.
_STREAM_BLOCK = 1 << 15


def uniform_floats(key: int, count: int) -> np.ndarray:
    """`count` keyed floats in [0, 1), float64, from the key's stream.

    Uses the top 53 bits of each draw so every value is exactly
    representable. The stream is drawn in blocks of `_STREAM_BLOCK`.
    """
    out = np.empty(count, dtype=np.float64)
    for start in range(0, count, _STREAM_BLOCK):
        raw = u64_stream(key, min(_STREAM_BLOCK, count - start))
        raw >>= np.uint64(11)
        out[start:start + raw.size] = raw
        key = skip(key, raw.size)
    out *= 2.0**-53
    return out


def fisher_yates(state: int, n: int) -> np.ndarray:
    """Keyed shuffle of [0..n-1] as an int64 array, drawn from `state`.

    Descending Fisher-Yates over the next n-1 outputs of the stream with
    swap index draw mod (i+1). Modulo (not rejection) sampling: the bias is
    below n / 2**64 per swap and the output is fully pinned down by the
    state. Every swap target is computed in one vectorized step; the swaps
    run in order through a memoryview of the returned array.
    """
    perm = np.arange(n, dtype=np.int64)
    targets = u64_stream(state, max(n - 1, 0)) % np.arange(n, 1, -1, dtype=np.uint64)
    view = memoryview(perm)
    for i, j in zip(range(n - 1, 0, -1), targets.tolist()):
        view[i], view[j] = view[j], view[i]
    return perm


def keyed_permutation(key: int, n: int) -> np.ndarray:
    """Keyed bijection of [0..n-1]: fisher_yates over the key's stream."""
    if require_u64(n, "permutation length") < 1:
        raise ValueError(f"permutation length must be at least 1, got {n!r}")
    return fisher_yates(key, n)


def keyed_sign_mask(key: int, shape: tuple[int, int],
                    region: tuple[int, int, int, int]) -> np.ndarray:
    """Keyed {-1,+1} mask over `shape`, flipping only inside `region`.

    `region` is (row0, row1, col0, col1), half-open. Entries outside the
    region are +1. Inside, the low bit of each draw (row-major over the
    region) selects -1 (bit 1) or +1 (bit 0).
    """
    rows, cols = shape
    r0, r1, c0, c1 = region
    if not (0 <= r0 <= r1 <= rows and 0 <= c0 <= c1 <= cols):
        raise ValueError(f"region {region} out of bounds for shape {shape}")
    mask = np.ones(shape, dtype=np.float64)
    bits = u64_stream(key, (r1 - r0) * (c1 - c0)) & np.uint64(1)
    block = 1.0 - 2.0 * bits.astype(np.float64)  # bit 1 -> -1, bit 0 -> +1
    mask[r0:r1, c0:c1] = block.reshape(r1 - r0, c1 - c0)
    return mask

