import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdiv.rng import (
    _STREAM_BLOCK,
    MasterKey,
    derive_subkey,
    fisher_yates,
    keyed_permutation,
    keyed_sign_mask,
    next_u64,
    skip,
    u64_stream,
    uniform_floats,
)

# Reference outputs computed by hand-executing the three-line recurrence in
# an independent script; the seed-0 value matches the published test vector.
SEED0_FIRST3 = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
SEED1_FIRST3 = [0x910A2DEC89025CC1, 0xBEEB8DA1658EEC67, 0xF893A2EEFB32555E]


def test_next_u64_seed0_golden():
    state = 0
    for expected in SEED0_FIRST3:
        value, state = next_u64(state)
        assert value == expected


def test_next_u64_seed1_golden():
    state = 1
    for expected in SEED1_FIRST3:
        value, state = next_u64(state)
        assert value == expected


def test_next_u64_purity():
    a = next_u64(12345)
    b = next_u64(12345)
    assert a == b


def test_million_draws_reproduce_exactly():
    first = u64_stream(1, 1_000_000)
    second = u64_stream(1, 1_000_000)
    assert np.array_equal(first, second)


def test_stream_matches_scalar_path():
    state = 987654321
    scalar = []
    s = state
    for _ in range(100):
        v, s = next_u64(s)
        scalar.append(v)
    assert u64_stream(state, 100).tolist() == scalar
    assert skip(state, 100) == s


@given(st.integers(min_value=0, max_value=(1 << 64) - 1))
def test_stream_prefix_consistency(seed):
    assert u64_stream(seed, 7).tolist()[:3] == u64_stream(seed, 3).tolist()


def test_derive_subkey_golden():
    assert derive_subkey(MasterKey(0xDEADBEEF), 0, 0, 0) == 0x4ADFB90F68C9EB9B
    assert derive_subkey(MasterKey(0xDEADBEEF), 1, 2, 3) == 0x71E23A00A1D85A79


def test_derive_subkey_deterministic():
    m = MasterKey(0x1122334455667788)
    assert derive_subkey(m, 2, 3, 1) == derive_subkey(m, 2, 3, 1)


def test_derive_subkey_branches_differ():
    # Exhaustive check over 1000 random masters: branch index must matter.
    rng = np.random.default_rng(0)
    for value in rng.integers(0, 1 << 64, size=1000, dtype=np.uint64):
        m = MasterKey(int(value))
        assert derive_subkey(m, 0, 0, 0) != derive_subkey(m, 0, 1, 0)


def test_derive_subkey_grid_distinct():
    m = MasterKey(0xA5A5A5A5A5A5A5A5)
    keys = [derive_subkey(m, j, i, 0) for j in range(3) for i in range(5)]
    assert len(set(keys)) == 15


def test_derive_subkey_no_collisions_bulk():
    rng = np.random.default_rng(7)
    seen = set()
    for _ in range(10_000):
        m = MasterKey(int(rng.integers(0, 1 << 64, dtype=np.uint64)))
        j, i = int(rng.integers(0, 8)), int(rng.integers(0, 32))
        seen.add(derive_subkey(m, j, i, 0))
    assert len(seen) == 10_000


def test_keyed_permutation_single_element():
    assert keyed_permutation(123, 1).tolist() == [0]


def test_keyed_permutation_golden_key42():
    # Independent oracle: SplitMix64 + descending Fisher-Yates, j = draw mod (i+1).
    assert keyed_permutation(42, 4).tolist() == [2, 0, 3, 1]
    assert keyed_permutation(7, 8).tolist() == [1, 4, 5, 2, 6, 0, 3, 7]


def test_keyed_permutation_rejects_empty():
    with pytest.raises(ValueError):
        keyed_permutation(1, 0)


@given(st.integers(min_value=0, max_value=(1 << 64) - 1),
       st.integers(min_value=1, max_value=200))
@settings(max_examples=60)
def test_keyed_permutation_is_bijection(key, n):
    perm = keyed_permutation(key, n)
    assert sorted(perm.tolist()) == list(range(n))


def test_fisher_yates_golden():
    # Byte-identical retraining (the shuffle in `nn._keyed_order`) and the
    # permutations a saved system rebuilds on load both need these fixed.
    order = fisher_yates(0x0123456789ABCDEF, 1000)
    assert hashlib.sha256(order.tobytes()).hexdigest() == (
        "83920312d1df76d1d561fce9766344eb2a1b9367e98ced9e53871fb9f23a776e")
    assert fisher_yates(5, 10).tolist() == [3, 6, 0, 4, 5, 1, 2, 9, 7, 8]
    perm = keyed_permutation(0xFEEDFACE, 784)
    assert hashlib.sha256(perm.tobytes()).hexdigest() == (
        "7890732eac2406675c76661bb73433e008fb5dba59f486b59339a3c0dd038100")


def test_fisher_yates_empty_and_dtype():
    assert fisher_yates(5, 0).shape == (0,)
    assert fisher_yates(5, 3).dtype == np.int64


def test_keyed_permutation_100_sorted():
    perm = keyed_permutation(99, 100)
    assert np.array_equal(np.sort(perm), np.arange(100))


def test_sign_mask_empty_region():
    mask = keyed_sign_mask(5, (8, 8), (3, 3, 0, 8))
    assert np.array_equal(mask, np.ones((8, 8)))


def test_sign_mask_full_region_balanced():
    mask = keyed_sign_mask(7, (28, 28), (0, 28, 0, 28))
    frac_negative = np.mean(mask < 0)
    assert abs(frac_negative - 0.5) < 0.05


def test_sign_mask_deterministic():
    a = keyed_sign_mask(11, (16, 16), (4, 12, 4, 12))
    b = keyed_sign_mask(11, (16, 16), (4, 12, 4, 12))
    assert np.array_equal(a, b)


def test_sign_mask_outside_region_untouched():
    mask = keyed_sign_mask(3, (10, 10), (0, 5, 5, 10))
    assert np.all(mask[5:, :] == 1.0)
    assert np.all(mask[:, :5] == 1.0)


def test_sign_mask_is_involution():
    mask = keyed_sign_mask(13, (12, 12), (0, 12, 0, 12))
    assert np.array_equal(mask * mask, np.ones((12, 12)))


def test_sign_mask_region_out_of_bounds():
    with pytest.raises(ValueError):
        keyed_sign_mask(1, (8, 8), (0, 9, 0, 8))


def test_uniform_floats_range_and_determinism():
    key = 0xABCDEF
    u = uniform_floats(key, 10_000)
    assert np.all((u >= 0.0) & (u < 1.0))
    assert np.array_equal(u, uniform_floats(key, 10_000))
    assert abs(u.mean() - 0.5) < 0.02


@pytest.mark.parametrize("count", [0, 1, _STREAM_BLOCK - 1, _STREAM_BLOCK,
                                   _STREAM_BLOCK + 1, 2 * _STREAM_BLOCK + 7])
def test_uniform_floats_matches_scalar_stream(count):
    # Reference: the top 53 bits of each sequential next_u64 draw, scaled.
    key = 0x5EED5EED5EED5EED
    state = key
    expected = []
    for _ in range(count):
        value, state = next_u64(state)
        expected.append((value >> 11) * 2.0**-53)
    got = uniform_floats(key, count)
    assert got.dtype == np.float64 and got.shape == (count,)
    assert np.array_equal(got, np.asarray(expected, dtype=np.float64))


def test_master_key_hex_roundtrip():
    key = MasterKey(0x0123456789ABCDEF)
    assert key.to_hex() == "0123456789abcdef"
    assert MasterKey.from_hex(key.to_hex()) == key
    with pytest.raises(ValueError):
        MasterKey.from_hex("123")


def test_master_key_repr_shows_no_digit_of_the_key():
    key = MasterKey(6840227782638526189)
    assert repr(key) == str(key) == "MasterKey()"


# Sixteen characters each, and each accepted by int(text, 16).
LOOSE_KEY_HEX = ("0x000000000000ab", "+00000000000000a", " 00000000000000a",
                 "0000_0000_0000_a")


def test_key_hex_takes_exactly_16_hex_digits():
    for text in LOOSE_KEY_HEX:
        assert len(text) == 16
        int(text, 16)
        with pytest.raises(ValueError, match="16 hex digits"):
            MasterKey.from_hex(text)
    assert MasterKey.from_hex("00C0FFEE00C0FFEE") == MasterKey(0x00C0FFEE00C0FFEE)
