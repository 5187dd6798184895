import tracemalloc

import numpy as np
import pytest

from rdiv.rng import TAG_PREPROCESS, MasterKey, derive_subkey, keyed_sign_mask
from rdiv.transforms import (
    _BLOCK,
    Preprocessor,
    dct2,
    dct_basis,
    fold_into_weights,
    idct2,
    make_preprocessor,
    preprocess_batch,
    subband_rect,
)

from _helpers import flat_index, loop_fold, loop_preprocess, pixel_orders, preprocess

MASTER = MasterKey(0xC0FFEE)


def random_images(count, size, colors, seed=0):
    rng = np.random.default_rng(seed)
    return rng.random((count, size, size, colors)).astype(np.float32)


class TestDct:
    def test_constant_image_is_dc_only(self):
        coeffs = dct2(dct_basis(28), np.ones((28, 28)))
        assert coeffs[0, 0] == pytest.approx(28.0, abs=1e-6)
        coeffs[0, 0] = 0.0
        assert np.max(np.abs(coeffs)) < 1e-6

    def test_2x2_known_values(self):
        coeffs = dct2(dct_basis(2), np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert np.allclose(coeffs, [[5.0, -1.0], [-2.0, 0.0]], atol=1e-6)

    def test_energy_preserved(self):
        rng = np.random.default_rng(1)
        x = rng.random((28, 28))
        assert np.linalg.norm(dct2(dct_basis(28), x)) == pytest.approx(np.linalg.norm(x),
                                                                       abs=1e-5)

    def test_orthonormal_basis(self):
        for size in (2, 8, 28, 32):
            basis = dct_basis(size)
            gram = basis @ basis.T
            assert np.max(np.abs(gram - np.eye(size))) < 1e-10

    def test_round_trip(self):
        basis = dct_basis(28)
        rng = np.random.default_rng(2)
        for _ in range(100):
            x = rng.random((28, 28))
            assert np.max(np.abs(idct2(basis, dct2(basis, x)) - x)) < 1e-5

    def test_zero_coefficients(self):
        assert np.array_equal(idct2(dct_basis(8), np.zeros((8, 8))), np.zeros((8, 8)))

    def test_dc_only_gives_constant(self):
        coeffs = np.zeros((8, 8))
        coeffs[0, 0] = 8.0
        assert np.allclose(idct2(dct_basis(8), coeffs), np.ones((8, 8)), atol=1e-10)

    def test_size_mismatch(self):
        basis = dct_basis(8)
        with pytest.raises(ValueError):
            dct2(basis, np.zeros((4, 4)))
        with pytest.raises(ValueError):
            idct2(basis, np.zeros((4, 4)))
        with pytest.raises(ValueError):
            dct_basis(0)

    def test_acts_on_trailing_axes(self):
        basis = dct_basis(8)
        stack = np.random.default_rng(3).random((3, 2, 8, 8)).astype(np.float32)
        coeffs = dct2(basis, stack)
        assert coeffs.shape == stack.shape and coeffs.dtype == np.float64
        restored = idct2(basis, coeffs)
        for k in range(3):
            for c in range(2):
                assert np.allclose(coeffs[k, c], dct2(basis, stack[k, c]), rtol=0, atol=1e-12)
                assert np.allclose(restored[k, c], stack[k, c], rtol=0, atol=1e-6)


class TestSubband:
    def test_quadrants_28(self):
        assert subband_rect("D", 28) == (14, 28, 14, 28)
        assert subband_rect("V", 28) == (0, 14, 14, 28)
        assert subband_rect("H", 28) == (14, 28, 0, 14)

    def test_bands_tile_disjointly(self):
        hits = np.zeros((28, 28), dtype=int)
        for band_id in ("V", "H", "D"):
            r0, r1, c0, c1 = subband_rect(band_id, 28)
            hits[r0:r1, c0:c1] += 1
        assert np.all(hits[:14, :14] == 0)
        hits[:14, :14] = 1
        assert np.all(hits == 1)

    def test_n2_band_is_single_cell(self):
        assert subband_rect("D", 2) == (1, 2, 1, 2)

    def test_odd_size_rejected(self):
        with pytest.raises(ValueError):
            subband_rect("V", 27)

    def test_low_and_unknown_bands_rejected(self):
        for band_id in ("LOW", "v", ""):
            with pytest.raises(ValueError, match="unknown sub-band"):
                subband_rect(band_id, 28)


class TestMakePreprocessor:
    def test_identity(self):
        p = make_preprocessor("identity", MASTER, 0, 0, 8, 1)
        x = random_images(1, 8, 1)[0]
        assert np.array_equal(preprocess(p, x), x)

    def test_deterministic(self):
        a = make_preprocessor("direct-permutation", MASTER, 0, 2, 28, 1)
        b = make_preprocessor("direct-permutation", MASTER, 0, 2, 28, 1)
        assert a.payload_equal(b)

    def test_permutation_is_bijection(self):
        p = make_preprocessor("direct-permutation", MASTER, 0, 0, 28, 1)
        assert sorted(p.permutation.tolist()) == list(range(784))

    def test_missing_subband_rejected(self):
        for kind in ("dct-sign-flip", "dct-hard-threshold"):
            with pytest.raises(ValueError, match="requires a sub-band"):
                make_preprocessor(kind, MASTER, 0, 0, 28, 1)

    def test_dct_kinds_store_one_coefficient_mask(self):
        band = subband_rect("V", 8)
        r0, r1, c0, c1 = band
        flip = make_preprocessor("dct-sign-flip", MASTER, 1, 2, 8, 3, subband=band)
        key = derive_subkey(MASTER, 1, 2, TAG_PREPROCESS)
        assert np.array_equal(flip.mask, keyed_sign_mask(key, (8, 8), band))
        thresh = make_preprocessor("dct-hard-threshold", MASTER, 1, 2, 8, 3, subband=band)
        want = np.ones((8, 8))
        want[r0:r1, c0:c1] = 0.0
        for p in (flip, thresh):
            assert p.mask.dtype == np.float64 and p.permutation is None
        assert np.array_equal(thresh.mask, want)
        assert not flip.payload_equal(thresh)
        assert make_preprocessor("identity", MASTER, 1, 2, 8, 3).mask is None

    def test_unknown_kind_rejected(self):
        # No mode reaches a DCT sub-sampling operator, so there is no such kind.
        for kind in ("fourier-phase", "dct-subsample"):
            with pytest.raises(ValueError, match="unknown preprocessor kind"):
                make_preprocessor(kind, MASTER, 0, 0, 28, 1)


class TestPreprocess:
    def test_shape_mismatch(self):
        p = make_preprocessor("identity", MASTER, 0, 0, 8, 1)
        for shape in ((1, 4, 4, 1), (8, 8, 1), (1, 8, 8, 3)):
            with pytest.raises(ValueError, match="expected batch"):
                preprocess_batch(p, np.zeros(shape))

    def test_sign_flip_involution(self):
        band = subband_rect("V", 28)
        p = make_preprocessor("dct-sign-flip", MASTER, 1, 0, 28, 1, subband=band)
        for x in random_images(100, 28, 1, seed=3):
            twice = preprocess(p, preprocess(p, x))
            assert np.max(np.abs(twice - x)) < 1e-5

    def test_sign_flip_full_plane_involution(self):
        band = (0, 28, 0, 28)  # global variant: region = whole plane
        p = make_preprocessor("dct-sign-flip", MASTER, 0, 0, 28, 3, subband=band)
        x = random_images(1, 28, 3, seed=4)[0]
        assert np.max(np.abs(preprocess(p, preprocess(p, x)) - x)) < 1e-5

    def test_permutation_preserves_multiset(self):
        p = make_preprocessor("direct-permutation", MASTER, 0, 1, 28, 1)
        x = random_images(1, 28, 1, seed=5)[0]
        y = preprocess(p, x)
        assert np.array_equal(np.sort(y.ravel()), np.sort(x.ravel()))

    def test_permutation_exactly_invertible(self):
        p = make_preprocessor("direct-permutation", MASTER, 0, 0, 16, 1)
        inverse = np.argsort(p.permutation)
        for x in random_images(100, 16, 1, seed=6):
            y = preprocess(p, x).reshape(256)[inverse].reshape(16, 16, 1)
            assert np.array_equal(y, x)

    def test_permutation_shared_across_colors(self):
        p = make_preprocessor("direct-permutation", MASTER, 0, 0, 8, 3)
        order = pixel_orders(MASTER, 0, 0, 8, 3, per_color=False)[0]
        x = random_images(1, 8, 3, seed=7)[0]
        y = preprocess(p, x)
        flat_x, flat_y = x.reshape(64, 3), y.reshape(64, 3)
        for c in range(3):
            assert np.array_equal(flat_y[:, c], flat_x[order, c])

    def test_per_color_permutations_differ(self):
        p = make_preprocessor("direct-permutation", MASTER, 0, 0, 8, 3, per_color=True)
        orders = pixel_orders(MASTER, 0, 0, 8, 3, per_color=True)
        assert not np.array_equal(orders[0], orders[1])
        x = random_images(1, 8, 3, seed=8)[0]
        flat_x, flat_y = x.reshape(64, 3), preprocess(p, x).reshape(64, 3)
        for c in range(3):
            assert np.array_equal(flat_y[:, c], flat_x[orders[c], c])

    def test_hard_threshold_zeroes_band_only(self):
        basis = dct_basis(28)
        band = subband_rect("V", 28)
        p = make_preprocessor("dct-hard-threshold", MASTER, 1, 0, 28, 1, subband=band)
        x = random_images(1, 28, 1, seed=9)[0]
        before = dct2(basis, x[:, :, 0])
        after = dct2(basis, preprocess(p, x)[:, :, 0])
        r0, r1, c0, c1 = band
        assert np.max(np.abs(after[r0:r1, c0:c1])) < 1e-5
        outside = np.abs(after - before)
        outside[r0:r1, c0:c1] = 0.0
        assert np.max(outside) < 1e-5

    @pytest.mark.parametrize("size, colors, band_id", [
        (8, 1, "V"), (28, 3, "H"), (32, 1, "D"),
    ])
    def test_hard_threshold_mask_matches_zeroed_slice(self, size, colors, band_id):
        # Multiplying by the 0/1 mask gives the bytes that zeroing the
        # sub-band's slice of the coefficients gives.
        band = subband_rect(band_id, size)
        p = make_preprocessor("dct-hard-threshold", MASTER, 0, 0, size, colors,
                              subband=band)
        rng = np.random.default_rng(size)
        basis = dct_basis(size)
        r0, r1, c0, c1 = band
        for batch in (random_images(4, size, colors, seed=size),
                      rng.standard_normal((3, size, size, colors)).astype(np.float32),
                      np.zeros((2, size, size, colors), np.float32)):
            coeffs = dct2(basis, np.moveaxis(batch, 3, 1))
            coeffs[:, :, r0:r1, c0:c1] = 0.0
            want = np.moveaxis(idct2(basis, coeffs), 1, 3).astype(np.float32)
            assert preprocess_batch(p, batch).tobytes() == want.tobytes()

    def test_hard_threshold_idempotent(self):
        band = subband_rect("D", 28)
        p = make_preprocessor("dct-hard-threshold", MASTER, 2, 0, 28, 1, subband=band)
        for x in random_images(100, 28, 1, seed=10):
            once = preprocess(p, x)
            assert np.max(np.abs(preprocess(p, once) - once)) < 1e-5

    def test_key_sensitivity_direct_permutation(self):
        a = make_preprocessor("direct-permutation", MasterKey(1), 0, 0, 28, 1)
        b = make_preprocessor("direct-permutation", MasterKey(2), 0, 0, 28, 1)
        for x in random_images(20, 28, 1, seed=13):
            differ = np.mean(preprocess(a, x) != preprocess(b, x))
            assert differ >= 0.99

    def test_batch_matches_single(self):
        band = subband_rect("H", 28)
        p = make_preprocessor("dct-sign-flip", MASTER, 0, 0, 28, 3, subband=band)
        batch = random_images(5, 28, 3, seed=14)
        out = preprocess_batch(p, batch)
        for k in range(5):
            assert np.array_equal(out[k], preprocess(p, batch[k]))

    def test_batch_preserves_dtype(self):
        p = make_preprocessor("dct-sign-flip", MASTER, 0, 0, 8, 1,
                              subband=subband_rect("D", 8))
        batch = random_images(2, 8, 1)
        assert preprocess_batch(p, batch).dtype == np.float32

    @pytest.mark.parametrize("colors", [1, 3])
    @pytest.mark.parametrize("kind, per_color", [
        ("identity", False),
        ("direct-permutation", False),
        ("direct-permutation", True),
        ("dct-sign-flip", False),
        ("dct-hard-threshold", False),
    ])
    def test_batch_is_row_major(self, kind, per_color, colors):
        # Training gathers each batch as whole rows of the flattened output.
        band = subband_rect("V", 8) if kind.startswith("dct") else None
        p = make_preprocessor(kind, MASTER, 0, 0, 8, colors, subband=band,
                              per_color=per_color)
        batch = random_images(6, 8, colors, seed=16)
        out = preprocess_batch(p, batch)
        assert out.flags.c_contiguous
        if kind == "identity":
            want = batch
        elif kind == "direct-permutation":
            orders = pixel_orders(MASTER, 0, 0, 8, colors, per_color)
            want = np.stack([batch.reshape(6, 64, colors)[:, orders[c], c]
                             for c in range(colors)], axis=2)
        else:
            # The DCT kinds gather nothing: compare with the per-image operator.
            want = np.stack([preprocess(p, image) for image in batch])
        assert np.array_equal(out, want.reshape(batch.shape))


def whole_batch_round_trip(p, images):
    """The DCT kinds' round trip over the whole batch in one float64 pass."""
    basis = dct_basis(p.size)
    coeffs = dct2(basis, np.moveaxis(images, 3, 1))
    coeffs *= p.mask
    return np.ascontiguousarray(np.moveaxis(idct2(basis, coeffs), 1, 3),
                                dtype=images.dtype)


def block_rows(p):
    """Images per block of `preprocess_batch`'s DCT round trip."""
    return max(1, _BLOCK // (p.size * p.size * p.colors))


class TestBlockedDct:
    @pytest.mark.parametrize("colors", [1, 3])
    @pytest.mark.parametrize("band_id", ["V", "H", "D"])
    @pytest.mark.parametrize("kind", ["dct-sign-flip", "dct-hard-threshold"])
    def test_blocks_equal_the_whole_batch_round_trip(self, kind, band_id, colors):
        p = make_preprocessor(kind, MASTER, 1, 2, 28, colors,
                              subband=subband_rect(band_id, 28))
        rows = block_rows(p)
        # One image, exactly one block, and two blocks plus a ragged tail.
        for count in (1, rows, 2 * rows + 7):
            batch = random_images(count, 28, colors, seed=count)
            out = preprocess_batch(p, batch)
            assert out.dtype == batch.dtype and out.flags.c_contiguous
            assert np.array_equal(out, whole_batch_round_trip(p, batch))

    def test_working_set_does_not_grow_with_the_batch(self):
        # A block holds three float64 temporaries at most; the whole-batch
        # round trip held three for every image, 12 blocks' worth at the
        # smaller count here.
        p = make_preprocessor("dct-sign-flip", MASTER, 0, 0, 28, 1,
                              subband=subband_rect("D", 28))
        block = block_rows(p) * 28 * 28 * 8
        for count in (4 * block_rows(p), 8 * block_rows(p)):
            batch = random_images(count, 28, 1)
            tracemalloc.start()
            try:
                out = preprocess_batch(p, batch)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            above = peak - out.nbytes
            assert above < 4 * block, f"{above / block:.1f} blocks above the output"


def round_trip_fold(p, w1):
    """The DCT fold as the full round trip over `w1`'s columns as images."""
    columns = w1.T.reshape(-1, p.size, p.size, p.colors)
    return preprocess_batch(p, columns).reshape(len(columns), -1).T


class TestFoldIntoWeights:
    @pytest.mark.parametrize("kind, colors, per_color", [
        ("identity", 1, False),
        ("direct-permutation", 3, False),
        ("direct-permutation", 3, True),
        ("dct-sign-flip", 3, False),
        ("dct-hard-threshold", 1, False),
    ])
    def test_folded_weights_read_raw_images(self, kind, colors, per_color):
        band = subband_rect("V", 8) if kind.startswith("dct") else None
        p = make_preprocessor(kind, MASTER, 0, 0, 8, colors, subband=band,
                              per_color=per_color)
        rng = np.random.default_rng(15)
        w1 = rng.standard_normal((64 * colors, 5))
        x = random_images(4, 8, colors, seed=16).astype(np.float64)
        expected = preprocess_batch(p, x).reshape(4, -1) @ w1
        folded = fold_into_weights(p, w1)
        assert folded.shape == w1.shape and folded.dtype == w1.dtype
        assert np.allclose(x.reshape(4, -1) @ folded, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("size", [8, 28])
    @pytest.mark.parametrize("colors", [1, 3])
    @pytest.mark.parametrize("kind", ["dct-sign-flip", "dct-hard-threshold"])
    @pytest.mark.parametrize("band_id", ["V", "H", "D"])
    def test_dct_fold_equals_the_full_round_trip(self, kind, band_id, size, colors):
        # The fold touches only the coefficients the mask changes; the
        # reference runs the whole round trip over w1's columns as images.
        p = make_preprocessor(kind, MASTER, 0, 1, size, colors,
                              subband=subband_rect(band_id, size))
        w1 = np.random.default_rng(size + colors).standard_normal(
            (size * size * colors, 9))
        for dtype, tol in ((np.float64, 1e-12), (np.float32, 1e-6)):
            weights = w1.astype(dtype)
            folded = fold_into_weights(p, weights)
            assert folded.shape == weights.shape and folded.dtype == dtype
            assert np.max(np.abs(folded - round_trip_fold(p, weights))) <= tol

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_dct_fold_of_hand_built_masks(self, dtype):
        w1 = np.random.default_rng(23).standard_normal((64 * 3, 6)).astype(dtype)
        # No coefficient changes: an equal array, not a view of w1.
        ones = Preprocessor("dct-sign-flip", 8, 3, mask=np.ones((8, 8)))
        folded = fold_into_weights(ones, w1)
        assert np.array_equal(folded, w1) and not np.shares_memory(folded, w1)
        # Two separate coefficients, not a rectangle: (1, 6) flipped and
        # (5, 2) zeroed, so rows {1, 5} x columns {2, 6} holds two factors
        # of 1 as well.
        mask = np.ones((8, 8))
        mask[1, 6], mask[5, 2] = -1.0, 0.0
        p = Preprocessor("dct-sign-flip", 8, 3, mask=mask)
        tol = 1e-12 if dtype == np.float64 else 1e-6
        assert np.max(np.abs(fold_into_weights(p, w1) - round_trip_fold(p, w1))) <= tol

    def test_wrong_weight_shape_rejected(self):
        p = make_preprocessor("direct-permutation", MASTER, 0, 0, 8, 1)
        for shape in ((63, 5), (64,), (5, 64)):
            with pytest.raises(ValueError, match="weights"):
                fold_into_weights(p, np.zeros(shape, np.float32))


class TestIndexMap:
    """Identity and both permutation kinds share one flat index map."""

    CASES = [(size, colors, per_color) for size in (8, 28) for colors in (1, 3)
             for per_color in (False, True)]

    @pytest.mark.parametrize("size, colors, per_color", CASES)
    def test_index_map_expands_the_keyed_pixel_orders(self, size, colors, per_color):
        p = make_preprocessor("direct-permutation", MASTER, 1, 2, size, colors,
                              per_color=per_color)
        want = flat_index(pixel_orders(MASTER, 1, 2, size, colors, per_color))
        assert p.permutation.dtype == np.int64 and p.mask is None
        assert np.array_equal(p.permutation, want)

    @pytest.mark.parametrize("size, colors, per_color", CASES)
    def test_gather_and_scatter_equal_the_per_color_loops(self, size, colors, per_color):
        p = make_preprocessor("direct-permutation", MASTER, 1, 2, size, colors,
                              per_color=per_color)
        orders = pixel_orders(MASTER, 1, 2, size, colors, per_color)
        batch = random_images(5, size, colors, seed=size + colors)
        out = preprocess_batch(p, batch)
        assert out.dtype == batch.dtype and out.flags.c_contiguous
        assert out.tobytes() == loop_preprocess(orders, batch).tobytes()
        w1 = np.random.default_rng(size).standard_normal(
            (size * size * colors, 7)).astype(np.float32)
        folded = fold_into_weights(p, w1)
        assert folded.dtype == w1.dtype
        assert folded.tobytes() == loop_fold(orders, w1).tobytes()

    @pytest.mark.parametrize("colors", [1, 3])
    def test_identity_is_a_copy_and_folds_to_w1(self, colors):
        p = make_preprocessor("identity", MASTER, 0, 0, 8, colors)
        assert np.array_equal(p.permutation, np.arange(64 * colors))
        batch = random_images(3, 8, colors, seed=21)
        out = preprocess_batch(p, batch)
        assert np.array_equal(out, batch) and not np.shares_memory(out, batch)
        w1 = np.random.default_rng(22).standard_normal((64 * colors, 4))
        assert np.array_equal(fold_into_weights(p, w1), w1)

    def test_exactly_one_payload(self):
        for payload in ({}, {"permutation": np.arange(64), "mask": np.ones((8, 8))}):
            with pytest.raises(ValueError, match="exactly one"):
                Preprocessor("identity", 8, 1, **payload)
        # The payload must fit the kind, size and colors it is built with.
        for kind, payload in (
                ("dct-sign-flip", {"mask": np.ones((4, 4))}),
                ("dct-hard-threshold", {"mask": np.ones(64)}),
                ("dct-sign-flip", {"permutation": np.arange(64)}),
                ("identity", {"permutation": np.arange(10)}),
                ("direct-permutation", {"permutation": np.arange(64).reshape(8, 8)}),
                ("direct-permutation", {"permutation": np.arange(64.0)}),
                ("identity", {"mask": np.ones((8, 8))})):
            with pytest.raises(ValueError, match="needs a"):
                Preprocessor(kind, 8, 1, **payload)
        with pytest.raises(ValueError, match="length 192"):
            Preprocessor("identity", 8, 3, permutation=np.arange(64))
