import math

import numpy as np
import pytest

from rdiv.attacks import fgsm_batch, pgd_linf_batch
from rdiv.nn import (
    ArchSpec,
    Hyper,
    ModelParams,
    _BLOCK,
    _keyed_order,
    backward_from_logits,
    batch_loss_and_grads,
    finite_difference_max_error,
    forward,
    init_params,
    logits_and_cache,
    mlp_arch,
    require_bool,
    require_count,
    train,
)
from rdiv.rng import skip

from _synth import make_dataset

KEY = 0x1234


def tiny_arch():
    return mlp_arch(4, (5,), 3)  # 4*5+5*3 = 35 weights


def random_params(arch, seed):
    return init_params(arch, seed)


def ce_loss_via_forward(params, x, label):
    """Independent loss evaluation: forward probabilities only, no backward."""
    p64 = params.astype(np.float64)
    probs = forward(p64, np.asarray(x, dtype=np.float64).reshape(1, -1))
    return -math.log(probs[0, label])


def fd_gradients(params, x, label, step=1e-3):
    """Central finite differences of the loss, all in float64."""
    p64 = params.astype(np.float64)
    x64 = np.asarray(x, dtype=np.float64)
    grad_w, grad_b = [], []
    for k in range(len(p64.weights)):
        for tensor, sink in ((p64.weights[k], grad_w), (p64.biases[k], grad_b)):
            g = np.zeros_like(tensor)
            it = np.nditer(tensor, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = tensor[idx]
                tensor[idx] = orig + step
                up = ce_loss_via_forward(p64, x64, label)
                tensor[idx] = orig - step
                down = ce_loss_via_forward(p64, x64, label)
                tensor[idx] = orig
                g[idx] = (up - down) / (2 * step)
            sink.append(g)
    grad_x = np.zeros_like(x64)
    flat = x64.reshape(-1)
    gflat = grad_x.reshape(-1)
    for pos in range(flat.size):
        orig = flat[pos]
        flat[pos] = orig + step
        up = ce_loss_via_forward(p64, x64, label)
        flat[pos] = orig - step
        down = ce_loss_via_forward(p64, x64, label)
        flat[pos] = orig
        gflat[pos] = (up - down) / (2 * step)
    return grad_w, grad_b, grad_x


def max_rel_err(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return float(np.max(np.abs(a - b) / np.maximum(1e-8, np.abs(a) + np.abs(b))))


class TestArchSpec:
    def test_mlp_builder(self):
        arch = mlp_arch(784, (256, 128), 10)
        assert arch.classes == 10
        assert arch.dense_shapes == [(784, 256), (256, 128), (128, 10)]

    def test_dims_must_chain(self):
        with pytest.raises(ValueError):
            ArchSpec(4, (("dense", (4, 5)), ("dense", (6, 3)), ("softmax-output", ())))

    def test_must_end_with_softmax(self):
        with pytest.raises(ValueError):
            ArchSpec(4, (("dense", (4, 3)),))

    def test_must_start_with_dense(self):
        with pytest.raises(ValueError, match="start with a dense"):
            ArchSpec(4, (("relu", ()), ("dense", (4, 3)), ("softmax-output", ())))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            ArchSpec(4, (("conv9d", (4, 3)), ("softmax-output", ())))


class TestInit:
    def test_deterministic(self):
        arch = tiny_arch()
        a, b = init_params(arch, KEY), init_params(arch, KEY)
        assert a.equal(b)

    def test_biases_zero(self):
        params = init_params(mlp_arch(784, (256,), 10), KEY)
        for b in params.biases:
            assert np.all(b == 0.0)

    def test_glorot_bound(self):
        params = init_params(mlp_arch(784, (256,), 10), KEY)
        bound = math.sqrt(6.0 / (784 + 256))
        assert np.max(np.abs(params.weights[0])) <= bound
        assert params.weights[0].dtype == np.float32

    def test_different_keys_differ(self):
        arch = tiny_arch()
        assert not init_params(arch, 1).equal(init_params(arch, 2))


class TestForward:
    def test_output_normalized(self):
        params = random_params(tiny_arch(), 9)
        rng = np.random.default_rng(0)
        for _ in range(20):
            y = forward(params, rng.random((1, 4)))[0]
            assert y.shape == (3,)
            assert np.all(y > 0)
            assert abs(y.sum() - 1.0) < 1e-6

    def test_zero_net_uniform(self):
        arch = tiny_arch()
        zero = ModelParams(arch,
                           tuple(np.zeros_like(w) for w in random_params(arch, 0).weights),
                           tuple(np.zeros_like(b) for b in random_params(arch, 0).biases))
        y = forward(zero, np.ones((1, 4), dtype=np.float32))
        assert np.allclose(y, 1.0 / 3.0, atol=1e-7)

    def test_hand_computed_2x2(self):
        arch = ArchSpec(2, (("dense", (2, 2)), ("softmax-output", ())))
        params = ModelParams(
            arch,
            (np.array([[1.0, -1.0], [0.5, 2.0]], dtype=np.float32),),
            (np.array([0.1, -0.1], dtype=np.float32),),
        )
        y = forward(params, np.array([[1.0, 2.0]], dtype=np.float32))[0]
        e0, e1 = math.exp(2.1), math.exp(2.9)
        assert y[0] == pytest.approx(e0 / (e0 + e1), abs=1e-6)
        assert y[1] == pytest.approx(e1 / (e0 + e1), abs=1e-6)

    def test_batch_matches_single(self):
        params = random_params(tiny_arch(), 3)
        batch = np.random.default_rng(1).random((6, 4)).astype(np.float32)
        ys = forward(params, batch)
        for k in range(6):
            assert np.allclose(ys[k], forward(params, batch[k:k + 1])[0], atol=1e-7)

    def test_shape_mismatch(self):
        params = random_params(tiny_arch(), 3)
        # Only a (B, input_dim) batch is accepted: no single images, no
        # unflattened image batches.
        for bad in (np.zeros((1, 5)), np.zeros(4), np.zeros((1, 2, 2, 1))):
            with pytest.raises(ValueError, match=r"\(B, 4\) batch"):
                forward(params, bad)


class TestLossAndGrads:
    def test_confident_correct_prediction(self):
        arch = ArchSpec(2, (("dense", (2, 2)), ("softmax-output", ())))
        params = ModelParams(
            arch,
            (np.zeros((2, 2), dtype=np.float32),),
            (np.array([25.0, 0.0], dtype=np.float32),),
        )
        loss, dw, db, dx = batch_loss_and_grads(params, np.array([[0.3, 0.4]]),
                                                np.array([0]))
        assert loss < 1e-3
        for g in dw + db:
            assert np.max(np.abs(g)) < 1e-3
        assert np.max(np.abs(dx)) < 1e-3

    def test_gradients_match_finite_differences(self):
        params = random_params(tiny_arch(), 11)
        rng = np.random.default_rng(2)
        x = rng.random(4)
        label = 2
        _, dw, db, dx = batch_loss_and_grads(params.astype(np.float64),
                                             x.astype(np.float64).reshape(1, -1),
                                             np.array([label]))
        fd_w, fd_b, fd_x = fd_gradients(params, x, label)
        for k in range(len(fd_w)):
            assert max_rel_err(dw[k], fd_w[k]) < 1e-4
            assert max_rel_err(db[k], fd_b[k]) < 1e-4
        assert max_rel_err(dx[0], fd_x) < 1e-4

    def test_input_grad_shape(self):
        params = random_params(mlp_arch(16, (6,), 3), 4)
        x = np.random.default_rng(3).random((2, 4, 4, 1)).astype(np.float32)
        labels = np.array([1, 2])
        _, _, _, dx = batch_loss_and_grads(params, x.reshape(2, -1), labels)
        assert dx.shape == (2, 16)
        with pytest.raises(ValueError):
            batch_loss_and_grads(params, x, labels)

    def test_invalid_label(self):
        # batch_loss_and_grads trusts its labels; the entry points check them.
        params = random_params(tiny_arch(), 5)
        image = np.zeros((1, 2, 2, 1), np.float32)
        for bad in (np.array([3]), np.array([-1]), np.array([0.0]),
                    np.array([[0]]), np.array([0, 1])):
            with pytest.raises(ValueError, match="labels"):
                fgsm_batch(params, image, bad, 0.1)
            with pytest.raises(ValueError, match="labels"):
                pgd_linf_batch(params, image, bad, 0.1, 0.05, 2)
        for bad in (3, -1, 0.0):
            with pytest.raises(ValueError, match="labels"):
                finite_difference_max_error(params, np.zeros(4), bad)

    def test_non_finite_input_reported(self):
        params = random_params(tiny_arch(), 6)
        for bad in (np.inf, np.nan):
            with pytest.raises(FloatingPointError, match="^non-finite values in the input$"):
                batch_loss_and_grads(params, np.array([[1.0, bad, 0.0, 0.0]]), np.array([0]))

    def test_non_finite_activations_name_their_dense_layer(self):
        # Layer 0 gives 4.0 everywhere, and layer 2 overflows float32 to
        # +inf, which the ReLU at layer 3 keeps.
        arch = mlp_arch(4, (5, 3), 2)
        weights = (np.ones((4, 5), np.float32), np.full((5, 3), 1e38, np.float32),
                   np.ones((3, 2), np.float32))
        biases = tuple(np.zeros(width, np.float32) for width in (5, 3, 2))
        params = ModelParams(arch, weights, biases)
        x = np.ones((2, 4), np.float32)
        for run in (lambda: forward(params, x),
                    lambda: batch_loss_and_grads(params, x, np.array([0, 1]))):
            with pytest.raises(FloatingPointError,
                               match=r"^non-finite activations after layer 2 \(dense\)$"):
                run()


class TestGradTargets:
    """`wrt` skips gradients; whatever it computes equals the full pass bitwise."""

    ARCH = mlp_arch(6, (5, 4), 3)  # two hidden ReLU layers: three dense layers

    def batch(self, dtype):
        rng = np.random.default_rng(8)
        params = random_params(self.ARCH, 21).astype(dtype)
        x = rng.standard_normal((7, 6)).astype(dtype)
        return params, x, rng.integers(0, 3, size=7)

    @staticmethod
    def assert_same(got, full, skipped: bool):
        if skipped:
            assert got is None
        else:
            assert got.dtype == full.dtype and np.array_equal(got, full)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("wrt", ["params", "input", "both"])
    def test_batch_loss_and_grads(self, wrt, dtype):
        params, x, labels = self.batch(dtype)
        loss, dw, db, dx = batch_loss_and_grads(params, x, labels, wrt=wrt)
        full = batch_loss_and_grads(params, x, labels, wrt="both")
        assert loss == full[0]
        for k in range(3):
            self.assert_same(dw[k], full[1][k], wrt == "input")
            self.assert_same(db[k], full[2][k], wrt == "input")
        self.assert_same(dx, full[3], wrt == "params")

    @pytest.mark.parametrize("wrt", ["params", "input", "both"])
    def test_backward_from_logits(self, wrt):
        params, x, _ = self.batch(np.float64)
        _, cache = logits_and_cache(params, x)
        seed = np.random.default_rng(9).standard_normal((7, 3))
        dw, db, dx = backward_from_logits(params, cache, seed, wrt)
        full = backward_from_logits(params, cache, seed)
        for k in range(3):
            self.assert_same(dw[k], full[0][k], wrt == "input")
            self.assert_same(db[k], full[1][k], wrt == "input")
        self.assert_same(dx, full[2], wrt == "params")

    def test_unknown_target_rejected(self):
        params, x, labels = self.batch(np.float32)
        for wrt in ("weights", "", None, True):
            with pytest.raises(ValueError, match="wrt"):
                batch_loss_and_grads(params, x, labels, wrt=wrt)

    def test_empty_batch(self):
        params, _, _ = self.batch(np.float32)
        loss, dw, db, dx = batch_loss_and_grads(
            params, np.zeros((0, 6), np.float32), np.zeros(0, np.int64))
        assert loss == 0.0
        assert dx.shape == (0, 6)
        assert [g.shape for g in dw] == [(6, 5), (5, 4), (4, 3)]
        assert all(not g.any() for g in dw + db)


@pytest.mark.parametrize("arch", [
    mlp_arch(6, (5, 4), 3),
    # The first op backward meets is the ReLU, so it gets the caller's seed.
    ArchSpec(6, (("dense", (6, 3)), ("relu", ()), ("softmax-output", ()))),
], ids=["mlp", "dense-relu-softmax"])
@pytest.mark.parametrize("x_dtype", [np.float32, np.float64],
                         ids=["no-cast", "cast"])
def test_passes_never_write_caller_arrays(arch, x_dtype):
    # float32 input into float32 params is not copied by `astype(copy=False)`.
    rng = np.random.default_rng(12)
    params = random_params(arch, 30)
    x = rng.standard_normal((9, 6)).astype(x_dtype)
    labels = rng.integers(0, 3, size=9)
    x_before = x.copy()
    z, cache = logits_and_cache(params, x)
    assert np.array_equal(x, x_before)
    assert any(kind == "relu" and not saved.all() for kind, saved in cache)
    for wrt in ("params", "input", "both"):
        dlogits = rng.standard_normal(z.shape).astype(np.float32)
        seed = dlogits.copy()
        first = backward_from_logits(params, cache, dlogits, wrt)
        assert np.array_equal(dlogits, seed)
        # The cache is unchanged too: a second pass gives the same gradients.
        again = backward_from_logits(params, cache, dlogits, wrt)
        for a, b in zip(first[0] + first[1] + [first[2]], again[0] + again[1] + [again[2]]):
            assert (a is None and b is None) or np.array_equal(a, b)
        batch_loss_and_grads(params, x, labels, wrt)
        assert np.array_equal(x, x_before)


class TestTrain:
    def separable_set(self):
        rng = np.random.default_rng(7)
        a = rng.normal(loc=(-2.0, -2.0), scale=0.3, size=(40, 2))
        b = rng.normal(loc=(2.0, 2.0), scale=0.3, size=(40, 2))
        x = np.concatenate([a, b]).astype(np.float32)
        y = np.array([0] * 40 + [1] * 40)
        return x, y

    def test_zero_epochs_identity(self):
        params = random_params(tiny_arch(), 8)
        hyper = Hyper(epochs=0)
        out = train(params, (np.zeros((4, 4), dtype=np.float32), np.zeros(4, dtype=int)),
                    hyper, KEY)
        assert out is params

    def test_separable_reaches_zero_error(self):
        arch = mlp_arch(2, (8,), 2)
        params = init_params(arch, KEY)
        x, y = self.separable_set()
        hyper = Hyper(learning_rate=0.01, batch_size=16, epochs=50)
        trained = train(params, (x, y), hyper, 77)
        preds = forward(trained, x).argmax(axis=1)
        assert np.mean(preds != y) == 0.0

    def test_bit_identical_reruns(self):
        arch = mlp_arch(2, (8,), 2)
        params = init_params(arch, KEY)
        x, y = self.separable_set()
        hyper = Hyper(epochs=3, batch_size=16)
        a = train(params, (x, y), hyper, 5)
        b = train(params, (x, y), hyper, 5)
        assert a.equal(b)

    def test_adam_learns_at_both_rates(self):
        arch = mlp_arch(2, (8,), 2)
        x, y = self.separable_set()
        for lr in (0.05, 0.01):
            hyper = Hyper(learning_rate=lr, batch_size=16, epochs=30)
            trained = train(init_params(arch, KEY), (x, y), hyper, 6)
            preds = forward(trained, x).argmax(axis=1)
            assert np.mean(preds != y) <= 0.05

    def test_divergence_raises(self):
        arch = mlp_arch(2, (8,), 2)
        params = init_params(arch, KEY)
        x, y = self.separable_set()
        hyper = Hyper(learning_rate=1e30, batch_size=16, epochs=5)
        with pytest.raises(FloatingPointError, match=r"^non-finite activations after "
                                                     r"layer 2 \(dense\) in epoch 0$"):
            train(params, (x * 1e6, y), hyper, 7)

    def test_divergence_names_a_later_epoch(self, monkeypatch):
        # 80 samples in batches of 16 make 5 steps an epoch, so the 13th
        # step is the third of epoch 2.
        x, y = self.separable_set()
        steps = []
        real = batch_loss_and_grads

        def overflow_at_step_13(*args, **kwargs):
            steps.append(None)
            if len(steps) == 13:
                raise FloatingPointError("non-finite activations after layer 0 (dense)")
            return real(*args, **kwargs)

        monkeypatch.setattr("rdiv.nn.batch_loss_and_grads", overflow_at_step_13)
        hyper = Hyper(learning_rate=0.01, batch_size=16, epochs=5)
        with pytest.raises(FloatingPointError, match=r"^non-finite activations after "
                                                     r"layer 0 \(dense\) in epoch 2$"):
            train(init_params(mlp_arch(2, (8,), 2), KEY), (x, y), hyper, 7)

    def test_adam_overflow_raises(self):
        # Weights near 1e10 in three dense layers give gradients whose
        # squares overflow float32 in Adam's second moment, while every
        # forward pass stays finite.
        pixels, labels = make_dataset(64, seed=11)
        x = (pixels.reshape(64, -1) / 255).astype(np.float32)
        hyper = Hyper(learning_rate=1e10, batch_size=16, epochs=3)
        with pytest.raises(FloatingPointError, match=r"^Adam update: overflow encountered "
                                                     r"in \w+ in epoch 0$"):
            train(init_params(mlp_arch(784, (32, 16), 10), KEY), (x, labels), hyper, 7)

    def test_a_rate_past_the_float32_range_fails_in_the_first_step(self):
        # Adam's scalars are cast inside the update's error state, so the
        # cast's overflow is the error, with no RuntimeWarning before it.
        x, y = self.separable_set()
        hyper = Hyper(learning_rate=1e39, batch_size=16, epochs=1)
        with pytest.raises(FloatingPointError, match=r"^Adam update: overflow encountered "
                                                     r"in cast in epoch 0$"):
            train(init_params(mlp_arch(2, (8,), 2), KEY), (x, y), hyper, 7)

    def test_a_breaking_last_step_raises_inside_train(self):
        # One batch holds the whole set, so no forward pass follows the one
        # step in the loop; the final check of the last batch names the epoch.
        x, y = self.separable_set()
        hyper = Hyper(learning_rate=1e30, batch_size=80, epochs=1)
        with pytest.raises(FloatingPointError, match=r"^non-finite activations after "
                                                     r"layer 2 \(dense\) in epoch 0$"):
            train(init_params(mlp_arch(2, (8,), 2), KEY), (x, y), hyper, 7)

    def test_columns_train_on_the_mapped_inputs(self):
        x, y = self.separable_set()
        x = np.concatenate([x, -x, 2 * x], axis=1)
        columns = np.array([4, 0, 5, 1, 3, 2])
        params = init_params(mlp_arch(6, (8,), 2), KEY)
        hyper = Hyper(learning_rate=0.01, batch_size=16, epochs=2)
        mapped = train(params, (np.take(x, columns, axis=1), y), hyper, 5)
        assert train(params, (x, y), hyper, 5, columns).equal(mapped)

    @pytest.mark.parametrize("columns, message", [
        (np.arange(4).reshape(2, 2), "1-D integer array of length 4"),
        (np.arange(4.0), "1-D integer array of length 4"),
        (np.ones(4, dtype=bool), "1-D integer array of length 4"),
        (np.arange(3), "1-D integer array of length 4"),
        (np.array([0, 1, 2, -1]), r"in \[0, 4\)"),
        (np.array([0, 1, 2, 4]), r"in \[0, 4\)"),
    ], ids=["2-d", "float", "bool", "short", "negative", "past-the-end"])
    def test_bad_columns_rejected_before_any_step(self, columns, message, monkeypatch):
        def no_step(*args, **kwargs):
            raise AssertionError("a training step ran")

        monkeypatch.setattr("rdiv.nn._apply_update", no_step)
        params = random_params(tiny_arch(), 1)
        x = np.zeros((20, 4), dtype=np.float32)
        with pytest.raises(ValueError, match=rf"^columns must be .*{message}"):
            train(params, (x, np.zeros(20, dtype=int)), Hyper(epochs=1), KEY, columns)

    def test_empty_dataset_rejected(self):
        params = random_params(tiny_arch(), 1)
        with pytest.raises(ValueError):
            train(params, (np.zeros((0, 4), dtype=np.float32), np.zeros(0, dtype=int)),
                  Hyper(), KEY)

    def test_more_labels_than_images_rejected(self):
        params = random_params(tiny_arch(), 1)
        x = np.zeros((20, 4), dtype=np.float32)
        with pytest.raises(ValueError, match=r"^labels must be a 1-D integer array of length 20,"):
            train(params, (x, np.zeros(25, dtype=int)), Hyper(epochs=1), KEY)

    def test_fewer_labels_than_images_rejected_before_training(self):
        params = random_params(tiny_arch(), 1)
        x = np.zeros((20, 4), dtype=np.float32)
        with pytest.raises(ValueError, match=r"^labels must be a 1-D integer array of length 20,"):
            train(params, (x, np.zeros(15, dtype=int)), Hyper(epochs=1), KEY)


def test_count_and_flag_checks_name_the_setting():
    # The one rule behind every count and flag a library entry point takes.
    assert require_count(3, "width") == 3
    for value in (0, -1, True, 2.0, "3", None):
        with pytest.raises(ValueError, match=rf"^width must be a positive int, got {value!r}$"):
            require_count(value, "width")
    for value in (True, False):
        require_bool(value, "flag")
    for value in ("no", 1, 0, None):
        with pytest.raises(ValueError, match=rf"^flag must be true or false, got {value!r}$"):
            require_bool(value, "flag")


def test_keyed_order_is_the_shared_fisher_yates():
    assert _keyed_order(5, 10).tolist() == [3, 6, 0, 4, 5, 1, 2, 9, 7, 8]


def reference_train(params, x, y, hyper, key):
    """Straightforward training loop: full backward pass with the input
    gradient, and the Adam formulas written out-of-place with the textbook
    constants."""
    dtype = params.dtype
    weights = [w.copy() for w in params.weights]
    biases = [b.copy() for b in params.biases]
    m = [np.zeros_like(t) for t in weights + biases]
    v = [np.zeros_like(t) for t in weights + biases]
    lr = dtype.type(hyper.learning_rate)
    b1, b2, eps = dtype.type(0.9), dtype.type(0.999), dtype.type(1e-8)
    state = key
    step = 0
    for _ in range(hyper.epochs):
        order = _keyed_order(state, len(x))
        state = skip(state, len(x) - 1)
        for start in range(0, len(x), hyper.batch_size):
            idx = order[start:start + hyper.batch_size]
            current = ModelParams(params.arch, tuple(weights), tuple(biases))
            _, dw, db, dx = batch_loss_and_grads(current, x[idx], y[idx])
            assert dx.shape == (len(idx), params.arch.input_dim)
            step += 1
            c1 = dtype.type(1.0 - 0.9 ** step)
            c2 = dtype.type(1.0 - 0.999 ** step)
            for k, (value, g) in enumerate(zip(weights + biases, dw + db)):
                m[k] = b1 * m[k] + (1 - b1) * g
                v[k] = b2 * v[k] + (1 - b2) * g * g
                value -= lr * (m[k] / c1) / (np.sqrt(v[k] / c2) + eps)
    return ModelParams(params.arch, tuple(weights), tuple(biases))


REFERENCE_HYPERS = pytest.mark.parametrize("hyper", [
    Hyper(learning_rate=0.01, batch_size=16, epochs=3),
    Hyper(learning_rate=0.05, batch_size=16, epochs=2),
    Hyper(learning_rate=0.01, batch_size=7, epochs=2),  # 70 rows, no short batch
    Hyper(learning_rate=0.01, batch_size=128, epochs=4),  # one short batch per epoch
], ids=["adam", "adam-lr-0.05", "adam-batch-divides-set", "adam-batch-over-set"])


class TestTrainMatchesReference:
    """`train` skips the input gradient, updates in place in cache-sized
    blocks and gathers batches from a row-major copy; none of it may change
    a single bit of the result."""

    def check(self, arch, x, y, hyper, dtype):
        params = init_params(arch, KEY).astype(dtype)
        shuffle = 21
        got = train(params, (x, y), hyper, shuffle)
        want = reference_train(params, np.array(x, dtype=dtype), y, hyper, shuffle)
        assert got.dtype == dtype
        for a, b in zip(got.weights + got.biases, want.weights + want.biases):
            assert np.array_equal(a, b)

    @REFERENCE_HYPERS
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bitwise_equal(self, hyper, dtype):
        rng = np.random.default_rng(3)
        x = rng.random((70, 12), dtype=np.float32)  # 70 = four full batches + 6
        y = rng.integers(0, 4, size=70)
        self.check(mlp_arch(12, (10, 8), 4), x, y, hyper, dtype)

    @REFERENCE_HYPERS
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", ["several-blocks", "column-major"])
    def test_bitwise_equal_beyond_one_block_and_layout(self, case, hyper, dtype):
        rng = np.random.default_rng(5)
        if case == "several-blocks":
            arch = mlp_arch(300, (250,), 4)
            assert arch.dense_shapes[0][0] * arch.dense_shapes[0][1] > _BLOCK
            x = rng.random((70, 300), dtype=np.float32)
        else:
            arch = mlp_arch(12, (10, 8), 4)
            x = np.asfortranarray(rng.random((70, 12), dtype=np.float32))
        y = rng.integers(0, 4, size=70)
        self.check(arch, x, y, hyper, dtype)


class TestHyper:
    @pytest.mark.parametrize("field, value", [
        ("learning_rate", float("nan")), ("learning_rate", float("inf")),
        ("learning_rate", -1e-3), ("learning_rate", True), ("learning_rate", "0.1"),
        ("learning_rate", 0.0), ("learning_rate", float("-inf")),
        ("batch_size", True), ("batch_size", 1.5), ("batch_size", "16"),
        ("epochs", -1), ("epochs", True), ("epochs", 2.0), ("epochs", "3"),
    ])
    def test_refuses_non_finite_and_out_of_range(self, field, value):
        with pytest.raises(ValueError, match=field):
            Hyper(**{field: value})

    def test_accepts_range_edges(self):
        Hyper(learning_rate=1e30, batch_size=1, epochs=0)

    def test_validation(self):
        with pytest.raises(ValueError):
            Hyper(learning_rate=0.0)
        with pytest.raises(ValueError):
            Hyper(batch_size=0)

    # Adam is the one update, and its constants are not settings.
    @pytest.mark.parametrize("removed", ["optimizer", "beta1", "beta2", "eps", "weight_decay"])
    def test_refuses_removed_settings(self, removed):
        with pytest.raises(TypeError, match=removed):
            Hyper(**{removed: 0.9})
