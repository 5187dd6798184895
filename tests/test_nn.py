import math

import numpy as np
import pytest

from rdiv.nn import (
    ArchSpec,
    Hyper,
    ModelParams,
    _keyed_order,
    backward_from_logits,
    batch_loss_and_grads,
    forward,
    init_params,
    logits_and_cache,
    mlp_arch,
    train,
)
from rdiv.rng import RngState, SubKey, skip

KEY = SubKey(0x1234, 0, 0, 1)


def tiny_arch():
    return mlp_arch(4, (5,), 3)  # 4*5+5*3 = 35 weights


def random_params(arch, seed):
    return init_params(arch, SubKey(seed, 0, 0, 1))


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
        assert not init_params(arch, SubKey(1, 0, 0, 1)).equal(
            init_params(arch, SubKey(2, 0, 0, 1)))


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
        params = random_params(tiny_arch(), 5)
        for bad in (np.array([3]), np.array([-1]), np.array([0.0]),
                    np.array([[0]]), np.array([0, 1])):
            with pytest.raises(ValueError):
                batch_loss_and_grads(params, np.zeros((1, 4)), bad)

    def test_non_finite_input_reported(self):
        params = random_params(tiny_arch(), 6)
        bad = np.array([[1.0, np.inf, 0.0, 0.0]])
        with pytest.raises(FloatingPointError):
            batch_loss_and_grads(params, bad, np.array([0]))


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
        hyper = Hyper(learning_rate=0.05, batch_size=16, epochs=50, optimizer="sgd")
        trained = train(params, (x, y), hyper, SubKey(77, 0, 0, 2))
        preds = forward(trained, x).argmax(axis=1)
        assert np.mean(preds != y) == 0.0

    def test_bit_identical_reruns(self):
        arch = mlp_arch(2, (8,), 2)
        params = init_params(arch, KEY)
        x, y = self.separable_set()
        hyper = Hyper(epochs=3, batch_size=16)
        a = train(params, (x, y), hyper, SubKey(5, 0, 0, 2))
        b = train(params, (x, y), hyper, SubKey(5, 0, 0, 2))
        assert a.equal(b)

    def test_adam_and_sgd_both_learn(self):
        arch = mlp_arch(2, (8,), 2)
        x, y = self.separable_set()
        for opt in ("sgd", "adam"):
            hyper = Hyper(learning_rate=0.05 if opt == "sgd" else 0.01,
                          batch_size=16, epochs=30, optimizer=opt)
            trained = train(init_params(arch, KEY), (x, y), hyper, SubKey(6, 0, 0, 2))
            preds = forward(trained, x).argmax(axis=1)
            assert np.mean(preds != y) <= 0.05

    def test_divergence_raises(self):
        arch = mlp_arch(2, (8,), 2)
        params = init_params(arch, KEY)
        x, y = self.separable_set()
        hyper = Hyper(learning_rate=1e30, batch_size=16, epochs=5, optimizer="sgd")
        with pytest.raises(FloatingPointError):
            train(params, (x * 1e6, y), hyper, SubKey(7, 0, 0, 2))

    def test_empty_dataset_rejected(self):
        params = random_params(tiny_arch(), 1)
        with pytest.raises(ValueError):
            train(params, (np.zeros((0, 4), dtype=np.float32), np.zeros(0, dtype=int)),
                  Hyper(), KEY)


def test_keyed_order_is_the_shared_fisher_yates():
    assert _keyed_order(RngState(5), 10).tolist() == [3, 6, 0, 4, 5, 1, 2, 9, 7, 8]


def reference_train(params, x, y, hyper, key):
    """Straightforward training loop: full backward pass with the input
    gradient, and the optimizer formulas written out-of-place."""
    dtype = params.dtype
    weights = [w.copy() for w in params.weights]
    biases = [b.copy() for b in params.biases]
    m = [np.zeros_like(t) for t in weights + biases]
    v = [np.zeros_like(t) for t in weights + biases]
    lr, wd = dtype.type(hyper.learning_rate), dtype.type(hyper.weight_decay)
    b1, b2, eps = dtype.type(hyper.beta1), dtype.type(hyper.beta2), dtype.type(hyper.eps)
    state = RngState(key.value)
    step = 0
    for _ in range(hyper.epochs):
        order = _keyed_order(state, len(x))
        state = skip(state, len(x) - 1)
        for start in range(0, len(x), hyper.batch_size):
            idx = order[start:start + hyper.batch_size]
            current = ModelParams(params.arch, tuple(weights), tuple(biases))
            _, dw, db, dx = batch_loss_and_grads(current, x[idx], y[idx])
            assert dx.shape == (len(idx), params.arch.input_dim)
            if hyper.weight_decay:
                dw = [g + wd * w for g, w in zip(dw, weights)]
            step += 1
            c1 = dtype.type(1.0 - hyper.beta1 ** step)
            c2 = dtype.type(1.0 - hyper.beta2 ** step)
            for k, (value, g) in enumerate(zip(weights + biases, dw + db)):
                if hyper.optimizer == "sgd":
                    value -= lr * g
                    continue
                m[k] = b1 * m[k] + (1 - b1) * g
                v[k] = b2 * v[k] + (1 - b2) * g * g
                value -= lr * (m[k] / c1) / (np.sqrt(v[k] / c2) + eps)
    return ModelParams(params.arch, tuple(weights), tuple(biases))


class TestTrainMatchesReference:
    """`train` skips the input gradient and updates in place; neither may
    change a single bit of the result."""

    @pytest.mark.parametrize("hyper", [
        Hyper(learning_rate=0.01, batch_size=16, epochs=3),
        Hyper(learning_rate=0.05, batch_size=16, epochs=3, optimizer="sgd"),
        Hyper(learning_rate=0.01, batch_size=16, epochs=3, weight_decay=0.01),
        Hyper(learning_rate=0.05, batch_size=16, epochs=2, optimizer="sgd",
              weight_decay=0.01),
    ], ids=["adam", "sgd", "adam-decay", "sgd-decay"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bitwise_equal(self, hyper, dtype):
        rng = np.random.default_rng(3)
        x = rng.random((70, 12), dtype=np.float32)  # 70 = four full batches + 6
        y = rng.integers(0, 4, size=70)
        params = init_params(mlp_arch(12, (10, 8), 4), KEY).astype(dtype)
        shuffle = SubKey(21, 0, 0, 2)
        got = train(params, (x, y), hyper, shuffle)
        want = reference_train(params, x.astype(dtype), y, hyper, shuffle)
        assert got.dtype == dtype
        for a, b in zip(got.weights + got.biases, want.weights + want.biases):
            assert np.array_equal(a, b)


class TestHyper:
    def test_validation(self):
        with pytest.raises(ValueError):
            Hyper(learning_rate=0.0)
        with pytest.raises(ValueError):
            Hyper(batch_size=0)
        with pytest.raises(ValueError):
            Hyper(optimizer="rmsprop")
