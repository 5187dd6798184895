import tracemalloc

import numpy as np
import pytest

from rdiv.attacks import (
    _CHUNK,
    _TANH_CLIP,
    AdvSet,
    AttackConfig,
    _margin_and_seed,
    _row_chunks,
    check_adv_set,
    cw_l2_batch,
    craft_adv_set,
    fgsm_batch,
    pgd_linf_batch,
    rescore_adv_set,
    train_surrogate,
    transfer_eval,
)
from rdiv.dataio import LabeledSet, take_first
from rdiv.nn import (
    Hyper,
    ModelParams,
    backward_from_logits,
    batch_loss_and_grads,
    forward,
    init_params,
    logits_and_cache,
    mlp_arch,
)
from rdiv.rng import TAG_INIT, MasterKey, derive_subkey
from rdiv.system import build_system, classify_batch, decision_errors, train_system

SIZE = 8
COLORS = 1
CLASSES = 3
MASTER = MasterKey(0xFEED0BACC0FFEE11)


def toy_arch():
    return mlp_arch(SIZE * SIZE * COLORS, (16,), CLASSES)


def toy_set(count=90, seed=0, name="toy"):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, CLASSES, size=count).astype(np.int64)
    images = rng.random((count, SIZE, SIZE, COLORS)).astype(np.float32) * 0.4
    for c in range(CLASSES):
        rows = labels == c
        images[rows, c * 2:c * 2 + 2, :, :] += 0.45
    images = np.clip(images, 0.0, 1.0)
    return LabeledSet(images, labels, name=name)


@pytest.fixture(scope="module")
def surrogate():
    return train_surrogate(toy_set(), toy_arch(),
                           Hyper(learning_rate=5e-3, batch_size=16, epochs=6),
                           MASTER)


@pytest.fixture(scope="module")
def probes():
    data = toy_set(count=30, seed=7)
    return data.images, data.labels


def surrogate_error(params, images, labels):
    preds = forward(params, images.reshape(len(images), -1)).argmax(axis=1)
    return float(np.mean(preds != labels))


def test_surrogate_learns(surrogate):
    data = toy_set()
    assert surrogate_error(surrogate, data.images, data.labels) < 0.1


def test_fgsm_zero_eps_is_identity(surrogate, probes):
    images, labels = probes
    adv = fgsm_batch(surrogate, images, labels, 0.0)
    assert np.array_equal(adv, images)


def test_fgsm_respects_budget_and_pixel_range(surrogate, probes):
    images, labels = probes
    adv = fgsm_batch(surrogate, images, labels, 0.12)
    assert np.max(np.abs(adv - images)) <= 0.12 + 1e-6
    assert adv.min() >= 0.0 and adv.max() <= 1.0
    assert adv.dtype == np.float32


def test_fgsm_raises_surrogate_error(surrogate, probes):
    images, labels = probes
    clean = surrogate_error(surrogate, images, labels)
    attacked = surrogate_error(surrogate,
                               fgsm_batch(surrogate, images, labels, 0.2),
                               labels)
    assert attacked > clean


def test_pgd_single_step_equals_fgsm(surrogate, probes):
    images, labels = probes
    eps = 0.1
    assert np.array_equal(
        pgd_linf_batch(surrogate, images, labels, eps, eps, 1),
        fgsm_batch(surrogate, images, labels, eps))


def test_pgd_respects_budget_and_pixel_range(surrogate, probes):
    images, labels = probes
    adv = pgd_linf_batch(surrogate, images, labels, 0.1, 0.02, 10)
    assert np.max(np.abs(adv - images)) <= 0.1 + 1e-6
    assert adv.min() >= 0.0 and adv.max() <= 1.0


def test_pgd_at_least_as_strong_as_fgsm(surrogate, probes):
    images, labels = probes
    eps = 0.1
    fgsm_err = surrogate_error(
        surrogate, fgsm_batch(surrogate, images, labels, eps), labels)
    pgd_err = surrogate_error(
        surrogate, pgd_linf_batch(surrogate, images, labels, eps, 0.02, 20),
        labels)
    assert pgd_err >= fgsm_err - 1e-9


def reference_input_grads(params, images, labels):
    """Input gradient taken from the full backward pass, weight gradients and all."""
    _, _, _, dx = batch_loss_and_grads(params, images.reshape(len(images), -1),
                                       labels, wrt="both")
    return dx.reshape(images.shape)


def reference_pgd(params, images, labels, eps, alpha, steps):
    low = np.maximum(images - eps, 0.0)
    high = np.minimum(images + eps, 1.0)
    adv = images.copy()
    for _ in range(steps):
        grads = reference_input_grads(params, adv, labels)
        adv = np.clip(adv + alpha * np.sign(grads), low, high)
    return adv.astype(np.float32)


# The probes span [0, 0.85]: eps 0.05 meets the 0 edge, eps 0.3 and 1.0
# meet the 1 edge as well, and eps 1.0 makes the eps box all of [0, 1].
@pytest.mark.parametrize("eps", [0.0, 0.05, 0.3, 1.0])
def test_fgsm_and_pgd_equal_full_backward_reference(surrogate, probes, eps):
    images, labels = probes
    grads = reference_input_grads(surrogate, images, labels)
    expected = np.clip(images + eps * np.sign(grads), 0.0, 1.0).astype(np.float32)
    assert np.array_equal(fgsm_batch(surrogate, images, labels, eps), expected)
    assert np.array_equal(pgd_linf_batch(surrogate, images, labels, eps, 0.02, 12),
                          reference_pgd(surrogate, images, labels, eps, 0.02, 12))


def cw_config(**kw):
    base = dict(kind="cw-l2", iterations=150, step_size=5e-2)
    base.update(kw)
    return AttackConfig(**base)


def test_cw_leaves_misclassified_inputs_alone(surrogate):
    # A label the surrogate already rejects makes the clean input a
    # zero-norm success, which nothing can beat.
    data = toy_set(count=12, seed=11)
    images = data.images
    logits, _ = logits_and_cache(surrogate, images.reshape(len(images), -1))
    preds = logits.argmax(axis=1)
    fake = (preds + 1) % CLASSES
    adv = cw_l2_batch(surrogate, images, fake, cw_config(iterations=20))
    assert np.array_equal(adv, images)


def test_cw_succeeds_on_toy_model(surrogate, probes):
    images, labels = probes
    adv = cw_l2_batch(surrogate, images, labels, cw_config())
    err = surrogate_error(surrogate, adv, labels)
    assert err >= 0.9
    assert adv.min() >= -1e-6 and adv.max() <= 1.0 + 1e-6


def test_cw_perturbations_are_small(surrogate, probes):
    images, labels = probes
    adv = cw_l2_batch(surrogate, images, labels, cw_config())
    norms = np.sqrt(np.sum((adv - images).reshape(len(images), -1) ** 2, axis=1))
    changed = norms > 0
    # l2 attack: well under the image diameter sqrt(64) = 8.
    assert np.all(norms[changed] < 4.0)


def test_cw_targeted_hits_target(surrogate):
    data = toy_set(count=15, seed=5)
    keep = data.labels != 2
    images, labels = data.images[keep], data.labels[keep]
    adv = cw_l2_batch(surrogate, images, labels,
                      cw_config(targeted=True, target=2))
    preds = forward(surrogate, adv.reshape(len(adv), -1)).argmax(axis=1)
    assert np.mean(preds == 2) >= 0.9


def test_cw_kappa_enforces_margin(surrogate, probes):
    images, labels = probes
    kappa = 2.0
    adv = cw_l2_batch(surrogate, images, labels, cw_config(kappa=kappa))
    logits, _ = logits_and_cache(surrogate, adv.reshape(len(adv), -1))
    rows = np.arange(len(adv))
    keep = logits.copy()
    keep[rows, labels] = -np.inf
    margin = keep.max(axis=1) - logits[rows, labels]
    moved = np.any(adv != images, axis=(1, 2, 3))
    assert np.all(margin[moved] > kappa)


def _attack_succeeded(logits: np.ndarray, labels: np.ndarray,
                      config: AttackConfig) -> np.ndarray:
    batch = logits.shape[0]
    rows = np.arange(batch)
    keep = logits.copy()
    if config.targeted:
        keep[rows, config.target] = -np.inf
        return logits[:, config.target] - keep.max(axis=1) > config.kappa
    keep[rows, labels] = -np.inf
    return keep.max(axis=1) - logits[rows, labels] > config.kappa


@pytest.mark.parametrize("targeted", [False, True])
@pytest.mark.parametrize("kappa", [0.0, 0.5, 2.0])
def test_negative_margin_is_success(targeted, kappa):
    # Integer logits make ties and margins of exactly kappa common.
    rng = np.random.default_rng(int(kappa * 10) + targeted)
    for logits in (rng.integers(-3, 4, size=(400, 4)).astype(np.float64),
                   rng.standard_normal((400, 4)) * 3.0):
        labels = rng.integers(0, 4, size=400)
        config = cw_config(kappa=kappa, targeted=targeted, target=1)
        margin, _ = _margin_and_seed(logits, labels, kappa, targeted, 1)
        assert np.array_equal(margin < 0, _attack_succeeded(logits, labels, config))


def reference_cw_l2(params, images, labels, config):
    """CW-l2 with a separate forward pass to score every iterate."""
    batch = images.shape[0]
    x = images.reshape(batch, -1).astype(np.float64)
    w = np.arctanh((2.0 * x - 1.0) * _TANH_CLIP)
    work = params.astype(np.float64)
    best_norm2 = np.full(batch, np.inf)
    best = x.copy()
    m = np.zeros_like(w)
    v = np.zeros_like(w)

    def consider(candidate):
        logits, _ = logits_and_cache(work, candidate)
        ok = _attack_succeeded(logits, labels, config)
        norm2 = np.sum((candidate - x) ** 2, axis=1)
        better = ok & (norm2 < best_norm2)
        best_norm2[better] = norm2[better]
        best[better] = candidate[better]

    consider(x)
    for it in range(1, config.iterations + 1):
        tanh_w = np.tanh(w)
        adv = (tanh_w + 1.0) / 2.0
        logits, cache = logits_and_cache(work, adv)
        _, seed = _margin_and_seed(logits, labels, config.kappa,
                                   config.targeted, config.target)
        _, _, dadv = backward_from_logits(work, cache, config.c * seed)
        dw = (dadv + 2.0 * (adv - x)) * (1.0 - tanh_w ** 2) / 2.0
        m = 0.9 * m + (1 - 0.9) * dw
        v = 0.999 * v + (1 - 0.999) * dw * dw
        m_hat = m / (1.0 - 0.9 ** it)
        v_hat = v / (1.0 - 0.999 ** it)
        w = w - config.step_size * m_hat / (np.sqrt(v_hat) + 1e-8)
        consider((np.tanh(w) + 1.0) / 2.0)
    return best.reshape(images.shape).astype(np.float32)


CW_REFERENCE_CONFIGS = [
    cw_config(iterations=25),
    cw_config(iterations=1),
    cw_config(iterations=25, kappa=1.0),
    cw_config(iterations=25, targeted=True, target=2, c=0.5),
]
CW_REFERENCE_IDS = ["untargeted", "one-iteration", "kappa", "targeted"]


@pytest.mark.parametrize("config", CW_REFERENCE_CONFIGS, ids=CW_REFERENCE_IDS)
def test_cw_equals_two_forward_reference(surrogate, probes, config):
    images, labels = probes
    got = cw_l2_batch(surrogate, images, labels, config)
    assert np.array_equal(got, reference_cw_l2(surrogate, images, labels, config))


def textbook_cw_points(params, images, labels, config):
    """Every point textbook CW-l2 scores on `images`, in float64: x, then each iterate."""
    x = images.reshape(len(images), -1).astype(np.float64)
    w = np.arctanh((2.0 * x - 1.0) * _TANH_CLIP)
    work = params.astype(np.float64)
    m = np.zeros_like(w)
    v = np.zeros_like(w)
    points = [x]
    for it in range(1, config.iterations + 1):
        tanh_w = np.tanh(w)
        adv = (tanh_w + 1.0) / 2.0
        points.append(adv)
        logits, cache = logits_and_cache(work, adv)
        _, seed = _margin_and_seed(logits, labels, config.kappa,
                                   config.targeted, config.target)
        _, _, dadv = backward_from_logits(work, cache, config.c * seed)
        dw = (dadv + 2.0 * (adv - x)) * (1.0 - tanh_w ** 2) / 2.0
        m = 0.9 * m + (1 - 0.9) * dw
        v = 0.999 * v + (1 - 0.999) * dw * dw
        m_hat = m / (1.0 - 0.9 ** it)
        v_hat = v / (1.0 - 0.999 ** it)
        w = w - config.step_size * m_hat / (np.sqrt(v_hat) + 1e-8)
    points.append((np.tanh(w) + 1.0) / 2.0)
    return points


def assert_cw_iterates_are_textbook(params, images, labels, monkeypatch, chunk_rows):
    """Every point cw_l2_batch runs a forward pass on equals the textbook one.

    The textbook run is made on each chunk's rows alone, in chunk order: a
    one-row product takes BLAS's matrix-vector path, whose bits differ from
    those of a product over more rows.
    """
    config = cw_config(iterations=25, kappa=0.5)
    seen = []

    def recording(params, x):
        seen.append(np.array(x, copy=True))
        return logits_and_cache(params, x)

    monkeypatch.setattr("rdiv.attacks.logits_and_cache", recording)
    cw_l2_batch(params, images, labels, config)

    expected = [point for chunk in _row_chunks(len(images), chunk_rows)
                for point in textbook_cw_points(params, images[chunk], labels[chunk],
                                                config)]
    assert len(seen) == len(expected)
    for got, want in zip(seen, expected):
        assert np.array_equal(got, want)


def test_cw_iterates_equal_textbook_formulas_in_float64(surrogate, probes, monkeypatch):
    # The float32 output hides last-bit differences in the float64 iterates,
    # so compare every point cw_l2_batch runs a forward pass on.
    images, labels = probes
    assert_cw_iterates_are_textbook(surrogate, images, labels, monkeypatch, len(images))


# The 30 probes fit in one row block of the CW sweep at the default budget.
# Four rows per block leave a ragged last block of two; one row per block
# puts every row on a boundary.
@pytest.mark.parametrize("rows", [4, 1])
@pytest.mark.parametrize("config", CW_REFERENCE_CONFIGS, ids=CW_REFERENCE_IDS)
def test_cw_reference_holds_across_row_blocks(surrogate, probes, config, rows,
                                              monkeypatch):
    monkeypatch.setattr("rdiv.attacks._BLOCK", rows * toy_arch().input_dim)
    test_cw_equals_two_forward_reference(surrogate, probes, config)


@pytest.mark.parametrize("rows", [4, 1])
def test_cw_iterates_hold_across_row_blocks(surrogate, probes, rows, monkeypatch):
    monkeypatch.setattr("rdiv.attacks._BLOCK", rows * toy_arch().input_dim)
    test_cw_iterates_equal_textbook_formulas_in_float64(surrogate, probes, monkeypatch)


# The 30 probes fit in one row chunk at the default budget. At four rows
# they split into eight chunks of three and four rows; at one row every row
# is optimized alone. Either way each row's bytes must not change.
@pytest.mark.parametrize("rows", [4, 1])
@pytest.mark.parametrize("config", CW_REFERENCE_CONFIGS, ids=CW_REFERENCE_IDS)
def test_cw_reference_holds_across_row_chunks(surrogate, probes, config, rows,
                                              monkeypatch):
    monkeypatch.setattr("rdiv.attacks._CHUNK", rows * toy_arch().input_dim)
    test_cw_equals_two_forward_reference(surrogate, probes, config)


@pytest.mark.parametrize("rows", [4, 1])
def test_cw_iterates_hold_chunk_by_chunk(surrogate, probes, rows, monkeypatch):
    monkeypatch.setattr("rdiv.attacks._CHUNK", rows * toy_arch().input_dim)
    images, labels = probes
    assert_cw_iterates_are_textbook(surrogate, images, labels, monkeypatch, rows)


@pytest.mark.parametrize("rows", [4, 1])
def test_cw_starting_iterate_stays_out_across_row_chunks(surrogate, probes, rows,
                                                          monkeypatch):
    monkeypatch.setattr("rdiv.attacks._CHUNK", rows * toy_arch().input_dim)
    test_cw_never_keeps_the_starting_iterate(surrogate, probes)


@pytest.mark.parametrize("batch, rows, sizes", [
    (0, 334, []), (7, 334, [7]), (1000, 334, [333, 333, 334]),
    (335, 334, [167, 168]), (30, 4, [3, 4, 4, 4, 3, 4, 4, 4]), (3, 1, [1, 1, 1]),
])
def test_row_chunks_are_even_and_as_few_as_fit(batch, rows, sizes):
    chunks = _row_chunks(batch, rows)
    assert [c.stop - c.start for c in chunks] == sizes
    assert [i for c in chunks for i in range(c.start, c.stop)] == list(range(batch))


def test_cw_on_an_empty_batch_runs_no_chunk(surrogate, monkeypatch):
    def no_chunk(*args):
        raise AssertionError("a chunk ran")

    monkeypatch.setattr("rdiv.attacks._cw_chunk", no_chunk)
    empty = np.zeros((0, SIZE, SIZE, COLORS), np.float32)
    adv = cw_l2_batch(surrogate, empty, np.zeros(0, np.int64), cw_config(iterations=3))
    assert adv.shape == (0, SIZE, SIZE, COLORS) and adv.dtype == np.float32


def test_cw_refuses_wrong_length_labels_before_any_chunk(surrogate, probes, monkeypatch):
    # One row per chunk, so labels that fit the first chunks would be
    # accepted there if the check ran per chunk.
    monkeypatch.setattr("rdiv.attacks._CHUNK", toy_arch().input_dim)
    ran = []
    monkeypatch.setattr("rdiv.attacks._cw_chunk", lambda *args: ran.append(args) or 0)
    images, labels = probes
    with pytest.raises(ValueError, match="labels"):
        cw_l2_batch(surrogate, images, labels[:-1], cw_config(iterations=1))
    assert ran == []


def test_cw_never_keeps_the_starting_iterate(surrogate, probes):
    # The starting iterate tanh(arctanh((2x - 1) * clip)) sits within about
    # 5e-7 of x. Shift one class's last bias so that some probe fails at x
    # but succeeds there: the reference never scores that iterate, so
    # keeping it with its tiny norm would change the answer.
    images, labels = probes
    params = surrogate.astype(np.float64)
    x = images.reshape(len(images), -1).astype(np.float64)
    start = (np.tanh(np.arctanh((2.0 * x - 1.0) * _TANH_CLIP)) + 1.0) / 2.0

    def margins(model, points):
        return _margin_and_seed(logits_and_cache(model, points)[0], labels,
                                0.0, False, 0)[0]

    clean, moved = margins(params, x), margins(params, start)
    row = int(np.argmin(moved - clean))
    assert moved[row] < clean[row]
    biases = [b.copy() for b in params.biases]
    biases[-1][labels[row]] -= (clean[row] + moved[row]) / 2.0
    shifted = ModelParams(params.arch, params.weights, tuple(biases))
    assert margins(shifted, x)[row] > 0 > margins(shifted, start)[row]

    config = cw_config(iterations=5)
    assert np.array_equal(cw_l2_batch(shifted, images, labels, config),
                          reference_cw_l2(shifted, images, labels, config))


def traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def mnist_width_batch(count=1000):
    """An untrained 784-256-128-10 MLP with a batch of float32 images in [0, 1]."""
    params = init_params(mlp_arch(28 * 28, (256, 128), 10),
                         derive_subkey(MASTER, 0, 0, TAG_INIT))
    rng = np.random.default_rng(17)
    images = rng.random((count, 28, 28, 1), dtype=np.float32)
    return params, images, rng.integers(0, 10, size=count)


def test_cw_memory_does_not_grow_with_the_batch():
    # Only the float32 output is the size of the batch. The rest is one
    # chunk's float64 state (`w`, both moments, `tanh(w)`, the iterate),
    # one input gradient, the forward temporaries and the float64 params:
    # measured at D=784, 8.2 chunk-sized float64 arrays at B=1000 and at
    # B=3000. A second live gradient adds one array, and anything the size
    # of the batch breaks the ratio (a float64 copy of the images adds
    # 3.1 MiB per 1000 images, 1.8 chunk arrays).
    chunk_array = (_CHUNK // (28 * 28)) * 28 * 28 * 8
    held = {}
    for count in (1000, 3000):
        params, images, labels = mnist_width_batch(count)
        peak = traced_peak(lambda: cw_l2_batch(params, images, labels,
                                               cw_config(iterations=3)))
        held[count] = peak - images.size * 4
    assert held[3000] < 1.1 * held[1000], f"{held[3000] / held[1000]:.2f}x"
    assert held[3000] < 8.7 * chunk_array, \
        f"{held[3000] / chunk_array:.2f} chunk arrays"


def test_pgd_holds_one_input_gradient():
    # Measured: 6.0 float32 (B, D) arrays (bounds, iterate, step, gradient,
    # forward temporaries); the previous step's gradient adds one more.
    params, images, labels = mnist_width_batch()
    full_array = images.size * 4
    peak = traced_peak(lambda: pgd_linf_batch(params, images, labels, 0.1, 0.01, 5))
    assert peak < 6.5 * full_array, f"peak {peak / full_array:.2f} full arrays"


def test_craft_adv_set_fields(surrogate):
    data = toy_set(count=10, seed=3)
    adv = craft_adv_set(surrogate, data, AttackConfig(kind="fgsm", eps=0.1))
    assert len(adv) == 10
    assert adv.indices.tolist() == list(range(10))
    assert np.array_equal(adv.labels, data.labels)
    assert np.array_equal(adv.originals, data.images)
    expected_after = forward(surrogate, adv.adversarials.reshape(10, -1)).argmax(axis=1)
    assert np.array_equal(adv.preds_after, expected_after)
    assert adv.surrogate_success_pct == pytest.approx(
        100.0 * np.mean(adv.preds_after != data.labels))


def test_surrogate_success_pct_counts_through_decision_errors():
    # The error counter every command uses, and bit for bit the mean of the
    # error indicator that the property once took.
    for count in range(1, 65):
        labels = np.zeros(count, np.int64)
        images = np.zeros((count, 1, 1, 1), np.float32)
        for errors in range(count + 1):
            preds = (np.arange(count) < errors).astype(np.int64)
            adv = AdvSet(AttackConfig("fgsm"), np.arange(count), labels, images,
                         images, preds)
            pct = adv.surrogate_success_pct
            assert pct == decision_errors(preds, labels) / count * 100.0
            assert pct == float(np.mean(preds != labels) * 100.0), (errors, count)


@pytest.mark.parametrize("config", [
    AttackConfig(kind="fgsm", eps=0.1),
    AttackConfig(kind="pgd-linf", eps=0.1, steps=3),
    AttackConfig(kind="cw-l2", iterations=3),
], ids=["fgsm", "pgd", "cw"])
def test_craft_adv_set_on_empty_set(surrogate, config):
    empty = LabeledSet(np.zeros((0, SIZE, SIZE, COLORS), np.float32),
                       np.zeros(0, np.int64), name="empty")
    adv = craft_adv_set(surrogate, empty, config)
    assert len(adv) == 0
    assert adv.adversarials.shape == adv.originals.shape == (0, SIZE, SIZE, COLORS)
    assert adv.adversarials.dtype == np.float32
    assert adv.preds_after.shape == (0,)
    assert rescore_adv_set(adv, surrogate).preds_after.shape == (0,)
    # No "Mean of empty slice" warning, which the suite turns into a failure.
    assert adv.surrogate_success_pct == 0.0


def test_cw_rejects_labels_and_targets_outside_the_classes(surrogate, probes):
    images, labels = probes
    for bad in (np.full(len(labels), CLASSES), np.full(len(labels), -1),
                labels[:-1], labels.astype(np.float64)):
        with pytest.raises(ValueError, match="labels"):
            cw_l2_batch(surrogate, images, bad, cw_config(iterations=1))
    with pytest.raises(ValueError, match="target"):
        cw_l2_batch(surrogate, images, labels,
                    cw_config(iterations=1, targeted=True, target=CLASSES))
    # An untargeted run ignores the target field, as it does every unused one.
    cw_l2_batch(surrogate, images, labels, cw_config(iterations=1, target=CLASSES))


@pytest.mark.parametrize("config", [
    AttackConfig(kind="fgsm", eps=0.1),
    AttackConfig(kind="pgd-linf", eps=0.1, steps=3),
    AttackConfig(kind="cw-l2", iterations=3),
], ids=["fgsm", "pgd", "cw"])
def test_attacks_refuse_pixels_outside_the_unit_interval(surrogate, probes, config):
    # The eps-box clip alone would let fgsm and pgd return -0.4 for -0.5.
    images, labels = probes
    for pixel in (-0.5, 1.5, np.nan, np.inf):
        bad = images.copy()
        bad[0, 3, 4, 0] = pixel
        with pytest.raises(ValueError, match=r"in \[0, 1\]"):
            craft_adv_set(surrogate, LabeledSet(bad, labels, name="bad"), config)
    edges = images.copy()
    edges[0, 3, 4, 0], edges[1, 3, 4, 0] = 0.0, 1.0
    adv = craft_adv_set(surrogate, LabeledSet(edges, labels, name="edges"), config)
    assert 0.0 <= adv.adversarials.min() and adv.adversarials.max() <= 1.0


def test_transfer_eval_identity_system_matches_surrogate(surrogate):
    data = toy_set(count=40, seed=9)
    hyper = Hyper(learning_rate=5e-3, batch_size=16, epochs=6)
    system = train_system(
        build_system("identity", MASTER, 1, 1, toy_arch(), SIZE, COLORS),
        toy_set(), hyper)
    assert system.channels[0].params.equal(surrogate)
    config = AttackConfig(kind="fgsm", eps=0.15)
    clean, attacked, surr, adv = transfer_eval(system, surrogate, data,
                                               config, 40)
    assert clean == pytest.approx(
        100.0 * surrogate_error(surrogate, data.images, data.labels))
    # Identity system IS the surrogate, so transfer is total.
    assert attacked == pytest.approx(surr)

    again = transfer_eval(system, surrogate, data, config, 40, adv=adv)
    assert again[:3] == (clean, attacked, surr)
    with pytest.raises(ValueError):
        transfer_eval(system, surrogate, data, config, 39, adv=adv)
    # A limit below 1 would divide by zero or report negative percentages;
    # True once scored one image.
    for limit in (0, -2, True, 2.0):
        with pytest.raises(ValueError, match=rf"^limit must be a positive int, got {limit!r}$"):
            transfer_eval(system, surrogate, data, config, limit)


def test_transfer_eval_refuses_a_set_of_another_attack_or_other_images(surrogate):
    # transfer_eval and the CLI share check_adv_set; each refusal is tried
    # through both library entry points.
    data = toy_set(count=20, seed=9)
    system = build_system("identity", MASTER, 1, 1, toy_arch(), SIZE, COLORS)
    config = AttackConfig(kind="fgsm", eps=0.15)
    adv = craft_adv_set(surrogate, data, config)
    assert transfer_eval(system, surrogate, data, config, 20, adv=adv)[3] is adv
    check_adv_set(adv, config, data)

    def refused(message, testset, attack, limit=20):
        with pytest.raises(ValueError, match=message):
            transfer_eval(system, surrogate, testset, attack, limit, adv=adv)
        with pytest.raises(ValueError, match=message):
            check_adv_set(adv, attack, take_first(testset, limit))

    for other in (AttackConfig(kind="pgd-linf", eps=0.15, alpha=0.15, steps=1),
                  AttackConfig(kind="fgsm", eps=0.1)):
        refused(r"^adversarial set was crafted with AttackConfig\(kind='fgsm', eps=0.15,",
                data, other)
    refused(r"^adversarial set has 20 samples, need 19$", data, config, limit=19)
    shifted = LabeledSet(data.images[::-1].copy(), data.labels[::-1].copy(), name="shifted")
    relabelled = LabeledSet(data.images, (data.labels + 1) % CLASSES, name="relabelled")
    for testset in (shifted, relabelled, toy_set(count=20, seed=10)):
        refused(r"^adversarial set was not crafted from the first 20 test samples$",
                testset, config)


def test_transfer_eval_zero_eps_equals_clean(surrogate):
    data = toy_set(count=30, seed=13)
    system = train_system(
        build_system("direct-permutation", MASTER, 1, 2, toy_arch(), SIZE, COLORS),
        toy_set(), Hyper(learning_rate=5e-3, batch_size=16, epochs=3))
    clean, attacked, _, _ = transfer_eval(
        system, surrogate, data, AttackConfig(kind="fgsm", eps=0.0), 30)
    assert clean == attacked


def test_transfer_eval_percentages_equal_mean_indicator(surrogate):
    # Reports compare these numbers with ==, so the integer error count must
    # give exactly the float the mean of the error indicator gave.
    data = toy_set(count=30, seed=21)
    system = train_system(
        build_system("direct-permutation", MASTER, 1, 1, toy_arch(), SIZE, COLORS),
        toy_set(), Hyper(learning_rate=5e-3, batch_size=16, epochs=1))
    config = AttackConfig(kind="fgsm", eps=0.2)
    for limit in (7, 29, 30):
        clean, attacked, _, adv = transfer_eval(system, surrogate, data, config, limit)
        head = data.images[:limit], data.labels[:limit]
        assert clean == float(np.mean(classify_batch(system, head[0]) != head[1]) * 100.0)
        assert attacked == float(
            np.mean(classify_batch(system, adv.adversarials) != adv.labels) * 100.0)


@pytest.mark.parametrize("count", [7, 999, 1000])
def test_error_percentage_arithmetic_is_exact(count):
    for errors in range(count + 1):
        indicator = np.arange(count) < errors
        assert errors / count * 100.0 == float(np.mean(indicator) * 100.0)


def test_attack_config_validation():
    with pytest.raises(ValueError):
        AttackConfig(kind="gradient-hug")
    with pytest.raises(ValueError):
        AttackConfig(kind="fgsm", eps=-0.1)
    with pytest.raises(ValueError):
        AttackConfig(kind="pgd-linf", steps=0)
    with pytest.raises(ValueError):
        AttackConfig(kind="cw-l2", c=0.0)
    with pytest.raises(ValueError):
        AttackConfig(kind="cw-l2", kappa=-1.0)
    for target in (-1, True, 1.0, "2", None):
        with pytest.raises(ValueError, match="target"):
            AttackConfig(kind="cw-l2", targeted=True, target=target)
    # A targeted fgsm or pgd-linf run crafted the untargeted bytes.
    for kind in ("fgsm", "pgd-linf"):
        with pytest.raises(ValueError, match=f"targeted applies to cw-l2 only, not {kind}"):
            AttackConfig(kind=kind, targeted=True)


@pytest.mark.parametrize("field, value", [
    ("steps", 2.5), ("steps", True), ("steps", "3"),
    ("iterations", True), ("iterations", 10.0),
    ("targeted", "no"), ("targeted", 1), ("targeted", None),
    ("eps", float("nan")), ("eps", float("inf")), ("eps", True), ("eps", "0.1"),
    ("alpha", float("nan")), ("alpha", True),
    ("c", float("inf")), ("c", False),
    ("step_size", float("nan")), ("step_size", True),
    ("kappa", float("inf")), ("kappa", True), ("kappa", None),
])
def test_attack_config_refuses_wrong_types(field, value):
    with pytest.raises(ValueError, match=field):
        AttackConfig(kind="cw-l2", **{field: value})


def test_adv_set_length_validation():
    shape = (3, SIZE, SIZE, COLORS)
    with pytest.raises(ValueError):
        AdvSet(AttackConfig(kind="fgsm"), np.arange(3), np.zeros(2, np.int64),
               np.zeros(shape, np.float32), np.zeros(shape, np.float32),
               np.zeros(3, np.int64))
