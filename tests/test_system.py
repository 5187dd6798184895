import re
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from rdiv.attacks import train_surrogate
from rdiv.dataio import LabeledSet
from rdiv.nn import ArchSpec, Hyper, ModelParams, forward, init_params, mlp_arch, train
from rdiv.rng import TAG_INIT, TAG_SHUFFLE, MasterKey, derive_subkey
from rdiv.system import (
    MODE_TABLE,
    MODES,
    REJECT,
    SystemSpec,
    build_system,
    classify_batch,
    decision_errors,
    first_branches,
    nested_decisions,
    predict_batch,
    rebuild_preprocessors,
    train_system,
)
from rdiv.transforms import SUBBAND_IDS, fold_into_weights, preprocess_batch, subband_rect

from _helpers import loop_fold, pixel_orders

SIZE = 8
COLORS = 1
CLASSES = 3
MASTER = MasterKey(0x1234ABCD5678EF90)


def toy_arch(colors=COLORS):
    return mlp_arch(SIZE * SIZE * colors, (16,), CLASSES)


def toy_set(count=60, seed=0, name="toy", colors=COLORS):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, CLASSES, size=count).astype(np.int64)
    images = rng.random((count, SIZE, SIZE, colors)).astype(np.float32) * 0.2
    # Make classes separable: each class brightens its own stripe.
    for c in range(CLASSES):
        rows = labels == c
        images[rows, c * 2:c * 2 + 2, :, :] += 0.7
    images = np.clip(images, 0.0, 1.0)
    return LabeledSet(images, labels, name=name)


def toy_hyper():
    return Hyper(learning_rate=5e-3, batch_size=16, epochs=3)


@pytest.fixture(scope="module")
def trained_perm_system():
    system = build_system("direct-permutation", MASTER, 1, 4, toy_arch(), SIZE, COLORS)
    return train_system(system, toy_set(), toy_hyper())


def test_mode_group_counts():
    arch = toy_arch()
    for mode, groups in [("identity", 1), ("direct-permutation", 1),
                         ("dct-sign-flip-3band", 3), ("dct-hard-threshold-3band", 3)]:
        system = build_system(mode, MASTER, groups, 2, arch, SIZE, COLORS)
        assert len(system.channels) == groups * 2
        assert [(c.j, c.i) for c in system.channels] == [
            (j, i) for j in range(groups) for i in range(2)
        ]


def test_every_modes_j_and_channel_kinds_come_from_the_table():
    assert [(mode, *MODE_TABLE[mode]) for mode in MODES] == [
        ("identity", "identity", 1),
        ("direct-permutation", "direct-permutation", 1),
        ("dct-sign-flip-3band", "dct-sign-flip", 3),
        ("dct-hard-threshold-3band", "dct-hard-threshold", 3)]
    for mode, (kind, groups) in MODE_TABLE.items():
        system = build_system(mode, MASTER, groups, 2, toy_arch(), SIZE, COLORS)
        assert system.groups == groups and system.branches == 2
        assert {c.preprocessor.kind for c in system.channels} == {kind}


def test_wrong_group_count_rejected():
    arch = toy_arch()
    with pytest.raises(ValueError):
        build_system("direct-permutation", MASTER, 3, 2, arch, SIZE, COLORS)
    with pytest.raises(ValueError):
        build_system("dct-sign-flip-3band", MASTER, 1, 2, arch, SIZE, COLORS)
    with pytest.raises(ValueError, match="unknown mode 'no-such-mode'"):
        build_system("no-such-mode", MASTER, 1, 2, arch, SIZE, COLORS)
    with pytest.raises(ValueError):
        build_system("identity", MASTER, 1, 0, arch, SIZE, COLORS)


def test_per_color_rejected_outside_direct_permutation():
    arch = toy_arch()
    for mode in ("identity", "dct-sign-flip-3band", "dct-hard-threshold-3band"):
        with pytest.raises(ValueError, match="per_color"):
            build_system(mode, MASTER, MODE_TABLE[mode].groups, 1, arch, SIZE, COLORS,
                         per_color=True)
    # A quoted "no" once built per-colour permutations that save_system
    # could not pack.
    with pytest.raises(ValueError, match="per_color must be true or false, got 'no'"):
        build_system("direct-permutation", MASTER, 1, 1, arch, SIZE, COLORS, per_color="no")


def test_reject_threshold_outside_unit_interval_rejected(trained_perm_system):
    # A quoted "0.5" once raised TypeError inside the range check.
    images = toy_set(count=4).images
    for threshold in (-0.01, 1.01, float("nan"), "0.5", True):
        with pytest.raises(ValueError, match="reject_threshold must be a number in"):
            classify_batch(trained_perm_system, images, threshold)
        with pytest.raises(ValueError, match="reject_threshold must be a number in"):
            nested_decisions(trained_perm_system, [1], images, threshold)
    for threshold in (0.0, 1.0, 1):
        classify_batch(trained_perm_system, images, threshold)
        nested_decisions(trained_perm_system, [1], images, threshold)


@pytest.mark.parametrize("setting, value", [("groups", True), ("branches", True),
                                            ("branches", 2.0), ("size", 8.0),
                                            ("colors", True)])
def test_build_system_refuses_counts_that_are_not_positive_ints(setting, value):
    # branches=True once built an I=1 grid, and 2.0 raised a bare TypeError.
    counts = {"groups": 1, "branches": 2, "size": SIZE, "colors": COLORS, setting: value}
    with pytest.raises(ValueError, match=rf"^{setting} must be a positive int, got {value!r}$"):
        build_system("direct-permutation", MASTER, arch=toy_arch(), **counts)


@pytest.mark.parametrize("branches", [True, 1.0])
def test_sub_grids_refuse_counts_that_are_not_positive_ints(branches):
    # True once took the first branch.
    system = build_system("direct-permutation", MASTER, 1, 2, toy_arch(), SIZE, COLORS)
    message = rf"^branches must be a positive int, got {branches!r}$"
    with pytest.raises(ValueError, match=message):
        first_branches(system, branches)
    with pytest.raises(ValueError, match=message):
        nested_decisions(system, [branches], toy_set(count=4).images)


def test_build_system_refuses_params_of_another_arch():
    # They were once taken, and the saved file then failed to read back.
    arch, other = mlp_arch(16, (8,), 4), mlp_arch(16, (5,), 4)
    params = [init_params(other, derive_subkey(MASTER, 0, 0, TAG_INIT))]
    with pytest.raises(ValueError, match="params hold a 16-5-4 network, the arch is 16-8-4"):
        build_system("identity", MASTER, 1, 1, arch, 4, 1, params=params)


def test_branches_is_derived_from_the_channels():
    # I is not stored beside the channels, so the two cannot disagree.
    assert "branches" not in {field.name for field in fields(SystemSpec)}
    system = build_system("dct-sign-flip-3band", MASTER, 3, 2, toy_arch(), SIZE, COLORS)
    taken = first_branches(system, 1)
    assert (system.branches, taken.branches) == (2, 1)
    assert [(c.j, c.i) for c in taken.channels] == [(0, 0), (1, 0), (2, 0)]


@pytest.mark.parametrize("mode, groups", [("direct-permutation", 1),
                                          ("dct-hard-threshold-3band", 3)])
def test_first_branches_equals_training_the_smaller_grid(mode, groups):
    hyper = Hyper(learning_rate=5e-3, batch_size=16, epochs=1)
    full = train_system(build_system(mode, MASTER, groups, 3, toy_arch(), SIZE, COLORS),
                        toy_set(), hyper)
    small = train_system(build_system(mode, MASTER, groups, 2, toy_arch(), SIZE, COLORS),
                         toy_set(), hyper)
    taken = first_branches(full, 2)
    assert (taken.groups, taken.branches) == (groups, 2)
    assert [(c.j, c.i) for c in taken.channels] == [(c.j, c.i) for c in small.channels]
    for a, b in zip(taken.channels, small.channels):
        assert a.params.equal(b.params)
        assert a.preprocessor.payload_equal(b.preprocessor)
    for bad in (0, 4):
        with pytest.raises(ValueError):
            first_branches(full, bad)


@pytest.mark.parametrize("mode", MODES)
def test_nested_decisions_equal_classifying_each_sub_grid(mode):
    hyper = Hyper(learning_rate=5e-3, batch_size=16, epochs=1)
    full = train_system(build_system(mode, MASTER, MODE_TABLE[mode].groups, 2, toy_arch(),
                                     SIZE, COLORS), toy_set(), hyper)
    images = toy_set(count=40, seed=9).images
    # A threshold at the median normalized top score rejects about half.
    scores = predict_batch(full, images)
    median = float(np.median(scores.max(axis=1) / len(full.channels)))
    for threshold in (None, median):
        decisions = nested_decisions(full, [2, 1], images, threshold)
        assert list(decisions) == [2, 1]
        for branches, got in decisions.items():
            # The rule written out: the argmax of the sub-grid's summed
            # scores, REJECT where the top total per channel is below t.
            sub = first_branches(full, branches)
            total = predict_batch(sub, images)
            expected = total.argmax(axis=1)
            if threshold is not None:
                top = total.max(axis=1) / len(sub.channels)
                expected = np.where(top < threshold, REJECT, expected)
            assert got.dtype == expected.dtype and np.array_equal(got, expected)
        assert np.array_equal(classify_batch(full, images, threshold), decisions[2])
        if threshold is not None:
            assert (decisions[2] == REJECT).any() and (decisions[2] != REJECT).any()


def test_nested_decisions_refuse_bad_values_before_scoring(monkeypatch):
    # An I past the grid was once refused only after every channel was scored.
    system = build_system("direct-permutation", MASTER, 1, 2, toy_arch(), SIZE, COLORS)

    def no_scoring(*args):
        raise AssertionError("channel_scores ran")

    monkeypatch.setattr("rdiv.system.channel_scores", no_scoring)
    images = toy_set(count=4).images
    with pytest.raises(ValueError, match=r"^cannot take 3 branches from a grid of 2$"):
        nested_decisions(system, [1, 3], images)
    with pytest.raises(ValueError, match=r"^branch grid holds no I$"):
        nested_decisions(system, [], images)
    with pytest.raises(ValueError, match="^reject_threshold must be a number in"):
        classify_batch(system, images, 1.5)


@pytest.mark.parametrize("mode", MODES)
def test_a_system_repr_shows_no_digit_of_its_key(mode):
    key = MasterKey(6840227782638526189)
    system = build_system(mode, key, MODE_TABLE[mode].groups, 2, toy_arch(), SIZE, COLORS)
    text = repr(system)
    assert "master=MasterKey()" in text
    for digits in (str(key.value), f"{key.value:x}", f"{key.value:X}"):
        assert digits not in text


def test_arch_must_match_image_shape():
    with pytest.raises(ValueError):
        build_system("identity", MASTER, 1, 1, mlp_arch(10, (4,), CLASSES), SIZE, COLORS)


def test_branches_get_distinct_permutations():
    system = build_system("direct-permutation", MASTER, 1, 5, toy_arch(), SIZE, COLORS)
    perms = [tuple(c.preprocessor.permutation.tolist()) for c in system.channels]
    assert len(set(perms)) == 5


def test_sign_flip_groups_cover_three_bands():
    system = build_system("dct-sign-flip-3band", MASTER, 3, 1, toy_arch(), SIZE, COLORS)
    assert SUBBAND_IDS == ("V", "H", "D")
    for channel in system.channels:
        r0, r1, c0, c1 = subband_rect(SUBBAND_IDS[channel.j], SIZE)
        mask = channel.preprocessor.mask.copy()
        assert np.any(mask[r0:r1, c0:c1] == -1.0)
        mask[r0:r1, c0:c1] = 1.0
        assert np.all(mask == 1.0)


def test_build_and_train_deterministic(trained_perm_system):
    again = train_system(
        build_system("direct-permutation", MASTER, 1, 4, toy_arch(), SIZE, COLORS),
        toy_set(), toy_hyper())
    for a, b in zip(trained_perm_system.channels, again.channels):
        assert a.params.equal(b.params)


def test_parallel_training_matches_serial(trained_perm_system):
    parallel = train_system(
        build_system("direct-permutation", MASTER, 1, 4, toy_arch(), SIZE, COLORS),
        toy_set(), toy_hyper(), workers=4)
    for a, b in zip(trained_perm_system.channels, parallel.channels):
        assert a.params.equal(b.params)


@pytest.mark.parametrize("mode, colors, per_color", [
    ("identity", 1, False),
    ("direct-permutation", 1, False),
    ("direct-permutation", 3, False),
    ("direct-permutation", 3, True),
    ("dct-sign-flip-3band", 1, False),
])
def test_each_channel_trains_as_on_its_preprocessed_set(mode, colors, per_color):
    # The reference maps the whole set once and trains on that copy; index-map
    # channels instead gather each batch through the map inside `train`.
    data = toy_set(colors=colors)
    system = build_system(mode, MASTER, MODE_TABLE[mode].groups, 2, toy_arch(colors),
                          SIZE, colors, per_color=per_color)
    trained = train_system(system, data, toy_hyper())
    for before, after in zip(system.channels, trained.channels, strict=True):
        inputs = preprocess_batch(before.preprocessor, data.images)
        key = derive_subkey(MASTER, before.j, before.i, TAG_SHUFFLE)
        reference = train(before.params, (inputs, data.labels), toy_hyper(), key)
        assert after.params.equal(reference)


def test_index_map_training_holds_no_copy_of_the_set():
    data = toy_set(count=4000)
    system = build_system("direct-permutation", MASTER, 1, 1, toy_arch(), SIZE, COLORS)
    tracemalloc.start()
    try:
        train_system(system, data, Hyper(learning_rate=5e-3, batch_size=64, epochs=1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < data.images.nbytes


@pytest.mark.parametrize("workers", [0, -3, True, 1.5])
def test_train_system_refuses_workers_that_are_not_positive_ints(workers, monkeypatch):
    def no_training(*args, **kwargs):
        raise AssertionError("a channel trained")

    monkeypatch.setattr("rdiv.system.train", no_training)
    system = build_system("direct-permutation", MASTER, 1, 2, toy_arch(), SIZE, COLORS)
    with pytest.raises(ValueError,
                       match=rf"^workers must be a positive int, got {workers!r}$"):
        train_system(system, toy_set(), toy_hyper(), workers=workers)


def test_identity_system_equals_plain_classifier():
    data = toy_set()
    system = train_system(
        build_system("identity", MASTER, 1, 1, toy_arch(), SIZE, COLORS),
        data, toy_hyper())
    params = init_params(toy_arch(), derive_subkey(MASTER, 0, 0, TAG_INIT))
    flat = data.images.reshape(len(data), -1)
    params = train(params, (flat, data.labels), toy_hyper(),
                   derive_subkey(MASTER, 0, 0, TAG_SHUFFLE))
    assert system.channels[0].params.equal(params)
    assert train_surrogate(data, toy_arch(), toy_hyper(), MASTER).equal(params)
    x = data.images[:1]
    assert np.allclose(predict_batch(system, x), forward(params, x.reshape(1, -1)),
                       atol=1e-6)


def test_scores_sum_to_channel_count(trained_perm_system):
    images = toy_set(count=20, seed=9).images
    scores = predict_batch(trained_perm_system, images)
    channels = len(trained_perm_system.channels)
    assert scores.shape == (20, CLASSES)
    assert np.all(scores >= 0)
    assert np.max(np.abs(scores.sum(axis=1) - channels)) < 1e-4


def per_channel_scores(system, images):
    """The reference: transform every image per channel, then classify it."""
    total = None
    for channel in system.channels:
        transformed = preprocess_batch(channel.preprocessor, images)
        scores = forward(channel.params, transformed.reshape(len(images), -1))
        total = scores if total is None else total + scores
    return total


@pytest.mark.parametrize("mode, colors, per_color", [
    ("identity", 1, False),
    ("direct-permutation", 1, False),
    ("direct-permutation", 3, True),
    ("dct-sign-flip-3band", 1, False),
    ("dct-hard-threshold-3band", 1, False),
])
def test_predict_batch_folds_transforms_into_first_layer(mode, colors, per_color):
    system = train_system(
        build_system(mode, MASTER, MODE_TABLE[mode].groups, 2, toy_arch(colors), SIZE,
                     colors, per_color=per_color),
        toy_set(colors=colors), toy_hyper())
    images = toy_set(count=40, seed=9, colors=colors).images
    scores = predict_batch(system, images)
    expected = per_channel_scores(system, images)
    assert scores.dtype == expected.dtype
    assert np.max(np.abs(scores - expected)) <= 1e-5
    assert np.array_equal(classify_batch(system, images), expected.argmax(axis=1))

    if mode == "direct-permutation":
        for channel in system.channels:
            w1 = channel.params.weights[0]
            orders = pixel_orders(MASTER, channel.j, channel.i, SIZE, colors, per_color)
            assert np.array_equal(fold_into_weights(channel.preprocessor, w1),
                                  loop_fold(orders, w1))

    poisoned = images.copy()
    poisoned[3, 2, 5, 0] = np.nan
    with pytest.raises(FloatingPointError, match="non-finite values in the input"):
        predict_batch(system, poisoned)
    for bad in (images[:, :-1], images[0], images.reshape(40, -1)):
        with pytest.raises(ValueError, match="expected batch of shape"):
            predict_batch(system, bad)


def test_empty_batch_gives_empty_results(trained_perm_system):
    empty = np.zeros((0, SIZE, SIZE, COLORS), np.float32)
    no_labels = np.zeros((0,), np.int64)
    for system, threshold in ((trained_perm_system, None), (zero_net_system(), 0.5)):
        assert predict_batch(system, empty).shape == (0, CLASSES)
        assert classify_batch(system, empty, threshold).shape == (0,)
        assert decision_errors(classify_batch(system, empty, threshold), no_labels) == 0


def zero_net_system():
    arch = toy_arch()
    system = build_system("identity", MASTER, 1, 1, arch, SIZE, COLORS)
    zeros = ModelParams(arch,
                        tuple(np.zeros(s, dtype=np.float32) for s in arch.dense_shapes),
                        tuple(np.zeros(s[1], dtype=np.float32) for s in arch.dense_shapes))
    from dataclasses import replace
    return replace(system, channels=(replace(system.channels[0], params=zeros),))


def test_tie_breaks_to_smallest_class():
    # A zero network scores every class 1/M; the tie must resolve to class 0.
    system = zero_net_system()
    assert classify_batch(system, toy_set(count=1).images).tolist() == [0]


def test_reject_threshold_boundary():
    x = toy_set(count=1).images
    uniform = 1.0 / CLASSES
    system = zero_net_system()
    assert classify_batch(system, x, uniform + 1e-3).tolist() == [REJECT]
    assert classify_batch(system, x, uniform - 1e-3).tolist() == [0]


def test_rejects_count_as_errors():
    data = toy_set(count=10)
    decisions = classify_batch(zero_net_system(), data.images, 0.9)
    assert np.all(decisions == REJECT)
    assert decision_errors(decisions, data.labels) == 10


def test_decision_errors_counts_wrong_decisions_and_checks_labels(trained_perm_system):
    data = toy_set(count=30, seed=3)
    decisions = classify_batch(trained_perm_system, data.images)
    wrong = decisions != data.labels
    assert decision_errors(decisions, data.labels) == wrong.sum()
    assert decision_errors(classify_batch(trained_perm_system, data.images[:12]),
                           data.labels[:12]) == wrong[:12].sum()
    flipped = np.where(wrong, decisions, (data.labels + 1) % CLASSES)
    assert decision_errors(decisions, flipped) == 30 - wrong.sum()
    with pytest.raises(ValueError, match="labels"):
        decision_errors(decisions, data.labels[:29])


def test_trained_system_learns_toy_task(trained_perm_system):
    data = toy_set()
    errors = decision_errors(classify_batch(trained_perm_system, data.images), data.labels)
    assert errors / 60 * 100.0 < 15.0


def test_channel_order_does_not_change_decisions(trained_perm_system):
    from dataclasses import replace
    reordered = replace(trained_perm_system,
                        channels=trained_perm_system.channels[::-1])
    images = toy_set(count=20, seed=9).images
    assert np.array_equal(classify_batch(trained_perm_system, images),
                          classify_batch(reordered, images))
    assert np.allclose(predict_batch(trained_perm_system, images),
                       predict_batch(reordered, images), atol=1e-5)


def test_rebuild_preprocessors_swaps_key_keeps_params(trained_perm_system):
    other = rebuild_preprocessors(trained_perm_system, MasterKey(0x5))
    assert other.master.value == 0x5
    for a, b in zip(trained_perm_system.channels, other.channels):
        assert a.params.equal(b.params)
        assert not np.array_equal(a.preprocessor.permutation,
                                  b.preprocessor.permutation)


@pytest.mark.parametrize("mode, per_color", [(m, False) for m in MODES]
                         + [("direct-permutation", True)])
def test_rebuild_preprocessors_equals_build_under_other_key(mode, per_color):
    system = build_system(mode, MASTER, MODE_TABLE[mode].groups, 2, toy_arch(), SIZE,
                          COLORS, per_color=per_color)
    other = rebuild_preprocessors(system, MasterKey(0x5))
    fresh = build_system(mode, MasterKey(0x5), MODE_TABLE[mode].groups, 2, toy_arch(),
                         SIZE, COLORS, per_color=per_color)
    assert system.per_color == other.per_color == per_color
    assert first_branches(other, 1).per_color == per_color
    for a, b, c in zip(system.channels, other.channels, fresh.channels, strict=True):
        assert (a.j, a.i) == (b.j, b.i)
        assert b.params is a.params
        assert b.preprocessor.payload_equal(c.preprocessor)


def test_train_rejects_mismatched_data():
    system = build_system("identity", MASTER, 1, 1, toy_arch(), SIZE, COLORS)
    bad = toy_set()
    from dataclasses import replace as dreplace
    shrunk = LabeledSet(bad.images[:, :4, :4, :], bad.labels, name="bad")
    with pytest.raises(ValueError):
        train_system(system, shrunk, toy_hyper())
    empty = LabeledSet(np.zeros((0, SIZE, SIZE, COLORS), np.float32),
                       np.zeros((0,), np.int64), name="empty")
    with pytest.raises(ValueError):
        train_system(system, empty, toy_hyper())
    with pytest.raises(ValueError):
        train_system(dreplace(system, channels=()), bad, toy_hyper())


@pytest.mark.parametrize("mode", ["direct-permutation", "dct-sign-flip-3band"])
@pytest.mark.parametrize("shape", [(60, 4, 4, COLORS), (60, SIZE, SIZE - 1, COLORS),
                                   (60, SIZE, SIZE, COLORS + 2)],
                         ids=["other N", "not square", "other m"])
def test_train_system_refuses_other_batch_shapes_before_any_channel_trains(
        mode, shape, monkeypatch):
    # The set's shape is checked by `check_batch`, as every batch a system
    # scores is.
    def no_training(*args, **kwargs):
        raise AssertionError("a channel trained")

    monkeypatch.setattr("rdiv.system.train", no_training)
    system = build_system(mode, MASTER, MODE_TABLE[mode].groups, 2, toy_arch(), SIZE,
                          COLORS)
    data = LabeledSet(np.zeros(shape, np.float32), np.zeros(60, np.int64), name="other")
    expected = re.escape(f"expected batch of shape (B, {SIZE}, {SIZE}, {COLORS}), "
                         f"got {shape}")
    with pytest.raises(ValueError, match=f"^{expected}$"):
        train_system(system, data, toy_hyper())


@pytest.mark.parametrize("mode", ["direct-permutation", "dct-sign-flip-3band"])
@pytest.mark.parametrize("workers", [1, 2])
def test_train_system_refuses_an_empty_set(mode, workers):
    system = build_system(mode, MASTER, MODE_TABLE[mode].groups, 2, toy_arch(), SIZE,
                          COLORS)
    empty = LabeledSet(np.zeros((0, SIZE, SIZE, COLORS), np.float32),
                       np.zeros((0,), np.int64), name="empty")
    with pytest.raises(ValueError, match="^dataset is empty$"):
        train_system(system, empty, toy_hyper(), workers=workers)


def test_modes_tuple_is_public():
    assert MODES == ("identity", "direct-permutation", "dct-sign-flip-3band",
                     "dct-hard-threshold-3band")
