"""End-to-end acceptance suite.

Each test prints one `acceptance NN <label>: PASS/FAIL (...)` line on the
real stdout so the verdicts stay visible under pytest's capture. The heavy
fixtures (dataset, surrogate, trained systems, adversarial sets) are
session-scoped and shared across criteria.

The dataset is a synthetic handwritten-digit stand-in written as real IDX
files: ten glyph classes with identical ink budgets, so per-class pixel
histograms match and no permutation-invariant shortcut exists. Point
RDIV_MNIST_DIR at a directory holding the four standard MNIST IDX files
to run against the real thing instead.
"""

import os
import struct
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from scipy.stats import binomtest

from rdiv import cli
from rdiv.attacks import AttackConfig, craft_adv_set, train_surrogate
from rdiv.dataio import DatasetFormatError, load_cifar10, load_idx, take_first
from rdiv.nn import Hyper, finite_difference_max_error, forward, init_params, mlp_arch
from rdiv.rng import TAG_INIT, MasterKey, derive_subkey, uniform_floats
from rdiv.system import (
    build_system,
    classify_batch,
    decision_errors,
    first_branches,
    rebuild_preprocessors,
    train_system,
)
from rdiv.transforms import (
    SUBBAND_IDS,
    dct2,
    dct_basis,
    idct2,
    make_preprocessor,
    subband_rect,
)

from _helpers import preprocess
from _synth import ensure_dataset, make_dataset, write_idx

MASTER = MasterKey(0x5EED5EED5EED5EED)
WRONG_KEY = MasterKey(0x0BADC0DE0BADC0DE)
LIMIT = 1000
TRAIN_CAP = 10000
SIZE = 28
HIDDEN = (256, 128)
HYPER = Hyper()

_MNIST_NAMES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}


_CAPTURE = None


@pytest.fixture(autouse=True)
def _live_verdicts(capfd):
    """Let _report bypass capture so verdict lines always reach the terminal."""
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def _report(num: int, label: str, ok: bool, detail: str) -> None:
    line = f"acceptance {num:02d} {label}: {'PASS' if ok else 'FAIL'} ({detail})"
    # Leading newline: pytest's progress output leaves the cursor mid-line.
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print("\n" + line, flush=True)
    else:
        print("\n" + line, flush=True)
    assert ok, line


@pytest.fixture(scope="session")
def dataset_paths(tmp_path_factory):
    root = os.environ.get("RDIV_MNIST_DIR")
    if root:
        candidate = {k: Path(root) / v for k, v in _MNIST_NAMES.items()}
        if all(p.is_file() for p in candidate.values()):
            return candidate
    return ensure_dataset(tmp_path_factory.mktemp("digits"))


@pytest.fixture(scope="session")
def trainset(dataset_paths):
    data = load_idx(dataset_paths["train_images"], dataset_paths["train_labels"],
                    name="digits")
    return take_first(data, TRAIN_CAP)


@pytest.fixture(scope="session")
def test_slice(dataset_paths):
    data = load_idx(dataset_paths["test_images"], dataset_paths["test_labels"],
                    name="digits")
    return take_first(data, LIMIT)


@pytest.fixture(scope="session")
def arch(trainset):
    return mlp_arch(trainset.images[0].size, HIDDEN, 10)


@pytest.fixture(scope="session")
def surrogate(trainset, test_slice, arch):
    """(params, train seconds, clean error pct, predictions on the slice)."""
    start = time.perf_counter()
    params = train_surrogate(trainset, arch, HYPER, MASTER)
    elapsed = time.perf_counter() - start
    preds = forward(params, test_slice.images.reshape(LIMIT, -1)).argmax(axis=1)
    clean_pct = float((preds != test_slice.labels).mean() * 100.0)
    return params, elapsed, clean_pct, preds


@pytest.fixture(scope="session")
def perm_systems(trainset, arch):
    # Channel (0, i) depends only on the key and its lineage, so the I=1 and
    # I=5 grids are the first branches of the I=10 grid, bit for bit.
    system = build_system("direct-permutation", MASTER, 1, 10, arch,
                          trainset.images.shape[1], trainset.images.shape[3])
    full = train_system(system, trainset, HYPER)
    return {branches: first_branches(full, branches) for branches in (1, 5, 10)}


@pytest.fixture(scope="session")
def band_systems(trainset, arch):
    systems = {}
    for mode in ("dct-sign-flip-3band", "dct-hard-threshold-3band"):
        system = build_system(mode, MASTER, 3, 1, arch,
                              trainset.images.shape[1], trainset.images.shape[3])
        systems[mode] = train_system(system, trainset, HYPER)
    return systems


@pytest.fixture(scope="session")
def cw_full(surrogate, test_slice):
    config = AttackConfig("cw-l2", c=1.0, iterations=200, step_size=1e-2)
    return craft_adv_set(surrogate[0], test_slice, config)


def _random_images(count: int, tag_branch: int) -> np.ndarray:
    key = derive_subkey(MASTER, 7, tag_branch, TAG_INIT)
    flat = uniform_floats(key, count * SIZE * SIZE)
    return flat.reshape(count, SIZE, SIZE).astype(np.float32)


def test_criterion_01_transform_round_trip():
    start = time.perf_counter()
    basis = dct_basis(SIZE)
    gram_err = float(np.abs(basis @ basis.T - np.eye(SIZE)).max())
    worst = 0.0
    for pos, image in enumerate(_random_images(100, 0)):
        restored = idct2(basis, dct2(basis, image))
        worst = max(worst, float(np.abs(restored - image).max()))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-5 and gram_err < 1e-10 and elapsed < 1.0
    _report(1, "transform-round-trip", ok,
            f"round trip {worst:.2e}, orthonormality {gram_err:.2e}, {elapsed:.2f}s")


def test_criterion_02_operator_algebra():
    flip_worst = 0.0
    thresh_worst = 0.0
    perm_exact = True
    for case in range(100):
        image = _random_images(1, 100 + case)[0][:, :, np.newaxis]
        band = subband_rect(SUBBAND_IDS[case % 3], SIZE)

        flip = make_preprocessor("dct-sign-flip", MASTER, 0, case, SIZE, 1,
                                 subband=band)
        twice = preprocess(flip, preprocess(flip, image))
        flip_worst = max(flip_worst, float(np.abs(twice - image).max()))

        perm = make_preprocessor("direct-permutation", MASTER, 0, case, SIZE, 1)
        shuffled = preprocess(perm, image).reshape(SIZE * SIZE)
        restored = np.empty_like(shuffled)
        restored[perm.permutation] = shuffled
        perm_exact = perm_exact and np.array_equal(
            restored, image.reshape(SIZE * SIZE))

        thresh = make_preprocessor("dct-hard-threshold", MASTER, 0, case, SIZE, 1,
                                   subband=band)
        once = preprocess(thresh, image)
        thresh_worst = max(thresh_worst,
                           float(np.abs(preprocess(thresh, once) - once).max()))
    ok = flip_worst <= 1e-5 and perm_exact and thresh_worst <= 1e-5
    _report(2, "operator-algebra", ok,
            f"involution {flip_worst:.2e}, permutation exact: {perm_exact}, "
            f"idempotence {thresh_worst:.2e}")


def _relu_margin(params, x: np.ndarray) -> float:
    """Smallest |pre-activation| feeding a relu; the last dense is smooth."""
    h = np.asarray(x, dtype=np.float64)
    margin = float("inf")
    for k in range(len(params.weights) - 1):
        h = h @ params.weights[k].astype(np.float64) \
            + params.biases[k].astype(np.float64)
        margin = min(margin, float(np.abs(h).min()))
        h = np.maximum(h, 0.0)
    return margin


def test_criterion_03_gradient_fidelity():
    shapes = [(6, (5,), 4), (8, (7, 6), 5), (5, (4,), 3), (7, (6, 5), 4)]
    start = time.perf_counter()
    worst = 0.0
    accepted = 0
    skipped = 0
    for probe in range(1000):
        if accepted == 100:
            break
        inputs, hidden, classes = shapes[probe % len(shapes)]
        net = mlp_arch(inputs, hidden, classes)
        params = init_params(net, derive_subkey(MASTER, 8, probe, TAG_INIT))
        x = uniform_floats(derive_subkey(MASTER, 9, probe, TAG_INIT), inputs)
        # The +/-1e-3 difference probes must not cross a relu kink, where
        # the loss is not differentiable and FD measures nothing.
        if _relu_margin(params, x) <= 2e-2:
            skipped += 1
            continue
        worst = max(worst, finite_difference_max_error(params, x,
                                                       probe % classes))
        accepted += 1
    elapsed = time.perf_counter() - start
    ok = accepted == 100 and worst < 1e-4 and elapsed < 30.0
    _report(3, "gradient-fidelity", ok,
            f"{accepted} nets ({skipped} kink-adjacent candidates skipped), "
            f"max relative error {worst:.2e}, {elapsed:.1f}s")


def test_criterion_04_determinism(tmp_path):
    pixels, labels = make_dataset(300, seed=31)
    write_idx(tmp_path, "train", pixels, labels)
    pixels, labels = make_dataset(100, seed=32)
    write_idx(tmp_path, "test", pixels, labels)
    config_path = tmp_path / "config.yaml"
    config_path.write_text(yaml.safe_dump({
        "dataset": {
            "name": "digits", "format": "idx",
            "train_images": str(tmp_path / "train-images.idx"),
            "train_labels": str(tmp_path / "train-labels.idx"),
            "test_images": str(tmp_path / "test-images.idx"),
            "test_labels": str(tmp_path / "test-labels.idx"),
        },
        "system": {"mode": "direct-permutation", "branches": [2],
                   "master_key": MASTER.to_hex()},
        "arch": {"hidden": [16]},
        "train": {"learning_rate": 0.005, "batch_size": 32, "epochs": 2},
        "attacks": [
            {"kind": "fgsm", "eps": 0.1},
            {"kind": "pgd-linf", "eps": 0.1, "alpha": 0.05, "steps": 5},
        ],
        "eval": {"limit": 100},
    }))
    artifacts = ("system-i2.rdiv", "surrogate.rdiv", "adv-fgsm.radv",
                 "adv-pgd-linf.radv", "report.csv")
    runs = []
    for run_dir in (tmp_path / "run-a", tmp_path / "run-b"):
        for command in ("train", "surrogate", "attack", "report"):
            code = cli.main([command, "--config", str(config_path),
                             "--out", str(run_dir)])
            assert code == 0, f"{command} failed in {run_dir}"
        runs.append({name: (run_dir / name).read_bytes() for name in artifacts})
    mismatched = [name for name in artifacts if runs[0][name] != runs[1][name]]
    _report(4, "determinism", not mismatched,
            "all artifacts byte-identical across runs" if not mismatched
            else f"mismatch: {', '.join(mismatched)}")


def test_criterion_05_baseline_competence(surrogate):
    _, elapsed, clean_pct, _ = surrogate
    ok = clean_pct <= 8.0 and elapsed < 300.0
    _report(5, "baseline-competence", ok,
            f"clean error {clean_pct:.2f}% on first {LIMIT}, "
            f"trained in {elapsed:.1f}s")


def test_criterion_06_attack_competence(surrogate, test_slice):
    params, _, _, preds = surrogate
    correct = np.flatnonzero(preds == test_slice.labels)
    assert correct.size >= 100, "surrogate too weak to pick 100 correct samples"
    chosen = correct[:100]
    subset = replace(test_slice, images=test_slice.images[chosen],
                     labels=test_slice.labels[chosen])
    cw = craft_adv_set(params, subset,
                       AttackConfig("cw-l2", c=1.0, iterations=200, step_size=1e-2))
    cw_pct = float((cw.preds_after != subset.labels).mean() * 100.0)

    pgd = craft_adv_set(params, test_slice,
                        AttackConfig("pgd-linf", eps=0.3, alpha=0.02, steps=40))
    pgd_pct = pgd.surrogate_success_pct
    ok = cw_pct >= 90.0 and pgd_pct >= 50.0
    _report(6, "attack-competence", ok,
            f"cw-l2 success {cw_pct:.1f}% of 100, pgd eps=0.3 error {pgd_pct:.1f}%")


def error_pct(system, images, labels) -> float:
    return decision_errors(classify_batch(system, images), labels) / len(labels) * 100.0


def test_criterion_07_defense_trend(perm_systems, cw_full, test_slice):
    errs = {i: error_pct(perm_systems[i], cw_full.adversarials, cw_full.labels)
            for i in (1, 5, 10)}
    monotone = errs[5] <= errs[1] + 1.0 and errs[10] <= errs[5] + 1.0
    clean10 = error_pct(perm_systems[10], test_slice.images, test_slice.labels)
    gap = errs[10] - clean10
    ok = monotone and gap <= 5.0
    _report(7, "defense-trend", ok,
            f"adv error I=1/5/10: {errs[1]:.2f}/{errs[5]:.2f}/{errs[10]:.2f}%, "
            f"I=10 adv-clean gap {gap:.2f}pp")


def test_criterion_08_defense_gap(perm_systems, cw_full, surrogate):
    import rdiv.attacks as attacks

    rescored = attacks.rescore_adv_set(cw_full, surrogate[0])
    surrogate_pct = rescored.surrogate_success_pct
    defended_pct = error_pct(perm_systems[5], cw_full.adversarials, cw_full.labels)
    gap = surrogate_pct - defended_pct
    ok = gap >= 20.0
    _report(8, "defense-gap", ok,
            f"surrogate {surrogate_pct:.2f}% vs defended I=5 {defended_pct:.2f}%, "
            f"gap {gap:.2f}pp")


def test_criterion_09_key_mismatch_collapse(perm_systems, test_slice):
    mismatched = rebuild_preprocessors(perm_systems[5], WRONG_KEY)
    decisions = classify_batch(mismatched, test_slice.images)
    hits = int((decisions == test_slice.labels).sum())
    pvalue = binomtest(hits, n=LIMIT, p=0.1).pvalue
    ok = pvalue >= 0.01
    _report(9, "key-mismatch-collapse", ok,
            f"wrong-key accuracy {hits}/{LIMIT}, binomial p={pvalue:.3f} "
            f"vs 10% chance")


def test_criterion_10_mode_coverage(band_systems, test_slice, surrogate):
    clean_surrogate = surrogate[2]
    details = []
    ok = True
    for mode, system in band_systems.items():
        clean = error_pct(system, test_slice.images, test_slice.labels)
        details.append(f"{mode} {clean:.2f}%")
        ok = ok and abs(clean - clean_surrogate) <= 3.0
    _report(10, "mode-coverage", ok,
            f"{', '.join(details)} vs surrogate {clean_surrogate:.2f}%")


def test_criterion_11_format_fidelity(dataset_paths, tmp_path):
    pixels, labels = make_dataset(4, seed=33)
    good_images, good_labels = write_idx(tmp_path, "t", pixels, labels)
    corrupt = bytearray(good_images.read_bytes())
    corrupt[2] ^= 0xFF
    bad_path = tmp_path / "bad-images.idx"
    bad_path.write_bytes(bytes(corrupt))
    idx_rejected = False
    try:
        load_idx(bad_path, good_labels)
    except DatasetFormatError:
        idx_rejected = True

    batch = tmp_path / "data_batch_1.bin"
    batch.write_bytes(struct.pack("B", 3) + bytes(3000))  # short of 3073
    cifar_rejected = False
    try:
        load_cifar10([batch])
    except DatasetFormatError:
        cifar_rejected = True

    first = load_idx(dataset_paths["test_images"], dataset_paths["test_labels"])
    second = load_idx(dataset_paths["test_images"], dataset_paths["test_labels"])
    stable = (np.array_equal(take_first(first, LIMIT).images,
                             take_first(second, LIMIT).images)
              and np.array_equal(take_first(first, LIMIT).labels,
                                 take_first(second, LIMIT).labels))
    ok = idx_rejected and cifar_rejected and stable
    _report(11, "format-fidelity", ok,
            f"idx header rejected: {idx_rejected}, cifar length rejected: "
            f"{cifar_rejected}, first-{LIMIT} slice stable: {stable}")
