"""White-box attacks on a surrogate classifier and gray-box transfer runs.

The threat model: the attacker knows the architecture and training data but
not the secret key. Adversarial examples are crafted against a keyless
surrogate and then replayed against the keyed system.

Attack kinds:
  fgsm      - one signed-gradient step of size eps
  pgd-linf  - iterated signed steps, projected into the eps ball each step
  cw-l2     - margin loss plus squared l2 penalty, optimized in tanh space
              with a fixed trade-off constant

All pixel values live in [0, 1]; every crafted image is clamped there.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .dataio import LabeledSet, take_first
from .nn import (
    ArchSpec,
    Hyper,
    ModelParams,
    backward_from_logits,
    batch_loss_and_grads,
    check_labels,
    forward,
    init_params,
    logits_and_cache,
    train,
)
from .rng import TAG_INIT, TAG_SHUFFLE, MasterKey, derive_subkey
from .system import SystemSpec, error_count

logger = logging.getLogger(__name__)

ATTACK_KINDS = ("fgsm", "pgd-linf", "cw-l2")

# Keeps arctanh finite at pixel values 0 and 1.
_TANH_CLIP = 1.0 - 1e-6


@dataclass(frozen=True)
class AttackConfig:
    """Parameters for one attack run. Unused fields are ignored per kind."""

    kind: str
    eps: float = 0.1          # fgsm / pgd-linf budget
    alpha: float = 0.01      # pgd-linf step size
    steps: int = 40          # pgd-linf iterations
    c: float = 1.0           # cw-l2 margin weight
    iterations: int = 200    # cw-l2 optimizer iterations
    step_size: float = 1e-2  # cw-l2 optimizer learning rate
    kappa: float = 0.0       # cw-l2 confidence margin
    targeted: bool = False
    target: int = 0

    def __post_init__(self):
        if self.kind not in ATTACK_KINDS:
            raise ValueError(f"unknown attack kind {self.kind!r}")
        if self.eps < 0:
            raise ValueError("eps must be >= 0")
        if self.alpha <= 0 or self.steps < 1:
            raise ValueError("pgd needs alpha > 0 and steps >= 1")
        if self.c <= 0 or self.iterations < 1 or self.step_size <= 0:
            raise ValueError("cw needs c > 0, iterations >= 1, step_size > 0")
        if self.kappa < 0:
            raise ValueError("kappa must be >= 0")
        # bool is an int subclass, so YAML's `true` must be ruled out by name.
        if isinstance(self.target, bool) or not isinstance(self.target, int) \
                or self.target < 0:
            raise ValueError(f"target must be a non-negative int, got {self.target!r}")


@dataclass(frozen=True)
class AdvSet:
    """Adversarial examples with their provenance, in crafting order.

    Surrogate predictions are filled when crafting; sets read back from disk
    carry None there until rescored against a model.
    """

    config: AttackConfig
    indices: np.ndarray        # (B,) positions in the source test set
    labels: np.ndarray         # (B,) true labels
    originals: np.ndarray      # (B, N, N, m) float32
    adversarials: np.ndarray   # (B, N, N, m) float32
    preds_before: np.ndarray | None = None  # (B,) surrogate argmax on originals
    preds_after: np.ndarray | None = None   # (B,) surrogate argmax on adversarials

    def __post_init__(self):
        count = len(self.indices)
        for field in (self.labels, self.originals, self.adversarials,
                      self.preds_before, self.preds_after):
            if field is not None and len(field) != count:
                raise ValueError("adversarial set field lengths disagree")
        if self.originals.shape != self.adversarials.shape:
            raise ValueError("original and adversarial shapes disagree")

    def __len__(self) -> int:
        return len(self.indices)

    @property
    def surrogate_success_pct(self) -> float:
        """Share of samples the surrogate now misclassifies, in percent."""
        if self.preds_after is None:
            raise ValueError("adversarial set has no surrogate predictions; "
                             "rescore it against a model first")
        return float(np.mean(self.preds_after != self.labels) * 100.0)


def rescore_adv_set(adv: AdvSet, params: ModelParams) -> AdvSet:
    """Fill the surrogate prediction fields by running `params` on the set."""
    shape = (len(adv), params.arch.input_dim)
    before = forward(params, adv.originals.reshape(shape)).argmax(axis=1)
    after = forward(params, adv.adversarials.reshape(shape)).argmax(axis=1)
    return replace(adv, preds_before=before.astype(np.int64),
                   preds_after=after.astype(np.int64))


def train_surrogate(trainset: LabeledSet, arch: ArchSpec, hyper: Hyper,
                    master: MasterKey) -> ModelParams:
    """Train the keyless baseline classifier the attacker optimizes against.

    Uses the (0, 0) lineage, so it coincides with the single channel of an
    identity-mode system built from the same master key.
    """
    params = init_params(arch, derive_subkey(master, 0, 0, TAG_INIT))
    flat = trainset.images.reshape(len(trainset), arch.input_dim)
    return train(params, (flat, trainset.labels), hyper,
                 derive_subkey(master, 0, 0, TAG_SHUFFLE))


def _input_grads(params: ModelParams, images: np.ndarray,
                 labels: np.ndarray) -> np.ndarray:
    flat = images.reshape(len(images), params.arch.input_dim)
    _, _, _, dx = batch_loss_and_grads(params, flat, labels, wrt="input")
    return dx.reshape(images.shape)


def fgsm_batch(params: ModelParams, images: np.ndarray,
               labels: np.ndarray, eps: float) -> np.ndarray:
    """One signed loss-gradient step per image, clamped to [0, 1]."""
    grads = _input_grads(params, images, labels)
    return np.clip(images + eps * np.sign(grads), 0.0, 1.0).astype(np.float32)


def pgd_linf_batch(params: ModelParams, images: np.ndarray, labels: np.ndarray,
                   eps: float, alpha: float, steps: int) -> np.ndarray:
    """Iterated signed steps projected into the eps-ball around each image.

    Starts at the clean image, so steps=1 with alpha=eps reproduces fgsm.
    """
    low = np.maximum(images - eps, 0.0)
    high = np.minimum(images + eps, 1.0)
    adv = images.copy()
    for _ in range(steps):
        grads = _input_grads(params, adv, labels)
        adv = np.clip(adv + alpha * np.sign(grads), low, high)
    return adv.astype(np.float32)


def _margin_and_seed(logits: np.ndarray, labels: np.ndarray, kappa: float,
                     targeted: bool, target: int):
    """Margin value per sample plus the logit-space gradient seed.

    Untargeted: margin = max(Z_y - max_{t != y} Z_t + kappa, 0); driving it
    to zero pushes some wrong class above the true one by kappa. Targeted
    swaps the roles so the chosen class must win by kappa.
    """
    batch, classes = logits.shape
    rows = np.arange(batch)
    if targeted:
        keep = logits.copy()
        keep[rows, target] = -np.inf
        rival = keep.argmax(axis=1)
        raw = keep[rows, rival] - logits[:, target] + kappa
        up, down = rival, target
    else:
        keep = logits.copy()
        keep[rows, labels] = -np.inf
        rival = keep.argmax(axis=1)
        raw = logits[rows, labels] - keep[rows, rival] + kappa
        up, down = labels, rival
    margin = np.maximum(raw, 0.0)
    seed = np.zeros_like(logits)
    active = raw > 0
    seed[rows[active], np.broadcast_to(up, (batch,))[active]] = 1.0
    seed[rows[active], np.broadcast_to(down, (batch,))[active]] = -1.0
    return margin, seed


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


def cw_l2_batch(params: ModelParams, images: np.ndarray, labels: np.ndarray,
                config: AttackConfig) -> np.ndarray:
    """Minimize ||delta||_2^2 + c * margin in tanh space with Adam.

    Keeps the successful iterate with the smallest perturbation norm per
    sample; samples that never cross the margin come back unchanged. An
    input that already satisfies the margin is its own best answer (norm 0).
    Labels, and the target of a targeted run, must be classes of `params`.
    """
    batch = images.shape[0]
    flat_dim = params.arch.input_dim
    classes = params.arch.classes
    labels = check_labels(labels, batch, classes)
    if config.targeted and config.target >= classes:
        raise ValueError(f"target {config.target} is not in [0, {classes})")
    x = images.reshape(batch, flat_dim).astype(np.float64)
    w = np.arctanh((2.0 * x - 1.0) * _TANH_CLIP)
    work = params.astype(np.float64)

    best_norm2 = np.full(batch, np.inf)
    best = x.copy()

    m = np.zeros_like(w)
    v = np.zeros_like(w)
    # Each iterate is written into these; `tmp` and `step` hold temporaries.
    tanh_w, adv, delta, dw, tmp, step = (np.empty_like(w) for _ in range(6))

    def consider(candidate: np.ndarray, diff: np.ndarray, logits: np.ndarray) -> None:
        """Keep `candidate` (= x + diff) where it succeeds with a smaller norm."""
        ok = _attack_succeeded(logits, labels, config)
        norm2 = np.sum(diff ** 2, axis=1)
        better = ok & (norm2 < best_norm2)
        best_norm2[better] = norm2[better]
        best[better] = candidate[better]

    delta.fill(0.0)
    consider(x, delta, logits_and_cache(work, x)[0])
    # Pass `iterations + 1` only scores the last iterate: each pass scores
    # the iterate the previous one produced, with the logits its gradient
    # step needs anyway, so no iterate runs its forward pass twice.
    for it in range(1, config.iterations + 2):
        # adv = (tanh(w) + 1) / 2; delta = adv - x
        np.tanh(w, out=tanh_w)
        np.add(tanh_w, 1.0, out=adv)
        adv /= 2.0
        np.subtract(adv, x, out=delta)
        logits, cache = logits_and_cache(work, adv)
        if it > 1:
            consider(adv, delta, logits)
        if it > config.iterations:
            break
        _, seed = _margin_and_seed(logits, labels, config.kappa,
                                   config.targeted, config.target)
        _, _, dadv = backward_from_logits(work, cache, config.c * seed, wrt="input")
        # dw = (dadv + 2 * delta) * (1 - tanh_w ** 2) / 2
        np.multiply(2.0, delta, out=tmp)
        dadv += tmp
        np.square(tanh_w, out=tmp)
        np.subtract(1.0, tmp, out=tmp)
        np.multiply(dadv, tmp, out=dw)
        dw /= 2.0
        # m = 0.9 * m + 0.1 * dw
        m *= 0.9
        np.multiply(0.1, dw, out=tmp)
        m += tmp
        # v = 0.999 * v + 0.001 * dw ** 2
        v *= 0.999
        np.square(dw, out=tmp)
        tmp *= 0.001
        v += tmp
        # w -= step_size * (m / (1 - 0.9 ** it)) / (sqrt(v / (1 - 0.999 ** it)) + 1e-8)
        np.divide(v, 1.0 - 0.999 ** it, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += 1e-8
        np.divide(m, 1.0 - 0.9 ** it, out=step)
        step *= config.step_size
        step /= tmp
        w -= step

    found = np.isfinite(best_norm2)
    logger.debug("cw-l2: %d/%d samples attacked successfully",
                 int(found.sum()), batch)
    return best.reshape(images.shape).astype(np.float32)


def craft_adv_set(params: ModelParams, dataset: LabeledSet,
                  config: AttackConfig) -> AdvSet:
    """Run the configured attack over a whole dataset against `params`."""
    images = dataset.images
    labels = dataset.labels
    if config.kind == "fgsm":
        adv = fgsm_batch(params, images, labels, config.eps)
    elif config.kind == "pgd-linf":
        adv = pgd_linf_batch(params, images, labels, config.eps,
                             config.alpha, config.steps)
    else:
        adv = cw_l2_batch(params, images, labels, config)
    batch = len(dataset)
    flat = (batch, params.arch.input_dim)
    preds_before = forward(params, images.reshape(flat)).argmax(axis=1)
    preds_after = forward(params, adv.reshape(flat)).argmax(axis=1)
    return AdvSet(config, np.arange(batch, dtype=np.int64), labels.copy(),
                  images.copy(), adv, preds_before.astype(np.int64),
                  preds_after.astype(np.int64))


def transfer_eval(system: SystemSpec, surrogate: ModelParams,
                  testset: LabeledSet, config: AttackConfig, limit: int,
                  adv: AdvSet | None = None) -> tuple[float, float, float, AdvSet]:
    """Gray-box run: craft on the surrogate, score the keyed system.

    Returns (clean error, adversarial error, surrogate adversarial error),
    all in percent over the first `limit` test samples, plus the adversarial
    set so callers can reuse it instead of re-crafting.
    """
    subset = take_first(testset, limit)
    if adv is None:
        adv = craft_adv_set(surrogate, subset, config)
    elif len(adv) != limit:
        raise ValueError(f"adversarial set has {len(adv)} samples, need {limit}")
    # errors / limit * 100.0, in this order, equals the mean of the error
    # indicator times 100 bit for bit; 100.0 * errors / limit does not.
    clean = error_count(system, subset.images, subset.labels) / limit * 100.0
    attacked = error_count(system, adv.adversarials, adv.labels) / limit * 100.0
    return clean, attacked, adv.surrogate_success_pct, adv
