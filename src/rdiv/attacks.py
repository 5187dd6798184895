"""White-box attacks on a surrogate classifier and gray-box transfer runs.

The threat model: the attacker knows the architecture and training data but
not the secret key. Adversarial examples are crafted against a surrogate
with no keyed transform and then replayed against the keyed system. The
surrogate is trained under the defender's master key, though, so its
initial weights and batch order are those of the defender's channel (0, 0):
the attacker does not yet hold a key of their own.

Attack kinds (`ATTACK_FIELDS` lists the settings each one takes):
  fgsm      - one signed-gradient step of size eps: pgd-linf with one step
              of size alpha = eps
  pgd-linf  - iterated signed steps, projected into the eps ball each step
  cw-l2     - margin loss plus squared l2 penalty, optimized in tanh space
              with a fixed trade-off constant; targeted when given a target

All pixel values live in [0, 1]: the attacks refuse input pixels outside
that range or not finite, and every crafted image is clamped there.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, fields, replace

import numpy as np

from .dataio import LabeledSet, take_first
from .nn import (
    ArchSpec,
    Hyper,
    ModelParams,
    adam_block,
    adam_scalars,
    backward_from_logits,
    batch_loss_and_grads,
    forward,
    logits_and_cache,
    require_count,
    require_indices,
    require_number,
)
from .rng import MasterKey
from .system import SystemSpec, build_system, classify_batch, decision_errors, train_system

logger = logging.getLogger(__name__)

# Each attack kind's settings. A kind's file byte is its index, so new kinds go last.
ATTACK_FIELDS = {
    "fgsm": ("eps",),
    "pgd-linf": ("eps", "alpha", "steps"),
    "cw-l2": ("c", "iterations", "step_size", "kappa", "target"),
}
ATTACK_KINDS = tuple(ATTACK_FIELDS)

# Keeps arctanh finite at pixel values 0 and 1.
_TANH_CLIP = 1.0 - 1e-6

# Elements per row chunk of a CW-l2 run: 2 MiB per float64 array of one
# chunk (see `cw_l2_batch`).
_CHUNK = 1 << 18
# Elements per row block of the CW-l2 sweep within a chunk (see `_cw_chunk`).
_BLOCK = 1 << 15


@dataclass(frozen=True)
class AttackConfig:
    """Parameters for one attack run.

    Every value is checked first. Then a field that `ATTACK_FIELDS` does
    not list for the kind is refused unless it keeps its default.
    """

    kind: str
    eps: float = 0.1          # fgsm / pgd-linf budget
    alpha: float = 0.01      # pgd-linf step size
    steps: int = 40          # pgd-linf iterations
    c: float = 1.0           # cw-l2 margin weight
    iterations: int = 200    # cw-l2 optimizer iterations
    step_size: float = 1e-2  # cw-l2 optimizer learning rate
    kappa: float = 0.0       # cw-l2 confidence margin
    target: int | None = None  # cw-l2 target class; None runs untargeted

    def __post_init__(self):
        if self.kind not in ATTACK_FIELDS:
            raise ValueError(f"unknown attack kind {self.kind!r}")
        for name in ("eps", "kappa"):
            require_number(getattr(self, name), name)
        for name in ("alpha", "c", "step_size"):
            require_number(getattr(self, name), name, positive=True)
        for name in ("steps", "iterations"):
            require_count(getattr(self, name), name)
        if self.target is not None:
            require_count(self.target, "target", minimum=0)
        for field in fields(self)[1:]:
            if (field.name not in ATTACK_FIELDS[self.kind]
                    and getattr(self, field.name) != field.default):
                raise ValueError(f"{self.kind} takes no {field.name}")


@dataclass(frozen=True)
class AdvSet:
    """Adversarial examples with their provenance, in crafting order.

    The surrogate's predictions on the adversarials are filled when
    crafting; sets read back from disk carry None there until rescored
    against a model.
    """

    config: AttackConfig
    indices: np.ndarray        # (B,) positions in the source test set
    labels: np.ndarray         # (B,) true labels
    originals: np.ndarray      # (B, N, N, m) float32
    adversarials: np.ndarray   # (B, N, N, m) float32
    preds_after: np.ndarray | None = None  # (B,) surrogate argmax on adversarials

    def __post_init__(self):
        count = len(self.indices)
        for field in (self.labels, self.originals, self.adversarials,
                      self.preds_after):
            if field is not None and len(field) != count:
                raise ValueError("adversarial set field lengths disagree")
        if self.originals.shape != self.adversarials.shape:
            raise ValueError("original and adversarial shapes disagree")

    def __len__(self) -> int:
        return len(self.indices)

    @property
    def surrogate_success_pct(self) -> float:
        """Share of samples the surrogate now misclassifies, in percent.

        An empty set has none, so it reads 0.0.
        """
        if self.preds_after is None:
            raise ValueError("adversarial set has no surrogate predictions; "
                             "rescore it against a model first")
        if len(self) == 0:
            return 0.0
        # In this order, bit for bit the error indicator's mean times 100.
        return decision_errors(self.preds_after, self.labels) / len(self) * 100.0


def rescore_adv_set(adv: AdvSet, params: ModelParams) -> AdvSet:
    """Fill the surrogate predictions by running `params` on the adversarials."""
    shape = (len(adv), params.arch.input_dim)
    after = forward(params, adv.adversarials.reshape(shape)).argmax(axis=1)
    return replace(adv, preds_after=after.astype(np.int64))


def train_surrogate(trainset: LabeledSet, arch: ArchSpec, hyper: Hyper,
                    master: MasterKey) -> ModelParams:
    """Train the baseline classifier the attacker optimizes against.

    It is the single channel of an identity-mode I=1 system trained under
    `master`. Given the defender's master key, as the CLI passes it, that
    channel's init and shuffle keys are those of the defender's channel
    (0, 0); only the keyed transform is missing.
    """
    system = build_system("identity", master, 1, 1, arch, trainset.size,
                          trainset.colors)
    return train_system(system, trainset, hyper).channels[0].params


def _check_pixels(images: np.ndarray) -> None:
    """Refuse a batch with a pixel outside [0, 1]; NaN fails both tests."""
    if images.size and not (images.min() >= 0.0 and images.max() <= 1.0):
        raise ValueError("attack input pixels must be finite and in [0, 1]")


def _input_grads(params: ModelParams, images: np.ndarray,
                 labels: np.ndarray) -> np.ndarray:
    flat = images.reshape(len(images), params.arch.input_dim)
    _, _, _, dx = batch_loss_and_grads(params, flat, labels, wrt="input")
    return dx.reshape(images.shape)


def fgsm_batch(params: ModelParams, images: np.ndarray,
               labels: np.ndarray, eps: float) -> np.ndarray:
    """One signed loss-gradient step per image, clamped to [0, 1].

    This is one pgd-linf step of size eps: for images in [0, 1], the eps-box
    clip keeps exactly what the [0, 1] clip keeps.
    """
    return pgd_linf_batch(params, images, labels, eps, eps, 1)


def pgd_linf_batch(params: ModelParams, images: np.ndarray, labels: np.ndarray,
                   eps: float, alpha: float, steps: int) -> np.ndarray:
    """Iterated signed steps projected into the eps-ball around each image.

    Starts at the clean image, so steps=1 with alpha=eps reproduces fgsm.
    """
    require_number(eps, "eps")
    require_number(alpha, "alpha")
    require_count(steps, "steps")
    labels = require_indices(labels, "labels", len(images), params.arch.classes)
    _check_pixels(images)
    low = np.maximum(images - eps, 0.0)
    high = np.minimum(images + eps, 1.0)
    adv = images.copy()
    step = np.empty_like(adv)
    for _ in range(steps):
        grads = _input_grads(params, adv, labels)
        # adv = clip(adv + alpha * sign(grads), low, high)
        # np.sign writes into `step`, not into `grads`: in place it ran
        # several times slower on mixed-sign float32 data.
        np.sign(grads, out=step)
        # The next step's gradient pass runs without this one.
        del grads
        step *= alpha
        step += adv
        np.maximum(step, low, out=step)
        np.minimum(step, high, out=adv)
    return adv.astype(np.float32, copy=False)


def _margin_and_seed(logits: np.ndarray, labels: np.ndarray, kappa: float,
                     target: int | None):
    """Raw margin per sample plus the logit-space gradient seed.

    Untargeted: margin = Z_y - max_{t != y} Z_t + kappa; it is negative once
    some wrong class beats the true one by more than kappa, which is success.
    A `target` swaps the roles so that class must win by more than kappa.
    The loss is max(margin, 0), so only positive margins seed a gradient.
    """
    batch = logits.shape[0]
    rows = np.arange(batch)
    own = labels if target is None else np.broadcast_to(target, (batch,))
    keep = logits.copy()
    keep[rows, own] = -np.inf
    rival = keep.argmax(axis=1)
    gap = logits[rows, own] - keep[rows, rival]
    # fl(a - b) == -fl(b - a), so negating the gap is exact.
    raw = (gap if target is None else -gap) + kappa
    up, down = (own, rival) if target is None else (rival, own)
    seed = np.zeros_like(logits)
    active = raw > 0
    seed[rows[active], up[active]] = 1.0
    seed[rows[active], down[active]] = -1.0
    return raw, seed


def cw_l2_batch(params: ModelParams, images: np.ndarray, labels: np.ndarray,
                config: AttackConfig) -> np.ndarray:
    """Minimize ||delta||_2^2 + c * margin in tanh space with Adam.

    Keeps the successful iterate with the smallest perturbation norm per
    sample; samples that never cross the margin come back unchanged. An
    input that already satisfies the margin is its own best answer (norm 0).
    Labels, and the target of a targeted run, must be classes of `params`.

    Every row is optimized on its own, so the batch runs in consecutive
    chunks of at most `_CHUNK` elements (334 MNIST rows, 85 CIFAR rows) and
    of even size, and only the float32 best answers are the size of the
    batch. The float64 state of one chunk, `w`, both Adam moments, `tanh(w)`
    and the iterate, is allocated once and reused by every chunk. With one
    input gradient, the forward pass's temporaries and the float64 params,
    the rest of the peak is about eight chunk-sized arrays, 16 MiB at MNIST
    width whatever the batch size. The images stay in the caller's dtype
    and are widened to float64 a row block at a time. Even sizes keep every
    chunk of a multi-chunk batch above a few rows (`_row_chunks`); at that
    size only the logits' last bits can depend on how many rows share a
    product, and the logits only decide a margin's sign and the rival
    class, so the result is that of the whole batch at once unless such a
    decision ties to the last bit.
    """
    batch = images.shape[0]
    flat_dim = params.arch.input_dim
    classes = params.arch.classes
    labels = require_indices(labels, "labels", batch, classes)
    if config.target is not None and config.target >= classes:
        raise ValueError(f"target {config.target} is not in [0, {classes})")
    _check_pixels(images)
    x = images.reshape(batch, flat_dim)
    work = params.astype(np.float64)
    # The best answers are returned as float32, so they are kept as float32.
    best = x.astype(np.float32)
    rows = min(max(1, _CHUNK // flat_dim), batch)
    state = np.empty((5, rows, flat_dim))
    norms = np.empty((2, rows))
    found = 0
    for chunk in _row_chunks(batch, rows):
        found += _cw_chunk(work, x[chunk], labels[chunk], config, best[chunk],
                           state, norms)
    logger.debug("cw-l2: %d/%d samples attacked successfully", found, batch)
    return best.reshape(images.shape)


def _row_chunks(batch: int, rows: int) -> list[slice]:
    """The fewest consecutive slices of at most `rows` rows that cover
    `batch` rows, their sizes differing by at most one.

    Even sizes leave no ragged tail of a row or two: BLAS multiplies one row
    through a matrix-vector path, and a few rows through a small-matrix
    kernel, whose float64 bits differ from those of a larger product.
    """
    count = -(-batch // rows) if batch else 0
    starts = [batch * k // count for k in range(count)]
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [batch])]


def _cw_chunk(work: ModelParams, x: np.ndarray, labels: np.ndarray,
              config: AttackConfig, best: np.ndarray, state: np.ndarray,
              norms: np.ndarray) -> int:
    """Run CW-l2 on the rows `x`, writing their best answers into `best`.

    `state` holds room for the float64 `w`, Adam moments, `tanh(w)` and
    iterate, and `norms` for two norms per row, of at least `len(x)` rows;
    only the first `len(x)` rows are used, and all are reset here. The
    forward and backward passes run on all rows at once; everything else
    in an iteration runs in one sweep over row blocks of about `_BLOCK`
    elements, so each block stays in cache while every formula passes over
    it. Each formula is elementwise or per row, so the result is bitwise
    that of the textbook formulas in the comments. Returns the number of
    rows with a successful answer.
    """
    batch, flat_dim = x.shape
    # norm2 is ||adv - x||^2 of the current iterate, per row.
    norm2, best_norm2 = norms[:, :batch]
    best_norm2.fill(np.inf)
    w, m, v, tanh_w, adv = state[:, :batch]
    m.fill(0.0)
    v.fill(0.0)
    rows = max(1, _BLOCK // flat_dim)
    blocks = [slice(start, min(start + rows, batch)) for start in range(0, batch, rows)]
    # Block-sized scratch; the last block may use only the first rows.
    tmp, step, x_block = (np.empty((min(rows, batch), flat_dim)) for _ in range(3))

    def scratch(b: slice) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Scratch views for rows `b`; the last holds x[b] in float64."""
        count = b.stop - b.start
        xb = x_block[:count]
        np.copyto(xb, x[b])
        return tmp[:count], step[:count], xb

    def next_iterate(b: slice, t: np.ndarray, xb: np.ndarray) -> None:
        """adv = (tanh(w) + 1) / 2 and norm2 = sum((adv - x) ** 2) on rows `b`."""
        np.tanh(w[b], out=tanh_w[b])
        np.add(tanh_w[b], 1.0, out=adv[b])
        adv[b] *= 0.5
        np.subtract(adv[b], xb, out=t)
        np.square(t, out=t)
        np.sum(t, axis=1, out=norm2[b])

    def keep_better(margin: np.ndarray) -> np.ndarray:
        """Rows where `adv` succeeds with a smaller norm than the best so far."""
        better = (margin < 0) & (norm2 < best_norm2)
        best_norm2[better] = norm2[better]
        return better[:, None]

    for b in blocks:
        t, _, xb = scratch(b)
        # w = arctanh((2 * x - 1) * _TANH_CLIP)
        np.multiply(2.0, xb, out=t)
        t -= 1.0
        t *= _TANH_CLIP
        np.arctanh(t, out=w[b])
        next_iterate(b, t, xb)
    # The starting iterate is never a candidate: it lies within about 5e-7
    # of x, so keeping it could put a near-zero norm where x just misses.
    norm2.fill(np.inf)

    # The clean input has norm 0, so it is kept wherever it already succeeds.
    margin, _ = _margin_and_seed(logits_and_cache(work, x)[0], labels, config.kappa,
                                 config.target)
    best_norm2[margin < 0] = 0.0
    # Pass `iterations + 1` only scores the last iterate: each pass scores
    # the iterate the previous one produced, with the logits its gradient
    # step needs anyway, so no iterate runs its forward pass twice.
    for it in range(1, config.iterations + 2):
        logits, cache = logits_and_cache(work, adv)
        margin, seed = _margin_and_seed(logits, labels, config.kappa, config.target)
        better = keep_better(margin)
        if it > config.iterations:
            np.copyto(best, adv, where=better)
            break
        _, _, dadv = backward_from_logits(work, cache, config.c * seed, wrt="input")
        scalars = adam_scalars(w.dtype, it, config.step_size)
        for b in blocks:
            np.copyto(best[b], adv[b], where=better[b])
            t, s, xb = scratch(b)
            dw = dadv[b]
            # dw = (dadv + 2 * (adv - x)) * (1 - tanh_w ** 2) / 2, built in `dadv`
            np.subtract(adv[b], xb, out=t)
            np.multiply(2.0, t, out=t)
            dw += t
            np.square(tanh_w[b], out=t)
            np.subtract(1.0, t, out=t)
            dw *= t
            dw *= 0.5
            # One Adam step on w, at learning rate step_size.
            adam_block(w[b], dw, m[b], v[b], t, s, scalars)
            next_iterate(b, t, xb)
        # The next forward and backward passes run without this pass's cache
        # and gradient.
        del cache, dadv, dw

    return int(np.isfinite(best_norm2).sum())


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
    return rescore_adv_set(AdvSet(config, np.arange(len(dataset), dtype=np.int64),
                                  labels.copy(), images.copy(), adv), params)


def check_adv_set(adv: AdvSet, config: AttackConfig, subset: LabeledSet) -> None:
    """Refuse `adv` unless crafted under `config` from `subset`'s images and labels."""
    if adv.config != config:
        raise ValueError(f"adversarial set was crafted with {adv.config}, not {config}")
    if len(adv) != len(subset):
        raise ValueError(f"adversarial set has {len(adv)} samples, need {len(subset)}")
    if not (np.array_equal(adv.originals, subset.images)
            and np.array_equal(adv.labels, subset.labels)):
        raise ValueError(f"adversarial set was not crafted from the first {len(subset)} "
                         "test samples")


def transfer_eval(system: SystemSpec, surrogate: ModelParams,
                  testset: LabeledSet, config: AttackConfig, limit: int,
                  adv: AdvSet | None = None) -> tuple[float, float, float, AdvSet]:
    """Gray-box run: craft on the surrogate, score the keyed system.

    Returns (clean error, adversarial error, surrogate adversarial error),
    all in percent over the first `limit` test samples, plus the adversarial
    set so callers can reuse it instead of re-crafting. A given `adv` must
    have been crafted under `config` from those samples.
    """
    subset = take_first(testset, require_count(limit, "limit"))
    if adv is None:
        adv = craft_adv_set(surrogate, subset, config)
    else:
        check_adv_set(adv, config, subset)
    # errors / limit * 100.0, in this order, equals the mean of the error
    # indicator times 100 bit for bit; 100.0 * errors / limit does not.
    clean = decision_errors(classify_batch(system, subset.images), subset.labels)
    attacked = decision_errors(classify_batch(system, adv.adversarials), adv.labels)
    return clean / limit * 100.0, attacked / limit * 100.0, adv.surrogate_success_pct, adv
