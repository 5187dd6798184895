"""Minimal differentiable classifier.

A small feed-forward stack (dense / ReLU / softmax output) with hand-rolled
reverse-mode gradients, enough to train per-channel classifiers and to give
attack code exact gradients with respect to inputs. Everything is a pure
function over explicit parameter containers; the only randomness is the
keyed stream used for initialization and shuffling, so training is a
deterministic function of (arch, data, hyper, key).

Parameters and activations are float32. All functions follow the dtype of
the parameters they are given, which lets verification code rerun the same
graph in float64.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .rng import RngState, SubKey, fisher_yates, skip, uniform_floats

logger = logging.getLogger(__name__)

LAYER_KINDS = ("dense", "relu", "softmax-output")


@dataclass(frozen=True)
class ArchSpec:
    """Layer stack over flattened inputs.

    `layers` entries are (kind, dims): dense carries (fan_in, fan_out), the
    other kinds carry no dims. The stack must start with a dense layer, end
    with softmax-output, and chain dimensions in between. The dense start is
    what lets `system.predict_batch` fold each channel's linear keyed
    transform into the first weights.
    """

    input_dim: int
    layers: tuple[tuple[str, tuple[int, ...]], ...]

    def __post_init__(self):
        if self.input_dim < 1:
            raise ValueError("input_dim must be positive")
        if not self.layers or self.layers[-1][0] != "softmax-output":
            raise ValueError("arch must end with a softmax-output layer")
        width = self.input_dim
        for pos, (kind, dims) in enumerate(self.layers):
            if kind not in LAYER_KINDS:
                raise ValueError(f"unknown layer kind {kind!r}")
            if kind == "dense":
                fan_in, fan_out = dims
                if fan_in != width:
                    raise ValueError(f"layer {pos}: expected fan_in {width}, got {fan_in}")
                width = fan_out
            elif dims:
                raise ValueError(f"layer {pos}: {kind} takes no dims")
            if kind == "softmax-output" and pos != len(self.layers) - 1:
                raise ValueError("softmax-output must be the final layer")
        if self.layers[0][0] != "dense":
            raise ValueError("arch must start with a dense layer")

    @property
    def classes(self) -> int:
        for kind, dims in reversed(self.layers):
            if kind == "dense":
                return dims[1]
        raise ValueError("arch has no dense layer")

    @property
    def dense_shapes(self) -> list[tuple[int, int]]:
        return [dims for kind, dims in self.layers if kind == "dense"]


def mlp_arch(input_dim: int, hidden: tuple[int, ...], classes: int) -> ArchSpec:
    """Dense/ReLU stack: input -> hidden... -> classes -> softmax."""
    layers = []
    width = input_dim
    for h in hidden:
        layers.append(("dense", (width, h)))
        layers.append(("relu", ()))
        width = h
    layers.append(("dense", (width, classes)))
    layers.append(("softmax-output", ()))
    return ArchSpec(input_dim, tuple(layers))


@dataclass(frozen=True)
class ModelParams:
    """Weights and biases for each dense layer, in layer order.

    weights[k] has shape (fan_in, fan_out); biases[k] has shape (fan_out,).
    """

    arch: ArchSpec
    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]

    def __post_init__(self):
        shapes = self.arch.dense_shapes
        if len(self.weights) != len(shapes) or len(self.biases) != len(shapes):
            raise ValueError("parameter count does not match arch")
        for k, (fan_in, fan_out) in enumerate(shapes):
            if self.weights[k].shape != (fan_in, fan_out):
                raise ValueError(f"weight {k}: expected {(fan_in, fan_out)}, "
                                 f"got {self.weights[k].shape}")
            if self.biases[k].shape != (fan_out,):
                raise ValueError(f"bias {k}: expected ({fan_out},), got {self.biases[k].shape}")

    @property
    def dtype(self):
        return self.weights[0].dtype

    def astype(self, dtype) -> "ModelParams":
        return ModelParams(self.arch,
                           tuple(w.astype(dtype) for w in self.weights),
                           tuple(b.astype(dtype) for b in self.biases))

    def equal(self, other: "ModelParams") -> bool:
        return (self.arch == other.arch
                and all(np.array_equal(a, b) for a, b in zip(self.weights, other.weights))
                and all(np.array_equal(a, b) for a, b in zip(self.biases, other.biases)))


@dataclass(frozen=True)
class Hyper:
    """First-order training settings."""

    learning_rate: float = 1e-3
    batch_size: int = 64
    epochs: int = 5
    optimizer: str = "adam"
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0

    def __post_init__(self):
        # bool is an int subclass, so YAML's `true` must be ruled out by name.
        if isinstance(self.learning_rate, bool) or self.learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        for name in ("batch_size", "epochs"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an int, got {value!r}")
        if self.batch_size < 1:
            raise ValueError("batch size must be at least 1")
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")


def init_params(arch: ArchSpec, key: SubKey) -> ModelParams:
    """Keyed Glorot-uniform weights, zero biases.

    Each weight matrix is filled row-major from one continuous keyed stream,
    uniform in +-sqrt(6 / (fan_in + fan_out)). Bit-identical per key.
    """
    shapes = arch.dense_shapes
    total = sum(fi * fo for fi, fo in shapes)
    draws = uniform_floats(key, total)
    weights, biases = [], []
    offset = 0
    for fan_in, fan_out in shapes:
        count = fan_in * fan_out
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        block = (2.0 * draws[offset:offset + count] - 1.0) * bound
        weights.append(block.reshape(fan_in, fan_out).astype(np.float32))
        biases.append(np.zeros(fan_out, dtype=np.float32))
        offset += count
    return ModelParams(arch, tuple(weights), tuple(biases))


def _as_batch(arch: ArchSpec, x: np.ndarray) -> np.ndarray:
    """Check that `x` is a (B, input_dim) batch; callers flatten images."""
    x = np.asarray(x)
    if x.ndim != 2 or x.shape[1] != arch.input_dim:
        raise ValueError(f"expected a (B, {arch.input_dim}) batch, got shape {x.shape}")
    return x


def _raise_non_finite(params: ModelParams, x2d: np.ndarray):
    """Re-run layer by layer to name the first non-finite one."""
    if not np.isfinite(x2d).all():
        raise FloatingPointError("non-finite values in the input")
    h = x2d
    dense_idx = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for pos, (kind, _) in enumerate(params.arch.layers):
            if kind == "dense":
                h = h @ params.weights[dense_idx] + params.biases[dense_idx]
                dense_idx += 1
            elif kind == "relu":
                h = np.maximum(h, 0)
            if not np.isfinite(h).all():
                raise FloatingPointError(f"non-finite activations after layer {pos} ({kind})")
    raise FloatingPointError("non-finite values detected")  # pragma: no cover


def logits_and_cache(params: ModelParams, x: np.ndarray) -> tuple[np.ndarray, list]:
    """Pre-softmax scores for a (B, input_dim) batch plus backward cache."""
    x2d = _as_batch(params.arch, x)
    h = x2d.astype(params.dtype, copy=False)
    cache = []
    dense_idx = 0
    # Overflow surfaces as the explicit non-finite error below, not a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for kind, _ in params.arch.layers:
            if kind == "dense":
                cache.append(("dense", h))
                h = h @ params.weights[dense_idx] + params.biases[dense_idx]
                dense_idx += 1
            elif kind == "relu":
                cache.append(("relu", h > 0))
                h = np.maximum(h, 0)
    if not np.isfinite(h).all():
        _raise_non_finite(params, x2d.astype(params.dtype, copy=False))
    return h, cache


_GRAD_TARGETS = ("params", "input", "both")


def backward_from_logits(params: ModelParams, cache: list, dlogits: np.ndarray,
                         wrt: str = "both") -> tuple[list, list, np.ndarray | None]:
    """Reverse-mode pass from a gradient seed at the logits.

    Returns per-layer weight gradients, bias gradients, and the gradient
    with respect to the flattened input batch. `wrt` names the gradients
    the caller uses, and the pass computes only those:
      "params" - weight and bias gradients (training); the pass stops at
                 the first dense layer and the input gradient is None.
      "input"  - the input gradient (attacks); no `saved.T @ dh` or bias
                 sum is formed, and every weight and bias slot is None.
      "both"   - all of them (gradient checks).
    Whatever is computed is bitwise the same under every `wrt`.
    """
    if wrt not in _GRAD_TARGETS:
        raise ValueError(f"wrt must be one of {_GRAD_TARGETS}, got {wrt!r}")
    dh = dlogits
    dweights = [None] * len(params.weights)
    dbiases = [None] * len(params.biases)
    dense_idx = len(params.weights)
    for kind, saved in reversed(cache):
        if kind == "dense":
            dense_idx -= 1
            if wrt != "input":
                dweights[dense_idx] = saved.T @ dh
                dbiases[dense_idx] = dh.sum(axis=0)
            if dense_idx == 0 and wrt == "params":
                return dweights, dbiases, None
            dh = dh @ params.weights[dense_idx].T
        else:  # relu
            dh = dh * saved
    return dweights, dbiases, dh


def _softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def forward(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """Soft scores for a (B, input_dim) batch: per-row softmax of the logits."""
    z, _ = logits_and_cache(params, x)
    return _softmax(z)


def check_labels(labels, count: int, classes: int) -> np.ndarray:
    """`labels` as an array of `count` class indices in [0, classes)."""
    labels = np.asarray(labels)
    if labels.shape != (count,) or not np.issubdtype(labels.dtype, np.integer):
        raise ValueError(f"expected {count} integer class labels, got "
                         f"{labels.dtype} labels of shape {labels.shape}")
    if np.any((labels < 0) | (labels >= classes)):
        raise ValueError(f"labels must be in [0, {classes})")
    return labels


def batch_loss_and_grads(params: ModelParams, x: np.ndarray, labels: np.ndarray,
                         wrt: str = "both"):
    """Mean cross-entropy over a batch, with the gradients `wrt` names.

    Returns (loss, weight grads, bias grads, input grads), with None in the
    slots `wrt` skips (see `backward_from_logits`). Input grads come back
    per sample in the batch's (B, input_dim) shape. An empty batch has
    loss 0 and empty gradients.
    """
    x2d = _as_batch(params.arch, x)
    batch = x2d.shape[0]
    labels = check_labels(labels, batch, params.arch.classes)

    z, cache = logits_and_cache(params, x2d)
    probs = _softmax(z)
    picked = probs[np.arange(batch), labels]
    nll = -np.log(np.maximum(picked, np.finfo(probs.dtype).tiny))
    loss = float(nll.mean()) if batch else 0.0

    dz = probs.copy()
    dz[np.arange(batch), labels] -= 1.0
    dz /= batch
    dweights, dbiases, dx = backward_from_logits(params, cache, dz, wrt)
    return loss, dweights, dbiases, dx


@dataclass
class _AdamSlots:
    """Optimizer state: Adam moments per tensor plus one scratch pair.

    Both scratch buffers are flat and sized to the largest tensor; every
    update writes its temporaries into views of them instead of allocating.
    """

    m_w: list
    v_w: list
    m_b: list
    v_b: list
    scratch: tuple[np.ndarray, np.ndarray]
    t: int = 0

    @classmethod
    def zeros(cls, weights: list, biases: list) -> "_AdamSlots":
        largest = max(t.size for t in weights + biases)
        dtype = weights[0].dtype
        return cls([np.zeros_like(w) for w in weights],
                   [np.zeros_like(w) for w in weights],
                   [np.zeros_like(b) for b in biases],
                   [np.zeros_like(b) for b in biases],
                   (np.empty(largest, dtype), np.empty(largest, dtype)))


def train(params: ModelParams, dataset: tuple[np.ndarray, np.ndarray],
          hyper: Hyper, key: SubKey) -> ModelParams:
    """Mini-batch training with keyed shuffling; returns updated params.

    The per-epoch visit order comes from a Fisher-Yates shuffle over the
    key's stream (the stream continues across epochs), so two runs with the
    same inputs produce bit-identical parameters.
    """
    images, labels = dataset
    images = np.asarray(images)
    labels = np.asarray(labels)
    count = images.shape[0]
    if count == 0:
        raise ValueError("dataset is empty")
    if hyper.epochs == 0:
        return params

    x2d = _as_batch(params.arch, images.reshape(count, -1))
    x2d = x2d.astype(params.dtype, copy=False)
    weights = [w.copy() for w in params.weights]
    biases = [b.copy() for b in params.biases]
    slots = _AdamSlots.zeros(weights, biases)
    state = RngState(key.value)
    lr = params.dtype.type(hyper.learning_rate)

    first_epoch_loss = None
    for epoch in range(hyper.epochs):
        order = _keyed_order(state, count)
        state = skip(state, max(count - 1, 0))
        epoch_loss = 0.0
        for start in range(0, count, hyper.batch_size):
            idx = order[start:start + hyper.batch_size]
            current = ModelParams(params.arch, tuple(weights), tuple(biases))
            loss, dw, db, _ = batch_loss_and_grads(current, x2d[idx], labels[idx],
                                                   wrt="params")
            if not np.isfinite(loss):
                raise FloatingPointError(f"training diverged at epoch {epoch}: loss={loss}")
            epoch_loss += loss * len(idx)
            _apply_update(weights, biases, dw, db, hyper, slots, lr)
        epoch_loss /= count
        if first_epoch_loss is None:
            first_epoch_loss = epoch_loss
        logger.debug("epoch %d: mean loss %.6f", epoch, epoch_loss)
    logger.debug("training loss %.6f -> %.6f", first_epoch_loss, epoch_loss)
    return ModelParams(params.arch, tuple(weights), tuple(biases))


def _keyed_order(state: RngState, count: int) -> np.ndarray:
    """One epoch's visit order: the Fisher-Yates shuffle of the stream at `state`."""
    return fisher_yates(state, count)


def _scratch_like(buffer: np.ndarray, tensor: np.ndarray) -> np.ndarray:
    return buffer[:tensor.size].reshape(tensor.shape)


def _apply_update(weights, biases, dw, db, hyper: Hyper, slots: _AdamSlots, lr):
    """One optimizer step, in place on `weights` and `biases`.

    Temporaries go to the slots' scratch pair; the float operations and
    their order are those of the textbook formulas in the comments, so the
    result is bitwise the same as evaluating them directly.
    """
    dtype = weights[0].dtype
    if hyper.weight_decay:
        wd = dtype.type(hyper.weight_decay)
        dw = [g + wd * w for g, w in zip(dw, weights)]
    if hyper.optimizer == "sgd":
        for k in range(len(weights)):
            for grad, value in ((dw[k], weights[k]), (db[k], biases[k])):
                # value -= lr * g
                step = _scratch_like(slots.scratch[0], value)
                np.multiply(lr, grad.astype(dtype, copy=False), out=step)
                value -= step
        return
    slots.t += 1
    b1, b2 = dtype.type(hyper.beta1), dtype.type(hyper.beta2)
    one_minus_b1, one_minus_b2 = 1 - b1, 1 - b2
    eps = dtype.type(hyper.eps)
    correction1 = dtype.type(1.0 - hyper.beta1 ** slots.t)
    correction2 = dtype.type(1.0 - hyper.beta2 ** slots.t)
    for k in range(len(weights)):
        for grad, value, m, v in ((dw[k], weights[k], slots.m_w[k], slots.v_w[k]),
                                  (db[k], biases[k], slots.m_b[k], slots.v_b[k])):
            g = grad.astype(dtype, copy=False)
            tmp = _scratch_like(slots.scratch[0], value)
            step = _scratch_like(slots.scratch[1], value)
            # m = b1 * m + (1 - b1) * g
            m *= b1
            np.multiply(one_minus_b1, g, out=tmp)
            m += tmp
            # v = b2 * v + (1 - b2) * g * g
            v *= b2
            np.multiply(one_minus_b2, g, out=tmp)
            tmp *= g
            v += tmp
            # value -= lr * (m / correction1) / (sqrt(v / correction2) + eps)
            np.divide(v, correction2, out=tmp)
            np.sqrt(tmp, out=tmp)
            tmp += eps
            np.divide(m, correction1, out=step)
            np.multiply(lr, step, out=step)
            step /= tmp
            value -= step


def finite_difference_max_error(params: ModelParams, x: np.ndarray, label: int,
                                step: float = 1e-3) -> float:
    """Max relative error of analytic vs central-difference gradients.

    Everything is evaluated in float64. Relative error is
    |a - b| / max(1e-8, |a| + |b|), the worst case over every parameter and
    every input entry.
    """
    p64 = params.astype(np.float64)
    x64 = np.array(x, dtype=np.float64).reshape(1, -1)
    labels = np.asarray([label])
    _, dweights, dbiases, dx = batch_loss_and_grads(p64, x64, labels)

    def loss_at(p, xv):
        return batch_loss_and_grads(p, xv, labels, wrt="params")[0]

    worst = 0.0

    def rel(a, b):
        return abs(a - b) / max(1e-8, abs(a) + abs(b))

    for k in range(len(p64.weights)):
        for tensor, analytic in ((p64.weights[k], dweights[k]),
                                 (p64.biases[k], dbiases[k])):
            it = np.nditer(tensor, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = tensor[idx]
                tensor[idx] = orig + step
                up = loss_at(p64, x64)
                tensor[idx] = orig - step
                down = loss_at(p64, x64)
                tensor[idx] = orig
                worst = max(worst, rel((up - down) / (2 * step), analytic[idx]))
    flat = x64[0]
    for pos in range(flat.size):
        orig = flat[pos]
        flat[pos] = orig + step
        up = loss_at(p64, x64)
        flat[pos] = orig - step
        down = loss_at(p64, x64)
        flat[pos] = orig
        worst = max(worst, rel((up - down) / (2 * step), dx[0, pos]))
    return worst
