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
import math
import sys
from dataclasses import dataclass

import numpy as np

from .rng import fisher_yates, skip, uniform_floats

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
        require_count(self.input_dim, "input_dim")
        if not self.layers or self.layers[-1][0] != "softmax-output":
            raise ValueError("arch must end with a softmax-output layer")
        width = self.input_dim
        for pos, (kind, dims) in enumerate(self.layers):
            if kind not in LAYER_KINDS:
                raise ValueError(f"unknown layer kind {kind!r}")
            if kind == "dense":
                fan_in, fan_out = dims
                require_count(fan_out, f"layer {pos} fan_out")
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
        return self.dense_shapes[-1][1]

    @property
    def dense_shapes(self) -> list[tuple[int, int]]:
        return [dims for kind, dims in self.layers if kind == "dense"]

    @property
    def widths(self) -> str:
        """The layer widths from input to classes, as in "784-256-128-10"."""
        return "-".join(str(width) for width in
                        (self.input_dim, *(fan_out for _, fan_out in self.dense_shapes)))


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


def require_count(value, what: str, minimum: int = 1) -> int:
    """`value` as an int of at least `minimum`, 1 or 0; bools, floats and
    strings are refused.

    bool is an int subclass, so `True` must be ruled out by name.
    """
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        kind = "a positive" if minimum == 1 else "a non-negative"
        raise ValueError(f"{what} must be {kind} int, got {value!r}")
    return value


def require_number(value, what: str, positive: bool = False, high: float = math.inf) -> None:
    """`value` as a finite int or float in [0, `high`], or in (0, `high`] if
    `positive`; bools, strings, NaN and ints too large for a float (compared
    exactly, not converted) are refused."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max
            or not (0 < value if positive else 0 <= value)
            or value > high):
        interval = f"{'(' if positive else '['}0, {high:g}{']' if high < math.inf else ')'}"
        raise ValueError(f"{what} must be a number in {interval}, got {value!r}")


def require_bool(value, what: str) -> None:
    """Refuse a flag that is not True or False.

    A quoted "no" is a non-empty string, which bool() would call true.
    """
    if not isinstance(value, bool):
        raise ValueError(f"{what} must be true or false, got {value!r}")


def require_indices(values, what: str, count: int, bound: int) -> np.ndarray:
    """`values` as a 1-D integer array of `count` entries in [0, `bound`):
    class labels, or an index map over input entries."""
    values = np.asarray(values)
    if values.shape != (count,) or values.dtype.kind not in "iu":
        raise ValueError(f"{what} must be a 1-D integer array of length {count}, "
                         f"got a {values.dtype} array of shape {values.shape}")
    if np.any((values < 0) | (values >= bound)):
        raise ValueError(f"{what} must be in [0, {bound})")
    return values


@dataclass(frozen=True)
class Hyper:
    """Training settings. Every run trains with Adam, with `_ADAM`'s constants."""

    learning_rate: float = 1e-3
    batch_size: int = 64
    epochs: int = 5

    def __post_init__(self):
        require_number(self.learning_rate, "learning_rate", positive=True)
        require_count(self.batch_size, "batch_size")
        require_count(self.epochs, "epochs", minimum=0)


def init_params(arch: ArchSpec, key: int) -> ModelParams:
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


def _raise_non_finite(cache: list, logits: np.ndarray):
    """Name the first dense layer whose output is non-finite, from the cache.

    `cache` has one entry per layer before the output, in layer order, and
    holds each dense layer's input; the logits are the last one's output.
    ReLU makes no finite value non-finite, so the first non-finite dense
    input after the first came from the dense layer before it.
    """
    dense = [(pos, saved) for pos, (kind, saved) in enumerate(cache) if kind == "dense"]
    if not np.isfinite(dense[0][1]).all():
        raise FloatingPointError("non-finite values in the input")
    outputs = [saved for _, saved in dense[1:]] + [logits]
    for (pos, _), out in zip(dense, outputs):
        if not np.isfinite(out).all():
            raise FloatingPointError(f"non-finite activations after layer {pos} (dense)")


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
                # A new array, so the caller's `x` is never written below.
                h = h @ params.weights[dense_idx]
                h += params.biases[dense_idx]
                dense_idx += 1
            elif kind == "relu":
                cache.append(("relu", h > 0))
                np.maximum(h, 0, out=h)
    if not np.isfinite(h).all():
        _raise_non_finite(cache, h)
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
        elif dh is dlogits:  # relu before any dense: never write the caller's seed
            dh = dh * saved
        else:  # relu
            dh *= saved
    return dweights, dbiases, dh


def _softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def forward(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """Soft scores for a (B, input_dim) batch: per-row softmax of the logits."""
    z, _ = logits_and_cache(params, x)
    return _softmax(z)


def batch_loss_and_grads(params: ModelParams, x: np.ndarray, labels: np.ndarray,
                         wrt: str = "both"):
    """Mean cross-entropy over a batch, with the gradients `wrt` names.

    Returns (loss, weight grads, bias grads, input grads), with None in the
    slots `wrt` skips (see `backward_from_logits`). Input grads come back
    per sample in the batch's (B, input_dim) shape. An empty batch has
    loss 0 and empty gradients. `labels` are not checked here: every entry
    point that reaches this checks them once with `require_indices`.
    """
    x2d = _as_batch(params.arch, x)
    batch = x2d.shape[0]

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


# Adam's moment decay rates beta1 and beta2 and its epsilon, the textbook
# values (Kingma & Ba, arXiv 1412.6980).
_ADAM = (0.9, 0.999, 1e-8)

# Elements per block of the Adam sweep (see `_apply_update`).
_BLOCK = 1 << 16


def train(params: ModelParams, dataset: tuple[np.ndarray, np.ndarray],
          hyper: Hyper, key: int, columns: np.ndarray | None = None) -> ModelParams:
    """Mini-batch training with keyed shuffling; returns updated params.

    The per-epoch visit order comes from a Fisher-Yates shuffle over the
    key's stream (the stream continues across epochs), so two runs with the
    same inputs produce bit-identical parameters.

    `columns`, when given, is an index map over the flattened inputs: the
    network trains on `x[:, columns]`, which each mini-batch gathers from
    its own rows, so no mapped copy of the set is ever made. Every batch
    is bitwise the rows of `np.take(x, columns, axis=1)` it replaces.

    A forward pass that overflows, or an Adam step that overflows or makes
    a NaN, raises FloatingPointError naming the epoch. The last step's
    weights get one forward pass over the last batch, so a run that ends
    on a breaking step fails here, not when the network is first used.
    """
    images, labels = dataset
    images = np.asarray(images)
    count = images.shape[0]
    if count == 0:
        raise ValueError("dataset is empty")
    labels = require_indices(labels, "labels", count, params.arch.classes)
    if columns is not None:
        input_dim = params.arch.input_dim
        columns = require_indices(columns, "columns", input_dim, input_dim)
    if hyper.epochs == 0:
        return params

    # Row-major, so each batch gathers whole contiguous rows.
    x2d = np.ascontiguousarray(_as_batch(params.arch, images.reshape(count, -1)),
                               dtype=params.dtype)
    # C-contiguous copies, which every Adam step updates in place.
    trained = ModelParams(params.arch, tuple(w.copy() for w in params.weights),
                          tuple(b.copy() for b in params.biases))
    # Adam's state: both moments of every tensor, weights then biases, and a
    # flat scratch pair of one block, or of the largest tensor if smaller.
    tensors = trained.weights + trained.biases
    ms = [np.zeros_like(t) for t in tensors]
    vs = [np.zeros_like(t) for t in tensors]
    width = min(max(t.size for t in tensors), _BLOCK)
    scratch = (np.empty(width, params.dtype), np.empty(width, params.dtype))
    step = 0

    try:
        for epoch in range(hyper.epochs):
            order = _keyed_order(key, count)
            key = skip(key, max(count - 1, 0))
            epoch_loss = 0.0
            for start in range(0, count, hyper.batch_size):
                idx = order[start:start + hyper.batch_size]
                batch = x2d[idx]
                if columns is not None:
                    batch = np.take(batch, columns, axis=1)
                loss, dw, db, _ = batch_loss_and_grads(trained, batch, labels[idx],
                                                       wrt="params")
                epoch_loss += loss * len(idx)
                step += 1
                try:
                    with np.errstate(over="raise", invalid="raise"):
                        _apply_update(tensors, dw + db, ms, vs, scratch, adam_scalars(
                            params.dtype, step, hyper.learning_rate))
                except FloatingPointError as exc:
                    raise FloatingPointError(f"Adam update: {exc}") from None
            logger.debug("epoch %d: mean loss %.6f", epoch, epoch_loss / count)
        logits_and_cache(trained, batch)
    except FloatingPointError as exc:
        raise FloatingPointError(f"{exc} in epoch {epoch}") from None
    return trained


def _keyed_order(state: int, count: int) -> np.ndarray:
    """One epoch's visit order: the Fisher-Yates shuffle of the stream at `state`."""
    return fisher_yates(state, count)


def _apply_update(tensors, grads, ms, vs, scratch, scalars: tuple) -> None:
    """One Adam step, in place on each of `tensors` and its moments in `ms`
    and `vs`, from its gradient in `grads`, with `adam_scalars`' `scalars`
    for this step. `scratch` is a pair of flat buffers of at least one
    block, or of the largest tensor if that is smaller.

    Each tensor is swept in blocks of `_BLOCK` elements of its flat view,
    and `adam_block` runs every formula over one block before the next
    block starts. A block's parameters, moments, gradient and the scratch
    pair then stay in cache across the formula's passes; whole tensors the
    size of a 784x256 first layer overflow L2 between passes. Below 64 Ki
    elements the cost of the extra NumPy calls outweighs the cache gain.
    """
    for value, grad, m, v in zip(tensors, grads, ms, vs):
        grad = grad.astype(value.dtype, copy=False).reshape(-1)
        # Parameters and moments are C-contiguous, so these flat views write through.
        value, m, v = value.reshape(-1), m.reshape(-1), v.reshape(-1)
        for start in range(0, value.size, _BLOCK):
            block = slice(start, start + _BLOCK)
            val = value[block]
            adam_block(val, grad[block], m[block], v[block],
                       scratch[0][:val.size], scratch[1][:val.size], scalars)


def adam_scalars(dtype: np.dtype, t: int, lr) -> tuple:
    """Step `t`'s scalars for `adam_block`, in `dtype`: b1, 1 - b1, b2, 1 - b2,
    eps, both bias corrections and `lr`."""
    beta1, beta2, epsilon = _ADAM
    b1, b2 = dtype.type(beta1), dtype.type(beta2)
    return (b1, 1 - b1, b2, 1 - b2, dtype.type(epsilon),
            dtype.type(1.0 - beta1 ** t), dtype.type(1.0 - beta2 ** t), dtype.type(lr))


def adam_block(value, grad, m, v, tmp, step, scalars: tuple) -> None:
    """One Adam step in place on `value` and its moments `m` and `v`, with
    scratch `tmp` and `step` of their shape. The float operations and their
    order are those of the textbook formulas in the comments; all are
    elementwise, so any split into blocks is bitwise the whole-tensor step."""
    b1, one_minus_b1, b2, one_minus_b2, eps, correction1, correction2, lr = scalars
    # m = b1 * m + (1 - b1) * g
    m *= b1
    np.multiply(one_minus_b1, grad, out=tmp)
    m += tmp
    # v = b2 * v + (1 - b2) * g * g
    v *= b2
    np.multiply(one_minus_b2, grad, out=tmp)
    tmp *= grad
    v += tmp
    # value -= lr * (m / correction1) / (sqrt(v / correction2) + eps)
    np.divide(v, correction2, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += eps
    np.divide(m, correction1, out=step)
    np.multiply(lr, step, out=step)
    step /= tmp
    value -= step


def finite_difference_max_error(params: ModelParams, x: np.ndarray, label: int) -> float:
    """Max relative error of analytic vs central-difference gradients.

    Everything is evaluated in float64, with central differences of step
    1e-3. Relative error is |a - b| / max(1e-8, |a| + |b|), the worst case
    over every parameter and every input entry.
    """
    step = 1e-3
    p64 = params.astype(np.float64)
    x64 = np.array(x, dtype=np.float64).reshape(1, -1)
    labels = require_indices([label], "labels", 1, params.arch.classes)
    _, dweights, dbiases, dx = batch_loss_and_grads(p64, x64, labels)

    def loss_at(p, xv):
        return batch_loss_and_grads(p, xv, labels, wrt="params")[0]

    def rel(a, b):
        return abs(a - b) / max(1e-8, abs(a) + abs(b))

    worst = 0.0
    for tensor, analytic in (*zip(p64.weights, dweights), *zip(p64.biases, dbiases),
                             (x64, dx)):
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
    return worst
