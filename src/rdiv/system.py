"""Multi-channel keyed classifier: build, train, classify, count errors.

A system is a grid of J transform groups x I branches. Every channel owns a
keyed preprocessor and its own classifier trained on preprocessed inputs;
inference sums the per-channel softmax vectors and takes the argmax. At
classify time each keyed transform is applied to the channel's first-layer
weights, not to the images: the transforms are linear and every arch starts
with a dense layer, so the two give the same scores. All keys derive from the
system's master key, so the whole system is a deterministic function of
(mode, master key, arch, data, hyper); a reject threshold is an argument
of the decision functions, not part of a system.

Modes (`MODE_TABLE` holds each one's transforms kind and J, and
`check_settings` checks a mode with `per_color`):
  identity                  - J=1, passthrough channels (keyless baseline)
  direct-permutation        - J=1, keyed pixel permutations
  dct-sign-flip-3band       - J=3, keyed sign flips in sub-bands V, H, D
  dct-hard-threshold-3band  - J=3, zeroed sub-bands V, H, D; no key enters the
                              transform, only each channel's init and shuffle
"""

from __future__ import annotations

from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .dataio import LabeledSet
from .nn import (
    ArchSpec,
    Hyper,
    ModelParams,
    forward,
    init_params,
    require_bool,
    require_count,
    require_number,
    train,
)
from .rng import TAG_INIT, TAG_SHUFFLE, MasterKey, derive_subkey
from .transforms import (
    SUBBAND_IDS,
    Preprocessor,
    check_batch,
    fold_into_weights,
    make_preprocessor,
    preprocess_batch,
    subband_rect,
)


class ModeSpec(NamedTuple):
    """What a mode builds: every channel's transforms kind, and J."""

    kind: str
    groups: int


# Every mode, described once. Group j of a DCT mode acts on sub-band
# SUBBAND_IDS[j]; a system file's mode byte is the mode's index in MODES.
MODE_TABLE = {
    "identity": ModeSpec("identity", 1),
    "direct-permutation": ModeSpec("direct-permutation", 1),
    "dct-sign-flip-3band": ModeSpec("dct-sign-flip", 3),
    "dct-hard-threshold-3band": ModeSpec("dct-hard-threshold", 3),
}
MODES = tuple(MODE_TABLE)

REJECT = -1


def check_settings(mode: str, per_color: bool) -> None:
    """Refuse a mode or `per_color` that no system has.

    The one check of these settings: `build_system` runs it, and the CLI
    runs it on the config before any data is read.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; pick one of {', '.join(MODES)}")
    require_bool(per_color, "per_color")
    if per_color and mode != "direct-permutation":
        raise ValueError(f"per_color applies to direct-permutation only, not mode {mode!r}")


def check_reject_threshold(reject_threshold: float | None) -> None:
    """Refuse a reject threshold outside [0, 1]; None rejects nothing. Both
    decision functions run it, and the CLI runs it on the config."""
    if reject_threshold is not None:
        require_number(reject_threshold, "reject_threshold", high=1.0)


@dataclass(frozen=True)
class ChannelSpec:
    """One (preprocessor, classifier) chain at grid position (j, i)."""

    j: int
    i: int
    preprocessor: Preprocessor
    params: ModelParams


@dataclass(frozen=True)
class SystemSpec:
    """A J x I channel grid with summation aggregation.

    `per_color` records whether direct-permutation channels draw one
    permutation per color channel; it is the one copy of that setting.
    """

    master: MasterKey
    mode: str
    size: int
    colors: int
    arch: ArchSpec
    channels: tuple[ChannelSpec, ...]
    per_color: bool = False

    @property
    def groups(self) -> int:
        return MODE_TABLE[self.mode].groups

    @property
    def branches(self) -> int:
        """I, the number of branches in each group."""
        return len(self.channels) // self.groups


def build_system(mode: str, master: MasterKey, groups: int, branches: int,
                 arch: ArchSpec, size: int, colors: int,
                 per_color: bool = False,
                 params: Sequence[ModelParams] | None = None) -> SystemSpec:
    """Create the J x I channel grid with keyed preprocessors and init params.

    `groups` must equal the mode's J in `MODE_TABLE`, and `check_settings`
    refuses the mode and `per_color` a system cannot have. Channel (j, i)
    derives its preprocessor, its weight init, and later its shuffle order
    from lineage (j, i) under the master key.
    `params`, when given, supplies every channel's weights of `arch` in grid
    order instead of the keyed init; loading a saved system uses it.
    """
    check_settings(mode, per_color)
    for value, what in ((groups, "groups"), (branches, "branches"),
                        (size, "size"), (colors, "colors")):
        require_count(value, what)
    kind, expected_groups = MODE_TABLE[mode]
    if groups != expected_groups:
        raise ValueError(f"mode {mode!r} requires {expected_groups} group(s), got {groups}")
    if arch.input_dim != size * size * colors:
        raise ValueError(f"arch input_dim {arch.input_dim} does not match "
                         f"{size}x{size}x{colors} images")
    if params is not None and len(params) != groups * branches:
        raise ValueError(f"got {len(params)} parameter sets for "
                         f"{groups * branches} channels")
    other = next((p.arch for p in params or () if p.arch != arch), None)
    if other is not None:
        raise ValueError(f"params hold a {other.widths} network, the arch is "
                         f"{arch.widths}")
    channels = []
    for j in range(groups):
        band = subband_rect(SUBBAND_IDS[j], size) if kind.startswith("dct") else None
        for i in range(branches):
            pre = make_preprocessor(kind, master, j, i, size, colors,
                                    subband=band, per_color=per_color)
            if params is None:
                model = init_params(arch, derive_subkey(master, j, i, TAG_INIT))
            else:
                model = params[len(channels)]
            channels.append(ChannelSpec(j, i, pre, model))
    return SystemSpec(master, mode, size, colors, arch, tuple(channels), per_color)


def first_branches(system: SystemSpec, branches: int) -> SystemSpec:
    """The sub-grid of channels (j, i) with i < `branches`, in grid order.

    Every channel depends only on the master key and its own lineage, so
    this equals building and training the smaller grid directly.
    """
    if require_count(branches, "branches") > system.branches:
        raise ValueError(f"cannot take {branches} branches from a grid of "
                         f"{system.branches}")
    return replace(system, channels=tuple(c for c in system.channels if c.i < branches))


def train_system(system: SystemSpec, trainset: LabeledSet, hyper: Hyper,
                 workers: int = 1) -> SystemSpec:
    """Train every channel independently on its preprocessed inputs.

    An index-map channel (identity, direct-permutation) trains on the one
    loaded `trainset`, each mini-batch gathered through its map inside
    `train`, so no mapped copy of the set is made. A DCT channel maps the
    whole set through its round trip once, into one float32 copy, since a
    per-batch round trip would repeat every epoch. Channels share nothing
    mutable, so they may train in parallel; the result is identical either
    way because each channel's randomness comes only from its own derived
    keys. A channel whose training overflows raises FloatingPointError
    naming the epoch and the channel.
    """
    require_count(workers, "workers")
    if not system.channels:
        raise ValueError("system has no channels")
    check_batch(trainset.images, system.size, system.colors)

    def train_one(channel: ChannelSpec) -> ChannelSpec:
        pre = channel.preprocessor
        if pre.mask is None:
            inputs, columns = trainset.images, pre.permutation
        else:
            inputs, columns = preprocess_batch(pre, trainset.images), None
        key = derive_subkey(system.master, channel.j, channel.i, TAG_SHUFFLE)
        try:
            params = train(channel.params, (inputs, trainset.labels), hyper, key,
                           columns)
        except FloatingPointError as exc:
            raise FloatingPointError(
                f"{exc} of channel ({channel.j}, {channel.i})") from None
        return replace(channel, params=params)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            trained = tuple(pool.map(train_one, system.channels))
    else:
        trained = tuple(train_one(c) for c in system.channels)
    return replace(system, channels=trained)


def channel_scores(system: SystemSpec, images: np.ndarray) -> list[np.ndarray]:
    """Each channel's softmax scores for a (B, N, N, m) batch, in grid order.

    The images are flattened once and never transformed: each channel runs
    its classifier with the keyed transform folded into its first-layer
    weights (`fold_into_weights`).
    """
    images = check_batch(images, system.size, system.colors)
    flat = images.reshape(len(images), system.arch.input_dim)
    scores = []
    for channel in system.channels:
        params = channel.params
        w1 = fold_into_weights(channel.preprocessor, params.weights[0])
        folded = ModelParams(params.arch, (w1,) + params.weights[1:], params.biases)
        scores.append(forward(folded, flat))
    return scores


def _sum_scores(scores: Sequence[np.ndarray]) -> np.ndarray:
    """Add channel scores left to right; the inputs are left unchanged."""
    total = scores[0]
    for s in scores[1:]:
        total = total + s
    return total


def predict_batch(system: SystemSpec, images: np.ndarray) -> np.ndarray:
    """Aggregate score vectors for a (B, N, N, m) batch: sum of channel softmaxes."""
    return _sum_scores(channel_scores(system, images))


def _decide(total: np.ndarray, channels: int, reject_threshold: float | None) -> np.ndarray:
    """Class decisions from the score total of `channels` channels.

    The argmax tie-break is the smallest class index. With a reject
    threshold t, a sample is rejected when max_score / channels < t.
    """
    decisions = total.argmax(axis=1)
    if reject_threshold is not None:
        normalized = total.max(axis=1) / channels
        decisions = np.where(normalized < reject_threshold, REJECT, decisions)
    return decisions


def classify_batch(system: SystemSpec, images: np.ndarray,
                   reject_threshold: float | None = None) -> np.ndarray:
    """Class decisions for a batch; REJECT where `reject_threshold` says so."""
    check_reject_threshold(reject_threshold)
    return _decide(predict_batch(system, images), len(system.channels), reject_threshold)


def nested_decisions(system: SystemSpec, branch_grid: Sequence[int], images: np.ndarray,
                     reject_threshold: float | None = None) -> dict[int, np.ndarray]:
    """`classify_batch(first_branches(system, I), images, reject_threshold)`
    for each I in the grid.

    Every channel is scored once. Each sub-grid's total adds its own
    channels' scores in its own grid order, as `predict_batch` does; for
    J=3 those channels are not a prefix of the full grid.
    """
    check_reject_threshold(reject_threshold)
    scores = channel_scores(system, images)
    decisions = {}
    for branches in branch_grid:
        sub = first_branches(system, branches)
        total = _sum_scores([s for channel, s in zip(system.channels, scores)
                             if channel.i < branches])
        decisions[branches] = _decide(total, len(sub.channels), reject_threshold)
    return decisions


def decision_errors(decisions: np.ndarray, labels: np.ndarray) -> int:
    """How many `decisions` differ from `labels`; REJECT counts as an error."""
    labels = np.asarray(labels)
    if labels.shape != (len(decisions),):
        raise ValueError(f"expected {len(decisions)} labels, got shape {labels.shape}")
    return int((decisions != labels).sum())


def rebuild_preprocessors(system: SystemSpec, master: MasterKey) -> SystemSpec:
    """The same system with preprocessors re-derived under a different key.

    Channel parameters are kept. This models an evaluator holding the wrong
    secret key; with keyed modes the decisions should collapse to chance.
    """
    return build_system(system.mode, master, system.groups, system.branches,
                        system.arch, system.size, system.colors,
                        per_color=system.per_color,
                        params=[c.params for c in system.channels])
