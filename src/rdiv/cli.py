"""Batch front-end: train keyed systems, craft attacks, evaluate, report.

Runs are driven by a YAML config plus a handful of override flags. Every
command is a deterministic function of (config, master key): reruns produce
byte-identical artifacts. Unknown config keys are hard errors so typos
cannot silently fall back to defaults.

Subcommands:
  train      train the largest system grid once, write one system file per
             grid value (its first I branches), print clean error
  surrogate  train the keyless baseline model and write it
  attack     craft adversarial sets against the surrogate
  eval       print clean / adversarial error for the trained systems
  gradcheck  finite-difference gradient check, prints max relative error
  report     write the CSV report (one clean row per system, one row per attack)

Artifacts land in the output directory: system-i{I}.rdiv, surrogate.rdiv,
adv-{name}.radv, report.csv.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from dataclasses import dataclass, replace
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path

import numpy as np
import yaml

from .attacks import AdvSet, AttackConfig, craft_adv_set, train_surrogate
from .dataio import LabeledSet, load_cifar10, load_idx, take_first
from .nn import ArchSpec, Hyper, finite_difference_max_error, forward, init_params, mlp_arch
from .rng import TAG_INIT, MasterKey, derive_subkey, uniform_floats
from .serialize import (
    atomic_write_bytes,
    read_adv_set,
    read_params,
    read_system,
    save_adv_set,
    save_params,
    save_system,
    system_file_equals,
)
from .system import (
    MODES,
    SystemSpec,
    build_system,
    decision_errors,
    first_branches,
    mode_groups,
    nested_decisions,
    rebuild_preprocessors,
    train_system,
)

DEFAULT_LIMIT = 1000
DEFAULT_HIDDEN = (256, 128)

_GRADCHECK_TOLERANCE = 1e-4


class ConfigError(ValueError):
    """The run config is malformed or inconsistent."""


@dataclass(frozen=True)
class RunConfig:
    """Everything one batch run needs, resolved from YAML plus flags."""

    dataset_name: str
    dataset_format: str                 # "idx" | "cifar10"
    train_paths: tuple[Path, ...]
    test_paths: tuple[Path, ...]
    classes: int
    mode: str
    branch_grid: tuple[int, ...]
    master: MasterKey | None
    per_color: bool
    reject_threshold: float | None
    hidden: tuple[int, ...]
    hyper: Hyper
    attacks: tuple[tuple[str, AttackConfig], ...]
    limit: int
    out_dir: Path | None
    workers: int


def _require_keys(section: dict, allowed: set[str], where: str) -> None:
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(unknown)}")


def _count(value, what: str) -> int:
    """`value` as a positive int; YAML booleans, floats and strings are refused."""
    # bool is an int subclass, so `true` must be ruled out by name.
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ConfigError(f"{what} must be a positive int, got {value!r}")
    return value


def _path(value, what: str) -> Path:
    """`value` as a path; YAML numbers, booleans, lists and "" are refused."""
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{what} must be a non-empty path string, got {value!r}")
    return Path(value)


def _path_list(value, what: str) -> tuple[Path, ...]:
    """A non-empty YAML list of path strings; a bare string is refused."""
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{what} must be a non-empty list of path strings, "
                          f"got {value!r}")
    return tuple(_path(p, what) for p in value)


def _section(raw: dict, name: str) -> dict:
    value = raw.get(name) or {}
    if not isinstance(value, dict):
        raise ConfigError(f"section {name!r} must be a mapping")
    return value


def _parse_dataset(raw: dict) -> tuple[str, str, tuple[Path, ...], tuple[Path, ...], int]:
    section = _section(raw, "dataset")
    if not section:
        return "", "", (), (), 10
    _require_keys(section, {"name", "format", "classes", "train_images",
                            "train_labels", "test_images", "test_labels",
                            "train_batches", "test_batches"}, "dataset")
    name = section.get("name")
    fmt = section.get("format")
    # The name lands in report.csv, so YAML numbers and lists are refused.
    if not isinstance(name, str) or not name or fmt not in ("idx", "cifar10"):
        raise ConfigError(f"dataset needs a non-empty name string and format "
                          f"idx or cifar10, got name {name!r}, format {fmt!r}")
    classes = _count(section.get("classes", 10), "dataset classes")
    if fmt == "idx":
        missing = [k for k in ("train_images", "train_labels",
                               "test_images", "test_labels") if k not in section]
        forbidden = [k for k in ("train_batches", "test_batches") if k in section]
        if missing or forbidden:
            raise ConfigError("idx datasets need train/test image+label paths "
                              "and no batch lists")
        train = (_path(section["train_images"], "dataset train_images"),
                 _path(section["train_labels"], "dataset train_labels"))
        test = (_path(section["test_images"], "dataset test_images"),
                _path(section["test_labels"], "dataset test_labels"))
    else:
        if "train_batches" not in section or "test_batches" not in section:
            raise ConfigError("cifar10 datasets need train_batches and test_batches")
        if any(k in section for k in ("train_images", "train_labels",
                                      "test_images", "test_labels")):
            raise ConfigError("cifar10 datasets take batch lists, not idx paths")
        train = _path_list(section["train_batches"], "dataset train_batches")
        test = _path_list(section["test_batches"], "dataset test_batches")
    return name, fmt, train, test, classes


def _parse_attacks(raw: dict) -> tuple[tuple[str, AttackConfig], ...]:
    entries = raw.get("attacks") or []
    if not isinstance(entries, list):
        raise ConfigError("attacks must be a list")
    allowed = {"name", "kind", "eps", "alpha", "steps", "c", "iterations",
               "step_size", "kappa", "targeted", "target"}
    out = []
    seen = set()
    for pos, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ConfigError(f"attacks[{pos}] must be a mapping")
        _require_keys(entry, allowed, f"attacks[{pos}]")
        if "kind" not in entry:
            raise ConfigError(f"attacks[{pos}] needs a kind")
        fields = {k: v for k, v in entry.items() if k != "name"}
        try:
            config = AttackConfig(**fields)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"attacks[{pos}]: {exc}") from None
        name = entry.get("name", entry["kind"])
        # The name becomes the file name adv-{name}.radv in out_dir.
        if (not isinstance(name, str) or name in ("", ".", "..")
                or "/" in name or "\\" in name):
            raise ConfigError(f"attacks[{pos}] name must be a file name: "
                              f"no '/' or '\\', not empty, '.' or '..', got {name!r}")
        if name in seen:
            raise ConfigError(f"duplicate attack name {name!r}")
        seen.add(name)
        out.append((name, config))
    return tuple(out)


class _UniqueKeyLoader(yaml.SafeLoader):
    """SafeLoader that refuses a mapping key given twice.

    Plain PyYAML keeps the last of two equal keys without a word, so a
    repeated `mode` or `master_key` would silently replace the first.
    Merge keys (`<<`) may still be overridden, as YAML defines.
    """

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            if (isinstance(key_node, yaml.ScalarNode)
                    and key_node.tag != "tag:yaml.org,2002:merge"):
                key = self.construct_object(key_node)
                if key in seen:
                    raise yaml.constructor.ConstructorError(
                        None, None, f"duplicate key {key!r}", key_node.start_mark)
                seen.add(key)
        return super().construct_mapping(node, deep)


def _load_yaml(text: str) -> dict:
    try:
        raw = yaml.load(text, Loader=_UniqueKeyLoader)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        if mark is None:
            raise ConfigError(f"invalid config YAML: {exc}") from None
        problem = ", ".join(filter(None, (exc.context, exc.problem)))
        raise ConfigError(f"invalid config YAML at line {mark.line + 1}, "
                          f"column {mark.column + 1}: {problem}") from None
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    return raw


def parse_config(text: str) -> RunConfig:
    """Parse and validate a YAML run config. Every key is checked."""
    return _validate(_load_yaml(text))


def _validate(raw: dict) -> RunConfig:
    """The one set of checks, for config values and command-line flags alike."""
    _require_keys(raw, {"dataset", "system", "arch", "train", "attacks",
                        "eval", "out_dir", "workers"}, "config")

    name, fmt, train_paths, test_paths, classes = _parse_dataset(raw)

    system = _section(raw, "system")
    _require_keys(system, {"mode", "branches", "master_key", "per_color",
                           "reject_threshold"}, "system")
    mode = system.get("mode", "direct-permutation")
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}; pick one of {', '.join(MODES)}")
    branches = system.get("branches", 1)
    grid = tuple(branches) if isinstance(branches, list) else (branches,)
    if not grid:
        raise ConfigError("branches must be an int or a non-empty list of ints")
    grid = tuple(_count(b, "branches") for b in grid)
    repeated = [b for k, b in enumerate(grid) if b in grid[:k]]
    if repeated:
        raise ConfigError(f"branches lists {repeated[0]} more than once")
    master = None
    if "master_key" in system:
        # YAML reads an unquoted all-digit key as a number (a leading 0 makes
        # it octal), so str() of it would not be the digits that were written.
        key = system["master_key"]
        if not isinstance(key, str):
            raise ConfigError(f"master_key must be 16 hex digits in quotes; "
                              f"unquoted, YAML read it as {type(key).__name__}")
        try:
            master = MasterKey.from_hex(key)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    per_color = system.get("per_color", False)
    if not isinstance(per_color, bool):
        raise ConfigError(f"per_color must be true or false, got {per_color!r}")
    if per_color and mode != "direct-permutation":
        raise ConfigError(f"per_color applies to direct-permutation only, "
                          f"not mode {mode!r}")
    reject = system.get("reject_threshold")
    if reject is not None and (isinstance(reject, bool)
                               or not isinstance(reject, (int, float))):
        raise ConfigError(f"reject_threshold must be a number, got {reject!r}")
    reject = None if reject is None else float(reject)
    if reject is not None and not 0.0 <= reject <= 1.0:
        raise ConfigError(f"reject_threshold {reject} is outside [0, 1]")

    arch = _section(raw, "arch")
    _require_keys(arch, {"hidden"}, "arch")
    hidden = arch.get("hidden", DEFAULT_HIDDEN)
    if not isinstance(hidden, (list, tuple)):
        raise ConfigError(f"hidden must be a list of layer widths, got {hidden!r}")
    hidden = tuple(_count(h, "hidden layer width") for h in hidden)

    train = _section(raw, "train")
    _require_keys(train, {"learning_rate", "batch_size", "epochs", "optimizer",
                          "beta1", "beta2", "eps", "weight_decay"}, "train")
    try:
        hyper = Hyper(**train)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"train: {exc}") from None

    eval_section = _section(raw, "eval")
    _require_keys(eval_section, {"limit"}, "eval")
    limit = _count(eval_section.get("limit", DEFAULT_LIMIT), "eval limit")

    out_dir = raw.get("out_dir")
    out_dir = None if out_dir is None else _path(out_dir, "out_dir")
    workers = _count(raw.get("workers", 1), "workers")

    return RunConfig(name, fmt, train_paths, test_paths, classes, mode,
                     grid, master, per_color, reject, hidden, hyper,
                     _parse_attacks(raw), limit,
                     out_dir, workers)


def _apply_flags(raw: dict, args: argparse.Namespace) -> None:
    """Write the given flags into the YAML mapping, before any check runs."""
    for value, section, key in ((args.key, "system", "master_key"),
                                (args.mode, "system", "mode"),
                                (args.channels, "system", "branches"),
                                (args.limit, "eval", "limit"),
                                (args.out, None, "out_dir")):
        if value is None:
            continue
        if section is None:
            raw[key] = value
        else:
            raw[section] = _section(raw, section) | {key: value}


def _need(config: RunConfig, *what: str) -> None:
    if "dataset" in what and not config.dataset_name:
        raise ConfigError("this command needs a dataset section")
    if "master" in what and config.master is None:
        raise ConfigError("no master key: set system.master_key or pass --key")
    if "out" in what and config.out_dir is None:
        raise ConfigError("no output directory: set out_dir or pass --out")


def _check_paths(paths: tuple[Path, ...]) -> None:
    missing = [str(p) for p in paths if not p.is_file()]
    if missing:
        raise ConfigError(f"missing dataset file(s): {', '.join(missing)}")


def _load_split(config: RunConfig, which: str) -> LabeledSet:
    paths = config.train_paths if which == "train" else config.test_paths
    _check_paths(paths)
    if config.dataset_format == "idx":
        data = load_idx(paths[0], paths[1], name=config.dataset_name)
    else:
        data = load_cifar10(paths, name=config.dataset_name)
    rows, cols = data.images.shape[1:3]
    if rows != cols:
        raise ConfigError(f"{paths[0]} holds {rows}x{cols} images; "
                          "every system needs square N x N images")
    return data


def _arch_for(config: RunConfig, data: LabeledSet) -> ArchSpec:
    return mlp_arch(data.size * data.size * data.colors, config.hidden,
                    config.classes)


def _system_path(config: RunConfig, branches: int) -> Path:
    return config.out_dir / f"system-i{branches}.rdiv"


def _surrogate_path(config: RunConfig) -> Path:
    return config.out_dir / "surrogate.rdiv"


def _adv_path(config: RunConfig, name: str) -> Path:
    return config.out_dir / f"adv-{name}.radv"


def _pct(errors: int, limit: int) -> str:
    """Exact half-up percentage with two decimals: 703/20000 -> '3.52'."""
    value = Decimal(errors * 100) / Decimal(limit)
    return str(value.quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def _load_adv_for(config: RunConfig, name: str, slice_: LabeledSet) -> AdvSet:
    path = _adv_path(config, name)
    if not path.is_file():
        raise ConfigError(f"missing adversarial set {path}; run the attack command")
    adv = read_adv_set(path)
    if len(adv) != config.limit:
        raise ConfigError(f"{path} holds {len(adv)} samples, eval limit is "
                          f"{config.limit}")
    if (adv.originals.shape != slice_.images.shape
            or not np.array_equal(adv.originals, slice_.images)
            or not np.array_equal(adv.labels, slice_.labels)):
        raise ConfigError(f"{path} was not crafted from the first "
                          f"{config.limit} samples of dataset "
                          f"{config.dataset_name!r}")
    return adv


def cmd_train(config: RunConfig) -> int:
    _need(config, "dataset", "master", "out")
    trainset = _load_split(config, "train")
    testset = _load_split(config, "test")
    arch = _arch_for(config, trainset)
    config.out_dir.mkdir(parents=True, exist_ok=True)
    slice_ = take_first(testset, config.limit)
    # Channel (j, i) depends only on the master key and its lineage, so the
    # largest grid holds every smaller one: train each lineage once.
    full = build_system(config.mode, config.master, mode_groups(config.mode),
                        max(config.branch_grid), arch, trainset.size,
                        trainset.colors,
                        reject_threshold=config.reject_threshold,
                        per_color=config.per_color)
    full = train_system(full, trainset, config.hyper, workers=config.workers)
    decisions = nested_decisions(full, config.branch_grid, slice_.images)
    for branches in config.branch_grid:
        path = _system_path(config, branches)
        save_system(path, first_branches(full, branches))
        errors = decision_errors(decisions[branches], slice_.labels)
        print(f"system-i{branches}: clean error "
              f"{_pct(errors, config.limit)}% on {config.limit} samples -> {path}")
    return 0


def cmd_surrogate(config: RunConfig) -> int:
    _need(config, "dataset", "master", "out")
    trainset = _load_split(config, "train")
    testset = _load_split(config, "test")
    arch = _arch_for(config, trainset)
    config.out_dir.mkdir(parents=True, exist_ok=True)
    params = train_surrogate(trainset, arch, config.hyper, config.master)
    path = _surrogate_path(config)
    save_params(path, params, derive_subkey(config.master, 0, 0, TAG_INIT))
    slice_ = take_first(testset, config.limit)
    preds = forward(params, slice_.images.reshape(config.limit, -1)).argmax(axis=1)
    errors = decision_errors(preds, slice_.labels)
    print(f"surrogate: clean error {_pct(errors, config.limit)}% "
          f"on {config.limit} samples -> {path}")
    return 0


def cmd_attack(config: RunConfig) -> int:
    _need(config, "dataset", "out")
    if not config.attacks:
        raise ConfigError("no attacks configured")
    path = _surrogate_path(config)
    if not path.is_file():
        raise ConfigError(f"missing surrogate {path}; run the surrogate command")
    params, _ = read_params(path)
    testset = _load_split(config, "test")
    slice_ = take_first(testset, config.limit)
    if params.arch.input_dim != slice_.size * slice_.size * slice_.colors:
        raise ConfigError(f"{path} was trained on differently shaped "
                          f"images than dataset {config.dataset_name!r}")
    for name, attack in config.attacks:
        adv = craft_adv_set(params, slice_, attack)
        out = _adv_path(config, name)
        save_adv_set(out, adv)
        print(f"{name}: surrogate error {adv.surrogate_success_pct:.2f}% "
              f"on {len(adv)} samples -> {out}")
    return 0


def _read_grid_file(config: RunConfig, branches: int, slice_: LabeledSet) -> SystemSpec:
    path = _system_path(config, branches)
    system = read_system(path)
    if config.reject_threshold is not None:
        system = replace(system, reject_threshold=config.reject_threshold)
    if system.mode != config.mode or system.branches != branches:
        raise ConfigError(f"{path} does not match the configured mode/grid")
    if (system.size, system.colors) != (slice_.size, slice_.colors):
        raise ConfigError(f"{path} was trained on differently shaped "
                          f"images than dataset {config.dataset_name!r}")
    return system


def _evaluate_rows(config: RunConfig) -> list[dict]:
    """Shared by eval and report: one clean row per system, one per attack.

    The largest system file is read and checked, and only its grid is
    scored: each smaller file must hold exactly the bytes `train` writes
    for its first branches, and `nested_decisions` gives every grid's
    decisions from one score per channel and image set. A configured
    master key that differs from the files' evaluates the channels under
    preprocessors re-derived from that key (`rebuild_preprocessors`).
    """
    _need(config, "dataset", "out")
    for branches in config.branch_grid:
        path = _system_path(config, branches)
        if not path.is_file():
            raise ConfigError(f"missing system file {path}; run the train command")
    testset = _load_split(config, "test")
    slice_ = take_first(testset, config.limit)
    advsets = [(name, _load_adv_for(config, name, slice_))
               for name, _ in config.attacks]
    top = max(config.branch_grid)
    largest = _read_grid_file(config, top, slice_)
    for branches in config.branch_grid:
        path = _system_path(config, branches)
        if branches != top and not system_file_equals(
                path, first_branches(largest, branches)):
            raise ConfigError(f"{path} is not the first {branches} branches of "
                              f"{_system_path(config, top)}; rerun the train command")
    if config.master is not None and config.master != largest.master:
        largest = rebuild_preprocessors(largest, config.master)

    image_sets = [("none", slice_.images, slice_.labels)] + [
        (name, adv.adversarials, adv.labels) for name, adv in advsets]
    pct = {}
    for name, images, labels in image_sets:
        decisions = nested_decisions(largest, config.branch_grid, images)
        for branches, decided in decisions.items():
            pct[branches, name] = _pct(decision_errors(decided, labels), config.limit)
    rows = []
    for branches in config.branch_grid:
        clean = pct[branches, "none"]
        base = {"dataset": config.dataset_name, "mode": largest.mode,
                "J": largest.groups, "I": branches,
                "master_key": largest.master.to_hex(), "limit": config.limit}
        rows.append(base | {"attack": "none", "clean_error_pct": clean,
                            "adv_error_pct": clean})
        for name, _ in advsets:
            rows.append(base | {"attack": name, "clean_error_pct": clean,
                                "adv_error_pct": pct[branches, name]})
    return rows


def cmd_eval(config: RunConfig) -> int:
    for row in _evaluate_rows(config):
        print(f"system-i{row['I']} {row['attack']}: clean {row['clean_error_pct']}% "
              f"adversarial {row['adv_error_pct']}%")
    return 0


REPORT_COLUMNS = ("dataset", "mode", "J", "I", "attack", "clean_error_pct",
                  "adv_error_pct", "master_key", "limit")


def cmd_report(config: RunConfig) -> int:
    rows = _evaluate_rows(config)
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=REPORT_COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    text = buffer.getvalue()
    path = config.out_dir / "report.csv"
    atomic_write_bytes(path, text.encode("utf-8"))
    sys.stdout.write(text)
    print(f"report -> {path}")
    return 0


def cmd_gradcheck(config: RunConfig) -> int:
    master = config.master if config.master is not None else MasterKey(0)
    arch = mlp_arch(12, (8, 6), 4)
    worst = 0.0
    for trial in range(3):
        key = derive_subkey(master, 0, trial, TAG_INIT)
        params = init_params(arch, key)
        x = uniform_floats(derive_subkey(master, 1, trial, TAG_INIT),
                           arch.input_dim)
        worst = max(worst, finite_difference_max_error(
            params, x.astype(np.float64), trial % arch.classes))
    print(f"gradcheck: max relative error {worst:.3e} "
          f"(tolerance {_GRADCHECK_TOLERANCE:.0e})")
    if worst >= _GRADCHECK_TOLERANCE:
        print("gradcheck: FAILED", file=sys.stderr)
        return 1
    return 0


_COMMANDS = {
    "train": cmd_train,
    "surrogate": cmd_surrogate,
    "attack": cmd_attack,
    "eval": cmd_eval,
    "gradcheck": cmd_gradcheck,
    "report": cmd_report,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rdiv",
        description="Keyed multi-channel classifier defense: train, attack, "
                    "evaluate, report.")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", metavar="PATH",
                        help="YAML run config")
    parser.add_argument("--key", metavar="HEX16",
                        help="master key, 16 hex digits (overrides config)")
    parser.add_argument("--out", metavar="DIR",
                        help="output directory (overrides config)")
    parser.add_argument("--limit", metavar="N", type=int,
                        help="evaluation slice size (overrides config)")
    parser.add_argument("--channels", metavar="I", type=int,
                        help="branches per group (overrides config grid)")
    parser.add_argument("--mode", metavar="NAME",
                        help="system mode (overrides config)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        text = ""
        if args.config is not None:
            config_path = Path(args.config)
            if not config_path.is_file():
                raise ConfigError(f"config file not found: {config_path}")
            text = config_path.read_text()
        raw = _load_yaml(text)
        _apply_flags(raw, args)
        return _COMMANDS[args.command](_validate(raw))
    # ConfigError, BlobFormatError and DatasetFormatError are ValueErrors.
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
