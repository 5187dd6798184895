"""Set-up, the three workloads, and the output checks of the rdiv benchmark.

Every workload drives rdiv's public API from outside the package with one
client in a closed loop: a pass starts when the previous pass has returned.

  pipeline  the README CLI run train -> surrogate -> attack -> report,
            in-process through rdiv.cli.main on a config written here.
  defend    the eval work: read two reference grids and an FGSM set, then
            classify the clean and adversarial slices through each grid.
  attack    PGD and CW-l2 against the surrogate; each set is saved, read
            back and scored with transfer_eval against a small grid.

Set-up builds what any workload needs from the seed alone: synthetic digits
written as IDX files, the YAML config, the surrogate, the reference grids
(direct-permutation I=10 and dct-sign-flip-3band 3x3), a small
direct-permutation I=2 grid and the FGSM set. Outputs are checked after
each call, outside the timed region; a call that raises or whose output
fails a check counts as one failed operation.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import shutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

TRAIN_IMAGES = 2000
LIMIT = 1000            # evaluation slice: the whole synthetic test split
HIDDEN = (256, 128)
LEARNING_RATE = 0.001
BATCH_SIZE = 64
EPOCHS = 1
BRANCH_GRID = (1, 5, 10)
SMALL_BRANCHES = 2

# Bounds on what the unmodified code produces on these inputs; they catch
# broken outputs, not a weak defense. Seeds 1-10 and 1009 gave clean error
# 17-37% for the grids and up to 43% for one channel, surrogate success
# 100% for FGSM and PGD and 61-73% for CW.
CLEAN_ERROR_MAX_PCT = 55.0
SURROGATE_SUCCESS_MIN_PCT = {"fgsm": 95.0, "pgd-linf": 95.0, "cw-l2": 50.0}


def attack_configs(rdiv):
    fgsm = rdiv.AttackConfig("fgsm", eps=0.3)
    pgd = rdiv.AttackConfig("pgd-linf", eps=0.3, alpha=0.02, steps=40)
    cw = rdiv.AttackConfig("cw-l2", c=1.0, iterations=10, step_size=0.01)
    return fgsm, pgd, cw


def master_key_value(seed: int) -> int:
    return int.from_bytes(hashlib.sha256(f"rdiv-perfbench/{seed}".encode()).digest()[:8],
                          "little")


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Ledger:
    """Attempted and failed operations; each failure is reported on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def op(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: FAILED {what}", file=sys.stderr)
        return ok


@dataclass
class Inputs:
    """Everything set-up leaves for the workloads."""

    directory: Path
    config: Path
    trainset: object
    testset: object
    surrogate: object
    grids: dict                 # name -> SystemSpec: perm, dct, small
    files: dict                 # name -> Path of each written artifact
    fgsm: object                # AdvSet crafted in set-up
    reference: dict = field(default_factory=dict)  # expected decisions etc.

    def digests(self) -> dict[str, str]:
        return {name: sha256_file(path) for name, path in sorted(self.files.items())}


def setup(rdiv, synth, seed: int, directory: Path) -> Inputs:
    """Build every workload input from `seed` under `directory`."""
    directory.mkdir(parents=True)
    train_pixels, train_labels = synth.make_dataset(TRAIN_IMAGES, seed=2 * seed + 1)
    test_pixels, test_labels = synth.make_dataset(LIMIT, seed=2 * seed + 2)
    train_paths = synth.write_idx(directory, "train", train_pixels, train_labels)
    test_paths = synth.write_idx(directory, "test", test_pixels, test_labels)
    master = rdiv.MasterKey(master_key_value(seed))
    fgsm_config, pgd_config, _ = attack_configs(rdiv)
    config = directory / "run.yaml"
    config.write_text(_pipeline_yaml(train_paths, test_paths, master.to_hex(),
                                     fgsm_config, pgd_config))

    trainset = rdiv.load_idx(*train_paths, name="synth")
    testset = rdiv.load_idx(*test_paths, name="synth")
    size, colors = trainset.size, trainset.colors
    arch = rdiv.mlp_arch(size * size * colors, HIDDEN, 10)
    hyper = rdiv.Hyper(learning_rate=LEARNING_RATE, batch_size=BATCH_SIZE, epochs=EPOCHS)

    files = {"surrogate": directory / "surrogate.rdiv"}
    surrogate = rdiv.train_surrogate(trainset, arch, hyper, master)
    rdiv.save_params(files["surrogate"], surrogate,
                     rdiv.derive_subkey(master, 0, 0, rdiv.rng.TAG_INIT))
    grids = {}
    for name, mode, groups, branches in (
            ("perm", "direct-permutation", 1, 10),
            ("dct", "dct-sign-flip-3band", 3, 3),
            ("small", "direct-permutation", 1, SMALL_BRANCHES)):
        system = rdiv.build_system(mode, master, groups, branches, arch, size, colors)
        grids[name] = rdiv.train_system(system, trainset, hyper, workers=1)
        files[name] = directory / f"{name}-{mode}-{groups}x{branches}.rdiv"
        rdiv.save_system(files[name], grids[name])
    fgsm = rdiv.craft_adv_set(surrogate, testset, fgsm_config)
    files["fgsm"] = directory / "fgsm.radv"
    rdiv.save_adv_set(files["fgsm"], fgsm)
    return Inputs(directory, config, trainset, testset, surrogate, grids, files, fgsm)


def _pipeline_yaml(train_paths, test_paths, key_hex: str, fgsm, pgd) -> str:
    return yaml.safe_dump({
        "dataset": {"name": "synth", "format": "idx",
                    "train_images": str(train_paths[0]),
                    "train_labels": str(train_paths[1]),
                    "test_images": str(test_paths[0]),
                    "test_labels": str(test_paths[1])},
        "system": {"mode": "direct-permutation", "branches": list(BRANCH_GRID),
                   "master_key": key_hex},
        "arch": {"hidden": list(HIDDEN)},
        "train": {"learning_rate": LEARNING_RATE, "batch_size": BATCH_SIZE,
                  "epochs": EPOCHS},
        "attacks": [{"name": "fgsm", "kind": "fgsm", "eps": fgsm.eps},
                    {"name": "pgd-linf", "kind": "pgd-linf", "eps": pgd.eps,
                     "alpha": pgd.alpha, "steps": pgd.steps}],
        "eval": {"limit": LIMIT},
        "workers": 1,
    })


def record_references(rdiv, inputs: Inputs, ledger: Ledger) -> None:
    """Decisions of the in-memory grids, which every later read must reproduce."""
    ref = inputs.reference
    labels = inputs.testset.labels
    for name in ("perm", "dct", "small"):
        grid = inputs.grids[name]
        clean = rdiv.classify_batch(grid, inputs.testset.images)
        ref[(name, "clean")] = clean
        ref[(name, "fgsm")] = rdiv.classify_batch(grid, inputs.fgsm.adversarials)
        error = float(np.mean(clean != labels) * 100.0)
        ledger.op(error <= CLEAN_ERROR_MAX_PCT,
                  f"set-up: {name} grid clean error {error:.1f}% "
                  f"> {CLEAN_ERROR_MAX_PCT}%")
    success = inputs.fgsm.surrogate_success_pct
    ledger.op(success >= SURROGATE_SUCCESS_MIN_PCT["fgsm"],
              f"set-up: fgsm surrogate success {success:.1f}%")
    ref["digests"] = inputs.digests()


# --- workloads -------------------------------------------------------------
#
# Each pass function returns a dict of timings in seconds, with "pass" the
# wall time of the whole pass. `scope()` encloses the timed calls, so a
# traced run records spans there and not around the checks that follow.

def pipeline_pass(rdiv, inputs: Inputs, ledger: Ledger, out: Path,
                  scope=contextlib.nullcontext) -> dict:
    times = {}
    with scope():
        start = time.perf_counter()
        for command in ("train", "surrogate", "attack", "report"):
            begin = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                code = rdiv.cli.main([command, "--config", str(inputs.config),
                                      "--out", str(out)])
            times[command] = time.perf_counter() - begin
            if not ledger.op(code == 0, f"pipeline: rdiv {command} exited {code}"):
                raise RuntimeError(f"rdiv {command} failed")
        times["pass"] = time.perf_counter() - start
    _check_pipeline(rdiv, inputs, ledger, out)
    shutil.rmtree(out)
    return times


def _check_pipeline(rdiv, inputs: Inputs, ledger: Ledger, out: Path) -> None:
    digests = {p.name: sha256_file(p) for p in sorted(out.iterdir())}
    ref = inputs.reference
    # The CLI builds the same surrogate, I=10 grid and FGSM set as set-up.
    same_as_setup = (
        digests.get("surrogate.rdiv") == ref["digests"]["surrogate"]
        and digests.get("system-i10.rdiv") == ref["digests"]["perm"]
        and digests.get("adv-fgsm.radv") == ref["digests"]["fgsm"])
    ledger.op(same_as_setup, "pipeline: CLI artifacts differ from set-up's")
    first = ref.setdefault("pipeline-digests", digests)
    ledger.op(digests == first, "pipeline: artifact digests differ between passes")

    for branches in BRANCH_GRID:
        system = rdiv.read_system(out / f"system-i{branches}.rdiv")
        decisions = rdiv.classify_batch(system, inputs.testset.images)
        expected = ref.setdefault(("pipeline", branches), decisions)
        ledger.op(np.array_equal(decisions, expected),
                  f"pipeline: reloaded system-i{branches} decisions changed")
    ledger.op(np.array_equal(ref[("pipeline", 10)], ref[("perm", "clean")]),
              "pipeline: system-i10 decisions differ from set-up's grid")

    rows = (out / "report.csv").read_text().splitlines()
    header = rows[0].split(",")
    clean_col = header.index("clean_error_pct")
    clean = [float(row.split(",")[clean_col]) for row in rows[1:]]
    expected_rows = len(BRANCH_GRID) * 3  # clean, fgsm, pgd-linf per system
    ledger.op(len(clean) == expected_rows
              and all(0.0 <= c <= CLEAN_ERROR_MAX_PCT for c in clean),
              f"pipeline: report rows {rows[1:]}")


def defend_pass(rdiv, inputs: Inputs, ledger: Ledger, out: Path,
                scope=contextlib.nullcontext) -> dict:
    files = inputs.files
    times = {"perm": 0.0, "dct": 0.0}
    decisions = {}
    with scope():
        start = time.perf_counter()
        grids = {"perm": rdiv.read_system(files["perm"]),
                 "dct": rdiv.read_system(files["dct"])}
        adv = rdiv.read_adv_set(files["fgsm"])
        for name, grid in grids.items():
            for which, images in (("clean", inputs.testset.images),
                                  ("fgsm", adv.adversarials)):
                begin = time.perf_counter()
                decisions[(name, which)] = rdiv.classify_batch(grid, images)
                times[name] += time.perf_counter() - begin
        times["pass"] = time.perf_counter() - start

    for name, grid in grids.items():
        built = inputs.grids[name]
        ledger.op((grid.mode, grid.groups, grid.branches, grid.master)
                  == (built.mode, built.groups, built.branches, built.master),
                  f"defend: read_system {name} header differs from the saved grid")
    ledger.op(np.array_equal(adv.adversarials, inputs.fgsm.adversarials)
              and np.array_equal(adv.labels, inputs.fgsm.labels),
              "defend: read_adv_set differs from the crafted set")
    for key, got in decisions.items():
        ledger.op(np.array_equal(got, inputs.reference[key]),
                  f"defend: {key} decisions differ from set-up's grids")
    return times


def attack_pass(rdiv, inputs: Inputs, ledger: Ledger, out: Path,
                scope=contextlib.nullcontext) -> dict:
    _, pgd, cw = attack_configs(rdiv)
    out.mkdir()
    times = {}
    results = {}
    with scope():
        start = time.perf_counter()
        for config in (pgd, cw):
            begin = time.perf_counter()
            crafted = rdiv.craft_adv_set(inputs.surrogate, inputs.testset, config)
            times[config.kind] = time.perf_counter() - begin
            path = out / f"{config.kind}.radv"
            rdiv.save_adv_set(path, crafted)
            back = rdiv.read_adv_set(path)
            scored = rdiv.rescore_adv_set(back, inputs.surrogate)
            scores = rdiv.transfer_eval(inputs.grids["small"], inputs.surrogate,
                                        inputs.testset, config, LIMIT, adv=scored)
            results[config.kind] = (config, crafted, back, path, scores)
        times["pass"] = time.perf_counter() - start

    originals = inputs.testset.images
    small_clean = float(np.mean(inputs.reference[("small", "clean")]
                                != inputs.testset.labels) * 100.0)
    for kind, (config, crafted, back, path, scores) in results.items():
        adv = crafted.adversarials
        in_box = bool(adv.min() >= 0.0 and adv.max() <= 1.0)
        if kind == "pgd-linf":
            in_box = in_box and float(np.abs(adv - originals).max()) <= config.eps + 1e-6
        ledger.op(in_box, f"attack: {kind} output leaves [0, 1] or the eps-ball")
        digest = sha256_file(path)
        first = inputs.reference.setdefault(("attack", kind), digest)
        ledger.op(digest == first, f"attack: {kind} set differs between passes")
        ledger.op(back.config == crafted.config
                  and all(np.array_equal(getattr(back, f), getattr(crafted, f))
                          for f in ("indices", "labels", "originals", "adversarials")),
                  f"attack: {kind} set changed in the save/read round trip")
        clean, attacked, surrogate_pct, _ = scores
        ledger.op(clean == small_clean and 0.0 <= attacked <= 100.0
                  and surrogate_pct >= SURROGATE_SUCCESS_MIN_PCT[kind],
                  f"attack: {kind} transfer_eval gave {scores[:3]}")
    shutil.rmtree(out)
    return times


PASSES = {"pipeline": pipeline_pass, "defend": defend_pass, "attack": attack_pass}
