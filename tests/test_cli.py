import csv
import io
import os
import re
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
import yaml

from rdiv import cli
from rdiv.attacks import AdvSet
from rdiv.cli import ConfigError, _pct, parse_config
from rdiv.dataio import load_idx
from rdiv.nn import ArchSpec, Hyper, init_params, mlp_arch
from rdiv.rng import TAG_INIT, MasterKey, derive_subkey
from rdiv.serialize import read_adv_set, read_system, save_params, save_system
from rdiv.system import REJECT, build_system, decision_errors, predict_batch, train_system

from _helpers import read_written
from _synth import make_dataset, write_idx
from test_serialize import _reseal

TRAIN_COUNT = 120
TEST_COUNT = 60
KEY = "00c0ffee00c0ffee"


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("data")
    pixels, labels = make_dataset(TRAIN_COUNT, seed=11)
    write_idx(directory, "train", pixels, labels)
    pixels, labels = make_dataset(TEST_COUNT, seed=12)
    write_idx(directory, "test", pixels, labels)
    return directory


def config_dict(data_dir, out_dir, **overrides):
    base = {
        "dataset": {
            "name": "synth",
            "format": "idx",
            "train_images": str(data_dir / "train-images.idx"),
            "train_labels": str(data_dir / "train-labels.idx"),
            "test_images": str(data_dir / "test-images.idx"),
            "test_labels": str(data_dir / "test-labels.idx"),
        },
        "system": {"mode": "direct-permutation", "branches": [1, 2],
                   "master_key": KEY},
        "arch": {"hidden": [16]},
        "train": {"learning_rate": 0.005, "batch_size": 32, "epochs": 2},
        "attacks": [
            {"name": "fgsm0", "kind": "fgsm", "eps": 0.0},
            {"kind": "pgd-linf", "eps": 0.1, "alpha": 0.05, "steps": 3},
        ],
        "eval": {"limit": TEST_COUNT},
        "out_dir": str(out_dir),
    }
    base.update(overrides)
    return base


def write_config(path, data_dir, out_dir, **overrides):
    path.write_text(yaml.safe_dump(config_dict(data_dir, out_dir, **overrides)))
    return str(path)


def run(*argv):
    return cli.main(list(argv))


@pytest.fixture(scope="module")
def pipeline(data_dir, tmp_path_factory):
    """One full train/surrogate/attack run shared by the read-only tests."""
    out_dir = tmp_path_factory.mktemp("run")
    config = write_config(out_dir / "config.yaml", data_dir, out_dir)
    assert run("train", "--config", config) == 0
    assert run("surrogate", "--config", config) == 0
    assert run("attack", "--config", config) == 0
    return config, out_dir


def test_parse_config_defaults():
    config = parse_config("system:\n  master_key: '%s'\n" % KEY)
    assert config.master.to_hex() == KEY
    assert config.limit == 1000
    assert config.hidden == (256, 128)
    assert config.branch_grid == (1,)
    assert config.mode == "direct-permutation"
    assert config.workers == 1
    assert config.attacks == ()


def test_parse_config_rejects_unknown_keys(data_dir, tmp_path):
    good = config_dict(data_dir, tmp_path)
    for mutate, needle in [
        (lambda d: d.update(exploration=1), "exploration"),
        (lambda d: d["dataset"].update(shuffle=True), "shuffle"),
        (lambda d: d["system"].update(tau=0.5), "tau"),
        (lambda d: d["train"].update(momentum=0.9), "momentum"),
        (lambda d: d["attacks"][0].update(norm="l2"), "norm"),
    ]:
        bad = yaml.safe_load(yaml.safe_dump(good))
        mutate(bad)
        with pytest.raises(ConfigError, match=needle):
            parse_config(yaml.safe_dump(bad))


@pytest.mark.parametrize("text, message", [
    ("train: {1: 2, foo: 3}\n", "unknown key(s) in train: 1, foo"),
    ("{1: 2, foo: 3}\n", "unknown key(s) in config: 1, foo"),
    ("system: {null: 1}\n", "unknown key(s) in system: None"),
], ids=["section", "root", "null"])
def test_keys_that_are_not_strings_are_named(tmp_path, capsys, text, message):
    # Sorting or joining them with the string keys raised a TypeError.
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        parse_config(text)
    path = tmp_path / "c.yaml"
    path.write_text(text)
    assert run("train", "--config", str(path)) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("name, value, message", [
    ("system", "0", "section 'system' must be a mapping"),
    ("train", "false", "section 'train' must be a mapping"),
    ("eval", '""', "section 'eval' must be a mapping"),
    ("arch", "[]", "section 'arch' must be a mapping"),
    ("attacks", "{}", "attacks must be a list"),
])
def test_only_a_null_section_means_defaults(name, value, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        parse_config(f"{name}: {value}\n")
    assert parse_config(f"{name}: null\n") == parse_config("")


@pytest.mark.parametrize("check, text", [
    ("rdiv.cli.require_count", ""),
    ("rdiv.cli.check_settings", ""),
    ("rdiv.cli.check_reject_threshold", ""),
    ("rdiv.rng.MasterKey.__post_init__", f"system: {{master_key: '{KEY}'}}\n"),
])
def test_every_library_check_error_is_a_config_error(monkeypatch, check, text):
    """A ValueError from any library check the config runs, even one added
    later, comes out as a ConfigError with the same message."""
    def planted(*args, **kwargs):
        raise ValueError("planted check")

    monkeypatch.setattr(check, planted)
    with pytest.raises(ConfigError, match="^planted check$"):
        parse_config(text)


def test_parse_config_validates_values(data_dir, tmp_path):
    good = config_dict(data_dir, tmp_path)

    def parses(section="system", **overrides):
        bad = yaml.safe_load(yaml.safe_dump(good))
        (bad if section is None else bad[section]).update(overrides)
        return parse_config(yaml.safe_dump(bad))

    # J follows from the mode; there is no groups key to disagree with it.
    with pytest.raises(ConfigError, match="unknown key.*groups"):
        parses(groups=3)
    with pytest.raises(ConfigError, match="mode"):
        parses(mode="rot13")
    with pytest.raises(ConfigError):
        parses(master_key="xyz")
    with pytest.raises(ConfigError, match="branches"):
        parses(branches=[])
    with pytest.raises(ConfigError, match="branches"):
        parses(branches=[2, 0])
    # YAML booleans are Python ints; they must not become a grid of True.
    with pytest.raises(ConfigError, match="branches"):
        parses(branches=True)
    with pytest.raises(ConfigError, match="branches"):
        parses(branches=[1, False])
    # A repeated value would write the same system file, and its rows, twice.
    with pytest.raises(ConfigError, match="branches lists 2 more than once"):
        parses(branches=[2, 1, 2])
    # A quoted 'false' is a non-empty string, which bool() would call true.
    with pytest.raises(ConfigError, match="per_color"):
        parses(per_color="false")
    with pytest.raises(ConfigError, match="per_color"):
        parses(per_color=1)
    # Every count is a positive int: no bool, float or string stands in.
    for section, key, value in (
            ("train", "epochs", True), ("train", "batch_size", True),
            ("train", "epochs", 1.5), ("train", "learning_rate", True),
            ("eval", "limit", True), ("eval", "limit", 2.9),
            ("eval", "limit", "5"), (None, "workers", True),
            ("arch", "hidden", [True]), ("arch", "hidden", [2.7]),
            ("arch", "hidden", [0]), ("arch", "hidden", 16),
            ("dataset", "classes", 0), ("dataset", "classes", True),
            ("dataset", "name", [1, 2]), ("dataset", "name", 5),
            ("dataset", "name", True), ("dataset", "name", ""),
            ("system", "branches", 2.0), ("system", "reject_threshold", True),
            ("system", "reject_threshold", "0.5")):
        with pytest.raises(ConfigError, match=key if section != "train" else "train"):
            parses(section, **{key: value})
    bad = yaml.safe_load(yaml.safe_dump(good))
    bad["attacks"].append({"name": "fgsm0", "kind": "fgsm"})
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(yaml.safe_dump(bad))
    # The name becomes a file name in out_dir; it may not leave it.
    for name in ("x/y", "..", ".", "", "a\\b", 5, None):
        bad = yaml.safe_load(yaml.safe_dump(good))
        bad["attacks"][1]["name"] = name
        with pytest.raises(ConfigError, match=r"attacks\[1\] name"):
            parse_config(yaml.safe_dump(bad))
    bad = yaml.safe_load(yaml.safe_dump(good))
    bad["attacks"][1]["eps"] = -1
    with pytest.raises(ConfigError, match="attacks"):
        parse_config(yaml.safe_dump(bad))
    # A negative target would index the last class instead of failing.
    # Only cw-l2 runs targeted, so the entry becomes one.
    for target in (-1, True, 1.0, "2"):
        bad = yaml.safe_load(yaml.safe_dump(good))
        bad["attacks"][1].update(kind="cw-l2", targeted=True, target=target)
        with pytest.raises(ConfigError, match="target"):
            parse_config(yaml.safe_dump(bad))


def test_parse_config_refuses_bad_attack_and_train_values(data_dir, tmp_path):
    # Each of these once parsed and then failed or misled at run time: a
    # float step count raised TypeError inside `rdiv attack`, `true` ran one
    # iteration, a quoted "no" ran a targeted attack, a targeted pgd-linf
    # ran untargeted, a NaN learning rate died in training and beta1 = 1.5
    # trained a useless model. Adam's constants are no longer settings, so
    # beta1 and the others are now refused as unknown keys.
    good = config_dict(data_dir, tmp_path)
    nan, inf = float("nan"), float("inf")
    for section, field, value in (
            ("attacks", "steps", 2.5), ("attacks", "iterations", True),
            ("attacks", "targeted", "no"), ("attacks", "targeted", True),
            ("attacks", "eps", nan),
            ("attacks", "alpha", inf), ("attacks", "c", True),
            ("attacks", "step_size", nan), ("attacks", "kappa", -inf),
            ("train", "learning_rate", nan), ("train", "learning_rate", inf)):
        bad = yaml.safe_load(yaml.safe_dump(good))
        (bad["attacks"][1] if section == "attacks" else bad["train"])[field] = value
        where = r"attacks\[1\]" if section == "attacks" else "train"
        with pytest.raises(ConfigError, match=f"{where}: {field}"):
            parse_config(yaml.safe_dump(bad))
    for field, value in (("beta1", 1.5), ("beta2", 0.999), ("eps", 1e-8),
                         ("weight_decay", 0.0), ("optimizer", "adam")):
        bad = yaml.safe_load(yaml.safe_dump(good))
        bad["train"][field] = value
        with pytest.raises(ConfigError, match=rf"^unknown key\(s\) in train: {field}$"):
            parse_config(yaml.safe_dump(bad))


def test_parse_config_rejects_per_color_outside_direct_permutation(data_dir, tmp_path):
    config = config_dict(data_dir, tmp_path)
    for mode in ("dct-sign-flip-3band", "dct-hard-threshold-3band", "identity"):
        config["system"].update(mode=mode, per_color=True)
        with pytest.raises(ConfigError, match="per_color"):
            parse_config(yaml.safe_dump(config))
    config["system"].update(mode="direct-permutation")
    assert parse_config(yaml.safe_dump(config)).per_color


def test_parse_config_rejects_reject_threshold_outside_unit_interval(data_dir, tmp_path):
    config = config_dict(data_dir, tmp_path)
    for threshold in (-0.5, 1.5, float("nan")):
        config["system"]["reject_threshold"] = threshold
        with pytest.raises(ConfigError, match="reject_threshold"):
            parse_config(yaml.safe_dump(config))
    config["system"]["reject_threshold"] = 1.0
    assert parse_config(yaml.safe_dump(config)).reject_threshold == 1.0


def test_readme_config_is_valid():
    # The README's one YAML block is the full config it documents.
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```yaml\n(.*?)^```$", readme, re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    config = parse_config(blocks[0])
    train = yaml.safe_load(blocks[0])["train"]
    assert set(train) <= {field.name for field in fields(Hyper)}
    assert config.hyper == Hyper(**train)


def test_flags_are_checked_like_config_values(tmp_path, capsys):
    # The dataset files do not exist: every refusal below comes first.
    config = write_config(tmp_path / "c.yaml", tmp_path / "nowhere", tmp_path / "out",
                          system={"mode": "direct-permutation", "per_color": True,
                                  "master_key": KEY})
    for argv, needle in ((["--mode", "identity"], "per_color"),
                         (["--mode", "rot13"], "unknown mode"),
                         (["--channels", "0"], "branches"),
                         (["--limit", "0"], "eval limit"),
                         (["--key", "0x00c0ffee00c0ff"], "key hex")):
        for command in ("train", "eval"):
            assert run(command, "--config", config, *argv) == 1
            err = capsys.readouterr().err
            assert needle in err and "missing" not in err, (argv, err)
    assert run("train", "--config", config) == 1
    assert "missing dataset file" in capsys.readouterr().err


def test_config_paths_must_be_strings(data_dir, tmp_path, capsys):
    # Path(5) would escape main as a TypeError traceback.
    for section, key, value in ((None, "out_dir", 5), (None, "out_dir", ""),
                                ("dataset", "train_images", 1),
                                ("dataset", "test_labels", True),
                                ("dataset", "test_images", ["a"])):
        config = config_dict(data_dir, tmp_path / "out")
        (config if section is None else config[section])[key] = value
        path = tmp_path / "c.yaml"
        path.write_text(yaml.safe_dump(config))
        assert run("train", "--config", str(path)) == 1
        assert key in capsys.readouterr().err, (key, value)


def test_cifar10_batches_must_be_lists_of_strings():
    def dataset(train, test):
        return yaml.safe_dump({"dataset": {"name": "cifar", "format": "cifar10",
                                           "train_batches": train,
                                           "test_batches": test}})

    assert parse_config(dataset(["b1", "b2"], ["t"])).train_paths == (
        Path("b1"), Path("b2"))
    # A bare string would otherwise become one path per character.
    for train, test, needle in (("abc", ["t"], "train_batches"),
                                (["b1"], "t", "test_batches"),
                                ([], ["t"], "train_batches"),
                                (["b1", 2], ["t"], "train_batches"),
                                (["b1"], [None], "test_batches")):
        with pytest.raises(ConfigError, match=needle):
            parse_config(dataset(train, test))


def test_unquoted_numeric_master_key_is_refused():
    # YAML 1.1 reads 0000000000000123 as octal 83 and 1234567890123456 as
    # a decimal int; neither may stand in for the digits as written.
    for key in ("0000000000000123", "1234567890123456"):
        with pytest.raises(ConfigError, match="in quotes") as excinfo:
            parse_config(f"system:\n  master_key: {key}\n")
        assert "83" not in str(excinfo.value)
        config = parse_config(f"system:\n  master_key: '{key}'\n")
        assert config.master.to_hex() == key


def test_malformed_yaml_exits_cleanly(tmp_path):
    # A parser error is a config error with the parser's line and column,
    # not a traceback out of main.
    path = tmp_path / "bad.yaml"
    path.write_text("system: [1,")
    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-m", "rdiv.cli", "train", "--config", str(path)],
                          capture_output=True, text=True, env=env, check=False)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr
    assert "line 1, column 12" in proc.stderr
    with pytest.raises(ConfigError, match="line 1, column 12"):
        parse_config("system: [1,")


@pytest.mark.parametrize("text, key, line", [
    ("out_dir: a\nworkers: 1\nout_dir: b\n", "out_dir", 3),
    ("system:\n  mode: identity\n  mode: direct-permutation\n", "mode", 3),
    (f"system:\n  master_key: '{KEY}'\n  branches: 2\n  master_key: '{'1' * 16}'\n",
     "master_key", 4),
    ("attacks:\n  - kind: fgsm\n    eps: 0.1\n  - kind: pgd-linf\n    eps: 0.1\n"
     "    steps: 3\n    eps: 0.2\n", "eps", 7),
], ids=["top-level", "section", "master-key", "attack-entry"])
def test_duplicate_yaml_keys_are_refused(text, key, line):
    # PyYAML alone keeps the last of two equal keys.
    with pytest.raises(ConfigError, match=f"line {line}, column \\d+: duplicate key '{key}'"):
        parse_config(text)


def test_duplicate_yaml_key_fails_the_command(tmp_path, capsys):
    path = tmp_path / "c.yaml"
    path.write_text("system:\n  mode: identity\n  mode: direct-permutation\n")
    assert run("train", "--config", str(path)) == 1
    assert capsys.readouterr().err.startswith("error: invalid config YAML at line 3")


def test_merge_keys_may_still_be_overridden():
    # `<<` merges an anchored mapping; a key after it overrides, as YAML defines.
    config = parse_config("attacks:\n  - &base {kind: pgd-linf, eps: 0.1, steps: 3}\n"
                          "  - <<: *base\n    name: wide\n    eps: 0.2\n")
    assert [(name, c.eps) for name, c in config.attacks] == [("pgd-linf", 0.1), ("wide", 0.2)]


def test_pct_rounds_half_up_exactly():
    assert _pct(703, 20000) == "3.52"
    assert _pct(0, 1000) == "0.00"
    assert _pct(1000, 1000) == "100.00"
    assert _pct(1, 3) == "33.33"
    assert _pct(2, 3) == "66.67"
    assert _pct(125, 1000) == "12.50"


BIG = 10**400


@pytest.mark.parametrize("text, line", [
    (f"train: {{learning_rate: {BIG}}}",
     f"train: learning_rate must be a number in (0, inf), got {BIG}"),
    (f"system: {{reject_threshold: {BIG}}}",
     f"reject_threshold must be a number in [0, 1], got {BIG}"),
    (f"attacks: [{{kind: fgsm, eps: {BIG}}}]",
     f"attacks[0]: eps must be a number in [0, inf), got {BIG}"),
], ids=["learning_rate", "reject_threshold", "eps"])
def test_an_int_past_the_float_range_ends_in_one_error_line(tmp_path, capsys, text, line):
    # float() of such an int overflows; it is refused as a number out of range.
    path = tmp_path / "big.yaml"
    path.write_text(text + "\n")
    assert run("train", "--config", str(path)) == 1
    assert capsys.readouterr() == ("", f"error: {line}\n")


def test_missing_config_file(capsys):
    assert run("train", "--config", "/nonexistent/config.yaml") == 1
    assert "config file not found" in capsys.readouterr().err


def test_non_finite_training_ends_in_an_error_line(data_dir, tmp_path, capsys):
    # Adam's first step at this rate overflows the next forward pass.
    config = write_config(tmp_path / "c.yaml", data_dir, tmp_path / "out",
                          train={"learning_rate": 1.0e30, "batch_size": 32, "epochs": 1})
    # The surrogate is channel (0, 0) of an identity grid, and says so too.
    for command in ("train", "surrogate"):
        assert run(command, "--config", config) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: non-finite activations after layer ")
        assert err.endswith(" in epoch 0 of channel (0, 0)\n")
        assert "Traceback" not in err


def test_a_cw_target_outside_the_classes_is_refused_before_any_artifact(data_dir, tmp_path,
                                                                         capsys):
    # `target: 12` with 10 classes once parsed; `attack` then wrote
    # adv-fgsm0.radv before the cw entry failed.
    config = config_dict(data_dir, tmp_path / "out")
    config["attacks"].append({"name": "cw", "kind": "cw-l2", "targeted": True, "target": 12,
                              "iterations": 2})
    path = tmp_path / "c.yaml"
    path.write_text(yaml.safe_dump(config))
    for command in ("train", "surrogate", "attack", "eval", "report"):
        assert run(command, "--config", str(path)) == 1
        assert capsys.readouterr().err == "error: attacks[2]: target 12 is not in [0, 10)\n"
    assert not (tmp_path / "out").exists()
    config["attacks"][2]["target"] = 9
    config["dataset"]["classes"] = 9
    with pytest.raises(ConfigError, match=r"^attacks\[2\]: target 9 is not in \[0, 9\)$"):
        parse_config(yaml.safe_dump(config))
    config["attacks"][2]["targeted"] = False
    assert parse_config(yaml.safe_dump(config)).attacks[2][1].target == 9


def test_labels_outside_the_dataset_classes_are_refused_where_they_load(
        pipeline, data_dir, tmp_path, capsys):
    # Each split is checked as it loads: otherwise `report` would count such
    # an image as an error, and training would name neither file nor setting.
    out_dir = tmp_path / "out"
    config = config_dict(data_dir, out_dir)
    config["dataset"]["classes"] = 2
    path = tmp_path / "two.yaml"
    path.write_text(yaml.safe_dump(config))
    labels_path = data_dir / "train-labels.idx"
    first = next(v for v in load_idx(data_dir / "train-images.idx", labels_path).labels
                 if v >= 2)
    for command in ("train", "surrogate"):
        assert run(command, "--config", str(path)) == 1
        assert capsys.readouterr().err == (f"error: {labels_path} holds label {first}, "
                                           "dataset classes is 2\n")
    assert not out_dir.exists()

    pixels, labels = make_dataset(TEST_COUNT, seed=12)
    labels[0] = 12
    _, labels_path = write_idx(tmp_path, "test", pixels, labels)
    config, run_dir = pipeline
    relabelled = config_dict(data_dir, run_dir)
    relabelled["dataset"].update(test_labels=str(labels_path))
    path.write_text(yaml.safe_dump(relabelled))
    for command in ("attack", "eval", "report"):
        assert run(command, "--config", str(path)) == 1
        assert capsys.readouterr().err == (f"error: {labels_path} holds label 12, "
                                           "dataset classes is 10\n")


def test_cifar10_labels_outside_the_classes_name_the_batch_list(tmp_path, capsys):
    batch = tmp_path / "batch.bin"
    records = np.zeros((2, 3073), np.uint8)
    records[:, 0] = (3, 7)
    batch.write_bytes(records.tobytes())
    path = tmp_path / "c.yaml"
    path.write_text(yaml.safe_dump({
        "dataset": {"name": "cifar", "format": "cifar10", "classes": 5,
                    "train_batches": [str(batch)], "test_batches": [str(batch)]},
        "system": {"master_key": KEY}, "out_dir": str(tmp_path / "out")}))
    assert run("train", "--config", str(path)) == 1
    assert capsys.readouterr().err == ("error: dataset train_batches holds label 7, "
                                       "dataset classes is 5\n")
    assert not (tmp_path / "out").exists()


def test_adam_overflow_ends_in_an_error_line_and_saves_nothing(data_dir, tmp_path, capsys):
    # Weights near 1e10 in three dense layers overflow Adam's second moment
    # while every forward pass stays finite.
    out_dir = tmp_path / "out"
    config = write_config(tmp_path / "c.yaml", data_dir, out_dir, arch={"hidden": [32, 16]},
                          train={"learning_rate": 1.0e10, "batch_size": 16, "epochs": 3})
    assert run("train", "--config", config) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: Adam update: overflow encountered in \w+ "
                        r"in epoch \d+ of channel \(0, 0\)\n", err)
    assert not list(out_dir.iterdir())


def test_a_breaking_last_step_fails_inside_training(data_dir, tmp_path, capsys):
    # One batch holds the whole training split, so the run's one step is its
    # last, and only the final check in `train` runs the network after it.
    config = write_config(tmp_path / "c.yaml", data_dir, tmp_path / "out",
                          train={"learning_rate": 1.0e30, "batch_size": TRAIN_COUNT,
                                 "epochs": 1})
    for command in ("train", "surrogate"):
        assert run(command, "--config", config) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: non-finite activations after layer ")
        assert err.endswith(" in epoch 0 of channel (0, 0)\n")
    assert not list((tmp_path / "out").iterdir())


def test_train_needs_master_key(data_dir, tmp_path, capsys):
    config = config_dict(data_dir, tmp_path)
    del config["system"]["master_key"]
    path = tmp_path / "c.yaml"
    path.write_text(yaml.safe_dump(config))
    assert run("train", "--config", str(path)) == 1
    assert "master key" in capsys.readouterr().err


def test_pipeline_writes_expected_artifacts(pipeline):
    _, out_dir = pipeline
    for name in ("system-i1.rdiv", "system-i2.rdiv", "surrogate.rdiv",
                 "adv-fgsm0.radv", "adv-pgd-linf.radv"):
        assert (out_dir / name).is_file()
    assert (out_dir / "system-i1.rdiv").read_bytes()[:4] == b"RDIV"
    assert (out_dir / "surrogate.rdiv").read_bytes()[:4] == b"RDIV"
    assert (out_dir / "adv-fgsm0.radv").read_bytes()[:4] == b"RADV"
    system = read_system(out_dir / "system-i2.rdiv")
    assert system.branches == 2
    assert system.master.to_hex() == KEY


def test_zero_eps_attack_stores_originals(pipeline):
    _, out_dir = pipeline
    adv = read_adv_set(out_dir / "adv-fgsm0.radv")
    assert len(adv) == TEST_COUNT
    assert np.array_equal(adv.adversarials, adv.originals)


def test_eval_prints_rows(pipeline, capsys):
    config, _ = pipeline
    assert run("eval", "--config", config) == 0
    out = capsys.readouterr().out
    for needle in ("system-i1 none:", "system-i1 fgsm0:", "system-i2 pgd-linf:"):
        assert needle in out


def test_report_shape_and_determinism(pipeline, capsys):
    config, out_dir = pipeline
    assert run("report", "--config", config) == 0
    capsys.readouterr()
    first = (out_dir / "report.csv").read_bytes()
    lines = first.decode().strip().split("\n")
    assert lines[0] == ("dataset,mode,J,I,attack,clean_error_pct,"
                        "adv_error_pct,master_key,limit")
    assert len(lines) == 1 + 2 * 3  # two systems x (clean + two attacks)
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[0] == "synth"
        assert cells[1] == "direct-permutation"
        assert cells[2] == "1"
        assert cells[7] == KEY
        assert cells[8] == str(TEST_COUNT)
        for pct in (cells[5], cells[6]):
            whole, frac = pct.split(".")
            assert whole.isdigit() and len(frac) == 2
    clean_row = lines[1].split(",")
    assert clean_row[4] == "none"
    assert clean_row[5] == clean_row[6]

    assert run("report", "--config", config) == 0
    assert (out_dir / "report.csv").read_bytes() == first


def test_train_is_byte_identical_across_runs(pipeline, data_dir, tmp_path):
    _, first_dir = pipeline
    config = write_config(tmp_path / "c.yaml", data_dir, tmp_path / "run2")
    assert run("train", "--config", config) == 0
    for name in ("system-i1.rdiv", "system-i2.rdiv"):
        assert (tmp_path / "run2" / name).read_bytes() == \
            (first_dir / name).read_bytes()


@pytest.mark.parametrize("mode, groups", [("direct-permutation", 1),
                                          ("dct-sign-flip-3band", 3)])
def test_train_grid_matches_separately_trained_systems(data_dir, tmp_path, mode, groups):
    # `rdiv train` trains the largest grid once and writes the smaller ones
    # from its first branches; the bytes must equal one build per grid value.
    out_dir = tmp_path / "run"
    config_path = write_config(tmp_path / "c.yaml", data_dir, out_dir, system={
        "mode": mode, "branches": [1, 3], "master_key": KEY})
    assert run("train", "--config", config_path) == 0

    parsed = parse_config((tmp_path / "c.yaml").read_text())
    trainset = load_idx(data_dir / "train-images.idx", data_dir / "train-labels.idx")
    arch = mlp_arch(trainset.size * trainset.size * trainset.colors, parsed.hidden, 10)
    for branches in (1, 3):
        system = build_system(mode, parsed.master, groups, branches, arch,
                              trainset.size, trainset.colors)
        expected = tmp_path / f"expected-i{branches}.rdiv"
        save_system(expected, train_system(system, trainset, parsed.hyper))
        assert (out_dir / f"system-i{branches}.rdiv").read_bytes() == \
            expected.read_bytes()


def test_channels_override(pipeline, data_dir, tmp_path):
    config = write_config(tmp_path / "c.yaml", data_dir, tmp_path / "run3")
    assert run("train", "--config", config, "--channels", "3") == 0
    run_dir = tmp_path / "run3"
    assert (run_dir / "system-i3.rdiv").is_file()
    assert not (run_dir / "system-i1.rdiv").is_file()


def test_mode_override_takes_groups_from_the_mode(data_dir, tmp_path):
    config = write_config(tmp_path / "c.yaml", data_dir, tmp_path / "run5")
    assert run("train", "--config", config, "--mode", "dct-sign-flip-3band",
               "--channels", "1") == 0
    system = read_system(tmp_path / "run5" / "system-i1.rdiv")
    assert (system.mode, system.groups, system.branches) == ("dct-sign-flip-3band", 3, 1)


def test_key_override_changes_artifacts(pipeline, data_dir, tmp_path):
    _, first_dir = pipeline
    config = write_config(tmp_path / "c.yaml", data_dir, tmp_path / "run4")
    assert run("train", "--config", config, "--key", "1111222233334444",
               "--channels", "1") == 0
    mine = (tmp_path / "run4" / "system-i1.rdiv").read_bytes()
    theirs = (first_dir / "system-i1.rdiv").read_bytes()
    assert mine != theirs
    assert read_system(tmp_path / "run4" / "system-i1.rdiv").master.to_hex() \
        == "1111222233334444"


OTHER_KEY = "1111222233334444"


def report_rows(capsys, *argv):
    capsys.readouterr()
    assert run("report", *argv) == 0
    lines = capsys.readouterr().out.splitlines()
    return [line.split(",") for line in lines[1:-1]]


def without_key(rows):
    return [row[:7] + row[8:] for row in rows]


def test_key_override_rescores_keyed_channels(pipeline, tmp_path, capsys):
    config, out_dir = pipeline
    copy = tmp_path / "copy"
    shutil.copytree(out_dir, copy)
    right = report_rows(capsys, "--config", config, "--out", str(copy))
    wrong = report_rows(capsys, "--config", config, "--out", str(copy),
                        "--key", OTHER_KEY)
    assert [row[7] for row in right] == [KEY] * 6
    assert [row[7] for row in wrong] == [OTHER_KEY] * 6
    assert [row[:5] for row in wrong] == [row[:5] for row in right]
    assert without_key(wrong) != without_key(right)
    # The key the files were trained under gives the rows of no override.
    assert report_rows(capsys, "--config", config, "--out", str(copy),
                       "--key", KEY) == right


def test_key_override_leaves_identity_rows(data_dir, tmp_path, capsys):
    out_dir = tmp_path / "ident"
    config = write_config(tmp_path / "c.yaml", data_dir, out_dir, attacks=[],
                          system={"mode": "identity", "branches": [2, 1],
                                  "master_key": KEY})
    assert run("train", "--config", config) == 0
    right = report_rows(capsys, "--config", config)
    wrong = report_rows(capsys, "--config", config, "--key", OTHER_KEY)
    assert [row[7] for row in wrong] == [OTHER_KEY] * 2
    assert without_key(wrong) == without_key(right)


def test_report_refuses_a_smaller_grid_from_another_key(pipeline, data_dir, tmp_path,
                                                        capsys):
    config, out_dir = pipeline
    other = write_config(tmp_path / "other.yaml", data_dir, tmp_path / "other")
    assert run("train", "--config", other, "--key", OTHER_KEY, "--channels", "1") == 0
    # One weight byte changed behind a valid digest: the file still loads.
    edited = bytearray((out_dir / "system-i1.rdiv").read_bytes())
    edited[-33] ^= 1
    edited = _reseal(bytes(edited))
    assert read_written(tmp_path / "edited.rdiv", read_system, edited).branches == 1
    saved = (out_dir / "system-i1.rdiv").read_bytes()
    # A corrupt smaller file fails its read, as a corrupt largest file does.
    other = ("{path} is not the first 1 branches of {copy}/system-i2.rdiv; "
             "rerun the train command")
    corrupt = "{path}: SHA-256 checksum mismatch"
    for name, blob, line in (
            ("other-key", (tmp_path / "other" / "system-i1.rdiv").read_bytes(), other),
            ("one-weight-byte", edited, other),
            ("appended-byte", saved + b"\x00", corrupt),
            ("last-byte-cut", saved[:-1], corrupt)):
        copy = tmp_path / name
        shutil.copytree(out_dir, copy)
        (copy / "system-i1.rdiv").write_bytes(blob)
        (copy / "report.csv").unlink(missing_ok=True)
        capsys.readouterr()
        assert run("report", "--config", config, "--out", str(copy)) == 1
        line = line.format(path=copy / "system-i1.rdiv", copy=copy)
        assert capsys.readouterr() == ("", f"error: {line}\n")
        assert not (copy / "report.csv").exists()


# Rejects 13 of the 60 clean test images at I=1 and 26 at I=2; no normalized
# top score of the pipeline's grids lies within 1e-4 of it.
THRESHOLD = 0.14


def test_the_reject_threshold_reaches_train_eval_and_report(pipeline, data_dir, tmp_path,
                                                            capsys):
    _, saved = pipeline
    out = tmp_path / "out"
    shutil.copytree(saved, out)
    cfg = config_dict(data_dir, out)
    cfg["system"]["reject_threshold"] = THRESHOLD
    path = tmp_path / "c.yaml"
    path.write_text(yaml.safe_dump(cfg))
    capsys.readouterr()
    assert run("train", "--config", str(path)) == 0
    assert capsys.readouterr().out == (
        f"system-i1: clean error 86.67% on 60 samples -> {out / 'system-i1.rdiv'}\n"
        f"system-i2: clean error 83.33% on 60 samples -> {out / 'system-i2.rdiv'}\n")
    # The threshold decides; it is not part of a system file.
    for name in ("system-i1.rdiv", "system-i2.rdiv"):
        assert (out / name).read_bytes() == (saved / name).read_bytes()
    assert run("eval", "--config", str(path)) == 0
    printed = capsys.readouterr().out
    assert run("report", "--config", str(path)) == 0
    capsys.readouterr()
    report = (out / "report.csv").read_text()
    assert report == ",".join(cli.REPORT_COLUMNS) + "\n" + "".join(
        f"synth,direct-permutation,1,{row},{KEY},60\n"
        for row in ("1,none,86.67,86.67", "1,fgsm0,86.67,86.67", "1,pgd-linf,86.67,86.67",
                    "2,none,83.33,83.33", "2,fgsm0,83.33,83.33", "2,pgd-linf,83.33,85.00"))

    testset = load_idx(data_dir / "test-images.idx", data_dir / "test-labels.idx")
    images = {"none": testset.images, **{name: read_adv_set(out / f"adv-{name}.radv")
                                          .adversarials for name in ("fgsm0", "pgd-linf")}}
    rows = list(csv.DictReader(io.StringIO(report)))
    for row in rows:
        system = read_system(out / f"system-i{row['I']}.rdiv")
        total = predict_batch(system, images[row["attack"]])
        normalized = total.max(axis=1) / len(system.channels)
        decisions = np.where(normalized < THRESHOLD, REJECT, total.argmax(axis=1))
        errors = decision_errors(decisions, testset.labels)
        assert row["adv_error_pct"] == _pct(errors, TEST_COUNT), row
        if row["attack"] == "none":
            assert 0 < (decisions == REJECT).sum() < TEST_COUNT
    assert printed == "".join(f"system-i{row['I']} {row['attack']}: clean "
                              f"{row['clean_error_pct']}% adversarial "
                              f"{row['adv_error_pct']}%\n" for row in rows)


@pytest.mark.parametrize("split", ["train", "test"])
def test_train_refuses_non_square_images(data_dir, tmp_path, capsys, monkeypatch, split):
    # load_idx takes any rows x cols; a system needs N x N images.
    pixels, labels = make_dataset(TEST_COUNT, seed=12)
    wide = np.zeros((TEST_COUNT, 28, 30), dtype=np.uint8)
    wide[:, :, :28] = pixels
    images_path, labels_path = write_idx(tmp_path, split, wide, labels)
    config = config_dict(data_dir, tmp_path / "out")
    config["dataset"].update({f"{split}_images": str(images_path),
                              f"{split}_labels": str(labels_path)})
    path = tmp_path / "wide.yaml"
    path.write_text(yaml.safe_dump(config))

    def no_build(*args, **kwargs):
        raise AssertionError("train built a system from non-square images")

    monkeypatch.setattr(cli, "build_system", no_build)
    assert run("train", "--config", str(path)) == 1
    assert f"{images_path} holds 28x30 images" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_surrogate_checks_the_eval_slice_before_training(data_dir, tmp_path, capsys):
    out_dir = tmp_path / "out"
    config = write_config(tmp_path / "c.yaml", data_dir, out_dir, eval={"limit": 500})
    assert run("surrogate", "--config", config) == 1
    assert capsys.readouterr().err == (f"error: eval limit 500 is more than the {TEST_COUNT} "
                                       f"samples in {data_dir / 'test-images.idx'}\n")
    assert not out_dir.exists()


def _test_split(cfg, tmp, pixels, labels):
    images_path, labels_path = write_idx(tmp, "test", pixels, labels)
    cfg["dataset"].update(test_images=str(images_path), test_labels=str(labels_path))
    return images_path


def _small_test_images(cfg, out, tmp):
    pixels, labels = make_dataset(TEST_COUNT, seed=12)
    cfg["attacks"] = []
    _test_split(cfg, tmp, pixels[:, :16, :16], labels)


def _relabelled_test_images(cfg, out, tmp):
    pixels, labels = make_dataset(TEST_COUNT, seed=12)
    images = Path(cfg["dataset"]["test_images"]).read_bytes()
    assert _test_split(cfg, tmp, pixels, (labels + 1) % 10).read_bytes() == images


def _surrogate_file(out, arch):
    key = derive_subkey(MasterKey(int(KEY, 16)), 0, 0, TAG_INIT)
    save_params(out / "surrogate.rdiv", init_params(arch, key), key)


def _smaller_grid_file(out, mode="direct-permutation", hidden=(16,), per_color=False):
    """An untrained I=1 grid of other settings in place of the pipeline's."""
    system = build_system(mode, MasterKey(int(KEY, 16)), 1, 1, mlp_arch(784, hidden, 10),
                          28, 1, per_color=per_color)
    save_system(out / "system-i1.rdiv", system)


# Each row: the commands that read the artifact, an edit of the pipeline's
# config (cfg), its artifact copy (out) or a scratch directory (tmp), and the
# one error line after "error: ", where {out} is the copy and {tmp} the
# scratch directory. A missing file names the command that writes it; a
# stale one names every setting it was made with that differs from the
# config's, and the command to rerun.
STALE_OR_MISSING = [
    ("grid-mode", ("eval", "report"),
     lambda cfg, out, tmp: cfg["system"].update(mode="identity"),
     "{out}/system-i2.rdiv was made with mode 'direct-permutation' (configured 'identity'); "
     "rerun the train command"),
    # A file named for I=2 that holds the I=1 grid.
    ("grid-I", ("eval", "report"),
     lambda cfg, out, tmp: shutil.copy(out / "system-i1.rdiv", out / "system-i2.rdiv"),
     "{out}/system-i2.rdiv was made with I 1 (configured 2); rerun the train command"),
    # Shared permutations say nothing about per-colour ones.
    ("grid-per_color", ("eval", "report"),
     lambda cfg, out, tmp: cfg["system"].update(per_color=True),
     "{out}/system-i2.rdiv was made with per_color False (configured True); "
     "rerun the train command"),
    # The files were trained on 28x28 digits; the test set now holds 16x16 ones.
    ("grid-image-shape", ("eval", "report"),
     _small_test_images,
     "{out}/system-i2.rdiv was made with image shape '28x28x1' (configured '16x16x1'), "
     "network widths '784-16-10' (configured '256-16-10'); rerun the train command"),
    ("grid-widths", ("eval", "report"), lambda cfg, out, tmp: cfg.update(arch={"hidden": [8]}),
     "{out}/system-i2.rdiv was made with network widths '784-16-10' (configured "
     "'784-8-10'); rerun the train command"),
    # A smaller grid file is checked against the config as the largest is.
    ("smaller-grid-mode", ("eval", "report"),
     lambda cfg, out, tmp: _smaller_grid_file(out, mode="identity"),
     "{out}/system-i1.rdiv was made with mode 'identity' (configured 'direct-permutation'); "
     "rerun the train command"),
    ("smaller-grid-I", ("eval", "report"),
     lambda cfg, out, tmp: shutil.copy(out / "system-i2.rdiv", out / "system-i1.rdiv"),
     "{out}/system-i1.rdiv was made with I 2 (configured 1); rerun the train command"),
    ("smaller-grid-per_color", ("eval", "report"),
     lambda cfg, out, tmp: _smaller_grid_file(out, per_color=True),
     "{out}/system-i1.rdiv was made with per_color True (configured False); "
     "rerun the train command"),
    ("smaller-grid-widths", ("eval", "report"),
     lambda cfg, out, tmp: _smaller_grid_file(out, hidden=(8,)),
     "{out}/system-i1.rdiv was made with network widths '784-8-10' (configured "
     "'784-16-10'); rerun the train command"),
    ("surrogate-widths", ("attack",), lambda cfg, out, tmp: cfg.update(arch={"hidden": [8]}),
     "{out}/surrogate.rdiv was made with network widths '784-16-10' (configured "
     "'784-8-10'); rerun the surrogate command"),
    # A surrogate for 16x16 gray images against the 28x28 test set.
    ("surrogate-image-shape", ("attack",),
     lambda cfg, out, tmp: _surrogate_file(out, mlp_arch(256, (16,), 10)),
     "{out}/surrogate.rdiv was made with network widths '256-16-10' (configured "
     "'784-16-10'); rerun the surrogate command"),
    # The same widths with no ReLU between the dense layers.
    ("surrogate-layer-kinds", ("attack",),
     lambda cfg, out, tmp: _surrogate_file(out, ArchSpec(784, (
         ("dense", (784, 16)), ("dense", (16, 10)), ("softmax-output", ())))),
     "{out}/surrogate.rdiv was made with layer kinds 'dense dense softmax-output' "
     "(configured 'dense relu dense softmax-output'); rerun the surrogate command"),
    # The stored set was crafted at eps 0.1 in 3 steps; its numbers say
    # nothing about 0.01 in 4.
    ("adv-fields", ("eval", "report"),
     lambda cfg, out, tmp: cfg["attacks"][1].update(eps=0.01, steps=4),
     "{out}/adv-pgd-linf.radv was made with eps 0.1 (configured 0.01), steps 3 "
     "(configured 4); rerun the attack command"),
    ("adv-count", ("eval", "report"), lambda cfg, out, tmp: cfg.update(eval={"limit": 30}),
     "{out}/adv-fgsm0.radv: adversarial set has 60 samples, need 30; "
     "rerun the attack command"),
    # The same test images under other labels: the stored set was scored on
    # labels this dataset does not have.
    ("adv-relabelled", ("eval", "report"),
     _relabelled_test_images,
     "{out}/adv-fgsm0.radv: adversarial set was not crafted from the first 60 test "
     "samples; rerun the attack command"),
    ("missing-system", ("eval", "report"),
     lambda cfg, out, tmp: (out / "system-i1.rdiv").unlink(),
     "missing {out}/system-i1.rdiv; run the train command"),
    ("missing-adv", ("eval", "report"),
     lambda cfg, out, tmp: (out / "adv-pgd-linf.radv").unlink(),
     "missing {out}/adv-pgd-linf.radv; run the attack command"),
    ("missing-surrogate", ("attack",), lambda cfg, out, tmp: (out / "surrogate.rdiv").unlink(),
     "missing {out}/surrogate.rdiv; run the surrogate command"),
    # Every command that takes the eval slice refuses a limit past the test
    # split before it trains or writes anything.
    ("limit-past-test-split", ("train", "surrogate", "attack", "eval", "report"),
     lambda cfg, out, tmp: _test_split(cfg, tmp, *make_dataset(40, seed=12)),
     "eval limit 60 is more than the 40 samples in {tmp}/test-images.idx"),
]


@pytest.mark.parametrize("commands, edit, line", [
    pytest.param(commands, edit, line, id=name)
    for name, commands, edit, line in STALE_OR_MISSING])
def test_a_stale_or_missing_artifact_ends_the_command_in_one_line(
        pipeline, data_dir, tmp_path, capsys, commands, edit, line):
    _, saved = pipeline
    out = tmp_path / "out"
    shutil.copytree(saved, out)
    cfg = config_dict(data_dir, out)
    edit(cfg, out, tmp_path)
    path = tmp_path / "c.yaml"
    path.write_text(yaml.safe_dump(cfg))
    files = {f.name: f.read_bytes() for f in out.iterdir()}
    for command in commands:
        capsys.readouterr()
        assert run(command, "--config", str(path)) == 1
        assert capsys.readouterr() == ("", f"error: {line.format(out=out, tmp=tmp_path)}\n")
    # Nothing was written: no report.csv, no adversarial set.
    assert {f.name: f.read_bytes() for f in out.iterdir()} == files


def test_attack_prints_exact_half_up_percentages(pipeline, data_dir, tmp_path,
                                                  monkeypatch, capsys):
    # One success in 32 is 3.125%: `eval`, `report` and `surrogate` print
    # 3.13, as `attack` must; a float format printed 3.12.
    _, out_dir = pipeline
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    shutil.copy(out_dir / "surrogate.rdiv", fresh)
    config = write_config(tmp_path / "c.yaml", data_dir, fresh, eval={"limit": 32},
                          attacks=[{"kind": "fgsm", "eps": 0.0}])

    def one_success(params, dataset, attack):
        preds = dataset.labels.copy()
        preds[0] = (preds[0] + 1) % 10
        return AdvSet(attack, np.arange(len(dataset)), dataset.labels.copy(),
                      dataset.images.copy(), dataset.images.copy(), preds)

    monkeypatch.setattr(cli, "craft_adv_set", one_success)
    assert run("attack", "--config", config) == 0
    assert capsys.readouterr().out == (
        f"fgsm: surrogate error 3.13% on 32 samples -> {fresh / 'adv-fgsm.radv'}\n")


@pytest.mark.parametrize("name", ["system-i2.rdiv", "system-i1.rdiv", "adv-pgd-linf.radv"])
def test_eval_names_a_corrupted_file(pipeline, tmp_path, capsys, name):
    config, out_dir = pipeline
    copy = tmp_path / "copy"
    shutil.copytree(out_dir, copy)
    flipped = bytearray((copy / name).read_bytes())
    flipped[len(flipped) // 2] ^= 0x01
    (copy / name).write_bytes(bytes(flipped))
    capsys.readouterr()
    assert run("eval", "--config", config, "--out", str(copy)) == 1
    assert capsys.readouterr().err == f"error: {copy / name}: SHA-256 checksum mismatch\n"


@pytest.mark.parametrize("argv, line", [
    (["--key", "5eed5eed5eed5eed"], "3.250e-07"),
    ([], "1.711e-06"),
])
def test_gradcheck_output_is_pinned(capsys, argv, line):
    assert run("gradcheck", *argv) == 0
    assert capsys.readouterr().out == (f"gradcheck: max relative error {line} "
                                       "(tolerance 1e-04)\n")


def test_gradcheck(capsys):
    assert run("gradcheck", "--key", KEY) == 0
    out = capsys.readouterr().out
    assert "max relative error" in out
    value = float(out.split("max relative error ")[1].split()[0])
    assert value < 1e-4
