import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from rdiv import cli
from rdiv.cli import ConfigError, _pct, parse_config
from rdiv.dataio import load_idx
from rdiv.nn import init_params, mlp_arch
from rdiv.rng import TAG_INIT, MasterKey, derive_subkey
from rdiv.serialize import load_system, read_adv_set, read_system, save_params, save_system
from rdiv.system import build_system, train_system

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
    for target in (-1, True, 1.0, "2"):
        bad = yaml.safe_load(yaml.safe_dump(good))
        bad["attacks"][1].update(targeted=True, target=target)
        with pytest.raises(ConfigError, match="target"):
            parse_config(yaml.safe_dump(bad))


def test_parse_config_refuses_bad_attack_and_train_values(data_dir, tmp_path):
    # Each of these once parsed and then failed or misled at run time: a
    # float step count raised TypeError inside `rdiv attack`, `true` ran one
    # iteration, a quoted "no" ran a targeted attack, a NaN learning rate
    # died in training and beta1 = 1.5 trained a useless model.
    good = config_dict(data_dir, tmp_path)
    nan, inf = float("nan"), float("inf")
    for section, field, value in (
            ("attacks", "steps", 2.5), ("attacks", "iterations", True),
            ("attacks", "targeted", "no"), ("attacks", "eps", nan),
            ("attacks", "alpha", inf), ("attacks", "c", True),
            ("attacks", "step_size", nan), ("attacks", "kappa", -inf),
            ("train", "learning_rate", nan), ("train", "learning_rate", inf),
            ("train", "beta1", 1.5), ("train", "beta2", 1.0),
            ("train", "beta1", -0.1), ("train", "eps", 0.0),
            ("train", "eps", nan), ("train", "weight_decay", -0.01),
            ("train", "weight_decay", inf)):
        bad = yaml.safe_load(yaml.safe_dump(good))
        (bad["attacks"][1] if section == "attacks" else bad["train"])[field] = value
        where = r"attacks\[1\]" if section == "attacks" else "train"
        with pytest.raises(ConfigError, match=f"{where}: {field}"):
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


def test_missing_config_file(capsys):
    assert run("train", "--config", "/nonexistent/config.yaml") == 1
    assert "config file not found" in capsys.readouterr().err


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
    assert load_system(edited).branches == 1
    saved = (out_dir / "system-i1.rdiv").read_bytes()
    for name, blob in (("other-key", (tmp_path / "other" / "system-i1.rdiv").read_bytes()),
                       ("one-weight-byte", edited),
                       ("appended-byte", saved + b"\x00"),
                       ("last-byte-cut", saved[:-1])):
        copy = tmp_path / name
        shutil.copytree(out_dir, copy)
        (copy / "system-i1.rdiv").write_bytes(blob)
        (copy / "report.csv").unlink(missing_ok=True)
        capsys.readouterr()
        assert run("report", "--config", config, "--out", str(copy)) == 1
        err = capsys.readouterr().err
        assert f"{copy / 'system-i1.rdiv'} is not the first 1 branches of" in err
        assert not (copy / "report.csv").exists()


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


def test_attack_requires_surrogate(data_dir, tmp_path, capsys):
    config = write_config(tmp_path / "c.yaml", data_dir, tmp_path / "empty")
    (tmp_path / "empty").mkdir()
    assert run("attack", "--config", config) == 1
    assert "missing surrogate" in capsys.readouterr().err


def test_eval_requires_system(data_dir, tmp_path, capsys):
    config = write_config(tmp_path / "c.yaml", data_dir, tmp_path / "empty2")
    (tmp_path / "empty2").mkdir()
    assert run("eval", "--config", config) == 1
    assert "missing system" in capsys.readouterr().err


def test_eval_rejects_limit_mismatch(pipeline, capsys):
    config, _ = pipeline
    assert run("eval", "--config", config, "--limit", "30") == 1
    err = capsys.readouterr().err
    assert "holds 60 samples" in err


def test_eval_rejects_adv_set_with_other_labels(pipeline, data_dir, tmp_path, capsys):
    # The same test images under other labels: the stored adversarial set
    # was scored on labels this dataset does not have.
    config, out_dir = pipeline
    pixels, labels = make_dataset(TEST_COUNT, seed=12)
    images_path, labels_path = write_idx(tmp_path, "test", pixels, (labels + 1) % 10)
    assert (images_path.read_bytes()
            == (data_dir / "test-images.idx").read_bytes())
    relabelled = config_dict(data_dir, out_dir)
    relabelled["dataset"].update(test_labels=str(labels_path))
    path = tmp_path / "relabelled.yaml"
    path.write_text(yaml.safe_dump(relabelled))
    for command in ("eval", "report"):
        assert run(command, "--config", str(path)) == 1
        err = capsys.readouterr().err
        assert f"{out_dir / 'adv-fgsm0.radv'} was not crafted from the first" in err
    assert run("eval", "--config", config) == 0


def test_attack_refuses_surrogate_of_other_image_shape(data_dir, tmp_path, capsys):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    config = write_config(tmp_path / "c.yaml", data_dir, out_dir)
    # A surrogate for 16x16 gray images against the 28x28 test set.
    key = derive_subkey(MasterKey(int(KEY, 16)), 0, 0, TAG_INIT)
    save_params(out_dir / "surrogate.rdiv", init_params(mlp_arch(256, (16,), 10), key),
                key)
    assert run("attack", "--config", config) == 1
    err = capsys.readouterr().err
    assert (f"{out_dir / 'surrogate.rdiv'} was trained on differently shaped "
            "images than dataset 'synth'") in err
    assert not list(out_dir.glob("*.radv"))


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
