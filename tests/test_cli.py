import numpy as np
import pytest
import yaml

from rdiv import cli
from rdiv.cli import ConfigError, _pct, parse_config
from rdiv.dataio import load_idx
from rdiv.nn import mlp_arch
from rdiv.serialize import read_adv_set, read_system, save_system
from rdiv.system import build_system, train_system

from _synth import make_dataset, write_idx

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
            ("system", "branches", 2.0), ("system", "reject_threshold", True),
            ("system", "reject_threshold", "0.5")):
        with pytest.raises(ConfigError, match=key if section != "train" else "train"):
            parses(section, **{key: value})
    bad = yaml.safe_load(yaml.safe_dump(good))
    bad["attacks"].append({"name": "fgsm0", "kind": "fgsm"})
    with pytest.raises(ConfigError, match="duplicate"):
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


def test_gradcheck(capsys):
    assert run("gradcheck", "--key", KEY) == 0
    out = capsys.readouterr().out
    assert "max relative error" in out
    value = float(out.split("max relative error ")[1].split()[0])
    assert value < 1e-4
