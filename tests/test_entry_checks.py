"""Every library entry point refuses a bad value where it enters.

Each kind of value has one check: counts (`nn.require_count`), numbers
(`nn.require_number`), flags (`nn.require_bool`), 64-bit keys
(`rng.require_u64`) and master keys (`rng.require_master`). Whatever the
entry point, a bool, a float or a string where an int goes, a negative
value, a value out of the setting's range and a master that is not a
`MasterKey` raise a ValueError that names the setting. The error shows the
value, except for a master: a bare int there may be the key itself, so the
error names its type.
"""

import math
import re

import numpy as np
import pytest

from rdiv.attacks import AttackConfig, fgsm_batch, pgd_linf_batch, train_surrogate
from rdiv.dataio import LabeledSet, take_first
from rdiv.nn import Hyper, init_params, mlp_arch
from rdiv.rng import MasterKey, derive_subkey, keyed_permutation, next_u64, skip, u64_stream
from rdiv.system import (
    build_system,
    check_reject_threshold,
    check_settings,
    rebuild_preprocessors,
)
from rdiv.transforms import dct_basis

MASTER = MasterKey(7)
FIVE = LabeledSet(np.zeros((5, 2, 2, 1), np.float32), np.zeros(5, np.int64), "five")
PARAMS = init_params(mlp_arch(4, (3,), 2), 1)
IDENTITY = build_system("identity", MASTER, 1, 1, PARAMS.arch, 2, 1)

# What no int setting takes: a bool, a float, a string and a negative int.
NOT_INTS = (True, 1.5, "2", -1)
# What no number setting takes; 1.5 is a fine rate, so NaN, inf and an int
# past the float range stand in.
NOT_NUMBERS = (True, "2", -1.0, math.nan, math.inf, 10**400)
# What no flag takes.
NOT_FLAGS = (1, 1.5, "2", -1, None)
# What no master takes: the bare int and the hex text a MasterKey holds.
NOT_MASTERS = (123, "5eed5eed5eed5eed", None)

# (entry point, setting as the error names it, the call, values it refuses).
# The last value of each int or number row is out of the setting's range.
SETTINGS = [
    ("MasterKey", "master key", MasterKey, NOT_INTS + (2**64,)),
    # An identity grid draws no key, so a bare int once became its master.
    ("build_system-master", "master",
     lambda v: build_system("identity", v, 1, 1, PARAMS.arch, 2, 1), NOT_MASTERS),
    ("derive_subkey-master", "master", lambda v: derive_subkey(v, 0, 0, 1), NOT_MASTERS),
    ("rebuild_preprocessors", "master", lambda v: rebuild_preprocessors(IDENTITY, v),
     NOT_MASTERS),
    ("train_surrogate", "master",
     lambda v: train_surrogate(FIVE, PARAMS.arch, Hyper(epochs=1), v), NOT_MASTERS),
    *((f"derive_subkey-{index}", f"lineage index {index}",
       lambda v, at=at: derive_subkey(MASTER, *(v if k == at else 0 for k in range(3))),
       NOT_INTS + (2**64,))
      for at, index in enumerate(("j", "i", "tag"))),
    ("next_u64", "state", next_u64, NOT_INTS + (2**64,)),
    ("skip-state", "state", lambda v: skip(v, 1), NOT_INTS + (2**64,)),
    ("skip-count", "count", lambda v: skip(1, v), NOT_INTS + (2**64,)),
    ("u64_stream-state", "state", lambda v: u64_stream(v, 3), NOT_INTS + (2**64,)),
    ("u64_stream-count", "count", lambda v: u64_stream(1, v), NOT_INTS + (2**64,)),
    ("mlp_arch-input", "input_dim", lambda v: mlp_arch(v, (4,), 3), NOT_INTS + (0,)),
    ("mlp_arch-hidden", "layer 0 fan_out", lambda v: mlp_arch(16, (v,), 3), NOT_INTS + (0,)),
    ("mlp_arch-classes", "layer 2 fan_out", lambda v: mlp_arch(16, (4,), v), NOT_INTS + (0,)),
    ("Hyper-learning_rate", "learning_rate", lambda v: Hyper(learning_rate=v),
     NOT_NUMBERS + (0,)),
    ("Hyper-batch_size", "batch_size", lambda v: Hyper(batch_size=v), NOT_INTS + (0,)),
    ("Hyper-epochs", "epochs", lambda v: Hyper(epochs=v), NOT_INTS),
    # Each field on a kind that takes it, so no row depends on check order.
    *((f"AttackConfig-{name}", name,
       lambda v, name=name, kind=kind: AttackConfig(kind, **{name: v}),
       NOT_NUMBERS + ((0,) if name in ("alpha", "c", "step_size") else ()))
      for kind, name in (("pgd-linf", "eps"), ("pgd-linf", "alpha"), ("cw-l2", "c"),
                         ("cw-l2", "step_size"), ("cw-l2", "kappa"))),
    *((f"AttackConfig-{name}", name,
       lambda v, name=name, kind=kind: AttackConfig(kind, **{name: v}), NOT_INTS + (0,))
      for kind, name in (("pgd-linf", "steps"), ("cw-l2", "iterations"))),
    ("AttackConfig-target", "target", lambda v: AttackConfig("cw-l2", target=v), NOT_INTS),
    ("pgd_linf_batch-eps", "eps",
     lambda v: pgd_linf_batch(PARAMS, FIVE.images, FIVE.labels, v, 0.01, 1), NOT_NUMBERS),
    ("pgd_linf_batch-alpha", "alpha",
     lambda v: pgd_linf_batch(PARAMS, FIVE.images, FIVE.labels, 0.1, v, 1), NOT_NUMBERS),
    ("pgd_linf_batch-steps", "steps",
     lambda v: pgd_linf_batch(PARAMS, FIVE.images, FIVE.labels, 0.1, 0.01, v),
     NOT_INTS + (0,)),
    ("fgsm_batch-eps", "eps", lambda v: fgsm_batch(PARAMS, FIVE.images, FIVE.labels, v),
     NOT_NUMBERS),
    ("take_first", "sample count", lambda v: take_first(FIVE, v), NOT_INTS),
    ("check_reject_threshold", "reject_threshold", check_reject_threshold,
     NOT_NUMBERS + (1.5,)),
    ("check_settings-per_color", "per_color",
     lambda v: check_settings("direct-permutation", v), NOT_FLAGS),
    ("dct_basis", "basis size", dct_basis, NOT_INTS + (0,)),
    ("keyed_permutation", "permutation length", lambda v: keyed_permutation(1, v),
     NOT_INTS + (0,)),
]


@pytest.mark.parametrize("setting, call, value", [
    pytest.param(setting, call, value, id=f"{entry}-{value!r:.24}")
    for entry, setting, call, values in SETTINGS for value in values])
def test_entry_points_refuse_bad_values_naming_the_setting(setting, call, value):
    shown = type(value).__name__ if setting == "master" else repr(value)
    with pytest.raises(ValueError, match=rf"^{setting} must be .*, got {re.escape(shown)}$"):
        call(value)


def test_take_first_refuses_more_samples_than_the_set_holds():
    with pytest.raises(ValueError, match=r"^requested 6 samples, set has 5$"):
        take_first(FIVE, 6)
    assert len(take_first(FIVE, 0)) == 0 and len(take_first(FIVE, 5)) == 5


def test_keys_at_the_ends_of_the_range_are_taken():
    top = 2**64 - 1
    assert MasterKey(top).to_hex() == "f" * 16 and MasterKey(0).to_hex() == "0" * 16
    assert next_u64(top)[1] == skip(top, 1) == (top + 0x9E3779B97F4A7C15) % 2**64
    assert u64_stream(top, 2).tolist() == [next_u64(top)[0], next_u64(skip(top, 1))[0]]
    assert derive_subkey(MASTER, top, top, top) != derive_subkey(MASTER, 0, 0, 0)
