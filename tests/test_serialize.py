import hashlib
import re
import struct
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdiv.attacks import AdvSet, AttackConfig, craft_adv_set, train_surrogate
from rdiv.dataio import LabeledSet
from rdiv.nn import Hyper, init_params, mlp_arch
from rdiv.rng import TAG_INIT, MasterKey, derive_subkey
from rdiv.serialize import (
    _CHUNK_BYTES,
    BlobFormatError,
    atomic_write_bytes,
    read_adv_set,
    read_params,
    read_system,
    save_adv_set,
    save_params,
    save_system,
)
from rdiv.system import (
    MODE_TABLE,
    SystemSpec,
    build_system,
    classify_batch,
    first_branches,
    train_system,
)

from _helpers import read_written, saved_bytes
from test_rng import LOOSE_KEY_HEX

SIZE = 8
COLORS = 1
CLASSES = 3
MASTER = MasterKey(0x0123456789ABCDEF)


def toy_arch():
    return mlp_arch(SIZE * SIZE * COLORS, (12,), CLASSES)


def toy_set(count=40, seed=0):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, CLASSES, size=count).astype(np.int64)
    images = rng.random((count, SIZE, SIZE, COLORS)).astype(np.float32) * 0.4
    for c in range(CLASSES):
        images[labels == c, c * 2:c * 2 + 2, :, :] += 0.45
    return LabeledSet(np.clip(images, 0, 1), labels, name="toy")


def quick_hyper(epochs=2):
    return Hyper(learning_rate=5e-3, batch_size=16, epochs=epochs)


@pytest.fixture(scope="module", params=["identity", "direct-permutation",
                                        "dct-sign-flip-3band", "dct-hard-threshold-3band"])
def trained_system(request):
    mode = request.param
    system = build_system(mode, MASTER, MODE_TABLE[mode].groups, 2, toy_arch(), SIZE, COLORS)
    return train_system(system, toy_set(), quick_hyper())


def _reseal(blob: bytes) -> bytes:
    """`blob` with its SHA-256 trailer recomputed over all bytes before it.

    This lets a test reach the parser's own checks behind a valid digest.
    Cutting k bytes off a sealed blob and resealing it cuts k bytes off the
    body; inserting bytes before the trailer and resealing appends to it.
    """
    return blob[:-32] + hashlib.sha256(blob[:-32]).digest()


def test_model_blob_round_trip(tmp_path):
    key = derive_subkey(MASTER, 0, 0, TAG_INIT)
    params = init_params(toy_arch(), key)
    blob = saved_bytes(tmp_path / "model.rdiv", save_params, params, key)
    assert blob[:4] == b"RDIV"
    loaded, key_value = read_params(tmp_path / "model.rdiv")
    assert loaded.equal(params)
    assert loaded.dtype == np.float32
    # A subkey inverts to its master key, so the blob holds a one-way
    # fingerprint of it instead, and neither key appears.
    digest = hashlib.sha256(b"rdiv model key fingerprint"
                            + struct.pack("<Q", key)).digest()
    assert key_value == int.from_bytes(digest[:8], "big")
    assert blob[-48:-32] == digest[:8].hex().encode()
    for secret in (key, MASTER.value):
        assert f"{secret:016x}".encode() not in blob


def test_model_blob_is_deterministic(tmp_path):
    key = derive_subkey(MASTER, 0, 0, TAG_INIT)
    params = init_params(toy_arch(), key)
    assert saved_bytes(tmp_path / "a.rdiv", save_params, params, key) == \
        saved_bytes(tmp_path / "b.rdiv", save_params, params, key)


def test_model_blob_corruption_detected(tmp_path):
    key = derive_subkey(MASTER, 0, 0, TAG_INIT)
    path = tmp_path / "model.rdiv"
    blob = saved_bytes(path, save_params, init_params(toy_arch(), key), key)
    with pytest.raises(BlobFormatError, match="magic"):
        read_written(path, read_params, b"XXXX" + blob[4:])
    with pytest.raises(BlobFormatError, match="version"):
        read_written(path, read_params, blob[:4] + b"\x09" + blob[5:])
    with pytest.raises(BlobFormatError, match="checksum"):
        read_written(path, read_params, blob[:-3])
    with pytest.raises(BlobFormatError, match="truncated"):
        read_written(path, read_params, _reseal(blob[:-3]))
    with pytest.raises(BlobFormatError, match="truncated"):
        read_written(path, read_params, blob[:36])
    with pytest.raises(BlobFormatError, match="trailing"):
        read_written(path, read_params, _reseal(blob[:-32] + b"\x00" + blob[-32:]))
    mangled = bytearray(blob)
    mangled[-48:-32] = b"zz" * 8
    with pytest.raises(BlobFormatError, match="key hex"):
        read_written(path, read_params, _reseal(bytes(mangled)))
    # What int(text, 16) would take but the writer never emits.
    for text in LOOSE_KEY_HEX:
        mangled[-48:-32] = text.encode("ascii")
        with pytest.raises(BlobFormatError, match="key hex"):
            read_written(path, read_params, _reseal(bytes(mangled)))


def test_system_round_trip(tmp_path, trained_system):
    blob = saved_bytes(tmp_path / "system.rdiv", save_system, trained_system)
    assert blob[:4] == b"RDIV"
    loaded = read_system(tmp_path / "system.rdiv")
    # train writes each smaller grid file from the largest grid's first branches.
    assert saved_bytes(tmp_path / "again.rdiv", save_system, loaded) == blob
    assert saved_bytes(tmp_path / "loaded-i1.rdiv", save_system, first_branches(loaded, 1)) \
        == saved_bytes(tmp_path / "trained-i1.rdiv", save_system,
                       first_branches(trained_system, 1))
    assert loaded.mode == trained_system.mode
    assert loaded.master == trained_system.master
    assert loaded.groups == trained_system.groups
    assert loaded.branches == trained_system.branches
    assert (loaded.size, loaded.colors) == (SIZE, COLORS)
    for a, b in zip(loaded.channels, trained_system.channels):
        assert (a.j, a.i) == (b.j, b.i)
        assert a.params.equal(b.params)
        assert a.preprocessor.payload_equal(b.preprocessor)
    images = toy_set(count=10, seed=5).images
    assert np.array_equal(classify_batch(loaded, images),
                          classify_batch(trained_system, images))


def test_every_width_mlp_arch_builds_is_one_read_system_takes(tmp_path):
    # mlp_arch(16, (0,), 4) once built a system that save_system wrote and
    # read_system refused as "dense dims 16x0 out of range".
    for hidden, classes in (((1,), 1), ((1, 2), 1), ((), 1)):
        arch = mlp_arch(SIZE * SIZE * COLORS, hidden, classes)
        system = build_system("identity", MASTER, 1, 1, arch, SIZE, COLORS)
        save_system(tmp_path / "narrow.rdiv", system)
        assert read_system(tmp_path / "narrow.rdiv").arch == arch
    for hidden, classes, layer in (((0,), 4, 0), ((4,), 0, 2), ((4, -2), 4, 2)):
        with pytest.raises(ValueError, match=rf"^layer {layer} fan_out must be a positive int"):
            mlp_arch(16, hidden, classes)


def test_system_load_draws_no_weight_init(tmp_path, trained_system, monkeypatch):
    import rdiv.system

    def no_init(*args, **kwargs):
        raise AssertionError("read_system drew a weight init it would discard")

    save_system(tmp_path / "system.rdiv", trained_system)
    monkeypatch.setattr(rdiv.system, "init_params", no_init)
    loaded = read_system(tmp_path / "system.rdiv")
    # A read system is the saved system: every field is compared, the
    # channels one by one.
    for field in fields(SystemSpec):
        if field.name != "channels":
            assert getattr(loaded, field.name) == getattr(trained_system, field.name), field
    for a, b in zip(loaded.channels, trained_system.channels, strict=True):
        assert (a.j, a.i, a.params.arch) == (b.j, b.i, b.params.arch)
        assert a.params.equal(b.params)
        assert a.preprocessor.payload_equal(b.preprocessor)


def test_system_save_is_deterministic(tmp_path, trained_system):
    assert saved_bytes(tmp_path / "a.rdiv", save_system, trained_system) == \
        saved_bytes(tmp_path / "b.rdiv", save_system, trained_system)


# SHA-256 of toy artifacts: they pin the file formats, so a change that
# alters the bytes must update them on purpose. The trained systems' weights
# come from float32 BLAS arithmetic, so a BLAS build or CPU that rounds
# differently changes their digests without any format change; the
# untrained grid and the adversarial set involve no BLAS call.
GOLDEN_SYSTEM_SHA256 = {
    "identity": "1ed77900761a8ddfd270fad85030d31bda82bf6f309219e4553f54d9de7d6744",
    "direct-permutation": "ce232637815b4700b4549df0ea67af74e815903c274bfe060cc86d0adb69b389",
    "dct-sign-flip-3band": "1603024d5716f7d0b122fec689aaa64299742de89685f2fb62efb33f8767191d",
    "dct-hard-threshold-3band": "5a0fe9d0b3d30fc1b558933ce7ace8e364a9a0c76f6853b4946cfdc4f57039b4",
}
GOLDEN_PER_COLOR_SHA256 = "a1f1a4f8fa4778fcae9c100a5a71ce1dd008d87ab8354dae8cca6045e477c960"
GOLDEN_SHARED_RGB_SHA256 = "949d5b94252226f7dfb177a466deee94a0e78cdd975a3443a02d0d479fbcbc77"
GOLDEN_UNTRAINED_SHA256 = "8a17c9cfe2d58a9a598e64325fb1930dc47f94b2b364367748f2cbafd58e8fcf"
GOLDEN_ADV_SET_SHA256 = "7ef57584cca4c9c6c561ecc85021e6648bed3327cc6ab2fb2d349b66d2e9c441"


def sha256(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def saved_system_sha256(directory, system) -> str:
    return sha256(saved_bytes(directory / "system.rdiv", save_system, system))


def untrained_system(mode="direct-permutation", branches=2):
    """A grid with its keyed init weights; save_system accepts it as is."""
    return build_system(mode, MASTER, MODE_TABLE[mode].groups, branches, toy_arch(),
                        SIZE, COLORS)


def per_color_system(per_color=True):
    """Two permutation channels on 4x4 RGB images, per-color by default."""
    rng = np.random.default_rng(6)
    labels = rng.integers(0, CLASSES, size=30).astype(np.int64)
    images = rng.random((30, 4, 4, 3), dtype=np.float32) * 0.4
    for c in range(CLASSES):
        images[labels == c, c, :, c] += 0.5
    data = LabeledSet(images, labels, name="rgb")
    system = build_system("direct-permutation", MASTER, 1, 2, mlp_arch(48, (8,), CLASSES),
                          4, 3, per_color=per_color)
    return train_system(system, data, quick_hyper(epochs=1))


def handmade_adv_set():
    """An adversarial set built without any model, so no BLAS is involved."""
    rng = np.random.default_rng(4)
    originals = rng.random((5, 3, 3, 2), dtype=np.float32)
    adversarials = np.clip(originals + np.float32(0.125), 0.0, 1.0)
    config = AttackConfig(kind="cw-l2", c=2.5, iterations=17, step_size=0.03,
                          kappa=0.25, targeted=True, target=2)
    return AdvSet(config, np.array([4, 0, 9, 2, 7]), np.array([1, 0, 2, 2, 1]),
                  originals, adversarials)


def test_system_bytes_golden(tmp_path, trained_system):
    assert saved_system_sha256(tmp_path, trained_system) == \
        GOLDEN_SYSTEM_SHA256[trained_system.mode]


def test_per_color_system_bytes_golden(tmp_path):
    assert saved_system_sha256(tmp_path, per_color_system()) == GOLDEN_PER_COLOR_SHA256


def test_shared_permutation_rgb_system_bytes_golden(tmp_path):
    assert saved_system_sha256(tmp_path, per_color_system(per_color=False)) == \
        GOLDEN_SHARED_RGB_SHA256


def test_untrained_system_bytes_golden(tmp_path):
    system = untrained_system("dct-hard-threshold-3band")
    assert saved_system_sha256(tmp_path, system) == GOLDEN_UNTRAINED_SHA256


def test_adv_set_bytes_golden(tmp_path):
    path = tmp_path / "adv.radv"
    blob = saved_bytes(path, save_adv_set, handmade_adv_set())
    assert sha256(blob) == GOLDEN_ADV_SET_SHA256
    assert saved_bytes(tmp_path / "again.radv", save_adv_set, read_adv_set(path)) == blob
    negative = replace(handmade_adv_set(), labels=np.array([1, 0, 2, 2, -1]))
    with pytest.raises(ValueError, match="u32"):
        save_adv_set(tmp_path / "negative.radv", negative)
    assert not (tmp_path / "negative.radv").exists()


# Byte offsets in a system file: magic, version and mode byte come first,
# then the per-color byte, I, N and m, then the master key.
_PER_COLOR = 4 + 1 + 1
_BRANCHES = _PER_COLOR + 1
_MASTER = _BRANCHES + 12


def test_system_master_key_tamper_detected(tmp_path, trained_system):
    path = tmp_path / "system.rdiv"
    blob = bytearray(saved_bytes(path, save_system, trained_system))
    assert blob[_MASTER:_MASTER + 16] == trained_system.master.to_hex().encode()
    blob[_MASTER:_MASTER + 16] = MasterKey(0xABCD).to_hex().encode()
    with pytest.raises(BlobFormatError, match="checksum"):
        read_written(path, read_system, bytes(blob))
    for text in LOOSE_KEY_HEX:
        blob[_MASTER:_MASTER + 16] = text.encode("ascii")
        with pytest.raises(BlobFormatError, match="key hex"):
            read_written(path, read_system, _reseal(bytes(blob)))


def test_v1_blob_rejected_by_version(tmp_path):
    """A file of the previous format: version byte 1 and no trailer."""
    key = derive_subkey(MASTER, 0, 0, TAG_INIT)
    path = tmp_path / "model.rdiv"
    v1 = bytearray(saved_bytes(path, save_params, init_params(toy_arch(), key), key)[:-32])
    v1[4] = 1
    with pytest.raises(BlobFormatError, match="unsupported version 1"):
        read_written(path, read_params, bytes(v1))


def test_system_header_rejected_by_build_system_is_a_format_error(tmp_path):
    path = tmp_path / "system.rdiv"
    blob = saved_bytes(path, save_system, untrained_system("dct-sign-flip-3band"))
    assert blob[_PER_COLOR] == 0
    per_color = bytearray(blob)
    per_color[_PER_COLOR] = 1
    with pytest.raises(BlobFormatError, match=f"^{re.escape(str(path))}: .*per_color"):
        read_written(path, read_system, _reseal(bytes(per_color)))
    per_color[_PER_COLOR] = 2
    with pytest.raises(BlobFormatError, match="per-color byte 2"):
        read_written(path, read_system, _reseal(bytes(per_color)))
    # I = 0 with the channel tensors cut off, so the body parses to its end.
    no_branches = bytearray(blob)
    assert struct.unpack_from("<I", no_branches, _BRANCHES)[0] == 2
    struct.pack_into("<I", no_branches, _BRANCHES, 0)
    tensor_bytes = 3 * 2 * 4 * sum(fi * fo + fo for fi, fo in toy_arch().dense_shapes)
    cut = bytes(no_branches[:-32 - tensor_bytes]) + blob[-32:]
    with pytest.raises(BlobFormatError, match=f"^{re.escape(str(path))}: .*branch"):
        read_written(path, read_system, _reseal(cut))


def test_flag_bytes_are_0_or_1(tmp_path):
    """The adversarial set's targeted byte is refused like the system
    file's per-color byte; bool() of it would read 2 as targeted."""
    path = tmp_path / "adv.radv"
    blob = bytearray(saved_bytes(path, save_adv_set, handmade_adv_set()))
    targeted = 5 + struct.calcsize("<BddIdIdd")
    assert blob[targeted] == 1
    blob[targeted] = 2
    with pytest.raises(BlobFormatError) as caught:
        read_written(path, read_adv_set, _reseal(bytes(blob)))
    assert str(caught.value) == f"{path}: targeted byte 2, expected 0 or 1"


def _planted_check(*args, **kwargs):
    raise ValueError("planted check")


# A check each read calls, by artifact: the arch, the rebuilt system and
# the attack config.
_PLANTED = {"model.rdiv": "rdiv.nn.ArchSpec.__post_init__",
            "system.rdiv": "rdiv.serialize.build_system",
            "adv.radv": "rdiv.attacks.AttackConfig.__post_init__"}


def test_every_read_error_passes_the_one_boundary(tmp_path, monkeypatch):
    """A ValueError from any check a read calls, even one added later,
    comes out as a BlobFormatError that begins with the file's path."""
    for name, _, read in _written_artifacts(tmp_path):
        with monkeypatch.context() as patch:
            patch.setattr(_PLANTED[name], _planted_check)
            with pytest.raises(BlobFormatError) as caught:
                read(tmp_path / name)
        assert str(caught.value) == f"{tmp_path / name}: planted check"


def test_kind_bytes_are_pinned(tmp_path):
    """Every kind byte files hold: the kind's index in its tuple, plus 1 for
    layers. A reordered tuple would change them and fail here. The version
    byte is pinned per magic: 2 for RDIV, 3 for RADV."""
    key = derive_subkey(MASTER, 0, 0, TAG_INIT)
    path = tmp_path / "model.rdiv"
    blob = saved_bytes(path, save_params, init_params(toy_arch(), key), key)
    assert blob[:5] == b"RDIV\x02"
    # Layer count, then dense 1 (64x12), relu 2, dense 1 (12x3), softmax-output 3.
    arch = struct.pack("<IBIIBBIIB", 4, 1, 64, 12, 2, 1, 12, 3, 3)
    assert blob[5:5 + len(arch)] == arch
    for code in (0, 4):
        bad = bytearray(blob)
        bad[9] = code
        with pytest.raises(BlobFormatError, match=f"unknown layer code {code}$"):
            read_written(path, read_params, _reseal(bytes(bad)))

    path = tmp_path / "system.rdiv"
    for mode, code in (("identity", 0), ("direct-permutation", 1),
                       ("dct-sign-flip-3band", 2), ("dct-hard-threshold-3band", 3)):
        assert saved_bytes(path, save_system, untrained_system(mode))[:6] == \
            b"RDIV\x02" + bytes([code])
    bad = bytearray(saved_bytes(path, save_system, untrained_system()))
    bad[5] = 4
    with pytest.raises(BlobFormatError, match="unknown mode byte 4$"):
        read_written(path, read_system, _reseal(bytes(bad)))

    path = tmp_path / "adv.radv"
    adv = handmade_adv_set()
    for kind, code in (("fgsm", 0), ("pgd-linf", 1), ("cw-l2", 2)):
        blob = saved_bytes(path, save_adv_set, replace(adv, config=AttackConfig(kind)))
        assert blob[:6] == b"RADV\x03" + bytes([code])
        assert read_adv_set(path).config.kind == kind
    bad = bytearray(blob)
    bad[5] = 3
    with pytest.raises(BlobFormatError, match="unknown attack code 3$"):
        read_written(path, read_adv_set, _reseal(bytes(bad)))


def _flip_one_byte(blob: bytes, data) -> bytes:
    pos = data.draw(st.integers(0, len(blob) - 1), label="pos")
    mask = data.draw(st.integers(1, 255), label="mask")
    flipped = bytearray(blob)
    flipped[pos] ^= mask
    return bytes(flipped)


def _written_artifacts(directory, branches=2):
    """(file name, bytes, read) for one saved artifact of each kind."""
    key = derive_subkey(MASTER, 0, 0, TAG_INIT)
    return (("system.rdiv", saved_bytes(directory / "system.rdiv", save_system,
                                        untrained_system(branches=branches)),
             read_system),
            ("model.rdiv", saved_bytes(directory / "model.rdiv", save_params,
                                       init_params(toy_arch(), key), key),
             read_params),
            ("adv.radv", saved_bytes(directory / "adv.radv", save_adv_set,
                                     handmade_adv_set()),
             read_adv_set))


@pytest.fixture(scope="module")
def flip_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("flipped")


@pytest.fixture(scope="module")
def flip_artifacts(flip_dir):
    return _written_artifacts(flip_dir, branches=1)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_any_single_byte_flip_is_rejected(flip_dir, flip_artifacts, data):
    for _, blob, read in flip_artifacts:
        with pytest.raises(BlobFormatError):
            read_written(flip_dir / "flipped.bin", read, _flip_one_byte(blob, data))


_CORRUPTIONS = {
    "flipped byte": lambda blob: blob[:40] + bytes([blob[40] ^ 0x5A]) + blob[41:],
    "cut tail": lambda blob: blob[:-1],
    "appended byte": lambda blob: blob + b"\x00",
    # Resealed, so the parser's own checks run behind a valid digest.
    "resealed first body byte": lambda blob: _reseal(blob[:5] + bytes([blob[5] ^ 0xFF])
                                                     + blob[6:]),
    "resealed cut tail": lambda blob: _reseal(blob[:-33] + blob[-32:]),
    "resealed appended byte": lambda blob: _reseal(blob[:-32] + b"\x00" + blob[-32:]),
}


# What each corruption reads as, per artifact kind, after the file's path.
_CORRUPTION_ERRORS = {
    "flipped byte": dict.fromkeys(("system.rdiv", "model.rdiv", "adv.radv"),
                                  "SHA-256 checksum mismatch"),
    "cut tail": dict.fromkeys(("system.rdiv", "model.rdiv", "adv.radv"),
                              "SHA-256 checksum mismatch"),
    "appended byte": dict.fromkeys(("system.rdiv", "model.rdiv", "adv.radv"),
                                   "SHA-256 checksum mismatch"),
    "resealed first body byte": {"system.rdiv": "unknown mode byte 254",
                                 "model.rdiv": "unknown layer code 57",
                                 "adv.radv": "unknown attack code 253"},
    "resealed cut tail": {"system.rdiv": "truncated at byte 6599, 3 float32 values need 12 bytes",
                          "model.rdiv": "truncated at byte 3305",
                          "adv.radv": "truncated at byte 71, 5 records need 760 bytes"},
    "resealed appended byte": dict.fromkeys(("system.rdiv", "model.rdiv", "adv.radv"),
                                            "1 trailing bytes"),
}


@pytest.mark.parametrize("corruption", sorted(_CORRUPTIONS))
def test_read_errors_name_the_file(tmp_path, corruption):
    for name, blob, read in _written_artifacts(tmp_path):
        path = tmp_path / f"bad-{name}"
        with pytest.raises(BlobFormatError) as caught:
            read_written(path, read, _CORRUPTIONS[corruption](blob))
        assert str(caught.value) == f"{path}: {_CORRUPTION_ERRORS[corruption][name]}"


def _array_bytes(value) -> int:
    """Bytes of every NumPy array reachable through dataclasses and tuples."""
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, (tuple, list)):
        return sum(_array_bytes(item) for item in value)
    if hasattr(value, "__dataclass_fields__"):
        return sum(_array_bytes(getattr(value, name)) for name in value.__dataclass_fields__)
    return 0


def test_reads_hold_one_copy_of_the_artifact(tmp_path):
    """A read peaks at the arrays it returns plus one chunk.

    Holding the file's bytes beside the parsed arrays would peak near twice
    the file size; every file here is several chunks long.
    """
    arch = mlp_arch(SIZE * SIZE * COLORS, (512, 512), CLASSES)
    key = derive_subkey(MASTER, 0, 0, TAG_INIT)
    rng = np.random.default_rng(7)
    originals = rng.random((6000, SIZE, SIZE, COLORS), dtype=np.float32)
    adv = AdvSet(AttackConfig(kind="fgsm", eps=0.1), np.arange(6000),
                 rng.integers(0, CLASSES, size=6000), originals,
                 np.clip(originals + np.float32(0.1), 0.0, 1.0))
    system = build_system("direct-permutation", MASTER, 1, 2, arch, SIZE, COLORS)
    save_system(tmp_path / "system.rdiv", system)
    save_params(tmp_path / "model.rdiv", init_params(arch, key), key)
    save_adv_set(tmp_path / "adv.radv", adv)
    for name, read in (("system.rdiv", read_system), ("model.rdiv", read_params),
                       ("adv.radv", read_adv_set)):
        size = (tmp_path / name).stat().st_size
        assert size > 4 * _CHUNK_BYTES
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            returned = read(tmp_path / name)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        bound = _array_bytes(returned) + _CHUNK_BYTES + (64 << 10)
        assert peak <= bound, f"{name}: peak {peak} bytes for a {size}-byte file"


def _round_trip(path, system):
    save_system(path, system)
    return read_system(path)


def test_system_per_color_round_trip(tmp_path):
    system = train_system(
        build_system("direct-permutation", MASTER, 1, 2, toy_arch(), SIZE,
                     COLORS, per_color=True),
        toy_set(), quick_hyper(epochs=1))
    path = tmp_path / "system.rdiv"
    loaded = _round_trip(path, system)
    assert system.per_color and loaded.per_color
    assert _round_trip(path, first_branches(system, 1)).per_color
    for a, b in zip(loaded.channels, system.channels, strict=True):
        assert a.preprocessor.payload_equal(b.preprocessor)
    assert not _round_trip(path, untrained_system()).per_color


def test_adv_set_round_trip(tmp_path):
    surrogate = train_surrogate(toy_set(), toy_arch(), quick_hyper(), MASTER)
    config = AttackConfig(kind="pgd-linf", eps=0.1, alpha=0.02, steps=7)
    adv = craft_adv_set(surrogate, toy_set(count=6, seed=2), config)
    blob = saved_bytes(tmp_path / "adv.radv", save_adv_set, adv)
    assert blob[:4] == b"RADV"
    loaded = read_adv_set(tmp_path / "adv.radv")
    assert loaded.config == config
    assert loaded.indices.dtype == loaded.labels.dtype == np.int64
    assert loaded.originals.dtype == loaded.adversarials.dtype == np.float32
    assert np.array_equal(loaded.indices, adv.indices)
    assert np.array_equal(loaded.labels, adv.labels)
    assert np.array_equal(loaded.originals, adv.originals)
    assert np.array_equal(loaded.adversarials, adv.adversarials)
    assert loaded.preds_after is None
    with pytest.raises(ValueError, match="predictions"):
        _ = loaded.surrogate_success_pct
    assert saved_bytes(tmp_path / "again.radv", save_adv_set, loaded) == blob


def test_adv_set_corruption_detected(tmp_path):
    surrogate = train_surrogate(toy_set(), toy_arch(), quick_hyper(epochs=1),
                                MASTER)
    adv = craft_adv_set(surrogate, toy_set(count=3, seed=2),
                        AttackConfig(kind="fgsm", eps=0.05))
    path = tmp_path / "adv.radv"
    blob = saved_bytes(path, save_adv_set, adv)
    with pytest.raises(BlobFormatError, match="magic"):
        read_written(path, read_adv_set, b"RDIV" + blob[4:])
    with pytest.raises(BlobFormatError, match="truncated"):
        read_written(path, read_adv_set, _reseal(blob[:-5]))
    mangled = bytearray(blob)
    mangled[5] = 77  # attack kind byte
    with pytest.raises(BlobFormatError, match="checksum"):
        read_written(path, read_adv_set, bytes(mangled))
    with pytest.raises(BlobFormatError, match="attack code"):
        read_written(path, read_adv_set, _reseal(bytes(mangled)))


# The record count and image dims follow magic, version, kind byte and the
# packed attack config.
_ADV_COUNT = 4 + 1 + 1 + struct.calcsize("<ddIdIddBI")


def test_adv_set_corrupt_count_raises_before_allocating(tmp_path):
    path = tmp_path / "adv.radv"
    blob = bytearray(saved_bytes(path, save_adv_set, handmade_adv_set()))
    assert struct.unpack_from("<III", blob, _ADV_COUNT) == (5, 3, 2)
    # 2**32 - 1 records of two 3x3x2 float32 images would need 300+ GB.
    struct.pack_into("<I", blob, _ADV_COUNT, 0xFFFFFFFF)
    with pytest.raises(BlobFormatError, match="truncated"):
        read_written(path, read_adv_set, _reseal(bytes(blob)))
    struct.pack_into("<III", blob, _ADV_COUNT, 5, 0xFFFF, 2)
    with pytest.raises(BlobFormatError, match="dims"):
        read_written(path, read_adv_set, _reseal(bytes(blob)))
    struct.pack_into("<III", blob, _ADV_COUNT, 4, 3, 2)
    with pytest.raises(BlobFormatError, match="trailing"):
        read_written(path, read_adv_set, _reseal(bytes(blob)))


def test_adv_set_body_is_whole_arrays(tmp_path):
    """After the header: indices u32, labels u32, originals, adversarials."""
    adv = handmade_adv_set()
    blob = saved_bytes(tmp_path / "adv.radv", save_adv_set, adv)
    body = b"".join(np.asarray(values, dtype=dtype).tobytes()
                    for values, dtype in ((adv.indices, "<u4"), (adv.labels, "<u4"),
                                          (adv.originals, "<f4"),
                                          (adv.adversarials, "<f4")))
    assert blob[_ADV_COUNT + 12:-32] == body


def test_v2_adv_set_rejected_by_version(tmp_path):
    """A set of the previous layout: version byte 2 and packed records."""
    adv = handmade_adv_set()
    path = tmp_path / "adv.radv"
    header = saved_bytes(path, save_adv_set, adv)[5:_ADV_COUNT + 12]
    image = ("<f4", (3, 3, 2))
    records = np.empty(len(adv), dtype=[("index", "<u4"), ("label", "<u4"),
                                        ("original",) + image, ("adversarial",) + image])
    records["index"], records["label"] = adv.indices, adv.labels
    records["original"], records["adversarial"] = adv.originals, adv.adversarials
    with pytest.raises(BlobFormatError) as caught:
        read_written(path, read_adv_set,
                     _reseal(b"RADV\x02" + header + records.tobytes() + bytes(32)))
    assert str(caught.value) == f"{path}: unsupported version 2"


def test_empty_adv_set_round_trip(tmp_path):
    adv = handmade_adv_set()
    empty = replace(adv, indices=adv.indices[:0], labels=adv.labels[:0],
                    originals=adv.originals[:0], adversarials=adv.adversarials[:0])
    path = tmp_path / "adv.radv"
    blob = saved_bytes(path, save_adv_set, empty)
    assert len(blob) == _ADV_COUNT + 12 + 32
    loaded = read_adv_set(path)
    assert len(loaded) == 0
    assert loaded.originals.shape == loaded.adversarials.shape == (0, 3, 3, 2)
    assert loaded.config == adv.config
    assert saved_bytes(tmp_path / "again.radv", save_adv_set, loaded) == blob


def test_adv_set_save_makes_no_copy_of_the_images(tmp_path):
    """Saving seals views of the arrays; a packed copy of the records would
    peak at the size of both image arrays."""
    rng = np.random.default_rng(8)
    originals = rng.random((2000, 28, 28, 1), dtype=np.float32)
    adv = AdvSet(AttackConfig(kind="fgsm", eps=0.1), np.arange(2000),
                 rng.integers(0, CLASSES, size=2000), originals,
                 np.clip(originals + np.float32(0.1), 0.0, 1.0))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        save_adv_set(tmp_path / "adv.radv", adv)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    image_bytes = adv.originals.nbytes + adv.adversarials.nbytes
    assert peak < image_bytes / 10, f"peak {peak} bytes for {image_bytes} image bytes"
    assert read_adv_set(tmp_path / "adv.radv").adversarials.tobytes() == \
        adv.adversarials.tobytes()


def test_file_round_trip_and_atomicity(tmp_path, trained_system):
    path = tmp_path / "system.rdiv"
    save_system(path, trained_system)
    assert read_system(path).branches == trained_system.branches
    leftovers = [p for p in tmp_path.iterdir() if p != path]
    assert leftovers == []
    # A failed write must not clobber the existing file.
    good = path.read_bytes()
    with pytest.raises(TypeError):
        atomic_write_bytes(path, None)
    assert path.read_bytes() == good


def test_save_and_read_are_the_only_artifact_io():
    # Every artifact kind is written and read through a file, by one pair.
    import inspect

    import rdiv.serialize as serialize
    public = sorted(name for name, value in vars(serialize).items()
                    if inspect.isfunction(value) and not name.startswith("_")
                    and value.__module__ == serialize.__name__)
    assert public == ["atomic_write_bytes", "read_adv_set", "read_params", "read_system",
                      "save_adv_set", "save_params", "save_system"]


def test_atomic_write_joins_its_parts(tmp_path):
    path = tmp_path / "parts.bin"
    atomic_write_bytes(path, b"ab", memoryview(b"cde"), np.arange(2, dtype="<u2").data)
    assert path.read_bytes() == b"abcde\x00\x00\x01\x00"
    # A part that fails after others were written leaves the old file.
    with pytest.raises(TypeError):
        atomic_write_bytes(path, b"new", None)
    assert path.read_bytes() == b"abcde\x00\x00\x01\x00"
    assert [p.name for p in tmp_path.iterdir()] == ["parts.bin"]
