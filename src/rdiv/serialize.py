"""Binary persistence for models, keyed systems, and adversarial sets.

Three artifact kinds share conventions: a 4-byte ASCII magic, a format
version byte, little-endian integers and floats, float32 parameter and
pixel tensors in row-major order, and keys as 16 lowercase hex digits.

Model blob:
    "RDIV" ver | layer count | per layer: kind byte (+ fan_in, fan_out for
    dense) | per dense layer: weights then biases | model subkey hex.

System file:
    "RDIV" ver | mode byte | J I M N m | master key hex | J*I channels in
    (j, i) order, each a preprocessor descriptor followed by a model blob.
    J must be the mode's group count. A descriptor is kind code, j, i,
    sub-band byte, a reserved u32 that must be 0, and the preprocessor
    subkey hex. Keyed payloads (permutations, sign masks) are not stored;
    they are rebuilt from the master key on load and cross-checked against
    the stored subkeys.

Adversarial set:
    "RADV" ver | attack kind byte | config fields | count N m | count
    packed records: u32 index, u32 label, original pixels, adversarial
    pixels.

All writes go through a temp file in the target directory plus an atomic
rename, so readers never observe a partial file.
"""

from __future__ import annotations

import os
import struct
import tempfile
from pathlib import Path

import numpy as np

from .attacks import AdvSet, AttackConfig
from .nn import ArchSpec, ModelParams
from .rng import TAG_INIT, MasterKey, SubKey, derive_subkey
from .system import (
    GROUP_BANDS,
    MODES,
    ChannelSpec,
    SystemSpec,
    _channel_kind,
    build_system,
    mode_groups,
)
from .transforms import SUBBAND_IDS

MODEL_MAGIC = b"RDIV"
ADV_MAGIC = b"RADV"
FORMAT_VERSION = 1

_LAYER_CODES = {"dense": 1, "relu": 2, "softmax-output": 3}
_LAYER_NAMES = {v: k for k, v in _LAYER_CODES.items()}

# Descriptor codes for preprocessor kinds; 5 marks the per-color variant of
# direct-permutation, which is the same in-memory kind with a flag.
_KIND_CODES = {"identity": 0, "direct-permutation": 1, "dct-sign-flip": 2,
               "dct-hard-threshold": 3}
_KIND_NAMES = {v: k for k, v in _KIND_CODES.items()}
_PER_COLOR_CODE = 5

_MAX_LAYER_DIM = 1 << 20

_MODE_CODES = {name: code for code, name in enumerate(MODES)}
_MODE_NAMES = {v: k for k, v in _MODE_CODES.items()}

_BAND_CODES = {name: code for code, name in enumerate(SUBBAND_IDS)}
_BAND_NAMES = {v: k for k, v in _BAND_CODES.items()}
_NO_BAND = 0xFF

_ATTACK_CODES = {"fgsm": 0, "pgd-linf": 1, "cw-l2": 2}
_ATTACK_NAMES = {v: k for k, v in _ATTACK_CODES.items()}


class BlobFormatError(ValueError):
    """A byte stream does not parse as the artifact it claims to be."""


def atomic_write_bytes(path: str | Path, payload: bytes) -> None:
    """Write via a sibling temp file and rename, so the path is never partial."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class _Reader:
    """Sequential little-endian decoder with bounds checking."""

    def __init__(self, blob: bytes, label: str):
        self.blob = blob
        self.pos = 0
        self.label = label

    def take(self, count: int) -> bytes:
        end = self.pos + count
        if end > len(self.blob):
            raise BlobFormatError(f"{self.label}: truncated at byte {self.pos}")
        chunk = self.blob[self.pos:end]
        self.pos = end
        return chunk

    def u8(self) -> int:
        return self.take(1)[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def f64(self) -> float:
        return struct.unpack("<d", self.take(8))[0]

    def key_hex(self) -> int:
        text = self.take(16)
        try:
            return int(text.decode("ascii"), 16)
        except (UnicodeDecodeError, ValueError):
            raise BlobFormatError(f"{self.label}: bad key hex {text!r}") from None

    def f32_array(self, shape: tuple[int, ...]) -> np.ndarray:
        count = int(np.prod(shape))
        raw = self.take(count * 4)
        return np.frombuffer(raw, dtype="<f4").reshape(shape).astype(np.float32)

    def expect_magic(self, magic: bytes) -> None:
        found = self.take(4)
        if found != magic:
            raise BlobFormatError(f"{self.label}: bad magic {found!r}")
        version = self.u8()
        if version != FORMAT_VERSION:
            raise BlobFormatError(f"{self.label}: unsupported version {version}")

    def records(self, dtype: np.dtype, count: int) -> np.ndarray:
        """`count` packed records, checked against the remaining length first."""
        need = count * dtype.itemsize
        left = len(self.blob) - self.pos
        if need > left:
            raise BlobFormatError(f"{self.label}: truncated at byte {self.pos}, "
                                  f"{count} records need {need} bytes")
        out = np.frombuffer(self.blob, dtype=dtype, count=count, offset=self.pos)
        self.pos += need
        return out

    def expect_end(self) -> None:
        if self.pos != len(self.blob):
            raise BlobFormatError(
                f"{self.label}: {len(self.blob) - self.pos} trailing bytes")


def _pack_f32(array: np.ndarray) -> bytes:
    return np.ascontiguousarray(array, dtype="<f4").tobytes()


def dump_params(params: ModelParams, key: SubKey) -> bytes:
    """Encode one trained model plus the subkey its init came from."""
    out = bytearray()
    out += MODEL_MAGIC
    out += struct.pack("<B", FORMAT_VERSION)
    out += struct.pack("<I", len(params.arch.layers))
    for kind, dims in params.arch.layers:
        out += struct.pack("<B", _LAYER_CODES[kind])
        if kind == "dense":
            out += struct.pack("<II", *dims)
    for w, b in zip(params.weights, params.biases):
        out += _pack_f32(w)
        out += _pack_f32(b)
    out += f"{key.value:016x}".encode("ascii")
    return bytes(out)


def _read_params(reader: _Reader) -> tuple[ModelParams, int]:
    layer_count = reader.u32()
    if layer_count < 1 or layer_count > 1000:
        raise BlobFormatError(f"{reader.label}: layer count {layer_count} out of range")
    layers = []
    for _ in range(layer_count):
        code = reader.u8()
        if code not in _LAYER_NAMES:
            raise BlobFormatError(f"{reader.label}: unknown layer code {code}")
        kind = _LAYER_NAMES[code]
        if kind == "dense":
            fan_in, fan_out = reader.u32(), reader.u32()
            if not (1 <= fan_in <= _MAX_LAYER_DIM and 1 <= fan_out <= _MAX_LAYER_DIM):
                raise BlobFormatError(
                    f"{reader.label}: dense dims {fan_in}x{fan_out} out of range")
            layers.append((kind, (fan_in, fan_out)))
        else:
            layers.append((kind, ()))
    if not layers or layers[0][0] != "dense":
        raise BlobFormatError(f"{reader.label}: arch must start with a dense layer")
    try:
        arch = ArchSpec(layers[0][1][0], tuple(layers))
    except ValueError as exc:
        raise BlobFormatError(f"{reader.label}: {exc}") from None
    weights = []
    biases = []
    for fan_in, fan_out in arch.dense_shapes:
        weights.append(reader.f32_array((fan_in, fan_out)))
        biases.append(reader.f32_array((fan_out,)))
    key_value = reader.key_hex()
    return ModelParams(arch, tuple(weights), tuple(biases)), key_value


def load_params(blob: bytes, label: str = "model") -> tuple[ModelParams, int]:
    """Decode a model blob. Returns the params and the stored subkey value."""
    reader = _Reader(blob, label)
    reader.expect_magic(MODEL_MAGIC)
    params, key_value = _read_params(reader)
    reader.expect_end()
    return params, key_value


def _dump_descriptor(channel: ChannelSpec) -> bytes:
    pre = channel.preprocessor
    if pre.kind == "direct-permutation" and pre.per_color:
        code = _PER_COLOR_CODE
    else:
        code = _KIND_CODES[pre.kind]
    band = _BAND_CODES[pre.subband.id] if pre.subband is not None else _NO_BAND
    out = struct.pack("<BIIBI", code, channel.j, channel.i, band, 0)
    return out + f"{pre.key.value:016x}".encode("ascii")


def dump_system(system: SystemSpec) -> bytes:
    """Encode a trained system: header, then every channel in grid order."""
    if not system.trained:
        raise ValueError("refusing to serialize an untrained system")
    out = bytearray()
    out += MODEL_MAGIC
    out += struct.pack("<B", FORMAT_VERSION)
    out += struct.pack("<B", _MODE_CODES[system.mode])
    out += struct.pack("<IIIII", system.groups, system.branches,
                       system.classes, system.size, system.colors)
    out += system.master.to_hex().encode("ascii")
    for channel in system.channels:
        out += _dump_descriptor(channel)
        init_key = derive_subkey(system.master, channel.j, channel.i, TAG_INIT)
        out += dump_params(channel.params, init_key)
    return bytes(out)


def load_system(blob: bytes) -> SystemSpec:
    """Decode a system file, rebuilding keyed payloads from the master key.

    Stored subkeys must match the ones re-derived from the header's master
    key; a mismatch means the file is corrupt or was stitched together from
    different keys. The reject threshold is an evaluation-time setting and
    is not part of the file.
    """
    reader = _Reader(blob, "system")
    reader.expect_magic(MODEL_MAGIC)
    mode_code = reader.u8()
    if mode_code not in _MODE_NAMES:
        raise BlobFormatError(f"system: unknown mode byte {mode_code}")
    mode = _MODE_NAMES[mode_code]
    groups, branches, classes, size, colors = (reader.u32() for _ in range(5))
    if groups != mode_groups(mode):
        raise BlobFormatError(f"system: mode {mode!r} has {mode_groups(mode)} "
                              f"group(s), header says {groups}")
    master = MasterKey(reader.key_hex())

    channels = []
    arch = None
    per_color = False
    for j in range(groups):
        for i in range(branches):
            code, got_j, got_i, band_code, reserved = struct.unpack(
                "<BIIBI", reader.take(14))
            pre_key_value = reader.key_hex()
            if (got_j, got_i) != (j, i):
                raise BlobFormatError(
                    f"system: channel ({got_j}, {got_i}) out of order, "
                    f"expected ({j}, {i})")
            if reserved != 0:
                raise BlobFormatError(
                    f"system: channel ({j}, {i}) reserved field is {reserved}, "
                    f"expected 0")
            if code == _PER_COLOR_CODE:
                kind, chan_per_color = "direct-permutation", True
            elif code in _KIND_NAMES:
                kind, chan_per_color = _KIND_NAMES[code], False
            else:
                raise BlobFormatError(f"system: unknown preprocessor code {code}")
            if kind != _channel_kind(mode):
                raise BlobFormatError(
                    f"system: channel kind {kind!r} does not belong to mode {mode!r}")
            if j == 0 and i == 0:
                per_color = chan_per_color
            elif chan_per_color != per_color:
                raise BlobFormatError("system: mixed per-color flags")
            expected_band = (_BAND_CODES[GROUP_BANDS[j]]
                             if kind.startswith("dct") else _NO_BAND)
            if band_code != expected_band:
                raise BlobFormatError(
                    f"system: channel ({j}, {i}) sub-band byte {band_code}, "
                    f"expected {expected_band}")
            reader.expect_magic(MODEL_MAGIC)
            params, model_key_value = _read_params(reader)
            if arch is None:
                arch = params.arch
            elif params.arch != arch:
                raise BlobFormatError("system: channels disagree on architecture")
            channels.append((params, pre_key_value, model_key_value))

    reader.expect_end()
    if arch is None:
        raise BlobFormatError("system: no channels")
    if arch.classes != classes or arch.input_dim != size * size * colors:
        raise BlobFormatError("system: header dims disagree with the arch")

    system = build_system(mode, master, groups, branches, arch, size, colors,
                          per_color=per_color,
                          params=[model for model, _, _ in channels])
    for channel, (_, pre_key_value, model_key_value) in zip(
            system.channels, channels):
        if channel.preprocessor.key.value != pre_key_value:
            raise BlobFormatError(
                f"system: channel ({channel.j}, {channel.i}) preprocessor "
                f"subkey does not derive from the stored master key")
        expected_init = derive_subkey(master, channel.j, channel.i, TAG_INIT)
        if expected_init.value != model_key_value:
            raise BlobFormatError(
                f"system: channel ({channel.j}, {channel.i}) model subkey "
                f"does not derive from the stored master key")
    return system


def _adv_record_dtype(size: int, colors: int) -> np.dtype:
    image = ("<f4", (size, size, colors))
    return np.dtype([("index", "<u4"), ("label", "<u4"),
                     ("original",) + image, ("adversarial",) + image])


def dump_adv_set(adv: AdvSet) -> bytes:
    """Encode an adversarial set. Surrogate predictions are not persisted."""
    config = adv.config
    count = len(adv)
    if adv.originals.ndim != 4:
        raise ValueError("adversarial set images must be (B, N, N, m)")
    size, colors = adv.originals.shape[1], adv.originals.shape[3]
    for name in ("indices", "labels"):
        values = np.asarray(getattr(adv, name))
        if count and not (0 <= values.min() and values.max() < 1 << 32):
            raise ValueError(f"adversarial set {name} do not fit in u32")
    records = np.empty(count, dtype=_adv_record_dtype(size, colors))
    records["index"] = adv.indices
    records["label"] = adv.labels
    records["original"] = adv.originals
    records["adversarial"] = adv.adversarials
    out = bytearray()
    out += ADV_MAGIC
    out += struct.pack("<B", FORMAT_VERSION)
    out += struct.pack("<B", _ATTACK_CODES[config.kind])
    out += struct.pack("<ddIdIddBI", config.eps, config.alpha, config.steps,
                       config.c, config.iterations, config.step_size,
                       config.kappa, int(config.targeted), config.target)
    out += struct.pack("<III", count, size, colors)
    # One copy of the records into the result; bytearray growth plus bytes()
    # would copy them twice.
    return b"".join((out, records.data))


def load_adv_set(blob: bytes) -> AdvSet:
    """Decode an adversarial set; prediction fields come back unset."""
    reader = _Reader(blob, "advset")
    reader.expect_magic(ADV_MAGIC)
    kind_code = reader.u8()
    if kind_code not in _ATTACK_NAMES:
        raise BlobFormatError(f"advset: unknown attack code {kind_code}")
    eps, alpha = reader.f64(), reader.f64()
    steps = reader.u32()
    c = reader.f64()
    iterations = reader.u32()
    step_size, kappa = reader.f64(), reader.f64()
    targeted = bool(reader.u8())
    target = reader.u32()
    try:
        config = AttackConfig(kind=_ATTACK_NAMES[kind_code], eps=eps,
                              alpha=alpha, steps=steps, c=c,
                              iterations=iterations, step_size=step_size,
                              kappa=kappa, targeted=targeted, target=target)
    except ValueError as exc:
        raise BlobFormatError(f"advset: {exc}") from None
    count, size, colors = reader.u32(), reader.u32(), reader.u32()
    # No dense layer takes more inputs, so no model could read a larger image.
    if size * size * colors > _MAX_LAYER_DIM:
        raise BlobFormatError(f"advset: image dims {size}x{size}x{colors} out of range")
    records = reader.records(_adv_record_dtype(size, colors), count)
    reader.expect_end()
    return AdvSet(config, records["index"].astype(np.int64),
                  records["label"].astype(np.int64),
                  records["original"].astype(np.float32),
                  records["adversarial"].astype(np.float32))


def save_params(path: str | Path, params: ModelParams, key: SubKey) -> None:
    atomic_write_bytes(path, dump_params(params, key))


def read_params(path: str | Path) -> tuple[ModelParams, int]:
    return load_params(Path(path).read_bytes(), label=str(path))


def save_system(path: str | Path, system: SystemSpec) -> None:
    atomic_write_bytes(path, dump_system(system))


def read_system(path: str | Path) -> SystemSpec:
    return load_system(Path(path).read_bytes())


def save_adv_set(path: str | Path, adv: AdvSet) -> None:
    atomic_write_bytes(path, dump_adv_set(adv))


def read_adv_set(path: str | Path) -> AdvSet:
    return load_adv_set(Path(path).read_bytes())
