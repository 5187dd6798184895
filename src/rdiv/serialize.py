"""Binary persistence for models, keyed systems, and adversarial sets.

Every artifact is one frame: a 4-byte ASCII magic, a format version byte,
the body, and the SHA-256 of everything before it (32 bytes). Readers check
magic, version and digest before they parse a single field, so any changed
byte is rejected. Bodies use little-endian integers and floats, float32
parameter and pixel tensors in row-major order, and keys as 16 lowercase
hex digits. An arch is a layer count, then per layer a kind byte, plus
fan_in and fan_out for dense layers.

Model blob ("RDIV"):
    arch | per dense layer: weights then biases | model subkey hex.

System file ("RDIV"):
    mode byte | per-color byte (0/1) | I N m | master key hex | arch |
    weights and biases of all J*I channels in (j, i) order.
    The per-color byte is `SystemSpec.per_color`. The mode, that byte and
    the master key define every channel's transform, so J, the kinds, bands
    and keyed payloads (each channel's index map or DCT coefficient mask)
    are not stored; `build_system` re-derives them on load.

Adversarial set ("RADV"):
    attack kind byte | config fields | count N m | count packed records:
    u32 index, u32 label, original pixels, adversarial pixels.

All writes go through a temp file in the target directory plus an atomic
rename, so readers never observe a partial file. `save_*` write a frame's
parts into that file one after another, so the body is never copied into
one joined buffer; `dump_*` return the same bytes joined.
"""

from __future__ import annotations

import hashlib
import os
import struct
import tempfile
from pathlib import Path

import numpy as np

from .attacks import ATTACK_KINDS, AdvSet, AttackConfig
from .nn import ArchSpec, ModelParams
from .rng import MasterKey, SubKey, hex16_value
from .system import MODES, SystemSpec, build_system, mode_groups

MODEL_MAGIC = b"RDIV"
ADV_MAGIC = b"RADV"
FORMAT_VERSION = 2

_DIGEST_SIZE = hashlib.sha256().digest_size
_HEADER_SIZE = 5  # magic and version byte

_LAYER_CODES = {"dense": 1, "relu": 2, "softmax-output": 3}
_LAYER_NAMES = {v: k for k, v in _LAYER_CODES.items()}

_MAX_LAYER_DIM = 1 << 20

_MODE_CODES = {name: code for code, name in enumerate(MODES)}
_MODE_NAMES = {v: k for k, v in _MODE_CODES.items()}

_ATTACK_CODES = {name: code for code, name in enumerate(ATTACK_KINDS)}
_ATTACK_NAMES = {v: k for k, v in _ATTACK_CODES.items()}

# Mode byte, per-color byte, I, N, m.
_SYSTEM_HEADER = struct.Struct("<BBIII")
# Attack kind byte; eps, alpha, steps, c, iterations, step_size, kappa,
# targeted byte and target of the attack config; record count, N, m.
_ADV_HEADER = struct.Struct("<BddIdIddBIIII")


class BlobFormatError(ValueError):
    """A byte stream does not parse as the artifact it claims to be."""


def atomic_write_bytes(path: str | Path, *parts: bytes | memoryview) -> None:
    """Write `parts` in order via a sibling temp file and rename, so the path
    is never partial."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            for part in parts:
                handle.write(part)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _seal(magic: bytes, *body: bytes | memoryview) -> tuple[bytes | memoryview, ...]:
    """Frame `body` as magic, version, body, SHA-256 of all that precedes it.

    The frame comes back as its parts, with the body parts as given: a
    `save_*` writes them straight into its file, and only a `dump_*` joins
    them, which is the one copy of the body it returns.
    """
    head = magic + struct.pack("<B", FORMAT_VERSION)
    digest = hashlib.sha256(head)
    for part in body:
        digest.update(part)
    return (head, *body, digest.digest())


class _Reader:
    """Sequential little-endian decoder over a verified frame's body."""

    def __init__(self, blob: bytes, magic: bytes, label: str):
        self.label = label
        found = blob[:4]
        if found != magic:
            raise BlobFormatError(f"{label}: bad magic {found!r}")
        if len(blob) < _HEADER_SIZE + _DIGEST_SIZE:
            raise BlobFormatError(f"{label}: truncated at byte {len(blob)}")
        if blob[4] != FORMAT_VERSION:
            raise BlobFormatError(f"{label}: unsupported version {blob[4]}")
        self.end = len(blob) - _DIGEST_SIZE
        if hashlib.sha256(memoryview(blob)[:self.end]).digest() != blob[self.end:]:
            raise BlobFormatError(f"{label}: SHA-256 checksum mismatch")
        self.blob = blob
        self.pos = _HEADER_SIZE

    def take(self, count: int) -> bytes:
        end = self.pos + count
        if end > self.end:
            raise BlobFormatError(f"{self.label}: truncated at byte {self.pos}")
        chunk = self.blob[self.pos:end]
        self.pos = end
        return chunk

    def u8(self) -> int:
        return self.take(1)[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def fields(self, layout: struct.Struct) -> tuple:
        return layout.unpack(self.take(layout.size))

    def key_hex(self) -> int:
        text = self.take(16)
        try:
            # UnicodeDecodeError is a ValueError too.
            return hex16_value(text.decode("ascii"))
        except ValueError:
            raise BlobFormatError(f"{self.label}: bad key hex {text!r}") from None

    def f32_array(self, shape: tuple[int, ...]) -> np.ndarray:
        flat = self.records(np.dtype("<f4"), int(np.prod(shape)))
        return flat.reshape(shape).astype(np.float32)

    def records(self, dtype: np.dtype, count: int) -> np.ndarray:
        """`count` packed records, checked against the remaining length first."""
        need = count * dtype.itemsize
        left = self.end - self.pos
        if need > left:
            raise BlobFormatError(f"{self.label}: truncated at byte {self.pos}, "
                                  f"{count} records need {need} bytes")
        out = np.frombuffer(self.blob, dtype=dtype, count=count, offset=self.pos)
        self.pos += need
        return out

    def expect_end(self) -> None:
        if self.pos != self.end:
            raise BlobFormatError(f"{self.label}: {self.end - self.pos} trailing bytes")


def _tensors(params: ModelParams) -> list[memoryview]:
    """Each layer's weights then biases as little-endian float32 buffers."""
    return [np.ascontiguousarray(t, dtype="<f4").data
            for pair in zip(params.weights, params.biases) for t in pair]


def _dump_arch(arch: ArchSpec) -> bytes:
    out = bytearray(struct.pack("<I", len(arch.layers)))
    for kind, dims in arch.layers:
        out += struct.pack("<B", _LAYER_CODES[kind])
        if kind == "dense":
            out += struct.pack("<II", *dims)
    return bytes(out)


def _read_arch(reader: _Reader) -> ArchSpec:
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
    if layers[0][0] != "dense":
        raise BlobFormatError(f"{reader.label}: arch must start with a dense layer")
    try:
        return ArchSpec(layers[0][1][0], tuple(layers))
    except ValueError as exc:
        raise BlobFormatError(f"{reader.label}: {exc}") from None


def _read_tensors(reader: _Reader, arch: ArchSpec) -> ModelParams:
    weights = []
    biases = []
    for fan_in, fan_out in arch.dense_shapes:
        weights.append(reader.f32_array((fan_in, fan_out)))
        biases.append(reader.f32_array((fan_out,)))
    return ModelParams(arch, tuple(weights), tuple(biases))


def _params_frame(params: ModelParams, key: SubKey) -> tuple:
    return _seal(MODEL_MAGIC, _dump_arch(params.arch), *_tensors(params),
                 f"{key.value:016x}".encode("ascii"))


def dump_params(params: ModelParams, key: SubKey) -> bytes:
    """Encode one trained model plus the subkey its init came from."""
    return b"".join(_params_frame(params, key))


def load_params(blob: bytes, label: str = "model") -> tuple[ModelParams, int]:
    """Decode a model blob. Returns the params and the stored subkey value."""
    reader = _Reader(blob, MODEL_MAGIC, label)
    params = _read_tensors(reader, _read_arch(reader))
    key_value = reader.key_hex()
    reader.expect_end()
    return params, key_value


def _system_frame(system: SystemSpec) -> tuple:
    header = _SYSTEM_HEADER.pack(_MODE_CODES[system.mode], system.per_color,
                                 system.branches, system.size, system.colors)
    return _seal(MODEL_MAGIC, header, system.master.to_hex().encode("ascii"),
                 _dump_arch(system.arch),
                 *(view for channel in system.channels
                   for view in _tensors(channel.params)))


def dump_system(system: SystemSpec) -> bytes:
    """Encode a system: header, the arch once, then all weights."""
    return b"".join(_system_frame(system))


def load_system(blob: bytes) -> SystemSpec:
    """Decode a system file, rebuilding keyed payloads from the master key.

    The reject threshold is an evaluation-time setting and is not part of
    the file.
    """
    reader = _Reader(blob, MODEL_MAGIC, "system")
    mode_code, per_color, branches, size, colors = reader.fields(_SYSTEM_HEADER)
    if mode_code not in _MODE_NAMES:
        raise BlobFormatError(f"system: unknown mode byte {mode_code}")
    mode = _MODE_NAMES[mode_code]
    if per_color not in (0, 1):
        raise BlobFormatError(f"system: per-color byte {per_color}, expected 0 or 1")
    master = MasterKey(reader.key_hex())
    arch = _read_arch(reader)
    groups = mode_groups(mode)
    params = [_read_tensors(reader, arch) for _ in range(groups * branches)]
    reader.expect_end()
    try:
        return build_system(mode, master, groups, branches, arch, size, colors,
                            per_color=bool(per_color), params=params)
    except ValueError as exc:
        raise BlobFormatError(f"system: {exc}") from None


def _adv_record_dtype(size: int, colors: int) -> np.dtype:
    image = ("<f4", (size, size, colors))
    return np.dtype([("index", "<u4"), ("label", "<u4"),
                     ("original",) + image, ("adversarial",) + image])


def _adv_frame(adv: AdvSet) -> tuple:
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
    header = _ADV_HEADER.pack(_ATTACK_CODES[config.kind], config.eps, config.alpha,
                              config.steps, config.c, config.iterations,
                              config.step_size, config.kappa,
                              int(config.targeted), config.target,
                              count, size, colors)
    return _seal(ADV_MAGIC, header, records.data)


def dump_adv_set(adv: AdvSet) -> bytes:
    """Encode an adversarial set. Surrogate predictions are not persisted."""
    return b"".join(_adv_frame(adv))


def load_adv_set(blob: bytes) -> AdvSet:
    """Decode an adversarial set; the surrogate predictions come back unset."""
    reader = _Reader(blob, ADV_MAGIC, "advset")
    (kind_code, eps, alpha, steps, c, iterations, step_size, kappa, targeted,
     target, count, size, colors) = reader.fields(_ADV_HEADER)
    if kind_code not in _ATTACK_NAMES:
        raise BlobFormatError(f"advset: unknown attack code {kind_code}")
    try:
        config = AttackConfig(kind=_ATTACK_NAMES[kind_code], eps=eps,
                              alpha=alpha, steps=steps, c=c,
                              iterations=iterations, step_size=step_size,
                              kappa=kappa, targeted=bool(targeted), target=target)
    except ValueError as exc:
        raise BlobFormatError(f"advset: {exc}") from None
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
    atomic_write_bytes(path, *_params_frame(params, key))


def read_params(path: str | Path) -> tuple[ModelParams, int]:
    return load_params(Path(path).read_bytes(), label=str(path))


def save_system(path: str | Path, system: SystemSpec) -> None:
    atomic_write_bytes(path, *_system_frame(system))


def read_system(path: str | Path) -> SystemSpec:
    return load_system(Path(path).read_bytes())


def save_adv_set(path: str | Path, adv: AdvSet) -> None:
    atomic_write_bytes(path, *_adv_frame(adv))


def read_adv_set(path: str | Path) -> AdvSet:
    return load_adv_set(Path(path).read_bytes())
