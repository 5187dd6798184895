"""Binary persistence for models, keyed systems, and adversarial sets.

Every artifact is one file holding one frame: a 4-byte ASCII magic, a
format version byte, the body, and the SHA-256 of everything before it
(32 bytes). `read_*` check the magic, the file's length and the version
first, then parse the body in one pass straight into the arrays they
return, hashing each byte as it is read. They compare the digest before
they return and before they raise an error from any body field, hashing
first whatever that error left unread, so any changed byte is rejected as
a checksum mismatch. A read holds one copy of the artifact. `_parse` is
its one error boundary: it turns every ValueError of the read into a
`BlobFormatError` that begins with the file's path. Bodies use
little-endian integers and floats, float32 parameter and pixel tensors
in row-major order, flag bytes that are 0 or 1, and keys as 16
lowercase hex digits. An arch is a layer count, then per layer a kind
byte, plus fan_in and fan_out for dense layers.

Every kind byte is the kind's index in the tuple that lists the kinds: a
layer's in `nn.LAYER_KINDS` plus 1 (dense 1, relu 2, softmax-output 3), a
mode's in `system.MODES` (identity 0, direct-permutation 1,
dct-sign-flip-3band 2, dct-hard-threshold-3band 3) and an attack's in
`attacks.ATTACK_KINDS` (fgsm 0, pgd-linf 1, cw-l2 2). A new kind goes at
the end of its tuple, so the files written before it still read.

Model blob ("RDIV"):
    arch | per dense layer: weights then biases | key fingerprint hex.
    The fingerprint (`_key_fingerprint`) is one-way; a subkey is not.

System file ("RDIV"):
    mode byte | per-color byte (0/1) | I N m | master key hex | arch |
    weights and biases of all J*I channels in (j, i) order.
    The per-color byte is `SystemSpec.per_color`. The mode, that byte and
    the master key define every channel's transform, so J, the kinds, bands
    and keyed payloads (each channel's index map or DCT coefficient mask)
    are not stored; `build_system` re-derives them on read.

Adversarial set ("RADV"):
    attack kind byte | config fields, among them the targeted byte (0/1) |
    count N m | indices u32[count] | labels u32[count] | originals, then
    adversarials, f32[count,N,N,m].
    Fields a kind does not take hold their defaults. The targeted byte is 1
    if the config has a target; without one, the stored target must be 0.

The version byte is 2 for "RDIV" and 3 for "RADV" (its version 2 packed
each sample into one record); no other version is read.

All writes go through a temp file in the target directory plus an atomic
rename, so readers never observe a partial file. `save_*` write a frame's
header fields and array views into that file one after another, so no body
is ever copied into one joined buffer.
"""

from __future__ import annotations

import hashlib
import os
import struct
import tempfile
from collections.abc import Callable
from pathlib import Path
from typing import BinaryIO, TypeVar

import numpy as np

from .attacks import ATTACK_KINDS, AdvSet, AttackConfig
from .nn import LAYER_KINDS, ArchSpec, ModelParams
from .rng import MasterKey, hex16_value
from .system import MODE_TABLE, MODES, SystemSpec, build_system

MODEL_MAGIC = b"RDIV"
ADV_MAGIC = b"RADV"
# The format version byte of each magic.
FORMAT_VERSIONS = {MODEL_MAGIC: 2, ADV_MAGIC: 3}

_DIGEST_SIZE = hashlib.sha256().digest_size
_HEADER_SIZE = 5  # magic and version byte
# Bytes of unread body hashed per read by `verify`.
_CHUNK_BYTES = 1 << 18

_MAX_LAYER_DIM = 1 << 20

# Hashed before a model blob's key (see `_key_fingerprint`).
_FINGERPRINT_TAG = b"rdiv model key fingerprint"

# Mode byte, per-color byte, I, N, m.
_SYSTEM_HEADER = struct.Struct("<BBIII")
# Attack kind byte; eps, alpha, steps, c, iterations, step_size, kappa,
# targeted byte and target of the attack config; record count, N, m.
_ADV_HEADER = struct.Struct("<BddIdIddBIIII")


T = TypeVar("T")


class BlobFormatError(ValueError):
    """A file does not parse as the artifact it claims to be."""


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

    The frame comes back as its parts, with the body parts as given, so a
    `save_*` writes them straight into its file without joining them.
    """
    head = magic + struct.pack("<B", FORMAT_VERSIONS[magic])
    digest = hashlib.sha256(head)
    for part in body:
        digest.update(part)
    return (head, *body, digest.digest())


class _Frame:
    """Sequential little-endian decoder over the frame in one open file.

    Construction checks magic, length and version. Every later byte is read
    straight into the value or array it becomes and fed to the running
    SHA-256; nothing is allocated before the bytes the file has left are
    known to fill it. `verify` hashes what the parse left unread and
    compares the trailer.
    """

    def __init__(self, handle: BinaryIO, magic: bytes):
        self.handle = handle
        size = handle.seek(0, os.SEEK_END)
        handle.seek(0)
        head = handle.read(_HEADER_SIZE)
        if head[:4] != magic:
            raise ValueError(f"bad magic {head[:4]!r}")
        if size < _HEADER_SIZE + _DIGEST_SIZE:
            raise ValueError(f"truncated at byte {size}")
        if head[4] != FORMAT_VERSIONS[magic]:
            raise ValueError(f"unsupported version {head[4]}")
        self.digest = hashlib.sha256(head)
        self.pos = _HEADER_SIZE
        self.end = size - _DIGEST_SIZE

    def fill(self, out: bytearray | np.ndarray) -> None:
        """Read exactly `out`'s bytes into it and hash them."""
        view = memoryview(out).cast("B")
        done = 0
        while done < len(view):
            got = self.handle.readinto(view[done:])
            if not got:
                raise ValueError(f"truncated at byte {self.pos + done}")
            done += got
        self.digest.update(view)
        self.pos += done

    def take(self, count: int) -> bytes:
        if count > self.end - self.pos:
            raise ValueError(f"truncated at byte {self.pos}")
        chunk = bytearray(count)
        self.fill(chunk)
        return bytes(chunk)

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
            raise ValueError(f"bad key hex {text!r}") from None

    def check_room(self, count: int, itemsize: int, unit: str) -> None:
        """Refuse `count` items of `itemsize` bytes (`unit` in the error) that
        the bytes left cannot hold, so nothing is allocated for them."""
        need = count * itemsize
        if need > self.end - self.pos:
            raise ValueError(f"truncated at byte {self.pos}, {count} {unit} need {need} bytes")

    def array(self, dtype: str, shape: tuple[int, ...]) -> np.ndarray:
        """A little-endian `dtype` array in native byte order, checked
        against the remaining length first."""
        dtype = np.dtype(dtype)
        count = int(np.prod(shape))
        self.check_room(count, dtype.itemsize, f"{dtype.name} values")
        # Flat, since a memoryview cannot cast a shape that holds a zero.
        out = np.empty(count, dtype=dtype)
        self.fill(out)
        return out.reshape(shape).astype(dtype.newbyteorder("="), copy=False)

    def expect_end(self) -> None:
        if self.pos != self.end:
            raise ValueError(f"{self.end - self.pos} trailing bytes")

    def verify(self) -> None:
        """Hash the body bytes the parse left unread, then check the trailer."""
        buffer = bytearray(min(_CHUNK_BYTES, self.end - self.pos))
        while self.pos < self.end:
            self.fill(memoryview(buffer)[:self.end - self.pos])
        if self.handle.read(_DIGEST_SIZE) != self.digest.digest():
            raise ValueError("SHA-256 checksum mismatch")


def _flag(byte: int, what: str) -> bool:
    """A flag byte of a header: 0 or 1, and nothing else."""
    if byte not in (0, 1):
        raise ValueError(f"{what} byte {byte}, expected 0 or 1")
    return bool(byte)


def _parse(path: str | Path, magic: bytes, body: Callable[[_Frame], T]) -> T:
    """`body`'s result over the frame in the file at `path`, once its digest
    matches.

    An error from a body field is raised only after the rest of the frame
    has been hashed and the digest has matched, so a changed byte reports a
    checksum mismatch whichever field it lands in. Every ValueError of the
    read leaves here as a `BlobFormatError` that begins with the path.
    """
    with open(path, "rb") as handle:
        try:
            frame = _Frame(handle, magic)
            failure = None
            try:
                result = body(frame)
                frame.expect_end()
            except Exception as exc:
                failure = exc
            frame.verify()
            if failure is not None:
                raise failure
            return result
        except ValueError as exc:
            raise BlobFormatError(f"{path}: {exc}") from None


def _view(array: np.ndarray, dtype: str) -> memoryview:
    """`array` as a row-major `dtype` buffer, copied only if it is not one."""
    return np.ascontiguousarray(array, dtype=dtype).data


def _tensors(params: ModelParams) -> list[memoryview]:
    """Each layer's weights then biases as little-endian float32 buffers."""
    return [_view(t, "<f4") for pair in zip(params.weights, params.biases) for t in pair]


def _dump_arch(arch: ArchSpec) -> bytes:
    out = bytearray(struct.pack("<I", len(arch.layers)))
    for kind, dims in arch.layers:
        out += struct.pack("<B", LAYER_KINDS.index(kind) + 1)
        if kind == "dense":
            out += struct.pack("<II", *dims)
    return bytes(out)


def _read_arch(frame: _Frame) -> ArchSpec:
    layer_count = frame.u32()
    if layer_count < 1 or layer_count > 1000:
        raise ValueError(f"layer count {layer_count} out of range")
    layers = []
    for _ in range(layer_count):
        code = frame.take(1)[0]
        if not 1 <= code <= len(LAYER_KINDS):
            raise ValueError(f"unknown layer code {code}")
        kind = LAYER_KINDS[code - 1]
        if kind == "dense":
            fan_in, fan_out = frame.u32(), frame.u32()
            if not (1 <= fan_in <= _MAX_LAYER_DIM and 1 <= fan_out <= _MAX_LAYER_DIM):
                raise ValueError(f"dense dims {fan_in}x{fan_out} out of range")
            layers.append((kind, (fan_in, fan_out)))
        else:
            layers.append((kind, ()))
    if layers[0][0] != "dense":
        raise ValueError("arch must start with a dense layer")
    return ArchSpec(layers[0][1][0], tuple(layers))


def _read_tensors(frame: _Frame, arch: ArchSpec) -> ModelParams:
    weights = []
    biases = []
    for fan_in, fan_out in arch.dense_shapes:
        weights.append(frame.array("<f4", (fan_in, fan_out)))
        biases.append(frame.array("<f4", (fan_out,)))
    return ModelParams(arch, tuple(weights), tuple(biases))


def _key_fingerprint(key: int) -> int:
    """First 8 bytes of SHA-256 over the tag and the key as a little-endian u64.

    A subkey itself would invert to its master key: SplitMix64 steps are
    bijections.
    """
    digest = hashlib.sha256(_FINGERPRINT_TAG + struct.pack("<Q", key)).digest()
    return int.from_bytes(digest[:8], "big")


def _params_frame(params: ModelParams, key: int) -> tuple:
    return _seal(MODEL_MAGIC, _dump_arch(params.arch), *_tensors(params),
                 f"{_key_fingerprint(key):016x}".encode("ascii"))


def _parse_params(frame: _Frame) -> tuple[ModelParams, int]:
    params = _read_tensors(frame, _read_arch(frame))
    return params, frame.key_hex()


def _system_frame(system: SystemSpec) -> tuple:
    header = _SYSTEM_HEADER.pack(MODES.index(system.mode), system.per_color,
                                 system.branches, system.size, system.colors)
    return _seal(MODEL_MAGIC, header, system.master.to_hex().encode("ascii"),
                 _dump_arch(system.arch),
                 *(view for channel in system.channels
                   for view in _tensors(channel.params)))


def _parse_system(frame: _Frame) -> SystemSpec:
    mode_code, per_color, branches, size, colors = frame.fields(_SYSTEM_HEADER)
    if mode_code >= len(MODES):
        raise ValueError(f"unknown mode byte {mode_code}")
    mode = MODES[mode_code]
    per_color = _flag(per_color, "per-color")
    master = MasterKey(frame.key_hex())
    arch = _read_arch(frame)
    groups = MODE_TABLE[mode].groups
    params = [_read_tensors(frame, arch) for _ in range(groups * branches)]
    return build_system(mode, master, groups, branches, arch, size, colors,
                        per_color=per_color, params=params)


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
    header = _ADV_HEADER.pack(ATTACK_KINDS.index(config.kind), config.eps, config.alpha,
                              config.steps, config.c, config.iterations,
                              config.step_size, config.kappa,
                              config.target is not None, config.target or 0,
                              count, size, colors)
    return _seal(ADV_MAGIC, header, _view(adv.indices, "<u4"), _view(adv.labels, "<u4"),
                 _view(adv.originals, "<f4"), _view(adv.adversarials, "<f4"))


def _parse_adv_set(frame: _Frame) -> AdvSet:
    (kind_code, eps, alpha, steps, c, iterations, step_size, kappa, targeted,
     target, count, size, colors) = frame.fields(_ADV_HEADER)
    if kind_code >= len(ATTACK_KINDS):
        raise ValueError(f"unknown attack code {kind_code}")
    if not _flag(targeted, "targeted") and target:
        raise ValueError(f"target {target} beside targeted byte 0, expected 0")
    config = AttackConfig(kind=ATTACK_KINDS[kind_code], eps=eps, alpha=alpha, steps=steps,
                          c=c, iterations=iterations, step_size=step_size, kappa=kappa,
                          target=target if targeted else None)
    # No dense layer takes more inputs, so no model could read a larger image.
    if size * size * colors > _MAX_LAYER_DIM:
        raise ValueError(f"image dims {size}x{size}x{colors} out of range")
    # Each sample takes a u32 index, a u32 label and two float32 images.
    frame.check_room(count, 8 + 8 * size * size * colors, "records")
    indices = frame.array("<u4", (count,)).astype(np.int64)
    labels = frame.array("<u4", (count,)).astype(np.int64)
    shape = (count, size, size, colors)
    return AdvSet(config, indices, labels, frame.array("<f4", shape),
                  frame.array("<f4", shape))


def save_params(path: str | Path, params: ModelParams, key: int) -> None:
    atomic_write_bytes(path, *_params_frame(params, key))


def read_params(path: str | Path) -> tuple[ModelParams, int]:
    """Read a model blob. Returns the params and the stored key fingerprint."""
    return _parse(path, MODEL_MAGIC, _parse_params)


def save_system(path: str | Path, system: SystemSpec) -> None:
    atomic_write_bytes(path, *_system_frame(system))


def read_system(path: str | Path) -> SystemSpec:
    """Read a system file, rebuilding keyed payloads from the master key."""
    return _parse(path, MODEL_MAGIC, _parse_system)


def save_adv_set(path: str | Path, adv: AdvSet) -> None:
    atomic_write_bytes(path, *_adv_frame(adv))


def read_adv_set(path: str | Path) -> AdvSet:
    """Read an adversarial set; the surrogate predictions come back unset."""
    return _parse(path, ADV_MAGIC, _parse_adv_set)
