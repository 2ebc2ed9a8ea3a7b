"""Binary container for model weights (magic "BICAMW1").

Layout, all little-endian:

    bytes 0-6   magic b"BICAMW1"
    10 * int32  image_height, image_width, patch_size, num_layers,
                num_heads, embed_dim, ffn_dim, num_classes,
                distillation_token (0/1), layer_window
    1 * float64 temperature
    int32       tensor count
    per tensor: int32 name length, name (utf-8), int32 rank,
                rank * int32 dims, row-major float64 payload

The loader validates the magic, the config, the tensor count (it must be
the config's and fit in the file, checked before anything sized by the
config is built), every tensor record (utf-8 name, positive dims, a payload
no larger than the bytes left in the file, checked before it is read),
every tensor shape against the config, and that every value is finite; any
mismatch, truncation or NaN/Inf raises DataFormatError.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

from .errors import BicamError, DataFormatError
from .vit import ViTConfig, ViTWeights, VisionTransformer, tensor_count

MAGIC = b"BICAMW1"
# name length, a 1-byte name, rank, one dim and one float64 value
MIN_RECORD_BYTES = 4 + 1 + 4 + 4 + 8


def save_weights(weights: ViTWeights, path: str) -> None:
    cfg = weights.config
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack(
            "<10i",
            cfg.image_height, cfg.image_width, cfg.patch_size, cfg.num_layers,
            cfg.num_heads, cfg.embed_dim, cfg.ffn_dim, cfg.num_classes,
            1 if cfg.distillation_token else 0, cfg.layer_window))
        fh.write(struct.pack("<d", cfg.temperature))
        fh.write(struct.pack("<i", len(weights.tensors)))
        for name, arr in weights.tensors.items():
            nb = name.encode("utf-8")
            fh.write(struct.pack("<i", len(nb)))
            fh.write(nb)
            fh.write(struct.pack("<i", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}i", *arr.shape))
            fh.write(arr.astype("<f8").tobytes())


def _read_exact(fh, n: int) -> bytes:
    buf = fh.read(n)
    if len(buf) != n:
        raise DataFormatError("weight file truncated")
    return buf


def load_weights(path: str) -> ViTWeights:
    with open(path, "rb") as fh:
        if _read_exact(fh, len(MAGIC)) != MAGIC:
            raise DataFormatError(f"bad magic; not a {MAGIC.decode()} weight file")
        ints = struct.unpack("<10i", _read_exact(fh, 40))
        (temperature,) = struct.unpack("<d", _read_exact(fh, 8))
        try:
            cfg = ViTConfig(
                image_height=ints[0], image_width=ints[1], patch_size=ints[2],
                num_layers=ints[3], num_heads=ints[4], embed_dim=ints[5],
                ffn_dim=ints[6], num_classes=ints[7],
                distillation_token=bool(ints[8]), layer_window=ints[9],
                temperature=temperature)
        except BicamError as e:
            raise DataFormatError(f"invalid config block: {e}") from None
        (count,) = struct.unpack("<i", _read_exact(fh, 4))
        # checked before the config's shape map is built: its size follows
        # num_layers, which the header alone can make arbitrarily large
        expected = tensor_count(cfg)
        if count != expected:
            raise DataFormatError(f"tensor count {count} does not match the config's {expected}")
        file_size = os.fstat(fh.fileno()).st_size
        if MIN_RECORD_BYTES * count > file_size - fh.tell():
            raise DataFormatError(f"weight file truncated: too small for {count} tensors")
        tensors: dict[str, np.ndarray] = {}
        for _ in range(count):
            (nlen,) = struct.unpack("<i", _read_exact(fh, 4))
            if not 0 < nlen < 4096:
                raise DataFormatError("implausible tensor name length")
            try:
                name = _read_exact(fh, nlen).decode("utf-8")
            except UnicodeDecodeError:
                raise DataFormatError("tensor name is not utf-8") from None
            (rank,) = struct.unpack("<i", _read_exact(fh, 4))
            if not 0 < rank < 16:
                raise DataFormatError(f"implausible rank {rank} for tensor {name!r}")
            dims = struct.unpack(f"<{rank}i", _read_exact(fh, 4 * rank))
            if min(dims) < 1:
                raise DataFormatError(f"non-positive dimension in {dims} for tensor {name!r}")
            # checked against the bytes left before anything is allocated
            nbytes = 8 * math.prod(dims)
            if nbytes > file_size - fh.tell():
                raise DataFormatError("weight file truncated")
            payload = _read_exact(fh, nbytes)
            tensors[name] = np.frombuffer(payload, dtype="<f8").reshape(dims).copy()
        if fh.read(1):
            raise DataFormatError("trailing bytes after last tensor record")
    try:
        return ViTWeights(cfg, tensors)
    except BicamError as e:
        raise DataFormatError(f"invalid weight tensors: {e}") from None


def load_model(path: str) -> VisionTransformer:
    w = load_weights(path)
    return VisionTransformer(w.config, w)
