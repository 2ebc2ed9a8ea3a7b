"""Dependency-free netpbm image IO and signed-heatmap rendering.

Images travel as PPM (P6, maxval 255) mapped linearly to [0, 1] floats;
ground-truth masks as PGM (P5 or P2, maxval 255) with >127 meaning 1.

Signed maps render with a red/white/blue diverging colormap, normalized
symmetrically by max|M| so zero attribution is always white:

    v = M / max|M|  in [-1, 1]
    red   = 255            if v >= 0 else round(255 * (1 + v))
    green = round(255 * (1 - |v|))
    blue  = 255            if v <= 0 else round(255 * (1 - v))

An all-zero map (max|M| = 0) renders uniformly white. A map's positive
and negative channels render with ``render_signed`` on the map's scale,
the negative one negated: the positive channel fades white->red, the
negative white->blue, so recombining them reproduces the signed rendering
pixel for pixel.
"""

from __future__ import annotations

import numpy as np

from .errors import DataFormatError


def _read_tokens(data: bytes, count: int, pos: int) -> tuple[list[bytes], int]:
    """Read whitespace-separated header tokens, skipping '#' comments."""
    tokens: list[bytes] = []
    n = len(data)
    while len(tokens) < count:
        while pos < n and data[pos:pos + 1].isspace():
            pos += 1
        if pos < n and data[pos:pos + 1] == b"#":
            while pos < n and data[pos:pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < n and not data[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise DataFormatError("truncated netpbm header")
        tokens.append(data[start:pos])
    return tokens, pos + 1  # consume the single whitespace after the header


def _parse_header(data: bytes, magics) -> tuple[bytes, int, int, int]:
    (magic,), pos = _read_tokens(data, 1, 0)
    if magic not in magics:
        raise DataFormatError(f"unsupported netpbm magic {magic!r}; expected {magics}")
    dims, pos = _read_tokens(data, 3, pos)
    try:
        width, height, maxval = (int(t) for t in dims)
    except ValueError:
        raise DataFormatError("non-integer netpbm dimensions") from None
    if width <= 0 or height <= 0:
        raise DataFormatError("non-positive netpbm dimensions")
    if maxval != 255:
        raise DataFormatError(f"only maxval 255 supported, got {maxval}")
    return magic, width, height, pos


def _payload(path: str, data: bytes, pos: int, need: int) -> np.ndarray:
    """The ``need`` binary samples after the header at ``pos``, as uint8."""
    if len(data) - pos < need:
        raise DataFormatError(f"{path}: pixel payload truncated")
    return np.frombuffer(data, dtype=np.uint8, count=need, offset=pos)


def _write_raster(path: str, magic: str, pixels: np.ndarray) -> None:
    """A binary netpbm file: the ``magic``, width, height and maxval 255
    header, then ``pixels`` [H, W] or [H, W, 3] row-major, as uint8."""
    h, w = pixels.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"{magic}\n{w} {h}\n255\n".encode())
        fh.write(np.ascontiguousarray(pixels, dtype=np.uint8).tobytes())


def read_ppm(path: str) -> np.ndarray:
    """P6 image -> float64 [3, H, W] in [0, 1]."""
    with open(path, "rb") as fh:
        data = fh.read()
    _, width, height, pos = _parse_header(data, (b"P6",))
    raw = _payload(path, data, pos, width * height * 3)
    img = raw.reshape(height, width, 3).astype(np.float64) / 255.0
    return np.ascontiguousarray(img.transpose(2, 0, 1))


def write_ppm(path: str, image: np.ndarray) -> None:
    """float [3, H, W] in [0, 1] (clipped, rounded) -> P6 file."""
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 3 or img.shape[0] != 3:
        raise DataFormatError(f"write_ppm expects [3, H, W], got {img.shape}")
    bytes_img = np.rint(np.clip(img, 0.0, 1.0) * 255.0).astype(np.uint8)
    _write_raster(path, "P6", bytes_img.transpose(1, 2, 0))


def read_pgm(path: str) -> np.ndarray:
    """P5/P2 graymap -> binary uint8 [H, W] mask (>127 -> 1)."""
    with open(path, "rb") as fh:
        data = fh.read()
    magic, width, height, pos = _parse_header(data, (b"P5", b"P2"))
    need = width * height
    if magic == b"P5":
        gray = _payload(path, data, pos, need)
    else:
        values = data[pos - 1:].split()
        if len(values) < need:
            raise DataFormatError(f"{path}: pixel payload truncated")
        try:
            gray = np.array([int(v) for v in values[:need]], dtype=np.int64)
        except ValueError:
            raise DataFormatError(f"{path}: non-integer P2 sample") from None
        if gray.min() < 0 or gray.max() > 255:
            raise DataFormatError(f"{path}: P2 sample out of range")
    return (gray.reshape(height, width) > 127).astype(np.uint8)


def write_pgm(path: str, mask: np.ndarray) -> None:
    """Binary mask [H, W] -> P5 graymap (1 -> 255, 0 -> 0)."""
    m = np.asarray(mask)
    if m.ndim != 2:
        raise DataFormatError(f"write_pgm expects [H, W], got {m.shape}")
    _write_raster(path, "P5", (m > 0).astype(np.uint8) * 255)


# -- rendering ---------------------------------------------------------------


def signed_scale(values: np.ndarray) -> float:
    s = float(np.abs(values).max())
    return s if s > 0 else 1.0


def render_signed(heat: np.ndarray, scale: float) -> np.ndarray:
    """Signed [H, W] map -> uint8 [H, W, 3] diverging rendering on the
    symmetric scale ``scale`` (``signed_scale`` of the map, for one alone)."""
    m = np.asarray(heat, dtype=np.float64)
    v = np.clip(m / scale, -1.0, 1.0)
    mag = np.rint(255.0 * (1.0 - np.abs(v)))
    out = np.empty(m.shape + (3,), dtype=np.uint8)
    out[..., 0] = np.where(v >= 0, 255, mag)
    out[..., 1] = mag
    out[..., 2] = np.where(v <= 0, 255, mag)
    return out


def write_rendered(path: str, pixels_hw3: np.ndarray) -> None:
    """uint8 [H, W, 3] (``render_signed``) -> P6 file."""
    _write_raster(path, "P6", pixels_hw3)
