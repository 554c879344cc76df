"""Binary PPM (P6) image and PGM (P5) mask I/O, maxval 255.

Pixels map to [0, 1] via /255 on read; writes clamp, scale and round half up,
so 8-bit-quantized tensors round-trip bit-exactly.  Masks use 255 for
corrupted pixels and 0 for known pixels.
"""

from __future__ import annotations

import numpy as np

from .tensor_ops import DTYPE, _split, require_binary

# Bytes per array of one strip of write_image's quantiser.  On 2 vCPUs a
# 2048^2 write took a median 29.8 ms in strips and 30.1 ms in whole slices,
# whose scratch planes raised its peak allocation from 12.5 to 28.0 MB.
_STRIP_BYTES = 256 * 1024


class ImageFormatError(ValueError):
    """Malformed or unsupported PNM data."""


def _parse_header(blob: bytes, magic: bytes, path):
    if blob[:2] != magic:
        got = blob[:2].decode("ascii", "replace")
        raise ImageFormatError(
            f"{path}: unsupported format magic '{got}' (expected {magic.decode()})"
        )
    pos = 2
    fields = []
    while len(fields) < 3:
        if pos >= len(blob):
            raise ImageFormatError(f"{path}: truncated header")
        ch = blob[pos:pos + 1]
        if ch == b"#":
            while pos < len(blob) and blob[pos:pos + 1] != b"\n":
                pos += 1
        elif ch.isspace():
            pos += 1
        elif ch.isdigit():
            start = pos
            while pos < len(blob) and blob[pos:pos + 1].isdigit():
                pos += 1
            fields.append(int(blob[start:pos]))
        else:
            raise ImageFormatError(f"{path}: unexpected byte {ch!r} in header")
    if pos >= len(blob) or not blob[pos:pos + 1].isspace():
        raise ImageFormatError(f"{path}: missing whitespace after maxval")
    pos += 1
    width, height, maxval = fields
    if maxval != 255:
        raise ImageFormatError(f"{path}: maxval {maxval} unsupported (must be 255)")
    if width < 1 or height < 1:
        raise ImageFormatError(f"{path}: invalid extents {width}x{height}")
    return width, height, pos


def read_image(path) -> np.ndarray:
    """Read a P6 PPM into a [3, H, W] float32 tensor in [0, 1]."""
    with open(path, "rb") as fh:
        blob = fh.read()
    width, height, pos = _parse_header(blob, b"P6", path)
    need = width * height * 3
    raw = memoryview(blob)[pos:pos + need]
    if len(raw) != need:
        raise ImageFormatError(f"{path}: expected {need} pixel bytes, found {len(raw)}")
    arr = np.frombuffer(raw, dtype=np.uint8).reshape(height, width, 3)
    # u8 / 255 in float32, one division per channel plane of a slice of rows
    out = np.empty((3, height, width), dtype=DTYPE)

    def convert(part):
        rows = slice(part.start, part.stop)
        for c in range(3):
            np.divide(arr[rows, :, c], 255, out=out[c, rows], dtype=DTYPE)

    _split(convert, range(height), arr.nbytes + out.nbytes)
    return out


def write_image(tensor: np.ndarray, path) -> None:
    """Write a [3, H, W] tensor in [0, 1] as a P6 PPM (round half up)."""
    if tensor.ndim != 3 or tensor.shape[0] != 3:
        raise ValueError(f"expected [3, H, W] tensor, got shape {tensor.shape}")
    _, h, w = tensor.shape
    # floor(clip(t, 0, 1) * 255 + 0.5) in the dtype that expression computes
    # in, one channel plane of a strip of rows at a time, scattered into the
    # interleaved uint8 buffer that is written; the strip lies in
    # [0.5, 255.5], where the uint8 store's truncation is the floor
    dtype = np.result_type(tensor, 0.0)
    q = np.empty((h, w, 3), dtype=np.uint8)
    step = max(1, _STRIP_BYTES // (w * dtype.itemsize))

    def quantise(starts):
        buf = np.empty((min(step, h), w), dtype=dtype)
        for r0 in starts:
            rows = slice(r0, r0 + step)
            strip = buf[:len(q[rows])]
            for c in range(3):
                np.clip(tensor[c, rows], 0.0, 1.0, out=strip)
                strip *= 255.0
                strip += 0.5
                q[rows, :, c] = strip

    _split(quantise, range(0, h, step), q.nbytes + 3 * h * w * dtype.itemsize)
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(q)


def read_mask(path) -> np.ndarray:
    """Read a P5 PGM mask (255 = corrupted) into a binary [1, H, W] tensor."""
    with open(path, "rb") as fh:
        blob = fh.read()
    width, height, pos = _parse_header(blob, b"P5", path)
    need = width * height
    raw = blob[pos:pos + need]
    if len(raw) != need:
        raise ImageFormatError(f"{path}: expected {need} mask bytes, found {len(raw)}")
    arr = np.frombuffer(raw, dtype=np.uint8).reshape(height, width)
    # every nonzero byte is 255 iff the two counts agree; then u8 / 255 is
    # exactly 0 or 1
    if np.count_nonzero(arr) != np.count_nonzero(arr == 255):
        raise ImageFormatError(f"{path}: mask bytes must be 0 or 255")
    return np.divide(arr, 255, dtype=DTYPE)[None]


def write_mask(mask: np.ndarray, path) -> None:
    """Write a binary [1, H, W] mask as a P5 PGM with 255 marking corruption."""
    if mask.ndim != 3 or mask.shape[0] != 1:
        raise ValueError(f"expected [1, H, W] mask, got shape {mask.shape}")
    require_binary(mask)
    _, h, w = mask.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write((mask[0] * 255).astype(np.uint8).tobytes())
