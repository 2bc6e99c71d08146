"""Binary PPM (P6, maxval 255) image IO.

Pixel mapping: byte = round((v + 1) * 127.5) for v in [-1, 1], and reading
inverts with v = byte / 127.5 - 1, so a write/read round trip is exact up
to the 1/127.5 quantization step and re-encoding a read image is
bit-identical.
"""

from __future__ import annotations

import numpy as np


class PpmError(ValueError):
    pass


def encode(image):
    """(3,h,w) float array in [-1,1] -> P6 bytes."""
    image = np.asarray(image)
    if image.ndim != 3 or image.shape[0] != 3:
        raise PpmError(f"expected a (3,h,w) image, got shape {image.shape}")
    _c, h, w = image.shape
    if not h or not w:  # decode rejects such dimensions too
        raise PpmError(f"invalid dimensions {w}x{h}")
    # written so that NaN (whose comparisons are all False) is rejected too
    if not (image.min() >= -1.0 - 1e-6 and image.max() <= 1.0 + 1e-6):
        raise PpmError("pixel values must be finite and lie in [-1, 1] before encoding")
    quant = np.clip(np.rint((image + 1.0) * 127.5), 0, 255).astype(np.uint8)
    payload = quant.transpose(1, 2, 0).tobytes()  # row-major, RGB interleaved
    return f"P6\n{w} {h}\n255\n".encode("ascii") + payload


def decode(blob):
    """P6 bytes -> (3,h,w) float32 array in [-1,1]."""
    pos = 0

    def token():
        nonlocal pos
        while pos < len(blob):
            ch = blob[pos : pos + 1]
            if ch == b"#":
                while pos < len(blob) and blob[pos : pos + 1] not in (b"\n", b"\r"):
                    pos += 1
            elif ch.isspace():
                pos += 1
            else:
                break
        start = pos
        while pos < len(blob) and not blob[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise PpmError("truncated header")
        return blob[start:pos]

    magic = token()
    if magic != b"P6":
        raise PpmError(f"unsupported format {magic!r}, expected P6")
    try:
        w, h, maxval = int(token()), int(token()), int(token())
    except ValueError as exc:
        raise PpmError(f"malformed header field: {exc}") from None
    if w <= 0 or h <= 0:
        raise PpmError(f"invalid dimensions {w}x{h}")
    if maxval != 255:
        raise PpmError(f"unsupported maxval {maxval}, expected 255")
    pos += 1  # single whitespace after maxval
    payload = blob[pos : pos + 3 * w * h]
    if len(payload) != 3 * w * h:
        raise PpmError(
            f"truncated payload: expected {3 * w * h} bytes, found {len(payload)}"
        )
    pixels = np.frombuffer(payload, dtype=np.uint8).reshape(h, w, 3)
    return (pixels.astype(np.float32) / np.float32(127.5) - np.float32(1.0)).transpose(2, 0, 1)


def write_image(path, image):
    with open(path, "wb") as fh:
        fh.write(encode(image))


def read_image(path):
    with open(path, "rb") as fh:
        return decode(fh.read())
