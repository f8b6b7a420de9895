"""Image payload handling: decode, perceptual hash, PSNR invariant.

The environment ships no image libraries (no PIL / OpenCV), so the
engine carries two self-contained deterministic codecs:

- ``ppm``: binary P6 (8-bit RGB), trivially seekable
- ``png``: a minimal, spec-conformant PNG subset (8-bit RGB, filter
  types 0-2, zlib), enough to exercise a real decode path with
  compression in the sketch tasks
- ``bmp``: BI_RGB 24/32-bit DIB (bottom-up BGR, 4-byte stride) —
  shares its row math with the uncompressed-AVI video frame path

Other formats (jpeg/webp/...) are STUBS by design: ``decode_image``
raises ``UnsupportedFormatError`` with the Ray-side plumbing (schema,
UDF signature, batch sizing) kept real — swap in a real codec on a
cluster with the libs installed.

pHash: 32x32 grayscale -> 2D DCT-II -> top-left 8x8 coefficients
thresholded at their median (DC excluded from the median), packed to
64 bits. The Hamming-similarity machinery over these mirrors
sketch/AbstractBitSketch.java:74-88.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np


class UnsupportedFormatError(NotImplementedError):
    pass


# ---------------------------------------------------------------------------
# PPM (P6)
# ---------------------------------------------------------------------------

def encode_ppm(img: np.ndarray) -> bytes:
    h, w, c = img.shape
    assert c == 3 and img.dtype == np.uint8
    return b"P6\n%d %d\n255\n" % (w, h) + img.tobytes()


def decode_ppm(data: bytes) -> np.ndarray:
    if not data.startswith(b"P6"):
        raise ValueError("not a P6 ppm")
    # header: magic, width, height, maxval, then single whitespace byte
    parts = []
    i = 2
    while len(parts) < 3:
        while i < len(data) and data[i : i + 1].isspace():
            i += 1
        if data[i : i + 1] == b"#":  # comment line
            while data[i : i + 1] != b"\n":
                i += 1
            continue
        j = i
        while j < len(data) and not data[j : j + 1].isspace():
            j += 1
        parts.append(int(data[i:j]))
        i = j
    i += 1  # the single whitespace after maxval
    w, h, maxval = parts
    if maxval != 255:
        raise ValueError("only 8-bit ppm supported")
    return np.frombuffer(data, dtype=np.uint8, count=w * h * 3, offset=i).reshape(h, w, 3)


# ---------------------------------------------------------------------------
# minimal PNG (8-bit RGB)
# ---------------------------------------------------------------------------

_PNG_SIG = b"\x89PNG\r\n\x1a\n"


def _chunk(tag: bytes, payload: bytes) -> bytes:
    return (
        struct.pack(">I", len(payload))
        + tag
        + payload
        + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF)
    )


def encode_png(img: np.ndarray) -> bytes:
    h, w, c = img.shape
    assert c == 3 and img.dtype == np.uint8
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)  # 8-bit truecolor
    raw = np.empty((h, 1 + w * 3), dtype=np.uint8)
    raw[:, 0] = 0  # filter type 0 per scanline
    raw[:, 1:] = img.reshape(h, w * 3)
    idat = zlib.compress(raw.tobytes(), 6)
    return _PNG_SIG + _chunk(b"IHDR", ihdr) + _chunk(b"IDAT", idat) + _chunk(b"IEND", b"")


def decode_png(data: bytes) -> np.ndarray:
    if not data.startswith(_PNG_SIG):
        raise ValueError("not a png")
    i = 8
    w = h = None
    idat = b""
    while i < len(data):
        (length,) = struct.unpack(">I", data[i : i + 4])
        tag = data[i + 4 : i + 8]
        payload = data[i + 8 : i + 8 + length]
        if tag == b"IHDR":
            w, h, bit_depth, color_type = struct.unpack(">IIBB", payload[:10])
            if bit_depth != 8 or color_type != 2:
                raise UnsupportedFormatError("png subset: 8-bit RGB only")
        elif tag == b"IDAT":
            idat += payload
        elif tag == b"IEND":
            break
        i += 12 + length
    raw = np.frombuffer(zlib.decompress(idat), dtype=np.uint8).reshape(h, 1 + w * 3)
    filters = raw[:, 0]
    out = raw[:, 1:].reshape(h, w, 3).astype(np.int16)
    for y in range(h):
        f = filters[y]
        if f == 0:
            continue
        if f == 1:  # Sub: out[x] = sum(raw[0..x]) mod 256 per channel
            out[y] = np.cumsum(out[y], axis=0, dtype=np.int64) & 0xFF
        elif f == 2:  # Up
            if y > 0:
                out[y] = (out[y] + out[y - 1]) & 0xFF
        else:
            raise UnsupportedFormatError(f"png filter {f} not in subset")
    return out.astype(np.uint8)


# ---------------------------------------------------------------------------
# BMP (BI_RGB 24/32-bit DIB — same row math as the AVI frame path)
# ---------------------------------------------------------------------------

def encode_bmp(img: np.ndarray) -> bytes:
    h, w, c = img.shape
    assert c == 3 and img.dtype == np.uint8
    stride = ((w * 3 + 3) // 4) * 4
    rows = np.zeros((h, stride), np.uint8)
    rows[:, : w * 3] = img[::-1, :, ::-1].reshape(h, w * 3)  # bottom-up BGR
    pix = rows.tobytes()
    info = struct.pack("<IiiHHIIiiII", 40, w, h, 1, 24, 0, len(pix),
                       2835, 2835, 0, 0)
    head = struct.pack("<2sIHHI", b"BM", 14 + 40 + len(pix), 0, 0, 14 + 40)
    return head + info + pix


def decode_bmp(data: bytes) -> np.ndarray:
    if data[:2] != b"BM":
        raise ValueError("not a bmp")
    (off,) = struct.unpack_from("<I", data, 10)
    size, w, h, _, bits, comp = struct.unpack_from("<IiiHHI", data, 14)
    if size < 40 or comp != 0 or bits not in (24, 32):
        raise UnsupportedFormatError(
            f"bmp subset: BI_RGB 24/32-bit only (compression={comp}, "
            f"bits={bits})")
    # width must be positive; height may be negative (top-down) but
    # never zero — a 0/negative-width header is malformed, not an
    # empty image (an (h,0,3) "decode" poisons downstream stats)
    if w <= 0 or h == 0:
        raise ValueError(f"bmp dimensions invalid ({w}x{h})")
    bpp = bits // 8
    rows = abs(h)
    stride = ((w * bpp + 3) // 4) * 4
    if len(data) < off + stride * rows:
        raise ValueError("truncated bmp")
    px = np.frombuffer(data, np.uint8, count=stride * rows, offset=off) \
        .reshape(rows, stride)[:, : w * bpp].reshape(rows, w, bpp)
    rgb = px[:, :, 2::-1]  # BGR(X) -> RGB
    if h > 0:              # positive height = bottom-up rows
        rgb = rgb[::-1]
    return np.ascontiguousarray(rgb)


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

_DECODERS = {"ppm": decode_ppm, "png": decode_png, "bmp": decode_bmp}
_ENCODERS = {"ppm": encode_ppm, "png": encode_png, "bmp": encode_bmp}


def decode_image(data: bytes, fmt: str) -> np.ndarray:
    dec = _DECODERS.get(fmt)
    if dec is None:
        raise UnsupportedFormatError(
            f"format {fmt!r}: decoder not available in this environment "
            "(jpeg/webp need external libs; plumbing is format-agnostic)"
        )
    return dec(data)


def encode_image(img: np.ndarray, fmt: str) -> bytes:
    enc = _ENCODERS.get(fmt)
    if enc is None:
        raise UnsupportedFormatError(f"format {fmt!r}: encoder not available")
    return enc(img)


# ---------------------------------------------------------------------------
# pHash / PSNR
# ---------------------------------------------------------------------------

_DCT_N = 32
_i = np.arange(_DCT_N)
_DCT_T = np.sqrt(2.0 / _DCT_N) * np.cos(np.pi * (2 * _i[None, :] + 1) * _i[:, None] / (2 * _DCT_N))
_DCT_T[0, :] = np.sqrt(1.0 / _DCT_N)


def _resample_nearest(gray: np.ndarray, n: int) -> np.ndarray:
    h, w = gray.shape
    ys = (np.arange(n) * h // n).astype(np.int64)
    xs = (np.arange(n) * w // n).astype(np.int64)
    return gray[np.ix_(ys, xs)]


_LUMA = np.array([0.299, 0.587, 0.114])
_PHASH_OPS: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}


def _phash_ops(h: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    """(U, V) such that the 8x8 DCT block of the blurred, resampled
    grayscale equals ``U @ gray @ V.T``.

    The whole gray -> clamped 3x3 box blur -> nearest resample ->
    2-D DCT -> top-left 8x8 chain is LINEAR in the pixels, and the
    clamped box blur is separable, so it all folds into one (8, h) and
    one (8, w) matrix per image shape — the per-image work collapses
    to two skinny matmuls instead of full-image blur + pad + DCT.
    """
    key = (h, w)
    ops = _PHASH_OPS.get(key)
    if ops is not None:
        return ops
    # bound the per-shape cache: a real web corpus has thousands of
    # distinct resolutions and would grow worker memory without limit;
    # recomputing the two skinny matrices is cheap vs a batch
    if len(_PHASH_OPS) >= 256:
        _PHASH_OPS.clear()
    ys = (np.arange(_DCT_N) * h // _DCT_N).astype(np.int64)
    xs = (np.arange(_DCT_N) * w // _DCT_N).astype(np.int64)
    ry = np.zeros((_DCT_N, h))
    rx = np.zeros((_DCT_N, w))
    for d in (-1, 0, 1):
        np.add.at(ry, (np.arange(_DCT_N), np.clip(ys + d, 0, h - 1)), 1 / 3)
        np.add.at(rx, (np.arange(_DCT_N), np.clip(xs + d, 0, w - 1)), 1 / 3)
    a8 = _DCT_T[:8]
    ops = (a8 @ ry, a8 @ rx)
    _PHASH_OPS[key] = ops
    return ops


def _phash_from_blocks(block: np.ndarray) -> np.ndarray:
    med = np.median(block[:, 1:], axis=1)
    bits = (block > med[:, None]).astype(np.uint8)
    return np.packbits(bits, axis=1, bitorder="little").view(np.uint64) \
        .ravel().view(np.int64)


def phash64(img: np.ndarray) -> int:
    """64-bit perceptual hash of an (h, w, 3) uint8 image; returns
    int64. Delegates to the batched fused-operator path so every
    caller (synth, oracle, pipeline, multimodal) computes the
    identical hash."""
    return int(phash64_batch([img])[0])


def phash64_batch(imgs: list[np.ndarray]) -> np.ndarray:
    """Batched pHash via the fused linear operator (see _phash_ops):
    per shape group, one luma contraction and two skinny matmuls."""
    n = len(imgs)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    blocks = np.empty((n, 64), dtype=np.float64)
    by_shape: dict[tuple, list[int]] = {}
    for i, img in enumerate(imgs):
        by_shape.setdefault(img.shape, []).append(i)
    for shape, idx in by_shape.items():
        u, v = _phash_ops(shape[0], shape[1])
        stack = np.stack([imgs[i] for i in idx])
        g = stack.astype(np.float64) @ _LUMA          # (B, h, w)
        blocks[np.asarray(idx)] = (u @ g @ v.T).reshape(len(idx), 64)
    return _phash_from_blocks(blocks)


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB between two uint8 images."""
    if a.shape != b.shape:
        return 0.0
    mse = np.mean((a.astype(np.float64) - b.astype(np.float64)) ** 2)
    if mse == 0:
        return float("inf")
    return float(10.0 * np.log10(255.0**2 / mse))
