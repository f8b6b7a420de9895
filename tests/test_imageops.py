"""Codec roundtrips, pHash stability, PSNR invariant."""

import numpy as np
import pytest

from mhray import imageops as I


def _img(seed=0, n=32):
    from mhray.synth import _base_image

    return _base_image(np.random.default_rng(seed), n)


def test_ppm_roundtrip():
    img = _img(1)
    data = I.encode_ppm(img)
    np.testing.assert_array_equal(I.decode_ppm(data), img)


def test_png_roundtrip():
    img = _img(2)
    data = I.encode_png(img)
    np.testing.assert_array_equal(I.decode_png(data), img)


def test_png_sub_and_up_filters():
    """decode_png must invert filter types 1 (Sub) and 2 (Up), which
    our own encoder never emits — build the filtered scanlines by
    hand per the PNG spec and check pixel-exact recovery."""
    import struct
    import zlib

    img = _img(11)[:6, :5, :]
    h, w, _ = img.shape
    flat = img.reshape(h, w * 3).astype(np.int16)
    lines = []
    for y in range(h):
        if y % 2 == 0:  # Sub: raw[x] = cur[x] - cur[x-3]
            prev = np.concatenate([np.zeros(3, np.int16), flat[y][:-3]])
            lines.append(b"\x01" + ((flat[y] - prev) & 0xFF)
                         .astype(np.uint8).tobytes())
        else:           # Up: raw[x] = cur[x] - above[x]
            lines.append(b"\x02" + ((flat[y] - flat[y - 1]) & 0xFF)
                         .astype(np.uint8).tobytes())
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    data = (I._PNG_SIG + I._chunk(b"IHDR", ihdr)
            + I._chunk(b"IDAT", zlib.compress(b"".join(lines)))
            + I._chunk(b"IEND", b""))
    np.testing.assert_array_equal(I.decode_png(data), img)


def test_bmp_roundtrip():
    # odd width exercises the 4-byte DIB stride padding
    img = _img(7)[:, :29, :]
    data = I.encode_bmp(img)
    np.testing.assert_array_equal(I.decode_bmp(data), img)
    # same pixels -> same pHash regardless of container
    assert I.phash64(I.decode_image(data, "bmp")) == I.phash64(img)
    # compressed / paletted BMPs stay out of scope, loudly
    bad = bytearray(data)
    bad[30:34] = (1).to_bytes(4, "little")  # biCompression = BI_RLE8
    with pytest.raises(NotImplementedError):
        I.decode_bmp(bytes(bad))


def test_dib_roundtrip_shapes_fuzz():
    """BMP and AVI share the DIB row math; fuzz the shape space where
    stride padding and bottom-up flips bite (1-pixel dims, every
    width mod 4)."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from mhray.stages.multimodal import encode_avi_rgb, split_avi_rgb

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 13), st.integers(1, 13), st.integers(0, 2 ** 31))
    def check(h, w, seed):
        img = np.random.default_rng(seed).integers(
            0, 255, (h, w, 3)).astype(np.uint8)
        np.testing.assert_array_equal(I.decode_bmp(I.encode_bmp(img)), img)
        back = split_avi_rgb(encode_avi_rgb([img, img[::-1]]))
        np.testing.assert_array_equal(back[0], img)
        np.testing.assert_array_equal(back[1], img[::-1])

    check()


def test_decode_dispatch_and_stub():
    img = _img(3)
    np.testing.assert_array_equal(I.decode_image(I.encode_png(img), "png"), img)
    with pytest.raises(NotImplementedError):
        I.decode_image(b"\xff\xd8\xff", "jpeg")


def test_phash_stable_under_noise():
    img = _img(4)
    rng = np.random.default_rng(5)
    noisy = np.clip(img.astype(np.int16) + rng.integers(-2, 3, img.shape), 0, 255).astype(np.uint8)
    a = np.array([I.phash64(img)], dtype=np.int64)
    b = np.array([I.phash64(noisy)], dtype=np.int64)
    from mhray.kernels import hamming64

    assert hamming64(a, b)[0] <= 6


def test_phash_differs_across_images():
    from mhray.kernels import hamming64

    a = np.array([I.phash64(_img(6))], dtype=np.int64)
    b = np.array([I.phash64(_img(7))], dtype=np.int64)
    assert hamming64(a, b)[0] > 10


def test_psnr():
    img = _img(8)
    assert I.psnr(img, img) == float("inf")
    noisy = np.clip(img.astype(np.int16) + 2, 0, 255).astype(np.uint8)
    assert I.psnr(img, noisy) >= 40.0
    assert I.psnr(img, _img(9)) < 40.0


def test_psnr_shape_mismatch():
    assert I.psnr(_img(1, 32), _img(1, 16)) == 0.0


def test_image_quality_metrics_ordering():
    from mhray.stages.multimodal import image_quality_metrics

    rng = np.random.default_rng(11)
    # sharp checkerboard vs its 3x3-box-blurred copy vs a flat gray
    n = 32
    cb = (np.indices((n, n)).sum(axis=0) % 2 * 255).astype(np.uint8)
    sharp = np.stack([cb] * 3, axis=2)
    f = cb.astype(np.float64)
    blur = (f + np.roll(f, 1, 0) + np.roll(f, -1, 0) + np.roll(f, 1, 1)
            + np.roll(f, -1, 1)) / 5.0
    blurred = np.stack([blur.astype(np.uint8)] * 3, axis=2)
    flat = np.full((n, n, 3), 128, np.uint8)

    ms = image_quality_metrics(sharp)
    mb = image_quality_metrics(blurred)
    mf = image_quality_metrics(flat)
    assert ms["sharpness"] > mb["sharpness"] > mf["sharpness"] == 0.0
    assert ms["contrast"] > mf["contrast"] == 0.0
    # grayscale images carry no color; a random color image does
    color = rng.integers(0, 256, (n, n, 3)).astype(np.uint8)
    assert image_quality_metrics(color)["colorfulness"] > \
        ms["colorfulness"]


def test_image_quality_stage(ray_session):
    import pyarrow as pa

    import ray.data
    from mhray.stages.multimodal import image_quality

    imgs = [_img(s) for s in range(4)]
    tbl = pa.table({
        "image_id": pa.array([f"img_{i}" for i in range(5)]),
        "bytes": pa.array([I.encode_ppm(im) for im in imgs]
                          + [b"\xff\xd8\xff"], pa.binary()),
        "fmt": pa.array(["ppm"] * 4 + ["jpeg"]),
    })
    out = image_quality(ray.data.from_arrow(tbl)).to_pandas()
    assert len(out) == 5
    ok = out.set_index("image_id")["decode_ok"]
    assert ok[[f"img_{i}" for i in range(4)]].all() and not ok["img_4"]
    assert (out[out.decode_ok].sharpness > 0).all()


def test_image_quality_stage_corrupt_png_row(ray_session):
    """A truncated PNG (raises struct.error, not ValueError, in the
    codec) must come back decode_ok=false — never crash the task."""
    import pyarrow as pa

    import ray.data
    from mhray.stages.multimodal import image_quality

    good = I.encode_png(_img(0))
    bad = good[:10]  # signature + 2 bytes: struct.error territory
    tbl = pa.table({
        "image_id": pa.array(["ok", "trunc", "zlib"]),
        "bytes": pa.array([good, bad, good[:-8] + b"\x00" * 8],
                          pa.binary()),
        "fmt": pa.array(["png", "png", "png"]),
    })
    out = image_quality(ray.data.from_arrow(tbl)) \
        .to_pandas().set_index("image_id")
    assert bool(out.loc["ok", "decode_ok"])
    assert not bool(out.loc["trunc", "decode_ok"])


def test_avi_vids_not_stream_zero():
    """An AVI whose video is NOT stream 0 (audio strl first — a common
    mux layout) must still decode: frame chunks carry the vids strl's
    ordinal as their 2-digit prefix."""
    import struct as _struct

    from mhray.stages.multimodal import encode_avi_rgb, split_avi_rgb

    img = _img(6)
    data = bytearray(encode_avi_rgb([img, img[::-1]]))

    def chunk(fcc, payload):
        return fcc + _struct.pack("<I", len(payload)) + payload \
            + (b"\x00" if len(payload) & 1 else b"")

    def lst(kind, payload):
        return chunk(b"LIST", kind + payload)

    # rebuild: prepend an 'auds' strl, renumber frame chunks 00->01
    hdrl_start = bytes(data).index(b"hdrl")
    avih = bytes(data)[hdrl_start + 12: hdrl_start + 12 + 56]
    strl_start = bytes(data).index(b"strl") - 8
    strh_sz = _struct.unpack_from("<I", data, strl_start + 16)[0]
    vids_strl = bytes(data)[strl_start: bytes(data).index(b"movi") - 8]
    auds_strh = (b"auds" + b"\x00" * 4 + _struct.pack(
        "<IHHIIIIIIII", 0, 0, 0, 0, 1, 8000, 0, 0, 0, 0, 0)
        + _struct.pack("<4H", 0, 0, 0, 0))
    auds_strl = lst(b"strl", chunk(b"strh", auds_strh)
                    + chunk(b"strf", b"\x00" * 16))
    movi_start = bytes(data).index(b"movi") - 8
    movi = bytearray(bytes(data)[movi_start:])
    assert movi.count(b"00db") == 2
    movi = bytearray(movi.replace(b"00db", b"01db"))
    new_hdrl = lst(b"hdrl", chunk(b"avih", avih) + auds_strl
                   + lst(b"strl", vids_strl[12:]))
    body = b"AVI " + new_hdrl + bytes(movi)
    avi = chunk(b"RIFF", body)

    frames = split_avi_rgb(avi)
    assert len(frames) == 2
    np.testing.assert_array_equal(frames[0], img)
    np.testing.assert_array_equal(frames[1], img[::-1])
    assert strh_sz > 0  # sanity on the parsed original


def test_bmp_zero_width_rejected():
    """A BMP header with width<=0 or height==0 is malformed, not an
    empty image — it must raise, never 'decode' to an (h,0,3) array
    that poisons downstream stats with NaN."""
    data = bytearray(I.encode_bmp(_img(4)))
    for w, h in ((0, 4), (-3, 4), (4, 0)):
        bad = bytearray(data)
        bad[18:22] = (w & 0xFFFFFFFF).to_bytes(4, "little")
        bad[22:26] = (h & 0xFFFFFFFF).to_bytes(4, "little")
        with pytest.raises(ValueError):
            I.decode_bmp(bytes(bad))
