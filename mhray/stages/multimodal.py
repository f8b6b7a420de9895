"""Multimodal payload stages: image / audio / video columns handled as
opaque binary + typed metadata, processed by stateless task map_batches
(each stage class is a per-batch callable; its instance is the UDF).

REAL decode paths (no external libs): images ppm/png
(mhray.imageops), audio PCM WAV (stdlib ``wave`` + numpy FFT
features), video 'ppmv' (concatenated P6 frames) and uncompressed
RIFF/AVI (BI_RGB DIB frames; sampling + per-frame pHash for both).
Every OTHER codec is a declared STUB (deterministic fake
flagged ``stub=true``, or NotImplementedError under ``strict``) — the
Ray-side plumbing is identical, so a production codec drops into the
same seam.

Batch sizing note: media rows are wide (binary payloads), so these
stages default to SMALL batch sizes — batch_size * row bytes, times the
tasks running at once (one per free CPU), must fit the worker heap.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from mhray.imageops import UnsupportedFormatError, decode_image, phash64

# everything a malformed payload can raise out of the pure-python
# codecs: struct.error on truncated chunk headers, zlib.error on
# corrupt IDAT, TypeError/IndexError on missing IHDR fields. Decode
# stages must emit decode_ok=false for bad rows, never crash the task.
import struct as _struct
import zlib as _zlib

DECODE_ERRORS = (UnsupportedFormatError, ValueError, TypeError,
                 IndexError, EOFError, _struct.error, _zlib.error)


class ImageFeatureStage:
    """Task stage: decode -> (phash, mean_luma, w, h, decode_ok).

    Real decode for ppm/png; other formats keep the metadata columns
    and set decode_ok=false (stub path)."""

    def __init__(self, recompute_phash: bool = True):
        self.recompute_phash = recompute_phash

    def __call__(self, batch: pa.Table) -> pa.Table:
        raw = batch.column("bytes").to_pylist()
        fmts = batch.column("fmt").to_pylist()
        n = batch.num_rows
        ph = np.asarray(batch.column("phash"), dtype=np.int64).copy() \
            if "phash" in batch.column_names else np.zeros(n, np.int64)
        luma = np.zeros(n, dtype=np.float64)
        ok = np.zeros(n, dtype=bool)
        for i in range(n):
            try:
                img = decode_image(raw[i], fmts[i])
                ok[i] = True
                luma[i] = float(
                    (img.astype(np.float64)
                     @ np.array([0.299, 0.587, 0.114])).mean())
                if self.recompute_phash:
                    ph[i] = phash64(img)
            except DECODE_ERRORS:
                pass
        return pa.table({
            "image_id": batch.column("image_id"),
            "phash": pa.array(ph, pa.int64()),
            "mean_luma": pa.array(np.round(luma, 3), pa.float64()),
            "decode_ok": pa.array(ok),
        })


class ImageResizeStage:
    """Task stage: decode -> nearest-resample to (side, side) ->
    re-encode. Stub formats pass through unchanged with resized=false."""

    def __init__(self, side: int = 16, out_fmt: str = "ppm"):
        self.side = side
        self.out_fmt = out_fmt

    def __call__(self, batch: pa.Table) -> pa.Table:
        from mhray.imageops import _resample_nearest, encode_image

        raw = batch.column("bytes").to_pylist()
        fmts = batch.column("fmt").to_pylist()
        n = batch.num_rows
        out_bytes, out_fmt, resized = [], [], np.zeros(n, dtype=bool)
        for i in range(n):
            try:
                img = decode_image(raw[i], fmts[i])
                small = np.stack([
                    _resample_nearest(img[:, :, c], self.side)
                    for c in range(3)], axis=2).astype(np.uint8)
                out_bytes.append(encode_image(small, self.out_fmt))
                out_fmt.append(self.out_fmt)
                resized[i] = True
            except DECODE_ERRORS:
                out_bytes.append(raw[i])
                out_fmt.append(fmts[i])
        return pa.table({
            "image_id": batch.column("image_id"),
            "bytes": pa.array(out_bytes, pa.binary()),
            "fmt": pa.array(out_fmt, pa.string()),
            "w": pa.array(np.where(resized, self.side,
                                   np.asarray(batch.column("w"))), pa.int32()),
            "h": pa.array(np.where(resized, self.side,
                                   np.asarray(batch.column("h"))), pa.int32()),
            "resized": pa.array(resized),
        })


def decode_wav(b: bytes) -> tuple[np.ndarray, int]:
    """PCM WAV bytes -> (mono float64 samples in [-1, 1], sample_rate).
    Stdlib ``wave`` + numpy — a REAL decode path, no external libs."""
    import io
    import wave

    with wave.open(io.BytesIO(b)) as w:
        n = w.getnframes()
        sw = w.getsampwidth()
        ch = w.getnchannels()
        sr = w.getframerate()
        frames = w.readframes(n)
    if sw == 1:
        x = np.frombuffer(frames, dtype=np.uint8).astype(np.float64)
        x = (x - 128.0) / 128.0
    elif sw == 2:
        x = np.frombuffer(frames, dtype="<i2").astype(np.float64) / 32768.0
    elif sw == 4:
        x = np.frombuffer(frames, dtype="<i4").astype(np.float64) / 2147483648.0
    else:
        raise ValueError(f"unsupported sample width {sw}")
    if ch > 1:
        x = x[: (len(x) // ch) * ch].reshape(-1, ch).mean(axis=1)
    return x, sr


def audio_features(x: np.ndarray, sr: int, n_bands: int = 8) -> np.ndarray:
    """(2 + 2 + n_bands) feature vector: duration, rms, zero-crossing
    rate, spectral centroid, log band energies over an FFT of the
    (truncated) signal — all numpy."""
    dur = len(x) / max(1, sr)
    rms = float(np.sqrt(np.mean(x ** 2))) if len(x) else 0.0
    zcr = float(np.mean(np.abs(np.diff(np.signbit(x))))) if len(x) > 1 else 0.0
    seg = x[: 1 << 16]
    if len(seg):
        spec = np.abs(np.fft.rfft(seg))
        freqs = np.fft.rfftfreq(len(seg), d=1.0 / max(1, sr))
        centroid = float((freqs * spec).sum() / spec.sum()) if spec.sum() else 0.0
        bands = np.array_split(spec ** 2, n_bands)
        band_e = np.array([np.log1p(b.sum()) for b in bands])
    else:
        centroid = 0.0
        band_e = np.zeros(n_bands)
    return np.concatenate(([dur, rms, zcr, centroid], band_e)).astype(np.float32)


class AudioFeatureStage:
    """Task stage: REAL decode + features for PCM WAV (stdlib
    ``wave`` + numpy FFT: duration/rms/zcr/centroid/band energies);
    other formats remain a declared STUB (deterministic payload-hash
    fake, flagged ``stub=true``; ``strict=True`` raises instead)."""

    def __init__(self, n_bands: int = 8, strict: bool = False):
        self.n_bands = n_bands
        self.dim = 4 + n_bands
        self.strict = strict

    def __call__(self, batch: pa.Table) -> pa.Table:
        raw = batch.column("bytes").to_pylist()
        fmts = batch.column("fmt").to_pylist() \
            if "fmt" in batch.column_names else ["wav"] * len(raw)
        ids = batch.column(batch.column_names[0])
        feats = np.zeros((len(raw), self.dim), dtype=np.float32)
        stub = np.ones(len(raw), dtype=bool)
        for i, b in enumerate(raw):
            if fmts[i] == "wav":
                try:
                    x, sr = decode_wav(bytes(b))
                    feats[i] = audio_features(x, sr, self.n_bands)
                    stub[i] = False
                    continue
                except Exception:
                    if self.strict:
                        raise
            if self.strict:
                raise NotImplementedError(
                    f"audio decode for {fmts[i]!r} requires external libs "
                    "not present here")
            h = np.frombuffer(
                np.uint64(abs(hash(bytes(b[:64])))).tobytes() * self.dim,
                dtype=np.uint8)[: self.dim]
            feats[i] = h.astype(np.float32) / 255.0
        return pa.table({
            "id": ids,
            "audio_embedding": pa.array(list(feats), pa.list_(pa.float32())),
            "stub": pa.array(stub),
        })


def split_ppmv(b: bytes) -> list[bytes]:
    """'ppmv' container = concatenated binary PPM (P6) frames; returns
    the per-frame byte slices (pure parsing, no copies of pixel data
    beyond the slices)."""
    frames = []
    pos = 0
    n = len(b)
    while pos < n:
        if b[pos:pos + 2] != b"P6":
            raise ValueError(f"bad frame magic at {pos}")
        # header: P6 <w> <h> <maxval>\n with arbitrary whitespace
        fields = []
        cur = pos + 2
        while len(fields) < 3:
            while cur < n and b[cur] in b" \t\r\n":
                cur += 1
            if cur < n and b[cur:cur + 1] == b"#":  # comment line
                while cur < n and b[cur] not in b"\r\n":
                    cur += 1
                continue
            start = cur
            while cur < n and b[cur] not in b" \t\r\n":
                cur += 1
            fields.append(int(b[start:cur]))
        cur += 1  # single whitespace after maxval
        w, h, _ = fields
        end = cur + w * h * 3
        if end > n:
            raise ValueError("truncated frame")
        frames.append(b[pos:end])
        pos = end
    return frames


def _riff_chunks(b: bytes, pos: int, end: int):
    """Iterate (fourcc, payload_start, payload_size) over the RIFF
    chunks in b[pos:end]; chunks are word-aligned (odd sizes carry a
    pad byte)."""
    while pos + 8 <= end:
        fourcc = b[pos:pos + 4]
        (size,) = _struct.unpack_from("<I", b, pos + 4)
        yield fourcc, pos + 8, size
        pos += 8 + size + (size & 1)


def split_avi_rgb(b: bytes) -> list[np.ndarray]:
    """Parse an uncompressed RIFF/AVI (BI_RGB 24/32-bit DIB frames,
    biCompression=0 — the one AVI profile decodable without external
    codecs) into HxWx3 uint8 RGB frames. Pure struct + numpy: walks
    hdrl/strl for the 'vids' BITMAPINFOHEADER (streams are numbered by
    strl order, so the video need not be stream 0), then the movi LIST
    for THAT stream's 'NNdb'/'NNdc' frame chunks; rows are bottom-up
    BGR with 4-byte stride padding per the DIB spec."""
    if b[:4] != b"RIFF" or b[8:12] != b"AVI ":
        raise ValueError("not a RIFF/AVI container")
    w = h = bits = None
    vids_idx = None
    frames_by_stream: dict[bytes, list[bytes]] = {}
    for fcc, start, size in _riff_chunks(b, 12, len(b)):
        if fcc != b"LIST":
            continue
        kind = b[start:start + 4]
        if kind == b"hdrl":
            ordinal = 0
            for f2, s2, z2 in _riff_chunks(b, start + 4, start + size):
                if f2 != b"LIST" or b[s2:s2 + 4] != b"strl":
                    continue
                is_vids, strf = False, None
                for f3, s3, z3 in _riff_chunks(b, s2 + 4, s2 + z2):
                    if f3 == b"strh":
                        is_vids = b[s3:s3 + 4] == b"vids"
                    elif f3 == b"strf":
                        strf = (s3, z3)
                # first vids stream wins; its strl ordinal is the
                # 2-digit prefix its frame chunks carry in movi
                if is_vids and strf is not None and vids_idx is None:
                    s3, z3 = strf
                    if z3 < 20:
                        raise ValueError("truncated BITMAPINFOHEADER")
                    _, bw, bh, _, bc, comp = _struct.unpack_from(
                        "<IiiHHI", b, s3)
                    if comp != 0 or bc not in (24, 32):
                        raise ValueError(
                            f"AVI codec not decodable here (compression="
                            f"{comp}, bits={bc}); only BI_RGB 24/32")
                    if bw <= 0 or bh == 0:
                        raise ValueError(
                            f"AVI frame dimensions invalid ({bw}x{bh})")
                    w, h, bits = bw, bh, bc
                    vids_idx = ordinal
                ordinal += 1
        elif kind == b"movi":
            for f2, s2, z2 in _riff_chunks(b, start + 4, start + size):
                if f2[:2].isdigit() and f2[2:4] in (b"db", b"dc"):
                    frames_by_stream.setdefault(f2[:2], []).append(
                        b[s2:s2 + z2])
    if w is None:
        raise ValueError("no uncompressed 'vids' stream found")
    frames_raw = frames_by_stream.get(b"%02d" % vids_idx, [])
    bpp = bits // 8
    stride = ((w * bpp + 3) // 4) * 4
    rows = abs(h)
    out = []
    for raw in frames_raw:
        if len(raw) < stride * rows:
            raise ValueError("truncated AVI frame")
        px = np.frombuffer(raw, np.uint8)[: stride * rows] \
            .reshape(rows, stride)[:, : w * bpp].reshape(rows, w, bpp)
        rgb = px[:, :, 2::-1]  # BGR(X) -> RGB
        if h > 0:              # positive height = bottom-up rows
            rgb = rgb[::-1]
        out.append(np.ascontiguousarray(rgb))
    return out


def encode_avi_rgb(frames: list[np.ndarray], fps: int = 10) -> bytes:
    """Minimal uncompressed AVI writer (BI_RGB 24-bit, bottom-up DIB
    '00db' chunks) — the test/synthesis counterpart of split_avi_rgb;
    deterministic, stdlib struct only."""
    if not frames:
        raise ValueError("no frames")
    h, w = frames[0].shape[:2]
    bpp, stride = 3, ((w * 3 + 3) // 4) * 4

    def chunk(fcc: bytes, payload: bytes) -> bytes:
        return fcc + _struct.pack("<I", len(payload)) + payload \
            + (b"\x00" if len(payload) & 1 else b"")

    def lst(kind: bytes, payload: bytes) -> bytes:
        return chunk(b"LIST", kind + payload)

    frame_bytes = []
    for f in frames:
        if f.shape[:2] != (h, w):
            raise ValueError("frames must share one size")
        row = np.zeros((h, stride), np.uint8)
        row[:, : w * bpp] = f[::-1, :, ::-1].reshape(h, w * bpp)
        frame_bytes.append(row.tobytes())
    avih = _struct.pack("<14I", 10 ** 6 // fps, stride * h * fps, 0, 0x10,
                        len(frames), 0, 1, stride * h, w, h, 0, 0, 0, 0)
    strh = (b"vids" + b"DIB " + _struct.pack("<IHHIIIIIIII", 0, 0, 0, 0, 1,
                                             fps, 0, len(frames),
                                             stride * h, 0, 0)
            + _struct.pack("<4H", 0, 0, w, h))
    strf = _struct.pack("<IiiHHIIiiII", 40, w, h, 1, 24, 0, stride * h,
                        0, 0, 0, 0)
    hdrl = lst(b"hdrl", chunk(b"avih", avih)
               + lst(b"strl", chunk(b"strh", strh) + chunk(b"strf", strf)))
    movi = lst(b"movi", b"".join(chunk(b"00db", fb) for fb in frame_bytes))
    return chunk(b"RIFF", b"AVI " + hdrl + movi)


class VideoFrameSampleStage:
    """Task stage: REAL frame sampling for the 'ppmv' container
    (concatenated P6 frames) and for uncompressed RIFF/AVI ('avi',
    BI_RGB 24/32-bit) — parse, pick ``n_frames`` evenly spaced, decode
    each, emit (video_id, frame_index, phash, w, h); any other format
    remains a declared STUB emitting index-only rows (``stub=true``;
    ``strict=True`` raises)."""

    def __init__(self, n_frames: int = 4, strict: bool = False):
        self.n_frames = n_frames
        self.strict = strict

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch.column(batch.column_names[0]).to_pylist()
        raw = batch.column("bytes").to_pylist() \
            if "bytes" in batch.column_names else [b""] * len(ids)
        fmts = batch.column("fmt").to_pylist() \
            if "fmt" in batch.column_names else ["ppmv"] * len(ids)
        out = {"video_id": [], "frame_index": [], "phash": [],
               "w": [], "h": [], "stub": []}
        for vid, b, fmt in zip(ids, raw, fmts):
            if fmt in ("ppmv", "avi") and b:
                # a malformed payload falls through to the stub rows
                # (never crashes the task) unless strict
                try:
                    if fmt == "ppmv":
                        slices = split_ppmv(bytes(b))
                        decoded = None
                        count = len(slices)
                    else:
                        decoded = split_avi_rgb(bytes(b))
                        count = len(decoded)
                    if count == 0:
                        # a frameless container is undecodable, not
                        # "decoded to nothing" — stub (or raise) like
                        # any other malformed payload
                        raise ValueError("video stream has no frames")
                    take = np.unique(np.linspace(
                        0, count - 1, min(self.n_frames, count),
                        dtype=np.int64))
                    rows = []
                    for fi in take:
                        img = decoded[int(fi)] if decoded is not None \
                            else decode_image(slices[int(fi)], "ppm")
                        rows.append((int(fi), int(phash64(img)),
                                     img.shape[1], img.shape[0]))
                except DECODE_ERRORS:
                    if self.strict:
                        raise
                    rows = None
                if rows is not None:
                    for fi, ph, w, h in rows:
                        out["video_id"].append(vid)
                        out["frame_index"].append(fi)
                        out["phash"].append(ph)
                        out["w"].append(w)
                        out["h"].append(h)
                        out["stub"].append(False)
                    continue
            if self.strict:
                raise NotImplementedError(
                    f"video decode for {fmt!r} requires external libs "
                    "not present here")
            for f in range(self.n_frames):
                out["video_id"].append(vid)
                out["frame_index"].append(f)
                out["phash"].append(0)
                out["w"].append(0)
                out["h"].append(0)
                out["stub"].append(True)
        return pa.table({
            "video_id": pa.array(out["video_id"]),
            "frame_index": pa.array(out["frame_index"], pa.int32()),
            "phash": pa.array(out["phash"], pa.int64()),
            "w": pa.array(out["w"], pa.int32()),
            "h": pa.array(out["h"], pa.int32()),
            "stub": pa.array(out["stub"]),
        })


def image_features(images_ds, batch_size: int = 64):
    """Dataset wiring for ImageFeatureStage (tasks, small batches
    because rows carry encoded pixels)."""
    return images_ds.map_batches(
        ImageFeatureStage(), batch_size=batch_size, batch_format="pyarrow",
        zero_copy_batch=True)


def image_quality_metrics(img: np.ndarray) -> dict[str, float]:
    """Standard no-reference quality metrics of one decoded HxWx3
    uint8 image: brightness (mean luma), contrast (luma std), sharpness
    (variance of the 4-neighbor Laplacian — blur collapses it), and
    colorfulness (Hasler & Süsstrunk 2003, the rg/yb opponent-space
    statistic). All pure-numpy; the curation signal set for filtering
    blank / blurry / monochrome images."""
    f = img.astype(np.float64)
    luma = f @ np.array([0.299, 0.587, 0.114])
    out = {"brightness": float(luma.mean()),
           "contrast": float(luma.std())}
    if luma.shape[0] >= 3 and luma.shape[1] >= 3:
        lap = (4.0 * luma[1:-1, 1:-1] - luma[:-2, 1:-1] - luma[2:, 1:-1]
               - luma[1:-1, :-2] - luma[1:-1, 2:])
        out["sharpness"] = float(lap.var())
    else:
        out["sharpness"] = 0.0
    rg = f[:, :, 0] - f[:, :, 1]
    yb = 0.5 * (f[:, :, 0] + f[:, :, 1]) - f[:, :, 2]
    out["colorfulness"] = float(
        np.hypot(rg.std(), yb.std())
        + 0.3 * np.hypot(rg.mean(), yb.mean()))
    return out


class ImageQualityStage:
    """Task stage: decode -> no-reference quality metrics
    (brightness, contrast, sharpness, colorfulness) per image — the
    image-side analog of the text quality_score operator, feeding the
    same NTILE / threshold curation steps. Undecodable rows emit
    decode_ok=false with zeroed metrics (never dropped here: filtering
    is a policy decision downstream)."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        raw = batch.column("bytes").to_pylist()
        fmts = batch.column("fmt").to_pylist()
        n = batch.num_rows
        cols = {k: np.zeros(n) for k in
                ("brightness", "contrast", "sharpness", "colorfulness")}
        ok = np.zeros(n, dtype=bool)
        for i in range(n):
            try:
                m = image_quality_metrics(decode_image(raw[i], fmts[i]))
                ok[i] = True
                for k, v in m.items():
                    cols[k][i] = v
            except DECODE_ERRORS:
                pass
        return pa.table({
            "image_id": batch.column("image_id"),
            **{k: pa.array(np.round(v, 4), pa.float64())
               for k, v in cols.items()},
            "decode_ok": pa.array(ok),
        })


def image_quality(images_ds, batch_size: int = 64):
    """Dataset wiring for ImageQualityStage (tasks, small batches
    because rows carry encoded pixels)."""
    return images_ds.map_batches(
        ImageQualityStage(), batch_size=batch_size, batch_format="pyarrow",
        zero_copy_batch=True)
