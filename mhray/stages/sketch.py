"""Stage 1: the sketcher — T1 (weighted MinHash) + T2 (bottom-k
positional sketch) + F4 (SimHash) fused into one pass per batch,
mirroring SequenceSketch construction (impl/SequenceSketch.java:106-116,
impl/SequenceSketchStreamer.java:262-266).

Runs as stateless ``map_batches`` tasks on the session's warm workers
(no actor pool to start per run). The FrequencyCounts side table travels
as one ObjectRef; each worker process fetches it and builds its
:class:`FreqTable` once per ref and reuses it for every later batch
(the kmerFilter load-once pattern, main/MhapMain.java:339-373).

Output schema (the stage-1 checkpoint, FIXTURES.md §4; sketch payloads
are length-framed binary — the SequenceSketch serialization analog,
impl/SequenceSketch.java:123-148 — because Arrow joins cannot carry
nested list payload columns):
    image_id: string, iid: int64, minhash: binary (H x int32),
    bs_blob: binary ([seq_len][k][hashes][positions] int32),
    caption_len: int32, caption_hash: int64, phash: int64, valid: bool
    (+ simhash: int64 when SketchStage(with_simhash=True) — opt-in,
    not produced by the sketch_dataset default; + bitsig: binary when
    cfg.bit_prefilter)

Rows that yield zero shingles (the ZeroNGramsFoundException path,
sketch/MinHashSketch.java:84-85) or fail the min-length filter
(impl/SequenceSketchStreamer.java:130-133) are carried with
``valid=false`` instead of raising.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from mhray import kernels as K
from mhray.config import MhapConfig
from mhray.freq import FreqTable, tfidf_weights
from mhray.imageops import UnsupportedFormatError, decode_image, phash64_batch
from mhray.oracle import image_iid

INT32_MIN = np.iinfo(np.int32).min


def _binary_from_matrix(mat: np.ndarray) -> pa.Array:
    """Equal-width binary column from an (n, w) int32 matrix, zero-copy."""
    n = mat.shape[0]
    flat = np.ascontiguousarray(mat.astype("<i4", copy=False))
    width = flat.shape[1] * 4
    off = np.arange(0, (n + 1) * width, width, dtype=np.int32)
    return pa.Array.from_buffers(
        pa.binary(), n,
        [None, pa.py_buffer(off.tobytes()), pa.py_buffer(flat.tobytes())],
    )


def _binary_from_matrix_i64(mat: np.ndarray) -> pa.Array:
    """Equal-width binary column from an (n, w) int64 matrix, zero-copy."""
    n = mat.shape[0]
    flat = np.ascontiguousarray(mat.astype("<i8", copy=False))
    width = flat.shape[1] * 8
    off = np.arange(0, (n + 1) * width, width, dtype=np.int32)
    return pa.Array.from_buffers(
        pa.binary(), n,
        [None, pa.py_buffer(off.tobytes()), pa.py_buffer(flat.tobytes())],
    )


# FreqTables built in this worker process, keyed on the ObjectRef's id
# (not Python id(): the ref is unpickled anew for every task) and the
# cfg fields the build reads. A task worker outlives its tasks, so every
# later batch, and a later run passing the same ref, reuses the table.
# Bounded: a warm worker must not pin the tables of finished runs.
_FREQ_CACHE: dict[tuple, FreqTable] = {}
_FREQ_CACHE_MAX = 4


def load_freq(freq_ref, cfg: MhapConfig) -> FreqTable | None:
    """``freq_ref`` (an ObjectRef of, or an in-process, Arrow
    ``(shingle_hash, doc_freq)`` table) -> FreqTable under ``cfg``'s
    idf settings; an ObjectRef is fetched and built at most once per
    worker process while it stays in ``_FREQ_CACHE``."""
    if freq_ref is None:
        return None
    import ray

    kw = dict(filter_cutoff=cfg.filter_cutoff, offset=cfg.idf_offset,
              idf_range=cfg.repeat_idf_scale, no_tf=cfg.no_tf,
              remove_unique=cfg.remove_unique)
    if not isinstance(freq_ref, ray.ObjectRef):
        return FreqTable.from_arrow(freq_ref, **kw)
    key = (freq_ref.binary(), *kw.values())
    freq = _FREQ_CACHE.get(key)
    if freq is None:
        if len(_FREQ_CACHE) >= _FREQ_CACHE_MAX:
            _FREQ_CACHE.pop(next(iter(_FREQ_CACHE)))
        # zero-copy Arrow from the object store
        freq = _FREQ_CACHE[key] = FreqTable.from_arrow(ray.get(freq_ref), **kw)
    return freq


class SketchStage:
    """Stateless per-batch sketch kernel: ``sketch_dataset`` maps an
    instance as Ray tasks; called directly it sketches one in-process
    Arrow batch."""

    def __init__(self, cfg: MhapConfig, freq_ref=None, decode_pixels: bool = False,
                 with_simhash: bool = False, simhash_kmer: int = 6):
        self.cfg = cfg
        self.freq_ref = freq_ref
        self.decode_pixels = decode_pixels
        self.with_simhash = with_simhash  # opt-in: ~0.9 ms/row, unused
                                          # by the flagship gates
        self.simhash_kmer = simhash_kmer

    def __call__(self, batch: pa.Table) -> pa.Table:
        cfg = self.cfg
        caption_col = batch.column("caption")
        image_ids = batch.column("image_id").to_pylist()
        n = batch.num_rows
        iids = image_iid(image_ids)

        # stage-1 signature (weighted MinHash over k-shingles); the
        # Arrow column goes straight into the shingler (ASCII fast path)
        h64, off64 = K.shingle_hashes64(caption_col, cfg.kmer_size)
        keys, counts, uoff = K.unique_in_first_occurrence_order(h64, off64)
        freq = load_freq(self.freq_ref, cfg)
        weights = tfidf_weights(keys, counts, freq, cfg.repeat_weight)
        if freq is not None and cfg.remove_unique == 1:
            weights = np.where(freq.keep_kmer(keys), weights, 0)
        sig = K.weighted_minhash(keys, weights, uoff, cfg.num_hashes)

        # stage-2 positional bottom sketch, serialized to the binary
        # framing (SequenceSketch.java:123-148 analog) so joins can
        # carry it as a flat payload
        h32, off32 = K.shingle_hashes32(caption_col, cfg.ordered_kmer_size)
        bs_blob = K.bottom_sketch_batch_pack(
            h32, off32, cfg.ordered_sketch_size)

        caption_hash = K.hash_strings64(caption_col)

        caption_lens = pa.compute.utf8_length(caption_col).to_numpy(
            zero_copy_only=False).astype(np.int32)
        valid = (
            (sig[:, 0] != INT32_MIN)
            & (np.diff(off64) > 0)
            & (caption_lens >= cfg.min_olap_length)
        )

        # image axis: decode + recompute pHash (CPU work in the task);
        # falls back to the input phash column on unsupported formats
        phash = np.asarray(batch.column("phash"), dtype=np.int64).copy()
        if self.decode_pixels:
            raw = batch.column("bytes").to_pylist()
            fmts = batch.column("fmt").to_pylist()
            decoded, idx = [], []
            for i in range(n):
                try:
                    decoded.append(decode_image(raw[i], fmts[i]))
                    idx.append(i)
                except (UnsupportedFormatError, ValueError):
                    pass  # keep the provided phash
            if decoded:
                phash[np.asarray(idx)] = phash64_batch(decoded)

        out = {
            "image_id": pa.array(image_ids, pa.string()),
            "iid": pa.array(iids, pa.int64()),
            "minhash": _binary_from_matrix(sig),
            "bs_blob": bs_blob,
            "caption_len": pa.array(caption_lens, pa.int32()),
            "caption_hash": pa.array(caption_hash, pa.int64()),
            "phash": pa.array(phash, pa.int64()),
            "valid": pa.array(valid.astype(bool)),
        }
        if cfg.bit_prefilter:
            words = K.minhash_bit_sketch(sig)
            out["bitsig"] = _binary_from_matrix_i64(words)
        if self.with_simhash:
            out["simhash"] = pa.array(
                K.simhash64(caption_col.to_pylist(), self.simhash_kmer),
                pa.int64())
        return pa.table(out)


def sketch_dataset(images_ds, cfg: MhapConfig, freq_ref=None,
                   decode_pixels: bool = False):
    """images Dataset -> sketches Dataset (stateless tasks, zero-copy
    Arrow)."""
    return images_ds.map_batches(
        SketchStage(cfg, freq_ref=freq_ref, decode_pixels=decode_pixels),
        batch_size=cfg.sketch_batch_size,
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
