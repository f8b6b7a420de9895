"""Sketch-alignment overlap stage — the reference's alignment-sketch
path (impl/MinHashBitSequenceSubSketches.java + align/Aligner.java
localAlignOneSkip + align/AlignElementDoubleSketch.java), which the
reference itself keeps behind a disabled field
(impl/SequenceSketch.java:54) and a demo main (main/AlignmentTry.java).

Text-domain purpose: given candidate near-dup pairs, estimate WHERE
the shared region sits (UTF-16 unit coordinates in both texts) without
aligning raw characters — each doc is a short sequence of windowed
MinHash bit-sketches (``2*step`` units per window, stepping by
``step``), and a free-end-gap DP over window similarities yields
overlap bounds at window resolution. Complements the exact-substring
pass (stages/substring.py), which reports only the LCS length.

Ray shape: sub-sketches are computed ONCE per doc appearing in any
pair (a ``map_batches`` over the semi-joined doc set), serialized to a
fixed-header binary blob, and attached to the pair table with the
threshold-guarded broadcast/shuffle join (rayutil.attach_payload — the
J2 sketch-fetch idiom). The per-pair DP runs inside ``map_batches``
over (window_count_a x window_count_b) matrices, which are tiny (a few
windows per caption), so cost is output-proportional like the other
verify stages.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from mhray.align import sketch_overlap_info
from mhray.kernels import bit_subsketches, bit_words_jaccard_matrix


def pack_subsketch(words: np.ndarray, length: int) -> bytes:
    """[n_win int32][num_words int32][length int32] + words int64 LE —
    the toByteStream framing analog
    (MinHashBitSequenceSubSketches.java:155-180)."""
    head = np.array([words.shape[0], words.shape[1] if words.size else 0,
                     length], dtype="<i4")
    return head.tobytes() + np.ascontiguousarray(
        words.astype("<i8", copy=False)).tobytes()


def unpack_subsketch(blob: bytes) -> tuple[np.ndarray, int]:
    """(words (n_win, num_words) int64, utf16_length) — fromByteStream
    analog (MinHashBitSequenceSubSketches.java:107-135)."""
    n_win, num_words, length = np.frombuffer(blob, dtype="<i4", count=3)
    words = np.frombuffer(blob, dtype="<i8", offset=12).reshape(
        int(n_win), int(num_words)) if n_win else \
        np.empty((0, max(int(num_words), 0)), np.int64)
    return words.astype(np.int64, copy=False), int(length)


def make_subsketcher(k: int = 7, step: int = 50, num_words: int = 20,
                     id_col: str = "doc_id", text_col: str = "text"):
    """Batch fn: (id, text) -> (id, ssk: binary), DROPPING docs that
    yield no windows (shorter than ~step/2) or whose window cannot
    shingle — the ZeroNGramsFoundException analog."""

    def subsketch(batch: pa.Table) -> pa.Table:
        words, offs, lengths, valid = bit_subsketches(
            batch.column(text_col), k=k, step=step, num_words=num_words)
        n = batch.num_rows
        blobs = []
        ok = np.empty(n, dtype=bool)
        for i in range(n):
            lo, hi = int(offs[i]), int(offs[i + 1])
            ok[i] = hi > lo and bool(valid[lo:hi].all())
            if ok[i]:
                blobs.append(pack_subsketch(words[lo:hi], int(lengths[i])))
        keep = pa.array(ok)
        return pa.table({
            id_col: batch.column(id_col).filter(keep),
            "ssk": pa.array(blobs, pa.binary()),
        })

    return subsketch


def sketch_align_pairs(docs_ds, pairs_ds, k: int = 7, step: int = 50,
                       num_words: int = 20, gap_open: float = 0.0,
                       score_offset: float = -0.52,
                       id_col: str = "doc_id", text_col: str = "text",
                       num_parts: int | None = None):
    """(lo, hi, raw_sc, a1, a2, b1, b2) per candidate pair: the one-skip
    sketch alignment's overlap window in UTF-16 unit coordinates of
    each text (a half-open reference quirk: bounds are INCLUSIVE unit
    indexes, AlignElementDoubleSketch.java:72-76). ``raw_sc`` is the
    DP score scaled x10000 half-away-from-zero (the reference reports
    raw and raw/100000.0, :88 — a float; the scaled int is this repo's
    stable-output idiom). Pairs whose side has no alignable sub-sketch
    sequence are dropped (mirroring the ZeroNGramsFound skip), as are
    pairs with no positive-scoring alignment (raw score 0).

    Defaults are the reference's alignment constants: k=BIT_KMER_SIZE,
    step=SUBSEQUENCE_SIZE, num_words=BIT_SKETCH_SIZE
    (impl/SequenceSketch.java:57-59) and Aligner(0.0, -0.52)
    (main/AlignmentTry.java:73).
    """
    from mhray.rayutil import attach_payload_both, semi_join_ids

    # sub-sketch ONLY docs that appear in some pair (output-proportional:
    # the pair set is post-gate, typically a small fraction of the
    # corpus; sketching 512+ hashes per window for untouched docs is
    # the dominant cost otherwise)
    pairs_ds = pairs_ds.select_columns(["lo", "hi"]).materialize()
    ids = pairs_ds.select_columns(["lo"]) \
        .rename_columns({"lo": id_col}) \
        .union(pairs_ds.select_columns(["hi"])
               .rename_columns({"hi": id_col}))
    touched = semi_join_ids(
        docs_ds.select_columns([id_col, text_col]), ids, id_col,
        num_parts=num_parts,
        ds_schema=pa.schema([(id_col, pa.int64()),
                             (text_col, pa.string())]))
    sketches = touched.map_batches(
        make_subsketcher(k, step, num_words, id_col, text_col),
        batch_format="pyarrow", zero_copy_batch=True,
    ).materialize()

    j = attach_payload_both(
        pairs_ds, sketches, id_col, ("ssk",), num_parts=num_parts,
        pairs_schema=pa.schema([("lo", pa.int64()), ("hi", pa.int64())]),
        side_schema=pa.schema([(id_col, pa.int64()),
                               ("ssk", pa.binary())]))

    def align(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        blo = batch.column("ssk_lo").to_pylist()
        bhi = batch.column("ssk_hi").to_pylist()
        raw = np.empty(n, np.int64)
        coords = np.empty((n, 4), np.int64)
        for i in range(n):
            wa, la = unpack_subsketch(blo[i])
            wb, lb = unpack_subsketch(bhi[i])
            J = bit_words_jaccard_matrix(wa, wb)
            info = sketch_overlap_info(J, la, lb, step,
                                       gap_open, score_offset)
            r = info["raw_score"] * 10000.0
            raw[i] = int(np.sign(r) * np.floor(np.abs(r) + 0.5))
            coords[i] = (info["a1"], info["a2"], info["b1"], info["b2"])
        # zero-score pairs have no positive-scoring window chain —
        # emitting their placeholder coordinates would read as a fake
        # [0, step) overlap, so they are dropped
        keep = pa.array(raw > 0)
        return pa.table({
            "lo": batch.column("lo").filter(keep),
            "hi": batch.column("hi").filter(keep),
            "raw_sc": pa.array(raw[raw > 0], pa.int64()),
            "a1": pa.array(coords[raw > 0, 0], pa.int64()),
            "a2": pa.array(coords[raw > 0, 1], pa.int64()),
            "b1": pa.array(coords[raw > 0, 2], pa.int64()),
            "b2": pa.array(coords[raw > 0, 3], pa.int64()),
        })

    return j.map_batches(align, batch_format="pyarrow",
                         zero_copy_batch=True)
