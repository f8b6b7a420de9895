"""Stage 5-6: sketch attach + positional verify.

J2 (impl/MinHashSearch.java:206-208 ``sequenceVectorsHash.get``) is a
hash lookup, so it becomes two keyed attaches
(:func:`mhray.rayutil.attach_payload`) putting each side's bottom
sketch on the candidate pair: the sketch table is broadcast while it
fits the row/byte threshold (sketches are ~KB rows, so the byte cap
binds first) and shuffled once per key above it. ``lo`` reads the
sketch table given and ``hi`` the ``index`` table when there is one
(query mode), else the same table (the self-join), so the optional
1-bit pre-filter and the verify run identically in both modes. The
§2.9 verify kernel then runs as a stateless ``map_batches`` (pure
numpy per pair, no shared state — SURVEY.md §7.2).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from mhray.config import MhapConfig
from mhray.kernels import unpack_bottom_sketch


def attach_sketches(pairs_ds, sketches_ds, num_partitions: int | None = None,
                    columns=("bs_blob",), index=None):
    """pairs(lo, hi, ...) ⋈ sketches on lo, then ⋈ ``index`` (default:
    the same sketches) on hi — two keyed attaches
    (rayutil.attach_payload) rather than join operators, whose per-join
    aggregator actor pools dominate at moderate pair counts."""
    from mhray.rayutil import attach_payload

    # materialize the narrow projection once: in the self-join it is
    # consumed by BOTH attach passes (otherwise the upstream plan
    # re-executes per pass)
    lo_side = sketches_ds.select_columns(["iid", *columns]).materialize()
    hi_side = lo_side if index is None else \
        index.select_columns(["iid", *columns]).materialize()
    # an EMPTY sketch side has no schema to read; every payload this
    # stage attaches is a packed binary blob
    side_schema = pa.schema([("iid", pa.int64())]
                            + [(c, pa.binary()) for c in columns])
    schema = pa.schema([("lo", pa.int64()), ("hi", pa.int64()),
                        ("shared_slots", pa.int64())])
    for key, side in (("lo", lo_side), ("hi", hi_side)):
        pairs_ds = attach_payload(pairs_ds, key, side, "iid", columns, key,
                                  num_partitions, pairs_schema=schema,
                                  side_schema=side_schema)
        schema = pa.schema(list(schema) + [
            pa.field(f"{c}_{key}", pa.binary()) for c in columns])
    return pairs_ds


def _sketch_concat(col):
    """Concatenated (h, p, off, seq_len) arrays for a packed-sketch
    binary column — ONE vectorized gather for the whole batch (feeds
    the batched verify kernel). Falls back to per-row unpacking if a
    blob offset is ever misaligned."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    offs = np.frombuffer(col.buffers()[1], dtype=np.int32)[
        col.offset:col.offset + len(col) + 1]
    if len(offs) and (offs % 4).any():
        hs, ps, lens = [], [], []
        for blob in col.to_pylist():
            h, p, sl = unpack_bottom_sketch(blob)
            hs.append(h)
            ps.append(p)
            lens.append(sl)
        k = np.array([len(h) for h in hs], np.int64)
        off = np.zeros(len(k) + 1, np.int64)
        np.cumsum(k, out=off[1:])
        return (np.concatenate(hs) if hs else np.empty(0, np.int32),
                np.concatenate(ps) if ps else np.empty(0, np.int32),
                off, np.asarray(lens, np.int64))
    buf = col.buffers()[2]
    flat = np.frombuffer(buf, dtype="<i4", count=len(buf) // 4)
    s = (offs[:-1].astype(np.int64) >> 2)
    seq_len = flat[s].astype(np.int64) if len(s) else np.empty(0, np.int64)
    k = flat[s + 1].astype(np.int64) if len(s) else np.empty(0, np.int64)
    off = np.zeros(len(k) + 1, np.int64)
    np.cumsum(k, out=off[1:])
    total = int(off[-1])
    base = np.repeat(s + 2, k)
    rel = np.arange(total, dtype=np.int64) - np.repeat(off[:-1], k)
    hidx = base + rel
    return flat[hidx], flat[hidx + np.repeat(k, k)], off, seq_len


class VerifyPairs:
    """map_batches fn: run the two-pass positional verify on every
    candidate pair of the batch AT ONCE (kernels.verify_pairs_batch —
    parity-locked to the scalar verify_pair); keep rows with identity
    score >= threshold (impl/MinHashSearch.java:228-233)."""

    def __init__(self, cfg: MhapConfig):
        self.cfg = cfg

    def __call__(self, batch: pa.Table) -> pa.Table:
        from mhray.kernels import verify_pairs_batch

        cfg = self.cfg
        h1, p1, off1, l1 = _sketch_concat(batch.column("bs_blob_lo"))
        h2, p2, off2, l2 = _sketch_concat(batch.column("bs_blob_hi"))
        ok, score, raw, a1, a2, b1, b2 = verify_pairs_batch(
            h1, p1, off1, l1, h2, p2, off2, l2,
            cfg.ordered_kmer_size, cfg.max_shift)
        keep = ok & (score >= cfg.threshold)

        kept = batch.filter(pa.array(keep)).drop_columns(
            ["bs_blob_lo", "bs_blob_hi"])
        return (
            kept.append_column("score", pa.array(score[keep], pa.float64()))
            .append_column("raw_score", pa.array(raw[keep], pa.float64()))
            .append_column("a1", pa.array(a1[keep].astype(np.int32), pa.int32()))
            .append_column("a2", pa.array(a2[keep].astype(np.int32), pa.int32()))
            .append_column("b1", pa.array(b1[keep].astype(np.int32), pa.int32()))
            .append_column("b2", pa.array(b2[keep].astype(np.int32), pa.int32()))
        )


def verify_candidates(pairs_ds, sketches_ds, cfg: MhapConfig,
                      num_partitions: int | None = None, index=None):
    """Gated (lo, hi, shared_slots) pairs -> verified pairs with their
    score and overlap, ``lo`` sketches from ``sketches_ds`` and ``hi``
    sketches from ``index`` (default: ``sketches_ds``, the self-join).
    The attaches' exchange path uses ``num_partitions`` partitions,
    default :func:`mhray.rayutil.parts_for` the sketch side."""
    if cfg.bit_prefilter:
        # F5 pre-filter: the 1-bit/slot signature (64x smaller than the
        # bottom sketch) rides the attach first; pairs whose cheap
        # (sim-0.5)*2 estimate falls below the floor never fetch the
        # full sketches (MinHashBitSketch.jaccard semantics).
        from mhray.kernels import bit_sketch_jaccard
        from mhray.stages.candidates import binary_concat_i64

        words = cfg.num_hashes // 64
        joined = attach_sketches(pairs_ds, sketches_ds, num_partitions,
                                 columns=("bitsig",), index=index)
        floor = cfg.bit_prefilter_min

        def bit_gate(batch: pa.Table) -> pa.Table:
            wa = binary_concat_i64(batch.column("bitsig_lo")).reshape(-1, words)
            wb = binary_concat_i64(batch.column("bitsig_hi")).reshape(-1, words)
            est = bit_sketch_jaccard(wa, wb)
            return batch.filter(pa.array(est >= floor)).drop_columns(
                ["bitsig_lo", "bitsig_hi"])

        pairs_ds = joined.map_batches(bit_gate, batch_format="pyarrow",
                                      zero_copy_batch=True)
    joined = attach_sketches(pairs_ds, sketches_ds, num_partitions,
                             index=index)
    return joined.map_batches(
        VerifyPairs(cfg), batch_size=cfg.verify_batch_size,
        batch_format="pyarrow", zero_copy_batch=True,
    )
