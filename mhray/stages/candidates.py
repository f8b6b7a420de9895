"""Stage 2-4: LSH candidate generation (the primary shuffles).

Replaces the reference's resident inverted index
(impl/MinHashSearch.java:49-147 builds per-slot hash maps on one JVM's
heap — the 32 GB / 40K-sequence wall, docs/source/quickstart.rst:23)
with shuffles that never materialize a global index:

1. explode each signature into (key = slot<<32 | uint32(value), iid)
   rows — the distributed analog of the per-slot hash-map probe
   (MinHashSearch.java:164-181)
2. co-locate keys by hash partition (``part = hash(key) % P``) and emit
   candidate pairs PARTITION-WISE (one vectorized call per partition,
   not one Python call per group)
3. count shared slots per pair and gate on num_min_matches
   (MinHashSearch.java:204) — grouped count = the HitCounter aggregate
   (utils/HitCounter.java:31-54)

One core serves both of the reference's search modes, as
``AbstractMatchSearch.findMatches`` does with its ``toSelf`` flag
(impl/AbstractMatchSearch.java:203-285): :func:`minhash_candidates`
with ``index=None`` is the self-join (pairs within each key group,
canonical ``lo < hi``); with an ``index`` sketch table, both sides are
exploded into the same shuffle tagged by ``role`` and each key group
emits query x index cross pairs (``lo`` = query iid, ``hi`` = index
iid). :func:`mhray.stages.verify.verify_candidates` takes the same
``index``.

Skew handling (explicit, §4 of SURVEY.md): groups larger than
``band_group_cap`` are truncated to the cap (keeping the smallest iids,
deterministic) and flagged ``capped=True`` on every emitted pair — no
silent drops; the count of dropped ids is logged per batch. The
*structural* skew killer is upstream: identical captions are collapsed
to one representative (:func:`assign_reps`) before exploding, so a hot
boilerplate caption contributes ONE row here, not thousands.

The same machinery generates image-axis candidates from pHash band keys
(sketch/BitVectorIndex.java:85-162 banding analog).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from mhray.config import MhapConfig

INT32_MIN = np.iinfo(np.int32).min


# ---------------------------------------------------------------------------
# explode
# ---------------------------------------------------------------------------

def explode_phash_bands(batch: pa.Table, n_bands: int, band_bits: int,
                        num_parts: int, extra_payload: tuple = ()) -> pa.Table:
    """(phash, iid[, extras]) -> (part, key, iid, phash[, extras]) band
    rows; phash (and any requested extra int64 columns, e.g. rep_iid)
    ride along so downstream gates need no joins."""
    from mhray.kernels import phash_band_keys

    ph = np.asarray(batch.column("phash"), dtype=np.int64)
    iids = np.asarray(batch.column("iid"), dtype=np.int64)
    keys = phash_band_keys(ph, n_bands, band_bits)  # (N, B)
    flat = keys.ravel()
    part = _part_of(flat, num_parts)
    cols = {
        "part": pa.array(part, pa.int32()),
        "key": pa.array(flat, pa.int64()),
        "iid": pa.array(np.repeat(iids, n_bands), pa.int64()),
        "phash": pa.array(np.repeat(ph, n_bands), pa.int64()),
    }
    for name in extra_payload:
        v = np.asarray(batch.column(name), dtype=np.int64)
        cols[name] = pa.array(np.repeat(v, n_bands), pa.int64())
    return pa.table(cols)


def explode_minhash_packed(batch: pa.Table, num_hashes: int,
                           num_parts: int, role: int = 0) -> pa.Table:
    """(minhash binary, iid) -> per-partition PACKED entry blobs, each
    row tagged with the side's ``role`` (0 = query / self, 1 = index).

    The naive explode ships rows*num_hashes individual (part, key, iid)
    rows through the sort shuffle — at 512 hashes that is 512 20-byte
    rows per record, and the shuffle sort pays per-row cost on all of
    them. Here each batch pre-buckets its entries by partition and
    emits ONE row per partition: (part, kblob, iblob) where the blobs
    are the int64 key/iid arrays of that partition's entries. Identical
    information, 12 B/entry instead of 20, and the shuffle sorts
    ~num_parts rows per batch instead of rows*num_hashes.
    """
    from mhray.kernels import binary_column_fixed_i32

    sig = binary_column_fixed_i32(batch.column("minhash"), num_hashes)
    iids = np.asarray(batch.column("iid"), dtype=np.int64)
    slots = np.arange(num_hashes, dtype=np.int64) << 32
    keys = (slots[None, :] | sig.astype(np.uint32).astype(np.int64)).ravel()
    out_iids = np.repeat(iids, num_hashes)
    part = _part_of(keys, num_parts)
    order = np.argsort(part, kind="stable")
    part_s = part[order]
    keys_s = np.ascontiguousarray(keys[order], dtype="<i8")
    # ids that fit int32 ship at half width (per-batch decision,
    # recorded in ``iw``) — 25% less through the widest shuffle; any
    # 10^12-scale id falls back to int64 automatically
    narrow = bool(len(iids) == 0
                  or (iids.min() >= np.iinfo(np.int32).min
                      and iids.max() <= np.iinfo(np.int32).max))
    iid_dt = "<i4" if narrow else "<i8"
    iids_s = np.ascontiguousarray(out_iids[order], dtype=iid_dt)
    starts = np.flatnonzero(np.diff(part_s, prepend=part_s[0] - 1)) \
        if len(part_s) else np.empty(0, np.int64)
    ends = np.append(starts[1:], len(part_s))
    return pa.table({
        "part": pa.array(part_s[starts], pa.int32()),
        "kblob": pa.array([keys_s[s:e].tobytes() for s, e in zip(starts, ends)],
                          pa.binary()),
        "iblob": pa.array([iids_s[s:e].tobytes() for s, e in zip(starts, ends)],
                          pa.binary()),
        "iw": pa.array(np.full(len(starts), 4 if narrow else 8, np.int8),
                       pa.int8()),
        "role": pa.array(np.full(len(starts), role, np.int8), pa.int8()),
    })


def _binary_concat(col, dtype) -> np.ndarray:
    """Concatenate every value of a binary column into one typed array
    (zero-copy per chunk: values are contiguous in the data buffer)."""
    chunks = col.chunks if isinstance(col, pa.ChunkedArray) else [col]
    parts = []
    for ch in chunks:
        if len(ch) == 0:
            continue
        offs = np.frombuffer(ch.buffers()[1], dtype=np.int32)[
            ch.offset:ch.offset + len(ch) + 1]
        data = np.frombuffer(ch.buffers()[2], dtype=np.uint8)
        parts.append(data[offs[0]:offs[-1]].view(dtype))
    if not parts:
        return np.empty(0, dtype)
    return np.concatenate(parts) if len(parts) > 1 else parts[0]


def binary_concat_i64(col) -> np.ndarray:
    return _binary_concat(col, "<i8")


def unpack_entries(tbl: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    """Packed explode rows -> aligned (keys, iids) int64 arrays,
    honoring the per-row ``iw`` iid width (entry order is arbitrary —
    consumers re-sort by key)."""
    iw = np.asarray(tbl.column("iw"), dtype=np.int8)
    ks, vs = [], []
    for w, dt in ((4, "<i4"), (8, "<i8")):
        sel = iw == w
        if not sel.any():
            continue
        sub = tbl.filter(pa.array(sel))
        ks.append(binary_concat_i64(sub.column("kblob")))
        vals = _binary_concat(sub.column("iblob"), dt)
        vs.append(vals.astype(np.int64) if w == 4 else vals)
    if not ks:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    return np.concatenate(ks), np.concatenate(vs)


def make_emit_pairs_packed(cap: int, num_parts: int | None = None,
                           cross: bool = False):
    """:func:`mhray.rayutil.exchange` fn for the packed explode: unpack the entry
    blobs, emit pairs within every key group (``cross=False``, the
    self-join) or role-0 x role-1 pairs of every key present on both
    sides (``cross=True``), and total them partition-locally."""

    def emit_pairs_packed(part: pa.Table) -> pa.Table:
        if cross:
            role = np.asarray(part.column("role"), dtype=np.int8)
            qk, qi = unpack_entries(part.filter(pa.array(role == 0)))
            ik, ii = unpack_entries(part.filter(pa.array(role == 1)))
            lo, hi, capped, dropped = _cross_pairs(qk, qi, ik, ii, cap)
        else:
            keys, iids = unpack_entries(part)
            lo, hi, capped, dropped = _pairs_within_groups(keys, iids, cap)
        if dropped:
            print(f"[mhray] candidate group cap: dropped {dropped} ids in one partition")
        return aggregate_pair_partials(lo, hi, capped, num_parts)

    return emit_pairs_packed


def _part_of(keys: np.ndarray, num_parts: int) -> np.ndarray:
    # cheap 64-bit mix so adjacent slot ids spread across partitions
    x = keys.view(np.uint64).copy()
    x ^= x >> np.uint64(33)
    x *= np.uint64(0xFF51AFD7ED558CCD)
    x ^= x >> np.uint64(33)
    return (x % np.uint64(num_parts)).astype(np.int32)


def _pair_part(lo: np.ndarray, hi: np.ndarray, num_parts: int) -> np.ndarray:
    """Partition id for an (lo, hi) pair key — multi-key groupbys are
    slow in Ray's sort shuffle, so pair aggregation re-partitions on a
    mixed single key and aggregates partition-locally."""
    x = lo.view(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    x ^= hi.view(np.uint64) + np.uint64(0x517CC1B727220A95)
    return _part_of(x.view(np.int64), num_parts)


# ---------------------------------------------------------------------------
# partition-wise pair emission
# ---------------------------------------------------------------------------

def _sorted_groups(keys: np.ndarray, iids: np.ndarray):
    """Sort entries by (key, iid): (order, group starts, group sizes)."""
    order = np.lexsort((iids, keys))
    k = keys[order]
    starts = np.flatnonzero(np.diff(k, prepend=k[0] - 1)) if len(k) \
        else np.empty(0, np.int64)
    return order, starts, np.diff(np.append(starts, len(k)))


def _pairs_within_groups(keys: np.ndarray, iids: np.ndarray, cap: int,
                         payload: np.ndarray | None = None):
    """All intra-group (lo, hi) pairs for groups keyed by ``keys``.

    Vectorized: sorts by (key, iid) and gives each kept row r the
    upper-triangle span ``[r+1, group_start + min(size, cap))`` for
    ``expand_spans`` — no per-group Python (the LSH regime is hundreds
    of thousands of 2-member groups per partition). Groups over
    ``cap`` members keep the cap smallest iids and mark their pairs
    capped. Returns (lo, hi, capped, n_dropped_ids[, payload_lo,
    payload_hi]).
    """
    from mhray.kernels import expand_spans

    order, starts, sizes = _sorted_groups(keys, iids)
    v = iids[order]
    kept = np.minimum(sizes, cap)
    a, b = expand_spans(np.arange(1, len(v) + 1),
                        np.repeat(starts + kept, sizes))
    capped = np.repeat(sizes > cap, sizes)[a]
    dropped = int((sizes - kept).sum())
    if payload is not None:
        p = payload[order]
        return v[a], v[b], capped, dropped, p[a], p[b]
    return v[a], v[b], capped, dropped


def _cross_pairs(qkeys: np.ndarray, qiids: np.ndarray,
                 ikeys: np.ndarray, iiids: np.ndarray, cap: int):
    """All (query, index) pairs sharing a key: each kept query row's
    span is its key's index group. Each side keeps the ``cap``
    smallest iids per key; pairs of a key capped on either side are
    marked capped. Returns (lo=query iid, hi=index iid, capped,
    n_dropped_ids)."""
    from mhray.kernels import expand_spans

    if len(qkeys) == 0 or len(ikeys) == 0:
        e = np.empty(0, np.int64)
        return e, e, np.empty(0, bool), 0
    qo, qs, qn = _sorted_groups(qkeys, qiids)
    io, is_, in_ = _sorted_groups(ikeys, iiids)
    qk, ik = qkeys[qo][qs], ikeys[io][is_]
    pos = np.minimum(np.searchsorted(ik, qk), len(ik) - 1)
    both = ik[pos] == qk                      # per query key group
    qkept = np.where(both, np.minimum(qn, cap), 0)
    ikept = np.where(both, np.minimum(in_[pos], cap), 0)
    dropped = int(np.maximum(qn - cap, 0)[both].sum()
                  + np.maximum(in_[pos] - cap, 0)[both].sum())
    # per query row: its group's index span, empty past the cap
    rank = np.arange(len(qo)) - np.repeat(qs, qn)
    live = rank < np.repeat(qkept, qn)
    span_lo = np.repeat(is_[pos], qn)
    a, b = expand_spans(span_lo,
                        span_lo + np.where(live, np.repeat(ikept, qn), 0))
    capped = np.repeat((qn > cap) | (in_[pos] > cap), qn)[a]
    return qiids[qo][a], iiids[io][b], capped, dropped


# ---------------------------------------------------------------------------
# rep -> member expansion
# ---------------------------------------------------------------------------

def assign_reps(sk, num_parts: int | None = None):
    """Sketch rows + ``rep_iid``: the smallest iid among the rows with
    the same ``caption_hash`` (identical captions have identical
    sketches, so only reps need to enter the LSH exchange).

    Per-batch partial minima go through ONE caption-hash shuffle to the
    global minimum; the (caption_hash, rep) table is then attached with
    :func:`mhray.rayutil.attach_payload`, whose policy broadcasts it or
    shuffles it with ``sk`` by its size. Pass a materialized ``sk``: it
    is read twice."""
    from mhray.rayutil import attach_payload, exchange, parts_for

    num_parts = parts_for(sk, num_parts)

    def min_rep(batch: pa.Table) -> pa.Table:
        """(caption_hash, rep) rows -> the smallest rep per caption,
        with its shuffle partition: both the partial and the reduce."""
        ch = np.asarray(batch.column("caption_hash"), dtype=np.int64)
        rep = np.asarray(batch.column("rep"), dtype=np.int64)
        order = np.lexsort((rep, ch))
        first = np.ones(len(ch), dtype=bool)
        first[1:] = ch[order][1:] != ch[order][:-1]
        ch, rep = ch[order][first], rep[order][first]
        return pa.table({"__part": pa.array(_part_of(ch, num_parts),
                                            pa.int32()),
                         "caption_hash": pa.array(ch, pa.int64()),
                         "rep": pa.array(rep, pa.int64())})

    partials = sk.select_columns(["caption_hash", "iid"]) \
        .rename_columns({"iid": "rep"}) \
        .map_batches(min_rep, batch_format="pyarrow", zero_copy_batch=True)
    reps = exchange(partials, "__part", num_parts, min_rep).materialize()
    return attach_payload(
        sk, "caption_hash", reps, "caption_hash", ("rep",), "iid",
        num_parts, side_schema=pa.schema([("caption_hash", pa.int64()),
                                          ("rep", pa.int64())]))


def pack_members(ds, key_col: str, member_cols: tuple,
                 num_parts: int | None = None):
    """One row per distinct ``key_col`` value: ``(key_col, members)``,
    where ``members`` packs that key's rows, sorted by ``member_cols``,
    as interleaved little-endian int64 (8 B per member column) — one
    exchange on the key (default :func:`mhray.rayutil.parts_for`
    ``ds``), and lazy: materialize before attaching it.

    The rep -> member expansion: attach these blobs to rep pairs with
    :func:`mhray.rayutil.attach_payload`, read them with
    :func:`members_view` and expand them with :func:`cross_members`."""
    from mhray.rayutil import exchange, parts_for

    width = len(member_cols)
    num_parts = parts_for(ds, num_parts)

    def add_part(batch: pa.Table) -> pa.Table:
        k = np.asarray(batch.column(key_col), dtype=np.int64)
        cols = {"__part": pa.array(_part_of(k, num_parts), pa.int32()),
                key_col: pa.array(k, pa.int64())}
        cols.update({c: batch.column(c) for c in member_cols})
        return pa.table(cols)

    def pack(part: pa.Table) -> pa.Table:
        k = np.asarray(part.column(key_col), dtype=np.int64)
        vals = [np.asarray(part.column(c), dtype=np.int64)
                for c in member_cols]
        order = np.lexsort((*reversed(vals), k))
        k_s = k[order]
        new_g = np.ones(len(k_s), dtype=bool)
        new_g[1:] = k_s[1:] != k_s[:-1]
        starts = np.flatnonzero(new_g)
        # one interleaved buffer + offsets = the whole binary column,
        # no per-group tobytes loop
        flat = np.empty((len(k_s), width), dtype="<i8")
        for i, v in enumerate(vals):
            flat[:, i] = v[order]
        offs = (np.append(starts, len(k_s)) * 8 * width).astype(np.int32)
        members = pa.Array.from_buffers(
            pa.binary(), len(starts),
            [None, pa.py_buffer(offs.tobytes()), pa.py_buffer(flat.tobytes())])
        return pa.table({key_col: pa.array(k_s[starts], pa.int64()),
                         "members": members})

    return exchange(ds.map_batches(add_part, batch_format="pyarrow",
                                   zero_copy_batch=True),
                    "__part", num_parts, pack)


def members_view(col, width: int):
    """A :func:`pack_members` column as zero-copy views: one int64
    array per member column over every row's members, and per-row
    member offsets."""
    from mhray.rayutil import binary_flat_view

    flat, offs = binary_flat_view(col, 8 * width, "<i8")
    return [flat[i::width] for i in range(width)], offs


def cross_members(lo_offs: np.ndarray, hi_offs: np.ndarray):
    """Every (row, a, b) where member ``a`` lies in the row's lo span
    and member ``b`` in its hi span (offsets as :func:`members_view`
    returns them): the ragged per-row cross, in one ``expand_spans``
    pass over the batch. ``a`` / ``b`` index the flat member arrays;
    the caller builds its own columns from them."""
    from mhray.kernels import expand_spans

    row = np.repeat(np.arange(len(lo_offs) - 1), np.diff(lo_offs))
    a, b = expand_spans(hi_offs[:-1][row], hi_offs[1:][row])
    return row[a], a, b


def aggregate_pair_partials(lo: np.ndarray, hi: np.ndarray,
                            capped: np.ndarray,
                            num_parts: int | None = None,
                            payload: dict | None = None) -> pa.Table:
    """(lo, hi, capped) pair arrays -> grouped (lo, hi[, payload],
    partial_count, capped[, pair_part]) partial-count table. ONE
    definition for every pair emitter (minhash, packed, payload,
    incremental cross): the positional rename after
    ``group_by().aggregate()`` is load-bearing — it assumes the pinned
    pyarrow emits group keys first — so a pyarrow ordering change must
    be fixed in exactly one place. ``payload`` maps extra int64 column
    names to per-pair arrays; they are group keys too (each is a
    function of the pair's ids, so grouping is still per pair)."""
    payload = payload or {}
    tbl = pa.table({
        "lo": pa.array(lo, pa.int64()), "hi": pa.array(hi, pa.int64()),
        **{c: pa.array(v, pa.int64()) for c, v in payload.items()},
        "capped": pa.array(capped),
        "n": pa.array(np.ones(len(lo), np.int64)),
    })
    agg = tbl.group_by(["lo", "hi", *payload]).aggregate(
        [("n", "sum"), ("capped", "max")])
    agg = agg.rename_columns(["lo", "hi", *payload, "partial_count",
                              "capped"])
    if num_parts is not None:
        agg = agg.append_column("pair_part", pa.array(_pair_part(
            np.asarray(agg.column("lo"), np.int64),
            np.asarray(agg.column("hi"), np.int64), num_parts),
            pa.int32()))
    return agg


def make_emit_pairs(cap: int, payload_cols: tuple = (),
                    num_parts: int | None = None):
    """:func:`mhray.rayutil.exchange` fn: pairs within every key group
    of the partition, with per-pair partial counts (combiner before shuffle #2).
    Each named int64 ``payload_cols`` column rides along as
    <name>_lo / <name>_hi on every pair."""

    def emit_pairs(part: pa.Table) -> pa.Table:
        keys = np.asarray(part.column("key"), dtype=np.int64)
        iids = np.asarray(part.column("iid"), dtype=np.int64)
        payload = {}
        if payload_cols:
            p = np.stack([np.asarray(part.column(c), dtype=np.int64)
                          for c in payload_cols], axis=1)
            lo, hi, capped, dropped, plo, phi = _pairs_within_groups(
                keys, iids, cap, p)
            for ci, c in enumerate(payload_cols):
                payload[f"{c}_lo"] = plo[:, ci]
                payload[f"{c}_hi"] = phi[:, ci]
        else:
            lo, hi, capped, dropped = _pairs_within_groups(keys, iids, cap)
        if dropped:
            print(f"[mhray] candidate group cap: dropped {dropped} ids in one partition")
        return aggregate_pair_partials(lo, hi, capped, num_parts, payload)

    return emit_pairs


def make_emit_phash_pairs(cap: int, max_hamming: int, num_parts: int):
    """:func:`mhray.rayutil.exchange` fn for DISTINCT-pHash band buckets (equal
    pHashes pair upstream): emit intra-group (lo, hi) pairs and apply
    the Hamming gate IN the same call —
    random band collisions (the quadratic term at scale) die before
    any row leaves the partition, instead of shipping millions of
    junk pairs into a dedupe shuffle. Output: gated unique-per-
    partition pairs with their hamming and a pair_part key."""
    from mhray.kernels import hamming64, pair_run_starts

    def emit_gated(part: pa.Table) -> pa.Table:
        keys = np.asarray(part.column("key"), dtype=np.int64)
        iids = np.asarray(part.column("iid"), dtype=np.int64)
        payload = np.stack([
            np.asarray(part.column("phash"), dtype=np.int64)], axis=1)
        lo, hi, capped, dropped, plo, phi = _pairs_within_groups(
            keys, iids, cap, payload)
        if dropped:
            print(f"[mhray] candidate group cap: dropped {dropped} ids in one partition")
        if len(lo) == 0:
            return pa.table({
                "lo": pa.array([], pa.int64()), "hi": pa.array([], pa.int64()),
                "hamming": pa.array([], pa.int32()),
                "pair_part": pa.array([], pa.int32()),
            })
        ham = hamming64(plo[:, 0], phi[:, 0]).astype(np.int32)
        keep = (ham <= max_hamming) & (plo[:, 0] != phi[:, 0])
        lo, hi, ham = lo[keep], hi[keep], ham[keep]
        # partition-local dedupe (same pair via several bands)
        order = np.lexsort((ham, hi, lo))
        idx = order[pair_run_starts(lo[order], hi[order])]
        lo_s, hi_s, ham_s = lo[idx], hi[idx], ham[idx]
        return pa.table({
            "lo": pa.array(lo_s, pa.int64()),
            "hi": pa.array(hi_s, pa.int64()),
            "hamming": pa.array(ham_s, pa.int32()),
            "pair_part": pa.array(_pair_part(lo_s, hi_s, num_parts),
                                  pa.int32()),
        })

    return emit_gated


def make_count_gate(min_matches: int):
    """``pair_part`` exchange fn: total the per-partition partial
    counts of each (lo, hi) pair and gate on min_matches — the
    HitCounter threshold (MinHashSearch.java:204) without a slow
    multi-key sort shuffle."""
    from mhray.kernels import pair_run_starts

    def count_gate(part: pa.Table) -> pa.Table:
        lo = np.asarray(part.column("lo"), dtype=np.int64)
        hi = np.asarray(part.column("hi"), dtype=np.int64)
        cnt = np.asarray(part.column("partial_count"), dtype=np.int64)
        order = np.lexsort((hi, lo))
        lo_s, hi_s, cnt_s = lo[order], hi[order], cnt[order]
        starts = pair_run_starts(lo_s, hi_s)
        sums = np.add.reduceat(cnt_s, starts) if len(starts) else np.empty(0, np.int64)
        keep = sums >= min_matches
        if "capped" in part.column_names:
            # a truncated LSH group undercounts shared slots — surface
            # it per partition instead of dropping the flag silently
            capped = np.asarray(part.column("capped"))[order]
            n_capped = int(np.logical_or.reduceat(capped, starts)[keep]
                           .sum()) if len(starts) else 0
            if n_capped:
                print(f"[mhray] count gate: {n_capped} surviving pairs "
                      "have capped (undercounted) candidate groups")
        return pa.table({
            "lo": pa.array(lo_s[starts][keep], pa.int64()),
            "hi": pa.array(hi_s[starts][keep], pa.int64()),
            "shared_slots": pa.array(sums[keep], pa.int64()),
        })

    return count_gate


def make_pair_min(value_col: str, payload_cols: tuple = ()):
    """``pair_part`` exchange fn: per-pair minimum of value_col
    (deduping a pair found via multiple bands), carrying payload columns
    (identical within a pair) from the first occurrence."""
    from mhray.kernels import pair_run_starts

    def pair_min(part: pa.Table) -> pa.Table:
        lo = np.asarray(part.column("lo"), dtype=np.int64)
        hi = np.asarray(part.column("hi"), dtype=np.int64)
        val = np.asarray(part.column(value_col))
        order = np.lexsort((val, hi, lo))
        # min value row per pair (val sorted first)
        idx = order[pair_run_starts(lo[order], hi[order])]
        cols = {
            "lo": pa.array(lo[idx], pa.int64()),
            "hi": pa.array(hi[idx], pa.int64()),
            value_col: part.column(value_col).take(pa.array(idx, pa.int64())),
        }
        for c in payload_cols:
            cols[c] = part.column(c).take(pa.array(idx, pa.int64()))
        return pa.table(cols)

    return pair_min


# ---------------------------------------------------------------------------
# dataset-level wiring
# ---------------------------------------------------------------------------

def minhash_candidates(sketches_ds, cfg: MhapConfig,
                       num_parts: int | None = None, index=None):
    """sketches -> gated candidate pairs (lo, hi, shared_slots).

    ``index=None`` is the self-join over ``sketches_ds`` (``lo < hi``).
    With an ``index`` sketch table, ``sketches_ds`` is the query side
    and only query x index pairs are emitted (``lo`` = query iid,
    ``hi`` = index iid; the two iid spaces are independent).

    Two exchanges over ``num_parts`` partitions (default
    :func:`mhray.rayutil.parts_for` the sketches): ``part`` to
    co-locate LSH keys, then ``pair_part`` to total the per-partition
    partial counts and apply the num_min_matches gate."""
    from mhray.rayutil import exchange, parts_for

    num_parts = parts_for(sketches_ds, num_parts)

    def explode(side, role: int):
        return side.map_batches(
            explode_minhash_packed,
            fn_kwargs={"num_hashes": cfg.num_hashes, "num_parts": num_parts,
                       "role": role},
            batch_format="pyarrow", zero_copy_batch=True,
        )

    bands = explode(sketches_ds, 0)
    if index is not None:
        bands = bands.union(explode(index, 1))
    pairs = exchange(bands, "part", num_parts, make_emit_pairs_packed(
        cfg.band_group_cap, num_parts=num_parts, cross=index is not None))
    gated = exchange(pairs, "pair_part", num_parts,
                     make_count_gate(cfg.num_min_matches))
    if cfg.min_store_length > 0:
        gated = apply_store_length_gate(
            gated, sketches_ds, sketches_ds if index is None else index,
            cfg.min_store_length, num_parts)
    return gated


def apply_store_length_gate(gated, lo_side, hi_side, msl: int,
                            num_parts: int):
    """The min_store_length membership rule — "never short to short"
    (MinHashSearch.java:210-225; the other two clauses only prevent
    double-processing in the reference's probe loop): a (lo, hi,
    shared_slots) pair survives only if at least one side's caption_len
    >= ``msl``, ``lo`` read from ``lo_side`` and ``hi`` from
    ``hi_side``. Applied between the count gate and verify, where the
    pair table is smallest."""
    from mhray.rayutil import attach_payload

    side_schema = pa.schema([("iid", pa.int64()),
                             ("caption_len", pa.int32())])
    schema = pa.schema([("lo", pa.int64()), ("hi", pa.int64()),
                        ("shared_slots", pa.int64())])
    for key, side in (("lo", lo_side), ("hi", hi_side)):
        gated = attach_payload(
            gated, key, side.select_columns(["iid", "caption_len"]), "iid",
            ("caption_len",), key, num_parts, pairs_schema=schema,
            side_schema=side_schema)
        schema = schema.append(pa.field(f"caption_len_{key}", pa.int32()))

    def store_gate(batch: pa.Table) -> pa.Table:
        ll = np.asarray(batch.column("caption_len_lo"), np.int32)
        lh = np.asarray(batch.column("caption_len_hi"), np.int32)
        keep = pa.array(~((ll < msl) & (lh < msl)))
        return pa.table({
            "lo": batch.column("lo").filter(keep),
            "hi": batch.column("hi").filter(keep),
            "shared_slots": batch.column("shared_slots").filter(keep),
        })

    return gated.map_batches(store_gate, batch_format="pyarrow",
                             zero_copy_batch=True)
