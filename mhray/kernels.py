"""Pure-numpy sketch + verify kernels (no Ray dependency).

Reimplements, vectorized over Arrow batches, the algorithms of:

- shingle hashing: sketch/HashUtils.java:213-258 (murmur3_128 / murmur3_32
  of the UTF-16 chars of each k-shingle window)
- weighted MinHash: sketch/MinHashSketch.java:51-179 (per-kmer XORShift
  stream, ``weight`` steps per slot, signed-min selection, key halves
  stored as the int32 signature)
- bottom-k positional sketch: sketch/BottomOverlapSketch.java:525-559
- the two-pass positional verify kernel: sketch/BottomOverlapSketch.java:592-630
  (recordMatchingKmers :397-516, optimizeShifts :156-189, computeEdges
  :90-137, computeKBottomSketchJaccard :304-364, jaccardToIdentity :391-395)
- SimHash: sketch/SimHash.java:40-87 (per-bit majority vote)

All functions operate on numpy arrays and are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mhray.murmur import murmur3_x64_128, murmur3_x86_32

I64_MAX = np.iinfo(np.int64).max

# ---------------------------------------------------------------------------
# shingling
# ---------------------------------------------------------------------------


def encode_utf16_batch(texts: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate UTF-16LE code units of all texts.

    Returns (units, offsets): ``units`` is a uint16 array, ``offsets`` has
    len(texts)+1 entries; text i occupies units[offsets[i]:offsets[i+1]].
    Matches Guava ``putUnencodedChars`` (UTF-16 code units, little-endian).
    """
    bufs = [t.encode("utf-16-le") for t in texts]
    lens = np.fromiter((len(b) // 2 for b in bufs), dtype=np.int64, count=len(bufs))
    offsets = np.zeros(len(bufs) + 1, dtype=np.int64)
    np.cumsum(lens, out=offsets[1:])
    units = np.frombuffer(b"".join(bufs), dtype="<u2").astype(np.uint16, copy=False)
    return units, offsets


def encode_utf16_arrow(col) -> tuple[np.ndarray, np.ndarray]:
    """UTF-16 code units straight from an Arrow string column.

    ASCII fast path: for pure-ASCII data the UTF-8 buffer widened to
    uint16 IS the UTF-16LE code-unit stream — no per-row Python encode,
    no string materialization. Falls back to ``encode_utf16_batch`` when
    any non-ASCII byte is present.
    """
    import pyarrow as pa

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if len(col) == 0:
        return np.empty(0, np.uint16), np.zeros(1, np.int64)
    off_buf = np.frombuffer(col.buffers()[1], dtype=np.int32)[
        col.offset : col.offset + len(col) + 1
    ].astype(np.int64)
    data = np.frombuffer(col.buffers()[2], dtype=np.uint8)
    body = data[off_buf[0] : off_buf[-1]]
    if len(body) and body.max() >= 128:
        return encode_utf16_batch(col.to_pylist())
    return body.astype(np.uint16), off_buf - off_buf[0]


def _window_matrix(units: np.ndarray, offsets: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """All k-code-unit windows of every text as an (N, 2k) uint8 matrix.

    Returns (windows_u8, row_offsets) where row_offsets[i]:row_offsets[i+1]
    are the windows of text i (empty when the text is shorter than k).
    """
    n_texts = len(offsets) - 1
    lens = np.diff(offsets)
    counts = np.maximum(lens - k + 1, 0)
    row_offsets = np.zeros(n_texts + 1, dtype=np.int64)
    np.cumsum(counts, out=row_offsets[1:])
    total = int(row_offsets[-1])
    if total == 0:
        return np.empty((0, 2 * k), dtype=np.uint8), row_offsets
    # start index (into units) of every window; rows gathered from the
    # zero-copy sliding view (one 1-D take — 17x faster than a 2-D
    # index-matrix gather on the same data)
    _, starts = expand_spans(offsets[:-1], offsets[:-1] + counts)
    sw = np.lib.stride_tricks.sliding_window_view(units, k)
    win = np.take(sw, starts, axis=0)  # (N, k) uint16, contiguous
    return win.view(np.uint8).reshape(total, 2 * k), row_offsets


def expand_spans(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every ``(r, j)`` with ``lo[r] <= j < hi[r]``, as ``(src, dst)``
    arrays: rows in order, ``j`` ascending within a row, nothing for an
    empty span (``hi[r] <= lo[r]``).

    The one ragged expansion behind every pair emitter (upper triangle,
    query x index cross, value window) and every ragged gather
    (shingle windows, sub-sketch windows): each caller only computes
    its rows' spans, so the cost is input + output."""
    lo = np.asarray(lo, dtype=np.int64)
    cnt = np.maximum(np.asarray(hi, dtype=np.int64) - lo, 0)
    src = np.repeat(np.arange(len(cnt), dtype=np.int64), cnt)
    shift = lo - (np.cumsum(cnt) - cnt)
    return src, np.arange(len(src), dtype=np.int64) + shift[src]


def pair_run_starts(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Start index of every run of equal ``(lo, hi)`` in arrays sorted
    by (lo, hi) — the per-pair dedupe / reduceat boundaries."""
    if len(lo) == 0:
        return np.empty(0, dtype=np.int64)
    new = np.ones(len(lo), dtype=bool)
    new[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
    return np.flatnonzero(new)


def group_searchsorted(keys: np.ndarray, vals: np.ndarray,
                       *probes: tuple[np.ndarray, str]) -> list[np.ndarray]:
    """``searchsorted`` of each row's target among the rows of its OWN
    key group, for rows sorted by (keys, vals): one result per
    ``(targets, side)`` probe, as absolute row positions (a target
    outside the group's values lands on the group's start or end).

    One global search over the packed key group ordinal x dense value
    rank, built once for all probes: both are < n, so the packed key
    fits int64 for any n under ~3e9 rows whatever the range of the
    values — no value-range packing to overflow, no chunking."""
    n = len(keys)
    if n == 0:
        return [np.empty(0, dtype=np.int64) for _ in probes]
    new = np.ones(n, dtype=bool)
    new[1:] = keys[1:] != keys[:-1]
    g = np.cumsum(new) - 1
    uv = np.unique(vals)
    nu = len(uv)
    packed = g * nu + np.searchsorted(uv, vals)
    out = []
    for targets, side in probes:
        rank = np.searchsorted(uv, targets, side=side)
        if side == "right":  # rank of the largest value <= target
            rank -= 1        # (left: of the smallest value >= target)
        out.append(np.searchsorted(packed, g * nu + rank, side=side))
    return out


def window_pairs(keys: np.ndarray, vals: np.ndarray,
                 w: int) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs ``(a, b)`` of rows with ``keys[a] == keys[b]`` and
    ``|vals[a] - vals[b]| <= w``, each unordered pair once, with
    ``vals[a] <= vals[b]``. Rows sort by (keys, vals); row r's
    partners are the span from r+1 to its window end in its group.
    ``vals + w`` must not overflow int64."""
    order = np.lexsort((vals, keys))
    k, v = keys[order], vals[order]
    end, = group_searchsorted(k, v, (v + w, "right"))
    src, dst = expand_spans(np.arange(1, len(k) + 1), end)
    return order[src], order[dst]


def _units_of(texts) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(texts, list):
        return encode_utf16_batch(texts)
    return encode_utf16_arrow(texts)


def shingle_hashes64(texts, k: int, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """64-bit murmur3_128 hash of every k-shingle of every text.

    Mirrors HashUtils.computeSequenceHashesLong (sketch/HashUtils.java:237-258)
    without the reverse-complement branch (N/A for text). ``texts`` may
    be a list[str] or an Arrow string column (ASCII fast path). Returns
    (hashes uint64, row_offsets).
    """
    units, offsets = _units_of(texts)
    win, row_offsets = _window_matrix(units, offsets, k)
    return murmur3_x64_128(win, seed), row_offsets


def shingle_hashes32(texts, k: int) -> tuple[np.ndarray, np.ndarray]:
    """int32 murmur3_32 hash per k-shingle (HashUtils.java:213-235)."""
    units, offsets = _units_of(texts)
    win, row_offsets = _window_matrix(units, offsets, k)
    return murmur3_x86_32(win), row_offsets


def hash_strings64(texts, seed: int = 0) -> np.ndarray:
    """murmur3_128 (h1) of each full text's UTF-16LE bytes via the
    ragged block-iterative kernel (one vector pass per 16-byte block
    index — diverse lengths cost no extra calls). Accepts list[str] or
    an Arrow string column. Used as the exact-duplicate grouping key."""
    from mhray.murmur import murmur3_x64_128_ragged

    units, offsets = _units_of(texts)
    return murmur3_x64_128_ragged(
        units.view(np.uint8), offsets * 2, seed).view(np.int64)


# ---------------------------------------------------------------------------
# weighted MinHash (XORShift family)  — MinHashSketch.java:51-179
# ---------------------------------------------------------------------------


def unique_in_first_occurrence_order(
    hashes: np.ndarray, row_offsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row unique hashes in first-occurrence order, with counts.

    Matches the Long2ObjectLinkedOpenHashMap accumulation at
    MinHashSketch.java:66-81 (iteration order = insertion order).
    Returns (keys, counts, urow_offsets).
    """
    n_rows = len(row_offsets) - 1
    out_keys, out_counts, out_off = [], [], np.zeros(n_rows + 1, dtype=np.int64)
    for i in range(n_rows):
        seg = hashes[row_offsets[i] : row_offsets[i + 1]]
        if len(seg) == 0:
            out_off[i + 1] = out_off[i]
            continue
        uk, first_idx, cnt = np.unique(seg, return_index=True, return_counts=True)
        order = np.argsort(first_idx, kind="stable")
        out_keys.append(uk[order])
        out_counts.append(cnt[order])
        out_off[i + 1] = out_off[i] + len(uk)
    if not out_keys:
        return (np.empty(0, np.uint64), np.empty(0, np.int64), out_off)
    return np.concatenate(out_keys), np.concatenate(out_counts), out_off


def _xorshift_step(x: np.ndarray) -> np.ndarray:
    # XORShift RNG, MinHashSketch.java:139-142 (Java long ops == uint64 ops)
    x ^= x << np.uint64(21)
    x ^= x >> np.uint64(35)
    x ^= x << np.uint64(4)
    return x


_U21, _U35, _U4 = np.uint64(21), np.uint64(35), np.uint64(4)


def _xorshift_inplace(x: np.ndarray, tmp: np.ndarray) -> None:
    """One XORShift step with no temporaries (``tmp`` is scratch)."""
    np.left_shift(x, _U21, out=tmp)
    np.bitwise_xor(x, tmp, out=x)
    np.right_shift(x, _U35, out=tmp)
    np.bitwise_xor(x, tmp, out=x)
    np.left_shift(x, _U4, out=tmp)
    np.bitwise_xor(x, tmp, out=x)


def weighted_minhash(
    keys: np.ndarray,
    weights: np.ndarray,
    urow_offsets: np.ndarray,
    num_hashes: int,
    tile_keys: int = 1 << 17,
) -> np.ndarray:
    """(n_rows, num_hashes) int32 signature matrix.

    For each unique kmer ``key`` with integer weight w: a single XORShift
    stream seeded at key runs num_hashes*w steps; slot ``word`` sees steps
    [word*w, (word+1)*w) and keeps the signed-minimum; the winning kmer's
    key low half (even slots) or high half (odd slots) is the signature
    value (MinHashSketch.java:133-153). Rows with zero kmers get
    int32.min signatures (callers must mask them out — the reference
    throws ZeroNGramsFoundException instead, MinHashSketch.java:84-85).

    The hot loop is num_hashes passes over every kmer instance, so two
    memory-level optimizations apply (bit-exact, loop structure only):
    document-aligned TILES of ~tile_keys instances keep the working set
    cache-resident, and all per-word arrays are preallocated scratch —
    no temporaries. (Per-tile distinct-key dedup was measured a wash:
    ~0.8 distinct ratio per tile, and the gather-back costs what the
    skipped XORShift steps save.)
    """
    n_rows = len(urow_offsets) - 1
    best_val = np.full((n_rows, num_hashes), I64_MAX, dtype=np.int64)
    best_key = np.zeros((n_rows, num_hashes), dtype=np.uint64)
    if len(keys) == 0:
        return _signature_from_keys(best_key, best_val)

    counts = np.diff(urow_offsets)
    weights = np.asarray(weights, dtype=np.int64)

    lo = 0
    while lo < n_rows:
        hi = lo + 1
        tot = int(counts[lo])
        while hi < n_rows and tot + counts[hi] <= tile_keys:
            tot += int(counts[hi])
            hi += 1
        sl = slice(int(urow_offsets[lo]), int(urow_offsets[hi]))
        k_t = keys[sl]
        w_t = weights[sl]
        row_of = np.repeat(np.arange(lo, hi), counts[lo:hi])

        for w in np.unique(w_t):
            w = int(w)
            if w <= 0:
                continue  # weight<=0 kmers skipped (MinHashSketch.java:127-128)
            sel = w_t == w
            keys_w = k_t[sel]
            rows_w = row_of[sel]
            n_w = len(keys_w)
            # segment starts of each row-run inside this weight group
            starts_w = np.flatnonzero(np.diff(rows_w, prepend=-1))
            urows_w = rows_w[starts_w]
            seg_counts = np.diff(starts_w, append=n_w)
            seg_of = np.repeat(np.arange(len(starts_w)), seg_counts)
            idx = np.arange(n_w)

            x = keys_w.astype(np.uint64, copy=True)
            tmp = np.empty(n_w, np.uint64)
            m = np.empty(n_w, np.int64)
            rmin_exp = np.empty(n_w, np.int64)
            cand = np.empty(n_w, np.int64)
            eq = np.empty(n_w, bool)
            for word in range(num_hashes):
                _xorshift_inplace(x, tmp)
                if w == 1:
                    mv = x.view(np.int64)
                else:
                    np.copyto(m, x.view(np.int64))
                    for _ in range(w - 1):
                        _xorshift_inplace(x, tmp)
                        np.minimum(m, x.view(np.int64), out=m)
                    mv = m
                rmin = np.minimum.reduceat(mv, starts_w)
                # first index attaining the min (Java strict `<` keeps
                # the earliest-inserted key on value ties)
                np.take(rmin, seg_of, out=rmin_exp)
                np.equal(mv, rmin_exp, out=eq)
                cand[:] = n_w
                np.copyto(cand, idx, where=eq)
                widx = np.minimum.reduceat(cand, starts_w)
                wkeys = keys_w[widx]

                col_val = best_val[:, word]
                col_key = best_key[:, word]
                cur = col_val[urows_w]
                upd = rmin < cur
                rows_upd = urows_w[upd]
                col_val[rows_upd] = rmin[upd]
                col_key[rows_upd] = wkeys[upd]
        lo = hi

    return _signature_from_keys(best_key, best_val)


def _signature_from_keys(best_key: np.ndarray, best_val: np.ndarray) -> np.ndarray:
    num_hashes = best_key.shape[1]
    lo = (best_key & np.uint64(0xFFFFFFFF)).astype(np.uint32).view(np.int32)
    hi = (best_key >> np.uint64(32)).astype(np.uint32).view(np.int32)
    sig = np.where(np.arange(num_hashes)[None, :] % 2 == 0, lo, hi)
    # rows never updated (no kmers): mark with int32.min so callers can drop
    empty = best_val[:, 0] == I64_MAX
    sig[empty, :] = np.iinfo(np.int32).min
    return sig.astype(np.int32, copy=False)


def minhash_jaccard(sig_a: np.ndarray, sig_b: np.ndarray) -> float:
    """Slot-equality Jaccard estimate (MinHashSketch.java:237-252)."""
    return float(np.mean(sig_a == sig_b))


# ---------------------------------------------------------------------------
# bottom-k positional sketch — BottomOverlapSketch.java:525-559
# ---------------------------------------------------------------------------


def bottom_sketch(hashes32: np.ndarray, sketch_size: int) -> tuple[np.ndarray, np.ndarray]:
    """(bs_hash, bs_pos): the sketch_size smallest hashes with positions.

    Stable sort by signed int32 hash (radixSortIndirect is stable, ties
    keep ascending position), truncated to min(sketch_size, n).
    """
    perm = np.argsort(hashes32, kind="stable")
    k = min(sketch_size, len(hashes32))
    perm = perm[:k]
    return hashes32[perm], perm.astype(np.int32)


def bottom_sketch_batch_pack(h32: np.ndarray, off32: np.ndarray,
                             sketch_size: int):
    """Batched bottom-k sketch + binary framing for a whole segment
    batch: one stable lexsort over (segment, hash) replaces the per-row
    argsort loop (the repo's segmented-lexsort idiom, cf. the ngram
    prefix select in stages/dedup.py), and the packed blobs are
    assembled into ONE flat int32 buffer wrapped as an Arrow binary
    array — no per-row ``bytes`` objects.

    Bit-identical to ``pack_bottom_sketch(*bottom_sketch(seg, k),
    len(seg))`` applied per segment (BottomOverlapSketch.java:525-559
    semantics: ascending signed hash, ties keep ascending position).

    Returns a ``pa.binary()`` array of length ``len(off32) - 1``.
    """
    import pyarrow as pa

    n = len(off32) - 1
    off = np.asarray(off32, dtype=np.int64)
    seg_lens = np.diff(off)
    seg_ids = np.repeat(np.arange(n, dtype=np.uint64), seg_lens)
    # one argsort over a combined uint64 key — same ordering as
    # lexsort((h32, seg_ids)) but several times faster (lexsort pays
    # two full indirect passes); the bias maps signed int32 order onto
    # unsigned order. When segment count and segment lengths both fit
    # 16 bits (every realistic sketch batch: batch_size <= 65536 docs,
    # captions << 65536 shingles) the POSITION is packed into the low
    # bits, making keys fully unique so the faster non-stable introsort
    # still yields ascending position within equal (segment, hash);
    # otherwise fall back to a stable sort of (segment, hash).
    biased = (h32.astype(np.int64) - np.iinfo(np.int32).min).astype(np.uint64)
    max_seg = int(seg_lens.max()) if n else 0
    if n <= 1 << 16 and max_seg <= 1 << 16:
        pos_key = (np.arange(len(h32), dtype=np.int64)
                   - np.repeat(off[:-1], seg_lens)).astype(np.uint64)
        order = np.argsort((seg_ids << np.uint64(48))
                           | (biased << np.uint64(16)) | pos_key)
    else:
        order = np.argsort((seg_ids << np.uint64(32)) | biased,
                           kind="stable")
    ks = np.minimum(seg_lens, sketch_size)
    kcum = np.cumsum(ks)
    total_k = int(kcum[-1]) if n else 0
    # index-within-selection for each selected entry (0..ks[i]-1)
    within = np.arange(total_k, dtype=np.int64) - np.repeat(kcum - ks, ks)
    sel = np.repeat(off[:-1], ks) + within  # first ks[i] of each segment
    top = order[sel]
    top_hash = h32[top].astype("<i4", copy=False)
    top_pos = (top - np.repeat(off[:-1], ks)).astype("<i4")

    # frame: [int32 seq_len][int32 k][k x hashes][k x positions]
    words = 2 + 2 * ks
    word_off = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(words, out=word_off[1:])
    flat = np.empty(word_off[-1], dtype="<i4")
    heads = word_off[:-1]
    flat[heads] = seg_lens
    flat[heads + 1] = ks
    body = np.repeat(heads + 2, ks) + within
    flat[body] = top_hash
    flat[body + np.repeat(ks, ks)] = top_pos

    byte_off = word_off * 4
    if byte_off[-1] > np.iinfo(np.int32).max:
        raise ValueError("bottom_sketch_batch_pack: batch blob exceeds "
                         "2 GiB — reduce sketch batch_size")
    return pa.Array.from_buffers(
        pa.binary(), n,
        [None,
         pa.py_buffer(byte_off.astype(np.int32).tobytes()),
         pa.py_buffer(flat.tobytes())],
    )


# ---------------------------------------------------------------------------
# sketch (de)serialization — the SequenceSketch byte framing analog
# (impl/SequenceSketch.java:123-148): joins/shuffles carry sketches as
# flat binary (Arrow acero joins reject nested list payload columns).
# ---------------------------------------------------------------------------


def pack_bottom_sketch(bs_hash: np.ndarray, bs_pos: np.ndarray, seq_len: int) -> bytes:
    """[int32 seq_len][int32 k][k x int32 hashes][k x int32 positions]."""
    k = len(bs_hash)
    head = np.array([seq_len, k], dtype="<i4")
    return head.tobytes() + bs_hash.astype("<i4").tobytes() + bs_pos.astype("<i4").tobytes()


def unpack_bottom_sketch(blob: bytes) -> tuple[np.ndarray, np.ndarray, int]:
    head = np.frombuffer(blob, dtype="<i4", count=2)
    seq_len, k = int(head[0]), int(head[1])
    body = np.frombuffer(blob, dtype="<i4", offset=8, count=2 * k)
    return body[:k], body[k:], seq_len


def binary_column_fixed_i32(col, width: int) -> np.ndarray:
    """(N, width) int32 view of an Arrow binary column whose values all
    hold ``width`` int32s (zero-copy per chunk where possible)."""
    import pyarrow as pa

    if isinstance(col, pa.ChunkedArray):
        chunks = col.chunks
    else:
        chunks = [col]
    mats = []
    for ch in chunks:
        if len(ch) == 0:
            continue
        offs = np.frombuffer(ch.buffers()[1], dtype=np.int32)[
            ch.offset : ch.offset + len(ch) + 1
        ]
        data = np.frombuffer(ch.buffers()[2], dtype=np.uint8)
        flat = data[offs[0] : offs[-1]]
        mats.append(flat.view("<i4").reshape(len(ch), width))
    if not mats:
        return np.empty((0, width), dtype=np.int32)
    return np.concatenate(mats) if len(mats) > 1 else mats[0]


# ---------------------------------------------------------------------------
# verify kernel (§2.9) — BottomOverlapSketch.getOverlapInfo
# ---------------------------------------------------------------------------


@dataclass
class OverlapResult:
    score: float
    raw_score: float
    a1: int
    a2: int
    b1: int
    b2: int


def _median_shift(shifts: np.ndarray) -> int:
    # Utils.quickSelect(copy, count/2, count): k-th smallest, k = n//2
    n = len(shifts)
    k = n // 2
    return int(np.partition(shifts, k)[k])


def _update_state(shifts: np.ndarray, len1: int, len2: int, max_shift_pct: float):
    """MatchData.performUpdate (BottomOverlapSketch.java:188-214)."""
    if len(shifts) > 0:
        median = _median_shift(shifts)
        left = max(0, -median)
        right = min(len1, len2 - median)
        overlap = max(10, right - left)
        abs_max = min(max(len1, len2), int(overlap * max_shift_pct))
    else:
        median = 0
        abs_max = max(len1, len2) + 1
    return median, abs_max


def _valid_windows(median: int, abs_max: int, len1: int, len2: int):
    # MatchData.valid1Lower/valid1Upper/valid2Lower/valid2Upper
    v1l = max(0, -median - abs_max)
    v1u = min(len1, len2 - median + abs_max)
    v2l = max(0, median - abs_max)
    v2u = min(len2, len1 + median + abs_max)
    return v1l, v1u, v2l, v2u


def _record_matching_kmers(
    h1: np.ndarray, p1: np.ndarray, h2: np.ndarray, p2: np.ndarray,
    median: int, abs_max: int, len1: int, len2: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized analog of recordMatchingKmers (BottomOverlapSketch.java:397-516).

    For each hash value present in both window-filtered sketches it
    records the (first1,first2) pair — gated on |shift-median|<=abs_max —
    and, when either equal-hash run extends, the (last1,last2) pair
    (recorded un-gated in the reference as well, :499-508). The
    reference's intra-run pointer walk when the *first* pair's shift
    fails is not reproduced (rare; affects repeated-shingle ties only).
    Returns (pos1, pos2) match arrays in hash order.
    """
    v1l, v1u, v2l, v2u = _valid_windows(median, abs_max, len1, len2)
    m1 = (p1 >= v1l) & (p1 < v1u)
    m2 = (p2 >= v2l) & (p2 < v2u)
    ah, ap = h1[m1], p1[m1]
    bh, bp = h2[m2], p2[m2]
    if len(ah) == 0 or len(bh) == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)

    # ah/bh are sorted (bottom sketches are hash-ordered; the window
    # filter preserves order) — unique via boundary flags + membership
    # via one merge probe, instead of intersect1d's three sorts
    fa = np.ones(len(ah), dtype=bool)
    fa[1:] = ah[1:] != ah[:-1]
    ua = ah[fa]
    pos = np.minimum(np.searchsorted(bh, ua), len(bh) - 1)
    common = ua[bh[pos] == ua]  # unique, ascending = merge order
    if len(common) == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    af = np.searchsorted(ah, common, side="left")
    al = np.searchsorted(ah, common, side="right") - 1
    bf = np.searchsorted(bh, common, side="left")
    bl = np.searchsorted(bh, common, side="right") - 1

    first1, first2 = ap[af].astype(np.int64), bp[bf].astype(np.int64)
    ok_first = np.abs((first2 - first1) - median) <= abs_max
    has_run = (al > af) | (bl > bf)
    last1, last2 = ap[al].astype(np.int64), bp[bl].astype(np.int64)

    # interleave per common value: first (if gated ok) then last (if run)
    n = len(common)
    take_first = ok_first
    take_last = has_run & ok_first  # runs only reached after a valid first
    pos1 = np.empty(2 * n, dtype=np.int64)
    pos2 = np.empty(2 * n, dtype=np.int64)
    keep = np.zeros(2 * n, dtype=bool)
    pos1[0::2], pos2[0::2], keep[0::2] = first1, first2, take_first
    pos1[1::2], pos2[1::2], keep[1::2] = last1, last2, take_last
    return pos1[keep], pos2[keep]


def _optimize_shifts(pos1, pos2, median):
    """optimizeShifts (BottomOverlapSketch.java:156-189): dedup consecutive
    equal pos1 keeping the shift closest to the median."""
    if len(pos1) == 0:
        return pos1, pos2
    shifts = pos2 - pos1
    dist = np.abs(shifts - median)
    # vectorized run-dedup: per run of consecutive equal pos1 keep the
    # FIRST index attaining the run-minimum distance (== the loop's
    # strict-less update rule)
    new_run = np.ones(len(pos1), dtype=bool)
    new_run[1:] = pos1[1:] != pos1[:-1]
    starts = np.flatnonzero(new_run)
    run_min = np.minimum.reduceat(dist, starts)
    run_id = np.cumsum(new_run) - 1
    cand = np.flatnonzero(dist == run_min[run_id])
    idx = cand[np.searchsorted(cand, starts)]
    return pos1[idx], pos2[idx]


def _unique_counts_sorted(x: np.ndarray):
    """np.unique(x, return_counts=True) for an already-sorted array —
    boundary flags instead of a re-sort."""
    if len(x) == 0:
        return x, np.empty(0, np.int64)
    flag = np.ones(len(x), dtype=bool)
    flag[1:] = x[1:] != x[:-1]
    idx = np.flatnonzero(flag)
    return x[idx], np.diff(np.append(idx, len(x)))


def _bottom_k_jaccard(h1, p1, h2, p2, a1, a2, b1, b2) -> float:
    """computeKBottomSketchJaccard (BottomOverlapSketch.java:304-364).

    Counts matches in a bounded merge of the two hash multisets
    restricted to the estimated overlap region, stopping after k union
    steps (k = min of the restricted sizes); matches consume first
    within an equal value.
    """
    s1 = (p1 >= a1) & (p1 <= a2)
    s2 = (p2 >= b1) & (p2 <= b2)
    x1 = h1[s1]  # h1/h2 are hash-ordered, masks preserve order
    x2 = h2[s2]
    k = min(len(x1), len(x2))
    if k == 0:
        return 0.0
    v1, c1 = _unique_counts_sorted(x1)
    v2, c2 = _unique_counts_sorted(x2)
    allv = np.union1d(v1, v2)
    cc1 = np.zeros(len(allv), dtype=np.int64)
    cc2 = np.zeros(len(allv), dtype=np.int64)
    cc1[np.searchsorted(allv, v1)] = c1
    cc2[np.searchsorted(allv, v2)] = c2
    union_per_v = np.maximum(cc1, cc2)
    inter_per_v = np.minimum(cc1, cc2)
    cum_union = np.cumsum(union_per_v)
    cut = int(np.searchsorted(cum_union, k))  # first idx with cum >= k
    inter = int(inter_per_v[:cut].sum())
    prev_union = int(cum_union[cut - 1]) if cut > 0 else 0
    remaining = k - prev_union
    if cut < len(allv) and remaining > 0:
        inter += min(remaining, int(inter_per_v[cut]))
    return inter / k


def jaccard_to_identity(score: float, kmer_size: int) -> float:
    """BottomOverlapSketch.jaccardToIdentity (:391-395)."""
    if score <= 0.0:
        return 0.0
    d = -1.0 / kmer_size * np.log(2.0 * score / (1.0 + score))
    return float(np.exp(-d))


def verify_pair(
    h1: np.ndarray, p1: np.ndarray, len1: int,
    h2: np.ndarray, p2: np.ndarray, len2: int,
    kmer_size: int, max_shift_pct: float,
) -> OverlapResult | None:
    """getOverlapInfo (BottomOverlapSketch.java:592-630): two merge
    passes (second in the refined window), shift dedup, UMVU edges,
    region-restricted bottom-k Jaccard -> identity score.

    ``len1``/``len2`` are kmer counts (seq chars - k + 1), matching the
    reference's seqLength field (BottomOverlapSketch.java:530)."""
    median, abs_max = _update_state(np.empty(0, np.int64), len1, len2, max_shift_pct)
    m1, m2 = _record_matching_kmers(h1, p1, h2, p2, median, abs_max, len1, len2)
    if len(m1) == 0:
        return None
    median, abs_max = _update_state(m2 - m1, len1, len2, max_shift_pct)
    m1, m2 = _record_matching_kmers(h1, p1, h2, p2, median, abs_max, len1, len2)
    if len(m1) == 0:
        return None
    # optimizeShifts uses the median of the *pass-2* matches (performUpdate
    # after the reset inside recordMatchingKmers)
    median2, _ = _update_state(m2 - m1, len1, len2, max_shift_pct)
    m1, m2 = _optimize_shifts(m1, m2, median2)
    if len(m1) == 0:
        return None

    # computeEdges (:90-137): recompute state post-dedup, gate, UMVU
    shifts = m2 - m1
    median, abs_max = _update_state(shifts, len1, len2, max_shift_pct)
    valid = np.abs(shifts - median) <= abs_max
    n = int(valid.sum())
    if n < 3:
        return None
    vp1, vp2 = m1[valid], m2[valid]
    le1, re1 = int(vp1.min()), int(vp1.max())
    le2, re2 = int(vp2.min()), int(vp2.max())
    def _jround(x: float) -> int:  # Java Math.round = floor(x + 0.5)
        return int(np.floor(x + 0.5))

    a1 = max(0, _jround((n * le1 - re1) / (n - 1)))
    a2 = min(len1, _jround((n * re1 - le1) / (n - 1)))
    b1 = max(0, _jround((n * le2 - re2) / (n - 1)))
    b2 = min(len2, _jround((n * re2 - le2) / (n - 1)))

    j = _bottom_k_jaccard(h1, p1, h2, p2, a1, a2, b1, b2)
    score = jaccard_to_identity(j, kmer_size)
    return OverlapResult(score, float(n), a1, a2, b1, b2)


# ---------------------------------------------------------------------------
# batched verify kernel: ALL pairs of a batch in one ragged-vectorized
# pass. Semantics identical to verify_pair (parity-tested); the win is
# that every step is a handful of global numpy calls instead of ~40
# small ones per pair (measured 474us/pair scalar -> ~25us/pair batch).
# The trick: lift each int32 hash into a u64 key (pair_id << 32) |
# order-mapped-u32(hash), so concatenated per-pair-sorted segments are
# GLOBALLY sorted and segmented intersections become single searchsorted
# calls that can never cross pair boundaries.
# ---------------------------------------------------------------------------


def _lift_keys(pair_of: np.ndarray, h: np.ndarray) -> np.ndarray:
    u = (h.astype(np.int32).view(np.uint32) ^ np.uint32(0x80000000))
    return (pair_of.astype(np.uint64) << np.uint64(32)) | u.astype(np.uint64)


def _intersect_batch(A, PA, B, PB, median, abs_max):
    """Segmented recordMatchingKmers over lifted key arrays: returns
    (mid, pos1, pos2) match triples in (pair, hash) order."""
    empty = (np.empty(0, np.int64),) * 3
    if len(A) == 0 or len(B) == 0:
        return empty
    fa = np.ones(len(A), dtype=bool)
    fa[1:] = A[1:] != A[:-1]
    ia = np.flatnonzero(fa)
    ua = A[ia]
    pos = np.minimum(np.searchsorted(B, ua), len(B) - 1)
    hit = B[pos] == ua
    common = ua[hit]
    if len(common) == 0:
        return empty
    # run boundaries replace 4 more full searchsorted passes: ia holds
    # every A-run start, pos already IS each hit's B-run start (left
    # insertion), and run ends come from the next start
    af = ia[hit]
    al = np.append(ia[1:], len(A))[hit] - 1
    bf = pos[hit]
    fb = np.ones(len(B), dtype=bool)
    fb[1:] = B[1:] != B[:-1]
    b_run_ord = np.cumsum(fb) - 1
    ib = np.flatnonzero(fb)
    b_run_end = np.append(ib[1:], len(B)) - 1
    bl = b_run_end[b_run_ord[bf]]
    cid = (common >> np.uint64(32)).astype(np.int64)
    first1, first2 = PA[af], PB[bf]
    ok_first = np.abs((first2 - first1) - median[cid]) <= abs_max[cid]
    has_run = (al > af) | (bl > bf)
    take_last = has_run & ok_first
    m = len(common)
    pos1 = np.empty(2 * m, np.int64)
    pos2 = np.empty(2 * m, np.int64)
    mid = np.empty(2 * m, np.int64)
    keep = np.zeros(2 * m, dtype=bool)
    pos1[0::2], pos2[0::2], mid[0::2], keep[0::2] = first1, first2, cid, ok_first
    pos1[1::2], pos2[1::2], mid[1::2], keep[1::2] = PA[al], PB[bl], cid, take_last
    return mid[keep], pos1[keep], pos2[keep]


def _update_state_batch(mid, shifts, len1, len2, max_shift_pct, n):
    """Per-pair MatchData.performUpdate: (median, abs_max, count)."""
    cnt = np.bincount(mid, minlength=n)
    median = np.zeros(n, np.int64)
    if len(mid):
        order = np.lexsort((shifts, mid))
        sh_s = shifts[order]
        starts = np.concatenate(([0], np.cumsum(cnt)[:-1]))
        has = cnt > 0
        median[has] = sh_s[(starts + cnt // 2)[has]]
    mx = np.maximum(len1, len2)
    left = np.maximum(0, -median)
    right = np.minimum(len1, len2 - median)
    overlap = np.maximum(10, right - left)
    abs_max = np.minimum(mx, (overlap * max_shift_pct).astype(np.int64))
    abs_max = np.where(cnt > 0, abs_max, mx + 1)
    median = np.where(cnt > 0, median, 0)
    return median, abs_max, cnt


def _jround_vec(x: np.ndarray) -> np.ndarray:
    return np.floor(x + 0.5).astype(np.int64)


def verify_pairs_batch(h1, p1, off1, len1, h2, p2, off2, len2,
                       kmer_size: int, max_shift_pct: float):
    """Batched getOverlapInfo over n pairs given CONCATENATED sketch
    arrays (``h``/``p`` int32, per-pair segments delimited by ``off``,
    each segment hash-sorted ascending like the bottom sketch).

    Returns (ok, score, raw_score, a1, a2, b1, b2) arrays of length n;
    rows with ok=False carry zeros. Bit-identical to looping
    :func:`verify_pair` (asserted in tests/test_verify_batch.py).
    """
    n = len(len1)
    len1 = np.asarray(len1, np.int64)
    len2 = np.asarray(len2, np.int64)
    seg1 = np.diff(off1).astype(np.int64)
    seg2 = np.diff(off2).astype(np.int64)
    pid1 = np.repeat(np.arange(n, dtype=np.int64), seg1)
    pid2 = np.repeat(np.arange(n, dtype=np.int64), seg2)
    A = _lift_keys(pid1, np.asarray(h1))
    B = _lift_keys(pid2, np.asarray(h2))
    P1 = np.asarray(p1).astype(np.int64, copy=False)
    P2 = np.asarray(p2).astype(np.int64, copy=False)

    zero = np.zeros(n, np.int64)
    ok0 = np.zeros(n, dtype=bool)
    empty_out = (ok0, np.zeros(n), np.zeros(n), zero, zero, zero, zero)

    # pass 1: median 0, abs_max max(len)+1 -> windows are all-pass
    med0 = np.zeros(n, np.int64)
    am0 = np.maximum(len1, len2) + 1
    mid, m1p, m2p = _intersect_batch(A, P1, B, P2, med0, am0)
    if len(mid) == 0:
        return empty_out
    median, abs_max, _ = _update_state_batch(
        mid, m2p - m1p, len1, len2, max_shift_pct, n)

    # pass 2: per-pair refined windows
    v1l = np.maximum(0, -median - abs_max)
    v1u = np.minimum(len1, len2 - median + abs_max)
    v2l = np.maximum(0, median - abs_max)
    v2u = np.minimum(len2, len1 + median + abs_max)
    k1 = (P1 >= v1l[pid1]) & (P1 < v1u[pid1])
    k2 = (P2 >= v2l[pid2]) & (P2 < v2u[pid2])
    mid, m1p, m2p = _intersect_batch(A[k1], P1[k1], B[k2], P2[k2],
                                     median, abs_max)
    if len(mid) == 0:
        return empty_out

    # optimizeShifts with the pass-2 median
    median2, _, _ = _update_state_batch(
        mid, m2p - m1p, len1, len2, max_shift_pct, n)
    dist = np.abs((m2p - m1p) - median2[mid])
    new_run = np.ones(len(mid), dtype=bool)
    new_run[1:] = (mid[1:] != mid[:-1]) | (m1p[1:] != m1p[:-1])
    starts = np.flatnonzero(new_run)
    run_min = np.minimum.reduceat(dist, starts)
    run_id = np.cumsum(new_run) - 1
    cand = np.flatnonzero(dist == run_min[run_id])
    idx = cand[np.searchsorted(cand, starts)]
    mid, m1p, m2p = mid[idx], m1p[idx], m2p[idx]

    # computeEdges: post-dedup state, validity gate, UMVU rectangle
    shifts = m2p - m1p
    median3, abs_max3, _ = _update_state_batch(
        mid, shifts, len1, len2, max_shift_pct, n)
    valid = np.abs(shifts - median3[mid]) <= abs_max3[mid]
    vm, v1m, v2m = mid[valid], m1p[valid], m2p[valid]
    nvalid = np.bincount(vm, minlength=n)
    ok = nvalid >= 3
    if not ok.any():
        return empty_out
    present = nvalid > 0
    seg_starts = np.concatenate(([0], np.cumsum(nvalid)[:-1]))[present]
    le1 = np.zeros(n, np.int64)
    re1 = np.zeros(n, np.int64)
    le2 = np.zeros(n, np.int64)
    re2 = np.zeros(n, np.int64)
    le1[present] = np.minimum.reduceat(v1m, seg_starts)
    re1[present] = np.maximum.reduceat(v1m, seg_starts)
    le2[present] = np.minimum.reduceat(v2m, seg_starts)
    re2[present] = np.maximum.reduceat(v2m, seg_starts)
    nv = np.where(ok, nvalid, 3).astype(np.float64)
    a1 = np.maximum(0, _jround_vec((nv * le1 - re1) / (nv - 1)))
    a2 = np.minimum(len1, _jround_vec((nv * re1 - le1) / (nv - 1)))
    b1 = np.maximum(0, _jround_vec((nv * le2 - re2) / (nv - 1)))
    b2 = np.minimum(len2, _jround_vec((nv * re2 - le2) / (nv - 1)))

    # computeKBottomSketchJaccard over the estimated regions
    s1 = (P1 >= a1[pid1]) & (P1 <= a2[pid1]) & ok[pid1]
    s2 = (P2 >= b1[pid2]) & (P2 <= b2[pid2]) & ok[pid2]
    x1 = A[s1]
    x2 = B[s2]
    kc1 = np.bincount(pid1[s1], minlength=n)
    kc2 = np.bincount(pid2[s2], minlength=n)
    kk = np.minimum(kc1, kc2)
    jac = np.zeros(n)
    if len(x1) and len(x2):
        f1 = np.ones(len(x1), dtype=bool)
        f1[1:] = x1[1:] != x1[:-1]
        i1 = np.flatnonzero(f1)
        v1vals = x1[i1]
        c1 = np.diff(np.append(i1, len(x1)))
        f2 = np.ones(len(x2), dtype=bool)
        f2[1:] = x2[1:] != x2[:-1]
        i2 = np.flatnonzero(f2)
        v2vals = x2[i2]
        c2 = np.diff(np.append(i2, len(x2)))
        sv = np.sort(np.concatenate([v1vals, v2vals]))
        fu = np.ones(len(sv), dtype=bool)
        fu[1:] = sv[1:] != sv[:-1]
        allv = sv[fu]
        cc1 = np.zeros(len(allv), np.int64)
        cc1[np.searchsorted(allv, v1vals)] = c1
        cc2 = np.zeros(len(allv), np.int64)
        cc2[np.searchsorted(allv, v2vals)] = c2
        union_v = np.maximum(cc1, cc2)
        inter_v = np.minimum(cc1, cc2)
        seg = (allv >> np.uint64(32)).astype(np.int64)
        gcum = np.cumsum(union_v)
        segf = np.ones(len(seg), dtype=bool)
        segf[1:] = seg[1:] != seg[:-1]
        sidx = np.flatnonzero(segf)
        base_vals = np.where(sidx > 0, gcum[np.maximum(sidx - 1, 0)], 0)
        base = np.repeat(base_vals, np.diff(np.append(sidx, len(seg))))
        cum_seg = gcum - base
        below = cum_seg < kk[seg]
        inter_below = np.bincount(seg, weights=inter_v * below,
                                  minlength=n).astype(np.int64)
        union_below = np.bincount(seg, weights=union_v * below,
                                  minlength=n).astype(np.int64)
        remaining = kk - union_below
        below_cnt = np.bincount(seg, weights=below, minlength=n).astype(np.int64)
        seg_len = np.bincount(seg, minlength=n)
        seg_start = np.full(n, -1, np.int64)
        seg_start[seg[sidx]] = sidx
        cut_idx = seg_start + below_cnt
        has_cut = (seg_start >= 0) & (below_cnt < seg_len) & (remaining > 0)
        add = np.zeros(n, np.int64)
        if has_cut.any():
            add[has_cut] = np.minimum(remaining[has_cut],
                                      inter_v[cut_idx[has_cut]])
        inter_total = inter_below + add
        kk_safe = np.maximum(kk, 1)
        jac = np.where(kk > 0, inter_total / kk_safe, 0.0)

    score = np.zeros(n)
    pos_j = ok & (jac > 0)
    if pos_j.any():
        jp = jac[pos_j]
        d = -1.0 / kmer_size * np.log(2.0 * jp / (1.0 + jp))
        score[pos_j] = np.exp(-d)
    raw = np.where(ok, nvalid, 0).astype(np.float64)
    z = ~ok
    for arr in (a1, a2, b1, b2):
        arr[z] = 0
    return ok, score, raw, a1, a2, b1, b2


# ---------------------------------------------------------------------------
# SimHash — sketch/SimHash.java:40-87
# ---------------------------------------------------------------------------


def simhash64(texts: list[str], k: int, seed: int = 0,
              chunk_shingles: int = 1 << 17) -> np.ndarray:
    """64-bit SimHash per text: per-bit majority vote over shingle
    hashes. The (shingles x 64) bit expansion runs in document-aligned
    CHUNKS of ~chunk_shingles so peak scratch stays ~32 MB — a single
    expansion over a large block allocates shingles x 64 x 4 bytes
    (>1 GB for a few thousand documents) and first-touch page faults
    dominate the kernel in fresh workers. The per-document segment sum
    is SWAR: the 0/1 bit matrix viewed as (rows, 8) uint64 words sums
    8 bit-counters per add with no carry across byte lanes as long as
    each subsegment is <=255 rows — 9x faster than a per-uint8-column
    np.add.reduceat and 35x faster than a full-prefix cumsum on the
    same data."""
    hashes, row_offsets = shingle_hashes64(texts, k, seed)
    n_rows = len(row_offsets) - 1
    out = np.zeros(n_rows, dtype=np.uint64)
    if len(hashes) == 0:
        return out.view(np.int64)
    counts = np.diff(row_offsets)
    lo = 0
    while lo < n_rows:
        hi = lo + 1
        tot = int(counts[lo])
        while hi < n_rows and tot + counts[hi] <= chunk_shingles:
            tot += int(counts[hi])
            hi += 1
        seg = hashes[row_offsets[lo]:row_offsets[hi]]
        c = counts[lo:hi]
        nz = c > 0
        if nz.any() and len(seg):
            starts = (row_offsets[lo:hi][nz] - row_offsets[lo])
            c_nz = c[nz]
            nsub = (c_nz + 254) // 255
            seg_first = np.cumsum(nsub) - nsub
            sub_starts = np.repeat(starts, nsub) + 255 * (
                np.arange(int(nsub.sum())) - np.repeat(seg_first, nsub))
            bits = np.unpackbits(seg[:, None].view(np.uint8), axis=1,
                                 bitorder="little")
            subs = np.add.reduceat(bits.view(np.uint64), sub_starts, axis=0)
            sub8 = subs.view(np.uint8).reshape(-1, 64).astype(np.int32)
            ones = np.add.reduceat(sub8, seg_first, axis=0)  # (nz, 64)
            # majority: sum(2b-1) > 0  <=>  2*ones > n  (exact integers)
            maj = (2 * ones.astype(np.int64) > c_nz[:, None]) \
                .astype(np.uint8)
            packed = np.packbits(maj, axis=1, bitorder="little") \
                .view(np.uint64).ravel()
            idx = np.arange(lo, hi)[nz]
            out[idx] = packed
        lo = hi
    return out.view(np.int64)


_POPCOUNT8 = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None],
                           axis=1).sum(axis=1).astype(np.int64)


def popcount64(x: np.ndarray) -> np.ndarray:
    """Per-element popcount of a uint64/int64 array of any shape (the
    byte-table idiom — faster than unpackbits and shared by every
    XOR-popcount kernel in this module)."""
    flat = np.ascontiguousarray(x).reshape(-1).view(np.uint64)
    if flat.size == 0:
        return np.zeros(x.shape, np.int64)
    return _POPCOUNT8[flat.view(np.uint8)].reshape(-1, 8).sum(axis=1) \
        .reshape(x.shape)


def _bit_jaccard(mismatch: np.ndarray, total_bits: int) -> np.ndarray:
    """max(0, (matching/total - 0.5) * 2) — MinHashBitSketch.jaccard
    (:83-90): the single reference-parity point for the bit-sketch
    Jaccard estimate."""
    sim = (total_bits - mismatch) / total_bits
    return np.maximum(0.0, (sim - 0.5) * 2.0)


def hamming64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """XOR-popcount Hamming distance (sketch/AbstractBitSketch.java:74-88)."""
    return popcount64(np.bitwise_xor(a.view(np.uint64), b.view(np.uint64)))


# ---------------------------------------------------------------------------
# MinHash bit-sketch (F5) — sketch/MinHashBitSketch.java:38-90
# ---------------------------------------------------------------------------


def minhash_bit_sketch(sig: np.ndarray) -> np.ndarray:
    """(N, H) int32 signatures -> (N, H//64) int64 words: the LAST BIT
    of each slot, packed 64/word with the first slot in the word's most
    significant bit (MinHashBitSketch.getAsBits, :38-66). A 64x smaller
    signature for cheap pre-filtering."""
    n, h = sig.shape
    words = h // 64
    bits = (sig[:, :words * 64] & 1).astype(np.uint64).reshape(n, words, 64)
    shifts = np.arange(63, -1, -1, dtype=np.uint64)
    return (bits << shifts).sum(axis=2, dtype=np.uint64).view(np.int64)


def bit_sketch_jaccard(wa: np.ndarray, wb: np.ndarray) -> np.ndarray:
    """Per-row jaccard estimate from (N, W) word matrices
    (MinHashBitSketch.jaccard, :82-90 + AbstractBitSketch
    getIntersectionCount :75-89)."""
    x = np.bitwise_xor(wa.view(np.uint64), wb.view(np.uint64))
    return _bit_jaccard(popcount64(x).sum(axis=1), wa.shape[1] * 64)


def phash_band_keys(phash: np.ndarray, n_bands: int, band_bits: int) -> np.ndarray:
    """(N, n_bands) int64 band keys: band id in the high bits, the band's
    bit-slice of the hash in the low bits (BitVectorIndex banding analog,
    sketch/BitVectorIndex.java:85-116 with contiguous bit blocks)."""
    u = phash.view(np.uint64)
    mask = np.uint64((1 << band_bits) - 1)
    out = np.empty((len(u), n_bands), dtype=np.uint64)
    for b in range(n_bands):
        sl = (u >> np.uint64(b * band_bits)) & mask
        out[:, b] = (np.uint64(b) << np.uint64(48)) | sl
    return out.view(np.int64)


def weighted_sample_keys(k: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Efraimidis–Spirakis A-ES sort keys: ln(u)/w with u a mixed
    integer-hash uniform of the row key — the TOP values win a
    weighted-without-replacement sample. Deterministic, and every step
    is expressible in ANSI SQL (the second multiplicand is masked to
    31 bits so BIGINT engines don't overflow), so a DuckDB oracle
    reproduces the selection bit-for-bit.

    PRECONDITION: keys must be NON-NEGATIVE. numpy's ``%`` is
    non-negative-result while DuckDB's follows the dividend sign
    (-5 % 2**32 = 4294967291 vs -5), so a negative id would silently
    diverge from every sampling oracle. All row ids in this engine are
    synthesized non-negative; assert rather than guess."""
    k = np.asarray(k, dtype=np.int64)
    if len(k) and k.min() < 0:
        raise ValueError("weighted_sample_keys requires non-negative keys "
                         "(numpy % and SQL % disagree on negatives)")
    # mask to 32 bits BEFORE the multiply: int64 wraps silently past
    # k ~= 3.5e9 (a BIGINT SQL engine errors instead), and distinct
    # ids congruent mod 2^32 must not share a key — fold the high
    # half in first
    k32 = (k % 4294967296) ^ (k >> 32)
    x = ((k32 % 4294967296) * 2654435761) % 4294967296
    x = ((x ^ (x >> 16)) % 2147483648) * 2654435761 % 4294967296
    x = x ^ (x >> 13)
    return np.log((x + 0.5) / 4294967296.0) / np.asarray(w, np.float64)


# ---------------------------------------------------------------------------
# MinHash bit sub-sketches — impl/MinHashBitSequenceSubSketches.java:74-100
# (computeSequencesDouble; the alignment-sketch path the reference keeps
# behind the disabled SequenceSketch.alignmentSketches field, :54)
# ---------------------------------------------------------------------------


def subsketch_window_bounds(lengths: np.ndarray, step: int, k: int
                            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-doc double-window bounds for the sub-sketch sequence.

    Mirrors computeSequencesDouble's count rule
    (MinHashBitSequenceSubSketches.java:76-82): with ``rem = len %
    step``, ``n = (len - rem) / step - 1`` windows, plus one more when
    ``rem >= step // 2 and rem >= k``. Window ``iter`` covers UTF-16
    units ``[max(0, end - 2*step), end)`` with ``end = min(len,
    iter*step + 2*step)`` (:88-91) — every window is ``2*step`` units
    (or the whole text when shorter), stepping by ``step``.

    Returns (win_offsets, cstart, end): doc i owns windows
    ``win_offsets[i]:win_offsets[i+1]``; cstart/end are PER-DOC-LOCAL
    unit bounds of each window.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    rem = lengths % step
    num = (lengths - rem) // step - 1
    num = num + ((rem >= step // 2) & (rem >= k))
    np.maximum(num, 0, out=num)
    win_offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(num, out=win_offsets[1:])
    doc, it = expand_spans(np.zeros_like(num), num)
    end = np.minimum(lengths[doc], it * step + 2 * step)
    cstart = np.maximum(0, end - 2 * step)
    return win_offsets, cstart, end


def bit_subsketches(texts, k: int = 7, step: int = 50,
                    num_words: int = 20
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-doc sequences of windowed MinHash bit-sketches.

    The text-domain analog of MinHashBitSequenceSubSketches
    (impl/MinHashBitSequenceSubSketches.java:74-100 + constants
    SequenceSketch.java:57-59: k=BIT_KMER_SIZE, step=SUBSEQUENCE_SIZE,
    num_words=BIT_SKETCH_SIZE): each double-window gets an UNWEIGHTED
    ``num_words*64``-hash MinHash over its k-shingles
    (MinHashSketch.java:208-211 constructor, weight 1, no freq filter)
    collapsed to the last-bit sketch (MinHashBitSketch.java:38-66).

    Returns (words, win_offsets, lengths, valid): ``words`` is
    (total_windows, num_words) int64 — doc i owns rows
    ``win_offsets[i]:win_offsets[i+1]`` — ``lengths`` is each doc's
    UTF-16 unit length, and ``valid`` flags windows long enough to
    shingle (callers drop docs with an invalid window; the reference
    throws ZeroNGramsFoundException instead).
    """
    units, offsets = _units_of(texts)
    lengths = np.diff(offsets)
    win_offsets, cstart, end = subsketch_window_bounds(lengths, step, k)
    n_win = int(win_offsets[-1])
    if n_win == 0:
        return (np.empty((0, num_words), np.int64), win_offsets, lengths,
                np.empty(0, bool))

    doc = np.repeat(np.arange(len(lengths)), np.diff(win_offsets))
    wlen = end - cstart
    w_off = np.zeros(n_win + 1, dtype=np.int64)
    np.cumsum(wlen, out=w_off[1:])
    # gather every window's unit run into one contiguous buffer
    base = offsets[:-1][doc] + cstart
    _, take = expand_spans(base, base + wlen)
    w_units = units[take]

    win, row_offsets = _window_matrix(w_units, w_off, k)
    hashes = murmur3_x64_128(win, 0)
    keys, counts, uoff = unique_in_first_occurrence_order(hashes, row_offsets)
    sig = weighted_minhash(keys, np.ones(len(keys), np.int64), uoff,
                           num_words * 64)
    words = minhash_bit_sketch(sig)
    # invalid rows already pack to all-zero words (int32.min has last
    # bit 0); the flag alone carries the information
    valid = sig[:, 0] != np.iinfo(np.int32).min
    return words, win_offsets, lengths, valid


def bit_words_jaccard_matrix(wa: np.ndarray, wb: np.ndarray) -> np.ndarray:
    """(na, nb) pairwise bit-sketch Jaccard estimates between two
    window-word matrices — the all-pairs form of
    :func:`bit_sketch_jaccard`; na*nb is window-count-squared per pair
    (tiny)."""
    x = wa.view(np.uint64)[:, None, :] ^ wb.view(np.uint64)[None, :, :]
    return _bit_jaccard(popcount64(x).sum(axis=2), wa.shape[1] * 64)
