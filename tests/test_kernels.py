"""Kernel unit tests: shingling, weighted MinHash (vs a naive
Java-faithful scalar reimplementation), bottom sketch, verify kernel."""

import numpy as np
import pytest

from mhray import kernels as K
from mhray.murmur import murmur3_x64_128_scalar, murmur3_x86_32_scalar

# ---------------------------------------------------------------------------
# naive scalar references (mirroring the Java line-by-line)
# ---------------------------------------------------------------------------

M64 = (1 << 64) - 1


def xorshift_scalar(x: int) -> int:
    # MinHashSketch.java:139-142 on Java signed longs == uint64 bit ops
    x ^= (x << 21) & M64
    x &= M64
    x ^= x >> 35
    x ^= (x << 4) & M64
    return x & M64


def to_signed(x: int) -> int:
    return x - (1 << 64) if x >= (1 << 63) else x


def naive_weighted_minhash(keys, weights, num_hashes):
    """Direct transcription of MinHashSketch.java:88-153."""
    best = [(1 << 63) - 1] * num_hashes
    hashes = [-(1 << 31)] * num_hashes
    any_valid = False
    for key, weight in zip(keys, weights):
        if weight <= 0:
            continue
        any_valid = True
        x = int(key)
        for word in range(num_hashes):
            for _ in range(weight):
                x = xorshift_scalar(x)
                if to_signed(x) < best[word]:
                    best[word] = to_signed(x)
                    if word % 2 == 0:
                        v = int(key) & 0xFFFFFFFF
                    else:
                        v = (int(key) >> 32) & 0xFFFFFFFF
                    hashes[word] = v - (1 << 32) if v >= (1 << 31) else v
    if not any_valid:
        return None
    return np.asarray(hashes, dtype=np.int32)


def naive_shingle_hashes64(text, k):
    return [
        murmur3_x64_128_scalar(text[i : i + k].encode("utf-16-le"))
        for i in range(len(text) - k + 1)
    ]


# ---------------------------------------------------------------------------
# shingling
# ---------------------------------------------------------------------------


def test_shingle_hashes64_matches_scalar():
    texts = ["hello world foo", "abcabcabc", "xy"]
    k = 4
    hashes, off = K.shingle_hashes64(texts, k)
    assert off.tolist() == [0, 12, 18, 18]  # "xy" shorter than k -> 0 windows
    for t_i, text in enumerate(texts[:2]):
        expect = naive_shingle_hashes64(text, k)
        got = hashes[off[t_i] : off[t_i + 1]]
        assert [int(g) for g in got] == expect


def test_shingle_hashes32_matches_scalar():
    texts = ["sphinx of black quartz"]
    k = 5
    hashes, off = K.shingle_hashes32(texts, k)
    expect = [
        murmur3_x86_32_scalar(texts[0][i : i + 5].encode("utf-16-le"))
        for i in range(len(texts[0]) - 4)
    ]
    assert hashes.tolist() == expect


def test_shingles_with_empty_rows_interleaved():
    # regression: zero-window rows between non-empty rows must not
    # corrupt window start offsets
    texts = ["abcdefgh", "x", "", "ijklmnopqr", "yz", "stuvwxyzab"]
    k = 4
    hashes, off = K.shingle_hashes64(texts, k)
    for i, t in enumerate(texts):
        got = hashes[off[i] : off[i + 1]]
        expect = naive_shingle_hashes64(t, k) if len(t) >= k else []
        assert [int(g) for g in got] == expect, (i, t)


def test_unique_first_occurrence_order():
    h = np.array([5, 3, 5, 7, 3, 3], dtype=np.uint64)
    off = np.array([0, 6])
    keys, counts, uoff = K.unique_in_first_occurrence_order(h, off)
    assert keys.tolist() == [5, 3, 7]
    assert counts.tolist() == [2, 3, 1]
    assert uoff.tolist() == [0, 3]


# ---------------------------------------------------------------------------
# weighted MinHash
# ---------------------------------------------------------------------------


def test_weighted_minhash_matches_naive():
    rng = np.random.default_rng(3)
    num_hashes = 16
    rows = []
    for _ in range(5):
        n = int(rng.integers(1, 12))
        keys = rng.integers(0, 1 << 63, size=n, dtype=np.uint64)
        weights = rng.integers(1, 4, size=n).astype(np.int64)
        rows.append((keys, weights))
    all_keys = np.concatenate([k for k, _ in rows])
    all_weights = np.concatenate([w for _, w in rows])
    offsets = np.cumsum([0] + [len(k) for k, _ in rows])
    sig = K.weighted_minhash(all_keys, all_weights, offsets, num_hashes)
    for i, (keys, weights) in enumerate(rows):
        expect = naive_weighted_minhash(keys.tolist(), weights.tolist(), num_hashes)
        np.testing.assert_array_equal(sig[i], expect)


def test_weighted_minhash_empty_row():
    sig = K.weighted_minhash(
        np.array([123], dtype=np.uint64),
        np.array([1]),
        np.array([0, 0, 1]),  # row 0 empty, row 1 has the kmer
        8,
    )
    assert (sig[0] == np.iinfo(np.int32).min).all()
    assert not (sig[1] == np.iinfo(np.int32).min).all()


def test_minhash_similar_strings_share_slots():
    a = "the quick brown fox jumps over the lazy dog and runs far away home"
    b = "the quick brown fox jumps over the lazy cat and runs far away home"
    c = "completely different text with nothing shared at all zzz qqq www yy"
    h, off = K.shingle_hashes64([a, b, c], 8)
    keys, counts, uoff = K.unique_in_first_occurrence_order(h, off)
    sig = K.weighted_minhash(keys, counts, uoff, 64)
    sim_ab = K.minhash_jaccard(sig[0], sig[1])
    sim_ac = K.minhash_jaccard(sig[0], sig[2])
    assert sim_ab > 0.5
    assert sim_ac < 0.1


# ---------------------------------------------------------------------------
# bottom sketch + verify kernel
# ---------------------------------------------------------------------------


def test_bottom_sketch_sorted_stable():
    h = np.array([5, -3, 5, 1, -3], dtype=np.int32)
    bs_h, bs_p = K.bottom_sketch(h, 4)
    assert bs_h.tolist() == [-3, -3, 1, 5]
    assert bs_p.tolist() == [1, 4, 3, 0]  # ties keep ascending position


def test_bottom_sketch_batch_pack_parity():
    """The batched lexsort kernel is bit-identical to the per-row
    argsort + pack path across edge shapes: empty segments, segments
    shorter than k, duplicate hash values (tie order), negative int32
    hashes, and a whole-batch empty tail."""
    rng = np.random.default_rng(7)
    seg_lens = [0, 1, 3, 17, 64, 200, 0, 5, 1000, 2]
    segs = []
    for ln in seg_lens:
        # narrow value range forces duplicate hashes (tie handling)
        segs.append(rng.integers(-50, 50, size=ln).astype(np.int32))
    h32 = np.concatenate(segs) if segs else np.empty(0, np.int32)
    off32 = np.concatenate([[0], np.cumsum(seg_lens)]).astype(np.int64)
    for k in (4, 64, 2000):
        batched = K.bottom_sketch_batch_pack(h32, off32, k)
        assert len(batched) == len(seg_lens)
        for i, seg in enumerate(segs):
            bh, bp = K.bottom_sketch(seg, k)
            expect = K.pack_bottom_sketch(bh, bp, len(seg))
            assert batched[i].as_py() == expect, (i, k)
    # unpack round-trip on the batched output
    bh, bp, L = K.unpack_bottom_sketch(
        K.bottom_sketch_batch_pack(h32, off32, 8)[3].as_py())
    eh, ep = K.bottom_sketch(segs[3], 8)
    assert bh.tolist() == eh.tolist()
    assert bp.tolist() == ep.tolist()
    assert L == len(segs[3])


def test_bottom_sketch_batch_pack_empty_batch():
    out = K.bottom_sketch_batch_pack(
        np.empty(0, np.int32), np.zeros(1, np.int64), 16)
    assert len(out) == 0


def test_bottom_sketch_batch_pack_long_segment_fallback():
    """A segment longer than 2^16 shingles takes the stable-sort
    fallback (position no longer fits the packed key) — parity must
    hold there too."""
    rng = np.random.default_rng(3)
    seg_lens = [70_000, 10]
    segs = [rng.integers(-9, 9, size=ln).astype(np.int32)
            for ln in seg_lens]  # heavy ties stress the stability
    h32 = np.concatenate(segs)
    off32 = np.concatenate([[0], np.cumsum(seg_lens)]).astype(np.int64)
    batched = K.bottom_sketch_batch_pack(h32, off32, 32)
    for i, seg in enumerate(segs):
        bh, bp = K.bottom_sketch(seg, 32)
        assert batched[i].as_py() == K.pack_bottom_sketch(bh, bp, len(seg))


def _sketch(text, k=6, size=64):
    h, off = K.shingle_hashes32([text], k)
    bs_h, bs_p = K.bottom_sketch(h, size)
    return bs_h, bs_p, len(h)


def test_verify_identical_strings():
    t = "the quick brown fox jumps over the lazy dog near the river bank"
    h, p, L = _sketch(t)
    res = K.verify_pair(h, p, L, h, p, L, 6, 0.2)
    assert res is not None
    assert res.score > 0.99
    assert res.a1 == 0 and res.b1 == 0


def test_verify_disjoint_strings():
    h1, p1, L1 = _sketch("aaaa bbbb cccc dddd eeee ffff gggg hhhh iiii jjjj")
    h2, p2, L2 = _sketch("zzzz yyyy xxxx wwww vvvv uuuu tttt ssss rrrr qqqq")
    res = K.verify_pair(h1, p1, L1, h2, p2, L2, 6, 0.2)
    assert res is None or res.score < 0.3


def test_verify_edited_string_scores_between():
    a = "the quick brown fox jumps over the lazy dog near the river bank today"
    b = "the quick brown fax jumps over the lazy dog near the rivzr bank today"
    h1, p1, L1 = _sketch(a)
    h2, p2, L2 = _sketch(b)
    res = K.verify_pair(h1, p1, L1, h2, p2, L2, 6, 0.2)
    assert res is not None
    assert 0.5 < res.score < 1.0


def test_verify_shifted_overlap():
    core = "shared middle segment that both strings contain verbatim okay"
    a = "prefix text one two three " + core
    b = core + " suffix junk four five six"
    h1, p1, L1 = _sketch(a, size=256)
    h2, p2, L2 = _sketch(b, size=256)
    res = K.verify_pair(h1, p1, L1, h2, p2, L2, 6, 0.5)
    assert res is not None
    # overlap region should sit at the end of a and the start of b
    assert res.a1 > 10
    assert res.b1 < 10


def test_jaccard_to_identity():
    assert K.jaccard_to_identity(1.0, 12) == pytest.approx(1.0)
    assert K.jaccard_to_identity(0.0, 12) == 0.0
    # threshold 0.78 at k=12 corresponds to j ~ 0.026
    assert K.jaccard_to_identity(0.026, 12) == pytest.approx(0.78, abs=0.01)


def test_simhash_similarity():
    a = "the quick brown fox jumps over the lazy dog and runs far away home"
    b = "the quick brown fox jumps over the lazy cat and runs far away home"
    c = "completely different text with nothing shared at all zzz qqq www yy"
    sh = K.simhash64([a, b, c], 6)
    d_ab = K.hamming64(sh[:1], sh[1:2])[0]
    d_ac = K.hamming64(sh[:1], sh[2:3])[0]
    assert d_ab < d_ac


def test_phash_band_keys_shape():
    ph = np.array([0x1234567890ABCDEF, -1], dtype=np.int64)
    bands = K.phash_band_keys(ph, 4, 16)
    assert bands.shape == (2, 4)
    # identical hashes share all 4 band keys
    bands2 = K.phash_band_keys(ph.copy(), 4, 16)
    np.testing.assert_array_equal(bands, bands2)


def test_rare_prefix_select_matches_per_doc_loop():
    """Parity: the segmented (doc, df, token) lexsort prefix-take must
    reproduce the original per-document loop (rare-first order, token
    tie-break, prefix length |s| - ceil(tau*|s|) + 1) exactly —
    including empty docs, all-tie dfs, and an empty frequency map."""
    import math

    from mhray.stages.dedup import _rare_prefix_select

    rng = np.random.default_rng(42)
    for trial in range(30):
        n_docs = int(rng.integers(1, 12))
        counts = rng.integers(0, 9, n_docs)
        if trial % 5 == 0:
            counts[rng.integers(0, n_docs)] = 0  # force empty docs
        toks = [np.unique(rng.integers(-50, 50, c).astype(np.int64))
                for c in counts]
        counts = np.array([len(t) for t in toks], np.int64)
        offs = np.zeros(n_docs + 1, np.int64)
        np.cumsum(counts, out=offs[1:])
        th = (np.concatenate(toks) if counts.sum()
              else np.empty(0, np.int64))
        if trial % 3 == 0:
            keys_sorted = np.empty(0, np.int64)
            vals = np.empty(0, np.int64)
        else:
            keys_sorted = np.unique(rng.integers(-50, 50, 30))
            vals = rng.integers(1, 6, len(keys_sorted)).astype(np.int64)
        tau = float(rng.choice([0.3, 0.6, 0.8, 1.0]))

        # original per-doc loop (pre-vectorization implementation)
        exp_tok, exp_doc = [], []
        for i in range(n_docs):
            t = th[offs[i]:offs[i + 1]]
            s = len(t)
            if s == 0:
                continue
            p = s - math.ceil(tau * s) + 1
            if len(keys_sorted):
                pos = np.minimum(np.searchsorted(keys_sorted, t),
                                 len(keys_sorted) - 1)
                df = np.where(keys_sorted[pos] == t, vals[pos], 1)
            else:
                df = np.ones(s, np.int64)
            sel = t[np.lexsort((t, df))][:p]
            exp_tok.append(sel)
            exp_doc.append(np.full(len(sel), i))
        exp_tok = (np.concatenate(exp_tok) if exp_tok
                   else np.empty(0, np.int64))
        exp_doc = (np.concatenate(exp_doc) if exp_doc
                   else np.empty(0, np.int64))

        got_tok, got_doc = _rare_prefix_select(
            th, offs, tau, keys_sorted, vals)
        np.testing.assert_array_equal(got_tok, exp_tok)
        np.testing.assert_array_equal(got_doc, exp_doc)


def test_winnow_select_matches_per_doc_loop():
    """Parity: the batch-level sliding-minima + reduceat + lexsort
    winnowing must reproduce the original per-document loop (whole-
    segment min for short docs, unique sliding-window minima for long
    ones, uint64 ordering) exactly — including empty docs and window
    sizes at both edges."""
    from mhray.stages.substring import _winnow_select

    rng = np.random.default_rng(7)
    for trial in range(40):
        n_docs = int(rng.integers(1, 10))
        counts = rng.integers(0, 25, n_docs)
        if trial % 4 == 0:
            counts[rng.integers(0, n_docs)] = 0
        window = int(rng.integers(1, 10))
        segs = [rng.integers(0, 2**64, c, dtype=np.uint64)
                for c in counts]
        offs = np.zeros(n_docs + 1, np.int64)
        np.cumsum(counts, out=offs[1:])
        flat = (np.concatenate(segs) if counts.sum()
                else np.empty(0, np.uint64))

        exp_val, exp_doc = [], []
        for i, seg in enumerate(segs):
            if len(seg) == 0:
                continue
            if len(seg) <= window:
                sel = np.array([seg.min()], np.uint64)
            else:
                w = np.lib.stride_tricks.sliding_window_view(seg, window)
                sel = np.unique(w.min(axis=1))
            exp_val.append(sel)
            exp_doc.append(np.full(len(sel), i))
        exp_val = (np.concatenate(exp_val) if exp_val
                   else np.empty(0, np.uint64))
        exp_doc = (np.concatenate(exp_doc) if exp_doc
                   else np.empty(0, np.int64))

        got_val, got_doc = _winnow_select(flat, offs, window)
        np.testing.assert_array_equal(got_val, exp_val)
        np.testing.assert_array_equal(got_doc, exp_doc)


def test_binary_flat_view_layouts():
    """The shared zero-copy blob view must agree with a per-row
    frombuffer loop across item widths, empty blobs, empty columns,
    sliced (offset) columns, and chunked columns."""
    import pyarrow as pa

    from mhray.rayutil import binary_flat_view

    rng = np.random.default_rng(7)
    for item_bytes, dtype in [(8, "<u8"), (16, "<i8")]:
        per = item_bytes // 8
        blobs = [rng.integers(0, 2**62, size=int(n) * per)
                 .astype("<i8").tobytes()
                 for n in rng.integers(0, 6, 20)]
        variants = {
            "plain": pa.array(blobs, pa.binary()),
            "sliced": pa.array([b"\x00" * item_bytes] + blobs,
                               pa.binary()).slice(1, len(blobs)),
            "chunked": pa.chunked_array(
                [pa.array(blobs[:7], pa.binary()),
                 pa.array(blobs[7:], pa.binary())]),
            "empty": pa.array([], pa.binary()),
        }
        for name, col in variants.items():
            rows = (blobs if name in ("plain", "sliced", "chunked")
                    else [])
            exp = [np.frombuffer(b, dtype=dtype) for b in rows]
            flat, offs = binary_flat_view(col, item_bytes, dtype)
            lens = np.diff(offs)
            assert offs[0] == 0 and len(offs) == len(rows) + 1, name
            scale = item_bytes // np.dtype(dtype).itemsize
            for i, e in enumerate(exp):
                got = flat[offs[i] * scale:offs[i + 1] * scale]
                np.testing.assert_array_equal(got, e, err_msg=name)
                assert lens[i] == len(e) // scale, name


def test_binary_flat_view_large_binary_and_type_guard():
    """large_binary (int64 offsets) must parse identically to binary,
    and a non-binary column must raise TypeError instead of reading
    garbage offsets (ADVICE r4, rayutil.py:23)."""
    import pyarrow as pa
    import pytest

    from mhray.rayutil import binary_flat_view

    blobs = [np.arange(i, dtype="<u8").tobytes() for i in range(5)]
    small = pa.array(blobs, pa.binary())
    large = pa.array(blobs, pa.large_binary())
    fs, os_ = binary_flat_view(small, 8, "<u8")
    fl, ol = binary_flat_view(large, 8, "<u8")
    np.testing.assert_array_equal(fs, fl)
    np.testing.assert_array_equal(os_, ol)

    with pytest.raises(TypeError):
        binary_flat_view(pa.array([[1, 2]], pa.list_(pa.int64())), 8, "<u8")
    with pytest.raises(TypeError):
        binary_flat_view(pa.array(["ab"], pa.string()), 8, "<u8")
