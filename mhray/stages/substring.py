"""Exact long-substring duplicate pass (the north-star suffix-array
axis): find pairs of texts sharing an exact substring of >= L chars
that MinHash can miss (short texts with one long verbatim quote).
This is mhray's one exact-substring engine; the flagship's
``substr_pass`` and both catalog keys (``d_substring_pairs``,
``d_suffix_pairs``) run it.

Ray-Data-first formulation, filter then verify: winnowed L-gram
fingerprints (map_batches) -> fingerprint groupby -> candidate pairs
-> exact verify. Winnowing guarantee: any common substring of length
>= gram + window - 1 shares at least one selected fingerprint, so
candidates are complete for the guarantee length; the verify step
then computes the true longest common substring per pair (no false
positives).

The per-pair verify is a hash-indexed longest-common-substring search
(binary search over length with rolling window hashes, every hash hit
confirmed on the code units), which answers the same question a
generalized suffix array over the pair would.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from mhray.rayutil import exchange, parts_for
from mhray.stages.candidates import _part_of, make_emit_pairs


_FNV = np.uint64(1099511628211)
_FNV_INV = np.uint64(pow(1099511628211, -1, 2 ** 64))  # odd base -> invertible mod 2^64


def _hash_prep(u: np.ndarray):
    """Per-string one-time state for O(1)-per-window rolling hashes:
    (prefix, invpow) where prefix[i] = sum_{j<=i} u[j]*base^j (mod 2^64)
    and invpow[i] = base^-i. Every probe length then reads all window
    hashes in O(n) — the old path rebuilt an L-sized power vector and
    did an O(L) dot per window on EVERY binary-search probe."""
    n = len(u)
    powers = np.multiply.accumulate(
        np.concatenate(([np.uint64(1)], np.full(n - 1, _FNV, np.uint64))))
    invpow = np.multiply.accumulate(
        np.concatenate(([np.uint64(1)], np.full(n - 1, _FNV_INV, np.uint64))))
    with np.errstate(over="ignore"):
        prefix = np.cumsum(u.astype(np.uint64) * powers)
    return prefix, invpow


def _window_hashes(prefix: np.ndarray, invpow: np.ndarray, L: int) -> np.ndarray:
    """hash[i] = sum_j u[i+j]*base^j for every window of length L."""
    n = len(prefix)
    ph = np.concatenate(([np.uint64(0)], prefix[:n - L]))
    with np.errstate(over="ignore"):
        return (prefix[L - 1:] - ph) * invpow[:n - L + 1]


def longest_common_substring_len(a: str, b: str, at_least: int = 0) -> int:
    """Length of the longest common substring — measured in UTF-16
    code units, the same coordinate space the window hashes (and the
    fingerprint grams) live in; equal to characters for BMP text —
    via binary search over candidate lengths with rolling window-hash
    sets (O((n+m) log min(n,m)) total; each probe is O(n+m)).

    With ``at_least`` > 0, first runs ONE probe at that length and
    returns 0 immediately when no common substring reaches it — the
    fast path for gate-style callers (most candidates fail)."""
    from mhray.kernels import encode_utf16_batch

    if not a or not b:
        return 0
    units_a, _ = encode_utf16_batch([a])
    units_b, _ = encode_utf16_batch([b])
    pa_, ia_ = _hash_prep(units_a)
    pb_, ib_ = _hash_prep(units_b)

    def has_common(L: int) -> bool:
        if L > len(units_a) or L > len(units_b):
            return False
        ha = _window_hashes(pa_, ia_, L)
        hb = _window_hashes(pb_, ib_, L)
        # hash windows then confirm a real match (collision-proof).
        # Confirm on the UNIT arrays: slicing the Python string here
        # would mix code-point indices into unit offsets and silently
        # drop matches around any astral (non-BMP) character
        common, ia, ib = np.intersect1d(ha, hb, return_indices=True)
        for x, y in zip(ia, ib):
            if np.array_equal(units_a[x: x + L], units_b[y: y + L]):
                return True
        return False

    lo, hi = 0, min(len(units_a), len(units_b))
    if at_least > 0:
        if not has_common(at_least):
            return 0
        lo = at_least
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if has_common(mid):
            lo = mid
        else:
            hi = mid - 1
    return lo


def _winnow_select(hashes: np.ndarray, offs: np.ndarray, window: int):
    """Ragged winnowing across a batch, fully vectorized: ONE
    sliding-window-minima pass over the concatenated shingle run
    (windows that would cross a document boundary are dropped by the
    start-position mask), one ``np.minimum.reduceat`` for documents
    shorter than the window, then a (doc, value) lexsort + adjacent
    dedupe for the per-document ``np.unique``. Minima are taken in the
    raw hash dtype (uint64 order — the int64 reinterpretation happens
    in the caller, as before). Returns (selected hashes, doc ordinals),
    docs ascending with values sorted (uint64 order) within each doc —
    exactly the order the per-document loop emitted."""
    counts = np.diff(offs)
    if len(hashes) == 0 or not (counts > 0).any():
        return hashes[:0], np.empty(0, np.int64)
    n_docs = len(counts)
    val_out, doc_out = [], []
    big = counts > window
    if big.any():
        sw = np.lib.stride_tricks.sliding_window_view(
            hashes, window).min(axis=1)
        m = counts[big] - window + 1
        ends = np.cumsum(m)
        intra = np.arange(ends[-1]) - np.repeat(ends - m, m)
        val_out.append(sw[np.repeat(offs[:-1][big], m) + intra])
        doc_out.append(np.repeat(np.flatnonzero(big), m))
    nz = counts > 0
    small = nz & ~big
    if small.any():
        # empty docs contribute no elements, so reduceat over the
        # non-empty starts spans exactly each doc's own segment
        mins = np.minimum.reduceat(hashes, offs[:-1][nz])
        val_out.append(mins[small[nz]])
        doc_out.append(np.flatnonzero(small))
    vals = np.concatenate(val_out)
    docs = np.concatenate(doc_out)
    order = np.lexsort((vals, docs))
    vals, docs = vals[order], docs[order]
    keep = np.ones(len(vals), bool)
    keep[1:] = (docs[1:] != docs[:-1]) | (vals[1:] != vals[:-1])
    return vals[keep], docs[keep]


def substring_pairs(ds, min_len: int = 32, window: int = 8,
                    text_col: str = "text", id_col: str = "doc_id",
                    num_parts: int | None = None, group_cap: int = 2000):
    """(lo, hi, lcs_len) pairs whose longest common substring is
    >= min_len. Guarantee length = gram + window - 1 = min_len, so
    gram = min_len - window + 1."""
    from mhray.kernels import shingle_hashes64

    num_parts = parts_for(ds, num_parts)
    if min_len < 4:
        raise ValueError("substring_pairs needs min_len >= 4 "
                         "(the minimum fingerprint gram)")
    # keep the completeness guarantee EXACT: gram + window - 1 must
    # equal min_len, so short min_len shrinks the winnowing window
    # instead of silently raising the guarantee above min_len
    window = min(window, min_len - 3)
    gram = max(4, min_len - window + 1)

    # normalize the text column name BEFORE materializing: the
    # broadcast byte cap in attach_payload only reads size_bytes() off
    # a MaterializedDataset, so a lazy rename here would silently
    # bypass it for non-default text_col callers
    texts_ds = ds.select_columns([id_col, text_col])
    if text_col != "text":
        texts_ds = texts_ds.rename_columns({text_col: "text"})
    texts_ds = texts_ds.materialize()

    def fingerprint(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        ids = np.asarray(batch.column(id_col), dtype=np.int64)
        hashes, offs = shingle_hashes64(texts, gram)
        sel, doc_sel = _winnow_select(hashes, offs, window)
        key = sel.view(np.int64)
        return pa.table({
            "part": pa.array(_part_of(key, num_parts), pa.int32()),
            "key": pa.array(key, pa.int64()),
            "iid": pa.array(ids[doc_sel], pa.int64()),
        })

    cands = exchange(texts_ds.map_batches(fingerprint, batch_format="pyarrow",
                                          zero_copy_batch=True),
                     "part", num_parts, make_emit_pairs(group_cap)) \
        .groupby(["lo", "hi"]).count()

    from mhray.rayutil import attach_payload_both

    # attach both texts with the threshold-guarded payload join
    # (broadcast below the row/byte caps — ONE side fetch + ONE
    # object-store copy for both lookups — tagged-union shuffle
    # above) — measured ~2x faster than two join-operator actor pools
    # on a small post-gate pair table, same J2 idiom as the sketch
    # fetch
    j = attach_payload_both(
        cands, texts_ds, id_col, ("text",), num_parts=num_parts,
        pairs_schema=pa.schema([("lo", pa.int64()), ("hi", pa.int64()),
                                ("count()", pa.int64())]),
        side_schema=pa.schema([(id_col, pa.int64()),
                               ("text", pa.string())]))

    def verify(batch: pa.Table) -> pa.Table:
        ta = batch.column("text_lo").to_pylist()
        tb = batch.column("text_hi").to_pylist()
        n = batch.num_rows
        lcs = np.zeros(n, dtype=np.int64)
        for i in range(n):
            lcs[i] = longest_common_substring_len(ta[i], tb[i],
                                                  at_least=min_len)
        keep = pa.array(lcs >= min_len)
        return pa.table({
            "lo": batch.column("lo").filter(keep),
            "hi": batch.column("hi").filter(keep),
            "lcs_len": pa.array(lcs[np.asarray(keep)], pa.int64()),
        })

    return j.map_batches(verify, batch_format="pyarrow", zero_copy_batch=True)
