"""Text-analysis operators for training-data pipelines: token/quality
stats, language ID, document fingerprinting.

These are engine-native additions beyond the reference's operator set
(the reference's only text transforms are uppercase + k-mer hashing,
impl/FastaData.java:194, sketch/HashUtils.java:213-258); they follow the
same batch-vectorized map_batches shape as the sketch stage.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# Tiny multi-language stopword profiles for the n-gram/stopword-hit
# language heuristic. Deterministic; extend per deployment.
_LANG_STOPWORDS = {
    "en": {"the", "a", "and", "of", "to", "in", "is", "that", "it", "for"},
    "de": {"der", "die", "das", "und", "ist", "ein", "eine", "zu", "mit"},
    "fr": {"le", "la", "les", "et", "est", "un", "une", "pour", "dans"},
    "es": {"el", "la", "los", "y", "es", "un", "una", "para", "en"},
}

_STOPWORDS_EN = ("the", "a")  # the SQL-oracle-matched subset

# whitespace + BPE-ish token pattern: words, numbers, or single
# punctuation marks (compiled once at import = once per worker process)
import re

_TOKEN_RE = re.compile(r"[A-Za-z]+|\d+|[^\sA-Za-z\d]")


def _texts(batch: pa.Table, text_col: str) -> list:
    """Text column as a Python list with nulls coalesced to "" — one
    null row must degrade like an empty doc, never AttributeError the
    whole map_batches task."""
    return [t if t is not None else ""
            for t in batch.column(text_col).to_pylist()]


def token_stats(batch: pa.Table, text_col: str = "text",
                id_col: str = "doc_id") -> pa.Table:
    """Whitespace token counts + quality ratios, SQL-matched definitions:
    n_tokens = len(split(text,' ')), n_chars = length(text),
    stop_ratio = round(#tokens in ('the','a') / n_tokens, 4).
    Fully Arrow-vectorized (ONE split; the stopword count reuses it via
    flatten + is_in + per-list reduceat); nulls degrade like empty."""
    col = pc.fill_null(batch.column(text_col), "")
    split = pc.split_pattern(col, " ")
    n_tokens = pc.list_value_length(split).cast(pa.int64())
    n_chars = pc.utf8_length(col).cast(pa.int64())
    lens = np.asarray(n_tokens)
    if batch.num_rows:
        stop_mask = pc.is_in(pc.list_flatten(split),
                             value_set=pa.array(list(_STOPWORDS_EN)))
        sm = np.asarray(stop_mask).astype(np.int64)
        # every row has >= 1 token ("" splits to [""]), so no
        # zero-length reduceat segments
        stops = np.add.reduceat(sm, np.cumsum(lens) - lens)
    else:
        stops = np.zeros(0, np.int64)
    nt = np.maximum(lens, 1)
    return pa.table({
        id_col: batch.column(id_col),
        "n_tokens": n_tokens,
        "n_chars": n_chars,
        "stop_ratio": pa.array(  # floor(x+.5): DuckDB ROUND semantics
            np.floor(stops / nt * 10000 + 0.5).astype(np.int64), pa.int64()),
    })


def bpe_token_count(batch: pa.Table, text_col: str = "text",
                    id_col: str = "doc_id") -> pa.Table:
    """Regex 'BPE-ish' token counting (words / numbers / punctuation)."""
    texts = _texts(batch, text_col)
    counts = np.fromiter((len(_TOKEN_RE.findall(t)) for t in texts),
                         np.int64, len(texts))
    return pa.table({
        id_col: batch.column(id_col),
        "n_bpe_tokens": pa.array(counts, pa.int64()),
    })


# EXPLICIT ASCII whitespace on both sides of the DuckDB oracles:
# Python's \s / str.split() match Unicode whitespace, RE2's \s is
# ASCII-only — pin the exact class so the hash compare cannot diverge
# on non-ASCII-whitespace corpora.
_WS = " \t\n\r\f\v"
_WS_SPLIT_RE = re.compile(f"[{_WS}]+")


def lang_id(batch: pa.Table, text_col: str = "text",
            id_col: str = "doc_id") -> pa.Table:
    """Stopword-profile language heuristic; 'und' (undetermined) when no
    profile scores. Deterministic tie-break by language code."""
    texts = _texts(batch, text_col)
    preds = []
    for t in texts:
        words = set(w for w in _WS_SPLIT_RE.split(t.lower()) if w)
        best_lang, best_score = "und", 0
        for lang in sorted(_LANG_STOPWORDS):
            score = len(words & _LANG_STOPWORDS[lang])
            if score > best_score:
                best_lang, best_score = lang, score
        preds.append(best_lang)
    return pa.table({
        id_col: batch.column(id_col),
        "lang_pred": pa.array(preds, pa.string()),
    })


_NON_ALPHA_RE = re.compile(f"[^A-Za-z{_WS}]")


def quality_score(batch: pa.Table, text_col: str = "text",
                  id_col: str = "doc_id") -> pa.Table:
    """Composite quality heuristics: length band, alpha-or-space ratio,
    mean word length band, repetition (distinct-token ratio).

    SQL-matched definitions (the DuckDB oracle mirrors each term):
    tokens = ASCII-whitespace split dropping empties; alpha =
    len(re.sub('[^A-Za-z<ws>]', '', t)) / len(t) with the explicit
    ASCII class _WS; outputs are per-10000 scaled ints (round half
    away from zero) so the value hash is engine-independent."""
    texts = batch.column(text_col).to_pylist()
    n = len(texts)
    quality = np.zeros(n)
    alpha_ratio = np.zeros(n)
    distinct_ratio = np.zeros(n)
    for i, t in enumerate(texts):
        if not t:
            continue
        toks = [w for w in _WS_SPLIT_RE.split(t) if w]
        alpha = len(_NON_ALPHA_RE.sub("", t)) / len(t)
        distinct = len(set(toks)) / len(toks) if toks else 0.0
        len_ok = 1.0 if 20 <= len(t) <= 10000 else 0.0
        wl = sum(len(w) for w in toks) / len(toks) if toks else 0.0
        wl_ok = 1.0 if 3 <= wl <= 12 else 0.0
        alpha_ratio[i] = alpha
        distinct_ratio[i] = distinct
        quality[i] = 0.25 * (len_ok + wl_ok + alpha + distinct)

    def scale(x: np.ndarray) -> pa.Array:
        return pa.array(
            (np.sign(x) * np.floor(np.abs(x) * 10000 + 0.5)).astype(np.int64),
            pa.int64())

    return pa.table({
        id_col: batch.column(id_col),
        "alpha_pm": scale(alpha_ratio),
        "distinct_pm": scale(distinct_ratio),
        "quality_pm": scale(quality),
    })


def repetition_stats(batch: pa.Table, text_col: str = "text",
                     id_col: str = "doc_id") -> pa.Table:
    """Gopher-style within-document repetition signals (Rae et al.
    2021 §A1.1 'repetition removal'), SQL-matched definitions:

    - n_words: non-empty ASCII-whitespace tokens
    - dup_word_pm: 1 - distinct_words/n_words (0 when no tokens)
    - top2_pm: occurrences of the most frequent word 2-gram / total
      2-gram occurrences (0 when < 2 tokens)
    - dup3_pm: fraction of 3-gram occurrences whose 3-gram occurs
      more than once in the doc (0 when < 3 tokens)

    All ratios scaled to int64 per-10000 (round half away from zero).
    Token/n-gram identity is 64-bit murmur (collision risk merges two
    n-grams — negligible, and only nudges ratios upward)."""
    from mhray.stages.decontam import _ngram_keys, _token_hash_stream

    texts = _texts(batch, text_col)
    nd = len(texts)
    th, lens = _token_hash_stream(texts)
    nw = lens.astype(np.int64)

    def _runs(keys: np.ndarray, didx: np.ndarray):
        """Sorted run lengths of equal (doc, key): (run_doc, run_len)."""
        order = np.lexsort((keys, didx))
        ks, ds_ = keys[order], didx[order]
        new = np.ones(len(ks), dtype=bool)
        if len(ks) > 1:
            new[1:] = (np.diff(ds_) != 0) | (np.diff(ks) != 0)
        starts = np.flatnonzero(new)
        return ds_[starts], np.diff(np.append(starts, len(ks)))

    dup_word = np.zeros(nd)
    if len(th):
        k1, d1 = _ngram_keys(th, lens, 1)
        rd, runs = _runs(k1, d1)
        distinct = np.bincount(rd, minlength=nd)
        dup_word = np.where(nw > 0, 1.0 - distinct / np.maximum(nw, 1), 0.0)

    top2 = np.zeros(nd)
    k2, d2 = _ngram_keys(th, lens, 2)
    if len(k2):
        rd, runs = _runs(k2, d2)
        mx = np.zeros(nd)
        np.maximum.at(mx, rd, runs)
        tot = np.bincount(d2, minlength=nd)
        top2 = np.where(tot > 0, mx / np.maximum(tot, 1), 0.0)

    dup3 = np.zeros(nd)
    k3, d3 = _ngram_keys(th, lens, 3)
    if len(k3):
        rd, runs = _runs(k3, d3)
        dup_occ = np.zeros(nd)
        rep = runs > 1
        np.add.at(dup_occ, rd[rep], runs[rep])
        tot = np.bincount(d3, minlength=nd)
        dup3 = np.where(tot > 0, dup_occ / np.maximum(tot, 1), 0.0)

    def scale(x: np.ndarray) -> pa.Array:
        return pa.array(np.floor(x * 10000 + 0.5).astype(np.int64),
                        pa.int64())

    return pa.table({
        id_col: batch.column(id_col).cast(pa.int64()),
        "n_words": pa.array(nw, pa.int64()),
        "dup_word_pm": scale(dup_word),
        "top2_pm": scale(top2),
        "dup3_pm": scale(dup3),
    })


def top_terms(ds, k: int = 3, text_col: str = "text",
              id_col: str = "doc_id", num_parts: int | None = None):
    """Top-k distinctive terms per document — tf-idf-style ranking with
    an INTEGER-EXACT order (tf desc, global df asc, token asc) so the
    result is engine-independent (no float idf ties). The df/idf table
    semantics mirror the reference's FrequencyCounts (A5,
    impl/FrequencyCounts.java) applied to word tokens.

    Two hash shuffles, no driver materialization: (doc, token, tf)
    rows partition by TOKEN to count df (each token lives in exactly
    one partition), then by DOC to rank. Token strings ride the
    shuffles (they are the output); counts are int64.
    Returns (id_col, token, rank) with rank 1..k.
    """
    from mhray.kernels import hash_strings64
    from mhray.rayutil import exchange, parts_for
    from mhray.stages.candidates import _part_of

    num_parts = parts_for(ds, num_parts)

    def doc_token_tf(batch: pa.Table) -> pa.Table:
        split = pc.split_pattern_regex(batch.column(text_col),
                                       f"[{_WS}]+")
        if isinstance(split, pa.ChunkedArray):
            split = split.combine_chunks()
        flat = split.flatten()
        offs = np.asarray(split.offsets, np.int64)
        parent = np.searchsorted(offs[1:], np.arange(len(flat)),
                                 side="right")
        keep = np.asarray(pc.utf8_length(flat)) > 0  # drop empties
        h = hash_strings64(flat)
        pk = np.flatnonzero(keep)
        # distinct (doc, token) with counts; representative index
        # recovers the token string zero-copy
        combo = np.stack([parent[pk], h[pk]], axis=1)
        uniq, idx, cnt = np.unique(combo, axis=0, return_index=True,
                                   return_counts=True)
        rep = pk[idx]
        ids = np.asarray(batch.column(id_col), np.int64)[uniq[:, 0]]
        tok = flat.take(pa.array(rep, pa.int64()))
        return pa.table({
            id_col: pa.array(ids, pa.int64()),
            "token": tok,
            "tf": pa.array(cnt.astype(np.int64), pa.int64()),
            # carry the already-computed token hash through the shuffle
            # so attach_df doesn't re-encode + re-murmur every string
            "th": pa.array(uniq[:, 1], pa.int64()),
            "tpart": pa.array(_part_of(uniq[:, 1], num_parts), pa.int32()),
        })

    def attach_df(part: pa.Table) -> pa.Table:
        if part.num_rows == 0:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "token": pa.array([], pa.string()),
                             "tf": pa.array([], pa.int64()),
                             "df": pa.array([], pa.int64()),
                             "dpart": pa.array([], pa.int32())})
        h = np.asarray(part.column("th"), dtype=np.int64)
        order = np.argsort(h, kind="stable")
        h_s = h[order]
        new = np.ones(len(h_s), dtype=bool)
        if len(h_s) > 1:
            new[1:] = np.diff(h_s) != 0
        starts = np.flatnonzero(new)
        sizes = np.diff(np.append(starts, len(h_s)))
        df = np.empty(len(h_s), np.int64)
        df[order] = np.repeat(sizes, sizes)
        ids = np.asarray(part.column(id_col), np.int64)
        return pa.table({
            id_col: part.column(id_col),
            "token": part.column("token"),
            "tf": part.column("tf"),
            "df": pa.array(df, pa.int64()),
            "dpart": pa.array(_part_of(ids, num_parts), pa.int32()),
        })

    def rank_docs(part: pa.Table) -> pa.Table:
        if part.num_rows == 0:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "token": pa.array([], pa.string()),
                             "rank": pa.array([], pa.int64())})
        # Arrow-native multi-key sort (strings stay in Arrow — no
        # object-dtype pandas round trip), then a run-length cumcount
        # over the sorted id column gives the per-doc rank.
        idx = pc.sort_indices(part, sort_keys=[
            (id_col, "ascending"), ("tf", "descending"),
            ("df", "ascending"), ("token", "ascending")])
        part = part.take(idx)
        ids = np.asarray(part.column(id_col), np.int64)
        new = np.ones(len(ids), dtype=bool)
        new[1:] = np.diff(ids) != 0
        starts = np.flatnonzero(new)
        sizes = np.diff(np.append(starts, len(ids)))
        rank = np.arange(len(ids), dtype=np.int64) - np.repeat(starts, sizes) + 1
        keep = pa.array(np.flatnonzero(rank <= k), pa.int64())
        out = part.take(keep)
        return pa.table({id_col: out.column(id_col),
                         "token": out.column("token"),
                         "rank": pa.array(rank[rank <= k], pa.int64())})

    scored = exchange(ds.map_batches(doc_token_tf, batch_format="pyarrow",
                                     zero_copy_batch=True),
                      "tpart", num_parts, attach_df)
    return exchange(scored, "dpart", num_parts, rank_docs)


def ngram_topk(ds, k: int = 20, n: int = 2, text_col: str = "text",
               num_parts: int | None = None):
    """Global top-k most frequent word n-grams — the corpus-statistics
    pass (boilerplate discovery, stopword mining). Aggregation is
    pushed below the shuffle: each batch emits PRE-COUNTED (ngram,
    partial) rows, one hash shuffle lands each distinct n-gram in
    exactly one partition, partitions emit their exact local top-k,
    and a final sort+limit runs over only k x num_parts rows. Returns
    (ngram, n) ordered (n desc, ngram asc) — deterministic ties.
    """
    from mhray.kernels import hash_strings64
    from mhray.rayutil import exchange, parts_for
    from mhray.stages.candidates import _part_of

    num_parts = parts_for(ds, num_parts)

    def partial_counts(batch: pa.Table) -> pa.Table:
        split = pc.split_pattern_regex(batch.column(text_col), f"[{_WS}]+")
        if isinstance(split, pa.ChunkedArray):
            split = split.combine_chunks()
        flat = split.flatten()
        offs = np.asarray(split.offsets, np.int64)
        parent = np.searchsorted(offs[1:], np.arange(len(flat)),
                                 side="right")
        keep = np.flatnonzero(np.asarray(pc.utf8_length(flat)) > 0)
        flat = flat.take(pa.array(keep, pa.int64()))
        parent = parent[keep]
        if len(flat) < n:
            return pa.table({"ngram": pa.array([], pa.string()),
                             "partial": pa.array([], pa.int64()),
                             "h": pa.array([], pa.int64()),
                             "tpart": pa.array([], pa.int32())})
        # n-gram start i is valid when tokens i..i+n-1 share a doc
        valid = parent[:len(parent) - n + 1] == parent[n - 1:]
        starts = np.flatnonzero(valid)
        parts = [flat.take(pa.array(starts + j, pa.int64()))
                 for j in range(n)]
        grams = parts[0]
        for p in parts[1:]:
            grams = pc.binary_join_element_wise(grams, p, " ")
        h = hash_strings64(grams)
        order = np.argsort(h, kind="stable")
        h_s = h[order]
        first = np.ones(len(h_s), dtype=bool)
        if len(h_s) > 1:
            first[1:] = np.diff(h_s) != 0
        starts_u = np.flatnonzero(first)
        cnt = np.diff(np.append(starts_u, len(h_s)))
        rep = order[starts_u]
        uniq = grams.take(pa.array(rep, pa.int64()))
        return pa.table({
            "ngram": uniq,
            "partial": pa.array(cnt.astype(np.int64), pa.int64()),
            # carry the 64-bit gram hash through the shuffle so
            # local_topk never re-encodes + re-murmurs every distinct
            # string (the 'th' pattern top_terms uses)
            "h": pa.array(h_s[starts_u].view(np.int64), pa.int64()),
            "tpart": pa.array(_part_of(h_s[starts_u], num_parts),
                              pa.int32()),
        })

    def local_topk(part: pa.Table) -> pa.Table:
        if part.num_rows == 0:
            return pa.table({"ngram": pa.array([], pa.string()),
                             "n": pa.array([], pa.int64())})
        h = np.asarray(part.column("h"), np.int64)
        p = np.asarray(part.column("partial"), np.int64)
        order = np.argsort(h, kind="stable")
        h_s = h[order]
        first = np.ones(len(h_s), dtype=bool)
        if len(h_s) > 1:
            first[1:] = np.diff(h_s) != 0
        starts = np.flatnonzero(first)
        tot = np.add.reduceat(p[order], starts) \
            if len(starts) else np.empty(0, np.int64)
        uniq = part.column("ngram").take(pa.array(order[starts], pa.int64()))
        # shrink to a candidate set BEFORE materializing any strings:
        # counts strictly above the k-th largest are in for sure; the
        # BOUNDARY count group is resolved lexically with an Arrow
        # sort over just that slice — never a fixed-width numpy
        # unicode matrix (on diverse text most grams tie at count 1,
        # so the boundary group can be the whole vocabulary)
        if len(tot) > k:
            import pyarrow.compute as pc

            kth = np.partition(tot, len(tot) - k)[len(tot) - k]
            above = np.flatnonzero(tot > kth)
            need = k - len(above)
            bound = np.flatnonzero(tot == kth)
            if len(bound) > need:
                b_arr = uniq.take(pa.array(bound, pa.int64()))
                sel = np.asarray(pc.sort_indices(b_arr))[:need]
                bound = bound[sel]
            cand = np.concatenate([above, bound])
        else:
            cand = np.arange(len(tot))
        grams = np.asarray(uniq.take(pa.array(cand, pa.int64()))
                           .to_pylist())  # <=k strings
        top = cand[np.lexsort((grams, -tot[cand]))[:k]]
        return pa.table({
            "ngram": uniq.take(pa.array(top, pa.int64())),
            "n": pa.array(tot[top], pa.int64()),
        })

    return exchange(ds.map_batches(partial_counts, batch_format="pyarrow",
                                   zero_copy_batch=True),
                    "tpart", num_parts, local_topk) \
        .sort(["n", "ngram"], descending=[True, False]).limit(k)


# PII-shaped substring patterns (RE2-compatible: no lookbehind).
# ORDER MATTERS: email before bare number runs so an address's digits
# are consumed as one email hit, not counted again as an id.
PII_PATTERNS = (
    ("email", r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"),
    ("ipv4", r"\b(?:\d{1,3}\.){3}\d{1,3}\b"),
    # a phone needs a + prefix, a parenthesized area code, space-
    # grouped digits, or dash groups whose MIDDLE run is >= 3 digits —
    # shapes ISO dates (2026-08-19) and dd-mm-yyyy (2-digit middles,
    # dash-only) can never take, so dates stop being redacted as
    # phones; a bare digit run is an id_number, not a phone
    ("phone", r"\+\d[\d\-\s()]{6,}\d"
              r"|\(\d{1,4}\)[\s\-]*\d{2,4}[\d\s\-()]*\d"
              r"|\d{1,4} \d{2,4} [\d\s]*\d"
              r"|\d{1,4}-\d{3,4}-\d{3,}"),
    ("id_number", r"\d{6,}"),
)


def scrub_pii(batch: pa.Table, text_col: str = "text",
              patterns=PII_PATTERNS) -> pa.Table:
    """Redact PII-shaped substrings (emails, IPs, phone-like digit
    runs, long id numbers) from a text column — the standard
    web-pipeline scrubbing pass before training-data release.

    Fully vectorized: one ``pc.count_substring_regex`` +
    ``pc.replace_substring_regex`` pair per pattern over the whole
    column (RE2; no per-row Python). Patterns apply in order to the
    PREVIOUS pattern's output, so earlier (more specific) patterns
    consume their text before broader ones can re-match it. Each match
    is replaced by ``[<NAME>]`` and counted in an ``n_<name>`` column;
    the scrubbed text lands in ``<text_col>_scrubbed``.
    """
    col = batch.column(text_col)
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    out = {n: batch.column(n) for n in batch.column_names}
    for name, pat in patterns:
        cnt = pc.count_substring_regex(col, pat)
        col = pc.replace_substring_regex(col, pat,
                                         f"[{name.upper()}]")
        out[f"n_{name}"] = cnt.cast(pa.int64())
    out[f"{text_col}_scrubbed"] = col
    return pa.table(out)


def json_extract_int(batch: pa.Table, col: str = "props", key: str = "k",
                     strict: bool = False) -> pa.Array:
    """Extract an integer field from a JSON-string column (the
    semi-structured-column shape of event logs: ``{"k": 87}``).

    Fast path: one vectorized Arrow regex (``pc.extract_regex``) over
    the whole column — zero Python per row. It matches the flat
    ``"key": <int>`` shape (any whitespace, key anywhere in the
    object); rows without the key extract as NULL, matching SQL
    ``json_extract`` semantics. ``strict=True`` instead runs a real
    ``json.loads`` per row for producers that emit nested objects
    where the same key could appear at depth, OR string values that
    embed the quoted ``"key": <int>`` pattern (e.g.
    ``{"note": "set \\"k\\": 3", "k": 7}`` — the fast path would
    return the 3 inside the string literal); parity of both paths on
    flat objects is pytest-checked.
    """
    column = batch.column(col)
    if strict:
        import json

        vals = [None] * len(column)
        for i, s in enumerate(column.to_pylist()):
            if s is None:
                continue
            try:
                v = json.loads(s).get(key)
            except (ValueError, AttributeError):
                continue
            if isinstance(v, bool) or not isinstance(v, int):
                continue
            vals[i] = v
        return pa.array(vals, pa.int64())
    import re as _re

    # the trailing [,}] terminator rejects float fields ("k": 1.5 must
    # NOT truncate-match as 1); RE2 has no lookahead, so anchor on the
    # JSON syntax instead
    pat = f'"{_re.escape(key)}"\\s*:\\s*(?P<v>-?\\d+)\\s*[,}}]'
    hit = pc.extract_regex(column, pat)
    out = pc.struct_field(hit, "v").cast(pa.int64())
    if isinstance(out, pa.ChunkedArray):
        out = out.combine_chunks()
    return out


def _trigram_keys_batch(texts: list[str]):
    """Vectorized char-trigram extraction for a whole batch: one
    utf-32 encode of the concatenated text, one shifted-OR key build
    (codepoint | c1<<21 | c2<<42 — exact and collision-free, every
    Unicode codepoint < 2^21), then a boundary mask so no trigram
    spans two documents. Returns (keys int64, doc_idx int64)."""
    lens = np.fromiter((len(t) for t in texts), np.int64, len(texts))
    buf = "".join(texts).encode("utf-32-le")
    a = np.frombuffer(buf, "<u4").astype(np.int64)
    n = len(a)
    if n < 3:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    keys = a[:-2] | (a[1:-1] << 21) | (a[2:] << 42)
    ends = np.cumsum(lens)
    valid = np.ones(n - 2, dtype=bool)
    for off in (1, 2):  # positions whose trigram crosses a doc end
        bad = ends - off
        bad = bad[(bad >= 0) & (bad < n - 2)]
        valid[bad] = False
    pos = np.flatnonzero(valid)
    doc_idx = np.searchsorted(ends, pos, side="right")
    return keys[pos], doc_idx


def trigram_lm_score(ds, text_col: str = "text", id_col: str = "doc_id",
                     top_k: int = 200_000, floor_count: float = 0.5,
                     num_parts: int | None = None):
    """Statistical-LM quality scoring (the batched model-inference
    operator shape): train a char-trigram multinomial on the corpus
    itself, then score every document by its mean trigram log-probability
    — gibberish and out-of-distribution text scores low, in-distribution
    text high. Two streaming passes:

    1. TRAIN: one partial-count pass (:func:`mhray.rayutil.top_counts`:
       per-batch trigram counts, one key-hash shuffle with a
       partition-local sum and top-k, no global sort) -> the
       TOP-``top_k`` trigrams by (count desc, key asc) and the corpus
       trigram total come to the driver and broadcast via ``ray.put`` —
       the model size is bounded by top_k, never by corpus vocabulary
       (same bounded-broadcast rule as the jaccard df cap). The
       truncated tail scores as unseen (``floor_count / total``), which
       only LOWERS scores of rare-trigram documents — exactly the
       filter's intent.
    2. SCORE: map pass, vectorized searchsorted lookup against the
       broadcast (keys, logp) arrays; per-doc mean via segment sums.

    Returns (id_col, n_trigrams, lm_logprob_pm) — mean log-prob scaled
    to per-mille int (round half away from zero), deterministic.
    """
    import ray

    from mhray.rayutil import parts_for, top_counts

    def trigrams(batch: pa.Table) -> pa.Table:
        keys, _ = _trigram_keys_batch(_texts(batch, text_col))
        return pa.table({"key": pa.array(keys, pa.int64())})

    mk, mc, total = top_counts(
        ds.map_batches(trigrams, batch_format="pyarrow",
                       zero_copy_batch=True),
        "key", top_k, parts_for(ds, num_parts))
    logp = np.log(np.maximum(mc, floor_count) / max(total, 1.0))
    model_ref = ray.put((mk, logp,
                         float(np.log(floor_count / max(total, 1.0)))))

    def score(batch: pa.Table) -> pa.Table:
        keys, doc_idx = _trigram_keys_batch(_texts(batch, text_col))
        n = batch.num_rows
        mkeys, mlogp, floor_lp = ray.get(model_ref)
        lp = np.full(len(keys), floor_lp)
        if len(mkeys) and len(keys):
            posn = np.minimum(np.searchsorted(mkeys, keys), len(mkeys) - 1)
            hit = mkeys[posn] == keys
            lp[hit] = mlogp[posn[hit]]
        sums = np.bincount(doc_idx, weights=lp, minlength=n)
        cnts = np.bincount(doc_idx, minlength=n).astype(np.int64)
        mean = np.where(cnts > 0, sums / np.maximum(cnts, 1), 0.0)
        pm = (np.sign(mean) * np.floor(np.abs(mean) * 1000 + 0.5)) \
            .astype(np.int64)
        return pa.table({
            id_col: batch.column(id_col),
            "n_trigrams": pa.array(cnts, pa.int64()),
            "lm_logprob_pm": pa.array(pm, pa.int64()),
        })

    return ds.map_batches(score, batch_format="pyarrow",
                          zero_copy_batch=True)


def winnow_fingerprints(batch: pa.Table, k: int = 8, window: int = 4,
                        text_col: str = "text",
                        id_col: str = "doc_id") -> pa.Table:
    """Winnowing document fingerprints (rolling k-gram hashes, min per
    window — the MOSS scheme): (doc_id, fingerprint) rows, deduped per
    doc. The distributed exact-substring pass groups on fingerprint."""
    from mhray.kernels import shingle_hashes64

    texts = _texts(batch, text_col)
    ids = np.asarray(batch.column(id_col))
    hashes, offs = shingle_hashes64(texts, k)
    out_ids, out_fps = [], []
    for i in range(len(texts)):
        seg = hashes[offs[i]: offs[i + 1]]
        if len(seg) == 0:
            continue
        if len(seg) <= window:
            mins = np.array([seg.argmin()])
        else:
            w = np.lib.stride_tricks.sliding_window_view(seg, window)
            mins = np.unique(w.argmin(axis=1) + np.arange(len(seg) - window + 1))
        sel = np.unique(seg[mins])
        out_ids.append(np.full(len(sel), ids[i]))
        out_fps.append(sel)
    if not out_ids:
        return pa.table({id_col: pa.array([], pa.int64()),
                         "fingerprint": pa.array([], pa.int64())})
    return pa.table({
        id_col: pa.array(np.concatenate(out_ids), pa.int64()),
        "fingerprint": pa.array(
            np.concatenate(out_fps).view(np.int64), pa.int64()),
    })


def compression_ratio(batch: pa.Table, text_col: str = "text",
                      id_col: str = "doc_id", level: int = 6) -> pa.Table:
    """Per-doc zlib compression ratio in basis points (compressed /
    raw UTF-8 bytes) — the classic "highly compressible = repetitive
    boilerplate, incompressible = binary junk" curation signal; both
    tails get filtered in production web pipelines. Deterministic
    (zlib level pinned); empty docs emit 0.
    """
    import zlib

    texts = _texts(batch, text_col)
    ratios = np.zeros(len(texts), np.int64)
    raw_bytes = np.zeros(len(texts), np.int64)
    for i, t in enumerate(texts):
        b = t.encode("utf-8")
        raw_bytes[i] = len(b)
        if b:
            # half-away-from-zero like every other scaled-int output
            # (Python round() is half-to-even and diverges from DuckDB
            # ROUND on exact .5 boundaries)
            ratios[i] = int(np.floor(
                len(zlib.compress(b, level)) * 10000 / len(b) + 0.5))
    return pa.table({
        id_col: batch.column(id_col),
        "raw_bytes": pa.array(raw_bytes, pa.int64()),
        "compress_bp": pa.array(ratios, pa.int64()),
    })
