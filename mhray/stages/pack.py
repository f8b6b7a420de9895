"""Sequence packing: assign documents to fixed token-budget training
sequences (the example-packing step in front of LLM training, cf. the
T5/GPT packed-batch data layout).

Engine-native addition beyond the reference's operator set. Packing is
inherently sequential, so the distributed contract is the standard one:
each hash partition packs ITS OWN docs independently (deterministic —
partition membership is a pure hash of the id, in-partition order is
id-ascending), and sequence ids are namespaced by partition
(``part << 40 | local_seq``). A doc longer than the budget occupies a
sequence alone, truncated to the budget (``truncated=1``); packing must
never silently drop rows.

The per-partition kernel is NEXT-FIT in id order: close the current
sequence when the next doc does not fit. Cost is one ``searchsorted``
per OUTPUT SEQUENCE (not per doc) against the token-count cumsum, so
the Python loop runs sequences-not-rows times (budget >> median doc
length in practice).

Zero-token docs occupy no space, so next-fit leaves them in whatever
sequence is open: one may share an oversized doc's sequence, and one
arriving while a sequence is exactly full is recorded at
``offset == budget`` (an empty slice — no token position is ever
out of range). The SQL oracle computes the identical cumsum
placements, so the two stay in lockstep on these edges. Duplicate
doc_ids order by (id, n_tokens) — identical pairs are interchangeable
— keeping the layout deterministic across block arrival orders.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def pack_next_fit(tokens: np.ndarray, budget: int):
    """(seq_idx, offset, truncated) per doc for next-fit packing of
    ``tokens`` (processed in the given order) into ``budget``-sized
    sequences. Oversized docs are alone in their sequence, truncated."""
    n = len(tokens)
    seq = np.empty(n, np.int64)
    off = np.empty(n, np.int64)
    trunc = tokens > budget
    eff = np.minimum(tokens, budget)
    cs = np.zeros(n + 1, np.int64)
    np.cumsum(eff, out=cs[1:])
    i, s = 0, 0
    while i < n:
        j = int(np.searchsorted(cs, cs[i] + budget, side="right")) - 1
        j = max(j, i + 1)  # always place at least one doc
        seq[i:j] = s
        off[i:j] = cs[i:j] - cs[i]
        s += 1
        i = j
    return seq, off, trunc.astype(np.int64)


def pack_sequences(ds, budget: int, *, id_col: str = "doc_id",
                   tokens_col: str | None = None, text_col: str = "text",
                   num_parts: int | None = None):
    """Pack every doc of ``ds`` into token-budget sequences. Returns
    (id_col, n_tokens, seq_id, offset, truncated) covering every row.

    ``tokens_col`` supplies precomputed token counts; otherwise counts
    are the non-empty ASCII-whitespace tokens of ``text_col``.
    """
    from mhray.rayutil import exchange, parts_for
    from mhray.stages.candidates import _part_of

    num_parts = parts_for(ds, num_parts)

    def prep(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column(id_col), np.int64)
        if tokens_col is not None:
            nt = np.asarray(batch.column(tokens_col), np.int64)
        else:
            # token COUNT only: whitespace-split lengths — hashing
            # every token (the decontam stream) is wasted CPU here
            import pyarrow.compute as pc

            from mhray.stages.text import _WS

            split = pc.split_pattern_regex(batch.column(text_col),
                                           f"[{_WS}]+")
            if isinstance(split, pa.ChunkedArray):
                split = split.combine_chunks()
            flat = split.flatten()
            per_doc = np.diff(np.asarray(split.offsets, np.int64))
            nonempty = np.asarray(pc.utf8_length(flat)) > 0
            parent = np.repeat(np.arange(len(per_doc)), per_doc)
            nt = np.bincount(parent[nonempty],
                             minlength=len(per_doc)).astype(np.int64)
        return pa.table({
            id_col: pa.array(ids, pa.int64()),
            "n_tokens": pa.array(nt, pa.int64()),
            "part": pa.array(_part_of(ids, num_parts), pa.int32()),
        })

    def pack_part(part: pa.Table) -> pa.Table:
        """Next-fit packing of each hash partition in the call."""
        ids = np.asarray(part.column(id_col), np.int64)
        nt = np.asarray(part.column("n_tokens"), np.int64)
        parts = np.asarray(part.column("part"), np.int64)
        # (part, id, n_tokens) sort: a bare id argsort leaves duplicate
        # ids ordered by block arrival — nondeterministic across runs
        order = np.lexsort((nt, ids, parts))
        ids, nt, parts = ids[order], nt[order], parts[order]
        seq = np.empty(len(ids), np.int64)
        off = np.empty(len(ids), np.int64)
        trunc = np.empty(len(ids), np.int64)
        starts = np.flatnonzero(np.diff(parts, prepend=-1))
        for a, b in zip(starts, np.r_[starts[1:], len(ids)]):
            s, off[a:b], trunc[a:b] = pack_next_fit(nt[a:b], budget)
            seq[a:b] = (parts[a] << 40) | s
        return pa.table({
            id_col: pa.array(ids, pa.int64()),
            "n_tokens": pa.array(nt, pa.int64()),
            "seq_id": pa.array(seq, pa.int64()),
            "offset": pa.array(off, pa.int64()),
            "truncated": pa.array(trunc, pa.int64()),
        })

    return exchange(ds.map_batches(prep, batch_format="pyarrow",
                                   zero_copy_batch=True),
                    "part", num_parts, pack_part)
