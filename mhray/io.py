"""Dataset I/O seam: Lance when available, Parquet otherwise.

The BASELINE input_hint names Lance tables; this container has no
``lance`` wheel, so the engine reads/writes Parquet with identical
schemas and switches to Lance transparently when the package is
importable (same seam for every table the pipelines touch).
"""

from __future__ import annotations

import ray.data

from mhray.rayutil import exchange, parts_for, read_parquet

try:
    import lance  # noqa: F401

    HAVE_LANCE = True
except ImportError:
    HAVE_LANCE = False


def read_table(path: str, columns: list[str] | None = None) -> "ray.data.Dataset":
    if HAVE_LANCE and path.endswith(".lance"):
        return ray.data.read_lance(path, columns=columns)
    return read_parquet(path, columns=columns)


def write_table(ds: "ray.data.Dataset", path: str) -> None:
    if path.endswith(".lance"):
        if not HAVE_LANCE:
            # writing parquet under a *.lance name would poison a
            # later lance-enabled read — refuse like write_documents
            raise NotImplementedError(
                "lance writes need the optional 'lance' dependency")
        ds.write_lance(path)
    else:
        ds.write_parquet(path)


_COMPRESSIONS = {".gz": "gzip", ".bz2": "bz2", ".zst": "zstd"}


def _sniff_fmt(path: str) -> tuple[str, str | None]:
    """Shared extension sniff for read_documents / write_documents:
    (format, compression). Compression suffixes are stripped first so
    ``docs.jsonl.gz`` routes to the JSONL reader with a gzip stream
    (reference S2 analog: utils/Utils.java:228-268 transparent
    gz/bz2 openers) instead of falling through to the parquet branch."""
    low = path.lower()
    compression = None
    for suf, name in _COMPRESSIONS.items():
        if low.endswith(suf):
            compression = name
            low = low[: -len(suf)]
            break
    if low.endswith((".jsonl", ".json", ".ndjson")):
        return "jsonl", compression
    if low.endswith(".csv"):
        return "csv", compression
    if low.endswith(".tsv"):
        return "tsv", compression
    if low.endswith(".lance"):
        return "lance", compression
    if low.endswith((".arrow", ".feather", ".ipc")):
        return "ipc", compression
    if low.endswith(".orc"):
        return "orc", compression
    if low.endswith(".txt"):
        return "txt", compression
    return "parquet", compression


def codec_kwargs(fmt: str, compression: str | None,
                 read: bool = True) -> dict:
    """Reader/writer kwargs for a sniffed compression suffix — the ONE
    place the codec plumbing lives (read_documents, write_documents and
    run.py all route through here). Arrow decompresses natively once
    the stream is opened with the right codec; on the read side
    ``file_extensions=None`` keeps Ray's default extension filter from
    dropping the .gz/.bz2 path (it must apply even when the caller
    supplies its own ``arrow_open_stream_args``)."""
    if compression is None or fmt not in ("jsonl", "csv", "tsv"):
        return {}
    kw: dict = {"arrow_open_stream_args": {"compression": compression}}
    if read:
        kw["file_extensions"] = None
    return kw


def _read_ipc(path: str, **reader_kwargs) -> "ray.data.Dataset":
    """Arrow IPC / Feather-v2 ingestion: Ray Data ships no native IPC
    reader, so files are read as binary and parsed with pyarrow — one
    block per file (IPC is an interchange format; convert to parquet /
    lance for scan-heavy workloads where row-group parallelism and
    column pruning at the read matter). Both the random-access file
    format (.arrow / .feather) and the stream format (.ipc) parse."""
    import pyarrow as pa

    reader_kwargs.setdefault("file_extensions", None)
    files = ray.data.read_binary_files(path, **reader_kwargs)

    def parse(batch: pa.Table) -> pa.Table:
        tables = []
        for blob in batch.column("bytes").to_pylist():
            buf = pa.BufferReader(blob)
            try:
                tables.append(pa.ipc.open_file(buf).read_all())
            except pa.ArrowInvalid:
                buf.seek(0)
                tables.append(pa.ipc.open_stream(buf).read_all())
        return pa.concat_tables(tables, promote_options="default")

    return files.map_batches(parse, batch_format="pyarrow")


def _read_txt(path: str, text_col: str,
              **reader_kwargs) -> "ray.data.Dataset":
    """Plain-text ingestion, ONE DOCUMENT PER FILE (book/article corpus
    layout — ``ray.data.read_text`` would instead yield one row per
    LINE). Files stream as binary with Arrow's extension-inferred
    decompression (.txt.gz/.bz2 arrive decompressed); UTF-8 decode
    happens inside the batch transform."""
    import pyarrow as pa

    reader_kwargs.setdefault("file_extensions", None)
    files = ray.data.read_binary_files(path, **reader_kwargs)

    def parse(batch: pa.Table) -> pa.Table:
        return pa.table({
            text_col: pa.array(
                [b.decode("utf-8", errors="replace")
                 for b in batch.column("bytes").to_pylist()],
                pa.string())})

    return files.map_batches(parse, batch_format="pyarrow")


def _read_orc(path: str, **reader_kwargs) -> "ray.data.Dataset":
    """ORC ingestion (Hadoop-ecosystem corpora): Ray Data ships no ORC
    reader, so files parse via pyarrow.orc from binary — one block per
    file, same caveat as the IPC path (convert to parquet/lance for
    scan-heavy workloads)."""
    import pyarrow as pa

    reader_kwargs.setdefault("file_extensions", None)
    files = ray.data.read_binary_files(path, **reader_kwargs)

    def parse(batch: pa.Table) -> pa.Table:
        from pyarrow import orc

        return pa.concat_tables(
            [orc.ORCFile(pa.BufferReader(b)).read()
             for b in batch.column("bytes").to_pylist()],
            promote_options="default")

    return files.map_batches(parse, batch_format="pyarrow")


def read_documents(path: str, fmt: str | None = None,
                   id_col: str = "doc_id", text_col: str = "text",
                   **reader_kwargs) -> "ray.data.Dataset":
    """Read a documents table from parquet / lance / JSONL / CSV /
    TSV / Arrow IPC / ORC / plain-text-per-file into
    the canonical (doc_id int64, text string) shape every text
    operator consumes. Format is sniffed from the extension unless
    ``fmt`` forces it. JSONL/CSV rows without an id column get a
    stable one assigned from a hash of the text (order-independent —
    Ray Data block order is not a stable id source at scale), and the
    table is then deduplicated to one row per id in a single hash
    shuffle: identical texts from an id-less source ARE the same
    document (content identity), and every downstream operator
    (tiered dedup's anti-joins, ntile, chunk reassembly) requires
    unique ids.
    """
    import pyarrow as pa

    compression = None
    if fmt is None:
        fmt, compression = _sniff_fmt(path)
    for key, val in codec_kwargs(fmt, compression).items():
        reader_kwargs.setdefault(key, val)
    if fmt == "jsonl":
        ds = ray.data.read_json(path, **reader_kwargs)
    elif fmt == "csv":
        ds = ray.data.read_csv(path, **reader_kwargs)
    elif fmt == "tsv":
        import pyarrow.csv as pcsv

        reader_kwargs.setdefault(
            "parse_options", pcsv.ParseOptions(delimiter="\t"))
        ds = ray.data.read_csv(path, **reader_kwargs)
    elif fmt == "lance":
        ds = ray.data.read_lance(path, **reader_kwargs)
    elif fmt == "ipc":
        ds = _read_ipc(path, **reader_kwargs)
    elif fmt == "orc":
        ds = _read_orc(path, **reader_kwargs)
    elif fmt == "txt":
        ds = _read_txt(path, text_col, **reader_kwargs)
    else:
        ds = read_parquet(path, **reader_kwargs)

    schema = ds.schema()
    names = getattr(schema, "names", schema)

    has_id = id_col in names

    def canon(batch: pa.Table) -> pa.Table:
        if has_id:
            ids = batch.column(id_col).cast(pa.int64())
        else:
            from mhray.kernels import hash_strings64

            # stable content-derived id, strictly non-negative
            h = hash_strings64(batch.column(text_col))
            ids = pa.array(h & ((1 << 63) - 1), pa.int64())
        return pa.table({id_col: ids,
                         text_col: batch.column(text_col).cast(pa.string())})

    if text_col not in names:
        raise ValueError(f"read_documents: no '{text_col}' column in {path} "
                         f"(found {list(names)})")
    out = ds.map_batches(canon, batch_format="pyarrow",
                         zero_copy_batch=True)
    if has_id:
        return out

    # content-derived ids: identical texts share an id, so collapse to
    # one row per id (one narrow hash shuffle) — duplicate ids would
    # silently break exact dedup's min-id keeper rule downstream
    import numpy as np

    from mhray.stages.candidates import _part_of

    parts = parts_for(out)

    def add_part(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column(id_col), np.int64)
        return batch.append_column(
            "__part", pa.array(_part_of(ids, parts), pa.int32()))

    def first_per_id(part: pa.Table) -> pa.Table:
        ids = np.asarray(part.column(id_col), np.int64)
        order = np.argsort(ids, kind="stable")
        first = np.ones(len(ids), dtype=bool)
        if len(ids) > 1:
            first[1:] = np.diff(ids[order]) != 0
        keep = pa.array(order[first], pa.int64())
        return pa.table({id_col: part.column(id_col).take(keep),
                         text_col: part.column(text_col).take(keep)})

    return exchange(out.map_batches(add_part, batch_format="pyarrow",
                                    zero_copy_batch=True),
                    "__part", parts, first_per_id)


def write_documents(ds: "ray.data.Dataset", path: str,
                    fmt: str | None = None, **writer_kwargs) -> None:
    """Write a documents table as partitioned parquet / JSONL / CSV —
    the sink-side companion of :func:`read_documents`. Format sniffs
    from the path suffix unless ``fmt`` forces it; the parquet / JSONL
    / CSV writers emit ONE FILE PER BLOCK under ``path`` (never a
    single giant file), so a failed run resumes by skipping finished
    partitions and a downstream reader parallelizes the scan. Lance
    (optional dependency, same gate as the reader) writes a lance
    dataset — fragmented internally, not per-block files."""
    if fmt is None:
        fmt, compression = _sniff_fmt(path)
        for key, val in codec_kwargs(fmt, compression,
                                     read=False).items():
            writer_kwargs.setdefault(key, val)
    if fmt == "jsonl":
        ds.write_json(path, **writer_kwargs)
    elif fmt == "csv":
        ds.write_csv(path, **writer_kwargs)
    elif fmt == "lance":
        if not HAVE_LANCE:
            raise NotImplementedError(
                "lance writes need the optional 'lance' dependency")
        ds.write_lance(path, **writer_kwargs)
    elif fmt in ("ipc", "orc", "tsv", "txt"):
        # silently writing parquet under an .arrow/.orc/.tsv/.txt name
        # would poison a later format-sniffed read — refuse with the
        # conversion path instead (these are ingestion formats; the
        # resumable sink formats are parquet / JSONL / CSV / lance)
        raise NotImplementedError(
            f"{fmt} writes are not supported; write parquet (or JSONL/"
            f"CSV) and convert with pyarrow if a {fmt} file is required")
    else:
        ds.write_parquet(path, **writer_kwargs)
