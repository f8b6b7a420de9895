"""CLI entry point — the `ray job submit` surface.

    ray job submit --working-dir . -- python -m mhray.run \
        --input /data/images --out /data/dedup_run \
        --preset captions --num-parts 64

Connects to the cluster Ray (or local), runs the flagship pipeline
with checkpoint/resume, writes pairs + clusters + run metrics, prints
a one-line JSON summary. Re-running with the same --out resumes from
completed stages.
"""

from __future__ import annotations

import argparse
import json
import os
import time


def _out_parts(ds, requested) -> int:
    """Output file count: the sizing rule's count for ``ds`` (or the
    requested one), at most 16."""
    from mhray.rayutil import parts_for

    return max(1, min(16, parts_for(ds, requested)))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="mhray.run")
    ap.add_argument("--input", required=True, help="images table (parquet dir)")
    ap.add_argument("--out", required=True, help="run/checkpoint directory")
    from mhray.config import PRESETS

    ap.add_argument("--preset", default="captions",
                    choices=sorted(PRESETS))
    ap.add_argument("--num-parts", type=int, default=None,
                    help="exchange partitions (default: sized from the "
                         "input's rows and bytes)")
    ap.add_argument("--threshold", type=float, default=None)
    ap.add_argument("--no-decode", action="store_true",
                    help="trust the phash column instead of decoding pixels")
    ap.add_argument("--no-resume", action="store_true")
    ap.add_argument("--freq-table", default=None,
                    help="optional shingle-frequency parquet (tf-idf weighting)")
    ap.add_argument("--query-input", default=None,
                    help="incremental mode (the reference's -q): match THIS "
                         "new images table against the s1_sketches index "
                         "already stored under --out, without re-sketching "
                         "the index; writes <out>/query_pairs")
    ap.add_argument("--curate", action="store_true",
                    help="text-curation mode: --input is a documents "
                         "parquet (doc_id, text); runs quality floor -> "
                         "PII scrub -> chunk dedup -> tiered dedup -> "
                         "packing and writes curated_documents/, packs/ "
                         "and curate_stats.json under --out")
    ap.add_argument("--report", action="store_true",
                    help="corpus analytics mode: --input is a documents "
                         "source (parquet/jsonl/csv); writes doc_scores/, "
                         "novelty/, dup_by_source/ and report.json under "
                         "--out — the pre-curation dashboard")
    ap.add_argument("--min-quality-pm", type=int, default=0)
    ap.add_argument("--langs", default=None,
                    help="comma-separated language allowlist (e.g. en,de)")
    ap.add_argument("--chunk-words", type=int, default=0,
                    help="chunk-level span-dedup width (0 = off)")
    ap.add_argument("--pack-budget", type=int, default=0,
                    help="token budget for sequence packing (0 = off)")
    args = ap.parse_args(argv)

    import ray

    if not ray.is_initialized():
        try:
            ray.init(address=os.environ.get("RAY_ADDRESS", "auto"),
                     ignore_reinit_error=True)
        except ConnectionError:
            # no running cluster and no RAY_ADDRESS: the documented
            # local fallback
            ray.init(address="local", ignore_reinit_error=True)
    import pyarrow.parquet as pq

    from mhray.pipelines.dedup import pairs_with_ids, run_dedup

    cfg = PRESETS[args.preset]
    if args.threshold is not None:
        cfg = cfg.with_(threshold=args.threshold)

    freq_ref = None
    if args.freq_table:
        freq_ref = ray.put(pq.read_table(args.freq_table))

    if args.report:
        from mhray.io import read_documents
        from mhray.pipelines.report import corpus_report
        from mhray.rayutil import read_parquet

        t0 = time.time()
        # read the raw table first (any format), keeping every column —
        # the report wants `source` when present. Only fall back to the
        # canonicalizing read_documents path (which assigns content-hash
        # ids but keeps ONLY doc_id+text) when the source has no usable
        # id column, and say so.
        from mhray.io import _sniff_fmt, codec_kwargs

        fmt, compression = _sniff_fmt(args.input)
        open_args = codec_kwargs(fmt, compression)
        if fmt == "jsonl":
            docs = ray.data.read_json(args.input, **open_args)
        elif fmt == "csv":
            docs = ray.data.read_csv(args.input, **open_args)
        elif fmt == "lance":
            docs = ray.data.read_lance(args.input)
        else:
            docs = read_parquet(args.input)
        schema = docs.schema()
        names = getattr(schema, "names", schema)
        if "doc_id" not in names or "text" not in names:
            print(json.dumps({
                "mode": "report",
                "note": "input has no doc_id column - assigning "
                        "content-hash ids via read_documents; per-source "
                        "dup rates unavailable in this mode"}))
            docs = read_documents(args.input)
        res = corpus_report(docs, num_parts=args.num_parts)
        os.makedirs(args.out, exist_ok=True)
        for key in ("doc_scores", "novelty", "dup_by_source"):
            if key in res:
                res[key].repartition(_out_parts(res[key], args.num_parts)) \
                    .write_parquet(
                    os.path.join(args.out, key))
        with open(os.path.join(args.out, "report.json"), "w") as f:
            json.dump(res["summary"], f, indent=2)
        print(json.dumps({"mode": "report",
                          "sec": round(time.time() - t0, 2),
                          "out": args.out, **res["summary"]}))
        return 0

    if args.curate:
        import ray.data

        from mhray.io import read_documents
        from mhray.pipelines.curate import curate

        t0 = time.time()
        docs = read_documents(args.input)
        res = curate(docs, cfg, min_quality_pm=args.min_quality_pm,
                     langs=tuple(args.langs.split(",")) if args.langs
                     else None,
                     chunk_words=args.chunk_words,
                     pack_budget=args.pack_budget,
                     num_parts=args.num_parts)
        os.makedirs(args.out, exist_ok=True)
        for key, name in (("documents", "curated_documents"),
                          ("packs", "packs")):
            if key in res:
                res[key].repartition(_out_parts(res[key], args.num_parts)) \
                    .write_parquet(os.path.join(args.out, name))
        with open(os.path.join(args.out, "curate_stats.json"), "w") as f:
            json.dump(res["stats"], f, indent=2)
        print(json.dumps({
            "mode": "curate",
            "survivors": res["documents"].count(),
            "sec": round(time.time() - t0, 2),
            "stats": res["stats"],
            "out": args.out,
        }))
        return 0

    if args.query_input:
        import shutil

        from mhray.rayutil import read_parquet
        from mhray.stages.incremental import find_matches

        index_dir = os.path.join(args.out, "s1_sketches")
        if not os.path.exists(os.path.join(index_dir, "_SUCCESS")):
            raise SystemExit(f"no stored sketch index at {index_dir} — "
                             "run the flagship on the corpus first")
        t0 = time.time()
        query_ds = read_parquet(args.query_input)
        out = find_matches(query_ds, index_dir, cfg,
                           num_parts=args.num_parts, freq_ref=freq_ref,
                           decode_pixels=not args.no_decode)
        pairs_path = os.path.join(args.out, "query_pairs")
        if os.path.exists(pairs_path):
            shutil.rmtree(pairs_path)
        out = out.materialize()
        out.repartition(_out_parts(out, args.num_parts)) \
            .write_parquet(pairs_path)
        print(json.dumps({
            "mode": "query-vs-index",
            "query_pairs": out.count(),
            "sec": round(time.time() - t0, 2),
            "out": pairs_path,
        }))
        return 0

    t0 = time.time()
    res = run_dedup(args.input, args.out, cfg, freq_ref=freq_ref,
                    decode_pixels=not args.no_decode,
                    num_parts=args.num_parts, resume=not args.no_resume)
    pairs_path = os.path.join(args.out, "pairs_with_ids")
    if os.path.exists(pairs_path):  # re-runs must not append a second copy
        import shutil

        shutil.rmtree(pairs_path)
    ids = pairs_with_ids(res, args.num_parts)
    ids.repartition(_out_parts(res["pairs"], args.num_parts)) \
        .write_parquet(pairs_path)
    n_pairs = res["pairs"].count()
    n_rows = res["clusters"].count()

    from mhray.checkpoint import read_manifests

    summary = {
        "rows": n_rows,
        "pairs": n_pairs,
        "sec": round(time.time() - t0, 2),
        "out": args.out,
        "stages": {m["stage"]: m["duration_s"] for m in read_manifests(args.out)},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
