"""Tests: frequency job, CountMin, substring pass, multimodal stages,
M4 export, histogram stats."""

import numpy as np
import pyarrow as pa
import pytest

from mhray.config import PRESETS

SF = "/root/testdata/sf0.001"


# ---------------------------------------------------------------------------
# CountMin (pure kernel)
# ---------------------------------------------------------------------------

def test_countmin_exactish():
    from mhray.stages.freqjob import CountMin

    cm = CountMin(eps=1e-3, delta=1e-2)
    keys = np.arange(100, dtype=np.uint64) * np.uint64(2654435761)
    counts = np.arange(1, 101, dtype=np.int64)
    cm.add(keys, counts)
    est = cm.query(keys)
    assert (est >= counts).all()          # one-sided error
    assert (est <= counts + 5).all()      # small table, tiny load

    cm2 = CountMin(eps=1e-3, delta=1e-2)
    cm2.add(keys, counts)
    merged = cm.merge(cm2)
    np.testing.assert_array_equal(merged.query(keys) >= 2 * counts, True)


def test_freq_table_job(ray_session):
    import ray.data

    from mhray.freq import FreqTable
    from mhray.stages.freqjob import shingle_freq_table

    cfg = PRESETS["captions"]
    docs = ray.data.read_parquet(f"{SF}/documents.parquet").map_batches(
        lambda b: pa.table({"caption": b.column("text")}),
        batch_format="pyarrow",
    )
    freq = shingle_freq_table(docs, cfg, min_count=2)
    tbl = freq.to_pandas()
    assert len(tbl) > 0
    assert (tbl.doc_freq > 0).all() and (tbl.doc_freq <= 1).all()
    ft = FreqTable.from_arrow(pa.Table.from_pandas(tbl),
                              filter_cutoff=1e-6, idf_range=3.0)
    some = tbl.shingle_hash.to_numpy()[:10].astype(np.uint64)
    idf = ft.scaled_idf(some)
    assert ((idf >= 1.0) & (idf <= 3.0 + 1e-9)).all()


def test_countmin_job(ray_session):
    import ray.data

    from mhray.stages.freqjob import countmin_shingle_counts

    cfg = PRESETS["captions"]
    docs = ray.data.read_parquet(f"{SF}/documents.parquet").limit(50) \
        .map_batches(lambda b: pa.table({"caption": b.column("text")}),
                     batch_format="pyarrow")
    cm = countmin_shingle_counts(docs, cfg, eps=1e-3, delta=1e-2)
    assert cm.grid.sum() > 0


# ---------------------------------------------------------------------------
# substring pass
# ---------------------------------------------------------------------------

def test_lcs_kernel():
    from mhray.stages.substring import longest_common_substring_len

    assert longest_common_substring_len("abcdefgh", "xxxcdefyy") == 4
    assert longest_common_substring_len("same text", "same text") == 9
    assert longest_common_substring_len("abc", "xyz") == 0
    assert longest_common_substring_len("", "abc") == 0


def test_substring_pairs(ray_session):
    import ray.data

    from mhray.stages.substring import substring_pairs

    shared = "this exact shared segment appears verbatim in both documents ok"
    rows = [
        {"doc_id": 1, "text": "prefix one two three " + shared},
        {"doc_id": 2, "text": shared + " suffix four five six"},
        {"doc_id": 3, "text": "completely unrelated text with nothing shared"},
        {"doc_id": 4, "text": "another unrelated document body here"},
    ]
    ds = ray.data.from_items(rows)
    out = substring_pairs(ds, min_len=32, num_parts=2).take_all()
    pairs = {(r["lo"], r["hi"]) for r in out}
    assert (1, 2) in pairs
    assert all(p == (1, 2) for p in pairs)
    lcs = [r["lcs_len"] for r in out if (r["lo"], r["hi"]) == (1, 2)][0]
    assert lcs >= len(shared)


# ---------------------------------------------------------------------------
# multimodal stages
# ---------------------------------------------------------------------------

def test_image_feature_stage(small_corpus, ray_session):
    import ray.data

    from mhray.stages.multimodal import image_features

    images = ray.data.read_parquet(small_corpus["images"]).limit(64)
    out = image_features(images).take_all()
    assert len(out) == 64
    assert all(r["decode_ok"] for r in out)
    assert any(r["mean_luma"] > 0 for r in out)


def test_image_resize_stage(small_corpus, ray_session):
    import ray.data

    from mhray.imageops import decode_image
    from mhray.stages.multimodal import ImageResizeStage

    images = ray.data.read_parquet(small_corpus["images"]).limit(8)
    out = images.map_batches(ImageResizeStage(side=16),
                             batch_format="pyarrow").take_all()
    assert all(r["resized"] for r in out)
    img = decode_image(out[0]["bytes"], out[0]["fmt"])
    assert img.shape == (16, 16, 3)


def _make_wav(freq=440.0, sr=8000, secs=0.25, amp=0.5):
    import io
    import wave

    import numpy as np

    t = np.arange(int(sr * secs)) / sr
    x = (amp * np.sin(2 * np.pi * freq * t) * 32767).astype("<i2")
    buf = io.BytesIO()
    with wave.open(buf, "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(sr)
        w.writeframes(x.tobytes())
    return buf.getvalue()


def test_audio_real_wav_decode():
    from mhray.stages.multimodal import AudioFeatureStage, decode_wav

    wav = _make_wav(freq=440.0)
    x, sr = decode_wav(wav)
    assert sr == 8000 and len(x) == 2000
    assert abs(float(np.sqrt(np.mean(x ** 2))) - 0.5 / np.sqrt(2)) < 0.01

    batch = pa.table({"id": ["a1", "a2"],
                      "bytes": [wav, _make_wav(freq=1200.0)],
                      "fmt": ["wav", "wav"]})
    out = AudioFeatureStage(n_bands=8)(batch)
    assert out.column("stub").to_pylist() == [False, False]
    e1 = out.column("audio_embedding")[0].as_py()
    e2 = out.column("audio_embedding")[1].as_py()
    assert len(e1) == 12
    assert e2[3] > e1[3]  # higher tone -> higher spectral centroid

    # non-wav formats stay declared stubs
    mp3 = pa.table({"id": ["m"], "bytes": [b"\x00" * 64], "fmt": ["mp3"]})
    assert AudioFeatureStage()(mp3).column("stub").to_pylist() == [True]
    with pytest.raises(NotImplementedError):
        AudioFeatureStage(strict=True)(mp3)


def test_video_ppmv_frame_sampling():
    from mhray.imageops import encode_image
    from mhray.stages.multimodal import VideoFrameSampleStage, split_ppmv

    rng = np.random.default_rng(4)
    frames = [rng.integers(0, 255, (8, 8, 3)).astype(np.uint8)
              for _ in range(10)]
    blob = b"".join(encode_image(f, "ppm") for f in frames)
    assert len(split_ppmv(blob)) == 10

    vb = pa.table({"video_id": ["v1"], "bytes": [blob], "fmt": ["ppmv"]})
    out = VideoFrameSampleStage(n_frames=4)(vb)
    assert out.num_rows == 4
    assert out.column("stub").to_pylist() == [False] * 4
    assert out.column("frame_index").to_pylist() == [0, 3, 6, 9]
    assert all(w == 8 for w in out.column("w").to_pylist())

    # unknown container stays a declared stub
    vb2 = pa.table({"video_id": ["v2"], "bytes": [b"riff"], "fmt": ["mp4"]})
    stub = VideoFrameSampleStage(n_frames=3)(vb2)
    assert stub.num_rows == 3 and all(stub.column("stub").to_pylist())
    with pytest.raises(NotImplementedError):
        VideoFrameSampleStage(strict=True)(vb2)


def test_video_avi_rgb_decode():
    """Uncompressed RIFF/AVI (BI_RGB) is a REAL decode path: writer ->
    parser roundtrip is pixel-exact, the stage samples it like ppmv,
    and identical frames in either container hash identically."""
    from mhray.imageops import encode_image
    from mhray.stages.multimodal import (VideoFrameSampleStage,
                                         encode_avi_rgb, split_avi_rgb)

    rng = np.random.default_rng(9)
    # 9x7 exercises the 4-byte DIB row padding (7*3=21 -> stride 24)
    frames = [rng.integers(0, 255, (9, 7, 3)).astype(np.uint8)
              for _ in range(6)]
    blob = encode_avi_rgb(frames, fps=5)
    back = split_avi_rgb(blob)
    assert len(back) == 6
    for a, b in zip(frames, back):
        np.testing.assert_array_equal(a, b)

    vb = pa.table({"video_id": ["a1"], "bytes": [blob], "fmt": ["avi"]})
    out = VideoFrameSampleStage(n_frames=3)(vb)
    assert out.num_rows == 3
    assert out.column("stub").to_pylist() == [False] * 3
    assert out.column("frame_index").to_pylist() == [0, 2, 5]
    assert out.column("w").to_pylist() == [7, 7, 7]

    # same frames via the ppmv container -> identical per-frame pHash
    ppmv = b"".join(encode_image(f, "ppm") for f in frames)
    vp = pa.table({"video_id": ["a1"], "bytes": [ppmv], "fmt": ["ppmv"]})
    out_p = VideoFrameSampleStage(n_frames=3)(vp)
    assert out.column("phash").to_pylist() == out_p.column("phash").to_pylist()

    # compressed AVI stays out of scope, loudly
    bad = bytearray(blob)
    comp_off = blob.find(b"strf") + 8 + 16  # biCompression field
    bad[comp_off:comp_off + 4] = b"MJPG"
    with pytest.raises(ValueError, match="not decodable"):
        split_avi_rgb(bytes(bad))

    # a malformed payload never crashes the task: stub rows out
    vbad = pa.table({"video_id": ["x1", "x2"],
                     "bytes": [bytes(bad), blob[:40]],
                     "fmt": ["avi", "avi"]})
    out_bad = VideoFrameSampleStage(n_frames=2)(vbad)
    assert out_bad.num_rows == 4
    assert all(out_bad.column("stub").to_pylist())
    with pytest.raises(ValueError):
        VideoFrameSampleStage(n_frames=2, strict=True)(vbad)
    # truncated ppmv likewise degrades to stub rows
    vtr = pa.table({"video_id": ["x3"], "bytes": [ppmv[:50]],
                    "fmt": ["ppmv"]})
    out_tr = VideoFrameSampleStage(n_frames=2)(vtr)
    assert all(out_tr.column("stub").to_pylist())


# ---------------------------------------------------------------------------
# export + histogram
# ---------------------------------------------------------------------------

def test_m4_export(tmp_path, ray_session):
    import os

    import ray.data

    from mhray.export import write_m4

    pairs = ray.data.from_items([
        {"lo": 1, "hi": 2, "score": 0.95, "shared_slots": 10,
         "a1": 0, "a2": 50, "b1": 0, "b2": 49},
        {"lo": 3, "hi": 4, "score": 0.80, "shared_slots": 4,
         "a1": 5, "a2": 40, "b1": 2, "b2": 38},
    ])
    out = str(tmp_path / "m4")
    write_m4(pairs, out)
    files = sorted(os.listdir(out))
    assert files
    with open(os.path.join(out, files[0])) as fh:
        lines = fh.read().strip().splitlines()
    assert len(lines) >= 1
    parts = lines[0].split()
    assert len(parts) == 12
    assert float(parts[2]) == pytest.approx(0.05, abs=1e-6)


def test_histogram_stats(ray_session):
    import ray.data

    from mhray.export import histogram_stats

    ds = ray.data.from_items([{"v": i % 10} for i in range(1000)])
    st = histogram_stats(ds, "v", percentile=0.9)
    assert st["n"] == 1000
    assert st["mean"] == pytest.approx(4.5)
    assert st["percentile"] >= 8


def test_cli_entry(tmp_path):
    """`python -m mhray.run` (the ray job submit surface) end-to-end."""
    import os
    import subprocess
    import sys

    from mhray.synth import SynthSpec, write_corpus

    d = str(tmp_path)
    paths = write_corpus(d, SynthSpec(n_rows=150, seed=4), n_files=2)
    env = dict(os.environ, RAY_ADDRESS="local",
               PYTHONPATH="/root/repo")
    p = subprocess.run(
        [sys.executable, "-m", "mhray.run", "--input", paths["images"],
         "--out", d + "/run", "--num-parts", "4"],
        capture_output=True, text=True, env=env, cwd="/root/repo",
        timeout=280)
    assert p.returncode == 0, p.stderr[-800:]
    import json

    summary = json.loads([l for l in p.stdout.splitlines()
                          if l.startswith("{")][-1])
    assert summary["rows"] == 150
    assert os.path.exists(d + "/run/pairs_with_ids")


# ---------------------------------------------------------------------------
# overlap-file parsers (EstimateROC.getOverlapInfo, S7)
# ---------------------------------------------------------------------------

def test_parse_overlap_formats():
    from mhray.export import parse_overlap_line

    # MHAP M4 (EstimateROC.java:398-418)
    o = parse_overlap_line("7 12 0.050000 10 0 5 40 100 0 2 38 90")
    assert o == {"id1": "7", "id2": "12", "score": 0.05, "fwd": True,
                 "a1": 5, "a2": 40, "b1": 2, "b2": 38}
    # a2/b2 clamp to sequence lengths when provided (:411-417)
    o = parse_overlap_line("7 12 0.050000 10 0 5 40 100 0 2 38 90",
                           lengths={"7": 30, "12": 35})
    assert (o["a2"], o["b2"]) == (30, 35)

    # CA format (:381-396): coords only with lengths
    o = parse_overlap_line("3 9 N 4 -6 0.02")
    assert (o["id1"], o["id2"], o["fwd"]) == ("3", "9", True)
    assert (o["a1"], o["a2"], o["b1"], o["b2"]) == (0, 0, 0, 0)
    o = parse_overlap_line("3 9 I 4 -6 0.02", lengths={"3": 50, "9": 60})
    assert o["fwd"] is False
    assert (o["a1"], o["a2"]) == (4, 44)   # max(0,4), min(50, 50-6)
    assert (o["b1"], o["b2"]) == (0, 60)   # -min(0,4), min(60, 60+6)

    # BLASR M4 (:420-452): 13 fields, id cleanup + reverse flip via f[11]
    o = parse_overlap_line(
        "read/0/0_100 ref,chr1 -100 99.0 0 10 90 100 1 20 80 200 254")
    assert (o["id1"], o["id2"]) == ("read", "chr1")
    assert o["fwd"] is False
    assert (o["b1"], o["b2"]) == (200 - 80, 200 - 20)

    # bracketed layout-diff lines (:454-469)
    o = parse_overlap_line(
        "  1  1,182 n   [ 4,746.. 8,108] x [     0.. 3,896] "
        ":   <    982 diffs  ( 34 trace pts)")
    assert (o["id1"], o["id2"], o["fwd"]) == ("1", "1182", True)
    assert (o["a1"], o["a2"], o["b1"], o["b2"]) == (4746, 8108, 0, 3896)

    # junk lines -> None (the reference warns and skips, :470-473)
    assert parse_overlap_line("not an overlap line") is None
    assert parse_overlap_line("a b c d e NaNx") is None


def test_read_overlaps_roundtrip(tmp_path, ray_session):
    """write_m4 -> read_overlaps roundtrip; canonical pair order."""
    import ray.data

    from mhray.export import edges_from_overlaps, read_overlaps, write_m4

    pairs = ray.data.from_items([
        {"lo": 5, "hi": 2, "score": 0.95, "shared_slots": 10,
         "a1": 0, "a2": 50, "b1": 1, "b2": 49},
        {"lo": 3, "hi": 4, "score": 0.80, "shared_slots": 4,
         "a1": 5, "a2": 40, "b1": 2, "b2": 38},
    ])
    out = str(tmp_path / "m4")
    write_m4(pairs, out)
    got = read_overlaps(out).take_all()
    rows = sorted((r["lo_id"], r["hi_id"], r["score"]) for r in got)
    # "5 2" canonicalizes to ("2","5") with the edge swapped
    assert [(r[0], r[1]) for r in rows] == [("2", "5"), ("3", "4")]
    assert rows[0][2] == pytest.approx(0.05, abs=1e-6)  # score col = err
    import pyarrow as pa

    tbl = pa.Table.from_pylist(got)
    edges = edges_from_overlaps(tbl)
    assert edges[("2", "5")] == (1, 49, 0, 50)
    assert edges[("3", "4")] == (5, 40, 2, 38)


def test_read_documents_formats(tmp_path, ray_session):
    """read_documents canonicalizes parquet / JSONL / CSV sources."""
    import json as _json

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from mhray.io import read_documents

    rows = [{"doc_id": i, "text": f"doc number {i} body"} for i in range(25)]
    pq.write_table(pa.Table.from_pylist(rows), str(tmp_path / "d.parquet"))
    with open(tmp_path / "d.jsonl", "w") as f:
        for r in rows:
            f.write(_json.dumps(r) + "\n")
    with open(tmp_path / "d.csv", "w") as f:
        f.write("doc_id,text\n")
        for r in rows:
            f.write(f"{r['doc_id']},{r['text']}\n")

    want = {(r["doc_id"], r["text"]) for r in rows}
    for name in ("d.parquet", "d.jsonl", "d.csv"):
        ds = read_documents(str(tmp_path / name))
        got = {(r["doc_id"], r["text"]) for r in ds.take_all()}
        assert got == want, name

    # no id column -> stable content hash, non-negative, deterministic
    with open(tmp_path / "noid.jsonl", "w") as f:
        for r in rows:
            f.write(_json.dumps({"text": r["text"]}) + "\n")
    a = sorted(r["doc_id"] for r in
               read_documents(str(tmp_path / "noid.jsonl")).take_all())
    b = sorted(r["doc_id"] for r in
               read_documents(str(tmp_path / "noid.jsonl")).take_all())
    assert a == b and len(set(a)) == len(rows) and min(a) >= 0


def test_read_documents_idless_duplicates_collapse(tmp_path, ray_session):
    """Identical texts in an id-less source share a content id and must
    collapse to ONE row (unique ids are a downstream precondition)."""
    import json as _json

    from mhray.io import read_documents

    texts = [f"unique doc {i}" for i in range(30)] + ["same body"] * 5
    with open(tmp_path / "dup.jsonl", "w") as f:
        for t in texts:
            f.write(_json.dumps({"text": t}) + "\n")
    rows = read_documents(str(tmp_path / "dup.jsonl")).take_all()
    ids = [r["doc_id"] for r in rows]
    assert len(rows) == 31                      # 30 unique + 1 collapsed
    assert len(set(ids)) == len(ids)            # ids unique
    assert sum(r["text"] == "same body" for r in rows) == 1


def test_read_documents_compressed(tmp_path, ray_session):
    """.jsonl.gz / .csv.gz / .jsonl.bz2 route to the text readers with
    a decompressing stream (reference S2: transparent gz/bz2 opener,
    utils/Utils.java:228-268) — not to the parquet fallthrough."""
    import bz2 as _bz2
    import gzip as _gzip
    import json as _json

    from mhray.io import read_documents

    rows = [{"doc_id": i, "text": f"compressed doc {i} body"}
            for i in range(25)]
    jsonl = "".join(_json.dumps(r) + "\n" for r in rows).encode()
    csv = ("doc_id,text\n" + "".join(
        f"{r['doc_id']},{r['text']}\n" for r in rows)).encode()
    (tmp_path / "d.jsonl.gz").write_bytes(_gzip.compress(jsonl))
    (tmp_path / "d.csv.gz").write_bytes(_gzip.compress(csv))
    (tmp_path / "d.jsonl.bz2").write_bytes(_bz2.compress(jsonl))

    want = {(r["doc_id"], r["text"]) for r in rows}
    for name in ("d.jsonl.gz", "d.csv.gz", "d.jsonl.bz2"):
        ds = read_documents(str(tmp_path / name))
        got = {(r["doc_id"], r["text"]) for r in ds.take_all()}
        assert got == want, name

    # caller-supplied stream args must not re-enable Ray's default
    # extension filter (which would drop the .gz path entirely)
    ds = read_documents(str(tmp_path / "d.jsonl.gz"),
                        arrow_open_stream_args={"compression": "gzip"})
    got = {(r["doc_id"], r["text"]) for r in ds.take_all()}
    assert got == want


def test_read_documents_arrow_ipc(tmp_path, ray_session):
    """.arrow / .feather (random-access file) and .ipc (stream) route
    to the pyarrow IPC parser — one block per file — with the same
    canonical (doc_id, text) output as every other source; an id-less
    IPC source gets stable content-hash ids like JSONL/CSV. IPC writes
    refuse (writing parquet under an .arrow name would poison a later
    read)."""
    import pyarrow as pa
    import pyarrow.feather as feather
    import pytest as _pytest

    import ray.data
    from mhray.io import read_documents, write_documents

    rows = [(i, f"ipc doc {i} body") for i in range(30)]
    t = pa.table({"doc_id": pa.array([r[0] for r in rows], pa.int64()),
                  "text": pa.array([r[1] for r in rows], pa.string())})
    feather.write_feather(t, str(tmp_path / "d.arrow"))
    feather.write_feather(t, str(tmp_path / "d.feather"))
    with pa.ipc.new_stream(str(tmp_path / "d.ipc"), t.schema) as w:
        w.write_table(t)

    want = set(rows)
    for name in ("d.arrow", "d.feather", "d.ipc"):
        got = {(r["doc_id"], r["text"])
               for r in read_documents(str(tmp_path / name)).take_all()}
        assert got == want, name

    # id-less IPC source: stable content-hash ids, one row per id
    feather.write_feather(t.select(["text"]), str(tmp_path / "n.arrow"))
    out = read_documents(str(tmp_path / "n.arrow")).take_all()
    assert len(out) == len(rows)
    assert {r["text"] for r in out} == {r[1] for r in rows}
    assert all(r["doc_id"] >= 0 for r in out)

    with _pytest.raises(NotImplementedError):
        write_documents(ray.data.from_arrow(t), str(tmp_path / "o.arrow"))


def test_read_documents_tsv_orc_txt(tmp_path, ray_session):
    """TSV routes to the CSV reader with a tab ParseOptions; ORC parses
    via pyarrow.orc from binary; .txt ingests ONE DOCUMENT PER FILE
    (book-corpus layout) with content-hash ids, including .txt.gz."""
    import gzip as _gzip

    import pyarrow as pa
    from pyarrow import orc as _orc

    from mhray.io import read_documents

    rows = [(i, f"multi format doc {i} body") for i in range(20)]
    t = pa.table({"doc_id": pa.array([r[0] for r in rows], pa.int64()),
                  "text": pa.array([r[1] for r in rows], pa.string())})
    want = set(rows)

    (tmp_path / "d.tsv").write_text(
        "doc_id\ttext\n" + "".join(f"{i}\t{s}\n" for i, s in rows))
    _orc.write_table(t, str(tmp_path / "d.orc"))
    for name in ("d.tsv", "d.orc"):
        got = {(r["doc_id"], r["text"])
               for r in read_documents(str(tmp_path / name)).take_all()}
        assert got == want, name

    # one doc per .txt file; .txt.gz decompresses in the parse stage
    tdir = tmp_path / "books"
    tdir.mkdir()
    for i, s in rows[:5]:
        (tdir / f"b{i}.txt").write_text(s)
    (tdir / "b9.txt.gz").unlink(missing_ok=True)
    out = read_documents(str(tdir), fmt="txt").take_all()
    assert {r["text"] for r in out} == {s for _, s in rows[:5]}
    assert len(out) == 5 and all(r["doc_id"] >= 0 for r in out)

    gz = tmp_path / "one.txt.gz"
    gz.write_bytes(_gzip.compress("a gzipped plain text doc".encode()))
    out = read_documents(str(gz)).take_all()
    assert [r["text"] for r in out] == ["a gzipped plain text doc"]


def test_read_documents_ipc_mixed_nullability(tmp_path, ray_session):
    """Multiple IPC files whose schemas differ only in nullability /
    field order must unify under promote_options="default" instead of
    failing the batch concat; a caller-supplied file_extensions kwarg
    must override the helper's default rather than raising 'got
    multiple values' (ADVICE r4, io.py:89/98)."""
    import pyarrow as pa
    import pyarrow.feather as feather

    from mhray.io import read_documents

    t1 = pa.table({"doc_id": pa.array([1, 2], pa.int64()),
                   "text": pa.array(["a a a", "b b b"], pa.string())})
    # same columns, opposite field order and non-nullable fields
    schema2 = pa.schema([pa.field("text", pa.string(), nullable=False),
                         pa.field("doc_id", pa.int64(), nullable=False)])
    t2 = pa.table({"text": pa.array(["c c c", "d d d"], pa.string()),
                   "doc_id": pa.array([3, 4], pa.int64())}).cast(schema2)
    feather.write_feather(t1, str(tmp_path / "a.arrow"))
    feather.write_feather(t2, str(tmp_path / "b.arrow"))

    # one read over the directory sees both files in (potentially) one
    # binary batch -> exercises the concat path
    got = {(r["doc_id"], r["text"])
           for r in read_documents(str(tmp_path), fmt="ipc").take_all()}
    assert got == {(1, "a a a"), (2, "b b b"), (3, "c c c"), (4, "d d d")}

    # explicit file_extensions passes through as an override
    got2 = {(r["doc_id"], r["text"])
            for r in read_documents(str(tmp_path), fmt="ipc",
                                    file_extensions=["arrow"]).take_all()}
    assert got2 == got


def test_countmin_merge_preserves_grid_shape():
    """merge must inherit dimensions from the grid, not round-trip
    them through (eps, delta) floats — ceil of an inexact division
    reconstructed width+1 for many widths, leaving the merged sketch's
    modulus disagreeing with its grid (IndexError / wrong cells)."""
    from mhray.stages.freqjob import CountMin

    a = CountMin(eps=0.0013980199, delta=1e-3)  # width 1945 repro
    b = CountMin(eps=0.0013980199, delta=1e-3)
    keys = np.arange(1000, dtype=np.int64)
    a.add(keys)
    b.add(keys)
    m = a.merge(b)
    assert m.width == a.width and m.grid.shape == a.grid.shape
    assert (m.query(keys) >= 2).all()
    m.add(keys)  # previously IndexError on the phantom column
    import pytest as _pytest

    with _pytest.raises(ValueError):
        a.merge(CountMin(eps=0.01, delta=1e-3))


def test_scrub_pii_dates_not_phones():
    """ISO dates, dd-mm-yyyy dates and spaced numeric ranges must
    survive scrubbing; phone shapes must still be caught."""
    from mhray.stages.text import scrub_pii

    keep = ["released on 2026-08-19 by", "meet 19-08-2026 ok",
            "pages 100 - 200 - 300"]
    redact = ["call +1 (555) 123-4567 now", "ring (0171) 123 4567",
              "dial 555-123-4567", "tel 0171 123 4567"]
    out = scrub_pii(pa.table({"text": pa.array(keep + redact)}))
    scrubbed = out.column("text_scrubbed").to_pylist()
    n_phone = out.column("n_phone").to_pylist()
    for i, t in enumerate(keep):
        assert scrubbed[i] == t and n_phone[i] == 0, t
    for j in range(len(keep), len(keep) + len(redact)):
        assert "[PHONE]" in scrubbed[j] and n_phone[j] == 1
        assert not any(ch.isdigit() for ch in scrubbed[j])


def test_text_stages_tolerate_null_text():
    """A null text row must degrade like an empty doc in every text
    stage, never AttributeError the whole map_batches task."""
    from mhray.stages.text import (bpe_token_count, compression_ratio,
                                   lang_id, token_stats,
                                   winnow_fingerprints)

    batch = pa.table({
        "doc_id": pa.array([0, 1, 2], pa.int64()),
        "text": pa.array(["the quick fox", None, ""], pa.string()),
    })
    ts = token_stats(batch)
    assert ts.column("n_tokens").to_pylist()[0] == 3
    assert ts.column("n_chars").to_pylist()[1] == 0
    assert ts.column("stop_ratio").to_pylist()[0] == 3333
    assert bpe_token_count(batch).column("n_bpe_tokens").to_pylist() == \
        [3, 0, 0]
    assert lang_id(batch).column("lang_pred").to_pylist()[1] == "und"
    assert compression_ratio(batch).column("raw_bytes").to_pylist()[1] == 0
    fp = winnow_fingerprints(batch)
    assert 1 not in set(fp.column("doc_id").to_pylist())
