"""Pipeline configuration.

Mirrors the reference CLI option surface (main/MhapMain.java:60-91 for the
defaults, :137-198 for the --settings presets) as a frozen dataclass plus
preset dictionaries. Sketch sizes must match between any two tables being
compared (impl/MinHashSearch.java:157-159), so the config travels with every
stage.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class MhapConfig:
    # --- stage 1: MinHash signature (T1) ---
    kmer_size: int = 16                 # -k (MhapMain.java:75)
    num_hashes: int = 512               # --num-hashes (MhapMain.java:87)
    num_min_matches: int = 3            # --num-min-matches (MhapMain.java:83)
    repeat_weight: float = 0.9          # --repeat-weight (MhapMain.java:69)
    repeat_idf_scale: float = 3.0       # --repeat-idf-scale (MhapMain.java:71)
    filter_cutoff: float = 1.0e-5       # --filter-threshold (MhapMain.java:73)
    idf_offset: float = 0.0             # FrequencyCounts ctor `offset`
    no_tf: bool = False                 # --no-tf
    remove_unique: int = 0              # --filter behavior 0/1/2 (FrequencyCounts.java:63-67)

    # --- stage 2: bottom-k positional sketch + verify (T2, §2.9) ---
    ordered_kmer_size: int = 12         # --ordered-kmer-size (MhapMain.java:89)
    ordered_sketch_size: int = 1536     # --ordered-sketch-size (MhapMain.java:91)
    threshold: float = 0.78             # --threshold (MhapMain.java:67)
    max_shift: float = 0.2              # --max-shift (MhapMain.java:77)

    # --- filters ---
    min_olap_length: int = 116          # --min-olap-length = k+100 (MhapMain.java:81)
    min_store_length: int = 0           # --min-store-length (MhapMain.java:79)

    # --- image axis (B): pHash banding — BitVectorIndex analog
    # (sketch/BitVectorIndex.java:50-62); 4 bands x 16 bits guarantees
    # recall for Hamming distance <= 3, probabilistic beyond.
    phash_bands: int = 4
    phash_band_bits: int = 16
    phash_max_hamming: int = 10         # accept gate on candidate pairs

    # --- exact-substring pass (stages/substring.py: winnowed
    # fingerprints, then an exact per-pair LCS verify) ---
    substr_pass: bool = False           # fold exact-substring pairs into the
                                        # flagship's caption condition
    substr_min_length: int = 32         # minimal shared-substring length
    substr_window: int = 16             # winnowing window (fingerprint sampling)

    # --- MinHash bit-sketch pre-filter (F5, MinHashBitSketch.java) ---
    # opt-in: attach the 64x-smaller 1-bit/slot signature to candidate
    # pairs and drop pairs whose (sim-0.5)*2 estimate falls below
    # bit_prefilter_min BEFORE fetching the full bottom sketches. A
    # filter, not a gate change: set the min low enough (estimator std
    # ~= 2*sqrt(0.25/H)) that no true pair is lost.
    bit_prefilter: bool = False
    bit_prefilter_min: float = 0.0

    # --- scale knobs (engine-side, no reference analog) ---
    band_group_cap: int = 2000          # max ids in one (slot,value) LSH group;
                                        # larger groups are capped with logged drops
    sketch_batch_size: int = 256        # rows per map_batches call in the sketcher
                                        # (small enough that every worker has
                                        # a batch in flight)
    verify_batch_size: int = 1024
    cluster_max_rounds: int = 50        # union-find fixpoint bound (O(log n) typical)

    # Shorter captions than the genomic reads the reference tunes for:
    # min_olap_length=116 would drop nearly all captions, so pipelines on
    # caption-like text override it; presets below keep reference values.

    def with_(self, **kw) -> "MhapConfig":
        return replace(self, **kw)


# --settings presets (MhapMain.java:137-198): default / fast / sensitive
PRESETS: dict[str, MhapConfig] = {
    "default": MhapConfig(),
    "fast": MhapConfig(num_hashes=256, threshold=0.80, ordered_sketch_size=1000),
    "sensitive": MhapConfig(num_hashes=768, threshold=0.73, num_min_matches=2),
    # engine-native preset for short caption text (not in reference)
    "captions": MhapConfig(min_olap_length=20, num_hashes=256,
                           ordered_sketch_size=512, threshold=0.78),
}

# the reference's --settings sensitive deltas (threshold 0.73, 768
# hashes, min matches 2 — main/MhapMain.java:137-198) applied to the
# caption-text base: the recall-tuning preset for caption corpora,
# where the genomic sensitive preset's min_olap_length=116 would drop
# nearly every row. See CALIBRATION.md for the measured recall curve.
PRESETS["captions_sensitive"] = PRESETS["captions"].with_(
    threshold=0.73, num_hashes=768, num_min_matches=2)
