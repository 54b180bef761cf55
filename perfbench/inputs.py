"""Seeded inputs of the three workloads.

Every input is a pure function of the seed, built single-threaded in the
benchmark process; the engine receives only the written files.
"""

from __future__ import annotations

import json
import os
import random
import string

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

# validate workloads: (SynthConfig overrides, run_validation kwargs).
# validate_mixed keeps synth's default kind mix and planted violation
# rates; run_validation's 4,096-row batches bundle its 16 partitions of
# 1,250 docs into 4 tasks. validate_dupskew plants many repeated doc_ids
# (synth concentrates them in hot ranges) and forces phase 2a onto the
# distributed groupby + bucket-join path that runs at 10^12 docs.
VALIDATE = {
    "validate_mixed": ({"n_docs": 20_000, "n_partitions": 16}, {}),
    "validate_dupskew": (
        {"n_docs": 10_000, "n_partitions": 8, "dup_rate": 0.2},
        {"dup_driver_threshold": 0, "max_broadcast_dups": 0},
    ),
}

# dedup_minhash: R near-copies of a seeded base corpus plus a few hot
# families (boilerplate with many copies) that make hot LSH buckets.
CORPUS_BASE_DOCS = 2_000
CORPUS_REPLICAS = 4
CORPUS_HOT_FAMILIES = 5
CORPUS_HOT_COPIES = 24
CORPUS_WORD_DROP = 0.02
CORPUS_FILES = 8


def build_spans(workload: str, seed: int, base_dir: str, **overrides) -> str:
    """Write the workload's spans table (one parquet file per partition)
    under ``base_dir``; returns the dataset directory."""
    from zparse_ray.synth import SynthConfig, ensure_dataset

    cfg = SynthConfig(seed=seed, **{**VALIDATE[workload][0], **overrides})
    return ensure_dataset(cfg, base_dir=base_dir)


def build_oracle(spans_dir: str) -> tuple[list, list]:
    """Reference (violations, verdicts) from the single-process oracle,
    cached beside the input as ``oracle.json``."""
    from zparse_ray.oracle import oracle_validate

    path = os.path.join(spans_dir, "oracle.json")
    if os.path.exists(path):
        with open(path) as f:
            viols, verdicts = json.load(f)
        return viols, verdicts
    viols, verdicts = oracle_validate(spans_dir)
    with open(path + ".tmp", "w") as f:
        json.dump([viols, verdicts], f)
    os.replace(path + ".tmp", path)
    return viols, verdicts


def corpus_texts(seed: int, n_base: int = CORPUS_BASE_DOCS) -> list[str]:
    """Near-duplicate-heavy text corpus: ``CORPUS_REPLICAS`` copies of
    ``n_base`` seeded documents, every copy after the first losing each
    word with probability ``CORPUS_WORD_DROP``, plus hot families of
    ``CORPUS_HOT_COPIES`` mutated copies each. Row order is shuffled."""
    rng = random.Random(seed)
    vocab = [
        "".join(rng.choice(string.ascii_lowercase) for _ in range(rng.randint(3, 9)))
        for _ in range(6_000)
    ]
    base = [[rng.choice(vocab) for _ in range(rng.randint(30, 120))] for _ in range(n_base)]

    def mutate(toks: list[str]) -> str:
        return " ".join(w for w in toks if rng.random() >= CORPUS_WORD_DROP)

    texts = []
    for r in range(CORPUS_REPLICAS):
        texts.extend(" ".join(t) if r == 0 else mutate(t) for t in base)
    for h in range(CORPUS_HOT_FAMILIES):
        texts.extend(mutate(base[h]) for _ in range(CORPUS_HOT_COPIES))
    rng.shuffle(texts)
    return texts


def build_corpus(seed: int, out_dir: str, n_base: int = CORPUS_BASE_DOCS) -> np.ndarray:
    """Write the replica corpus as ``CORPUS_FILES`` parquet files with
    int64 ``doc_id`` and ``text``; returns the ids."""
    texts = corpus_texts(seed, n_base)
    ids = np.arange(len(texts), dtype=np.int64)
    os.makedirs(out_dir, exist_ok=True)
    bounds = np.linspace(0, len(texts), CORPUS_FILES + 1).astype(int)
    for i in range(CORPUS_FILES):
        lo, hi = bounds[i], bounds[i + 1]
        pq.write_table(
            pa.table({"doc_id": pa.array(ids[lo:hi]), "text": pa.array(texts[lo:hi], pa.string())}),
            os.path.join(out_dir, f"part-{i:05d}.parquet"),
        )
    return ids


def read_ids(out_dir: str) -> np.ndarray:
    """doc_id column of every parquet file a run wrote under ``out_dir``."""
    files = sorted(
        os.path.join(out_dir, f) for f in os.listdir(out_dir) if f.endswith(".parquet")
    )
    if not files:
        return np.empty(0, dtype=np.int64)
    return pq.read_table(files, columns=["doc_id"])["doc_id"].to_numpy().astype(np.int64)
