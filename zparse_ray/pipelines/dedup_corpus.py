"""End-to-end corpus deduplication: documents parquet in → deduplicated
partitioned parquet out, with a per-run stats dict. The pipeline a
training-data curation run would actually execute, built from the
engine's dedup operators (stages/dedup.py) — the reference has no
cross-document operators (SURVEY §2.4), so this is north-rule surface.

Two modes:

- ``exact``: content-hash (normalized text) → keep the minimum-id doc
  per identical text. Scale shape: ONE shuffle of compact
  (hash, doc_id) rows picks winners; the winner-id set then flows into
  a bucketed semi-mark join (stages/joins.bucketed_semi_mark — one
  more id-only shuffle), so document TEXT never shuffles.

- ``minhash``: ``stages.dedup.verified_neardup_pairs`` (MinHash+LSH
  star candidates → exact-Jaccard verify at ``threshold``, every step
  distributed) → connected components (stages/dedup.
  connected_components, distributed min-label propagation) → keep the
  minimum-id doc per near-dup component. Identical texts have
  identical signatures, so exact dups collapse too. Component labels
  never land on the driver, and the drop set applies via the same
  bucketed semi-mark exact mode uses. ``bucket_cap`` bounds hot LSH
  buckets in the candidate stream (``lsh_candidate_pairs_batched``);
  any truncation is counted in ``n_truncated_slots`` and logged.

Keep decisions are deterministic (min doc_id) — reruns reproduce the
same corpus. Output is one parquet file per input block
(``write_parquet`` directory), resumable by re-running into a fresh
directory.
"""

from __future__ import annotations

import logging

import pyarrow as pa
import pyarrow.compute as pc

logger = logging.getLogger("zparse_ray.dedup_corpus")


def read_documents(input_path: str):
    """Format-dispatched corpus reader (S1's extension sniff applied to
    the table layer): parquet (default), JSONL (``.jsonl``/``.ndjson``
    — one document object per line) or CSV (``.csv``). Each maps to the
    matching Ray Data source so every format streams as blocks."""
    import ray.data as rd

    low = input_path.lower()
    if low.endswith((".jsonl", ".ndjson")):
        return rd.read_json(input_path)
    if low.endswith(".csv"):
        return rd.read_csv(input_path)
    # strip pandas schema metadata at the read: it makes pa.Schema
    # unhashable, so every block otherwise triggers Ray's schema-dedup
    # warning in the workers (the driver_queries._read precedent)
    import glob
    import os

    import pyarrow.parquet as pq

    one = input_path
    if os.path.isdir(input_path):
        files = sorted(glob.glob(os.path.join(input_path, "**", "*.parquet"),
                                 recursive=True))
        if files:
            one = files[0]
    try:
        schema = pq.read_schema(one).remove_metadata()
    except Exception:
        return rd.read_parquet(input_path)
    return rd.read_parquet(input_path, schema=schema)


def _keep_ids_exact(docs, id_column: str, text_column: str):
    """Winner (minimum) id per identical normalized text — returns a
    Dataset[(keep_id,)]. Only (hash, id) rows shuffle."""
    from ray.data.aggregate import Min

    from ..stages.dedup import content_hash_batch

    def project(t: pa.Table) -> pa.Table:
        h = content_hash_batch(t, column=text_column)
        return pa.table({"content_hash": h["content_hash"], "doc_id": t[id_column]})

    return (
        docs.map_batches(project, batch_format="pyarrow")
        .groupby("content_hash")
        .aggregate(Min("doc_id", alias_name="keep_id"))
    )


def _drop_ids_minhash(docs, id_column: str, text_column: str, threshold: float,
                      est_rows: int | None = None, *, n_perm: int = 128,
                      n_bands: int = 16, shingle_k: int = 5,
                      bucket_cap: int = 64):
    """Ids to DROP under near-dup semantics: every node of a near-dup
    component except its minimum id, from connected components over
    the ``verified_neardup_pairs`` edges; labels never land on the
    driver. Returns ``(drop_ds | None, n_drop, n_components,
    n_truncated_slots, n_candidate_pairs)`` where ``drop_ds`` is a
    Dataset[(drop_id,)] to semi-mark against.
    """
    from ..stages.dedup import connected_components, verified_neardup_pairs

    # fail FAST and clearly on non-integer ids: the minhash chain
    # (band explode, pair keys, component labels) is int64 end-to-end,
    # and without this check the type error surfaces as a cryptic
    # RayTaskError deep inside the signature stage. Exact mode
    # supports string ids (hash + keyed Min + semi-mark all take them).
    if n_perm % n_bands:
        raise ValueError(
            f"n_perm ({n_perm}) must be divisible by n_bands ({n_bands})"
        )
    id_type = dict(zip(docs.schema().names, docs.schema().types)).get(id_column)
    if id_type is not None and not pa.types.is_integer(id_type):
        raise ValueError(
            f"dedup mode='minhash' requires an integer {id_column!r} column "
            f"(got {id_type}); use mode='exact' for string ids, or add a "
            f"dense integer id column first"
        )

    def rename(t: pa.Table) -> pa.Table:
        return pa.table({"doc_id": t[id_column], "text": t[text_column]})

    # star edges (min_id -> member) per bucket: O(k) rows per bucket
    # instead of O(k^2) — the component stage only needs connectivity
    # that survives verification against the bucket representative, so
    # a 40-replica dup family costs 39 verifies, not 780. Trade: a
    # member failing the representative verify keeps its doc even if
    # it would have verified against another member (recall is set by
    # the banding either way; measured identical drops on the planted
    # test corpora).
    edges, n_truncated, n_candidate_pairs = verified_neardup_pairs(
        docs.map_batches(rename, batch_format="pyarrow"),
        threshold=threshold, shingle_k=shingle_k, star=True, cap=bucket_cap,
        est_rows=est_rows, n_perm=n_perm, n_bands=n_bands,
    )
    if edges is None:
        return None, 0, 0, n_truncated, 0
    labels = connected_components(edges, n_buckets=8)
    drop_ds = labels.map_batches(
        lambda t: pa.table(
            {"drop_id": t.filter(pc.not_equal(t["node"], t["component"]))["node"]}
        ),
        batch_format="pyarrow",
    ).materialize()
    n_drop = drop_ds.count()
    if n_drop == 0:
        return None, 0, 0, n_truncated, n_candidate_pairs
    # component representatives label themselves (min-label fixpoint)
    n_components = labels.map_batches(
        lambda t: pa.table(
            {"node": t.filter(pc.equal(t["node"], t["component"]))["node"]}
        ),
        batch_format="pyarrow",
    ).count()
    return drop_ds, n_drop, n_components, n_truncated, n_candidate_pairs


def dedup_corpus(
    input_path: str,
    out_dir: str,
    *,
    mode: str = "exact",
    id_column: str = "doc_id",
    text_column: str = "text",
    threshold: float = 0.8,
    reference: str | None = None,
    cross_method: str = "broadcast",
    n_perm: int = 128,
    n_bands: int = 16,
    shingle_k: int = 5,
    bucket_cap: int = 64,
) -> dict:
    """Run corpus dedup; write surviving rows as partitioned parquet
    under ``out_dir`` (must not already contain files — a dirty
    directory would mix runs and corrupt counts) and return a stats
    dict. With ``reference`` set, docs whose normalized content already
    exists in that corpus are dropped FIRST (incremental-ingestion
    dedup via ``stages.dedup.cross_corpus_dedup``; ``cross_method`` =
    broadcast | bloom | shuffle), then within-corpus dedup runs on the
    survivors. ``n_perm`` / ``n_bands`` / ``shingle_k`` tune the LSH
    operating point (n_perm must be divisible by n_bands; more bands =
    higher recall at lower effective threshold); ``bucket_cap`` bounds
    hot-bucket pair emission — truncation stays NON-silent either way
    (``n_truncated_slots`` + a log warning)."""
    import os

    import ray.data as rd

    from ..stages.joins import bucketed_semi_mark

    if mode not in ("exact", "minhash"):
        raise ValueError(f"unknown dedup mode: {mode!r}")
    if os.path.isdir(out_dir) and os.listdir(out_dir):
        raise ValueError(f"out_dir {out_dir!r} is not empty — refusing to mix runs")
    docs = read_documents(input_path)
    n_in = docs.count()

    cross_stats = {}
    if reference is not None:
        from ..stages.dedup import cross_corpus_dedup

        # broadcast/bloom build the reference set eagerly ONCE (it
        # lives in plasma); the returned dataset stays lazy, so the
        # multi-scan passes below just re-run the cheap per-batch
        # membership filter. shuffle mode re-runs its co-shuffle per
        # scan — exact-but-heavier, the no-driver-state trade.
        docs = cross_corpus_dedup(
            docs,
            read_documents(reference),
            column=text_column,
            method=cross_method,
            est_rows=n_in,
        )
        n_after_cross = docs.count()
        cross_stats = {"n_cross_dropped": int(n_in - n_after_cross)}
    n_base = n_in - cross_stats.get("n_cross_dropped", 0)

    if mode == "exact":
        # materialized: the winner-id set feeds both the survivor count
        # and the semi-mark, so the (hash, id) shuffle runs once
        keep = _keep_ids_exact(docs, id_column, text_column).materialize()
        marked = bucketed_semi_mark(
            docs, keep, left_on=id_column, key_col="keep_id", est_rows=n_base
        )

        def keep_hits(t: pa.Table) -> pa.Table:
            return t.filter(pc.equal(t["__hit"], 1)).drop_columns(["__hit"])

        out = marked.map_batches(keep_hits, batch_format="pyarrow")
        # survivor count = one winner per distinct content hash — a tiny
        # keyed aggregate over (hash, id) rows, NOT a re-scan of the
        # written corpus
        n_out = keep.count()
        extra = {}
    else:
        drop_ds, n_drop, n_components, n_truncated, n_cand = _drop_ids_minhash(
            docs, id_column, text_column, threshold, est_rows=n_base,
            n_perm=n_perm, n_bands=n_bands, shingle_k=shingle_k,
            bucket_cap=bucket_cap,
        )
        if drop_ds is not None:
            # apply the drop set distributedly (exact mode's shape):
            # one id-only co-shuffle semi-mark, never a driver id array
            marked = bucketed_semi_mark(
                docs, drop_ds, left_on=id_column, key_col="drop_id",
                est_rows=n_base,
            )

            def keep_misses(t: pa.Table) -> pa.Table:
                return t.filter(pc.equal(t["__hit"], 0)).drop_columns(["__hit"])

            out = marked.map_batches(keep_misses, batch_format="pyarrow")
        else:
            out = docs
        # ids are unique, so the survivor count is exact arithmetic
        n_out = n_base - n_drop
        extra = {"n_neardup_components": n_components,
                 "n_truncated_slots": n_truncated,
                 "n_candidate_pairs": n_cand}

    out.write_parquet(out_dir)
    return {
        "mode": mode,
        "n_docs_in": int(n_in),
        "n_docs_out": int(n_out),
        "n_dropped": int(n_in - n_out),
        "out_dir": out_dir,
        **cross_stats,
        **extra,
    }
