"""Per-layer probes of the traced run.

Each probe re-drives one module of the engine through its public
functions and returns ``{metric name: value}``. The single-core probes
run in the benchmark process; the Ray probes need a live session.
"""

from __future__ import annotations

import glob
import os
import re
import shutil
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ledger

GRAMMAR = ("json", "jsonc", "csv", "toml", "yaml", "xml")
MIN_PROBE_S = 0.2  # repeat sub-millisecond kernels until this much time


def _rate(fn, n_items: int) -> float:
    """Items per second of ``fn()``, repeated until ``MIN_PROBE_S``."""
    reps, t0 = 0, time.perf_counter()
    while True:
        fn()
        reps += 1
        dt = time.perf_counter() - t0
        if dt >= MIN_PROBE_S:
            return n_items * reps / dt


def _spans_of(table: pa.Table):
    """(kinds, texts as an object array, text byte lengths) of every span."""
    sv = table["spans"].combine_chunks().flatten()
    kinds = pc.fill_null(sv.field("kind"), "").to_numpy(zero_copy_only=False)
    text_arr = pc.fill_null(sv.field("text"), "")
    texts = np.array(text_arr.to_pylist(), dtype=object)
    nbytes = pc.binary_length(pc.cast(text_arr, pa.binary())).to_numpy()
    return kinds, texts, nbytes


def _partition_files(spans_dir: str) -> list[str]:
    return sorted(glob.glob(os.path.join(spans_dir, "spans", "part-*.parquet")))


def _sorted_assets(spans_dir: str) -> np.ndarray:
    t = pq.read_table(os.path.join(spans_dir, "assets.parquet"), columns=["asset_id"])
    return np.sort(t["asset_id"].to_numpy(zero_copy_only=False))


# -- functions/ ---------------------------------------------------------------
def functions_layer(spans_dir: str, tracer, max_docs: int = 5_000) -> dict:
    """Single-core grammar walk per format over the workload's own spans,
    through ``stages.spancheck.validate_payloads``, plus the sketch adds."""
    from zparse_ray.functions.sketches import HyperLogLog, TDigest
    from zparse_ray.stages.spancheck import validate_payloads

    tables, n = [], 0
    for f in _partition_files(spans_dir):
        tables.append(pq.read_table(f))
        n += tables[-1].num_rows
        if n >= max_docs:
            break
    table = pa.concat_tables(tables)
    kinds, texts, nbytes = _spans_of(table)
    out, walk = {}, {}
    for kind in GRAMMAR:
        idxs = np.flatnonzero(kinds == kind)
        with tracer.span("validate_payloads", kind=kind, n_spans=len(idxs)):
            t0 = time.perf_counter()
            validate_payloads(kinds, texts, idxs, False)
            walk[kind] = time.perf_counter() - t0
        out[f"functions.parse.{kind}.spans_per_s"] = len(idxs) / walk[kind]
    total = sum(walk.values())
    for kind in GRAMMAR:
        out[f"functions.parse.{kind}.walk_share"] = walk[kind] / total

    lens = nbytes.astype(np.float64)
    doc_ids = table["doc_id"].to_numpy(zero_copy_only=False)
    with tracer.span("TDigest.add", n=len(lens)):
        out["functions.sketches.tdigest_add_per_s"] = _rate(lambda: TDigest().add(lens), len(lens))
    with tracer.span("HyperLogLog.add", n=len(doc_ids)):
        out["functions.sketches.hll_add_per_s"] = _rate(
            lambda: HyperLogLog().add(doc_ids), len(doc_ids)
        )
    return out


# -- stages/spancheck -----------------------------------------------------------
def spancheck_layer(spans_dir: str, work: str, tracer, reps: int = 5) -> dict:
    """One core, one input partition: ``SpanValidator.__call__`` with and
    without its sink, and the grammar walk of the same spans, interleaved
    ``reps`` times (medians). The three shares split the call with the
    sink, which is how the pipeline calls it."""
    from zparse_ray.schema import GRAMMAR_KINDS
    from zparse_ray.stages.spancheck import SpanValidator, validate_payloads

    batch = pq.read_table(_partition_files(spans_dir)[0])
    assets = _sorted_assets(spans_dir)
    kinds, texts, _ = _spans_of(batch)
    gram_idx = np.flatnonzero(np.isin(kinds, list(GRAMMAR_KINDS)))
    sink_dir = os.path.join(work, "spancheck_sink")
    plain = SpanValidator(assets_ref=assets, assets_sorted=True)
    sink = SpanValidator(assets_ref=assets, assets_sorted=True, out_dir=sink_dir)
    calls = {
        "SpanValidator.__call__": lambda: plain(batch),
        "SpanValidator.__call__[out_dir]": lambda: sink(batch),
        "validate_payloads": lambda: validate_payloads(kinds, texts, gram_idx, False),
    }
    times: dict[str, list[float]] = {name: [] for name in calls}
    for _ in range(reps):
        for name, fn in calls.items():
            with tracer.span(name):
                t0 = time.perf_counter()
                fn()
                times[name].append(time.perf_counter() - t0)
    shutil.rmtree(sink_dir, ignore_errors=True)
    t_plain, t_sink, t_walk = (ledger.median(ts) for ts in times.values())
    return {
        "spancheck.docs_per_s_core": batch.num_rows / t_sink,
        "spancheck.walk_share": t_walk / t_sink,
        "spancheck.sink_share": (t_sink - t_plain) / t_sink,
        "spancheck.other_share": (t_plain - t_walk) / t_sink,
    }


# -- pipelines/validate phases ----------------------------------------------------
def phase_metrics(results: list[tuple[float, dict]]) -> dict:
    """Median phase times over (wall, run_validation result) pairs.
    run_validation rounds its timings to 1 ms and the plan phase takes
    about that long, so ``plan_s`` is the call's wall time minus the
    three later phases."""
    def med(key):
        return ledger.median([r["timings"][key] for _, r in results])

    return {
        "validate.plan_s": ledger.median(
            [
                wall - sum(r["timings"][k] for k in ("phase1", "phase2a_dups", "phase2b_verdicts"))
                for wall, r in results
            ]
        ),
        "validate.phase1_s": med("phase1"),
        "validate.phase2a_s": med("phase2a_dups"),
        "validate.phase2b_s": med("phase2b_verdicts"),
    }


# -- Ray executor, phase 1 ---------------------------------------------------------
def timed_validate_task(batch: pa.Table, **kw) -> pa.Table:
    """``validate_task`` with its busy time appended as ``__udf_s`` (on the
    first output row, so the column sums to the busy time)."""
    from zparse_ray.stages.spancheck import validate_task

    t0 = time.perf_counter()
    out = validate_task(batch, **kw)
    dt = time.perf_counter() - t0
    col = np.zeros(out.num_rows)
    if out.num_rows:
        col[0] = dt
    return out.append_column("__udf_s", pa.array(col))


_TASKS_RE = re.compile(r"MapBatches\(timed_validate_task\)[^\n]*?(\d+) tasks executed")


def ray_phase1_layer(spans_dir: str, work: str, ray_cpus: int, tracer) -> dict:
    """Re-drive phase 1 as run_validation does (read_parquet, one block per
    partition, map_batches over ``validate_task``) with the UDF timed."""
    import ray
    import ray.data as rd

    from zparse_ray.stages.spancheck import DEFAULT_MAX_SPAN_BYTES

    files = _partition_files(spans_dir)
    out_dir = os.path.join(work, "phase1")
    for sub in ("violations", "docmeta"):
        os.makedirs(os.path.join(out_dir, sub), exist_ok=True)
    ds = rd.read_parquet(files, override_num_blocks=len(files)).map_batches(
        timed_validate_task,
        fn_kwargs={
            "assets_ref": ray.put(_sorted_assets(spans_dir)),
            "out_dir": out_dir,
            "round_trip": False,
            "carry_doc_hashes": True,
            "quarantine": False,
            "max_span_bytes": DEFAULT_MAX_SPAN_BYTES,
            "parser_configs": None,
        },
        batch_size=4096,
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    with tracer.span("phase1.map_batches(validate_task)"):
        j0 = ledger.cpu_jiffies()
        t0 = time.perf_counter()
        busy = sum(
            pc.sum(b["__udf_s"]).as_py() or 0.0
            for b in ds.iter_batches(batch_size=None, batch_format="pyarrow")
        )
        wall = time.perf_counter() - t0
        host = ledger.cpu_window(j0, ledger.cpu_jiffies())
    shutil.rmtree(out_dir, ignore_errors=True)
    m = _TASKS_RE.search(ds.stats())
    return {
        "ray.phase1.udf_busy_s": busy,
        "ray.phase1.udf_share": busy / (wall * ray_cpus),
        "ray.phase1.n_tasks": int(m.group(1)) if m else len(files),
        "host.cpu_busy_frac": host["busy_frac"],
        "host.steal_frac": host["steal_frac"],
    }


# -- stages/joins and the uniqueness path ---------------------------------------------
def uniqueness_layer(out_dir: str, tracer) -> dict:
    """Re-drive phase 2a's distributed path on a finished run's docmeta/:
    ``groupby("doc_id").count()`` and the bucketed join of docmeta with the
    duplicate counts."""
    import ray.data as rd

    from zparse_ray.stages.joins import bucketed_shuffle_join

    meta_files = sorted(glob.glob(os.path.join(out_dir, "docmeta", "part-*.parquet")))
    n_meta = sum(pq.ParquetFile(f).metadata.num_rows for f in meta_files)
    meta = rd.read_parquet(meta_files, columns=["partition_id", "doc_id"])
    for _ in range(2):  # the first groupby of a session pays the shuffle's set-up
        with tracer.span("groupby(doc_id).count"):
            t0 = time.perf_counter()
            counts = meta.groupby("doc_id").count().materialize()
            t_groupby = time.perf_counter() - t0
    cnt = [c for c in counts.schema().names if c != "doc_id"][0]

    def dup_keys(t: pa.Table) -> pa.Table:
        d = t.filter(pc.greater(t[cnt], 1))
        return pa.table({"dup_id": d["doc_id"], "dup_n": pc.cast(d[cnt], pa.int64())})

    dups = counts.map_batches(dup_keys, batch_format="pyarrow").materialize()
    n_dup_ids = dups.count()
    n_dup_rows = int(dups.sum("dup_n") or 0) if n_dup_ids else 0
    with tracer.span("bucketed_shuffle_join", on="doc_id"):
        t0 = time.perf_counter()
        joined = bucketed_shuffle_join(
            meta, dups, left_on="doc_id", right_on="dup_id", est_rows=n_meta
        ).materialize()
        t_join = time.perf_counter() - t0
    if joined.count() != n_dup_rows:
        raise RuntimeError(f"join gave {joined.count()} rows, expected {n_dup_rows}")
    return {
        "validate.dup_groupby_s": t_groupby,
        "joins.shuffle_join_s": t_join,
        "validate.n_dup_ids": n_dup_ids,
        "validate.n_dup_rows": n_dup_rows,
    }


# -- stages/dedup and pipelines/dedup_corpus ---------------------------------------------
# dedup_corpus(mode="minhash") defaults, re-driven stage by stage
N_PERM, N_BANDS, SHINGLE_K, BUCKET_CAP, THRESHOLD = 128, 16, 5, 64, 0.8


def dedup_layer(corpus_dir: str, tracer) -> dict:
    """Re-drive the minhash chain of ``dedup_corpus`` stage by stage, each
    stage materialized and timed."""
    import ray
    import ray.data as rd

    from zparse_ray.pipelines.dedup_corpus import read_documents
    from zparse_ray.stages.dedup import (
        MinHasher,
        connected_components,
        lsh_candidate_pair_stream,
        pair_jaccard,
    )
    from zparse_ray.stages.joins import bucketed_semi_mark, bucketed_shuffle_join

    def timed(name, fn):
        with tracer.span(name):
            t0 = time.perf_counter()
            out = fn()
            return out, time.perf_counter() - t0

    docs = read_documents(corpus_dir).materialize()
    n_docs = docs.count()
    n_actors = max(1, min(16, int(ray.cluster_resources().get("CPU", 3)) - 1))
    bands, t_sig = timed(
        "MinHasher",
        lambda: docs.map_batches(
            MinHasher,
            fn_constructor_kwargs={"n_perm": N_PERM, "n_bands": N_BANDS, "shingle_k": SHINGLE_K},
            batch_format="pyarrow",
            concurrency=n_actors,
        ).materialize(),
    )
    cand, t_lsh = timed(
        "lsh_candidate_pair_stream",
        lambda: lsh_candidate_pair_stream(
            bands, star=True, cap=BUCKET_CAP, est_rows=n_docs
        ).materialize(),
    )
    n_truncated = int(cand.sum("n_dropped") or 0)
    pairs_tbl = pa.concat_tables(ray.get(cand.to_arrow_refs()))
    pairs_tbl = pairs_tbl.filter(pc.greater_equal(pairs_tbl["a"], 0)).select(["a", "b"])
    pairs_tbl = pairs_tbl.group_by(["a", "b"]).aggregate([])
    n_pairs = pairs_tbl.num_rows
    pairs = rd.from_arrow(pairs_tbl)

    def text_as(col):
        return lambda t: pa.table({"doc_id": t["doc_id"], col: t["text"]})

    def text_join():
        j1 = bucketed_shuffle_join(
            pairs, docs.map_batches(text_as("_text_a"), batch_format="pyarrow"),
            left_on="a", right_on="doc_id", est_rows=n_docs,
        )
        return bucketed_shuffle_join(
            j1, docs.map_batches(text_as("_text_b"), batch_format="pyarrow"),
            left_on="b", right_on="doc_id", est_rows=n_docs,
        ).materialize()

    joined, t_join = timed("bucketed_shuffle_join x2", text_join)
    jt = pa.concat_tables(ray.get(joined.to_arrow_refs()))
    ta, tb = jt["_text_a"].to_pandas(), jt["_text_b"].to_pandas()
    with tracer.span("pair_jaccard", n_pairs=jt.num_rows):
        verify_rate = _rate(lambda: pair_jaccard(ta, tb, k=SHINGLE_K), jt.num_rows)
    keep = pair_jaccard(ta, tb, k=SHINGLE_K) >= THRESHOLD
    edges_tbl = jt.filter(pa.array(keep)).select(["a", "b"])
    n_edges = edges_tbl.num_rows
    labels, t_cc = timed(
        "connected_components",
        lambda: connected_components(rd.from_arrow(edges_tbl), n_buckets=8).materialize(),
    )
    lt = pa.concat_tables(ray.get(labels.to_arrow_refs()))
    is_rep = pc.equal(lt["node"], lt["component"])
    n_components = int(pc.sum(is_rep).as_py() or 0)
    drop = rd.from_arrow(pa.table({"drop_id": lt.filter(pc.invert(is_rep))["node"]}))
    marked, t_semi = timed(
        "bucketed_semi_mark",
        lambda: bucketed_semi_mark(
            docs, drop, left_on="doc_id", key_col="drop_id", est_rows=n_docs
        ).materialize(),
    )
    n_marked = int(marked.sum("__hit") or 0)
    if n_marked != lt.num_rows - n_components:
        raise RuntimeError(f"semi-mark hit {n_marked} rows, expected {lt.num_rows - n_components}")
    return {
        "dedup.signatures_s": t_sig,
        "dedup.lsh_pairs_s": t_lsh,
        "dedup.text_join_s": t_join,
        "dedup.verify_pairs_per_s": verify_rate,
        "dedup.cc_s": t_cc,
        "joins.semi_mark_s": t_semi,
        "dedup.n_candidate_pairs": n_pairs,
        "dedup.n_verified_edges": n_edges,
        "dedup.verify_yield": n_edges / n_pairs if n_pairs else 0.0,
        "dedup.n_components": n_components,
        "dedup.n_truncated_slots": n_truncated,
    }
