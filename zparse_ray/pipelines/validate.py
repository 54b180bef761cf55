"""The flagship validation pipeline (SURVEY §3.4 lifecycle).

    phase 1: one Ray task (validate_file) per uncommitted partition file
      -> the task reads its file: grammar + order + ref-integrity +
         stats partials; violations/docmeta written by the task
         (resumable sink)
      -> the driver takes results as tasks finish (ray.wait), checks
         each partition's doc count and commits it to the manifest
    phase 2 (cheap, over compact intermediates):
      -> doc_id uniqueness: driver-side value_counts over docmeta below
         dup_driver_threshold rows, else one bucket shuffle over
         docmeta whose reducers emit the violation rows (shuffle of the
         COMPACT docmeta stream, never the spans)
      -> drift: per-partition sketches vs a frozen reference profile
         (KS on t-digest CDFs, PSI on kind histograms)
      -> per-partition verdicts written

Scale properties: the heavy input is read exactly once and never
re-materialized; everything that shuffles (docmeta: ~25 bytes/doc) is
~50x smaller than the input; the broadcast asset set is put in the
object store once; partials/sketches are O(partitions), not O(rows).
"""

from __future__ import annotations

import functools
import glob
import itertools
import json as _json
import os
import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..functions import errors as E
from ..functions.sketches import HyperLogLog, TDigest
from ..schema import VERDICTS_SCHEMA, VIOLATIONS_SCHEMA
from ..stages.spancheck import PARTIALS_SCHEMA
from ..state.checkpoint import Manifest, clean_stale_outputs

_PART_RE = re.compile(r"part-(\d+)\.parquet$")


def _dup_violation_rows(t: pa.Table) -> pa.Table:
    """DuplicateKey rows for every (partition_id, doc_id) row of ``t``
    whose doc_id occurs more than once in ``t``, sorted by
    (partition_id, doc_id). ``t`` must hold every occurrence of the ids
    it contains; a typed empty table when none repeats."""
    ids = t["doc_id"].combine_chunks()
    vc = pc.value_counts(ids)
    is_dup = pc.greater(vc.field("counts"), 1)
    dup_ids = vc.field("values").filter(is_dup)
    if not len(dup_ids):
        return VIOLATIONS_SCHEMA.empty_table()
    occ = t.filter(pc.is_in(ids, value_set=dup_ids))
    n = occ.num_rows
    times = pc.take(
        vc.field("counts").filter(is_dup),
        pc.index_in(occ["doc_id"], value_set=dup_ids),
    )
    det = pc.binary_join_element_wise(
        pa.scalar("doc_id appears", pa.string()),
        pc.cast(times, pa.string()),
        pa.scalar("times", pa.string()),
        " ",
    )
    return pa.table(
        {
            "partition_id": pc.cast(occ["partition_id"], pa.int32()),
            "doc_id": occ["doc_id"],
            "span_index": pa.array(np.full(n, -1, np.int32)),
            "check_id": pa.array([E.DUPLICATE_KEY] * n, pa.string()),
            "detail": det,
            "offset": pa.array(np.full(n, -1, np.int32)),
            "line": pa.array(np.zeros(n, np.int32)),
            "col": pa.array(np.zeros(n, np.int32)),
        },
        schema=VIOLATIONS_SCHEMA,
    ).sort_by([("partition_id", "ascending"), ("doc_id", "ascending")])


def _write_dup_violations_distributed(meta_files, out_dir, est_rows):
    """Distributed doc_id uniqueness in ONE hash shuffle: every
    occurrence of an id hashes to the same bucket, so after
    ``groupby("__bucket")`` each reducer sees complete counts for its
    ids and emits their violation rows itself. The driver only streams
    the (usually tiny) result into the sink file — it never holds the
    dup set or the docmeta. Rows are sorted by (partition_id, doc_id)
    within each bucket chunk, not globally; readers sort or aggregate.
    Returns (n_rows, dup_pid_counts)."""
    import ray.data as rd

    from ..stages.joins import _bucket_of, _warn_if_hot, resolve_n_buckets

    n_buckets = resolve_n_buckets(est_rows)

    def tag(t: pa.Table) -> pa.Table:
        return t.append_column(
            "__bucket", pa.array(_bucket_of(t["doc_id"], n_buckets), pa.int32())
        )

    def dup_rows(t: pa.Table) -> pa.Table:
        _warn_if_hot(t.num_rows, "doc_id uniqueness")
        return _dup_violation_rows(t)

    viol = (
        rd.read_parquet(meta_files, columns=["partition_id", "doc_id"])
        .map_batches(tag, batch_format="pyarrow")
        .groupby("__bucket")
        .map_groups(dup_rows, batch_format="pyarrow")
    )
    path = os.path.join(out_dir, "violations", "dups.parquet")
    n_rows = 0
    dup_pid_counts: dict[int, int] = {}
    writer = None
    for b in viol.iter_batches(batch_size=None, batch_format="pyarrow"):
        if not b.num_rows:
            continue
        if writer is None:
            writer = pq.ParquetWriter(path + ".tmp", VIOLATIONS_SCHEMA)
        writer.write_table(b)
        n_rows += b.num_rows
        for p, c in zip(*np.unique(b["partition_id"].to_numpy(), return_counts=True)):
            dup_pid_counts[int(p)] = dup_pid_counts.get(int(p), 0) + int(c)
    if writer is not None:
        writer.close()
        os.replace(path + ".tmp", path)
    return n_rows, dup_pid_counts


def _merge_partials(a: dict, b: dict) -> dict:
    checks = sorted(set(filter(None, a["checks_failed"].split(","))) | set(filter(None, b["checks_failed"].split(","))))
    ha = _json.loads(a["kind_hist"])
    for k, v in _json.loads(b["kind_hist"]).items():
        ha[k] = ha.get(k, 0) + v
    return {
        "partition_id": a["partition_id"],
        "n_docs": a["n_docs"] + b["n_docs"],
        "n_spans": a["n_spans"] + b["n_spans"],
        "n_violations": a["n_violations"] + b["n_violations"],
        "checks_failed": ",".join(checks),
        "kind_hist": _json.dumps(ha, sort_keys=True),
        "textlen_tdigest": TDigest.from_bytes(a["textlen_tdigest"]).merge(TDigest.from_bytes(b["textlen_tdigest"])).to_bytes(),
        "spans_tdigest": TDigest.from_bytes(a["spans_tdigest"]).merge(TDigest.from_bytes(b["spans_tdigest"])).to_bytes(),
        "doc_hll": HyperLogLog.from_bytes(a["doc_hll"]).merge(HyperLogLog.from_bytes(b["doc_hll"])).to_bytes(),
        "ref_hll": HyperLogLog.from_bytes(a["ref_hll"]).merge(HyperLogLog.from_bytes(b["ref_hll"])).to_bytes(),
        "doc_hashes": a.get("doc_hashes", b"") + b.get("doc_hashes", b""),
    }


def ks_distance(a: TDigest, b: TDigest, grid: int = 64) -> float:
    """Max CDF difference over a merged quantile grid (two-sample KS)."""
    if a.count == 0 or b.count == 0:
        return 0.0
    qs = np.linspace(0.01, 0.99, grid)
    xs = np.unique(np.concatenate([[a.quantile(q) for q in qs], [b.quantile(q) for q in qs]]))
    return float(max(abs(a.cdf(x) - b.cdf(x)) for x in xs))


def psi(expected: dict, actual: dict) -> float:
    """Population stability index over categorical histograms."""
    keys = set(expected) | set(actual)
    te = sum(expected.values()) or 1
    ta = sum(actual.values()) or 1
    out = 0.0
    for k in keys:
        e = max(expected.get(k, 0) / te, 1e-6)
        a = max(actual.get(k, 0) / ta, 1e-6)
        out += (a - e) * np.log(a / e)
    return float(out)


def run_validation(
    spans_dir: str,
    out_dir: str,
    *,
    round_trip: bool = False,
    resume: bool = True,
    drift_profile: str | None = None,
    ks_threshold: float = 0.15,
    psi_threshold: float = 0.25,
    max_broadcast_dups: int = 2_000_000,
    dup_driver_threshold: int = 20_000_000,
    batch_size: int | None = 4096,
    quarantine: bool = False,
    max_span_bytes: int | None = None,
    parser_configs: dict | None = None,
) -> dict:
    """Run the full validation job; returns a summary dict. Requires a
    live Ray session (never calls ray.init itself).

    doc_id uniqueness is exact. A null doc_id reads as ``""`` (engine
    and oracle alike), so all null-id docs, and any literal ``""`` ids,
    count as duplicates of one another. Docmeta with at most
    ``dup_driver_threshold`` rows is resolved on the driver, larger
    docmeta by one distributed bucket shuffle; both give the same
    output. ``max_broadcast_dups`` has no effect and is kept only so
    existing callers still work."""
    import ray

    import time as _time

    timings: dict[str, float] = {}
    _t = _time.time()
    os.makedirs(out_dir, exist_ok=True)
    for sub in ("violations", "docmeta", "partials"):
        os.makedirs(os.path.join(out_dir, sub), exist_ok=True)

    files = sorted(glob.glob(os.path.join(spans_dir, "spans", "part-*.parquet")))
    if not files:
        raise FileNotFoundError(f"no input partitions under {spans_dir}/spans")
    pid_of = {f: int(_PART_RE.search(f).group(1)) for f in files}
    expected = {}
    for f in files:
        try:
            expected[pid_of[f]] = pq.ParquetFile(f).metadata.num_rows
        except (OSError, pa.ArrowException):
            pass  # unreadable: its phase-1 task fails and the run raises

    timings["plan"] = round(_time.time() - _t, 3)
    _t = _time.time()
    manifest = Manifest(os.path.join(out_dir, "manifest.json"))
    committed = manifest.committed if resume else set()
    todo = [f for f in files if pid_of[f] not in committed]
    clean_stale_outputs(out_dir, {pid_of[f] for f in todo})

    # ------------------------------------------------------------------
    # phase 1: one task per uncommitted partition file; the driver
    # commits each partition as its task returns
    if todo:
        assets_path = os.path.join(spans_dir, "assets.parquet")
        assets_ref = None
        if os.path.exists(assets_path):
            # broadcast once, PRE-SORTED so per-task setup is O(1)
            assets = np.sort(
                pq.read_table(assets_path, columns=["asset_id"])["asset_id"].to_numpy(
                    zero_copy_only=False
                )
            )
            assets_ref = ray.put(assets)

        from ..stages.spancheck import DEFAULT_MAX_SPAN_BYTES, validate_file

        task = ray.remote(validate_file)
        kw = {
            "assets_ref": assets_ref,
            "out_dir": out_dir,
            "round_trip": round_trip,
            "carry_doc_hashes": sum(expected.values()) <= dup_driver_threshold,
            "quarantine": quarantine,
            "max_span_bytes": DEFAULT_MAX_SPAN_BYTES if max_span_bytes is None else max_span_bytes,
            "parser_configs": parser_configs,
            "batch_size": batch_size,
        }
        # bounded in flight: every CPU stays busy while the driver commits
        max_in_flight = 2 * max(int(ray.cluster_resources().get("CPU", 1)), 1)
        queue = iter(todo)
        in_flight: dict = {}
        failed: dict[str, Exception] = {}  # uncommitted; raised when all tasks end
        while True:
            for f in itertools.islice(queue, max_in_flight - len(in_flight)):
                in_flight[task.remote(f, **kw)] = f
            if not in_flight:
                break
            (ref,), _ = ray.wait(list(in_flight), num_returns=1)
            f = in_flight.pop(ref)
            try:
                rows = ray.get(ref).to_pylist()
            except ray.exceptions.RayError as e:
                failed[f] = e
                continue
            pid = pid_of[f]
            n_docs = sum(r["n_docs"] for r in rows)
            if n_docs != expected.get(pid) or any(r["partition_id"] != pid for r in rows):
                ids = sorted({r["partition_id"] for r in rows})
                failed[f] = RuntimeError(f"{n_docs} docs of partitions {ids}, footer: {expected.get(pid)}")
                continue
            if not rows:
                continue  # an empty file has no verdict (as in the oracle)
            part = functools.reduce(_merge_partials, rows)
            t = pa.Table.from_pylist([part], schema=PARTIALS_SCHEMA)
            ppath = os.path.join(out_dir, "partials", f"part-{pid:05d}.parquet")
            pq.write_table(t, ppath + ".tmp")
            os.replace(ppath + ".tmp", ppath)
            manifest.commit(pid, {k: part[k] for k in ("n_docs", "n_spans", "n_violations")})
        timings["phase1"] = round(_time.time() - _t, 3)
        _t = _time.time()
        if failed:
            raise RuntimeError(
                f"phase 1 failed on {len(failed)} partition file(s): {sorted(failed)}; "
                "every other partition is committed"
            ) from next(iter(failed.values()))

    # ------------------------------------------------------------------
    # phase 2a: doc_id uniqueness over compact docmeta (exact). The
    # docmeta stream is ~50x smaller than the input; below the threshold
    # the driver resolves dups directly (zero extra Ray jobs), above it
    # one bucket shuffle over docmeta runs and its reducers emit the
    # violation rows — same output either way (the distributed path is
    # what runs at 10^12 scale; one hot id still lands whole in its
    # bucket, which _warn_if_hot reports).
    meta_files = sorted(glob.glob(os.path.join(out_dir, "docmeta", "part-*.parquet")))
    dup_pid_counts: dict[int, int] = {}
    n_dup_rows = 0
    if meta_files:
        total_meta = sum(pq.ParquetFile(f).metadata.num_rows for f in meta_files)
        if total_meta <= dup_driver_threshold:
            # hash-first fast path: scan ONLY the int64 doc_hash column
            # (far cheaper to read and to value_count than the id
            # strings); candidate hashes with count > 1 gate a pushdown
            # read of the string rows, where the exact string
            # value_counts removes hash collisions. Falls back to the
            # string scan for docmeta written before doc_hash existed.
            # EVERY file must carry doc_hash — a resume across engine
            # versions can mix old-schema docmeta in, where read_table
            # would null-fill the hashes and silently drop cross-file
            # duplicates from the candidate set
            have_hash = all(
                "doc_hash" in pq.read_schema(f).names for f in meta_files
            )
            if have_hash:
                # candidate hashes come from the partials stream when it
                # carried them (no docmeta re-read at all), else from the
                # docmeta doc_hash column
                hash_bufs = []
                pfiles = sorted(glob.glob(os.path.join(out_dir, "partials", "part-*.parquet")))
                # EVERY partials file must carry doc_hashes, as above:
                # a resume can mix old-schema partials in
                if pfiles and all(
                    "doc_hashes" in pq.read_schema(f).names for f in pfiles
                ):
                    for buf in pq.read_table(pfiles, columns=["doc_hashes"])[
                        "doc_hashes"
                    ].to_pylist():
                        if buf:
                            hash_bufs.append(np.frombuffer(buf, dtype=np.uint64))
                if hash_bufs and sum(len(x) for x in hash_bufs) == total_meta:
                    # sort + adjacent-equality: ~40x faster than
                    # np.unique(return_counts=True) for the dup-candidate
                    # set (no unique/count arrays materialized)
                    sa = np.sort(np.concatenate(hash_bufs))
                    dup_adj = sa[1:][sa[1:] == sa[:-1]]
                    cand = pa.array(
                        np.unique(dup_adj).astype(np.int64), pa.int64()
                    )
                else:
                    vc_h = pc.value_counts(
                        pq.read_table(meta_files, columns=["doc_hash"])["doc_hash"].combine_chunks()
                    )
                    cand = vc_h.field("values").filter(pc.greater(vc_h.field("counts"), 1))
                if len(cand):
                    import pyarrow.dataset as pads

                    occ = pads.dataset(meta_files).to_table(
                        columns=["partition_id", "doc_id"],
                        filter=pads.field("doc_hash").isin(cand),
                    )
                else:
                    occ = None
            else:
                occ = pq.read_table(meta_files, columns=["partition_id", "doc_id"])
            if occ is not None:
                dup_tbl = _dup_violation_rows(occ)
                n_dup_rows = dup_tbl.num_rows
                if n_dup_rows:
                    path = os.path.join(out_dir, "violations", "dups.parquet")
                    pq.write_table(dup_tbl, path + ".tmp")
                    os.replace(path + ".tmp", path)
                    for pid, cnt in zip(*np.unique(dup_tbl["partition_id"].to_numpy(), return_counts=True)):
                        dup_pid_counts[int(pid)] = int(cnt)
        else:
            # distributed path (the 10^12-doc branch): one bucket
            # shuffle whose reducers write the violation rows
            n_dup_rows, dup_pid_counts = _write_dup_violations_distributed(
                meta_files, out_dir, est_rows=total_meta
            )

    timings["phase2a_dups"] = round(_time.time() - _t, 3)
    _t = _time.time()
    # ------------------------------------------------------------------
    # phase 2b: drift vs frozen profile + verdict assembly (driver-side,
    # O(partitions) work over the tiny partials)
    profile = None
    if drift_profile and os.path.exists(drift_profile):
        profile = _json.loads(open(drift_profile).read())

    partial_files = sorted(glob.glob(os.path.join(out_dir, "partials", "part-*.parquet")))
    partials = pq.read_table(partial_files).to_pylist() if partial_files else []
    verdict_rows = []
    drift_viols = []
    totals = {"n_docs": 0, "n_spans": 0, "n_violations": 0}
    for p in sorted(partials, key=lambda r: r["partition_id"]):
        pid = p["partition_id"]
        checks = set(filter(None, p["checks_failed"].split(",")))
        n_viol = p["n_violations"] + dup_pid_counts.get(pid, 0)
        if dup_pid_counts.get(pid):
            checks.add(E.DUPLICATE_KEY)
        if profile is not None:
            ks_text = ks_distance(
                TDigest.from_bytes(p["textlen_tdigest"]),
                TDigest.from_bytes(bytes.fromhex(profile["textlen_tdigest"])),
            )
            ks_spans = ks_distance(
                TDigest.from_bytes(p["spans_tdigest"]),
                TDigest.from_bytes(bytes.fromhex(profile["spans_tdigest"])),
            )
            ks = max(ks_text, ks_spans)
            p_psi = psi(profile["kind_hist"], _json.loads(p["kind_hist"]))
            if ks > ks_threshold or p_psi > psi_threshold:
                checks.add(E.DRIFT)
                n_viol += 1
                drift_viols.append(
                    {
                        "partition_id": pid,
                        "doc_id": "",
                        "span_index": -1,
                        "check_id": E.DRIFT,
                        "detail": f"ks={ks:.4f} psi={p_psi:.4f}",
                        "offset": -1,
                        "line": 0,
                        "col": 0,
                    }
                )
        verdict_rows.append(
            {
                "partition_id": pid,
                "passed": n_viol == 0,
                "n_docs": p["n_docs"],
                "n_spans": p["n_spans"],
                "n_violations": n_viol,
                "checks_failed": ",".join(sorted(checks)),
            }
        )
        totals["n_docs"] += p["n_docs"]
        totals["n_spans"] += p["n_spans"]
        totals["n_violations"] += n_viol

    if drift_viols:
        t = pa.Table.from_pylist(drift_viols, schema=VIOLATIONS_SCHEMA)
        path = os.path.join(out_dir, "violations", "drift.parquet")
        pq.write_table(t, path + ".tmp")
        os.replace(path + ".tmp", path)

    verdicts = pa.Table.from_pylist(verdict_rows, schema=VERDICTS_SCHEMA)
    vpath = os.path.join(out_dir, "verdicts.parquet")
    pq.write_table(verdicts, vpath + ".tmp")
    os.replace(vpath + ".tmp", vpath)

    timings["phase2b_verdicts"] = round(_time.time() - _t, 3)
    return {
        "out_dir": out_dir,
        "timings": timings,
        "verdicts_path": vpath,
        "violations_dir": os.path.join(out_dir, "violations"),
        "n_partitions": len(verdict_rows),
        "n_dup_violations": n_dup_rows,
        **totals,
    }


def build_profile(out_dir: str, profile_path: str) -> dict:
    """Freeze a reference profile from a completed clean run's partials
    (global merged textlen digest + kind histogram) for drift checks."""
    partial_files = sorted(glob.glob(os.path.join(out_dir, "partials", "part-*.parquet")))
    rows = pq.read_table(partial_files).to_pylist()
    td = TDigest()
    td_spans = TDigest()
    hist: dict[str, int] = {}
    for p in rows:
        td = td.merge(TDigest.from_bytes(p["textlen_tdigest"]))
        td_spans = td_spans.merge(TDigest.from_bytes(p["spans_tdigest"]))
        for k, v in _json.loads(p["kind_hist"]).items():
            hist[k] = hist.get(k, 0) + v
    prof = {
        "textlen_tdigest": td.to_bytes().hex(),
        "spans_tdigest": td_spans.to_bytes().hex(),
        "kind_hist": hist,
    }
    tmp = profile_path + ".tmp"
    with open(tmp, "w") as f:
        _json.dump(prof, f)
    os.replace(tmp, profile_path)
    return prof
