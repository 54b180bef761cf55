"""The flagship validation pipeline (SURVEY §3.4 lifecycle). It runs
plain Ray tasks only, no Ray Data.

    phase 1: one Ray task (validate_file) per uncommitted partition file
      -> the task reads its file: grammar + order + ref-integrity +
         stats partials; violations, docmeta and the merged partials
         row written by the task (resumable sink), which returns only
         the row's verdict fields
      -> the driver takes results as tasks finish (ray.wait), checks
         each partition's doc count against its footer and commits the
         verdict fields to the manifest; a failed partition is never
         committed, and its sink files are removed
    phase 2 (cheap, over compact intermediates; recomputed every call):
      -> doc_id uniqueness: one reducer (_write_dups) over docmeta, run
         in the driver or, past dup_driver_threshold rows, per bucket
         of a hash shuffle in plain tasks (the COMPACT docmeta, never
         the spans), writing violations/dups-*.parquet
      -> drift: per-partition sketches vs a frozen reference profile
         (KS on t-digest CDFs, PSI on kind histograms)
      -> per-partition verdicts written, built from the manifest's
         entries (partials files are read only for drift)

Scale properties: the heavy input is read exactly once and never
re-materialized; everything that shuffles (docmeta: ~25 bytes/doc) is
~50x smaller than the input; the broadcast asset set is put in the
object store once; partials/sketches are O(partitions), not O(rows).
"""

from __future__ import annotations

import collections
import functools
import glob
import itertools
import json as _json
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..functions import errors as E
from ..functions.sketches import TDigest, hash64
from ..schema import VERDICTS_SCHEMA, VIOLATIONS_SCHEMA
from ..stages.joins import ROWS_PER_BUCKET, _bucket_of, _warn_if_hot
from ..stages.spancheck import _PART_RE, PARTIALS_SCHEMA, read_parquet_file
from ..state.checkpoint import Manifest, clean_stale_outputs, sink_pid


@functools.cache
def _remote(fn):
    """``ray.remote(fn)``, built once per process. A remote function
    pickles and exports itself once per Ray session (again after a
    ``ray.shutdown()``/``ray.init()``), so building a new one on every
    call only repeats that work."""
    import ray

    return ray.remote(fn)


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


def _meta_split(path: str, n: int) -> pa.Table | list[pa.Table]:
    """One docmeta file's ``partition_id, doc_id, doc_hash`` split into
    ``n`` tables by ``_bucket_of(doc_hash, n)``; with ``n == 1``, the
    table itself. Read alone, a file from before docmeta carried
    ``doc_hash`` gets ``hash64(doc_id)``, never a null-filled column."""
    t = read_parquet_file(path)
    if "doc_hash" not in t.column_names:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        t = t.append_column("doc_hash", pa.array(hash64(ids).astype(np.int64)))
    t = t.select(["partition_id", "doc_id", "doc_hash"])
    if n == 1:
        return t
    b = _bucket_of(t["doc_hash"], n)
    ends = np.cumsum(np.bincount(b, minlength=n))[:-1]
    return [t.take(ix) for ix in np.split(np.argsort(b, kind="stable"), ends)]


def _write_dups(path: str, *parts: pa.Table) -> tuple[int, dict[int, int]]:
    """doc_id uniqueness over ``parts``, which hold every occurrence of
    their ids: repeated ``doc_hash`` values pick the candidates, and the
    exact string check on those drops hash collisions. Writes the
    DuplicateKey rows, if any, to ``path``; returns ``(n_rows,
    {partition_id: n_rows})``."""
    t = pa.concat_tables(parts)
    _warn_if_hot(t.num_rows, "doc_id uniqueness")
    h = np.sort(t["doc_hash"].to_numpy())
    cand = np.unique(h[1:][h[1:] == h[:-1]])
    if not len(cand):
        return 0, {}
    dups = _dup_violation_rows(t.filter(pc.is_in(t["doc_hash"], value_set=pa.array(cand))))
    if not dups.num_rows:
        return 0, {}
    pq.write_table(dups, path + ".tmp")
    os.replace(path + ".tmp", path)
    pids, counts = np.unique(dups["partition_id"].to_numpy(), return_counts=True)
    return dups.num_rows, {int(p): int(c) for p, c in zip(pids, counts)}


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
    count as duplicates of one another. One reducer finds the
    duplicates: in the driver for at most ``dup_driver_threshold`` docs,
    else as a hash shuffle in plain Ray tasks; both give the same rows,
    in one or more ``violations/dups-*.parquet`` files sorted within
    each file only. ``max_broadcast_dups`` has no effect and is kept
    only so existing callers still work.

    ``timings`` holds each phase's wall seconds, the driver's own CPU
    seconds in phase 1, and ``phase1_read_s``, ``phase1_walk_s`` and
    ``phase1_sink_s``: the seconds the phase-1 tasks spent reading their
    files, in the grammar walk and writing sink files, summed over the
    tasks."""
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
    fingerprint = {}  # what a manifest entry must match to be kept
    for f in files:
        try:
            st = os.stat(f)
            expected[pid_of[f]] = pq.ParquetFile(f).metadata.num_rows
        except (OSError, pa.ArrowException):
            continue  # unreadable: its phase-1 task fails and the run raises
        fingerprint[pid_of[f]] = {"size": st.st_size, "mtime_ns": st.st_mtime_ns, "rows": expected[pid_of[f]]}

    timings["plan"] = round(_time.time() - _t, 3)
    _t = _time.time()
    cpu0 = _time.thread_time()  # the driver's own CPU in phase 1
    manifest = Manifest(os.path.join(out_dir, "manifest.json"))
    present = set(pid_of.values())
    # an entry holds only while its input file exists with the
    # fingerprint it was committed with (an entry without one, from an
    # older engine, is re-validated), and none holds without resume;
    # every partition not committed loses its sink files
    stale = {
        pid for pid in manifest.committed
        if pid not in fingerprint or manifest.info(pid).get("input") != fingerprint[pid]
    }
    manifest.drop(stale if resume else manifest.committed)
    committed = manifest.committed
    clean_stale_outputs(out_dir, committed)
    todo = [f for f in files if pid_of[f] not in committed]

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

        task = _remote(validate_file)
        kw = {
            "assets_ref": assets_ref,
            "out_dir": out_dir,
            "round_trip": round_trip,
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
        split = collections.Counter()  # the tasks' read / walk / sink seconds
        while True:
            for f in itertools.islice(queue, max_in_flight - len(in_flight)):
                in_flight[task.remote(f, **kw)] = f
            if not in_flight:
                break
            (ref,), _ = ray.wait(list(in_flight), num_returns=1)
            f = in_flight.pop(ref)
            pid = pid_of[f]
            try:
                info = ray.get(ref)
            except ray.exceptions.RayError as e:
                failed[f] = e
            else:
                for k in ("read_s", "walk_s", "sink_s"):
                    split[k] += info.pop(k, 0.0)
                if info["n_docs"] == expected.get(pid):
                    if info["n_docs"]:  # an empty file has no verdict (as in the oracle)
                        manifest.commit(pid, {**info, "input": fingerprint[pid]})
                    continue
                failed[f] = RuntimeError(f"{info['n_docs']} docs, footer: {expected.get(pid)}")
            # a failed partition leaves no sink files behind
            clean_stale_outputs(out_dir, present - {pid})
        timings["phase1"] = round(_time.time() - _t, 3)
        timings["phase1_driver_cpu_s"] = round(_time.thread_time() - cpu0, 3)
        for k in ("read_s", "walk_s", "sink_s"):
            timings[f"phase1_{k}"] = round(split[k], 3)
        _t = _time.time()
        if failed:
            raise RuntimeError(
                f"phase 1 failed on {len(failed)} partition file(s): {sorted(failed)}; "
                "every other partition is committed"
            ) from next(iter(failed.values()))

    # ------------------------------------------------------------------
    # phase 2a: doc_id uniqueness over the compact docmeta (exact). Phase
    # 2 is recomputed on every call, so first drop what an earlier one wrote
    vdir = os.path.join(out_dir, "violations")
    for f in glob.glob(os.path.join(vdir, "dups*.parquet")) + glob.glob(os.path.join(vdir, "drift.parquet")):
        os.remove(f)
    committed = manifest.committed
    meta_files = sorted(
        f for f in glob.glob(os.path.join(out_dir, "docmeta", "part-*.parquet"))
        if sink_pid(os.path.basename(f)) in committed
    )
    n_meta = sum(expected.values())  # phase 1 checked docmeta's rows against these
    if not meta_files:
        dup_results = []
    elif n_meta <= dup_driver_threshold:
        dup_results = [_write_dups(os.path.join(vdir, "dups-00000.parquet"), *[_meta_split(f, 1) for f in meta_files])]
    else:
        # the same reducer behind a hash shuffle of plain tasks: one split
        # task per docmeta file, then one reducer per bucket, with at
        # least one bucket per CPU and about ROWS_PER_BUCKET rows each
        n_buckets = max(int(ray.cluster_resources().get("CPU", 1)), 1, -(-n_meta // ROWS_PER_BUCKET))
        split = _remote(_meta_split).options(num_returns=n_buckets)
        maps = [split.remote(f, n_buckets) for f in meta_files]
        if n_buckets == 1:  # num_returns=1 gives a bare ref, not a list of one
            maps = [[m] for m in maps]
        reduce = _remote(_write_dups)
        refs = [reduce.remote(os.path.join(vdir, f"dups-{r:05d}.parquet"), *[m[r] for m in maps]) for r in range(n_buckets)]
        # every phase-2a task has ended before anything raises
        ray.wait(refs + [m[0] for m in maps], num_returns=n_buckets + len(maps), fetch_local=False)
        try:
            dup_results = ray.get(refs)
        except ray.exceptions.RayError as e:
            raise RuntimeError(f"phase 2a failed: {getattr(e, 'cause', None) or e}") from e
    n_dup_rows = sum(n for n, _ in dup_results)
    dup_pid_counts: collections.Counter = collections.Counter()
    for _, counts in dup_results:  # a partition's ids spread over reducers
        dup_pid_counts.update(counts)

    timings["phase2a_dups"] = round(_time.time() - _t, 3)
    _t = _time.time()
    # ------------------------------------------------------------------
    # phase 2b: drift vs frozen profile + verdict assembly (driver-side,
    # O(partitions) work). The verdicts come from the manifest's entries;
    # a partition's partials file is read only for drift, which needs its
    # sketches, or when an older engine committed it without checks_failed
    profile = None
    if drift_profile and os.path.exists(drift_profile):
        profile = _json.loads(open(drift_profile).read())

    verdict_rows = []
    drift_viols = []
    totals = {"n_docs": 0, "n_spans": 0, "n_violations": 0}
    for pid in sorted(manifest.committed):
        p = manifest.info(pid)
        if profile is not None or "checks_failed" not in p:
            # the column list drops what an older engine's partials carried
            path = os.path.join(out_dir, "partials", f"part-{pid:05d}.parquet")
            (p,) = read_parquet_file(path, PARTIALS_SCHEMA.names).to_pylist()
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
