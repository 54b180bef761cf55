"""Distributed pipeline vs single-process oracle parity, resume, and
drift tests (BASELINE.md parity gate: violations byte-match after
deterministic sort; verdicts match exactly)."""

import glob
import json
import os
import shutil

import pyarrow.parquet as pq
import pytest

from zparse_ray.oracle import oracle_validate, read_pipeline_outputs
from zparse_ray.pipelines.validate import build_profile, run_validation
from zparse_ray.synth import SynthConfig, ensure_dataset

CFG = SynthConfig(n_docs=2400, n_partitions=6, seed=7)
OUT = "/tmp/zv_test_pipeline"


@pytest.fixture(scope="module")
def spans_dir(ray_session):
    return ensure_dataset(CFG)


@pytest.fixture(scope="module")
def run_out(spans_dir):
    shutil.rmtree(OUT, ignore_errors=True)
    res = run_validation(spans_dir, OUT, round_trip=True)
    return res


def test_pipeline_matches_oracle(spans_dir, run_out):
    o_viols, o_verdicts = oracle_validate(spans_dir, round_trip=True)
    p_viols, p_verdicts = read_pipeline_outputs(OUT)
    assert len(p_viols) == len(o_viols)
    for pv, ov in zip(p_viols, o_viols):
        assert pv == ov, (pv, ov)
    assert p_verdicts == o_verdicts


def test_violations_nonempty_and_typed(run_out):
    p_viols, _ = read_pipeline_outputs(OUT)
    checks = {v["check_id"] for v in p_viols}
    # planted violation classes all surface
    assert "DuplicateKey" in checks
    assert "RefIntegrity" in checks
    assert "SpanOrder" in checks
    assert "UnterminatedString" in checks or "Expected" in checks


def test_verdict_totals(run_out):
    _, verdicts = read_pipeline_outputs(OUT)
    assert sum(v["n_docs"] for v in verdicts) == CFG.n_docs
    assert all(not v["passed"] for v in verdicts)  # planted rates make all fail


def test_clean_dataset_passes(ray_session, tmp_path):
    clean_cfg = SynthConfig(
        n_docs=400,
        n_partitions=2,
        seed=11,
        invalid_rate=0.0,
        dup_rate=0.0,
        dangling_rate=0.0,
        span_order_rate=0.0,
    )
    d = ensure_dataset(clean_cfg)
    out = str(tmp_path / "clean")
    run_validation(d, out, round_trip=True)
    viols, verdicts = read_pipeline_outputs(out)
    assert viols == []
    assert all(v["passed"] for v in verdicts)


def test_resume_skips_committed(spans_dir, run_out, tmp_path):
    # simulate a killed run: drop 2 partitions from the manifest and
    # delete their outputs; a resumed run must reproduce IDENTICAL output
    before_viols, before_verdicts = read_pipeline_outputs(OUT)
    mpath = os.path.join(OUT, "manifest.json")
    m = json.load(open(mpath))
    committed_before = set(m["partitions"])
    for pid in ("2", "4"):
        del m["partitions"][pid]
    json.dump(m, open(mpath, "w"))
    for sub in ("violations", "docmeta", "partials"):
        for name in os.listdir(os.path.join(OUT, sub)):
            if name.startswith(("part-00002", "part-00004")):
                os.remove(os.path.join(OUT, sub, name))
    # track mtimes of committed partition outputs — they must not be rewritten
    keep = {}
    for name in os.listdir(os.path.join(OUT, "docmeta")):
        if name.startswith("part-00001"):
            p = os.path.join(OUT, "docmeta", name)
            keep[p] = os.path.getmtime(p)

    res = run_validation(ensure_dataset(CFG), OUT, round_trip=True)
    after_viols, after_verdicts = read_pipeline_outputs(OUT)
    assert after_viols == before_viols
    assert after_verdicts == before_verdicts
    m2 = json.load(open(mpath))
    assert set(m2["partitions"]) == committed_before
    for p, t in keep.items():
        assert os.path.getmtime(p) == t, f"committed output {p} was rewritten"


def test_resume_across_engine_versions(spans_dir, run_out, tmp_path):
    """A resume can meet sink files of another engine version in either
    direction: a partials file that still carries the dropped
    doc_hashes column, and a docmeta file from before doc_hash existed.
    Both phase-2a paths must give the uninterrupted run's outputs."""
    import pyarrow as pa

    for name, threshold in (("driver", 20_000_000), ("tasks", 0)):
        out2 = str(tmp_path / name)
        run_validation(spans_dir, out2, round_trip=True)
        before = read_pipeline_outputs(out2)

        pdir = os.path.join(out2, "partials")
        ppath = os.path.join(pdir, sorted(os.listdir(pdir))[1])
        t = pq.read_table(ppath)
        pq.write_table(t.append_column("doc_hashes", pa.array([b"\0" * 8] * t.num_rows)), ppath)
        mdir = os.path.join(out2, "docmeta")
        mpath = os.path.join(mdir, sorted(os.listdir(mdir))[4])
        pq.write_table(pq.read_table(mpath).drop_columns(["doc_hash"]), mpath)

        # invalidate one partition so the resumed run re-finalizes
        manifest = os.path.join(out2, "manifest.json")
        m = json.load(open(manifest))
        del m["partitions"]["3"]
        json.dump(m, open(manifest, "w"))
        for sub in ("violations", "docmeta", "partials"):
            for f in os.listdir(os.path.join(out2, sub)):
                if f.startswith("part-00003"):
                    os.remove(os.path.join(out2, sub, f))

        run_validation(spans_dir, out2, round_trip=True, dup_driver_threshold=threshold)
        assert read_pipeline_outputs(out2) == before, name


def test_distributed_dup_path_matches_driver_path(spans_dir, run_out, tmp_path):
    # force the task path of phase 2a (the 10^12-scale path) and check
    # it produces byte-identical output to the driver path
    out2 = str(tmp_path / "dist_dups")
    run_validation(spans_dir, out2, round_trip=True, dup_driver_threshold=0)
    a = read_pipeline_outputs(OUT)
    b = read_pipeline_outputs(out2)
    assert a == b


def test_bucket_join_dup_fallback_matches_broadcast(spans_dir, run_out, tmp_path):
    """max_broadcast_dups has no effect: the distributed path is one
    bucket shuffle whatever the dup-set size, so a tiny cap must still
    give violations and verdicts identical to the driver path."""
    out2 = str(tmp_path / "bucket_dups")
    run_validation(
        spans_dir, out2, round_trip=True, dup_driver_threshold=0,
        max_broadcast_dups=1,
    )
    a = read_pipeline_outputs(OUT)
    b = read_pipeline_outputs(out2)
    assert a == b


def test_distributed_dup_path_never_reads_docmeta_on_driver(
    spans_dir, run_out, tmp_path, monkeypatch
):
    # The >threshold branch must not materialize the full docmeta on the
    # driver (VERDICT r1 'what's wrong' #2): occurrence filtering happens
    # inside map_batches in workers, so any driver-side pq.read_table of
    # docmeta files is a regression.
    import zparse_ray.pipelines.validate as V

    real = V.pq.read_table

    def guarded(paths, *a, **k):
        plist = paths if isinstance(paths, (list, tuple)) else [paths]
        assert not any("docmeta" in str(p) for p in plist), (
            "driver read full docmeta on the distributed dup branch"
        )
        return real(paths, *a, **k)

    monkeypatch.setattr(V.pq, "read_table", guarded)
    out3 = str(tmp_path / "dist_dups_noread")
    run_validation(spans_dir, out3, round_trip=True, dup_driver_threshold=0)
    a = read_pipeline_outputs(OUT)
    b = read_pipeline_outputs(out3)
    assert a == b


def test_distributed_dup_path_no_duplicates(ray_session, tmp_path):
    # buckets without a repeated id must return a typed empty table
    # (an untyped empty literal array gets null type, which
    # binary_join_element_wise rejects)
    d = ensure_dataset(SynthConfig(n_docs=600, n_partitions=3, seed=31, dup_rate=0.0))
    out = str(tmp_path / "dist_nodups")
    res = run_validation(d, out, round_trip=True, dup_driver_threshold=0)
    assert res["n_dup_violations"] == 0
    assert not glob.glob(os.path.join(out, "violations", "dups*.parquet"))
    assert read_pipeline_outputs(out) == oracle_validate(d, round_trip=True)


def test_distributed_dup_path_never_pulls_dup_set_to_driver(
    spans_dir, run_out, tmp_path, monkeypatch
):
    # on the task path the reducers build and write the violation rows
    # in workers; the driver never builds them, so it never holds the
    # dup set or the dup occurrences
    import zparse_ray.pipelines.validate as V

    def refuse(*a, **k):
        raise AssertionError("task dup path built violation rows on the driver")

    monkeypatch.setattr(V, "_dup_violation_rows", refuse)
    out = str(tmp_path / "dist_nopull")
    run_validation(spans_dir, out, round_trip=True, dup_driver_threshold=0)
    assert read_pipeline_outputs(out) == read_pipeline_outputs(OUT)


def test_task_dup_path_with_one_reducer(spans_dir, run_out, tmp_path, monkeypatch):
    # a 1-CPU cluster gives one bucket: its split tasks return one bare
    # table each, and one reducer writes the one dups file
    import ray

    monkeypatch.setattr(ray, "cluster_resources", lambda: {"CPU": 1.0})
    out = str(tmp_path / "one_reducer")
    run_validation(spans_dir, out, round_trip=True, dup_driver_threshold=0)
    dups = glob.glob(os.path.join(out, "violations", "dups*.parquet"))
    assert [os.path.basename(f) for f in dups] == ["dups-00000.parquet"]
    assert read_pipeline_outputs(out) == read_pipeline_outputs(OUT)


def test_phase2a_task_failure_raises_naming_the_file(ray_session, tmp_path):
    # an unreadable docmeta file fails its split task: the run raises
    # naming the file once every phase-2a task has ended, and a resume
    # once the file is restored equals the oracle
    cfg = SynthConfig(n_docs=1200, n_partitions=4, seed=41)
    d = ensure_dataset(cfg)
    out = str(tmp_path / "out")
    run_validation(d, out)
    bad = sorted(glob.glob(os.path.join(out, "docmeta", "part-*.parquet")))[2]
    good = open(bad, "rb").read()
    with open(bad, "wb") as f:
        f.write(b"this is not a parquet file")
    with pytest.raises(RuntimeError, match=os.path.basename(bad)):
        run_validation(d, out, dup_driver_threshold=0)
    with open(bad, "wb") as f:
        f.write(good)
    run_validation(d, out, dup_driver_threshold=0)
    assert read_pipeline_outputs(out) == oracle_validate(d)


def test_resume_without_profile_drops_old_drift_rows(ray_session, tmp_path):
    # phase 2 is recomputed on every call: a resume without a drift
    # profile must not keep the Drift rows an earlier call wrote
    clean = dict(invalid_rate=0.0, dup_rate=0.0, dangling_rate=0.0, span_order_rate=0.0)
    d_ref = ensure_dataset(SynthConfig(n_docs=600, n_partitions=3, seed=21, **clean))
    run_validation(d_ref, str(tmp_path / "ref"))
    profile_path = str(tmp_path / "profile.json")
    build_profile(str(tmp_path / "ref"), profile_path)
    d = ensure_dataset(SynthConfig(n_docs=600, n_partitions=3, seed=22, mean_spans=20, **clean))
    out = str(tmp_path / "out")
    run_validation(d, out, drift_profile=profile_path)
    assert any(v["check_id"] == "Drift" for v in read_pipeline_outputs(out)[0])
    run_validation(d, out)
    fresh = str(tmp_path / "fresh")
    run_validation(d, fresh)
    assert read_pipeline_outputs(out) == read_pipeline_outputs(fresh)


def test_resume_drops_old_dups_files(spans_dir, run_out, tmp_path):
    # a resume on a cluster with fewer CPUs runs fewer reducers, and an
    # older engine wrote one dups.parquet: neither may be read twice
    out = str(tmp_path / "stale_dups")
    run_validation(spans_dir, out, round_trip=True, dup_driver_threshold=0)
    vdir = os.path.join(out, "violations")
    first = sorted(glob.glob(os.path.join(vdir, "dups-*.parquet")))[0]
    for name in ("dups-00099.parquet", "dups.parquet"):
        shutil.copy(first, os.path.join(vdir, name))
    run_validation(spans_dir, out, round_trip=True)
    assert read_pipeline_outputs(out) == read_pipeline_outputs(OUT)


def test_null_doc_ids_are_duplicates_of_each_other(ray_session, tmp_path):
    # uniqueness rule: a null doc_id reads as "" in engine and oracle,
    # so null ids (in any partition) and a literal "" id all count as
    # one repeated id. Both phase-2a paths must agree with the oracle.
    import pyarrow as pa

    span_t = pa.struct(
        [("kind", pa.string()), ("text", pa.string()),
         ("media_ref", pa.string()), ("offset", pa.int32())]
    )
    schema = pa.schema(
        [("partition_id", pa.int32()), ("doc_id", pa.string()), ("spans", pa.list_(span_t))]
    )
    ok = [{"kind": "text", "text": "ok", "media_ref": "", "offset": 0}]
    parts = {
        0: [None, "a", None, "b"],
        1: [None, "", "a", "c"],
    }
    d = str(tmp_path / "null_ids")
    os.makedirs(os.path.join(d, "spans"))
    for pid, ids in parts.items():
        rows = [{"partition_id": pid, "doc_id": i, "spans": ok} for i in ids]
        pq.write_table(pa.Table.from_pylist(rows, schema=schema),
                       os.path.join(d, "spans", f"part-{pid:05d}.parquet"))
    pq.write_table(pa.table({"asset_id": pa.array(["asset-000001"])}),
                   os.path.join(d, "assets.parquet"))

    o_viols, o_verdicts = oracle_validate(d)
    dups = sorted((v["partition_id"], v["doc_id"], v["detail"]) for v in o_viols)
    assert dups == [
        (0, "", "doc_id appears 4 times"),
        (0, "", "doc_id appears 4 times"),
        (0, "a", "doc_id appears 2 times"),
        (1, "", "doc_id appears 4 times"),
        (1, "", "doc_id appears 4 times"),
        (1, "a", "doc_id appears 2 times"),
    ]
    for name, threshold in (("driver", 20_000_000), ("distributed", 0)):
        out = str(tmp_path / name)
        run_validation(d, out, dup_driver_threshold=threshold)
        assert read_pipeline_outputs(out) == (o_viols, o_verdicts), name


def test_drift_detection(ray_session, tmp_path):
    clean_cfg = SynthConfig(
        n_docs=600, n_partitions=3, seed=21,
        invalid_rate=0.0, dup_rate=0.0, dangling_rate=0.0, span_order_rate=0.0,
    )
    d = ensure_dataset(clean_cfg)
    out_ref = str(tmp_path / "ref")
    run_validation(d, out_ref, round_trip=False)
    profile_path = str(tmp_path / "profile.json")
    build_profile(out_ref, profile_path)

    # same distribution → no drift
    out_same = str(tmp_path / "same")
    run_validation(d, out_same, drift_profile=profile_path)
    _, verdicts = read_pipeline_outputs(out_same)
    assert all("Drift" not in v["checks_failed"] for v in verdicts)

    # shifted distribution (much longer spans) → drift flagged
    shifted_cfg = SynthConfig(
        n_docs=600, n_partitions=3, seed=22, mean_spans=20,
        invalid_rate=0.0, dup_rate=0.0, dangling_rate=0.0, span_order_rate=0.0,
    )
    d2 = ensure_dataset(shifted_cfg)
    out_drift = str(tmp_path / "drift")
    run_validation(d2, out_drift, drift_profile=profile_path)
    _, verdicts2 = read_pipeline_outputs(out_drift)
    assert any("Drift" in v["checks_failed"] for v in verdicts2)
    assert any(not v["passed"] for v in verdicts2)


def test_bloom_shard_uniqueness_fast_path(spans_dir, run_out):
    # the D6 probabilistic prefilter + exact confirm must find exactly
    # the true duplicate ids
    import glob
    import os

    import pandas as pd
    import pyarrow.parquet as pq
    import ray.data as rd

    from zparse_ray.stages.uniqueness import bloom_candidate_dups, confirm_dups_exact

    meta_files = sorted(glob.glob(os.path.join(OUT, "docmeta", "part-*.parquet")))
    meta = rd.read_parquet(meta_files, columns=["doc_id"])
    candidates = bloom_candidate_dups(meta, n_shards=4, capacity_per_shard=10_000)
    confirmed = confirm_dups_exact(rd.read_parquet(meta_files, columns=["doc_id"]), candidates)

    ids = pq.read_table(meta_files, columns=["doc_id"])["doc_id"].to_pylist()
    vc = pd.Series(ids).value_counts()
    truth = vc[vc > 1].to_dict()
    assert confirmed == truth
    assert set(truth) <= candidates  # no false negatives ever


def test_parity_with_multi_batch_partitions(ray_session, tmp_path):
    # partitions larger than batch_size -> several sliced batches per
    # partition file; parity must still hold (guards ListArray offset
    # handling and multi-batch partial merging / commit accounting)
    cfg = SynthConfig(n_docs=16_000, n_partitions=2, seed=13)
    d = ensure_dataset(cfg)
    out = str(tmp_path / "mb")
    run_validation(d, out, round_trip=False, batch_size=2048)
    o_viols, o_verdicts = oracle_validate(d, round_trip=False)
    p_viols, p_verdicts = read_pipeline_outputs(out)
    assert p_verdicts == o_verdicts
    assert p_viols == o_viols


def test_one_task_per_partition_smaller_than_batch(ray_session, tmp_path):
    # partitions smaller than batch_size: each partition file is one
    # phase-1 task and one in-task slice, so every pid writes exactly one
    # docmeta file (bundled batches that straddle partitions write two)
    import glob

    cfg = SynthConfig(n_docs=1200, n_partitions=8, seed=23)
    d = ensure_dataset(cfg)
    out = str(tmp_path / "small_parts")
    run_validation(d, out, round_trip=False, batch_size=400)
    for pid in range(cfg.n_partitions):
        files = glob.glob(os.path.join(out, "docmeta", f"part-{pid:05d}-*.parquet"))
        assert len(files) == 1, (pid, files)
    o_viols, o_verdicts = oracle_validate(d, round_trip=False)
    assert read_pipeline_outputs(out) == (o_viols, o_verdicts)


def _sink_files(out):
    return {
        (sub, name)
        for sub in ("violations", "docmeta", "partials")
        for name in os.listdir(os.path.join(out, sub))
    }


def test_retried_validate_file_rewrites_same_files(ray_session, tmp_path):
    # a retried phase-1 task (its worker died after writing) runs
    # validate_file on the same file again: its sink files must keep
    # their names, or phase 2a reads the partition's docmeta twice and
    # reports false DuplicateKey rows
    import numpy as np

    from zparse_ray.stages.spancheck import validate_file

    cfg = SynthConfig(n_docs=1200, n_partitions=3, seed=37)
    d = ensure_dataset(cfg)
    out = str(tmp_path / "retry")
    run_validation(d, out, batch_size=150)
    before = _sink_files(out)
    assets = pq.read_table(os.path.join(d, "assets.parquet"))["asset_id"]
    assets = np.sort(assets.to_numpy(zero_copy_only=False))
    for _ in range(2):
        validate_file(
            os.path.join(d, "spans", "part-00001.parquet"),
            assets_ref=assets, out_dir=out, batch_size=150,
        )
        assert _sink_files(out) == before
    run_validation(d, out, batch_size=150)  # resume: phase 2 over the sink files
    assert read_pipeline_outputs(out) == oracle_validate(d)


def test_unreadable_partition_raises_and_commits_the_rest(ray_session, tmp_path):
    # a partition file that is not parquet fails its own task: the run
    # raises naming it, after every other partition committed, and a
    # resume once the file is fixed equals an uninterrupted run
    cfg = SynthConfig(n_docs=1200, n_partitions=4, seed=41)
    d = str(tmp_path / "in")
    shutil.copytree(ensure_dataset(cfg), d)
    bad = tmp_path / "in" / "spans" / "part-00002.parquet"
    good = bad.read_bytes()
    bad.write_bytes(b"this is not a parquet file")
    out = str(tmp_path / "out")
    with pytest.raises(RuntimeError, match="part-00002.parquet"):
        run_validation(d, out)
    m = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert set(m["partitions"]) == {"0", "1", "3"}
    assert not any(name.startswith("part-00002") for _, name in _sink_files(out))

    bad.write_bytes(good)
    run_validation(d, out)
    ref = str(tmp_path / "ref")
    run_validation(d, ref)
    assert read_pipeline_outputs(out) == read_pipeline_outputs(ref) == oracle_validate(d)


def test_default_run_does_not_use_ray_data(ray_session, tmp_path, monkeypatch):
    # phase 1 and both phase-2a paths (driver and tasks) run no Ray
    # Data pipeline, so neither its executor start-up nor its per-call
    # driver state is paid by a run
    import ray.data as rd

    def refuse(*a, **k):
        raise AssertionError("run_validation read through Ray Data")

    monkeypatch.setattr(rd, "read_parquet", refuse)
    cfg = SynthConfig(n_docs=900, n_partitions=3, seed=43)
    d = ensure_dataset(cfg)
    for threshold in (20_000_000, 0):
        out = str(tmp_path / f"no_rd_{threshold}")
        run_validation(d, out, dup_driver_threshold=threshold)
        assert read_pipeline_outputs(out) == oracle_validate(d), threshold


def test_validate_task_slices_merge_to_unsliced_call():
    # in-task slicing: the per-slice partials of one partition, merged
    # as the driver merges them, equal a single unsliced SpanValidator
    # call (t-digests are compressed by the merge, so they are compared
    # by count and quantiles rather than bytes)
    import numpy as np

    from zparse_ray.functions.sketches import TDigest
    from zparse_ray.stages.spancheck import SpanValidator, _merge_partials, validate_task
    from zparse_ray.synth import gen_assets, gen_partition

    cfg = SynthConfig(n_docs=1000, n_partitions=1, seed=29)
    batch = gen_partition(cfg, 0)
    assets = np.sort(gen_assets(cfg)["asset_id"].to_numpy(zero_copy_only=False))

    rows = validate_task(
        batch, assets_ref=assets, carry_doc_hashes=True, batch_size=96
    ).to_pylist()
    assert len(rows) == -(-batch.num_rows // 96)
    merged = rows[0]
    for r in rows[1:]:
        merged = _merge_partials(merged, r)
    (whole,) = SpanValidator(assets_ref=assets, assets_sorted=True)(batch).to_pylist()

    digests = ("textlen_tdigest", "spans_tdigest")
    assert {k: v for k, v in merged.items() if k not in digests} == {
        k: v for k, v in whole.items() if k not in digests
    }
    for k in digests:
        a, b = TDigest.from_bytes(merged[k]), TDigest.from_bytes(whole[k])
        assert a.count == b.count
        for q in (0.1, 0.5, 0.9):
            assert a.quantile(q) == pytest.approx(b.quantile(q), rel=0.05)


def test_violation_order_is_total(tmp_path):
    # a repeated doc_id with the same check at two offsets ties on
    # (pid, doc_id, span_index, check_id, detail); files read in either
    # order must still sort to the same list
    import pyarrow as pa

    from zparse_ray.schema import VIOLATIONS_SCHEMA

    base = {
        "partition_id": 0, "doc_id": "dup", "span_index": 0,
        "check_id": "Expected", "detail": "expected value", "line": 1, "col": 3,
    }
    a, b = dict(base, offset=10), dict(base, offset=90)
    outs = []
    for name, first, second in (("ab", a, b), ("ba", b, a)):
        out = tmp_path / name
        (out / "violations").mkdir(parents=True)
        for i, row in enumerate((first, second)):
            pq.write_table(
                pa.Table.from_pylist([row], schema=VIOLATIONS_SCHEMA),
                out / "violations" / f"part-00000-{i}.parquet",
            )
        pq.write_table(pa.table({"partition_id": [0]}), out / "verdicts.parquet")
        outs.append(read_pipeline_outputs(str(out)))
    assert outs[0] == outs[1]
    assert [v["offset"] for v in outs[0][0]] == [10, 90]


def test_quarantine_sink(spans_dir, tmp_path):
    import glob

    out = str(tmp_path / "quarantine_run")
    run_validation(spans_dir, out, round_trip=False, quarantine=True)
    qfiles = sorted(glob.glob(out + "/quarantine/part-*.parquet"))
    assert qfiles
    import pyarrow.compute as pc

    q = pq.read_table(qfiles)
    meta = pq.read_table(sorted(glob.glob(out + "/docmeta/part-*.parquet")))
    n_bad_docs = len(meta.filter(pc.greater(meta["n_violations"], 0)))
    # quarantined rows = docs with at least one non-dup violation
    assert q.num_rows == n_bad_docs
    assert set(q.schema.names) == {"doc_id", "spans", "partition_id"}


def test_xml_round_trip_clean_and_detected(monkeypatch):
    # D2 for XML: clean docs (incl. comment-split text and entities) pass;
    # a corrupted reserialization is caught as RoundTrip.
    import numpy as np

    import zparse_ray.stages.spancheck as S

    kinds = np.array(["xml", "xml", "xml"], dtype=object)
    texts = np.array(
        [
            "<a>x<!--c-->y</a>",                       # comment splits the text node
            '<r a="1&amp;2"><b/><b>t</b>  </r>',       # entities, repeats, ws-only text
            "<root><v>1</v><v>2</v></root>",
        ],
        dtype=object,
    )
    idxs = np.arange(3)
    assert S.validate_payloads(kinds, texts, idxs, round_trip=True) == []

    def corrupt(doc):
        return "<zzz/>"

    monkeypatch.setattr(S, "serialize_xml", corrupt)
    out = S.validate_payloads(kinds, texts, idxs, round_trip=True)
    assert len(out) == 3
    assert all(v[1] == "RoundTrip" for v in out)
    assert all((v[3], v[4]) == (0, 0) for v in out)  # round-trip carries no input position


def test_parser_config_max_depth_plumbed(ray_session, tmp_path):
    # Per-run parser configs (reference Config guards as job parameters):
    # a lowered max_depth must surface MaxDepthExceeded violations through
    # the distributed pipeline AND stay in parity with the oracle.
    from zparse_ray.stages.spancheck import build_parser_configs

    clean_cfg = SynthConfig(
        n_docs=400, n_partitions=2, seed=11,
        invalid_rate=0.0, dup_rate=0.0, dangling_rate=0.0, span_order_rate=0.0,
    )
    d = ensure_dataset(clean_cfg)
    cfgs = build_parser_configs(max_depth=1)
    out = str(tmp_path / "depth1")
    run_validation(d, out, parser_configs=cfgs)
    viols, verdicts = read_pipeline_outputs(out)
    assert any(v["check_id"] == "MaxDepthExceeded" for v in viols)
    o_viols, o_verdicts = oracle_validate(d, parser_configs=cfgs)
    assert viols == o_viols
    assert verdicts == o_verdicts


def test_null_fields_normalized_and_parity(ray_session, tmp_path):
    # foreign data can carry nulls our own layout never produces: null
    # kind -> UnknownKind, null grammar text -> empty-document grammar
    # error, null media_ref -> RefIntegrity, null offset -> -1, null
    # doc_id -> "". Pipeline and oracle must agree exactly.
    import pyarrow as pa
    import pyarrow.parquet as pq

    span_t = pa.struct(
        [("kind", pa.string()), ("text", pa.string()),
         ("media_ref", pa.string()), ("offset", pa.int32())]
    )
    schema = pa.schema(
        [("partition_id", pa.int32()), ("doc_id", pa.string()), ("spans", pa.list_(span_t))]
    )
    rows = [
        {"partition_id": 0, "doc_id": "d1", "spans": [
            {"kind": "json", "text": None, "media_ref": "", "offset": 0},   # empty-doc error
            {"kind": None, "text": "x", "media_ref": "", "offset": 5},       # UnknownKind
            {"kind": "image", "text": "t", "media_ref": None, "offset": 9},  # RefIntegrity
            {"kind": "text", "text": "fine", "media_ref": "", "offset": None},  # offset -1 -> SpanOrder
        ]},
        {"partition_id": 0, "doc_id": None, "spans": [
            {"kind": "text", "text": "ok", "media_ref": "", "offset": 0},
        ]},
    ]
    d = str(tmp_path / "nulls")
    os.makedirs(os.path.join(d, "spans"))
    pq.write_table(pa.Table.from_pylist(rows, schema=schema),
                   os.path.join(d, "spans", "part-00000.parquet"))
    pq.write_table(pa.table({"asset_id": pa.array(["asset-000001"])}),
                   os.path.join(d, "assets.parquet"))

    out = str(tmp_path / "nulls_out")
    run_validation(d, out, round_trip=True)
    p_viols, p_verdicts = read_pipeline_outputs(out)
    o_viols, o_verdicts = oracle_validate(d, round_trip=True)
    assert p_viols == o_viols
    assert p_verdicts == o_verdicts
    checks = {v["check_id"] for v in p_viols}
    assert "UnknownKind" in checks and "RefIntegrity" in checks


def test_violation_rows_carry_parser_line_col():
    # reference Pos is (offset, line, col) (error.rs:8-44); grammar
    # violations must carry the parser's 1-based position
    import numpy as np

    import zparse_ray.stages.spancheck as S

    kinds = np.array(["json", "toml"], dtype=object)
    texts = np.array(['{\n  "a": 1,\n  bad\n}', "x =\n= 1\n"], dtype=object)
    out = S.validate_payloads(kinds, texts, np.array([0, 1]), round_trip=False)
    assert len(out) == 2
    for _i, _check, _detail, line, col in out:
        assert line >= 1 and col >= 1
    # the JSON error is on line 3
    assert out[0][3] == 3


def test_dedup_corpus_exact_and_minhash(ray_session, tmp_path):
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from zparse_ray.pipelines.dedup_corpus import dedup_corpus

    rng = np.random.default_rng(23)
    vocab = [f"w{j}" for j in range(400)]
    # distinct random word soup per doc: cross-doc 5-gram Jaccard ~0,
    # while a one-word drop keeps J~0.9 (reliably LSH-detectable)
    base = [" ".join(rng.choice(vocab, 100, replace=False)) for _ in range(40)]
    texts = list(base)
    ids = list(range(40))
    # exact dups (normalized): copies of docs 0-4 with case/space tweaks
    for i in range(5):
        texts.append("  " + base[i].upper() + " ")
        ids.append(100 + i)
    # near-dups: docs 5-9 with one word dropped (minhash-detectable)
    for i in range(5, 10):
        words = base[i].split()
        del words[len(words) // 2]
        texts.append(" ".join(words))
        ids.append(200 + i)
    df = pd.DataFrame({"doc_id": np.array(ids, np.int64), "text": texts})
    src = str(tmp_path / "docs.parquet")
    pa.parquet.write_table(pa.Table.from_pandas(df, preserve_index=False), src)

    out1 = str(tmp_path / "dedup_exact")
    stats = dedup_corpus(src, out1, mode="exact")
    assert stats["n_docs_in"] == 50
    assert stats["n_dropped"] == 5  # the 5 normalized-exact copies
    kept = set(pq.read_table(out1)["doc_id"].to_pylist())
    assert kept == set(range(40)) | {205, 206, 207, 208, 209}

    # JSONL input routes through the format-dispatched reader and must
    # produce the same exact-mode survivors
    jsrc = str(tmp_path / "docs.jsonl")
    with open(jsrc, "w") as f:
        import json as _json

        for did, tx in zip(ids, texts):
            f.write(_json.dumps({"doc_id": int(did), "text": tx}) + "\n")
    outj = str(tmp_path / "dedup_jsonl")
    stats_j = dedup_corpus(jsrc, outj, mode="exact")
    assert stats_j["n_docs_in"] == 50 and stats_j["n_dropped"] == 5
    assert set(pq.read_table(outj)["doc_id"].to_pylist()) == kept

    out2 = str(tmp_path / "dedup_minhash")
    stats2 = dedup_corpus(src, out2, mode="minhash", threshold=0.5)
    kept2 = set(pq.read_table(out2)["doc_id"].to_pylist())
    # every planted copy (exact AND near) collapses onto its original
    assert set(range(40)) <= kept2
    assert not kept2 & ({100 + i for i in range(5)} | {200 + i for i in range(5, 10)})
    assert stats2["n_neardup_components"] >= 5
    assert stats2["n_dropped"] >= 10


def test_clean_corpus_full_stack(ray_session, tmp_path):
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from zparse_ray.pipelines.clean_corpus import clean_corpus

    rng = np.random.default_rng(7)
    vocab = ["the", "cat", "dog", "house", "runs", "fast", "small", "big",
             "data", "table", "word", "line", "text", "clean", "model"]
    texts, ids = [], []
    # 30 normal docs: varied word soup, no repeated-line boilerplate
    for i in range(30):
        texts.append(" ".join(rng.choice(vocab, 40)))
        ids.append(i)
    # 3 docs with a shared footer + an email each
    for i in range(3):
        texts.append(
            f"body text number {i} with words\n"
            "Subscribe: mail admin@example.com for updates\n"
            f"tail {i}"
        )
        ids.append(100 + i)
    # 2 repetitive junk docs (dup_word_frac ~ 1)
    for i in range(2):
        texts.append(" ".join(["spam"] * 60))
        ids.append(200 + i)
    df = pd.DataFrame({"doc_id": np.array(ids, np.int64), "text": texts})
    src = str(tmp_path / "docs.parquet")
    pa.parquet.write_table(pa.Table.from_pandas(df, preserve_index=False), src)

    out = str(tmp_path / "cleaned")
    stats = clean_corpus(src, out, line_min_docs=2, max_dup_word_frac=0.9)
    assert stats["n_docs_in"] == 35
    # the 2 junk docs die on repetition; everything else survives
    assert stats["n_docs_out"] == 33 and stats["n_dropped"] == 2
    t = pq.read_table(out)
    rows = {r["doc_id"]: r for r in t.to_pylist()}
    assert not set(rows) & {200, 201}
    # the shared footer line was boilerplate in >= 2 docs -> dropped,
    # and the email in it was redacted BEFORE counting (so it matched)
    for i in range(3):
        r = rows[100 + i]
        assert r["n_lines_dropped"] == 1
        assert "admin@example.com" not in r["text"]
        assert r["text"] == f"body text number {i} with words\ntail {i}"
    assert stats["total_n_lines_dropped"] == 3
    # counts reflect the redact STAGE (3 emails hit), even though the
    # redacted lines were later dropped as boilerplate
    assert stats["total_n_redactions"] == 3
    # annotations survive on normal docs
    assert rows[0]["dup_word_frac"] >= 0.0 and "n_redactions" in rows[0]

    # dirty out_dir refused
    with pytest.raises(ValueError, match="not empty"):
        clean_corpus(src, out)

    # perplexity filter with a TRUSTED reference corpus: gibberish dies,
    # in-domain survives (training on the input itself would let
    # self-reinforcing duplicated junk score low — the reason
    # lm_reference exists)
    out2 = str(tmp_path / "cleaned_ppl")
    ref_src = str(tmp_path / "ref.parquet")
    refdf = pd.DataFrame({"doc_id": np.arange(30, dtype=np.int64), "text": texts[:30]})
    pa.parquet.write_table(pa.Table.from_pandas(refdf, preserve_index=False), ref_src)
    texts2 = texts[:30] + [
        "zqx wvj klm pqr xyzzy plugh qwv jkl",
        "mnb vcx lkj poi uyt rew qas zxc",
    ]
    ids2 = ids[:30] + [300, 301]
    df2 = pd.DataFrame({"doc_id": np.array(ids2, np.int64), "text": texts2})
    src2 = str(tmp_path / "docs2.parquet")
    pa.parquet.write_table(pa.Table.from_pandas(df2, preserve_index=False), src2)
    stats2 = clean_corpus(
        src2, out2, line_min_docs=0, redact_pii=False,
        max_perplexity=12.0, lm_reference=ref_src,
    )
    kept2 = set(pq.read_table(out2)["doc_id"].to_pylist())
    assert not kept2 & {300, 301}
    assert kept2 == set(range(30))  # every in-domain doc survives
    assert stats2["n_docs_out"] == 30


def test_clean_corpus_ngram_caps(ray_session, tmp_path):
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from zparse_ray.pipelines.clean_corpus import clean_corpus

    rng = np.random.default_rng(11)
    vocab = [f"tok{i}" for i in range(300)]
    texts, ids = [], []
    for i in range(20):  # varied docs: distinct 5-grams, low repetition
        texts.append(" ".join(rng.choice(vocab, 60)))
        ids.append(i)
    # templated junk: ONE 5-gram phrase looped -> dup_5gram_frac ~ 1
    for i in range(3):
        texts.append(" ".join(["alpha beta gamma delta eps"] * 12))
        ids.append(100 + i)
    # a 3-token doc: NULL for n=5 (too short) -> must be KEPT
    texts.append("tiny little doc")
    ids.append(200)
    df = pd.DataFrame({"doc_id": np.array(ids, np.int64), "text": texts})
    src = str(tmp_path / "docs.parquet")
    pa.parquet.write_table(pa.Table.from_pandas(df, preserve_index=False), src)

    out = str(tmp_path / "cleaned")
    stats = clean_corpus(
        src, out, redact_pii=False, line_min_docs=0,
        ngram_caps={"dup_5gram_frac": 0.3},
    )
    kept = set(pq.read_table(out)["doc_id"].to_pylist())
    assert not kept & {100, 101, 102}
    assert 200 in kept  # short-for-n doc kept (null = no evidence)
    assert kept >= set(range(20))
    assert stats["n_docs_out"] == 21

    # bad key rejected loudly
    with pytest.raises(ValueError, match="ngram_caps keys"):
        clean_corpus(src, str(tmp_path / "x"), ngram_caps={"dup_word_frac": 0.5})


def test_clean_corpus_all_docs_filtered_returns_zero(ray_session, tmp_path):
    """When every doc is dropped (here: one shared line across all
    docs, so boilerplate removal empties them and the repetition
    filter drops the empties), clean_corpus reports n_docs_out=0
    instead of crashing on the missing output dir."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from zparse_ray.pipelines.clean_corpus import clean_corpus

    src = str(tmp_path / "docs.parquet")
    pq.write_table(
        pa.Table.from_pandas(
            pd.DataFrame({"doc_id": [0, 1, 2], "text": ["same line"] * 3}),
            preserve_index=False,
        ),
        src,
    )
    res = clean_corpus(src, str(tmp_path / "out"), max_dup_word_frac=0.5)
    assert res["n_docs_in"] == 3 and res["n_docs_out"] == 0 and res["n_dropped"] == 3


def test_dedup_corpus_with_reference(ray_session, tmp_path):
    """Incremental-ingestion mode: --reference drops cross-corpus dups
    FIRST, then within-corpus exact dedup runs on the survivors; stats
    separate the two drop counts."""
    import pandas as pd
    import pyarrow as pa

    from zparse_ray.pipelines.dedup_corpus import dedup_corpus

    ref = str(tmp_path / "ref.parquet")
    pa.parquet.write_table(
        pa.Table.from_pandas(
            pd.DataFrame({"doc_id": [0, 1], "text": ["old doc one", "old doc two"]}),
            preserve_index=False,
        ),
        ref,
    )
    # candidates: one cross dup (normalized match), one within dup pair,
    # two unique docs
    cand = str(tmp_path / "cand.parquet")
    pa.parquet.write_table(
        pa.Table.from_pandas(
            pd.DataFrame(
                {
                    "doc_id": [10, 11, 12, 13, 14],
                    "text": [
                        "  OLD doc ONE ",   # cross dup of ref 0
                        "fresh text a",
                        "fresh text a",     # within dup of 11
                        "fresh text b",
                        "fresh text c",
                    ],
                }
            ),
            preserve_index=False,
        ),
        cand,
    )
    for method in ("broadcast", "shuffle"):
        out = str(tmp_path / f"out_{method}")
        stats = dedup_corpus(cand, out, mode="exact", reference=ref, cross_method=method)
        assert stats["n_cross_dropped"] == 1, method
        assert stats["n_docs_in"] == 5 and stats["n_docs_out"] == 3, method
        kept = set(pq.ParquetDataset(out).read()["doc_id"].to_pylist())
        assert kept == {11, 13, 14}, method


def test_corpus_stats_exact_counts_and_hll(ray_session):
    import math

    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from zparse_ray.pipelines.corpus_stats import corpus_stats

    texts = [f"doc number {i} with five tokens" for i in range(90)]
    texts += ["dup text"] * 10  # 10 copies -> 91 distinct contents
    df = pd.DataFrame(
        {
            "doc_id": range(100),
            "text": texts,
            "lang": ["en"] * 60 + ["de"] * 40,
        }
    )
    ds = rd.from_arrow(pa.Table.from_pandas(df, preserve_index=False)).repartition(4)
    s = corpus_stats(ds)
    assert s["n_docs"] == 100
    assert s["n_tokens"] == 90 * 6 + 10 * 2
    assert s["by_lang"] == {"en": 60, "de": 40}
    assert s["n_bytes"] == sum(len(t.encode()) for t in texts)
    assert abs(s["distinct_content_est"] - 91) <= math.ceil(91 * 0.05)
    # exact quantiles over n_tokens: 90% of docs have 6 tokens
    assert s["token_quantiles"]["0.5"] == 6.0 and s["token_quantiles"]["0.1"] == 2.0


def test_full_curation_chain_interop(ray_session, tmp_path):
    """The pipelines compose: clean -> incremental dedup -> chunk ->
    deterministic shuffle -> train/eval split, each consuming the
    previous stage's written output. Locks output-schema interop and
    row accounting across the whole curation chain."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from zparse_ray.pipelines.clean_corpus import clean_corpus
    from zparse_ray.pipelines.dedup_corpus import dedup_corpus
    from zparse_ray.stages.chunk import chunk_documents
    from zparse_ray.stages.sample import deterministic_shuffle
    from zparse_ray.stages.textops import split_assign_batch

    rng = np.random.default_rng(11)
    vocab = [f"tok{j}" for j in range(300)]
    texts = [" ".join(rng.choice(vocab, 30)) for _ in range(30)]
    texts[5] = texts[4]          # within-corpus exact dup
    texts[9] = "ref doc body"    # cross-corpus dup
    src = str(tmp_path / "raw.parquet")
    pa.parquet.write_table(
        pa.Table.from_pandas(
            pd.DataFrame({"doc_id": np.arange(30, dtype=np.int64), "text": texts}),
            preserve_index=False,
        ),
        src,
    )
    ref = str(tmp_path / "ref.parquet")
    pa.parquet.write_table(
        pa.Table.from_pandas(
            pd.DataFrame({"doc_id": [900], "text": ["REF doc body "]}),
            preserve_index=False,
        ),
        ref,
    )

    cleaned = str(tmp_path / "cleaned")
    c_stats = clean_corpus(src, cleaned, line_min_docs=3)
    assert c_stats["n_docs_out"] == 30  # nothing boilerplate at min_docs=3

    deduped = str(tmp_path / "deduped")
    d_stats = dedup_corpus(cleaned, deduped, mode="exact", reference=ref)
    assert d_stats["n_cross_dropped"] == 1 and d_stats["n_docs_out"] == 28

    docs = rd.read_parquet(deduped)
    chunks = chunk_documents(docs, chunk_tokens=8, overlap_tokens=2)
    shuffled = deterministic_shuffle(chunks, seed=3)
    split = shuffled.map_batches(
        split_assign_batch, batch_format="pyarrow", zero_copy_batch=True
    ).to_pandas()
    # 30 tokens, chunk 8 stride 6: ceil((30-8)/6)+1 = 5 chunks per doc
    assert len(split) == 28 * 5
    assert set(split.columns) >= {"doc_id", "chunk_id", "text", "n_tokens", "split"}
    assert set(split["split"]) <= {"train", "eval"}
    # shuffle is reproducible end-to-end
    again = deterministic_shuffle(
        chunk_documents(rd.read_parquet(deduped), chunk_tokens=8, overlap_tokens=2),
        seed=3,
    ).to_pandas()
    assert again["doc_id"].tolist() == split["doc_id"].tolist()
    assert again["chunk_id"].tolist() == split["chunk_id"].tolist()


def test_clean_persist_intermediate_identical_output(ray_session, tmp_path):
    """persist_intermediate trades object-store/disk for the redaction
    recompute in the line-dedup count pass (VERDICT r4 item 8 knob) —
    output must be identical either way."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from zparse_ray.pipelines.clean_corpus import clean_corpus

    rng = np.random.default_rng(31)
    vocab = [f"v{j}" for j in range(40)]
    texts, ids = [], []
    for i in range(40):
        texts.append(" ".join(rng.choice(vocab, 30)))
        ids.append(i)
    for i in range(4):  # shared footer + PII so both stages do work
        texts.append(f"body {i}\nwrite to me+{i}@mail.example\nshared footer line")
        ids.append(100 + i)
    df = pd.DataFrame({"doc_id": np.array(ids, np.int64), "text": texts})
    src = str(tmp_path / "docs.parquet")
    pa.parquet.write_table(pa.Table.from_pandas(df, preserve_index=False), src)

    outs = []
    for persist in (False, True):
        out = str(tmp_path / f"clean_persist_{persist}")
        stats = clean_corpus(src, out, line_min_docs=2, max_dup_word_frac=0.9,
                             persist_intermediate=persist)
        t = pq.read_table(out).sort_by([("doc_id", "ascending")])
        outs.append((stats["n_docs_out"], t))
    (n_a, ta), (n_b, tb) = outs
    assert n_a == n_b
    assert ta.equals(tb)


def test_composed_clean_dedup_mix_pack_cli(ray_session, tmp_path):
    """The composed pipeline a curation run actually executes (VERDICT
    r4 item 7), driven through the real CLI subcommands as separate
    processes: clean -> dedup -> mix -> pack, with row-conservation
    invariants asserted across every stage boundary."""
    import json as _json
    import subprocess
    import sys

    import numpy as np
    import pandas as pd
    import pyarrow as pa

    rng = np.random.default_rng(53)
    vocab = [f"w{j}" for j in range(300)]
    texts, ids = [], []
    for i in range(120):
        texts.append(" ".join(rng.choice(vocab, 60, replace=False)))
        ids.append(i)
    for i in range(10):  # exact dups for the dedup stage to drop —
        # case/space variants so the CLEAN stage's line-dedup (case-
        # sensitive line hashes) does not collapse them first; only the
        # normalized content hash of the dedup stage sees them as equal
        texts.append("  " + texts[i].upper() + " ")
        ids.append(1000 + i)
    for i in range(4):  # boilerplate + PII for the clean stage
        texts.append(f"doc body {i}\ncontact us at info@example.org\n"
                     f"{' '.join(rng.choice(vocab, 40, replace=False))}")
        ids.append(2000 + i)
    df = pd.DataFrame({"doc_id": np.array(ids, np.int64), "text": texts})
    src = str(tmp_path / "raw.parquet")
    pa.parquet.write_table(pa.Table.from_pandas(df, preserve_index=False), src)

    def run(args):
        r = subprocess.run(
            [sys.executable, "-m", "zparse_ray.run", *args],
            capture_output=True, text=True, cwd="/root/repo",
            env={"PATH": "/usr/bin:/bin", "HOME": "/root",
                 "RAY_DEDUP_LOGS": "0"},
        )
        assert r.returncode == 0, r.stderr[-3000:]
        return _json.loads(r.stdout.strip().splitlines()[-1])

    cleaned = str(tmp_path / "cleaned")
    c = run(["clean", "--input", src, "--output", cleaned,
             "--line-min-docs", "2", "--num-cpus", "4"])
    assert c["n_docs_in"] == 134
    assert c["n_docs_out"] == 134  # cleaning annotates/redacts, drops none here

    deduped = str(tmp_path / "deduped")
    d = run(["dedup", "--input", cleaned, "--output", deduped,
             "--mode", "exact", "--num-cpus", "4"])
    assert d["n_docs_in"] == c["n_docs_out"]
    assert d["n_dropped"] == 10  # the planted exact dups
    n_dedup = d["n_docs_out"]

    mixed = str(tmp_path / "mixed")
    m = run(["mix", "--source", f"main={deduped}",
             "--token-budget", "1000000", "--max-epochs", "1",
             "--output", mixed, "--num-cpus", "4"])
    assert m["n_rows"] == n_dedup  # budget >> corpus: every row kept once

    packed = str(tmp_path / "packed")
    p = run(["pack", "--input", mixed, "--output", packed,
             "--seq-tokens", "128", "--mode", "whole", "--num-cpus", "4"])
    # whole-mode conservation: every mixed doc appears in exactly one
    # sequence, and token totals survive packing exactly
    t = pq.read_table(packed, columns=["n_tokens", "doc_ids"])
    flat = [d for l in t["doc_ids"].to_pylist() for d in l]
    assert len(flat) == n_dedup and len(set(flat)) == n_dedup
    assert p["total_tokens"] == int(pa.compute.sum(t["n_tokens"]).as_py())
    assert p["n_sequences"] == t.num_rows > 0


def test_dedup_corpus_minhash_matches_bruteforce_on_clustered_corpus(ray_session, tmp_path):
    """Brute-force oracle for minhash mode on a corpus of clean near-dup
    families (every member pair within a family has shingle-Jaccard
    >= threshold, cross-family ~0): the star-edge + LSH + verify +
    components chain must drop exactly every family's non-minimum ids —
    the regime where star connectivity equals the all-pairs graph."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from zparse_ray.pipelines.dedup_corpus import dedup_corpus
    from zparse_ray.stages.dedup import jaccard, shingles

    rng = np.random.default_rng(71)
    texts, ids, expected_drop = [], [], set()
    next_id = 0
    for fam in range(25):
        vocab = [f"f{fam}w{j}" for j in range(220)]
        base = list(rng.choice(vocab, 120, replace=False))
        size = int(rng.integers(1, 6))
        members = []
        for m in range(size):
            words = list(base)
            if m:  # tiny mutation: drop one word (J ~ 0.93)
                del words[int(rng.integers(1, len(words)))]
            members.append((next_id, " ".join(words)))
            next_id += 1
        # construction sanity: every pair is above threshold
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                assert jaccard(shingles(members[i][1]), shingles(members[j][1])) >= 0.8
        fam_min = min(i for i, _ in members)
        for i, t in members:
            ids.append(i)
            texts.append(t)
            if i != fam_min:
                expected_drop.add(i)
    df = pd.DataFrame({"doc_id": np.array(ids, np.int64), "text": texts})
    src = str(tmp_path / "clustered.parquet")
    pa.parquet.write_table(pa.Table.from_pandas(df, preserve_index=False), src)

    out = str(tmp_path / "dedup_clustered")
    stats = dedup_corpus(src, out, mode="minhash", threshold=0.8)
    kept = set(pq.read_table(out)["doc_id"].to_pylist())
    assert kept == set(ids) - expected_drop
    assert stats["n_dropped"] == len(expected_drop)
    assert stats["n_truncated_slots"] == 0


def test_dedup_corpus_string_ids_exact_ok_minhash_rejected(ray_session, tmp_path):
    """String doc ids: exact mode fully supports them (hash + keyed
    Min + semi-mark are type-agnostic; keep = lexicographic-min id);
    minhash mode is int64 end-to-end and must refuse LOUDLY up front
    instead of surfacing a cryptic RayTaskError from the signature
    actor pool."""
    import pandas as pd
    import pyarrow as pa

    from zparse_ray.pipelines.dedup_corpus import dedup_corpus

    df = pd.DataFrame({
        "doc_id": [f"d{i:03d}" for i in range(10)] + ["x1", "x2"],
        "text": [f"unique text number {i} with words" for i in range(10)]
                + ["unique text number 0 with words",
                   "  UNIQUE TEXT NUMBER 1 WITH WORDS "],
    })
    src = str(tmp_path / "strid.parquet")
    pa.parquet.write_table(pa.Table.from_pandas(df, preserve_index=False), src)

    out = str(tmp_path / "strid_exact")
    stats = dedup_corpus(src, out, mode="exact")
    assert stats["n_dropped"] == 2  # both normalized copies lose to d000/d001
    assert sorted(pq.read_table(out)["doc_id"].to_pylist()) == [
        f"d{i:03d}" for i in range(10)
    ]
    with pytest.raises(ValueError, match="integer"):
        dedup_corpus(src, str(tmp_path / "strid_mh"), mode="minhash")


def test_kind_hist_and_precheck_masks_per_partition():
    # the per-pid kind histogram is a sorted-key JSON of exact counts,
    # including unknown and null (read as "") kinds, and the prechecks
    # flag exactly the unknown kinds
    from collections import Counter

    import pyarrow as pa

    from zparse_ray.stages.spancheck import SpanValidator
    from zparse_ray.synth import gen_partition

    cfg = SynthConfig(n_docs=300, n_partitions=2, seed=5)
    batch = pa.concat_tables([gen_partition(cfg, 0), gen_partition(cfg, 1)])
    rows = batch.to_pylist()
    rows[0]["spans"][0]["kind"] = "bogus"
    rows[-1]["spans"][0]["kind"] = None
    batch = pa.Table.from_pylist(rows, schema=batch.schema)
    partials = SpanValidator()(batch).to_pylist()
    assert [p["partition_id"] for p in partials] == [0, 1]
    for p in partials:
        want = Counter(
            s["kind"] or "" for r in rows if r["partition_id"] == p["partition_id"]
            for s in r["spans"]
        )
        assert p["kind_hist"] == json.dumps(dict(want), sort_keys=True)
        assert "UnknownKind" in p["checks_failed"].split(",")


def test_toml_digit_run_past_int_limit_is_a_violation(ray_session, tmp_path):
    # int() raises ValueError on a run past Python's 4,300-digit limit;
    # such a TOML span must give InvalidNumber, as in the oracle, and not
    # fail its whole phase-1 task
    import pyarrow as pa

    span_t = pa.struct(
        [("kind", pa.string()), ("text", pa.string()),
         ("media_ref", pa.string()), ("offset", pa.int32())]
    )
    schema = pa.schema(
        [("partition_id", pa.int32()), ("doc_id", pa.string()), ("spans", pa.list_(span_t))]
    )
    rows = [
        {"partition_id": 0, "doc_id": "d1", "spans": [
            {"kind": "toml", "text": "a = " + "1" * 5000, "media_ref": "", "offset": 0},
            {"kind": "toml", "text": "b = 1", "media_ref": "", "offset": 9},
        ]},
        {"partition_id": 0, "doc_id": "d2", "spans": [
            {"kind": "toml", "text": "x = 1\nc = -" + "2" * 4400, "media_ref": "", "offset": 0},
        ]},
    ]
    d = str(tmp_path / "long_digits")
    os.makedirs(os.path.join(d, "spans"))
    pq.write_table(pa.Table.from_pylist(rows, schema=schema),
                   os.path.join(d, "spans", "part-00000.parquet"))

    out = str(tmp_path / "long_digits_out")
    run_validation(d, out)
    p_viols, p_verdicts = read_pipeline_outputs(out)
    assert (p_viols, p_verdicts) == oracle_validate(d)
    assert [(v["doc_id"], v["span_index"], v["check_id"], v["line"], v["col"]) for v in p_viols] == [
        ("d1", 0, "InvalidNumber", 1, 5),
        ("d2", 0, "InvalidNumber", 2, 5),
    ]


def test_partition_failing_its_footer_check_is_never_committed(ray_session, tmp_path, monkeypatch):
    # one partition's doc count disagrees with its footer: the other one
    # is committed alone, and a resume once the footer agrees equals the oracle
    import types

    from zparse_ray.state.checkpoint import Manifest

    cfg = SynthConfig(n_docs=600, n_partitions=2, seed=47)
    d = ensure_dataset(cfg)
    bad = os.path.join(d, "spans", "part-00001.parquet")
    real_pf, real_commit = pq.ParquetFile, Manifest.commit

    def lying_footer(path, *a, **k):
        f = real_pf(path, *a, **k)
        if path != bad:
            return f
        return types.SimpleNamespace(metadata=types.SimpleNamespace(num_rows=f.metadata.num_rows + 1))

    commits = []

    def spy_commit(self, pid, info):
        commits.append(pid)
        real_commit(self, pid, info)

    monkeypatch.setattr(pq, "ParquetFile", lying_footer)
    monkeypatch.setattr(Manifest, "commit", spy_commit)
    out = str(tmp_path / "out")
    with pytest.raises(RuntimeError, match="part-00001.parquet"):
        run_validation(d, out)
    assert commits == [0]
    m = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert set(m["partitions"]) == {"0"}
    assert os.listdir(os.path.join(out, "partials")) == ["part-00000.parquet"]

    monkeypatch.undo()
    run_validation(d, out)
    assert read_pipeline_outputs(out) == oracle_validate(d)


def test_remote_wrappers_are_built_once_per_process(ray_session, tmp_path, monkeypatch):
    # run_validation's ray.remote wrappers are built on the first call only
    import ray

    from zparse_ray.pipelines import validate as V

    built = []
    real_remote = ray.remote

    def counting_remote(*a, **k):
        if a and getattr(a[0], "__module__", "").startswith("zparse_ray."):
            built.append(a[0].__name__)
        return real_remote(*a, **k)

    monkeypatch.setattr(ray, "remote", counting_remote)
    V._remote.cache_clear()
    d = ensure_dataset(SynthConfig(n_docs=900, n_partitions=3, seed=43))
    want = oracle_validate(d)
    for i in range(2):
        run_validation(d, str(tmp_path / f"run{i}"), dup_driver_threshold=0)
        assert read_pipeline_outputs(str(tmp_path / f"run{i}")) == want
    assert sorted(built) == ["_meta_split", "_write_dups", "validate_file"]


_NEW_SESSION_RUNNER = """
import sys
sys.path.insert(0, {repo!r})
import ray
from zparse_ray.oracle import oracle_validate, read_pipeline_outputs
from zparse_ray.pipelines import validate as V
want = oracle_validate({spans!r})
for i in range(2):
    ray.init(address="local", num_cpus=2, include_dashboard=False, logging_level="ERROR")
    V.run_validation({spans!r}, {out!r} + str(i), dup_driver_threshold=0)
    ray.shutdown()
    assert read_pipeline_outputs({out!r} + str(i)) == want, i
print(V._remote.cache_info().currsize)
"""


def test_remote_wrappers_work_in_a_new_ray_session(tmp_path):
    # the cached wrappers still run after ray.shutdown()/ray.init(); a
    # subprocess owns both sessions, so the shared test session is untouched
    import subprocess
    import sys

    d = ensure_dataset(SynthConfig(n_docs=600, n_partitions=2, seed=43))
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    script = _NEW_SESSION_RUNNER.format(repo=repo, spans=d, out=str(tmp_path / "run"))
    r = subprocess.run([sys.executable, "-c", script], cwd=repo, capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, r.stderr[-2000:]
    assert r.stdout.strip().splitlines()[-1] == "3"


# -- phase 2b: verdicts from the manifest ------------------------------------

def _partials_reads(monkeypatch):
    """Paths under partials/ that the driver reads through
    read_parquet_file from now on."""
    from zparse_ray.pipelines import validate as V

    reads = []
    real = V.read_parquet_file

    def spy(path, *a, **k):
        if os.sep + "partials" + os.sep in path:
            reads.append(path)
        return real(path, *a, **k)

    monkeypatch.setattr(V, "read_parquet_file", spy)
    return reads


def test_verdicts_come_from_the_manifest(ray_session, tmp_path, monkeypatch):
    # a fresh run reads no partials file in phase 2b, and its manifest
    # entries carry every verdict field
    d = ensure_dataset(SynthConfig(n_docs=900, n_partitions=3, seed=53))
    reads = _partials_reads(monkeypatch)
    out = str(tmp_path / "out")
    run_validation(d, out)
    assert reads == []
    assert read_pipeline_outputs(out) == oracle_validate(d)
    m = json.loads((tmp_path / "out" / "manifest.json").read_text())
    for pid, info in m["partitions"].items():
        (p,) = pq.read_table(os.path.join(out, "partials", f"part-{int(pid):05d}.parquet")).to_pylist()
        assert {k: info[k] for k in ("n_docs", "n_spans", "n_violations", "checks_failed")} == {
            k: p[k] for k in ("n_docs", "n_spans", "n_violations", "checks_failed")
        }


def test_resume_after_half_the_partitions_committed(ray_session, tmp_path, monkeypatch):
    # the first call sees only half the partition files and commits them;
    # the second call runs the rest, and its verdicts cover both halves
    src = ensure_dataset(SynthConfig(n_docs=1200, n_partitions=4, seed=59))
    d = str(tmp_path / "in")
    shutil.copytree(src, d)
    spans = os.path.join(d, "spans")
    held = str(tmp_path / "held")
    os.makedirs(held)
    for name in ("part-00002.parquet", "part-00003.parquet"):
        shutil.move(os.path.join(spans, name), os.path.join(held, name))
    out = str(tmp_path / "out")
    run_validation(d, out)
    assert set(json.load(open(os.path.join(out, "manifest.json")))["partitions"]) == {"0", "1"}
    for name in os.listdir(held):
        shutil.move(os.path.join(held, name), os.path.join(spans, name))
    reads = _partials_reads(monkeypatch)
    run_validation(d, out)
    assert reads == []
    assert read_pipeline_outputs(out) == oracle_validate(d)


@pytest.mark.parametrize("case", ["resume", "no_resume", "uncommitted"])
def test_removed_partition_leaves_the_output(ray_session, tmp_path, case):
    # a partition file removed between runs takes its verdict, its
    # doc_ids and its sink files out of the next run's output, with and
    # without resume, and also when a killed run left its sink files
    # without a manifest entry
    src = ensure_dataset(SynthConfig(n_docs=600, n_partitions=3, seed=5))
    d = str(tmp_path / "in")
    shutil.copytree(src, d)
    out = str(tmp_path / "out")
    run_validation(d, out)
    mpath = os.path.join(out, "manifest.json")
    if case == "uncommitted":
        m = json.load(open(mpath))
        del m["partitions"]["2"]
        json.dump(m, open(mpath, "w"))
    os.remove(os.path.join(d, "spans", "part-00002.parquet"))
    run_validation(d, out, resume=case != "no_resume")
    assert read_pipeline_outputs(out) == oracle_validate(d)
    assert set(json.load(open(mpath))["partitions"]) == {"0", "1"}
    left = glob.glob(os.path.join(out, "*", "part-00002*"))
    assert left == []


def _write_plain(table, path):
    # no compression, dictionary or statistics: the file size depends on
    # the value lengths only, so a same-length edit keeps it
    pq.write_table(table, path, compression="none", use_dictionary=False, write_statistics=False)


def test_same_size_rewrite_is_validated_again(ray_session, tmp_path):
    # a partition file rewritten in place with other docs, the same row
    # count and the same size: a resume drops its manifest entry (the
    # fingerprint's mtime_ns differs) and validates it again
    import pyarrow as pa

    src = ensure_dataset(SynthConfig(n_docs=600, n_partitions=3, seed=5))
    d = str(tmp_path / "in")
    shutil.copytree(src, d)
    path = os.path.join(d, "spans", "part-00001.parquet")
    t = pq.read_table(path)
    _write_plain(t, path)
    out = str(tmp_path / "out")
    run_validation(d, out)
    before = os.stat(path)
    # part 1 now repeats part 0's doc_ids (same length): DuplicateKey rows
    ids = pq.read_table(os.path.join(d, "spans", "part-00000.parquet"))["doc_id"][: t.num_rows]
    _write_plain(t.set_column(0, "doc_id", pa.chunked_array([ids])), path)
    after = os.stat(path)
    assert after.st_size == before.st_size
    if after.st_mtime_ns == before.st_mtime_ns:  # a coarse file-system clock
        os.utime(path, ns=(after.st_atime_ns, after.st_mtime_ns + 1_000_000_000))
    run_validation(d, out, resume=True)
    got = read_pipeline_outputs(out)
    assert got == oracle_validate(d)
    assert any(v["check_id"] == "DuplicateKey" for v in got[0])


def test_added_partition_is_validated_on_resume(ray_session, tmp_path):
    src = ensure_dataset(SynthConfig(n_docs=900, n_partitions=3, seed=7))
    d = str(tmp_path / "in")
    shutil.copytree(src, d)
    extra = os.path.join(d, "spans", "part-00002.parquet")
    held = str(tmp_path / "held.parquet")
    shutil.move(extra, held)
    out = str(tmp_path / "out")
    run_validation(d, out)
    shutil.move(held, extra)
    run_validation(d, out, resume=True)
    assert read_pipeline_outputs(out) == oracle_validate(d)
    assert set(json.load(open(os.path.join(out, "manifest.json")))["partitions"]) == {"0", "1", "2"}


def test_entry_without_fingerprint_is_validated_again(ray_session, tmp_path):
    # the rule for entries an older engine committed without an input
    # fingerprint: nothing says which input they describe, so a resume
    # drops them and validates their partitions again; the others stay
    src = ensure_dataset(SynthConfig(n_docs=900, n_partitions=3, seed=53))
    d = str(tmp_path / "in")
    shutil.copytree(src, d)
    out = str(tmp_path / "out")
    run_validation(d, out)
    mpath = os.path.join(out, "manifest.json")
    m = json.load(open(mpath))
    del m["partitions"]["1"]["input"]
    json.dump(m, open(mpath, "w"))
    run_validation(d, out, resume=True)
    m2 = json.load(open(mpath))["partitions"]
    assert "input" in m2["1"] and m2["1"]["committed_at"] > m["partitions"]["1"]["committed_at"]
    assert [m2[k]["committed_at"] for k in ("0", "2")] == [m["partitions"][k]["committed_at"] for k in ("0", "2")]
    assert read_pipeline_outputs(out) == oracle_validate(d)


def test_phase1_split_timings(ray_session, tmp_path):
    # the phase-1 tasks report their read / walk / sink seconds, which
    # the driver sums into timings and keeps out of the manifest
    d = ensure_dataset(SynthConfig(n_docs=600, n_partitions=3, seed=5))
    out = str(tmp_path / "out")
    t = run_validation(d, out)["timings"]
    for k in ("phase1_read_s", "phase1_walk_s", "phase1_sink_s"):
        assert t[k] > 0, k
    for entry in json.load(open(os.path.join(out, "manifest.json")))["partitions"].values():
        assert not {"read_s", "walk_s", "sink_s"} & set(entry)


def test_manifest_entry_without_checks_failed(ray_session, tmp_path, monkeypatch):
    # an older engine committed n_docs/n_spans/n_violations only: phase
    # 2b reads that partition's partials file, and no other
    d = ensure_dataset(SynthConfig(n_docs=900, n_partitions=3, seed=53))
    out = str(tmp_path / "out")
    run_validation(d, out)
    mpath = os.path.join(out, "manifest.json")
    m = json.load(open(mpath))
    del m["partitions"]["1"]["checks_failed"]
    json.dump(m, open(mpath, "w"))
    reads = _partials_reads(monkeypatch)
    run_validation(d, out)
    assert [os.path.basename(p) for p in reads] == ["part-00001.parquet"]
    assert read_pipeline_outputs(out) == oracle_validate(d)


def test_drift_rows_from_partials_files(ray_session, tmp_path, monkeypatch):
    # with a drift profile, phase 2b reads every partials file, and the
    # Drift rows and verdicts are the partials' KS/PSI against the profile
    # on top of the oracle's verdicts
    from zparse_ray.pipelines.validate import ks_distance, psi
    from zparse_ray.functions.sketches import TDigest

    clean = dict(invalid_rate=0.0, dup_rate=0.0, dangling_rate=0.0, span_order_rate=0.0)
    d_ref = ensure_dataset(SynthConfig(n_docs=600, n_partitions=3, seed=21, **clean))
    run_validation(d_ref, str(tmp_path / "ref"))
    profile_path = str(tmp_path / "profile.json")
    prof = build_profile(str(tmp_path / "ref"), profile_path)
    d = ensure_dataset(SynthConfig(n_docs=600, n_partitions=3, seed=22, mean_spans=20))
    out = str(tmp_path / "out")
    reads = _partials_reads(monkeypatch)
    run_validation(d, out, drift_profile=profile_path)
    assert len(reads) == 3

    want_drift = []
    o_viols, o_verdicts = oracle_validate(d)
    for v in o_verdicts:
        (p,) = pq.read_table(
            os.path.join(out, "partials", f"part-{v['partition_id']:05d}.parquet")
        ).to_pylist()
        ks = max(
            ks_distance(TDigest.from_bytes(p[k]), TDigest.from_bytes(bytes.fromhex(prof[k])))
            for k in ("textlen_tdigest", "spans_tdigest")
        )
        p_psi = psi(prof["kind_hist"], json.loads(p["kind_hist"]))
        if ks > 0.15 or p_psi > 0.25:
            want_drift.append((v["partition_id"], f"ks={ks:.4f} psi={p_psi:.4f}"))
            checks = set(filter(None, v["checks_failed"].split(","))) | {"Drift"}
            v.update(passed=False, n_violations=v["n_violations"] + 1,
                     checks_failed=",".join(sorted(checks)))
    viols, verdicts = read_pipeline_outputs(out)
    assert want_drift
    assert [(v["partition_id"], v["detail"]) for v in viols if v["check_id"] == "Drift"] == want_drift
    assert [v for v in viols if v["check_id"] != "Drift"] == o_viols
    assert verdicts == o_verdicts


def test_rows_of_another_partition_id_fail_before_any_write(ray_session, tmp_path):
    # rows of id 7 in part-00001.parquet: the task raises naming the file
    # and writes nothing, so no part-00007-* file exists; once the file
    # is fixed, a resume equals the oracle
    import pyarrow as pa
    import pyarrow.compute as pc

    cfg = SynthConfig(n_docs=600, n_partitions=2, seed=61)
    d = str(tmp_path / "in")
    shutil.copytree(ensure_dataset(cfg), d)
    bad = os.path.join(d, "spans", "part-00001.parquet")
    good = pq.read_table(bad)
    i = good.schema.get_field_index("partition_id")
    pq.write_table(good.set_column(i, "partition_id", pc.cast(pa.array([7] * good.num_rows), good.schema.field(i).type)), bad)
    out = str(tmp_path / "out")
    with pytest.raises(RuntimeError, match="part-00001.parquet"):
        run_validation(d, out)
    m = json.load(open(os.path.join(out, "manifest.json")))
    assert set(m["partitions"]) == {"0"}

    pq.write_table(good, bad)
    run_validation(d, out)
    assert read_pipeline_outputs(out) == oracle_validate(d)
    names = [n for sub in ("violations", "docmeta", "partials") for n in os.listdir(os.path.join(out, sub))]
    assert names and not [n for n in names if n.startswith("part-00007")]
