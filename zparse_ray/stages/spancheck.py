"""D1/D2: the span-structure validator stage.

Phase 1 of ``run_validation`` runs ``validate_file`` as plain Ray
tasks, one per uncommitted input partition file: each task reads its
own file on its own thread (``read_parquet_file``) and validates it
through ``validate_task``, which builds one ``SpanValidator`` and calls it on
zero-copy slices of the table. The broadcast asset key-set is put in
the object store once by the driver, pre-sorted, and passed as a task
argument, so Ray resolves it before the task starts.

Per batch (zero-copy Arrow):
1. vectorized prechecks first — span-count/byte-size limits, offset
   monotonicity (SpanOrder), media_ref membership against the broadcast
   asset set (RefIntegrity), unknown kinds — all numpy/pyarrow kernels;
2. the grammar walk (reference semantics: JSON/JSONC/CSV/TOML/YAML/XML
   parsers from functions/) runs ONLY on spans whose kind is a grammar
   kind and which survived the prechecks. When ``round_trip`` is off,
   the CSV, TOML and YAML spans first meet their kind's column accept
   mask (``accept_mask_csv``/``_toml``/``_yaml``: one RE2 shape match
   over the whole kind column in Arrow, plus numpy over its byte buffer
   for distinct keys per scope and YAML's indent levels), and only the
   spans a mask did not accept become Python strings and are walked.
   The walk goes grouped by kind so one parser stays hot, and where a
   cheaper check can decide "valid" it goes first: JSON's C scanner
   inside ``parse_json``, and, when ``round_trip`` is off, the
   recognizer-only ``check_json``/``check_jsonc`` (orjson),
   ``check_csv`` (``csv.reader``), ``check_xml`` (expat),
   ``check_toml`` (regex rewrite of flat ``key = value`` lines with
   single-line arrays and inline tables) and ``check_yaml`` (regex over
   block lines of plain or escape-free double-quoted scalars, plus a
   small indent stack). A mask or fast path only ever accepts; a reject
   or subset miss runs the exact parser, so check_ids and line/col are
   always the reference's;
3. optional round-trip check (D2): parse -> serialize -> reparse ->
   deep-compare (the reference's property-test invariant,
   tests/property_tests.rs:121-156, applied per span);
4. violations + docmeta are written to per-partition parquet files by
   the stage itself (atomic tmp+rename) — the resumable-sink pattern;
5. each batch yields tiny per-partition partial rows (counts, kind
   histogram, t-digest / HLL sketch bytes). ``validate_file`` — one
   task per input partition file — merges its slices' rows, writes
   the merged row to ``partials/`` for the drift phase, and returns
   only its verdict fields, which the driver commits to the manifest
   as soon as the task returns with the expected row count. Neither
   the heavy input stream nor the sketches reach the driver.

Scale notes: the grammar walk is the workload's irreducible per-payload
compute (same as the reference's single-doc parse); throughput comes
from Ray parallelism. Everything around it is vectorized so the stage
wall-time is parser-bound, not plumbing-bound: the file is read without
Arrow's thread pool (the task already owns its CPU), the walk's texts
come out of Arrow as one object array, each doc_id is hashed once for
both the doc HLL and docmeta's ``doc_hash``, and a fresh t-digest of
unit weights compresses column-wise (``sketches._unit_clusters``).
"""

from __future__ import annotations

import functools
import json as _json
import os
import re
import time
import uuid

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..functions import errors as E
from ..functions.convert import (
    serialize_csv,
    serialize_json,
    serialize_toml,
    serialize_xml,
    serialize_yaml,
    xml_to_value,
)
from ..functions.csv_parser import accept_mask_csv, check_csv, parse_csv
from ..functions.errors import ParseError
from ..functions.json_parser import check_json, check_jsonc, parse_json, parse_jsonc
from ..functions.sketches import HyperLogLog, TDigest, hash64
from ..functions.toml_parser import accept_mask_toml, check_toml, parse_toml
from ..functions.xml_parser import check_xml, parse_xml
from ..functions.yaml_parser import accept_mask_yaml, check_yaml, parse_yaml
from ..schema import GRAMMAR_KINDS, MEDIA_KINDS, SPAN_KINDS, VIOLATIONS_SCHEMA
from ..value import values_equal

DEFAULT_MAX_SPAN_BYTES = 10 * 1024 * 1024  # reference default max_size

# kind sets as Arrow arrays for the pc.is_in prechecks
_SPAN_KINDS = pa.array(SPAN_KINDS)
_MEDIA_KINDS = pa.array(MEDIA_KINDS)
_GRAMMAR_KINDS = pa.array(GRAMMAR_KINDS)

_PARSERS = {
    "json": parse_json,
    "jsonc": parse_jsonc,
    "csv": parse_csv,
    "toml": parse_toml,
    "yaml": parse_yaml,
    "xml": parse_xml,
}

# round_trip off: only the verdict matters, so every kind takes its
# recognizer-only check (orjson, csv.reader, regex subsets, expat),
# which may only accept
_CHECKERS = {
    "json": check_json,
    "jsonc": check_jsonc,
    "csv": check_csv,
    "toml": check_toml,
    "yaml": check_yaml,
    "xml": check_xml,
}

# round_trip off, before the walk: one call per kind column says "valid"
# for most spans at once (RE2 + numpy), and only the rest are walked
_ACCEPT_MASKS = {
    "csv": accept_mask_csv,
    "toml": accept_mask_toml,
    "yaml": accept_mask_yaml,
}

_SERIALIZERS = {
    "json": serialize_json,
    "jsonc": serialize_json,
    "csv": serialize_csv,
    "toml": serialize_toml,
    "yaml": serialize_yaml,
}

PARTIALS_SCHEMA = pa.schema(
    [
        ("partition_id", pa.int32()),
        ("n_docs", pa.int64()),
        ("n_spans", pa.int64()),
        ("n_violations", pa.int64()),
        ("checks_failed", pa.string()),
        ("kind_hist", pa.string()),
        ("textlen_tdigest", pa.binary()),
        ("spans_tdigest", pa.binary()),
        ("doc_hll", pa.binary()),
        ("ref_hll", pa.binary()),
    ]
)


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
    }


DOCMETA_SCHEMA = pa.schema(
    [
        ("partition_id", pa.int32()),
        ("doc_id", pa.string()),
        # hash64(doc_id): phase 2a buckets and finds candidate
        # duplicates on this int column, and compares strings only
        # for the candidates
        ("doc_hash", pa.int64()),
        ("n_spans", pa.int32()),
        ("n_violations", pa.int32()),
    ]
)


def validate_payloads(
    kinds: np.ndarray,
    texts: np.ndarray,
    idxs: np.ndarray,
    round_trip: bool,
    parser_configs: dict | None = None,
):
    """Grammar walk over the selected spans; yields (flat_idx, check_id,
    detail, line, col) — grammar errors carry the parser's 1-based
    position (reference Pos, error.rs:8-44); round-trip violations carry
    (0, 0) since their position would be in the RESERIALIZED text, not
    the input. ``parser_configs`` maps kind -> per-format Config object
    (JsonConfig/TomlConfig/... — the reference's resource-limit guards,
    json/parser.rs:14-23, csv/parser.rs:8-11, exposed per job per
    SURVEY §1.2).

    Without ``round_trip`` the walk takes ``_CHECKERS``. A fast path
    there only ever says "valid": every reject and every guard miss runs
    the exact parser, so check_id, message and line/col are always the
    exact parser's. With ``round_trip`` the DOM is needed, so the walk
    takes ``_PARSERS``. The spans are walked grouped by kind; the rows
    come back in ``idxs`` order either way."""
    cfgs = parser_configs or {}
    table = _PARSERS if round_trip else _CHECKERS
    out = []
    # walk the spans grouped by kind, so one parser stays hot; each span
    # yields at most one row, led by its position p in idxs, and the rows
    # go back to idxs order at the end (a fixed-width str copy sorts
    # twice as fast as the object array, and plain ints index the object
    # arrays faster than numpy scalars)
    idxs = np.asarray(idxs, dtype=np.intp)
    order = np.argsort(kinds[idxs].astype(str), kind="stable")
    for p, i in zip(order.tolist(), idxs[order].tolist()):
        kind = kinds[i]
        parse = table[kind]
        cfg = cfgs.get(kind)
        try:
            value = parse(texts[i], cfg) if cfg is not None else parse(texts[i])
        except ParseError as e:
            out.append((p, i, e.check_id, e.message, e.line, e.col))
            continue
        except RecursionError:
            out.append((p, i, E.MAX_DEPTH_EXCEEDED, "recursion limit", 0, 0))
            continue
        if round_trip:
            if kind == "xml":
                # D2 for XML (ref convert.rs:492-659 semantics): reserialize
                # the parsed document, reparse, and compare at the VALUE
                # level (xml_to_value merges contiguous text runs, so a
                # comment splitting a text node — which the doc model keeps
                # as two str children — doesn't false-positive; whitespace-
                # only text is dropped by the parser on both legs).
                try:
                    back = parse(serialize_xml(value))
                except ParseError as e:
                    out.append((p, i, E.ROUND_TRIP, f"reparse failed: {e.check_id}", 0, 0))
                    continue
                if not values_equal(xml_to_value(back), xml_to_value(value)):
                    out.append((p, i, E.ROUND_TRIP, "value mismatch after round-trip", 0, 0))
                continue
            ser = _SERIALIZERS[kind]
            try:
                back = parse(ser(value))
            except ParseError as e:
                out.append((p, i, E.ROUND_TRIP, f"reparse failed: {e.check_id}", 0, 0))
                continue
            if not values_equal(back, value):
                out.append((p, i, E.ROUND_TRIP, "value mismatch after round-trip", 0, 0))
    out.sort()
    return [row[1:] for row in out]


def build_parser_configs(
    *,
    max_depth: int | None = None,
    allow_comments: bool = False,
    csv_delimiter: str | None = None,
) -> dict | None:
    """Job-level helper: build the kind -> Config map from the common
    per-run knobs (reference Config guards as constraint PARAMETERS,
    SURVEY §1.2). Returns None when everything is default."""
    if max_depth is None and not allow_comments and csv_delimiter is None:
        return None
    from ..functions.csv_parser import CsvConfig
    from ..functions.json_parser import JsonConfig
    from ..functions.toml_parser import TomlConfig
    from ..functions.yaml_parser import YamlConfig

    cfgs: dict = {}
    jkw = {}
    if max_depth is not None:
        jkw["max_depth"] = max_depth
    if allow_comments:
        jkw["allow_comments"] = True
        jkw["allow_trailing_commas"] = True
    if jkw:
        cfgs["json"] = JsonConfig(**jkw)
        cfgs["jsonc"] = JsonConfig(
            **{**jkw, "allow_comments": True, "allow_trailing_commas": True}
        )
    if max_depth is not None:
        cfgs["toml"] = TomlConfig(max_depth=max_depth)
        cfgs["yaml"] = YamlConfig(max_depth=max_depth)
    if csv_delimiter is not None:
        cfgs["csv"] = CsvConfig(delimiter=csv_delimiter)
    return cfgs


class SpanValidator:
    """Validates one Arrow batch of spans rows and writes its sink files;
    built once per ``validate_task`` call."""

    def __init__(
        self,
        assets_ref=None,
        out_dir: str | None = None,
        round_trip: bool = False,
        max_span_bytes: int = DEFAULT_MAX_SPAN_BYTES,
        assets_sorted: bool = False,
        quarantine: bool = False,
        parser_configs: dict | None = None,
    ):
        # broadcast key set: ray.put once on the driver; a ref passed as
        # a task argument arrives resolved, a nested one is fetched here
        self.assets: np.ndarray | None = None
        if assets_ref is not None:
            import ray

            assets = ray.get(assets_ref) if not isinstance(assets_ref, np.ndarray) else assets_ref
            self.assets = assets if assets_sorted else np.sort(np.asarray(assets, dtype=object))
        self.out_dir = out_dir
        self.round_trip = round_trip
        self.max_span_bytes = max_span_bytes
        self.quarantine = quarantine
        self.parser_configs = parser_configs
        # seconds spent in the grammar walk (masks included) and the sink
        # writes, over every call
        self.walk_s = 0.0
        self.sink_s = 0.0
        if out_dir:
            os.makedirs(os.path.join(out_dir, "violations"), exist_ok=True)
            os.makedirs(os.path.join(out_dir, "docmeta"), exist_ok=True)
            if quarantine:
                os.makedirs(os.path.join(out_dir, "quarantine"), exist_ok=True)

    # -- core ------------------------------------------------------------
    def __call__(self, batch: pa.Table, tag: str | None = None) -> pa.Table:
        """Validate ``batch``; returns its per-partition partial rows.
        The sink files are named ``part-<pid>-<tag>``: a caller that
        validates fixed slices of one file passes a tag stable across
        retries (its row offset), so a retried task overwrites the
        dead attempt's files instead of adding a second set. Without a
        tag the name is random, for callers that pass arbitrary
        batches."""
        if batch.num_rows == 0:
            return PARTIALS_SCHEMA.empty_table()
        doc_ids = pc.fill_null(batch["doc_id"].combine_chunks(), "")
        spans = batch["spans"].combine_chunks()
        pids = batch["partition_id"].combine_chunks().to_numpy()

        list_offsets = spans.offsets.to_numpy()  # n+1
        sv = spans.values
        if list_offsets[0] != 0 or len(sv) != list_offsets[-1]:
            # sliced ListArray: values cover the whole parent buffer and
            # offsets don't start at 0 — rebase so flat indices align
            base = int(list_offsets[0])
            sv = sv.slice(base, int(list_offsets[-1]) - base)
            list_offsets = list_offsets - base
        # null normalization (nulls never appear in our own layout but can
        # in foreign data): null kind/text/media_ref read as "" — a null
        # kind is then UnknownKind, a null grammar payload parses as the
        # empty document (a deterministic grammar error), a null media_ref
        # fails RefIntegrity; a null offset sorts as -1. The oracle
        # applies the SAME normalization.
        kind_arr = pc.fill_null(sv.field("kind"), "")
        kind_np = kind_arr.to_numpy(zero_copy_only=False)
        text_arr = pc.fill_null(sv.field("text"), "")
        media_np = pc.fill_null(sv.field("media_ref"), "").to_numpy(zero_copy_only=False)
        off_np = pc.fill_null(sv.field("offset"), -1).to_numpy()
        n_rows = batch.num_rows
        n_spans_total = len(kind_np)
        # row index of each flattened span
        row_of = np.repeat(np.arange(n_rows), np.diff(list_offsets))
        text_bytes = pc.binary_length(pc.cast(text_arr, pa.binary())).to_numpy()

        # (flat_idx or -1, row_idx, span_idx_in_row, check_id, detail)
        violations: list[tuple[int, int, str, str, int, int]] = []  # (flat_idx, row, check, detail, line, col)
        span_index_flat = np.arange(n_spans_total) - list_offsets[:-1][row_of]

        # 1. unknown kinds (vectorized membership)
        bad_kind = ~_is_in(kind_arr, _SPAN_KINDS)
        for i in np.flatnonzero(bad_kind):
            violations.append((i, int(row_of[i]), E.UNKNOWN_KIND, f"kind={kind_np[i]!r}", 0, 0))

        # 2. size limit (vectorized)
        too_big = text_bytes > self.max_span_bytes
        for i in np.flatnonzero(too_big):
            violations.append(
                (i, int(row_of[i]), E.MAX_SIZE_EXCEEDED, f"span bytes {text_bytes[i]}", 0, 0)
            )

        # 3. span offset order: strictly increasing within each row
        if n_spans_total > 1:
            inc = off_np[1:] <= off_np[:-1]
            same_row = row_of[1:] == row_of[:-1]
            bad_pos = np.flatnonzero(inc & same_row) + 1
            for i in bad_pos:
                violations.append(
                    (int(i), int(row_of[i]), E.SPAN_ORDER, f"offset {off_np[i]} after {off_np[i-1]}", 0, 0)
                )

        # 4. media_ref referential integrity (broadcast set, searchsorted)
        is_media = _is_in(kind_arr, _MEDIA_KINDS)
        if self.assets is not None and is_media.any():
            media_idx = np.flatnonzero(is_media)
            refs = media_np[media_idx]
            pos = np.searchsorted(self.assets, refs)
            pos = np.clip(pos, 0, len(self.assets) - 1)
            found = self.assets[pos] == refs
            missing = media_idx[(~found) | (refs == "")]
            for i in missing:
                violations.append((int(i), int(row_of[i]), E.REF_INTEGRITY, f"media_ref={media_np[i]!r}", 0, 0))

        # 5. grammar walk on surviving grammar spans
        is_grammar = _is_in(kind_arr, _GRAMMAR_KINDS)
        skip = bad_kind | too_big
        gram_idx = np.flatnonzero(is_grammar & ~skip)
        t_walk = time.perf_counter()
        if len(gram_idx) and not self.round_trip:
            gram_idx = _unmasked(kind_arr, text_arr, gram_idx, self.parser_configs or {})
        if len(gram_idx):
            # materialize ONLY the grammar spans as Python strings — text/
            # media spans (~40%) never enter the walk, so skipping their
            # str allocation cuts memory traffic at full-box occupancy
            texts_np = np.empty(n_spans_total, dtype=object)
            texts_np[gram_idx] = text_arr.take(
                pa.array(gram_idx, pa.int64())
            ).to_numpy(zero_copy_only=False)
            for i, check_id, detail, line, col in validate_payloads(
                kind_np, texts_np, gram_idx, self.round_trip, self.parser_configs
            ):
                violations.append((int(i), int(row_of[i]), check_id, detail, int(line), int(col)))
        self.walk_s += time.perf_counter() - t_walk

        # -- assemble outputs ---------------------------------------------
        doc_np = doc_ids.to_numpy(zero_copy_only=False)
        # one hash per doc_id: the doc HLL and docmeta's doc_hash share it
        doc_hashes = hash64(doc_np)
        viol_count_per_row = np.zeros(n_rows, dtype=np.int32)
        if violations:
            violations.sort(key=lambda v: (doc_np[v[1]], span_index_flat[v[0]], v[2]))
            for v in violations:
                viol_count_per_row[v[1]] += 1

        viol_table = pa.table(
            {
                "partition_id": pa.array(
                    [int(pids[v[1]]) for v in violations], pa.int32()
                ),
                "doc_id": pa.array([doc_np[v[1]] for v in violations], pa.string()),
                "span_index": pa.array(
                    [int(span_index_flat[v[0]]) for v in violations], pa.int32()
                ),
                "check_id": pa.array([v[2] for v in violations], pa.string()),
                "detail": pa.array([v[3] for v in violations], pa.string()),
                "offset": pa.array([int(off_np[v[0]]) for v in violations], pa.int32()),
                "line": pa.array([v[4] for v in violations], pa.int32()),
                "col": pa.array([v[5] for v in violations], pa.int32()),
            },
            schema=VIOLATIONS_SCHEMA,
        )

        # per-partition partials (a batch usually holds exactly one pid)
        partial_rows = []
        for pid in np.unique(pids):
            rmask = pids == pid
            smask = rmask[row_of]
            n_docs = int(rmask.sum())
            n_sp = int(smask.sum())
            n_viol = int(viol_count_per_row[rmask].sum())
            checks = sorted({v[2] for v in violations if pids[v[1]] == pid})
            td_text = TDigest()
            td_text.add(text_bytes[smask].astype(np.float64))
            td_spans = TDigest()
            td_spans.add(np.diff(list_offsets)[rmask].astype(np.float64))
            hll_doc = HyperLogLog()
            hll_doc.add_hashes(doc_hashes[rmask])
            hll_ref = HyperLogLog()
            refs_here = media_np[smask & is_media]
            if len(refs_here):
                hll_ref.add(refs_here)
            hist = pc.value_counts(kind_arr.filter(pa.array(smask))).to_pylist()
            partial_rows.append(
                {
                    "partition_id": int(pid),
                    "n_docs": n_docs,
                    "n_spans": n_sp,
                    "n_violations": n_viol,
                    "checks_failed": ",".join(checks),
                    "kind_hist": _json.dumps(
                        {h["values"]: h["counts"] for h in hist}, sort_keys=True
                    ),
                    "textlen_tdigest": td_text.to_bytes(),
                    "spans_tdigest": td_spans.to_bytes(),
                    "doc_hll": hll_doc.to_bytes(),
                    "ref_hll": hll_ref.to_bytes(),
                }
            )

        # resumable sink: write this batch's violations + docmeta per pid
        if self.out_dir:
            t_sink = time.perf_counter()
            tag = tag or uuid.uuid4().hex[:12]
            for pid in np.unique(pids):
                pid = int(pid)
                pv = viol_table.filter(pc.equal(viol_table["partition_id"], pid))
                self._atomic_write(
                    pv, os.path.join(self.out_dir, "violations", f"part-{pid:05d}-{tag}.parquet")
                )
                rmask = pids == pid
                dm = pa.table(
                    {
                        "partition_id": pa.array(pids[rmask].astype(np.int32)),
                        "doc_id": pa.array(doc_np[rmask], pa.string()),
                        "doc_hash": pa.array(doc_hashes[rmask].astype(np.int64)),
                        "n_spans": pa.array(np.diff(list_offsets)[rmask].astype(np.int32)),
                        "n_violations": pa.array(viol_count_per_row[rmask]),
                    },
                    schema=DOCMETA_SCHEMA,
                )
                self._atomic_write(
                    dm, os.path.join(self.out_dir, "docmeta", f"part-{pid:05d}-{tag}.parquet")
                )
                if self.quarantine:
                    # quarantine sink: keep the FULL failing rows so a
                    # cleanup pipeline can inspect/repair them; clean
                    # rows flow on untouched (failing docs are the rare
                    # case, so this writes little)
                    qmask = rmask & (viol_count_per_row > 0)
                    if qmask.any():
                        self._atomic_write(
                            batch.filter(pa.array(qmask)),
                            os.path.join(
                                self.out_dir, "quarantine", f"part-{pid:05d}-{tag}.parquet"
                            ),
                        )
            self.sink_s += time.perf_counter() - t_sink

        return pa.Table.from_pylist(partial_rows, schema=PARTIALS_SCHEMA)

    @staticmethod
    def _atomic_write(table: pa.Table, path: str) -> None:
        tmp = path + ".tmp"
        pq.write_table(table, tmp, compression="zstd")
        os.replace(tmp, path)


def _unmasked(kind_arr: pa.Array, text_arr: pa.Array, idx: np.ndarray, cfgs: dict) -> np.ndarray:
    """The spans of ``idx`` that no kind's accept mask accepted."""
    kinds = kind_arr.take(pa.array(idx))
    keep = np.ones(len(idx), bool)
    for kind, mask in _ACCEPT_MASKS.items():
        sel = np.flatnonzero(pc.equal(kinds, kind).to_numpy(zero_copy_only=False))
        if len(sel):
            keep[sel[mask(text_arr.take(pa.array(idx[sel])), cfgs.get(kind))]] = False
    return idx[keep]


def _is_in(arr: pa.Array, value_set: pa.Array) -> np.ndarray:
    return pc.is_in(arr, value_set=value_set).to_numpy(zero_copy_only=False)


_GC_TUNED = False


def _tune_gc_once() -> None:
    """Per-worker-process GC tuning: freeze the post-import baseline and
    raise the gen-0 threshold — the grammar walk allocates millions of
    short-lived objects and default thresholds trigger collections that
    thrash caches under full-machine concurrency."""
    global _GC_TUNED
    if not _GC_TUNED:
        import gc

        gc.collect()
        gc.freeze()
        gc.set_threshold(100_000, 50, 50)
        _GC_TUNED = True


def validate_task(
    batch: pa.Table,
    *,
    assets_ref=None,
    out_dir: str | None = None,
    round_trip: bool = False,
    max_span_bytes: int = DEFAULT_MAX_SPAN_BYTES,
    quarantine: bool = False,
    parser_configs: dict | None = None,
    carry_doc_hashes: bool = False,
    batch_size: int | None = None,
) -> pa.Table:
    """Validate one Arrow table of spans rows, which may hold several
    partitions; returns the partial rows of every slice.

    ``assets_ref`` is the driver's pre-sorted asset array, or a ref to
    it. ``batch_size`` slices the table: zero-copy slices of that many
    rows keep the working set cache-sized on large partitions (~25%
    faster at full concurrency than one whole-table call). Each slice
    returns its own partial rows, unmerged, and no ``partials/`` file
    is written (``validate_file`` merges and writes them). The
    sink files get random names, since the caller's batches need not be
    reproducible; ``validate_file`` is the form that names them by row
    offset. ``carry_doc_hashes`` has no effect and is kept only so
    existing callers still work.
    """
    return _validate_slices(
        batch,
        batch_size,
        tag_offsets=False,
        assets_ref=assets_ref,
        out_dir=out_dir,
        round_trip=round_trip,
        max_span_bytes=max_span_bytes,
        quarantine=quarantine,
        parser_configs=parser_configs,
    )[0]


def read_parquet_file(path: str, columns: list[str] | None = None) -> pa.Table:
    """One parquet file, read on the calling thread. A phase-1 task
    already owns its CPU and the driver's reads are small, so Arrow's
    thread pool and the dataset layer of ``pq.read_table`` only add
    set-up and contention."""
    try:
        f = pq.ParquetFile(path)
    except pa.ArrowInvalid as e:
        # ParquetFile's message omits the path, and phase 2a's error only
        # carries the message: name the file, as pq.read_table does
        raise pa.ArrowInvalid(f"Could not open Parquet input source '{path}': {e}") from e
    with f:
        return f.read(columns=columns, use_threads=False)


_PART_RE = re.compile(r"part-(\d+)\.parquet$")


def validate_file(path: str, *, batch_size: int | None = None, **kw) -> dict:
    """Phase 1's task body: read one partition file and validate it as
    ``validate_task`` does (same keyword arguments). The partition id is
    the file name's (``part-<pid>.parquet``); a row of any other id
    raises an error naming the file before anything is written, so every
    sink file is named by that id. Each slice's sink files are named by
    its row offset in the file, so a retried task rewrites the same
    files. The slices' partial rows are merged into one, which is written
    to ``partials/part-<pid>.parquet`` (atomic tmp+rename) after the
    violations and docmeta. Returns the fields of the merged row that a
    verdict needs, which the driver commits to the manifest; an empty
    file writes no partials and returns ``{"n_docs": 0}``. Either way the
    result also carries ``read_s``, ``walk_s`` and ``sink_s``: the
    seconds the task spent reading its file, in the grammar walk and
    writing its sink files (the driver sums them into ``timings``)."""
    t_read = time.perf_counter()
    pid = int(_PART_RE.search(path).group(1))
    table = read_parquet_file(path)
    t_read = time.perf_counter() - t_read
    ids = pc.unique(table["partition_id"]).to_pylist()
    if table.num_rows and ids != [pid]:
        raise ValueError(f"{path}: rows of partition_id {ids}, but the file name says {pid}")
    rows, v = _validate_slices(table, batch_size, tag_offsets=True, **kw)
    rows = rows.to_pylist()
    if not rows:
        return {"n_docs": 0, "read_s": t_read, "walk_s": v.walk_s, "sink_s": v.sink_s}
    part = functools.reduce(_merge_partials, rows)
    out_dir = kw.get("out_dir")
    if out_dir:
        t_sink = time.perf_counter()
        pdir = os.path.join(out_dir, "partials")
        os.makedirs(pdir, exist_ok=True)
        ppath = os.path.join(pdir, f"part-{pid:05d}.parquet")
        pq.write_table(pa.Table.from_pylist([part], schema=PARTIALS_SCHEMA), ppath + ".tmp")
        os.replace(ppath + ".tmp", ppath)
        v.sink_s += time.perf_counter() - t_sink
    return {
        **{k: part[k] for k in ("n_docs", "n_spans", "n_violations", "checks_failed")},
        "read_s": t_read,
        "walk_s": v.walk_s,
        "sink_s": v.sink_s,
    }


def _validate_slices(
    batch: pa.Table, batch_size: int | None, *, tag_offsets: bool, **validator_kw
) -> tuple[pa.Table, SpanValidator]:
    _tune_gc_once()
    v = SpanValidator(assets_sorted=True, **validator_kw)
    step = batch_size or max(batch.num_rows, 1)
    rows = pa.concat_tables(
        [
            v(batch.slice(i, step), f"{i:012d}" if tag_offsets else None)
            for i in range(0, max(batch.num_rows, 1), step)
        ]
    )
    return rows, v
