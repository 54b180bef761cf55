"""Single-process oracle: an INDEPENDENT, deliberately-naive
implementation of every pipeline check (plain row loops, Counter-based
dup detection) used by pytest to verify the distributed pipeline's
violations and verdicts byte-match after deterministic sort
(BASELINE.md parity gate).

Shares only the grammar parsers themselves with the pipeline (those are
unit-tested against the fixture corpus separately); all orchestration,
aggregation and constraint logic here is written independently.
"""

from __future__ import annotations

import glob
import os
from collections import Counter

import pyarrow as pa
import pyarrow.parquet as pq

from .functions import errors as E
from .functions.csv_parser import parse_csv
from .functions.errors import ParseError
from .functions.json_parser import parse_json, parse_jsonc
from .functions.toml_parser import parse_toml
from .functions.xml_parser import parse_xml
from .functions.yaml_parser import parse_yaml
from .functions.convert import (
    serialize_csv,
    serialize_json,
    serialize_toml,
    serialize_xml,
    serialize_yaml,
    xml_to_value,
)
from .schema import GRAMMAR_KINDS, MEDIA_KINDS, SPAN_KINDS
from .value import values_equal

_PARSE = {
    "json": parse_json,
    "jsonc": parse_jsonc,
    "csv": parse_csv,
    "toml": parse_toml,
    "yaml": parse_yaml,
    "xml": parse_xml,
}
_SER = {
    "json": serialize_json,
    "jsonc": serialize_json,
    "csv": serialize_csv,
    "toml": serialize_toml,
    "yaml": serialize_yaml,
}


def violation_sort_key(v: dict) -> tuple:
    """Total order on violation rows: a repeated doc_id can hit the same
    check with the same detail at two offsets, so the position fields
    break the tie and equal multisets sort to equal lists."""
    return (
        v["partition_id"], v["doc_id"], v["span_index"], v["check_id"], v["detail"],
        v["offset"], v["line"], v["col"],
    )


def oracle_validate(
    spans_dir: str,
    *,
    round_trip: bool = False,
    max_span_bytes: int = 10 * 1024 * 1024,
    parser_configs: dict | None = None,
) -> tuple[list[dict], list[dict]]:
    """Returns (violations, verdicts) as sorted lists of dicts."""
    assets: set[str] = set()
    apath = os.path.join(spans_dir, "assets.parquet")
    if os.path.exists(apath):
        assets = set(pq.read_table(apath)["asset_id"].to_pylist())

    violations: list[dict] = []
    per_part: dict[int, dict] = {}
    id_counts: Counter = Counter()
    id_parts: dict[str, list[int]] = {}

    for f in sorted(glob.glob(os.path.join(spans_dir, "spans", "part-*.parquet"))):
        for row in pq.read_table(f).to_pylist():
            pid = row["partition_id"]
            doc_id = row["doc_id"] or ""
            spans = row["spans"]
            stats = per_part.setdefault(
                pid, {"n_docs": 0, "n_spans": 0, "n_violations": 0, "checks": set()}
            )
            stats["n_docs"] += 1
            stats["n_spans"] += len(spans)
            id_counts[doc_id] += 1
            id_parts.setdefault(doc_id, []).append(pid)

            doc_viols = []
            prev_offset = None
            for si, span in enumerate(spans):
                # null normalization identical to SpanValidator: "" for
                # kind/text/media_ref, -1 for offset, "" for doc_id
                kind = span["kind"] or ""
                text = span["text"] if span["text"] is not None else ""
                ref = span["media_ref"] if span["media_ref"] is not None else ""
                off = span["offset"] if span["offset"] is not None else -1
                if prev_offset is not None and off <= prev_offset:
                    doc_viols.append((si, E.SPAN_ORDER, f"offset {off} after {prev_offset}", off, 0, 0))
                prev_offset = off
                if kind not in SPAN_KINDS:
                    doc_viols.append((si, E.UNKNOWN_KIND, f"kind={kind!r}", off, 0, 0))
                    continue
                nbytes = len(text.encode("utf-8"))
                too_big = nbytes > max_span_bytes
                if too_big:
                    doc_viols.append((si, E.MAX_SIZE_EXCEEDED, f"span bytes {nbytes}", off, 0, 0))
                if kind in MEDIA_KINDS:
                    if assets and (ref == "" or ref not in assets):
                        doc_viols.append((si, E.REF_INTEGRITY, f"media_ref={ref!r}", off, 0, 0))
                elif kind in GRAMMAR_KINDS and not too_big:
                    cfg = (parser_configs or {}).get(kind)
                    try:
                        value = _PARSE[kind](text, cfg) if cfg is not None else _PARSE[kind](text)
                    except ParseError as e:
                        doc_viols.append((si, e.check_id, e.message, off, e.line, e.col))
                        continue
                    if round_trip and kind == "xml":
                        # value-level XML round-trip (text runs merged by
                        # xml_to_value; same invariant as the pipeline)
                        try:
                            back = parse_xml(serialize_xml(value))
                        except ParseError as e:
                            doc_viols.append(
                                (si, E.ROUND_TRIP, f"reparse failed: {e.check_id}", off, 0, 0)
                            )
                            continue
                        if not values_equal(xml_to_value(back), xml_to_value(value)):
                            doc_viols.append(
                                (si, E.ROUND_TRIP, "value mismatch after round-trip", off, 0, 0)
                            )
                    elif round_trip:
                        try:
                            back = _PARSE[kind](_SER[kind](value))
                        except ParseError as e:
                            doc_viols.append(
                                (si, E.ROUND_TRIP, f"reparse failed: {e.check_id}", off, 0, 0)
                            )
                            continue
                        if not values_equal(back, value):
                            doc_viols.append(
                                (si, E.ROUND_TRIP, "value mismatch after round-trip", off, 0, 0)
                            )
            for si, check, detail, off, line, col in doc_viols:
                violations.append(
                    {
                        "partition_id": pid,
                        "doc_id": doc_id,
                        "span_index": si,
                        "check_id": check,
                        "detail": detail,
                        "offset": off,
                        "line": line,
                        "col": col,
                    }
                )
                stats["checks"].add(check)
            stats["n_violations"] += len(doc_viols)

    # duplicate doc ids (row-level DuplicateKey)
    for doc_id, n in sorted(id_counts.items()):
        if n > 1:
            for pid in id_parts[doc_id]:
                violations.append(
                    {
                        "partition_id": pid,
                        "doc_id": doc_id,
                        "span_index": -1,
                        "check_id": E.DUPLICATE_KEY,
                        "detail": f"doc_id appears {n} times",
                        "offset": -1,
                        "line": 0,
                        "col": 0,
                    }
                )
                per_part[pid]["checks"].add(E.DUPLICATE_KEY)
                per_part[pid]["n_violations"] += 1

    verdicts = [
        {
            "partition_id": pid,
            "passed": s["n_violations"] == 0,
            "n_docs": s["n_docs"],
            "n_spans": s["n_spans"],
            "n_violations": s["n_violations"],
            "checks_failed": ",".join(sorted(s["checks"])),
        }
        for pid, s in sorted(per_part.items())
    ]
    violations.sort(key=violation_sort_key)
    return violations, verdicts


def read_pipeline_outputs(out_dir: str) -> tuple[list[dict], list[dict]]:
    """Read the distributed run's outputs in the oracle's sort order."""
    vfiles = sorted(glob.glob(os.path.join(out_dir, "violations", "*.parquet")))
    viols = []
    for f in vfiles:
        viols.extend(pq.read_table(f).to_pylist())
    viols.sort(key=violation_sort_key)
    verdicts = pq.read_table(os.path.join(out_dir, "verdicts.parquet")).to_pylist()
    verdicts.sort(key=lambda v: v["partition_id"])
    return viols, verdicts
