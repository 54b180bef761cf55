"""Distributed CSV serialization (reference C4, convert.rs:135-247).

The reference's CSV serializer needs a union-of-keys header scan over
ALL rows before any row can be rendered — the one converter with
cross-row state. The distributed form is the canonical two-phase
barrier:

  phase A: map_batches -> per-block partial header lists (order of
           first appearance within the block)
  barrier: driver merges partials in block order -> global header list
           (broadcast via closure: it is tiny)
  phase B: map_batches -> render rows against the global header

Header ORDER is first-appearance order over the whole dataset, like the
reference's sequential scan; phase A tags each partial with its block's
position so the driver merge reproduces the sequential order exactly
(requires a deterministic block order, which read_parquet's file order
provides).
"""

from __future__ import annotations

import pyarrow as pa

from ..functions.convert import serialize_csv
from ..value import Value  # noqa: F401


def headers_partial(batch: pa.Table) -> pa.Table:
    seen = []
    seen_set = set()
    for row in batch.to_pylist():
        for k in row:
            if k not in seen_set:
                seen_set.add(k)
                seen.append(k)
    return pa.table({"headers": pa.array([seen], pa.list_(pa.string()))})


def merge_headers(partials: list[list[str]]) -> list[str]:
    out: list[str] = []
    seen: set[str] = set()
    for p in partials:
        for h in p:
            if h not in seen:
                seen.add(h)
                out.append(h)
    return out


def render_csv_rows(batch: pa.Table, *, headers: list[str], with_header: bool = False) -> pa.Table:
    """Render one block's rows against the GLOBAL header list using the
    reference cell semantics (string cells force-quoted, integral floats
    as %.0f, nested values as embedded JSON)."""
    rows = batch.to_pylist()
    # reuse the reference-parity serializer on (headers ∪ row) dicts:
    # pad each row to the global header set so the single-table
    # serializer emits the global layout; coerce Arrow ints to the value
    # model's f64-only numbers (value.rs:162-169 semantics)
    def _coerce(v):
        if isinstance(v, bool) or v is None:
            return v
        if isinstance(v, int):
            return float(v)
        if not isinstance(v, (float, str, list, dict)):
            return str(v)  # timestamps/decimals -> text cells
        return v

    padded = [{h: _coerce(r.get(h)) for h in headers} for r in rows]
    text = serialize_csv(padded)
    if not with_header and text:
        text = text.split("\n", 1)[1] if "\n" in text else ""
    return pa.table({"csv": pa.array([text], pa.string())})


def dataset_to_csv(ds, output_path: str | None = None) -> str:
    """Serialize a whole Dataset to one CSV string (or file). Preserves
    streaming in both phases; only headers and the final concatenation
    are driver-side. For large outputs prefer per-partition files (pass
    output_path=None and write per block instead)."""
    partials = [
        row["headers"]
        for row in ds.map_batches(headers_partial, batch_format="pyarrow").take_all()
    ]
    headers = merge_headers(partials)
    if not headers:
        return ""
    chunks = [
        row["csv"]
        for row in ds.map_batches(
            render_csv_rows, fn_kwargs={"headers": headers}, batch_format="pyarrow"
        ).take_all()
    ]
    header_line = serialize_csv([{h: None for h in headers}]).split("\n", 1)[0]
    text = header_line + "\n" + "".join(chunks)
    if output_path:
        with open(output_path, "w", encoding="utf-8") as f:
            f.write(text)
    return text
